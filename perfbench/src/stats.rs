//! Latency recording in constant memory, and the order statistics the
//! report uses.

/// Smallest latency a bucket resolves, in ms (100 ns).
const FLOOR_MS: f64 = 1e-4;
/// Relative bucket width: quantiles are exact to within 0.2 %.
const WIDTH: f64 = 0.002;
/// Buckets from 100 ns up to about 1000 s.
const BUCKETS: usize = 12_000;

/// A log-linear latency histogram.  Its memory does not grow with the
/// number of requests, so the recorder does not move the peak RSS it sits
/// beside.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_low(bucket: usize) -> f64 {
    FLOOR_MS * (1.0 + WIDTH).powi(bucket as i32)
}

impl Histogram {
    pub fn record(&mut self, ms: f64) {
        let bucket = if ms <= FLOOR_MS {
            0
        } else {
            ((ms / FLOOR_MS).ln() / (1.0 + WIDTH).ln()) as usize
        };
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, interpolated geometrically inside its bucket (0
    /// when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + u64::from(count)) as f64 > rank {
                let fraction = ((rank - below as f64 + 0.5) / f64::from(count)).min(1.0);
                return bucket_low(bucket) * (1.0 + WIDTH).powf(fraction);
            }
            below += u64::from(count);
        }
        bucket_low(BUCKETS)
    }
}

/// Linear-interpolated quantile of sorted `values` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = (sorted.len() - 1) as f64 * q;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut histogram = Histogram::default();
        let mut values: Vec<f64> = (1..=20_000)
            .map(|i| 0.05 * (f64::from(i) / 3000.0).exp())
            .collect();
        for v in &values {
            histogram.record(*v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = quantile(&values, q);
            let approx = histogram.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.005,
                "{q}: {approx} vs {exact}"
            );
        }
    }
}
