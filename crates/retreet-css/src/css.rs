//! A small CSS substrate: tokenizer, parser, AST, serializer and a synthetic
//! style-sheet generator.
//!
//! The paper's third case study (§5, Fig. 8) fuses three minification
//! traversals over the AST of a CSS document.  We cannot ship production
//! style sheets, so this module provides (a) a real tokenizer/parser for a
//! useful subset of CSS (rules, declarations, `property: value` pairs with
//! unit-bearing numeric values) and (b) a deterministic generator of
//! realistic synthetic style sheets used by the benchmarks — the substitution
//! is documented in `crates/README.md`, "The substrate".

use std::fmt;

/// One `property: value` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declaration {
    /// The property name (e.g. `font-weight`).
    pub property: String,
    /// The raw value text (e.g. `normal`, `100ms`, `initial`).
    pub value: String,
}

/// One rule: a selector and its declarations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rule {
    /// The selector text.
    pub selector: String,
    /// The declarations, in source order.
    pub declarations: Vec<Declaration>,
}

/// A parsed style sheet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stylesheet {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Stylesheet {
    /// Total number of declarations.
    pub fn num_declarations(&self) -> usize {
        self.rules.iter().map(|r| r.declarations.len()).sum()
    }

    /// Serialized size in bytes (the quantity minification reduces).
    pub fn serialized_len(&self) -> usize {
        self.to_css().len()
    }

    /// Serializes back to CSS text.
    pub fn to_css(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            out.push_str(&rule.selector);
            out.push('{');
            for (i, decl) in rule.declarations.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                out.push_str(&decl.property);
                out.push(':');
                out.push_str(&decl.value);
            }
            out.push('}');
        }
        out
    }
}

impl fmt::Display for Stylesheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_css())
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CssParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for CssParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CSS parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for CssParseError {}

/// Parses a style sheet (selectors, `{`, `property: value;` lists, `}`).
/// Comments (`/* … */`) are skipped.
pub fn parse_css(input: &str) -> Result<Stylesheet, CssParseError> {
    let bytes: Vec<char> = input.chars().collect();
    let mut pos = 0usize;
    let mut sheet = Stylesheet::default();
    loop {
        skip_ws_and_comments(&bytes, &mut pos);
        if pos >= bytes.len() {
            break;
        }
        // Selector: everything up to '{'.
        let selector_start = pos;
        while pos < bytes.len() && bytes[pos] != '{' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err(CssParseError {
                message: "expected `{` after selector".into(),
                offset: selector_start,
            });
        }
        let selector: String = bytes[selector_start..pos]
            .iter()
            .collect::<String>()
            .trim()
            .to_string();
        if selector.is_empty() {
            return Err(CssParseError {
                message: "empty selector".into(),
                offset: selector_start,
            });
        }
        pos += 1; // consume '{'
        let mut rule = Rule {
            selector,
            declarations: Vec::new(),
        };
        loop {
            skip_ws_and_comments(&bytes, &mut pos);
            if pos >= bytes.len() {
                return Err(CssParseError {
                    message: "unterminated rule".into(),
                    offset: pos,
                });
            }
            if bytes[pos] == '}' {
                pos += 1;
                break;
            }
            // property
            let prop_start = pos;
            while pos < bytes.len() && bytes[pos] != ':' && bytes[pos] != '}' {
                pos += 1;
            }
            if pos >= bytes.len() || bytes[pos] != ':' {
                return Err(CssParseError {
                    message: "expected `:` in declaration".into(),
                    offset: prop_start,
                });
            }
            let property: String = bytes[prop_start..pos]
                .iter()
                .collect::<String>()
                .trim()
                .to_string();
            pos += 1; // ':'
            let value_start = pos;
            while pos < bytes.len() && bytes[pos] != ';' && bytes[pos] != '}' {
                pos += 1;
            }
            let value: String = bytes[value_start..pos]
                .iter()
                .collect::<String>()
                .trim()
                .to_string();
            if bytes.get(pos) == Some(&';') {
                pos += 1;
            }
            if property.is_empty() {
                return Err(CssParseError {
                    message: "empty property name".into(),
                    offset: prop_start,
                });
            }
            rule.declarations.push(Declaration { property, value });
        }
        sheet.rules.push(rule);
    }
    Ok(sheet)
}

fn skip_ws_and_comments(bytes: &[char], pos: &mut usize) {
    loop {
        while *pos < bytes.len() && bytes[*pos].is_whitespace() {
            *pos += 1;
        }
        if *pos + 1 < bytes.len() && bytes[*pos] == '/' && bytes[*pos + 1] == '*' {
            *pos += 2;
            while *pos + 1 < bytes.len() && !(bytes[*pos] == '*' && bytes[*pos + 1] == '/') {
                *pos += 1;
            }
            *pos = (*pos + 2).min(bytes.len());
        } else {
            return;
        }
    }
}

/// Generates a deterministic synthetic style sheet with `rules` rules of a
/// few declarations each, exercising the properties and value shapes the
/// three minification passes care about (time units, font weights, `initial`
/// keywords).
pub fn generate_stylesheet(rules: usize, seed: u64) -> Stylesheet {
    let mut state = seed ^ 0x5DEECE66D;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let selectors = [
        ".card",
        "#header",
        "nav a",
        ".btn-primary",
        "article p",
        "ul > li",
    ];
    let mut sheet = Stylesheet::default();
    for r in 0..rules {
        let mut rule = Rule {
            selector: format!("{}{}", selectors[next() % selectors.len()], r),
            declarations: Vec::new(),
        };
        let num_decls = 2 + next() % 4;
        for _ in 0..num_decls {
            let decl = match next() % 5 {
                0 => Declaration {
                    property: "transition-duration".into(),
                    value: format!("{}00ms", 1 + next() % 9),
                },
                1 => Declaration {
                    property: "font-weight".into(),
                    value: if next() % 2 == 0 {
                        "normal".into()
                    } else {
                        "bold".into()
                    },
                },
                2 => Declaration {
                    property: "min-width".into(),
                    value: "initial".into(),
                },
                3 => Declaration {
                    property: "margin".into(),
                    value: format!("{}px", next() % 32),
                },
                _ => Declaration {
                    property: "color".into(),
                    value: format!("#{:06x}", next() % 0xFFFFFF),
                },
            };
            rule.declarations.push(decl);
        }
        sheet.rules.push(rule);
    }
    sheet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_sheet() {
        let sheet = parse_css(
            "/* header */\n.card { font-weight: normal; transition-duration: 100ms }\n#x{min-width:initial}",
        )
        .unwrap();
        assert_eq!(sheet.rules.len(), 2);
        assert_eq!(sheet.rules[0].selector, ".card");
        assert_eq!(sheet.rules[0].declarations.len(), 2);
        assert_eq!(sheet.rules[1].declarations[0].value, "initial");
    }

    #[test]
    fn serialization_round_trips() {
        let sheet = parse_css(".a { color: red; margin: 4px } .b { font-weight: bold }").unwrap();
        let reparsed = parse_css(&sheet.to_css()).unwrap();
        assert_eq!(sheet, reparsed);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_css(".a color: red }").is_err());
        assert!(parse_css(".a { color red }").is_err());
        assert!(parse_css("{ color: red }").is_err());
        assert!(parse_css(".a { color: red").is_err());
    }

    #[test]
    fn generator_is_deterministic_and_realistic() {
        let a = generate_stylesheet(50, 1);
        let b = generate_stylesheet(50, 1);
        let c = generate_stylesheet(50, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.rules.len(), 50);
        assert!(a.num_declarations() >= 100);
        // The workload exercises all three minification opportunities.
        let css = a.to_css();
        assert!(css.contains("ms"));
        assert!(css.contains("font-weight"));
        assert!(css.contains("initial"));
        // And it parses back.
        assert_eq!(parse_css(&css).unwrap(), a);
    }
}
