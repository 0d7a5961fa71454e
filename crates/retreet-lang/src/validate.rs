//! Well-formedness checks for Retreet programs (§2 and §2.1 of the paper).
//!
//! The checks enforce exactly the restrictions the paper's MSO encoding
//! relies on:
//!
//! * a `Main` entry point exists;
//! * every called function is defined, and call arities match;
//! * the **no-self-call** restriction: a function `g(n, v̄)` never calls
//!   `g(n, …)` on the *same* node, directly or indirectly through a chain of
//!   same-node calls (calls on `n.l`/`n.r` make progress down the tree and
//!   are fine) — this is what bounds executions to `O(|P| · h(T))` steps;
//! * **single-node traversal**: every call's location argument is `n`,
//!   `n.l`, or `n.r` (built into the AST, re-checked here);
//! * **no tree mutation**: no assignment to the pointer fields `l`/`r`
//!   (rejected by the parser, re-checked here for programmatically built
//!   ASTs);
//! * consistent return arities across all `return` statements of a function
//!   and all calls to it.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Assign, BlockKind, Func, NodeRef, Program, Stmt, MAIN};

/// A single validation diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The function the problem was found in (empty for program-level
    /// problems).
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.func.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "in function `{}`: {}", self.func, self.message)
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a program, returning every problem found (empty = valid).
pub fn validate(program: &Program) -> Vec<ValidationError> {
    let mut errors = Vec::new();

    // Duplicate function names.
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for func in &program.funcs {
        *seen.entry(func.name.as_str()).or_default() += 1;
    }
    for (name, count) in &seen {
        if *count > 1 {
            errors.push(ValidationError {
                func: String::new(),
                message: format!("function `{name}` is defined {count} times"),
            });
        }
    }

    // Entry point.
    if program.main().is_none() {
        errors.push(ValidationError {
            func: String::new(),
            message: format!("no `{MAIN}` entry point"),
        });
    }

    for func in &program.funcs {
        validate_func(program, func, &mut errors);
    }

    // The no-self-call restriction: no cycle in the same-node call graph.
    check_same_node_cycles(program, &mut errors);

    errors
}

/// Convenience wrapper returning `Err` on the first batch of problems.
pub fn validate_or_err(program: &Program) -> Result<(), Vec<ValidationError>> {
    let errors = validate(program);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_func(program: &Program, func: &Func, errors: &mut Vec<ValidationError>) {
    let mut push = |message: String| {
        errors.push(ValidationError {
            func: func.name.clone(),
            message,
        })
    };

    let mut return_arities: Vec<usize> = Vec::new();
    for block in func.blocks() {
        match &block.kind {
            BlockKind::Call(call) => match program.func(&call.callee) {
                None => push(format!("call to undefined function `{}`", call.callee)),
                Some(callee) => {
                    if call.args.len() != callee.int_params.len() {
                        push(format!(
                            "call to `{}` passes {} integer argument(s), expected {}",
                            call.callee,
                            call.args.len(),
                            callee.int_params.len()
                        ));
                    }
                    if !call.results.is_empty() && call.results.len() != callee.num_returns {
                        push(format!(
                            "call to `{}` binds {} result(s), but it returns {}",
                            call.callee,
                            call.results.len(),
                            callee.num_returns
                        ));
                    }
                    if call.callee == func.name && call.target == NodeRef::Cur {
                        push(format!(
                            "function `{}` calls itself on the same node `{}` (violates the \
                                 no-self-call restriction)",
                            func.name, func.loc_param
                        ));
                    }
                }
            },
            BlockKind::Straight(straight) => {
                for assign in &straight.assigns {
                    if let Assign::SetField(_, field, _) = assign {
                        if field == "l" || field == "r" {
                            push(
                                "assignment to a pointer field (tree mutation) is not allowed"
                                    .to_string(),
                            );
                        }
                    }
                }
                if let Some(ret) = &straight.ret {
                    return_arities.push(ret.len());
                }
            }
        }
    }
    for arity in &return_arities {
        if *arity != func.num_returns {
            push(format!(
                "inconsistent return arity: found {}, function declares {}",
                arity, func.num_returns
            ));
            break;
        }
    }
}

/// Builds the *same-node* call graph (edges `g → h` when `g` contains a call
/// to `h` on the current node `n`) and reports every cycle, which would let a
/// function reach itself without descending the tree.
fn check_same_node_cycles(program: &Program, errors: &mut Vec<ValidationError>) {
    let n = program.funcs.len();
    let index: HashMap<&str, usize> = program
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, func) in program.funcs.iter().enumerate() {
        for block in func.blocks() {
            if let BlockKind::Call(call) = &block.kind {
                if call.target == NodeRef::Cur {
                    if let Some(&j) = index.get(call.callee.as_str()) {
                        edges[i].push(j);
                    }
                }
            }
        }
    }
    // A cycle exists iff some function can reach itself via same-node edges.
    for start in 0..n {
        let mut visited = vec![false; n];
        let mut stack = vec![start];
        let mut reached_self = false;
        while let Some(node) = stack.pop() {
            for &next in &edges[node] {
                if next == start {
                    reached_self = true;
                    break;
                }
                if !visited[next] {
                    visited[next] = true;
                    stack.push(next);
                }
            }
            if reached_self {
                break;
            }
        }
        if reached_self {
            errors.push(ValidationError {
                func: program.funcs[start].name.clone(),
                message: format!(
                    "function `{}` can call itself on the same node through same-node calls \
                     (violates the no-self-call restriction)",
                    program.funcs[start].name
                ),
            });
        }
    }
}

/// Checks whether a statement contains any parallel composition; useful for
/// clients that need to know whether race analysis is relevant at all.
pub fn has_parallelism(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Block(_) => false,
        Stmt::If(_, a, b) => has_parallelism(a) || has_parallelism(b),
        Stmt::Seq(items) => items.iter().any(has_parallelism),
        Stmt::Par(items) => !items.is_empty(),
    }
}

/// [`has_parallelism`] over every function of a program.
pub fn program_has_parallelism(program: &Program) -> bool {
    program.funcs.iter().any(|func| has_parallelism(&func.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn errors_of(src: &str) -> Vec<ValidationError> {
        validate(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_the_running_example() {
        let src = r#"
            fn Odd(n) {
                if (n == nil) { return 0; } else {
                    ls = Even(n.l);
                    rs = Even(n.r);
                    return ls + rs + 1;
                }
            }
            fn Even(n) {
                if (n == nil) { return 0; } else {
                    ls = Odd(n.l);
                    rs = Odd(n.r);
                    return ls + rs;
                }
            }
            fn Main(n) {
                { o = Odd(n); || e = Even(n); }
                return o, e;
            }
        "#;
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn missing_main_is_reported() {
        let src = "fn F(n) { return 0; }";
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("Main")));
    }

    #[test]
    fn undefined_callee_is_reported() {
        let src = r#"
            fn Main(n) {
                x = Ghost(n.l);
                return x;
            }
        "#;
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("undefined")));
    }

    #[test]
    fn direct_same_node_self_call_is_rejected() {
        let src = r#"
            fn F(n, k) {
                if (k > 0) {
                    x = F(n, k - 1);
                    return x;
                } else {
                    return 0;
                }
            }
            fn Main(n) {
                y = F(n, 3);
                return y;
            }
        "#;
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("no-self-call")));
    }

    #[test]
    fn indirect_same_node_cycle_is_rejected() {
        let src = r#"
            fn A(n) {
                x = B(n);
                return x;
            }
            fn B(n) {
                y = A(n);
                return y;
            }
            fn Main(n) {
                z = A(n);
                return z;
            }
        "#;
        let errors = errors_of(src);
        assert!(
            errors
                .iter()
                .filter(|e| e.message.contains("same-node"))
                .count()
                >= 2
        );
    }

    #[test]
    fn descending_mutual_recursion_is_allowed() {
        let src = r#"
            fn A(n) {
                if (n == nil) { return 0; } else {
                    x = B(n.l);
                    return x;
                }
            }
            fn B(n) {
                if (n == nil) { return 0; } else {
                    y = A(n);
                    return y;
                }
            }
            fn Main(n) {
                z = A(n);
                return z;
            }
        "#;
        // B calls A on the same node, but A only calls B on a child, so the
        // same-node graph has no cycle.
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn arity_mismatches_are_reported() {
        let src = r#"
            fn F(n, a, b) { return a + b; }
            fn Main(n) {
                x = F(n.l, 1);
                return x;
            }
        "#;
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("argument")));
    }

    #[test]
    fn result_arity_mismatches_are_reported() {
        let src = r#"
            fn F(n) { return 1, 2; }
            fn Main(n) {
                x = F(n.l);
                return x;
            }
        "#;
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("result")));
    }

    #[test]
    fn duplicate_functions_are_reported() {
        let src = r#"
            fn Main(n) { return 0; }
            fn Main(n) { return 1; }
        "#;
        let errors = errors_of(src);
        assert!(errors.iter().any(|e| e.message.contains("defined 2 times")));
    }

    #[test]
    fn has_parallelism_detects_par() {
        let prog = parse_program(
            r#"
            fn Main(n) {
                par { x = A(n.l); y = A(n.r); }
                return x + y;
            }
            fn A(n) { return 0; }
        "#,
        )
        .unwrap();
        assert!(has_parallelism(&prog.main().unwrap().body));
        assert!(!has_parallelism(&prog.func("A").unwrap().body));
    }

    #[test]
    fn validate_or_err_round_trip() {
        let good = parse_program("fn Main(n) { return 0; }").unwrap();
        assert!(validate_or_err(&good).is_ok());
        let bad = parse_program("fn F(n) { return 0; }").unwrap();
        assert!(validate_or_err(&bad).is_err());
    }
}
