//! Pretty-printer producing valid `.retreet` surface syntax.
//!
//! The printer is the inverse of [`crate::parser`]: printing a parsed
//! program and re-parsing it yields a structurally equal program, and
//! printing that again yields the same bytes (tested here and
//! property-tested on random client-style sources in the integration
//! suite).  The verdict cache relies on it: a program's printed text is its
//! cache identity, so two sources print alike only when they parse alike.
//!
//! Where the parser's block structure has no bare spelling, the printer
//! adds braces: a brace group nested in a statement list, a straight-line
//! block that a brace group split from the one before it, and a parallel
//! composition of fewer than two branches (`par { … }`).  Normalized
//! programs ([`crate::rewrite::normalize_program`]) need none of them.

use std::fmt::Write as _;

use crate::ast::{AExpr, Assign, BExpr, Block, BlockKind, Func, NodeRef, Program, Stmt};

/// Renders a whole program.
///
/// Programs with a non-binary arity get an `arity K;` header, and child
/// references are printed in the spelling the source used (`n.l`/`n.r` or
/// the indexed `n.c0`/`n.c1`), so parse–print roundtrips are stable for
/// both forms.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    if program.arity != 2 {
        let _ = writeln!(out, "arity {};\n", program.arity);
    }
    let mut printer = Printer {
        out: &mut out,
        loc: "",
        indexed: program.indexed_spelling,
    };
    for (i, func) in program.funcs.iter().enumerate() {
        if i > 0 {
            printer.out.push('\n');
        }
        printer.func(func);
    }
    out
}

/// Renders a single function in the canonical `l`/`r` spelling.
pub fn print_func(func: &Func, out: &mut String) {
    Printer {
        out,
        loc: "",
        indexed: false,
    }
    .func(func);
}

/// Writes functions straight into one output buffer.
struct Printer<'a> {
    out: &'a mut String,
    /// The `Loc` parameter of the function being printed: the spelling of
    /// the current node.
    loc: &'a str,
    indexed: bool,
}

impl<'a> Printer<'a> {
    fn func(&mut self, func: &'a Func) {
        self.loc = &func.loc_param;
        self.out.push_str("fn ");
        self.out.push_str(&func.name);
        self.out.push('(');
        self.out.push_str(self.loc);
        for param in &func.int_params {
            self.out.push_str(", ");
            self.out.push_str(param);
        }
        self.out.push_str(") {\n");
        self.stmt(&func.body, 1);
        self.out.push_str("}\n");
    }

    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("    ");
        }
    }

    /// A line at `level` holding only `text` (a brace or `||`).
    fn line(&mut self, level: usize, text: &str) {
        self.indent(level);
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn node(&mut self, node: &NodeRef) {
        self.out.push_str(self.loc);
        if let NodeRef::Child(axis) = node {
            match (self.indexed, axis.0) {
                (false, 0) => self.out.push_str(".l"),
                (false, 1) => self.out.push_str(".r"),
                (_, k) => {
                    let _ = write!(self.out, ".c{k}");
                }
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt, level: usize) {
        match stmt {
            Stmt::Block(block) => self.block(block, level),
            Stmt::If(cond, then_branch, else_branch) => {
                self.indent(level);
                self.out.push_str("if (");
                self.cond(cond);
                self.out.push_str(") {\n");
                self.stmt(then_branch, level + 1);
                if matches!(else_branch.as_ref(), Stmt::Seq(items) if items.is_empty()) {
                    self.line(level, "}");
                } else {
                    self.line(level, "} else {");
                    self.stmt(else_branch, level + 1);
                    self.line(level, "}");
                }
            }
            Stmt::Seq(items) => self.seq(items, level),
            Stmt::Par(branches) => {
                // `{ a || b }` needs two branches to read as parallel.
                self.line(level, if branches.len() < 2 { "par {" } else { "{" });
                for (i, branch) in branches.iter().enumerate() {
                    if i > 0 {
                        self.line(level, "||");
                    }
                    self.stmt(branch, level + 1);
                }
                self.line(level, "}");
            }
        }
    }

    /// The items of a statement list.  The parser splices nothing: a nested
    /// list is a brace group, and a straight-line block only ends at a
    /// `return`, a call, a control statement or a brace.  So a nested list,
    /// and a straight-line block right after one still open, keep braces.
    fn seq(&mut self, items: &[Stmt], level: usize) {
        let mut open_straight = false;
        for item in items {
            let straight = match item {
                Stmt::Block(block) => block.as_straight(),
                _ => None,
            };
            if matches!(item, Stmt::Seq(_)) || (open_straight && straight.is_some()) {
                self.line(level, "{");
                self.stmt(item, level + 1);
                self.line(level, "}");
                open_straight = false;
            } else {
                self.stmt(item, level);
                open_straight = straight.is_some_and(|straight| straight.ret.is_none());
            }
        }
    }

    fn block(&mut self, block: &Block, level: usize) {
        match &block.kind {
            BlockKind::Call(call) => {
                self.indent(level);
                if call.results.is_empty() {
                    // The grammar requires at least one result variable; use
                    // a throw-away name for result-less calls.
                    self.out.push_str("_ignored");
                } else {
                    self.list(&call.results, |printer, result| {
                        printer.out.push_str(result)
                    });
                }
                self.out.push_str(" = ");
                self.out.push_str(&call.callee);
                self.out.push('(');
                self.node(&call.target);
                for arg in &call.args {
                    self.out.push_str(", ");
                    self.aexpr(arg);
                }
                self.out.push_str(");\n");
            }
            BlockKind::Straight(straight) => {
                for assign in &straight.assigns {
                    self.indent(level);
                    let value = match assign {
                        Assign::SetField(node, field, value) => {
                            self.node(node);
                            self.out.push('.');
                            self.out.push_str(field);
                            value
                        }
                        Assign::SetVar(var, value) => {
                            self.out.push_str(var);
                            value
                        }
                    };
                    self.out.push_str(" = ");
                    self.aexpr(value);
                    self.out.push_str(";\n");
                }
                if let Some(ret) = &straight.ret {
                    self.indent(level);
                    self.out.push_str("return");
                    if !ret.is_empty() {
                        self.out.push(' ');
                        self.list(ret, Printer::aexpr);
                    }
                    self.out.push_str(";\n");
                }
            }
        }
    }

    /// `items` separated by `, `.
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        for (i, value) in items.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            item(self, value);
        }
    }

    fn aexpr(&mut self, expr: &AExpr) {
        match expr {
            AExpr::Const(c) => {
                let _ = write!(self.out, "{c}");
            }
            AExpr::Var(v) => self.out.push_str(v),
            AExpr::Field(node, field) => {
                self.node(node);
                self.out.push('.');
                self.out.push_str(field);
            }
            AExpr::Add(a, b) => self.binary(a, " + ", b),
            AExpr::Sub(a, b) => self.binary(a, " - ", b),
        }
    }

    fn binary(&mut self, lhs: &AExpr, op: &str, rhs: &AExpr) {
        self.out.push('(');
        self.aexpr(lhs);
        self.out.push_str(op);
        self.aexpr(rhs);
        self.out.push(')');
    }

    fn cond(&mut self, cond: &BExpr) {
        match cond {
            BExpr::True => self.out.push_str("true"),
            BExpr::IsNil(node) => {
                self.node(node);
                self.out.push_str(" == nil");
            }
            BExpr::Gt(expr) => {
                self.aexpr(expr);
                self.out.push_str(" > 0");
            }
            BExpr::Not(inner) => {
                self.out.push_str("!(");
                self.cond(inner);
                self.out.push(')');
            }
            BExpr::And(a, b) => {
                self.out.push('(');
                self.cond(a);
                self.out.push_str(") && (");
                self.cond(b);
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const ODD_EVEN: &str = r#"
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

    /// One program using every construct the printer emits, written with
    /// an `arity 3;` header in both child spellings.
    const EVERY_CONSTRUCT: &str = r#"
        arity 3;
        fn Main(n) {
            if (n == nil) { return 0, 0; }
            a = Sum(n.l, 1);
            b, c = Pair(n.r);
            { d = Sum(n.l, a - 2); n.s = d; || n.r.s = (b - c) + n.v; }
            par { n.w = 0; }
            n.t = a;
            { n.u = b; }
            { x = Sum(n.l, 0); y = Sum(n.r, 0); }
            if (!(n.v > 0) && n.l != nil) { c = -1; }
            else if (a >= b) { c = 2; }
            else { return; }
            return a + b, c;
        }
        fn Sum(n, k) {
            if (true && n.r.v < k) { return k; }
            return n.v;
        }
    "#;

    /// The exact bytes of [`EVERY_CONSTRUCT`] in the `l`/`r` spelling.  The
    /// verdict cache keys programs by these bytes and the verdict store
    /// records them, so a change here is a change of cache identity.
    const EVERY_CONSTRUCT_PRINTED: &str = "\
arity 3;

fn Main(n) {
    if (n == nil) {
        return 0, 0;
    }
    a = Sum(n.l, 1);
    b, c = Pair(n.r);
    {
        d = Sum(n.l, (a - 2));
        n.s = d;
    ||
        n.r.s = ((b - c) + n.v);
    }
    par {
        n.w = 0;
    }
    n.t = a;
    {
        n.u = b;
    }
    {
        x = Sum(n.l, 0);
        y = Sum(n.r, 0);
    }
    if ((!(n.v > 0)) && (!(n.l == nil))) {
        c = (0 - 1);
    } else {
        if (((a - b) + 1) > 0) {
            c = 2;
        } else {
            return;
        }
    }
    return (a + b), c;
}

fn Sum(n, k) {
    if ((true) && ((k - n.r.v) > 0)) {
        return k;
    }
    return n.v;
}
";

    /// The same program in the indexed spelling.
    const EVERY_CONSTRUCT_PRINTED_INDEXED: &str = "\
arity 3;

fn Main(n) {
    if (n == nil) {
        return 0, 0;
    }
    a = Sum(n.c0, 1);
    b, c = Pair(n.c1);
    {
        d = Sum(n.c0, (a - 2));
        n.s = d;
    ||
        n.c1.s = ((b - c) + n.v);
    }
    par {
        n.w = 0;
    }
    n.t = a;
    {
        n.u = b;
    }
    {
        x = Sum(n.c0, 0);
        y = Sum(n.c1, 0);
    }
    if ((!(n.v > 0)) && (!(n.c0 == nil))) {
        c = (0 - 1);
    } else {
        if (((a - b) + 1) > 0) {
            c = 2;
        } else {
            return;
        }
    }
    return (a + b), c;
}

fn Sum(n, k) {
    if ((true) && ((k - n.c1.v) > 0)) {
        return k;
    }
    return n.v;
}
";

    #[test]
    fn every_construct_prints_to_the_pinned_bytes_in_both_spellings() {
        let named = parse_program(EVERY_CONSTRUCT).unwrap();
        let indexed_source = EVERY_CONSTRUCT
            .replace("n.l", "n.c0")
            .replace("n.r", "n.c1");
        let indexed = parse_program(&indexed_source).unwrap();
        assert_eq!(named, indexed, "the spelling is not part of the program");
        for (program, pinned) in [
            (&named, EVERY_CONSTRUCT_PRINTED),
            (&indexed, EVERY_CONSTRUCT_PRINTED_INDEXED),
        ] {
            let printed = print_program(program);
            assert_eq!(printed, pinned);
            let reparsed = parse_program(&printed).unwrap();
            assert_eq!(&reparsed, program);
            assert_eq!(print_program(&reparsed), printed);
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let prog = parse_program(ODD_EVEN).unwrap();
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed).expect("printed program parses");
        assert_eq!(prog.funcs.len(), reparsed.funcs.len());
        for (a, b) in prog.funcs.iter().zip(reparsed.funcs.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.blocks().len(), b.blocks().len());
        }
    }

    #[test]
    fn printed_text_contains_parallel_separator() {
        let prog = parse_program(ODD_EVEN).unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("||"));
        assert!(printed.contains("fn Main(n)"));
    }

    #[test]
    fn prints_conditions_and_fields() {
        let src = r#"
            fn F(n, k) {
                if (n.v > k && n.l != nil) {
                    n.v = n.l.v - 1;
                }
                return n.v;
            }
            fn Main(n) {
                x = F(n, 3);
                return x;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed).expect("reparse");
        assert_eq!(
            prog.func("F").unwrap().blocks().len(),
            reparsed.func("F").unwrap().blocks().len()
        );
        assert!(printed.contains("n.l.v"));
    }

    #[test]
    fn round_trip_is_a_fixpoint() {
        let prog = parse_program(ODD_EVEN).unwrap();
        let once = print_program(&prog);
        let twice = print_program(&parse_program(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn indexed_spelling_prints_back_as_written() {
        let src = r#"
            fn F(n) {
                if (n == nil) { return 0; }
                a = F(n.c0);
                b = F(n.c1);
                n.s = n.c0.s + n.c1.s;
                return a + b;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("n.c0"), "{printed}");
        assert!(printed.contains("n.c1"), "{printed}");
        assert!(!printed.contains("n.l"), "{printed}");
        // Roundtrip is a fixpoint in the indexed spelling too.
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(prog, reparsed);
        assert_eq!(printed, print_program(&reparsed));
    }

    #[test]
    fn arity_header_roundtrips() {
        let src = r#"
            arity 3;
            fn Sum(n) {
                if (n == nil) { return 0; }
                a = Sum(n.c0);
                b = Sum(n.c1);
                c = Sum(n.c2);
                return a + b + c + n.v;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let printed = print_program(&prog);
        assert!(printed.starts_with("arity 3;"), "{printed}");
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(prog, reparsed);
        assert_eq!(reparsed.arity, 3);
        assert_eq!(printed, print_program(&reparsed));
    }
}
