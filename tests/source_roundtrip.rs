//! The printer is the parser's inverse on every source a client may send.
//!
//! The verdict cache identifies a program by its printed text, and the
//! service answers a request whose program text equals a cached entry's
//! text without parsing it.  That is exact only if `parse(print(p)) == p`
//! for every parsed program `p`, so two sources print alike exactly when
//! they parse alike.  These properties render random programs the way a
//! client might write them — random whitespace and `//` comments, the
//! `n.l` and `n.c0` spellings, `arity K;` headers, any `Loc` parameter
//! name, redundant parentheses and brace groups, both parallel forms, and
//! the comparisons the parser desugars — and check the roundtrip on each.

use proptest::prelude::*;
use retreet_lang::ast::Program;
use retreet_lang::parser::parse_program;
use retreet_lang::pretty::print_program;

/// A splitmix64 stream: one seed renders one program.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const LOCALS: [&str; 4] = ["a", "b", "x", "y"];
const FIELDS: [&str; 3] = ["v", "s", "w"];
const FUNCS: [&str; 3] = ["Main", "F", "G"];

/// Renders one random program as a token stream, then joins the tokens
/// with random whitespace and comments.
struct Writer {
    rng: Rng,
    tokens: Vec<String>,
    arity: u8,
    indexed: bool,
    loc: &'static str,
    params: Vec<&'static str>,
}

impl Writer {
    fn token(&mut self, token: impl Into<String>) {
        self.tokens.push(token.into());
    }

    fn program(&mut self) {
        if self.arity != 2 || self.rng.chance(15) {
            let arity = self.arity.to_string();
            for token in ["arity", &arity, ";"] {
                self.token(token);
            }
        }
        for name in &FUNCS[..1 + self.rng.below(FUNCS.len())] {
            self.function(name);
        }
    }

    fn function(&mut self, name: &str) {
        self.loc = self.rng.pick(&["n", "n", "m", "node", "t"]);
        self.params = ["k", "d"][..self.rng.below(3)].to_vec();
        self.token("fn");
        self.token(name);
        self.token("(");
        self.token(self.loc);
        for param in self.params.clone() {
            self.token(",");
            self.token(param);
        }
        self.token(")");
        self.braced(|w| w.statements(3));
    }

    fn braced(&mut self, body: impl FnOnce(&mut Self)) {
        self.token("{");
        body(self);
        self.token("}");
    }

    fn statements(&mut self, depth: usize) {
        for _ in 0..self.rng.below(5) {
            self.statement(depth);
        }
    }

    fn statement(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(4)
        } else {
            self.rng.below(9)
        };
        match choice {
            0 => {
                let var = self.rng.pick(&LOCALS);
                self.token(var);
                self.token("=");
                self.aexpr(2);
                self.token(";");
            }
            1 => {
                self.field_target();
                self.token("=");
                self.aexpr(2);
                self.token(";");
            }
            2 => {
                for i in 0..1 + self.rng.below(2) {
                    if i > 0 {
                        self.token(",");
                    }
                    let result = self.rng.pick(&LOCALS);
                    self.token(result);
                }
                self.token("=");
                let callee = self.rng.pick(&FUNCS);
                self.token(callee);
                self.token("(");
                self.node(true);
                for _ in 0..self.rng.below(3) {
                    self.token(",");
                    self.aexpr(1);
                }
                self.token(")");
                self.token(";");
            }
            3 => {
                self.token("return");
                for i in 0..self.rng.below(3) {
                    if i > 0 {
                        self.token(",");
                    }
                    self.aexpr(2);
                }
                self.token(";");
            }
            4 | 5 => self.conditional(depth),
            6 => {
                // `{ a || b || … }`, with empty branches allowed.
                self.braced(|w| {
                    for i in 0..2 + w.rng.below(2) {
                        if i > 0 {
                            w.token("||");
                        }
                        w.statements(depth - 1);
                    }
                });
            }
            7 => {
                self.token("par");
                self.braced(|w| w.statements(depth - 1));
            }
            _ => self.braced(|w| w.statements(depth - 1)),
        }
    }

    fn conditional(&mut self, depth: usize) {
        self.token("if");
        self.token("(");
        self.cond(2);
        self.token(")");
        self.braced(|w| w.statements(depth - 1));
        match self.rng.below(3) {
            0 => {}
            2 if depth > 1 => {
                self.token("else");
                self.conditional(depth - 1);
            }
            _ => {
                self.token("else");
                self.braced(|w| w.statements(depth - 1));
            }
        }
    }

    /// `n`, or (with `children`) sometimes a child `n.l` / `n.c2`.
    fn node(&mut self, children: bool) {
        self.token(self.loc);
        if children && self.rng.chance(60) {
            let axis = self.rng.below(self.arity as usize);
            let spelled = match axis {
                0 if !self.indexed => String::from("l"),
                1 if !self.indexed => String::from("r"),
                k => format!("c{k}"),
            };
            self.token(".");
            self.token(spelled);
        }
    }

    fn field_target(&mut self) {
        self.node(true);
        self.token(".");
        let field = self.rng.pick(&FIELDS);
        self.token(field);
    }

    fn aexpr(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(4)
        } else {
            self.rng.below(8)
        };
        match choice {
            0 => {
                let value = self.rng.below(100).to_string();
                self.token(value);
            }
            1 => {
                let var = self.rng.pick(&LOCALS);
                self.token(var);
            }
            2 if !self.params.is_empty() => {
                let param = self.params[self.rng.below(self.params.len())];
                self.token(param);
            }
            2 | 3 => self.field_target(),
            4 => {
                self.token("-");
                self.aexpr(depth - 1);
            }
            5 => {
                self.token("(");
                self.aexpr(depth - 1);
                self.token(")");
            }
            _ => {
                self.aexpr(depth - 1);
                let op = self.rng.pick(&["+", "-"]);
                self.token(op);
                self.aexpr(depth - 1);
            }
        }
    }

    fn cond(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(3)
        } else {
            self.rng.below(6)
        };
        match choice {
            0 => {
                self.node(true);
                let op = self.rng.pick(&["==", "!="]);
                self.token(op);
                self.token("nil");
            }
            1 => {
                self.aexpr(1);
                let op = self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                self.token(op);
                self.aexpr(1);
            }
            2 => self.token("true"),
            3 => {
                self.token("!");
                self.cond(depth - 1);
            }
            4 => {
                self.token("(");
                self.cond(depth - 1);
                self.token(")");
            }
            _ => {
                self.cond(depth - 1);
                self.token("&&");
                self.cond(depth - 1);
            }
        }
    }

    /// The tokens joined by random whitespace and comments; two word tokens
    /// always get at least one space.
    fn render(mut self) -> String {
        const GAPS: [&str; 7] = [" ", " ", "\n", "\t", "  ", "\n        ", " // note\n"];
        let word = |token: &str| token.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let tokens = std::mem::take(&mut self.tokens);
        let mut source = String::new();
        if self.rng.chance(20) {
            source.push_str("// a client's program\n");
        }
        for (i, token) in tokens.iter().enumerate() {
            let joined = i == 0 || !(word(&tokens[i - 1]) && word(token));
            if !(joined && self.rng.chance(40)) {
                source.push_str(GAPS[self.rng.below(GAPS.len())]);
            }
            source.push_str(token);
        }
        source.push('\n');
        source
    }
}

/// The source a client might send for `seed`.
fn client_source(seed: u64) -> String {
    let mut rng = Rng(seed);
    let arity = if rng.chance(70) {
        2
    } else {
        2 + rng.below(3) as u8
    };
    let indexed = rng.chance(40);
    let mut writer = Writer {
        rng,
        tokens: Vec::new(),
        arity,
        indexed,
        loc: "n",
        params: Vec::new(),
    };
    writer.program();
    writer.render()
}

/// `parse(print(p)) == p` and `print(parse(print(p))) == print(p)` for
/// `p = parse(source)`.
fn assert_roundtrip(source: &str) {
    let program: Program = parse_program(source)
        .unwrap_or_else(|err| panic!("generated source must parse: {err}\n{source}"));
    let printed = print_program(&program);
    let reparsed = parse_program(&printed)
        .unwrap_or_else(|err| panic!("printed program must parse: {err}\n{printed}"));
    assert_eq!(reparsed, program, "source:\n{source}\nprinted:\n{printed}");
    assert_eq!(
        print_program(&reparsed),
        printed,
        "printing is a fixpoint; source:\n{source}"
    );
}

proptest! {
    /// The roundtrip holds on random client-style sources.
    #[test]
    fn printed_client_sources_reparse_to_the_same_program(seed in any::<u64>()) {
        assert_roundtrip(&client_source(seed));
    }
}

/// The same property over 10,000 sources (run with `--ignored`).
#[test]
#[ignore = "10,000-case sweep; run in the heavy CI step"]
fn printed_client_sources_reparse_to_the_same_program_sweep() {
    for seed in 0..10_000 {
        assert_roundtrip(&client_source(seed));
    }
}

/// The block structures the printer needs braces for, each as a client
/// would write it: a brace group inside a statement list, a straight-line
/// block split off by braces, an empty group, single- and zero-branch
/// `par`, and a `Loc` parameter other than `n`.
#[test]
fn brace_groups_single_branch_par_and_loc_names_roundtrip() {
    for source in [
        "fn Main(n) { a = F(n.l); { b = F(n.r); c = F(n.l); } return a; }",
        "fn Main(n) { { n.v = 1; } n.s = 2; return 0; }",
        "fn Main(n) { n.v = 1; { n.s = 2; } n.w = 3; }",
        "fn Main(n) { a = F(n.l); { } }",
        "fn Main(n) { par { n.v = 1; n.s = 2; } par { } }",
        "fn Main(n) { { n.v = 1; { n.s = 2; } || n.w = 3; } }",
        "fn Main(node) { if (node.l == nil) { return 0; } a = Main(node.l); node.v = a; }",
    ] {
        assert_roundtrip(source);
    }
}

/// One program printed in both child spellings keeps its spelling but
/// parses to the same program: the verdict cache holds it twice.
#[test]
fn both_spellings_print_apart_and_parse_alike() {
    let named = parse_program("fn Main(n) { a = Main(n.l); b = Main(n.r); }").unwrap();
    let indexed = parse_program("fn Main(n) { a = Main(n.c0); b = Main(n.c1); }").unwrap();
    assert_eq!(named, indexed);
    assert_ne!(print_program(&named), print_program(&indexed));
}
