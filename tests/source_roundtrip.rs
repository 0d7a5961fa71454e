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

mod common;

use common::client_source;
use proptest::prelude::*;
use retreet_lang::ast::Program;
use retreet_lang::parser::parse_program;
use retreet_lang::pretty::print_program;

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
        assert_roundtrip(&client_source(seed, 0));
    }
}

/// The same property over 10,000 sources (run with `--ignored`).
#[test]
#[ignore = "10,000-case sweep; run in the heavy CI step"]
fn printed_client_sources_reparse_to_the_same_program_sweep() {
    for seed in 0..10_000 {
        assert_roundtrip(&client_source(seed, 0));
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
