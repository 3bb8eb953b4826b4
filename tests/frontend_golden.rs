//! Frontend golden: pins what the lexer, parser, type checker and
//! lowering hand to the rest of the system, so a rewrite of their
//! internals cannot change a byte unnoticed.
//!
//! Three views are pinned:
//!
//! * the printed IR (`ipcp_ir::print::program_to_string`) of the twelve
//!   suite programs, the examples, the fuzz corpus and a generated
//!   1000-procedure scale program;
//! * the pretty-printed source of the same programs, parsed and checked,
//!   and the fact that printing, reparsing and printing again is a fixed
//!   point;
//! * the rendered diagnostics of a set of ill-formed programs that
//!   reaches every diagnostic the lexer, parser and type checker can
//!   produce.
//!
//! Program outputs are pinned as 64-bit FNV-1a digests; diagnostics are
//! pinned as their full rendered text. When a table no longer matches,
//! the failure message prints the whole table as computed, so a
//! deliberate change can be reviewed and pasted back in.

use ipcp::ir::print::program_to_string as ir_to_string;
use ipcp::lang::pretty::program_to_string as pretty_to_string;
use ipcp::suite::gen::{generate_scale, ScaleSpec};
use std::path::Path;

/// 64-bit FNV-1a: stable across platforms and Rust releases.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `.mf` files of a repository directory, sorted by name.
fn mf_files(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable source"))
        })
        .collect()
}

/// Every well-formed program the golden covers, labelled.
fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = ipcp::suite::all_specs()
        .iter()
        .map(|spec| {
            let program = ipcp::suite::generate(spec);
            (format!("suite/{}", program.name), program.source)
        })
        .collect();
    for dir in ["examples/programs", "tests/fuzz-corpus"] {
        for (name, source) in mf_files(dir) {
            out.push((format!("{dir}/{name}"), source));
        }
    }
    out.push((
        "scale/with_procs(1000, 7)".into(),
        generate_scale(&ScaleSpec::with_procs(1000, 7)).source,
    ));
    out
}

/// Compares computed digests with the pinned table, printing the
/// computed table on any difference.
fn assert_digests(what: &str, pinned: &[(&str, u64)], computed: &[(String, u64)]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|((pl, pd), (cl, cd))| pl == cl && pd == cd);
    if !same {
        let mut table = String::new();
        for (label, digest) in computed {
            table.push_str(&format!("    ({label:?}, 0x{digest:016x}),\n"));
        }
        panic!("{what} differs from the golden; computed table:\n{table}");
    }
}

#[test]
fn ir_print_matches_golden() {
    let computed: Vec<(String, u64)> = corpus()
        .into_iter()
        .map(|(label, source)| {
            let ir = ipcp::ir::compile_to_ir(&source)
                .unwrap_or_else(|d| panic!("{label}:\n{}", d.render(&source)));
            (label, fnv64(&ir_to_string(&ir)))
        })
        .collect();
    assert_digests("printed IR", IR_DIGESTS, &computed);
}

#[test]
fn pretty_round_trips_match_golden() {
    let computed: Vec<(String, u64)> = corpus()
        .into_iter()
        .map(|(label, source)| {
            let ast = ipcp::lang::parser::parse(&source)
                .unwrap_or_else(|d| panic!("{label}:\n{}", d.render(&source)));
            let parsed = pretty_to_string(&ast);
            let checked = ipcp::lang::typeck::check(ast)
                .unwrap_or_else(|d| panic!("{label}:\n{}", d.render(&source)));
            let resolved = pretty_to_string(&checked.program);
            // Resolution rewrites ambiguous nodes but prints them the
            // same way, and printing is a fixed point of reparsing.
            assert_eq!(
                parsed, resolved,
                "{label}: checking changed the printed source"
            );
            let reparsed = ipcp::lang::parser::parse(&parsed)
                .unwrap_or_else(|d| panic!("{label}: printed source:\n{}", d.render(&parsed)));
            assert_eq!(
                pretty_to_string(&reparsed),
                parsed,
                "{label}: print-parse-print is not a fixed point"
            );
            (label, fnv64(&parsed))
        })
        .collect();
    assert_digests("pretty-printed source", PRETTY_DIGESTS, &computed);
}

/// Runs the whole frontend on `source` and renders its diagnostics
/// (empty when the program compiles and lowers).
fn frontend_diagnostics(source: &str) -> String {
    match ipcp::ir::compile_to_ir(source) {
        Ok(_) => String::new(),
        Err(d) => d.render(source),
    }
}

#[test]
fn diagnostics_match_golden() {
    let mut mismatches = String::new();
    for (label, source, expected) in ILL_FORMED {
        let got = frontend_diagnostics(source);
        if got != *expected {
            mismatches.push_str(&format!("    ({label:?}, {source:?}, {got:?}),\n"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "diagnostics differ from the golden; computed rows:\n{mismatches}"
    );
}

const IR_DIGESTS: &[(&str, u64)] = &[
    ("suite/adm", 0x96b270163313d3da),
    ("suite/doduc", 0xe809d1a96e453c72),
    ("suite/fpppp", 0x5ce8959466d8ccc0),
    ("suite/linpackd", 0x697e4ef30c5b4586),
    ("suite/matrix300", 0x7983fabc2a1aa4f2),
    ("suite/mdg", 0x5874749a96ffd568),
    ("suite/ocean", 0x5666e5deca4e40c1),
    ("suite/qcd", 0x840eedb16ea72c2b),
    ("suite/simple", 0x19e39d09659860bd),
    ("suite/snasa7", 0x975c5209b98c1792),
    ("suite/spec77", 0x56fa634a3838d4ff),
    ("suite/trfd", 0x718394ba7347a258),
    ("examples/programs/heat.mf", 0xdf68aa244f5bb3ab),
    ("examples/programs/poly.mf", 0xac27acf696c81417),
    ("examples/programs/provenance.mf", 0x18d99299869bab10),
    (
        "tests/fuzz-corpus/cond-infeasible-branch-prune.mf",
        0x0f673653bcf126d9,
    ),
    ("tests/fuzz-corpus/dce-by-ref-global.mf", 0x55d2693d34c5c8e5),
    (
        "tests/fuzz-corpus/div-by-zero-trap-preserved.mf",
        0xe58376d079570174,
    ),
    (
        "tests/fuzz-corpus/div-min-by-neg-one.mf",
        0x7ab8d494f61d3815,
    ),
    (
        "tests/fuzz-corpus/min-literal-roundtrip.mf",
        0x0e8d08fc716a8f4a,
    ),
    (
        "tests/fuzz-corpus/negative-division-truncation.mf",
        0xc490008281216c14,
    ),
    (
        "tests/fuzz-corpus/zero-step-loop-trap.mf",
        0x19af7f79680adb32,
    ),
    ("scale/with_procs(1000, 7)", 0x53c6031ac6e39bab),
];

const PRETTY_DIGESTS: &[(&str, u64)] = &[
    ("suite/adm", 0x3f833a54bfe6a66d),
    ("suite/doduc", 0xe92f7bd5af19f3d8),
    ("suite/fpppp", 0x928885900f18ee2c),
    ("suite/linpackd", 0x8051842979c2df97),
    ("suite/matrix300", 0x0c67356d5072c6f5),
    ("suite/mdg", 0x66c7272cc7da8d5a),
    ("suite/ocean", 0xcbcde9c007a7e2da),
    ("suite/qcd", 0xbbadd16aba24a33e),
    ("suite/simple", 0x85185bf01a50e3dd),
    ("suite/snasa7", 0xbb1ff695f63919b8),
    ("suite/spec77", 0x84d86956ef39a309),
    ("suite/trfd", 0x0d3abf12fd3d0f7e),
    ("examples/programs/heat.mf", 0xf8db3d219af45181),
    ("examples/programs/poly.mf", 0x993507a5da818c06),
    ("examples/programs/provenance.mf", 0x2947384e67ce62d6),
    (
        "tests/fuzz-corpus/cond-infeasible-branch-prune.mf",
        0xa8de6659f0cd0dff,
    ),
    ("tests/fuzz-corpus/dce-by-ref-global.mf", 0xe91e245da724d508),
    (
        "tests/fuzz-corpus/div-by-zero-trap-preserved.mf",
        0x8625202ae04e1303,
    ),
    (
        "tests/fuzz-corpus/div-min-by-neg-one.mf",
        0x7e77cf58f74fcb57,
    ),
    (
        "tests/fuzz-corpus/min-literal-roundtrip.mf",
        0xd44ee3b823964193,
    ),
    (
        "tests/fuzz-corpus/negative-division-truncation.mf",
        0xddbe8b6719c14238,
    ),
    (
        "tests/fuzz-corpus/zero-step-loop-trap.mf",
        0xef4911145ddc3f05,
    ),
    ("scale/with_procs(1000, 7)", 0xee0b5c1cd48d82ff),
];

/// `(label, source, rendered diagnostics)`. The labels name the
/// diagnostic site each program reaches.
///
/// A few diagnostic sites cannot be reached from source text, so no
/// program here reaches them:
///
/// * the lexer's "malformed real literal": the lexer only hands
///   `digits.digits` to the float parser, which accepts every such text;
/// * the type checker's "`main` cannot be called": `main` is a keyword,
///   so no call can name it;
/// * the type checker's whole-array checks on `read` and `print`
///   targets, stores, unary and binary operands, integer contexts and
///   scalar parameters: the variable lookup beneath each of them already
///   rejects a bare array name outside an array-parameter position
///   ("array `a` needs an index here"), which is what the
///   `*-whole-array` rows pin.
const ILL_FORMED: &[(&str, &str, &str)] = &[
    // ---- lexer ----
    ("lex/bang", "main\nx = 1 ! 2\nend\n", "2:7: lex error: unexpected character `!` (did you mean `!=`?)\n"),
    ("lex/unexpected-char", "main\nx = $\nend\n", "2:5: lex error: unexpected character `$`\n"),
    ("lex/real-without-fraction", "main\nx = 1.\nend\n", "2:5: lex error: real literal requires digits after `.`\n"),
    ("lex/int-overflow", "main\nx = 99999999999999999999\nend\n", "2:5: lex error: integer literal `99999999999999999999` overflows i64\n"),
    ("lex/several", "main\nx = @ # $\ny = 1. + 2\nend\n\u{7f}", "2:5: lex error: unexpected character `@`\n3:5: lex error: real literal requires digits after `.`\n5:1: lex error: unexpected character `\u{7f}`\n"),
    // The doubled `=` is a parse error earlier in the source, but the
    // whole input is lexed before parsing starts.
    ("lex/after-parse-error", "main\nx = = 1\ny = 2 @ 3\nend\n", "3:7: lex error: unexpected character `@`\n"),
    // ---- parser ----
    ("parse/toplevel", "x = 1\n", "1:1: parse error: expected `global`, `proc`, `func` or `main`, found identifier `x`\n"),
    ("parse/toplevel-ident", "banana\n", "1:1: parse error: expected `global`, `proc`, `func` or `main`, found identifier `banana`\n"),
    ("parse/global-ident", "global 3\n", "1:8: parse error: expected identifier after `global`, found integer literal `3`\n"),
    ("parse/global-real-init", "global real x = 3\nmain\nend\n", "1:17: parse error: only integer scalar globals may have initializers\n"),
    ("parse/global-array-init", "global a(3) = 3\nmain\nend\n", "1:15: parse error: only integer scalar globals may have initializers\n"),
    ("parse/global-init-literal", "global n = m\nmain\nend\n", "1:12: parse error: global initializer must be an integer literal, found identifier `m`\n"),
    ("parse/global-init-real", "global n = 1.5\nmain\nend\n", "1:12: parse error: global initializer must be an integer literal, found real literal `1.5`\n"),
    ("parse/global-init-min-magnitude", "global n = 9223372036854775808\nmain\nend\n", "1:12: parse error: global initializer must be an integer literal, found integer literal `9223372036854775808` (only valid immediately after a unary `-`)\n"),
    ("parse/global-sep", "global n m\nmain\nend\n", "1:10: parse error: expected end of line after global declaration, found identifier `m`\n"),
    ("parse/array-len-zero", "global a(0)\nmain\nend\n", "1:10: parse error: array length must be a positive integer literal, found integer literal `0`\n"),
    ("parse/array-len-name", "main\ninteger a(n)\nend\n", "2:11: parse error: array length must be a positive integer literal, found identifier `n`\n"),
    ("parse/array-len-rparen", "global a(3\nmain\nend\n", "1:11: parse error: expected `)` after array length, found end of line\n"),
    ("parse/proc-name", "proc (x)\nend\n", "1:6: parse error: expected identifier as procedure name, found `(`\n"),
    ("parse/proc-lparen", "proc f\nend\n", "1:7: parse error: expected `(` after procedure name, found end of line\n"),
    ("parse/param-name", "proc f(1)\nend\n", "1:8: parse error: expected identifier as parameter name, found integer literal `1`\n"),
    ("parse/param-list-rparen", "proc f(a b)\nend\n", "1:10: parse error: expected `)` after parameter list, found identifier `b`\n"),
    ("parse/assumed-size-rparen", "proc f(a(3))\nend\n", "1:10: parse error: expected `)` in assumed-size array parameter, found integer literal `3`\n"),
    ("parse/proc-header-sep", "proc f() x\nend\n", "1:10: parse error: expected end of line after procedure header, found identifier `x`\n"),
    ("parse/main-sep", "main x\nend\n", "1:6: parse error: expected end of line after `main`, found identifier `x`\n"),
    ("parse/proc-end", "main\nx = 1\n", "3:1: parse error: expected `end` to close procedure, found end of input\n"),
    ("parse/after-end", "main\nend x\n", "2:5: parse error: expected end of line after `end`, found identifier `x`\n"),
    ("parse/decl-ident", "main\ninteger 5\nend\n", "2:9: parse error: expected identifier in declaration, found integer literal `5`\n"),
    ("parse/decl-sep", "main\ninteger a b\nend\n", "2:11: parse error: expected end of line after declaration, found identifier `b`\n"),
    ("parse/decl-after-stmt", "main\nx = 1\nreal y\nend\n", "3:1: parse error: declarations must appear before the first statement of a procedure\n"),
    ("parse/statement", "main\n+ 1\nend\n", "2:1: parse error: expected a statement, found `+`\n"),
    ("parse/statement-literal", "main\n42\nend\n", "2:1: parse error: expected a statement, found integer literal `42`\n"),
    ("parse/if-then", "main\nif x > 0\ny = 1\nend\nend\n", "2:9: parse error: expected `then` after `if` condition, found end of line\n"),
    ("parse/then-sep", "main\nif x then y = 1\nend\nend\n", "2:11: parse error: expected end of line after `then`, found identifier `y`\n"),
    ("parse/if-end", "main\nif x then\ny = 1\n", "4:1: parse error: expected `end` to close `if`, found end of input\n"),
    ("parse/else-sep", "main\nif x then\nelse y = 1\nend\nend\n", "3:6: parse error: expected end of line after `else`, found identifier `y`\n"),
    ("parse/while-do", "main\nwhile x\ny = 1\nend\nend\n", "2:8: parse error: expected `do` after `while` condition, found end of line\n"),
    ("parse/do-sep", "main\nwhile x do y\nend\nend\n", "2:12: parse error: expected end of line after `do`, found identifier `y`\n"),
    ("parse/while-end", "main\nwhile x do\n", "3:1: parse error: expected `end` to close `while`, found end of input\n"),
    ("parse/do-var", "main\ndo 1 = 1, 2\nend\nend\n", "2:4: parse error: expected identifier as `do` loop variable, found integer literal `1`\n"),
    ("parse/do-assign", "main\ndo i, 1, 2\nend\nend\n", "2:5: parse error: expected `=` after loop variable, found `,`\n"),
    ("parse/do-comma", "main\ndo i = 1 2\nend\nend\n", "2:10: parse error: expected `,` after `do` initial value, found integer literal `2`\n"),
    ("parse/do-header-sep", "main\ndo i = 1, 2, 3, 4\nend\nend\n", "2:15: parse error: expected end of line after `do` header, found `,`\n"),
    ("parse/do-end", "main\ndo i = 1, 2\n", "3:1: parse error: expected `end` to close `do`, found end of input\n"),
    ("parse/call-name", "main\ncall 3()\nend\n", "2:6: parse error: expected identifier as callee name, found integer literal `3`\n"),
    ("parse/call-lparen", "main\ncall f\nend\n", "2:7: parse error: expected `(` after callee name, found end of line\n"),
    ("parse/call-rparen", "main\ncall f(1 2)\nend\n", "2:10: parse error: expected `)` after arguments, found integer literal `2`\n"),
    ("parse/call-sep", "main\ncall f() g\nend\n", "2:10: parse error: expected end of line after `call`, found identifier `g`\n"),
    ("parse/return-sep", "main\nreturn 1 2\nend\n", "2:10: parse error: expected end of line after `return`, found integer literal `2`\n"),
    ("parse/read-lparen", "main\nread x\nend\n", "2:6: parse error: expected `(` after `read`, found identifier `x`\n"),
    ("parse/read-target", "main\nread(1)\nend\n", "2:6: parse error: expected identifier as assignment target, found integer literal `1`\n"),
    ("parse/read-rparen", "main\nread(x y)\nend\n", "2:8: parse error: expected `)` after `read` target, found identifier `y`\n"),
    ("parse/read-sep", "main\nread(x) y\nend\n", "2:9: parse error: expected end of line after `read`, found identifier `y`\n"),
    ("parse/print-lparen", "main\nprint x\nend\n", "2:7: parse error: expected `(` after `print`, found identifier `x`\n"),
    ("parse/print-rparen", "main\nprint(x y)\nend\n", "2:9: parse error: expected `)` after `print` value, found identifier `y`\n"),
    ("parse/print-sep", "main\nprint(x) y\nend\n", "2:10: parse error: expected end of line after `print`, found identifier `y`\n"),
    ("parse/assign", "main\nx y\nend\n", "2:3: parse error: expected `=` in assignment, found identifier `y`\n"),
    ("parse/assign-sep", "main\nx = 1 y\nend\n", "2:7: parse error: expected end of line after assignment, found identifier `y`\n"),
    ("parse/index-rparen", "main\na(1 = 2\nend\n", "2:5: parse error: expected `)` after array index, found `=`\n"),
    ("parse/chained-comparison", "main\nx = 1 < 2 < 3\nend\n", "2:11: parse error: expected end of line after assignment, found `<`\n"),
    ("parse/expression", "main\nx = )\nend\n", "2:5: parse error: expected an expression, found `)`\n"),
    ("parse/expression-keyword", "main\nx = end\n", "2:5: parse error: expected an expression, found `end`\n"),
    ("parse/paren-rparen", "main\nx = (1 + 2\nend\n", "2:11: parse error: expected `)` to close parenthesized expression, found end of line\n"),
    ("parse/args-rparen", "main\nx = f(1, 2\nend\n", "2:11: parse error: expected `)` after arguments, found end of line\n"),
    ("parse/min-magnitude", "main\nx = 9223372036854775808\nend\n", "2:5: parse error: expected an expression, found integer literal `9223372036854775808` (only valid immediately after a unary `-`)\n"),
    ("parse/real-found", "main\nx 1.5\nend\n", "2:3: parse error: expected `=` in assignment, found real literal `1.5`\n"),
    ("parse/newline-found", "main\nx =\nend\n", "2:4: parse error: expected an expression, found end of line\n"),
    ("parse/trailing-operator", "main\nx = 1 +", "2:8: parse error: expected an expression, found end of line\n"),
    ("parse/statement-nesting", STATEMENT_NESTING, "65:4: parse error: expression nesting exceeds the supported depth of 64\n"),
    ("parse/expression-nesting", EXPRESSION_NESTING, "2:68: parse error: expression nesting exceeds the supported depth of 64\n"),
    ("parse/not-nesting", NOT_NESTING, "2:253: parse error: expression nesting exceeds the supported depth of 64\n"),
    // ---- type checker ----
    ("check/no-main", "proc f()\nend\n", "1:1: check error: program has no `main`\n"),
    ("check/duplicate-global", "global g\nglobal g\nmain\nend\n", "2:1: check error: duplicate global `g`\n"),
    ("check/global-vs-proc", "global f\nproc f()\nend\nmain\nend\n", "1:1: check error: global `f` conflicts with a procedure name\n"),
    ("check/duplicate-proc", "proc f()\nend\nproc f()\nend\nmain\nend\n", "3:1: check error: duplicate procedure `f`\n"),
    ("check/two-mains", "main\nend\nmain\nend\n", "3:1: check error: duplicate procedure `main`\n"),
    ("check/param-vs-proc", "proc f(g)\nend\nproc g()\nend\nmain\nend\n", "1:8: check error: parameter `g` conflicts with a procedure name\n"),
    ("check/duplicate-param", "proc f(a, a)\nend\nmain\nend\n", "1:11: check error: duplicate parameter `a`\n"),
    ("check/local-vs-proc", "proc f()\ninteger g\nend\nproc g()\nend\nmain\nend\n", "2:9: check error: local `g` conflicts with a procedure name\n"),
    ("check/duplicate-local", "proc f(a)\ninteger a\nreal b, b\nend\nmain\nend\n", "2:9: check error: `a` is already declared in this procedure\n3:9: check error: `b` is already declared in this procedure\n"),
    ("check/proc-as-variable", "proc f()\nend\nmain\nx = f\nf = 1\nend\n", "4:5: check error: `f` is a procedure, not a variable\n5:1: check error: `f` is a procedure, not a variable\n"),
    ("check/do-real-var", "main\nreal r\ndo r = 1, 2\nend\nend\n", "3:1: check error: `do` variable `r` must be an integer scalar\n"),
    ("check/do-array-var", "main\ninteger a(3)\ndo a = 1, 2\nend\nend\n", "3:1: check error: `do` variable `a` must be an integer scalar\n"),
    ("check/do-real-bounds", "main\ndo i = 1.5, 2.5, 0.5\nend\nend\n", "2:8: check error: `do` initial value must be an integer\n2:13: check error: `do` bound must be an integer\n2:18: check error: `do` step must be an integer\n"),
    ("check/unknown-procedure", "main\ncall nowhere(1)\nend\n", "2:1: check error: unknown procedure `nowhere`\n"),
    ("check/call-function", "func f(a)\nreturn a\nend\nmain\ncall f(1.5)\nend\n", "5:1: check error: `f` is a function; call it inside an expression\n5:8: check error: cannot pass a real value for an integer parameter\n"),
    ("check/return-without-value", "func f()\nreturn\nend\nmain\nend\n", "2:1: check error: function `return` requires a value\n"),
    ("check/return-value-from-proc", "proc f()\nreturn 1\nend\nmain\nreturn 2\nend\n", "2:1: check error: only functions may return a value\n5:1: check error: only functions may return a value\n"),
    ("check/return-real", "func f()\nreturn 1.5\nend\nmain\nend\n", "2:8: check error: function return value must be an integer\n"),
    ("check/read-whole-array", "main\ninteger a(3)\nread(a)\nend\n", "3:6: check error: array `a` needs an index here\n"),
    ("check/print-whole-array", "main\ninteger a(3)\nprint(a)\nend\n", "3:7: check error: array `a` needs an index here\n"),
    ("check/real-into-int", "main\nx = 1.5\nend\n", "2:1: check error: cannot assign a real value to an integer location\n"),
    ("check/assign-whole-array", "main\ninteger a(3), b(3)\nx = a\nend\n", "3:5: check error: array `a` needs an index here\n"),
    ("check/store-into-whole-array", "proc f(a())\nend\nmain\ninteger a(3)\na = 1\nend\n", "5:1: check error: array `a` needs an index here\n"),
    ("check/lvalue-array-needs-index", "main\ninteger a(3)\nread(a)\na = 2\nend\n", "3:6: check error: array `a` needs an index here\n4:1: check error: array `a` needs an index here\n"),
    ("check/lvalue-scalar-indexed", "main\nx(1) = 2\nread(y(1))\nend\n", "2:1: check error: `x` is a scalar and cannot be indexed\n3:6: check error: `y` is a scalar and cannot be indexed\n"),
    ("check/lvalue-real-index", "main\ninteger a(3)\na(1.5) = 2\nend\n", "3:3: check error: array index must be an integer\n"),
    ("check/arity", "proc f(a, b)\nend\nmain\ncall f(1)\ncall f(1, 2, 3)\nend\n", "4:1: check error: `f` expects 2 argument(s), found 1\n5:1: check error: `f` expects 2 argument(s), found 3\n"),
    ("check/real-for-int-param", "proc f(a)\nend\nmain\ncall f(2.5)\nend\n", "4:8: check error: cannot pass a real value for an integer parameter\n"),
    ("check/array-for-scalar-param", "proc f(a)\nend\nmain\ninteger v(3)\ncall f(v)\nend\n", "5:8: check error: array `v` needs an index here\n"),
    ("check/array-element-type", "proc f(a())\nend\nmain\nreal v(3)\ncall f(v)\nend\n", "5:8: check error: array argument element type mismatch\n"),
    ("check/scalar-for-array-param", "proc f(a())\nend\nmain\ncall f(1)\nend\n", "4:8: check error: expected a whole array argument (bare array name)\n"),
    ("check/name-array-needs-index", "main\ninteger a(3)\nx = a + 1\nend\n", "3:5: check error: array `a` needs an index here\n"),
    ("check/index-arity", "main\ninteger a(3)\nx = a(1, 2)\nend\n", "3:5: check error: array `a` takes exactly one index\n"),
    ("check/index-scalar", "global g\nmain\ny = 1\nx = y(1) + g(2)\nend\n", "4:5: check error: `y` is a scalar and cannot be indexed\n4:12: check error: `g` is a scalar and cannot be indexed\n"),
    ("check/index-real", "main\ninteger a(3)\nx = a(0.5)\nend\n", "3:7: check error: array index must be an integer\n"),
    ("check/subroutine-in-expression", "proc f()\nend\nmain\nx = f(1)\nend\n", "4:5: check error: `f` is a subroutine; use `call f(...)`\n"),
    ("check/unknown-array-or-function", "main\nx = g(1)\nend\n", "2:5: check error: unknown array or function `g`\n"),
    ("check/not-real", "main\nx = not 1.5\nend\n", "2:5: check error: `not` requires an integer operand\n"),
    ("check/unary-whole-array", "proc f(a)\nend\nproc g(v())\ncall f(-v)\nend\nmain\nend\n", "4:9: check error: array `v` needs an index here\n"),
    ("check/binary-whole-array", "proc f(a)\nend\nproc g(v())\ncall f(v + 1)\nend\nmain\nend\n", "4:8: check error: array `v` needs an index here\n"),
    ("check/logical-real", "main\nx = 1.5 and 1\ny = 2 or 2.5\nz = 1.5 % 2\nend\n", "2:5: check error: `and` requires integer operands\n3:5: check error: `or` requires integer operands\n4:5: check error: `%` requires integer operands\n"),
    ("check/if-real", "main\nif 1.5 then\nend\nend\n", "2:4: check error: `if` condition must be an integer\n"),
    ("check/while-whole-array", "proc g(v())\nwhile v do\nend\nend\nmain\nend\n", "2:7: check error: array `v` needs an index here\n"),
    ("check/fn-args", "func f(a, real b, c())\nreturn a\nend\nmain\nreal r(2)\nx = f(1.5, 2, r)\nend\n", "6:7: check error: cannot pass a real value for an integer parameter\n6:15: check error: array argument element type mismatch\n"),
    ("check/sorted-by-span", "main\ncall nowhere()\nx = 1.5\ny = not 2.5\nend\nproc f()\nend\nglobal f\nglobal f\n", "2:1: check error: unknown procedure `nowhere`\n3:1: check error: cannot assign a real value to an integer location\n4:5: check error: `not` requires an integer operand\n8:1: check error: global `f` conflicts with a procedure name\n9:1: check error: duplicate global `f`\n9:1: check error: global `f` conflicts with a procedure name\n"),
];

/// Sixty-five nested `if` statements, one past the parser's limit.
const STATEMENT_NESTING: &str = concat!(
    "main\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\nif 1 then\n",
    "if 1 then\n",
    "x = 1\nend\nend\n",
);

/// Sixty-five nested parentheses.
const EXPRESSION_NESTING: &str = concat!(
    "main\nx = ",
    "((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((",
    "1",
    "))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))",
    "\nend\n",
);

/// Sixty-five chained `not`s.
const NOT_NESTING: &str = concat!(
    "main\nx = ",
    "not not not not not not not not not not not not not not not not ",
    "not not not not not not not not not not not not not not not not ",
    "not not not not not not not not not not not not not not not not ",
    "not not not not not not not not not not not not not not not not ",
    "not 1\nend\n",
);
