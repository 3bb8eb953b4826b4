//! Pretty printer: renders an AST back to parseable Minifor source.
//!
//! `parse(pretty(p))` produces an AST equal to `p` up to spans, which the
//! round-trip tests exploit. Resolved nodes ([`ExprKind::Index`] /
//! [`ExprKind::CallFn`]) print identically to their unresolved
//! [`ExprKind::NameArgs`] form, so checked programs also round-trip.
//!
//! Names print as their text in the program's [`Interner`].

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program as Minifor source.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for g in &program.globals {
        write_global(&mut out, &program.names, g);
    }
    if !program.globals.is_empty() {
        out.push('\n');
    }
    for (i, p) in program.procs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_proc(&mut out, &program.names, p);
    }
    out
}

/// Renders a single expression as source text; `names` is the interner
/// of the program the expression belongs to.
pub fn expr_to_string(names: &Interner, expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, names, expr, 0);
    out
}

/// Renders a single statement (with trailing newline) at indent level 0;
/// `names` is the interner of the program the statement belongs to.
pub fn stmt_to_string(names: &Interner, stmt: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(&mut out, names, stmt, 0);
    out
}

fn write_global(out: &mut String, names: &Interner, g: &GlobalDecl) {
    out.push_str("global ");
    write_ty_prefix(out, g.ty);
    out.push_str(&names[g.name]);
    write_ty_suffix(out, g.ty);
    if let Some(v) = g.init {
        let _ = write!(out, " = {v}");
    }
    out.push('\n');
}

fn write_ty_prefix(out: &mut String, ty: Ty) {
    if ty.base == Base::Real {
        out.push_str("real ");
    }
}

fn write_ty_suffix(out: &mut String, ty: Ty) {
    match ty.shape {
        Shape::Scalar => {}
        Shape::Array(Some(n)) => {
            let _ = write!(out, "({n})");
        }
        Shape::Array(None) => out.push_str("()"),
    }
}

fn write_proc(out: &mut String, names: &Interner, p: &Proc) {
    match p.kind {
        ProcKind::Main => out.push_str("main\n"),
        kind => {
            let _ = write!(out, "{kind} {}(", &names[p.name]);
            for (i, param) in p.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_ty_prefix(out, param.ty);
                out.push_str(&names[param.name]);
                write_ty_suffix(out, param.ty);
            }
            out.push_str(")\n");
        }
    }
    for d in &p.decls {
        out.push_str("  ");
        out.push_str(match d.ty.base {
            Base::Int => "integer ",
            Base::Real => "real ",
        });
        out.push_str(&names[d.name]);
        write_ty_suffix(out, d.ty);
        out.push('\n');
    }
    for s in &p.body {
        write_stmt(out, names, s, 1);
    }
    out.push_str("end\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_stmt(out: &mut String, names: &Interner, stmt: &Stmt, level: usize) {
    indent(out, level);
    match &stmt.kind {
        StmtKind::Assign { target, value } => {
            write_lvalue(out, names, target);
            out.push_str(" = ");
            write_expr(out, names, value, 0);
            out.push('\n');
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            out.push_str("if ");
            write_expr(out, names, cond, 0);
            out.push_str(" then\n");
            for s in then_blk {
                write_stmt(out, names, s, level + 1);
            }
            if !else_blk.is_empty() {
                indent(out, level);
                out.push_str("else\n");
                for s in else_blk {
                    write_stmt(out, names, s, level + 1);
                }
            }
            indent(out, level);
            out.push_str("end\n");
        }
        StmtKind::While { cond, body } => {
            out.push_str("while ");
            write_expr(out, names, cond, 0);
            out.push_str(" do\n");
            for s in body {
                write_stmt(out, names, s, level + 1);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        StmtKind::Do {
            var,
            from,
            to,
            step,
            body,
        } => {
            let _ = write!(out, "do {} = ", &names[*var]);
            write_expr(out, names, from, 0);
            out.push_str(", ");
            write_expr(out, names, to, 0);
            if let Some(step) = step {
                out.push_str(", ");
                write_expr(out, names, step, 0);
            }
            out.push('\n');
            for s in body {
                write_stmt(out, names, s, level + 1);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        StmtKind::Call { name, args } => {
            let _ = write!(out, "call {}(", &names[*name]);
            write_args(out, names, args);
            out.push_str(")\n");
        }
        StmtKind::Return { value } => {
            out.push_str("return");
            if let Some(v) = value {
                out.push(' ');
                write_expr(out, names, v, 0);
            }
            out.push('\n');
        }
        StmtKind::Read { target } => {
            out.push_str("read(");
            write_lvalue(out, names, target);
            out.push_str(")\n");
        }
        StmtKind::Print { value } => {
            out.push_str("print(");
            write_expr(out, names, value, 0);
            out.push_str(")\n");
        }
    }
}

fn write_lvalue(out: &mut String, names: &Interner, lv: &LValue) {
    match &lv.kind {
        LValueKind::Scalar(name) => out.push_str(&names[*name]),
        LValueKind::Element(name, idx) => {
            out.push_str(&names[*name]);
            out.push('(');
            write_expr(out, names, idx, 0);
            out.push(')');
        }
    }
}

fn write_args(out: &mut String, names: &Interner, args: &[Expr]) {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, names, a, 0);
    }
}

/// Binding strength for parenthesization: higher binds tighter.
fn precedence(kind: &ExprKind) -> u8 {
    match kind {
        ExprKind::Binary(op, ..) => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            op if op.is_comparison() => 4,
            BinOp::Add | BinOp::Sub => 5,
            _ => 6,
        },
        ExprKind::Unary(UnOp::Not, _) => 3,
        ExprKind::Unary(UnOp::Neg, _) => 7,
        _ => 10,
    }
}

fn write_expr(out: &mut String, names: &Interner, expr: &Expr, min_prec: u8) {
    let prec = precedence(&expr.kind);
    let parens = prec < min_prec;
    if parens {
        out.push('(');
    }
    match &expr.kind {
        ExprKind::IntLit(v) => {
            // Negative literals print as `-5`; the parser re-folds the
            // unary minus into a literal (including `-9223372036854775808`,
            // whose magnitude the lexer special-cases), so this
            // round-trips for every i64.
            let _ = write!(out, "{v}");
        }
        ExprKind::RealLit(v) => {
            if v.fract() == 0.0 && v.is_finite() && *v >= 0.0 {
                let _ = write!(out, "{v:.1}");
            } else if *v < 0.0 {
                let _ = write!(out, "(0.0 - {:?})", -v);
            } else {
                let _ = write!(out, "{v:?}");
            }
        }
        ExprKind::Name(name) => out.push_str(&names[*name]),
        ExprKind::NameArgs(name, args) | ExprKind::CallFn(name, args) => {
            out.push_str(&names[*name]);
            out.push('(');
            write_args(out, names, args);
            out.push(')');
        }
        ExprKind::Index(name, idx) => {
            out.push_str(&names[*name]);
            out.push('(');
            write_expr(out, names, idx, 0);
            out.push(')');
        }
        ExprKind::Unary(op, operand) => {
            let _ = write!(out, "{op}");
            write_expr(out, names, operand, prec + 1);
        }
        ExprKind::Binary(op, lhs, rhs) => {
            // Comparisons are non-associative: a comparison operand at the
            // same precedence level must be parenthesized on either side.
            let lhs_prec = if op.is_comparison() { prec + 1 } else { prec };
            write_expr(out, names, lhs, lhs_prec);
            let _ = write!(out, " {op} ");
            // The right operand needs strictly higher precedence: all our
            // binary operators are left-associative.
            write_expr(out, names, rhs, prec + 1);
        }
    }
    if parens {
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let ast1 = parse(src).expect("first parse");
        let printed = program_to_string(&ast1);
        let ast2 = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "reparse failed:\n{}\nsource:\n{printed}",
                e.render(&printed)
            )
        });
        let printed2 = program_to_string(&ast2);
        assert_eq!(printed, printed2, "pretty-print not a fixpoint");
    }

    #[test]
    fn roundtrip_small() {
        roundtrip("main\nx = 1\nend\n");
    }

    #[test]
    fn roundtrip_full_feature() {
        roundtrip(
            "global n = 5\nglobal real w\nglobal a(10)\n\
             proc f(x, real y, v())\ninteger t, b(3)\nreal r\n\
             t = x * 2 + b(1)\nv(t) = t - 1\nif t > 0 and x != 2 then\nr = y / 2.0\nelse\nt = not t\nend\n\
             while t < 10 do\nt = t + 1\nend\n\
             do i = 1, 10, 2\nt = t + i\nend\n\
             call f(t, r, v)\nreturn\nend\n\
             func g(q)\nreturn q % 3\nend\n\
             main\nread(z)\nx = g(z) - -3\nprint(x)\nend\n",
        );
    }

    #[test]
    fn negative_literal_prints_parseable() {
        let ast = parse("main\nx = -5\ny = 1 - -5\nz = -5 * 3\nend\n").unwrap();
        let printed = program_to_string(&ast);
        let ast2 = parse(&printed).expect("reparse");
        assert_eq!(program_to_string(&ast2), printed);
        assert!(printed.contains("x = -5"), "{printed}");
        assert!(printed.contains("1 - -5"), "{printed}");
    }

    #[test]
    fn i64_min_literal_roundtrips() {
        // The source literal parses straight to `i64::MIN` …
        let ast = parse("main\nx = -9223372036854775808\nend\n").unwrap();
        let printed = program_to_string(&ast);
        assert!(printed.contains("x = -9223372036854775808"), "{printed}");
        // … and printing is a fixpoint from the first render.
        let printed2 = program_to_string(&parse(&printed).expect("reparse"));
        assert_eq!(printed, printed2);

        // Same for a synthesized literal (e.g. produced by constant
        // substitution) in an arithmetic context.
        let mut ast = parse("main\nx = 0 - 1 * 2\nend\n").unwrap();
        ast.procs[0].body[0].kind = crate::ast::StmtKind::Assign {
            target: crate::ast::LValue {
                kind: crate::ast::LValueKind::Scalar(ast.names.intern("x")),
                span: crate::span::Span::default(),
            },
            value: Expr::int(i64::MIN, crate::span::Span::default()),
        };
        let printed = program_to_string(&ast);
        let reparsed = parse(&printed).expect("reparse");
        assert_eq!(program_to_string(&reparsed), printed);
        // The reparsed value is exactly i64::MIN again.
        let crate::ast::StmtKind::Assign { value, .. } = &reparsed.procs[0].body[0].kind else {
            panic!("assign expected");
        };
        assert!(matches!(value.kind, ExprKind::IntLit(i64::MIN)));
    }

    #[test]
    fn precedence_preserved() {
        let src =
            "main\nx = (1 + 2) * 3\ny = 1 + 2 * 3\nz = (a or b) and c\nw = a - (b - c)\nend\n";
        let ast = parse(src).unwrap();
        let printed = program_to_string(&ast);
        let ast2 = parse(&printed).unwrap();
        assert_eq!(
            program_to_string(&ast2),
            printed,
            "precedence-sensitive expressions must round-trip"
        );
        assert!(printed.contains("(1 + 2) * 3"), "{printed}");
        assert!(printed.contains("1 + 2 * 3"), "{printed}");
        assert!(printed.contains("(a or b) and c"), "{printed}");
        assert!(printed.contains("a - (b - c)"), "{printed}");
    }

    #[test]
    fn expr_to_string_simple() {
        let ast = parse("main\nx = a + b(2) * f(3, 4)\nend\n").unwrap();
        match &ast.procs[0].body[0].kind {
            crate::ast::StmtKind::Assign { value, .. } => {
                assert_eq!(expr_to_string(&ast.names, value), "a + b(2) * f(3, 4)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn real_literal_formats() {
        roundtrip("main\nreal r\nr = 2.0\nr = 2.5\nr = 0.125\nend\n");
    }

    #[test]
    fn stmt_to_string_has_newline() {
        let ast = parse("main\nprint(3)\nend\n").unwrap();
        assert_eq!(
            stmt_to_string(&ast.names, &ast.procs[0].body[0]),
            "print(3)\n"
        );
    }
}
