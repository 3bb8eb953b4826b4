//! Structural fingerprints: every cache key builds on
//! `ipcp_ir::fingerprint::fingerprint`, a hash of the canonical `Wire`
//! encoding. Over the paper suite, the scale corpus at 64 and 1000
//! procedures, and fuzz-generated programs:
//!
//! * fingerprints survive an encode/decode round trip unchanged;
//! * any single mutation — a literal, a variable kind, a branch target,
//!   a procedure name, a global initializer — changes the program's
//!   fingerprint, and the mutated procedure's;
//! * distinct programs (and distinct procedures) get distinct
//!   fingerprints.

use ipcp::ir::codec::{decode_from_slice, encode_to_vec};
use ipcp::ir::fingerprint::fingerprint;
use ipcp::ir::{BlockId, Instr, Operand, Procedure, Program, Terminator, VarKind};
use ipcp::suite::fuzz::random_case;
use ipcp::suite::gen::{generate_all, generate_scale, ScaleSpec};
use std::collections::HashMap;

fn corpus() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = generate_all()
        .into_iter()
        .map(|g| {
            let ir = ipcp::ir::compile_to_ir(&g.source).expect("suite program compiles");
            (g.name, ir)
        })
        .collect();
    for procs in [64, 1000] {
        let g = generate_scale(&ScaleSpec::with_procs(procs, 7));
        let ir = ipcp::ir::compile_to_ir(&g.source).expect("scale program compiles");
        out.push((format!("scale-{procs}"), ir));
    }
    for seed in 0..48 {
        let case = random_case(seed);
        if let Ok(ir) = ipcp::ir::compile_to_ir(&case.source) {
            out.push((format!("fuzz-{seed}"), ir));
        }
    }
    assert!(out.len() > 40, "corpus too small: {}", out.len());
    out
}

#[test]
fn fingerprints_survive_a_wire_roundtrip() {
    for (name, program) in corpus() {
        let back: Program = decode_from_slice(&encode_to_vec(&program)).expect("decodes");
        assert_eq!(fingerprint(&back), fingerprint(&program), "{name}");
        for (a, b) in back.procs.iter().zip(&program.procs) {
            assert_eq!(fingerprint(a), fingerprint(b), "{name}: {}", b.name);
        }
    }
}

/// The single-point mutations the fingerprint must notice. Each returns
/// the index of the mutated procedure (`None`: a program-level edit), or
/// `Err(())` when the program offers no site for it.
type Mutation = fn(&mut Program) -> Result<Option<usize>, ()>;

fn first_proc_where(
    program: &mut Program,
    mut edit: impl FnMut(&mut Procedure) -> bool,
) -> Result<Option<usize>, ()> {
    for (i, proc) in program.procs.iter_mut().enumerate() {
        if edit(proc) {
            return Ok(Some(i));
        }
    }
    Err(())
}

fn bump_literal(program: &mut Program) -> Result<Option<usize>, ()> {
    first_proc_where(program, |proc| {
        for block in &mut proc.blocks {
            for instr in &mut block.instrs {
                let operand = match instr {
                    Instr::Copy { src, .. } => src,
                    Instr::Print { value } => value,
                    Instr::Binary { rhs, .. } => rhs,
                    _ => continue,
                };
                if let Operand::Const(c) = operand {
                    *c = c.wrapping_add(1);
                    return true;
                }
            }
        }
        false
    })
}

fn flip_var_kind(program: &mut Program) -> Result<Option<usize>, ()> {
    first_proc_where(program, |proc| {
        for var in &mut proc.vars {
            match var.kind {
                VarKind::Local => var.kind = VarKind::Temp,
                VarKind::Temp => var.kind = VarKind::Local,
                _ => continue,
            }
            return true;
        }
        false
    })
}

fn retarget_branch(program: &mut Program) -> Result<Option<usize>, ()> {
    first_proc_where(program, |proc| {
        let blocks = proc.blocks.len() as u32;
        for block in &mut proc.blocks {
            if let Terminator::Branch { then_bb, .. } = &mut block.term {
                *then_bb = BlockId((then_bb.0 + 1) % blocks.max(2));
                return true;
            }
        }
        false
    })
}

fn rename_proc(program: &mut Program) -> Result<Option<usize>, ()> {
    first_proc_where(program, |proc| {
        proc.name.push('_');
        true
    })
}

fn change_global_init(program: &mut Program) -> Result<Option<usize>, ()> {
    let global = program.globals.first_mut().ok_or(())?;
    global.init = Some(global.init.map_or(0, |c| c.wrapping_add(1)));
    Ok(None)
}

#[test]
fn any_single_mutation_moves_the_fingerprint() {
    let mutations: [(&str, Mutation); 5] = [
        ("literal", bump_literal),
        ("var kind", flip_var_kind),
        ("branch target", retarget_branch),
        ("proc name", rename_proc),
        ("global init", change_global_init),
    ];
    let mut applied = [0usize; 5];
    for (name, program) in corpus() {
        let before = fingerprint(&program);
        for (slot, (what, mutate)) in mutations.iter().enumerate() {
            let mut mutated = program.clone();
            let Ok(at) = mutate(&mut mutated) else {
                continue;
            };
            assert_ne!(mutated, program, "{name}: {what} mutation was a no-op");
            applied[slot] += 1;
            assert_ne!(fingerprint(&mutated), before, "{name}: {what}");
            if let Some(i) = at {
                assert_ne!(
                    fingerprint(&mutated.procs[i]),
                    fingerprint(&program.procs[i]),
                    "{name}: {what} in {}",
                    program.procs[i].name
                );
            }
        }
    }
    for ((what, _), n) in mutations.iter().zip(applied) {
        assert!(n > 0, "the corpus never exercised a {what} mutation");
    }
}

#[test]
fn distinct_programs_get_distinct_fingerprints() {
    let corpus = corpus();
    let mut programs: HashMap<u128, &Program> = HashMap::new();
    let mut procs: HashMap<u128, &Procedure> = HashMap::new();
    for (name, program) in &corpus {
        let seen = programs.entry(fingerprint(program)).or_insert(program);
        assert_eq!(*seen, program, "{name}: fingerprint collision");
        for proc in &program.procs {
            let seen = procs.entry(fingerprint(proc)).or_insert(proc);
            assert_eq!(*seen, proc, "{name}: procedure fingerprint collision");
        }
    }
    assert!(programs.len() > 40, "{} distinct programs", programs.len());
    assert!(procs.len() > 1000, "{} distinct procedures", procs.len());
}
