//! SSA construction (Cytron et al.): minimal phi placement via iterated
//! dominance frontiers, then renaming over the dominator tree.
//!
//! Call instructions may implicitly redefine caller variables (by-reference
//! actuals and globals). A [`KillOracle`] supplies those kill sets; the
//! paper's "with MOD information" configurations plug in a summary-based
//! oracle, while [`WorstCaseKills`] reproduces the "no MOD information"
//! configuration in which every call kills every by-ref actual and every
//! global visible in the caller.

use crate::cfg::Cfg;
use crate::dom::{DomTree, DominanceFrontiers};
use crate::ssa::*;
use ipcp_ir::{BlockId, CallArg, Instr, Operand, ProcId, Procedure, Program, Terminator, VarId};
use std::collections::HashMap;

/// Supplies the caller-side variables a call may redefine.
///
/// `Sync` is a supertrait so oracles can be shared by reference with the
/// per-procedure fan-out workers of the parallel analysis engine.
pub trait KillOracle: Sync {
    /// Variables of `caller` that the call `callee(args)` may redefine.
    /// Implementations must only return scalar variables (arrays have no
    /// scalar SSA names) and must not depend on the call's program point.
    fn kills(&self, caller: &Procedure, callee: ProcId, args: &[CallArg]) -> Vec<VarId>;
}

/// Worst-case oracle: every call kills every by-reference scalar actual and
/// every (scalar) global in the caller's variable table.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCaseKills;

impl KillOracle for WorstCaseKills {
    fn kills(&self, caller: &Procedure, _callee: ProcId, args: &[CallArg]) -> Vec<VarId> {
        let mut kills = Vec::new();
        for arg in args {
            if arg.by_ref {
                if let Some(v) = arg.value.as_var() {
                    if caller.var(v).ty.is_scalar() {
                        kills.push(v);
                    }
                }
            }
        }
        for v in caller.var_ids() {
            let decl = caller.var(v);
            if decl.kind.is_global() && decl.ty.is_scalar() && !kills.contains(&v) {
                kills.push(v);
            }
        }
        kills
    }
}

/// Optimistic oracle that kills nothing. Unsound for real programs with
/// side effects — intended for unit tests isolating the renaming logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoKills;

impl KillOracle for NoKills {
    fn kills(&self, _caller: &Procedure, _callee: ProcId, _args: &[CallArg]) -> Vec<VarId> {
        Vec::new()
    }
}

/// Builds SSA form for `proc` (a member of `program`).
pub fn build_ssa(program: &Program, proc: &Procedure, kills: &dyn KillOracle) -> SsaProc {
    let _ = program; // call validity was established by `ipcp_ir::validate`
    let cfg = Cfg::new(proc);
    let dom = DomTree::new(proc, &cfg);
    let df = DominanceFrontiers::new(proc, &cfg, &dom);

    // ---- collect definition sites and cache per-call kill lists ---------
    let nvars = proc.vars.len();
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); nvars];
    let mut call_kills: HashMap<(BlockId, usize), Vec<VarId>> = HashMap::new();
    for &b in &cfg.rpo {
        for (i, instr) in proc.block(b).instrs.iter().enumerate() {
            if let Some(d) = instr.def() {
                def_blocks[d.index()].push(b);
            }
            if let Instr::Call { callee, args, dst } = instr {
                let mut ks = kills.kills(proc, *callee, args);
                ks.retain(|v| Some(*v) != *dst);
                ks.dedup();
                for &k in &ks {
                    debug_assert!(proc.var(k).ty.is_scalar(), "kill oracle returned an array");
                    def_blocks[k.index()].push(b);
                }
                call_kills.insert((b, i), ks);
            }
        }
    }

    // ---- phi placement (minimal SSA) -------------------------------------
    // phi_vars[block] = variables needing a phi there, in insertion order.
    let mut phi_vars: Vec<Vec<VarId>> = vec![Vec::new(); proc.blocks.len()];
    // has_phi[f] == v + 1 marks a phi for variable v at block f: one
    // stamp vector serves every variable.
    let mut has_phi: Vec<usize> = vec![0; proc.blocks.len()];
    let mut work: Vec<BlockId> = Vec::new();
    for v in proc.var_ids() {
        if def_blocks[v.index()].is_empty() || proc.var(v).ty.is_array() {
            continue;
        }
        let stamp = v.index() + 1;
        work.extend_from_slice(&def_blocks[v.index()]);
        work.sort_unstable();
        work.dedup();
        while let Some(b) = work.pop() {
            for &f in df.of(b) {
                if has_phi[f.index()] != stamp {
                    has_phi[f.index()] = stamp;
                    phi_vars[f.index()].push(v);
                    work.push(f);
                }
            }
        }
    }

    // Scalar globals (snapshotted at every call as implicit actuals) and
    // scalar formals and globals (snapshotted at every return).
    let mut global_vars: Vec<VarId> = Vec::new();
    let mut exit_vars: Vec<VarId> = Vec::new();
    for v in proc.var_ids() {
        let d = proc.var(v);
        if d.ty.is_scalar() && (d.kind.is_formal() || d.kind.is_global()) {
            exit_vars.push(v);
            if d.kind.is_global() {
                global_vars.push(v);
            }
        }
    }

    // ---- create skeleton blocks with phi defs ---------------------------
    let mut defs: Vec<DefInfo> = Vec::new();
    let new_name = |var: VarId, site: DefSite, defs: &mut Vec<DefInfo>| -> SsaName {
        let n = SsaName(defs.len() as u32);
        defs.push(DefInfo { var, site });
        n
    };

    let mut blocks: Vec<Option<SsaBlock>> = vec![None; proc.blocks.len()];
    // phi name per (block, position) to push during renaming.
    for &b in &cfg.rpo {
        let phis: Vec<Phi> = phi_vars[b.index()]
            .iter()
            .map(|&v| Phi {
                dst: new_name(v, DefSite::Phi { block: b }, &mut defs),
                var: v,
                args: Vec::new(),
            })
            .collect();
        blocks[b.index()] = Some(SsaBlock {
            phis,
            instrs: Vec::new(),
            // Placeholder; overwritten during renaming.
            term: SsaTerminator::Return {
                value: None,
                exit: Vec::new(),
            },
        });
    }

    // ---- renaming --------------------------------------------------------
    let mut renamer = Renamer {
        proc,
        cfg: &cfg,
        dom: &dom,
        call_kills: &call_kills,
        global_vars: &global_vars,
        exit_vars: &exit_vars,
        blocks: &mut blocks,
        defs: &mut defs,
        stacks: vec![Vec::new(); nvars],
        entry_names: HashMap::new(),
        anomalies: Vec::new(),
    };
    renamer.visit(proc.entry());
    let entry_names = renamer.entry_names;
    let anomalies = renamer.anomalies;

    SsaProc {
        blocks,
        defs,
        entry_names,
        cfg,
        dom,
        anomalies,
    }
}

struct Renamer<'a> {
    proc: &'a Procedure,
    cfg: &'a Cfg,
    dom: &'a DomTree,
    call_kills: &'a HashMap<(BlockId, usize), Vec<VarId>>,
    global_vars: &'a [VarId],
    exit_vars: &'a [VarId],
    blocks: &'a mut Vec<Option<SsaBlock>>,
    defs: &'a mut Vec<DefInfo>,
    stacks: Vec<Vec<SsaName>>,
    entry_names: HashMap<VarId, SsaName>,
    anomalies: Vec<String>,
}

impl Renamer<'_> {
    fn new_name(&mut self, var: VarId, site: DefSite) -> SsaName {
        let n = SsaName(self.defs.len() as u32);
        self.defs.push(DefInfo { var, site });
        n
    }

    /// Current name of `var`, creating its entry name on first
    /// before-any-def use.
    fn current(&mut self, var: VarId) -> SsaName {
        if let Some(&n) = self.stacks[var.index()].last() {
            return n;
        }
        if let Some(&n) = self.entry_names.get(&var) {
            return n;
        }
        let n = self.new_name(var, DefSite::Entry);
        self.entry_names.insert(var, n);
        n
    }

    fn rename_operand(&mut self, op: Operand) -> SsaOperand {
        match op {
            Operand::Const(c) => SsaOperand::Const(c),
            Operand::RealConst(c) => SsaOperand::RealConst(c),
            Operand::Var(v) => SsaOperand::Name(self.current(v)),
        }
    }

    fn visit(&mut self, b: BlockId) {
        let mut pushed: Vec<VarId> = Vec::new();

        // Phi definitions first. A missing skeleton means the dominator
        // tree reached a block the reachability pass did not — recoverable
        // malformed IR: record it and leave the block out of the SSA view.
        let Some(skeleton) = self.blocks[b.index()].as_ref() else {
            self.anomalies.push(format!(
                "ssa: dominator tree visited unbuilt block b{b}",
                b = b.index()
            ));
            return;
        };
        for p in &skeleton.phis {
            self.stacks[p.var.index()].push(p.dst);
            pushed.push(p.var);
        }

        // Instructions.
        let block = self.proc.block(b);
        let mut ssa_instrs = Vec::with_capacity(block.instrs.len());
        for (i, instr) in block.instrs.iter().enumerate() {
            let ssa = self.rename_instr(b, i, instr, &mut pushed);
            ssa_instrs.push(ssa);
        }

        // Terminator.
        let term = match block.term {
            Terminator::Jump(t) => SsaTerminator::Jump(t),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => SsaTerminator::Branch {
                cond: self.rename_operand(cond),
                then_bb,
                else_bb,
            },
            Terminator::Return(v) => {
                let value = v.map(|op| self.rename_operand(op));
                let exit = self
                    .exit_vars
                    .iter()
                    .map(|&v| (v, self.current(v)))
                    .collect();
                SsaTerminator::Return { value, exit }
            }
            Terminator::Trap(k) => SsaTerminator::Trap(k),
        };

        if let Some(blk) = self.blocks[b.index()].as_mut() {
            blk.instrs = ssa_instrs;
            blk.term = term;
        }

        // Fill successor phi arguments.
        for s in block.term.successors() {
            if !self.cfg.is_reachable(s) {
                continue;
            }
            let Some(succ) = self.blocks[s.index()].as_ref() else {
                self.anomalies.push(format!(
                    "ssa: reachable successor b{s} has no skeleton",
                    s = s.index()
                ));
                continue;
            };
            let phi_vars: Vec<VarId> = succ.phis.iter().map(|p| p.var).collect();
            for (k, v) in phi_vars.into_iter().enumerate() {
                let name = self.current(v);
                if let Some(blk) = self.blocks[s.index()].as_mut() {
                    // A block can reach the same successor through both branch
                    // edges (`branch c ? x : x`); record one argument per edge.
                    blk.phis[k].args.push((b, name));
                }
            }
        }

        // Recurse over dominator-tree children.
        for &c in self.dom.children(b) {
            self.visit(c);
        }

        // Pop this block's definitions.
        for v in pushed {
            self.stacks[v.index()].pop();
        }
    }

    fn rename_instr(
        &mut self,
        b: BlockId,
        i: usize,
        instr: &Instr,
        pushed: &mut Vec<VarId>,
    ) -> SsaInstr {
        let mut def = |this: &mut Self, var: VarId, site: DefSite| -> SsaName {
            let n = this.new_name(var, site);
            this.stacks[var.index()].push(n);
            pushed.push(var);
            n
        };
        let site = DefSite::Instr { block: b, index: i };
        match instr {
            Instr::Copy { dst, src } => {
                let src = self.rename_operand(*src);
                SsaInstr::Copy {
                    dst: def(self, *dst, site),
                    src,
                }
            }
            Instr::Unary { dst, op, src } => {
                let src = self.rename_operand(*src);
                SsaInstr::Unary {
                    dst: def(self, *dst, site),
                    op: *op,
                    src,
                }
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                let lhs = self.rename_operand(*lhs);
                let rhs = self.rename_operand(*rhs);
                SsaInstr::Binary {
                    dst: def(self, *dst, site),
                    op: *op,
                    lhs,
                    rhs,
                }
            }
            Instr::IntToReal { dst, src } => {
                let src = self.rename_operand(*src);
                SsaInstr::IntToReal {
                    dst: def(self, *dst, site),
                    src,
                }
            }
            Instr::Load { dst, arr, index } => {
                let index = self.rename_operand(*index);
                SsaInstr::Load {
                    dst: def(self, *dst, site),
                    arr: *arr,
                    index,
                }
            }
            Instr::Store { arr, index, value } => SsaInstr::Store {
                arr: *arr,
                index: self.rename_operand(*index),
                value: self.rename_operand(*value),
            },
            Instr::Read { dst } => SsaInstr::Read {
                dst: def(self, *dst, site),
            },
            Instr::Print { value } => SsaInstr::Print {
                value: self.rename_operand(*value),
            },
            Instr::Call { callee, args, dst } => {
                // Uses first: values flowing into the callee.
                let mut ssa_args: Vec<SsaCallArg> = Vec::with_capacity(args.len());
                for a in args {
                    if a.by_ref {
                        let Some(v) = a.value.as_var() else {
                            // Validation guarantees by-ref actuals are bare
                            // variables; a constant here is recoverable
                            // malformed IR. Degrade to by-value so the call
                            // still gets an SSA form.
                            self.anomalies
                                .push("ssa: by-ref actual is not a variable".to_string());
                            ssa_args.push(SsaCallArg {
                                value: Some(self.rename_operand(a.value)),
                                by_ref_var: None,
                            });
                            continue;
                        };
                        if self.proc.var(v).ty.is_array() {
                            ssa_args.push(SsaCallArg {
                                value: None,
                                by_ref_var: Some(v),
                            });
                        } else {
                            ssa_args.push(SsaCallArg {
                                value: Some(SsaOperand::Name(self.current(v))),
                                by_ref_var: Some(v),
                            });
                        }
                    } else {
                        ssa_args.push(SsaCallArg {
                            value: Some(self.rename_operand(a.value)),
                            by_ref_var: None,
                        });
                    }
                }
                // Snapshot the reaching names of scalar globals (implicit
                // actual parameters), before any kill.
                let globals_in: Vec<(VarId, SsaName)> = self
                    .global_vars
                    .iter()
                    .map(|&v| (v, self.current(v)))
                    .collect();
                // Kills: fresh names after the call.
                let kill_site = DefSite::CallImplicit { block: b, index: i };
                let kill_vars = self.call_kills.get(&(b, i)).map_or(&[][..], Vec::as_slice);
                let kills: Vec<SsaKill> = kill_vars
                    .iter()
                    .map(|&v| SsaKill {
                        var: v,
                        name: def(self, v, kill_site),
                    })
                    .collect();
                // Function result last (post-call value).
                let dst = dst.map(|d| def(self, d, site));
                SsaInstr::Call {
                    callee: *callee,
                    args: ssa_args,
                    dst,
                    kills,
                    globals_in,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::compile_to_ir;

    fn ssa_of(src: &str, proc_name: &str, kills: &dyn KillOracle) -> (Program, SsaProc) {
        let program = compile_to_ir(src).expect("compiles");
        let pid = program.proc_by_name(proc_name).expect("proc exists");
        let ssa = build_ssa(&program, program.proc(pid), kills);
        (program, ssa)
    }

    fn phi_count(ssa: &SsaProc) -> usize {
        ssa.rpo_blocks().map(|(_, b)| b.phis.len()).sum()
    }

    #[test]
    fn straight_line_has_no_phis() {
        let (_, ssa) = ssa_of("main\nx = 1\ny = x + 2\nend\n", "main", &WorstCaseKills);
        assert_eq!(phi_count(&ssa), 0);
        // Two defs: x and y.
        assert_eq!(
            ssa.defs.iter().filter(|d| d.site != DefSite::Entry).count(),
            2
        );
    }

    #[test]
    fn diamond_join_gets_phi() {
        let (program, ssa) = ssa_of(
            "main\nif c then\ny = 1\nelse\ny = 2\nend\nz = y\nend\n",
            "main",
            &WorstCaseKills,
        );
        let main = program.proc(program.main);
        let join = BlockId(3);
        let blk = ssa.block(join).expect("reachable");
        assert_eq!(blk.phis.len(), 1);
        let phi = &blk.phis[0];
        assert_eq!(main.var(phi.var).name, "y");
        assert_eq!(phi.args.len(), 2);
        // The two incoming names differ.
        assert_ne!(phi.args[0].1, phi.args[1].1);
    }

    #[test]
    fn one_sided_if_merges_entry_value() {
        let (_, ssa) = ssa_of(
            "main\nread(y)\nif c then\ny = 1\nend\nprint(y)\nend\n",
            "main",
            &WorstCaseKills,
        );
        assert_eq!(phi_count(&ssa), 1);
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        let (program, ssa) = ssa_of(
            "main\ni = 0\nwhile i < 3 do\ni = i + 1\nend\nprint(i)\nend\n",
            "main",
            &WorstCaseKills,
        );
        let main = program.proc(program.main);
        let header = BlockId(1);
        let blk = ssa.block(header).expect("reachable");
        let phi_i = blk.phis.iter().find(|p| main.var(p.var).name == "i");
        assert!(phi_i.is_some(), "loop counter needs a phi at the header");
        assert_eq!(phi_i.unwrap().args.len(), 2);
    }

    #[test]
    fn unmodified_variable_has_single_entry_name() {
        // `n` flows through the loop unmodified: every use sees the entry name.
        let (program, ssa) = ssa_of(
            "proc f(n)\ns = 0\nwhile s < n do\ns = s + n\nend\nend\nmain\ncall f(x)\nend\n",
            "f",
            &WorstCaseKills,
        );
        let f = program.proc(program.proc_by_name("f").unwrap());
        let n_var = f.var_ids().find(|&v| f.var(v).name == "n").unwrap();
        let entry = ssa.entry_name(n_var).expect("entry value observed");
        // No phi merges `n`.
        for (_, blk) in ssa.rpo_blocks() {
            for phi in &blk.phis {
                assert_ne!(phi.var, n_var, "n must not need a phi");
            }
        }
        // All name defs of n: just the entry.
        let n_defs = ssa.defs.iter().filter(|d| d.var == n_var).count();
        assert_eq!(n_defs, 1);
        assert_eq!(ssa.def(entry).site, DefSite::Entry);
    }

    #[test]
    fn worst_case_call_kills_globals_and_byref_args() {
        let src = "global g\nproc callee(a)\nend\nproc f(x)\ny = g\ncall callee(x)\nz = g + x\nend\nmain\ncall f(q)\nend\n";
        let (program, ssa) = ssa_of(src, "f", &WorstCaseKills);
        let f = program.proc(program.proc_by_name("f").unwrap());
        // Find the call's kills.
        let mut kill_vars = vec![];
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Call { kills, .. } = instr {
                    for k in kills {
                        kill_vars.push(f.var(k.var).name.clone());
                    }
                }
            }
        }
        assert!(kill_vars.contains(&"x".to_string()), "{kill_vars:?}");
        assert!(kill_vars.contains(&"g".to_string()), "{kill_vars:?}");
        // Uses of g and x after the call see the killed (CallImplicit) names.
        let mut post_g = None;
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Binary { lhs, .. } = instr {
                    post_g = lhs.as_name();
                }
            }
        }
        let post_g = post_g.expect("found g + x");
        assert!(matches!(ssa.def(post_g).site, DefSite::CallImplicit { .. }));
    }

    #[test]
    fn no_kills_oracle_preserves_values_across_calls() {
        let src = "global g\nproc callee()\nend\nproc f()\nx = 5\ncall callee()\nprint(x + g)\nend\nmain\ncall f()\nend\n";
        let (_, ssa) = ssa_of(src, "f", &NoKills);
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Call { kills, .. } = instr {
                    assert!(kills.is_empty());
                }
            }
        }
    }

    #[test]
    fn function_result_is_fresh_def_after_kills() {
        let src = "global g\nfunc f(x)\ng = x\nreturn x + 1\nend\nmain\ng = 1\ny = f(2)\nprint(y + g)\nend\n";
        let (_, ssa) = ssa_of(src, "main", &WorstCaseKills);
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Call { dst, kills, .. } = instr {
                    let d = dst.expect("function call");
                    for k in kills {
                        assert!(d.0 > k.name.0, "dst defined after kills");
                    }
                }
            }
        }
    }

    #[test]
    fn by_ref_array_args_have_no_scalar_value() {
        let src = "proc f(v())\nv(1) = 2\nend\nmain\ninteger a(3)\ncall f(a)\nend\n";
        let (_, ssa) = ssa_of(src, "main", &WorstCaseKills);
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Call { args, .. } = instr {
                    assert_eq!(args.len(), 1);
                    assert!(args[0].value.is_none());
                    assert!(args[0].by_ref_var.is_some());
                }
            }
        }
    }

    #[test]
    fn local_use_before_def_gets_entry_name() {
        let (_, ssa) = ssa_of(
            "main\nprint(x)\nx = 1\nprint(x)\nend\n",
            "main",
            &WorstCaseKills,
        );
        let blk = ssa.block(BlockId(0)).unwrap();
        let first = match &blk.instrs[0] {
            SsaInstr::Print { value } => value.as_name().unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(ssa.def(first).site, DefSite::Entry);
        let last = match &blk.instrs[2] {
            SsaInstr::Print { value } => value.as_name().unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(matches!(ssa.def(last).site, DefSite::Instr { .. }));
    }

    #[test]
    fn well_formed_programs_have_no_anomalies() {
        let (_, ssa) = ssa_of(
            "proc f(n)\nn = n + 1\nend\nmain\nx = 1\ncall f(x)\nprint(x)\nend\n",
            "main",
            &WorstCaseKills,
        );
        assert!(ssa.anomalies.is_empty(), "{:?}", ssa.anomalies);
    }

    #[test]
    fn malformed_by_ref_actual_degrades_instead_of_panicking() {
        let src = "proc f(n)\nn = n + 1\nend\nmain\nx = 1\ncall f(x)\nprint(x)\nend\n";
        let mut program = compile_to_ir(src).expect("compiles");
        // Corrupt the call: a by-ref actual that is a constant, which
        // `ipcp_ir::validate` would reject. SSA construction must recover.
        let main = program.main;
        for block in &mut program.proc_mut(main).blocks {
            for instr in &mut block.instrs {
                if let Instr::Call { args, .. } = instr {
                    args[0].value = ipcp_ir::Operand::Const(1);
                    assert!(args[0].by_ref);
                }
            }
        }
        let pid = program.main;
        let ssa = build_ssa(&program, program.proc(pid), &WorstCaseKills);
        assert_eq!(ssa.anomalies.len(), 1, "{:?}", ssa.anomalies);
        assert!(ssa.anomalies[0].contains("by-ref"), "{:?}", ssa.anomalies);
        // The call survives with the argument degraded to by-value.
        let mut saw_call = false;
        for (_, blk) in ssa.rpo_blocks() {
            for instr in &blk.instrs {
                if let SsaInstr::Call { args, .. } = instr {
                    saw_call = true;
                    assert!(args[0].by_ref_var.is_none());
                    assert!(args[0].value.is_some());
                }
            }
        }
        assert!(saw_call);
    }

    #[test]
    fn do_loop_ssa_shape() {
        let (program, ssa) = ssa_of(
            "main\ns = 0\ndo i = 1, 10\ns = s + i\nend\nprint(s)\nend\n",
            "main",
            &WorstCaseKills,
        );
        let main = program.proc(program.main);
        // The header merges both s and i (minimal SSA may add dead phis for
        // header-defined temporaries on top).
        let mut merged: Vec<String> = vec![];
        for (_, blk) in ssa.rpo_blocks() {
            for phi in &blk.phis {
                merged.push(main.var(phi.var).name.clone());
            }
        }
        assert!(merged.contains(&"s".to_string()), "{merged:?}");
        assert!(merged.contains(&"i".to_string()), "{merged:?}");
    }
}
