//! A reference interpreter for checked Minifor programs.
//!
//! The interpreter defines the language's observable semantics; the IR
//! interpreter in `ipcp-ir` and the constant-substitution pass are tested
//! against it. Semantics highlights (see [`crate::ast`] for the full list):
//!
//! * All scalars and array elements are zero-initialized.
//! * Integer arithmetic wraps (two's complement, like the IR and the
//!   analyzer's constant folding). Division and remainder by zero are
//!   runtime errors.
//! * Only bare variable names are passed by reference; every other actual
//!   is copied into a fresh temporary.
//! * `read(x)` pops the next value from the input queue (converted to real
//!   for real targets); exhausting the input is a runtime error.

use crate::ast::*;
use crate::typeck::{CheckedProgram, ProcInfo, VarOrigin};
use std::fmt;

/// Interpreter limits and input.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Maximum number of executed statements (including loop iterations).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Values consumed by `read`.
    pub input: Vec<i64>,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 10_000_000,
            max_depth: 256,
            input: Vec::new(),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Real value.
    Real(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v:?}"),
        }
    }
}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Values printed, in order.
    pub output: Vec<Value>,
    /// Statements executed.
    pub steps: u64,
}

/// Runtime failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Integer division or remainder by zero.
    DivByZero,
    /// `do` loop step evaluated to zero.
    ZeroStep,
    /// Array index outside `1..=len`.
    OutOfBounds {
        /// Array name.
        name: String,
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// `read` executed with no input left.
    InputExhausted,
    /// Statement budget exceeded (probable infinite loop).
    StepLimit,
    /// Call depth budget exceeded (probable infinite recursion).
    DepthLimit,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivByZero => f.write_str("integer division by zero"),
            InterpError::ZeroStep => f.write_str("`do` loop step is zero"),
            InterpError::OutOfBounds { name, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for `{name}` of length {len}"
                )
            }
            InterpError::InputExhausted => f.write_str("`read` with no input remaining"),
            InterpError::StepLimit => f.write_str("step limit exceeded"),
            InterpError::DepthLimit => f.write_str("call depth limit exceeded"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Runs `main` of a checked program.
///
/// # Errors
///
/// Returns the first [`InterpError`] encountered.
pub fn run(checked: &CheckedProgram, config: &InterpConfig) -> Result<Outcome, InterpError> {
    let mut interp = Interp {
        checked,
        config,
        slots: Vec::new(),
        globals: Vec::new(),
        output: Vec::new(),
        steps: 0,
        input_pos: 0,
    };
    interp.alloc_globals();
    let main_idx = checked
        .program
        .procs
        .iter()
        .position(|p| p.kind == ProcKind::Main)
        .expect("checked program has main");
    interp.call(main_idx, Vec::new(), 0)?;
    Ok(Outcome {
        output: interp.output,
        steps: interp.steps,
    })
}

/// A storage cell: a scalar or a whole array.
#[derive(Debug, Clone)]
enum Slot {
    Int(i64),
    Real(f64),
    IntArray(Vec<i64>),
    RealArray(Vec<f64>),
}

impl Slot {
    fn zero_of(ty: Ty) -> Slot {
        match (ty.base, ty.shape) {
            (Base::Int, Shape::Scalar) => Slot::Int(0),
            (Base::Real, Shape::Scalar) => Slot::Real(0.0),
            (Base::Int, Shape::Array(n)) => Slot::IntArray(vec![0; n.unwrap_or(0) as usize]),
            (Base::Real, Shape::Array(n)) => Slot::RealArray(vec![0.0; n.unwrap_or(0) as usize]),
        }
    }
}

/// Control flow result of executing statements.
enum Flow {
    Normal,
    Return(Option<Value>),
}

struct Interp<'a> {
    checked: &'a CheckedProgram,
    config: &'a InterpConfig,
    /// All storage; indices are stable (no GC — programs are short-lived).
    slots: Vec<Slot>,
    /// Global id → slot id.
    globals: Vec<usize>,
    output: Vec<Value>,
    steps: u64,
    input_pos: usize,
}

/// Per-call frame: variable index (into `ProcInfo::vars`) → slot id.
struct Frame {
    proc_idx: usize,
    slot_of_var: Vec<usize>,
}

impl<'a> Interp<'a> {
    fn alloc_globals(&mut self) {
        for g in &self.checked.program.globals {
            let mut slot = Slot::zero_of(g.ty);
            if let (Some(v), Slot::Int(dst)) = (g.init, &mut slot) {
                *dst = v;
            }
            let id = self.slots.len();
            self.slots.push(slot);
            self.globals.push(id);
        }
    }

    fn alloc(&mut self, slot: Slot) -> usize {
        let id = self.slots.len();
        self.slots.push(slot);
        id
    }

    /// Calls procedure `proc_idx` with argument slots bound positionally.
    fn call(
        &mut self,
        proc_idx: usize,
        arg_slots: Vec<usize>,
        depth: u32,
    ) -> Result<Option<Value>, InterpError> {
        if depth >= self.config.max_depth {
            return Err(InterpError::DepthLimit);
        }
        let info = &self.checked.proc_info[proc_idx];
        let mut slot_of_var = Vec::with_capacity(info.vars.len());
        for var in &info.vars {
            let slot = match var.origin {
                VarOrigin::Param(i) => arg_slots[i as usize],
                VarOrigin::Global(g) => self.globals[g as usize],
                VarOrigin::Local => self.alloc(Slot::zero_of(var.ty)),
            };
            slot_of_var.push(slot);
        }
        let frame = Frame {
            proc_idx,
            slot_of_var,
        };
        let body = &self.checked.program.procs[proc_idx].body;
        match self.exec_block(body, &frame, depth)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(None),
        }
    }

    fn info(&self, frame: &Frame) -> &'a ProcInfo {
        &self.checked.proc_info[frame.proc_idx]
    }

    fn var_slot(&self, frame: &Frame, name: Symbol) -> usize {
        let idx = self
            .info(frame)
            .var_index(name)
            .unwrap_or_else(|| panic!("unresolved variable `{}`", self.name(name)));
        frame.slot_of_var[idx]
    }

    fn name(&self, sym: Symbol) -> &'a str {
        &self.checked.program.names[sym]
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            Err(InterpError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn exec_block(
        &mut self,
        block: &Block,
        frame: &Frame,
        depth: u32,
    ) -> Result<Flow, InterpError> {
        for stmt in block {
            match self.exec_stmt(stmt, frame, depth)? {
                Flow::Normal => {}
                flow @ Flow::Return(_) => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &Frame, depth: u32) -> Result<Flow, InterpError> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Assign { target, value } => {
                let v = self.eval(value, frame, depth)?;
                self.store(target, v, frame, depth)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval_int(cond, frame, depth)?;
                if c != 0 {
                    self.exec_block(then_blk, frame, depth)
                } else {
                    self.exec_block(else_blk, frame, depth)
                }
            }
            StmtKind::While { cond, body } => loop {
                self.tick()?;
                let c = self.eval_int(cond, frame, depth)?;
                if c == 0 {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body, frame, depth)? {
                    Flow::Normal => {}
                    flow @ Flow::Return(_) => return Ok(flow),
                }
            },
            StmtKind::Do {
                var,
                from,
                to,
                step,
                body,
            } => {
                let from = self.eval_int(from, frame, depth)?;
                let to = self.eval_int(to, frame, depth)?;
                let step = match step {
                    Some(e) => self.eval_int(e, frame, depth)?,
                    None => 1,
                };
                if step == 0 {
                    return Err(InterpError::ZeroStep);
                }
                let var_slot = self.var_slot(frame, *var);
                let mut i = from;
                loop {
                    self.tick()?;
                    let done = if step > 0 { i > to } else { i < to };
                    self.slots[var_slot] = Slot::Int(i);
                    if done {
                        return Ok(Flow::Normal);
                    }
                    match self.exec_block(body, frame, depth)? {
                        Flow::Normal => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                    // The loop variable may have been modified by the body
                    // (or by a callee, by reference); continue from its
                    // current value like a `while` loop would.
                    i = match self.slots[var_slot] {
                        Slot::Int(v) => v.wrapping_add(step),
                        _ => unreachable!("do variable is integer"),
                    };
                }
            }
            StmtKind::Call { name, args } => {
                let callee = self.checked.proc_of(*name).expect("resolved callee");
                let arg_slots = self.bind_args(callee, args, frame, depth)?;
                self.call(callee, arg_slots, depth + 1)?;
                Ok(Flow::Normal)
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => Some(self.eval(e, frame, depth)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Read { target } => {
                let raw = *self
                    .config
                    .input
                    .get(self.input_pos)
                    .ok_or(InterpError::InputExhausted)?;
                self.input_pos += 1;
                // `store` converts to real if the target is real.
                self.store(target, Value::Int(raw), frame, depth)?;
                Ok(Flow::Normal)
            }
            StmtKind::Print { value } => {
                let v = self.eval(value, frame, depth)?;
                self.output.push(v);
                Ok(Flow::Normal)
            }
        }
    }

    /// Binds actual arguments to slots: bare names pass their slot (by
    /// reference, when types agree); everything else is copied.
    fn bind_args(
        &mut self,
        callee: usize,
        args: &[Expr],
        frame: &Frame,
        depth: u32,
    ) -> Result<Vec<usize>, InterpError> {
        let params: Vec<Ty> = self.checked.program.procs[callee]
            .params
            .iter()
            .map(|p| p.ty)
            .collect();
        let mut arg_slots = Vec::with_capacity(args.len());
        for (arg, formal) in args.iter().zip(params.iter()) {
            let slot = if let ExprKind::Name(name) = &arg.kind {
                let info = self.info(frame);
                let vidx = info.var_index(*name).expect("resolved variable");
                let actual_ty = info.vars[vidx].ty;
                if actual_ty.base == formal.base {
                    // True by-reference binding.
                    frame.slot_of_var[vidx]
                } else {
                    // Conversion (int actual, real formal): copy by value.
                    debug_assert!(formal.is_scalar());
                    let v = self.eval(arg, frame, depth)?;
                    self.alloc(match v {
                        Value::Int(i) => Slot::Real(i as f64),
                        Value::Real(r) => Slot::Real(r),
                    })
                }
            } else {
                let v = self.eval(arg, frame, depth)?;
                let slot = match (formal.base, v) {
                    (Base::Int, Value::Int(i)) => Slot::Int(i),
                    (Base::Real, Value::Int(i)) => Slot::Real(i as f64),
                    (Base::Real, Value::Real(r)) => Slot::Real(r),
                    (Base::Int, Value::Real(_)) => unreachable!("rejected by typeck"),
                };
                self.alloc(slot)
            };
            arg_slots.push(slot);
        }
        Ok(arg_slots)
    }

    fn store(
        &mut self,
        target: &LValue,
        value: Value,
        frame: &Frame,
        depth: u32,
    ) -> Result<(), InterpError> {
        match &target.kind {
            LValueKind::Scalar(name) => {
                let slot = self.var_slot(frame, *name);
                match (&mut self.slots[slot], value) {
                    (Slot::Int(dst), Value::Int(v)) => *dst = v,
                    (Slot::Real(dst), Value::Int(v)) => *dst = v as f64,
                    (Slot::Real(dst), Value::Real(v)) => *dst = v,
                    _ => unreachable!("rejected by typeck"),
                }
                Ok(())
            }
            LValueKind::Element(name, idx) => {
                let i = self.eval_int(idx, frame, depth)?;
                let slot = self.var_slot(frame, *name);
                let len = match &self.slots[slot] {
                    Slot::IntArray(v) => v.len(),
                    Slot::RealArray(v) => v.len(),
                    _ => unreachable!("indexed variable is an array"),
                };
                if i < 1 || i as u128 > len as u128 {
                    return Err(InterpError::OutOfBounds {
                        name: self.name(*name).to_string(),
                        index: i,
                        len,
                    });
                }
                match (&mut self.slots[slot], value) {
                    (Slot::IntArray(v), Value::Int(x)) => v[(i - 1) as usize] = x,
                    (Slot::RealArray(v), Value::Int(x)) => v[(i - 1) as usize] = x as f64,
                    (Slot::RealArray(v), Value::Real(x)) => v[(i - 1) as usize] = x,
                    _ => unreachable!("rejected by typeck"),
                }
                Ok(())
            }
        }
    }

    fn eval_int(&mut self, expr: &Expr, frame: &Frame, depth: u32) -> Result<i64, InterpError> {
        match self.eval(expr, frame, depth)? {
            Value::Int(v) => Ok(v),
            Value::Real(_) => unreachable!("integer context checked by typeck"),
        }
    }

    fn eval(&mut self, expr: &Expr, frame: &Frame, depth: u32) -> Result<Value, InterpError> {
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::RealLit(v) => Ok(Value::Real(*v)),
            ExprKind::Name(name) => {
                let slot = self.var_slot(frame, *name);
                match &self.slots[slot] {
                    Slot::Int(v) => Ok(Value::Int(*v)),
                    Slot::Real(v) => Ok(Value::Real(*v)),
                    _ => unreachable!("bare array names appear only as call arguments"),
                }
            }
            ExprKind::Index(name, idx) => {
                let i = self.eval_int(idx, frame, depth)?;
                let slot = self.var_slot(frame, *name);
                match &self.slots[slot] {
                    Slot::IntArray(v) => {
                        if i < 1 || i as usize > v.len() {
                            Err(InterpError::OutOfBounds {
                                name: self.name(*name).to_string(),
                                index: i,
                                len: v.len(),
                            })
                        } else {
                            Ok(Value::Int(v[(i - 1) as usize]))
                        }
                    }
                    Slot::RealArray(v) => {
                        if i < 1 || i as usize > v.len() {
                            Err(InterpError::OutOfBounds {
                                name: self.name(*name).to_string(),
                                index: i,
                                len: v.len(),
                            })
                        } else {
                            Ok(Value::Real(v[(i - 1) as usize]))
                        }
                    }
                    _ => unreachable!("indexed variable is an array"),
                }
            }
            ExprKind::CallFn(name, args) => {
                let callee = self.checked.proc_of(*name).expect("resolved callee");
                let arg_slots = self.bind_args(callee, args, frame, depth)?;
                let ret = self.call(callee, arg_slots, depth + 1)?;
                // A function that falls off the end returns 0.
                Ok(ret.unwrap_or(Value::Int(0)))
            }
            ExprKind::NameArgs(..) => unreachable!("checked AST has no NameArgs"),
            ExprKind::Unary(op, operand) => {
                let v = self.eval(operand, frame, depth)?;
                Ok(match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
                    (UnOp::Neg, Value::Real(x)) => Value::Real(-x),
                    (UnOp::Not, Value::Int(x)) => Value::Int(i64::from(x == 0)),
                    (UnOp::Not, Value::Real(_)) => unreachable!("rejected by typeck"),
                })
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs, frame, depth)?;
                let r = self.eval(rhs, frame, depth)?;
                eval_binop(*op, l, r)
            }
        }
    }
}

/// Evaluates a binary operation on runtime values.
///
/// Also used by constant-folding tests to keep the analyzer's folding in
/// lock-step with runtime semantics.
///
/// # Errors
///
/// Returns [`InterpError::DivByZero`] for integer `/ 0` or `% 0`.
pub fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, InterpError> {
    use Value::*;
    // Promote to real if either side is real (typeck guarantees this only
    // happens for arithmetic and comparisons).
    match (l, r) {
        (Int(a), Int(b)) => eval_binop_int(op, a, b).map(Int),
        (a, b) => {
            let x = match a {
                Int(v) => v as f64,
                Real(v) => v,
            };
            let y = match b {
                Int(v) => v as f64,
                Real(v) => v,
            };
            Ok(match op {
                BinOp::Add => Real(x + y),
                BinOp::Sub => Real(x - y),
                BinOp::Mul => Real(x * y),
                BinOp::Div => Real(x / y),
                BinOp::Eq => Int(i64::from(x == y)),
                BinOp::Ne => Int(i64::from(x != y)),
                BinOp::Lt => Int(i64::from(x < y)),
                BinOp::Le => Int(i64::from(x <= y)),
                BinOp::Gt => Int(i64::from(x > y)),
                BinOp::Ge => Int(i64::from(x >= y)),
                BinOp::Rem | BinOp::And | BinOp::Or => unreachable!("rejected by typeck"),
            })
        }
    }
}

/// Integer binary operation with wrapping semantics.
///
/// # Errors
///
/// Returns [`InterpError::DivByZero`] for `/ 0` or `% 0`.
pub fn eval_binop_int(op: BinOp, a: i64, b: i64) -> Result<i64, InterpError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(InterpError::DivByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(InterpError::DivByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;

    fn run_src(src: &str, input: Vec<i64>) -> Result<Vec<Value>, InterpError> {
        let checked = check(parse(src).expect("parse")).unwrap_or_else(|e| {
            panic!("check failed:\n{}", e.render(src));
        });
        let config = InterpConfig {
            input,
            ..InterpConfig::default()
        };
        run(&checked, &config).map(|o| o.output)
    }

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn hello_arithmetic() {
        assert_eq!(
            run_src("main\nprint(1 + 2 * 3)\nend\n", vec![]),
            Ok(ints(&[7]))
        );
    }

    #[test]
    fn zero_initialized() {
        assert_eq!(
            run_src("main\ninteger a(3)\nprint(x)\nprint(a(2))\nend\n", vec![]),
            Ok(ints(&[0, 0]))
        );
    }

    #[test]
    fn global_initializers() {
        assert_eq!(
            run_src(
                "global n = 7\nglobal m\nmain\nprint(n)\nprint(m)\nend\n",
                vec![]
            ),
            Ok(ints(&[7, 0]))
        );
    }

    #[test]
    fn if_else() {
        let src = "main\nx = 3\nif x > 2 then\nprint(1)\nelse\nprint(2)\nend\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[1])));
    }

    #[test]
    fn while_loop() {
        let src = "main\ni = 0\ns = 0\nwhile i < 5 do\ni = i + 1\ns = s + i\nend\nprint(s)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[15])));
    }

    #[test]
    fn do_loop_sum() {
        let src = "main\ns = 0\ndo i = 1, 10\ns = s + i\nend\nprint(s)\nprint(i)\nend\n";
        // After the loop the variable holds the first value past the bound.
        assert_eq!(run_src(src, vec![]), Ok(ints(&[55, 11])));
    }

    #[test]
    fn do_loop_negative_step() {
        let src = "main\ns = 0\ndo i = 10, 1, -3\ns = s + i\nend\nprint(s)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[10 + 7 + 4 + 1])));
    }

    #[test]
    fn do_loop_zero_trips() {
        let src = "main\ns = 42\ndo i = 5, 1\ns = 0\nend\nprint(s)\nprint(i)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[42, 5])));
    }

    #[test]
    fn do_loop_zero_step_errors() {
        let src = "main\ndo i = 1, 5, 0\nend\nend\n";
        assert_eq!(run_src(src, vec![]), Err(InterpError::ZeroStep));
    }

    #[test]
    fn by_reference_scalars() {
        let src = "proc inc(x)\nx = x + 1\nend\nmain\ny = 10\ncall inc(y)\nprint(y)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[11])));
    }

    #[test]
    fn expressions_pass_by_value() {
        let src =
            "proc clobber(x)\nx = 99\nend\nmain\ny = 10\ncall clobber(y + 0)\nprint(y)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[10])));
    }

    #[test]
    fn array_elements_pass_by_value() {
        let src = "proc clobber(x)\nx = 99\nend\nmain\ninteger a(3)\na(1) = 5\ncall clobber(a(1))\nprint(a(1))\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[5])));
    }

    #[test]
    fn arrays_by_reference() {
        let src = "proc setfirst(v())\nv(1) = 77\nend\nmain\ninteger a(4)\ncall setfirst(a)\nprint(a(1))\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[77])));
    }

    #[test]
    fn globals_shared() {
        let src = "global g\nproc setg()\ng = 13\nend\nmain\ncall setg()\nprint(g)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[13])));
    }

    #[test]
    fn param_shadows_global_at_runtime() {
        let src = "global g = 1\nproc f(g)\ng = 50\nend\nmain\nx = 2\ncall f(x)\nprint(g)\nprint(x)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[1, 50])));
    }

    #[test]
    fn function_return() {
        let src = "func sq(x)\nreturn x * x\nend\nmain\nprint(sq(6))\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[36])));
    }

    #[test]
    fn function_fallthrough_returns_zero() {
        let src =
            "func f(x)\nif x > 0 then\nreturn 1\nend\nend\nmain\nprint(f(0))\nprint(f(5))\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[0, 1])));
    }

    #[test]
    fn recursion() {
        let src = "func fact(n)\nif n <= 1 then\nreturn 1\nend\nreturn n * fact(n - 1)\nend\nmain\nprint(fact(6))\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[720])));
    }

    #[test]
    fn read_and_print() {
        let src = "main\nread(x)\nread(y)\nprint(x + y)\nend\n";
        assert_eq!(run_src(src, vec![20, 22]), Ok(ints(&[42])));
    }

    #[test]
    fn read_exhausted() {
        assert_eq!(
            run_src("main\nread(x)\nend\n", vec![]),
            Err(InterpError::InputExhausted)
        );
    }

    #[test]
    fn division_semantics() {
        let src = "main\nprint(7 / 2)\nprint(0 - 7 / 2)\nprint(7 % 3)\nprint((0 - 7) % 3)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[3, -3, 1, -1])));
    }

    #[test]
    fn div_by_zero() {
        assert_eq!(
            run_src("main\nx = 0\nprint(1 / x)\nend\n", vec![]),
            Err(InterpError::DivByZero)
        );
        assert_eq!(
            run_src("main\nx = 0\nprint(1 % x)\nend\n", vec![]),
            Err(InterpError::DivByZero)
        );
    }

    #[test]
    fn wrapping_arithmetic() {
        let src = "main\nx = 9223372036854775807\nprint(x + 1)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[i64::MIN])));
    }

    #[test]
    fn logical_ops() {
        let src = "main\nprint(1 and 2)\nprint(1 and 0)\nprint(0 or 3)\nprint(0 or 0)\nprint(not 0)\nprint(not 9)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[1, 0, 1, 0, 1, 0])));
    }

    #[test]
    fn real_arithmetic() {
        let src = "main\nreal r\nr = 1.5\nr = r * 2.0 + 1\nprint(r)\nprint(r > 3.5)\nend\n";
        assert_eq!(
            run_src(src, vec![]),
            Ok(vec![Value::Real(4.0), Value::Int(1)])
        );
    }

    #[test]
    fn int_to_real_param_conversion() {
        let src = "proc show(real x)\nprint(x)\nend\nmain\ncall show(3)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(vec![Value::Real(3.0)]));
    }

    #[test]
    fn read_into_real() {
        let src = "main\nreal r\nread(r)\nprint(r)\nend\n";
        assert_eq!(run_src(src, vec![5]), Ok(vec![Value::Real(5.0)]));
    }

    #[test]
    fn out_of_bounds() {
        let src = "main\ninteger a(3)\nx = a(4)\nend\n";
        assert!(matches!(
            run_src(src, vec![]),
            Err(InterpError::OutOfBounds { .. })
        ));
        let src = "main\ninteger a(3)\na(0) = 1\nend\n";
        assert!(matches!(
            run_src(src, vec![]),
            Err(InterpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn step_limit_triggers() {
        let src = "main\nwhile 1 do\nend\nend\n";
        let checked = check(parse(src).unwrap()).unwrap();
        let config = InterpConfig {
            max_steps: 1000,
            ..InterpConfig::default()
        };
        assert_eq!(run(&checked, &config), Err(InterpError::StepLimit));
    }

    #[test]
    fn depth_limit_triggers() {
        let src = "proc f()\ncall f()\nend\nmain\ncall f()\nend\n";
        assert_eq!(run_src(src, vec![]), Err(InterpError::DepthLimit));
    }

    #[test]
    fn do_var_modified_by_body() {
        // Documented while-style semantics: body modifications affect
        // iteration.
        let src = "main\ns = 0\ndo i = 1, 10\ns = s + 1\ni = i + 1\nend\nprint(s)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[5])));
    }

    #[test]
    fn call_in_expression_with_side_effects() {
        let src = "global c\nfunc bump()\nc = c + 1\nreturn c\nend\nmain\nx = bump() + bump()\nprint(x)\nprint(c)\nend\n";
        assert_eq!(run_src(src, vec![]), Ok(ints(&[3, 2])));
    }

    #[test]
    fn errors_display() {
        for e in [
            InterpError::DivByZero,
            InterpError::ZeroStep,
            InterpError::OutOfBounds {
                name: "a".into(),
                index: 9,
                len: 3,
            },
            InterpError::InputExhausted,
            InterpError::StepLimit,
            InterpError::DepthLimit,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
