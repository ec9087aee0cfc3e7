//! The PPC tree-walking interpreter.
//!
//! Executes a checked [`crate::ast::Program`] against a live
//! [`Ppa`] runtime. Faithful SIMD semantics:
//!
//! * every *parallel* operation issues costed machine instructions, so an
//!   interpreted program and its hand-written Rust equivalent report the
//!   same order of controller steps;
//! * controller-resident (scalar) arithmetic and branching is free — the
//!   paper's complexity model counts array instructions, not controller
//!   bookkeeping;
//! * `where` masks gate parallel *assignments* only; expressions evaluate
//!   on all PEs (communication included), exactly like the hardware.
//!
//! Host integration: [`Interpreter::bind`] presets a variable before the
//! run; a later declaration of that name *without* initializer adopts the
//! preset value (this is how `W`, `d`, ... enter a program), and outputs
//! are read back with the `get_*` accessors after [`Interpreter::run`].

use crate::ast::*;
use crate::error::{LangError, Span};
use ppa_machine::Direction;
use ppa_ppc::{Parallel, Ppa, PpcError};
use std::collections::HashMap;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Controller integer.
    Int(i64),
    /// Controller logical.
    Bool(bool),
    /// Direction constant.
    Dir(Direction),
    /// Parallel integer plane.
    PInt(Parallel<i64>),
    /// Parallel logical plane.
    PBool(Parallel<bool>),
}

impl Value {
    fn describe(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "logical",
            Value::Dir(_) => "direction",
            Value::PInt(_) => "parallel int",
            Value::PBool(_) => "parallel logical",
        }
    }
}

/// The interpreter: a PPA runtime plus scopes and the activity-mask stack.
pub struct Interpreter<'a> {
    ppa: &'a mut Ppa,
    scopes: Vec<HashMap<String, Value>>,
    masks: Vec<Parallel<bool>>,
    preset: HashMap<String, Value>,
}

type IResult<T> = Result<T, LangError>;

fn rt(span: Span, e: PpcError) -> LangError {
    LangError::runtime(span, e.to_string())
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a runtime.
    pub fn new(ppa: &'a mut Ppa) -> Self {
        Interpreter {
            ppa,
            scopes: vec![HashMap::new()],
            masks: Vec::new(),
            preset: HashMap::new(),
        }
    }

    /// Presets `name`; adopted by a later initializer-less declaration.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.preset.insert(name.into(), value);
    }

    /// Borrow the underlying runtime (e.g. for step reports).
    pub fn ppa(&self) -> &Ppa {
        self.ppa
    }

    /// Runs a program to completion. Global declarations stay readable
    /// through the accessors afterwards.
    pub fn run(&mut self, program: &Program) -> IResult<()> {
        for item in &program.items {
            self.item(item)?;
        }
        Ok(())
    }

    // ----- result accessors --------------------------------------------------

    fn get(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Reads a global `parallel int` after the run.
    pub fn get_parallel_int(&self, name: &str) -> Option<&Parallel<i64>> {
        match self.get(name) {
            Some(Value::PInt(p)) => Some(p),
            _ => None,
        }
    }

    /// Reads a global `parallel logical` after the run.
    pub fn get_parallel_bool(&self, name: &str) -> Option<&Parallel<bool>> {
        match self.get(name) {
            Some(Value::PBool(p)) => Some(p),
            _ => None,
        }
    }

    /// Reads a global scalar `int` after the run.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a global scalar `logical` after the run.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        match self.get(name) {
            Some(Value::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    // ----- execution -----------------------------------------------------------

    fn item(&mut self, item: &Item) -> IResult<()> {
        match item {
            Item::Decl(d) => self.decl(d),
            Item::Stmt(s) => self.stmt(s),
        }
    }

    fn decl(&mut self, d: &Decl) -> IResult<()> {
        let value = if let Some(init) = &d.init {
            let v = self.eval(init)?;
            self.coerce_for_target(d.parallel, d.ty, v, init.span())?
        } else if let Some(pre) = self.preset.get(&d.name).cloned() {
            // Host-supplied input; must match the declared type.
            let matches = matches!(
                (&pre, d.parallel, d.ty),
                (Value::PInt(_), true, BaseType::Int)
                    | (Value::PBool(_), true, BaseType::Logical)
                    | (Value::Int(_), false, BaseType::Int)
                    | (Value::Bool(_), false, BaseType::Logical)
            );
            if !matches {
                return Err(LangError::runtime(
                    d.span,
                    format!(
                        "host binding for `{}` is {}, declaration wants {}{:?}",
                        d.name,
                        pre.describe(),
                        if d.parallel { "parallel " } else { "" },
                        d.ty
                    ),
                ));
            }
            // A parallel binding must have the array's shape: a masked
            // write checks its destination and source planes, not the
            // activity mask a `where` built from this binding.
            let dim = match &pre {
                Value::PInt(p) => Some(p.dim()),
                Value::PBool(p) => Some(p.dim()),
                _ => None,
            };
            if let Some(dim) = dim.filter(|&dim| dim != self.ppa.dim()) {
                let want = self.ppa.dim();
                return Err(LangError::runtime(
                    d.span,
                    format!(
                        "host binding for `{}` is {}x{}, the array is {}x{}",
                        d.name, dim.rows, dim.cols, want.rows, want.cols
                    ),
                ));
            }
            pre
        } else {
            // PPC leaves these uninitialized; the simulator zero-fills.
            match (d.parallel, d.ty) {
                (true, BaseType::Int) => Value::PInt(self.ppa.constant(0i64)),
                (true, BaseType::Logical) => Value::PBool(self.ppa.constant(false)),
                (false, BaseType::Int) => Value::Int(0),
                (false, BaseType::Logical) => Value::Bool(false),
            }
        };
        // The scope stack is structurally non-empty (the global scope is
        // pushed at construction and every pop pairs a push), but a
        // serving worker must never die on a malformed program: report
        // the impossible state as a runtime diagnostic instead.
        let Some(scope) = self.scopes.last_mut() else {
            return Err(LangError::runtime(
                d.span,
                format!("declaration of `{}` outside any scope", d.name),
            ));
        };
        scope.insert(d.name.clone(), value);
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> IResult<()> {
        match stmt {
            Stmt::Block(items) => {
                self.scopes.push(HashMap::new());
                let r = items.iter().try_for_each(|it| self.item(it));
                self.scopes.pop();
                r
            }
            Stmt::Empty => Ok(()),
            Stmt::Assign { name, value, span } => {
                let v = self.eval(value)?;
                self.assign(name, v, *span)
            }
            Stmt::Where {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let c = match self.eval(cond)? {
                    Value::PBool(p) => p,
                    other => {
                        return Err(LangError::runtime(
                            cond.span(),
                            format!(
                                "`where` condition must be parallel logical, got {}",
                                other.describe()
                            ),
                        ))
                    }
                };
                self.push_mask(&c, *span)?;
                let r = self.stmt(then_branch);
                self.masks.pop();
                r?;
                if let Some(else_b) = else_branch {
                    let nc = self.ppa.not(&c).map_err(|e| rt(*span, e))?;
                    self.push_mask(&nc, *span)?;
                    let r = self.stmt(else_b);
                    self.masks.pop();
                    r?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                if self.scalar_bool(cond)? {
                    self.stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.stmt(e)
                } else {
                    Ok(())
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.scalar_bool(cond)? {
                    self.stmt(body)?;
                }
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => loop {
                self.stmt(body)?;
                if !self.scalar_bool(cond)? {
                    return Ok(());
                }
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                if let Some((name, value)) = init {
                    let v = self.eval(value)?;
                    self.assign(name, v, *span)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.scalar_bool(c)? {
                            return Ok(());
                        }
                    }
                    self.stmt(body)?;
                    if let Some((name, value)) = step {
                        let v = self.eval(value)?;
                        self.assign(name, v, *span)?;
                    }
                }
            }
        }
    }

    fn scalar_bool(&mut self, cond: &Expr) -> IResult<bool> {
        match self.eval(cond)? {
            Value::Bool(b) => Ok(b),
            other => Err(LangError::runtime(
                cond.span(),
                format!(
                    "controller condition must be scalar logical, got {}",
                    other.describe()
                ),
            )),
        }
    }

    /// Pushes an activity mask, pre-ANDed with the current one (one ALU
    /// step, the activity-bit write — same cost model as `Ppa::where_`).
    fn push_mask(&mut self, cond: &Parallel<bool>, span: Span) -> IResult<()> {
        let effective = match self.masks.last() {
            None => {
                self.ppa
                    .machine_mut()
                    .controller_mut()
                    .record(ppa_machine::Op::Alu);
                cond.clone()
            }
            Some(parent) => self
                .ppa
                .machine_mut()
                .zip(parent, cond, |&a, &b| a && b)
                .map_err(|e| rt(span, PpcError::from(e)))?,
        };
        self.masks.push(effective);
        Ok(())
    }

    fn assign(&mut self, name: &str, value: Value, span: Span) -> IResult<()> {
        // Find the owning scope first (can't hold the borrow across eval).
        let idx = self
            .scopes
            .iter()
            .rposition(|s| s.contains_key(name))
            .ok_or_else(|| LangError::runtime(span, format!("undeclared variable `{name}`")))?;
        let current = self.scopes[idx].get(name).expect("just found").clone();
        let mask = self.masks.last().cloned();
        let new_value = match current {
            Value::PInt(mut plane) => {
                let src = match self.promote_int(value, span)? {
                    Value::PInt(p) => p,
                    _ => unreachable!("promote_int returns PInt"),
                };
                match &mask {
                    Some(m) => {
                        self.ppa
                            .machine_mut()
                            .assign_where(&mut plane, &src, Some(m))
                            .map_err(|e| rt(span, PpcError::from(e)))?;
                        Value::PInt(plane)
                    }
                    None => {
                        // Unmasked write still costs one ALU step.
                        self.ppa
                            .machine_mut()
                            .controller_mut()
                            .record(ppa_machine::Op::Alu);
                        Value::PInt(src)
                    }
                }
            }
            Value::PBool(mut plane) => {
                let src = match self.promote_bool(value, span)? {
                    Value::PBool(p) => p,
                    _ => unreachable!("promote_bool returns PBool"),
                };
                match &mask {
                    Some(m) => {
                        self.ppa
                            .machine_mut()
                            .assign_where(&mut plane, &src, Some(m))
                            .map_err(|e| rt(span, PpcError::from(e)))?;
                        Value::PBool(plane)
                    }
                    None => {
                        self.ppa
                            .machine_mut()
                            .controller_mut()
                            .record(ppa_machine::Op::Alu);
                        Value::PBool(src)
                    }
                }
            }
            Value::Int(_) => match value {
                Value::Int(v) => Value::Int(v),
                other => {
                    return Err(LangError::runtime(
                        span,
                        format!("cannot assign {} to scalar int `{name}`", other.describe()),
                    ))
                }
            },
            Value::Bool(_) => match value {
                Value::Bool(v) => Value::Bool(v),
                other => {
                    return Err(LangError::runtime(
                        span,
                        format!(
                            "cannot assign {} to scalar logical `{name}`",
                            other.describe()
                        ),
                    ))
                }
            },
            Value::Dir(_) => return Err(LangError::runtime(span, "directions are read-only")),
        };
        self.scopes[idx].insert(name.to_owned(), new_value);
        Ok(())
    }

    fn coerce_for_target(
        &mut self,
        parallel: bool,
        ty: BaseType,
        v: Value,
        span: Span,
    ) -> IResult<Value> {
        match (parallel, ty) {
            (true, BaseType::Int) => self.promote_int(v, span),
            (true, BaseType::Logical) => self.promote_bool(v, span),
            (false, BaseType::Int) => match v {
                Value::Int(_) => Ok(v),
                other => Err(LangError::runtime(
                    span,
                    format!("initializer must be scalar int, got {}", other.describe()),
                )),
            },
            (false, BaseType::Logical) => match v {
                Value::Bool(_) => Ok(v),
                other => Err(LangError::runtime(
                    span,
                    format!(
                        "initializer must be scalar logical, got {}",
                        other.describe()
                    ),
                )),
            },
        }
    }

    fn promote_int(&mut self, v: Value, span: Span) -> IResult<Value> {
        match v {
            Value::PInt(_) => Ok(v),
            Value::Int(s) => Ok(Value::PInt(self.ppa.constant(s))),
            other => Err(LangError::runtime(
                span,
                format!("expected (parallel) int, got {}", other.describe()),
            )),
        }
    }

    fn promote_bool(&mut self, v: Value, span: Span) -> IResult<Value> {
        match v {
            Value::PBool(_) => Ok(v),
            Value::Bool(s) => Ok(Value::PBool(self.ppa.constant(s))),
            other => Err(LangError::runtime(
                span,
                format!("expected (parallel) logical, got {}", other.describe()),
            )),
        }
    }

    // ----- expression evaluation ----------------------------------------------

    fn eval(&mut self, expr: &Expr) -> IResult<Value> {
        match expr {
            Expr::Int(v, _) => Ok(Value::Int(*v)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Ident(name, span) => self.ident(name, *span),
            Expr::Unary { op, operand, span } => {
                let v = self.eval(operand)?;
                match (op, v) {
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Not, Value::PBool(p)) => {
                        Ok(Value::PBool(self.ppa.not(&p).map_err(|e| rt(*span, e))?))
                    }
                    (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
                    (UnOp::Neg, Value::PInt(p)) => Ok(Value::PInt(
                        self.ppa
                            .machine_mut()
                            .map(&p, |&x| -x)
                            .map_err(|e| rt(*span, PpcError::from(e)))?,
                    )),
                    (_, other) => Err(LangError::runtime(
                        *span,
                        format!("operator cannot apply to {}", other.describe()),
                    )),
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.binary(*op, l, r, *span)
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
        }
    }

    fn ident(&mut self, name: &str, span: Span) -> IResult<Value> {
        match name {
            "ROW" => return Ok(Value::PInt(self.ppa.row_index())),
            "COL" => return Ok(Value::PInt(self.ppa.col_index())),
            "N" => {
                let n = self.ppa.n().map_err(|e| rt(span, e))?;
                return Ok(Value::Int(n as i64));
            }
            "H" => return Ok(Value::Int(i64::from(self.ppa.word_bits()))),
            "MAXINT" => return Ok(Value::Int(self.ppa.maxint())),
            "NORTH" => return Ok(Value::Dir(Direction::North)),
            "EAST" => return Ok(Value::Dir(Direction::East)),
            "SOUTH" => return Ok(Value::Dir(Direction::South)),
            "WEST" => return Ok(Value::Dir(Direction::West)),
            _ => {}
        }
        self.get(name)
            .cloned()
            .ok_or_else(|| LangError::runtime(span, format!("undeclared variable `{name}`")))
    }

    fn binary(&mut self, op: BinOp, l: Value, r: Value, span: Span) -> IResult<Value> {
        use Value::*;
        // Scalar-scalar fast path: controller arithmetic, zero SIMD steps.
        match (&l, &r) {
            (Int(a), Int(b)) => {
                let a = *a;
                let b = *b;
                return Ok(match op {
                    BinOp::Add => Int(a + b),
                    BinOp::Sub => Int(a - b),
                    BinOp::Mul => Int(a * b),
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(LangError::runtime(span, "remainder by zero"));
                        }
                        Int(a % b)
                    }
                    BinOp::Eq => Bool(a == b),
                    BinOp::Ne => Bool(a != b),
                    BinOp::Lt => Bool(a < b),
                    BinOp::Le => Bool(a <= b),
                    BinOp::Gt => Bool(a > b),
                    BinOp::Ge => Bool(a >= b),
                    BinOp::And | BinOp::Or => {
                        return Err(LangError::runtime(span, "logical op on ints"))
                    }
                });
            }
            (Bool(a), Bool(b)) => {
                let a = *a;
                let b = *b;
                return Ok(match op {
                    BinOp::And => Bool(a && b),
                    BinOp::Or => Bool(a || b),
                    BinOp::Eq => Bool(a == b),
                    BinOp::Ne => Bool(a != b),
                    _ => return Err(LangError::runtime(span, "arithmetic on scalar logicals")),
                });
            }
            _ => {}
        }
        // Parallel path: promote the scalar side, then one ALU instruction.
        if op.is_logical() || matches!((&l, &r), (PBool(_) | Bool(_), PBool(_) | Bool(_))) {
            let a = match self.promote_bool(l, span)? {
                PBool(p) => p,
                _ => unreachable!(),
            };
            let b = match self.promote_bool(r, span)? {
                PBool(p) => p,
                _ => unreachable!(),
            };
            let out = match op {
                BinOp::And => self.ppa.and(&a, &b),
                BinOp::Or => self.ppa.or(&a, &b),
                BinOp::Eq => self.ppa.eq(&a, &b),
                BinOp::Ne => self.ppa.ne(&a, &b),
                _ => return Err(LangError::runtime(span, "arithmetic on parallel logicals")),
            }
            .map_err(|e| rt(span, e))?;
            return Ok(PBool(out));
        }
        let a = match self.promote_int(l, span)? {
            PInt(p) => p,
            _ => unreachable!(),
        };
        let b = match self.promote_int(r, span)? {
            PInt(p) => p,
            _ => unreachable!(),
        };
        Ok(match op {
            BinOp::Add => PInt(self.ppa.sat_add(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Sub => PInt(self.ppa.sub(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Mul => PInt(
                self.ppa
                    .machine_mut()
                    .zip(&a, &b, |x, y| x * y)
                    .map_err(|e| rt(span, PpcError::from(e)))?,
            ),
            BinOp::Rem => PInt(
                self.ppa
                    .machine_mut()
                    .zip(&a, &b, |x, y| if *y == 0 { 0 } else { x % y })
                    .map_err(|e| rt(span, PpcError::from(e)))?,
            ),
            BinOp::Eq => PBool(self.ppa.eq(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Ne => PBool(self.ppa.ne(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Lt => PBool(self.ppa.lt(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Le => PBool(self.ppa.le(&a, &b).map_err(|e| rt(span, e))?),
            BinOp::Gt => PBool(self.ppa.lt(&b, &a).map_err(|e| rt(span, e))?),
            BinOp::Ge => PBool(self.ppa.le(&b, &a).map_err(|e| rt(span, e))?),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> IResult<Value> {
        let vals: Vec<Value> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        let dir = |v: &Value, i: usize| -> IResult<Direction> {
            match v {
                Value::Dir(d) => Ok(*d),
                other => Err(LangError::runtime(
                    args[i].span(),
                    format!(
                        "argument {} must be a direction, got {}",
                        i + 1,
                        other.describe()
                    ),
                )),
            }
        };
        match (name, vals.as_slice()) {
            ("broadcast", [src, d, l]) => {
                let d = dir(d, 1)?;
                let l = match self.promote_bool(l.clone(), span)? {
                    Value::PBool(p) => p,
                    _ => unreachable!(),
                };
                match self.promote_any(src.clone(), span)? {
                    Value::PInt(p) => Ok(Value::PInt(
                        self.ppa.broadcast(&p, d, &l).map_err(|e| rt(span, e))?,
                    )),
                    Value::PBool(p) => Ok(Value::PBool(
                        self.ppa.broadcast(&p, d, &l).map_err(|e| rt(span, e))?,
                    )),
                    _ => unreachable!(),
                }
            }
            ("shift", [src, d]) => {
                let d = dir(d, 1)?;
                match self.promote_any(src.clone(), span)? {
                    Value::PInt(p) => Ok(Value::PInt(
                        self.ppa.shift(&p, d, 0).map_err(|e| rt(span, e))?,
                    )),
                    Value::PBool(p) => Ok(Value::PBool(
                        self.ppa.shift(&p, d, false).map_err(|e| rt(span, e))?,
                    )),
                    _ => unreachable!(),
                }
            }
            ("min" | "max", [src, d, l]) => {
                let d = dir(d, 1)?;
                let src = self.as_pint(src.clone(), span)?;
                let l = self.as_pbool(l.clone(), span)?;
                let out = if name == "min" {
                    self.ppa.min(&src, d, &l)
                } else {
                    self.ppa.max(&src, d, &l)
                }
                .map_err(|e| rt(span, e))?;
                Ok(Value::PInt(out))
            }
            ("selected_min" | "selected_max", [src, d, l, sel]) => {
                let d = dir(d, 1)?;
                let src = self.as_pint(src.clone(), span)?;
                let l = self.as_pbool(l.clone(), span)?;
                let sel = self.as_pbool(sel.clone(), span)?;
                let out = if name == "selected_min" {
                    self.ppa.selected_min(&src, d, &l, &sel)
                } else {
                    self.ppa.selected_max(&src, d, &l, &sel)
                }
                .map_err(|e| rt(span, e))?;
                Ok(Value::PInt(out))
            }
            ("or", [x, d, l]) => {
                let d = dir(d, 1)?;
                let x = self.as_pbool(x.clone(), span)?;
                let l = self.as_pbool(l.clone(), span)?;
                Ok(Value::PBool(
                    self.ppa.bus_or(&x, d, &l).map_err(|e| rt(span, e))?,
                ))
            }
            ("bit", [x, j]) => {
                let x = self.as_pint(x.clone(), span)?;
                let j = match j {
                    Value::Int(v) if (0..63).contains(v) => *v as u32,
                    Value::Int(v) => {
                        return Err(LangError::runtime(
                            span,
                            format!("bit position {v} out of range"),
                        ))
                    }
                    other => {
                        return Err(LangError::runtime(
                            span,
                            format!("bit position must be scalar int, got {}", other.describe()),
                        ))
                    }
                };
                Ok(Value::PBool(self.ppa.bit(&x, j).map_err(|e| rt(span, e))?))
            }
            ("any", [x]) => {
                let x = self.as_pbool(x.clone(), span)?;
                Ok(Value::Bool(self.ppa.any(&x).map_err(|e| rt(span, e))?))
            }
            ("opposite", [d]) => Ok(Value::Dir(dir(d, 0)?.opposite())),
            _ => Err(LangError::runtime(
                span,
                format!("unknown builtin `{name}` or wrong arity ({})", args.len()),
            )),
        }
    }

    fn promote_any(&mut self, v: Value, span: Span) -> IResult<Value> {
        match v {
            Value::PInt(_) | Value::PBool(_) => Ok(v),
            Value::Int(s) => Ok(Value::PInt(self.ppa.constant(s))),
            Value::Bool(s) => Ok(Value::PBool(self.ppa.constant(s))),
            Value::Dir(_) => Err(LangError::runtime(span, "directions are not data")),
        }
    }

    fn as_pint(&mut self, v: Value, span: Span) -> IResult<Parallel<i64>> {
        match self.promote_int(v, span)? {
            Value::PInt(p) => Ok(p),
            _ => unreachable!(),
        }
    }

    fn as_pbool(&mut self, v: Value, span: Span) -> IResult<Parallel<bool>> {
        match self.promote_bool(v, span)? {
            Value::PBool(p) => Ok(p),
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn run(n: usize, src: &str) -> (Ppa, Vec<(String, Value)>) {
        let program = parse(src).unwrap();
        let mut ppa = Ppa::square(n).with_word_bits(10);
        let mut interp = Interpreter::new(&mut ppa);
        interp.run(&program).unwrap();
        let globals: Vec<(String, Value)> = interp.scopes[0]
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        (ppa, globals)
    }

    fn pint(globals: &[(String, Value)], name: &str) -> Parallel<i64> {
        globals
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| match v {
                Value::PInt(p) => p.clone(),
                other => panic!("{name} is {}", other.describe()),
            })
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn assignments_and_arithmetic() {
        let (_, g) = run(3, "parallel int x; x = ROW * 3 + COL;");
        let x = pint(&g, "x");
        assert_eq!(*x.at(2, 1), 7);
    }

    #[test]
    fn where_masks_writes() {
        let (_, g) = run(
            3,
            "parallel int x; where (ROW == 1) x = 5; elsewhere x = 9;",
        );
        let x = pint(&g, "x");
        assert_eq!(x.row(0), &[9, 9, 9]);
        assert_eq!(x.row(1), &[5, 5, 5]);
    }

    #[test]
    fn nested_where_intersects() {
        let (_, g) = run(
            3,
            "parallel int x; where (ROW == 1) where (COL == 2) x = 7;",
        );
        let x = pint(&g, "x");
        assert_eq!(*x.at(1, 2), 7);
        assert_eq!(*x.at(1, 1), 0);
        assert_eq!(*x.at(0, 2), 0);
    }

    #[test]
    fn broadcast_builtin() {
        let (_, g) = run(
            4,
            "parallel int x; x = ROW * 4 + COL; x = broadcast(x, SOUTH, ROW == 2);",
        );
        let x = pint(&g, "x");
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(*x.at(r, c), (2 * 4 + c) as i64);
            }
        }
    }

    #[test]
    fn min_builtin_matches_rowwise_reference() {
        let (_, g) = run(
            4,
            "parallel int x; x = (ROW * 7 + COL * 5) % 13; x = min(x, WEST, COL == N - 1);",
        );
        let x = pint(&g, "x");
        for r in 0..4i64 {
            let expect = (0..4i64).map(|c| (r * 7 + c * 5) % 13).min().unwrap();
            assert!(x.row(r as usize).iter().all(|&v| v == expect));
        }
    }

    #[test]
    fn scalar_loops_run_on_controller() {
        let (ppa, g) = run(
            2,
            r#"
            int acc;
            int j;
            for (j = 0; j < 5; j = j + 1) acc = acc + j;
            "#,
        );
        assert!(g
            .iter()
            .any(|(k, v)| k == "acc" && matches!(v, Value::Int(10))));
        // Controller arithmetic is free: no SIMD steps at all.
        assert_eq!(ppa.steps().total(), 0);
    }

    #[test]
    fn do_while_with_any() {
        let (_, g) = run(
            4,
            r#"
            parallel int x;
            logical go;
            do {
                where (x < 3) x = x + 1;
                go = any(x < 3);
            } while (go);
            "#,
        );
        let x = pint(&g, "x");
        assert!(x.iter().all(|&v| v == 3));
    }

    #[test]
    fn parallel_add_saturates_at_maxint() {
        let (ppa, g) = run(2, "parallel int x; x = MAXINT; x = x + 5;");
        let x = pint(&g, "x");
        assert!(x.iter().all(|&v| v == ppa.maxint()));
    }

    #[test]
    fn host_bindings_flow_through_declarations() {
        let program = parse("parallel int W; parallel int y; y = W + 1;").unwrap();
        let mut ppa = Ppa::square(2).with_word_bits(8);
        let w = Parallel::from_fn(ppa.dim(), |c| (c.row * 2 + c.col) as i64);
        let mut interp = Interpreter::new(&mut ppa);
        interp.bind("W", Value::PInt(w));
        interp.run(&program).unwrap();
        let y = interp.get_parallel_int("y").unwrap();
        assert_eq!(*y.at(1, 1), 4);
    }

    #[test]
    fn binding_type_mismatch_rejected() {
        let program = parse("parallel int W;").unwrap();
        let mut ppa = Ppa::square(2);
        let mut interp = Interpreter::new(&mut ppa);
        interp.bind("W", Value::Int(3));
        let err = interp.run(&program).unwrap_err();
        assert!(err.message.contains("host binding"), "{err}");
    }

    #[test]
    fn misshapen_where_binding_fails_before_any_write() {
        let program =
            parse("parallel int x; x = 7; parallel logical flag; where (flag) x = 5;").unwrap();
        let mut ppa = Ppa::square(3).with_word_bits(8);
        let mut interp = Interpreter::new(&mut ppa);
        let flag = Parallel::from_fn(ppa_machine::Dim::new(2, 2), |_| true);
        interp.bind("flag", Value::PBool(flag));
        let err = interp.run(&program).unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Runtime);
        assert!(err.message.contains("is 2x2, the array is 3x3"), "{err}");
        let x = interp.get_parallel_int("x").unwrap();
        assert!(x.iter().all(|&v| v == 7), "a partial write leaked: {x:?}");
    }

    #[test]
    fn runtime_error_carries_ppc_failure() {
        // min with values exceeding the word width.
        let program =
            parse("parallel int x; x = MAXINT + 0; x = min(x * 2, WEST, COL == N - 1);").unwrap();
        let mut ppa = Ppa::square(2).with_word_bits(4);
        let mut interp = Interpreter::new(&mut ppa);
        let err = interp.run(&program).unwrap_err();
        assert!(err.message.contains("does not fit"), "{err}");
    }

    #[test]
    fn interpreted_steps_match_native_shape() {
        // The same row-min written natively and interpreted should cost
        // the same number of SIMD steps for the min itself.
        let program = parse("parallel int x; x = min(x, WEST, COL == N - 1);").unwrap();
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let mut interp = Interpreter::new(&mut ppa);
        interp.run(&program).unwrap();
        let interpreted = interp.ppa().steps().total();

        let mut native = Ppa::square(4).with_word_bits(8);
        let x = native.constant(0i64);
        let col = native.col_index();
        let nm1 = native.constant(3i64);
        let l = native.eq(&col, &nm1).unwrap();
        let m = native.min(&x, Direction::West, &l).unwrap();
        let mut dst = x.clone();
        native.assign(&mut dst, &m).unwrap();
        let native_steps = native.steps().total();
        assert_eq!(interpreted, native_steps);
    }

    #[test]
    fn block_scoped_shadowing() {
        let (_, g) = run(
            2,
            r#"
            int x;
            x = 1;
            {
                int x;
                x = 99;
            }
            // The inner x died with its block; outer x is untouched.
            x = x + 1;
            "#,
        );
        assert!(g
            .iter()
            .any(|(k, v)| k == "x" && matches!(v, Value::Int(2))));
    }

    #[test]
    fn elsewhere_uses_complement_within_parent_mask() {
        let (_, g) = run(
            3,
            r#"
            parallel int x;
            where (ROW == 0)
                where (COL == 0) x = 1;
                elsewhere x = 2;
            "#,
        );
        let x = pint(&g, "x");
        // elsewhere = (ROW == 0) && !(COL == 0): rows 1-2 stay zero.
        assert_eq!(x.row(0), &[1, 2, 2]);
        assert_eq!(x.row(1), &[0, 0, 0]);
    }

    #[test]
    fn shift_builtin_moves_data() {
        let (_, g) = run(3, "parallel int x; x = COL; x = shift(x, EAST);");
        let x = pint(&g, "x");
        // Upstream edge receives the interpreter's fill (0).
        assert_eq!(x.row(0), &[0, 0, 1]);
    }

    #[test]
    fn while_loop_with_scalar_counter_drives_parallel_work() {
        let (ppa, g) = run(
            4,
            r#"
            parallel int acc;
            int k;
            k = 3;
            while (k > 0) {
                acc = acc + ROW;
                k = k - 1;
            }
            "#,
        );
        let acc = pint(&g, "acc");
        for r in 0..4 {
            assert!(acc.row(r).iter().all(|&v| v == 3 * r as i64));
        }
        // 3 iterations x (ROW read + add + write) = 9 ALU... plus decl.
        assert!(ppa.steps().total() >= 9);
    }

    #[test]
    fn division_free_modulo_by_zero_is_guarded() {
        let program = parse("int a; a = 1 % 0;").unwrap();
        let mut ppa = Ppa::square(2);
        let mut interp = Interpreter::new(&mut ppa);
        let err = interp.run(&program).unwrap_err();
        assert!(err.message.contains("remainder by zero"), "{err}");
    }

    #[test]
    fn opposite_builtin() {
        let (_, g) = run(
            3,
            r#"
            parallel int x;
            x = COL;
            // West clusters headed at col 2; reading against the direction.
            x = broadcast(x, opposite(EAST), COL == 2);
            "#,
        );
        let x = pint(&g, "x");
        assert!(x.row(0).iter().all(|&v| v == 2));
    }
}
