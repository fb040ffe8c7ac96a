//! Abstract syntax tree for MiniC programs.
//!
//! Every statement carries a `line` field filled in by
//! [`Program::assign_lines`]; until then it is zero. Line numbers are the
//! common currency between the source program, the debug information emitted
//! by the compiler, and the conjectures of the paper.

use std::fmt;

/// Integer types available in MiniC. All arithmetic is performed on `i64`
/// with wrap-around, then truncated to the destination type on store, so no
/// operation has undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// Signed 8-bit integer (`char`).
    I8,
    /// Signed 16-bit integer (`short`).
    I16,
    /// Signed 32-bit integer (`int`).
    I32,
    /// Signed 64-bit integer (`long`).
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// Pointer to a scalar of the given type.
    Ptr(&'static Ty),
}

impl Ty {
    /// All scalar (non-pointer) types.
    pub const SCALARS: [Ty; 8] = [
        Ty::I8,
        Ty::I16,
        Ty::I32,
        Ty::I64,
        Ty::U8,
        Ty::U16,
        Ty::U32,
        Ty::U64,
    ];

    /// Width of the type in bits.
    pub fn bits(self) -> u32 {
        match self {
            Ty::I8 | Ty::U8 => 8,
            Ty::I16 | Ty::U16 => 16,
            Ty::I32 | Ty::U32 => 32,
            Ty::I64 | Ty::U64 | Ty::Ptr(_) => 64,
        }
    }

    /// Whether the type is signed.
    pub fn signed(self) -> bool {
        matches!(self, Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64)
    }

    /// Truncate (and sign- or zero-extend) a raw 64-bit value to this type.
    ///
    /// This is the single place where MiniC defines integer conversion, and
    /// it is total: every `i64` maps to a valid value of every type.
    pub fn wrap(self, value: i64) -> i64 {
        let bits = self.bits();
        if bits == 64 {
            return value;
        }
        let mask = (1u64 << bits) - 1;
        let truncated = (value as u64) & mask;
        if self.signed() {
            let sign_bit = 1u64 << (bits - 1);
            if truncated & sign_bit != 0 {
                (truncated | !mask) as i64
            } else {
                truncated as i64
            }
        } else {
            truncated as i64
        }
    }

    /// The C spelling of this type, used by the source renderer.
    pub fn c_name(self) -> &'static str {
        match self {
            Ty::I8 => "signed char",
            Ty::I16 => "short",
            Ty::I32 => "int",
            Ty::I64 => "long",
            Ty::U8 => "unsigned char",
            Ty::U16 => "unsigned short",
            Ty::U32 => "unsigned int",
            Ty::U64 => "unsigned long",
            Ty::Ptr(inner) => match *inner {
                Ty::I32 => "int *",
                Ty::I64 => "long *",
                _ => "void *",
            },
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// Identifier of a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub usize);

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub usize);

/// Identifier of a local variable (or parameter) within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub usize);

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A reference to a variable: either a global of the program or a local of
/// the enclosing function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarRef {
    /// A program global.
    Global(GlobalId),
    /// A local variable or parameter of the current function.
    Local(LocalId),
}

/// Binary operators. Division, remainder and shifts are deliberately absent
/// so that no expression can trap or have undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Equality comparison (yields 0 or 1).
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl BinOp {
    /// All binary operators.
    pub const ALL: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// Evaluate the operator on two raw 64-bit values.
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Eq => (lhs == rhs) as i64,
            BinOp::Ne => (lhs != rhs) as i64,
            BinOp::Lt => (lhs < rhs) as i64,
            BinOp::Le => (lhs <= rhs) as i64,
            BinOp::Gt => (lhs > rhs) as i64,
            BinOp::Ge => (lhs >= rhs) as i64,
        }
    }

    /// The C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (wrapping).
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical negation (yields 0 or 1).
    LogicalNot,
}

impl UnOp {
    /// Evaluate the operator on a raw 64-bit value.
    pub fn eval(self, value: i64) -> i64 {
        match self {
            UnOp::Neg => value.wrapping_neg(),
            UnOp::Not => !value,
            UnOp::LogicalNot => (value == 0) as i64,
        }
    }

    /// The C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
            UnOp::LogicalNot => "!",
        }
    }
}

/// An expression. Expressions are side-effect free except for [`ExprKind::Call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// The expression node.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// An integer literal.
    Lit(i64),
    /// A variable read.
    Var(VarRef),
    /// Read of an element of a (global) array: `base[i0][i1]...`.
    Index {
        /// The array variable, always a global array in generated programs.
        base: VarRef,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Address of a variable (`&x`). The result is a pointer value.
    AddrOf(VarRef),
    /// Dereference of a pointer-valued expression (`*p`).
    Deref(Box<Expr>),
    /// Call to an internal (defined) function; opaque functions may only be
    /// called at statement level.
    Call {
        /// Callee function.
        callee: FunctionId,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// An integer literal expression.
    pub fn lit(value: i64) -> Expr {
        Expr {
            kind: ExprKind::Lit(value),
        }
    }

    /// A variable read expression.
    pub fn var(var: VarRef) -> Expr {
        Expr {
            kind: ExprKind::Var(var),
        }
    }

    /// A local variable read expression.
    pub fn local(local: LocalId) -> Expr {
        Expr::var(VarRef::Local(local))
    }

    /// A global variable read expression.
    pub fn global(global: GlobalId) -> Expr {
        Expr::var(VarRef::Global(global))
    }

    /// A binary operation expression.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr {
            kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
        }
    }

    /// A unary operation expression.
    pub fn unary(op: UnOp, operand: Expr) -> Expr {
        Expr {
            kind: ExprKind::Unary(op, Box::new(operand)),
        }
    }

    /// An array-indexing expression.
    pub fn index(base: VarRef, indices: Vec<Expr>) -> Expr {
        Expr {
            kind: ExprKind::Index { base, indices },
        }
    }

    /// An address-of expression.
    pub fn addr_of(var: VarRef) -> Expr {
        Expr {
            kind: ExprKind::AddrOf(var),
        }
    }

    /// A pointer dereference expression.
    pub fn deref(inner: Expr) -> Expr {
        Expr {
            kind: ExprKind::Deref(Box::new(inner)),
        }
    }

    /// A call expression to an internal function.
    pub fn call(callee: FunctionId, args: Vec<Expr>) -> Expr {
        Expr {
            kind: ExprKind::Call { callee, args },
        }
    }

    /// Collect every variable read (not written) by this expression,
    /// in left-to-right order, including duplicates.
    pub fn reads(&self) -> Vec<VarRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut Vec<VarRef>) {
        match &self.kind {
            ExprKind::Lit(_) => {}
            ExprKind::Var(v) => out.push(*v),
            ExprKind::Index { base, indices } => {
                out.push(*base);
                for idx in indices {
                    idx.collect_reads(out);
                }
            }
            ExprKind::Unary(_, inner) => inner.collect_reads(out),
            ExprKind::Binary(_, lhs, rhs) => {
                lhs.collect_reads(out);
                rhs.collect_reads(out);
            }
            ExprKind::AddrOf(v) => out.push(*v),
            ExprKind::Deref(inner) => inner.collect_reads(out),
            ExprKind::Call { args, .. } => {
                for arg in args {
                    arg.collect_reads(out);
                }
            }
        }
    }

    /// Whether this expression contains a call (the only source of side
    /// effects inside expressions).
    pub fn contains_call(&self) -> bool {
        match &self.kind {
            ExprKind::Lit(_) | ExprKind::Var(_) | ExprKind::AddrOf(_) => false,
            ExprKind::Index { indices, .. } => indices.iter().any(Expr::contains_call),
            ExprKind::Unary(_, inner) | ExprKind::Deref(inner) => inner.contains_call(),
            ExprKind::Binary(_, lhs, rhs) => lhs.contains_call() || rhs.contains_call(),
            ExprKind::Call { .. } => true,
        }
    }

    /// Number of nodes in the expression tree (used by the reducer to pick
    /// simplification candidates).
    pub fn size(&self) -> usize {
        1 + match &self.kind {
            ExprKind::Lit(_) | ExprKind::Var(_) | ExprKind::AddrOf(_) => 0,
            ExprKind::Index { indices, .. } => indices.iter().map(Expr::size).sum(),
            ExprKind::Unary(_, inner) | ExprKind::Deref(inner) => inner.size(),
            ExprKind::Binary(_, lhs, rhs) => lhs.size() + rhs.size(),
            ExprKind::Call { args, .. } => args.iter().map(Expr::size).sum(),
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A plain variable.
    Var(VarRef),
    /// An element of a (global) array.
    Index {
        /// The array variable.
        base: VarRef,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// A store through a pointer-typed variable (`*p = ...`).
    Deref(VarRef),
}

impl LValue {
    /// Assignment target referring to a global scalar.
    pub fn global(global: GlobalId) -> LValue {
        LValue::Var(VarRef::Global(global))
    }

    /// Assignment target referring to a local scalar.
    pub fn local(local: LocalId) -> LValue {
        LValue::Var(VarRef::Local(local))
    }

    /// Variables read while evaluating the target (indices and the pointer of
    /// a deref target).
    pub fn reads(&self) -> Vec<VarRef> {
        match self {
            LValue::Var(_) => Vec::new(),
            LValue::Index { indices, .. } => {
                let mut out = Vec::new();
                for idx in indices {
                    idx.collect_reads(&mut out);
                }
                out
            }
            LValue::Deref(v) => vec![*v],
        }
    }

    /// Whether the assignment writes to global storage (directly, to a global
    /// array element, or through a pointer — pointers in MiniC may only point
    /// to globals or address-taken locals, and the analyses treat pointer
    /// stores conservatively as global).
    pub fn writes_global_storage(&self) -> bool {
        match self {
            LValue::Var(VarRef::Global(_)) | LValue::Deref(_) => true,
            LValue::Index { base, .. } => matches!(base, VarRef::Global(_)),
            LValue::Var(VarRef::Local(_)) => false,
        }
    }
}

/// A statement, carrying the source line assigned by
/// [`Program::assign_lines`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Source line of the statement (0 until lines are assigned).
    pub line: u32,
    /// The statement node.
    pub kind: StmtKind,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// Declaration of a local variable with an optional initializer.
    Decl {
        /// The declared local.
        local: LocalId,
        /// Optional initializer expression.
        init: Option<Expr>,
    },
    /// An assignment `target = value;`.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Assigned expression.
        value: Expr,
    },
    /// A `for` loop. All parts are optional, as in C.
    For {
        /// Loop initialization (assignment executed once).
        init: Option<Box<Stmt>>,
        /// Loop condition; absent means infinite (never generated).
        cond: Option<Expr>,
        /// Loop step (assignment executed after each iteration).
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// An `if`/`else` statement.
    If {
        /// Condition expression.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// A call used as a statement. `opaque` calls target the external sink
    /// function that the optimizer must treat as unknown.
    Call {
        /// Callee: either an internal function or the opaque external sink.
        callee: Callee,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `return expr;` or `return;`.
    Return(Option<Expr>),
    /// A `goto` to a label defined in the same function.
    Goto(u32),
    /// A label definition (the `u32` is a function-unique label id).
    Label(u32),
    /// An unnamed scope `{ ... }` (the paper's bug 104891 involves these).
    Block(Vec<Stmt>),
    /// An empty statement used by the reducer to replace removed statements
    /// without perturbing later line numbering decisions.
    Empty,
}

/// The callee of a statement-level call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the program.
    Internal(FunctionId),
    /// The opaque external sink function (the paper's `printf` stub): the
    /// optimizer knows nothing about it and must materialize all arguments.
    Opaque,
}

impl Stmt {
    /// Build a declaration statement.
    pub fn decl(local: LocalId, init: Option<Expr>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Decl { local, init },
        }
    }

    /// Build an assignment statement.
    pub fn assign(target: LValue, value: Expr) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Assign { target, value },
        }
    }

    /// Build a `for` loop statement.
    pub fn for_loop(
        init: Option<Stmt>,
        cond: Option<Expr>,
        step: Option<Stmt>,
        body: Vec<Stmt>,
    ) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::For {
                init: init.map(Box::new),
                cond,
                step: step.map(Box::new),
                body,
            },
        }
    }

    /// Build an `if` statement.
    pub fn if_stmt(cond: Expr, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        }
    }

    /// Build a statement-level call to an internal function.
    pub fn call_internal(callee: FunctionId, args: Vec<Expr>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Call {
                callee: Callee::Internal(callee),
                args,
            },
        }
    }

    /// Build a statement-level call to the opaque external sink.
    pub fn call_opaque(args: Vec<Expr>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Call {
                callee: Callee::Opaque,
                args,
            },
        }
    }

    /// Build a `return` statement.
    pub fn ret(value: Option<Expr>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Return(value),
        }
    }

    /// Build an unnamed scope.
    pub fn block(body: Vec<Stmt>) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Block(body),
        }
    }

    /// Build a label definition.
    pub fn label(id: u32) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Label(id),
        }
    }

    /// Build a `goto`.
    pub fn goto(id: u32) -> Stmt {
        Stmt {
            line: 0,
            kind: StmtKind::Goto(id),
        }
    }

    /// Number of statements in this subtree (used for reduction budgeting).
    pub fn size(&self) -> usize {
        1 + match &self.kind {
            StmtKind::For {
                init, step, body, ..
            } => {
                init.as_ref().map_or(0, |s| s.size())
                    + step.as_ref().map_or(0, |s| s.size())
                    + body.iter().map(Stmt::size).sum::<usize>()
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.iter().map(Stmt::size).sum::<usize>()
                    + else_branch.iter().map(Stmt::size).sum::<usize>()
            }
            StmtKind::Block(body) => body.iter().map(Stmt::size).sum::<usize>(),
            _ => 0,
        }
    }
}

/// A local variable or parameter of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalVar {
    /// Source-level name.
    pub name: String,
    /// Type.
    pub ty: Ty,
    /// Whether this local is a formal parameter.
    pub is_param: bool,
    /// Whether the local's address is taken anywhere in the function.
    pub address_taken: bool,
}

/// A global variable of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalVar {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Array dimensions; empty for scalars.
    pub dims: Vec<usize>,
    /// Whether the global is declared `volatile` (optimizers must preserve
    /// every access).
    pub is_volatile: bool,
    /// Flattened initializer values (row-major); length is the product of the
    /// dimensions, or 1 for scalars.
    pub init: Vec<i64>,
}

impl GlobalVar {
    /// Total number of scalar elements.
    pub fn element_count(&self) -> usize {
        if self.dims.is_empty() {
            1
        } else {
            self.dims.iter().product()
        }
    }

    /// Whether this global is an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source-level name (`main`, `f1`, ...).
    pub name: String,
    /// Return type.
    pub ret_ty: Ty,
    /// All locals; the first [`Function::param_count`] entries are parameters.
    pub locals: Vec<LocalVar>,
    /// Number of formal parameters.
    pub param_count: usize,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Source line of the opening `{` (assigned with the rest of the lines).
    pub decl_line: u32,
}

impl Function {
    /// Iterator over parameter ids.
    pub fn params(&self) -> impl Iterator<Item = LocalId> + '_ {
        (0..self.param_count).map(LocalId)
    }

    /// Look up a local by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this function.
    pub fn local(&self, id: LocalId) -> &LocalVar {
        &self.locals[id.0]
    }

    /// Total number of statements in the body (recursively).
    pub fn stmt_count(&self) -> usize {
        self.body.iter().map(Stmt::size).sum()
    }
}

/// A complete MiniC program: globals plus functions, `main` last by
/// convention of the generator but located by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Look up a global by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn global(&self, id: GlobalId) -> &GlobalVar {
        &self.globals[id.0]
    }

    /// Look up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.0]
    }

    /// Find the `main` function.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main` (the builder and generator always
    /// produce one).
    pub fn main(&self) -> FunctionId {
        self.functions
            .iter()
            .position(|f| f.name == "main")
            .map(FunctionId)
            .expect("program has no main function")
    }

    /// Iterate over `(id, function)` pairs.
    pub fn functions_with_ids(&self) -> impl Iterator<Item = (FunctionId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FunctionId(i), f))
    }

    /// Total number of statements across all functions.
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(Function::stmt_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_wrap_signed_and_unsigned() {
        assert_eq!(Ty::I8.wrap(130), -126);
        assert_eq!(Ty::U8.wrap(130), 130);
        assert_eq!(Ty::U8.wrap(256), 0);
        assert_eq!(Ty::I16.wrap(65535), -1);
        assert_eq!(Ty::U16.wrap(65535), 65535);
        assert_eq!(Ty::I32.wrap(1 << 40), 0);
        assert_eq!(Ty::I64.wrap(i64::MIN), i64::MIN);
    }

    #[test]
    fn ty_wrap_is_idempotent() {
        for ty in Ty::SCALARS {
            for v in [-1, 0, 1, 127, 128, -129, 65536, i64::MAX, i64::MIN] {
                assert_eq!(ty.wrap(ty.wrap(v)), ty.wrap(v), "{ty:?} {v}");
            }
        }
    }

    #[test]
    fn binop_eval_basic() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn unop_eval_basic() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), -1);
        assert_eq!(UnOp::LogicalNot.eval(0), 1);
        assert_eq!(UnOp::LogicalNot.eval(3), 0);
    }

    #[test]
    fn expr_reads_collects_in_order() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::local(LocalId(0)),
            Expr::index(VarRef::Global(GlobalId(1)), vec![Expr::local(LocalId(2))]),
        );
        assert_eq!(
            e.reads(),
            vec![
                VarRef::Local(LocalId(0)),
                VarRef::Global(GlobalId(1)),
                VarRef::Local(LocalId(2))
            ]
        );
    }

    #[test]
    fn expr_size_counts_nodes() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::lit(1),
            Expr::unary(UnOp::Neg, Expr::lit(2)),
        );
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn lvalue_global_storage_classification() {
        assert!(LValue::global(GlobalId(0)).writes_global_storage());
        assert!(!LValue::local(LocalId(0)).writes_global_storage());
        assert!(LValue::Deref(VarRef::Local(LocalId(0))).writes_global_storage());
        assert!(LValue::Index {
            base: VarRef::Global(GlobalId(0)),
            indices: vec![Expr::lit(0)]
        }
        .writes_global_storage());
    }

    #[test]
    fn stmt_size_recurses() {
        let s = Stmt::for_loop(
            Some(Stmt::assign(LValue::local(LocalId(0)), Expr::lit(0))),
            Some(Expr::lit(1)),
            Some(Stmt::assign(LValue::local(LocalId(0)), Expr::lit(1))),
            vec![Stmt::call_opaque(vec![]), Stmt::ret(None)],
        );
        assert_eq!(s.size(), 5);
    }

    #[test]
    fn global_var_element_count() {
        let g = GlobalVar {
            name: "a".into(),
            ty: Ty::I32,
            dims: vec![2, 3, 4],
            is_volatile: false,
            init: vec![0; 24],
        };
        assert_eq!(g.element_count(), 24);
        assert!(g.is_array());
    }
}
