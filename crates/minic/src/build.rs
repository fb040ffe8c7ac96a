//! A small builder API for constructing MiniC programs by hand.
//!
//! The program generator ([`holes_progen`](https://docs.rs/holes-progen)) and
//! the directed test programs that mirror the paper's bug case studies are
//! both written against this builder.

use crate::ast::{
    Expr, Function, FunctionId, GlobalId, GlobalVar, LocalId, LocalVar, Program, Stmt, Ty,
};

/// Incrementally builds a [`Program`].
///
/// # Example
///
/// ```
/// use holes_minic::ast::{Expr, LValue, Stmt, Ty, VarRef};
/// use holes_minic::build::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g", Ty::I32, false, vec![1]);
/// let main = b.function("main", Ty::I32);
/// b.push(main, Stmt::assign(LValue::global(g), Expr::lit(42)));
/// b.push(main, Stmt::ret(Some(Expr::lit(0))));
/// let program = b.finish();
/// assert_eq!(program.globals.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Create an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Add a scalar or array global variable and return its id.
    ///
    /// For scalars pass the single initial value in `init`; for arrays call
    /// [`ProgramBuilder::global_array`].
    pub fn global(&mut self, name: &str, ty: Ty, volatile: bool, init: Vec<i64>) -> GlobalId {
        assert!(!init.is_empty(), "global initializer must not be empty");
        self.program.globals.push(GlobalVar {
            name: name.to_owned(),
            ty,
            dims: Vec::new(),
            is_volatile: volatile,
            init,
        });
        GlobalId(self.program.globals.len() - 1)
    }

    /// Add a (possibly multi-dimensional) global array and return its id.
    ///
    /// # Panics
    ///
    /// Panics if `init` does not have exactly `dims.iter().product()`
    /// elements.
    pub fn global_array(
        &mut self,
        name: &str,
        ty: Ty,
        volatile: bool,
        dims: Vec<usize>,
        init: Vec<i64>,
    ) -> GlobalId {
        let expected: usize = dims.iter().product();
        assert_eq!(
            init.len(),
            expected,
            "array initializer length must match dimensions"
        );
        self.program.globals.push(GlobalVar {
            name: name.to_owned(),
            ty,
            dims,
            is_volatile: volatile,
            init,
        });
        GlobalId(self.program.globals.len() - 1)
    }

    /// Add a new function with no parameters and return its id.
    pub fn function(&mut self, name: &str, ret_ty: Ty) -> FunctionId {
        self.program.functions.push(Function {
            name: name.to_owned(),
            ret_ty,
            locals: Vec::new(),
            param_count: 0,
            body: Vec::new(),
            decl_line: 0,
        });
        FunctionId(self.program.functions.len() - 1)
    }

    /// Add a formal parameter to a function. Must be called before any
    /// non-parameter local is added.
    ///
    /// # Panics
    ///
    /// Panics if a non-parameter local already exists for the function.
    pub fn param(&mut self, func: FunctionId, name: &str, ty: Ty) -> LocalId {
        let f = &mut self.program.functions[func.0];
        assert_eq!(
            f.locals.len(),
            f.param_count,
            "parameters must be declared before locals"
        );
        f.locals.push(LocalVar {
            name: name.to_owned(),
            ty,
            is_param: true,
            address_taken: false,
        });
        f.param_count += 1;
        LocalId(f.locals.len() - 1)
    }

    /// Add a local variable to a function and return its id.
    pub fn local(&mut self, func: FunctionId, name: &str, ty: Ty) -> LocalId {
        let f = &mut self.program.functions[func.0];
        f.locals.push(LocalVar {
            name: name.to_owned(),
            ty,
            is_param: false,
            address_taken: false,
        });
        LocalId(f.locals.len() - 1)
    }

    /// Append a statement to a function body.
    pub fn push(&mut self, func: FunctionId, stmt: Stmt) {
        self.program.functions[func.0].body.push(stmt);
    }

    /// Read-only access to the program built so far.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Finish building: computes the `address_taken` flags and returns the
    /// program. Line numbers are *not* assigned; call
    /// [`Program::assign_lines`] on the result.
    pub fn finish(mut self) -> Program {
        compute_address_taken(&mut self.program);
        self.program
    }
}

/// Recompute the `address_taken` flag of every local from the program body.
pub fn compute_address_taken(program: &mut Program) {
    for func in &mut program.functions {
        let mut taken = vec![false; func.locals.len()];
        for stmt in &func.body {
            mark_stmt(stmt, &mut taken);
        }
        for (local, flag) in func.locals.iter_mut().zip(taken) {
            local.address_taken = flag;
        }
    }
}

fn mark_stmt(stmt: &Stmt, taken: &mut [bool]) {
    use crate::ast::StmtKind::*;
    match &stmt.kind {
        Decl { init, .. } => {
            if let Some(e) = init {
                mark_expr(e, taken);
            }
        }
        Assign { target, value } => {
            for v in target.reads() {
                let _ = v;
            }
            if let crate::ast::LValue::Index { indices, .. } = target {
                for idx in indices {
                    mark_expr(idx, taken);
                }
            }
            mark_expr(value, taken);
        }
        For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                mark_stmt(s, taken);
            }
            if let Some(c) = cond {
                mark_expr(c, taken);
            }
            if let Some(s) = step {
                mark_stmt(s, taken);
            }
            for s in body {
                mark_stmt(s, taken);
            }
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            mark_expr(cond, taken);
            for s in then_branch.iter().chain(else_branch) {
                mark_stmt(s, taken);
            }
        }
        Call { args, .. } => {
            for a in args {
                mark_expr(a, taken);
            }
        }
        Return(Some(e)) => mark_expr(e, taken),
        Block(body) => {
            for s in body {
                mark_stmt(s, taken);
            }
        }
        Return(None) | Goto(_) | Label(_) | Empty => {}
    }
}

fn mark_expr(expr: &Expr, taken: &mut [bool]) {
    use crate::ast::ExprKind::*;
    match &expr.kind {
        AddrOf(crate::ast::VarRef::Local(l)) => taken[l.0] = true,
        AddrOf(_) | Lit(_) | Var(_) => {}
        Index { indices, .. } => {
            for idx in indices {
                mark_expr(idx, taken);
            }
        }
        Unary(_, inner) | Deref(inner) => mark_expr(inner, taken),
        Binary(_, lhs, rhs) => {
            mark_expr(lhs, taken);
            mark_expr(rhs, taken);
        }
        Call { args, .. } => {
            for a in args {
                mark_expr(a, taken);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LValue, VarRef};

    #[test]
    fn builder_constructs_program() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, true, vec![0]);
        let f = b.function("main", Ty::I32);
        let x = b.local(f, "x", Ty::I32);
        b.push(f, Stmt::decl(x, Some(Expr::lit(3))));
        b.push(f, Stmt::assign(LValue::global(g), Expr::local(x)));
        b.push(f, Stmt::ret(Some(Expr::lit(0))));
        let p = b.finish();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.function(FunctionId(0)).body.len(), 3);
        assert!(p.global(g).is_volatile);
    }

    #[test]
    fn address_taken_is_computed() {
        let mut b = ProgramBuilder::new();
        let f = b.function("main", Ty::I32);
        let x = b.local(f, "x", Ty::I32);
        let p = b.local(f, "p", Ty::Ptr(&Ty::I32));
        b.push(f, Stmt::decl(x, Some(Expr::lit(1))));
        b.push(f, Stmt::decl(p, Some(Expr::addr_of(VarRef::Local(x)))));
        b.push(f, Stmt::ret(None));
        let prog = b.finish();
        assert!(prog.functions[0].locals[x.0].address_taken);
        assert!(!prog.functions[0].locals[p.0].address_taken);
    }

    #[test]
    #[should_panic(expected = "array initializer length")]
    fn array_initializer_length_checked() {
        let mut b = ProgramBuilder::new();
        b.global_array("a", Ty::I32, false, vec![2, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "parameters must be declared before locals")]
    fn params_before_locals() {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", Ty::I32);
        b.local(f, "x", Ty::I32);
        b.param(f, "p", Ty::I32);
    }
}
