//! Source rendering and line assignment.
//!
//! The paper's methodology is entirely phrased in terms of *source lines*: a
//! debugger "steps on a line", a variable is "visible/available at a line".
//! [`Program::assign_lines`] walks the program exactly like the renderer
//! does, assigns a 1-based line to every statement, and returns a
//! [`SourceMap`] with the rendered text plus lookup tables used by the
//! compiler (line table emission) and the conjecture checkers.
//!
//! The renderer reads the program in place and writes every line straight
//! into the output text: no per-expression strings, no joins.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::ast::{
    Callee, Expr, ExprKind, Function, FunctionId, LValue, Program, Stmt, StmtKind, VarRef,
};

/// Rendered source text plus per-line information.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// The rendered C-like source text.
    pub text: String,
    /// For every line that holds an executable statement: the owning function.
    pub line_function: BTreeMap<u32, FunctionId>,
    /// Lines holding executable statements, per function, in ascending order.
    pub function_lines: BTreeMap<FunctionId, Vec<u32>>,
    /// Total number of lines in the rendered text.
    pub line_count: u32,
}

impl SourceMap {
    /// Lines with executable statements in the given function.
    pub fn lines_of(&self, func: FunctionId) -> &[u32] {
        self.function_lines
            .get(&func)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The function owning a statement line, if any.
    pub fn function_of_line(&self, line: u32) -> Option<FunctionId> {
        self.line_function.get(&line).copied()
    }
}

/// One rendering in progress: the text so far and the lines it assigned.
struct Renderer<'p> {
    program: &'p Program,
    out: String,
    /// The last line ended.
    line: u32,
    /// Every assigned line in walk order: per function, its declaration
    /// line, then one line per statement.
    assigned: Vec<u32>,
    /// Each statement line with its function, ascending.
    stmt_lines: Vec<(u32, FunctionId)>,
    current_function: FunctionId,
}

impl Program {
    /// Assign a source line to every statement and return the rendered
    /// source. Rendering is deterministic: the same program always produces
    /// the same text and line numbers.
    pub fn assign_lines(&mut self) -> SourceMap {
        let (map, assigned) = Renderer::render(self);
        let mut lines = assigned.into_iter();
        for func in &mut self.functions {
            func.decl_line = lines.next().unwrap_or(0);
            assign_stmts(&mut func.body, &mut lines);
        }
        map
    }

    /// Render the program to text without mutating line numbers. Mostly
    /// useful for displaying reduced test cases in reports.
    pub fn render(&self) -> String {
        Renderer::render(self).0.text
    }
}

/// Walk statements in the same order as the renderer, popping one line per
/// statement from `lines`.
fn assign_stmts(stmts: &mut [Stmt], lines: &mut impl Iterator<Item = u32>) {
    for stmt in stmts {
        stmt.line = lines.next().unwrap_or(0);
        match &mut stmt.kind {
            StmtKind::For {
                init, step, body, ..
            } => {
                // init/cond/step share the `for` line.
                if let Some(s) = init {
                    s.line = stmt.line;
                }
                if let Some(s) = step {
                    s.line = stmt.line;
                }
                assign_stmts(body, lines);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                assign_stmts(then_branch, lines);
                assign_stmts(else_branch, lines);
            }
            StmtKind::Block(body) => assign_stmts(body, lines),
            _ => {}
        }
    }
}

impl<'p> Renderer<'p> {
    /// Render `program`: its source map, and the lines to assign in walk
    /// order (see [`Renderer::assigned`]).
    fn render(program: &'p Program) -> (SourceMap, Vec<u32>) {
        let mut renderer = Renderer {
            program,
            out: String::with_capacity(4096),
            line: 0,
            assigned: Vec::with_capacity(256),
            stmt_lines: Vec::with_capacity(256),
            current_function: FunctionId(0),
        };
        renderer.render_globals();
        for (id, func) in program.functions_with_ids() {
            renderer.current_function = id;
            renderer.render_function(func);
        }
        let mut function_lines: BTreeMap<FunctionId, Vec<u32>> = BTreeMap::new();
        for &(line, function) in &renderer.stmt_lines {
            function_lines.entry(function).or_default().push(line);
        }
        let map = SourceMap {
            line_function: renderer.stmt_lines.into_iter().collect(),
            function_lines,
            text: renderer.out,
            line_count: renderer.line,
        };
        (map, renderer.assigned)
    }

    /// End the line being written; returns its number.
    fn end_line(&mut self) -> u32 {
        self.out.push('\n');
        self.line += 1;
        self.line
    }

    /// End a statement's own line, recording it for the statement and its
    /// function.
    fn end_stmt_line(&mut self) {
        let line = self.end_line();
        self.assigned.push(line);
        self.stmt_lines.push((line, self.current_function));
    }

    fn pad(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Write a number; writing into a `String` cannot fail.
    fn number(&mut self, value: impl std::fmt::Display) {
        let _ = write!(self.out, "{value}");
    }

    fn render_globals(&mut self) {
        for global in &self.program.globals {
            if global.is_volatile {
                self.out.push_str("volatile ");
            }
            self.out.push_str(global.ty.c_name());
            self.out.push(' ');
            self.out.push_str(&global.name);
            if global.dims.is_empty() {
                self.out.push_str(" = ");
                self.number(global.init[0]);
            } else {
                for dim in &global.dims {
                    self.out.push('[');
                    self.number(dim);
                    self.out.push(']');
                }
                self.out.push_str(" = {");
                for (i, value) in global.init.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.number(value);
                }
                self.out.push('}');
            }
            self.out.push(';');
            self.end_line();
        }
        self.out.push_str("extern void sink(long, ...);");
        self.end_line();
    }

    fn render_function(&mut self, func: &'p Function) {
        self.out.push_str(func.ret_ty.c_name());
        self.out.push(' ');
        self.out.push_str(&func.name);
        self.out.push('(');
        if func.param_count == 0 {
            self.out.push_str("void");
        }
        for (i, param) in func.params().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let local = func.local(param);
            self.out.push_str(local.ty.c_name());
            self.out.push(' ');
            self.out.push_str(&local.name);
        }
        self.out.push_str(") {");
        let decl_line = self.end_line();
        self.assigned.push(decl_line);
        self.render_stmts(func, &func.body, 1);
        self.out.push('}');
        self.end_line();
    }

    fn render_stmts(&mut self, func: &'p Function, stmts: &'p [Stmt], depth: usize) {
        for stmt in stmts {
            self.render_stmt(func, stmt, depth);
        }
    }

    /// A closing brace on a line of its own.
    fn close(&mut self, depth: usize) {
        self.pad(depth);
        self.out.push('}');
        self.end_line();
    }

    fn render_stmt(&mut self, func: &'p Function, stmt: &'p Stmt, depth: usize) {
        self.pad(depth);
        match &stmt.kind {
            StmtKind::Decl { local, init } => {
                let var = func.local(*local);
                self.out.push_str(var.ty.c_name());
                self.out.push(' ');
                self.out.push_str(&var.name);
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(func, e);
                }
                self.out.push(';');
                self.end_stmt_line();
            }
            StmtKind::Assign { target, value } => {
                self.lvalue(func, target);
                self.out.push_str(" = ");
                self.expr(func, value);
                self.out.push(';');
                self.end_stmt_line();
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.out.push_str("for (");
                if let Some(s) = init {
                    self.inline_assign(func, s);
                }
                self.out.push_str("; ");
                if let Some(e) = cond {
                    self.expr(func, e);
                }
                self.out.push_str("; ");
                if let Some(s) = step {
                    self.inline_assign(func, s);
                }
                self.out.push_str(") {");
                self.end_stmt_line();
                self.render_stmts(func, body, depth + 1);
                self.close(depth);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.out.push_str("if (");
                self.expr(func, cond);
                self.out.push_str(") {");
                self.end_stmt_line();
                self.render_stmts(func, then_branch, depth + 1);
                if !else_branch.is_empty() {
                    self.pad(depth);
                    self.out.push_str("} else {");
                    self.end_line();
                    self.render_stmts(func, else_branch, depth + 1);
                }
                self.close(depth);
            }
            StmtKind::Call { callee, args } => {
                let name = match callee {
                    Callee::Internal(f) => self.program.function(*f).name.as_str(),
                    Callee::Opaque => "sink",
                };
                self.out.push_str(name);
                self.args(func, args);
                self.out.push(';');
                self.end_stmt_line();
            }
            StmtKind::Return(value) => {
                self.out.push_str("return");
                if let Some(e) = value {
                    self.out.push(' ');
                    self.expr(func, e);
                }
                self.out.push(';');
                self.end_stmt_line();
            }
            StmtKind::Goto(label) => {
                self.out.push_str("goto L");
                self.number(label);
                self.out.push(';');
                self.end_stmt_line();
            }
            StmtKind::Label(label) => {
                self.out.push('L');
                self.number(label);
                self.out.push_str(":;");
                self.end_stmt_line();
            }
            StmtKind::Block(body) => {
                self.out.push('{');
                self.end_stmt_line();
                self.render_stmts(func, body, depth + 1);
                self.close(depth);
            }
            StmtKind::Empty => {
                self.out.push(';');
                self.end_stmt_line();
            }
        }
    }

    /// A `for` header's init or step.
    fn inline_assign(&mut self, func: &'p Function, stmt: &'p Stmt) {
        match &stmt.kind {
            StmtKind::Assign { target, value } => {
                self.lvalue(func, target);
                self.out.push_str(" = ");
                self.expr(func, value);
            }
            StmtKind::Decl { local, init } => {
                self.out.push_str(&func.local(*local).name);
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(func, e);
                }
            }
            _ => {}
        }
    }

    fn var_name(&mut self, func: &'p Function, var: VarRef) {
        let name = match var {
            VarRef::Global(g) => &self.program.global(g).name,
            VarRef::Local(l) => &func.local(l).name,
        };
        self.out.push_str(name);
    }

    /// `[i][j]...` after an indexed variable's name.
    fn indices(&mut self, func: &'p Function, indices: &'p [Expr]) {
        for index in indices {
            self.out.push('[');
            self.expr(func, index);
            self.out.push(']');
        }
    }

    /// `(a, b, ...)` of a call.
    fn args(&mut self, func: &'p Function, args: &'p [Expr]) {
        self.out.push('(');
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(func, arg);
        }
        self.out.push(')');
    }

    fn lvalue(&mut self, func: &'p Function, lv: &'p LValue) {
        match lv {
            LValue::Var(v) => self.var_name(func, *v),
            LValue::Index { base, indices } => {
                self.var_name(func, *base);
                self.indices(func, indices);
            }
            LValue::Deref(v) => {
                self.out.push('*');
                self.var_name(func, *v);
            }
        }
    }

    fn expr(&mut self, func: &'p Function, expr: &'p Expr) {
        match &expr.kind {
            ExprKind::Lit(v) => self.number(v),
            ExprKind::Var(v) => self.var_name(func, *v),
            ExprKind::Index { base, indices } => {
                self.var_name(func, *base);
                self.indices(func, indices);
            }
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.symbol());
                self.out.push('(');
                self.expr(func, inner);
                self.out.push(')');
            }
            ExprKind::Binary(op, lhs, rhs) => {
                self.out.push('(');
                self.expr(func, lhs);
                self.out.push(' ');
                self.out.push_str(op.symbol());
                self.out.push(' ');
                self.expr(func, rhs);
                self.out.push(')');
            }
            ExprKind::AddrOf(v) => {
                self.out.push('&');
                self.var_name(func, *v);
            }
            ExprKind::Deref(inner) => {
                self.out.push_str("*(");
                self.expr(func, inner);
                self.out.push(')');
            }
            ExprKind::Call { callee, args } => {
                self.out.push_str(&self.program.function(*callee).name);
                self.args(func, args);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, GlobalId, LocalId, Ty};
    use crate::build::ProgramBuilder;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let arr = b.global_array("a", Ty::I32, false, vec![2, 2], vec![1, 2, 3, 4]);
        let main = b.function("main", Ty::I32);
        let i = b.local(main, "i", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(5))));
        b.push(
            main,
            Stmt::for_loop(
                Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
                Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::lit(2))),
                Some(Stmt::assign(
                    LValue::local(i),
                    Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
                )),
                vec![Stmt::assign(
                    LValue::global(g),
                    Expr::index(
                        crate::ast::VarRef::Global(arr),
                        vec![Expr::local(i), Expr::lit(1)],
                    ),
                )],
            ),
        );
        b.push(main, Stmt::call_opaque(vec![Expr::local(x)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        b.finish()
    }

    #[test]
    fn lines_are_assigned_sequentially_and_unique() {
        let mut p = sample_program();
        let map = p.assign_lines();
        let main = p.main();
        let lines = map.lines_of(main);
        assert!(!lines.is_empty());
        let mut sorted = lines.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len(), "statement lines must be unique");
        // Every statement in the body received a nonzero line.
        fn check(stmts: &[Stmt]) {
            for s in stmts {
                assert_ne!(s.line, 0, "statement has no line: {s:?}");
                match &s.kind {
                    StmtKind::For { body, .. } => check(body),
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        check(then_branch);
                        check(else_branch);
                    }
                    StmtKind::Block(b) => check(b),
                    _ => {}
                }
            }
        }
        check(&p.functions[main.0].body);
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut p1 = sample_program();
        let mut p2 = sample_program();
        assert_eq!(p1.assign_lines().text, p2.assign_lines().text);
    }

    #[test]
    fn rendered_text_contains_constructs() {
        let mut p = sample_program();
        let map = p.assign_lines();
        assert!(map.text.contains("int g = 0;"));
        assert!(map.text.contains("int a[2][2] = {1, 2, 3, 4};"));
        assert!(map.text.contains("for ("));
        assert!(map.text.contains("sink(x);"));
        assert!(map.text.contains("extern void sink"));
    }

    #[test]
    fn for_init_and_step_share_the_for_line() {
        let mut p = sample_program();
        p.assign_lines();
        let main = p.main();
        let body = &p.functions[main.0].body;
        if let StmtKind::For { init, step, .. } = &body[1].kind {
            assert_eq!(init.as_ref().unwrap().line, body[1].line);
            assert_eq!(step.as_ref().unwrap().line, body[1].line);
        } else {
            panic!("expected for loop");
        }
    }

    #[test]
    fn line_function_map_points_to_main() {
        let mut p = sample_program();
        let map = p.assign_lines();
        let main = p.main();
        for &line in map.lines_of(main) {
            assert_eq!(map.function_of_line(line), Some(main));
        }
        assert_eq!(map.function_of_line(9999), None);
    }

    #[test]
    fn empty_and_goto_render() {
        let mut b = ProgramBuilder::new();
        let g = b.global("flag", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::label(1));
        b.push(
            main,
            Stmt::if_stmt(Expr::global(g), vec![Stmt::goto(1)], vec![]),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let map = p.assign_lines();
        assert!(map.text.contains("L1:;"));
        assert!(map.text.contains("goto L1;"));
        let _ = GlobalId(0);
        let _ = LocalId(0);
    }
}
