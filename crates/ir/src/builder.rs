//! Programmatic construction of [`Program`]s.

use std::sync::Arc;

use crate::error::ValidationError;
use crate::ids::{CallSiteId, ProcId, VarId};
use crate::program::{CallSite, Procedure, Program, VarInfo, VarKind};
use crate::stmt::{Actual, Expr, Ref, Stmt, Subscript};
use crate::symbol::Interner;

/// Incrementally builds a [`Program`].
///
/// The builder is *non-consuming*: [`ProgramBuilder::finish`] validates and
/// returns a snapshot, leaving the builder usable (handy in tests that
/// extend a base program). A fresh builder already contains the main
/// program as procedure [`ProcId::MAIN`].
///
/// # Examples
///
/// ```
/// use modref_ir::{Expr, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let p = b.proc_("p", &["x"]);
/// b.assign(p, b.formal(p, 0), Expr::constant(1));
/// let main = b.main();
/// b.call(main, p, &[g]);
/// let program = b.finish()?;
/// assert_eq!(program.num_procs(), 2);
/// assert_eq!(program.num_sites(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    symbols: Interner,
    vars: Vec<VarInfo>,
    procs: Vec<Procedure>,
    sites: Vec<CallSite>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// A builder holding only an empty main program.
    pub fn new() -> Self {
        let mut symbols = Interner::new();
        let main_name = symbols.intern("main");
        ProgramBuilder {
            symbols,
            vars: Vec::new(),
            procs: vec![Procedure {
                name: main_name,
                formals: Vec::new(),
                locals: Vec::new(),
                parent: None,
                level: 0,
                children: Vec::new(),
                body: Vec::new(),
            }],
            sites: Vec::new(),
        }
    }

    /// The main program's id.
    pub fn main(&self) -> ProcId {
        ProcId::MAIN
    }

    /// Declares a global scalar.
    pub fn global(&mut self, name: &str) -> VarId {
        self.add_var(name, None, VarKind::Global, 0)
    }

    /// Declares a global array of the given rank.
    pub fn global_array(&mut self, name: &str, rank: usize) -> VarId {
        self.add_var(name, None, VarKind::Global, rank)
    }

    /// Declares a top-level procedure (a child of main) with scalar
    /// reference formals named by `formals`.
    pub fn proc_(&mut self, name: &str, formals: &[&str]) -> ProcId {
        self.nested_proc(ProcId::MAIN, name, formals)
    }

    /// Declares a procedure nested inside `parent`, with scalar reference
    /// formals.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn nested_proc(&mut self, parent: ProcId, name: &str, formals: &[&str]) -> ProcId {
        let ranked: Vec<(&str, usize)> = formals.iter().map(|&f| (f, 0)).collect();
        self.nested_proc_ranked(parent, name, &ranked)
    }

    /// Declares a procedure whose formals may be arrays:
    /// `(name, rank)` pairs, rank `0` meaning scalar.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn nested_proc_ranked(
        &mut self,
        parent: ProcId,
        name: &str,
        formals: &[(&str, usize)],
    ) -> ProcId {
        let level = self.procs[parent.index()].level + 1;
        let name_sym = self.symbols.intern(name);
        let p = ProcId::new(self.procs.len());
        self.procs.push(Procedure {
            name: name_sym,
            formals: Vec::new(),
            locals: Vec::new(),
            parent: Some(parent),
            level,
            children: Vec::new(),
            body: Vec::new(),
        });
        self.procs[parent.index()].children.push(p);
        for (pos, &(fname, rank)) in formals.iter().enumerate() {
            let v = self.add_var(fname, Some(p), VarKind::Formal { position: pos }, rank);
            self.procs[p.index()].formals.push(v);
        }
        p
    }

    /// Declares a local scalar in `p`.
    pub fn local(&mut self, p: ProcId, name: &str) -> VarId {
        let v = self.add_var(name, Some(p), VarKind::Local, 0);
        self.procs[p.index()].locals.push(v);
        v
    }

    /// Declares a local array of the given rank in `p`.
    pub fn local_array(&mut self, p: ProcId, name: &str, rank: usize) -> VarId {
        let v = self.add_var(name, Some(p), VarKind::Local, rank);
        self.procs[p.index()].locals.push(v);
        v
    }

    /// The `position`-th formal of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `position` is out of range.
    pub fn formal(&self, p: ProcId, position: usize) -> VarId {
        self.procs[p.index()].formals[position]
    }

    /// The locals declared so far in `p`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn locals_of(&self, p: ProcId) -> &[VarId] {
        &self.procs[p.index()].locals
    }

    /// The formals of `p`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn formals_of(&self, p: ProcId) -> &[VarId] {
        &self.procs[p.index()].formals
    }

    /// The lexical parent of `p` (`None` for main).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn parent_of(&self, p: ProcId) -> Option<ProcId> {
        self.procs[p.index()].parent
    }

    /// The procedures declared directly inside `p`, so far.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn children_of(&self, p: ProcId) -> &[ProcId] {
        &self.procs[p.index()].children
    }

    /// The nesting level of `p` (0 for main).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn level_of(&self, p: ProcId) -> u32 {
        self.procs[p.index()].level
    }

    /// The array rank of variable `v` (0 for scalars).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn rank_of(&self, v: VarId) -> usize {
        self.vars[v.index()].rank
    }

    /// Appends an arbitrary statement to `p`'s body.
    pub fn stmt(&mut self, p: ProcId, stmt: Stmt) {
        self.procs[p.index()].body.push(stmt);
    }

    /// Appends `target := value`.
    pub fn assign(&mut self, p: ProcId, target: VarId, value: Expr) {
        self.stmt(
            p,
            Stmt::Assign {
                target: Ref::scalar(target),
                value,
            },
        );
    }

    /// Appends `target[subs] := value`.
    pub fn assign_indexed(&mut self, p: ProcId, target: VarId, subs: Vec<Subscript>, value: Expr) {
        self.stmt(
            p,
            Stmt::Assign {
                target: Ref::indexed(target, subs),
                value,
            },
        );
    }

    /// Appends `read target`.
    pub fn read(&mut self, p: ProcId, target: VarId) {
        self.stmt(
            p,
            Stmt::Read {
                target: Ref::scalar(target),
            },
        );
    }

    /// Appends `print value`.
    pub fn print(&mut self, p: ProcId, value: Expr) {
        self.stmt(p, Stmt::Print { value });
    }

    /// Registers a call site and appends its `call` statement to `caller`'s
    /// body. All `args` are passed by reference as scalars.
    pub fn call(&mut self, caller: ProcId, callee: ProcId, args: &[VarId]) -> CallSiteId {
        let actuals = args.iter().map(|&v| Actual::Ref(Ref::scalar(v))).collect();
        self.call_args(caller, callee, actuals)
    }

    /// Registers a call site with explicit actuals and appends its `call`
    /// statement.
    pub fn call_args(&mut self, caller: ProcId, callee: ProcId, args: Vec<Actual>) -> CallSiteId {
        let stmt = self.call_stmt(caller, callee, args);
        self.stmt(caller, stmt);
        self.last_site()
    }

    /// Registers a call site and returns its `call` statement *without*
    /// appending it — for placing calls inside `if`/`while` bodies via
    /// [`ProgramBuilder::stmt`].
    ///
    /// The returned statement must end up (exactly once) in `caller`'s
    /// body, or [`ProgramBuilder::finish`] will reject the program.
    pub fn call_stmt(&mut self, caller: ProcId, callee: ProcId, args: Vec<Actual>) -> Stmt {
        let site = CallSiteId::new(self.sites.len());
        self.sites.push(CallSite {
            caller,
            callee,
            args: args.into(),
        });
        Stmt::Call { site }
    }

    /// The id of the most recently registered call site.
    ///
    /// # Panics
    ///
    /// Panics if no site has been registered.
    pub fn last_site(&self) -> CallSiteId {
        assert!(!self.sites.is_empty(), "no call sites registered yet");
        CallSiteId::new(self.sites.len() - 1)
    }

    /// Validates and returns the finished program. The builder remains
    /// usable afterwards.
    ///
    /// # Errors
    ///
    /// Any [`ValidationError`] detected by [`Program::validate`].
    pub fn finish(&self) -> Result<Program, ValidationError> {
        let program = Program {
            symbols: Arc::new(self.symbols.clone()),
            vars: Arc::new(self.vars.clone()),
            procs: self.procs.iter().cloned().map(Arc::new).collect(),
            sites: self.sites.clone(),
        };
        program.validate()?;
        Ok(program)
    }

    fn add_var(&mut self, name: &str, owner: Option<ProcId>, kind: VarKind, rank: usize) -> VarId {
        let sym = self.symbols.intern(name);
        let v = VarId::new(self.vars.len());
        self.vars.push(VarInfo {
            name: sym,
            owner,
            kind,
            rank,
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::BinOp;

    #[test]
    fn builder_is_reusable_after_finish() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let first = b.finish().expect("valid");
        assert_eq!(first.num_vars(), 1);
        let p = b.proc_("p", &[]);
        b.assign(p, g, Expr::constant(0));
        let second = b.finish().expect("valid");
        assert_eq!(second.num_procs(), 2);
        // The first snapshot is unaffected.
        assert_eq!(first.num_procs(), 1);
    }

    #[test]
    fn call_stmt_inside_control_flow() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(2));
        let main = b.main();
        let call = b.call_stmt(main, p, vec![Actual::Ref(Ref::scalar(g))]);
        b.stmt(
            main,
            Stmt::If {
                cond: Expr::binary(BinOp::Lt, Expr::load(g), Expr::constant(10)),
                then_branch: vec![call],
                else_branch: vec![],
            },
        );
        let program = b.finish().expect("valid");
        assert_eq!(program.num_sites(), 1);
    }

    #[test]
    fn dangling_call_stmt_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        // Registered but never placed in a body.
        let _ = b.call_stmt(p, p, vec![]);
        assert!(matches!(
            b.finish(),
            Err(ValidationError::SiteStatementCount { count: 0, .. })
        ));
    }

    #[test]
    fn duplicated_call_stmt_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let call = b.call_stmt(p, p, vec![]);
        b.stmt(p, call.clone());
        b.stmt(p, call);
        assert!(matches!(
            b.finish(),
            Err(ValidationError::SiteStatementCount { count: 2, .. })
        ));
    }

    #[test]
    fn site_in_wrong_procedure_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        let call = b.call_stmt(p, q, vec![]);
        b.stmt(q, call); // placed in q, recorded for p
        assert!(matches!(
            b.finish(),
            Err(ValidationError::SiteCallerMismatch { .. })
        ));
    }
}
