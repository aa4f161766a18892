//! The validated [`Program`] and its component tables.

use std::sync::Arc;

use modref_bitset::BitSet;

use crate::error::ValidationError;
use crate::ids::{CallSiteId, ProcId, VarId};
use crate::stmt::{Actual, Expr, Ref, Stmt, Subscript};
use crate::symbol::{Interner, Symbol};
use crate::visit::walk_stmts;

/// What role a variable plays in its scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Program-scope variable, visible in every procedure.
    Global,
    /// Declared in a procedure's `var` section.
    Local,
    /// A reference formal parameter, at the given zero-based position.
    Formal {
        /// Ordinal position in the owner's parameter list.
        position: usize,
    },
}

/// Everything known about one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    pub(crate) name: Symbol,
    pub(crate) owner: Option<ProcId>,
    pub(crate) kind: VarKind,
    pub(crate) rank: usize,
}

impl VarInfo {
    /// The variable's identifier.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The declaring procedure; `None` for globals.
    pub fn owner(&self) -> Option<ProcId> {
        self.owner
    }

    /// Global, local, or formal.
    pub fn kind(&self) -> VarKind {
        self.kind
    }

    /// Array rank; `0` for scalars.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `true` for program-scope globals.
    pub fn is_global(&self) -> bool {
        self.owner.is_none()
    }

    /// `true` for reference formal parameters.
    pub fn is_formal(&self) -> bool {
        matches!(self.kind, VarKind::Formal { .. })
    }
}

/// One procedure (the main program is procedure [`ProcId::MAIN`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure {
    pub(crate) name: Symbol,
    pub(crate) formals: Vec<VarId>,
    pub(crate) locals: Vec<VarId>,
    pub(crate) parent: Option<ProcId>,
    pub(crate) level: u32,
    pub(crate) children: Vec<ProcId>,
    pub(crate) body: Vec<Stmt>,
}

impl Procedure {
    /// The procedure's identifier.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// Reference formal parameters, in declaration order.
    pub fn formals(&self) -> &[VarId] {
        &self.formals
    }

    /// Locally declared variables (excluding formals).
    pub fn locals(&self) -> &[VarId] {
        &self.locals
    }

    /// The lexically enclosing procedure; `None` only for the main program.
    pub fn parent(&self) -> Option<ProcId> {
        self.parent
    }

    /// Lexical nesting depth: `0` for the main program, `1` for top-level
    /// procedures, and so on (the paper's `0..d_P` numbering, §4).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Procedures declared directly inside this one (`Nest(p)`, §3.3).
    pub fn children(&self) -> &[ProcId] {
        &self.children
    }

    /// The statement list.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// A copy of this procedure with `body` in place of its statements
    /// (the old body is not copied).
    pub(crate) fn with_body(&self, body: Vec<Stmt>) -> Procedure {
        Procedure {
            name: self.name,
            formals: self.formals.clone(),
            locals: self.locals.clone(),
            parent: self.parent,
            level: self.level,
            children: self.children.clone(),
            body,
        }
    }
}

/// One call site: a single textual `call` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub(crate) caller: ProcId,
    pub(crate) callee: ProcId,
    pub(crate) args: Arc<[Actual]>,
}

impl CallSite {
    /// The procedure containing the call statement.
    pub fn caller(&self) -> ProcId {
        self.caller
    }

    /// The invoked procedure.
    pub fn callee(&self) -> ProcId {
        self.callee
    }

    /// Actual arguments, one per callee formal.
    pub fn args(&self) -> &[Actual] {
        &self.args
    }
}

/// A complete, validated program.
///
/// Construct through [`crate::ProgramBuilder`] (or the MiniProc front end);
/// [`Program::validate`] has already accepted anything you can hold.
///
/// The variable table is program-wide: globals, locals, and formals of all
/// procedures share the dense [`VarId`] space, mirroring the paper's "bit
/// vectors for interprocedural analysis will be exceedingly long" universe.
///
/// The parts sit behind [`Arc`]s: every procedure, every site's actuals,
/// the variable table and the interner. Cloning a `Program` copies two
/// vectors of pointers, and [`Program::apply_edit`] returns a program that
/// shares every part the edit did not touch with its input, so an edit
/// costs what it changes rather than what the program holds. Both
/// programs stay immutable; nothing observes the sharing.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) symbols: Arc<Interner>,
    pub(crate) vars: Arc<Vec<VarInfo>>,
    pub(crate) procs: Vec<Arc<Procedure>>,
    pub(crate) sites: Vec<CallSite>,
}

impl Program {
    /// Number of procedures, `N` in the paper (including main).
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Number of call sites, `E` in the paper.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Size of the variable universe (globals + locals + formals).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The main program.
    pub fn main(&self) -> ProcId {
        ProcId::MAIN
    }

    /// Looks up a procedure.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc_(&self, p: ProcId) -> &Procedure {
        &self.procs[p.index()]
    }

    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Looks up a call site.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn site(&self, s: CallSiteId) -> &CallSite {
        &self.sites[s.index()]
    }

    /// Iterates over all procedure ids.
    pub fn procs(&self) -> impl ExactSizeIterator<Item = ProcId> {
        (0..self.procs.len()).map(ProcId::new)
    }

    /// Iterates over all variable ids.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = VarId> {
        (0..self.vars.len()).map(VarId::new)
    }

    /// Iterates over all call-site ids.
    pub fn sites(&self) -> impl ExactSizeIterator<Item = CallSiteId> {
        (0..self.sites.len()).map(CallSiteId::new)
    }

    /// The symbol interner (to resolve names for display).
    pub fn symbols(&self) -> &Interner {
        &self.symbols
    }

    /// The variable table itself, for caches of per-variable text. Edits
    /// that keep the variable universe share it, and the ones that change
    /// it (`add-proc` with formals, `remove-proc`) build a new one, so two
    /// programs whose tables are [`Arc::ptr_eq`] have the same variables
    /// with the same names (the interner only ever grows).
    pub fn var_table(&self) -> &Arc<Vec<VarInfo>> {
        &self.vars
    }

    /// The name of procedure `p` as text.
    pub fn proc_name(&self, p: ProcId) -> &str {
        self.symbols.resolve(self.procs[p.index()].name)
    }

    /// The name of variable `v` as text.
    pub fn var_name(&self, v: VarId) -> &str {
        self.symbols.resolve(self.vars[v.index()].name)
    }

    /// The declaration level of `v`: the level of its owning procedure, or
    /// `0` for globals (the paper's convention that level 0 is the main
    /// program's scope).
    pub fn var_level(&self, v: VarId) -> u32 {
        match self.vars[v.index()].owner {
            None => 0,
            Some(p) => self.procs[p.index()].level,
        }
    }

    /// The deepest procedure nesting level, `d_P` in §4.
    pub fn max_level(&self) -> u32 {
        self.procs.iter().map(|p| p.level).max().unwrap_or(0)
    }

    /// `LOCAL(p)`: the variables declared in `p` — its locals *and* its
    /// formals (the paper's `LOCAL` contains "the names of all variables
    /// declared in `p`", which for the deallocation argument of §2 must
    /// include the formals).
    pub fn local_set(&self, p: ProcId) -> BitSet {
        let proc_ = &self.procs[p.index()];
        let mut set = BitSet::new(self.vars.len());
        for &v in proc_.formals.iter().chain(&proc_.locals) {
            set.insert(v.index());
        }
        set
    }

    /// All `LOCAL(p)` sets at once, indexed by procedure id.
    pub fn local_sets(&self) -> Vec<BitSet> {
        self.procs().map(|p| self.local_set(p)).collect()
    }

    /// The set of program-scope globals.
    pub fn global_set(&self) -> BitSet {
        let mut set = BitSet::new(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            if v.is_global() {
                set.insert(i);
            }
        }
        set
    }

    /// Lexical ancestors of `p`, nearest first, excluding `p` itself.
    pub fn ancestors(&self, p: ProcId) -> Ancestors<'_> {
        Ancestors {
            program: self,
            next: self.procs[p.index()].parent,
        }
    }

    /// `true` if variable `v` is in scope inside procedure `p`: it is a
    /// global, or declared by `p` or one of `p`'s lexical ancestors.
    pub fn visible_in(&self, v: VarId, p: ProcId) -> bool {
        match self.vars[v.index()].owner {
            None => true,
            Some(owner) => owner == p || self.ancestors(p).any(|a| a == owner),
        }
    }

    /// Every variable visible in `p`: the globals plus everything declared
    /// by `p` or its lexical ancestors. This is the coarsest sound `MOD`
    /// bound for `p` — no statement reachable from `p` can touch a
    /// variable outside it — and the guarded pipeline's conservative
    /// fallback (see `docs/ROBUSTNESS.md`).
    pub fn visible_set(&self, p: ProcId) -> BitSet {
        let mut set = self.global_set();
        let mut owner = Some(p);
        while let Some(q) = owner {
            set.union_with(&self.local_set(q));
            owner = self.procs[q.index()].parent;
        }
        set
    }

    /// All visible sets at once, indexed by procedure id.
    pub fn visible_sets(&self) -> Vec<BitSet> {
        self.procs().map(|p| self.visible_set(p)).collect()
    }

    /// If `v` is a formal parameter, its `(owner, position)` pair.
    pub fn formal_position(&self, v: VarId) -> Option<(ProcId, usize)> {
        let info = &self.vars[v.index()];
        match info.kind {
            VarKind::Formal { position } => {
                Some((info.owner.expect("formals have owners"), position))
            }
            _ => None,
        }
    }

    /// Average number of formal parameters per procedure (`μ_f`, §3.1).
    pub fn mean_formals(&self) -> f64 {
        if self.procs.is_empty() {
            return 0.0;
        }
        let total: usize = self.procs.iter().map(|p| p.formals.len()).sum();
        total as f64 / self.procs.len() as f64
    }

    /// Average number of actual parameters per call site (`μ_a`, §3.1).
    pub fn mean_actuals(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let total: usize = self.sites.iter().map(|s| s.args.len()).sum();
        total as f64 / self.sites.len() as f64
    }

    /// Returns a copy of the program with every procedure's body replaced
    /// by `f(proc, old_body)` — the transformation hook optimizer passes
    /// use (e.g. dead-store elimination in `modref-opt`).
    ///
    /// # Errors
    ///
    /// The transformed program is re-validated; a transformation that
    /// breaks an invariant (say, dropping or duplicating a call
    /// statement) is rejected with the underlying [`ValidationError`].
    pub fn map_bodies(
        &self,
        mut f: impl FnMut(ProcId, &[Stmt]) -> Vec<Stmt>,
    ) -> Result<Program, ValidationError> {
        let mut out = self.clone();
        for (i, proc_) in out.procs.iter_mut().enumerate() {
            let body = f(ProcId::new(i), &self.procs[i].body);
            *proc_ = Arc::new(self.procs[i].with_body(body));
        }
        out.validate()?;
        Ok(out)
    }

    /// Checks every structural invariant; builders call this before handing
    /// a `Program` out.
    ///
    /// Runs in time linear in the program (times the nesting depth for
    /// scope lookups). Body and site edits re-run only the per-body and
    /// per-site checks this function runs, on what they touched.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling ids, ownership
    /// mismatches, arity mismatches, out-of-scope references, calls to an
    /// invisible procedure or to main, subscript/rank mismatches, or a
    /// malformed nesting tree.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let listed = self.listed_locals();
        for v in self.vars() {
            self.validate_var(v, listed[v.index()])?;
        }
        for p in self.procs() {
            self.validate_decls(p)?;
        }
        self.validate_main()?;
        let listed = self.listed_children();
        for p in self.procs() {
            self.validate_nest(p, listed[p.index()])?;
        }
        for p in self.procs() {
            self.validate_body(p)?;
        }
        self.validate_site_statements()?;
        for s in self.sites() {
            self.validate_site(s)?;
        }
        Ok(())
    }

    /// For every variable, whether its owner's `locals` list names it —
    /// one pass over all `locals` lists instead of a search per variable.
    fn listed_locals(&self) -> Vec<bool> {
        let mut listed = vec![false; self.vars.len()];
        for (i, proc_) in self.procs.iter().enumerate() {
            for &l in &proc_.locals {
                if self
                    .vars
                    .get(l.index())
                    .is_some_and(|info| info.owner == Some(ProcId::new(i)))
                {
                    listed[l.index()] = true;
                }
            }
        }
        listed
    }

    /// For every procedure, how many times its parent's `children` list
    /// names it — one pass over all `children` lists.
    fn listed_children(&self) -> Vec<usize> {
        let mut listed = vec![0usize; self.procs.len()];
        for (i, proc_) in self.procs.iter().enumerate() {
            for &c in &proc_.children {
                if self
                    .procs
                    .get(c.index())
                    .is_some_and(|cp| cp.parent == Some(ProcId::new(i)))
                {
                    listed[c.index()] += 1;
                }
            }
        }
        listed
    }

    /// One variable's ownership: globals are ownerless, locals are named
    /// in their owner's `locals` (`listed_local`), formals sit at their
    /// position in their owner's `formals`.
    fn validate_var(&self, v: VarId, listed_local: bool) -> Result<(), ValidationError> {
        let info = &self.vars[v.index()];
        match (info.owner, info.kind) {
            (None, VarKind::Global) => {}
            (None, _) => return Err(ValidationError::OwnerlessNonGlobal { var: v }),
            (Some(_), VarKind::Global) => return Err(ValidationError::OwnedGlobal { var: v }),
            (Some(p), VarKind::Local) => {
                self.procs
                    .get(p.index())
                    .ok_or(ValidationError::DanglingProc { proc_: p })?;
                if !listed_local {
                    return Err(ValidationError::OwnershipMismatch { var: v, proc_: p });
                }
            }
            (Some(p), VarKind::Formal { position }) => {
                let proc_ = self
                    .procs
                    .get(p.index())
                    .ok_or(ValidationError::DanglingProc { proc_: p })?;
                if proc_.formals.get(position) != Some(&v) {
                    return Err(ValidationError::OwnershipMismatch { var: v, proc_: p });
                }
            }
        }
        Ok(())
    }

    /// One procedure's declarations: every formal and local it lists is
    /// a variable it owns, of the right kind.
    fn validate_decls(&self, p: ProcId) -> Result<(), ValidationError> {
        let proc_ = &self.procs[p.index()];
        for (pos, &f) in proc_.formals.iter().enumerate() {
            let info = self
                .vars
                .get(f.index())
                .ok_or(ValidationError::DanglingVar { var: f })?;
            if info.owner != Some(p) || info.kind != (VarKind::Formal { position: pos }) {
                return Err(ValidationError::OwnershipMismatch { var: f, proc_: p });
            }
        }
        for &l in &proc_.locals {
            let info = self
                .vars
                .get(l.index())
                .ok_or(ValidationError::DanglingVar { var: l })?;
            if info.owner != Some(p) || info.kind != VarKind::Local {
                return Err(ValidationError::OwnershipMismatch { var: l, proc_: p });
            }
        }
        Ok(())
    }

    fn validate_main(&self) -> Result<(), ValidationError> {
        let main = self
            .procs
            .get(ProcId::MAIN.index())
            .ok_or(ValidationError::NoMain)?;
        if main.parent.is_some() || main.level != 0 {
            return Err(ValidationError::BadMain);
        }
        Ok(())
    }

    /// One procedure's place in the nesting tree: it has a parent unless
    /// it is main, sits one level below it, is named exactly once in the
    /// parent's `children` (`times_listed`), and each procedure it names
    /// as a child names it as parent.
    fn validate_nest(&self, p: ProcId, times_listed: usize) -> Result<(), ValidationError> {
        let proc_ = &self.procs[p.index()];
        match proc_.parent {
            None => {
                if p != ProcId::MAIN {
                    return Err(ValidationError::OrphanProc { proc_: p });
                }
            }
            Some(parent) => {
                let pp = self
                    .procs
                    .get(parent.index())
                    .ok_or(ValidationError::DanglingProc { proc_: parent })?;
                if proc_.level != pp.level + 1 || times_listed != 1 {
                    return Err(ValidationError::BadLevel { proc_: p });
                }
            }
        }
        for &c in &proc_.children {
            let cp = self
                .procs
                .get(c.index())
                .ok_or(ValidationError::DanglingProc { proc_: c })?;
            if cp.parent != Some(p) {
                return Err(ValidationError::BadLevel { proc_: c });
            }
        }
        Ok(())
    }

    pub(crate) fn validate_ref(&self, p: ProcId, r: &Ref) -> Result<(), ValidationError> {
        let info = self
            .vars
            .get(r.var.index())
            .ok_or(ValidationError::DanglingVar { var: r.var })?;
        if !self.visible_in(r.var, p) {
            return Err(ValidationError::OutOfScope {
                var: r.var,
                proc_: p,
            });
        }
        if !r.subs.is_empty() && r.subs.len() != info.rank {
            return Err(ValidationError::RankMismatch {
                var: r.var,
                expected: info.rank,
                found: r.subs.len(),
            });
        }
        for sub in &r.subs {
            if let Subscript::Var(sv) = sub {
                if !self.visible_in(*sv, p) {
                    return Err(ValidationError::OutOfScope { var: *sv, proc_: p });
                }
            }
        }
        Ok(())
    }

    pub(crate) fn validate_expr(&self, p: ProcId, e: &Expr) -> Result<(), ValidationError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Load(r) => self.validate_ref(p, r),
            Expr::Unary(_, inner) => self.validate_expr(p, inner),
            Expr::Binary(_, l, r) => {
                self.validate_expr(p, l)?;
                self.validate_expr(p, r)
            }
        }
    }

    /// One procedure's body: every reference is in scope with a matching
    /// rank, and every call statement names an existing site of this
    /// caller.
    pub(crate) fn validate_body(&self, p: ProcId) -> Result<(), ValidationError> {
        let mut result = Ok(());
        walk_stmts(&self.procs[p.index()].body, &mut |s| {
            if result.is_err() {
                return;
            }
            result = match s {
                Stmt::Assign { target, value } => self
                    .validate_ref(p, target)
                    .and_then(|()| self.validate_expr(p, value)),
                Stmt::Read { target } => self.validate_ref(p, target),
                Stmt::Print { value } => self.validate_expr(p, value),
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => self.validate_expr(p, cond),
                Stmt::Call { site } => {
                    let site_info = match self.sites.get(site.index()) {
                        Some(s) => s,
                        None => return result = Err(ValidationError::DanglingSite { site: *site }),
                    };
                    if site_info.caller != p {
                        Err(ValidationError::SiteCallerMismatch { site: *site })
                    } else {
                        Ok(())
                    }
                }
            };
        });
        result
    }

    /// Each site must be referenced by exactly one call statement of its
    /// caller (with [`Program::validate_body`], which pins the caller).
    fn validate_site_statements(&self) -> Result<(), ValidationError> {
        let mut seen = vec![0usize; self.sites.len()];
        for proc_ in &self.procs {
            walk_stmts(&proc_.body, &mut |s| {
                if let Stmt::Call { site } = s {
                    if let Some(c) = seen.get_mut(site.index()) {
                        *c += 1;
                    }
                }
            });
        }
        for (i, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(ValidationError::SiteStatementCount {
                    site: CallSiteId::new(i),
                    count,
                });
            }
        }
        Ok(())
    }

    /// One call site: the callee exists, is not main, is visible from the
    /// caller, and takes as many formals as the site passes actuals, each
    /// of them in scope in the caller.
    pub(crate) fn validate_site(&self, s: CallSiteId) -> Result<(), ValidationError> {
        let site = &self.sites[s.index()];
        let callee = self
            .procs
            .get(site.callee.index())
            .ok_or(ValidationError::DanglingProc { proc_: site.callee })?;
        if site.callee == ProcId::MAIN {
            return Err(ValidationError::CallToMain { site: s });
        }
        if !self.proc_visible_from(site.caller, site.callee) {
            return Err(ValidationError::CalleeNotVisible { site: s });
        }
        if site.args.len() != callee.formals.len() {
            return Err(ValidationError::ArityMismatch {
                site: s,
                expected: callee.formals.len(),
                found: site.args.len(),
            });
        }
        for arg in site.args.iter() {
            match arg {
                Actual::Ref(r) => self.validate_ref(site.caller, r)?,
                Actual::Value(e) => self.validate_expr(site.caller, e)?,
            }
        }
        Ok(())
    }

    /// Pascal visibility: `callee` is callable from `caller` if it is a
    /// child of `caller` or of one of `caller`'s lexical ancestors
    /// (a sibling or "uncle"), or is itself a proper ancestor of `caller`.
    /// Follows parent links only, so it costs the nesting depth.
    pub fn proc_visible_from(&self, caller: ProcId, callee: ProcId) -> bool {
        match self.procs[callee.index()].parent {
            Some(parent) if parent == caller || self.ancestors(caller).any(|a| a == parent) => true,
            _ => self.ancestors(caller).any(|a| a == callee),
        }
    }
}

/// Iterator over lexical ancestors, nearest first. See
/// [`Program::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    program: &'a Program,
    next: Option<ProcId>,
}

impl Iterator for Ancestors<'_> {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        let current = self.next?;
        self.next = self.program.procs[current.index()].parent;
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stmt::Expr;

    #[test]
    fn universe_and_scopes() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        let t = b.local(p, "t");
        b.assign(p, t, Expr::load(g));
        let program = b.finish().expect("valid");

        assert_eq!(program.num_procs(), 2); // main + p
        assert_eq!(program.num_vars(), 3);
        assert!(program.var(g).is_global());
        assert_eq!(program.var_level(g), 0);
        assert_eq!(program.proc_(p).level(), 1);
        assert!(program.visible_in(g, p));
        assert!(program.visible_in(t, p));
        assert!(!program.visible_in(t, ProcId::MAIN));
        let local = program.local_set(p);
        assert!(local.contains(t.index()));
        assert!(!local.contains(g.index()));
        assert_eq!(program.global_set().len(), 1);
    }

    #[test]
    fn nested_scope_visibility() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let t = b.local(p, "t");
        let q = b.nested_proc(p, "q", &[]);
        b.assign(q, t, Expr::constant(1)); // q writes p's local: legal
        let program = b.finish().expect("valid");
        assert_eq!(program.proc_(q).level(), 2);
        assert!(program.visible_in(t, q));
        assert_eq!(
            program.ancestors(q).collect::<Vec<_>>(),
            vec![p, ProcId::MAIN]
        );
        assert!(program.visible_in(b.formal(p, 0), q));
    }

    #[test]
    fn out_of_scope_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        let t = b.local(p, "t");
        b.assign(q, t, Expr::constant(0)); // q cannot see p's local
        assert!(matches!(
            b.finish(),
            Err(ValidationError::OutOfScope { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x"]);
        let g = b.global("g");
        let main = b.main();
        b.call_args(
            main,
            p,
            vec![Actual::Ref(Ref::scalar(g)), Actual::Ref(Ref::scalar(g))],
        );
        assert!(matches!(
            b.finish(),
            Err(ValidationError::ArityMismatch { .. })
        ));
        let _ = p;
    }

    #[test]
    fn call_to_main_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        b.call(p, ProcId::MAIN, &[]);
        assert!(matches!(
            b.finish(),
            Err(ValidationError::CallToMain { .. })
        ));
    }

    #[test]
    fn sibling_call_is_visible_nephew_is_not() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        let inner = b.nested_proc(p, "inner", &[]);
        b.call(p, q, &[]); // sibling: fine
        b.call(inner, q, &[]); // uncle: fine
        let program = b.finish().expect("valid");
        assert!(program.proc_visible_from(p, q));
        assert!(program.proc_visible_from(inner, q));
        assert!(program.proc_visible_from(p, inner));
        assert!(!program.proc_visible_from(q, inner)); // nephew: invisible
    }

    #[test]
    fn nephew_call_rejected() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        let inner = b.nested_proc(p, "inner", &[]);
        b.call(q, inner, &[]);
        assert!(matches!(
            b.finish(),
            Err(ValidationError::CalleeNotVisible { .. })
        ));
    }

    #[test]
    fn recursion_and_ancestor_calls_allowed() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let inner = b.nested_proc(p, "inner", &[]);
        b.call(p, p, &[]); // self-recursion (p is its own sibling-set member)
        b.call(inner, p, &[]); // ancestor call
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rank_mismatch_rejected() {
        let mut b = ProgramBuilder::new();
        let a = b.global_array("a", 2);
        let main = b.main();
        b.assign_indexed(main, a, vec![Subscript::Const(0)], Expr::constant(1));
        assert!(matches!(
            b.finish(),
            Err(ValidationError::RankMismatch { .. })
        ));
    }

    #[test]
    fn map_bodies_rejects_structural_damage() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");

        // Dropping the call statement orphans its site.
        let dropped = program.map_bodies(|q, body| {
            if q == program.main() {
                Vec::new()
            } else {
                body.to_vec()
            }
        });
        assert!(matches!(
            dropped,
            Err(ValidationError::SiteStatementCount { count: 0, .. })
        ));

        // Duplicating it is just as bad.
        let duplicated = program.map_bodies(|q, body| {
            let mut out = body.to_vec();
            if q == program.main() {
                out.extend_from_slice(body);
            }
            out
        });
        assert!(matches!(
            duplicated,
            Err(ValidationError::SiteStatementCount { count: 2, .. })
        ));

        // The identity transformation round-trips.
        let same = program
            .map_bodies(|_, body| body.to_vec())
            .expect("identity is valid");
        assert_eq!(same.to_source(), program.to_source());
    }

    #[test]
    fn nesting_tree_must_list_each_procedure_exactly_once() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        let inner = b.nested_proc(p, "inner", &[]);
        let program = b.finish().expect("valid");

        // Missing from its parent's list.
        let mut missing = program.clone();
        Arc::make_mut(&mut missing.procs[p.index()])
            .children
            .clear();
        assert_eq!(
            missing.validate(),
            Err(ValidationError::BadLevel { proc_: inner })
        );

        // Listed twice by its parent.
        let mut twice = program.clone();
        Arc::make_mut(&mut twice.procs[ProcId::MAIN.index()])
            .children
            .push(q);
        assert_eq!(
            twice.validate(),
            Err(ValidationError::BadLevel { proc_: q })
        );

        // Listed by a procedure that is not its parent.
        let mut stray = program.clone();
        Arc::make_mut(&mut stray.procs[q.index()])
            .children
            .push(inner);
        assert_eq!(
            stray.validate(),
            Err(ValidationError::BadLevel { proc_: inner })
        );
        assert_eq!(program.validate(), Ok(()));
    }

    #[test]
    fn locals_must_be_listed_by_their_owner() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let program = b.finish().expect("valid");
        let mut unlisted = program.clone();
        Arc::make_mut(&mut unlisted.procs[p.index()]).locals.clear();
        assert_eq!(
            unlisted.validate(),
            Err(ValidationError::OwnershipMismatch { var: t, proc_: p })
        );
    }

    #[test]
    fn mean_parameters() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x", "y"]);
        let q = b.proc_("q", &[]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        b.call(main, q, &[]);
        let program = b.finish().expect("valid");
        // main(0) + p(2) + q(0) formals over 3 procs.
        assert!((program.mean_formals() - 2.0 / 3.0).abs() < 1e-9);
        assert!((program.mean_actuals() - 1.0).abs() < 1e-9);
    }
}
