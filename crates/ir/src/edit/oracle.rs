//! The reference edit path: copy the whole program, apply the edit to
//! the copy, and run the reference validation over all of it.
//!
//! [`Program::apply_edit`] shares every part an edit leaves alone and
//! re-checks only what the edit touched, with the per-part checks of the
//! linear [`Program::validate`]. This module keeps the plain path both
//! replaced: the deep copy, and the validation that searches `locals`
//! and `children` lists and decides procedure visibility from them.
//! Differential tests require both paths to return the same `Result` —
//! the same program, the same [`EditDelta`], or the same error with the
//! same ids — for every edit, so an edit that breaks an invariant also
//! checks the linear validation against the searching one.

use std::sync::Arc;

use super::{strip_and_shift_site, Edit, EditDelta, EditError};
use crate::error::ValidationError;
use crate::ids::{CallSiteId, ProcId, VarId};
use crate::program::{CallSite, Procedure, Program, VarInfo, VarKind};
use crate::stmt::{Actual, Stmt};
use crate::visit::walk_stmts;

impl Program {
    /// Applies `edit` the reference way: a deep copy of every part, the
    /// edit applied to the copy, then the reference validation of the
    /// whole result. Slower than [`Program::apply_edit`] and meant only
    /// as its oracle.
    ///
    /// # Errors
    ///
    /// As [`Program::apply_edit`].
    #[doc(hidden)]
    pub fn apply_edit_deep(&self, edit: &Edit) -> Result<(Program, EditDelta), EditError> {
        match edit {
            Edit::SetLocalEffects { proc_, mods, uses } => {
                self.check_proc(*proc_)?;
                let mut out = self.deep_clone();
                Arc::make_mut(&mut out.procs[proc_.index()]).body =
                    self.local_effects_body(*proc_, mods, uses);
                out.validate_reference()?;
                let mut delta = EditDelta::identity(self, "set-local");
                delta.touched_procs.push(*proc_);
                Ok((out, delta))
            }
            Edit::AddCallSite {
                caller,
                callee,
                args,
            } => {
                self.check_proc(*caller)?;
                self.check_proc(*callee)?;
                let mut out = self.deep_clone();
                let site = CallSiteId::new(out.sites.len());
                out.sites.push(CallSite {
                    caller: *caller,
                    callee: *callee,
                    args: args.as_slice().into(),
                });
                Arc::make_mut(&mut out.procs[caller.index()])
                    .body
                    .push(Stmt::Call { site });
                out.validate_reference()?;
                let mut delta = EditDelta::identity(self, "add-call");
                delta.touched_procs.push(*caller);
                delta.structure_changed = true;
                Ok((out, delta))
            }
            Edit::RemoveCallSite { site: s } => {
                self.check_site(*s)?;
                let caller = self.sites[s.index()].caller;
                let mut out = self.deep_clone();
                out.sites.remove(s.index());
                for proc_ in &mut out.procs {
                    let body = strip_and_shift_site(&proc_.body, *s);
                    Arc::make_mut(proc_).body = body;
                }
                out.validate_reference()?;
                let mut delta = EditDelta::identity(self, "remove-call");
                delta.touched_procs.push(caller);
                delta.structure_changed = true;
                delta.site_map = (0..self.num_sites())
                    .map(|i| match i.cmp(&s.index()) {
                        std::cmp::Ordering::Less => Some(CallSiteId::new(i)),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some(CallSiteId::new(i - 1)),
                    })
                    .collect();
                Ok((out, delta))
            }
            Edit::AddProcedure {
                name,
                parent,
                formals,
            } => {
                self.check_proc(*parent)?;
                let mut out = self.deep_clone();
                let p = ProcId::new(out.procs.len());
                let level = out.procs[parent.index()].level + 1;
                let symbols = Arc::make_mut(&mut out.symbols);
                let vars = Arc::make_mut(&mut out.vars);
                let mut formal_ids = Vec::with_capacity(formals.len());
                for (position, fname) in formals.iter().enumerate() {
                    formal_ids.push(VarId::new(vars.len()));
                    vars.push(VarInfo {
                        name: symbols.intern(fname),
                        owner: Some(p),
                        kind: VarKind::Formal { position },
                        rank: 0,
                    });
                }
                let name_sym = symbols.intern(name);
                Arc::make_mut(&mut out.procs[parent.index()])
                    .children
                    .push(p);
                out.procs.push(Arc::new(Procedure {
                    name: name_sym,
                    formals: formal_ids,
                    locals: Vec::new(),
                    parent: Some(*parent),
                    level,
                    children: Vec::new(),
                    body: Vec::new(),
                }));
                out.validate_reference()?;
                let mut delta = EditDelta::identity(self, "add-proc");
                delta.touched_procs.push(p);
                delta.touched_procs.push(*parent);
                delta.structure_changed = true;
                delta.universe_changed = !formals.is_empty();
                Ok((out, delta))
            }
            // Not differential in how the program is built: removing a
            // procedure renumbers every part, so the edit path itself
            // builds a fresh program and this arm reuses that
            // construction. Only the validation is the reference one.
            Edit::RemoveProcedure { proc_ } => {
                let (out, delta) = self.remove_procedure_unchecked(*proc_)?;
                out.validate_reference()?;
                Ok((out, delta))
            }
            Edit::RebindActual {
                site,
                position,
                actual,
            } => {
                self.check_site(*site)?;
                let arity = self.sites[site.index()].args.len();
                if *position >= arity {
                    return Err(EditError::BadPosition {
                        site: *site,
                        position: *position,
                        arity,
                    });
                }
                let mut out = self.deep_clone();
                let mut args = out.sites[site.index()].args.to_vec();
                args[*position] = actual.clone();
                out.sites[site.index()].args = args.into();
                out.validate_reference()?;
                let mut delta = EditDelta::identity(self, "rebind");
                delta.touched_procs.push(self.sites[site.index()].caller);
                delta.structure_changed = true;
                Ok((out, delta))
            }
        }
    }

    /// A copy that shares nothing with `self`.
    fn deep_clone(&self) -> Program {
        Program {
            symbols: Arc::new((*self.symbols).clone()),
            vars: Arc::new((*self.vars).clone()),
            procs: self
                .procs
                .iter()
                .map(|proc_| Arc::new((**proc_).clone()))
                .collect(),
            sites: self
                .sites
                .iter()
                .map(|site| CallSite {
                    caller: site.caller,
                    callee: site.callee,
                    args: site.args.iter().cloned().collect::<Vec<Actual>>().into(),
                })
                .collect(),
        }
    }
}

/// The reference validation: every check [`Program::validate`] makes, in
/// the same order, but with the `locals` and `children` lists searched
/// per variable, per procedure and per call site.
impl Program {
    fn validate_reference(&self) -> Result<(), ValidationError> {
        self.validate_vars_reference()?;
        self.validate_nesting_reference()?;
        for p in self.procs() {
            self.validate_body(p)?;
        }
        self.validate_sites_reference()?;
        Ok(())
    }

    fn validate_vars_reference(&self) -> Result<(), ValidationError> {
        for (i, info) in self.vars.iter().enumerate() {
            let v = VarId::new(i);
            match (info.owner, info.kind) {
                (None, VarKind::Global) => {}
                (None, _) => return Err(ValidationError::OwnerlessNonGlobal { var: v }),
                (Some(_), VarKind::Global) => return Err(ValidationError::OwnedGlobal { var: v }),
                (Some(p), VarKind::Local) => {
                    let proc_ = self
                        .procs
                        .get(p.index())
                        .ok_or(ValidationError::DanglingProc { proc_: p })?;
                    if !proc_.locals.contains(&v) {
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
        }
        for (i, proc_) in self.procs.iter().enumerate() {
            let p = ProcId::new(i);
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
        }
        Ok(())
    }

    fn validate_nesting_reference(&self) -> Result<(), ValidationError> {
        if self.procs.is_empty() {
            return Err(ValidationError::NoMain);
        }
        let main = &self.procs[ProcId::MAIN.index()];
        if main.parent.is_some() || main.level != 0 {
            return Err(ValidationError::BadMain);
        }
        for (i, proc_) in self.procs.iter().enumerate() {
            let p = ProcId::new(i);
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
                    if proc_.level != pp.level + 1 {
                        return Err(ValidationError::BadLevel { proc_: p });
                    }
                    // A duplicate entry passes here; the linear validate
                    // rejects it. No edit can make one.
                    if !pp.children.contains(&p) {
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
        }
        Ok(())
    }

    fn validate_sites_reference(&self) -> Result<(), ValidationError> {
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

        for (i, site) in self.sites.iter().enumerate() {
            let s = CallSiteId::new(i);
            let callee = self
                .procs
                .get(site.callee.index())
                .ok_or(ValidationError::DanglingProc { proc_: site.callee })?;
            if site.callee == ProcId::MAIN {
                return Err(ValidationError::CallToMain { site: s });
            }
            if !self.proc_visible_from_reference(site.caller, site.callee) {
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
        }
        Ok(())
    }

    /// [`Program::proc_visible_from`] decided from `children` lists: a
    /// child of `caller` or of one of its ancestors, or an ancestor.
    fn proc_visible_from_reference(&self, caller: ProcId, callee: ProcId) -> bool {
        if self.procs[caller.index()].children.contains(&callee) {
            return true;
        }
        if self.ancestors(caller).any(|a| a == callee) {
            return true;
        }
        self.ancestors(caller)
            .any(|a| self.procs[a.index()].children.contains(&callee))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stmt::Expr;

    /// Corrupts one table of a valid nested program at a time and
    /// requires the linear validation to report what the reference one
    /// does, ids included.
    #[test]
    fn linear_validate_matches_reference_on_corrupted_tables() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        let q = b.proc_("q", &[]);
        let inner = b.nested_proc(p, "inner", &["y"]);
        let t = b.local(inner, "t");
        b.assign(inner, t, Expr::load(b.formal(p, 0)));
        let main = b.main();
        b.call(main, p, &[g]);
        b.call(p, inner, &[g]);
        b.call(inner, q, &[]);
        let program = b.finish().expect("valid");

        type Corruption = fn(&mut Program, ProcId, ProcId, ProcId, VarId);
        let corruptions: [(&str, Corruption); 12] = [
            ("child missing", |pr, p, _, _, _| {
                Arc::make_mut(&mut pr.procs[p.index()]).children.clear();
            }),
            ("child listed by a stranger", |pr, _, q, inner, _| {
                Arc::make_mut(&mut pr.procs[q.index()]).children.push(inner);
            }),
            ("bad level", |pr, _, _, inner, _| {
                Arc::make_mut(&mut pr.procs[inner.index()]).level = 5;
            }),
            ("orphan", |pr, _, q, _, _| {
                Arc::make_mut(&mut pr.procs[q.index()]).parent = None;
            }),
            ("main with a parent", |pr, p, _, _, _| {
                Arc::make_mut(&mut pr.procs[ProcId::MAIN.index()]).parent = Some(p);
            }),
            ("unlisted local", |pr, _, _, inner, _| {
                Arc::make_mut(&mut pr.procs[inner.index()]).locals.clear();
            }),
            ("local listed by a stranger", |pr, _, q, _, t| {
                Arc::make_mut(&mut pr.procs[q.index()]).locals.push(t);
            }),
            ("formal out of place", |pr, p, _, _, _| {
                Arc::make_mut(&mut pr.procs[p.index()]).formals.clear();
            }),
            ("owned global", |pr, p, _, _, _| {
                Arc::make_mut(&mut pr.vars)[0].owner = Some(p);
            }),
            ("callee not visible", |pr, _, q, inner, _| {
                pr.sites[2].caller = q;
                pr.sites[2].callee = inner;
            }),
            ("call to main", |pr, _, _, _, _| {
                pr.sites[0].callee = ProcId::MAIN;
            }),
            ("site statement dropped", |pr, p, _, _, _| {
                Arc::make_mut(&mut pr.procs[p.index()]).body.clear();
            }),
        ];
        assert_eq!(program.validate(), Ok(()));
        assert_eq!(program.validate_reference(), Ok(()));
        for (what, corrupt) in corruptions {
            let mut bad = program.deep_clone();
            corrupt(&mut bad, p, q, inner, t);
            let linear = bad.validate();
            assert!(linear.is_err(), "{what}: accepted");
            assert_eq!(linear, bad.validate_reference(), "{what}");
        }
    }
}
