//! Typed program edits and their application.
//!
//! The paper motivates the linear-time algorithm partly by the
//! *programming-environment* setting, where summary information must be
//! kept current while the program is edited. This module defines the edit
//! vocabulary an incremental client (the `modref-incr` crate) consumes: a
//! small closed set of structural operations, each of which produces a
//! **new validated [`Program`]** plus an [`EditDelta`] describing exactly
//! what moved — which procedures' local effects changed, whether the call
//! or binding structure changed, and how every id is renumbered.
//!
//! Edits are applied functionally: [`Program::apply_edit`] leaves its
//! receiver as it was and returns a new program that shares, through
//! [`Arc`]s, every procedure, site, the variable table and the interner
//! that the edit did not change. An edit therefore costs what it touches:
//! a `set-local` copies one procedure, an `add-call` one procedure and
//! one site.
//!
//! The result is re-checked with the checks [`Program::validate`] runs,
//! restricted to what the edit touched. The input program is valid, so
//! the untouched parts still pass, and the restricted check returns
//! exactly the error a full validation would:
//!
//! | edit | re-checked |
//! | --- | --- |
//! | `set-local` | the body of the procedure |
//! | `add-call` | the caller's body and the new site |
//! | `rebind` | the site |
//! | `remove-call` | the rewritten bodies (callers of the removed site and of the sites above it) |
//! | `add-proc` | everything (a rare edit whose new parts are valid by construction) |
//! | `remove-proc` | everything: it renumbers the whole program |
//!
//! Id stability rules, which the delta's remap tables make explicit:
//!
//! * [`Edit::SetLocalEffects`] and [`Edit::RebindActual`] renumber
//!   nothing;
//! * [`Edit::AddCallSite`] and [`Edit::AddProcedure`] append new ids at
//!   the end (old ids are stable);
//! * [`Edit::RemoveCallSite`] shifts the site ids above the removed one
//!   down by one;
//! * [`Edit::RemoveProcedure`] shifts procedure ids above the removed one
//!   and the ids of every variable declared later than the removed
//!   procedure's variables.

use std::sync::Arc;

use crate::error::ValidationError;
use crate::ids::{CallSiteId, ProcId, VarId};
use crate::program::{CallSite, Procedure, Program, VarInfo, VarKind};
use crate::stmt::{Actual, Expr, Ref, Stmt, Subscript};
use crate::symbol::{Interner, Symbol};
use crate::visit::walk_stmts;

mod oracle;

/// One program edit.
///
/// Variables named in an edit are checked against the *edited* program's
/// scope rules during revalidation; an edit that would reference an
/// out-of-scope variable or break an arity is rejected wholesale.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Replace the non-call statements of `proc_`'s body with a canonical
    /// sequence writing every variable in `mods` and reading every
    /// variable in `uses` (the analyses are flow-insensitive, so local
    /// effects *are* the body as far as they are concerned). Call
    /// statements are retained in source order — the call structure is
    /// edited through the site edits, not this one.
    SetLocalEffects {
        /// The procedure whose local effects change.
        proc_: ProcId,
        /// Variables the new body modifies.
        mods: Vec<VarId>,
        /// Variables the new body reads.
        uses: Vec<VarId>,
    },
    /// Append a call statement `callee(args…)` at the end of `caller`'s
    /// body. The new site gets the next free [`CallSiteId`].
    AddCallSite {
        /// The procedure gaining the call statement.
        caller: ProcId,
        /// The procedure being invoked.
        callee: ProcId,
        /// Actual arguments, one per callee formal.
        args: Vec<Actual>,
    },
    /// Remove call site `site` (and its call statement). Site ids above
    /// `site` shift down by one.
    RemoveCallSite {
        /// The site to remove.
        site: CallSiteId,
    },
    /// Declare a new, empty procedure nested in `parent`, with the given
    /// reference formal parameters. The procedure and its formals get the
    /// next free ids.
    AddProcedure {
        /// Name of the new procedure.
        name: String,
        /// The lexically enclosing procedure ([`ProcId::MAIN`] for a
        /// top-level procedure).
        parent: ProcId,
        /// Names of the formal parameters, in order.
        formals: Vec<String>,
    },
    /// Remove procedure `proc_` and every variable it declares. The
    /// procedure must be call-free on both sides: no call site may target
    /// it or live in it, and it must have no nested procedures (a script
    /// removes those first). Procedure and variable ids above the removed
    /// ones shift down.
    RemoveProcedure {
        /// The procedure to remove.
        proc_: ProcId,
    },
    /// Replace the actual at `position` of `site` with `actual`.
    RebindActual {
        /// The call site being rebound.
        site: CallSiteId,
        /// Zero-based argument position.
        position: usize,
        /// The new actual argument.
        actual: Actual,
    },
}

impl Edit {
    /// A stable lowercase name for reports and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Edit::SetLocalEffects { .. } => "set-local",
            Edit::AddCallSite { .. } => "add-call",
            Edit::RemoveCallSite { .. } => "remove-call",
            Edit::AddProcedure { .. } => "add-proc",
            Edit::RemoveProcedure { .. } => "remove-proc",
            Edit::RebindActual { .. } => "rebind",
        }
    }
}

/// Why an edit was rejected. The program is unchanged on error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EditError {
    /// A procedure id in the edit is out of range.
    UnknownProc(ProcId),
    /// A call-site id in the edit is out of range.
    UnknownSite(CallSiteId),
    /// [`Edit::RebindActual`] names a position past the site's arity.
    BadPosition {
        /// The site being rebound.
        site: CallSiteId,
        /// The out-of-range position.
        position: usize,
        /// The site's actual arity.
        arity: usize,
    },
    /// [`Edit::RemoveProcedure`] targets the main program.
    RemoveMain,
    /// [`Edit::RemoveProcedure`] targets a procedure with nested
    /// procedures still declared in it.
    HasChildren(ProcId),
    /// [`Edit::RemoveProcedure`] targets a procedure that still
    /// participates in a call site, as caller or callee.
    ProcedureInUse(ProcId, CallSiteId),
    /// The edited program failed revalidation (out-of-scope variable,
    /// arity mismatch, invisible callee, …).
    Invalid(ValidationError),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::UnknownProc(p) => write!(f, "procedure id {p} is out of range"),
            EditError::UnknownSite(s) => write!(f, "call-site id {s} is out of range"),
            EditError::BadPosition {
                site,
                position,
                arity,
            } => write!(
                f,
                "site {site} has {arity} arguments; position {position} does not exist"
            ),
            EditError::RemoveMain => write!(f, "the main program cannot be removed"),
            EditError::HasChildren(p) => write!(
                f,
                "procedure {p} still declares nested procedures; remove them first"
            ),
            EditError::ProcedureInUse(p, s) => write!(
                f,
                "procedure {p} still participates in call site {s}; remove the site first"
            ),
            EditError::Invalid(e) => write!(f, "edit produced an invalid program: {e}"),
        }
    }
}

impl std::error::Error for EditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EditError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for EditError {
    fn from(e: ValidationError) -> Self {
        EditError::Invalid(e)
    }
}

/// What an applied [`Edit`] moved — the invalidation interface the
/// incremental engine consumes.
///
/// The remap tables translate *old* ids to *new* ids; `None` marks a
/// removed id. For edits that renumber nothing they are identities, so a
/// consumer can always remap unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditDelta {
    /// The edit's [`Edit::kind`].
    pub kind: &'static str,
    /// Procedures (new ids) whose own body or directly declared
    /// procedures changed — the places whose flat `LMOD`/`LUSE` or §3.3
    /// extension *input* moved. Ancestors affected transitively through
    /// the nesting extension are the consumer's business.
    pub touched_procs: Vec<ProcId>,
    /// `true` if the call multi-graph or binding multi-graph may differ:
    /// any edit except [`Edit::SetLocalEffects`].
    pub structure_changed: bool,
    /// `true` if the variable universe changed (variables added or
    /// removed), so every cached bit vector needs re-domaining.
    pub universe_changed: bool,
    /// Old procedure id → new procedure id.
    pub proc_map: Vec<Option<ProcId>>,
    /// Old variable id → new variable id.
    pub var_map: Vec<Option<VarId>>,
    /// Old call-site id → new call-site id.
    pub site_map: Vec<Option<CallSiteId>>,
}

impl EditDelta {
    fn identity(program: &Program, kind: &'static str) -> Self {
        EditDelta {
            kind,
            touched_procs: Vec::new(),
            structure_changed: false,
            universe_changed: false,
            proc_map: (0..program.num_procs())
                .map(|i| Some(ProcId::new(i)))
                .collect(),
            var_map: (0..program.num_vars())
                .map(|i| Some(VarId::new(i)))
                .collect(),
            site_map: (0..program.num_sites())
                .map(|i| Some(CallSiteId::new(i)))
                .collect(),
        }
    }
}

impl Program {
    /// Applies `edit`, returning the edited program and its delta.
    ///
    /// The receiver is untouched. The result shares every part the edit
    /// did not change with the receiver, and the parts it did change have
    /// been re-checked with [`Program::validate`]'s own per-part checks
    /// (see the module docs for which parts each edit re-checks).
    ///
    /// # Errors
    ///
    /// See [`EditError`]. No partial application: any error leaves
    /// nothing changed.
    pub fn apply_edit(&self, edit: &Edit) -> Result<(Program, EditDelta), EditError> {
        match edit {
            Edit::SetLocalEffects { proc_, mods, uses } => {
                self.edit_set_local_effects(*proc_, mods, uses)
            }
            Edit::AddCallSite {
                caller,
                callee,
                args,
            } => self.edit_add_call_site(*caller, *callee, args),
            Edit::RemoveCallSite { site } => self.edit_remove_call_site(*site),
            Edit::AddProcedure {
                name,
                parent,
                formals,
            } => self.edit_add_procedure(name, *parent, formals),
            Edit::RemoveProcedure { proc_ } => self.edit_remove_procedure(*proc_),
            Edit::RebindActual {
                site,
                position,
                actual,
            } => self.edit_rebind_actual(*site, *position, actual),
        }
    }

    fn check_proc(&self, p: ProcId) -> Result<(), EditError> {
        if p.index() >= self.num_procs() {
            return Err(EditError::UnknownProc(p));
        }
        Ok(())
    }

    fn check_site(&self, s: CallSiteId) -> Result<(), EditError> {
        if s.index() >= self.num_sites() {
            return Err(EditError::UnknownSite(s));
        }
        Ok(())
    }

    /// The body [`Edit::SetLocalEffects`] gives `p`: one write per
    /// `mods` variable, one read per `uses` variable, then `p`'s call
    /// statements in source order (the call structure has its own edits).
    fn local_effects_body(&self, p: ProcId, mods: &[VarId], uses: &[VarId]) -> Vec<Stmt> {
        let mut body: Vec<Stmt> = Vec::with_capacity(mods.len() + uses.len());
        for &v in mods {
            body.push(Stmt::Assign {
                target: Ref::scalar(v),
                value: Expr::Const(0),
            });
        }
        for &v in uses {
            body.push(Stmt::Print {
                value: Expr::Load(Ref::scalar(v)),
            });
        }
        walk_stmts(&self.procs[p.index()].body, &mut |s| {
            if let Stmt::Call { site } = s {
                body.push(Stmt::Call { site: *site });
            }
        });
        body
    }

    fn edit_set_local_effects(
        &self,
        p: ProcId,
        mods: &[VarId],
        uses: &[VarId],
    ) -> Result<(Program, EditDelta), EditError> {
        self.check_proc(p)?;
        let body = self.local_effects_body(p, mods, uses);
        let mut out = self.clone();
        out.procs[p.index()] = Arc::new(self.procs[p.index()].with_body(body));
        // Only p's body moved, and it keeps p's call statements.
        out.validate_body(p)?;
        let mut delta = EditDelta::identity(self, "set-local");
        delta.touched_procs.push(p);
        Ok((out, delta))
    }

    fn edit_add_call_site(
        &self,
        caller: ProcId,
        callee: ProcId,
        args: &[Actual],
    ) -> Result<(Program, EditDelta), EditError> {
        self.check_proc(caller)?;
        self.check_proc(callee)?;
        let mut out = self.clone();
        let site = CallSiteId::new(out.sites.len());
        out.sites.push(CallSite {
            caller,
            callee,
            args: args.into(),
        });
        Arc::make_mut(&mut out.procs[caller.index()])
            .body
            .push(Stmt::Call { site });
        out.validate_body(caller)?;
        out.validate_site(site)?;
        let mut delta = EditDelta::identity(self, "add-call");
        delta.touched_procs.push(caller);
        delta.structure_changed = true;
        Ok((out, delta))
    }

    fn edit_remove_call_site(&self, s: CallSiteId) -> Result<(Program, EditDelta), EditError> {
        self.check_site(s)?;
        let caller = self.sites[s.index()].caller;
        let mut out = self.clone();
        out.sites.remove(s.index());
        // Drop the call statement and shift the ids above the hole. The
        // statement of site k sits in the body of k's caller, so only the
        // callers of sites at or above `s` are rewritten.
        let mut rewritten: Vec<ProcId> = self.sites[s.index()..]
            .iter()
            .map(|site| site.caller)
            .collect();
        rewritten.sort_unstable();
        rewritten.dedup();
        for &q in &rewritten {
            let old = &self.procs[q.index()];
            out.procs[q.index()] = Arc::new(old.with_body(strip_and_shift_site(&old.body, s)));
        }
        for &q in &rewritten {
            out.validate_body(q)?;
        }
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

    fn edit_add_procedure(
        &self,
        name: &str,
        parent: ProcId,
        formals: &[String],
    ) -> Result<(Program, EditDelta), EditError> {
        self.check_proc(parent)?;
        let mut out = self.clone();
        let p = ProcId::new(out.procs.len());
        let level = out.procs[parent.index()].level + 1;
        let mut formal_ids = Vec::with_capacity(formals.len());
        for (position, fname) in formals.iter().enumerate() {
            let v = VarId::new(out.vars.len());
            let sym = intern_shared(&mut out.symbols, fname);
            Arc::make_mut(&mut out.vars).push(VarInfo {
                name: sym,
                owner: Some(p),
                kind: VarKind::Formal { position },
                rank: 0,
            });
            formal_ids.push(v);
        }
        let name_sym = intern_shared(&mut out.symbols, name);
        Arc::make_mut(&mut out.procs[parent.index()])
            .children
            .push(p);
        out.procs.push(Arc::new(Procedure {
            name: name_sym,
            formals: formal_ids,
            locals: Vec::new(),
            parent: Some(parent),
            level,
            children: Vec::new(),
            body: Vec::new(),
        }));
        out.validate()?;
        let mut delta = EditDelta::identity(self, "add-proc");
        // The new procedure's (empty) body is "touched", and so is the
        // parent: its declared-procedures list changed, which feeds the
        // §3.3 nesting extension.
        delta.touched_procs.push(p);
        delta.touched_procs.push(parent);
        delta.structure_changed = true;
        delta.universe_changed = !formals.is_empty();
        Ok((out, delta))
    }

    fn edit_remove_procedure(&self, p: ProcId) -> Result<(Program, EditDelta), EditError> {
        let (out, delta) = self.remove_procedure_unchecked(p)?;
        // Everything is renumbered, so everything is re-checked.
        out.validate()?;
        Ok((out, delta))
    }

    /// The program without `p` and its delta, not yet validated: the
    /// edit's own preconditions are checked, the result's invariants are
    /// not.
    fn remove_procedure_unchecked(&self, p: ProcId) -> Result<(Program, EditDelta), EditError> {
        self.check_proc(p)?;
        if p == ProcId::MAIN {
            return Err(EditError::RemoveMain);
        }
        if !self.procs[p.index()].children.is_empty() {
            return Err(EditError::HasChildren(p));
        }
        for (i, site) in self.sites.iter().enumerate() {
            if site.caller == p || site.callee == p {
                return Err(EditError::ProcedureInUse(p, CallSiteId::new(i)));
            }
        }

        // Renumber: procedures above p shift down; the removed
        // procedure's variables (its formals and locals, wherever they
        // sit in the table) disappear and later variables shift down.
        let proc_map: Vec<Option<ProcId>> = (0..self.num_procs())
            .map(|i| match i.cmp(&p.index()) {
                std::cmp::Ordering::Less => Some(ProcId::new(i)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(ProcId::new(i - 1)),
            })
            .collect();
        let mut var_map: Vec<Option<VarId>> = Vec::with_capacity(self.num_vars());
        let mut next = 0usize;
        for info in self.vars.iter() {
            if info.owner == Some(p) {
                var_map.push(None);
            } else {
                var_map.push(Some(VarId::new(next)));
                next += 1;
            }
        }
        let map_proc = |q: ProcId| proc_map[q.index()].expect("renumbered procedure survives");
        let map_var = |v: VarId| var_map[v.index()].expect("renumbered variable survives");

        let vars: Vec<VarInfo> = self
            .vars
            .iter()
            .filter(|info| info.owner != Some(p))
            .map(|info| VarInfo {
                name: info.name,
                owner: info.owner.map(map_proc),
                kind: info.kind,
                rank: info.rank,
            })
            .collect();
        let procs: Vec<Arc<Procedure>> = self
            .procs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != p.index())
            .map(|(_, proc_)| {
                Arc::new(Procedure {
                    name: proc_.name,
                    formals: proc_.formals.iter().map(|&v| map_var(v)).collect(),
                    locals: proc_.locals.iter().map(|&v| map_var(v)).collect(),
                    parent: proc_.parent.map(map_proc),
                    level: proc_.level,
                    children: proc_
                        .children
                        .iter()
                        .filter(|&&c| c != p)
                        .map(|&c| map_proc(c))
                        .collect(),
                    body: map_vars_in_stmts(&proc_.body, &map_var),
                })
            })
            .collect();
        let sites: Vec<CallSite> = self
            .sites
            .iter()
            .map(|site| CallSite {
                caller: map_proc(site.caller),
                callee: map_proc(site.callee),
                args: site.args.iter().map(|a| map_actual(a, &map_var)).collect(),
            })
            .collect();

        let out = Program {
            symbols: Arc::clone(&self.symbols),
            vars: Arc::new(vars),
            procs,
            sites,
        };
        let parent_new = self.procs[p.index()]
            .parent
            .map(|q| proc_map[q.index()].expect("an ancestor survives removal"));
        let delta = EditDelta {
            kind: "remove-proc",
            // The parent (new id) lost a declared procedure — its §3.3
            // extension input changed even though its own body did not.
            touched_procs: parent_new.into_iter().collect(),
            structure_changed: true,
            universe_changed: var_map.iter().any(Option::is_none),
            proc_map,
            var_map,
            site_map: (0..self.num_sites())
                .map(|i| Some(CallSiteId::new(i)))
                .collect(),
        };
        Ok((out, delta))
    }

    fn edit_rebind_actual(
        &self,
        s: CallSiteId,
        position: usize,
        actual: &Actual,
    ) -> Result<(Program, EditDelta), EditError> {
        self.check_site(s)?;
        let arity = self.sites[s.index()].args.len();
        if position >= arity {
            return Err(EditError::BadPosition {
                site: s,
                position,
                arity,
            });
        }
        let mut out = self.clone();
        let mut args = self.sites[s.index()].args.to_vec();
        args[position] = actual.clone();
        out.sites[s.index()].args = args.into();
        out.validate_site(s)?;
        let mut delta = EditDelta::identity(self, "rebind");
        delta.touched_procs.push(self.sites[s.index()].caller);
        delta.structure_changed = true;
        Ok((out, delta))
    }
}

/// Interns `text` into a shared interner, copying the interner only if
/// the text is new to it.
fn intern_shared(symbols: &mut Arc<Interner>, text: &str) -> Symbol {
    match symbols.get(text) {
        Some(sym) => sym,
        None => Arc::make_mut(symbols).intern(text),
    }
}

/// Removes the (unique) call statement for `removed` and decrements every
/// site id above it. Recursion depth equals the statement nesting depth.
fn strip_and_shift_site(stmts: &[Stmt], removed: CallSiteId) -> Vec<Stmt> {
    stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Call { site } => match site.cmp(&removed) {
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Less => Some(Stmt::Call { site: *site }),
                std::cmp::Ordering::Greater => Some(Stmt::Call {
                    site: CallSiteId::new(site.index() - 1),
                }),
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => Some(Stmt::If {
                cond: cond.clone(),
                then_branch: strip_and_shift_site(then_branch, removed),
                else_branch: strip_and_shift_site(else_branch, removed),
            }),
            Stmt::While { cond, body } => Some(Stmt::While {
                cond: cond.clone(),
                body: strip_and_shift_site(body, removed),
            }),
            other => Some(other.clone()),
        })
        .collect()
}

/// Rewrites every variable id in a statement tree. Recursion depth equals
/// the statement nesting depth.
fn map_vars_in_stmts(stmts: &[Stmt], f: &impl Fn(VarId) -> VarId) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: map_ref(target, f),
                value: map_expr(value, f),
            },
            Stmt::Read { target } => Stmt::Read {
                target: map_ref(target, f),
            },
            Stmt::Print { value } => Stmt::Print {
                value: map_expr(value, f),
            },
            Stmt::Call { site } => Stmt::Call { site: *site },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: map_expr(cond, f),
                then_branch: map_vars_in_stmts(then_branch, f),
                else_branch: map_vars_in_stmts(else_branch, f),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: map_expr(cond, f),
                body: map_vars_in_stmts(body, f),
            },
        })
        .collect()
}

fn map_ref(r: &Ref, f: &impl Fn(VarId) -> VarId) -> Ref {
    Ref {
        var: f(r.var),
        subs: r
            .subs
            .iter()
            .map(|s| match s {
                Subscript::Var(v) => Subscript::Var(f(*v)),
                other => *other,
            })
            .collect(),
    }
}

fn map_expr(e: &Expr, f: &impl Fn(VarId) -> VarId) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Load(r) => Expr::Load(map_ref(r, f)),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(map_expr(inner, f))),
        Expr::Binary(op, l, r) => {
            Expr::Binary(*op, Box::new(map_expr(l, f)), Box::new(map_expr(r, f)))
        }
    }
}

fn map_actual(a: &Actual, f: &impl Fn(VarId) -> VarId) -> Actual {
    match a {
        Actual::Ref(r) => Actual::Ref(map_ref(r, f)),
        Actual::Value(e) => Actual::Value(map_expr(e, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::localeffects::LocalEffects;

    fn base() -> (Program, ProcId, ProcId, VarId, VarId) {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::load(g));
        let q = b.proc_("q", &[]);
        b.assign(q, h, Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[g]);
        b.call(main, q, &[]);
        let program = b.finish().expect("valid");
        (program, p, q, g, h)
    }

    #[test]
    fn set_local_effects_rewrites_body_keeps_calls() {
        let (program, p, _q, g, h) = base();
        let main = ProcId::MAIN;
        let (edited, delta) = program
            .apply_edit(&Edit::SetLocalEffects {
                proc_: main,
                mods: vec![h],
                uses: vec![g],
            })
            .expect("valid edit");
        assert_eq!(delta.touched_procs, vec![main]);
        assert!(!delta.structure_changed);
        assert_eq!(edited.num_sites(), program.num_sites());
        let fx = LocalEffects::compute(&edited);
        assert!(fx.imod_flat(main).contains(h.index()));
        assert!(fx.iuse_flat(main).contains(g.index()));
        // Calls survived in order.
        let calls: Vec<_> = edited
            .proc_(main)
            .body()
            .iter()
            .filter(|s| matches!(s, Stmt::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        let _ = p;
    }

    #[test]
    fn add_and_remove_call_site_roundtrip() {
        let (program, p, _q, g, _h) = base();
        let (with_call, delta) = program
            .apply_edit(&Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: p,
                args: vec![Actual::Ref(Ref::scalar(g))],
            })
            .expect("valid edit");
        assert!(delta.structure_changed);
        assert_eq!(with_call.num_sites(), program.num_sites() + 1);
        let new_site = CallSiteId::new(program.num_sites());
        assert_eq!(with_call.site(new_site).callee(), p);

        // Remove the first site: ids above shift down, statement count
        // drops by one, and the program stays valid.
        let (shrunk, delta) = with_call
            .apply_edit(&Edit::RemoveCallSite {
                site: CallSiteId::new(0),
            })
            .expect("valid edit");
        assert_eq!(shrunk.num_sites(), program.num_sites());
        assert_eq!(delta.site_map[0], None);
        assert_eq!(delta.site_map[1], Some(CallSiteId::new(0)));
        assert_eq!(shrunk.site(CallSiteId::new(1)).callee(), p);
    }

    #[test]
    fn add_procedure_appends_ids() {
        let (program, _p, _q, _g, _h) = base();
        let (grown, delta) = program
            .apply_edit(&Edit::AddProcedure {
                name: "fresh".into(),
                parent: ProcId::MAIN,
                formals: vec!["a".into(), "b".into()],
            })
            .expect("valid edit");
        assert!(delta.universe_changed);
        let new_proc = ProcId::new(program.num_procs());
        assert_eq!(grown.num_procs(), program.num_procs() + 1);
        assert_eq!(grown.proc_name(new_proc), "fresh");
        assert_eq!(grown.proc_(new_proc).formals().len(), 2);
        assert_eq!(grown.proc_(new_proc).level(), 1);
        assert_eq!(grown.num_vars(), program.num_vars() + 2);
        // Old ids are untouched.
        for v in program.vars() {
            assert_eq!(delta.var_map[v.index()], Some(v));
        }
    }

    #[test]
    fn remove_procedure_renumbers() {
        let (program, p, q, g, h) = base();
        // p is still called; removal must be refused.
        assert!(matches!(
            program.apply_edit(&Edit::RemoveProcedure { proc_: p }),
            Err(EditError::ProcedureInUse(..))
        ));
        // Remove p's call site first, then p itself.
        let (no_call, _) = program
            .apply_edit(&Edit::RemoveCallSite {
                site: CallSiteId::new(0),
            })
            .expect("valid edit");
        let (removed, delta) = no_call
            .apply_edit(&Edit::RemoveProcedure { proc_: p })
            .expect("valid edit");
        assert_eq!(removed.num_procs(), program.num_procs() - 1);
        assert!(delta.universe_changed);
        assert_eq!(delta.proc_map[p.index()], None);
        let new_q = delta.proc_map[q.index()].expect("q survives");
        assert_eq!(removed.proc_name(new_q), "q");
        // p's formal is gone; globals keep their (low) ids here.
        assert_eq!(delta.var_map[g.index()], Some(g));
        let fx = LocalEffects::compute(&removed);
        let new_h = delta.var_map[h.index()].expect("h survives");
        assert!(fx.imod(new_q).contains(new_h.index()));
    }

    #[test]
    fn remove_main_and_nonempty_parent_rejected() {
        let (program, _p, _q, _g, _h) = base();
        assert!(matches!(
            program.apply_edit(&Edit::RemoveProcedure {
                proc_: ProcId::MAIN
            }),
            Err(EditError::RemoveMain)
        ));
        let (nested, _) = program
            .apply_edit(&Edit::AddProcedure {
                name: "outer".into(),
                parent: ProcId::MAIN,
                formals: vec![],
            })
            .expect("valid edit");
        let outer = ProcId::new(program.num_procs());
        let (nested, _) = nested
            .apply_edit(&Edit::AddProcedure {
                name: "inner".into(),
                parent: outer,
                formals: vec![],
            })
            .expect("valid edit");
        assert!(matches!(
            nested.apply_edit(&Edit::RemoveProcedure { proc_: outer }),
            Err(EditError::HasChildren(_))
        ));
    }

    #[test]
    fn rebind_actual_checks_scope_and_position() {
        let (program, _p, _q, g, h) = base();
        let s = CallSiteId::new(0);
        let (rebound, delta) = program
            .apply_edit(&Edit::RebindActual {
                site: s,
                position: 0,
                actual: Actual::Ref(Ref::scalar(h)),
            })
            .expect("valid edit");
        assert_eq!(rebound.site(s).args()[0].as_ref_var(), Some(h));
        assert!(delta.structure_changed);
        assert!(matches!(
            program.apply_edit(&Edit::RebindActual {
                site: s,
                position: 7,
                actual: Actual::Ref(Ref::scalar(g)),
            }),
            Err(EditError::BadPosition { .. })
        ));
        // An out-of-scope actual is rejected by revalidation.
        let (with_proc, _) = program
            .apply_edit(&Edit::AddProcedure {
                name: "r".into(),
                parent: ProcId::MAIN,
                formals: vec!["z".into()],
            })
            .expect("valid edit");
        let z = VarId::new(program.num_vars());
        assert!(matches!(
            with_proc.apply_edit(&Edit::RebindActual {
                site: s,
                position: 0,
                actual: Actual::Ref(Ref::scalar(z)),
            }),
            Err(EditError::Invalid(ValidationError::OutOfScope { .. }))
        ));
    }

    #[test]
    fn invalid_edits_report_out_of_range_ids() {
        let (program, ..) = base();
        assert!(matches!(
            program.apply_edit(&Edit::RemoveCallSite {
                site: CallSiteId::new(99)
            }),
            Err(EditError::UnknownSite(s)) if s == CallSiteId::new(99)
        ));
        assert!(matches!(
            program.apply_edit(&Edit::SetLocalEffects {
                proc_: ProcId::new(99),
                mods: vec![],
                uses: vec![],
            }),
            Err(EditError::UnknownProc(p)) if p == ProcId::new(99)
        ));
    }

    /// A program with untouched neighbours on every side of each edit:
    /// three procedures with formals, five sites in three callers.
    fn wider() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::load(g));
        let q = b.proc_("q", &["y", "z"]);
        b.call(q, p, &[b.formal(q, 1)]);
        let r = b.proc_("r", &[]);
        b.call(r, q, &[g, h]);
        b.call(r, p, &[h]);
        let main = b.main();
        b.call(main, p, &[g]);
        b.call(main, r, &[]);
        b.finish().expect("valid")
    }

    /// Every procedure not in `touched` and every site not in
    /// `touched_sites` (which must also list the sites whose id shifted)
    /// is the same allocation in both programs, and so are the interner
    /// and the variable table.
    fn assert_shares(
        old: &Program,
        new: &Program,
        touched: &[ProcId],
        touched_sites: &[CallSiteId],
        kind: &str,
    ) {
        assert!(
            Arc::ptr_eq(&old.symbols, &new.symbols),
            "{kind}: interner copied"
        );
        assert!(
            Arc::ptr_eq(&old.vars, &new.vars),
            "{kind}: variable table copied"
        );
        for p in old.procs() {
            let shared = Arc::ptr_eq(&old.procs[p.index()], &new.procs[p.index()]);
            assert_eq!(shared, !touched.contains(&p), "{kind}: sharing of {p}");
        }
        for s in old.sites() {
            if touched_sites.contains(&s) || s.index() >= new.num_sites() {
                continue;
            }
            assert!(
                Arc::ptr_eq(&old.sites[s.index()].args, &new.sites[s.index()].args),
                "{kind}: site {s} copied"
            );
        }
    }

    #[test]
    fn edits_share_every_part_they_do_not_touch() {
        let program = wider();
        let (g, h) = (VarId::new(0), VarId::new(1));
        let p = ProcId::new(1);
        let r = ProcId::new(3);

        let (edited, delta) = program
            .apply_edit(&Edit::SetLocalEffects {
                proc_: p,
                mods: vec![h],
                uses: vec![g],
            })
            .expect("valid edit");
        assert_shares(&program, &edited, &[p], &[], "set-local");
        assert!(!delta.universe_changed);

        let (edited, _) = program
            .apply_edit(&Edit::AddCallSite {
                caller: r,
                callee: p,
                args: vec![Actual::Ref(Ref::scalar(g))],
            })
            .expect("valid edit");
        assert_shares(&program, &edited, &[r], &[], "add-call");

        let last = CallSiteId::new(program.num_sites() - 1);
        let (edited, _) = program
            .apply_edit(&Edit::RemoveCallSite { site: last })
            .expect("valid edit");
        assert_shares(&program, &edited, &[ProcId::MAIN], &[last], "remove-call");

        let rebound = CallSiteId::new(1);
        let (edited, _) = program
            .apply_edit(&Edit::RebindActual {
                site: rebound,
                position: 1,
                actual: Actual::Ref(Ref::scalar(g)),
            })
            .expect("valid edit");
        assert_shares(&program, &edited, &[], &[rebound], "rebind");
        assert!(!Arc::ptr_eq(
            &program.sites[rebound.index()].args,
            &edited.sites[rebound.index()].args
        ));

        // Every shared result is also exactly what the deep-copy path
        // builds.
        for edit in [
            Edit::SetLocalEffects {
                proc_: p,
                mods: vec![h],
                uses: vec![g],
            },
            Edit::RemoveCallSite { site: last },
            Edit::RemoveCallSite {
                site: CallSiteId::new(0),
            },
        ] {
            let (fast, fast_delta) = program.apply_edit(&edit).expect("valid edit");
            let (deep, deep_delta) = program.apply_edit_deep(&edit).expect("valid edit");
            assert_eq!(fast_delta, deep_delta);
            assert_eq!(fast.procs, deep.procs);
            assert_eq!(fast.sites, deep.sites);
            assert_eq!(fast.vars, deep.vars);
        }
    }

    #[test]
    fn remove_call_rewrites_only_callers_at_or_above_the_hole() {
        let program = wider();
        // Sites 0 (q), 1 (r), 2 (r), 3 (main), 4 (main): removing site 2
        // rewrites r (its caller) and main (sites 3 and 4 shift); p and q
        // keep their bodies.
        let (edited, _) = program
            .apply_edit(&Edit::RemoveCallSite {
                site: CallSiteId::new(2),
            })
            .expect("valid edit");
        assert_shares(
            &program,
            &edited,
            &[ProcId::MAIN, ProcId::new(3)],
            &[CallSiteId::new(2), CallSiteId::new(3), CallSiteId::new(4)],
            "remove-call",
        );
    }

    #[test]
    fn arity_mismatch_on_add_call_rejected() {
        let (program, p, _q, _g, _h) = base();
        assert!(matches!(
            program.apply_edit(&Edit::AddCallSite {
                caller: ProcId::MAIN,
                callee: p,
                args: vec![],
            }),
            Err(EditError::Invalid(ValidationError::ArityMismatch { .. }))
        ));
    }
}
