//! Unreachable-procedure elimination.
//!
//! §3.3 of the paper assumes "every procedure in the program is reachable
//! by some call chain. If this is not the case, a linear-time algorithm
//! that eliminates unreachable procedures can be invoked." This module is
//! that algorithm. It matters for precision, not soundness: the §3.3
//! conventions (nested bodies extend the parent's body; binding edges from
//! call sites in nested procedures) deliberately assume a nested procedure
//! runs whenever its parent does, so leaving *unreachable* nested
//! procedures in place makes the fast pipeline a conservative superset of
//! the defining equations. Pruning first restores exact agreement.
//!
//! Reachability is subtree-closed in both directions: an unreachable
//! procedure's descendants are unreachable (their callers all live in its
//! subtree), and a reachable procedure's lexical ancestors are reachable
//! (a call chain can only enter a procedure's subtree through the
//! procedure itself). Pruning therefore removes whole subtrees and never
//! orphans a survivor.

use std::sync::Arc;

use crate::ids::{CallSiteId, ProcId, VarId};
use crate::program::{CallSite, Procedure, Program, VarInfo};
use crate::stmt::{Actual, Expr, Ref, Stmt, Subscript};

/// The result of [`Program::without_unreachable`].
#[derive(Debug, Clone)]
pub struct PrunedProgram {
    /// The pruned, revalidated program.
    pub program: Program,
    /// `proc_map[old] = Some(new)` for kept procedures.
    pub proc_map: Vec<Option<ProcId>>,
    /// `var_map[old] = Some(new)` for kept variables (globals and
    /// variables of kept procedures).
    pub var_map: Vec<Option<VarId>>,
    /// `site_map[old] = Some(new)` for kept call sites.
    pub site_map: Vec<Option<CallSiteId>>,
}

impl Program {
    /// Removes every procedure unreachable from main by a call chain,
    /// together with its variables and call sites, renumbering all ids
    /// densely. Linear in program size.
    ///
    /// # Examples
    ///
    /// ```
    /// use modref_ir::{Expr, ProgramBuilder};
    ///
    /// # fn main() -> Result<(), modref_ir::ValidationError> {
    /// let mut b = ProgramBuilder::new();
    /// let live = b.proc_("live", &[]);
    /// let _dead = b.proc_("dead", &[]);
    /// let main = b.main();
    /// b.call(main, live, &[]);
    /// let program = b.finish()?;
    /// let pruned = program.without_unreachable();
    /// assert_eq!(pruned.program.num_procs(), 2);
    /// assert!(pruned.program.validate().is_ok());
    /// # Ok(())
    /// # }
    /// ```
    pub fn without_unreachable(&self) -> PrunedProgram {
        self.without_unreachable_traced(&modref_trace::Trace::disabled())
    }

    /// [`Program::without_unreachable`] recording a `prune` span (with the
    /// before/after procedure, variable, and site counts) into `trace`.
    /// Identical output; tracing only observes.
    pub fn without_unreachable_traced(&self, trace: &modref_trace::Trace) -> PrunedProgram {
        let mut span = trace.span("prune");
        span.arg("procs_before", self.num_procs() as u64);
        span.arg("vars_before", self.num_vars() as u64);
        span.arg("sites_before", self.num_sites() as u64);
        let pruned = self.without_unreachable_impl();
        span.arg("procs_after", pruned.program.num_procs() as u64);
        span.arg("vars_after", pruned.program.num_vars() as u64);
        span.arg("sites_after", pruned.program.num_sites() as u64);
        pruned
    }

    fn without_unreachable_impl(&self) -> PrunedProgram {
        // Reachability over the call edges.
        let mut reach = vec![false; self.num_procs()];
        reach[ProcId::MAIN.index()] = true;
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); self.num_procs()];
        for s in self.sites() {
            let site = self.site(s);
            succ[site.caller().index()].push(site.callee().index());
        }
        let mut stack = vec![ProcId::MAIN.index()];
        while let Some(v) = stack.pop() {
            #[allow(clippy::needless_range_loop)] // `succ` is mutated elsewhere in scope
            for i in 0..succ[v].len() {
                let w = succ[v][i];
                if !reach[w] {
                    reach[w] = true;
                    stack.push(w);
                }
            }
        }

        // Dense renumberings.
        let mut proc_map: Vec<Option<ProcId>> = vec![None; self.num_procs()];
        let mut kept_procs = Vec::new();
        for p in self.procs() {
            if reach[p.index()] {
                proc_map[p.index()] = Some(ProcId::new(kept_procs.len()));
                kept_procs.push(p);
            }
        }
        let mut var_map: Vec<Option<VarId>> = vec![None; self.num_vars()];
        let mut kept_vars = Vec::new();
        for v in self.vars() {
            let keep = match self.var(v).owner() {
                None => true,
                Some(owner) => reach[owner.index()],
            };
            if keep {
                var_map[v.index()] = Some(VarId::new(kept_vars.len()));
                kept_vars.push(v);
            }
        }
        let mut site_map: Vec<Option<CallSiteId>> = vec![None; self.num_sites()];
        let mut kept_sites = Vec::new();
        for s in self.sites() {
            let site = self.site(s);
            if reach[site.caller().index()] {
                debug_assert!(
                    reach[site.callee().index()],
                    "a reachable caller cannot invoke an unreachable callee"
                );
                site_map[s.index()] = Some(CallSiteId::new(kept_sites.len()));
                kept_sites.push(s);
            }
        }

        let remap = Remap {
            proc_map: &proc_map,
            var_map: &var_map,
            site_map: &site_map,
        };

        let vars: Vec<VarInfo> = kept_vars
            .iter()
            .map(|&v| {
                let info = self.var(v);
                VarInfo {
                    name: info.name(),
                    owner: info.owner().map(|p| remap.proc(p)),
                    kind: info.kind(),
                    rank: info.rank(),
                }
            })
            .collect();
        let procs: Vec<Arc<Procedure>> = kept_procs
            .iter()
            .map(|&p| {
                let proc_ = self.proc_(p);
                Arc::new(Procedure {
                    name: proc_.name(),
                    formals: proc_.formals().iter().map(|&f| remap.var(f)).collect(),
                    locals: proc_.locals().iter().map(|&l| remap.var(l)).collect(),
                    parent: proc_.parent().map(|q| remap.proc(q)),
                    level: proc_.level(),
                    children: proc_
                        .children()
                        .iter()
                        .filter(|c| proc_map[c.index()].is_some())
                        .map(|&c| remap.proc(c))
                        .collect(),
                    body: proc_.body().iter().map(|s| remap.stmt(s)).collect(),
                })
            })
            .collect();
        let sites: Vec<CallSite> = kept_sites
            .iter()
            .map(|&s| {
                let site = self.site(s);
                CallSite {
                    caller: remap.proc(site.caller()),
                    callee: remap.proc(site.callee()),
                    args: site.args().iter().map(|a| remap.actual(a)).collect(),
                }
            })
            .collect();

        let program = Program {
            symbols: Arc::clone(&self.symbols),
            vars: Arc::new(vars),
            procs,
            sites,
        };
        // A real check, not a debug_assert: a pruning bug that produces an
        // invalid program must not ship silently in release builds — every
        // downstream solver assumes validated invariants.
        if let Err(e) = program.validate() {
            panic!("pruning produced an invalid program: {e}");
        }
        PrunedProgram {
            program,
            proc_map,
            var_map,
            site_map,
        }
    }
}

struct Remap<'a> {
    proc_map: &'a [Option<ProcId>],
    var_map: &'a [Option<VarId>],
    site_map: &'a [Option<CallSiteId>],
}

impl Remap<'_> {
    fn proc(&self, p: ProcId) -> ProcId {
        self.proc_map[p.index()].expect("kept procedure")
    }

    fn var(&self, v: VarId) -> VarId {
        self.var_map[v.index()].expect("kept variable")
    }

    fn site(&self, s: CallSiteId) -> CallSiteId {
        self.site_map[s.index()].expect("kept site")
    }

    fn stmt(&self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: self.ref_(target),
                value: self.expr(value),
            },
            Stmt::Read { target } => Stmt::Read {
                target: self.ref_(target),
            },
            Stmt::Print { value } => Stmt::Print {
                value: self.expr(value),
            },
            Stmt::Call { site } => Stmt::Call {
                site: self.site(*site),
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: self.expr(cond),
                then_branch: then_branch.iter().map(|x| self.stmt(x)).collect(),
                else_branch: else_branch.iter().map(|x| self.stmt(x)).collect(),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: self.expr(cond),
                body: body.iter().map(|x| self.stmt(x)).collect(),
            },
        }
    }

    fn actual(&self, a: &Actual) -> Actual {
        match a {
            Actual::Ref(r) => Actual::Ref(self.ref_(r)),
            Actual::Value(e) => Actual::Value(self.expr(e)),
        }
    }

    fn ref_(&self, r: &Ref) -> Ref {
        Ref {
            var: self.var(r.var),
            subs: r.subs.iter().map(|s| self.subscript(s)).collect(),
        }
    }

    fn subscript(&self, s: &Subscript) -> Subscript {
        match s {
            Subscript::Var(v) => Subscript::Var(self.var(*v)),
            other => *other,
        }
    }

    fn expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Load(r) => Expr::Load(self.ref_(r)),
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(self.expr(inner))),
            Expr::Binary(op, l, r) => {
                Expr::Binary(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::stmt::Expr;

    #[test]
    fn drops_dead_subtree_and_its_vars() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let live = b.proc_("live", &["x"]);
        b.assign(live, b.formal(live, 0), Expr::constant(1));
        let dead = b.proc_("dead", &["y"]);
        let dead_child = b.nested_proc(dead, "dead_child", &[]);
        let dl = b.local(dead_child, "dl");
        b.assign(dead_child, dl, Expr::constant(2));
        b.call(dead, dead_child, &[]);
        let main = b.main();
        b.call(main, live, &[g]);
        let program = b.finish().expect("valid");

        let pruned = program.without_unreachable();
        assert_eq!(pruned.program.num_procs(), 2);
        assert_eq!(pruned.program.num_sites(), 1);
        // g and live's formal survive; dead's formal and dl do not.
        assert_eq!(pruned.program.num_vars(), 2);
        assert!(pruned.proc_map[dead.index()].is_none());
        assert!(pruned.proc_map[dead_child.index()].is_none());
        assert!(pruned.var_map[dl.index()].is_none());
        assert!(pruned.program.validate().is_ok());
        // Name lookups survive the renumbering.
        let new_live = pruned.proc_map[live.index()].unwrap();
        assert_eq!(pruned.program.proc_name(new_live), "live");
    }

    #[test]
    fn fully_reachable_program_is_identity_shaped() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        b.assign(p, g, Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let pruned = program.without_unreachable();
        assert_eq!(pruned.program.num_procs(), program.num_procs());
        assert_eq!(pruned.program.num_vars(), program.num_vars());
        assert_eq!(pruned.program.num_sites(), program.num_sites());
        assert_eq!(pruned.program.to_source(), program.to_source());
    }

    #[test]
    fn recursive_dead_cluster_removed() {
        // Two dead procedures calling each other: still unreachable.
        let mut b = ProgramBuilder::new();
        let a = b.proc_("a", &[]);
        let c = b.proc_("c", &[]);
        b.call(a, c, &[]);
        b.call(c, a, &[]);
        let program = b.finish().expect("valid");
        let pruned = program.without_unreachable();
        assert_eq!(pruned.program.num_procs(), 1); // just main
        assert_eq!(pruned.program.num_sites(), 0);
    }

    #[test]
    fn control_flow_bodies_are_remapped() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let _dead = b.proc_("dead", &[]);
        let p = b.proc_("p", &[]);
        let main = b.main();
        let call = b.call_stmt(main, p, vec![]);
        b.stmt(
            main,
            crate::Stmt::While {
                cond: Expr::load(g),
                body: vec![call],
            },
        );
        let program = b.finish().expect("valid");
        let pruned = program.without_unreachable();
        assert_eq!(pruned.program.num_procs(), 2);
        assert!(pruned.program.validate().is_ok());
    }
}
