//! Alias-pair analysis — the `ALIAS(p)` sets §5 assumes are "available".
//!
//! The paper factors aliasing out of the main computation and adds it back
//! at the end; it cites Banning's formulation for producing the pairs.
//! This module implements the classic conservative pair propagation for
//! reference-parameter languages (Banning 1979 / Cooper's dissertation).
//! For a call site `e = (p, q)` binding actual `aᵢ` to formal `fᵢ`, and
//! `vis(v, q)` meaning `v` is in scope inside `q`:
//!
//! * **R1** — `⟨fᵢ, fⱼ⟩ ∈ ALIAS(q)` if `aᵢ = aⱼ` or `⟨aᵢ, aⱼ⟩ ∈ ALIAS(p)`;
//! * **R2** — `⟨fᵢ, aᵢ⟩ ∈ ALIAS(q)` if `vis(aᵢ, q)`;
//! * **R3** — `⟨fᵢ, w⟩ ∈ ALIAS(q)` if `⟨aᵢ, w⟩ ∈ ALIAS(p)` and `vis(w, q)`;
//! * **R4** — `⟨x, y⟩ ∈ ALIAS(q)` if `⟨x, y⟩ ∈ ALIAS(p)` and both are
//!   visible in `q` (a nested callee sees its caller's formals, and their
//!   aliases, as free variables).
//!
//! Pairs are symmetric and irreflexive. The result plugs directly into
//! step (2) of §5: `∀x ∈ DMOD(s): ⟨x, y⟩ ∈ ALIAS(p) ⇒ y ∈ MOD(s)`.
//!
//! # Solving: one new pair at a time
//!
//! The relation is not small on nested programs — a depth-4
//! `pascal_like(500, 4)` program carries ~34,000 pairs — so the solver is
//! semi-naive. R1 for identical actuals and R2 read nothing but the site,
//! so they seed the worklist once per site. R1 (aliased actuals), R3 and
//! R4 each read exactly *one* caller pair, so they are applied as delta
//! rules: a work item is a newly added pair `⟨x, y⟩` of `p`, pushed once
//! through every out-site `e = (p, q)`:
//!
//! * R4: `vis(x, q) ∧ vis(y, q)` adds `⟨x, y⟩` to `q`;
//! * R3: every `i` with `aᵢ = x` adds `⟨fᵢ, y⟩` if `vis(y, q)`, and the
//!   same with `x` and `y` swapped;
//! * R1: every `i ≠ j` with `aᵢ = x`, `aⱼ = y` adds `⟨fᵢ, fⱼ⟩`.
//!
//! A pair enters the worklist only when it is new, so each pair crosses
//! each out-edge once and the whole solve costs
//! `O(Σₚ |ALIAS(p)| · outdeg(p) · arity)` plus one seeding pass over the
//! sites — linear in the output. Visibility is an O(1) lookup in the
//! callee's lexical chain. A site-at-a-time worklist instead re-derives a
//! site's whole transfer from the caller's full relation whenever
//! anything changes; ordering sites callers-first does not rescue it,
//! because recursion puts most of a generated program in one strongly
//! connected component of the call graph (402 of 501 procedures in the
//! first `perfbench` `editor_nested` program), inside which every order
//! revisits every site.

use std::collections::HashMap;

use modref_bitset::{BitSet, EffectSet};
use modref_guard::{Guard, Interrupt};
use modref_ir::{CallSiteId, ProcId, Program, VarId};

/// The alias pairs of every procedure.
///
/// # Examples
///
/// ```
/// use modref_core::AliasPairs;
/// use modref_ir::{Expr, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// // call p(g, g): inside p, x and y alias each other and g.
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let p = b.proc_("p", &["x", "y"]);
/// let main = b.main();
/// b.call(main, p, &[g, g]);
/// let program = b.finish()?;
/// let aliases = AliasPairs::compute(&program);
/// assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
/// assert!(aliases.are_aliased(p, b.formal(p, 0), g));
/// assert!(!aliases.are_aliased(b.main(), g, g)); // irreflexive
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AliasPairsIn<S: EffectSet> {
    /// `partners[p][v]` = the variables `v` may alias inside `p`.
    partners: Vec<HashMap<VarId, S>>,
    /// `keys[p]` = the variables with at least one partner in `p` — a
    /// fast pre-filter for [`AliasPairs::extend_with_aliases`].
    keys: Vec<S>,
    num_vars: usize,
}

/// [`AliasPairsIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type AliasPairs = AliasPairsIn<BitSet>;

impl<S: EffectSet> AliasPairsIn<S> {
    /// Computes `ALIAS(p)` for every procedure by propagating one new pair
    /// at a time (see the module docs). Terminates because pair sets only
    /// grow and each pair is propagated once.
    pub fn compute(program: &Program) -> Self {
        Self::compute_guarded(program, &Guard::unlimited())
            .expect("an unlimited guard cannot interrupt the solver")
    }

    /// [`AliasPairs::compute`] under a cooperative [`Guard`]: the worklist
    /// charges one boolean step per item (a seeded site or a propagated
    /// pair) and polls the guard every 64 items.
    ///
    /// # Errors
    ///
    /// Returns the guard's [`Interrupt`] if a deadline, budget, or
    /// cancellation trips before the fixpoint; the partial relation is
    /// discarded.
    pub fn compute_guarded(program: &Program, guard: &Guard) -> Result<Self, Interrupt> {
        guard.checkpoint("alias")?;
        let mut result = Self::empty_impl(program);
        let all = vec![true; program.num_procs()];
        result.solve_closure_guarded(program, &all, guard)?;
        Ok(result)
    }

    /// Runs the pair worklist restricted to call sites whose callee lies
    /// in `in_closure`, mutating `self` toward the fixpoint. When
    /// `in_closure` is closed under "callers of" (every procedure that can
    /// call a member is itself a member), the restricted system is
    /// *closed*: a site's rules read only the caller's pairs, and every
    /// such caller is in the closure. The least fixpoint of the restricted
    /// system therefore coincides with the full-program `ALIAS` relation
    /// on every closure member — this is what lets the demand engine
    /// answer one caller's alias query without touching unrelated
    /// procedures.
    ///
    /// Any already-accumulated pairs in `self` must be sound (⊆ the full
    /// fixpoint). The closure members' existing pairs are pushed as
    /// deltas alongside the site seeds, so iteration from such a state —
    /// an interrupted earlier solve, or a smaller closure solved before —
    /// still converges to the exact fixpoint. Returns the number of work
    /// items processed (sites seeded plus pairs propagated), which is also
    /// the number of boolean steps charged to `guard`.
    pub(crate) fn solve_closure_guarded(
        &mut self,
        program: &Program,
        in_closure: &[bool],
        guard: &Guard,
    ) -> Result<u64, Interrupt> {
        let mut out_sites: Vec<Vec<CallSiteId>> = vec![Vec::new(); program.num_procs()];
        for s in program.sites() {
            let site = program.site(s);
            if in_closure[site.callee().index()] {
                out_sites[site.caller().index()].push(s);
            }
        }
        let scope = Scope::new(program, in_closure);
        let mut items: u64 = 0;
        let mut tick = |guard: &Guard| -> Result<(), Interrupt> {
            items += 1;
            if items % 64 == 0 {
                guard.charge(0, 64);
                guard.check()?;
            }
            Ok(())
        };

        // Start state: the closure members' existing pairs, once each
        // (`x < y`), in id order.
        let mut work: Vec<(ProcId, VarId, VarId)> = Vec::new();
        for p in program.procs().filter(|p| in_closure[p.index()]) {
            for x in self.keys[p.index()].iter() {
                let partners = &self.partners[p.index()][&VarId::new(x)];
                for y in partners.iter().filter(|&y| y > x) {
                    work.push((p, VarId::new(x), VarId::new(y)));
                }
            }
        }

        // Seeds: R1 for identical actuals and R2 read only the site.
        for &s in out_sites.iter().flatten() {
            tick(guard)?;
            let site = program.site(s);
            let callee = site.callee();
            let formals = program.proc_(callee).formals();
            let args = site.args();
            for (i, ai) in args.iter().enumerate() {
                let Some(ai) = ai.as_ref_var() else { continue };
                let fi = formals[i];
                for (j, aj) in args.iter().enumerate().skip(i + 1) {
                    if aj.as_ref_var() == Some(ai) {
                        self.push_pair(&mut work, callee, fi, formals[j]);
                    }
                }
                if scope.visible(program, ai, callee) {
                    self.push_pair(&mut work, callee, fi, ai);
                }
            }
        }

        // Deltas: R1 (aliased actuals), R3 and R4, one new pair at a time.
        while let Some((p, x, y)) = work.pop() {
            tick(guard)?;
            for &s in &out_sites[p.index()] {
                let site = program.site(s);
                let callee = site.callee();
                let formals = program.proc_(callee).formals();
                let args = site.args();
                let x_vis = scope.visible(program, x, callee);
                let y_vis = scope.visible(program, y, callee);
                if x_vis && y_vis {
                    self.push_pair(&mut work, callee, x, y);
                }
                for (i, ai) in args.iter().enumerate() {
                    let ai = ai.as_ref_var();
                    if ai == Some(x) {
                        if y_vis {
                            self.push_pair(&mut work, callee, formals[i], y);
                        }
                        for (j, aj) in args.iter().enumerate() {
                            if j != i && aj.as_ref_var() == Some(y) {
                                self.push_pair(&mut work, callee, formals[i], formals[j]);
                            }
                        }
                    } else if ai == Some(y) && x_vis {
                        self.push_pair(&mut work, callee, formals[i], x);
                    }
                }
            }
        }
        guard.charge(0, items % 64);
        guard.check()?;
        Ok(items)
    }

    /// Adds `⟨a, b⟩` to `ALIAS(p)` and queues it if it is new.
    fn push_pair(&mut self, work: &mut Vec<(ProcId, VarId, VarId)>, p: ProcId, a: VarId, b: VarId) {
        if self.add_pair(p, a, b) {
            work.push((p, a, b));
        }
    }

    /// `true` if `⟨a, b⟩ ∈ ALIAS(p)`. Irreflexive: `are_aliased(p, v, v)`
    /// is `false`.
    pub fn are_aliased(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.partners[p.index()]
            .get(&a)
            .is_some_and(|set| set.contains(b.index()))
    }

    /// The alias partners of `v` inside `p`.
    pub fn partners_of(&self, p: ProcId, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.partners[p.index()]
            .get(&v)
            .into_iter()
            .flat_map(|set| set.iter().map(VarId::new))
    }

    /// `true` if `ALIAS(p)` is the same relation in `self` and `other`
    /// (two relations over the same program, or over an edit of it that
    /// kept procedure and variable ids). A procedure only one side has
    /// compares unequal.
    pub fn same_pairs(&self, other: &Self, p: ProcId) -> bool {
        match (self.partners.get(p.index()), other.partners.get(p.index())) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Number of (unordered) pairs in `ALIAS(p)`.
    pub fn pair_count(&self, p: ProcId) -> usize {
        let total: usize = self.partners[p.index()].values().map(S::len).sum();
        total / 2
    }

    /// §5 step (2): extends `set` with every alias partner (in `p`) of its
    /// members. Returns the extended set; linear in `|set| + |ALIAS(p)|`.
    pub fn extend_with_aliases(&self, p: ProcId, set: &S) -> S {
        let mut out = set.clone();
        // Only variables that actually have partners need the hash lookup.
        let mut with_partners = set.clone();
        with_partners.intersect_with(&self.keys[p.index()]);
        for v in with_partners.iter() {
            if let Some(partners) = self.partners[p.index()].get(&VarId::new(v)) {
                out.union_with(partners);
            }
        }
        out
    }

    /// An all-empty alias relation (used when alias analysis is disabled).
    pub(crate) fn empty_impl(program: &Program) -> Self {
        AliasPairsIn {
            partners: vec![HashMap::new(); program.num_procs()],
            keys: vec![S::empty(program.num_vars()); program.num_procs()],
            num_vars: program.num_vars(),
        }
    }

    /// Converts every pair set to the dense default representation (a
    /// field-by-field identity move for the dense instantiation).
    pub(crate) fn into_dense(self) -> AliasPairs {
        AliasPairsIn {
            partners: self
                .partners
                .into_iter()
                .map(|m| m.into_iter().map(|(k, v)| (k, v.into_dense())).collect())
                .collect(),
            keys: self.keys.into_iter().map(S::into_dense).collect(),
            num_vars: self.num_vars,
        }
    }

    fn add_pair(&mut self, p: ProcId, a: VarId, b: VarId) -> bool {
        if a == b {
            return false;
        }
        let nv = self.num_vars;
        self.keys[p.index()].insert(a.index());
        self.keys[p.index()].insert(b.index());
        let map = &mut self.partners[p.index()];
        let x = map
            .entry(a)
            .or_insert_with(|| S::empty(nv))
            .insert(b.index());
        let y = map
            .entry(b)
            .or_insert_with(|| S::empty(nv))
            .insert(a.index());
        x | y
    }
}

/// O(1) lexical visibility for the closure members: `chain[level]` of a
/// member is its ancestor (or itself) at that nesting level, so `v` is
/// visible in `q` iff it is global or its owner sits at its own level in
/// `q`'s chain.
struct Scope {
    /// `start[q]..start[q] + level(q) + 1` indexes `q`'s chain in `chains`
    /// (unset for procedures outside the closure).
    start: Vec<usize>,
    chains: Vec<ProcId>,
}

impl Scope {
    fn new(program: &Program, in_closure: &[bool]) -> Self {
        let mut start = vec![0; program.num_procs()];
        let mut chains = Vec::new();
        for q in program.procs().filter(|q| in_closure[q.index()]) {
            let from = chains.len();
            start[q.index()] = from;
            chains.push(q);
            chains.extend(program.ancestors(q));
            chains[from..].reverse();
            debug_assert_eq!(chains.len() - from, program.proc_(q).level() as usize + 1);
        }
        Scope { start, chains }
    }

    fn visible(&self, program: &Program, v: VarId, q: ProcId) -> bool {
        match program.var(v).owner() {
            None => true,
            Some(owner) => {
                let level = program.proc_(owner).level() as usize;
                level <= program.proc_(q).level() as usize
                    && self.chains[self.start[q.index()] + level] == owner
            }
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::ProgramBuilder;

    #[test]
    fn no_calls_no_aliases() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert_eq!(aliases.pair_count(b.main()), 0);
        assert!(!aliases.are_aliased(b.main(), g, g));
    }

    #[test]
    fn global_passed_as_formal_aliases_it() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        let main = b.main();
        b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert_eq!(aliases.pair_count(p), 1);
    }

    #[test]
    fn local_passed_as_formal_does_not_alias_in_callee() {
        // The caller's local is not visible inside a *sibling* callee, so
        // no formal-visible pair is introduced.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let q = b.proc_("q", &["x"]);
        b.call(p, q, &[t]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert_eq!(aliases.pair_count(q), 0);
    }

    #[test]
    fn ancestor_local_passed_into_nested_callee_aliases() {
        // p's local is visible inside p's nested procedure; passing it by
        // reference introduces the pair there.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let inner = b.nested_proc(p, "inner", &["x"]);
        b.call(p, inner, &[t]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(inner, b.formal(inner, 0), t));
    }

    #[test]
    fn same_variable_twice_aliases_formals() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x", "y"]);
        let main = b.main();
        let m = b.local(main, "m");
        b.call(main, p, &[m, m]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        // Top-level procedures are nested in main, so main's local *is*
        // visible in p and the formal-visible pair is introduced too.
        assert!(aliases.are_aliased(p, b.formal(p, 0), m));
    }

    #[test]
    fn pairs_propagate_through_chains() {
        // main: call p(g, g)  →  p: call q(x, y)  ⇒ q's formals alias.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["u", "v"]);
        let p = b.proc_("p", &["x", "y"]);
        b.call(p, q, &[b.formal(p, 0), b.formal(p, 1)]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(q, b.formal(q, 0), b.formal(q, 1)));
        assert!(aliases.are_aliased(q, b.formal(q, 0), g));
        assert!(aliases.are_aliased(q, b.formal(q, 1), g));
    }

    #[test]
    fn distinct_actuals_do_not_alias() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x", "y"]);
        let main = b.main();
        b.call(main, p, &[g, h]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(!aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert!(aliases.are_aliased(p, b.formal(p, 1), h));
        assert!(!aliases.are_aliased(p, b.formal(p, 0), h));
    }

    #[test]
    fn recursive_alias_reaches_fixpoint() {
        // p(x, y) calls p(y, x): pairs swap positions; the fixpoint must
        // be reached and stay symmetric.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let _h = b.global("h");
        let p = b.proc_("p", &["x", "y"]);
        b.call(p, p, &[b.formal(p, 1), b.formal(p, 0)]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert!(aliases.are_aliased(p, b.formal(p, 1), g));
    }

    #[test]
    fn extend_with_aliases_implements_step_two() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        let main = b.main();
        b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        let mut dmod = BitSet::new(program.num_vars());
        dmod.insert(b.formal(p, 0).index());
        let extended = aliases.extend_with_aliases(p, &dmod);
        assert!(extended.contains(g.index()));
        assert!(!extended.contains(h.index()));
        assert!(extended.contains(b.formal(p, 0).index()));
    }
}
