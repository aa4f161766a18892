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
//! # Representation: one sorted row per procedure
//!
//! `ALIAS(p)` is one contiguous row of `(var, partner)` entries, holding
//! each pair in both directions and sorted, so the relation costs 16
//! bytes a pair: a depth-4 `pascal_like(500, 4)` program carries ~34,000
//! pairs in about 550 KB of entries, where one `|V|`-wide partner set per
//! (procedure, variable) took about 5 MB. Membership is a binary search
//! in the row, the partners of `v` are one run of it, and §5 step (2)
//! ([`AliasPairs::extend_with_aliases`]) walks the caller's row once per
//! site — `O(|ALIAS(p)|)` set probes plus one insert per partner found.
//! Two relations are equal iff their rows are, so comparing `ALIAS(p)`
//! before and after an edit is a slice comparison.
//!
//! While a solve runs, the pairs it adds are appended unsorted to their
//! rows and recorded in a membership index keyed on the packed
//! `(p, min(x, y), max(x, y))`, hashed by a seeded multiplicative mixer;
//! when the solve stops — done or interrupted — every grown row is sorted
//! again.
//!
//! # Solving: one new pair at a time
//!
//! The relation is not small on nested programs, so the solver is
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
//!
//! # Maintenance across structural edits
//!
//! [`AliasPairs::update_guarded`] carries the relation across an edit
//! that keeps every procedure and variable id (`add-call`, `remove-call`,
//! `rebind`, a formal-less `add-proc`) without solving again. A site is
//! *inserted* if its new id is outside the edit's site map, *removed* if
//! its old id maps to nothing, and a site whose caller, callee or actuals
//! changed (a `rebind`) is both.
//!
//! * **Insertion** is the solver resumed: push the inserted site's seeds,
//!   push each existing pair of its caller through that one site, and
//!   propagate. It costs the site's seeds, `|ALIAS(caller)|`, and the new
//!   pairs times their out-degree.
//! * **Removal** is delete-and-rederive (DRed; Gupta, Mumick &
//!   Subrahmanian, SIGMOD 1993). (1) Over-delete `D`: every pair the
//!   removed sites derive in the pre-edit program, closed under the delta
//!   rules through every out-site. A pair outside `D` has no one-step
//!   derivation that uses a removed site or a pair of `D`, so by induction
//!   on derivation height it survives the edit. (2) Re-derive: drop `D`,
//!   then keep each pair of `D` that some in-site of its procedure in the
//!   post-edit program derives in one step from what is left — each rule
//!   reads at most one caller pair, so the check is `O(arity)` lookups
//!   per in-site. (3) Propagate the re-derived pairs like any insertion.
//!   It costs `O(|D| · (outdeg + indeg) · arity)` plus what step (3)
//!   adds back: support that only ran around a cycle through the removed
//!   site is gone for good, because step (2) never reads a pair of `D`
//!   that was not re-derived first.
//!
//! The update reports the procedures whose relation changed net, which is
//! what decides whether a caller's cached `MOD` factoring is stale.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher};

use modref_bitset::EffectSet;
use modref_guard::{Guard, Interrupt};
use modref_ir::{CallSite, CallSiteId, EditDelta, ProcId, Program, VarId};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasPairs {
    /// `rows[p]` = `ALIAS(p)` as `(var, partner)` entries, each pair in
    /// both directions, sorted and without duplicates (see the module
    /// docs).
    rows: Vec<Vec<(VarId, VarId)>>,
}

/// What [`AliasPairs::update_guarded`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AliasChange {
    /// Procedures whose `ALIAS` differs from the pre-edit relation, in id
    /// order.
    pub changed: Vec<ProcId>,
    /// Pairs the post-edit relation has and the pre-edit one lacked.
    pub pairs_added: usize,
    /// Pairs the pre-edit relation had and the post-edit one lacks.
    pub pairs_removed: usize,
    /// Pairs the deletion step removed before re-deriving — the removal
    /// side's work, `≥ pairs_removed`.
    pub pairs_overdeleted: usize,
    /// Work items processed, as charged to the guard.
    pub(crate) items: u64,
}

impl AliasPairs {
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
    /// still converges to the exact fixpoint. An interrupted solve keeps
    /// the (sound) pairs it added. Returns the number of work items
    /// processed (sites seeded plus pairs propagated), which is also the
    /// number of boolean steps charged to `guard`.
    pub(crate) fn solve_closure_guarded(
        &mut self,
        program: &Program,
        in_closure: &[bool],
        guard: &Guard,
    ) -> Result<u64, Interrupt> {
        let rules = Rules::new(program, in_closure);
        let out = SiteIndex::build(program, |site| {
            in_closure[site.callee().index()].then_some(site.caller())
        });
        let mut f = Frontier::new(&mut self.rows, program, Ticker::new(guard));
        let solved = solve_closure(&mut f, &rules, &out, in_closure);
        let items = f.finish(solved.is_ok());
        solved.map(|()| items)
    }

    /// Carries `self`, the exact relation of `before`, across the edit
    /// `delta` to the exact relation of `after` by insertion and
    /// delete-and-rederive (see the module docs), and reports what changed.
    /// The edit must keep every procedure and variable id (its
    /// `proc_map` and `var_map` are identities up to `before`'s sizes);
    /// sites may be renumbered, added and removed. Passes the `alias`
    /// checkpoint and charges one boolean step per work item, as
    /// [`AliasPairs::compute_guarded`] does.
    ///
    /// # Errors
    ///
    /// Returns the guard's [`Interrupt`] if it trips; the relation is
    /// consumed, because mid-deletion it is neither the old nor a sound
    /// part of the new one.
    pub fn update_guarded(
        mut self,
        before: &Program,
        after: &Program,
        delta: &EditDelta,
        guard: &Guard,
    ) -> Result<(Self, AliasChange), Interrupt> {
        guard.checkpoint("alias")?;
        debug_assert!(
            delta
                .proc_map
                .iter()
                .enumerate()
                .all(|(i, m)| m.map(ProcId::index) == Some(i))
                && delta.var_map.len() == after.num_vars()
                && delta
                    .var_map
                    .iter()
                    .enumerate()
                    .all(|(i, m)| m.map(VarId::index) == Some(i)),
            "an alias update needs an edit that keeps procedure and variable ids"
        );
        let (removed, inserted) = changed_sites(before, after, delta);
        let mut tick = Ticker::new(guard);
        let mut dead = Dead {
            set: PairSet::new(after),
            list: Vec::new(),
        };
        self.over_delete(before, &removed, &mut dead, &mut tick)?;

        // (2) Drop the over-deleted pairs and re-derive what survives,
        // insert the new sites, and (3) propagate.
        let np = after.num_procs();
        let mut lost = vec![0usize; np];
        for &(q, _, _) in &dead.list {
            lost[q.index()] += 1;
        }
        for (q, row) in self.rows.iter_mut().enumerate() {
            if lost[q] > 0 {
                let q = ProcId::new(q);
                row.retain(|&(a, b)| !dead.set.contains(q, a, b));
            }
        }
        let all_after = vec![true; np];
        let rules = Rules::new(after, &all_after);
        let out = SiteIndex::build(after, |site| Some(site.caller()));
        let into = SiteIndex::build(after, |site| Some(site.callee()));
        let mut f = Frontier::new(&mut self.rows, after, tick);
        let maintained = rederive(&mut f, &rules, &out, &into, &inserted, &dead.list);
        let mut change = AliasChange {
            pairs_overdeleted: dead.list.len(),
            ..AliasChange::default()
        };
        let mut gained = vec![false; np];
        if maintained.is_ok() {
            for &p in &f.grown {
                for &(a, b) in &f.rows[p.index()][f.base[p.index()]..] {
                    if a > b {
                        continue;
                    }
                    if dead.set.contains(p, a, b) {
                        lost[p.index()] -= 1;
                    } else {
                        gained[p.index()] = true;
                        change.pairs_added += 1;
                    }
                }
            }
        }
        change.items = f.finish(maintained.is_ok());
        maintained?;
        change.pairs_removed = lost.iter().sum();
        change.changed = (0..np)
            .filter(|&p| lost[p] > 0 || gained[p])
            .map(ProcId::new)
            .collect();
        Ok((self, change))
    }

    /// Step (1) of an update: collects in `dead` every pair the `removed`
    /// sites of `before` derive from `self`, its relation, closed under
    /// the delta rules through every out-site.
    fn over_delete(
        &self,
        before: &Program,
        removed: &[CallSiteId],
        dead: &mut Dead,
        tick: &mut Ticker<'_>,
    ) -> Result<(), Interrupt> {
        let all = vec![true; before.num_procs()];
        let rules = Rules::new(before, &all);
        let out = SiteIndex::build(before, |site| Some(site.caller()));
        for &s in removed {
            tick.tick()?;
            rules.seeds(s, &mut |q, a, b| dead.kill(q, a, b));
            for &(x, y) in &self.rows[before.site(s).caller().index()] {
                if x < y {
                    tick.tick()?;
                    rules.through(s, x, y, &mut |q, a, b| dead.kill(q, a, b));
                }
            }
        }
        let mut next = 0;
        while let Some(&(r, x, y)) = dead.list.get(next) {
            next += 1;
            tick.tick()?;
            for &s in out.of(r) {
                rules.through(s, x, y, &mut |q, a, b| dead.kill(q, a, b));
            }
        }
        debug_assert!(dead.list.iter().all(|&(q, a, b)| self.are_aliased(q, a, b)));
        Ok(())
    }

    /// `true` if `⟨a, b⟩ ∈ ALIAS(p)`. Irreflexive: `are_aliased(p, v, v)`
    /// is `false`.
    pub fn are_aliased(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.rows[p.index()].binary_search(&(a, b)).is_ok()
    }

    /// The alias partners of `v` inside `p`, ascending.
    pub fn partners_of(&self, p: ProcId, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        let row = &self.rows[p.index()];
        let from = row.partition_point(|&(a, _)| a < v);
        row[from..]
            .iter()
            .take_while(move |&&(a, _)| a == v)
            .map(|&(_, b)| b)
    }

    /// `true` if `ALIAS(p)` is the same relation in `self` and `other`
    /// (two relations over the same program, or over an edit of it that
    /// kept procedure and variable ids). A procedure only one side has
    /// compares unequal.
    pub fn same_pairs(&self, other: &Self, p: ProcId) -> bool {
        match (self.rows.get(p.index()), other.rows.get(p.index())) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Number of (unordered) pairs in `ALIAS(p)`.
    pub fn pair_count(&self, p: ProcId) -> usize {
        self.rows[p.index()].len() / 2
    }

    /// §5 step (2): extends `set` with every alias partner (in `p`) of its
    /// members. Returns the extended set; one walk over `ALIAS(p)`'s row,
    /// probing `set` once per variable with partners.
    pub fn extend_with_aliases<S: EffectSet>(&self, p: ProcId, set: &S) -> S {
        let mut out = set.clone();
        for run in self.rows[p.index()].chunk_by(|a, b| a.0 == b.0) {
            if set.contains(run[0].0.index()) {
                for &(_, partner) in run {
                    out.insert(partner.index());
                }
            }
        }
        out
    }

    /// An all-empty alias relation (used when alias analysis is disabled).
    pub(crate) fn empty_impl(program: &Program) -> Self {
        AliasPairs {
            rows: vec![Vec::new(); program.num_procs()],
        }
    }
}

/// The closure solve of [`AliasPairs::solve_closure_guarded`]: queue the
/// members' existing pairs, seed every site, propagate.
fn solve_closure(
    f: &mut Frontier<'_>,
    rules: &Rules<'_>,
    out: &SiteIndex,
    in_closure: &[bool],
) -> Result<(), Interrupt> {
    let program = rules.program;
    // Start state: the closure members' existing pairs, once each
    // (`x < y`), in id order.
    for p in program.procs().filter(|p| in_closure[p.index()]) {
        let row = &f.rows[p.index()];
        f.work
            .extend(row.iter().filter(|&&(x, y)| x < y).map(|&(x, y)| (p, x, y)));
    }
    // Seeds: R1 for identical actuals and R2 read only the site.
    for p in program.procs() {
        for &s in out.of(p) {
            f.tick.tick()?;
            rules.seeds(s, &mut |q, a, b| f.add(q, a, b));
        }
    }
    f.run(rules, out)
}

/// Steps (2)–(3) of an update, after the over-deleted pairs are gone:
/// the inserted sites' seeds and caller pushes, the one-step re-derivation
/// of each over-deleted pair, then propagation.
fn rederive(
    f: &mut Frontier<'_>,
    rules: &Rules<'_>,
    out: &SiteIndex,
    into: &SiteIndex,
    inserted: &[CallSiteId],
    dead: &[(ProcId, VarId, VarId)],
) -> Result<(), Interrupt> {
    for &s in inserted {
        f.tick.tick()?;
        rules.seeds(s, &mut |q, a, b| f.add(q, a, b));
        let caller = rules.program.site(s).caller();
        let pairs: Vec<(VarId, VarId)> = f.rows[caller.index()]
            .iter()
            .copied()
            .filter(|&(x, y)| x < y)
            .collect();
        for (x, y) in pairs {
            f.tick.tick()?;
            rules.through(s, x, y, &mut |q, a, b| f.add(q, a, b));
        }
    }
    for &(q, u, v) in dead {
        f.tick.tick()?;
        if !f.has(q, u, v)
            && into
                .of(q)
                .iter()
                .any(|&s| rules.derives(s, u, v, |p, a, b| f.has(p, a, b)))
        {
            f.add(q, u, v);
        }
    }
    f.run(rules, out)
}

/// The old sites an edit removed and the new sites it inserted; a site
/// that survived with a different caller, callee or actual list is both.
fn changed_sites(
    before: &Program,
    after: &Program,
    delta: &EditDelta,
) -> (Vec<CallSiteId>, Vec<CallSiteId>) {
    let mut removed = Vec::new();
    let mut kept = vec![false; after.num_sites()];
    for (old, new) in delta.site_map.iter().enumerate() {
        let old = CallSiteId::new(old);
        match new {
            Some(new) if before.site(old) == after.site(*new) => kept[new.index()] = true,
            _ => removed.push(old),
        }
    }
    let inserted = after.sites().filter(|s| !kept[s.index()]).collect();
    (removed, inserted)
}

/// The over-deleted pairs of an update: membership plus discovery order,
/// which doubles as the deletion worklist.
struct Dead {
    set: PairSet,
    list: Vec<(ProcId, VarId, VarId)>,
}

impl Dead {
    fn kill(&mut self, q: ProcId, a: VarId, b: VarId) {
        if a != b && self.set.insert(q, a, b) {
            self.list.push((q, a.min(b), a.max(b)));
        }
    }
}

/// The rules R1–R4 over one program, written once for the solver, the
/// over-deletion and the re-derivation.
struct Rules<'a> {
    program: &'a Program,
    scope: Scope,
}

impl<'a> Rules<'a> {
    fn new(program: &'a Program, in_closure: &[bool]) -> Self {
        Rules {
            program,
            scope: Scope::new(program, in_closure),
        }
    }

    fn visible(&self, v: VarId, q: ProcId) -> bool {
        self.scope.visible(self.program, v, q)
    }

    /// R1 for identical actuals and R2: what site `s` derives from nothing.
    fn seeds(&self, s: CallSiteId, emit: &mut impl FnMut(ProcId, VarId, VarId)) {
        let site = self.program.site(s);
        let callee = site.callee();
        let formals = self.program.proc_(callee).formals();
        let args = site.args();
        for (i, ai) in args.iter().enumerate() {
            let Some(ai) = ai.as_ref_var() else { continue };
            let fi = formals[i];
            for (j, aj) in args.iter().enumerate().skip(i + 1) {
                if aj.as_ref_var() == Some(ai) {
                    emit(callee, fi, formals[j]);
                }
            }
            if self.visible(ai, callee) {
                emit(callee, fi, ai);
            }
        }
    }

    /// R1 for aliased actuals, R3 and R4: what the caller pair `⟨x, y⟩`
    /// derives through site `s`.
    fn through(
        &self,
        s: CallSiteId,
        x: VarId,
        y: VarId,
        emit: &mut impl FnMut(ProcId, VarId, VarId),
    ) {
        let site = self.program.site(s);
        let callee = site.callee();
        let formals = self.program.proc_(callee).formals();
        let args = site.args();
        let x_vis = self.visible(x, callee);
        let y_vis = self.visible(y, callee);
        if x_vis && y_vis {
            emit(callee, x, y);
        }
        for (i, ai) in args.iter().enumerate() {
            let ai = ai.as_ref_var();
            if ai == Some(x) {
                if y_vis {
                    emit(callee, formals[i], y);
                }
                for (j, aj) in args.iter().enumerate() {
                    if j != i && aj.as_ref_var() == Some(y) {
                        emit(callee, formals[i], formals[j]);
                    }
                }
            } else if ai == Some(y) && x_vis {
                emit(callee, formals[i], x);
            }
        }
    }

    /// `true` if site `s` derives `⟨u, v⟩` in its callee in one step,
    /// from nothing or from a caller pair `has` holds — [`Rules::seeds`]
    /// and [`Rules::through`] read backwards.
    fn derives(
        &self,
        s: CallSiteId,
        u: VarId,
        v: VarId,
        has: impl Fn(ProcId, VarId, VarId) -> bool,
    ) -> bool {
        let site = self.program.site(s);
        let (caller, callee) = (site.caller(), site.callee());
        let formals = self.program.proc_(callee).formals();
        let args = site.args();
        let u_vis = self.visible(u, callee);
        let v_vis = self.visible(v, callee);
        // R4.
        if u_vis && v_vis && has(caller, u, v) {
            return true;
        }
        for (a, b, b_vis) in [(u, v, v_vis), (v, u, u_vis)] {
            let Some(i) = formals.iter().position(|&f| f == a) else {
                continue;
            };
            let Some(ai) = args[i].as_ref_var() else {
                continue;
            };
            // R2 and R3: `⟨fᵢ, b⟩` from `aᵢ = b` or `⟨aᵢ, b⟩ ∈ ALIAS(p)`.
            if b_vis && (ai == b || has(caller, ai, b)) {
                return true;
            }
            // R1: `⟨fᵢ, fⱼ⟩` from `aᵢ = aⱼ` or `⟨aᵢ, aⱼ⟩ ∈ ALIAS(p)`.
            if let Some(j) = formals.iter().position(|&f| f == b) {
                if let Some(aj) = args[j].as_ref_var() {
                    if ai == aj || has(caller, ai, aj) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// The sites of each procedure under one key (caller or callee), in id
/// order, as one flat array with offsets.
struct SiteIndex {
    start: Vec<usize>,
    sites: Vec<CallSiteId>,
}

impl SiteIndex {
    /// Files every site `key` maps to a procedure under that procedure.
    fn build(program: &Program, key: impl Fn(&CallSite) -> Option<ProcId>) -> Self {
        let keys: Vec<Option<ProcId>> = program.sites().map(|s| key(program.site(s))).collect();
        let mut start = vec![0usize; program.num_procs() + 1];
        for p in keys.iter().flatten() {
            start[p.index() + 1] += 1;
        }
        for i in 0..program.num_procs() {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut sites = vec![CallSiteId::new(0); start[program.num_procs()]];
        for (s, p) in keys.iter().enumerate() {
            if let Some(p) = p {
                sites[fill[p.index()]] = CallSiteId::new(s);
                fill[p.index()] += 1;
            }
        }
        SiteIndex { start, sites }
    }

    fn of(&self, p: ProcId) -> &[CallSiteId] {
        &self.sites[self.start[p.index()]..self.start[p.index() + 1]]
    }
}

/// One boolean step per work item, with a guard poll every 64.
struct Ticker<'a> {
    guard: &'a Guard,
    items: u64,
}

impl<'a> Ticker<'a> {
    fn new(guard: &'a Guard) -> Self {
        Ticker { guard, items: 0 }
    }

    fn tick(&mut self) -> Result<(), Interrupt> {
        self.items += 1;
        if self.items.is_multiple_of(64) {
            self.guard.charge(0, 64);
            self.guard.check()?;
        }
        Ok(())
    }
}

/// A solve in progress over a relation's rows: `rows[p][..base[p]]` is
/// the sorted relation the solve started from, and entries past it are
/// the pairs this solve added, unsorted, with their membership in `added`.
struct Frontier<'a> {
    rows: &'a mut Vec<Vec<(VarId, VarId)>>,
    base: Vec<usize>,
    added: PairSet,
    /// Procedures whose row grew, in first-growth order.
    grown: Vec<ProcId>,
    work: Vec<(ProcId, VarId, VarId)>,
    tick: Ticker<'a>,
}

impl<'a> Frontier<'a> {
    fn new(rows: &'a mut Vec<Vec<(VarId, VarId)>>, program: &Program, tick: Ticker<'a>) -> Self {
        rows.resize_with(program.num_procs(), Vec::new);
        let base = rows.iter().map(Vec::len).collect();
        Frontier {
            rows,
            base,
            added: PairSet::new(program),
            grown: Vec::new(),
            work: Vec::new(),
            tick,
        }
    }

    fn has(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.rows[p.index()][..self.base[p.index()]]
            .binary_search(&(a, b))
            .is_ok()
            || self.added.contains(p, a, b)
    }

    /// Adds `⟨a, b⟩` to `ALIAS(p)` and queues it if it is new.
    fn add(&mut self, p: ProcId, a: VarId, b: VarId) {
        if a == b
            || self.rows[p.index()][..self.base[p.index()]]
                .binary_search(&(a, b))
                .is_ok()
            || !self.added.insert(p, a, b)
        {
            return;
        }
        let row = &mut self.rows[p.index()];
        if row.len() == self.base[p.index()] {
            self.grown.push(p);
        }
        row.push((a, b));
        row.push((b, a));
        self.work.push((p, a, b));
    }

    /// Delta rules: R1 (aliased actuals), R3 and R4, one new pair at a
    /// time.
    fn run(&mut self, rules: &Rules<'_>, out: &SiteIndex) -> Result<(), Interrupt> {
        while let Some((p, x, y)) = self.work.pop() {
            self.tick.tick()?;
            for &s in out.of(p) {
                rules.through(s, x, y, &mut |q, a, b| self.add(q, a, b));
            }
        }
        Ok(())
    }

    /// Sorts every grown row again, charges the items since the last poll
    /// (on success, as the last poll would have), and returns the item
    /// count.
    fn finish(self, ok: bool) -> u64 {
        for &p in &self.grown {
            self.rows[p.index()].sort_unstable();
        }
        let items = self.tick.items;
        if ok {
            self.tick.guard.charge(0, items % 64);
        }
        items
    }
}

/// A set of `(procedure, pair)` keys packed into one `u64` —
/// `p · V² + min · V + max` in bit fields — hashed by [`Mix`].
struct PairSet {
    set: HashSet<u64, MixState>,
    shift: u32,
}

impl PairSet {
    fn new(program: &Program) -> Self {
        let bits = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        let shift = bits(program.num_vars());
        assert!(
            bits(program.num_procs()) + 2 * shift <= 64,
            "alias pair keys need {} procedure and 2 × {shift} variable bits",
            bits(program.num_procs())
        );
        PairSet {
            set: HashSet::with_hasher(MixState::new()),
            shift,
        }
    }

    fn key(&self, p: ProcId, a: VarId, b: VarId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        ((p.index() as u64) << (2 * self.shift))
            | ((lo.index() as u64) << self.shift)
            | hi.index() as u64
    }

    fn insert(&mut self, p: ProcId, a: VarId, b: VarId) -> bool {
        let key = self.key(p, a, b);
        self.set.insert(key)
    }

    fn contains(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.set.contains(&self.key(p, a, b))
    }
}

/// A multiplicative mixer for the packed pair keys: one multiply by a
/// per-set random odd constant and a fold of the high half into the low
/// bits that pick the bucket. The keys are dense ids, so the standard
/// library's SipHash buys nothing but cost; the random multiplier keeps
/// a program's shape from choosing collisions.
#[derive(Clone)]
struct MixState(u64);

impl MixState {
    fn new() -> Self {
        MixState(RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for MixState {
    type Hasher = Mix;

    fn build_hasher(&self) -> Mix {
        Mix {
            mul: self.0,
            hash: 0,
        }
    }
}

/// See [`MixState`].
struct Mix {
    mul: u64,
    hash: u64,
}

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.hash ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(self.mul);
        self.hash = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.hash
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
    use modref_bitset::{BitSet, HybridSet};
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
        // The same walk over any set representation.
        let hybrid = aliases.extend_with_aliases(p, &HybridSet::from_dense(&dmod));
        assert_eq!(hybrid.to_dense(), extended);
    }

    #[test]
    fn rows_list_each_pair_both_ways_in_order() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x", "y"]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        let (x, y) = (b.formal(p, 0), b.formal(p, 1));
        assert_eq!(aliases.pair_count(p), 3);
        let mut want = vec![(x, y), (y, x), (x, g), (g, x), (y, g), (g, y)];
        want.sort_unstable();
        assert_eq!(aliases.rows[p.index()], want);
        let mut partners: Vec<VarId> = aliases.partners_of(p, x).collect();
        partners.sort_unstable();
        let mut expected = vec![y, g];
        expected.sort_unstable();
        assert_eq!(partners, expected);
        assert!(aliases.same_pairs(&aliases.clone(), p));
    }
}
