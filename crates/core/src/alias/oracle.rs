//! The differential walls for the alias solver and its maintenance.
//!
//! [`Oracle::solve_closure_by_sites`] is the site-at-a-time worklist the
//! pair-at-a-time solver replaced: pop a call site, re-derive its whole
//! transfer (rules R1–R4 of the module docs) from the caller's full
//! relation, and re-queue every site of the callee on any change. It is
//! slow — every pop walks every caller pair — but each rule is written out
//! directly, and it keeps its relation in its own per-procedure
//! `BTreeSet`s, sharing no storage or rule code with the solver, so it
//! serves as the oracle here. The production solver must reproduce its
//! relation exactly, row for row, on:
//!
//! * the exhaustive ≤4-procedure corpus (flat, binding, nested and
//!   recursive shapes, every call-edge subset);
//! * seeded `pascal_like` / `fortran_like` / `alias_heavy` programs;
//! * closure-restricted solves, started from empty and from a partially
//!   accumulated relation (a smaller closure solved first, or a solve cut
//!   short by a budget), which must equal the full relation on every
//!   closure member.
//!
//! The maintenance wall edits every site of every corpus program, and
//! sampled sites of the seeded ones: the relation of `P` carried across
//! the removal of site `s` by [`AliasPairs::update_guarded`] must equal
//! the oracle on `P − s`, the relation of `P − s` carried across
//! re-inserting `s` must equal the oracle on `P`, and a `rebind` must land
//! on the oracle too; each update must also name exactly the procedures
//! whose relation changed.
//!
//! Replay a sweep failure with
//! `MODREF_SEED=<seed> cargo test -p modref-core --lib alias::oracle`.

use std::collections::{BTreeSet, VecDeque};

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_guard::{Budget, Guard};
use modref_ir::{Actual, CallSiteId, Edit, ProcId, Program, ProgramBuilder, VarId};
use modref_progen::{generate, workloads, GenConfig};

use super::AliasPairs;

/// The oracle's relation: `sets[p]` holds `ALIAS(p)` with each pair in
/// both directions.
struct Oracle {
    sets: Vec<BTreeSet<(VarId, VarId)>>,
}

impl Oracle {
    /// The oracle's full-program relation.
    fn compute(program: &Program) -> Self {
        let mut result = Oracle {
            sets: vec![BTreeSet::new(); program.num_procs()],
        };
        result.solve_closure_by_sites(program, &vec![true; program.num_procs()]);
        result
    }

    fn are_aliased(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.sets[p.index()].contains(&(a, b))
    }

    fn partners_of(&self, p: ProcId, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.sets[p.index()]
            .range((v, VarId::new(0))..)
            .take_while(move |&&(a, _)| a == v)
            .map(|&(_, b)| b)
    }

    fn add_pair(&mut self, p: ProcId, a: VarId, b: VarId) -> bool {
        if a == b {
            return false;
        }
        let set = &mut self.sets[p.index()];
        set.insert((a, b)) | set.insert((b, a))
    }

    /// The site-worklist solve restricted to sites whose callee lies in
    /// `in_closure`.
    fn solve_closure_by_sites(&mut self, program: &Program, in_closure: &[bool]) {
        let mut sites_of_caller: Vec<Vec<usize>> = vec![Vec::new(); program.num_procs()];
        for s in program.sites() {
            sites_of_caller[program.site(s).caller().index()].push(s.index());
        }
        let mut queue: VecDeque<usize> = (0..program.num_sites())
            .filter(|&s| in_closure[program.site(CallSiteId::new(s)).callee().index()])
            .collect();
        let mut queued = vec![false; program.num_sites()];
        for &s in &queue {
            queued[s] = true;
        }
        while let Some(site_idx) = queue.pop_front() {
            queued[site_idx] = false;
            let site = program.site(CallSiteId::new(site_idx));
            let caller = site.caller();
            let callee = site.callee();
            let formals = program.proc_(callee).formals().to_vec();
            let ref_actuals: Vec<Option<VarId>> =
                site.args().iter().map(Actual::as_ref_var).collect();

            let mut changed = false;
            for (i, &ai) in ref_actuals.iter().enumerate() {
                let Some(ai) = ai else { continue };
                let fi = formals[i];
                // R1: formal-formal pairs.
                for (j, &aj) in ref_actuals.iter().enumerate().skip(i + 1) {
                    let Some(aj) = aj else { continue };
                    if ai == aj || self.are_aliased(caller, ai, aj) {
                        changed |= self.add_pair(callee, fi, formals[j]);
                    }
                }
                // R2: the actual itself …
                if program.visible_in(ai, callee) && ai != fi {
                    changed |= self.add_pair(callee, fi, ai);
                }
                // R3: … and its surviving partners.
                let survivors: Vec<VarId> = self
                    .partners_of(caller, ai)
                    .filter(|&w| program.visible_in(w, callee) && w != fi)
                    .collect();
                for w in survivors {
                    changed |= self.add_pair(callee, fi, w);
                }
            }
            // R4: caller pairs whose members both survive into the callee.
            let inherited: Vec<(VarId, VarId)> = self.sets[caller.index()]
                .iter()
                .copied()
                .filter(|&(x, y)| program.visible_in(x, callee) && program.visible_in(y, callee))
                .collect();
            for (x, y) in inherited {
                changed |= self.add_pair(callee, x, y);
            }

            if changed {
                for &s2 in &sites_of_caller[callee.index()] {
                    let s2_callee = program.site(CallSiteId::new(s2)).callee();
                    if !queued[s2] && in_closure[s2_callee.index()] {
                        queued[s2] = true;
                        queue.push_back(s2);
                    }
                }
            }
        }
    }
}

/// First difference between the oracle's pair sets and the solver's rows
/// on the procedures `on` selects. A row must list exactly the oracle's
/// pairs, both directions, sorted, once each.
fn diff_relations(
    want: &Oracle,
    got: &AliasPairs,
    on: impl Fn(ProcId) -> bool,
    program: &Program,
) -> Option<String> {
    if got.rows.len() != program.num_procs() {
        return Some(format!(
            "{} rows for {} procedures",
            got.rows.len(),
            program.num_procs()
        ));
    }
    for p in program.procs().filter(|&p| on(p)) {
        let want_row: Vec<(VarId, VarId)> = want.sets[p.index()].iter().copied().collect();
        if want_row != got.rows[p.index()] {
            return Some(format!(
                "pairs of {p} differ: oracle {want_row:?}, solver {:?}",
                got.rows[p.index()]
            ));
        }
    }
    None
}

/// The full relation under the production solver must equal the oracle's.
fn check_full(program: &Program, ctx: &str) -> CaseResult {
    let want = Oracle::compute(program);
    let got = AliasPairs::compute(program);
    match diff_relations(&want, &got, |_| true, program) {
        Some(d) => CaseResult::Fail(format!("{ctx}: {d}")),
        None => CaseResult::Pass,
    }
}

/// The ancestor closure of `p`: every procedure that can transitively
/// call it, plus `p` — closed under "callers of".
fn ancestor_closure(program: &Program, p: ProcId) -> Vec<bool> {
    let mut in_closure = vec![false; program.num_procs()];
    in_closure[p.index()] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for s in program.sites() {
            let site = program.site(s);
            if in_closure[site.callee().index()] && !in_closure[site.caller().index()] {
                in_closure[site.caller().index()] = true;
                changed = true;
            }
        }
    }
    in_closure
}

/// Closure-restricted solves must equal the full relation on every
/// closure member, from empty, after a smaller closure, and after a solve
/// a budget cut short.
fn check_closures(program: &Program, pick: u64, ctx: &str) -> CaseResult {
    let full = Oracle::compute(program);
    let np = program.num_procs() as u64;
    let target = ProcId::new((pick % np) as usize);
    let other = ProcId::new((pick / np % np) as usize);
    let closure = ancestor_closure(program, target);
    let member = |p: ProcId| closure[p.index()];

    let unlimited = Guard::unlimited();
    let mut from_empty = AliasPairs::empty_impl(program);
    from_empty
        .solve_closure_guarded(program, &closure, &unlimited)
        .expect("unlimited");
    if let Some(d) = diff_relations(&full, &from_empty, member, program) {
        return CaseResult::Fail(format!("{ctx}: closure of {target} from empty: {d}"));
    }

    let mut after_smaller = AliasPairs::empty_impl(program);
    after_smaller
        .solve_closure_guarded(program, &ancestor_closure(program, other), &unlimited)
        .expect("unlimited");
    after_smaller
        .solve_closure_guarded(program, &closure, &unlimited)
        .expect("unlimited");
    if let Some(d) = diff_relations(&full, &after_smaller, member, program) {
        return CaseResult::Fail(format!(
            "{ctx}: closure of {target} after closure of {other}: {d}"
        ));
    }

    // Budgets of 64 and 128 boolean steps cut the solve at its first or
    // second poll — mid-worklist on every program with enough items.
    for cap in [64u64, 128] {
        let mut resumed = AliasPairs::empty_impl(program);
        let tight = Guard::new(&Budget::unlimited().with_bool_steps(cap));
        let _ = resumed.solve_closure_guarded(program, &closure, &tight);
        // Whatever the cut left behind is sound and still sorted …
        for p in program.procs() {
            let row = &resumed.rows[p.index()];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return CaseResult::Fail(format!("{ctx}: cap {cap} left {p}'s row unsorted"));
            }
            if row.iter().any(|&(a, b)| !full.are_aliased(p, a, b)) {
                return CaseResult::Fail(format!("{ctx}: cap {cap} left an unsound pair at {p}"));
            }
        }
        // … and a resumed solve reaches the exact relation.
        resumed
            .solve_closure_guarded(program, &closure, &unlimited)
            .expect("unlimited");
        if let Some(d) = diff_relations(&full, &resumed, member, program) {
            return CaseResult::Fail(format!(
                "{ctx}: closure of {target} resumed after cap {cap}: {d}"
            ));
        }
    }
    CaseResult::Pass
}

/// Carries `old`, the exact relation of `before`, across `edit` and
/// checks the result against `want` — the oracle on the edited program,
/// computed here when not given — and the reported change against the two
/// relations. Returns the carried relation; a rejected edit checks nothing.
fn check_update(
    before: &Program,
    old: &AliasPairs,
    edit: &Edit,
    want: Option<&Oracle>,
    ctx: &str,
) -> Result<Option<AliasPairs>, String> {
    let Ok((after, delta)) = before.apply_edit(edit) else {
        return Ok(None);
    };
    let (got, change) = old
        .clone()
        .update_guarded(before, &after, &delta, &Guard::unlimited())
        .expect("unlimited");
    let computed;
    let want = match want {
        Some(w) => w,
        None => {
            computed = Oracle::compute(&after);
            &computed
        }
    };
    if let Some(d) = diff_relations(want, &got, |_| true, &after) {
        return Err(format!("{ctx}: after {edit:?}: {d}"));
    }
    let mut changed = Vec::new();
    let (mut added, mut removed) = (0, 0);
    for p in after.procs() {
        let old_row: &[(VarId, VarId)] = old.rows.get(p.index()).map_or(&[], |r| &r[..]);
        let new_row = &got.rows[p.index()];
        if old_row != &new_row[..] {
            changed.push(p);
        }
        added += new_row
            .iter()
            .filter(|&&(a, b)| a < b && old_row.binary_search(&(a, b)).is_err())
            .count();
        removed += old_row
            .iter()
            .filter(|&&(a, b)| a < b && new_row.binary_search(&(a, b)).is_err())
            .count();
    }
    if (&change.changed, change.pairs_added, change.pairs_removed) != (&changed, added, removed) {
        return Err(format!(
            "{ctx}: after {edit:?}: reported {:?} +{} -{}, actual {changed:?} +{added} -{removed}",
            change.changed, change.pairs_added, change.pairs_removed
        ));
    }
    if change.pairs_overdeleted < removed {
        return Err(format!(
            "{ctx}: after {edit:?}: {removed} pairs removed but only {} over-deleted",
            change.pairs_overdeleted
        ));
    }
    Ok(Some(got))
}

/// Site `s` of `program` removed (carried from `full`, the exact relation
/// of `program`), re-inserted (carried from the removal's result, and
/// checked against `oracle`, the oracle on `program`: moving a site to the
/// end changes no pair), and its second actual rebound to its first.
fn check_site_edits(
    program: &Program,
    full: &AliasPairs,
    oracle: &Oracle,
    s: CallSiteId,
    ctx: &str,
) -> Result<(), String> {
    let ctx = format!("{ctx} site {s}");
    let site = program.site(s);
    let remove = Edit::RemoveCallSite { site: s };
    let (minus, _) = program
        .apply_edit(&remove)
        .expect("a listed site is removable");
    let shrunk = check_update(program, full, &remove, None, &ctx)?.expect("applied above");
    let reinsert = Edit::AddCallSite {
        caller: site.caller(),
        callee: site.callee(),
        args: site.args().to_vec(),
    };
    check_update(&minus, &shrunk, &reinsert, Some(oracle), &ctx)?;
    if site.args().len() >= 2 {
        let rebind = Edit::RebindActual {
            site: s,
            position: 1,
            actual: site.args()[0].clone(),
        };
        check_update(program, full, &rebind, None, &ctx)?;
    }
    Ok(())
}

/// [`check_site_edits`] on each of `sites`.
fn check_sites(
    program: &Program,
    sites: impl Iterator<Item = CallSiteId>,
    ctx: &str,
) -> CaseResult {
    let full = AliasPairs::compute(program);
    let oracle = Oracle::compute(program);
    for s in sites {
        if let Err(msg) = check_site_edits(program, &full, &oracle, s, ctx) {
            return CaseResult::Fail(msg);
        }
    }
    CaseResult::Pass
}

/// [`check_site_edits`] on every site of `program`.
fn check_every_site(program: &Program, ctx: &str) -> CaseResult {
    check_sites(program, program.sites(), ctx)
}

/// [`check_site_edits`] on three sites `pick` chooses.
fn check_picked_sites(program: &Program, pick: u64, ctx: &str) -> CaseResult {
    let ns = program.num_sites() as u64;
    let picked = [pick, pick / 7, pick / 49]
        .into_iter()
        .filter(|_| ns > 0)
        .map(|k| CallSiteId::new((k % ns) as usize));
    check_sites(program, picked, ctx)
}

// ---- The exhaustive ≤4-procedure corpus -------------------------------

/// All directed edge slots among `n` procedures (ordered pairs), with or
/// without self-loops; self-loops make the recursive shapes.
fn edge_slots(n: usize, self_loops: bool) -> Vec<(usize, usize)> {
    let mut slots = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if self_loops || i != j {
                slots.push((i, j));
            }
        }
    }
    slots
}

/// The edges `mask` selects, each tagged with its slot number (which
/// picks the argument pattern).
fn edges_of(slots: &[(usize, usize)], mask: u64) -> Vec<(usize, usize, usize)> {
    slots
        .iter()
        .enumerate()
        .filter(|&(k, _)| mask & (1 << k) != 0)
        .map(|(k, &(i, j))| (i, j, k))
        .collect()
}

/// Flat: two-level procedures `pi(x, y)`; `main` passes `(g0, g0)` to
/// even procedures and `(g0, g1)` to odd ones; every edge passes the
/// caller's formals on in order.
fn flat_program(n: usize, edges: &[(usize, usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let g0 = b.global("g0");
    let g1 = b.global("g1");
    let procs: Vec<_> = (0..n)
        .map(|i| b.proc_(&format!("p{i}"), &["x", "y"]))
        .collect();
    let main = b.main();
    for (i, &p) in procs.iter().enumerate() {
        let second = if i % 2 == 0 { g0 } else { g1 };
        b.call(main, p, &[g0, second]);
    }
    for &(i, j, _) in edges {
        let (x, y) = (b.formal(procs[i], 0), b.formal(procs[i], 1));
        b.call(procs[i], procs[j], &[x, y]);
    }
    b.finish().expect("flat instances are always valid")
}

/// Binding: as [`flat_program`], but the edge's slot picks one of four
/// argument patterns — in order, swapped, duplicated, or a global next
/// to a formal — so R1 and R3 chain through every cycle shape.
fn binding_program(n: usize, edges: &[(usize, usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let g0 = b.global("g0");
    let g1 = b.global("g1");
    let procs: Vec<_> = (0..n)
        .map(|i| b.proc_(&format!("p{i}"), &["x", "y"]))
        .collect();
    let main = b.main();
    for (i, &p) in procs.iter().enumerate() {
        let second = if i % 2 == 0 { g1 } else { g0 };
        b.call(main, p, &[g0, second]);
    }
    for &(i, j, k) in edges {
        let (x, y) = (b.formal(procs[i], 0), b.formal(procs[i], 1));
        let args = match k % 4 {
            0 => [x, y],
            1 => [y, x],
            2 => [x, x],
            _ => [g1, y],
        };
        b.call(procs[i], procs[j], &args);
    }
    b.finish().expect("binding instances are always valid")
}

/// Nested: a lexical chain `main ⊃ p0 ⊃ p1 ⊃ …`, each `pi(x)` with a
/// local `t`; an edge passes the caller's local and formal where the
/// callee takes one formal, so pairs of enclosing scopes reach nested
/// callees through R4. Edges that violate nesting visibility make the
/// instance invalid and are skipped.
fn nested_program(n: usize, edges: &[(usize, usize, usize)]) -> Option<Program> {
    let mut b = ProgramBuilder::new();
    let g = b.global("g");
    let mut procs = Vec::with_capacity(n);
    let mut locals = Vec::with_capacity(n);
    let mut parent = b.main();
    for i in 0..n {
        let p = b.nested_proc(parent, &format!("p{i}"), &["x"]);
        locals.push(b.local(p, "t"));
        procs.push(p);
        parent = p;
    }
    let main = b.main();
    b.call(main, procs[0], &[g]);
    for &(i, j, k) in edges {
        let arg = if k % 2 == 0 {
            b.formal(procs[i], 0)
        } else {
            locals[i]
        };
        b.call(procs[i], procs[j], &[arg]);
    }
    b.finish().ok()
}

/// Runs `check` on every edge subset of every size up to 4 (self-loops up
/// to 3), returning how many instances were valid.
fn enumerate(
    shape: impl Fn(usize, &[(usize, usize, usize)]) -> Option<Program>,
    check: impl Fn(&Program, &str) -> CaseResult,
) -> usize {
    let mut valid = 0;
    for (n, self_loops) in [(1, true), (2, true), (3, true), (4, false)] {
        let slots = edge_slots(n, self_loops);
        for mask in 0..(1u64 << slots.len()) {
            if let Some(program) = shape(n, &edges_of(&slots, mask)) {
                if let CaseResult::Fail(msg) = check(&program, &format!("n={n} mask={mask:#x}")) {
                    panic!("{msg}");
                }
                valid += 1;
            }
        }
    }
    valid
}

#[test]
fn all_flat_and_recursive_topologies_match_the_oracle() {
    assert_eq!(
        enumerate(|n, e| Some(flat_program(n, e)), check_full),
        2 + 16 + 512 + 4096
    );
}

#[test]
fn all_binding_topologies_match_the_oracle() {
    assert_eq!(
        enumerate(|n, e| Some(binding_program(n, e)), check_full),
        2 + 16 + 512 + 4096
    );
}

#[test]
fn all_visible_nested_topologies_match_the_oracle() {
    let valid = enumerate(nested_program, check_full);
    assert!(valid > 100, "only {valid} nested instances validated");
}

#[test]
fn every_site_edit_on_flat_and_recursive_topologies_matches_the_oracle() {
    enumerate(|n, e| Some(flat_program(n, e)), check_every_site);
}

#[test]
fn every_site_edit_on_binding_topologies_matches_the_oracle() {
    enumerate(|n, e| Some(binding_program(n, e)), check_every_site);
}

#[test]
fn every_site_edit_on_nested_topologies_matches_the_oracle() {
    enumerate(nested_program, check_every_site);
}

#[test]
fn closures_match_on_every_small_topology() {
    for (n, self_loops) in [(2, true), (3, true)] {
        let slots = edge_slots(n, self_loops);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            for program in [flat_program(n, &edges), binding_program(n, &edges)] {
                for pick in 0..(n as u64 + 1).pow(2) {
                    if let CaseResult::Fail(msg) =
                        check_closures(&program, pick, &format!("n={n} mask={mask:#x}"))
                    {
                        panic!("{msg}");
                    }
                }
            }
        }
    }
}

#[test]
fn solver_work_is_linear_in_its_output() {
    // A return to re-deriving whole transfers would pop each site once per
    // change in its caller and blow far past this bound; the semi-naive
    // solver processes each site once and each pair once.
    let program = generate(&GenConfig::pascal_like(500, 4), 1);
    let mut aliases = AliasPairs::empty_impl(&program);
    let items = aliases
        .solve_closure_guarded(
            &program,
            &vec![true; program.num_procs()],
            &Guard::unlimited(),
        )
        .expect("unlimited");
    let pairs: usize = program.procs().map(|p| aliases.pair_count(p)).sum();
    assert!(
        pairs > 1000,
        "the fixture must carry a real relation, got {pairs} pairs"
    );
    let bound = 2 * pairs as u64 + program.num_sites() as u64;
    assert!(
        items <= bound,
        "{items} items for {pairs} pairs over {} sites",
        program.num_sites()
    );
}

#[test]
fn update_work_is_linear_in_what_it_changes() {
    // Inserting a site processes its seeds, one push of each caller pair
    // through it, and one item per new pair (each then crosses its
    // procedure's out-sites once); removing one processes the same push,
    // each over-deleted pair twice (deletion and re-derivation check), and
    // the pairs re-derived. A fallback to a full solve would process every
    // site and every pair of the program.
    let program = generate(&GenConfig::pascal_like(500, 4), 1);
    let full = AliasPairs::compute(&program);
    let total: usize = program.procs().map(|p| full.pair_count(p)).sum();
    let unlimited = Guard::unlimited();
    let mut overdeleted = 0;
    for k in (0..program.num_sites()).step_by(97) {
        let s = CallSiteId::new(k);
        let site = program.site(s);
        let caller = site.caller();
        let (minus, del) = program
            .apply_edit(&Edit::RemoveCallSite { site: s })
            .expect("removable");
        let (shrunk, removal) = full
            .clone()
            .update_guarded(&program, &minus, &del, &unlimited)
            .expect("unlimited");
        let bound = 1
            + full.pair_count(caller) as u64
            + 2 * removal.pairs_overdeleted as u64
            + (removal.pairs_overdeleted - removal.pairs_removed + removal.pairs_added) as u64;
        assert!(
            removal.items <= bound,
            "removing {s}: {} items, bound {bound}",
            removal.items
        );
        overdeleted += removal.pairs_overdeleted;

        let (plus, ins) = minus
            .apply_edit(&Edit::AddCallSite {
                caller,
                callee: site.callee(),
                args: site.args().to_vec(),
            })
            .expect("re-insertable");
        let (grown, insertion) = shrunk
            .clone()
            .update_guarded(&minus, &plus, &ins, &unlimited)
            .expect("unlimited");
        assert_eq!(grown, full, "re-inserting {s} restores the relation");
        assert_eq!(insertion.pairs_overdeleted, 0);
        let bound = 1 + shrunk.pair_count(caller) as u64 + insertion.pairs_added as u64;
        assert!(
            insertion.items <= bound,
            "inserting {s}: {} items, bound {bound}",
            insertion.items
        );
        assert!(
            insertion.items < total as u64 / 4,
            "inserting {s} took {} items for a {total}-pair relation",
            insertion.items
        );
    }
    assert!(overdeleted > 0, "the sample must exercise deletion");
}

property! {
    #![cases = 32]

    fn pascal_programs_match_the_oracle(
        seed in any_u64(),
        n in ints(2..48usize),
        depth in ints(1..5u32),
        pick in any_u64(),
    ) {
        let program = generate(&GenConfig::pascal_like(n, depth), seed);
        let ctx = format!("pascal_like({n}, {depth}) seed {seed}");
        for result in [
            check_full(&program, &ctx),
            check_closures(&program, pick, &ctx),
            check_picked_sites(&program, pick, &ctx),
        ] {
            if !matches!(result, CaseResult::Pass) {
                return result;
            }
        }
    }

    fn fortran_programs_match_the_oracle(
        seed in any_u64(),
        n in ints(2..64usize),
        pick in any_u64(),
    ) {
        let program = generate(&GenConfig::fortran_like(n), seed);
        let ctx = format!("fortran_like({n}) seed {seed}");
        for result in [
            check_full(&program, &ctx),
            check_closures(&program, pick, &ctx),
            check_picked_sites(&program, pick, &ctx),
        ] {
            if !matches!(result, CaseResult::Pass) {
                return result;
            }
        }
    }

    fn alias_heavy_programs_match_the_oracle(
        n in ints(2..24usize),
        params in ints(1..5usize),
        pick in any_u64(),
    ) {
        let program = workloads::alias_heavy(n, params);
        let ctx = format!("alias_heavy({n}, {params})");
        for result in [
            check_full(&program, &ctx),
            check_closures(&program, pick, &ctx),
            check_picked_sites(&program, pick, &ctx),
        ] {
            if !matches!(result, CaseResult::Pass) {
                return result;
            }
        }
    }
}
