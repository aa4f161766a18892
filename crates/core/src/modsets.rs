//! `MOD` from `DMOD` plus aliases — §5 step (2).

use modref_bitset::{BitSet, EffectSet, OpCounter};
use modref_guard::{Guard, Interrupt};
use modref_ir::{CallSiteId, Program};

use crate::alias::AliasPairs;
use crate::dmod::DmodSolutionIn;

/// Per-call-site final `MOD` (or `USE`) sets.
#[derive(Debug, Clone)]
pub struct ModSolutionIn<S: EffectSet> {
    per_site: Vec<S>,
    stats: OpCounter,
}

/// [`ModSolutionIn`] over the paper's dense bit vectors — the default
/// representation of the public API.
pub type ModSolution = ModSolutionIn<BitSet>;

impl<S: EffectSet> ModSolutionIn<S> {
    /// `MOD(s)` for call site `s`.
    pub fn mod_site(&self, s: CallSiteId) -> &S {
        &self.per_site[s.index()]
    }

    /// All per-site sets, indexed by call site.
    pub fn all(&self) -> &[S] {
        &self.per_site
    }

    /// Work performed: linear in `Σ(|DMOD(s)| + |ALIAS(p)|)`, as §5
    /// argues any alias-factoring method must be.
    pub fn stats(&self) -> OpCounter {
        self.stats
    }

    pub(crate) fn into_sets(self) -> Vec<S> {
        self.per_site
    }

    /// Wraps already-widened per-site sets (the degraded-path fallback).
    pub(crate) fn conservative(per_site: Vec<S>) -> Self {
        ModSolutionIn {
            per_site,
            stats: OpCounter::new(),
        }
    }
}

/// For each call site `s` in procedure `p`:
/// `MOD(s) = DMOD(s) ∪ { y : x ∈ DMOD(s), ⟨x, y⟩ ∈ ALIAS(p) }`.
pub fn compute_mod<S: EffectSet>(
    program: &Program,
    dmod: &DmodSolutionIn<S>,
    aliases: &AliasPairs,
) -> ModSolutionIn<S> {
    compute_mod_guarded(
        program,
        dmod,
        aliases,
        &modref_par::ThreadPool::new(1),
        &Guard::unlimited(),
    )
    .expect("an unlimited guard cannot interrupt the solver")
}

/// [`compute_mod`] with the per-site alias factoring spread over `pool`,
/// under a cooperative [`Guard`]. Sites are independent, so the result is
/// identical at any thread count. The factoring polls the guard between
/// sites (and between chunks on the pool), charging one bit-vector step
/// per site.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips mid-factoring; partial per-site sets are discarded.
pub fn compute_mod_guarded<S: EffectSet>(
    program: &Program,
    dmod: &DmodSolutionIn<S>,
    aliases: &AliasPairs,
    pool: &modref_par::ThreadPool,
    guard: &Guard,
) -> Result<ModSolutionIn<S>, Interrupt> {
    guard.checkpoint("modsets")?;
    let mut stats = OpCounter::new();
    stats.bitvec_steps += program.num_sites() as u64;
    let per_site = if pool.is_sequential() {
        let mut v = Vec::with_capacity(program.num_sites());
        for s in program.sites() {
            if s.index() % 64 == 0 {
                guard.charge(64.min(program.num_sites() - s.index()) as u64, 0);
                guard.check()?;
            }
            let caller = program.site(s).caller();
            v.push(aliases.extend_with_aliases(caller, dmod.dmod_site(s)));
        }
        v
    } else {
        let slots = pool.par_map_while(
            program.num_sites(),
            || !guard.should_stop(),
            |i| {
                if i % 64 == 0 {
                    guard.charge(64.min(program.num_sites() - i) as u64, 0);
                    let _ = guard.check();
                }
                let s = CallSiteId::new(i);
                let caller = program.site(s).caller();
                aliases.extend_with_aliases(caller, dmod.dmod_site(s))
            },
        );
        let mut v = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                Some(set) => v.push(set),
                None => {
                    guard.check()?;
                    return Err(guard.interrupt().unwrap_or(Interrupt::Halted));
                }
            }
        }
        v
    };
    guard.check()?;
    Ok(ModSolutionIn { per_site, stats })
}

#[cfg(test)]
mod tests {

    use crate::pipeline::Analyzer;
    use modref_ir::{Expr, ProgramBuilder};

    #[test]
    fn alias_partner_of_modified_formal_enters_mod() {
        // q(x, y) writes only x, but main passes g for both: MOD of the
        // site must contain g either way; more interestingly, inside p
        // where the aliasing is visible, writing one formal MODs the
        // other.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x", "y"]);
        let q = b.proc_("q", &["u"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let s_inner = b.call(p, q, &[b.formal(p, 0)]); // q modifies x
        let main = b.main();
        let s_outer = b.call(main, p, &[g, g]); // x and y alias g
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);

        // Inside p: the call to q directly modifies x; y is an alias.
        let x = b.formal(p, 0);
        let y = b.formal(p, 1);
        assert!(summary.dmod_site(s_inner).contains(x.index()));
        assert!(!summary.dmod_site(s_inner).contains(y.index()));
        assert!(summary.mod_site(s_inner).contains(y.index()));
        assert!(summary.mod_site(s_inner).contains(g.index()));

        // At the outer site, g is modified via the binding already.
        assert!(summary.dmod_site(s_outer).contains(g.index()));
        assert!(summary.mod_site(s_outer).contains(g.index()));
    }

    #[test]
    fn without_aliases_mod_equals_dmod() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        b.assign(p, h, Expr::constant(2));
        let main = b.main();
        let s = b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);
        // Note: g IS aliased to x inside p, but at *main's* site the DMOD
        // set {g, h} has no alias partners in main's ALIAS set.
        assert_eq!(summary.mod_site(s), summary.dmod_site(s));
    }
}
