//! Cooperative guards for the analysis pipeline: budgets, deadlines,
//! cancellation, and seeded fault injection.
//!
//! The paper's complexity bound (§4, Theorem 2) is stated in bit-vector
//! steps, and the solvers already *measure* that cost model through
//! `OpCounter`. This crate adds the enforcement half: a [`Guard`] carries a
//! [`Budget`] (wall-clock deadline plus caps in the paper's own units) and a
//! [`CancelToken`], and every solver phase polls it at phase boundaries and
//! inner-loop strides. The first trip — budget exhausted, deadline passed,
//! caller cancelled — latches an [`Interrupt`] and flips a shared stop flag
//! that all phases (and the `modref-par` worker pool) observe, so the whole
//! pipeline drains promptly and the analyzer can fall back to a sound
//! conservative summary (see `docs/ROBUSTNESS.md`).
//!
//! [`FaultPlan`] is the test half: named injection sites inside the solvers
//! can be made to panic, stall, or exhaust the budget on demand, either from
//! a seed (`MODREF_FAULT=seed` in the environment) or pinned per-site, so
//! the degradation machinery is exercised deliberately rather than only on
//! hostile inputs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one guarded analysis run.
///
/// All fields are optional; `Budget::unlimited()` never trips. Step caps are
/// in the units `OpCounter` counts: whole-bit-vector operations and single
/// boolean operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance, measured from `Guard::new`.
    pub deadline: Option<Duration>,
    /// Cap on charged bit-vector steps.
    pub max_bitvec_steps: Option<u64>,
    /// Cap on charged single-boolean steps.
    pub max_bool_steps: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps bit-vector steps.
    pub fn with_bitvec_steps(mut self, n: u64) -> Self {
        self.max_bitvec_steps = Some(n);
        self
    }

    /// Caps single-boolean steps.
    pub fn with_bool_steps(mut self, n: u64) -> Self {
        self.max_bool_steps = Some(n);
        self
    }

    /// Caps both step kinds at `n` — the CLI's `--budget-ops N`.
    pub fn with_ops(self, n: u64) -> Self {
        self.with_bitvec_steps(n).with_bool_steps(n)
    }
}

/// A cloneable handle that lets a caller cancel a guarded run from another
/// thread. All clones share one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; guarded phases observe it at their next
    /// checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once `cancel` has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a guarded run was cut short. The first cause to fire is latched; the
/// pipeline reports it and every later phase sees [`Interrupt::Halted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Interrupt {
    /// The caller's `CancelToken` fired.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The bit-vector step cap was exhausted.
    BitvecBudget,
    /// The single-boolean step cap was exhausted.
    BoolBudget,
    /// Another phase already failed (tripped or panicked); this phase is
    /// being drained, not itself at fault. Never the primary reason.
    Halted,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            Interrupt::Cancelled => "cancelled by caller",
            Interrupt::Deadline => "wall-clock deadline exceeded",
            Interrupt::BitvecBudget => "bit-vector step budget exhausted",
            Interrupt::BoolBudget => "boolean step budget exhausted",
            Interrupt::Halted => "halted after another phase failed",
        };
        f.write_str(text)
    }
}

impl Interrupt {
    fn code(self) -> u8 {
        match self {
            Interrupt::Cancelled => 1,
            Interrupt::Deadline => 2,
            Interrupt::BitvecBudget => 3,
            Interrupt::BoolBudget => 4,
            Interrupt::Halted => 5,
        }
    }

    fn from_code(code: u8) -> Option<Interrupt> {
        Some(match code {
            1 => Interrupt::Cancelled,
            2 => Interrupt::Deadline,
            3 => Interrupt::BitvecBudget,
            4 => Interrupt::BoolBudget,
            5 => Interrupt::Halted,
            _ => return None,
        })
    }
}

/// How long an injected `Stall` sleeps — long enough that a phase which
/// ignores its guard visibly drags, short enough for tight test suites.
const STALL: Duration = Duration::from_millis(30);

/// What a fault site does when its plan arms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the checkpoint; `analyze_guarded` must contain it.
    Panic,
    /// Sleep for [`STALL`] — models a slow phase; deadlines must still fire.
    Stall,
    /// Trip the bit-vector budget immediately, even if no cap is set.
    Exhaust,
}

/// A deterministic assignment of [`FaultAction`]s to named injection sites.
///
/// Two modes compose: explicit per-site pins (`panic_at`, `stall_at`,
/// `exhaust_at`) always win, and an optional seed drives a hash over the
/// site name so a single integer arms a reproducible pattern of faults
/// across the whole pipeline (roughly 3 in 8 sites fire).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: Option<u64>,
    pinned: Vec<(&'static str, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan; no site faults until pins are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan whose faults are derived from `seed` by hashing site names.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed: Some(seed),
            pinned: Vec::new(),
        }
    }

    /// Reads `MODREF_FAULT=<seed>` from the environment, if set and valid.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("MODREF_FAULT").ok()?;
        raw.trim().parse::<u64>().ok().map(Self::seeded)
    }

    /// Pins `site` to panic.
    pub fn panic_at(mut self, site: &'static str) -> Self {
        self.pinned.push((site, FaultAction::Panic));
        self
    }

    /// Pins `site` to stall.
    pub fn stall_at(mut self, site: &'static str) -> Self {
        self.pinned.push((site, FaultAction::Stall));
        self
    }

    /// Pins `site` to exhaust the budget.
    pub fn exhaust_at(mut self, site: &'static str) -> Self {
        self.pinned.push((site, FaultAction::Exhaust));
        self
    }

    /// The action (if any) this plan assigns to `site`.
    pub fn action_for(&self, site: &str) -> Option<FaultAction> {
        if let Some(&(_, action)) = self.pinned.iter().find(|(s, _)| *s == site) {
            return Some(action);
        }
        let seed = self.seed?;
        // splitmix64 over the seed and the site name, so each (seed, site)
        // pair lands on an independent, reproducible action.
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in site.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
        }
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        match h % 8 {
            0 => Some(FaultAction::Panic),
            1 => Some(FaultAction::Stall),
            2 => Some(FaultAction::Exhaust),
            _ => None,
        }
    }
}

/// The shared runtime guard one `analyze_guarded` call threads through every
/// phase. Cheap to poll: the fast path of [`Guard::check`] is two relaxed
/// atomic loads (stop flag and cancel flag) plus a deadline comparison only
/// when a deadline exists.
#[derive(Debug)]
pub struct Guard {
    deadline: Option<Instant>,
    max_bitvec: Option<u64>,
    max_bool: Option<u64>,
    bitvec: AtomicU64,
    bools: AtomicU64,
    cancel: CancelToken,
    faults: Option<FaultPlan>,
    stop: AtomicBool,
    tripped: AtomicU8,
}

impl Guard {
    /// A guard that never trips on its own (no budget, no cancel source, no
    /// faults). The plain `Analyzer::analyze` path uses this.
    pub fn unlimited() -> Self {
        Self::new(&Budget::unlimited())
    }

    /// Starts the clock on `budget` now.
    pub fn new(budget: &Budget) -> Self {
        Guard {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_bitvec: budget.max_bitvec_steps,
            max_bool: budget.max_bool_steps,
            bitvec: AtomicU64::new(0),
            bools: AtomicU64::new(0),
            cancel: CancelToken::new(),
            faults: None,
            stop: AtomicBool::new(false),
            tripped: AtomicU8::new(0),
        }
    }

    /// Attaches a cancellation token (keep a clone to fire it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Arms a fault plan. Never armed implicitly — `Guard::unlimited()` and
    /// the plain analyze path stay fault-free even when `MODREF_FAULT` is in
    /// the environment.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// `true` if a fault plan is armed.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Charges work against the step caps, tripping on exhaustion. Solvers
    /// call this with `OpCounter::delta_since` snapshots so the charge
    /// matches what the stats already measure.
    pub fn charge(&self, bitvec_steps: u64, bool_steps: u64) {
        if let Some(cap) = self.max_bitvec {
            if bitvec_steps > 0 {
                let before = self.bitvec.fetch_add(bitvec_steps, Ordering::Relaxed);
                if before.saturating_add(bitvec_steps) > cap {
                    self.trip(Interrupt::BitvecBudget);
                }
            }
        }
        if let Some(cap) = self.max_bool {
            if bool_steps > 0 {
                let before = self.bools.fetch_add(bool_steps, Ordering::Relaxed);
                if before.saturating_add(bool_steps) > cap {
                    self.trip(Interrupt::BoolBudget);
                }
            }
        }
    }

    /// The cooperative poll. Returns the latched interrupt once anything has
    /// tripped; otherwise trips (and returns) on cancellation or a passed
    /// deadline.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.stop.load(Ordering::Relaxed) {
            return Err(self.interrupt().unwrap_or(Interrupt::Halted));
        }
        if self.cancel.is_cancelled() {
            self.trip(Interrupt::Cancelled);
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.trip(Interrupt::Deadline);
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// A named checkpoint: fires any armed fault for `site`, then polls.
    /// Solvers place these at phase entries; strides use plain [`check`]
    /// so an injected stall fires once, not per iteration.
    ///
    /// Site names are the `Phase::name()` strings ("rmod", "gmod", …) —
    /// the same names `modref-trace` uses for its phase spans, so a
    /// fault site in `MODREF_FAULT` output can be matched directly to a
    /// span in a `--trace` recording.
    ///
    /// [`check`]: Guard::check
    pub fn checkpoint(&self, site: &str) -> Result<(), Interrupt> {
        if let Some(action) = self.faults.as_ref().and_then(|f| f.action_for(site)) {
            match action {
                FaultAction::Panic => panic!("injected fault: panic at `{site}`"),
                FaultAction::Stall => std::thread::sleep(STALL),
                FaultAction::Exhaust => self.trip(Interrupt::BitvecBudget),
            }
        }
        self.check()
    }

    /// Cheap predicate for pool bodies: has anything tripped? Unlike
    /// [`check`](Guard::check) this never *causes* a trip, so it is safe to
    /// poll at any frequency.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.cancel.is_cancelled()
    }

    /// Latches `cause` as the run's interrupt if nothing tripped earlier,
    /// and raises the stop flag either way.
    pub fn trip(&self, cause: Interrupt) {
        let _ = self
            .tripped
            .compare_exchange(0, cause.code(), Ordering::AcqRel, Ordering::Acquire);
        self.stop.store(true, Ordering::Release);
    }

    /// Stops the run because a phase panicked: sibling phases drain with
    /// [`Interrupt::Halted`] while the panic itself is reported as the
    /// reason.
    pub fn halt(&self) {
        self.trip(Interrupt::Halted);
    }

    /// The first interrupt to fire, if any.
    pub fn interrupt(&self) -> Option<Interrupt> {
        Interrupt::from_code(self.tripped.load(Ordering::Acquire))
    }

    /// Total steps charged so far, `(bitvec, bool)`.
    ///
    /// The observability layer samples this at the end of a run and
    /// exports the totals as the `guard_bitvec_charged` /
    /// `guard_bool_charged` trace counters (see `docs/OBSERVABILITY.md`),
    /// so the numbers in a recording are exactly what the budget saw.
    pub fn charged(&self) -> (u64, u64) {
        (
            self.bitvec.load(Ordering::Relaxed),
            self.bools.load(Ordering::Relaxed),
        )
    }
}

/// The message a caught panic carries: the `&str` or `String` payload of
/// a `panic!`, or a fixed note for any other payload. Every layer that
/// contains a panic with `catch_unwind` reports it through this.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Amortises guard polls over tight loops: calls [`Guard::check`] once per
/// `stride` ticks. A stride in the hundreds keeps the overhead invisible
/// while bounding how much work can run past a trip.
#[derive(Debug)]
pub struct Strided {
    stride: u32,
    count: u32,
}

impl Strided {
    /// Polls every `stride` ticks (`stride` ≥ 1).
    pub fn new(stride: u32) -> Self {
        Strided {
            stride: stride.max(1),
            count: 0,
        }
    }

    /// Counts one loop iteration; polls the guard on every `stride`-th.
    pub fn tick(&mut self, guard: &Guard) -> Result<(), Interrupt> {
        self.count += 1;
        if self.count >= self.stride {
            self.count = 0;
            guard.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        g.charge(1 << 40, 1 << 40);
        assert!(g.check().is_ok());
        assert!(!g.should_stop());
        assert_eq!(g.interrupt(), None);
    }

    #[test]
    fn bitvec_budget_trips_and_latches() {
        let g = Guard::new(&Budget::unlimited().with_bitvec_steps(10));
        g.charge(8, 0);
        assert!(g.check().is_ok());
        g.charge(8, 0);
        assert_eq!(g.check(), Err(Interrupt::BitvecBudget));
        // A later, different cause must not overwrite the first.
        g.trip(Interrupt::Cancelled);
        assert_eq!(g.interrupt(), Some(Interrupt::BitvecBudget));
    }

    #[test]
    fn bool_budget_trips_separately() {
        let g = Guard::new(&Budget::unlimited().with_bool_steps(5));
        g.charge(1_000_000, 6);
        assert_eq!(g.check(), Err(Interrupt::BoolBudget));
    }

    #[test]
    fn with_ops_caps_both() {
        let b = Budget::unlimited().with_ops(7);
        assert_eq!(b.max_bitvec_steps, Some(7));
        assert_eq!(b.max_bool_steps, Some(7));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let g = Guard::unlimited().with_cancel(token.clone());
        assert!(g.check().is_ok());
        token.cancel();
        assert_eq!(g.check(), Err(Interrupt::Cancelled));
        assert!(g.should_stop());
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let g = Guard::new(&Budget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(g.check(), Err(Interrupt::Deadline));
    }

    #[test]
    fn pinned_faults_fire_and_seeded_plans_are_deterministic() {
        let plan = FaultPlan::new().exhaust_at("gmod");
        assert_eq!(plan.action_for("gmod"), Some(FaultAction::Exhaust));
        assert_eq!(plan.action_for("rmod"), None);

        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        for site in ["local", "rmod", "gmod", "dmod", "alias", "sections"] {
            assert_eq!(a.action_for(site), b.action_for(site), "site {site}");
        }
        // Some seed in a small range must produce at least one fault per
        // action kind across the pipeline's sites — the CI fault pass
        // depends on seeds being effective.
        let sites = [
            "local",
            "rmod",
            "imod_plus",
            "gmod",
            "dmod",
            "alias",
            "modsets",
        ];
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed);
            for s in sites {
                if let Some(k) = p.action_for(s) {
                    kinds.insert(format!("{k:?}"));
                }
            }
        }
        assert_eq!(kinds.len(), 3, "all three actions reachable from seeds");
    }

    #[test]
    fn exhaust_fault_trips_even_without_a_cap() {
        let g = Guard::unlimited().with_faults(FaultPlan::new().exhaust_at("dmod"));
        assert!(g.checkpoint("gmod").is_ok());
        assert_eq!(g.checkpoint("dmod"), Err(Interrupt::BitvecBudget));
    }

    #[test]
    fn injected_panic_carries_the_site_name() {
        let g = Guard::unlimited().with_faults(FaultPlan::new().panic_at("alias"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = g.checkpoint("alias");
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("alias"), "panic message names the site: {msg}");
    }

    #[test]
    fn strided_polls_on_the_stride() {
        let g = Guard::unlimited().with_cancel({
            let t = CancelToken::new();
            t.cancel();
            t
        });
        let mut s = Strided::new(4);
        assert!(s.tick(&g).is_ok());
        assert!(s.tick(&g).is_ok());
        assert!(s.tick(&g).is_ok());
        assert_eq!(s.tick(&g), Err(Interrupt::Cancelled));
    }

    #[test]
    fn halted_never_hides_an_earlier_cause() {
        let g = Guard::new(&Budget::unlimited().with_bitvec_steps(0));
        g.charge(1, 0);
        g.halt();
        assert_eq!(g.interrupt(), Some(Interrupt::BitvecBudget));
    }

    #[test]
    fn interrupt_display_is_informative() {
        for i in [
            Interrupt::Cancelled,
            Interrupt::Deadline,
            Interrupt::BitvecBudget,
            Interrupt::BoolBudget,
            Interrupt::Halted,
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
