//! Seeded, deterministic failpoints for the MQO pipeline.
//!
//! Modeled on TiKV's `fail` crate but dependency-free and tailored to
//! this workspace: the pipeline's hot paths call [`hit`] at ~10 named
//! [`Seam`]s (cost propagation, temp builds, admissions, ...), and a
//! test installs a [`Schedule`] that decides which hit turns into an
//! `Err(MqoError)` with kind `FaultInjected`. Because
//! every seam fires on the coordinating thread and the pipeline itself
//! is deterministic, a schedule identifies *exactly one* execution
//! point — replaying the same schedule fails the same way every time,
//! and retrying with the schedule cleared must be bit-identical to a
//! never-faulted run.
//!
//! ## Compile-time gating
//!
//! Without the `enable` feature every function here is an `#[inline]`
//! no-op stub (`hit` returns `Ok(())` unconditionally), so release
//! builds carry zero overhead and no global state. The crate declares a
//! *self dev-dependency* with `enable` on, which — via Cargo feature
//! unification across the workspace test graph — turns failpoints on
//! for `cargo test` without any flag. Downstream, `mqo-session` and the
//! umbrella `mqo` crate re-expose the feature as `--features chaos`.
//!
//! ## Usage
//!
//! ```
//! use mqo_chaos::{Schedule, Seam};
//!
//! mqo_chaos::install(Schedule::single(Seam::TempBuild, 1));
//! if mqo_chaos::enabled() {
//!     assert!(mqo_chaos::hit(Seam::TempBuild).is_err());
//!     assert_eq!(mqo_chaos::fired(), 1);
//! }
//! mqo_chaos::clear();
//! assert!(mqo_chaos::hit(Seam::TempBuild).is_ok());
//! ```

use mqo_util::{ErrorStage, MqoError};

/// A named failpoint seam — one per fallible boundary the robustness
/// layer converted from a panic path. The catalog lives in DESIGN.md's
/// "Robustness layer" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seam {
    /// Greedy/KS15 search loop: one candidate probe round.
    CostPropagation,
    /// Plan extraction from the converged materialization set.
    Extract,
    /// Session: canonical DAG fingerprinting for cache identity.
    Fingerprint,
    /// Session: resolving warm plan nodes against live store entries.
    WarmLookup,
    /// Executor: a shared temp is about to be built.
    TempBuild,
    /// Executor: one operator evaluation (`eval_def` entry).
    ExecOperator,
    /// Executor: a materializing operator allocates fresh output
    /// columns (joins, sorts, aggregates).
    ColumnAlloc,
    /// MV store: a temp is about to be admitted to the cache.
    Admission,
    /// MV store: admission needs to evict victims to fit.
    Eviction,
    /// Serving front: a submission is about to be enqueued with the
    /// batch former (fires on the submitting connection's thread — the
    /// job is rejected before it ever reaches shared state).
    FormerEnqueue,
    /// Serving front: an executed batch's staged cache effects are
    /// about to be committed (fires on the thread that formed the batch
    /// — the batch fails after execution, before any shared mutation).
    Commit,
    /// Serving front: the published MvStore snapshot is about to be
    /// read for a formed batch (fires on the thread that formed the
    /// batch).
    SnapshotRead,
}

impl Seam {
    /// Every seam, in pipeline order — the chaos driver sweeps this.
    pub const ALL: [Seam; 12] = [
        Seam::CostPropagation,
        Seam::Extract,
        Seam::Fingerprint,
        Seam::WarmLookup,
        Seam::TempBuild,
        Seam::ExecOperator,
        Seam::ColumnAlloc,
        Seam::Admission,
        Seam::Eviction,
        Seam::FormerEnqueue,
        Seam::Commit,
        Seam::SnapshotRead,
    ];

    /// Stable kebab-case name, used as the error site.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Seam::CostPropagation => "cost-propagation",
            Seam::Extract => "extract",
            Seam::Fingerprint => "fingerprint",
            Seam::WarmLookup => "warm-lookup",
            Seam::TempBuild => "temp-build",
            Seam::ExecOperator => "exec-operator",
            Seam::ColumnAlloc => "column-alloc",
            Seam::Admission => "admission",
            Seam::Eviction => "eviction",
            Seam::FormerEnqueue => "former-enqueue",
            Seam::Commit => "commit",
            Seam::SnapshotRead => "snapshot-read",
        }
    }

    /// Pipeline stage an injected fault at this seam reports.
    #[must_use]
    pub fn stage(self) -> ErrorStage {
        match self {
            Seam::CostPropagation => ErrorStage::Search,
            Seam::Extract => ErrorStage::Extract,
            Seam::Fingerprint => ErrorStage::Plan,
            Seam::WarmLookup => ErrorStage::Session,
            Seam::TempBuild | Seam::ExecOperator | Seam::ColumnAlloc => ErrorStage::Execute,
            Seam::Admission | Seam::Eviction => ErrorStage::Admission,
            Seam::FormerEnqueue | Seam::Commit | Seam::SnapshotRead => ErrorStage::Serve,
        }
    }

    #[allow(dead_code)] // only the `enable` implementation indexes counters
    fn index(self) -> usize {
        match self {
            Seam::CostPropagation => 0,
            Seam::Extract => 1,
            Seam::Fingerprint => 2,
            Seam::WarmLookup => 3,
            Seam::TempBuild => 4,
            Seam::ExecOperator => 5,
            Seam::ColumnAlloc => 6,
            Seam::Admission => 7,
            Seam::Eviction => 8,
            Seam::FormerEnqueue => 9,
            Seam::Commit => 10,
            Seam::SnapshotRead => 11,
        }
    }
}

/// When failpoints fire. Both variants are fully deterministic given
/// the pipeline's own determinism: `Single` counts hits per seam,
/// `Random` draws from a seeded splitmix64 stream in hit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Fire exactly once: on the `nth` hit (1-based) of `seam`.
    Single { seam: Seam, nth: u64 },
    /// Fire each hit independently with probability
    /// `fire_per_million / 1_000_000`, drawn from a stream seeded by
    /// `seed`. The same seed always fires at the same hits.
    Random { seed: u64, fire_per_million: u32 },
}

impl Schedule {
    /// A single-shot schedule: the `nth` (1-based) hit of `seam` fails.
    #[must_use]
    pub fn single(seam: Seam, nth: u64) -> Schedule {
        Schedule::Single { seam, nth }
    }

    /// A seeded random multi-fault schedule.
    #[must_use]
    pub fn random(seed: u64, fire_per_million: u32) -> Schedule {
        Schedule::Random {
            seed,
            fire_per_million,
        }
    }
}

#[cfg(feature = "enable")]
mod active {
    use super::{Schedule, Seam};
    use mqo_util::MqoError;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    struct State {
        schedule: Schedule,
        hits: [u64; Seam::ALL.len()],
        fired: u64,
        rng: u64,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<State>> = Mutex::new(None);

    fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
        // A panicking pipeline under injection may poison the lock;
        // chaos state stays valid (plain counters), so take it anyway.
        STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// splitmix64: tiny, seedable, and plenty for fire/no-fire draws.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn install(schedule: Schedule) {
        let seed = match schedule {
            Schedule::Random { seed, .. } => seed,
            Schedule::Single { .. } => 0,
        };
        *lock() = Some(State {
            schedule,
            hits: [0; Seam::ALL.len()],
            fired: 0,
            rng: seed,
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    pub fn clear() {
        ARMED.store(false, Ordering::SeqCst);
        *lock() = None;
    }

    pub fn fired() -> u64 {
        lock().as_ref().map_or(0, |s| s.fired)
    }

    pub fn hits(seam: Seam) -> u64 {
        lock().as_ref().map_or(0, |s| s.hits[seam.index()])
    }

    #[inline]
    pub fn hit(seam: Seam) -> Result<(), MqoError> {
        if !ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut guard = lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        state.hits[seam.index()] += 1;
        let fire = match state.schedule {
            Schedule::Single { seam: target, nth } => {
                seam == target && state.hits[seam.index()] == nth
            }
            Schedule::Random {
                fire_per_million, ..
            } => splitmix64(&mut state.rng) % 1_000_000 < u64::from(fire_per_million),
        };
        if fire {
            state.fired += 1;
            let nth = state.hits[seam.index()];
            Err(MqoError::fault(seam.stage(), seam.name(), nth))
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Public API. With `enable` off, everything is a zero-cost stub — the
// single source of truth for gating, so no caller needs a cfg.
// ---------------------------------------------------------------------

/// True when the crate was compiled with failpoints (`enable`).
/// Drivers use this to skip-guard rather than silently pass when a
/// build configuration left chaos compiled out.
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "enable")
}

/// Installs a schedule, resetting all hit counters. No-op without
/// `enable`.
pub fn install(schedule: Schedule) {
    #[cfg(feature = "enable")]
    active::install(schedule);
    #[cfg(not(feature = "enable"))]
    let _ = schedule;
}

/// Disarms injection and drops the installed schedule.
pub fn clear() {
    #[cfg(feature = "enable")]
    active::clear();
}

/// How many faults the installed schedule has fired so far.
#[must_use]
pub fn fired() -> u64 {
    #[cfg(feature = "enable")]
    {
        active::fired()
    }
    #[cfg(not(feature = "enable"))]
    {
        0
    }
}

/// How many times `seam` has been hit under the installed schedule.
#[must_use]
pub fn hits(seam: Seam) -> u64 {
    #[cfg(feature = "enable")]
    {
        active::hits(seam)
    }
    #[cfg(not(feature = "enable"))]
    {
        let _ = seam;
        0
    }
}

/// The failpoint itself: pipeline code calls this at each seam and
/// propagates the `Err` with `?`. Always `Ok(())` without `enable` or
/// with no schedule installed.
///
/// # Errors
///
/// Returns a `FaultInjected` [`MqoError`] when the installed schedule
/// decides this hit fires.
#[inline]
pub fn hit(seam: Seam) -> Result<(), MqoError> {
    #[cfg(feature = "enable")]
    {
        active::hit(seam)
    }
    #[cfg(not(feature = "enable"))]
    {
        let _ = seam;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_util::MqoErrorKind;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // Failpoint state is global; the harness runs tests on parallel
    // threads, so every test touching install/clear takes this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // The self dev-dependency turns `enable` on for this crate's tests;
    // these would all be trivially green on stubs, so assert the real
    // implementation is present.
    #[test]
    fn tests_run_with_failpoints_compiled_in() {
        assert!(
            enabled(),
            "self dev-dependency must enable failpoints under cargo test"
        );
    }

    #[test]
    fn single_fires_exactly_once_at_nth_hit() {
        let _g = serial();
        install(Schedule::single(Seam::TempBuild, 3));
        assert!(hit(Seam::TempBuild).is_ok());
        assert!(hit(Seam::Admission).is_ok()); // other seams never fire
        assert!(hit(Seam::TempBuild).is_ok());
        let err = hit(Seam::TempBuild).expect_err("third hit fires");
        assert_eq!(err.kind, MqoErrorKind::FaultInjected);
        assert_eq!(err.site, "temp-build");
        assert!(hit(Seam::TempBuild).is_ok(), "single-shot: fires only once");
        assert_eq!(fired(), 1);
        assert_eq!(hits(Seam::TempBuild), 4);
        clear();
    }

    #[test]
    fn cleared_failpoints_never_fire() {
        let _g = serial();
        install(Schedule::single(Seam::Eviction, 1));
        clear();
        for seam in Seam::ALL {
            assert!(hit(seam).is_ok());
        }
        assert_eq!(fired(), 0);
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let _g = serial();
        let sequence = |seed: u64| -> Vec<bool> {
            install(Schedule::random(seed, 250_000));
            let seq: Vec<bool> = (0..64)
                .map(|i| hit(Seam::ALL[i % Seam::ALL.len()]).is_err())
                .collect();
            clear();
            seq
        };
        let a = sequence(42);
        let b = sequence(42);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert!(a.iter().any(|&f| f), "25% per hit over 64 hits should fire");
        let c = sequence(43);
        assert_ne!(a, c, "different seed, different pattern");
    }

    #[test]
    fn every_seam_has_distinct_name_and_index() {
        let mut names: Vec<&str> = Seam::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Seam::ALL.len());
        for (i, seam) in Seam::ALL.iter().enumerate() {
            assert_eq!(seam.index(), i);
        }
    }

    #[test]
    fn fault_error_carries_seam_stage() {
        let _g = serial();
        install(Schedule::single(Seam::Admission, 1));
        let err = hit(Seam::Admission).expect_err("fires");
        assert_eq!(err.stage, mqo_util::ErrorStage::Admission);
        assert!(err.render().starts_with("error[fault-injected]:"));
        clear();
    }
}
