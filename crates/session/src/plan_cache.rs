//! Plan reuse: a bounded memo from a recurring batch to the executable
//! plan a [`SessionCore`](crate::SessionCore) derived for it.
//!
//! The optimizer is deterministic in (batch, catalog statistics, warm
//! set, options). Options and database are fixed per core, so a batch
//! that recurs with the same [`Catalog::stats_epoch`] and the same warm
//! set gets the plan it got before, bit for bit — and planning is most
//! of what a fully warm submit costs. The cache stores that plan and
//! lets the next sighting skip expand, physicalize, fingerprinting and
//! search.
//!
//! * **Key** — the batch itself (each query's plan, weight bits and
//!   label) plus the statistics epoch, hashed for the lookup and
//!   compared exactly before a stored plan is used.
//! * **Validity** — a stored plan keeps the node fingerprints, the
//!   `has_param` mask and the warm mask it was planned against; a hit
//!   recomputes the warm mask against the current store and re-plans
//!   if any node changed residency, in either direction.
//! * **Admission** — a plan is stored only if its search did not
//!   degrade, it materializes no cold temp, and its batch was planned
//!   at least once before. The first sighting costs one map slot.
//! * **Bound** — at most [`CAPACITY`] keys, evicted first in, first
//!   out.
//!
//! [`Catalog::stats_epoch`]: mqo_catalog::Catalog::stats_epoch

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mqo_core::OptStats;
use mqo_cost::Cost;
use mqo_dag::Fingerprint;
use mqo_exec::MvStore;
use mqo_logical::Batch;
use mqo_physical::{ExtractedPlan, PhysicalDag};
use mqo_util::{BitSet, FxHashMap};

use crate::Planned;

/// Most batch keys the cache remembers, seen-once keys included.
const CAPACITY: usize = 256;

/// The ids of the nodes a search treats as warm: resident in `store`
/// and not parameter-dependent.
pub(crate) fn warm_mask(node_fps: &[Fingerprint], has_param: &BitSet, store: &MvStore) -> BitSet {
    let mut warm = BitSet::new();
    for (idx, &fp) in node_fps.iter().enumerate() {
        if store.contains(fp) && !has_param.contains(idx) {
            warm.insert(idx);
        }
    }
    warm
}

fn same_batch(a: &Batch, b: &Batch) -> bool {
    a.queries.len() == b.queries.len()
        && a.queries.iter().zip(&b.queries).all(|(x, y)| {
            x.plan == y.plan && x.weight.to_bits() == y.weight.to_bits() && x.label == y.label
        })
}

/// One stored plan: the plan-only slice of the physical DAG it was
/// extracted from, and what it was planned against.
pub(crate) struct CachedPlan {
    batch: Batch,
    stats_epoch: u64,
    /// Fingerprint per physical node of the batch's DAG.
    pub(crate) node_fps: Vec<Fingerprint>,
    has_param: BitSet,
    warm: BitSet,
    /// [`PhysicalDag::plan_slice`] of the planned DAG, and the plan
    /// renumbered to it.
    pub(crate) pdag: PhysicalDag,
    pub(crate) plan: ExtractedPlan,
    pub(crate) cost: Cost,
    /// The planning run's counters, marked reused with zero timings.
    pub(crate) stats: OptStats,
}

impl CachedPlan {
    /// Keeps what `planned` — `batch` planned under statistics epoch
    /// `epoch` — needs to run again: its slice, not its DAGs.
    pub(crate) fn new(batch: &Batch, epoch: u64, planned: Planned<'_>) -> CachedPlan {
        let Planned {
            ctx,
            optimized,
            node_fps,
            has_param,
            warm,
        } = planned;
        let (pdag, plan) = ctx.pdag.plan_slice(&optimized.plan);
        CachedPlan {
            batch: batch.clone(),
            stats_epoch: epoch,
            node_fps,
            has_param,
            warm,
            pdag,
            plan,
            cost: optimized.cost,
            stats: OptStats {
                dag_time_secs: 0.0,
                search_time_secs: 0.0,
                plan_reused: true,
                ..optimized.stats
            },
        }
    }

    /// True if `store` makes exactly the nodes warm that were warm when
    /// this plan was searched.
    pub(crate) fn warm_set_unchanged(&self, store: &MvStore) -> bool {
        warm_mask(&self.node_fps, &self.has_param, store) == self.warm
    }
}

/// What [`PlanCache::sight`] knew about a batch.
pub(crate) enum Sighting {
    /// Never seen (or forgotten): its key is now remembered.
    First,
    /// Seen before; the stored plan, if one was stored for this exact
    /// batch.
    Again(Option<Arc<CachedPlan>>),
}

enum Slot {
    Seen,
    Planned(Arc<CachedPlan>),
}

#[derive(Default)]
struct Slots {
    by_key: FxHashMap<u64, Slot>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<u64>,
}

/// The bounded plan memo of one [`SessionCore`](crate::SessionCore),
/// shared by every thread planning over it.
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Keyed hashing: batches arrive from clients, and a collision
    /// they could craft would make two batches displace each other's
    /// plans.
    hasher: RandomState,
    slots: Mutex<Slots>,
}

impl PlanCache {
    /// The lookup hash of `batch` under statistics epoch `epoch`.
    pub(crate) fn key(&self, batch: &Batch, epoch: u64) -> u64 {
        let mut h = self.hasher.build_hasher();
        epoch.hash(&mut h);
        batch.queries.len().hash(&mut h);
        for q in &batch.queries {
            q.plan.hash(&mut h);
            q.weight.to_bits().hash(&mut h);
            q.label.hash(&mut h);
        }
        h.finish()
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `batch` (lookup hash `key`) up and records the sighting.
    pub(crate) fn sight(&self, key: u64, batch: &Batch, epoch: u64) -> Sighting {
        let mut slots = self.lock();
        match slots.by_key.get(&key) {
            Some(Slot::Planned(p)) => Sighting::Again(
                (p.stats_epoch == epoch && same_batch(&p.batch, batch)).then(|| Arc::clone(p)),
            ),
            Some(Slot::Seen) => Sighting::Again(None),
            None => {
                slots.by_key.insert(key, Slot::Seen);
                slots.order.push_back(key);
                if slots.order.len() > CAPACITY {
                    if let Some(oldest) = slots.order.pop_front() {
                        slots.by_key.remove(&oldest);
                    }
                }
                Sighting::First
            }
        }
    }

    /// Stores `plan` under `key`, replacing what the slot held, if the
    /// key is still remembered.
    pub(crate) fn store(&self, key: u64, plan: CachedPlan) {
        if let Some(slot) = self.lock().by_key.get_mut(&key) {
            *slot = Slot::Planned(Arc::new(plan));
        }
    }

    /// Forgets every key and plan.
    pub(crate) fn clear(&self) {
        let mut slots = self.lock();
        slots.by_key.clear();
        slots.order.clear();
    }

    /// Keys currently remembered.
    pub(crate) fn len(&self) -> usize {
        self.lock().order.len()
    }
}
