//! The persistent materialized-view store of a serving session.
//!
//! Temps that [`crate::try_execute_plan_seeded`] builds die with their
//! plan unless the [`MvStore`] keeps them. Entries are refcounted columnar
//! [`Table`]s keyed by the **cross-batch fingerprint** of the physical
//! node that produced them ([`mqo_dag::try_group_fingerprints`] +
//! `mqo_physical::node_fingerprints`), so an equivalent subexpression in
//! a *later* batch — with entirely different group and node ids — maps
//! to the same entry and is served warm.
//!
//! Admission and eviction are **byte-budgeted** and ranked by the
//! paper's benefit-per-block metric: each entry carries the optimizer's
//! estimated `compute − reuse` saving divided by its charged blocks
//! (whole blocks — a sub-block result still occupies one, the same
//! rounding the Greedy space budget applies). When a new entry does not
//! fit, the lowest-ranked entries are evicted first, and only while the
//! newcomer outranks them — a cheap newcomer never flushes a more
//! valuable resident.
//!
//! Everything is deterministic: entries live in a `BTreeMap` ordered by
//! fingerprint, eviction order is `(score, fingerprint)`, and scores are
//! compared with `total_cmp`. Two runs that submit the same batch stream
//! observe identical hit/miss/evict sequences.

use crate::table::Table;
use mqo_chaos::Seam;
use mqo_dag::Fingerprint;
use mqo_util::MqoError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One cached materialized view.
#[derive(Debug, Clone)]
pub struct MvEntry {
    /// The materialized result (sorted per its physical property at
    /// materialization time).
    pub table: Arc<Table>,
    /// Charged footprint in bytes ([`Table::approx_bytes`] at admission).
    pub bytes: usize,
    /// Charged footprint in whole blocks (`blocks.max(1.0)`).
    pub charged_blocks: f64,
    /// Estimated per-reuse saving in seconds (`compute − reuse` under
    /// the admitting batch's cost table, floored at zero).
    pub benefit_secs: f64,
    /// Batch sequence number that admitted the entry.
    pub admitted_batch: u64,
    /// Batch sequence number of the last warm hit (or admission).
    pub last_used_batch: u64,
    /// Number of warm hits served.
    pub hits: u64,
}

impl MvEntry {
    /// Eviction rank: estimated benefit per whole occupied block —
    /// evict the least valuable byte first.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.benefit_secs / self.charged_blocks
    }
}

/// Hit/miss/evict accounting, cumulative over the store's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub admissions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Admission attempts rejected (over budget and not outranking any
    /// resident, or wider than the whole budget).
    pub rejections: u64,
}

/// What [`MvStore::admit`] did with an offered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; evicted this many residents to make room.
    Admitted {
        /// Number of entries evicted to fit the newcomer.
        evicted: usize,
    },
    /// Already resident (refreshed the last-used stamp).
    AlreadyPresent,
    /// Rejected: did not fit and did not outrank the cheapest residents.
    Rejected,
}

/// A byte-budgeted, benefit-ranked cache of materialized views keyed by
/// cross-batch fingerprints.
#[derive(Debug, Clone)]
pub struct MvStore {
    entries: BTreeMap<Fingerprint, MvEntry>,
    budget_bytes: usize,
    bytes_used: usize,
    stats: MvStats,
}

impl MvStore {
    /// An empty store with the given byte budget. A budget of `0`
    /// disables caching (every admission is rejected).
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        MvStore {
            entries: BTreeMap::new(),
            budget_bytes,
            bytes_used: 0,
            stats: MvStats::default(),
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently charged against the budget.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative accounting.
    #[must_use]
    pub fn stats(&self) -> MvStats {
        self.stats
    }

    /// True if a live entry exists for `fp` (no stats impact — used by
    /// the session's warm-set matching pass before the search).
    #[must_use]
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Reads a live entry **without** touching hit counters or stamps.
    /// This is the snapshot-read path of the serving front: concurrent
    /// planners peek a cheap clone of the store while forming their
    /// plans, and the commit records the resulting warm reads
    /// serially afterwards ([`MvStore::note_hit`]) — so accounting
    /// stays single-writer even though reads overlap.
    #[must_use]
    pub fn peek(&self, fp: Fingerprint) -> Option<Arc<Table>> {
        self.entries.get(&fp).map(|e| Arc::clone(&e.table))
    }

    /// Records one warm read made against an earlier snapshot of this
    /// store: counts the hit and refreshes the entry's last-used stamp.
    /// If the entry has been evicted since the snapshot was taken the
    /// read still happened (the snapshot's `Arc` kept the table alive),
    /// so it is counted as a hit against a departed resident rather
    /// than a miss.
    pub fn note_hit(&mut self, fp: Fingerprint, batch: u64) {
        self.stats.hits += 1;
        if let Some(e) = self.entries.get_mut(&fp) {
            e.hits += 1;
            e.last_used_batch = batch;
        }
    }

    /// Looks `fp` up, counting a hit or miss; a hit refreshes the
    /// last-used stamp.
    pub fn get(&mut self, fp: Fingerprint, batch: u64) -> Option<Arc<Table>> {
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.hits += 1;
                e.last_used_batch = batch;
                self.stats.hits += 1;
                Some(Arc::clone(&e.table))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Live entries in fingerprint order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, &MvEntry)> {
        self.entries.iter().map(|(&fp, e)| (fp, e))
    }

    /// Offers a freshly materialized table. `benefit_secs` is the
    /// optimizer's estimated `compute − reuse` saving for one reuse;
    /// `blocks` the cost model's size estimate (charged in whole
    /// blocks). Evicts lowest-`score()` residents while the newcomer
    /// outranks them and space is still short; rejects the newcomer
    /// otherwise.
    pub fn admit(
        &mut self,
        fp: Fingerprint,
        table: Arc<Table>,
        benefit_secs: f64,
        blocks: f64,
        batch: u64,
    ) -> Admission {
        if let Some(e) = self.entries.get_mut(&fp) {
            e.last_used_batch = batch;
            return Admission::AlreadyPresent;
        }
        let bytes = table.approx_bytes();
        let entry = MvEntry {
            table,
            bytes,
            charged_blocks: blocks.max(1.0),
            benefit_secs: benefit_secs.max(0.0),
            admitted_batch: batch,
            last_used_batch: batch,
            hits: 0,
        };
        if bytes > self.budget_bytes {
            self.stats.rejections += 1;
            return Admission::Rejected;
        }
        // Plan the eviction first, evict only if the plan actually makes
        // room: lowest benefit-per-block goes first (fingerprint breaks
        // ties deterministically; total_cmp keeps the order total even
        // for degenerate NaN scores), and planning stops at the first
        // resident the newcomer does not outrank. If the freed bytes
        // still would not fit the newcomer, nothing is evicted at all —
        // a rejected offer must never cost the cache a resident.
        let mut victims: Vec<(Fingerprint, usize)> = Vec::new();
        let mut freed = 0usize;
        if self.bytes_used + bytes > self.budget_bytes {
            let mut ranked: Vec<(f64, Fingerprint, usize)> = self
                .entries
                .iter()
                .map(|(&fp, e)| (e.score(), fp, e.bytes))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for (score, vfp, vbytes) in ranked {
                if self.bytes_used - freed + bytes <= self.budget_bytes {
                    break;
                }
                if entry.score() > score {
                    victims.push((vfp, vbytes));
                    freed += vbytes;
                } else {
                    break;
                }
            }
            if self.bytes_used - freed + bytes > self.budget_bytes {
                self.stats.rejections += 1;
                return Admission::Rejected;
            }
        }
        // The victim list carries each entry's charged bytes, so the
        // execution leg needs nothing back from the map: a planned
        // victim that has somehow vanished is a no-op on the counters
        // (and impossible — `&mut self` holds the map fixed between the
        // planning and execution legs), not a panic.
        let evicted = victims.len();
        for (vfp, vbytes) in victims {
            debug_assert!(self.entries.contains_key(&vfp), "planned victim exists");
            self.entries.remove(&vfp);
            self.bytes_used -= vbytes;
            self.stats.evictions += 1;
        }
        self.bytes_used += bytes;
        self.entries.insert(fp, entry);
        self.stats.admissions += 1;
        Admission::Admitted { evicted }
    }

    /// Fault-observable twin of [`MvStore::admit`]: crosses the
    /// `admission` failpoint seam before touching the store, and the
    /// `eviction` seam before an offer that will have to make room. On
    /// `Err` the store is untouched — the serving session stages
    /// admissions on a snapshot and rolls the whole batch back, so a
    /// fault here must not leak partial accounting.
    ///
    /// # Errors
    ///
    /// Returns the injected [`MqoError`] when a chaos failpoint fires;
    /// infallible otherwise.
    pub fn try_admit(
        &mut self,
        fp: Fingerprint,
        table: Arc<Table>,
        benefit_secs: f64,
        blocks: f64,
        batch: u64,
    ) -> Result<Admission, MqoError> {
        mqo_chaos::hit(Seam::Admission)?;
        let needs_room = !self.entries.contains_key(&fp)
            && table.approx_bytes() <= self.budget_bytes
            && self.bytes_used + table.approx_bytes() > self.budget_bytes;
        if needs_room {
            mqo_chaos::hit(Seam::Eviction)?;
        }
        Ok(self.admit(fp, table, benefit_secs, blocks, batch))
    }

    /// Drops every entry (budget and cumulative stats are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes_used = 0;
    }

    /// Overwrites the charged byte total, breaking the accounting on
    /// purpose — `mqo-verify`'s negative tests use this to prove the
    /// cache-accounting diagnostic is live. Never call it elsewhere.
    #[doc(hidden)]
    pub fn testing_set_bytes_used(&mut self, bytes: usize) {
        self.bytes_used = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::ColId;
    use mqo_expr::Value;

    fn table_of(rows: usize) -> Arc<Table> {
        Arc::new(Table::new(
            vec![ColId(0)],
            (0..rows).map(|i| vec![Value::Int(i as i64)]).collect(),
        ))
    }

    #[test]
    fn bytes_accounting_tracks_admissions_and_evictions() {
        let t = table_of(100); // 800 bytes of i64
        let bytes = t.approx_bytes();
        assert_eq!(bytes, 800);
        let mut store = MvStore::new(2 * bytes);
        assert_eq!(
            store.admit(1, Arc::clone(&t), 10.0, 1.0, 0),
            Admission::Admitted { evicted: 0 }
        );
        assert_eq!(
            store.admit(2, Arc::clone(&t), 20.0, 1.0, 0),
            Admission::Admitted { evicted: 0 }
        );
        assert_eq!(store.bytes_used(), 2 * bytes);
        // third entry outranks the cheapest → one eviction
        assert_eq!(
            store.admit(3, Arc::clone(&t), 15.0, 1.0, 1),
            Admission::Admitted { evicted: 1 }
        );
        assert_eq!(store.bytes_used(), 2 * bytes);
        assert!(!store.contains(1), "lowest benefit-per-block evicted");
        assert!(store.contains(2) && store.contains(3));
        assert_eq!(store.stats().evictions, 1);
    }

    /// Eviction order must rank by benefit per **whole** block — the
    /// PR 3 space-budget rule: a sub-block table is charged one full
    /// block, so its per-block score halves against a same-benefit
    /// two-block table's... rather, a 0.3-block entry with benefit 3
    /// scores 3/1, not 3/0.3.
    #[test]
    fn eviction_ranks_by_benefit_per_whole_block() {
        let t = table_of(10);
        let bytes = t.approx_bytes();
        let mut store = MvStore::new(2 * bytes);
        // entry A: benefit 3.0 over 0.3 blocks → charged 1 block, score 3
        store.admit(0xA, Arc::clone(&t), 3.0, 0.3, 0);
        // entry B: benefit 8.0 over 2 blocks → score 4
        store.admit(0xB, Arc::clone(&t), 8.0, 2.0, 0);
        // newcomer with score 3.5: must evict A (score 3 — whole-block
        // charging; raw-block ranking would score A at 10 and evict B)
        let adm = store.admit(0xC, Arc::clone(&t), 3.5, 1.0, 1);
        assert_eq!(adm, Admission::Admitted { evicted: 1 });
        assert!(!store.contains(0xA));
        assert!(store.contains(0xB) && store.contains(0xC));
    }

    #[test]
    fn weaker_newcomer_is_rejected_not_thrashed() {
        let t = table_of(10);
        let bytes = t.approx_bytes();
        let mut store = MvStore::new(2 * bytes);
        store.admit(1, Arc::clone(&t), 10.0, 1.0, 0);
        store.admit(2, Arc::clone(&t), 20.0, 1.0, 0);
        // score 5 < both residents → rejected, nothing evicted
        assert_eq!(
            store.admit(3, Arc::clone(&t), 5.0, 1.0, 1),
            Admission::Rejected
        );
        assert!(store.contains(1) && store.contains(2));
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(store.stats().rejections, 1);
    }

    #[test]
    fn ties_break_by_fingerprint_deterministically() {
        let t = table_of(10);
        let bytes = t.approx_bytes();
        let mut store = MvStore::new(2 * bytes);
        store.admit(7, Arc::clone(&t), 1.0, 1.0, 0);
        store.admit(3, Arc::clone(&t), 1.0, 1.0, 0);
        // equal scores: the smaller fingerprint (3) is the victim
        assert_eq!(
            store.admit(9, Arc::clone(&t), 2.0, 1.0, 1),
            Admission::Admitted { evicted: 1 }
        );
        assert!(!store.contains(3));
        assert!(store.contains(7));
    }

    /// A rejected offer must never cost the cache a resident: when
    /// evicting every outranked entry still would not free enough room,
    /// nothing is evicted at all (the eviction is planned before it is
    /// executed). The old loop evicted as it went and only then
    /// discovered the newcomer still did not fit.
    #[test]
    fn rejected_newcomer_never_partially_evicts() {
        let small = table_of(10); // 80 bytes
        let big = table_of(20); // 160 bytes
        let unit = small.approx_bytes();
        let mut store = MvStore::new(3 * unit);
        // A: score 1 (outranked by the newcomer), B: score 10 (not)
        store.admit(0xA, Arc::clone(&small), 1.0, 1.0, 0);
        store.admit(0xB, Arc::clone(&big), 20.0, 2.0, 0);
        assert_eq!(store.bytes_used(), 3 * unit);
        // newcomer needs all 3 units; evicting A alone frees 1 and B
        // outranks it → reject WITHOUT touching A
        let full = table_of(30); // 240 bytes
        assert_eq!(store.admit(0xC, full, 5.0, 1.0, 1), Admission::Rejected);
        assert!(store.contains(0xA), "partial eviction leaked a resident");
        assert!(store.contains(0xB));
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(store.stats().rejections, 1);
        assert_eq!(store.bytes_used(), 3 * unit);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let t = table_of(10);
        let mut store = MvStore::new(0);
        assert_eq!(store.admit(1, t, 100.0, 1.0, 0), Admission::Rejected);
        assert!(store.is_empty());
    }

    #[test]
    fn oversized_entry_rejected_without_eviction() {
        let small = table_of(10);
        let big = table_of(10_000);
        let mut store = MvStore::new(small.approx_bytes() * 3);
        store.admit(1, Arc::clone(&small), 1.0, 1.0, 0);
        assert_eq!(store.admit(2, big, 1e9, 1.0, 0), Admission::Rejected);
        assert!(store.contains(1), "resident survives an oversized offer");
    }

    #[test]
    fn get_counts_hits_and_misses_and_refreshes_stamp() {
        let t = table_of(10);
        let mut store = MvStore::new(1 << 20);
        store.admit(1, Arc::clone(&t), 1.0, 1.0, 0);
        assert!(store.get(1, 5).is_some());
        assert!(store.get(2, 5).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let entry = store.iter().next().unwrap().1;
        assert_eq!(entry.last_used_batch, 5);
        assert_eq!(entry.hits, 1);
    }

    #[test]
    fn readmission_is_idempotent_on_bytes() {
        let t = table_of(10);
        let mut store = MvStore::new(1 << 20);
        store.admit(1, Arc::clone(&t), 1.0, 1.0, 0);
        let used = store.bytes_used();
        assert_eq!(store.admit(1, t, 9.0, 1.0, 1), Admission::AlreadyPresent);
        assert_eq!(store.bytes_used(), used);
        assert_eq!(store.stats().admissions, 1);
    }
}
