//! The batch former: a **pure** state machine that coalesces many
//! tenants' submissions into MQO batches — waiting for company only
//! while company is plausibly coming — with round-robin fairness.
//!
//! Purity is the point: every transition takes the clock as an explicit
//! `now` argument and touches nothing but its own queues, so the
//! forming and fairness semantics are exercised by deterministic unit
//! tests with a fake clock — the submitting threads that drive it in
//! production (`ServeFront`) add nothing but `Instant::now()` and a
//! timed wait on their own reply.
//!
//! Forming rules (checked by [`Former::ready`]; any one suffices):
//!
//! - **nobody is missing** — a batch forms as soon as no tenant whose
//!   job was drained less than one [`FormerConfig::window`] ago has an
//!   empty lane. A tenant that just rode a batch is the only company
//!   the former can expect (a closed-loop client resubmits when its
//!   answer arrives), so a lone tenant, a first job, or a front whose
//!   other connections are idle forms at once, while tenants that keep
//!   resubmitting fall into lockstep and keep sharing one batch. A
//!   batch answers all its riders together, so a rider resubmitting
//!   renews the expectation of the batch's other riders: a batch that
//!   took longer than the window to execute does not split its riders
//!   up on their way back.
//! - **size cap** — a batch forms as soon as
//!   [`FormerConfig::max_batch_queries`] queries are queued; a hot
//!   front never waits out the clock just to batch.
//! - **time ceiling** — a batch forms once the oldest queued job has
//!   waited [`FormerConfig::window`]; whoever is missing, nobody waits
//!   longer than one window for company.
//!
//! Fairness (applied by [`Former::form`]):
//!
//! - jobs drain **round-robin across tenants**, one job per tenant per
//!   turn, starting from a cursor that rotates every formed batch — so
//!   a flooding tenant cannot occupy a batch wall-to-wall while another
//!   tenant's single job waits;
//! - a tenant contributes at most [`FormerConfig::tenant_share`]
//!   queries to one batch (its first job is always eligible, so an
//!   oversized job degrades to a solo share rather than deadlocking);
//! - at most [`FormerConfig::tenant_pending`] jobs may be queued per
//!   tenant; the excess is rejected at [`Former::push`] time
//!   ([`Push::AtCapacity`]) — backpressure to the flooder, not to the
//!   neighbors.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Window and fairness knobs for the [`Former`].
#[derive(Debug, Clone, Copy)]
pub struct FormerConfig {
    /// The ceiling on how long any job waits for batch company, and
    /// how long a tenant that just rode a batch is expected back. Never
    /// a floor: a job nobody is expected to join forms at once.
    pub window: Duration,
    /// Queued-query count that forms a batch immediately. Also the
    /// (soft) size target of a formed batch: draining stops at the
    /// first job that reaches it, so a batch may overshoot by at most
    /// one job.
    pub max_batch_queries: usize,
    /// Max queries one tenant contributes to a single formed batch
    /// (its first job is exempt, see module docs).
    pub tenant_share: usize,
    /// Max jobs queued per tenant; `push` rejects beyond this.
    pub tenant_pending: usize,
}

impl Default for FormerConfig {
    fn default() -> Self {
        FormerConfig {
            window: Duration::from_millis(2),
            max_batch_queries: 16,
            tenant_share: 8,
            tenant_pending: 8,
        }
    }
}

/// Outcome of a [`Former::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The job is queued and will ride the next eligible batch.
    Queued,
    /// The tenant is at its in-flight cap; the job was **not** queued.
    AtCapacity,
}

/// One job drained into a formed batch, in drain (= batch) order.
#[derive(Debug)]
pub struct Formed<P> {
    /// The tenant that submitted the job.
    pub tenant: String,
    /// Number of queries the job contributes to the batch.
    pub queries: usize,
    /// The caller's payload, handed back untouched.
    pub payload: P,
}

#[derive(Debug)]
struct Queued<P> {
    queries: usize,
    enqueued_at: Instant,
    payload: P,
}

/// The pure batch-forming state machine. `P` is an opaque per-job
/// payload (the serving front stores the lowered queries and the reply
/// channel there; unit tests store `()`).
#[derive(Debug)]
pub struct Former<P> {
    cfg: FormerConfig,
    /// Per-tenant FIFO lanes. `BTreeMap` so every iteration anywhere in
    /// this crate is deterministically ordered.
    lanes: BTreeMap<String, VecDeque<Queued<P>>>,
    /// Every tenant seen, in first-arrival order; the drain cursor
    /// rotates over this so batch leadership round-robins.
    rotation: Vec<Seat>,
    queued_queries: usize,
}

/// A tenant's place in the drain rotation.
#[derive(Debug)]
struct Seat {
    tenant: String,
    /// The last formed batch that took one of this tenant's jobs.
    last_ride: Option<Ride>,
}

#[derive(Debug, Clone, Copy)]
struct Ride {
    /// When the batch formed — the same instant for all its riders.
    formed_at: Instant,
    /// The latest sign that the batch's answers are on their way: its
    /// forming, or one of its riders resubmitting. For one window after
    /// it the tenant is expected to resubmit.
    expected_from: Instant,
}

impl<P> Former<P> {
    /// An empty former under `cfg`.
    #[must_use]
    pub fn new(cfg: FormerConfig) -> Self {
        Former {
            cfg,
            lanes: BTreeMap::new(),
            rotation: Vec::new(),
            queued_queries: 0,
        }
    }

    /// The config the former was built with.
    #[must_use]
    pub fn config(&self) -> &FormerConfig {
        &self.cfg
    }

    /// True when no job is queued anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queued_queries == 0 && self.lanes.values().all(VecDeque::is_empty)
    }

    /// Number of jobs currently queued for `tenant`.
    #[must_use]
    pub fn pending(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map_or(0, VecDeque::len)
    }

    /// Queues one job of `queries` queries for `tenant`, unless the
    /// tenant is at its in-flight cap.
    pub fn push(&mut self, tenant: &str, queries: usize, payload: P, now: Instant) -> Push {
        let lane = self.lanes.entry(tenant.to_string()).or_default();
        if lane.len() >= self.cfg.tenant_pending {
            return Push::AtCapacity;
        }
        lane.push_back(Queued {
            queries,
            enqueued_at: now,
            payload,
        });
        self.queued_queries += queries;
        let back_from = match self.rotation.iter().find(|s| s.tenant == tenant) {
            Some(seat) => seat.last_ride.map(|r| r.formed_at),
            None => {
                self.rotation.push(Seat {
                    tenant: tenant.to_string(),
                    last_ride: None,
                });
                None
            }
        };
        // Back from a batch: its other riders were answered too.
        let rides = self
            .rotation
            .iter_mut()
            .filter_map(|s| s.last_ride.as_mut());
        for ride in rides.filter(|r| Some(r.formed_at) == back_from) {
            ride.expected_from = ride.expected_from.max(now);
        }
        Push::Queued
    }

    /// Instant of the oldest queued job, if any.
    fn oldest(&self) -> Option<Instant> {
        self.lanes
            .values()
            .filter_map(|l| l.front().map(|j| j.enqueued_at))
            .min()
    }

    /// When the last missing tenant stops being expected: one window
    /// after the latest `expected_from` over tenants with an empty
    /// lane. `None` when no tenant that rode a batch is missing.
    fn awaited_until(&self) -> Option<Instant> {
        self.rotation
            .iter()
            .filter(|s| self.pending(&s.tenant) == 0)
            .filter_map(|s| s.last_ride)
            .map(|r| r.expected_from)
            .max()
            .map(|t| t + self.cfg.window)
    }

    /// The earliest instant at which [`Former::ready`] holds without a
    /// further push, if jobs are queued: the oldest job's ceiling or
    /// the moment the last missing tenant stops being expected,
    /// whichever is first. A waiting submitter sleeps until this (or
    /// its answer).
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        let ceiling = self.oldest()? + self.cfg.window;
        Some(self.awaited_until().map_or(ceiling, |t| t.min(ceiling)))
    }

    /// True when any forming rule is satisfied (see module docs).
    #[must_use]
    pub fn ready(&self, now: Instant) -> bool {
        let Some(oldest) = self.oldest() else {
            return false;
        };
        self.queued_queries >= self.cfg.max_batch_queries
            || now >= oldest + self.cfg.window
            || !self.awaited_until().is_some_and(|t| now < t)
    }

    /// Forms one batch if a forming rule fires, draining jobs
    /// round-robin across tenants (see module docs for the fairness
    /// rules). Returns `None` when nothing is ready — call again after
    /// [`Former::next_deadline`] or the next push.
    pub fn form(&mut self, now: Instant) -> Option<Vec<Formed<P>>> {
        if !self.ready(now) {
            return None;
        }
        Some(self.drain_round_robin(Some(now)))
    }

    /// Drains **everything** queued into a sequence of batches, ignoring
    /// the forming rules — the shutdown path, so no queued job is
    /// abandoned without either running or being answered.
    pub fn drain_all(&mut self) -> Vec<Vec<Formed<P>>> {
        let mut out = Vec::new();
        while !self.is_empty() {
            out.push(self.drain_round_robin(None));
        }
        out
    }

    /// One round-robin drain pass. A batch formed at `formed_at` stops
    /// at the batch size target and stamps the tenants it took from;
    /// the shutdown drain (`None`) does neither, so it terminates in
    /// one batch per share-ful.
    fn drain_round_robin(&mut self, formed_at: Option<Instant>) -> Vec<Formed<P>> {
        let cap = formed_at.map_or(usize::MAX, |_| self.cfg.max_batch_queries);
        let mut out = Vec::new();
        let mut taken = vec![0usize; self.rotation.len()];
        let mut total = 0usize;
        let mut progressed = true;
        while progressed && total < cap {
            progressed = false;
            for (seat, used) in self.rotation.iter_mut().zip(&mut taken) {
                if total >= cap {
                    break;
                }
                let Some(lane) = self.lanes.get_mut(&seat.tenant) else {
                    continue;
                };
                let Some(front) = lane.front() else {
                    continue;
                };
                if *used > 0 && *used + front.queries > self.cfg.tenant_share {
                    continue; // share spent for this batch
                }
                let Some(job) = lane.pop_front() else {
                    continue;
                };
                total += job.queries;
                *used += job.queries;
                self.queued_queries = self.queued_queries.saturating_sub(job.queries);
                if let Some(formed_at) = formed_at {
                    seat.last_ride = Some(Ride {
                        formed_at,
                        expected_from: formed_at,
                    });
                }
                out.push(Formed {
                    tenant: seat.tenant.clone(),
                    queries: job.queries,
                    payload: job.payload,
                });
                progressed = true;
            }
        }
        // Rotate leadership to the tenant after this batch's leader.
        // Tenants persist in the rotation even when their lane drains,
        // so leadership keeps rotating across sparse traffic (the list
        // is bounded by the distinct-tenant count).
        if !self.rotation.is_empty() {
            self.rotation.rotate_left(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FormerConfig {
        FormerConfig {
            window: Duration::from_millis(10),
            max_batch_queries: 8,
            tenant_share: 4,
            tenant_pending: 3,
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A former whose tenants each rode one batch formed at `at`, so
    /// each is expected back until `at + window`.
    fn drained_together(tenants: &[&str], at: Instant) -> Former<()> {
        let mut f: Former<()> = Former::new(cfg());
        for t in tenants {
            f.push(t, 1, (), at);
        }
        let batch = f.form(at).expect("nobody is missing");
        assert_eq!(batch.len(), tenants.len());
        f
    }

    #[test]
    fn lone_tenant_forms_at_its_push_instant() {
        let t0 = Instant::now();
        let mut f: Former<()> = Former::new(cfg());
        assert_eq!(f.push("a", 2, (), t0), Push::Queued);
        assert_eq!(f.next_deadline(), Some(t0 + ms(10)));
        let batch = f.form(t0).expect("a first job has no company to wait for");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tenant, "a");
        assert!(f.is_empty());
        assert_eq!(f.next_deadline(), None);
        // Resubmitting inside the window: `a` itself is not missing.
        f.push("a", 2, (), t0 + ms(1));
        assert!(f.form(t0 + ms(1)).is_some());
    }

    #[test]
    fn tenants_drained_together_wait_for_each_other() {
        let t0 = Instant::now();
        let mut f = drained_together(&["a", "b"], t0);
        f.push("a", 1, (), t0 + ms(1));
        assert!(f.form(t0 + ms(1)).is_none(), "b is expected back");
        assert_eq!(f.next_deadline(), Some(t0 + ms(11)));
        f.push("b", 1, (), t0 + ms(2));
        let batch = f.form(t0 + ms(2)).expect("nobody is missing any more");
        assert_eq!(batch.len(), 2, "a and b ride one batch again");
    }

    #[test]
    fn riders_of_a_slow_batch_still_wait_for_each_other() {
        let t0 = Instant::now();
        // The batch took 25 ms to answer; a is back first.
        let mut f = drained_together(&["a", "b"], t0);
        f.push("a", 1, (), t0 + ms(25));
        assert!(
            f.form(t0 + ms(25)).is_none(),
            "a is back, so b is about to be"
        );
        f.push("b", 1, (), t0 + ms(26));
        assert_eq!(f.form(t0 + ms(26)).map(|b| b.len()), Some(2));

        // If b never follows, a's own ceiling still forms the batch.
        let mut f = drained_together(&["a", "b"], t0);
        f.push("a", 1, (), t0 + ms(25));
        assert_eq!(f.next_deadline(), Some(t0 + ms(35)));
        assert_eq!(f.form(t0 + ms(35)).map(|b| b.len()), Some(1));
    }

    #[test]
    fn tenant_drained_a_window_ago_is_not_waited_for() {
        let t0 = Instant::now();
        // b rode a batch of its own at t0 and went away.
        let mut f = drained_together(&["b"], t0);
        f.push("a", 1, (), t0 + ms(10));
        let batch = f.form(t0 + ms(10)).expect("b's expectation expired");
        assert_eq!(batch.len(), 1);

        // Queued while b is still expected: forms when that expires,
        // before the job's own ceiling.
        let mut f = drained_together(&["b"], t0);
        f.push("a", 1, (), t0 + ms(4));
        assert!(f.form(t0 + ms(4)).is_none());
        assert_eq!(f.next_deadline(), Some(t0 + ms(10)));
        assert!(f.form(t0 + ms(10)).is_some());
    }

    #[test]
    fn expected_tenant_that_never_returns_forms_at_the_ceiling() {
        let t0 = Instant::now();
        let mut f = drained_together(&["a", "b"], t0);
        f.push("a", 2, (), t0);
        assert!(f.form(t0).is_none(), "b is expected back");
        assert_eq!(f.next_deadline(), Some(t0 + ms(10)));
        let just_before = t0 + ms(10) - Duration::from_nanos(1);
        assert!(f.form(just_before).is_none(), "window not elapsed");
        let batch = f.form(t0 + ms(10)).expect("nobody waits past the ceiling");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tenant, "a");
        assert!(f.is_empty());
    }

    #[test]
    fn size_cap_forms_while_company_is_expected() {
        let t0 = Instant::now();
        let mut f = drained_together(&["a", "b", "c"], t0);
        f.push("a", 4, (), t0 + ms(1));
        assert!(f.form(t0 + ms(1)).is_none(), "b and c are expected back");
        f.push("b", 4, (), t0 + ms(1));
        let batch = f
            .form(t0 + ms(1))
            .expect("8 queries queued = size cap, c or no c");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn flooding_tenant_cannot_starve_another() {
        let t0 = Instant::now();
        let mut f: Former<u32> = Former::new(cfg());
        // Tenant a floods its whole pending cap with 2-query jobs…
        assert_eq!(f.push("a", 2, 0, t0), Push::Queued);
        assert_eq!(f.push("a", 2, 1, t0), Push::Queued);
        assert_eq!(f.push("a", 2, 2, t0), Push::Queued);
        // …and the cap rejects the rest of the flood.
        assert_eq!(f.push("a", 2, 3, t0), Push::AtCapacity);
        // Tenant b arrives late with one job.
        assert_eq!(f.push("b", 2, 9, t0), Push::Queued);
        let batch = f.form(t0 + Duration::from_millis(10)).unwrap();
        // Round-robin: a, b alternate; a stops at its 4-query share.
        let order: Vec<(&str, u32)> = batch
            .iter()
            .map(|j| (j.tenant.as_str(), j.payload))
            .collect();
        assert_eq!(order, [("a", 0), ("b", 9), ("a", 1)]);
        // b's job rode the FIRST batch despite a's flood.
        assert!(order.iter().any(|&(t, _)| t == "b"));
        // a's third job is still queued for the next batch.
        assert_eq!(f.pending("a"), 1);
    }

    #[test]
    fn leadership_rotates_between_batches() {
        let t0 = Instant::now();
        let mut f: Former<()> = Former::new(cfg());
        for _ in 0..2 {
            f.push("a", 1, (), t0);
            f.push("b", 1, (), t0);
        }
        let b1 = f.form(t0 + Duration::from_millis(10)).unwrap();
        assert_eq!(b1.first().map(|j| j.tenant.as_str()), Some("a"));
        f.push("a", 1, (), t0);
        f.push("b", 1, (), t0);
        let b2 = f.form(t0 + Duration::from_millis(20)).unwrap();
        assert_eq!(
            b2.first().map(|j| j.tenant.as_str()),
            Some("b"),
            "the next batch leads with the next tenant"
        );
    }

    #[test]
    fn oversized_first_job_forms_solo_share() {
        let t0 = Instant::now();
        let mut f: Former<()> = Former::new(cfg());
        f.push("a", 10, (), t0); // > tenant_share AND > max_batch_queries
        let batch = f.form(t0).expect("size window fires");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].queries, 10);
        assert!(f.is_empty());
    }

    #[test]
    fn drain_all_empties_everything() {
        let t0 = Instant::now();
        let mut f: Former<()> = Former::new(cfg());
        for _ in 0..3 {
            f.push("a", 3, (), t0);
            f.push("b", 3, (), t0);
        }
        let batches = f.drain_all();
        assert!(f.is_empty());
        let jobs: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(jobs, 6);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A caller that forms on every push and otherwise sleeps until
        /// `next_deadline()` — what a waiting submitter does — always wakes
        /// to a ready former, never spins, and never holds a job past
        /// one window.
        #[test]
        fn sleeping_until_next_deadline_never_overholds(
            schedule in proptest::collection::vec((0u64..15_000, 0usize..4, 0usize..5), 1..40)
        ) {
            const TENANTS: [&str; 4] = ["a", "b", "c", "d"];
            let window = cfg().window;
            // Payload = enqueue instant, checked when the job drains.
            fn drain(f: &mut Former<Instant>, now: Instant, window: Duration) {
                while let Some(batch) = f.form(now) {
                    for job in batch {
                        assert!(now.duration_since(job.payload) <= window, "job held too long");
                    }
                }
            }
            let mut f: Former<Instant> = Former::new(cfg());
            let mut now = Instant::now();
            // A final far-off tick lets every queued job reach its deadline.
            let ticks = schedule.into_iter().chain([(1_000_000, 0, 0)]);
            for (dt_us, tenant, queries) in ticks {
                let next_event = now + Duration::from_micros(dt_us);
                while let Some(deadline) = f.next_deadline().filter(|&d| d <= next_event) {
                    proptest::prop_assert!(deadline > now, "a sleeping caller would spin");
                    proptest::prop_assert!(f.ready(deadline), "woke to a former that is not ready");
                    now = deadline;
                    drain(&mut f, now, window);
                }
                now = next_event;
                if queries > 0 {
                    f.push(TENANTS[tenant], queries, now, now);
                }
                drain(&mut f, now, window);
            }
            proptest::prop_assert!(f.is_empty());
        }
    }
}
