//! What the four workloads share: the lap loop, the metric tables and
//! the arithmetic that turns laps and spans into named metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::oracle::Oracle;
use crate::span::Recorder;
use crate::stats::{geo_mean, median, percentile, samples_beyond};

/// The seed used when `--seed` is absent. Golden hashes are committed
/// for it and for [`HELD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 20_000_516;
/// A second seed with committed golden hashes that no-one tunes on: a
/// claim made on the default seed must also hold here.
pub const HELD_OUT_SEED: u64 = 20_150_831;

/// Timed ops a run must reach, however short `--seconds` is.
pub const MIN_TIMED_OPS: usize = 200;
/// Timed laps a run must reach: the metrics are medians over laps.
const MIN_TIMED_LAPS: usize = 5;
/// Stop starting new laps here even if short of [`MIN_TIMED_OPS`]: the
/// driver allows a run 180 s.
const HARD_STOP: Duration = Duration::from_secs(120);

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
/// The seventh of the issue, `failed_share`, travels in the result
/// line's `failed` / `attempted` fields.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("queries_per_s", "1/s"),
    ("est_cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`.
/// `_us` metrics are the median µs per op of the span of that name;
/// `count` metrics are the mean per op of the count of that name; the
/// rest are derived in [`per_layer`].
pub const PER_LAYER: [(&str, &str); 61] = [
    ("sql.lex_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.tokens", "count"),
    ("serve.registrar.lower_us", "us"),
    ("serve.former.form_us", "us"),
    ("serve.former.batch_queries", "count"),
    ("serve.front.submit_us", "us"),
    ("serve.front.residual_us", "us"),
    ("serve.tcp.roundtrip_us", "us"),
    ("serve.tcp.overhead_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.result_bytes", "B"),
    ("serve.overloaded", "count"),
    ("serve.degraded", "count"),
    ("session.submit_us", "us"),
    ("session.plan_execute_us", "us"),
    ("session.commit_us", "us"),
    ("session.warm_lookup_us", "us"),
    ("session.hit_ratio", "ratio"),
    ("session.unaccounted_share", "ratio"),
    ("dag.expand_us", "us"),
    ("dag.fingerprint_us", "us"),
    ("dag.groups", "count"),
    ("dag.ops", "count"),
    ("dag.sharable", "count"),
    ("physical.build_us", "us"),
    ("physical.fingerprint_us", "us"),
    ("physical.cost_table_us", "us"),
    ("physical.extract_us", "us"),
    ("physical.nodes", "count"),
    ("physical.ops", "count"),
    ("core.search_us.volcano", "us"),
    ("core.search_us.volcano-sh", "us"),
    ("core.search_us.volcano-ru", "us"),
    ("core.search_us.greedy", "us"),
    ("core.cost_ratio.volcano-sh", "ratio"),
    ("core.cost_ratio.volcano-ru", "ratio"),
    ("core.cost_ratio.greedy", "ratio"),
    ("core.greedy.benefit_recomputations", "count"),
    ("core.greedy.cost_propagations", "count"),
    ("core.candidates", "count"),
    ("core.materialized", "count"),
    ("core.warm_reused", "count"),
    ("ks15.search_us", "us"),
    ("ks15.cost_ratio", "ratio"),
    ("cost.est_over_measured", "ratio"),
    ("verify.boundaries_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_out", "count"),
    ("exec.temps_built", "count"),
    ("exec.mv_store.admit_us", "us"),
    ("exec.mv_store.clone_us", "us"),
    ("exec.mv_store.entries", "count"),
    ("exec.mv_store.bytes_used", "B"),
    ("exec.mv_store.admitted", "count"),
    ("exec.mv_store.evicted", "count"),
    ("exec.mv_store.rejected", "count"),
    ("exec.datagen_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// One caller-visible request.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Caller-observed time of the op alone.
    pub secs: f64,
    /// Statements the op answered.
    pub queries: usize,
    /// Hash of the op's canonical output (0 if it failed).
    pub hash: u64,
    /// False if the op erred, was refused, degraded, or answered wrong.
    pub ok: bool,
}

/// One pass over a fixed op list.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Wall time of the ops alone; checking is done after the clock
    /// stops.
    pub wall: f64,
    pub ops: Vec<OpRecord>,
}

impl Lap {
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    pub fn queries_per_s(&self) -> f64 {
        let answered: usize = self.ops.iter().filter(|o| o.ok).map(|o| o.queries).sum();
        answered as f64 / self.wall
    }

    /// Nearest-rank percentile of the lap's op times, in ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let secs: Vec<f64> = self.ops.iter().map(|o| o.secs).collect();
        percentile(&secs, p) * 1e3
    }
}

/// What a traced replay hands back beside its spans.
#[derive(Debug, Default)]
pub struct TraceOut {
    /// Ops in the replayed lap: what a per-op count is a mean over.
    pub ops: usize,
    /// Ops sent over all lanes of the replay, and how many failed.
    pub attempted: usize,
    pub failed: usize,
    /// Metrics read off the system's own counters (`FrontTotals`, the
    /// store) rather than off spans.
    pub gauges: Vec<(&'static str, f64)>,
}

/// One of the four workloads: how to set the system up, run one lap of
/// ops against it, and replay a lap stage by stage.
pub trait Workload {
    /// The system under test, as set up for one run.
    type World;

    fn name(&self) -> &'static str;

    /// Settings for the output header (scale, clients, cache budget).
    fn settings(&self) -> Vec<(&'static str, String)>;

    /// How often a run repeats set-up to report its median.
    fn setups(&self) -> usize;

    /// The program's set-up: catalog, generated data, session or
    /// server. Timed by the caller.
    fn build(&mut self) -> Self::World;

    /// Runs lap `lap`'s ops (lap 0 is the warm-up), then checks every
    /// output outside the timed span.
    fn lap(&mut self, world: &mut Self::World, lap: usize) -> Lap;

    /// Replays lap 1 with a single caller, stage by stage, recording
    /// spans. `reference` is the untraced lap 1 of this same run, whose
    /// output hashes the replay must reproduce.
    fn trace(&mut self, rec: &mut Recorder, world: &mut Self::World, reference: &Lap) -> TraceOut;

    fn oracle(&self) -> &Oracle;

    fn oracle_mut(&mut self) -> &mut Oracle;

    /// Median seconds spent generating data during set-up.
    fn datagen_secs(&self) -> f64;
}

#[derive(Debug, Default)]
pub struct Run {
    pub setup_secs: Vec<f64>,
    /// Lap 0 of every set-up.
    pub warmups: Vec<Lap>,
    /// Laps 1.., the timed ones.
    pub laps: Vec<Lap>,
}

impl Run {
    pub fn attempted(&self) -> usize {
        self.warmups
            .iter()
            .chain(&self.laps)
            .map(|l| l.ops.len())
            .sum()
    }

    pub fn failed(&self) -> usize {
        self.warmups.iter().chain(&self.laps).map(Lap::failed).sum()
    }
}

/// Sets the system up (`setups` times, keeping the last), then runs
/// timed laps until `seconds` of lap time and [`MIN_TIMED_OPS`] are
/// both reached. `quick` stops after one set-up and one lap.
pub fn run_laps<W: Workload>(w: &mut W, seconds: f64, quick: bool) -> (Run, W::World) {
    let started = Instant::now();
    let mut run = Run::default();
    let mut world = None;
    for _ in 0..if quick { 1 } else { w.setups() } {
        drop(world.take());
        let t = Instant::now();
        let mut fresh = w.build();
        let build = t.elapsed().as_secs_f64();
        w.oracle_mut().pin = true;
        let warmup = w.lap(&mut fresh, 0);
        run.setup_secs.push(build + warmup.wall);
        run.warmups.push(warmup);
        world = Some(fresh);
    }
    let mut world = world.expect("at least one set-up ran");
    let (mut timed, mut ops) = (0.0, 0);
    loop {
        // Laps 0 and 1 are the fixed set `est_cost_ratio` and the
        // golden hashes cover; how many more run depends on the clock.
        w.oracle_mut().pin = run.laps.is_empty();
        let lap = w.lap(&mut world, run.laps.len() + 1);
        timed += lap.wall;
        ops += lap.ops.len();
        run.laps.push(lap);
        let enough = timed >= seconds && ops >= MIN_TIMED_OPS && run.laps.len() >= MIN_TIMED_LAPS;
        if quick || enough || started.elapsed() > HARD_STOP {
            break;
        }
    }
    (run, world)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
/// Each timing metric is computed per lap and reported as the median
/// over the timed laps, so a stall that hits a few laps moves nothing.
pub fn end_to_end(run: &Run, oracle: &Oracle) -> Vec<(&'static str, f64, &'static str)> {
    let per_lap = |f: &dyn Fn(&Lap) -> f64| median(&run.laps.iter().map(f).collect::<Vec<_>>());
    let values = [
        median(&run.setup_secs),
        per_lap(&|lap| lap.latency_ms(0.50)),
        per_lap(&|lap| lap.latency_ms(0.95)),
        per_lap(&Lap::queries_per_s),
        oracle.est_cost_ratio(),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// The per-layer metrics of a traced replay, in [`PER_LAYER`] order.
/// `untraced_secs` is the summed op time of the untraced reference lap.
pub fn per_layer(
    rec: &Recorder,
    out: &TraceOut,
    untraced_secs: f64,
    datagen_secs: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n_ops = out.ops.max(1) as f64;
    let med = |span: &str| rec.median_us(span);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let selfs = rec.self_secs_by_name();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let enclosing = if rec.total_secs("session.submit") > 0.0 {
        rec.total_secs("session.submit")
    } else {
        rec.total_secs("op")
    };
    let est = rec.count_by_op("cost.est_secs");
    let est_over_measured: Vec<f64> = rec
        .us_by_op("exec.execute")
        .iter()
        .filter_map(|(op, us)| Some(est.get(op)? / (us / 1e6)))
        .collect();
    let (hits, built) = (
        rec.count_sum("session.cache_hits"),
        rec.count_sum("exec.temps_built"),
    );
    let volcano_cost = rec.count_sum("cost.volcano");

    let mut derived: BTreeMap<&str, f64> = out.gauges.iter().copied().collect();
    derived.insert(
        "sql.parse_us",
        (med("sql.parse_statements") - med("sql.lex")).max(0.0),
    );
    // Differences of medians, meaningful only where the serving lanes ran.
    let front_submit = med("serve.front.submit");
    if front_submit > 0.0 {
        derived.insert(
            "serve.front.residual_us",
            front_submit
                - med("serve.registrar.lower")
                - med("session.plan_execute")
                - med("session.commit"),
        );
        derived.insert(
            "serve.tcp.overhead_us",
            med("serve.tcp.roundtrip") - front_submit,
        );
    }
    derived.insert("session.hit_ratio", ratio(hits, hits + built));
    derived.insert(
        "session.unaccounted_share",
        ratio(
            self_of("op") + self_of("session.submit") + self_of("session.plan_execute"),
            enclosing,
        ),
    );
    for (metric, cost) in [
        ("core.cost_ratio.volcano-sh", "cost.volcano-sh"),
        ("core.cost_ratio.volcano-ru", "cost.volcano-ru"),
        ("core.cost_ratio.greedy", "cost.greedy"),
        ("ks15.cost_ratio", "cost.ks15"),
    ] {
        derived.insert(metric, ratio(rec.count_sum(cost), volcano_cost));
    }
    derived.insert("cost.est_over_measured", geo_mean(&est_over_measured));
    derived.insert("exec.datagen_s", datagen_secs);
    derived.insert(
        "trace.overhead_share",
        ratio(rec.total_secs("op"), untraced_secs) - 1.0,
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(&v) = derived.get(name) {
                v
            } else if let Some(strategy) = name.strip_prefix("core.search_us.") {
                med(&format!("core.search.{strategy}"))
            } else if let Some(span) = name.strip_suffix("_us") {
                med(span)
            } else {
                rec.count_sum(name) / n_ops
            };
            // An empty float sum is -0.0; adding 0.0 makes it 0.0.
            (name, value + 0.0, unit)
        })
        .collect()
}

/// Sample counts printed beside the latency percentiles: ops per
/// timed lap, and how many of them lie beyond that lap's p95.
pub fn latency_samples(run: &Run) -> (usize, usize) {
    let n = run.laps.first().map_or(0, |l| l.ops.len());
    (n, samples_beyond(n, 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(secs: f64, ok: bool) -> OpRecord {
        OpRecord {
            secs,
            queries: 2,
            hash: 0,
            ok,
        }
    }

    #[test]
    fn throughput_counts_answered_statements_only() {
        let lap = Lap {
            wall: 2.0,
            ops: vec![op(0.5, true), op(0.5, true), op(1.0, false)],
        };
        assert_eq!(lap.queries_per_s(), 2.0);
        assert_eq!(lap.failed(), 1);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        // BENCHMARK.json is hand-kept; this is what keeps it in step.
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn per_layer_reads_spans_counts_and_gauges() {
        let mut rec = Recorder::new();
        for i in 0..2 {
            rec.set_op(i);
            let op = rec.enter("op");
            rec.time("dag.expand", || ());
            rec.time("core.search.greedy", || ());
            rec.exit(op);
            rec.count("dag.groups", 10.0 + f64::from(i));
            rec.count("cost.greedy", 1.0);
            rec.count("cost.volcano", 2.0);
        }
        let out = TraceOut {
            ops: 2,
            attempted: 2,
            failed: 0,
            gauges: vec![("exec.mv_store.entries", 7.0)],
        };
        let metrics = per_layer(&rec, &out, rec.total_secs("op"), 0.25);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("dag.groups"), 10.5);
        assert_eq!(get("core.cost_ratio.greedy"), 0.5);
        assert_eq!(get("exec.mv_store.entries"), 7.0);
        assert_eq!(get("exec.datagen_s"), 0.25);
        assert_eq!(get("exec.execute_us"), 0.0);
        assert!(get("trace.overhead_share").abs() < 1e-9);
        assert!(get("session.unaccounted_share") > 0.0);
        assert!(get("core.search_us.greedy") >= 0.0);
    }
}
