//! The repository's benchmark: four named workloads over the whole
//! submit path, end-to-end metrics from an untraced run and per-layer
//! metrics from a staged replay, all measured from outside the
//! program. `bench/README.md` is the manual.
//!
//! ```text
//! benchmark --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]]
//!           [--out <dir>] [--quick] [--write-expected]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints
//! one JSON result object as its last line. Without, it runs all four,
//! each in a child process of its own, so that `setup_s` and
//! `peak_rss_mb` are per workload.

mod cold;
mod harness;
mod json;
mod oracle;
mod rng;
mod scaleup;
mod serve;
mod span;
mod staged;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{Workload, DEFAULT_SEED, HELD_OUT_SEED};
use span::Recorder;

const WORKLOADS: [&str; 4] = [
    "batch-cold",
    "optimize-scaleup",
    "serve-warm",
    "serve-churn",
];

/// The environment knobs the program reads, pinned so that a stray
/// setting in the caller's shell cannot change what is measured.
///
/// `MQO_THREADS` is 1, not the box's 2 cores: with two probe threads on
/// this two-vCPU VM every host steal stalls a search, and ten runs of
/// `optimize-scaleup` spread by up to 25 % of their median (and each
/// search took twice as long: 5.4 ms against 2.7 ms at the median).
/// The serving workloads still run two planner workers and two clients.
const PINNED_ENV: [(&str, Option<&str>); 6] = [
    ("MQO_VERIFY", Some("off")),
    ("MQO_THREADS", Some("1")),
    ("MQO_EXEC_MODE", None),
    ("MQO_BATCH_ROWS", None),
    ("MQO_TIME_BUDGET_MS", None),
    ("MQO_MEM_BUDGET", None),
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    quick: bool,
    write_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("target/bench"),
        quick: false,
        write_expected: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds `{v}` is not a duration"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            // `--trace` alone, or followed by 0 or 1 as the driver passes it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn header_json<W: Workload>(w: &W, args: &Args) -> String {
    let mut fields = vec![
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("git_rev", git_rev()),
        ("nproc", mqo_util::available_parallelism().to_string()),
        ("profile", "release".into()),
        ("strategy", staged::STRATEGY.into()),
        ("seconds", args.seconds.to_string()),
        ("quick", args.quick.to_string()),
    ];
    fields.extend(w.settings());
    for (name, value) in PINNED_ENV {
        fields.push((name, value.unwrap_or("unset").to_string()));
    }
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_out(dir: &Path, file: &str, text: &str) {
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), text));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", dir.join(file).display());
    }
}

/// Prints the metrics by name, then the result line the driver reads.
/// Returns whether every output was correct.
fn report(
    metrics: &[(&'static str, f64, &'static str)],
    attempted: usize,
    failed: usize,
    golden_mismatches: usize,
) -> (String, bool) {
    for (name, value, unit) in metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let correct = failed == 0 && golden_mismatches == 0;
    println!(
        "failed_share                             {:>16.6} ratio   ({failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json::metrics_object(metrics)
    );
    (line, correct)
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace`: one untraced lap for reference, then its staged replay.
fn run_traced<W: Workload>(mut w: W, args: &Args) -> ExitCode {
    let header = header_json(&w, args);
    let (run, mut world) = harness::run_laps(&mut w, 0.0, true);
    let reference = &run.laps[0];
    let mut rec = Recorder::new();
    let out = w.trace(&mut rec, &mut world, reference);
    drop(world);
    let untraced_secs: f64 = reference.ops.iter().map(|o| o.secs).sum();
    let metrics = harness::per_layer(&rec, &out, untraced_secs, w.datagen_secs());
    let (line, correct) = report(
        &metrics,
        run.attempted() + out.attempted,
        run.failed() + out.failed,
        w.oracle().golden_mismatches(),
    );
    let selfs: Vec<String> = rec
        .self_secs_by_name()
        .iter()
        .map(|(name, secs)| format!("{}: {}", json::string(name), json::number(*secs)))
        .collect();
    write_out(
        &args.out,
        &format!("TRACE_{}.json", w.name()),
        &format!(
            "{{\"header\": {header},\n\"result\": {line},\n\"self_secs_by_span\": {{{}}},\n\
             \"spans\": {}}}\n",
            selfs.join(", "),
            rec.spans_json()
        ),
    );
    println!("{line}");
    exit_code(correct)
}

/// `--write-expected`: laps 0 and 1 with references from the row
/// engine, written out as this seed's golden hashes.
fn write_expected<W: Workload>(mut w: W) -> ExitCode {
    w.oracle_mut().engine = mqo_exec::ExecMode::Row;
    let (_, world) = harness::run_laps(&mut w, 0.0, true);
    drop(world);
    match w.oracle().write_golden() {
        Ok(Some(path)) => println!("wrote {}", path.display()),
        Ok(None) => println!("{} has no row results to pin", w.name()),
        Err(e) => {
            eprintln!("benchmark: cannot write golden hashes: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The untraced run: where the end-to-end metrics come from.
fn run_untraced<W: Workload>(mut w: W, args: &Args) -> ExitCode {
    let header = header_json(&w, args);
    let (run, world) = harness::run_laps(&mut w, args.seconds, args.quick);
    drop(world);
    let metrics = harness::end_to_end(&run, w.oracle());
    let (samples, beyond_p95) = harness::latency_samples(&run);
    println!(
        "{} timed laps of {samples} ops, {beyond_p95} of them beyond the lap's p95; golden hashes: {}",
        run.laps.len(),
        if w.oracle().has_golden() {
            "checked".to_string()
        } else {
            format!(
                "none for this workload and seed (committed for {DEFAULT_SEED} and the \
                 held-out {HELD_OUT_SEED}, where ops return rows)"
            )
        }
    );
    let (line, correct) = report(
        &metrics,
        run.attempted(),
        run.failed(),
        w.oracle().golden_mismatches(),
    );
    let laps: Vec<String> = run
        .laps
        .iter()
        .map(|l| {
            format!(
                "{{\"wall_s\": {}, \"ops\": {}, \"failed\": {}, \"latency_ms_p50\": {}, \
                 \"latency_ms_p95\": {}, \"queries_per_s\": {}}}",
                json::number(l.wall),
                l.ops.len(),
                l.failed(),
                json::number(l.latency_ms(0.50)),
                json::number(l.latency_ms(0.95)),
                json::number(l.queries_per_s())
            )
        })
        .collect();
    let setups: Vec<String> = run.setup_secs.iter().map(|s| json::number(*s)).collect();
    write_out(
        &args.out,
        &format!("BENCH_{}.json", w.name()),
        &format!(
            "{{\"header\": {header},\n\"result\": {line},\n\"ops_per_lap\": {samples},\n\
             \"setup_s\": [{}],\n\"laps\": [{}]}}\n",
            setups.join(", "),
            laps.join(", ")
        ),
    );
    println!("{line}");
    exit_code(correct)
}

fn run_workload<W: Workload>(w: W, args: &Args) -> ExitCode {
    println!("== {} (seed {}) ==", w.name(), args.seed);
    if args.write_expected {
        write_expected(w)
    } else if args.trace {
        run_traced(w, args)
    } else {
        run_untraced(w, args)
    }
}

/// Runs every workload in a child process of its own and waits for
/// each; fails if any of them did.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(argv)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts and before the program's once-per-process
    // environment caches are filled.
    for (name, value) in PINNED_ENV {
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
    }
    match args.workload.as_deref() {
        None => run_all(&argv),
        Some("batch-cold") => run_workload(cold::BatchCold::new(args.seed), &args),
        Some("optimize-scaleup") => run_workload(scaleup::OptimizeScaleup::new(args.seed), &args),
        Some("serve-warm") => run_workload(serve::Serve::new(serve::Mix::Warm, args.seed), &args),
        Some(_) => run_workload(serve::Serve::new(serve::Mix::Churn, args.seed), &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve-warm",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--quick"]).unwrap().quick);
        assert_eq!(parse(&[]).unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
