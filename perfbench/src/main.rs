//! `perfbench` — the gateway benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-mixed|large-unique|dup-pairs [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. `--trace 0` starts a fresh gateway,
//! drives the workload over loopback HTTP for `--seconds`, checks every
//! answer against the serial reference and prints the end-to-end metrics.
//! `--trace 1` prints the per-layer metrics instead (see `layers.rs`).
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 on any checksum mismatch, 2 on a usage or environment error.

mod layers;
mod load;
mod probe;
mod stats;
mod sys;
mod traced;
mod workload;

use load::{Exchange, Live, Until};
use mcmm_core::taxonomy::Vendor;
use mcmm_gateway::Gateway;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Inputs, Kind};

/// Gateway set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Successful requests per latency window. The latency percentiles are
/// the median over consecutive windows of each window's percentile, so
/// every reported p99 has ten samples beyond it, and a burst of host
/// contention that hits a minority of windows does not move it. An
/// end-to-end run measures past `--seconds` until it fills one window.
const WINDOW_SAMPLES: usize = 1_000;
/// Longest an end-to-end run may measure.
const MAX_MEASURE_S: f64 = 120.0;
/// Scratch space for artifact directories, relative to the working
/// directory; removed when the run ends.
const WORK_DIR: &str = ".bench_work";

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered 200.
    pub ok: usize,
    /// Wrong answers: any entry fails the run.
    pub mismatches: Vec<String>,
    /// The simulator configuration the gateway's devices resolved, as JSON.
    pub sim_config: String,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, workload::DEFAULT_SEED, 40.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("a number of seconds in (0, 60]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("--workload is required: one of {}", names.join(", "))
    })?;
    Ok(Args { kind, seed, seconds, trace })
}

/// The simulator configuration a gateway's devices resolved.
pub fn sim_config(gateway: &Gateway) -> String {
    let dev = gateway.shards()[0].service().device(Vendor::Nvidia);
    format!(
        r#"{{"exec_tier": "{:?}", "opt_level": "{}", "tracing": {}, "replay_mode": "{:?}", "timing_tier": "{:?}"}}"#,
        dev.exec_tier(),
        dev.opt_level(),
        dev.tracing(),
        dev.replay_mode(),
        dev.timing_tier()
    )
}

/// The end-to-end run: fresh gateway, closed-loop HTTP load, no tracing.
fn end_to_end(inputs: &Inputs, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            prev.stop();
        }
        let (next, took) = Live::start(work.join(format!("gateway-{rep}")))
            .map_err(|e| format!("gateway set-up failed: {e}"))?;
        setup.push(took.as_secs_f64());
        live = Some(next);
    }
    let mut live = live.expect("at least one set-up");

    let peak_reset = sys::reset_peak_rss();
    let (steal0, ticks0) = sys::cpu_ticks();
    let cpu0 = sys::cpu_time();
    let until = Until::Time { seconds, min_ok: WINDOW_SAMPLES, max_seconds: MAX_MEASURE_S };
    let drive = load::drive(&mut live.clients, inputs, &until);
    let cpu = sys::cpu_time() - cpu0;
    let (steal1, ticks1) = sys::cpu_ticks();
    let rss_mib = sys::peak_rss_mib();
    let sim_config = sim_config(live.gateway());
    live.stop();

    let (sent, ok) = (drive.sent(), drive.ok());
    let mut answered: Vec<&Exchange> = drive.exchanges().filter(|e| e.status == 200).collect();
    answered.sort_by_key(|e| e.start);
    let lat: Vec<f64> = answered.iter().map(|e| e.latency_s() * 1e6).collect();
    if lat.len() < WINDOW_SAMPLES {
        return Err(format!(
            "{} successful requests in {MAX_MEASURE_S} s: too few to report p99",
            lat.len()
        ));
    }
    // An odd count, so that the median is one window's value.
    let windows = lat.len() / WINDOW_SAMPLES;
    let windows = windows - (1 - windows % 2);
    let (p50, p50s) = stats::window_median(&lat, windows, 50.0);
    let (p99, p99s) = stats::window_median(&lat, windows, 99.0);
    let wall = drive.wall.as_secs_f64();
    let spread = |v: &[f64]| {
        let v = stats::sorted(v.to_vec());
        format!("{:.0}..{:.0}", v[0], v[v.len() - 1])
    };
    let mut lines = vec![
        format!(
            "measured {wall:.2} s: {sent} requests sent, {ok} answered 200; host steal {:.1} % \
             of CPU time (contention from outside this machine)",
            100.0 * (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64
        ),
        format!(
            "latency over {} samples in {windows} windows of at least {} ({} beyond p99 each; \
             whole run supports up to p{}): p50 {p50:.1} us (windows {}), p99 {p99:.1} us \
             (windows {})",
            lat.len(),
            lat.len() / windows,
            stats::beyond(lat.len() / windows, 99.0),
            stats::highest_supported(lat.len()).expect("p99 is supported"),
            spread(&p50s),
            spread(&p99s),
        ),
        format!(
            "setup {:.2} ms median of {SETUP_REPS} (min {:.2}, max {:.2})",
            stats::median(&setup) * 1e3,
            setup.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            setup.iter().copied().fold(0.0, f64::max) * 1e3,
        ),
    ];
    if !peak_reset {
        lines.push("note: peak RSS could not be reset; rss_peak_mib includes set-up".into());
    }
    let metrics = vec![
        Metric { name: "setup_s", value: stats::median(&setup), unit: "s" },
        Metric { name: "latency_p50_us", value: p50, unit: "us" },
        Metric { name: "latency_p99_us", value: p99, unit: "us" },
        Metric { name: "throughput_rps", value: ok as f64 / wall, unit: "1/s" },
        Metric { name: "success_rate", value: ok as f64 / sent as f64, unit: "ratio" },
        Metric {
            name: "cpu_us_per_req",
            value: cpu.as_secs_f64() * 1e6 / ok.max(1) as f64,
            unit: "us",
        },
        Metric { name: "rss_peak_mib", value: rss_mib, unit: "MiB" },
    ];
    Ok(Outcome { metrics, sent, ok, mismatches: drive.mismatches, sim_config, lines })
}

/// The metric names `BENCHMARK.json` declares for a mode, when the file is
/// in the working directory.
fn declared_metrics(trace: bool) -> Option<Vec<String>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = json[section].as_array().expect("BENCHMARK.json lists metrics");
    Some(names.iter().map(|m| m["name"].as_str().expect("metric has a name").to_owned()).collect())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

fn print_result(args: &Args, outcome: &Outcome, correct: bool) {
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let commit = sys::git_commit().map_or("null".to_owned(), |c| json_str(&c));
    println!(
        r#"{{"env": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "default_seed": {}, "held_out_seed": {}, "host_cores": {}, "build_profile": "{}", "git_commit": {commit}, "source_fnv": "{}", "requests": {{"sent": {}, "succeeded": {}, "failed": {}}}, "sim_config": {}}}}}"#,
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::DEFAULT_SEED,
        workload::HELD_OUT_SEED,
        std::thread::available_parallelism().map_or(0, usize::from),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        sys::source_hash(),
        outcome.sent,
        outcome.ok,
        outcome.sent - outcome.ok,
        outcome.sim_config,
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.sent,
        outcome.sent - outcome.ok,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Both sides of a comparison must run the default program.
    let knobs: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("MCMM_")).collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        std::process::exit(2);
    }
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }

    let t = Instant::now();
    let inputs = workload::build(args.kind, args.seed);
    println!(
        "perfbench {} seed {}: {} bodies (n = {}) checked against run_serial in {:.2} s",
        args.kind.name(),
        args.seed,
        inputs.bodies.len(),
        args.kind.n(),
        t.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        layers::run(&inputs, args.seconds, &work)
    } else {
        end_to_end(&inputs, args.seconds, &work)
    };
    // Best effort: the directory only holds this run's artifacts.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(declared) = declared_metrics(args.trace) {
        let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(declared, emitted, "BENCHMARK.json and perfbench disagree on the metrics");
    }
    for m in outcome.mismatches.iter().take(10) {
        eprintln!("MISMATCH: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    print_result(&args, &outcome, correct);
    if !correct {
        eprintln!("perfbench: {} wrong answers", outcome.mismatches.len());
        std::process::exit(1);
    }
}
