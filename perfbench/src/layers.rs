//! The per-layer run (`--trace 1`), in three steps:
//!
//! 1. **Untraced pass.** A fresh gateway serves the workload over HTTP
//!    for half of `--seconds`; its answers are `Gateway::submit`'s, its
//!    p50 is the base of `trace.overhead`, and its counters
//!    (`Gateway::stats`, `Service::counts`, device program caches and free
//!    memory) give the count metrics.
//! 2. **Traced pass.** The requests of step 1 are replayed, per
//!    connection and in order, through the traced server of `traced.rs`
//!    over a fresh stack. Every answer must equal step 1's.
//! 3. **Device probe** (`probe.rs`) on a standalone device trio.

use crate::load::{self, Drive, Live, Until};
use crate::traced::{serve_connection, Span, Stack, Stage};
use crate::workload::{Inputs, Kind, CONNECTIONS};
use crate::{probe, stats, sys, Metric, Outcome};
use mcmm_core::taxonomy::Vendor;
use mcmm_gateway::HttpClient;
use mcmm_gpu_sim::ProgramCacheStats;
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Replay the requests of the untraced pass through the traced server.
fn traced_pass(
    inputs: &Inputs,
    untraced: &Drive,
    work: &Path,
) -> Result<(Drive, Vec<Span>), String> {
    let mut plan: Vec<Vec<usize>> =
        untraced.conns.iter().map(|log| log.iter().map(|e| e.idx).collect()).collect();
    if inputs.kind == Kind::DupPairs {
        // Keep every request paired with its twin.
        let len = plan.iter().map(Vec::len).min().unwrap_or(0);
        plan.iter_mut().for_each(|p| p.truncate(len));
    }
    let stack = Stack::new(&load::gateway_config(work.join("traced"))).map_err(io("stack"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io("bind"))?;
    let addr = listener.local_addr().map_err(io("bind"))?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| HttpClient::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io("connect"))?;
    let streams = (0..CONNECTIONS)
        .map(|_| listener.accept().map(|(s, _)| s))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io("accept"))?;
    Ok(std::thread::scope(|s| {
        let servers: Vec<_> = streams
            .into_iter()
            .map(|stream| s.spawn(|| serve_connection(stream, &stack)))
            .collect();
        let drive = load::drive(&mut clients, inputs, &Until::Replay(plan));
        // Closing the connections ends the server loops.
        clients.clear();
        let spans = servers
            .into_iter()
            .flat_map(|h| h.join().expect("traced server thread panicked"))
            .collect();
        (drive, spans)
    }))
}

/// Run the three steps and derive the per-layer metrics.
pub fn run(inputs: &Inputs, seconds: f64, work: &Path) -> Result<Outcome, String> {
    // 1. Untraced pass.
    let threads_before = sys::threads();
    let (mut live, _) = Live::start(work.join("untraced")).map_err(io("gateway set-up"))?;
    let until = Until::Time { seconds: seconds / 2.0, min_ok: 0, max_seconds: seconds };
    let a = load::drive(&mut live.clients, inputs, &until);
    let server_threads = sys::threads() - threads_before;
    let gateway = live.gateway();
    let gw = gateway.stats();
    let (mut failed, mut rejected, mut retained) = (0, 0, 0);
    let mut programs = ProgramCacheStats::default();
    for shard in gateway.shards() {
        let counts = shard.service().counts();
        failed += counts.failed;
        rejected += counts.rejected;
        for v in Vendor::ALL {
            let dev = shard.service().device(v);
            retained += dev.memory().capacity() - dev.memory().free_bytes();
            programs = programs.merged(dev.program_cache_stats());
        }
    }
    let sim_config = crate::sim_config(gateway);
    live.stop();

    // 2. Traced pass, checked answer by answer against step 1.
    let (b, mut spans) = traced_pass(inputs, &a, work)?;
    let mut mismatches = a.mismatches.clone();
    mismatches.extend(b.mismatches.iter().cloned());
    for (conn, (la, lb)) in a.conns.iter().zip(&b.conns).enumerate() {
        for (k, (ea, eb)) in la.iter().zip(lb).enumerate() {
            if ea.status == 200 && (eb.status != 200 || ea.checksum != eb.checksum) {
                mismatches.push(format!(
                    "connection {conn} request {k}: traced path answered {} {:?}, \
                     Gateway::submit answered {:?}",
                    eb.status, eb.checksum, ea.checksum
                ));
            }
        }
    }

    // 3. Device probe.
    let probe = probe::run(inputs, &work.join("probe")).map_err(io("probe"))?;
    mismatches.extend(probe.mismatches.iter().cloned());

    // Per-layer samples (µs) from the spans, the client's roots included.
    for (conn, log) in b.conns.iter().enumerate() {
        spans.extend(log.iter().enumerate().map(|(k, e)| Span {
            rid: load::rid(conn, k),
            stage: Stage::Root,
            start: e.start,
            end: e.end,
        }));
    }
    let mut by_stage: HashMap<Stage, Vec<f64>> = HashMap::new();
    let mut by_rid: HashMap<(u64, Stage), f64> = HashMap::new();
    let mut leaf_total = 0.0;
    for span in &spans {
        let us = span.micros();
        by_stage.entry(span.stage).or_default().push(us);
        if span.stage.is_leaf() {
            leaf_total += us;
        } else {
            by_rid.insert((span.rid, span.stage), us);
        }
    }
    let client_self: Vec<f64> = by_rid
        .iter()
        .filter(|((_, stage), _)| *stage == Stage::Root)
        .filter_map(|(&(rid, _), root)| Some(root - by_rid.get(&(rid, Stage::Handle))?))
        .collect();
    let untraced_p50 = stats::median(
        &a.exchanges().filter(|e| e.status == 200).map(|e| e.latency_s() * 1e6).collect::<Vec<_>>(),
    );
    let samples = |stage: Stage| by_stage.get(&stage).cloned().unwrap_or_default();
    let roots = samples(Stage::Root);
    let root_p50 = stats::median(&roots);
    let p50 = |stage: Stage| stats::median(&samples(stage));
    let run = stats::sorted(samples(Stage::Run));
    let run_p50 = stats::percentile(&run, 50.0);
    let serve_self = run_p50
        - (stats::median(&probe.compile_hit)
            + 2.0 * stats::median(&probe.alloc)
            + 2.0 * stats::median(&probe.h2d)
            + stats::median(&probe.launch)
            + stats::median(&probe.d2h));
    let cache_lookups = (gw.cache_hits + gw.cache_misses).max(1);
    let leak = 8 * inputs.kind.n() * gw.coalesce_leads;

    let mut lines = vec![
        format!(
            "untraced pass: {} requests ({} ok) in {:.2} s, p50 {untraced_p50:.1} us; \
             traced pass: {} requests ({} ok), root p50 {root_p50:.1} us",
            a.sent(),
            a.ok(),
            a.wall.as_secs_f64(),
            b.sent(),
            b.ok()
        ),
        format!(
            "device memory retained: {retained} bytes; 8 * n * leads = {leak} ({} leads, {})",
            gw.coalesce_leads,
            if retained == leak { "equal" } else { "different" }
        ),
        format!(
            "shard.run samples {} (highest supported percentile {:?}); probe jobs {}",
            run.len(),
            stats::highest_supported(run.len()),
            inputs.probe.len()
        ),
    ];
    let mut counted: Vec<String> =
        by_stage.iter().map(|(k, v)| format!("{k:?} {}", v.len())).collect();
    counted.sort();
    lines.push(format!("span samples: {}", counted.join(", ")));

    let us = |name, value| Metric { name, value, unit: "us" };
    let count = |name, value: u64| Metric { name, value: value as f64, unit: "count" };
    let ratio = |name, value| Metric { name, value, unit: "ratio" };
    let metrics = vec![
        us("http.read_request_us", p50(Stage::Read)),
        us("http.write_response_us", p50(Stage::Write)),
        us("http.client_self_us", stats::median(&client_self)),
        us("http.server_us", p50(Stage::Handle)),
        us("api.decode_us", p50(Stage::Decode)),
        us("api.encode_us", p50(Stage::Encode)),
        us("api.validate_us", p50(Stage::Validate)),
        us("tenant.admit_us", p50(Stage::Tenant)),
        us("shard.admit_us", p50(Stage::Admit)),
        us("coalesce.join_us", p50(Stage::Join)),
        us("coalesce.wait_us", p50(Stage::Wait)),
        us("coalesce.complete_us", p50(Stage::Complete)),
        ratio("coalesce.join_share", gw.dedupe_ratio),
        us("shard.run_us", run_p50),
        us("shard.run_p99_us", stats::percentile(&run, 99.0)),
        us("serve.self_us", serve_self),
        count("server.threads", server_threads as u64),
        us("toolchain.compile_miss_us", stats::median(&probe.compile_miss)),
        us("toolchain.compile_disk_us", stats::median(&probe.compile_disk)),
        us("toolchain.compile_hit_us", stats::median(&probe.compile_hit)),
        ratio("toolchain.hit_rate", gw.cache_hits as f64 / cache_lookups as f64),
        count("toolchain.disk_hits", gw.disk_hits),
        count("toolchain.disk_fills", gw.disk_fills),
        us("gpu_sim.alloc_us", stats::median(&probe.alloc)),
        us("gpu_sim.h2d_us", stats::median(&probe.h2d)),
        us("gpu_sim.d2h_us", stats::median(&probe.d2h)),
        us("gpu_sim.free_us", stats::median(&probe.free)),
        us("gpu_sim.launch_us", stats::median(&probe.launch)),
        us("gpu_sim.launch_untraced_us", stats::median(&probe.launch_untraced)),
        us(
            "gpu_sim.trace_replay_us",
            stats::median(&probe.launch) - stats::median(&probe.launch_untraced),
        ),
        ratio("gpu_sim.program_hit_rate", programs.hit_rate()),
        us("diffval.checksum_us", p50(Stage::Checksum)),
        Metric { name: "gpu_sim.device_bytes_retained", value: retained as f64, unit: "bytes" },
        count("serve.failed", failed),
        count("serve.rejected", rejected),
        count("shard.queue_full", gw.queue_full),
        count("tenant.throttled", gw.throttled),
        count("gpu_sim.launches", probe.launches),
        Metric { name: "gpu_sim.dram_bytes", value: probe.mem.dram_bytes as f64, unit: "bytes" },
        ratio("gpu_sim.l1_hit_rate", probe.mem.l1_hit_rate()),
        ratio("gpu_sim.l2_hit_rate", probe.mem.l2_hit_rate()),
        ratio("trace.coverage", leaf_total / roots.iter().sum::<f64>().max(f64::MIN_POSITIVE)),
        ratio("trace.overhead", root_p50 / untraced_p50.max(f64::MIN_POSITIVE)),
        us("trace.root_p50_us", root_p50),
        us("trace.untraced_p50_us", untraced_p50),
    ];
    Ok(Outcome {
        metrics,
        sent: a.sent() + b.sent(),
        ok: a.ok() + b.ok(),
        mismatches,
        sim_config,
        lines,
    })
}
