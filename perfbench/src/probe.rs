//! The device probe: a run's first jobs executed directly on a standalone
//! device trio, one public call at a time, each call timed.
//!
//! Per job: `CompileCache::compile` as a memory hit (and, the first time a
//! kernel × route pair is seen, as a miss on a fresh cache and as a
//! disk-tier hit on a second cache over the same artifact directory),
//! then `alloc` ×2 → `memcpy_h2d` ×2 → `launch` with tracing on →
//! `memcpy_d2h`, then `y` re-uploaded and the launch repeated with tracing
//! off, then `free` ×2. The probe's simulated counters depend only on the
//! jobs, so they repeat exactly for a seed.

use crate::workload::Inputs;
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_gpu_sim::MemStats;
use mcmm_serve::{PlannedInput, ServeConfig};
use mcmm_toolchain::{vendor_device_spec, CompileCache, DiskTier, Registry};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-call samples (µs) and the trio's simulated counters.
#[derive(Default)]
pub struct Probe {
    pub compile_miss: Vec<f64>,
    pub compile_disk: Vec<f64>,
    pub compile_hit: Vec<f64>,
    pub alloc: Vec<f64>,
    pub h2d: Vec<f64>,
    pub launch: Vec<f64>,
    pub launch_untraced: Vec<f64>,
    pub d2h: Vec<f64>,
    pub free: Vec<f64>,
    /// Launches over the trio.
    pub launches: u64,
    /// Memory-hierarchy counters of the traced launches.
    pub mem: MemStats,
    /// Read-backs whose checksum differs from `run_serial`.
    pub mismatches: Vec<String>,
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

fn f32_bytes(data: &[f32]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Run the probe over `inputs.probe`, with artifacts under `dir`.
pub fn run(inputs: &Inputs, dir: &Path) -> std::io::Result<Probe> {
    let registry = Registry::paper();
    let disk = Arc::new(DiskTier::open(dir)?);
    let capacity = ServeConfig::default().cache_capacity;
    let cache = CompileCache::with_disk(capacity, Arc::clone(&disk));
    let second = CompileCache::with_disk(capacity, disk);
    let devices: BTreeMap<Vendor, Arc<Device>> =
        Vendor::ALL.into_iter().map(|v| (v, Device::new(vendor_device_spec(v)))).collect();
    let mut seen = HashSet::new();
    let mut p = Probe::default();
    for (i, job) in inputs.probe.iter().enumerate() {
        let compiler = registry
            .select_best(job.model, job.language, job.vendor)
            .expect("planned job has a route");
        let kernel = job.shape.kernel();
        let compile = |cache: &CompileCache, samples: &mut Vec<f64>| {
            timed(samples, || cache.compile(compiler, &kernel, job.model, job.language, job.vendor))
                .expect("planned kernel compiles")
        };
        if seen.insert((job.shape.name(), job.model, job.language, job.vendor)) {
            let (_, hit) = compile(&cache, &mut p.compile_miss);
            assert!(!hit, "first compile of a pair on a fresh cache must miss");
            compile(&second, &mut p.compile_disk);
        }
        let (module, hit) = compile(&cache, &mut p.compile_hit);
        assert!(hit, "second compile of a pair must hit");

        let dev = &devices[&job.vendor];
        let PlannedInput::Fresh(x) = &job.x else { unreachable!("plans have no chains") };
        let (xb, yb) = (f32_bytes(x), f32_bytes(&job.y));
        let len = job.n * 4;
        let xp = timed(&mut p.alloc, || dev.alloc(len)).expect("probe alloc");
        let yp = timed(&mut p.alloc, || dev.alloc(len)).expect("probe alloc");
        timed(&mut p.h2d, || dev.memcpy_h2d(xp, &xb)).expect("probe upload");
        timed(&mut p.h2d, || dev.memcpy_h2d(yp, &yb)).expect("probe upload");
        let cfg = LaunchConfig::linear(job.n, 128).with_efficiency(compiler.efficiency());
        let args = [
            KernelArg::F32(job.a),
            KernelArg::Ptr(xp),
            KernelArg::Ptr(yp),
            KernelArg::I32(job.n as i32),
        ];
        dev.set_tracing(true);
        timed(&mut p.launch, || dev.launch(&module, cfg, &args)).expect("probe launch");
        let (traced, _) = timed(&mut p.d2h, || dev.memcpy_d2h(yp, len)).expect("probe read-back");
        dev.memcpy_h2d(yp, &yb).expect("probe re-upload");
        dev.set_tracing(false);
        timed(&mut p.launch_untraced, || dev.launch(&module, cfg, &args)).expect("probe launch");
        let (untraced, _) = dev.memcpy_d2h(yp, len).expect("probe read-back");
        for (mode, bytes) in [("traced", traced), ("untraced", untraced)] {
            let got = format!("{:016x}", fnv1a(&bytes));
            if got != inputs.expected[i] {
                p.mismatches.push(format!(
                    "probe job {i} ({mode} launch): checksum {got} but run_serial gives {}",
                    inputs.expected[i]
                ));
            }
        }
        timed(&mut p.free, || dev.free(xp, len));
        timed(&mut p.free, || dev.free(yp, len));
    }
    for dev in devices.values() {
        p.launches += dev.launches();
        p.mem = p.mem.merged(dev.mem_stats());
    }
    Ok(p)
}
