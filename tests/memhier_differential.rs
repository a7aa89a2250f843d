//! Differential validation of the memory-hierarchy subsystem: tracing is
//! an observer. Computed buffers and launch counters must be byte-for-byte
//! identical across {scalar, vectorized} execution × {tracing off, on} ×
//! {analytic, trace-driven} timing, the two execution tiers must emit
//! *identical traces* (same replayed `MemStats`), replay must be
//! deterministic, and the per-vendor cache geometry must actually matter:
//! a unit-stride copy fills its sectors everywhere while a 128-byte-strided
//! gather's L1 hit rate splits the three warp widths apart.

use many_models::gpu_sim::device::{Device, ExecTier, KernelArg, LaunchConfig, TimingTier};
use many_models::gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value,
};
use many_models::gpu_sim::{DeviceSpec, MemStats, ReplayMode};
use std::sync::Arc;

const N: usize = 2048;
const BLOCK: u32 = 256;

/// Loads (unit-stride and strided), a store, and a global atomic — every
/// traced access kind in one kernel: `y[i] = x[i] + x[(7i) % n]` plus an
/// f64 atomic accumulation into `sum`.
fn mixed_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_mixed");
    let xp = k.param(Type::I64);
    let yp = k.param(Type::I64);
    let sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let x = k.ld_elem(Space::Global, Type::F64, xp, i);
        let i7 = k.bin(BinOp::Mul, i, Value::I32(7));
        let j = k.bin(BinOp::Rem, i7, n);
        let xj = k.ld_elem(Space::Global, Type::F64, xp, j);
        let s = k.bin(BinOp::Add, x, xj);
        k.st_elem(Space::Global, yp, i, s);
        k.atomic(AtomicOp::Add, Space::Global, sp, Value::F64(1.5));
    });
    k.finish()
}

/// `c[i] = a[i]` — fully coalesced unit-stride streaming.
fn copy_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_copy");
    let a = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let v = k.ld_elem(Space::Global, Type::F64, a, i);
        k.st_elem(Space::Global, c, i, v);
    });
    k.finish()
}

/// `c[i] = a[(i % 32) * 16]` — each warp gathers from 32 addresses spaced
/// 128 bytes apart, so the sectors a warp touches (and the L1 reuse
/// across warps) depend on the warp width.
fn gather_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_gather");
    let a = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let rem = k.bin(BinOp::Rem, i, Value::I32(32));
        let idx = k.bin(BinOp::Mul, rem, Value::I32(16));
        let v = k.ld_elem(Space::Global, Type::F64, a, idx);
        k.st_elem(Space::Global, c, i, v);
    });
    k.finish()
}

/// One launch on a fresh device with the given knobs: returns the raw
/// bytes of both arrays and the sum cell, the launch stats, and the mem
/// stats (present only when traced).
fn run(
    spec: DeviceSpec,
    kernel: &KernelIr,
    exec: ExecTier,
    tracing: bool,
    timing: TimingTier,
) -> (Vec<u8>, many_models::gpu_sim::counters::LaunchStats, Option<MemStats>) {
    let dev: Arc<Device> = Device::new(spec);
    dev.set_exec_tier(exec);
    dev.set_tracing(tracing);
    dev.set_timing_tier(timing);
    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.37 - 100.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let report = dev
        .launch_kernel(
            kernel,
            LaunchConfig::linear(N as u64, BLOCK),
            &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(N as i32)],
        )
        .unwrap();
    let mut bytes = dev.memcpy_d2h(dy, N as u64 * 8).unwrap().0;
    bytes.extend(dev.memcpy_d2h(ds, 8).unwrap().0);
    (bytes, report.stats, report.mem)
}

/// Trace one launch of `kernel` on `spec` (vectorized tier) and return
/// the replayed statistics.
fn traced_stats(spec: DeviceSpec, kernel: &KernelIr) -> MemStats {
    let (_, _, mem) = run(spec, kernel, ExecTier::Vectorized, true, TimingTier::Analytic);
    mem.expect("traced launch must produce mem stats")
}

#[test]
fn buffers_and_counters_survive_every_tier_combination() {
    let kernel = mixed_kernel();
    for spec in DeviceSpec::presets() {
        let (base_bytes, base_stats, base_mem) =
            run(spec.clone(), &kernel, ExecTier::Scalar, false, TimingTier::Analytic);
        assert!(base_mem.is_none(), "untraced launch produced mem stats on {}", spec.name);
        for exec in [ExecTier::Scalar, ExecTier::Vectorized] {
            for tracing in [false, true] {
                for timing in [TimingTier::Analytic, TimingTier::TraceDriven] {
                    let (bytes, stats, mem) = run(spec.clone(), &kernel, exec, tracing, timing);
                    assert_eq!(
                        bytes, base_bytes,
                        "{}: buffers diverged ({exec:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                    assert_eq!(
                        stats, base_stats,
                        "{}: counters diverged ({exec:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                    let expect_mem = tracing || timing == TimingTier::TraceDriven;
                    assert_eq!(
                        mem.is_some(),
                        expect_mem,
                        "{}: mem stats presence wrong ({exec:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn scalar_and_vectorized_tiers_emit_identical_traces() {
    let kernel = mixed_kernel();
    for spec in DeviceSpec::presets() {
        let (_, _, scalar) =
            run(spec.clone(), &kernel, ExecTier::Scalar, true, TimingTier::Analytic);
        let (_, _, vector) =
            run(spec.clone(), &kernel, ExecTier::Vectorized, true, TimingTier::Analytic);
        assert_eq!(
            scalar.unwrap(),
            vector.unwrap(),
            "execution tiers replay to different mem stats on {}",
            spec.name
        );
    }
}

#[test]
fn replay_is_deterministic() {
    let kernel = gather_kernel();
    for spec in DeviceSpec::presets() {
        let a = traced_stats(spec.clone(), &kernel);
        let b = traced_stats(spec.clone(), &kernel);
        assert_eq!(a, b, "two identical traced launches disagree on {}", spec.name);
    }
}

#[test]
fn coalesced_copy_fills_sectors_strided_gather_does_not() {
    let copy = copy_kernel();
    let gather = gather_kernel();
    for spec in DeviceSpec::presets() {
        let name = spec.name;
        let c = traced_stats(spec.clone(), &copy);
        assert!(
            c.sector_utilization() >= 0.95,
            "{name}: coalesced copy wastes sectors (utilization {:.3})",
            c.sector_utilization()
        );
        let g = traced_stats(spec, &gather);
        assert!(
            g.sector_utilization() < 0.50,
            "{name}: 128B-strided gather should not fill sectors (utilization {:.3})",
            g.sector_utilization()
        );
        assert!(g.l1_hit_rate() > 0.0, "{name}: warp-repeated gather must see L1 reuse");
    }
}

#[test]
fn gather_l1_hit_rate_separates_the_three_warp_widths() {
    let gather = gather_kernel();
    let rates: Vec<(&str, f64)> = DeviceSpec::presets()
        .into_iter()
        .map(|spec| {
            let name = spec.name;
            (name, traced_stats(spec, &gather).l1_hit_rate())
        })
        .collect();
    for i in 0..rates.len() {
        for j in i + 1..rates.len() {
            let (na, ra) = rates[i];
            let (nb, rb) = rates[j];
            assert!(
                (ra - rb).abs() > 0.02,
                "warp-width-sensitive gather does not separate {na} ({ra:.3}) from {nb} ({rb:.3})"
            );
        }
    }
}

/// `c[i] = a[(i % 32) * 16] + b[i]`: the `memhier` bench's Gather128,
/// whose per-warp sector count depends on the warp width.
fn gather128_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("gather128");
    let a = k.param(Type::I64);
    let b = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sum = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let in_range = k.cmp(CmpOp::Lt, i, n);
    k.if_(in_range, |k| {
        let rem = k.bin(BinOp::Rem, i, Value::I32(32));
        let idx = k.bin(BinOp::Mul, rem, Value::I32(16));
        let av = k.ld_elem(Space::Global, Type::F64, a, idx);
        let bv = k.ld_elem(Space::Global, Type::F64, b, i);
        let s = k.bin(BinOp::Add, av, bv);
        k.st_elem(Space::Global, c, i, s);
    });
    k.finish()
}

/// `c[block_base + (255 - tid)] = a[i]` through a shared tile: the
/// `memhier` bench's SharedTiled (global traffic stays unit-stride).
fn shared_tiled_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("shared_tiled");
    let a = k.param(Type::I64);
    let _b = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sum = k.param(Type::I64);
    let _n = k.param(Type::I32);
    let tile = k.shared_alloc(u64::from(GOLDEN_BLOCK) * 8);
    let tid = k.thread_id_x();
    let i = k.global_thread_id_x();
    let av = k.ld_elem(Space::Global, Type::F64, a, i);
    k.st_elem(Space::Shared, tile, tid, av);
    k.barrier();
    let rt = k.bin(BinOp::Sub, Value::I32(GOLDEN_BLOCK as i32 - 1), tid);
    let v = k.ld_elem(Space::Shared, Type::F64, tile, rt);
    k.st_elem(Space::Global, c, i, v);
    k.finish()
}

const GOLDEN_N: usize = 2048;
const GOLDEN_BLOCK: u32 = 256;

/// `c[i] = a[(i % 16) * 512]`: sixteen lines 4 KiB apart. On AMD (64 sets
/// of 64 B lines, 4 ways) they all map to one L1 set, so every warp
/// evicts live lines that the block's next warp reads again, and only an
/// LRU victim misses on every one of them. NVIDIA's and Intel's L1s
/// spread the same lines over more sets and keep them all.
fn set_conflict_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("set_conflict");
    let a = k.param(Type::I64);
    let _b = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sum = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let in_range = k.cmp(CmpOp::Lt, i, n);
    k.if_(in_range, |k| {
        let rem = k.bin(BinOp::Rem, i, Value::I32(16));
        let idx = k.bin(BinOp::Mul, rem, Value::I32(512));
        let v = k.ld_elem(Space::Global, Type::F64, a, idx);
        k.st_elem(Space::Global, c, i, v);
    });
    k.finish()
}

/// One traced launch of a `(a, b, c, sum, n)` kernel over `n` elements.
fn golden_stats(
    spec: DeviceSpec,
    kernel: &KernelIr,
    n: usize,
    exec: ExecTier,
    mode: ReplayMode,
) -> MemStats {
    use many_models::babelstream::{START_A, START_B, START_C};
    let dev: Arc<Device> = Device::new(spec);
    dev.set_exec_tier(exec);
    dev.set_tracing(true);
    dev.set_replay_mode(mode);
    let da = dev.alloc_copy_f64(&vec![START_A; n]).unwrap();
    let db = dev.alloc_copy_f64(&vec![START_B; n]).unwrap();
    let dc = dev.alloc_copy_f64(&vec![START_C; n]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let args = [
        KernelArg::Ptr(da),
        KernelArg::Ptr(db),
        KernelArg::Ptr(dc),
        KernelArg::Ptr(ds),
        KernelArg::I32(n as i32),
    ];
    let report =
        dev.launch_kernel(kernel, LaunchConfig::linear(n as u64, GOLDEN_BLOCK), &args).unwrap();
    report.mem.expect("traced launch must produce mem stats")
}

/// `MemStats` of every `memhier` bench shape on every vendor at
/// `GOLDEN_N`, recorded from the cache model as it stood before its
/// victim scan, writeback emission and coalescer fast path were
/// rewritten. Streaming ≡ buffered cannot catch a change to the cache
/// model itself (both pipelines run it); these constants can. Field
/// order: requests, transactions, mshr_merges, l1_hits, l1_misses,
/// l2_accesses, l2_hits, l2_misses, dram_sectors, dram_bytes,
/// bytes_requested, bytes_covered.
const GOLDEN: [(&str, &str, [u64; 12]); 18] = [
    ("NVIDIA", "Copy", [4096, 1024, 3072, 0, 1024, 1024, 0, 1024, 1024, 32768, 32768, 32768]),
    ("NVIDIA", "Mul", [4096, 1024, 3072, 0, 1024, 1024, 0, 1024, 1024, 32768, 32768, 32768]),
    ("NVIDIA", "Add", [6144, 1536, 4608, 0, 1536, 1536, 0, 1536, 1536, 49152, 49152, 49152]),
    ("NVIDIA", "Triad", [6144, 1536, 4608, 0, 1536, 1536, 0, 1536, 1536, 49152, 49152, 49152]),
    (
        "NVIDIA",
        "Gather128",
        [6144, 3072, 3072, 1792, 1280, 1280, 224, 1056, 1056, 33792, 49152, 49152],
    ),
    (
        "NVIDIA",
        "SharedTiled",
        [4096, 1024, 3072, 0, 1024, 1024, 0, 1024, 1024, 32768, 32768, 32768],
    ),
    ("AMD", "Copy", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
    ("AMD", "Mul", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
    ("AMD", "Add", [6144, 768, 5376, 0, 768, 768, 0, 768, 768, 49152, 49152, 49152]),
    ("AMD", "Triad", [6144, 768, 5376, 0, 768, 768, 0, 768, 768, 49152, 49152, 49152]),
    ("AMD", "Gather128", [6144, 1536, 4608, 768, 768, 768, 224, 544, 544, 34816, 49152, 40960]),
    ("AMD", "SharedTiled", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
    ("Intel", "Copy", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
    ("Intel", "Mul", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
    ("Intel", "Add", [6144, 768, 5376, 0, 768, 768, 0, 768, 768, 49152, 49152, 49152]),
    ("Intel", "Triad", [6144, 768, 5376, 0, 768, 768, 0, 768, 768, 49152, 49152, 49152]),
    ("Intel", "Gather128", [6144, 2560, 3584, 1792, 768, 768, 224, 544, 544, 34816, 49152, 49152]),
    ("Intel", "SharedTiled", [4096, 512, 3584, 0, 512, 512, 0, 512, 512, 32768, 32768, 32768]),
];

/// The pinned field order of a `[u64; 12]` row.
fn mem_stats(f: [u64; 12]) -> MemStats {
    MemStats {
        requests: f[0],
        transactions: f[1],
        mshr_merges: f[2],
        l1_hits: f[3],
        l1_misses: f[4],
        l2_accesses: f[5],
        l2_hits: f[6],
        l2_misses: f[7],
        dram_sectors: f[8],
        dram_bytes: f[9],
        bytes_requested: f[10],
        bytes_covered: f[11],
    }
}

/// Assert every `(vendor, shape)` pin in `table`, in vendor-major order,
/// on both execution tiers and both replay pipelines.
fn assert_pins(n: usize, shapes: &[(&str, KernelIr)], table: &[(&str, &str, [u64; 12])]) {
    let vendors = ["NVIDIA", "AMD", "Intel"].into_iter().zip(DeviceSpec::presets());
    let mut pins = table.iter();
    for (vendor, spec) in vendors {
        for (shape, kernel) in shapes {
            let &(pv, ps, f) = pins.next().expect("one pin per vendor x shape");
            assert_eq!((pv, ps), (vendor, *shape), "pin table out of order");
            for exec in [ExecTier::Scalar, ExecTier::Vectorized] {
                for mode in [ReplayMode::Streaming, ReplayMode::Buffered] {
                    let got = golden_stats(spec.clone(), kernel, n, exec, mode);
                    assert_eq!(got, mem_stats(f), "{vendor}/{shape} at n={n} ({exec:?}, {mode:?})");
                }
            }
        }
    }
    assert!(pins.next().is_none(), "pin table has extra rows");
}

#[test]
fn memstats_match_the_golden_pins() {
    let stream = many_models::babelstream::adapters::stream_kernels();
    let shapes: [(&str, KernelIr); 6] = [
        ("Copy", stream[0].clone()),
        ("Mul", stream[1].clone()),
        ("Add", stream[2].clone()),
        ("Triad", stream[3].clone()),
        ("Gather128", gather128_kernel()),
        ("SharedTiled", shared_tiled_kernel()),
    ];
    assert_pins(GOLDEN_N, &shapes, &GOLDEN);
}

/// Size of the evicting pins: `set_conflict_kernel` reads up to element
/// 15 × 512.
const EVICTING_N: usize = 8192;

/// `MemStats` of a launch whose L1 evicts live lines (AMD) next to the
/// same launch where it does not (NVIDIA, Intel), recorded from the
/// cache model with its first-oldest-way victim rule. The `GOLDEN` shapes
/// never evict at `GOLDEN_N`, so any victim choice passes them; these
/// pins fail when the victim is not the least recently used way.
const EVICTING: [(&str, &str, [u64; 12]); 3] = [
    (
        "NVIDIA",
        "SetConflict",
        [16384, 6144, 10240, 3584, 2560, 2560, 496, 2064, 2064, 66048, 131072, 98304],
    ),
    (
        "AMD",
        "SetConflict",
        [16384, 3072, 13312, 0, 3072, 3072, 2032, 1040, 1040, 66560, 131072, 81920],
    ),
    (
        "Intel",
        "SetConflict",
        [16384, 9216, 7168, 7680, 1536, 1536, 496, 1040, 1040, 66560, 131072, 131072],
    ),
];

#[test]
fn memstats_match_the_evicting_pins() {
    assert_pins(EVICTING_N, &[("SetConflict", set_conflict_kernel())], &EVICTING);
}
