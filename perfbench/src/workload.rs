//! The three workloads: which bodies each run sends, in which order, and
//! the serial ground truth their answers are checked against.
//!
//! Bodies come from [`Workload::generate`] over every routable combo and
//! kernel shape with `chain_percent: 0` (chains alias in-process device
//! buffers and cannot cross the wire). A run cycles through a fixed pool
//! of the plan's first jobs; each connection always sends indices of one
//! parity (or, in `dup-pairs`, both send the same index), so a body is
//! never in flight twice except where a workload plans it.

use mcmm_gateway::SubmitRequest;
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::{run_serial, PlannedInput, PlannedJob, Workload, WorkloadConfig};
use mcmm_toolchain::Registry;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning; reserved for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// HTTP connections, all from this process (one per host core).
pub const CONNECTIONS: usize = 2;
/// Tenants the bodies rotate through.
const TENANTS: usize = 4;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// n = 256, 25 % planned duplicates: per-request fixed cost dominates.
    SmallMixed,
    /// n = 65 536, no duplicates: work that scales with data dominates.
    LargeUnique,
    /// n = 4 096; both connections send the same sequence in lockstep, so
    /// every request has an identical twin in flight (coalescer follow
    /// path).
    DupPairs,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` lists the first two; `dup-pairs`
    /// runs by hand (see the README).
    pub const ALL: [Kind; 3] = [Kind::SmallMixed, Kind::LargeUnique, Kind::DupPairs];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallMixed => "small-mixed",
            Kind::LargeUnique => "large-unique",
            Kind::DupPairs => "dup-pairs",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Elements per buffer.
    pub fn n(self) -> u64 {
        match self {
            Kind::SmallMixed => 256,
            Kind::LargeUnique => 65_536,
            Kind::DupPairs => 4_096,
        }
    }

    fn duplicate_percent(self) -> usize {
        match self {
            Kind::SmallMixed => 25,
            Kind::LargeUnique | Kind::DupPairs => 0,
        }
    }

    /// Distinct planned jobs a run cycles through. Even, so each
    /// connection of an interleaved workload keeps one parity. Sized to
    /// hold the body pool near 40–140 MB.
    pub fn pool(self) -> usize {
        match self {
            Kind::SmallMixed => 8_192,
            Kind::LargeUnique => 128,
            Kind::DupPairs => 512,
        }
    }

    /// Jobs the device probe runs directly on a standalone device trio.
    pub fn probe_jobs(self) -> usize {
        match self {
            Kind::SmallMixed => 256,
            Kind::LargeUnique => 16,
            Kind::DupPairs => 64,
        }
    }

    /// Pool index of the `k`-th request on connection `conn`.
    pub fn body_index(self, conn: usize, k: usize) -> usize {
        match self {
            // Interleaved as in `serve-http`: plan index i goes to
            // connection i % CONNECTIONS, so a planned duplicate lands on
            // the other connection at nearly the same time.
            Kind::SmallMixed | Kind::LargeUnique => (conn + CONNECTIONS * k) % self.pool(),
            Kind::DupPairs => k % self.pool(),
        }
    }
}

/// A run's inputs: wire bodies, their expected checksums, and the jobs the
/// device probe replays.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// JSON `POST /v1/submit` bodies, by pool index.
    pub bodies: Vec<String>,
    /// `run_serial`'s checksum of each body's result, as the gateway
    /// formats it (16 hex digits).
    pub expected: Vec<String>,
    /// The first [`Kind::probe_jobs`] planned jobs.
    pub probe: Vec<PlannedJob>,
}

/// Lower a planned job to the gateway's wire type.
pub fn to_wire(job: &PlannedJob, tenant: &str) -> SubmitRequest {
    let PlannedInput::Fresh(x) = &job.x else {
        unreachable!("plans are generated with chain_percent 0");
    };
    SubmitRequest {
        tenant: tenant.to_owned(),
        shape: job.shape.name().to_owned(),
        model: job.model.name().to_owned(),
        language: job.language.name().to_owned(),
        vendor: job.vendor.name().to_owned(),
        a: job.a,
        x: x.clone(),
        y: job.y.clone(),
    }
}

/// Build a workload's inputs from a seed: same seed, same bytes.
pub fn build(kind: Kind, seed: u64) -> Inputs {
    let registry = Registry::paper();
    let cfg = WorkloadConfig {
        jobs: kind.pool(),
        seed,
        n: kind.n(),
        chain_percent: 0,
        duplicate_percent: kind.duplicate_percent(),
    };
    let mut plan = Workload::generate(cfg, &registry);
    let expected =
        run_serial(&plan, &registry).iter().map(|bytes| format!("{:016x}", fnv1a(bytes))).collect();
    let bodies = plan
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let tenant = format!("bench-{}", i % TENANTS);
            serde_json::to_string(&to_wire(job, &tenant)).expect("request serializes")
        })
        .collect();
    plan.jobs.truncate(kind.probe_jobs());
    Inputs { kind, bodies, expected, probe: plan.jobs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_bodies() {
        for kind in [Kind::SmallMixed, Kind::DupPairs] {
            let (a, b) = (build(kind, 7), build(kind, 7));
            assert_eq!(a.bodies, b.bodies, "{}", kind.name());
            assert_eq!(a.expected, b.expected, "{}", kind.name());
            assert_ne!(a.bodies, build(kind, 8).bodies, "{}: seeds must matter", kind.name());
        }
    }

    #[test]
    fn large_unique_bodies_fit_under_the_body_cap() {
        let inputs = build(Kind::LargeUnique, DEFAULT_SEED);
        let largest = inputs.bodies.iter().map(String::len).max().unwrap();
        assert!(largest < mcmm_gateway::http::MAX_BODY_BYTES, "{largest} bytes");
        assert!(largest > 1 << 20, "large-unique bodies should be about 1 MB, got {largest}");
        let mut keys: Vec<u64> = inputs
            .bodies
            .iter()
            .map(|b| serde_json::from_str::<SubmitRequest>(b).unwrap().validate().unwrap().key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Kind::LargeUnique.pool(), "large-unique bodies must be distinct");
    }

    #[test]
    fn interleaved_connections_split_the_pool_and_twins_share_it() {
        for kind in [Kind::SmallMixed, Kind::LargeUnique] {
            for k in 0..3 * kind.pool() {
                assert_ne!(kind.body_index(0, k), kind.body_index(1, k));
            }
        }
        for k in 0..1000 {
            assert_eq!(Kind::DupPairs.body_index(0, k), Kind::DupPairs.body_index(1, k));
        }
    }
}
