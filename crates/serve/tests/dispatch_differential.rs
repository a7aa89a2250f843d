//! Differential: the two dispatchers run one stage list.
//!
//! [`Service::run_with`] runs a standalone job on the calling thread;
//! [`Service::submit_with`] queues the same stages on a stream. Fed the
//! same specs one at a time, on all three vendor devices under both
//! execution tiers, two services must end up indistinguishable: the same
//! outputs byte for byte, the same job-local error when an injected
//! upload, launch or read-back fault fires, the same service counts and
//! device counters, and no admission slot left behind. The synchronous
//! side must also hand back every byte of device memory.

use mcmm_chaos::{AttemptCtx, ChaosConfig, FaultInjector};
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::ExecTier;
use mcmm_serve::workload::{PlannedJob, Workload, WorkloadConfig};
use mcmm_serve::{
    ArgSpec, JobId, JobSpec, ServeConfig, Service, ServiceCounts, SubmitError, SubmitOptions,
};
use mcmm_toolchain::Registry;

/// What one job left behind: its output and error, or the refusal.
type Outcome = Result<(Option<Vec<u8>>, Option<String>), String>;

/// Standalone jobs over every vendor. `n = 300` gives 3-block grids, run
/// inline; `n = 1000` gives 8 blocks, spread over threads.
fn plan() -> Vec<PlannedJob> {
    let registry = Registry::paper();
    let mut jobs = Vec::new();
    for (n, seed) in [(300, 7), (1000, 8)] {
        let cfg = WorkloadConfig { jobs: 60, seed, n, chain_percent: 0, duplicate_percent: 0 };
        jobs.extend(Workload::generate(cfg, &registry).jobs);
    }
    for v in Vendor::ALL {
        assert!(jobs.iter().any(|j| j.vendor == v), "plan never reaches {v}");
    }
    jobs
}

/// A storm with every device stage likely to break, and a budget that
/// never runs out over the plan.
fn storm() -> ChaosConfig {
    ChaosConfig {
        budget: u64::MAX / 2,
        upload_p: 0.08,
        launch_p: 0.06,
        lane_crash_p: 0.06,
        read_back_p: 0.08,
        ..ChaosConfig::storm(0x5EED)
    }
}

struct Run {
    outcomes: Vec<Outcome>,
    counts: ServiceCounts,
    service: Service,
}

fn run(jobs: &[PlannedJob], tier: ExecTier, chaos: &ChaosConfig, inline: bool) -> Run {
    let service = Service::new(ServeConfig::default());
    for v in Vendor::ALL {
        service.device(v).set_exec_tier(tier);
    }
    let injector = FaultInjector::new(chaos.clone());
    let outcomes = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let route = service
                .registry()
                .select_best(job.model, job.language, job.vendor)
                .expect("planned jobs have a route")
                .name;
            let faults = injector.decide(&AttemptCtx {
                job: i as u64,
                attempt: 0,
                model: job.model,
                language: job.language,
                vendor: job.vendor,
                route,
            });
            let opts = SubmitOptions { route: Some(route), faults };
            let spec = job.to_spec(&[]);
            let done = if inline {
                service.run_with(spec, opts)
            } else {
                service.submit_with(spec, opts).map(|h| h.wait())
            };
            done.map(|c| (c.output, c.error.map(|e| e.to_string()))).map_err(|e| e.to_string())
        })
        .collect();
    service.drain();
    Run { outcomes, counts: service.counts(), service }
}

fn assert_equivalent(label: &str, sync: &Run, queued: &Run) {
    assert_eq!(sync.outcomes.len(), queued.outcomes.len());
    for (i, (a, b)) in sync.outcomes.iter().zip(&queued.outcomes).enumerate() {
        assert_eq!(a, b, "{label}: job {i} differs between run_with and submit_with");
    }
    assert_eq!(sync.counts, queued.counts, "{label}: service counts differ");
    for v in Vendor::ALL {
        let (a, b) = (sync.service.device(v), queued.service.device(v));
        assert_eq!(a.stats(), b.stats(), "{label}: {v} launch stats differ");
        assert_eq!(a.mem_stats(), b.mem_stats(), "{label}: {v} memory stats differ");
        assert_eq!(a.transfer_stats(), b.transfer_stats(), "{label}: {v} transfers differ");
        assert_eq!(sync.service.in_flight(v), 0, "{label}: run_with left a slot on {v}");
        assert_eq!(queued.service.in_flight(v), 0, "{label}: submit_with left a slot on {v}");
        let mem = a.memory();
        assert_eq!(mem.free_bytes(), mem.capacity(), "{label}: run_with leaked memory on {v}");
    }
}

#[test]
fn run_with_matches_submit_with_on_every_device_and_tier() {
    let jobs = plan();
    for tier in [ExecTier::Scalar, ExecTier::Vectorized] {
        let quiet = ChaosConfig::quiet(0);
        let sync = run(&jobs, tier, &quiet, true);
        let queued = run(&jobs, tier, &quiet, false);
        assert_equivalent(&format!("{tier:?} quiet"), &sync, &queued);
        assert!(sync.outcomes.iter().all(|o| matches!(o, Ok((Some(_), None)))));
        assert_eq!(sync.counts.completed, jobs.len() as u64);
    }
}

#[test]
fn run_with_matches_submit_with_under_a_fault_storm() {
    let jobs = plan();
    let chaos = storm();
    // The storm must hit every device stage, or the test proves nothing.
    let injector = FaultInjector::new(chaos.clone());
    let registry = Registry::paper();
    let (mut uploads, mut launches, mut read_backs) = (0, 0, 0);
    for (i, job) in jobs.iter().enumerate() {
        let route = registry.select_best(job.model, job.language, job.vendor).unwrap().name;
        let f = injector.decide(&AttemptCtx {
            job: i as u64,
            attempt: 0,
            model: job.model,
            language: job.language,
            vendor: job.vendor,
            route,
        });
        uploads += usize::from(f.upload.is_some());
        launches += usize::from(f.launch.is_some());
        read_backs += usize::from(f.read_back.is_some());
    }
    assert!(uploads > 0 && launches > 0 && read_backs > 0, "{uploads}/{launches}/{read_backs}");

    for tier in [ExecTier::Scalar, ExecTier::Vectorized] {
        let sync = run(&jobs, tier, &chaos, true);
        let queued = run(&jobs, tier, &chaos, false);
        assert_equivalent(&format!("{tier:?} storm"), &sync, &queued);
        // Every injected device fault fails its job, and nothing else does.
        assert_eq!(sync.counts.failed, (uploads + launches + read_backs) as u64);
    }
}

#[test]
fn run_with_refuses_dependent_specs_without_taking_a_slot() {
    let service = Service::new(ServeConfig::default());
    let job = &plan()[0];
    let first = service.submit(job.to_spec(&[])).expect("standalone job admits");

    let mut after = job.to_spec(&[]);
    after.after = vec![first.id];
    let mut aliasing: JobSpec = job.to_spec(&[]);
    aliasing.args[1] = ArgSpec::Output(first.id, 2);
    for spec in [after, aliasing] {
        assert!(matches!(
            service.run_with(spec, SubmitOptions::default()),
            Err(SubmitError::NotStandalone)
        ));
    }
    assert!(first.wait().is_ok());
    assert_eq!(service.in_flight(job.vendor), 0);
    let counts = service.counts();
    assert_eq!((counts.submitted, counts.completed, counts.rejected), (1, 1, 0));
    // A dependency on a job that never existed is refused the same way.
    let mut unknown = job.to_spec(&[]);
    unknown.after = vec![JobId(999)];
    assert!(matches!(
        service.run_with(unknown, SubmitOptions::default()),
        Err(SubmitError::NotStandalone)
    ));
}
