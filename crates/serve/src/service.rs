//! The multi-tenant execution service.
//!
//! One [`Service`] owns the three simulated vendor devices, a small fan of
//! streams per device, the shared content-addressed compile cache, and the
//! route registry. Admission resolves a job's route, applies admission
//! control, compiles through the cache (the analyzer lint gate runs once
//! per cache fill, not per launch), binds its buffers, and builds its
//! stage list once: uploads, the launch, the optional read-back. Two
//! dispatchers run that list:
//!
//! * [`Service::submit`] / [`Service::submit_with`] queue it on a stream
//!   and map the job's dependency edges onto stream/event primitives:
//!   every dependency becomes a [`Stream::wait_event`] on the
//!   dependency's completion event (launch-after-launch, including across
//!   streams), and the stages run in stream order (transfer-after-launch).
//!   Workload DAGs go this way.
//! * [`Service::run_with`] runs a standalone job on the calling thread,
//!   with no handoff, and frees its buffers at retirement. The gateway's
//!   per-request path goes this way.
//!
//! Either way, retirement releases the admission slot, classifies the
//! outcome and completes the job's event — even if the job failed, so
//! slots can never leak.
//!
//! Job failures are **job-local**: stages route errors into the job's
//! error slot and report success to the stream, so one tenant's
//! out-of-bounds access never poisons the stream for its neighbours.

use crate::job::{ArgSpec, JobCompletion, JobId, JobSpec, SubmitError};
use mcmm_chaos::AttemptFaults;
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::event::Event;
use mcmm_gpu_sim::fault::{LaunchFault, TransferFault};
use mcmm_gpu_sim::mem::DevicePtr;
use mcmm_gpu_sim::stream::Stream;
use mcmm_gpu_sim::timing::ModeledTime;
use mcmm_gpu_sim::{Module, SimError};
use mcmm_toolchain::{vendor_device_spec, CompileCache, Registry};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent streams per device (≥ 1), spawned by the device's first
    /// queued submission.
    pub streams_per_device: usize,
    /// Admission-control bound: jobs in flight per device before
    /// submissions are rejected with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Compile-cache capacity in artifacts.
    pub cache_capacity: usize,
    /// Whether the devices record memory-access traces, keeping the
    /// per-vendor L1/L2 rows of [`ServeReport`](crate::ServeReport) and
    /// the gateway's `/v1/stats` live on every request. Defaults to
    /// **on**: the streaming replay pipeline keeps the launch overhead
    /// within the budget the memhier bench gates
    /// (`BENCH_memhier.json`).
    pub tracing: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { streams_per_device: 3, queue_depth: 64, cache_capacity: 256, tracing: true }
    }
}

/// Aggregate job accounting. `submitted == completed + failed` once the
/// service is drained; `rejected` counts explicit admission refusals
/// (rejected submissions are not part of `submitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs that finished with no error.
    pub completed: u64,
    /// Jobs that finished with a job-local error.
    pub failed: u64,
    /// Submissions refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Accepted submissions that matched an earlier [`SubmitError::QueueFull`]
    /// rejection of the same spec — the tenant came back and got in.
    pub resubmitted: u64,
    /// Rejections whose spec was never accepted afterwards — the tenant
    /// gave up (or has not come back yet). `rejected` counts *events*;
    /// this counts the ones still unresolved.
    pub rejected_hard: u64,
}

/// Per-submission options: a route override and injected faults.
///
/// The default (no override, no faults) makes [`Service::submit_with`]
/// behave exactly like [`Service::submit`]. The failover router uses the
/// override to steer a retried job onto an alternative route of the same
/// cell, and threads the chaos injector's decisions through `faults`.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions<'a> {
    /// Compile through the route with this exact toolchain name instead
    /// of [`Registry::select_best`]'s choice. The route must exist,
    /// support the job's (model, language, vendor), and be usable,
    /// otherwise the submission fails with [`SubmitError::NoRoute`].
    pub route: Option<&'a str>,
    /// Faults to inject into this submission's pipeline stages.
    pub faults: AttemptFaults,
}

/// One device plus its scheduling state.
struct Lane {
    device: Arc<Device>,
    /// The device's stream fan, spawned by the first asynchronous
    /// submission: a service driven only through [`Service::run_with`]
    /// holds no threads.
    streams: OnceLock<Vec<Stream>>,
    /// Round-robin cursor over `streams`.
    next_stream: AtomicUsize,
    /// Jobs admitted but not yet retired on this device.
    in_flight: Arc<AtomicUsize>,
}

/// Book-keeping for an accepted job, kept for dependency resolution.
struct JobRecord {
    vendor: Vendor,
    /// Per-argument device buffers: `(ptr, len)` for buffer args, `None`
    /// for scalars.
    buffers: Vec<Option<(DevicePtr, u64)>>,
    /// Retired when the job's last stream operation has run.
    done: Event,
}

/// One device operation of a job. Admission builds a job's stage list
/// once — its uploads in argument order, the launch, then the optional
/// read-back — and either dispatcher runs it in order: queued on a stream
/// by [`Service::submit_with`], or on the caller's thread by
/// [`Service::run_with`].
enum Stage {
    Upload(DevicePtr, Vec<u8>, Option<TransferFault>),
    Launch(Arc<Module>, LaunchConfig, Vec<KernelArg>, Option<LaunchFault>),
    ReadBack(DevicePtr, u64, Option<TransferFault>),
}

/// A job's outcome, written by its stages and read at retirement.
#[derive(Default)]
struct JobSlots {
    /// The first error any stage hit. Job-local: the job's later stages
    /// are skipped, but the stream and its other tenants carry on.
    error: Mutex<Option<SimError>>,
    output: Mutex<Option<Vec<u8>>>,
}

impl Stage {
    fn run(self, dev: &Device, job: &JobSlots) {
        if job.error.lock().is_some() {
            return; // an earlier stage of *this job* failed
        }
        let result = match self {
            Stage::Upload(ptr, bytes, fault) => {
                dev.memcpy_h2d_faulted(ptr, &bytes, fault.as_ref()).map(drop)
            }
            Stage::Launch(module, cfg, args, fault) => {
                dev.launch_faulted(&module, cfg, &args, fault.as_ref()).map(drop)
            }
            Stage::ReadBack(ptr, len, fault) => dev
                .memcpy_d2h_faulted(ptr, len, fault.as_ref())
                .map(|(bytes, _)| *job.output.lock() = Some(bytes)),
        };
        if let Err(e) = result {
            job.error.lock().get_or_insert(e);
        }
    }
}

/// Retire a job after its last stage: classify the outcome, give back
/// the admission slot, then complete the job's event at the device's
/// clock — so by the time a waiter observes `done`, the books balance.
/// Runs whether or not the job failed, so slots cannot leak.
fn retire(
    job: &JobSlots,
    done: &Event,
    device: &Device,
    completed: &AtomicU64,
    failed: &AtomicU64,
    in_flight: &AtomicUsize,
) {
    let outcome = if job.error.lock().is_some() { failed } else { completed };
    outcome.fetch_add(1, Ordering::SeqCst);
    in_flight.fetch_sub(1, Ordering::SeqCst);
    done.complete(device.modeled_clock());
}

/// A job's arguments resolved against its device.
struct Bound {
    /// The device operations to run, in order.
    stages: Vec<Stage>,
    /// Per-argument buffer table (for later jobs' [`ArgSpec::Output`]).
    buffers: Vec<Option<(DevicePtr, u64)>>,
    /// The buffers this job allocated itself.
    fresh: Vec<(DevicePtr, u64)>,
    /// Dependency completion events to wait on.
    wait_on: Vec<Event>,
}

/// A job past route resolution, admission control, compilation and
/// binding: everything either dispatcher needs to run it.
struct Admitted<'s> {
    lane: &'s Lane,
    handle: JobHandle,
    bound: Bound,
}

/// A handle to one accepted job.
pub struct JobHandle {
    /// The job's service-wide id.
    pub id: JobId,
    /// The device the job was scheduled on.
    pub vendor: Vendor,
    /// Served from the compile cache?
    pub cache_hit: bool,
    done: Event,
    job: Arc<JobSlots>,
    admitted_at: ModeledTime,
}

impl JobHandle {
    /// Block until the job retires and return its completion record.
    pub fn wait(self) -> JobCompletion {
        let at = self.done.wait();
        let latency =
            ModeledTime::from_seconds((at.seconds() - self.admitted_at.seconds()).max(0.0));
        JobCompletion {
            id: self.id,
            vendor: self.vendor,
            output: self.job.output.lock().take(),
            error: self.job.error.lock().take(),
            latency,
            cache_hit: self.cache_hit,
        }
    }

    /// Has the job retired yet?
    pub fn is_done(&self) -> bool {
        self.done.query()
    }
}

/// The concurrent kernel-execution service over the executable matrix.
pub struct Service {
    registry: Registry,
    cache: Arc<CompileCache>,
    lanes: BTreeMap<Vendor, Lane>,
    streams_per_device: usize,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    next_id: AtomicU64,
    queue_depth: usize,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    rejected: AtomicU64,
    resubmitted: AtomicU64,
    /// Spec-content keys of rejected submissions not yet resubmitted:
    /// key → outstanding rejection count. Distinguishes
    /// rejected-then-resubmitted jobs from hard rejections.
    rejected_pending: Mutex<HashMap<u64, u64>>,
}

/// Content key of a job spec, for matching a resubmission to its earlier
/// rejection: kernel fingerprint, route triple, launch shape, argument
/// bindings, dependencies, and read-back slot. Two submissions of the
/// same work hash equal even though they are distinct `JobSpec` values.
fn spec_key(spec: &JobSpec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.kernel.fingerprint().hash(&mut h);
    (spec.model as u8, spec.language as u8, spec.vendor as u8).hash(&mut h);
    (spec.n, spec.block_dim).hash(&mut h);
    for a in &spec.args {
        match a {
            ArgSpec::Scalar(k) => (0u8, format!("{k:?}")).hash(&mut h),
            ArgSpec::In(bytes) => (1u8, bytes).hash(&mut h),
            ArgSpec::Zeroed(len) => (2u8, len).hash(&mut h),
            ArgSpec::Output(id, idx) => (3u8, id.0, idx).hash(&mut h),
        }
    }
    for id in &spec.after {
        id.0.hash(&mut h);
    }
    spec.read_back.hash(&mut h);
    h.finish()
}

impl Service {
    /// Bring up the service: three devices, `streams_per_device` streams
    /// each (spawned on first asynchronous use), a fresh compile cache,
    /// and the paper's route registry.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_registry(cfg, Registry::paper())
    }

    /// Bring up the service over an arbitrary (e.g. evolved) registry.
    pub fn with_registry(cfg: ServeConfig, registry: Registry) -> Self {
        let cache = Arc::new(CompileCache::new(cfg.cache_capacity));
        Self::with_cache(cfg, registry, cache)
    }

    /// Bring up the service over an externally owned compile cache —
    /// typically one backed by a disk tier
    /// ([`CompileCache::with_disk`](mcmm_toolchain::CompileCache::with_disk))
    /// shared with other services or surviving across process restarts.
    /// `cfg.cache_capacity` is ignored; the injected cache's own capacity
    /// governs.
    pub fn with_cache(cfg: ServeConfig, registry: Registry, cache: Arc<CompileCache>) -> Self {
        let lanes = Vendor::ALL
            .into_iter()
            .map(|v| {
                let device = Device::new(vendor_device_spec(v));
                device.set_tracing(cfg.tracing);
                (
                    v,
                    Lane {
                        device,
                        streams: OnceLock::new(),
                        next_stream: AtomicUsize::new(0),
                        in_flight: Arc::new(AtomicUsize::new(0)),
                    },
                )
            })
            .collect();
        Self {
            registry,
            cache,
            lanes,
            streams_per_device: cfg.streams_per_device.max(1),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            queue_depth: cfg.queue_depth.max(1),
            submitted: AtomicU64::new(0),
            completed: Arc::new(AtomicU64::new(0)),
            failed: Arc::new(AtomicU64::new(0)),
            rejected: AtomicU64::new(0),
            resubmitted: AtomicU64::new(0),
            rejected_pending: Mutex::new(HashMap::new()),
        }
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The route registry this service schedules over.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The simulated device serving a vendor.
    pub fn device(&self, vendor: Vendor) -> &Arc<Device> {
        &self.lanes[&vendor].device
    }

    /// Jobs currently admitted but not retired on a vendor's device.
    pub fn in_flight(&self, vendor: Vendor) -> usize {
        self.lanes[&vendor].in_flight.load(Ordering::SeqCst)
    }

    /// Aggregate accounting so far.
    pub fn counts(&self) -> ServiceCounts {
        ServiceCounts {
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            resubmitted: self.resubmitted.load(Ordering::SeqCst),
            rejected_hard: self.rejected_pending.lock().values().sum(),
        }
    }

    /// Submit a job. On success the job is queued on its device and a
    /// [`JobHandle`] tracks it; every refusal is an explicit
    /// [`SubmitError`] — the service never drops work silently.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_with(spec, SubmitOptions::default())
    }

    /// [`Service::submit`] with per-submission [`SubmitOptions`]: an
    /// explicit route override (the failover router steering a retry onto
    /// an alternative route of the same cell) and injected faults.
    ///
    /// The job's stages are queued on one of its device's streams, after
    /// a wait on each dependency's completion event. Its buffers stay
    /// allocated so later jobs can alias them ([`ArgSpec::Output`]).
    pub fn submit_with(
        &self,
        spec: JobSpec,
        opts: SubmitOptions<'_>,
    ) -> Result<JobHandle, SubmitError> {
        let Admitted { lane, handle, bound } = self.admit(spec, opts)?;
        let streams = lane.streams.get_or_init(|| {
            (0..self.streams_per_device).map(|_| Stream::new(Arc::clone(&lane.device))).collect()
        });
        let stream = &streams[lane.next_stream.fetch_add(1, Ordering::SeqCst) % streams.len()];
        for dep in &bound.wait_on {
            stream.wait_event(dep);
        }
        for stage in bound.stages {
            let job = Arc::clone(&handle.job);
            stream.exec(move |dev| {
                stage.run(dev, &job);
                Ok(()) // job-local error: never poison the stream
            });
        }
        // A host callback runs even behind a failed operation, so the
        // job always retires.
        let (job, done, device) =
            (Arc::clone(&handle.job), handle.done.clone(), Arc::clone(&lane.device));
        let (completed, failed, in_flight) =
            (Arc::clone(&self.completed), Arc::clone(&self.failed), Arc::clone(&lane.in_flight));
        stream.callback(move || retire(&job, &done, &device, &completed, &failed, &in_flight));
        self.jobs.lock().insert(
            handle.id,
            JobRecord { vendor: handle.vendor, buffers: bound.buffers, done: handle.done.clone() },
        );
        Ok(handle)
    }

    /// Run one standalone job to retirement on the calling thread: the
    /// same admission, compilation and stages as [`Service::submit_with`],
    /// with no stream handoff. Nothing can name the job afterwards, so
    /// every buffer it allocated is freed at retirement, whether it
    /// succeeded or failed. A spec with dependencies (`after` or
    /// [`ArgSpec::Output`]) is refused with [`SubmitError::NotStandalone`].
    pub fn run_with(
        &self,
        spec: JobSpec,
        opts: SubmitOptions<'_>,
    ) -> Result<JobCompletion, SubmitError> {
        if !spec.after.is_empty() || spec.args.iter().any(|a| matches!(a, ArgSpec::Output(..))) {
            return Err(SubmitError::NotStandalone);
        }
        let Admitted { lane, handle, bound } = self.admit(spec, opts)?;
        let device = &lane.device;
        for stage in bound.stages {
            stage.run(device, &handle.job);
        }
        for (ptr, len) in bound.fresh {
            device.free(ptr, len);
        }
        retire(&handle.job, &handle.done, device, &self.completed, &self.failed, &lane.in_flight);
        Ok(handle.wait())
    }

    /// Block until every stream on every device has drained. Jobs run
    /// through [`Service::run_with`] have retired by the time it returns.
    pub fn drain(&self) {
        for s in self.lanes.values().filter_map(|lane| lane.streams.get()).flatten() {
            // Serve streams are never poisoned (job errors are local), so
            // a sync error here is a service bug worth surfacing.
            s.synchronize().expect("serve stream poisoned");
        }
    }

    /// Route resolution, admission control, compilation and binding —
    /// everything both dispatchers share before a job's first stage.
    fn admit(&self, spec: JobSpec, opts: SubmitOptions<'_>) -> Result<Admitted<'_>, SubmitError> {
        let lane = &self.lanes[&spec.vendor];
        let no_route = SubmitError::NoRoute {
            model: spec.model,
            language: spec.language,
            vendor: spec.vendor,
        };

        // 1. Route resolution — the matrix's empty cells surface here. An
        //    explicit override must name a usable route for the cell.
        let compiler = match opts.route {
            None => self.registry.select_best(spec.model, spec.language, spec.vendor),
            Some(name) => self
                .registry
                .ranked(spec.model, spec.language, spec.vendor)
                .into_iter()
                .find(|c| c.name == name),
        }
        .ok_or(no_route)?;

        // 2. Admission control: bounded in-flight jobs per device.
        let admitted = lane.in_flight.fetch_add(1, Ordering::SeqCst);
        if admitted >= self.queue_depth {
            lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.rejected.fetch_add(1, Ordering::SeqCst);
            *self.rejected_pending.lock().entry(spec_key(&spec)).or_insert(0) += 1;
            return Err(SubmitError::QueueFull {
                vendor: spec.vendor,
                depth: self.queue_depth,
                retry_after_jobs: admitted - self.queue_depth + 1,
            });
        }
        // Admitted: if this spec bounced off admission earlier, the
        // tenant came back — settle one outstanding rejection. Keying a
        // spec hashes every input byte, so skip it while none is pending.
        {
            let mut pending = self.rejected_pending.lock();
            if !pending.is_empty() {
                let key = spec_key(&spec);
                if let Some(count) = pending.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        pending.remove(&key);
                    }
                    self.resubmitted.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        // Any refusal below must give the slot back.
        let release_on_err = |e: SubmitError| {
            lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            e
        };

        // 3. Compile through the content-addressed cache. The lint gate
        //    runs once per cache fill; warm submissions skip it entirely.
        //    An injected toolchain fault fails a cold compile only — a
        //    resident artifact rides it out.
        let (module, cache_hit) = self
            .cache
            .compile_faulted(
                compiler,
                &spec.kernel,
                spec.model,
                spec.language,
                spec.vendor,
                opts.faults.compile.as_deref(),
            )
            .map_err(|e| release_on_err(SubmitError::Compile(e)))?;
        let cfg =
            LaunchConfig::linear(spec.n, spec.block_dim).with_efficiency(compiler.efficiency());

        // 4. Resolve dependencies, bind buffers, build the stage list.
        let vendor = spec.vendor;
        let bound =
            self.bind(spec, &lane.device, module, cfg, opts.faults).map_err(release_on_err)?;
        self.submitted.fetch_add(1, Ordering::SeqCst);
        let handle = JobHandle {
            id: JobId(self.next_id.fetch_add(1, Ordering::SeqCst)),
            vendor,
            cache_hit,
            done: Event::new(),
            job: Arc::new(JobSlots::default()),
            admitted_at: lane.device.modeled_clock(),
        };
        Ok(Admitted { lane, handle, bound })
    }

    /// Resolve a job's arguments into its buffer table and stage list:
    /// fresh buffers are allocated, dependency buffers aliased.
    /// Dependencies and the read-back slot are checked before anything is
    /// allocated, and a failed allocation frees what the job already
    /// holds, so a refused job keeps no device memory.
    fn bind(
        &self,
        spec: JobSpec,
        device: &Device,
        module: Arc<Module>,
        cfg: LaunchConfig,
        faults: AttemptFaults,
    ) -> Result<Bound, SubmitError> {
        let mut wait_on = Vec::new();
        let mut buffers: Vec<Option<(DevicePtr, u64)>> = vec![None; spec.args.len()];
        let mut dep_ids: Vec<JobId> = spec.after.clone();
        dep_ids.extend(spec.args.iter().filter_map(|a| match a {
            ArgSpec::Output(id, _) => Some(*id),
            _ => None,
        }));
        if !dep_ids.is_empty() {
            dep_ids.sort();
            dep_ids.dedup();
            let jobs = self.jobs.lock();
            for id in &dep_ids {
                let rec = jobs.get(id).ok_or(SubmitError::UnknownDependency(*id))?;
                if spec.args.iter().any(|a| matches!(a, ArgSpec::Output(d, _) if d == id))
                    && rec.vendor != spec.vendor
                {
                    return Err(SubmitError::CrossDeviceDependency {
                        job: *id,
                        expected: spec.vendor,
                        found: rec.vendor,
                    });
                }
                wait_on.push(rec.done.clone());
            }
            for (slot, a) in buffers.iter_mut().zip(&spec.args) {
                if let ArgSpec::Output(id, idx) = a {
                    *slot = Some(
                        jobs[id]
                            .buffers
                            .get(*idx)
                            .copied()
                            .flatten()
                            .ok_or(SubmitError::BadBuffer { job: *id, arg: *idx })?,
                    );
                }
            }
        }
        if let Some(idx) = spec.read_back {
            if matches!(spec.args.get(idx), None | Some(ArgSpec::Scalar(_))) {
                return Err(SubmitError::BadBuffer { job: JobId(0), arg: idx });
            }
        }

        let mut stages = Vec::with_capacity(spec.args.len() + 2);
        let mut args = Vec::with_capacity(spec.args.len());
        let mut fresh: Vec<(DevicePtr, u64)> = Vec::new();
        // An injected upload fault aborts the job's *first* upload; the
        // remaining uploads are skipped via the job-local error slot, the
        // same path an organic transfer failure takes.
        let mut upload_fault = faults.upload;
        for (slot, a) in buffers.iter_mut().zip(spec.args) {
            let (len, bytes) = match a {
                ArgSpec::Scalar(k) => {
                    args.push(k);
                    continue;
                }
                ArgSpec::Output(..) => {
                    args.push(KernelArg::Ptr(slot.expect("aliased buffers resolved above").0));
                    continue;
                }
                ArgSpec::In(bytes) => (bytes.len() as u64, bytes),
                ArgSpec::Zeroed(len) => (len, vec![0u8; len as usize]),
            };
            let ptr = match device.alloc(len) {
                Ok(ptr) => ptr,
                Err(e) => {
                    for (ptr, len) in fresh {
                        device.free(ptr, len);
                    }
                    return Err(SubmitError::Alloc(e));
                }
            };
            fresh.push((ptr, len));
            *slot = Some((ptr, len));
            args.push(KernelArg::Ptr(ptr));
            stages.push(Stage::Upload(ptr, bytes, upload_fault.take()));
        }
        stages.push(Stage::Launch(module, cfg, args, faults.launch));
        if let Some(idx) = spec.read_back {
            let (ptr, len) = buffers[idx].expect("read-back slot checked above");
            stages.push(Stage::ReadBack(ptr, len, faults.read_back));
        }
        Ok(Bound { stages, buffers, fresh, wait_on })
    }
}
