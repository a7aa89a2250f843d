//! Jobs — the unit of work the service schedules.
//!
//! A [`JobSpec`] bundles everything one kernel execution needs: the kernel
//! IR, the (model, language, vendor) route through the executable matrix,
//! the launch shape, argument bindings, and dependency edges. Buffer
//! arguments either carry fresh host data ([`ArgSpec::In`] /
//! [`ArgSpec::Zeroed`]) or alias an earlier job's buffer
//! ([`ArgSpec::Output`]) — the latter is the DAG edge that turns isolated
//! launches into pipelines (launch-after-launch on shared data,
//! transfer-after-launch for read-backs).

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::KernelArg;
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::timing::ModeledTime;
use mcmm_gpu_sim::SimError;

/// Identifier of a submitted job, unique within one [`crate::Service`].
/// Monotonically increasing in submission order, which is what makes
/// dependency graphs acyclic by construction: a job can only reference
/// jobs submitted before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One kernel argument binding.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// A scalar passed through unchanged.
    Scalar(KernelArg),
    /// A fresh device buffer uploaded from these host bytes before launch.
    In(Vec<u8>),
    /// A fresh zero-initialised device buffer of this many bytes.
    Zeroed(u64),
    /// Alias the buffer an earlier job bound at `arg` — adds an implicit
    /// execution dependency on that job. Both jobs must target the same
    /// vendor (buffers live on one device).
    Output(JobId, usize),
}

/// A complete job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The kernel to execute.
    pub kernel: KernelIr,
    /// Source programming model of the route to compile through.
    pub model: Model,
    /// Source language of the route.
    pub language: Language,
    /// Target vendor; selects the device the job runs on.
    pub vendor: Vendor,
    /// Elements the 1-D launch must cover.
    pub n: u64,
    /// Threads per block.
    pub block_dim: u32,
    /// Argument bindings, in kernel-signature order.
    pub args: Vec<ArgSpec>,
    /// Explicit launch-after-launch dependencies (on top of the implicit
    /// ones [`ArgSpec::Output`] adds).
    pub after: Vec<JobId>,
    /// Index of the buffer argument to read back after the launch
    /// (transfer-after-launch on the job's stream).
    pub read_back: Option<usize>,
}

/// Why a submission was refused. Every rejection is explicit — the
/// service never silently drops a job.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The target device's queue is at its admission-control depth.
    /// Retry after draining some in-flight work.
    QueueFull {
        /// The saturated device's vendor.
        vendor: Vendor,
        /// The configured admission depth that was hit.
        depth: usize,
        /// How many in-flight jobs must retire before a resubmission can
        /// be admitted — the overshoot beyond the depth plus one. A
        /// client that waits for this many completions on the vendor's
        /// lane before retrying will not bounce off admission again
        /// (absent competing submitters).
        retry_after_jobs: usize,
    },
    /// The executable matrix has no viable route for this combination —
    /// the serving-layer face of the paper's empty cells.
    NoRoute {
        /// Requested model.
        model: Model,
        /// Requested language.
        language: Language,
        /// Requested vendor.
        vendor: Vendor,
    },
    /// The route's virtual compiler refused the kernel.
    Compile(mcmm_toolchain::CompileError),
    /// A dependency references a job this service never accepted.
    UnknownDependency(JobId),
    /// An [`ArgSpec::Output`] references a job on a different device.
    CrossDeviceDependency {
        /// The referenced job.
        job: JobId,
        /// Vendor of the submitting job.
        expected: Vendor,
        /// Vendor the referenced job actually ran on.
        found: Vendor,
    },
    /// An [`ArgSpec::Output`] references an argument slot that is not a
    /// buffer (a scalar, or out of range).
    BadBuffer {
        /// The referenced job.
        job: JobId,
        /// The referenced argument index.
        arg: usize,
    },
    /// Device memory could not be allocated for the job's buffers.
    Alloc(SimError),
    /// [`crate::Service::run_with`] runs standalone jobs only; this spec
    /// depends on earlier jobs (`after` or [`ArgSpec::Output`]).
    NotStandalone,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { vendor, depth, retry_after_jobs } => {
                write!(
                    f,
                    "{vendor} queue full (admission depth {depth}; retry after {retry_after_jobs} completions)"
                )
            }
            SubmitError::NoRoute { model, language, vendor } => {
                write!(f, "no viable route for {model} {language} on {vendor}")
            }
            SubmitError::Compile(e) => write!(f, "compile failed: {e}"),
            SubmitError::UnknownDependency(id) => write!(f, "unknown dependency {id}"),
            SubmitError::CrossDeviceDependency { job, expected, found } => {
                write!(f, "{job} is on {found}, not on the requested {expected} device")
            }
            SubmitError::BadBuffer { job, arg } => {
                write!(f, "{job} argument {arg} is not a device buffer")
            }
            SubmitError::Alloc(e) => write!(f, "buffer allocation failed: {e}"),
            SubmitError::NotStandalone => {
                write!(f, "job has dependencies; only queued submission can order it")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The finished state of one job, resolved by [`crate::JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct JobCompletion {
    /// The job's id.
    pub id: JobId,
    /// The device the job ran on.
    pub vendor: Vendor,
    /// Read-back bytes, when the spec requested one and the job succeeded.
    pub output: Option<Vec<u8>>,
    /// The first error any of the job's operations hit; `None` on success.
    /// Errors are job-local — they never poison the stream or the service.
    pub error: Option<SimError>,
    /// Modeled latency: device-clock delta from admission to completion,
    /// so queueing behind other tenants' work is included.
    pub latency: ModeledTime,
    /// Was the compiled artifact served from the compile cache?
    pub cache_hit: bool,
}

impl JobCompletion {
    /// Did every operation of the job succeed?
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}
