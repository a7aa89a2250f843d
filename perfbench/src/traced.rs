//! The traced pass: the same bodies replayed through the public pieces
//! `Gateway::submit` and the HTTP server are made of, in the same order,
//! with every call timed as a span from this file. Nothing inside the
//! program is instrumented.
//!
//! Span tree of one request (all spans of a request share its id, which
//! the client sends as `?rid=` in the request target):
//!
//! ```text
//! root (client: HttpClient::request, send to full response)
//! └─ handle (server: first request byte available to response written)
//!    ├─ read       http::read_request
//!    ├─ decode     UTF-8 check + serde_json::from_str::<SubmitRequest>
//!    ├─ validate   SubmitRequest::validate
//!    ├─ tenant     TenantGovernor::admit
//!    ├─ admit      shard = key % shards; Shard::admit
//!    ├─ join       Coalescer::join
//!    ├─ run        Shard::run                (lead)
//!    ├─ checksum   fnv1a                     (lead)
//!    ├─ complete   Coalescer::complete       (lead)
//!    ├─ wait       Flight::wait              (follow)
//!    ├─ release    Shard::release            (follow)
//!    ├─ encode     serde_json::to_string(&SubmitResponse)
//!    └─ write      Response::write_to
//! ```

use mcmm_gateway::coalesce::{FlightResult, Join};
use mcmm_gateway::http::{read_request, Response};
use mcmm_gateway::TenantGovernor;
use mcmm_gateway::{ApiError, ErrorBody, GatewayConfig, Shard, SubmitRequest, SubmitResponse};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_toolchain::{CompileCache, DiskTier};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// A span's place in the request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Client send to full response.
    Root,
    /// Server handling, first byte available to response written.
    Handle,
    /// `http::read_request`.
    Read,
    /// Body UTF-8 check and JSON decode.
    Decode,
    /// `SubmitRequest::validate`.
    Validate,
    /// `TenantGovernor::admit`.
    Tenant,
    /// Shard routing and `Shard::admit`.
    Admit,
    /// `Coalescer::join`.
    Join,
    /// `Shard::run`.
    Run,
    /// `fnv1a` over the result bytes.
    Checksum,
    /// `Coalescer::complete`.
    Complete,
    /// `Flight::wait`.
    Wait,
    /// `Shard::release`.
    Release,
    /// `serde_json::to_string` of the response.
    Encode,
    /// `Response::write_to`.
    Write,
}

impl Stage {
    /// The span that caused this one.
    pub fn parent(self) -> Option<Stage> {
        match self {
            Stage::Root => None,
            Stage::Handle => Some(Stage::Root),
            _ => Some(Stage::Handle),
        }
    }

    /// Whether this is a leaf of the tree (a call into one layer).
    pub fn is_leaf(self) -> bool {
        self.parent() == Some(Stage::Handle)
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id shared by every span of one request.
    pub rid: u64,
    /// What was timed.
    pub stage: Stage,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// Spans of the request in progress on one thread.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<(Stage, Instant, Instant)>,
}

impl Recorder {
    /// Run `f` as one span.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push((stage, start, Instant::now()));
        out
    }

    /// Hand the request's spans over under its id.
    pub fn finish(&mut self, rid: u64, into: &mut Vec<Span>) {
        into.extend(self.spans.drain(..).map(|(stage, start, end)| Span {
            rid,
            stage,
            start,
            end,
        }));
    }
}

/// The pieces `Gateway::new` assembles, built the same way from their
/// public constructors.
pub struct Stack {
    shards: Vec<Arc<Shard>>,
    governor: TenantGovernor,
}

impl Stack {
    /// Assemble shards and tenant governor as `Gateway::new` does.
    pub fn new(cfg: &GatewayConfig) -> std::io::Result<Self> {
        let disk = match &cfg.artifact_dir {
            Some(dir) => Some(Arc::new(DiskTier::open(dir)?)),
            None => None,
        };
        let shards = (0..cfg.shards.max(1))
            .map(|i| {
                let cache = match &disk {
                    Some(tier) => {
                        CompileCache::with_disk(cfg.serve.cache_capacity, Arc::clone(tier))
                    }
                    None => CompileCache::new(cfg.serve.cache_capacity),
                };
                Arc::new(Shard::new(
                    i,
                    cfg.serve,
                    Arc::new(cache),
                    cfg.policy,
                    cfg.chaos.clone(),
                    cfg.queue_bound,
                ))
            })
            .collect();
        Ok(Self { shards, governor: TenantGovernor::new(cfg.tenant) })
    }

    /// `Gateway::submit`, step by step, each step a span.
    pub fn submit(
        &self,
        req: &SubmitRequest,
        rec: &mut Recorder,
    ) -> Result<SubmitResponse, ApiError> {
        let valid = rec.time(Stage::Validate, || req.validate())?;
        if let Err(t) = rec.time(Stage::Tenant, || self.governor.admit(&req.tenant)) {
            return Err(ApiError {
                status: 429,
                message: format!("tenant {:?} over rate", req.tenant),
                retry_after: Some(t.retry_after_secs),
            });
        }
        let (shard, admitted) = rec.time(Stage::Admit, || {
            let shard = &self.shards[(valid.key % self.shards.len() as u64) as usize];
            (shard, shard.admit())
        });
        if let Err(full) = admitted {
            return Err(ApiError {
                status: 503,
                message: format!(
                    "shard {} queue full (depth {}; retry after {} completions)",
                    shard.index, full.depth, full.retry_after_jobs
                ),
                retry_after: Some((full.retry_after_jobs as u64).div_ceil(64).max(1)),
            });
        }
        let (result, coalesced) = match rec.time(Stage::Join, || shard.coalescer.join(valid.key)) {
            Join::Lead => {
                let result = match rec.time(Stage::Run, || shard.run(&valid.job)) {
                    Some((bytes, route)) => FlightResult {
                        checksum: rec.time(Stage::Checksum, || fnv1a(&bytes)),
                        route,
                        error: None,
                    },
                    None => FlightResult {
                        checksum: 0,
                        route: String::new(),
                        error: Some("job lost: every route exhausted".into()),
                    },
                };
                rec.time(Stage::Complete, || shard.coalescer.complete(valid.key, result.clone()));
                (result, false)
            }
            Join::Follow(flight) => {
                let result = rec.time(Stage::Wait, || flight.wait());
                rec.time(Stage::Release, || shard.release());
                (result, true)
            }
        };
        if let Some(error) = result.error {
            return Err(ApiError { status: 500, message: error, retry_after: None });
        }
        Ok(SubmitResponse {
            checksum: format!("{:016x}", result.checksum),
            route: result.route,
            shard: shard.index,
            coalesced,
        })
    }
}

fn error_response(status: u16, message: &str, retry_after: Option<u64>) -> Response {
    let body =
        serde_json::to_string(&ErrorBody { error: message.to_owned() }).expect("error serializes");
    let resp = Response::json(status, body);
    match retry_after {
        Some(secs) => resp.with_header("retry-after", secs),
        None => resp,
    }
}

/// Serve one keep-alive connection as `HttpServer` does, recording spans.
/// Returns when the client closes the connection.
pub fn serve_connection(stream: TcpStream, stack: &Stack) -> Vec<Span> {
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().expect("clone connection");
    let mut reader = BufReader::new(stream);
    let mut rec = Recorder::default();
    let mut spans = Vec::new();
    // Waiting for the client's next request is not server time: the
    // handle span starts once its first byte is readable.
    while reader.fill_buf().is_ok_and(|buf| !buf.is_empty()) {
        let start = Instant::now();
        let Ok(req) = rec.time(Stage::Read, || read_request(&mut reader)) else { break };
        let rid = req
            .query
            .strip_prefix("rid=")
            .and_then(|r| r.parse().ok())
            .expect("traced requests carry ?rid=");
        // The benchmark's own client sends nothing but `POST /v1/submit`.
        let parsed = rec.time(Stage::Decode, || match std::str::from_utf8(&req.body) {
            Ok(body) => serde_json::from_str::<SubmitRequest>(body)
                .map_err(|e| format!("invalid JSON body: {e}")),
            Err(_) => Err("body is not UTF-8".to_owned()),
        });
        let response = match parsed.map(|p| stack.submit(&p, &mut rec)) {
            Err(msg) => error_response(400, &msg, None),
            Ok(Err(e)) => error_response(e.status, &e.message, e.retry_after),
            Ok(Ok(resp)) => {
                let body = rec.time(Stage::Encode, || {
                    serde_json::to_string(&resp).expect("response serializes")
                });
                Response::json(200, body)
            }
        };
        let close = req.wants_close();
        let written = rec.time(Stage::Write, || response.write_to(&mut write_half, close));
        rec.spans.push((Stage::Handle, start, Instant::now()));
        rec.finish(rid, &mut spans);
        if written.is_err() || close {
            break;
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Kind};
    use mcmm_gateway::Gateway;

    /// The decomposed path answers exactly what `Gateway::submit` answers.
    #[test]
    fn traced_path_matches_gateway_submit() {
        let inputs = build(Kind::SmallMixed, 3);
        let cfg = crate::load::gateway_config;
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let gateway = Gateway::new(cfg(dir.join("gateway"))).unwrap();
        let stack = Stack::new(&cfg(dir.join("stack"))).unwrap();
        let mut rec = Recorder::default();
        let mut spans = Vec::new();
        for (i, body) in inputs.bodies.iter().take(48).enumerate() {
            let req: SubmitRequest = serde_json::from_str(body).unwrap();
            let want = gateway.submit(&req).unwrap();
            let got = stack.submit(&req, &mut rec).unwrap();
            rec.finish(i as u64, &mut spans);
            assert_eq!(got.checksum, want.checksum, "body {i}");
            assert_eq!(got.checksum, inputs.expected[i], "body {i}");
            assert_eq!((got.route, got.shard), (want.route, want.shard), "body {i}");
        }
        assert!(spans.iter().all(|s| s.stage.parent() == Some(Stage::Handle)));
        assert_eq!(spans.iter().filter(|s| s.stage == Stage::Run).count(), 48);
        drop((gateway, stack));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
