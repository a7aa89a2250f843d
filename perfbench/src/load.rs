//! The gateway under test and the closed-loop HTTP load that drives it.
//!
//! Closed loop: each connection sends its next request only after the
//! previous reply arrived. All connections live in this process, one
//! thread each, with keep-alive.

use crate::workload::{Inputs, Kind, CONNECTIONS};
use mcmm_gateway::{Gateway, GatewayConfig, HttpClient, HttpServer, SubmitResponse, TenantPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Accept threads given to [`HttpServer::start`].
const ACCEPTORS: usize = 2;

/// The configuration every run serves with: `GatewayConfig::default()`
/// with the tenant bucket unthrottled as in `serve-http`, and a fresh
/// artifact directory.
pub fn gateway_config(artifact_dir: PathBuf) -> GatewayConfig {
    GatewayConfig {
        tenant: TenantPolicy { burst: 1e12, per_second: 1e12 },
        artifact_dir: Some(artifact_dir),
        ..GatewayConfig::default()
    }
}

/// A running gateway behind its HTTP server, with the benchmark's
/// connections open.
pub struct Live {
    gateway: Arc<Gateway>,
    server: HttpServer,
    /// One keep-alive connection per load thread.
    pub clients: Vec<HttpClient>,
}

impl Live {
    /// Bring a fresh gateway up and open the connections; returns the
    /// set-up time alongside.
    pub fn start(artifact_dir: PathBuf) -> std::io::Result<(Self, Duration)> {
        let t = Instant::now();
        let gateway = Arc::new(Gateway::new(gateway_config(artifact_dir))?);
        let server = HttpServer::start("127.0.0.1:0", Arc::clone(&gateway), ACCEPTORS)?;
        let clients = (0..CONNECTIONS)
            .map(|_| HttpClient::connect(server.addr()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let elapsed = t.elapsed();
        Ok((Self { gateway, server, clients }, elapsed))
    }

    /// The gateway under test.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Close the connections, stop the server and wait until every
    /// gateway thread has been joined.
    pub fn stop(self) {
        let Live { gateway, server, clients } = self;
        drop(clients);
        server.shutdown();
        // Connection threads drop their gateway handles once they see the
        // clients' EOF; the last handle then joins the device threads.
        let deadline = Instant::now() + Duration::from_secs(30);
        while Arc::strong_count(&gateway) > 1 {
            assert!(Instant::now() < deadline, "gateway connection threads did not exit");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(gateway);
    }
}

/// One request/response exchange as the client saw it.
pub struct Exchange {
    /// Pool index of the body sent.
    pub idx: usize,
    /// HTTP status; 0 when the exchange failed at the transport.
    pub status: u16,
    /// Just before the request was written.
    pub start: Instant,
    /// Just after the full response was read.
    pub end: Instant,
    /// The checksum answered, on 200.
    pub checksum: Option<String>,
}

impl Exchange {
    /// Send-to-full-response time in seconds.
    pub fn latency_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// When the load stops.
pub enum Until {
    /// After `seconds`, once at least `min_ok` requests succeeded, and no
    /// later than `max_seconds`; connection `c` sends body
    /// `kind.body_index(c, k)` as its `k`-th request.
    Time { seconds: f64, min_ok: usize, max_seconds: f64 },
    /// Replay exactly these pool indices, per connection, tagging each
    /// request with `?rid=` so the server side can join its spans to it.
    Replay(Vec<Vec<usize>>),
}

/// Everything the load observed.
pub struct Drive {
    /// Exchanges, per connection, in order.
    pub conns: Vec<Vec<Exchange>>,
    /// Wall time from the first request to the last response.
    pub wall: Duration,
    /// Responses whose checksum differs from the serial reference.
    pub mismatches: Vec<String>,
}

impl Drive {
    /// All exchanges.
    pub fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.conns.iter().flatten()
    }

    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    /// Requests answered 200.
    pub fn ok(&self) -> usize {
        self.exchanges().filter(|e| e.status == 200).count()
    }
}

/// Request id carried in the query string of a replayed request.
pub fn rid(conn: usize, k: usize) -> u64 {
    (k * CONNECTIONS + conn) as u64
}

/// Run the closed loop over `clients`, one thread per connection.
pub fn drive(clients: &mut [HttpClient], inputs: &Inputs, until: &Until) -> Drive {
    let ok_total = AtomicUsize::new(0);
    // `dup-pairs` connections send each request together, so every
    // request has its twin in flight; one connection's stop decision
    // holds for both.
    let lockstep = inputs.kind == Kind::DupPairs;
    let barrier = Barrier::new(clients.len());
    let go = AtomicBool::new(true);
    let t0 = Instant::now();
    let results: Vec<(Vec<Exchange>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (ok_total, barrier, go) = (&ok_total, &barrier, &go);
                s.spawn(move || {
                    let mut log = Vec::new();
                    let mut mismatches = Vec::new();
                    for k in 0.. {
                        let done = || match until {
                            Until::Time { seconds, min_ok, max_seconds } => {
                                let t = t0.elapsed().as_secs_f64();
                                let enough = ok_total.load(Ordering::Relaxed) >= *min_ok;
                                (t >= *seconds && enough) || t >= *max_seconds
                            }
                            Until::Replay(plan) => k >= plan[conn].len(),
                        };
                        let done = if lockstep {
                            if barrier.wait().is_leader() {
                                go.store(!done(), Ordering::SeqCst);
                            }
                            barrier.wait();
                            !go.load(Ordering::SeqCst)
                        } else {
                            done()
                        };
                        if done {
                            break;
                        }
                        let (idx, path) = match until {
                            Until::Time { .. } => {
                                (inputs.kind.body_index(conn, k), "/v1/submit".to_owned())
                            }
                            Until::Replay(plan) => {
                                (plan[conn][k], format!("/v1/submit?rid={}", rid(conn, k)))
                            }
                        };
                        let body = inputs.bodies[idx].as_bytes();
                        let start = Instant::now();
                        let answer = client.request("POST", &path, Some(body));
                        let end = Instant::now();
                        let (status, checksum) = match answer {
                            Ok((200, resp)) => {
                                let resp: SubmitResponse = serde_json::from_str(
                                    std::str::from_utf8(&resp).expect("response is UTF-8"),
                                )
                                .expect("200 carries a submit response");
                                if resp.checksum != inputs.expected[idx] {
                                    mismatches.push(format!(
                                        "connection {conn} request {k} (body {idx}): checksum {} \
                                         but run_serial gives {}",
                                        resp.checksum, inputs.expected[idx]
                                    ));
                                }
                                ok_total.fetch_add(1, Ordering::Relaxed);
                                (200, Some(resp.checksum))
                            }
                            Ok((status, _)) => (status, None),
                            Err(_) => (0, None),
                        };
                        log.push(Exchange { idx, status, start, end, checksum });
                    }
                    (log, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let wall = t0.elapsed();
    let mut drive = Drive { conns: Vec::new(), wall, mismatches: Vec::new() };
    for (log, mismatches) in results {
        drive.conns.push(log);
        drive.mismatches.extend(mismatches);
    }
    drive
}
