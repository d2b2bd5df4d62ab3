//! Closed-loop clients: each sends its next request only after the
//! previous reply has been read, over one keep-alive connection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mahif_serve::Json;
use mahif_workload::serve_load::HttpClient;

use crate::oracle::matches;
use crate::workloads::{derive, HistoryInput, RequestSet, BATCH_PATH, CHURN_LIVE};

/// Fewest timed what-if replies per run: the p90 needs ten above it.
pub const MIN_READS: usize = 100;
/// Fewest timed registrations on `churn`: their p50 needs ten above it.
pub const MIN_REGISTRATIONS: usize = 20;

/// When the timed phase ends: after `seconds`, or later while a sample
/// minimum is unmet, but never after twice `seconds` (at least a minute),
/// so a slower program still yields percentiles instead of a refused run.
pub struct Phase {
    until: Instant,
    cap: Instant,
    min_registrations: usize,
    reads: AtomicUsize,
    registrations: AtomicUsize,
}

impl Phase {
    pub fn new(seconds: u64, min_registrations: usize) -> Phase {
        let start = Instant::now();
        Phase {
            until: start + Duration::from_secs(seconds),
            cap: start + Duration::from_secs((2 * seconds).max(60)),
            min_registrations,
            reads: AtomicUsize::new(0),
            registrations: AtomicUsize::new(0),
        }
    }

    fn running(&self) -> bool {
        let now = Instant::now();
        now < self.until
            || (now < self.cap
                && (self.reads.load(Ordering::Relaxed) < MIN_READS
                    || self.registrations.load(Ordering::Relaxed) < self.min_registrations))
    }
}

/// How a what-if client picks its next request.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The next unsent request of the set, shared across clients: no
    /// request is ever sent twice in a run.
    Novel,
    /// A pseudo-random request of the fixed pool, per client stream.
    Pool { seed: u64 },
}

/// One timed what-if request.
#[derive(Debug)]
pub struct Sample {
    /// Index of the request in its set.
    pub id: usize,
    pub latency_ms: f64,
    pub status: u16,
    pub bytes: usize,
    /// `Some(verdict)` once checked against the oracle.
    pub verified: Option<bool>,
    /// The reply, kept when its expected answer was not known in advance.
    pub reply: Option<String>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == 200 && self.verified == Some(true)
    }
}

/// Runs `clients` closed-loop what-if clients while `phase` runs. `expected`
/// maps a request id to its oracle prefix when known before the run;
/// otherwise the replies are kept for checking afterwards.
pub fn what_if_clients(
    addr: &str,
    set: &RequestSet,
    clients: usize,
    pick: Pick,
    expected: Option<&[String]>,
    phase: &Phase,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut samples = Vec::new();
                    let mut rng = match pick {
                        Pick::Pool { seed } => derive(seed, c as u64),
                        Pick::Novel => 0,
                    };
                    while phase.running() {
                        let id = match pick {
                            Pick::Novel => next.fetch_add(1, Ordering::Relaxed),
                            Pick::Pool { .. } => {
                                rng = derive(rng, 1);
                                (rng % set.bodies.len() as u64) as usize
                            }
                        };
                        let Some(body) = set.bodies.get(id) else {
                            break;
                        };
                        let start = Instant::now();
                        let reply = client.request("POST", BATCH_PATH, Some(body), false);
                        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                        phase.reads.fetch_add(1, Ordering::Relaxed);
                        samples.push(match reply {
                            Err(_) => {
                                client = HttpClient::new(addr);
                                Sample {
                                    id,
                                    latency_ms,
                                    status: 0,
                                    bytes: 0,
                                    verified: Some(false),
                                    reply: None,
                                }
                            }
                            Ok(reply) => {
                                let verified = expected.map(|e| matches(&reply.body, &e[id]));
                                Sample {
                                    id,
                                    latency_ms,
                                    status: reply.status,
                                    bytes: reply.body.len(),
                                    verified,
                                    reply: verified.is_none().then_some(reply.body),
                                }
                            }
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// What the `churn` writer did.
#[derive(Debug, Default)]
pub struct WriterReport {
    pub register_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
}

/// The `churn` writer: registers the bodies in rotation under fresh names,
/// deleting the oldest first so at most [`CHURN_LIVE`] are live.
pub fn churn_writer(addr: &str, bodies: &[HistoryInput], phase: &Phase) -> WriterReport {
    let mut client = HttpClient::new(addr);
    let mut report = WriterReport::default();
    let mut live: VecDeque<String> = VecDeque::new();
    let mut n = 0usize;
    while phase.running() {
        if live.len() >= CHURN_LIVE {
            let oldest = live.pop_front().expect("live is non-empty");
            report.attempted += 1;
            match client.request("DELETE", &format!("/histories/{oldest}"), None, false) {
                Ok(reply) if reply.status == 200 => {}
                _ => {
                    report.failed += 1;
                    client = HttpClient::new(addr);
                }
            }
            continue;
        }
        let input = &bodies[n % bodies.len()];
        let name = format!("w{n}");
        n += 1;
        report.attempted += 1;
        let start = Instant::now();
        let reply = client.request(
            "POST",
            &format!("/histories/{name}"),
            Some(&input.body),
            false,
        );
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(reply) if reply.status == 201 && registered_as_sent(&reply.body, input) => {
                report.register_ms.push(latency_ms);
                phase.registrations.fetch_add(1, Ordering::Relaxed);
                live.push_back(name);
            }
            _ => {
                report.failed += 1;
                client = HttpClient::new(addr);
            }
        }
    }
    report
}

/// Checks a registration reply against what was sent.
pub fn registered_as_sent(reply: &str, input: &HistoryInput) -> bool {
    let Ok(doc) = Json::parse(reply) else {
        return false;
    };
    let field = |k: &str| doc.get(k).and_then(Json::as_u64);
    field("statements") == Some(input.updates as u64)
        && field("initial_tuples") == Some(input.rows as u64)
        && field("versions") == Some(input.updates as u64 + 1)
}
