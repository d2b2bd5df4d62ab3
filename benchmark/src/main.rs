//! `whatif-benchmark`: the repository's benchmark of the what-if server.
//!
//! Starts a `mahif-serve` server in its own process on loopback, registers
//! the workload's history over the wire, drives one workload with
//! closed-loop clients for `--seconds`, checks every timed answer against
//! the `Method::Naive` oracle and prints the end-to-end metrics. With
//! `--trace 1` it then replays the same requests in-process through each
//! layer's public functions and prints the per-layer metrics instead.
//! The last line of standard output is the result as one JSON object.
//! See `README.md` beside this package.

#![forbid(unsafe_code)]

mod drive;
mod oracle;
mod server;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use mahif_serve::Json;
use mahif_workload::serve_load::HttpClient;

use crate::drive::{
    churn_writer, registered_as_sent, what_if_clients, Phase, Pick, Sample, WriterReport,
    MIN_REGISTRATIONS,
};
use crate::oracle::{matches, Oracle};
use crate::server::{serve_child, ServerProcess, SERVE_ARG};
use crate::stats::{median, percentile, Percentile};
use crate::workloads::{derive, Inputs, Workload, BATCH_PATH, MAIN_HISTORY};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Most client connections: one per core, and two at most.
const MAX_CLIENTS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: whatif-benchmark --workload explore|revisit|churn [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Explore,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SERVE_ARG) {
        if let Err(e) = serve_child() {
            eprintln!("server process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value rests on, for the human-readable line.
    pub basis: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            basis: basis.into(),
        }
    }

    fn from_percentile(name: &'static str, p: Percentile, basis: &str) -> Metric {
        Metric::new(
            name,
            p.value,
            "ms",
            format!("{basis}, n={}, {} above", p.samples, p.above),
        )
    }
}

/// Everything the timed phase of one run produced.
pub struct TimedRun {
    pub inputs: Inputs,
    pub oracle: Oracle,
    pub samples: Vec<Sample>,
    pub writer: WriterReport,
    pub elapsed: Duration,
    pub setup_s: Vec<f64>,
    pub setup_register_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// `/stats` and `/metrics` scraped around the timed phase.
    pub stats_before: Json,
    pub stats_after: Json,
    pub queue_before: (f64, f64),
    pub queue_after: (f64, f64),
}

impl TimedRun {
    /// How much a `/stats` counter grew over the timed phase.
    pub fn stats_delta(&self, key: &str) -> f64 {
        let stat = |json: &Json| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        stat(&self.stats_after) - stat(&self.stats_before)
    }
}

fn run(args: &Args) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "benchmark: workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let timed = timed_run(args, cores.min(MAX_CLIENTS))?;
    let (correct, attempted, failed) = verdict(&timed);
    println!(
        "set-ups: {:?} s, registrations {:?} ms",
        timed.setup_s, timed.setup_register_ms
    );
    let hits = timed.stats_delta("plan_cache_hits");
    println!(
        "plan cache over the timed phase: {hits} hits of {} lookups, {} evictions",
        hits + timed.stats_delta("plan_cache_misses"),
        timed.stats_delta("plan_cache_evictions")
    );
    let metrics = if args.trace {
        trace::per_layer(&timed, args)?
    } else {
        end_to_end(&timed)?
    };
    for m in &metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.basis);
    }
    println!(
        "failed_frac = {} ({failed} of {attempted} attempts failed, were refused or answered wrong)",
        failed as f64 / attempted.max(1) as f64
    );
    if correct {
        println!(
            "benchmark ok: workload={} seed={} cores={cores}: all {attempted} timed operations \
             succeeded and every answer equals the Method::Naive answer byte for byte",
            args.workload.name(),
            args.seed
        );
    }
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", metrics),
        ])
    );
    Ok(())
}

/// Generates the inputs, sets up `SETUP_REPEATS` times, drives the timed
/// phase on the last server and checks every answer.
fn timed_run(args: &Args, clients: usize) -> Result<TimedRun, String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut oracle = Oracle::new();
    oracle.register(MAIN_HISTORY, &inputs.main.body)?;
    // Pool answers are known before the run (outside set-up and timing);
    // novel `explore` answers are computed after it.
    let expected: Option<Vec<String>> = match args.workload {
        Workload::Explore => None,
        Workload::Revisit | Workload::Churn => Some(
            inputs
                .timed
                .bodies
                .iter()
                .map(|b| oracle.expected(MAIN_HISTORY, b).map(str::to_string))
                .collect::<Result<_, _>>()?,
        ),
    };

    let mut setup_s = Vec::new();
    let mut setup_register_ms = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            ServerProcess::stop(previous)?;
        }
        let start = Instant::now();
        let process = ServerProcess::start()?;
        let mut client = HttpClient::new(process.addr());
        let register_start = Instant::now();
        let reply = client
            .request(
                "POST",
                &format!("/histories/{MAIN_HISTORY}"),
                Some(&inputs.main.body),
                false,
            )
            .map_err(|e| format!("registration: {e}"))?;
        setup_register_ms.push(register_start.elapsed().as_secs_f64() * 1e3);
        if reply.status != 201 || !registered_as_sent(&reply.body, &inputs.main) {
            return Err(format!(
                "registration answered {}: {}",
                reply.status, reply.body
            ));
        }
        for body in &inputs.warmup.bodies {
            let reply = client
                .request("POST", BATCH_PATH, Some(body), false)
                .map_err(|e| format!("warm-up: {e}"))?;
            if reply.status != 200 {
                return Err(format!("warm-up answered {}: {}", reply.status, reply.body));
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(process);
    }
    let server = server.expect("at least one set-up ran");
    let addr = server.addr().to_string();

    let stats_before = scrape_stats(&addr)?;
    let queue_before = scrape_queue(&addr)?;
    let start = Instant::now();
    let phase = Phase::new(
        args.seconds,
        if args.workload == Workload::Churn {
            MIN_REGISTRATIONS
        } else {
            0
        },
    );
    let pool = Pick::Pool {
        seed: derive(args.seed, 50),
    };
    let (samples, writer) = match args.workload {
        Workload::Explore => (
            what_if_clients(&addr, &inputs.timed, clients, Pick::Novel, None, &phase),
            WriterReport::default(),
        ),
        Workload::Revisit => (
            what_if_clients(
                &addr,
                &inputs.timed,
                clients,
                pool,
                expected.as_deref(),
                &phase,
            ),
            WriterReport::default(),
        ),
        Workload::Churn => std::thread::scope(|scope| {
            let writer = scope.spawn(|| churn_writer(&addr, &inputs.writer_bodies, &phase));
            let reads = what_if_clients(&addr, &inputs.timed, 1, pool, expected.as_deref(), &phase);
            (reads, writer.join().expect("the writer thread panicked"))
        }),
    };
    let elapsed = start.elapsed();
    let stats_after = scrape_stats(&addr)?;
    let queue_after = scrape_queue(&addr)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;

    // Check the replies kept for after the run against the oracle.
    let mut samples = samples;
    let deferred: Vec<&str> = samples
        .iter()
        .filter(|s| s.reply.is_some())
        .map(|s| inputs.timed.bodies[s.id].as_str())
        .collect();
    oracle.precompute(MAIN_HISTORY, &deferred)?;
    for sample in &mut samples {
        if let Some(reply) = sample.reply.take() {
            let expected = oracle.expected(MAIN_HISTORY, &inputs.timed.bodies[sample.id])?;
            sample.verified = Some(matches(&reply, expected));
        }
    }
    Ok(TimedRun {
        inputs,
        oracle,
        samples,
        writer,
        elapsed,
        setup_s,
        setup_register_ms,
        peak_rss_mb,
        stats_before,
        stats_after,
        queue_before,
        queue_after,
    })
}

/// `(correct, attempted, failed)` over every timed operation.
fn verdict(run: &TimedRun) -> (bool, usize, usize) {
    let attempted = run.samples.len() + run.writer.attempted;
    let failed = run.samples.iter().filter(|s| !s.ok()).count() + run.writer.failed;
    (failed == 0 && attempted > 0, attempted, failed)
}

fn end_to_end(run: &TimedRun) -> Result<Vec<Metric>, String> {
    let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency_ms).collect();
    let basis = "what-if requests over TCP";
    let p50 = percentile(&latencies, 0.5).map_err(|e| format!("latency_p50_ms: {e}"))?;
    let p90 = percentile(&latencies, 0.9).map_err(|e| format!("latency_p90_ms: {e}"))?;
    let scenarios = run.samples.iter().filter(|s| s.ok()).count() * run.inputs.timed.k;
    let secs = run.elapsed.as_secs_f64();
    let register = if run.writer.register_ms.is_empty() {
        Metric::new(
            "register_p50_ms",
            median(&run.setup_register_ms),
            "ms",
            format!(
                "median of the set-up registrations, n={}",
                run.setup_register_ms.len()
            ),
        )
    } else {
        let p = percentile(&run.writer.register_ms, 0.5)
            .map_err(|e| format!("register_p50_ms: {e}"))?;
        Metric::from_percentile("register_p50_ms", p, "timed registrations")
    };
    Ok(vec![
        Metric::from_percentile("latency_p50_ms", p50, basis),
        Metric::from_percentile("latency_p90_ms", p90, basis),
        Metric::new(
            "scenarios_per_s",
            scenarios as f64 / secs,
            "1/s",
            format!("{scenarios} verified scenarios in {secs:.3} s"),
        ),
        register,
        Metric::new(
            "setup_s",
            median(&run.setup_s),
            "s",
            format!(
                "median of {} set-ups: server start, wire registration, warm-up",
                run.setup_s.len()
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            run.peak_rss_mb,
            "MiB",
            "server VmHWM at the end of the run",
        ),
    ])
}

fn scrape_stats(addr: &str) -> Result<Json, String> {
    let reply = mahif_workload::http_get(addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
    Json::parse(&reply.body).map_err(|e| format!("GET /stats: {e}"))
}

/// `(sum, count)` of the server's admission queue-wait histogram.
fn scrape_queue(addr: &str) -> Result<(f64, f64), String> {
    let reply =
        mahif_workload::http_get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    let value = |name: &str| {
        reply
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("GET /metrics: no {name}"))
    };
    Ok((
        value("mahif_queue_seconds_sum ")?,
        value("mahif_queue_seconds_count ")?,
    ))
}
