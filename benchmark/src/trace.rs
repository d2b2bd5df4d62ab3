//! The traced run: replays the run's requests in-process through each
//! layer's public functions, in the order `Session::execute` and the
//! server call them, recording a span around every call.
//!
//! Two in-process sessions hold the same registered history and see the
//! same request sequence, so their plan caches stay in step with the
//! server's: session A answers each request through the production funnel
//! (`decode_batch`, `Session::execute`, `encode_response`) with plain
//! timers, session B replays it layer by layer with spans. B's deltas must
//! equal A's byte for byte. Spans stay in memory and are written out when
//! the run ends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mahif::{
    compute_program_slice, CachedPlan, EngineConfig, GroupPlan, Method, PlanKey, Response, Session,
    WhatIfAnswer,
};
use mahif_analyze::HistoryAnalysis;
use mahif_history::{DatabaseDelta, DeltaInterner, History, NormalizedWhatIf, WhatIfRef};
use mahif_serve::{
    decode_batch, decode_register_stream, encode_delta, encode_response, Json, ServeConfig,
};
use mahif_slicing::{
    apply_data_slicing, data_slicing_conditions, data_slicing_conditions_multi, group_scenarios,
    program_slice_multi, statement_summaries, ProgramSliceResult,
};
use mahif_storage::StringInterner;

use crate::server::own_rss_mb;
use crate::stats::{mean, median};
use crate::workloads::MAIN_HISTORY;
use crate::{Args, Metric, TimedRun};

/// Requests whose naive answer is timed for `history.naive_ms`.
const NAIVE_SAMPLES: usize = 2;

/// Layers inside `Session::execute`, whose self times must add up to it.
const EXECUTE_LAYERS: [&str; 7] = [
    "analyze.validate",
    "history.normalize",
    "core.plan_lookup",
    "slicing.program",
    "core.plan_build",
    "core.answer",
    "history.intern",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    /// Spans of one replayed request share this id.
    pub request: usize,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: later root spans get a fresh request id.
    pub fn next_request(&mut self) -> usize {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Each span's duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        self.self_times_from(0)
    }

    /// [`Self::self_times`] of the spans recorded from index `first` on,
    /// whose children are all recorded after them.
    fn self_times_from(&self, first: usize) -> Vec<Duration> {
        let spans = &self.spans[first..];
        let mut own: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= first) {
                own[p - first] = own[p - first].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_times();
        let us = |d: Duration| Json::Float(d.as_secs_f64() * 1e6);
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("request", Json::Int(s.request as i64)),
                ("name", Json::str(s.name)),
                ("start_us", us(s.start)),
                ("end_us", us(s.end)),
                ("self_us", us(own)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Work counts of one replayed what-if request.
#[derive(Debug, Default)]
struct ReplayCounts {
    /// `encode_delta` of every scenario's delta, in request order.
    deltas: Vec<String>,
    slices: usize,
    solver_calls: usize,
    kept_frac_sum: f64,
    input_tuples: usize,
    total_tuples: usize,
}

/// The plan of one slice-sharing unit: a group (batches) or a scenario.
struct Unit {
    members: Vec<usize>,
    positions: Vec<usize>,
    original: History,
    cached: Option<Arc<CachedPlan>>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f(i)` for `i in 0..count` on `threads` scoped workers, in index
/// order of results — the shape of the session's worker pool.
fn pool<T: Send>(count: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a replay worker panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Replays one what-if request against `session` through the layers, in
/// pipeline order. `encode` is the production answer to the same request,
/// whose encoding the `serve.encode_response` span times.
fn replay_what_if(
    t: &mut Tracer,
    session: &Session,
    body: &str,
    encode: &Response,
) -> Result<ReplayCounts, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch = t.span("serve.decode_batch", |_| decode_batch(body).map_err(err))?;
    let method = batch.method;
    let config = EngineConfig::default();
    let registered = session.history(MAIN_HISTORY).map_err(err)?;
    let versioned = registered.versions();
    let initial = registered.initial_state();
    let provisioned = registered.provisioned();
    let mut counts = ReplayCounts::default();

    let (answers, probes) = t.span("core.execute", |t| {
        let (scenarios, noops) = t.span("analyze.validate", |_| {
            let analysis = provisioned.analysis();
            let mut kept = Vec::new();
            let mut noops = Vec::new();
            for (position, s) in batch.scenarios.iter().enumerate() {
                analysis.validate(s.modifications()).map_err(err)?;
                if analysis.prove_noop(s.modifications()) {
                    noops.push(position);
                } else {
                    kept.push(s);
                }
            }
            Ok::<_, String>((kept, noops))
        })?;
        let (normalized, groups) = t.span("history.normalize", |_| {
            let normalized = scenarios
                .iter()
                .map(|s| {
                    WhatIfRef::new(registered.history(), initial, s.modifications())
                        .normalize()
                        .map_err(err)
                })
                .collect::<Result<Vec<NormalizedWhatIf>, String>>()?;
            let groups = group_scenarios(&normalized);
            Ok::<_, String>((normalized, groups))
        })?;
        let threads = cores.clamp(1, normalized.len().max(1));
        let share = normalized.len() > 1 && method.uses_program_slicing();
        let units: Vec<Unit> = t.span("core.plan_lookup", |_| {
            let units: Vec<Unit> = if share {
                groups
                    .groups
                    .iter()
                    .map(|g| Unit {
                        members: g.members.clone(),
                        positions: g.positions.clone(),
                        original: g.original.clone(),
                        cached: None,
                    })
                    .collect()
            } else {
                normalized
                    .iter()
                    .enumerate()
                    .map(|(i, n)| Unit {
                        members: vec![i],
                        positions: n.modified_positions.clone(),
                        original: n.original.clone(),
                        cached: None,
                    })
                    .collect()
            };
            units
                .into_iter()
                .map(|mut u| {
                    let key = PlanKey::new(provisioned.generation(), method, &u.positions, &config);
                    let members: Vec<&History> =
                        u.members.iter().map(|&i| &normalized[i].modified).collect();
                    u.cached =
                        provisioned
                            .cache()
                            .lookup(&key, &u.original, &u.positions, &members);
                    u
                })
                .collect()
        });
        // One span per slice computed and per plan built: cache hits skip
        // both layers, as in `Session::execute`.
        let mut plans: Vec<Arc<CachedPlan>> = Vec::with_capacity(units.len());
        let mut probes: Vec<(Vec<NormalizedWhatIf>, Arc<ProgramSliceResult>)> = Vec::new();
        for u in &units {
            if let Some(entry) = &u.cached {
                plans.push(Arc::clone(entry));
                continue;
            }
            let members: Vec<&NormalizedWhatIf> =
                u.members.iter().map(|&i| &normalized[i]).collect();
            let slice = t.span("slicing.program", |_| {
                if share {
                    let variants: Vec<&History> = members.iter().map(|m| &m.modified).collect();
                    program_slice_multi(
                        &u.original,
                        &variants,
                        &u.positions,
                        initial,
                        &config.slicing(),
                    )
                    .map_err(err)
                } else {
                    compute_program_slice(members[0], initial, method, &config).map_err(err)
                }
            })?;
            let slice = Arc::new(slice);
            counts.slices += 1;
            counts.solver_calls += slice.solver_calls;
            counts.kept_frac_sum +=
                slice.kept_positions.len() as f64 / u.original.len().max(1) as f64;
            let entry = t.span("core.plan_build", |_| {
                let plan = GroupPlan::build(&members, &slice, versioned, method, &config, None)
                    .map_err(err)?;
                let entry = Arc::new(CachedPlan::new(
                    PlanKey::new(provisioned.generation(), method, &u.positions, &config),
                    u.original.clone(),
                    &u.positions,
                    members.iter().map(|m| m.modified.clone()).collect(),
                    Arc::clone(&slice),
                    plan,
                ));
                provisioned.cache().insert(Arc::clone(&entry));
                Ok::<_, String>(entry)
            })?;
            // Inputs of the data-slicing probe below.
            probes.push((members.into_iter().cloned().collect(), slice));
            plans.push(entry);
        }
        let mut unit_of = vec![0; normalized.len()];
        for (ui, u) in units.iter().enumerate() {
            for &m in &u.members {
                unit_of[m] = ui;
            }
        }
        let answered: Vec<Result<WhatIfAnswer, String>> = t.span("core.answer", |_| {
            pool(normalized.len(), threads, |i| {
                let u = unit_of[i];
                let plan = plans[u].plan();
                if units[u].cached.is_some() {
                    plan.answer_cached(&normalized[i], versioned)
                } else {
                    plan.answer_in_group(&normalized[i], versioned)
                }
                .map_err(err)
            })
        });
        let mut answers = Vec::with_capacity(answered.len());
        for a in answered {
            let a = a?;
            counts.input_tuples += a.stats.input_tuples;
            counts.total_tuples += a.stats.total_tuples;
            answers.push(a.delta);
        }
        for &position in &noops {
            answers.insert(position, DatabaseDelta::default());
        }
        if answers.len() > 1 {
            t.span("history.intern", |_| {
                let mut interner = DeltaInterner::new();
                for delta in &mut answers {
                    interner.intern(delta);
                }
            });
        }
        Ok::<_, String>((answers, probes))
    })?;
    t.span("serve.encode_response", |_| {
        std::hint::black_box(encode_response(encode).to_string())
    });
    counts.deltas = answers
        .iter()
        .map(|d| encode_delta(d).to_string())
        .collect();

    // Probe: the data-slicing conditions of every plan built, recomputed
    // with the public functions `GroupPlan::build` calls internally (so
    // their time is also inside `core.plan_build`); not part of the request.
    if method.uses_data_slicing() {
        t.next_request();
        for (members, slice) in &probes {
            t.span("slicing.data", |_| {
                data_slicing_probe(members, slice, initial)
            })?;
        }
    }
    Ok(counts)
}

/// The data-slicing phase of `GroupPlan::build` for one plan: conditions
/// over the sliced histories, then the sliced reenactment input query per
/// relation.
fn data_slicing_probe(
    members: &[NormalizedWhatIf],
    slice: &ProgramSliceResult,
    base: &mahif_storage::Database,
) -> Result<(), String> {
    let first = &members[0];
    if first.modified_positions.is_empty() {
        return Ok(());
    }
    let kept = &slice.kept_positions;
    let original = first.original.restrict(kept);
    let restricted: Vec<usize> = first
        .modified_positions
        .iter()
        .filter_map(|p| kept.iter().position(|k| k == p))
        .collect();
    let conditions = if members.len() > 1 {
        let variants: Vec<History> = members.iter().map(|m| m.modified.restrict(kept)).collect();
        data_slicing_conditions_multi(&original, &variants, &restricted)
    } else {
        data_slicing_conditions(&original, &first.modified.restrict(kept), &restricted)
    }
    .map_err(err)?;
    let mut relations: Vec<&str> = original.statements().iter().map(|s| s.relation()).collect();
    relations.sort_unstable();
    relations.dedup();
    for relation in relations {
        let schema = &base.relation(relation).map_err(err)?.schema;
        std::hint::black_box(apply_data_slicing(
            &original,
            relation,
            schema,
            &conditions.original_for(relation),
        ));
    }
    Ok(())
}

/// Replays one registration body: decode and `Session::register` as the
/// server runs them, then the registration layers as probes.
fn replay_register(
    t: &mut Tracer,
    session: &Session,
    name: &str,
    body: &str,
    registered_mb: &mut Vec<f64>,
) -> Result<(), String> {
    t.next_request();
    t.span("register", |t| {
        let decoded = t.span("serve.decode_register", |_| {
            decode_register_stream(body.as_bytes()).map_err(err)
        })?;
        let before = own_rss_mb();
        t.span("core.register", |_| {
            session
                .register(name, decoded.initial, decoded.history)
                .map(|_| ())
                .map_err(err)
        })?;
        registered_mb.push(own_rss_mb() - before);
        Ok::<_, String>(())
    })?;
    // Probes: the layers `Session::register` runs, called one by one on a
    // second decode of the same body.
    let decoded = decode_register_stream(body.as_bytes()).map_err(err)?;
    let mut initial = decoded.initial;
    t.next_request();
    t.span("storage.intern", |_| {
        StringInterner::new().intern_database(&mut initial)
    });
    t.span("storage.version_chain", |_| {
        decoded
            .history
            .execute_versioned(&initial)
            .map(drop)
            .map_err(err)
    })?;
    t.span("analyze.build", |_| {
        drop(HistoryAnalysis::build(&initial, &decoded.history))
    });
    t.span("slicing.summaries", |_| {
        drop(statement_summaries(&decoded.history))
    });
    Ok(())
}

/// The per-layer metrics of a run: the traced replay of its requests plus
/// the counts the server reported around the timed phase.
pub fn per_layer(run: &TimedRun, args: &Args) -> Result<Vec<Metric>, String> {
    let inputs = &run.inputs;
    let a = run.oracle.session();
    let b = Session::new();
    let mut t = Tracer::new();
    let mut registered_mb = Vec::new();
    replay_register(
        &mut t,
        &b,
        MAIN_HISTORY,
        &inputs.main.body,
        &mut registered_mb,
    )?;

    let ceiling = ServeConfig::default().budget_ceiling;
    // Session A: the production funnel, timed with plain timers; returns
    // the answer and its (decode, execute, encode) wall times in ms.
    let funnel = |body: &str| -> Result<(Response, [f64; 3]), String> {
        let start = Instant::now();
        let batch = decode_batch(body).map_err(err)?;
        let decoded = start.elapsed();
        let start = Instant::now();
        let response = a
            .on(MAIN_HISTORY)
            .method(batch.method)
            .budget(batch.budget.capped_by(&ceiling))
            .parallelism(batch.parallelism)
            .run_batch(batch.scenarios)
            .map_err(err)?;
        let executed = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(encode_response(&response).to_string());
        let encoded = start.elapsed();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Ok((response, [ms(decoded), ms(executed), ms(encoded)]))
    };
    let same_deltas = |response: &Response, counts: &ReplayCounts| {
        response
            .scenarios
            .iter()
            .map(|s| encode_delta(&s.answer.delta).to_string())
            .eq(counts.deltas.iter().cloned())
    };

    let mut totals = ReplayCounts::default();
    let mut absorb = |c: ReplayCounts| {
        totals.slices += c.slices;
        totals.solver_calls += c.solver_calls;
        totals.kept_frac_sum += c.kept_frac_sum;
        totals.input_tuples += c.input_tuples;
        totals.total_tuples += c.total_tuples;
    };
    for body in &inputs.warmup.bodies {
        let (response, _) = funnel(body)?;
        t.next_request();
        let counts = replay_what_if(&mut t, &b, body, &response)?;
        if !same_deltas(&response, &counts) {
            return Err("a replayed warm-up delta differs from Session::execute".to_string());
        }
        absorb(counts);
    }

    // The timed requests in the order the server answered them, for up to
    // `--seconds` of replay.
    let budget = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut execute_ms = Vec::new();
    let mut layer_ms = 0.0;
    let mut overhead_ms = Vec::new();
    let mut delta_tuples = Vec::new();
    for sample in &run.samples {
        if Instant::now() >= budget && !execute_ms.is_empty() {
            break;
        }
        let body = &inputs.timed.bodies[sample.id];
        let (response, [decode, execute, encode]) = funnel(body)?;
        let request = t.next_request();
        let first = t.spans.len();
        let counts = replay_what_if(&mut t, &b, body, &response)?;
        if !same_deltas(&response, &counts) {
            return Err(format!(
                "replayed deltas of timed request {} differ from Session::execute",
                sample.id
            ));
        }
        absorb(counts);
        let own = t.self_times_from(first);
        for (span, own) in t.spans[first..].iter().zip(&own) {
            if span.request != request {
                continue;
            }
            if span.parent.is_none() {
                traced_ms += (span.end - span.start).as_secs_f64() * 1e3;
            }
            if EXECUTE_LAYERS.contains(&span.name) {
                layer_ms += own.as_secs_f64() * 1e3;
            }
        }
        untraced_ms += decode + execute + encode;
        execute_ms.push(execute);
        overhead_ms.push(sample.latency_ms - execute);
        delta_tuples.push(
            response
                .scenarios
                .iter()
                .map(|s| s.answer.delta.len() as f64)
                .sum::<f64>(),
        );
    }

    let mut naive_ms = Vec::new();
    for sample in run.samples.iter().take(NAIVE_SAMPLES) {
        let batch = decode_batch(&inputs.timed.bodies[sample.id]).map_err(err)?;
        let start = Instant::now();
        a.on(MAIN_HISTORY)
            .method(Method::Naive)
            .parallelism(batch.parallelism)
            .run_batch(batch.scenarios)
            .map_err(err)?;
        naive_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let plan_cache_mb = a
        .history(MAIN_HISTORY)
        .map_err(err)?
        .provisioned()
        .cache()
        .approx_bytes() as f64
        / (1024.0 * 1024.0);
    for (j, writer) in inputs.writer_bodies.iter().enumerate() {
        let name = format!("replay-w{j}");
        replay_register(&mut t, &b, &name, &writer.body, &mut registered_mb)?;
        b.unregister(&name).map_err(err)?;
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    t.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        t.spans.len(),
        path.display()
    );

    // Per-layer self time: mean per call over every call the replay made.
    let own = t.self_times();
    let mut layers: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (span, own) in t.spans.iter().zip(own) {
        let ms = own.as_secs_f64() * 1e3;
        match layers.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, v)) => v.push(ms),
            None => layers.push((span.name, vec![ms])),
        }
    }
    println!("trace: layer self times (ms per call, over every replayed call)");
    for (name, v) in &layers {
        println!(
            "  {name:<24} calls {:>5}  mean {:>10.4}  total {:>10.3}",
            v.len(),
            mean(v),
            v.iter().sum::<f64>()
        );
    }
    let calls = |span: &str| -> &[f64] {
        layers
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(&[], |(_, v)| v.as_slice())
    };
    let hits = run.stats_delta("plan_cache_hits");
    let lookups = hits + run.stats_delta("plan_cache_misses");
    let requests = run.samples.len().max(1) as f64;
    let replayed = execute_ms.len();
    let sum_execute: f64 = execute_ms.iter().sum();
    let (qs, qc) = (
        run.queue_after.0 - run.queue_before.0,
        run.queue_after.1 - run.queue_before.1,
    );

    let per_call = |name: &'static str, span: &str| {
        let v = calls(span);
        Metric::new(name, mean(v), "ms", format!("{} calls", v.len()))
    };
    let timed_basis = format!("over {} timed requests on the server", run.samples.len());
    Ok(vec![
        per_call("slicing.program_ms", "slicing.program"),
        Metric::new(
            "slicing.solver_calls",
            totals.solver_calls as f64 / totals.slices.max(1) as f64,
            "count",
            format!("per slice computed, {} slices", totals.slices),
        ),
        Metric::new(
            "slicing.kept_frac",
            totals.kept_frac_sum / totals.slices.max(1) as f64,
            "frac",
            format!("statements kept per slice, {} slices", totals.slices),
        ),
        per_call("slicing.data_ms", "slicing.data"),
        Metric::new(
            "slicing.tuples_kept_frac",
            totals.input_tuples as f64 / totals.total_tuples.max(1) as f64,
            "frac",
            format!(
                "{} of {} base tuples read after data slicing",
                totals.input_tuples, totals.total_tuples
            ),
        ),
        per_call("core.plan_build_ms", "core.plan_build"),
        per_call("core.answer_ms", "core.answer"),
        Metric::new(
            "reenact.columnar_batches",
            run.stats_delta("columnar_batches") / requests,
            "count",
            format!("per request, {timed_basis}"),
        ),
        Metric::new(
            "reenact.vectorized_predicates",
            run.stats_delta("vectorized_predicates") / requests,
            "count",
            format!("per request, {timed_basis}"),
        ),
        Metric::new(
            "reenact.row_fallbacks",
            run.stats_delta("row_fallbacks") / requests,
            "count",
            format!("per request, {timed_basis}"),
        ),
        Metric::new(
            "history.delta_tuples",
            mean(&delta_tuples),
            "count",
            format!("per request, {replayed} replayed requests"),
        ),
        Metric::new(
            "core.plan_cache_hit_frac",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "frac",
            format!("{hits} hits of {lookups} lookups, {timed_basis}"),
        ),
        Metric::new(
            "core.plan_cache_mb",
            plan_cache_mb,
            "MiB",
            "PlanCache::approx_bytes after the replay",
        ),
        per_call("serve.decode_batch_ms", "serve.decode_batch"),
        per_call("serve.encode_response_ms", "serve.encode_response"),
        Metric::new(
            "serve.response_bytes",
            run.samples.iter().map(|s| s.bytes as f64).sum::<f64>() / requests,
            "bytes",
            format!("per reply, {timed_basis}"),
        ),
        Metric::new(
            "serve.overhead_ms",
            median(&overhead_ms),
            "ms",
            format!("median client latency minus Session::execute, {replayed} requests"),
        ),
        Metric::new(
            "serve.queue_wait_mean_ms",
            if qc > 0.0 { qs / qc * 1e3 } else { 0.0 },
            "ms",
            format!("/metrics mahif_queue_seconds sum/count, {qc} waits"),
        ),
        per_call("analyze.validate_ms", "analyze.validate"),
        per_call("history.normalize_ms", "history.normalize"),
        per_call("serve.decode_register_ms", "serve.decode_register"),
        per_call("storage.intern_ms", "storage.intern"),
        per_call("storage.version_chain_ms", "storage.version_chain"),
        per_call("analyze.build_ms", "analyze.build"),
        per_call("slicing.summaries_ms", "slicing.summaries"),
        per_call("core.register_ms", "core.register"),
        Metric::new(
            "core.registered_mb",
            mean(&registered_mb),
            "MiB",
            format!(
                "RSS growth across Session::register, {} registrations",
                registered_mb.len()
            ),
        ),
        Metric::new(
            "core.execute_ms",
            mean(&execute_ms),
            "ms",
            format!("in-process Session::execute, {replayed} requests"),
        ),
        Metric::new(
            "history.naive_ms",
            mean(&naive_ms),
            "ms",
            format!("Method::Naive per request, {} requests", naive_ms.len()),
        ),
        Metric::new(
            "trace.reconcile_err_frac",
            (layer_ms - sum_execute).abs() / sum_execute.max(f64::MIN_POSITIVE),
            "frac",
            format!("|{layer_ms:.3} ms of layer self time - {sum_execute:.3} ms of execute|"),
        ),
        Metric::new(
            "trace.overhead_frac",
            traced_ms / untraced_ms.max(f64::MIN_POSITIVE) - 1.0,
            "frac",
            format!("traced {traced_ms:.3} ms against untraced {untraced_ms:.3} ms"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("parent", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("child", |_| std::thread::sleep(Duration::from_millis(3)));
        });
        let own = t.self_times();
        let total = t.spans[0].end - t.spans[0].start;
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0] + own[1], total);
        assert!(own[1] >= Duration::from_millis(3));
    }
}
