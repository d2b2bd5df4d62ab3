//! The benchmark's inputs: datasets, histories, registration bodies and
//! what-if request bodies, all derived from the workload seed. The server
//! only ever sees the generated bodies.

use std::sync::Arc;

use mahif_expr::{ArithOp, DataType, Expr, Value};
use mahif_history::{Modification, Statement};
use mahif_serve::Json;
use mahif_workload::{Dataset, DatasetKind, GeneratedWorkload, WorkloadSpec};

/// Every timed request asks the paper's default method.
pub const METHOD: &str = "R+PS+DS";

/// `revisit`: batches in the fixed pool, and scenarios per batch.
pub const REVISIT_POOL: usize = 4;
pub const REVISIT_K: usize = 8;
/// `churn`: most writer histories registered at once, distinct writer
/// bodies rotated through, and the reader's query pool.
pub const CHURN_LIVE: usize = 4;
pub const CHURN_BODIES: usize = 4;
pub const CHURN_READS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Novel single hypotheticals: every request misses the plan cache.
    Explore,
    /// A dashboard re-asking a fixed pool of k=8 sweeps: every request hits.
    Revisit,
    /// Registrations and deletions beside cached k=1 reads.
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "revisit" => Some(Workload::Revisit),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Revisit => "revisit",
            Workload::Churn => "churn",
        }
    }
}

/// A sub-seed per input stream (splitmix64), so the dataset, the history
/// and the request constants of one run are independent of each other.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated Taxi history (the paper's default spec: M=1, D=10%,
/// T=10%) and its `POST /histories/{name}` body.
pub struct HistoryInput {
    pub rows: usize,
    pub updates: usize,
    workload: GeneratedWorkload,
    pub body: String,
}

impl HistoryInput {
    pub fn generate(rows: usize, updates: usize, seed: u64) -> HistoryInput {
        let dataset = Dataset::generate(DatasetKind::Taxi, rows, derive(seed, 1));
        let workload = WorkloadSpec::default()
            .with_updates(updates)
            .with_seed(derive(seed, 2))
            .generate(&dataset);
        let body = register_body(&dataset, &workload);
        HistoryInput {
            rows,
            updates,
            workload,
            body,
        }
    }

    /// The what-if script asking the generated modification with `amount`
    /// added to its first assignment — the shape of
    /// `GeneratedWorkload::sweep_variants`, with the constant chosen by
    /// the caller so requests can be made novel or repeated at will.
    pub fn whatif(&self, amount: i64) -> String {
        self.workload
            .modifications
            .modifications()
            .iter()
            .map(|m| {
                let Modification::Replace { position, .. } = m else {
                    panic!("the default workload spec only replaces statements");
                };
                let Statement::Update {
                    relation,
                    set,
                    cond,
                } = &self.workload.history.statements()[*position]
                else {
                    panic!("the default workload spec modifies an update");
                };
                let (first, rest) = set
                    .assignments
                    .split_first()
                    .expect("a generated update assigns at least one attribute");
                let (attr, expr) = first;
                let shifted = Expr::Arith {
                    op: ArithOp::Add,
                    left: Arc::new(expr.clone()),
                    right: Arc::new(Expr::Const(Value::Int(amount))),
                };
                let mut assignments = vec![(attr.clone(), shifted)];
                assignments.extend(rest.iter().cloned());
                let statement = Statement::update(
                    relation.clone(),
                    mahif_history::SetClause::new(assignments),
                    cond.clone(),
                );
                format!("REPLACE STATEMENT {} WITH {statement}", position + 1)
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// A `POST /histories/{name}/batch` body asking one scenario per amount.
    pub fn batch_body(&self, amounts: &[i64]) -> String {
        let scenarios = amounts
            .iter()
            .map(|&amount| {
                Json::obj([
                    ("name", Json::str(format!("adjust+{amount}"))),
                    ("whatif", Json::str(self.whatif(amount))),
                ])
            })
            .collect();
        Json::obj([
            ("method", Json::str(METHOD)),
            ("scenarios", Json::Arr(scenarios)),
        ])
        .to_string()
    }
}

/// Renders a dataset and its history as a registration body.
fn register_body(dataset: &Dataset, workload: &GeneratedWorkload) -> String {
    let relations = dataset
        .database
        .iter()
        .map(|(name, relation)| {
            let attributes = relation
                .schema
                .attributes
                .iter()
                .map(|a| {
                    let dtype = match a.dtype {
                        DataType::Int => "int",
                        DataType::Str => "str",
                        DataType::Bool => "bool",
                    };
                    Json::obj([
                        ("name", Json::str(a.name.clone())),
                        ("type", Json::str(dtype)),
                    ])
                })
                .collect();
            let tuples = relation
                .iter()
                .map(|t| {
                    Json::Arr(
                        t.values
                            .iter()
                            .map(|v| match v {
                                Value::Int(i) => Json::Int(*i),
                                Value::Str(s) => Json::str(s.as_ref()),
                                Value::Bool(b) => Json::Bool(*b),
                                Value::Null => Json::Null,
                            })
                            .collect(),
                    )
                })
                .collect();
            Json::obj([
                ("name", Json::str(name.clone())),
                ("attributes", Json::Arr(attributes)),
                ("tuples", Json::Arr(tuples)),
            ])
        })
        .collect();
    let history = workload
        .history
        .statements()
        .iter()
        .map(|s| Json::str(s.to_string()))
        .collect();
    Json::obj([
        ("relations", Json::Arr(relations)),
        ("history", Json::Arr(history)),
    ])
    .to_string()
}

/// The what-if requests one phase draws from, all posted to [`BATCH_PATH`].
pub struct RequestSet {
    /// Request bodies, by request id.
    pub bodies: Vec<String>,
    /// Scenarios per request.
    pub k: usize,
}

/// Everything one run of one workload sends, generated before any timing.
pub struct Inputs {
    /// The history the what-if requests are asked against.
    pub main: HistoryInput,
    /// Requests sent during set-up to warm the server (not timed).
    pub warmup: RequestSet,
    /// Requests the timed phase draws from. For `explore` this is a pool
    /// of novel requests larger than any run can send; `revisit` and
    /// `churn` re-ask a small fixed pool.
    pub timed: RequestSet,
    /// `churn` only: the writer's registration bodies, rotated.
    pub writer_bodies: Vec<HistoryInput>,
}

/// The name the what-if requests' history is registered under, and the
/// route they are posted to.
pub const MAIN_HISTORY: &str = "main";
pub const BATCH_PATH: &str = "/histories/main/batch";

/// Novel requests generated for `explore`: more than 2 clients can send in
/// a 60 s run at the measured ~170 ms per request.
const EXPLORE_POOL: usize = 2_000;

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let set = |bodies: Vec<String>, k: usize| RequestSet { bodies, k };
        match workload {
            Workload::Explore => {
                let main = HistoryInput::generate(5_000, 50, derive(seed, 10));
                // Warm-up asks amounts 1 and 2; timed amounts start at
                // 1000 or above, so no timed request repeats any earlier
                // one and every lookup misses because of the input.
                let base = 1_000 + (derive(seed, 11) % 9_000) as i64;
                let warmup = set(vec![main.batch_body(&[1]), main.batch_body(&[2])], 1);
                let timed = set(
                    (0..EXPLORE_POOL as i64)
                        .map(|i| main.batch_body(&[base + i]))
                        .collect(),
                    1,
                );
                Inputs {
                    main,
                    warmup,
                    timed,
                    writer_bodies: Vec::new(),
                }
            }
            Workload::Revisit => {
                let main = HistoryInput::generate(20_000, 50, derive(seed, 20));
                let pool: Vec<String> = (0..REVISIT_POOL)
                    .map(|b| {
                        let amounts: Vec<i64> = (0..REVISIT_K)
                            .map(|v| (5 + b * REVISIT_K + v) as i64)
                            .collect();
                        main.batch_body(&amounts)
                    })
                    .collect();
                Inputs {
                    warmup: set(pool.clone(), REVISIT_K),
                    timed: set(pool, REVISIT_K),
                    main,
                    writer_bodies: Vec::new(),
                }
            }
            Workload::Churn => {
                let main = HistoryInput::generate(5_000, 50, derive(seed, 30));
                let pool: Vec<String> = (0..CHURN_READS as i64)
                    .map(|i| main.batch_body(&[5 + i]))
                    .collect();
                let writer_bodies = (0..CHURN_BODIES as u64)
                    .map(|j| HistoryInput::generate(5_000, 100, derive(seed, 31 + j)))
                    .collect();
                Inputs {
                    warmup: set(pool.clone(), 1),
                    timed: set(pool, 1),
                    main,
                    writer_bodies,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = HistoryInput::generate(300, 12, 7);
        let b = HistoryInput::generate(300, 12, 7);
        let c = HistoryInput::generate(300, 12, 8);
        assert_eq!(a.body, b.body);
        assert_eq!(a.batch_body(&[5, 6]), b.batch_body(&[5, 6]));
        assert_ne!(a.body, c.body, "another seed gives another history");
    }

    #[test]
    fn every_workload_generates_identically_twice() {
        for workload in [Workload::Explore, Workload::Revisit, Workload::Churn] {
            let a = Inputs::generate(workload, 3);
            let b = Inputs::generate(workload, 3);
            assert_eq!(a.main.body, b.main.body, "{workload:?}");
            assert_eq!(a.timed.bodies, b.timed.bodies, "{workload:?}");
            assert_eq!(a.warmup.bodies, b.warmup.bodies, "{workload:?}");
            let bodies = |i: &Inputs| -> Vec<String> {
                i.writer_bodies.iter().map(|w| w.body.clone()).collect()
            };
            assert_eq!(bodies(&a), bodies(&b), "{workload:?}");
        }
    }

    #[test]
    fn explore_scenarios_are_pairwise_distinct_and_never_warmed() {
        let inputs = Inputs::generate(Workload::Explore, 11);
        let mut seen = BTreeSet::new();
        for body in inputs.warmup.bodies.iter().chain(&inputs.timed.bodies) {
            let decoded = mahif_serve::decode_batch(body).expect("generated bodies decode");
            for scenario in decoded.scenarios {
                let script = format!("{:?}", scenario.modifications());
                assert!(seen.insert(script), "a scenario repeats within the run");
            }
        }
        assert_eq!(
            seen.len(),
            inputs.warmup.bodies.len() + inputs.timed.bodies.len()
        );
    }

    /// Answers `body` in-process the way the server does.
    fn ask(session: &mahif::Session, body: &str) {
        let batch = mahif_serve::decode_batch(body).unwrap();
        session
            .on(MAIN_HISTORY)
            .method(batch.method)
            .parallelism(batch.parallelism)
            .run_batch(batch.scenarios)
            .unwrap();
    }

    fn registered(input: &HistoryInput) -> mahif::Session {
        let session = mahif::Session::new();
        let decoded = mahif_serve::decode_register(&input.body).unwrap();
        session
            .register(MAIN_HISTORY, decoded.initial, decoded.history)
            .unwrap();
        session
    }

    #[test]
    fn revisit_pool_fits_the_plan_cache_and_hits_after_warm_up() {
        let inputs = Inputs::generate(Workload::Revisit, 2);
        let session = registered(&inputs.main);
        for body in &inputs.warmup.bodies {
            ask(&session, body);
        }
        let warm = session.stats();
        for _ in 0..2 {
            for body in &inputs.timed.bodies {
                ask(&session, body);
            }
        }
        let after = session.stats();
        assert_eq!(
            after.plan_cache_evictions, 0,
            "the warmed pool must stay cached"
        );
        let hits = (after.plan_cache_hits - warm.plan_cache_hits) as f64;
        let misses = (after.plan_cache_misses - warm.plan_cache_misses) as f64;
        assert!(
            hits / (hits + misses) >= 0.99,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn explore_requests_miss_the_plan_cache() {
        let inputs = Inputs::generate(Workload::Explore, 2);
        let session = registered(&inputs.main);
        for body in inputs.warmup.bodies.iter().chain(&inputs.timed.bodies[..3]) {
            ask(&session, body);
        }
        let stats = session.stats();
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_misses, 5);
    }

    #[test]
    fn revisit_and_churn_pools_are_fixed_and_warmed() {
        let revisit = Inputs::generate(Workload::Revisit, 5);
        assert_eq!(revisit.timed.bodies.len(), REVISIT_POOL);
        assert_eq!(revisit.timed.bodies, revisit.warmup.bodies);
        let churn = Inputs::generate(Workload::Churn, 5);
        assert_eq!(churn.timed.bodies.len(), CHURN_READS);
        assert_eq!(churn.timed.bodies, churn.warmup.bodies);
        assert_eq!(churn.writer_bodies.len(), CHURN_BODIES);
    }
}
