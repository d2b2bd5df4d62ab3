//! Pins the program slicer's outputs on generated workloads: for a small
//! deterministic grid (Taxi, TPC-C and YCSB; 1,000 rows; U = 25; the
//! default spec, M = 2, X = 10, I = 10 and D = 50) the kept positions and
//! solver-call counts of a single query and of a k = 4 sweep group are
//! fixed values. Any change to the dependency test, its definition order or
//! its solver search order that moves a kept set or a solver call shows up
//! here.
//!
//! The generator places dependent updates, inserts and deletes by position
//! and sizes their key ranges by a share of the rows, so every dataset of
//! the grid must give the same slice; the data only decides which tuples
//! serve as witnesses.

use mahif::{compute_program_slice, EngineConfig, Method};
use mahif_history::NormalizedWhatIf;
use mahif_slicing::program_slice_multi;
use mahif_workload::{Dataset, DatasetKind, WorkloadSpec};

const ROWS: usize = 1_000;
const UPDATES: usize = 25;
const SWEEP: usize = 4;

/// One pinned slice: `(spec, k, kept positions, solver calls)`, the same
/// for every dataset.
type Pin = (&'static str, usize, &'static [usize], usize);

const EVEN: &[usize] = &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22];

const PINS: &[Pin] = &[
    ("default", 1, &[0, 10], 23),
    ("default", SWEEP, &[0, 10], 23),
    ("M=2", 1, &[0, 10], 23),
    ("M=2", SWEEP, &[0, 10], 23),
    ("X=10", 1, &[0, 10], 23),
    ("X=10", SWEEP, &[0, 10], 23),
    ("I=10", 1, &[0, 3, 10, 13], 21),
    ("I=10", SWEEP, &[0, 3, 10, 13], 21),
    ("D=50", 1, EVEN, 13),
    ("D=50", SWEEP, EVEN, 13),
];

fn specs() -> [(&'static str, WorkloadSpec); 5] {
    let base = WorkloadSpec::default().with_updates(UPDATES);
    [
        ("default", base.clone()),
        ("M=2", base.clone().with_modifications(2)),
        ("X=10", base.clone().with_delete_pct(10)),
        ("I=10", base.clone().with_insert_pct(10)),
        ("D=50", base.with_dependent_pct(50)),
    ]
}

fn datasets() -> [(&'static str, DatasetKind); 3] {
    [
        ("taxi", DatasetKind::Taxi),
        ("tpcc", DatasetKind::TpccStock),
        ("ycsb", DatasetKind::Ycsb),
    ]
}

/// Slices every grid cell: the workload's own modification alone (k = 1,
/// through the engine's slicing entry point) and its first `SWEEP` sweep
/// variants as one group.
fn slice_grid() -> Vec<(&'static str, &'static str, usize, Vec<usize>, usize)> {
    let config = EngineConfig::default();
    let mut out = Vec::new();
    for (dataset_name, kind) in datasets() {
        let dataset = Dataset::generate(kind, ROWS, 1);
        let db = &dataset.database;
        for (spec_name, spec) in specs() {
            let workload = spec.generate(&dataset);
            let (original, modified, positions) =
                workload.modifications.normalize(&workload.history).unwrap();
            let single = NormalizedWhatIf {
                original,
                modified,
                modified_positions: positions,
            };
            let slice = compute_program_slice(&single, db, Method::ReenactPsDs, &config).unwrap();
            out.push((
                dataset_name,
                spec_name,
                1,
                slice.kept_positions,
                slice.solver_calls,
            ));

            let mut variants = Vec::new();
            let mut group_positions = Vec::new();
            for (_, mods) in workload.sweep_variants(SWEEP) {
                let (original, modified, positions) = mods.normalize(&workload.history).unwrap();
                assert_eq!(original.statements(), workload.history.statements());
                group_positions = positions;
                variants.push(modified);
            }
            let group = program_slice_multi(
                &workload.history,
                &variants,
                &group_positions,
                db,
                &config.slicing(),
            )
            .unwrap();
            out.push((
                dataset_name,
                spec_name,
                SWEEP,
                group.kept_positions,
                group.solver_calls,
            ));
        }
    }
    out
}

#[test]
fn slice_outputs_are_pinned() {
    let actual = slice_grid();
    assert_eq!(actual.len(), datasets().len() * PINS.len());
    for (got, want) in actual.iter().zip(PINS.iter().cycle()) {
        let (dataset, spec, k, kept, calls) = got;
        assert_eq!(
            (*spec, *k, kept.as_slice(), *calls),
            *want,
            "slice of {dataset} / {spec} / k={k} moved"
        );
    }
}
