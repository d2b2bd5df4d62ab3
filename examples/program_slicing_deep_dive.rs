//! A look inside the program-slicing machinery (Sections 7–9 of the paper):
//! database compression, symbolic execution over VC-tables, the dependency
//! check posed to the solver, and the resulting slice.
//!
//! Run with:
//! ```text
//! cargo run --example program_slicing_deep_dive
//! ```

use mahif_history::statement::{
    running_example_database, running_example_history, running_example_u1_prime,
};
use mahif_history::{HistoricalWhatIf, History, ModificationSet};
use mahif_slicing::{program_slice_multi, ProgramSlicingConfig};
use mahif_solver::{Domain, SatProblem, SatResult, Solver};
use mahif_symbolic::{compress_relation, CompressionConfig, VcTable};

fn main() {
    let database = running_example_database();
    let history = History::new(running_example_history());
    let query = HistoricalWhatIf::new(
        history.clone(),
        database.clone(),
        ModificationSet::single_replace(0, running_example_u1_prime()),
    );

    // 1. Compress the database into the constraint Φ_D (Example 7).
    let relation = database.relation("Order").unwrap();
    let phi_grouped = compress_relation(relation, &CompressionConfig::group_by("Country"));
    println!("Φ_D (grouped by Country):\n  {phi_grouped}\n");

    // 2. Symbolically execute the history over the single-tuple instance D0
    //    (Example 6 / Figure 10).
    let mut vc = VcTable::single_tuple(relation.schema.clone());
    vc.apply_history(history.statements()).unwrap();
    println!("VC-table after symbolically executing H:\n{vc}");

    // 3. The dependency question of Example 9, posed to the solver directly:
    //    is there a tuple affected by u1 (or u1') *and* by u2?
    use mahif_expr::builder::*;
    let mut problem = SatProblem::new(
        vec![
            (
                "x_Country_0".to_string(),
                Domain::StrChoices(vec!["UK".into(), "US".into()]),
            ),
            ("x_Price_0".to_string(), Domain::IntRange(20, 60)),
            ("x_ShippingFee_0".to_string(), Domain::IntRange(3, 5)),
        ],
        and(
            or(ge(var("x_Price_0"), lit(50)), ge(var("x_Price_0"), lit(60))),
            and(
                eq(var("x_Country_0"), slit("UK")),
                le(var("x_Price_0"), lit(100)),
            ),
        ),
    );
    problem.define(
        "x_ShippingFee_1",
        ite(
            ge(var("x_Price_0"), lit(50)),
            lit(0),
            var("x_ShippingFee_0"),
        ),
    );
    match Solver::new().check(&problem) {
        SatResult::Sat(witness) => {
            println!("u2 is DEPENDENT on the modification; witness tuple: {witness}\n")
        }
        other => println!("unexpected solver result: {other:?}\n"),
    }

    // 4. The full program slice computed by the engine (a single query is a
    //    scenario group of one): u3 is provably independent and excluded
    //    from reenactment.
    let normalized = query.normalize().unwrap();
    let slice = program_slice_multi(
        &normalized.original,
        std::slice::from_ref(&normalized.modified),
        &normalized.modified_positions,
        &query.database,
        &ProgramSlicingConfig::default(),
    )
    .unwrap();
    println!(
        "program slice: keep statements {:?}, exclude {:?} ({} solver calls, {:?})",
        slice
            .kept_positions
            .iter()
            .map(|p| format!("u{}", p + 1))
            .collect::<Vec<_>>(),
        slice
            .excluded_positions
            .iter()
            .map(|p| format!("u{}", p + 1))
            .collect::<Vec<_>>(),
        slice.solver_calls,
        slice.duration,
    );

    // 5. The sliced histories still produce the exact answer.
    let sliced_original = normalized.original.restrict(&slice.kept_positions);
    let sliced_modified = normalized.modified.restrict(&slice.kept_positions);
    let left = sliced_original.execute(&query.database).unwrap();
    let right = sliced_modified.execute(&query.database).unwrap();
    let delta = mahif_history::DatabaseDelta::compute(&left, &right);
    println!("answer computed from the slice:\n{delta}");
    assert_eq!(delta, query.answer_by_direct_execution().unwrap());
}
