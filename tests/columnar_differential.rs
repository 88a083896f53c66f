//! Differential fuzz harness for the morsel-driven columnar core: the
//! batched executors replayed against their row-at-a-time references on
//! random workloads.
//!
//! The columnar rewrite keeps the row executors (`releval::exec`,
//! `exec::approx`, `exec::ctable`) precisely so this harness can hold the
//! batched core to them, case by case, across seeded random databases ×
//! random queries of every [`QueryClass`]:
//!
//! 1. plain tuples: `exec::columnar::execute` == `exec::execute`, exact
//!    relation equality, swept across morsel sizes (1 row per morsel
//!    maximises chunk boundaries; the default covers the vectorized path);
//! 2. the certain⁺/possible? pair: `exec::columnar::approx` ==
//!    `exec::approx`, both sides, including the **interval** entry point
//!    (`execute_approx_between`) consistent query answering depends on;
//! 3. condition-carrying c-table rows: `exec::columnar::ctable` ≡
//!    `exec::ctable`, compared semantically (identical instantiations in
//!    every world over an adequate domain) — candidate order differs
//!    between the two indexes, so condition trees differ structurally;
//! 4. the null-rate-swept mostly-ground workload
//!    (`random_database_with_null_rate`): the ground-run fast path at
//!    0%/1%/10%/50% nulls against both row references.
//!
//! The `FUZZ_CASES` environment variable scales the sweep, as in
//! `physical_differential.rs`; `FUZZ_CASES=1000` is the acceptance-grade
//! run (split 1–4, it stays within the CI release-fuzz budget).

use datagen::random::random_schema;
use datagen::{
    random_database, random_database_with_null_rate, random_division_query, random_full_ra_query,
    random_positive_query, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use incomplete_data::{ctables, relalgebra, releval, relmodel};

use ctables::ctable::ConditionalDatabase;
use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};
use releval::exec;
use relmodel::batch::DEFAULT_MORSEL_ROWS;
use relmodel::valuation::ValuationEnumerator;

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

/// Morsel sizes the sweeps run at: single-row morsels maximise chunk
/// boundaries, 3 exercises ragged tails, 1024 is the default vectorized
/// configuration.
const MORSELS: [usize; 3] = [1, 3, 1024];

fn fuzz_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 2 + (seed % 4) as usize,
        domain_size: 3 + (seed % 3) as usize,
        distinct_nulls: (seed % 4) as usize,
        null_rate_percent: (seed * 17 % 60) as u32,
        seed: seed.wrapping_mul(0x9e37_79b9),
    })
}

fn fuzz_query(class: QueryClass, seed: u64) -> RaExpr {
    let schema = random_schema();
    let config = QueryGenConfig {
        seed,
        ..Default::default()
    };
    match class {
        QueryClass::Positive => random_positive_query(&schema, &config),
        QueryClass::RaCwa => random_division_query(&schema, &config),
        QueryClass::FullRa => random_full_ra_query(&schema, &config),
    }
}

/// Batched plain execution == row plain execution, across morsel sizes.
#[test]
fn columnar_plain_matches_row_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(5).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = exec::execute(plan.physical(), &db);
            for morsel in MORSELS {
                let (batched, stats) =
                    exec::columnar::execute_counted_with_morsel(plan.physical(), &db, morsel);
                assert_eq!(
                    batched, reference,
                    "MISMATCH columnar vs row for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
                assert_eq!(
                    stats.symbolic_rows, 0,
                    "plain execution is all-syntactic; no symbolic routing for {q}"
                );
            }
        }
    }
}

/// Batched pair execution == row pair execution, both sides, across morsel
/// sizes.
#[test]
fn columnar_approx_matches_row_pair_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xa11ce));
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = exec::approx::execute_approx(plan.physical(), &db);
            for morsel in MORSELS {
                let (batched, _) = exec::columnar::approx::execute_approx_between_with_morsel(
                    plan.physical(),
                    &db,
                    &db,
                    morsel,
                );
                assert_eq!(
                    batched.certain, reference.certain,
                    "certain side diverged for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
                assert_eq!(
                    batched.possible, reference.possible,
                    "possible side diverged for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
            }
        }
    }
}

/// The interval entry point (`lower ⊆ upper`): certain reads from the
/// complete part, possible from the full database — the exact contract the
/// repairs crate's conflict-free-core approximation executes.
#[test]
fn columnar_approx_between_matches_row_interval_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xbe7));
        let lower = db.complete_part();
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(9).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let (reference, _) = exec::approx::execute_approx_between(plan.physical(), &lower, &db);
            let (batched, _) =
                exec::columnar::approx::execute_approx_between(plan.physical(), &lower, &db);
            assert_eq!(
                batched.certain, reference.certain,
                "interval certain diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
            assert_eq!(
                batched.possible, reference.possible,
                "interval possible diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
        }
    }
}

/// Batched c-table execution ≡ row c-table execution, compared semantically
/// (identical instantiations in every world over an adequate domain),
/// across morsel sizes.
#[test]
fn columnar_ctable_matches_row_executor_semantically() {
    // The valuation sweep is |domain|^|nulls| per case; cap the per-case
    // null count so the acceptance-grade FUZZ_CASES=1000 run stays fast.
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xc7ab1e));
        if db.null_ids().len() > 3 {
            continue;
        }
        let cdb = ConditionalDatabase::from_database(&db);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(11).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = exec::ctable::execute_ctable(plan.physical(), &cdb);
            for morsel in MORSELS {
                let (batched, _) = exec::columnar::ctable::execute_ctable_counted_with_morsel(
                    plan.physical(),
                    &cdb,
                    morsel,
                );
                let mut nulls = cdb.null_ids();
                nulls.extend(batched.null_ids());
                nulls.extend(reference.null_ids());
                let domain = cdb.adequate_domain(&q.constants(), 1);
                for v in ValuationEnumerator::new(nulls, domain) {
                    assert_eq!(
                        batched.instantiate(&v),
                        reference.instantiate(&v),
                        "c-table instantiations diverge for {q} ({class}, seed {seed}, \
                         morsel {morsel}) over\n{db}"
                    );
                }
            }
        }
    }
}

/// `R(a, b)` and `S(b, c, d)` with `rows` tuples each (fewer after set
/// deduplication), their values drawn from ints, strings spelling the same
/// digits, and marked nulls — so syntactic equality must keep `7`, `'7'`
/// and `⊥7` apart in every key column.
fn index_db(rows: usize, seed: u64) -> Database {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut value = move || {
        let x = draw();
        let n = (x >> 8) % 40;
        match x % 10 {
            0 => Value::null(n % 8),
            1..=3 => Value::str(n.to_string()),
            _ => Value::int(n as i64),
        }
    };
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c", "d"])
        .build();
    let mut db = Database::new(schema);
    for _ in 0..rows {
        db.insert("R", Tuple::new(vec![value(), value()])).unwrap();
        db.insert("S", Tuple::new(vec![value(), value(), value()]))
            .unwrap();
    }
    db
}

/// Above one morsel at the default morsel size, selections on a constant
/// and joins against a small side are answered from resident key indexes;
/// at a morsel holding every row the same plans take the hash path. Both
/// must agree with each other and with the row reference — null-bearing
/// key columns, `Int`/`Str` constants of the same spelling, and two-key
/// joins with a residual included.
#[test]
fn index_path_matches_hash_path_above_one_morsel() {
    let constants = [
        Operand::int(7),
        Operand::str("7"),
        Operand::int(0),
        Operand::str("39"),
        Operand::int(99),
    ];
    let keyed_join = |k: &Operand, c: usize| {
        RaExpr::relation("R").product(RaExpr::relation("S")).select(
            Predicate::eq(Operand::col(c), k.clone())
                .and(Predicate::eq(Operand::col(1), Operand::col(2))),
        )
    };
    for seed in 0..fuzz_cases().min(8) {
        let db = index_db(3 * DEFAULT_MORSEL_ROWS / 2, seed);
        assert!(db.relation("R").unwrap().len() > DEFAULT_MORSEL_ROWS);
        for k in &constants {
            let queries = [
                // Index selection, constant on either side of `=`.
                RaExpr::relation("R").select(Predicate::eq(Operand::col(1), k.clone())),
                RaExpr::relation("S").select(
                    Predicate::eq(k.clone(), Operand::col(0))
                        .and(Predicate::neq(Operand::col(1), Operand::col(2))),
                ),
                // Index nested-loop joins, the small side left or right.
                keyed_join(k, 0),
                keyed_join(k, 4).project(vec![0, 3]),
                // Two keys plus a residual: R.b = S.b, R.a = S.c, S.d ≠ k.
                RaExpr::relation("R").product(RaExpr::relation("S")).select(
                    Predicate::eq(Operand::col(0), k.clone())
                        .and(Predicate::eq(Operand::col(1), Operand::col(2)))
                        .and(Predicate::eq(Operand::col(0), Operand::col(3)))
                        .and(Predicate::neq(Operand::col(4), k.clone())),
                ),
                // Null keys join syntactically: ⊥ matches only itself.
                RaExpr::relation("R").product(RaExpr::relation("S")).select(
                    Predicate::eq(Operand::col(1), Operand::col(2))
                        .and(Predicate::eq(Operand::col(4), k.clone())),
                ),
            ];
            for q in queries {
                let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
                let (indexed, stats) = exec::columnar::execute_counted_with_morsel(
                    plan.physical(),
                    &db,
                    DEFAULT_MORSEL_ROWS,
                );
                let (hashed, hash_stats) =
                    exec::columnar::execute_counted_with_morsel(plan.physical(), &db, usize::MAX);
                assert_eq!(
                    indexed, hashed,
                    "MISMATCH index vs hash path for {q} (seed {seed})"
                );
                assert_eq!(
                    indexed,
                    exec::execute(plan.physical(), &db),
                    "MISMATCH index path vs row reference for {q} (seed {seed})"
                );
                assert!(
                    stats.tables_reused + stats.tables_built > hash_stats.tables_built,
                    "the index path did not fire for {q}"
                );
            }
        }
    }
}

/// The null-rate-swept mostly-ground workload: the ground-run fast path the
/// tentpole is about, checked against both row references at every rate.
/// Rows are ~200 per relation, so this also covers multi-morsel execution
/// at small morsel sizes.
#[test]
fn null_rate_sweep_agrees_with_row_executors() {
    let join = RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(Predicate::eq(Operand::col(1), Operand::col(2)));
    let queries = [
        join.clone().project(vec![0, 3]),
        join.select(Predicate::neq(Operand::col(0), Operand::col(3))),
        RaExpr::relation("R")
            .project(vec![1])
            .difference(RaExpr::relation("S").project(vec![0])),
    ];
    let cases = fuzz_cases().min(64);
    for seed in 0..cases {
        for rate in [0, 1, 10, 50] {
            let db = random_database_with_null_rate(200, rate, seed);
            for q in &queries {
                let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
                let reference = exec::execute(plan.physical(), &db);
                let (batched, _) =
                    exec::columnar::execute_counted_with_morsel(plan.physical(), &db, 64);
                assert_eq!(
                    batched, reference,
                    "plain mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                let pair_ref = exec::approx::execute_approx(plan.physical(), &db);
                let (pair, stats) = exec::columnar::approx::execute_approx_between_with_morsel(
                    plan.physical(),
                    &db,
                    &db,
                    64,
                );
                assert_eq!(
                    pair.certain, pair_ref.certain,
                    "pair certain mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                assert_eq!(
                    pair.possible, pair_ref.possible,
                    "pair possible mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                if rate == 0 {
                    assert_eq!(
                        stats.symbolic_rows, 0,
                        "a complete database must route everything through the ground runs"
                    );
                }
            }
        }
    }
}
