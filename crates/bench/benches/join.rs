//! Nested-loop vs hash equi-join (`cargo bench -p bench --bench join`).
//!
//! The seed evaluated `σ_{b=b'}(R × S)` by materializing the full Cartesian
//! product and filtering — `O(|R|·|S|)` pairs however selective the join.
//! The physical plan fuses the selection into a hash equi-join: build a hash
//! table on one side's key, probe with the other, `O(|R| + |S| + matches)`.
//! This bench quantifies the gap on a selective join at increasing scale
//! (the acceptance bar is ≥10× at 1k×1k), and also measures the bulk
//! `Relation::from_tuples` constructor whose per-tuple arity `assert!` was
//! downgraded to a `debug_assert!` — the constructor every operator's output
//! lands in.
//!
//! A third section gates the resident key indexes: a selective key lookup
//! at n = 10⁴ must run ≥5x faster over the relations' memoized column
//! indexes than the same plan on the per-query hash path (asserted at every
//! size setting — the lookup is cheap enough for the smoke run).
//!
//! Each measurement is emitted as a machine-readable `BENCH {…}` json line;
//! `BENCH_SMOKE=1` shrinks the workload so CI can keep the harness alive.

use std::time::Duration;

use bench::harness::{fmt_duration, measure, Measurement};
use datagen::random_database_with_null_rate;
use relalgebra::ast::RaExpr;
use relalgebra::plan::PlannedQuery;
use relalgebra::predicate::{Operand, Predicate};
use releval::exec;
use relmodel::{Database, Schema, Tuple};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn emit(experiment: &str, mode: &str, n: usize, m: &Measurement) {
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"{experiment}\",\"mode\":\"{mode}\",\
         \"n\":{n},\"median_ns\":{},\"min_ns\":{},\"iters\":{}}}",
        m.median.as_nanos(),
        m.min.as_nanos(),
        m.iters
    );
}

/// `R(a,b)` and `S(b,c)` with `n` rows each and a selective equi-join on
/// `b`: every `R` row matches exactly one `S` row, so the join yields `n`
/// rows out of `n²` candidate pairs.
fn join_db(n: usize) -> Database {
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c"])
        .build();
    let mut db = Database::new(schema);
    for i in 0..n as i64 {
        db.insert("R", Tuple::ints(&[i, i])).expect("fits schema");
        db.insert("S", Tuple::ints(&[i, 2 * i]))
            .expect("fits schema");
    }
    db
}

fn join_query() -> RaExpr {
    RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(Predicate::eq(Operand::col(1), Operand::col(2)))
}

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    let sizes: &[usize] = if smoke { &[60, 120] } else { &[100, 300, 1000] };
    let q = join_query();

    println!("## join_nested_loop_vs_hash (selective equi-join, n rows per side)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let mut last_speedup = 0.0f64;
    for &n in sizes {
        let db = join_db(n);
        let plan = PlannedQuery::new(q.clone(), db.schema()).expect("query typechecks");
        assert!(plan.physical().has_hash_join(), "fusion must fire");
        // Correctness before speed: both paths must agree.
        let hash_out = exec::execute(plan.physical(), &db);
        let loop_out = releval::engine::eval_unchecked(&q, &db).into_owned();
        assert_eq!(hash_out, loop_out, "hash join != nested loop at n={n}");
        assert_eq!(hash_out.len(), n, "selective join yields n rows");

        let nested = measure(format!("nested-loop/{n}"), budget, || {
            releval::engine::eval_unchecked(&q, &db).into_owned()
        });
        emit("scaling", "nested-loop", n, &nested);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            nested.label,
            fmt_duration(nested.median),
            fmt_duration(nested.min),
            nested.iters
        );
        let hash = measure(format!("hash-join/{n}"), budget, || {
            exec::execute(plan.physical(), &db)
        });
        emit("scaling", "hash", n, &hash);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            hash.label,
            fmt_duration(hash.median),
            fmt_duration(hash.min),
            hash.iters
        );
        last_speedup = nested.median.as_nanos() as f64 / hash.median.as_nanos().max(1) as f64;
        println!("hash vs nested-loop at {n}: {last_speedup:.1}x");
    }
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"summary\",\"n\":{},\
         \"speedup_hash_vs_nested\":{last_speedup:.3}}}",
        sizes.last().expect("at least one size")
    );
    if !smoke {
        assert!(
            last_speedup >= 10.0,
            "acceptance: hash join must beat the nested loop ≥10x at 1k×1k \
             (got {last_speedup:.1}x)"
        );
    }

    // The morsel-driven columnar core against the row-at-a-time executors,
    // swept across null rates on the mostly-ground join workload. The pair
    // (certain⁺/possible?) executor is where the batch-granular
    // ground/symbolic run split pays: the row path allocates a key vector
    // per probe, a concat per candidate, and a set insert per output row,
    // while the columnar path hashes raw u64s over cache-resident columns
    // and falls back per-row only for the symbolic remainder.
    println!("\n## columnar_vs_row (null-rate sweep, n rows per side)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let n = if smoke { 200 } else { 1000 };
    let rates: &[u32] = if smoke { &[1] } else { &[0, 1, 10, 50] };
    // The swept query projects the join down to the matched `a`s: the row
    // executors materialize a `BTreeSet` relation per operator (the 1%-null
    // possible side of the join alone is ~20·n rows), while the columnar
    // core carries batches end to end, dedups the projection in its hash
    // kernel, and converts to a relation once, at the root.
    let q_sweep = join_query().project(vec![0]);
    let mut pair_speedup_at_1pct = 0.0f64;
    for &rate in rates {
        let db = random_database_with_null_rate(n, rate, 42);
        let plan = PlannedQuery::new(q_sweep.clone(), db.schema()).expect("query typechecks");
        // Correctness before speed, on both executors.
        let (col_plain, _) = exec::columnar::execute_counted(plan.physical(), &db);
        assert_eq!(
            col_plain,
            exec::execute(plan.physical(), &db),
            "columnar != row (plain) at {rate}% nulls"
        );
        let col_pair = exec::columnar::approx::execute_approx(plan.physical(), &db);
        let row_pair = exec::approx::execute_approx(plan.physical(), &db);
        assert_eq!(
            col_pair.certain, row_pair.certain,
            "columnar != row (pair, certain) at {rate}% nulls"
        );
        assert_eq!(
            col_pair.possible, row_pair.possible,
            "columnar != row (pair, possible) at {rate}% nulls"
        );

        for (mode, m) in [
            (
                "row-plain",
                measure(format!("row-plain/{rate}%"), budget, || {
                    exec::execute(plan.physical(), &db)
                }),
            ),
            (
                "columnar-plain",
                measure(format!("columnar-plain/{rate}%"), budget, || {
                    exec::columnar::execute(plan.physical(), &db)
                }),
            ),
        ] {
            emit(&format!("null_rate_plain_{rate}pct"), mode, n, &m);
            println!(
                "{:<22}  {:>12}  {:>12}  {:>9}",
                m.label,
                fmt_duration(m.median),
                fmt_duration(m.min),
                m.iters
            );
        }
        let row = measure(format!("row-pair/{rate}%"), budget, || {
            exec::approx::execute_approx(plan.physical(), &db)
        });
        emit(&format!("null_rate_pair_{rate}pct"), "row", n, &row);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            row.label,
            fmt_duration(row.median),
            fmt_duration(row.min),
            row.iters
        );
        let col = measure(format!("columnar-pair/{rate}%"), budget, || {
            exec::columnar::approx::execute_approx(plan.physical(), &db)
        });
        emit(&format!("null_rate_pair_{rate}pct"), "columnar", n, &col);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            col.label,
            fmt_duration(col.median),
            fmt_duration(col.min),
            col.iters
        );
        let speedup = row.median.as_nanos() as f64 / col.median.as_nanos().max(1) as f64;
        if rate == 1 {
            pair_speedup_at_1pct = speedup;
        }
        println!("columnar vs row pair at {rate}% nulls: {speedup:.1}x");
    }
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"columnar_summary\",\"n\":{n},\
         \"speedup_columnar_vs_row_pair_1pct\":{pair_speedup_at_1pct:.3}}}"
    );
    if !smoke {
        assert!(
            pair_speedup_at_1pct >= 5.0,
            "acceptance: the columnar pair executor must beat the row pair executor \
             ≥5x at 1k rows / 1% nulls (got {pair_speedup_at_1pct:.1}x)"
        );
    }

    // Resident key indexes: a selective key lookup over R ⋈ S at n = 10⁴,
    // answered from the relations' memoized column indexes (index
    // selection on R, index nested-loop join into S) against the same plan
    // forced onto the per-query hash path by a morsel holding every row —
    // which reads all of R for the filter and probes all of S.
    println!("\n## resident_index_vs_hash (σ[#0 = k](R ⋈ S), 1-row answer)");
    let n = 10_000;
    let db = join_db(n);
    let q_key = RaExpr::relation("R").product(RaExpr::relation("S")).select(
        Predicate::eq(Operand::col(0), Operand::int(7))
            .and(Predicate::eq(Operand::col(1), Operand::col(2))),
    );
    let plan = PlannedQuery::new(q_key, db.schema()).expect("query typechecks");
    let (indexed_out, cold) = exec::columnar::execute_counted(plan.physical(), &db);
    let (hashed_out, _) = exec::columnar::execute_counted_with_morsel(plan.physical(), &db, n);
    assert_eq!(indexed_out, hashed_out, "index path != hash path");
    assert_eq!(indexed_out.len(), 1, "one matching row");
    assert_eq!(cold.tables_built, 2, "the first run builds both indexes");
    let (_, warm) = exec::columnar::execute_counted(plan.physical(), &db);
    assert_eq!(
        (warm.tables_built, warm.tables_reused),
        (0, 2),
        "later runs probe the resident indexes"
    );
    let indexed = measure(format!("resident-index/{n}"), budget, || {
        exec::columnar::execute_counted(plan.physical(), &db)
    });
    let hashed = measure(format!("hash-path/{n}"), budget, || {
        exec::columnar::execute_counted_with_morsel(plan.physical(), &db, n)
    });
    for (mode, m) in [("resident-index", &indexed), ("hash-path", &hashed)] {
        emit("selective_key_join", mode, n, m);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            m.label,
            fmt_duration(m.median),
            fmt_duration(m.min),
            m.iters
        );
    }
    let index_speedup = hashed.median.as_nanos() as f64 / indexed.median.as_nanos().max(1) as f64;
    println!("resident index vs hash path at {n}: {index_speedup:.1}x");
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"index_summary\",\"n\":{n},\
         \"speedup_index_vs_hash\":{index_speedup:.3}}}"
    );
    assert!(
        index_speedup >= 5.0,
        "acceptance: a selective key join at n=10^4 over resident indexes must beat \
         the hash path ≥5x (got {index_speedup:.1}x)"
    );

    // Bulk relation construction: the operator-output hot path whose
    // per-tuple arity assert became debug-only.
    println!("\n## relation_from_tuples (bulk build, release-mode single arity check)");
    let build_sizes: &[usize] = if smoke { &[1_000] } else { &[10_000, 100_000] };
    for &n in build_sizes {
        let tuples: Vec<Tuple> = (0..n as i64).map(|i| Tuple::ints(&[i, i * 7])).collect();
        let m = measure(format!("from_tuples/{n}"), budget, || {
            relmodel::Relation::from_tuples(2, tuples.clone())
        });
        emit("relation_build", "from_tuples", n, &m);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            m.label,
            fmt_duration(m.median),
            fmt_duration(m.min),
            m.iters
        );
    }
}
