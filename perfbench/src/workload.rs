//! The four workloads: which databases are served, which operations each
//! client sends, and what every answer must be.
//!
//! A workload is fully generated from its seed before anything is timed:
//! the databases, every client's operation stream, and the expectation of
//! every read. Streams are built in blocks with a fixed family mix per
//! block (shuffled inside the block), so the share of each query family is
//! the same from seed to seed and a change that alters the mix is visible
//! in the per-family counts rather than hidden in noise. Streams whose
//! texts must all be distinct are sized from the run's length with
//! headroom; running one out fails the run rather than repeating texts the
//! caches would then answer.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use engine::{Guarantee, Semantics, StrategyKind};
use rand::rngs::StdRng;
use rand::Rng;
use relmodel::{Database, Relation, Tuple, Value};

use crate::gen::{self, order_id, product_id, CqaInstance, CqaPair, Orders};

/// The workloads, by the name the command line and `BENCHMARK.json` use.
pub const WORKLOADS: [&str; 4] = ["hot_reads", "cold_reads", "read_write", "cqa"];

/// Key-lookup texts in the hot pool.
const HOT_POOL: usize = 200;
/// Zipf exponent of draws from the hot pool.
const ZIPF_S: f64 = 1.0;
/// Operations per second per client a stream of distinct texts has room
/// for: far above today's rates (tens per second), so a large speed-up
/// still measures distinct texts.
const UNIQUE_OPS_PER_S: f64 = 500.0;
/// The repair budget that makes the planner degrade to the conflict-free
/// core on the complete instance (its 2⁹ repairs estimate above it).
pub const SMALL_REPAIR_BUDGET: u128 = 64;

/// A query family: one query shape, one expected strategy and guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// One order's payments: a selective join (`NaiveExact`).
    KeyLookup,
    /// Every paid order: the full join (`NaiveExact`, ~3·10⁴ rows).
    FullJoin,
    /// A product's unpaid orders under CWA (`SymbolicCTable`).
    UnpaidCwa,
    /// The same under OWA through `submit_with` (`SoundApproximation`).
    UnpaidOwa,
    /// Consistent answers on the complete instance (survival-mask fold).
    CqaMask,
    /// The same with a 64-repair budget (degrades to the core).
    CqaCore,
    /// Consistent answers on the null-bearing twin (row fold).
    CqaRow,
    /// A single-row `Pay` insert through `update`.
    Insert,
    /// A single-row `Pay` delete through `update`.
    Delete,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::KeyLookup => "key_lookup",
            Family::FullJoin => "full_join",
            Family::UnpaidCwa => "unpaid_cwa",
            Family::UnpaidOwa => "unpaid_owa",
            Family::CqaMask => "cqa_mask",
            Family::CqaCore => "cqa_core",
            Family::CqaRow => "cqa_row",
            Family::Insert => "insert",
            Family::Delete => "delete",
        }
    }

    /// The strategy and guarantee every report of this family must carry.
    pub fn expected(self) -> (StrategyKind, Guarantee) {
        match self {
            Family::KeyLookup | Family::FullJoin => (StrategyKind::NaiveExact, Guarantee::Exact),
            Family::UnpaidCwa => (StrategyKind::SymbolicCTable, Guarantee::Exact),
            // Full relational algebra under OWA: the pair approximation,
            // which promises nothing for a difference.
            Family::UnpaidOwa => (StrategyKind::SoundApproximation, Guarantee::NoGuarantee),
            Family::CqaMask | Family::CqaRow => (StrategyKind::RepairEnumeration, Guarantee::Exact),
            Family::CqaCore => (StrategyKind::ConflictFreeCore, Guarantee::Sound),
            Family::Insert | Family::Delete => unreachable!("writes carry no report"),
        }
    }
}

/// What a read's answer must be.
pub enum Expect {
    /// Exactly this relation (a subset of it for a non-exact guarantee).
    Exactly(Arc<Relation>),
    /// One order's payments at the version that answered, replayed from
    /// the generated data and the write log.
    PaymentsAt { order: usize },
    /// The tuples of `base` matching any `(column, value)` clause.
    AnyOf {
        base: Arc<Relation>,
        clauses: [(usize, Value); 2],
    },
}

/// One read, fully generated before timing.
pub struct Read {
    pub family: Family,
    pub text: String,
    /// Index of the service that answers it.
    pub service: usize,
    pub semantics: Semantics,
    /// A repair budget overriding the service's, if any.
    pub max_repairs: Option<u128>,
    pub expect: Expect,
}

/// One single-row write to `Pay`.
pub struct Write {
    pub insert: bool,
    pub order: usize,
    pub tuple: Tuple,
}

impl Write {
    pub fn family(&self) -> Family {
        if self.insert {
            Family::Insert
        } else {
            Family::Delete
        }
    }

    pub fn apply(&self, db: &mut Database) {
        let pay = db.relation_mut("Pay").expect("orders schema has Pay");
        if self.insert {
            pay.insert(self.tuple.clone());
        } else {
            pay.remove(&self.tuple);
        }
    }
}

/// One step of a client's stream.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Read(u32),
    Write(u32),
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub clients: usize,
    /// Every text is distinct, so a client may not run out of stream.
    pub unique_texts: bool,
    /// The semantics each service answers `submit` under.
    pub semantics: Semantics,
    pub reads: Vec<Read>,
    pub writes: Vec<Write>,
    pub streams: Vec<Vec<Step>>,
    /// Reads submitted once during set-up, so the caches are warm.
    pub warm: Vec<u32>,
    /// The orders data, for reads whose answer depends on the version.
    pub orders: Option<Orders>,
}

/// Writes in the order the service published them: entry `i` made
/// version `i + 1`. Pushed inside the `update` closure, which runs under
/// the service's writer lock, so the log order is the version order.
#[derive(Default)]
pub struct WriteLog(Mutex<Vec<u32>>);

impl WriteLog {
    pub fn push(&self, write: u32) {
        self.0.lock().expect("write log poisoned").push(write);
    }

    fn upto(&self, version: u64) -> Vec<u32> {
        let log = self.0.lock().expect("write log poisoned");
        log[..(version as usize).min(log.len())].to_vec()
    }
}

impl Workload {
    /// The workload `name` for a run of `seconds`, and the databases its
    /// services serve, in service order.
    pub fn generate(name: &str, seed: u64, seconds: f64) -> Option<(Workload, Vec<Database>)> {
        // Blocks of distinct-text streams: enough for `UNIQUE_OPS_PER_S`.
        let blocks = |block: usize| (seconds * UNIQUE_OPS_PER_S / block as f64).ceil() as usize;
        Some(match name {
            "hot_reads" => hot_reads(seed),
            "cold_reads" => cold_reads(seed, blocks(10)),
            "read_write" => read_write(seed),
            "cqa" => cqa(seed, blocks(20)),
            _ => return None,
        })
    }

    /// Checks a report against the read's expectation: answered on the
    /// snapshot current when the read was sent (`floor`) or a later one,
    /// with the family's strategy and guarantee, and the right answer for
    /// that snapshot. `Err` describes the mismatch.
    pub fn check(
        &self,
        read: &Read,
        report: &engine::CertainReport,
        log: &WriteLog,
        floor: u64,
    ) -> Result<(), String> {
        let version = report.stats.snapshot_version.unwrap_or_default();
        if version < floor {
            return Err(format!(
                "{}: stale answer from version {version}, sent at version {floor}",
                read.text
            ));
        }
        let (strategy, guarantee) = read.family.expected();
        if report.strategy != strategy || report.guarantee != guarantee {
            return Err(format!(
                "{}: expected {}/{}, got {}/{}",
                read.text,
                strategy.name(),
                guarantee.name(),
                report.strategy.name(),
                report.guarantee.name()
            ));
        }
        let answers = &report.answers;
        let ok = match &read.expect {
            Expect::Exactly(expected) => {
                matches_expected(answers, guarantee, |t| expected.contains(t), expected.len())
            }
            Expect::PaymentsAt { order } => {
                let expected = self.payments_at(*order, log.upto(version));
                matches_expected(answers, guarantee, |t| expected.contains(t), expected.len())
            }
            Expect::AnyOf { base, clauses } => {
                let hit = |t: &Tuple| clauses.iter().any(|(col, v)| t.get(*col) == Some(v));
                let size = base.iter().filter(|t| hit(t)).count();
                matches_expected(answers, guarantee, |t| hit(t) && base.contains(t), size)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: wrong answer ({} rows, {})",
                read.text,
                answers.len(),
                guarantee.name()
            ))
        }
    }

    /// Order `order`'s payments as `(o_id, p_id, amount)`, after `writes`.
    fn payments_at(&self, order: usize, writes: Vec<u32>) -> BTreeSet<Tuple> {
        let orders = self.orders.as_ref().expect("versioned reads serve orders");
        let mut rows: BTreeSet<Tuple> = orders.paid_by[order]
            .iter()
            .map(|(pid, amount)| payment_row(order, pid, *amount))
            .collect();
        for w in writes.into_iter().map(|w| &self.writes[w as usize]) {
            if w.order != order {
                continue;
            }
            let values = w.tuple.values();
            let row = Tuple::new(vec![
                values[1].clone(),
                values[0].clone(),
                values[2].clone(),
            ]);
            if w.insert {
                rows.insert(row);
            } else {
                rows.remove(&row);
            }
        }
        rows
    }
}

/// Exact: the same set. Anything weaker: no tuple outside the certain
/// answer. `contains` decides membership in the expected set.
fn matches_expected(
    answers: &Relation,
    guarantee: Guarantee,
    contains: impl Fn(&Tuple) -> bool,
    expected_len: usize,
) -> bool {
    let inside = answers.iter().all(contains);
    inside && (guarantee != Guarantee::Exact || answers.len() == expected_len)
}

fn payment_row(order: usize, pid: &str, amount: i64) -> Tuple {
    Tuple::new(vec![
        Value::str(order_id(order)),
        Value::str(pid),
        Value::int(amount),
    ])
}

fn key_lookup_text(order: usize) -> String {
    format!(
        "project[#0, #2, #4](select[#0 = '{}' and #0 = #3](product(Order, Pay)))",
        order_id(order)
    )
}

const FULL_JOIN_TEXT: &str = "project[#0, #1](select[#0 = #3](product(Order, Pay)))";

fn unpaid_text(product: usize, except: usize) -> String {
    format!(
        "project[#0](select[#1 = '{}' and #0 != '{}'](Order)) minus project[#1](Pay)",
        product_id(product),
        order_id(except)
    )
}

fn key_lookup(orders: &Orders, order: usize, expect_versioned: bool) -> Read {
    let expect = if expect_versioned {
        Expect::PaymentsAt { order }
    } else {
        Expect::Exactly(Arc::new(Relation::from_tuples(
            3,
            orders.paid_by[order]
                .iter()
                .map(|(pid, amount)| payment_row(order, pid, *amount)),
        )))
    };
    Read {
        family: Family::KeyLookup,
        text: key_lookup_text(order),
        service: 0,
        semantics: Semantics::Cwa,
        max_repairs: None,
        expect,
    }
}

fn full_join(orders: &Orders) -> Read {
    let rows = (0..gen::ORDERS)
        .filter(|&o| !orders.paid_by[o].is_empty())
        .map(|o| {
            Tuple::new(vec![
                Value::str(order_id(o)),
                Value::str(product_id(orders.product_of[o])),
            ])
        });
    Read {
        family: Family::FullJoin,
        text: FULL_JOIN_TEXT.to_owned(),
        service: 0,
        semantics: Semantics::Cwa,
        max_repairs: None,
        expect: Expect::Exactly(Arc::new(Relation::from_tuples(2, rows))),
    }
}

/// A product's orders other than `except` that no payment can reference.
/// Under CWA a marked null in `Pay.order` may stand for any order, so with
/// one null nothing is certainly unpaid; under OWA another payment may
/// always exist, so nothing ever is.
fn unpaid(orders: &Orders, product: usize, except: usize, owa: bool) -> Read {
    let rows = orders.orders_of[product]
        .iter()
        .filter(|&&o| o != except && orders.paid_by[o].is_empty())
        .filter(|_| orders.nulls == 0 && !owa)
        .map(|&o| Tuple::new(vec![Value::str(order_id(o))]));
    Read {
        family: if owa {
            Family::UnpaidOwa
        } else {
            Family::UnpaidCwa
        },
        text: unpaid_text(product, except),
        service: 0,
        semantics: if owa { Semantics::Owa } else { Semantics::Cwa },
        max_repairs: None,
        expect: Expect::Exactly(Arc::new(Relation::from_tuples(1, rows))),
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `count` distinct values from `0..n`, in seeded order.
fn sample_distinct(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut all);
    all.truncate(count);
    all
}

/// Zipf draws over ranks `0..n` with exponent [`ZIPF_S`].
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let unit = rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64;
        let target = unit * self.cumulative.last().copied().unwrap_or(0.0);
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// A stream of `blocks` blocks, each holding the `mix` counts of each slot
/// kind in shuffled order; `make` turns a slot kind into a step.
fn blocked_stream<K: Copy>(
    rng: &mut StdRng,
    blocks: usize,
    mix: &[(K, usize)],
    mut make: impl FnMut(&mut StdRng, K) -> Step,
) -> Vec<Step> {
    let mut block: Vec<K> = mix
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut steps = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        shuffle(rng, &mut block);
        for &kind in &block {
            steps.push(make(rng, kind));
        }
    }
    steps
}

fn orders_workload(name: &'static str, orders: Orders, clients: usize) -> Workload {
    Workload {
        name,
        clients,
        unique_texts: false,
        semantics: Semantics::Cwa,
        reads: Vec::new(),
        writes: Vec::new(),
        streams: Vec::new(),
        warm: Vec::new(),
        orders: Some(orders),
    }
}

/// A pool of key lookups, all warmed during set-up. Every pooled order has
/// exactly one payment, so a small hit costs the same whichever orders a
/// seed picks.
fn hot_pool(w: &mut Workload, rng: &mut StdRng, versioned: bool) -> Vec<u32> {
    let orders = w.orders.as_ref().expect("orders workload");
    let pool: Vec<u32> = sample_distinct(rng, gen::ORDERS, gen::ORDERS)
        .into_iter()
        .filter(|&o| orders.paid_by[o].len() == 1)
        .take(HOT_POOL)
        .map(|o| {
            w.reads.push(key_lookup(orders, o, versioned));
            (w.reads.len() - 1) as u32
        })
        .collect();
    w.warm.extend(&pool);
    pool
}

fn hot_reads(seed: u64) -> (Workload, Vec<Database>) {
    let mut rng = gen::rng(seed, "hot_reads");
    let (db, orders) = Orders::generate(seed);
    let mut w = orders_workload("hot_reads", orders, 1);
    let pool = hot_pool(&mut w, &mut rng, false);
    w.reads
        .push(full_join(w.orders.as_ref().expect("orders workload")));
    let large = (w.reads.len() - 1) as u32;
    w.warm.push(large);
    let zipf = Zipf::new(pool.len());
    // One read in ten returns the full join.
    w.streams = (0..w.clients)
        .map(|_| {
            blocked_stream(&mut rng, 20_000, &[(true, 1), (false, 9)], |rng, big| {
                Step::Read(if big { large } else { pool[zipf.draw(rng)] })
            })
        })
        .collect();
    (w, vec![db])
}

/// `blocks` blocks of 10 reads per client.
fn cold_reads(seed: u64, blocks: usize) -> (Workload, Vec<Database>) {
    let mut rng = gen::rng(seed, "cold_reads");
    let (db, orders) = Orders::generate(seed);
    let mut w = orders_workload("cold_reads", orders, 2);
    w.unique_texts = true;
    let orders = w.orders.take().expect("orders workload");
    // Every text is unique: key lookups take distinct orders, and the
    // unpaid-orders texts each exclude a distinct order. Clients draw
    // from disjoint halves of both permutations; a stream stops where
    // distinct orders run out.
    let lookups = sample_distinct(&mut rng, gen::ORDERS, gen::ORDERS);
    let excluded = sample_distinct(&mut rng, gen::ORDERS, gen::ORDERS);
    let blocks = blocks.min(gen::ORDERS / w.clients / 8);
    for c in 0..w.clients {
        let mut next_lookup = lookups.iter().skip(c).step_by(w.clients);
        let mut next_excluded = excluded.iter().skip(c).step_by(w.clients);
        let reads = &mut w.reads;
        let stream = blocked_stream(
            &mut rng,
            blocks,
            &[
                (Family::KeyLookup, 8),
                (Family::UnpaidCwa, 1),
                (Family::UnpaidOwa, 1),
            ],
            |rng, family| {
                let read = match family {
                    Family::KeyLookup => {
                        key_lookup(&orders, *next_lookup.next().expect("enough orders"), false)
                    }
                    _ => unpaid(
                        &orders,
                        rng.gen_range(0..gen::PRODUCTS),
                        *next_excluded.next().expect("enough orders"),
                        family == Family::UnpaidOwa,
                    ),
                };
                reads.push(read);
                Step::Read((reads.len() - 1) as u32)
            },
        );
        w.streams.push(stream);
    }
    w.orders = Some(orders);
    (w, vec![db])
}

fn read_write(seed: u64) -> (Workload, Vec<Database>) {
    let mut rng = gen::rng(seed, "read_write");
    let (db, orders) = Orders::generate(seed);
    let mut w = orders_workload("read_write", orders, 2);
    let pool = hot_pool(&mut w, &mut rng, true);
    let zipf = Zipf::new(pool.len());
    let pool_orders: Vec<usize> = pool
        .iter()
        .map(|&r| match w.reads[r as usize].expect {
            Expect::PaymentsAt { order } => order,
            _ => unreachable!("the pool holds versioned key lookups"),
        })
        .collect();
    for c in 0..w.clients {
        // The client's own live inserts: it only ever deletes those, so
        // every delete removes a row that is there.
        let mut live: Vec<u32> = Vec::new();
        let writes = &mut w.writes;
        let stream = blocked_stream(&mut rng, 12_500, &[(true, 1), (false, 3)], |rng, write| {
            if !write {
                return Step::Read(pool[zipf.draw(rng)]);
            }
            let write = if !live.is_empty() && rng.gen_bool(0.5) {
                let inserted = &writes[live.swap_remove(rng.gen_range(0..live.len())) as usize];
                Write {
                    insert: false,
                    order: inserted.order,
                    tuple: inserted.tuple.clone(),
                }
            } else {
                let order = pool_orders[zipf.draw(rng)];
                let tuple = Tuple::new(vec![
                    Value::str(format!("pidw{c}_{}", writes.len())),
                    Value::str(order_id(order)),
                    Value::int(rng.gen_range(1..=500i64)),
                ]);
                Write {
                    insert: true,
                    order,
                    tuple,
                }
            };
            writes.push(write);
            let id = (writes.len() - 1) as u32;
            if writes[id as usize].insert {
                live.push(id);
            }
            Step::Write(id)
        });
        w.streams.push(stream);
    }
    (w, vec![db])
}

/// The consistent-answer query shapes: a key-or-payload filter on `R` or
/// `T`, a two-key filter on `S`, and the same filter over `R ⋈ T`. All are
/// positive, so each answer is the stable tuples the filter keeps.
#[derive(Debug, Clone, Copy)]
enum Shape {
    R,
    T,
    S,
    Join,
}

fn cqa_read(
    instance: &CqaInstance,
    service: usize,
    family: Family,
    shape: Shape,
    key: i64,
    other: i64,
) -> Read {
    let (text, base, second) = match shape {
        Shape::R | Shape::T => {
            let rel = if matches!(shape, Shape::R) { "R" } else { "T" };
            (
                format!("select[#0 = {key} or #1 = {other}]({rel})"),
                instance.stable[rel].clone(),
                1,
            )
        }
        Shape::S => (
            format!("select[#0 = {key} or #0 = {other}](S)"),
            instance.stable["S"].clone(),
            0,
        ),
        Shape::Join => (
            format!("select[#0 = #2 and (#0 = {key} or #1 = {other})](product(R, T))"),
            instance.stable_join.clone(),
            1,
        ),
    };
    Read {
        family,
        text,
        service,
        semantics: Semantics::ConsistentAnswers,
        max_repairs: (family == Family::CqaCore).then_some(SMALL_REPAIR_BUDGET),
        expect: Expect::AnyOf {
            base,
            clauses: [(0, Value::int(key)), (second, Value::int(other))],
        },
    }
}

/// `blocks` blocks of 20 reads.
fn cqa(seed: u64, blocks: usize) -> (Workload, Vec<Database>) {
    let mut rng = gen::rng(seed, "cqa");
    let pair = CqaPair::generate(seed);
    let mut w = Workload {
        name: "cqa",
        clients: 1,
        unique_texts: true,
        semantics: Semantics::ConsistentAnswers,
        reads: Vec::new(),
        writes: Vec::new(),
        streams: Vec::new(),
        warm: Vec::new(),
        orders: None,
    };
    // Distinct keys make every text unique, so every read runs a fold;
    // the stream stops where distinct keys run out.
    let keys = sample_distinct(&mut rng, gen::CQA_TUPLES, gen::CQA_TUPLES);
    let blocks = blocks.min(gen::CQA_TUPLES / 20);
    let mut next_key = keys.into_iter().map(|k| gen::CQA_KEY_BASE + k as i64);
    let shapes = [Shape::R, Shape::T, Shape::S, Shape::Join];
    let reads = &mut w.reads;
    let stream = blocked_stream(
        &mut rng,
        blocks,
        &[
            (Family::CqaMask, 13),
            (Family::CqaCore, 5),
            (Family::CqaRow, 2),
        ],
        |rng, family| {
            let (instance, service) = if family == Family::CqaRow {
                (&pair.twin, 1)
            } else {
                (&pair.complete, 0)
            };
            let shape = shapes[rng.gen_range(0..shapes.len())];
            let key = next_key.next().expect("enough keys");
            let other = match shape {
                Shape::S => gen::CQA_KEY_BASE + rng.gen_range(0..gen::CQA_TUPLES as i64),
                _ => rng.gen_range(0..1_000i64),
            };
            reads.push(cqa_read(instance, service, family, shape, key, other));
            Step::Read((reads.len() - 1) as u32)
        },
    );
    w.streams.push(stream);
    (w, vec![pair.complete.db, pair.twin.db])
}
