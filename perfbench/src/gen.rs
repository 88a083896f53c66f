//! Seeded input generators: the databases each workload serves, plus the
//! facts about them the benchmark checks answers against.
//!
//! Every generator is a pure function of its seed. The checks never ask the
//! program under test for an expectation: they are derived here, from the
//! generated data alone.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmodel::{Database, Relation, Schema, Tuple, Value};

/// Orders in the orders database.
pub const ORDERS: usize = 50_000;
/// Payments in the orders database.
pub const PAYMENTS: usize = 50_000;
/// Distinct products orders are spread over.
pub const PRODUCTS: usize = 100;
/// Payments whose `order` is a marked null — a fixed count, not a rate.
pub const PAY_NULLS: usize = 5;

/// Tuples per relation in each consistent-answer instance.
pub const CQA_TUPLES: usize = 10_000;
/// Key/FD clashes injected into the complete instance (each doubles the
/// number of repairs: 2⁹ = 512).
pub const CQA_CLASHES: usize = 9;
/// Key/FD clashes injected into the null-bearing twin (2³ = 8 repairs).
pub const TWIN_CLASHES: usize = 3;
/// Keys of `R`, `S` and `T` start here, far from the sentinel the denial
/// constraint on `S` forbids.
pub const CQA_KEY_BASE: i64 = 1_000;

/// An RNG for one named input stream of a seed, so that the streams drawn
/// from one seed are independent of each other.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ salt)
}

/// `oid{i}`, the text of order `i`'s identifier.
pub fn order_id(i: usize) -> String {
    format!("oid{i}")
}

/// `pr{p}`, the text of product `p`.
pub fn product_id(p: usize) -> String {
    format!("pr{p}")
}

/// What the checks need to know about the orders database.
pub struct Orders {
    /// Product of each order.
    pub product_of: Vec<usize>,
    /// Ground payments per referenced order: `(p_id, amount)`.
    pub paid_by: Vec<Vec<(String, i64)>>,
    /// Orders per product.
    pub orders_of: Vec<Vec<usize>>,
    /// Distinct marked nulls in `Pay.order`.
    pub nulls: usize,
}

impl Orders {
    /// `Order(o_id, product)`, `Pay(p_id, order, amount)` with
    /// [`ORDERS`]/[`PAYMENTS`] tuples and exactly [`PAY_NULLS`] payments whose
    /// order is a marked null; returns the database and its facts.
    pub fn generate(seed: u64) -> (Database, Orders) {
        let mut rng = rng(seed, "orders");
        // Every draw first, then the database, then the facts: the
        // database's allocations stay together, so that dropping it frees
        // whole pages rather than holes between facts that stay alive.
        let product_of: Vec<usize> = (0..ORDERS).map(|_| rng.gen_range(0..PRODUCTS)).collect();
        let mut null_slots = BTreeSet::new();
        while null_slots.len() < PAY_NULLS {
            null_slots.insert(rng.gen_range(0..PAYMENTS));
        }
        // `(order, amount)` per payment; `None` for a marked-null order.
        let payments: Vec<(Option<usize>, i64)> = (0..PAYMENTS)
            .map(|i| {
                let amount = rng.gen_range(1..=500i64);
                let order = (!null_slots.contains(&i)).then(|| rng.gen_range(0..ORDERS));
                (order, amount)
            })
            .collect();

        let schema = Schema::builder()
            .relation("Order", &["o_id", "product"])
            .relation("Pay", &["p_id", "order", "amount"])
            .build();
        let mut db = Database::new(schema);
        for (i, &p) in product_of.iter().enumerate() {
            db.insert(
                "Order",
                Tuple::new(vec![Value::str(order_id(i)), Value::str(product_id(p))]),
            )
            .expect("order tuples fit the schema");
        }
        let mut next_null = 0u64;
        for (i, &(order, amount)) in payments.iter().enumerate() {
            let order = order.map_or_else(
                || {
                    next_null += 1;
                    Value::null(next_null - 1)
                },
                |o| Value::str(order_id(o)),
            );
            db.insert(
                "Pay",
                Tuple::new(vec![
                    Value::str(format!("pid{i}")),
                    order,
                    Value::int(amount),
                ]),
            )
            .expect("payment tuples fit the schema");
        }

        let mut orders_of = vec![Vec::new(); PRODUCTS];
        for (i, &p) in product_of.iter().enumerate() {
            orders_of[p].push(i);
        }
        let mut paid_by = vec![Vec::new(); ORDERS];
        for (i, &(order, amount)) in payments.iter().enumerate() {
            if let Some(o) = order {
                paid_by[o].push((format!("pid{i}"), amount));
            }
        }
        let facts = Orders {
            product_of,
            paid_by,
            orders_of,
            nulls: PAY_NULLS,
        };
        (db, facts)
    }
}

/// One consistent-answer instance and its stable part: the ground tuples
/// that survive in every repair.
pub struct CqaInstance {
    pub db: Database,
    /// `R`, `S` and `T` tuples in no clash, not doomed, and null-free.
    pub stable: HashMap<&'static str, Arc<Relation>>,
    /// Stable `R ⋈ T` on the key, all four columns.
    pub stable_join: Arc<Relation>,
}

/// The clean instance both consistent-answer services start from, plus the
/// clashes and the null that turn it into the served pair.
pub struct CqaPair {
    /// Complete, [`CQA_CLASHES`] clashes: the survival-mask fold.
    pub complete: CqaInstance,
    /// One marked null and [`TWIN_CLASHES`] clashes: the row fold.
    pub twin: CqaInstance,
}

impl CqaPair {
    /// Builds the pair over `datagen::inconsistent_schema` (key `R(a)`,
    /// FD `T: a → b`, denial on `S`) by injecting clashes into a clean
    /// instance — linear in the size, unlike the random generator.
    pub fn generate(seed: u64) -> CqaPair {
        let mut rng = rng(seed, "cqa-data");
        let schema = datagen::inconsistent_schema();
        let mut clean = Database::new(schema);
        let payload = |rng: &mut StdRng| rng.gen_range(0..1_000i64);
        for i in 0..CQA_TUPLES as i64 {
            let a = CQA_KEY_BASE + i;
            let rb = payload(&mut rng);
            let tb = payload(&mut rng);
            clean.insert("R", Tuple::ints(&[a, rb])).expect("fits");
            clean.insert("S", Tuple::ints(&[a])).expect("fits");
            clean.insert("T", Tuple::ints(&[a, tb])).expect("fits");
        }
        // Distinct clash keys; alternate R (key) and T (FD) clashes.
        let mut keys = BTreeSet::new();
        while keys.len() < CQA_CLASHES + 1 {
            keys.insert(CQA_KEY_BASE + rng.gen_range(0..CQA_TUPLES as i64));
        }
        let mut keys: Vec<i64> = keys.into_iter().collect();
        // Shuffle so the clash keys are not sorted by position.
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let null_key = keys.pop().expect("one key reserved for the null");
        let clashes: Vec<(&'static str, i64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (if i % 2 == 0 { "R" } else { "T" }, k))
            .collect();

        let complete = CqaInstance::inject(&clean, &clashes, None);
        let twin = CqaInstance::inject(&clean, &clashes[..TWIN_CLASHES], Some(null_key));
        CqaPair { complete, twin }
    }
}

impl CqaInstance {
    fn inject(clean: &Database, clashes: &[(&'static str, i64)], null_key: Option<i64>) -> Self {
        let mut db = clean.clone();
        let mut unstable: BTreeMap<&'static str, BTreeSet<i64>> = BTreeMap::new();
        for &(rel, key) in clashes {
            let old = db
                .relation(rel)
                .expect("schema relation")
                .iter()
                .find(|t| t.get(0) == Some(&Value::int(key)))
                .expect("the clash key exists")
                .clone();
            let old_b = old.get(1).and_then(as_int).expect("ground payload");
            db.insert(rel, Tuple::ints(&[key, old_b + 1_000]))
                .expect("fits");
            unstable.entry(rel).or_default().insert(key);
        }
        // The denial constraint's sentinel: doomed in every repair.
        db.insert("S", Tuple::ints(&[datagen::inconsistent::FORBIDDEN]))
            .expect("fits");
        if let Some(key) = null_key {
            let r = db.relation_mut("R").expect("schema relation");
            let old = r
                .iter()
                .find(|t| t.get(0) == Some(&Value::int(key)))
                .expect("the null key exists")
                .clone();
            r.remove(&old);
            r.insert(Tuple::new(vec![Value::int(key), Value::null(0)]));
        }
        let mut stable = HashMap::new();
        for rel in ["R", "S", "T"] {
            let keep = db
                .relation(rel)
                .expect("schema relation")
                .iter()
                .filter(|t| {
                    let a = t.get(0).and_then(as_int);
                    t.is_complete()
                        && a != Some(datagen::inconsistent::FORBIDDEN)
                        && !unstable
                            .get(rel)
                            .is_some_and(|keys| a.is_some_and(|a| keys.contains(&a)))
                });
            let arity = db.schema().require(rel).expect("schema relation").arity();
            stable.insert(rel, Arc::new(Relation::from_tuples(arity, keep.cloned())));
        }
        let t_by_key: HashMap<&Value, &Tuple> = stable["T"]
            .iter()
            .map(|t| (t.get(0).expect("arity 2"), t))
            .collect();
        let stable_join = Arc::new(Relation::from_tuples(
            4,
            stable["R"].iter().filter_map(|r| {
                t_by_key
                    .get(r.get(0).expect("arity 2"))
                    .map(|t| Tuple::new(r.values().iter().chain(t.values()).cloned().collect()))
            }),
        ));
        CqaInstance {
            db,
            stable,
            stable_join,
        }
    }
}

/// The integer inside a value, if it is an integer constant.
fn as_int(v: &Value) -> Option<i64> {
    v.as_const().and_then(|c| c.as_int())
}
