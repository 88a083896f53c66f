//! The traced run: the same operation streams, replayed by calling the
//! public functions each layer exposes, in the order `submit` and `update`
//! call them and on the same snapshot, with a span around every call.
//!
//! Spans live in memory (one buffer per client) and are written out when
//! the run ends. Of the calls `Engine::plan_prepared` makes inside, those
//! its report carries no figure for — the analyzer, scan transposition and
//! the ground split — are replayed as probe spans right before it. The
//! strategy's time and counts come from the report's `EngineStats`: the
//! strategy becomes a child span of `plan_prepared` as long as its
//! `execute_time`, and `engine.overhead_us` is `plan_prepared` minus it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use engine::{CertainReport, DbContext, EngineOptions, Semantics, StrategyKind};
use relalgebra::analysis;
use relalgebra::classify::QueryClass;
use relalgebra::plan::PlannedQuery;
use releval::exec::OpStats;
use releval::split::inline_ground_subtrees;
use relmodel::batch::ColumnBatch;
use relmodel::Database;
use repairs::ConflictGraph;
use serve::{normalize, CertainService, PlanCache, ResultKey, ServeOptions, ShardedResultCache};

use crate::drive::{self, closed_loop, ClientLog};
use crate::workload::{Read, Step, Workload, WriteLog};

/// Answers at least this many rows make a cache hit "large".
const LARGE_ANSWER: usize = 1_000;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How an operation went through the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    HitSmall,
    HitLarge,
    Miss,
    Write,
    Setup,
}

/// One operation: its root span and what happened.
pub struct OpRecord {
    pub root: usize,
    pub kind: OpKind,
}

/// A span buffer and counters: one for set-up, one per client for the
/// measured stream.
pub struct Recorder {
    epoch: Instant,
    pub client: usize,
    pub spans: Vec<Span>,
    pub ops: Vec<OpRecord>,
    stack: Vec<usize>,
    next_op: u64,
    /// Counts taken at layer boundaries: sum and number of samples.
    pub counts: BTreeMap<&'static str, (f64, u64)>,
    /// `plan_prepared` minus the strategy's `execute_time`, per cache
    /// miss, in ns.
    overhead_ns: Vec<u64>,
}

impl Recorder {
    pub fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder {
            epoch,
            client,
            spans: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            counts: BTreeMap::new(),
            overhead_ns: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        drive::nanos(self.epoch.elapsed())
    }

    fn enter(&mut self, name: &'static str) {
        let op = ((self.client as u64) << 40) | self.next_op;
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) -> u64 {
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now();
        self.spans[id].ns()
    }

    /// Times `f` as a child of the open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Files a child of the span closed last that ends with it and lasts
    /// `ns`: a phase the callee timed itself. Returns the parent's
    /// duration.
    fn inside_last(&mut self, name: &'static str, ns: u64) -> u64 {
        let parent = self.spans.len() - 1;
        let (op, end_ns, parent_ns) = {
            let p = &self.spans[parent];
            (p.op, p.end_ns, p.ns())
        };
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns: end_ns - ns.min(parent_ns),
            end_ns,
        });
        parent_ns
    }

    fn begin_op(&mut self, name: &'static str) {
        debug_assert!(self.stack.is_empty());
        self.enter(name);
    }

    /// Closes every span still open (an error path may leave some) and
    /// files the operation.
    fn end_op(&mut self, kind: OpKind) {
        let root = self.stack[0];
        while !self.stack.is_empty() {
            self.exit();
        }
        self.ops.push(OpRecord { root, kind });
        self.next_op += 1;
    }

    fn count(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_default();
        slot.0 += value;
        slot.1 += 1;
    }

    fn op_stats(&mut self, ops: &OpStats) {
        self.count("releval.build_rows", ops.build_rows as f64);
        self.count("releval.probe_rows", ops.probe_rows as f64);
        self.count("releval.tables_built", ops.tables_built as f64);
        self.count("releval.tables_reused", ops.tables_reused as f64);
    }
}

/// A service plus the benchmark's own replica of its two caches, which the
/// traced read path consults exactly where `submit` consults the
/// service's.
pub struct TracedService {
    pub service: CertainService,
    plans: RwLock<PlanCache>,
    results: ShardedResultCache,
}

/// Traced set-up: construction, the snapshot census and (for consistent
/// answers) the conflict graph, each timed on its own, then the warmed
/// pool through the traced read path.
pub fn set_up(w: &Workload, databases: Vec<Database>, rec: &mut Recorder) -> Vec<TracedService> {
    let options = drive::serve_options(w);
    let services: Vec<TracedService> = databases
        .into_iter()
        .map(|db| {
            rec.begin_op("serve.construct");
            let service = rec.span("serve.new", || {
                CertainService::with_options(db, options.clone())
            });
            let snap = service.snapshot();
            rec.span("engine.census", || {
                black_box(DbContext::of(snap.database()))
            });
            if w.semantics == Semantics::ConsistentAnswers {
                rec.span("repairs.graph", || {
                    black_box(ConflictGraph::build(snap.database()))
                });
                rec.span("engine.conflict_graph", || {
                    snap.context().conflict_graph(snap.database()).is_some()
                });
            }
            rec.end_op(OpKind::Setup);
            TracedService {
                service,
                plans: RwLock::new(PlanCache::default()),
                results: ShardedResultCache::new(ServeOptions::default().max_result_entries),
            }
        })
        .collect();
    for &r in &w.warm {
        let read = &w.reads[r as usize];
        read_traced(&services[read.service], read, rec)
            .unwrap_or_else(|e| panic!("warming {}: {e}", read.text));
    }
    services
}

/// The traced replay of the streams for `seconds`.
pub fn run(
    w: &Workload,
    services: &[TracedService],
    seconds: f64,
    epoch: Instant,
) -> (Vec<Recorder>, ClientLog, Duration) {
    let log = WriteLog::default();
    let (clients, wall) = closed_loop(
        w,
        seconds,
        |c| Recorder::new(epoch, c + 1),
        |rec, client, step| match step {
            Step::Read(r) => {
                let read = &w.reads[r as usize];
                let floor = services[read.service].service.version();
                let started = Instant::now();
                let result = read_traced(&services[read.service], read, rec);
                client.read(w, read, result, started.elapsed(), &log, floor);
            }
            Step::Write(i) => {
                let started = Instant::now();
                write_traced(&services[0], w, i, &log, rec);
                client.write(w.writes[i as usize].family(), started.elapsed());
            }
        },
    );
    let (recorders, logs): (Vec<_>, Vec<_>) = clients.into_iter().unzip();
    (recorders, ClientLog::merge(logs), wall)
}

/// `CertainService::submit_with`, layer by layer.
fn read_traced(
    ts: &TracedService,
    read: &Read,
    rec: &mut Recorder,
) -> Result<CertainReport, String> {
    let options = drive::read_options(&ts.service, read);
    let snap = ts.service.snapshot();
    rec.begin_op("serve.submit");
    let normalized = rec.span("serve.normalize", || normalize(&read.text));
    let key = ResultKey {
        query: normalized,
        version: snap.version(),
        semantics: read.semantics,
        options_fp: options.fingerprint(),
    };
    let cached = rec.span("serve.result_lookup", || ts.results.get(&key));
    if let Some(cached) = cached {
        rec.count("serve.result_hit", 1.0);
        rec.count("serve.plan_hit", 1.0);
        let mut report = rec.span("serve.report_clone", || (*cached).clone());
        report.stats.cache_hit = true;
        report.stats.plan_cache_hit = true;
        let large = report.answers.len() >= LARGE_ANSWER;
        rec.end_op(if large {
            OpKind::HitLarge
        } else {
            OpKind::HitSmall
        });
        return Ok(report);
    }
    rec.count("serve.result_hit", 0.0);
    let result = miss_traced(ts, read, &snap, key, options, rec);
    rec.end_op(OpKind::Miss);
    result
}

/// The cache-miss half of the read path: plan cache, then parse and plan,
/// then the engine, then the result-cache insert.
fn miss_traced(
    ts: &TracedService,
    read: &Read,
    snap: &serve::Snapshot,
    key: ResultKey,
    options: EngineOptions,
    rec: &mut Recorder,
) -> Result<CertainReport, String> {
    let cached_plan = rec.span("serve.plan_lookup", || {
        ts.plans
            .read()
            .expect("plan cache lock poisoned")
            .get(0, &key.query)
    });
    rec.count("serve.plan_hit", f64::from(u8::from(cached_plan.is_some())));
    let (plan, plan_hit) = match cached_plan {
        Some(plan) => (plan, true),
        None => {
            let expr = rec
                .span("qparser.parse", || qparser::parse(&read.text))
                .map_err(|e| e.to_string())?;
            let schema = snap.database().schema();
            let planned = rec
                .span("relalgebra.plan", || PlannedQuery::new(expr, schema))
                .map_err(|e| e.to_string())?;
            let plan = rec.span("serve.plan_insert", || {
                ts.plans.write().expect("plan cache lock poisoned").insert(
                    0,
                    key.query.clone(),
                    Arc::new(planned),
                )
            });
            (plan, false)
        }
    };

    // Probes: what `plan_prepared` does inside that its report does not
    // time, one layer at a time.
    let db = snap.database();
    let analysis = rec.span("relalgebra.analyze", || {
        analysis::analyze(plan.expr(), snap.context().census())
    });
    for name in plan.expr().relations() {
        let relation = db.relation(&name).expect("plans scan schema relations");
        let rows = rec.span("relmodel.transpose", || {
            black_box(ColumnBatch::from_relation(relation)).len()
        });
        rec.count("relmodel.transpose_rows", rows as f64);
    }
    if read.semantics == Semantics::Cwa && analysis.has_inlinable_subtree() {
        rec.span("releval.split", || {
            let outcome = inline_ground_subtrees(plan.expr(), db, snap.context().census());
            black_box(PlannedQuery::new(outcome.expr, db.schema()).is_ok())
        });
    }

    let report = rec.span("engine.plan_prepared", || {
        snap.engine(read.semantics, options).plan_prepared(&plan)
    });
    let mut report = report.map_err(|e| e.to_string())?;
    strategy_stats(&report, read.semantics, db, rec);
    report.stats.snapshot_version = Some(snap.version());
    report.stats.plan_cache_hit = plan_hit;
    let cached = rec.span("serve.report_clone", || Arc::new(report.clone()));
    rec.span("serve.result_insert", || ts.results.insert(key, cached));
    Ok(report)
}

/// Files the strategy `plan_prepared` ran, as a child span as long as its
/// `execute_time`, with the counts its `EngineStats` carry.
fn strategy_stats(report: &CertainReport, semantics: Semantics, db: &Database, rec: &mut Recorder) {
    let stats = &report.stats;
    let owa_naive = report.class == QueryClass::RaCwa && semantics == Semantics::Owa;
    let name = match report.strategy {
        StrategyKind::NaiveExact => "releval.exec",
        StrategyKind::SoundApproximation if owa_naive => "releval.exec",
        StrategyKind::SoundApproximation => "releval.approx",
        StrategyKind::SymbolicCTable => "releval.symbolic",
        StrategyKind::RepairEnumeration if db.is_complete() => "repairs.fold_mask",
        StrategyKind::RepairEnumeration => "repairs.fold_row",
        StrategyKind::ConflictFreeCore => "repairs.core",
        // A strategy no workload expects; the run's checks report it.
        _ => "engine.strategy",
    };
    let execute_ns = drive::nanos(stats.execute_time);
    let total_ns = rec.inside_last(name, execute_ns);
    rec.overhead_ns.push(total_ns.saturating_sub(execute_ns));
    if name.starts_with("releval.") && name != "releval.symbolic" {
        if let Some(ops) = &stats.physical_ops {
            rec.op_stats(ops);
        }
        rec.count("releval.answer_rows", report.answers.len() as f64);
    }
    let counts = [
        ("ctables.solver_calls", stats.solver_calls),
        ("ctables.condition_atoms", stats.condition_atoms),
        ("ctables.simplification_wins", stats.simplification_wins),
        (
            "repairs.visited",
            stats.repairs_enumerated.map(|n| n as usize),
        ),
        ("repairs.batched", stats.repairs_batched.map(|n| n as usize)),
    ];
    for (count, value) in counts {
        if let Some(value) = value {
            rec.count(count, value as f64);
        }
    }
}

/// `CertainService::update`, with the database clone and the census it
/// makes replayed as probes on the same snapshot.
fn write_traced(ts: &TracedService, w: &Workload, i: u32, log: &WriteLog, rec: &mut Recorder) {
    let write = &w.writes[i as usize];
    rec.begin_op("serve.update");
    let prev = ts.service.snapshot();
    let copy = rec.span("serve.db_clone", || (**prev.database()).clone());
    rec.span("perfbench.discard", || drop(copy));
    let version = rec.span("serve.publish", || {
        ts.service.update(|db| {
            write.apply(db);
            log.push(i);
        })
    });
    let next = ts.service.snapshot();
    rec.span("engine.census", || {
        black_box(DbContext::of(next.database()))
    });
    rec.span("serve.result_prune", || ts.results.retain_version(version));
    rec.end_op(OpKind::Write);
}

/// Per-span-name totals over a set of recorders.
struct Totals {
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Self time per layer (the part of a span's time its children do not
    /// cover), with the roots' own time under `unattributed`.
    self_by_layer: BTreeMap<&'static str, u64>,
    root_ns: u64,
    root_self_ns: u64,
}

fn totals(recorders: &[Recorder]) -> Totals {
    let mut t = Totals {
        by_name: BTreeMap::new(),
        self_by_layer: BTreeMap::new(),
        root_ns: 0,
        root_self_ns: 0,
    };
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        for (i, span) in rec.spans.iter().enumerate() {
            let slot = t.by_name.entry(span.name).or_default();
            slot.0 += span.ns();
            slot.1 += 1;
            let own = span.ns().saturating_sub(child_ns[i]);
            let layer = if span.parent.is_none() {
                t.root_ns += span.ns();
                t.root_self_ns += own;
                "unattributed"
            } else {
                span.name.split('.').next().unwrap_or(span.name)
            };
            *t.self_by_layer.entry(layer).or_default() += own;
        }
    }
    t
}

impl Totals {
    /// Mean duration in µs of the spans called `name` (0 when none ran).
    fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3)
    }

    fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, n)| n)
    }
}

/// Mean of the count `name` over the samples taken (0 when none were).
fn mean_count(recorders: &[Recorder], name: &str) -> f64 {
    let (sum, n) = recorders
        .iter()
        .filter_map(|r| r.counts.get(name))
        .fold((0.0, 0), |(s, n), &(v, k)| (s + v, n + k));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Median over the stream's cache misses of `plan_prepared` minus the
/// strategy's `execute_time`, in µs; the median keeps one contended sample
/// from swinging it.
fn median_overhead_us(recorders: &[Recorder]) -> f64 {
    let mut all: Vec<u64> = recorders
        .iter()
        .flat_map(|r| r.overhead_ns.iter().copied())
        .collect();
    if all.is_empty() {
        return 0.0;
    }
    all.sort_unstable();
    all[all.len() / 2] as f64 / 1e3
}

/// Mean root-span duration in µs of the stream's operations of `kind`.
fn op_mean_us(recorders: &[Recorder], kind: OpKind) -> f64 {
    let (ns, n) = recorders
        .iter()
        .flat_map(|r| r.ops.iter().map(move |op| (r, op)))
        .filter(|(_, op)| op.kind == kind)
        .fold((0u64, 0u64), |(s, n), (r, op)| {
            (s + r.spans[op.root].ns(), n + 1)
        });
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
/// `setup` holds the set-up recorder; `stream` the clients'.
pub fn layer_metrics(
    setup: &Recorder,
    stream: &[Recorder],
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let s = totals(stream);
    let setup_totals = totals(std::slice::from_ref(setup));
    // The census and the conflict graph run at set-up (and, for the census,
    // at every publish): their means cover both phases.
    let both = |name: &str| {
        let (ns, n) = [&s, &setup_totals]
            .iter()
            .filter_map(|t| t.by_name.get(name))
            .fold((0u64, 0u64), |(a, b), &(ns, n)| (a + ns, b + n));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let count = |name: &str| mean_count(stream, name);
    let unattributed = if s.root_ns == 0 {
        0.0
    } else {
        s.root_self_ns as f64 / s.root_ns as f64
    };
    vec![
        ("serve.normalize_us", s.mean_us("serve.normalize"), "us"),
        (
            "serve.hit_small_us",
            op_mean_us(stream, OpKind::HitSmall),
            "us",
        ),
        (
            "serve.hit_large_us",
            op_mean_us(stream, OpKind::HitLarge),
            "us",
        ),
        (
            "serve.report_clone_us",
            s.mean_us("serve.report_clone"),
            "us",
        ),
        ("serve.result_hit_rate", count("serve.result_hit"), "share"),
        ("serve.plan_hit_rate", count("serve.plan_hit"), "share"),
        ("serve.publish_us", s.mean_us("serve.publish"), "us"),
        ("serve.db_clone_us", s.mean_us("serve.db_clone"), "us"),
        ("engine.census_us", both("engine.census"), "us"),
        ("engine.overhead_us", median_overhead_us(stream), "us"),
        ("qparser.parse_us", s.mean_us("qparser.parse"), "us"),
        ("relalgebra.plan_us", s.mean_us("relalgebra.plan"), "us"),
        (
            "relalgebra.analyze_us",
            s.mean_us("relalgebra.analyze"),
            "us",
        ),
        (
            "relmodel.transpose_us",
            s.mean_us("relmodel.transpose"),
            "us",
        ),
        (
            "relmodel.transpose_rows",
            count("relmodel.transpose_rows"),
            "rows",
        ),
        ("releval.exec_us", s.mean_us("releval.exec"), "us"),
        ("releval.build_rows", count("releval.build_rows"), "rows"),
        ("releval.probe_rows", count("releval.probe_rows"), "rows"),
        (
            "releval.tables_built",
            count("releval.tables_built"),
            "count",
        ),
        (
            "releval.tables_reused",
            count("releval.tables_reused"),
            "count",
        ),
        ("releval.answer_rows", count("releval.answer_rows"), "rows"),
        ("releval.approx_us", s.mean_us("releval.approx"), "us"),
        ("releval.split_us", s.mean_us("releval.split"), "us"),
        ("releval.symbolic_us", s.mean_us("releval.symbolic"), "us"),
        (
            "ctables.solver_calls",
            count("ctables.solver_calls"),
            "count",
        ),
        (
            "ctables.condition_atoms",
            count("ctables.condition_atoms"),
            "count",
        ),
        (
            "ctables.simplification_wins",
            count("ctables.simplification_wins"),
            "count",
        ),
        ("repairs.graph_us", both("repairs.graph"), "us"),
        ("repairs.fold_mask_us", s.mean_us("repairs.fold_mask"), "us"),
        ("repairs.fold_row_us", s.mean_us("repairs.fold_row"), "us"),
        ("repairs.core_us", s.mean_us("repairs.core"), "us"),
        ("repairs.visited", count("repairs.visited"), "count"),
        ("repairs.batched", count("repairs.batched"), "count"),
        (
            "trace.overhead",
            untraced_ops_per_s / traced_ops_per_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        ("trace.unattributed_share", unattributed, "share"),
    ]
}

/// A human-readable table: calls, mean and total per span name, and self
/// time per layer, over the measured stream.
pub fn summary(stream: &[Recorder]) -> String {
    let t = totals(stream);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traced spans over the stream (name: calls, mean us, total ms)"
    );
    for (name, &(ns, n)) in &t.by_name {
        let _ = writeln!(
            out,
            "  {name:<24} {n:>8} {:>12.1} {:>10.1}",
            ns as f64 / n as f64 / 1e3,
            ns as f64 / 1e6
        );
    }
    let _ = writeln!(out, "self time per layer (ms, share of root time)");
    for (layer, &ns) in &t.self_by_layer {
        let _ = writeln!(
            out,
            "  {layer:<24} {:>10.1} {:>7.3}",
            ns as f64 / 1e6,
            ns as f64 / t.root_ns.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  (calls of serve.submit: {})",
        t.calls("serve.submit")
    );
    out
}

/// Every span as one tab-separated line: client (0 is set-up), op, span
/// id, parent id, name, start and end in ns since the run's epoch.
pub fn write_spans(path: &std::path::Path, recorders: &[&Recorder]) -> std::io::Result<()> {
    use std::io::Write as _;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "client\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for rec in recorders {
        for (i, span) in rec.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                rec.client, span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}
