//! Set-up and the untraced closed loop: every client submits its next
//! operation only after the previous one returned, for a fixed time, through
//! the public serving API alone.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engine::{CertainReport, EngineError, EngineOptions, Guarantee, Semantics};
use relmodel::Database;
use serve::{CertainService, ServeOptions};

use crate::workload::{Family, Read, Step, Workload, WriteLog};

/// What one client did and saw.
#[derive(Default)]
pub struct ClientLog {
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub families: BTreeMap<Family, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub answered: u64,
    pub exact: u64,
    pub errors: Vec<String>,
    /// The stream ran out and started over (so texts repeat).
    pub wrapped: bool,
    /// A stream of distinct texts ran out before the time was up.
    pub exhausted: bool,
    /// When each operation completed, in seconds since the common start.
    pub done_s: Vec<f64>,
}

impl ClientLog {
    pub fn merge(logs: impl IntoIterator<Item = ClientLog>) -> ClientLog {
        let mut all = ClientLog::default();
        for log in logs {
            all.read_ns.extend(log.read_ns);
            all.write_ns.extend(log.write_ns);
            for (family, n) in log.families {
                *all.families.entry(family).or_default() += n;
            }
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.answered += log.answered;
            all.exact += log.exact;
            all.errors.extend(log.errors);
            all.wrapped |= log.wrapped;
            all.exhausted |= log.exhausted;
            all.done_s.extend(log.done_s);
        }
        all
    }

    /// Records a read: its latency if answered, and whether the answer,
    /// strategy and guarantee were right. `floor` is the version that was
    /// current when the read was sent.
    pub fn read(
        &mut self,
        w: &Workload,
        read: &Read,
        result: Result<CertainReport, String>,
        elapsed: Duration,
        log: &WriteLog,
        floor: u64,
    ) {
        self.attempted += 1;
        *self.families.entry(read.family).or_default() += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => return self.fail(format!("{}: {e}", read.text)),
        };
        self.answered += 1;
        self.exact += u64::from(report.guarantee == Guarantee::Exact);
        self.read_ns.push(nanos(elapsed));
        if let Err(e) = w.check(read, &report, log, floor) {
            self.fail(e);
        }
    }

    pub fn write(&mut self, family: Family, elapsed: Duration) {
        self.attempted += 1;
        *self.families.entry(family).or_default() += 1;
        self.write_ns.push(nanos(elapsed));
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The options a read runs with on `service`.
pub fn read_options(service: &CertainService, read: &Read) -> EngineOptions {
    let options = *service.engine_options();
    match read.max_repairs {
        Some(budget) => options.with_max_repairs(budget),
        None => options,
    }
}

/// One read through the public front door: `submit` when the read asks
/// for the service's defaults, `submit_with` otherwise.
pub fn submit(
    service: &CertainService,
    semantics: Semantics,
    read: &Read,
) -> Result<CertainReport, EngineError> {
    if read.semantics == semantics && read.max_repairs.is_none() {
        service.submit(&read.text)
    } else {
        service.submit_with(&read.text, read.semantics, read_options(service, read))
    }
}

pub fn serve_options(w: &Workload) -> ServeOptions {
    ServeOptions {
        semantics: w.semantics,
        ..ServeOptions::default()
    }
}

/// Threads that warm the pool at set-up: every core, up to four, whatever
/// the number of clients.
fn warm_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Hands the generated databases to the services and makes them ready:
/// construction (which measures each snapshot), the first conflict-graph
/// build under consistent-answer semantics, and the warmed pool, split
/// among [`warm_threads`] threads.
pub fn set_up(w: &Workload, databases: Vec<Database>) -> Vec<CertainService> {
    let services: Vec<CertainService> = databases
        .into_iter()
        .map(|db| CertainService::with_options(db, serve_options(w)))
        .collect();
    if w.semantics == Semantics::ConsistentAnswers {
        for service in &services {
            let snap = service.snapshot();
            snap.context().conflict_graph(snap.database());
        }
    }
    std::thread::scope(|scope| {
        for chunk in w.warm.chunks(w.warm.len().div_ceil(warm_threads()).max(1)) {
            let services = &services;
            scope.spawn(move || {
                for &r in chunk {
                    let read = &w.reads[r as usize];
                    let service = &services[read.service];
                    submit(service, w.semantics, read)
                        .unwrap_or_else(|e| panic!("warming {}: {e}", read.text));
                }
            });
        }
    });
    services
}

/// Runs `w.clients` closed-loop clients for `seconds`, each walking its own
/// stream with `op`. A stream that runs out starts over, unless its texts
/// must be distinct: then the client stops and the run fails. Returns every
/// client's state and the wall time from the common start to the last
/// client's last completion.
pub fn closed_loop<C: Send>(
    w: &Workload,
    seconds: f64,
    make: impl Fn(usize) -> C + Sync,
    op: impl Fn(&mut C, &mut ClientLog, Step) + Sync,
) -> (Vec<(C, ClientLog)>, Duration) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let finished: Vec<(C, ClientLog, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let (make, op) = (&make, &op);
                scope.spawn(move || {
                    let stream = &w.streams[c];
                    let mut state = make(c);
                    let mut log = ClientLog::default();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        if i == stream.len() {
                            if w.unique_texts {
                                // The operation that cannot be sent fails.
                                log.attempted += 1;
                                log.failed += 1;
                                log.exhausted = true;
                                break;
                            }
                            i = 0;
                            log.wrapped = true;
                        }
                        op(&mut state, &mut log, stream[i]);
                        log.done_s.push(start.elapsed().as_secs_f64());
                        i += 1;
                    }
                    (state, log, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = finished.iter().map(|f| f.2).max().unwrap_or(start);
    (
        finished.into_iter().map(|(c, l, _)| (c, l)).collect(),
        end - start,
    )
}

/// The untraced run: the serving API and nothing else inside the timers.
pub fn run(w: &Workload, services: &[CertainService], seconds: f64) -> (ClientLog, Duration) {
    let log = WriteLog::default();
    let (clients, wall) = closed_loop(
        w,
        seconds,
        |_| (),
        |_, client, step| match step {
            Step::Read(r) => {
                let read = &w.reads[r as usize];
                let service = &services[read.service];
                let floor = service.version();
                let started = Instant::now();
                let result = submit(service, w.semantics, read);
                let elapsed = started.elapsed();
                let result = result.map_err(|e| e.to_string());
                client.read(w, read, result, elapsed, &log, floor);
            }
            Step::Write(i) => {
                let write = &w.writes[i as usize];
                let started = Instant::now();
                services[0].update(|db| {
                    write.apply(db);
                    log.push(i);
                });
                client.write(write.family(), started.elapsed());
            }
        },
    );
    (ClientLog::merge(clients.into_iter().map(|(_, l)| l)), wall)
}
