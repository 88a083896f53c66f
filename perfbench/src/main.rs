//! The serving benchmark: seeded workloads driven through
//! `CertainService::submit` / `submit_with` / `update`, every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_reads|cold_reads|read_write|cqa> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end metrics,
//! measured in [`PARTS`] processes one after the other; with `--trace 1` it
//! runs the same streams untraced for half the time and traced (see
//! `trace.rs`) for the other half, and reports the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong answer,
//! strategy or guarantee makes `correct` false and the exit code 1.
//! `METRICS.md` says which end-to-end metric each per-layer metric should
//! move, and on which workload.

mod drive;
mod gen;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use drive::ClientLog;
use relmodel::Database;
use serve::CertainService;
use workload::{Family, Workload, WORKLOADS};

/// Processes an untraced run is made of, one after the other, each
/// generating the inputs, setting up and serving for `--seconds / PARTS`.
/// On a shared 2-vCPU machine one process can run its whole life up to 1.5
/// times slower than the next (ten seeds in one process each put the
/// spread of `read_p50_us` on `cold_reads` at 0.28); several processes per
/// run average that out.
const PARTS: usize = 4;

/// How long each process repeats its set-ups before serving.
const SETUP_WINDOW_S: f64 = 1.0;

/// Starts the line on which a part reports its figures to the run.
const PART_LINE: &str = "part-figures";

/// Metrics as (name, value, unit), in `BENCHMARK.json` order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes an untraced run starts: which part this is.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let part = match flags.remove("--part") {
        Some(k) => Some(k.parse().map_err(|e| format!("--part: {e}"))?),
        None => None,
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        part,
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Returns the heap's free pages to the system, so that memory the
/// measured loop does not use stops counting as resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only hands free
    // heap pages back to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Restarts `VmHWM` from the current resident size, so that it covers what
/// follows. Returns false where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `/proc/self/status` field `field` (`VmHWM`, `VmRSS`), in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the operation mix, error details and latency percentiles with
/// their sample counts; returns (p50, p95) of the reads in µs.
fn describe(label: &str, log: &mut ClientLog, wall: Duration) -> (f64, f64) {
    log.read_ns.sort_unstable();
    log.write_ns.sort_unstable();
    let mix: Vec<String> = log
        .families
        .iter()
        .map(|(f, n)| format!("{}={n}", Family::name(*f)))
        .collect();
    println!(
        "{label}: {} ops in {:.3} s; mix {}{}",
        log.attempted,
        wall.as_secs_f64(),
        mix.join(" "),
        if log.wrapped { " (stream wrapped)" } else { "" }
    );
    if log.exhausted {
        eprintln!("{label}: FAILED: a stream of distinct texts ran out before the time was up");
    }
    let mut windows = vec![0u32; wall.as_secs_f64().ceil() as usize];
    for &t in &log.done_s {
        if let Some(slot) = windows.get_mut(t as usize) {
            *slot += 1;
        }
    }
    println!("{label}: ops per 1-s window {windows:?}");
    let reads = (
        percentile(&log.read_ns, 50.0) / 1e3,
        percentile(&log.read_ns, 95.0) / 1e3,
    );
    println!(
        "{label}: read_p50_us {:.1} read_p95_us {:.1} (n={})",
        reads.0,
        reads.1,
        log.read_ns.len()
    );
    if !log.write_ns.is_empty() {
        println!(
            "{label}: write_p50_us {:.1} write_p95_us {:.1} (n={})",
            percentile(&log.write_ns, 50.0) / 1e3,
            percentile(&log.write_ns, 95.0) / 1e3,
            log.write_ns.len()
        );
    }
    println!(
        "{label}: error_rate {} ({} failed of {})",
        log.failed as f64 / log.attempted.max(1) as f64,
        log.failed,
        log.attempted
    );
    for e in &log.errors {
        eprintln!("{label}: MISMATCH {e}");
    }
    reads
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ops_per_s(log: &ClientLog, wall: Duration) -> f64 {
    log.attempted as f64 / wall.as_secs_f64().max(1e-9)
}

/// Sets the services up again and again, each time on a fresh copy of
/// `databases`, until [`SETUP_WINDOW_S`] has passed; pushes each set-up's
/// time to `samples` and returns the services the last one made.
fn set_ups(w: &Workload, databases: &[Database], samples: &mut Vec<f64>) -> Vec<CertainService> {
    let window = Instant::now();
    let mut services = Vec::new();
    while services.is_empty() || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(std::mem::take(&mut services));
        let copy = databases.to_vec();
        let started = Instant::now();
        services = drive::set_up(w, copy);
        samples.push(started.elapsed().as_secs_f64());
    }
    services
}

/// One part of an untraced run: set-ups, then the closed loop on the
/// services the last one made; the figures go to standard output on one
/// [`PART_LINE`]. The part's `setup_s` is its fastest set-up: a set-up of a
/// few milliseconds runs at one of two speeds up to twice apart, each for a
/// fraction of a second, and the fastest of a second's worth meets the
/// faster one. `VmHWM` restarts once the generated databases are gone, so
/// `peak_rss_mb` covers the serving run. Returns whether every operation
/// succeeded.
fn part(w: &Workload, databases: Vec<Database>, seconds: f64) -> bool {
    let mut setups: Vec<f64> = Vec::new();
    let services = set_ups(w, &databases, &mut setups);
    drop(databases);
    println!("setup_s: {} set-ups, samples {setups:?}", setups.len());
    release_free_memory();
    if !reset_peak_rss() {
        println!("peak_rss_mb: VmHWM could not be reset; it includes set-up");
    }
    let resident = status_mb("VmRSS");
    let (mut log, wall) = drive::run(w, &services, seconds);
    let peak_rss = status_mb("VmHWM");
    println!(
        "resident {resident:.1} MB when the loop started, {:.1} MB when it ended",
        status_mb("VmRSS")
    );
    describe("untraced", &mut log, wall);
    let read_ns: Vec<String> = log.read_ns.iter().map(u64::to_string).collect();
    println!(
        "{PART_LINE} setup_s={} ops_per_s={} peak_rss_mb={peak_rss} attempted={} failed={} \
         answered={} exact={} read_ns={}",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        ops_per_s(&log, wall),
        log.attempted,
        log.failed,
        log.answered,
        log.exact,
        read_ns.join(",")
    );
    log.failed == 0 && log.attempted > 0
}

/// A part's figures, as its [`PART_LINE`] gives them.
#[derive(Default)]
struct PartFigures {
    setup_s: f64,
    ops_per_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    answered: u64,
    exact: u64,
    read_ns: Vec<u64>,
}

fn parse_part(line: &str) -> Option<PartFigures> {
    let mut part = PartFigures::default();
    for field in line.strip_prefix(PART_LINE)?.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "setup_s" => part.setup_s = value.parse().ok()?,
            "ops_per_s" => part.ops_per_s = value.parse().ok()?,
            "peak_rss_mb" => part.peak_rss_mb = value.parse().ok()?,
            "attempted" => part.attempted = value.parse().ok()?,
            "failed" => part.failed = value.parse().ok()?,
            "answered" => part.answered = value.parse().ok()?,
            "exact" => part.exact = value.parse().ok()?,
            "read_ns" => {
                part.read_ns = value
                    .split(',')
                    .filter(|v| !v.is_empty())
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .ok()?;
            }
            _ => return None,
        }
    }
    Some(part)
}

/// The untraced run: [`PARTS`] processes of this binary, one after the
/// other, each running [`part`] on the same seed for `--seconds / PARTS`.
/// `setup_s` is the fastest part's; `ops_per_s` and `peak_rss_mb` are the
/// parts' medians; the latency percentiles and `exact_share` pool every
/// part's reads. Returns (attempted, failed, metrics).
fn untraced(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let seconds = (args.seconds / PARTS as f64).to_string();
    let mut parts = Vec::new();
    for k in 0..PARTS {
        let seed = args.seed.to_string();
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args([
                "--seconds",
                &seconds,
                "--trace",
                "0",
                "--part",
                &k.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("part {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with(PART_LINE)) {
            println!("[part {k}] {line}");
        }
        let figures = stdout
            .lines()
            .find_map(parse_part)
            .ok_or_else(|| format!("part {k} reported no figures ({})", out.status))?;
        if !out.status.success() && figures.failed == 0 {
            return Err(format!("part {k} failed: {}", out.status));
        }
        parts.push(figures);
    }
    let mut read_ns: Vec<u64> = parts
        .iter()
        .flat_map(|p| p.read_ns.iter().copied())
        .collect();
    read_ns.sort_unstable();
    let (p50, p95) = (
        percentile(&read_ns, 50.0) / 1e3,
        percentile(&read_ns, 95.0) / 1e3,
    );
    let (exact, answered) = parts
        .iter()
        .fold((0, 0), |(e, a), p| (e + p.exact, a + p.answered));
    let ops: Vec<f64> = parts.iter().map(|p| p.ops_per_s).collect();
    println!("parts: ops_per_s {ops:?}");
    println!(
        "pooled reads: read_p50_us {p50:.1} read_p95_us {p95:.1} (n={}); {exact} exact of {answered} answered",
        read_ns.len()
    );
    let metrics = vec![
        (
            "setup_s",
            parts
                .iter()
                .map(|p| p.setup_s)
                .fold(f64::INFINITY, f64::min),
            "s",
        ),
        ("ops_per_s", median(ops), "1/s"),
        ("read_p50_us", p50, "us"),
        ("read_p95_us", p95, "us"),
        (
            "exact_share",
            exact as f64 / answered.max(1) as f64,
            "share",
        ),
        (
            "peak_rss_mb",
            median(parts.iter().map(|p| p.peak_rss_mb).collect()),
            "MB",
        ),
    ];
    let attempted = parts.iter().map(|p| p.attempted).sum();
    let failed = parts.iter().map(|p| p.failed).sum();
    Ok((attempted, failed, metrics))
}

/// The traced run: half the time untraced (the reference for
/// `trace.overhead`), half traced; spans go to `perfbench/out/`.
fn traced(w: &Workload, databases: Vec<Database>, seconds: f64, seed: u64) -> (ClientLog, Metrics) {
    let half = seconds / 2.0;
    let services = drive::set_up(w, databases.clone());
    let (mut plain, plain_wall) = drive::run(w, &services, half);
    drop(services);
    describe("untraced", &mut plain, plain_wall);

    let epoch = Instant::now();
    let mut setup = trace::Recorder::new(epoch, 0);
    let services = trace::set_up(w, databases, &mut setup);
    let (stream, mut log, wall) = trace::run(w, &services, half, epoch);
    describe("traced", &mut log, wall);
    print!("{}", trace::summary(&stream));

    let metrics = trace::layer_metrics(
        &setup,
        &stream,
        ops_per_s(&plain, plain_wall),
        ops_per_s(&log, wall),
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", w.name));
    let all: Vec<&trace::Recorder> = std::iter::once(&setup).chain(&stream).collect();
    match std::fs::create_dir_all(&dir).and_then(|()| trace::write_spans(&path, &all)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    (ClientLog::merge([plain, log]), metrics)
}

/// Prints every metric and, last, the result line; the exit code says
/// whether every operation succeeded.
fn report(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> ExitCode {
    for (name, value, unit) in metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", json_line(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace && args.part.is_none() {
        return match untraced(&args) {
            Ok((attempted, failed, metrics)) => report(attempted, failed, &metrics),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let generated = Instant::now();
    let (w, databases) = Workload::generate(&args.workload, args.seed, args.seconds)
        .expect("workload name was checked");
    println!(
        "workload {} seed {} seconds {} trace {} clients {} cores {}; inputs generated in {:.3} s",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        generated.elapsed().as_secs_f64()
    );
    if args.part.is_some() {
        return if part(&w, databases, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let (log, metrics) = traced(&w, databases, args.seconds, args.seed);
    report(log.attempted, log.failed, &metrics)
}
