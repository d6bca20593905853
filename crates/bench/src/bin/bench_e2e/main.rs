//! `bench_e2e` — the end-to-end and per-layer benchmark of the MEDA routing
//! pipeline (see README.md beside this file).
//!
//! ```text
//! bench_e2e --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//! bench_e2e --smoke                       every workload for about 1 s
//! bench_e2e --repeat N [--workload ..]    fresh process per run, quartiles
//! bench_e2e --verify-counts [--workload ..]
//! bench_e2e selftest-inject --layer <layer> [--seconds S]
//! ```
//!
//! `--seconds S` fixes the amount of work, not its duration: a run does
//! the passes or requests the reference machine completes in `S` seconds.
//! One workload runs in one process on one thread. The run prints every
//! metric as `name value unit`, writes `target/bench-e2e/<workload>.json`
//! (plus `.trace.jsonl` and `.layers.json` when traced), and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It exits
//! nonzero when an output check fails.
#![forbid(unsafe_code)]

mod metrics;
mod serve;
mod sim;
mod stats;
mod synth;
mod trace;
mod workload;
mod wrap;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use meda_telemetry::{Json, Summary as Telemetry};

use crate::trace::{now_ns, Snapshot};
use crate::workload::{units_for, Workload};

/// Where runs write their reports, traces and the serve cache.
pub const OUT_DIR: &str = "target/bench-e2e";

const WORKLOADS: [&str; 4] = ["reuse-faults", "fleet-n4", "serve-mixed", "synth-paper"];

/// Seconds of work per run on the reference machine unless `--seconds`
/// says otherwise; the same value as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Seconds of work per selftest run, and runs per side: a twofold
/// slowdown stands far above the noise of five short runs.
const SELFTEST_SECONDS: f64 = 5.0;
const SELFTEST_RUNS: u64 = 5;

/// Set-up repeats at least this often, and for at least `SETUP_MIN_NS`
/// (capped at `SETUP_MAX_REPS`); `setup_s` is the median. A set-up of a
/// few milliseconds otherwise samples the host's speed at one instant,
/// and that swings by half from one second to the next; over one second
/// the host was at times slow for more than half of it.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_NS: u64 = 3_000_000_000;
const SETUP_MAX_REPS: usize = 10_000;

/// Seed-1 exact counts on fixed work, checked by `--verify-counts`.
const LEDGER: &str = include_str!("ledger.json");
const LEDGER_SEED: u64 = 1;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<u32>,
    verify_counts: bool,
    inject: Option<&'static str>,
    selftest: Option<&'static str>,
}

fn injectable(name: &str) -> Result<&'static str, String> {
    trace::INJECTABLE
        .iter()
        .copied()
        .find(|l| *l == name)
        .ok_or_else(|| format!("unknown layer {name:?}; one of {:?}", trace::INJECTABLE))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        verify_counts: false,
        inject: None,
        selftest: None,
    };
    let mut selftest = false;
    let mut layer = None;
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag}: bad number {s:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "selftest-inject" => selftest = true,
            "--workload" => o.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                let s = value(&mut it, arg)?;
                o.seed = s.parse().map_err(|_| format!("--seed: bad seed {s:?}"))?;
            }
            "--seconds" => o.seconds = Some(number(value(&mut it, arg)?, arg)?.max(0.05)),
            "--trace" => {
                o.trace = it
                    .next_if(|s| matches!(s.as_str(), "0" | "1"))
                    .is_none_or(|s| s == "1");
            }
            "--repeat" => o.repeat = Some(number(value(&mut it, arg)?, arg)?.max(1.0) as u32),
            "--smoke" => o.seconds = Some(1.0),
            "--verify-counts" => o.verify_counts = true,
            "--inject" => o.inject = Some(injectable(&value(&mut it, arg)?)?),
            "--layer" => layer = Some(injectable(&value(&mut it, arg)?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if selftest {
        o.selftest = Some(layer.ok_or("selftest-inject needs --layer")?);
    }
    if let Some(w) = &o.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {WORKLOADS:?} or all"
            ));
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(DEFAULT_SECONDS)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(layer) = o.selftest {
        selftest_inject(layer, &o)
    } else if o.verify_counts {
        verify_counts(&o)
    } else if o.repeat.is_some() {
        repeat(&o)
    } else {
        match o.workload.as_deref() {
            Some(w) if w != "all" => run_in_process(w, &o),
            _ => run_all(&o),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured phase: what the wrappers and the program recorded.
struct Phase {
    snap: Snapshot,
    tele: Telemetry,
    events: Vec<meda_telemetry::SpanEvent>,
}

fn phase<W: Workload>(w: &mut W, units: u64, traced: bool, inject: Option<&'static str>) -> Phase {
    let registry = meda_telemetry::global();
    registry.clear();
    registry.set_capture(traced);
    trace::reset(traced, inject);
    trace::timed("bench", "bench.measure", || w.measure(units));
    registry.set_capture(false);
    Phase {
        events: registry.take_events(),
        tele: registry.summary(),
        snap: trace::take(),
    }
}

/// Builds the inputs repeatedly; returns the last, the median set-up time
/// in seconds, and the wrapped calls of one set-up (their total over all
/// repeats, divided by the repeat count).
fn setup_repeated<W: Workload>(seed: u64, units: u64) -> (W, f64, Snapshot) {
    trace::reset(false, None);
    let start = now_ns();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (now_ns() - start < SETUP_MIN_NS && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t = now_ns();
        last = Some(W::setup(seed, units));
        times.push((now_ns() - t) as f64 / 1e9);
    }
    let mut calls = trace::take();
    for stat in calls.ops.values_mut() {
        stat.calls /= times.len() as u64;
        stat.ns /= times.len() as u64;
    }
    (
        last.expect("set-up ran at least once"),
        stats::median_f64(&times).unwrap_or(0.0),
        calls,
    )
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_num_map(m: &BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(finite(*v))))
            .collect(),
    )
}

/// Writes the traced phase's spans and per-layer table; returns the
/// coverage and self-time-sum ratios.
fn write_trace(name: &str, p: Phase, layer_metrics: &BTreeMap<&'static str, f64>) -> (f64, f64) {
    let waits: u64 = p.snap.samples("queue_wait").iter().sum();
    let mut spans = p.snap.spans;
    spans.extend(trace::program_spans(p.events));
    let (parent, layers) = trace::nest(&mut spans);
    let wall = spans
        .iter()
        .find(|s| s.layer == "bench")
        .map_or(1, |s| (s.end - s.start).max(1)) as f64;
    let harness = layers.get("bench").map_or(0, |t| t.self_ns) as f64;
    let self_sum: u64 = layers.values().map(|t| t.self_ns).sum();
    let coverage = 1.0 - harness / wall;
    let self_sum_ratio = self_sum as f64 / wall;
    let table = Json::Obj(
        layers
            .iter()
            .map(|(layer, t)| {
                let mut fields = vec![
                    ("calls".to_string(), Json::u64(t.calls)),
                    ("total_ms".to_string(), Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms".to_string(), Json::Num(t.self_ns as f64 / 1e6)),
                ];
                if *layer == "serve.handle" {
                    fields.push(("wait_ms".to_string(), Json::Num(waits as f64 / 1e6)));
                }
                ((*layer).to_string(), Json::Obj(fields))
            })
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(name)),
        ("wall_ms".into(), Json::Num(wall / 1e6)),
        ("coverage".into(), Json::Num(coverage)),
        ("self_sum_ratio".into(), Json::Num(self_sum_ratio)),
        ("layers".into(), table),
        ("metrics".into(), json_num_map(layer_metrics)),
    ]);
    let dir = std::path::Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.layers.json")), format!("{doc}\n")))
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.trace.jsonl")),
                trace::trace_lines(&spans, &parent),
            )
        });
    if let Err(e) = written {
        eprintln!("bench_e2e: writing the trace of {name}: {e}");
    }
    (coverage, self_sum_ratio)
}

/// Runs one workload in this process and prints its report.
fn run_workload<W: Workload>(name: &str, o: &Options) -> bool {
    let units = units_for::<W>(o.seconds());
    // A traced run spends its first half untraced, each quarter on fresh
    // inputs: a warm-up quarter it discards, then a quarter whose
    // throughput is the baseline of the tracing overhead.
    let first = if o.trace { units.div_ceil(4) } else { units };
    let (mut w, setup_s, setup) = setup_repeated::<W>(o.seed, first);
    let mut untraced_throughput = None;
    if o.trace {
        for next in [first, 2 * first] {
            let p = phase(&mut w, first, false, o.inject);
            untraced_throughput = Some(w.summarize(&p.snap).throughput);
            // Drop first: a workload may own on-disk state its successor
            // reuses.
            drop(w);
            w = W::setup(o.seed, next);
        }
    }
    let p = phase(
        &mut w,
        if o.trace { 2 * first } else { first },
        o.trace,
        o.inject,
    );
    let rss_mb = peak_rss_mb();
    let problems = w.check();
    let summary = w.summarize(&p.snap);
    let mut layers = metrics::per_layer(&p.snap, &p.tele, &summary, &setup);
    let (coverage, self_sum_ratio) = if o.trace {
        write_trace(name, p, &layers)
    } else {
        (0.0, 0.0)
    };
    layers.insert("trace.coverage", coverage);
    layers.insert("trace.self_sum_ratio", self_sum_ratio);
    layers.insert(
        "trace.overhead_ratio",
        untraced_throughput.map_or(0.0, |u| u / summary.throughput),
    );

    let e2e: Vec<(&str, Option<f64>, &str)> = metrics::END_TO_END
        .iter()
        .map(|&(n, unit)| {
            let v = match n {
                "throughput_per_s" => Some(summary.throughput),
                "latency_p50_ms" => summary.p50_ms,
                "latency_tail_ms" => summary.tail_ms,
                "setup_s" => Some(setup_s),
                _ => Some(rss_mb),
            };
            (n, v.map(finite), unit)
        })
        .collect();

    println!(
        "# bench_e2e workload={name} seed={} seconds={} units={units} trace={} inject={}",
        o.seed,
        o.seconds(),
        u8::from(o.trace),
        o.inject.unwrap_or("none")
    );
    for (n, v, unit) in &e2e {
        match v {
            Some(v) => println!("{n} {v} {unit}"),
            None => println!("{n} n/a {unit}"),
        }
    }
    for (n, unit) in metrics::PER_LAYER {
        println!("{n} {} {unit}", finite(layers[n]));
    }
    println!("digest {:016x} hex", w.digest());
    for problem in &problems {
        eprintln!("bench_e2e: check failed: {problem}");
    }
    let correct = problems.is_empty();

    let metric = |v: f64, unit: &str| {
        Json::Obj(vec![
            ("value".into(), Json::Num(finite(v))),
            ("unit".into(), Json::str(unit)),
        ])
    };
    let result_metrics: Vec<(String, Json)> = if o.trace {
        metrics::PER_LAYER
            .iter()
            .map(|&(n, unit)| (n.to_string(), metric(layers[n], unit)))
            .collect()
    } else {
        e2e.iter()
            .filter_map(|&(n, v, unit)| v.map(|v| (n.to_string(), metric(v, unit))))
            .collect()
    };
    let report = Json::Obj(vec![
        ("workload".into(), Json::str(name)),
        ("seed".into(), Json::u64(o.seed)),
        ("seconds".into(), Json::Num(o.seconds())),
        ("units".into(), Json::u64(units)),
        ("trace".into(), Json::Bool(o.trace)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(summary.attempted)),
        ("failed".into(), Json::u64(summary.failed)),
        ("digest".into(), Json::str(format!("{:016x}", w.digest()))),
        (
            "end_to_end".into(),
            Json::Obj(
                e2e.iter()
                    .map(|&(n, v, _)| (n.to_string(), v.map_or(Json::Null, Json::Num)))
                    .collect(),
            ),
        ),
        ("per_layer".into(), json_num_map(&layers)),
        (
            "problems".into(),
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    let dir = std::path::Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.json")), format!("{report}\n")))
    {
        eprintln!("bench_e2e: writing the report of {name}: {e}");
    }
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::u64(summary.attempted)),
            ("failed".into(), Json::u64(summary.failed)),
            ("metrics".into(), Json::Obj(result_metrics)),
        ])
    );
    correct
}

fn run_in_process(name: &str, o: &Options) -> Result<bool, String> {
    Ok(match name {
        "reuse-faults" => run_workload::<sim::Reuse>(name, o),
        "fleet-n4" => run_workload::<sim::Fleet>(name, o),
        "serve-mixed" => run_workload::<serve::Serve>(name, o),
        "synth-paper" => run_workload::<synth::Synth>(name, o),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

fn selected(o: &Options) -> Vec<&'static str> {
    match o.workload.as_deref() {
        Some(w) if w != "all" => WORKLOADS.iter().copied().filter(|x| *x == w).collect(),
        _ => WORKLOADS.to_vec(),
    }
}

/// The last line of a child run, parsed.
struct ChildRun {
    stdout: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process of this binary and waits for it.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    inject: Option<&str>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(layer) = inject {
        cmd.args(["--inject", layer]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("{workload} seed {seed}: no result ({e})"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        correct: out.status.success() && matches!(doc.get("correct"), Some(Json::Bool(true))),
        stdout,
        metrics,
    })
}

/// `--workload all` / `--smoke`: every workload, each in its own process.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let run = child(w, o.seed, o.seconds(), o.trace, o.inject)?;
        print!("{}", run.stdout);
        ok &= run.correct;
    }
    Ok(ok)
}

/// `(better, bound)` per end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// `--repeat N`: a fresh process per run, alternating workloads, seeds
/// `seed .. seed+N`; prints the median, quartiles and spread of every
/// metric.
fn repeat(o: &Options) -> Result<bool, String> {
    let n = o.repeat.unwrap_or(1);
    let workloads = selected(o);
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..u64::from(n) {
        for &w in &workloads {
            let run = child(w, o.seed + i, o.seconds(), o.trace, None)?;
            ok &= run.correct;
            let line: Vec<String> = run
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            eprintln!("{w} seed {}: {}", o.seed + i, line.join(" "));
            for (k, v) in run.metrics {
                values.entry((w, k)).or_default().push(v);
            }
        }
    }
    let bounds = bounds();
    println!("workload metric runs median q1 q3 spread bound");
    for ((w, k), v) in &values {
        let med = stats::median_f64(v).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        let bound = bounds
            .get(k)
            .map_or("-".to_string(), |(_, b)| b.to_string());
        println!("{w} {k} {} {med} {q1} {q3} {spread:.4} {bound}", v.len());
    }
    Ok(ok)
}

/// `selftest-inject --layer L`: for every workload, [`SELFTEST_RUNS`] runs
/// as is and as many with `L`'s time doubled (same seeds, alternating),
/// then reports which end-to-end metrics moved past their bounds.
fn selftest_inject(layer: &'static str, o: &Options) -> Result<bool, String> {
    let bounds = bounds();
    if bounds.is_empty() {
        return Err(
            "selftest-inject reads the bounds from BENCHMARK.json in the working directory".into(),
        );
    }
    let seconds = o.seconds.unwrap_or(SELFTEST_SECONDS);
    println!("# selftest-inject layer={layer} seconds={seconds} runs={SELFTEST_RUNS}");
    println!("workload metric base_median injected_median worse_by bound verdict");
    let mut crossed = Vec::new();
    let mut ok = true;
    for w in selected(o) {
        let mut base: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut injected: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..SELFTEST_RUNS {
            for (inject, into) in [(None, &mut base), (Some(layer), &mut injected)] {
                let run = child(w, o.seed + i, seconds, false, inject)?;
                ok &= run.correct;
                for (k, v) in run.metrics {
                    into.entry(k).or_default().push(v);
                }
            }
        }
        for (k, (better, bound)) in &bounds {
            let (Some(b), Some(x)) = (base.get(k), injected.get(k)) else {
                continue;
            };
            let (Some(mb), Some(mx)) = (stats::median_f64(b), stats::median_f64(x)) else {
                continue;
            };
            let worse = if better == "lower" {
                mx / mb - 1.0
            } else {
                1.0 - mx / mb
            };
            let verdict = if worse > *bound { "CROSSED" } else { "within" };
            if worse > *bound {
                crossed.push(format!("{w}/{k}"));
            }
            println!("{w} {k} {mb} {mx} {worse:.4} {bound} {verdict}");
        }
    }
    println!(
        "crossed: {}",
        if crossed.is_empty() {
            "none".to_string()
        } else {
            crossed.join(" ")
        }
    );
    Ok(ok)
}

/// Fixed work per workload for the ledger: passes, or requests for
/// `serve-mixed`.
fn ledger_units(workload: &str) -> u64 {
    match workload {
        "fleet-n4" => 2,
        "serve-mixed" => 600,
        _ => 1,
    }
}

fn ledger_run<W: Workload>(workload: &str) -> (BTreeMap<String, u64>, u64, Vec<String>) {
    let units = ledger_units(workload);
    trace::reset(false, None);
    let mut w = W::setup(LEDGER_SEED, units);
    let p = phase(&mut w, units, false, None);
    let problems = w.check();
    (
        metrics::ledger_counts(&p.snap, &p.tele),
        w.digest(),
        problems,
    )
}

/// `--verify-counts`: reruns the ledger's fixed work and fails on any
/// drift of a counter or digest; writes the fresh ledger beside the report.
fn verify_counts(o: &Options) -> Result<bool, String> {
    let ledger = Json::parse(LEDGER).map_err(|e| format!("ledger.json: {e}"))?;
    let mut fresh = Vec::new();
    let mut ok = true;
    for w in selected(o) {
        let (counts, digest, problems) = match w {
            "reuse-faults" => ledger_run::<sim::Reuse>(w),
            "fleet-n4" => ledger_run::<sim::Fleet>(w),
            "serve-mixed" => ledger_run::<serve::Serve>(w),
            _ => ledger_run::<synth::Synth>(w),
        };
        for p in &problems {
            eprintln!("bench_e2e: check failed: {p}");
        }
        ok &= problems.is_empty();
        let digest = format!("{digest:016x}");
        let expected = ledger.get("workloads").and_then(|l| l.get(w));
        let want_digest = expected
            .and_then(|e| e.get("digest"))
            .and_then(Json::as_str);
        if want_digest != Some(digest.as_str()) {
            ok = false;
            println!("{w} digest {digest} ledger {want_digest:?} DRIFT");
        }
        for (k, &v) in &counts {
            let want = expected
                .and_then(|e| e.get("counts"))
                .and_then(|c| c.get(k))
                .and_then(Json::as_f64);
            let same = want == Some(v as f64);
            ok &= same;
            println!("{w} {k} {v} {}", if same { "ok" } else { "DRIFT" });
        }
        fresh.push((
            w.to_string(),
            Json::Obj(vec![
                ("digest".into(), Json::str(digest)),
                (
                    "counts".into(),
                    Json::Obj(
                        counts
                            .iter()
                            .map(|(k, &v)| (k.clone(), Json::u64(v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::u64(LEDGER_SEED)),
        ("workloads".into(), Json::Obj(fresh)),
    ]);
    let path = std::path::Path::new(OUT_DIR).join("ledger.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("fresh ledger written to {}", path.display());
    Ok(ok)
}
