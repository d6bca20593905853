//! The metric catalogue: end-to-end metrics every workload reports,
//! per-layer metrics (the union over layers, 0 where a workload bypasses a
//! layer or has too few samples for a percentile), and the deterministic
//! counters of the exact-count ledger.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use meda_telemetry::Summary as Telemetry;

use crate::stats::{median, percentile};
use crate::trace::Snapshot;
use crate::workload::Summary;

/// End-to-end metrics: `(name, unit)`. Directions and regression bounds
/// live in the repository's `BENCHMARK.json`; a test keeps both lists and
/// that file in step.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("bioassay.plan_ms", "ms"),
    ("sim.chip.generate_ms", "ms"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.cycles", "cycles"),
    ("sim.engine.ns_per_cycle", "ns"),
    ("sim.engine.actuate_ms", "ms"),
    ("sim.engine.sense_ms", "ms"),
    ("sim.adaptive.begin_job_calls", "count"),
    ("sim.adaptive.begin_job_ms", "ms"),
    ("sim.adaptive.next_action_calls", "count"),
    ("sim.adaptive.next_action_ms", "ms"),
    ("sim.adaptive.set_hazards_calls", "count"),
    ("sim.adaptive.set_hazards_ms", "ms"),
    ("sim.adaptive.resynth_count", "count"),
    ("sim.adaptive.synthesis_ms", "ms"),
    ("sim.adaptive.decide_p999_us", "us"),
    ("synth.library.hit_ratio", "ratio"),
    ("decide_samples", "count"),
    ("sim_cycles_per_run", "cycles"),
    ("success_rate", "fraction"),
    ("sim.fleet.dispatch_calls", "count"),
    ("sim.fleet.dispatch_ms", "ms"),
    ("sim.fleet.stall_cycles", "cycles"),
    ("sim.fleet.peak_active", "count"),
    ("core.mdp.build_ms", "ms"),
    ("core.mdp.builds", "count"),
    ("core.mdp.states", "count"),
    ("core.mdp.transitions", "count"),
    ("core.mdp.frontier_memo_hit_ratio", "ratio"),
    ("synth.solve.rmin_ms", "ms"),
    ("synth.solve.pmax_ms", "ms"),
    ("synth.solve.condense_ms", "ms"),
    ("synth.solve.rmin_iterations", "count"),
    ("synth.solve.sweeps_greedy", "count"),
    ("synth.solve.pq_pushes", "count"),
    ("synth.solve.pq_pops", "count"),
    ("synth.solve.confirm_retries", "count"),
    ("audit.sound_ms", "ms"),
    ("audit.bounds_ms", "ms"),
    ("audit.eval_ms", "ms"),
    ("audit.bounds_iterations", "count"),
    ("serve.mem_hit_p50_us", "us"),
    ("serve.disk_hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.drift_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.sched_lag_max_us", "us"),
    ("synth.cache.mem_hits", "count"),
    ("synth.cache.disk_hits", "count"),
    ("synth.cache.misses", "count"),
    ("synth.cache.inserts", "count"),
    ("synth.cache.rejected", "count"),
    ("synth.cache.load_us_mean", "us"),
    ("synth.cache.entry_bytes_mean", "bytes"),
    ("req_samples", "count"),
    ("trace.coverage", "fraction"),
    ("trace.self_sum_ratio", "fraction"),
    ("trace.overhead_ratio", "ratio"),
];

/// Program counters the ledger pins: deterministic for a given seed and
/// amount of work.
pub const LEDGER_COUNTERS: [&str; 19] = [
    "core.mdp.builds",
    "core.mdp.states",
    "core.mdp.transitions",
    "synth.solve.rmin.count",
    "synth.solve.pmax.count",
    "synth.solve.rmin.iterations",
    "synth.solve.sweeps.greedy",
    "synth.solve.pq.pushes",
    "synth.solve.pq.pops",
    "synth.solve.confirm.retries",
    "audit.bounds.iterations",
    "sim.cycles",
    "synth.library.hits",
    "synth.library.misses",
    "synth.cache.mem_hits",
    "synth.cache.disk_hits",
    "synth.cache.misses",
    "synth.cache.inserts",
    "synth.cache.rejected",
];

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counter(name).unwrap_or(0)
}

/// Total time of every program span whose innermost name is `name`, ns.
fn span_ns(t: &Telemetry, name: &str) -> u64 {
    t.spans
        .iter()
        .filter(|s| s.path.rsplit('/').next() == Some(name))
        .map(|s| s.total_ns)
        .sum()
}

fn histogram_mean(t: &Telemetry, name: &str) -> f64 {
    t.histograms
        .iter()
        .find(|h| h.name == name)
        .filter(|h| h.snapshot.count > 0)
        .map_or(0.0, |h| h.snapshot.sum as f64 / h.snapshot.count as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one measured phase, from the wrappers' records and
/// the program's own counters and span aggregates; planning and chip
/// generation come from one set-up.
pub fn per_layer(
    snap: &Snapshot,
    t: &Telemetry,
    summary: &Summary,
    setup: &Snapshot,
) -> BTreeMap<&'static str, f64> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = |key: &str, scale: f64| median(snap.samples(key)).map_or(0.0, |ns| ns / scale);
    let engine_ns = snap.op("sim.engine.run").ns;
    let wrapped_ns = snap.ops_with("sim.adaptive.").ns + snap.ops_with("sim.fleet.").ns;
    let engine_self = engine_ns.saturating_sub(wrapped_ns);
    let cycles = counter(t, "sim.cycles");
    let decide = snap.samples("decide");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    put("bioassay.plan_ms", ms(setup.op("bioassay.plan").ns));
    put("sim.chip.generate_ms", ms(setup.op("sim.chip.generate").ns));
    put("sim.engine.self_ms", ms(engine_self));
    put("sim.engine.cycles", cycles as f64);
    put("sim.engine.ns_per_cycle", ratio(engine_self, cycles));
    put(
        "sim.engine.actuate_ms",
        ms(counter(t, "sim.phase.actuate_ns")),
    );
    put("sim.engine.sense_ms", ms(counter(t, "sim.phase.sense_ns")));
    for (op, calls, time) in [
        (
            "sim.adaptive.begin_job",
            "sim.adaptive.begin_job_calls",
            "sim.adaptive.begin_job_ms",
        ),
        (
            "sim.adaptive.next_action",
            "sim.adaptive.next_action_calls",
            "sim.adaptive.next_action_ms",
        ),
        (
            "sim.adaptive.set_hazards",
            "sim.adaptive.set_hazards_calls",
            "sim.adaptive.set_hazards_ms",
        ),
    ] {
        put(calls, snap.op(op).calls as f64);
        put(time, ms(snap.op(op).ns));
    }
    put(
        "sim.adaptive.resynth_count",
        snap.count("sim.adaptive.resynth_count") as f64,
    );
    put(
        "sim.adaptive.synthesis_ms",
        ms(snap.count("sim.adaptive.synthesis_ns")),
    );
    put(
        "sim.adaptive.decide_p999_us",
        percentile(decide, 999).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    put(
        "synth.library.hit_ratio",
        ratio(
            counter(t, "synth.library.hits"),
            counter(t, "synth.library.hits") + counter(t, "synth.library.misses"),
        ),
    );
    put("decide_samples", decide.len() as f64);
    put("success_rate", summary.success_rate());
    put(
        "sim_cycles_per_run",
        ratio(snap.count("sim_cycles"), snap.count("executions")),
    );
    let dispatch = snap.ops_with("sim.fleet.");
    put("sim.fleet.dispatch_calls", dispatch.calls as f64);
    put("sim.fleet.dispatch_ms", ms(dispatch.ns));
    put(
        "sim.fleet.stall_cycles",
        snap.count("sim.fleet.stall_cycles") as f64,
    );
    put(
        "sim.fleet.peak_active",
        snap.count("sim.fleet.peak_active") as f64,
    );
    put("core.mdp.build_ms", ms(span_ns(t, "mdp.build")));
    put("core.mdp.builds", counter(t, "core.mdp.builds") as f64);
    put("core.mdp.states", counter(t, "core.mdp.states") as f64);
    put(
        "core.mdp.transitions",
        counter(t, "core.mdp.transitions") as f64,
    );
    put(
        "core.mdp.frontier_memo_hit_ratio",
        ratio(
            counter(t, "core.mdp.frontier_memo_hits"),
            counter(t, "core.mdp.frontier_memo_hits") + counter(t, "core.mdp.frontier_memo_misses"),
        ),
    );
    put("synth.solve.rmin_ms", ms(span_ns(t, "solve.rmin")));
    put("synth.solve.pmax_ms", ms(span_ns(t, "solve.pmax")));
    put("synth.solve.condense_ms", ms(span_ns(t, "mdp.condense")));
    for (name, c) in [
        ("synth.solve.rmin_iterations", "synth.solve.rmin.iterations"),
        ("synth.solve.sweeps_greedy", "synth.solve.sweeps.greedy"),
        ("synth.solve.pq_pushes", "synth.solve.pq.pushes"),
        ("synth.solve.pq_pops", "synth.solve.pq.pops"),
        ("synth.solve.confirm_retries", "synth.solve.confirm.retries"),
        ("audit.bounds_iterations", "audit.bounds.iterations"),
        ("synth.cache.mem_hits", "synth.cache.mem_hits"),
        ("synth.cache.disk_hits", "synth.cache.disk_hits"),
        ("synth.cache.misses", "synth.cache.misses"),
        ("synth.cache.inserts", "synth.cache.inserts"),
        ("synth.cache.rejected", "synth.cache.rejected"),
    ] {
        put(name, counter(t, c) as f64);
    }
    put("audit.sound_ms", ms(snap.op("audit.sound").ns));
    put("audit.bounds_ms", ms(span_ns(t, "audit.bounds")));
    put("audit.eval_ms", ms(span_ns(t, "audit.eval")));
    put("serve.mem_hit_p50_us", p50("mem_hit", 1e3));
    put("serve.disk_hit_p50_ms", p50("disk_hit", 1e6));
    put("serve.miss_p50_ms", p50("miss", 1e6));
    put("serve.drift_p50_ms", p50("drift", 1e6));
    put(
        "serve.queue_wait_p99_ms",
        percentile(snap.samples("queue_wait"), 990).map_or(0.0, |ns| ns as f64 / 1e6),
    );
    put(
        "serve.sched_lag_max_us",
        snap.count("sched_lag_ns") as f64 / 1e3,
    );
    put(
        "synth.cache.load_us_mean",
        histogram_mean(t, "synth.cache.load_ns") / 1e3,
    );
    put(
        "synth.cache.entry_bytes_mean",
        histogram_mean(t, "synth.cache.entry_bytes"),
    );
    put("req_samples", snap.samples("request").len() as f64);
    m
}

/// The ledger's counts of one fixed-work phase.
pub fn ledger_counts(snap: &Snapshot, t: &Telemetry) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = LEDGER_COUNTERS
        .iter()
        .map(|&c| (c.to_string(), counter(t, c)))
        .collect();
    for c in [
        "sim.adaptive.resynth_count",
        "executions",
        "attempted",
        "succeeded",
    ] {
        counts.insert(c.to_string(), snap.count(c));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_telemetry::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
