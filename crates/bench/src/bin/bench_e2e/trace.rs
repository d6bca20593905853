//! The benchmark's own instrumentation, kept outside the program: timing
//! wrappers around the public calls of each layer, per-call accumulators,
//! latency samples and work counts, plus (in a traced run) one span per
//! wrapped call. Every timestamp comes from the telemetry registry's clock,
//! so bench spans and the program's own captured span events share one
//! timeline and nest by interval.
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;

use meda_telemetry::{Json, SpanEvent};

use crate::stats::median;

/// Layers a selftest may slow down: each names a wrapped layer or call.
pub const INJECTABLE: [&str; 5] = [
    "sim.adaptive",
    "sim.fleet.dispatch",
    "core.mdp.build",
    "audit",
    "serve.handle",
];

/// Calls and busy time of one wrapped operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    pub calls: u64,
    pub ns: u64,
}

/// One closed span: a wrapped call (`src` = bench) or a program span event
/// (`src` = program).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub ctx: u64,
    pub start: u64,
    pub end: u64,
    pub program: bool,
}

#[derive(Default)]
struct State {
    traced: bool,
    inject: Option<&'static str>,
    ctx: u64,
    group: usize,
    ops: BTreeMap<&'static str, OpStat>,
    /// `(group, ns)` per sample.
    samples: BTreeMap<&'static str, Vec<(usize, u64)>>,
    counts: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Nanoseconds on the telemetry registry's clock.
pub fn now_ns() -> u64 {
    meda_telemetry::global().now_ns()
}

/// Forgets everything recorded so far and sets the mode for what follows.
pub fn reset(traced: bool, inject: Option<&'static str>) {
    STATE.with(|s| {
        *s.borrow_mut() = State {
            traced,
            inject,
            ..State::default()
        };
    });
}

/// Tags the spans that follow with a trial or request id, and the samples
/// that follow with a group: the assay, Table V cell or request class whose
/// latencies form one distribution.
pub fn set_ctx(ctx: u64, group: usize) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.ctx = ctx;
        s.group = group;
    });
}

/// Runs `f` as one call of `op` in `layer`, returning its result and its
/// duration. When the selftest injects a slowdown into this layer or call,
/// the wrapper busy-waits for the call's own elapsed time afterwards, so
/// the layer's time doubles while the program itself is untouched.
pub fn timed<T>(layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let ctx = STATE.with(|s| s.borrow().ctx);
    let start = now_ns();
    let out = f();
    let mut end = now_ns();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.inject.is_some_and(|i| i == layer || i == op) {
            let until = end + (end - start);
            while now_ns() < until {
                std::hint::spin_loop();
            }
            end = now_ns();
        }
        let stat = s.ops.entry(op).or_default();
        stat.calls += 1;
        stat.ns += end - start;
        if s.traced {
            s.spans.push(Span {
                layer,
                name: op.to_string(),
                ctx,
                start,
                end,
                program: false,
            });
        }
    });
    (out, end - start)
}

/// Records one latency sample under `key`, in the current group.
pub fn sample(key: &'static str, ns: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let group = s.group;
        s.samples.entry(key).or_default().push((group, ns));
    });
}

/// Adds `n` to the work count `key`.
pub fn count(key: &'static str, n: u64) {
    STATE.with(|s| *s.borrow_mut().counts.entry(key).or_default() += n);
}

/// Raises the work count `key` to at least `n`.
pub fn count_max(key: &'static str, n: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let c = s.counts.entry(key).or_default();
        *c = (*c).max(n);
    });
}

/// Everything recorded since the last [`reset`], with samples sorted.
pub struct Snapshot {
    pub ops: BTreeMap<&'static str, OpStat>,
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// The same samples split by group.
    pub groups: BTreeMap<&'static str, BTreeMap<usize, Vec<u64>>>,
    pub counts: BTreeMap<&'static str, u64>,
    pub spans: Vec<Span>,
}

impl Snapshot {
    pub fn op(&self, op: &str) -> OpStat {
        self.ops.get(op).copied().unwrap_or_default()
    }

    /// Calls and time summed over every op whose name starts with `prefix`.
    pub fn ops_with(&self, prefix: &str) -> OpStat {
        self.ops.iter().filter(|(k, _)| k.starts_with(prefix)).fold(
            OpStat::default(),
            |a, (_, s)| OpStat {
                calls: a.calls + s.calls,
                ns: a.ns + s.ns,
            },
        )
    }

    pub fn samples(&self, key: &str) -> &[u64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// The median of each group's samples under `key`. A workload mixing
    /// groups of distinct speeds (assays, matrix cells) reports medians of
    /// these: a median over the pooled samples would sit on the edge
    /// between two groups and jump between them from run to run.
    pub fn group_medians(&self, key: &str) -> Vec<f64> {
        self.groups
            .get(key)
            .into_iter()
            .flat_map(BTreeMap::values)
            .filter_map(|v| median(v))
            .collect()
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// Takes the recorded state, leaving an empty one in the same mode.
pub fn take() -> Snapshot {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let mut samples = BTreeMap::new();
        let mut groups = BTreeMap::new();
        for (key, v) in std::mem::take(&mut s.samples) {
            let mut all: Vec<u64> = v.iter().map(|&(_, ns)| ns).collect();
            all.sort_unstable();
            samples.insert(key, all);
            let mut by_group: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for (g, ns) in v {
                by_group.entry(g).or_default().push(ns);
            }
            for g in by_group.values_mut() {
                g.sort_unstable();
            }
            groups.insert(key, by_group);
        }
        Snapshot {
            ops: std::mem::take(&mut s.ops),
            samples,
            groups,
            counts: std::mem::take(&mut s.counts),
            spans: std::mem::take(&mut s.spans),
        }
    })
}

/// The layer a program span event belongs to, by its innermost name.
pub fn program_layer(path: &str) -> &'static str {
    match path.rsplit('/').next().unwrap_or(path) {
        "mdp.build" => "core.mdp",
        "mdp.condense" | "solve.rmin" | "solve.pmax" => "synth.solve",
        "mdp.mec" | "audit.bounds" | "audit.bounds.mec" | "audit.eval" => "audit",
        "synth.job" => "sim.adaptive",
        _ => "program.other",
    }
}

/// Converts captured program span events into spans on the shared clock.
pub fn program_spans(events: Vec<SpanEvent>) -> Vec<Span> {
    events
        .into_iter()
        .map(|e| Span {
            layer: program_layer(&e.path),
            ctx: 0,
            start: e.start_ns,
            end: e.start_ns + e.dur_ns,
            name: e.path,
            program: true,
        })
        .collect()
}

/// Per-layer totals of a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Spans whose parent lies in another layer (nested same-layer spans
    /// are one call).
    pub calls: u64,
    /// Duration of those outermost spans.
    pub total_ns: u64,
    /// Duration minus the part of it covered by child spans.
    pub self_ns: u64,
}

/// Nests `spans` by interval (one thread, so intervals never cross),
/// filling in each span's parent index and inherited context id, and
/// returns per-layer calls, total and self time.
pub fn nest(spans: &mut [Span]) -> (Vec<Option<usize>>, BTreeMap<&'static str, LayerTimes>) {
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut parent = vec![None; spans.len()];
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while stack
            .last()
            .is_some_and(|&top| spans[top].end <= spans[i].start)
        {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            parent[i] = Some(p);
            let covered = spans[i].end.min(spans[p].end) - spans[i].start;
            self_ns[p] = self_ns[p].saturating_sub(covered);
            if spans[i].ctx == 0 {
                spans[i].ctx = spans[p].ctx;
            }
        }
        stack.push(i);
    }
    let mut layers: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = layers.entry(s.layer).or_default();
        t.self_ns += self_ns[i];
        if parent[i].is_none_or(|p| spans[p].layer != s.layer) {
            t.calls += 1;
            t.total_ns += s.end - s.start;
        }
    }
    (parent, layers)
}

/// One JSONL trace line per span.
pub fn trace_lines(spans: &[Span], parent: &[Option<usize>]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Json::Obj(vec![
            ("id".into(), Json::u64(i as u64)),
            (
                "parent".into(),
                parent[i].map_or(Json::Null, |p| Json::u64(p as u64)),
            ),
            ("ctx".into(), Json::u64(s.ctx)),
            ("layer".into(), Json::str(s.layer)),
            ("name".into(), Json::str(&s.name)),
            (
                "src".into(),
                Json::str(if s.program { "program" } else { "bench" }),
            ),
            ("start_ns".into(), Json::u64(s.start)),
            ("end_ns".into(), Json::u64(s.end)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, ctx: u64) -> Span {
        Span {
            layer,
            name: layer.to_string(),
            ctx,
            start,
            end,
            program: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // bench [0,100) > engine [10,90) > adaptive [20,50) > core.mdp [25,35)
        //                               > adaptive [60,70)
        let mut spans = vec![
            span("sim.adaptive", 60, 70, 0),
            span("core.mdp", 25, 35, 0),
            span("bench", 0, 100, 0),
            span("sim.engine", 10, 90, 7),
            span("sim.adaptive", 20, 50, 0),
        ];
        let (parent, layers) = nest(&mut spans);
        assert_eq!(layers["bench"].self_ns, 20);
        assert_eq!(layers["sim.engine"].self_ns, 80 - 30 - 10);
        assert_eq!(layers["sim.adaptive"].self_ns, 30 - 10 + 10);
        assert_eq!(layers["sim.adaptive"].calls, 2);
        assert_eq!(layers["sim.adaptive"].total_ns, 40);
        assert_eq!(layers["core.mdp"].self_ns, 10);
        let sum: u64 = layers.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
        // Children inherit the trial id of the span that caused them.
        let mdp = spans.iter().position(|s| s.layer == "core.mdp").unwrap();
        assert_eq!(spans[mdp].ctx, 7);
        assert_eq!(spans[parent[mdp].unwrap()].layer, "sim.adaptive");
    }

    #[test]
    fn nested_same_layer_spans_count_once() {
        let mut spans = vec![span("synth.solve", 0, 10, 1), span("synth.solve", 2, 8, 0)];
        let (_, layers) = nest(&mut spans);
        assert_eq!(layers["synth.solve"].calls, 1);
        assert_eq!(layers["synth.solve"].total_ns, 10);
        assert_eq!(layers["synth.solve"].self_ns, 10);
    }

    #[test]
    fn wrapper_records_calls_and_injection_doubles_time() {
        reset(true, Some("audit"));
        let (v, ns) = timed("audit", "audit.sound", || {
            let t = now_ns();
            while now_ns() < t + 200_000 {}
            5
        });
        assert_eq!(v, 5);
        assert!(ns >= 400_000, "injected call took {ns} ns");
        timed("core.mdp", "core.mdp.build", || ());
        for (group, ns) in [(0, 10), (0, 12), (1, 100), (1, 101), (1, 300)] {
            set_ctx(1, group);
            sample("job", ns);
        }
        let snap = take();
        assert_eq!(snap.samples("job"), &[10, 12, 100, 101, 300]);
        assert_eq!(snap.group_medians("job"), vec![11.0, 101.0]);
        assert_eq!(snap.op("audit.sound").calls, 1);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(program_layer("synth.job/mdp.build"), "core.mdp");
        reset(false, None);
    }
}
