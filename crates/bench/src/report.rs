//! The aggregated benchmark schema every bench bin emits, the output-path
//! policy that fixes the baseline-drift hazard, and the exact baseline
//! check: fresh runs go to `target/bench/BENCH_<name>.json`; the committed
//! repo-root `BENCH_<name>.json` baselines are only touched under
//! `--bless` (EXPERIMENTS.md documents the re-bless flow), and every
//! full-mode run that does not bless must reproduce each deterministic
//! baseline value bit for bit.

use std::path::PathBuf;

use meda_telemetry::Json;

/// Schema tag stamped into every report document.
pub const SCHEMA: &str = "meda-bench/1";

/// A flat named-metric benchmark result.
///
/// Metric naming convention: `<cell>.<measure>` with the unit as the
/// suffix — names ending `_ms` / `_ns` are wall-clock timings and names
/// ending `_speedup` are ratios of timings; these are reported, never
/// gated. Everything else is deterministic, and [`BenchReport::drift`]
/// fails on any change to it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name; the file stem is `BENCH_<benchmark>.json`.
    pub benchmark: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Free-text provenance note.
    pub note: String,
    /// `(name, value)` pairs, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(benchmark: &str, mode: &str) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            mode: mode.to_string(),
            note: String::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Looks up a metric by exact name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the report as its JSON document (single line + newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        );
        let mut fields = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("benchmark".to_string(), Json::str(&self.benchmark)),
            ("mode".to_string(), Json::str(&self.mode)),
        ];
        if !self.note.is_empty() {
            fields.push(("note".to_string(), Json::str(&self.note)));
        }
        fields.push(("metrics".to_string(), metrics));
        let mut text = Json::Obj(fields).to_string();
        text.push('\n');
        text
    }

    /// Parses a report document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing/unknown `schema` tag, or missing fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text.trim())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\" tag (old-format baseline? re-bless it)")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing \"{name}\""))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing \"metrics\" object")?
            .iter()
            .map(|(n, v)| {
                v.as_f64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("metric \"{n}\" is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            benchmark: field("benchmark")?,
            mode: field("mode")?,
            note: doc
                .get("note")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            metrics,
        })
    }

    /// Where fresh runs land: `target/bench/BENCH_<name>.json`.
    #[must_use]
    pub fn fresh_path(benchmark: &str) -> PathBuf {
        PathBuf::from(format!("target/bench/BENCH_{benchmark}.json"))
    }

    /// The committed repo-root baseline: `BENCH_<name>.json`.
    #[must_use]
    pub fn baseline_path(benchmark: &str) -> PathBuf {
        PathBuf::from(format!("BENCH_{benchmark}.json"))
    }

    /// Writes the report to [`BenchReport::fresh_path`] (creating
    /// `target/bench/`) and — only when `bless` is set — also refreshes
    /// the committed baseline. Returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, bless: bool) -> std::io::Result<Vec<PathBuf>> {
        let text = self.to_json();
        let fresh = Self::fresh_path(&self.benchmark);
        if let Some(parent) = fresh.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&fresh, &text)?;
        let mut written = vec![fresh];
        if bless {
            let baseline = Self::baseline_path(&self.benchmark);
            std::fs::write(&baseline, &text)?;
            written.push(baseline);
        }
        Ok(written)
    }

    /// The exact check of a fresh report against its baseline: one line
    /// per drifted key, empty when nothing drifted.
    ///
    /// Both reports must share a mode and name the same metrics (a key
    /// missing from the fresh run or present only in it is drift), and
    /// every metric that is not wall-clock (a name not ending `_ms`, `_ns`
    /// or `_speedup`) must equal the baseline value bit for bit.
    #[must_use]
    pub fn drift(&self, baseline: &BenchReport) -> Vec<String> {
        let mut drift = Vec::new();
        if baseline.mode != self.mode {
            drift.push(format!(
                "mode: baseline {:?}, fresh {:?}",
                baseline.mode, self.mode
            ));
        }
        for (name, base) in &baseline.metrics {
            match self.metric(name) {
                None => drift.push(format!(
                    "{name}: baseline {base}, missing from the fresh run"
                )),
                Some(v) if !is_wall_clock(name) && v.to_bits() != base.to_bits() => {
                    drift.push(format!("{name}: baseline {base}, fresh {v}"));
                }
                Some(_) => {}
            }
        }
        for (name, v) in &self.metrics {
            if baseline.metric(name).is_none() {
                drift.push(format!("{name}: fresh {v}, missing from the baseline"));
            }
        }
        drift
    }

    /// Runs [`BenchReport::drift`] against the committed baseline
    /// ([`BenchReport::baseline_path`]) on a full-mode run, naming the
    /// baseline file in each line. A `bless` run has just rewritten the
    /// baseline, and a smoke run is not comparable with the full-mode
    /// baselines, so both skip the check (empty result). An unreadable
    /// baseline is reported as one drift line.
    #[must_use]
    pub fn baseline_drift(&self, bless: bool) -> Vec<String> {
        if bless || self.mode != "full" {
            return Vec::new();
        }
        let path = Self::baseline_path(&self.benchmark);
        let drift = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Self::parse(&text))
            .map_or_else(|e| vec![e], |baseline| self.drift(&baseline));
        drift
            .into_iter()
            .map(|d| format!("{} drift: {d}", path.display()))
            .collect()
    }
}

/// Whether a metric is a wall-clock value, which the exact check skips:
/// a timing (`_ms`, `_ns`) or a ratio of timings (`_speedup`).
fn is_wall_clock(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_ns") || name.ends_with("_speedup")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut r = BenchReport::new("demo", "smoke");
        r.note = "a note".to_string();
        r.push("c10x10.construct_csr_ms", 0.125);
        r.push("c10x10.states", 64.0);
        let back = BenchReport::parse(&r.to_json()).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.metric("c10x10.states"), Some(64.0));
    }

    #[test]
    fn old_schema_is_rejected_with_a_hint() {
        let err = BenchReport::parse("{\"benchmark\":\"synthesis\",\"cells\":[]}")
            .expect_err("no schema tag");
        assert!(err.contains("re-bless"), "{err}");
    }

    fn full(metrics: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new("demo", "full");
        for &(n, v) in metrics {
            r.push(n, v);
        }
        r
    }

    const BASE: &[(&str, f64)] = &[
        ("c.states", 64.0),
        ("c.dominance", 1.026_881_720_430_107_5),
        ("c.solve_ms", 1.5),
        ("c.cold_p50_ns", 1200.0),
        ("c.construct_solve_speedup", 8.06),
    ];

    #[test]
    fn an_identical_report_passes() {
        let base = full(BASE);
        assert!(full(BASE).drift(&base).is_empty());
        // Through the written document too: what the baseline file holds.
        let reparsed = BenchReport::parse(&base.to_json()).expect("parse");
        assert!(full(BASE).drift(&reparsed).is_empty());
    }

    #[test]
    fn a_count_off_by_one_fails_and_names_the_key() {
        let mut fresh = full(BASE);
        fresh.metrics[0].1 = 65.0;
        let drift = fresh.drift(&full(BASE));
        assert_eq!(drift, ["c.states: baseline 64, fresh 65"]);
    }

    #[test]
    fn a_ratio_off_in_its_last_bit_fails() {
        let mut fresh = full(BASE);
        fresh.metrics[1].1 = f64::from_bits(fresh.metrics[1].1.to_bits() + 1);
        let drift = fresh.drift(&full(BASE));
        assert_eq!(drift.len(), 1);
        assert!(drift[0].starts_with("c.dominance:"), "{drift:?}");
    }

    #[test]
    fn missing_and_fresh_only_keys_fail() {
        let base = full(BASE);
        let missing = full(&BASE[1..]);
        assert_eq!(
            missing.drift(&base),
            ["c.states: baseline 64, missing from the fresh run"]
        );
        let mut extra = full(BASE);
        extra.push("c.choices", 9.0);
        assert_eq!(
            extra.drift(&base),
            ["c.choices: fresh 9, missing from the baseline"]
        );
    }

    #[test]
    fn wall_clock_values_may_change() {
        let mut fresh = full(BASE);
        fresh.metrics[2].1 = 99.0;
        fresh.metrics[3].1 = 1.0;
        fresh.metrics[4].1 = 12.5;
        assert!(fresh.drift(&full(BASE)).is_empty());
    }

    #[test]
    fn only_full_runs_that_do_not_bless_are_checked() {
        // No BENCH_demo.json exists, so a run that is checked reports it.
        let missing = full(BASE).baseline_drift(false);
        assert_eq!(missing.len(), 1);
        assert!(
            missing[0].starts_with("BENCH_demo.json drift:"),
            "{missing:?}"
        );
        assert!(full(BASE).baseline_drift(true).is_empty());
        let mut smoke = full(BASE);
        smoke.mode = "smoke".to_string();
        assert!(smoke.baseline_drift(false).is_empty());
        // Checked against a baseline of another mode, a run drifts.
        assert_eq!(
            smoke.drift(&full(BASE)),
            [r#"mode: baseline "full", fresh "smoke""#]
        );
    }
}
