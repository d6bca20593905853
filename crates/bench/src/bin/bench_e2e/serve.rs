//! `serve-mixed`: an open-loop request stream through one `ServeEngine`.
//!
//! Requests arrive as a Poisson process at [`RATE`] per second. About 75 %
//! repeat an existing orbit (picked by Zipf popularity) under a random
//! translation and D4 mirror/transpose, 15 % introduce a new orbit, and
//! 10 % are `drift` requests that pre-warm a degraded variant of an
//! existing orbit (itself a new orbit). The orbits grow to hundreds, more
//! than the 64-entry memory tier holds, so memory hits, disk hits and
//! writes all occur. Shapes stay at most 24×16: larger ones make cold
//! synthesis dominate and the tail noisy.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use meda_rng::{Rng, SeedableRng, StdRng};
use meda_synth::ServeEngine;
use meda_telemetry::Json;

use crate::stats::median;
use crate::trace::{self, Snapshot};
use crate::workload::{derive, Fnv, Summary, Workload};

/// Offered load, requests per second: about an eighth of what one engine
/// sustains on this mix, so the median request finds the engine idle and
/// the tail measures slow requests, not queue build-up. Near half load a
/// slow spell of the host pushed latency up tenfold.
pub const RATE: f64 = 150.0;
/// Entries the engine keeps in memory.
const MEMORY_TIER: usize = 64;
/// Zipf exponent of orbit popularity (rank = creation order). At 1.5 about
/// two thirds of all requests are memory hits, so the median sits well
/// inside that class instead of on the edge between two; at 1.0 it sat on
/// the edge and jumped tenfold between seeds.
const ZIPF_S: f64 = 1.5;
/// Largest translation of a repeat, cells.
const MAX_SHIFT: i32 = 12;
/// Request classes by what the cache did (a drift request is its own
/// class); the sample group of each request's latency.
const CLASSES: [&str; 4] = ["mem_hit", "disk_hit", "miss", "drift"];

/// Inclusive rectangle in a shape's local frame (0-based).
type Local = (i32, i32, i32, i32);

/// One request shape: the three `bench_serve` families plus one whose
/// bounds hold a soft hazard box.
struct Family {
    w: i32,
    h: i32,
    start: Local,
    goal: Local,
    query: &'static str,
    hazards: &'static [(Local, f64)],
}

const FAMILIES: [Family; 4] = [
    // pcr_shuttle
    Family {
        w: 24,
        h: 12,
        start: (0, 1, 1, 2),
        goal: (21, 9, 22, 10),
        query: "rmin",
        hazards: &[],
    },
    // dilution_sweep
    Family {
        w: 20,
        h: 16,
        start: (1, 0, 3, 2),
        goal: (16, 12, 18, 14),
        query: "rmin",
        hazards: &[],
    },
    // mix_transport
    Family {
        w: 16,
        h: 16,
        start: (0, 0, 0, 0),
        goal: (14, 14, 14, 14),
        query: "pmax",
        hazards: &[],
    },
    // hazard_lane
    Family {
        w: 20,
        h: 12,
        start: (0, 0, 1, 1),
        goal: (18, 10, 19, 11),
        query: "rmin",
        hazards: &[((8, 3, 11, 8), 0.3)],
    },
];

/// A canonical orbit: a family plus its per-cell force levels (force =
/// 0.55 + level / 100), row-major in the family's local frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Orbit {
    family: usize,
    levels: Vec<u8>,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub line: String,
    /// Due time, ns after the stream starts.
    pub due_ns: u64,
    pub orbit: usize,
    pub drift: bool,
}

/// Maps a local point through a D4 element: bit 0 mirrors x, bit 1
/// mirrors y, bit 2 transposes.
fn d4_point(d4: u8, (u, v): (i32, i32), w: i32, h: i32) -> (i32, i32) {
    let u = if d4 & 1 != 0 { w - 1 - u } else { u };
    let v = if d4 & 2 != 0 { h - 1 - v } else { v };
    if d4 & 4 != 0 {
        (v, u)
    } else {
        (u, v)
    }
}

fn d4_rect(d4: u8, r: Local, w: i32, h: i32) -> Local {
    let (a, b) = (
        d4_point(d4, (r.0, r.1), w, h),
        d4_point(d4, (r.2, r.3), w, h),
    );
    (a.0.min(b.0), a.1.min(b.1), a.0.max(b.0), a.1.max(b.1))
}

fn rect_json(r: Local, dx: i32, dy: i32) -> String {
    format!("[{},{},{},{}]", r.0 + dx, r.1 + dy, r.2 + dx, r.3 + dy)
}

/// Renders one instance of `orbit`: transformed by `d4`, its bounds
/// anchored at `(1 + shift.0, 1 + shift.1)`.
fn render(orbit: &Orbit, d4: u8, shift: (i32, i32), id: &str, drift: bool) -> String {
    let f = &FAMILIES[orbit.family];
    let (w, h) = (f.w, f.h);
    let (tw, th) = if d4 & 4 != 0 { (h, w) } else { (w, h) };
    let mut levels = vec![0u8; orbit.levels.len()];
    for v in 0..h {
        for u in 0..w {
            let (tu, tv) = d4_point(d4, (u, v), w, h);
            levels[(tv * tw + tu) as usize] = orbit.levels[(v * w + u) as usize];
        }
    }
    let (dx, dy) = (1 + shift.0, 1 + shift.1);
    let cells: Vec<String> = levels
        .iter()
        .map(|&l| format!("{}", f64::from(55 + u32::from(l)) / 100.0))
        .collect();
    let hazards: Vec<String> = f
        .hazards
        .iter()
        .map(|&(r, factor)| {
            let r = d4_rect(d4, r, w, h);
            format!(
                "[{},{},{},{},{factor}]",
                r.0 + dx,
                r.1 + dy,
                r.2 + dx,
                r.3 + dy
            )
        })
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"{}\",\"bounds\":{},\"start\":{},\"goal\":{},\"query\":\"{}\",\"hazards\":[{}],\"cells\":[{}]}}",
        if drift { "drift" } else { "route" },
        rect_json((0, 0, tw - 1, th - 1), dx, dy),
        rect_json(d4_rect(d4, f.start, w, h), dx, dy),
        rect_json(d4_rect(d4, f.goal, w, h), dx, dy),
        f.query,
        hazards.join(","),
        cells.join(",")
    )
}

fn random_orbit(rng: &mut StdRng, family: usize) -> Orbit {
    let f = &FAMILIES[family];
    Orbit {
        family,
        levels: (0..f.w * f.h)
            .map(|_| rng.gen_range(0..=40u32) as u8)
            .collect(),
    }
}

/// Picks an orbit by Zipf popularity from the cumulative weights.
fn zipf(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let total = cumulative.last().copied().unwrap_or(0.0);
    let x = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= x)
}

/// The request stream of one run: the base orbits (synthesized during
/// set-up), every orbit the stream introduces, and `n` timed requests.
pub struct Stream {
    /// Every orbit, indexed as `Request::orbit`; the tests check each
    /// request against it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub orbits: Vec<Orbit>,
    pub base: Vec<String>,
    pub requests: Vec<Request>,
}

/// Appends an orbit with the Zipf weight of its creation rank.
fn add(orbits: &mut Vec<Orbit>, cumulative: &mut Vec<f64>, o: Orbit) -> usize {
    let weight = 1.0 / ((orbits.len() + 1) as f64).powf(ZIPF_S);
    cumulative.push(cumulative.last().copied().unwrap_or(0.0) + weight);
    orbits.push(o);
    orbits.len() - 1
}

/// Generates the stream for `seed`: a pure function of its arguments.
pub fn stream(seed: u64, n: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(derive(seed, &[0x5e7e]));
    let mut orbits: Vec<Orbit> = Vec::new();
    let mut cumulative: Vec<f64> = Vec::new();
    for family in 0..FAMILIES.len() {
        for _ in 0..4 {
            let o = random_orbit(&mut rng, family);
            add(&mut orbits, &mut cumulative, o);
        }
    }
    let base = orbits
        .iter()
        .enumerate()
        .map(|(i, o)| render(o, 0, (0, 0), &format!("base{i}"), false))
        .collect();
    let mut due = 0.0f64;
    let mut requests = Vec::with_capacity(n);
    for i in 0..n {
        due += -(1.0 - rng.gen::<f64>()).ln() / RATE;
        let kind = rng.gen::<f64>();
        let (orbit, drift) = if kind < 0.75 {
            (zipf(&mut rng, &cumulative), false)
        } else if kind < 0.90 {
            let family = rng.gen_range(0..FAMILIES.len());
            let o = random_orbit(&mut rng, family);
            (add(&mut orbits, &mut cumulative, o), false)
        } else {
            // Health drift: a 4×4 patch of a popular orbit loses force.
            let mut o = orbits[zipf(&mut rng, &cumulative)].clone();
            let f = &FAMILIES[o.family];
            let (px, py) = (rng.gen_range(0..f.w - 3), rng.gen_range(0..f.h - 3));
            for v in py..py + 4 {
                for u in px..px + 4 {
                    let l = &mut o.levels[(v * f.w + u) as usize];
                    *l = l.saturating_sub(rng.gen_range(1..=8u32) as u8);
                }
            }
            (add(&mut orbits, &mut cumulative, o), true)
        };
        let d4 = rng.gen_range(0..8u32) as u8;
        let shift = (rng.gen_range(0..=MAX_SHIFT), rng.gen_range(0..=MAX_SHIFT));
        requests.push(Request {
            line: render(&orbits[orbit], d4, shift, &format!("r{i}"), drift),
            due_ns: (due * 1e9) as u64,
            orbit,
            drift,
        });
    }
    Stream {
        orbits,
        base,
        requests,
    }
}

/// Spins until the clock reads `due`. An idle engine that slept handed its
/// core to the host, and the request after each sleep paid for cold caches:
/// latency doubled and swung with the host's load.
fn wait_until(due: u64) {
    while trace::now_ns() < due {
        std::hint::spin_loop();
    }
}

pub struct Serve {
    engine: ServeEngine,
    dir: PathBuf,
    requests: Vec<Request>,
    responses: Vec<String>,
    /// First `value_bits` seen per orbit (the base orbits' from set-up).
    bits: BTreeMap<usize, String>,
    failed: u64,
    digest: u64,
}

fn value_bits(response: &str) -> Option<(String, Option<String>)> {
    let doc = Json::parse(response).ok()?;
    let status = doc.get("status")?.as_str()?.to_string();
    let bits = doc
        .get("value_bits")
        .and_then(Json::as_str)
        .map(str::to_string);
    Some((status, bits))
}

impl Workload for Serve {
    /// One unit is one request; the stream spans `units / RATE` seconds.
    const UNITS_PER_SECOND: f64 = RATE;

    fn setup(seed: u64, units: u64) -> Self {
        let stream = stream(seed, units as usize);
        let dir = PathBuf::from(crate::OUT_DIR).join(format!("serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = ServeEngine::open(&dir, MEMORY_TIER).expect("open the serve cache");
        let mut bits = BTreeMap::new();
        for (i, line) in stream.base.iter().enumerate() {
            if let Some((_, Some(b))) = value_bits(&engine.handle(line)) {
                bits.insert(i, b);
            }
        }
        Self {
            engine,
            dir,
            requests: stream.requests,
            responses: Vec::new(),
            bits,
            failed: 0,
            digest: 0,
        }
    }

    fn measure(&mut self, units: u64) {
        let t0 = trace::now_ns();
        let mut responses = Vec::with_capacity(self.requests.len());
        for (i, req) in self.requests.iter().take(units as usize).enumerate() {
            trace::set_ctx(i as u64 + 1, 0);
            let due = t0 + req.due_ns;
            if trace::now_ns() < due {
                trace::timed("serve.idle", "serve.idle", || wait_until(due));
                trace::count_max("sched_lag_ns", trace::now_ns() - due);
            }
            let start = trace::now_ns();
            let before = self.engine.stats();
            let (response, ns) = trace::timed("serve.handle", "serve.handle", || {
                self.engine.handle(&req.line)
            });
            let after = self.engine.stats();
            let end = trace::now_ns();
            let class = if req.drift {
                3
            } else if after.mem_hits > before.mem_hits {
                0
            } else if after.disk_hits > before.disk_hits {
                1
            } else {
                2
            };
            trace::set_ctx(i as u64 + 1, class);
            trace::sample("request", end - due);
            trace::sample("queue_wait", start - due);
            trace::sample(CLASSES[class], ns);
            trace::count("requests", 1);
            responses.push(response);
        }
        self.responses = responses;
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut digest = Fnv::default();
        self.failed = 0;
        for (req, response) in self.requests.iter().zip(&self.responses) {
            digest.bytes(response.as_bytes());
            match value_bits(response) {
                Some((status, _)) if status != "ok" => {
                    self.failed += 1;
                    problems.push(format!("serve-mixed: {} answered {response}", req.orbit));
                }
                Some((_, Some(b))) if !req.drift => {
                    let first = self.bits.entry(req.orbit).or_insert_with(|| b.clone());
                    if *first != b {
                        problems.push(format!(
                            "serve-mixed: orbit {} answered value bits {b}, first {first}",
                            req.orbit
                        ));
                    }
                }
                Some(_) if req.drift => {}
                _ => {
                    self.failed += 1;
                    problems.push(format!("serve-mixed: malformed response {response}"));
                }
            }
        }
        self.digest = digest.0;
        if let Err(bad) = self.engine.validate_cache() {
            problems.push(format!("serve-mixed: cache validation failed: {bad:?}"));
        }
        problems
    }

    fn summarize(&self, snap: &Snapshot) -> Summary {
        // Each request counts at its class's median latency and service
        // time. The host slows in bursts of tens to hundreds of
        // milliseconds, a fifth to two fifths of the time; memory hits are
        // two thirds of the stream, so the pooled median sat at their upper
        // quartile and the pooled p99 on the edge between the two slowest
        // classes, and both moved with every burst. A class median moves
        // only when a burst covers half of the class.
        let requests = snap.count("requests");
        let mut classes: Vec<(f64, usize, f64)> = snap
            .groups
            .get("request")
            .into_iter()
            .flatten()
            .filter_map(|(&c, latency)| {
                let service = median(snap.samples(CLASSES[c]))?;
                Some((median(latency)?, latency.len(), service))
            })
            .collect();
        classes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let busy_ns: f64 = classes.iter().map(|&(_, n, s)| n as f64 * s).sum();
        let mut below = 0;
        let p50 = classes.iter().find_map(|&(latency, n, _)| {
            below += n;
            (2 * below >= requests as usize).then_some(latency)
        });
        Summary {
            attempted: requests,
            failed: self.failed,
            succeeded: requests - self.failed,
            throughput: if busy_ns > 0.0 {
                requests as f64 * 1e9 / busy_ns
            } else {
                0.0
            },
            p50_ms: p50.map(|ns| ns / 1e6),
            tail_ms: classes.last().map(|&(ns, _, _)| ns / 1e6),
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::RawField;
    use meda_grid::{ChipDims, Grid};
    use meda_synth::{canonicalize, parse_request};

    /// The canonical digest `meda serve` files a request under.
    fn canonical_digest(line: &str) -> u64 {
        let req = parse_request(line).expect("generated requests parse");
        let b = req.bounds;
        let dims = ChipDims::new(b.xb as u32, b.yb as u32);
        let w = b.width() as usize;
        let grid = Grid::from_fn(dims, |c| {
            if b.contains_cell(c) {
                req.forces[(c.y - b.ya) as usize * w + (c.x - b.xa) as usize]
            } else {
                0.0
            }
        });
        let (job, _) = canonicalize(
            req.start,
            req.goal,
            req.bounds,
            &RawField::new(grid),
            &req.hazards,
            &req.config,
            req.query,
        );
        job.digest()
    }

    #[test]
    fn one_seed_yields_one_stream() {
        let a = stream(7, 300);
        let b = stream(7, 300);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.base, b.base);
        let c = stream(8, 300);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn repeats_canonicalize_to_their_orbit() {
        let s = stream(3, 400);
        let orbit_digest: Vec<u64> = s
            .orbits
            .iter()
            .map(|o| canonical_digest(&render(o, 0, (0, 0), "x", false)))
            .collect();
        let mut distinct = orbit_digest.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), s.orbits.len(), "orbits are distinct");
        let mut transformed = 0;
        for r in &s.requests {
            assert_eq!(
                canonical_digest(&r.line),
                orbit_digest[r.orbit],
                "request {} left its orbit",
                r.line
            );
            transformed += usize::from(!r.line.contains("\"bounds\":[1,1,"));
        }
        assert!(transformed > 300, "most repeats are translated");
    }

    #[test]
    fn mix_follows_the_stated_shares() {
        let s = stream(5, 4000);
        let drift = s.requests.iter().filter(|r| r.drift).count();
        let new = s.orbits.len() - 16 - drift;
        assert!((300..500).contains(&drift), "{drift} drifts");
        assert!((500..700).contains(&new), "{new} new orbits");
        let last_due = s.requests.last().map_or(0, |r| r.due_ns) as f64 / 1e9;
        assert!(
            (last_due - 4000.0 / RATE).abs() < 1.0,
            "stream spans {last_due} s"
        );
    }
}
