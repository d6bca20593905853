//! The synthesis-service engine behind `meda serve` (DESIGN.md §16).
//!
//! Requests are newline-delimited JSON routing jobs; each is canonicalized
//! ([`crate::canonicalize`]), answered from the persistent
//! content-addressed cache when possible, and synthesized (in canonical
//! frame, then persisted) otherwise. Because the **cold path also solves
//! the canonical frame**, a cold response and a later warm response for
//! the same orbit carry bit-identical values — the two-run byte-identity
//! the `serve-smoke` CI stage asserts.
//!
//! Responses carry no hit/miss provenance; cache statistics go to the
//! caller via [`BatchOutcome::stats`] (the CLI prints them to stderr), so
//! stdout is a pure function of the request stream.
//!
//! [`run_batch`] is the deterministic replay path: requests are answered
//! in input order, sharded across a `std::thread::scope` worker pool by
//! canonical digest (so every repeat of an orbit lands on the worker that
//! already holds it in its memory tier). [`run_stream`] drives the same
//! engine over an interactive line stream; `drift` requests re-synthesize
//! asynchronously with respect to the submitting client — they are just
//! work items for the pool.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc;
use std::thread;

use meda_core::{ActionConfig, HazardBox, RawField};
use meda_grid::{ChipDims, Grid, Rect};
use meda_telemetry::Json;

use crate::cache::{CacheStats, PersistentCache};
use crate::canonical::{canonicalize, CanonicalJob, JobTransform};
use crate::Query;

/// Largest chip extent `xb · yb` (in MCs) a request's bounds may span.
/// Parsing allocates per bounds cell and canonicalization lifts the
/// forces into an `xb × yb` grid, so the extent is checked before either;
/// 256×256 leaves ample room above the paper's 90×90 chips.
const MAX_CHIP_CELLS: i64 = 256 * 256;

/// Longest request line [`run_stream`] reads, in bytes, not counting its
/// `\n`. The largest legal request is a `cells` array over
/// [`MAX_CHIP_CELLS`] = 65,536 cells. The longest shortest-round-trip form
/// of an `f64` in [0, 1], such as `2.2250738585072014e-308`, is 23 bytes;
/// with its comma a cell takes 24. Allowing 32 bytes per cell for
/// whitespace gives 32 · 65,536 = 2 MiB, and 64 KiB more covers the id,
/// geometry, config and hazards: 2,162,688 bytes in all. A longer line is
/// skipped unbuffered and answered with an error.
const MAX_REQUEST_BYTES: usize = 32 * MAX_CHIP_CELLS as usize + 64 * 1024;

/// Operation requested by one serve line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Synthesize-or-fetch a strategy and return value + nominal path.
    Route,
    /// Health drift: pre-warm the cache for the new force patch. The
    /// response acknowledges; the synthesized strategy stays cached.
    Drift,
}

/// One parsed serve request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The requested operation.
    pub op: ServeOp,
    /// Hazard bounds of the routing job.
    pub bounds: Rect,
    /// Start droplet.
    pub start: Rect,
    /// Goal region.
    pub goal: Rect,
    /// Effective force per bounds cell, row-major (length `w·h`).
    pub forces: Vec<f64>,
    /// Hazard boxes (absolute coordinates; may cross the bounds).
    pub hazards: Vec<HazardBox>,
    /// Action configuration.
    pub config: ActionConfig,
    /// Synthesis query.
    pub query: Query,
}

/// A request that already went through canonicalization — the unit of
/// work the pool shards by canonical digest.
struct Prepared {
    index: usize,
    request: ServeRequest,
    job: CanonicalJob,
    transform: JobTransform,
}

/// Reads one integer coordinate. A JSON number that is not an integer in
/// `i32` range (2.7, 1e12, NaN) is rejected, never truncated or saturated.
fn parse_coord(v: &Json, what: &str) -> Result<i32, String> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what} coord not a number"))?;
    // `as` saturates out-of-range values and maps NaN to 0, so `x` is an
    // integer in `i32` range exactly when it survives the round trip.
    let n = x as i32;
    if f64::from(n) != x {
        return Err(format!("{what} coord {x} is not an integer in i32 range"));
    }
    Ok(n)
}

/// Reads the `[xa, ya, xb, yb]` coordinates at the head of `a` (a rect,
/// or the first four fields of a hazard box).
pub(crate) fn parse_coords(a: &[Json], what: &str) -> Result<[i32; 4], String> {
    let mut c = [0i32; 4];
    for (slot, v) in c.iter_mut().zip(a) {
        *slot = parse_coord(v, what)?;
    }
    Ok(c)
}

fn parse_rect_arr(j: &Json) -> Result<Rect, String> {
    let a = j.as_arr().ok_or("expected [xa,ya,xb,yb]")?;
    if a.len() != 4 {
        return Err(format!("rect needs 4 coords, got {}", a.len()));
    }
    let c = parse_coords(a, "rect")?;
    Rect::try_new(c[0], c[1], c[2], c[3]).map_err(|e| format!("bad rect: {e:?}"))
}

/// Parses one newline-delimited request document.
///
/// Schema: `{"id": str, "op": "route"|"drift", "bounds": [xa,ya,xb,yb],
/// "start": [...], "goal": [...], "force": f | "cells": [f,...],
/// "hazards": [[xa,ya,xb,yb,factor],...], "query": "rmin"|"pmax",
/// "config": {"aspect_ratio_max": f, "double_step": b, "ordinal": b,
/// "morphing": b}}` — `hazards`, `query`, `config`, and `op` optional.
///
/// # Errors
///
/// Returns a human-readable reason for malformed requests.
pub fn parse_request(line: &str) -> Result<ServeRequest, String> {
    request_from(&Json::parse(line)?)
}

/// Parses one request line, or renders its error reply. The reply keeps
/// the request's id whenever the line is JSON with a string `id`.
fn parse_or_reply(line: &str) -> Result<ServeRequest, String> {
    let doc =
        Json::parse(line).map_err(|reason| error_response("", &format!("parse: {reason}")))?;
    request_from(&doc).map_err(|reason| {
        let id = doc.get("id").and_then(Json::as_str).unwrap_or_default();
        error_response(id, &format!("parse: {reason}"))
    })
}

fn request_from(doc: &Json) -> Result<ServeRequest, String> {
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or("missing string field id")?
        .to_string();
    let op = match doc.get("op").and_then(Json::as_str) {
        None | Some("route") => ServeOp::Route,
        Some("drift") => ServeOp::Drift,
        Some(other) => return Err(format!("unknown op {other:?}")),
    };
    let bounds = parse_rect_arr(doc.get("bounds").ok_or("missing bounds")?)?;
    let start = parse_rect_arr(doc.get("start").ok_or("missing start")?)?;
    let goal = parse_rect_arr(doc.get("goal").ok_or("missing goal")?)?;
    if bounds.xa < 1 || bounds.ya < 1 {
        return Err("bounds must lie in chip coordinates (xa, ya ≥ 1)".into());
    }
    if !bounds.contains_rect(start) || !bounds.contains_rect(goal) {
        return Err("start and goal must lie within bounds".into());
    }
    if i64::from(bounds.xb) * i64::from(bounds.yb) > MAX_CHIP_CELLS {
        return Err(format!(
            "bounds reach ({}, {}): a chip over {MAX_CHIP_CELLS} cells",
            bounds.xb, bounds.yb
        ));
    }
    let cell_count = bounds.width() as usize * bounds.height() as usize;
    let forces = if let Some(cells) = doc.get("cells") {
        let arr = cells.as_arr().ok_or("cells not an array")?;
        if arr.len() != cell_count {
            return Err(format!(
                "cells has {} entries, bounds {}x{} needs {}",
                arr.len(),
                bounds.width(),
                bounds.height(),
                cell_count
            ));
        }
        arr.iter()
            .map(|j| {
                let f = j.as_f64().ok_or("cell force not a number")?;
                if (0.0..=1.0).contains(&f) {
                    Ok(f)
                } else {
                    Err(format!("cell force {f} outside [0, 1]"))
                }
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        let f = doc
            .get("force")
            .and_then(Json::as_f64)
            .ok_or("missing force (uniform) or cells (per-cell)")?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("force {f} outside [0, 1]"));
        }
        vec![f; cell_count]
    };
    let hazards = match doc.get("hazards") {
        None => Vec::new(),
        Some(h) => h
            .as_arr()
            .ok_or("hazards not an array")?
            .iter()
            .map(|j| {
                let a = j.as_arr().ok_or("hazard not an array")?;
                if a.len() != 5 {
                    return Err(format!("hazard needs 5 fields, got {}", a.len()));
                }
                let c = parse_coords(a, "hazard")?;
                let factor = a[4].as_f64().ok_or("hazard factor not a number")?;
                if !(0.0..=1.0).contains(&factor) {
                    return Err(format!("hazard factor {factor} outside [0, 1]"));
                }
                Ok(HazardBox {
                    rect: Rect::try_new(c[0], c[1], c[2], c[3])
                        .map_err(|e| format!("bad hazard rect: {e:?}"))?,
                    factor,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let query = match doc.get("query").and_then(Json::as_str) {
        None | Some("rmin") => Query::MinExpectedCycles,
        Some("pmax") => Query::MaxReachProbability,
        Some(other) => return Err(format!("unknown query {other:?}")),
    };
    let config = match doc.get("config") {
        None => ActionConfig::default(),
        Some(c) => ActionConfig {
            aspect_ratio_max: c
                .get("aspect_ratio_max")
                .and_then(Json::as_f64)
                .unwrap_or(ActionConfig::default().aspect_ratio_max),
            double_step: !matches!(c.get("double_step"), Some(Json::Bool(false))),
            ordinal: !matches!(c.get("ordinal"), Some(Json::Bool(false))),
            morphing: !matches!(c.get("morphing"), Some(Json::Bool(false))),
        },
    };
    Ok(ServeRequest {
        id,
        op,
        bounds,
        start,
        goal,
        forces,
        hazards,
        config,
        query,
    })
}

fn canonicalize_request(request: ServeRequest, index: usize) -> Prepared {
    // The request's forces are row-major over its bounds; lift them into a
    // chip-sized grid so the canonicalizer can read them as a field.
    let dims = ChipDims::new(request.bounds.xb as u32, request.bounds.yb as u32);
    let bounds = request.bounds;
    let w = bounds.width() as usize;
    let grid = Grid::from_fn(dims, |cell| {
        if bounds.contains_cell(cell) {
            let u = (cell.x - bounds.xa) as usize;
            let v = (cell.y - bounds.ya) as usize;
            request.forces.get(v * w + u).copied().unwrap_or(0.0)
        } else {
            0.0
        }
    });
    let field = RawField::new(grid);
    let (job, transform) = canonicalize(
        request.start,
        request.goal,
        request.bounds,
        &field,
        &request.hazards,
        &request.config,
        request.query,
    );
    Prepared {
        index,
        request,
        job,
        transform,
    }
}

fn error_response(id: &str, reason: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::str(id)),
        ("status".into(), Json::str("error")),
        ("error".into(), Json::str(reason)),
    ])
    .to_string()
}

/// Resolves one prepared request against a cache: hit in O(lookup),
/// synthesis on miss (canonical frame, persisted for the next caller).
fn resolve(cache: &mut PersistentCache, p: &Prepared) -> String {
    let strategy = match cache.get(&p.job) {
        Some(s) => s,
        None => match p.job.synthesize() {
            Some(s) => match cache.insert(&p.job, s) {
                Ok(arc) => arc,
                Err(e) => return error_response(&p.request.id, &format!("cache write: {e}")),
            },
            None => {
                return Json::Obj(vec![
                    ("id".into(), Json::str(&p.request.id)),
                    ("status".into(), Json::str("infeasible")),
                ])
                .to_string()
            }
        },
    };
    if p.request.op == ServeOp::Drift {
        return Json::Obj(vec![
            ("id".into(), Json::str(&p.request.id)),
            ("status".into(), Json::str("ok")),
            ("op".into(), Json::str("drift")),
            ("prewarmed".into(), Json::Bool(true)),
        ])
        .to_string();
    }
    // Map the canonical-frame answer back to the request frame.
    let canon_path = strategy.nominal_path();
    let mut path = Vec::with_capacity(canon_path.len());
    let mut actions = Vec::new();
    for (i, rc) in canon_path.iter().enumerate() {
        let r = p.transform.from_canonical_rect(*rc);
        path.push(Json::Arr(vec![
            Json::num(r.xa),
            Json::num(r.ya),
            Json::num(r.xb),
            Json::num(r.yb),
        ]));
        if i + 1 < canon_path.len() {
            if let Some(a) = strategy.decide(*rc) {
                actions.push(Json::str(p.transform.from_canonical_action(a).to_string()));
            }
        }
    }
    let value = strategy.value_at_init();
    let query_tag = match strategy.query() {
        Query::MaxReachProbability => "pmax",
        Query::MinExpectedCycles => "rmin",
    };
    Json::Obj(vec![
        ("id".into(), Json::str(&p.request.id)),
        ("status".into(), Json::str("ok")),
        ("query".into(), Json::str(query_tag)),
        (
            "value_bits".into(),
            Json::str(format!("{:016x}", value.to_bits())),
        ),
        (
            "value".into(),
            if value.is_finite() {
                Json::Num(value)
            } else {
                Json::Null
            },
        ),
        ("path".into(), Json::Arr(path)),
        ("actions".into(), Json::Arr(actions)),
    ])
    .to_string()
}

/// A single-threaded serve engine over one persistent cache — the unit a
/// worker owns, and the driver `bench_serve` times.
pub struct ServeEngine {
    cache: PersistentCache,
}

impl ServeEngine {
    /// Opens the engine over a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn open(cache_dir: impl Into<std::path::PathBuf>, capacity: usize) -> io::Result<Self> {
        Ok(Self {
            cache: PersistentCache::open(cache_dir, capacity)?,
        })
    }

    /// Handles one request line, returning one response line.
    pub fn handle(&mut self, line: &str) -> String {
        match parse_or_reply(line) {
            Ok(request) => {
                let prepared = canonicalize_request(request, 0);
                resolve(&mut self.cache, &prepared)
            }
            Err(reply) => reply,
        }
    }

    /// The cache counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Validates every on-disk entry; see
    /// [`PersistentCache::validate_all`].
    ///
    /// # Errors
    ///
    /// Returns the `(path, reason)` failure list.
    pub fn validate_cache(&self) -> Result<usize, Vec<(std::path::PathBuf, String)>> {
        self.cache.validate_all()
    }
}

/// The outcome of a batch run: responses in request order plus the merged
/// cache statistics of all workers.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response line per request line, in input order.
    pub responses: Vec<String>,
    /// Merged worker cache statistics.
    pub stats: CacheStats,
}

fn merge(into: &mut CacheStats, s: CacheStats) {
    into.mem_hits += s.mem_hits;
    into.disk_hits += s.disk_hits;
    into.misses += s.misses;
    into.rejected += s.rejected;
    into.inserts += s.inserts;
}

/// Deterministic batch replay: every input line is answered, in order,
/// sharded by canonical digest across `workers` scoped threads (each with
/// its own view of the shared cache directory — shards are disjoint by
/// construction, so no two workers touch the same entry file).
///
/// Lines are read like [`run_stream`]'s: a line longer than
/// `MAX_REQUEST_BYTES` (2,162,688 bytes) or not UTF-8 gets a
/// `status: "error"` reply in its place, and the batch goes on.
///
/// # Errors
///
/// Propagates read errors and cache-directory creation failures;
/// malformed requests produce `status: "error"` responses instead of
/// failing the batch.
pub fn run_batch(
    mut input: impl BufRead,
    cache_dir: &Path,
    capacity: usize,
    workers: usize,
) -> io::Result<BatchOutcome> {
    let mut responses: Vec<Option<String>> = Vec::new();
    let mut prepared = Vec::new();
    let mut buf = Vec::new();
    while let Some(line) = read_request_line(&mut input, &mut buf, MAX_REQUEST_BYTES)? {
        let i = responses.len();
        responses.push(match line {
            Ok(line) if line.trim().is_empty() => Some(String::new()),
            Ok(line) => match parse_or_reply(line) {
                Ok(req) => {
                    prepared.push(canonicalize_request(req, i));
                    None
                }
                Err(reply) => Some(reply),
            },
            Err(reason) => Some(error_response("", &reason)),
        });
    }
    let workers = workers.max(1);
    let mut stats = CacheStats::default();
    if workers == 1 || prepared.len() <= 1 {
        let mut cache = PersistentCache::open(cache_dir, capacity)?;
        for p in &prepared {
            responses[p.index] = Some(resolve(&mut cache, p));
        }
        merge(&mut stats, cache.stats());
    } else {
        // Disjoint shards by canonical digest: an orbit always lands on
        // the same worker, so repeats hit that worker's memory tier.
        let mut shards: Vec<Vec<Prepared>> = Vec::new();
        shards.resize_with(workers, Vec::new);
        for p in prepared {
            let w = (p.job.digest() % workers as u64) as usize;
            shards[w].push(p);
        }
        let (tx, rx) = mpsc::channel::<(usize, String)>();
        let (stx, srx) = mpsc::channel::<io::Result<CacheStats>>();
        thread::scope(|scope| {
            for shard in &shards {
                let tx = tx.clone();
                let stx = stx.clone();
                scope.spawn(move || {
                    let mut cache = match PersistentCache::open(cache_dir, capacity) {
                        Ok(c) => c,
                        Err(e) => {
                            let _ = stx.send(Err(e));
                            return;
                        }
                    };
                    for p in shard {
                        let _ = tx.send((p.index, resolve(&mut cache, p)));
                    }
                    let _ = stx.send(Ok(cache.stats()));
                });
            }
        });
        drop(tx);
        drop(stx);
        for (index, response) in rx {
            responses[index] = Some(response);
        }
        for s in srx {
            merge(&mut stats, s?);
        }
    }
    Ok(BatchOutcome {
        responses: responses
            .into_iter()
            .map(|r| r.unwrap_or_default())
            .collect(),
        stats,
    })
}

/// Long-running line-stream front end: reads newline-delimited requests
/// from `input` until EOF, writes one response line per request to
/// `output` (flushed per line, so interactive clients see answers
/// immediately). Single engine, in-order — the worker pool applies to
/// [`run_batch`], where the full request set is known up front.
///
/// A line longer than `MAX_REQUEST_BYTES` (2,162,688 bytes) or not UTF-8
/// gets a `status: "error"` reply, and the stream goes on with the next
/// line.
///
/// # Errors
///
/// Propagates I/O errors from the transport and cache-directory creation.
pub fn run_stream(
    mut input: impl BufRead,
    mut output: impl Write,
    cache_dir: &Path,
    capacity: usize,
) -> io::Result<CacheStats> {
    let mut engine = ServeEngine::open(cache_dir, capacity)?;
    let mut buf = Vec::new();
    while let Some(line) = read_request_line(&mut input, &mut buf, MAX_REQUEST_BYTES)? {
        let response = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => engine.handle(line),
            Err(reason) => error_response("", &reason),
        };
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    Ok(engine.stats())
}

/// Reads the next line of `input` into `buf` (cleared first) and returns
/// it without its `\n` or `\r\n`; `None` at end of input. A line of more
/// than `limit` bytes is never buffered whole: its first `limit + 1` bytes
/// are read, the rest is skipped up to the next `\n`, and it comes back as
/// an `Err` reason, as does a line that is not UTF-8. Either way the
/// stream stays positioned at the start of the following line.
fn read_request_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    limit: usize,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let n = input
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > limit {
        input.skip_until(b'\n')?;
        return Ok(Some(Err(format!("request line longer than {limit} bytes"))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|e| format!("request line is not UTF-8: {e}")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new("target")
            .join("test-serve")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// [`run_batch`] over `lines`, one request per line.
    fn batch(lines: &[String], dir: &Path, workers: usize) -> BatchOutcome {
        run_batch(lines.join("\n").as_bytes(), dir, 8, workers).expect("batch")
    }

    fn request(id: &str, dx: i32, dy: i32) -> String {
        format!(
            r#"{{"id":"{id}","bounds":[{},{},{},{}],"start":[{},{},{},{}],"goal":[{},{},{},{}],"force":0.9}}"#,
            1 + dx,
            1 + dy,
            8 + dx,
            6 + dy,
            1 + dx,
            1 + dy,
            2 + dx,
            2 + dy,
            7 + dx,
            5 + dy,
            8 + dx,
            6 + dy,
        )
    }

    #[test]
    fn translated_requests_share_one_cache_entry() {
        let dir = temp_dir("translated");
        let lines = vec![request("a", 0, 0), request("b", 5, 3), request("c", 11, 2)];
        let out = batch(&lines, &dir, 1);
        assert_eq!(out.stats.inserts, 1, "one canonical orbit, one entry");
        assert_eq!(out.stats.hits(), 2, "translations are cache hits");
        // All three answers carry the same optimal value bits.
        let bits: Vec<&str> = out
            .responses
            .iter()
            .map(|r| {
                Json::parse(r)
                    .ok()
                    .and_then(|d| {
                        d.get("value_bits")
                            .and_then(|v| v.as_str().map(String::from))
                    })
                    .map(|s| Box::leak(s.into_boxed_str()) as &str)
                    .expect("value_bits")
            })
            .collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[1], bits[2]);
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let dir = temp_dir("determinism");
        let lines = vec![request("a", 0, 0), request("b", 4, 1), request("a2", 0, 0)];
        let cold = batch(&lines, &dir, 1);
        let warm = batch(&lines, &dir, 1);
        assert_eq!(cold.responses, warm.responses);
        assert!(warm.stats.hits() >= 3, "second run fully warm");
        assert_eq!(warm.stats.inserts, 0);
    }

    #[test]
    fn worker_pool_matches_single_thread_responses() {
        let dir_a = temp_dir("pool-a");
        let dir_b = temp_dir("pool-b");
        let mut lines = Vec::new();
        for i in 0..6 {
            lines.push(request(&format!("r{i}"), i % 3, (i * 2) % 5));
        }
        let single = batch(&lines, &dir_a, 1);
        let pooled = batch(&lines, &dir_b, 4);
        assert_eq!(single.responses, pooled.responses);
    }

    fn request_with_start(start: &str) -> String {
        format!(r#"{{"id":"x","bounds":[1,1,8,6],"start":{start},"goal":[7,5,8,6],"force":0.9}}"#)
    }

    #[test]
    fn integral_coordinates_parse() {
        let req = parse_request(&request_with_start("[1.0,1,2,2e0]")).expect("integral");
        assert_eq!(req.start, Rect::new(1, 1, 2, 2));
        assert_eq!(parse_coord(&Json::Num(-0.0), "rect"), Ok(0));
    }

    #[test]
    fn fractional_coordinate_is_rejected() {
        let err = parse_request(&request_with_start("[1,1,2.7,2]")).unwrap_err();
        assert!(err.contains("rect coord 2.7"), "{err}");
    }

    #[test]
    fn coordinate_above_i32_is_rejected() {
        let err = parse_request(&request_with_start("[1,1,1e12,2]")).unwrap_err();
        assert!(err.contains("not an integer in i32 range"), "{err}");
    }

    #[test]
    fn coordinate_below_i32_is_rejected() {
        let err = parse_request(&request_with_start("[-1e12,1,2,2]")).unwrap_err();
        assert!(err.contains("not an integer in i32 range"), "{err}");
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(parse_coord(&Json::Num(x), "rect").is_err(), "{x}");
        }
    }

    #[test]
    fn fractional_hazard_coordinate_is_rejected() {
        let line = r#"{"id":"h","bounds":[1,1,8,6],"start":[1,1,2,2],"goal":[7,5,8,6],"force":0.9,"hazards":[[3,3,4.5,4,0.5]]}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("hazard coord 4.5"), "{err}");
    }

    #[test]
    fn oversized_bounds_are_rejected_before_allocating() {
        let line = r#"{"id":"big","bounds":[1,1,100000,100000],"start":[1,1,2,2],"goal":[7,5,8,6],"force":0.9}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("cells"), "{err}");
        // The paper's 90×90 chip, anchored far from the origin, still fits.
        let paper = r#"{"id":"p","bounds":[100,100,189,189],"start":[100,100,101,101],"goal":[188,188,189,189],"force":0.9}"#;
        assert!(parse_request(paper).is_ok());
    }

    #[test]
    fn deeply_nested_line_is_answered_and_the_stream_continues() {
        let dir = temp_dir("nested");
        let input = format!("{}\n{}\n", "[".repeat(100_000), request("after", 0, 0));
        let mut output = Vec::new();
        run_stream(input.as_bytes(), &mut output, &dir, 8).expect("stream");
        let text = String::from_utf8(output).expect("utf8");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 2);
        assert!(
            replies[0].contains("\"status\":\"error\""),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("\"status\":\"ok\""), "{}", replies[1]);
    }

    #[test]
    fn malformed_and_infeasible_requests_are_reported() {
        let dir = temp_dir("errors");
        let lines = vec![
            "not json".to_string(),
            // Start walled off from the goal by zero-force cells.
            r#"{"id":"z","bounds":[1,1,3,1],"start":[1,1,1,1],"goal":[3,1,3,1],"cells":[0.9,0.0,0.9],"config":{"double_step":false,"ordinal":false,"morphing":false}}"#
                .to_string(),
        ];
        let out = batch(&lines, &dir, 1);
        assert!(out.responses[0].contains("\"error\""));
        assert!(out.responses[1].contains("infeasible"));
    }

    #[test]
    fn error_replies_keep_a_well_formed_id() {
        let dir = temp_dir("error-id");
        let lines = vec![
            r#"{"id":"a","bounds":[1,1,10,6],"start":[1,1,1,1],"goal":[9,5,9,5],"force":-1}"#
                .to_string(),
            r#"{"id":7,"bounds":[1,1,10,6]}"#.to_string(),
            "not json".to_string(),
        ];
        let expected = [
            r#"{"id":"a","status":"error","error":"parse: force -1 outside [0, 1]"}"#,
            r#"{"id":"","status":"error","error":"parse: missing string field id"}"#,
        ];
        let out = batch(&lines, &dir, 1);
        assert_eq!(out.responses[..2], expected);
        assert!(out.responses[2].starts_with(r#"{"id":"","status":"error""#));
        let mut engine = ServeEngine::open(&dir, 8).expect("engine");
        for (line, reply) in lines.iter().zip(&out.responses) {
            assert_eq!(&engine.handle(line), reply, "stream and batch agree");
        }
    }

    #[test]
    fn hostile_batch_lines_get_error_replies_in_place() {
        let dir = temp_dir("hostile-batch");
        let good = request("g", 0, 0);
        let mut input = format!("{good}\n").into_bytes();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 1));
        input.extend_from_slice(format!("\n\n{good}").as_bytes());
        let out = run_batch(input.as_slice(), &dir, 8, 1).expect("batch");
        assert_eq!(out.responses.len(), 5);
        assert!(out.responses[0].contains("\"status\":\"ok\""));
        assert!(
            out.responses[1].contains("not UTF-8"),
            "{}",
            out.responses[1]
        );
        assert!(
            out.responses[2].contains("longer than"),
            "{}",
            out.responses[2]
        );
        assert!(out.responses[3].is_empty(), "a blank line gets no reply");
        assert_eq!(out.responses[4], out.responses[0]);
    }

    #[test]
    fn drift_prewarms_the_cache_for_later_routes() {
        let dir = temp_dir("drift");
        let drift = request("d", 0, 0).replace("\"id\":\"d\"", "\"id\":\"d\",\"op\":\"drift\"");
        let out = batch(&[drift, request("r", 0, 0)], &dir, 1);
        assert!(out.responses[0].contains("prewarmed"));
        assert_eq!(out.stats.hits(), 1, "route after drift is a hit");
    }

    #[test]
    fn stream_mode_answers_each_line() {
        let dir = temp_dir("stream");
        let input = format!("{}\n{}\n", request("s1", 0, 0), request("s2", 2, 2));
        let mut output = Vec::new();
        let stats = run_stream(input.as_bytes(), &mut output, &dir, 8).expect("stream");
        let text = String::from_utf8(output).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"status\":\"ok\"")));
        assert_eq!(stats.hits(), 1);
    }

    /// Runs `input` through a fresh stream session and returns its replies.
    fn stream_replies(tag: &str, input: &[u8]) -> Vec<String> {
        let dir = temp_dir(tag);
        let mut output = Vec::new();
        run_stream(input, &mut output, &dir, 8).expect("stream");
        String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn non_utf8_line_is_answered_and_the_stream_continues() {
        let valid = request("after", 0, 0);
        let alone = stream_replies("utf8-alone", format!("{valid}\n").as_bytes());
        let mut input = b"{\"id\":\"\xff\xfe\"}\n".to_vec();
        input.extend_from_slice(format!("{valid}\n").as_bytes());
        let replies = stream_replies("utf8-bad", &input);
        assert_eq!(replies.len(), 2);
        assert!(
            replies[0].contains("\"status\":\"error\""),
            "{}",
            replies[0]
        );
        assert!(replies[0].contains("not UTF-8"), "{}", replies[0]);
        assert_eq!(
            replies[1], alone[0],
            "the next request is answered as usual"
        );
    }

    #[test]
    fn over_limit_line_is_answered_and_the_stream_continues() {
        let valid = request("after", 0, 0);
        let alone = stream_replies("long-alone", format!("{valid}\n").as_bytes());
        let mut input = vec![b'['; MAX_REQUEST_BYTES + 1];
        input.extend_from_slice(format!("\n{valid}\n").as_bytes());
        let replies = stream_replies("long-bad", &input);
        assert_eq!(replies.len(), 2);
        assert!(
            replies[0].contains("\"status\":\"error\""),
            "{}",
            replies[0]
        );
        assert!(replies[0].contains("longer than"), "{}", replies[0]);
        assert_eq!(
            replies[1], alone[0],
            "the next request is answered as usual"
        );
    }

    #[test]
    fn bounded_read_splits_lines_at_the_limit() {
        let mut input: &[u8] = b"abcd\nabcde\nab\r\n\xff\nlast";
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_request_line(&mut input, &mut buf, 4).expect("read") {
            lines.push(line.map(String::from));
        }
        assert_eq!(
            lines[0],
            Ok("abcd".to_string()),
            "a line at the limit is read"
        );
        assert!(lines[1]
            .as_ref()
            .is_err_and(|e| e.contains("longer than 4")));
        assert_eq!(lines[2], Ok("ab".to_string()), "CRLF is stripped");
        assert!(lines[3].as_ref().is_err_and(|e| e.contains("not UTF-8")));
        assert_eq!(lines[4], Ok("last".to_string()), "no final newline");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn the_largest_legal_request_fits_the_line_limit() {
        // Every cell of a 256×256 chip, each force at its longest form.
        let side = 256;
        let cells = vec!["2.2250738585072014e-308"; side * side].join(",");
        let line = format!(
            r#"{{"id":"max","bounds":[1,1,{side},{side}],"start":[1,1,2,2],"goal":[3,3,4,4],"cells":[{cells}]}}"#
        );
        assert!(line.len() <= MAX_REQUEST_BYTES, "{} bytes", line.len());
        let req = parse_request(&line).expect("largest legal request");
        assert_eq!(req.forces.len(), side * side);
    }
}
