//! `mojo-hpc serve` — the always-on report service (DESIGN.md §13).
//!
//! The CLI lanes are run-to-completion: one request, one process, one
//! rendering. A deployment serving many collaborators from one expensive
//! compute source wants the opposite shape — a persistent daemon that
//! multiplexes concurrent clients, remembers what it already computed, and
//! collapses request spikes onto single computations. `serve` is that
//! daemon, built from three existing pieces:
//!
//! * **The work-stealing pool.** Each connection runs on its own thread and
//!   computes through the same `rayon`-shim pool `run`/`sweep` use, so the
//!   kernels parallelise identically under the server.
//! * **The stable `Params` encoding.** `Params::encode()` renders a total,
//!   spec-ordered `key=value,…` string — a content address. Completed
//!   results land in an LRU cache keyed on it (plus the experiment id for
//!   registry runs), bounded by entry count and estimated bytes.
//! * **The launcher layer.** A sweep request with at least
//!   `--spill-threshold` points is dispatched through
//!   [`crate::dispatch`]'s supervised worker subprocesses instead of the
//!   in-process pool, reusing its retry/timeout policy, and the shard merge
//!   guarantees the response still matches the single-process bytes.
//!
//! # Protocol
//!
//! Clients speak line-delimited JSON over TCP. Each request is one line:
//!
//! ```text
//! {"cmd": "run", "experiments": ["table1", "fig5"], "format": "json"}
//! {"cmd": "sweep", "workload": "stencil", "sizes": [16, 24],
//!  "params": {"precision": "fp32"}, "format": "csv"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! Every response starts with one compact JSON header line. `run` and
//! `sweep` headers carry `{"status":"ok","cached":…,"bytes":N}` and are
//! followed by exactly `N` raw payload bytes: the **same bytes** the
//! `run`/`sweep` subcommands print on stdout (omitting `experiments` runs
//! them all), so the golden fixtures double as protocol goldens. `stats`
//! returns `{"status":"ok","stats":{…}}`, `shutdown` acknowledges with
//! `{"status":"ok","shutdown":true}` and stops the server, and any failure
//! is `{"status":"error","error":"…"}`. A connection may pipeline any
//! number of requests. A request line longer than [`MAX_REQUEST_LINE`]
//! bytes is answered with an error and the connection is closed.
//!
//! Each reply (header line plus payload) leaves in a single write on a
//! `TCP_NODELAY` socket, so a small cached answer is not held back by
//! Nagle's algorithm waiting for the client's delayed ACK.
//!
//! # Memory
//!
//! The result LRU is the daemon's only long-lived cache. The
//! `science_kernels::cache` input memos a computation fills are released
//! once no computation is in flight ([`cache::release_idle_inputs`]);
//! `stats` reports what they still hold under `memo`.
//!
//! `cached` is true when every result the response needed came out of the
//! cache; identical requests computing concurrently are coalesced
//! single-flight (followers wait for the leader's result instead of
//! recomputing), counted separately in `stats`.
//!
//! The [`SERVE_SLOW_MS_ENV`] environment variable makes every computation
//! sleep first — the chaos seam the stress suite uses to hold many
//! identical requests in flight and prove exactly one computation runs.

use crate::dispatch::{self, DispatchPolicy, Launcher, LocalLauncher};
use crate::registry::{run_experiment, ExperimentId};
use crate::report::{json_array, json_field, json_opt_field, json_str, json_u64, ExperimentReport};
use crate::shard::{self, ShardPoolCounters};
use crate::sweep::{render_sweep, SweepSpec};
use science_kernels::cache;
use science_kernels::workload::{self, Measurement, WorkloadOutput};
use serde::value::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Environment variable holding a per-computation delay in milliseconds —
/// the serve-layer chaos seam (analogous to `MOJO_HPC_CHAOS` for workers).
/// The leader of each single-flight sleeps this long before computing, so a
/// test can pile identical requests onto one in-flight computation.
pub const SERVE_SLOW_MS_ENV: &str = "MOJO_HPC_SERVE_SLOW_MS";

/// Default bound on cached result entries.
pub const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// Default bound on the cache's estimated resident bytes (64 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Default worker count of the spill lane.
pub const DEFAULT_SPILL_WORKERS: u64 = 4;

/// Longest request line accepted, newline included (1 MiB). Reading stops
/// there, so no client can make the daemon buffer an unbounded line.
pub const MAX_REQUEST_LINE: u64 = 1024 * 1024;

/// Configuration of one `mojo-hpc serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port — the
    /// bound address is announced on stderr either way).
    pub listen: String,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
    /// Maximum cached results (0 disables caching).
    pub cache_entries: usize,
    /// Maximum estimated bytes of cached results.
    pub cache_bytes: u64,
    /// A sweep with at least this many points dispatches through the
    /// launcher layer instead of the in-process pool (0 disables spilling).
    pub spill_threshold: usize,
    /// Worker subprocesses of a spilled sweep (capped at the point count).
    pub spill_workers: u64,
    /// Per-attempt wall-clock timeout of spilled workers, in seconds.
    pub spill_timeout: Option<f64>,
    /// Directory for spill preset files (default `target/experiments`; kept
    /// out of the shared temp dir — a predictable path in a world-writable
    /// directory would be open to symlink games by other local users).
    pub scratch: Option<PathBuf>,
}

impl ServeConfig {
    /// A configuration with every knob at its default.
    pub fn new(listen: impl Into<String>) -> ServeConfig {
        ServeConfig {
            listen: listen.into(),
            threads: None,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            cache_bytes: DEFAULT_CACHE_BYTES,
            spill_threshold: 0,
            spill_workers: DEFAULT_SPILL_WORKERS,
            spill_timeout: None,
            scratch: None,
        }
    }
}

/// A completed computation, shared cheaply between the cache, in-flight
/// waiters, and response rendering.
#[derive(Clone)]
enum CachedValue {
    /// One registry experiment's report (also a spilled sweep's merged
    /// report, which arrives pre-rendered from the shard merge).
    Report(Arc<ExperimentReport>),
    /// One sweep point's measurement rows, keyed on the point's full
    /// `Params` encoding.
    Rows(Arc<Vec<Measurement>>),
}

impl CachedValue {
    /// Estimated resident bytes, for the cache's byte budget. String
    /// content dominates both shapes; the per-row constant covers struct
    /// overhead.
    fn cost(&self) -> u64 {
        match self {
            CachedValue::Report(report) => {
                let tables: usize = report
                    .tables
                    .iter()
                    .map(|(name, t)| {
                        name.len()
                            + t.header.iter().map(String::len).sum::<usize>()
                            + t.rows
                                .iter()
                                .map(|r| r.iter().map(String::len).sum::<usize>() + 24)
                                .sum::<usize>()
                    })
                    .sum();
                (report.id.len() + report.title.len() + report.text.len() + tables + 64) as u64
            }
            CachedValue::Rows(rows) => rows
                .iter()
                .map(|m| {
                    (m.device.len() + m.backend.len() + m.kernel.len() + m.verification.len() + 64)
                        as u64
                })
                .sum(),
        }
    }
}

/// One cache slot.
struct CacheEntry {
    value: CachedValue,
    cost: u64,
    last_used: u64,
}

/// The bounded LRU result cache. Recency is a logical tick (every get and
/// insert advances it); eviction scans for the minimum — linear, but the
/// entry bound keeps the scan short and the common path is one hash lookup.
struct ResultCache {
    max_entries: usize,
    max_bytes: u64,
    map: HashMap<String, CacheEntry>,
    bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

impl ResultCache {
    fn new(max_entries: usize, max_bytes: u64) -> ResultCache {
        ResultCache {
            max_entries,
            max_bytes,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            inserts: 0,
        }
    }

    fn get(&mut self, key: &str) -> Option<CachedValue> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: &str, value: CachedValue) {
        if self.max_entries == 0 {
            return;
        }
        let cost = value.cost();
        self.tick += 1;
        if let Some(old) = self.map.remove(key) {
            self.bytes -= old.cost;
        }
        self.bytes += cost;
        self.inserts += 1;
        self.map.insert(
            key.to_string(),
            CacheEntry {
                value,
                cost,
                last_used: self.tick,
            },
        );
        // Evict least-recently-used entries until both budgets hold. A
        // single over-budget value evicts itself — an entry larger than the
        // whole byte budget is not cacheable.
        while self.map.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let entry = self.map.remove(&lru).expect("key came from the map");
            self.bytes -= entry.cost;
            self.evictions += 1;
        }
    }
}

/// One in-flight computation other requests can latch onto.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<CachedValue, String>>>,
    cv: Condvar,
}

/// Shared state of a running server.
struct ServeState {
    config: ServeConfig,
    /// The bound address (used by `shutdown` to wake the acceptor).
    addr: SocketAddr,
    cache: Mutex<ResultCache>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    /// Computations actually executed (cache misses that led the flight).
    computed: AtomicU64,
    /// Requests that waited on another request's in-flight computation.
    coalesced: AtomicU64,
    /// Sweeps dispatched through the launcher layer.
    spilled: AtomicU64,
    /// Requests handled (any verb).
    requests: AtomicU64,
    /// Requests answered with an error status.
    errors: AtomicU64,
    shutdown: AtomicBool,
    /// Sequence for unique spill preset file names.
    spill_seq: AtomicU64,
    /// Pool counters at server start (`stats` reports the delta).
    pool_baseline: gpu_sim::PoolStats,
}

/// Locks a mutex, recovering the guard from a poisoned lock — one panicking
/// connection thread must not wedge a long-running daemon.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServeState {
    fn new(config: ServeConfig, addr: SocketAddr) -> ServeState {
        ServeState {
            cache: Mutex::new(ResultCache::new(config.cache_entries, config.cache_bytes)),
            config,
            addr,
            flights: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            spill_seq: AtomicU64::new(0),
            pool_baseline: gpu_sim::pool::stats(),
        }
    }
}

/// The serve-layer chaos delay, applied by single-flight leaders before
/// computing (see [`SERVE_SLOW_MS_ENV`]).
fn chaos_slow() {
    if let Some(ms) = std::env::var(SERVE_SLOW_MS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Returns `key`'s value from the cache, or computes it exactly once across
/// every concurrent request for the same key (single-flight): the first
/// requester leads and computes, later requesters wait on the leader's
/// [`Flight`] and share its result. The boolean is true when the value came
/// straight out of the cache.
fn get_or_compute<F>(
    state: &ServeState,
    key: &str,
    compute: F,
) -> Result<(CachedValue, bool), String>
where
    F: FnOnce() -> Result<CachedValue, String>,
{
    if let Some(value) = lock(&state.cache).get(key) {
        return Ok((value, true));
    }
    let (flight, leader) = {
        let mut flights = lock(&state.flights);
        match flights.get(key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::default());
                flights.insert(key.to_string(), Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    if leader {
        // A flight that completed between our cache miss and our
        // registration has already populated the cache; don't recompute.
        let cached = lock(&state.cache).get(key);
        let result = match cached {
            Some(value) => Ok(value),
            None => {
                chaos_slow();
                state.computed.fetch_add(1, Ordering::SeqCst);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute))
                    .unwrap_or_else(|_| Err("computation panicked".to_string()));
                if let Ok(value) = &result {
                    lock(&state.cache).insert(key, value.clone());
                }
                result
            }
        };
        *lock(&flight.done) = Some(result.clone());
        flight.cv.notify_all();
        lock(&state.flights).remove(key);
        result.map(|value| (value, false))
    } else {
        state.coalesced.fetch_add(1, Ordering::SeqCst);
        let mut done = lock(&flight.done);
        while done.is_none() {
            done = flight.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
        done.clone()
            .expect("loop exits only when set")
            .map(|value| (value, false))
    }
}

/// A parsed protocol request.
enum Request {
    /// `run`: regenerate registry experiments (all of them when the
    /// `experiments` field is absent).
    Run {
        ids: Vec<ExperimentId>,
        format: BodyFormat,
    },
    /// `sweep`: run a workload at custom sizes with parameter overrides.
    Sweep {
        workload: String,
        sizes: Vec<u64>,
        params: Vec<String>,
        format: BodyFormat,
    },
    /// `stats`: report cache / single-flight / pool counters.
    Stats,
    /// `shutdown`: acknowledge and stop the server.
    Shutdown,
}

/// Payload rendering of `run` and `sweep` responses — mirrors the CLI's
/// `--format` flag (the payload bytes match that lane's stdout exactly).
#[derive(Clone, Copy, PartialEq)]
enum BodyFormat {
    Csv,
    Json,
}

impl BodyFormat {
    fn parse(value: &str) -> Result<BodyFormat, String> {
        match value {
            "csv" => Ok(BodyFormat::Csv),
            "json" => Ok(BodyFormat::Json),
            other => Err(format!("format: expected csv or json, got '{other}'")),
        }
    }
}

/// Parses the optional `format` field (`json` when absent — a wire protocol
/// defaults to the machine-readable rendering).
fn parse_format(value: &Value) -> Result<BodyFormat, String> {
    match json_opt_field(value, "format") {
        Some(v) => BodyFormat::parse(json_str(v)?),
        None => Ok(BodyFormat::Json),
    }
}

/// Renders a `params` object's entries as the `key=value` override strings
/// [`SweepSpec::new`] consumes.
fn parse_param_overrides(value: &Value) -> Result<Vec<String>, String> {
    let Some(params) = json_opt_field(value, "params") else {
        return Ok(Vec::new());
    };
    let Value::Object(fields) = params else {
        return Err("params: expected an object of key/value pairs".to_string());
    };
    fields
        .iter()
        .map(|(key, v)| match v {
            Value::Str(s) => Ok(format!("{key}={s}")),
            Value::U64(n) => Ok(format!("{key}={n}")),
            Value::I64(n) => Ok(format!("{key}={n}")),
            other => Err(format!(
                "params.{key}: expected a string or integer, got {other:?}"
            )),
        })
        .collect()
}

/// Parses one request line.
fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let cmd = json_str(json_field(&value, "cmd")?)?;
    match cmd {
        "run" => {
            let ids = match json_opt_field(&value, "experiments") {
                None => ExperimentId::ALL.to_vec(),
                Some(list) => {
                    let names = json_array(list)?;
                    if names.is_empty() {
                        return Err("experiments: expected at least one id".to_string());
                    }
                    names
                        .iter()
                        .map(|v| ExperimentId::from_str(json_str(v)?))
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            Ok(Request::Run {
                ids,
                format: parse_format(&value)?,
            })
        }
        "sweep" => {
            let workload = json_str(json_field(&value, "workload")?)?.to_string();
            let sizes = json_array(json_field(&value, "sizes")?)?
                .iter()
                .map(json_u64)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Sweep {
                workload,
                sizes,
                params: parse_param_overrides(&value)?,
                format: parse_format(&value)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd '{other}' (known: run, sweep, stats, shutdown)"
        )),
    }
}

/// One response: a compact JSON header line, an optional raw payload, and
/// whether the server should stop after sending it.
struct Reply {
    header: Value,
    payload: Option<String>,
    shutdown: bool,
}

impl Reply {
    fn payload(cached: bool, body: String) -> Reply {
        Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                ("cached".to_string(), Value::Bool(cached)),
                ("bytes".to_string(), Value::U64(body.len() as u64)),
            ]),
            payload: Some(body),
            shutdown: false,
        }
    }

    fn error(message: String) -> Reply {
        Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("error".to_string())),
                ("error".to_string(), Value::Str(message)),
            ]),
            payload: None,
            shutdown: false,
        }
    }

    /// The reply's wire bytes: the header line, then the payload.
    fn frame(&self) -> String {
        let mut frame = serde_json::to_string(&self.header).expect("header serialises");
        frame.push('\n');
        if let Some(body) = &self.payload {
            frame.push_str(body);
        }
        frame
    }
}

/// Computes a `run` response body: per-experiment reports out of the cache
/// (or computed once under single-flight), rendered exactly as
/// `mojo-hpc run … --format …` prints them on stdout.
fn run_body(state: &ServeState, ids: &[ExperimentId], format: BodyFormat) -> Result<Reply, String> {
    let mut reports = Vec::with_capacity(ids.len());
    let mut all_cached = true;
    for id in ids {
        let key = format!("run:{}", id.as_str());
        let (value, from_cache) = get_or_compute(state, &key, || {
            Ok(CachedValue::Report(Arc::new(run_experiment(*id))))
        })?;
        all_cached &= from_cache;
        match value {
            CachedValue::Report(report) => reports.push(report),
            CachedValue::Rows(_) => return Err(format!("cache key '{key}' holds sweep rows")),
        }
    }
    let body = match format {
        BodyFormat::Json => {
            // The `render_json_array` bytes, built from the shared reports.
            let array = Value::Array(reports.iter().map(|r| r.to_json_value()).collect());
            let mut json = serde_json::to_string_pretty(&array).expect("reports serialise");
            json.push('\n');
            json
        }
        BodyFormat::Csv => reports
            .iter()
            .map(|r| format!("{}\n", r.render()))
            .collect(),
    };
    Ok(Reply::payload(all_cached, body))
}

/// Computes a `sweep` response body. Small sweeps run per-point on the
/// in-process pool with each point cached under its full `Params` encoding;
/// sweeps with at least `spill_threshold` points dispatch through the
/// launcher layer as one supervised fan-out, cached whole.
fn sweep_body(
    state: &ServeState,
    name: &str,
    sizes: &[u64],
    overrides: &[String],
    format: BodyFormat,
) -> Result<Reply, String> {
    let engine = workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (known: {})",
            workload::known_names()
        )
    })?;
    let spec = SweepSpec::new(engine, overrides, sizes.to_vec()).map_err(|e| e.to_string())?;
    let threshold = state.config.spill_threshold;
    let (report, all_cached) = if threshold > 0 && spec.sizes.len() >= threshold {
        let key = format!(
            "sweep:{}:{}:{}",
            engine.name(),
            spec.base.encode(),
            spec.sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let (value, from_cache) = get_or_compute(state, &key, || {
            spill_sweep(state, &spec).map(|report| CachedValue::Report(Arc::new(report)))
        })?;
        match value {
            CachedValue::Report(report) => (report, from_cache),
            CachedValue::Rows(_) => return Err(format!("cache key '{key}' holds sweep rows")),
        }
    } else {
        let mut outputs = Vec::with_capacity(spec.sizes.len());
        let mut all_cached = true;
        for &size in &spec.sizes {
            let point = spec.point(size).map_err(|e| e.to_string())?;
            let key = format!("point:{}:{}", engine.name(), point.encode());
            let (value, from_cache) = get_or_compute(state, &key, || {
                let output = engine.run(&point).map_err(|e| e.to_string())?;
                Ok(CachedValue::Rows(Arc::new(
                    output.measurements.iter().cloned().collect(),
                )))
            })?;
            all_cached &= from_cache;
            let rows = match value {
                CachedValue::Rows(rows) => rows,
                CachedValue::Report(_) => return Err(format!("cache key '{key}' holds a report")),
            };
            outputs.push(WorkloadOutput {
                params: point,
                measurements: rows.iter().cloned().collect(),
            });
        }
        (Arc::new(render_sweep(&spec, &outputs)), all_cached)
    };
    let body = match format {
        BodyFormat::Json => report.to_json_pretty(),
        BodyFormat::Csv => format!("{}\n", report.render()),
    };
    Ok(Reply::payload(all_cached, body))
}

/// Runs one sweep through the launcher layer: write a preset, fan the
/// points out over supervised worker subprocesses of this binary, and merge
/// the shard documents back into the byte-identical report.
fn spill_sweep(state: &ServeState, spec: &SweepSpec) -> Result<ExperimentReport, String> {
    state.spilled.fetch_add(1, Ordering::SeqCst);
    let scratch = state
        .config
        .scratch
        .clone()
        .unwrap_or_else(hpc_metrics::output::experiments_dir);
    let seq = state.spill_seq.fetch_add(1, Ordering::SeqCst);
    let preset = scratch.join(format!(
        ".mojo-hpc-serve-preset-{}-{seq}.json",
        std::process::id()
    ));
    spec.write_preset(&preset)
        .map_err(|e| format!("cannot write spill preset {}: {e}", preset.display()))?;
    let workers = state
        .config
        .spill_workers
        .min(spec.sizes.len() as u64)
        .max(1);
    let worker_args: Vec<Vec<String>> = (0..workers)
        .map(|index| {
            vec![
                "sweep".to_string(),
                "--preset".to_string(),
                preset.display().to_string(),
                "--shard".to_string(),
                format!("{index}/{workers}"),
            ]
        })
        .collect();
    let launchers: Vec<Box<dyn Launcher>> =
        vec![Box::new(LocalLauncher::current_exe(workers as usize)?)];
    let policy = DispatchPolicy {
        timeout: state.config.spill_timeout.map(Duration::from_secs_f64),
        ..DispatchPolicy::default()
    };
    let tasks = shard::worker_tasks(&worker_args);
    let result = dispatch::dispatch(&launchers, &tasks, &policy);
    std::fs::remove_file(&preset).ok();
    let (docs, summary) = result?;
    eprintln!("serve: spill dispatch: {}", summary.render());
    shard::merge_sweep(spec, &docs)
}

/// Builds the `stats` verb's counter tree.
fn stats_value(state: &ServeState) -> Value {
    let cache = lock(&state.cache);
    let cache_value = Value::Object(vec![
        ("entries".to_string(), Value::U64(cache.map.len() as u64)),
        ("bytes".to_string(), Value::U64(cache.bytes)),
        ("hits".to_string(), Value::U64(cache.hits)),
        ("misses".to_string(), Value::U64(cache.misses)),
        ("evictions".to_string(), Value::U64(cache.evictions)),
        ("inserts".to_string(), Value::U64(cache.inserts)),
        (
            "max_entries".to_string(),
            Value::U64(cache.max_entries as u64),
        ),
        ("max_bytes".to_string(), Value::U64(cache.max_bytes)),
    ]);
    drop(cache);
    let memo = cache::input_memo_gauge();
    let memo_value = Value::Object(vec![
        ("entries".to_string(), Value::U64(memo.entries)),
        ("bytes".to_string(), Value::U64(memo.bytes)),
    ]);
    let compute = Value::Object(vec![
        (
            "computed".to_string(),
            Value::U64(state.computed.load(Ordering::SeqCst)),
        ),
        (
            "coalesced".to_string(),
            Value::U64(state.coalesced.load(Ordering::SeqCst)),
        ),
        (
            "spilled".to_string(),
            Value::U64(state.spilled.load(Ordering::SeqCst)),
        ),
    ]);
    Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "stats".to_string(),
            Value::Object(vec![
                (
                    "requests".to_string(),
                    Value::U64(state.requests.load(Ordering::SeqCst)),
                ),
                (
                    "errors".to_string(),
                    Value::U64(state.errors.load(Ordering::SeqCst)),
                ),
                ("cache".to_string(), cache_value),
                ("memo".to_string(), memo_value),
                ("compute".to_string(), compute),
                (
                    "pool".to_string(),
                    ShardPoolCounters::since(&state.pool_baseline).to_json_value(),
                ),
            ]),
        ),
    ])
}

/// Dispatches one parsed request.
fn respond(state: &ServeState, request: Request) -> Result<Reply, String> {
    match request {
        Request::Run { ids, format } => run_body(state, &ids, format),
        Request::Sweep {
            workload,
            sizes,
            params,
            format,
        } => sweep_body(state, &workload, &sizes, &params, format),
        Request::Stats => Ok(Reply {
            header: stats_value(state),
            payload: None,
            shutdown: false,
        }),
        Request::Shutdown => Ok(Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                ("shutdown".to_string(), Value::Bool(true)),
            ]),
            payload: None,
            shutdown: true,
        }),
    }
}

/// Handles one request line (or the error of reading it), mapping every
/// failure to an error reply.
fn handle_request(state: &ServeState, line: Result<&str, String>) -> Reply {
    state.requests.fetch_add(1, Ordering::SeqCst);
    match line
        .and_then(parse_request)
        .and_then(|request| respond(state, request))
    {
        Ok(reply) => reply,
        Err(message) => {
            state.errors.fetch_add(1, Ordering::SeqCst);
            Reply::error(message)
        }
    }
}

/// Serves one connection: read request lines, write one framed reply per
/// request, until the peer hangs up (or asks for shutdown, or sends an
/// over-long line).
fn handle_connection(state: &ServeState, stream: TcpStream) {
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("serve: cannot set TCP_NODELAY: {e}");
    }
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("serve: cannot clone connection: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.by_ref().take(MAX_REQUEST_LINE).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("serve: read failed: {e}");
                break;
            }
        }
        let too_long = line.len() as u64 == MAX_REQUEST_LINE && !line.ends_with('\n');
        let request = if too_long {
            Err(format!(
                "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
            ))
        } else {
            Ok(line.trim())
        };
        if request.as_ref().is_ok_and(|text| text.is_empty()) {
            continue;
        }
        let computed = state.computed.load(Ordering::SeqCst);
        let reply = handle_request(state, request);
        // One write per reply: split into header and payload writes, a small
        // payload would wait on the client's delayed ACK of the header.
        if let Err(e) = writer.write_all(reply.frame().as_bytes()) {
            eprintln!("serve: write failed: {e}");
            break;
        }
        // The result cache keeps what a computation produced; the inputs
        // it generated are only worth keeping while another computation
        // may still share them. Releasing per request rather than per
        // cache unit keeps the helium system table4 and table5 share in
        // one `run` from being generated twice.
        if state.computed.load(Ordering::SeqCst) != computed && lock(&state.flights).is_empty() {
            cache::release_idle_inputs();
        }
        // The rest of an over-long line cannot be framed; hang up. Shut the
        // socket down explicitly: the acceptor still holds a clone of it.
        if too_long {
            writer.shutdown(Shutdown::Both).ok();
            break;
        }
        if reply.shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor so it observes the flag and stops.
            TcpStream::connect(state.addr).ok();
            break;
        }
    }
}

/// Runs the server until a `shutdown` request arrives. Binds `listen`,
/// announces the bound address on stderr (`serve: listening on ADDR` —
/// machine-parseable, and the only way to learn an ephemeral port), and
/// serves each connection on its own thread.
pub fn serve(config: &ServeConfig) -> Result<(), String> {
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| format!("serve: cannot bind {}: {e}", config.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: cannot read the bound address: {e}"))?;
    let state = Arc::new(ServeState::new(config.clone(), addr));
    eprintln!("serve: listening on {addr}");
    let mut connections: Vec<(std::thread::JoinHandle<()>, Option<TcpStream>)> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Keep a clone of the socket so shutdown can unblock a
                // handler parked in `read_line` on an idle connection.
                let peer = stream.try_clone().ok();
                let state = Arc::clone(&state);
                connections.push((
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                    }),
                    peer,
                ));
            }
            Err(e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("serve: accept failed: {e}");
            }
        }
        // Reap finished connection threads so a long-lived server's handle
        // list doesn't grow without bound.
        connections.retain(|(handle, _)| !handle.is_finished());
    }
    // Close the read side of every still-open connection *before* joining:
    // a handler blocked in `read_line` on an idle peer sees EOF and
    // returns, while one mid-computation still gets to write its response
    // (the write side stays open). Without this the join below deadlocks
    // against any client that keeps a connection open across shutdown.
    for (_, peer) in &connections {
        if let Some(peer) = peer {
            peer.shutdown(Shutdown::Read).ok();
        }
    }
    for (handle, _) in connections {
        handle.join().ok();
    }
    eprintln!(
        "serve: shut down after {} request(s)",
        state.requests.load(Ordering::SeqCst)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &str, text_len: usize) -> CachedValue {
        let mut report = ExperimentReport::new(id, "t");
        report.push_line("x".repeat(text_len));
        CachedValue::Report(Arc::new(report))
    }

    #[test]
    fn cache_tracks_hits_misses_and_lru_eviction() {
        let mut cache = ResultCache::new(2, u64::MAX);
        assert!(cache.get("a").is_none());
        cache.insert("a", report("a", 10));
        cache.insert("b", report("b", 10));
        assert!(cache.get("a").is_some());
        // Capacity 2: inserting c evicts the LRU entry, which is b.
        cache.insert("c", report("c", 10));
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.hits, 3);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn cache_enforces_the_byte_budget() {
        let small = report("s", 10);
        let budget = small.cost() * 2 + 1;
        let mut cache = ResultCache::new(100, budget);
        cache.insert("a", report("s", 10));
        cache.insert("b", report("s", 10));
        assert_eq!(cache.evictions, 0);
        cache.insert("c", report("s", 10));
        assert_eq!(cache.evictions, 1, "third entry pushes bytes over budget");
        // A value larger than the whole budget evicts itself.
        cache.insert("huge", report("h", 10_000));
        assert!(cache.get("huge").is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0, u64::MAX);
        cache.insert("a", report("a", 10));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.inserts, 0);
    }

    #[test]
    fn requests_parse_and_reject() {
        assert!(matches!(
            parse_request(r#"{"cmd":"run"}"#),
            Ok(Request::Run { ids, format: BodyFormat::Json }) if ids.len() == ExperimentId::ALL.len()
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"run","experiments":["table1"],"format":"csv"}"#),
            Ok(Request::Run { ids, format: BodyFormat::Csv }) if ids.len() == 1
        ));
        let sweep = parse_request(
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16,24],"params":{"precision":"fp32"}}"#,
        );
        match sweep {
            Ok(Request::Sweep {
                workload,
                sizes,
                params,
                ..
            }) => {
                assert_eq!(workload, "stencil");
                assert_eq!(sizes, vec![16, 24]);
                assert_eq!(params, vec!["precision=fp32".to_string()]);
            }
            other => panic!("expected a sweep request, got {:?}", other.is_ok()),
        }
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"launch-missiles"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"run","experiments":[]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"run","experiments":["nope"]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"sweep","workload":"stencil"}"#).is_err());
        assert!(
            parse_request(r#"{"cmd":"sweep","workload":"stencil","sizes":[8],"params":3}"#)
                .is_err()
        );
    }

    #[test]
    fn single_flight_coalesces_identical_requests() {
        let config = ServeConfig::new("127.0.0.1:0");
        let state = Arc::new(ServeState::new(
            config,
            "127.0.0.1:1".parse().expect("literal address"),
        ));
        let computations = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let state = Arc::clone(&state);
            let computations = Arc::clone(&computations);
            threads.push(std::thread::spawn(move || {
                get_or_compute(&state, "k", || {
                    computations.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(report("k", 10))
                })
                .expect("computation succeeds")
            }));
        }
        let mut cached = 0;
        for thread in threads {
            let (_, from_cache) = thread.join().expect("thread completes");
            if from_cache {
                cached += 1;
            }
        }
        // Threads that raced the in-flight window share one computation;
        // threads arriving after it completed hit the cache. Either way the
        // work ran at most... exactly once.
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(
            state.computed.load(Ordering::SeqCst),
            1,
            "one leader computed"
        );
        assert_eq!(
            state.coalesced.load(Ordering::SeqCst) + cached,
            7,
            "everyone else coalesced or hit the cache"
        );
        // A later identical request is a pure cache hit.
        let (_, from_cache) =
            get_or_compute(&state, "k", || panic!("must not recompute")).expect("cache hit");
        assert!(from_cache);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let config = ServeConfig::new("127.0.0.1:0");
        let state = ServeState::new(config, "127.0.0.1:1".parse().expect("literal address"));
        let err = get_or_compute(&state, "k", || Err("boom".to_string()));
        assert!(err.is_err());
        // The failure was not cached: the next request recomputes.
        let ok = get_or_compute(&state, "k", || Ok(report("k", 5)));
        assert!(ok.is_ok());
        assert_eq!(state.computed.load(Ordering::SeqCst), 2);
        // Panics surface as errors, not wedged flights.
        let panicked = get_or_compute(&state, "p", || panic!("kaboom"));
        assert!(panicked.is_err());
        assert!(lock(&state.flights).is_empty(), "no flight left behind");
    }
}
