//! The explicit SIMD fast lane and its measured crossover table.
//!
//! Three kernels have two implementations — the only three whose measured
//! speedup clears [`AUTO_MIN_SPEEDUP`]:
//!
//! * the **deterministic lane** — scalar loops and the fixed-chunk pairwise
//!   tree reduction of the rayon shim. Bitwise-stable across thread counts;
//!   the association every golden fixture was recorded with.
//! * the **SIMD lane** — hand-unrolled multi-accumulator kernels (4–8
//!   independent `f64`/`f32` accumulators) that break the floating-point
//!   dependency chain so the out-of-order core can keep its FMA ports busy.
//!   Strict IEEE, no fast-math: the only liberty taken is *reassociation*,
//!   bounded by a documented per-kernel tolerance.
//!
//! Every other kernel (the element-wise streams, the stencil, Jacobi and the
//! frame stream) measured at or below parity and has the deterministic lane
//! only; `--lane simd|auto` runs the same code for them.
//!
//! Which lane runs is decided per kernel per size by [`resolve`], driven by a
//! [`LanePolicy`]: `deterministic` (the default — golden output stays
//! byte-identical), `simd` (force the fast lane), or `auto` (consult the
//! committed [`CrossoverTable::builtin`]). The table is measured by
//! `cargo bench -p bench --bench crossover`, written to
//! `target/bench/crossover.json`, and committed at
//! `crates/kernels/src/simd/crossover_default.json`, so `auto` depends only
//! on the build and the input.
//!
//! Per-kernel lane-parity tolerances (relative, proven by
//! `tests/lane_parity.rs` and the unit tests below):
//!
//! | kernel | tolerance | why |
//! |---|---|---|
//! | `babelstream_dot` | 1e-12 | reassociated `f64` sum (4 accumulators per [`rayon::REDUCE_CHUNK`] chunk) |
//! | `fock_eri` | 1e-12 | reassociated `f64` sum of quartet ERIs |
//! | `minibude_pose` | 2e-3 | reassociated `f32` sum over protein atoms (the driver's own tolerance) |
//!
//! All scratch comes from `gpu_sim::pool`, so steady-state launches with the
//! SIMD lane active stay at zero global allocations
//! (`tests/alloc_steady_state.rs`).

use crate::babelstream::{INIT_A, INIT_B};
use crate::cache;
use crate::hartree_fock::{pair_decode, quartet_eri, HartreeFockConfig, HeliumSystem};
use crate::minibude::{pair_energy, transform_point, Deck, MiniBudeConfig, HALF};
use crate::real::Real;
use rayon::prelude::*;
use serde::value::Value;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Lanes and policies
// ---------------------------------------------------------------------------

/// Which implementation of a kernel actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The golden scalar / fixed-tree lane the byte-identical fixtures pin.
    Deterministic,
    /// The hand-unrolled multi-accumulator fast lane.
    Simd,
}

impl Lane {
    /// Stable label used in the crossover table JSON and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Lane::Deterministic => "deterministic",
            Lane::Simd => "simd",
        }
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Lane {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "deterministic" => Ok(Lane::Deterministic),
            "simd" => Ok(Lane::Simd),
            other => Err(format!(
                "unknown lane '{other}' (expected deterministic or simd)"
            )),
        }
    }
}

/// How the drivers pick a [`Lane`]: pinned to either lane, or data-driven
/// through the crossover table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LanePolicy {
    /// Always the deterministic lane (the default: golden output stays
    /// byte-identical).
    #[default]
    Deterministic,
    /// Always the SIMD fast lane.
    Simd,
    /// Per kernel per size, whichever lane the measured crossover table says
    /// is fastest (unknown kernels fall back to deterministic).
    Auto,
}

impl LanePolicy {
    /// Stable label (the `--lane` CLI keyword).
    pub fn label(&self) -> &'static str {
        match self {
            LanePolicy::Deterministic => "deterministic",
            LanePolicy::Simd => "simd",
            LanePolicy::Auto => "auto",
        }
    }
}

impl fmt::Display for LanePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for LanePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "deterministic" => Ok(LanePolicy::Deterministic),
            "simd" => Ok(LanePolicy::Simd),
            "auto" => Ok(LanePolicy::Auto),
            other => Err(format!(
                "unknown lane policy '{other}' (expected auto, deterministic or simd)"
            )),
        }
    }
}

/// The process-wide lane policy, set **once** at CLI startup (before any
/// kernel runs) so the paper-experiment builders — which call the family
/// drivers directly — honour `--lane` without threading a parameter through
/// every figure. Library callers that need a per-call policy use
/// [`crate::workload::Workload::run_lane`] instead and never touch this.
static PROCESS_POLICY: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default lane policy consulted by [`process_policy`].
pub fn set_process_policy(policy: LanePolicy) {
    let encoded = match policy {
        LanePolicy::Deterministic => 0,
        LanePolicy::Simd => 1,
        LanePolicy::Auto => 2,
    };
    PROCESS_POLICY.store(encoded, Ordering::Relaxed);
}

/// The process-wide default lane policy ([`LanePolicy::Deterministic`] unless
/// [`set_process_policy`] was called).
pub fn process_policy() -> LanePolicy {
    match PROCESS_POLICY.load(Ordering::Relaxed) {
        1 => LanePolicy::Simd,
        2 => LanePolicy::Auto,
        _ => LanePolicy::Deterministic,
    }
}

/// Resolves a policy to a concrete [`Lane`] for one kernel at one size.
/// `Auto` consults the [committed crossover table](CrossoverTable::builtin);
/// kernels the table does not know fall back to the deterministic lane.
pub fn resolve(policy: LanePolicy, kernel: &str, size: u64) -> Lane {
    match policy {
        LanePolicy::Deterministic => Lane::Deterministic,
        LanePolicy::Simd => Lane::Simd,
        LanePolicy::Auto => CrossoverTable::builtin()
            .fastest_lane(kernel, size)
            .unwrap_or(Lane::Deterministic),
    }
}

// ---------------------------------------------------------------------------
// Kernel identifiers (crossover-table keys)
// ---------------------------------------------------------------------------

// The element-wise stream, stencil, Jacobi and frame-stream keys name
// kernels without a SIMD lane: no table entry, so `auto` resolves them
// deterministic.

/// Crossover-table key of the BabelStream Copy kernel.
pub const KERNEL_COPY: &str = "babelstream_copy";
/// Crossover-table key of the BabelStream Mul kernel.
pub const KERNEL_MUL: &str = "babelstream_mul";
/// Crossover-table key of the BabelStream Add kernel.
pub const KERNEL_ADD: &str = "babelstream_add";
/// Crossover-table key of the BabelStream Triad kernel.
pub const KERNEL_TRIAD: &str = "babelstream_triad";
/// Crossover-table key of the BabelStream Dot reduction.
pub const KERNEL_DOT: &str = "babelstream_dot";
/// Crossover-table key of the seven-point stencil inner loop.
pub const KERNEL_STENCIL7: &str = "stencil7";
/// Crossover-table key of the miniBUDE pose-energy inner loop.
pub const KERNEL_MINIBUDE_POSE: &str = "minibude_pose";
/// Crossover-table key of the Fock-matrix / ERI partial sums.
pub const KERNEL_FOCK_ERI: &str = "fock_eri";
/// Crossover-table key of the Jacobi solve.
pub const KERNEL_JACOBI: &str = "jacobi";
/// Crossover-table key of the frame-stream accumulation.
pub const KERNEL_FRAMESTREAM: &str = "framestream";

// ---------------------------------------------------------------------------
// Crossover table
// ---------------------------------------------------------------------------

/// Schema version of the crossover-table JSON.
pub const CROSSOVER_SCHEMA: u64 = 1;

/// The smallest measured speedup at which the crossover bench records
/// `simd` as the faster lane. Below it the SIMD lane is within measurement
/// noise of parity, so `auto` keeps the golden deterministic lane.
pub const AUTO_MIN_SPEEDUP: f64 = 1.05;

/// The committed cross-machine table (regenerated by
/// `cargo bench -p bench --bench crossover`).
const DEFAULT_CROSSOVER_JSON: &str = include_str!("simd/crossover_default.json");

/// One measured (kernel, size) point: both lane timings and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverEntry {
    /// Kernel key (one of the `KERNEL_*` constants).
    pub kernel: String,
    /// Problem size (elements, grid side, poses or atoms — the kernel's own
    /// size axis).
    pub size: u64,
    /// Best deterministic-lane time, nanoseconds.
    pub deterministic_ns: f64,
    /// Best SIMD-lane time, nanoseconds.
    pub simd_ns: f64,
    /// `deterministic_ns / simd_ns` (`> 1` means the SIMD lane is faster).
    pub speedup: f64,
    /// The faster lane at this point.
    pub fastest: Lane,
}

/// A bench-measured per-kernel crossover table: for every kernel and size,
/// which lane was fastest and by how much.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrossoverTable {
    /// The measured points, sorted by kernel then size.
    pub entries: Vec<CrossoverEntry>,
}

impl CrossoverTable {
    /// Builds a table, sorting the entries into (kernel, size) order.
    pub fn new(mut entries: Vec<CrossoverEntry>) -> Self {
        entries.sort_by(|a, b| a.kernel.cmp(&b.kernel).then(a.size.cmp(&b.size)));
        CrossoverTable { entries }
    }

    /// The fastest lane for `kernel` at `size`: the entry with the largest
    /// measured size `<= size` (sizes between measurements inherit the verdict
    /// below them), or the smallest measured size when `size` undershoots
    /// every measurement. `None` for kernels the table does not know.
    pub fn fastest_lane(&self, kernel: &str, size: u64) -> Option<Lane> {
        let mut below: Option<&CrossoverEntry> = None;
        let mut smallest: Option<&CrossoverEntry> = None;
        for entry in self.entries.iter().filter(|e| e.kernel == kernel) {
            if entry.size <= size && below.is_none_or(|b| entry.size > b.size) {
                below = Some(entry);
            }
            if smallest.is_none_or(|s| entry.size < s.size) {
                smallest = Some(entry);
            }
        }
        below.or(smallest).map(|e| e.fastest)
    }

    /// Renders the table as pretty-printed JSON (the
    /// `target/bench/crossover.json` format).
    pub fn to_json_pretty(&self) -> String {
        let kernels = self
            .entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("kernel".to_string(), Value::Str(e.kernel.clone())),
                    ("size".to_string(), Value::U64(e.size)),
                    (
                        "deterministic_ns".to_string(),
                        Value::F64(e.deterministic_ns),
                    ),
                    ("simd_ns".to_string(), Value::F64(e.simd_ns)),
                    ("speedup".to_string(), Value::F64(e.speedup)),
                    (
                        "fastest".to_string(),
                        Value::Str(e.fastest.label().to_string()),
                    ),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("schema".to_string(), Value::U64(CROSSOVER_SCHEMA)),
            (
                "accumulators".to_string(),
                Value::U64(rayon::SUM_LANES as u64),
            ),
            ("kernels".to_string(), Value::Array(kernels)),
        ]);
        let mut json = serde_json::to_string_pretty(&root).expect("crossover table serialises");
        json.push('\n');
        json
    }

    /// Parses and schema-checks a crossover table (the inverse of
    /// [`Self::to_json_pretty`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let schema = json_u64(json_field(&value, "schema")?)?;
        if schema != CROSSOVER_SCHEMA {
            return Err(format!(
                "unsupported crossover schema {schema} (this binary speaks {CROSSOVER_SCHEMA})"
            ));
        }
        let Value::Array(kernels) = json_field(&value, "kernels")? else {
            return Err("'kernels' must be an array".to_string());
        };
        let mut entries = Vec::with_capacity(kernels.len());
        for record in kernels {
            let kernel = json_str(json_field(record, "kernel")?)?.to_string();
            let size = json_u64(json_field(record, "size")?)?;
            let deterministic_ns = json_f64(json_field(record, "deterministic_ns")?)?;
            let simd_ns = json_f64(json_field(record, "simd_ns")?)?;
            let speedup = json_f64(json_field(record, "speedup")?)?;
            if !(deterministic_ns > 0.0 && simd_ns > 0.0 && speedup > 0.0) {
                return Err(format!(
                    "crossover entry {kernel}@{size} has non-positive timings"
                ));
            }
            let fastest: Lane = json_str(json_field(record, "fastest")?)?.parse()?;
            entries.push(CrossoverEntry {
                kernel,
                size,
                deterministic_ns,
                simd_ns,
                speedup,
                fastest,
            });
        }
        Ok(CrossoverTable::new(entries))
    }

    /// The committed cross-machine default table.
    pub fn builtin() -> &'static CrossoverTable {
        static BUILTIN: OnceLock<CrossoverTable> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            CrossoverTable::parse(DEFAULT_CROSSOVER_JSON).expect("committed crossover table parses")
        })
    }
}

fn json_field<'a>(value: &'a Value, name: &str) -> Result<&'a Value, String> {
    let Value::Object(fields) = value else {
        return Err(format!("expected an object with field '{name}'"));
    };
    fields
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{name}'"))
}

fn json_str(value: &Value) -> Result<&str, String> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn json_u64(value: &Value) -> Result<u64, String> {
    match value {
        Value::U64(v) => Ok(*v),
        other => Err(format!("expected an unsigned integer, got {other:?}")),
    }
}

fn json_f64(value: &Value) -> Result<f64, String> {
    match value {
        Value::F64(v) => Ok(*v),
        Value::U64(v) => Ok(*v as f64),
        Value::I64(v) => Ok(*v as f64),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Host copy (the roofline probe of the per-layer tracer)
// ---------------------------------------------------------------------------

/// BabelStream Copy, unrolled by 4. Element-wise: bitwise-identical to the
/// scalar loop.
pub fn stream_copy<T: Real>(dst: &mut [T], src: &[T]) {
    let n = dst.len().min(src.len());
    let (d, s) = (&mut dst[..n], &src[..n]);
    let mut i = 0;
    while i + 4 <= n {
        d[i] = s[i];
        d[i + 1] = s[i + 1];
        d[i + 2] = s[i + 2];
        d[i + 3] = s[i + 3];
        i += 4;
    }
    while i < n {
        d[i] = s[i];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Multi-accumulator reductions (reassociated: documented tolerances)
// ---------------------------------------------------------------------------

/// Serial dot product with 8 independent accumulators: element `i` lands in
/// accumulator `i % 8`, lanes combine pairwise at the end. Reassociated
/// relative to a left-to-right fold (≤ ~1e-12 relative for well-conditioned
/// `f64` inputs); accumulation happens in `T` to mirror the device kernel.
pub fn dot<T: Real>(a: &[T], b: &[T]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [T::from_f64(0.0); 8];
    let mut i = 0;
    while i + 8 <= n {
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
        acc[4] += a[i + 4] * b[i + 4];
        acc[5] += a[i + 5] * b[i + 5];
        acc[6] += a[i + 6] * b[i + 6];
        acc[7] += a[i + 7] * b[i + 7];
        i += 8;
    }
    while i < n {
        acc[0] += a[i] * b[i];
        i += 1;
    }
    let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (q0 + q1).to_f64()
}

/// Largest `ngauss * ngauss` the fast-lane ERI keeps its hoisted pair table
/// on the stack; wider contractions (ngauss > 8 — nothing in the paper's
/// decks) fall back to the reference loop.
const ERI_PAIR_TABLE: usize = 64;

/// Fast-lane quartet ERI: same arithmetic as
/// [`quartet_eri`], restructured for
/// throughput. The `(kb, lb)` Gaussian pair terms (`akl` and the `exp`-bearing
/// `dkl`) are invariant across the outer `(ib, jb)` loops, so they are
/// hoisted into a stack table — cutting the `exp` count from `ngauss^4` to
/// `2 ngauss^2` — and the surviving inner loop (div, sqrt, multiply—add over
/// a flat slice) runs 4 independent accumulators so the auto-vectorizer can
/// lower it to packed operations. Reassociated products and sums: within
/// ~1e-12 relative of the reference nest.
pub fn quartet_eri_unrolled(system: &HeliumSystem, ij: u64, kl: u64) -> f64 {
    let ngauss = system.ngauss;
    let npairs = ngauss * ngauss;
    if npairs > ERI_PAIR_TABLE {
        return quartet_eri(system, ij, kl);
    }
    let (i, j) = pair_decode(ij);
    let (k, l) = pair_decode(kl);
    let r2_ij = system.distance2(i as usize, j as usize);
    let r2_kl = system.distance2(k as usize, l as usize);
    let rpq2 = system.pair_distance2(ij, kl);

    let mut akl_t = [0.0f64; ERI_PAIR_TABLE];
    let mut dkl_t = [0.0f64; ERI_PAIR_TABLE];
    for kb in 0..ngauss {
        for lb in 0..ngauss {
            let akl = system.xpnt[kb] + system.xpnt[lb];
            akl_t[kb * ngauss + lb] = akl;
            dkl_t[kb * ngauss + lb] = system.coef[kb]
                * system.coef[lb]
                * (-system.xpnt[kb] * system.xpnt[lb] / akl * r2_kl).exp();
        }
    }

    let term = |aij: f64, p: usize| {
        let akl = akl_t[p];
        let aijkl = aij * akl / (aij + akl);
        let t = aijkl * rpq2;
        dkl_t[p] * aijkl.sqrt() / (1.0 + t).sqrt()
    };
    let mut eri = 0.0f64;
    for ib in 0..ngauss {
        for jb in 0..ngauss {
            let aij = system.xpnt[ib] + system.xpnt[jb];
            let dij = system.coef[ib]
                * system.coef[jb]
                * (-system.xpnt[ib] * system.xpnt[jb] / aij * r2_ij).exp();
            let mut acc = [0.0f64; 4];
            let mut p = 0;
            while p + 4 <= npairs {
                acc[0] += term(aij, p);
                acc[1] += term(aij, p + 1);
                acc[2] += term(aij, p + 2);
                acc[3] += term(aij, p + 3);
                p += 4;
            }
            while p < npairs {
                acc[0] += term(aij, p);
                p += 1;
            }
            eri += dij * ((acc[0] + acc[1]) + (acc[2] + acc[3]));
        }
    }
    eri
}

/// Sum of quartet ERIs with 4 independent accumulators striding the quartet
/// list (the Fock-matrix partial-sum shape), each evaluated through the
/// fast-lane [`quartet_eri_unrolled`]. Reassociated `f64` sum: ≤ ~1e-12
/// relative of the serial fold.
pub fn eri_batch_sum(system: &HeliumSystem, quartets: &[(u64, u64)]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = quartets.chunks_exact(4);
    for quad in chunks.by_ref() {
        acc[0] += quartet_eri_unrolled(system, quad[0].0, quad[0].1);
        acc[1] += quartet_eri_unrolled(system, quad[1].0, quad[1].1);
        acc[2] += quartet_eri_unrolled(system, quad[2].0, quad[2].1);
        acc[3] += quartet_eri_unrolled(system, quad[3].0, quad[3].1);
    }
    for &(ij, kl) in chunks.remainder() {
        acc[0] += quartet_eri_unrolled(system, ij, kl);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// miniBUDE pose energy with 4 independent `f32` accumulators over the
/// protein (inner) loop. Same per-pair arithmetic as
/// [`crate::minibude::pose_energy`], reassociated sum: within the
/// driver's own 2e-3 relative tolerance.
pub fn pose_energy_unrolled(deck: &Deck, pose_index: usize) -> f32 {
    let pose = [
        deck.transforms[0][pose_index],
        deck.transforms[1][pose_index],
        deck.transforms[2][pose_index],
        deck.transforms[3][pose_index],
        deck.transforms[4][pose_index],
        deck.transforms[5][pose_index],
    ];
    let (mut e0, mut e1, mut e2, mut e3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for lig in &deck.ligand {
        let l_ff = deck.forcefield[lig.type_index as usize];
        let l_ff = (l_ff.radius, l_ff.hphb, l_ff.charge);
        let (lx, ly, lz) = transform_point(pose, lig.x, lig.y, lig.z);
        let pair = |pro: &crate::minibude::Atom| {
            let p_ff = deck.forcefield[pro.type_index as usize];
            pair_energy(
                lx,
                ly,
                lz,
                l_ff,
                pro.x,
                pro.y,
                pro.z,
                (p_ff.radius, p_ff.hphb, p_ff.charge),
            )
        };
        let mut chunks = deck.protein.chunks_exact(4);
        for quad in chunks.by_ref() {
            e0 += pair(&quad[0]);
            e1 += pair(&quad[1]);
            e2 += pair(&quad[2]);
            e3 += pair(&quad[3]);
        }
        for pro in chunks.remainder() {
            e0 += pair(pro);
        }
    }
    ((e0 + e1) + (e2 + e3)) * HALF
}

// ---------------------------------------------------------------------------
// Lane-kernel registry (the crossover bench and the parity suite)
// ---------------------------------------------------------------------------

/// One kernel with both lanes runnable standalone: what the crossover bench
/// times and the parity suite compares.
pub struct LaneKernel {
    /// Crossover-table key.
    pub name: &'static str,
    /// The size ladder the crossover bench measures (the workload's
    /// `bench_sizes` plus smaller points so the table can place a crossover).
    pub sizes: &'static [u64],
    /// Documented lane-parity tolerance (relative).
    pub tolerance: f64,
    /// Runs one lane at one size, returning a checksum both lanes compute
    /// identically (for the deterministic lane: through the golden
    /// association).
    pub run: fn(Lane, u64) -> f64,
}

/// Every lane kernel, in crossover-table presentation order.
pub fn lane_kernels() -> &'static [LaneKernel] {
    const KERNELS: [LaneKernel; 3] = [
        LaneKernel {
            name: KERNEL_DOT,
            sizes: &[1 << 12, 1 << 16, 1 << 20],
            tolerance: 1e-12,
            run: run_dot,
        },
        LaneKernel {
            name: KERNEL_MINIBUDE_POSE,
            sizes: &[16, 64, 256],
            tolerance: 2e-3,
            run: run_pose,
        },
        LaneKernel {
            name: KERNEL_FOCK_ERI,
            sizes: &[8, 16, 24],
            tolerance: 1e-12,
            run: run_fock,
        },
    ];
    &KERNELS
}

/// Pre-filled dot inputs, cached per size: dot never writes its inputs, and
/// the crossover bench times [`run_dot`] whole, so refilling buffers on
/// every call would dilute the reduction actually being measured.
fn dot_inputs(n: usize) -> std::sync::Arc<(Vec<f64>, Vec<f64>)> {
    type DotCache = std::sync::Mutex<std::collections::HashMap<usize, DotInputs>>;
    type DotInputs = std::sync::Arc<(Vec<f64>, Vec<f64>)>;
    static CACHE: OnceLock<DotCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(n)
        .or_insert_with(|| std::sync::Arc::new((vec![INIT_A; n], vec![INIT_B; n])))
        .clone()
}

fn run_dot(lane: Lane, size: u64) -> f64 {
    let n = size as usize;
    let inputs = dot_inputs(n);
    let (av, bv) = (inputs.0.as_slice(), inputs.1.as_slice());
    match lane {
        Lane::Deterministic => (0..n).into_par_iter().map(|i| av[i] * bv[i]).sum::<f64>(),
        // The fast lane is the hand-unrolled slice kernel itself: 8
        // independent accumulators over direct slice indexing, the shape the
        // auto-vectorizer lowers to packed multiply-adds. Reassociated
        // relative to the deterministic tree within the registered 1e-12.
        Lane::Simd => dot(av, bv),
    }
}

fn run_pose(lane: Lane, size: u64) -> f64 {
    let config = MiniBudeConfig::paper(1, 8);
    let deck = cache::minibude_deck(&config);
    let poses = (size as usize).min(config.nposes);
    let mut total = 0.0f64;
    for pose in 0..poses {
        total += f64::from(match lane {
            Lane::Deterministic => crate::minibude::pose_energy(&deck, pose),
            Lane::Simd => pose_energy_unrolled(&deck, pose),
        });
    }
    total
}

fn run_fock(lane: Lane, size: u64) -> f64 {
    let config = HartreeFockConfig::validation(size as u32);
    let system = cache::helium_system(&config);
    let nquartets = config.nquartets();
    let sys = &*system;
    match lane {
        Lane::Deterministic => (0..nquartets)
            .into_par_iter()
            .map(|q| {
                let (ij, kl) = pair_decode(q);
                quartet_eri(sys, ij, kl)
            })
            .sum::<f64>(),
        Lane::Simd => (0..nquartets)
            .into_par_iter()
            .map(|q| {
                let (ij, kl) = pair_decode(q);
                quartet_eri_unrolled(sys, ij, kl)
            })
            .sum_unrolled::<f64>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_and_policy_labels_round_trip() {
        for lane in [Lane::Deterministic, Lane::Simd] {
            assert_eq!(lane.label().parse::<Lane>().unwrap(), lane);
        }
        for policy in [
            LanePolicy::Deterministic,
            LanePolicy::Simd,
            LanePolicy::Auto,
        ] {
            assert_eq!(policy.label().parse::<LanePolicy>().unwrap(), policy);
        }
        assert!("frobnicate".parse::<Lane>().is_err());
        assert!("frobnicate".parse::<LanePolicy>().is_err());
        assert_eq!(LanePolicy::default(), LanePolicy::Deterministic);
    }

    #[test]
    fn explicit_policies_resolve_without_the_table() {
        assert_eq!(
            resolve(LanePolicy::Deterministic, KERNEL_DOT, 1 << 20),
            Lane::Deterministic
        );
        assert_eq!(resolve(LanePolicy::Simd, "unknown", 1), Lane::Simd);
    }

    #[test]
    fn crossover_table_round_trips_and_looks_up_by_size() {
        let table = CrossoverTable::new(vec![
            CrossoverEntry {
                kernel: KERNEL_DOT.to_string(),
                size: 4096,
                deterministic_ns: 100.0,
                simd_ns: 120.0,
                speedup: 100.0 / 120.0,
                fastest: Lane::Deterministic,
            },
            CrossoverEntry {
                kernel: KERNEL_DOT.to_string(),
                size: 1 << 20,
                deterministic_ns: 300.0,
                simd_ns: 100.0,
                speedup: 3.0,
                fastest: Lane::Simd,
            },
        ]);
        let parsed = CrossoverTable::parse(&table.to_json_pretty()).unwrap();
        assert_eq!(parsed, table);
        // Below the first measurement: inherit the smallest entry.
        assert_eq!(
            table.fastest_lane(KERNEL_DOT, 16),
            Some(Lane::Deterministic)
        );
        // Between measurements: the verdict below applies.
        assert_eq!(
            table.fastest_lane(KERNEL_DOT, 100_000),
            Some(Lane::Deterministic)
        );
        // At and beyond the crossover.
        assert_eq!(table.fastest_lane(KERNEL_DOT, 1 << 20), Some(Lane::Simd));
        assert_eq!(table.fastest_lane(KERNEL_DOT, 1 << 25), Some(Lane::Simd));
        assert_eq!(table.fastest_lane("unknown", 1), None);
    }

    #[test]
    fn malformed_crossover_tables_are_rejected() {
        assert!(CrossoverTable::parse("{not json").is_err());
        assert!(CrossoverTable::parse("{\"schema\": 99, \"kernels\": []}").is_err());
        assert!(CrossoverTable::parse("{\"schema\": 1}").is_err());
        let negative = "{\"schema\": 1, \"kernels\": [{\"kernel\": \"x\", \"size\": 1, \
             \"deterministic_ns\": -1.0, \"simd_ns\": 1.0, \"speedup\": 1.0, \
             \"fastest\": \"simd\"}]}";
        assert!(CrossoverTable::parse(negative).is_err());
    }

    #[test]
    fn builtin_table_parses_and_covers_every_lane_kernel() {
        let table = CrossoverTable::builtin();
        assert!(!table.entries.is_empty());
        for kernel in lane_kernels() {
            assert!(
                table.fastest_lane(kernel.name, kernel.sizes[0]).is_some(),
                "committed crossover table is missing kernel {}",
                kernel.name
            );
            assert!(
                table
                    .entries
                    .iter()
                    .any(|e| e.kernel == kernel.name && e.fastest == Lane::Simd),
                "lane kernel {} wins at no measured size: delete its SIMD lane",
                kernel.name
            );
        }
        for entry in &table.entries {
            assert!(
                lane_kernels().iter().any(|k| k.name == entry.kernel),
                "table entry {}@{} names no lane kernel",
                entry.kernel,
                entry.size
            );
            if entry.fastest == Lane::Simd {
                assert!(
                    entry.speedup >= AUTO_MIN_SPEEDUP,
                    "{}@{} records simd at {:.4}x, under the {AUTO_MIN_SPEEDUP}x margin",
                    entry.kernel,
                    entry.size,
                    entry.speedup
                );
            }
        }
    }

    #[test]
    fn stream_kernels_are_bitwise_identical_to_scalar_loops() {
        // 1027 elements: off the unroll boundary on purpose.
        let a: Vec<f64> = (0..1027).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut fast = vec![0.0f64; a.len()];
        stream_copy(&mut fast, &a);
        assert_eq!(fast, a);
    }

    #[test]
    fn dot_stays_within_the_documented_tolerance_of_the_serial_fold() {
        let n = 10_007;
        let a: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let serial: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        let fast = dot(&a, &b);
        assert!((serial - fast).abs() / serial.abs() < 1e-12);
    }

    #[test]
    fn every_lane_kernel_is_within_tolerance_at_its_smallest_size() {
        for kernel in lane_kernels() {
            let size = kernel.sizes[0];
            let golden = (kernel.run)(Lane::Deterministic, size);
            let fast = (kernel.run)(Lane::Simd, size);
            let rel = (golden - fast).abs() / golden.abs().max(1.0);
            assert!(
                rel <= kernel.tolerance,
                "{} @ {size}: relative error {rel:.3e} exceeds {:.1e}",
                kernel.name,
                kernel.tolerance
            );
            if kernel.tolerance == 0.0 {
                assert_eq!(golden.to_bits(), fast.to_bits(), "{}", kernel.name);
            }
        }
    }

    #[test]
    fn pose_energy_unrolled_matches_the_reference_within_driver_tolerance() {
        let config = MiniBudeConfig::validation(1, 8);
        let deck = cache::minibude_deck(&config);
        for pose in 0..16 {
            let golden = f64::from(crate::minibude::pose_energy(&deck, pose));
            let fast = f64::from(pose_energy_unrolled(&deck, pose));
            let rel = (golden - fast).abs() / golden.abs().max(1.0);
            assert!(rel < 2e-3, "pose {pose}: {golden} vs {fast}");
        }
    }

    #[test]
    fn eri_batch_sum_matches_the_serial_fold() {
        let config = HartreeFockConfig::validation(8);
        let system = cache::helium_system(&config);
        let quartets: Vec<(u64, u64)> = (0..config.nquartets()).map(pair_decode).collect();
        let serial: f64 = quartets
            .iter()
            .map(|&(ij, kl)| quartet_eri(&system, ij, kl))
            .sum();
        let fast = eri_batch_sum(&system, &quartets);
        assert!((serial - fast).abs() / serial.abs() < 1e-12);
    }
}
