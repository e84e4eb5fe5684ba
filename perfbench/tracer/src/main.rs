//! In-process per-layer tracer of the repository benchmark.
//!
//! `perfbench/run.py --trace 1` writes the workload's seeded op list to a
//! file and runs this binary twice over:
//!
//! * `perfbench-tracer cold --ops FILE` in fresh processes: the first call of
//!   each `kernels::cache` memo, i.e. the cold input generation every CLI op
//!   pays;
//! * `perfbench-tracer replay --ops FILE --exe BIN --work DIR`: the op list
//!   replayed in-process through each layer's public functions, once
//!   untraced and once with spans, followed by fixed probes of the layers a
//!   workload does not reach, so every per-layer metric has a number.
//!
//! Spans are kept in memory and written to `DIR/spans.tsv` at the end. Both
//! modes print one JSON object of `metric -> value` on stdout.
//!
//! Op file format, one op per line, space separated:
//! `run - - - <all|id,id,..>` or `sweep <lane|-> <workload> <size,size,..> <k=v,..|->`.

use experiment_report::dispatch::{dispatch, DispatchPolicy, Launcher, LocalLauncher};
use experiment_report::report::ExperimentReport;
use experiment_report::shard::{self, ShardDocument};
use experiment_report::sweep::{render_sweep, SweepSpec};
use experiment_report::{run_experiment, ExperimentId};
use gpu_sim::pool;
use gpu_sim::{ExecutionProfile, KernelCost};
use science_kernels::simd::{self, Lane, LanePolicy};
use science_kernels::workload::{self, Params, WorkloadOutput};
use science_kernels::{babelstream, cache, framestream, hartree_fock, jacobi, minibude, stencil7};
use science_kernels::{Verification, WorkloadRun};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use vendor_models::kernel_class::StreamOp;
use vendor_models::Platform;

// ---------------------------------------------------------------------------
// Op list
// ---------------------------------------------------------------------------

enum Op {
    Run(Vec<ExperimentId>),
    Sweep {
        lane: LanePolicy,
        workload: String,
        sizes: Vec<u64>,
        params: Vec<String>,
    },
}

fn parse_ops(text: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => continue,
            ["run", _, _, _, ids] => {
                let ids = if *ids == "all" {
                    ExperimentId::ALL.to_vec()
                } else {
                    ids.split(',')
                        .map(|id| id.parse::<ExperimentId>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("line {}: {e}", index + 1))?
                };
                ops.push(Op::Run(ids));
            }
            ["sweep", lane, workload, sizes, params] => {
                let lane = match *lane {
                    "-" | "deterministic" => LanePolicy::Deterministic,
                    "auto" => LanePolicy::Auto,
                    "simd" => LanePolicy::Simd,
                    other => return Err(format!("line {}: unknown lane '{other}'", index + 1)),
                };
                let sizes = sizes
                    .split(',')
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|e| format!("line {}: {e}", index + 1))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let params = if *params == "-" {
                    Vec::new()
                } else {
                    params.split(',').map(str::to_string).collect()
                };
                ops.push(Op::Sweep {
                    lane,
                    workload: workload.to_string(),
                    sizes,
                    params,
                });
            }
            _ => return Err(format!("line {}: cannot parse '{line}'", index + 1)),
        }
    }
    Ok(ops)
}

/// Every (workload, point) pair the sweep ops touch, in first-seen order.
fn sweep_points(ops: &[Op]) -> Vec<(String, Params)> {
    let mut seen = Vec::<(String, String)>::new();
    let mut points = Vec::new();
    for op in ops {
        if let Op::Sweep {
            workload: name,
            sizes,
            params,
            ..
        } = op
        {
            let spec = sweep_spec(name, params, sizes);
            for &size in &spec.sizes {
                let point = spec.point(size).expect("validated sweep point");
                let key = (name.clone(), point.encode());
                if !seen.contains(&key) {
                    seen.push(key);
                    points.push((name.clone(), point));
                }
            }
        }
    }
    points
}

fn sweep_spec(name: &str, params: &[String], sizes: &[u64]) -> SweepSpec {
    let engine = workload::find(name).unwrap_or_else(|| panic!("unknown workload '{name}'"));
    SweepSpec::new(engine, params, sizes.to_vec())
        .unwrap_or_else(|e| panic!("invalid sweep {name} {sizes:?} {params:?}: {e}"))
}

/// The probe point of a family whose workload does not appear in the op list.
fn probe_point(name: &str) -> Params {
    let (size, overrides): (u64, &[&str]) = match name {
        "stencil" => (48, &[]),
        "babelstream" => (1 << 18, &["op=triad"]),
        "jacobi" => (12, &[]),
        "framestream" => (16384, &[]),
        "minibude" => (8, &["poses=4096", "natpro=256"]),
        "hartree-fock" => (12, &[]),
        other => panic!("no probe point for '{other}'"),
    };
    let overrides: Vec<String> = overrides.iter().map(|s| s.to_string()).collect();
    sweep_spec(name, &overrides, &[size])
        .point(size)
        .expect("probe point")
}

fn first_point(points: &[(String, Params)], name: &str) -> Params {
    points
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| p.clone())
        .unwrap_or_else(|| probe_point(name))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: String,
    op: usize,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder. Disabled, `begin`/`end` do nothing, which is
/// the untraced pass `trace.overhead_frac` compares against.
struct Tracer {
    enabled: bool,
    origin: Instant,
    op: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.stack.last().copied(),
            start_us: now,
            end_us: now,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.stack.pop().expect("span end without begin");
        self.spans[index].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
    }

    /// Each span's duration minus the part its children cover, in µs.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end_us - span.start_us;
            }
        }
        own
    }

    fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("op\tname\tparent\tstart_us\tend_us\n");
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{:.3}\t{:.3}",
                span.op, span.name, parent, span.start_us, span.end_us
            );
        }
        std::fs::write(path, text)
    }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, result)
}

/// Median wall time of `reps` calls of `f`, in ms.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median((0..reps).map(|_| time_ms(&mut f).0).collect())
}

fn experiment_group(id: ExperimentId) -> &'static str {
    match id.as_str() {
        "table4" => "table4",
        "table5" => "table5",
        "fig2" => "fig2",
        _ => "other",
    }
}

fn rows_verified(output: &WorkloadOutput) -> bool {
    output
        .measurements
        .iter()
        .all(|m| m.verification.starts_with("passed("))
}

// ---------------------------------------------------------------------------
// `cold`: first call of each memo in this process
// ---------------------------------------------------------------------------

fn stencil_config(point: &Params) -> stencil7::StencilConfig {
    stencil7::workload::config(point).expect("stencil config")
}

fn cold(ops: &[Op]) -> BTreeMap<String, f64> {
    let points = sweep_points(ops);
    let regen = ops.iter().any(|op| matches!(op, Op::Run(_)));
    let distinct = |name: &str| -> Vec<Params> {
        let mut found: Vec<Params> = points
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, p)| p.clone())
            .take(3)
            .collect();
        if found.is_empty() {
            found.push(probe_point(name));
        }
        found
    };
    let mut metrics = BTreeMap::new();
    let mut record = |name: &str, samples: Vec<f64>| {
        metrics.insert(format!("cache.{name}.cold_ms"), median(samples));
    };

    // Hartree-Fock: a sweep op generates one system; a `run --all` op
    // generates every paper case (table4, fig2), so its sample is their sum.
    let mut hf_configs: Vec<hartree_fock::HartreeFockConfig> = Vec::new();
    for name in ["hartree-fock", "hartree-fock-sampled"] {
        if points.iter().any(|(n, _)| n == name) {
            for point in distinct(name) {
                hf_configs.push(hartree_fock::workload::config(&point).expect("hf config"));
            }
        }
    }
    if hf_configs.is_empty() && !regen {
        hf_configs.push(hartree_fock::workload::config(&probe_point("hartree-fock")).expect("hf"));
    }
    let mut helium: Vec<f64> = hf_configs
        .iter()
        .map(|c| time_ms(|| cache::helium_system(c)).0)
        .collect();
    if regen {
        helium.push(
            hartree_fock::HartreeFockConfig::paper_cases()
                .iter()
                .map(|&(natoms, ngauss)| {
                    let config = hartree_fock::HartreeFockConfig::paper(natoms, ngauss);
                    time_ms(|| cache::helium_system(&config)).0
                })
                .sum(),
        );
    }
    record("helium_system", helium);
    let executing: Vec<_> = hf_configs.iter().filter(|c| c.should_execute()).collect();
    let reference_configs: Vec<hartree_fock::HartreeFockConfig> = if executing.is_empty() {
        vec![hartree_fock::workload::config(&probe_point("hartree-fock")).expect("hf")]
    } else {
        executing.into_iter().copied().collect()
    };
    record(
        "hartree_fock_reference",
        reference_configs
            .iter()
            .map(|c| time_ms(|| cache::hartree_fock_reference(c)).0)
            .collect(),
    );

    let bude: Vec<minibude::MiniBudeConfig> = distinct("minibude")
        .iter()
        .map(|p| minibude::workload::config(p).expect("minibude config"))
        .collect();
    record(
        "minibude_deck",
        bude.iter()
            .map(|c| time_ms(|| cache::minibude_deck(c)).0)
            .collect(),
    );
    record(
        "minibude_reference",
        bude.iter()
            .map(|c| time_ms(|| cache::minibude_reference(c)).0)
            .collect(),
    );

    let grids: Vec<stencil7::StencilConfig> =
        distinct("stencil").iter().map(stencil_config).collect();
    record(
        "stencil_grid",
        grids
            .iter()
            .map(|c| time_ms(|| cache::stencil_grid(c)).0)
            .collect(),
    );
    record(
        "stencil_reference",
        grids
            .iter()
            .map(|c| time_ms(|| cache::stencil_reference(c)).0)
            .collect(),
    );

    let jacobis: Vec<jacobi::JacobiConfig> = distinct("jacobi")
        .iter()
        .map(|p| jacobi::workload::config(p).expect("jacobi config"))
        .collect();
    record(
        "jacobi_reference",
        jacobis
            .iter()
            .map(|c| time_ms(|| cache::jacobi_reference(c)).0)
            .collect(),
    );
    metrics
}

// ---------------------------------------------------------------------------
// `replay`: the op list in-process, untraced then traced
// ---------------------------------------------------------------------------

/// Touches the memo entries the op's workload reads, as its own span, so the
/// kernel span that follows measures launch work only.
fn warm_caches(name: &str, point: &Params) {
    match name {
        "stencil" => {
            let config = stencil_config(point);
            black_box(cache::stencil_grid(&config));
            black_box(cache::stencil_reference(&config));
        }
        "jacobi" => {
            let config = jacobi::workload::config(point).expect("jacobi config");
            black_box(cache::jacobi_reference(&config));
        }
        "minibude" => {
            let config = minibude::workload::config(point).expect("minibude config");
            black_box(cache::minibude_deck(&config));
            black_box(cache::minibude_reference(&config));
        }
        "hartree-fock" | "hartree-fock-sampled" => {
            let config = hartree_fock::workload::config(point).expect("hf config");
            black_box(cache::helium_system(&config));
            if config.should_execute() {
                black_box(cache::hartree_fock_reference(&config));
            }
        }
        _ => {}
    }
}

/// Runs one op in-process; returns whether it failed.
fn replay_op(tracer: &mut Tracer, op: &Op, out: &Path) -> bool {
    let mut failed = false;
    tracer.begin("op");
    match op {
        Op::Run(ids) => {
            let mut reports = Vec::new();
            for &id in ids {
                tracer.begin(&format!("registry.{}", experiment_group(id)));
                reports.push(run_experiment(id));
                tracer.end();
            }
            tracer.begin("report.render");
            for report in &reports {
                black_box(report.render());
            }
            tracer.end();
            tracer.begin("report.to_json");
            let json = ExperimentReport::render_json_array(&reports);
            tracer.end();
            tracer.begin("report.write");
            for report in &reports {
                failed |= report.write_json_file_to(out).is_err();
            }
            failed |= std::fs::write(out.join("stdout.json"), &json).is_err();
            tracer.end();
        }
        Op::Sweep {
            lane,
            workload: name,
            sizes,
            params,
        } => {
            let spec = sweep_spec(name, params, sizes);
            let mut outputs = Vec::with_capacity(sizes.len());
            for &size in &spec.sizes {
                let point = spec.point(size).expect("validated sweep point");
                tracer.begin("cache");
                warm_caches(name, &point);
                tracer.end();
                tracer.begin("workload.run");
                match spec.workload.run_lane(&point, *lane) {
                    Ok(output) => {
                        failed |= !rows_verified(&output);
                        outputs.push(output);
                    }
                    Err(_) => failed = true,
                }
                tracer.end();
            }
            tracer.begin("sweep.render");
            let report = render_sweep(&spec, &outputs);
            tracer.end();
            tracer.begin("report.to_json");
            let json = report.to_json_pretty();
            tracer.end();
            tracer.begin("report.write");
            failed |= std::fs::write(out.join(format!("{}.json", report.id)), json).is_err();
            tracer.end();
        }
    }
    tracer.end();
    tracer.op += 1;
    failed
}

/// Sum of self time per span name over ops `from..`, as µs per op.
fn per_op_self_us(tracer: &Tracer, name: &str, ops: std::ops::Range<usize>) -> Vec<f64> {
    let own = tracer.self_times();
    ops.map(|op| {
        tracer
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.op == op && s.name == name)
            .map(|(_, t)| *t)
            .sum()
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// `simd::stream_copy` bandwidth over `n` f64 elements: bytes read plus
/// written ÷ time, GB/s — the host's own roofline at that working set.
fn host_copy_gbs(n: usize) -> f64 {
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    simd::stream_copy(&mut dst, &src);
    let reps = (1usize << 24) / n.max(1) + 3;
    let ms = median_ms(reps.min(200), || {
        simd::stream_copy(black_box(&mut dst), black_box(&src));
    });
    black_box(&dst);
    (2 * n * 8) as f64 / (ms * 1e-3) / 1e9
}

struct FamilyLaunch {
    portable_ms: f64,
    vendor_ms: f64,
    /// Cost-model bytes of the portable launch.
    bytes: u64,
    /// Array length the launch streams, for the matching host-copy probe.
    elements: usize,
    /// Cost function plus `TimingModel::estimate` for one launch, in µs.
    model_us: f64,
}

/// Median wall time of a family's public `run` on the portable and the
/// vendor H100 platform (after one warm-up launch each), plus the portable
/// runs.
fn time_launches(call: impl Fn(&Platform) -> Vec<WorkloadRun>) -> (f64, f64, Vec<WorkloadRun>) {
    let portable = Platform::portable_h100();
    let vendor = Platform::cuda_h100(false);
    let mut runs = call(&portable);
    let portable_ms = median_ms(5, || runs = call(&portable));
    call(&vendor);
    let vendor_ms = median_ms(5, || call(&vendor));
    for run in &runs {
        assert!(
            !matches!(run.verification, Verification::Skipped { .. }),
            "probe launch of {} skipped verification",
            run.kernel
        );
    }
    (portable_ms, vendor_ms, runs)
}

fn model_us(cost: impl Fn() -> KernelCost, profile: &ExecutionProfile) -> f64 {
    let model = cache::timing_model(&Platform::portable_h100());
    let reps = 2000;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(model.estimate(black_box(&cost()), profile));
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn launch_family(family: &str, point: &Params) -> FamilyLaunch {
    let portable = Platform::portable_h100();
    let ((portable_ms, vendor_ms, runs), elements, model_us) = match family {
        "babelstream" => {
            let config = babelstream::workload::config(point).expect("babelstream config");
            let ops: &[StreamOp] = babelstream::workload::parse_ops(point.text("op")).expect("ops");
            let t = time_launches(|p| {
                ops.iter()
                    .map(|&op| babelstream::run(p, op, &config).expect("launch"))
                    .collect()
            });
            let m = model_us(
                || babelstream::stream_cost(&portable, ops[0], &config),
                &t.2[0].profile,
            );
            (t, config.n, m)
        }
        "stencil7" => {
            let config = stencil_config(point);
            let t = time_launches(|p| vec![stencil7::run(p, &config).expect("launch")]);
            let m = model_us(|| stencil7::stencil_cost(&config), &t.2[0].profile);
            (t, config.cells() as usize, m)
        }
        "jacobi" => {
            let config = jacobi::workload::config(point).expect("jacobi config");
            let t = time_launches(|p| vec![jacobi::run(p, &config).expect("launch")]);
            let iters = jacobi::planned_iters(&config);
            let m = model_us(|| jacobi::jacobi_cost(&config, iters), &t.2[0].profile);
            (t, config.cells() as usize, m)
        }
        "framestream" => {
            let config = framestream::workload::config(point).expect("framestream config");
            let t = time_launches(|p| vec![framestream::run(p, &config).expect("launch")]);
            let m = model_us(|| framestream::framestream_cost(&config), &t.2[0].profile);
            (t, config.n, m)
        }
        "minibude" => {
            let config = minibude::workload::config(point).expect("minibude config");
            let t = time_launches(|p| vec![minibude::run(p, &config).expect("launch")]);
            let m = model_us(|| minibude::fasten_cost(&config), &t.2[0].profile);
            (t, config.executed_poses, m)
        }
        "hartree_fock" => {
            let config = hartree_fock::workload::config(point).expect("hf config");
            let t = time_launches(|p| vec![hartree_fock::run(p, &config).expect("launch")]);
            let system = cache::helium_system(&config);
            let m = model_us(
                || hartree_fock::hartree_fock_cost(&config, &system),
                &t.2[0].profile,
            );
            (t, config.natoms as usize, m)
        }
        other => panic!("unknown family '{other}'"),
    };
    FamilyLaunch {
        portable_ms,
        vendor_ms,
        bytes: runs.iter().map(|r| r.cost.total_bytes()).sum(),
        elements,
        model_us,
    }
}

fn simd_speedup(kernel: &str) -> f64 {
    let entry = simd::lane_kernels()
        .iter()
        .find(|k| k.name == kernel)
        .unwrap_or_else(|| panic!("no lane kernel '{kernel}'"));
    let size = entry.sizes[entry.sizes.len() / 2];
    let det = median_ms(7, || (entry.run)(Lane::Deterministic, black_box(size)));
    let fast = median_ms(7, || (entry.run)(Lane::Simd, black_box(size)));
    det / fast
}

/// The lane-kernel key and size `--lane auto` resolves for one sweep point.
fn lane_choice(name: &str, point: &Params) -> Vec<(&'static str, u64)> {
    match name {
        "stencil" => vec![(simd::KERNEL_STENCIL7, point.int("l"))],
        "jacobi" => vec![(simd::KERNEL_JACOBI, point.int("l"))],
        "framestream" => vec![(simd::KERNEL_FRAMESTREAM, point.int("n"))],
        "babelstream" => babelstream::workload::parse_ops(point.text("op"))
            .expect("ops")
            .iter()
            .map(|&op| (babelstream::lane_kernel_key(op), point.int("n")))
            .collect(),
        "minibude" => {
            let config = minibude::workload::config(point).expect("minibude config");
            vec![(simd::KERNEL_MINIBUDE_POSE, config.executed_poses as u64)]
        }
        "hartree-fock" => vec![(simd::KERNEL_FOCK_ERI, point.int("atoms"))],
        _ => Vec::new(),
    }
}

fn auto_simd_share(ops: &[Op]) -> f64 {
    let mut picks = Vec::new();
    for op in ops {
        if let Op::Sweep {
            workload: name,
            sizes,
            params,
            ..
        } = op
        {
            let spec = sweep_spec(name, params, sizes);
            for &size in sizes {
                let point = spec.point(size).expect("point");
                picks.extend(lane_choice(name, &point));
            }
        }
    }
    if picks.is_empty() {
        // No sweep launches: the share over the crossover table's own ladder.
        for kernel in simd::lane_kernels() {
            picks.extend(kernel.sizes.iter().map(|&s| (kernel.name, s)));
        }
    }
    let simd_picks = picks
        .iter()
        .filter(|(k, s)| simd::resolve(LanePolicy::Auto, k, *s) == Lane::Simd)
        .count();
    simd_picks as f64 / picks.len() as f64
}

/// A spilled sweep as `serve` runs it: preset, two local workers through
/// the dispatcher, shard parse and merge.
fn spill_probe(exe: &Path, work: &Path) -> (f64, f64, f64) {
    let spec = sweep_spec("stencil", &[], &[16, 24, 32]);
    let preset = work.join("spill-preset.json");
    spec.write_preset(&preset).expect("write preset");
    let workers = 2u64;
    let args: Vec<Vec<String>> = (0..workers)
        .map(|i| {
            vec![
                "sweep".to_string(),
                "--preset".to_string(),
                preset.display().to_string(),
                "--shard".to_string(),
                format!("{i}/{workers}"),
            ]
        })
        .collect();
    let tasks = shard::worker_tasks(&args);
    let (mut spill, mut parse, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let launchers: Vec<Box<dyn Launcher>> =
            vec![Box::new(LocalLauncher::new(exe, workers as usize))];
        let (ms, result) = time_ms(|| dispatch(&launchers, &tasks, &DispatchPolicy::default()));
        let (docs, _summary) = result.expect("spill dispatch");
        spill.push(ms);
        let texts: Vec<String> = docs.iter().map(ShardDocument::to_json_pretty).collect();
        let (ms, parsed) = time_ms(|| {
            texts
                .iter()
                .map(|t| ShardDocument::parse(t).expect("shard document"))
                .collect::<Vec<_>>()
        });
        parse.push(ms);
        let (ms, merged) = time_ms(|| shard::merge_sweep(&spec, &parsed));
        merged.expect("shard merge");
        merge.push(ms);
    }
    std::fs::remove_file(&preset).ok();
    (median(spill), median(parse), median(merge))
}

fn replay(ops: &[Op], exe: &Path, work: &Path) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let out = work.join("replay-out");
    std::fs::create_dir_all(&out).expect("create replay output dir");
    let n = ops.len();
    let mut failures = 0usize;

    // Warm pass: the memo caches fill, so the two timed passes compare like
    // with like.
    let mut warm = Tracer::new(false);
    for op in ops {
        failures += usize::from(replay_op(&mut warm, op, &out));
    }
    let untraced = Instant::now();
    let mut quiet = Tracer::new(false);
    for op in ops {
        failures += usize::from(replay_op(&mut quiet, op, &out));
    }
    let untraced_s = untraced.elapsed().as_secs_f64();

    let pool_before = pool::stats();
    let traced = Instant::now();
    let mut tracer = Tracer::new(true);
    for op in ops {
        failures += usize::from(replay_op(&mut tracer, op, &out));
    }
    let traced_s = traced.elapsed().as_secs_f64();
    let pool_delta = pool::stats().since(&pool_before);
    tracer
        .write_tsv(&work.join("spans.tsv"))
        .expect("write spans");

    m.insert("trace.overhead_frac".into(), traced_s / untraced_s - 1.0);
    let own = tracer.self_times();
    let (mut covered, mut wall) = (0.0, 0.0);
    for (span, t) in tracer.spans.iter().zip(&own) {
        if span.parent.is_none() {
            wall += span.end_us - span.start_us;
        } else {
            covered += t;
        }
    }
    m.insert("trace.coverage_frac".into(), covered / wall);
    m.insert(
        "pool.checkouts_per_op".into(),
        pool_delta.checkouts as f64 / n as f64,
    );
    m.insert("pool.hit_frac".into(), pool_delta.hit_rate());
    m.insert(
        "pool.fresh_bytes_per_op".into(),
        pool_delta.fresh_bytes as f64 / n as f64,
    );
    m.insert(
        "pool.high_water_mb".into(),
        pool::stats().high_water_bytes as f64 / (1 << 20) as f64,
    );

    // Registry and report layers: the regen ops themselves, or three
    // in-process `run --all` repetitions when the workload has none (the
    // first repetition pays the cold memo entries and is dropped).
    let run_ops: Vec<usize> = (0..n)
        .filter(|&i| matches!(&ops[i], Op::Run(ids) if ids.len() == ExperimentId::ALL.len()))
        .collect();
    let (registry_tracer, registry_ops) = if run_ops.is_empty() {
        let mut probe = Tracer::new(true);
        for _ in 0..3 {
            replay_op(&mut probe, &Op::Run(ExperimentId::ALL.to_vec()), &out);
        }
        (probe, vec![1, 2])
    } else {
        (tracer, run_ops)
    };
    let per_run = |name: &str| -> f64 {
        let per_op = per_op_self_us(&registry_tracer, name, 0..registry_tracer.op);
        median(registry_ops.iter().map(|&i| per_op[i] / 1e3).collect())
    };
    for group in ["table4", "table5", "fig2", "other"] {
        m.insert(
            format!("registry.{group}.ms"),
            per_run(&format!("registry.{group}")),
        );
    }
    m.insert("report.render_ms".into(), per_run("report.render"));
    m.insert("report.to_json_ms".into(), per_run("report.to_json"));
    m.insert("report.write_ms".into(), per_run("report.write"));

    let reports: Vec<ExperimentReport> = ExperimentId::ALL
        .iter()
        .map(|&id| run_experiment(id))
        .collect();
    let json = ExperimentReport::render_json_array(&reports);
    let parse_ms = median_ms(5, || {
        serde_json::from_str::<serde::value::Value>(black_box(&json)).expect("valid JSON")
    });
    m.insert(
        "json.parse_mb_s".into(),
        json.len() as f64 / 1e6 / (parse_ms * 1e-3),
    );

    let points = sweep_points(ops);
    let render_ms = {
        let (name, point) = points
            .first()
            .cloned()
            .unwrap_or_else(|| ("stencil".to_string(), probe_point("stencil")));
        let engine = workload::find(&name).expect("workload");
        let size = point.int(engine.size_param());
        let spec = SweepSpec {
            workload: engine,
            base: point.clone(),
            sizes: vec![size],
        };
        let outputs = vec![engine.run(&point).expect("probe run")];
        median_ms(20, || render_sweep(&spec, &outputs))
    };
    m.insert("sweep.render_ms".into(), render_ms);

    // Kernel families: the workload's first point of each, else a probe
    // point, timed around each family's public `run`.
    let roofline = |elements: usize| host_copy_gbs(elements.max(1 << 12));
    let mut model = Vec::new();
    for (family, workload_name) in [
        ("babelstream", "babelstream"),
        ("stencil7", "stencil"),
        ("jacobi", "jacobi"),
        ("framestream", "framestream"),
        ("minibude", "minibude"),
        ("hartree_fock", "hartree-fock"),
    ] {
        let point = first_point(&points, workload_name);
        let launch = launch_family(family, &point);
        m.insert(format!("{family}.portable.launch_ms"), launch.portable_ms);
        m.insert(format!("{family}.vendor.launch_ms"), launch.vendor_ms);
        if !matches!(family, "minibude" | "hartree_fock") {
            let gbs = launch.bytes as f64 / (launch.portable_ms * 1e-3) / 1e9;
            m.insert(format!("{family}.host_gbs"), gbs);
            m.insert(
                format!("{family}.roofline_frac"),
                gbs / roofline(launch.elements),
            );
        }
        model.push(launch.model_us);
    }
    m.insert("timing.model_us".into(), median(model));

    // The roofline probe at each array size the workload streams.
    let mut elements: Vec<usize> = points
        .iter()
        .filter_map(|(name, p)| match name.as_str() {
            "babelstream" | "framestream" => Some(p.int("n") as usize),
            "stencil" | "jacobi" => Some(p.int("l").pow(3) as usize),
            _ => None,
        })
        .collect();
    elements.sort_unstable();
    elements.dedup();
    if elements.is_empty() {
        elements.push(1 << 20);
    }
    let copies: Vec<f64> = elements.iter().map(|&e| roofline(e)).collect();
    let mut ladder = String::new();
    for (e, g) in elements.iter().zip(&copies) {
        let _ = write!(ladder, "{}:{:.2} ", e * 8, g);
    }
    eprintln!("host.copy_gbs by array bytes: {}", ladder.trim_end());
    m.insert("host.copy_gbs".into(), median(copies));

    m.insert(
        "simd.fock_eri.speedup".into(),
        simd_speedup(simd::KERNEL_FOCK_ERI),
    );
    m.insert("simd.dot.speedup".into(), simd_speedup(simd::KERNEL_DOT));
    m.insert(
        "simd.minibude.speedup".into(),
        simd_speedup(simd::KERNEL_MINIBUDE_POSE),
    );
    m.insert("simd.auto_simd_share".into(), auto_simd_share(ops));

    let warm_config = stencil_config(&first_point(&points, "stencil"));
    black_box(cache::stencil_grid(&warm_config));
    let lookups = 2000;
    let start = Instant::now();
    for _ in 0..lookups {
        black_box(cache::stencil_grid(black_box(&warm_config)));
    }
    m.insert(
        "cache.warm_lookup_us".into(),
        start.elapsed().as_secs_f64() * 1e6 / lookups as f64,
    );

    let (spill, parse, merge) = spill_probe(exe, work);
    m.insert("dispatch.spill_ms".into(), spill);
    m.insert("shard.parse_ms".into(), parse);
    m.insert("shard.merge_ms".into(), merge);

    m.insert("replay.failures".into(), failures as f64);
    m.insert("replay.ops".into(), n as f64);
    m
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn print_metrics(metrics: &BTreeMap<String, f64>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!("{{{}}}", body.join(", "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench-tracer (cold|replay) --ops FILE [--exe BIN --work DIR]";
    let Some(mode) = args.first().cloned() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let Some(ops_path) = flag(&args, "--ops") else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let ops = match std::fs::read_to_string(&ops_path)
        .map_err(|e| format!("cannot read {ops_path}: {e}"))
        .and_then(|text| parse_ops(&text))
    {
        Ok(ops) if !ops.is_empty() => ops,
        Ok(_) => {
            eprintln!("{ops_path}: no ops");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let metrics = match mode.as_str() {
        "cold" => cold(&ops),
        "replay" => {
            let (Some(exe), Some(work)) = (flag(&args, "--exe"), flag(&args, "--work")) else {
                eprintln!("{usage}");
                return ExitCode::from(2);
            };
            let work = PathBuf::from(work);
            std::fs::create_dir_all(&work).expect("create work dir");
            replay(&ops, Path::new(&exe), &work)
        }
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    print_metrics(&metrics);
    ExitCode::SUCCESS
}
