//! Crossover bench: times both execution lanes of every registered lane
//! kernel across its size ladder and writes the per-kernel crossover table
//! that `--lane auto` consults (DESIGN.md §14).
//!
//! Output goes to `target/bench/crossover.json` (schema:
//! [`science_kernels::simd::CrossoverTable`]). To refresh the committed
//! cross-machine default, copy that file over
//! `crates/kernels/src/simd/crossover_default.json`.
//!
//! Modes:
//!
//! * default — full sweep: every kernel, every ladder size, warm-up plus
//!   min-of-several-reps per (kernel, size, lane);
//! * `--smoke` / `--test` — CI smoke: first and last ladder size per kernel,
//!   single timed rep (still writes `crossover.json` so the per-SHA bench
//!   archive carries a table);
//! * `--check [FILE]` — no timing: parse `FILE` (default
//!   `target/bench/crossover.json`) and fail on any schema error.

use criterion::{bench_dir, black_box};
use science_kernels::simd::{lane_kernels, CrossoverEntry, CrossoverTable, Lane, AUTO_MIN_SPEEDUP};
use std::path::PathBuf;
use std::time::Instant;

/// Best-of-`reps` wall-clock nanoseconds for one (kernel, size, lane) point.
/// Warm-up reps also warm the buffer pool, so timed reps see pool hits — the
/// same steady state the drivers run in.
fn time_lane(run: fn(Lane, u64) -> f64, lane: Lane, size: u64, warmup: u32, reps: u32) -> f64 {
    for _ in 0..warmup {
        black_box(run(lane, size));
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        black_box(run(lane, size));
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Parses `path` as a crossover table, reporting schema errors. Exit code 0
/// on success, 2 on any failure.
fn check(path: &PathBuf) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("crossover: cannot read {}: {err}", path.display());
            return 2;
        }
    };
    match CrossoverTable::parse(&text) {
        Ok(table) => {
            println!(
                "crossover: {} is a valid table ({} entries)",
                path.display(),
                table.entries.len()
            );
            0
        }
        Err(message) => {
            eprintln!("crossover: {} is invalid: {message}", path.display());
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .unwrap_or_else(|| bench_dir().join("crossover.json"));
        std::process::exit(check(&path));
    }
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--test");
    let (warmup, reps) = if smoke { (1, 1) } else { (2, 7) };
    // Positional arguments filter by kernel-name substring, matching the
    // `cargo bench -- <filter>` convention. A filtered run still writes
    // `crossover.json`, covering just the selected kernels.
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let mut entries = Vec::new();
    println!(
        "{:<18} {:>9} {:>15} {:>15} {:>9}  fastest",
        "kernel", "size", "deterministic", "simd", "speedup"
    );
    for kernel in lane_kernels() {
        if !filters.is_empty() && !filters.iter().any(|f| kernel.name.contains(f.as_str())) {
            continue;
        }
        let sizes: Vec<u64> = if smoke && kernel.sizes.len() > 2 {
            vec![kernel.sizes[0], *kernel.sizes.last().unwrap()]
        } else {
            kernel.sizes.to_vec()
        };
        for size in sizes {
            let deterministic_ns = time_lane(kernel.run, Lane::Deterministic, size, warmup, reps);
            let simd_ns = time_lane(kernel.run, Lane::Simd, size, warmup, reps);
            let speedup = deterministic_ns / simd_ns;
            // A win inside the noise band stays deterministic: `auto` only
            // leaves the golden lane for a margin the bench can resolve.
            let fastest = if speedup >= AUTO_MIN_SPEEDUP {
                Lane::Simd
            } else {
                Lane::Deterministic
            };
            println!(
                "{:<18} {:>9} {:>12.0} ns {:>12.0} ns {:>8.2}x  {}",
                kernel.name, size, deterministic_ns, simd_ns, speedup, fastest
            );
            entries.push(CrossoverEntry {
                kernel: kernel.name.to_string(),
                size,
                deterministic_ns,
                simd_ns,
                speedup,
                fastest,
            });
        }
    }

    let table = CrossoverTable::new(entries);
    let dir = bench_dir();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("crossover: cannot create {}: {err}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("crossover.json");
    match std::fs::write(&path, table.to_json_pretty()) {
        Ok(()) => println!("crossover: wrote {}", path.display()),
        Err(err) => {
            eprintln!("crossover: failed to write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "crossover: to commit as the cross-machine default, copy over \
         crates/kernels/src/simd/crossover_default.json"
    );
}
