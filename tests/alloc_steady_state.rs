//! Steady-state zero-allocation contract of the workload hot paths
//! (DESIGN.md §11).
//!
//! Every registered workload is run repeatedly with one fixed parameter
//! assignment. The first runs are warm-up: they fill the size-classed buffer
//! pool, the string interner and the generation memo caches. After that,
//! each `Workload::run` must be served entirely from pooled and memoized
//! storage — the counting global allocator below must observe **zero**
//! `alloc`/`realloc` calls across the steady-state launches.
//!
//! The test pins `RAYON_NUM_THREADS=1` before the first parallel call so the
//! worker pool's serial lane executes in the caller (spawning workers — a
//! one-time, warm-up-phase cost in production — would otherwise count
//! against whichever launch happened to trigger it). All of a launch's work
//! then runs on the test's own thread, and that is the thread the counter
//! watches: the libtest harness allocates on its main thread while a test
//! runs (the "has been running for over 60 seconds" notice formats a
//! message), and a process-wide count charged those allocations to
//! whichever launch the notice landed in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocator entry point that can hand out new memory.
/// Deallocation is free to happen in steady state (returning a block to the
/// pool's shelves never touches the global allocator, but dropping a
/// same-sized replacement is harmless either way), so `dealloc` is not
/// counted.
struct CountingAllocator;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// drop glue, so reading it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Warm-up launches per workload before counting starts. Two would do (the
/// first fills caches, the second settles pool shelf population); a third
/// adds slack against launch-order effects inside a single run.
const WARMUP_RUNS: usize = 3;

/// Counted steady-state launches per workload.
const STEADY_RUNS: usize = 3;

#[test]
fn steady_state_launches_do_not_allocate() {
    // Must precede the first parallel call of the process: the worker pool
    // reads the variable once, when first used.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    // The premise of counting this thread alone: no pool worker exists, so
    // every launch runs inline here.
    assert_eq!(rayon::current_num_threads(), 1);

    use science_kernels::simd::LanePolicy;
    use science_kernels::workload::{self, ParamValue};

    let engines = workload::all();
    assert!(
        engines.len() >= 7,
        "expected the seven registered workloads (four proxies, the sampled \
         variant, and the two §15 composites), found {}",
        engines.len()
    );

    for engine in engines {
        let mut params = engine.default_params();
        params
            .set(
                engine.size_param(),
                ParamValue::Int(engine.bench_sizes()[0]),
            )
            .expect("size param applies");

        for _ in 0..WARMUP_RUNS {
            engine.run(&params).expect("warm-up run succeeds");
        }

        let before = allocations();
        for launch in 0..STEADY_RUNS {
            let output = engine.run(&params).expect("steady-state run succeeds");
            assert!(
                !output.measurements.is_empty(),
                "{}: steady-state run produced no measurements",
                engine.name()
            );
            drop(output);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{}: steady-state launch {} performed {} global allocation(s); \
                 every hot-path buffer must come from the pool or a memo cache",
                engine.name(),
                launch + 2 + WARMUP_RUNS,
                after - before
            );
        }

        // The SIMD fast lane holds the same contract (DESIGN.md §14): its
        // scratch is pooled or on the stack, and the lane's one-time caches
        // fill during warm-up like every other memo.
        for _ in 0..WARMUP_RUNS {
            engine
                .run_lane(&params, LanePolicy::Simd)
                .expect("SIMD warm-up run succeeds");
        }
        let before = allocations();
        for launch in 0..STEADY_RUNS {
            let output = engine
                .run_lane(&params, LanePolicy::Simd)
                .expect("SIMD steady-state run succeeds");
            drop(output);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{}: SIMD-lane steady-state launch {} performed {} global \
                 allocation(s); the fast lane must not trade determinism for \
                 allocation churn",
                engine.name(),
                launch + 2 + WARMUP_RUNS,
                after - before
            );
        }
    }

    // The standalone lane kernels (what the crossover bench times and the
    // parity suite compares) obey the contract too, on both lanes, at their
    // smallest ladder size.
    use science_kernels::simd::{lane_kernels, Lane};
    for kernel in lane_kernels() {
        let size = kernel.sizes[0];
        for lane in [Lane::Deterministic, Lane::Simd] {
            for _ in 0..WARMUP_RUNS {
                (kernel.run)(lane, size);
            }
            let before = allocations();
            for _ in 0..STEADY_RUNS {
                (kernel.run)(lane, size);
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "lane kernel {} ({lane}, size {size}) performed {} steady-state \
                 global allocation(s)",
                kernel.name,
                after - before
            );
        }
    }
}
