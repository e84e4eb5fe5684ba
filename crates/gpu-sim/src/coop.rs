//! Cooperative (shared-memory + barrier) kernel execution.
//!
//! The BabelStream `dot` kernel (paper Listing 3) is the one kernel in the
//! study that uses block-level shared memory and `barrier()`: each thread
//! accumulates a grid-strided partial product into a shared array, then the
//! block performs a tree reduction with a barrier between halving steps.
//!
//! The simulator realises barrier semantics with a *bulk-synchronous phase
//! engine*: a cooperative kernel is expressed as a sequence of phases, where a
//! `barrier()` in GPU code corresponds to a phase boundary here. Within one
//! phase the engine runs every thread of the block to completion (sequentially
//! — which is a legal interleaving for any data-race-free kernel); between
//! phases all threads of the block are synchronised, which is exactly what the
//! barrier guarantees. Thread-private state that must survive across barriers
//! lives in the kernel's `ThreadState` associated type, playing the role of
//! registers.

use crate::dim::{Dim3, LaunchConfig};
use crate::exec::ThreadCtx;
use crate::pool::PooledVec;
use rayon::prelude::*;

/// What a thread wants to do after finishing a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The thread has more work after the next barrier.
    Continue,
    /// The thread has finished the kernel.
    Done,
}

/// A kernel that uses block shared memory and barriers.
///
/// `phase(p, ...)` is called for every thread of a block with `p = 0, 1, 2, …`
/// until *all* threads of the block have returned [`PhaseOutcome::Done`].
/// Each phase boundary corresponds to a `barrier()` in the CUDA/HIP/Mojo
/// source. Threads that are already done are not called again.
pub trait CoopKernel: Sync {
    /// Element type of the block's shared-memory scratch array. (`'static` so
    /// the engine can recycle scratch storage through the process-wide
    /// [`crate::pool`].)
    type Shared: Copy + Default + Send + Sync + 'static;
    /// Thread-private state that persists across phases ("registers").
    type ThreadState: Default + Send + 'static;

    /// Length (in elements) of the shared array each block allocates.
    fn shared_len(&self, block_dim: Dim3) -> usize;

    /// Executes one phase for one thread.
    fn phase(
        &self,
        phase: usize,
        ctx: ThreadCtx,
        state: &mut Self::ThreadState,
        shared: &mut [Self::Shared],
    ) -> PhaseOutcome;
}

/// Launches cooperative kernels on the simulator.
pub struct CoopLaunch;

/// Safety valve: a cooperative kernel that never converges is a bug; the
/// engine aborts after this many phases.
const MAX_PHASES: usize = 1_000_000;

impl CoopLaunch {
    /// Runs `kernel` over the launch configuration. Contiguous chunks of
    /// blocks execute in parallel on the persistent pool; threads within a
    /// block follow the bulk-synchronous schedule described in the module
    /// documentation. The shared/state/flag scratch buffers of a chunk are
    /// [`PooledVec`]s checked out of the process-wide size-classed pool
    /// (replacing PR 2's `TypeId`-keyed thread-local arena lookup on this
    /// path): each chunk reuses them across every block it runs, and warm
    /// launches reuse the shelved blocks of earlier launches.
    pub fn run<K: CoopKernel>(cfg: &LaunchConfig, kernel: &K) {
        let grid = cfg.grid;
        let block = cfg.block;
        let threads_per_block = cfg.threads_per_block() as usize;
        let shared_len = kernel.shared_len(block);
        let num_blocks = cfg.num_blocks();
        let chunk = crate::exec::block_chunk_len(num_blocks);
        let num_chunks = num_blocks.div_ceil(chunk);

        (0..num_chunks).into_par_iter().for_each(|chunk_index| {
            let mut shared: PooledVec<K::Shared> = PooledVec::with_capacity(shared_len);
            let mut states: PooledVec<K::ThreadState> = PooledVec::new();
            let mut done: PooledVec<bool> = PooledVec::with_capacity(threads_per_block);
            let start = chunk_index * chunk;
            let end = (start + chunk).min(num_blocks);
            for block_linear in start..end {
                let (bx, by, bz) = grid.delinearize(block_linear);
                shared.clear();
                shared.resize(shared_len, K::Shared::default());
                states.clear();
                states.resize_with(threads_per_block, K::ThreadState::default);
                done.clear();
                done.resize(threads_per_block, false);
                Self::run_block(
                    kernel,
                    Dim3::new(bx, by, bz),
                    block,
                    grid,
                    &mut shared,
                    &mut states,
                    &mut done,
                );
            }
        });
    }

    /// Runs one block to completion using caller-provided scratch buffers.
    ///
    /// Every phase visits the block's live threads in linear order (x
    /// fastest), walking `(x, y, z)` with nested loops and a running linear
    /// index instead of re-deriving the coordinates with div/mod per thread.
    #[inline]
    fn run_block<K: CoopKernel>(
        kernel: &K,
        block_idx: Dim3,
        block: Dim3,
        grid: Dim3,
        shared: &mut [K::Shared],
        states: &mut [K::ThreadState],
        done: &mut [bool],
    ) {
        let mut ctx = ThreadCtx {
            thread_idx: Dim3::new(0, 0, 0),
            block_idx,
            block_dim: block,
            grid_dim: grid,
        };
        let mut remaining = states.len();
        let mut phase = 0usize;
        while remaining > 0 {
            assert!(
                phase < MAX_PHASES,
                "cooperative kernel did not converge within {MAX_PHASES} phases"
            );
            let mut thread_linear = 0usize;
            for tz in 0..block.z {
                for ty in 0..block.y {
                    for tx in 0..block.x {
                        if !done[thread_linear] {
                            ctx.thread_idx = Dim3::new(tx, ty, tz);
                            let state = &mut states[thread_linear];
                            if kernel.phase(phase, ctx, state, shared) == PhaseOutcome::Done {
                                done[thread_linear] = true;
                                remaining -= 1;
                            }
                        }
                        thread_linear += 1;
                    }
                }
            }
            phase += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::UnsafeSlice;

    /// A block-wide tree reduction over per-thread values, structured exactly
    /// like the BabelStream dot kernel: phase 0 loads, later phases halve.
    struct BlockSumKernel<'a> {
        input: &'a [f64],
        output: UnsafeSlice<'a, f64>,
    }

    #[derive(Default)]
    struct SumState;

    impl CoopKernel for BlockSumKernel<'_> {
        type Shared = f64;
        type ThreadState = SumState;

        fn shared_len(&self, block_dim: Dim3) -> usize {
            block_dim.total() as usize
        }

        fn phase(
            &self,
            phase: usize,
            ctx: ThreadCtx,
            _state: &mut SumState,
            shared: &mut [f64],
        ) -> PhaseOutcome {
            let tid = ctx.thread_idx.x as usize;
            let bs = ctx.block_dim.x as usize;
            if phase == 0 {
                let gid = ctx.global_x() as usize;
                shared[tid] = if gid < self.input.len() {
                    self.input[gid]
                } else {
                    0.0
                };
                return PhaseOutcome::Continue;
            }
            // Reduction phase p halves the active range: offset = bs >> p.
            let offset = bs >> phase;
            if offset == 0 {
                if tid == 0 {
                    self.output.write(ctx.block_idx.x as usize, shared[0]);
                }
                return PhaseOutcome::Done;
            }
            if tid < offset {
                shared[tid] += shared[tid + offset];
            }
            PhaseOutcome::Continue
        }
    }

    #[test]
    fn block_tree_reduction_matches_sequential_sum() {
        let n = 4096usize;
        let block_size = 256u32;
        let input: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5).collect();
        let cfg = LaunchConfig::cover_1d(n as u64, block_size);
        let mut partials = vec![0.0f64; cfg.num_blocks() as usize];
        {
            let kernel = BlockSumKernel {
                input: &input,
                output: UnsafeSlice::new(&mut partials),
            };
            CoopLaunch::run(&cfg, &kernel);
        }
        let total: f64 = partials.iter().sum();
        let expected: f64 = input.iter().sum();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn works_with_non_power_of_two_input() {
        let n = 1000usize;
        let block_size = 128u32;
        let input: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cfg = LaunchConfig::cover_1d(n as u64, block_size);
        let mut partials = vec![0.0f64; cfg.num_blocks() as usize];
        {
            let kernel = BlockSumKernel {
                input: &input,
                output: UnsafeSlice::new(&mut partials),
            };
            CoopLaunch::run(&cfg, &kernel);
        }
        let total: f64 = partials.iter().sum();
        let expected = (n * (n - 1) / 2) as f64;
        assert!((total - expected).abs() < 1e-6);
    }

    /// A kernel where different threads finish in different phases, checking
    /// the engine's per-thread completion tracking.
    struct StaggeredKernel<'a> {
        output: UnsafeSlice<'a, u32>,
    }

    #[derive(Default)]
    struct StagState {
        count: u32,
    }

    impl CoopKernel for StaggeredKernel<'_> {
        type Shared = u32;
        type ThreadState = StagState;

        fn shared_len(&self, _block_dim: Dim3) -> usize {
            1
        }

        fn phase(
            &self,
            _phase: usize,
            ctx: ThreadCtx,
            state: &mut StagState,
            _shared: &mut [u32],
        ) -> PhaseOutcome {
            state.count += 1;
            // Thread t finishes after t+1 phases.
            if state.count > ctx.thread_idx.x {
                self.output.write(ctx.global_x() as usize, state.count);
                PhaseOutcome::Done
            } else {
                PhaseOutcome::Continue
            }
        }
    }

    /// Records every `(phase, thread_idx)` call of each block, so a test can
    /// pin the engine's visiting order.
    struct OrderKernel {
        calls: std::sync::Mutex<Vec<Vec<(usize, Dim3)>>>,
        phases: usize,
    }

    impl CoopKernel for OrderKernel {
        type Shared = u8;
        type ThreadState = ();

        fn shared_len(&self, _block_dim: Dim3) -> usize {
            0
        }

        fn phase(&self, phase: usize, ctx: ThreadCtx, _: &mut (), _: &mut [u8]) -> PhaseOutcome {
            let block = ctx.block_idx.x as usize;
            self.calls.lock().unwrap()[block].push((phase, ctx.thread_idx));
            // Odd threads (by linear index) finish one phase early.
            let linear =
                ctx.block_dim
                    .linearize(ctx.thread_idx.x, ctx.thread_idx.y, ctx.thread_idx.z);
            if phase + 1 + (linear % 2) as usize >= self.phases {
                PhaseOutcome::Done
            } else {
                PhaseOutcome::Continue
            }
        }
    }

    #[test]
    fn each_phase_visits_live_threads_in_linear_x_fastest_order() {
        let block = Dim3::new(4, 2, 2);
        let cfg = LaunchConfig::new(3u32, block);
        let kernel = OrderKernel {
            calls: std::sync::Mutex::new(vec![Vec::new(); 3]),
            phases: 3,
        };
        CoopLaunch::run(&cfg, &kernel);
        let mut expected = Vec::new();
        for phase in 0..3 {
            for linear in 0..block.total() {
                // Odd threads are done after phase 1.
                if phase == 2 && linear % 2 == 1 {
                    continue;
                }
                let (x, y, z) = block.delinearize(linear);
                expected.push((phase, Dim3::new(x, y, z)));
            }
        }
        for calls in kernel.calls.into_inner().unwrap() {
            assert_eq!(calls, expected);
        }
    }

    #[test]
    fn threads_can_finish_in_different_phases() {
        let cfg = LaunchConfig::new(2u32, 8u32);
        let mut out = vec![0u32; cfg.total_threads() as usize];
        {
            let kernel = StaggeredKernel {
                output: UnsafeSlice::new(&mut out),
            };
            CoopLaunch::run(&cfg, &kernel);
        }
        for block in 0..2usize {
            for t in 0..8usize {
                assert_eq!(out[block * 8 + t], t as u32 + 1);
            }
        }
    }
}
