//! # connreuse-executor
//!
//! A **work-stealing chunk executor** with deterministic, index-addressed
//! results — the scheduling layer under the atlas scale scenario (and any
//! other embarrassingly-parallel, chunk-shaped workload in the workspace).
//!
//! ## Why work stealing
//!
//! The atlas population is processed in fixed-size chunks whose cost is
//! *skewed*: Zipf-mixed head chunks plan several times the requests of deep
//! tail chunks. A static contiguous split (what the pipeline used before this
//! crate existed) finishes when its **slowest** worker does, leaving the other
//! cores idle for the tail of the run. Here every worker owns a deque of task
//! indices; it pops work from the *front* of its own deque and, when that runs
//! dry, **steals from the back** of a sibling's — so the expensive head chunks
//! naturally spread over all workers and the run finishes when the *total*
//! work does.
//!
//! ## Determinism contract
//!
//! Scheduling decides only *who* runs a task and *when* — never what the task
//! computes or where its result lands:
//!
//! * tasks are identified by their index `0..tasks`, and `results[i]` is
//!   always the value task `i` returned, regardless of which worker ran it or
//!   in what order;
//! * the executor itself introduces no randomness: initial deques are
//!   contiguous index blocks, steal victims are scanned in a fixed rotation;
//! * per-worker state (`init`) lets callers keep scratch arenas and memo
//!   tables thread-local without any locking in the task body.
//!
//! A caller whose task function is a pure function of the task index therefore
//! gets **byte-identical output at any thread count** — the property the
//! atlas report's thread-invariance tests pin end to end.
//!
//! ```
//! use connreuse_executor::run_indexed;
//!
//! // Square 100 numbers on 4 workers, each with a (here trivial) worker
//! // state. Results come back in task order, not completion order.
//! let outcome = run_indexed(4, 100, |_worker| (), |(), task| task * task);
//! assert_eq!(outcome.results[7], 49);
//! assert_eq!(outcome.stats.executed.iter().sum::<usize>(), 100);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// Scheduling telemetry of one [`run_indexed`] call.
///
/// The stats describe the *schedule*, which is timing-dependent — two runs of
/// the same workload may distribute tasks differently. Callers must keep them
/// out of any deterministic report (the atlas carries them in its
/// wall-clock-only metrics block, next to throughput and peak RSS).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the run actually used (after clamping to the task
    /// count; a `threads <= 1` run reports a single worker).
    pub workers: usize,
    /// Tasks each worker executed, indexed by worker; sums to the task count.
    pub executed: Vec<usize>,
    /// Tasks that ran on a worker other than the one whose deque initially
    /// held them. 0 on a perfectly balanced run; grows with cost skew.
    pub steals: u64,
}

/// Results and scheduling stats of one [`run_indexed`] call.
#[derive(Clone, Debug)]
pub struct RunOutcome<R> {
    /// `results[i]` is what the task function returned for task `i` —
    /// independent of worker count and steal schedule.
    pub results: Vec<R>,
    /// How the run was scheduled (timing-dependent; see [`PoolStats`]).
    pub stats: PoolStats,
}

/// Run `tasks` task indices across `threads` workers with work stealing.
///
/// `init(worker_index)` builds each worker's private state once (scratch
/// arenas, classifiers, caches); `run(&mut state, task_index)` executes one
/// task and its return value is stored at `results[task_index]`.
///
/// `threads` is clamped to `1..=tasks`; with one worker (or one task) the
/// executor degenerates to a plain sequential loop with no locking at all.
/// Panics in `init` or `run` propagate to the caller once all workers have
/// stopped (the underlying scoped threads re-raise on join).
///
/// This is [`run_indexed_streaming`] with room in the channel for every
/// result, so workers never block on the caller, and a consumer that files
/// each result into its index slot.
pub fn run_indexed<S, R, I, F>(threads: usize, tasks: usize, init: I, run: F) -> RunOutcome<R>
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(tasks, || None);
    let stats =
        run_indexed_streaming(threads, tasks, tasks, init, run, |task, result| slots[task] = Some(result));
    let results = slots.into_iter().map(|slot| slot.expect("every task ran")).collect();
    RunOutcome { results, stats }
}

/// Run `tasks` task indices across `threads` workers with work stealing,
/// **streaming** each `(task_index, result)` pair to `consume` on the caller
/// thread as soon as it is produced, through a bounded channel of `capacity`
/// results.
///
/// This is the executor's one worker loop; [`run_indexed`] is the buffered
/// special case. Instead of buffering every result until the run finishes,
/// the caller folds (or persists) results while the workers are still
/// computing. The channel is a [`std::sync::mpsc::sync_channel`], so when
/// `consume` falls behind by more than `capacity` results the **workers
/// block on send** — a slow consumer applies backpressure to the producers
/// instead of growing an unbounded buffer.
///
/// Results arrive in **completion order**, which is timing-dependent; the
/// task index accompanies every result so an order-sensitive caller can
/// fold into index-addressed state (the shard store writes `results[i]` to
/// shard file `i`, which makes the on-disk outcome schedule-independent).
/// With `threads <= 1` the executor degenerates to a sequential loop that
/// calls `consume` inline after every task — completion order *is* task
/// order, and the channel is skipped entirely.
///
/// ```
/// use connreuse_executor::run_indexed_streaming;
///
/// let mut seen = vec![0usize; 20];
/// let stats = run_indexed_streaming(
///     4,
///     20,
///     2, // at most 2 undelivered results before workers block
///     |_worker| (),
///     |(), task| task * task,
///     |task, square| seen[task] = square,
/// );
/// assert_eq!(seen[7], 49);
/// assert_eq!(stats.executed.iter().sum::<usize>(), 20);
/// ```
pub fn run_indexed_streaming<S, R, I, F, C>(
    threads: usize,
    tasks: usize,
    capacity: usize,
    init: I,
    run: F,
    mut consume: C,
) -> PoolStats
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = threads.clamp(1, tasks.max(1));
    if workers <= 1 {
        let mut state = init(0);
        for task in 0..tasks {
            let result = run(&mut state, task);
            consume(task, result);
        }
        return PoolStats { workers: 1, executed: vec![tasks], steals: 0 };
    }

    // Initial distribution: contiguous blocks, so a steal-free run matches
    // the cache-friendly static split and task 0 starts on worker 0.
    let block = tasks.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|worker| {
            let start = worker * block;
            let end = tasks.min(start + block);
            Mutex::new((start..end.max(start)).collect())
        })
        .collect();
    let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let steals = AtomicU64::new(0);

    let (sender, receiver) = mpsc::sync_channel::<(usize, R)>(capacity.max(1));
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let deques = &deques;
            let executed = &executed;
            let steals = &steals;
            let init = &init;
            let run = &run;
            let sender = sender.clone();
            scope.spawn(move || {
                let mut state = init(worker);
                loop {
                    // Own deque first (front: the contiguous-block order),
                    // then scan siblings in a fixed rotation and steal from
                    // the back (the far end of *their* block).
                    let mut task = deques[worker].lock().expect("executor deque poisoned").pop_front();
                    if task.is_none() {
                        for offset in 1..workers {
                            let victim = (worker + offset) % workers;
                            let stolen = deques[victim].lock().expect("executor deque poisoned").pop_back();
                            if stolen.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                task = stolen;
                                break;
                            }
                        }
                    }
                    // No task anywhere: all remaining tasks are in flight on
                    // other workers (nothing enqueues after start), so this
                    // worker is done.
                    let Some(task) = task else { break };
                    let result = run(&mut state, task);
                    executed[worker].fetch_add(1, Ordering::Relaxed);
                    // Blocks while the channel holds `capacity` undelivered
                    // results: the consumer's pace bounds the producers'.
                    // Err means the receiver was dropped (consumer panicked);
                    // stop quietly and let the panic propagate from the
                    // caller thread.
                    if sender.send((task, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers own clones; dropping the original lets `recv` end once
        // every worker has finished sending.
        drop(sender);
        for (task, result) in receiver.iter() {
            consume(task, result);
        }
    });

    PoolStats {
        workers,
        executed: executed.iter().map(|count| count.load(Ordering::Relaxed) as usize).collect(),
        steals: steals.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn results_are_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let outcome = run_indexed(threads, 37, |_| (), |(), task| task * 3);
            assert_eq!(outcome.results, (0..37).map(|task| task * 3).collect::<Vec<_>>());
            assert_eq!(outcome.stats.executed.iter().sum::<usize>(), 37);
            assert_eq!(outcome.stats.workers, threads.clamp(1, 37));
        }
    }

    #[test]
    fn zero_tasks_complete_immediately() {
        let outcome = run_indexed(8, 0, |_| (), |(), task| task);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.workers, 1);
        assert_eq!(outcome.stats.steals, 0);
    }

    #[test]
    fn workers_clamp_to_the_task_count() {
        let outcome = run_indexed(16, 3, |_| (), |(), task| task);
        assert_eq!(outcome.stats.workers, 3);
        assert_eq!(outcome.results, vec![0, 1, 2]);
    }

    #[test]
    fn single_worker_needs_no_threads_and_sees_every_task() {
        let outcome = run_indexed(1, 10, |worker| worker, |state, task| (*state, task));
        assert_eq!(outcome.results, (0..10).map(|task| (0, task)).collect::<Vec<_>>());
        assert_eq!(outcome.stats.executed, vec![10]);
        assert_eq!(outcome.stats.steals, 0);
    }

    #[test]
    fn per_worker_state_is_initialised_once_and_reused() {
        // Count init calls; every task records which worker ran it via the
        // state handed to `run`.
        let inits = AtomicUsize::new(0);
        let outcome = run_indexed(
            4,
            64,
            |worker| {
                inits.fetch_add(1, Ordering::Relaxed);
                worker
            },
            |worker, task| (*worker, task),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        for (task, (worker, echoed)) in outcome.results.iter().enumerate() {
            assert!(*worker < 4);
            assert_eq!(*echoed, task);
        }
    }

    #[test]
    fn skewed_workloads_are_stolen_from_the_slow_worker() {
        // Worker 0's initial block is tasks 0..16. Task 0 is held on a latch
        // until some other task of that block has completed. The worker
        // running task 0 is stuck inside it, so the releasing task can only
        // have run on a sibling that stole it: no timing assumption is
        // involved.
        let block_task_done = AtomicBool::new(false);
        let outcome = run_indexed(
            4,
            64,
            |worker| worker,
            |worker, task| {
                if task == 0 {
                    while !block_task_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else if task < 16 {
                    block_task_done.store(true, Ordering::Release);
                }
                (*worker, task)
            },
        );
        assert_eq!(
            outcome.results.iter().map(|&(_, task)| task).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
        assert!(outcome.stats.steals > 0, "expected steals from the held worker's deque");
        // Either task 0 itself was stolen, or worker 0 was held while a
        // sibling ran part of its block: worker 0 never runs the whole block.
        assert!(outcome.results[..16].iter().any(|&(worker, _)| worker != 0), "worker 0 ran its whole block");
    }

    #[test]
    fn stats_report_the_schedule_not_the_results() {
        let outcome = run_indexed(3, 30, |_| (), |(), task| task);
        assert_eq!(outcome.stats.executed.len(), 3);
        assert_eq!(outcome.stats.executed.iter().sum::<usize>(), 30);
    }

    #[test]
    fn streaming_delivers_every_result_exactly_once() {
        for threads in [1, 2, 4, 16] {
            let mut seen = vec![None; 53];
            let stats = run_indexed_streaming(
                threads,
                53,
                3,
                |_| (),
                |(), task| task * 7,
                |task, result| {
                    assert!(seen[task].is_none(), "task {task} delivered twice");
                    seen[task] = Some(result);
                },
            );
            assert_eq!(stats.executed.iter().sum::<usize>(), 53);
            for (task, slot) in seen.iter().enumerate() {
                assert_eq!(*slot, Some(task * 7));
            }
        }
    }

    #[test]
    fn streaming_sequential_path_consumes_in_task_order() {
        let mut order = Vec::new();
        let stats = run_indexed_streaming(1, 9, 1, |_| (), |(), task| task, |task, _| order.push(task));
        assert_eq!(order, (0..9).collect::<Vec<_>>());
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn streaming_folds_to_the_same_totals_as_the_buffered_run() {
        // Index-addressed fold: completion order must not matter.
        let buffered: usize = run_indexed(4, 40, |_| (), |(), task| task * task).results.iter().sum();
        let mut streamed = 0usize;
        run_indexed_streaming(4, 40, 2, |_| (), |(), task| task * task, |_, result| streamed += result);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn streaming_slow_consumer_bounds_in_flight_results() {
        // With capacity 1, at most `workers + 1` results can exist
        // unconsumed (one in the channel, one finished-but-blocked per
        // worker). Track the high-water mark of produced-minus-consumed.
        let produced = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let mut consumed = 0usize;
        let workers = 4;
        run_indexed_streaming(
            workers,
            32,
            1,
            |_| (),
            |(), task| {
                let in_flight = produced.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(in_flight, Ordering::SeqCst);
                task
            },
            |_, _| {
                consumed += 1;
                produced.fetch_sub(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        );
        assert_eq!(consumed, 32);
        // capacity(1) + one blocked send per worker + one mid-run per worker.
        assert!(
            high_water.load(Ordering::SeqCst) <= 1 + 2 * workers,
            "high water {} exceeds the backpressure bound",
            high_water.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn streaming_zero_tasks_complete_immediately() {
        let mut calls = 0;
        let stats = run_indexed_streaming(8, 0, 4, |_| (), |(), task| task, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(stats.workers, 1);
    }
}
