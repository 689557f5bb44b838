//! Work-stealing in-process scheduler for sweep cells.
//!
//! The sweep matrix used to scale across cores two ways: `VP_THREADS`
//! workers popping one shared LIFO stack under a single mutex, and
//! `VP_SHARD=i/n` spawning whole extra *processes* that each re-warm their
//! own in-memory `TraceStore`. This module replaces the first and
//! complements the second: one process runs `jobs` workers over a shared
//! **injector deque** of cell indices, each worker keeps a small **local
//! deque** it refills in grain-sized batches, and an idle worker **steals**
//! the back half of a victim's local deque before it ever sleeps. All
//! workers share one process-wide `TraceStore` (memory + disk tier), so a
//! workload is captured once and replayed everywhere regardless of which
//! worker first touched it.
//!
//! The deques are short mutex-guarded `VecDeque`s rather than lock-free
//! Chase-Lev arrays: sweep cells are milliseconds-to-seconds heavy, so
//! queue operations are nanoseconds of noise and the interesting property
//! is the *balancing policy* (batched injector refills + steal-half), not
//! lock-freedom. Owners take from the front of their deque, thieves from
//! the back, so a thief grabs the work its victim would reach last.
//!
//! Scheduling never affects results: tasks are indexed, outputs land in
//! their input slot, and callers render from the ordered slots — a
//! `--jobs 8` sweep report is byte-identical to `--jobs 1` (pinned by
//! `tests/jobs_determinism.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Per-worker telemetry of one scheduler run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Of those, tasks acquired by stealing from another worker's deque.
    pub stolen: u64,
    /// Wall time this worker spent inside task bodies, in milliseconds.
    pub busy_ms: f64,
}

/// Telemetry of one `run_stealing` invocation.
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// Worker count actually used (`jobs.min(tasks)`).
    pub jobs: usize,
    /// Total tasks executed.
    pub tasks: usize,
    /// Injector refill batch size.
    pub grain: usize,
    /// Total tasks that moved between workers via stealing.
    pub steals: u64,
    /// Wall time of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Per-worker breakdown, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl SchedStats {
    /// A worker's busy fraction of the run's wall time, in `[0, 1]`.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        (self.workers[worker].busy_ms / self.wall_ms).clamp(0.0, 1.0)
    }

    /// Mean utilization across workers — the "how saturated was the
    /// machine" headline number.
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.workers.len()).map(|w| self.utilization(w)).sum();
        sum / self.workers.len() as f64
    }
}

/// Injector refill batch size: large enough that workers go back to the
/// shared deque rarely, small enough that a batch left on a slow worker's
/// deque is worth stealing.
fn grain_for(tasks: usize, jobs: usize) -> usize {
    (tasks / (jobs * 4)).max(1)
}

struct Queues {
    injector: Mutex<VecDeque<usize>>,
    locals: Vec<Mutex<VecDeque<usize>>>,
    grain: usize,
    /// Tasks not yet *completed* (not merely dequeued) — the termination
    /// condition. A worker only exits on `remaining == 0`, never on empty
    /// queues, because another worker's local deque may still hold work.
    remaining: AtomicUsize,
    /// Bumped after every change that can make work runnable or end the
    /// run: a batch landing on a local deque, a task completing.
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl Queues {
    /// All `tasks` on the injector, `jobs` empty local deques.
    fn new(tasks: usize, jobs: usize) -> Queues {
        Queues {
            injector: Mutex::new((0..tasks).collect()),
            locals: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
            grain: grain_for(tasks, jobs),
            remaining: AtomicUsize::new(tasks),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// The current epoch; read it *before* looking for work.
    fn epoch(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes every idle worker after a change they may have missed.
    fn bump(&self) {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.wake.notify_all();
    }

    /// Blocks an idle worker until the epoch moves past `seen`. A refill
    /// leaves its batch unqueued between the injector and the refiller's
    /// deque, so a worker can find every queue empty while work remains;
    /// the refiller bumps the epoch once the batch is stealable, and an
    /// epoch read before the search never misses that bump.
    fn wait_past(&self, seen: u64) {
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        while *epoch == seen {
            epoch = self.wake.wait(epoch).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Fetches the next task for `worker`: own deque front, else a
    /// grain-sized refill from the injector, else the back half of the
    /// first non-empty victim deque. `None` means nothing was runnable
    /// *right now* — not that the run is finished.
    fn next(&self, worker: usize, stolen: &mut bool) -> Option<usize> {
        *stolen = false;
        if let Ok(mut own) = self.locals[worker].lock() {
            if let Some(t) = own.pop_front() {
                return Some(t);
            }
        }
        // Refill: take `grain` tasks from the injector, run the first,
        // queue the rest locally (where they remain stealable).
        if let Ok(mut inj) = self.injector.lock() {
            if let Some(t) = inj.pop_front() {
                let batch: Vec<usize> = (1..self.grain).filter_map(|_| inj.pop_front()).collect();
                drop(inj);
                if let Ok(mut own) = self.locals[worker].lock() {
                    own.extend(batch);
                }
                self.bump();
                return Some(t);
            }
        }
        // Steal: scan the other workers round-robin from our right-hand
        // neighbour, taking the back half of the first non-empty deque.
        // Victim and own deque are never locked at once.
        let n = self.locals.len();
        for v in (worker + 1..n).chain(0..worker) {
            let Ok(mut victim) = self.locals[v].lock() else {
                continue;
            };
            let len = victim.len();
            if len == 0 {
                continue;
            }
            let mut grabbed = victim.split_off(len - len.div_ceil(2));
            drop(victim);
            let first = grabbed.pop_front();
            if let Ok(mut own) = self.locals[worker].lock() {
                own.extend(grabbed);
            }
            self.bump();
            *stolen = true;
            return first;
        }
        None
    }
}

/// Runs `tasks` task indices on `jobs` workers over a shared injector
/// deque, returning each task's output in its input slot plus the run's
/// [`SchedStats`].
///
/// `exec` must be panic-free (callers wrap task bodies in
/// `catch_unwind`); a slot is `None` only if `exec` itself was never
/// reached, which does not happen under normal termination.
pub(crate) fn run_stealing<T: Send>(
    jobs: usize,
    tasks: usize,
    exec: impl Fn(usize) -> T + Sync,
) -> (Vec<Option<T>>, SchedStats) {
    let jobs = jobs.clamp(1, tasks.max(1));
    let queues = Queues::new(tasks, jobs);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
    let executed: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let stolen_ctr: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let busy_ns: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();

    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let results = &results;
            let executed = &executed;
            let stolen_ctr = &stolen_ctr;
            let busy_ns = &busy_ns;
            let exec = &exec;
            s.spawn(move || {
                let mut was_stolen = false;
                loop {
                    let seen = queues.epoch();
                    match queues.next(w, &mut was_stolen) {
                        Some(t) => {
                            let t0 = Instant::now();
                            let out = exec(t);
                            busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            executed[w].fetch_add(1, Ordering::Relaxed);
                            if was_stolen {
                                stolen_ctr[w].fetch_add(1, Ordering::Relaxed);
                            }
                            if let Ok(mut r) = results.lock() {
                                r[t] = Some(out);
                            }
                            queues.remaining.fetch_sub(1, Ordering::Release);
                            queues.bump();
                        }
                        None => {
                            if queues.remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            // Another worker still holds queued or running
                            // work: sleep until it publishes a batch or
                            // finishes a task.
                            queues.wait_past(seen);
                        }
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let workers: Vec<WorkerStats> = (0..jobs)
        .map(|w| WorkerStats {
            executed: executed[w].load(Ordering::Relaxed),
            stolen: stolen_ctr[w].load(Ordering::Relaxed),
            busy_ms: busy_ns[w].load(Ordering::Relaxed) as f64 / 1e6,
        })
        .collect();
    let stats = SchedStats {
        jobs,
        tasks,
        grain: queues.grain,
        steals: workers.iter().map(|w| w.stolen).sum(),
        wall_ms,
        workers,
    };
    let outs = results.into_inner().unwrap_or_else(|e| e.into_inner());
    (outs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_every_task_exactly_once_in_slot_order() {
        for jobs in [1, 2, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let (out, stats) = run_stealing(jobs, 100, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
                t * 3
            });
            assert_eq!(stats.jobs, jobs.min(100));
            assert_eq!(stats.tasks, 100);
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {t} at jobs={jobs}");
            }
            let vals: Vec<usize> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(vals, (0..100).map(|t| t * 3).collect::<Vec<_>>());
            assert_eq!(
                stats.workers.iter().map(|w| w.executed).sum::<u64>(),
                100,
                "per-worker executed counts cover the task set"
            );
        }
    }

    #[test]
    fn zero_and_tiny_task_counts_terminate() {
        let (out, stats) = run_stealing::<usize>(8, 0, |t| t);
        assert!(out.is_empty());
        assert_eq!(stats.steals, 0);
        let (out, stats) = run_stealing(8, 1, |t| t + 1);
        assert_eq!(out, vec![Some(1)]);
        assert_eq!(stats.jobs, 1, "workers are capped at the task count");
    }

    #[test]
    fn imbalanced_tasks_provoke_steals() {
        // Worker grain for 64 tasks on 4 workers is 4, so a worker that
        // draws the one slow task strands its queued batch — which the
        // idle workers must steal to finish early. Spin-wait (not sleep)
        // keeps the test clock-speed independent.
        let slow_gate = AtomicUsize::new(0);
        let (_, stats) = run_stealing(4, 64, |t| {
            if t == 0 {
                while slow_gate.load(Ordering::Relaxed) < 63 {
                    std::thread::yield_now();
                }
            } else {
                slow_gate.fetch_add(1, Ordering::Relaxed);
            }
        });
        // All other workers finishing while worker-of-task-0 blocks means
        // its queued grain-mates were either stolen or the injector fed
        // everyone else; either way the run terminates — steals are
        // opportunistic, so only sanity-check the accounting.
        assert_eq!(
            stats.steals,
            stats.workers.iter().map(|w| w.stolen).sum::<u64>()
        );
        assert!(stats.mean_utilization() <= 1.0);
    }

    #[test]
    fn idle_worker_sleeps_until_a_refill_publishes_its_batch() {
        // Worker 0 has taken a batch off the injector but not yet queued
        // it: worker 1 finds nothing to run while work remains, and must
        // wake once the batch lands, not miss it.
        let q = Queues::new(4, 2);
        let batch: Vec<usize> = q.injector.lock().unwrap().drain(..).collect();
        let (searched, idle_found_nothing) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let idle = s.spawn(|| {
                let seen = q.epoch();
                let mut stolen = false;
                assert_eq!(q.next(1, &mut stolen), None);
                searched.send(()).unwrap();
                q.wait_past(seen);
                q.next(1, &mut stolen).map(|t| (t, stolen))
            });
            idle_found_nothing.recv().unwrap();
            q.locals[0].lock().unwrap().extend(batch);
            q.bump();
            assert_eq!(
                idle.join().unwrap(),
                Some((2, true)),
                "steals the back half"
            );
        });
    }

    #[test]
    fn blocking_workers_always_terminate() {
        // Many short runs with more workers than grain-sized batches
        // exercise every refill/steal/finish interleaving the box allows.
        for round in 0..200 {
            let tasks = 1 + round % 9;
            let (out, stats) = run_stealing(3, tasks, |t| t + round);
            assert_eq!(
                out.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
                (0..tasks).map(|t| t + round).collect::<Vec<_>>()
            );
            assert_eq!(stats.tasks, tasks);
        }
    }

    /// The ISSUE's shared-store stress scenario: N workers of the stealing
    /// scheduler all hit one `TraceStore` with *identical* cells at the
    /// same instant (a barrier inside the task bodies guarantees true
    /// concurrency). Single-flight must elect exactly one live capture —
    /// one `trace_store.captures` bump across every per-cell scope — and
    /// every waiter must replay the leader's capture to identical stats.
    #[test]
    fn identical_cells_share_one_single_flight_capture() {
        use std::sync::Barrier;
        use vacuum_packing::exec::{InstCounts, RunConfig, TraceKey, TraceStore};
        use vacuum_packing::program::Layout;

        const WORKERS: usize = 8;
        let workload = vacuum_packing::workloads::suite(1).remove(0);
        let layout = Layout::natural(&workload.program);
        let cfg = RunConfig::default();
        let key = TraceKey::new(
            "steal-single-flight-stress",
            &workload.program,
            &layout,
            &cfg,
        );
        let store = TraceStore::with_capacity_mb(64);
        let barrier = Barrier::new(WORKERS);

        let (outs, stats) = run_stealing(WORKERS, WORKERS, |_| {
            vp_trace::scoped(|| {
                barrier.wait();
                let mut counts = InstCounts::new();
                let stats = store
                    .obtain(key.clone(), &workload.program, &layout, &cfg)
                    .expect("workload runs")
                    .replay(&mut counts);
                (stats.retired, counts.total, counts.cond_branches)
            })
        });
        assert_eq!(stats.jobs, WORKERS, "barrier requires all workers live");

        let outs: Vec<_> = outs.into_iter().map(Option::unwrap).collect();
        let captures: u64 = outs
            .iter()
            .map(|(_, report)| report.counter("trace_store.captures"))
            .sum();
        assert_eq!(
            captures, 1,
            "exactly one worker may capture live; the rest must wait on its flight"
        );
        let replays: u64 = outs
            .iter()
            .map(|(_, report)| report.counter("trace_store.replays"))
            .sum();
        assert_eq!(
            replays, WORKERS as u64,
            "every worker, the leader included, replays the one shared capture"
        );
        let (first, _) = &outs[0];
        assert!(first.0 > 0, "the workload retired instructions");
        for (vals, _) in &outs {
            assert_eq!(vals, first, "replayed cells see bit-identical streams");
        }
    }

    #[test]
    fn grain_scales_with_matrix_and_workers() {
        assert_eq!(grain_for(84, 4), 5);
        assert_eq!(grain_for(4, 4), 1);
        assert_eq!(grain_for(1000, 1), 250);
        assert_eq!(grain_for(0, 8), 1);
    }
}
