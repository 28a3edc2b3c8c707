//! Zero-dependency worker-pool execution layer.
//!
//! The verification cascade is embarrassingly parallel at the obligation
//! level: per-property BMC runs, per-stage cascade checks, and
//! per-configuration LPV checks share no mutable state. This crate
//! provides the pool those obligations fan out on — an order-preserving
//! parallel [`map`], its panic-isolating twin [`map_supervised`], and the
//! deficit-round-robin [`DrrScheduler`] the batch service drains tenants
//! with — built on `std::thread::scope` and channels only (the workspace
//! builds offline, so no rayon/crossbeam).
//!
//! Determinism contract: [`map`] returns results in *item order*
//! regardless of completion order, so a caller that merges per-obligation
//! outputs sequentially observes exactly the sequential schedule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fair;

pub use fair::DrrScheduler;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning. The worker-pool queue and
/// result slots hold plain data (no invariants can be half-updated by a
/// panicking job, because jobs never mutate them mid-panic), so a
/// poisoned lock only means "some thread panicked while holding it" —
/// the data itself is still consistent and the pool must stay usable.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload as a message. Panics raised by
/// `panic!("…")` carry `String`/`&str` payloads and render exactly;
/// anything else (`panic_any`) gets a fixed placeholder, so the rendering
/// is deterministic regardless of the payload type.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked at …" report for panics whose message contains the
/// marker `injected panic`, delegating every other panic to the
/// previously installed hook. The workspace's fault injectors (the
/// obligation driver's test-only fault script in `symbad-core`, the
/// `supervise` fuzz family, this crate's pool tests) all panic with that
/// marker, and each intentional panic would otherwise spam the
/// captured-output-free stderr of the worker threads that catch them.
/// Real bugs panic without the marker and keep their full report.
pub fn silence_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected panic") {
                previous(info);
            }
        }));
    });
}

/// How one job of a supervised [`map_supervised`] batch ended.
///
/// The supervised pool never aborts the batch: a panicking job is caught
/// with `catch_unwind` and reported as [`JobOutcome::Panicked`] in its
/// slot while every other job runs to completion. `Missing` is the typed
/// replacement for the old `expect("worker delivered every slot")`
/// double-panic: it marks a slot no worker delivered (unreachable under
/// normal operation, but a report instead of an abort if it ever fires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<R> {
    /// The job returned normally.
    Ok(R),
    /// The job panicked; `message` is the deterministic panic payload
    /// rendering of [`panic_message`].
    Panicked {
        /// The rendered panic payload.
        message: String,
    },
    /// No worker delivered a result for this slot.
    Missing,
}

impl<R> JobOutcome<R> {
    /// The result, when the job completed normally.
    pub fn ok(self) -> Option<R> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the job panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, JobOutcome::Panicked { .. })
    }

    /// The panic message, when the job panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            JobOutcome::Panicked { message } => Some(message),
            _ => None,
        }
    }
}

/// Scheduling facts observed while one batch drained: which worker ran
/// which job, and how deep the shared queue was at each dispatch.
///
/// This is *timing-lane* material for the observability journal — it is
/// honest about the actual schedule and therefore differs run to run and
/// across worker counts. Nothing here may feed back into verdicts or the
/// deterministic telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRunStats {
    /// Worker threads serving the batch (1 for the sequential path).
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Per job (item order): the worker index that executed it. `None`
    /// only for slots no worker delivered.
    pub worker_for_job: Vec<Option<usize>>,
    /// Queue length observed right after each dispatch, in completion
    /// order.
    pub queue_depth_samples: Vec<usize>,
}

impl PoolRunStats {
    /// Deepest backlog observed while draining (counting the job being
    /// dispatched): the whole batch for a non-empty queue, 0 otherwise.
    pub fn peak_depth(&self) -> usize {
        self.queue_depth_samples
            .iter()
            .map(|d| d + 1)
            .max()
            .unwrap_or(0)
    }

    /// Jobs executed per worker index (occupancy).
    pub fn jobs_per_worker(&self) -> Vec<usize> {
        let mut per = vec![0usize; self.workers];
        for w in self.worker_for_job.iter().flatten() {
            if let Some(slot) = per.get_mut(*w) {
                *slot += 1;
            }
        }
        per
    }
}

/// Deterministic effort budget shared by the verification engines.
///
/// Budgets are *effort*-based — SAT conflicts/decisions, BDD nodes —
/// never wall-clock: an engine that runs out returns a deterministic
/// "budget exhausted" verdict that is bit-identical across machines,
/// schedules, and worker counts. `None` in a field means that axis is
/// unbounded. The caps apply **per engine call** (e.g. per BMC depth's
/// SAT query), not across a whole obligation, so deepening an unrolling
/// degrades at a deterministic depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effort {
    /// Cap on SAT conflicts per solve call.
    pub sat_conflicts: Option<u64>,
    /// Cap on SAT decisions per solve call.
    pub sat_decisions: Option<u64>,
    /// Cap on live BDD nodes per manager.
    pub bdd_nodes: Option<u64>,
}

impl Effort {
    /// No caps on any axis: supervision stays idle and every engine
    /// behaves exactly as its unbudgeted entry point.
    pub fn unbounded() -> Self {
        Effort::default()
    }

    /// A proportional budget: `scale` conflicts, `16 × scale` decisions,
    /// `256 × scale` BDD nodes.
    pub fn bounded(scale: u64) -> Self {
        Effort {
            sat_conflicts: Some(scale),
            sat_decisions: Some(scale.saturating_mul(16)),
            bdd_nodes: Some(scale.saturating_mul(256)),
        }
    }

    /// Whether every axis is uncapped.
    pub fn is_unbounded(&self) -> bool {
        *self == Effort::default()
    }
}

/// How a flow or engine schedules its independent obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One obligation at a time, on the calling thread. The reference
    /// schedule: parallel modes must reproduce its outputs bit for bit.
    #[default]
    Sequential,
    /// A pool of `workers` OS threads. `workers <= 1` degenerates to
    /// the sequential schedule.
    Parallel {
        /// Number of worker threads.
        workers: usize,
    },
}

impl ExecMode {
    /// Effective worker count (always at least 1).
    pub fn workers(&self) -> usize {
        match *self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel { workers } => workers.max(1),
        }
    }

    /// `0` or `1` workers mean sequential; more mean parallel.
    pub fn from_workers(workers: usize) -> Self {
        if workers <= 1 {
            ExecMode::Sequential
        } else {
            ExecMode::Parallel { workers }
        }
    }
}

/// Applies `f` to every item and returns the results **in item order**.
///
/// Sequential mode (and `workers <= 1`) runs on the calling thread.
/// Parallel mode spawns up to `workers` scoped threads that pull
/// `(index, item)` pairs from a shared queue; results are slotted back by
/// index, so the output order is independent of the completion order.
/// `f` receives the item index alongside the item.
///
/// Panics in a worker propagate to the caller (the scope joins all
/// threads before returning).
pub fn map<T, R, F>(mode: ExecMode, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = mode.workers().min(items.len().max(1));
    if workers <= 1 {
        // Run on the calling thread with no catch_unwind wrapper, so a
        // sequential panic propagates with its original payload.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let outcomes = map_outcomes(workers, items, &f);
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            JobOutcome::Ok(r) => r,
            // Re-panic with the message alone (no wrapper text), so the
            // payload a caller's catch_unwind observes renders the same
            // whether the job ran sequentially or on a worker. The first
            // panicked slot in *item order* wins, matching the item the
            // sequential schedule would have panicked on.
            JobOutcome::Panicked { message } => panic!("{}", message),
            JobOutcome::Missing => panic!("worker delivered no result for a map slot"),
        })
        .collect()
}

/// [`map`] with panic isolation: every job runs under `catch_unwind` and
/// reports a typed [`JobOutcome`] in its slot. One panicking job cannot
/// abort the batch, poison the shared queue, or take down the scope —
/// the pool drains the remaining jobs and stays usable.
///
/// Outcomes — including panic messages — are bit-identical across worker
/// counts as long as `f` itself is deterministic per item: each job's
/// fate depends only on its `(index, item)` pair, never on the schedule.
pub fn map_supervised<T, R, F>(mode: ExecMode, items: Vec<T>, f: F) -> Vec<JobOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = mode.workers().min(items.len().max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_caught(&f, i, item))
            .collect();
    }
    map_outcomes(workers, items, &f)
}

/// [`map_supervised`] that also reports the batch's [`PoolRunStats`]
/// (worker-per-job attribution and queue depths) for the observability
/// journal's timing lane. The outcome vector is exactly what
/// [`map_supervised`] would return — stats collection adds no
/// synchronization beyond the channel sends the pool already performs.
pub fn map_supervised_stats<T, R, F>(
    mode: ExecMode,
    items: Vec<T>,
    f: F,
) -> (Vec<JobOutcome<R>>, PoolRunStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = mode.workers().min(n.max(1));
    if workers <= 1 {
        let outcomes: Vec<JobOutcome<R>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_caught(&f, i, item))
            .collect();
        return (
            outcomes,
            PoolRunStats {
                workers: 1,
                jobs: n,
                worker_for_job: vec![Some(0); n],
                // The calling thread dispatches in item order: after the
                // i-th dispatch, n-1-i jobs remain.
                queue_depth_samples: (0..n).rev().collect(),
            },
        );
    }
    map_outcomes_stats(workers, items, &f)
}

/// Runs one job under `catch_unwind`, converting a panic into its typed
/// outcome.
fn run_caught<T, R, F>(f: &F, idx: usize, item: T) -> JobOutcome<R>
where
    F: Fn(usize, T) -> R,
{
    match catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
        Ok(r) => JobOutcome::Ok(r),
        Err(payload) => JobOutcome::Panicked {
            message: panic_message(payload),
        },
    }
}

/// The shared worker-pool body: `workers >= 2` scoped threads pull
/// `(index, item)` jobs from a poison-recovering queue, run each under
/// `catch_unwind`, and slot outcomes back by index.
fn map_outcomes<T, R, F>(workers: usize, items: Vec<T>, f: &F) -> Vec<JobOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_outcomes_stats(workers, items, f).0
}

/// [`map_outcomes`] plus scheduling observation: each worker stamps its
/// index and the post-dispatch queue depth onto the result message it was
/// already sending, and the coordinator folds those into [`PoolRunStats`].
fn map_outcomes_stats<T, R, F>(
    workers: usize,
    items: Vec<T>,
    f: &F,
) -> (Vec<JobOutcome<R>>, PoolRunStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, usize, usize, JobOutcome<R>)>();
    let mut slots: Vec<JobOutcome<R>> = (0..n).map(|_| JobOutcome::Missing).collect();
    let mut stats = PoolRunStats {
        workers,
        jobs: n,
        worker_for_job: vec![None; n],
        queue_depth_samples: Vec::with_capacity(n),
    };

    std::thread::scope(|scope| {
        for worker_id in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || loop {
                let (job, depth) = {
                    let mut q = lock_recover(queue);
                    let job = q.pop_front();
                    (job, q.len())
                };
                let Some((idx, item)) = job else { break };
                let out = run_caught(f, idx, item);
                if tx.send((idx, worker_id, depth, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (idx, worker_id, depth, out) in rx {
            slots[idx] = out;
            stats.worker_for_job[idx] = Some(worker_id);
            stats.queue_depth_samples.push(depth);
        }
    });

    (slots, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_worker_counts() {
        assert_eq!(ExecMode::Sequential.workers(), 1);
        assert_eq!(ExecMode::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(ExecMode::Parallel { workers: 4 }.workers(), 4);
        assert_eq!(ExecMode::from_workers(1), ExecMode::Sequential);
        assert_eq!(ExecMode::from_workers(8), ExecMode::Parallel { workers: 8 });
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = map(ExecMode::Sequential, items.clone(), |i, x| {
            (i as u64) * 1000 + x * x
        });
        for workers in [2, 3, 8] {
            let par = map(ExecMode::Parallel { workers }, items.clone(), |i, x| {
                // Stagger completion so late items often finish first.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                (i as u64) * 1000 + x * x
            });
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(map(ExecMode::Parallel { workers: 4 }, empty, |_, x: u32| x).is_empty());
        assert_eq!(
            map(ExecMode::Parallel { workers: 4 }, vec![9], |i, x| (i, x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn effort_axes_and_constructors() {
        assert!(Effort::unbounded().is_unbounded());
        let e = Effort::bounded(10);
        assert!(!e.is_unbounded());
        assert_eq!(e.sat_conflicts, Some(10));
        assert_eq!(e.sat_decisions, Some(160));
        assert_eq!(e.bdd_nodes, Some(2560));
        let sat_only = Effort {
            sat_decisions: Some(1),
            ..Effort::unbounded()
        };
        assert!(!sat_only.is_unbounded());
    }

    #[test]
    fn supervised_map_isolates_panics_and_keeps_the_pool_usable() {
        silence_injected_panics();
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<JobOutcome<u64>> = items
            .iter()
            .map(|&x| {
                if x % 13 == 5 {
                    JobOutcome::Panicked {
                        message: format!("injected panic on item {x}"),
                    }
                } else {
                    JobOutcome::Ok(x * x)
                }
            })
            .collect();
        for workers in [1, 2, 3, 8] {
            let got = map_supervised(ExecMode::from_workers(workers), items.clone(), |_, x| {
                if x % 13 == 5 {
                    panic!("injected panic on item {x}");
                }
                x * x
            });
            assert_eq!(got, expect, "workers={workers}");
            // Regression: the panicking batch must leave the pool layer
            // usable — a plain map right after it still completes.
            let follow_up = map(ExecMode::from_workers(workers), items.clone(), |_, x| x + 1);
            assert_eq!(follow_up, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn plain_map_repanics_with_the_original_message() {
        silence_injected_panics();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(
                ExecMode::Parallel { workers: 4 },
                vec![0u32, 1, 2, 3],
                |_, x| {
                    if x >= 1 {
                        panic!("injected panic on item {x}");
                    }
                    x
                },
            )
        }));
        let message = panic_message(caught.expect_err("map propagates the panic"));
        // First panicked slot in item order, regardless of completion order.
        assert_eq!(message, "injected panic on item 1");
    }

    #[test]
    fn job_outcome_accessors() {
        let ok: JobOutcome<u8> = JobOutcome::Ok(7);
        assert_eq!(ok.clone().ok(), Some(7));
        assert!(!ok.is_panicked());
        let bad: JobOutcome<u8> = JobOutcome::Panicked {
            message: "m".into(),
        };
        assert!(bad.is_panicked());
        assert_eq!(bad.panic_message(), Some("m"));
        assert_eq!(bad.ok(), None);
        assert_eq!(JobOutcome::<u8>::Missing.ok(), None);
    }

    #[test]
    fn supervised_stats_attribute_every_job() {
        let items: Vec<u64> = (0..20).collect();
        // Sequential: everything runs on worker 0, queue drains in order.
        let (outs, stats) = map_supervised_stats(ExecMode::Sequential, items.clone(), |_, x| x);
        assert_eq!(outs.len(), 20);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.jobs, 20);
        assert!(stats.worker_for_job.iter().all(|w| *w == Some(0)));
        assert_eq!(stats.queue_depth_samples.first(), Some(&19));
        assert_eq!(stats.queue_depth_samples.last(), Some(&0));
        assert_eq!(stats.peak_depth(), 20);
        assert_eq!(stats.jobs_per_worker(), vec![20]);

        // Parallel: outcomes match, every job is attributed to a real
        // worker, and occupancy sums to the job count.
        let (pouts, pstats) =
            map_supervised_stats(ExecMode::Parallel { workers: 3 }, items, |_, x| x);
        assert_eq!(pouts, outs);
        assert_eq!(pstats.workers, 3);
        assert!(pstats
            .worker_for_job
            .iter()
            .all(|w| matches!(w, Some(id) if *id < 3)));
        assert_eq!(pstats.queue_depth_samples.len(), 20);
        assert_eq!(pstats.jobs_per_worker().iter().sum::<usize>(), 20);
        assert_eq!(pstats.peak_depth(), 20);

        // Empty batch: no samples, zero peak.
        let (eouts, estats) = map_supervised_stats(
            ExecMode::Parallel { workers: 2 },
            Vec::<u64>::new(),
            |_, x| x,
        );
        assert!(eouts.is_empty());
        assert_eq!(estats.peak_depth(), 0);
    }
}
