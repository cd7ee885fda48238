//! # reno-par — deterministic order-preserving parallel map
//!
//! One pool loop behind three entry points: apply a function to every item
//! of a slice, fanning the work across scoped worker threads (a
//! work-stealing-free atomic-cursor pool on `std::thread::scope` — no
//! dependencies), and return the results **in item order**. Callers
//! therefore produce byte-identical output whether the map runs on 1 core
//! or 64; `RENO_THREADS` overrides the worker count (`RENO_THREADS=1`
//! forces the sequential path).
//!
//! * [`par_map`] — the plain map. A panicking job no longer poisons or
//!   aborts the pool: every other job still runs to completion, and the
//!   panic of the **lowest-indexed** failing item is re-raised afterwards
//!   with its original payload — deterministic regardless of which worker
//!   hit it first or how many jobs panicked.
//! * [`try_par_map`] — the degradation-tolerant map. Each job's panic is
//!   caught and surfaced as an `Err(`[`JobPanic`]`)` in that job's result
//!   slot instead of being raised at all, so a fleet of independent jobs
//!   (e.g. a design-space sweep's cells) can lose one cell and keep the
//!   rest.
//! * [`run_caught`] — one job on the calling thread with the same panic
//!   isolation, for serial retry ladders.
//!
//! Jobs borrow their inputs and always run to completion; there is no
//! per-job deadline. Callers bound their jobs by simulated work (fuel and
//! cycle caps), which keeps results independent of host speed.
//!
//! Both the experiment harness (`reno-bench`, which fans workload ×
//! configuration sweeps), the sampling engine (`reno-sample`, which fans
//! checkpoint-delimited segments of one sampled run) and the DSE service
//! (`reno-dse`, which fans sweep cells and must survive a panicking cell)
//! are built on it; it lives in its own crate so they can share it without
//! a dependency cycle.
//!
//! ## Thread budget
//!
//! At most [`thread_count`] threads run jobs at once, **the caller
//! included**: [`par_map`] and [`try_par_map`] spawn `thread_count() - 1`
//! helpers and the calling thread works the same queue. Maps do not nest:
//! while a thread runs jobs of a multi-thread map, [`thread_count`]
//! returns 1 there, so a map called from inside a job (e.g. a sampled
//! run's segment fan-out inside a sweep cell) runs inline on that job's
//! thread. A map with a single worker runs on the caller alone and leaves
//! it unmarked, so a map nested in it may still use the whole budget. The
//! budget is tight on purpose: every concurrently live thread gets its own
//! malloc arena, which keeps its freed memory.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while this thread runs pool jobs; maps started here run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread marked as a job thread, restoring the previous
/// mark afterwards (jobs run under `catch_unwind`, so `f` returns normally).
fn as_job<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_JOB.with(|m| m.replace(true));
    let r = f();
    IN_JOB.with(|m| m.set(prev));
    r
}

/// Threads a map started on this thread may run jobs on, the caller
/// included: 1 on a thread running jobs of a multi-thread map (maps do not
/// nest), otherwise the `RENO_THREADS` override if set (>= 1), otherwise
/// the host's available parallelism.
pub fn thread_count() -> usize {
    if IN_JOB.with(Cell::get) {
        return 1;
    }
    if let Ok(v) = std::env::var("RENO_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A captured job panic: the payload of a panic that occurred inside one
/// [`try_par_map`] job, reduced to its human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (`&str` and `String` payloads are extracted;
    /// anything else is reported as an opaque payload).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> JobPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobPanic { message }
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

type Caught<R> = Result<R, Box<dyn Any + Send>>;

/// The shared pool loop: the caller and `workers - 1` scoped helpers pull
/// items off one atomic cursor, all marked as job threads. Every job runs
/// under `catch_unwind`, so one panicking job can never tear down a worker
/// thread (which would abort the whole `thread::scope`) or leave later
/// items unprocessed.
fn pool_run<T, R, F>(items: &[T], f: F) -> Vec<Caught<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        // The caller is the only thread, so it stays unmarked: a map nested
        // in a lone job may still use the whole budget.
        return items
            .iter()
            .map(|it| catch_unwind(AssertUnwindSafe(|| f(it))))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Caught<R>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || {
        as_job(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let r = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
            *slots[i].lock().expect("result slot poisoned") = Some(r);
        })
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Applies `f` to every item, fanning the work across [`thread_count`]
/// threads, the caller included. Results are returned in item order, so
/// callers produce identical output whether this runs on 1 core or 64.
///
/// # Panics
///
/// If any job panics, every *other* job still runs to completion, and the
/// panic of the lowest-indexed panicking item is then re-raised with its
/// original payload. The choice is by item order — never by wall-clock
/// order — so a panicking sweep behaves identically at any thread count.
/// Callers that want to keep the surviving results instead use
/// [`try_par_map`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in pool_run(items, f) {
        match r {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Like [`par_map`], but a panicking job is captured and surfaced as an
/// `Err(`[`JobPanic`]`)` in its own result slot, leaving every other job's
/// result intact — graceful degradation for fleets of independent jobs.
///
/// The panic hook still runs at the point of panic (so default stderr
/// backtraces appear unless the process installed a quieter hook); the
/// payload itself is reduced to its message.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pool_run(items, f)
        .into_iter()
        .map(|r| r.map_err(|p| JobPanic::from_payload(p.as_ref())))
        .collect()
}

/// Runs `f` on the calling thread with the same panic isolation as a
/// [`try_par_map`] job: a panic is caught and reduced to a [`JobPanic`].
/// This is the serial building block for retry ladders — re-run one failed
/// job in isolation without paying for a pool.
pub fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| JobPanic::from_payload(p.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Silences the default panic hook around a block that provokes panics
    /// on purpose (worker panics would otherwise spam test output).
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn par_map_preserves_order_and_results() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = par_map(&items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(par_map(&[] as &[u8], |x| *x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |x| *x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn try_par_map_isolates_panics() {
        let items: Vec<u64> = (0..50).collect();
        let out = quietly(|| {
            try_par_map(&items, |&x| {
                if x % 13 == 5 {
                    panic!("boom at {x}");
                }
                x * 2
            })
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let e = r.as_ref().expect_err("panicking slot is Err");
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().expect("clean slot is Ok"), i as u64 * 2);
            }
        }
    }

    #[test]
    fn try_par_map_string_and_opaque_payloads() {
        let out = quietly(|| {
            try_par_map(&[0u8, 1, 2], |&x| match x {
                0 => std::panic::panic_any(format!("owned {x}")),
                1 => std::panic::panic_any(42u32),
                _ => x,
            })
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "owned 0");
        assert_eq!(
            out[1].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn par_map_reraises_lowest_index_panic_after_completing_the_rest() {
        use std::sync::atomic::AtomicU64;
        let done = AtomicU64::new(0);
        let items: Vec<u64> = (0..40).collect();
        let caught = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, |&x| {
                    if x == 7 || x == 31 {
                        panic!("item {x} failed");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }))
        });
        let payload = caught.expect_err("par_map re-raises");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic payload");
        assert_eq!(
            msg, "item 7 failed",
            "lowest item index wins, not wall-clock order"
        );
        assert_eq!(
            done.load(Ordering::Relaxed),
            38,
            "every non-panicking job still ran"
        );
    }

    /// Holds each of the first `n` jobs to reach it until all `n` have, so
    /// they must be running on `n` distinct threads at once. The cap turns a
    /// pool with fewer threads into a failed assertion instead of a hang.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        while arrived.load(Ordering::SeqCst) < n && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn maps_nested_in_a_par_map_job_run_on_the_job_thread() {
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..8).collect();
        par_map(&outer, |_| {
            let me = std::thread::current().id();
            assert_eq!(thread_count(), 1, "a job thread has no budget to fan out");
            let ids = par_map(&inner, |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == me));
            for r in try_par_map(&inner, |_| std::thread::current().id()) {
                assert_eq!(r.expect("clean inner job"), me);
            }
            assert_eq!(thread_count(), 1, "a nested map leaves the job marked");
        });
    }

    #[test]
    fn top_level_map_runs_on_at_most_thread_count_threads_caller_included() {
        let budget = thread_count();
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let items: Vec<usize> = (0..3 * budget + 1).collect();
        let ids = par_map(&items, |&i| {
            if i < budget {
                rendezvous(&arrived, budget);
            }
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(
            distinct.len() <= budget,
            "{} threads > budget {budget}",
            distinct.len()
        );
        if budget > 1 {
            assert!(distinct.contains(&caller), "the caller works the queue too");
        }
        assert_eq!(thread_count(), budget, "the caller is unmarked afterwards");
    }

    #[test]
    fn caller_is_unmarked_after_every_kind_of_map() {
        let before = thread_count();
        let items: Vec<u64> = (0..32).collect();
        par_map(&items, |x| x + 1);
        assert_eq!(thread_count(), before);
        let _ = try_par_map(&items, |x| x + 1);
        assert_eq!(thread_count(), before);
        let raised =
            quietly(|| catch_unwind(|| par_map(&items, |_| -> u64 { panic!("all fail") })));
        assert!(raised.is_err());
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn a_panic_on_the_callers_thread_is_isolated_and_reraised_by_index() {
        let budget = thread_count();
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..4 * budget).collect();
        // Every job the caller runs panics; the rendezvous makes sure it
        // runs at least one.
        let job = |arrived: &AtomicUsize, i: usize| {
            if i < budget {
                rendezvous(arrived, budget);
            }
            if std::thread::current().id() == caller {
                panic!("item {i} failed");
            }
            i
        };

        let arrived = AtomicUsize::new(0);
        let out = quietly(|| try_par_map(&items, |&i| job(&arrived, i)));
        let failed: Vec<usize> = (0..items.len()).filter(|&i| out[i].is_err()).collect();
        assert!(!failed.is_empty(), "the caller ran a job");
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i),
                Err(p) => assert_eq!(p.message, format!("item {i} failed")),
            }
        }

        let arrived = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let panicked = Mutex::new(Vec::new());
        let caught = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, |&i| {
                    let r = catch_unwind(AssertUnwindSafe(|| job(&arrived, i)));
                    match r {
                        Ok(v) => {
                            done.fetch_add(1, Ordering::SeqCst);
                            v
                        }
                        Err(p) => {
                            panicked.lock().expect("test log").push(i);
                            resume_unwind(p)
                        }
                    }
                })
            }))
        });
        let panicked = panicked.into_inner().expect("test log");
        let lowest = *panicked.iter().min().expect("the caller ran a job");
        let payload = caught.expect_err("par_map re-raises");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("item {lowest} failed").as_str())
        );
        assert_eq!(done.load(Ordering::SeqCst) + panicked.len(), items.len());
        assert_eq!(thread_count(), budget);
    }
}
