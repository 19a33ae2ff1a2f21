//! A tiny std-only scoped worker pool for embarrassingly-parallel
//! hash/verify work.
//!
//! WedgeChain's engines are sans-IO and deterministic: commands in,
//! effects out, time as an argument. The CPU-heavy leaves of that
//! work — page digests, L0 record re-derivation, Schnorr
//! verification — are pure functions over immutable inputs, so they
//! can fan out across threads without the engines noticing. This
//! crate provides the one concurrency primitive those call sites
//! need:
//!
//! * [`Pool::scope`] — run one closure once per lane (the caller is
//!   lane 0), returning only after every lane has run. Worker panics
//!   are surfaced as a panic in the caller.
//! * [`Pool::for_each`] / [`Pool::map`] — chunked dynamic
//!   work-claiming over a slice, with `map` writing results into
//!   per-index slots so the output order always matches the input
//!   order regardless of which lane ran which item.
//!
//! # A scope never waits for a worker to wake
//!
//! Several engines share one pool, so a scope must cost its caller no
//! more than running the work alone would:
//!
//! * **Busy → inline.** Only one scope at a time broadcasts to the
//!   workers. A scope that finds the pool held by another caller (or
//!   is nested inside a running scope) runs every lane itself, on its
//!   own thread, without waiting.
//! * **Withdrawal.** Workers take lane ids in the order they join.
//!   When the caller's lane 0 returns, the caller withdraws the job,
//!   runs every lane no worker has joined yet, and then waits only for
//!   the workers that did join. `map` and `for_each` claim chunks
//!   dynamically, so by then an unjoined lane finds nothing left: a
//!   fan-out too small to outlast a wake-up costs one notify.
//!
//! # Determinism
//!
//! Nothing here introduces nondeterminism: `map` preserves input
//! order, `for_each` is only handed idempotent work (memoizing a
//! `OnceLock` digest computes the same bytes on every lane), and
//! `scope` callers partition work by lane, which runs exactly once
//! whichever thread runs it. Callers never branch on the width:
//! `map` and `for_each` alone run a `Pool::new(1)` pool (also
//! `Pool::default()`) as a plain loop on the caller thread, so every
//! width runs the same caller code, byte-identical by construction.
//! Engines default to width 1, so unit tests (including the exact
//! hash-count assertions, which use thread-local counters) run each
//! fan-out on the test thread; the real-time runtimes size theirs
//! from [`threads_from_env`].
//!
//! # Non-goals
//!
//! No futures, no channels-per-task, no external dependencies. Fixed
//! worker threads are spawned once at construction and joined when
//! the last [`Pool`] clone drops.
//!
//! # Unsafety
//!
//! This is the one workspace crate that cannot be
//! `#![forbid(unsafe_code)]`: the scoped-broadcast design erases the
//! scope closure's lifetime to hand it to long-lived workers. Every
//! unsafe block carries a `SAFETY:` comment; the shared invariant is
//! that [`Pool::scope`] does not return until every worker that joined
//! its job has finished with the erased pointer.

#![deny(unsafe_op_in_unsafe_fn)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::MutexGuard;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased pointer to the scope closure. Only valid for the
/// duration of the [`Pool::scope`] call that installed it; `scope`
/// does not return until every worker that joined has finished
/// running it.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (the bound on `scope`) and outlives
// every dereference: a worker only copies the pointer out of
// `State::job` while it is installed, and counts itself into `active`
// under the same lock; `scope` withdraws the job under that lock and
// then waits for `active == 0`, borrowing the closure the whole time.
unsafe impl Send for Job {}

struct State {
    /// Current broadcast job, while its scope still takes workers.
    job: Option<Job>,
    /// Bumped once per scope so workers can tell a new job from a
    /// spurious wakeup.
    generation: u64,
    /// The lane the next joining worker runs; lanes from here up to
    /// the pool's width are unjoined.
    next_lane: usize,
    /// Workers that joined the current job and are still running it.
    active: usize,
    /// Set by `Drop`; workers exit their loop.
    shutdown: bool,
    /// Set by a worker whose job closure panicked.
    panicked: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for a new generation (or shutdown).
    work_cv: Condvar,
    /// The scope caller waits here for `active == 0`.
    done_cv: Condvar,
    /// Set while one scope owns the workers; a scope that finds it
    /// set runs inline instead of waiting (see [`Claim`]).
    busy: AtomicBool,
    /// Worker thread count (lanes = workers + 1: the caller is lane 0).
    workers: usize,
}

/// Joins the workers when the last `Pool` clone drops. Kept separate
/// from `Inner` because the workers themselves hold `Arc<Inner>`.
struct Shared {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        {
            let mut st = lock_ok(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for h in lock_ok(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// A fixed-size scoped worker pool. Cheap to clone (clones share the
/// same worker threads); a pool of size 1 runs everything inline on
/// the caller thread and spawns nothing.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("lanes", &self.lanes()).finish()
    }
}

impl Default for Pool {
    /// The inline pool: one lane, zero threads.
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// Builds a pool with `threads` lanes total. `threads <= 1` is
    /// the inline pool (no worker threads at all); otherwise
    /// `threads - 1` workers are spawned and the caller thread acts
    /// as the remaining lane during each scope.
    pub fn new(threads: usize) -> Pool {
        let workers = threads.max(1) - 1;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                next_lane: 0,
                active: 0,
                shutdown: false,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            busy: AtomicBool::new(false),
            workers,
        });
        let mut handles = Vec::with_capacity(workers);
        for lane in 1..=workers {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("wedge-pool-{lane}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn wedge-pool worker");
            handles.push(h);
        }
        Pool { shared: Arc::new(Shared { inner, handles: Mutex::new(handles) }) }
    }

    /// Total lanes (worker threads + the participating caller).
    pub fn lanes(&self) -> usize {
        self.shared.inner.workers + 1
    }

    /// True when the pool runs everything inline on the caller
    /// thread (no worker threads).
    fn is_inline(&self) -> bool {
        self.shared.inner.workers == 0
    }

    /// Runs `f(lane)` exactly once per lane (`lane` in `0..lanes()`)
    /// and returns when every lane has finished. The caller runs lane
    /// 0, workers run the lanes they join in time, and the caller runs
    /// the rest; if another scope holds the workers (including an
    /// enclosing scope on the same pool), the caller runs every lane
    /// itself, in order. If a lane panics, `scope` panics once every
    /// lane that started has stopped.
    pub fn scope<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let inner = &*self.shared.inner;
        let lanes = self.lanes();
        let claim = if inner.workers == 0 { None } else { Claim::take(&inner.busy) };
        let Some(_claim) = claim else {
            (0..lanes).for_each(f);
            return;
        };
        {
            let job: &(dyn Fn(usize) + Sync) = &f;
            // SAFETY: lifetime erasure only — `scope` does not return
            // (and so `f` stays alive) until every worker that joined
            // has finished with the pointer; see `Job`.
            let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            let mut st = lock_ok(&inner.state);
            st.job = Some(Job(job as *const _));
            st.generation += 1;
            st.next_lane = 1;
            st.panicked = false;
        }
        inner.work_cv.notify_all();
        // The caller is lane 0: do our share instead of just waiting.
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        // Withdraw the job: lanes no worker has joined yet run here
        // rather than waiting for a worker to wake up for them.
        let unjoined = {
            let mut st = lock_ok(&inner.state);
            st.job = None;
            st.next_lane..lanes
        };
        let caller = caller.and_then(|()| catch_unwind(AssertUnwindSafe(|| unjoined.for_each(&f))));
        let worker_panicked = {
            let mut st = lock_ok(&inner.state);
            while st.active > 0 {
                st = inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.panicked
        };
        match caller {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if worker_panicked => {
                panic!("wedge-pool: a worker lane panicked during scope")
            }
            Ok(()) => {}
        }
    }

    /// Applies `f` to every item, claiming chunks of indices
    /// dynamically across lanes. Item order of *execution* is
    /// unspecified; use this only for idempotent or independent
    /// per-item work (e.g. priming `OnceLock` digest memos).
    pub fn for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        if self.is_inline() || items.len() <= 1 {
            for item in items {
                f(item);
            }
            return;
        }
        let n = items.len();
        let chunk = self.chunk_size(n);
        let next = AtomicUsize::new(0);
        self.scope(|_lane| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for item in &items[start..(start + chunk).min(n)] {
                f(item);
            }
        });
    }

    /// Maps `f` over the items and returns the results **in input
    /// order** — each lane writes results into the slot of the index
    /// it claimed, so the output is independent of scheduling.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(&T) -> R + Sync,
    {
        if self.is_inline() || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let n = items.len();
        let chunk = self.chunk_size(n);
        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        self.scope(|_lane| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for i in start..(start + chunk).min(n) {
                // Each index is claimed by exactly one lane, so the
                // slot is always empty here.
                let _ = slots[i].set(f(&items[i]));
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("wedge-pool: map slot left unfilled"))
            .collect()
    }

    /// Chunk size for dynamic claiming: a few chunks per lane for
    /// load balance, but never less than one item.
    fn chunk_size(&self, n: usize) -> usize {
        (n / (self.lanes() * 4)).max(1)
    }
}

/// Locks ignoring poison: a panicked scope is a supported path (the
/// panic is re-raised in the caller), so pool state must stay usable
/// after one.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The right to hand a job to the workers, held by at most one scope
/// at a time; released on drop, panics included.
struct Claim<'a>(&'a AtomicBool);

impl<'a> Claim<'a> {
    /// Takes the claim if no other scope holds it. Never waits.
    fn take(busy: &'a AtomicBool) -> Option<Claim<'a>> {
        // Acquire pairs with the Release in `drop`: the next holder
        // sees the previous scope's writes to the shared state.
        busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim(busy))
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

fn worker_loop(inner: &Inner) {
    let lanes = inner.workers + 1;
    let mut seen = 0u64;
    loop {
        let (job, lane) = {
            let mut st = lock_ok(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    // Join only a job its scope has not withdrawn yet.
                    if let Some(job) = st.job.as_ref().map(|j| j.0) {
                        if st.next_lane < lanes {
                            let lane = st.next_lane;
                            st.next_lane += 1;
                            st.active += 1;
                            break (job, lane);
                        }
                    }
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: we counted ourselves into `active` while the job was
        // installed, and `scope` keeps the closure alive until `active`
        // hits zero; see `Job`.
        let f = unsafe { &*job };
        let result = catch_unwind(AssertUnwindSafe(|| f(lane)));
        let mut st = lock_ok(&inner.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            inner.done_cv.notify_all();
        }
    }
}

/// Pool size from `WEDGE_POOL_THREADS`, else the host's available
/// parallelism (1 if unknown); clamped to 1..=64 either way.
pub fn threads_from_env() -> usize {
    std::env::var("WEDGE_POOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, 64)
}

/// CPU time consumed by the calling thread, in nanoseconds. Unlike a
/// wall clock this only advances while the thread is scheduled, so
/// per-lane measurements stay meaningful on hosts with fewer cores
/// than lanes (the bench uses it to report the critical-path length
/// of a parallel phase: the busiest lane's CPU time).
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec`-layout struct and
    // the clock id is a Linux constant; libc is always linked by std.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
}

/// Fallback for non-Linux hosts: a monotonic wall clock (per-thread
/// CPU time is not portably available from std).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_pool_spawns_nothing_and_runs_on_caller() {
        let pool = Pool::new(1);
        assert!(pool.is_inline());
        assert_eq!(pool.lanes(), 1);
        let caller = std::thread::current().id();
        pool.scope(|lane| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(lane, 0);
        });
        let sum = AtomicU64::new(0);
        pool.for_each(&[1u64, 2, 3], |x| {
            assert_eq!(std::thread::current().id(), caller);
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn map_preserves_input_order_at_every_size() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.map(&items, |x| x * x);
            assert_eq!(got, expect, "order broken at {threads} threads");
        }
    }

    #[test]
    fn for_each_visits_every_item_exactly_once() {
        let hits: Vec<AtomicU64> = (0..777).map(|_| AtomicU64::new(0)).collect();
        let idx: Vec<usize> = (0..777).collect();
        let pool = Pool::new(4);
        pool.for_each(&idx, |i| {
            hits[*i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scope_runs_every_lane() {
        // Tiny scopes end before most workers wake, so the caller
        // withdraws and runs the unjoined lanes: each lane must still
        // run exactly once per scope, whoever runs it.
        let pool = Pool::new(4);
        assert_eq!(pool.lanes(), 4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for round in 0..10_000 {
            pool.scope(|lane| {
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
            for (lane, h) in hits.iter().enumerate() {
                assert_eq!(h.swap(0, Ordering::Relaxed), 1, "lane {lane} in scope {round}");
            }
        }
    }

    #[test]
    fn scope_on_a_busy_pool_runs_inline_without_waiting() {
        let pool = Pool::new(2);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let long = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.scope(|lane| {
                    if lane == 0 {
                        started_tx.send(()).expect("test thread waits for the start");
                        let _ = release_rx.lock().expect("lane 0 alone locks").recv();
                    }
                });
            })
        };
        started_rx.recv().expect("long scope started");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let short = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let me = std::thread::current().id();
                let items: Vec<u64> = (0..100).collect();
                let ran_here = pool.map(&items, |_| std::thread::current().id() == me);
                done_tx.send(ran_here.iter().all(|&here| here)).expect("test thread waits");
            })
        };
        // The long scope is still running; a map that waited for it
        // would never answer.
        let inline = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("map on a busy pool waited for the other scope");
        assert!(inline, "map on a busy pool left its thread");
        release_tx.send(()).expect("long scope waits for release");
        long.join().unwrap();
        short.join().unwrap();
    }

    #[test]
    fn nested_scope_runs_inline() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..50).collect();
        let sums = pool.map(&items, |x| pool.map(&items, |y| x * y).iter().sum::<u64>());
        assert_eq!(sums[2], 2 * 49 * 50 / 2);
    }

    #[test]
    fn pool_is_reusable_across_scopes_and_clones() {
        let pool = Pool::new(3);
        let clone = pool.clone();
        for round in 0..50u64 {
            let sum = AtomicU64::new(0);
            let items: Vec<u64> = (0..round + 1).collect();
            clone.for_each(&items, |x| {
                sum.fetch_add(*x, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (round + 1) * round / 2);
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller_and_pool_survives() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(&items, |i| {
                if *i == 63 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable after a panicked scope.
        let ok = pool.map(&items, |i| i + 1);
        assert_eq!(ok.len(), 100);
        assert_eq!(ok[99], 100);
    }

    #[test]
    fn concurrent_scopes_from_clones_serialize_safely() {
        let pool = Pool::new(4);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let p = pool.clone();
            joins.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..500).collect();
                let got = p.map(&items, |x| x.wrapping_mul(31));
                assert_eq!(got[499], 499u64.wrapping_mul(31));
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn env_sizing_clamps() {
        // Not testing the env var itself (process-global), just the
        // clamp arithmetic via Pool::new.
        assert_eq!(Pool::new(0).lanes(), 1);
        assert_eq!(Pool::new(64).lanes(), 64);
    }

    #[test]
    fn thread_cpu_clock_advances_under_work() {
        let t0 = thread_cpu_ns();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert_ne!(acc, 1); // keep the loop alive
        assert!(thread_cpu_ns() > t0);
    }
}
