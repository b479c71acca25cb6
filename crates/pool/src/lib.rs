//! `lrd-pool` — a small fixed-size scoped thread pool.
//!
//! The solver rebuilds two data-independent bounding chains at every
//! grid refinement and the figure binaries solve many independent
//! `(model, buffer, cutoff)` points per sweep; both are embarrassingly
//! parallel, yet the workspace is hermetic by construction (DESIGN.md
//! §6) and carries no rayon. (The per-iteration chain step itself runs
//! on one thread: both chains share one batched transform.) This crate
//! supplies the minimal slice of structured parallelism those two call
//! sites need, on nothing but `std::thread`:
//!
//! * [`Pool::scope`] — spawn borrowing tasks, wait for all of them,
//!   propagate the first panic;
//! * [`Pool::join`] — run two closures, one of them on the caller;
//! * [`Pool::par_map`] / [`par_map`] — map a slice to a `Vec` with the
//!   output in input order regardless of execution order.
//!
//! # Determinism
//!
//! The pool never changes *what* is computed, only *where*: every task
//! performs the same floating-point operations in the same order as the
//! serial path, so results are bit-for-bit identical for any thread
//! count (`tests/parallel_determinism.rs` pins this for the solver).
//! With one thread the pool spawns no workers at all and tasks run
//! inline at the `spawn` call site — exactly the serial execution
//! order.
//!
//! # Sizing
//!
//! The process-global pool ([`global`]/[`current`]) takes its size
//! from, in priority order: a [`set_global_threads`] call (the shared
//! CLI's `--threads N` flag), the `LRD_THREADS` environment variable,
//! and [`std::thread::available_parallelism`]. Tests and harnesses can
//! instead scope an explicitly sized pool over a region with
//! [`with_pool`]/[`with_threads`].
//!
//! # Blocking and progress
//!
//! A thread waiting for a scope to finish does not sleep while work is
//! queued: it pops and runs queued tasks itself (including tasks of
//! other scopes — cooperative helping). A thread therefore only blocks
//! when the queue is empty, which means every pending task is being
//! executed by some thread; nested scopes (a `par_map` point whose
//! solve itself calls `join`) cannot deadlock.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A queued unit of work: the erased task plus the scope it belongs
/// to (completion is signalled through the scope state).
struct Task {
    run: Box<dyn FnOnce() + Send + 'static>,
    scope: Arc<ScopeState>,
}

/// State shared by the workers and every scope: one queue, one
/// condvar. Scope completions notify the same condvar as work
/// arrivals so a waiter can never miss either signal.
struct Shared {
    queue: Mutex<QueueState>,
    signal: Condvar,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Per-scope completion state. `pending` is only decremented while the
/// shared queue mutex is held, so a waiter that checks it under the
/// same mutex cannot miss the final notification.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed-size thread pool. `Pool::new(n)` provides `n`-way
/// parallelism: `n − 1` worker threads plus the calling thread, which
/// participates while waiting. Dropping the pool shuts the workers
/// down.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
    /// Reused by every serial (`threads == 1`) scope: inline tasks
    /// never touch the completion state, so sharing one keeps the
    /// serial hot path free of heap allocations.
    serial_state: Arc<ScopeState>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

impl Pool {
    /// Creates a pool providing `threads`-way parallelism.
    ///
    /// `threads == 1` spawns no workers: every task runs inline at its
    /// `spawn` call site, reproducing the serial execution order
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            signal: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lrd-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker thread")
            })
            .collect();
        Pool {
            shared,
            threads,
            workers,
            serial_state: Arc::new(ScopeState::new()),
        }
    }

    /// The parallelism this pool provides (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be
    /// spawned, then waits for every spawned task before returning.
    /// The first task panic is re-raised on the caller once all tasks
    /// have finished.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            // Serial scopes run every task inline and never write the
            // completion state, so they can all share one allocation.
            state: if self.threads == 1 {
                Arc::clone(&self.serial_state)
            } else {
                Arc::new(ScopeState::new())
            },
            _env: PhantomData,
        };
        // The guard waits for all spawned tasks even if `f` itself
        // panics: tasks borrow data from the caller's frame, which
        // must not unwind while they are still running.
        let wait = WaitGuard { scope: &scope };
        let result = f(&scope);
        drop(wait);
        if let Some(payload) = lock(&scope.state.panic).take() {
            resume_unwind(payload);
        }
        result
    }

    /// Runs `a` and `b`, potentially in parallel (`b` on the calling
    /// thread), and returns both results. Panics from either closure
    /// propagate after both have finished.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        RA: Send,
        B: FnOnce() -> RB,
    {
        let mut ra = None;
        let rb = self.scope(|s| {
            s.spawn(|| ra = Some(a()));
            b()
        });
        (ra.expect("join task completed"), rb)
    }

    /// Maps `f` over `items`, potentially in parallel, collecting the
    /// results in input order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        self.scope(|s| {
            for (slot, item) in out.iter_mut().zip(items) {
                let f = &f;
                s.spawn(move || *slot = Some(f(item)));
            }
        });
        out.into_iter()
            .map(|r| r.expect("par_map task completed"))
            .collect()
    }

    /// Pops one queued task if any is available.
    fn try_pop(&self) -> Option<Task> {
        lock(&self.shared.queue).tasks.pop_front()
    }

    /// Waits until `state.pending` reaches zero, running queued tasks
    /// (of any scope) while there are some.
    fn wait_scope(&self, state: &ScopeState) {
        loop {
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(task) = self.try_pop() {
                run_task(&self.shared, task);
                continue;
            }
            let guard = lock(&self.shared.queue);
            if state.pending.load(Ordering::Acquire) == 0 || !guard.tasks.is_empty() {
                continue; // re-check with the lock released
            }
            drop(self.shared.signal.wait(guard).unwrap_or_else(|e| e.into_inner()));
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Executes one task, routing a panic into its scope state, and
/// signals completion under the shared queue mutex.
fn run_task(shared: &Shared, task: Task) {
    let Task { run, scope } = task;
    if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
        lock(&scope.panic).get_or_insert(payload);
    }
    let _guard = lock(&shared.queue);
    scope.pending.fetch_sub(1, Ordering::Release);
    shared.signal.notify_all();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut guard = lock(&shared.queue);
            loop {
                if let Some(task) = guard.tasks.pop_front() {
                    break task;
                }
                if guard.shutdown {
                    return;
                }
                guard = shared.signal.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_task(shared, task);
    }
}

/// Handle for spawning borrowing tasks inside [`Pool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`: tasks may borrow from the environment,
    /// so the lifetime must not shrink.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task. With a single-thread pool the task runs inline,
    /// immediately; otherwise it is queued for any thread (worker or a
    /// waiting caller) to pick up before the scope ends.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.threads == 1 {
            // Serial path: run at the call site, panics propagate
            // directly — bit-for-bit the pre-pool behaviour.
            f();
            return;
        }
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the scope (via `WaitGuard`) does not return until
        // `pending` reaches zero, so the task — and everything it
        // borrows from `'env` — is finished before any borrowed data
        // can be dropped or unwound past.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        self.state.pending.fetch_add(1, Ordering::Release);
        let task = Task {
            run,
            scope: Arc::clone(&self.state),
        };
        lock(&self.pool.shared.queue).tasks.push_back(task);
        self.pool.shared.signal.notify_all();
    }
}

struct WaitGuard<'a, 'pool, 'env> {
    scope: &'a Scope<'pool, 'env>,
}

impl Drop for WaitGuard<'_, '_, '_> {
    fn drop(&mut self) {
        self.scope.pool.wait_scope(&self.scope.state);
    }
}

// ------------------------------------------------------- global pool

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
/// Thread count requested via [`set_global_threads`] before the global
/// pool was first used; 0 means "not requested".
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERRIDE: RefCell<Vec<Arc<Pool>>> = const { RefCell::new(Vec::new()) };
}

/// Default parallelism when nothing was configured: `LRD_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism.
fn default_threads() -> usize {
    if let Ok(value) = std::env::var("LRD_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("lrd-pool: ignoring invalid LRD_THREADS={value:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Requests the size of the process-global pool (the shared CLI calls
/// this for `--threads N`). Returns `false` — and changes nothing —
/// when the global pool has already been built.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn set_global_threads(threads: usize) -> bool {
    assert!(threads >= 1, "thread count must be at least 1");
    if GLOBAL.get().is_some() {
        return false;
    }
    REQUESTED.store(threads, Ordering::SeqCst);
    GLOBAL.get().is_none()
}

/// The process-global pool, built on first use (see the crate docs for
/// how it is sized).
pub fn global() -> &'static Arc<Pool> {
    GLOBAL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::SeqCst);
        let threads = if requested >= 1 { requested } else { default_threads() };
        Arc::new(Pool::new(threads))
    })
}

/// The pool the current thread should use: the innermost
/// [`with_pool`] override, or the global pool.
pub fn current() -> Arc<Pool> {
    OVERRIDE.with(|stack| stack.borrow().last().cloned()).unwrap_or_else(|| Arc::clone(global()))
}

/// Runs `f` with `pool` as the calling thread's [`current`] pool.
/// Overrides nest; the previous pool is restored on exit (also on
/// panic).
pub fn with_pool<R>(pool: Arc<Pool>, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| stack.borrow_mut().pop());
        }
    }
    OVERRIDE.with(|stack| stack.borrow_mut().push(pool));
    let _guard = PopGuard;
    f()
}

/// Runs `f` with a freshly built `threads`-sized pool as the calling
/// thread's [`current`] pool (the pool is torn down afterwards).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    with_pool(Arc::new(Pool::new(threads)), f)
}

/// [`Pool::par_map`] on the [`current`] pool.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    current().par_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let (a, b) = pool.join(|| 6 * 7, || "ok".to_string());
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn join_can_borrow_disjoint_mutable_state() {
        let mut x = vec![0u64; 64];
        let mut y = vec![0u64; 64];
        let pool = Pool::new(4);
        pool.join(
            || x.iter_mut().enumerate().for_each(|(i, v)| *v = i as u64),
            || y.iter_mut().enumerate().for_each(|(i, v)| *v = 2 * i as u64),
        );
        assert_eq!(x[63], 63);
        assert_eq!(y[63], 126);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.par_map(&items, |&i| i * i);
            assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scope_runs_every_task() {
        let counter = AtomicU64::new(0);
        let pool = Pool::new(4);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panics_propagate_to_the_scope_caller() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|| panic!("worker exploded"));
                });
            }))
            .expect_err("scope must re-raise the task panic");
            let message = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(message.contains("worker exploded"), "payload was {message:?}");
        }
    }

    #[test]
    fn sibling_tasks_complete_even_when_one_panics() {
        let done = AtomicU64::new(0);
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("first"));
                for _ in 0..10 {
                    s.spawn(|| {
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 10, "siblings must still run");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let out = pool.par_map(&items, |&i| {
            let (a, b) = pool.join(|| i + 1, || i + 2);
            a * b
        });
        assert_eq!(out[3], 4 * 5);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn single_thread_pool_spawns_no_workers_and_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers.len(), 0);
        let caller = std::thread::current().id();
        let mut task_thread = None;
        pool.scope(|s| {
            s.spawn(|| task_thread = Some(std::thread::current().id()));
        });
        assert_eq!(task_thread, Some(caller));
    }

    #[test]
    fn with_pool_overrides_current_and_restores() {
        let global_threads = current().threads();
        let seen = with_threads(3, || current().threads());
        assert_eq!(seen, 3);
        assert_eq!(current().threads(), global_threads);
    }

    #[test]
    fn telemetry_reaches_the_subscriber_from_worker_threads() {
        // The obs subscriber slot is process-global, so events emitted
        // by pool workers land in the same sink as the caller's — the
        // property the solver's per-chain telemetry relies on.
        let collector = Arc::new(lrd_obs::CollectingSubscriber::new());
        {
            let _guard = lrd_obs::install(collector.clone());
            let pool = Pool::new(4);
            pool.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| lrd_obs::counter("pool.test_ticks", 1));
                }
            });
        }
        assert_eq!(collector.snapshot().counter("pool.test_ticks"), Some(32));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }
}
