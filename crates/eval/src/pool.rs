//! The persistent worker pool behind `EvalSession::run_batch`.
//!
//! A batch of warm evaluations finishes in tens of microseconds, while a
//! `thread::scope` per batch costs a round of thread spawns and joins
//! (~500 µs for 8 threads on this class of machine). This pool spawns its
//! workers once per **process** ([`global`]) and hands each batch to them
//! through a condvar, so steady-state dispatch costs a couple of lock
//! round-trips — and a freshly constructed session (the explorer builds
//! one per `explore` call) starts with a hot pool.
//!
//! Design notes:
//!
//! - One job at a time (concurrent submitters are serialized). A job is a
//!   type-erased `Fn(usize)` closure invoked with item indices claimed
//!   from a shared atomic counter; the submitting thread participates in
//!   the index race too, so `lanes` parallelism needs only `lanes - 1`
//!   workers and the caller never idles.
//! - The closure is borrowed from the submitter's stack. That is sound
//!   because [`WorkerPool::run`] does not return until every index has been
//!   claimed **and** completed (tracked by an acquire/release counter), so
//!   the borrow outlives all worker access. The `'static` transmute below
//!   is confined to that window.
//! - Worker panics are caught, carried back, and re-raised on the
//!   submitting thread, as `thread::scope` would.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The process-wide pool, sized to the machine (`parallelism - 1` workers;
/// the submitting thread is the final lane). Spawned on first use and
/// never torn down — idle workers park on a condvar and cost nothing.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .saturating_sub(1);
        WorkerPool::new(workers)
    })
}

/// The unit of work shared between the submitter and the workers.
struct Job {
    /// Type-erased `&dyn Fn(usize)` from the submitter's stack; valid for
    /// the duration of the job because the submitter blocks on completion.
    task: *const (dyn Fn(usize) + Sync),
    /// Number of items; indices `0..len` are claimed from `next`.
    len: usize,
    /// Worker seats left: a worker joins the job only if its decrement
    /// keeps this nonnegative, capping parallelism at the submitter's
    /// requested lane count rather than the pool width.
    seats: AtomicIsize,
    /// Next index to claim.
    next: AtomicUsize,
    /// Number of indices fully executed (successfully or by panic).
    completed: AtomicUsize,
    /// First captured worker panic, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `task` points at a `Sync` closure, and the raw pointer is only
// dereferenced between job publication and the completion handshake, while
// the submitter keeps the referent alive.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs indices until the counter is exhausted.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: see the struct-level invariant — the submitter keeps
            // the closure alive until `completed == len`.
            let task = unsafe { &*self.task };
            let outcome = catch_unwind(AssertUnwindSafe(|| task(i)));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            // Release pairs with the submitter's Acquire load so every
            // side effect of `task(i)` is visible once the count reaches
            // `len`.
            self.completed.fetch_add(1, Ordering::Release);
        }
    }

    fn done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.len
    }
}

struct State {
    job: Option<Arc<Job>>,
    /// Bumped per published job so sleeping workers distinguish "new job"
    /// from a spurious wake on the same exhausted job.
    generation: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new generation (or shutdown).
    work: Condvar,
    /// The submitter waits here for `completed == len`.
    done: Condvar,
}

/// A fixed-width pool of persistent worker threads. See the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes submitters: the pool runs one job at a time.
    gate: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (0 is valid: every `run` then
    /// executes entirely on the submitting thread, in index order).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            gate: Mutex::new(()),
        }
    }

    /// Runs `task(i)` for every `i in 0..len`, spreading indices across at
    /// most `lanes` concurrent executors (the calling thread plus up to
    /// `lanes - 1` workers), and returns once all are complete. Concurrent
    /// submitters are serialized (second caller waits its turn), so `task`
    /// must not call back into the same pool. A panic inside `task` is
    /// re-raised here after the batch drains.
    pub fn run(&self, len: usize, lanes: usize, task: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        let helpers = lanes
            .saturating_sub(1)
            .min(self.workers.len())
            .min(len.saturating_sub(1));
        if helpers == 0 {
            for i in 0..len {
                task(i);
            }
            return;
        }
        // A panicked batch unwinds through `resume_unwind` below while
        // holding this guard, poisoning the gate; the pool itself is still
        // consistent (the job was fully retired first), so recover.
        let _turn = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the borrow's lifetime is erased to 'static; that is
        // sound because the job is retired before this function returns —
        // we block until `completed == len` — so no worker can observe the
        // closure dangling.
        let task: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Arc::new(Job {
            task,
            len,
            seats: AtomicIsize::new(helpers as isize),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.job = Some(Arc::clone(&job));
            state.generation = state.generation.wrapping_add(1);
            // Wake only as many workers as the job has seats for — a
            // notify_all on a wide machine stampedes every idle worker
            // through the state lock for a job most of them can't join.
            if helpers >= self.workers.len() {
                self.shared.work.notify_all();
            } else {
                for _ in 0..helpers {
                    self.shared.work.notify_one();
                }
            }
        }
        // The submitter is a full participant in the index race.
        job.drain();
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            while !job.done() {
                state = self.shared.done.wait(state).expect("pool state poisoned");
            }
            state.job = None;
        }
        let payload = job.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen {
                    seen = state.generation;
                    // Join only if the job still has a worker seat (it may
                    // be retired already, or want fewer lanes than the
                    // pool is wide).
                    if let Some(job) = &state.job {
                        if job.seats.fetch_sub(1, Ordering::Relaxed) > 0 {
                            break Arc::clone(job);
                        }
                    }
                }
                state = shared.work.wait(state).expect("pool state poisoned");
            }
        };
        job.drain();
        if job.done() {
            // Notify under the state mutex: the submitter's done-check and
            // its condvar wait form one critical section, so taking the
            // lock here guarantees this wakeup is either observed by the
            // check or delivered to the wait — never lost between them.
            let _sync = shared.state.lock().expect("pool state poisoned");
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for len in [0usize, 1, 2, 7, 64, 1000] {
            let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
            pool.run(len, 4, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "len={len}"
            );
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let counts: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        pool.run(10, 4, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn results_are_visible_after_run() {
        let pool = WorkerPool::new(4);
        for _ in 0..50 {
            let slots: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
            pool.run(32, 5, &|i| {
                slots[i].store(i as u64 + 1, Ordering::Relaxed);
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(slot.load(Ordering::Relaxed), i as u64 + 1);
            }
        }
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 3, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(outcome.is_err(), "panic must cross the pool boundary");
        // The pool survives a panicked batch.
        let ran = AtomicU64::new(0);
        pool.run(4, 3, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(16, 5, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1600);
    }

    /// One submitter of the stress test below: 200 batches, every 7th
    /// with a panicking task (which also poisons `gate` for all later
    /// submitters), each over a local that is freed right after `run`.
    fn submit_batches(pool: &WorkerPool, s: usize) {
        const LEN: usize = 16;
        let submitter = std::thread::current().id();
        for b in 0..200 {
            let words: Vec<String> = (0..LEN).map(|i| format!("{s}:{b}:{i}")).collect();
            let done: Vec<AtomicU64> = (0..LEN).map(|_| AtomicU64::new(0)).collect();
            let (claimed, worker_in) = (AtomicUsize::new(0), AtomicBool::new(false));
            let boom = (b % 7 == 0).then_some((s + b) % LEN);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run(LEN, 4, &|i| {
                    claimed.fetch_add(1, Ordering::SeqCst);
                    // Force the interleaving under attack: the submitter
                    // holds its first task until a worker is inside the
                    // job, and a worker's task outlasts the submitter's
                    // whole drain — `run` has to wait for it, or it reads
                    // `words` through the erased pointer after the drop.
                    if std::thread::current().id() == submitter {
                        while !worker_in.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        worker_in.store(true, Ordering::SeqCst);
                        while claimed.load(Ordering::SeqCst) < LEN {
                            std::thread::yield_now();
                        }
                    }
                    assert_eq!(words[i], format!("{s}:{b}:{i}"));
                    done[i].fetch_add(1, Ordering::SeqCst);
                    if boom == Some(i) {
                        panic!("boom {s}:{b}");
                    }
                });
            }));
            drop(words);
            assert!(
                done.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{s}:{b}"
            );
            // A panic surfaces on the submitter whose task raised it, and
            // on no other.
            let raised = outcome
                .err()
                .map(|p| *p.downcast::<String>().expect("a message"));
            assert_eq!(raised, boom.map(|_| format!("boom {s}:{b}")));
        }
    }

    #[test]
    fn concurrent_submitters_survive_panics_and_short_lived_borrows() {
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for s in 0..4 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    submit_batches(pool, s);
                });
            }
        });
        let ran = AtomicU64::new(0);
        pool.run(8, 4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8, "the pool outlives it all");
    }
}
