//! Persistent query executor: a long-lived worker pool with cached
//! per-worker query sessions, fed by one queue.
//!
//! A `thread::scope` per call costs fresh thread stacks and a fresh
//! [`QuerySession`] per worker — tens of microseconds against queries
//! that finish in single-digit microseconds on small corpora. Instead:
//!
//! * one process-wide [`Executor`] (lazily created, never torn down)
//!   owning **parked** std threads that live for the process;
//! * one `Mutex<Queue>` of *open batches*, oldest first, which is also
//!   the mutex of the one condvar workers park on: a submitted batch is
//!   one entry (control block, next unclaimed index, task count), every
//!   participant takes the next index of the oldest batch under the
//!   lock, and the entry leaves the queue with its last index. Push and
//!   "nothing to claim, wait" are ordered by that lock, so no wake-up
//!   can be lost; the worker count lives under it too;
//! * a [`WorkerScratch`] — a cached [`QuerySession`] + `ShardedSession`
//!   — owned by each worker thread and by each calling thread
//!   (thread-local), so steady-state pooled queries **spawn zero
//!   threads and allocate nothing**: session scratch is epoch-tagged
//!   and grow-only, which also means a cached session survives a hot
//!   reload — the next query lazily re-validates it against whatever
//!   generation's index it meets ([`QuerySession::ensure_capacity`]);
//! * counters (queued, executed, inline/fanout dispatch decisions)
//!   surfaced through [`stats`] for the `serve` STATS command and the
//!   benchmark's `exec.*` rows.
//!
//! # Batch protocol
//!
//! [`Executor::run_tasks`] submits `tasks` closures indexed `0..tasks`
//! and **blocks until all of them finished** (join-before-return, even
//! on panic — a drop guard waits out the batch before unwinding
//! continues, so borrowed data can never be observed after free). The
//! submitting caller does not idle: it claims tasks itself alongside
//! the pool, using its own thread-local scratch. Task closures run
//! under `catch_unwind`; a panicking task marks the batch and the panic
//! resurfaces on the caller once the batch has drained.
//!
//! Queue entries carry a pointer to the stack-allocated batch control
//! block with its lifetime erased (the queue is `'static`-typed);
//! soundness is exactly the join-before-return guarantee above, see the
//! ledgered SAFETY arguments inline.
//!
//! [`Executor::run_chunked`] is the entry point the query paths use: it
//! fills a result slice, one slot per index, and owns the dispatch
//! decision (width clamp, oversplit, inline fallback) and the one
//! `unsafe` hand-out of disjoint slots, so output arrives
//! allocation-free in index order with no ordering pass. A task that
//! itself calls `run_tasks` (nested fan-out) degrades to inline
//! execution on the worker — the pool never blocks one of its own
//! threads on a sub-batch. A pool that cannot grow (the OS refuses the
//! thread) serves the batch with the workers it has, or inline.
//!
//! # Deadlines
//!
//! [`scoped_deadline`] carries a latency budget in a thread-local;
//! `run_tasks` captures it at submission and re-establishes it on
//! whichever participant executes each task, so the budget seen inside a
//! task body is the submitting scope's. A batch submitted *after* its
//! deadline still produces its results but runs sequentially on the
//! caller, counted in [`ExecutorStats::late_dispatch`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::query::QuerySession;
use crate::shard::ShardedSession;

/// Hard ceiling on pool threads, far above any sane `--threads`
/// setting; a huge `--threads` value cannot fork-bomb the process.
const MAX_POOL_WORKERS: usize = 256;

/// Cached scratch owned by one executor participant (a pool worker or a
/// calling thread): one session per serving path, grown on first use
/// and reused for the life of the thread.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// Single-engine session (batch queries, per-shard scatter tasks).
    pub(crate) query: QuerySession,
    /// Scatter-gather session (sharded batch tasks).
    pub(crate) sharded: ShardedSession,
}

/// The closure shape a batch runs: `(task_index, participant_scratch)`.
type TaskFn<'a> = &'a (dyn Fn(usize, &mut WorkerScratch) + Sync);

/// Stack-allocated control block of one in-flight batch: the task
/// closure plus the completion latch the submitting caller waits on.
struct BatchCtl<'a> {
    run: TaskFn<'a>,
    /// The submitting scope's latency deadline, re-established on every
    /// participant that executes one of this batch's tasks.
    deadline: Option<Instant>,
    /// Tasks not yet finished; the finisher that brings this to zero
    /// flips `done` under its mutex and wakes the waiting caller.
    pending: AtomicUsize,
    /// Set when any task panicked; the caller re-raises after the join.
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// One unit of pool work: which batch, which task index. The control
/// pointer's lifetime is erased so tasks can sit in the `'static`-typed
/// queue; validity is the batch protocol's join-before-return
/// guarantee (see the module docs).
#[derive(Clone, Copy)]
struct Task {
    ctl: *const BatchCtl<'static>,
    index: usize,
}

// SAFETY: a Task is an index plus a pointer to a BatchCtl that the
// submitting `run_tasks` frame keeps alive (it joins the batch before
// returning, even on unwind), and BatchCtl's interior — atomics,
// Mutex/Condvar, and a `dyn Fn + Sync` closure reference — is safe to
// reach from any thread. Moving the pointer across threads is therefore
// sound; the only deref is audited in `execute`.
unsafe impl Send for Task {}

/// A bounds-checked disjoint-write view over a result slice: tasks
/// write concurrently, each only to the slot indices it owns, so the
/// caller gets results in order with no post-hoc sorting pass.
struct DisjointSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: DisjointSlots is a borrowed view over `&'a mut [T]`; sending
// it to another thread moves only the raw pointer + length, and T: Send
// means the pointees may be written from that thread.
unsafe impl<T: Send> Send for DisjointSlots<'_, T> {}
// SAFETY: sharing the view is what enables concurrent slot writes; the
// per-index exclusivity contract of `slot` (each index claimed by
// exactly one task) is what prevents aliased &mut — the view itself
// hands out nothing without that contract being invoked.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}

/// A point-in-time snapshot of the executor counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads currently alive in the pool (grow-only).
    pub pool_size: usize,
    /// Tasks ever submitted to the pool (fan-out path only).
    pub queued: u64,
    /// Tasks executed by any participant (workers + calling threads).
    pub executed: u64,
    /// Always 0: with one shared queue no task changes hands. The field
    /// stays until the benchmark that reads it can drop it.
    pub stolen: u64,
    /// Dispatch decisions that stayed on the caller thread.
    pub inline: u64,
    /// Dispatch decisions that engaged the pool.
    pub fanout: u64,
    /// Batches whose [`scoped_deadline`] had already passed at
    /// submission and therefore ran sequentially on the caller instead
    /// of engaging the pool.
    pub late_dispatch: u64,
}

/// Everything submitters and workers share, under the one lock the
/// workers' condvar waits on.
struct Queue {
    /// Open batches, oldest first: the next unclaimed task of each and
    /// the batch's task count. An entry leaves with its last index.
    open: VecDeque<(Task, usize)>,
    /// Worker threads alive in the pool (grow-only).
    workers: usize,
    /// Set only by `Executor::drop` (test instances); the global
    /// executor lives for the process.
    stopping: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    work_cv: Condvar,
    /// Ceiling on pool threads ([`MAX_POOL_WORKERS`] outside tests).
    worker_cap: usize,
    queued: AtomicU64,
    executed: AtomicU64,
    inline: AtomicU64,
    fanout: AtomicU64,
    late_dispatch: AtomicU64,
}

/// The worker pool. One process-wide instance lives behind
/// [`global`]; tests construct private instances.
pub(crate) struct Executor {
    inner: Arc<Inner>,
}

thread_local! {
    /// True on pool worker threads: a nested `run_tasks` from inside a
    /// task must run inline instead of blocking a pool thread on the
    /// pool.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's cached scratch, used when executing tasks
    /// inline and when participating in a submitted batch.
    static CALLER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
    /// The latency deadline governing work dispatched from this thread
    /// (set by [`scoped_deadline`], re-established per task on
    /// executing participants).
    static TASK_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Restores the previous thread-local deadline on drop, so scopes nest
/// correctly even across unwinds.
struct DeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        TASK_DEADLINE.with(|c| c.set(self.prev));
    }
}

/// Installs `deadline` as the current thread's deadline for the guard's
/// lifetime. `tighten_only` is the scope rule (an inner scope can only
/// shorten the budget, and `None` inherits the outer deadline); tasks
/// executing on behalf of another thread's batch instead take that
/// batch's deadline verbatim (`tighten_only = false`) — the governing
/// budget is the submitter's, not the executing participant's.
fn install_deadline(deadline: Option<Instant>, tighten_only: bool) -> DeadlineGuard {
    let prev = TASK_DEADLINE.with(Cell::get);
    let effective = if tighten_only {
        match (deadline, prev) {
            (Some(inner), Some(outer)) => Some(inner.min(outer)),
            (inner, outer) => inner.or(outer),
        }
    } else {
        deadline
    };
    TASK_DEADLINE.with(|c| c.set(effective));
    DeadlineGuard { prev }
}

/// Runs `f` with `deadline` as the current thread's dispatch deadline,
/// restoring the previous deadline afterwards. The deadline propagates
/// into every `run_tasks` fan-out performed inside `f` (pool workers
/// included); nested scopes keep the sooner of the two deadlines, and
/// `None` simply inherits the enclosing scope's deadline.
pub fn scoped_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    let _guard = install_deadline(deadline, true);
    f()
}

/// The deadline governing the current scope (a [`scoped_deadline`]
/// closure, or a task executed on behalf of one), if any.
pub(crate) fn current_deadline() -> Option<Instant> {
    TASK_DEADLINE.with(Cell::get)
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// The process-wide executor (created on first use, never torn down).
pub(crate) fn global() -> &'static Executor {
    GLOBAL.get_or_init(Executor::new)
}

/// Counter snapshot of the process-wide executor. All zeros until the
/// first pooled call creates it.
pub fn stats() -> ExecutorStats {
    GLOBAL
        .get()
        .map_or_else(ExecutorStats::default, Executor::snapshot)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are contained by catch_unwind before any of these
    // locks unwind; state behind them is valid regardless.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every task inline on the current thread with its cached
/// scratch (fresh scratch in the re-entrant corner case where the
/// thread-local is already borrowed by an outer batch).
fn run_inline(tasks: usize, run: TaskFn<'_>) {
    CALLER_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            for index in 0..tasks {
                run(index, &mut scratch);
            }
        }
        Err(_) => {
            let mut scratch = WorkerScratch::default();
            for index in 0..tasks {
                run(index, &mut scratch);
            }
        }
    });
}

// xtask:no-alloc:begin — steady-state task execution and claiming:
// the pooled hot path performs no allocation (the dynamic sampling in
// tests/query_zero_alloc.rs becomes a static fence here).

/// Executes one task, always decrementing the batch latch — a panic in
/// the closure is caught, recorded on the batch, and re-raised by the
/// submitting caller after the join.
fn execute(inner: &Inner, task: Task, scratch: &mut WorkerScratch) {
    // SAFETY: the submitting `run_tasks` frame keeps the BatchCtl alive
    // until `pending` reaches zero (its WaitGuard joins the batch before
    // the frame can return, even on unwind), and this task has not yet
    // decremented `pending`, so the pointee is live for the whole scope
    // of this reference.
    let ctl = unsafe { &*task.ctl };
    // The batch runs under its *submitter's* deadline — replace (not
    // tighten) whatever deadline the executing thread happens to carry,
    // since the claiming participant may belong to an unrelated scope.
    let _deadline = install_deadline(ctl.deadline, false);
    if panic::catch_unwind(AssertUnwindSafe(|| (ctl.run)(task.index, scratch))).is_err() {
        // ORDER: flag only; the `done` mutex handoff below publishes it
        // to the joining caller before the Relaxed read in `run_tasks`.
        ctl.panicked.store(true, Ordering::Relaxed);
    }
    inner.executed.fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
                                                    // ORDER: AcqRel — the final decrement observes every earlier
                                                    // finisher's writes (release sequence on `pending`), and the caller
                                                    // observes the final finisher through the `done` mutex — so after
                                                    // the join the caller sees every task's result writes.
    if ctl.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = lock(&ctl.done);
        *done = true;
        ctl.done_cv.notify_all();
    }
}

impl Queue {
    /// Hands out the next task of the oldest open batch.
    fn claim(&mut self) -> Option<Task> {
        let (next, tasks) = self.open.front_mut()?;
        let task = *next;
        next.index += 1;
        if next.index == *tasks {
            self.open.pop_front();
        }
        Some(task)
    }
}

// xtask:no-alloc:end

fn worker_loop(inner: Arc<Inner>) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    let mut scratch = WorkerScratch::default();
    loop {
        let task = {
            let mut queue = lock(&inner.queue);
            loop {
                if queue.stopping {
                    return;
                }
                if let Some(task) = queue.claim() {
                    break task;
                }
                // Submitters push under this lock, so a push cannot
                // slip between the failed claim and the park.
                queue = inner
                    .work_cv
                    .wait(queue) // HOLDS-LOCK: condvar wait releases the guard.
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        execute(&inner, task, &mut scratch);
    }
}

/// Join-before-return: dropped on every exit path of `run_tasks`
/// (including unwinds), it blocks until the batch latch closes — after
/// which no task can hold a pointer into the frame being torn down.
struct WaitGuard<'a, 'b> {
    ctl: &'a BatchCtl<'b>,
}

impl Drop for WaitGuard<'_, '_> {
    fn drop(&mut self) {
        let mut done = lock(&self.ctl.done);
        while !*done {
            // The join protocol requires holding `done` until the
            // latch flip is observed.
            done = self
                .ctl
                .done_cv
                .wait(done) // HOLDS-LOCK: condvar wait releases the guard.
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Executor {
    pub(crate) fn new() -> Executor {
        Executor::with_worker_cap(MAX_POOL_WORKERS)
    }

    fn with_worker_cap(worker_cap: usize) -> Executor {
        Executor {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    open: VecDeque::new(),
                    workers: 0,
                    stopping: false,
                }),
                work_cv: Condvar::new(),
                worker_cap,
                queued: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                inline: AtomicU64::new(0),
                fanout: AtomicU64::new(0),
                late_dispatch: AtomicU64::new(0),
            }),
        }
    }

    /// Records a dispatch decision that stayed on the caller thread.
    pub(crate) fn note_inline(&self) {
        self.inner.inline.fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
    }

    /// Records a dispatch decision that engaged the pool.
    fn note_fanout(&self) {
        self.inner.fanout.fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
    }

    pub(crate) fn snapshot(&self) -> ExecutorStats {
        ExecutorStats {
            pool_size: lock(&self.inner.queue).workers,
            queued: self.inner.queued.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            executed: self.inner.executed.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            stolen: 0,
            inline: self.inner.inline.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            fanout: self.inner.fanout.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
            late_dispatch: self.inner.late_dispatch.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
        }
    }

    /// Runs `run(0..tasks)` to completion with up to `width`
    /// participants (the caller plus `width - 1` pool workers) and
    /// blocks until every task finished. Degenerate shapes — one task,
    /// width ≤ 1, or a call from inside a pool task — run inline on the
    /// current thread. Steady-state fan-out performs no allocation.
    fn run_tasks(&self, width: usize, tasks: usize, run: TaskFn<'_>) {
        if tasks == 0 {
            return;
        }
        if width <= 1 || tasks == 1 || IS_POOL_WORKER.with(Cell::get) {
            run_inline(tasks, run);
            return;
        }
        // Deadline-aware dispatch: a batch whose budget already expired
        // still produces its results (callers need them for the
        // degraded reply), but sequentially on the caller — no point
        // waking workers for an answer that will be discarded.
        let deadline = current_deadline();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // ORDER: stats counter; Relaxed default.
            self.inner.late_dispatch.fetch_add(1, Ordering::Relaxed);
            run_inline(tasks, run);
            return;
        }
        let ctl = BatchCtl {
            run,
            deadline,
            pending: AtomicUsize::new(tasks),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        };
        // Lifetime erasure: the queue is 'static-typed, but `ctl`
        // lives on this stack frame. The WaitGuard below re-establishes
        // the lifetime discipline dynamically — this frame cannot be
        // left until `pending` hits zero, so every Task pointer dies
        // before its pointee. (A plain pointer cast: the erased type is
        // layout-identical, only the lifetime parameter changes.)
        let ctl_ptr = (&ctl as *const BatchCtl<'_>).cast::<BatchCtl<'static>>();
        let mut queue = lock(&self.inner.queue);
        self.grow(&mut queue, width.min(tasks).saturating_sub(1));
        if queue.workers == 0 {
            // No thread to be had. The pool cannot drain the batch and
            // this thread's scratch may be borrowed by an outer batch,
            // so "push and wait" could wait forever; `run_inline` copes.
            drop(queue);
            run_inline(tasks, run);
            return;
        }
        let guard = WaitGuard { ctl: &ctl };
        let first = Task {
            ctl: ctl_ptr,
            index: 0,
        };
        queue.open.push_back((first, tasks));
        drop(queue);
        self.inner.work_cv.notify_all();
        // ORDER: stats counter; Relaxed default.
        self.inner.queued.fetch_add(tasks as u64, Ordering::Relaxed);
        // Participate instead of idling (skipped only in the re-entrant
        // corner where an outer batch already borrowed this thread's
        // scratch — then the pool alone drains the batch).
        CALLER_SCRATCH.with(|cell| {
            if let Ok(mut scratch) = cell.try_borrow_mut() {
                // ORDER: Acquire pairs with the AcqRel decrements in
                // `execute` — observing 0 implies every finisher's
                // writes are visible to this participant.
                while ctl.pending.load(Ordering::Acquire) > 0 {
                    // Statement-scoped guard: not held while the task runs.
                    let Some(task) = lock(&self.inner.queue).claim() else {
                        break;
                    };
                    execute(&self.inner, task, &mut scratch);
                }
            }
        });
        drop(guard);
        // ORDER: the WaitGuard's `done`-mutex join above already
        // ordered every finisher before this read; Relaxed suffices.
        if ctl.panicked.load(Ordering::Relaxed) {
            panic!("executor batch task panicked");
        }
    }

    /// Grows the pool towards `target` workers (capped, grow-only;
    /// threads are never torn down while the executor lives) and stops
    /// at the first spawn the OS refuses — a thread limit reached beside
    /// the server's connection handlers must cost parallelism, not
    /// panic inside a query.
    fn grow(&self, queue: &mut Queue, target: usize) {
        while queue.workers < target.min(self.inner.worker_cap) {
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("cubelsi-exec-{}", queue.workers))
                .spawn(move || worker_loop(inner));
            if spawned.is_err() {
                return;
            }
            queue.workers += 1;
        }
    }

    /// Fills every `out[i]` through `fill(i, scratch, &mut out[i])` on
    /// up to `threads` participants and returns when all are written.
    /// Up to `min_per_task` slots (or one thread) stay on the caller
    /// with its cached scratch; otherwise the slots are split into
    /// index ranges, four per participant so a slow range does not
    /// leave the others idle. Either way the decision is counted.
    pub(crate) fn run_chunked<T: Send>(
        &self,
        threads: usize,
        min_per_task: usize,
        out: &mut [T],
        fill: impl Fn(usize, &mut WorkerScratch, &mut T) + Sync,
    ) {
        let n = out.len();
        if n == 0 {
            return;
        }
        // Clamped to the work: slots too few to amortize a handoff must
        // never engage idle workers.
        let width = threads.min(n.div_ceil(min_per_task)).max(1);
        let task_size = if width == 1 {
            self.note_inline();
            n
        } else {
            self.note_fanout();
            n.div_ceil(width * 4)
        };
        let slots = DisjointSlots::new(out);
        self.run_tasks(width, n.div_ceil(task_size), &|task, scratch| {
            let lo = task * task_size;
            for index in lo..(lo + task_size).min(n) {
                // SAFETY: tasks cover disjoint index ranges of 0..n, so
                // each slot is claimed by exactly one task, and `out`
                // stays mutably borrowed by `slots` (nobody else can
                // touch it) until `run_tasks` has joined the batch.
                let slot = unsafe { slots.slot(index) };
                fill(index, scratch, slot);
            }
        });
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Only test instances drop; their parked workers exit instead
        // of leaking a parked thread per constructed pool.
        lock(&self.inner.queue).stopping = true;
        self.inner.work_cv.notify_all();
    }
}

impl<'a, T> DisjointSlots<'a, T> {
    fn new(slots: &'a mut [T]) -> Self {
        DisjointSlots {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
            _marker: PhantomData,
        }
    }

    /// The exclusive reference to slot `index` (bounds-checked).
    ///
    /// # Safety
    ///
    /// Over the view's lifetime every index must be claimed by at most
    /// one task, and the borrowing caller must not touch the underlying
    /// slice while tasks hold slots — both are what make the returned
    /// `&mut` unaliased.
    #[allow(clippy::mut_from_ref)] // disjoint-write view: &mut per index is the point
    unsafe fn slot(&self, index: usize) -> &mut T {
        assert!(index < self.len, "slot {index} out of {}", self.len);
        // SAFETY: in-bounds by the assert above (ptr/len came from a
        // live &mut slice); unaliased by the method's one-task-per-index
        // contract.
        unsafe { &mut *self.ptr.add(index) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn fill_batch(exec: &Executor, width: usize, tasks: usize) -> Vec<u64> {
        let mut out = vec![0u64; tasks];
        let slots = DisjointSlots::new(&mut out);
        exec.run_tasks(width, tasks, &|i, _scratch| {
            // SAFETY: one task per index; each slot claimed exactly once.
            let slot = unsafe { slots.slot(i) };
            *slot = (i as u64) * 3 + 1;
        });
        out
    }

    #[test]
    fn pool_runs_every_task_and_reuses_threads() {
        let exec = Executor::new();
        for _round in 0..5 {
            let out = fill_batch(&exec, 4, 97);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u64) * 3 + 1);
            }
        }
        let stats = exec.snapshot();
        assert_eq!(stats.executed, 5 * 97);
        assert_eq!(stats.queued, 5 * 97);
        assert!(
            stats.pool_size <= 3,
            "width 4 must spawn at most 3 workers, got {}",
            stats.pool_size
        );
        assert!(stats.pool_size >= 1);
    }

    #[test]
    fn width_is_clamped_to_task_count() {
        // Regression: a batch smaller than the pool width must engage at
        // most tasks - 1 workers (the caller is the remaining one).
        let exec = Executor::new();
        let out = fill_batch(&exec, 8, 3);
        assert_eq!(out, vec![1, 4, 7]);
        assert!(
            exec.snapshot().pool_size <= 2,
            "3 tasks at width 8 spawned {} workers",
            exec.snapshot().pool_size
        );
    }

    #[test]
    fn degenerate_shapes_run_inline_without_workers() {
        let exec = Executor::new();
        assert_eq!(fill_batch(&exec, 1, 16), {
            let mut v = vec![0u64; 16];
            for (i, s) in v.iter_mut().enumerate() {
                *s = (i as u64) * 3 + 1;
            }
            v
        });
        assert_eq!(fill_batch(&exec, 8, 1), vec![1]);
        let stats = exec.snapshot();
        assert_eq!(stats.pool_size, 0, "inline shapes must not spawn");
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn nested_run_tasks_degrades_to_inline() {
        let exec = Executor::new();
        let total = AtomicU64::new(0);
        exec.run_tasks(4, 8, &|_, _scratch| {
            // Nested fan-out from a task body: must complete inline (on
            // a worker) or via the pool (on the caller), never deadlock.
            exec.run_tasks(4, 4, &|j, _s| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn panicking_task_joins_then_propagates() {
        let exec = Executor::new();
        let ran = AtomicU64::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_tasks(4, 32, &|i, _scratch| {
                if i == 7 {
                    panic!("task 7 boom");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err(), "batch panic must propagate to the caller");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            31,
            "all non-panicking tasks must still run (join-before-return)"
        );
        // The pool survives a panicked batch.
        let out = fill_batch(&exec, 4, 16);
        assert_eq!(out[15], 46);
    }

    #[test]
    fn counters_track_dispatch_decisions() {
        let exec = Executor::new();
        exec.note_inline();
        exec.note_inline();
        exec.note_fanout();
        let stats = exec.snapshot();
        assert_eq!((stats.inline, stats.fanout), (2, 1));
    }

    #[test]
    fn deadline_propagates_into_pool_tasks() {
        let exec = Executor::new();
        let far = Instant::now() + Duration::from_secs(3600);
        let seen = AtomicU64::new(0);
        let missing = AtomicU64::new(0);
        scoped_deadline(Some(far), || {
            assert_eq!(current_deadline(), Some(far));
            exec.run_tasks(4, 32, &|_, _scratch| {
                // Whether this task ran on a pool worker or on the
                // participating caller, it must observe the submitting
                // scope's deadline.
                match current_deadline() {
                    Some(d) if d == far => seen.fetch_add(1, Ordering::Relaxed),
                    _ => missing.fetch_add(1, Ordering::Relaxed),
                };
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 32);
        assert_eq!(missing.load(Ordering::Relaxed), 0);
        assert_eq!(
            current_deadline(),
            None,
            "leaving the scope must restore the previous (absent) deadline"
        );
    }

    #[test]
    fn expired_deadline_runs_batch_inline() {
        let exec = Executor::new();
        // An Instant captured before the comparison: `>=` makes "now"
        // itself already expired, without Instant arithmetic that could
        // underflow near the clock epoch.
        let past = Instant::now();
        let out = scoped_deadline(Some(past), || fill_batch(&exec, 4, 16));
        let expect: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        assert_eq!(out, expect, "late batches still produce full results");
        let stats = exec.snapshot();
        assert_eq!(stats.pool_size, 0, "expired dispatch must not spawn");
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.late_dispatch, 1);
    }

    #[test]
    fn nested_scopes_keep_sooner_deadline() {
        let soon = Instant::now() + Duration::from_secs(60);
        let later = Instant::now() + Duration::from_secs(3600);
        scoped_deadline(Some(soon), || {
            scoped_deadline(Some(later), || {
                assert_eq!(
                    current_deadline(),
                    Some(soon),
                    "an inner scope can only tighten the budget"
                );
            });
            scoped_deadline(None, || {
                assert_eq!(
                    current_deadline(),
                    Some(soon),
                    "None inherits the enclosing deadline"
                );
            });
            assert_eq!(current_deadline(), Some(soon));
        });
        assert_eq!(current_deadline(), None);
    }

    fn assert_filled(out: &[u64]) {
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 3 + 1, "slot {i}");
        }
    }

    #[test]
    fn run_chunked_fills_every_slot_and_counts_the_decision() {
        let exec = Executor::new();
        for (threads, n) in [(1, 40), (4, 8), (4, 9), (4, 97), (4, 0)] {
            let mut out = vec![0u64; n];
            exec.run_chunked(threads, 8, &mut out, |i, _scratch, slot| {
                *slot = (i as u64) * 3 + 1;
            });
            assert_filled(&out);
        }
        // One thread and one task's worth stay inline; an empty batch
        // is no decision at all.
        let stats = exec.snapshot();
        assert_eq!((stats.inline, stats.fanout), (2, 2));
        assert_eq!(stats.queued, 5 + 14, "9 slots in twos, 97 in sevens");
    }

    #[test]
    fn pool_that_cannot_grow_runs_the_batch_inline() {
        let exec = Executor::with_worker_cap(0);
        assert_filled(&fill_batch(&exec, 4, 32));
        let stats = exec.snapshot();
        assert_eq!(stats.pool_size, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let exec = Executor::new();
        std::thread::scope(|scope| {
            for submitter in 0..4 {
                let exec = &exec;
                scope.spawn(move || {
                    for round in 0..50 {
                        assert_filled(&fill_batch(exec, 4, 5 + (submitter + round) % 23));
                    }
                });
            }
        });
        let stats = exec.snapshot();
        assert_eq!(stats.executed, stats.queued);
        assert!(stats.queued >= 4 * 50 * 5);
        assert!(lock(&exec.inner.queue).open.is_empty());
    }

    #[test]
    fn panic_stays_with_its_own_submitter() {
        let exec = Executor::new();
        // Both batches are in flight when the panic happens: task 0 of
        // each waits for task 0 of the other.
        let both_running = Barrier::new(2);
        std::thread::scope(|scope| {
            let doomed = scope.spawn(|| {
                panic::catch_unwind(AssertUnwindSafe(|| {
                    exec.run_tasks(4, 16, &|i, _scratch| {
                        if i == 0 {
                            both_running.wait();
                            panic!("task 0 boom");
                        }
                    });
                }))
            });
            let healthy = scope.spawn(|| {
                let mut out = vec![0u64; 16];
                exec.run_chunked(4, 1, &mut out, |i, _scratch, slot| {
                    if i == 0 {
                        both_running.wait();
                    }
                    *slot = (i as u64) * 3 + 1;
                });
                out
            });
            assert!(doomed.join().unwrap().is_err(), "the submitter re-raises");
            assert_filled(&healthy.join().expect("the other batch is untouched"));
        });
        assert!(lock(&exec.inner.queue).open.is_empty());
    }

    #[test]
    fn older_batches_are_claimed_first() {
        let exec = Executor::new();
        let log = Mutex::new(Vec::new());
        // Rendezvous points: (task side, test side) pairs.
        let (gate_in, gate_out) = (Barrier::new(3), Barrier::new(3));
        let (first_in, first_out) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            // Park the pool's one worker and this batch's caller.
            scope.spawn(|| {
                exec.run_tasks(2, 2, &|_, _scratch| {
                    gate_in.wait();
                    gate_out.wait();
                });
            });
            gate_in.wait();
            // The older batch: its caller sticks in task 0, so tasks
            // 1..4 stay queued with nobody free to claim them.
            scope.spawn(|| {
                exec.run_tasks(2, 4, &|i, _scratch| {
                    if i == 0 {
                        first_in.wait();
                        first_out.wait();
                    } else {
                        lock(&log).push(('a', i));
                    }
                });
            });
            first_in.wait();
            // The younger batch's caller is the only free participant:
            // it must drain the older batch before touching its own.
            scope
                .spawn(|| exec.run_tasks(2, 3, &|i, _scratch| lock(&log).push(('b', i))))
                .join()
                .unwrap();
            let expect = [('a', 1), ('a', 2), ('a', 3), ('b', 0), ('b', 1), ('b', 2)];
            assert_eq!(*lock(&log), expect);
            first_out.wait();
            gate_out.wait();
        });
        assert_eq!(exec.snapshot().pool_size, 1);
    }

    #[test]
    fn no_open_batch_outlives_its_frame() {
        let exec = Executor::new();
        fill_batch(&exec, 4, 33);
        assert!(lock(&exec.inner.queue).open.is_empty());
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_tasks(4, 33, &|i, _scratch| assert_ne!(i % 8, 7, "boom"));
        }));
        assert!(caught.is_err());
        assert!(lock(&exec.inner.queue).open.is_empty());
    }
}
