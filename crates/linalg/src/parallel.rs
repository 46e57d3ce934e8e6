//! Fork–join on `std::thread::scope`, for the build's kernels and for
//! query batches alike.
//!
//! Every parallel step of the offline build — dense matmul, the sparse TTM
//! chain and unfolding, all-pairs tag distances, k-means restarts — writes
//! disjoint rows of one output. [`for_each_band`] cuts that output into at
//! most [`num_threads`] contiguous row bands and runs one closure per band,
//! so no kernel splits buffers or spawns threads itself. A row is computed
//! by the same code whichever band it lands in, so results do not depend on
//! the thread count. Each kernel keeps its own "is this worth a thread?"
//! threshold and calls its closure directly below it.
//!
//! Query batches and shard fan-out use [`for_each_chunk`]: fixed-size
//! chunks that the participants, each with a scratch built once, claim in
//! order. In both the caller is a participant, and a thread the OS refuses
//! costs parallelism, not work.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Most threads a fork–join uses, whatever [`set_num_threads`] asked for:
/// a huge `--threads` cannot make one call ask the OS for a thread per row.
const MAX_THREADS: usize = 256;

/// Number of worker threads used by the parallel kernels, at most 256.
///
/// Defaults to the machine's available parallelism and can be lowered (e.g.
/// to 1 for deterministic profiling) via [`set_num_threads`].
pub fn num_threads() -> usize {
    // ORDER: independent config cell — no data is published through
    // it, so Relaxed is the documented default.
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured.min(MAX_THREADS);
    }
    default_threads().min(MAX_THREADS)
}

/// Machine parallelism, probed once and cached: `available_parallelism`
/// reads cgroup quota files on Linux (it allocates and costs a few µs),
/// which would break the zero-allocation steady-state serving paths
/// that consult [`num_threads`] on every query.
fn default_threads() -> usize {
    static DEFAULT: AtomicUsize = AtomicUsize::new(0);
    // ORDER: idempotent probe cache — racing initializers store the
    // same value, so Relaxed loads/stores need no edge between them.
    match DEFAULT.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            DEFAULT.store(n, Ordering::Relaxed); // ORDER: same idempotent cache.
            n
        }
        n => n,
    }
}

static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all parallel kernels in this
/// process. Passing `0` restores the default (machine parallelism).
pub fn set_num_threads(n: usize) {
    // ORDER: independent config cell; see `num_threads`.
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

/// Serializes tests that mutate the process-global thread count: libtest
/// runs tests concurrently in one process, so without this lock a test's
/// "serial" baseline could silently run under another test's override.
#[cfg(test)]
pub(crate) static TEST_THREAD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// An output [`for_each_band`] can cut into disjoint contiguous pieces: a
/// mutable slice, or a pair of outputs cut at the same element offsets
/// (arrays that run side by side, such as a CSR matrix's column indices
/// and values).
pub trait SplitMut: Send + Sized {
    /// The first `mid` elements, and the rest.
    fn split(self, mid: usize) -> (Self, Self);
}

impl<T: Send> SplitMut for &mut [T] {
    fn split(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: SplitMut, B: SplitMut> SplitMut for (A, B) {
    fn split(self, mid: usize) -> (Self, Self) {
        let (a_head, a_tail) = self.0.split(mid);
        let (b_head, b_tail) = self.1.split(mid);
        ((a_head, b_head), (a_tail, b_tail))
    }
}

/// Runs `f(range, band)` over rows `0..rows` cut into at most
/// [`num_threads`] contiguous ranges of `⌈rows / bands⌉` rows (the last
/// may be shorter). `band` is `out` from element `offset(range.start)` up
/// to `offset(range.end)`: `offset(r)` is where row `r` starts in `out` —
/// `r * stride` for a row-major buffer, `ptr[r]` for a CSR row pointer —
/// and must be non-decreasing from `offset(0) = 0`.
///
/// One band (one thread, or at most one row) runs inline. Otherwise one
/// participant per band, the caller among them, takes bands until none is
/// left, and a panic in any band is re-raised on the caller once all
/// participants stop.
pub fn for_each_band<S, F>(rows: usize, offset: impl Fn(usize) -> usize, out: S, f: F)
where
    S: SplitMut,
    F: Fn(Range<usize>, S) + Sync,
{
    let bands = num_threads().clamp(1, rows.max(1));
    let per = rows.div_ceil(bands).max(1);
    if per >= rows {
        f(0..rows, out);
        return;
    }
    let mut cut = Vec::with_capacity(bands);
    let (mut rest, mut start) = (out, 0);
    while start < rows {
        let end = (start + per).min(rows);
        let (band, tail) = rest.split(offset(end) - offset(start));
        rest = tail;
        cut.push((start..end, band));
        start = end;
    }
    let participants = cut.len();
    share(
        cut.into_iter(),
        participants,
        || (),
        |(), (range, band)| f(range, band),
    );
}

/// Runs `f(scratch, start, chunk)` over `out` cut into chunks of
/// `chunk_len` elements (the last may be shorter) starting at index
/// `start`. Up to [`num_threads`] participants, the caller among them,
/// claim the chunks in order, each with a `scratch` built once by `init`;
/// results do not depend on which participant ran a chunk. Returns how
/// many participants ran (0 for an empty `out`, 1 for the caller alone).
/// A panic in any chunk is re-raised on the caller once all stop.
pub fn for_each_chunk<T, S>(
    out: &mut [T],
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) -> usize
where
    T: Send,
{
    let chunk_len = chunk_len.max(1);
    let participants = num_threads().min(out.len().div_ceil(chunk_len));
    let chunks = out.chunks_mut(chunk_len).enumerate();
    share(chunks, participants, init, |scratch, (i, chunk)| {
        f(scratch, i * chunk_len, chunk)
    })
}

/// Runs `f(scratch, item)` for every item of `items` on up to
/// `participants` threads: the caller, and scoped threads that each take
/// the next item under one lock, with a `scratch` built once by `init`.
/// A spawn the OS refuses leaves its share to the participants that did
/// start. Returns how many participants ran (0 when `participants` is 0).
fn share<I, S>(
    items: I,
    participants: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I::Item) + Sync,
) -> usize
where
    I: Iterator + Send,
{
    let items = Mutex::new(items);
    let work = || {
        let mut scratch = init();
        loop {
            // Statement-scoped guard: not held while `f` runs, so a panic
            // in `f` cannot poison it.
            let next = items.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some(item) = next else { break };
            f(&mut scratch, item);
        }
    };
    if participants < 2 {
        if participants == 1 {
            work();
        }
        return participants;
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants)
            .map_while(|_| {
                #[cfg(test)]
                if tests::refusing_threads() {
                    return None;
                }
                std::thread::Builder::new().spawn_scoped(scope, work).ok()
            })
            .collect();
        work();
        let ran = 1 + helpers.len();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
        ran
    })
}

/// Maps `f` over `0..len` in row bands ([`for_each_band`]) and returns the
/// results in index order.
pub fn parallel_map_collect<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    for_each_band(
        len,
        |i| i,
        slots.as_mut_slice(),
        |range, band| {
            for (slot, i) in band.iter_mut().zip(range) {
                *slot = Some(f(i));
            }
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("every index belongs to one band"))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    thread_local! {
        /// Set by [`refusing`]: every spawn this thread asks for fails, as
        /// when the OS is out of threads.
        static REFUSE: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn refusing_threads() -> bool {
        REFUSE.with(Cell::get)
    }

    /// Runs `body` with every thread spawn from this thread refused.
    fn refusing<R>(body: impl FnOnce() -> R) -> R {
        REFUSE.with(|r| r.set(true));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        REFUSE.with(|r| r.set(false));
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Runs `body` with the thread count pinned to `threads`.
    fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(threads);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        set_num_threads(0);
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Every row visited exactly once and every element of `out` written
    /// by the band that owns its row, for the given row offsets.
    fn check_coverage(rows: usize, ptr: &[usize]) {
        let visits: Vec<AtomicU64> = (0..rows).map(|_| AtomicU64::new(0)).collect();
        let mut out = vec![usize::MAX; ptr[rows]];
        for_each_band(
            rows,
            |r| ptr[r],
            out.as_mut_slice(),
            |range, band| {
                assert_eq!(band.len(), ptr[range.end] - ptr[range.start]);
                for r in range.clone() {
                    visits[r].fetch_add(1, Ordering::Relaxed);
                    band[ptr[r] - ptr[range.start]..ptr[r + 1] - ptr[range.start]].fill(r);
                }
            },
        );
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        for r in 0..rows {
            assert!(out[ptr[r]..ptr[r + 1]].iter().all(|&x| x == r));
        }
    }

    #[test]
    fn every_row_is_visited_once_for_strides_and_csr_offsets() {
        for threads in [1, 3, 4, 8] {
            with_threads(threads, || {
                // More rows than threads, fewer, as many, none.
                for rows in [0, 1, 2, 3, 4, 7, 100] {
                    for stride in [0, 1, 5] {
                        let ptr: Vec<usize> = (0..=rows).map(|r| r * stride).collect();
                        check_coverage(rows, &ptr);
                    }
                    // CSR offsets with empty rows (every third row, and a
                    // run at the front).
                    let mut ptr = vec![0];
                    for r in 0..rows {
                        let len = if r % 3 == 1 || r < 2 { 0 } else { r % 4 + 1 };
                        ptr.push(ptr[r] + len);
                    }
                    check_coverage(rows, &ptr);
                }
            });
        }
    }

    #[test]
    fn paired_outputs_split_at_the_same_offsets() {
        with_threads(3, || {
            let ptr = [0usize, 2, 2, 5, 6, 9];
            let mut a = vec![0u32; 9];
            let mut b = vec![0.0f64; 9];
            for_each_band(
                5,
                |r| ptr[r],
                (a.as_mut_slice(), b.as_mut_slice()),
                |range, (ids, vals)| {
                    assert_eq!(ids.len(), vals.len());
                    let base = ptr[range.start];
                    for r in range {
                        for e in ptr[r]..ptr[r + 1] {
                            ids[e - base] = r as u32;
                            vals[e - base] = r as f64;
                        }
                    }
                },
            );
            assert_eq!(a, [0, 0, 2, 2, 2, 3, 4, 4, 4]);
            assert!(a.iter().zip(&b).all(|(&x, &y)| x as f64 == y));
        });
    }

    #[test]
    fn one_thread_or_one_row_runs_inline() {
        let caller = std::thread::current().id();
        let inline = |threads: usize, rows: usize| {
            with_threads(threads, || {
                let seen: std::sync::Mutex<Vec<(Range<usize>, ThreadId)>> = Default::default();
                let mut out = vec![0u8; rows];
                for_each_band(
                    rows,
                    |r| r,
                    out.as_mut_slice(),
                    |range, _| {
                        seen.lock()
                            .expect("no band panics")
                            .push((range, std::thread::current().id()));
                    },
                );
                let seen = seen.into_inner().expect("no band panics");
                assert_eq!(seen.len(), 1);
                assert_eq!(seen[0], (0..rows, caller));
            })
        };
        inline(1, 50);
        inline(4, 1);
        inline(4, 0);
    }

    #[test]
    #[should_panic(expected = "band 2 failed")]
    fn a_panicking_band_propagates_the_panic() {
        with_threads(4, || {
            let mut out = vec![0u8; 4];
            for_each_band(
                4,
                |r| r,
                out.as_mut_slice(),
                |range, _| {
                    if range.contains(&2) {
                        panic!("band 2 failed");
                    }
                },
            );
        });
    }

    #[test]
    fn refused_threads_leave_the_bands_to_the_caller() {
        let caller = std::thread::current().id();
        with_threads(4, || {
            refusing(|| {
                let mut out = vec![0usize; 10];
                for_each_band(
                    10,
                    |r| r,
                    out.as_mut_slice(),
                    |range, band| {
                        assert_eq!(std::thread::current().id(), caller);
                        for (x, r) in band.iter_mut().zip(range) {
                            *x = r + 1;
                        }
                    },
                );
                assert_eq!(out, (1..=10).collect::<Vec<_>>());
            });
        });
    }

    /// Fills `len` elements through [`for_each_chunk`] and checks that each
    /// was written once, by the chunk that owns it; returns the
    /// participants that ran, the `init` calls and the threads seen.
    fn fill_chunks(len: usize, chunk_len: usize) -> (usize, usize, Vec<ThreadId>) {
        let inits = AtomicUsize::new(0);
        let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let mut out = vec![0usize; len];
        let ran = for_each_chunk(
            &mut out,
            chunk_len,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().push(std::thread::current().id());
                0usize
            },
            |writes, start, chunk| {
                assert!(chunk.len() == chunk_len || start + chunk.len() == len);
                assert_eq!(start % chunk_len, 0);
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x += start + i + 1;
                    *writes += 1;
                }
            },
        );
        assert_eq!(
            out,
            (1..=len).collect::<Vec<_>>(),
            "len {len} by {chunk_len}"
        );
        (ran, inits.into_inner(), threads.into_inner().unwrap())
    }

    #[test]
    fn chunks_are_written_once_at_every_thread_count() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            with_threads(threads, || {
                // More chunks than threads, as many, fewer, one, none.
                for (len, chunk_len) in [(100, 8), (24, 8), (17, 8), (5, 8), (0, 8), (9, 1)] {
                    let (ran, inits, seen) = fill_chunks(len, chunk_len);
                    let chunks = len.div_ceil(chunk_len);
                    assert_eq!(
                        ran,
                        threads.min(chunks),
                        "{threads} threads, {chunks} chunks"
                    );
                    assert_eq!(inits, ran, "one scratch per participant");
                    if ran > 0 {
                        assert!(seen.contains(&caller), "the caller participates");
                    }
                }
            });
        }
    }

    #[test]
    fn refused_threads_leave_the_chunks_to_the_caller() {
        let caller = std::thread::current().id();
        with_threads(4, || {
            refusing(|| {
                let (ran, inits, seen) = fill_chunks(100, 8);
                assert_eq!((ran, inits), (1, 1));
                assert_eq!(seen, vec![caller]);
            });
        });
    }

    #[test]
    #[should_panic(expected = "chunk 3 failed")]
    fn a_panicking_chunk_propagates_the_panic() {
        with_threads(3, || {
            let mut out = vec![0u8; 40];
            for_each_chunk(
                &mut out,
                4,
                || (),
                |(), start, _| {
                    if start == 12 {
                        panic!("chunk 3 failed");
                    }
                },
            );
        });
    }

    #[test]
    fn concurrent_callers_keep_their_own_chunks_and_panics() {
        with_threads(3, || {
            std::thread::scope(|scope| {
                let doomed = scope.spawn(|| {
                    std::panic::catch_unwind(|| {
                        let mut out = vec![0u8; 64];
                        for_each_chunk(
                            &mut out,
                            4,
                            || (),
                            |(), start, _| {
                                assert_ne!(start, 32, "boom");
                            },
                        );
                    })
                });
                let healthy: Vec<_> = (0..3)
                    .map(|_| scope.spawn(|| (0..50).map(|n| fill_chunks(5 + n, 3).0).max()))
                    .collect();
                assert!(
                    doomed.join().expect("caught").is_err(),
                    "the caller re-raises"
                );
                for caller in healthy {
                    assert!(caller.join().expect("untouched by the panic") >= Some(1));
                }
            });
        });
    }

    #[test]
    fn nested_forks_complete() {
        with_threads(4, || {
            let mut outer = vec![0usize; 16];
            for_each_chunk(
                &mut outer,
                2,
                || (),
                |(), start, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        let mut inner = vec![0usize; 9];
                        for_each_chunk(
                            &mut inner,
                            2,
                            || (),
                            |(), s, c| {
                                for (j, y) in c.iter_mut().enumerate() {
                                    *y = s + j;
                                }
                            },
                        );
                        *x = start + i + inner.iter().sum::<usize>();
                    }
                },
            );
            assert_eq!(outer, (0..16).map(|i| i + 36).collect::<Vec<_>>());
        });
    }

    #[test]
    fn thread_count_is_capped() {
        // Reads the count only: no fork runs, so no thread starts.
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(100_000);
        assert_eq!(num_threads(), MAX_THREADS);
        set_num_threads(0);
        assert!((1..=MAX_THREADS).contains(&num_threads()));
    }

    #[test]
    fn parallel_map_collect_preserves_order() {
        let out = parallel_map_collect(500, |i| i * 2);
        assert_eq!(out.len(), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn thread_override_round_trips() {
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
        let out = parallel_map_collect(10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }
}
