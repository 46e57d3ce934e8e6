//! Query dispatch counters.
//!
//! Query parallelism runs on `cubelsi_linalg::parallel`'s scoped fork–join
//! like the build's kernels; this module only counts, for the benchmark's
//! `exec.*` rows, how each dispatch decision went: a query or batch
//! answered on the caller thread alone (`inline`), or by several threads
//! (`fanout`).

use std::sync::atomic::{AtomicU64, Ordering};

static INLINE: AtomicU64 = AtomicU64::new(0);
static FANOUT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the dispatch counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Always 0: there is no pool. `perfbench` still reads it (ROADMAP
    /// item 2(b)).
    pub pool_size: usize,
    /// Always 0: no pool executes tasks. `perfbench` still reads it
    /// (ROADMAP item 2(b)).
    pub executed: u64,
    /// Always 0: no task changes hands. `perfbench` still reads it
    /// (ROADMAP item 2(b)).
    pub stolen: u64,
    /// Dispatch decisions that stayed on the caller thread.
    pub inline: u64,
    /// Dispatch decisions that ran on more than one thread.
    pub fanout: u64,
}

/// Counts one dispatch decision by the participants that answered it:
/// one is `inline`, more is `fanout`, and none (an empty batch) is no
/// decision at all.
pub(crate) fn note_dispatch(participants: usize) {
    let counter = match participants {
        0 => return,
        1 => &INLINE,
        _ => &FANOUT,
    };
    counter.fetch_add(1, Ordering::Relaxed); // ORDER: stats counter; Relaxed default.
}

/// The process-wide dispatch counters.
pub fn stats() -> ExecutorStats {
    ExecutorStats {
        inline: INLINE.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
        fanout: FANOUT.load(Ordering::Relaxed), // ORDER: stats counter; Relaxed default.
        ..ExecutorStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_linalg::parallel;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Barrier, Mutex, PoisonError};
    use std::thread::ThreadId;

    /// Serializes the tests that pin the process-wide thread count.
    static THREADS: Mutex<()> = Mutex::new(());

    /// Runs `body` with the thread count pinned to `threads`.
    fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
        let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        parallel::set_num_threads(threads);
        let out = catch_unwind(AssertUnwindSafe(body));
        parallel::set_num_threads(0);
        out.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Forks `tasks` slots in chunks of `chunk_len` the way a query batch
    /// does (`for_each_chunk`, then `note_dispatch`); returns the slots,
    /// the participants that ran and the thread of each scratch built.
    fn fill_batch(tasks: usize, chunk_len: usize) -> (Vec<u64>, usize, Vec<ThreadId>) {
        let mut out = vec![0u64; tasks];
        let scratches = Mutex::new(Vec::new());
        let ran = parallel::for_each_chunk(
            &mut out,
            chunk_len,
            || scratches.lock().unwrap().push(std::thread::current().id()),
            |(), start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (start + i) as u64 * 3 + 1;
                }
            },
        );
        note_dispatch(ran);
        (out, ran, scratches.into_inner().unwrap())
    }

    fn assert_filled(out: &[u64]) {
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 3 + 1, "slot {i}");
        }
    }

    #[test]
    fn pool_runs_every_task_and_reuses_threads() {
        // There is no pool: a participant reuses its thread and its
        // scratch for chunk after chunk, so 97 one-task chunks run on at
        // most 4 threads with one scratch each.
        with_threads(4, || {
            for _round in 0..5 {
                let (out, ran, scratches) = fill_batch(97, 1);
                assert_filled(&out);
                assert_eq!(ran, 4);
                assert_eq!(scratches.len(), ran, "one scratch per participant");
                assert_eq!(scratches.iter().collect::<HashSet<_>>().len(), ran);
            }
        });
    }

    #[test]
    fn width_is_clamped_to_task_count() {
        // A batch smaller than the thread count engages one participant
        // per task, the caller among them.
        with_threads(8, || {
            let (out, ran, scratches) = fill_batch(3, 1);
            assert_eq!(out, vec![1, 4, 7]);
            assert_eq!(ran, 3, "3 tasks at 8 threads");
            assert!(scratches.contains(&std::thread::current().id()));
        });
    }

    #[test]
    fn degenerate_shapes_run_inline_without_workers() {
        let caller = std::thread::current().id();
        with_threads(1, || {
            let (out, ran, scratches) = fill_batch(16, 1);
            assert_filled(&out);
            assert_eq!((ran, scratches), (1, vec![caller]));
        });
        with_threads(8, || {
            let (out, ran, scratches) = fill_batch(1, 1);
            assert_eq!((out, ran, scratches), (vec![1], 1, vec![caller]));
            let (out, ran, scratches) = fill_batch(0, 1);
            assert!(out.is_empty() && scratches.is_empty());
            assert_eq!(ran, 0, "an empty batch starts nobody");
        });
    }

    #[test]
    fn run_chunked_fills_every_slot_and_counts_the_decision() {
        // The counters are process-wide and other tests dispatch
        // concurrently, so only a lower bound on their growth holds.
        let before = stats();
        for (threads, n, participants) in [(1, 40, 1), (4, 8, 1), (4, 9, 2), (4, 97, 4), (4, 0, 0)]
        {
            with_threads(threads, || {
                let (out, ran, _) = fill_batch(n, 8);
                assert_filled(&out);
                assert_eq!(ran, participants, "{n} slots at {threads} threads");
            });
        }
        // One thread and one chunk's worth stay inline; an empty batch
        // is no decision at all.
        let after = stats();
        assert!(after.inline >= before.inline + 2);
        assert!(after.fanout >= before.fanout + 2);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        // Concurrent submitters share one thread count and one set of
        // counters; each forks its own participants and gets its own
        // slots back, and no decision is lost.
        with_threads(4, || {
            let before = stats();
            let submitters: Vec<_> = (0..4)
                .map(|submitter| {
                    std::thread::spawn(move || {
                        for round in 0..50 {
                            let (out, ran, _) = fill_batch(5 + (submitter + round) % 23, 1);
                            assert_filled(&out);
                            assert!((1..=4).contains(&ran));
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().expect("every submitter's batches fill");
            }
            let after = stats();
            let decisions = |s: ExecutorStats| s.inline + s.fanout;
            assert!(decisions(after) >= decisions(before) + 4 * 50);
        });
    }

    #[test]
    fn panic_stays_with_its_own_submitter() {
        // Both batches are in flight when the panic happens: chunk 0 of
        // each waits for chunk 0 of the other.
        with_threads(4, || {
            let both_running = Arc::new(Barrier::new(2));
            let doomed = {
                let both_running = Arc::clone(&both_running);
                std::thread::spawn(move || {
                    catch_unwind(|| {
                        let mut out = vec![0u8; 16];
                        parallel::for_each_chunk(
                            &mut out,
                            1,
                            || (),
                            |(), start, _| {
                                if start == 0 {
                                    both_running.wait();
                                    panic!("chunk 0 boom");
                                }
                            },
                        );
                    })
                })
            };
            let healthy = std::thread::spawn(move || {
                let mut out = vec![0u64; 16];
                parallel::for_each_chunk(
                    &mut out,
                    1,
                    || (),
                    |(), start, chunk| {
                        if start == 0 {
                            both_running.wait();
                        }
                        chunk[0] = start as u64 * 3 + 1;
                    },
                );
                out
            });
            assert!(doomed.join().unwrap().is_err(), "the submitter re-raises");
            assert_filled(&healthy.join().expect("the other batch is untouched"));
        });
    }

    #[test]
    fn counters_track_dispatch_decisions() {
        // The counters are process-wide and other tests dispatch queries
        // concurrently, so only a lower bound on the growth holds.
        let before = stats();
        note_dispatch(1);
        note_dispatch(1);
        note_dispatch(3);
        note_dispatch(0);
        let after = stats();
        assert!(after.inline >= before.inline + 2);
        assert!(after.fanout > before.fanout);
        assert_eq!((after.pool_size, after.executed, after.stolen), (0, 0, 0));
    }
}
