//! One runtime choice of vector width for the build's dense kernels.
//!
//! The workspace compiles for baseline x86-64, whose widest vector is
//! SSE2's two doubles. A kernel that runs its body through [`run`] has that
//! body compiled three times — for AVX-512F, for AVX2 and for the baseline
//! — and runs the widest the CPU has. Rust never contracts `a * b + c`
//! into a fused multiply–add and never reorders a float sum, so a body that
//! vectorises across independent outputs computes the same bits at every
//! width: the level changes the time a kernel takes, never its result. The
//! one exception is a NaN's sign, which depends on the operand order the
//! compiler picks for an add; the model never holds a NaN. The tests hold
//! every level the host supports to the baseline, bit for bit.
//!
//! Nothing chooses the level but the CPU: there is no option, environment
//! variable or Cargo feature. Under Miri the body always runs as compiled
//! (the interpreter has no vector intrinsics to run).

/// A width the kernels can be compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The workspace's own target: SSE2 on x86-64, whatever the target
    /// has elsewhere. The level every other one is tested against.
    Baseline,
    /// AVX2: four doubles a register, sixteen registers.
    Avx2,
    /// AVX-512F: eight doubles a register, thirty-two registers.
    Avx512f,
}

impl Level {
    /// The name `build` prints.
    pub fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            Level::Avx2 => "avx2",
            Level::Avx512f => "avx512f",
        }
    }
}

/// The level [`run`] runs at: the widest the CPU supports. The standard
/// library reads the CPU's features once and caches them, so a call costs
/// an atomic load.
pub fn level() -> Level {
    #[cfg(test)]
    if let Some(pinned) = tests::pinned() {
        return pinned;
    }
    supported()
}

/// The widest level this CPU supports.
fn supported() -> Level {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Level::Avx512f;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
    }
    Level::Baseline
}

/// Runs `body` compiled for [`level`]. The body's code only gets the wider
/// instructions where it is inlined into the wrapper, so pass a closure
/// marked `#[inline(always)]` whose callees are `#[inline(always)]` too;
/// a parallel kernel calls this inside each band, on the band's thread.
#[inline(always)]
pub fn run<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    match level() {
        // SAFETY: `level` returns `Avx512f` only when
        // `is_x86_feature_detected!("avx512f")` holds on this CPU (the test
        // pin only takes levels at or below what `supported` detects).
        Level::Avx512f => return unsafe { avx512f(body) },
        // SAFETY: `level` returns `Avx2` only when
        // `is_x86_feature_detected!("avx2")` holds, or when the test pin
        // lowered a detected AVX-512F, which implies AVX2.
        Level::Avx2 => return unsafe { avx2(body) },
        Level::Baseline => {}
    }
    body()
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn avx512f<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Every level, narrowest first.
    const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512f];

    /// 0: not pinned; otherwise 1 + the pinned level's index in `ALL`.
    static PINNED: AtomicU8 = AtomicU8::new(0);

    pub(super) fn pinned() -> Option<Level> {
        // ORDER: independent config cell, written only by a test that
        // holds `TEST_THREAD_LOCK`; it publishes no other data.
        match PINNED.load(Ordering::Relaxed) {
            0 => None,
            i => Some(ALL[usize::from(i) - 1]),
        }
    }

    /// Every level this host supports, narrowest first.
    pub(crate) fn supported_levels() -> Vec<Level> {
        ALL.into_iter().filter(|&l| l <= supported()).collect()
    }

    /// Runs `f` once per supported level with [`run`] pinned to it, then
    /// unpins. The caller holds `parallel::TEST_THREAD_LOCK`: every level
    /// computes the same bits, so a concurrent test that sees the pin gets
    /// its usual results, but two pinning tests must not interleave.
    pub(crate) fn for_each_level(mut f: impl FnMut(Level)) {
        for level in supported_levels() {
            let index = ALL.iter().position(|&l| l == level).expect("listed");
            // ORDER: see `pinned`.
            PINNED.store(index as u8 + 1, Ordering::Relaxed);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(level)));
            // ORDER: see `pinned`.
            PINNED.store(0, Ordering::Relaxed);
            if let Err(panic) = out {
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[test]
    fn run_reports_every_supported_level_and_stops_at_the_cpu() {
        let _guard = crate::parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let levels = supported_levels();
        assert_eq!(levels[0], Level::Baseline);
        assert_eq!(*levels.last().expect("baseline"), supported());
        let mut seen = Vec::new();
        for_each_level(|pinned| {
            assert_eq!(level(), pinned);
            seen.push(run(|| 40 + 2));
        });
        assert_eq!(seen, vec![42; levels.len()]);
        assert_eq!(level(), supported());
    }
}
