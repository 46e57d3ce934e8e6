//! What every workload is handed: the seed, the time to measure for, the
//! program under test, a scratch directory inside the checkout, and the
//! span recorder of a traced run.

use crate::stats::median;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run at least; `setup_s` is the median of them.
pub const SETUPS: usize = 3;
/// Cheap set-ups repeat until they have taken this long together (a
/// 17 ms set-up read three times moves by a third between runs), but no
/// more than [`MAX_SETUPS`] times.
const SETUP_SECONDS: f64 = 0.5;
const MAX_SETUPS: usize = 24;

pub struct Ctx {
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    pub traced: bool,
    /// Corpora and durations are divided by this (10 under `--smoke`).
    pub shrink: f64,
    /// `nproc`: the thread count given to the program under test, and the
    /// cap on load-generator threads and connections.
    pub cores: usize,
    /// `cubelsi-search`, built from this checkout.
    pub cli: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn scale(&self, full: f64) -> f64 {
        full / self.shrink
    }

    /// Sets up at least [`SETUPS`] times, each from scratch and each dropped
    /// before the next, and returns the last set-up with the median time.
    pub fn set_up<T>(
        &mut self,
        mut f: impl FnMut(&mut Ctx) -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        while times.len() < SETUPS
            || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < MAX_SETUPS)
        {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(f(self)?);
            times.push(t0.elapsed().as_secs_f64());
        }
        let state = last.ok_or_else(|| "no set-up ran".to_owned())?;
        Ok((state, median(&times)))
    }
}
