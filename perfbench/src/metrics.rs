//! The names and units of every metric the benchmark prints. They mirror
//! `BENCHMARK.json`; `tests/contract.rs` fails when the two disagree.
//!
//! Every run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), so an end-to-end name means the same kind of thing on
//! every workload; what it is on each is listed in `README.md`.

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 6] = [
    "build_tucker_bound",
    "build_cluster_bound",
    "query_single",
    "query_sharded_batch",
    "serve_open",
    "serve_reload_mix",
];

/// `(name, unit)` of what a user of the system sees.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("ready_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
];

/// `(name, unit)` per layer; layers are the repository's modules. A layer
/// a workload does not enter reports 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("folksonomy.read_tsv_ms", "ms"),
    ("folksonomy.clean_ms", "ms"),
    ("folksonomy.clean_rounds", "count"),
    ("folksonomy.tags_kept_share", "share"),
    ("tensor_build.ms", "ms"),
    ("tensor_build.nnz", "count"),
    ("tucker.ms", "ms"),
    ("tucker.iterations", "count"),
    ("tucker.fit", "share"),
    ("tucker.core_cells", "count"),
    ("tucker.rss_delta_mb", "MB"),
    ("distance.embedding_ms", "ms"),
    ("distance.pairwise_ms", "ms"),
    ("concepts.spectral_ms", "ms"),
    ("concepts.kmeans_ms", "ms"),
    ("concepts.kmeans_iterations", "count"),
    ("concepts.num_concepts", "count"),
    ("index.build_ms", "ms"),
    ("index.postings", "count"),
    ("index.hot_bytes_per_posting", "B"),
    ("index.prepare_query_us", "us"),
    ("persist.save_ms", "ms"),
    ("persist.load_owned_ms", "ms"),
    ("persist.load_zero_copy_ms", "ms"),
    ("persist.bytes_per_assignment", "B"),
    ("query.search_us_k10", "us"),
    ("query.search_us_k100", "us"),
    ("query.exact_us_k10", "us"),
    ("query.compressed_us_k10", "us"),
    ("shard.auto_us_k10", "us"),
    ("shard.scatter_us_k10", "us"),
    ("shard.vs_single_ratio", "ratio"),
    ("shard.load_source_ms", "ms"),
    ("exec.inline_share", "share"),
    ("exec.fanout", "count"),
    ("exec.stolen_share", "share"),
    ("exec.pool_size", "count"),
    ("exec.batch_us_per_query", "us"),
    ("serve.wire_overhead_p50_us", "us"),
    ("serve.search_p50_us", "us"),
    ("serve.p999_us", "us"),
    ("serve.max_rate_slo", "1/s"),
    ("serve.p99_us_at_2k", "us"),
    ("serve.p99_us_at_16k", "us"),
    ("serve.p99_us_at_24k", "us"),
    ("serve.gen_lag_p99_us", "us"),
    ("serve.busy_rejected", "count"),
    ("serve.deadline_timeouts", "count"),
    ("serve.slow_client_drops", "count"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.reload_max_ms", "ms"),
    ("serve.reload_drift", "ratio"),
    ("serve.p99_us_during_reload", "us"),
    ("serve.saturation_qps", "1/s"),
    ("query.qps_k100", "1/s"),
    ("shard.auto_qps", "1/s"),
    ("query.p99_us_k10", "us"),
    ("shard.auto_p99_us_k10", "us"),
    ("serve.p99_us_at_8k", "us"),
    ("serve.p99_us_mix", "us"),
    ("trace.coverage", "share"),
    ("trace.overhead_share", "share"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the operator; never parsed.
    pub notes: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.0 == name),
            "unregistered metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    /// The result line the contract asks for: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let registry: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(registry.len());
        for (name, unit) in registry {
            let value = match self.get(name) {
                Some(v) => v,
                // A layer this workload never enters did no work.
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}
