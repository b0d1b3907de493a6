//! Metric records, the nearest-rank percentile helpers, and the one-line
//! JSON result the benchmark prints last.

use crate::Args;
use enode_serve::fleet::percentile_us;
use enode_tensor::parallel;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric constructor that keeps call sites short.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("capacity_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("full_tier_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload never reaches (the server on `train_img`, training on the
/// serving workloads, a kernel its model lacks) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run.host_cpus", "count"),
    ("run.pool_threads", "count"),
    ("untraced.latency_samples", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("untraced.latency_p50_ms", "ms"),
    ("traced.latency_p50_ms", "ms"),
    ("trace.latency_ratio", "ratio"),
    ("trace.stage_sum_share", "ratio"),
    ("server.submit_us_p50", "us"),
    ("server.form_us_p50", "us"),
    ("server.deliver_us_p50", "us"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p95", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("server.failed", "count"),
    ("eval.solve_ms_p50", "ms"),
    ("eval.solve_us_per_request", "us"),
    ("model.service_drift", "ratio"),
    ("inference.forward_us_p50", "us"),
    ("inference.us_per_nfe", "us"),
    ("inference.overhead_us_per_nfe", "us"),
    ("inference.nfe_per_request", "count"),
    ("inference.trials_per_request", "count"),
    ("inference.accepted_share", "ratio"),
    ("network.eval_us", "us"),
    ("kernel.dense_fwd_us", "us"),
    ("kernel.dense_fwd_flops", "flop"),
    ("kernel.dense_fwd_bytes", "B"),
    ("kernel.conv_fwd_us", "us"),
    ("kernel.conv_fwd_flops", "flop"),
    ("kernel.conv_fwd_bytes", "B"),
    ("kernel.conv_bwd_input_us", "us"),
    ("kernel.conv_bwd_input_flops", "flop"),
    ("kernel.conv_bwd_input_bytes", "B"),
    ("kernel.conv_bwd_params_us", "us"),
    ("kernel.conv_bwd_params_flops", "flop"),
    ("kernel.conv_bwd_params_bytes", "B"),
    ("train.forward_ms", "ms"),
    ("train.loss_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.fwd_nfe", "count"),
    ("train.bwd_local_nfe", "count"),
    ("train.vjp_evals", "count"),
    ("train.steps_to_acc", "count"),
    ("train.checkpoint_bytes", "B"),
    ("train.episode_s", "s"),
];

/// Orders `measured` as `list` does and fills each metric it lacks with
/// 0 (a layer not on this workload's path).
///
/// # Panics
///
/// Panics if `measured` names a metric `list` lacks, or gives one with
/// another unit: the lists above are the benchmark's declared contract.
pub fn complete(list: &[(&'static str, &'static str)], measured: Vec<Metric>) -> Vec<Metric> {
    for mt in &measured {
        assert!(
            list.contains(&(mt.name, mt.unit)),
            "undeclared metric {} [{}]",
            mt.name,
            mt.unit
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|mt| mt.name == name)
                .map_or(0.0, |mt| mt.value);
            m(name, value, unit)
        })
        .collect()
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, or training steps plus episodes).
    pub attempted: u64,
    /// Attempted operations that did not succeed.
    pub failed: u64,
    /// The metrics the mode reports (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Run context printed as text before the result line.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Prints the human-readable report, then the JSON result as the last
    /// line of standard output.
    ///
    /// # Panics
    ///
    /// Panics if a metric is not finite (a bug in the benchmark: JSON has
    /// no spelling for it).
    pub fn print(&self) {
        for (k, v) in &self.context {
            println!("# {k}: {v}");
        }
        for mt in &self.metrics {
            println!("# {:<34} {:>16.6} {}", mt.name, mt.value, mt.unit);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|mt| {
                assert!(mt.value.is_finite(), "metric {} is {}", mt.name, mt.value);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    mt.name, mt.value, mt.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Context lines every run prints: host, pool width, seed, sample counts
/// and how late the generator ran.
pub fn context(
    args: &Args,
    counts: &[(&'static str, usize)],
    late_p99_ms: f64,
) -> Vec<(&'static str, String)> {
    let mut c = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("host_cpus", host_cpus().to_string()),
        ("pool_threads", parallel::default_threads().to_string()),
        ("loadgen.late_p99_ms", format!("{late_p99_ms:.4}")),
    ];
    c.extend(counts.iter().map(|&(k, v)| (k, v.to_string())));
    c
}

/// The percentile over blocks at which block timings are reported: the
/// quietest tenth. Other tenants of the host only ever add time, and
/// their contention comes and goes, at times covering most of a run, so
/// each timing is taken per block and the block at p10 of times (p90 of
/// rates) stands for the program; a median would follow the neighbours.
pub const QUIET: u64 = 10;

/// Nearest-rank percentile of unsorted integer samples, divided by `per`
/// (for nanoseconds, 1e3 gives µs and 1e6 gives ms). 0 when empty.
pub fn pct(samples: &[u64], pct: u64, per: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_us(&sorted, pct) as f64 / per
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples: the tail that percentile rests on.
pub fn samples_beyond(n: usize, pct: u64) -> usize {
    let rank = (n as u64 * pct).div_ceil(100).max(1) as usize;
    n.saturating_sub(rank)
}

/// Smallest sample count whose nearest-rank `pct` percentile has at least
/// `tail` samples beyond it.
pub fn min_samples_for_tail(pct: u64, tail: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= tail)
        .expect("unbounded search")
}

/// `a / b`, or 0 when `b` is 0 (a stage that never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of a sample, 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU count and the tensor pool's width, as per-layer
/// metrics.
pub fn host_metrics() -> Vec<Metric> {
    vec![
        m("run.host_cpus", host_cpus() as f64, "count"),
        m(
            "run.pool_threads",
            parallel::default_threads() as f64,
            "count",
        ),
    ]
}

/// Logical CPUs the host offers this process.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_samples_has_ten_beyond_it() {
        assert_eq!(min_samples_for_tail(95, 10), 200);
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(samples_beyond(199, 95), 9);
    }

    #[test]
    fn pct_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).rev().map(|v| v * 1000).collect();
        assert_eq!(pct(&xs, 50, 1e3), 50.0);
        assert_eq!(pct(&xs, 95, 1e3), 95.0);
    }
}
