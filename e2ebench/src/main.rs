//! Wall-clock end-to-end benchmark of the eNODE serving and training
//! stack. See `README.md` next to this package for the workloads, the
//! metrics and what each per-layer metric should move.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_dyn --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod layers;
mod report;
mod serving;
mod training;

use std::time::Instant;

/// The workloads, in the order `--workload` accepts them.
const WORKLOADS: [&str; 3] = ["serve_dyn", "serve_img", "train_img"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start, the origin of the first `setup_s` sample.
    pub started: Instant,
}

fn parse(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        started,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && (1.0..=120.0).contains(&args.seconds)) {
        return Err("--seconds must be within 1..=120".into());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = parse(started).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        eprintln!(
            "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "serve_dyn" => serving::run(serving::Kind::Dyn, &args),
        "serve_img" => serving::run(serving::Kind::Img, &args),
        _ => training::run(&args),
    };
    outcome.print();
}
