//! The cmpqos benchmark: three workloads, each run in one process and one
//! thread, through entry points users already run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mix_qos --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! repeats the same units untraced and then traced, and reports the
//! per-layer metrics, the tracing overhead and the reconciliation of layer
//! self times against the untraced total. The last line of standard output
//! is one JSON object; every line before it is the human-readable report.
//! See `perfbench/README.md` for the workloads, ops and layer map.

mod gac_chaos;
mod harness;
mod mix_qos;
mod spans;
mod traffic_tiers;

use std::process::ExitCode;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of every tuning run of this benchmark. A later speed
/// claim must also hold on it (`--seed 7919`).
pub const HELD_OUT_SEED: u64 = 7919;

const USAGE: &str = "usage: cmpqos-perfbench --workload <mix_qos|traffic_tiers|gac_chaos> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every unit's inputs derive from it.
    pub seed: u64,
    /// Nominal measuring time; it sizes the unit list, never stops it.
    pub seconds: u64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cmpqos-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "mix_qos" => harness::drive(&mut mix_qos::MixQos::new(), &args),
        "traffic_tiers" => harness::drive(&mut traffic_tiers::TrafficTiers::new(), &args),
        "gac_chaos" => harness::drive(&mut gac_chaos::GacChaos::new(), &args),
        other => {
            eprintln!("cmpqos-perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
