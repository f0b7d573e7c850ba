//! Machine-readable experiment output.
//!
//! `cmpqos fig5` and `cmpqos fig9`, run alone, honour
//! `CMPQOS_JSON=<path>`: in addition to the human tables, their raw run
//! outcomes are serialized to that file (one JSON document) so results
//! can be diffed, plotted or regression-tracked. `cmpqos run --json`
//! writes one run the same way. `serde_json` is justified in `DESIGN.md`:
//! `serde` alone supplies no wire format.

use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Serializes `value` as pretty JSON to `path`.
///
/// # Errors
///
/// Returns any I/O error from writing the file, or a serialization error
/// (wrapped in [`io::Error`]).
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let body = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    fs::write(path, body)
}

/// If `CMPQOS_JSON` is set, writes `value` there and reports the location
/// on stdout. Errors are reported, not fatal (the human output already
/// happened).
pub fn maybe_dump<T: Serialize>(value: &T) {
    let Ok(path) = std::env::var("CMPQOS_JSON") else {
        return;
    };
    let path = Path::new(&path);
    match write_json(path, value) {
        Ok(()) => println!("(raw results written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Instructions;
    use cmpqos_workloads::runner::{run, RunConfig};
    use cmpqos_workloads::{Configuration, WorkloadSpec};

    #[test]
    fn run_outcome_round_trips_through_json() {
        let outcome = run(&RunConfig {
            workload: WorkloadSpec::single("namd", 3),
            configuration: Configuration::AllStrict,
            scale: 16,
            work: Instructions::new(20_000),
            seed: 1,
            stealing_enabled: true,
            events: None,
        });
        let json = serde_json::to_string(&outcome).expect("serializes");
        assert!(json.contains("makespan"));
        assert!(json.contains("AllStrict"));
        let back: cmpqos_workloads::runner::RunOutcome =
            serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.makespan, outcome.makespan);
        assert_eq!(back.accepted.len(), outcome.accepted.len());
        assert_eq!(
            back.accepted[0].report.perf.instructions(),
            outcome.accepted[0].report.perf.instructions()
        );
    }

    #[test]
    fn write_json_creates_the_file() {
        let dir = std::env::temp_dir().join("cmpqos_json_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("out.json");
        write_json(&path, &vec![1u32, 2, 3]).expect("writes");
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.contains('2'));
        let _ = std::fs::remove_file(&path);
    }
}
