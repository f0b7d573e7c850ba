//! Shared experiment parameters.

use cmpqos_system::SystemConfig;
use cmpqos_types::Instructions;
use std::fmt;
use std::path::PathBuf;

/// Global knobs for every experiment: the geometry scale factor, the
/// per-job instruction budget, the master seed, the worker-pool width and
/// an optional JSONL event log (see `cmpqos-obs`).
///
/// Defaults reproduce the paper's shapes in seconds per experiment;
/// `scale 1, work 200000000` is the paper's literal setup. Each knob is a
/// `cmpqos` flag (`--scale`) and a variable (`CMPQOS_SCALE`), both checked
/// by [`ExperimentParams::set`]. Results are bit-identical at every
/// `jobs` width — see `docs/performance.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Geometry scale factor `k` (see
    /// [`cmpqos_system::SystemConfig::paper_scaled`]).
    pub scale: u64,
    /// Instructions per job.
    pub work: Instructions,
    /// Master seed.
    pub seed: u64,
    /// Worker-pool width for independent experiment cells (1 = serial).
    pub jobs: usize,
    /// When set, every run appends its event stream to this JSONL file.
    pub events: Option<PathBuf>,
}

impl ExperimentParams {
    /// The knobs [`ExperimentParams::set`] takes, by flag name. Knob
    /// `name` is read from the environment as `CMPQOS_<NAME>`.
    pub const FLAGS: [&'static str; 5] = ["scale", "work", "seed", "jobs", "events"];

    /// The most instructions per job [`ExperimentParams::set`] takes: 2^32,
    /// 21 times the paper's 200M-instruction jobs. Past it a cell would
    /// run for days, and the runner's cycle arithmetic would overflow.
    pub const MAX_WORK: Instructions = Instructions::new(1 << 32);

    /// Default experiment fidelity: scale 8, 800k instructions/job, one
    /// engine worker per available core.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            scale: 8,
            work: Instructions::new(800_000),
            seed: 1,
            jobs: cmpqos_engine::default_jobs(),
            events: None,
        }
    }

    /// Fast parameters for tests: scale 16, 80k instructions/job, serial
    /// (tests already run in parallel under the libtest harness).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            scale: 16,
            work: Instructions::new(80_000),
            seed: 1,
            jobs: 1,
            events: None,
        }
    }

    /// [`ExperimentParams::standard`] with every `CMPQOS_*` knob that is
    /// set (and not blank) applied through [`ExperimentParams::set`], so
    /// a variable passes exactly the check its flag does.
    ///
    /// # Errors
    ///
    /// The first variable whose value fails that check.
    pub fn from_env() -> Result<Self, EnvError> {
        let mut params = Self::standard();
        for flag in Self::FLAGS {
            let var = format!("CMPQOS_{}", flag.to_ascii_uppercase());
            let raw = std::env::var(&var).unwrap_or_default();
            let value = raw.trim();
            if !value.is_empty() {
                params.set(flag, value).map_err(|reason| EnvError {
                    var,
                    value: value.to_string(),
                    reason,
                })?;
            }
        }
        Ok(params)
    }

    /// Sets the knob `flag` (one of [`ExperimentParams::FLAGS`]) from its
    /// text. A `scale` of 0 reads as 1, `work` is at least 1,000
    /// instructions, and `jobs` 0 means one worker per available core.
    ///
    /// # Errors
    ///
    /// Why the value is refused: not an unsigned integer, a scale that
    /// leaves the paper node no valid cache geometry, a `work` above
    /// [`ExperimentParams::MAX_WORK`], an empty path, or a name outside
    /// [`ExperimentParams::FLAGS`].
    pub fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| "expected an unsigned integer".to_string())
        };
        match flag {
            "scale" => {
                let scale = number()?.max(1);
                SystemConfig::try_paper_scaled(scale).map_err(|e| e.to_string())?;
                self.scale = scale;
            }
            "work" => {
                let work = Instructions::new(number()?.max(1_000));
                if work > Self::MAX_WORK {
                    return Err(format!(
                        "at most {} instructions per job",
                        Self::MAX_WORK.get()
                    ));
                }
                self.work = work;
            }
            "seed" => self.seed = number()?,
            "jobs" => match usize::try_from(number()?) {
                Ok(0) => self.jobs = cmpqos_engine::default_jobs(),
                Ok(n) => self.jobs = n,
                Err(_) => return Err("too many workers".into()),
            },
            "events" if value.is_empty() => return Err("expected a path".into()),
            "events" => self.events = Some(PathBuf::from(value)),
            other => return Err(format!("no experiment knob named `{other}`")),
        }
        Ok(())
    }
}

/// A `CMPQOS_*` variable whose value fails the check of its flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable, e.g. `CMPQOS_SCALE`.
    pub var: String,
    /// Its (trimmed) value.
    pub value: String,
    /// Why the value is refused.
    pub reason: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let p = ExperimentParams::standard();
        assert_eq!(p.scale, 8);
        assert_eq!(ExperimentParams::default(), p);
        assert!(ExperimentParams::quick().work < p.work);
        assert_eq!(p.events, None);
        assert!(p.jobs >= 1);
        assert_eq!(ExperimentParams::quick().jobs, 1);
    }

    #[test]
    fn set_checks_every_knob() {
        let mut p = ExperimentParams::quick();
        for (flag, value) in [
            ("jobs", "3"),
            ("work", "5"),
            ("scale", "0"),
            ("events", "e"),
        ] {
            p.set(flag, value).expect("a valid value");
        }
        assert_eq!((p.jobs, p.work, p.scale), (3, Instructions::new(1_000), 1));
        assert_eq!(p.events, Some(PathBuf::from("e")));
        p.set("jobs", "0").expect("auto");
        assert_eq!(p.jobs, cmpqos_engine::default_jobs());
        let before = p.clone();
        for (flag, value) in [
            ("jobs", "x"),
            ("seed", "-1"),
            ("scale", "3"),
            ("work", "4294967297"),
            ("work", "18446744073709551615"),
            ("events", ""),
            ("frobnicate", "1"),
        ] {
            assert!(p.set(flag, value).is_err(), "{flag} {value}");
        }
        assert_eq!(p, before, "a refused value changes nothing");
        p.set("work", "4294967296").expect("the cap itself");
        assert_eq!(p.work, ExperimentParams::MAX_WORK);
    }
}
