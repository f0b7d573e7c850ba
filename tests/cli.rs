//! The `cmpqos` binary's input handling: a malformed or unknown flag, a
//! malformed `CMPQOS_*` variable, or an event log that cannot be written,
//! exits 1 with an `error:` line and the usage text, never a panic (exit
//! 101) or a silent default.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Every `CMPQOS_*` knob the binary reads, cleared so the caller's
/// environment cannot leak into a case.
const KNOBS: [&str; 6] = [
    "CMPQOS_SCALE",
    "CMPQOS_WORK",
    "CMPQOS_SEED",
    "CMPQOS_JOBS",
    "CMPQOS_EVENTS",
    "CMPQOS_JSON",
];

fn command(env: &[(&str, &str)], args: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_cmpqos"));
    for var in KNOBS {
        command.env_remove(var);
    }
    command
        .envs(env.iter().copied())
        .args(args.split_whitespace());
    command
}

fn cmpqos_with(env: &[(&str, &str)], args: &str) -> Output {
    command(env, args).output().expect("the cmpqos binary runs")
}

/// [`cmpqos_with`], killing the run and failing the test if it has not
/// exited within `limit`.
fn cmpqos_within(env: &[(&str, &str)], args: &str, limit: Duration) -> Output {
    let mut child = command(env, args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the cmpqos binary runs");
    let start = Instant::now();
    while child.try_wait().expect("the run can be polled").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cmpqos {args} still ran after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("the run's output is read")
}

fn cmpqos(args: &str) -> Output {
    cmpqos_with(&[], args)
}

/// Exit 1, the expected `error:` line first on stderr, the usage text,
/// and nothing on stdout: the input was refused before any work.
fn assert_refused(out: &Output, what: &str, error: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.starts_with(error), "{what}: {stderr}");
    assert!(stderr.contains("usage:"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what} ran anyway");
}

#[test]
fn bad_flags_exit_1_with_an_error_line() {
    for (args, error) in [
        (
            "solo --bench bzip2 --ways 17",
            "error: --ways 17 exceeds the L2's 16 ways",
        ),
        (
            "solo --bench bzip2 --ways 65543",
            "error: --ways 65543 exceeds the L2's 16 ways",
        ),
        (
            "solo --bench bzip2 --scale 3",
            "error: --scale 3: invalid cache geometry",
        ),
        (
            "run --workload mix1 --config hybrid2 --scale 3",
            "error: --scale 3: invalid cache geometry",
        ),
        (
            "conform --scale 3",
            "error: --scale 3: invalid cache geometry",
        ),
        ("solo --bench bzip2 --way 3", "error: unknown flag `--way`"),
        ("bench --jobs 4", "error: unknown command `bench`"),
        (
            "table1 --scale 3",
            "error: --scale 3: invalid cache geometry",
        ),
        (
            "fig5 --jobs x",
            "error: --jobs x: expected an unsigned integer",
        ),
        ("fig7 --events", "error: --events: expected a path"),
        ("chaos --sed 5", "error: unknown flag `--sed`"),
        ("chaos --net --jobs 5", "error: unknown flag `--jobs`"),
        (
            "chaos --net --events f.jsonl",
            "error: unknown flag `--events`",
        ),
        (
            "chaos --churn --crash-at 9",
            "error: unknown flag `--crash-at`",
        ),
        (
            "chaos --churn --inject lease-freze",
            "error: unknown --inject `lease-freze`",
        ),
        (
            "chaos --net --inject lease-freeze",
            "error: unknown --inject `lease-freeze`",
        ),
        (
            "chaos --seeds 1,x",
            "error: --seeds expects comma-separated numbers",
        ),
        (
            "chaos --net --partition 10-40",
            "error: --partition expects a:b@cycle",
        ),
        ("chaos --net --heal soon", "error: --heal expects @cycle"),
        // A partition must sever nodes that exist, and a heal may not
        // precede it, the default heal at 350,000 included.
        (
            "chaos --net --partition 10:40@200000 --heal @199999",
            "error: --heal @199999 is before the partition at cycle 200000",
        ),
        (
            "chaos --net --partition 10:40@900000000",
            "error: --heal @350000 is before the partition at cycle 900000000",
        ),
        // A cut at or past the horizon lands after every job is decided.
        (
            "chaos --net --partition 10:40@900000000 --heal @900000001",
            "error: --partition at cycle 900000000 is not before --horizon 600000",
        ),
        (
            "chaos --net --horizon 200000",
            "error: --partition at cycle 200000 is not before --horizon 200000",
        ),
        // So does a heal at or past the horizon, the default heal at
        // 350,000 included: the cell ends with the range still cut.
        (
            "chaos --net --partition 10:40@200000 --heal @900000000",
            "error: --heal @900000000 is not before --horizon 600000",
        ),
        (
            "chaos --net --horizon 300000",
            "error: --heal @350000 is not before --horizon 300000",
        ),
        (
            "chaos --net --partition 40:10@200000",
            "error: --partition 40:10 is not a node range of --nodes 100",
        ),
        (
            "chaos --net --partition 10:10@200000",
            "error: --partition 10:10 is not a node range of --nodes 100",
        ),
        (
            "chaos --net --partition 90:101@200000",
            "error: --partition 90:101 is not a node range of --nodes 100",
        ),
        (
            "chaos --net --nodes 5",
            "error: --partition 10:40 is not a node range of --nodes 5",
        ),
        // The failover cell's loop ends at its last step, 2,400,550: a
        // crash after it would never be injected.
        (
            "chaos --seed 1 --crash-at 2402000",
            "error: --crash-at 2402000 is past the failover cell's last step at cycle 2400550",
        ),
        (
            "chaos --seeds 1,2 --crash-at 18446744073709551615",
            "error: --crash-at 18446744073709551615 is past the failover cell's last step \
             at cycle 2400550",
        ),
        (
            "chaos --churn --kills 4294967296",
            "error: --kills 4294967296 is out of range",
        ),
        (
            "chaos --churn --nodes 0 --inject lease-freeze",
            "error: --nodes 0: the churn cell needs at least one node",
        ),
        (
            "chaos --churn --kills 104",
            "error: --kills 104 must be below --nodes 104",
        ),
        // The size caps: past them a cell would abort on allocation or
        // overflow its cycle arithmetic instead of running.
        (
            "chaos --churn --nodes 4000000000 --kills 1",
            "error: --nodes 4000000000 exceeds the cap of 65536",
        ),
        (
            "chaos --net --nodes 100000000",
            "error: --nodes 100000000 exceeds the cap of 65536",
        ),
        (
            "chaos --churn --job-count 4000000000",
            "error: --job-count 4000000000 exceeds the cap of 1048576",
        ),
        (
            "chaos --net --job-count 4000000000",
            "error: --job-count 4000000000 exceeds the cap of 1048576",
        ),
        (
            "chaos --churn --churn-events 4000000000",
            "error: --churn-events 4000000000 exceeds the cap of 1048576",
        ),
        (
            "chaos --churn --horizon 18446744073709551615",
            "error: --horizon 18446744073709551615 exceeds the cap of 1099511627776",
        ),
        (
            "chaos --churn --horizon 4611686018427387904",
            "error: --horizon 4611686018427387904 exceeds the cap of 1099511627776",
        ),
        (
            "chaos --net --horizon 1099511627777",
            "error: --horizon 1099511627777 exceeds the cap of 1099511627776",
        ),
    ] {
        assert_refused(&cmpqos(args), &format!("cmpqos {args}"), error);
    }
    // Every experiment subcommand and chaos cell refuses a typo.
    for command in [
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table1",
        "lac-overhead",
        "overload",
        "slo",
        "variance",
        "ablations",
        "extensions",
        "all",
        "chaos",
        "chaos --net",
        "chaos --churn",
    ] {
        let args = format!("{command} --sclae 3");
        assert_refused(
            &cmpqos(&args),
            &format!("cmpqos {args}"),
            "error: unknown flag `--sclae`",
        );
    }
}

#[test]
fn bad_env_values_exit_1_naming_the_variable() {
    for (var, value, args, error) in [
        (
            "CMPQOS_SCALE",
            "abc",
            "table1",
            "error: CMPQOS_SCALE=abc: expected an unsigned integer",
        ),
        (
            "CMPQOS_SCALE",
            "3",
            "table1",
            "error: CMPQOS_SCALE=3: invalid cache geometry",
        ),
        (
            "CMPQOS_SCALE",
            "3",
            "conform --only fig3",
            "error: CMPQOS_SCALE=3: invalid cache geometry",
        ),
        (
            "CMPQOS_JOBS",
            "x",
            "fig5",
            "error: CMPQOS_JOBS=x: expected an unsigned integer",
        ),
        (
            "CMPQOS_JOBS",
            "x",
            "chaos --churn",
            "error: CMPQOS_JOBS=x: expected an unsigned integer",
        ),
        (
            "CMPQOS_WORK",
            "1e6",
            "all",
            "error: CMPQOS_WORK=1e6: expected an unsigned integer",
        ),
        (
            "CMPQOS_SEED",
            "-1",
            "chaos",
            "error: CMPQOS_SEED=-1: expected an unsigned integer",
        ),
    ] {
        assert_refused(
            &cmpqos_with(&[(var, value)], args),
            &format!("{var}={value} cmpqos {args}"),
            error,
        );
    }
}

/// Past 2^32 instructions per job, `--work` and `CMPQOS_WORK` are refused
/// before anything runs. Each of these used to simulate without end.
#[test]
fn work_past_the_cap_exits_1_within_a_second() {
    const CAP: &str = "at most 4294967296 instructions per job";
    let second = Duration::from_secs(1);
    for (command, work) in [
        ("run --workload mix1 --config hybrid2", "4294967297"),
        (
            "run --workload mix1 --config hybrid2",
            "18446744073709551615",
        ),
        ("fig4", "18446744073709551615"),
        ("solo --bench bzip2", "18446744073709551615"),
    ] {
        let args = format!("{command} --work {work}");
        assert_refused(
            &cmpqos_within(&[], &args, second),
            &format!("cmpqos {args}"),
            &format!("error: --work {work}: {CAP}"),
        );
    }
    for (command, work) in [("fig4", "18446744073709551615"), ("table1", "4294967297")] {
        assert_refused(
            &cmpqos_within(&[("CMPQOS_WORK", work)], command, second),
            &format!("CMPQOS_WORK={work} cmpqos {command}"),
            &format!("error: CMPQOS_WORK={work}: {CAP}"),
        );
    }
}

#[test]
fn an_out_of_range_spec_value_exits_1_not_101() {
    // `ways_max` is a u16: 65536 used to wrap to 0 and panic the run.
    let path = std::env::temp_dir().join(format!("cmpqos-cli-{}-ways.toml", std::process::id()));
    std::fs::write(
        &path,
        "name = \"wide\"\nways_max = 65536\n[[tier]]\nname = \"t\"\n",
    )
    .expect("the spec is written");
    let path = path.display().to_string();
    let out = cmpqos(&format!("traffic --spec {path}"));
    let _ = std::fs::remove_file(&path);
    assert_refused(
        &out,
        "cmpqos traffic --spec (ways_max = 65536)",
        &format!("error: {path}: line 2: `ways_max` = 65536 is out of range"),
    );
}

#[test]
fn unbounded_spec_values_exit_1_within_a_second() {
    // Each used to run unbounded: a `size_base` that overflowed the
    // deadline product, a horizon that ran for tens of seconds, and a
    // horizon inside the cycle cap whose arrivals are not.
    for (name, spec, error) in [
        (
            "size",
            "name = \"x\"\n[[tier]]\nname = \"t\"\nsize_base = 18446744073709551615\n",
            "line 4: `size_base` = 18446744073709551615 is above the cap of 1099511627776 cycles",
        ),
        (
            "horizon",
            "name = \"x\"\nhorizon = 18446744073709551615\n[[tier]]\nname = \"t\"\n",
            "line 2: `horizon` = 18446744073709551615 is above the cap of 1099511627776 cycles",
        ),
        (
            "arrivals",
            "name = \"x\"\nhorizon = 1099511627776\n[[tier]]\nname = \"t\"\n",
            "line 2: `horizon` = 1099511627776 gives 1099511628 expected arrivals",
        ),
    ] {
        let path =
            std::env::temp_dir().join(format!("cmpqos-cli-{}-{name}.toml", std::process::id()));
        std::fs::write(&path, spec).expect("the spec is written");
        let path = path.display().to_string();
        let out = cmpqos_within(
            &[],
            &format!("traffic --spec {path}"),
            Duration::from_secs(1),
        );
        let _ = std::fs::remove_file(&path);
        assert_refused(
            &out,
            &format!("cmpqos traffic --spec ({name})"),
            &format!("error: {path}: {error}"),
        );
    }
}

/// A `size_base` of 1.2 MB of digits used to be echoed whole on stderr.
/// The error line quotes a short prefix of it and still names the file,
/// the line and the key.
#[test]
fn a_huge_spec_value_is_quoted_as_a_short_prefix() {
    let path = std::env::temp_dir().join(format!("cmpqos-cli-{}-huge.toml", std::process::id()));
    let digits = "1".repeat(1_200_000);
    std::fs::write(
        &path,
        format!("name = \"x\"\n[[tier]]\nname = \"t\"\nsize_base = {digits}\n"),
    )
    .expect("the spec is written");
    let path = path.display().to_string();
    let out = cmpqos(&format!("traffic --spec {path}"));
    let _ = std::fs::remove_file(&path);
    assert_refused(
        &out,
        "cmpqos traffic --spec (1.2 MB size_base)",
        &format!("error: {path}: line 4: `size_base`: expected an unsigned integer, got `111"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let error = stderr.lines().next().unwrap_or("");
    assert!(error.len() < 512, "a {}-byte error line", error.len());
}

/// A journal line nested 50,000 levels deep used to overflow the JSON
/// parser's stack (exit 134). Either controller's recovery counts it as
/// one lost tail record.
#[test]
fn a_deeply_nested_journal_line_is_one_lost_record() {
    for (shape, line) in [
        ("arrays", "[".repeat(50_000)),
        ("objects", "{\"a\":".repeat(50_000)),
    ] {
        let path = std::env::temp_dir().join(format!(
            "cmpqos-cli-{}-deep-{shape}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, line + "\n").expect("the journal is written");
        let path = path.display().to_string();
        for kind in ["gac", "lac"] {
            let out = cmpqos(&format!("recover --journal {path} --kind {kind}"));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("recover --kind {kind} ({shape})");
            assert_eq!(
                out.status.code(),
                Some(0),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.contains("replayed 0 op(s), lost 1 tail record(s)"),
                "{what}: {stdout}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn valid_runs_print_the_expected_first_line() {
    for (args, first_line) in [
        (
            "solo --bench bzip2 --ways 16 --scale 16 --work 20000",
            "bzip2 @ 16 ways (scale 1/16, 20000 instr): IPC ",
        ),
        (
            "fig3",
            "== Figure 3: manual mode downgrade (illustrative scenario) ==",
        ),
        ("chaos --seed 1", "== Chaos: 12 jobs on 3 nodes, seed 1 =="),
    ] {
        let out = cmpqos(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "cmpqos {args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.lines().next().unwrap_or("").starts_with(first_line),
            "cmpqos {args}: {stdout}"
        );
    }
}

/// The failover cell's `--seeds` stdout is byte-identical at every pool
/// width; the closing line that names the width goes to stderr.
#[test]
fn failover_seeds_stdout_is_identical_at_every_pool_width() {
    let serial = cmpqos("chaos --seeds 1,2 --jobs 1");
    let pooled = cmpqos("chaos --seeds 1,2 --jobs 2");
    for out in [&serial, &pooled] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains("replayed 2 seeds on "), "{stderr}");
    }
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&pooled.stdout)
    );
}

/// The chaos cells' sabotage switches break a survival invariant on
/// purpose. The run prints its table, then exits 1 with an `error:` line
/// naming the invariant: a failed check, not a panic (exit 101). The
/// input was valid, so no usage text follows.
#[test]
fn chaos_injections_exit_1_naming_the_broken_invariant() {
    for (args, error) in [
        (
            "chaos --net --nodes 12 --job-count 48 --horizon 120000 \
             --partition 2:6@40000 --heal @70000 --inject drop-reconcile",
            "error: 4 node(s) still awaiting rejoin reconciliation after the heal",
        ),
        (
            "chaos --churn --nodes 16 --job-count 80 --horizon 480000 \
             --churn-events 8 --kills 1 --inject lease-freeze",
            "error: 10 lease(s) expired: some placement went unrenewed past TTL + grace",
        ),
    ] {
        let out = cmpqos(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "cmpqos {args}: {stderr}");
        assert!(stderr.starts_with(error), "cmpqos {args}: {stderr}");
        assert!(!stderr.contains("usage:"), "cmpqos {args}: {stderr}");
        assert!(!out.stdout.is_empty(), "cmpqos {args} printed its table");
    }
}

/// A `--json` path the run cannot write fails the run after its results
/// print: exit 1 and an `error:` line naming the flag and the path. The
/// input was valid, so no usage text follows.
#[test]
fn an_unwritable_json_path_fails_the_run_naming_it() {
    let missing = std::env::temp_dir().join(format!("cmpqos-cli-{}-missing", std::process::id()));
    let path = missing.join("x.json").display().to_string();
    let args =
        format!("run --workload bzip2 --config hybrid2 --scale 16 --work 80000 --json {path}");
    let out = cmpqos(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "cmpqos {args}: {stderr}");
    let error = format!("error: --json {path}: ");
    assert!(stderr.starts_with(&error), "cmpqos {args}: {stderr}");
    assert!(!stderr.contains("usage:"), "cmpqos {args}: {stderr}");
    assert!(!out.stdout.is_empty(), "cmpqos {args} printed its results");
}

/// An event log that cannot be opened for append is refused before any
/// run: exit 1, an `error:` line naming the flag or the variable, the
/// path and the OS error, the usage text, and nothing on stdout.
#[test]
fn an_unwritable_event_log_is_refused_before_running() {
    let missing = std::env::temp_dir().join(format!("cmpqos-cli-{}-no-dir", std::process::id()));
    let path = missing.join("x.jsonl").display().to_string();
    let flag = format!("error: --events {path}: ");
    let var = format!("error: CMPQOS_EVENTS={path}: ");
    for (env, args, error) in [
        (
            None,
            format!("fig7 --scale 16 --work 80000 --events {path}"),
            &flag,
        ),
        (
            None,
            format!(
                "run --workload bzip2 --config hybrid2 --scale 16 --work 80000 --events {path}"
            ),
            &flag,
        ),
        (None, format!("chaos --seed 1 --events {path}"), &flag),
        (
            Some(("CMPQOS_EVENTS", path.as_str())),
            "fig7 --scale 16 --work 80000".to_string(),
            &var,
        ),
        (
            Some(("CMPQOS_EVENTS", path.as_str())),
            "chaos --seed 1".to_string(),
            &var,
        ),
    ] {
        let out = cmpqos_with(env.as_slice(), &args);
        let what = format!("{env:?} cmpqos {args}");
        assert_refused(&out, &what, error);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|l| l.contains("(os error")),
            "{what}: {stderr}"
        );
    }
}
