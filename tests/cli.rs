//! The `cmpqos` binary's flag handling: a malformed or unknown flag exits 1
//! with an `error:` line and the usage text, never a panic (exit 101) or a
//! silent default.

use std::process::{Command, Output};

fn cmpqos(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpqos"))
        .args(args.split_whitespace())
        .output()
        .expect("the cmpqos binary runs")
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
    ] {
        let out = cmpqos(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "cmpqos {args}: {stderr}");
        assert!(stderr.starts_with(error), "cmpqos {args}: {stderr}");
        assert!(stderr.contains("usage:"), "cmpqos {args}: {stderr}");
        assert!(out.stdout.is_empty(), "cmpqos {args} ran anyway");
    }
}

#[test]
fn a_valid_solo_run_uses_the_requested_ways() {
    let out = cmpqos("solo --bench bzip2 --ways 16 --scale 16 --work 20000");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("bzip2 @ 16 ways (scale 1/16, 20000 instr): IPC "),
        "{stdout}"
    );
}
