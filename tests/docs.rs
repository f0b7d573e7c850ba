//! Documentation that must track the code: every event kind is in the
//! observability catalogue, and no doc or CI step still runs an experiment
//! binary that `cmpqos` subcommands replaced.

use cmpqos::obs::EventKind;
use std::path::Path;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_event_kind_is_catalogued_in_observability_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = read(&root.join("docs/observability.md"));
    let missing: Vec<String> = EventKind::ALL
        .iter()
        .map(|kind| format!("{kind:?}"))
        .filter(|name| !doc.contains(&format!("`{name} {{")) && !doc.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/observability.md does not catalogue {missing:?}"
    );
}

#[test]
fn no_doc_runs_a_removed_experiment_binary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "tests/README.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ is readable") {
        let path = entry.expect("a docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    let stale: Vec<String> = files
        .iter()
        .flat_map(|path| {
            read(path)
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains("cmpqos-experiments --bin"))
                .map(|(i, line)| format!("{}:{}: {line}", path.display(), i + 1))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        stale.is_empty(),
        "experiment binaries are `cmpqos` subcommands now:\n{}",
        stale.join("\n")
    );
}
