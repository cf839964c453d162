//! The `experiments` binary's id handling: every id is resolved before
//! anything runs, so an unknown id runs nothing, and a repeated id runs
//! (and is recorded) once, in first-seen order.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// The ids of the tables a run printed, in print order.
fn printed_ids(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("== "))
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect()
}

/// The `id` field of one table in the `--json` record.
fn table_id(table: &serde::Value) -> &str {
    match serde::map_get(table.as_map().expect("a table object"), "id") {
        serde::Value::Str(id) => id,
        other => panic!("table id is not a string: {other:?}"),
    }
}

#[test]
fn repeated_ids_run_once_in_first_seen_order() {
    let json = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_cli.json");
    let json_arg = json.to_str().expect("utf-8 temp path");
    let out = experiments(&[
        "table1", "fig05", "table1", "--scale", "tiny", "--seed", "3", "--json", json_arg,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(printed_ids(&out.stdout), ["table1", "fig05"]);

    let tables: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("json written"))
            .expect("json parses");
    let recorded: Vec<&str> = tables
        .as_seq()
        .expect("a table array")
        .iter()
        .map(table_id)
        .collect();
    assert_eq!(recorded, ["table1", "fig05"]);
    std::fs::remove_file(&json).ok();
}

#[test]
fn unknown_id_is_a_usage_error_and_runs_nothing() {
    let out = experiments(&["table1", "bogus", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran before rejecting the id");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`bogus`"), "{stderr}");
    assert!(!stderr.contains("done in"), "{stderr}");
}
