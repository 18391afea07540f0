//! Every script under `scripts/` through the `genesis` runner's library
//! entry point: on each of its data sets the served tables equal the SQL
//! engine's on every catalog, and the runner's stdout equals the committed
//! `results/run_<script>_<data>.txt` byte for byte. The failure paths are
//! errors, never panics.

use genesis::core::ServerConfig;
use std::path::{Path, PathBuf};

/// Every (script, data set) pair the runner is held to. Generated data
/// stays at `tiny` so the suite stays fast in the debug profile.
const PAIRS: [(&str, &str); 9] = [
    ("figure4", "genomics"),
    ("figure4", "tiny"),
    ("coverage", "genomics"),
    ("coverage", "tiny"),
    ("mate_distance", "genomics"),
    ("selected", "genomics"),
    ("pos_explode_join", "genomics"),
    ("insert_size", "genomics"),
    ("read_starts", "genomics"),
];

fn repo_file(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn run(sql: &str, data: &str) -> Result<String, String> {
    genesis_bench::run(sql, data, ServerConfig::default()).map_err(|e| e.to_string())
}

#[test]
fn every_script_has_a_pair() {
    let entries = std::fs::read_dir(repo_file("scripts")).expect("scripts/ exists");
    let mut unpaired = Vec::new();
    for entry in entries {
        let path = entry.expect("readable entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 name");
        if path.extension().is_some_and(|e| e == "sql") && !PAIRS.iter().any(|(s, _)| *s == stem) {
            unpaired.push(stem.to_owned());
        }
    }
    assert!(unpaired.is_empty(), "scripts without a (script, data set) pair: {unpaired:?}");
}

#[test]
fn every_pair_matches_the_sql_engine_and_its_snapshot() {
    let mut stale = Vec::new();
    for (script, data) in PAIRS {
        let sql = std::fs::read_to_string(repo_file(&format!("scripts/{script}.sql"))).unwrap();
        let out = run(&sql, data).unwrap_or_else(|e| panic!("{script} on {data}: {e}"));
        let snapshot = format!("results/run_{script}_{data}.txt");
        if std::fs::read_to_string(repo_file(&snapshot)).ok().as_deref() != Some(out.as_str()) {
            stale.push(snapshot);
        }
    }
    assert!(
        stale.is_empty(),
        "runner output differs from {stale:?}; regenerate with ./target/release/genesis"
    );
}

#[test]
fn unknown_data_set_is_an_error() {
    let err = run("INSERT INTO O SELECT * FROM PAIRS", "tyni").unwrap_err();
    assert!(err.contains("unknown data set `tyni` (did you mean `tiny`?)"), "got: {err}");
}

#[test]
fn absent_table_is_an_error_with_a_suggestion() {
    let err = run("INSERT INTO O SELECT * FROM PAIR WHERE POS < 10", "genomics").unwrap_err();
    assert!(err.contains("did you mean `PAIRS`?"), "got: {err}");
}

#[test]
fn unknown_column_suggests_from_the_whole_table() {
    // The scan is pruned to PAIRS.POS (the narrowest column carries the
    // rows, since no reference resolves); the suggestion still comes
    // from every column of the table, as without pruning.
    let err = run("INSERT INTO O SELECT SUM(MPOSS) FROM PAIRS", "genomics").unwrap_err();
    assert!(err.ends_with("unknown column MPOSS (did you mean `MPOS`?)"), "got: {err}");
    // READS holds list columns no Memory Reader streams; pruning leaves
    // them unbound, so the typo is what the error names, at its node.
    for (sql, tail) in [
        ("SELECT SUM(POSS) FROM READS", "Aggregate: unknown column POSS (did you mean `POS`?)"),
        (
            "SELECT SUM(POS) FROM READS WHERE POSS < 3000",
            "Filter: unknown column POSS (did you mean `POS`?)",
        ),
        ("SELECT SEQQ FROM READS", "Project: unknown column SEQQ (did you mean `SEQ`?)"),
    ] {
        let err = run(&format!("INSERT INTO O {sql}"), "genomics").unwrap_err();
        assert!(err.ends_with(tail), "{sql}: got: {err}");
    }
}

#[test]
fn unparsable_sql_is_an_error() {
    for sql in ["INSERT INTO", "SELECT FROM WHERE", ""] {
        assert!(run(sql, "genomics").is_err(), "{sql:?} ran");
    }
}
