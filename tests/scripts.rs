//! Every script under `scripts/` through the `genesis` runner's library
//! entry point: on each of its data sets the served tables equal the SQL
//! engine's on every catalog, and the runner's stdout equals the committed
//! `results/run_<script>_<data>.txt` byte for byte. The failure paths are
//! errors, never panics.

use genesis::core::compile::script_to_plan;
use genesis::core::library::ModuleRegistry;
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

/// A Filter straight over a loop body's explode is its guard, as outside
/// a loop: Figure 4 with a window on each read's exploded positions
/// builds no Filter module for it, and its tables equal the SQL engine's
/// with some reads' matches cut by the window.
#[test]
fn loop_body_filter_over_its_explode_is_the_guard() {
    let figure4 = std::fs::read_to_string(repo_file("scripts/figure4.sql")).unwrap();
    let explode = "ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)\n  \
                   FROM SingleRead\n";
    let windowed = figure4.replace(
        &format!("#AlignedRead AS\n  {explode}"),
        &format!(
            "#Exploded AS\n  {explode}  CREATE TABLE #AlignedRead AS\n  \
             SELECT * FROM #Exploded WHERE #Exploded.POS < 3000\n"
        ),
    );
    assert_ne!(windowed, figure4);
    let out = run(&windowed, "tiny").unwrap();
    assert!(out.contains("\nFilter -> ReadToBases guard (1 predicate)\n"), "{out}");
    assert_eq!(out.lines().filter(|l| l.starts_with("Filter -> ")).count(), 1, "{out}");
    let preview =
        |out: &str| out.split("SQL engine").nth(1)?.split("modeled:").next().map(str::to_owned);
    assert_ne!(preview(&out), preview(&run(&figure4, "tiny").unwrap()));
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
    // The pileup's explode streams no bases, since nothing reads them;
    // a typo still gets the suggestion the whole explode would give.
    let coverage = std::fs::read_to_string(repo_file("scripts/coverage.sql")).unwrap();
    let typo = coverage.replace("WHERE POS < 4096", "WHERE SEQQ < 2");
    assert_ne!(typo, coverage);
    let err = run(&typo, "genomics").unwrap_err();
    let tail = "Filter: unknown column SEQQ (did you mean `SEQ`?)";
    assert!(err.ends_with(tail), "got: {err}");
}

#[test]
fn unparsable_sql_is_an_error() {
    for sql in ["INSERT INTO", "SELECT FROM WHERE", ""] {
        assert!(run(sql, "genomics").is_err(), "{sql:?} ran");
    }
}

/// A `WHERE` nested past the parser's bound — 3,000 parentheses, or a
/// 100,000-term `A + A + …` chain — is an error on a thread with the
/// default stack, as on a server's worker, never a stack overflow; a
/// 200-deep expression still plans.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let plan = |filter: String| {
        let src = format!("INSERT INTO O SELECT A FROM T WHERE {filter} < 5");
        let registry = ModuleRegistry::with_builtins();
        let planned = std::thread::spawn(move || script_to_plan(&src, &registry).map(drop));
        planned.join().expect("planning returns")
    };
    let nest =
        |open: &str, n: usize, close: &str| format!("{}A{}", open.repeat(n), close.repeat(n));
    for filter in [nest("(", 3000, ")"), nest("A + ", 99_999, "")] {
        let err = plan(filter).unwrap_err().to_string();
        assert!(err.contains("at most 256 levels of nesting"), "got: {err}");
    }
    for filter in [nest("(", 200, ")"), nest("A + ", 199, "")] {
        plan(filter).expect("a 200-deep expression plans");
    }
}
