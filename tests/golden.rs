//! Deterministic numbers are tests: every `modeled` row of the committed
//! `BENCH_*.json` snapshots is regenerated in-process from the scenario
//! the bench runs (`genesis_bench::scenarios`) and held by equality, and
//! `results/table4_resources.txt` is held byte for byte. A drift of one
//! cycle fails here; a deliberate change regenerates the file in the same
//! PR. Wall rows are information: they gate only through
//! `tools/bench_ab.sh`.

use genesis::obs::json::Json;
use genesis_bench::scenarios::{
    cache_runs, closed_loop_run, genomics_catalog, genomics_workloads, replication_rows,
    replication_workloads, serve_modeled_rows, EngineScenario, GenomicsWorkload, PoolRun,
};
use genesis_bench::snapshot::Row;
use std::path::{Path, PathBuf};

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn show(value: &Json) -> String {
    match value {
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        other => format!("{other:?}"),
    }
}

/// A stale row's two values and, when both are numbers, the signed change
/// between them: `committed 1688, regenerated 1654 (−2.0 %)`.
fn stale(committed: &Json, regenerated: &Json) -> String {
    let mut line = format!("committed {}, regenerated {}", show(committed), show(regenerated));
    if let (Json::Num(old), Json::Num(new)) = (committed, regenerated) {
        if *old != 0.0 {
            let pct = (new - old) / old * 100.0;
            let sign = if pct < 0.0 { "−" } else { "+" };
            line += &format!(" ({sign}{:.1} %)", pct.abs());
        }
    }
    line
}

/// True when a stale row is a `cycles` count that rose: the rows a change
/// that only removes work must not have.
fn cycles_rose(metric: &str, committed: &Json, regenerated: &Json) -> bool {
    matches!((committed, regenerated), (Json::Num(old), Json::Num(new)) if new > old)
        && metric.contains("cycles")
}

/// Checks the schema of `file` and that its modeled rows are exactly
/// `regenerated`, listing every mismatch (with its signed change, the
/// `cycles` rows that rose first), unregenerated committed row and
/// uncommitted regenerated row.
fn check(file: &str, regenerated: &[Row]) {
    let text = std::fs::read_to_string(repo_file(file)).expect("committed snapshot");
    let snap = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    for key in ["bench", "commit"] {
        assert!(snap.get(key).and_then(Json::as_str).is_some(), "{file}: no `{key}`");
    }
    assert!(snap.get("host_cores").and_then(Json::as_u64).is_some(), "{file}: no `host_cores`");
    let rows =
        snap.get("rows").and_then(Json::as_array).unwrap_or_else(|| panic!("{file}: no `rows`"));

    let mut rose = Vec::new();
    let mut errors = Vec::new();
    let mut modeled = Vec::new();
    for row in rows {
        let field = |k| {
            row.get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{file}: row without `{k}`: {row:?}"))
        };
        let (label, metric) = (field("label"), field("metric"));
        match field("clock") {
            "wall" => continue,
            "modeled" => modeled.push((label, metric)),
            other => {
                panic!("{file}: {label} {metric}: clock `{other}` is neither modeled nor wall")
            }
        }
        let committed =
            row.get("value").unwrap_or_else(|| panic!("{file}: {label} {metric}: no value"));
        match regenerated.iter().find(|r| r.label == label && r.metric == metric) {
            None => errors.push(format!(
                "{label} {metric}: committed {} has no regeneration",
                show(committed)
            )),
            Some(r) => match Json::parse(&r.value.to_string()) {
                Ok(new) if &new == committed => {}
                Ok(new) => {
                    let line = format!("{label} {metric}: {}", stale(committed, &new));
                    if cycles_rose(metric, committed, &new) {
                        rose.push(line);
                    } else {
                        errors.push(line);
                    }
                }
                Err(_) => errors.push(format!(
                    "{label} {metric}: committed {}, regenerated {}",
                    show(committed),
                    r.value
                )),
            },
        }
    }
    for r in regenerated {
        if !modeled.contains(&(r.label.as_str(), r.metric)) {
            errors.push(format!(
                "{} {}: regenerated {} is not committed",
                r.label, r.metric, r.value
            ));
        }
    }
    rose.append(&mut errors);
    assert!(rose.is_empty(), "{file} is stale:\n  {}", rose.join("\n  "));
}

#[test]
fn engine_snapshot() {
    // Per-process so parallel test binaries never share the export file.
    let trace =
        std::env::temp_dir().join(format!("genesis_golden_trace_{}.json", std::process::id()));
    let scenario = EngineScenario::new(&trace);
    // One thread per variant: the debug-profile runs take seconds each.
    let rows: Vec<Row> = std::thread::scope(|scope| {
        let runs: Vec<_> = scenario
            .variants
            .iter()
            .map(|v| scope.spawn(|| v.modeled_rows(&scenario.run(v))))
            .collect();
        runs.into_iter().flat_map(|run| run.join().expect("variant run")).collect()
    });
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(format!("{}.stalls.txt", trace.display()));
    check("BENCH_engine.json", &rows);
}

#[test]
fn compile_snapshot() {
    check("BENCH_compile.json", &replication_rows(&replication_workloads()));
}

#[test]
fn workloads_snapshot() {
    let cat = genomics_catalog();
    let rows: Vec<Row> = genomics_workloads()
        .iter()
        .flat_map(|w| w.modeled_rows(&GenomicsWorkload::execute(&w.compile(&cat), &cat)))
        .collect();
    check("BENCH_workloads.json", &rows);
}

#[test]
fn serve_snapshot() {
    // Every closed-loop request is the same plan on the same table, so a
    // short loop reproduces the bench's 12,000-request modeled goodput.
    let rows = serve_modeled_rows(
        &cache_runs(),
        &[PoolRun::run(1), PoolRun::run(4)],
        &closed_loop_run(1, 40),
        &closed_loop_run(4, 40),
    );
    check("BENCH_serve.json", &rows);
}

#[test]
fn table4_resources_text() {
    let committed = std::fs::read_to_string(repo_file("results/table4_resources.txt"))
        .expect("committed Table IV");
    assert!(
        committed == genesis_bench::table4_resources(),
        "results/table4_resources.txt is stale: regenerate it with \
         ./target/release/table4_resources > results/table4_resources.txt"
    );
}
