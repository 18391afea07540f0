//! The structural gates: each test scans the tree for a pattern whose
//! presence, or whose count, means a mechanism the design removed is
//! growing back, and fails with the hits. The patterns and paths are the
//! ones `grep` took when these gates were commands to run by hand; each
//! test names the DESIGN.md section that records why its mechanism went.
//!
//! A pattern is a `grep -E` subset: alternatives split on `|`, each a run
//! of literal characters, `.` (any character), `[c]` (the one character
//! `c`), `\b` (a word boundary), `\c` (the character `c`) and a leading
//! `^` (the start of the line). Files are read as `tests/docs.rs` reads
//! them; build output and version control are skipped, and so is this
//! file, which names every pattern.

use std::fs;
use std::path::{Path, PathBuf};

/// One element of a pattern alternative.
#[derive(Debug, Clone, Copy)]
enum Tok {
    Char(char),
    Any,
    Boundary,
}

/// An alternative: whether it is anchored at the start of the line, and
/// its elements.
type Alt = (bool, Vec<Tok>);

fn parse(pattern: &str) -> Vec<Alt> {
    pattern
        .split('|')
        .map(|alt| {
            let (anchored, alt) = alt.strip_prefix('^').map_or((false, alt), |rest| (true, rest));
            let mut toks = Vec::new();
            let mut chars = alt.chars();
            while let Some(c) = chars.next() {
                toks.push(match c {
                    '.' => Tok::Any,
                    '\\' => match chars.next().expect("an escape names a character") {
                        'b' => Tok::Boundary,
                        e => Tok::Char(e),
                    },
                    '[' => {
                        let class = chars.next().expect("a class names a character");
                        assert_eq!(chars.next(), Some(']'), "a class holds one character");
                        Tok::Char(class)
                    }
                    c => Tok::Char(c),
                });
            }
            (anchored, toks)
        })
        .collect()
}

fn is_word(c: Option<&char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// Whether `alt` matches `line` from character `at` on.
fn matches_at(line: &[char], mut at: usize, alt: &[Tok]) -> bool {
    for tok in alt {
        match tok {
            Tok::Boundary => {
                let before = at.checked_sub(1).and_then(|i| line.get(i));
                if is_word(before) == is_word(line.get(at)) {
                    return false;
                }
            }
            Tok::Any if at < line.len() => at += 1,
            Tok::Char(c) if line.get(at) == Some(c) => at += 1,
            _ => return false,
        }
    }
    true
}

fn matches(line: &str, alts: &[Alt]) -> bool {
    let line: Vec<char> = line.chars().collect();
    alts.iter().any(|(anchored, alt)| {
        let starts = if *anchored { 0..1 } else { 0..line.len().max(1) };
        starts.into_iter().any(|at| matches_at(&line, at, alt))
    })
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The existing paths `path` names relative to the repository root, `*`
/// in a component matching any run of characters within it, as the shell
/// expands it. A path that names nothing fails the gate that scans it.
fn expand(path: &str) -> Vec<PathBuf> {
    let mut out = vec![root()];
    for part in path.split('/') {
        let Some((head, tail)) = part.split_once('*') else {
            out.iter_mut().for_each(|p| p.push(part));
            out.retain(|p| p.exists());
            continue;
        };
        let mut next = Vec::new();
        for dir in out.iter().filter(|p| p.is_dir()) {
            let mut hits: Vec<PathBuf> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| {
                    let name = p.file_name().unwrap().to_string_lossy();
                    name.len() >= head.len() + tail.len()
                        && name.starts_with(head)
                        && name.ends_with(tail)
                })
                .collect();
            hits.sort();
            next.extend(hits);
        }
        out = next;
    }
    assert!(!out.is_empty(), "{path} names nothing");
    out
}

/// Every file under `path`, `grep -r`'s order aside.
fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if !path.ends_with(file!()) {
            out.push(path.to_owned());
        }
        return;
    }
    let mut entries: Vec<_> = fs::read_dir(path).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().unwrap().to_string_lossy();
        if !(entry.is_dir() && (name == "target" || name == ".git")) {
            walk(&entry, out);
        }
    }
}

/// The files under `paths`.
fn files(paths: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for path in paths.iter().flat_map(|p| expand(p)) {
        walk(&path, &mut out);
    }
    out
}

/// `grep -rn pattern paths`: each hit as `path:line: text`.
fn grep(pattern: &str, paths: &[&str]) -> Vec<String> {
    let alts = parse(pattern);
    let mut hits = Vec::new();
    for file in files(paths) {
        let text = String::from_utf8_lossy(&fs::read(&file).unwrap()).into_owned();
        let name = file.strip_prefix(root()).unwrap_or(&file).display().to_string();
        for (n, line) in text.lines().enumerate() {
            if matches(line, &alts) {
                hits.push(format!("{name}:{}: {line}", n + 1));
            }
        }
    }
    hits
}

/// Fails with the hits unless `pattern` matches nothing under `paths`.
fn none(pattern: &str, paths: &[&str]) {
    let hits = grep(pattern, paths);
    assert!(hits.is_empty(), "`{pattern}` must match nothing:\n{}", hits.join("\n"));
}

/// Fails unless `pattern` matches exactly one line under `paths`, in
/// `file`.
fn one(pattern: &str, paths: &[&str], file: &str) {
    let hits = grep(pattern, paths);
    let only = hits.len() == 1 && hits[0].starts_with(&format!("{file}:"));
    assert!(only, "`{pattern}` must match one line, in {file}:\n{}", hits.join("\n"));
}

/// Exactly two engines exist, `EngineMode::{Fast, Reference}`, with one
/// `EngineCore` and one tick loop (DESIGN.md §6): a hit is a second
/// engine path (batch ticks, a slice queue API, enum dispatch or
/// sim-thread partitioning).
#[test]
fn one_engine_core() {
    none(
        "tick_run|head_run|pop_run|push_run|exact_rate|ModuleSlot|Tickable|sim_threads|\
         SIM_THREADS|run_parallel|partition_modules|WINDOW_C|into_any|spm_ids|EventDriven|\
         EngineMode::Block",
        &["crates", "tests", "tools", "examples", "src"],
    );
}

/// A queue is a fixed ring that carries its own wake state, and
/// `SpmUpdater`'s stages are a 3-slot array (DESIGN.md §6 "One hop, one
/// call"): a hit is a `VecDeque` or the pool's parallel wake vectors.
#[test]
fn one_hop_one_call() {
    none("VecDeque", &["crates/hw/src/queue.rs", "crates/hw/src/modules/spm_updater.rs"]);
    none("touch_flag|watch_count", &["crates/hw/src"]);
}

/// A compiled plan is a runnable plan, `GenesisServer::submit` is the one
/// asynchronous way to run it, and the Figure 4 query runs only compiled
/// (DESIGN.md §9, §10): a hit is the kernel-tag fork, the bridge-thread
/// front door or the hand-wired Figure 7 accelerator. The one range-mode
/// SPM Reader is `PipelineBuilder::ref_window`'s, which the lowering and
/// the hand-wired Metadata/BQSR front end share.
#[test]
fn one_road() {
    none(
        "CompiledKernel|match_kernel|kernel_profile|is_executable|JobSpec|JobHandle|\
         inherit_job_config|GroupCountAccel|compiled only to the dedicated|\
         CountMatchingBases|CountRun|accel::example",
        &["crates", "tests", "examples", "src", "tools", "README.md"],
    );
    one("SpmReadMode::Range", &["crates/core/src"], "crates/core/src/builder.rs");
}

/// The server's only threads pull staged shards themselves, placement is
/// the modeled device timeline's, fault backoff is modeled time and
/// nothing coalesces requests (DESIGN.md §12): a hit is per-device
/// mailboxes, busy flags, a directed hand-off, a wall-clock backoff, the
/// scheduler thread, cross-request batching or a dropped shim dependency.
/// `serve.rs` makes at most three condvars (`mail`, `done`,
/// `compile_cv`), and a pool is a count and one device.
#[test]
fn two_pools() {
    none("mailboxes|busy\\[|fn dispatch\\(", &["crates/core/src/serve.rs"]);
    none("thread::sleep", &["crates/core/src"]);
    let condvars = grep("Condvar::new", &["crates/core/src/serve.rs"]);
    assert!(condvars.len() <= 3, "{}", condvars.join("\n"));
    none(
        "scheduler_loop|genesis-serve-sched|with_batching|batch_key|drain_matching|\
         content_hash|server\\.batch\\.",
        &["crates", "tests", "examples", "src", "tools", "README.md"],
    );
    none("parking_lot|crossbeam", &["Cargo.toml", "crates/*/Cargo.toml", "crates/*/src"]);
    none("homogeneous", &["crates/core/src/serve.rs"]);
}

/// The paper's five host calls are `GenesisServer::submit` and a `Ticket`
/// (DESIGN.md §10 "One waiting room"): a hit is the second
/// slot-table/condvar/thread machine, the hand-wired coverage accelerator
/// or the knob nothing read.
#[test]
fn one_waiting_room() {
    none(
        "GenesisHost|PipelineStatus|ConfiguredInputs|JobFn|wait_genesis_for|CoverageAccel",
        &["crates", "tests", "examples", "src", "tools", "README.md"],
    );
    none("watchdog", &["crates/*/src", "crates/bench", "examples", "README.md"]);
}

/// Configuration is a value (DESIGN.md §8): `GenesisEnv::load` is the one
/// reader of the process environment in the library crates, no test or
/// bench mutates it, and the bench harness reads `GENESIS_SCALE` in one
/// place, `genesis_bench::env_scale`.
#[test]
fn no_ambient_environment() {
    let libraries = [
        "crates/types/src",
        "crates/sql/src",
        "crates/hw/src",
        "crates/obs/src",
        "crates/gatk/src",
        "crates/datagen/src",
        "crates/core/src",
    ];
    one("env::var", &libraries, "crates/core/src/env.rs");
    none(
        "set_var|remove_var|ENV_LOCK|env_lock",
        &["tests", "crates/hw", "crates/obs", "crates/core", "crates/bench/benches"],
    );
    none("env::set_var|env::remove_var", &["crates", "tests", "examples", "src"]);
    one("GENESIS_SCALE\")", &["crates"], "crates/bench/src/lib.rs");
}

/// Every query the repo runs from SQL is one file under `scripts/`, and
/// every Rust copy is an `include_str!` of it: a hit is a query text
/// pasted back into code.
#[test]
fn one_copy_of_each_query() {
    none(
        "ReadExplode \\(READS.POS, READS.CIGAR|PosExplode \\(REF.SEQ, REF.POS\\)|\
         PosExplode \\(ReferenceRow",
        &["crates", "tests", "examples", "src"],
    );
}

/// A plain scan's pushed conjuncts compare where the catalog holds its
/// columns, and the bind copies the surviving rows once, at the catalog's
/// width (DESIGN.md §15 "What bind cost"): a hit is the widen-then-compact
/// bind.
#[test]
fn one_copy_bind() {
    none("fn widen|drop_operands", &["crates/core/src/lower"]);
}

/// The serving cache keys a plan by its shape (DESIGN.md §10 "Shapes,
/// not literals"): a hit is the literal-bearing `Debug` key.
#[test]
fn shapes_not_literals() {
    none("{plan:?}", &["crates/core/src/serve.rs"]);
}

/// The lowering holds one decision per file (DESIGN.md §9 "One decision
/// per file"): `lower.rs` is gone and no file under `lower/` is over
/// 1,500 lines, the compiled road imports nothing from `accel/`, the shape
/// key is defined once, in `lower/pushdown.rs`, and `analyze` runs one
/// analysis on one scratch build.
#[test]
fn one_decision_per_file() {
    assert!(!root().join("crates/core/src/lower.rs").exists(), "lower.rs is back");
    for file in files(&["crates/core/src/lower"]) {
        let lines = fs::read_to_string(&file).unwrap().lines().count();
        assert!(lines <= 1500, "{} has {lines} lines", file.display());
    }
    none(
        "crate::accel",
        &["crates/core/src/lower", "crates/core/src/serve.rs", "crates/core/src/compile.rs"],
    );
    none("\\bSplit\\b|lower::parameters", &["crates/core/src/serve.rs"]);
    one("System::with_memory", &["crates/core/src/lower"], "crates/core/src/lower/mod.rs");
}

/// A batch run resets a pooled `System` instead of building one
/// (DESIGN.md §15 "What a run keeps"): outside test modules,
/// `crates/core/src` builds a System in eight places — `SystemPool::take`,
/// `analyze_on`'s scratch build and the `resource_report` and `dot_graph`
/// builds of `accel/{markdup,metadata,bqsr}.rs`. A ninth is a second road
/// that builds a System per run.
#[test]
fn systems_come_from_the_pool() {
    let alts = parse("System::with_memory\\(|System::new\\(\\)");
    let mut hits = Vec::new();
    for file in files(&["crates/core/src"]) {
        if file.extension().is_none_or(|e| e != "rs") || file.ends_with("tests.rs") {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        let lines = text.lines().take_while(|l| !l.starts_with("mod tests {"));
        for (n, line) in lines.enumerate().filter(|(_, l)| matches(l, &alts)) {
            hits.push(format!("{}:{}: {line}", file.display(), n + 1));
        }
    }
    assert_eq!(hits.len(), 8, "{}", hits.join("\n"));
}

/// Every replica reads its sinks back through one function, and the
/// gather decodes them once, by the output schema (DESIGN.md §12
/// "Scatter-gather sharding"): a hit is a second readback path,
/// per-replica column metadata or a separately recorded sink reservation.
#[test]
fn one_readback() {
    none("JobOut|rebuild_cols|cols_names|sink_bytes", &["crates/core/src"]);
}

/// Both engines type a result by `LogicalPlan::output_schema`, the gather
/// builds each column at that type, and a shard's scanned rows are
/// answered from pushdown's row mask (DESIGN.md §12 "One schema"): a hit
/// is the `Cell`-stamped gather or the survivor index list.
#[test]
fn one_schema() {
    none("DataType::Cell", &["crates/core/src/lower/job.rs"]);
    none("fn indices|kept: Option<Vec<usize>>", &["crates/core/src/lower/"]);
}

/// Every rule the two engines share has one owner, `genesis_sql::exec`
/// (DESIGN.md §9 "One owner per rule"), and the `Lowering` keeps no column
/// facts of the data it was analyzed over: a hit is a private copy of a
/// rule, or the analysis build's stream columns in the `Lowering` or the
/// gather.
#[test]
fn one_owner_per_rule() {
    none(
        "fn find\\b|fn qualify\\b|fn agg_display\\b|HW_OUT|cols: Vec<ColInfo>",
        &["crates/core/src/lower"],
    );
    one("fn find_col", &["crates/sql/src"], "crates/sql/src/exec.rs");
    let text = fs::read_to_string(root().join("crates/core/src/lower/mod.rs")).unwrap();
    let lowering = text.split("\npub(crate) struct Lowering {\n").nth(1).expect("Lowering");
    let fields = &lowering[..lowering.find("\n}").expect("its end")];
    assert!(!fields.contains("StreamCol"), "the Lowering keeps stream columns:\n{fields}");
    none("StreamCol", &["crates/core/src/lower/job.rs"]);
}

/// A column-only `Project` renames and the Memory Writer has one tick
/// path, its double-buffered lanes (DESIGN.md §9 "A column names a
/// field"): a hit is the single-buffered one-column tick.
#[test]
fn one_writer_tick() {
    none("try_flush|flushing", &["crates/hw/src/modules/mem_writer.rs"]);
}

/// What a plan builds is said once (DESIGN.md §13 "Module library"): a hit
/// is the static operator → module guess, its tree walk in `compile.rs`
/// or the descriptive registry nothing read.
#[test]
fn one_map() {
    none(
        "module_for_operator|ModuleEntry|CustomModuleSpec|SharedEval",
        &["crates", "src", "tests", "examples"],
    );
    none("^pub fn explain\\(", &["crates/core/src/compile.rs"]);
}

/// A grouped aggregate's scratchpads hold `[floor, max]` of the keys its
/// replica can produce (DESIGN.md §14 "A GROUP BY holds only its
/// replica's keys"): a hit is the `[0, max]` histogram every replica
/// drained whole.
#[test]
fn key_window() {
    none("max_key + 1", &["crates/core/src/lower/build.rs"]);
}

/// One type owns every value bound in the lowering, `lower::bounds::Bounds`
/// (DESIGN.md §14 "A GROUP BY holds only its replica's keys"): a hit is
/// the bare `(min, max)` pair whose `None` meant both "no rows" and "no
/// derivable bound".
#[test]
fn one_bounds_type() {
    none("min_value|max_value", &["crates/core/src/lower"]);
}

/// Deterministic numbers are tests and wall-clock claims gate through
/// `tools/bench_ab.sh` (DESIGN.md §6 "Two clocks, two gates"): a hit is a
/// second snapshot writer, a band gate or a bench reading another bench's
/// snapshot.
#[test]
fn one_snapshot_writer() {
    none(
        "perf[_]gate|BENCH_obs|BENCH_tier|BENCH_faults",
        &["crates", "tools", "tests", "examples", "README.md", "EXPERIMENTS.md", ".claude"],
    );
    none("fs::write|read_to_string|Json::parse", &["crates/bench/benches"]);
}

/// The pattern subset reads as `grep -E` would.
#[test]
fn patterns_read_as_grep_reads_them() {
    let hit = |pattern: &str, line: &str| matches(line, &parse(pattern));
    assert!(hit("fn find\\b", "    fn find(x: u8)"));
    assert!(!hit("fn find\\b", "pub fn find_col("));
    assert!(hit("\\bSplit\\b", "use x::Split;") && !hit("\\bSplit\\b", "SplitN"));
    assert!(hit("^pub fn explain\\(", "pub fn explain(plan)"));
    assert!(!hit("^pub fn explain\\(", "    pub fn explain(&self)"));
    assert!(hit("perf[_]gate", "perf_gate") && !hit("perf[_]gate", "perf[_]gate"));
    assert!(hit("READS.POS", "READS_POS") && hit("busy\\[", "busy[i]"));
    assert!(hit("a|b", "xb") && !hit("a|b", "xc"));
}
