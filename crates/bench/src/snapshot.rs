//! The one writer of the committed `BENCH_*.json` snapshots.
//!
//! Every snapshot has one schema: `bench`, `commit` (`git describe
//! --always --dirty`, `unknown` outside git), `host_cores`, and `rows`,
//! each `{label, metric, clock, value}`. The clock says how a row is
//! held: a [`Clock::Modeled`] value repeats exactly on any host, so
//! `tests/golden.rs` regenerates it in-process and asserts equality; a
//! [`Clock::Wall`] value is information, and gates only through the
//! alternating A/B of `tools/bench_ab.sh`.

use std::fmt;
use std::path::PathBuf;

/// Which clock a snapshot value was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated cycles, flits, counts, and anything derived only from
    /// them: repeats exactly on any host.
    Modeled,
    /// Host wall-clock, or anything that depends on it.
    Wall,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Modeled => "modeled",
            Clock::Wall => "wall",
        }
    }
}

/// A snapshot value; its [`fmt::Display`] is the JSON token written.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact count.
    Count(u64),
    /// A number rounded to the given decimal places.
    Fixed(f64, usize),
    /// A name, such as the bound that chose a replication factor.
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Fixed(x, places) => write!(f, "{x:.places$}"),
            Value::Text(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Count(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Count(n as u64)
    }
}

/// One `{label, metric, clock, value}` row of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The configuration measured (`fast/1t`, `scalar_sum`, …).
    pub label: String,
    /// What was measured (`sim_cycles`, `wall_ms`, …).
    pub metric: &'static str,
    /// Which clock the value was read from.
    pub clock: Clock,
    /// The value.
    pub value: Value,
}

impl Row {
    /// A row that repeats exactly on any host.
    #[must_use]
    pub fn modeled(label: &str, metric: &'static str, value: impl Into<Value>) -> Row {
        Row { label: label.to_owned(), metric, clock: Clock::Modeled, value: value.into() }
    }

    /// A host wall-clock row.
    #[must_use]
    pub fn wall(label: &str, metric: &'static str, value: impl Into<Value>) -> Row {
        Row { label: label.to_owned(), metric, clock: Clock::Wall, value: value.into() }
    }
}

/// The snapshot text for `bench`'s rows, stamped with the commit and the
/// host's core count.
fn render(bench: &str, rows: &[Row]) -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"label\": {}, \"metric\": \"{}\", \"clock\": \"{}\", \"value\": {}}}",
                Value::Text(r.label.clone()),
                r.metric,
                r.clock.as_str(),
                r.value
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"commit\": \"{commit}\",\n  \"host_cores\": {host_cores},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Writes `bench`'s rows to `file` at the repository root.
///
/// # Panics
///
/// Panics when the file cannot be written (the bench treats that as fatal).
pub fn emit(bench: &str, file: &str, rows: &[Row]) {
    let out = repo_root().join(file);
    std::fs::write(&out, render(bench, rows))
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("\nsnapshot written to {}", out.display());
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}
