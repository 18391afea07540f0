//! `genesis_e2e`: the repository's end-to-end benchmark.
//!
//! Four closed-loop, single-client workloads drive the product through
//! its public functions; six end-to-end metrics are reported on two named
//! clocks (modeled device cycles, host wall-clock normalised to a
//! reference host), and `--trace 1` adds a pass that times the calls into
//! each layer from outside. See `README.md` beside this package.

mod calib;
mod host;
mod metrics;
mod run;
mod trace;
mod workloads;

use genesis_obs::json::Json;
use metrics::{MetricDef, Values};
use run::{Config, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage: genesis_e2e --workload <serve_hot|serve_adhoc|serve_genomics|stages>
                   [--seed N] [--seconds S] [--trace [0|1]] [--trace-out PATH]
       genesis_e2e --repeat N [--workload W] [--seed N] [--seconds S] [--trace [0|1]]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workloads::REF_SECONDS,
        trace: false,
        trace_out: None,
        repeat: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // A bare `--trace` means on; the driver passes `--trace 0|1`.
            args.trace = match it.next_if(|v| !v.starts_with("--")) {
                None => true,
                Some(v) if v == "1" => true,
                Some(v) if v == "0" => false,
                Some(v) => return Err(format!("--trace takes 0 or 1, got `{v}`")),
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--repeat" => {
                args.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("a count ≥ 1"))?,
                );
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn json_metrics(values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (def, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push('}');
    out
}

/// The contract's last line: with tracing off the end-to-end metrics,
/// with tracing on the per-layer ones.
fn result_line(report: &Report) -> String {
    let values = report.per_layer.as_ref().unwrap_or(&report.end_to_end);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        json_metrics(values)
    )
}

/// `bounds` are the regression bounds of the end-to-end metrics; the
/// per-layer metrics have none.
fn print_values(title: &str, values: &Values, bounds: &[f64]) {
    println!("{title}");
    for (i, (def, value)) in values.iter().enumerate() {
        let bound = bounds
            .get(i)
            .map_or(String::new(), |b| format!("; bound {:.0} %", b * 100.0));
        println!(
            "  {:<32} {value:>16.4} {:<10} [{}; {} is better{bound}]",
            def.name, def.unit, def.clock, def.better
        );
    }
}

fn print_report(cfg: &Config, report: &Report, cpu: Option<usize>) {
    let p = &report.plan;
    println!(
        "genesis_e2e workload={} seed={} seconds={} | {} ops in blocks of {}, {} set-ups, \
         1 client, host_threads=1, 1 device, all threads {}",
        cfg.spec.name,
        cfg.seed,
        cfg.seconds,
        p.ops,
        p.block,
        p.setups,
        cpu.map_or("not pinned".to_owned(), |n| format!("pinned to CPU {n}")),
    );
    println!(
        "ops attempted {} / succeeded {} / failed {} | latency samples {} | outputs {}",
        report.attempted,
        report.attempted - report.failed,
        report.failed,
        report.samples,
        if report.correct {
            "match the oracle"
        } else {
            "DO NOT match the oracle"
        },
    );
    println!(
        "blocks {} / left out {} (calibrations before and after differ by more than {:.0} %)",
        report.blocks,
        report.blocks_discarded,
        calib::BRACKET_TOLERANCE * 100.0
    );
    if report.noisy_host() {
        let warning = "NOISY HOST: over half the blocks were left out; do not compare this \
                       run's host-clock metrics";
        println!("{warning}");
        eprintln!("genesis_e2e: {warning}");
    }
    print_values(
        "end-to-end:",
        &report.end_to_end,
        &metrics::END_TO_END_BOUNDS,
    );
    if let Some(per_layer) = &report.per_layer {
        print_values(
            &format!("per-layer ({} traced ops):", p.trace_ops),
            per_layer,
            &[],
        );
        if cfg.spec.kind == workloads::Kind::Stages {
            println!(
                "  note: accel.modeled_speedup_geomean divides measured software time by modeled \
                 device time;\n  the device model is unvalidated against hardware (the repository \
                 holds no F1 measurements), so no error figure is given."
            );
        }
    }
}

fn run_once(args: &Args, cpu: Option<usize>) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let cfg = Config {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_out: args.trace_out.clone(),
        smoke: false,
    };
    let report = run::run(&cfg)?;
    print_report(&cfg, &report, cpu);
    println!("{}", result_line(&report));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the benchmark `n` times per workload in child processes (so every
/// run starts with a fresh allocator and peak RSS) and prints the spread.
fn repeat(args: &Args, n: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::SPECS.iter().map(|s| s.name).collect(),
    };
    let defs: &[MetricDef] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut all_ok = true;
    for name in names {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
        for i in 0..n {
            let out = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawning run {i}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let json = Json::parse(last).map_err(|e| {
                format!(
                    "run {i} of {name} printed no result ({e}): {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
            all_ok &= out.status.success();
            for (def, column) in defs.iter().zip(&mut samples) {
                let value = json
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("run {i} of {name} lacks `{}`", def.name))?;
                column.push(value);
            }
        }
        println!("{name}: {n} runs, seed {}, {} s", args.seed, args.seconds);
        println!(
            "  {:<32} {:>14} {:>14} {:>14} {:>9}  unit",
            "metric", "median", "min", "max", "range/med"
        );
        for (def, column) in defs.iter().zip(&samples) {
            let med = calib::median(column);
            let min = column.iter().copied().fold(f64::INFINITY, f64::min);
            let max = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med == 0.0 { 0.0 } else { (max - min) / med };
            println!(
                "  {:<32} {med:>14.4} {min:>14.4} {max:>14.4} {:>8.2}%  {}",
                def.name,
                spread * 100.0,
                def.unit
            );
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before any thread exists: no GENESIS_* knob of the caller reaches
    // the product.
    host::scrub_genesis_env();
    // Likewise before any thread: they all inherit the one CPU.
    let cpu = host::pin_to_one_cpu();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.repeat {
        Some(n) => repeat(&args, n),
        None => run_once(&args, cpu),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("genesis_e2e: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line_and_the_bare_trace_flag() {
        let a = parse_args(&argv("--workload stages --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("stages"), 7, 3.0, true)
        );
        assert!(
            !parse_args(&argv("--workload stages --trace 0"))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&argv("--trace --workload stages"))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&argv("--workload stages --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    /// Every workload, the traced pass and the result line, at 1/200 of
    /// the op counts on tenth-size inputs.
    #[test]
    fn smoke_every_workload_traced() {
        for spec in &workloads::SPECS {
            let dir = std::env::temp_dir();
            let cfg = Config {
                spec,
                seed: 3,
                seconds: workloads::REF_SECONDS / 200.0,
                trace: true,
                trace_out: Some(dir.join(format!(
                    "genesis_e2e_smoke_{}_{}.json",
                    spec.name,
                    std::process::id()
                ))),
                smoke: true,
            };
            let report = run::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                report.correct,
                "{}: outputs differ from the oracle",
                spec.name
            );
            assert_eq!(report.failed, 0, "{}", spec.name);
            assert!(report.attempted >= report.plan.ops + report.plan.trace_ops);
            for (def, value) in report.end_to_end.iter() {
                assert!(value > 0.0, "{}: {} is {value}", spec.name, def.name);
            }
            let line = result_line(&report);
            let json = Json::parse(&line).expect("result line is JSON");
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = json.get("metrics").expect("metrics object");
            for def in &metrics::PER_LAYER {
                let m = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("missing {}", def.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{}",
                    def.name
                );
            }
            let trace_file = cfg.trace_out.as_ref().unwrap();
            let text = std::fs::read_to_string(trace_file).expect("trace file written");
            let events = Json::parse(&text).expect("trace file is JSON");
            assert!(events
                .get("traceEvents")
                .and_then(Json::as_array)
                .is_some_and(|e| e.len() > 3));
            let _ = std::fs::remove_file(trace_file);
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics,
    /// bounds, workloads and run length this binary is built around.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside this package");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.get(field).and_then(Json::as_str).map(str::to_owned))
                .collect()
        };
        let table = |defs: &[MetricDef], f: fn(&MetricDef) -> &str| -> Vec<String> {
            defs.iter().map(|d| f(d).to_owned()).collect()
        };
        assert_eq!(
            names("end_to_end", "name"),
            table(&metrics::END_TO_END, |d| d.name)
        );
        assert_eq!(
            names("end_to_end", "unit"),
            table(&metrics::END_TO_END, |d| d.unit)
        );
        assert_eq!(
            names("end_to_end", "better"),
            table(&metrics::END_TO_END, |d| d.better)
        );
        assert_eq!(
            names("per_layer", "name"),
            table(&metrics::PER_LAYER, |d| d.name)
        );
        assert_eq!(
            names("per_layer", "unit"),
            table(&metrics::PER_LAYER, |d| d.unit)
        );
        assert_eq!(
            names("per_layer", "better"),
            table(&metrics::PER_LAYER, |d| d.better)
        );
        let bounds: Vec<f64> = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("bound").and_then(Json::as_f64))
            .collect();
        assert_eq!(bounds, metrics::END_TO_END_BOUNDS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::REF_SECONDS)
        );
        let specs: Vec<String> = workloads::SPECS.iter().map(|s| s.name.to_owned()).collect();
        assert_eq!(names("workloads", "name"), specs);
    }
}
