//! `genesis SCRIPT DATA`: runs an extended-SQL script on a data set
//! through a `GenesisServer`, checks every result table against the SQL
//! engine, and prints the compiled pipeline, the result and the modeled
//! clock on stdout; the wall clock goes to stderr. `DATA` is `genomics`
//! or a generated scale (`tiny`, `small`, `medium`, `large`); the server
//! takes the `GENESIS_*` knobs (see [`genesis_bench::run`]).
//!
//! Example: `./target/release/genesis scripts/figure4.sql tiny`
//!
//! Exit codes: 0 when every table matches, 1 on any error (the message is
//! on stderr), 2 on a usage error or a malformed `GENESIS_*` variable.

use genesis_bench::fmt_dur;
use genesis_core::env::GenesisEnv;
use genesis_core::serve::ServerConfig;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [script, data] = args.as_slice() else {
        eprintln!("usage: genesis SCRIPT.sql DATA (DATA: genomics, tiny, small, medium or large)");
        return ExitCode::from(2);
    };
    let cfg = match ServerConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", GenesisEnv::help());
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let result = std::fs::read_to_string(script)
        .map_err(|e| format!("{script}: {e}").into())
        .and_then(|sql| genesis_bench::run(&sql, data, cfg));
    match result {
        Ok(out) => {
            print!("{out}");
            eprintln!("wall: {}", fmt_dur(start.elapsed()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
