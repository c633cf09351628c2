//! `kfac-bench`: the repository's benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! kfac-bench run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! kfac-bench layers [--seed N]
//! kfac-bench all [--seed N] [--seconds S]
//! kfac-bench aa [--runs 10] [--seed N] [--seconds S] [--workload W]
//! ```
//!
//! Every sub-command ends by printing one JSON line.

mod catalog;
mod compare;
mod layers;
mod report;
mod run;
mod stats;
mod sysinfo;

use catalog::{Workload, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

/// Seconds of timed segments when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

/// `--key value` options after the sub-command.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Options(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        let name: String = self.get("workload", String::new())?;
        if name.is_empty() {
            return Ok(None);
        }
        Workload::by_name(&name).map(Some).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })
    }
}

fn dispatch(started: Instant, args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: kfac-bench run|layers|all|aa [--option value]...")?;
    let opts = Options::parse(rest)?;
    let seed: u64 = opts.get("seed", 1)?;
    let seconds: f64 = opts.get("seconds", DEFAULT_SECONDS)?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0..=3600"));
    }
    match cmd.as_str() {
        "run" => {
            let w = opts.workload()?.ok_or("run needs --workload")?;
            run::prepare_env(w);
            let out = match opts.get("trace", 0u8)? {
                0 => run::timed_run(w, seed, seconds, run::MIN_SEGMENTS, started),
                1 => run::traced_run(w, seed, seconds, started),
                t => return Err(format!("--trace {t}: expected 0 or 1")),
            };
            println!("{}", out.to_json_line());
            Ok(out.correct)
        }
        "layers" => {
            // Same process environment as a run, without the pace.
            run::prepare_env(&WORKLOADS[WORKLOADS.len() - 1]);
            compare::layers(seed);
            Ok(true)
        }
        "all" => compare::all(seed, seconds),
        "aa" => compare::aa(opts.get("runs", 10)?, seed, seconds, opts.workload()?),
        other => Err(format!("unknown sub-command {other:?}")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(started, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kfac-bench: {e}");
            ExitCode::from(2)
        }
    }
}
