//! Regenerates the paper's tables and figures and the extension studies,
//! each by name, from the one registry in `spdkfac_bench::experiments`.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin repro -- list
//! cargo run --release -p spdkfac-bench --bin repro -- table3 fig10
//! cargo run --release -p spdkfac-bench --bin repro -- all --csv /tmp/spdkfac-results
//! ```
//!
//! `--csv DIR` also writes `DIR/<name>.csv` for every selected experiment
//! with typed rows (Tables II and III, Figs. 10, 12 and 13). Exit codes: 0
//! ok, 2 usage error.

use spdkfac_bench::experiments::{find, Figure, FIGURES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: repro [--csv DIR] list | all | <name>...";

/// Parsed command line: the experiments to run and where their CSVs go.
struct Args {
    figures: Vec<&'static Figure>,
    csv_dir: Option<PathBuf>,
}

/// `Ok(None)` is `list`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut csv_dir = None;
    let mut names = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv_dir = Some(it.next().ok_or("--csv needs a directory")?.into()),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => names.push(other),
        }
    }
    let figures = match names.as_slice() {
        [] => return Err(USAGE.to_string()),
        ["list"] => return Ok(None),
        ["all"] => FIGURES.iter().collect(),
        names => names
            .iter()
            .map(|n| find(n).ok_or_else(|| format!("no experiment {n:?}; `repro list` names them")))
            .collect::<Result<_, _>>()?,
    };
    Ok(Some(Args { figures, csv_dir }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            for f in &FIGURES {
                println!("{:<20} {}", f.name, f.about);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("failed to create the CSV directory");
    }
    for f in &args.figures {
        let csv = (f.run)();
        if let (Some(dir), Some(csv)) = (&args.csv_dir, csv) {
            let path = dir.join(format!("{}.csv", f.name));
            std::fs::write(&path, csv).expect("failed to write CSV");
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.figures.iter().map(|f| f.name).collect()
    }

    #[test]
    fn names_select_experiments_in_the_order_given() {
        let args = parse(&["fig10", "--csv", "out", "table3"])
            .unwrap()
            .unwrap();
        assert_eq!(names(&args), ["fig10", "table3"]);
        assert_eq!(args.csv_dir, Some(PathBuf::from("out")));
        let all = parse(&["all"]).unwrap().unwrap();
        assert_eq!(all.figures.len(), FIGURES.len());
        assert!(all.csv_dir.is_none());
        assert!(parse(&["list"]).unwrap().is_none());
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for argv in [
            &[][..],
            &["fig6"],
            &["fig10_pipelining"],
            &["--csv"],
            &["all", "--bogus"],
            &["all", "fig1"],
            &["list", "fig1"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} parsed");
        }
    }
}
