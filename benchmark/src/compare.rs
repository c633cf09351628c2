//! The sub-commands built on top of single runs: `layers` (micro-benchmarks
//! alone), `all` (the four workloads, one child process each) and `aa`
//! (two interleaved sets of the same binary, to show what the noise of
//! this host lets a comparison resolve).

use crate::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::layers;
use crate::report::RunOutput;
use crate::run::{print_metrics, HostWatch};
use crate::stats::{median, quartiles, spread};
use spdkfac_obs::escape_json;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `kfac-bench layers`: the micro-benchmarks without a training run.
pub fn layers(seed: u64) {
    let host = HostWatch::start("layers");
    let measured = layers::measure(seed, None);
    host.finish();
    let (defs, values): (Vec<MetricDef>, Vec<f64>) = PER_LAYER
        .iter()
        .filter_map(|d| {
            let (_, v) = measured.iter().find(|(name, _)| *name == d.name)?;
            Some((*d, *v))
        })
        .unzip();
    assert_eq!(
        defs.len(),
        measured.len(),
        "every measured metric is in the catalog"
    );
    let out = RunOutput::new(defs.len() as u64, 0, &defs, &values);
    print_metrics(&out, &defs);
    println!("{}", out.to_json_line());
}

/// Runs `kfac-bench run` for `w` as a child process and returns its parsed
/// result line. With `echo`, the child's other output is passed through.
fn child_run(w: &Workload, seed: u64, seconds: f64, echo: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["run", "--workload", w.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child run: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        if echo && !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    // A failing run still prints its result line; the exit code repeats
    // `correct`, which the caller reads from the line.
    child.wait().map_err(|e| format!("wait for child: {e}"))?;
    RunOutput::parse(&last).map_err(|e| format!("{} seed {seed}: {e}", w.name))
}

/// `kfac-bench all`: every workload once, each in its own process; every
/// end-to-end metric by name with unit, then one JSON line.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut entries = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in &WORKLOADS {
        let out = child_run(w, seed, seconds, true)?;
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        entries.push(format!(
            "\"{}\": {}",
            escape_json(w.name),
            out.to_json_line()
        ));
        println!();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"workloads\": {{{}}}}}",
        entries.join(", ")
    );
    Ok(correct)
}

/// How one metric of one workload compared between the two sets.
struct Pairing {
    gap: f64,
    spread: f64,
    bound: f64,
    /// `setup_s` is exempt from the spread rule (contract).
    spread_counts: bool,
}

impl Pairing {
    fn new(def: &MetricDef, a: &[f64], b: &[f64]) -> Self {
        Pairing {
            // The sets are the same code, so a gap either way is noise.
            gap: (median(b) / median(a) - 1.0).abs(),
            spread: spread(a).max(spread(b)),
            bound: def.bound.expect("end-to-end metrics carry a bound"),
            spread_counts: def.name != "setup_s",
        }
    }

    fn ok(&self) -> bool {
        self.gap <= self.bound && (!self.spread_counts || self.spread <= self.bound)
    }

    fn verdict(&self) -> &'static str {
        if !self.ok() {
            "MISS"
        } else if self.spread_counts && self.spread > self.bound / 3.0 {
            "ok (spread above a third of the bound)"
        } else {
            "ok"
        }
    }
}

/// `kfac-bench aa`: `runs` runs each of sets A and B — the same binary —
/// in the order A B B A A B ..., run `i` of both sets on seed `seed + i`.
/// Sequential sets would put a host phase wholly on one side; alternating
/// puts it on both. Per workload and metric: both medians and quartiles,
/// the spread (IQR / median, as the contract computes it), the gap between
/// the medians, the bound, a verdict.
pub fn aa(
    runs: usize,
    seed: u64,
    seconds: f64,
    only: Option<&'static Workload>,
) -> Result<bool, String> {
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let host = HostWatch::start(&format!("aa, {runs} runs per set"));
    let mut all_ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        // sets[set][metric] = one value per run
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..runs {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let out = child_run(w, seed + i as u64, seconds, false)?;
                if !out.correct {
                    println!(
                        "# {} run {i} set {}: INCORRECT ({} failed)",
                        w.name, set, out.failed
                    );
                    all_ok = false;
                }
                for (values, def) in sets[set].iter_mut().zip(&END_TO_END) {
                    values
                        .push(out.get(def.name).ok_or_else(|| {
                            format!("{}: result line lacks {}", w.name, def.name)
                        })?);
                }
                println!(
                    "# {} run {i} set {}: iter_wall_s {:.6} iter_cpu_s {:.6}",
                    w.name,
                    ["A", "B"][set],
                    out.get("iter_wall_s").unwrap_or(f64::NAN),
                    out.get("iter_cpu_s").unwrap_or(f64::NAN),
                );
            }
        }
        println!("\n== {} ({runs} runs per set) ==", w.name);
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let p = Pairing::new(def, a, b);
            all_ok &= p.ok();
            let show = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.6} [{q1:.6}, {q3:.6}]")
            };
            println!(
                "{:<18} {:<3} A {} | B {} | spread {:.2}% | gap {:.2}% | bound {:.0}% | {}",
                def.name,
                def.unit,
                show(a),
                show(b),
                p.spread * 100.0,
                p.gap * 100.0,
                p.bound * 100.0,
                p.verdict()
            );
            rows.push(format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"median_a\": {}, \"median_b\": {}, \
                 \"spread\": {}, \"gap\": {}, \"bound\": {}, \"ok\": {}}}",
                escape_json(w.name),
                escape_json(def.name),
                median(a),
                median(b),
                p.spread,
                p.gap,
                p.bound,
                p.ok()
            ));
        }
        println!();
    }
    host.finish();
    println!(
        "{{\"ok\": {all_ok}, \"runs_per_set\": {runs}, \"rows\": [{}]}}",
        rows.join(", ")
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_applies_gap_and_spread_rules() {
        let wall = &END_TO_END[0];
        let bound = wall.bound.expect("end-to-end metrics carry a bound");
        let steady: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let shifted: Vec<f64> = steady.iter().map(|v| v * (1.0 + 2.0 * bound)).collect();
        assert_eq!(Pairing::new(wall, &steady, &steady).verdict(), "ok");
        assert!(!Pairing::new(wall, &steady, &shifted).ok());
        assert!(!Pairing::new(wall, &shifted, &steady).ok());
        // A wide spread fails a timing metric but not setup_s.
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + bound * f64::from(i)).collect();
        assert!(!Pairing::new(wall, &noisy, &noisy).ok());
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("in catalog");
        assert!(Pairing::new(setup, &noisy, &noisy).ok());
    }
}
