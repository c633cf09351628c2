//! Performance-regression diff over two `BENCH_kernels.json` snapshots.
//!
//! Parses a baseline and a candidate produced by `bench_kernels` (any mix of
//! `--smoke` and full runs), matches rows by `(kernel, dim)`, and prints the
//! per-kernel `optimized_s` deltas. Exits nonzero when any overlapping row
//! regressed past the threshold, so CI can gate on it:
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin bench_diff -- \
//!     BENCH_kernels.json /tmp/fresh.json --threshold 1.5
//! ```
//!
//! `--check` relaxes the comparison for schema gating: both files must parse
//! and carry the expected schema and well-formed kernel rows, but an empty
//! overlap (e.g. a `--smoke` candidate against a committed full run, whose
//! dimension grids are disjoint) passes instead of failing — the point of
//! that mode is "the artifact is still the shape the tooling expects".
//!
//! Wire-format benchmarks are auto-detected: when either input carries the
//! `spdkfac-bench-wire-v1` schema (as written by `bench_wire`), rows are
//! joined on `(format|mode, world)` and the gated quantity is the mean
//! per-rank per-iteration communication time `comm_s`, under the same
//! ratio threshold. Here `--check` validates both files and skips the
//! timing gate entirely: a smoke candidate shares every key with the
//! committed full run but measures far fewer iterations over a noisy
//! loopback, so its times are only schema-, not trend-, comparable.
//!
//! Scaling benchmarks are auto-detected the same way: when either input
//! carries the `spdkfac-bench-scale-v1` schema (as written by
//! `bench_scale`), rows are joined on `(model|topology|policy, world)` and
//! the gated quantity is the simulated iteration time `total_s`. Because
//! the simulator is deterministic, the gate applies even under `--check`
//! whenever the files overlap: a smoke candidate disagreeing with the
//! committed full sweep is a real behaviour change, not noise.
//!
//! `--critical` switches to critical-path mode: both inputs must be
//! `spdkfac-critical-path-v1` reports (as written by
//! `obs_critical_path --json`). Per-rank compute / overlapped-comm /
//! exposed-comm / idle seconds are normalized to shares of the wall time
//! and joined on rank; the gate trips when any rank's **exposed** or
//! **idle** share grew by more than the threshold, interpreted as
//! *percentage points* (default 5.0) — "the candidate hides less
//! communication than the baseline did".
//!
//! Exit codes: `0` ok, `1` regression past threshold, `2` usage / parse /
//! schema error.

use spdkfac_obs::table::{fmt_secs, Table};
use spdkfac_obs::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Expected `schema` field of both inputs (kernel mode).
const SCHEMA: &str = "spdkfac-bench-kernels-v1";

/// Expected `schema` field of both inputs (`--critical` mode).
const CRIT_SCHEMA: &str = "spdkfac-critical-path-v1";

/// Auto-detected `schema` of `bench_wire` artifacts.
const WIRE_SCHEMA: &str = "spdkfac-bench-wire-v1";

/// Auto-detected `schema` of `bench_scale` artifacts.
const SCALE_SCHEMA: &str = "spdkfac-bench-scale-v1";

/// Default regression threshold: candidate slower than `1.25 x` baseline.
const DEFAULT_THRESHOLD: f64 = 1.25;

/// Default `--critical` threshold: an exposed/idle share growing by more
/// than 5 percentage points of wall time.
const DEFAULT_CRIT_THRESHOLD_PP: f64 = 5.0;

/// One `(kernel, dim) -> optimized_s` mapping extracted from a bench file.
type KernelTimes = BTreeMap<(String, usize), f64>;

/// Parsed command line.
struct Args {
    baseline: String,
    candidate: String,
    threshold: f64,
    check: bool,
    critical: bool,
}

fn usage() -> String {
    "usage: bench_diff <baseline.json> <candidate.json> [--threshold X] [--check] [--critical]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut check = false;
    let mut critical = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threshold" => {
                i += 1;
                let v = argv
                    .get(i)
                    .ok_or_else(|| "--threshold needs a value".to_string())?;
                let t = v
                    .parse::<f64>()
                    .map_err(|e| format!("--threshold {v}: {e}"))?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("--threshold must be positive, got {t}"));
                }
                threshold = Some(t);
            }
            "--check" => check = true,
            "--critical" => critical = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let Ok([baseline, candidate]) = <[String; 2]>::try_from(positional) else {
        return Err(usage());
    };
    let threshold = threshold.unwrap_or(if critical {
        DEFAULT_CRIT_THRESHOLD_PP
    } else {
        DEFAULT_THRESHOLD
    });
    Ok(Args {
        baseline,
        candidate,
        threshold,
        check,
        critical,
    })
}

/// Validates the schema and extracts `(kernel, dim) -> optimized_s`.
fn extract(doc: &JsonValue, name: &str) -> Result<KernelTimes, String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{name}: missing schema field"))?;
    if schema != SCHEMA {
        return Err(format!("{name}: schema {schema:?}, expected {SCHEMA:?}"));
    }
    let kernels = doc
        .get("kernels")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{name}: missing kernels array"))?;
    let mut out = KernelTimes::new();
    for (i, row) in kernels.iter().enumerate() {
        let kernel = row
            .get("kernel")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{name}: kernels[{i}] missing kernel"))?;
        let dim = row
            .get("dim")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: kernels[{i}] missing dim"))?;
        let secs = row
            .get("optimized_s")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: kernels[{i}] missing optimized_s"))?;
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("{name}: kernels[{i}] optimized_s must be positive"));
        }
        out.insert((kernel.to_string(), dim as usize), secs);
    }
    Ok(out)
}

/// Validates the wire-bench schema and extracts
/// `(format|mode, world) -> comm_s` into the kernel-times shape, so the
/// generic ratio diff applies unchanged.
fn extract_wire(doc: &JsonValue, name: &str) -> Result<KernelTimes, String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{name}: missing schema field"))?;
    if schema != WIRE_SCHEMA {
        return Err(format!(
            "{name}: schema {schema:?}, expected {WIRE_SCHEMA:?}"
        ));
    }
    let world = doc
        .get("world")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{name}: missing world field"))?;
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{name}: missing rows array"))?;
    let mut out = KernelTimes::new();
    for (i, row) in rows.iter().enumerate() {
        let format = row
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{name}: rows[{i}] missing format"))?;
        let mode = row
            .get("mode")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{name}: rows[{i}] missing mode"))?;
        let comm = row
            .get("comm_s")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: rows[{i}] missing comm_s"))?;
        if !(comm.is_finite() && comm > 0.0) {
            return Err(format!("{name}: rows[{i}] comm_s must be positive"));
        }
        // Wire bytes are part of the shape contract even though the gate
        // is on time: a row that stops reporting them breaks downstream
        // tooling, so `--check` should catch it here.
        row.get("wire_bytes")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: rows[{i}] missing wire_bytes"))?;
        out.insert((format!("{format}|{mode}"), world as usize), comm);
    }
    Ok(out)
}

/// Validates the scale-bench schema and extracts
/// `(model|topology|policy, world) -> total_s` into the kernel-times
/// shape. The simulator is deterministic, so unlike the measured wire
/// bench, overlapping rows of a smoke candidate and a committed full run
/// must agree exactly — the plain ratio gate applies.
fn extract_scale(doc: &JsonValue, name: &str) -> Result<KernelTimes, String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{name}: missing schema field"))?;
    if schema != SCALE_SCHEMA {
        return Err(format!(
            "{name}: schema {schema:?}, expected {SCALE_SCHEMA:?}"
        ));
    }
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{name}: missing rows array"))?;
    let mut out = KernelTimes::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |key: &str| {
            row.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{name}: rows[{i}] missing {key}"))
        };
        let model = field("model")?;
        let topology = field("topology")?;
        let policy = field("policy")?;
        let world = row
            .get("world")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: rows[{i}] missing world"))?;
        let total = row
            .get("total_s")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: rows[{i}] missing total_s"))?;
        if !(total.is_finite() && total > 0.0) {
            return Err(format!("{name}: rows[{i}] total_s must be positive"));
        }
        // The divergence column is part of the shape contract: the CI
        // scaling gate reads it, so a row dropping it must fail --check.
        row.get("divergence_vs_lbp")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: rows[{i}] missing divergence_vs_lbp"))?;
        out.insert(
            (format!("{model}|{topology}|{policy}"), world as usize),
            total,
        );
    }
    Ok(out)
}

/// Per-rank share of wall time spent in each category, in category order
/// `compute, overlapped, exposed, idle` (unitless fractions).
type RankShares = BTreeMap<usize, [f64; 4]>;

/// Category labels matching the [`RankShares`] array order. The latter two
/// are the gated ones: growth there means communication stopped hiding.
const CRIT_CATEGORIES: [&str; 4] = ["compute", "overlapped", "exposed", "idle"];

/// Validates the `--critical` schema and extracts per-rank category shares.
fn extract_critical(doc: &JsonValue, name: &str) -> Result<RankShares, String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{name}: missing schema field"))?;
    if schema != CRIT_SCHEMA {
        return Err(format!(
            "{name}: schema {schema:?}, expected {CRIT_SCHEMA:?}"
        ));
    }
    let wall = doc
        .get("wall_s")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{name}: missing wall_s"))?;
    if !(wall.is_finite() && wall > 0.0) {
        return Err(format!("{name}: wall_s must be positive, got {wall}"));
    }
    let ranks = doc
        .get("ranks")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{name}: missing ranks array"))?;
    let mut out = RankShares::new();
    for (i, row) in ranks.iter().enumerate() {
        let rank = row
            .get("rank")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: ranks[{i}] missing rank"))?;
        let mut shares = [0.0f64; 4];
        for (slot, field) in
            shares
                .iter_mut()
                .zip(["compute_s", "overlapped_s", "exposed_s", "idle_s"])
        {
            let secs = row
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name}: ranks[{i}] missing {field}"))?;
            if !(secs.is_finite() && secs >= 0.0) {
                return Err(format!("{name}: ranks[{i}] {field} must be >= 0"));
            }
            *slot = secs / wall;
        }
        out.insert(rank as usize, shares);
    }
    Ok(out)
}

fn load_doc(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_critical(path: &str) -> Result<RankShares, String> {
    extract_critical(&load_doc(path)?, path)
}

/// One diffed row.
struct DiffRow {
    kernel: String,
    dim: usize,
    baseline: f64,
    candidate: f64,
}

impl DiffRow {
    fn ratio(&self) -> f64 {
        self.candidate / self.baseline
    }
}

/// Joins the two snapshots on `(kernel, dim)`.
fn diff(baseline: &KernelTimes, candidate: &KernelTimes) -> Vec<DiffRow> {
    baseline
        .iter()
        .filter_map(|((kernel, dim), &b)| {
            candidate.get(&(kernel.clone(), *dim)).map(|&c| DiffRow {
                kernel: kernel.clone(),
                dim: *dim,
                baseline: b,
                candidate: c,
            })
        })
        .collect()
}

/// Renders the diff table and returns the regressed rows. `labels` names
/// the key columns: `["kernel", "dim"]` or `["row", "world"]`.
fn report(rows: &[DiffRow], threshold: f64, labels: [&str; 2]) -> Vec<String> {
    let mut t = Table::new([
        labels[0],
        labels[1],
        "baseline",
        "candidate",
        "ratio",
        "status",
    ]);
    let mut regressed = Vec::new();
    for r in rows {
        let ratio = r.ratio();
        let status = if ratio > threshold {
            regressed.push(format!(
                "{} {}={} ({:.2}x)",
                r.kernel, labels[1], r.dim, ratio
            ));
            "REGRESSED"
        } else if ratio < 1.0 / threshold {
            "improved"
        } else {
            "ok"
        };
        t.push_row([
            r.kernel.clone(),
            r.dim.to_string(),
            fmt_secs(r.baseline),
            fmt_secs(r.candidate),
            format!("{ratio:.3}"),
            status.to_string(),
        ]);
    }
    print!("{}", t.render_text());
    regressed
}

/// One diffed `(rank, category)` share row of `--critical` mode.
struct CritRow {
    rank: usize,
    category: &'static str,
    baseline: f64,
    candidate: f64,
    /// Only exposed/idle growth trips the gate; compute/overlapped shifts
    /// are reported for context.
    gated: bool,
}

impl CritRow {
    /// Share change in percentage points of wall time.
    fn delta_pp(&self) -> f64 {
        (self.candidate - self.baseline) * 100.0
    }
}

/// Joins two critical-path reports on rank, one row per category.
fn diff_critical(baseline: &RankShares, candidate: &RankShares) -> Vec<CritRow> {
    baseline
        .iter()
        .filter_map(|(&rank, b)| candidate.get(&rank).map(|c| (rank, b, c)))
        .flat_map(|(rank, b, c)| {
            CRIT_CATEGORIES
                .iter()
                .enumerate()
                .map(move |(k, &category)| CritRow {
                    rank,
                    category,
                    baseline: b[k],
                    candidate: c[k],
                    gated: category == "exposed" || category == "idle",
                })
        })
        .collect()
}

/// Renders the `--critical` diff table and returns the regressed rows.
fn report_critical(rows: &[CritRow], threshold_pp: f64) -> Vec<String> {
    let mut t = Table::new([
        "rank",
        "category",
        "baseline",
        "candidate",
        "delta",
        "status",
    ]);
    let mut regressed = Vec::new();
    for r in rows {
        let delta = r.delta_pp();
        let status = if r.gated && delta > threshold_pp {
            regressed.push(format!(
                "rank {} {} share +{:.1}pp ({:.1}% -> {:.1}%)",
                r.rank,
                r.category,
                delta,
                r.baseline * 100.0,
                r.candidate * 100.0
            ));
            "REGRESSED"
        } else if r.gated && delta < -threshold_pp {
            "improved"
        } else {
            "ok"
        };
        t.push_row([
            r.rank.to_string(),
            r.category.to_string(),
            format!("{:.1}%", r.baseline * 100.0),
            format!("{:.1}%", r.candidate * 100.0),
            format!("{delta:+.1}pp"),
            status.to_string(),
        ]);
    }
    print!("{}", t.render_text());
    regressed
}

fn run_critical(args: &Args) -> Result<ExitCode, String> {
    let baseline = load_critical(&args.baseline)?;
    let candidate = load_critical(&args.candidate)?;
    let rows = diff_critical(&baseline, &candidate);
    if rows.is_empty() {
        if args.check {
            println!("bench_diff --check: schemas ok, no overlapping ranks to compare");
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!(
            "no overlapping ranks between {} and {}",
            args.baseline, args.candidate
        ));
    }
    let regressed = report_critical(&rows, args.threshold);
    println!(
        "{} rank(s) compared, threshold {:.1}pp on exposed/idle shares, {} regression(s)",
        rows.len() / CRIT_CATEGORIES.len(),
        args.threshold,
        regressed.len()
    );
    if regressed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressed {
            eprintln!("regression: {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// True when the parsed document carries the `bench_wire` schema.
fn is_wire(doc: &JsonValue) -> bool {
    doc.get("schema").and_then(JsonValue::as_str) == Some(WIRE_SCHEMA)
}

/// True when the parsed document carries the `bench_scale` schema.
fn is_scale(doc: &JsonValue) -> bool {
    doc.get("schema").and_then(JsonValue::as_str) == Some(SCALE_SCHEMA)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.critical {
        return run_critical(args);
    }
    let base_doc = load_doc(&args.baseline)?;
    let cand_doc = load_doc(&args.candidate)?;
    if is_wire(&base_doc) || is_wire(&cand_doc) {
        return run_wire(args, &base_doc, &cand_doc);
    }
    if is_scale(&base_doc) || is_scale(&cand_doc) {
        return run_scale(args, &base_doc, &cand_doc);
    }
    let baseline = extract(&base_doc, &args.baseline)?;
    let candidate = extract(&cand_doc, &args.candidate)?;
    let rows = diff(&baseline, &candidate);
    if rows.is_empty() {
        if args.check {
            println!(
                "bench_diff --check: schemas ok, no overlapping (kernel, dim) rows to compare"
            );
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!(
            "no overlapping (kernel, dim) rows between {} and {}",
            args.baseline, args.candidate
        ));
    }
    let regressed = report(&rows, args.threshold, ["kernel", "dim"]);
    println!(
        "{} row(s) compared, threshold {:.2}x, {} regression(s)",
        rows.len(),
        args.threshold,
        regressed.len()
    );
    if regressed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressed {
            eprintln!("regression: {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Wire-bench mode: both inputs must carry [`WIRE_SCHEMA`]. Under
/// `--check` the files are validated and the timing gate is skipped (see
/// the module doc for why smoke-vs-full times are not comparable).
fn run_wire(args: &Args, base_doc: &JsonValue, cand_doc: &JsonValue) -> Result<ExitCode, String> {
    let baseline = extract_wire(base_doc, &args.baseline)?;
    let candidate = extract_wire(cand_doc, &args.candidate)?;
    if args.check {
        println!(
            "bench_diff --check: wire schemas ok ({} baseline / {} candidate rows)",
            baseline.len(),
            candidate.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let rows = diff(&baseline, &candidate);
    if rows.is_empty() {
        return Err(format!(
            "no overlapping (format|mode, world) rows between {} and {}",
            args.baseline, args.candidate
        ));
    }
    let regressed = report(&rows, args.threshold, ["row", "world"]);
    println!(
        "{} wire row(s) compared on comm_s, threshold {:.2}x, {} regression(s)",
        rows.len(),
        args.threshold,
        regressed.len()
    );
    if regressed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressed {
            eprintln!("regression: {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Scale-bench mode: both inputs must carry [`SCALE_SCHEMA`]. The rows are
/// deterministic simulation outputs, so even under `--check` the
/// overlapping `(model|topology|policy, world)` rows are gated — a smoke
/// candidate that disagrees with the committed full sweep means the
/// simulator's scaling behaviour moved, which is exactly what the CI gate
/// exists to catch.
fn run_scale(args: &Args, base_doc: &JsonValue, cand_doc: &JsonValue) -> Result<ExitCode, String> {
    let baseline = extract_scale(base_doc, &args.baseline)?;
    let candidate = extract_scale(cand_doc, &args.candidate)?;
    let rows = diff(&baseline, &candidate);
    if rows.is_empty() {
        if args.check {
            println!("bench_diff --check: scale schemas ok, no overlapping rows to compare");
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!(
            "no overlapping (model|topology|policy, world) rows between {} and {}",
            args.baseline, args.candidate
        ));
    }
    let regressed = report(&rows, args.threshold, ["row", "world"]);
    println!(
        "{} scale row(s) compared on total_s, threshold {:.2}x, {} regression(s)",
        rows.len(),
        args.threshold,
        regressed.len()
    );
    if regressed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressed {
            eprintln!("regression: {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(scale: f64) -> String {
        let mut rows = Vec::new();
        for (k, d, s) in [
            ("gemm", 64, 1e-4),
            ("syrk", 64, 2e-4),
            ("cholesky_inverse", 64, 3e-4),
        ] {
            rows.push(format!(
                "{{\"kernel\": \"{k}\", \"dim\": {d}, \"reps\": 3, \
                 \"optimized_s\": {:.9}, \"reference_s\": null, \"speedup\": null}}",
                s * scale
            ));
        }
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"smoke\": true, \"threads\": 1, \
             \"kernels\": [{}]}}",
            rows.join(", ")
        )
    }

    fn times(scale: f64) -> KernelTimes {
        extract(
            &parse_json(&fixture(scale)).expect("fixture parses"),
            "fixture",
        )
        .expect("fixture extracts")
    }

    #[test]
    fn extract_reads_rows_and_rejects_bad_schema() {
        let t = times(1.0);
        assert_eq!(t.len(), 3);
        assert!((t[&("gemm".to_string(), 64)] - 1e-4).abs() < 1e-12);
        let bad = fixture(1.0).replace(SCHEMA, "other-schema");
        assert!(extract(&parse_json(&bad).expect("parses"), "bad").is_err());
    }

    #[test]
    fn two_x_regression_fixture_trips_the_threshold() {
        // The acceptance fixture: candidate uniformly 2x slower than
        // baseline must regress past the default 1.25x threshold.
        let rows = diff(&times(1.0), &times(2.0));
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| (r.ratio() - 2.0).abs() < 1e-9));
        let regressed = report(&rows, DEFAULT_THRESHOLD, ["kernel", "dim"]);
        assert_eq!(regressed.len(), 3);
    }

    #[test]
    fn equal_snapshots_pass() {
        let rows = diff(&times(1.0), &times(1.0));
        assert!(report(&rows, DEFAULT_THRESHOLD, ["kernel", "dim"]).is_empty());
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let rows = diff(&times(1.0), &times(0.4));
        assert!(report(&rows, DEFAULT_THRESHOLD, ["kernel", "dim"]).is_empty());
    }

    #[test]
    fn disjoint_dims_yield_no_rows() {
        let mut shifted = KernelTimes::new();
        for ((k, d), v) in times(1.0) {
            shifted.insert((k, d * 2), v);
        }
        assert!(diff(&times(1.0), &shifted).is_empty());
    }

    /// A 2-rank critical-path report with the given exposed-comm seconds
    /// (wall fixed at 10 s; idle absorbs the remainder).
    fn crit_fixture(exposed_s: f64) -> String {
        let ranks: Vec<String> = (0..2)
            .map(|r| {
                format!(
                    "{{\"rank\": {r}, \"compute_s\": 6.0, \"overlapped_s\": 1.0, \
                     \"exposed_s\": {exposed_s:.3}, \"idle_s\": {:.3}}}",
                    3.0 - exposed_s
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{CRIT_SCHEMA}\", \"wall_s\": 10.0, \"path_s\": 9.5, \
             \"num_groups\": 4, \"ranks\": [{}], \"phase_path_s\": {{}}, \"segments\": []}}",
            ranks.join(", ")
        )
    }

    fn crit_shares(exposed_s: f64) -> RankShares {
        extract_critical(
            &parse_json(&crit_fixture(exposed_s)).expect("fixture parses"),
            "fixture",
        )
        .expect("fixture extracts")
    }

    #[test]
    fn extract_critical_reads_shares_and_rejects_kernel_schema() {
        let s = crit_shares(1.0);
        assert_eq!(s.len(), 2);
        assert!((s[&0][0] - 0.6).abs() < 1e-12); // compute share
        assert!((s[&0][2] - 0.1).abs() < 1e-12); // exposed share
                                                 // A kernel-schema file must be rejected in --critical mode (and
                                                 // vice versa), so the two CI gates cannot silently cross wires.
        let kernel = parse_json(&fixture(1.0)).expect("parses");
        assert!(extract_critical(&kernel, "kernel").is_err());
        let crit = parse_json(&crit_fixture(1.0)).expect("parses");
        assert!(extract(&crit, "crit").is_err());
    }

    #[test]
    fn exposed_share_growth_past_threshold_regresses() {
        // Exposed comm grows 1 s -> 2 s of a 10 s wall: +10pp on both
        // ranks, past the default 5pp gate.
        let rows = diff_critical(&crit_shares(1.0), &crit_shares(2.0));
        assert_eq!(rows.len(), 2 * CRIT_CATEGORIES.len());
        let regressed = report_critical(&rows, DEFAULT_CRIT_THRESHOLD_PP);
        assert_eq!(regressed.len(), 2);
        assert!(regressed.iter().all(|r| r.contains("exposed")));
    }

    #[test]
    fn identical_critical_reports_pass() {
        let rows = diff_critical(&crit_shares(1.5), &crit_shares(1.5));
        assert!(report_critical(&rows, DEFAULT_CRIT_THRESHOLD_PP).is_empty());
    }

    #[test]
    fn compute_share_shifts_are_not_gated() {
        // Exposed shrinking (1.5 s -> 0.2 s) moves share to idle by
        // construction of the fixture, but within the 5pp gate; only
        // exposed/idle growth past threshold trips.
        let rows = diff_critical(&crit_shares(1.5), &crit_shares(1.2));
        assert!(report_critical(&rows, DEFAULT_CRIT_THRESHOLD_PP).is_empty());
        // Idle growth alone also trips (exposed 2.0 -> 0.5 pushes idle
        // from 1.0 s to 2.5 s: +15pp idle, -15pp exposed).
        let rows = diff_critical(&crit_shares(2.0), &crit_shares(0.5));
        let regressed = report_critical(&rows, DEFAULT_CRIT_THRESHOLD_PP);
        assert_eq!(regressed.len(), 2);
        assert!(regressed.iter().all(|r| r.contains("idle")));
    }

    #[test]
    fn arg_parsing() {
        let ok = parse_args(&[
            "a.json".into(),
            "b.json".into(),
            "--threshold".into(),
            "1.5".into(),
            "--check".into(),
        ])
        .expect("valid args");
        assert_eq!(ok.baseline, "a.json");
        assert_eq!(ok.candidate, "b.json");
        assert!((ok.threshold - 1.5).abs() < 1e-12);
        assert!(ok.check);
        assert!(parse_args(&["a.json".into()]).is_err());
        assert!(parse_args(&["a".into(), "b".into(), "--threshold".into(), "-1".into()]).is_err());
        assert!(parse_args(&["a".into(), "b".into(), "--bogus".into()]).is_err());
        // --critical flips the default threshold to percentage points.
        let crit = parse_args(&["a".into(), "b".into(), "--critical".into()]).expect("valid");
        assert!(crit.critical);
        assert!((crit.threshold - DEFAULT_CRIT_THRESHOLD_PP).abs() < 1e-12);
        let plain = parse_args(&["a".into(), "b".into()]).expect("valid");
        assert!(!plain.critical);
        assert!((plain.threshold - DEFAULT_THRESHOLD).abs() < 1e-12);
        assert!(parse_args(&["a".into(), "b".into(), "c".into()]).is_err());
    }

    /// A minimal `bench_wire` artifact with every row's `comm_s` scaled.
    fn wire_fixture(scale: f64) -> String {
        let rows: Vec<String> = [("f64", 10e-3), ("f16", 4e-3)]
            .iter()
            .flat_map(|&(f, s)| {
                ["raw", "paced"].map(|m| {
                    format!(
                        "{{\"format\": \"{f}\", \"mode\": \"{m}\", \"comm_s\": {:.9}, \
                         \"total_s_per_iter\": 0.05, \"wire_bytes\": 1000, \
                         \"logical_bytes\": 8000, \"final_loss\": 0.01, \
                         \"loss_delta_vs_f64\": 0.0, \"speedup_vs_f64\": 1.0}}",
                        s * scale
                    )
                })
            })
            .collect();
        format!(
            "{{\"schema\": \"{WIRE_SCHEMA}\", \"smoke\": true, \"world\": 4, \
             \"iters\": 6, \"pace_gbps\": 0.2, \"rows\": [{}]}}",
            rows.join(", ")
        )
    }

    fn wire_times(scale: f64) -> KernelTimes {
        extract_wire(
            &parse_json(&wire_fixture(scale)).expect("fixture parses"),
            "fixture",
        )
        .expect("fixture extracts")
    }

    #[test]
    fn extract_wire_reads_rows_and_rejects_kernel_schema() {
        let t = wire_times(1.0);
        assert_eq!(t.len(), 4);
        assert!((t[&("f16|paced".to_string(), 4)] - 4e-3).abs() < 1e-12);
        // Kernel-schema files must not slip through the wire extractor
        // (and the wire schema is what routes run() into wire mode).
        let kernel = parse_json(&fixture(1.0)).expect("parses");
        assert!(extract_wire(&kernel, "kernel").is_err());
        assert!(!is_wire(&kernel));
        assert!(is_wire(&parse_json(&wire_fixture(1.0)).expect("parses")));
        // A row dropping wire_bytes breaks the shape contract.
        let truncated = wire_fixture(1.0).replace("\"wire_bytes\": 1000, ", "");
        assert!(extract_wire(&parse_json(&truncated).expect("parses"), "t").is_err());
    }

    #[test]
    fn wire_comm_regression_trips_the_same_ratio_gate() {
        let rows = diff(&wire_times(1.0), &wire_times(2.0));
        assert_eq!(rows.len(), 4);
        let regressed = report(&rows, DEFAULT_THRESHOLD, ["row", "world"]);
        assert_eq!(regressed.len(), 4);
        assert!(report(
            &diff(&wire_times(1.0), &wire_times(1.0)),
            DEFAULT_THRESHOLD,
            ["row", "world"]
        )
        .is_empty());
    }

    /// A minimal `bench_scale` artifact with every row's `total_s` scaled.
    fn scale_fixture(scale: f64) -> String {
        let rows: Vec<String> = [("flat", "lbp", 0.6), ("hier4", "heft", 0.5)]
            .iter()
            .flat_map(|&(topo, policy, s)| {
                [64usize, 1024].map(|world| {
                    format!(
                        "{{\"model\": \"ResNet-50\", \"world\": {world}, \
                         \"topology\": \"{topo}\", \"policy\": \"{policy}\", \
                         \"total_s\": {:.9}, \"inverse_s\": 0.1, \
                         \"divergence_vs_lbp\": 0.05}}",
                        s * scale
                    )
                })
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCALE_SCHEMA}\", \"smoke\": false, \
             \"gpus_per_node\": 4, \"rows\": [{}]}}",
            rows.join(", ")
        )
    }

    fn scale_times(scale: f64) -> KernelTimes {
        extract_scale(
            &parse_json(&scale_fixture(scale)).expect("fixture parses"),
            "fixture",
        )
        .expect("fixture extracts")
    }

    #[test]
    fn extract_scale_reads_rows_and_rejects_other_schemas() {
        let t = scale_times(1.0);
        assert_eq!(t.len(), 4);
        assert!((t[&("ResNet-50|hier4|heft".to_string(), 1024)] - 0.5).abs() < 1e-12);
        let kernel = parse_json(&fixture(1.0)).expect("parses");
        assert!(extract_scale(&kernel, "kernel").is_err());
        assert!(!is_scale(&kernel));
        assert!(is_scale(&parse_json(&scale_fixture(1.0)).expect("parses")));
        // The divergence column is load-bearing for the CI gate.
        let truncated = scale_fixture(1.0).replace("\"divergence_vs_lbp\": 0.05", "\"x\": 0");
        assert!(extract_scale(&parse_json(&truncated).expect("parses"), "t").is_err());
    }

    #[test]
    fn scale_rows_gate_even_under_check() {
        let dir = std::env::temp_dir();
        let base = dir.join("bench_diff_scale_base.json");
        let cand = dir.join("bench_diff_scale_cand.json");
        std::fs::write(&base, scale_fixture(1.0)).expect("write base");
        std::fs::write(&cand, scale_fixture(1.0)).expect("write cand");
        let argv = |check: bool| {
            let mut v = vec![
                base.to_string_lossy().into_owned(),
                cand.to_string_lossy().into_owned(),
            ];
            if check {
                v.push("--check".into());
            }
            parse_args(&v).expect("valid args")
        };
        // Identical deterministic sweeps pass in both modes.
        assert_eq!(run(&argv(true)).expect("check runs"), ExitCode::SUCCESS);
        assert_eq!(run(&argv(false)).expect("diff runs"), ExitCode::SUCCESS);
        // A 2x drift gates even under --check: simulation is deterministic,
        // so any overlap disagreement is a real behaviour change.
        std::fs::write(&cand, scale_fixture(2.0)).expect("write cand");
        assert_eq!(run(&argv(true)).expect("check runs"), ExitCode::FAILURE);
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&cand);
    }

    #[test]
    fn wire_check_skips_the_timing_gate() {
        // Full-vs-smoke wire artifacts share every (format|mode, world)
        // key, so unlike kernel mode the overlap is never empty — --check
        // must pass on wildly different times and fail on schema damage.
        let dir = std::env::temp_dir();
        let base = dir.join("bench_diff_wire_check_base.json");
        let cand = dir.join("bench_diff_wire_check_cand.json");
        std::fs::write(&base, wire_fixture(1.0)).expect("write base");
        std::fs::write(&cand, wire_fixture(10.0)).expect("write cand");
        let argv = |check: bool| {
            let mut v = vec![
                base.to_string_lossy().into_owned(),
                cand.to_string_lossy().into_owned(),
            ];
            if check {
                v.push("--check".into());
            }
            parse_args(&v).expect("valid args")
        };
        assert_eq!(run(&argv(true)).expect("check runs"), ExitCode::SUCCESS);
        // Without --check the 10x slowdown gates.
        assert_eq!(run(&argv(false)).expect("diff runs"), ExitCode::FAILURE);
        // Schema damage fails even under --check.
        std::fs::write(&cand, wire_fixture(1.0).replace(WIRE_SCHEMA, "bogus")).expect("write");
        assert!(run(&argv(true)).is_err());
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&cand);
    }
}
