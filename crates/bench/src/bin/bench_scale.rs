//! `bench_scale` — scaling study of the inverse-placement policies across
//! cluster sizes and network topologies, producing `BENCH_scale.json`
//! (schema `spdkfac-bench-scale-v1`).
//!
//! For every paper model the full SPD-KFAC iteration is simulated at
//! {64, 128, 256, 512, 1024} ranks under the flat serialized network and
//! the hierarchical 4-GPUs-per-node topology ([`NetTopology`]), once per
//! placement policy in [`policy_registry`] (LBP and its competitors:
//! HEFT-style earliest-finish-time, memory-aware, topology-aware, plus the
//! non-dist / seq-dist baselines). Two gates ride the sweep:
//!
//! - **Anchor**: at the 64-GPU calibration point the flat-topology LBP row
//!   must reproduce today's `simulate_iteration` totals within 1e-9 — the
//!   new `sim::net`/`sim::sched` subsystem may not move the paper figures.
//! - **Divergence** (full mode): at 1024 ranks on the hierarchical
//!   topology, LBP and at least one alternative policy must diverge by
//!   ≥ [`DIVERGENCE_GATE`] relative iteration time on some model — the
//!   scale where policy choice becomes visible, recorded per row as
//!   `divergence_vs_lbp`.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin bench_scale              # full, writes BENCH_scale.json
//! cargo run --release -p spdkfac-bench --bin bench_scale -- --smoke   # quick CI artifact
//! cargo run --release -p spdkfac-bench --bin bench_scale -- --trace-dir traces
//! ```
//!
//! The simulator is deterministic, so a full sweep reproduces the committed
//! `BENCH_scale.json` to the byte; CI `cmp`s the two. `--smoke` shrinks the
//! sweep (ResNet-50 at {64, 128} ranks) for a quick local look; the anchor
//! gate still runs. `--trace-dir DIR` additionally exports the 1024-rank
//! hierarchical LBP ResNet-50 schedule as a Chrome trace. Exit codes: 0 ok,
//! 1 gate failed.

use spdkfac_bench::{header, note};
use spdkfac_models::{paper_models, ModelProfile};
use spdkfac_sim::{
    policy_registry, simulate_iteration, to_chrome_trace, Algo, NetTopology, SimConfig,
};
use std::process::ExitCode;

/// Swept cluster sizes (full mode).
const WORLDS: [usize; 5] = [64, 128, 256, 512, 1024];
/// Smoke-mode cluster sizes: keeps CI fast but exercises the schema and
/// the 64-rank anchor.
const SMOKE_WORLDS: [usize; 2] = [64, 128];

/// GPUs per node of the hierarchical topology (the paper testbed packs 4
/// RTX 2080 Ti per node).
const GPUS_PER_NODE: usize = 4;

/// Full-mode gate: at 1024 ranks hierarchical, LBP and some alternative
/// must differ by at least this relative iteration time.
const DIVERGENCE_GATE: f64 = 0.05;

/// 64-rank flat LBP must match `simulate_iteration` this tightly.
const ANCHOR_TOL: f64 = 1e-9;

struct Row {
    model: String,
    world: usize,
    topology: String,
    policy: String,
    total_s: f64,
    inverse_s: f64,
    /// |total - same-cell LBP total| / LBP total.
    divergence_vs_lbp: f64,
}

fn simulate_cell(
    m: &ModelProfile,
    world: usize,
    topology: &NetTopology,
    policy: Option<spdkfac_core::placement::PolicyHandle>,
) -> spdkfac_sim::SimReport {
    let mut cfg = SimConfig::paper_testbed(world);
    cfg.topology = *topology;
    cfg.placement = policy;
    simulate_iteration(m, &cfg, Algo::SpdKfac)
}

fn render_json(rows: &[Row], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"spdkfac-bench-scale-v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"gpus_per_node\": {GPUS_PER_NODE},\n"));
    out.push_str("  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": \"{}\", \"world\": {}, \"topology\": \"{}\", \
                 \"policy\": \"{}\", \"total_s\": {:.9}, \"inverse_s\": {:.9}, \
                 \"divergence_vs_lbp\": {:.6}}}",
                r.model, r.world, r.topology, r.policy, r.total_s, r.inverse_s, r.divergence_vs_lbp
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();

    header(&format!(
        "bench_scale: placement policies vs cluster size ({} mode)",
        if smoke { "smoke" } else { "full" }
    ));
    let t0 = std::time::Instant::now();

    let worlds: &[usize] = if smoke { &SMOKE_WORLDS } else { &WORLDS };
    let models: Vec<ModelProfile> = if smoke {
        paper_models().into_iter().take(1).collect()
    } else {
        paper_models().to_vec()
    };
    let topologies = [
        NetTopology::serialized(),
        NetTopology::hierarchical(GPUS_PER_NODE),
    ];
    let policies = policy_registry();

    let mut rows: Vec<Row> = Vec::new();
    for m in &models {
        for &world in worlds {
            for topo in &topologies {
                let cell_start = rows.len();
                for policy in &policies {
                    let r = simulate_cell(m, world, topo, Some(policy.clone()));
                    rows.push(Row {
                        model: m.name().to_string(),
                        world,
                        topology: topo.label(),
                        policy: policy.name(),
                        total_s: r.total,
                        inverse_s: r.breakdown.inverse_comp + r.breakdown.inverse_comm,
                        divergence_vs_lbp: 0.0,
                    });
                }
                // Divergence of every policy against the same cell's LBP row.
                let lbp = rows[cell_start..]
                    .iter()
                    .find(|r| r.policy == "lbp")
                    .expect("registry includes lbp")
                    .total_s;
                for r in &mut rows[cell_start..] {
                    r.divergence_vs_lbp = (r.total_s - lbp).abs() / lbp;
                }
            }
        }
        note(&format!("{}: {} cells done", m.name(), rows.len()));
    }

    // Console summary: LBP vs the best and worst alternative per cell.
    println!(
        "{:<14} {:>6} {:<9} {:>9} {:>22} {:>22}",
        "Model", "GPUs", "Topology", "LBP", "best alt (policy)", "worst alt (policy)"
    );
    for m in &models {
        for &world in worlds {
            for topo in &topologies {
                let cell: Vec<&Row> = rows
                    .iter()
                    .filter(|r| {
                        r.model == m.name() && r.world == world && r.topology == topo.label()
                    })
                    .collect();
                let lbp = cell.iter().find(|r| r.policy == "lbp").unwrap();
                let alts: Vec<&&Row> = cell.iter().filter(|r| r.policy != "lbp").collect();
                let best = alts
                    .iter()
                    .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
                    .unwrap();
                let worst = alts
                    .iter()
                    .max_by(|a, b| a.total_s.total_cmp(&b.total_s))
                    .unwrap();
                println!(
                    "{:<14} {:>6} {:<9} {:>9.4} {:>14.4} ({:<6}) {:>14.4} ({:<6})",
                    m.name(),
                    world,
                    topo.label(),
                    lbp.total_s,
                    best.total_s,
                    best.policy,
                    worst.total_s,
                    worst.policy,
                );
            }
        }
    }

    let json = render_json(&rows, smoke);
    std::fs::write(&out_path, &json).expect("failed to write BENCH_scale.json");
    note(&format!(
        "wrote {out_path} ({} rows in {:.1}s)",
        rows.len(),
        t0.elapsed().as_secs_f64()
    ));

    if let Some(dir) = &trace_dir {
        // Always the 1024-rank hierarchical LBP schedule — the scale the
        // sweep gates on — even in smoke mode (one extra simulation).
        std::fs::create_dir_all(dir).expect("trace dir");
        let world = *WORLDS.last().unwrap();
        let m = &models[0];
        let r = simulate_cell(m, world, &topologies[1], None);
        let path = format!("{dir}/scale_{world}rank_hier_{}.trace.json", m.name());
        std::fs::write(&path, to_chrome_trace(&r, world)).expect("trace write");
        note(&format!("wrote {path}"));
    }

    // Anchor gate: the 64-rank flat LBP sweep row must reproduce the
    // default simulate_iteration path bit-tight — cfg.placement = None
    // resolves to the same LBP policy, so any drift means the new net/sched
    // plumbing changed the paper figures.
    let mut failed = false;
    for m in &models {
        let anchor = {
            let cfg = SimConfig::paper_testbed(64);
            simulate_iteration(m, &cfg, Algo::SpdKfac).total
        };
        let row = rows
            .iter()
            .find(|r| {
                r.model == m.name() && r.world == 64 && r.topology == "flat" && r.policy == "lbp"
            })
            .expect("64-rank flat lbp row present");
        if (row.total_s - anchor).abs() > ANCHOR_TOL {
            eprintln!(
                "FAIL: {} 64-rank flat LBP {} != simulate_iteration {} (tol {ANCHOR_TOL:e})",
                m.name(),
                row.total_s,
                anchor
            );
            failed = true;
        }
    }
    if !failed {
        note("anchor ok: 64-rank flat LBP matches simulate_iteration within 1e-9");
    }

    if smoke {
        note("smoke mode: divergence gate skipped");
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    // Divergence gate: policy choice must matter at scale.
    let max_div = rows
        .iter()
        .filter(|r| r.world == 1024 && r.topology != "flat" && r.policy != "lbp")
        .map(|r| r.divergence_vs_lbp)
        .fold(0.0f64, f64::max);
    if max_div < DIVERGENCE_GATE {
        eprintln!(
            "FAIL: max 1024-rank hierarchical divergence vs LBP {max_div:.3} < {DIVERGENCE_GATE}"
        );
        failed = true;
    } else {
        note(&format!(
            "divergence ok: some policy differs from LBP by {:.1}% at 1024 ranks hierarchical",
            max_div * 100.0
        ));
    }

    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "OK: {} rows swept in {:.1}s",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
