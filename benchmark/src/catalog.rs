//! The benchmark's fixed vocabulary: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

use spdkfac_collectives::WirePolicy;
use spdkfac_core::distributed::{Algorithm, DistributedConfig};
use spdkfac_core::perf::AlphaBetaModel;
use spdkfac_core::FusionStrategy;
use spdkfac_nn::data::{gaussian_blobs, Dataset};
use spdkfac_nn::models::deep_mlp;
use spdkfac_nn::Sequential;

/// Ranks per run: one rank thread per vCPU of the 2-vCPU box this was
/// sized for (their comm threads mostly block).
pub const WORLD: usize = 2;
/// Samples per rank per iteration.
pub const BATCH: usize = 32;
/// Hidden width of the workload MLP; Kronecker factors are `HIDDEN + 1`
/// square (bias column), which is the `d = 257` the kernel metrics use.
pub const HIDDEN: usize = 256;
/// Start-up latency of the planner's communication model under pacing.
const PACED_ALPHA_S: f64 = 1e-4;

/// One benchmark workload. All share the model, data and optimizer
/// settings; they differ in algorithm, emulated network and wire format.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub algorithm: Algorithm,
    /// Emulated NIC rate (`SPDKFAC_PACE_GBPS`); `None` = raw loopback.
    pub pace_gbps: Option<f64>,
    /// Wire policy spec as `WirePolicy::parse` takes it.
    pub wire: &'static str,
    /// Iterations per segment, chosen so a segment lasts about two seconds.
    pub seg_iters: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spd_slow_net",
        why: "SPD-KFAC, 0.2 Gbit/s paced, f64: comm ~3x compute, so pipelining, fusion, placement and wire bytes set wall",
        algorithm: Algorithm::SpdKfac,
        pace_gbps: Some(0.2),
        wire: "f64",
        seg_iters: 8,
    },
    Workload {
        name: "dkfac_slow_net",
        why: "D-KFAC on the same net: the paper's denominator, six bulk messages, no pipeline; overlap work must not move it",
        algorithm: Algorithm::DKfac,
        pace_gbps: Some(0.2),
        wire: "f64",
        seg_iters: 8,
    },
    Workload {
        name: "spd_slow_net_f16",
        why: "SPD-KFAC, paced, f16 wire: bytes/4 balances comm with compute and puts the codec on every hop",
        algorithm: Algorithm::SpdKfac,
        pace_gbps: Some(0.2),
        wire: "f16",
        seg_iters: 20,
    },
    Workload {
        name: "spd_loopback",
        why: "SPD-KFAC, raw loopback, f64: CPU-bound, so tensor kernels and tcp/ring copies set wall; scheduling does little",
        algorithm: Algorithm::SpdKfac,
        pace_gbps: None,
        wire: "f64",
        seg_iters: 40,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The wire policy this workload trains under.
    pub fn wire_policy(&self) -> WirePolicy {
        WirePolicy::parse(self.wire).expect("catalog wire spec parses")
    }

    /// Per-element all-reduce cost the planner is told, matched to the
    /// pace: one f64 element is 64 bits on a `gbps` line, scaled by the
    /// factor format's bytes per element. `None` for raw loopback, which
    /// keeps `DistributedConfig::new`'s default model.
    pub fn planner_beta(&self) -> Option<f64> {
        let bytes_per_elem = self.wire_policy().factor.bytes_per_elem();
        self.pace_gbps
            .map(|gbps| 64.0 / (gbps * 1e9) * bytes_per_elem / 8.0)
    }

    /// The full trainer configuration.
    pub fn config(&self) -> DistributedConfig {
        let mut cfg = DistributedConfig::new(WORLD, self.algorithm);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.02;
        cfg.kfac.momentum = 0.0;
        cfg.fusion = FusionStrategy::Optimal;
        cfg.wire = self.wire_policy();
        if let Some(beta) = self.planner_beta() {
            cfg.comm_model = AlphaBetaModel::new(PACED_ALPHA_S, beta);
        }
        cfg
    }
}

/// The workload model: `32 -> 256 x4 -> 10`, five preconditioned layers,
/// ten Kronecker factors. `seed` feeds the weight initialisation.
pub fn build_model(seed: u64) -> Sequential {
    deep_mlp(32, HIDDEN, 4, 10, seed)
}

/// The workload data: ten Gaussian blobs in 32 dimensions, 2560 samples.
pub fn make_dataset(seed: u64) -> Dataset {
    gaussian_blobs(10, 32, 256, 0.3, seed)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; `bound` (end-to-end only) is the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off. The timing
/// bounds are the widest the contract allows: on the 2-vCPU guest this
/// was sized for, ten runs of one commit spread by up to 23% of their
/// median when the host changes speed (README, "Noise").
pub const END_TO_END: [MetricDef; 5] = [
    e2e("iter_wall_s", "s", 0.25),
    e2e("iter_cpu_s", "s", 0.25),
    e2e("wire_mb_per_iter", "MB", 0.01),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
];

use Better::{Higher, Lower};

/// Single-layer numbers, reported by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 42] = [
    // tensor: the kernels behind factor construction, inversion and
    // preconditioning, at the workload model's shapes.
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_nt_gflops", "GFLOP/s", Higher),
    layer("tensor.syrk_gflops", "GFLOP/s", Higher),
    layer("tensor.chol_inverse_s", "s", Lower),
    // nn: one batch through the workload model.
    layer("nn.forward_s", "s", Lower),
    layer("nn.backward_s", "s", Lower),
    // core: the single-process optimizer, the planners, and the traced
    // partition of a distributed iteration.
    layer("core.kfac_step_s", "s", Lower),
    layer("core.single_worker_iter_s", "s", Lower),
    layer("core.fusion_plan_s", "s", Lower),
    layer("core.lbp_place_s.w2", "s", Lower),
    layer("core.lbp_place_s.w64", "s", Lower),
    layer("core.ff_bp_s", "s", Lower),
    layer("core.factor_comp_s", "s", Lower),
    layer("core.inverse_comp_s", "s", Lower),
    layer("core.update_s", "s", Lower),
    layer("core.grad_comm_exposed_s", "s", Lower),
    layer("core.factor_comm_exposed_s", "s", Lower),
    layer("core.inverse_comm_exposed_s", "s", Lower),
    layer("core.idle_s", "s", Lower),
    layer("core.trace_coverage", "ratio", Higher),
    layer("core.fusion_msgs", "count", Lower),
    layer("core.nct_tensors", "count", Higher),
    // collectives: codec, ring over un-paced TCP, group formation.
    layer("collectives.encode_s_per_mb.f32", "s/MB", Lower),
    layer("collectives.encode_s_per_mb.f16", "s/MB", Lower),
    layer("collectives.encode_s_per_mb.topk", "s/MB", Lower),
    layer("collectives.decode_s_per_mb.f32", "s/MB", Lower),
    layer("collectives.decode_s_per_mb.f16", "s/MB", Lower),
    layer("collectives.decode_s_per_mb.topk", "s/MB", Lower),
    layer("collectives.allreduce_s.1k", "s", Lower),
    layer("collectives.allreduce_s.64k", "s", Lower),
    layer("collectives.allreduce_s.1m", "s", Lower),
    layer("collectives.broadcast_s.1k", "s", Lower),
    layer("collectives.broadcast_s.64k", "s", Lower),
    layer("collectives.broadcast_s.1m", "s", Lower),
    layer("collectives.allreduce_alpha_s", "s", Lower),
    layer("collectives.allreduce_gbps", "Gbit/s", Higher),
    layer("collectives.async_roundtrip_s", "s", Lower),
    layer("collectives.connect_s", "s", Lower),
    layer("collectives.ops_per_iter", "count", Lower),
    // obs: cost of the instrumentation itself.
    layer("obs.span_record_ns", "ns", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    // sim: offline planner cost, no end-to-end effect.
    layer("sim.iteration_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_obs::{parse_json, JsonValue};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.seg_iters >= 2);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn pace_to_beta_arithmetic() {
        let beta = |name: &str| Workload::by_name(name).expect("known").planner_beta();
        // 64 bits per f64 element on a 0.2 Gbit/s line.
        assert_eq!(beta("spd_slow_net"), Some(64.0 / 0.2e9));
        assert_eq!(beta("dkfac_slow_net"), beta("spd_slow_net"));
        // f16 ships 2 of the 8 bytes.
        assert_eq!(beta("spd_slow_net_f16"), Some(64.0 / 0.2e9 / 4.0));
        assert_eq!(beta("spd_loopback"), None);
        let cfg = Workload::by_name("spd_slow_net_f16")
            .expect("known")
            .config();
        assert_eq!(cfg.comm_model.alpha, 1e-4);
        assert_eq!(cfg.comm_model.beta, 8e-8);
        assert_eq!(cfg.world, WORLD);
    }

    fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing string field {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; this catalog is what the
    /// binary reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_catalog() {
        let spec = parse_json(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| {
            spec.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("missing array {key}"))
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_field(j, "name"), w.name);
            assert_eq!(str_field(j, "why"), w.why);
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = list(key);
            assert_eq!(metrics.len(), defs.len(), "{key}");
            for (j, m) in metrics.iter().zip(defs) {
                assert_eq!(str_field(j, "name"), m.name);
                assert_eq!(str_field(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(str_field(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(j.get("bound").and_then(JsonValue::as_f64), m.bound);
            }
        }
        let paths: Vec<&str> = list("paths").iter().filter_map(JsonValue::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
