//! Chrome-trace export of simulated schedules.
//!
//! [`to_chrome_trace`] renders a [`SimReport`] as Chrome Tracing / Perfetto
//! JSON (`chrome://tracing`, <https://ui.perfetto.dev>), giving the same
//! timeline view as the paper's Fig. 1/Fig. 4 diagrams: one row per GPU
//! stream plus one row for the network, with the task categories as named
//! slices.

use crate::report::SimReport;
use spdkfac_core::graph::to_obs_spans;
use spdkfac_obs::{chrome_trace, Phase, TrackLayout};

/// Serialises the schedule as a Chrome Tracing JSON document.
///
/// `network_resource` names the resource id that should be labelled as the
/// network row (the iteration builders use the highest resource id).
/// Delegates to the shared [`spdkfac_obs::chrome_trace`] serializer, so
/// simulated and measured traces have the identical JSON shape; slice names
/// come from each task's [`Phase`].
pub fn to_chrome_trace(report: &SimReport, network_resource: usize) -> String {
    let max_res = report
        .spans
        .iter()
        .map(|s| s.resource)
        .max()
        .unwrap_or(0)
        .max(network_resource);
    let layout = TrackLayout::simulator(network_resource, max_res);
    chrome_trace(&to_obs_spans(&report.spans), &layout)
}

/// Renders the schedule as a fixed-width ASCII timeline — the Fig. 1
/// diagram, but generated from an actual simulation. One row per resource;
/// each column is a time slice labelled by the dominant task's category
/// letter (`F` FF&BP, `g` grad comm, `C` factor comp, `c` factor comm,
/// `I` inverse comp, `i` inverse comm, `U` update, `.` idle).
pub fn ascii_timeline(report: &SimReport, network_resource: usize, width: usize) -> String {
    let width = width.max(10);
    let total = report.total.max(1e-12);
    let max_res = report
        .spans
        .iter()
        .map(|s| s.resource)
        .max()
        .unwrap_or(0)
        .max(network_resource);
    let letter = |phase: Phase| match phase {
        Phase::FfBp => 'F',
        Phase::GradComm => 'g',
        Phase::FactorComp => 'C',
        Phase::FactorComm => 'c',
        Phase::InverseComp => 'I',
        Phase::InverseComm => 'i',
        Phase::Update => 'U',
    };
    let layout = TrackLayout::simulator(network_resource, max_res);
    let mut out = String::new();
    for res in 0..=max_res {
        let label = layout.name(res);
        let mut row = vec!['.'; width];
        for s in report.spans.iter().filter(|s| s.resource == res) {
            let c0 = ((s.start / total) * width as f64).floor() as usize;
            let c1 = (((s.end / total) * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(c1).skip(c0.min(width)) {
                *cell = letter(s.phase);
            }
        }
        out.push_str(&format!("{label:<8}|"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:<8} 0s{}{:.3}s\n",
        "",
        " ".repeat(width.saturating_sub(6)),
        report.total
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{simulate_iteration, Algo, SimConfig};
    use spdkfac_models::resnet50;

    #[test]
    fn trace_contains_all_rows_and_categories() {
        let cfg = SimConfig::paper_testbed(4);
        let r = simulate_iteration(&resnet50(), &cfg, Algo::SpdKfac);
        let json = to_chrome_trace(&r, 4);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for label in [
            "gpu0",
            "network",
            "FF&BP",
            "FactorComp",
            "FactorComm",
            "InverseComp",
        ] {
            assert!(json.contains(label), "missing {label}");
        }
        // Event count: metadata rows + one slice per non-empty span.
        let events = json.matches("\"ph\":\"X\"").count();
        let nonempty = r.spans.iter().filter(|s| s.end > s.start).count();
        assert_eq!(events, nonempty);
    }

    #[test]
    fn ascii_timeline_has_one_row_per_resource() {
        let cfg = SimConfig::paper_testbed(2);
        let r = simulate_iteration(&resnet50(), &cfg, Algo::SpdKfac);
        let art = ascii_timeline(&r, 2, 80);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4); // gpu0, gpu1, network, axis
        assert!(lines[0].starts_with("gpu0"));
        assert!(lines[2].starts_with("network"));
        // Compute row shows forward/backward and factor work.
        assert!(lines[0].contains('F') && lines[0].contains('C'));
        // Network row shows factor communication.
        assert!(lines[2].contains('c'));
        // All timeline rows share the same width.
        let w0 = lines[0].len();
        assert_eq!(lines[1].len(), w0);
        assert_eq!(lines[2].len(), w0);
    }

    #[test]
    fn trace_is_balanced_json_ish() {
        let cfg = SimConfig::paper_testbed(2);
        let r = simulate_iteration(&resnet50(), &cfg, Algo::DKfac);
        let json = to_chrome_trace(&r, 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
