//! The one-line JSON result every run ends with, and its parser (used by
//! `all` and `aa`, which read the lines their child runs print).

use crate::catalog::MetricDef;
use spdkfac_obs::{escape_json, parse_json, JsonValue};

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Result of one benchmark run: correctness verdict, operations attempted
/// and failed (rank-runs of a segment), and the metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
}

impl RunOutput {
    /// Pairs `defs` with `values` (same order). A non-finite value is
    /// reported as 0 and marks the run incorrect.
    pub fn new(attempted: u64, failed: u64, defs: &[MetricDef], values: &[f64]) -> Self {
        assert_eq!(defs.len(), values.len(), "one value per metric");
        let finite = values.iter().all(|v| v.is_finite());
        RunOutput {
            correct: failed == 0 && finite,
            attempted,
            failed,
            metrics: defs
                .iter()
                .zip(values)
                .map(|(d, &v)| MetricValue {
                    name: d.name.to_string(),
                    value: if v.is_finite() { v } else { 0.0 },
                    unit: d.unit.to_string(),
                })
                .collect(),
        }
    }

    /// Value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`. Values print with
    /// every digit `f64` round-trips.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape_json(&m.name),
                    m.value,
                    escape_json(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line.
    pub fn parse(line: &str) -> Result<RunOutput, String> {
        let v = parse_json(line)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("result line: {key} is not a whole number"))
        };
        let JsonValue::Object(entries) = v.get("metrics").ok_or("result line: no metrics")? else {
            return Err("result line: metrics is not an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                Ok(MetricValue {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("metric {name}: no numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("metric {name}: no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunOutput {
            correct: v
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("result line: no correct flag")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn result_line_round_trips() {
        let values = [0.2034567891234, 0.09871, 7.554048, 1.25, 23.4];
        let out = RunOutput::new(34, 0, &END_TO_END, &values);
        assert!(out.correct);
        let line = out.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunOutput::parse(&line).expect("parses"), out);
        assert_eq!(out.get("wire_mb_per_iter"), Some(7.554048));
    }

    #[test]
    fn failures_and_non_finite_values_mark_the_run_incorrect() {
        let ok = [1.0; 5];
        assert!(!RunOutput::new(4, 1, &END_TO_END, &ok).correct);
        let mut bad = ok;
        bad[0] = f64::NAN;
        let out = RunOutput::new(4, 0, &END_TO_END, &bad);
        assert!(!out.correct);
        assert_eq!(out.get("iter_wall_s"), Some(0.0));
        RunOutput::parse(&out.to_json_line()).expect("still valid JSON");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RunOutput::parse("not json").is_err());
        assert!(RunOutput::parse("{\"correct\": true}").is_err());
        assert!(RunOutput::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
