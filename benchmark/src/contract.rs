//! `BENCHMARK.json`, read at compile time: the one list of workloads,
//! metric names, units and regression bounds. The harness emits exactly
//! the metrics this file names, so the two cannot drift apart.

use crate::json::{self, Value};

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Value, key: &str) -> Vec<MetricDef> {
    let text = |m: &Value, field: &str| {
        m.get(field)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Contract {
    pub fn load() -> Contract {
        let doc = json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json lacks `run_seconds`"),
            workloads: doc
                .get("workloads")
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json lacks `workloads`")
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn the_contract_names_the_harness_workloads_in_order() {
        let c = Contract::load();
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(c.workloads, names);
    }

    #[test]
    fn setup_s_is_gated_and_every_end_to_end_metric_has_a_bound() {
        let c = Contract::load();
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        for m in &c.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn metric_names_are_unique() {
        let c = Contract::load();
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
