//! The metric catalogue, read from the repository's `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the one place a metric's unit, direction and bound
//! are written down; the binary embeds it at compile time so what it prints
//! and what it checks can never drift from the file later PRs are judged
//! against.

use serde_json::Value;

/// The repository's `BENCHMARK.json`, embedded.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric of the catalogue.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the value by which the metric may worsen before it counts
    /// as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

fn defs(root: &Value, key: &str) -> Vec<MetricDef> {
    let field = |m: &Value, k: &str| -> String {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without string {k}"))
            .to_owned()
    };
    root.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} array"))
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: match field(m, "better").as_str() {
                "higher" => true,
                "lower" => false,
                other => panic!("BENCHMARK.json: better must be higher|lower, got {other}"),
            },
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Catalog {
    /// Parse the embedded file. It is part of the build, so a malformed
    /// file is a bug in this repository, not an input error.
    pub fn load() -> Catalog {
        let root = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: workloads array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("BENCHMARK.json: workload name")
                    .to_owned()
            })
            .collect();
        Catalog {
            workloads,
            end_to_end: defs(&root, "end_to_end"),
            per_layer: defs(&root, "per_layer"),
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
        }
    }

    /// Look a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let c = Catalog::load();
        assert_eq!(
            c.workloads,
            [
                "lookup-cold",
                "serve-zipf",
                "scatter-segments",
                "ingest-live"
            ]
        );
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds));
        let setup = c.find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for m in &c.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
