//! The metric catalog: every end-to-end metric with its unit, direction,
//! regression bound and the workloads it exists on. `/BENCHMARK.json`
//! declares the subset that is defined and non-zero on all four
//! workloads (its schema has no per-workload applicability); the binary's
//! own ledger and `--compare` use the whole table.

use crate::workload::{Kind, Spec};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it a regression.
    pub bound: f64,
    pub applies: fn(&Spec) -> bool,
    /// Declared in `/BENCHMARK.json`'s `end_to_end` (printed on the
    /// contract's result line of a `--trace 0` run).
    pub contract: bool,
}

fn always(_: &Spec) -> bool {
    true
}

fn unlearn(s: &Spec) -> bool {
    s.kind != Kind::Train
}

fn tcp(s: &Spec) -> bool {
    s.tcp
}

pub const END_TO_END: [MetricDef; 13] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        applies: always,
        contract: true,
    },
    MetricDef {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        applies: always,
        contract: false,
    },
    MetricDef {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        applies: always,
        contract: false,
    },
    MetricDef {
        name: "round_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        applies: always,
        contract: false,
    },
    MetricDef {
        name: "cycle_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        applies: always,
        contract: false,
    },
    MetricDef {
        name: "deletions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        applies: unlearn,
        contract: false,
    },
    MetricDef {
        name: "deletion_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        applies: unlearn,
        contract: false,
    },
    MetricDef {
        name: "deletion_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        applies: unlearn,
        contract: false,
    },
    MetricDef {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.07,
        applies: always,
        contract: false,
    },
    MetricDef {
        name: "wire_bytes_per_round",
        unit: "B",
        better: Better::Lower,
        bound: 0.005,
        applies: tcp,
        contract: false,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        applies: always,
        contract: true,
    },
    MetricDef {
        name: "test_acc",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.15,
        applies: always,
        contract: true,
    },
    MetricDef {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        applies: always,
        contract: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::layers::PER_LAYER;
    use crate::workload::SPECS;

    /// `/BENCHMARK.json` is what the driver reads; the binary never does.
    /// This pins the two together: same workloads, the catalog's contract
    /// metrics with the same units, directions and bounds, the same
    /// per-layer list in the same order, the same window.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::RUN_SECONDS)
        );
        let text = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.into(), s.why.into()))
            .collect();
        assert_eq!(workloads, specs);

        let declared: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").unwrap().as_f64().unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let contract: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.contract)
            .map(|m| {
                // The contract prints these on every workload.
                assert!(SPECS.iter().all(|s| (m.applies)(s)), "{}", m.name);
                let better = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (m.name.into(), m.unit.into(), better.into(), m.bound)
            })
            .collect();
        assert_eq!(declared, contract);
        assert!(declared.iter().any(|m| m.0 == "setup_s"));
        assert!(declared.iter().all(|m| m.3 <= 0.25));

        let layers: Vec<(String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let printed: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(layers, printed);
        assert!(printed.len() <= 128);
    }
}
