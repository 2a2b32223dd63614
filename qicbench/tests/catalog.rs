//! `BENCHMARK.json` and the benchmark's catalogue name the same
//! workloads and metrics, with the same units and directions, and
//! every name is well-formed.

use qic::sweep::json::{get, Json};
use qicbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use qicbench::metrics::{end_to_end, per_layer, ReplayTally};
use qicbench::trace::Tracer;
use qicbench::workloads::{Tally, Workload};

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry of a metric list.
fn entries(doc: &Json, list: &str) -> Vec<(String, String, String)> {
    let fields = doc.obj_of("BENCHMARK.json").unwrap();
    get(fields, list, "BENCHMARK.json")
        .unwrap()
        .arr_of(list)
        .unwrap()
        .iter()
        .map(|m| {
            let f = m.obj_of(list).unwrap();
            let s = |k: &str| get(f, k, list).unwrap().str_of(k).unwrap().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_catalogue() {
    let declared = entries(&benchmark_json(), "end_to_end");
    let catalogue: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect();
    assert_eq!(declared, catalogue);
}

#[test]
fn per_layer_metrics_match_the_catalogue() {
    let declared = entries(&benchmark_json(), "per_layer");
    let catalogue: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect();
    assert_eq!(declared, catalogue);
}

#[test]
fn workloads_match_the_catalogue_and_the_cli() {
    let doc = benchmark_json();
    let fields = doc.obj_of("BENCHMARK.json").unwrap();
    let declared: Vec<(String, String)> = get(fields, "workloads", "BENCHMARK.json")
        .unwrap()
        .arr_of("workloads")
        .unwrap()
        .iter()
        .map(|w| {
            let f = w.obj_of("workload").unwrap();
            let s = |k: &str| {
                get(f, k, "workload")
                    .unwrap()
                    .str_of(k)
                    .unwrap()
                    .to_string()
            };
            (s("name"), s("why"))
        })
        .collect();
    let catalogue: Vec<_> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(declared, catalogue);
    let cli: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(cli, names);
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let doc = benchmark_json();
    let names = |list| {
        entries(&doc, list)
            .into_iter()
            .map(|e| e.0)
            .collect::<Vec<_>>()
    };
    let printed: Vec<_> = end_to_end(&Tally::default(), 1.0)
        .iter()
        .map(|r| r.name.to_string())
        .collect();
    assert_eq!(printed, names("end_to_end"));
    let printed: Vec<_> = per_layer(&Tally::default(), &Tracer::new(), &ReplayTally::default())
        .iter()
        .map(|r| r.name.to_string())
        .collect();
    assert_eq!(printed, names("per_layer"));
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in metrics {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name), "duplicate metric {name}");
    }
    for w in WORKLOADS {
        assert!(valid_name(w.name), "bad workload name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(seen.insert(w.name), "duplicate name {}", w.name);
    }
    assert!(!valid_name("op ms"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_unit("m s"));
}

#[test]
fn every_end_to_end_metric_has_a_bound_and_setup_s_the_largest() {
    let doc = benchmark_json();
    let fields = doc.obj_of("BENCHMARK.json").unwrap();
    let bounds: Vec<(String, f64)> = get(fields, "end_to_end", "BENCHMARK.json")
        .unwrap()
        .arr_of("end_to_end")
        .unwrap()
        .iter()
        .map(|m| {
            let f = m.obj_of("metric").unwrap();
            let name = get(f, "name", "metric").unwrap().str_of("name").unwrap();
            let bound = get(f, "bound", "metric").unwrap().f64_of("bound").unwrap();
            (name.to_string(), bound)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        assert!(*bound <= setup, "{name}: bound above setup_s's");
    }
}
