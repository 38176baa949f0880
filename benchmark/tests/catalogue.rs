//! `BENCHMARK.json` and the harness must name the same metrics and
//! workloads, within the benchmark contract's limits.

use tank_benchmark::gen::Workload;
use tank_benchmark::metrics::{END_TO_END, PER_LAYER};

/// Every `"key": "value"` string pair of `key` in the file, in order.
/// (The file is flat enough that this needs no JSON parser.)
fn strings(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn section<'a>(text: &'a str, key: &str, next: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect(key);
    let end = text.find(&format!("\"{next}\"")).expect(next);
    &text[start..end]
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);

    let workloads = strings(section(text, "workloads", "end_to_end"), "name");
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for why in strings(text, "why") {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = section(text, "end_to_end", "per_layer");
    let names = strings(e2e, "name");
    let units = strings(e2e, "unit");
    assert_eq!(names.len(), END_TO_END.len());
    for (d, (n, u)) in END_TO_END.iter().zip(names.iter().zip(&units)) {
        assert_eq!((d.name, d.unit), (n.as_str(), u.as_str()));
    }
    for bound in e2e.match_indices("\"bound\": ").map(|(i, _)| {
        let rest = &e2e[i + 9..];
        rest[..rest.find(['}', ',']).expect("end of bound")]
            .trim()
            .parse::<f64>()
            .expect("bound is a number")
    }) {
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }

    let per_layer = &text[text.find("\"per_layer\"").expect("per_layer")..];
    let names = strings(per_layer, "name");
    let units = strings(per_layer, "unit");
    assert_eq!(names.len(), PER_LAYER.len());
    for (d, (n, u)) in PER_LAYER.iter().zip(names.iter().zip(&units)) {
        assert_eq!((d.name, d.unit), (n.as_str(), u.as_str()));
    }
}
