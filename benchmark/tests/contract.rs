//! `BENCHMARK.json` and the code say the same thing: same workloads and
//! reasons, same end-to-end metrics with units, directions and bounds, same
//! per-layer metrics, within the declared limits.

use obs::Json;
use scalparc_benchmark::layers::PER_LAYER;
use scalparc_benchmark::protocol::END_TO_END;
use scalparc_benchmark::workloads::KINDS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    obs::json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn name_ok(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(legal)
}

fn unit_ok(unit: &str) -> bool {
    unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let Json::Obj(fields) = manifest() else {
        panic!("BENCHMARK.json is an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let doc = manifest();
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_match_the_code() {
    let doc = manifest();
    let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), KINDS.len());
    for (entry, kind) in listed.iter().zip(KINDS) {
        let spec = kind.spec(false);
        assert_eq!(text(entry, "name"), spec.name);
        let why: String = spec.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(text(entry, "why"), why);
        assert!(
            why.len() <= 200,
            "{}: why is {} chars",
            spec.name,
            why.len()
        );
        assert!(name_ok(spec.name));
    }
}

#[test]
fn metrics_match_the_code() {
    let doc = manifest();
    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, (name, unit, better, bound)) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit);
        assert_eq!(text(entry, "better"), better);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(name_ok(name) && unit_ok(unit));
    }
    let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.3 <= setup.3),
        "setup_s has the largest bound"
    );

    let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (entry, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit);
        assert_eq!(text(entry, "better"), better);
        assert!(name_ok(name) && unit_ok(unit), "{name} / {unit}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    names.extend(PER_LAYER.iter().map(|m| m.0));
    names.extend(KINDS.iter().map(|k| k.spec(false).name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}
