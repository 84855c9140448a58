//! `--smoke` as a test: every workload at tiny sizes, every check on, both
//! the end-to-end run and the traced run.

use std::path::PathBuf;
use std::time::Instant;

use scalparc_benchmark::layers::PER_LAYER;
use scalparc_benchmark::protocol::{run, Opts, Outcome, END_TO_END};
use scalparc_benchmark::workloads::{Kind, KINDS};

fn smoke(kind: Kind, trace: bool, out: &str) -> Outcome {
    let opts = Opts {
        kind,
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_scalparc-benchmark")),
    };
    let t0 = Instant::now();
    let outcome = run(&opts);
    let name = outcome.spec.name;
    // The budget is for an optimized build on a quiet host; leave a wide
    // margin for a loaded one.
    assert!(
        trace || t0.elapsed().as_secs_f64() < 3.0 * 4.0,
        "{name}: smoke run took {:?}",
        t0.elapsed()
    );
    assert!(outcome.correct(), "{name}: a correctness check failed");
    assert!(outcome.ops.attempted > 0 && outcome.ops.failed == 0);
    let dirs = outcome
        .config
        .iter()
        .find(|(k, _)| k == "scratch_dirs")
        .and_then(|(_, v)| v.as_arr())
        .expect("the stamp names the scratch directories");
    // One for the traced run, one for each worker of an end-to-end run.
    assert_eq!(dirs.len(), if trace { 1 } else { 2 });
    for dir in dirs {
        let dir = dir.as_str().expect("a path");
        assert!(
            !std::path::Path::new(dir).exists(),
            "{name}: scratch {dir} was left behind"
        );
    }
    outcome
}

/// The last line carries exactly the contract's keys and the named metrics.
fn check_result_line(outcome: &Outcome, names: &[&str]) {
    let doc = obs::json::parse(&outcome.result_line(names)).expect("the result line is JSON");
    let obs::Json::Obj(fields) = &doc else {
        panic!("the result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let obs::Json::Obj(metrics) = doc.get("metrics").unwrap() else {
        panic!("metrics is an object")
    };
    assert_eq!(
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        names
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(obs::Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{name}: value {v:?} is not a finite number"
        );
        assert!(m.get("unit").and_then(obs::Json::as_str).is_some());
    }
}

#[test]
fn every_workload_passes_its_checks_end_to_end() {
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    for kind in KINDS {
        let outcome = smoke(kind, false, "smoke-e2e");
        check_result_line(&outcome, &names);
        for m in &outcome.metrics {
            // A 10 ms CPU tick can round a tiny training call down to zero.
            assert!(
                m.value > 0.0 || m.name == "train_cpu_s",
                "{}: {} is {}",
                outcome.spec.name,
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_reports_every_layer_when_traced() {
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for kind in KINDS {
        let outcome = smoke(kind, true, "smoke-trace");
        check_result_line(&outcome, &names);
        let has = |n: &str| outcome.metrics.iter().any(|m| m.name == n);
        // Metrics only one workload owns are reported there and nowhere else.
        assert_eq!(has("serve.slot.publish_p50_us"), kind == Kind::StreamSwap);
        assert_eq!(has("core.genstore.commit_us"), kind == Kind::StreamSwap);
        assert_eq!(has("core.ooc.ooc_io_sim_s"), kind == Kind::OocSpill);
        assert_eq!(has("diskio.device_train_wall_s"), kind == Kind::OocSpill);
        assert_eq!(has("core.forest.tree.compute_s"), kind == Kind::ForestDeep);
        assert_eq!(
            has("core.checkpoint.bytes_per_level"),
            kind == Kind::InduceWide
        );
        // The traced run leaves its three files. `obs`'s strict parser is
        // slow on tens of megabytes (stream_swap's 16-rank simulated trace),
        // so only files of a few megabytes are parsed back.
        let stem = format!("{}-seed7", outcome.spec.name);
        let read = |ext: &str| {
            let path = outcome.opts.out_dir.join(format!("{stem}.{ext}"));
            let text = std::fs::read_to_string(&path).expect("trace file written");
            assert!(text.starts_with('{'), "{path:?} is a JSON object");
            text
        };
        assert!(obs::json::parse(&read("host-trace.json")).is_ok());
        let rows = obs::metrics::validate_metrics(&read("layers.json"))
            .expect("layers.json is a scalparc-metrics/v1 document");
        assert_eq!(rows, outcome.metrics.len());
        let sim = read("sim-trace.json");
        if sim.len() < 4 << 20 {
            obs::validate_chrome_trace(&sim).expect("the simulated-clock trace validates");
        }
    }
}
