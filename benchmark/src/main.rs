//! Command line of the benchmark. `run.sh` builds this binary and passes its
//! arguments through.
//!
//! ```text
//! scalparc-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke]
//! scalparc-benchmark repeat --runs <n> [--seeds a,b,c] [--seconds <n>]
//! ```
//!
//! A run starts its worker processes from this same executable with
//! `--worker`, which prints one worker's share and nothing else.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use scalparc_benchmark::layers::PER_LAYER;
use scalparc_benchmark::protocol::{self, Opts, END_TO_END};
use scalparc_benchmark::repeat::{self, RepeatOpts};
use scalparc_benchmark::workloads::Kind;

const USAGE: &str = "usage:
  run.sh --workload <induce_wide|forest_deep|ooc_spill|stream_swap> --seed <u64>
         [--seconds <n>] [--trace 0|1] [--smoke] [--out <dir>]
  run.sh repeat --runs <n >= 5> [--seeds a,b,c] [--seconds <n>]";

/// Seconds the timed loop runs when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // A worker's set-up time counts from here.
    let started = Instant::now();
    let mut args = std::env::args().skip(1).peekable();
    let repeat = args.next_if(|a| a == "repeat").is_some();
    let (mut kind, mut seed, mut seconds) = (None, None, DEFAULT_SECONDS);
    let (mut trace, mut smoke, mut runs, mut seeds) = (false, false, None, Vec::new());
    let mut worker = false;
    let mut out_dir: PathBuf = protocol::default_out_dir();
    while let Some(flag) = args.next() {
        // `--trace`, `--smoke` and `--worker` stand alone; `--trace` may be
        // followed by 0 or 1.
        match flag.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--worker" => {
                worker = true;
                continue;
            }
            "--trace" => {
                trace = args.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
                continue;
            }
            _ => {}
        }
        let Some(value) = args.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => Kind::parse(&value)
                .map(|k| kind = Some(k))
                .ok_or_else(|| format!("unknown workload {value:?}")),
            "--seed" => value
                .parse()
                .map(|s| seed = Some(s))
                .map_err(|_| "--seed wants a u64".to_string()),
            "--seeds" => value
                .split(',')
                .map(|s| s.parse::<u64>())
                .collect::<Result<Vec<_>, _>>()
                .map(|s| seeds = s)
                .map_err(|_| "--seeds wants u64,u64,...".to_string()),
            "--seconds" => value
                .parse()
                .map(|s| seconds = s)
                .map_err(|_| "--seconds wants a number".to_string()),
            "--runs" => value
                .parse()
                .map(|r| runs = Some(r))
                .map_err(|_| "--runs wants a count".to_string()),
            "--out" => {
                out_dir = PathBuf::from(value);
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(msg) = parsed {
            return fail(&msg);
        }
    }

    if repeat {
        let Some(runs) = runs.filter(|&r| r >= 5) else {
            return fail("repeat needs --runs N with N >= 5");
        };
        let opts = RepeatOpts {
            runs,
            seeds,
            seconds,
            smoke,
        };
        return if repeat::run(&opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let (Some(kind), Some(seed)) = (kind, seed) else {
        return fail("--workload and --seed are required");
    };
    let opts = Opts {
        kind,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
        exe: std::env::current_exe().expect("own executable path"),
    };
    if worker {
        let share = protocol::worker(&opts, started);
        println!("{}", share.to_json().render());
        return if share.ops.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out = protocol::run(&opts);
    print!("{}", out.table());
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    println!("{}", out.result_line(&names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
