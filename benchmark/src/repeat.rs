//! `repeat`: does the benchmark agree with itself?
//!
//! Two sets of N runs of this same binary alternate (A, B, A, B, …) per
//! workload at one fixed seed. Per (workload, metric) the two medians must
//! lie within the metric's bound of each other, and the simulated-clock
//! metrics and the accuracy must be bit-identical in every run. With
//! `--seeds`, `SEED_ROUNDS` more runs per seed, the seeds alternating like the
//! sets, show how far the metrics move across generated datasets, and that
//! must stay within `across_seeds_limit`. The report is Markdown:
//! `REPEATABILITY.md` is this command's output.

use std::process::Command;

use obs::Json;

use crate::protocol::END_TO_END;
use crate::stats::{median, summarize};
use crate::workloads::{Kind, KINDS};

/// The seed both sets run at.
const FIXED_SEED: u64 = 1;
/// Metrics that are a pure function of the seed.
const EXACT: [&str; 4] = [
    "sim_comm_s",
    "comm_bytes_per_proc",
    "peak_mem_per_proc_bytes",
    "accuracy",
];

/// Runs per seed of the across-seeds table; a seed's value is their median,
/// so that one run under a noisy neighbour does not pass for the data.
const SEED_ROUNDS: usize = 3;

/// How far (max - min over the median) a metric may move across seeds: the
/// depth caps and the Count-only trigger keep tree shape and generation count
/// seed-stable, so a workload that moves further is the wrong size.
fn across_seeds_limit(metric: &str) -> f64 {
    match metric {
        "accuracy" => 0.01,
        m if EXACT.contains(&m) => 0.05,
        _ => 0.10,
    }
}

pub struct RepeatOpts {
    pub runs: usize,
    pub seeds: Vec<u64>,
    pub seconds: f64,
    pub smoke: bool,
}

/// One child run's end-to-end metric values, in `END_TO_END` order; `None`
/// when the run failed or printed no result.
fn child(kind: Kind, seed: u64, opts: &RepeatOpts) -> Option<Vec<f64>> {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", kind.spec(false).name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn a benchmark run");
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = obs::json::parse(text.lines().last()?).ok()?;
    let ok = out.status.success() && doc.get("correct") == Some(&Json::Bool(true));
    if !ok {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return None;
    }
    let metrics = doc.get("metrics")?;
    END_TO_END
        .iter()
        .map(|m| metrics.get(m.0)?.get("value")?.as_f64())
        .collect()
}

/// Column `i` of a set of runs.
fn column(set: &[Vec<f64>], i: usize) -> Vec<f64> {
    set.iter().map(|run| run[i]).collect()
}

/// Run the repeatability check and print its report; `true` when every gap
/// is within its bound, every exact metric repeated to the last bit, and no
/// metric moved across seeds by more than its limit.
pub fn run(opts: &RepeatOpts) -> bool {
    let mut ok = true;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!("# Repeatability of the benchmark against itself\n");
    println!(
        "`run.sh repeat --runs {}{}{}` on {} core(s) ({}, commit {}, {}), {} s of timed \
         repetitions per run. Two sets (A, B) of {} runs of one binary alternate per workload at seed {FIXED_SEED}. \
         `gap` is |median B - median A| / median A and must not exceed `bound`; \
         `spread` is (q3 - q1) / median within a set.\n",
        opts.runs,
        if opts.seeds.is_empty() {
            String::new()
        } else {
            format!(
                " --seeds {}",
                opts.seeds
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        },
        if opts.smoke { " --smoke" } else { "" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("SCALPARC_BENCH_DATE"),
        env("SCALPARC_BENCH_COMMIT"),
        env("SCALPARC_BENCH_RUSTC"),
        opts.seconds,
        opts.runs,
    );
    for kind in KINDS {
        let name = kind.spec(false).name;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..2 * opts.runs {
            let Some(values) = child(kind, FIXED_SEED, opts) else {
                println!("**{name}: a run failed its correctness checks or printed no result**\n");
                return false;
            };
            if i % 2 == 0 { &mut a } else { &mut b }.push(values);
        }
        println!("## {name}\n");
        println!(
            "| metric | unit | median A | median B | gap | bound | spread A | spread B | verdict |"
        );
        println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
        for (i, (metric, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let (sa, sb) = (summarize(&column(&a, i)), summarize(&column(&b, i)));
            let gap = (sb.median - sa.median).abs() / sa.median.abs();
            let exact = EXACT.contains(metric);
            let identical =
                sa.min.to_bits() == sb.max.to_bits() && sa.max.to_bits() == sb.min.to_bits();
            let verdict = match (exact, identical, gap <= *bound) {
                (true, true, _) => "bit-identical",
                (true, false, _) => "NOT IDENTICAL",
                (false, _, true) => "ok",
                (false, _, false) => "GAP > BOUND",
            };
            ok &= if exact { identical } else { gap <= *bound };
            println!(
                "| `{metric}` | {unit} | {:.6} | {:.6} | {:.4} | {bound} | {:.4} | {:.4} | {verdict} |",
                sa.median,
                sb.median,
                gap,
                sa.spread(),
                sb.spread()
            );
        }
        println!();

        if !opts.seeds.is_empty() {
            let mut runs = vec![Vec::new(); opts.seeds.len()];
            for _ in 0..SEED_ROUNDS {
                for (of_seed, &seed) in runs.iter_mut().zip(&opts.seeds) {
                    let Some(values) = child(kind, seed, opts) else {
                        println!("**{name}: a run at seed {seed} failed**\n");
                        return false;
                    };
                    of_seed.push(values);
                }
            }
            let per_seed: Vec<Vec<f64>> = runs
                .iter()
                .map(|of_seed| {
                    (0..END_TO_END.len())
                        .map(|i| median(&column(of_seed, i)))
                        .collect()
                })
                .collect();
            println!(
                "Across seeds {:?} (a seed's value is the median of {SEED_ROUNDS} runs, the seeds \
                 alternating; spread = (max - min) / median):\n",
                opts.seeds
            );
            println!("| metric | unit | min | median | max | spread | limit | verdict |");
            println!("|---|---|---:|---:|---:|---:|---:|---|");
            for (i, (metric, unit, _, _)) in END_TO_END.iter().enumerate() {
                let s = summarize(&column(&per_seed, i));
                let (spread, limit) =
                    ((s.max - s.min) / s.median.abs(), across_seeds_limit(metric));
                ok &= spread <= limit;
                println!(
                    "| `{metric}` | {unit} | {:.6} | {:.6} | {:.6} | {spread:.4} | {limit} | {} |",
                    s.min,
                    s.median,
                    s.max,
                    if spread <= limit {
                        "ok"
                    } else {
                        "SPREAD > LIMIT"
                    }
                );
            }
            println!();
        }
    }
    println!(
        "Result: {}",
        if ok {
            "every gap within its bound, every exact metric bit-identical, every spread across seeds within its limit."
        } else {
            "FAILED (see the verdict column)."
        }
    );
    ok
}
