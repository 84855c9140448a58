//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every binary in this crate regenerates one artifact of the paper's
//! evaluation section (see `DESIGN.md` §4 for the experiment index). The
//! binaries accept:
//!
//! * `--full` — run at the paper's scale (0.8M–6.4M records). The default
//!   is 1/16 scale (50k–400k), which preserves every curve shape while
//!   finishing in minutes on a laptop;
//! * `--quick` — 1/64 scale smoke run;
//! * `--func F1..F10` — classification function (default F2);
//! * `--seed <u64>` — dataset seed;
//! * `--json <path>` — also write the bin's table as a
//!   `scalparc-metrics/v1` document (the one JSON emitter shared by every
//!   bin; see `obs::metrics`).

use std::path::PathBuf;

use datagen::{generate, ClassFunc, GenConfig, Profile};
use dtree::data::Dataset;
use mpsim::obs::{Json, MetricsDoc};
use mpsim::{CostModel, RunStats, TimingMode};
use scalparc::{induce_measured, Algorithm, InduceConfig, ParConfig, ParResult};

/// Scale of a benchmark sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 1/64 of the paper's sizes — seconds.
    Quick,
    /// 1/16 of the paper's sizes — minutes (default).
    Default,
    /// The paper's sizes (0.8M–6.4M records) — hours on a small host.
    Full,
}

impl Scale {
    /// The four training-set sizes of Figure 3, at this scale.
    pub fn dataset_sizes(&self) -> Vec<usize> {
        let paper = [800_000usize, 1_600_000, 3_200_000, 6_400_000];
        let div = match self {
            Scale::Quick => 64,
            Scale::Default => 16,
            Scale::Full => 1,
        };
        paper.iter().map(|n| n / div).collect()
    }

    /// Human-readable label of a size.
    pub fn size_label(&self, n: usize) -> String {
        match self {
            Scale::Full => format!("{:.1}m", n as f64 / 1e6),
            _ => format!("{}k", n / 1000),
        }
    }

    /// Processor counts of the paper's sweep.
    pub fn procs(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8, 16],
            _ => vec![1, 2, 4, 8, 16, 32, 64, 128],
        }
    }
}

/// Parsed command-line options shared by the benchmark binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Sweep scale.
    pub scale: Scale,
    /// Classification function.
    pub func: ClassFunc,
    /// Dataset seed.
    pub seed: u64,
    /// Where to write the machine-readable metrics document, if anywhere.
    pub json: Option<PathBuf>,
}

impl BenchOpts {
    /// Parse `std::env::args` (panics with usage on unknown flags).
    pub fn from_args() -> Self {
        let mut opts = BenchOpts {
            scale: Scale::Default,
            func: ClassFunc::F2,
            seed: 42,
            json: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.scale = Scale::Full,
                "--quick" => opts.scale = Scale::Quick,
                "--func" => {
                    let f = args.next().expect("--func needs a value");
                    opts.func = ClassFunc::parse(&f)
                        .unwrap_or_else(|| panic!("unknown function {f:?} (want F1..F10)"));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("--seed wants a u64");
                }
                "--json" => opts.json = Some(args.next().expect("--json needs a path").into()),
                other => {
                    panic!("unknown flag {other:?} (known: --full --quick --func --seed --json)")
                }
            }
        }
        opts
    }

    /// Start a metrics document stamped with this run's shared parameters.
    pub fn metrics_doc(&self, bench: &str) -> MetricsDoc {
        let mut doc = MetricsDoc::new(bench);
        doc.config(
            "scale",
            Json::str(match self.scale {
                Scale::Quick => "quick",
                Scale::Default => "default",
                Scale::Full => "full",
            }),
        );
        doc.config("func", Json::str(format!("{:?}", self.func)));
        doc.config("seed", Json::U64(self.seed));
        doc
    }

    /// Write `doc` to the `--json` path, if one was given.
    pub fn write_metrics(&self, doc: &MetricsDoc) {
        if let Some(path) = &self.json {
            doc.write(path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("# metrics written to {}", path.display());
        }
    }

    /// Generate the benchmark dataset for `n` records.
    pub fn dataset(&self, n: usize) -> Dataset {
        generate(&GenConfig {
            n,
            func: self.func,
            noise: 0.0,
            seed: self.seed,
            profile: Profile::Paper7,
        })
    }
}

/// One sweep cell: measured induction at (N, p).
pub struct Cell {
    /// Virtual processors.
    pub procs: usize,
    /// Parallel runtime (simulated seconds).
    pub time_s: f64,
    /// Peak memory per processor, bytes.
    pub mem_per_proc: u64,
    /// Per-processor communication volume (max over ranks), bytes.
    pub comm_per_proc: u64,
    /// Full machine stats for further digging.
    pub stats: RunStats,
}

/// Host-CPU-to-Alpha-EV4 speed factor used to rescale the T3D cost model
/// (see [`CostModel::t3d_scaled`]): compute runs on a modern core, so the
/// communication constants are divided by the same factor to preserve the
/// paper's computation-to-communication ratio.
pub const T3D_CPU_FACTOR: f64 = 64.0;

/// Run a measured, noise-filtered induction of `data` on `p` virtual
/// processors under the scaled T3D cost model (see
/// [`scalparc::induce_measured`] for the filtering mechanism).
pub fn run_measured(data: &Dataset, p: usize, algorithm: Algorithm) -> ParResult {
    let cfg = ParConfig {
        procs: p,
        cost: CostModel::t3d_scaled(T3D_CPU_FACTOR),
        timing: TimingMode::Measured,
        trace: None,
        induce: InduceConfig {
            algorithm,
            ..Default::default()
        },
    };
    induce_measured(data, &cfg, 2)
}

// ----- chaos harness helpers (shared by the chaos bins) ---------------------

/// The free-running configuration the chaos bins fault: `p` ranks under
/// the scaled T3D cost model, so clocks are deterministic and comparable.
pub fn chaos_cfg(p: usize) -> ParConfig {
    ParConfig {
        cost: CostModel::t3d_scaled(T3D_CPU_FACTOR),
        ..ParConfig::new(p)
    }
}

/// A fresh (removed, not created) scratch path for one chaos scenario.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalparc-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `over` relative to `base`, in percent (0 when `base` is 0).
pub fn pct(over: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (over as f64 - base as f64) / base as f64 * 100.0
    }
}

/// Sweep `p` over `procs` for one dataset, taking the best of `reps`
/// repetitions per cell (wall-clock measurement of short compute segments
/// is noisy; the minimum is the standard de-noised estimate).
pub fn sweep_reps(data: &Dataset, procs: &[usize], algorithm: Algorithm, reps: usize) -> Vec<Cell> {
    assert!(reps >= 1);
    procs
        .iter()
        .map(|&p| {
            let mut best: Option<Cell> = None;
            for _ in 0..reps {
                let r = run_measured(data, p, algorithm);
                let cell = Cell {
                    procs: p,
                    time_s: r.stats.time_s(),
                    mem_per_proc: r.stats.peak_mem_per_proc(),
                    comm_per_proc: r.stats.max_comm_volume_per_proc(),
                    stats: r.stats,
                };
                if best.as_ref().is_none_or(|b| cell.time_s < b.time_s) {
                    best = Some(cell);
                }
            }
            best.unwrap()
        })
        .collect()
}

/// [`sweep_reps`] with the default repetition count (the denoised
/// measurement inside [`run_measured`] already filters host noise, so one
/// repetition suffices).
pub fn sweep(data: &Dataset, procs: &[usize], algorithm: Algorithm) -> Vec<Cell> {
    sweep_reps(data, procs, algorithm, 1)
}

/// Format bytes in millions (matches the paper's "million bytes" axis).
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / 1e6)
}

/// Print a row of right-aligned columns of width 10.
pub fn print_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>10}")).collect();
    println!("{}", row.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        assert_eq!(Scale::Full.dataset_sizes()[3], 6_400_000);
        assert_eq!(Scale::Default.dataset_sizes()[0], 50_000);
        assert_eq!(Scale::Quick.dataset_sizes()[0], 12_500);
        assert!(Scale::Default.procs().contains(&128));
    }

    #[test]
    fn sweep_runs_and_produces_sane_cells() {
        let opts = BenchOpts {
            scale: Scale::Quick,
            func: ClassFunc::F1,
            seed: 1,
            json: None,
        };
        let data = opts.dataset(2_000);
        let cells = sweep(&data, &[1, 2], Algorithm::ScalParc);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.time_s > 0.0));
        assert!(cells[1].mem_per_proc < cells[0].mem_per_proc);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_mb(2_000_000), "2.000");
    }
}
