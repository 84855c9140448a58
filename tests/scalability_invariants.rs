//! Scalability invariants from the paper's analysis (§3), asserted on
//! measured statistics of simulated runs:
//!
//! * ScalParC memory per processor is O(N/p): doubling p ~halves the peak;
//! * ScalParC per-processor communication volume is O(N/p);
//! * parallel SPRINT's are O(N): they floor out as p grows;
//! * the distributed node table accounts for ~N/p slots per rank;
//! * simulated runtime improves with p once N is large enough, and larger
//!   N gives better relative speedups (paper §5 trends).

use datagen::{generate, GenConfig};
use dtree::Dataset;
use mpsim::{CostModel, TimingMode};
use scalparc::{induce, ParConfig};

fn data(n: usize) -> Dataset {
    generate(&GenConfig::paper(n, 5))
}

fn run(data: &Dataset, p: usize) -> scalparc::ParResult {
    induce(data, &ParConfig::new(p))
}

#[test]
fn memory_per_proc_halves_when_p_doubles() {
    let d = data(8_000);
    let peaks: Vec<u64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&p| run(&d, p).stats.peak_mem_per_proc())
        .collect();
    for w in peaks.windows(2) {
        let factor = w[0] as f64 / w[1] as f64;
        // The paper reports ~1.94 at small p; collective buffers erode the
        // ideal 2.0 a little.
        assert!(
            factor > 1.6,
            "memory halving factor {factor:.2} too weak: {peaks:?}"
        );
    }
}

#[test]
fn comm_volume_per_proc_shrinks_with_p() {
    let d = data(8_000);
    let v4 = run(&d, 4).stats.max_comm_volume_per_proc();
    let v16 = run(&d, 16).stats.max_comm_volume_per_proc();
    assert!(
        (v16 as f64) < 0.5 * v4 as f64,
        "volume p=4 {v4} → p=16 {v16}"
    );
}

#[test]
fn comm_volume_scales_linearly_in_n() {
    // Total communication per level is O(N) (paper's runtime-scalability
    // requirement): fixing p and doubling N should ~double total bytes.
    let p = 4;
    let b1 = run(&data(4_000), p).stats.total_bytes_sent();
    let b2 = run(&data(8_000), p).stats.total_bytes_sent();
    let ratio = b2 as f64 / b1 as f64;
    assert!(
        (1.4..3.0).contains(&ratio),
        "total bytes N→2N ratio {ratio:.2}"
    );
}

#[test]
fn node_table_is_block_partitioned() {
    let d = data(4_096);
    let r = run(&d, 8);
    for rank in &r.stats.ranks {
        let table = rank
            .mem_categories
            .iter()
            .find(|(c, _)| *c == dhash::TABLE_MEM)
            .map(|(_, u)| u.peak)
            .unwrap_or(0);
        // 4096 keys over 8 ranks = 512 slots of Option<u8> (2 bytes).
        assert_eq!(table, 1024, "rank table bytes {table}");
    }
}

#[test]
fn attr_lists_shrink_per_proc() {
    let d = data(8_000);
    let peak_at = |p: usize| {
        run(&d, p)
            .stats
            .ranks
            .iter()
            .map(|r| {
                r.mem_categories
                    .iter()
                    .find(|(c, _)| *c == scalparc::dist::ATTR_MEM)
                    .map(|(_, u)| u.peak)
                    .unwrap_or(0)
            })
            .max()
            .unwrap()
    };
    let a2 = peak_at(2);
    let a8 = peak_at(8);
    assert!(
        (a8 as f64) < 0.35 * a2 as f64,
        "attr lists p=2 {a2} → p=8 {a8}"
    );
}

#[test]
fn simulated_runtime_speeds_up_and_prefers_large_n() {
    // Use the analytic communication model with measured compute; compare
    // relative speedups for a small and a larger N.
    let run_t = |n: usize, p: usize| {
        let d = data(n);
        let cfg = ParConfig {
            procs: p,
            cost: CostModel::t3d_scaled(64.0),
            timing: TimingMode::Measured,
            trace: None,
            induce: Default::default(),
        };
        // Noise-filtered measurement (min-replay over 3 runs) keeps this
        // robust even when the host is loaded.
        scalparc::induce_measured(&d, &cfg, 3).stats.time_s()
    };
    let small_speedup = run_t(10_000, 1) / run_t(10_000, 8);
    let large_speedup = run_t(80_000, 1) / run_t(80_000, 8);
    assert!(
        large_speedup > 1.5,
        "large-N speedup at p=8 only {large_speedup:.2}"
    );
    assert!(
        large_speedup > small_speedup * 0.8,
        "relative speedup should not degrade with N: small {small_speedup:.2}, large {large_speedup:.2}"
    );
}

#[test]
fn levels_and_tree_shape_independent_of_p() {
    let d = data(3_000);
    let r1 = run(&d, 1);
    let r8 = run(&d, 8);
    assert_eq!(r1.levels, r8.levels);
    assert_eq!(r1.max_active_nodes, r8.max_active_nodes);
    assert_eq!(r1.tree, r8.tree);
}

/// The host-side barrier under the collectives is invisible to the
/// simulated machine: a free-running p = 8 induction ends with exactly the
/// per-rank clock, traffic and peak memory it had under
/// `std::sync::Barrier` (values recorded at the commit before the swap;
/// record them again when the collective sequence or the cost model is
/// changed on purpose).
#[test]
fn free_running_rank_stats_do_not_depend_on_the_host_barrier() {
    // (clock_ns, comm_ns, bytes_sent, bytes_recv, msgs_sent, peak_mem)
    const WANT: [(u64, u64, u64, u64, u64, u64); 8] = [
        (60_327_237, 60_327_237, 206_152, 209_724, 233, 87_104),
        (60_327_237, 60_327_237, 226_190, 231_724, 233, 87_008),
        (60_327_237, 60_327_237, 239_126, 236_404, 233, 87_024),
        (60_327_237, 60_327_237, 242_248, 236_598, 233, 86_944),
        (60_327_237, 60_327_237, 241_370, 230_946, 233, 87_048),
        (60_327_237, 60_327_237, 228_284, 230_420, 233, 86_904),
        (60_327_237, 60_327_237, 224_514, 232_836, 233, 87_192),
        (60_327_237, 60_327_237, 218_134, 233_446, 233, 87_032),
    ];
    let r = run(&data(8_000), 8);
    let got: Vec<_> = r
        .stats
        .ranks
        .iter()
        .map(|s| {
            assert_eq!(s.compute_ns, 0, "free-running machines measure nothing");
            (
                s.clock_ns,
                s.comm_ns,
                s.bytes_sent,
                s.bytes_recv,
                s.msgs_sent,
                s.peak_mem,
            )
        })
        .collect();
    assert_eq!(got, WANT);
}
