//! Scripted fault injection for the live runtime — the chaos half of the
//! supervision story.
//!
//! A [`LiveFaultPlan`] is a set of one-shot faults the live runner's
//! threads consult at well-defined points: the trainer after popping a
//! block (panic / stall), the trainer between store-commit and publish
//! (the torn-commit window), and the feeder before pushing a block. Each
//! fault fires **at most once** — the plan is shared across restart
//! attempts, so a fault that already fired does not re-kill the restarted
//! thread at the same position.
//!
//! Every injected panic message carries the `"[injected]"` marker so
//! [`serve::sync::hush_injected_panics`] can silence the expected panic
//! reports in chaos runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One scripted fault; positions are absolute global record indices, so a
/// plan means the same thing across restarts and against the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveFault {
    /// The trainer panics on the first popped block whose end reaches
    /// `upto` — mid-window, after scoring state has been touched.
    TrainerPanicAtBlock {
        /// Global record index the triggering block must reach.
        upto: u64,
    },
    /// The trainer panics right after `genstore::commit` of `generation`
    /// and before the publish — the torn window crash-resume must heal.
    TrainerPanicAfterCommit {
        /// Generation whose commit/publish gap is torn.
        generation: u64,
    },
    /// The feeder panics instead of pushing the block starting at `at`.
    FeederPanicAtBlock {
        /// Global record index of the block the feeder dies on.
        at: u64,
    },
    /// The trainer stops heartbeating (sleeps) for `ms` milliseconds on
    /// the first popped block whose end reaches `upto` — long enough past
    /// the watchdog threshold to be declared stalled and abandoned.
    TrainerStallAtBlock {
        /// Global record index the triggering block must reach.
        upto: u64,
        /// How long the hang lasts.
        ms: u64,
    },
}

/// A one-shot armed set of [`LiveFault`]s, shared (behind an `Arc`) by
/// every thread of a live run.
#[derive(Debug, Default)]
pub struct LiveFaultPlan {
    faults: Vec<(LiveFault, AtomicBool)>,
}

impl LiveFaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> LiveFaultPlan {
        LiveFaultPlan::default()
    }

    /// A plan armed with `faults`, each to fire at most once.
    pub fn new(faults: Vec<LiveFault>) -> LiveFaultPlan {
        LiveFaultPlan {
            faults: faults
                .into_iter()
                .map(|f| (f, AtomicBool::new(true)))
                .collect(),
        }
    }

    /// Faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.faults
            .iter()
            .filter(|(_, armed)| armed.load(Ordering::SeqCst))
            .count()
    }

    /// Consume the first still-armed fault matching `pick` (at most one
    /// thread wins the swap, so a fault cannot double-fire).
    fn take(&self, pick: impl Fn(&LiveFault) -> bool) -> Option<LiveFault> {
        for (fault, armed) in &self.faults {
            if pick(fault) && armed.swap(false, Ordering::SeqCst) {
                return Some(*fault);
            }
        }
        None
    }

    /// Trainer hook, after popping the block ending at `upto`: `true`
    /// means panic now.
    pub fn trainer_panic_at(&self, upto: u64) -> bool {
        self.take(|f| matches!(f, LiveFault::TrainerPanicAtBlock { upto: at } if upto >= *at))
            .is_some()
    }

    /// Trainer hook, between commit and publish of `generation`: `true`
    /// means panic now.
    pub fn trainer_panic_after_commit(&self, generation: u64) -> bool {
        self.take(|f| matches!(f, LiveFault::TrainerPanicAfterCommit { generation: g } if *g == generation))
            .is_some()
    }

    /// Feeder hook, before pushing the block starting at `at`: `true`
    /// means panic now.
    pub fn feeder_panic_at(&self, at: u64) -> bool {
        self.take(|f| matches!(f, LiveFault::FeederPanicAtBlock { at: a } if at >= *a))
            .is_some()
    }

    /// Trainer hook, after popping the block ending at `upto`: how long to
    /// hang without heartbeating, if a stall is scheduled here.
    pub fn trainer_stall_at(&self, upto: u64) -> Option<Duration> {
        self.take(|f| matches!(f, LiveFault::TrainerStallAtBlock { upto: at, .. } if upto >= *at))
            .map(|f| match f {
                LiveFault::TrainerStallAtBlock { ms, .. } => Duration::from_millis(ms),
                _ => unreachable!("take matched a stall"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_fault_fires_exactly_once() {
        let plan = LiveFaultPlan::new(vec![
            LiveFault::TrainerPanicAtBlock { upto: 500 },
            LiveFault::FeederPanicAtBlock { at: 300 },
            LiveFault::TrainerStallAtBlock { upto: 900, ms: 50 },
        ]);
        assert_eq!(plan.pending(), 3);
        assert!(!plan.trainer_panic_at(499), "not reached yet");
        assert!(plan.trainer_panic_at(500));
        assert!(!plan.trainer_panic_at(500), "one-shot");
        assert!(plan.feeder_panic_at(350));
        assert!(!plan.feeder_panic_at(350));
        assert_eq!(plan.trainer_stall_at(100), None);
        assert_eq!(plan.trainer_stall_at(950), Some(Duration::from_millis(50)));
        assert_eq!(plan.trainer_stall_at(950), None);
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn commit_fault_matches_its_generation_only() {
        let plan = LiveFaultPlan::new(vec![LiveFault::TrainerPanicAfterCommit { generation: 2 }]);
        assert!(!plan.trainer_panic_after_commit(1));
        assert!(plan.trainer_panic_after_commit(2));
        assert!(!plan.trainer_panic_after_commit(2));
    }
}
