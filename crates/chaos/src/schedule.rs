//! Seeded fault schedules: a [`FaultPlan`] bounds what may go wrong,
//! and [`FaultPlan::generate`] draws one [`FaultSchedule`] of
//! [`FaultEvent`]s — crashes, recoveries, (possibly asymmetric)
//! partitions, per-link loss / duplication / reordering windows, and
//! torn WAL writes — from a seed.

use mcv_sim::{CutKind, FaultEvent, FaultSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds for random schedule generation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Number of processes (coordinator + cohorts).
    pub n_procs: usize,
    /// All fault activity happens before this tick; it should be well
    /// below the scenario deadline so the system gets a quiet tail to
    /// settle in.
    pub horizon: u64,
    /// Maximum events per schedule (at least 1 is always generated).
    pub max_events: usize,
    /// Generate crashes (and torn-write crashes).
    pub crashes: bool,
    /// Pair every crash with a later recovery inside the horizon.
    pub crashes_recover: bool,
    /// Generate partitions (symmetric and one-way); they always heal
    /// by the horizon.
    pub partitions: bool,
    /// Generate per-link drop windows.
    pub drop_windows: bool,
    /// Generate duplication windows (breaks exactly-once delivery).
    pub dup_windows: bool,
    /// Generate reordering windows (breaks the FIFO assumption).
    pub reorder_windows: bool,
    /// Generate torn-write crashes.
    pub torn_writes: bool,
}

impl FaultPlan {
    /// Faults the election + termination protocol claims to tolerate:
    /// crashes with recovery, healing partitions, transient loss
    /// windows, and torn writes. Duplication and reordering stay off —
    /// they break assumptions (exactly-once, FIFO) the thesis makes.
    pub fn tolerated(n_procs: usize, horizon: u64) -> Self {
        FaultPlan {
            n_procs,
            horizon,
            max_events: 6,
            crashes: true,
            crashes_recover: true,
            partitions: true,
            drop_windows: true,
            dup_windows: false,
            reorder_windows: false,
            torn_writes: true,
        }
    }

    /// Everything on, including the assumption-breaking faults.
    pub fn full(n_procs: usize, horizon: u64) -> Self {
        FaultPlan {
            dup_windows: true,
            reorder_windows: true,
            ..FaultPlan::tolerated(n_procs, horizon)
        }
    }

    fn kinds(&self) -> Vec<u8> {
        let mut kinds = Vec::new();
        if self.crashes {
            kinds.push(0);
        }
        if self.partitions {
            kinds.push(1);
        }
        if self.drop_windows {
            kinds.push(2);
        }
        if self.dup_windows {
            kinds.push(3);
        }
        if self.reorder_windows {
            kinds.push(4);
        }
        if self.torn_writes {
            kinds.push(5);
        }
        kinds
    }

    /// Draws a random schedule within the plan's bounds. The same
    /// `(plan, seed)` always yields the same schedule.
    pub fn generate(&self, seed: u64) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds = self.kinds();
        let mut events = Vec::new();
        if kinds.is_empty() || self.n_procs == 0 {
            return FaultSchedule { events };
        }
        let horizon = self.horizon.max(2);
        let n = rng.gen_range(1..=self.max_events.max(1));
        for _ in 0..n {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            // Keep injected times >= 1 so faults never race the start
            // events at tick 0.
            let at = rng.gen_range(1..horizon);
            let proc = rng.gen_range(0..self.n_procs);
            match kind {
                0 => {
                    events.push(FaultEvent::Crash { proc, at });
                    if self.crashes_recover {
                        let back = rng.gen_range(at + 1..=horizon);
                        events.push(FaultEvent::Recover { proc, at: back });
                    }
                }
                1 => {
                    // A random nonempty proper subset: one seed member
                    // plus coin flips for the rest.
                    let mut side = vec![proc];
                    for p in 0..self.n_procs {
                        if p != proc && side.len() + 1 < self.n_procs && rng.gen_bool(0.3) {
                            side.push(p);
                        }
                    }
                    side.sort_unstable();
                    let cut = match rng.gen_range(0..3u8) {
                        0 => CutKind::Both,
                        1 => CutKind::Outbound,
                        _ => CutKind::Inbound,
                    };
                    let until = rng.gen_range(at + 1..=horizon);
                    events.push(FaultEvent::Partition { side, cut, from: at, until });
                }
                2..=4 => {
                    let src = rng.gen_bool(0.5).then(|| rng.gen_range(0..self.n_procs));
                    let dst = rng.gen_bool(0.5).then(|| rng.gen_range(0..self.n_procs));
                    let until = rng.gen_range(at + 1..=horizon);
                    events.push(match kind {
                        2 => FaultEvent::DropWindow { src, dst, from: at, until },
                        3 => FaultEvent::DupWindow { src, dst, from: at, until },
                        _ => FaultEvent::ReorderWindow { src, dst, from: at, until },
                    });
                }
                _ => {
                    // Scaled to the log image: a cohort's unforced tail
                    // is one 18-byte update frame, so a wider draw
                    // mostly tears beyond the image and is a plain crash.
                    let keep_bytes = rng.gen_range(0..32usize);
                    events.push(FaultEvent::TornWrite { proc, at, keep_bytes });
                    if self.crashes_recover {
                        let back = rng.gen_range(at + 1..=horizon);
                        events.push(FaultEvent::Recover { proc, at: back });
                    }
                }
            }
        }
        FaultSchedule { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let plan = FaultPlan::full(4, 300);
        assert_eq!(plan.generate(9), plan.generate(9));
        assert_ne!(plan.generate(9), plan.generate(10));
    }

    #[test]
    fn generated_events_respect_the_plan() {
        let plan = FaultPlan::tolerated(5, 200);
        for seed in 0..50 {
            let s = plan.generate(seed);
            assert!(!s.is_empty());
            assert!(s.events.iter().all(|e| e.fits(5)), "{s:?}");
            for e in &s.events {
                if let Some((from, until)) = e.window() {
                    assert!(from < until && until <= 200, "{e:?}");
                }
                // The tolerated plan never breaks FIFO or exactly-once.
                assert!(!matches!(
                    e,
                    FaultEvent::DupWindow { .. } | FaultEvent::ReorderWindow { .. }
                ));
            }
        }
    }

    #[test]
    fn tolerated_crashes_are_paired_with_recoveries() {
        let plan = FaultPlan::tolerated(4, 300);
        for seed in 0..50 {
            let s = plan.generate(seed);
            for e in &s.events {
                if let FaultEvent::Crash { proc, at } | FaultEvent::TornWrite { proc, at, .. } = e {
                    let recovered = s.events.iter().any(|r| {
                        matches!(r, FaultEvent::Recover { proc: p, at: b } if p == proc && b > at)
                    });
                    assert!(recovered, "unrecovered crash in {s:?}");
                }
            }
        }
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let plan = FaultPlan::full(4, 300);
        let s = plan.generate(3);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
