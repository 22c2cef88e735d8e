//! Typed, timed fault schedules: the adversary's script for one run.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s — crashes,
//! recoveries, (possibly asymmetric) partitions, per-link loss /
//! duplication / reordering windows, and torn WAL writes — that is
//! seed-generatable, serde-serializable, and replayable
//! byte-deterministically: the same `(config, schedule)` pair always
//! produces the identical execution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which directions a generated partition cuts (mirrors
/// [`mcv_sim::CutDirection`], kept separate so schedules stay a pure
/// data format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CutKind {
    /// Symmetric cut.
    Both,
    /// Only traffic out of the named side is lost.
    Outbound,
    /// Only traffic into the named side is lost.
    Inbound,
}

/// One timed fault. Process indices are simulator ids (0 is the
/// coordinator, `1..=n_cohorts` the cohorts); times are simulation
/// ticks.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FaultEvent {
    /// Crash process `proc` at tick `at`.
    Crash {
        /// The victim.
        proc: usize,
        /// When.
        at: u64,
    },
    /// Recover process `proc` at tick `at` (a no-op if it is up).
    Recover {
        /// The recovering process.
        proc: usize,
        /// When.
        at: u64,
    },
    /// Partition `side` from everyone else during `[from, until)`;
    /// healing is implicit at `until`.
    Partition {
        /// The isolated side.
        side: Vec<usize>,
        /// Which directions are cut.
        cut: CutKind,
        /// Activation tick.
        from: u64,
        /// Heal tick.
        until: u64,
    },
    /// Drop every message matching the link pattern (`None` = any)
    /// during `[from, until)`.
    DropWindow {
        /// Sender filter.
        src: Option<usize>,
        /// Receiver filter.
        dst: Option<usize>,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// Deliver every matching message twice during `[from, until)`.
    DupWindow {
        /// Sender filter.
        src: Option<usize>,
        /// Receiver filter.
        dst: Option<usize>,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// Matching messages skip the FIFO clamp and pick up extra jitter
    /// during `[from, until)`.
    ReorderWindow {
        /// Sender filter.
        src: Option<usize>,
        /// Receiver filter.
        dst: Option<usize>,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// Crash `proc` at tick `at` with a torn write: the WAL's byte
    /// image is truncated at `keep_bytes` (clamped to the forced
    /// prefix, so durable decisions are never lost).
    TornWrite {
        /// The victim.
        proc: usize,
        /// When.
        at: u64,
        /// Byte offset of the tear.
        keep_bytes: usize,
    },
}

impl FaultEvent {
    /// Every process index the event refers to.
    pub fn procs(&self) -> Vec<usize> {
        match self {
            FaultEvent::Crash { proc, .. }
            | FaultEvent::Recover { proc, .. }
            | FaultEvent::TornWrite { proc, .. } => vec![*proc],
            FaultEvent::Partition { side, .. } => side.clone(),
            FaultEvent::DropWindow { src, dst, .. }
            | FaultEvent::DupWindow { src, dst, .. }
            | FaultEvent::ReorderWindow { src, dst, .. } => {
                src.iter().chain(dst.iter()).copied().collect()
            }
        }
    }

    /// The window `[from, until)` of windowed events, if any.
    pub fn window(&self) -> Option<(u64, u64)> {
        match self {
            FaultEvent::Partition { from, until, .. }
            | FaultEvent::DropWindow { from, until, .. }
            | FaultEvent::DupWindow { from, until, .. }
            | FaultEvent::ReorderWindow { from, until, .. } => Some((*from, *until)),
            _ => None,
        }
    }

    /// Whether every process the event names exists in a topology of
    /// `n_procs` processes (ids `0..n_procs`). This is the one rule for
    /// which events a topology can run: both runtimes skip an event
    /// that does not fit, and an artifact carrying one does not load.
    pub fn fits(&self, n_procs: usize) -> bool {
        self.procs().iter().all(|p| *p < n_procs)
    }

    /// A copy with the window end moved to `until` (identity for
    /// non-windowed events).
    pub fn with_until(&self, new_until: u64) -> FaultEvent {
        let mut e = self.clone();
        match &mut e {
            FaultEvent::Partition { until, .. }
            | FaultEvent::DropWindow { until, .. }
            | FaultEvent::DupWindow { until, .. }
            | FaultEvent::ReorderWindow { until, .. } => *until = new_until,
            _ => {}
        }
        e
    }
}

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
}

/// A replayable fault schedule.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultSchedule {
    /// The events, in generation order (times need not be sorted; the
    /// runner schedules each independently).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Generates a random schedule within `plan`'s bounds. The same
    /// `(seed, plan)` always yields the same schedule.
    pub fn generate(seed: u64, plan: &FaultPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds = plan.kinds();
        let mut events = Vec::new();
        if kinds.is_empty() || plan.n_procs == 0 {
            return FaultSchedule { events };
        }
        let horizon = plan.horizon.max(2);
        let n = rng.gen_range(1..=plan.max_events.max(1));
        for _ in 0..n {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            // Keep injected times >= 1 so faults never race the start
            // events at tick 0.
            let at = rng.gen_range(1..horizon);
            let proc = rng.gen_range(0..plan.n_procs);
            match kind {
                0 => {
                    events.push(FaultEvent::Crash { proc, at });
                    if plan.crashes_recover {
                        let back = rng.gen_range(at + 1..=horizon);
                        events.push(FaultEvent::Recover { proc, at: back });
                    }
                }
                1 => {
                    // A random nonempty proper subset: one seed member
                    // plus coin flips for the rest.
                    let mut side = vec![proc];
                    for p in 0..plan.n_procs {
                        if p != proc && side.len() + 1 < plan.n_procs && rng.gen_bool(0.3) {
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
                    let src = rng.gen_bool(0.5).then(|| rng.gen_range(0..plan.n_procs));
                    let dst = rng.gen_bool(0.5).then(|| rng.gen_range(0..plan.n_procs));
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
                    if plan.crashes_recover {
                        let back = rng.gen_range(at + 1..=horizon);
                        events.push(FaultEvent::Recover { proc, at: back });
                    }
                }
            }
        }
        FaultSchedule { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fits the schedule to processes `0..n_procs` after a topology
    /// reduction removed the others: a partition keeps the survivors on
    /// its side (and goes once it cuts nothing), every other event that
    /// names a removed process goes.
    pub fn restrict(&mut self, n_procs: usize) {
        self.events.retain_mut(|e| match e {
            FaultEvent::Partition { side, .. } => {
                side.retain(|p| *p < n_procs);
                !side.is_empty() && side.len() < n_procs
            }
            _ => e.fits(n_procs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let plan = FaultPlan::full(4, 300);
        assert_eq!(FaultSchedule::generate(9, &plan), FaultSchedule::generate(9, &plan));
        assert_ne!(FaultSchedule::generate(9, &plan), FaultSchedule::generate(10, &plan));
    }

    #[test]
    fn generated_events_respect_the_plan() {
        let plan = FaultPlan::tolerated(5, 200);
        for seed in 0..50 {
            let s = FaultSchedule::generate(seed, &plan);
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
            let s = FaultSchedule::generate(seed, &plan);
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
        let s = FaultSchedule::generate(3, &plan);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn restrict_strips_partitions_and_drops_events_naming_removed_processes() {
        let window = |src, dst| FaultEvent::DropWindow { src, dst, from: 1, until: 9 };
        let partition = |side: Vec<usize>| FaultEvent::Partition {
            side,
            cut: CutKind::Both,
            from: 1,
            until: 9,
        };
        let mut s = FaultSchedule {
            events: vec![
                FaultEvent::Crash { proc: 3, at: 5 },
                FaultEvent::Recover { proc: 2, at: 6 },
                window(None, Some(3)),
                window(Some(0), None),
                partition(vec![1, 3]),
                partition(vec![3]),
                partition(vec![0, 1, 2, 3]),
            ],
        };
        s.restrict(3);
        assert_eq!(
            s.events,
            vec![FaultEvent::Recover { proc: 2, at: 6 }, window(Some(0), None), partition(vec![1])]
        );
        assert!(s.events.iter().all(|e| e.fits(3)));
    }

    #[test]
    fn with_until_tightens_windows_only() {
        let w = FaultEvent::DropWindow { src: None, dst: None, from: 5, until: 50 };
        assert_eq!(w.with_until(10).window(), Some((5, 10)));
        let c = FaultEvent::Crash { proc: 1, at: 7 };
        assert_eq!(c.with_until(10), c);
    }
}
