//! Deterministic admission replay: a discrete-event queueing model of
//! the open-loop driver (c servers, one bounded FIFO queue, shed
//! policy, deadline budgets) on the *virtual* clock.
//!
//! The wall-clock driver's admission decisions depend on OS
//! scheduling; this model's do not — same schedule, same config, same
//! byte sequence of decisions, every run, which is what the
//! determinism tests pin. It is also the planning tool: sweep offered
//! rates through `simulate` to predict shed rates and queueing delay
//! before burning wall time on a live run.
//!
//! What it models is `c` servers each busy `service_us` per
//! transaction. The live driver matches that only with
//! `group_commit: false`, where a worker forces its own commit and
//! `service_us` is the device operation. Under group commit a worker
//! leaves its commit with the log writer and takes the next job, so
//! the device is a batching window shared by everything in flight: it
//! adds latency, and the servers' service time is execution alone.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcv_engine::latency_histogram;
use mcv_obs::{Histogram, RunReport};

use crate::admission::{Admission, Decision, ShedPolicy, Then, Verdict};
use crate::arrivals::ArrivalSchedule;

/// The queueing model: `servers` workers over a FIFO queue of at most
/// `queue_cap` waiting jobs, each job taking exactly `service_us`.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Parallel servers (the pool's worker count).
    pub servers: usize,
    /// Bounded queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Deterministic per-transaction service time (µs).
    pub service_us: u64,
    /// Per-transaction budget from arrival; exhausted budgets are
    /// abandoned as deadline misses.
    pub deadline_us: u64,
    /// What happens to a shed arrival: dropped, or retried after
    /// capped exponential backoff.
    pub policy: ShedPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            servers: 4,
            queue_cap: 64,
            service_us: 400,
            deadline_us: 100_000,
            policy: ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 },
        }
    }
}

/// What the deterministic replay produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Every admission decision in deterministic event order.
    pub decisions: Vec<Decision>,
    /// Arrivals in the schedule.
    pub arrivals: u64,
    /// try-submit successes (events, not unique transactions).
    pub accepted: u64,
    /// Shed events.
    pub shed: u64,
    /// Retries scheduled.
    pub retried: u64,
    /// Transactions abandoned on budget exhaustion.
    pub deadline_missed: u64,
    /// Transactions that completed service.
    pub completed: u64,
    /// Completions within their deadline.
    pub goodput: u64,
    /// Virtual arrival-to-completion latency.
    pub latency_us: Histogram,
    /// Virtual instant the last event fired.
    pub end_us: u64,
}

impl SimOutcome {
    /// The decision sequence as bytes (`A`/`S`/`R`/`D`) — the
    /// "byte-identical admission sequence" artifact.
    pub fn admission_bytes(&self) -> Vec<u8> {
        self.decisions.iter().map(|d| d.byte()).collect()
    }

    /// A [`RunReport`] of the replay. Every counter is deterministic;
    /// wall-clock measurements belong under `wall.*` so `strip_wall`
    /// leaves a byte-stable report.
    pub fn report(&self, id: &str) -> RunReport {
        let mut r =
            RunReport::new(id).fact("arrivals", self.arrivals).fact("virtual_end_us", self.end_us);
        let c = &mut r.metrics.counters;
        c.insert("load.sim.arrivals".into(), self.arrivals);
        c.insert("load.sim.accepted".into(), self.accepted);
        c.insert("load.sim.shed".into(), self.shed);
        c.insert("load.sim.retried".into(), self.retried);
        c.insert("load.sim.deadline_missed".into(), self.deadline_missed);
        c.insert("load.sim.completed".into(), self.completed);
        c.insert("load.sim.goodput".into(), self.goodput);
        r.metrics.histograms.insert("load.sim.latency_us".into(), self.latency_us.clone());
        r
    }
}

/// A pending event. The heap orders `(instant, seq, event)` and `seq`
/// is unique, so the derived order of `Event` never decides anything:
/// it is derived only so the tuple can be ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ServerFree { txn: u64 },
    Submit { txn: u64, attempt: u32 },
}

/// Replays `schedule` through the queueing model, deciding every
/// attempt by the one admission rule with `queue.len() + busy` in
/// flight. The model is work-conserving (a waiting job means every
/// server is busy), so that bound sheds exactly when the queue holds
/// `queue_cap`.
///
/// Fully deterministic: events fire by instant, then in the order they
/// were scheduled. So at one instant every arrival (all scheduled up
/// front) fires before any completion or retry, and those fire in the
/// order they were scheduled.
pub fn simulate(schedule: &ArrivalSchedule, cfg: &SimConfig) -> SimOutcome {
    assert!(cfg.servers > 0 && cfg.queue_cap > 0, "sim needs servers and queue capacity");
    let rule = Admission::new(cfg.queue_cap, cfg.servers, cfg.deadline_us, cfg.policy);
    let arrivals = &schedule.arrivals;
    let mut events: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule_at = |events: &mut BinaryHeap<_>, at_us: u64, ev: Event| {
        events.push(Reverse((at_us, seq, ev)));
        seq += 1;
    };
    for (i, a) in arrivals.iter().enumerate() {
        schedule_at(&mut events, a.at_us, Event::Submit { txn: i as u64, attempt: 0 });
    }

    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut busy = 0usize;
    let mut out = SimOutcome {
        decisions: Vec::new(),
        arrivals: arrivals.len() as u64,
        accepted: 0,
        shed: 0,
        retried: 0,
        deadline_missed: 0,
        completed: 0,
        goodput: 0,
        latency_us: latency_histogram(),
        end_us: 0,
    };

    while let Some(Reverse((now, _, ev))) = events.pop() {
        out.end_us = out.end_us.max(now);
        match ev {
            Event::Submit { txn, attempt } => {
                let arrival = arrivals[txn as usize];
                let in_flight = (queue.len() + busy) as u64;
                let verdict = rule.decide(now, &arrival, attempt, in_flight, true);
                out.decisions.extend(verdict.decisions());
                match verdict {
                    Verdict::Accept => {
                        queue.push_back(txn);
                        if busy < cfg.servers {
                            let started = queue.pop_front().expect("just queued");
                            busy += 1;
                            let free = Event::ServerFree { txn: started };
                            schedule_at(&mut events, now + cfg.service_us, free);
                        }
                    }
                    Verdict::Shed(Then::Retry { due_us }) => {
                        let retry = Event::Submit { txn, attempt: attempt + 1 };
                        schedule_at(&mut events, due_us, retry);
                    }
                    Verdict::Shed(_) | Verdict::DeadlineMiss => {}
                }
            }
            Event::ServerFree { txn } => {
                busy -= 1;
                let arrival = arrivals[txn as usize];
                let latency = now - arrival.at_us;
                out.latency_us.record(latency);
                out.completed += 1;
                if latency <= cfg.deadline_us {
                    out.goodput += 1;
                }
                if let Some(next) = queue.pop_front() {
                    busy += 1;
                    schedule_at(&mut events, now + cfg.service_us, Event::ServerFree { txn: next });
                }
            }
        }
    }
    let count = |d| out.decisions.iter().filter(|&&x| x == d).count() as u64;
    [out.accepted, out.shed, out.retried, out.deadline_missed] =
        [Decision::Accept, Decision::Shed, Decision::Retry, Decision::DeadlineMiss].map(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, LoadProfile};

    fn profile(rate: f64) -> LoadProfile {
        LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: rate },
            duration_us: 200_000,
            sessions: 10_000,
            session_theta: 0.8,
            seed: 11,
        }
    }

    #[test]
    fn underload_admits_everything() {
        // 4 servers at 400µs/txn serve 10k tps; offer 2k.
        let s = ArrivalSchedule::generate(&profile(2_000.0));
        let out = simulate(&s, &SimConfig::default());
        assert_eq!(out.shed, 0);
        assert_eq!(out.accepted, out.arrivals);
        assert_eq!(out.completed, out.arrivals);
        assert_eq!(out.goodput, out.completed);
    }

    #[test]
    fn sustained_overload_sheds_instead_of_queueing_unboundedly() {
        // Offer 2x capacity: the bounded queue must shed, and under
        // the drop policy every arrival resolves as completed or shed.
        let s = ArrivalSchedule::generate(&profile(20_000.0));
        let cfg = SimConfig { policy: ShedPolicy::Drop, ..SimConfig::default() };
        let out = simulate(&s, &cfg);
        assert!(out.shed > 0, "2x overload must shed");
        assert_eq!(out.completed + out.shed, out.arrivals);
        // Accepted work still completes within a bounded queue's delay:
        // queue_cap * service / servers behind the newest arrival.
        let worst = out.latency_us.percentile(100.0);
        let bound = (cfg.queue_cap as u64 + 1) * cfg.service_us;
        assert!(worst <= bound, "p100 {worst}µs exceeds queue bound {bound}µs");
    }

    #[test]
    fn retry_after_converges_every_arrival_to_a_terminal_state() {
        let s = ArrivalSchedule::generate(&profile(15_000.0));
        let out = simulate(&s, &SimConfig::default());
        assert_eq!(out.completed + out.deadline_missed, out.arrivals);
        assert!(out.retried > 0, "overload with retry-after must retry");
    }

    #[test]
    fn same_seed_replays_are_byte_identical() {
        let s = ArrivalSchedule::generate(&profile(12_000.0));
        let a = simulate(&s, &SimConfig::default());
        let b = simulate(&s, &SimConfig::default());
        assert_eq!(a.admission_bytes(), b.admission_bytes());
        assert_eq!(a.report("sim").to_json(), b.report("sim").to_json());
    }
}
