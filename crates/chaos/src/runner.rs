//! Executes one chaos run: a commit-protocol scenario with a fault
//! schedule injected, followed by oracle evaluation.

use crate::campaign::Target;
use crate::oracle::{evaluate, OracleResult};
use crate::schedule::{CutKind, FaultEvent, FaultSchedule};
use mcv_commit::{build_world, Msg, Protocol, Scenario, Site};
use mcv_sim::{Partition, ProcId, RunStats, SimTime, World};
use std::sync::Arc;

/// Flight-recorder capacity: every chaos run keeps at least this many
/// trailing causal events, so a violating run always ships a window of
/// what led up to the violation.
pub const FLIGHT_RECORDER_CAP: usize = 4096;

/// Full configuration of one chaos run: the protocol scenario plus the
/// fault schedule. Serializable, so a violating run can be shipped as
/// a repro artifact and replayed exactly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosConfig {
    /// Which protocol to run.
    pub protocol: Protocol,
    /// Number of cohorts (the coordinator is process 0 on top).
    pub n_cohorts: usize,
    /// Number of concurrent transactions.
    pub n_transactions: usize,
    /// Simulator seed (message delays etc.).
    pub seed: u64,
    /// Per-phase timeout in ticks.
    pub timeout: u64,
    /// Simulation deadline.
    pub deadline: u64,
    /// Use the naive Figure 3.2 timeout transitions.
    pub naive_timeouts: bool,
    /// Use quorum-based termination.
    pub quorum_termination: bool,
    /// This cohort votes no.
    pub vote_no_cohort: Option<usize>,
    /// The fault schedule to inject.
    pub schedule: FaultSchedule,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            protocol: Protocol::ThreePhase,
            n_cohorts: 3,
            n_transactions: 1,
            seed: 0,
            timeout: 50,
            deadline: 10_000,
            naive_timeouts: false,
            quorum_termination: false,
            vote_no_cohort: None,
            schedule: FaultSchedule::none(),
        }
    }
}

impl ChaosConfig {
    fn scenario(&self) -> Scenario {
        Scenario {
            protocol: self.protocol,
            n_cohorts: self.n_cohorts,
            seed: self.seed,
            timeout: self.timeout,
            naive_timeouts: self.naive_timeouts,
            quorum_termination: self.quorum_termination,
            vote_no_cohort: self.vote_no_cohort,
            n_transactions: self.n_transactions,
            deadline: self.deadline,
            ..Scenario::default()
        }
    }
}

/// The deterministic simulator as a campaign target: one run per
/// shrink candidate suffices.
impl Target for ChaosConfig {
    type Outcome = ChaosOutcome;
    const KIND: &'static str = "chaos";
    const REPLAY_EXAMPLE: &'static str = "chaos_hunt";
    const RUNS_PER_CHECK: usize = 1;
    const SHRINK_BUDGET: usize = 400;
    const REDUCTIONS: &'static [fn(&Self) -> Option<Self>] = &[
        // Fewer cohorts: the highest cohort id goes.
        |c| (c.n_cohorts > 1).then(|| ChaosConfig { n_cohorts: c.n_cohorts - 1, ..c.clone() }),
        |c| {
            (c.n_transactions > 1)
                .then(|| ChaosConfig { n_transactions: c.n_transactions - 1, ..c.clone() })
        },
    ];

    fn run(&self) -> ChaosOutcome {
        run_chaos(self)
    }
    fn oracles(out: &ChaosOutcome) -> &[OracleResult] {
        &out.oracles
    }
    fn trace(out: ChaosOutcome) -> mcv_trace::CausalTrace {
        out.trace
    }
    fn seed(&self) -> u64 {
        self.seed
    }
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }
    fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
    fn schedule_mut(&mut self) -> &mut FaultSchedule {
        &mut self.schedule
    }
    /// The coordinator plus the cohorts.
    fn n_procs(&self) -> usize {
        self.n_cohorts + 1
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Low-level simulator stats.
    pub stats: RunStats,
    /// Every oracle's verdict, in canonical order.
    pub oracles: Vec<OracleResult>,
    /// A deterministic digest of the observable execution (decisions
    /// and message counts); equal digests mean equal runs.
    pub fingerprint: String,
    /// The causal event trace of the run: the full trace when an outer
    /// recorder was installed, otherwise the flight-recorder window
    /// (last [`FLIGHT_RECORDER_CAP`] events).
    pub trace: mcv_trace::CausalTrace,
}

impl ChaosOutcome {
    /// The first violated oracle, if any.
    pub fn violated(&self) -> Option<&OracleResult> {
        self.oracles.iter().find(|o| !o.pass)
    }

    /// Whether a specific oracle failed.
    pub fn violates(&self, oracle: &str) -> bool {
        self.oracles.iter().any(|o| o.name == oracle && !o.pass)
    }

    /// Whether every oracle passed.
    pub fn all_pass(&self) -> bool {
        self.oracles.iter().all(|o| o.pass)
    }
}

/// Runs one chaos configuration to its deadline and evaluates the
/// oracles. Deterministic: equal configs give equal outcomes.
///
/// The flight recorder is always on: with no outer trace sink
/// installed, the run records into a bounded ring of
/// [`FLIGHT_RECORDER_CAP`] events whose snapshot rides the outcome. An
/// already-installed recorder (tests, the trace explorer) takes
/// precedence and receives the events instead.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    match mcv_trace::installed() {
        Some(rec) => run_chaos_traced(cfg, &rec),
        None => {
            let rec = mcv_trace::Recorder::ring(FLIGHT_RECORDER_CAP);
            let snap = Arc::clone(&rec);
            mcv_trace::with_recorder(rec, || run_chaos_traced(cfg, &snap))
        }
    }
}

/// Schedules every fault of `cfg` that fits its topology on `world`
/// upfront; the others are inert. Torn writes
/// additionally need a mid-run intervention (the WAL tear): they are
/// returned as `(at, proc, keep_bytes)`, in time order.
fn schedule_faults(world: &mut World<Msg, Site>, cfg: &ChaosConfig) -> Vec<(u64, usize, usize)> {
    let n_procs = cfg.n_procs();
    let mut tears: Vec<(u64, usize, usize)> = Vec::new();
    for ev in cfg.schedule.events.iter().filter(|e| e.fits(n_procs)) {
        match ev {
            FaultEvent::Crash { proc, at } => {
                world.schedule_crash(ProcId(*proc), SimTime::from_ticks(*at));
            }
            FaultEvent::Recover { proc, at } => {
                world.schedule_recovery(ProcId(*proc), SimTime::from_ticks(*at));
            }
            FaultEvent::Partition { side, cut, from, until } => {
                let ids = side.iter().map(|p| ProcId(*p));
                let p = match cut {
                    CutKind::Both => Partition::isolate(ids),
                    CutKind::Outbound => Partition::one_way_from(ids),
                    CutKind::Inbound => Partition::one_way_to(ids),
                };
                world.schedule_partition(
                    p,
                    SimTime::from_ticks(*from),
                    SimTime::from_ticks(*until),
                );
            }
            FaultEvent::DropWindow { src, dst, from, until } => {
                world.schedule_drop_window(
                    src.map(ProcId),
                    dst.map(ProcId),
                    SimTime::from_ticks(*from),
                    SimTime::from_ticks(*until),
                );
            }
            FaultEvent::DupWindow { src, dst, from, until } => {
                world.schedule_dup_window(
                    src.map(ProcId),
                    dst.map(ProcId),
                    SimTime::from_ticks(*from),
                    SimTime::from_ticks(*until),
                );
            }
            FaultEvent::ReorderWindow { src, dst, from, until } => {
                world.schedule_reorder_window(
                    src.map(ProcId),
                    dst.map(ProcId),
                    SimTime::from_ticks(*from),
                    SimTime::from_ticks(*until),
                );
            }
            FaultEvent::TornWrite { proc, at, keep_bytes } => {
                world.schedule_crash(ProcId(*proc), SimTime::from_ticks(*at));
                tears.push((*at, *proc, *keep_bytes));
            }
        }
    }
    tears.sort_unstable();
    tears
}

fn run_chaos_traced(cfg: &ChaosConfig, rec: &Arc<mcv_trace::Recorder>) -> ChaosOutcome {
    let _span = mcv_obs::Span::enter("chaos.run");
    let sc = cfg.scenario();
    let mut world = build_world(&sc);
    let tears = schedule_faults(&mut world, cfg);

    // Torn writes happen *at* the crash instant: run up to each tear,
    // then truncate the victim's WAL image. The force discipline means
    // recovery must be unaffected — checked here and fed to the
    // wal_consistency oracle.
    let mut wal_damage: Vec<String> = Vec::new();
    for (at, proc, keep_bytes) in tears {
        world.run_until(SimTime::from_ticks(at));
        let site: &mut Site = world.process_mut(ProcId(proc));
        let before = site.db.wal().recover();
        let lost = site.db.crash_torn(keep_bytes);
        let after = site.db.wal().recover();
        if after != before {
            wal_damage.push(format!(
                "p{proc}: torn write at byte {keep_bytes} (lost {lost} records) \
                 changed recovered state"
            ));
        }
    }
    let stats = world.run_until(SimTime::from_ticks(cfg.deadline));

    let trace = rec.snapshot();
    let oracles = evaluate(&world, cfg, &wal_damage, &trace);
    let fingerprint = fingerprint(&world, &stats);
    ChaosOutcome { stats, oracles, fingerprint, trace }
}

/// A deterministic digest of the run: every observed decision plus the
/// message counters. Wall-clock-free, so replays compare bytes.
fn fingerprint(world: &World<Msg, Site>, stats: &RunStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in mcv_commit::monitor::decisions(world.trace()) {
        let verdict = if d.commit { "commit" } else { "abort" };
        let _ = writeln!(out, "{} {} {} {}", d.time.ticks(), d.site, d.txn, verdict);
    }
    let _ = writeln!(
        out,
        "sent={} delivered={} dropped={} duplicated={} events={}",
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.messages_duplicated,
        stats.events
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_passes_all_oracles() {
        let out = run_chaos(&ChaosConfig::default());
        assert!(out.all_pass(), "oracles: {:?}", out.oracles);
    }

    #[test]
    fn runs_are_byte_deterministic() {
        let cfg = ChaosConfig {
            seed: 42,
            schedule: FaultSchedule::generate(42, &crate::schedule::FaultPlan::tolerated(4, 300)),
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn out_of_topology_events_are_inert() {
        let cfg = ChaosConfig {
            schedule: FaultSchedule { events: vec![FaultEvent::Crash { proc: 99, at: 10 }] },
            ..ChaosConfig::default()
        };
        let out = run_chaos(&cfg);
        assert!(out.all_pass(), "oracles: {:?}", out.oracles);
    }

    #[test]
    fn vote_no_with_faults_never_commits() {
        let cfg = ChaosConfig {
            vote_no_cohort: Some(1),
            schedule: FaultSchedule::generate(7, &crate::schedule::FaultPlan::tolerated(4, 300)),
            ..ChaosConfig::default()
        };
        let out = run_chaos(&cfg);
        assert!(!out.violates("ac2_validity"), "oracles: {:?}", out.oracles);
    }

    #[test]
    fn torn_write_crash_keeps_wal_consistent() {
        let cfg = ChaosConfig {
            schedule: FaultSchedule {
                events: vec![
                    FaultEvent::TornWrite { proc: 1, at: 15, keep_bytes: 0 },
                    FaultEvent::Recover { proc: 1, at: 120 },
                ],
            },
            ..ChaosConfig::default()
        };
        let out = run_chaos(&cfg);
        assert!(!out.violates("wal_consistency"), "oracles: {:?}", out.oracles);
    }

    /// `TornWrite.keep_bytes` is drawn from `0..32` while the log
    /// image's density is the codec's business: some tear must still
    /// cut *inside* an unforced record and cost the victim at least
    /// that record, or the fault has silently become a plain crash. A
    /// cohort's whole unforced window is one 18-byte update frame.
    #[test]
    fn torn_writes_still_land_inside_unforced_records() {
        let plan = crate::schedule::FaultPlan::tolerated(4, 300);
        let mut mid_record_tears = 0;
        for seed in 0..50 {
            let cfg = ChaosConfig {
                seed,
                quorum_termination: true,
                schedule: FaultSchedule::generate(seed, &plan),
                ..ChaosConfig::default()
            };
            let mut world = build_world(&cfg.scenario());
            for (at, proc, keep_bytes) in schedule_faults(&mut world, &cfg) {
                world.run_until(SimTime::from_ticks(at));
                let db = &mut world.process_mut(ProcId(proc)).db;
                let cut =
                    keep_bytes.max(db.wal().stable_len_bytes()).min(db.wal().to_bytes().len());
                let lost = db.crash_torn(keep_bytes);
                if lost >= 1 && db.wal().to_bytes().len() < cut {
                    mid_record_tears += 1;
                }
            }
        }
        assert!(mid_record_tears >= 1, "no tear in 50 seeds cut inside an unforced record");
    }
}
