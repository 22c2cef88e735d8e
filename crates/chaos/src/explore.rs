//! Bounded exhaustive exploration of the commit sites that run. Each
//! step takes an event [`World::choices`] offers, lets a tick pass, or
//! spends a [`FaultBudget`] (a crash, one recovery, a partition, its
//! heal). The search is breadth-first over choice sequences: each
//! expanded prefix is replayed once on a fresh world and cloned for
//! each of its children, with a visited set of
//! [`World::digest`]s: the first counterexample is a shortest one. Each
//! reached state is checked against the non-blocking theorem
//! ([`GlobalState`]); each quiescent one is judged by the chaos oracles.

use crate::oracle::{evaluate, OracleResult};
use mcv_commit::{build_world, GlobalState, LocalState, Msg, Scenario, Site};
use mcv_sim::{CutKind, FaultEvent, FaultSchedule, Pending, ProcId, SimTime, World};
use mcv_txn::TxnId;
use std::collections::{BTreeSet, HashSet};

/// The faults an exploration may inject beyond the scenario's own, and
/// the delay bound it runs under.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultBudget {
    /// Sites that may crash, at any point: one crash in all (a scenario
    /// crash point counts), then one recovery. Empty: neither.
    pub crash: Vec<usize>,
    /// Sites one partition may cut off (both ways or outbound only), to
    /// heal at any later point. Empty: no partition.
    pub partition: Vec<usize>,
    /// The hop bound δ in ticks: synchronous while `2δ` is below the
    /// scenario's timeout, asynchronous once a hop may outlast it.
    pub delta: u64,
}

/// A shortest violating execution, replayable from its choice list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Counterexample {
    /// The scenario explored.
    pub scenario: Scenario,
    /// The budget explored under.
    pub budget: FaultBudget,
    /// Each step's choice: an index into the events that may run, then
    /// the wait, then the faults the budget still has.
    pub choices: Vec<usize>,
    /// The faults the choices injected, dated.
    pub schedule: FaultSchedule,
    /// The violated oracle.
    pub violated: String,
    /// Its evidence.
    pub detail: String,
}

impl Counterexample {
    /// Takes the choices, telling `visit` what each did. `Err` names
    /// the first choice no longer on offer (a changed protocol).
    fn walk(&self, mut visit: impl FnMut(&Run, String)) -> Result<Run<'_>, String> {
        let mut run = Run::new(&self.scenario, &self.budget);
        for (step, &choice) in self.choices.iter().enumerate() {
            let mut moves = run.moves();
            if choice >= moves.len() {
                return Err(format!("step {step} takes choice {choice} of {}", moves.len()));
            }
            let mv = moves.swap_remove(choice);
            let what = match &mv {
                Move::Run(p) => format!("{} {}", p.proc, run.world.label(p.seq)),
                Move::Wait(_) => "time passes".into(),
                Move::Crash(p) => format!("p{p} crashes"),
                Move::Recover(p) => format!("p{p} recovers"),
                Move::Partition(p, cut) => format!("p{p} cut off ({cut:?})"),
                Move::Heal => "partition heals".into(),
            };
            run.apply(mv);
            visit(&run, what);
        }
        Ok(run)
    }

    /// Replays the choices, heals any partition, runs each earliest
    /// event to quiescence, and returns the oracles' verdicts. `Err`
    /// when the replay drifted from the recorded execution: a choice
    /// no longer on offer, or faults other than the recorded schedule.
    pub fn replay(&self) -> Result<Vec<OracleResult>, String> {
        let mut run = self.walk(|_, _| {})?;
        if run.schedule != self.schedule.events {
            let (got, want) = (&run.schedule, &self.schedule.events);
            return Err(format!("the replay injected {got:?}, the record {want:?}"));
        }
        if matches!(run.cut, Cut::Open(..)) {
            run.apply(Move::Heal);
        }
        // Events and waits come before the budget's faults.
        while let Some(next @ (Move::Run(_) | Move::Wait(_))) = run.moves().into_iter().next() {
            run.apply(next);
        }
        Ok(run.judge())
    }

    /// The execution, one line per choice, with every site's state of
    /// T1 after it (`†`: down), and a last line if the replay drifted.
    pub fn steps(&self) -> Vec<String> {
        let mut out = Vec::new();
        let walked = self.walk(|run, what| {
            let world = &run.world;
            let state = |p| match world.process(p).local_state(TxnId(1)) {
                s if world.is_up(p) => s.map_or("-".into(), |s| s.to_string()),
                s => s.map_or("-†".into(), |s| format!("{s}†")),
            };
            let states: Vec<String> = (0..world.n_procs()).map(ProcId).map(state).collect();
            out.push(format!("t{:<4} {what:<28} [{}]", world.now().ticks(), states.join(" ")));
        });
        out.extend(walked.err().map(|e| format!("drifted: {e}")));
        out
    }
}

/// What an exploration found.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Distinct states reached.
    pub states: u64,
    /// Executions the oracles judged: distinct quiescent states.
    pub executions: u64,
    /// States with a commit beside a non-committable state (the
    /// non-blocking theorem's rule 2 broken).
    pub uncommittable_commits: u64,
    /// The local-state transitions taken, as `w2 --[Prepare]--> p2`:
    /// suffix 1 the coordinator, 2 a cohort; the label the message's
    /// kind, `timeout` or `recovery`.
    pub edges: BTreeSet<String>,
    /// The first (shortest) violation, which ended the search; `None`:
    /// every reached state is safe.
    pub violation: Option<Counterexample>,
}

/// Explores every execution of `sc` within `budget`. States that
/// differ only in the clock are one: a state's waits end at the
/// scenario's deadline as read when the search first reaches it.
///
/// # Panics
///
/// On a scenario with a fault schedule: its faults are dated, and the
/// digest a state is keyed by leaves dated windows out.
///
/// # Examples
///
/// ```
/// use mcv_chaos::{explore, FaultBudget};
/// use mcv_commit::Scenario;
/// // One cohort, no faults: every delivery order commits.
/// let budget = FaultBudget { delta: 5, ..FaultBudget::default() };
/// let found = explore(&Scenario { n_cohorts: 1, ..Scenario::default() }, &budget);
/// assert!(found.violation.is_none() && found.executions >= 1);
/// ```
pub fn explore(sc: &Scenario, budget: &FaultBudget) -> Exploration {
    assert!(sc.schedule.is_empty(), "explore: budget the faults instead of dating them");
    let _span = mcv_obs::Span::enter("chaos.explore");
    let mut found = Exploration::default();
    let mut seen = HashSet::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for prefix in frontier {
            let mut run = Run::replay(sc, budget, &prefix);
            let moves = run.moves();
            if !matches!(moves.first(), Some(Move::Run(_) | Move::Wait(_))) {
                found.executions += 1;
                if let Some(o) = run.judge().into_iter().find(|o| !o.pass) {
                    found.violation = Some(run.counterexample(prefix, o));
                    return found;
                }
            }
            let mut parent = Some(run);
            let n_moves = moves.len();
            for (i, mv) in moves.into_iter().enumerate() {
                // Each sibling starts from a clone; the last option takes
                // the expanded run itself.
                let mut child = match i + 1 == n_moves {
                    true => parent.take().expect("taken once"),
                    false => parent.clone().expect("not taken yet"),
                };
                found.edges.extend(child.apply_observed(mv));
                if !seen.insert(child.key()) {
                    continue;
                }
                found.states += 1;
                let mut path = prefix.clone();
                path.push(i);
                match child.theorem() {
                    Ok(committable) => found.uncommittable_commits += u64::from(!committable),
                    Err(split) => {
                        found.violation = Some(child.counterexample(path, split));
                        return found;
                    }
                }
                next.push(path);
            }
        }
        frontier = next;
    }
    found
}

/// The exploration's one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cut {
    Never,
    Open(usize, CutKind),
    Healed,
}

/// One choice.
enum Move {
    Run(Pending),
    Wait(SimTime),
    Crash(usize),
    Recover(usize),
    Partition(usize, CutKind),
    Heal,
}

/// One execution in progress and the budget it has spent.
#[derive(Clone)]
struct Run<'a> {
    sc: &'a Scenario,
    budget: &'a FaultBudget,
    world: World<Msg, Site>,
    crashed: bool,
    recovered: bool,
    cut: Cut,
    schedule: Vec<FaultEvent>,
}

impl<'a> Run<'a> {
    fn new(sc: &'a Scenario, budget: &'a FaultBudget) -> Self {
        let mut world = build_world(sc);
        world.run_until(SimTime::ZERO); // every process starts
        let (crashed, recovered, cut, schedule) = (false, false, Cut::Never, Vec::new());
        Run { sc, budget, world, crashed, recovered, cut, schedule }
    }

    /// The execution `choices` reach from the start.
    fn replay(sc: &'a Scenario, budget: &'a FaultBudget, choices: &[usize]) -> Self {
        let mut run = Run::new(sc, budget);
        for &choice in choices {
            let mv = run.moves().swap_remove(choice);
            run.apply(mv);
        }
        run
    }

    /// The options now: the events that may run, in queue order, the
    /// wait (up to the deadline), then the faults left in the budget.
    fn moves(&mut self) -> Vec<Move> {
        let (runnable, wait) = self.world.choices(self.budget.delta);
        let mut out: Vec<Move> = runnable.into_iter().map(Move::Run).collect();
        out.extend(wait.filter(|t| t.ticks() <= self.sc.deadline).map(Move::Wait));
        let (n, crash) = (self.world.n_procs(), &self.budget.crash);
        let up = |p: usize| self.world.is_up(ProcId(p));
        if !self.crashed {
            out.extend(crash.iter().filter(|&&p| p < n && up(p)).map(|&p| Move::Crash(p)));
        }
        if !self.recovered && !crash.is_empty() {
            out.extend((0..n).filter(|&p| !up(p)).map(Move::Recover));
        }
        match self.cut {
            Cut::Never => {
                for &p in self.budget.partition.iter().filter(|&&p| p < n) {
                    out.extend([CutKind::Both, CutKind::Outbound].map(|k| Move::Partition(p, k)));
                }
            }
            Cut::Open(..) => out.push(Move::Heal),
            Cut::Healed => {}
        }
        out
    }

    fn apply(&mut self, mv: Move) {
        let at = self.world.now().ticks();
        match mv {
            Move::Run(p) => _ = self.world.run_pending(p.seq),
            Move::Wait(until) => self.world.wait(until),
            Move::Crash(proc) => self.inject(FaultEvent::Crash { proc, at }),
            Move::Recover(proc) => {
                self.recovered = true;
                self.inject(FaultEvent::Recover { proc, at });
            }
            Move::Partition(p, cut) => {
                self.cut = Cut::Open(p, cut);
                let until = u64::MAX;
                self.inject(FaultEvent::Partition { side: vec![p], cut, from: at, until });
            }
            Move::Heal => {
                self.world.heal();
                self.cut = Cut::Healed;
                let open = self.schedule.iter_mut().rev().find(|e| e.window().is_some());
                open.into_iter().for_each(|e| *e = e.with_until(at));
            }
        }
        self.crashed |= (0..self.world.n_procs()).any(|p| !self.world.is_up(ProcId(p)));
    }

    fn inject(&mut self, ev: FaultEvent) {
        self.world.inject(&ev);
        self.schedule.push(ev);
    }

    /// Each transaction's state at `p`.
    fn states(&self, p: ProcId) -> Vec<Option<LocalState>> {
        let txns = 1..=self.sc.n_transactions.max(1) as u64;
        txns.map(|t| self.world.process(p).local_state(TxnId(t))).collect()
    }

    /// [`Run::apply`], returning the local-state transitions it caused.
    fn apply_observed(&mut self, mv: Move) -> Vec<String> {
        let (actor, cause) = match &mv {
            Move::Run(p) => (p.proc, self.world.label(p.seq)),
            Move::Recover(p) => (ProcId(*p), "recovery".to_string()),
            _ => {
                self.apply(mv);
                return Vec::new();
            }
        };
        let before = self.states(actor);
        self.apply(mv);
        let role = if actor == self.world.process(actor).config().coordinator { 1 } else { 2 };
        let pairs = before.into_iter().zip(self.states(actor));
        let changed = pairs.filter_map(|(a, b)| Some((a?, b?))).filter(|(a, b)| a != b);
        changed.map(|(from, to)| format!("{from}{role} --[{cause}]--> {to}{role}")).collect()
    }

    /// The visited-set key: the world's digest and the budget spent.
    fn key(&self) -> (u64, Cut, bool, bool) {
        (self.world.digest(), self.cut, self.crashed, self.recovered)
    }

    /// The non-blocking theorem on every transaction's global state:
    /// `Err` on commit beside abort (rule 1), else whether every commit
    /// stands beside committable states only (rule 2).
    fn theorem(&self) -> Result<bool, OracleResult> {
        let mut committable = true;
        for t in 1..=self.sc.n_transactions.max(1) as u64 {
            let mut global = GlobalState::new();
            for p in (0..self.world.n_procs()).map(ProcId) {
                if let Some(s) = self.world.process(p).local_state(TxnId(t)) {
                    global.record(p, s);
                }
            }
            if !global.is_consistent() {
                let detail = format!("T{t} split in global state {global}");
                return Err(OracleResult { name: "ac1_agreement".into(), pass: false, detail });
            }
            committable &= global.satisfies_nonblocking_theorem();
        }
        Ok(committable)
    }

    /// The chaos oracles' verdicts on the execution so far; it counts as
    /// faulted after a fault or crash point, or with hops that may
    /// outlast half the timeout.
    fn judge(&self) -> Vec<OracleResult> {
        let (sc, delta) = (self.sc, self.budget.delta);
        let faulted = self.crashed || !self.schedule.is_empty() || 2 * delta >= sc.timeout;
        evaluate(&self.world, sc, faulted, &[], &mcv_trace::CausalTrace::default())
    }

    fn counterexample(&self, choices: Vec<usize>, violated: OracleResult) -> Counterexample {
        Counterexample {
            scenario: self.sc.clone(),
            budget: self.budget.clone(),
            choices,
            schedule: FaultSchedule { events: self.schedule.clone() },
            violated: violated.name,
            detail: violated.detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_commit::CrashPoint;

    #[test]
    fn fault_free_runs_commit_in_every_order() {
        let sc = Scenario { n_cohorts: 2, ..Scenario::default() };
        let found = explore(&sc, &FaultBudget { delta: 5, ..FaultBudget::default() });
        assert!(found.violation.is_none(), "{:?}", found.violation);
        assert!(found.states > 10 && found.executions >= 1);
        assert!(found.edges.contains("p1 --[PrepareAck]--> c1"), "{:?}", found.edges);
    }

    #[test]
    fn a_counterexample_round_trips_and_replays() {
        let sc = Scenario {
            n_cohorts: 2,
            naive_timeouts: true,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            ..Scenario::default()
        };
        let budget = FaultBudget { delta: 5, ..FaultBudget::default() };
        let cx = explore(&sc, &budget).violation.expect("partial prepare splits");
        assert_eq!(cx.violated, "ac1_agreement");
        let json = serde_json::to_string_pretty(&cx).expect("serializes");
        let back: Counterexample = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, cx);
        assert_eq!(back.steps().len(), cx.choices.len());
        let verdicts = back.replay().expect("replays the recorded execution");
        assert!(verdicts.iter().any(|o| o.name == "ac1_agreement" && !o.pass), "{verdicts:?}");
    }
}
