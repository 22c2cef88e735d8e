//! A site of the distributed transaction system: coordinator (master)
//! or cohort, running 2PC or 3PC over the simulator, with the
//! termination, election, snapshot, decision-making, and recovery
//! building blocks wired in (Figure 3.3).

use crate::decision::{termination_decision, GlobalState};
use crate::msg::{CrashPoint, LocalState, Msg, Protocol};
use mcv_sim::{Ctx, ProcId, Process, SimTime, TimerToken};
use mcv_trace::EventKind;
use mcv_txn::{Item, SiteDb, TxnId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Timer phases multiplexed into a token with the transaction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WorkDone = 0,
    Votes = 1,
    PrepareWait = 2,
    CommitWait = 3,
    AckWait = 4,
    Election = 5,
    BackupWait = 6,
    BlockedProbe = 7,
    DecisionReqWait = 8,
    VoteReqWait = 9,
}

fn token(txn: TxnId, phase: Phase) -> TimerToken {
    txn.0 * 16 + phase as u64
}

fn untoken(t: TimerToken) -> (TxnId, u64) {
    (TxnId(t / 16), t % 16)
}

/// The work a transaction performs at each cohort.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TxnPlan {
    /// The transaction id.
    pub txn: TxnId,
    /// Per-cohort writes: `(cohort, [(item, value)])`.
    pub writes: Vec<(ProcId, Vec<(Item, Value)>)>,
}

/// Per-site configuration.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Which protocol everyone runs.
    pub protocol: Protocol,
    /// The initially assigned coordinator.
    pub coordinator: ProcId,
    /// Per-phase timeout in ticks (> 2δ per the thesis' failure model).
    pub timeout: u64,
    /// Fault injection point for *this* site.
    pub crash_at: Option<CrashPoint>,
    /// This cohort votes no.
    pub vote_no: bool,
    /// Transactions to run (coordinator only).
    pub plans: Vec<TxnPlan>,
    /// Use the naive Figure 3.2 timeout transitions (w2→abort, p2→commit
    /// independently) instead of the election + termination protocol.
    /// Safe for a single cohort, demonstrably unsafe for several.
    pub naive_timeouts: bool,
    /// Quorum-based termination (the partition-tolerant extension the
    /// thesis leaves to future work): the elected backup decides only
    /// with state reports from a strict majority of all sites; minority
    /// partitions stay blocked until they can reach a quorum.
    pub quorum_termination: bool,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            protocol: Protocol::ThreePhase,
            coordinator: ProcId(0),
            timeout: 50,
            crash_at: None,
            vote_no: false,
            plans: Vec::new(),
            naive_timeouts: false,
            quorum_termination: false,
        }
    }
}

/// Volatile per-transaction protocol state.
#[derive(Debug, Clone, Default, Hash)]
struct TxnState {
    state: Option<LocalState>,
    work_ok: bool,
    workdone: BTreeSet<ProcId>,
    work_failed: bool,
    votes: BTreeSet<ProcId>,
    acks: BTreeSet<ProcId>,
    election_running: bool,
    is_backup: bool,
    prepare_retried: bool,
    collected: GlobalState,
}

/// The transactional storage a [`Site`] drives: what the commit FSM
/// needs from its local database, and nothing more. [`SiteDb`] (the
/// simulator's WAL-backed store) implements it, and so does
/// `mcv-dist`'s adapter over a live `mcv-engine` shard — the same FSM
/// then governs a genuinely concurrent engine.
///
/// `commit`/`abort` return `Err` when the transaction is not active
/// (e.g. resumed after a crash); the site falls back to
/// [`LocalStore::resolve`], which settles an in-doubt transaction from
/// stable storage.
// `Err(())` carries no payload by design: the FSM reacts identically
// to every failure (vote no / fall back to `resolve`), and the stores'
// own error types differ.
#[allow(clippy::result_unit_err)]
pub trait LocalStore {
    /// Starts `txn` locally.
    fn begin(&mut self, txn: TxnId);
    /// Applies one write of `txn`; `Err` means the work failed and the
    /// site must vote no.
    fn write(&mut self, txn: TxnId, item: &str, value: Value) -> Result<(), ()>;
    /// Durably commits an active `txn`.
    fn commit(&mut self, txn: TxnId) -> Result<(), ()>;
    /// Rolls back an active `txn`.
    fn abort(&mut self, txn: TxnId) -> Result<(), ()>;
    /// Settles an in-doubt `txn` (post-recovery decision application).
    fn resolve(&mut self, txn: TxnId, commit: bool);
    /// Loses volatile state (site crash).
    fn crash(&mut self);
    /// Restarts from stable storage.
    fn recover(&mut self);
    /// Completes any buffered durability work (batched commit forces).
    /// Stores that commit synchronously need not override; `mcv-dist`'s
    /// pipelined engine adapter stages commit records here and forces
    /// them once per delivery batch.
    fn flush(&mut self) {}
}

impl LocalStore for SiteDb {
    fn begin(&mut self, txn: TxnId) {
        SiteDb::begin(self, txn);
    }
    fn write(&mut self, txn: TxnId, item: &str, value: Value) -> Result<(), ()> {
        SiteDb::write(self, txn, item, value).map_err(|_| ())
    }
    fn commit(&mut self, txn: TxnId) -> Result<(), ()> {
        SiteDb::commit(self, txn).map_err(|_| ())
    }
    fn abort(&mut self, txn: TxnId) -> Result<(), ()> {
        SiteDb::abort(self, txn).map_err(|_| ())
    }
    fn resolve(&mut self, txn: TxnId, commit: bool) {
        SiteDb::resolve(self, txn, commit);
    }
    fn crash(&mut self) {
        SiteDb::crash(self);
    }
    fn recover(&mut self) {
        SiteDb::recover(self);
    }
}

/// A site process: one of the networked participants of Figure 3.3.
/// Generic over its [`LocalStore`]; defaults to the simulator's
/// [`SiteDb`] so existing call sites are unchanged.
#[derive(Debug, Clone)]
pub struct Site<S = SiteDb> {
    cfg: SiteConfig,
    /// The site's transactional database (stable + volatile halves).
    pub db: S,
    /// Stable protocol-state log (assumption 4: logging on stable
    /// storage). Survives crashes.
    stable_state: BTreeMap<TxnId, LocalState>,
    /// Volatile per-transaction state. Wiped on crash.
    tstate: BTreeMap<TxnId, TxnState>,
}

impl Site<SiteDb> {
    /// A new site with the given configuration.
    pub fn new(cfg: SiteConfig) -> Self {
        Site::with_store(cfg, SiteDb::new())
    }
}

impl<S: LocalStore> Site<S> {
    /// A new site driving an arbitrary [`LocalStore`].
    pub fn with_store(cfg: SiteConfig, store: S) -> Self {
        Site { cfg, db: store, stable_state: BTreeMap::new(), tstate: BTreeMap::new() }
    }

    /// This site's current protocol state for `txn`.
    pub fn local_state(&self, txn: TxnId) -> Option<LocalState> {
        self.tstate.get(&txn).and_then(|t| t.state).or_else(|| self.stable_state.get(&txn).copied())
    }

    /// The site's configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.cfg
    }

    fn is_coordinator(&self, ctx: &Ctx<Msg>) -> bool {
        ctx.id() == self.cfg.coordinator
    }

    fn cohorts(&self, ctx: &Ctx<Msg>) -> Vec<ProcId> {
        (0..ctx.n_procs()).map(ProcId).filter(|p| *p != self.cfg.coordinator).collect()
    }

    fn set_state(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId, s: LocalState) {
        self.tstate.entry(txn).or_default().state = Some(s);
        self.stable_state.insert(txn, s);
        ctx.record(EventKind::State { txn: txn.0, state: s.to_string() });
    }

    fn decide(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId, commit: bool) {
        let final_state = if commit { LocalState::Committed } else { LocalState::Aborted };
        if self.local_state(txn).is_some_and(|s| s.is_final()) {
            return;
        }
        // Apply to the database: commit/abort active work, or resolve
        // an in-doubt transaction after recovery.
        if commit {
            if self.db.commit(txn).is_err() {
                self.db.resolve(txn, true);
            }
        } else if self.db.abort(txn).is_err() {
            self.db.resolve(txn, false);
        }
        self.set_state(ctx, txn, final_state);
        ctx.record(if commit {
            EventKind::Commit { txn: txn.0 }
        } else {
            EventKind::Abort { txn: txn.0 }
        });
        // Decisions cancel all pending timers of this transaction.
        for phase in [
            Phase::WorkDone,
            Phase::Votes,
            Phase::PrepareWait,
            Phase::CommitWait,
            Phase::AckWait,
            Phase::Election,
            Phase::BackupWait,
            Phase::BlockedProbe,
            Phase::DecisionReqWait,
            Phase::VoteReqWait,
        ] {
            ctx.cancel_timer(token(txn, phase));
        }
    }

    fn broadcast_decision(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId, commit: bool) {
        let msg = if commit { Msg::Commit { txn } } else { Msg::Abort { txn } };
        ctx.broadcast(msg);
        self.decide(ctx, txn, commit);
    }

    fn timeout(&self) -> SimTime {
        SimTime::from_ticks(self.cfg.timeout)
    }

    fn maybe_crash(&mut self, ctx: &mut Ctx<Msg>, here: CrashPoint) {
        if self.cfg.crash_at == Some(here) {
            ctx.note(format!("crashing at {here:?}"));
            ctx.crash_self();
        }
    }

    fn start_election(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId) {
        let me = ctx.id();
        let t = self.tstate.entry(txn).or_default();
        if t.election_running || t.state.is_some_and(|s| s.is_final()) {
            return;
        }
        t.election_running = true;
        ctx.note(format!("election {txn} candidate {me}"));
        // Bully with lowest-id-wins: challenge all lower-id sites except
        // the failed coordinator.
        let lower: Vec<ProcId> =
            (0..me.0).map(ProcId).filter(|p| *p != self.cfg.coordinator).collect();
        if lower.is_empty() {
            // Nobody outranks us: declare immediately.
            self.become_backup(ctx, txn);
        } else {
            for p in lower {
                ctx.send(p, Msg::Election { txn, candidate: me });
            }
            ctx.set_timer(self.timeout(), token(txn, Phase::Election));
        }
    }

    fn become_backup(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId) {
        let me = ctx.id();
        ctx.note(format!("backup-coordinator {txn} {me}"));
        let t = self.tstate.entry(txn).or_default();
        t.is_backup = true;
        t.collected = GlobalState::new();
        if let Some(s) = self.local_state(txn) {
            let t = self.tstate.entry(txn).or_default();
            t.collected.record(me, s);
        }
        ctx.broadcast(Msg::Coordinator { txn, elected: me });
        ctx.broadcast(Msg::StateReq { txn });
        ctx.set_timer(self.timeout(), token(txn, Phase::BackupWait));
        self.maybe_crash(ctx, CrashPoint::AsBackupAfterAnnounce);
    }

    fn finish_termination(&mut self, ctx: &mut Ctx<Msg>, txn: TxnId) {
        let quorum = ctx.n_procs() / 2 + 1;
        let t = self.tstate.entry(txn).or_default();
        if !t.is_backup {
            return;
        }
        if self.cfg.quorum_termination && t.collected.len() < quorum {
            // Not enough of the system is reachable: stay blocked, keep
            // collecting (the price of partition tolerance).
            ctx.note(format!(
                "termination {txn} deferred: {}/{} states < quorum {quorum}",
                t.collected.len(),
                ctx.n_procs()
            ));
            ctx.broadcast(Msg::StateReq { txn });
            ctx.set_timer(self.timeout(), token(txn, Phase::BackupWait));
            return;
        }
        t.is_backup = false;
        let decision = termination_decision(&t.collected);
        let vector = t.collected.to_string();
        ctx.note(format!(
            "termination {txn} vector {vector} -> {}",
            if decision { "commit" } else { "abort" }
        ));
        self.broadcast_decision(ctx, txn, decision);
    }

    /// Asks every other site for the outcome of `txn`, again on each
    /// timeout until one answers.
    fn ask_decision(&self, ctx: &mut Ctx<Msg>, txn: TxnId) {
        ctx.broadcast(Msg::DecisionReq { txn });
        ctx.set_timer(self.timeout(), token(txn, Phase::DecisionReqWait));
    }

    /// Sends `to` this site's decision on `txn`; `false` if undecided.
    fn tell_decision(&self, ctx: &mut Ctx<Msg>, to: ProcId, txn: TxnId) -> bool {
        let decided = self.local_state(txn).filter(|s| s.is_final());
        if let Some(s) = decided {
            ctx.send(to, Msg::DecisionResp { txn, commit: s == LocalState::Committed });
        }
        decided.is_some()
    }

    // ----- coordinator handlers -----

    fn coord_start(&mut self, ctx: &mut Ctx<Msg>) {
        for plan in self.cfg.plans.clone() {
            self.submit_plan(ctx, plan);
        }
    }

    /// Starts one transaction plan at the coordinator: begin locally,
    /// dispatch the work to every cohort, arm the work-done timer.
    ///
    /// At startup the coordinator drives every configured plan through
    /// this; the multi-shot dist runtime also pumps plans in while
    /// earlier transactions are still in flight, keeping a window of
    /// concurrent transactions moving through the same FSM.
    pub fn submit_plan(&mut self, ctx: &mut Ctx<Msg>, plan: TxnPlan) {
        let txn = plan.txn;
        self.db.begin(txn);
        self.set_state(ctx, txn, LocalState::Initial);
        for (cohort, writes) in &plan.writes {
            ctx.send(*cohort, Msg::StartWork { txn, writes: writes.clone() });
        }
        ctx.set_timer(self.timeout(), token(txn, Phase::WorkDone));
    }

    fn coord_on_workdone(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, txn: TxnId, ok: bool) {
        let n_cohorts = self.cohorts(ctx).len();
        // The stable state counts too: a late WorkDone must not reopen a
        // transaction the coordinator decided before a crash (the edge
        // a1 → w1, found by the state-space explorer).
        if self.local_state(txn).is_some_and(|s| s != LocalState::Initial) {
            return;
        }
        let t = self.tstate.entry(txn).or_default();
        if !ok {
            t.work_failed = true;
        }
        t.workdone.insert(from);
        let all = t.workdone.len() == n_cohorts;
        let failed = t.work_failed;
        if all {
            ctx.cancel_timer(token(txn, Phase::WorkDone));
            if failed {
                self.broadcast_decision(ctx, txn, false);
            } else {
                // Commit request: phase 1.
                for c in self.cohorts(ctx) {
                    ctx.send(c, Msg::VoteReq { txn });
                }
                self.set_state(ctx, txn, LocalState::Wait);
                ctx.set_timer(self.timeout(), token(txn, Phase::Votes));
                self.maybe_crash(ctx, CrashPoint::AfterVoteReq);
            }
        }
    }

    fn coord_on_vote(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, txn: TxnId, yes: bool) {
        let n_cohorts = self.cohorts(ctx).len();
        if self.local_state(txn).is_some_and(|s| s.is_final()) {
            return;
        }
        if !yes {
            ctx.cancel_timer(token(txn, Phase::Votes));
            self.broadcast_decision(ctx, txn, false);
            return;
        }
        let t = self.tstate.entry(txn).or_default();
        t.votes.insert(from);
        if t.votes.len() == n_cohorts {
            ctx.cancel_timer(token(txn, Phase::Votes));
            self.maybe_crash(ctx, CrashPoint::AfterVotes);
            if self.cfg.crash_at == Some(CrashPoint::AfterVotes) {
                return; // crashed before releasing any decision
            }
            match self.cfg.protocol {
                Protocol::TwoPhase => {
                    // Decide commit directly (no prepared buffer state).
                    self.broadcast_decision(ctx, txn, true);
                }
                Protocol::ThreePhase => {
                    let cohorts = self.cohorts(ctx);
                    if self.cfg.crash_at == Some(CrashPoint::AfterPartialPrepare) {
                        // Send prepare to the first cohort only, then die:
                        // the asymmetric-knowledge window.
                        if let Some(first) = cohorts.first() {
                            ctx.send(*first, Msg::Prepare { txn });
                        }
                        self.set_state(ctx, txn, LocalState::Prepared);
                        ctx.note("crashing at AfterPartialPrepare".to_string());
                        ctx.crash_self();
                        return;
                    }
                    for c in cohorts {
                        ctx.send(c, Msg::Prepare { txn });
                    }
                    self.set_state(ctx, txn, LocalState::Prepared);
                    ctx.set_timer(self.timeout(), token(txn, Phase::AckWait));
                    self.maybe_crash(ctx, CrashPoint::AfterPrepare);
                }
            }
        }
    }

    fn coord_on_ack(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, txn: TxnId) {
        let n_cohorts = self.cohorts(ctx).len();
        if self.local_state(txn).is_some_and(|s| s.is_final()) {
            return;
        }
        let t = self.tstate.entry(txn).or_default();
        t.acks.insert(from);
        if t.acks.len() == n_cohorts {
            ctx.cancel_timer(token(txn, Phase::AckWait));
            self.broadcast_decision(ctx, txn, true);
        }
    }

    // ----- cohort handlers -----

    fn cohort_on_startwork(
        &mut self,
        ctx: &mut Ctx<Msg>,
        master: ProcId,
        txn: TxnId,
        writes: Vec<(Item, Value)>,
    ) {
        // A duplicated or reordered StartWork must not rewind protocol
        // state: just re-acknowledge.
        if self.local_state(txn).is_some() {
            let ok = self.tstate.entry(txn).or_default().work_ok;
            ctx.send(master, Msg::WorkDone { txn, ok });
            return;
        }
        self.db.begin(txn);
        self.set_state(ctx, txn, LocalState::Initial);
        let mut ok = true;
        for (item, value) in &writes {
            if self.db.write(txn, item, *value).is_err() {
                ok = false;
                break;
            }
        }
        let t = self.tstate.entry(txn).or_default();
        t.work_ok = ok;
        ctx.send(master, Msg::WorkDone { txn, ok });
        // The thesis' q state times out too: a cohort that never hears
        // a vote request may abort unilaterally — nobody can commit
        // without its yes vote.
        ctx.set_timer(self.timeout(), token(txn, Phase::VoteReqWait));
    }

    fn cohort_on_votereq(&mut self, ctx: &mut Ctx<Msg>, coord: ProcId, txn: TxnId) {
        match self.local_state(txn) {
            // Already aborted (e.g. the q-state timeout fired before a
            // delayed vote request arrived): repeat the no vote.
            Some(LocalState::Aborted) => {
                ctx.send(coord, Msg::VoteNo { txn });
                return;
            }
            Some(LocalState::Committed) => return,
            // Duplicate vote request: repeat the yes vote without
            // rewinding Prepared back to Wait.
            Some(LocalState::Wait) | Some(LocalState::Prepared) => {
                ctx.send(coord, Msg::VoteYes { txn });
                return;
            }
            _ => {}
        }
        ctx.cancel_timer(token(txn, Phase::VoteReqWait));
        if self.cfg.vote_no || !self.tstate.entry(txn).or_default().work_ok {
            ctx.send(coord, Msg::VoteNo { txn });
            self.decide(ctx, txn, false);
            return;
        }
        ctx.send(coord, Msg::VoteYes { txn });
        self.set_state(ctx, txn, LocalState::Wait);
        self.maybe_crash(ctx, CrashPoint::AfterVoteYes);
        let phase = match self.cfg.protocol {
            Protocol::ThreePhase => Phase::PrepareWait,
            Protocol::TwoPhase => Phase::CommitWait,
        };
        ctx.set_timer(self.timeout(), token(txn, phase));
    }

    fn cohort_on_prepare(&mut self, ctx: &mut Ctx<Msg>, coord: ProcId, txn: TxnId) {
        if self.local_state(txn).is_some_and(|s| s.is_final()) {
            return;
        }
        ctx.cancel_timer(token(txn, Phase::PrepareWait));
        self.set_state(ctx, txn, LocalState::Prepared);
        ctx.send(coord, Msg::PrepareAck { txn });
        ctx.set_timer(self.timeout(), token(txn, Phase::CommitWait));
    }

    // ----- shared handlers -----

    fn on_state_req(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, txn: TxnId) {
        if let Some(s) = self.local_state(txn) {
            ctx.send(from, Msg::StateResp { txn, state: s });
        }
    }

    fn on_state_resp(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, txn: TxnId, s: LocalState) {
        let n = ctx.n_procs();
        let t = self.tstate.entry(txn).or_default();
        if !t.is_backup {
            return;
        }
        t.collected.record(from, s);
        // Finish early only once *every* site has reported. Cutting the
        // wait at n-1 ("everyone but the failed coordinator") decided
        // from an all-Wait vector while a merely-slowed coordinator was
        // still prepared — split brain, found by the chaos campaign's
        // agreement oracle. If some site really is down, the BackupWait
        // timeout path finishes from whatever was collected.
        if t.collected.len() >= n {
            ctx.cancel_timer(token(txn, Phase::BackupWait));
            self.finish_termination(ctx, txn);
        }
    }
}

/// The state digest: the protocol state, stable and volatile. The
/// configuration is fixed for a run and the database follows from the
/// protocol state, so neither counts.
impl<S> std::hash::Hash for Site<S> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.stable_state.hash(state);
        self.tstate.hash(state);
    }
}

impl<S: LocalStore> Process<Msg> for Site<S> {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if self.is_coordinator(ctx) {
            self.coord_start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ProcId, msg: Msg) {
        let txn = msg.txn();
        match msg {
            Msg::StartWork { writes, .. } => self.cohort_on_startwork(ctx, from, txn, writes),
            Msg::WorkDone { ok, .. } => self.coord_on_workdone(ctx, from, txn, ok),
            Msg::VoteReq { .. } => self.cohort_on_votereq(ctx, from, txn),
            Msg::VoteYes { .. } => self.coord_on_vote(ctx, from, txn, true),
            Msg::VoteNo { .. } => self.coord_on_vote(ctx, from, txn, false),
            Msg::Prepare { .. } => self.cohort_on_prepare(ctx, from, txn),
            Msg::PrepareAck { .. } => self.coord_on_ack(ctx, from, txn),
            Msg::Commit { .. } => self.decide(ctx, txn, true),
            Msg::Abort { .. } => self.decide(ctx, txn, false),
            Msg::Election { candidate, .. } => {
                // Already decided: no election needed — hand the
                // decision straight to the candidate. (Without this, a
                // decided low-id site keeps vetoing the challenger's
                // elections without ever announcing anything, and the
                // undecided site livelocks; found by the chaos
                // campaign's termination oracle.)
                if self.tell_decision(ctx, from, txn) {
                    return;
                }
                // Lowest id wins: veto and run our own election.
                if ctx.id().0 < candidate.0 {
                    ctx.send(from, Msg::ElectionAck { txn });
                    self.start_election(ctx, txn);
                }
            }
            Msg::ElectionAck { .. } => {
                // Someone lower is alive; await their announcement.
                ctx.cancel_timer(token(txn, Phase::Election));
                ctx.set_timer(self.timeout(), token(txn, Phase::BackupWait));
            }
            Msg::Coordinator { elected, .. } => {
                ctx.cancel_timer(token(txn, Phase::Election));
                ctx.cancel_timer(token(txn, Phase::BackupWait));
                ctx.note(format!("accept-backup {txn} {elected}"));
                // Watchdog: if the backup dies before releasing a
                // decision, re-run the election.
                ctx.set_timer(self.timeout(), token(txn, Phase::BackupWait));
            }
            Msg::StateReq { .. } => self.on_state_req(ctx, from, txn),
            Msg::StateResp { state, .. } => self.on_state_resp(ctx, from, txn, state),
            Msg::DecisionReq { .. } => _ = self.tell_decision(ctx, from, txn),
            Msg::DecisionResp { commit, .. } => {
                if !self.local_state(txn).is_some_and(|s| s.is_final()) {
                    ctx.cancel_timer(token(txn, Phase::DecisionReqWait));
                    self.decide(ctx, txn, commit);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, t: TimerToken) {
        let (txn, phase) = untoken(t);
        if self.local_state(txn).is_some_and(|s| s.is_final()) {
            return;
        }
        match phase {
            x if x == Phase::WorkDone as u64 => {
                // Some cohort never finished its work: abort.
                self.broadcast_decision(ctx, txn, false);
            }
            x if x == Phase::Votes as u64 => {
                // Missing votes: abort (first-phase timeout transition).
                self.broadcast_decision(ctx, txn, false);
            }
            x if x == Phase::AckWait as u64 => {
                // Coordinator in p1 missing acks. The thesis' Figure 3.2
                // aborts here; standard 3PC commits, because under the
                // reliable-network assumption a missing ack can only mean
                // a crashed cohort, and crashed cohorts learn the outcome
                // on recovery. Under message loss the silent cohorts may
                // be live but unprepared, and a unilateral commit races
                // their termination protocol into split brain (found by
                // the chaos campaign's agreement oracle). In quorum mode,
                // re-send the possibly-lost prepares once, then fall back
                // to quorum termination — as the lowest id, the
                // coordinator wins any concurrent election, and its own
                // prepared state keeps the commit reachable.
                if self.cfg.quorum_termination {
                    let retried = {
                        let t = self.tstate.entry(txn).or_default();
                        std::mem::replace(&mut t.prepare_retried, true)
                    };
                    if retried {
                        self.become_backup(ctx, txn);
                    } else {
                        let acks =
                            self.tstate.get(&txn).map(|t| t.acks.clone()).unwrap_or_default();
                        for c in self.cohorts(ctx) {
                            if !acks.contains(&c) {
                                ctx.send(c, Msg::Prepare { txn });
                            }
                        }
                        ctx.set_timer(self.timeout(), token(txn, Phase::AckWait));
                    }
                } else {
                    self.broadcast_decision(ctx, txn, true);
                }
            }
            x if x == Phase::PrepareWait as u64 => {
                // Cohort in w2, no prepare: coordinator failed.
                if self.cfg.naive_timeouts {
                    self.decide(ctx, txn, false); // Figure 3.2 timeout transition
                } else {
                    self.start_election(ctx, txn);
                }
            }
            x if x == Phase::CommitWait as u64 => {
                match self.cfg.protocol {
                    Protocol::ThreePhase => {
                        // Cohort in p2, no commit.
                        if self.cfg.naive_timeouts {
                            self.decide(ctx, txn, true); // Figure 3.2 timeout transition
                        } else {
                            self.start_election(ctx, txn);
                        }
                    }
                    Protocol::TwoPhase => {
                        // Voted yes, no decision: BLOCKED. Hold locks and
                        // keep waiting — the defining 2PC weakness.
                        ctx.note(format!("blocked {txn}"));
                        ctx.set_timer(self.timeout(), token(txn, Phase::BlockedProbe));
                    }
                }
            }
            x if x == Phase::BlockedProbe as u64 => {
                // Still blocked; keep probing.
                ctx.set_timer(self.timeout(), token(txn, Phase::BlockedProbe));
            }
            x if x == Phase::Election as u64 => {
                // No lower-id site vetoed: we are the backup.
                self.become_backup(ctx, txn);
            }
            x if x == Phase::BackupWait as u64 => {
                let st = self.tstate.entry(txn).or_default();
                if st.is_backup {
                    // Not all states collected; decide from what we have.
                    self.finish_termination(ctx, txn);
                } else {
                    // The announced backup went silent; retry election.
                    st.election_running = false;
                    self.start_election(ctx, txn);
                }
            }
            x if x == Phase::VoteReqWait as u64
                // In q with no vote request in sight: unilateral abort
                // is safe — commit requires our yes vote, which we have
                // not cast.
                && self.local_state(txn) == Some(LocalState::Initial) =>
            {
                self.decide(ctx, txn, false);
            }
            x if x == Phase::DecisionReqWait as u64 => {
                // Nobody answered our decision request: apply the stable
                // failure transition (thesis: fail in w2 → abort; fail in
                // p → commit-side is resolved by peers, so default abort
                // only from w2/q).
                let quorum = self.cfg.quorum_termination;
                match self.stable_state.get(&txn).copied() {
                    Some(LocalState::Initial) => self.decide(ctx, txn, false),
                    Some(LocalState::Wait) if !quorum => self.decide(ctx, txn, false),
                    // A prepared site must not guess, nor under quorum
                    // termination may a yes-voter: its vote may have
                    // enabled a commit whose decision replies were lost
                    // (found by the chaos campaign's agreement oracle).
                    Some(LocalState::Wait | LocalState::Prepared) => self.ask_decision(ctx, txn),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // Volatile halves die; stable_state and the WAL survive.
        self.db.crash();
        self.tstate.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.note("recovering".to_string());
        self.db.recover();
        let pending: Vec<(TxnId, LocalState)> = self
            .stable_state
            .iter()
            .filter(|(_, s)| !s.is_final())
            .map(|(t, s)| (*t, *s))
            .collect();
        let coordinator = ctx.id() == self.cfg.coordinator;
        for (txn, s) in pending {
            match s {
                // Failure transitions of Figure 3.2: w1 → abort on
                // recovery; p1 → commit on recovery.
                LocalState::Initial | LocalState::Wait if coordinator => {
                    self.broadcast_decision(ctx, txn, false)
                }
                // Under quorum termination the cohorts may already have
                // terminated to abort by quorum while this coordinator
                // was down or cut off in p1: it asks, as a cohort does
                // (split brain found by the state-space explorer).
                LocalState::Prepared if coordinator && !self.cfg.quorum_termination => {
                    self.broadcast_decision(ctx, txn, true)
                }
                // Ask the others for the outcome first.
                _ => self.ask_decision(ctx, txn),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        let t = token(TxnId(5), Phase::AckWait);
        let (txn, phase) = untoken(t);
        assert_eq!(txn, TxnId(5));
        assert_eq!(phase, Phase::AckWait as u64);
    }

    #[test]
    fn default_config_is_3pc_with_election() {
        let c = SiteConfig::default();
        assert_eq!(c.protocol, Protocol::ThreePhase);
        assert!(!c.naive_timeouts);
    }
}
