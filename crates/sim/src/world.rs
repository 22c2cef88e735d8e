//! The simulation world: deterministic discrete-event execution of a
//! set of processes over the link core, with scheduled faults.

use crate::net::{Fate, FaultEvent, LinkCore};
use crate::process::{Ctx, Process, TimerToken};
use crate::time::{ProcId, SimTime};
use crate::trace::Trace;
use mcv_trace::{Cause, EventKind};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

type LiveTimers = std::collections::BTreeSet<(ProcId, TimerToken, u64)>;

/// World configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Hop delays are uniform in `1..=delay_ticks` ticks: the thesis'
    /// delay bound δ.
    pub delay_ticks: u64,
    /// RNG seed: equal seeds give identical executions.
    pub seed: u64,
    /// Hard cap on processed events (runaway guard).
    pub max_events: u64,
    /// Per-process clock drift rates ρ (the thesis' assumption 12:
    /// local clocks run at `(1+ρ)` real speed; timeouts must be scaled
    /// by the worst drift). Missing entries default to 0.
    pub drift: Vec<f64>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { delay_ticks: 5, seed: 0, max_events: 1_000_000, drift: Vec::new() }
    }
}

/// Causal-trace payload carried by an in-flight message: the `Send`
/// event's cause token and the message label, present only when a
/// trace sink was active at send time.
type SendTag = Option<(Cause, String)>;

/// A scheduled world event, due at its `Event::time`.
#[derive(Debug, Clone)]
enum Due<M> {
    Start(ProcId),
    Deliver { from: ProcId, to: ProcId, msg: M, sent: SendTag, at: SimTime },
    Timer { proc: ProcId, token: TimerToken, tid: u64, set: Option<Cause> },
    Crash(ProcId),
    Recover(ProcId),
}

#[derive(Debug, Clone)]
struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: Due<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An event a scheduler may run now: see [`World::choices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The event's identity in the queue.
    pub seq: u64,
    /// The process it happens to.
    pub proc: ProcId,
}

/// Summary statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Events processed.
    pub events: u64,
    /// Messages submitted to the network.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped in total (partition, scheduled drop window, or
    /// dead receiver) — always the sum of the attributed counters below
    /// plus dead-receiver drops.
    pub messages_dropped: u64,
    /// Messages dropped by an active partition cut.
    pub dropped_by_partition: u64,
    /// Messages dropped by a scheduled per-link drop window.
    pub dropped_by_window: u64,
    /// Extra copies delivered due to a scheduled dup window.
    pub messages_duplicated: u64,
    /// Timers that actually fired (cancelled/crashed timers excluded).
    pub timer_fires: u64,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Whether a process called [`Ctx::stop_world`].
    pub stopped_early: bool,
    /// Whether [`WorldConfig::max_events`] ended the run with events
    /// still queued: the run was cut, not quiescent.
    pub hit_event_cap: bool,
}

/// A deterministic discrete-event world of processes of type `P`
/// exchanging messages of type `M`.
///
/// # Examples
///
/// ```
/// use mcv_sim::{World, WorldConfig, Process, Ctx, ProcId, SimTime};
///
/// #[derive(Default)]
/// struct Echo { got: Option<&'static str> }
/// impl Process<&'static str> for Echo {
///     fn on_start(&mut self, ctx: &mut Ctx<&'static str>) {
///         if ctx.id() == ProcId(0) { ctx.send(ProcId(1), "ping"); }
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<&'static str>, _from: ProcId, msg: &'static str) {
///         self.got = Some(msg);
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx<&'static str>, _t: u64) {}
/// }
///
/// let mut w = World::new(WorldConfig::default());
/// w.add_process(Echo::default());
/// w.add_process(Echo::default());
/// w.run();
/// assert_eq!(w.process(ProcId(1)).got, Some("ping"));
/// ```
#[derive(Clone)]
pub struct World<M, P> {
    procs: Vec<P>,
    up: Vec<bool>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    seq: u64,
    tid: u64,
    time: SimTime,
    net: LinkCore,
    config: WorldConfig,
    live_timers: LiveTimers,
    stats: RunStats,
    trace: Trace,
    deliver_seq: Vec<u64>,
    started: bool,
}

impl<M: Clone + std::fmt::Debug, P: Process<M>> World<M, P> {
    /// A new world.
    pub fn new(config: WorldConfig) -> Self {
        World {
            procs: Vec::new(),
            up: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            tid: 0,
            time: SimTime::ZERO,
            net: LinkCore::new(1, config.delay_ticks, 0, config.seed),
            config,
            live_timers: Default::default(),
            stats: RunStats::default(),
            trace: Trace::new(),
            deliver_seq: Vec::new(),
            started: false,
        }
    }

    /// Adds a process; returns its id.
    pub fn add_process(&mut self, p: P) -> ProcId {
        let id = ProcId(self.procs.len());
        self.procs.push(p);
        self.up.push(true);
        self.deliver_seq.push(0);
        id
    }

    /// Immutable access to a process (for post-run inspection).
    pub fn process(&self, id: ProcId) -> &P {
        &self.procs[id.0]
    }

    /// Mutable access to a process (for test setup).
    pub fn process_mut(&mut self, id: ProcId) -> &mut P {
        &mut self.procs[id.0]
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// Whether `id` is currently operational.
    pub fn is_up(&self, id: ProcId) -> bool {
        self.up[id.0]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Schedules `ev`: a crash or recovery (a torn write is a crash
    /// here; tearing the log is the caller's business), or a window on
    /// the links. An event naming a process not added yet is inert, and
    /// `false` is returned.
    pub fn schedule(&mut self, ev: &FaultEvent) -> bool {
        if !ev.fits(self.procs.len()) {
            return false;
        }
        match ev.site_change() {
            Some((proc, at, up)) => {
                let due = if up { Due::Recover(ProcId(proc)) } else { Due::Crash(ProcId(proc)) };
                self.push(SimTime::from_ticks(at), due);
            }
            None => self.net.add_window(ev),
        }
        true
    }

    fn push(&mut self, time: SimTime, kind: Due<M>) {
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq: self.seq, kind }));
    }

    /// Records `kind` as observed by `proc` now, once for every view
    /// of the run: appended to the world trace and handed to the causal
    /// recorder (if one is installed) citing `cause`.
    fn record(&mut self, proc: ProcId, cause: Option<Cause>, kind: EventKind) -> Option<Cause> {
        let recorded = if mcv_trace::active() {
            mcv_trace::emit_caused(proc.0, self.time.ticks(), cause, kind.clone())
        } else {
            None
        };
        self.trace.push(self.time, proc, kind);
        recorded
    }

    fn apply_ctx(&mut self, id: ProcId, ctx: Ctx<M>) -> bool {
        let self_crash = ctx.crash;
        let tracing = mcv_trace::active();
        let context = mcv_trace::context();
        for kind in ctx.events {
            self.record(id, context, kind);
        }
        for (to, msg) in ctx.sends {
            self.stats.messages_sent += 1;
            mcv_obs::counter("sim.sent", 1);
            // The message label is only rendered when a sink is live.
            let label =
                if tracing { mcv_trace::label_of(&format!("{msg:?}")) } else { String::new() };
            let (first, dup) = match self.net.route(self.time.ticks(), id.0, to.0) {
                Fate::Due(first, dup) => (first, dup),
                lost => {
                    let (counter, count) = if lost == Fate::Cut {
                        ("sim.dropped_by_partition", &mut self.stats.dropped_by_partition)
                    } else {
                        ("sim.dropped_by_window", &mut self.stats.dropped_by_window)
                    };
                    *count += 1;
                    self.stats.messages_dropped += 1;
                    mcv_obs::counter("sim.dropped", 1);
                    mcv_obs::counter(counter, 1);
                    self.record(id, context, EventKind::Drop { from: id.0, to: to.0, label });
                    continue;
                }
            };
            if dup.is_some() {
                self.stats.messages_duplicated += 1;
                mcv_obs::counter("sim.duplicated", 1);
            }
            // One Send event per message; duplicated copies share it as
            // their causal antecedent.
            let sent = mcv_trace::emit(
                id.0,
                self.time.ticks(),
                EventKind::Send { to: to.0, label: label.clone() },
            )
            .map(|cause| (cause, label));
            for hop in [Some(first), dup].into_iter().flatten() {
                let at = self.time;
                let deliver =
                    Due::Deliver { from: id, to, msg: msg.clone(), sent: sent.clone(), at };
                self.push(SimTime::from_ticks(hop.due), deliver);
            }
        }
        // Cancels first: they target timers that existed *before* this
        // callback, so a timer re-armed with the same token in the same
        // callback survives.
        for token in ctx.cancels {
            self.live_timers.retain(|(p, t, _)| !(*p == id && *t == token));
        }
        for (delay, token) in ctx.timers {
            self.tid += 1;
            let tid = self.tid;
            self.live_timers.insert((id, token, tid));
            let set = mcv_trace::emit(id.0, self.time.ticks(), EventKind::TimerSet { token });
            self.push(self.time + delay, Due::Timer { proc: id, token, tid, set });
        }
        if self_crash {
            self.crash(id, context);
        }
        ctx.stop
    }

    /// Crashes `id` if it is up, recording the crash citing `cause`; its
    /// pending timers die with it.
    fn crash(&mut self, id: ProcId, cause: Option<Cause>) {
        if self.up[id.0] {
            self.up[id.0] = false;
            self.record(id, cause, EventKind::Crash);
            self.procs[id.0].on_crash();
            self.live_timers.retain(|(p, _, _)| *p != id);
        }
    }

    /// Processes a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if !self.started {
            self.started = true;
            for i in 0..self.procs.len() {
                self.push(SimTime::ZERO, Due::Start(ProcId(i)));
            }
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        self.run_event(ev)
    }

    /// Runs one dequeued event at its `time`; `false` when the run
    /// must end (a stop request or the event cap).
    fn run_event(&mut self, ev: Event<M>) -> bool {
        self.time = ev.time;
        self.stats.events += 1;
        mcv_obs::counter("sim.events", 1);
        self.stats.end_time = self.time;
        let stop = match ev.kind {
            Due::Start(id) => {
                let mut ctx = self.ctx(id);
                self.procs[id.0].on_start(&mut ctx);
                self.apply_ctx(id, ctx)
            }
            Due::Deliver { from, to, msg, sent, .. } => {
                if !self.up[to.0] {
                    self.stats.messages_dropped += 1;
                    mcv_obs::counter("sim.dropped", 1);
                    let (cause, label) = sent.map(|(c, l)| (Some(c), l)).unwrap_or_default();
                    self.record(to, cause, EventKind::Drop { from: from.0, to: to.0, label });
                    false
                } else {
                    self.stats.messages_delivered += 1;
                    mcv_obs::counter("sim.delivered", 1);
                    self.deliver_seq[to.0] += 1;
                    let seq = self.deliver_seq[to.0];
                    let (cause, label) = sent.map(|(c, l)| (Some(c), l)).unwrap_or_default();
                    let delivered = self.record(
                        to,
                        cause,
                        EventKind::Deliver { from: from.0, label, deliver_seq: seq },
                    );
                    let prev = mcv_trace::set_context(delivered);
                    let mut ctx = self.ctx(to);
                    self.procs[to.0].on_message(&mut ctx, from, msg);
                    let stop = self.apply_ctx(to, ctx);
                    mcv_trace::set_context(prev);
                    stop
                }
            }
            Due::Timer { proc, token, tid, set } => {
                if self.up[proc.0] && self.live_timers.remove(&(proc, token, tid)) {
                    self.stats.timer_fires += 1;
                    mcv_obs::counter("sim.timer_fires", 1);
                    let fired = self.record(proc, set, EventKind::TimerFire { token });
                    let prev = mcv_trace::set_context(fired);
                    let mut ctx = self.ctx(proc);
                    self.procs[proc.0].on_timer(&mut ctx, token);
                    let stop = self.apply_ctx(proc, ctx);
                    mcv_trace::set_context(prev);
                    stop
                } else {
                    false
                }
            }
            Due::Crash(id) => {
                self.crash(id, mcv_trace::context());
                false
            }
            Due::Recover(id) => self.recover(id),
        };
        if stop {
            self.stats.stopped_early = true;
            return false;
        }
        if self.stats.events >= self.config.max_events {
            self.stats.hit_event_cap = !self.queue.is_empty();
            return false;
        }
        true
    }

    /// A fresh callback context for `id` now, its local clock drifted
    /// by the process's ρ.
    fn ctx(&self, id: ProcId) -> Ctx<M> {
        let drift = self.config.drift.get(id.0).copied().unwrap_or(0.0);
        let local = SimTime::from_ticks((self.time.ticks() as f64 * (1.0 + drift)).round() as u64);
        Ctx::new(id, self.procs.len(), self.time).with_local(local)
    }

    /// Recovers `id` if it is down; `true` if it asked to stop the run.
    fn recover(&mut self, id: ProcId) -> bool {
        if self.up[id.0] {
            return false;
        }
        self.up[id.0] = true;
        let recovered = self.record(id, mcv_trace::context(), EventKind::Recover);
        let prev = mcv_trace::set_context(recovered);
        let mut ctx = self.ctx(id);
        self.procs[id.0].on_recover(&mut ctx);
        let stop = self.apply_ctx(id, ctx);
        mcv_trace::set_context(prev);
        stop
    }

    /// The scheduler hook, with hops of `1..=delta` ticks (FIFO per
    /// link) and timers, crashes and recoveries exactly when due: the
    /// events that may run now, in queue order, and the instant the
    /// clock may move to instead if none is due now (one tick on while
    /// a message is in flight, else the next due event). Call it once
    /// the processes started (`run_until(SimTime::ZERO)`).
    /// [`World::step`] is the seeded scheduler.
    pub fn choices(&mut self, delta: u64) -> (Vec<Pending>, Option<SimTime>) {
        debug_assert!(self.started, "start the processes first");
        let live = &self.live_timers;
        self.queue.retain(|Reverse(ev)| match ev.kind {
            Due::Timer { proc, token, tid, .. } => live.contains(&(proc, token, tid)),
            _ => true,
        });
        let mut events: Vec<&Event<M>> = self.queue.iter().map(|Reverse(ev)| ev).collect();
        events.sort_unstable_by_key(|ev| ev.seq);
        let now = self.time;
        let (mut runnable, mut links) = (Vec::new(), std::collections::BTreeSet::new());
        let mut wait = events.first().map(|_| SimTime::from_ticks(u64::MAX));
        for ev in events {
            let (earliest, latest, proc) = match ev.kind {
                Due::Deliver { from, to, at, .. } => {
                    wait = wait.map(|w| w.min(now + SimTime::from_ticks(1)));
                    if !links.insert((from, to)) {
                        continue; // an older message on the link lands first
                    }
                    (at + SimTime::from_ticks(1), at + SimTime::from_ticks(delta), to)
                }
                Due::Timer { proc, .. } => (ev.time, ev.time, proc),
                Due::Start(p) | Due::Crash(p) | Due::Recover(p) => (ev.time, ev.time, p),
            };
            if latest <= now {
                wait = None;
            } else if earliest > now {
                wait = wait.map(|w| w.min(earliest));
            }
            if earliest <= now {
                runnable.push(Pending { seq: ev.seq, proc });
            }
        }
        (runnable, wait)
    }

    /// Runs the event `seq` now; `false` when the run must end.
    pub fn run_pending(&mut self, seq: u64) -> bool {
        let mut events = std::mem::take(&mut self.queue).into_vec();
        let i = events.iter().position(|Reverse(ev)| ev.seq == seq).expect("a pending event");
        let Reverse(mut ev) = events.swap_remove(i);
        self.queue = events.into();
        ev.time = self.time;
        self.run_event(ev)
    }

    /// The pending event `seq` in a word: its message's kind,
    /// `timeout`, `crash`, `recovery` or `start`.
    pub fn label(&self, seq: u64) -> String {
        let ev = self.queue.iter().map(|Reverse(ev)| ev).find(|ev| ev.seq == seq);
        match ev.map(|ev| &ev.kind) {
            Some(Due::Deliver { msg, .. }) => mcv_trace::label_of(&format!("{msg:?}")),
            Some(Due::Timer { .. }) => "timeout".into(),
            Some(Due::Crash(_)) => "crash".into(),
            Some(Due::Recover(_)) => "recovery".into(),
            _ => "start".into(),
        }
    }

    /// Moves the clock to `until`, nothing happening meanwhile.
    pub fn wait(&mut self, until: SimTime) {
        self.time = self.time.max(until);
    }

    /// Applies `ev` now, not at its time: a crash or recovery at once, a
    /// window as dated. `false` (inert) if it names a missing process.
    pub fn inject(&mut self, ev: &FaultEvent) -> bool {
        if !ev.fits(self.procs.len()) {
            return false;
        }
        match ev.site_change() {
            Some((proc, _, false)) => self.crash(ProcId(proc), mcv_trace::context()),
            Some((proc, _, true)) => _ = self.recover(ProcId(proc)),
            None => self.net.add_window(ev),
        }
        true
    }

    /// Closes every link window still open now: partitions heal.
    pub fn heal(&mut self) {
        self.net.heal(self.time.ticks());
    }

    /// A digest of the state relative to now: the up flags, each
    /// process's `Hash`, and every pending event timed from now. It
    /// leaves out the clock and the links' dated windows, so equal
    /// digests offer the same futures only while no window opens or
    /// closes ahead (a caller that cuts links keys the cut itself).
    pub fn digest(&self) -> u64
    where
        M: Hash,
        P: Hash,
    {
        let mut events: Vec<&Event<M>> = self.queue.iter().map(|Reverse(ev)| ev).collect();
        events.sort_unstable_by_key(|ev| ev.seq);
        let mut ranks = std::collections::BTreeMap::new();
        let mut keys: Vec<u64> = Vec::with_capacity(events.len());
        for ev in events {
            let mut h = DefaultHasher::new();
            std::mem::discriminant(&ev.kind).hash(&mut h);
            let ahead = ev.time.saturating_sub(self.time);
            match &ev.kind {
                Due::Deliver { from, to, msg, at, .. } => {
                    let rank = ranks.entry((*from, *to)).or_insert(0u32);
                    *rank += 1;
                    (from, to, *rank, msg, self.time.saturating_sub(*at)).hash(&mut h);
                }
                Due::Timer { proc, token, tid, .. } => {
                    if !self.live_timers.contains(&(*proc, *token, *tid)) {
                        continue;
                    }
                    (proc, token, ahead).hash(&mut h);
                }
                Due::Start(p) | Due::Crash(p) | Due::Recover(p) => (p, ahead).hash(&mut h),
            }
            keys.push(h.finish());
        }
        keys.sort_unstable();
        let mut h = DefaultHasher::new();
        (&self.up, &self.procs, keys).hash(&mut h);
        h.finish()
    }

    /// Runs to quiescence (empty queue), stop request, or the event cap.
    pub fn run(&mut self) -> RunStats {
        while self.step() {}
        self.stats.clone()
    }

    /// Runs while events remain at or before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunStats {
        loop {
            if !self.started {
                if !self.step() {
                    break;
                }
                continue;
            }
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::CutKind;

    fn partition(side: Vec<usize>, cut: CutKind) -> FaultEvent {
        FaultEvent::Partition { side, cut, from: 0, until: 1_000 }
    }

    /// Floods its peer with `count` numbered messages on start.
    struct Flood {
        peer: ProcId,
        count: u64,
        received: Vec<u64>,
        timer_fired: bool,
    }

    impl Flood {
        fn new(peer: ProcId, count: u64) -> Self {
            Flood { peer, count, received: Vec::new(), timer_fired: false }
        }
    }

    impl Process<u64> for Flood {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            for i in 0..self.count {
                ctx.send(self.peer, i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: ProcId, msg: u64) {
            self.received.push(msg);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<u64>, _token: u64) {
            self.timer_fired = true;
        }
    }

    fn flood_world(seed: u64) -> World<u64, Flood> {
        let mut w = World::new(WorldConfig { seed, ..WorldConfig::default() });
        w.add_process(Flood::new(ProcId(1), 20));
        w.add_process(Flood::new(ProcId(0), 0));
        w
    }

    #[test]
    fn fifo_channels_preserve_send_order() {
        let mut w = flood_world(7);
        w.run();
        let got = &w.process(ProcId(1)).received;
        let expected: Vec<u64> = (0..20).collect();
        assert_eq!(got, &expected);
    }

    #[test]
    fn same_seed_same_execution() {
        let mut a = flood_world(3);
        let mut b = flood_world(3);
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa, sb);
        assert_eq!(a.process(ProcId(1)).received, b.process(ProcId(1)).received);
    }

    #[test]
    fn crash_drops_in_flight_messages() {
        let mut w = flood_world(5);
        w.schedule(&FaultEvent::Crash { proc: 1, at: 0 });
        let stats = w.run();
        assert_eq!(w.process(ProcId(1)).received.len(), 0);
        assert_eq!(stats.messages_dropped, 20);
    }

    #[test]
    fn recovery_restores_delivery() {
        struct LateSender {
            sent: bool,
            received: u32,
        }
        impl Process<u64> for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                if ctx.id() == ProcId(0) {
                    ctx.set_timer(SimTime::from_ticks(100), 1);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: ProcId, _msg: u64) {
                self.received += 1;
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u64>, _token: u64) {
                if !self.sent {
                    self.sent = true;
                    ctx.send(ProcId(1), 42);
                }
            }
        }
        let mut w: World<u64, LateSender> = World::new(WorldConfig::default());
        w.add_process(LateSender { sent: false, received: 0 });
        w.add_process(LateSender { sent: false, received: 0 });
        w.schedule(&FaultEvent::Crash { proc: 1, at: 1 });
        w.schedule(&FaultEvent::Recover { proc: 1, at: 50 });
        w.run();
        // Message sent at t=100, after recovery: delivered.
        assert_eq!(w.process(ProcId(1)).received, 1);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct T {
            late_fired: bool,
        }
        impl Process<u64> for T {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                ctx.set_timer(SimTime::from_ticks(10), 9);
                ctx.set_timer(SimTime::from_ticks(5), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<u64>, _: ProcId, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u64>, token: u64) {
                match token {
                    1 => ctx.cancel_timer(9),
                    _ => self.late_fired = true,
                }
            }
        }
        let mut w: World<u64, T> = World::new(WorldConfig::default());
        w.add_process(T { late_fired: false });
        w.run();
        assert!(!w.process(ProcId(0)).late_fired);
    }

    #[test]
    fn rearming_a_timer_in_the_cancelling_callback_survives() {
        // Cancels target pre-existing timers only: the watchdog pattern
        // `cancel_timer(t); set_timer(d, t)` keeps the new timer.
        struct T {
            fired: u32,
        }
        impl Process<u64> for T {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                ctx.set_timer(SimTime::from_ticks(5), 7);
            }
            fn on_message(&mut self, _: &mut Ctx<u64>, _: ProcId, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u64>, _token: u64) {
                self.fired += 1;
                if self.fired == 1 {
                    ctx.cancel_timer(7);
                    ctx.set_timer(SimTime::from_ticks(5), 7);
                }
            }
        }
        let mut w: World<u64, T> = World::new(WorldConfig::default());
        w.add_process(T { fired: 0 });
        w.run();
        assert_eq!(w.process(ProcId(0)).fired, 2);
    }

    #[test]
    fn partition_blocks_cross_traffic_during_window() {
        let mut w = flood_world(2);
        w.schedule(&partition(vec![0], CutKind::Both));
        let stats = w.run();
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.messages_dropped, 20);
        assert_eq!(stats.dropped_by_partition, 20);
        assert_eq!(stats.dropped_by_window, 0);
    }

    /// Two floods in opposite directions, used by the asymmetric tests.
    fn duplex_world(seed: u64) -> World<u64, Flood> {
        let mut w = World::new(WorldConfig { seed, ..WorldConfig::default() });
        w.add_process(Flood::new(ProcId(1), 10));
        w.add_process(Flood::new(ProcId(0), 10));
        w
    }

    #[test]
    fn one_way_partition_blocks_only_one_direction() {
        let mut w = duplex_world(3);
        w.schedule(&partition(vec![0], CutKind::Outbound));
        let stats = w.run();
        // p0 -> p1 cut; p1 -> p0 still flows.
        assert_eq!(w.process(ProcId(1)).received.len(), 0);
        assert_eq!(w.process(ProcId(0)).received.len(), 10);
        assert_eq!(stats.dropped_by_partition, 10);
        assert_eq!(stats.messages_delivered, 10);
    }

    #[test]
    fn drop_window_cuts_matching_link_only() {
        let mut w = duplex_world(4);
        w.schedule(&FaultEvent::DropWindow { src: Some(0), dst: Some(1), from: 0, until: 1_000 });
        let stats = w.run();
        assert_eq!(w.process(ProcId(1)).received.len(), 0);
        assert_eq!(w.process(ProcId(0)).received.len(), 10);
        assert_eq!(stats.dropped_by_window, 10);
        assert_eq!(stats.messages_dropped, 10);
    }

    #[test]
    fn dup_window_delivers_twice() {
        let mut w = flood_world(6);
        w.schedule(&FaultEvent::DupWindow { src: None, dst: None, from: 0, until: 1_000 });
        let stats = w.run();
        assert_eq!(stats.messages_duplicated, 20);
        assert_eq!(stats.messages_delivered, 40);
        assert_eq!(w.process(ProcId(1)).received.len(), 40);
    }

    #[test]
    fn reorder_window_breaks_fifo_order() {
        let mut w = flood_world(1);
        w.schedule(&FaultEvent::ReorderWindow { src: None, dst: None, from: 0, until: 1_000 });
        w.run();
        let got = &w.process(ProcId(1)).received;
        assert_eq!(got.len(), 20);
        let expected: Vec<u64> = (0..20).collect();
        assert_ne!(got, &expected, "reorder window should break send order");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "every message still delivered exactly once");
    }

    #[test]
    fn delivery_seq_is_monotone_under_reorder() {
        // Reordering scrambles payload order, but the per-site delivery
        // sequence number stays 1..=n in delivery order — the stable
        // correlation key the positional scheme lacked.
        let mut w = flood_world(1);
        w.schedule(&FaultEvent::ReorderWindow { src: None, dst: None, from: 0, until: 1_000 });
        w.run();
        let seqs: Vec<u64> = w
            .trace()
            .entries()
            .iter()
            .filter(|e| e.proc == ProcId(1))
            .filter_map(|e| match e.event {
                EventKind::Deliver { deliver_seq, .. } => Some(deliver_seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, (1..=20).collect::<Vec<u64>>());
        let payloads = &w.process(ProcId(1)).received;
        assert_ne!(payloads, &(0..20).collect::<Vec<u64>>(), "payloads arrive out of order");
    }

    #[test]
    fn causal_trace_of_a_run_is_hb_clean() {
        let ((), trace) = mcv_trace::record_trace(None, || {
            let mut w = flood_world(3);
            w.schedule(&FaultEvent::DupWindow { src: None, dst: None, from: 0, until: 2 });
            w.run();
        });
        assert!(!trace.is_empty());
        let report = mcv_trace::check(&trace);
        assert!(report.ok(), "{:?}", report.violations);
        // Every deliver cites its send.
        assert!(trace
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::Deliver { .. }) || e.cause.is_some()));
    }

    #[test]
    fn drifted_clocks_diverge_from_real_time() {
        struct ClockReader {
            readings: Vec<(u64, u64)>,
        }
        impl Process<u64> for ClockReader {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                ctx.set_timer(SimTime::from_ticks(100), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u64>, _: ProcId, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u64>, _: u64) {
                self.readings.push((ctx.now().ticks(), ctx.local_now().ticks()));
            }
        }
        let mut w: World<u64, ClockReader> =
            World::new(WorldConfig { drift: vec![0.0, 0.1], ..WorldConfig::default() });
        w.add_process(ClockReader { readings: Vec::new() });
        w.add_process(ClockReader { readings: Vec::new() });
        w.run();
        // Process 0: no drift; local == real.
        assert_eq!(w.process(ProcId(0)).readings, vec![(100, 100)]);
        // Process 1: 10% fast clock.
        assert_eq!(w.process(ProcId(1)).readings, vec![(100, 110)]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Ticker {
            ticks: u32,
        }
        impl Process<u64> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                ctx.set_timer(SimTime::from_ticks(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u64>, _: ProcId, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u64>, _: u64) {
                self.ticks += 1;
                ctx.set_timer(SimTime::from_ticks(10), 0);
            }
        }
        let mut w: World<u64, Ticker> = World::new(WorldConfig::default());
        w.add_process(Ticker { ticks: 0 });
        w.run_until(SimTime::from_ticks(55));
        assert_eq!(w.process(ProcId(0)).ticks, 5);
    }

    /// Re-arms its timer forever: never quiescent.
    struct Rearm;
    impl Process<u64> for Rearm {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.set_timer(SimTime::from_ticks(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<u64>, _: ProcId, _: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<u64>, _: u64) {
            ctx.set_timer(SimTime::from_ticks(1), 0);
        }
    }

    #[test]
    fn the_event_cap_is_told_apart_from_quiescence() {
        let mut w = World::new(WorldConfig { max_events: 10, ..WorldConfig::default() });
        w.add_process(Rearm);
        let stats = w.run();
        assert_eq!(stats.events, 10);
        assert!(stats.hit_event_cap);
        let mut w = flood_world(0);
        let stats = w.run();
        assert_eq!(stats.messages_delivered, 20);
        assert!(!stats.hit_event_cap);
    }

    #[test]
    fn faults_naming_a_missing_process_are_inert() {
        let mut w = flood_world(4);
        assert!(!w.schedule(&FaultEvent::Crash { proc: 5, at: 1 }));
        assert!(!w.schedule(&FaultEvent::Recover { proc: 5, at: 2 }));
        assert!(!w.schedule(&partition(vec![0, 5], CutKind::Both)));
        let stats = w.run();
        assert_eq!(stats.messages_delivered, 20);
        assert!(!stats.hit_event_cap);
    }
}
