//! The process (site) abstraction and its effect context.

use crate::time::{ProcId, SimTime};
use mcv_trace::EventKind;

/// Opaque token identifying a timer set by a process.
pub type TimerToken = u64;

/// Effects a process may request during a callback. The world applies
/// them after the callback returns, keeping the borrow structure simple
/// and the event order deterministic.
#[derive(Debug)]
pub struct Ctx<M> {
    /// This process's id.
    id: ProcId,
    /// Number of processes in the world.
    n: usize,
    /// Current simulated time.
    now: SimTime,
    /// This process's drifted local clock reading.
    local_now: SimTime,
    /// Requested sends `(to, msg)`.
    pub(crate) sends: Vec<(ProcId, M)>,
    /// Requested timers `(delay, token)`.
    pub(crate) timers: Vec<(SimTime, TimerToken)>,
    /// Cancelled timer tokens.
    pub(crate) cancels: Vec<TimerToken>,
    /// Site events (state changes, decisions, notes) for the trace.
    pub(crate) events: Vec<EventKind>,
    /// Set when the process asks to halt the whole simulation.
    pub(crate) stop: bool,
    /// Set when the process asks to crash itself (phase-accurate fault
    /// injection: "coordinator fails right after collecting votes").
    pub(crate) crash: bool,
}

impl<M> Ctx<M> {
    pub(crate) fn new(id: ProcId, n: usize, now: SimTime) -> Self {
        Ctx {
            id,
            n,
            now,
            local_now: now,
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            events: Vec::new(),
            stop: false,
            crash: false,
        }
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Number of processes in the world.
    pub fn n_procs(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The process's *local* clock reading `C(p, T) = (1+ρ)·T`
    /// (equals [`Ctx::now`] when the world has no drift configured).
    pub fn local_now(&self) -> SimTime {
        self.local_now
    }

    pub(crate) fn with_local(mut self, local: SimTime) -> Self {
        self.local_now = local;
        self
    }

    /// Builds a context for driving a [`Process`] from *outside* the
    /// simulator — e.g. a real threaded transport (`mcv-dist`) feeding
    /// the same FSM implementations over channels. The caller plays the
    /// world's role: invoke a callback, then [`Ctx::take_effects`] and
    /// apply the requested sends/timers itself.
    pub fn external(id: ProcId, n: usize, now: SimTime) -> Self {
        Ctx::new(id, n, now)
    }

    /// Drains every effect requested so far, leaving the context empty
    /// and reusable for the next callback.
    pub fn take_effects(&mut self) -> Effects<M> {
        Effects {
            sends: std::mem::take(&mut self.sends),
            timers: std::mem::take(&mut self.timers),
            cancels: std::mem::take(&mut self.cancels),
            events: std::mem::take(&mut self.events),
            stop: std::mem::replace(&mut self.stop, false),
            crash: std::mem::replace(&mut self.crash, false),
        }
    }

    /// Sends `msg` to `to` (delivery subject to the network model).
    pub fn send(&mut self, to: ProcId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends `msg` to every *other* process (the reliable-broadcast
    /// building block's transport primitive).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.n {
            if i != self.id.0 {
                self.sends.push((ProcId(i), msg.clone()));
            }
        }
    }

    /// Requests a timer `delay` from now carrying `token`.
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.timers.push((delay, token));
    }

    /// Cancels all pending timers with `token`.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.cancels.push(token);
    }

    /// Records what this site did (a state change, a decision, a note)
    /// for the driver to hand, once, to every view of the run.
    pub fn record(&mut self, kind: EventKind) {
        self.events.push(kind);
    }

    /// Records a free-form note: `record(EventKind::Note { text })`.
    pub fn note(&mut self, text: impl Into<String>) {
        self.record(EventKind::Note { text: text.into() });
    }

    /// Requests the whole simulation to stop after this event.
    pub fn stop_world(&mut self) {
        self.stop = true;
    }

    /// Crashes this process immediately after the current callback —
    /// sends requested in the same callback are still submitted first
    /// (they were already on the wire).
    pub fn crash_self(&mut self) {
        self.crash = true;
    }
}

/// Effects drained from a [`Ctx`] by an external driver (see
/// [`Ctx::external`]). The simulator's `World` applies the same fields
/// internally; this struct exposes them so other runtimes — the real
/// threaded transport in `mcv-dist` — can reuse the unmodified FSMs.
#[derive(Debug)]
pub struct Effects<M> {
    /// Requested sends `(to, msg)`.
    pub sends: Vec<(ProcId, M)>,
    /// Requested timers `(delay, token)`.
    pub timers: Vec<(SimTime, TimerToken)>,
    /// Cancelled timer tokens.
    pub cancels: Vec<TimerToken>,
    /// Site events, in recording order (see [`Ctx::record`]).
    pub events: Vec<EventKind>,
    /// The process asked to halt the whole run.
    pub stop: bool,
    /// The process asked to crash itself after this callback.
    pub crash: bool,
}

/// A simulated process (a *site* in the thesis' vocabulary).
///
/// Crash semantics: on crash the world stops delivering messages and
/// timers to the process and calls [`Process::on_crash`], which must
/// discard volatile state. On recovery the world calls
/// [`Process::on_recover`]; the process restores itself from whatever
/// it kept in stable storage (its own responsibility — see `mcv-txn`).
pub trait Process<M> {
    /// Called once when the world starts.
    fn on_start(&mut self, ctx: &mut Ctx<M>);

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<M>, from: ProcId, msg: M);

    /// Called when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<M>, token: TimerToken);

    /// Called at the instant of a crash: wipe volatile state.
    fn on_crash(&mut self) {}

    /// Called at the instant of recovery.
    fn on_recover(&mut self, _ctx: &mut Ctx<M>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_skips_self() {
        let mut ctx: Ctx<&'static str> = Ctx::new(ProcId(1), 4, SimTime::ZERO);
        ctx.broadcast("hello");
        let to: Vec<usize> = ctx.sends.iter().map(|(p, _)| p.0).collect();
        assert_eq!(to, vec![0, 2, 3]);
    }

    #[test]
    fn effects_accumulate() {
        let mut ctx: Ctx<u8> = Ctx::new(ProcId(0), 2, SimTime::from_ticks(5));
        ctx.send(ProcId(1), 9);
        ctx.set_timer(SimTime::from_ticks(10), 7);
        ctx.cancel_timer(3);
        ctx.note("step");
        assert_eq!(ctx.sends.len(), 1);
        assert_eq!(ctx.timers, vec![(SimTime::from_ticks(10), 7)]);
        assert_eq!(ctx.cancels, vec![3]);
        assert_eq!(ctx.now(), SimTime::from_ticks(5));
        assert_eq!(ctx.take_effects().events, [EventKind::Note { text: "step".into() }]);
    }
}
