//! One node of the distributed topology: a commit-protocol
//! [`Site`](mcv_commit::Site) hosted on its own OS thread, driven by
//! the transport instead of the discrete-event simulator.
//!
//! The loop reproduces the simulator world's effect and trace
//! discipline exactly — notes, then sends, then cancels (targeting
//! pre-existing timers), then newly armed timers, then self-crash;
//! `Deliver` events cite their `Send`, `TimerFire` cites its
//! `TimerSet`, and the triggering event is installed as the ambient
//! trace context around each callback — so the causal checker of
//! `mcv-trace` accepts distributed executions under the same rules as
//! simulated ones.

use crate::runtime::Ledger;
use crate::transport::{NetMsg, NodeEvent};
use crate::wait::{recv_until, Received};
use mcv_commit::{LocalStore, Msg, Site, TxnPlan};
use mcv_sim::{ProcId, Process, SimTime, TimerToken};
use mcv_trace::Cause;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A send captured during a callback, transmitted only after the
/// node's store has flushed any staged commit forces — so a shard
/// never acknowledges a commit whose log record is not yet durable.
struct PendingSend {
    to: usize,
    msg: Msg,
    label: String,
    cause: Option<Cause>,
}

/// Everything a node thread needs besides its `Site`.
pub(crate) struct NodeSeat {
    pub id: usize,
    pub n: usize,
    pub tick_us: u64,
    pub start: Instant,
    pub rx: Receiver<NodeEvent>,
    pub net: Sender<NetMsg>,
    pub ledger: Arc<Ledger>,
}

/// Plain counts of what one node did, returned when its thread is
/// joined: `mcv_obs` collectors are thread-local, so only the caller of
/// `run_pipeline` can emit them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NodeTally {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub timer_fires: u64,
    pub submitted: u64,
    pub crashes: u64,
    pub recoveries: u64,
}

impl NodeTally {
    /// Adds the counts to the calling thread's `mcv_obs` collector.
    pub fn emit(&self) {
        mcv_obs::counter("dist.sent", self.sent);
        mcv_obs::counter("dist.delivered", self.delivered);
        mcv_obs::counter("dist.dropped", self.dropped);
        mcv_obs::counter("dist.timer_fires", self.timer_fires);
        mcv_obs::counter("dist.submitted", self.submitted);
        mcv_obs::counter("dist.crashes", self.crashes);
        mcv_obs::counter("dist.recoveries", self.recoveries);
    }
}

struct NodeLoop<S: LocalStore> {
    seat: NodeSeat,
    site: Site<S>,
    tally: NodeTally,
    up: bool,
    deliver_seq: u64,
    next_tid: u64,
    /// Pending timers: `(fire_tick, tid)`, min-first.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Live timer metadata: `tid -> (token, TimerSet cause)`. Cancelled
    /// or crashed-away timers are removed here; their heap entries are
    /// skipped lazily.
    live: BTreeMap<u64, (TimerToken, Option<Cause>)>,
    /// Plans submitted while this node was down: the coordinator's
    /// durable intake queue, replayed on recovery.
    queued_submits: Vec<TxnPlan>,
}

/// Runs one node to completion (shutdown or transport hang-up).
pub(crate) fn run_node<S: LocalStore>(seat: NodeSeat, site: Site<S>) -> NodeTally {
    let mut n = NodeLoop {
        seat,
        site,
        tally: NodeTally::default(),
        up: true,
        deliver_seq: 0,
        next_tid: 0,
        heap: BinaryHeap::new(),
        live: BTreeMap::new(),
        queued_submits: Vec::new(),
    };
    n.run();
    n.tally
}

impl<S: LocalStore> NodeLoop<S> {
    fn now_tick(&self) -> u64 {
        (self.seat.start.elapsed().as_micros() as u64) / self.seat.tick_us.max(1)
    }

    fn ctx(&self, t: u64) -> mcv_sim::Ctx<Msg> {
        mcv_sim::Ctx::external(ProcId(self.seat.id), self.seat.n, SimTime::from_ticks(t))
    }

    /// Applies one callback's effects in the simulator world's order,
    /// except that sends are *captured* (with the ambient cause) and
    /// returned: the caller transmits them via [`NodeLoop::finish`]
    /// after the store has flushed any staged commit forces, so an
    /// acknowledgement never leaves before the durability it claims.
    fn drain(&mut self, mut ctx: mcv_sim::Ctx<Msg>, t: u64) -> Vec<PendingSend> {
        let fx = ctx.take_effects();
        for note in &fx.notes {
            self.seat.ledger.note(self.seat.id, t, note);
            mcv_trace::emit(self.seat.id, t, mcv_trace::EventKind::Note { text: note.clone() });
        }
        let tracing = mcv_trace::active();
        let mut pending = Vec::with_capacity(fx.sends.len());
        for (to, msg) in fx.sends {
            self.tally.sent += 1;
            let label = if tracing { msg.label().to_owned() } else { String::new() };
            pending.push(PendingSend { to: to.0, msg, label, cause: mcv_trace::context() });
        }
        // Cancels first: they target timers that existed before this
        // callback, so a timer re-armed with the same token survives.
        for token in fx.cancels {
            self.live.retain(|_, (tk, _)| *tk != token);
        }
        for (delay, token) in fx.timers {
            self.next_tid += 1;
            let set = mcv_trace::emit(self.seat.id, t, mcv_trace::EventKind::TimerSet { token });
            self.live.insert(self.next_tid, (token, set));
            self.heap.push(Reverse((t + delay.ticks(), self.next_tid)));
        }
        if fx.crash && self.up {
            self.crash(t);
        }
        pending
    }

    /// Flushes the store (one force wave covering every commit staged
    /// by the callbacks that produced `pending`), then transmits the
    /// captured sends. Sends survive a self-crash in the same callback
    /// — they left the site before it died.
    fn finish(&mut self, pending: Vec<PendingSend>) {
        self.site.db.flush();
        for p in pending {
            // The network thread records the Send (or Drop) event on
            // our behalf, citing the captured cause — a lost channel
            // means the run is shutting down.
            let _ = self.seat.net.send(NetMsg::Send {
                from: self.seat.id,
                to: p.to,
                msg: p.msg,
                label: p.label,
                cause: p.cause,
            });
        }
    }

    fn crash(&mut self, t: u64) {
        self.up = false;
        self.seat.ledger.set_up(self.seat.id, false);
        self.tally.crashes += 1;
        mcv_trace::emit(self.seat.id, t, mcv_trace::EventKind::Crash);
        self.site.on_crash();
        // Pending timers of a crashed node die with it.
        self.live.clear();
        self.heap.clear();
    }

    /// Fires every live timer whose tick has passed.
    fn fire_due(&mut self) {
        loop {
            let t = self.now_tick();
            let Some(&Reverse((due, tid))) = self.heap.peek() else { return };
            if due > t {
                return;
            }
            self.heap.pop();
            let Some((token, set)) = self.live.remove(&tid) else { continue };
            if !self.up {
                continue;
            }
            self.tally.timer_fires += 1;
            let fired = mcv_trace::emit_caused(
                self.seat.id,
                t,
                set,
                mcv_trace::EventKind::TimerFire { token },
            );
            let prev = mcv_trace::set_context(fired);
            let mut ctx = self.ctx(t);
            self.site.on_timer(&mut ctx, token);
            let pending = self.drain(ctx, t);
            mcv_trace::set_context(prev);
            self.finish(pending);
        }
    }

    /// The nearest live timer's deadline in ticks, if any.
    fn next_deadline(&mut self) -> Option<u64> {
        while let Some(&Reverse((due, tid))) = self.heap.peek() {
            if self.live.contains_key(&tid) {
                return Some(due);
            }
            self.heap.pop();
        }
        None
    }

    fn run(&mut self) {
        let t0 = self.now_tick();
        let mut ctx = self.ctx(t0);
        self.site.on_start(&mut ctx);
        let pending = self.drain(ctx, t0);
        self.finish(pending);
        loop {
            self.fire_due();
            // Park until the next message or the nearest timer's tick.
            let deadline = self.next_deadline().and_then(|due| {
                let due_us = due.saturating_mul(self.seat.tick_us.max(1));
                self.seat.start.checked_add(Duration::from_micros(due_us))
            });
            let event = match recv_until(&self.seat.rx, deadline) {
                Received::Msg(event) => event,
                Received::Deadline => continue,
                Received::Disconnected => NodeEvent::Shutdown,
            };
            match event {
                NodeEvent::Deliver { from, msg, sent } => {
                    let pending = self.deliver(from, msg, sent);
                    self.finish(pending);
                }
                NodeEvent::DeliverBatch(items) => {
                    // Process every message of the batch, then flush
                    // once: all commits staged by the batch share one
                    // force wave before any acknowledgement leaves.
                    let mut pending = Vec::new();
                    for it in items {
                        pending.extend(self.deliver(it.from, it.msg, it.sent));
                    }
                    self.finish(pending);
                }
                NodeEvent::Submit(plan) => self.submit(plan),
                NodeEvent::Crash => {
                    let t = self.now_tick();
                    if self.up {
                        self.crash(t);
                    }
                }
                NodeEvent::Recover => self.recover(),
                NodeEvent::Shutdown => {
                    // Staged-but-unforced commits must reach the device
                    // before the run snapshots durable state.
                    self.site.db.flush();
                    return;
                }
            }
        }
    }

    fn deliver(
        &mut self,
        from: usize,
        msg: Msg,
        sent: Option<(Cause, String)>,
    ) -> Vec<PendingSend> {
        let t = self.now_tick();
        let (cause, label) = sent.map(|(c, l)| (Some(c), l)).unwrap_or_default();
        if !self.up {
            // A dead receiver loses the message, receiver-sited like
            // the simulator's drop-at-delivery.
            self.tally.dropped += 1;
            mcv_trace::emit_caused(
                self.seat.id,
                t,
                cause,
                mcv_trace::EventKind::Drop { from, to: self.seat.id, label },
            );
            return Vec::new();
        }
        self.tally.delivered += 1;
        self.deliver_seq += 1;
        let delivered = mcv_trace::emit_caused(self.seat.id, t, cause, {
            mcv_trace::EventKind::Deliver { from, label, deliver_seq: self.deliver_seq }
        });
        let prev = mcv_trace::set_context(delivered);
        let mut ctx = self.ctx(t);
        self.site.on_message(&mut ctx, ProcId(from), msg);
        let pending = self.drain(ctx, t);
        mcv_trace::set_context(prev);
        pending
    }

    /// Starts one pumped transaction plan (multi-shot submission). A
    /// down coordinator queues the plan — the intake survives the
    /// crash, like a client retrying — and replays it on recovery.
    fn submit(&mut self, plan: TxnPlan) {
        if !self.up {
            self.queued_submits.push(plan);
            return;
        }
        self.tally.submitted += 1;
        let t = self.now_tick();
        let mut ctx = self.ctx(t);
        self.site.submit_plan(&mut ctx, plan);
        let pending = self.drain(ctx, t);
        self.finish(pending);
    }

    fn recover(&mut self) {
        if self.up {
            return;
        }
        let t = self.now_tick();
        self.up = true;
        self.seat.ledger.set_up(self.seat.id, true);
        self.tally.recoveries += 1;
        let recovered = mcv_trace::emit(self.seat.id, t, mcv_trace::EventKind::Recover);
        let prev = mcv_trace::set_context(recovered);
        let mut ctx = self.ctx(t);
        self.site.on_recover(&mut ctx);
        let pending = self.drain(ctx, t);
        mcv_trace::set_context(prev);
        self.finish(pending);
        for plan in std::mem::take(&mut self.queued_submits) {
            self.submit(plan);
        }
    }
}
