//! The transport fabric: the dispatch side of every transport
//! implementation, over `mcv-sim`'s one [`LinkCore`].
//!
//! The link core decides each message's fate — fault windows, seeded
//! per-hop delay, FIFO clamp, duplication, reordering and per-link
//! batching, in microseconds (one tick = `tick_us`). The fabric stamps
//! the surviving copies into its dispatch heap beside the schedule's
//! crash/recover dispatches, and `pop_due` hands out everything whose
//! due time has passed. The threaded network thread drives it with
//! wall-clock microseconds; [`SimTransport`](crate::SimTransport)
//! drives the *same* code with a virtual clock, so both behave
//! identically given the same submission times, and the conformance
//! suite can assert it.
//!
//! Batching (`batch_window_us > 0`) is the multi-shot transport
//! optimization: messages joining a link's open batch arrive together
//! as one [`NodeEvent::DeliverBatch`] so the receiver can amortize its
//! WAL force over the whole batch. With `batch_window_us == 0` the
//! fabric reproduces the serial per-message schedule bit-for-bit.

use crate::transport::{DeliverItem, NodeEvent, TransportConfig};
use mcv_commit::Msg;
use mcv_sim::{Fate, FaultEvent, LinkCore};
use mcv_trace::Cause;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// A scheduled future dispatch, ordered by due time then FIFO seq.
struct Scheduled {
    due_us: u64,
    seq: u64,
    to: usize,
    /// When the message entered the fabric (microseconds since run
    /// start; 0 for fault dispatches) — the flight-time base for
    /// profiling.
    enq_us: u64,
    what: Dispatch,
}

enum Dispatch {
    Deliver { from: usize, msg: Msg, sent: Option<(Cause, String)> },
    Crash,
    Recover,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.due_us, self.seq) == (other.due_us, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_us, self.seq).cmp(&(other.due_us, other.seq))
    }
}

/// Plain counts of what the network did, kept by the thread that owns
/// the fabric and handed back when it is joined: `mcv_obs` collectors
/// are thread-local, so only the caller of `run_pipeline` can emit them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NetTally {
    /// Messages handed to the fabric.
    pub sent: u64,
    /// Lost to a partition or drop window.
    pub dropped: u64,
    /// Sent twice by a duplication window.
    pub duplicated: u64,
    /// Rode a link's open batch instead of paying their own hop.
    pub batched: u64,
    /// Dispatch rounds of the network thread that had something due.
    pub dispatches: u64,
    /// Over those rounds, dispatch instant minus the head's due
    /// instant, summed, in microseconds.
    pub late_us: u64,
}

impl NetTally {
    /// Adds the counts to the calling thread's `mcv_obs` collector.
    pub fn emit(&self) {
        mcv_obs::counter("dist.net.sent", self.sent);
        mcv_obs::counter("dist.net.dropped", self.dropped);
        mcv_obs::counter("dist.net.duplicated", self.duplicated);
        mcv_obs::counter("dist.net.batched", self.batched);
        mcv_obs::counter("dist.net.dispatches", self.dispatches);
        mcv_obs::counter("dist.net.late_us", self.late_us);
    }
}

/// The dispatch heap over the link core (see module docs).
pub(crate) struct Fabric {
    tick_us: u64,
    links: LinkCore,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    rec: Option<Arc<mcv_trace::Recorder>>,
    /// Each delivery records its measured flight time as an anonymous
    /// `transport_rtt` sample.
    prof: Option<mcv_prof::Profiler>,
    pub tally: NetTally,
}

impl Fabric {
    /// Builds the fabric: hands the fault windows to the link core and
    /// schedules the crash/recover dispatches.
    pub fn new<'a>(
        cfg: &TransportConfig,
        rec: Option<Arc<mcv_trace::Recorder>>,
        prof: Option<mcv_prof::Profiler>,
        events: impl IntoIterator<Item = &'a FaultEvent>,
    ) -> Fabric {
        let TransportConfig { tick_us, delay_ticks, seed, batch_window_us } = *cfg;
        let mut f = Fabric {
            tick_us,
            links: LinkCore::new(
                tick_us,
                delay_ticks,
                batch_window_us,
                seed ^ 0x006e_6574_776f_726b,
            ),
            heap: BinaryHeap::new(),
            seq: 0,
            rec,
            prof,
            tally: NetTally::default(),
        };
        for ev in events {
            match ev.site_change() {
                Some((proc, at, up)) => {
                    let what = if up { Dispatch::Recover } else { Dispatch::Crash };
                    f.push(at.saturating_mul(tick_us), proc, 0, what);
                }
                None => f.links.add_window(ev),
            }
        }
        f
    }

    fn push(&mut self, due_us: u64, to: usize, enq_us: u64, what: Dispatch) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { due_us, seq: self.seq, to, enq_us, what }));
    }

    /// Stamps one message into the fabric at `now_us`: routes it through
    /// the link core and records the `Send`/`Drop` trace event.
    pub fn submit(
        &mut self,
        now_us: u64,
        from: usize,
        to: usize,
        msg: Msg,
        label: String,
        cause: Option<Cause>,
    ) {
        self.tally.sent += 1;
        let Fate::Due(first, dup) = self.links.route(now_us, from, to) else {
            self.tally.dropped += 1;
            if let Some(rec) = &self.rec {
                let tick = now_us / self.tick_us.max(1);
                rec.record(from, tick, cause, mcv_trace::EventKind::Drop { from, to, label });
            }
            return;
        };
        if dup.is_some() {
            self.tally.duplicated += 1;
        }
        // One Send event per message; dup copies share it.
        let sent = self.rec.as_ref().map(|rec| {
            let tick = now_us / self.tick_us.max(1);
            let c = rec.record(
                from,
                tick,
                cause,
                mcv_trace::EventKind::Send { to, label: label.clone() },
            );
            (c, label)
        });
        for hop in [Some(first), dup].into_iter().flatten() {
            self.tally.batched += u64::from(hop.batched);
            let what = Dispatch::Deliver { from, msg: msg.clone(), sent: sent.clone() };
            self.push(hop.due, to, now_us, what);
        }
    }

    /// The earliest pending dispatch's due time.
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(s)| s.due_us)
    }

    /// Pops every dispatch due by `now_us`, in (due, seq) order, and
    /// groups consecutive deliveries to the same node into one
    /// [`NodeEvent::DeliverBatch`]. Crash/recover dispatches break a
    /// node's run so per-node ordering is preserved exactly.
    pub fn pop_due(&mut self, now_us: u64) -> Vec<(usize, NodeEvent)> {
        let mut out: Vec<(usize, NodeEvent)> = Vec::new();
        let mut open: BTreeMap<usize, Vec<DeliverItem>> = BTreeMap::new();
        let flush = |open: &mut BTreeMap<usize, Vec<DeliverItem>>,
                     out: &mut Vec<(usize, NodeEvent)>,
                     node: usize| {
            if let Some(items) = open.remove(&node) {
                out.push((node, pack(items)));
            }
        };
        while self.heap.peek().is_some_and(|Reverse(s)| s.due_us <= now_us) {
            let Reverse(s) = self.heap.pop().expect("peeked");
            match s.what {
                Dispatch::Deliver { from, msg, sent } => {
                    if let Some(p) = &self.prof {
                        // Anonymous sample: flight time from fabric
                        // entry to dispatch (txn 0 — hops are not tied
                        // to one transaction here; the critical-path
                        // analyzer does the per-txn transport
                        // attribution from the trace).
                        let mut t = mcv_prof::Timeline::new(0);
                        t.add(
                            mcv_prof::Phase::TransportRtt,
                            now_us.saturating_sub(s.enq_us).saturating_mul(1_000),
                        );
                        p.record(&t);
                    }
                    open.entry(s.to).or_default().push(DeliverItem { from, msg, sent });
                }
                Dispatch::Crash => {
                    flush(&mut open, &mut out, s.to);
                    out.push((s.to, NodeEvent::Crash));
                }
                Dispatch::Recover => {
                    flush(&mut open, &mut out, s.to);
                    out.push((s.to, NodeEvent::Recover));
                }
            }
        }
        for (node, items) in open {
            out.push((node, pack(items)));
        }
        out
    }
}

/// A single delivery stays a plain `Deliver` (the serial path is
/// byte-identical); two or more become a batch.
fn pack(mut items: Vec<DeliverItem>) -> NodeEvent {
    if items.len() == 1 {
        let it = items.pop().expect("one item");
        NodeEvent::Deliver { from: it.from, msg: it.msg, sent: it.sent }
    } else {
        NodeEvent::DeliverBatch(items)
    }
}
