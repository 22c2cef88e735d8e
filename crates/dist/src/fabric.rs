//! The transport fabric: the single policy core every transport
//! implementation shares — fault windows, seeded per-hop delays, FIFO
//! clamping, duplication/reordering, and per-link delivery batching.
//!
//! [`Fabric`] is a pure state machine over caller-supplied clocks:
//! `submit` stamps a message into the in-flight heap at the caller's
//! "now", `pop_due` dispatches everything whose due time has passed.
//! The threaded network thread drives it with wall-clock microseconds;
//! [`SimTransport`](crate::SimTransport) drives the *same* code with a
//! virtual clock — so every chaos fault window, drop decision, and
//! delay sample behaves identically in both worlds, and the
//! conformance suite can assert it.
//!
//! Batching (`batch_window_us > 0`) is the multi-shot transport
//! optimization: the first message on an idle link (the *batch head*)
//! pays a full sampled hop delay; messages submitted to the same link
//! while the head is still in flight ride along at the head's due time
//! for near-zero marginal flight, and arrive together as one
//! [`NodeEvent::DeliverBatch`] so the receiver can amortize its WAL
//! force over the whole batch. With `batch_window_us == 0` the fabric
//! reproduces the serial per-message schedule bit-for-bit (same RNG
//! draw sequence, same FIFO clamps).

use crate::transport::{DeliverItem, NodeEvent};
use mcv_chaos::{CutKind, FaultEvent};
use mcv_commit::Msg;
use mcv_trace::Cause;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// A half-open real-time window on a link pattern.
struct LinkWindow {
    src: Option<usize>,
    dst: Option<usize>,
    from_us: u64,
    until_us: u64,
}

impl LinkWindow {
    fn matches(&self, now_us: u64, from: usize, to: usize) -> bool {
        self.src.is_none_or(|s| s == from)
            && self.dst.is_none_or(|d| d == to)
            && now_us >= self.from_us
            && now_us < self.until_us
    }
}

struct PartitionWindow {
    side: Vec<usize>,
    cut: CutKind,
    from_us: u64,
    until_us: u64,
}

impl PartitionWindow {
    fn blocks(&self, now_us: u64, from: usize, to: usize) -> bool {
        if now_us < self.from_us || now_us >= self.until_us {
            return false;
        }
        let f_in = self.side.contains(&from);
        let t_in = self.side.contains(&to);
        match self.cut {
            CutKind::Both => f_in != t_in,
            CutKind::Outbound => f_in && !t_in,
            CutKind::Inbound => !f_in && t_in,
        }
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

/// The shared fault/delay/batching policy engine (see module docs).
pub(crate) struct Fabric {
    tick_us: u64,
    /// Uniform per-hop delay in `1..=delay_ticks` ticks.
    delay_ticks: u64,
    /// Per-link batching window; 0 disables batching entirely.
    batch_window_us: u64,
    rng: StdRng,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    fifo_last: BTreeMap<(usize, usize), u64>,
    /// Due time of each link's open batch head (batching mode only).
    link_head: BTreeMap<(usize, usize), u64>,
    drops: Vec<LinkWindow>,
    dups: Vec<LinkWindow>,
    reorders: Vec<LinkWindow>,
    partitions: Vec<PartitionWindow>,
    rec: Option<Arc<mcv_trace::Recorder>>,
    /// Each delivery records its measured flight time as an anonymous
    /// `transport_rtt` sample.
    prof: Option<mcv_prof::Profiler>,
    pub tally: NetTally,
}

impl Fabric {
    /// Builds the fabric: parses the fault events into real-time
    /// windows and schedules their crash/recover dispatches.
    pub fn new<'a>(
        tick_us: u64,
        delay_ticks: u64,
        batch_window_us: u64,
        seed: u64,
        rec: Option<Arc<mcv_trace::Recorder>>,
        prof: Option<mcv_prof::Profiler>,
        events: impl IntoIterator<Item = &'a FaultEvent>,
    ) -> Fabric {
        let mut f = Fabric {
            tick_us,
            delay_ticks,
            batch_window_us,
            rng: StdRng::seed_from_u64(seed ^ 0x006e_6574_776f_726b_u64),
            heap: BinaryHeap::new(),
            seq: 0,
            fifo_last: BTreeMap::new(),
            link_head: BTreeMap::new(),
            drops: Vec::new(),
            dups: Vec::new(),
            reorders: Vec::new(),
            partitions: Vec::new(),
            rec,
            prof,
            tally: NetTally::default(),
        };
        let us = |ticks: u64| ticks.saturating_mul(tick_us);
        for ev in events {
            match ev {
                FaultEvent::Crash { proc, at } | FaultEvent::TornWrite { proc, at, .. } => {
                    f.seq += 1;
                    f.heap.push(Reverse(Scheduled {
                        due_us: us(*at),
                        seq: f.seq,
                        to: *proc,
                        enq_us: 0,
                        what: Dispatch::Crash,
                    }));
                }
                FaultEvent::Recover { proc, at } => {
                    f.seq += 1;
                    f.heap.push(Reverse(Scheduled {
                        due_us: us(*at),
                        seq: f.seq,
                        to: *proc,
                        enq_us: 0,
                        what: Dispatch::Recover,
                    }));
                }
                FaultEvent::Partition { side, cut, from, until } => {
                    f.partitions.push(PartitionWindow {
                        side: side.clone(),
                        cut: *cut,
                        from_us: us(*from),
                        until_us: us(*until),
                    });
                }
                FaultEvent::DropWindow { src, dst, from, until } => {
                    f.drops.push(LinkWindow {
                        src: *src,
                        dst: *dst,
                        from_us: us(*from),
                        until_us: us(*until),
                    });
                }
                FaultEvent::DupWindow { src, dst, from, until } => {
                    f.dups.push(LinkWindow {
                        src: *src,
                        dst: *dst,
                        from_us: us(*from),
                        until_us: us(*until),
                    });
                }
                FaultEvent::ReorderWindow { src, dst, from, until } => {
                    f.reorders.push(LinkWindow {
                        src: *src,
                        dst: *dst,
                        from_us: us(*from),
                        until_us: us(*until),
                    });
                }
            }
        }
        f
    }

    fn us(&self, ticks: u64) -> u64 {
        ticks.saturating_mul(self.tick_us)
    }

    /// Stamps one message into the fabric at `now_us`: applies the
    /// fault windows, samples a delay (or joins the link's open batch),
    /// and records the `Send`/`Drop` trace event.
    pub fn submit(
        &mut self,
        now_us: u64,
        from: usize,
        to: usize,
        msg: Msg,
        label: String,
        cause: Option<Cause>,
    ) {
        let tick = now_us / self.tick_us.max(1);
        self.tally.sent += 1;
        let lost = self.partitions.iter().any(|p| p.blocks(now_us, from, to))
            || self.drops.iter().any(|w| w.matches(now_us, from, to));
        if lost {
            self.tally.dropped += 1;
            if let Some(rec) = &self.rec {
                rec.record(from, tick, cause, mcv_trace::EventKind::Drop { from, to, label });
            }
            return;
        }
        let copies = if self.dups.iter().any(|w| w.matches(now_us, from, to)) {
            self.tally.duplicated += 1;
            2
        } else {
            1
        };
        let reorder = self.reorders.iter().any(|w| w.matches(now_us, from, to));
        // One Send event per message; dup copies share it.
        let sent = self.rec.as_ref().map(|rec| {
            let c = rec.record(
                from,
                tick,
                cause,
                mcv_trace::EventKind::Send { to, label: label.clone() },
            );
            (c, label.clone())
        });
        let bound = self.delay_ticks.max(1);
        for _ in 0..copies {
            let due = if reorder {
                // Extra jitter, skipping the FIFO clamp so the copy can
                // overtake older traffic (and any open batch).
                let base = self.rng.gen_range(1..=bound);
                let jitter = self.rng.gen_range(0..=4 * bound);
                now_us + self.us(base) + self.us(jitter)
            } else if self.batch_window_us > 0
                && self.link_head.get(&(from, to)).is_some_and(|h| {
                    *h > now_us && h.saturating_sub(now_us) <= self.batch_window_us
                })
            {
                // Ride the link's open batch: the head already paid the
                // hop delay, so joiners land with it at near-zero
                // marginal flight — the group-commit dwell window
                // lifted up to the transport.
                self.tally.batched += 1;
                let h = self.link_head[&(from, to)];
                self.fifo_last.insert((from, to), h);
                h
            } else {
                let hop = self.rng.gen_range(1..=bound);
                let mut due = now_us + self.us(hop);
                let last = self.fifo_last.get(&(from, to)).copied().unwrap_or(0);
                if due <= last {
                    due = last + 1;
                }
                self.fifo_last.insert((from, to), due);
                if self.batch_window_us > 0 {
                    self.link_head.insert((from, to), due);
                }
                due
            };
            self.seq += 1;
            self.heap.push(Reverse(Scheduled {
                due_us: due,
                seq: self.seq,
                to,
                enq_us: now_us,
                what: Dispatch::Deliver { from, msg: msg.clone(), sent: sent.clone() },
            }));
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
