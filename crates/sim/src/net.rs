//! The network model: the thesis' Section 3.4 assumptions (FIFO
//! channels, reliable delivery, delay bounded by δ) plus the one fault
//! vocabulary, [`FaultEvent`], that expresses every deviation from them
//! as a timed, replayable event.
//!
//! [`LinkCore`] is the only executable of that model. Both hosts route
//! every message through it: [`World`](crate::World) in ticks (`unit`
//! 1), and `mcv-dist`'s transport fabric in microseconds (`unit` =
//! microseconds per tick). It owns the fault windows, the seeded hop
//! delay, the reorder jitter, the per-link FIFO clamp and the per-link
//! batch head; each host keeps its own event queue, counters and trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Which directions a partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CutKind {
    /// Symmetric cut.
    Both,
    /// Only traffic out of the named side is lost.
    Outbound,
    /// Only traffic into the named side is lost.
    Inbound,
}

impl CutKind {
    /// Whether this cut around `side` loses a message from `from` to
    /// `to`: the message crosses the cut, in a direction it covers.
    pub fn blocks(self, side: &[usize], from: usize, to: usize) -> bool {
        let (f_in, t_in) = (side.contains(&from), side.contains(&to));
        match self {
            CutKind::Both => f_in != t_in,
            CutKind::Outbound => f_in && !t_in,
            CutKind::Inbound => !f_in && t_in,
        }
    }
}

/// One timed fault. Process indices are host ids (0 is the
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

    /// The process state change the event schedules, as `(proc, at,
    /// up)`: a crash (a torn write crashes too) or a recovery. `None`
    /// for the windows, which act on links instead.
    pub fn site_change(&self) -> Option<(usize, u64, bool)> {
        match self {
            FaultEvent::Crash { proc, at } | FaultEvent::TornWrite { proc, at, .. } => {
                Some((*proc, *at, false))
            }
            FaultEvent::Recover { proc, at } => Some((*proc, *at, true)),
            _ => None,
        }
    }

    /// The tick after which the event has no further effect: its
    /// instant, or its window's end.
    pub fn ends_at(&self) -> u64 {
        match self.site_change() {
            Some((_, at, _)) => at,
            None => self.window().map_or(0, |(_, until)| until),
        }
    }

    /// Whether every process the event names exists in a topology of
    /// `n_procs` processes (ids `0..n_procs`). This is the one rule for
    /// which events a topology can run: both hosts skip an event that
    /// does not fit, and an artifact carrying one does not load.
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

/// A replayable fault schedule: the adversary's script for one run.
/// The same run configuration and schedule always give the identical
/// execution.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultSchedule {
    /// The events, in generation order (times need not be sorted; each
    /// is scheduled on its own).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        FaultSchedule::default()
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

/// One delivery instant of a routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// When the copy is due, in host time units.
    pub due: u64,
    /// Whether the copy joined its link's open batch instead of paying
    /// its own hop delay.
    pub batched: bool,
}

/// What the network does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Lost to an active partition cut.
    Cut,
    /// Lost to an active drop window.
    Dropped,
    /// Delivered at the first hop's instant, and a second time at the
    /// other's if a duplication window is active.
    Due(Hop, Option<Hop>),
}

/// The link core: fault windows, seeded per-hop delays, the per-link
/// FIFO clamp and per-link batching, over a caller-supplied clock.
///
/// Times are integers in the host's unit; `unit` is the number of host
/// units per simulation tick, so fault windows (in ticks) and the
/// sampled hop delay scale with it, while the FIFO clamp moves a
/// message one host unit past its link's last delivery.
///
/// # Examples
///
/// ```
/// use mcv_sim::{Fate, FaultEvent, LinkCore};
/// let mut net = LinkCore::new(1, 5, 0, 7);
/// net.add_window(&FaultEvent::DropWindow { src: Some(0), dst: None, from: 10, until: 20 });
/// assert!(matches!(net.route(0, 0, 1), Fate::Due(hop, None) if (1..=5).contains(&hop.due)));
/// assert_eq!(net.route(12, 0, 1), Fate::Dropped);
/// assert!(matches!(net.route(12, 1, 0), Fate::Due(..)));
/// ```
#[derive(Clone)]
pub struct LinkCore {
    unit: u64,
    /// Uniform per-hop delay in `1..=delay_ticks` ticks (the δ bound).
    delay_ticks: u64,
    /// Per-link batching window in host units; 0 disables batching.
    batch_window: u64,
    rng: StdRng,
    windows: Vec<FaultEvent>,
    fifo_last: BTreeMap<(usize, usize), u64>,
    /// Due instant of each link's open batch head (batching only).
    link_head: BTreeMap<(usize, usize), u64>,
}

impl LinkCore {
    /// A fault-free core: `unit` host units per tick, hops uniform in
    /// `1..=delay_ticks` ticks, link batches open for `batch_window`
    /// host units (0: never), delays drawn from `seed`.
    pub fn new(unit: u64, delay_ticks: u64, batch_window: u64, seed: u64) -> LinkCore {
        LinkCore {
            unit,
            delay_ticks,
            batch_window,
            rng: StdRng::seed_from_u64(seed),
            windows: Vec::new(),
            fifo_last: BTreeMap::new(),
            link_head: BTreeMap::new(),
        }
    }

    /// Activates a windowed fault (partition, drop, dup or reorder
    /// window); a site change is the host's to schedule and is ignored.
    pub fn add_window(&mut self, ev: &FaultEvent) {
        if ev.window().is_some() {
            self.windows.push(ev.clone());
        }
    }

    /// Ends every window at `now` (host units) that has not ended.
    pub fn heal(&mut self, now: u64) {
        let tick = now / self.unit.max(1);
        for w in self.windows.iter_mut().filter(|w| w.ends_at() > tick) {
            *w = w.with_until(tick);
        }
    }

    /// `ticks` in host units.
    #[inline]
    fn scaled(&self, ticks: u64) -> u64 {
        ticks.saturating_mul(self.unit)
    }

    /// Routes one message sent from `from` to `to` at `now`. Every
    /// active window is consulted; a partition cut takes precedence
    /// over a drop window. Draws randomness only for delivered copies.
    // Inlined (with what it calls) into each host: the dist network
    // thread routes every message through here.
    #[inline]
    pub fn route(&mut self, now: u64, from: usize, to: usize) -> Fate {
        let on = |src: &Option<usize>, dst: &Option<usize>| {
            src.is_none_or(|s| s == from) && dst.is_none_or(|d| d == to)
        };
        let (mut cut, mut dropped, mut dup, mut reorder) = (false, false, false, false);
        for w in &self.windows {
            let Some((start, until)) = w.window() else { continue };
            if now < self.scaled(start) || now >= self.scaled(until) {
                continue;
            }
            match w {
                FaultEvent::Partition { side, cut: kind, .. } => cut |= kind.blocks(side, from, to),
                FaultEvent::DropWindow { src, dst, .. } => dropped |= on(src, dst),
                FaultEvent::DupWindow { src, dst, .. } => dup |= on(src, dst),
                FaultEvent::ReorderWindow { src, dst, .. } => reorder |= on(src, dst),
                _ => {}
            }
        }
        if cut {
            return Fate::Cut;
        }
        if dropped {
            return Fate::Dropped;
        }
        let first = self.hop(now, (from, to), reorder);
        Fate::Due(first, dup.then(|| self.hop(now, (from, to), reorder)))
    }

    /// One copy's delivery instant on `link`.
    #[inline]
    fn hop(&mut self, now: u64, link: (usize, usize), reorder: bool) -> Hop {
        let bound = self.delay_ticks.max(1);
        if reorder {
            // Extra jitter up to 4x the delay bound, skipping the FIFO
            // clamp (and any open batch) so the copy can overtake older
            // traffic.
            let base = self.rng.gen_range(1..=bound);
            let jitter = self.rng.gen_range(0..=4 * bound);
            return Hop { due: now + self.scaled(base) + self.scaled(jitter), batched: false };
        }
        if self.batch_window > 0 {
            if let Some(&head) = self.link_head.get(&link) {
                if head > now && head - now <= self.batch_window {
                    // Ride the link's open batch: the head already paid
                    // the hop, so joiners land with it — the group-commit
                    // dwell window lifted up to the transport.
                    self.fifo_last.insert(link, head);
                    return Hop { due: head, batched: true };
                }
            }
        }
        let hop = self.rng.gen_range(1..=bound);
        let mut due = now + self.scaled(hop);
        let last = self.fifo_last.get(&link).copied().unwrap_or(0);
        if due <= last {
            due = last + 1;
        }
        self.fifo_last.insert(link, due);
        if self.batch_window > 0 {
            self.link_head.insert(link, due);
        }
        Hop { due, batched: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_delays_respect_the_bound() {
        let mut net = LinkCore::new(1, 7, 0, 42);
        for i in 0..100 {
            // One message per link, so the FIFO clamp never moves one.
            let Fate::Due(hop, None) = net.route(0, i, i + 1) else { panic!("lost") };
            assert!((1..=7).contains(&hop.due), "{hop:?}");
        }
    }

    #[test]
    fn with_until_tightens_windows_only() {
        let w = FaultEvent::DropWindow { src: None, dst: None, from: 5, until: 50 };
        assert_eq!(w.with_until(10).window(), Some((5, 10)));
        let c = FaultEvent::Crash { proc: 1, at: 7 };
        assert_eq!(c.with_until(10), c);
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
    fn ends_at_is_the_instant_or_the_window_end() {
        assert_eq!(FaultEvent::TornWrite { proc: 0, at: 4, keep_bytes: 1 }.ends_at(), 4);
        let p = FaultEvent::Partition { side: vec![1], cut: CutKind::Both, from: 2, until: 9 };
        assert_eq!(p.ends_at(), 9);
    }
}
