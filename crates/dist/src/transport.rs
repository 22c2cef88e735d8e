//! The unified transport layer: one [`Transport`] trait over the
//! shared policy [`Fabric`](crate::fabric::Fabric), with a
//! deterministic virtual-clock implementation ([`SimTransport`]) and
//! the real threaded channel implementation ([`ThreadedTransport`] /
//! the internal network thread).
//!
//! Every fault decision — partitions, drop/dup/reorder windows (the
//! same [`FaultEvent`](mcv_chaos::FaultEvent) vocabulary `mcv-chaos`
//! generates, with simulation ticks mapped onto real microseconds),
//! seeded delays, FIFO clamping, and per-link delivery batching — is
//! made by the fabric, so both implementations behave identically
//! given the same submission times, and the conformance suite
//! (`tests/transport_conformance.rs`) drives both through this trait.
//!
//! Trace discipline mirrors `mcv-sim`'s world loop: one `Send` event
//! per message (duplicated copies share it as their causal
//! antecedent), sender-sited `Drop` events for messages lost in
//! flight, and the `(cause, label)` pair riding in the envelope so the
//! receiver's `Deliver` cites the send.

use crate::fabric::{Fabric, NetTally};
use crate::wait::{recv_until, sleep_until, Received};
use mcv_chaos::FaultSchedule;
use mcv_commit::{Msg, TxnPlan};
use mcv_trace::Cause;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One message of a delivery batch.
#[derive(Debug)]
pub struct DeliverItem {
    /// Sender node.
    pub from: usize,
    /// The protocol message.
    pub msg: Msg,
    /// The send's trace cause and label, if tracing.
    pub sent: Option<(Cause, String)>,
}

/// What a node receives from the transport.
#[derive(Debug)]
pub enum NodeEvent {
    /// A message arrived.
    Deliver {
        /// Sender node.
        from: usize,
        /// The protocol message.
        msg: Msg,
        /// The send's trace cause and label, if tracing.
        sent: Option<(Cause, String)>,
    },
    /// Several messages arrived together (one per-link batch): the
    /// receiver processes them all, then completes its buffered
    /// durability work once — the force-amortization seam of the
    /// multi-shot commit path.
    DeliverBatch(Vec<DeliverItem>),
    /// The multi-shot runtime submits a new transaction plan to the
    /// coordinator node while earlier transactions are still in
    /// flight.
    Submit(TxnPlan),
    /// The fault schedule crashes this node now.
    Crash,
    /// The fault schedule recovers this node now.
    Recover,
    /// The run is over; exit the node loop.
    Shutdown,
}

/// What the network thread receives.
pub(crate) enum NetMsg {
    /// A node handed a message to the network.
    Send {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// The protocol message.
        msg: Msg,
        /// Pre-rendered message label (empty when not tracing).
        label: String,
        /// The sender's ambient cause at send time.
        cause: Option<Cause>,
    },
    /// Stop the network thread.
    Shutdown,
}

/// Shared transport knobs (the fabric's policy inputs).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Real microseconds per simulation tick.
    pub tick_us: u64,
    /// Uniform per-hop delay in `1..=delay_ticks` ticks.
    pub delay_ticks: u64,
    /// Seed for delay sampling.
    pub seed: u64,
    /// Per-link batching window in microseconds; 0 disables batching
    /// (the serial per-message schedule).
    pub batch_window_us: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { tick_us: 200, delay_ticks: 3, seed: 0, batch_window_us: 0 }
    }
}

/// One transport implementation: a clocked message fabric between
/// `n` nodes. Implementations share the policy core, so given the
/// same submission times they make the same fault/delay/batching
/// decisions; they differ only in what "time" is (virtual vs wall
/// clock) and how dispatches reach the nodes (direct return vs
/// channels off a network thread).
pub trait Transport {
    /// Implementation name, for diagnostics.
    fn name(&self) -> &'static str;
    /// Hands a protocol message to the fabric.
    fn send(&mut self, from: usize, to: usize, msg: Msg, label: String);
    /// Advances time to `until_us` (microseconds since the transport's
    /// epoch), returning every event dispatched on the way, in
    /// dispatch order.
    fn advance(&mut self, until_us: u64) -> Vec<(usize, NodeEvent)>;
}

/// The deterministic virtual-clock transport: the fabric driven
/// directly, no threads, no wall clock. Sends are stamped at the
/// current virtual instant; [`Transport::advance`] steps the clock
/// through each due time.
pub struct SimTransport {
    fabric: Fabric,
    now_us: u64,
}

impl SimTransport {
    /// A new virtual-clock transport over `schedule`'s faults.
    pub fn new(cfg: &TransportConfig, schedule: &FaultSchedule) -> Self {
        SimTransport {
            fabric: Fabric::new(
                cfg.tick_us,
                cfg.delay_ticks,
                cfg.batch_window_us,
                cfg.seed,
                None,
                None,
                &schedule.events,
            ),
            now_us: 0,
        }
    }

    /// The current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }
}

impl Transport for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn send(&mut self, from: usize, to: usize, msg: Msg, label: String) {
        self.fabric.submit(self.now_us, from, to, msg, label, None);
    }

    fn advance(&mut self, until_us: u64) -> Vec<(usize, NodeEvent)> {
        let mut out = Vec::new();
        while let Some(due) = self.fabric.next_due() {
            if due > until_us {
                break;
            }
            self.now_us = self.now_us.max(due);
            out.extend(self.fabric.pop_due(self.now_us));
        }
        self.now_us = self.now_us.max(until_us);
        out
    }
}

/// A running network thread and the channel ends its owner holds: the
/// one wiring behind both the runtime and [`ThreadedTransport`].
pub(crate) struct Wiring {
    /// Into the network thread.
    pub net: Sender<NetMsg>,
    /// Into each node's inbox (the network thread holds clones).
    pub node_txs: Vec<Sender<NodeEvent>>,
    /// Each node's inbox; the runtime moves these into its node
    /// threads, [`ThreadedTransport`] drains them in place.
    pub node_rxs: Vec<Receiver<NodeEvent>>,
    handle: Option<std::thread::JoinHandle<NetTally>>,
}

impl Wiring {
    /// Builds the channels for `n_nodes` endpoints and spawns the
    /// network thread over the faults of `schedule` that fit those
    /// endpoints (the others are inert), with `start` as the epoch of
    /// its clock. With a profiler, each delivery records its measured
    /// flight time as an anonymous `transport_rtt` sample.
    pub fn spawn(
        n_nodes: usize,
        start: Instant,
        cfg: &TransportConfig,
        schedule: &FaultSchedule,
        rec: Option<Arc<mcv_trace::Recorder>>,
        prof: Option<mcv_prof::Profiler>,
    ) -> Wiring {
        let (net, rx) = mpsc::channel::<NetMsg>();
        let (node_txs, node_rxs): (Vec<_>, Vec<_>) =
            (0..n_nodes).map(|_| mpsc::channel::<NodeEvent>()).unzip();
        let nodes = node_txs.clone();
        let fabric = Fabric::new(
            cfg.tick_us,
            cfg.delay_ticks,
            cfg.batch_window_us,
            cfg.seed,
            rec,
            prof,
            schedule.events.iter().filter(|e| e.fits(n_nodes)),
        );
        let handle = std::thread::Builder::new()
            .name("dist-net".into())
            .spawn(move || run_network(&rx, &nodes, start, fabric))
            .expect("spawn network thread");
        Wiring { net, node_txs, node_rxs, handle: Some(handle) }
    }

    /// Stops the network thread and returns what it counted; `None` if
    /// it was stopped before or panicked.
    pub fn shutdown(&mut self) -> Option<NetTally> {
        let handle = self.handle.take()?;
        let _ = self.net.send(NetMsg::Shutdown);
        handle.join().ok()
    }
}

impl Drop for Wiring {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The network thread: owns every link, drives the shared fabric with
/// wall-clock time, and dispatches due events into per-node channels
/// until shutdown or every sender hangs up. Between dispatches it waits
/// for the next send or the head's due instant, whichever is first —
/// how late a head then leaves is the `late_us` it reports.
fn run_network(
    rx: &Receiver<NetMsg>,
    nodes: &[Sender<NodeEvent>],
    start: Instant,
    mut fabric: Fabric,
) -> NetTally {
    loop {
        let now_us = start.elapsed().as_micros() as u64;
        if let Some(due) = fabric.next_due().filter(|due| *due <= now_us) {
            fabric.tally.dispatches += 1;
            fabric.tally.late_us += now_us - due;
        }
        for (to, ev) in fabric.pop_due(now_us) {
            // A hung-up node (already shut down) just loses traffic.
            let _ = nodes[to].send(ev);
        }
        let due = fabric.next_due().and_then(|due| start.checked_add(Duration::from_micros(due)));
        match recv_until(rx, due) {
            Received::Msg(NetMsg::Send { from, to, msg, label, cause }) => {
                let now_us = start.elapsed().as_micros() as u64;
                fabric.submit(now_us, from, to, msg, label, cause);
            }
            Received::Deadline => {}
            Received::Msg(NetMsg::Shutdown) | Received::Disconnected => return fabric.tally,
        }
    }
}

/// The threaded channel transport behind the [`Transport`] trait: the
/// same network thread the runtime uses, owning the fabric, reached
/// over channels, with wall-clock time. Built for the conformance
/// suite.
pub struct ThreadedTransport {
    start: Instant,
    wiring: Wiring,
}

impl ThreadedTransport {
    /// Spawns a network thread over `schedule`'s faults for `n_nodes`
    /// endpoints.
    pub fn new(n_nodes: usize, cfg: &TransportConfig, schedule: &FaultSchedule) -> Self {
        let start = Instant::now();
        ThreadedTransport {
            start,
            wiring: Wiring::spawn(n_nodes, start, cfg, schedule, None, None),
        }
    }
}

impl Transport for ThreadedTransport {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn send(&mut self, from: usize, to: usize, msg: Msg, label: String) {
        let _ = self.wiring.net.send(NetMsg::Send { from, to, msg, label, cause: None });
    }

    fn advance(&mut self, until_us: u64) -> Vec<(usize, NodeEvent)> {
        // Wall clock: wait past the target instant plus a beat for the
        // network thread to dispatch, then drain the node channels.
        let target = self.start + Duration::from_micros(until_us);
        sleep_until(target.max(Instant::now()) + Duration::from_millis(5));
        let mut out = Vec::new();
        for (node, rx) in self.wiring.node_rxs.iter().enumerate() {
            while let Ok(ev) = rx.try_recv() {
                out.push((node, ev));
            }
        }
        out
    }
}
