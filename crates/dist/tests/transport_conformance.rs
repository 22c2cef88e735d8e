//! Transport conformance: the same delivery, drop-window, partition,
//! crash/recover, duplication, and batching assertions driven against
//! BOTH [`Transport`] implementations — the deterministic virtual-clock
//! [`SimTransport`] and the real threaded network ([`ThreadedTransport`])
//! — plus schedule equivalence through the one runtime: unbatched and
//! batched schedules reach the same per-transaction decisions.
//!
//! Both implementations share the fabric policy core, so every policy
//! assertion here must hold identically in both worlds; only timing
//! jitter differs, and the test scales ticks up (1 ms/tick) and keeps
//! fault windows wide so wall-clock scheduling noise cannot move a
//! submission across a window edge.

use mcv_chaos::{CutKind, FaultEvent, FaultSchedule};
use mcv_commit::Msg;
use mcv_dist::{
    run_pipeline, DistConfig, NodeEvent, PipelineConfig, PipelineOutcome, SimTransport,
    ThreadedTransport, Transport, TransportConfig,
};
use mcv_txn::TxnId;

/// Wide-tick config: 1 ms per tick keeps threaded scheduling jitter
/// (tens of microseconds) far from every window edge.
fn cfg(batch_window_us: u64) -> TransportConfig {
    TransportConfig { tick_us: 1_000, delay_ticks: 3, seed: 42, batch_window_us }
}

/// A tagged probe message; the tag rides in the txn id.
fn probe(tag: u64) -> Msg {
    Msg::VoteReq { txn: TxnId(tag) }
}

fn tag_of(msg: &Msg) -> u64 {
    match msg {
        Msg::VoteReq { txn } => txn.0,
        other => panic!("unexpected message {other:?}"),
    }
}

/// Flattens advance() output into `(node, from, tag)` delivery triples
/// in dispatch order, panicking on unexpected fault events.
fn deliveries(events: Vec<(usize, NodeEvent)>) -> Vec<(usize, usize, u64)> {
    let mut out = Vec::new();
    for (node, ev) in events {
        match ev {
            NodeEvent::Deliver { from, msg, .. } => out.push((node, from, tag_of(&msg))),
            NodeEvent::DeliverBatch(items) => {
                for it in items {
                    out.push((node, it.from, tag_of(&it.msg)));
                }
            }
            other => panic!("unexpected event for node {node}: {other:?}"),
        }
    }
    out
}

/// Collects every event over a generous horizon (200 ms), long past
/// the widest schedule used here.
fn drain(t: &mut dyn Transport) -> Vec<(usize, NodeEvent)> {
    t.advance(200_000)
}

fn each_transport(
    schedule: &FaultSchedule,
    batch_window_us: u64,
    check: impl Fn(&mut dyn Transport),
) {
    let mut sim = SimTransport::new(&cfg(batch_window_us), schedule);
    check(&mut sim);
    let mut threaded = ThreadedTransport::new(4, &cfg(batch_window_us), schedule);
    check(&mut threaded);
}

#[test]
fn fault_free_delivers_everything_in_fifo_order_per_link() {
    each_transport(&FaultSchedule::none(), 0, |t| {
        for tag in 0..8 {
            t.send(0, 1, probe(tag), String::new());
            t.send(2, 3, probe(100 + tag), String::new());
        }
        let got = deliveries(drain(t));
        let link01: Vec<u64> =
            got.iter().filter(|(n, f, _)| *n == 1 && *f == 0).map(|&(_, _, g)| g).collect();
        let link23: Vec<u64> =
            got.iter().filter(|(n, f, _)| *n == 3 && *f == 2).map(|&(_, _, g)| g).collect();
        assert_eq!(link01, (0..8).collect::<Vec<_>>(), "[{}] FIFO on 0->1", t.name());
        assert_eq!(link23, (100..108).collect::<Vec<_>>(), "[{}] FIFO on 2->3", t.name());
        assert_eq!(got.len(), 16, "[{}] nothing lost, nothing invented", t.name());
    });
}

#[test]
fn drop_window_loses_in_window_traffic_only() {
    // The window covers [0, 50) ticks on link 0->1 (50 ms of real time
    // for the threaded impl — submission happens within the first few
    // hundred microseconds).
    let schedule = FaultSchedule {
        events: vec![FaultEvent::DropWindow { src: Some(0), dst: Some(1), from: 0, until: 50 }],
    };
    each_transport(&schedule, 0, |t| {
        t.send(0, 1, probe(1), String::new());
        // The reverse direction is unaffected by the src/dst filter.
        t.send(1, 0, probe(2), String::new());
        // Step past the window, then send again on the same link.
        let mut events = t.advance(60_000);
        t.send(0, 1, probe(3), String::new());
        events.extend(drain(t));
        let got = deliveries(events);
        let tags: Vec<u64> = got.iter().map(|&(_, _, g)| g).collect();
        assert!(!tags.contains(&1), "[{}] in-window send must drop", t.name());
        assert!(tags.contains(&2), "[{}] reverse link must deliver", t.name());
        assert!(tags.contains(&3), "[{}] post-window send must deliver", t.name());
    });
}

#[test]
fn partition_cuts_the_configured_direction() {
    // Node 1 is isolated outbound-only for [0, 50) ticks: 1->x dies,
    // x->1 still flows.
    let schedule = FaultSchedule {
        events: vec![FaultEvent::Partition {
            side: vec![1],
            cut: CutKind::Outbound,
            from: 0,
            until: 50,
        }],
    };
    each_transport(&schedule, 0, |t| {
        t.send(1, 0, probe(1), String::new()); // blocked: outbound from the side
        t.send(0, 1, probe(2), String::new()); // allowed: inbound to the side
        let got = deliveries(drain(t));
        let tags: Vec<u64> = got.iter().map(|&(_, _, g)| g).collect();
        assert!(!tags.contains(&1), "[{}] outbound across the cut must drop", t.name());
        assert!(tags.contains(&2), "[{}] inbound across the cut must deliver", t.name());
    });
}

#[test]
fn crash_and_recover_dispatch_to_the_scheduled_node() {
    let schedule = FaultSchedule {
        events: vec![FaultEvent::Crash { proc: 2, at: 5 }, FaultEvent::Recover { proc: 2, at: 20 }],
    };
    each_transport(&schedule, 0, |t| {
        let mut crash_seen = false;
        let mut recover_seen = false;
        for (node, ev) in drain(t) {
            match ev {
                NodeEvent::Crash => {
                    assert_eq!(node, 2, "[{}] crash targets node 2", t.name());
                    assert!(!recover_seen, "[{}] crash precedes recover", t.name());
                    crash_seen = true;
                }
                NodeEvent::Recover => {
                    assert_eq!(node, 2, "[{}] recover targets node 2", t.name());
                    assert!(crash_seen, "[{}] recover follows crash", t.name());
                    recover_seen = true;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(crash_seen && recover_seen, "[{}] both faults dispatched", t.name());
    });
}

#[test]
fn dup_window_delivers_at_least_two_copies() {
    let schedule = FaultSchedule {
        events: vec![FaultEvent::DupWindow { src: Some(0), dst: Some(1), from: 0, until: 50 }],
    };
    each_transport(&schedule, 0, |t| {
        t.send(0, 1, probe(7), String::new());
        let got = deliveries(drain(t));
        let copies = got.iter().filter(|&&(n, f, g)| n == 1 && f == 0 && g == 7).count();
        assert!(copies >= 2, "[{}] dup window produced {copies} copies", t.name());
    });
}

#[test]
fn batching_delivers_everything_in_order() {
    // A wide batching window: the burst must still arrive complete and
    // FIFO per link — batching may only merge deliveries, never lose
    // or reorder them.
    each_transport(&FaultSchedule::none(), 2_000, |t| {
        for tag in 0..12 {
            t.send(0, 1, probe(tag), String::new());
        }
        let got = deliveries(drain(t));
        let tags: Vec<u64> =
            got.iter().filter(|(n, f, _)| *n == 1 && *f == 0).map(|&(_, _, g)| g).collect();
        assert_eq!(tags, (0..12).collect::<Vec<_>>(), "[{}] batched FIFO intact", t.name());
    });
}

#[test]
fn batching_merges_a_burst_into_fewer_dispatches() {
    // Virtual clock only — the assertion is about dispatch shape, and
    // the sim transport submits the whole burst at one instant, so the
    // batch head is guaranteed to still be in flight. The window must
    // cover the widest hop (3 ticks = 3 ms here) for the whole burst
    // to join the head.
    let mut t = SimTransport::new(&cfg(4_000), &FaultSchedule::none());
    for tag in 0..12 {
        t.send(0, 1, probe(tag), String::new());
    }
    let events = drain(&mut t);
    let batched = events
        .iter()
        .any(|(_, ev)| matches!(ev, NodeEvent::DeliverBatch(items) if items.len() > 1));
    assert!(batched, "a same-instant burst under a wide window must merge deliveries");
    assert_eq!(deliveries(events).len(), 12);
}

#[test]
fn zero_window_reproduces_the_serial_schedule_exactly() {
    // batch_window_us == 0 must be bit-for-bit the serial schedule:
    // same RNG draws, same FIFO clamps, same delivery order — checked
    // by running the same sends through two sim transports, one built
    // with batching disabled and one with the window set but no
    // overlapping traffic (single spaced sends never form a batch).
    let mut serial = SimTransport::new(&cfg(0), &FaultSchedule::none());
    let mut spaced = SimTransport::new(&cfg(2_000), &FaultSchedule::none());
    let mut serial_got = Vec::new();
    let mut spaced_got = Vec::new();
    for tag in 0..6 {
        let at = tag * 20_000; // 20 ms apart: far wider than any batch window
        serial.advance(at);
        spaced.advance(at);
        serial.send(0, 1, probe(tag), String::new());
        spaced.send(0, 1, probe(tag), String::new());
        serial_got.extend(deliveries(serial.advance(at + 10_000)));
        spaced_got.extend(deliveries(spaced.advance(at + 10_000)));
    }
    assert_eq!(serial_got, spaced_got, "spaced traffic must match the serial schedule");
}

/// The same workload under the unbatched schedule (every plan at once,
/// per-message transport) and the batched one (windowed pump, 600 us
/// link batches).
fn unbatched_and_batched(dist: &DistConfig) -> (PipelineOutcome, PipelineOutcome) {
    let unbatched = run_pipeline(&PipelineConfig {
        dist: dist.clone(),
        max_inflight: dist.n_txns,
        batch_window_us: 0,
        arrival_us: None,
    });
    let batched = run_pipeline(&PipelineConfig {
        dist: dist.clone(),
        max_inflight: dist.n_txns,
        batch_window_us: 600,
        arrival_us: None,
    });
    (unbatched, batched)
}

/// Asserts both runs are oracle-clean and every transaction reached
/// `expect` (`true` = commit) at every node that decided it, under both
/// schedules.
fn assert_decision_parity(
    seed: u64,
    dist: &DistConfig,
    (unbatched, batched): &(PipelineOutcome, PipelineOutcome),
    expect: bool,
) {
    assert!(unbatched.violated().is_none(), "seed {seed}: {:?}", unbatched.violated());
    assert!(batched.violated().is_none(), "seed {seed}: {:?}", batched.violated());
    for txn in dist.global_txns() {
        let u = unbatched.decisions.iter().find(|(k, _)| k.1 == txn.0).map(|(_, c)| *c);
        let b = batched.decisions.iter().find(|(k, _)| k.1 == txn.0).map(|(_, c)| *c);
        assert_eq!(u, b, "seed {seed} txn {} decision parity", txn.0);
        assert_eq!(u, Some(expect), "seed {seed} txn {} decision", txn.0);
    }
}

#[test]
fn unbatched_and_batched_schedules_reach_the_same_decisions() {
    for seed in [1u64, 9, 23] {
        // No fault to time out on: a patient timeout keeps a scheduler
        // stall from surfacing as a legitimate abort.
        let dist =
            DistConfig { n_shards: 2, n_txns: 6, seed, timeout: 2_000, ..DistConfig::default() };
        let runs = unbatched_and_batched(&dist);
        assert_decision_parity(seed, &dist, &runs, true);
        // Fault-free: AC2 obliges both schedules to commit everything.
        assert_eq!(runs.0.stats.committed, 6, "seed {seed} unbatched");
        assert_eq!(runs.1.stats.committed, 6, "seed {seed} batched");
    }
}

#[test]
fn unbatched_and_batched_schedules_agree_on_vote_no_aborts() {
    for seed in [4u64, 17] {
        let dist =
            DistConfig { n_shards: 2, n_txns: 4, seed, vote_no: Some(1), ..DistConfig::default() };
        let runs = unbatched_and_batched(&dist);
        assert_decision_parity(seed, &dist, &runs, false);
        assert_eq!(runs.0.stats.aborted, 4, "seed {seed} unbatched aborts all");
        assert_eq!(runs.1.stats.aborted, 4, "seed {seed} batched aborts all");
        assert_eq!(runs.0.stats.committed, 0);
        assert_eq!(runs.1.stats.committed, 0);
    }
}
