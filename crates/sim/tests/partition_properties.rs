//! Property tests of the network model.
//!
//! The partition cut: the symmetric cut separates exactly the messages
//! with one endpoint inside the side, and the asymmetric variants cut
//! exactly one direction of that separation. Every verdict is checked
//! twice — by [`CutKind::blocks`] and by the link core routing a message
//! while the partition is active.
//!
//! Ticks mapped onto host units: a core at `unit = k` gives every
//! message the fate it gets at `unit = 1`, with its due instants scaled
//! by `k`. The FIFO clamp is the one exception to exact scaling: it
//! moves a copy one host unit (one tick at `unit = 1`, one microsecond
//! on the dist fabric) past its link's last delivery, so a clamped copy
//! is due no later than `k` times its unit-1 instant.

use mcv_sim::{CutKind, Fate, FaultEvent, LinkCore};
use proptest::prelude::*;
use std::collections::BTreeMap;

const N: usize = 8;

fn side_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..N, 0..N).prop_map(|s| s.into_iter().collect())
}

/// Whether a `cut` partition around `side` loses a message from `a` to
/// `b`, after checking that the link core routes it the same way inside
/// the window and delivers it once the partition heals.
fn blocks(side: &[usize], cut: CutKind, a: usize, b: usize) -> bool {
    let mut net = LinkCore::new(1, 5, 0, 0);
    net.add_window(&FaultEvent::Partition { side: side.to_vec(), cut, from: 2, until: 9 });
    let verdict = cut.blocks(side, a, b);
    assert_eq!(net.route(4, a, b) == Fate::Cut, verdict, "{cut:?} {side:?} {a}->{b}");
    assert!(matches!(net.route(9, a, b), Fate::Due(..)), "healed at the window end");
    verdict
}

fn separates(side: &[usize], a: usize, b: usize) -> bool {
    side.contains(&a) != side.contains(&b)
}

proptest! {
    #[test]
    fn the_symmetric_cut_is_symmetric(side in side_strategy(), a in 0..N, b in 0..N) {
        prop_assert_eq!(blocks(&side, CutKind::Both, a, b), blocks(&side, CutKind::Both, b, a));
    }

    #[test]
    fn no_cut_blocks_a_self_send(side in side_strategy(), a in 0..N) {
        for cut in [CutKind::Both, CutKind::Outbound, CutKind::Inbound] {
            prop_assert!(!blocks(&side, cut, a, a));
        }
    }

    #[test]
    fn the_symmetric_cut_blocks_iff_exactly_one_endpoint_is_isolated(
        side in side_strategy(), a in 0..N, b in 0..N,
    ) {
        prop_assert_eq!(blocks(&side, CutKind::Both, a, b), separates(&side, a, b));
    }

    #[test]
    fn outbound_blocks_exactly_outbound(side in side_strategy(), a in 0..N, b in 0..N) {
        let expected = side.contains(&a) && !side.contains(&b);
        prop_assert_eq!(blocks(&side, CutKind::Outbound, a, b), expected);
    }

    #[test]
    fn inbound_blocks_exactly_inbound(side in side_strategy(), a in 0..N, b in 0..N) {
        let expected = !side.contains(&a) && side.contains(&b);
        prop_assert_eq!(blocks(&side, CutKind::Inbound, a, b), expected);
    }

    #[test]
    fn one_way_cuts_never_block_both_directions(side in side_strategy(), a in 0..N, b in 0..N) {
        for cut in [CutKind::Outbound, CutKind::Inbound] {
            prop_assert!(!(blocks(&side, cut, a, b) && blocks(&side, cut, b, a)));
            // An asymmetric cut still only acts across the separation.
            if blocks(&side, cut, a, b) {
                prop_assert!(separates(&side, a, b));
            }
        }
    }

    #[test]
    fn outbound_and_inbound_partition_the_symmetric_cut(
        side in side_strategy(), a in 0..N, b in 0..N,
    ) {
        // Outbound + inbound cuts together block exactly what the
        // symmetric cut blocks, and never both on the same message.
        let out = blocks(&side, CutKind::Outbound, a, b);
        let inb = blocks(&side, CutKind::Inbound, a, b);
        prop_assert_eq!(blocks(&side, CutKind::Both, a, b), out || inb);
        prop_assert!(!(out && inb));
    }
}

/// Processes of the scaling property's topology.
const PROCS: usize = 4;
/// Every fault lies inside `[0, HORIZON)` ticks.
const HORIZON: u64 = 60;

/// Fault lists shaped like `FaultSchedule::generate` under
/// `FaultPlan::full`: every kind, partitions with every cut, link
/// windows with optional endpoints.
fn fault_strategy() -> impl Strategy<Value = FaultEvent> {
    let proc = 0..PROCS;
    let end = || prop::option::of(0..PROCS);
    let window =
        (1..HORIZON - 1, 1..HORIZON).prop_map(|(from, len)| (from, (from + len).min(HORIZON)));
    let cut = prop_oneof![Just(CutKind::Both), Just(CutKind::Outbound), Just(CutKind::Inbound)];
    prop_oneof![
        (proc.clone(), 1..HORIZON).prop_map(|(proc, at)| FaultEvent::Crash { proc, at }),
        (proc.clone(), 1..HORIZON).prop_map(|(proc, at)| FaultEvent::Recover { proc, at }),
        (proc, 1..HORIZON, 0..32usize).prop_map(|(proc, at, keep_bytes)| FaultEvent::TornWrite {
            proc,
            at,
            keep_bytes
        }),
        (prop::collection::btree_set(0..PROCS, 1..PROCS), cut, window.clone()).prop_map(
            |(side, cut, (from, until))| FaultEvent::Partition {
                side: side.into_iter().collect(),
                cut,
                from,
                until
            }
        ),
        (end(), end(), window, 0..3u8).prop_map(|(src, dst, (from, until), kind)| match kind {
            0 => FaultEvent::DropWindow { src, dst, from, until },
            1 => FaultEvent::DupWindow { src, dst, from, until },
            _ => FaultEvent::ReorderWindow { src, dst, from, until },
        }),
    ]
}

/// Routes `sends` (`(ticks since the previous send, from, to)`) through
/// a core at `unit`, returning each message's send tick and fate.
fn route_all(
    unit: u64,
    seed: u64,
    faults: &[FaultEvent],
    sends: &[(u64, usize, usize)],
) -> Vec<(u64, Fate)> {
    let mut net = LinkCore::new(unit, 5, 0, seed);
    for ev in faults {
        net.add_window(ev);
    }
    let mut tick = 0;
    sends
        .iter()
        .map(|&(gap, from, to)| {
            tick += gap;
            (tick, net.route(tick * unit, from, to))
        })
        .collect()
}

/// Whether a reorder window covers a `from -> to` send at `tick`.
fn reordered(faults: &[FaultEvent], tick: u64, from: usize, to: usize) -> bool {
    faults.iter().any(|ev| {
        matches!(ev, FaultEvent::ReorderWindow { src, dst, from: a, until: b }
            if (*a..*b).contains(&tick)
                && src.is_none_or(|s| s == from)
                && dst.is_none_or(|d| d == to))
    })
}

proptest! {
    #[test]
    fn ticks_scale_onto_host_units(
        seed in 0u64..1_000,
        k in 2u64..1_000,
        faults in prop::collection::vec(fault_strategy(), 1..7),
        sends in prop::collection::vec((0u64..4, 0..PROCS, 0..PROCS), 1..80),
    ) {
        let one = route_all(1, seed, &faults, &sends);
        let scaled = route_all(k, seed, &faults, &sends);
        // Per link, the last unit-1 instant of a copy the FIFO clamp
        // orders (reordered copies skip it).
        let mut last: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (i, ((tick, f1), (_, fk))) in one.iter().zip(&scaled).enumerate() {
            let (_, from, to) = sends[i];
            match (f1, fk) {
                (Fate::Due(a1, b1), Fate::Due(ak, bk)) => {
                    prop_assert_eq!(b1.is_some(), bk.is_some(), "message {}: copies differ", i);
                    let reorder = reordered(&faults, *tick, from, to);
                    for (h1, hk) in [(Some(a1), Some(ak)), (b1.as_ref(), bk.as_ref())] {
                        let (Some(h1), Some(hk)) = (h1, hk) else { continue };
                        prop_assert!(!h1.batched && !hk.batched);
                        prop_assert!(hk.due > tick * k && hk.due <= h1.due * k, "message {}", i);
                        let link_last = last.get(&(from, to)).copied().unwrap_or(0);
                        if reorder || h1.due != link_last + 1 {
                            // Not moved by the clamp: scaled exactly.
                            prop_assert_eq!(hk.due, h1.due * k, "message {}", i);
                        }
                        if !reorder {
                            last.insert((from, to), h1.due);
                        }
                    }
                }
                _ => prop_assert_eq!(f1, fk, "message {}: fates differ", i),
            }
        }
    }
}
