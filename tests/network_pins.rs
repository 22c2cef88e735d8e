//! Pins what the network does, end to end, through its three hosts:
//!
//! - (a) `run_chaos`: fingerprint, every oracle verdict and the recorded
//!   trace length, hardened and naive, under `FaultPlan::full` (every
//!   window kind plus torn writes) and `FaultPlan::tolerated`;
//! - (b) `run_scenario`: decisions and message counts for six harness
//!   shapes, partition and late recovery included;
//! - (c) `SimTransport`: the timed delivery sequence under each fault
//!   kind, unbatched and with 600 us link batches.
//!
//! Each case renders to text and is pinned by the text's FNV-1a 64
//! hash. A refactor of the network must leave every hash unchanged; on
//! a mismatch the test names the first diverging case and prints its
//! text.

use mcv::chaos::{run_chaos, CutKind, FaultEvent, FaultPlan, FaultSchedule};
use mcv::commit::{run_scenario, CrashPoint, Msg, Protocol, Scenario};
use mcv::dist::{NodeEvent, SimTransport, Transport, TransportConfig};
use mcv::txn::TxnId;
use std::fmt::Write as _;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Compares each case's hash with its pin (`pins`: whitespace-separated
/// hex), in order; panics at the first divergence with the case's label
/// and text, and lists every computed hash so a deliberate behaviour
/// change can re-pin.
fn check(what: &str, cases: Vec<(String, String)>, pins: &str) {
    let pinned: Vec<&str> = pins.split_whitespace().collect();
    let got: Vec<String> = cases.iter().map(|(_, text)| format!("{:016x}", fnv1a(text))).collect();
    let first = got.iter().enumerate().find(|(i, h)| pinned.get(*i) != Some(&h.as_str()));
    if let Some((i, h)) = first {
        let (label, text) = &cases[i];
        panic!(
            "{what}: first divergence at case {i} ({label})\n  pinned {}\n  got    {h}\n\
             --- text ---\n{text}--- all hashes ---\n{}",
            pinned.get(i).unwrap_or(&"none"),
            got.join(" "),
        );
    }
    assert_eq!(got.len(), pinned.len(), "{what}: case count changed");
}

const CHAOS_SEEDS: u64 = 100;

#[test]
fn chaos_runs_are_pinned() {
    let mut cases = Vec::new();
    for (plan_name, plan) in [
        ("full", FaultPlan::full(4, 300)),
        ("full-dense", FaultPlan::full(4, 60)),
        ("tolerated", FaultPlan::tolerated(4, 300)),
    ] {
        for naive in [false, true] {
            let base = Scenario {
                naive_timeouts: naive,
                quorum_termination: !naive,
                ..Scenario::default()
            };
            for seed in 0..CHAOS_SEEDS {
                let cfg = Scenario { seed, schedule: plan.generate(seed), ..base.clone() };
                let out = run_chaos(&cfg);
                let mut text = out.fingerprint.clone();
                for o in &out.oracles {
                    let _ = writeln!(text, "{} {} {}", o.name, o.pass, o.detail);
                }
                let _ = writeln!(text, "trace {}", out.trace.events.len());
                cases.push((format!("{plan_name} naive={naive} seed={seed}"), text));
            }
        }
    }
    check("chaos", cases, CHAOS_PINS);
}

/// The six harness shapes: the two protocols fault-free, each
/// protocol's coordinator crash with a late recovery, a partition under
/// quorum termination, and a no vote beside a crashed cohort.
fn shapes() -> Vec<(&'static str, Scenario)> {
    vec![
        ("3pc", Scenario::default()),
        ("2pc", Scenario { protocol: Protocol::TwoPhase, ..Scenario::default() }),
        (
            "3pc-crash",
            Scenario {
                coordinator_crash: Some(CrashPoint::AfterPrepare),
                recovery_at: Some(400),
                ..Scenario::default()
            },
        ),
        (
            "2pc-crash",
            Scenario {
                protocol: Protocol::TwoPhase,
                coordinator_crash: Some(CrashPoint::AfterVotes),
                recovery_at: Some(400),
                ..Scenario::default()
            },
        ),
        (
            "partition",
            Scenario {
                n_cohorts: 4,
                schedule: FaultSchedule {
                    events: vec![FaultEvent::Partition {
                        side: vec![1, 3],
                        cut: CutKind::Both,
                        from: 3,
                        until: 250,
                    }],
                },
                quorum_termination: true,
                ..Scenario::default()
            },
        ),
        (
            "vote-no",
            Scenario {
                vote_no_cohort: Some(0),
                cohort_crash: Some((1, CrashPoint::AfterVoteYes)),
                recovery_at: Some(300),
                n_transactions: 2,
                ..Scenario::default()
            },
        ),
    ]
}

#[test]
fn harness_scenarios_are_pinned() {
    let mut cases = Vec::new();
    for (name, shape) in shapes() {
        for seed in 0..4 {
            let r = run_scenario(&Scenario { seed, ..shape.clone() });
            let mut text = String::new();
            for d in &r.decisions {
                let _ = writeln!(text, "{} {} {} {}", d.time.ticks(), d.site, d.txn, d.commit);
            }
            let s = &r.stats;
            let _ = writeln!(
                text,
                "uniform={} outcome={:?} nonblocking={} blocked={:?} messages={}\n\
                 sent={} delivered={} dropped={} partition={} window={} dup={} timers={} \
                 events={} end={}",
                r.uniform,
                r.outcome,
                r.nonblocking,
                r.blocked_before_recovery,
                r.messages,
                s.messages_sent,
                s.messages_delivered,
                s.messages_dropped,
                s.dropped_by_partition,
                s.dropped_by_window,
                s.messages_duplicated,
                s.timer_fires,
                s.events,
                s.end_time.ticks(),
            );
            cases.push((format!("{name} seed={seed}"), text));
        }
    }
    check("harness", cases, HARNESS_PINS);
}

/// Both runners apply a scenario's dated faults and late recovery
/// through one path: on every harness shape, `run_scenario`'s decisions
/// are the decision lines of `run_chaos`'s fingerprint.
#[test]
fn both_runners_decide_the_harness_shapes_alike() {
    for (name, shape) in shapes() {
        for seed in 0..4 {
            let sc = Scenario { seed, ..shape.clone() };
            let mut harness = String::new();
            for d in &run_scenario(&sc).decisions {
                let verdict = if d.commit { "commit" } else { "abort" };
                let _ = writeln!(harness, "{} {} {} {verdict}", d.time.ticks(), d.site, d.txn);
            }
            let fingerprint = run_chaos(&sc).fingerprint;
            let chaos = fingerprint.lines().filter(|l| !l.starts_with("sent="));
            let chaos: String = chaos.map(|l| format!("{l}\n")).collect();
            assert_eq!(harness, chaos, "{name} seed={seed}");
        }
    }
}

/// One schedule per fault kind, then generated `FaultPlan::full` ones.
fn transport_schedules() -> Vec<(String, FaultSchedule)> {
    let one = |e: FaultEvent| FaultSchedule { events: vec![e] };
    let mut out = vec![
        ("none".to_owned(), FaultSchedule::none()),
        (
            "crash".to_owned(),
            FaultSchedule {
                events: vec![
                    FaultEvent::Crash { proc: 2, at: 9 },
                    FaultEvent::Recover { proc: 2, at: 31 },
                ],
            },
        ),
        (
            "torn".to_owned(),
            FaultSchedule {
                events: vec![
                    FaultEvent::TornWrite { proc: 1, at: 12, keep_bytes: 4 },
                    FaultEvent::Recover { proc: 1, at: 40 },
                ],
            },
        ),
    ];
    for cut in [CutKind::Both, CutKind::Outbound, CutKind::Inbound] {
        let p = FaultEvent::Partition { side: vec![0, 3], cut, from: 5, until: 40 };
        out.push((format!("partition-{cut:?}"), one(p)));
    }
    out.push((
        "drop".to_owned(),
        one(FaultEvent::DropWindow { src: Some(0), dst: None, from: 4, until: 30 }),
    ));
    out.push((
        "dup".to_owned(),
        one(FaultEvent::DupWindow { src: None, dst: Some(1), from: 2, until: 35 }),
    ));
    out.push((
        "reorder".to_owned(),
        one(FaultEvent::ReorderWindow { src: None, dst: None, from: 3, until: 45 }),
    ));
    for seed in 0..4 {
        out.push((format!("full-{seed}"), FaultPlan::full(4, 60).generate(seed)));
    }
    out
}

fn tag_of(msg: &Msg) -> u64 {
    match msg {
        Msg::VoteReq { txn } => txn.0,
        other => panic!("unexpected message {other:?}"),
    }
}

/// Drives a `SimTransport` one microsecond at a time for 16 ms, with a
/// burst of three sends every 97 us over the four nodes' links, and
/// renders every dispatch with its instant.
fn transport_text(cfg: &TransportConfig, schedule: &FaultSchedule) -> String {
    let mut net = SimTransport::new(cfg, schedule);
    let mut text = String::new();
    let mut burst = 0u64;
    for now in 0..16_000u64 {
        if now % 97 == 0 && now < 12_000 {
            for i in 0..3 {
                let from = ((burst * 7 + i) % 4) as usize;
                let to = (from + 1 + ((burst + i) % 3) as usize) % 4;
                net.send(from, to, Msg::VoteReq { txn: TxnId(burst * 3 + i) }, String::new());
            }
            burst += 1;
        }
        for (node, ev) in net.advance(now) {
            let _ = match ev {
                NodeEvent::Deliver { from, msg, .. } => {
                    writeln!(text, "{now} {node} <- {from}:{}", tag_of(&msg))
                }
                NodeEvent::DeliverBatch(items) => {
                    let items: Vec<String> =
                        items.iter().map(|it| format!("{}:{}", it.from, tag_of(&it.msg))).collect();
                    writeln!(text, "{now} {node} <= {}", items.join(" "))
                }
                other => writeln!(text, "{now} {node} {other:?}"),
            };
        }
    }
    text
}

#[test]
fn sim_transport_schedules_are_pinned() {
    let mut cases = Vec::new();
    for batch_window_us in [0, 600] {
        for (name, schedule) in transport_schedules() {
            let cfg = TransportConfig { tick_us: 200, delay_ticks: 3, seed: 42, batch_window_us };
            cases
                .push((format!("{name} batch={batch_window_us}"), transport_text(&cfg, &schedule)));
        }
    }
    check("transport", cases, TRANSPORT_PINS);
}

const CHAOS_PINS: &str = "\
b55b6dd95d4394a7 72c442b928a491cb 96c4df697546fc3c 089bf120c819edd4 d33352e4c6cf2c1f
1035eb7e617a748d d05ae89c1383e489 b98dd96316c388e5 24ff92a9c3ce164d a1a9b576fb90d66f
44c09e8e28aa7e1d cedfc957d3b61ae8 1b1a3f8fc52b324d b68f45cd7fb6bbaa b9db6f81bbf06038
541805c19834b4ff 03885a79c2fe6120 50c247aa26c2da85 95666c6ba484be90 25eb15b39cda936c
8699495181e5cf5f 02cc349775f1c2c1 f8988f4200eea92f f51b0c977075a3b8 c464d95e339c1080
ad2932ac09e82e9a 7877182094630a06 dd2a505fad8b0f65 45143e2b3ca0847f f93a84946d55e3f5
d181af3e96390434 86e0acb88bd61511 81ce15c92e09aba6 b4f4882f065a9347 e86cb2fb96224a11
7d67e56ac7ff83ec 4345156b2c22359c 2b8526b3336e5790 9c63a4cac9564a22 ff8254169863ae14
beaf61bcb59dda71 ac57ff3a29ffb02f 6f63a4a5178ba39a db374810ae4cd67d e116cf1e8881627f
7b9f8c771ca3ae16 578a1f57f1b48c4b 6522fd5847a547fe 86d11a7ccee2956e ea411aa87d302b94
d9c965b6260549b3 c187c2d6e6ed5993 92237a306058c680 24f3d09314f59996 82ab6ee5b4b89e2d
7fbeb67f5fe888a3 d355b28c07a425c3 8c5fec8041860982 bfe1c58937b81bfd 71db17c291a03d3a
f1be76ea5e30faae dc5a7eb8e4e916ed 24277a075009a19c a4c6b1e4f1c5665c 5d7d1d96dc3a4e66
f1edce08290f9005 c46fe5c62c72d7b9 b24c7e6002f8f67a 8979c3dee3ad4d41 b673503e15bfad9b
ad701f6da251bff4 0524f8b65f18ee4d 3a766b514bec90f4 b5ca957a8c587e63 0554583ce29ac086
007fbdf3baa00a4e c37ac101912dfffd 4b8c91340352f608 43c7bbfe95379d23 ab595eb067471eb3
845745396fba2287 c157a90273d04ea7 0b865a34dabdcecb c87044215403cb3c 5d97308dbd3a1877
2afd575e75024a02 72cbb45f500ff231 ce818850b88e0df5 f023d438da5cd273 9435d65a73a7d80e
4955423fe96fbf6b 067a9da86e25988c 60c39faa653860bb b3f6cbdfb4040044 28e8ee6491e4f920
515eed01a61e4280 442ff48461a1bc34 be400a574a359b59 2cd7878b540b7f1e 0be6576c87f8535e
b55b6dd95d4394a7 72c442b928a491cb 96c4df697546fc3c 089bf120c819edd4 d33352e4c6cf2c1f
0e0480f6fba0984e 162a13fff4a5ff6a b98dd96316c388e5 24ff92a9c3ce164d a1a9b576fb90d66f
44c09e8e28aa7e1d 703f33838cd851cd 1b1a3f8fc52b324d b68f45cd7fb6bbaa b9db6f81bbf06038
541805c19834b4ff 03885a79c2fe6120 2309912b7e8ce6ce 95666c6ba484be90 25eb15b39cda936c
8699495181e5cf5f 02cc349775f1c2c1 f8988f4200eea92f f51b0c977075a3b8 c464d95e339c1080
ad2932ac09e82e9a 7877182094630a06 dd2a505fad8b0f65 45143e2b3ca0847f f93a84946d55e3f5
d181af3e96390434 86e0acb88bd61511 81ce15c92e09aba6 b4f4882f065a9347 e86cb2fb96224a11
7d67e56ac7ff83ec 4345156b2c22359c 2b8526b3336e5790 9c63a4cac9564a22 ff8254169863ae14
beaf61bcb59dda71 ac57ff3a29ffb02f 6f63a4a5178ba39a db374810ae4cd67d e116cf1e8881627f
49aa12c6571eba69 578a1f57f1b48c4b 6522fd5847a547fe 86d11a7ccee2956e ea411aa87d302b94
d9c965b6260549b3 c187c2d6e6ed5993 d049d318bd3592d2 24f3d09314f59996 82ab6ee5b4b89e2d
2c0899ce423aaa23 d355b28c07a425c3 8c5fec8041860982 bfe1c58937b81bfd 71db17c291a03d3a
ce914b33bde20d99 dc5a7eb8e4e916ed 24277a075009a19c a4c6b1e4f1c5665c 5d7d1d96dc3a4e66
f1edce08290f9005 c46fe5c62c72d7b9 b24c7e6002f8f67a 8979c3dee3ad4d41 b673503e15bfad9b
ad701f6da251bff4 30a9bca03e2c522f 3a766b514bec90f4 b5ca957a8c587e63 708c601a0401695b
007fbdf3baa00a4e c37ac101912dfffd 4b8c91340352f608 150787f8795c1a30 ab595eb067471eb3
845745396fba2287 c157a90273d04ea7 0b865a34dabdcecb c87044215403cb3c 5d97308dbd3a1877
2afd575e75024a02 72cbb45f500ff231 ce818850b88e0df5 f023d438da5cd273 9435d65a73a7d80e
4955423fe96fbf6b 067a9da86e25988c 60c39faa653860bb b3f6cbdfb4040044 28e8ee6491e4f920
515eed01a61e4280 442ff48461a1bc34 be400a574a359b59 2cd7878b540b7f1e 0be6576c87f8535e
ec3d91abd7896f31 72c442b928a491cb 1cddc77dbf2dd753 95c6961b5e8c73d5 0ccbae31045d57e8
a3212fdcdd58dc66 0b5c9026f60c9798 de68b081e3030857 20fd9d1910c299be 8c47d8f89876f265
44c09e8e28aa7e1d 43eac1cc7e16df7b 5e25263084ce7b5d b68f45cd7fb6bbaa 176744fb81ee2be1
5f345ff0eb76b5f3 03885a79c2fe6120 f5cd20159777a758 f18ebd167f3d2b08 25eb15b39cda936c
4290487306cdc0fa 7157ce18649ba6f5 ab9dcfb2789b31c4 f51b0c977075a3b8 8a3580999ca91512
ad2932ac09e82e9a ee8c5c9f611bff1d 9f5986909d0fcd73 45143e2b3ca0847f 45ce1de7f3372e99
eb14ca3ea497850a 79834f72d90ce2f0 81ce15c92e09aba6 b4f4882f065a9347 b666bedfd81dbe4b
3d919582220a8996 1b07af71703c7e75 1483002e809f2cde 9c63a4cac9564a22 5ab183c731bc5ce3
6d5dc98183862b56 e907e1c4ab6ddf87 6f63a4a5178ba39a 5cdd831645fc53e5 87ecb05c17b77b52
3338c850d0f0766f 062164e661fb3496 2af1e5d4e3005c61 cc2617cbb2b0fe6a ab018dcc91cae800
cc9b8593b2311b6d 32d856242028cd6c 04ec4adc90edccad 038e3639297c246d 3580b1e195855fc1
e0661b0619353439 700243b7c26a2319 8c5fec8041860982 bf53c9974b3c0370 71db17c291a03d3a
c073015d3e2f84b3 84305d67d15e187c 24277a075009a19c b1a02ff87d6c1d95 3cb24d18cc1658c4
f1edce08290f9005 9dd17b7d0e68817b b24c7e6002f8f67a 6d9a277700b1e95c b5c81d257d547b6e
ad701f6da251bff4 bdd8fc80c3a60617 3a766b514bec90f4 a8ff30fe13adf997 b507c2ea77ad57d5
007fbdf3baa00a4e c2f20255701a2372 0ba8c8229f5401c5 7d5c94e88adb0377 a9179ace68c5d028
6290df8e3b59d703 c7a9a1b80de8914d 5381076877d8c722 c87044215403cb3c 3f9f269ecbd097d8
f94c10bf87018f69 72cbb45f500ff231 81bc116889132c4e f80dfdb16f05052d 7990cd9fccb038be
1e48a5d52a43a240 2c5e59b7f13c65b6 64fdc2dd5af74992 71f3b9e53d67bcc2 252426e403f1ed58
457646a49bdc9af3 a07b5fc4821f118b f75d83f9d8ca83e6 18a3044834e79dc6 ababc4a6cd9fcfb0
c1c8d6cc0a5ff7f5 72c442b928a491cb 1cddc77dbf2dd753 eff10836adbbed6b 0e4c111cb28006c0
f7782c99092a18ad 0b5c9026f60c9798 d5c02f029fcaecd3 20fd9d1910c299be 8c47d8f89876f265
44c09e8e28aa7e1d 03ef4f8dff667e86 5e25263084ce7b5d b68f45cd7fb6bbaa 176744fb81ee2be1
ed7d296dc7c8f2c6 03885a79c2fe6120 f5cd20159777a758 61ebf786e4cf672d 25eb15b39cda936c
4290487306cdc0fa 7157ce18649ba6f5 ab9dcfb2789b31c4 f51b0c977075a3b8 2e43cf5f41a5f474
ad2932ac09e82e9a ee8c5c9f611bff1d 9f5986909d0fcd73 45143e2b3ca0847f 5f306fac3a063c71
eb14ca3ea497850a 79834f72d90ce2f0 81ce15c92e09aba6 b4f4882f065a9347 b666bedfd81dbe4b
ce7ec863a3f16b24 1b07af71703c7e75 1483002e809f2cde 9c63a4cac9564a22 5ab183c731bc5ce3
6d5dc98183862b56 8c0052cef1b4ed05 6f63a4a5178ba39a 5cdd831645fc53e5 87ecb05c17b77b52
3338c850d0f0766f fef28e75915d4458 2af1e5d4e3005c61 b8405303772cf202 bfed00789bdc339a
d41353a449190082 32d856242028cd6c 04ec4adc90edccad 6b1c3e8d4c4e285f 3580b1e195855fc1
e0661b0619353439 35b45a846dadb164 8c5fec8041860982 bf53c9974b3c0370 71db17c291a03d3a
c073015d3e2f84b3 0b71ede52c6f61e9 24277a075009a19c b1a02ff87d6c1d95 3cb24d18cc1658c4
f1edce08290f9005 5cc75b648c42f093 b24c7e6002f8f67a 773dbfdc1830e053 b5c81d257d547b6e
ad701f6da251bff4 bdd8fc80c3a60617 3a766b514bec90f4 a8ff30fe13adf997 b507c2ea77ad57d5
007fbdf3baa00a4e b40bd88f6ac6d4b6 7dcc4066a9b8c19e 6b7786ea09a79763 a9179ace68c5d028
e9995a1fdc909c06 fe1914825c7a7e43 5381076877d8c722 c87044215403cb3c 3f9f269ecbd097d8
c59bf163424dec9b 72cbb45f500ff231 81bc116889132c4e f80dfdb16f05052d 134e62afb79824ba
d1fb94a9b514ffc7 2c5e59b7f13c65b6 64fdc2dd5af74992 71f3b9e53d67bcc2 252426e403f1ed58
a4f8f416afae4d9b 9abe2ddcd486b8b0 f75d83f9d8ca83e6 18a3044834e79dc6 ff556326e15ff121
5934afcdb2f8f720 96c5578cb2c8d434 00b53c73bced34bf 29cefd5325f072cd 84657dec6ed9932b
1daa4dca98f7b228 0e68cab225101390 b9697c38e6df5fc6 1dac83b63ab6f5b7 ebc02da18a01545e
44b65c8e28a1b972 9a12b5f8e62c0ba3 506d3a0bb4dfa3b4 e182f74062702473 b9db6f81bbf06038
907f1a279efccc99 97f61511b50fcc8f 5fe5d1b211ebc112 68a9ab2cb441b491 25eb15b39cda936c
db7c495d3288780e 02cc349775f1c2c1 f8988f4200eea92f de48fcc2d8986cf2 b88b9845584af4b1
bf055ae4ba4ccb54 774961004bbeda6a 22ff274e1ca30b20 44e9fb957690391a f93a84946d55e3f5
d181af3e96390434 1f2cac410da27e14 13df0162379d9027 b4f4882f065a9347 e0369784ad048acc
b4abad3daccac27c 1516d822ce547f4e e447ba402cc0b902 eb50f662c9e2169f ccb7a9890057bf84
30e65e351f0aa770 655240bb7906da02 d81fcc5456c72223 b75f248f4c59abf1 e116cf1e8881627f
0d10f97e67fac02a f22bc038aadc43c9 0738ba5812d6b558 837a64634d527049 edc5e393c784023d
b6fa2ad8851a769d 7a8394fff7a6ba7e 4496edca585f6fa4 c95b4319ad3c371e d181af3e96390434
6ef0bc0b102f4e1c d355b28c07a425c3 afb6c5b8321683db bfe1c58937b81bfd 34c1316c5da25c43
38cac28d22e3fdd9 2dd1213713063765 f93a84946d55e3f5 cd050c3159a735ad 24f2be7c2dc041e7
6ee4d304373a97fa 9c59d767c564251e b24c7e6002f8f67a 5a18bd8d62d13def 069d8d5a187057c1
a9d5ed3a8c292325 6c6aa20d67e0b34e 6a91ac6cb98a6c9d b398f560ae5b1c0e ce3ac1a9d6cbfaed
007fbdf3baa00a4e c37ac101912dfffd 4b8c91340352f608 8c94379b9c406779 56b48ebbea651d47
845745396fba2287 a112e7a3113405ba effafc8db00c84fb c87044215403cb3c 5d97308dbd3a1877
0039317c3332daf9 35bf0058f578a086 ce818850b88e0df5 a64355a04e554e85 3f52d64ec3052f5f
bf5a149b818595ba 6644e7ecf32a991c 83fc75936933855e 8c1ff04ec783e6d1 28e8ee6491e4f920
25f7c0018d8219d6 f559b42b8021562d bec58158a0842d74 751becd1b8c2e6b9 55efcdd6a4cf35f8
5934afcdb2f8f720 96c5578cb2c8d434 00b53c73bced34bf 29cefd5325f072cd 84657dec6ed9932b
5e9621debdf62fda 0e68cab225101390 b9697c38e6df5fc6 414f090e7a57099a ebc02da18a01545e
44b65c8e28a1b972 58ddf1b2e6e8effe 506d3a0bb4dfa3b4 e182f74062702473 b9db6f81bbf06038
907f1a279efccc99 97f61511b50fcc8f f06482c73152245d 68a9ab2cb441b491 25eb15b39cda936c
db7c495d3288780e 02cc349775f1c2c1 f8988f4200eea92f de48fcc2d8986cf2 b88b9845584af4b1
eff7b81a031a21e6 774961004bbeda6a 22ff274e1ca30b20 ce726af50dbbc072 f93a84946d55e3f5
d181af3e96390434 1f2cac410da27e14 13df0162379d9027 b4f4882f065a9347 e0369784ad048acc
5b70f478bc3f0c1f c1b095f12d7a6e74 e447ba402cc0b902 eb50f662c9e2169f ccb7a9890057bf84
30e65e351f0aa770 655240bb7906da02 d81fcc5456c72223 580a232bb16e5614 e116cf1e8881627f
0d10f97e67fac02a f22bc038aadc43c9 0738ba5812d6b558 837a64634d527049 edc5e393c784023d
b6fa2ad8851a769d 7a8394fff7a6ba7e b7bfd96b4b8abfce c95b4319ad3c371e d181af3e96390434
699cfc1e95674cea d355b28c07a425c3 afb6c5b8321683db bfe1c58937b81bfd 34c1316c5da25c43
38cac28d22e3fdd9 2dd1213713063765 f93a84946d55e3f5 cd050c3159a735ad 24f2be7c2dc041e7
6ee4d304373a97fa 865e491c20f699e0 b24c7e6002f8f67a 5788c8113703780b 069d8d5a187057c1
a9d5ed3a8c292325 6c6aa20d67e0b34e 6a91ac6cb98a6c9d b398f560ae5b1c0e dc0ee841bb7afeca
007fbdf3baa00a4e c37ac101912dfffd 4b8c91340352f608 8c94379b9c406779 56b48ebbea651d47
845745396fba2287 14217f10d0c1a4b3 effafc8db00c84fb c87044215403cb3c 5d97308dbd3a1877
0039317c3332daf9 35bf0058f578a086 ce818850b88e0df5 b0fbd634b81338ec 3f52d64ec3052f5f
bf5a149b818595ba 6644e7ecf32a991c 83fc75936933855e 8c1ff04ec783e6d1 28e8ee6491e4f920
25f7c0018d8219d6 f559b42b8021562d 8ab8731247249f24 751becd1b8c2e6b9 55efcdd6a4cf35f8
";

const HARNESS_PINS: &str = "\
42e866122648efd6 8e4577cec220caa1 9245fe2b31fa360f e6dde640936c9c6e 384042ad5c6cde76
04edf07205620db1 6557fdb7f291fa8c 26a71425401d97c8 9ae6a9742212bab1 26b10d1ded0b4345
bded95d1564a8b0d 3ecae9ccc88a143c ff82e948e7c990c4 b61663b71baac279 e1f610aab8fc070c
cbe447a3bb945f3a 3120d800626af23b 17f01d0e0e3dbfa3 4beb0af54a92fdd6 9c2e674246c8b4e2
0f2142081c0a3aa1 91df19c765be6aef c963ebe8defea5df cfa9bfd38667fb8c
";

const TRANSPORT_PINS: &str = "\
9db0dcd0218dc666 c54a02ce15519854 6938851e76cab995 45d1607ffd32e65d 260469bc2c50d557
9714794b786fbf8f 80deaa6afa8469e2 e353d5ea77973d9e 6b8d03ba0c309af0 9fa8e0868956ef92
46026af4274f148b 066d60f72f7b5ed3 f59e29d23020c1ee 225966ad1979792a 3ee130de3628bdb0
4b41ca11d509c11d 9c840d66f922ad97 059766767da667d7 fa5bf43a258367b6 6c990b51b2753d88
14d7c729e22d4802 033f317e1ebf646f ebb1df1ea8816176 ce0c1c2c505ff798 4fb32b9013aefc5d
827e14efe2a439ba
";
