//! Property tests of the open-loop load subsystem: same-seed
//! schedules expand to byte-identical arrival lists, the deterministic
//! admission replay produces byte-identical decision sequences and
//! `strip_wall`-stable RunReports, every arrival resolves to exactly
//! one terminal state, the replay's decisions on a fixed grid of
//! configurations are pinned by hash, and the live wall-clock driver
//! preserves the schedule-determined facts across same-seed runs.

use mcv::load::{
    simulate, ArrivalProcess, ArrivalSchedule, LoadConfig, LoadProfile, ShedPolicy, SimConfig,
};
use mcv::obs::RunReport;
use proptest::prelude::*;
use std::fmt::Write as _;

fn profile(seed: u64, rate_tps: f64) -> LoadProfile {
    LoadProfile {
        process: ArrivalProcess::Poisson { rate_tps },
        duration_us: 150_000,
        sessions: 20_000,
        session_theta: 0.8,
        seed,
    }
}

/// The simulator's report with one wall-clock gauge attached, the way
/// the live harness records machine-dependent measurements — exactly
/// what `strip_wall` must erase.
fn sim_report(seed: u64, rate_tps: f64, wall_marker: f64) -> RunReport {
    let schedule = ArrivalSchedule::generate(&profile(seed, rate_tps));
    let outcome = simulate(&schedule, &SimConfig::default());
    let mut report = outcome.report("load.sim");
    report.metrics.gauges.insert("wall.load.sim_ns".to_owned(), wall_marker);
    report.strip_wall();
    report
}

#[test]
fn same_seed_schedules_are_byte_identical() {
    let a = ArrivalSchedule::generate(&profile(42, 3_000.0));
    let b = ArrivalSchedule::generate(&profile(42, 3_000.0));
    assert!(!a.is_empty());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
}

#[test]
fn same_seed_admission_sequences_are_byte_identical() {
    // Overload (well past the sim's ~10k tps capacity) so the
    // sequence actually contains shed/retry/miss decisions, not a
    // trivial all-accept run.
    let schedule = ArrivalSchedule::generate(&profile(7, 25_000.0));
    let a = simulate(&schedule, &SimConfig::default());
    let b = simulate(&schedule, &SimConfig::default());
    assert!(a.shed > 0, "overload replay must shed");
    assert_eq!(a.admission_bytes(), b.admission_bytes());
}

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One hash per grid case, in grid order: seed x offered rate x shed
/// policy x servers x queue capacity.
const SIM_GRID_PINS: &str = "
    0e1501e50d500c36 140ca5e9b5931f70 01c7305ffbb2f22d 690511eb90c7fa23
    01c7305ffbb2f22d 01c7305ffbb2f22d 32aa8386401348eb 23796ded254adfe7
    01c7305ffbb2f22d e097fa1c28b0d02b 01c7305ffbb2f22d 01c7305ffbb2f22d
    e3eee5c9ba85606d 1d6ae865da7f4e50 4b987ac076fd174d 0814b2c93f27c9e7
    586522abc595e2f5 ee4ced977a668009 5bd7ba105eeca42f b8e4d5305a3f9652
    8550fb3e2ed541b8 aef887d2bb6ce5e3 7f852350590d459b ee4ced977a668009
    68212b2eaea22f87 a6e78a149139eed1 1c3c053969868060 09ee77dabaf0cd92
    33f034f35803aad2 4ebc77a02d51d166 1c02bb7cc0b5618b c93b9d4ddfd5c0e0
    fdac7cd9f5d4c91e 42f3bfd19639573a e38d0c8b8028a007 c25ddaada9d3b604
    d14ad3c2475e4504 aba91b16d18025da 5e0e1033dea909f2 5e0e1033dea909f2
    5e0e1033dea909f2 5e0e1033dea909f2 0d27942ac05815de 628a744cfe69bdfd
    5e0e1033dea909f2 5e0e1033dea909f2 5e0e1033dea909f2 5e0e1033dea909f2
    6a1d1052853e6243 874da0d9cfcfbdeb ac870a7800c137b2 95f971aa4ca38cf9
    b40760ad02b777e9 21c710bcfbb36e9b b19e2b56ef01ef66 b10b60a864098237
    253d89e6eaa45876 3e66908f597b0328 8b7e053dc772166d 21c710bcfbb36e9b
    6f60e8fe99886af8 e8c0ba4aaafa93e9 f8023fbcacb0ab88 20ef322784262529
    38685263679a6443 211b92a4cf303e3e 9aa1aaa3b114d63e 9c8ca84e3f180a39
    b2c7e4bd9ae43be1 73d13e56d75c6a68 eee28954ee0371ec 26b79ad27723d07f
";

/// `simulate`'s decisions on a fixed grid, from underload to 4x
/// overload, one-slot to deep queues, both shed policies. Each case
/// hashes the admission bytes together with the outcome's counters; a
/// refactor of the admission rule must leave every hash unchanged. On
/// a mismatch the test names the first diverging case.
#[test]
fn simulate_decisions_are_pinned_on_a_grid() {
    let mut cases = Vec::new();
    for seed in [3u64, 17] {
        for rate in [2_000.0, 8_000.0, 40_000.0] {
            let schedule = ArrivalSchedule::generate(&profile(seed, rate));
            for policy in
                [ShedPolicy::Drop, ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 }]
            {
                for servers in [1usize, 4] {
                    for queue_cap in [1usize, 4, 64] {
                        let cfg = SimConfig { servers, queue_cap, policy, ..SimConfig::default() };
                        let out = simulate(&schedule, &cfg);
                        let mut text = format!("{:016x}", fnv1a(&out.admission_bytes()));
                        let _ = write!(
                            text,
                            " {} {} {} {} {} {}",
                            out.accepted,
                            out.shed,
                            out.retried,
                            out.deadline_missed,
                            out.completed,
                            out.goodput
                        );
                        let label = format!("seed={seed} rate={rate} {policy:?} servers={servers} queue_cap={queue_cap}");
                        cases.push((label, text));
                    }
                }
            }
        }
    }
    let pinned: Vec<&str> = SIM_GRID_PINS.split_whitespace().collect();
    let got: Vec<String> =
        cases.iter().map(|(_, text)| format!("{:016x}", fnv1a(text.as_bytes()))).collect();
    if let Some(i) = (0..got.len()).find(|&i| pinned.get(i) != Some(&got[i].as_str())) {
        panic!(
            "first divergence at case {i} ({}): pinned {}, got {} ({})\n--- all hashes ---\n{}",
            cases[i].0,
            pinned.get(i).unwrap_or(&"none"),
            got[i],
            cases[i].1,
            got.join(" ")
        );
    }
    assert_eq!(got.len(), pinned.len(), "case count changed");
}

#[test]
fn same_seed_sim_reports_are_strip_wall_stable() {
    let a = sim_report(11, 15_000.0, 1.0);
    // A different wall-clock measurement must not survive strip_wall.
    let b = sim_report(11, 15_000.0, 2.0e9);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn live_runs_preserve_schedule_determined_facts() {
    // The wall-clock driver's interleavings are scheduling-dependent,
    // but everything the schedule determines — the arrival count and
    // the conservation of terminal states — must agree across
    // same-seed runs.
    let cfg = LoadConfig { profile: profile(5, 1_500.0), ..Default::default() };
    let a = mcv::load::run_load(&cfg);
    let b = mcv::load::run_load(&cfg);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.metrics.counter("load.arrivals"), b.metrics.counter("load.arrivals"));
    for r in [&a, &b] {
        assert_eq!(r.unresolved, 0, "{}", r.summary());
        assert_eq!(r.committed + r.dropped + r.deadline_missed + r.crash_lost, r.arrivals);
        assert!(r.oracles_ok(), "{}", r.summary());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed and offered rate: schedule generation is a pure
    /// function of the profile.
    #[test]
    fn schedules_are_deterministic_across_seeds(seed in 0u64..500, rate_khz in 1u64..30) {
        let p = profile(seed, (rate_khz * 1_000) as f64);
        let a = ArrivalSchedule::generate(&p);
        let b = ArrivalSchedule::generate(&p);
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    /// Any seed, rate, and policy: the admission replay conserves
    /// arrivals (each resolves exactly once: completion, drop, or
    /// deadline miss) and its decision bytes are stable.
    #[test]
    fn admission_replay_conserves_arrivals(seed in 0u64..500, rate_khz in 1u64..30, drop in 0u8..2) {
        let schedule = ArrivalSchedule::generate(&profile(seed, (rate_khz * 1_000) as f64));
        let cfg = SimConfig {
            policy: if drop == 0 {
                ShedPolicy::Drop
            } else {
                ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 }
            },
            ..SimConfig::default()
        };
        let a = simulate(&schedule, &cfg);
        let terminal = a.completed
            + a.deadline_missed
            + if matches!(cfg.policy, ShedPolicy::Drop) { a.shed } else { 0 };
        prop_assert_eq!(terminal, a.arrivals);
        let b = simulate(&schedule, &cfg);
        prop_assert_eq!(a.admission_bytes(), b.admission_bytes());
    }
}
