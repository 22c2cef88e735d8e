//! Executable 3PC vs 2PC under failures: the operational face of the
//! thesis' global properties. Shows the distributed transaction of
//! Figure 3.1, the Figure 3.2 state machine in action, non-blocking
//! termination with an elected backup coordinator, the split-brain
//! that naive timeout transitions cause, and an exhaustive search of
//! the same sites' executions.
//!
//! Run with `cargo run --example simulate_3pc`.

use mcv::chaos::{explore, FaultBudget};
use mcv::commit::{run_scenario, CrashPoint, Protocol, Scenario};

fn show(title: &str, sc: &Scenario) {
    let r = run_scenario(sc);
    println!("--- {title} ({}) ---", r.protocol);
    println!(
        "  outcome: {:?}   uniform: {}   non-blocking: {}   messages: {}",
        r.outcome.map(|c| if c { "commit" } else { "abort" }),
        r.uniform,
        r.nonblocking,
        r.messages
    );
    if !r.blocked_before_recovery.is_empty() {
        println!("  blocked until recovery: {:?}", r.blocked_before_recovery);
    }
    for d in &r.decisions {
        println!(
            "  {} decided {} at {}",
            d.site,
            if d.commit { "commit" } else { "abort" },
            d.time
        );
    }
    println!();
}

fn main() {
    // Collect metrics and spans for every scenario `run` executes, then
    // print the machine-readable run summary (see mcv::obs).
    let ((), data) = mcv::obs::collect(run);
    println!("{}", data.into_report("simulate_3pc").summary());
}

fn run() {
    println!("=== Figure 3.1: failure-free distributed transaction ===\n");
    show("3 cohorts, no failures", &Scenario::default());
    show(
        "3 cohorts, no failures",
        &Scenario { protocol: Protocol::TwoPhase, ..Scenario::default() },
    );

    println!("=== A cohort refuses: uniform abort ===\n");
    show("cohort 1 votes no", &Scenario { vote_no_cohort: Some(1), ..Scenario::default() });

    println!("=== The blocking window: coordinator dies after collecting votes ===\n");
    show(
        "2PC blocks until the coordinator recovers at t=5000",
        &Scenario {
            protocol: Protocol::TwoPhase,
            coordinator_crash: Some(CrashPoint::AfterVotes),
            recovery_at: Some(5_000),
            ..Scenario::default()
        },
    );
    show(
        "3PC elects a backup and terminates without the coordinator",
        &Scenario {
            coordinator_crash: Some(CrashPoint::AfterVotes),
            recovery_at: Some(5_000),
            ..Scenario::default()
        },
    );

    println!("=== Prepared sites commit without the coordinator ===\n");
    show(
        "3PC: crash after prepare; termination decides commit",
        &Scenario {
            coordinator_crash: Some(CrashPoint::AfterPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        },
    );

    println!("=== Why Figure 3.2's naive timeouts need the termination block ===\n");
    show(
        "partial prepare + naive timeouts: SPLIT BRAIN",
        &Scenario {
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            naive_timeouts: true,
            ..Scenario::default()
        },
    );
    show(
        "partial prepare + termination protocol: safe",
        &Scenario {
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        },
    );

    println!("=== Every execution of the running sites (Figure 3.2) ===\n");
    // Hops of one tick; the coordinator crashes mid-prepare-broadcast
    // and may recover at any point. `mcv repro fig3.2` has the rest.
    for n_cohorts in [1, 2] {
        let sc = Scenario {
            n_cohorts,
            naive_timeouts: true,
            timeout: 10,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            ..Scenario::default()
        };
        let found = explore(&sc, &FaultBudget { crash: vec![0], partition: Vec::new(), delta: 1 });
        println!("{n_cohorts} cohort(s), naive timeouts: {} states", found.states);
        for step in found.violation.map(|cx| cx.steps()).unwrap_or_default() {
            println!("    {step}");
        }
    }
}
