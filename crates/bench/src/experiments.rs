//! One function per paper artifact (table/figure/proof) plus the added
//! quantitative experiments. Each returns a printable report; the
//! `mcv repro` subcommand dispatches on artifact ids.

use mcv_blocks::{modules, pipeline, properties, registry, traceability, SpecLibrary};
use mcv_chaos::{explore, CutKind, Exploration, FaultBudget, FaultEvent, FaultSchedule};
use mcv_commit::{build_world, run_scenario, CrashPoint, Protocol, Scenario};
use mcv_core::finset::{fin_pushout, fin_set, mediating, FinMap};
use mcv_core::{SpecBuilder, SpecMorphism};
use mcv_logic::Sort;
use mcv_txn::{History, LockManager, LockMode, OpKind, SiteDb, TxnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 2.1: a pushout with the universal property's mediating
/// morphism, demonstrated in FinSet.
fn fig2_1() -> String {
    let a = fin_set(["shared"]);
    let b = fin_set(["shared", "left"]);
    let c = fin_set(["shared", "right"]);
    let f = FinMap::new(a.clone(), b.clone(), [("shared", "shared")]).expect("total");
    let g = FinMap::new(a.clone(), c.clone(), [("shared", "shared")]).expect("total");
    let po = fin_pushout(&f, &g).expect("same source");
    let mut out = String::from("Figure 2.1 — pushout of f : A -> B and g : A -> C (in FinSet)\n");
    out.push_str(&format!("  A = {a:?}\n  B = {b:?}\n  C = {c:?}\n"));
    out.push_str(&format!("  D = B ⊔_A C = {:?}\n", po.object));
    out.push_str(&format!("  p : B -> D = {}\n  q : C -> D = {}\n", po.p, po.q));
    let commutes = f.then(&po.p).expect("composable") == g.then(&po.q).expect("composable");
    out.push_str(&format!("  square p∘f = q∘g commutes: {commutes}\n"));
    // Universal condition: a competing cocone D' and its unique u.
    let dprime = fin_set(["x", "y"]);
    let p2 = FinMap::new(b, dprime.clone(), [("shared", "x"), ("left", "y")]).expect("total");
    let q2 = FinMap::new(c, dprime, [("shared", "x"), ("right", "y")]).expect("total");
    let u = mediating(&po, &f, &g, &p2, &q2).expect("commuting cocone");
    out.push_str(&format!(
        "  universal condition: for D' with p', q' there is a unique u : D -> D' = {u}\n"
    ));
    let triangles =
        po.p.then(&u).expect("composable") == p2 && po.q.then(&u).expect("composable") == q2;
    out.push_str(&format!("  u∘p = p' and u∘q = q': {triangles}\n"));
    out
}

/// Figure 2.2: the colimit of a multi-node diagram of specifications,
/// with the cone identities `I_j ∘ a_x = I_i` checked.
fn fig2_2() -> String {
    let lib = SpecLibrary::load();
    let step = pipeline::controller(&lib);
    let mut out = String::from("Figure 2.2 — colimit of a diagram of specifications\n");
    out.push_str(&format!("{}\n", step.colimit.diagram.render()));
    out.push_str(&format!(
        "colimit L = {} ({} sorts, {} ops, {} axioms)\n",
        step.colimit.apex.name,
        step.colimit.apex.signature.sort_count(),
        step.colimit.apex.signature.op_count(),
        step.colimit.apex.axioms().count()
    ));
    out.push_str(&format!(
        "cone morphisms I_i satisfy I_j ∘ a_x = I_i for every arc: {}\n",
        step.colimit.verify_commutes()
    ));
    out
}

/// Figure 2.3: a module's four components and commuting interface
/// square.
fn fig2_3() -> String {
    let lib = SpecLibrary::load();
    let factory = modules::ModuleFactory::new(lib);
    let m = factory.broadcast();
    let mut out = String::from("Figure 2.3 — module interfaces (the broadcast block)\n");
    out.push_str(&format!("  PAR (R) = {}\n", m.par.name));
    out.push_str(&format!(
        "  EXP (A) = {} ({} ops: the guaranteed properties)\n",
        m.exp.name,
        m.exp.signature.op_count()
    ));
    out.push_str(&format!(
        "  IMP (B) = {} ({} ops: the assumed primitives)\n",
        m.imp.name,
        m.imp.signature.op_count()
    ));
    out.push_str(&format!("  BOD (P) = {} ({} axioms)\n", m.bod.name, m.bod.axioms().count()));
    out.push_str(&format!("  interface square h∘f = k∘g commutes: {}\n", m.commutes()));
    out
}

/// Figure 2.4: composition of two modules with its certificate.
fn fig2_4() -> String {
    let lib = SpecLibrary::load();
    let factory = modules::ModuleFactory::new(lib);
    let step = factory.controller();
    let mut out = String::from("Figure 2.4 — composition of two modules (consensus ∘ broadcast)\n");
    out.push_str(&format!("  composed module: {}\n", step.module.summary()));
    out.push_str(&format!(
        "  parameter compatibility s∘g1 = f2∘t: {}\n",
        step.certificate.compatibility_holds
    ));
    out.push_str(&format!(
        "  body pushout P12 = pushout(P1, P2 over B1) commutes: {}\n",
        step.certificate.body_pushout_commutes
    ));
    out.push_str(&format!(
        "  composed square commutes (correct-by-construction): {}\n",
        step.certificate.composed_commutes
    ));
    out
}

/// Table 3.1: the building-block inventory.
fn tab3_1() -> String {
    let lib = SpecLibrary::load();
    registry::render_table(&lib)
}

/// Figure 3.1: a distributed transaction execution (master/cohort
/// startwork–workdone–commit), traced.
fn fig3_1() -> String {
    let sc = Scenario { n_cohorts: 2, ..Scenario::default() };
    let mut world = build_world(&sc);
    // Recorded causally, so the trace's deliveries carry message labels.
    mcv_trace::record_trace(None, || world.run_until(mcv_sim::SimTime::from_ticks(sc.deadline)));
    let mut out = String::from(
        "Figure 3.1 — distributed transaction execution (master p0, cohorts p1, p2)\n",
    );
    for entry in world.trace().entries() {
        use mcv_trace::EventKind::*;
        if matches!(
            entry.event,
            Deliver { .. } | State { .. } | Commit { .. } | Abort { .. } | Note { .. }
        ) {
            out.push_str(&format!("  {entry}\n"));
        }
    }
    out
}

/// Explores `sc` under `budget`, and again with the coordinator
/// crashing mid-way through its prepare broadcast when the budget lets
/// it crash: the union is every point the coordinator may fail at.
fn fig3_2_explore(sc: &Scenario, budget: &FaultBudget) -> Exploration {
    let mut found = explore(sc, budget);
    if budget.crash.contains(&0) && found.violation.is_none() {
        let partial =
            Scenario { coordinator_crash: Some(CrashPoint::AfterPartialPrepare), ..sc.clone() };
        let more = explore(&partial, budget);
        found.states += more.states;
        found.executions += more.executions;
        found.uncommittable_commits += more.uncommittable_commits;
        found.edges.extend(more.edges);
        found.violation = more.violation;
    }
    found
}

/// Explores Figure 3.2's first `n` rows — the figure's four
/// configurations, then three findings beyond its failure model —
/// asserting each row's verdict, the message naming the row. Returns
/// the local-state edges taken and one verdict line per row.
fn fig3_2_verdicts(n: usize) -> (std::collections::BTreeSet<String>, String) {
    let sc = |n_cohorts, naive_timeouts, quorum_termination, timeout| Scenario {
        n_cohorts,
        naive_timeouts,
        quorum_termination,
        timeout,
        ..Scenario::default()
    };
    let faults = |crash: &[usize], partition: &[usize], delta| FaultBudget {
        crash: crash.to_vec(),
        partition: partition.to_vec(),
        delta,
    };
    let descs = [
        "1 cohort,  naive timeouts,       synchronous",
        "2 cohorts, naive timeouts,       synchronous",
        "2 cohorts, termination protocol, synchronous",
        "2 cohorts, termination protocol, ASYNCHRONOUS",
        "2 cohorts, termination, any site may crash",
        "2 cohorts, quorum, coordinator crashes and is cut off",
        "2 cohorts, quorum, p1 crashes, coordinator cut off",
    ];
    let rows = [
        (sc(1, true, false, 10), faults(&[0], &[], 1), true),
        (sc(2, true, false, 10), faults(&[0], &[], 1), false),
        (sc(2, false, false, 10), faults(&[0], &[], 1), true),
        (sc(2, false, false, 2), faults(&[0], &[], 3), false),
        (sc(2, false, false, 10), faults(&[0, 1, 2], &[], 1), false),
        (sc(2, false, true, 10), faults(&[0], &[0], 1), true),
        (sc(2, false, true, 10), faults(&[1], &[0], 1), false),
    ];
    let mut edges = std::collections::BTreeSet::new();
    let mut verdicts = String::new();
    for (i, (desc, (sc, budget, safe))) in descs.iter().zip(&rows).take(n).enumerate() {
        if i == 0 || i == 4 {
            let title =
                ["Figure 3.2's configurations", "Findings beyond the figure's failure model"];
            verdicts.push_str(&format!("\n{}:\n", title[i / 4]));
        }
        let found = fig3_2_explore(sc, budget);
        edges.extend(found.edges.iter().cloned());
        let counts = format!(
            "{} states, {} executions; rule 2 broken in {} states",
            found.states, found.executions, found.uncommittable_commits
        );
        match &found.violation {
            None => verdicts.push_str(&format!("  {desc}: SAFE ({counts})\n")),
            Some(cx) => {
                verdicts.push_str(&format!("  {desc}: UNSAFE ({counts}), {}:\n", cx.detail));
                for step in cx.steps() {
                    verdicts.push_str(&format!("      {step}\n"));
                }
            }
        }
        let claim = if *safe { "SAFE" } else { "UNSAFE" };
        assert_eq!(found.violation.is_none(), *safe, "fig3.2.verdict: {desc} is {claim}");
    }
    (edges, verdicts)
}

/// Figure 3.2: the 3PC automaton, generated from the sites that run
/// (`mcv_commit::Site`) by the bounded explorer (`mcv_chaos::explore`).
/// The transition table is every local-state edge the explorations
/// took; each row's verdict is asserted.
fn fig3_2() -> String {
    let (edges, verdicts) = fig3_2_verdicts(7);
    let mut out = String::from(
        "Figure 3.2 — 3PC with coordinator and cohort, generated from mcv_commit::Site\n\
         (q=initial w=wait p=prepared a=abort c=commit; suffix 1=coordinator, 2=cohort)\n\n\
         Transition table: every local-state edge the explorations below took,\n\
         labelled with the message delivered, `timeout` or `recovery`:\n\n",
    );
    for edge in &edges {
        out.push_str(&format!("  {edge}\n"));
    }
    out.push_str(
        "\nBounded exhaustive exploration of the running sites: every order of\n\
         deliveries within the hop bound δ (FIFO links), timers, and each budgeted\n\
         fault at every point — a crash (the coordinator also mid-way through its\n\
         prepare broadcast), one recovery, a partition of one site and its heal.\n\
         Synchronous: δ = 1 tick against a 10-tick timeout; asynchronous: δ = 3\n\
         against a 2-tick timeout. Each reachable global state is checked against\n\
         the non-blocking theorem: rule 1 (no commit beside an abort) is the\n\
         verdict, rule 2 (a commit only beside committable states) is counted.\n",
    );
    out.push_str(&verdicts);
    out
}

/// Figure 3.3: the global view — which building block serves which part
/// of a running site.
fn fig3_3() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from(
        "Figure 3.3 — global view of modulated 3PC: block wiring of a running site\n\n",
    );
    for b in registry::blocks(&lib) {
        out.push_str(&format!("  [{:<4}] {:<28} -> {}\n", b.number, b.name, b.executable));
    }
    out.push_str("\nmessage flow: controller(broadcast+consensus) drives the commit FSM;\n");
    out.push_str("snapshot+decision-making watch the global state; voting+termination take\n");
    out.push_str("over on coordinator failure; undo/redo+2PL+checkpointing+recovery keep\n");
    out.push_str("each site's database consistent across crashes.\n");
    out
}

/// Figure 3.4: sequential division 1 as computed colimits.
fn fig3_4() -> String {
    let lib = SpecLibrary::load();
    format!(
        "Figure 3.4 — modular dependencies, sequential division 1\n{}",
        pipeline::render(&pipeline::sequential_division_1(&lib))
    )
}

/// Figure 3.5: sequential division 2 as computed colimits, then the
/// executable store's refinement of its Snapshot block, asserted to
/// commute with no open obligation.
fn fig3_5() -> String {
    let lib = SpecLibrary::load();
    let mvcc = pipeline::mvcc_refinement(&lib);
    assert!(
        mvcc.commutes && mvcc.open_obligations == 0,
        "mvcc refinement: SNAPSHOT ∘ MVCCSNAPSHOT must commute with no open obligation"
    );
    format!(
        "Figure 3.5 — modular dependencies, sequential division 2\n{}\n\
         the executable store's refinement (beyond the thesis)\n{}",
        pipeline::render(&pipeline::sequential_division_2(&lib)),
        pipeline::render(&[mvcc])
    )
}

/// Figures 4.1–4.8: the serializability chain.
fn fig4_s() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from("Figures 4.1–4.8 — serializability of transactions\n\n");
    out.push_str(&traceability::render_dependencies(&lib, &properties::chapter5_commands()[0]));
    let factory = modules::ModuleFactory::new(lib);
    out.push('\n');
    out.push_str(&modules::render_chain(&factory.serializability_chain()));
    out
}

/// Figures 4.9–4.16: the consistent-state chain.
fn fig4_c() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from("Figures 4.9–4.16 — consistent state maintenance\n\n");
    out.push_str(&traceability::render_dependencies(&lib, &properties::chapter5_commands()[1]));
    let factory = modules::ModuleFactory::new(lib);
    out.push('\n');
    out.push_str(&modules::render_chain(&factory.consistent_state_chain()));
    out
}

/// Figures 4.17–4.28: the roll-back recovery chain.
fn fig4_r() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from("Figures 4.17–4.28 — roll-back recovery\n\n");
    out.push_str(&traceability::render_dependencies(&lib, &properties::chapter5_commands()[2]));
    let factory = modules::ModuleFactory::new(lib);
    out.push('\n');
    out.push_str(&modules::render_chain(&factory.rollback_chain()));
    out
}

/// Chapter 5: the three `prove` commands, replayed, plus the
/// consistency audit.
pub fn ch5() -> String {
    let lib = SpecLibrary::load();
    let mut out =
        String::from("Chapter 5 — compositional verification of the global properties\n\n");
    for o in properties::replay_all(&lib) {
        let status = if !o.proved() {
            "NOT PROVED".to_string()
        } else if o.vacuous {
            "proved VACUOUSLY (support set is contradictory)".to_string()
        } else {
            let p = o.result.proof().expect("proved");
            format!(
                "proved ({} steps, {} clauses generated, {:?})",
                p.length(),
                p.generated(),
                p.elapsed()
            )
        };
        out.push_str(&format!(
            "  {} = prove {} in {} using {}\n      -> {}\n",
            o.command.label,
            o.command.theorem,
            o.command.spec,
            o.command.using.join(" "),
            status
        ));
        if let Some(m) = &o.model {
            for line in format!("non-vacuous: {m}").lines() {
                out.push_str(&format!("      {line}\n"));
            }
        }
    }
    out.push_str("\nConsistency audit (not performed in the thesis):\n");
    for p in properties::consistency_audit(&lib) {
        out.push_str(&format!(
            "  {}: axioms {} and {} are jointly contradictory\n",
            p.spec, p.a, p.b
        ));
    }
    out
}

/// exp.nb — blocking vs non-blocking under coordinator failure, swept
/// over crash point and cohort count.
fn exp_nb() -> String {
    let mut out = String::from(
        "exp.nb — termination at operational sites under coordinator failure\n\
         (crash point x cohorts; 'blocked' = operational cohorts undecided until recovery;\n\
         latency = last operational cohort decision, ticks)\n\n\
         protocol  crash-point          cohorts  blocked  uniform  latency\n",
    );
    for protocol in [Protocol::TwoPhase, Protocol::ThreePhase] {
        for crash in [
            CrashPoint::AfterVoteReq,
            CrashPoint::AfterVotes,
            CrashPoint::AfterPrepare,
            CrashPoint::AfterPartialPrepare,
        ] {
            // 2PC has no prepare phase.
            if protocol == Protocol::TwoPhase
                && matches!(crash, CrashPoint::AfterPrepare | CrashPoint::AfterPartialPrepare)
            {
                continue;
            }
            for n in [2usize, 4, 8] {
                let r = run_scenario(&Scenario {
                    protocol,
                    n_cohorts: n,
                    coordinator_crash: Some(crash),
                    recovery_at: Some(5_000),
                    seed: 3,
                    ..Scenario::default()
                });
                let latency = r
                    .decision_times
                    .iter()
                    .filter(|(site, _)| site.0 != 0)
                    .map(|(_, t)| t.ticks())
                    .max()
                    .unwrap_or(0);
                out.push_str(&format!(
                    "  {:<8} {:<20} {:>7} {:>8} {:>8} {:>8}\n",
                    protocol.to_string(),
                    format!("{crash:?}"),
                    n,
                    r.blocked_before_recovery.len(),
                    r.uniform,
                    latency
                ));
            }
        }
    }
    out.push_str(
        "\nshape check: 2PC cohorts block (decide only after recovery at t=5000);\n\
         3PC cohorts always decide within a few timeouts — the non-blocking property.\n",
    );
    out
}

/// exp.msg — message cost of non-blocking: messages per transaction vs
/// cohort count.
fn exp_msg() -> String {
    let mut out = String::from(
        "exp.msg — messages per committed transaction (failure-free)\n\n\
         cohorts     2PC     3PC   ratio\n",
    );
    for n in [1usize, 2, 4, 8, 16] {
        let two = run_scenario(&Scenario {
            protocol: Protocol::TwoPhase,
            n_cohorts: n,
            ..Scenario::default()
        });
        let three = run_scenario(&Scenario { n_cohorts: n, ..Scenario::default() });
        out.push_str(&format!(
            "  {:>5} {:>7} {:>7} {:>7.2}\n",
            n,
            two.messages,
            three.messages,
            three.messages as f64 / two.messages.max(1) as f64
        ));
    }
    out.push_str(
        "\nshape check: both grow linearly in cohorts; 3PC pays one extra round\n\
         (prepare+ack = 2 extra messages per cohort on top of 2PC's 5: startwork,\n\
         workdone, commit-request, vote, decision), so the ratio is 7/5 = 1.4.\n",
    );
    out
}

/// exp.ser — serializability with and without 2PL on random workloads.
fn exp_ser() -> String {
    let mut out = String::from(
        "exp.ser — conflict-serializable histories out of 200 random workloads\n\n\
         txns  ops  with-2PL  without-2PL\n",
    );
    for (txns, ops) in [(3u64, 12usize), (4, 20), (6, 30)] {
        let mut ok_locked = 0;
        let mut ok_free = 0;
        const RUNS: usize = 200;
        for seed in 0..RUNS as u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7 + txns);
            // Free-for-all interleaving (no locks).
            let mut free = History::new();
            // Locked execution through the lock manager.
            let mut lm = LockManager::new();
            let mut locked = History::new();
            let mut dead: Vec<TxnId> = Vec::new();
            for _ in 0..ops {
                let t = TxnId(rng.gen_range(1..=txns));
                let item = format!("X{}", rng.gen_range(0..3));
                let write = rng.gen_bool(0.5);
                let kind = if write { OpKind::Write } else { OpKind::Read };
                free.push(t, item.clone(), kind);
                if dead.contains(&t) {
                    continue;
                }
                let mode = if write { LockMode::Exclusive } else { LockMode::Shared };
                match lm.try_acquire(t, item.clone(), mode) {
                    Ok(true) => locked.push(t, item, kind),
                    Ok(false) => {
                        // Conflict: abort the requester (its ops vanish
                        // from the committed history).
                        lm.release_all(t);
                        dead.push(t);
                    }
                    Err(_) => {}
                }
            }
            if locked.is_conflict_serializable() {
                ok_locked += 1;
            }
            if free.is_conflict_serializable() {
                ok_free += 1;
            }
        }
        out.push_str(&format!(
            "  {:>4} {:>4} {:>8}% {:>10}%\n",
            txns,
            ops,
            100 * ok_locked / RUNS,
            100 * ok_free / RUNS
        ));
    }
    out.push_str(
        "\nshape check: 2PL yields 100%; unconstrained interleaving degrades with contention.\n",
    );
    out
}

/// exp.rec — recovery correctness and cost vs checkpoint period.
fn exp_rec() -> String {
    let mut out = String::from(
        "exp.rec — crash-recovery over 100 random workloads per configuration\n\n\
         ckpt-every  correct  avg-records-replayed\n",
    );
    for ckpt_every in [0usize, 5, 10, 25] {
        let mut correct = 0;
        let mut replayed_total = 0usize;
        const RUNS: usize = 100;
        for seed in 0..RUNS as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = SiteDb::new();
            let n_ops = rng.gen_range(5..40);
            let mut committed_reference = std::collections::BTreeMap::new();
            let mut txn_counter = 0u64;
            for i in 0..n_ops {
                txn_counter += 1;
                let t = TxnId(txn_counter);
                db.begin(t);
                let item = format!("X{}", rng.gen_range(0..4));
                let value = rng.gen_range(-100..100);
                if db.write(t, &item, value).is_ok() {
                    if rng.gen_bool(0.8) {
                        db.commit(t).expect("active");
                        committed_reference.insert(item, value);
                    } else {
                        db.abort(t).expect("active");
                    }
                }
                if ckpt_every > 0 && i % ckpt_every == ckpt_every - 1 {
                    db.checkpoint().expect("up");
                }
            }
            // Crash in the middle of a final, uncommitted transaction.
            txn_counter += 1;
            db.begin(TxnId(txn_counter));
            let _ = db.write(TxnId(txn_counter), "X0", 12345);
            db.crash();
            // Count replay work: records after the last checkpoint.
            let records = db.wal().records();
            let last_ckpt = records
                .iter()
                .rposition(|r| matches!(r, mcv_txn::LogRecord::CheckpointDone { .. }))
                .map(|i| i + 1)
                .unwrap_or(0);
            replayed_total += records.len() - last_ckpt;
            db.recover();
            let ok = committed_reference.iter().all(|(k, v)| db.value(k) == Some(*v))
                && db.value("X0").unwrap_or(0) != 12345;
            if ok {
                correct += 1;
            }
        }
        out.push_str(&format!(
            "  {:>10} {:>7}% {:>21.1}\n",
            if ckpt_every == 0 { "never".to_string() } else { format!("{ckpt_every} ops") },
            100 * correct / RUNS,
            replayed_total as f64 / RUNS as f64
        ));
    }
    out.push_str("\nshape check: recovery always reconstructs the committed prefix; replay work\nshrinks as checkpoints become more frequent.\n");
    out
}

/// exp.timeout — sensitivity to the timeout constant (assumption 6:
/// synchronous timers with timeout > 2δ): decision latency and message
/// overhead of 3PC termination vs the configured timeout.
fn exp_timeout() -> String {
    let mut out = String::from(
        "exp.timeout — 3PC under coordinator crash (AfterPrepare), 3 cohorts,\n\
         δ ≤ 5 ticks; sweeping the per-phase timeout (6 < 2δ: spurious firings)\n\n\
         timeout  uniform  latency  messages\n",
    );
    for timeout in [6u64, 12, 25, 50, 100, 200, 400] {
        let r = run_scenario(&Scenario {
            timeout,
            coordinator_crash: Some(CrashPoint::AfterPrepare),
            recovery_at: Some(5_000),
            seed: 3,
            ..Scenario::default()
        });
        let latency = r
            .decision_times
            .iter()
            .filter(|(site, _)| site.0 != 0)
            .map(|(_, t)| t.ticks())
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "  {:>6} {:>8} {:>8} {:>9}\n",
            timeout, r.uniform, latency, r.messages
        ));
    }
    out.push_str(
        "\nshape check: latency grows ~linearly with the timeout (the failure\n\
         detector's delay dominates). Below 2δ the timers beat the replies:\n\
         the run stays *safe* (uniform) but degenerates to an early abort\n\
         with fewer messages — availability, not consistency, pays for a\n\
         violated synchrony assumption.\n",
    );
    out
}

/// exp.part — partition tolerance: the thesis' "reliable network
/// without partitioning" assumption tested, and the quorum-based
/// termination extension (future work in the thesis) evaluated.
fn exp_part() -> String {
    let mut out = String::from(
        "exp.part — a partition isolates the partially-prepared cohort after the\n\
         coordinator crashes mid-prepare (5 sites; partition from t=20)\n\n\
         termination   partition-heals  uniform  isolated-cohort-decides\n",
    );
    for (quorum, heals_at, label) in
        [(false, 9_000u64, "plain"), (true, 2_000, "quorum"), (true, 20_000, "quorum")]
    {
        let r = run_scenario(&Scenario {
            n_cohorts: 4,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            schedule: FaultSchedule {
                events: vec![FaultEvent::Partition {
                    side: vec![1],
                    cut: CutKind::Both,
                    from: 20,
                    until: heals_at,
                }],
            },
            quorum_termination: quorum,
            ..Scenario::default()
        });
        let isolated = r
            .decision_times
            .get(&mcv_sim::ProcId(1))
            .map(|t| format!("at t={}", t.ticks()))
            .unwrap_or_else(|| "never (blocked)".to_string());
        out.push_str(&format!(
            "  {:<13} {:>12}     {:>7}  {}\n",
            label,
            if heals_at > 10_000 { "never".to_string() } else { format!("t={heals_at}") },
            r.uniform,
            isolated
        ));
    }
    out.push_str(
        "\nshape check: plain 3PC termination SPLIT-BRAINS across the partition\n\
         (both sides elect backups and decide from their own fragment); quorum\n\
         termination keeps the minority blocked until it can reach a majority,\n\
         trading back some of the blocking 3PC was designed to remove.\n",
    );
    out
}

/// exp.mod — modular vs monolithic re-verification.
fn exp_mod() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from(
        "exp.mod — proofs to re-check after changing one block\n\n\
         changed block        modular  monolithic  invalidated\n",
    );
    let mut saved = 0usize;
    let mut total = 0usize;
    for r in traceability::impact_matrix(&lib) {
        out.push_str(&format!(
            "  {:<20} {:>6} {:>10}   {:?}\n",
            r.changed_block, r.modular_recheck, r.monolithic_recheck, r.must_recheck
        ));
        saved += r.monolithic_recheck - r.modular_recheck;
        total += r.monolithic_recheck;
    }
    out.push_str(&format!(
        "\nmodular discipline avoids {saved}/{total} re-checks ({:.0}%) across single-block changes.\n",
        100.0 * saved as f64 / total as f64
    ));
    out
}

/// exp.colim — colimit cost scaling (inline version of the Criterion
/// bench, for the text report).
fn exp_colim() -> String {
    use mcv_core::{colimit, Diagram};
    let mut out = String::from("exp.colim — colimit wall time vs diagram size (chain topology)\n\n  nodes  ops/node  time\n");
    for (nodes, ops) in [(2usize, 10usize), (4, 10), (8, 10), (8, 40), (16, 40)] {
        let mut specs = Vec::new();
        for i in 0..nodes {
            let mut b = SpecBuilder::new(format!("S{i}")).sort(Sort::new("E"));
            for o in 0..ops {
                // Shared prefix so chains actually glue.
                b = b.predicate(format!("P{o}"), vec![Sort::new("E")]);
            }
            // Cumulative own ops: node i re-declares Own0..Owni so the
            // identity-extended chain morphisms are total.
            for j in 0..=i {
                b = b.predicate(format!("Own{j}"), vec![Sort::new("E")]);
            }
            specs.push(b.build_ref().expect("static"));
        }
        let start = std::time::Instant::now();
        let mut d = Diagram::new();
        for (i, s) in specs.iter().enumerate() {
            d.add_node(format!("n{i}"), s.clone()).expect("fresh");
        }
        for i in 1..nodes {
            let m =
                SpecMorphism::new(format!("m{i}"), specs[i - 1].clone(), specs[i].clone(), [], [])
                    .expect("cumulative chain morphisms are total");
            d.add_arc(format!("m{i}"), format!("n{}", i - 1), format!("n{i}"), m)
                .expect("endpoints");
        }
        let c = colimit(&d, "APEX").expect("non-empty");
        let elapsed = start.elapsed();
        out.push_str(&format!(
            "  {:>5} {:>9} {:>10.2?}  (apex: {} ops, commutes: {})\n",
            nodes,
            ops,
            elapsed,
            c.apex.signature.op_count(),
            c.verify_commutes()
        ));
    }
    out
}

/// The engine `exp.tput`, `exp.prof` and the `mcv engine` gates drive:
/// 16 shards, group commit over a 50 us window in front of a `force_us`
/// device, four clients of 8-op uniform transactions, half of them writes.
pub fn group_commit_driver(force_us: u64) -> mcv_engine::DriverConfig {
    use mcv_engine::{EngineConfig, Mix, WorkloadKind};
    mcv_engine::DriverConfig {
        engine: EngineConfig {
            force_latency_us: force_us,
            group_window_us: 50,
            ..Default::default()
        },
        clients: 4,
        txns: 2_000,
        items: 2_048,
        workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 },
        seed: 42,
    }
}

/// exp.tput — committed throughput and latency of the concurrent
/// engine vs worker count (uniform 16-shard read-write mix, group
/// commit on, modeled 300 µs force latency).
///
/// Unlike every other experiment here, the numbers are wall-clock and
/// therefore scheduling-dependent: identical seeds fix the transaction
/// *specs* but not the interleaving. Each run's sampled history is
/// checked against the conflict-serializability oracle and its durable
/// log against recovery equivalence, so the table doubles as a stress
/// test. The committed count is not scheduling-dependent: the driver
/// admits a fixed quota, and every leg must commit all of it.
fn exp_tput() -> String {
    use mcv_engine::{run_driver, DriverConfig};
    let mut out = String::from(
        "exp.tput — engine committed throughput vs workers\n\
         (uniform mix, 16 shards, 8 ops/txn, 50% writes, 300 us force, group commit)\n\n  \
         workers  committed     txn/s   p50us   p95us   p99us  forces/commit  serializable\n",
    );
    let mut tput = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4, 8] {
        let cfg = DriverConfig {
            clients: workers,
            txns: 1_000,
            items: 4_096,
            seed: 4242,
            ..group_commit_driver(300)
        };
        let report = run_driver(&cfg);
        assert_eq!(
            report.committed, cfg.txns,
            "engine.txn.committed: the {workers}-worker leg must commit its whole quota"
        );
        let fpc = report.forces as f64 / report.commits.max(1) as f64;
        out.push_str(&format!(
            "  {:>7} {:>10} {:>9.0} {:>7} {:>7} {:>7} {:>14.3}  {}\n",
            workers,
            report.committed,
            report.throughput_tps(),
            report.latency_us.percentile(50.0),
            report.latency_us.percentile(95.0),
            report.latency_us.percentile(99.0),
            fpc,
            report.oracles_ok(),
        ));
        mcv_obs::absorb(&report.metrics);
        mcv_obs::gauge(&format!("wall.engine.tput.w{workers}"), report.throughput_tps());
        tput.insert(workers, report.throughput_tps());
    }
    let speedup = tput[&4] / tput[&1].max(1e-9);
    mcv_obs::gauge("wall.engine.speedup.w4_over_w1", speedup);
    out.push_str(&format!(
        "\n4-worker speedup over single-thread: {speedup:.2}x \
         (group commit overlaps the force latency; >= 3x expected)\n"
    ));
    out
}

/// exp.gc — what group commit buys: force amortization and throughput
/// against a force-per-commit baseline, plus forces/commit vs workers.
///
/// Wall-clock numbers; scheduling-dependent like [`exp_tput`].
fn exp_gc() -> String {
    use mcv_engine::{run_driver, DriverConfig, EngineConfig, Mix, WorkloadKind};
    let base = |workers: usize, group: bool| DriverConfig {
        engine: EngineConfig {
            shards: 16,
            group_commit: group,
            force_latency_us: 300,
            group_window_us: 50,
            ..Default::default()
        },
        clients: workers,
        txns: 600,
        items: 2_048,
        workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 6 },
        seed: 777,
    };
    let mut out = String::from(
        "exp.gc — group commit vs force-per-commit (4 workers, 300 us force)\n\n  \
         mode             txn/s  forces  commits  forces/commit   p95us  oracles\n",
    );
    for (label, group) in [("per-commit", false), ("group-commit", true)] {
        let report = run_driver(&base(4, group));
        out.push_str(&format!(
            "  {:<12} {:>9.0} {:>7} {:>8} {:>14.3} {:>7}  {}\n",
            label,
            report.throughput_tps(),
            report.forces,
            report.commits,
            report.forces as f64 / report.commits.max(1) as f64,
            report.latency_us.percentile(95.0),
            report.oracles_ok(),
        ));
        mcv_obs::absorb(&report.metrics);
    }
    out.push_str("\n  batching vs concurrency (group commit on):\n  workers  forces/commit\n");
    for workers in [1usize, 2, 4, 8] {
        let report = run_driver(&base(workers, true));
        out.push_str(&format!(
            "  {:>7} {:>14.3}\n",
            workers,
            report.forces as f64 / report.commits.max(1) as f64
        ));
    }
    out.push_str(
        "\nthe force-per-commit baseline pays one device operation per transaction;\n\
         group commit lets every commit that arrives during an in-flight force ride\n\
         the next batch, so forces/commit falls as concurrency rises.\n",
    );
    out
}

/// The serial 3PC reference schedule of the cross-shard runtime: one
/// transaction at a time over the per-message transport. The run is
/// fault-free, so AC2 obliges every transaction to be decided and to
/// commit at every shard.
fn one_at_a_time(dist: mcv_dist::DistConfig) -> mcv_dist::PipelineOutcome {
    let n_txns = dist.n_txns as u64;
    let o = mcv_dist::run_pipeline(&mcv_dist::PipelineConfig {
        dist,
        max_inflight: 1,
        batch_window_us: 0,
        arrival_us: None,
    });
    assert_eq!(o.stats.txns, n_txns, "dist.txn.total: a serial leg decided too few transactions");
    assert_eq!(o.stats.committed, n_txns, "dist.txn.committed: a fault-free serial leg aborted");
    o
}

/// exp.dist — cross-shard atomic commit over live engines: the 3PC
/// FSMs drive one `mcv-engine` per shard across the threaded
/// transport, one transaction at a time (`max_inflight 1 / batch 0`,
/// the serial 3PC reference). Committed throughput and settle time vs
/// shard count, then vs per-shard write weight.
///
/// Wall-clock numbers, scheduling-dependent like [`exp_tput`] — but
/// the *committed count* is deterministic: every transaction in these
/// fault-free runs must commit at every shard (AC2), which
/// [`one_at_a_time`] asserts for every leg.
fn exp_dist() -> String {
    use mcv_dist::DistConfig;
    let mut out = String::from(
        "exp.dist — cross-shard atomic transactions (3PC over threaded transport,\n\
         one live engine per shard, group-commit WAL, fault-free,\n\
         max_inflight 1 / batch 0: one transaction at a time)\n\n  \
         shards  txns  committed  settle-ms   txn/s  oracles\n",
    );
    for n_shards in [2usize, 3, 4] {
        let o = one_at_a_time(DistConfig {
            n_shards,
            n_txns: 8,
            writes_per_shard: 2,
            seed: 7,
            ..DistConfig::default()
        });
        let tput = o.stats.committed as f64 / (o.stats.wall_ms.max(1) as f64 / 1_000.0);
        out.push_str(&format!(
            "  {:>6} {:>5} {:>10} {:>10} {:>7.0}  {}\n",
            n_shards,
            o.stats.txns,
            o.stats.committed,
            o.stats.wall_ms,
            tput,
            o.violated().is_none(),
        ));
        mcv_obs::gauge(&format!("wall.dist.tput.s{n_shards}"), tput);
    }
    out.push_str("\n  write weight (3 shards):\n  writes/shard  committed  settle-ms  oracles\n");
    for writes in [1usize, 4, 8] {
        let o = one_at_a_time(DistConfig {
            n_txns: 8,
            writes_per_shard: writes,
            seed: 11,
            ..DistConfig::default()
        });
        out.push_str(&format!(
            "  {:>12} {:>10} {:>10}  {}\n",
            writes,
            o.stats.committed,
            o.stats.wall_ms,
            o.violated().is_none(),
        ));
    }
    out.push_str(
        "\nshape check: the settle time is eight commit round trips back to back;\n\
         it barely moves with shard count or write weight — 3PC's message rounds\n\
         overlap across shards — and every fault-free transaction commits\n\
         everywhere.\n",
    );
    out
}

/// exp.pipeline — what multi-shot commit buys, as two schedules of
/// the one runtime: the serial reference (`max_inflight 1 / batch 0`:
/// one transaction at a time, per-message hop delays, one WAL force per
/// commit) against the pipelined schedule (a bounded in-flight window,
/// per-link transport batching, one force wave per delivery batch).
///
/// The structural claims are asserted, each message opening with the
/// claim's name:
///
/// - `pipeline.txn.total` / `pipeline.txn.committed` — fault-free AC2:
///   every streamed transaction must commit at every shard;
/// - `pipeline.oracles.green` — all eight oracles pass on every leg,
///   serial and pipelined alike;
/// - `pipeline.commit_log.dense` — the coordinator's commit log holds
///   exactly one decision per transaction, indices dense;
/// - `pipeline.verdict.speedup_10x` — pipelined committed throughput
///   at 3 shards clears 10x the serial reference on the same topology
///   (both self-measured in this run, so machine speed cancels);
/// - `pipeline.verdict.forces_batched` — across the pipelined legs,
///   shard WALs pay at most 0.5 device forces per commit record
///   (batching must actually amortize; serial pays ~1.0, the
///   pipelined path measures ~0.04).
fn exp_pipeline() -> String {
    use mcv_dist::{run_pipeline, DistConfig, PipelineConfig};
    let mut out = String::from(
        "exp.pipeline — multi-shot pipelined cross-shard commit vs the serial reference\n\
         (3PC over the threaded transport, one live engine per shard, fault-free)\n\n",
    );
    // Serial reference: the exp.dist operating point.
    let s = one_at_a_time(DistConfig {
        n_shards: 3,
        n_txns: 8,
        writes_per_shard: 2,
        seed: 7,
        ..DistConfig::default()
    });
    let serial_tput = s.stats.committed as f64 / (s.stats.wall_ms.max(1) as f64 / 1_000.0);
    out.push_str(&format!(
        "  serial reference (3 shards, 8 txns, max_inflight 1 / batch 0): {} committed, {} ms, \
         {:.0} txn/s, oracles {}\n\n",
        s.stats.committed,
        s.stats.wall_ms,
        serial_tput,
        s.violated().is_none(),
    ));
    assert!(
        s.violated().is_none(),
        "pipeline.oracles.green: the serial reference fails {:?}",
        s.violated()
    );
    out.push_str("  pipelined (96 txns streamed, window 32, batch 600 us):\n");
    out.push_str("  shards  committed  settle-ms   txn/s  forces/commit  dense-log  oracles\n");
    let mut tput_s3 = 0.0f64;
    let (mut wal_commits, mut wal_forces) = (0u64, 0u64);
    for n_shards in [2usize, 3, 4] {
        let cfg = PipelineConfig {
            dist: DistConfig {
                n_shards,
                n_txns: 96,
                writes_per_shard: 2,
                seed: 7,
                ..DistConfig::default()
            },
            max_inflight: 32,
            batch_window_us: 600,
            arrival_us: None,
        };
        let o = run_pipeline(&cfg);
        let tput = o.stats.committed as f64 / (o.stats.wall_ms.max(1) as f64 / 1_000.0);
        let dense = o.commit_log.len() == o.stats.txns as usize
            && o.commit_log.iter().enumerate().all(|(i, e)| e.index == i);
        out.push_str(&format!(
            "  {:>6} {:>10} {:>10} {:>7.0} {:>14.3} {:>10}  {}\n",
            n_shards,
            o.stats.committed,
            o.stats.wall_ms,
            tput,
            o.wal_forces as f64 / o.wal_commits.max(1) as f64,
            dense,
            o.violated().is_none(),
        ));
        mcv_obs::gauge(&format!("wall.pipeline.tput.s{n_shards}"), tput);
        let n_txns = cfg.dist.n_txns as u64;
        assert_eq!(o.stats.txns, n_txns, "pipeline.txn.total: {n_shards} shards decided too few");
        assert_eq!(o.stats.committed, n_txns, "pipeline.txn.committed: {n_shards} shards aborted");
        assert!(
            o.violated().is_none(),
            "pipeline.oracles.green: {n_shards} shards fail {:?}",
            o.violated()
        );
        assert!(dense, "pipeline.commit_log.dense: {n_shards} shards' commit log has gaps");
        wal_commits += o.wal_commits;
        wal_forces += o.wal_forces;
        if n_shards == 3 {
            tput_s3 = tput;
        }
    }
    let speedup = tput_s3 / serial_tput.max(1e-9);
    let forces_per_commit = wal_forces as f64 / wal_commits.max(1) as f64;
    mcv_obs::gauge("wall.pipeline.speedup", speedup);
    mcv_obs::gauge("wall.pipeline.forces_per_commit", forces_per_commit);
    out.push_str(&format!(
        "\nheadline: pipelined 3-shard throughput {tput_s3:.0} txn/s = {speedup:.1}x serial \
         ({serial_tput:.0} txn/s); >= 10x required: {}\n\
         force batching: {wal_forces} forces for {wal_commits} commit records \
         ({forces_per_commit:.3}/commit; <= 0.5 required: {})\n",
        speedup >= 10.0,
        forces_per_commit <= 0.5,
    ));
    assert!(speedup >= 10.0, "pipeline.verdict.speedup_10x: only {speedup:.1}x serial");
    assert!(
        forces_per_commit <= 0.5,
        "pipeline.verdict.forces_batched: {forces_per_commit:.3} forces per commit record"
    );
    out.push_str(
        "\nshape check: one transaction at a time pays every hop delay and one\n\
         force per commit in sequence; the pipelined schedule streams\n\
         transactions through a bounded window, so hop delays and forces\n\
         amortize across everything in flight.\n",
    );
    out
}

/// exp.mvcc — what multi-version reads buy: the same read-heavy
/// zipfian workload under Serializable-2PL (reads through the lock
/// table) and under snapshot isolation (reads off the version chains),
/// swept over worker count.
///
/// Wall-clock throughput is scheduling-dependent like [`exp_tput`],
/// but every SI leg asserts three structural claims: the driver admits
/// a fixed quota, so it commits exactly that many; the snapshot read
/// path never touches the 2PL lock table, so it takes zero read locks;
/// and it serves at least half its expected reads off version chains
/// (reads of a transaction's own writes never reach a chain, so the
/// exact count depends on the draw). Only the SI legs are absorbed into
/// the report; the 2PL legs exist for the throughput comparison.
fn exp_mvcc() -> String {
    use mcv_engine::{run_driver, DriverConfig, EngineConfig, IsolationLevel, Mix, WorkloadKind};
    const TXNS: u64 = 1_000;
    const OPS_PER_TXN: usize = 8;
    const WRITE_PCT: u8 = 10;
    let cfg = |isolation: IsolationLevel, workers: usize| DriverConfig {
        engine: EngineConfig {
            shards: 16,
            group_commit: true,
            // Keep the modeled device fast: the MVCC commit critical
            // section serializes committers across the WAL force, so a
            // slow device would measure the force, not the read paths
            // this experiment compares.
            force_latency_us: 20,
            group_window_us: 10,
            isolation,
            ..Default::default()
        },
        clients: workers,
        txns: TXNS,
        items: 4_096,
        workload: WorkloadKind::ReadWrite {
            mix: Mix::Zipfian { theta: 0.9 },
            write_pct: WRITE_PCT,
            ops_per_txn: OPS_PER_TXN,
        },
        seed: 2026,
    };
    let min_snapshot_reads = TXNS * OPS_PER_TXN as u64 * u64::from(100 - WRITE_PCT) / 100 / 2;
    let mut out = String::from(
        "exp.mvcc — snapshot reads vs the 2PL read path\n\
         (zipfian theta=0.9, 10% writes, 8 ops/txn, 16 shards, 20 us force, group commit)\n\n  \
         workers  si-txn/s  2pl-txn/s   ratio  snap-reads  read-locks(si)  cert-aborts  oracles\n",
    );
    for workers in [1usize, 2, 4, 8] {
        let si = run_driver(&cfg(IsolationLevel::SnapshotIsolation, workers));
        let lk = run_driver(&cfg(IsolationLevel::Serializable2pl, workers));
        let snap_reads =
            si.metrics.counters.get("engine.mvcc.snapshot_reads").copied().unwrap_or(0);
        let read_locks =
            si.metrics.counters.get("engine.locks.read_acquisitions").copied().unwrap_or(0);
        let cert_aborts = si.metrics.counters.get("engine.mvcc.cert_aborts").copied().unwrap_or(0);
        out.push_str(&format!(
            "  {:>7} {:>9.0} {:>10.0} {:>7.2} {:>11} {:>15} {:>12}  {}\n",
            workers,
            si.throughput_tps(),
            lk.throughput_tps(),
            si.throughput_tps() / lk.throughput_tps().max(1e-9),
            snap_reads,
            read_locks,
            cert_aborts,
            si.oracles_ok() && lk.oracles_ok(),
        ));
        assert_eq!(si.committed, TXNS, "engine.txn.committed: the {workers}-worker SI leg");
        assert_eq!(read_locks, 0, "engine.locks.read_acquisitions: the {workers}-worker SI leg");
        assert!(
            snap_reads >= min_snapshot_reads,
            "engine.mvcc.snapshot_reads: the {workers}-worker SI leg served {snap_reads}, \
             fewer than {min_snapshot_reads}"
        );
        mcv_obs::absorb(&si.metrics);
        mcv_obs::gauge(&format!("wall.mvcc.tput.si.w{workers}"), si.throughput_tps());
        mcv_obs::gauge(&format!("wall.mvcc.tput.2pl.w{workers}"), lk.throughput_tps());
    }
    out.push_str(
        "\nshape check: both paths commit the full quota; the SI legs report zero\n\
         read-lock acquisitions (every read is served from a version chain) while\n\
         the 2PL legs pay one shared-lock round trip per read. Under read-heavy\n\
         skew the snapshot path scales past the lock path as workers grow.\n",
    );
    out
}

/// exp.slo — latency under open-loop load: the latency-vs-load curve
/// with its saturation knee, graceful degradation at 2x the knee, and
/// the shard-crash-during-flash-crowd recovery-time campaign.
///
/// Wall-clock latencies are machine-dependent, but the interesting
/// claims are *self-normalized* and asserted, each message opening with
/// the claim's name:
///
/// - the sweep shape, the campaign size and every arrival schedule are
///   pure functions of pinned seeds (`slo.sweep.points`,
///   `slo.recovery.runs`, `slo.arrivals.total`);
/// - overload sheds, goodput under 2x-knee overload stays ≥ 70% of this
///   same run's knee, oracles stay green, and ≥ 90% of the crash
///   campaign recovers within the SLO window (`slo.verdict.*`) — each
///   judged against the run's own measurements, so machine speed
///   cancels out;
/// - `wall.slo.p99_us.*` and `wall.slo.recovery_ms.*` carry the raw
///   latencies, reported only.
///
/// The engine is deliberately throttled (no group commit, 2 ms modeled
/// force) so the knee sits near a few thousand txn/s: the sweep and
/// the 2x-overload leg stay cheap and saturation is reachable on any
/// machine.
fn exp_slo() -> String {
    use mcv_load::{
        crash_campaign_template, knee, rate_sweep, run_load, ArrivalProcess, LoadConfig,
        LoadProfile, SloCampaignConfig,
    };
    let base = LoadConfig {
        profile: LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 1_000.0 },
            duration_us: 200_000,
            sessions: 200_000,
            session_theta: 0.8,
            seed: 31,
        },
        engine: mcv_engine::EngineConfig {
            group_commit: false,
            force_latency_us: 2_000,
            ..Default::default()
        },
        // The queue must be shorter than the deadline: at ~2 ms of
        // service per queued write txn, 16 slots bound queueing delay
        // near 32 ms against the 100 ms budget. A deeper queue is
        // bufferbloat — everything admitted commits after its deadline
        // and goodput collapses past the knee.
        queue_cap: 16,
        ..Default::default()
    };
    let rates = [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0];
    let mut out = String::from(
        "exp.slo — latency under open-loop load, overload shedding, and recovery SLO\n\
         (1 throttled engine: no group commit, 2 ms force; 4 workers, queue cap 16,\n\
         retry-after shedding, 100 ms deadline from arrival)\n\n  \
         offered-tps  goodput-tps    shed   p50us   p99us  p999us  oracles\n",
    );
    let points = rate_sweep(&base, &rates);
    for (rate, p) in rates.iter().zip(&points) {
        out.push_str(&format!(
            "  {:>11.0} {:>12.0} {:>7} {:>7} {:>7} {:>7}  {}\n",
            p.offered_tps, p.goodput_tps, p.shed, p.p50_us, p.p99_us, p.p999_us, p.oracles_ok
        ));
        mcv_obs::gauge(&format!("wall.slo.p99_us.r{rate:.0}"), p.p99_us as f64);
    }
    assert_eq!(points.len(), rates.len(), "slo.sweep.points: one point per offered rate");
    let k = *knee(&points);
    mcv_obs::gauge("wall.slo.knee_tps", k.goodput_tps);
    out.push_str(&format!(
        "\nsaturation knee: {:.0} txn/s goodput at {:.0} txn/s offered\n",
        k.goodput_tps, k.offered_tps
    ));

    // Graceful degradation: push 2x the knee's offered rate through
    // the same system. An open-loop driver keeps the arrivals coming,
    // so the only way to survive is to shed at admission — and goodput
    // must not collapse below 70% of the knee.
    let mut over_cfg = base.clone();
    over_cfg.profile.process = ArrivalProcess::Poisson { rate_tps: 2.0 * k.offered_tps };
    let over = run_load(&over_cfg);
    let goodput_holds = over.goodput_tps() >= 0.7 * k.goodput_tps;
    mcv_obs::gauge("wall.slo.goodput.overload_tps", over.goodput_tps());
    mcv_obs::absorb(&over.metrics);
    out.push_str(&format!(
        "\n2x-knee overload ({:.0} txn/s offered): goodput {:.0} txn/s \
         ({:.0}% of knee, >= 70% required: {}), {} shed, oracles {}\n",
        over.offered_tps(),
        over.goodput_tps(),
        100.0 * over.goodput_tps() / k.goodput_tps.max(1e-9),
        goodput_holds,
        over.shed,
        over.oracles_ok(),
    ));
    assert!(over.shed > 0, "slo.verdict.overload_sheds: the 2x-knee leg shed nothing");
    assert!(
        goodput_holds,
        "slo.verdict.goodput_holds: 2x-knee goodput {:.0} txn/s is under 70% of the knee's {:.0}",
        over.goodput_tps(),
        k.goodput_tps
    );
    assert!(over.oracles_ok(), "slo.verdict.overload_oracles: the 2x-knee leg fails an oracle");

    // The chaos leg: 100 seeded flash-crowd runs, each crashing engine
    // 1 mid-crowd and recovering it from its frozen WAL image while
    // admission sheds around the hole. A run passes when windowed p99
    // is back under the 20 ms target within the SLO window.
    let slo_ms = 500;
    let campaign_cfg =
        SloCampaignConfig { base: crash_campaign_template(), seeds: 100, seed_base: 1_000, slo_ms };
    let campaign = mcv_load::run_slo_campaign(&campaign_cfg);
    mcv_obs::counter("slo.recovery.never", campaign.never_recovered);
    mcv_obs::counter("slo.oracle_failures", campaign.oracle_failures);
    mcv_obs::counter("slo.unresolved_runs", campaign.unresolved_runs);
    mcv_obs::counter("slo.shed.total", campaign.shed_total);
    mcv_obs::gauge("wall.slo.recovery_ms.p50", campaign.recovery_ms.percentile(50.0) as f64);
    mcv_obs::gauge("wall.slo.recovery_ms.p99", campaign.recovery_ms.percentile(99.0) as f64);
    mcv_obs::gauge("wall.slo.worst_recovery_ms", campaign.worst_recovery_ms as f64);
    out.push_str(&format!(
        "\ncrash-recovery campaign (flash crowd 1.5k->4.5k txn/s, engine 1 down at \
         80 ms for 40 ms,\n100 seeds, {slo_ms} ms recovery SLO):\n  {}\n",
        campaign.summary()
    ));
    assert_eq!(campaign.runs, campaign_cfg.seeds, "slo.recovery.runs: one run per seed");
    assert_eq!(
        campaign.arrivals_total, 67_193,
        "slo.arrivals.total: the pinned seeds' arrival schedules changed"
    );
    assert_eq!(campaign.oracle_failures, 0, "slo.verdict.campaign_oracles: a run fails an oracle");
    assert!(
        campaign.slo_fraction() >= 0.9,
        "slo.verdict.recovery_fraction: {}/{} runs recovered within {slo_ms} ms",
        campaign.recovered_within_slo,
        campaign.runs
    );
    out.push_str(
        "\nshape check: goodput climbs with offered load to the knee, then shedding\n\
         absorbs the excess instead of queueing collapse — latency past the knee is\n\
         bounded by the deadline budget, and a crashed shard costs only its own\n\
         sessions for the recovery window while the survivor keeps committing.\n",
    );
    out
}

/// The cross-shard run `exp.prof` and `mcv prof` attribute: fault-free,
/// 3 shards, 8 transactions one at a time. 800 us forces model a real
/// fsync (the default 20 us is tuned for fast protocol campaigns, not
/// for representative attribution) and keep the commit-point force
/// comfortably above scheduling noise.
pub fn attribution_dist(seed: u64) -> mcv_dist::PipelineConfig {
    mcv_dist::PipelineConfig {
        dist: mcv_dist::DistConfig {
            n_shards: 3,
            n_txns: 8,
            writes_per_shard: 2,
            seed,
            force_latency_us: 800,
            ..mcv_dist::DistConfig::default()
        },
        max_inflight: 1,
        batch_window_us: 0,
        arrival_us: None,
    }
}

/// The open-loop run whose telemetry `exp.prof` and `mcv prof` window:
/// 1 500 txn/s Poisson for 200 ms in 50 ms windows.
pub fn telemetry_load(seed: u64) -> mcv_load::LoadConfig {
    mcv_load::LoadConfig {
        profile: mcv_load::LoadProfile {
            process: mcv_load::ArrivalProcess::Poisson { rate_tps: 1_500.0 },
            duration_us: 200_000,
            sessions: 50_000,
            session_theta: 0.8,
            seed,
        },
        engines: 1,
        items_per_engine: 128,
        telemetry_window_us: 50_000,
        ..Default::default()
    }
}

/// exp.prof — where commit latency goes: per-transaction phase
/// attribution from the thread-local ring profiler, critical-path
/// analysis of a cross-shard run, windowed telemetry of an open-loop
/// load run, and the profiler's own overhead.
///
/// Wall-clock numbers are scheduling-dependent like [`exp_tput`], but
/// the headline claims are self-normalized and asserted, each message
/// opening with the claim's name:
///
/// - `prof.verdict.overhead_ok` — instrumented throughput within 1.05x
///   of the uninstrumented engine on the `exp.tput` 4-worker config
///   (median paired ratio over 7 interleaved trials, so machine speed
///   and one-sided scheduler bursts cancel);
/// - `prof.verdict.engine_samples_match` — the profiler harvests
///   exactly one timeline per committed transaction, none dropped;
/// - `prof.verdict.dist_attributed` — the critical-path analyzer
///   explains at least 90% of mean cross-shard commit latency with
///   typed phases;
/// - `prof.verdict.dist_transport_dominant` — the top two phases of
///   the cross-shard run are `transport_rtt` and `wal_force`: message
///   flight and the commit-point force dominate, as 3PC predicts;
/// - `prof.verdict.pipeline_transport_reduced` — the pipelined leg's
///   `transport_rtt` share is below the serial leg's;
/// - `prof.verdict.telemetry_covers_arrivals` — the windowed telemetry
///   stream accounts for every scheduled arrival.
///
/// `prof.dist.paths`, `prof.telemetry.windows`, and
/// `prof.telemetry.arrivals` are structural (fault-free AC2 commits
/// and seeded arrival schedules) and asserted exactly.
fn exp_prof() -> String {
    use mcv_engine::{run_driver, DriverConfig};
    use mcv_prof::{AttributionTable, Profiler};

    let mut out =
        String::from("exp.prof — phase attribution, critical paths, and profiler overhead\n");

    // Leg 1 — overhead: the exp.tput 4-worker config, instrumented vs
    // disabled, 7 interleaved trials each so thermal drift hits both
    // arms equally. The verdict takes the MEDIAN of the per-pair
    // ratios: a pair is adjacent in time so interference skews both
    // arms together, and the median discards pairs where a scheduler
    // burst hit only one arm (best-of-per-arm flaked on exactly that).
    let tput_cfg = || DriverConfig {
        // 3x the exp.tput run length: per-trial throughput noise
        // shrinks with duration, and the overhead claim is asserted,
        // so the estimate must be tight.
        txns: 3_000,
        items: 4_096,
        seed: 4242,
        ..group_commit_driver(300)
    };
    let mut best_plain = 0.0f64;
    let mut best_prof = 0.0f64;
    let mut ratios = Vec::new();
    let mut committed = 0u64;
    let mut engine_samples = mcv_prof::ProfSamples::default();
    for _trial in 0..7 {
        let plain = run_driver(&tput_cfg());
        best_plain = best_plain.max(plain.throughput_tps());
        let profiler = Profiler::new();
        let instrumented = mcv_prof::with_profiler(&profiler, || run_driver(&tput_cfg()));
        best_prof = best_prof.max(instrumented.throughput_tps());
        ratios.push(plain.throughput_tps() / instrumented.throughput_tps().max(1e-9));
        committed = instrumented.committed;
        engine_samples = profiler.harvest();
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    let overhead_ok = ratio <= 1.05;
    let samples_match =
        engine_samples.timelines.len() as u64 == committed && engine_samples.dropped == 0;
    mcv_obs::gauge("wall.prof.overhead_ratio", ratio);
    mcv_obs::gauge("wall.prof.tput.plain", best_plain);
    mcv_obs::gauge("wall.prof.tput.instrumented", best_prof);
    let engine_table = AttributionTable::from_samples(&engine_samples);
    out.push_str(&format!(
        "\noverhead (exp.tput config, 4 workers, best of 7): disabled {best_plain:.0} txn/s, \
         instrumented {best_prof:.0} txn/s, median paired ratio {ratio:.3}x \
         (<= 1.05x required: {overhead_ok})\n\
         samples: {} timelines for {} commits, {} dropped (exact match: {samples_match})\n\n\
         engine phase attribution (instrumented run):\n{}",
        engine_samples.timelines.len(),
        committed,
        engine_samples.dropped,
        engine_table.render(),
    ));
    assert!(overhead_ok, "prof.verdict.overhead_ok: median paired ratio {ratio:.3}x > 1.05x");
    assert!(
        samples_match,
        "prof.verdict.engine_samples_match: {} timelines for {committed} commits, {} dropped",
        engine_samples.timelines.len(),
        engine_samples.dropped
    );
    for row in &engine_table.rows {
        if row.txns > 0 {
            mcv_obs::gauge(&format!("wall.prof.engine.frac_mean.{}", row.phase), row.frac_mean);
        }
    }

    // Leg 2 — cross-shard critical paths: a fault-free exp.dist run,
    // decomposed along the happens-before DAG behind each commit
    // decision. Transport samples from the network thread surface as
    // unanchored phase time; the per-transaction attribution comes
    // from the trace, which cannot double-count parallel flights.
    let dist_cfg = attribution_dist(7);
    let profiler = Profiler::new();
    let o = mcv_prof::with_profiler(&profiler, || mcv_dist::run_pipeline(&dist_cfg));
    let (dist_table, paths) = mcv_prof::attribute_commits(&o.trace);
    let top2 = dist_table.top_phases(2);
    let transport_dominant = top2.contains(&"transport_rtt") && top2.contains(&"wal_force");
    let attributed = dist_table.attributed_frac >= 0.9;
    mcv_obs::gauge("wall.prof.dist.attributed_frac", dist_table.attributed_frac);
    for row in &dist_table.rows {
        if row.txns > 0 {
            mcv_obs::gauge(&format!("wall.prof.dist.frac_mean.{}", row.phase), row.frac_mean);
        }
    }
    out.push_str(&format!(
        "\ncross-shard critical paths (3 shards, 8 txns, fault-free; {} commit paths, \
         oracles {}):\n{}\
         headline: attributed {:.0}% of mean commit latency (>= 90% required: {attributed}); \
         top phases {:?} (transport_rtt + wal_force required: {transport_dominant})\n",
        paths.len(),
        o.violated().is_none(),
        dist_table.render(),
        100.0 * dist_table.attributed_frac,
        top2,
    ));
    assert_eq!(
        paths.len(),
        dist_cfg.dist.n_txns,
        "prof.dist.paths: one critical path per committed transaction"
    );
    assert!(
        attributed,
        "prof.verdict.dist_attributed: {:.0}% of mean commit latency attributed",
        100.0 * dist_table.attributed_frac
    );
    assert!(transport_dominant, "prof.verdict.dist_transport_dominant: top phases {top2:?}");

    // Leg 2b — the same topology under the pipelined schedule:
    // transport batching amortizes hop delays across the in-flight
    // window, so the transport_rtt share of per-commit latency must
    // fall below the one-at-a-time run's (the gated form of the
    // multi-shot attribution claim).
    let serial_transport_frac = dist_table.phase_frac("transport_rtt");
    let pipe_cfg =
        mcv_dist::PipelineConfig { max_inflight: 8, batch_window_us: 600, ..dist_cfg.clone() };
    let profiler = Profiler::new();
    let po = mcv_prof::with_profiler(&profiler, || mcv_dist::run_pipeline(&pipe_cfg));
    let (pipe_table, pipe_paths) = mcv_prof::attribute_commits(&po.trace);
    let pipe_transport_frac = pipe_table.phase_frac("transport_rtt");
    let transport_reduced = pipe_transport_frac < serial_transport_frac;
    mcv_obs::counter("prof.pipeline.paths", pipe_paths.len() as u64);
    for row in &pipe_table.rows {
        if row.txns > 0 {
            mcv_obs::gauge(&format!("wall.prof.pipeline.frac_mean.{}", row.phase), row.frac_mean);
        }
    }
    out.push_str(&format!(
        "\npipelined critical paths (same topology, window 8, batch 600 us; {} commit paths, \
         oracles {}):\n{}\
         headline: transport_rtt share {:.0}% pipelined vs {:.0}% serial \
         (reduction required: {transport_reduced})\n",
        pipe_paths.len(),
        po.violated().is_none(),
        pipe_table.render(),
        100.0 * pipe_transport_frac,
        100.0 * serial_transport_frac,
    ));
    assert!(
        transport_reduced,
        "prof.verdict.pipeline_transport_reduced: transport_rtt share {:.0}% pipelined vs \
         {:.0}% serial",
        100.0 * pipe_transport_frac,
        100.0 * serial_transport_frac
    );

    // Leg 3 — live telemetry on an open-loop load run: windows are
    // keyed by scheduled arrival time, so their count and per-window
    // arrivals are pure functions of the seed even though every
    // latency inside them is measured.
    let load_cfg = telemetry_load(77);
    let profiler = Profiler::new();
    let report = mcv_prof::with_profiler(&profiler, || mcv_load::run_load(&load_cfg));
    let windowed_arrivals: u64 = report.telemetry.iter().map(|w| w.arrivals).sum();
    let covers = windowed_arrivals == report.arrivals;
    assert_eq!(report.telemetry.len(), 4, "prof.telemetry.windows: the seed fixes four windows");
    assert_eq!(windowed_arrivals, 310, "prof.telemetry.arrivals: the seed fixes 310 arrivals");
    assert!(
        covers,
        "prof.verdict.telemetry_covers_arrivals: {windowed_arrivals} arrivals windowed of {}",
        report.arrivals
    );
    let driver_table = AttributionTable::from_samples(&profiler.harvest());
    out.push_str(&format!(
        "\nopen-loop telemetry (1500 txn/s Poisson, 200 ms, 50 ms windows): {} windows, \
         {} arrivals windowed of {} scheduled (complete: {covers}), {} committed, oracles {}\n",
        report.telemetry.len(),
        windowed_arrivals,
        report.arrivals,
        report.committed,
        report.oracles_ok(),
    ));
    for w in &report.telemetry {
        out.push_str(&format!(
            "  window {:>2} [{:>3}-{:>3} ms): {:>3} arrivals, {:>3} commits, \
             p50/p99 {}/{} us\n",
            w.seq,
            w.seq * w.window_us / 1_000,
            (w.seq + 1) * w.window_us / 1_000,
            w.arrivals,
            w.wall.commits,
            w.wall.p50_us,
            w.wall.p99_us,
        ));
    }
    out.push_str(&format!(
        "\narrival-to-resolution attribution (driver anchor joined with engine phases):\n{}",
        driver_table.render()
    ));
    mcv_obs::absorb(&report.metrics);
    out.push_str(
        "\nshape check: on the engine the modeled force dominates; across shards the\n\
         message flights and the participants' commit-point forces own the latency;\n\
         under open-loop load the arrival-anchored budget adds queueing on top —\n\
         and the rings' relaxed stores keep the instrumented engine within 5% of\n\
         the uninstrumented one.\n",
    );
    out
}

/// An artifact id paired with its generator function.
pub type Artifact = (&'static str, fn() -> String);

/// All artifact ids with their generators, in DESIGN.md order.
pub fn artifacts() -> Vec<Artifact> {
    vec![
        ("fig2.1", fig2_1 as fn() -> String),
        ("fig2.2", fig2_2),
        ("fig2.3", fig2_3),
        ("fig2.4", fig2_4),
        ("tab3.1", tab3_1),
        ("fig3.1", fig3_1),
        ("fig3.2", fig3_2),
        ("fig3.3", fig3_3),
        ("fig3.4", fig3_4),
        ("fig3.5", fig3_5),
        ("fig4.s", fig4_s),
        ("fig4.c", fig4_c),
        ("fig4.r", fig4_r),
        ("ch5", ch5),
        ("exp.nb", exp_nb),
        ("exp.msg", exp_msg),
        ("exp.ser", exp_ser),
        ("exp.rec", exp_rec),
        ("exp.timeout", exp_timeout),
        ("exp.part", exp_part),
        ("exp.mod", exp_mod),
        ("exp.colim", exp_colim),
        ("exp.tput", exp_tput),
        ("exp.gc", exp_gc),
        ("exp.dist", exp_dist),
        ("exp.pipeline", exp_pipeline),
        ("exp.mvcc", exp_mvcc),
        ("exp.slo", exp_slo),
        ("exp.prof", exp_prof),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_core::pushout;

    /// The spec-category pushout
    /// demo of Figure 2.1 in the Spec category (complementing FinSet).
    fn spec_pushout_demo() -> bool {
        let shared = SpecBuilder::new("S")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .build_ref()
            .expect("static");
        let l = SpecBuilder::new("L")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .predicate("L", vec![Sort::new("E")])
            .build_ref()
            .expect("static");
        let r = SpecBuilder::new("R")
            .sort(Sort::new("E"))
            .predicate("P", vec![Sort::new("E")])
            .predicate("R", vec![Sort::new("E")])
            .build_ref()
            .expect("static");
        let f = SpecMorphism::new("f", shared.clone(), l, [], []).expect("valid");
        let g = SpecMorphism::new("g", shared, r, [], []).expect("valid");
        pushout(&f, &g, "D").map(|po| po.square_commutes()).unwrap_or(false)
    }

    #[test]
    fn every_artifact_generates_nonempty_output() {
        // Only the cheap generators run here. fig4.* is covered by
        // the mcv-blocks tests. The wall-clock experiments assert
        // their own claims, and `./ci full`'s `experiments` gate runs
        // six of them in release, one at a time: exp.prof's 1.05x
        // overhead claim would not hold inside parallel test threads.
        // exp.gc, exp.rec and exp.ser are skipped for their run time, and
        // so is fig3.2 (~9 s in release, where that gate runs it too):
        // `fig3_2_asserts_the_figure_verdicts` runs all but its two
        // quorum rows.
        for (id, f) in artifacts() {
            if matches!(
                id,
                "fig3.2"
                    | "fig4.s"
                    | "fig4.c"
                    | "fig4.r"
                    | "exp.rec"
                    | "exp.ser"
                    | "exp.tput"
                    | "exp.gc"
                    | "exp.dist"
                    | "exp.pipeline"
                    | "exp.mvcc"
                    | "exp.slo"
                    | "exp.prof"
            ) {
                continue;
            }
            let text = f();
            assert!(!text.is_empty(), "{id} produced nothing");
        }
    }

    #[test]
    fn fig2_1_demonstrates_the_universal_property() {
        let text = fig2_1();
        assert!(text.contains("commutes: true"));
        assert!(text.contains("u∘p = p' and u∘q = q': true"));
    }

    #[test]
    fn fig3_2_asserts_the_figure_verdicts() {
        // Every row but the two quorum ones (~160k states together),
        // which `./ci full`'s `experiments` gate runs in release.
        let (edges, text) = fig3_2_verdicts(5);
        assert_eq!((text.matches(": SAFE").count(), text.matches(": UNSAFE").count()), (2, 3));
        assert!(text.contains("T1 split in global state ⟨p0:c, p1:p, p2:a⟩"), "{text}");
        assert!(edges.contains("w2 --[Prepare]--> p2"), "{edges:?}");
    }

    #[test]
    fn spec_pushout_demo_commutes() {
        assert!(spec_pushout_demo());
    }

    #[test]
    fn exp_msg_shows_3pc_overhead() {
        let text = exp_msg();
        assert!(text.contains("cohorts"));
        // 3PC always costs more messages than 2PC.
        for line in text.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 4 && cols[0].parse::<usize>().is_ok() {
                let two: u64 = cols[1].parse().expect("2PC count");
                let three: u64 = cols[2].parse().expect("3PC count");
                assert!(three > two, "{line}");
            }
        }
    }
}
