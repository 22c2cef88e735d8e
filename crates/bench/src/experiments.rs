//! One function per paper artifact (table/figure/proof) plus the added
//! quantitative experiments. Each returns a printable report; the
//! `repro` binary dispatches on artifact ids.

use mcv_blocks::{modules, pipeline, properties, registry, traceability, SpecLibrary};
use mcv_commit::fsm::{check, figure_3_2_table, ModelConfig};
use mcv_commit::{build_world, run_scenario, CrashPoint, Protocol, Scenario};
use mcv_core::finset::{fin_pushout, fin_set, mediating, FinMap};
use mcv_core::{pushout, SpecBuilder, SpecMorphism};
use mcv_logic::Sort;
use mcv_txn::{History, LockManager, LockMode, OpKind, SiteDb, TxnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 2.1: a pushout with the universal property's mediating
/// morphism, demonstrated in FinSet.
pub fn fig2_1() -> String {
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
pub fn fig2_2() -> String {
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
pub fn fig2_3() -> String {
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
pub fn fig2_4() -> String {
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
pub fn tab3_1() -> String {
    let lib = SpecLibrary::load();
    registry::render_table(&lib)
}

/// Figure 3.1: a distributed transaction execution (master/cohort
/// startwork–workdone–commit), traced.
pub fn fig3_1() -> String {
    let sc = Scenario { n_cohorts: 2, ..Scenario::default() };
    let mut world = build_world(&sc);
    world.run_until(mcv_sim::SimTime::from_ticks(sc.deadline));
    let mut out = String::from(
        "Figure 3.1 — distributed transaction execution (master p0, cohorts p1, p2)\n",
    );
    for entry in world.trace().entries() {
        use mcv_sim::TraceEvent::*;
        match &entry.event {
            Deliver { from, to, .. } => {
                out.push_str(&format!("  {} message {from} -> {to}\n", entry.time))
            }
            Note { proc, text } => out.push_str(&format!("  {} {proc}: {text}\n", entry.time)),
            _ => {}
        }
    }
    out
}

/// Figure 3.2: the 3PC automaton — transition table plus exhaustive
/// safety checks of four configurations.
pub fn fig3_2() -> String {
    let mut out = String::from(
        "Figure 3.2 — 3PC with coordinator and cohort: transition table\n\
         (q=initial w=wait p=prepared a=abort c=commit; suffix 1=coordinator, 2=cohort)\n\n",
    );
    for (from, action, to) in figure_3_2_table() {
        out.push_str(&format!("  {from:<3} --[{action}]--> {to}\n"));
    }
    out.push_str("\nExhaustive reachability check of the automaton's safety property\n");
    out.push_str("(no reachable global state commits at one site and aborts at another):\n\n");
    for (desc, cfg) in [
        (
            "1 cohort,  naive timeouts,       synchronous",
            ModelConfig {
                cohorts: 1,
                naive_timeouts: true,
                synchronous: true,
                coordinator_recovery: true,
            },
        ),
        (
            "2 cohorts, naive timeouts,       synchronous",
            ModelConfig {
                cohorts: 2,
                naive_timeouts: true,
                synchronous: true,
                coordinator_recovery: true,
            },
        ),
        (
            "3 cohorts, naive timeouts,       synchronous",
            ModelConfig {
                cohorts: 3,
                naive_timeouts: true,
                synchronous: true,
                coordinator_recovery: true,
            },
        ),
        (
            "2 cohorts, termination protocol, synchronous",
            ModelConfig {
                cohorts: 2,
                naive_timeouts: false,
                synchronous: true,
                coordinator_recovery: true,
            },
        ),
        (
            "3 cohorts, termination protocol, synchronous",
            ModelConfig {
                cohorts: 3,
                naive_timeouts: false,
                synchronous: true,
                coordinator_recovery: true,
            },
        ),
        (
            "2 cohorts, termination protocol, ASYNCHRONOUS",
            ModelConfig {
                cohorts: 2,
                naive_timeouts: false,
                synchronous: false,
                coordinator_recovery: true,
            },
        ),
    ] {
        let r = check(&cfg);
        match r.violation {
            None => {
                out.push_str(&format!("  {desc}: SAFE ({} reachable states)\n", r.states_explored))
            }
            Some(v) => {
                out.push_str(&format!("  {desc}: UNSAFE — counterexample:\n"));
                for s in &v.path {
                    out.push_str(&format!("      {s}\n"));
                }
                out.push_str(&format!("      => {}\n", v.state));
            }
        }
    }
    out
}

/// Figure 3.3: the global view — which building block serves which part
/// of a running site.
pub fn fig3_3() -> String {
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
pub fn fig3_4() -> String {
    let lib = SpecLibrary::load();
    format!(
        "Figure 3.4 — modular dependencies, sequential division 1\n{}",
        pipeline::render(&pipeline::sequential_division_1(&lib))
    )
}

/// Figure 3.5: sequential division 2 as computed colimits.
pub fn fig3_5() -> String {
    let lib = SpecLibrary::load();
    format!(
        "Figure 3.5 — modular dependencies, sequential division 2\n{}",
        pipeline::render(&pipeline::sequential_division_2(&lib))
    )
}

/// Figures 4.1–4.8: the serializability chain.
pub fn fig4_s() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from("Figures 4.1–4.8 — serializability of transactions\n\n");
    out.push_str(&traceability::render_dependencies(&lib, &properties::chapter5_commands()[0]));
    let factory = modules::ModuleFactory::new(lib);
    out.push('\n');
    out.push_str(&modules::render_chain(&factory.serializability_chain()));
    out
}

/// Figures 4.9–4.16: the consistent-state chain.
pub fn fig4_c() -> String {
    let lib = SpecLibrary::load();
    let mut out = String::from("Figures 4.9–4.16 — consistent state maintenance\n\n");
    out.push_str(&traceability::render_dependencies(&lib, &properties::chapter5_commands()[1]));
    let factory = modules::ModuleFactory::new(lib);
    out.push('\n');
    out.push_str(&modules::render_chain(&factory.consistent_state_chain()));
    out
}

/// Figures 4.17–4.28: the roll-back recovery chain.
pub fn fig4_r() -> String {
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
pub fn exp_nb() -> String {
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
pub fn exp_msg() -> String {
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
pub fn exp_ser() -> String {
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
pub fn exp_rec() -> String {
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
pub fn exp_timeout() -> String {
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
pub fn exp_part() -> String {
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
            partition: Some((vec![0], 20, heals_at)),
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
pub fn exp_mod() -> String {
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
pub fn exp_colim() -> String {
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

/// exp.tput — committed throughput and latency of the concurrent
/// engine vs worker count (uniform 16-shard read-write mix, group
/// commit on, modeled 300 µs force latency).
///
/// Unlike every other experiment here, the numbers are wall-clock and
/// therefore scheduling-dependent: identical seeds fix the transaction
/// *specs* but not the interleaving. Each run's sampled history is
/// checked against the conflict-serializability oracle and its durable
/// log against recovery equivalence, so the table doubles as a stress
/// test.
pub fn exp_tput() -> String {
    use mcv_engine::{run_driver, DriverConfig, EngineConfig, Mix, WorkloadKind};
    let mut out = String::from(
        "exp.tput — engine committed throughput vs workers\n\
         (uniform mix, 16 shards, 8 ops/txn, 50% writes, 300 us force, group commit)\n\n  \
         workers  committed     txn/s   p50us   p95us   p99us  forces/commit  serializable\n",
    );
    let mut tput = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4, 8] {
        let report = run_driver(&DriverConfig {
            engine: EngineConfig {
                shards: 16,
                group_commit: true,
                force_latency_us: 300,
                group_window_us: 50,
                ..Default::default()
            },
            clients: workers,
            txns: 1_000,
            items: 4_096,
            workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 },
            seed: 4242,
        });
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
pub fn exp_gc() -> String {
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
/// transaction at a time over the per-message transport.
fn one_at_a_time(dist: mcv_dist::DistConfig) -> mcv_dist::PipelineOutcome {
    mcv_dist::run_pipeline(&mcv_dist::PipelineConfig {
        dist,
        max_inflight: 1,
        batch_window_us: 0,
        arrival_us: None,
    })
}

/// exp.dist — cross-shard atomic commit over live engines: the 3PC
/// FSMs drive one `mcv-engine` per shard across the threaded
/// transport, one transaction at a time (`max_inflight 1 / batch 0`,
/// the serial 3PC reference). Committed throughput and settle time vs
/// shard count, then vs per-shard write weight.
///
/// Wall-clock numbers, scheduling-dependent like [`exp_tput`] — but
/// the *committed count* is deterministic: every transaction in these
/// fault-free runs must commit at every shard (AC2), so
/// `dist.txn.total` and `dist.txn.committed` gate exactly while
/// `wall.dist.tput.*` gets a wide wall-clock tolerance.
pub fn exp_dist() -> String {
    use mcv_dist::DistConfig;
    let mut out = String::from(
        "exp.dist — cross-shard atomic transactions (3PC over threaded transport,\n\
         one live engine per shard, group-commit WAL, fault-free,\n\
         max_inflight 1 / batch 0: one transaction at a time)\n\n  \
         shards  txns  committed  settle-ms   txn/s  oracles\n",
    );
    let mut total = 0u64;
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
        total += o.stats.txns;
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
        total += o.stats.txns;
    }
    mcv_obs::counter("dist.txn.total", total);
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
/// Wall-clock gauges get the usual wide band; the structural claims
/// gate exactly:
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
pub fn exp_pipeline() -> String {
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
    out.push_str("  pipelined (96 txns streamed, window 32, batch 600 us):\n");
    out.push_str("  shards  committed  settle-ms   txn/s  forces/commit  oracles\n");
    let mut total = 0u64;
    let mut committed_total = 0u64;
    let mut green_legs = u64::from(s.violated().is_none());
    let mut dense_logs = 0u64;
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
        out.push_str(&format!(
            "  {:>6} {:>10} {:>10} {:>7.0} {:>14.3}  {}\n",
            n_shards,
            o.stats.committed,
            o.stats.wall_ms,
            tput,
            o.wal_forces as f64 / o.wal_commits.max(1) as f64,
            o.violated().is_none(),
        ));
        mcv_obs::gauge(&format!("wall.pipeline.tput.s{n_shards}"), tput);
        total += o.stats.txns;
        committed_total += o.stats.committed;
        green_legs += u64::from(o.violated().is_none());
        let dense = o.commit_log.len() == o.stats.txns as usize
            && o.commit_log.iter().enumerate().all(|(i, e)| e.index == i);
        dense_logs += u64::from(dense);
        wal_commits += o.wal_commits;
        wal_forces += o.wal_forces;
        if n_shards == 3 {
            tput_s3 = tput;
        }
    }
    let speedup = tput_s3 / serial_tput.max(1e-9);
    let forces_per_commit = wal_forces as f64 / wal_commits.max(1) as f64;
    mcv_obs::counter("pipeline.txn.total", total);
    mcv_obs::counter("pipeline.txn.committed", committed_total);
    mcv_obs::counter("pipeline.oracles.green", green_legs);
    mcv_obs::counter("pipeline.commit_log.dense", dense_logs);
    mcv_obs::counter("pipeline.verdict.speedup_10x", u64::from(speedup >= 10.0));
    mcv_obs::counter("pipeline.verdict.forces_batched", u64::from(forces_per_commit <= 0.5));
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
/// but two counters are structural and gate exactly: the driver admits
/// a fixed quota so `engine.txn.committed` is deterministic, and the
/// snapshot read path never touches the 2PL lock table so
/// `engine.locks.read_acquisitions` is exactly zero. Only the SI legs
/// are absorbed into the benchmark record; the 2PL legs exist for the
/// throughput comparison and would otherwise pollute the zero-lock
/// assertion.
pub fn exp_mvcc() -> String {
    use mcv_engine::{run_driver, DriverConfig, EngineConfig, IsolationLevel, Mix, WorkloadKind};
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
        txns: 1_000,
        items: 4_096,
        workload: WorkloadKind::ReadWrite {
            mix: Mix::Zipfian { theta: 0.9 },
            write_pct: 10,
            ops_per_txn: 8,
        },
        seed: 2026,
    };
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
/// Wall-clock latencies are machine-dependent, but the record is built
/// so the interesting claims are *self-normalized* and gate exactly:
///
/// - the sweep shape and every arrival schedule are pure functions of
///   pinned seeds (`slo.sweep.points`, `slo.arrivals.total` exact);
/// - `slo.verdict.*` are 0/1 structural verdicts — overload sheds,
///   goodput under 2x-knee overload stays ≥ 70% of this same run's
///   knee, oracles stay green, and ≥ 90% of the crash campaign
///   recovers within the SLO window — each judged against the run's
///   own measurements, so machine speed cancels out;
/// - `wall.slo.p99_us.*` and `wall.slo.recovery_ms.*` carry the raw
///   latencies for the lower-is-better 3x bands.
///
/// The engine is deliberately throttled (no group commit, 2 ms modeled
/// force) so the knee sits near a few thousand txn/s: the sweep and
/// the 2x-overload leg stay cheap and saturation is reachable on any
/// machine.
pub fn exp_slo() -> String {
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
    mcv_obs::counter("slo.sweep.points", points.len() as u64);
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
    mcv_obs::counter("slo.verdict.overload_sheds", u64::from(over.shed > 0));
    mcv_obs::counter("slo.verdict.goodput_holds", u64::from(goodput_holds));
    mcv_obs::counter("slo.verdict.overload_oracles", u64::from(over.oracles_ok()));
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

    // The chaos leg: 100 seeded flash-crowd runs, each crashing engine
    // 1 mid-crowd and recovering it from its frozen WAL image while
    // admission sheds around the hole. A run passes when windowed p99
    // is back under the 20 ms target within the SLO window.
    let slo_ms = 500;
    let campaign = mcv_load::run_slo_campaign(&SloCampaignConfig {
        base: crash_campaign_template(),
        seeds: 100,
        seed_base: 1_000,
        slo_ms,
    });
    mcv_obs::counter("slo.recovery.runs", campaign.runs);
    mcv_obs::counter("slo.recovery.within_slo", campaign.recovered_within_slo);
    mcv_obs::counter("slo.recovery.never", campaign.never_recovered);
    mcv_obs::counter("slo.oracle_failures", campaign.oracle_failures);
    mcv_obs::counter("slo.unresolved_runs", campaign.unresolved_runs);
    mcv_obs::counter("slo.arrivals.total", campaign.arrivals_total);
    mcv_obs::counter("slo.shed.total", campaign.shed_total);
    mcv_obs::counter("slo.verdict.campaign_oracles", u64::from(campaign.oracle_failures == 0));
    mcv_obs::counter("slo.verdict.recovery_fraction", u64::from(campaign.slo_fraction() >= 0.9));
    mcv_obs::gauge("wall.slo.recovery_ms.p50", campaign.recovery_ms.percentile(50.0) as f64);
    mcv_obs::gauge("wall.slo.recovery_ms.p99", campaign.recovery_ms.percentile(99.0) as f64);
    mcv_obs::gauge("wall.slo.worst_recovery_ms", campaign.worst_recovery_ms as f64);
    out.push_str(&format!(
        "\ncrash-recovery campaign (flash crowd 1.5k->4.5k txn/s, engine 1 down at \
         80 ms for 40 ms,\n100 seeds, {slo_ms} ms recovery SLO):\n  {}\n",
        campaign.summary()
    ));
    out.push_str(
        "\nshape check: goodput climbs with offered load to the knee, then shedding\n\
         absorbs the excess instead of queueing collapse — latency past the knee is\n\
         bounded by the deadline budget, and a crashed shard costs only its own\n\
         sessions for the recovery window while the survivor keeps committing.\n",
    );
    out
}

/// exp.prof — where commit latency goes: per-transaction phase
/// attribution from the thread-local ring profiler, critical-path
/// analysis of a cross-shard run, windowed telemetry of an open-loop
/// load run, and the profiler's own overhead.
///
/// Wall-clock numbers are scheduling-dependent like [`exp_tput`], but
/// the headline claims are self-normalized 0/1 verdicts that gate
/// exactly:
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
/// - `prof.verdict.telemetry_covers_arrivals` — the windowed telemetry
///   stream accounts for every scheduled arrival.
///
/// `prof.dist.paths`, `prof.telemetry.windows`, and
/// `prof.telemetry.arrivals` are structural (fault-free AC2 commits
/// and seeded arrival schedules) and also gate exactly.
pub fn exp_prof() -> String {
    use mcv_engine::{run_driver, DriverConfig, EngineConfig, Mix, WorkloadKind};
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
        engine: EngineConfig {
            shards: 16,
            group_commit: true,
            force_latency_us: 300,
            group_window_us: 50,
            ..Default::default()
        },
        clients: 4,
        // 3x the exp.tput run length: per-trial throughput noise
        // shrinks with duration, and the 0/1 overhead verdict gates
        // exactly, so the estimate must be tight.
        txns: 3_000,
        items: 4_096,
        workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 },
        seed: 4242,
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
    mcv_obs::counter("prof.verdict.overhead_ok", u64::from(overhead_ok));
    mcv_obs::counter("prof.verdict.engine_samples_match", u64::from(samples_match));
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
    // 800us forces model a real fsync (the default 20us is tuned for
    // fast protocol campaigns, not for representative attribution) and
    // keep the commit-point force comfortably above scheduling noise.
    let dist_cfg = mcv_dist::PipelineConfig {
        dist: mcv_dist::DistConfig {
            n_shards: 3,
            n_txns: 8,
            writes_per_shard: 2,
            seed: 7,
            force_latency_us: 800,
            ..mcv_dist::DistConfig::default()
        },
        max_inflight: 1,
        batch_window_us: 0,
        arrival_us: None,
    };
    let profiler = Profiler::new();
    let o = mcv_prof::with_profiler(&profiler, || mcv_dist::run_pipeline(&dist_cfg));
    let (dist_table, paths) = mcv_prof::attribute_commits(&o.trace);
    let top2 = dist_table.top_phases(2);
    let transport_dominant = top2.contains(&"transport_rtt") && top2.contains(&"wal_force");
    let attributed = dist_table.attributed_frac >= 0.9;
    mcv_obs::counter("prof.dist.paths", paths.len() as u64);
    mcv_obs::counter("prof.verdict.dist_attributed", u64::from(attributed));
    mcv_obs::counter("prof.verdict.dist_transport_dominant", u64::from(transport_dominant));
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
    mcv_obs::counter("prof.verdict.pipeline_transport_reduced", u64::from(transport_reduced));
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

    // Leg 3 — live telemetry on an open-loop load run: windows are
    // keyed by scheduled arrival time, so their count and per-window
    // arrivals are pure functions of the seed even though every
    // latency inside them is measured.
    let load_cfg = mcv_load::LoadConfig {
        profile: mcv_load::LoadProfile {
            process: mcv_load::ArrivalProcess::Poisson { rate_tps: 1_500.0 },
            duration_us: 200_000,
            sessions: 50_000,
            session_theta: 0.8,
            seed: 77,
        },
        engines: 1,
        items_per_engine: 128,
        telemetry_window_us: 50_000,
        ..Default::default()
    };
    let profiler = Profiler::new();
    let report = mcv_prof::with_profiler(&profiler, || mcv_load::run_load(&load_cfg));
    let windowed_arrivals: u64 = report.telemetry.iter().map(|w| w.arrivals).sum();
    let covers = windowed_arrivals == report.arrivals;
    mcv_obs::counter("prof.telemetry.windows", report.telemetry.len() as u64);
    mcv_obs::counter("prof.telemetry.arrivals", windowed_arrivals);
    mcv_obs::counter("prof.verdict.telemetry_covers_arrivals", u64::from(covers));
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

/// A tiny smoke-check used by the test suite: the spec-category pushout
/// demo of Figure 2.1 in the Spec category (complementing FinSet).
pub fn spec_pushout_demo() -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_generates_nonempty_output() {
        // The heavyweight ones (fig4.*) are covered by mcv-blocks
        // tests, and the wall-clock benches (exp.tput, exp.gc,
        // exp.dist) by the mcv-engine/mcv-dist suites plus the ci
        // smoke gates; here smoke-test the cheap generators.
        for (id, f) in artifacts() {
            if matches!(
                id,
                "fig4.s"
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
    fn fig3_2_finds_the_partial_prepare_hazard() {
        let text = fig3_2();
        assert!(text.contains("UNSAFE"));
        assert!(text.contains("SAFE"));
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
