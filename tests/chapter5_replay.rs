//! End-to-end replay of the thesis' Chapter 5: parse every spec, build
//! every composition, discharge every proof — the complete formal
//! artifact, exercised through the public API only.

use mcv::blocks::{modules, pipeline, properties, registry, script_runner, SpecLibrary};
use mcv::logic::{Proof, Rule};

/// The used steps of a proof, one line each, without its timing.
fn rendered(proof: &Proof) -> Vec<String> {
    proof
        .used
        .iter()
        .map(|&i| format!("[{i}] {} <- {:?}", proof.steps[i].clause, proof.steps[i].rule))
        .collect()
}

#[test]
fn the_chapter5_search_is_pinned() {
    // The prover's counters per script: a change that alters which
    // clauses the search generates, keeps or drops — not merely how
    // fast — shows up here. p1's and p3's support sets have checked
    // models, so only their direct proofs run; p2's has none, and its
    // saturating pre-check refutes it.
    let scripts = [
        ("5.1.1", script_runner::serializability_script(), [195, 24, 24, 19, 36]),
        ("5.1.2", script_runner::csm_script(), [13, 3, 0, 0, 1]),
        ("5.1.3", script_runner::rbr_script(), [1046, 55, 100, 61, 142]),
    ];
    for (section, source, expected) in scripts {
        let (run, data) =
            mcv::obs::collect(|| script_runner::run_script(section, &source).expect("script runs"));
        assert!(run.proof.expect("a prove statement ran").1, "{section} not proved");
        let counters = ["generated", "iterations", "kept", "subsumed", "unify_attempts"]
            .map(|k| data.metrics.counter(&format!("prover.{k}")));
        assert_eq!(
            counters, expected,
            "{section}: prover.{{generated, iterations, kept, subsumed, unify_attempts}}"
        );
    }

    // The refutations themselves, down to the fresh variable names.
    let lib = SpecLibrary::load();
    let commands = properties::chapter5_commands();
    let p1 = properties::replay(&lib, &commands[0]);
    assert_eq!(
        rendered(p1.result.proof().expect("p1 proved")),
        [
            "[4] ~Log(t_26, X_28, z_31) | ~Unlock(N_27, Z_30) | Locking(N_27, Y_29) | Write(t_26, Y_29, X_28) <- Axiom(\"Readlock\")",
            "[5] ~Log(t_34, X_36, z_39) | ~Unlock(N_35, Z_38) | Locking(N_35, Y_37) | Read(t_34, Y_37, X_36) <- Axiom(\"Writelock\")",
            "[103] ~Locking(sk_N_50_66, sk_Y_54_70) <- NegatedConjecture",
            "[133] ~Read(sk_t_44_60, sk_Y_54_70, sk_X_51_67) | ~Write(sk_t_44_60, sk_Y_54_70, sk_X_51_67) <- NegatedConjecture",
            "[156] Log(sk_t_44_60, sk_X_51_67, sk_z_53_69) <- NegatedConjecture",
            "[158] Unlock(sk_N_50_66, sk_Z_55_71) <- NegatedConjecture",
            "[166] ~Unlock(N_27_183, Z_30_184) | Locking(N_27_183, Y_29_185) | Write(sk_t_44_60, Y_29_185, sk_X_51_67) <- Resolve(156, 4)",
            "[167] ~Unlock(N_35_189, Z_38_190) | Locking(N_35_189, Y_37_191) | Read(sk_t_44_60, Y_37_191, sk_X_51_67) <- Resolve(156, 5)",
            "[170] ~Unlock(sk_N_50_66, Z_30_184_307) | Write(sk_t_44_60, sk_Y_54_70, sk_X_51_67) <- Resolve(166, 103)",
            "[173] Write(sk_t_44_60, sk_Y_54_70, sk_X_51_67) <- Resolve(170, 158)",
            "[175] ~Read(sk_t_44_60, sk_Y_54_70, sk_X_51_67) <- Resolve(173, 133)",
            "[180] ~Unlock(N_35_189_621, Z_38_190_622) | Locking(N_35_189_621, sk_Y_54_70) <- Resolve(167, 175)",
            "[181] ~Unlock(sk_N_50_66, Z_38_190_622_687) <- Resolve(180, 103)",
            "[183] ⊥ <- Resolve(181, 158)",
        ]
    );
    let p3 = properties::replay(&lib, &commands[2]);
    assert_eq!(
        rendered(p3.result.proof().expect("p3 proved")),
        [
            "[16] ~Rollback(n_55, T_57) | ~ckpt(p_54, T_57) | Restore(n_55, T_57) <- Axiom(\"Recover\")",
            "[21] ~Ckpt(p_61, S_67) | ~rollback(n_62, S_67) | restore(n_62, S_67) <- Axiom(\"recover\")",
            "[860] ~Restore(sk_n_73_91, sk_T_70_88) | ~restore(sk_n_73_91, sk_S_76_94) <- NegatedConjecture",
            "[861] ~Restore(sk_n_73_91, sk_T_70_88) | Ckpt(sk_p_68_86, sk_S_76_94) <- NegatedConjecture",
            "[862] ~Restore(sk_n_73_91, sk_T_70_88) | rollback(sk_n_73_91, sk_S_76_94) <- NegatedConjecture",
            "[872] ~restore(sk_n_73_91, sk_S_76_94) | Rollback(sk_n_73_91, sk_T_70_88) <- NegatedConjecture",
            "[876] ~restore(sk_n_73_91, sk_S_76_94) | ckpt(sk_p_68_86, sk_T_70_88) <- NegatedConjecture",
            "[884] Ckpt(sk_p_68_86, sk_S_76_94) | Rollback(sk_n_73_91, sk_T_70_88) <- NegatedConjecture",
            "[890] Ckpt(sk_p_68_86, sk_S_76_94) | ckpt(sk_p_68_86, sk_T_70_88) <- NegatedConjecture",
            "[899] Rollback(sk_n_73_91, sk_T_70_88) | rollback(sk_n_73_91, sk_S_76_94) <- NegatedConjecture",
            "[903] ckpt(sk_p_68_86, sk_T_70_88) | rollback(sk_n_73_91, sk_S_76_94) <- NegatedConjecture",
            "[904] ~Rollback(sk_n_73_91, sk_T_70_88) | ~ckpt(p_54_232, sk_T_70_88) | ~restore(sk_n_73_91, sk_S_76_94) <- Resolve(860, 16)",
            "[954] ~ckpt(p_54_232_3566, sk_T_70_88) | ~restore(sk_n_73_91, sk_S_76_94) <- Resolve(904, 872)",
            "[958] ~restore(sk_n_73_91, sk_S_76_94) <- Resolve(954, 876)",
            "[959] ~Ckpt(p_61_3931, sk_S_76_94) | ~rollback(sk_n_73_91, sk_S_76_94) <- Resolve(958, 21)",
            "[962] ~Restore(sk_n_73_91, sk_T_70_88) | ~rollback(sk_n_73_91, sk_S_76_94) <- Resolve(959, 861)",
            "[965] ~rollback(sk_n_73_91, sk_S_76_94) | Rollback(sk_n_73_91, sk_T_70_88) <- Resolve(959, 884)",
            "[966] ~rollback(sk_n_73_91, sk_S_76_94) | ckpt(sk_p_68_86, sk_T_70_88) <- Resolve(959, 890)",
            "[977] ~Restore(sk_n_73_91, sk_T_70_88) <- Resolve(962, 862)",
            "[978] ~Rollback(sk_n_73_91, sk_T_70_88) | ~ckpt(p_54_4444, sk_T_70_88) <- Resolve(977, 16)",
            "[984] Rollback(sk_n_73_91, sk_T_70_88) <- Resolve(965, 899)",
            "[987] ckpt(sk_p_68_86, sk_T_70_88) <- Resolve(966, 903)",
            "[997] ~ckpt(p_54_4444_5644, sk_T_70_88) <- Resolve(978, 984)",
            "[1004] ⊥ <- Resolve(997, 987)",
        ]
    );
}

#[test]
fn chapter5_refutations_pass_the_independent_checker() {
    let lib = SpecLibrary::load();
    let outcomes = properties::replay_all(&lib);
    // p1 and p3 are direct proofs; p2's is the refutation of its own
    // support set (the consistency pre-check), which makes it vacuous.
    assert!(outcomes[1].vacuous);
    for o in &outcomes {
        let proof = o.result.proof().unwrap_or_else(|| panic!("{} not proved", o.command.label));
        assert_eq!(proof.check(), Ok(()), "{}", o.command.label);
    }

    // Tampering with any inference the refutation uses is caught at
    // that step: a dropped literal, or one with its polarity flipped.
    let p3 = outcomes[2].result.proof().expect("p3 proved");
    let derived = p3.used.iter().copied().filter(|&i| {
        matches!(p3.steps[i].rule, Rule::Resolve(..) | Rule::Factor(_))
            && !p3.steps[i].clause.is_empty()
    });
    for i in derived {
        let mut dropped = p3.clone();
        dropped.steps[i].clause.literals.pop();
        assert_eq!(dropped.check().map_err(|e| e.step), Err(i), "dropped a literal of step {i}");
        let mut flipped = p3.clone();
        let lit = flipped.steps[i].clause.literals.last_mut().expect("nonempty");
        lit.positive = !lit.positive;
        assert_eq!(flipped.check().map_err(|e| e.step), Err(i), "flipped a literal of step {i}");
    }
}

#[test]
fn tampered_witnesses_are_rejected_by_axiom_name() {
    // p3's witness is the one-element structure where every atom holds.
    // Falsifying an atom an axiom needs, or pointing a table cell
    // outside the domain (over one element the only other value lies
    // outside it), is an error naming a support axiom, never a panic.
    let lib = SpecLibrary::load();
    let cmd = &properties::chapter5_commands()[2];
    let support = properties::support_axioms(&lib, cmd);
    let model = properties::replay(&lib, cmd).model.expect("p3 has a witness");
    assert_eq!(model.check(&support), Ok(()));
    let names: Vec<&str> = support.iter().map(|a| a.name.as_str()).collect();
    // Most atoms can go false and leave another model; 7 of the 28 cannot.
    let mut rejected = 0;
    for atom in &model.true_atoms {
        let mut flipped = model.clone();
        flipped.true_atoms.remove(atom);
        if let Err(e) = flipped.check(&support) {
            assert!(names.contains(&e.axiom.as_str()), "{e}");
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no flipped atom was caught");
    assert!(!model.functions.is_empty());
    for cell in model.functions.keys() {
        let mut changed = model.clone();
        changed.functions.insert(cell.clone(), 1);
        let e = changed.check(&support).expect_err("a value outside the domain");
        assert!(names.contains(&e.axiom.as_str()), "{e}");
    }
}

#[test]
fn the_complete_chapter5_artifact() {
    let lib = SpecLibrary::load();

    // Every Table 3.1 block parses and validates.
    let blocks = registry::blocks(&lib);
    assert_eq!(blocks.len(), 12);
    for b in &blocks {
        assert!(b.spec.check().is_empty(), "{} has issues", b.name);
    }

    // Both sequential divisions compose with commuting cones and no
    // open morphism obligations on the Chapter 5 arcs.
    for step in pipeline::sequential_division_1(&lib) {
        assert!(step.commutes, "{}", step.name);
        assert_eq!(step.open_obligations, 0, "{}", step.name);
    }
    for step in pipeline::sequential_division_2(&lib) {
        assert!(step.commutes, "{}", step.name);
    }

    // All three global properties discharge.
    let outcomes = properties::replay_all(&lib);
    assert_eq!(outcomes.len(), 3);
    for o in &outcomes {
        assert!(o.proved(), "{} failed: {:?}", o.command.label, o.result);
    }
    // p1 and p3 are honest proofs; p2 is vacuous (contradictory support).
    assert!(!outcomes[0].vacuous, "p1 should be a direct proof");
    assert!(outcomes[1].vacuous, "p2 should be exposed as vacuous");
    assert!(!outcomes[2].vacuous, "p3 should be a direct proof");
}

#[test]
fn module_chains_produce_certified_composites() {
    let lib = SpecLibrary::load();
    let f = modules::ModuleFactory::new(lib);
    for chain in [f.serializability_chain(), f.consistent_state_chain(), f.rollback_chain()] {
        for step in &chain {
            assert!(step.certificate.all_hold(), "{}", step.label);
            assert!(step.module.commutes(), "{}", step.label);
        }
    }
}

#[test]
fn proofs_survive_composition_into_the_apex() {
    // The thesis' key claim: the global property proved in the block is
    // provable in the composed protocol. Prove Serialize against PR2's
    // (the composed apex's) own axioms.
    let lib = SpecLibrary::load();
    let steps = pipeline::sequential_division_1(&lib);
    let pr2 = &steps[2].colimit.apex;
    let theorem = pr2.property(&"Serialize".into()).expect("theorem carried to apex");
    let axioms = pr2.axioms_as_named();
    // Use only the support axioms (mirroring the `using` clause) to keep
    // the search tractable and honest.
    let support: Vec<_> = axioms
        .into_iter()
        .filter(|a| {
            ["Agreebroad", "Agreeconsensus", "Storevalues", "Readlock", "Writelock"]
                .contains(&a.name.as_str())
        })
        .collect();
    assert_eq!(support.len(), 5);
    let result = mcv::core::chapter5_prover().prove(&support, &theorem.formula);
    assert!(result.is_proved(), "{result:?}");
}

#[test]
fn spec_texts_round_trip_through_display() {
    // Every parsed spec renders back to legal spec syntax that reparses
    // to an equivalent signature.
    let lib = SpecLibrary::load();
    for spec in lib.all() {
        let rendered = spec.to_string();
        assert!(rendered.contains("= spec"));
        assert!(rendered.ends_with("endspec"));
        // Signature lines all reparse.
        let reparsed = mcv::core::parse_spec(
            spec.name.clone(),
            &rendered[rendered.find("spec").unwrap() + 4..],
            &[],
        );
        // Axiom bodies contain rendered formulas (which use pretty
        // syntax, still parseable); tolerate errors only from prop
        // name collisions, not from signatures.
        if let Ok(r) = reparsed {
            assert_eq!(r.signature.sort_count(), spec.signature.sort_count());
            assert_eq!(r.signature.op_count(), spec.signature.op_count());
        }
    }
}
