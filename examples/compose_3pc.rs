//! The full Chapter 3–5 workflow: inventory the building blocks of 3PC
//! (Table 3.1), compose the two sequential divisions (Figures 3.4/3.5),
//! replay the module compositions of Chapter 4, and discharge the three
//! global properties with the prover (Chapter 5), each non-vacuous one
//! with the finite model that witnesses it.
//!
//! Run with `cargo run --release --example compose_3pc`. Exits non-zero
//! unless p1 and p3 are proved with a model and p2 is proved vacuously
//! (the `spec_smoke` gate of `./ci full`).

use mcv::blocks::{modules, pipeline, properties, registry, traceability, SpecLibrary};

fn main() {
    let lib = SpecLibrary::load();

    println!("=== Table 3.1: building blocks ===\n{}", registry::render_table(&lib));

    println!("=== Figure 3.4: sequential division 1 ===");
    let d1 = pipeline::sequential_division_1(&lib);
    println!("{}", pipeline::render(&d1));

    println!("=== Figure 3.5: sequential division 2 ===");
    let d2 = pipeline::sequential_division_2(&lib);
    println!("{}", pipeline::render(&d2));

    println!("=== Chapter 4: module compositions ===");
    let factory = modules::ModuleFactory::new(lib.clone());
    println!("-- serializability chain (Figs 4.2–4.8) --");
    println!("{}", modules::render_chain(&factory.serializability_chain()));
    println!("-- consistent state chain (Figs 4.9–4.16) --");
    println!("{}", modules::render_chain(&factory.consistent_state_chain()));
    println!("-- roll-back recovery chain (Figs 4.17–4.28) --");
    println!("{}", modules::render_chain(&factory.rollback_chain()));

    println!("=== Figures 4.1 / 4.9 / 4.17: dependency diagrams ===");
    for cmd in properties::chapter5_commands() {
        println!("{}", traceability::render_dependencies(&lib, &cmd));
    }

    println!("=== Chapter 5: the three proofs ===");
    let outcomes = properties::replay_all(&lib);
    for outcome in &outcomes {
        let status = if !outcome.proved() {
            "NOT PROVED"
        } else if outcome.vacuous {
            "proved (VACUOUSLY — support set is contradictory)"
        } else {
            "proved"
        };
        println!(
            "{}: prove {} in {} using {:?}\n  -> {}",
            outcome.command.label,
            outcome.command.theorem,
            outcome.command.spec,
            outcome.command.using,
            status
        );
        if let Some(p) = outcome.result.proof() {
            println!(
                "  refutation: {} steps, {} clauses generated, axioms used: {:?}",
                p.length(),
                p.generated(),
                p.axioms_used()
            );
        }
        if let Some(m) = &outcome.model {
            for line in format!("non-vacuous: {m}").lines() {
                println!("  {line}");
            }
        }
    }

    println!("\n=== Consistency audit (not in the thesis) ===");
    let pairs = properties::consistency_audit(&lib);
    if pairs.is_empty() {
        println!("no pairwise-contradictory axioms found");
    } else {
        for p in pairs {
            println!("  {}: axioms {} and {} are jointly contradictory", p.spec, p.a, p.b);
        }
    }

    // (proved, vacuous, has a model) per proof.
    let verdicts: Vec<_> =
        outcomes.iter().map(|o| (o.proved(), o.vacuous, o.model.is_some())).collect();
    let expected = [(true, false, true), (true, true, false), (true, false, true)];
    if verdicts != expected {
        eprintln!(
            "Chapter 5 verdicts (proved, vacuous, model) {verdicts:?}, expected {expected:?}"
        );
        std::process::exit(1);
    }
}
