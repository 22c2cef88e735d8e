//! Replays the thesis' Chapter 5 Specware processing scripts —
//! `spec`/`translate`/`morphism`/`diagram`/`colimit`/`print`/`prove`
//! statements — through the script interpreter, and emits Graphviz DOT
//! for the composition diagrams.
//!
//! Run with `cargo run --release --example specware_scripts`.

use mcv::blocks::script_runner;
use mcv::core::{ScriptEngine, ScriptEventKind, ScriptValue};

fn main() {
    for (section, source) in [
        ("5.1.1 Serializability of Transactions", script_runner::serializability_script()),
        ("5.1.2 Consistent State Maintenance", script_runner::csm_script()),
        ("5.1.3 Roll-Back Recovery", script_runner::rbr_script()),
    ] {
        println!("=== §{section} ===\n");
        let mut engine = ScriptEngine::new();
        match engine.run(&source) {
            Err(e) => {
                eprintln!("script failed: {e}");
                std::process::exit(1);
            }
            Ok(events) => {
                for ev in &events {
                    match ev {
                        ScriptEventKind::Defined { name, kind } => {
                            println!("  defined {kind:<12} {name}");
                        }
                        ScriptEventKind::Printed(text) => {
                            let first = text.lines().next().unwrap_or("");
                            println!("  print -> {first} … ({} lines)", text.lines().count());
                        }
                        ScriptEventKind::Proved { label, theorem, proved, vacuous, model } => {
                            println!(
                                "  {label} = prove {theorem} … {}",
                                match (proved, vacuous) {
                                    (true, false) => "PROVED",
                                    (true, true) => "PROVED (vacuously: contradictory support)",
                                    _ => "NOT PROVED",
                                }
                            );
                            if let Some(m) = model {
                                let header = m.to_string();
                                println!(
                                    "    non-vacuous: {}",
                                    header.lines().next().unwrap_or("")
                                );
                            }
                        }
                    }
                }
            }
        }
        // Emit DOT for every diagram the script defined.
        for diagram_name in
            ["CONSEN", "UNRE", "TLOCK", "SNAPS", "DECMAK", "TPLock", "CKPOINTING", "RCOV"]
        {
            if let Some(ScriptValue::Diagram(d)) = engine.get(diagram_name) {
                let path = std::env::temp_dir().join(format!("mcv_{diagram_name}.dot"));
                if std::fs::write(&path, d.to_dot(diagram_name)).is_ok() {
                    println!("  wrote {}", path.display());
                }
            }
        }
        println!();
    }
}
