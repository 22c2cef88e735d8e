//! Reproduction driver: regenerates every table and figure of the
//! thesis, plus the added quantitative experiments.
//!
//! ```text
//! repro all                      # everything, in DESIGN.md order
//! repro list                     # available artifact ids
//! repro fig3.2 ch5               # specific artifacts
//! repro exp.msg --json target/repro   # also write RunReport JSON per artifact
//! ```
//!
//! With `--json <dir>`, each artifact generator runs inside an
//! [`mcv_obs::collect`] scope and a machine-readable
//! [`mcv_obs::RunReport`] (metrics + spans + wall-clock) is written to
//! `<dir>/<id>.json`. Counters are deterministic across identically
//! seeded runs; only `wall.*` metrics and span/report wall-clock fields
//! vary. The concurrent artifacts (`exp.tput`, `exp.gc`, `exp.dist`)
//! are the exception: their `engine.*`/`dist.*` wall metrics depend on
//! thread scheduling.
//!
//! The benchmark experiments (`exp.tput`, `exp.dist`, `exp.pipeline`,
//! `exp.mvcc`, `exp.slo`, `exp.prof`) assert their own structural
//! claims, so a broken claim makes `repro` exit non-zero with the
//! claim's name (`pipeline.verdict.forces_batched`, ...) in the panic
//! message.

use mcv_bench::artifacts;
use std::path::PathBuf;

fn main() {
    let mut json_dir: Option<PathBuf> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--json" {
            match raw.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--json requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(a);
        }
    }
    let known = artifacts();
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!("usage: repro [--json <dir>] <artifact-id>... | all | list");
        eprintln!("artifact ids:");
        for (id, _) in &known {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    if args[0] == "list" {
        for (id, _) in &known {
            println!("{id}");
        }
        return;
    }
    let selected: Vec<&mcv_bench::Artifact> = if args[0] == "all" {
        known.iter().collect()
    } else {
        let mut v = Vec::new();
        for a in &args {
            match known.iter().find(|(id, _)| id == a) {
                Some(found) => v.push(found),
                None => {
                    eprintln!("unknown artifact {a:?}; try `repro list`");
                    std::process::exit(2);
                }
            }
        }
        v
    };
    for (id, gen) in selected {
        println!("==================== {id} ====================");
        match &json_dir {
            None => println!("{}", gen()),
            Some(dir) => {
                let (text, data) = mcv_obs::collect(gen);
                println!("{text}");
                let report = data
                    .into_report(*id)
                    .fact("artifact", *id)
                    .fact("generator", "mcv-bench repro");
                match mcv_obs::write_report(dir, &report) {
                    Ok(path) => eprintln!("[obs] wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("[obs] failed to write report for {id}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}
