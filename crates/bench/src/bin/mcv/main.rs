//! The workspace's one command: the `./ci` gates, the fault campaigns
//! and their replays, the trace explorer and the reproduction driver,
//! as subcommands over the argument grammar of [`mcv_bench::cli`].
//! `mcv` alone lists every command with its flags. A gate exits 1 when
//! its claim fails, a bad argument exits 2 naming it.

mod campaign;
mod engine;
mod load;
mod prof;
mod trace;

use mcv_bench::cli::{self, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = cli::parse_or_exit("mcv", cli::MCV);
    let ok = match args.command.split(' ').next() {
        Some("chaos" | "dist") => campaign::run(&args),
        Some("engine") => engine::run(&args),
        Some("load") => load::run(&args),
        Some("prof") => prof::run(&args),
        Some("trace") => trace::run(&args),
        _ => repro(&args),
    };
    ExitCode::from(u8::from(!ok))
}

/// Regenerates the named artifacts (`all`: every one, `list`: their
/// ids). With `--json <dir>`, each generator runs inside an
/// [`mcv_obs::collect`] scope and its [`mcv_obs::RunReport`] is written
/// to `<dir>/<id>.json`. The benchmark experiments assert their own
/// claims, so a broken one panics with the claim's name.
fn repro(args: &Args) -> bool {
    let known = mcv_bench::artifacts();
    let ids = args.rest();
    if ids.first().is_some_and(|id| id == "list") {
        known.iter().for_each(|(id, _)| println!("{id}"));
        return true;
    }
    let mut selected = Vec::new();
    for id in ids {
        match known.iter().find(|(known, _)| known == id) {
            Some(found) => selected.push(found),
            None if id == "all" => selected.extend(&known),
            None => cli::bad_argument(&format!("mcv repro: unknown artifact {id:?}; see `list`")),
        }
    }
    if selected.is_empty() {
        cli::bad_argument("mcv repro: name artifact ids, `all` or `list`");
    }
    let json_dir: Option<String> = args.get("--json");
    for (id, gen) in selected {
        println!("==================== {id} ====================");
        let Some(dir) = &json_dir else {
            println!("{}", gen());
            continue;
        };
        let (text, data) = mcv_obs::collect(gen);
        println!("{text}");
        let report = data.into_report(*id).fact("artifact", *id).fact("generator", "mcv repro");
        match mcv_obs::write_report(dir, &report) {
            Ok(path) => eprintln!("[obs] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[obs] failed to write report for {id}: {e}");
                return false;
            }
        }
    }
    true
}
