//! One argument grammar for the workspace's commands. The `mcv` binary
//! ([`MCV`]) and `xtask` each declare a table of [`Command`]s, and
//! [`parse`] maps an argument list onto one entry of it. A bad
//! argument — an unknown command or flag, a missing or unparsable
//! value, a missing or extra positional — is an error naming what is
//! wrong, never a default: [`parse_or_exit`] prints it with the usage
//! and exits 2.

use std::str::FromStr;

/// What a flag's value or a positional argument must parse as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A flag that takes no value.
    Switch,
    /// A whole number (`u64`).
    Count,
    /// A finite number (`f64`).
    Number,
    /// Any text: a path, a revision, an id.
    Text,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
}

/// One entry of a command table.
#[derive(Debug)]
pub struct Command {
    /// The words that name it, space-separated: `"engine anomalies"`.
    pub path: &'static str,
    /// Its parameters as `(name, kind)`: a name starting with `--` is
    /// an optional flag; any other is a required positional, in order,
    /// except that a name ending in `...` takes every remaining
    /// positional, zero or more.
    pub params: &'static [(&'static str, Kind)],
}

/// A parsed argument list: the command it names and its checked values.
#[derive(Debug)]
pub struct Args {
    /// The [`Command::path`] of the entry matched.
    pub command: &'static str,
    values: Vec<(&'static str, String)>,
    rest: Vec<String>,
}

impl Args {
    /// The value of a parameter (a flag's last, if repeated) by name;
    /// `None` when absent.
    ///
    /// # Panics
    ///
    /// If `T` does not parse what the table's [`Kind`] admitted: a
    /// table and its reader disagree.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, v) = self.values.iter().rev().find(|(n, _)| *n == name)?;
        Some(v.parse().unwrap_or_else(|_| panic!("{name}: {v:?} passed its kind check")))
    }

    /// Every value a repeatable flag was given, in order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.values.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether a switch (or any flag) was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// The positionals taken by a trailing `...` parameter.
    pub fn rest(&self) -> &[String] {
        &self.rest
    }
}

fn check(name: &str, kind: Kind, v: &str) -> Result<(), String> {
    let ok = match kind {
        Kind::Count => v.parse::<u64>().is_ok(),
        Kind::Number => v.parse::<f64>().is_ok_and(f64::is_finite),
        Kind::Choice(words) => words.contains(&v),
        Kind::Switch | Kind::Text => true,
    };
    ok.then_some(()).ok_or_else(|| format!("{name}: {v:?} is not {}", describe(kind)))
}

fn describe(kind: Kind) -> String {
    match kind {
        Kind::Count => "a whole number".into(),
        Kind::Number => "a number".into(),
        Kind::Choice(words) => format!("one of {}", words.join("|")),
        Kind::Switch | Kind::Text => "text".into(),
    }
}

/// The entry of `table` whose path `words` start with, the longest if
/// several do.
pub fn command<'t>(table: &'t [Command], words: &[impl AsRef<str>]) -> Option<&'t Command> {
    let starts = |c: &&Command| {
        let path = c.path.split(' ');
        path.clone().count() <= words.len() && path.zip(words).all(|(p, w)| p == w.as_ref())
    };
    table.iter().filter(starts).max_by_key(|c| c.path.len())
}

/// Maps `words` (the arguments after the program name) onto the
/// [`command`] they name.
///
/// # Errors
///
/// A message naming the unknown command or flag, the flag whose value
/// is missing or unparsable, or the missing or extra positional.
pub fn parse(table: &'static [Command], words: &[String]) -> Result<Args, String> {
    let cmd = command(table, words).ok_or_else(|| match &words[..words.len().min(2)] {
        [] => "missing command".to_owned(),
        w => format!("unknown command `{}`", w.join(" ")),
    })?;
    let mut args = Args { command: cmd.path, values: Vec::new(), rest: Vec::new() };
    let mut positional = Vec::new();
    let mut it = words[cmd.path.split(' ').count()..].iter();
    while let Some(w) = it.next() {
        if !w.starts_with("--") {
            positional.push(w);
            continue;
        }
        let &(name, kind) = cmd
            .params
            .iter()
            .find(|(name, _)| name == w)
            .ok_or_else(|| format!("unknown flag {w} for `{}`", cmd.path))?;
        let value = match kind {
            Kind::Switch => String::new(),
            _ => it.next().ok_or_else(|| format!("{name} needs {}", describe(kind)))?.clone(),
        };
        check(name, kind, &value)?;
        args.values.push((name, value));
    }
    let mut positional = positional.into_iter();
    for &(name, kind) in cmd.params.iter().filter(|(name, _)| !name.starts_with("--")) {
        if name.ends_with("...") {
            for v in positional.by_ref() {
                check(name, kind, v)?;
                args.rest.push(v.clone());
            }
        } else {
            let v = positional.next().ok_or_else(|| format!("missing <{name}>"))?;
            check(name, kind, v)?;
            args.values.push((name, v.clone()));
        }
    }
    match positional.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?} for `{}`", cmd.path)),
        None => Ok(args),
    }
}

/// One usage line per entry of `table` whose first word is `group`
/// (every entry when no entry has it).
pub fn usage(program: &str, table: &[Command], group: &str) -> String {
    let in_group = |c: &&Command| c.path.split(' ').next() == Some(group);
    let all = !table.iter().any(|c| in_group(&c));
    let mut out = String::from("usage:\n");
    for c in table.iter().filter(|c| all || in_group(c)) {
        out += &format!("  {program} {}", c.path);
        for &(name, kind) in c.params {
            out += &match kind {
                _ if !name.starts_with("--") => format!(" <{name}>"),
                Kind::Switch => format!(" [{name}]"),
                Kind::Choice(words) => format!(" [{name} {}]", words.join("|")),
                _ => format!(" [{name} <{}>]", &name[2..]),
            };
        }
        out.push('\n');
    }
    out
}

/// [`parse`]s the process arguments; on an error prints it and the
/// usage of the command group the arguments name, and exits 2.
pub fn parse_or_exit(program: &str, table: &'static [Command]) -> Args {
    let words: Vec<String> = std::env::args().skip(1).collect();
    parse(table, &words).unwrap_or_else(|e| {
        let group = words.first().map_or("", String::as_str);
        bad_argument(&format!("{program}: {e}\n{}", usage(program, table, group).trim_end()))
    })
}

/// Prints `message` and exits 2: a bad argument that the table's kinds
/// cannot express, such as a value out of range or a required flag.
pub fn bad_argument(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

const SEED: (&str, Kind) = ("--seed", Kind::Count);
const SEED_BASE: (&str, Kind) = ("--seed-base", Kind::Count);
const FILE: (&str, Kind) = ("FILE", Kind::Text);
const N: (&str, Kind) = ("N", Kind::Count);
const OUT: (&str, Kind) = ("--out", Kind::Text);

const LOAD_RUN: &[(&str, Kind)] = &[
    ("--rate", Kind::Count),
    ("--duration-ms", Kind::Count),
    ("--sessions", Kind::Count),
    ("--engines", Kind::Count),
    ("--queue-cap", Kind::Count),
    ("--drop", Kind::Switch),
    SEED,
];

const fn cmd(path: &'static str, params: &'static [(&'static str, Kind)]) -> Command {
    Command { path, params }
}

/// The `mcv` command table: every gate, campaign, replay, trace tool
/// and reproduction the workspace runs.
pub const MCV: &[Command] = &[
    cmd("chaos hunt", &[]),
    cmd("chaos smoke", &[SEED_BASE]),
    cmd("chaos replay", &[FILE]),
    cmd("dist hunt", &[]),
    cmd("dist smoke", &[SEED_BASE]),
    cmd("dist pipeline-smoke", &[SEED_BASE]),
    cmd("dist campaign", &[N, SEED_BASE]),
    cmd("dist pipeline-campaign", &[N, SEED_BASE]),
    cmd("dist replay", &[FILE]),
    cmd(
        "engine run",
        &[
            ("--threads", Kind::Count),
            ("--shards", Kind::Count),
            ("--txns", Kind::Count),
            ("--items", Kind::Count),
            ("--force-us", Kind::Count),
            ("--workload", Kind::Choice(&["uniform", "zipf", "readheavy", "bank", "writeskew"])),
            ("--isolation", Kind::Choice(&["2pl", "rc", "si", "ssi"])),
            ("--zipf", Kind::Number),
            ("--no-group-commit", Kind::Switch),
            SEED,
        ],
    ),
    cmd("engine smoke", &[SEED, SEED_BASE]),
    cmd("engine mvcc-smoke", &[SEED, SEED_BASE]),
    cmd("engine anomalies", &[N, SEED, SEED_BASE]),
    cmd("engine replay", &[FILE]),
    cmd("load run", LOAD_RUN),
    cmd("load smoke", &[SEED, SEED_BASE]),
    cmd("load flash-crowd", LOAD_RUN),
    cmd(
        "load crash-shard",
        &[("--seeds", Kind::Count), ("--sessions", Kind::Count), SEED, SEED_BASE],
    ),
    cmd("load dist", &[SEED]),
    cmd("prof run", &[SEED]),
    cmd("prof smoke", &[SEED, SEED_BASE, ("--seeds", Kind::Count)]),
    cmd("trace record", &[OUT, SEED, ("--faults", Kind::Switch)]),
    cmd("trace record-engine", &[OUT, ("--workers", Kind::Count), ("--txns", Kind::Count)]),
    cmd("trace check", &[FILE]),
    cmd("trace show", &[FILE, ("--filter", Kind::Text), ("--causal-path", Kind::Count)]),
    cmd("trace critical-path", &[FILE, ("--txn", Kind::Count)]),
    cmd("trace smoke", &[]),
    cmd("repro", &[("ID...", Kind::Text), ("--json", Kind::Text)]),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_land_under_their_names() {
        let a = parse(MCV, &words("repro --json out fig3.2 ch5")).expect("parses");
        assert_eq!(a.rest(), words("fig3.2 ch5"));
        assert_eq!((a.command, a.get("--json")), ("repro", Some("out".to_owned())));
        let a = parse(MCV, &words("trace show t --filter site=1 --causal-path 2 --filter txn=1"))
            .expect("parses");
        assert_eq!((a.get("FILE"), a.get("--causal-path")), (Some("t".to_owned()), Some(2)));
        assert_eq!(a.all("--filter").collect::<Vec<_>>(), ["site=1", "txn=1"]);
    }

    /// Every command refuses an unknown flag and an extra positional;
    /// every flag that takes a value refuses a missing one and, unless
    /// it takes text, a non-numeric one; every positional is required
    /// and checked.
    #[test]
    fn every_bad_argument_of_every_command_is_refused() {
        for c in MCV {
            let positional = c.params.iter().filter(|(n, _)| !n.starts_with("--"));
            let required: Vec<_> =
                positional.clone().filter(|(n, _)| !n.ends_with("...")).collect();
            let value = |(_, kind): &&(&str, Kind)| if *kind == Kind::Count { "3" } else { "f" };
            let ok =
                format!("{} {}", c.path, required.iter().map(value).collect::<Vec<_>>().join(" "));
            assert!(parse(MCV, &words(&ok)).is_ok(), "{ok}");
            let mut bad = vec![format!("{ok} --no-such-flag")];
            if positional.count() == required.len() {
                bad.push(format!("{ok} extra"));
            }
            for &(name, kind) in c.params {
                let flag = name.starts_with("--");
                match kind {
                    Kind::Switch => continue,
                    _ if flag => bad.push(format!("{ok} {name}")),
                    _ if !name.ends_with("...") => bad.push(c.path.to_owned()),
                    _ => {}
                }
                if kind != Kind::Text {
                    bad.push(if flag {
                        format!("{ok} {name} abc")
                    } else {
                        format!("{} abc", c.path)
                    });
                }
            }
            for b in bad {
                assert!(parse(MCV, &words(&b)).is_err(), "accepted `{b}`");
            }
        }
        for b in ["", "engine", "engine --smoke", "chaos_hunt --smoke"] {
            assert!(parse(MCV, &words(b)).is_err(), "accepted `{b}`");
        }
        let err = parse(MCV, &words("chaos smoke --sed-base 1000")).expect_err("typo");
        assert!(err.contains("--sed-base"), "{err}");
    }

    /// A renamed subcommand breaks this test instead of a user's replay.
    #[test]
    fn every_artifact_kind_replays_through_its_replay_subcommand() {
        use mcv_chaos::{AnomalyArtifact, Artifact};
        let chaos =
            Artifact::new(mcv_commit::Scenario::default(), "ac1_agreement".into(), String::new());
        let dist =
            Artifact::new(mcv_dist::PipelineConfig::default(), "atomicity".into(), String::new());
        let anomaly = AnomalyArtifact::new("write_skew", "si", 1, 3, 4, 1, Default::default());
        for (replay_cmd, id, command) in [
            (chaos.replay_cmd, chaos.id, "chaos replay"),
            (dist.replay_cmd, dist.id, "dist replay"),
            (anomaly.replay_cmd, anomaly.id, "engine replay"),
        ] {
            let (cargo, rest) = replay_cmd.split_once(" -- ").expect("a cargo run line");
            assert_eq!(cargo, "cargo run --release -p mcv-bench --bin mcv");
            let args = parse(MCV, &words(rest)).expect("parses");
            assert_eq!((args.command, args.get("FILE")), (command, Some(format!("{id}.json"))));
        }
    }

    #[test]
    fn usage_lists_the_group_or_everything() {
        let engine = usage("mcv", MCV, "engine");
        assert!(engine.contains("mcv engine anomalies <N> [--seed <seed>]"), "{engine}");
        assert!(!engine.contains("mcv chaos"), "{engine}");
        assert_eq!(usage("mcv", MCV, "nope").lines().count(), MCV.len() + 1);
    }
}
