//! One workload run's result: what it prints, the contract line the
//! acceptance driver parses, and the detail record `compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::spans::{write_csv, Span};
use crate::stats::Summary;

/// Everything one `--workload` run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Units of work attempted in timed repetitions, and how many of
    /// them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; empty means every check passed.
    pub violations: Vec<String>,
    /// Untraced run: one sample per repetition for each end-to-end
    /// metric.
    pub end_to_end: BTreeMap<&'static str, Vec<f64>>,
    /// Traced run: the per-layer metrics this workload measures.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human reader (what ran, sample counts).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        assert!(metrics::end_to_end(metric).is_some(), "undeclared end-to-end metric {metric}");
        assert!(value.is_finite(), "{metric} sample is not finite");
        self.end_to_end.entry(metric).or_default().push(value);
    }

    pub fn layer(&mut self, metric: &'static str, value: f64) {
        assert!(metrics::per_layer(metric).is_some(), "undeclared per-layer metric {metric}");
        assert!(value.is_finite(), "{metric} is not finite");
        self.per_layer.insert(metric, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Writes the run's spans, kept in memory until now, next to the
    /// result records: one CSV per workload, `cap` rows per thread.
    pub fn write_spans(&mut self, dir: &Path, threads: &[Vec<Span>], cap: usize) {
        let path = dir.join(format!("spans-{}.csv", self.workload));
        if let Err(e) = write_csv(&path, threads, cap) {
            self.violations.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mode = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(
            s,
            "== {} ({mode}, seed {}, {} s, {} client cores) ==",
            self.workload,
            self.seed,
            self.seconds,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        for note in &self.notes {
            let _ = writeln!(s, "   {note}");
        }
        if self.traced {
            let mut layer = "";
            for m in PER_LAYER.iter().filter(|m| self.per_layer.contains_key(m.name)) {
                if m.layer() != layer {
                    layer = m.layer();
                    let _ = writeln!(s, " layer {layer}");
                }
                // What the number should move end to end, so the table
                // reads as a ledger and not a list.
                let moves = if m.moves.is_empty() {
                    "-> no end-to-end change predicted".to_owned()
                } else {
                    let pairs: Vec<_> = m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
                    format!("-> {}", pairs.join(", "))
                };
                let _ = writeln!(
                    s,
                    "   {:<34} {:>14.3} {:<6} {moves}",
                    m.name, self.per_layer[m.name], m.unit
                );
            }
        } else {
            let _ = writeln!(
                s,
                "   {:<14} {:>14} {:>14} {:>14} {:>4}  unit",
                "metric", "median", "q1", "q3", "n"
            );
            for m in &END_TO_END {
                let sum = Summary::of(&self.end_to_end[m.name]);
                let _ = writeln!(
                    s,
                    "   {:<14} {:>14.3} {:>14.3} {:>14.3} {:>4}  {}",
                    m.name, sum.median, sum.q1, sum.q3, sum.n, m.unit
                );
            }
        }
        let _ = writeln!(
            s,
            "   attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for v in &self.violations {
            let _ = writeln!(s, "   VIOLATION: {v}");
        }
        s
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed`, `metrics`. An untraced run carries every
    /// end-to-end metric (median over repetitions); a traced run every
    /// per-layer metric, 0 for layers this workload does not enter.
    pub fn contract_line(&self) -> String {
        let metrics = if self.traced {
            PER_LAYER
                .iter()
                .map(|d| {
                    let v = self.per_layer.get(d.name).copied().unwrap_or(0.0);
                    (d.name.to_owned(), metric_value(v, d.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| {
                    let samples = self
                        .end_to_end
                        .get(d.name)
                        .unwrap_or_else(|| panic!("{} reported no {}", self.workload, d.name));
                    (d.name.to_owned(), metric_value(Summary::of(samples).median, d.unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The detail record merged into a result file: summaries with
    /// quartiles and sample counts, which `compare` reads.
    pub fn detail(&self) -> Json {
        let e2e = END_TO_END
            .iter()
            .filter_map(|d| {
                let s = Summary::of(self.end_to_end.get(d.name)?);
                let entry = Json::obj([
                    ("unit", Json::str(d.unit)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]);
                Some((d.name.to_owned(), entry))
            })
            .collect();
        let layers = PER_LAYER
            .iter()
            .filter_map(|d| {
                let v = self.per_layer.get(d.name)?;
                Some((d.name.to_owned(), metric_value(*v, d.unit)))
            })
            .collect();
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("violations", Json::Arr(self.violations.iter().map(Json::str).collect())),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
        ])
    }
}

fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn keys(line: &str) -> Vec<String> {
        let v = json::parse(line).expect("contract line parses");
        assert_eq!(
            v.entries().iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        v.get("metrics").expect("metrics").entries().iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn untraced_line_carries_every_end_to_end_metric_as_a_median() {
        let mut r = RunResult { workload: "w".into(), attempted: 10, ..RunResult::default() };
        for m in &END_TO_END {
            for v in [3.0, 1.0, 2.5] {
                r.sample(m.name, v);
            }
        }
        let line = r.contract_line();
        assert!(!line.contains('\n'));
        assert_eq!(keys(&line), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        let v = json::parse(&line).expect("parses");
        let tput = v.get("metrics").and_then(|m| m.get("tput_tps")).expect("tput_tps");
        assert_eq!(tput.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(tput.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn traced_line_carries_every_per_layer_metric_and_zero_for_layers_not_entered() {
        let mut r = RunResult { traced: true, attempted: 1, ..RunResult::default() };
        r.layer("engine.read_ns", 312.5);
        r.violations.push("broken".into());
        let line = r.contract_line();
        assert_eq!(keys(&line), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        let v = json::parse(&line).expect("parses");
        let value = |name: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("engine.read_ns"), Some(312.5));
        assert_eq!(value("mvcc.read_at_ns"), Some(0.0));
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn an_undeclared_metric_name_cannot_be_emitted() {
        RunResult::default().sample("made_up_metric", 1.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
