//! `benchmark compare <a.json> <b.json>`: per workload and end-to-end
//! metric, both medians with their quartiles, the relative change in
//! the "worse" direction, the bound, and a verdict.
//!
//! - `worse`: B's median is worse than A's by more than the bound and
//!   by more than either side's spread;
//! - `unresolved`: a spread (inter-quartile distance over the median,
//!   across repetitions) is wider than the bound, so a bound-sized
//!   change could not be told from noise;
//! - `ok`: otherwise.
//!
//! Exits non-zero on any `worse`.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of `b` against `a` in the direction that is worse
/// for the metric (positive = worse).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = worsening(m, a.median, b.median);
    let spread = a.spread().max(b.spread());
    if worse_by > m.bound && worse_by > spread {
        Verdict::Worse
    } else if spread > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The untraced record of `workload` in a result file.
fn record<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("runs")?.items().iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced").and_then(Json::as_bool) == Some(false)
    })
}

fn summary(record: &Json, metric: &str) -> Option<Summary> {
    let m = record.get("end_to_end")?.get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<19} {:<12} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "worse by",
        "bound"
    );
    let mut worse = 0;
    let mut compared = 0;
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (record(&a, w.name), record(&b, w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary(ra, m.name), summary(rb, m.name)) else {
                continue;
            };
            let v = verdict(m, &sa, &sb);
            compared += 1;
            worse += usize::from(v == Verdict::Worse);
            let range = |s: &Summary| format!("[{:.4}, {:.4}] {}", s.q1, s.q3, s.n);
            println!(
                "{:<19} {:<12} {:>12.4} {:>23} {:>12.4} {:>23} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                sa.median,
                range(&sa),
                sb.median,
                range(&sb),
                100.0 * worsening(m, sa.median, sb.median),
                100.0 * m.bound,
                v.as_str(),
            );
        }
    }
    if compared == 0 {
        eprintln!("benchmark compare: the two files share no untraced workload record");
        return ExitCode::from(2);
    }
    println!("{compared} pairs compared, {worse} worse");
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, LAT_P50, TPUT};

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3, n: 5 }
    }

    #[test]
    fn direction_follows_the_metric() {
        let tput = end_to_end(TPUT).expect("declared");
        let lat = end_to_end(LAT_P50).expect("declared");
        assert!((worsening(tput, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(tput, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(lat, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(lat, 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts() {
        let tput = end_to_end(TPUT).expect("declared");
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        let loose = |m: f64| s(m, m * 0.8, m * 1.2);
        // Within the bound, tight spreads.
        assert_eq!(
            verdict(tput, &tight(100.0), &tight(100.0 * (1.0 - tput.bound / 2.0))),
            Verdict::Ok
        );
        // Better is never worse.
        assert_eq!(verdict(tput, &tight(100.0), &tight(150.0)), Verdict::Ok);
        // Past the bound, tight spreads.
        assert_eq!(
            verdict(tput, &tight(100.0), &tight(100.0 * (1.0 - tput.bound * 2.0))),
            Verdict::Worse
        );
        // A spread wider than the bound hides a bound-sized change...
        assert_eq!(verdict(tput, &loose(100.0), &tight(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(tput, &tight(100.0), &loose(85.0)), Verdict::Unresolved);
        // ...but not a change larger than the spread itself.
        assert_eq!(verdict(tput, &loose(100.0), &loose(40.0)), Verdict::Worse);
    }

    #[test]
    fn reads_records_from_a_result_file() {
        let file = json::parse(
            r#"{"runs": [
                {"workload": "spec-verify", "traced": true, "end_to_end": {}},
                {"workload": "spec-verify", "traced": false, "end_to_end":
                    {"tput_tps": {"unit": "1/s", "median": 3.5, "q1": 3.4, "q3": 3.6, "n": 4}}}
            ]}"#,
        )
        .expect("parses");
        let r = record(&file, "spec-verify").expect("untraced record");
        assert_eq!(summary(r, TPUT), Some(Summary { median: 3.5, q1: 3.4, q3: 3.6, n: 4 }));
        assert_eq!(summary(r, LAT_P50), None);
        assert!(record(&file, "dist-pipeline").is_none());
    }
}
