//! Machine-readable run reports.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::MetricsSnapshot;
use crate::span::SpanStats;

/// The wall-clock section of a report — the only place (besides span
/// `wall_ns` fields) where non-deterministic timing lives.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WallClock {
    /// Total wall-clock nanoseconds for the run.
    pub elapsed_ns: u64,
}

/// One run's worth of observability data, serializable to JSON/JSONL.
///
/// Everything except `wall` and the spans' `wall_ns` fields is a pure
/// function of the workload; [`RunReport::strip_wall`] zeroes exactly
/// those, after which two same-seed runs serialize byte-identically.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Stable identifier of the run (e.g. the repro artifact id).
    pub id: String,
    /// Free-form key/value facts about the run (seed, protocol,
    /// verdicts, ...). Deterministic.
    pub facts: BTreeMap<String, String>,
    /// All metrics recorded during the run.
    pub metrics: MetricsSnapshot,
    /// Per-path span statistics, sorted by path.
    pub spans: Vec<SpanStats>,
    /// Wall-clock timing (non-deterministic).
    pub wall: WallClock,
}

impl RunReport {
    /// An empty report named `id`.
    pub fn new(id: impl Into<String>) -> Self {
        RunReport {
            id: id.into(),
            facts: BTreeMap::new(),
            metrics: MetricsSnapshot::default(),
            spans: Vec::new(),
            wall: WallClock::default(),
        }
    }

    /// Records a free-form fact, returning the report for chaining.
    pub fn fact(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.facts.insert(key.into(), value.to_string());
        self
    }

    /// Zeroes every wall-clock field (the report `wall` section, each
    /// span's `wall_ns`, and any `wall.`-prefixed metric), leaving only
    /// deterministic data.
    pub fn strip_wall(&mut self) {
        self.wall = WallClock::default();
        for span in &mut self.spans {
            span.wall_ns = 0;
        }
        self.metrics.strip_wall();
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunReport serialization is infallible")
    }

    /// Compact single-line JSON, for JSONL streams.
    pub fn to_jsonl_line(&self) -> String {
        serde_json::to_string(self).expect("RunReport serialization is infallible")
    }

    /// Parses a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }

    /// A compact human-readable summary: id, wall time, every counter,
    /// and every span with its call count.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "[obs] {} — {} counters, {} spans, {:.2} ms\n",
            self.id,
            self.metrics.counters.len(),
            self.spans.len(),
            self.wall.elapsed_ns as f64 / 1e6,
        ));
        for (k, v) in &self.facts {
            out.push_str(&format!("  fact  {k} = {v}\n"));
        }
        for (k, v) in &self.metrics.counters {
            out.push_str(&format!("  count {k} = {v}\n"));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "  span  {} — {} calls, {:.2} ms\n",
                s.name,
                s.calls,
                s.wall_ns as f64 / 1e6,
            ));
        }
        out
    }
}

/// Writes `report` as pretty JSON to `<dir>/<id>.json`, creating `dir`
/// if needed, and returns the path written.
pub fn write_report(dir: impl AsRef<Path>, report: &RunReport) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.id));
    fs::write(&path, report.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample() -> RunReport {
        let reg = MetricsRegistry::new();
        reg.add("a.count", 3);
        reg.set_gauge("b.gauge", 2.5);
        reg.record("c.hist", 9);
        let mut r = RunReport::new("sample").fact("seed", 42).fact("protocol", "3pc");
        r.metrics = reg.snapshot();
        r.spans.push(SpanStats { name: "outer".into(), calls: 2, wall_ns: 1234 });
        r.spans.push(SpanStats { name: "outer/inner".into(), calls: 5, wall_ns: 99 });
        r.wall.elapsed_ns = 777;
        r
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = sample();
        let text = r.to_json();
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn jsonl_line_has_no_newline_and_round_trips() {
        let r = sample();
        let line = r.to_jsonl_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunReport::from_json(&line).expect("parse"), r);
    }

    #[test]
    fn strip_wall_zeroes_exactly_the_wall_fields() {
        let mut r = sample();
        r.strip_wall();
        assert_eq!(r.wall.elapsed_ns, 0);
        assert!(r.spans.iter().all(|s| s.wall_ns == 0));
        // Deterministic data survives.
        assert_eq!(r.metrics.counter("a.count"), 3);
        assert_eq!(r.spans[1].calls, 5);
        assert_eq!(r.facts["protocol"], "3pc");
    }

    #[test]
    fn write_report_produces_a_parseable_file() {
        let dir = std::env::temp_dir().join("mcv-obs-report-test");
        let _ = fs::remove_dir_all(&dir);
        let r = sample();
        let path = write_report(&dir, &r).expect("write");
        assert!(path.ends_with("sample.json"));
        let back = RunReport::from_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, r);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_counters_and_spans() {
        let s = sample().summary();
        assert!(s.contains("sample"));
        assert!(s.contains("a.count = 3"));
        assert!(s.contains("outer/inner"));
        assert!(s.contains("fact  protocol = 3pc"));
    }
}
