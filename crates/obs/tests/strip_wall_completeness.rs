//! `strip_wall` completeness: walk the full serialized [`RunReport`]
//! tree and verify that after stripping, no wall-clock-derived value
//! survives anywhere — not just in the fields the unit tests happen to
//! name.
//!
//! The determinism contract (DESIGN.md) says wall-clock readings may
//! live only in (a) the report's `wall` section, (b) span `wall_ns`
//! fields, and (c) metrics under a `wall.` name prefix. `facts` are
//! deterministic by contract (seeds, verdicts, config echoes), so the
//! walker skips that subtree. Everything else it checks structurally:
//! if a future field smuggles timing in under one of the wall markers
//! and `strip_wall` misses it, this test fails without being updated.

use mcv_obs::{MetricsRegistry, RunReport, SpanStats};
use serde::{Serialize, Value};

/// Collects paths of wall-marked values that still carry data.
fn wall_violations(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Map(entries) => {
            for (key, child) in entries {
                let child_path = format!("{path}/{key}");
                // Free-form facts are deterministic by contract.
                if path.is_empty() && key == "facts" {
                    continue;
                }
                let wall_marked = key == "wall" || key == "wall_ns" || key.starts_with("wall.");
                if wall_marked {
                    // A `wall.`-prefixed metric must be gone entirely;
                    // `wall` / `wall_ns` must be all-zero.
                    if key.starts_with("wall.") {
                        out.push(format!("{child_path} (wall.* metric still present)"));
                    } else if !all_zero(child) {
                        out.push(format!("{child_path} (non-zero wall value)"));
                    }
                }
                wall_violations(child, &child_path, out);
            }
        }
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                wall_violations(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// True when every numeric leaf under `value` is zero.
fn all_zero(value: &Value) -> bool {
    match value {
        Value::U64(n) => *n == 0,
        Value::I64(n) => *n == 0,
        Value::F64(n) => *n == 0.0,
        Value::Map(entries) => entries.iter().all(|(_, v)| all_zero(v)),
        Value::Seq(items) => items.iter().all(all_zero),
        Value::Null | Value::Bool(_) | Value::Str(_) => true,
    }
}

/// A report with every field family populated, wall-clock data in all
/// three sanctioned places, and the prof-era metric names (`prof.*`
/// attribution counters, `wall.prof.*` measured gauges, windowed
/// latency histograms) exercised alongside the originals.
fn fully_populated() -> RunReport {
    let reg = MetricsRegistry::new();
    reg.add("engine.commits", 17);
    reg.add("prof.samples", 9);
    reg.add("prof.pipeline.paths", 1);
    reg.add("wall.spurious.counter", 3);
    reg.set_gauge("load.offered_tps", 2_000.0);
    reg.set_gauge("wall.load.p99_us", 870.0);
    reg.set_gauge("wall.prof.frac_mean.transport_rtt", 0.61);
    reg.record("engine.ops_per_txn", 8);
    reg.record("wall.load.latency_us", 450);
    let mut r = RunReport::new("full").fact("seed", 42).fact("prof.top_phase", "transport_rtt");
    r.metrics = reg.snapshot();
    r.spans.push(SpanStats { name: "commit".into(), calls: 17, wall_ns: 123_456 });
    r.spans.push(SpanStats { name: "commit/force".into(), calls: 17, wall_ns: 88_000 });
    r.wall.elapsed_ns = 9_876_543;
    r
}

#[test]
fn walker_flags_the_unstripped_report() {
    // Sanity: the walker must have teeth — before stripping, every
    // wall-bearing site shows up as a violation.
    let report = fully_populated();
    let mut found = Vec::new();
    wall_violations(&Serialize::serialize(&report), "", &mut found);
    assert!(
        found.iter().any(|p| p.contains("/wall ") || p.ends_with("/wall (non-zero wall value)")),
        "wall section not flagged: {found:?}"
    );
    assert!(found.iter().any(|p| p.contains("wall_ns")), "span wall_ns not flagged: {found:?}");
    assert!(
        found.iter().any(|p| p.contains("wall.load.p99_us")),
        "wall.* gauge not flagged: {found:?}"
    );
    assert!(
        found.iter().any(|p| p.contains("wall.load.latency_us")),
        "wall.* histogram not flagged: {found:?}"
    );
    assert!(
        found.iter().any(|p| p.contains("wall.spurious.counter")),
        "wall.* counter not flagged: {found:?}"
    );
}

#[test]
fn strip_wall_leaves_no_wall_marked_value_anywhere() {
    let mut report = fully_populated();
    report.strip_wall();
    let mut found = Vec::new();
    wall_violations(&Serialize::serialize(&report), "", &mut found);
    assert!(found.is_empty(), "unstripped wall-clock data survived strip_wall: {found:?}");
    // And stripping is idempotent.
    let once = report.to_json();
    report.strip_wall();
    assert_eq!(report.to_json(), once);
}

#[test]
fn strip_wall_preserves_all_deterministic_data() {
    let mut report = fully_populated();
    report.strip_wall();
    assert_eq!(report.metrics.counter("engine.commits"), 17);
    assert_eq!(report.metrics.counter("prof.samples"), 9);
    assert_eq!(report.metrics.counter("prof.pipeline.paths"), 1);
    assert_eq!(report.metrics.gauge("load.offered_tps"), Some(2_000.0));
    assert_eq!(report.metrics.histograms["engine.ops_per_txn"].count, 1);
    assert_eq!(report.facts["prof.top_phase"], "transport_rtt");
    assert_eq!(report.spans.len(), 2);
    assert_eq!(report.spans[0].calls, 17);
}
