//! Bench-regression gate: diffs a current benchmark [`RunReport`]
//! against a committed baseline with per-metric tolerances.
//!
//! The gate is deliberately coarse: deterministic counters must match
//! the baseline exactly, wall-clock throughput gauges must stay above
//! a fraction of the baseline (machines differ, thermal noise exists —
//! the gate catches order-of-magnitude regressions, not 5% drift), and
//! scheduling-dependent counters are reported but never gated.
//! `repro --check-bench <baseline.json>` runs the engine benchmark,
//! applies [`engine_gate_rules`], and exits nonzero on any regression.

use mcv_obs::RunReport;

/// How much a metric may deviate from the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Must equal the baseline exactly (deterministic counters).
    Exact,
    /// Higher-is-better metric: current must be at least this fraction
    /// of the baseline (e.g. `0.4` = tolerate a 60% drop, fail beyond).
    MinRatio(f64),
    /// Lower-is-better metric (latencies, recovery times): current must
    /// stay at or below this multiple of the baseline (e.g. `3.0` =
    /// tolerate up to a 3x inflation, fail beyond). A zero baseline
    /// gates nothing — there is no scale to multiply.
    MaxRatio(f64),
    /// Reported in the notes, never gated (scheduling-dependent).
    Ignore,
}

/// One gate rule: a metric-name pattern with its tolerance. A pattern
/// ending in `*` matches by prefix, otherwise exactly. First matching
/// rule wins; unmatched metrics are reported but not gated.
#[derive(Debug, Clone)]
pub struct GateRule {
    /// Metric-name pattern (`engine.txn.committed` or `wall.engine.*`).
    pub pattern: String,
    /// The tolerance applied to matching metrics.
    pub tolerance: Tolerance,
}

impl GateRule {
    fn new(pattern: &str, tolerance: Tolerance) -> Self {
        GateRule { pattern: pattern.to_owned(), tolerance }
    }

    fn matches(&self, name: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == self.pattern,
        }
    }
}

/// The tolerances for `BENCH_engine.json` (the `exp.tput` record), as
/// documented in `EXPERIMENTS.md`:
///
/// - `engine.txn.committed` is exact — the driver admits a fixed
///   transaction quota per run, so the committed count is deterministic
///   even though interleavings are not.
/// - `wall.engine.tput.*` and `wall.engine.speedup.*` are wall-clock
///   gauges: the gate requires ≥ 40% of the baseline, catching real
///   regressions (a lost group-commit batch, an accidental serial
///   section) while shrugging off machine noise.
/// - Everything else under `engine.*` (aborts, conflicts, forces,
///   samples) is scheduling-dependent and only reported.
pub fn engine_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("engine.txn.committed", Tolerance::Exact),
        GateRule::new("wall.engine.tput.*", Tolerance::MinRatio(0.4)),
        GateRule::new("wall.engine.speedup.*", Tolerance::MinRatio(0.4)),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
        GateRule::new("chaos.*", Tolerance::Ignore),
    ]
}

/// The tolerances for `BENCH_dist.json` (the `exp.dist` record):
///
/// - `dist.txn.total` and `dist.txn.committed` are exact — the
///   experiment drives a fixed transaction count through fault-free
///   runs, and AC2 validity obliges every one of them to commit at
///   every shard; a drift here means the protocol or the harness
///   regressed, not the machine.
/// - `wall.dist.tput.*` is wall-clock settle throughput, gated at
///   ≥ 30% of baseline (eight one-at-a-time commits settle in tens of
///   milliseconds at millisecond resolution, so the gauge is noisier
///   than the engine's).
/// - Everything else under `dist.*` (oracle tallies, per-run stats)
///   is reported, never gated.
pub fn dist_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("dist.txn.total", Tolerance::Exact),
        GateRule::new("dist.txn.committed", Tolerance::Exact),
        GateRule::new("wall.dist.tput.*", Tolerance::MinRatio(0.3)),
        GateRule::new("dist.*", Tolerance::Ignore),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
        GateRule::new("trace.*", Tolerance::Ignore),
    ]
}

/// The tolerances for `BENCH_pipeline.json` (the `exp.pipeline`
/// record):
///
/// - `pipeline.txn.total` / `pipeline.txn.committed` are exact — the
///   experiment streams a fixed transaction count through fault-free
///   runs and AC2 obliges every one to commit at every shard;
/// - `pipeline.oracles.green` is exact — all legs (serial reference
///   and every pipelined sweep point) must pass all eight oracles;
/// - `pipeline.commit_log.dense` is exact — one coordinator decision
///   per transaction, indices dense, on every pipelined leg;
/// - `pipeline.verdict.*` is exact — 0/1 structural verdicts
///   (pipelined throughput ≥ 10x serial, WAL forces ≤ 0.5 per commit
///   record), each self-normalized within the run so machine speed
///   cancels out;
/// - `wall.pipeline.tput.*` and `wall.pipeline.speedup` get the usual
///   higher-is-better wall-clock band (≥ 30% of baseline — settle
///   times carry scheduling noise);
/// - everything else (`dist.*` tallies, engine counters) is reported,
///   never gated.
pub fn pipeline_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("pipeline.txn.total", Tolerance::Exact),
        GateRule::new("pipeline.txn.committed", Tolerance::Exact),
        GateRule::new("pipeline.oracles.green", Tolerance::Exact),
        GateRule::new("pipeline.commit_log.dense", Tolerance::Exact),
        GateRule::new("pipeline.verdict.*", Tolerance::Exact),
        GateRule::new("wall.pipeline.tput.*", Tolerance::MinRatio(0.3)),
        GateRule::new("wall.pipeline.speedup", Tolerance::MinRatio(0.3)),
        GateRule::new("pipeline.*", Tolerance::Ignore),
        GateRule::new("dist.*", Tolerance::Ignore),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
        GateRule::new("trace.*", Tolerance::Ignore),
    ]
}

/// The tolerances for `BENCH_mvcc.json` (the `exp.mvcc` record):
///
/// - `engine.txn.committed` is exact — the driver admits a fixed quota
///   and retries certification losers, so every SI leg commits exactly
///   its quota.
/// - `engine.locks.read_acquisitions` is exact — and zero in the
///   baseline: snapshot reads never touch the 2PL lock table, so any
///   nonzero value means the MVCC read path regressed into the lock
///   path. This is the machine-checked form of the PR's core claim.
/// - `engine.mvcc.snapshot_reads` must stay ≥ 50% of baseline: the
///   floor is the deterministic per-spec read count, and certification
///   retries only add reads on top of it.
/// - `wall.mvcc.tput.*` gauges (both the SI and 2PL legs) get the
///   usual ≥ 40% wall-clock band.
/// - Everything else (cert aborts, GC tallies, force counts) is
///   scheduling-dependent and only reported.
pub fn mvcc_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("engine.txn.committed", Tolerance::Exact),
        GateRule::new("engine.locks.read_acquisitions", Tolerance::Exact),
        GateRule::new("engine.mvcc.snapshot_reads", Tolerance::MinRatio(0.5)),
        GateRule::new("wall.mvcc.tput.*", Tolerance::MinRatio(0.4)),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
        GateRule::new("chaos.*", Tolerance::Ignore),
    ]
}

/// The tolerances for `BENCH_slo.json` (the `exp.slo` record):
///
/// - `slo.sweep.points`, `slo.recovery.runs`, and `slo.arrivals.total`
///   are exact — the sweep shape, the campaign size, and every arrival
///   schedule are pure functions of pinned seeds, so a drift means the
///   harness (not the machine) changed.
/// - `slo.verdict.*` is exact — these are 0/1 structural verdicts
///   (overload sheds, goodput holds ≥ 70% of the knee, oracles green,
///   campaign recovery fraction ≥ 90%), each self-normalized against
///   the same run's own knee so machine speed cancels out.
/// - `slo.recovery.within_slo` must stay ≥ 90% of baseline: the
///   campaign's pass count may wobble by a few seeds across machines,
///   but a broad recovery regression collapses it.
/// - `wall.slo.knee_tps` and `wall.slo.goodput.*` get the usual
///   higher-is-better wall-clock band (≥ 40% / ≥ 30% of baseline).
/// - the p99-at-fixed-load gauges for the past-the-knee rates
///   (`wall.slo.p99_us.r1000/r2000/r4000`) and the campaign's
///   `wall.slo.recovery_ms.*` percentiles are lower-is-better: the
///   gate fails when latency under overload or recovery time inflates
///   past 3x baseline — the whole point of the SLO record. Past the
///   knee these are pinned by the deadline budget and the modeled
///   force latency, so they are far more stable than the sub-knee
///   points (`r250`, `r500`), which are queue-noise dominated and only
///   reported.
/// - Everything else (`engine.*` admission tallies, `load.*` totals)
///   is reported, never gated.
pub fn slo_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("slo.sweep.points", Tolerance::Exact),
        GateRule::new("slo.recovery.runs", Tolerance::Exact),
        GateRule::new("slo.arrivals.total", Tolerance::Exact),
        GateRule::new("slo.verdict.*", Tolerance::Exact),
        GateRule::new("slo.recovery.within_slo", Tolerance::MinRatio(0.9)),
        GateRule::new("wall.slo.knee_tps", Tolerance::MinRatio(0.4)),
        GateRule::new("wall.slo.goodput.*", Tolerance::MinRatio(0.3)),
        GateRule::new("wall.slo.p99_us.r1000", Tolerance::MaxRatio(3.0)),
        GateRule::new("wall.slo.p99_us.r2000", Tolerance::MaxRatio(3.0)),
        GateRule::new("wall.slo.p99_us.r4000", Tolerance::MaxRatio(3.0)),
        GateRule::new("wall.slo.recovery_ms.*", Tolerance::MaxRatio(3.0)),
        GateRule::new("slo.*", Tolerance::Ignore),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("load.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
    ]
}

/// The tolerances for `BENCH_prof.json` (the `exp.prof` record):
///
/// - `prof.verdict.*` is exact — 0/1 structural verdicts, each
///   self-normalized within one run so machine speed cancels out:
///   profiling overhead within 1.05x of the uninstrumented engine,
///   one harvested timeline per commit with none dropped, ≥ 90% of
///   cross-shard commit latency attributed to typed phases,
///   `transport_rtt` + `wal_force` as the top two cross-shard phases,
///   and the telemetry stream covering every scheduled arrival.
/// - `prof.dist.paths` is exact — the fault-free cross-shard leg
///   drives a fixed transaction count and AC2 obliges all of them to
///   commit, so the critical-path analyzer must recover exactly that
///   many weighted paths.
/// - `prof.telemetry.windows` and `prof.telemetry.arrivals` are exact
///   — telemetry windows are keyed by scheduled (virtual) arrival
///   time, a pure function of the seed.
/// - `wall.prof.*` (the measured ratio, throughputs, and per-phase
///   fractions) is wall-clock and only reported — the verdicts above
///   carry the gated form of each claim.
pub fn prof_gate_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("prof.verdict.*", Tolerance::Exact),
        GateRule::new("prof.dist.paths", Tolerance::Exact),
        GateRule::new("prof.telemetry.windows", Tolerance::Exact),
        GateRule::new("prof.telemetry.arrivals", Tolerance::Exact),
        GateRule::new("prof.*", Tolerance::Ignore),
        GateRule::new("engine.*", Tolerance::Ignore),
        GateRule::new("dist.*", Tolerance::Ignore),
        GateRule::new("load.*", Tolerance::Ignore),
        GateRule::new("trace.*", Tolerance::Ignore),
        GateRule::new("wall.*", Tolerance::Ignore),
    ]
}

/// Result of gating one report against its baseline.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Metrics a non-`Ignore` rule was applied to.
    pub checked: usize,
    /// Human-readable description of every metric that failed its
    /// tolerance. Empty means the gate passes.
    pub regressions: Vec<String>,
    /// Non-gated observations (ignored or unmatched metrics that
    /// changed), for the log.
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// One-paragraph rendering for the console.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "bench gate: {} metric(s) checked, {} regression(s), {} note(s)\n",
            self.checked,
            self.regressions.len(),
            self.notes.len()
        );
        for r in &self.regressions {
            out.push_str(&format!("  REGRESSION {r}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  note {n}\n"));
        }
        out
    }
}

/// Diffs `current` against `baseline` and applies `rules`.
pub fn check_bench(baseline: &RunReport, current: &RunReport, rules: &[GateRule]) -> GateOutcome {
    let delta = baseline.metrics.diff(&current.metrics);
    let mut out = GateOutcome::default();
    let tolerance_of = |name: &str| rules.iter().find(|r| r.matches(name)).map(|r| r.tolerance);
    for (name, d) in &delta.counters {
        match tolerance_of(name) {
            Some(Tolerance::Exact) => {
                out.checked += 1;
                if d.delta != 0 {
                    out.regressions.push(format!(
                        "{name}: expected exactly {}, got {} (delta {:+})",
                        d.base, d.current, d.delta
                    ));
                }
            }
            Some(Tolerance::MinRatio(frac)) => {
                out.checked += 1;
                if (d.current as f64) < frac * d.base as f64 {
                    out.regressions.push(format!(
                        "{name}: {} is below {frac} x baseline {}",
                        d.current, d.base
                    ));
                }
            }
            Some(Tolerance::MaxRatio(frac)) => {
                out.checked += 1;
                if d.base > 0 && (d.current as f64) > frac * d.base as f64 {
                    out.regressions.push(format!(
                        "{name}: {} is above {frac} x baseline {}",
                        d.current, d.base
                    ));
                }
            }
            Some(Tolerance::Ignore) | None => {
                if d.delta != 0 {
                    out.notes.push(format!("{name}: {} -> {}", d.base, d.current));
                }
            }
        }
    }
    for (name, d) in &delta.gauges {
        let (base, current) = (d.base.unwrap_or(0.0), d.current.unwrap_or(0.0));
        match tolerance_of(name) {
            Some(Tolerance::Exact) => {
                out.checked += 1;
                if d.delta != 0.0 {
                    out.regressions.push(format!("{name}: expected exactly {base}, got {current}"));
                }
            }
            Some(Tolerance::MinRatio(frac)) => {
                out.checked += 1;
                if current < frac * base {
                    out.regressions
                        .push(format!("{name}: {current:.1} is below {frac} x baseline {base:.1}"));
                }
            }
            Some(Tolerance::MaxRatio(frac)) => {
                out.checked += 1;
                if base > 0.0 && current > frac * base {
                    out.regressions
                        .push(format!("{name}: {current:.1} is above {frac} x baseline {base:.1}"));
                }
            }
            Some(Tolerance::Ignore) | None => {
                if d.delta != 0.0 {
                    out.notes.push(format!("{name}: {base:.1} -> {current:.1}"));
                }
            }
        }
    }
    for (name, d) in &delta.histogram_counts {
        if d.delta != 0 {
            out.notes.push(format!("{name}: {} -> {} samples", d.base, d.current));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_obs::MetricsSnapshot;
    use std::collections::BTreeMap;

    fn report(counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> RunReport {
        let mut r = RunReport::new("t");
        r.metrics = MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            histograms: BTreeMap::new(),
        };
        r
    }

    #[test]
    fn identical_reports_pass_the_engine_gate() {
        let r = report(
            &[("engine.txn.committed", 4000), ("engine.txn.aborted", 17)],
            &[("wall.engine.tput.w4", 9000.0)],
        );
        let out = check_bench(&r, &r.clone(), &engine_gate_rules());
        assert!(out.ok(), "{}", out.summary());
        assert_eq!(out.checked, 2);
    }

    #[test]
    fn committed_count_drift_is_a_regression() {
        let base = report(&[("engine.txn.committed", 4000)], &[]);
        let cur = report(&[("engine.txn.committed", 3999)], &[]);
        let out = check_bench(&base, &cur, &engine_gate_rules());
        assert!(!out.ok());
        assert!(out.regressions[0].contains("engine.txn.committed"));
    }

    #[test]
    fn throughput_within_ratio_passes_below_fails() {
        let base = report(&[], &[("wall.engine.tput.w4", 10_000.0)]);
        let ok = report(&[], &[("wall.engine.tput.w4", 5_000.0)]);
        let bad = report(&[], &[("wall.engine.tput.w4", 3_000.0)]);
        assert!(check_bench(&base, &ok, &engine_gate_rules()).ok());
        let out = check_bench(&base, &bad, &engine_gate_rules());
        assert!(!out.ok());
        assert!(out.regressions[0].contains("wall.engine.tput.w4"));
    }

    #[test]
    fn mvcc_gate_pins_the_zero_read_lock_claim() {
        let base =
            report(&[("engine.txn.committed", 4000), ("engine.locks.read_acquisitions", 0)], &[]);
        let ok = check_bench(&base, &base.clone(), &mvcc_gate_rules());
        assert!(ok.ok(), "{}", ok.summary());
        // A single read slipping onto the 2PL lock path is a regression.
        let cur =
            report(&[("engine.txn.committed", 4000), ("engine.locks.read_acquisitions", 1)], &[]);
        let out = check_bench(&base, &cur, &mvcc_gate_rules());
        assert!(!out.ok());
        assert!(out.regressions[0].contains("engine.locks.read_acquisitions"));
    }

    #[test]
    fn max_ratio_gates_latency_inflation_not_improvement() {
        let base = report(&[], &[("wall.slo.p99_us.r2000", 4_000.0)]);
        let faster = report(&[], &[("wall.slo.p99_us.r2000", 900.0)]);
        let noisy = report(&[], &[("wall.slo.p99_us.r2000", 11_000.0)]);
        let blown = report(&[], &[("wall.slo.p99_us.r2000", 13_000.0)]);
        assert!(check_bench(&base, &faster, &slo_gate_rules()).ok());
        assert!(check_bench(&base, &noisy, &slo_gate_rules()).ok());
        let out = check_bench(&base, &blown, &slo_gate_rules());
        assert!(!out.ok());
        assert!(out.regressions[0].contains("above 3 x baseline"));
    }

    #[test]
    fn max_ratio_counter_gates_and_zero_baseline_is_ungated() {
        let rules = vec![GateRule::new("x.worst_ms", Tolerance::MaxRatio(2.0))];
        let base = report(&[("x.worst_ms", 100)], &[]);
        let ok = report(&[("x.worst_ms", 199)], &[]);
        let bad = report(&[("x.worst_ms", 201)], &[]);
        assert!(check_bench(&base, &ok, &rules).ok());
        assert!(!check_bench(&base, &bad, &rules).ok());
        // A zero baseline has no scale: anything passes.
        let zero = report(&[("x.worst_ms", 0)], &[]);
        let any = report(&[("x.worst_ms", 5_000)], &[]);
        assert!(check_bench(&zero, &any, &rules).ok());
    }

    #[test]
    fn slo_gate_pins_verdicts_and_campaign_shape() {
        let base = report(
            &[
                ("slo.sweep.points", 5),
                ("slo.recovery.runs", 100),
                ("slo.recovery.within_slo", 97),
                ("slo.verdict.overload_sheds", 1),
                ("slo.verdict.goodput_holds", 1),
                ("engine.admit.shed", 12_345),
            ],
            &[("wall.slo.recovery_ms.p99", 120.0)],
        );
        assert!(check_bench(&base, &base.clone(), &slo_gate_rules()).ok());
        // A flipped verdict is a regression even though it is "just" 1 -> 0.
        let mut cur = base.clone();
        cur.metrics.counters.insert("slo.verdict.goodput_holds".to_owned(), 0);
        let out = check_bench(&base, &cur, &slo_gate_rules());
        assert!(!out.ok());
        assert!(out.regressions[0].contains("slo.verdict.goodput_holds"));
        // The within-SLO count tolerates seed wobble but not collapse.
        let mut wobble = base.clone();
        wobble.metrics.counters.insert("slo.recovery.within_slo".to_owned(), 92);
        assert!(check_bench(&base, &wobble, &slo_gate_rules()).ok());
        let mut collapse = base.clone();
        collapse.metrics.counters.insert("slo.recovery.within_slo".to_owned(), 50);
        assert!(!check_bench(&base, &collapse, &slo_gate_rules()).ok());
        // Admission tallies are scheduling-dependent: notes only.
        let mut shed = base.clone();
        shed.metrics.counters.insert("engine.admit.shed".to_owned(), 99_999);
        let out = check_bench(&base, &shed, &slo_gate_rules());
        assert!(out.ok());
        assert_eq!(out.notes.len(), 1);
    }

    #[test]
    fn scheduling_dependent_counters_are_notes_not_gates() {
        let base = report(&[("engine.locks.conflicts", 100)], &[]);
        let cur = report(&[("engine.locks.conflicts", 9_999)], &[]);
        let out = check_bench(&base, &cur, &engine_gate_rules());
        assert!(out.ok());
        assert_eq!(out.notes.len(), 1);
    }
}
