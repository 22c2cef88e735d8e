//! Replayable counterexample artifacts for distributed runs.

use crate::multishot::{run_pipeline, PipelineConfig, PipelineOutcome};
use crate::shrink::REPRO_ATTEMPTS;
use std::io;
use std::path::Path;

/// A self-contained, replayable counterexample: the full run
/// configuration (topology, workload, timed faults, targeted crash,
/// submission schedule), which oracle it violates, and the command
/// line that replays it.
///
/// Threaded runs are not bit-deterministic, so
/// [`DistArtifact::reproduces`] allows a few attempts — the shipped
/// counterexamples (naive timeouts plus a coordinator crash window)
/// are near-deterministic in practice.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistArtifact {
    /// Artifact identifier (derived from oracle + schedule size).
    pub id: String,
    /// The violated oracle's name.
    pub violated: String,
    /// Evidence text from the oracle.
    pub detail: String,
    /// The exact configuration to replay.
    pub config: PipelineConfig,
    /// Shell command that replays this artifact once written to a file
    /// named `<id>.json`.
    pub replay_cmd: String,
}

impl DistArtifact {
    /// Packages a violating configuration.
    pub fn new(config: PipelineConfig, violated: String, detail: String) -> Self {
        let id =
            format!("dist-{}-{}ev-seed{}", violated, config.dist.schedule.len(), config.dist.seed);
        let replay_cmd = format!("cargo run --release --example dist_stress -- --replay {id}.json");
        DistArtifact { id, violated, detail, config, replay_cmd }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Parses an artifact back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }

    /// Writes `<id>.json` into `dir` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<std::path::PathBuf> {
        let path = dir.as_ref().join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the causal trace as `<id>.trace.jsonl` next to the
    /// artifact (wall-clock timestamps stripped).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(
        &self,
        dir: impl AsRef<Path>,
        trace: &mcv_trace::CausalTrace,
    ) -> io::Result<std::path::PathBuf> {
        let path = dir.as_ref().join(format!("{}.trace.jsonl", self.id));
        let mut stripped = trace.clone();
        stripped.strip_wall();
        stripped.write_jsonl(&path)?;
        Ok(path)
    }

    /// Re-executes the packaged configuration once.
    pub fn replay(&self) -> PipelineOutcome {
        run_pipeline(&self.config)
    }

    /// Whether a replay (allowing [`REPRO_ATTEMPTS`] tries) still
    /// violates the packaged oracle.
    pub fn reproduces(&self) -> bool {
        (0..REPRO_ATTEMPTS).any(|_| self.replay().violates(&self.violated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::DistConfig;

    #[test]
    fn artifact_round_trips_through_json() {
        let cfg = PipelineConfig {
            dist: DistConfig { naive_timeouts: true, seed: 9, ..DistConfig::default() },
            max_inflight: 4,
            batch_window_us: 600,
            arrival_us: Some(vec![0, 250]),
        };
        let a = DistArtifact::new(cfg, "atomicity".into(), "split".into());
        let back = DistArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert!(back.replay_cmd.contains("--replay"));
    }

    #[test]
    fn malformed_artifacts_are_errors_not_panics() {
        let good = DistArtifact::new(PipelineConfig::default(), "atomicity".into(), String::new())
            .to_json();
        let wrong_type = good.replace("\"max_inflight\": 16", "\"max_inflight\": \"many\"");
        assert_ne!(wrong_type, good);
        for text in ["", "{", "[]", "{\"id\": 1}", &good[..good.len() / 2], &wrong_type] {
            assert!(DistArtifact::from_json(text).is_err(), "accepted {text:?}");
        }
    }
}
