//! Repro artifacts: a minimal counterexample of any [`Target`]
//! packaged as JSON with the exact command that replays it.

use crate::campaign::{violates, Target};
use std::io;
use std::path::Path;

/// A self-contained, replayable counterexample: the full run
/// configuration (scenario + fault schedule), which oracle it violates,
/// and the command line that replays it from a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact<T> {
    /// Artifact identifier (derived from oracle + schedule size).
    pub id: String,
    /// The violated oracle's name.
    pub violated: String,
    /// Evidence text from the oracle.
    pub detail: String,
    /// The exact configuration to replay.
    pub config: T,
    /// Shell command that replays this artifact once written to a file
    /// named `<id>.json`.
    pub replay_cmd: String,
}

/// The JSON layout of every artifact, with the configuration left as
/// a value tree for the target to read.
#[derive(serde::Serialize, serde::Deserialize)]
struct Wire {
    id: String,
    violated: String,
    detail: String,
    config: serde::Value,
    replay_cmd: String,
}

impl<T: Target> Artifact<T> {
    /// Packages a violating configuration.
    pub fn new(config: T, violated: String, detail: String) -> Self {
        let id =
            format!("{}-{}-{}ev-seed{}", T::KIND, violated, config.schedule().len(), config.seed());
        let replay_cmd =
            format!("cargo run --release --example {} -- --replay {id}.json", T::REPLAY_EXAMPLE);
        Artifact { id, violated, detail, config, replay_cmd }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let wire = Wire {
            id: self.id.clone(),
            violated: self.violated.clone(),
            detail: self.detail.clone(),
            config: serde::Serialize::serialize(&self.config),
            replay_cmd: self.replay_cmd.clone(),
        };
        serde_json::to_string_pretty(&wire).expect("artifact serializes")
    }

    /// Parses an artifact back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a serde error on malformed input, and on a schedule
    /// event naming a process outside the configuration's topology.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        let wire: Wire = serde_json::from_str(text)?;
        let config = T::deserialize(&wire.config)
            .map_err(|e| serde::Error::custom(format!("field `config` of the artifact: {e}")))?;
        let n_procs = config.n_procs();
        if let Some(e) = config.schedule().events.iter().find(|e| !e.fits(n_procs)) {
            return Err(serde::Error::custom(format!(
                "fault event {e:?} names a process outside the {n_procs}-process topology"
            )));
        }
        let Wire { id, violated, detail, replay_cmd, .. } = wire;
        Ok(Artifact { id, violated, detail, config, replay_cmd })
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

    /// Writes a run's causal trace as `<id>.trace.jsonl` next to the
    /// artifact (wall-clock timestamps stripped, so replays of a
    /// deterministic counterexample produce identical files).
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
    pub fn replay(&self) -> T::Outcome {
        self.config.run()
    }

    /// Whether a replay, allowing [`Target::RUNS_PER_CHECK`] tries,
    /// still violates the packaged oracle.
    pub fn reproduces(&self) -> bool {
        (0..T::RUNS_PER_CHECK).any(|_| violates::<T>(&self.replay(), &self.violated))
    }
}
