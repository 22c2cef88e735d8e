//! Table 3.1 — the building blocks of 3PC — as a machine-readable
//! inventory, each block linking its formal spec, its Section 3.5.1
//! requirements, and the executable counterpart in this repository.

use crate::specs::SpecLibrary;
use mcv_core::SpecRef;

/// One row of Table 3.1.
#[derive(Debug, Clone)]
pub struct Block {
    /// Table number (1.x per the thesis' controller grouping).
    pub number: &'static str,
    /// Block name.
    pub name: &'static str,
    /// What the block does (Section 3.5.1 summary).
    pub role: &'static str,
    /// Requirements from Section 3.5.1.
    pub requirements: Vec<&'static str>,
    /// The formal specification.
    pub spec: SpecRef,
    /// Whether the spec text exists in Chapter 5 (`true`) or was
    /// authored here from the requirements (`false`).
    pub chapter5_script: bool,
    /// The executable counterpart (crate::module path).
    pub executable: &'static str,
}

/// The full Table 3.1 inventory.
pub fn blocks(lib: &SpecLibrary) -> Vec<Block> {
    vec![
        Block {
            number: "1",
            name: "Controller",
            role: "co-ordinates all activities of the entire 3PC protocol",
            requirements: vec![
                "recognize participant failures",
                "allow recovery from mid-commitment failure",
                "reliable broadcasting between sites",
                "uniform agreement procedure",
                "make committed actions permanent",
                "commitment executed at the end of a transaction",
                "collect local states into the global state vector",
            ],
            // The controller is the colimit of broadcast and consensus
            // (Figures 4.3/4.4); its spec is computed, but CONSENSUS
            // (which imports RELIABLEBROADCAST) is its Chapter 5 carrier.
            spec: lib.consensus.clone(),
            chapter5_script: true,
            executable: "mcv_commit::Site (coordinator role)",
        },
        Block {
            number: "1.1",
            name: "Broadcast",
            role: "reliable, atomic delivery of coordinator messages",
            requirements: vec![
                "termination: some correct process eventually delivers",
                "validity: delivered implies multicast to the group",
                "integrity: at most once, no duplication",
                "uniform agreement on delivery",
                "timeliness within Δ = (f+1)δ",
            ],
            spec: lib.reliable_broadcast.clone(),
            chapter5_script: true,
            executable: "mcv_sim::Ctx::broadcast over FIFO reliable channels",
        },
        Block {
            number: "1.2",
            name: "Consensus",
            role: "non-faulty participants agree on commit or abort",
            requirements: vec![
                "termination: every correct site decides",
                "integrity: decides at most once",
                "validity: decided value was proposed",
                "(uniform) agreement: no two (correct) sites differ",
            ],
            spec: lib.consensus.clone(),
            chapter5_script: true,
            executable: "mcv_commit::Site vote collection + decision broadcast",
        },
        Block {
            number: "2",
            name: "Snapshot",
            role: "maintains the global state vector of local states",
            requirements: vec![
                "global state never holds both commit and abort",
                "global transition on every local transition",
                "local transitions instantaneous and mutually exclusive",
                "exactly one local transition per global transition",
            ],
            spec: lib.snapshot.clone(),
            chapter5_script: true,
            executable: "mcv_commit::GlobalState; mcv_mvcc::MvccStore (MVCCSNAPSHOT instance)",
        },
        Block {
            number: "3",
            name: "Voting/Election",
            role: "assigns the coordinator; elects a backup on failure",
            requirements: vec![
                "invoked by the termination protocol on coordinator failure",
                "backup decides from its local state",
                "commit if concurrency set holds a commit state",
                "backup directs all sites to its local state, then decides",
            ],
            spec: lib.voting.clone(),
            chapter5_script: false,
            executable: "mcv_commit::Site bully election (lowest id wins)",
        },
        Block {
            number: "4",
            name: "Undo/Redo Logging",
            role: "stable-storage log for volatile loss and recovery",
            requirements: vec![
                "log kept in stable storage",
                "undo entry before writing",
                "redo entry before committing",
                "write actions to log before taking them",
                "functions across a second crash during recovery",
            ],
            spec: lib.undoredo.clone(),
            chapter5_script: true,
            executable: "mcv_txn::Wal",
        },
        Block {
            number: "5",
            name: "Two Phase Locking",
            role: "serializable data access during active transactions",
            requirements: vec![
                "one writer at a time (1-bit write-lock flag)",
                "write lock enforces complete mutual exclusion",
                "read counter for concurrent readers",
                "write-locked items admit no read locks",
                "all objects unlocked before finishing",
            ],
            spec: lib.two_phase_lock.clone(),
            chapter5_script: true,
            executable: "mcv_txn::{LockTable, WaitsFor} under LockManager and mcv_engine's shards",
        },
        Block {
            number: "6",
            name: "Checkpointing",
            role: "tentative/permanent checkpoints for rollback recovery",
            requirements: vec![
                "no domino effect",
                "checkpoints form a consistent system state",
                "no message consumed across checkpoint boundaries",
                "periodic with period Π > β + δ",
            ],
            spec: lib.checkpointing.clone(),
            chapter5_script: true,
            executable: "mcv_txn::CheckpointStore + SiteDb::checkpoint",
        },
        Block {
            number: "7",
            name: "Recovery",
            role: "rolls a failed site back to its checkpointed state",
            requirements: vec![
                "restore from stable checkpoint and replay logged messages",
                "roll back dependent processes",
                "externalize messages only when never undone",
                "recovered site rejoins the transaction",
            ],
            spec: lib.rollback_recovery.clone(),
            chapter5_script: true,
            executable: "mcv_txn::SiteDb::recover + mcv_commit DecisionReq",
        },
        Block {
            number: "8",
            name: "Decision Making",
            role: "checks global-state consistency rules; triggers termination",
            requirements: vec![
                "no local state whose concurrency set has commit and abort",
                "no non-committable state concurrent with a commit",
                "terminate the transaction if either rule fails",
            ],
            spec: lib.decision_making.clone(),
            chapter5_script: true,
            executable: "mcv_commit::termination_decision + GlobalState rules",
        },
        Block {
            number: "9",
            name: "Termination",
            role: "terminates or re-coordinates a transaction after failure",
            requirements: vec![
                "temporary termination while the non-blocking rule holds",
                "permanent termination when no operational site satisfies it",
                "aid electing a backup coordinator",
            ],
            spec: lib.termination.clone(),
            chapter5_script: false,
            executable: "mcv_commit::Site::finish_termination",
        },
        Block {
            number: "10",
            name: "Failure/Time-out Management",
            role: "failure model and timeout detection",
            requirements: vec![
                "operational iff behaving per the specification",
                "explicit failure model",
                "drift-adjusted timeouts (1+ρ)δ",
                "silence for 2δ implies crash",
                "all pre-crash messages delivered before failure notice",
            ],
            spec: lib.failure_timeout.clone(),
            chapter5_script: false,
            executable: "mcv_sim timers + mcv_commit timeout transitions",
        },
    ]
}

/// Renders Table 3.1.
pub fn render_table(lib: &SpecLibrary) -> String {
    let mut out = String::from(
        "Table 3.1: Various Building Blocks of 3PC\n\
         #     Block                         sorts  ops  axioms  thms  Ch.5  executable counterpart\n",
    );
    for b in blocks(lib) {
        out.push_str(&format!(
            "{:<5} {:<29} {:>5} {:>4} {:>7} {:>5}  {:<4}  {}\n",
            b.number,
            b.name,
            b.spec.signature.sort_count(),
            b.spec.signature.op_count(),
            b.spec.axioms().count(),
            b.spec.theorems().count(),
            if b.chapter5_script { "yes" } else { "req." },
            b.executable,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_blocks_in_the_table() {
        let lib = SpecLibrary::load();
        assert_eq!(blocks(&lib).len(), 12);
    }

    #[test]
    fn every_block_has_requirements_and_a_spec() {
        let lib = SpecLibrary::load();
        for b in blocks(&lib) {
            assert!(!b.requirements.is_empty(), "{}", b.name);
            assert!(b.spec.signature.op_count() > 0, "{}", b.name);
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let lib = SpecLibrary::load();
        let table = render_table(&lib);
        assert!(table.contains("Two Phase Locking"));
        assert!(table.contains("Failure/Time-out Management"));
        assert_eq!(table.lines().count(), 2 + 12);
    }
}
