//! Protocol messages and local states of the commit protocols.

use mcv_sim::ProcId;
use mcv_txn::{Item, TxnId, Value};
use std::fmt;

/// The local protocol state of a site for one transaction — the states
/// of Figure 3.2 (`q`, `w`, `p`, `a`, `c`), shared by coordinator
/// (suffix 1 in the thesis) and cohorts (suffix 2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum LocalState {
    /// Initial.
    Initial,
    /// Waiting (sent/answered the commit request).
    Wait,
    /// Prepared (pre-commit reached: the buffer state that makes 3PC
    /// non-blocking).
    Prepared,
    /// Aborted (final).
    Aborted,
    /// Committed (final).
    Committed,
}

impl LocalState {
    /// Whether this is a final state.
    pub fn is_final(self) -> bool {
        matches!(self, LocalState::Aborted | LocalState::Committed)
    }

    /// Whether this state is *committable* (the non-blocking theorem's
    /// distinction: a committable state's occupant has everything it
    /// needs to commit).
    pub fn is_committable(self) -> bool {
        matches!(self, LocalState::Prepared | LocalState::Committed)
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocalState::Initial => "q",
            LocalState::Wait => "w",
            LocalState::Prepared => "p",
            LocalState::Aborted => "a",
            LocalState::Committed => "c",
        };
        write!(f, "{s}")
    }
}

/// Messages exchanged by the commit protocols (Figures 3.1–3.2).
#[derive(Debug, Clone, PartialEq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Msg {
    /// Master → cohort: execute this piece of work (Figure 3.1).
    StartWork {
        /// The transaction.
        txn: TxnId,
        /// Writes to perform `(item, value)`.
        writes: Vec<(Item, Value)>,
    },
    /// Cohort → master: work finished (Figure 3.1).
    WorkDone {
        /// The transaction.
        txn: TxnId,
        /// Whether the work succeeded (locks acquired, etc.).
        ok: bool,
    },
    /// Coordinator → cohorts: commit request (phase 1).
    VoteReq {
        /// The transaction.
        txn: TxnId,
    },
    /// Cohort → coordinator: agreed.
    VoteYes {
        /// The transaction.
        txn: TxnId,
    },
    /// Cohort → coordinator: abort.
    VoteNo {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator → cohorts: prepare / pre-commit (3PC phase 2).
    Prepare {
        /// The transaction.
        txn: TxnId,
    },
    /// Cohort → coordinator: acknowledge prepare.
    PrepareAck {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator → cohorts: global commit.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator → cohorts: global abort.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// Election (bully, lowest id wins): the sender proposes itself.
    Election {
        /// The transaction whose termination needs a coordinator.
        txn: TxnId,
        /// The proposer.
        candidate: ProcId,
    },
    /// A lower-id site vetoes the candidate and takes over.
    ElectionAck {
        /// The transaction.
        txn: TxnId,
    },
    /// The elected backup announces itself (termination protocol start).
    Coordinator {
        /// The transaction.
        txn: TxnId,
        /// The new coordinator.
        elected: ProcId,
    },
    /// Backup → sites: report your local state (snapshot collection).
    StateReq {
        /// The transaction.
        txn: TxnId,
    },
    /// Site → backup: my local state.
    StateResp {
        /// The transaction.
        txn: TxnId,
        /// The responder's state.
        state: LocalState,
    },
    /// Recovered site → all: what was the outcome?
    DecisionReq {
        /// The transaction.
        txn: TxnId,
    },
    /// Anyone with a durable outcome → recovered site.
    DecisionResp {
        /// The transaction.
        txn: TxnId,
        /// `true` = committed.
        commit: bool,
    },
}

impl Msg {
    /// The transaction the message belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            Msg::StartWork { txn, .. }
            | Msg::WorkDone { txn, .. }
            | Msg::VoteReq { txn }
            | Msg::VoteYes { txn }
            | Msg::VoteNo { txn }
            | Msg::Prepare { txn }
            | Msg::PrepareAck { txn }
            | Msg::Commit { txn }
            | Msg::Abort { txn }
            | Msg::Election { txn, .. }
            | Msg::ElectionAck { txn }
            | Msg::Coordinator { txn, .. }
            | Msg::StateReq { txn }
            | Msg::StateResp { txn, .. }
            | Msg::DecisionReq { txn }
            | Msg::DecisionResp { txn, .. } => *txn,
        }
    }

    /// The variant's name — the message label recorded in causal
    /// traces, equal to `mcv_trace::label_of` of the `Debug` rendering
    /// without formatting the payload.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::StartWork { .. } => "StartWork",
            Msg::WorkDone { .. } => "WorkDone",
            Msg::VoteReq { .. } => "VoteReq",
            Msg::VoteYes { .. } => "VoteYes",
            Msg::VoteNo { .. } => "VoteNo",
            Msg::Prepare { .. } => "Prepare",
            Msg::PrepareAck { .. } => "PrepareAck",
            Msg::Commit { .. } => "Commit",
            Msg::Abort { .. } => "Abort",
            Msg::Election { .. } => "Election",
            Msg::ElectionAck { .. } => "ElectionAck",
            Msg::Coordinator { .. } => "Coordinator",
            Msg::StateReq { .. } => "StateReq",
            Msg::StateResp { .. } => "StateResp",
            Msg::DecisionReq { .. } => "DecisionReq",
            Msg::DecisionResp { .. } => "DecisionResp",
        }
    }
}

/// Which commit protocol a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Protocol {
    /// Two-phase commit (the blocking baseline).
    TwoPhase,
    /// Three-phase commit (non-blocking, the thesis' case study).
    ThreePhase,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::TwoPhase => write!(f, "2PC"),
            Protocol::ThreePhase => write!(f, "3PC"),
        }
    }
}

/// A point in the protocol where fault injection can crash a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CrashPoint {
    /// Coordinator: right after sending the commit request (phase 1).
    AfterVoteReq,
    /// Coordinator: right after collecting all yes votes, before any
    /// prepare/decision leaves — the classic 2PC blocking window.
    AfterVotes,
    /// Coordinator (3PC): after sending prepare to all.
    AfterPrepare,
    /// Coordinator (3PC): after sending prepare to only the first cohort
    /// — the asymmetric-knowledge window that defeats naive timeouts.
    AfterPartialPrepare,
    /// Cohort: right after voting yes.
    AfterVoteYes,
    /// Backup coordinator: right after announcing itself during the
    /// termination protocol (the cascading-failure scenario — the next
    /// lowest operational site must take over).
    AsBackupAfterAnnounce,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_and_committable_classification() {
        assert!(LocalState::Committed.is_final());
        assert!(LocalState::Aborted.is_final());
        assert!(!LocalState::Prepared.is_final());
        assert!(LocalState::Prepared.is_committable());
        assert!(!LocalState::Wait.is_committable());
    }

    #[test]
    fn txn_extraction() {
        let m = Msg::Commit { txn: TxnId(9) };
        assert_eq!(m.txn(), TxnId(9));
    }

    #[test]
    fn label_is_the_debug_rendering_up_to_the_payload() {
        let txn = TxnId(9);
        let one_of_each = [
            Msg::StartWork { txn, writes: vec![("x".to_owned(), 1)] },
            Msg::WorkDone { txn, ok: true },
            Msg::VoteReq { txn },
            Msg::VoteYes { txn },
            Msg::VoteNo { txn },
            Msg::Prepare { txn },
            Msg::PrepareAck { txn },
            Msg::Commit { txn },
            Msg::Abort { txn },
            Msg::Election { txn, candidate: ProcId(1) },
            Msg::ElectionAck { txn },
            Msg::Coordinator { txn, elected: ProcId(1) },
            Msg::StateReq { txn },
            Msg::StateResp { txn, state: LocalState::Wait },
            Msg::DecisionReq { txn },
            Msg::DecisionResp { txn, commit: true },
        ];
        let mut labels = std::collections::BTreeSet::new();
        for m in &one_of_each {
            assert_eq!(m.label(), mcv_trace::label_of(&format!("{m:?}")));
            labels.insert(m.label());
        }
        assert_eq!(labels.len(), 16, "the sixteen variants, each walked once");
    }

    #[test]
    fn state_display_matches_figure_3_2() {
        assert_eq!(LocalState::Initial.to_string(), "q");
        assert_eq!(LocalState::Prepared.to_string(), "p");
    }
}
