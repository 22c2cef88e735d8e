//! The *Decision Making* and *Snapshot* building blocks: global state
//! vectors and the non-blocking theorem's rules (Section 3.5.1).
//!
//! Rules checked on a collected global state:
//! 1. no local state's concurrency set may contain both a *commit* and
//!    an *abort* state;
//! 2. no *non-committable* local state may coexist with a *commit*
//!    state.
//!
//! The termination protocol's decision for the operational sites is
//! derived from the same vector.

use crate::msg::LocalState;
use mcv_sim::ProcId;
use std::collections::BTreeMap;
use std::fmt;

/// A snapshot of the local states of (a subset of) the sites for one
/// transaction — the thesis' *global state vector*.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct GlobalState {
    states: BTreeMap<ProcId, LocalState>,
}

impl GlobalState {
    /// An empty vector.
    pub fn new() -> Self {
        GlobalState::default()
    }

    /// Records `site`'s local state.
    pub fn record(&mut self, site: ProcId, state: LocalState) {
        self.states.insert(site, state);
    }

    /// The recorded states.
    pub fn states(&self) -> &BTreeMap<ProcId, LocalState> {
        &self.states
    }

    /// Number of recorded sites.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no site has reported.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Rule 1: the vector must not contain both a commit and an abort.
    pub fn is_consistent(&self) -> bool {
        let has_commit = self.states.values().any(|s| *s == LocalState::Committed);
        let has_abort = self.states.values().any(|s| *s == LocalState::Aborted);
        !(has_commit && has_abort)
    }

    /// Rule 2: no non-committable state may coexist with a commit.
    fn respects_committable_rule(&self) -> bool {
        let has_commit = self.states.values().any(|s| *s == LocalState::Committed);
        if !has_commit {
            return true;
        }
        self.states.values().all(|s| s.is_committable())
    }

    /// Both non-blocking-theorem conditions.
    pub fn satisfies_nonblocking_theorem(&self) -> bool {
        self.is_consistent() && self.respects_committable_rule()
    }
}

impl fmt::Display for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (p, s)) in self.states.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}:{s}")?;
        }
        write!(f, "⟩")
    }
}

/// The termination protocol's decision for the operational sites, given
/// their collected states (3PC termination rule).
///
/// - any site committed → **commit** (decision already chosen);
/// - otherwise any site aborted → **abort**;
/// - otherwise any site prepared → **commit** (the decision *commit*
///   may already have been released by the failed coordinator, and no
///   operational site can be in `w`/`q` … unless the prepare round was
///   cut short; committing is still safe because a prepared site
///   certifies every site voted yes);
/// - otherwise (nobody past `w`) → **abort**.
pub fn termination_decision(states: &GlobalState) -> bool {
    let vals: Vec<LocalState> = states.states().values().copied().collect();
    if vals.contains(&LocalState::Committed) {
        return true;
    }
    if vals.contains(&LocalState::Aborted) {
        return false;
    }
    vals.contains(&LocalState::Prepared)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(states: &[(usize, LocalState)]) -> GlobalState {
        let mut g = GlobalState::new();
        for (i, s) in states {
            g.record(ProcId(*i), *s);
        }
        g
    }

    #[test]
    fn commit_plus_abort_is_inconsistent() {
        let g = gs(&[(0, LocalState::Committed), (1, LocalState::Aborted)]);
        assert!(!g.is_consistent());
        assert!(!g.satisfies_nonblocking_theorem());
    }

    #[test]
    fn commit_with_waiting_violates_committable_rule() {
        let g = gs(&[(0, LocalState::Committed), (1, LocalState::Wait)]);
        assert!(g.is_consistent());
        assert!(!g.respects_committable_rule());
    }

    #[test]
    fn commit_with_prepared_is_fine() {
        let g = gs(&[(0, LocalState::Committed), (1, LocalState::Prepared)]);
        assert!(g.satisfies_nonblocking_theorem());
    }

    #[test]
    fn termination_rules() {
        assert!(termination_decision(&gs(&[(0, LocalState::Committed), (1, LocalState::Wait)])));
        assert!(!termination_decision(&gs(&[(0, LocalState::Aborted), (1, LocalState::Prepared)])));
        assert!(termination_decision(&gs(&[(0, LocalState::Prepared), (1, LocalState::Wait)])));
        assert!(!termination_decision(&gs(&[(0, LocalState::Wait), (1, LocalState::Wait)])));
        assert!(!termination_decision(&GlobalState::new()));
    }

    #[test]
    fn display_renders_vector() {
        let g = gs(&[(0, LocalState::Prepared)]);
        assert_eq!(g.to_string(), "⟨p0:p⟩");
    }
}
