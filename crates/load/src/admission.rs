//! The admission rule, the one decision both clocks make for each
//! attempt: [`run_load`](crate::run_load)'s pacer on the wall clock,
//! [`simulate`](crate::simulate) on the virtual clock. An attempt whose
//! budget from arrival is spent is a deadline miss; else it is admitted
//! while fewer than `queue_cap + servers` accepted attempts are
//! unresolved, and shed beyond that. A shed attempt is dropped or,
//! under retry-after, retried after backoff unless the retry would land
//! past the deadline. An aborted attempt (live only) backs off the same
//! way, under `Drop` by a fixed `(500, 8_000)` µs step.

use serde::{Deserialize, Serialize};

use crate::arrivals::Arrival;

/// What happens to a transaction the admission gate rejects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Reject outright: the arrival terminates as `dropped`.
    Drop,
    /// Reject with retry-after: the client resubmits after capped
    /// exponential backoff, until its deadline budget runs out.
    RetryAfter {
        /// First backoff step (µs); doubles per attempt.
        base_us: u64,
        /// Backoff ceiling (µs).
        cap_us: u64,
    },
}

/// One admission decision, in event order — the vocabulary both
/// clocks count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted.
    Accept,
    /// No capacity: shed (and, under retry-after, rescheduled).
    Shed,
    /// A rejected transaction's retry was scheduled.
    Retry,
    /// Budget exhausted before admission: abandoned.
    DeadlineMiss,
}

impl Decision {
    /// The decision's byte in an admission sequence.
    pub(crate) fn byte(self) -> u8 {
        match self {
            Decision::Accept => b'A',
            Decision::Shed => b'S',
            Decision::Retry => b'R',
            Decision::DeadlineMiss => b'D',
        }
    }
}

/// What becomes of a shed or aborted attempt: forgotten under `Drop`,
/// retried at `due_us`, or abandoned when the retry would land at or
/// past the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    Dropped,
    Retry { due_us: u64 },
    DeadlineMiss,
}

/// The verdict on one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Accept,
    Shed(Then),
    DeadlineMiss,
}

impl Verdict {
    /// The decisions this verdict records, in order.
    pub fn decisions(self) -> impl Iterator<Item = Decision> {
        let (first, then) = match self {
            Verdict::Accept => (Decision::Accept, None),
            Verdict::DeadlineMiss => (Decision::DeadlineMiss, None),
            Verdict::Shed(Then::Dropped) => (Decision::Shed, None),
            Verdict::Shed(Then::Retry { .. }) => (Decision::Shed, Some(Decision::Retry)),
            Verdict::Shed(Then::DeadlineMiss) => (Decision::Shed, Some(Decision::DeadlineMiss)),
        };
        std::iter::once(first).chain(then)
    }
}

/// The admission rule, configured once per run.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// `queue_cap + servers`: the most accepted attempts that may be
    /// unresolved (queued, executing, or waiting for the device).
    pub max_in_flight: u64,
    /// Per-transaction budget from arrival (µs).
    pub deadline_us: u64,
    pub policy: ShedPolicy,
}

impl Admission {
    pub fn new(queue_cap: usize, servers: usize, deadline_us: u64, policy: ShedPolicy) -> Self {
        Admission { max_in_flight: (queue_cap + servers) as u64, deadline_us, policy }
    }

    /// Decides attempt `attempt` of `a` at `now` with `in_flight`
    /// accepted attempts unresolved; `open` is false when the
    /// arrival's engine is down, which sheds like a full queue.
    pub fn decide(
        &self,
        now: u64,
        a: &Arrival,
        attempt: u32,
        in_flight: u64,
        open: bool,
    ) -> Verdict {
        if now >= a.at_us + self.deadline_us {
            Verdict::DeadlineMiss
        } else if !open || in_flight >= self.max_in_flight {
            Verdict::Shed(self.then(now, a, attempt, false))
        } else {
            Verdict::Accept
        }
    }

    /// What follows attempt `attempt` of `a`, shed (or, if `aborted`,
    /// aborted) at `now`.
    pub fn then(&self, now: u64, a: &Arrival, attempt: u32, aborted: bool) -> Then {
        let (base_us, cap_us) = match self.policy {
            ShedPolicy::RetryAfter { base_us, cap_us } => (base_us, cap_us),
            // `Drop` retries no shed attempt, but deadlock victims must
            // still back off.
            ShedPolicy::Drop if aborted => (500, 8_000),
            ShedPolicy::Drop => return Then::Dropped,
        };
        let due_us = now + backoff_us(base_us, cap_us, attempt, a.spec_seed);
        if due_us >= a.at_us + self.deadline_us {
            Then::DeadlineMiss
        } else {
            Then::Retry { due_us }
        }
    }
}

/// Capped exponential backoff with deterministic jitter: attempt `a`
/// waits `min(base << a, cap)` plus a hash-of-seed jitter in
/// `[0, base)`.
fn backoff_us(base_us: u64, cap_us: u64, attempt: u32, seed: u64) -> u64 {
    let exp = base_us.saturating_mul(1u64 << attempt.min(16)).min(cap_us.max(base_us));
    let h = (seed ^ ((attempt as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95)))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    exp + (h >> 33) % base_us.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_deterministic() {
        assert_eq!(backoff_us(1_000, 16_000, 0, 7), backoff_us(1_000, 16_000, 0, 7));
        for a in 0..20 {
            let b = backoff_us(1_000, 16_000, a, 7);
            assert!((1_000..16_000 + 1_000).contains(&b), "attempt {a}: {b}");
        }
    }

    #[test]
    fn the_rule_checks_the_deadline_then_capacity_then_the_policy() {
        let arrival = Arrival { at_us: 1_000, session: 0, spec_seed: 9 };
        let drop = Admission::new(2, 1, 10_000, ShedPolicy::Drop);
        assert_eq!(drop.decide(11_000, &arrival, 0, 0, true), Verdict::DeadlineMiss);
        assert_eq!(drop.decide(2_000, &arrival, 0, 2, true), Verdict::Accept);
        assert_eq!(drop.decide(2_000, &arrival, 0, 3, true), Verdict::Shed(Then::Dropped));
        assert_eq!(drop.decide(2_000, &arrival, 0, 0, false), Verdict::Shed(Then::Dropped));
        // Under Drop an abort still backs off, by the fallback step.
        assert!(
            matches!(drop.then(2_000, &arrival, 0, true), Then::Retry { due_us } if due_us >= 2_500)
        );
        let retry =
            Admission::new(2, 1, 10_000, ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 4_000 });
        let Verdict::Shed(Then::Retry { due_us }) = retry.decide(2_000, &arrival, 0, 3, true)
        else {
            panic!("a shed under retry-after with budget left retries");
        };
        assert!((3_000..4_000).contains(&due_us), "due {due_us}");
        // A retry that would land past the deadline is a miss.
        assert_eq!(retry.then(9_500, &arrival, 3, false), Then::DeadlineMiss);
        let bytes: Vec<u8> =
            Verdict::Shed(Then::DeadlineMiss).decisions().map(Decision::byte).collect();
        assert_eq!(bytes, b"SD");
    }
}
