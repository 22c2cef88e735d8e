//! Seeded open-loop arrival generation.
//!
//! [`ArrivalSchedule::generate`] expands a [`LoadProfile`] into a
//! deterministic, serializable arrival list: Poisson (or bursty
//! flash-crowd / diurnal-shift) arrival instants on a virtual
//! microsecond clock, each tagged with the zipfian-selected user
//! session it belongs to and the seed of the transaction spec it will
//! submit. Same profile, same bytes — the *schedule* (not the wall
//! clock the driver paces it on) is the deterministic artifact the
//! determinism tests pin byte-for-byte.

use mcv_txn::Zipfian;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// 53 uniform mantissa bits in `[0, 1)` — the same draw `Zipfian` uses,
/// so the whole schedule depends only on the `StdRng` stream.
fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The offered-load curve over virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a fixed rate.
    Poisson {
        /// Offered transactions per second.
        rate_tps: f64,
    },
    /// Poisson at `base_tps`, with a flash crowd at `peak_tps` during
    /// `[start_us, end_us)` — the overload burst the SLO campaigns
    /// crash a shard in the middle of.
    FlashCrowd {
        /// Steady-state offered rate.
        base_tps: f64,
        /// Offered rate during the crowd window.
        peak_tps: f64,
        /// Crowd start (virtual µs).
        start_us: u64,
        /// Crowd end (virtual µs, exclusive).
        end_us: u64,
    },
    /// Sinusoidal shift between `low_tps` and `high_tps` with the
    /// given period — a compressed diurnal cycle.
    Diurnal {
        /// Trough offered rate.
        low_tps: f64,
        /// Peak offered rate.
        high_tps: f64,
        /// Full cycle length (virtual µs).
        period_us: u64,
    },
}

impl ArrivalProcess {
    /// Instantaneous offered rate (txns/second) at virtual time `at_us`.
    fn rate_at(&self, at_us: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_tps } => rate_tps,
            ArrivalProcess::FlashCrowd { base_tps, peak_tps, start_us, end_us } => {
                if (start_us..end_us).contains(&at_us) {
                    peak_tps
                } else {
                    base_tps
                }
            }
            ArrivalProcess::Diurnal { low_tps, high_tps, period_us } => {
                let phase = (at_us % period_us.max(1)) as f64 / period_us.max(1) as f64;
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                low_tps + (high_tps - low_tps) * swing
            }
        }
    }

    /// The peak instantaneous rate — the envelope the thinning sampler
    /// generates candidates at.
    pub fn peak(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_tps } => rate_tps,
            ArrivalProcess::FlashCrowd { base_tps, peak_tps, .. } => base_tps.max(peak_tps),
            ArrivalProcess::Diurnal { low_tps, high_tps, .. } => low_tps.max(high_tps),
        }
    }
}

/// Everything needed to regenerate an arrival schedule bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// The offered-load curve.
    pub process: ArrivalProcess,
    /// Virtual length of the run; no arrivals at or past this instant.
    pub duration_us: u64,
    /// Size of the simulated user population. Sessions are virtual
    /// (pure arithmetic, no per-session allocation), so millions are
    /// cheap — the zipfian zeta precomputation is the only O(n) cost.
    pub sessions: usize,
    /// Zipfian skew across sessions (0 = uniform population,
    /// 0.99 = YCSB-hot). Session 0 is the hottest user.
    pub session_theta: f64,
    /// Seed for arrival instants, session draws, and spec seeds.
    pub seed: u64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 1_000.0 },
            duration_us: 200_000,
            sessions: 1_000_000,
            session_theta: 0.8,
            seed: 1,
        }
    }
}

impl LoadProfile {
    /// The zipfian session selector for this profile. Building one
    /// costs an O(sessions) zeta sum — campaign loops construct it
    /// once and reuse it via [`ArrivalSchedule::generate_with`].
    pub fn session_picker(&self) -> Zipfian {
        Zipfian::new(self.sessions, self.session_theta)
    }
}

/// One admission-to-be: a virtual instant, the user session it belongs
/// to, and the seed that fully determines the transaction spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Virtual arrival instant (µs from run start). Latency and
    /// deadline budgets are measured from here — queueing counts.
    pub at_us: u64,
    /// Owning session (0 = hottest).
    pub session: u64,
    /// Seed of the transaction spec; retries replay the same spec.
    pub spec_seed: u64,
}

/// A fully expanded, deterministic arrival schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSchedule {
    /// The profile this schedule was expanded from.
    pub profile: LoadProfile,
    /// Arrivals in nondecreasing `at_us` order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalSchedule {
    /// Expands `profile` into its arrival list (thinning sampler:
    /// candidates at the peak rate, each kept with probability
    /// `rate(t)/peak`). Deterministic in the profile.
    pub fn generate(profile: &LoadProfile) -> ArrivalSchedule {
        Self::generate_with(profile, &profile.session_picker())
    }

    /// [`ArrivalSchedule::generate`] with a prebuilt session picker
    /// (must match the profile's `sessions`/`session_theta`).
    pub fn generate_with(profile: &LoadProfile, sessions: &Zipfian) -> ArrivalSchedule {
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let peak_per_us = profile.process.peak() / 1e6;
        assert!(peak_per_us > 0.0, "arrival process needs a positive peak rate");
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        let mut i = 0u64;
        loop {
            // Exponential inter-arrival at the peak rate.
            t += -(1.0 - unit(&mut rng)).ln() / peak_per_us;
            if t >= profile.duration_us as f64 {
                break;
            }
            let at_us = t as u64;
            let keep = unit(&mut rng) * profile.process.peak() <= profile.process.rate_at(at_us);
            if keep {
                let session = sessions.next(&mut rng) as u64;
                let spec_seed =
                    profile.seed ^ (i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                arrivals.push(Arrival { at_us, session, spec_seed });
                i += 1;
            }
        }
        ArrivalSchedule { profile: profile.clone(), arrivals }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Offered rate averaged over the profile duration, in txns/s.
    pub fn offered_tps(&self) -> f64 {
        self.arrivals.len() as f64 / (self.profile.duration_us as f64 / 1e6)
    }

    /// Canonical byte serialization: one JSON line for the profile,
    /// then one per arrival. Equal schedules produce equal bytes — the
    /// determinism tests compare this form directly.
    pub fn to_jsonl(&self) -> String {
        let mut out = serde_json::to_string(&self.profile).expect("profile serializes") + "\n";
        for a in &self.arrivals {
            out.push_str(&serde_json::to_string(a).expect("arrival serializes"));
            out.push('\n');
        }
        out
    }
}

/// Maps sessions onto engines and key windows: each session has a home
/// engine (crash-fault domain) and a scrambled home key inside that
/// engine's item range, so zipfian session heat becomes zipfian key
/// heat without two hot sessions ever sharing a whole window.
#[derive(Debug, Clone, Copy)]
pub struct Ownership {
    /// Number of engines (crashable shard groups).
    pub engines: usize,
    /// Items per engine keyspace.
    pub items_per_engine: usize,
    /// Width of one session's key window.
    pub span: usize,
}

impl Ownership {
    /// The engine that owns every key of `session`'s transactions —
    /// all of a session's ops stay engine-local (cross-shard mixes go
    /// through [`run_dist_stream`](crate::run_dist_stream) instead).
    pub fn engine_of(&self, session: u64) -> usize {
        (session % self.engines as u64) as usize
    }

    /// The session's home key index inside its engine's `0..items`
    /// range (multiplicative scramble: adjacent hot sessions spread
    /// across the keyspace instead of piling onto one hot block).
    fn home_key(&self, session: u64) -> usize {
        ((session.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % self.items_per_engine as u64)
            as usize
    }

    /// The `k`-th key of `session`'s window, wrapping within the
    /// engine's range.
    pub fn key(&self, session: u64, k: usize) -> usize {
        (self.home_key(session) + (k % self.span.max(1))) % self.items_per_engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_schedules_are_byte_identical() {
        let p = LoadProfile { sessions: 10_000, ..Default::default() };
        let a = ArrivalSchedule::generate(&p);
        let b = ArrivalSchedule::generate(&p);
        assert!(!a.is_empty());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn different_seeds_diverge() {
        let p = LoadProfile { sessions: 10_000, ..Default::default() };
        let q = LoadProfile { seed: p.seed + 1, ..p.clone() };
        assert_ne!(
            ArrivalSchedule::generate(&p).to_jsonl(),
            ArrivalSchedule::generate(&q).to_jsonl()
        );
    }

    #[test]
    fn poisson_rate_is_roughly_honored() {
        let p = LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 5_000.0 },
            duration_us: 400_000,
            sessions: 1_000,
            seed: 7,
            ..Default::default()
        };
        let s = ArrivalSchedule::generate(&p);
        let tps = s.offered_tps();
        assert!((3_500.0..6_500.0).contains(&tps), "offered {tps} tps");
        assert!(s.arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let p = LoadProfile {
            process: ArrivalProcess::FlashCrowd {
                base_tps: 500.0,
                peak_tps: 5_000.0,
                start_us: 100_000,
                end_us: 200_000,
            },
            duration_us: 300_000,
            sessions: 1_000,
            seed: 3,
            ..Default::default()
        };
        let s = ArrivalSchedule::generate(&p);
        let in_crowd = s.arrivals.iter().filter(|a| (100_000..200_000).contains(&a.at_us)).count();
        let outside = s.len() - in_crowd;
        // The crowd third carries 10x the rate of the other two thirds
        // combined rate: expect a clear majority inside the window.
        assert!(in_crowd > 3 * outside, "crowd {in_crowd} vs outside {outside}");
    }

    #[test]
    fn diurnal_trough_and_peak_differ() {
        let proc =
            ArrivalProcess::Diurnal { low_tps: 100.0, high_tps: 1_000.0, period_us: 1_000_000 };
        assert!(proc.rate_at(0) < 150.0);
        assert!(proc.rate_at(500_000) > 900.0);
        assert_eq!(proc.peak(), 1_000.0);
    }

    #[test]
    fn zipfian_sessions_make_hot_keys() {
        let p = LoadProfile {
            sessions: 2_000_000,
            session_theta: 0.9,
            duration_us: 100_000,
            ..Default::default()
        };
        let s = ArrivalSchedule::generate(&p);
        let hot = s.arrivals.iter().filter(|a| a.session < 100).count();
        // 100 of 2M sessions would get ~0.005% uniformly; zipf(0.9)
        // concentrates orders of magnitude more.
        assert!(hot * 20 > s.len(), "hot-session share too small: {hot}/{}", s.len());
    }

    #[test]
    fn ownership_keeps_sessions_engine_local_and_in_range() {
        let own = Ownership { engines: 3, items_per_engine: 64, span: 4 };
        for session in [0u64, 1, 2, 17, 1_999_999] {
            let e = own.engine_of(session);
            assert!(e < 3);
            for k in 0..10 {
                assert!(own.key(session, k) < 64);
            }
        }
        // Hot sessions 0..3 map to distinct home keys.
        let homes: std::collections::BTreeSet<usize> = (0u64..4).map(|s| own.home_key(s)).collect();
        assert!(homes.len() >= 3, "hot sessions pile onto one home: {homes:?}");
    }
}
