//! The six workloads: names, reasons, frozen sizes, and the seeded
//! input generators.
//!
//! Every input the program sees is produced here (or, for the open-loop
//! schedule, by handing the seeded profile below to the program's own
//! schedule generator) before any timing starts. The generators are the
//! benchmark's own — a SplitMix64 stream and a YCSB-style zipfian — so
//! a change to the repository's key pickers cannot move the inputs.
//!
//! Sizes were calibrated on the seed commit on a 2-core box so one
//! repetition of fixed work takes about half a second. The box loses
//! its cores to neighbours in bursts of about a second; many short
//! repetitions and a median over them keep a burst out of the reported
//! value, where a few two-second repetitions did not. The sizes are
//! frozen here and later changes may not edit them.

/// A workload's name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const ENGINE_2PL_UNIFORM: &str = "engine-2pl-uniform";
pub const ENGINE_2PL_ZIPF: &str = "engine-2pl-zipf";
pub const ENGINE_SI_ZIPF: &str = "engine-si-zipf";
pub const DIST_PIPELINE: &str = "dist-pipeline";
pub const LOAD_OPEN_DEVICE: &str = "load-open-device";
pub const SPEC_VERIFY: &str = "spec-verify";

/// The workload table (`BENCHMARK.json` mirrors it; a self-test keeps
/// them equal).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: ENGINE_2PL_UNIFORM,
        why: "write-heavy 2PL on 100k items, one client, device at zero: lock acquire/release, String-keyed maps, WAL encode+append and undo do nearly all the work; MVCC idle",
    },
    Workload {
        name: ENGINE_2PL_ZIPF,
        why: "read-heavy 2PL on a hot 10k-item set (zipf 0.99, 10% writes), one client: the shared-lock path beside the write path; the traced run adds a second client for conflicts and deadlocks",
    },
    Workload {
        name: ENGINE_SI_ZIPF,
        why: "the identical zipf spec stream under snapshot isolation: reads come off mvcc version chains, commits certify and install under the commit mutex; lock-table changes must not move it",
    },
    Workload {
        name: DIST_PIPELINE,
        why: "pipelined 3PC over 2 shards with 10us hops and zero force latency: FSM steps, fabric routing, node and pump loops, recorder and ledger are the cost, the engine a small share",
    },
    Workload {
        name: LOAD_OPEN_DEVICE,
        why: "open-loop Poisson arrivals into a group-commit engine with a 300us modeled device: admission queue, shedding and batching decide it; bypass workload for zero-device work",
    },
    Workload {
        name: SPEC_VERIFY,
        why: "the paper's artifact: Chapter 5 scripts parsed, composed by colimit, translated and proved; untouched by engine or dist changes, guard for crate-merging PRs",
    },
];

/// Operations per engine transaction.
pub const OPS_PER_TXN: usize = 8;
/// A deadlock or certification victim is retried with a fresh
/// transaction at most this many times before it counts as failed.
pub const MAX_TRIES: u32 = 64;

/// One operation of a transaction spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's key table.
    pub key: u32,
    pub write: bool,
}

/// One pre-generated transaction: the program receives exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSpec {
    pub ops: [Op; OPS_PER_TXN],
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyMix {
    Uniform,
    Zipf { theta: f64 },
}

/// Frozen parameters of one engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    pub name: &'static str,
    /// Snapshot isolation instead of two-phase locking.
    pub snapshot_isolation: bool,
    pub items: usize,
    pub mix: KeyMix,
    pub write_pct: u32,
    /// Transactions in one timed repetition.
    pub rep_txns: usize,
    /// Latency limit for `goodput_tps`, microseconds.
    pub limit_us: u64,
    /// Distinguishes spec streams; the two zipf workloads share one.
    pub stream: u64,
}

/// Closed-loop clients of the end-to-end repetitions.
pub const CLIENTS: usize = 1;
/// Clients of the traced run's contention repetitions and of the
/// serializability check (the box has two cores).
pub const CONTENDED_CLIENTS: usize = 2;
pub const ENGINE_SHARDS: usize = 16;
/// The three engine workloads count a transaction as good when it
/// commits within this long of its first `begin`.
pub const ENGINE_LIMIT_US: u64 = 1_000;

pub const ENGINE_WORKLOADS: [EngineWorkload; 3] = [
    EngineWorkload {
        name: ENGINE_2PL_UNIFORM,
        snapshot_isolation: false,
        items: 100_000,
        mix: KeyMix::Uniform,
        write_pct: 50,
        rep_txns: 35_000,
        limit_us: ENGINE_LIMIT_US,
        stream: 1,
    },
    EngineWorkload {
        name: ENGINE_2PL_ZIPF,
        snapshot_isolation: false,
        items: 10_000,
        mix: KeyMix::Zipf { theta: 0.99 },
        write_pct: 10,
        rep_txns: 150_000,
        limit_us: ENGINE_LIMIT_US,
        stream: 2,
    },
    EngineWorkload {
        name: ENGINE_SI_ZIPF,
        snapshot_isolation: true,
        items: 10_000,
        mix: KeyMix::Zipf { theta: 0.99 },
        write_pct: 10,
        rep_txns: 150_000,
        limit_us: ENGINE_LIMIT_US,
        stream: 2,
    },
];

impl EngineWorkload {
    pub fn by_name(name: &str) -> Option<&'static EngineWorkload> {
        ENGINE_WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The first `n` specs of this workload's stream for `seed`. A
    /// prefix of a longer request is identical to a shorter request, so
    /// the two zipf workloads run the same transactions as far as the
    /// shorter one goes.
    pub fn specs(&self, seed: u64, n: usize) -> Vec<TxnSpec> {
        let mut rng = SplitMix64::new(seed ^ self.stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let zipf = match self.mix {
            KeyMix::Uniform => None,
            KeyMix::Zipf { theta } => Some(Zipf::new(self.items, theta)),
        };
        (0..n)
            .map(|_| {
                let mut ops = [Op { key: 0, write: false }; OPS_PER_TXN];
                for op in &mut ops {
                    let key = match &zipf {
                        None => (rng.next_u64() % self.items as u64) as u32,
                        Some(z) => z.next(&mut rng) as u32,
                    };
                    let write = rng.next_u64() % 100 < u64::from(self.write_pct);
                    *op = Op { key, write };
                }
                TxnSpec { ops }
            })
            .collect()
    }

    /// The key table: spec key `i` names item `keys()[i]`.
    pub fn keys(&self) -> Vec<String> {
        (0..self.items).map(|i| format!("item{i:06}")).collect()
    }
}

/// Frozen parameters of `dist-pipeline`.
#[derive(Debug, Clone, Copy)]
pub struct DistWorkload {
    pub shards: usize,
    pub writes_per_shard: usize,
    pub tick_us: u64,
    pub delay_ticks: u64,
    pub timeout_ticks: u64,
    pub max_inflight: usize,
    pub batch_window_us: u64,
    /// Transactions streamed by one saturation repetition.
    pub saturation_txns: usize,
    /// Transactions of one paced repetition.
    pub paced_txns: usize,
    /// Paced inter-arrival gap (500 us = 2 000 txn/s, under a third of
    /// the saturation throughput at the seed commit).
    pub paced_gap_us: u64,
    /// One traced-run repetition at this size shows how throughput and
    /// oracle time scale with the stream length.
    pub stream_txns: usize,
    /// Transactions of one set-up (warm-up) run.
    pub warmup_txns: usize,
    /// Latency limit for `goodput_tps` on the paced leg, microseconds.
    pub limit_us: u64,
}

pub const DIST: DistWorkload = DistWorkload {
    shards: 2,
    writes_per_shard: 2,
    tick_us: 10,
    delay_ticks: 1,
    timeout_ticks: 1_000_000,
    max_inflight: 32,
    batch_window_us: 200,
    saturation_txns: 2_000,
    paced_txns: 1_000,
    paced_gap_us: 500,
    stream_txns: 8_000,
    warmup_txns: 500,
    limit_us: 20_000,
};

impl DistWorkload {
    /// Open-loop arrival offsets of the paced leg: transaction `i` is
    /// due `i * paced_gap_us` after the run starts.
    pub fn paced_arrivals(&self, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * self.paced_gap_us).collect()
    }
}

/// Frozen parameters of `load-open-device`.
#[derive(Debug, Clone, Copy)]
pub struct LoadWorkloadParams {
    pub items: usize,
    pub sessions: usize,
    pub session_theta: f64,
    pub session_span: usize,
    pub ops_per_txn: usize,
    pub write_pct: u8,
    pub workers: usize,
    /// Admission on the overload leg: a short queue that sheds by
    /// dropping, and a deadline from the due arrival.
    pub queue_cap: usize,
    pub deadline_us: u64,
    /// The nominal leg measures latency, not admission: its queue and
    /// deadline are wide enough that a host stall delays transactions
    /// instead of failing them.
    pub nominal_queue_cap: usize,
    pub nominal_deadline_us: u64,
    pub force_latency_us: u64,
    /// Offered rate of the nominal leg, txn/s.
    pub nominal_tps: f64,
    /// Offered rate of the overload leg (about twice capacity).
    pub overload_tps: f64,
    /// Virtual length of one repetition of either leg.
    pub rep_us: u64,
}

pub const LOAD: LoadWorkloadParams = LoadWorkloadParams {
    items: 10_000,
    sessions: 100_000,
    session_theta: 0.8,
    session_span: 8,
    ops_per_txn: 8,
    write_pct: 50,
    workers: 4,
    queue_cap: 64,
    deadline_us: 50_000,
    nominal_queue_cap: 4_096,
    nominal_deadline_us: 2_000_000,
    force_latency_us: 300,
    nominal_tps: 1_500.0,
    overload_tps: 12_000.0,
    rep_us: 1_000_000,
};

/// A replay of the Chapter 5 scripts counts as good within this long.
pub const SPEC_LIMIT_US: u64 = 1_000_000;

/// SplitMix64: the benchmark's own seeded stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// YCSB-style zipfian over `0..n` (Gray et al.'s closed form with a
/// precomputed zeta); index 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 1, "zipf needs at least two items");
        assert!((0.0..1.0).contains(&theta), "zipf theta must be in [0, 1)");
        let zeta = |m: usize| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn next(&self, rng: &mut SplitMix64) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(name: &str) -> &'static EngineWorkload {
        EngineWorkload::by_name(name).expect("engine workload")
    }

    #[test]
    fn same_seed_gives_identical_spec_streams() {
        for w in &ENGINE_WORKLOADS {
            assert_eq!(w.specs(42, 2_000), w.specs(42, 2_000), "{}", w.name);
        }
    }

    #[test]
    fn different_seed_gives_a_different_stream() {
        for w in &ENGINE_WORKLOADS {
            assert_ne!(w.specs(42, 2_000), w.specs(43, 2_000), "{}", w.name);
        }
    }

    #[test]
    fn the_two_zipf_workloads_share_one_stream() {
        let (pl, si) = (by(ENGINE_2PL_ZIPF), by(ENGINE_SI_ZIPF));
        assert_eq!(pl.specs(42, 3_000), si.specs(42, 3_000));
        assert_eq!(pl.keys(), si.keys());
        assert_ne!(pl.specs(42, 3_000), by(ENGINE_2PL_UNIFORM).specs(42, 3_000));
    }

    #[test]
    fn a_shorter_stream_is_a_prefix_of_a_longer_one() {
        let w = by(ENGINE_2PL_ZIPF);
        assert_eq!(w.specs(7, 500)[..], w.specs(7, 1_500)[..500]);
    }

    #[test]
    fn specs_respect_the_declared_mix() {
        for w in &ENGINE_WORKLOADS {
            let specs = w.specs(42, 4_000);
            let ops = (specs.len() * OPS_PER_TXN) as f64;
            let writes = specs.iter().flat_map(|s| s.ops).filter(|o| o.write).count() as f64;
            assert!((writes / ops - f64::from(w.write_pct) / 100.0).abs() < 0.02, "{}", w.name);
            assert!(specs.iter().flat_map(|s| s.ops).all(|o| (o.key as usize) < w.items));
        }
        // zipf 0.99 over 10 000 items puts far more than the uniform
        // 0.1 % of draws on the ten hottest keys.
        let hot = by(ENGINE_2PL_ZIPF)
            .specs(42, 4_000)
            .iter()
            .flat_map(|s| s.ops)
            .filter(|o| o.key < 10)
            .count();
        assert!(hot > 4_000 * OPS_PER_TXN / 5, "hot draws {hot}");
    }

    #[test]
    fn paced_arrivals_are_a_fixed_grid() {
        assert_eq!(DIST.paced_arrivals(4), [0, 500, 1_000, 1_500]);
        assert_eq!(DIST.paced_arrivals(DIST.paced_txns).len(), DIST.paced_txns);
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name), "{}", w.name);
        }
        assert!(WORKLOADS.len() <= 8);
    }
}
