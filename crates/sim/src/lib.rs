//! # mcv-sim
//!
//! A deterministic discrete-event simulator for distributed protocols —
//! the executable substrate under the thesis' three-phase-commit case
//! study. The thesis' Section 3.4 assumptions are the network model:
//! FIFO channels, a reliable network without partitioning, message
//! delay bounded by δ, and crash/recover site failures with
//! timeout-based detection. Every deviation from them — a crash, a
//! recovery, a partition, a drop, duplication or reordering window, a
//! torn write — is a timed [`FaultEvent`]. A run's events form one
//! [`FaultSchedule`], each scheduled with [`World::schedule`]; the one
//! [`LinkCore`] decides each message's fate, here and in `mcv-dist`'s
//! threaded transport.
//!
//! Determinism: all scheduling is driven by a seeded RNG and a totally
//! ordered event queue, so a `(topology, seed, failure schedule)` triple
//! reproduces an execution exactly — counterexamples found by the
//! property monitors are replayable.
//!
//! # Examples
//!
//! ```
//! use mcv_sim::{World, WorldConfig, Process, Ctx, ProcId, SimTime};
//!
//! struct PingPong { bounces: u32 }
//! impl Process<u8> for PingPong {
//!     fn on_start(&mut self, ctx: &mut Ctx<u8>) {
//!         if ctx.id() == ProcId(0) { ctx.send(ProcId(1), 0); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<u8>, from: ProcId, n: u8) {
//!         self.bounces += 1;
//!         if n < 4 { ctx.send(from, n + 1); }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<u8>, _t: u64) {}
//! }
//!
//! let mut w = World::new(WorldConfig::default());
//! w.add_process(PingPong { bounces: 0 });
//! w.add_process(PingPong { bounces: 0 });
//! let stats = w.run();
//! assert_eq!(stats.messages_delivered, 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod net;
mod process;
mod time;
mod trace;
mod world;

pub use net::{CutKind, Fate, FaultEvent, FaultSchedule, Hop, LinkCore};
pub use process::{Ctx, Effects, Process, TimerToken};
pub use time::{ProcId, SimTime};
pub use trace::{Trace, TraceEntry};
pub use world::{Pending, RunStats, World, WorldConfig};
