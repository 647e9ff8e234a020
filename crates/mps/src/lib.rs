//! # agcm-mps — a message-passing substrate for the AGCM reproduction
//!
//! The original UCLA AGCM parallel code (Lou & Farrara, SC'96) was written
//! against message-passing libraries (NX on the Intel Paragon, shmem/MPI on
//! the Cray T3D). This crate provides the equivalent programming model as a
//! self-contained Rust library:
//!
//! * ranks run on OS threads launched by [`runtime::run`] (rank 0 on the
//!   caller's);
//! * a [`Comm`] offers point-to-point [`Comm::send`]/[`Comm::recv`] with
//!   tag matching, plus the collectives the AGCM code needs (barrier,
//!   broadcast, reduce, allreduce, gather, allgather, all-to-all(v));
//! * [`topology::CartComm`] builds the 2-D (latitude × longitude) processor
//!   mesh used by the AGCM grid decomposition, with row sub-communicators
//!   and periodic neighbours;
//! * a deterministic fault-injection plane ([`fault::FaultPlan`] +
//!   [`runtime::run_world`]) can drop, duplicate, delay or reorder
//!   messages and kill ranks at chosen steps, for exercising the
//!   checkpoint/restart machinery in `agcm-resilience`;
//! * every rank records a [`trace::RankTrace`] of sends, receives and
//!   floating-point work, which the `agcm-costmodel` crate replays against a
//!   machine profile (Paragon / T3D / SP-2) to produce the paper's
//!   seconds-per-simulated-day numbers.
//!
//! Sends are *eager*: `send` never blocks, so the classic shift/exchange
//! patterns (`send` then `recv`) are deadlock-free.
//!
//! ```
//! use agcm_mps::runtime::run;
//! use agcm_mps::message::Payload;
//!
//! // Four ranks compute a ring shift of their rank id.
//! let results = run(4, |comm| {
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, Payload::I64(vec![comm.rank() as i64]));
//!     let pkt = comm.recv(left, 7);
//!     pkt.payload.into_i64()[0]
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

pub mod cancel;
pub mod collectives;
pub mod comm;
pub mod error;
pub mod fault;
pub mod message;
pub mod runtime;
pub mod span;
pub mod topology;
pub mod trace;

pub use cancel::CancelToken;
pub use collectives::Op;
pub use comm::{Comm, ANY_SRC, ANY_TAG};
pub use error::{Error, Result};
pub use fault::{FaultAction, FaultEvent, FaultPlan, KillSpec, TargetedFault};
pub use message::{Packet, Payload};
pub use runtime::{run, run_traced, run_world, FailureKind, FaultyRun, WorldOptions};
pub use span::SpanObserver;
pub use topology::CartComm;
pub use trace::{Event, PhaseFault, PhaseFaultKind, PhaseSpan, WorldTrace};
