//! # agcm-costmodel — machine profiles and trace-driven time simulation
//!
//! The paper's evaluation machines (Intel Paragon, Cray T3D, IBM SP-2) are
//! long gone. Per the substitution table in `DESIGN.md`, their *timing
//! behaviour* is reproduced by a linear machine model replayed against
//! execution traces recorded by `agcm-mps`:
//!
//! * [`machine`] — calibrated [`machine::MachineProfile`]s: sustained flop
//!   rate, message latency, bandwidth, and per-message CPU overheads;
//! * [`replay`](mod@replay) — a discrete-event replay of a [`agcm_mps::WorldTrace`]:
//!   each rank's virtual clock advances through its recorded flops and
//!   messages, receives synchronize with the matching sends, and the result
//!   is per-rank finish times plus per-phase breakdowns — so load imbalance
//!   and communication stalls show up exactly as they would on the machine;
//! * [`analysis`] — closed-form message/volume counts for the algorithm
//!   variants the paper compares analytically in §3.1–3.2 (convolution
//!   ring, binary tree, distributed FFT, transpose FFT).
//!
//! The model is deliberately simple (LogGP-flavoured): a send occupies the
//! sender for `o_send + bytes/bandwidth` and arrives `latency` later; a
//! receive completes at `max(local clock + o_recv, arrival)`; `f` flops take
//! `f / flop_rate`. Simplicity is the point — every *shape* in the paper's
//! tables (who wins, scaling curves, crossovers) is produced by the traced
//! algorithm behaviour, not by tuning the model.

pub mod analysis;
pub mod machine;
pub mod replay;

pub use machine::MachineProfile;
pub use replay::{replay, ReplayResult};
