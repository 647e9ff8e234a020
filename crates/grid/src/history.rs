//! Byte order of history (restart) records.
//!
//! "The UCLA AGCM code uses a NETCDF input history file and we do not have
//! a NETCDF library available on the Paragon, we had to develop a
//! byte-order reversal routine to convert the history data" (paper §4).
//! The one record format of this reproduction that carries that routine
//! is the model checkpoint (`agcm_resilience::checkpoint`): it records the
//! writer's byte order and its reader swaps when that differs from the
//! reading machine's. This module names the two orders.

/// Byte order of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteOrder {
    /// Little-endian (Paragon's i860, modern x86).
    Little,
    /// Big-endian (the workstation/Cray side of the paper's conversion).
    Big,
}
