//! The model checkpoint record format.
//!
//! Extends the single-field history snapshot of `agcm_grid::history` to a
//! versioned, checksummed, multi-field model checkpoint: dynamics state
//! (every prognostic field), physics state (load series and the balancer's
//! memory), RNG seeds, and the timestep counter. Like the history format it
//! records its own byte order and the reader swaps as needed.
//!
//! Layout (header fields in the *writer's* byte order):
//!
//! ```text
//! magic "AGCK"
//! endian marker  u32 = 0x01020304
//! version        u32 = 1
//! rank           u32      world rank that wrote the shard
//! world          u32      world size of the writing run
//! step           u64      first step NOT yet executed (resume point)
//! n_seeds  u32, seeds   u64 × n_seeds
//! n_scalars u32, scalars f64 × n_scalars
//! n_series u32, series  f64 × n_series
//! n_fields u32, then per field: ni u32 · nj u32 · nk u32 · f64 × ni·nj·nk
//! checksum       u64      FNV-1a over every preceding byte
//! ```

use agcm_grid::field::Field3D;
use agcm_grid::history::ByteOrder;
use std::fmt;

const MAGIC: &[u8; 4] = b"AGCK";
const ENDIAN_MARKER: u32 = 0x0102_0304;
const ENDIAN_MARKER_SWAPPED: u32 = 0x0403_0201;
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors from decoding a checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Record ends before the structure it promises.
    Truncated,
    /// Magic bytes did not match.
    BadMagic([u8; 4]),
    /// Endianness marker unintelligible in either byte order.
    BadEndianMarker(u32),
    /// Format version this reader does not understand.
    BadVersion(u32),
    /// Stored checksum disagrees with the record contents.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum computed over the record.
        computed: u64,
    },
    /// Bytes left over after the complete structure and trailer.
    LengthMismatch {
        /// Record length implied by the structure.
        expected: usize,
        /// Actual record length.
        found: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint record truncated"),
            CheckpointError::BadMagic(m) => write!(f, "bad magic bytes {m:?}"),
            CheckpointError::BadEndianMarker(v) => {
                write!(f, "unintelligible endian marker {v:#x}")
            }
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            CheckpointError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "record length mismatch: expected {expected} bytes, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One rank's complete model state at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheckpoint {
    /// World rank that owns this shard.
    pub rank: u32,
    /// World size of the writing run (restart must match).
    pub world: u32,
    /// First step not yet executed: restart resumes here.
    pub step: u64,
    /// RNG seeds in effect (the reproduction's physics is seeded, not
    /// sampled, but the slot keeps restarts future-proof).
    pub seeds: Vec<u64>,
    /// Small scalar state (e.g. the load balancer's one-step memory).
    pub scalars: Vec<f64>,
    /// Per-step series accumulated so far (e.g. physics load history).
    pub series: Vec<f64>,
    /// Prognostic fields, in model variable order.
    pub fields: Vec<Field3D>,
}

/// FNV-1a over a byte slice: the one checksum behind checkpoint records,
/// `agcm-ckptstore` chunk addresses and index lines, and the server
/// journal's line framing. Stored data depends on its exact values.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
    big: bool,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        let b = if self.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&b);
    }
    fn u64(&mut self, v: u64) {
        let b = if self.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&b);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    big: bool,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b: [u8; 4] = self.take(4)?.try_into().unwrap();
        Ok(if self.big {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        })
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b: [u8; 8] = self.take(8)?.try_into().unwrap();
        Ok(if self.big {
            u64::from_be_bytes(b)
        } else {
            u64::from_le_bytes(b)
        })
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl ModelCheckpoint {
    /// Encode in the requested byte order, checksum trailer included.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        let payload: usize = self.fields.iter().map(|f| f.len() * 8 + 12).sum();
        let mut w = Writer {
            buf: Vec::with_capacity(
                44 + self.seeds.len() * 8 + (self.scalars.len() + self.series.len()) * 8 + payload,
            ),
            big: order == ByteOrder::Big,
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(ENDIAN_MARKER);
        w.u32(VERSION);
        w.u32(self.rank);
        w.u32(self.world);
        w.u64(self.step);
        w.u32(self.seeds.len() as u32);
        for &s in &self.seeds {
            w.u64(s);
        }
        w.u32(self.scalars.len() as u32);
        for &v in &self.scalars {
            w.f64(v);
        }
        w.u32(self.series.len() as u32);
        for &v in &self.series {
            w.f64(v);
        }
        w.u32(self.fields.len() as u32);
        for f in &self.fields {
            let (ni, nj, nk) = f.shape();
            w.u32(ni as u32);
            w.u32(nj as u32);
            w.u32(nk as u32);
            for &v in f.as_slice() {
                w.f64(v);
            }
        }
        let sum = fnv1a(&w.buf);
        w.u64(sum);
        w.buf
    }

    /// Decode a record, detecting its byte order and verifying the
    /// checksum. Returns the checkpoint and the detected order.
    pub fn decode(record: &[u8]) -> Result<(ModelCheckpoint, ByteOrder), CheckpointError> {
        if record.len() < 12 {
            return Err(CheckpointError::Truncated);
        }
        if &record[..4] != MAGIC {
            return Err(CheckpointError::BadMagic(record[..4].try_into().unwrap()));
        }
        let marker = u32::from_le_bytes(record[4..8].try_into().unwrap());
        let order = match marker {
            ENDIAN_MARKER => ByteOrder::Little,
            ENDIAN_MARKER_SWAPPED => ByteOrder::Big,
            other => return Err(CheckpointError::BadEndianMarker(other)),
        };
        let big = order == ByteOrder::Big;
        // Checksum first: a corrupt record must fail fast, not parse.
        if record.len() < 20 {
            return Err(CheckpointError::Truncated);
        }
        let body = &record[..record.len() - 8];
        let trailer: [u8; 8] = record[record.len() - 8..].try_into().unwrap();
        let stored = if big {
            u64::from_be_bytes(trailer)
        } else {
            u64::from_le_bytes(trailer)
        };
        let computed = fnv1a(body);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader {
            buf: &body[8..],
            big,
        };
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let rank = r.u32()?;
        let world = r.u32()?;
        let step = r.u64()?;
        let n_seeds = r.u32()? as usize;
        let mut seeds = Vec::with_capacity(n_seeds.min(1 << 16));
        for _ in 0..n_seeds {
            seeds.push(r.u64()?);
        }
        let n_scalars = r.u32()? as usize;
        let mut scalars = Vec::with_capacity(n_scalars.min(1 << 16));
        for _ in 0..n_scalars {
            scalars.push(r.f64()?);
        }
        let n_series = r.u32()? as usize;
        let mut series = Vec::with_capacity(n_series.min(1 << 16));
        for _ in 0..n_series {
            series.push(r.f64()?);
        }
        let n_fields = r.u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields.min(1 << 10));
        for _ in 0..n_fields {
            let ni = r.u32()? as usize;
            let nj = r.u32()? as usize;
            let nk = r.u32()? as usize;
            let len = ni
                .checked_mul(nj)
                .and_then(|x| x.checked_mul(nk))
                .ok_or(CheckpointError::Truncated)?;
            // Cheap bound: the record must be able to hold the data it
            // promises, before any allocation.
            if r.buf.len() < len.checked_mul(8).ok_or(CheckpointError::Truncated)? {
                return Err(CheckpointError::Truncated);
            }
            let mut field = Field3D::zeros(ni, nj, nk);
            for v in field.as_mut_slice() {
                *v = r.f64()?;
            }
            fields.push(field);
        }
        if !r.buf.is_empty() {
            return Err(CheckpointError::LengthMismatch {
                expected: record.len() - r.buf.len(),
                found: record.len(),
            });
        }
        Ok((
            ModelCheckpoint {
                rank,
                world,
                step,
                seeds,
                scalars,
                series,
                fields,
            },
            order,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelCheckpoint {
        ModelCheckpoint {
            rank: 3,
            world: 8,
            step: 42,
            seeds: vec![0xDEAD_BEEF, 7],
            scalars: vec![1.0, -0.5],
            series: vec![0.1, 0.2, 0.3],
            fields: vec![
                Field3D::from_fn(4, 3, 2, |i, j, k| (i * 100 + j * 10 + k) as f64),
                Field3D::from_fn(2, 2, 1, |i, j, _| -((i + j) as f64)),
            ],
        }
    }

    #[test]
    fn checksum_known_answers() {
        // Indexes, journals and checkpoints on disk were written with
        // these values; a different hash would orphan all of them.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_both_orders() {
        let ckpt = sample();
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let rec = ckpt.encode(order);
            let (back, detected) = ModelCheckpoint::decode(&rec).unwrap();
            assert_eq!(detected, order);
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let ckpt = ModelCheckpoint {
            rank: 0,
            world: 1,
            step: 0,
            seeds: vec![],
            scalars: vec![],
            series: vec![],
            fields: vec![],
        };
        let rec = ckpt.encode(ByteOrder::Little);
        assert_eq!(ModelCheckpoint::decode(&rec).unwrap().0, ckpt);
    }

    #[test]
    fn bad_magic_detected() {
        let mut rec = sample().encode(ByteOrder::Little);
        rec[0] = b'X';
        assert_eq!(
            ModelCheckpoint::decode(&rec),
            Err(CheckpointError::BadMagic(*b"XGCK"))
        );
    }

    #[test]
    fn bad_marker_detected() {
        let mut rec = sample().encode(ByteOrder::Little);
        rec[4] = 0xFF;
        assert!(matches!(
            ModelCheckpoint::decode(&rec),
            Err(CheckpointError::BadEndianMarker(_))
        ));
    }

    #[test]
    fn bad_version_detected() {
        let ckpt = sample();
        let mut rec = ckpt.encode(ByteOrder::Little);
        rec[8] = 99; // version low byte
                     // Fix the checksum so version is the first failure.
        let sum = fnv1a(&rec[..rec.len() - 8]);
        let n = rec.len();
        rec[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            ModelCheckpoint::decode(&rec),
            Err(CheckpointError::BadVersion(99))
        );
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut rec = sample().encode(ByteOrder::Big);
        let mid = rec.len() / 2;
        rec[mid] ^= 0x10;
        assert!(matches!(
            ModelCheckpoint::decode(&rec),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let rec = sample().encode(ByteOrder::Little);
        for cut in [0, 3, 11, 19, rec.len() - 1] {
            let err = ModelCheckpoint::decode(&rec[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let ckpt = sample();
        let mut rec = ckpt.encode(ByteOrder::Little);
        // Append extra bytes and refresh the trailer checksum over them so
        // length, not checksum, is the first failure.
        rec.truncate(rec.len() - 8);
        rec.extend_from_slice(&[0u8; 16]);
        let sum = fnv1a(&rec[..rec.len() - 8]);
        let n = rec.len();
        rec[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ModelCheckpoint::decode(&rec),
            Err(CheckpointError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn encode_is_deterministic() {
        let ckpt = sample();
        assert_eq!(
            ckpt.encode(ByteOrder::Little),
            ckpt.encode(ByteOrder::Little)
        );
        assert_eq!(ckpt.encode(ByteOrder::Big), ckpt.encode(ByteOrder::Big));
    }
}
