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
//!
//! ## Records are streams
//!
//! A paper-grid shard is 5.6 MB, and FNV-1a is a serial chain (one
//! xor-multiply per byte), so every extra pass over a record and every
//! record-sized buffer shows in a job's commit. The record is therefore
//! produced and consumed as a stream, in blocks of a few thousand
//! values:
//!
//! * writing — a [`RecordSource`] (a [`ModelCheckpoint`] encoding itself,
//!   or bytes already encoded) pushes blocks into a [`RecordSink`] (a
//!   `Vec`, a file, the content-addressed store's chunk writer);
//! * reading — [`ModelCheckpoint::read_from`] pulls blocks from a
//!   [`RecordStream`] (a slice, a file, the store's chunk files) and
//!   converts them straight into the fields it returns.
//!
//! Both ends *hash what passes through them*, and that is what makes
//! one traversal enough. The trailer checksum is the FNV-1a chain over
//! the body, i.e. **the whole-record chain's state eight bytes before
//! the end**: the encoder asks the sink for its digest instead of
//! hashing the body itself, the decoder asks the stream; a store that
//! lets the same chain run on over the trailer has its whole-record
//! digest, and a second chain restarted at each chunk boundary
//! ([`Fnv1a::update_both`] — two independent chains pipeline at the
//! cost of one) has the chunk addresses. [`ModelCheckpoint::encode`] and
//! [`ModelCheckpoint::decode`] are this path with a `Vec` and a slice at
//! the far end.

use crate::coordinator::StoreError;
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
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.value()
}

/// A running [`fnv1a`]: the hash of everything fed to it so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// The hash of the empty string.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feed `bytes` to this chain and to `other` in one traversal. Each
    /// chain is a serial xor-multiply, so two of them pipeline at the
    /// cost of one; the store hashes the whole record and the current
    /// chunk this way.
    pub fn update_both(&mut self, other: &mut Fnv1a, bytes: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &x in bytes {
            a = (a ^ x as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ x as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = a;
        other.0 = b;
    }

    /// The hash of the bytes fed so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Where an encoded record goes, block by block. A sink hashes what
/// passes through it, which is what lets a record be written in one
/// traversal: the trailer checksum of a record *is* the FNV-1a chain of
/// the whole record eight bytes before its end, so the encoder asks the
/// sink for [`digest`](RecordSink::digest) instead of hashing the body
/// itself, and a store that continues the same chain over the trailer
/// has its whole-record digest for free.
pub trait RecordSink {
    /// Accept the next bytes of the record.
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError>;
    /// [`fnv1a`] of every byte written so far.
    fn digest(&self) -> u64;
}

/// Anything that can produce an encoded record into a [`RecordSink`]:
/// an already encoded `&[u8]`, or a [`ModelCheckpoint`] encoding itself
/// on the fly ([`ModelCheckpoint::record`]), in which case the record
/// never exists in memory as a whole.
pub trait RecordSource {
    /// Write the whole record to `sink`, front to back.
    fn write_to(&self, sink: &mut dyn RecordSink) -> Result<(), StoreError>;
}

impl RecordSource for &[u8] {
    fn write_to(&self, sink: &mut dyn RecordSink) -> Result<(), StoreError> {
        sink.write(self)
    }
}

/// Where an encoded record comes from, the mirror of [`RecordSink`]: a
/// stream of known length that hashes what it delivers, so the decoder
/// verifies the trailer checksum in the traversal that parses the
/// record. A stream that knows what its bytes must hash to (a store
/// manifest's digest) fails the read that delivers the last byte.
pub trait RecordStream {
    /// Bytes not yet delivered.
    fn remaining(&self) -> u64;
    /// The next `n` bytes, borrowed from the stream until its next
    /// call; callers never ask for more than
    /// [`remaining`](RecordStream::remaining).
    fn read(&mut self, n: usize) -> Result<&[u8], StoreError>;
    /// [`fnv1a`] of every byte delivered so far.
    fn digest(&self) -> u64;
}

/// An in-memory record as a stream.
struct SliceStream<'a> {
    rest: &'a [u8],
    digest: Fnv1a,
}

impl RecordStream for SliceStream<'_> {
    fn remaining(&self) -> u64 {
        self.rest.len() as u64
    }
    fn read(&mut self, n: usize) -> Result<&[u8], StoreError> {
        let (head, tail) = self.rest.split_at(n);
        self.digest.update(head);
        self.rest = tail;
        Ok(head)
    }
    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

/// A growing in-memory record as a sink.
#[derive(Default)]
pub(crate) struct VecSink {
    pub(crate) buf: Vec<u8>,
    digest: Fnv1a,
}

impl RecordSink for VecSink {
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError> {
        self.digest.update(block);
        self.buf.extend_from_slice(block);
        Ok(())
    }
    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

/// Values travel to a sink and from a stream in blocks of this many
/// bytes: small enough to stay in cache between the conversion and the
/// hash, and never more than a store chunk.
const BLOCK: usize = 32 * 1024;

/// Encoder state: the sink, the byte order and the staging block, of
/// which the first `staged` bytes wait to be flushed.
struct Writer<'a> {
    sink: &'a mut dyn RecordSink,
    big: bool,
    block: Vec<u8>,
    staged: usize,
}

impl Writer<'_> {
    /// Stage a few bytes, flushing first if the block cannot take them.
    fn bytes(&mut self, b: &[u8]) -> Result<(), StoreError> {
        if self.staged + b.len() > BLOCK {
            self.flush()?;
        }
        self.block[self.staged..self.staged + b.len()].copy_from_slice(b);
        self.staged += b.len();
        Ok(())
    }
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.staged > 0 {
            self.sink.write(&self.block[..self.staged])?;
            self.staged = 0;
        }
        Ok(())
    }
    fn u32(&mut self, v: u32) -> Result<(), StoreError> {
        let b = if self.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.bytes(&b)
    }
    fn u64(&mut self, v: u64) -> Result<(), StoreError> {
        let b = if self.big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.bytes(&b)
    }
    /// A run of 64-bit values, a block at a time. In the machine's own
    /// byte order the conversion loop is a block copy; in the other it
    /// is a vectorised byte swap.
    fn words<T: Copy>(&mut self, vals: &[T], bits: impl Fn(T) -> u64) -> Result<(), StoreError> {
        for run in vals.chunks(BLOCK / 8) {
            self.flush()?;
            self.staged = run.len() * 8;
            let slots = self.block[..self.staged].chunks_exact_mut(8).zip(run);
            if self.big {
                slots.for_each(|(slot, &v)| slot.copy_from_slice(&bits(v).to_be_bytes()));
            } else {
                slots.for_each(|(slot, &v)| slot.copy_from_slice(&bits(v).to_le_bytes()));
            }
        }
        Ok(())
    }
    fn f64s(&mut self, vals: &[f64]) -> Result<(), StoreError> {
        self.words(vals, f64::to_bits)
    }
}

/// Decoder state: the stream and the byte order. The record's last
/// eight bytes are the trailer, so structure reads stop short of them
/// exactly as if the body were a slice of its own.
struct Reader<'a> {
    stream: &'a mut dyn RecordStream,
    big: bool,
}

impl Reader<'_> {
    /// Bytes of body (everything before the trailer) not yet read.
    fn body_left(&self) -> u64 {
        self.stream.remaining().saturating_sub(8)
    }
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        if self.body_left() < N as u64 {
            return Err(StoreError::Format(CheckpointError::Truncated));
        }
        let b = self.stream.read(N)?;
        Ok(b.try_into().expect("the stream delivers what it is asked"))
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.fixed::<4>()?;
        Ok(if self.big {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        })
    }
    fn u64_of(&self, b: [u8; 8]) -> u64 {
        if self.big {
            u64::from_be_bytes(b)
        } else {
            u64::from_le_bytes(b)
        }
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.fixed::<8>()?;
        Ok(self.u64_of(b))
    }
    /// `Truncated` unless the body still holds `words` 64-bit values:
    /// checked before anything is allocated for a count read from the
    /// record.
    fn need(&self, words: u64) -> Result<(), StoreError> {
        if self.body_left() / 8 < words {
            return Err(StoreError::Format(CheckpointError::Truncated));
        }
        Ok(())
    }
    /// A run of 64-bit values (which [`need`](Reader::need) vouched for)
    /// straight into `out`, a block at a time.
    fn words<T>(&mut self, out: &mut [T], from: impl Fn(u64) -> T) -> Result<(), StoreError> {
        for run in out.chunks_mut(BLOCK / 8) {
            let block = self.stream.read(run.len() * 8)?;
            let slots = run.iter_mut().zip(block.chunks_exact(8));
            if self.big {
                slots.for_each(|(v, b)| *v = from(u64::from_be_bytes(b.try_into().unwrap())));
            } else {
                slots.for_each(|(v, b)| *v = from(u64::from_le_bytes(b.try_into().unwrap())));
            }
        }
        Ok(())
    }
    /// A counted run of 64-bit values.
    fn counted<T: Clone>(
        &mut self,
        zero: T,
        from: impl Fn(u64) -> T,
    ) -> Result<Vec<T>, StoreError> {
        let n = self.u32()? as u64;
        self.need(n)?;
        let mut out = vec![zero; n as usize];
        self.words(&mut out, from)?;
        Ok(out)
    }
    /// Deliver and drop bytes until only the trailer is left.
    fn skip_body(&mut self) -> Result<(), StoreError> {
        while self.body_left() > 0 {
            let n = self.body_left().min(BLOCK as u64) as usize;
            self.stream.read(n)?;
        }
        Ok(())
    }
    /// Everything between the endian marker and the trailer.
    fn body(&mut self, total: u64) -> Result<ModelCheckpoint, StoreError> {
        let version = self.u32()?;
        if version != VERSION {
            return Err(StoreError::Format(CheckpointError::BadVersion(version)));
        }
        let rank = self.u32()?;
        let world = self.u32()?;
        let step = self.u64()?;
        let seeds = self.counted(0u64, |bits| bits)?;
        let scalars = self.counted(0.0, f64::from_bits)?;
        let series = self.counted(0.0, f64::from_bits)?;
        let n_fields = self.u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields.min(1 << 10));
        for _ in 0..n_fields {
            let ni = self.u32()? as usize;
            let nj = self.u32()? as usize;
            let nk = self.u32()? as usize;
            let len = ni
                .checked_mul(nj)
                .and_then(|x| x.checked_mul(nk))
                .ok_or(StoreError::Format(CheckpointError::Truncated))?;
            self.need(len as u64)?;
            let mut field = Field3D::zeros(ni, nj, nk);
            self.words(field.as_mut_slice(), f64::from_bits)?;
            fields.push(field);
        }
        if self.body_left() > 0 {
            return Err(StoreError::Format(CheckpointError::LengthMismatch {
                expected: (total - self.body_left()) as usize,
                found: total as usize,
            }));
        }
        Ok(ModelCheckpoint {
            rank,
            world,
            step,
            seeds,
            scalars,
            series,
            fields,
        })
    }
}

/// A checkpoint encoding itself in a fixed byte order: the streamed
/// form of [`ModelCheckpoint::encode`] that stores take.
#[derive(Debug, Clone, Copy)]
pub struct EncodedCheckpoint<'a> {
    ckpt: &'a ModelCheckpoint,
    order: ByteOrder,
}

impl RecordSource for EncodedCheckpoint<'_> {
    fn write_to(&self, sink: &mut dyn RecordSink) -> Result<(), StoreError> {
        let ckpt = self.ckpt;
        let mut w = Writer {
            sink,
            big: self.order == ByteOrder::Big,
            block: vec![0; BLOCK],
            staged: 0,
        };
        w.bytes(MAGIC)?;
        w.u32(ENDIAN_MARKER)?;
        w.u32(VERSION)?;
        w.u32(ckpt.rank)?;
        w.u32(ckpt.world)?;
        w.u64(ckpt.step)?;
        w.u32(ckpt.seeds.len() as u32)?;
        w.words(&ckpt.seeds, |s| s)?;
        w.u32(ckpt.scalars.len() as u32)?;
        w.f64s(&ckpt.scalars)?;
        w.u32(ckpt.series.len() as u32)?;
        w.f64s(&ckpt.series)?;
        w.u32(ckpt.fields.len() as u32)?;
        for f in &ckpt.fields {
            let (ni, nj, nk) = f.shape();
            w.u32(ni as u32)?;
            w.u32(nj as u32)?;
            w.u32(nk as u32)?;
            w.f64s(f.as_slice())?;
        }
        w.flush()?;
        // The body has passed through the sink: its hash is the checksum.
        let sum = w.sink.digest();
        w.u64(sum)?;
        w.flush()
    }
}

impl ModelCheckpoint {
    /// This checkpoint as a record in the requested byte order, encoded
    /// as it is written: nothing larger than one block is buffered.
    pub fn record(&self, order: ByteOrder) -> EncodedCheckpoint<'_> {
        EncodedCheckpoint { ckpt: self, order }
    }

    /// Length in bytes of the encoded record.
    fn encoded_len(&self) -> usize {
        let payload: usize = self.fields.iter().map(|f| f.len() * 8 + 12).sum();
        44 + (self.seeds.len() + self.scalars.len() + self.series.len()) * 8 + payload
    }

    /// Encode in the requested byte order, checksum trailer included.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        let mut sink = VecSink::default();
        sink.buf.reserve_exact(self.encoded_len());
        self.record(order)
            .write_to(&mut sink)
            .expect("an in-memory sink does not fail");
        sink.buf
    }

    /// Decode a record, detecting its byte order and verifying the
    /// checksum. Returns the checkpoint and the detected order.
    pub fn decode(record: &[u8]) -> Result<(ModelCheckpoint, ByteOrder), CheckpointError> {
        let mut stream = SliceStream {
            rest: record,
            digest: Fnv1a::new(),
        };
        ModelCheckpoint::read_from(&mut stream).map_err(|e| match e {
            StoreError::Format(e) => e,
            other => unreachable!("an in-memory stream does not fail: {other}"),
        })
    }

    /// Decode a record as it is read: length, checksum and structure are
    /// verified in one traversal and values land directly in the fields
    /// returned. A record whose checksum disagrees is reported as
    /// [`CheckpointError::ChecksumMismatch`] whatever else is wrong with
    /// it past the endian marker — the structure of a corrupt record
    /// means nothing — and never yields a checkpoint.
    pub fn read_from(
        stream: &mut dyn RecordStream,
    ) -> Result<(ModelCheckpoint, ByteOrder), StoreError> {
        let total = stream.remaining();
        if total < 12 {
            return Err(StoreError::Format(CheckpointError::Truncated));
        }
        let head = stream.read(8)?;
        if &head[..4] != MAGIC {
            let magic = head[..4].try_into().unwrap();
            return Err(StoreError::Format(CheckpointError::BadMagic(magic)));
        }
        let order = match u32::from_le_bytes(head[4..].try_into().unwrap()) {
            ENDIAN_MARKER => ByteOrder::Little,
            ENDIAN_MARKER_SWAPPED => ByteOrder::Big,
            other => return Err(StoreError::Format(CheckpointError::BadEndianMarker(other))),
        };
        if total < 20 {
            return Err(StoreError::Format(CheckpointError::Truncated));
        }
        let mut r = Reader {
            stream,
            big: order == ByteOrder::Big,
        };
        let parsed = match r.body(total) {
            Err(io @ StoreError::Io(_)) => return Err(io),
            parsed => parsed,
        };
        // Whatever the structure said, the checksum speaks first: hash
        // the rest of the body and compare with the trailer.
        r.skip_body()?;
        let computed = r.stream.digest();
        let trailer = r.stream.read(8)?.try_into().unwrap();
        let stored = r.u64_of(trailer);
        if stored != computed {
            return Err(StoreError::Format(CheckpointError::ChecksumMismatch {
                stored,
                computed,
            }));
        }
        parsed.map(|ckpt| (ckpt, order))
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
