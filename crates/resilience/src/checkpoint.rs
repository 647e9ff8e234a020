//! The model checkpoint record format.
//!
//! A versioned, checksummed, multi-field model checkpoint: dynamics state
//! (every prognostic field), physics state (load series and the balancer's
//! memory), RNG seeds, and the timestep counter. It records its own byte
//! order and the reader swaps as needed: this is the reproduction's one
//! implementation of the paper's byte-order reversal routine for history
//! data (§4).
//!
//! Layout (header fields in the *writer's* byte order):
//!
//! ```text
//! magic "AGCK"
//! endian marker  u32 = 0x01020304
//! version        u32 = 2  (version 1 is still read)
//! rank           u32      world rank that wrote the shard
//! world          u32      world size of the writing run
//! step           u64      first step NOT yet executed (resume point)
//! n_seeds  u32, seeds   u64 × n_seeds
//! n_scalars u32, scalars f64 × n_scalars
//! n_series u32, series  f64 × n_series
//! n_fields u32, then per field: ni u32 · nj u32 · nk u32 · f64 × ni·nj·nk
//! checksum       u64      the version's hash over every preceding byte:
//!                         XXH64 (seed 0) in version 2, FNV-1a in version 1
//! ```
//!
//! A field's values are its interior, longitude fastest, then latitude,
//! then level; the ghost frame the model state carries is not part of the
//! record, and a decoded field's ghosts are zero.
//!
//! ## The version names the hash
//!
//! The two versions differ in their hash only. Version 1 used FNV-1a,
//! a serial chain — one xor-multiply per byte, ≈ 0.75 GB/s — so one
//! pass over a 5.6 MB paper-grid shard took ≈ 7.5 ms, about fifteen
//! times its `memcpy`, and most of a warm resubmission's time. Version 2
//! uses XXH64, whose four independent lanes take 32 bytes per round:
//! ≈ 0.6 ms per shard. [`RecordDigest`] reads a record's first 12 bytes
//! (magic, endian marker, version) and hashes with what they name —
//! XXH64 for version 2, FNV-1a for version 1 and for bytes that are no
//! record at all — and every sink, stream and store hashes records
//! through it, so version-1 records, checkpoint directories and stores
//! stay readable and verifiable. The encoder writes version 2 only.
//!
//! ## Records are streams
//!
//! A paper-grid shard is 5.6 MB, so every extra pass over a record and
//! every record-sized buffer shows in a job's commit. The record is
//! therefore produced and consumed as a stream, in blocks of a few
//! thousand values:
//!
//! * writing — a [`RecordSource`] (a [`ModelCheckpoint`] encoding itself,
//!   or bytes already encoded) pushes blocks into a [`RecordSink`] (a
//!   `Vec`, a file, the content-addressed store's chunk writer);
//! * reading — [`ModelCheckpoint::read_from`] pulls blocks from a
//!   [`RecordStream`] (a slice, a file, the store's chunk files) and
//!   converts each field row straight into the buffer a [`RowSink`]
//!   names. A decode's sink (`Vec<HaloField>`) names the row's place in
//!   the field it builds; a sink that only summarises the record names
//!   one reusable row and folds it while it is in cache, so the record
//!   is verified exactly as a decode verifies it and no field is built.
//!
//! Both ends *hash what passes through them*, and that is what makes
//! one traversal enough. The trailer checksum is the record's hash over
//! the body, i.e. **the whole-record hash's state eight bytes before
//! the end**: the encoder asks the sink for its digest instead of
//! hashing the body itself, the decoder asks the stream; a store that
//! lets the same hash run on over the trailer has its whole-record
//! digest, and a second one restarted at each chunk boundary
//! ([`RecordDigest::restarted`]) has the chunk addresses, each block
//! hashed while it is still in cache. [`ModelCheckpoint::encode`] and
//! [`ModelCheckpoint::decode`] are this path with a `Vec` and a slice at
//! the far end.

use crate::coordinator::StoreError;
use agcm_grid::halo::HaloField;
use agcm_grid::history::ByteOrder;
use std::fmt;

const MAGIC: &[u8; 4] = b"AGCK";
const ENDIAN_MARKER: u32 = 0x0102_0304;
const ENDIAN_MARKER_SWAPPED: u32 = 0x0403_0201;
/// The format version the encoder writes; the decoder reads it and
/// version 1.
pub const VERSION: u32 = 2;

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
    /// Prognostic fields, in model variable order, with the model state's
    /// one-point ghost frame (not recorded: see the module docs).
    pub fields: Vec<HaloField>,
}

/// Where [`ModelCheckpoint::read_from`] puts a record's field values:
/// each field announces its shape, then its interior rows follow in
/// record order. The rows may yet fail the checksum; only the read's
/// `Ok` vouches for them.
pub trait RowSink {
    /// A field of this shape starts.
    fn field(&mut self, ni: usize, nj: usize, nk: usize);
    /// Where row `(j, k)` of the current field goes: `ni` values.
    fn row(&mut self, j: usize, k: usize) -> &mut [f64];
    /// The row last handed out holds its values.
    fn filled(&mut self) {}
}

/// Decoding: each row lands in the interior of the field built for it,
/// so values are copied once, from the stream.
impl RowSink for Vec<HaloField> {
    fn field(&mut self, ni: usize, nj: usize, nk: usize) {
        self.push(HaloField::zeros(ni, nj, nk, 1));
    }
    fn row(&mut self, j: usize, k: usize) -> &mut [f64] {
        let field = self.last_mut().expect("rows follow their field");
        field.interior_row_mut(j, k)
    }
}

/// FNV-1a over a byte slice: the checksum of [`frame_line`] (the server
/// journal and the `agcm-ckptstore` index), of `AgcmConfig::lineage`,
/// and of version-1 records, which [`RecordDigest`] still verifies.
/// Stored data depends on its exact values.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.value()
}

/// Append `payload` to `out` as one checksummed line,
/// `<fnv1a:016x> <payload>\n`: the framing of the server journal and the
/// `agcm-ckptstore` index. `payload` must not contain a newline.
pub fn frame_line(out: &mut String, payload: &str) {
    use std::fmt::Write as _;
    // 16 hex digits, a space, the payload, a newline.
    out.reserve(payload.len() + 18);
    let _ = writeln!(out, "{:016x} {payload}", fnv1a(payload.as_bytes()));
}

/// The payload of one [`frame_line`] line (newline already stripped), or
/// `None` when the line is torn, malformed or fails its checksum. What a
/// bad line means is the caller's policy.
pub fn unframe_line(line: &str) -> Option<&str> {
    let (sum, payload) = line.split_once(' ')?;
    let stored = u64::from_str_radix(sum, 16).ok()?;
    (stored == fnv1a(payload.as_bytes())).then_some(payload)
}

/// A running [`fnv1a`]: the hash of everything fed to it so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv1a(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// The hash of the empty string.
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes`.
    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The hash of the bytes fed so far.
    fn value(&self) -> u64 {
        self.0
    }
}

/// XXH64 with seed 0 over a byte slice: the hash of version-2 records.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.value()
}

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64 round: fold an 8-byte lane of input into an accumulator.
#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// A running [`xxh64`], after the public XXH64 specification: four
/// accumulators each take one 8-byte lane of every 32-byte stripe, so
/// the four multiply chains run side by side; bytes short of a stripe
/// wait in a carry, and [`value`](Xxh64::value) finishes a copy of the
/// state, so hashing can go on after it.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    acc: [u64; 4],
    /// The first `held` bytes are input not yet a whole stripe.
    carry: [u8; 32],
    held: usize,
    total: u64,
}

impl Xxh64 {
    /// The hash of the empty string.
    pub fn new() -> Xxh64 {
        Xxh64 {
            acc: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
            carry: [0; 32],
            held: 0,
            total: 0,
        }
    }

    /// Fold whole stripes (`bytes.len()` a multiple of 32).
    fn stripes(acc: &mut [u64; 4], bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = *acc;
        for s in bytes.chunks_exact(32) {
            a = xxh_round(a, le64(&s[..8]));
            b = xxh_round(b, le64(&s[8..16]));
            c = xxh_round(c, le64(&s[16..24]));
            d = xxh_round(d, le64(&s[24..]));
        }
        *acc = [a, b, c, d];
    }

    /// Feed `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.held > 0 {
            let take = (32 - self.held).min(bytes.len());
            self.carry[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < 32 {
                return;
            }
            Xxh64::stripes(&mut self.acc, &self.carry);
            self.held = 0;
        }
        let whole = bytes.len() / 32 * 32;
        Xxh64::stripes(&mut self.acc, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    /// The hash of the bytes fed so far.
    pub fn value(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [a, b, c, d] = self.acc;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for v in self.acc {
                h = (h ^ xxh_round(0, v))
                    .wrapping_mul(XXH_P1)
                    .wrapping_add(XXH_P4);
            }
            h
        } else {
            XXH_P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.carry[..self.held];
        while tail.len() >= 8 {
            h = (h ^ xxh_round(0, le64(tail)))
                .rotate_left(27)
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
            h = (h ^ word.wrapping_mul(XXH_P1))
                .rotate_left(23)
                .wrapping_mul(XXH_P2)
                .wrapping_add(XXH_P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h = (h ^ (byte as u64).wrapping_mul(XXH_P5))
                .rotate_left(11)
                .wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64 {
    fn default() -> Xxh64 {
        Xxh64::new()
    }
}

/// How many leading bytes of a record name its hash: magic, endian
/// marker, version.
pub const PREFIX_LEN: usize = 12;

/// The version a record's first twelve bytes declare, read in the byte
/// order they declare; `None` if they are not the start of a record.
pub fn record_version(prefix: &[u8]) -> Option<u32> {
    let prefix: &[u8; PREFIX_LEN] = prefix.get(..PREFIX_LEN)?.try_into().ok()?;
    if &prefix[..4] != MAGIC {
        return None;
    }
    let version = prefix[8..].try_into().unwrap();
    match u32::from_le_bytes(prefix[4..8].try_into().unwrap()) {
        ENDIAN_MARKER => Some(u32::from_le_bytes(version)),
        ENDIAN_MARKER_SWAPPED => Some(u32::from_be_bytes(version)),
        _ => None,
    }
}

/// The hash in use once a record's version is known.
#[derive(Debug, Clone)]
enum Chain {
    /// Fewer than [`PREFIX_LEN`] bytes seen: they wait in the head.
    Undecided,
    Fnv(Fnv1a),
    Xxh(Xxh64),
}

/// The hash a record's own version names, run over its bytes: XXH64 for
/// version 2; FNV-1a for version 1, for any other version (which the
/// decoder refuses after the checksum) and for bytes that are no record.
/// Every [`RecordSink`] and [`RecordStream`] digests through it, so the
/// trailer checksum, a store's whole-record digest and its chunk
/// addresses all use the hash of the record they belong to. Until twelve
/// bytes have been fed it holds them; the value of fewer is their
/// FNV-1a.
#[derive(Debug, Clone)]
pub struct RecordDigest {
    head: [u8; PREFIX_LEN],
    head_len: usize,
    chain: Chain,
}

impl RecordDigest {
    /// The digest of no bytes.
    pub fn new() -> RecordDigest {
        RecordDigest {
            head: [0; PREFIX_LEN],
            head_len: 0,
            chain: Chain::Undecided,
        }
    }

    /// A digest of no bytes that hashes with this one's hash, whatever
    /// the bytes fed to it: how a store addresses a record's chunks. If
    /// this digest has not decided yet, it is [`RecordDigest::new`].
    pub fn restarted(&self) -> RecordDigest {
        RecordDigest {
            chain: match self.chain {
                Chain::Undecided => Chain::Undecided,
                Chain::Fnv(_) => Chain::Fnv(Fnv1a::new()),
                Chain::Xxh(_) => Chain::Xxh(Xxh64::new()),
            },
            ..RecordDigest::new()
        }
    }

    /// The version the record's prefix declared; `None` before twelve
    /// bytes or for bytes that are no record.
    pub fn version(&self) -> Option<u32> {
        record_version(&self.head[..self.head_len])
    }

    /// Feed the record's next bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if let Chain::Undecided = self.chain {
            let take = (PREFIX_LEN - self.head_len).min(bytes.len());
            self.head[self.head_len..self.head_len + take].copy_from_slice(&bytes[..take]);
            self.head_len += take;
            bytes = &bytes[take..];
            if self.head_len < PREFIX_LEN {
                return;
            }
            self.chain = match self.version() {
                Some(2) => Chain::Xxh(Xxh64::new()),
                _ => Chain::Fnv(Fnv1a::new()),
            };
            let head = self.head;
            self.feed(&head);
        }
        self.feed(bytes);
    }

    fn feed(&mut self, bytes: &[u8]) {
        match &mut self.chain {
            Chain::Undecided => unreachable!("the prefix decides before bytes are fed"),
            Chain::Fnv(h) => h.update(bytes),
            Chain::Xxh(h) => h.update(bytes),
        }
    }

    /// The digest of the bytes fed so far.
    pub fn value(&self) -> u64 {
        match &self.chain {
            Chain::Undecided => fnv1a(&self.head[..self.head_len]),
            Chain::Fnv(h) => h.value(),
            Chain::Xxh(h) => h.value(),
        }
    }
}

impl Default for RecordDigest {
    fn default() -> RecordDigest {
        RecordDigest::new()
    }
}

/// [`RecordDigest`] of a whole record.
pub fn record_digest(record: &[u8]) -> u64 {
    let mut h = RecordDigest::new();
    h.update(record);
    h.value()
}

/// Where an encoded record goes, block by block. A sink hashes what
/// passes through it, which is what lets a record be written in one
/// traversal: the trailer checksum of a record *is* the
/// [`RecordDigest`] of the whole record eight bytes before its end, so
/// the encoder asks the sink for [`digest`](RecordSink::digest) instead
/// of hashing the body itself, and a store that continues the same
/// digest over the trailer has its whole-record digest for free.
pub trait RecordSink {
    /// Accept the next bytes of the record.
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError>;
    /// [`RecordDigest`] of every byte written so far.
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
    /// [`RecordDigest`] of every byte delivered so far.
    fn digest(&self) -> u64;
}

/// An in-memory record as a stream.
struct SliceStream<'a> {
    rest: &'a [u8],
    digest: RecordDigest,
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
    digest: RecordDigest,
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
    /// A run of 64-bit values, appended to the staging block and flushed
    /// as it fills, so many short runs (a field's rows) still reach the
    /// sink in whole blocks. In the machine's own byte order the
    /// conversion loop is a block copy; in the other it is a vectorised
    /// byte swap.
    fn words<T: Copy>(&mut self, vals: &[T], bits: impl Fn(T) -> u64) -> Result<(), StoreError> {
        let mut rest = vals;
        while !rest.is_empty() {
            if BLOCK - self.staged < 8 {
                self.flush()?;
            }
            let room = (BLOCK - self.staged) / 8;
            let (run, tail) = rest.split_at(room.min(rest.len()));
            let end = self.staged + run.len() * 8;
            let slots = self.block[self.staged..end].chunks_exact_mut(8).zip(run);
            if self.big {
                slots.for_each(|(slot, &v)| slot.copy_from_slice(&bits(v).to_be_bytes()));
            } else {
                slots.for_each(|(slot, &v)| slot.copy_from_slice(&bits(v).to_le_bytes()));
            }
            self.staged = end;
            rest = tail;
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
    /// Everything between the endian marker and the trailer, field rows
    /// into `rows`.
    fn body(&mut self, total: u64, rows: &mut dyn RowSink) -> Result<ModelCheckpoint, StoreError> {
        let version = self.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(StoreError::Format(CheckpointError::BadVersion(version)));
        }
        let rank = self.u32()?;
        let world = self.u32()?;
        let step = self.u64()?;
        let seeds = self.counted(0u64, |bits| bits)?;
        let scalars = self.counted(0.0, f64::from_bits)?;
        let series = self.counted(0.0, f64::from_bits)?;
        let n_fields = self.u32()? as usize;
        for _ in 0..n_fields {
            let ni = self.u32()? as usize;
            let nj = self.u32()? as usize;
            let nk = self.u32()? as usize;
            let len = ni
                .checked_mul(nj)
                .and_then(|x| x.checked_mul(nk))
                .ok_or(StoreError::Format(CheckpointError::Truncated))?;
            self.need(len as u64)?;
            rows.field(ni, nj, nk);
            for k in 0..if len == 0 { 0 } else { nk } {
                for j in 0..nj {
                    self.words(rows.row(j, k), f64::from_bits)?;
                    rows.filled();
                }
            }
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
            fields: Vec::new(),
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
            for row in f.interior_rows() {
                w.f64s(row)?;
            }
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
        let payload: usize = self.fields.iter().map(|f| f.interior_len() * 8 + 12).sum();
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
            digest: RecordDigest::new(),
        };
        let mut fields = Vec::new();
        match ModelCheckpoint::read_from(&mut stream, &mut fields) {
            Ok((ckpt, order)) => Ok((ModelCheckpoint { fields, ..ckpt }, order)),
            Err(StoreError::Format(e)) => Err(e),
            Err(other) => unreachable!("an in-memory stream does not fail: {other}"),
        }
    }

    /// Read a record as it is streamed: length, checksum and structure
    /// are verified in one traversal and each field row is converted
    /// straight into the buffer `rows` names for it; the checkpoint
    /// returned holds everything else. A record whose checksum disagrees
    /// is reported as [`CheckpointError::ChecksumMismatch`] whatever else
    /// is wrong with it past the endian marker — the structure of a
    /// corrupt record means nothing — and never yields a checkpoint.
    pub fn read_from(
        stream: &mut dyn RecordStream,
        rows: &mut dyn RowSink,
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
        let parsed = match r.body(total, rows) {
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
                HaloField::from_fn(4, 3, 2, 1, |i, j, k| (i * 100 + j * 10 + k) as f64),
                HaloField::from_fn(2, 2, 1, 1, |i, j, _| -((i + j) as f64)),
            ],
        }
    }

    #[test]
    fn checksum_known_answers() {
        // Indexes, journals and checkpoints on disk were written with
        // these values; a different hash would orphan all of them.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // XXH64, seed 0, from its specification's test vectors.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
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
        let sum = record_digest(&rec[..rec.len() - 8]);
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
        let sum = record_digest(&rec[..rec.len() - 8]);
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
