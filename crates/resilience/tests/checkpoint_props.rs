//! Property tests for the checkpoint wire format: randomized
//! round-trips across both byte orders, truncation at every prefix
//! length, checksum-detected corruption, and the record hashes fed in
//! arbitrary pieces. No external proptest crate — a seeded LCG drives
//! the generation, so failures reproduce.

use agcm_grid::halo::HaloField;
use agcm_grid::history::ByteOrder;
use agcm_resilience::checkpoint::{
    fnv1a, record_digest, xxh64, CheckpointError, ModelCheckpoint, RecordDigest, Xxh64,
};

/// Deterministic 64-bit LCG (Knuth's constants).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        // Finite, sign-varied, wide dynamic range; exact bit patterns
        // must survive the trip.
        let mantissa = self.next() as i64 as f64;
        mantissa * 2f64.powi((self.below(60) as i32) - 30)
    }
}

fn random_checkpoint(rng: &mut Rng) -> ModelCheckpoint {
    let n_seeds = rng.below(4) as usize;
    let n_scalars = rng.below(4) as usize;
    let n_series = rng.below(16) as usize;
    let n_fields = rng.below(4) as usize;
    ModelCheckpoint {
        rank: rng.below(64) as u32,
        world: 64,
        step: rng.below(1 << 20),
        seeds: (0..n_seeds).map(|_| rng.next()).collect(),
        scalars: (0..n_scalars).map(|_| rng.f64()).collect(),
        series: (0..n_series).map(|_| rng.f64()).collect(),
        fields: (0..n_fields)
            .map(|_| {
                let (ni, nj, nk) = (
                    rng.below(5) as usize + 1,
                    rng.below(4) as usize + 1,
                    rng.below(3) as usize + 1,
                );
                HaloField::from_fn(ni, nj, nk, 1, |_, _, _| rng.f64())
            })
            .collect(),
    }
}

#[test]
fn random_checkpoints_roundtrip_in_both_byte_orders() {
    let mut rng = Rng(0xA5A5_0001);
    for case in 0..200 {
        let ckpt = random_checkpoint(&mut rng);
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let rec = ckpt.encode(order);
            let (back, detected) =
                ModelCheckpoint::decode(&rec).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(detected, order, "case {case}");
            assert_eq!(back, ckpt, "case {case}: lossless round-trip");
        }
        // The two encodings describe the same state but must not be
        // byte-identical (the endian marker alone differs) unless the
        // record is all byte-order-invariant content — never true here
        // because the header holds multi-byte fields.
        assert_ne!(ckpt.encode(ByteOrder::Little), ckpt.encode(ByteOrder::Big));
    }
}

#[test]
fn every_truncation_is_rejected() {
    let mut rng = Rng(0xA5A5_0002);
    for _ in 0..20 {
        let ckpt = random_checkpoint(&mut rng);
        let order = if rng.below(2) == 0 {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        };
        let rec = ckpt.encode(order);
        // Every strict prefix must fail — and fail as a typed error,
        // never a panic or a silently-short checkpoint.
        for cut in 0..rec.len() {
            let err =
                ModelCheckpoint::decode(&rec[..cut]).expect_err("truncated record must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::ChecksumMismatch { .. }
                        | CheckpointError::LengthMismatch { .. }
                        | CheckpointError::BadEndianMarker(_)
                        | CheckpointError::BadMagic(_)
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }
}

#[test]
fn flipped_checksum_trailer_is_always_caught() {
    let mut rng = Rng(0xA5A5_0003);
    for _ in 0..50 {
        let ckpt = random_checkpoint(&mut rng);
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let mut rec = ckpt.encode(order);
            let n = rec.len();
            // Flip one random bit inside the 8-byte trailer.
            let byte = n - 8 + rng.below(8) as usize;
            rec[byte] ^= 1 << rng.below(8);
            assert!(matches!(
                ModelCheckpoint::decode(&rec),
                Err(CheckpointError::ChecksumMismatch { .. })
            ));
        }
    }
}

#[test]
fn flipped_payload_bit_is_always_caught() {
    let mut rng = Rng(0xA5A5_0004);
    for _ in 0..50 {
        let ckpt = random_checkpoint(&mut rng);
        let rec = ckpt.encode(ByteOrder::Little);
        // Flip one random bit anywhere after the magic/marker (those
        // fail with their own typed errors, covered elsewhere).
        let byte = 8 + rng.below((rec.len() - 16) as u64) as usize;
        let mut bad = rec.clone();
        bad[byte] ^= 1 << rng.below(8);
        let err = ModelCheckpoint::decode(&bad).expect_err("corruption must not decode");
        assert!(
            matches!(
                err,
                CheckpointError::ChecksumMismatch { .. } | CheckpointError::BadVersion(_)
            ),
            "byte {byte}: unexpected {err:?}"
        );
    }
}

#[test]
fn xxh64_matches_a_direct_transcription_of_its_specification() {
    // Lengths that end in every tail the finish handles: whole stripes,
    // 8-byte words, a 4-byte word and single bytes.
    let pattern = |n: usize| (0..n).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>();
    assert_eq!(xxh64(&pattern(45)), 0x86fa_ee00_897c_4b41);
    assert_eq!(xxh64(&pattern(100)), 0xa61f_8d4c_170f_e531);
    assert_eq!(xxh64(&pattern(1000)), 0x5f23_5fa0_33f1_a3fb);
}

#[test]
fn streamed_hashes_equal_one_shot_over_random_splits() {
    let mut rng = Rng(0xA5A5_0005);
    for case in 0..300 {
        // Raw bytes of every small length, and records of both versions
        // (a record's digest is its own version's hash).
        let bytes: Vec<u8> = match case % 3 {
            0 => {
                let raw: Vec<u8> = (0..rng.below(300)).map(|_| rng.next() as u8).collect();
                // Bytes that are no record, short ones included, hash as
                // version 1 did.
                assert_eq!(record_digest(&raw), fnv1a(&raw), "case {case}");
                raw
            }
            _ => {
                let ckpt = random_checkpoint(&mut rng);
                let mut rec = ckpt.encode(ByteOrder::Little);
                if case % 3 == 2 {
                    // The same record as version 1 wrote it.
                    let n = rec.len();
                    rec[8..12].copy_from_slice(&1u32.to_le_bytes());
                    let sum = fnv1a(&rec[..n - 8]);
                    rec[n - 8..].copy_from_slice(&sum.to_le_bytes());
                    assert_eq!(record_digest(&rec), fnv1a(&rec), "case {case}");
                } else {
                    assert_eq!(record_digest(&rec), xxh64(&rec), "case {case}");
                }
                rec
            }
        };
        let mut xxh = Xxh64::new();
        let mut digest = RecordDigest::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            // Pieces from 0 bytes to past a stripe, and the occasional
            // long run.
            let n = match rng.below(8) {
                0 => rng.below(4096),
                _ => rng.below(40),
            } as usize;
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            xxh.update(piece);
            digest.update(piece);
            // Taking a value never disturbs the running state.
            let _ = (xxh.value(), digest.value());
            rest = tail;
        }
        assert_eq!(xxh.value(), xxh64(&bytes), "case {case}");
        assert_eq!(digest.value(), record_digest(&bytes), "case {case}");
    }
}
