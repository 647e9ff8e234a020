//! The streamed checkpoint path against what it replaced: the record
//! format re-derived value by value, the exact files earlier
//! implementations left on disk, and the failure and corruption cases
//! at block and chunk boundaries, for both record versions.
//!
//! Two fixture sets pin the format. `tests/fixtures/pr15/` was written by
//! the commit before the data path became a stream: version-1 records
//! (FNV-1a trailers, digests and chunk addresses), which must keep
//! reading, verifying and taking new shards. `tests/fixtures/v2/` was
//! written by the commit that introduced version 2 (XXH64), with the same
//! histories: what every writer since must reproduce byte for byte.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agcm_ckptstore::store::DEFAULT_CHUNK_SIZE;
use agcm_ckptstore::{JobStoreBackend, Store};
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::history::ByteOrder;
use ucla_agcm_repro::resilience::checkpoint::{
    record_digest, record_version, xxh64, RecordSink, RecordSource, VERSION,
};
use ucla_agcm_repro::resilience::{
    fnv1a, CheckpointError, CheckpointStore, ModelCheckpoint, StoreError,
};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("agcm-ckpt-stream-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr15")
}

fn v2_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2")
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn value(&mut self) -> f64 {
        // Arbitrary bit patterns, NaNs and signed zeros included: the
        // format stores bits, not numbers.
        f64::from_bits(self.next() << 11 | self.next() & 0x7ff)
    }
}

/// Non-repeating bytes (a periodic pattern would dedupe chunks within
/// one record).
fn bytes(salt: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng(salt ^ 0x9E37_79B9);
    (0..len).map(|_| rng.next() as u8).collect()
}

/// A small deterministic checkpoint: the one the fixtures hold.
fn sample(step: u64, rank: u32, world: u32, salt: u64) -> ModelCheckpoint {
    let mut rng = Rng(salt);
    let mut field =
        |ni, nj, nk| HaloField::from_fn(ni, nj, nk, 1, |_, _, _| rng.next() as f64 / 1e3);
    ModelCheckpoint {
        rank,
        world,
        step,
        seeds: vec![salt, 0xDEAD_BEEF],
        scalars: vec![1.0, -0.5],
        series: (0..step).map(|s| s as f64 * 0.25).collect(),
        fields: vec![field(5, 4, 3), field(7, 3, 2), field(16, 9, 2)],
    }
}

/// The record layout of `version` written out value by value from the
/// format description: the oracle for the block encoder (version 2),
/// and records as version 1 wrote them.
fn oracle_encode(c: &ModelCheckpoint, order: ByteOrder, version: u32) -> Vec<u8> {
    let big = order == ByteOrder::Big;
    let mut out = Vec::new();
    let u32_ = |out: &mut Vec<u8>, v: u32| {
        out.extend_from_slice(&if big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    let u64_ = |out: &mut Vec<u8>, v: u64| {
        out.extend_from_slice(&if big {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    out.extend_from_slice(b"AGCK");
    u32_(&mut out, 0x0102_0304);
    u32_(&mut out, version);
    u32_(&mut out, c.rank);
    u32_(&mut out, c.world);
    u64_(&mut out, c.step);
    u32_(&mut out, c.seeds.len() as u32);
    c.seeds.iter().for_each(|s| u64_(&mut out, *s));
    u32_(&mut out, c.scalars.len() as u32);
    c.scalars.iter().for_each(|v| u64_(&mut out, v.to_bits()));
    u32_(&mut out, c.series.len() as u32);
    c.series.iter().for_each(|v| u64_(&mut out, v.to_bits()));
    u32_(&mut out, c.fields.len() as u32);
    for f in &c.fields {
        let (ni, nj, nk) = f.shape();
        u32_(&mut out, ni as u32);
        u32_(&mut out, nj as u32);
        u32_(&mut out, nk as u32);
        f.interior_rows()
            .flatten()
            .for_each(|v| u64_(&mut out, v.to_bits()));
    }
    let sum = match version {
        1 => fnv1a(&out),
        _ => xxh64(&out),
    };
    u64_(&mut out, sum);
    out
}

/// Collects a streamed record, checking the sink contract on the way.
#[derive(Default)]
struct Collect {
    buf: Vec<u8>,
    largest_block: usize,
}

impl RecordSink for Collect {
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError> {
        self.largest_block = self.largest_block.max(block.len());
        self.buf.extend_from_slice(block);
        Ok(())
    }
    fn digest(&self) -> u64 {
        record_digest(&self.buf)
    }
}

#[test]
fn streamed_encode_matches_the_per_value_oracle() {
    let mut rng = Rng(0x5EED_0017);
    // Field sizes around the encoder's staging block (4096 values) and
    // the store's 64 KiB read block (8192 values), and tiny ones — one
    // row each, or many rows whose run crosses a block mid-row.
    let shapes = [
        (0usize, 1usize, 1usize),
        (1, 1, 1),
        (7, 1, 1),
        (4095, 1, 1),
        (4096, 1, 1),
        (4097, 1, 1),
        (8191, 1, 1),
        (8193, 1, 1),
        (12_289, 1, 1),
        (37, 13, 9),
        (5, 0, 3),
    ];
    for case in 0..12 {
        let n_fields = 1 + rng.below(3) as usize;
        let fields = (0..n_fields)
            .map(|_| {
                let (ni, nj, nk) = shapes[rng.below(shapes.len() as u64) as usize];
                HaloField::from_fn(ni, nj, nk, 1, |_, _, _| rng.value())
            })
            .collect();
        let series_len = [0, 3, 5000][case % 3];
        let ckpt = ModelCheckpoint {
            rank: rng.below(8) as u32,
            world: 8,
            step: rng.next(),
            seeds: (0..rng.below(4)).map(|_| rng.next()).collect(),
            scalars: (0..rng.below(3)).map(|_| rng.value()).collect(),
            series: (0..series_len).map(|_| rng.value()).collect(),
            fields,
        };
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let expected = oracle_encode(&ckpt, order, VERSION);
            assert_eq!(ckpt.encode(order), expected, "case {case} {order:?}");
            let mut sink = Collect::default();
            ckpt.record(order).write_to(&mut sink).unwrap();
            assert_eq!(sink.buf, expected, "case {case} {order:?} streamed");
            assert!(
                sink.largest_block <= 64 * 1024,
                "a {}-byte block exceeds the store's read block",
                sink.largest_block
            );
            // Bit patterns, not values: NaN payloads must survive.
            let (back, detected) = ModelCheckpoint::decode(&expected).unwrap();
            assert_eq!(detected, order);
            assert_eq!(back.encode(order), expected, "case {case} roundtrip");
            // The same state as version 1 wrote it reads back alike.
            let v1 = oracle_encode(&ckpt, order, 1);
            let (back, detected) = ModelCheckpoint::decode(&v1).unwrap();
            assert_eq!(detected, order);
            assert_eq!(back.encode(order), expected, "case {case} from version 1");
        }
    }
}

/// A fixed history on a 512-byte-chunk store: raw shards, a twin
/// lineage sharing every chunk, an identical re-put, a record repeating
/// one chunk, a checkpoint through the job backend, then a GC that
/// reclaims the unleased lineages. What is left is `fixtures/store`.
fn store_history(root: &Path) -> Arc<Store> {
    let store = Arc::new(Store::open_with_chunk_size(root, 512).unwrap());
    let a = bytes(1, 1800);
    store.put_shard(0xA, 1, 0, 2, &a).unwrap();
    store.put_shard(0xA, 1, 1, 2, &bytes(2, 1300)).unwrap();
    store.commit(0xA, 1, 2).unwrap();
    store.put_shard(0xB, 1, 0, 1, &a).unwrap();
    store.commit(0xB, 1, 1).unwrap();
    store.put_shard(0xA, 1, 0, 2, &a).unwrap();
    let mut repeating = bytes(3, 512).repeat(3);
    repeating.extend_from_slice(&bytes(4, 100));
    store.put_shard(0xD, 2, 0, 1, &repeating).unwrap();
    let job = CheckpointStore::new(root.join("unused"))
        .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xC)));
    job.write_shard(&sample(10, 0, 1, 7)).unwrap();
    job.commit(10, 1).unwrap();
    store.acquire(0xA, 1);
    store.acquire(0xC, 2);
    let report = store.gc().unwrap();
    assert_eq!(report.lineages, vec![0xB, 0xD]);
    store
}

type Listing = Vec<(String, Vec<u8>)>;

/// Sorted `(name, content)` of every file under `dir`, recursively.
fn listing(dir: &Path) -> Listing {
    fn walk(base: &Path, dir: &Path, out: &mut Listing) {
        for e in fs::read_dir(dir).unwrap().flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(base, &path, out);
            } else {
                let name = path.strip_prefix(base).unwrap().to_string_lossy();
                out.push((name.into_owned(), fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// One hash over a listing: names and contents, in order.
fn listing_hash(files: &[(String, Vec<u8>)]) -> u64 {
    let mut all = Vec::new();
    for (name, content) in files {
        all.extend_from_slice(name.as_bytes());
        all.push(b'\n');
        all.extend_from_slice(content);
    }
    fnv1a(&all)
}

fn copy_tree(from: &Path, to: &Path) {
    for (name, content) in listing(from) {
        let path = to.join(name);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }
}

// Computed by running `store_history` / the directory writes below at
// the commit that introduced record version 2, which also wrote
// `tests/fixtures/v2/`.
const GOLDEN_INDEX: u64 = 0xb61a_5fda_42a5_fa6d;
const GOLDEN_CHUNKS: u64 = 0x6938_53b0_6940_f59b;
const GOLDEN_DIR: u64 = 0x317e_8351_74dd_ee33;

/// The index lines of a store, but the checkpoint's manifest.
fn raw_index_lines(index: &Path) -> Vec<String> {
    fs::read_to_string(index)
        .unwrap()
        .lines()
        .filter(|l| !l.contains(" manifest 000000000000000c "))
        .map(String::from)
        .collect()
}

#[test]
fn store_layout_is_byte_identical_to_the_v2_fixtures() {
    let root = scratch("golden-store");
    let store = store_history(&root);
    let index = fs::read(root.join("index")).unwrap();
    let chunks = listing(&root.join("chunks"));
    assert_eq!(fnv1a(&index), GOLDEN_INDEX, "index bytes changed");
    assert_eq!(listing_hash(&chunks), GOLDEN_CHUNKS, "chunk files changed");
    // And file for file against the fixture.
    assert_eq!(
        index,
        fs::read(v2_fixtures().join("store/index")).unwrap(),
        "index differs from the fixture"
    );
    assert_eq!(chunks, listing(&v2_fixtures().join("store/chunks")));
    // Only the checkpoint's manifest differs from what version 1 wrote:
    // raw shards are no records, and hash as they always did.
    assert_eq!(
        raw_index_lines(&root.join("index")),
        raw_index_lines(&fixtures().join("store/index"))
    );
    assert!(store.stats().puts >= 6);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn directory_layout_is_byte_identical_to_the_v2_fixtures() {
    let root = scratch("golden-dir");
    let store = CheckpointStore::new(&root);
    for rank in 0..2 {
        store
            .write_shard(&sample(5, rank, 2, 40 + rank as u64))
            .unwrap();
    }
    store.commit(5, 2).unwrap();
    let files = listing(&root);
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "step_00000005/COMMIT",
            "step_00000005/rank_0000.agck",
            "step_00000005/rank_0001.agck"
        ]
    );
    assert_eq!(listing_hash(&files), GOLDEN_DIR);
    assert_eq!(files, listing(&v2_fixtures().join("ckpt_dir")));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn parent_written_store_directory_and_shard_read_back() {
    // The store root: reopened (reconcile + index rewrite) on a copy.
    let root = scratch("fixture-store");
    copy_tree(&fixtures().join("store"), &root);
    let store = Arc::new(Store::open_with_chunk_size(&root, 512).unwrap());
    assert_eq!(store.stats().orphans_swept, 0);
    assert_eq!(store.get_shard(0xA, 1, 0).unwrap(), bytes(1, 1800));
    assert_eq!(store.get_shard(0xA, 1, 1).unwrap(), bytes(2, 1300));
    assert_eq!(store.committed_steps(0xA), vec![1]);
    let job = CheckpointStore::new(root.join("unused"))
        .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xC)));
    assert_eq!(job.latest_committed(10), Some(10));
    assert_eq!(job.load_shard(10, 0).unwrap(), sample(10, 0, 1, 7));
    assert_eq!(
        fs::read(root.join("index")).unwrap(),
        fs::read(fixtures().join("store/index")).unwrap(),
        "reopening rewrites the same index"
    );

    // The checkpoint directory, read in place.
    let dir = CheckpointStore::new(fixtures().join("ckpt_dir"));
    assert_eq!(dir.committed_steps(), vec![5]);
    for rank in 0..2 {
        let expected = sample(5, rank, 2, 40 + rank as u64);
        assert_eq!(dir.load_shard(5, rank).unwrap(), expected);
    }

    // A lone big-endian shard file.
    let shard = fs::read(fixtures().join("shard_big_endian.agck")).unwrap();
    let (ckpt, order) = ModelCheckpoint::decode(&shard).unwrap();
    assert_eq!((ckpt, order), (sample(3, 1, 4, 99), ByteOrder::Big));
    // Encoded again it is a version-2 record: the same bytes but the
    // version field and the trailer.
    let again = sample(3, 1, 4, 99).encode(ByteOrder::Big);
    let n = shard.len();
    assert_eq!(again.len(), n);
    assert_eq!(
        (&again[..8], &again[12..n - 8]),
        (&shard[..8], &shard[12..n - 8])
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_parent_written_store_resumes_and_takes_version_2_shards() {
    let root = scratch("fixture-extend");
    copy_tree(&fixtures().join("store"), &root);
    let job = |store: &Arc<Store>| {
        CheckpointStore::new(root.join("unused"))
            .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xC)))
    };
    let store = Arc::new(Store::open_with_chunk_size(&root, 512).unwrap());
    // Resume from the version-1 step, then commit a version-2 one.
    assert_eq!(job(&store).latest_committed(30), Some(10));
    assert_eq!(job(&store).load_shard(10, 0).unwrap(), sample(10, 0, 1, 7));
    let later = sample(20, 0, 1, 8);
    job(&store).write_shard(&later).unwrap();
    job(&store).commit(20, 1).unwrap();
    assert_eq!(
        record_version(&store.get_shard(0xC, 20, 0).unwrap()),
        Some(2)
    );

    // The occupied version-1 slot offered the version-2 encoding of the
    // state it holds: same length, other hash, so other digest — a
    // dedup hit, not a conflict, and the stored record stays.
    let stored = store.get_shard(0xC, 10, 0).unwrap();
    let hits = store.stats().shard_dedup_hits;
    job(&store).write_shard(&sample(10, 0, 1, 7)).unwrap();
    assert_eq!(store.stats().shard_dedup_hits, hits + 1);
    assert_eq!(store.get_shard(0xC, 10, 0).unwrap(), stored);
    // A record of another length is still a conflict there, and another
    // version-2 record in the version-2 slot too.
    let mut longer = sample(10, 0, 1, 7);
    longer.series.push(2.5);
    assert!(matches!(
        job(&store).write_shard(&longer),
        Err(StoreError::Io(_))
    ));
    assert!(matches!(
        job(&store).write_shard(&sample(20, 0, 1, 9)),
        Err(StoreError::Io(_))
    ));

    // Reopened, both versions read back and nothing is swept.
    drop(store);
    let store = Arc::new(Store::open_with_chunk_size(&root, 512).unwrap());
    assert_eq!(store.stats().orphans_swept, 0);
    assert_eq!(job(&store).committed_steps(), vec![10, 20]);
    assert_eq!(job(&store).load_shard(10, 0).unwrap(), sample(10, 0, 1, 7));
    assert_eq!(job(&store).load_shard(20, 0).unwrap(), later);
    assert_eq!(store.get_shard(0xA, 1, 0).unwrap(), bytes(1, 1800));
    let _ = fs::remove_dir_all(&root);
}

/// A record whose production fails after `good` bytes.
struct FailsAfter<'a> {
    record: &'a [u8],
    good: usize,
}

impl RecordSource for FailsAfter<'_> {
    fn write_to(&self, sink: &mut dyn RecordSink) -> Result<(), StoreError> {
        for block in self.record[..self.good].chunks(300) {
            sink.write(block)?;
        }
        Err(StoreError::Io("injected: source failed".to_string()))
    }
}

/// The file name of a chunk of raw (non-record) bytes.
fn chunk_name(chunk: &[u8]) -> String {
    format!("{:016x}-{}.chk", fnv1a(chunk), chunk.len())
}

/// The chunk files of `record` in a 512-byte-chunk store rooted at
/// `root`, named by the hash the record's version names.
fn record_chunk_files(root: &Path, record: &[u8]) -> Vec<PathBuf> {
    let hash = match record_version(record) {
        Some(2) => xxh64,
        _ => fnv1a,
    };
    record
        .chunks(512)
        .map(|c| {
            let name = format!("{:016x}-{}.chk", hash(c), c.len());
            root.join("chunks").join(name)
        })
        .collect()
}

/// Seeds a store with one committed shard and returns it with the
/// snapshot (index bytes, chunk listing) a failed put must leave.
fn seeded(tag: &str) -> (PathBuf, Store, Vec<u8>, Listing) {
    let root = scratch(tag);
    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    store.put_shard(0x1, 1, 0, 1, &bytes(10, 1536)).unwrap();
    store.commit(0x1, 1, 1).unwrap();
    let index = fs::read(root.join("index")).unwrap();
    let chunks = listing(&root.join("chunks"));
    assert_eq!(chunks.len(), 3);
    (root, store, index, chunks)
}

#[test]
fn a_put_failing_mid_batch_leaves_the_store_as_it_was() {
    let (root, store, index, chunks) = seeded("fail-write");
    // The offered record shares its first chunk with the committed
    // shard, then diverges; its source dies inside the fourth chunk, two
    // 300-byte blocks into it, so two sealed temporary files and a
    // half-written one exist when the put learns it has failed.
    let mut record = bytes(10, 512);
    record.extend_from_slice(&bytes(11, 2000));
    let err = store
        .put_shard_from(
            0x2,
            1,
            0,
            1,
            &FailsAfter {
                record: &record,
                good: 1950,
            },
        )
        .unwrap_err();
    assert_eq!(err, StoreError::Io("injected: source failed".to_string()));
    assert_eq!(
        fs::read(root.join("index")).unwrap(),
        index,
        "index touched"
    );
    let left = listing(&root.join("chunks"));
    assert!(
        left.iter().all(|(name, _)| name.ends_with(".chk")),
        "temporary files left behind"
    );
    assert_eq!(left, chunks, "chunk files differ");
    assert!(store.get_shard(0x2, 1, 0).is_err(), "no manifest");
    assert_eq!(store.get_shard(0x1, 1, 0).unwrap(), bytes(10, 1536));
    assert_eq!(store.stats().manifests, 1);
    assert_eq!(store.stats().chunks, 3, "reservations were returned");

    // The same record, whole, goes in afterwards.
    store.put_shard(0x2, 1, 0, 1, &record).unwrap();
    assert_eq!(store.get_shard(0x2, 1, 0).unwrap(), record);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_put_failing_at_a_rename_takes_back_the_chunks_already_named() {
    let (root, store, index, chunks) = seeded("fail-rename");
    let mut record = bytes(10, 512);
    record.extend_from_slice(&bytes(12, 2000));
    // A directory squatting on the name of the record's fourth chunk:
    // its rename fails after the second and third have succeeded.
    let squatter = root.join("chunks").join(chunk_name(&record[1536..2048]));
    fs::create_dir(&squatter).unwrap();
    fs::write(squatter.join("occupied"), b"x").unwrap();
    let err = store.put_shard(0x2, 1, 0, 1, &record).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    fs::remove_dir_all(&squatter).unwrap();
    assert_eq!(
        fs::read(root.join("index")).unwrap(),
        index,
        "index touched"
    );
    assert_eq!(listing(&root.join("chunks")), chunks, "chunk files differ");
    assert!(store.get_shard(0x2, 1, 0).is_err(), "no manifest");
    assert_eq!(store.get_shard(0x1, 1, 0).unwrap(), bytes(10, 1536));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_leftover_of_the_wrong_length_under_a_chunk_name_is_rewritten() {
    let root = scratch("leftover");
    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    let record = bytes(20, 1200);
    // Unreferenced files already sitting under two of the chunk names:
    // one short, one of the right length with the wrong content.
    let chunks_dir = root.join("chunks");
    fs::write(chunks_dir.join(chunk_name(&record[..512])), [7u8; 100]).unwrap();
    fs::write(chunks_dir.join(chunk_name(&record[512..1024])), [7u8; 512]).unwrap();
    store.put_shard(0x3, 1, 0, 1, &record).unwrap();
    assert_eq!(store.get_shard(0x3, 1, 0).unwrap(), record);
    let _ = fs::remove_dir_all(&root);
}

/// A 512-byte-chunk store holding `sample(10, 0, 1, 7)` as lineage 0xC
/// step 10, committed, in seven chunks: as version 2 writes it today
/// (`parent` false), or the version-1 record of the parent-written
/// fixture store (`parent` true).
fn chunked_checkpoint(
    tag: &str,
    parent: bool,
) -> (PathBuf, Arc<Store>, CheckpointStore, Vec<PathBuf>) {
    let root = scratch(tag);
    if parent {
        copy_tree(&fixtures().join("store"), &root);
    }
    let store = Arc::new(Store::open_with_chunk_size(&root, 512).unwrap());
    let job = CheckpointStore::new(root.join("unused"))
        .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xC)));
    let ckpt = sample(10, 0, 1, 7);
    if !parent {
        job.write_shard(&ckpt).unwrap();
        job.commit(10, 1).unwrap();
    }
    let record = store.get_shard(0xC, 10, 0).unwrap();
    assert_eq!(record_version(&record), Some(if parent { 1 } else { 2 }));
    assert_eq!(record.len().div_ceil(512), 7);
    let files = record_chunk_files(&root, &record);
    assert!(files.iter().all(|f| f.exists()));
    (root, store, job, files)
}

#[test]
fn a_flipped_byte_in_any_chunk_fails_the_digest() {
    for parent in [false, true] {
        for (which, offset) in [
            (0usize, 20usize),
            (0, 511),
            (3, 0),
            (3, 300),
            (6, 0),
            (6, 100),
        ] {
            let (root, store, job, files) = chunked_checkpoint("flip", parent);
            let mut chunk = fs::read(&files[which]).unwrap();
            chunk[offset] ^= 0x40;
            fs::write(&files[which], chunk).unwrap();
            for err in [
                store.get_shard(0xC, 10, 0).unwrap_err(),
                job.load_shard(10, 0).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        StoreError::Format(CheckpointError::ChecksumMismatch { .. })
                    ),
                    "parent {parent} chunk {which} byte {offset}: {err}"
                );
            }
            let _ = fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn a_chunk_file_of_the_wrong_length_is_an_io_error() {
    for parent in [false, true] {
        for (which, delta) in [(0usize, -1i64), (3, -1), (3, 1), (6, -1), (6, 8)] {
            let (root, store, job, files) = chunked_checkpoint("resize", parent);
            let mut chunk = fs::read(&files[which]).unwrap();
            chunk.resize((chunk.len() as i64 + delta) as usize, 0);
            fs::write(&files[which], chunk).unwrap();
            for err in [
                store.get_shard(0xC, 10, 0).unwrap_err(),
                job.load_shard(10, 0).unwrap_err(),
            ] {
                assert!(
                    matches!(err, StoreError::Io(_)),
                    "parent {parent} chunk {which} {delta:+}: {err}"
                );
            }
            let _ = fs::remove_dir_all(&root);
        }
    }
}

/// Cut `record` at each of `marks` −1 / 0 / +1 and append bytes to it:
/// decoding it and loading it from a checkpoint directory must fail
/// alike, with the checksum first and the length once the trailer is
/// recomputed over the extra bytes.
fn truncations_and_trailing_bytes_fail(record: &[u8], marks: &[usize]) {
    let (ckpt, order) = ModelCheckpoint::decode(record).unwrap();
    let (step, rank) = (ckpt.step, ckpt.rank);
    let u64_of = |b: &[u8]| {
        let b = b.try_into().unwrap();
        match order {
            ByteOrder::Little => u64::from_le_bytes(b),
            ByteOrder::Big => u64::from_be_bytes(b),
        }
    };
    let dir = scratch("truncate-dir");
    let store = CheckpointStore::new(&dir);
    let path = dir.join(format!("step_{step:08}/rank_{rank:04}.agck"));
    fs::create_dir_all(path.parent().unwrap()).unwrap();

    for &mark in marks {
        for cut in [mark - 1, mark, mark + 1] {
            let decode = ModelCheckpoint::decode(&record[..cut]).unwrap_err();
            assert!(
                matches!(decode, CheckpointError::ChecksumMismatch { .. }),
                "cut {cut}: {decode}"
            );
            fs::write(&path, &record[..cut]).unwrap();
            let load = store.load_shard(step, rank).unwrap_err();
            assert_eq!(load, StoreError::Format(decode), "cut {cut}");
        }
    }
    let n = record.len();
    assert_eq!(
        ModelCheckpoint::decode(&record[..n - 1]),
        Err(CheckpointError::ChecksumMismatch {
            stored: u64_of(&record[n - 9..n - 1]),
            computed: record_digest(&record[..n - 9]),
        }),
        "stored and computed are those of the shortened record"
    );

    // Trailing bytes: a checksum failure as they stand, a length
    // mismatch once the trailer is recomputed over them.
    let mut longer = record.to_vec();
    longer.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        ModelCheckpoint::decode(&longer),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
    let m = longer.len();
    let sum = record_digest(&longer[..m - 8]);
    longer[m - 8..].copy_from_slice(&match order {
        ByteOrder::Little => sum.to_le_bytes(),
        ByteOrder::Big => sum.to_be_bytes(),
    });
    let expected = CheckpointError::LengthMismatch {
        expected: n,
        found: m,
    };
    assert_eq!(ModelCheckpoint::decode(&longer), Err(expected.clone()));
    fs::write(&path, &longer).unwrap();
    assert_eq!(
        store.load_shard(step, rank),
        Err(StoreError::Format(expected))
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_and_trailing_bytes_around_block_boundaries() {
    // A record spanning several encoder blocks (4096 values each), as
    // version 2 writes it and as version 1 did.
    let mut rng = Rng(0xB0DA);
    let field = HaloField::from_fn(10_000, 1, 1, 1, |_, _, _| rng.value());
    let ckpt = ModelCheckpoint {
        fields: vec![field],
        ..sample(4, 0, 1, 5)
    };
    let record = ckpt.encode(ByteOrder::Little);
    let dir = scratch("truncate-written");
    CheckpointStore::new(&dir).write_shard(&ckpt).unwrap();
    let written = fs::read(dir.join("step_00000004/rank_0000.agck")).unwrap();
    assert_eq!(written, record);
    let _ = fs::remove_dir_all(&dir);

    // Cuts at the first value's block boundaries, the 64 KiB mark and
    // the trailer.
    let first_value = record.len() - 8 - 10_000 * 8;
    let marks = [
        first_value,
        first_value + 4096 * 8,
        64 * 1024,
        record.len() - 8,
    ];
    truncations_and_trailing_bytes_fail(&record, &marks);
    truncations_and_trailing_bytes_fail(&oracle_encode(&ckpt, ByteOrder::Little, 1), &marks);

    // The version-1 files the parent wrote: each shard of the checkpoint
    // directory, and the big-endian one. Cuts in the step, in the seed
    // count, mid-record and at the trailer.
    let shards = [
        "ckpt_dir/step_00000005/rank_0000.agck",
        "ckpt_dir/step_00000005/rank_0001.agck",
        "shard_big_endian.agck",
    ];
    for shard in shards {
        let record = fs::read(fixtures().join(shard)).unwrap();
        assert_eq!(record_version(&record), Some(1), "{shard}");
        let n = record.len();
        truncations_and_trailing_bytes_fail(&record, &[24, 32, n / 2, n - 8]);
    }
}

/// A paper-grid shard (six fields of 144×90×9, ≈ 5.6 MB) whose values
/// depend on `step`.
fn paper_checkpoint(step: u64) -> ModelCheckpoint {
    let mut rng = Rng(step);
    ModelCheckpoint {
        rank: 0,
        world: 1,
        step,
        seeds: Vec::new(),
        scalars: vec![1.0, 0.5],
        series: (0..step).map(|s| s as f64).collect(),
        fields: (0..6)
            .map(|_| HaloField::from_fn(144, 90, 9, 1, |_, _, _| rng.next() as f64))
            .collect(),
    }
}

fn chunk_files(root: &Path) -> BTreeSet<String> {
    fs::read_dir(root.join("chunks"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// A store whose chunks were cut at 64 KiB, the size the default was
/// before, keeps working at the default: chunk lengths come from the
/// manifests, never from the store's chunk size.
#[test]
fn a_store_written_with_64_kib_chunks_works_at_the_default() {
    const OLD_CHUNK: usize = 64 * 1024;
    let root = scratch("mixed-chunks");
    let job = |store: &Arc<Store>| {
        CheckpointStore::new(root.join("unused"))
            .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xAB)))
    };
    let old = paper_checkpoint(10);
    let old_record = old.encode(ByteOrder::Little);
    {
        let store = Arc::new(Store::open_with_chunk_size(&root, OLD_CHUNK).unwrap());
        job(&store).write_shard(&old).unwrap();
        job(&store).commit(10, 1).unwrap();
    }
    let old_files = chunk_files(&root);
    assert_eq!(old_files.len(), old_record.len().div_ceil(OLD_CHUNK));

    let store = Arc::new(Store::open(&root).unwrap());
    assert_eq!(store.stats().orphans_swept, 0);
    assert_eq!(store.get_shard(0xAB, 10, 0).unwrap(), old_record);
    assert_eq!(job(&store).load_shard(10, 0).unwrap(), old);

    // The same slot again, cut at the default: a whole-shard dedup hit.
    job(&store).write_shard(&old).unwrap();
    assert_eq!(store.stats().shard_dedup_hits, 1);
    assert_eq!(chunk_files(&root), old_files, "the re-put left a file");

    // A cold put at the default: one file per MiB.
    let new = paper_checkpoint(20);
    let new_len = new.encode(ByteOrder::Little).len();
    let before = store.stats().chunk_files_written;
    job(&store).write_shard(&new).unwrap();
    job(&store).commit(20, 1).unwrap();
    let added = chunk_files(&root).difference(&old_files).count();
    assert_eq!(added, new_len.div_ceil(DEFAULT_CHUNK_SIZE));
    assert_eq!(store.stats().chunk_files_written - before, added as u64);
    assert_eq!(job(&store).load_shard(20, 0).unwrap(), new);
    assert_eq!(job(&store).load_shard(10, 0).unwrap(), old);

    // Nothing is leased: one pass reclaims the chunks of both sizes.
    let report = store.gc().unwrap();
    assert_eq!(report.chunks_reclaimed, (old_files.len() + added) as u64);
    assert_eq!(report.bytes_reclaimed, (old_record.len() + new_len) as u64);
    assert!(chunk_files(&root).is_empty());
    let _ = fs::remove_dir_all(&root);
}
