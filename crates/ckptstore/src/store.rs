//! The content-addressed chunk store and its prefix index.
//!
//! ## On-disk layout
//!
//! ```text
//! root/
//!   chunks/<hash:016x>-<len>.chk   content-addressed chunk files
//!   index                          checksummed metadata index
//! ```
//!
//! Every encoded `ModelCheckpoint` record is split into fixed-size
//! chunks addressed by `(fnv1a(chunk), len)`. A *manifest* per
//! `(lineage, step, rank)` records the chunk list plus the whole-record
//! length and digest; a *commit* entry per `(lineage, step)` marks a
//! step durable once every rank's manifest is in place — the same
//! write-all-shards-then-publish protocol as the resilience
//! coordinator, with the `COMMIT` file replaced by an index entry.
//!
//! The index holds manifests and commits only, one checksummed line
//! each (`<fnv1a:016x> <payload>`, the server journal's line
//! discipline), and is rewritten atomically (`write_atomic`: tmp, fsync,
//! rename) on every mutation. Chunk **refcounts are derived**, not
//! stored: on open they are recomputed from the manifests, so the index
//! can never disagree with itself about liveness. Reopening reconciles both
//! directions — a chunk file no chunk list references is an orphan and
//! is swept; a manifest referencing a missing chunk file is dropped
//! (with the commits that depended on it), because a checkpoint that
//! cannot be reassembled must not be resumable.
//!
//! ## Putting a shard: reserve → write → fsync barrier → rename → publish
//!
//! A record streams into the store once ([`Store::put_shard_from`]):
//! two FNV-1a chains advance over each block — the whole-record digest
//! and the current chunk's address — and only one chunk is buffered.
//! The store's one mutex guards the maps and the index rewrite; chunk
//! files are written, synced and read outside it:
//!
//! 1. **Reserve** (lock, per chunk). A chunk whose key is in `refs` has
//!    a durable file: the put takes a reference *now*, so a concurrent
//!    `gc` cannot bring it to zero. Any other chunk the put will write
//!    itself: it registers the key as *pending*.
//! 2. **Write** (no lock). Each pending chunk goes to
//!    `<chunk name>.<put id>.tmp`. The name is per writer because two
//!    puts may be writing the same chunk at once — neither waits for
//!    the other; both files hold the same bytes. A file already sitting
//!    under an unreferenced chunk's name is never trusted: nothing
//!    vouches for its length or content, so the chunk is written anew.
//! 3. **Barrier** (no lock). `sync_all` every temporary file, then
//!    rename each to its chunk name. One burst of fsyncs per shard
//!    instead of one per chunk between writes lets the filesystem
//!    coalesce its journal commits, and the bursts of two jobs overlap.
//! 4. **Publish** (lock). If the slot is still empty: count the
//!    manifest's references, insert it, rewrite the index
//!    (`write_atomic`). If the slot meanwhile holds the same record it
//!    is a dedup hit; another record, a conflict. Then the reservations
//!    are returned — on any failure that leaves maps, index and chunk
//!    files as if the put had never run: its temporary files are
//!    removed, and a chunk it named is unlinked only if no manifest and
//!    no other put in flight relies on it.
//!
//! The invariants: a chunk name never exists without durable content
//! (every file is fsynced before its rename); the index never names a chunk that is not durable (publish
//! after the barrier); readers see a whole shard or none (the manifest
//! appears last). A crash anywhere leaves at most temporary files and
//! unreferenced chunks, which the next open sweeps.
//!
//! Reading mirrors it ([`Store::open_shard`]): the manifest is copied
//! under the lock, chunk files are read outside it through one buffer,
//! and the read that delivers the last byte fails unless the record
//! hashed to the manifest's digest.
//!
//! ## Leases and GC
//!
//! Jobs hold *leases* (`acquire`/`release`) on their lineage while they
//! run. [`Store::gc`] reclaims manifests and commits of unleased
//! lineages, decrementing refcounts and unlinking chunks that reach
//! zero. A leased lineage is never touched, so interleaving GC with
//! live writers is safe by construction; released lineages stay cached
//! until a GC pass actually runs, which is what makes resubmit-after-
//! completion reuse work. While a put is in flight `gc` may drop any
//! *manifest* of an unleased lineage, but of the put's chunks it may
//! unlink none: those the put found are held by its reference, and a
//! pending chunk is left on disk even when the last manifest naming it
//! goes (the put that is writing it publishes it or removes it). The
//! decision to unlink and the unlink itself happen under the lock, so
//! no put can reserve a chunk between the two. Leases are deliberately
//! *not* persisted: they describe live jobs of a live process, and a
//! restarted server re-acquires them for journal-recovered jobs before
//! sweeping.

use agcm_resilience::checkpoint::{
    fnv1a, CheckpointError, Fnv1a, RecordSink, RecordSource, RecordStream,
};
use agcm_resilience::coordinator::{write_atomic, StoreError};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default chunk size: large enough that a smoke-grid shard is a few
/// chunks, small enough that shards sharing a prefix share chunks.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx} {}: {e}", path.display()))
}

/// Content address of one chunk: hash plus length (the length guards
/// the 64-bit hash against accidental collisions between different-
/// sized chunks; the whole-record digest guards the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ChunkKey {
    hash: u64,
    len: u32,
}

impl ChunkKey {
    fn file_name(&self) -> String {
        format!("{:016x}-{}.chk", self.hash, self.len)
    }

    fn parse_file_name(name: &str) -> Option<ChunkKey> {
        let rest = name.strip_suffix(".chk")?;
        let (hash, len) = rest.split_once('-')?;
        Some(ChunkKey {
            hash: u64::from_str_radix(hash, 16).ok()?,
            len: len.parse().ok()?,
        })
    }
}

/// One rank's shard of one (lineage, step): how to reassemble it.
#[derive(Debug, Clone)]
struct Manifest {
    world: u32,
    len: u64,
    digest: u64,
    chunks: Vec<ChunkKey>,
}

#[derive(Debug, Default)]
struct Counters {
    bytes_ingested: u64,
    bytes_written: u64,
    bytes_deduped: u64,
    shard_dedup_hits: u64,
    prefix_hits: u64,
    prefix_misses: u64,
    gc_runs: u64,
    chunks_reclaimed: u64,
    bytes_reclaimed: u64,
    orphans_swept: u64,
    puts: u64,
    put_time: Duration,
    lock_wait: Duration,
    fsync_time: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    /// (lineage, step, rank) → manifest.
    manifests: BTreeMap<(u64, u64, u32), Manifest>,
    /// lineage → committed steps.
    commits: BTreeMap<u64, BTreeSet<u64>>,
    /// Derived chunk refcounts: manifest references, plus one per
    /// in-flight put relying on the chunk. A key is present only while
    /// its file exists with durable content.
    refs: HashMap<ChunkKey, u64>,
    /// Chunks in-flight puts are writing themselves (the key was not in
    /// `refs` when they asked), by number of such puts. Their files may
    /// appear at any moment and belong to those puts, not to `gc`.
    pending: HashMap<ChunkKey, u32>,
    /// lineage → job ids holding a lease.
    leases: BTreeMap<u64, BTreeSet<u64>>,
    counters: Counters,
}

/// Session counters and live totals, for `/v1/metrics` and the smoke
/// scenario's machine checks. Counters are per-process (the index
/// persists state, not statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Unique chunks currently stored.
    pub chunks: u64,
    /// Bytes of unique chunk content currently stored.
    pub live_bytes: u64,
    /// Shard manifests currently indexed.
    pub manifests: u64,
    /// Distinct lineages with any indexed state.
    pub lineages: u64,
    /// Lineages currently holding at least one lease.
    pub leased_lineages: u64,
    /// Logical shard bytes offered to the store this session.
    pub bytes_ingested: u64,
    /// Bytes actually written as new chunks this session.
    pub bytes_written: u64,
    /// Bytes satisfied by an existing chunk this session.
    pub bytes_deduped: u64,
    /// Whole shards skipped because an identical manifest existed.
    pub shard_dedup_hits: u64,
    /// `longest_prefix` queries that found a committed step.
    pub prefix_hits: u64,
    /// `longest_prefix` queries that found nothing.
    pub prefix_misses: u64,
    /// GC passes run this session.
    pub gc_runs: u64,
    /// Chunks reclaimed by GC this session.
    pub chunks_reclaimed: u64,
    /// Bytes reclaimed by GC this session.
    pub bytes_reclaimed: u64,
    /// Orphan chunk files swept at open.
    pub orphans_swept: u64,
    /// `put_shard` calls this session, whatever their outcome.
    pub puts: u64,
    /// Wall seconds spent inside those calls.
    pub put_seconds: f64,
    /// Of which: waiting for the store's mutex.
    pub lock_wait_seconds: f64,
    /// Of which: in `sync_all` on new chunk files (the per-shard
    /// durability barrier; the index rewrite's own fsync is not split
    /// out).
    pub fsync_seconds: f64,
}

/// What one [`Store::gc`] pass reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Lineages whose state was reclaimed (unleased at the time).
    pub lineages: Vec<u64>,
    /// Chunks whose refcount reached zero and were unlinked.
    pub chunks_reclaimed: u64,
    /// Bytes those chunks held.
    pub bytes_reclaimed: u64,
}

/// The shared, content-addressed checkpoint store. Thread-safe: one
/// instance (behind an `Arc`) serves every job in the process.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    chunk_size: usize,
    inner: Mutex<Inner>,
    /// Names the temporary files of one put apart from every other's.
    next_put: AtomicU64,
}

impl Store {
    /// Open (or create) a store rooted at `root`: load the index,
    /// recompute refcounts, sweep orphaned chunk files, and drop
    /// manifests whose chunks are missing.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        Store::open_with_chunk_size(root, DEFAULT_CHUNK_SIZE)
    }

    /// [`Store::open`] with an explicit chunk size (tests use small
    /// chunks to exercise multi-chunk shards on tiny grids).
    pub fn open_with_chunk_size(
        root: impl Into<PathBuf>,
        chunk_size: usize,
    ) -> Result<Store, StoreError> {
        let root = root.into();
        let chunks_dir = root.join("chunks");
        fs::create_dir_all(&chunks_dir).map_err(|e| io_err("create", &chunks_dir, e))?;
        let mut inner = load_index(&root.join("index"));
        let swept = reconcile(&root, &mut inner);
        inner.counters.orphans_swept = swept;
        let store = Store {
            root,
            chunk_size: chunk_size.max(512),
            inner: Mutex::new(inner),
            next_put: AtomicU64::new(0),
        };
        store.persist(&store.lock())?;
        Ok(store)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("store mutex poisoned: a thread panicked while updating the maps")
    }

    /// [`Store::lock`], adding the time spent waiting to `waited`.
    fn lock_timed(&self, waited: &mut Duration) -> MutexGuard<'_, Inner> {
        let asked = Instant::now();
        let inner = self.lock();
        *waited += asked.elapsed();
        inner
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn chunk_path(&self, key: &ChunkKey) -> PathBuf {
        self.root.join("chunks").join(key.file_name())
    }

    /// Store one rank's encoded shard under `(lineage, step, rank)`.
    /// Identical re-puts (same digest) are dedup hits and write
    /// nothing; a different record for an existing slot is refused —
    /// lineage is supposed to determine the trajectory, so a digest
    /// conflict means the lineage hash is lying and resuming from
    /// either record would be unsound.
    pub fn put_shard(
        &self,
        lineage: u64,
        step: u64,
        rank: u32,
        world: u32,
        record: &[u8],
    ) -> Result<(), StoreError> {
        self.put_shard_from(lineage, step, rank, world, &record)
    }

    /// [`Store::put_shard`] for a record that is produced as it is
    /// stored (see the module docs for the protocol): one traversal
    /// hashes the record, addresses its chunks and writes the new ones,
    /// and nothing larger than a chunk is buffered.
    pub fn put_shard_from(
        &self,
        lineage: u64,
        step: u64,
        rank: u32,
        world: u32,
        record: &dyn RecordSource,
    ) -> Result<(), StoreError> {
        let started = Instant::now();
        let mut put = Put {
            store: self,
            id: self.next_put.fetch_add(1, Ordering::Relaxed),
            digest: Fnv1a::new(),
            chunk: Fnv1a::new(),
            buf: Vec::with_capacity(self.chunk_size),
            len: 0,
            keys: Vec::new(),
            held: Vec::new(),
            created: Vec::new(),
            lock_wait: Duration::ZERO,
            fsync_time: Duration::ZERO,
        };
        let written = record
            .write_to(&mut put)
            .and_then(|()| put.seal())
            .and_then(|()| put.barrier());
        put.finish((lineage, step, rank), world, written, started)
    }

    /// Drop one reference to `key`; a chunk nothing references any more
    /// is unlinked unless an in-flight put is writing it. Returns
    /// whether the file was removed. Must run under the lock: the
    /// decision and the unlink are one step to every other put.
    fn unref(&self, inner: &mut Inner, key: &ChunkKey) -> bool {
        let Some(count) = inner.refs.get_mut(key) else {
            return false;
        };
        *count -= 1;
        if *count > 0 {
            return false;
        }
        inner.refs.remove(key);
        if inner.pending.contains_key(key) {
            return false;
        }
        let _ = fs::remove_file(self.chunk_path(key));
        true
    }

    /// Publish `(lineage, step)` as committed: every rank `0..world`
    /// must have a manifest recording that world size.
    pub fn commit(&self, lineage: u64, step: u64, world: u32) -> Result<(), StoreError> {
        let mut inner = self.lock();
        let present = (0..world)
            .filter(|r| {
                inner
                    .manifests
                    .get(&(lineage, step, *r))
                    .is_some_and(|m| m.world == world)
            })
            .count();
        if present != world as usize {
            return Err(StoreError::IncompleteCheckpoint {
                step,
                present,
                required: world as usize,
            });
        }
        let fresh = inner.commits.entry(lineage).or_default().insert(step);
        if fresh {
            self.persist(&inner)?;
        }
        Ok(())
    }

    /// Committed steps of `lineage`, ascending.
    pub fn committed_steps(&self, lineage: u64) -> Vec<u64> {
        let inner = self.lock();
        inner
            .commits
            .get(&lineage)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The longest committed prefix of `lineage` usable by a job whose
    /// horizon is `max_step`: the greatest committed step ≤ `max_step`.
    /// This is the dispatch-time reuse query; it keeps hit/miss
    /// counters.
    pub fn longest_prefix(&self, lineage: u64, max_step: u64) -> Option<u64> {
        let mut inner = self.lock();
        let hit = inner
            .commits
            .get(&lineage)
            .and_then(|s| s.range(..=max_step).next_back().copied());
        if hit.is_some() {
            inner.counters.prefix_hits += 1;
        } else {
            inner.counters.prefix_misses += 1;
        }
        hit
    }

    /// Manifests present for `(lineage, step)`.
    pub fn shard_count(&self, lineage: u64, step: u64) -> usize {
        let inner = self.lock();
        inner
            .manifests
            .range((lineage, step, 0)..=(lineage, step, u32::MAX))
            .count()
    }

    /// Reassemble the encoded shard for `(lineage, step, rank)`,
    /// verifying length and whole-record digest.
    pub fn get_shard(&self, lineage: u64, step: u64, rank: u32) -> Result<Vec<u8>, StoreError> {
        let mut shard = self.open_shard(lineage, step, rank)?;
        let mut record = Vec::with_capacity(shard.remaining() as usize);
        while shard.remaining() > 0 {
            let n = shard.remaining().min(self.chunk_size as u64) as usize;
            record.extend_from_slice(shard.read(n)?);
        }
        Ok(record)
    }

    /// Open the shard for `(lineage, step, rank)` as a stream. Only the
    /// manifest is copied under the lock; chunk files are read outside
    /// it, one at a time through one buffer, and the read that delivers
    /// the last byte fails unless the whole record hashed to the
    /// manifest's digest. The caller's lease on `lineage` is what keeps
    /// the chunks in place meanwhile.
    pub fn open_shard(
        &self,
        lineage: u64,
        step: u64,
        rank: u32,
    ) -> Result<ShardStream<'_>, StoreError> {
        let manifest = self
            .lock()
            .manifests
            .get(&(lineage, step, rank))
            .cloned()
            .ok_or_else(|| {
                StoreError::Io(format!(
                    "no shard for lineage {lineage:016x} step {step} rank {rank}"
                ))
            })?;
        let stored: u64 = manifest.chunks.iter().map(|c| c.len as u64).sum();
        if stored != manifest.len {
            return Err(StoreError::Io(format!(
                "reassembled shard is {stored} bytes, manifest says {}",
                manifest.len
            )));
        }
        Ok(ShardStream {
            store: self,
            remaining: manifest.len,
            manifest,
            next_chunk: 0,
            chunk: Vec::new(),
            pos: 0,
            stitched: Vec::new(),
            digest: Fnv1a::new(),
        })
    }

    /// Take a lease on `lineage` for `job`. Idempotent.
    pub fn acquire(&self, lineage: u64, job: u64) {
        let mut inner = self.lock();
        inner.leases.entry(lineage).or_default().insert(job);
    }

    /// Release `job`'s lease on `lineage`. Idempotent; the data stays
    /// cached until a [`Store::gc`] pass actually runs.
    pub fn release(&self, lineage: u64, job: u64) {
        let mut inner = self.lock();
        if let Some(jobs) = inner.leases.get_mut(&lineage) {
            jobs.remove(&job);
            if jobs.is_empty() {
                inner.leases.remove(&lineage);
            }
        }
    }

    /// Reclaim every unleased lineage: drop its manifests and commits,
    /// decrement chunk refcounts, unlink chunks that reach zero. Leased
    /// lineages — including chunks they share with reclaimed ones — are
    /// untouched.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let mut inner = self.lock();
        inner.counters.gc_runs += 1;
        let lineages: Vec<u64> = inner
            .manifests
            .keys()
            .map(|(l, _, _)| *l)
            .chain(inner.commits.keys().copied())
            .filter(|l| !inner.leases.contains_key(l))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if lineages.is_empty() {
            return Ok(GcReport::default());
        }
        let mut report = GcReport {
            lineages: lineages.clone(),
            ..GcReport::default()
        };
        for lineage in &lineages {
            inner.commits.remove(lineage);
            let keys: Vec<(u64, u64, u32)> = inner
                .manifests
                .range((*lineage, 0, 0)..=(*lineage, u64::MAX, u32::MAX))
                .map(|(k, _)| *k)
                .collect();
            for key in keys {
                let m = inner.manifests.remove(&key).expect("key just enumerated");
                for ck in &m.chunks {
                    if self.unref(&mut inner, ck) {
                        report.chunks_reclaimed += 1;
                        report.bytes_reclaimed += ck.len as u64;
                    }
                }
            }
        }
        inner.counters.chunks_reclaimed += report.chunks_reclaimed;
        inner.counters.bytes_reclaimed += report.bytes_reclaimed;
        self.persist(&inner)?;
        Ok(report)
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let lineages: BTreeSet<u64> = inner
            .manifests
            .keys()
            .map(|(l, _, _)| *l)
            .chain(inner.commits.keys().copied())
            .collect();
        StoreStats {
            chunks: inner.refs.len() as u64,
            live_bytes: inner.refs.keys().map(|k| k.len as u64).sum(),
            manifests: inner.manifests.len() as u64,
            lineages: lineages.len() as u64,
            leased_lineages: inner.leases.len() as u64,
            bytes_ingested: inner.counters.bytes_ingested,
            bytes_written: inner.counters.bytes_written,
            bytes_deduped: inner.counters.bytes_deduped,
            shard_dedup_hits: inner.counters.shard_dedup_hits,
            prefix_hits: inner.counters.prefix_hits,
            prefix_misses: inner.counters.prefix_misses,
            gc_runs: inner.counters.gc_runs,
            chunks_reclaimed: inner.counters.chunks_reclaimed,
            bytes_reclaimed: inner.counters.bytes_reclaimed,
            orphans_swept: inner.counters.orphans_swept,
            puts: inner.counters.puts,
            put_seconds: inner.counters.put_time.as_secs_f64(),
            lock_wait_seconds: inner.counters.lock_wait.as_secs_f64(),
            fsync_seconds: inner.counters.fsync_time.as_secs_f64(),
        }
    }

    /// Serialize manifests and commits to the checksummed index and
    /// publish it atomically.
    fn persist(&self, inner: &Inner) -> Result<(), StoreError> {
        let mut out = String::new();
        let mut payload = String::new();
        let mut line = |payload: &str| {
            let _ = writeln!(out, "{:016x} {payload}", fnv1a(payload.as_bytes()));
        };
        for ((lineage, step, rank), m) in &inner.manifests {
            payload.clear();
            let _ = write!(
                payload,
                "manifest {lineage:016x} {step} {rank} {} {} {:016x} ",
                m.world, m.len, m.digest
            );
            for (i, c) in m.chunks.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(payload, "{sep}{:016x}:{}", c.hash, c.len);
            }
            line(&payload);
        }
        for (lineage, steps) in &inner.commits {
            for step in steps {
                payload.clear();
                let _ = write!(payload, "commit {lineage:016x} {step}");
                line(&payload);
            }
        }
        write_atomic(&self.root.join("index"), out.as_bytes())
    }
}

/// One `put_shard` in flight: the [`RecordSink`] the record streams
/// into, and the bookkeeping to publish it or take it back.
struct Put<'a> {
    store: &'a Store,
    id: u64,
    /// Chain over the whole record.
    digest: Fnv1a,
    /// Chain over the chunk being filled.
    chunk: Fnv1a,
    /// The chunk being filled.
    buf: Vec<u8>,
    len: u64,
    /// The record's chunk list so far.
    keys: Vec<ChunkKey>,
    /// References taken on chunks that already existed, one per use.
    held: Vec<ChunkKey>,
    /// Chunks this put writes itself (registered in `Inner::pending`).
    created: Vec<ChunkKey>,
    lock_wait: Duration,
    fsync_time: Duration,
}

impl RecordSink for Put<'_> {
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError> {
        let mut rest = block;
        while !rest.is_empty() {
            if self.buf.len() == self.store.chunk_size {
                self.seal()?;
            }
            let room = self.store.chunk_size - self.buf.len();
            let (piece, tail) = rest.split_at(room.min(rest.len()));
            self.digest.update_both(&mut self.chunk, piece);
            self.buf.extend_from_slice(piece);
            self.len += piece.len() as u64;
            rest = tail;
        }
        Ok(())
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

impl Put<'_> {
    fn tmp_path(&self, key: &ChunkKey) -> PathBuf {
        let name = format!("{}.{}.tmp", key.file_name(), self.id);
        self.store.root.join("chunks").join(name)
    }

    /// The chunk in `buf` is complete: *reserve* it, and write it to a
    /// temporary file if nothing vouches for a durable copy.
    fn seal(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let key = ChunkKey {
            hash: self.chunk.value(),
            len: self.buf.len() as u32,
        };
        self.keys.push(key);
        self.chunk = Fnv1a::new();
        if !self.created.contains(&key) {
            let mut inner = self.store.lock_timed(&mut self.lock_wait);
            match inner.refs.get_mut(&key) {
                Some(count) => {
                    *count += 1;
                    drop(inner);
                    self.held.push(key);
                }
                None => {
                    *inner.pending.entry(key).or_insert(0) += 1;
                    drop(inner);
                    // Registered before the write, so that a failed
                    // write is taken back like a successful one.
                    self.created.push(key);
                    let tmp = self.tmp_path(&key);
                    fs::File::create(&tmp)
                        .and_then(|mut f| f.write_all(&self.buf))
                        .map_err(|e| io_err("write", &tmp, e))?;
                }
            }
        }
        self.buf.clear();
        Ok(())
    }

    /// The durability barrier: every new chunk is on disk under its
    /// temporary name; fsync each, then give each its real name.
    fn barrier(&mut self) -> Result<(), StoreError> {
        let started = Instant::now();
        for key in &self.created {
            let tmp = self.tmp_path(key);
            fs::OpenOptions::new()
                .write(true)
                .open(&tmp)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("sync", &tmp, e))?;
        }
        self.fsync_time = started.elapsed();
        for key in &self.created {
            let tmp = self.tmp_path(key);
            fs::rename(&tmp, self.store.chunk_path(key)).map_err(|e| io_err("rename", &tmp, e))?;
        }
        Ok(())
    }

    /// *Publish* the shard or take back everything this put reserved,
    /// leaving maps, index and chunk files as they would be had it
    /// never run; then account for it.
    fn finish(
        mut self,
        slot: (u64, u64, u32),
        world: u32,
        written: Result<(), StoreError>,
        started: Instant,
    ) -> Result<(), StoreError> {
        if written.is_err() {
            // Temporary names are this put's alone: no lock needed.
            for key in &self.created {
                let _ = fs::remove_file(self.tmp_path(key));
            }
        }
        let mut guard = self.store.lock_timed(&mut self.lock_wait);
        let inner = &mut *guard;
        let outcome = written.and_then(|()| self.publish(inner, slot, world));
        self.release(inner);

        let new_bytes: u64 = self.created.iter().map(|k| k.len as u64).sum();
        let c = &mut inner.counters;
        c.bytes_ingested += self.len;
        match outcome {
            Ok(true) => {
                c.bytes_written += new_bytes;
                c.bytes_deduped += self.len - new_bytes;
            }
            Ok(false) => {
                c.shard_dedup_hits += 1;
                c.bytes_deduped += self.len;
            }
            Err(_) => {}
        }
        c.puts += 1;
        c.lock_wait += self.lock_wait;
        c.fsync_time += self.fsync_time;
        c.put_time += started.elapsed();
        outcome.map(|_| ())
    }

    /// Under the lock, with every chunk durable under its name: give
    /// the slot its manifest and rewrite the index. `Ok(false)` when
    /// the slot already holds this very record (a dedup hit), an error
    /// when it holds another.
    fn publish(
        &mut self,
        inner: &mut Inner,
        slot: (u64, u64, u32),
        world: u32,
    ) -> Result<bool, StoreError> {
        let digest = self.digest.value();
        if let Some(m) = inner.manifests.get(&slot) {
            if m.digest == digest && m.len == self.len {
                return Ok(false);
            }
            let (lineage, step, rank) = slot;
            return Err(StoreError::Io(format!(
                "lineage {lineage:016x} step {step} rank {rank}: conflicting shard content \
                 (stored digest {:016x}, offered {digest:016x})",
                m.digest
            )));
        }
        for key in &self.keys {
            *inner.refs.entry(*key).or_insert(0) += 1;
        }
        let manifest = Manifest {
            world,
            len: self.len,
            digest,
            chunks: std::mem::take(&mut self.keys),
        };
        inner.manifests.insert(slot, manifest);
        if let Err(e) = self.store.persist(inner) {
            // Roll back so memory and disk agree about what exists.
            let m = inner.manifests.remove(&slot).expect("inserted above");
            for key in &m.chunks {
                self.store.unref(inner, key);
            }
            return Err(e);
        }
        Ok(true)
    }

    /// Under the lock: return the reservations. They have served — the
    /// manifest holds its own references now, or nothing of this put is
    /// to remain, in which case a chunk it named that no manifest and
    /// no other put in flight relies on is unlinked.
    fn release(&self, inner: &mut Inner) {
        for key in &self.held {
            self.store.unref(inner, key);
        }
        for key in &self.created {
            let Some(count) = inner.pending.get_mut(key) else {
                continue;
            };
            *count -= 1;
            if *count == 0 {
                inner.pending.remove(key);
                if !inner.refs.contains_key(key) {
                    let _ = fs::remove_file(self.store.chunk_path(key));
                }
            }
        }
    }
}

/// A stored shard being read back, chunk file by chunk file.
#[derive(Debug)]
pub struct ShardStream<'a> {
    store: &'a Store,
    manifest: Manifest,
    next_chunk: usize,
    /// The current chunk's bytes; `pos` of them are delivered.
    chunk: Vec<u8>,
    pos: usize,
    /// A read that spans chunk files, put together.
    stitched: Vec<u8>,
    remaining: u64,
    digest: Fnv1a,
}

impl RecordStream for ShardStream<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read(&mut self, n: usize) -> Result<&[u8], StoreError> {
        if self.pos == self.chunk.len() && n > 0 {
            self.load_next()?;
        }
        let block = if self.chunk.len() - self.pos >= n {
            self.pos += n;
            &self.chunk[self.pos - n..self.pos]
        } else {
            self.stitched.clear();
            while self.stitched.len() < n {
                if self.pos == self.chunk.len() {
                    self.load_next()?;
                }
                let k = (self.chunk.len() - self.pos).min(n - self.stitched.len());
                self.stitched
                    .extend_from_slice(&self.chunk[self.pos..self.pos + k]);
                self.pos += k;
            }
            &self.stitched
        };
        self.digest.update(block);
        self.remaining -= n as u64;
        let computed = self.digest.value();
        if self.remaining == 0 && computed != self.manifest.digest {
            return Err(StoreError::Format(CheckpointError::ChecksumMismatch {
                stored: self.manifest.digest,
                computed,
            }));
        }
        Ok(block)
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

impl ShardStream<'_> {
    fn load_next(&mut self) -> Result<(), StoreError> {
        let key = self
            .manifest
            .chunks
            .get(self.next_chunk)
            .ok_or_else(|| StoreError::Io("read past the end of a stored shard".to_string()))?;
        self.next_chunk += 1;
        let path = self.store.chunk_path(key);
        let mut file = fs::File::open(&path).map_err(|e| io_err("read", &path, e))?;
        let on_disk = file.metadata().map_err(|e| io_err("read", &path, e))?.len();
        if on_disk != key.len as u64 {
            return Err(StoreError::Io(format!(
                "chunk {} is {on_disk} bytes, expected {}",
                path.display(),
                key.len
            )));
        }
        self.chunk.resize(key.len as usize, 0);
        self.pos = 0;
        file.read_exact(&mut self.chunk)
            .map_err(|e| io_err("read", &path, e))
    }
}

/// Parse the index; checksum-mismatched or malformed lines are dropped
/// (reconciliation then restores consistency).
fn load_index(path: &Path) -> Inner {
    let mut inner = Inner::default();
    let Ok(text) = fs::read_to_string(path) else {
        return inner;
    };
    for line in text.lines() {
        let Some((sum, payload)) = line.split_once(' ') else {
            continue;
        };
        let Ok(stored) = u64::from_str_radix(sum, 16) else {
            continue;
        };
        if stored != fnv1a(payload.as_bytes()) {
            continue;
        }
        let fields: Vec<&str> = payload.split(' ').collect();
        match fields.as_slice() {
            ["manifest", lineage, step, rank, world, len, digest, chunks] => {
                let parsed = (|| {
                    let lineage = u64::from_str_radix(lineage, 16).ok()?;
                    let step: u64 = step.parse().ok()?;
                    let rank: u32 = rank.parse().ok()?;
                    let world: u32 = world.parse().ok()?;
                    let len: u64 = len.parse().ok()?;
                    let digest = u64::from_str_radix(digest, 16).ok()?;
                    let chunks = chunks
                        .split(',')
                        .map(|c| {
                            let (hash, len) = c.split_once(':')?;
                            Some(ChunkKey {
                                hash: u64::from_str_radix(hash, 16).ok()?,
                                len: len.parse().ok()?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()?;
                    Some((
                        (lineage, step, rank),
                        Manifest {
                            world,
                            len,
                            digest,
                            chunks,
                        },
                    ))
                })();
                if let Some((key, m)) = parsed {
                    inner.manifests.insert(key, m);
                }
            }
            ["commit", lineage, step] => {
                if let (Ok(lineage), Ok(step)) =
                    (u64::from_str_radix(lineage, 16), step.parse::<u64>())
                {
                    inner.commits.entry(lineage).or_default().insert(step);
                }
            }
            _ => {}
        }
    }
    inner
}

/// Recompute refcounts from manifests, drop manifests whose chunk files
/// are missing (and the commits that relied on them), and sweep chunk
/// files nothing references. Returns the orphan count.
fn reconcile(root: &Path, inner: &mut Inner) -> u64 {
    let chunks_dir = root.join("chunks");
    let mut on_disk: BTreeSet<ChunkKey> = BTreeSet::new();
    let mut strays: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(&chunks_dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            match ChunkKey::parse_file_name(&name.to_string_lossy()) {
                Some(key) => {
                    on_disk.insert(key);
                }
                // Unparseable names include interrupted `.tmp` writes.
                None => strays.push(e.path()),
            }
        }
    }

    // A manifest is loadable only if every chunk file exists; a broken
    // manifest un-commits its step (resume must never select it).
    let broken: Vec<(u64, u64, u32)> = inner
        .manifests
        .iter()
        .filter(|(_, m)| m.chunks.iter().any(|c| !on_disk.contains(c)))
        .map(|(k, _)| *k)
        .collect();
    for (lineage, step, rank) in broken {
        inner.manifests.remove(&(lineage, step, rank));
        if let Some(steps) = inner.commits.get_mut(&lineage) {
            steps.remove(&step);
            if steps.is_empty() {
                inner.commits.remove(&lineage);
            }
        }
    }
    // A commit whose manifests disappeared entirely is equally dead.
    let manifests = &inner.manifests;
    inner.commits.retain(|lineage, steps| {
        steps.retain(|step| {
            manifests
                .range((*lineage, *step, 0)..=(*lineage, *step, u32::MAX))
                .next()
                .is_some()
        });
        !steps.is_empty()
    });

    inner.refs.clear();
    for m in inner.manifests.values() {
        for c in &m.chunks {
            *inner.refs.entry(*c).or_insert(0) += 1;
        }
    }

    let mut swept = strays.len() as u64;
    for path in strays {
        let _ = fs::remove_file(path);
    }
    for key in on_disk {
        if !inner.refs.contains_key(&key) {
            let _ = fs::remove_file(chunks_dir.join(key.file_name()));
            swept += 1;
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("agcm-ckptstore-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Non-repeating pseudo-random content (a periodic pattern would
    /// dedupe chunks *within* one record and skew the counters).
    fn record(step: u64, rank: u32, salt: u8, len: usize) -> Vec<u8> {
        let mut x = (step << 32) ^ ((rank as u64) << 16) ^ (salt as u64) ^ 0x9E37_79B9;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn put_get_roundtrip_multichunk() {
        let store = Store::open_with_chunk_size(scratch("roundtrip"), 512).unwrap();
        let rec = record(1, 0, 7, 2000);
        store.put_shard(1, 1, 0, 1, &rec).unwrap();
        assert_eq!(store.get_shard(1, 1, 0).unwrap(), rec);
        let stats = store.stats();
        assert_eq!(stats.chunks, 4, "2000 bytes at 512-byte chunks");
        assert_eq!(stats.bytes_written, 2000);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn identical_shards_dedupe_across_lineages() {
        let store = Store::open_with_chunk_size(scratch("dedup"), 512).unwrap();
        let rec = record(2, 0, 3, 1500);
        store.put_shard(0xA, 2, 0, 1, &rec).unwrap();
        store.put_shard(0xB, 2, 0, 1, &rec).unwrap();
        let stats = store.stats();
        assert_eq!(stats.bytes_written, 1500, "second copy writes nothing");
        assert_eq!(stats.bytes_deduped, 1500);
        assert_eq!(stats.manifests, 2);
        // Same slot re-put is a whole-shard dedup hit.
        store.put_shard(0xA, 2, 0, 1, &rec).unwrap();
        assert_eq!(store.stats().shard_dedup_hits, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn conflicting_content_for_a_slot_is_refused() {
        let store = Store::open(scratch("conflict")).unwrap();
        store.put_shard(5, 1, 0, 1, &record(1, 0, 1, 100)).unwrap();
        let err = store
            .put_shard(5, 1, 0, 1, &record(1, 0, 2, 100))
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn commit_requires_every_rank_at_that_world() {
        let store = Store::open(scratch("commit")).unwrap();
        store.put_shard(9, 4, 0, 2, &record(4, 0, 0, 64)).unwrap();
        assert_eq!(
            store.commit(9, 4, 2),
            Err(StoreError::IncompleteCheckpoint {
                step: 4,
                present: 1,
                required: 2
            })
        );
        store.put_shard(9, 4, 1, 2, &record(4, 1, 0, 64)).unwrap();
        store.commit(9, 4, 2).unwrap();
        assert_eq!(store.committed_steps(9), vec![4]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn longest_prefix_clamps_to_the_horizon() {
        let store = Store::open(scratch("prefix")).unwrap();
        for step in [10u64, 20, 40] {
            store
                .put_shard(7, step, 0, 1, &record(step, 0, 0, 64))
                .unwrap();
            store.commit(7, step, 1).unwrap();
        }
        assert_eq!(store.longest_prefix(7, 100), Some(40));
        assert_eq!(store.longest_prefix(7, 25), Some(20));
        assert_eq!(store.longest_prefix(7, 9), None);
        assert_eq!(store.longest_prefix(8, 100), None, "unknown lineage");
        let stats = store.stats();
        assert_eq!((stats.prefix_hits, stats.prefix_misses), (2, 2));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_spares_leased_lineages_and_shared_chunks() {
        let store = Store::open_with_chunk_size(scratch("gc"), 512).unwrap();
        let shared = record(1, 0, 9, 600);
        store.put_shard(0xAAA, 1, 0, 1, &shared).unwrap();
        store.commit(0xAAA, 1, 1).unwrap();
        store.put_shard(0xBBB, 1, 0, 1, &shared).unwrap();
        store.commit(0xBBB, 1, 1).unwrap();
        store
            .put_shard(0xBBB, 2, 0, 1, &record(2, 0, 9, 600))
            .unwrap();
        store.acquire(0xBBB, 42);

        let report = store.gc().unwrap();
        assert_eq!(report.lineages, vec![0xAAA]);
        assert_eq!(
            report.chunks_reclaimed, 0,
            "every chunk of AAA is shared with leased BBB"
        );
        assert_eq!(store.get_shard(0xBBB, 1, 0).unwrap(), shared);
        assert!(store.get_shard(0xAAA, 1, 0).is_err(), "AAA reclaimed");

        store.release(0xBBB, 42);
        let report = store.gc().unwrap();
        assert_eq!(report.lineages, vec![0xBBB]);
        assert!(report.chunks_reclaimed > 0);
        let stats = store.stats();
        assert_eq!((stats.chunks, stats.live_bytes, stats.manifests), (0, 0, 0));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn reopen_restores_index_and_sweeps_orphans() {
        let root = scratch("reopen");
        let rec = record(3, 0, 5, 900);
        {
            let store = Store::open_with_chunk_size(&root, 512).unwrap();
            store.put_shard(0xC, 3, 0, 1, &rec).unwrap();
            store.commit(0xC, 3, 1).unwrap();
        }
        // An orphan chunk (valid name, referenced by nothing) and an
        // interrupted tmp write, both swept at open.
        fs::write(root.join("chunks/00000000deadbeef-64.chk"), [0u8; 64]).unwrap();
        fs::write(root.join("chunks/00000000deadbeef-64.tmp"), [0u8; 64]).unwrap();
        let store = Store::open_with_chunk_size(&root, 512).unwrap();
        assert_eq!(store.stats().orphans_swept, 2);
        assert_eq!(store.get_shard(0xC, 3, 0).unwrap(), rec);
        assert_eq!(store.committed_steps(0xC), vec![3]);
        assert!(!root.join("chunks/00000000deadbeef-64.chk").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_chunk_file_uncommits_the_step_on_reopen() {
        let root = scratch("missing-chunk");
        {
            let store = Store::open_with_chunk_size(&root, 512).unwrap();
            store
                .put_shard(0xD, 2, 0, 1, &record(2, 0, 1, 900))
                .unwrap();
            store.commit(0xD, 2, 1).unwrap();
        }
        // Delete one chunk file behind the store's back.
        let victim = fs::read_dir(root.join("chunks"))
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .path();
        fs::remove_file(victim).unwrap();
        let store = Store::open_with_chunk_size(&root, 512).unwrap();
        assert!(store.committed_steps(0xD).is_empty(), "step un-committed");
        assert!(store.get_shard(0xD, 2, 0).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_index_line_is_dropped_not_fatal() {
        let root = scratch("corrupt-index");
        {
            let store = Store::open(&root).unwrap();
            store.put_shard(0xE, 1, 0, 1, &record(1, 0, 0, 64)).unwrap();
            store.commit(0xE, 1, 1).unwrap();
        }
        let index = root.join("index");
        let mut text = fs::read_to_string(&index).unwrap();
        text.push_str("0000000000000000 commit 000000000000000f 9\n");
        fs::write(&index, text).unwrap();
        let store = Store::open(&root).unwrap();
        assert!(
            store.committed_steps(0xF).is_empty(),
            "bad checksum dropped"
        );
        assert_eq!(store.committed_steps(0xE), vec![1]);
        let _ = fs::remove_dir_all(&root);
    }
}
