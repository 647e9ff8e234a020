//! The content-addressed chunk store and its prefix index.
//!
//! ## On-disk layout
//!
//! ```text
//! root/
//!   chunks/<hash:016x>-<len>.chk   content-addressed chunk files
//!   index                          checksummed metadata index
//!   trash/<name>.<tag>-<seq>       reclaimed files waiting to be unlinked
//! ```
//!
//! Every encoded `ModelCheckpoint` record is split into fixed-size
//! chunks addressed by `(hash(chunk), len)`, where the hash is the one
//! the record's version names ([`RecordDigest`]: XXH64 for version 2,
//! FNV-1a for version 1 and for bytes that are no record). A *manifest* per
//! `(lineage, step, rank)` records the chunk list plus the whole-record
//! length and digest; a *commit* entry per `(lineage, step)` marks a
//! step durable once every rank's manifest is in place — the same
//! write-all-shards-then-publish protocol as the resilience
//! coordinator, with the `COMMIT` file replaced by an index entry.
//!
//! The index holds manifests and commits only, one checksummed line
//! each (`<fnv1a:016x> <payload>`, framed by the resilience crate's
//! `frame_line` like the server journal), and is rewritten atomically
//! (`durable::write_atomic`: tmp, fsync, rename, fsync the root) on
//! every mutation, and on open only when loading and reconciling
//! changed what it says. Chunk **refcounts are derived**, not
//! stored: on open they are recomputed from the manifests, so the index
//! can never disagree with itself about liveness. Reopening reconciles both
//! directions — a chunk file no chunk list references is an orphan and
//! is swept; a manifest referencing a missing chunk file is dropped
//! (with the commits that depended on it), because a checkpoint that
//! cannot be reassembled must not be resumable.
//!
//! ## Putting a shard: write (streamed) → reserve → barrier → publish
//!
//! A record streams into the store once ([`Store::put_shard_from`]):
//! two digests advance over each block while it is in cache — the
//! whole-record digest, and the current chunk's address, restarted at
//! every chunk boundary ([`RecordDigest::restarted`]) — and the block
//! goes straight on to the current chunk's temporary file, so no chunk
//! is ever buffered.
//! The store's one mutex guards the maps and the index rewrite; chunk
//! files are written, synced and read outside it:
//!
//! 1. **Write** (no lock). The pieces of chunk `seq` of put `id` land
//!    in `chunks/put-<id>-<seq>.tmp`, a `durable::Staged` file, as they
//!    arrive. The name is per writer because two puts may be writing the
//!    same chunk at once — neither waits for the other; both files hold
//!    the same bytes. The name does not parse as a chunk's, so a crash
//!    leaves nothing the next open does not sweep.
//! 2. **Reserve** (lock, when a chunk is sealed and its key known). A
//!    chunk whose key is in `refs` has a durable file: the put takes a
//!    reference *now*, so a concurrent `gc` cannot bring it to zero, and
//!    drops its temporary copy, which unlinks it unsynced. Any other
//!    chunk it registers as *pending* and keeps the staged file open. A
//!    file already sitting under an unreferenced chunk's name is never
//!    trusted: nothing vouches for its length or content, so the chunk
//!    is written anew.
//! 3. **Barrier** (no lock). `durable::publish_all` the staged files:
//!    fsync each, rename each to its chunk name, fsync `chunks/` once.
//!    One burst of fsyncs per shard instead of one per chunk between
//!    writes lets the filesystem coalesce its journal commits, and the
//!    bursts of two jobs overlap. A put holds one handle per new chunk
//!    until here: six for a paper-grid shard, so a shard of about a GiB
//!    would meet a 1,024-descriptor limit.
//! 4. **Publish** (lock). If the slot is still empty: count the
//!    manifest's references, insert it, rewrite the index
//!    (`write_atomic`). If the slot meanwhile holds the same record it
//!    is a dedup hit; another record, a conflict — except a record of
//!    the same length in another format version, whose digest differs
//!    because its hash does (a version-1 store receiving the version-2
//!    encoding of a state it holds): a dedup hit too. Then the reservations
//!    are returned — on any failure that leaves maps, index and chunk
//!    files as if the put had never run: its staged files are removed
//!    as they drop, and a chunk it named is reclaimed only if no
//!    manifest and no other put in flight relies on it.
//!
//! The invariants: a chunk name never exists without durable content
//! (every file is fsynced before its rename); the index never names a
//! chunk that is not durable (publish after the barrier); every rename
//! that publishes something survives an OS crash (the barrier and the
//! index rewrite fsync the directory after renaming); readers see a
//! whole shard or none (the manifest appears last). A crash anywhere
//! leaves at most temporary files, unreferenced chunks and trash, which
//! the next open sweeps. The one rename that is no publish, into the
//! trash, is not synced: a crash that undoes it leaves an orphan chunk,
//! which the next open sweeps too.
//!
//! The price of streaming is paid by a put whose chunks already exist
//! (a dedup put): its bytes are still written to temporary files, which
//! it then unlinks, because a chunk's address is known only once the
//! chunk is complete. Nothing recomputes a step whose checkpoint is
//! stored, so serving never makes such a put; resubmissions dedup per
//! shard or per prefix before any put.
//!
//! Reading mirrors it ([`Store::open_shard`]): the manifest is copied
//! under the lock, chunk files are read outside it in blocks of at most
//! 64 KiB through one buffer, and the read that delivers the last byte
//! fails unless the record hashed to the manifest's digest.
//! The read path knows chunk lengths from the manifest only, so stores
//! written with any chunk size read back alike.
//!
//! ## Leases and GC
//!
//! Jobs hold *leases* (`acquire`/`release`) on their lineage while they
//! run. [`Store::gc`] reclaims manifests and commits of unleased
//! lineages and decrements refcounts. A leased lineage is never touched,
//! so interleaving GC with live writers is safe by construction; released
//! lineages stay cached until a GC pass actually runs, which is what
//! makes resubmit-after-completion reuse work. While a put is in flight
//! `gc` may drop any *manifest* of an unleased lineage, but of the put's
//! chunks it may reclaim none: those the put found are held by its
//! reference, and a pending chunk is left on disk even when the last
//! manifest naming it goes (the put that is writing it publishes it or
//! removes it). Leases are deliberately *not* persisted: they describe
//! live jobs of a live process, and a restarted server re-acquires them
//! for journal-recovered jobs before sweeping.
//!
//! A chunk that reaches zero references goes in three steps:
//!
//! 1. **Reclaim** (lock). `gc` drops it from `refs` and persists the
//!    index, which no longer names it.
//! 2. **Trash** (lock). Its file is renamed into `trash/` under a name
//!    that ends in a per-store tag and a sequence number, so it never
//!    parses as a chunk's and no other reclaim reuses it. The decision
//!    and the rename are one step to every put, and the chunk's name is
//!    free when `gc` returns: a put of the same chunk writes a fresh file.
//! 3. **Reap** (no lock). A thread the store owns, started the first
//!    time it is needed, unlinks the file. `Drop` waits for it to empty
//!    the trash. On a 2-vCPU VM's ext4 virtio disk, unlinking a synced
//!    1 MiB chunk waits 0.4–0.7 ms; the rename costs 0.03 ms.
//!
//! A crash between 1 and 2 leaves an unreferenced chunk, which the next
//! open sweeps as an orphan; between 2 and 3 it leaves a file in
//! `trash/`, which the next open reaps. Neither is named by the index.
//! Open moves its orphans and strays into the trash too rather than
//! unlinking them inline, and the reaper ignores unlink errors: two
//! stores over one root may both reap what a crash left.

use agcm_resilience::checkpoint::{
    frame_line, record_version, unframe_line, CheckpointError, RecordDigest, RecordSink,
    RecordSource, RecordStream, PREFIX_LEN,
};
use agcm_resilience::coordinator::StoreError;
use agcm_resilience::durable::{publish_all, write_atomic, Staged};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::{ErrorKind, Read as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default chunk size. A cold commit pays per chunk *file* (create,
/// fsync, rename), not per byte: 5.5 MB written as
///
/// | chunk size | files | create + write + fsync + rename (p25–p75) |
/// |-----------:|------:|------------------------------------------:|
/// |     64 KiB |    86 |                                15–19 ms   |
/// |    256 KiB |    22 |                               5.4–6.4 ms  |
/// |      1 MiB |     6 |                               4.0–4.8 ms  |
/// |   one file |     1 |                               3.2–3.7 ms  |
///
/// (2-core Xeon VM, ext4 on a virtio disk), so 1 MiB is within a
/// millisecond of the one-file floor. Finer chunks share more between
/// records that differ in a few values, but serving reuses per shard or
/// per committed prefix, not per chunk. No buffer is chunk-sized — puts
/// stream into the chunk's file and reads go through `IO_BLOCK` — so
/// the size costs no memory.
pub const DEFAULT_CHUNK_SIZE: usize = 1024 * 1024;

/// Chunk files are read in blocks of at most this many bytes, whatever
/// the chunk size: the largest buffer the read path holds.
const IO_BLOCK: usize = 64 * 1024;

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
    chunk_files_written: u64,
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
    trash: Trash,
}

/// Where reclaimed files wait to be unlinked. A file is renamed into
/// `root/trash/` under the store's lock, so its name is free the moment
/// the rename returns, and a thread the store owns unlinks it: an
/// unlink of a synced chunk waits on the disk for far longer than a
/// rename does.
#[derive(Debug, Default)]
struct Trash {
    dir: PathBuf,
    /// Sets this store's trash names apart from those of any other store
    /// over the same root, in this process or an earlier one.
    tag: String,
    seq: u64,
    /// The unlinking thread, started by the first file it is sent.
    reaper: Option<(Sender<PathBuf>, JoinHandle<()>)>,
}

impl Trash {
    fn new(root: &Path) -> Trash {
        static OPENED: AtomicU64 = AtomicU64::new(0);
        let since_epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        Trash {
            dir: root.join("trash"),
            tag: format!(
                "{}-{:x}-{}",
                std::process::id(),
                since_epoch.as_nanos(),
                OPENED.fetch_add(1, Ordering::Relaxed)
            ),
            ..Trash::default()
        }
    }

    /// Move the file at `path` into the trash and queue it for
    /// unlinking; unlink it here if it cannot be moved. Either way its
    /// name is free on return. What `remove_file` would not remove (no
    /// file, a directory) is left alone. The trash name ends in the tag
    /// and a sequence number, so it never parses as a chunk's and no
    /// other reclaim reuses it.
    fn discard(&mut self, path: &Path) {
        if !fs::symlink_metadata(path).is_ok_and(|m| !m.is_dir()) {
            return;
        }
        self.seq += 1;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let to = self.dir.join(format!("{name}.{}-{}", self.tag, self.seq));
        // Not a publish: the file is moved aside, never to be read again,
        // so this rename needs neither an fsync nor the directory's.
        let rename = || fs::rename(path, &to);
        let moved = rename().or_else(|_| {
            fs::create_dir_all(&self.dir)?;
            rename()
        });
        match moved {
            Ok(()) => self.reap(to),
            Err(_) => {
                let _ = fs::remove_file(path);
            }
        }
    }

    /// Queue a file in the trash for unlinking. Unlink errors are
    /// ignored: two stores over one root may both reap a crash's trash.
    fn reap(&mut self, path: PathBuf) {
        if self.reaper.is_none() {
            let (tx, rx) = mpsc::channel::<PathBuf>();
            let unlink_all = move || {
                for path in rx {
                    let _ = fs::remove_file(path);
                }
            };
            let spawned = thread::Builder::new()
                .name("ckptstore-reaper".into())
                .spawn(unlink_all);
            self.reaper = spawned.ok().map(|handle| (tx, handle));
        }
        // With no thread to take it, the file is unlinked here.
        let unsent = match &self.reaper {
            Some((tx, _)) => tx.send(path).err().map(|e| e.0),
            None => Some(path),
        };
        if let Some(path) = unsent {
            let _ = fs::remove_file(path);
        }
    }

    /// Unlink everything queued, then stop the thread.
    fn drain(&mut self) {
        if let Some((tx, handle)) = self.reaper.take() {
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// Session counters and live totals, for `/v1/metrics` and the tests'
/// checks. Counters are per-process (the index persists state, not
/// statistics).
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
    /// Chunk files those calls synced and named: one per new chunk,
    /// the files a cold commit pays for.
    pub chunk_files_written: u64,
    /// Wall seconds spent inside those calls.
    pub put_seconds: f64,
    /// Of which: waiting for the store's mutex.
    pub lock_wait_seconds: f64,
    /// Of which: in the per-shard durability barrier (fsync and rename
    /// the new chunk files, fsync `chunks/`; the index rewrite's own
    /// fsyncs are not split out).
    pub fsync_seconds: f64,
}

/// What one [`Store::gc`] pass reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Lineages whose state was reclaimed (unleased at the time).
    pub lineages: Vec<u64>,
    /// Chunks whose refcount reached zero and were moved to the trash.
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
    /// recompute refcounts, sweep orphaned chunk files and a crash's
    /// trash, and drop manifests whose chunks are missing. The index is
    /// rewritten only if that changed what it says.
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
        // An index that exists but cannot be read counts as one bad line.
        let (loaded, unreadable) = match fs::read_to_string(root.join("index")) {
            Ok(text) => (text, 0),
            Err(e) => (String::new(), usize::from(e.kind() != ErrorKind::NotFound)),
        };
        let mut inner = load_index(&loaded);
        inner.trash = Trash::new(&root);
        // A crash's trash first: what this store discards below joins it.
        if let Ok(entries) = fs::read_dir(&inner.trash.dir) {
            for e in entries.flatten() {
                inner.trash.reap(e.path());
            }
        }
        inner.counters.orphans_swept = reconcile(&root, &mut inner);
        // Each line a distinct fact that survived reconciling: a skipped,
        // duplicated or dropped line leaves fewer facts than lines.
        let facts =
            inner.manifests.len() + inner.commits.values().map(BTreeSet::len).sum::<usize>();
        let store = Store {
            root,
            chunk_size: chunk_size.max(512),
            inner: Mutex::new(inner),
            next_put: AtomicU64::new(0),
        };
        if facts != loaded.lines().count() + unreadable {
            store.persist(&store.lock())?;
        }
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
    /// Identical re-puts (same digest, or the same length in another
    /// record version) are dedup hits and write
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
    /// hashes the record, addresses its chunks and writes them, and
    /// nothing is buffered — each block goes on to a chunk file.
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
            digest: RecordDigest::new(),
            chunk: RecordDigest::new(),
            file: None,
            fill: 0,
            len: 0,
            keys: Vec::new(),
            held: Vec::new(),
            created: Vec::new(),
            staged: Vec::new(),
            lock_wait: Duration::ZERO,
            fsync_time: Duration::ZERO,
        };
        let written = record
            .write_to(&mut put)
            .and_then(|()| put.seal())
            .and_then(|()| put.barrier());
        put.finish((lineage, step, rank), world, written, started)
    }

    /// Drop one reference to `key`. Returns whether its file is now
    /// the caller's to [`discard`](Store::discard): nothing references
    /// it and no in-flight put is writing it.
    fn unref(inner: &mut Inner, key: &ChunkKey) -> bool {
        let Some(count) = inner.refs.get_mut(key) else {
            return false;
        };
        *count -= 1;
        if *count > 0 {
            return false;
        }
        inner.refs.remove(key);
        !inner.pending.contains_key(key)
    }

    /// Reclaim `key`'s file: into the trash, its name free on return.
    /// Must run under the lock, so that no put can reserve the chunk
    /// between the decision and the rename.
    fn discard(&self, inner: &mut Inner, key: &ChunkKey) {
        inner.trash.discard(&self.chunk_path(key));
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
            let n = shard.remaining().min(IO_BLOCK as u64) as usize;
            record.extend_from_slice(shard.read(n)?);
        }
        Ok(record)
    }

    /// Open the shard for `(lineage, step, rank)` as a stream. Only the
    /// manifest is copied under the lock; chunk files are read outside
    /// it, one at a time, a block at a time through one buffer, and the
    /// read that delivers the last byte fails unless the whole record
    /// hashed to the manifest's digest. The caller's lease on `lineage`
    /// is what keeps the chunks in place meanwhile.
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
            file: None,
            unread: 0,
            block: Vec::new(),
            pos: 0,
            stitched: Vec::new(),
            digest: RecordDigest::new(),
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
    /// decrement chunk refcounts, persist the index, then move the chunks
    /// that reached zero into the trash, whose thread unlinks them. Leased
    /// lineages — including chunks they share with reclaimed ones — are
    /// untouched. No reclaimed chunk's name is left when this returns.
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
        let mut reclaimed = Vec::new();
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
                    if Store::unref(&mut inner, ck) {
                        report.chunks_reclaimed += 1;
                        report.bytes_reclaimed += ck.len as u64;
                        reclaimed.push(*ck);
                    }
                }
            }
        }
        inner.counters.chunks_reclaimed += report.chunks_reclaimed;
        inner.counters.bytes_reclaimed += report.bytes_reclaimed;
        // Files go only once no index names them. If the index cannot be
        // written they stay, and the one on disk still holds.
        self.persist(&inner)?;
        for ck in &reclaimed {
            self.discard(&mut inner, ck);
        }
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
            chunk_files_written: inner.counters.chunk_files_written,
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
            frame_line(&mut out, &payload);
        }
        for (lineage, steps) in &inner.commits {
            for step in steps {
                payload.clear();
                let _ = write!(payload, "commit {lineage:016x} {step}");
                frame_line(&mut out, &payload);
            }
        }
        write_atomic(&self.root.join("index"), out.as_bytes())
    }
}

impl Drop for Store {
    /// Unlinks whatever is still in the trash before the store goes.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        inner.trash.drain();
    }
}

/// One `put_shard` in flight: the [`RecordSink`] the record streams
/// into, and the bookkeeping to publish it or take it back.
struct Put<'a> {
    store: &'a Store,
    id: u64,
    /// Digest of the whole record.
    digest: RecordDigest,
    /// Digest of the chunk being filled, with the record's hash.
    chunk: RecordDigest,
    /// The chunk being filled: its temporary file, created with its
    /// first byte, and how many bytes it holds.
    file: Option<Staged>,
    fill: usize,
    len: u64,
    /// The record's chunk list so far; the next chunk's `seq` is its
    /// length.
    keys: Vec<ChunkKey>,
    /// References taken on chunks that already existed, one per use.
    held: Vec<ChunkKey>,
    /// Chunks this put writes itself (registered in `Inner::pending`).
    created: Vec<ChunkKey>,
    /// Their temporary files, held open from the seal for the barrier
    /// to publish under their chunk names.
    staged: Vec<(Staged, PathBuf)>,
    lock_wait: Duration,
    fsync_time: Duration,
}

impl RecordSink for Put<'_> {
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError> {
        let mut rest = block;
        while !rest.is_empty() {
            if self.fill == self.store.chunk_size {
                self.seal()?;
            }
            let room = self.store.chunk_size - self.fill;
            let (piece, tail) = rest.split_at(room.min(rest.len()));
            self.digest.update(piece);
            self.chunk.update(piece);
            let file = match &mut self.file {
                Some(file) => file,
                None => {
                    let name = format!("put-{}-{}.tmp", self.id, self.keys.len());
                    self.file
                        .insert(Staged::create(self.store.root.join("chunks").join(name))?)
                }
            };
            file.write_all(piece)?;
            self.fill += piece.len();
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
    /// The chunk being filled is complete and its key known: *reserve*
    /// it. A chunk with a durable copy is referenced and its temporary
    /// file dropped, which unlinks it unsynced; any other keeps its file
    /// for the barrier.
    fn seal(&mut self) -> Result<(), StoreError> {
        let Some(file) = self.file.take() else {
            return Ok(());
        };
        let key = ChunkKey {
            hash: self.chunk.value(),
            len: self.fill as u32,
        };
        self.keys.push(key);
        self.chunk = self.digest.restarted();
        self.fill = 0;
        if self.created.contains(&key) {
            return Ok(());
        }
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
                self.created.push(key);
                self.staged.push((file, self.store.chunk_path(&key)));
            }
        }
        Ok(())
    }

    /// The durability barrier: every new chunk is on disk under its
    /// temporary name; publish them all under their chunk names (fsync
    /// each, rename each, fsync `chunks/` once).
    fn barrier(&mut self) -> Result<(), StoreError> {
        let started = Instant::now();
        let published = publish_all(std::mem::take(&mut self.staged));
        self.fsync_time = started.elapsed();
        published
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
        let files = match &written {
            Ok(()) => self.created.len() as u64,
            Err(_) => 0,
        };
        // A failed put's temporary files, the chunk being filled included,
        // are unlinked as they drop: here, before the lock, since an
        // unlink may wait on the disk. They are this put's alone.
        self.file = None;
        self.staged.clear();
        let mut guard = self.store.lock_timed(&mut self.lock_wait);
        let inner = &mut *guard;
        let outcome = written.and_then(|()| self.publish(inner, slot, world));
        self.release(inner);

        let new_bytes: u64 = self.created.iter().map(|key| key.len as u64).sum();
        let c = &mut inner.counters;
        c.bytes_ingested += self.len;
        c.chunk_files_written += files;
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
            if m.len == self.len && (m.digest == digest || self.other_version_of(m)) {
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
                if Store::unref(inner, key) {
                    self.store.discard(inner, key);
                }
            }
            return Err(e);
        }
        Ok(true)
    }

    /// Whether the slot's record `m` and this one are records of
    /// different format versions, whose digests differ by their hashes
    /// whatever the records hold. Reads the stored record's prefix: only
    /// a digest mismatch asks.
    fn other_version_of(&self, m: &Manifest) -> bool {
        let Some(offered) = self.digest.version() else {
            return false;
        };
        let Some(first) = m.chunks.first() else {
            return false;
        };
        let mut head = [0u8; PREFIX_LEN];
        let read =
            fs::File::open(self.store.chunk_path(first)).and_then(|mut f| f.read_exact(&mut head));
        read.is_ok() && record_version(&head).is_some_and(|stored| stored != offered)
    }

    /// Under the lock: return the reservations. They have served — the
    /// manifest holds its own references now, or nothing of this put is
    /// to remain, in which case a chunk it named that no manifest and
    /// no other put in flight relies on is reclaimed.
    fn release(&self, inner: &mut Inner) {
        for key in &self.held {
            if Store::unref(inner, key) {
                self.store.discard(inner, key);
            }
        }
        for key in &self.created {
            let Some(count) = inner.pending.get_mut(key) else {
                continue;
            };
            *count -= 1;
            if *count == 0 {
                inner.pending.remove(key);
                if !inner.refs.contains_key(key) {
                    self.store.discard(inner, key);
                }
            }
        }
    }
}

/// A stored shard being read back, chunk file by chunk file, a block
/// at a time.
#[derive(Debug)]
pub struct ShardStream<'a> {
    store: &'a Store,
    manifest: Manifest,
    next_chunk: usize,
    /// The chunk file being read, and how many of its bytes are not.
    file: Option<fs::File>,
    unread: u64,
    /// The last block read from it; `pos` of its bytes are delivered.
    block: Vec<u8>,
    pos: usize,
    /// A read that spans blocks, put together.
    stitched: Vec<u8>,
    remaining: u64,
    digest: RecordDigest,
}

impl RecordStream for ShardStream<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read(&mut self, n: usize) -> Result<&[u8], StoreError> {
        if self.pos == self.block.len() && n > 0 {
            self.refill()?;
        }
        let block = if self.block.len() - self.pos >= n {
            self.pos += n;
            &self.block[self.pos - n..self.pos]
        } else {
            self.stitched.clear();
            while self.stitched.len() < n {
                if self.pos == self.block.len() {
                    self.refill()?;
                }
                let k = (self.block.len() - self.pos).min(n - self.stitched.len());
                self.stitched
                    .extend_from_slice(&self.block[self.pos..self.pos + k]);
                self.pos += k;
            }
            &self.stitched
        };
        self.digest.update(block);
        self.remaining -= n as u64;
        // Only the read of the last byte needs the (finished) hash.
        if self.remaining == 0 {
            let computed = self.digest.value();
            if computed != self.manifest.digest {
                return Err(StoreError::Format(CheckpointError::ChecksumMismatch {
                    stored: self.manifest.digest,
                    computed,
                }));
            }
        }
        Ok(block)
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

impl ShardStream<'_> {
    /// Read the next block, from the next chunk file once this one is
    /// read to its end.
    fn refill(&mut self) -> Result<(), StoreError> {
        if self.unread == 0 {
            self.open_next()?;
        }
        let key = self.manifest.chunks[self.next_chunk - 1];
        let file = self.file.as_mut().expect("a chunk file is open");
        self.block
            .resize(self.unread.min(IO_BLOCK as u64) as usize, 0);
        self.pos = 0;
        self.unread -= self.block.len() as u64;
        file.read_exact(&mut self.block)
            .map_err(|e| io_err("read", &self.store.chunk_path(&key), e))
    }

    fn open_next(&mut self) -> Result<(), StoreError> {
        let key = self
            .manifest
            .chunks
            .get(self.next_chunk)
            .ok_or_else(|| StoreError::Io("read past the end of a stored shard".to_string()))?;
        self.next_chunk += 1;
        let path = self.store.chunk_path(key);
        let file = fs::File::open(&path).map_err(|e| io_err("read", &path, e))?;
        let on_disk = file.metadata().map_err(|e| io_err("read", &path, e))?.len();
        if on_disk != key.len as u64 {
            return Err(StoreError::Io(format!(
                "chunk {} is {on_disk} bytes, expected {}",
                path.display(),
                key.len
            )));
        }
        self.file = Some(file);
        self.unread = key.len as u64;
        Ok(())
    }
}

/// Parse the index. A checksum-mismatched or malformed line is skipped,
/// not a stop: index lines are independent facts, and `reconcile`
/// rebuilds refcounts and drops whatever a lost line leaves dangling.
fn load_index(text: &str) -> Inner {
    let mut inner = Inner::default();
    for line in text.lines() {
        let Some(payload) = unframe_line(line) else {
            continue;
        };
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
/// files nothing references into the trash. Returns the orphan count.
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

    // Into the trash, not unlinked here: a put of this process may take
    // a swept name (`put-0-0.tmp`, a chunk's) before the reaper gets to it.
    let orphans = on_disk
        .into_iter()
        .filter(|key| !inner.refs.contains_key(key));
    let swept: Vec<PathBuf> = strays
        .into_iter()
        .chain(orphans.map(|key| chunks_dir.join(key.file_name())))
        .collect();
    for path in &swept {
        inner.trash.discard(path);
    }
    swept.len() as u64
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
    fn open_rewrites_the_index_only_when_it_changes() {
        use std::os::unix::fs::MetadataExt;
        let root = scratch("rewrite");
        {
            let store = Store::open_with_chunk_size(&root, 512).unwrap();
            store
                .put_shard(0xA, 1, 0, 1, &record(1, 0, 0, 900))
                .unwrap();
            store.commit(0xA, 1, 1).unwrap();
            store
                .put_shard(0xB, 1, 0, 1, &record(1, 0, 1, 900))
                .unwrap();
        }
        let index = root.join("index");
        let inode = || fs::metadata(&index).unwrap().ino();
        let written = inode();
        drop(Store::open_with_chunk_size(&root, 512).unwrap());
        assert_eq!(inode(), written, "a clean index is left as it is");

        // A lost chunk drops B's manifest: the index is rewritten without it.
        let lines = fs::read_to_string(&index).unwrap();
        let b_line = lines
            .lines()
            .find(|l| l.contains(" 000000000000000b "))
            .unwrap();
        let first = b_line
            .rsplit(' ')
            .next()
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let (hash, len) = first.split_once(':').unwrap();
        fs::remove_file(root.join("chunks").join(format!("{hash}-{len}.chk"))).unwrap();
        drop(Store::open_with_chunk_size(&root, 512).unwrap());
        assert_ne!(inode(), written);
        let after = fs::read_to_string(&index).unwrap();
        assert_eq!(after.lines().count(), lines.lines().count() - 1);
        assert!(!after.contains(" 000000000000000b "));

        // An index that is not text says nothing: it is rewritten empty.
        fs::write(&index, [0xff, 0xfe, b'\n']).unwrap();
        drop(Store::open_with_chunk_size(&root, 512).unwrap());
        assert_eq!(fs::read(&index).unwrap(), b"");
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
