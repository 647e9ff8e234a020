//! Coordinated checkpoint writing with an atomic commit protocol.
//!
//! Each rank writes its own shard; a checkpoint only counts once a `COMMIT`
//! manifest exists in its step directory. The protocol:
//!
//! 1. every rank publishes `rank_NNNN.agck` through [`write_atomic`]
//!    (tmp, fsync, rename: a shard is either absent or complete);
//! 2. barrier — all shards are now durable;
//! 3. rank 0 verifies the shard count and publishes `COMMIT` the same way
//!    (the atomic commit point);
//! 4. barrier — every rank knows the checkpoint committed.
//!
//! A crash between (1) and (3) leaves an uncommitted directory that restart
//! ignores; recovery always resumes from the *latest committed* step.

use crate::checkpoint::{
    CheckpointError, Fnv1a, ModelCheckpoint, RecordSink, RecordSource, RecordStream,
};
use agcm_grid::history::ByteOrder;
use agcm_mps::Comm;
use std::fmt;
use std::fs;
use std::io::{BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors from the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure, with context.
    Io(String),
    /// A shard failed to decode.
    Format(CheckpointError),
    /// A shard's metadata disagrees with what was asked for.
    ShardMismatch {
        /// What the caller expected (step, rank).
        expected: (u64, u32),
        /// What the shard recorded.
        found: (u64, u32),
    },
    /// Commit was attempted with shards missing.
    IncompleteCheckpoint {
        /// Step being committed.
        step: u64,
        /// Shards present.
        present: usize,
        /// Shards required (world size).
        required: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            StoreError::Format(e) => write!(f, "checkpoint format error: {e}"),
            StoreError::ShardMismatch { expected, found } => write!(
                f,
                "shard mismatch: expected step {}/rank {}, found step {}/rank {}",
                expected.0, expected.1, found.0, found.1
            ),
            StoreError::IncompleteCheckpoint {
                step,
                present,
                required,
            } => write!(
                f,
                "refusing to commit step {step}: {present} of {required} shards present"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Format(e) => Some(e),
            _ => None,
        }
    }
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx} {}: {e}", path.display()))
}

/// Publish what `fill` writes at `path` atomically: create `<path>.tmp`,
/// let `fill` write it, fsync it, rename over `path`. A reader sees the
/// old content, or nothing, or all of the new. The temporary file is
/// removed (best effort) on failure.
fn publish_atomic(
    path: &Path,
    fill: impl FnOnce(&mut fs::File, &Path) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        fill(&mut f, &tmp)?;
        f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Publish `bytes` at `path` atomically: write `<path>.tmp`, fsync it,
/// rename over `path`. A reader sees the old content, or nothing, or all of
/// `bytes`. The temporary file is removed (best effort) on failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    publish_atomic(path, |f, tmp| {
        f.write_all(bytes).map_err(|e| io_err("write", tmp, e))
    })
}

/// A file being written as a [`RecordSink`].
struct FileSink<'a> {
    file: &'a mut fs::File,
    path: &'a Path,
    digest: Fnv1a,
}

impl RecordSink for FileSink<'_> {
    fn write(&mut self, block: &[u8]) -> Result<(), StoreError> {
        self.digest.update(block);
        self.file
            .write_all(block)
            .map_err(|e| io_err("write", self.path, e))
    }
    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

/// A file being read as a [`RecordStream`].
struct FileStream {
    file: BufReader<fs::File>,
    path: PathBuf,
    remaining: u64,
    /// The bytes delivered last.
    block: Vec<u8>,
    digest: Fnv1a,
}

impl RecordStream for FileStream {
    fn remaining(&self) -> u64 {
        self.remaining
    }
    fn read(&mut self, n: usize) -> Result<&[u8], StoreError> {
        self.block.resize(n, 0);
        self.file
            .read_exact(&mut self.block)
            .map_err(|e| io_err("read", &self.path, e))?;
        self.digest.update(&self.block);
        self.remaining -= n as u64;
        Ok(&self.block)
    }
    fn digest(&self) -> u64 {
        self.digest.value()
    }
}

/// Byte-level storage for checkpoint shards, the seam behind
/// [`CheckpointStore`].
///
/// [`CheckpointStore::new`] stores each shard as a file under
/// `step_XXXXXXXX/` and publishes a `COMMIT` manifest; another backend
/// replaces that directory layout with its own storage (e.g. the
/// content-addressed fleet store in `agcm-ckptstore`) while the commit
/// protocol, encoding, and recovery loop above it stay unchanged. A
/// backend speaks encoded records, not `ModelCheckpoint` values, so the
/// checksummed wire format is the unit of storage everywhere — in
/// streamed form ([`RecordSource`] in, [`RecordStream`] out), so that
/// neither side ever holds a whole record in memory.
///
/// `committed_steps` is also the reuse surface: a backend may report
/// steps committed by *another* job with the same lineage, which is how
/// fleet-wide prefix reuse reaches the recovery loop without it knowing.
pub trait ShardBackend: Send + Sync {
    /// Store one rank's encoded shard for `step`. Must be atomic: a
    /// concurrent reader sees the whole record or nothing.
    fn put_shard(
        &self,
        step: u64,
        rank: u32,
        world: u32,
        record: &dyn RecordSource,
    ) -> Result<(), StoreError>;
    /// Publish `step` as committed once all `world` shards are stored.
    fn commit(&self, step: u64, world: u32) -> Result<(), StoreError>;
    /// Steps visible as committed, ascending.
    fn committed_steps(&self) -> Vec<u64>;
    /// Open the encoded shard for `(step, rank)` for reading.
    fn open_shard(&self, step: u64, rank: u32) -> Result<Box<dyn RecordStream + '_>, StoreError>;
    /// Shards present for `step`.
    fn shard_count(&self, step: u64) -> usize;
    /// Drop every committed step older than the newest `keep`, returning
    /// the steps removed. The default keeps everything: a shared store's
    /// refcounted GC owns lifetime there.
    fn prune(&self, _keep: usize) -> Vec<u64> {
        Vec::new()
    }
}

/// The directory layout as a backend:
/// `root/step_XXXXXXXX/{rank_NNNN.agck..., COMMIT}`.
struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    fn step_dir(&self, step: u64) -> PathBuf {
        self.root.join(format!("step_{step:08}"))
    }

    fn shard_path(&self, step: u64, rank: u32) -> PathBuf {
        self.step_dir(step).join(format!("rank_{rank:04}.agck"))
    }
}

impl ShardBackend for DirBackend {
    fn put_shard(
        &self,
        step: u64,
        rank: u32,
        _world: u32,
        record: &dyn RecordSource,
    ) -> Result<(), StoreError> {
        let dir = self.step_dir(step);
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        publish_atomic(&self.shard_path(step, rank), |file, path| {
            record.write_to(&mut FileSink {
                file,
                path,
                digest: Fnv1a::new(),
            })
        })
    }

    fn commit(&self, step: u64, world: u32) -> Result<(), StoreError> {
        let present = self.shard_count(step);
        if present != world as usize {
            return Err(StoreError::IncompleteCheckpoint {
                step,
                present,
                required: world as usize,
            });
        }
        write_atomic(
            &self.step_dir(step).join("COMMIT"),
            format!("step {step} world {world}\n").as_bytes(),
        )
    }

    fn committed_steps(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut steps: Vec<u64> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                let step: u64 = name.strip_prefix("step_")?.parse().ok()?;
                e.path().join("COMMIT").exists().then_some(step)
            })
            .collect();
        steps.sort_unstable();
        steps
    }

    fn open_shard(&self, step: u64, rank: u32) -> Result<Box<dyn RecordStream + '_>, StoreError> {
        let path = self.shard_path(step, rank);
        let file = fs::File::open(&path).map_err(|e| io_err("open", &path, e))?;
        let remaining = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        Ok(Box::new(FileStream {
            file: BufReader::new(file),
            path,
            remaining,
            block: Vec::new(),
            digest: Fnv1a::new(),
        }))
    }

    fn shard_count(&self, step: u64) -> usize {
        let Ok(entries) = fs::read_dir(self.step_dir(step)) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("rank_") && name.ends_with(".agck")
            })
            .count()
    }

    /// Uncommitted (partial) directories are left for inspection.
    fn prune(&self, keep: usize) -> Vec<u64> {
        let mut steps = self.committed_steps();
        steps.truncate(steps.len().saturating_sub(keep));
        for &step in &steps {
            let _ = fs::remove_dir_all(self.step_dir(step));
        }
        steps
    }
}

/// A checkpoint store: the commit protocol, record encoding and shard
/// identity checks over a [`ShardBackend`] — the on-disk directory layout
/// by default.
#[derive(Clone)]
pub struct CheckpointStore {
    root: PathBuf,
    backend: Arc<dyn ShardBackend>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// A store keeping its shards in the directory layout under `root`.
    pub fn new(root: impl Into<PathBuf>) -> CheckpointStore {
        let root = root.into();
        CheckpointStore {
            backend: Arc::new(DirBackend { root: root.clone() }),
            root,
        }
    }

    /// Route shard bytes through `backend` instead of the directory
    /// layout. `root` is kept for display only; no files are written
    /// under it.
    pub fn with_backend(mut self, backend: Arc<dyn ShardBackend>) -> CheckpointStore {
        self.backend = backend;
        self
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Store one rank's shard as a little-endian record (reads
    /// auto-detect the byte order), encoded as the backend consumes it.
    pub fn write_shard(&self, ckpt: &ModelCheckpoint) -> Result<(), StoreError> {
        let record = ckpt.record(ByteOrder::Little);
        self.backend
            .put_shard(ckpt.step, ckpt.rank, ckpt.world, &record)
    }

    /// Count the shards present for `step`.
    pub fn shard_count(&self, step: u64) -> usize {
        self.backend.shard_count(step)
    }

    /// Commit `step`: verify all `world` shards are in place, then publish
    /// it atomically. Rank 0 only.
    pub fn commit(&self, step: u64, world: u32) -> Result<(), StoreError> {
        self.backend.commit(step, world)
    }

    /// Committed steps, ascending.
    pub fn committed_steps(&self) -> Vec<u64> {
        self.backend.committed_steps()
    }

    /// The most recent committed step, if any checkpoint has committed.
    pub fn latest_committed(&self) -> Option<u64> {
        self.committed_steps().into_iter().max()
    }

    /// Load one rank's shard of a committed step, verifying its checksum
    /// and that it is the shard asked for.
    pub fn load_shard(&self, step: u64, rank: u32) -> Result<ModelCheckpoint, StoreError> {
        let mut record = self.backend.open_shard(step, rank)?;
        let (ckpt, _) = ModelCheckpoint::read_from(record.as_mut())?;
        if ckpt.step != step || ckpt.rank != rank {
            return Err(StoreError::ShardMismatch {
                expected: (step, rank),
                found: (ckpt.step, ckpt.rank),
            });
        }
        Ok(ckpt)
    }

    /// Drop every *committed* checkpoint older than `keep` steps back from
    /// the newest, returning the steps removed (see
    /// [`ShardBackend::prune`]).
    pub fn prune(&self, keep: usize) -> Vec<u64> {
        self.backend.prune(keep)
    }
}

/// Collectively write and commit one checkpoint: every rank of `comm`
/// calls this with its own shard (all sharing the same `step`).
pub fn write_coordinated(
    comm: &Comm,
    store: &CheckpointStore,
    ckpt: &ModelCheckpoint,
) -> Result<(), StoreError> {
    let result = store.write_shard(ckpt);
    // Barrier even on error: peers must not commit a checkpoint this rank
    // failed to join. The error is returned after the collective completes;
    // commit refuses if the shard count is short.
    comm.barrier();
    result?;
    let commit_result = if comm.rank() == 0 {
        store.commit(ckpt.step, ckpt.world)
    } else {
        Ok(())
    };
    comm.barrier();
    commit_result
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::field::Field3D;
    use agcm_mps::runtime::run;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch directory per test (no external tempdir crate).
    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("agcm-resilience-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn shard(step: u64, rank: u32, world: u32) -> ModelCheckpoint {
        ModelCheckpoint {
            rank,
            world,
            step,
            seeds: vec![rank as u64],
            scalars: vec![],
            series: vec![step as f64],
            fields: vec![Field3D::from_fn(3, 2, 1, |i, j, _| {
                (rank as usize + i * j) as f64
            })],
        }
    }

    #[test]
    fn uncommitted_checkpoint_is_invisible() {
        let store = CheckpointStore::new(scratch("uncommitted"));
        store.write_shard(&shard(5, 0, 2)).unwrap();
        store.write_shard(&shard(5, 1, 2)).unwrap();
        assert_eq!(store.latest_committed(), None);
        store.commit(5, 2).unwrap();
        assert_eq!(store.latest_committed(), Some(5));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn commit_refuses_missing_shards() {
        let store = CheckpointStore::new(scratch("missing"));
        store.write_shard(&shard(3, 0, 4)).unwrap();
        assert_eq!(
            store.commit(3, 4),
            Err(StoreError::IncompleteCheckpoint {
                step: 3,
                present: 1,
                required: 4
            })
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn load_roundtrips_and_checks_identity() {
        let store = CheckpointStore::new(scratch("load"));
        let original = shard(9, 1, 2);
        store.write_shard(&original).unwrap();
        assert_eq!(store.load_shard(9, 1).unwrap(), original);
        assert!(matches!(store.load_shard(9, 0), Err(StoreError::Io(_))));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn latest_committed_picks_newest() {
        let store = CheckpointStore::new(scratch("latest"));
        for step in [2u64, 7, 4] {
            store.write_shard(&shard(step, 0, 1)).unwrap();
            store.commit(step, 1).unwrap();
        }
        // A newer but uncommitted step must be ignored.
        store.write_shard(&shard(11, 0, 1)).unwrap();
        assert_eq!(store.committed_steps(), vec![2, 4, 7]);
        assert_eq!(store.latest_committed(), Some(7));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn prune_keeps_newest_committed() {
        let store = CheckpointStore::new(scratch("prune"));
        for step in [1u64, 2, 3, 4] {
            store.write_shard(&shard(step, 0, 1)).unwrap();
            store.commit(step, 1).unwrap();
        }
        assert_eq!(store.prune(2), vec![1, 2]);
        assert_eq!(store.committed_steps(), vec![3, 4]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_shard_fails_to_load() {
        let store = CheckpointStore::new(scratch("corrupt"));
        store.write_shard(&shard(1, 0, 1)).unwrap();
        let path = store.root().join("step_00000001/rank_0000.agck");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_shard(1, 0),
            Err(StoreError::Format(CheckpointError::ChecksumMismatch { .. }))
        ));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn directory_layout_is_the_one_earlier_versions_wrote() {
        // The layout built by hand: what every earlier version left on
        // disk, and byte for byte what a store writes today.
        let root = scratch("layout");
        let dir = root.join("step_00000005");
        fs::create_dir_all(&dir).unwrap();
        let written = CheckpointStore::new(scratch("layout-written"));
        for rank in 0..2 {
            let record = shard(5, rank, 2).encode(ByteOrder::Little);
            fs::write(dir.join(format!("rank_{rank:04}.agck")), record).unwrap();
            written.write_shard(&shard(5, rank, 2)).unwrap();
        }
        fs::write(dir.join("COMMIT"), "step 5 world 2\n").unwrap();
        written.commit(5, 2).unwrap();
        for file in ["rank_0000.agck", "rank_0001.agck", "COMMIT"] {
            let theirs = fs::read(written.root().join("step_00000005").join(file)).unwrap();
            assert_eq!(theirs, fs::read(dir.join(file)).unwrap(), "{file}");
        }

        let store = CheckpointStore::new(&root);
        assert_eq!(store.committed_steps(), vec![5]);
        assert_eq!(store.load_shard(5, 1).unwrap(), shard(5, 1, 2));
        assert_eq!(store.prune(0), vec![5]);
        assert!(!dir.exists());
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(written.root());
    }

    /// A write that fails after the temporary file exists (its name is a
    /// symlink to the always-full device) leaves neither it nor the target.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_atomic_write_leaves_no_tmp_and_no_target() {
        let dir = scratch("atomic-fail");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("index");
        std::os::unix::fs::symlink("/dev/full", dir.join("index.tmp")).unwrap();
        let err = write_atomic(&target, &[7u8; 4096]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "dir left empty");
        // The success path publishes the bytes and leaves no tmp either.
        write_atomic(&target, b"payload").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"payload");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    struct MemStream {
        record: Vec<u8>,
        delivered: usize,
        digest: Fnv1a,
    }

    impl RecordStream for MemStream {
        fn remaining(&self) -> u64 {
            (self.record.len() - self.delivered) as u64
        }
        fn read(&mut self, n: usize) -> Result<&[u8], StoreError> {
            let block = &self.record[self.delivered..self.delivered + n];
            self.digest.update(block);
            self.delivered += n;
            Ok(block)
        }
        fn digest(&self) -> u64 {
            self.digest.value()
        }
    }

    /// Minimal in-memory backend: enough to prove the delegation seam.
    #[derive(Default)]
    struct MemBackend {
        shards: std::sync::Mutex<std::collections::HashMap<(u64, u32), Vec<u8>>>,
        committed: std::sync::Mutex<std::collections::BTreeSet<u64>>,
    }

    impl ShardBackend for MemBackend {
        fn put_shard(
            &self,
            step: u64,
            rank: u32,
            _world: u32,
            record: &dyn RecordSource,
        ) -> Result<(), StoreError> {
            let mut sink = crate::checkpoint::VecSink::default();
            record.write_to(&mut sink)?;
            self.shards.lock().unwrap().insert((step, rank), sink.buf);
            Ok(())
        }
        fn commit(&self, step: u64, world: u32) -> Result<(), StoreError> {
            let present = self.shard_count(step);
            if present != world as usize {
                return Err(StoreError::IncompleteCheckpoint {
                    step,
                    present,
                    required: world as usize,
                });
            }
            self.committed.lock().unwrap().insert(step);
            Ok(())
        }
        fn committed_steps(&self) -> Vec<u64> {
            self.committed.lock().unwrap().iter().copied().collect()
        }
        fn open_shard(
            &self,
            step: u64,
            rank: u32,
        ) -> Result<Box<dyn RecordStream + '_>, StoreError> {
            let shards = self.shards.lock().unwrap();
            let record = shards
                .get(&(step, rank))
                .ok_or_else(|| StoreError::Io(format!("no shard for step {step} rank {rank}")))?;
            Ok(Box::new(MemStream {
                record: record.clone(),
                delivered: 0,
                digest: Fnv1a::new(),
            }))
        }
        fn shard_count(&self, step: u64) -> usize {
            self.shards
                .lock()
                .unwrap()
                .keys()
                .filter(|(s, _)| *s == step)
                .count()
        }
    }

    #[test]
    fn backend_routes_shards_away_from_the_directory_layout() {
        let store =
            CheckpointStore::new(scratch("backend")).with_backend(Arc::new(MemBackend::default()));
        store.write_shard(&shard(4, 0, 1)).unwrap();
        assert_eq!(store.shard_count(4), 1);
        assert_eq!(store.latest_committed(), None, "uncommitted is invisible");
        store.commit(4, 1).unwrap();
        assert_eq!(store.latest_committed(), Some(4));
        assert_eq!(store.load_shard(4, 0).unwrap(), shard(4, 0, 1));
        assert!(store.prune(0).is_empty(), "prune defers to backend GC");
        assert!(
            !store.root().exists(),
            "backend-wired store writes nothing under its root"
        );
    }

    #[test]
    fn backend_commit_refuses_missing_shards() {
        let store = CheckpointStore::new(scratch("backend-miss"))
            .with_backend(Arc::new(MemBackend::default()));
        store.write_shard(&shard(2, 0, 3)).unwrap();
        assert_eq!(
            store.commit(2, 3),
            Err(StoreError::IncompleteCheckpoint {
                step: 2,
                present: 1,
                required: 3
            })
        );
    }

    #[test]
    fn coordinated_write_commits_across_ranks() {
        let store = CheckpointStore::new(scratch("coordinated"));
        let s = &store;
        run(4, |c| {
            let ckpt = shard(6, c.rank() as u32, 4);
            write_coordinated(c, s, &ckpt).unwrap();
        });
        assert_eq!(s.latest_committed(), Some(6));
        assert_eq!(s.shard_count(6), 4);
        for rank in 0..4 {
            assert_eq!(s.load_shard(6, rank).unwrap().rank, rank);
        }
        let _ = fs::remove_dir_all(store.root());
    }
}
