//! The one durable-write path: every file the workspace publishes and
//! every line log it appends goes through here.
//!
//! **Publish**: write a temporary file ([`Staged`]), fsync it, rename it
//! over its name, fsync the directory. The rename makes the publish
//! atomic to a reader; the file fsync makes a name never exist without
//! durable content; the directory fsync makes the rename itself survive
//! an OS crash (Pillai et al., "All File Systems Are Not Created Equal",
//! OSDI 2014). [`publish_all`] is the batch form (the fleet store's chunk
//! barrier): every file is fsynced before the first rename and each
//! directory once after the last. A staged file dropped unpublished is
//! removed, so no failure path cleans up after itself.
//!
//! **Append**: a [`LineLog`] (the server journal and event log) writes
//! each line whole in one unbuffered `write`, unsynced: a killed process
//! loses nothing it wrote, an OS crash may lose the tail. After a failed
//! write it stays closed and says so.
//!
//! **Compact**: a log whose lines go dead (a finished job's, a replaced
//! entry's) is rewritten to its live lines by [`LineLog::rewrite`], a
//! publish of the new contents, when [`LineLog::compaction_due`] says its
//! dead bytes outweigh both its live bytes and [`COMPACTION_FLOOR`].

use crate::coordinator::{io_err, StoreError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// A file being written under a temporary name, to be published by
/// [`publish_all`]. Dropped unpublished, it removes its file.
#[derive(Debug)]
pub struct Staged {
    file: File,
    tmp: PathBuf,
    published: bool,
}

impl Staged {
    /// Create (or truncate) the temporary file at `tmp`.
    pub fn create(tmp: impl Into<PathBuf>) -> Result<Staged, StoreError> {
        let tmp = tmp.into();
        let file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        Ok(Staged {
            file,
            tmp,
            published: false,
        })
    }

    /// Append `bytes` to the file.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("write", &self.tmp, e))
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.published {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Publish each staged file under the path paired with it: fsync every
/// file, rename each over its path, then fsync each directory once. On
/// an error, what is not yet renamed is removed; what is stays.
pub fn publish_all(mut staged: Vec<(Staged, PathBuf)>) -> Result<(), StoreError> {
    for (s, _) in &staged {
        s.file.sync_all().map_err(|e| io_err("sync", &s.tmp, e))?;
    }
    for (s, path) in &mut staged {
        fs::rename(&s.tmp, &*path).map_err(|e| io_err("rename", &s.tmp, e))?;
        s.published = true;
    }
    let mut dirs: Vec<&Path> = Vec::new();
    for (_, path) in &staged {
        let dir = dir_of(path);
        if !dirs.contains(&dir) {
            sync_dir(dir).map_err(|e| io_err("sync directory", dir, e))?;
            dirs.push(dir);
        }
    }
    Ok(())
}

/// Publish what `fill` writes at `path`: stage `<path>.tmp`, let `fill`
/// write it, then [`publish_all`] it alone.
pub(crate) fn publish(
    path: &Path,
    fill: impl FnOnce(&mut Staged) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut staged = Staged::create(tmp)?;
    fill(&mut staged)?;
    publish_all(vec![(staged, path.to_path_buf())])
}

/// Publish `bytes` at `path`: stage `<path>.tmp`, write, fsync, rename,
/// fsync the directory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    publish(path, |staged| staged.write_all(bytes))
}

/// The directory holding `path` (`.` for a bare file name).
fn dir_of(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsync the directory `dir`, so that the entries renamed or created in
/// it survive an OS crash.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    // Only Unix lets a directory be opened and synced.
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Dead bytes a [`LineLog`] may hold before it is compacted, however few
/// its live bytes. A compaction is one publish (two fsyncs); the floor
/// makes each one save about as much replay as it costs. Opening a server
/// journal of finished jobs (three lines, about 375 bytes each), which
/// replays every line and compacts nothing, against one publish of a
/// small file:
///
/// | dead bytes | finished jobs | open (p25–p75) |
/// |-----------:|--------------:|---------------:|
/// |     16 KiB |            44 |   0.10–0.11 ms |
/// |     32 KiB |            88 |   0.19–0.20 ms |
/// |     63 KiB |           173 |   0.36–0.39 ms |
/// |    publish |               |   0.27–0.32 ms |
///
/// (release build, 2-vCPU VM, ext4 on a virtio disk; about 0.75 µs per
/// replayed line), so the floor's worth of dead history replays in about
/// 1.3 publishes. Above the floor, a log is compacted once its dead bytes
/// exceed its live ones, which bounds it at twice its live bytes, or the
/// floor plus them.
pub const COMPACTION_FLOOR: u64 = 64 * 1024;

/// An append-only file of lines, written one whole line at a time.
#[derive(Debug)]
pub struct LineLog {
    path: PathBuf,
    /// `None` once a write, or a rotation, failed.
    file: Option<File>,
    /// Bytes in the file: its size at open, plus what was appended.
    written: u64,
}

impl LineLog {
    /// Open (or create) the log at `path`, and its directory. Creating
    /// the file fsyncs the directory, so the new entry survives an OS
    /// crash; reopening an existing log syncs nothing.
    pub fn open(path: &Path) -> io::Result<LineLog> {
        fs::create_dir_all(dir_of(path))?;
        let file = match OpenOptions::new().append(true).open(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                sync_dir(dir_of(path))?;
                file
            }
            opened => opened?,
        };
        let written = file.metadata()?.len();
        Ok(LineLog {
            path: path.to_path_buf(),
            file: Some(file),
            written,
        })
    }

    /// Append `line`, which ends in its newline, with one write. A
    /// failed write closes the log: this and every later append return
    /// an error and write nothing.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("log closed after a failed write"))?;
        if let Err(e) = file.write_all(line.as_bytes()) {
            self.file = None;
            return Err(e);
        }
        self.written += line.len() as u64;
        Ok(())
    }

    /// Whether a failed write or rotation closed the log.
    pub fn is_closed(&self) -> bool {
        self.file.is_none()
    }

    /// Bytes in the file.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Whether the log should be compacted, given that `live` of its bytes
    /// are live: when its dead bytes exceed both `live` and
    /// [`COMPACTION_FLOOR`].
    pub fn compaction_due(&self, live: u64) -> bool {
        self.written.saturating_sub(live) > live.max(COMPACTION_FLOOR)
    }

    /// Replace the file with `bytes` through [`write_atomic`] and append
    /// to the new file from then on. A crash leaves the old file or the
    /// new one, never a mix. If the publish fails, the old file stays and
    /// stays open; if the new one cannot be reopened, the log is closed.
    /// A closed log is not rewritten: it stays closed.
    pub fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if self.is_closed() {
            return Err(io_err(
                "rewrite",
                &self.path,
                io::Error::other("log closed after a failed write"),
            ));
        }
        write_atomic(&self.path, bytes)?;
        self.file = None;
        *self = LineLog::open(&self.path).map_err(|e| io_err("reopen", &self.path, e))?;
        Ok(())
    }

    /// Start a fresh file, keeping the current one as `<path>.1` and
    /// shifting older generations up, so at most `keep` survive (with 0,
    /// none); creating the fresh file fsyncs the directory, renames and
    /// all. A filesystem error closes the log rather than leave it to grow
    /// past its cap.
    pub fn rotate(&mut self, keep: usize) -> io::Result<()> {
        self.file = None;
        let generation = |n: usize| PathBuf::from(format!("{}.{n}", self.path.display()));
        if keep == 0 {
            let _ = fs::remove_file(&self.path);
        } else {
            // Each rename replaces the generation above; a missing one
            // leaves a gap, never more than `keep` files.
            for n in (1..keep).rev() {
                let _ = fs::rename(generation(n), generation(n + 1));
            }
            fs::rename(&self.path, generation(1))?;
        }
        *self = LineLog::open(&self.path)?;
        Ok(())
    }
}
