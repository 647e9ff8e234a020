//! The durable-write path (`agcm_resilience::durable`): a failed
//! publish leaves nothing behind, a batch publishes every file, and a
//! line log closes on a failed write, rotates its generations and is
//! rewritten when its compaction rule says so.

use agcm_resilience::durable::{publish_all, write_atomic, LineLog, Staged, COMPACTION_FLOOR};
use agcm_resilience::StoreError;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per test (no external tempdir crate).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("agcm-durable-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A write that fails after the temporary file exists (its name is a
/// symlink to the always-full device) leaves neither it nor the target.
#[cfg(target_os = "linux")]
#[test]
fn failed_atomic_write_leaves_no_tmp_and_no_target() {
    let dir = scratch("atomic-fail");
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

#[test]
fn a_batch_publishes_every_file_and_unpublished_ones_are_removed() {
    let dir = scratch("batch");
    let mut batch = Vec::new();
    for n in 0..3 {
        let mut staged = Staged::create(dir.join(format!("put-{n}.tmp"))).unwrap();
        staged.write_all(format!("chunk {n}").as_bytes()).unwrap();
        batch.push((staged, dir.join(format!("chunk-{n}"))));
    }
    let dropped = Staged::create(dir.join("put-9.tmp")).unwrap();
    assert!(dir.join("put-9.tmp").exists());
    drop(dropped);
    publish_all(batch).unwrap();
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["chunk-0", "chunk-1", "chunk-2"]);
    assert_eq!(fs::read(dir.join("chunk-2")).unwrap(), b"chunk 2");
    // A failed rename (the target is a non-empty directory) removes
    // the files still staged.
    fs::create_dir_all(dir.join("busy/inner")).unwrap();
    let staged = Staged::create(dir.join("put-busy.tmp")).unwrap();
    assert!(publish_all(vec![(staged, dir.join("busy"))]).is_err());
    assert!(!dir.join("put-busy.tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// The log on a symlink to the always-full device: the first append
/// fails, the log says it is closed, and later appends write nothing.
/// The log is opened on the symlink directly, since replaying from
/// `/dev/full` would read zeros forever.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_append_closes_the_log() {
    let dir = scratch("full");
    let path = dir.join("jobs.log");
    std::os::unix::fs::symlink("/dev/full", &path).unwrap();
    let mut log = LineLog::open(&path).unwrap();
    assert!(!log.is_closed());
    assert!(log.append("first\n").is_err());
    assert!(log.is_closed());
    assert!(log.append("second\n").is_err());
    assert_eq!(log.written(), 0);
    // A closed log stays closed: it is not rewritten.
    assert!(log.rewrite(b"live\n").is_err());
    assert!(log.is_closed());
    let _ = fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn a_rewrite_replaces_the_file_and_a_failed_one_keeps_the_old() {
    let dir = scratch("rewrite");
    let path = dir.join("jobs.log");
    let mut log = LineLog::open(&path).unwrap();
    log.append("live\n").unwrap();
    // Dead bytes must pass both the live ones and the floor.
    while log.written() - 5 <= COMPACTION_FLOOR {
        assert!(!log.compaction_due(5));
        log.append("dead line\n").unwrap();
    }
    assert!(log.compaction_due(5));
    assert!(!log.compaction_due(log.written() / 2));
    // A publish that fails (its temporary name leads to the full device)
    // leaves the old file, still open for append.
    let tmp = dir.join("jobs.log.tmp");
    std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
    let before = fs::read(&path).unwrap();
    assert!(log.rewrite(b"live\n").is_err());
    assert!(!log.is_closed());
    assert_eq!(fs::read(&path).unwrap(), before);
    log.append("after\n").unwrap();
    // A rewrite that succeeds replaces the file, and appends follow it.
    let _ = fs::remove_file(&tmp);
    log.rewrite(b"live\n").unwrap();
    assert_eq!(log.written(), 5);
    log.append("next\n").unwrap();
    assert_eq!(fs::read_to_string(&path).unwrap(), "live\nnext\n");
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temporary left");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn appends_count_bytes_and_rotation_shifts_generations() {
    let dir = scratch("rotate");
    let path = dir.join("events.log");
    fs::write(&path, "old\n").unwrap();
    let mut log = LineLog::open(&path).unwrap();
    assert_eq!(log.written(), 4, "counts what the file held at open");
    log.append("one\n").unwrap();
    assert_eq!(log.written(), 8);
    log.rotate(2).unwrap();
    log.append("two\n").unwrap();
    log.rotate(2).unwrap();
    log.append("three\n").unwrap();
    log.rotate(2).unwrap();
    assert_eq!(log.written(), 0);
    assert_eq!(fs::read_to_string(&path).unwrap(), "");
    assert_eq!(
        fs::read_to_string(dir.join("events.log.1")).unwrap(),
        "three\n"
    );
    assert_eq!(
        fs::read_to_string(dir.join("events.log.2")).unwrap(),
        "two\n"
    );
    assert!(!dir.join("events.log.3").exists());
    log.rotate(0).unwrap();
    assert!(!log.is_closed());
    let _ = fs::remove_dir_all(&dir);
}
