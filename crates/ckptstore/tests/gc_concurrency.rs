//! GC under concurrent writers: the store's central safety claim is
//! that a garbage-collection pass can interleave with live commits and
//! never drop a chunk a leased lineage references — even when the
//! leased and reclaimed lineages share chunks byte-for-byte.

use agcm_ckptstore::Store;
use agcm_resilience::checkpoint::{RecordSink, RecordSource};
use agcm_resilience::coordinator::StoreError;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-ckptstore-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic shard content. `salt == 0` content is shared across
/// every lineage, so dedup makes reclaimed and live lineages reference
/// the same chunk files.
fn record(step: u64, salt: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64 ^ (step * 31) ^ (salt * 131)) as u8)
        .collect()
}

#[test]
fn interleaved_commit_and_reclaim_never_drops_a_referenced_chunk() {
    let store = Arc::new(Store::open_with_chunk_size(scratch("interleave"), 512).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: u64 = 4;
    const STEPS: u64 = 30;

    // A background collector hammering gc() the whole time.
    let collector = {
        let store = store.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut passes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                store.gc().unwrap();
                passes += 1;
                thread::yield_now();
            }
            passes
        })
    };

    // Writers: each leases its own lineage, writes + commits STEPS
    // shards (half shared content, half private), reading back every
    // committed step after each commit — a dropped chunk surfaces as a
    // get_shard failure immediately.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            thread::spawn(move || {
                let lineage = 0x1000 + w;
                store.acquire(lineage, w);
                for step in 1..=STEPS {
                    let salt = if step % 2 == 0 { 0 } else { w + 1 };
                    let rec = record(step, salt, 1800);
                    store.put_shard(lineage, step, 0, 1, &rec).unwrap();
                    store.commit(lineage, step, 1).unwrap();
                    for back in store.committed_steps(lineage) {
                        let got = store.get_shard(lineage, back, 0).unwrap_or_else(|e| {
                            panic!("lineage {lineage:#x} step {back} lost under GC: {e}")
                        });
                        let salt = if back % 2 == 0 { 0 } else { w + 1 };
                        assert_eq!(got, record(back, salt, 1800));
                    }
                }
                // Terminal: release, like a finishing job.
                store.release(lineage, w);
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let passes = collector.join().unwrap();
    assert!(passes > 0, "collector must actually have run");

    // Every lease is released now: one final pass empties the store.
    store.gc().unwrap();
    let stats = store.stats();
    assert_eq!(stats.manifests, 0, "all terminal lineages reclaimed");
    assert_eq!(stats.chunks, 0);
    assert_eq!(stats.live_bytes, 0);
    let leftover = fs::read_dir(store.root().join("chunks")).unwrap().count();
    assert_eq!(leftover, 0, "no chunk files survive full reclamation");
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn reclaiming_a_twin_lineage_mid_run_spares_shared_chunks() {
    let store = Arc::new(Store::open_with_chunk_size(scratch("twin"), 512).unwrap());
    // Twin lineages with identical content: every chunk is shared.
    for step in 1..=10u64 {
        let rec = record(step, 0, 1500);
        store.put_shard(0xA, step, 0, 1, &rec).unwrap();
        store.commit(0xA, step, 1).unwrap();
        store.put_shard(0xB, step, 0, 1, &rec).unwrap();
        store.commit(0xB, step, 1).unwrap();
    }
    store.acquire(0xB, 7);

    // Reclaim the unleased twin while a reader walks the leased one.
    let reader = {
        let store = store.clone();
        thread::spawn(move || {
            for _ in 0..50 {
                for step in 1..=10u64 {
                    assert_eq!(
                        store.get_shard(0xB, step, 0).unwrap(),
                        record(step, 0, 1500)
                    );
                }
                thread::yield_now();
            }
        })
    };
    let report = store.gc().unwrap();
    assert_eq!(report.lineages, vec![0xA]);
    assert_eq!(report.chunks_reclaimed, 0, "all of A's chunks are B's too");
    reader.join().unwrap();

    store.release(0xB, 7);
    let report = store.gc().unwrap();
    assert!(report.chunks_reclaimed > 0);
    assert_eq!(store.stats().chunks, 0);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn orphan_sweep_on_reopen_after_simulated_crash() {
    let root = scratch("crash-reopen");
    {
        let store = Store::open_with_chunk_size(&root, 512).unwrap();
        store.put_shard(0xC, 5, 0, 1, &record(5, 3, 1200)).unwrap();
        store.commit(0xC, 5, 1).unwrap();
    }
    // Simulate a crash mid-put: a chunk file landed but its manifest
    // never reached the index, a torn tmp file, and a chunk half
    // streamed into its temporary file.
    fs::write(root.join("chunks/0123456789abcdef-512.chk"), [7u8; 512]).unwrap();
    fs::write(root.join("chunks/fedcba9876543210-512.tmp"), [7u8; 100]).unwrap();
    fs::write(root.join("chunks/put-4-2.tmp"), [7u8; 300]).unwrap();

    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    assert_eq!(store.stats().orphans_swept, 3);
    assert!(!root.join("chunks/0123456789abcdef-512.chk").exists());
    assert!(!root.join("chunks/put-4-2.tmp").exists());
    // The committed shard survived intact.
    assert_eq!(store.get_shard(0xC, 5, 0).unwrap(), record(5, 3, 1200));
    assert_eq!(store.committed_steps(0xC), vec![5]);
    let _ = fs::remove_dir_all(&root);
}

/// Names of the files in `dir` (none when it does not exist).
fn names(dir: &std::path::Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn gc_frees_every_reclaimed_name_before_it_returns_and_drop_empties_the_trash() {
    let root = scratch("trash-drain");
    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    for lineage in 1..=6u64 {
        store
            .put_shard(lineage, 1, 0, 1, &record(1, lineage, 2000))
            .unwrap();
        store.commit(lineage, 1, 1).unwrap();
    }
    store.acquire(6, 60);
    let before = names(&root.join("chunks"));
    let report = store.gc().unwrap();
    assert_eq!(report.lineages, (1..=5).collect::<Vec<_>>());
    assert!(report.chunks_reclaimed > 0);
    // The reaper may not have unlinked a single file yet, but no
    // reclaimed chunk keeps its name.
    let after = names(&root.join("chunks"));
    assert_eq!(after.len() as u64, store.stats().chunks);
    assert_eq!((before.len() - after.len()) as u64, report.chunks_reclaimed);
    assert!(after.iter().all(|n| before.contains(n)));
    assert_eq!(store.get_shard(6, 1, 0).unwrap(), record(1, 6, 2000));
    drop(store);
    assert_eq!(names(&root.join("trash")), Vec::<String>::new());
    assert_eq!(names(&root.join("chunks")), after);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_chunk_put_again_before_the_reaper_unlinks_it_reads_back() {
    let root = scratch("trash-reput");
    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    let rec = record(1, 0, 1800);
    for round in 0..40u64 {
        // The same content under a new lineage each round, put right
        // after the last round's copy was reclaimed: its chunk names are
        // written anew while the reaper may still hold the old files.
        store.put_shard(round, 1, 0, 1, &rec).unwrap();
        store.commit(round, 1, 1).unwrap();
        assert_eq!(store.stats().chunk_files_written, 2 * (round + 1));
        assert_eq!(store.get_shard(round, 1, 0).unwrap(), rec, "round {round}");
        if round < 39 {
            assert!(store.gc().unwrap().chunks_reclaimed > 0, "round {round}");
        }
    }
    drop(store);
    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    assert_eq!(store.stats().orphans_swept, 0);
    assert_eq!(store.get_shard(39, 1, 0).unwrap(), rec);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn reopening_reaps_a_crash_trash_and_keeps_the_index() {
    let root = scratch("trash-reopen");
    {
        let store = Store::open_with_chunk_size(&root, 512).unwrap();
        store.put_shard(0xC, 5, 0, 1, &record(5, 3, 1200)).unwrap();
        store.commit(0xC, 5, 1).unwrap();
    }
    let index = fs::read(root.join("index")).unwrap();
    // A crash between a reclaim's rename and its unlink: files in the
    // trash under the names reclaims give them.
    fs::create_dir_all(root.join("trash")).unwrap();
    fs::write(
        root.join("trash/0123456789abcdef-512.chk.7-1f-0-3"),
        [7u8; 512],
    )
    .unwrap();
    fs::write(root.join("trash/put-4-2.tmp.7-1f-0-4"), [7u8; 300]).unwrap();

    let store = Store::open_with_chunk_size(&root, 512).unwrap();
    assert_eq!(store.stats().orphans_swept, 0, "trash is not an orphan");
    assert_eq!(store.get_shard(0xC, 5, 0).unwrap(), record(5, 3, 1200));
    assert_eq!(store.committed_steps(0xC), vec![5]);
    drop(store);
    assert_eq!(names(&root.join("trash")), Vec::<String>::new());
    assert_eq!(
        fs::read(root.join("index")).unwrap(),
        index,
        "index rewritten"
    );
    let _ = fs::remove_dir_all(&root);
}

/// A record handed to the store in blocks of `.1` bytes, as an encoder
/// streams it.
struct Blocks<'a>(&'a [u8], usize);

impl RecordSource for Blocks<'_> {
    fn write_to(&self, sink: &mut dyn RecordSink) -> Result<(), StoreError> {
        for block in self.0.chunks(self.1) {
            sink.write(block)?;
            thread::yield_now();
        }
        Ok(())
    }
}

/// Writers whose shards share chunks put them at the same moment (a
/// barrier per step), half of them into their leased lineage and half
/// into an unleased throwaway one that the spinning collector reclaims
/// — so chunks are concurrently being created by several puts, held by
/// others and dropped by `gc`.
/// Afterwards, and again after a reopen, every committed shard must
/// reassemble and the maps must agree with the directory exactly.
#[test]
fn writers_sharing_chunks_race_gc_then_survive_a_reopen() {
    race_writers_and_gc("shared-writers", 512, usize::MAX);
}

/// The same race with every chunk fed in many small blocks, so `gc`
/// runs while the puts' temporary files are half written.
#[test]
fn writers_streaming_chunks_in_small_blocks_race_gc() {
    race_writers_and_gc("streaming-writers", 4096, 300);
}

/// The race above on a store of `chunk`-byte chunks, each record handed
/// over in blocks of `block` bytes.
fn race_writers_and_gc(tag: &str, chunk: usize, block: usize) {
    const WRITERS: u64 = 4;
    const STEPS: u64 = 16;
    let root = scratch(tag);
    let store = Arc::new(Store::open_with_chunk_size(&root, chunk).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let in_step = Arc::new(Barrier::new(WRITERS as usize));

    // Three chunks every writer offers at this step, then a private tail.
    let shard = move |w: u64, step: u64| {
        let mut rec = record(step, 0, 3 * chunk);
        rec.extend_from_slice(&record(step, w + 1, chunk + chunk / 3));
        rec
    };

    let collector = {
        let store = store.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.gc().unwrap();
                thread::yield_now();
            }
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            let in_step = in_step.clone();
            thread::spawn(move || {
                let lineage = 0x2000 + w;
                store.acquire(lineage, w);
                for step in 1..=STEPS {
                    let keep = |store: &Store| {
                        let rec = shard(w, step);
                        store
                            .put_shard_from(lineage, step, 0, 1, &Blocks(&rec, block))
                            .unwrap();
                        store.commit(lineage, step, 1).unwrap();
                    };
                    // Unleased: the collector may reclaim it at once,
                    // while the other half is still writing its chunks.
                    let throw_away = |store: &Store| {
                        let rec = record(step, 0, 3 * chunk);
                        store
                            .put_shard_from(0x9000 + w, step, 0, 1, &Blocks(&rec, block))
                            .unwrap();
                    };
                    in_step.wait();
                    if (w + step) % 2 == 0 {
                        keep(&store);
                        throw_away(&store);
                    } else {
                        throw_away(&store);
                        keep(&store);
                    }
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    collector.join().unwrap();
    store.gc().unwrap();

    let check = |store: &Store| {
        for w in 0..WRITERS {
            let lineage = 0x2000 + w;
            assert_eq!(
                store.committed_steps(lineage),
                (1..=STEPS).collect::<Vec<_>>()
            );
            for step in 1..=STEPS {
                let got = store
                    .get_shard(lineage, step, 0)
                    .unwrap_or_else(|e| panic!("lineage {lineage:#x} step {step} lost: {e}"));
                assert_eq!(got, shard(w, step));
            }
        }
        let names: Vec<String> = fs::read_dir(store.root().join("chunks"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".chk")),
            "temporary files left behind: {names:?}"
        );
        assert_eq!(
            names.len() as u64,
            store.stats().chunks,
            "a chunk file nothing references, or a reference without its file"
        );
    };
    check(&store);
    let live = store.stats();
    assert_eq!(live.manifests, WRITERS * STEPS);

    // Refcounts are recomputed from the manifests on open: they must
    // come out as the live ones, with nothing to sweep.
    drop(store);
    let store = Store::open_with_chunk_size(&root, chunk).unwrap();
    let reopened = store.stats();
    assert_eq!(reopened.orphans_swept, 0);
    assert_eq!(
        (reopened.chunks, reopened.live_bytes, reopened.manifests),
        (live.chunks, live.live_bytes, live.manifests)
    );
    check(&store);

    // Leases died with the old process: one pass drains the store.
    store.gc().unwrap();
    assert_eq!(store.stats().chunks, 0);
    assert_eq!(fs::read_dir(root.join("chunks")).unwrap().count(), 0);
    drop(store);
    assert_eq!(names(&root.join("trash")), Vec::<String>::new());
    let _ = fs::remove_dir_all(&root);
}
