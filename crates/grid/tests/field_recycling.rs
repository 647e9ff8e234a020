//! The process-wide field-storage recycle list, seen through
//! `HaloField`: a field dropped on one thread is the storage of the next
//! field of its padded length built on another, zero-filled. The list is
//! process-wide, so this file holds exactly one test.

use agcm_grid::halo::{storage_stats, HaloField};

#[test]
fn a_field_dropped_on_one_thread_is_rebuilt_zeroed_on_another() {
    // 61 × 53 × 7 interior, 63 × 55 × 7 padded: ≈ 194 KB, above the size
    // that bypasses the list, and a shape nothing else builds.
    let (ni, nj, nk) = (61, 53, 7);
    let ptr = std::thread::spawn(move || {
        let mut f = HaloField::zeros(ni, nj, nk, 1);
        f.as_mut_slice().fill(3.5);
        f.padded().as_ptr() as usize
    })
    .join()
    .unwrap();
    let before = storage_stats();
    assert!(before.retained_bytes >= 63 * 55 * 7 * 8, "{before:?}");

    let (again, zeroed) = std::thread::spawn(move || {
        let f = HaloField::zeros(ni, nj, nk, 1);
        let zeroed = f.padded().iter().all(|&x| x == 0.0);
        (f.padded().as_ptr() as usize, zeroed)
    })
    .join()
    .unwrap();
    assert_eq!(again, ptr, "the dropped field's buffer came back");
    assert!(zeroed, "a recycled buffer is zero-filled, ghosts included");
    assert_eq!(storage_stats().hits, before.hits + 1);
}
