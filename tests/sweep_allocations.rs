//! Allocation discipline of the flat sweep: after warm-up, the stop
//! loop must run out of the [`SweepScratch`] arena and the amortized
//! growth of the net/fragment tables — O(1) allocations per stop, not
//! O(layers) or O(active boxes) per stop as the old per-stop `Vec`
//! rebuild did.
//!
//! The workload is a single vertical chain of overlapping metal boxes:
//! every box adds two scanline stops but the output stays one net and
//! zero devices, so any allocation growth beyond `Vec` doubling is a
//! per-stop allocation in the hot path.
//!
//! The banded path has the matching discipline one level up: a band's
//! window-mode finalize and the seam stitch must allocate in
//! proportion to the seams (contacts and partial devices), not to the
//! devices, or two threads cannot beat one sweep.
//!
//! The counting `#[global_allocator]` is process-global, so the tests
//! here take a lock and never count concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ace_core::{extract_banded, extract_flat, ExtractOptions, Extraction};
use ace_layout::{band_cuts, FlatLayout, Library};
use ace_workloads::mesh::mesh_cif;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// `n` metal boxes stacked vertically, each overlapping the next:
/// one net, no devices, `2n` distinct scanline stops.
fn stacked_cif(n: i64) -> String {
    let mut cif = String::from("L NM;");
    for i in 0..n {
        // 400 tall at a 300 pitch: consecutive boxes overlap by 100.
        cif.push_str(&format!(" B 400 400 0 {};", i * 300));
    }
    cif.push_str(" E");
    cif
}

fn flat(n: i64) -> FlatLayout {
    let lib = Library::from_cif_text(&stacked_cif(n)).expect("stack CIF parses");
    FlatLayout::from_library(&lib)
}

/// Allocations made while `extract` runs on a copy of `flat`,
/// excluding the copy and the result's drop.
fn allocs_during(
    flat: &FlatLayout,
    extract: impl FnOnce(FlatLayout) -> Extraction,
) -> (u64, Extraction) {
    let input = flat.clone();
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = extract(input);
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), result)
}

fn allocs_during_extract(flat: &FlatLayout) -> u64 {
    let (allocs, result) = allocs_during(flat, |input| {
        extract_flat(input, "stack", ExtractOptions::new()).expect("stack extracts")
    });
    assert_eq!(result.netlist.device_count(), 0);
    allocs
}

#[test]
fn flat_sweep_allocates_o1_per_stop() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small = flat(64);
    let large = flat(512);

    // Warm-up: fault in lazily initialized runtime state so neither
    // counted run pays one-time costs.
    allocs_during_extract(&small);
    allocs_during_extract(&large);

    let small_allocs = allocs_during_extract(&small);
    let large_allocs = allocs_during_extract(&large);
    assert!(small_allocs > 0, "counting allocator saw nothing");

    // 448 extra boxes add 896 extra stops. If the hot path allocated
    // even once per stop the delta would exceed that; amortized `Vec`
    // doubling across the whole run is a few dozen allocations.
    let extra_stops = 2 * (512 - 64) as u64;
    let delta = large_allocs.saturating_sub(small_allocs);
    assert!(
        delta < extra_stops,
        "sweep allocates per stop: {small_allocs} allocs at 64 boxes vs \
         {large_allocs} at 512 ({delta} extra for {extra_stops} extra stops)"
    );
}

/// Allocations a two-band extraction of the n×n mesh makes beyond one
/// flat sweep of it, and the mesh's device count. Both sweep the same
/// devices, so the difference is what banding adds: partitioning, the
/// band finalizes' window output, and the stitch.
fn banding_overhead(n: u32) -> (u64, usize) {
    let flat = FlatLayout::from_library(&Library::from_cif_text(&mesh_cif(n)).expect("mesh CIF"));
    let cuts = band_cuts(&flat, 2);
    assert_eq!(cuts.len(), 1, "the mesh cuts into two bands");
    let options = ExtractOptions::new();
    let run_flat = |input| extract_flat(input, "mesh", options).expect("flat");
    let run_banded = |input| extract_banded(input, "mesh", options, &cuts).expect("banded");
    // Warm-up, as above.
    allocs_during(&flat, run_flat);
    allocs_during(&flat, run_banded);
    let (flat_allocs, one) = allocs_during(&flat, run_flat);
    let (banded_allocs, two) = allocs_during(&flat, run_banded);
    assert_eq!(one.netlist.device_count(), two.netlist.device_count());
    assert!(
        two.report.stitch.seam_contacts > 0,
        "the cut is a real seam"
    );
    (
        banded_allocs.saturating_sub(flat_allocs),
        two.netlist.device_count(),
    )
}

#[test]
fn band_finalize_and_stitch_allocate_per_seam_not_per_device() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (small, small_devices) = banding_overhead(32);
    let (large, large_devices) = banding_overhead(64);
    assert_eq!(large_devices, 4 * small_devices);

    // Doubling n quadruples the devices but only doubles the seam
    // (and the boxes partitioning clips). Per-device allocations in
    // the band output or the stitch would quadruple the overhead.
    assert!(
        large < 3 * small,
        "banding allocates per device: {small} extra allocations at \
         {small_devices} devices vs {large} at {large_devices}"
    );
    // And it stays well under one allocation per device.
    assert!(
        (large as usize) < large_devices / 2,
        "banding overhead {large} is not small beside {large_devices} devices"
    );
}
