//! Heap allocations per statement, pinned by a counting allocator: an
//! exact, noise-free counter for record decode and molecule assembly,
//! next to the kernel's other exact counters (fix calls, lock
//! acquisitions, snapshot reads).
//!
//! The data is 50 solids of the Fig. 2.3 BREP schema, whose
//! `brep-face-edge-point` molecule holds 79 atoms. Each statement runs a
//! few times to warm the session's scratch before counting starts; a
//! count covers the statement's execution and the drop of its result.
//! Ceilings are per statement, the maximum over several keys.
//!
//! `cargo test --release --test allocations -- --nocapture` prints the
//! counts: 112 for `SELECT ALL`, 270 for the `brep_no` projection, 12
//! for the ad-hoc point query and 10 for the same point query prepared.
//! The ad-hoc ceiling is its count; the others sit a few allocations
//! above theirs. A kernel that builds each projected atom's attribute
//! list per atom takes 353 for the projection, and one that also
//! collects the root bounds, copies each key lookup's encoded key and
//! delivers the roots into a new `Vec` and a SipHash set 17 and 15 for
//! the point queries. A kernel that decodes every atom it reads in full
//! takes 260, 422 and 71 for the first three. One that copies the whole
//! plan on every bind takes 138, 376 and 28 for the prepared statements,
//! and one that parses and plans every ad-hoc text 63 for the ad-hoc one.
//!
//! Allocations of at least one page size are counted apart as well: on a
//! kernel whose buffer holds an eighth of the mesh, a buffer miss must
//! read into the block of a frame an eviction freed, not a new one.

use prima::{Prima, QueryOptions, Value};
use prima_storage::PageSize;
use prima_workloads::brep::{self, BrepConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

/// The smallest page size: an allocation this large or larger may be a
/// page block.
const PAGE_BYTES: usize = PageSize::Half.bytes();

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot itself may be mid-teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        if layout.size() >= PAGE_BYTES {
            let _ = PAGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn page_allocations() -> u64 {
    PAGE_ALLOCS.with(|c| c.get())
}

const SOLIDS: usize = 50;

fn mesh() -> Prima {
    let db = brep::open_db(8 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(SOLIDS)).unwrap();
    db
}

/// The most allocations one call of `op` made, over keys `1..=SOLIDS`,
/// after every key has run once uncounted.
fn max_per_statement(mut op: impl FnMut(i64)) -> u64 {
    for key in 1..=SOLIDS as i64 {
        op(key);
    }
    (1..=SOLIDS as i64)
        .map(|key| {
            let before = allocations();
            op(key);
            allocations() - before
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn statement_allocations() {
    let db = mesh();
    let session = db.session();
    let opts = QueryOptions::new();
    let mut all = session.prepare("SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?").unwrap();
    let select_all = max_per_statement(|key| {
        all.bind(&[Value::Int(key)]).unwrap();
        let r = all.query(&opts).unwrap();
        assert_eq!(r.set.molecules[0].atom_count(), 79);
    });
    let mut projected =
        session.prepare("SELECT brep_no FROM brep-face-edge-point WHERE brep_no = ?").unwrap();
    let select_brep_no = max_per_statement(|key| {
        projected.bind(&[Value::Int(key)]).unwrap();
        let r = projected.query(&opts).unwrap();
        assert_eq!(r.set.molecules.len(), 1);
    });
    let adhoc = max_per_statement(|key| {
        let text = format!("SELECT solid_no, description FROM solid WHERE solid_no = {key}");
        let r = session.query(&text, &opts).unwrap();
        assert_eq!(r.set.molecules.len(), 1);
    });
    let mut point =
        session.prepare("SELECT solid_no, description FROM solid WHERE solid_no = ?").unwrap();
    let prepared = max_per_statement(|key| {
        point.bind(&[Value::Int(key)]).unwrap();
        let r = point.query(&opts).unwrap();
        assert_eq!(r.set.molecules.len(), 1);
    });
    eprintln!(
        "allocations: select_all {select_all}, select_brep_no {select_brep_no}, \
         adhoc {adhoc}, prepared point {prepared}"
    );
    assert!(select_all <= 116, "SELECT ALL: {select_all} allocations");
    assert!(select_brep_no <= 278, "SELECT brep_no: {select_brep_no} allocations");
    assert!(adhoc <= 12, "ad-hoc point query: {adhoc} allocations");
    assert!(prepared <= 12, "prepared point query: {prepared} allocations");
}


/// A buffer miss reads into the block of the frame its eviction freed:
/// on a kernel whose buffer holds an eighth of the mesh, a warmed
/// `SELECT ALL` loads pages on every few statements and allocates no
/// page-sized block for them. A buffer that allocates a block per miss
/// makes one such allocation per page load.
#[test]
fn buffer_misses_allocate_no_page_blocks() {
    let mesh_bytes = mesh().storage().buffer().used_bytes();
    let db = brep::open_db(mesh_bytes / 8).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(SOLIDS)).unwrap();
    let session = db.session();
    let opts = QueryOptions::new();
    let mut all = session.prepare("SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?").unwrap();
    let mut run = |key: i64| {
        all.bind(&[Value::Int(key)]).unwrap();
        let r = all.query(&opts).unwrap();
        assert_eq!(r.set.molecules[0].atom_count(), 79);
    };
    for key in 1..=SOLIDS as i64 {
        run(key);
    }
    let before = db.metrics();
    let worst = (1..=SOLIDS as i64)
        .map(|key| {
            let page_allocs = page_allocations();
            run(key);
            page_allocations() - page_allocs
        })
        .max()
        .unwrap_or(0);
    let loads = db.metrics().delta(&before).buffer.pages_loaded;
    eprintln!("page-sized allocations: {worst} per statement at most, over {loads} page loads");
    assert!(loads >= SOLIDS as u64, "the buffer must miss: {loads} page loads");
    assert_eq!(worst, 0, "a miss allocated a page-sized block");
}
