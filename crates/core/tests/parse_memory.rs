//! The instance parser allocates in proportion to its document, not to the
//! counts and indices the document names: a few dozen bytes that declare
//! twenty million tasks, machines or types and then one entry far down
//! that count must be refused after little allocation. A counting global
//! allocator measures the peak live bytes of each parse, so this binary
//! holds this one test and nothing else allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mf_core::textio;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters touch no allocator state.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Most live bytes one parse of these documents may add.
const PEAK_BOUND: usize = 1 << 20;

#[test]
fn huge_counts_in_short_documents_allocate_little() {
    let cases = [
        (
            "tasks 20000000\ntask 9999999 0\n",
            "line 2: task index 9999999 out of range",
        ),
        (
            "tasks 1\nmachines 20000000\ntypes 1\ntime 0 0 1\n",
            "line 4: time entry out of range",
        ),
        (
            "tasks 1\nmachines 20000000\ntypes 1\nfailure 0 0 0.5\n",
            "line 4: failure entry out of range",
        ),
        (
            "tasks 1\nmachines 1\ntypes 20000000\ntime 9999999 0 1\n",
            "line 4: time entry out of range",
        ),
    ];
    for (text, error) in cases {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let outcome = textio::instance_from_text(text);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        assert!(peak < PEAK_BOUND, "{text:?} peaked at {peak} live bytes");
        let message = outcome.expect_err(text).to_string();
        assert!(message.ends_with(error), "{text:?}: {message}");
    }
}
