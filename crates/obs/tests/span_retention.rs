//! Completed spans retain no memory.
//!
//! A server opens spans on every request, so anything a span leaves behind
//! grows the process without bound. A counting `#[global_allocator]` tracks
//! live heap bytes; after one warm-up request (the counter cells and the
//! thread's span stack exist), ten thousand more nested spans on the same
//! registry must leave the live total where it was. This file holds exactly
//! one `#[test]` so no parallel test can touch the global counter
//! mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use br_obs::Registry;

struct CountingAlloc;

/// Bytes currently allocated (allocations minus frees).
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One request's spans: `job`, `job/plan`, `job/execute`.
fn request(reg: &Registry) {
    let _job = reg.span("job");
    drop(reg.span("plan"));
    drop(reg.span("execute"));
}

#[test]
fn ten_thousand_spans_retain_under_4_kib() {
    let reg = Registry::new();
    request(&reg);
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    for _ in 0..10_000 / 3 + 1 {
        request(&reg);
    }
    let retained = LIVE_BYTES.load(Ordering::SeqCst) - before;
    assert!(
        retained < 4096,
        "10,000 spans retained {retained} bytes on a warmed registry"
    );
    let text = reg.render_prometheus(false);
    assert!(
        text.contains("br_span_total{path=\"job/execute\"} 3335"),
        "{text}"
    );
}
