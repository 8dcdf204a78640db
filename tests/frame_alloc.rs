//! Bounded frame allocation: a peer that sends only a frame header must
//! not make the reader allocate the length that header claims.
//!
//! This file is its own test binary so that its counting global allocator
//! sees nothing but this test's allocations.

use blobseer_rpc::wire::{read_frame, MAX_FRAME_LEN};
use blobseer_types::wire::WireWriter;
use blobseer_types::Error;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking live bytes and their high watermark.
struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counting {
    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::SeqCst);
    }

    /// Restarts the watermark at the current live bytes and returns them.
    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::SeqCst);
        self.peak.store(live, Ordering::SeqCst);
        live
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the counters
// are atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract is passed on unchanged.
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        System.dealloc(ptr, layout);
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            self.grew(new_size);
            self.shrank(layout.size());
        }
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

#[test]
fn a_header_alone_allocates_at_most_one_chunk() {
    const LIMIT: usize = 2 * 1024 * 1024;
    // The claimed length alone, then the claimed length plus a request
    // id, each followed by EOF.
    let mut bare = WireWriter::new();
    bare.put_u64(MAX_FRAME_LEN);
    let mut with_id = WireWriter::new();
    with_id.put_u64(MAX_FRAME_LEN);
    with_id.put_u64(7);
    for header in [bare.as_slice(), with_id.as_slice()] {
        let baseline = ALLOC.reset_peak();
        let result = read_frame(&mut &header[..]);
        let peak = ALLOC.peak.load(Ordering::SeqCst) - baseline;
        assert!(
            matches!(result, Err(Error::Transport(_))),
            "a truncated frame is a transport error: {result:?}"
        );
        assert!(
            peak < LIMIT,
            "reading a {MAX_FRAME_LEN}-byte header allocated {peak} bytes"
        );
    }
}
