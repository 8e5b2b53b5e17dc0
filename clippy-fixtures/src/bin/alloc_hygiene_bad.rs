//! Fails with: clippy::disallowed_methods, clippy::disallowed_types
//! Raw allocation and a second allocator outside the profiler (alloc-hygiene).

use std::alloc::{GlobalAlloc, Layout, System};

fn main() {
    let layout = Layout::new::<u64>();
    // SAFETY: the layout is non-zero-sized and freed with the same layout.
    unsafe {
        let p = std::alloc::alloc(layout);
        std::alloc::dealloc(p, layout);
        System.dealloc(System.alloc(layout), layout);
    }
}
