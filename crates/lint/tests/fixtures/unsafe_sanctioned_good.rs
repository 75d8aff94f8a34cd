//! Fixture: the sanctioned-unsafe shape — every block states why it is
//! sound (clean under the `crates/net/src/shm.rs` path only).

pub fn view(ptr: *const u8, len: usize) -> &'static [u8] {
    // SAFETY: mmap result slice, length validated by the caller
    unsafe { std::slice::from_raw_parts(ptr, len) }
}

pub struct Mapping(*mut u8);

// SAFETY: the mapping is shared and immutable after seal
unsafe impl Send for Mapping {}
