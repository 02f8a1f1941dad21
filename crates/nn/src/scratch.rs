//! Reusable buffer arena for the tape-free inference path.
//!
//! The tape forward allocates a fresh `Matrix` per op (plus a clone of
//! every parameter it touches). Inference never backprops, so those
//! intermediates can come from a pool instead: [`InferenceScratch`] hands
//! out zeroed matrices backed by recycled allocations and takes them back
//! when a pass is done. Steady-state serving does no heap allocation in
//! the forward at all.

use crate::matrix::Matrix;

/// Pool of `Vec<f32>` backing stores for inference intermediates.
///
/// `take` returns a zero-filled matrix (reusing the largest pooled
/// allocation that fits, growing it if needed); `put` returns a matrix's
/// storage to the pool. Dropping a taken matrix instead of `put`ting it
/// back is safe — the arena just loses that buffer's reuse. Index
/// buffers (row maps of gathered forwards) pool the same way through
/// `take_idx`/`put_idx`.
#[derive(Debug, Default)]
pub struct InferenceScratch {
    free: Vec<Vec<f32>>,
    free_idx: Vec<Vec<u32>>,
}

impl InferenceScratch {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `rows x cols` matrix from the pool.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut data = take_largest(&mut self.free);
        data.resize(rows * cols, 0.0);
        Matrix { rows, cols, data }
    }

    /// Return a matrix's backing store to the pool.
    pub fn put(&mut self, m: Matrix) {
        self.free.push(m.data);
    }

    /// An empty index buffer from the pool, its capacity kept.
    pub fn take_idx(&mut self) -> Vec<u32> {
        take_largest(&mut self.free_idx)
    }

    /// Return an index buffer to the pool.
    pub fn put_idx(&mut self, v: Vec<u32>) {
        self.free_idx.push(v);
    }

    /// Number of pooled buffers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// The pooled buffer with the most capacity, cleared (or a new one).
/// Preferring the largest keeps small requests from pinning big
/// allocations under short-lived bindings.
fn take_largest<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let largest = pool
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| v.capacity())
        .map(|(i, _)| i);
    let mut v = largest.map_or_else(Vec::new, |i| pool.swap_remove(i));
    v.clear();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_reuses_capacity() {
        let mut s = InferenceScratch::new();
        let mut m = s.take(4, 8);
        m.data.iter_mut().for_each(|x| *x = 7.0);
        let ptr = m.data.as_ptr();
        let cap = m.data.capacity();
        s.put(m);
        let m2 = s.take(2, 5);
        assert!(m2.data.iter().all(|&x| x == 0.0));
        assert_eq!((m2.rows, m2.cols), (2, 5));
        assert_eq!(m2.data.as_ptr(), ptr, "buffer was not reused");
        assert_eq!(m2.data.capacity(), cap);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn grows_when_needed() {
        let mut s = InferenceScratch::new();
        let m = s.take(1, 2);
        s.put(m);
        let big = s.take(16, 16);
        assert_eq!(big.data.len(), 256);
        assert!(big.data.iter().all(|&x| x == 0.0));
    }
}
