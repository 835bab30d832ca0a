//! Recycled message buffers whose capacity carries no history.
//!
//! Kernels and the network executor hand message buffers back and forth
//! instead of allocating one per message. Recycling must not open a storage
//! channel: a receiver can read a `Vec`'s capacity, so a buffer that kept
//! the capacity some earlier message gave it would tell its next reader
//! something about that message. A [`BufPool`] keeps the rule that makes
//! recycling safe:
//!
//! * every pooled buffer has the one capacity [`FRAME_CAP`];
//! * a longer frame gets a buffer of exactly its length, which is never
//!   pooled;
//! * a buffer of any other capacity is dropped, not pooled;
//! * every buffer handed out is empty.
//!
//! A buffer's capacity is therefore a function of the length it was asked
//! for, whichever pool it came from and whatever it carried before — the
//! same function every pool applies, so a buffer moves between a kernel's
//! spares and an executor's pool without changing what it reveals.

/// The capacity of every pooled buffer: it holds every ARQ ack and almost
/// every fleet data frame.
pub const FRAME_CAP: usize = 64;

/// A bounded free list of [`FRAME_CAP`]-byte buffers.
///
/// The bound comes from the owner's topology (a kernel's channel
/// capacities, a network's wire capacities), not from a setting. A clone
/// starts empty: spare buffers are host plumbing, never state, so a cloned
/// owner — a kernel cloned as a checker state — copies none.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    bound: usize,
}

impl BufPool {
    /// An empty pool that keeps at most `bound` buffers.
    pub fn new(bound: usize) -> BufPool {
        BufPool {
            free: Vec::new(),
            bound,
        }
    }

    /// An empty buffer with room for `len` bytes: a pooled one when `len`
    /// fits [`FRAME_CAP`], else a fresh buffer of exactly `len`.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        if len > FRAME_CAP {
            return Vec::with_capacity(len);
        }
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FRAME_CAP))
    }

    /// Takes a buffer back, emptied, when it has the pooled capacity and
    /// the pool is below its bound; drops it otherwise.
    pub fn give(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == FRAME_CAP && self.free.len() < self.bound {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers waiting to be handed out.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no buffer is waiting.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// The most buffers the pool keeps.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Raises the bound by `by` (an owner gained a channel or a wire).
    pub fn raise_bound(&mut self, by: usize) {
        self.bound += by;
    }
}

impl Clone for BufPool {
    fn clone(&self) -> BufPool {
        BufPool::new(self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_recycled_full_comes_back_empty() {
        let mut pool = BufPool::new(4);
        let mut buf = pool.take(10);
        buf.extend_from_slice(b"secret bytes");
        pool.give(buf);
        assert_eq!(pool.len(), 1);
        let again = pool.take(3);
        assert!(again.is_empty(), "a handed-out buffer held {again:?}");
        assert_eq!(again.capacity(), FRAME_CAP);
    }

    #[test]
    fn capacity_is_a_function_of_the_length_asked_for() {
        let mut pool = BufPool::new(8);
        for len in 0..=2 * FRAME_CAP {
            let buf = pool.take(len);
            assert!(buf.is_empty());
            assert_eq!(buf.capacity(), len.max(FRAME_CAP), "len {len}");
            pool.give(buf);
        }
    }

    #[test]
    fn a_long_frame_is_exact_and_never_handed_out_again() {
        let mut pool = BufPool::new(8);
        let mut long = pool.take(FRAME_CAP + 1);
        assert_eq!(long.capacity(), FRAME_CAP + 1);
        long.resize(FRAME_CAP + 1, 7);
        pool.give(long);
        assert!(pool.is_empty(), "an exact long buffer was pooled");
        assert_eq!(pool.take(1).capacity(), FRAME_CAP);
    }

    #[test]
    fn a_buffer_of_another_capacity_never_comes_back() {
        let mut pool = BufPool::new(8);
        for cap in [0, 1, FRAME_CAP - 1, FRAME_CAP + 1, 2 * FRAME_CAP] {
            pool.give(Vec::with_capacity(cap));
        }
        // A pooled buffer that grew past the pooled capacity is foreign too.
        let mut grown = pool.take(4);
        grown.resize(FRAME_CAP + 1, 0);
        pool.give(grown);
        assert!(pool.is_empty());
        for len in [0, 5, FRAME_CAP] {
            assert_eq!(pool.take(len).capacity(), FRAME_CAP);
        }
    }

    #[test]
    fn the_pool_never_exceeds_its_bound() {
        let mut pool = BufPool::new(3);
        for _ in 0..10 {
            pool.give(Vec::with_capacity(FRAME_CAP));
        }
        assert_eq!(pool.len(), 3);
        pool.raise_bound(2);
        for _ in 0..10 {
            pool.give(Vec::with_capacity(FRAME_CAP));
        }
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.bound(), 5);
    }

    #[test]
    fn a_clone_starts_empty_with_the_same_bound() {
        let mut pool = BufPool::new(4);
        pool.give(Vec::with_capacity(FRAME_CAP));
        let clone = pool.clone();
        assert!(clone.is_empty());
        assert_eq!(clone.bound(), 4);
        assert_eq!(pool.len(), 1, "cloning leaves the source as it was");
    }
}
