//! Adaptive-width column storage for windowed telemetry.
//!
//! A [`Lane`] holds one frame field for every window, indexed by window.
//! It stores nothing while every value it has seen is zero, then keeps its
//! cells at the narrowest of u8/u16/u32/u64/u128 that fits every value so
//! far, widening in place the first time a value does not fit. Reads past
//! the last stored cell are zero, so quiet windows at the end of a lane
//! cost nothing. Cells are random-access and mutable: a write to an
//! earlier window is as exact as one to the latest.
//!
//! Cells live in fixed-size chunks of [`CHUNK`] windows. Growing a lane
//! adds a chunk and never moves stored cells, so a long run does not
//! leave a trail of outgrown copies in the allocator.

/// Windows per chunk.
const CHUNK: usize = 1024;

/// One frame field over every window; see the module doc.
#[derive(Debug, Clone, Default)]
pub(crate) enum Lane {
    /// Every value seen so far is zero.
    #[default]
    Zero,
    U8(Chunks<u8>),
    U16(Chunks<u16>),
    U32(Chunks<u32>),
    U64(Chunks<u64>),
    U128(Chunks<u128>),
}

impl Lane {
    /// Value at window `i`; zero past the last stored cell.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u128 {
        match self {
            Lane::Zero => 0,
            Lane::U8(c) => c.get(i).into(),
            Lane::U16(c) => c.get(i).into(),
            Lane::U32(c) => c.get(i).into(),
            Lane::U64(c) => c.get(i).into(),
            Lane::U128(c) => c.get(i),
        }
    }

    /// Adds `delta` to window `i`.
    #[inline]
    pub(crate) fn add(&mut self, i: usize, delta: u128) {
        if delta != 0 {
            self.put(i, self.get(i) + delta);
        }
    }

    /// Overwrites window `i` with `v`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: u128) {
        if v != self.get(i) {
            self.put(i, v);
        }
    }

    /// Raises window `i` to `v` if `v` is larger.
    #[inline]
    pub(crate) fn raise(&mut self, i: usize, v: u128) {
        if v > self.get(i) {
            self.put(i, v);
        }
    }

    /// Every stored cell, window 0 first (quiet windows past the last
    /// chunk are absent).
    pub(crate) fn values(&self) -> impl Iterator<Item = u128> + '_ {
        let len = match self {
            Lane::Zero => 0,
            Lane::U8(c) => c.len(),
            Lane::U16(c) => c.len(),
            Lane::U32(c) => c.len(),
            Lane::U64(c) => c.len(),
            Lane::U128(c) => c.len(),
        };
        (0..len).map(move |i| self.get(i))
    }

    /// Heap bytes the lane holds (whole chunks, not just cells in use).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Lane::Zero => 0,
            Lane::U8(c) => c.heap_bytes(),
            Lane::U16(c) => c.heap_bytes(),
            Lane::U32(c) => c.heap_bytes(),
            Lane::U64(c) => c.heap_bytes(),
            Lane::U128(c) => c.heap_bytes(),
        }
    }

    fn put(&mut self, i: usize, v: u128) {
        loop {
            match self {
                Lane::Zero => {}
                Lane::U8(c) => {
                    if let Ok(v) = u8::try_from(v) {
                        return c.store(i, v);
                    }
                }
                Lane::U16(c) => {
                    if let Ok(v) = u16::try_from(v) {
                        return c.store(i, v);
                    }
                }
                Lane::U32(c) => {
                    if let Ok(v) = u32::try_from(v) {
                        return c.store(i, v);
                    }
                }
                Lane::U64(c) => {
                    if let Ok(v) = u64::try_from(v) {
                        return c.store(i, v);
                    }
                }
                Lane::U128(c) => return c.store(i, v),
            }
            self.widen();
        }
    }

    /// Moves the cells to the next wider width.
    fn widen(&mut self) {
        *self = match std::mem::take(self) {
            Lane::Zero => Lane::U8(Chunks::default()),
            Lane::U8(c) => Lane::U16(c.widened()),
            Lane::U16(c) => Lane::U32(c.widened()),
            Lane::U32(c) => Lane::U64(c.widened()),
            Lane::U64(c) => Lane::U128(c.widened()),
            Lane::U128(_) => unreachable!("a u128 cell holds every value"),
        };
    }
}

/// A lane's cells at one width, in [`CHUNK`]-window blocks.
#[derive(Debug, Clone)]
pub(crate) struct Chunks<T>(Vec<Box<[T]>>);

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks(Vec::new())
    }
}

impl<T: Copy + Default> Chunks<T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        self.0
            .get(i / CHUNK)
            .map_or_else(T::default, |c| c[i % CHUNK])
    }

    /// Stores `v` at `i`, adding zeroed chunks up to it.
    fn store(&mut self, i: usize, v: T) {
        while self.0.len() <= i / CHUNK {
            self.0.push(vec![T::default(); CHUNK].into_boxed_slice());
        }
        self.0[i / CHUNK][i % CHUNK] = v;
    }

    /// Cells stored, counting the zeroed tail of the last chunk.
    fn len(&self) -> usize {
        self.0.len() * CHUNK
    }

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<Box<[T]>>() + self.len() * std::mem::size_of::<T>()
    }

    fn widened<U: From<T>>(self) -> Chunks<U> {
        Chunks(
            self.0
                .into_iter()
                .map(|c| c.iter().map(|&v| U::from(v)).collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_writes_allocate_nothing() {
        let mut lane = Lane::default();
        lane.add(1_000, 0);
        lane.set(1_000, 0);
        lane.raise(1_000, 0);
        assert!(matches!(lane, Lane::Zero));
        assert_eq!(lane.get(1_000), 0);
        assert_eq!(lane.heap_bytes(), 0);
    }

    #[test]
    fn widens_in_place_and_keeps_earlier_cells() {
        let mut lane = Lane::default();
        lane.add(3, 200);
        assert!(matches!(lane, Lane::U8(_)));
        lane.add(3, 100);
        assert!(matches!(lane, Lane::U16(_)));
        lane.set(0, u128::from(u32::MAX));
        assert!(matches!(lane, Lane::U32(_)));
        lane.raise(5, u128::from(u64::MAX));
        assert!(matches!(lane, Lane::U64(_)));
        lane.add(5, 1);
        assert!(matches!(lane, Lane::U128(_)));
        let want = [u128::from(u32::MAX), 0, 0, 300, 0, u128::from(u64::MAX) + 1];
        assert_eq!(lane.values().take(6).collect::<Vec<_>>(), want);
        assert_eq!(lane.get(CHUNK), 0, "reads past the end are zero");
    }

    #[test]
    fn earlier_windows_stay_writable() {
        let mut lane = Lane::default();
        lane.add(10, 1);
        lane.add(2, 7);
        lane.set(10, 0);
        assert_eq!(lane.get(2), 7);
        assert_eq!(lane.get(10), 0);
        lane.raise(2, 3);
        assert_eq!(lane.get(2), 7, "raise keeps the larger value");
    }

    #[test]
    fn growth_slack_is_one_chunk() {
        let mut lane = Lane::default();
        for i in 0..100_000 {
            lane.add(i, 1);
        }
        let outer = 128 * std::mem::size_of::<Box<[u8]>>();
        assert!(lane.heap_bytes() <= 100_000 + CHUNK + outer);
    }
}
