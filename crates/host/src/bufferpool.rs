//! A clock-replacement buffer pool.
//!
//! The paper's Discussion (Section 4.3) centers on the interaction between
//! pushdown and the buffer pool: pushing a query into the SSD is wasted if
//! the pages are already cached, and host execution warms the cache for
//! future queries while pushdown does not. This pool backs the host engine
//! and the planner's residency-aware pushdown rule; all paper experiments
//! run cold ("there is no data cached in the buffer pool prior to running
//! each query", Section 4.1.2).

use smartssd_storage::PageBuf;
use std::collections::HashMap;

/// Fixed-capacity page cache with clock (second-chance) replacement.
pub struct BufferPool {
    capacity: usize,
    /// lba -> frame index.
    map: HashMap<u64, usize>,
    frames: Vec<Frame>,
    hand: usize,
    hits: u64,
    misses: u64,
}

struct Frame {
    lba: u64,
    page: PageBuf,
    referenced: bool,
}

impl BufferPool {
    /// Creates a pool holding up to `capacity` pages. Zero capacity is
    /// allowed and means "caching disabled". Nothing is reserved up front:
    /// the map and frames grow with the pages inserted, and eviction starts
    /// once `capacity` are resident.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            frames: Vec::new(),
            hand: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a page, marking it recently used, and lends it.
    pub fn get(&mut self, lba: u64) -> Option<&PageBuf> {
        let frame = self.hit(lba)?;
        Some(self.frame(frame))
    }

    /// Counts a lookup of `lba` as a hit or a miss and, on a hit, marks
    /// its frame recently used and returns the frame's index. A reader
    /// that may go on to insert on a miss looks up here, so its hit's loan
    /// ([`Self::frame`]) starts only on the path that returns it.
    pub(crate) fn hit(&mut self, lba: u64) -> Option<usize> {
        match self.map.get(&lba) {
            Some(&idx) => {
                self.hits += 1;
                self.frames[idx].referenced = true;
                Some(idx)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The page resident in frame `idx`.
    pub(crate) fn frame(&self, idx: usize) -> &PageBuf {
        &self.frames[idx].page
    }

    /// Whether a page is resident, without touching hit statistics or
    /// reference bits (used by the planner's residency estimate).
    pub fn contains(&self, lba: u64) -> bool {
        self.map.contains_key(&lba)
    }

    /// Pages of the given LBA range currently resident.
    pub fn resident(&self, first_lba: u64, num_pages: u64) -> u64 {
        let range = first_lba..first_lba + num_pages;
        range.filter(|&l| self.contains(l)).count() as u64
    }

    /// Inserts a page read from storage, evicting with the clock hand if
    /// the pool is full. No-op when capacity is zero or the page is already
    /// resident.
    pub fn insert(&mut self, lba: u64, page: PageBuf) {
        if self.capacity == 0 || self.map.contains_key(&lba) {
            return;
        }
        if self.frames.len() < self.capacity {
            self.map.insert(lba, self.frames.len());
            self.frames.push(Frame {
                lba,
                page,
                referenced: true,
            });
            return;
        }
        // Clock sweep: clear reference bits until an unreferenced frame is
        // found. Terminates within two sweeps.
        loop {
            let f = &mut self.frames[self.hand];
            if f.referenced {
                f.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                self.map.remove(&f.lba);
                self.map.insert(lba, self.hand);
                *f = Frame {
                    lba,
                    page,
                    referenced: true,
                };
                self.hand = (self.hand + 1) % self.frames.len();
                return;
            }
        }
    }

    /// Empties the pool (the paper's cold-run protocol).
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.hand = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_storage::{Layout, Schema, TableBuilder};

    fn some_page() -> PageBuf {
        let s = Schema::from_pairs(&[("x", smartssd_storage::DataType::Int32)]);
        let mut b = TableBuilder::new("t", s, Layout::Nsm);
        b.push(vec![smartssd_storage::Datum::I32(1)]);
        b.finish().pages()[0].clone()
    }

    #[test]
    fn hit_after_insert() {
        let mut bp = BufferPool::new(4);
        assert!(bp.get(1).is_none());
        bp.insert(1, some_page());
        assert!(bp.get(1).is_some());
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut bp = BufferPool::new(3);
        for lba in 0..10u64 {
            bp.insert(lba, some_page());
        }
        assert_eq!(bp.len(), 3);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(2);
        bp.insert(0, some_page());
        bp.insert(1, some_page());
        // Touch page 0 so it is referenced; inserting a third page should
        // evict page 1 (reference bit cleared first on 0, then 1 evicted on
        // the second position... sweep order: 0 ref cleared, 1 ref cleared,
        // back to 0 now unreferenced -> evicted). Touch both to pin order.
        bp.get(0);
        let evicted_before = bp.contains(0) && bp.contains(1);
        assert!(evicted_before);
        bp.insert(2, some_page());
        assert_eq!(bp.len(), 2);
        assert!(bp.contains(2));
        // Exactly one of the originals survived.
        assert_eq!(u32::from(bp.contains(0)) + u32::from(bp.contains(1)), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut bp = BufferPool::new(0);
        bp.insert(1, some_page());
        assert!(bp.is_empty());
        assert!(bp.get(1).is_none());
    }

    #[test]
    fn residency_fraction() {
        let mut bp = BufferPool::new(10);
        for lba in 0..5u64 {
            bp.insert(lba, some_page());
        }
        assert_eq!(bp.resident(0, 10), 5);
        assert_eq!(bp.resident(100, 10), 0);
        assert_eq!(bp.resident(0, 0), 0);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut bp = BufferPool::new(2);
        bp.insert(1, some_page());
        bp.insert(1, some_page());
        assert_eq!(bp.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut bp = BufferPool::new(2);
        bp.insert(1, some_page());
        bp.get(1);
        bp.clear();
        assert!(bp.is_empty());
        assert_eq!(bp.hits(), 0);
        assert!(!bp.contains(1));
    }
}
