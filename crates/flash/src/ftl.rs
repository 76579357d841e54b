//! Page-mapped Flash Translation Layer bookkeeping.
//!
//! The FTL is the firmware component the paper's Section 2 describes running
//! on the SSD's embedded processors: it maps host Logical Block Addresses to
//! Physical Block Addresses. This module owns the mapping tables, per-die
//! free/used block lists, active (currently-programming) blocks, and the
//! round-robin write-striping cursor. The orchestration that couples these
//! decisions to the NAND array and the timing model lives in [`crate::ssd`].
//!
//! Design choices mirror common SSD firmware:
//!
//! * **page-mapped**: one map entry per logical page (no block-mapping
//!   read-modify-write penalties);
//! * **striped allocation**: consecutive writes round-robin across
//!   `(channel, chip)` pairs, so sequentially-written tables can later be
//!   read with full channel parallelism — this is what makes the Table 2
//!   internal-bandwidth experiment work;
//! * **wear-aware allocation**: the free block with the lowest erase count
//!   is used next;
//! * **greedy GC victim selection**: the used block with the fewest valid
//!   pages is collected first.

use crate::nand::{NandArray, Ppa};

/// Per-die allocation state.
#[derive(Debug, Clone)]
struct DieState {
    /// Block currently accepting programs, with its next page index.
    active: Option<(u32, u32)>,
    /// Erased blocks available for allocation.
    free: Vec<u32>,
    /// Fully-programmed blocks (GC victim candidates).
    used: Vec<u32>,
}

/// FTL bookkeeping: LBA map plus per-die block state.
pub struct Ftl {
    channels: usize,
    chips_per_channel: usize,
    pages_per_block: usize,
    /// Number of logical pages addressable.
    logical_pages: u64,
    /// `lba -> ppa`, grown to the highest LBA ever mapped; an LBA past its
    /// end is unmapped.
    map: Vec<Option<Ppa>>,
    dies: Vec<DieState>,
    /// Round-robin cursor over `(channel, chip)` pairs.
    stripe: usize,
}

impl Ftl {
    /// Creates an FTL with all blocks free and nothing mapped.
    pub fn new(cfg: &crate::config::FlashConfig) -> Self {
        let dies = (0..cfg.channels * cfg.chips_per_channel)
            .map(|_| DieState {
                active: None,
                free: (0..cfg.blocks_per_chip as u32).collect(),
                used: Vec::new(),
            })
            .collect();
        Self {
            channels: cfg.channels,
            chips_per_channel: cfg.chips_per_channel,
            pages_per_block: cfg.pages_per_block,
            logical_pages: cfg.logical_pages(),
            map: Vec::new(),
            dies,
            stripe: 0,
        }
    }

    #[inline]
    fn die_idx(&self, channel: u16, chip: u16) -> usize {
        channel as usize * self.chips_per_channel + chip as usize
    }

    /// Number of logical pages addressable.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Current physical location of a logical page.
    pub fn lookup(&self, lba: u64) -> Option<Ppa> {
        self.map.get(lba as usize).copied().flatten()
    }

    /// Records a new mapping for an addressable LBA.
    pub fn map_set(&mut self, lba: u64, ppa: Ppa) {
        assert!(lba < self.logical_pages, "LBA {lba} out of range");
        let i = lba as usize;
        if i >= self.map.len() {
            self.map.resize(i + 1, None);
        }
        self.map[i] = Some(ppa);
    }

    /// Clears a mapping (trim).
    pub fn map_clear(&mut self, lba: u64) {
        if let Some(entry) = self.map.get_mut(lba as usize) {
            *entry = None;
        }
    }

    /// Advances the stripe cursor and returns the next `(channel, chip)`
    /// target for a host write.
    pub fn next_stripe(&mut self) -> (u16, u16) {
        let i = self.stripe;
        self.stripe = (self.stripe + 1) % (self.channels * self.chips_per_channel);
        (
            (i / self.chips_per_channel) as u16,
            (i % self.chips_per_channel) as u16,
        )
    }

    /// Number of free (erased, unallocated) blocks on a die.
    pub fn free_blocks(&self, channel: u16, chip: u16) -> usize {
        self.dies[self.die_idx(channel, chip)].free.len()
    }

    /// Allocates the next programmable page slot on the die, drawing a new
    /// active block from the free list (lowest erase count first) when
    /// needed. Returns `None` if the die has no active block and no free
    /// blocks — the caller must GC or fail.
    pub fn alloc_slot(&mut self, channel: u16, chip: u16, nand: &NandArray) -> Option<Ppa> {
        let ppb = self.pages_per_block as u32;
        let di = self.die_idx(channel, chip);
        // Retire a full active block to the used list.
        if let Some((blk, next)) = self.dies[di].active {
            if next >= ppb {
                self.dies[di].used.push(blk);
                self.dies[di].active = None;
            }
        }
        if self.dies[di].active.is_none() {
            // Wear-aware: take the free block with the lowest erase count.
            let die = &mut self.dies[di];
            let pos = die
                .free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &b)| (nand.block(channel, chip, b).erase_count(), b))?
                .0;
            let blk = die.free.swap_remove(pos);
            die.active = Some((blk, 0));
        }
        let die = &mut self.dies[di];
        let (blk, next) = die.active.expect("just ensured");
        die.active = Some((blk, next + 1));
        Some(Ppa {
            channel,
            chip,
            block: blk,
            page: next,
        })
    }

    /// Picks the GC victim on a die: the used block with the fewest valid
    /// pages. Returns `None` when there are no used blocks, or when even the
    /// best victim is fully valid (collecting it would reclaim nothing).
    pub fn pick_victim(&self, channel: u16, chip: u16, nand: &NandArray) -> Option<u32> {
        let di = self.die_idx(channel, chip);
        let victim = self.dies[di]
            .used
            .iter()
            .copied()
            .min_by_key(|&b| nand.block(channel, chip, b).valid_count())?;
        if nand.block(channel, chip, victim).valid_count() as usize >= self.pages_per_block {
            None
        } else {
            Some(victim)
        }
    }

    /// Moves a just-erased victim block back to the die's free list.
    pub fn retire_victim(&mut self, channel: u16, chip: u16, block: u32) {
        let di = self.die_idx(channel, chip);
        let die = &mut self.dies[di];
        let pos = die
            .used
            .iter()
            .position(|&b| b == block)
            .expect("victim must be on the used list");
        die.used.swap_remove(pos);
        die.free.push(block);
    }

    /// Total mapped logical pages (diagnostics).
    pub fn mapped_count(&self) -> u64 {
        self.map.iter().filter(|m| m.is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashConfig;

    fn setup() -> (FlashConfig, Ftl, NandArray) {
        let cfg = FlashConfig::tiny();
        let ftl = Ftl::new(&cfg);
        let nand = NandArray::new(&cfg);
        (cfg, ftl, nand)
    }

    #[test]
    fn stripe_round_robins_all_dies() {
        let (cfg, mut ftl, _) = setup();
        let total = cfg.channels * cfg.chips_per_channel;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..total {
            seen.insert(ftl.next_stripe());
        }
        assert_eq!(seen.len(), total);
        // Wraps around deterministically.
        assert_eq!(ftl.next_stripe(), (0, 0));
    }

    #[test]
    fn alloc_fills_block_sequentially_then_switches() {
        let (cfg, mut ftl, nand) = setup();
        let mut blocks = std::collections::HashSet::new();
        for i in 0..cfg.pages_per_block * 2 {
            let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
            assert_eq!(ppa.page as usize, i % cfg.pages_per_block);
            blocks.insert(ppa.block);
        }
        assert_eq!(blocks.len(), 2);
        assert_eq!(ftl.free_blocks(0, 0), cfg.blocks_per_chip - 2);
    }

    #[test]
    fn alloc_exhausts_to_none() {
        let (cfg, mut ftl, nand) = setup();
        let capacity = cfg.blocks_per_chip * cfg.pages_per_block;
        for _ in 0..capacity {
            assert!(ftl.alloc_slot(1, 1, &nand).is_some());
        }
        assert!(ftl.alloc_slot(1, 1, &nand).is_none());
    }

    #[test]
    fn map_operations() {
        let (_, mut ftl, _) = setup();
        let ppa = Ppa {
            channel: 0,
            chip: 1,
            block: 2,
            page: 3,
        };
        assert!(ftl.lookup(5).is_none());
        ftl.map_set(5, ppa);
        assert_eq!(ftl.lookup(5), Some(ppa));
        assert_eq!(ftl.mapped_count(), 1);
        ftl.map_clear(5);
        assert!(ftl.lookup(5).is_none());
    }

    #[test]
    fn victim_selection_prefers_most_invalid() {
        let (cfg, mut ftl, mut nand) = setup();
        let page = bytes::Bytes::from(vec![0u8; cfg.page_size]);
        // Fill two blocks on die (0,0).
        for i in 0..cfg.pages_per_block * 2 {
            let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
            nand.program(ppa, i as u64, page.clone()).unwrap();
        }
        // Push a third allocation so both filled blocks land in `used`.
        let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
        nand.program(ppa, 999, page.clone()).unwrap();
        // Invalidate 3 pages of block 1, 1 page of block 0.
        for pg in 0..3 {
            nand.invalidate(Ppa {
                channel: 0,
                chip: 0,
                block: 1,
                page: pg,
            })
            .unwrap();
        }
        nand.invalidate(Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 0,
        })
        .unwrap();
        assert_eq!(ftl.pick_victim(0, 0, &nand), Some(1));
    }

    #[test]
    fn fully_valid_victim_rejected() {
        let (cfg, mut ftl, mut nand) = setup();
        let page = bytes::Bytes::from(vec![0u8; cfg.page_size]);
        for i in 0..cfg.pages_per_block + 1 {
            let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
            nand.program(ppa, i as u64, page.clone()).unwrap();
        }
        // One used block, fully valid: no point collecting it.
        assert_eq!(ftl.pick_victim(0, 0, &nand), None);
    }

    #[test]
    fn retire_returns_block_to_free_list() {
        let (cfg, mut ftl, mut nand) = setup();
        let page = bytes::Bytes::from(vec![0u8; cfg.page_size]);
        for i in 0..cfg.pages_per_block + 1 {
            let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
            nand.program(ppa, i as u64, page.clone()).unwrap();
        }
        let before = ftl.free_blocks(0, 0);
        nand.erase(0, 0, 0).unwrap();
        ftl.retire_victim(0, 0, 0);
        assert_eq!(ftl.free_blocks(0, 0), before + 1);
    }

    #[test]
    fn wear_aware_allocation_prefers_low_erase_blocks() {
        let (cfg, mut ftl, mut nand) = setup();
        // Artificially wear block 0 of die (0,0) heavily.
        for _ in 0..5 {
            nand.erase(0, 0, 0).unwrap();
        }
        // First allocation should avoid the worn block 0.
        let ppa = ftl.alloc_slot(0, 0, &nand).unwrap();
        assert_ne!(ppa.block, 0);
        let _ = cfg;
    }
}
