//! The physical NAND array: page states, real data, and NAND rules.
//!
//! Enforces the constraints that shape FTL design: a page must be erased
//! before it can be programmed, pages within a block must be programmed in
//! order, and erasure happens at block granularity (paper Section 2). Each
//! block tracks its erase count for wear-levelling decisions.
//!
//! A page is free (never programmed since its block's last erase), valid
//! (holds the live copy of some LBA) or invalid (stale, awaiting garbage
//! collection). Only programmed pages are stored: see [`Block`]. A page's
//! payload lives only while the page is valid: invalidation drops it, so a
//! stale page costs its owner and nothing more until its block is erased,
//! and reading it is [`NandError::ReadStale`].

use crate::config::FlashConfig;
use bytes::Bytes;
use std::fmt;

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Channel index.
    pub channel: u16,
    /// Chip (die) index within the channel.
    pub chip: u16,
    /// Erase block within the chip.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/die{}/blk{}/pg{}",
            self.channel, self.chip, self.block, self.page
        )
    }
}

/// Violations of NAND programming rules or addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Address outside the configured geometry.
    BadAddress(Ppa),
    /// Programming a page that is not in the `Free` state.
    ProgramNotFree(Ppa),
    /// Programming pages of a block out of order.
    ProgramOutOfOrder(Ppa),
    /// Reading a page that holds no data.
    ReadUnwritten(Ppa),
    /// Reading a page whose payload went stale (overwritten or trimmed).
    ReadStale(Ppa),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BadAddress(p) => write!(f, "address {p} outside geometry"),
            NandError::ProgramNotFree(p) => write!(f, "program to non-free page {p}"),
            NandError::ProgramOutOfOrder(p) => {
                write!(f, "out-of-order program within block at {p}")
            }
            NandError::ReadUnwritten(p) => write!(f, "read of unwritten page {p}"),
            NandError::ReadStale(p) => write!(f, "read of stale page {p}"),
        }
    }
}

impl std::error::Error for NandError {}

/// One programmed page: the logical page it was written for (GC
/// relocation needs it) and, while that mapping is live, its payload. A
/// stale page has no payload: `data.is_some()` is the valid flag.
#[derive(Debug, Clone)]
struct Page {
    data: Option<Bytes>,
    owner: u64,
}

/// One erase block's bookkeeping.
///
/// The counters are always present; the per-page state exists only while
/// the block holds programmed pages, so an array costs memory in
/// proportion to what was written, not to its geometry.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Pages programmed since the last erase. NAND programs a block in
    /// page order, so this is a prefix: `pages.len()` is the next
    /// programmable index and every later page is free. Allocated (for the
    /// whole block) by the first program, released by erase.
    pages: Vec<Page>,
    /// Number of valid pages (GC victim scoring).
    valid_count: u32,
    /// Lifetime erase count (wear).
    erase_count: u32,
}

impl Block {
    /// Number of valid pages in the block.
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Lifetime erase count.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }
}

/// The full physical array (channel-major chip order, blocks of one chip
/// adjacent).
pub struct NandArray {
    cfg: FlashConfig,
    blocks: Vec<Block>,
    erases_total: u64,
}

impl NandArray {
    /// An erased array for the given geometry: counters for every block,
    /// page state for none.
    pub fn new(cfg: &FlashConfig) -> Self {
        cfg.validate();
        let blocks = cfg.channels * cfg.chips_per_channel * cfg.blocks_per_chip;
        Self {
            cfg: cfg.clone(),
            blocks: vec![Block::default(); blocks],
            erases_total: 0,
        }
    }

    /// Index of `(channel, chip, block)`, all in range.
    fn block_index(&self, channel: u16, chip: u16, block: u32) -> usize {
        (channel as usize * self.cfg.chips_per_channel + chip as usize) * self.cfg.blocks_per_chip
            + block as usize
    }

    fn checked_index(&self, ppa: Ppa) -> Result<usize, NandError> {
        if (ppa.channel as usize) < self.cfg.channels
            && (ppa.chip as usize) < self.cfg.chips_per_channel
            && (ppa.block as usize) < self.cfg.blocks_per_chip
            && (ppa.page as usize) < self.cfg.pages_per_block
        {
            Ok(self.block_index(ppa.channel, ppa.chip, ppa.block))
        } else {
            Err(NandError::BadAddress(ppa))
        }
    }

    /// The programmed page at `ppa`, valid or stale.
    fn page(&self, ppa: Ppa) -> Result<Option<&Page>, NandError> {
        let bi = self.checked_index(ppa)?;
        Ok(self.blocks[bi].pages.get(ppa.page as usize))
    }

    /// Programs `data` into a free page, recording the owning LBA.
    pub fn program(&mut self, ppa: Ppa, lba: u64, data: Bytes) -> Result<(), NandError> {
        assert_eq!(data.len(), self.cfg.page_size, "payload must be page-sized");
        let bi = self.checked_index(ppa)?;
        let block = &mut self.blocks[bi];
        let next_program = block.pages.len();
        if (ppa.page as usize) < next_program {
            return Err(NandError::ProgramNotFree(ppa));
        }
        if ppa.page as usize != next_program {
            return Err(NandError::ProgramOutOfOrder(ppa));
        }
        if next_program == 0 {
            block.pages.reserve_exact(self.cfg.pages_per_block);
        }
        block.pages.push(Page {
            data: Some(data),
            owner: lba,
        });
        block.valid_count += 1;
        Ok(())
    }

    /// Lends a valid page's payload. A stale page's payload is gone
    /// ([`NandError::ReadStale`]); a free one never held any
    /// ([`NandError::ReadUnwritten`]).
    pub fn read(&self, ppa: Ppa) -> Result<&Bytes, NandError> {
        let page = self.page(ppa)?.ok_or(NandError::ReadUnwritten(ppa))?;
        page.data.as_ref().ok_or(NandError::ReadStale(ppa))
    }

    /// Marks a page stale (its LBA was overwritten or trimmed) and drops
    /// its payload.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<(), NandError> {
        let bi = self.checked_index(ppa)?;
        let block = &mut self.blocks[bi];
        if let Some(page) = block.pages.get_mut(ppa.page as usize) {
            if page.data.take().is_some() {
                block.valid_count -= 1;
            }
        }
        Ok(())
    }

    /// Erases a whole block, dropping payloads and bumping wear.
    pub fn erase(&mut self, channel: u16, chip: u16, block: u32) -> Result<(), NandError> {
        let bi = self.checked_index(Ppa {
            channel,
            chip,
            block,
            page: 0,
        })?;
        let b = &mut self.blocks[bi];
        b.pages = Vec::new();
        b.valid_count = 0;
        b.erase_count += 1;
        self.erases_total += 1;
        Ok(())
    }

    /// Owning LBA of a physical page, if written.
    pub fn owner(&self, ppa: Ppa) -> Option<u64> {
        Some(self.page(ppa).ok()??.owner)
    }

    /// Block bookkeeping for `(channel, chip, block)`.
    pub fn block(&self, channel: u16, chip: u16, block: u32) -> &Block {
        &self.blocks[self.block_index(channel, chip, block)]
    }

    /// Iterates `(page_index, owner_lba)` for the valid pages of a block —
    /// what GC must relocate.
    pub fn valid_pages(&self, channel: u16, chip: u16, block: u32) -> Vec<(u32, u64)> {
        let pages = &self.block(channel, chip, block).pages;
        pages
            .iter()
            .enumerate()
            .filter(|(_, page)| page.data.is_some())
            .map(|(i, page)| (i as u32, page.owner))
            .collect()
    }

    /// Total erases performed (all blocks).
    pub fn erases_total(&self) -> u64 {
        self.erases_total
    }

    /// Spread of block erase counts `(min, max)` across the array — the
    /// wear-levelling quality metric.
    pub fn wear_spread(&self) -> (u32, u32) {
        let counts = || self.blocks.iter().map(|b| b.erase_count);
        (counts().min().unwrap_or(0), counts().max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> NandArray {
        NandArray::new(&FlashConfig::tiny())
    }

    fn page_data(cfg: &FlashConfig, fill: u8) -> Bytes {
        Bytes::from(vec![fill; cfg.page_size])
    }

    #[test]
    fn program_read_round_trip() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let ppa = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 0,
        };
        a.program(ppa, 42, page_data(&cfg, 0xAB)).unwrap();
        assert_eq!(*a.read(ppa).unwrap(), page_data(&cfg, 0xAB));
        assert_eq!(a.owner(ppa), Some(42));
    }

    #[test]
    fn sequential_program_enforced() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p2 = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 2,
        };
        assert_eq!(
            a.program(p2, 0, page_data(&cfg, 0)).unwrap_err(),
            NandError::ProgramOutOfOrder(p2)
        );
    }

    #[test]
    fn double_program_rejected_until_erase() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 1,
            chip: 1,
            block: 3,
            page: 0,
        };
        a.program(p, 1, page_data(&cfg, 1)).unwrap();
        assert!(matches!(
            a.program(p, 2, page_data(&cfg, 2)).unwrap_err(),
            NandError::ProgramNotFree(_)
        ));
        a.erase(1, 1, 3).unwrap();
        a.program(p, 2, page_data(&cfg, 2)).unwrap();
        assert_eq!(*a.read(p).unwrap(), page_data(&cfg, 2));
        assert_eq!(a.block(1, 1, 3).erase_count(), 1);
    }

    #[test]
    fn invalidate_tracks_valid_count() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        for pg in 0..4 {
            let p = Ppa {
                channel: 0,
                chip: 1,
                block: 2,
                page: pg,
            };
            a.program(p, pg as u64, page_data(&cfg, pg as u8)).unwrap();
        }
        assert_eq!(a.block(0, 1, 2).valid_count(), 4);
        a.invalidate(Ppa {
            channel: 0,
            chip: 1,
            block: 2,
            page: 1,
        })
        .unwrap();
        assert_eq!(a.block(0, 1, 2).valid_count(), 3);
        let valid = a.valid_pages(0, 1, 2);
        assert_eq!(valid.len(), 3);
        assert!(valid.iter().all(|&(pg, _)| pg != 1));
    }

    #[test]
    fn invalidate_drops_the_payload() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 1,
            chip: 0,
            block: 4,
            page: 0,
        };
        a.program(p, 5, page_data(&cfg, 9)).unwrap();
        assert!(a.page(p).unwrap().unwrap().data.is_some());
        a.invalidate(p).unwrap();
        assert!(a.page(p).unwrap().unwrap().data.is_none());
        assert_eq!(a.read(p).unwrap_err(), NandError::ReadStale(p));
        assert_eq!(a.owner(p), Some(5));
        assert_eq!(a.block(1, 0, 4).valid_count(), 0);
        assert!(a.valid_pages(1, 0, 4).is_empty());
        // A second invalidate of the stale page changes nothing.
        a.invalidate(p).unwrap();
        assert_eq!(a.block(1, 0, 4).valid_count(), 0);
    }

    #[test]
    fn read_unwritten_fails() {
        let a = arr();
        let p = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(a.read(p).unwrap_err(), NandError::ReadUnwritten(p));
    }

    #[test]
    fn bad_address_fails() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 99,
            chip: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(
            a.program(p, 0, page_data(&cfg, 0)).unwrap_err(),
            NandError::BadAddress(p)
        );
    }

    #[test]
    fn erase_drops_data_and_counts_wear() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 0,
            chip: 0,
            block: 1,
            page: 0,
        };
        a.program(p, 7, page_data(&cfg, 7)).unwrap();
        a.erase(0, 0, 1).unwrap();
        assert!(matches!(a.read(p), Err(NandError::ReadUnwritten(_))));
        assert_eq!(a.erases_total(), 1);
        assert_eq!(a.wear_spread(), (0, 1));
    }
}
