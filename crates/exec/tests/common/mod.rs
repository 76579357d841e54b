//! A recording in-memory [`OpSite`]: the fake the driver tests run
//! operators on. Pages live in a map by LBA; the clock is a plain `u64`
//! with one serial read channel (100 ticks a page) and one serial
//! processor (one tick plus one per tuple a receipt visited), so every
//! arrival and completion instant is distinct and predictable. Every call
//! the driver makes is appended to `calls`.

#![allow(dead_code)] // each test binary uses its own subset

use smartssd_exec::{OpSite, TableRef, WorkCounts};
use smartssd_storage::{PageBuf, TableImage};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Ticks one page read occupies the channel.
pub const READ_TICKS: u64 = 100;

/// One call the driver made on the site. A streamed table read logs
/// `ReadTable`, then one `ReadPage` per page, each before that page is
/// handed to the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    ReadTable {
        first_lba: u64,
        at: u64,
        shareable: bool,
    },
    ReadPage {
        lba: u64,
        at: u64,
    },
    Charge {
        at: u64,
        work: WorkCounts,
        done: u64,
    },
    Grant {
        resident: u64,
    },
}

/// The site refused a read (no such page) or a grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refused {
    Unmapped(u64),
    Grant { resident: u64 },
}

pub struct RecordingSite {
    pages: HashMap<u64, PageBuf>,
    pub calls: Vec<Call>,
    /// Largest working set `check_grant` accepts.
    pub grant: u64,
    /// `batch_cut_bytes`.
    pub cut: u64,
    channel_free: u64,
    cpu_free: u64,
}

impl RecordingSite {
    pub fn new() -> Self {
        RecordingSite {
            pages: HashMap::new(),
            calls: Vec::new(),
            grant: u64::MAX,
            cut: u64::MAX,
            channel_free: 0,
            cpu_free: 0,
        }
    }

    /// Stores `img` from `first_lba` on and returns its reference.
    pub fn load(&mut self, img: &TableImage, first_lba: u64) -> TableRef {
        self.load_pages(img.pages(), first_lba);
        TableRef {
            first_lba,
            num_pages: img.num_pages() as u64,
            schema: img.schema().clone(),
            layout: img.layout(),
        }
    }

    /// Stores `pages` at consecutive LBAs from `first_lba` on.
    pub fn load_pages(&mut self, pages: &[PageBuf], first_lba: u64) {
        for (i, page) in pages.iter().enumerate() {
            self.pages.insert(first_lba + i as u64, page.clone());
        }
    }

    /// The receipts charged so far, in order.
    pub fn charges(&self) -> Vec<WorkCounts> {
        self.calls
            .iter()
            .filter_map(|c| match c {
                Call::Charge { work, .. } => Some(*work),
                _ => None,
            })
            .collect()
    }
}

impl OpSite for RecordingSite {
    type Instant = u64;
    type Error = Refused;

    fn read_page(&mut self, lba: u64, at: u64) -> Result<(PageBuf, u64), Refused> {
        self.calls.push(Call::ReadPage { lba, at });
        let page = self.pages.get(&lba).ok_or(Refused::Unmapped(lba))?;
        self.channel_free = self.channel_free.max(at) + READ_TICKS;
        Ok((page.clone(), self.channel_free))
    }

    /// The trait's default page loop, with the stream's opening logged.
    fn read_table(
        &mut self,
        table: &TableRef,
        at: u64,
        shareable: bool,
        arrivals: &mut Vec<u64>,
        mut consume: impl FnMut(&mut Self, &PageBuf) -> ControlFlow<()>,
    ) -> Result<(), Refused> {
        self.calls.push(Call::ReadTable {
            first_lba: table.first_lba,
            at,
            shareable,
        });
        for lba in table.lbas() {
            let (page, arrived) = self.read_page(lba, at)?;
            arrivals.push(arrived);
            if consume(self, &page).is_break() {
                break;
            }
        }
        Ok(())
    }

    fn charge(&mut self, at: u64, work: &WorkCounts) -> u64 {
        let done = self.cpu_free.max(at) + 1 + work.tuples();
        self.cpu_free = done;
        self.calls.push(Call::Charge {
            at,
            work: *work,
            done,
        });
        done
    }

    fn check_grant(&mut self, resident: u64) -> Result<(), Refused> {
        self.calls.push(Call::Grant { resident });
        if resident > self.grant {
            return Err(Refused::Grant { resident });
        }
        Ok(())
    }

    fn batch_cut_bytes(&self) -> u64 {
        self.cut
    }
}
