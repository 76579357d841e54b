//! Model-based property tests of the flash device: an arbitrary sequence of
//! writes, overwrites, trims, and reads must behave exactly like a plain
//! `HashMap<lba, payload>`, regardless of how the FTL shuffles physical
//! placement or when garbage collection runs.
//!
//! One level down, the NAND array — which keeps page state only for blocks
//! that hold programmed pages — is held to an eager model with a slot for
//! every physical page: programs, invalidations, reads and erases (of
//! blocks never programmed, programmed, and programmed again after an
//! erase) must leave the same payloads, owners, valid pages and wear; a
//! stale page reads as `ReadStale`, its payload dropped. And the counters
//! GC decides — moves, erases, wear spread — are pinned on fixed op
//! sequences to what the device with the eager array reported.

use bytes::Bytes;
use proptest::prelude::*;
use smartssd_flash::nand::{NandArray, NandError, Ppa};
use smartssd_flash::{FlashConfig, FlashError, FlashSsd};
use smartssd_sim::SimTime;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u8),
    Trim(u64),
    Read(u64),
}

fn arb_op(logical: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..logical, any::<u8>()).prop_map(|(l, v)| Op::Write(l, v)),
        1 => (0..logical).prop_map(Op::Trim),
        2 => (0..logical).prop_map(Op::Read),
    ]
}

fn payload(cfg: &FlashConfig, tag: u8) -> Bytes {
    Bytes::from(vec![tag; cfg.page_size])
}

#[derive(Debug, Clone)]
enum NandOp {
    /// Program the block's next page (legal).
    Program(u8, u8),
    /// Program an arbitrary page (usually illegal).
    ProgramAt(u8, u8, u8),
    Invalidate(u8, u8),
    /// Read every page of a block (the check every op ends with).
    Read(u8),
    Erase(u8),
}

fn arb_nand_op() -> impl Strategy<Value = NandOp> {
    let (block, page) = (0u8..32, 0u8..8);
    prop_oneof![
        6 => (block.clone(), any::<u8>()).prop_map(|(b, v)| NandOp::Program(b, v)),
        1 => (block.clone(), page.clone(), any::<u8>())
            .prop_map(|(b, p, v)| NandOp::ProgramAt(b, p, v)),
        3 => (block.clone(), page).prop_map(|(b, p)| NandOp::Invalidate(b, p)),
        2 => block.clone().prop_map(NandOp::Read),
        1 => block.prop_map(NandOp::Erase),
    ]
}

/// One physical page of the eager model: `(tag, owner, valid)` once
/// programmed.
type Slot = Option<(u8, u64, bool)>;

/// Address of page `page` of the `block`-th block of the tiny geometry
/// (2 channels x 2 chips x 8 blocks).
fn tiny_ppa(block: u8, page: u8) -> Ppa {
    Ppa {
        channel: (block / 16) as u16,
        chip: (block / 8 % 2) as u16,
        block: (block % 8) as u32,
        page: page as u32,
    }
}

/// Every observable of block `b`, compared to the model.
fn check_block(
    nand: &NandArray,
    slots: &[Slot],
    erases: &[u32],
    cfg: &FlashConfig,
    b: u8,
) -> Result<(), TestCaseError> {
    let at = tiny_ppa(b, 0);
    let block = &slots[b as usize * 8..][..8];
    let mut valid = Vec::new();
    for (p, slot) in block.iter().enumerate() {
        let ppa = tiny_ppa(b, p as u8);
        match *slot {
            Some((tag, owner, live)) => {
                // A stale page keeps its owner but not its payload.
                if live {
                    prop_assert_eq!(nand.read(ppa), Ok(&payload(cfg, tag)));
                    valid.push((p as u32, owner));
                } else {
                    prop_assert_eq!(nand.read(ppa), Err(NandError::ReadStale(ppa)));
                }
                prop_assert_eq!(nand.owner(ppa), Some(owner));
            }
            None => {
                prop_assert_eq!(nand.read(ppa), Err(NandError::ReadUnwritten(ppa)));
                prop_assert_eq!(nand.owner(ppa), None);
            }
        }
    }
    let counters = nand.block(at.channel, at.chip, at.block);
    prop_assert_eq!(counters.valid_count() as usize, valid.len());
    prop_assert_eq!(counters.erase_count(), erases[b as usize]);
    prop_assert_eq!(nand.valid_pages(at.channel, at.chip, at.block), valid);
    Ok(())
}

/// A fixed op sequence on the tiny device: `n` operations drawn from a
/// xorshift stream, three quarters writes and a quarter trims over the
/// whole logical space. Returns `(writes, gc_moves, erases, wear_spread)`
/// after checking that every live LBA reads back its last payload.
fn replay(seed: u64, n: usize) -> (u64, u64, u64, (u32, u32)) {
    let cfg = FlashConfig::tiny();
    let mut ssd = FlashSsd::new(cfg.clone());
    let logical = ssd.logical_pages();
    let mut model: HashMap<u64, u8> = HashMap::new();
    let mut x = seed;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 16
    };
    for _ in 0..n {
        let (lba, tag) = (next() % logical, next() as u8);
        if next() % 4 == 0 {
            ssd.trim(lba).unwrap();
            model.remove(&lba);
        } else {
            ssd.write(lba, payload(&cfg, tag), SimTime::ZERO).unwrap();
            model.insert(lba, tag);
        }
    }
    for lba in 0..logical {
        match model.get(&lba) {
            Some(&v) => assert_eq!(ssd.read(lba, SimTime::ZERO).unwrap().0, payload(&cfg, v)),
            None => assert_eq!(
                ssd.read(lba, SimTime::ZERO).unwrap_err(),
                FlashError::Unmapped(lba)
            ),
        }
    }
    let stats = ssd.stats();
    (
        stats.writes,
        stats.gc_moves,
        stats.erases,
        ssd.wear_spread(),
    )
}

/// GC victim choice and wear-aware allocation read only the per-block
/// counters, so how page state is stored cannot move them: these ledgers
/// were recorded from the array that kept every page slot eagerly.
#[test]
fn gc_ledger_is_what_the_eager_array_reported() {
    assert_eq!(replay(42, 4_000), LEDGER_42);
    assert_eq!(replay(7, 10_000), LEDGER_7);
}

const LEDGER_42: (u64, u64, u64, (u32, u32)) = (2_999, 3_182, 749, (20, 28));
const LEDGER_7: (u64, u64, u64, (u32, u32)) = (7_459, 7_700, 1_871, (53, 66));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn device_behaves_like_a_map(ops in prop::collection::vec(arb_op(96), 1..600)) {
        let cfg = FlashConfig::tiny();
        let logical = {
            let ssd = FlashSsd::new(cfg.clone());
            ssd.logical_pages()
        };
        prop_assume!(logical >= 96);
        let mut ssd = FlashSsd::new(cfg.clone());
        let mut model: HashMap<u64, u8> = HashMap::new();
        let (mut writes, mut reads) = (0, 0);
        for op in ops {
            match op {
                Op::Write(lba, v) => {
                    ssd.write(lba, payload(&cfg, v), SimTime::ZERO).unwrap();
                    model.insert(lba, v);
                    writes += 1;
                }
                Op::Trim(lba) => {
                    ssd.trim(lba).unwrap();
                    model.remove(&lba);
                }
                Op::Read(lba) => match model.get(&lba) {
                    Some(&v) => {
                        let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
                        prop_assert!(data.iter().all(|&b| b == v), "lba {lba}");
                        reads += 1;
                    }
                    None => {
                        prop_assert_eq!(
                            ssd.read(lba, SimTime::ZERO).unwrap_err(),
                            FlashError::Unmapped(lba)
                        );
                    }
                },
            }
        }
        // The counters count what was asked, and wear adds up: no block
        // was erased more often than the device erased in all.
        let stats = *ssd.stats();
        prop_assert_eq!((stats.writes, stats.reads), (writes, reads));
        let (min_wear, max_wear) = ssd.wear_spread();
        prop_assert!(min_wear <= max_wear && max_wear as u64 <= stats.erases);
        // Final full sweep: everything the model holds must be readable.
        for (&lba, &v) in &model {
            let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
            prop_assert!(data.iter().all(|&b| b == v));
        }
    }

    #[test]
    fn nand_array_behaves_like_an_eager_array(
        ops in prop::collection::vec(arb_nand_op(), 1..400)
    ) {
        let cfg = FlashConfig::tiny();
        let mut nand = NandArray::new(&cfg);
        let mut slots: Vec<Slot> = vec![None; 32 * 8];
        let mut erases = vec![0u32; 32];
        for (i, op) in ops.into_iter().enumerate() {
            let lba = i as u64;
            let touched = match op {
                NandOp::Program(b, v) | NandOp::ProgramAt(b, _, v) => {
                    let block = &mut slots[b as usize * 8..][..8];
                    let next = block.iter().position(Option::is_none);
                    let page = match op {
                        NandOp::ProgramAt(_, p, _) => p,
                        _ => next.unwrap_or(0) as u8,
                    };
                    let ppa = tiny_ppa(b, page);
                    let want = if block[page as usize].is_some() {
                        Err(NandError::ProgramNotFree(ppa))
                    } else if next != Some(page as usize) {
                        Err(NandError::ProgramOutOfOrder(ppa))
                    } else {
                        block[page as usize] = Some((v, lba, true));
                        Ok(())
                    };
                    prop_assert_eq!(nand.program(ppa, lba, payload(&cfg, v)), want);
                    b
                }
                NandOp::Invalidate(b, p) => {
                    if let Some((_, _, live)) = &mut slots[b as usize * 8 + p as usize] {
                        *live = false;
                    }
                    prop_assert_eq!(nand.invalidate(tiny_ppa(b, p)), Ok(()));
                    b
                }
                NandOp::Read(b) => b,
                NandOp::Erase(b) => {
                    slots[b as usize * 8..][..8].fill(None);
                    erases[b as usize] += 1;
                    let at = tiny_ppa(b, 0);
                    prop_assert_eq!(nand.erase(at.channel, at.chip, at.block), Ok(()));
                    b
                }
            };
            check_block(&nand, &slots, &erases, &cfg, touched)?;
        }
        for b in 0..32 {
            check_block(&nand, &slots, &erases, &cfg, b)?;
        }
        let total: u32 = erases.iter().sum();
        prop_assert_eq!(nand.erases_total(), total as u64);
        let spread = (*erases.iter().min().unwrap(), *erases.iter().max().unwrap());
        prop_assert_eq!(nand.wear_spread(), spread);
    }

    #[test]
    fn gc_never_loses_data_under_pressure(
        seed_ops in prop::collection::vec((0u64..1000, any::<u8>()), 200..500)
    ) {
        // Hammer a small device close to capacity; GC must relocate
        // correctly every time.
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        let logical = ssd.logical_pages();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (raw, v) in seed_ops {
            let lba = raw % logical;
            ssd.write(lba, payload(&cfg, v), SimTime::ZERO).unwrap();
            model.insert(lba, v);
        }
        for (&lba, &v) in &model {
            let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
            prop_assert!(data.iter().all(|&b| b == v));
        }
        // Write amplification is finite and >= 1.
        let wa = ssd.stats().write_amplification();
        prop_assert!((1.0..10.0).contains(&wa), "write amplification {wa}");
    }

    #[test]
    fn timing_is_monotone_per_resource(lbas in prop::collection::vec(0u64..64, 1..200)) {
        // Issuing reads in order at time zero: each read's completion is
        // positive, and total busy time only grows.
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        for lba in 0..64u64 {
            ssd.write(lba, payload(&cfg, lba as u8), SimTime::ZERO).unwrap();
        }
        ssd.reset_timing();
        let mut busy_prev = 0;
        for lba in lbas {
            let (_, iv) = ssd.read(lba, SimTime::ZERO).unwrap();
            prop_assert!(iv.end > iv.start);
            let busy = ssd.dram_busy_ns();
            prop_assert!(busy >= busy_prev);
            busy_prev = busy;
        }
    }
}
