//! The Smart SSD runtime: session protocol and in-device query execution.
//!
//! Implements the paper's Section 3 API. `OPEN` carries a
//! [`QueryOp`] describing the operator to run and starts execution; `GET`
//! polls for result batches (the device is a passive SATA/SAS target — the
//! host initiates every transfer); `CLOSE` releases the session's thread and
//! memory grants.
//!
//! Execution charges two simulated resources as real bytes flow:
//!
//! * the **internal data path** — every input page is read through the
//!   flash emulator (NAND die, channel bus, shared DRAM bus), so an
//!   I/O-light query runs at the internal ~1,560 MB/s of Table 2;
//! * the **embedded CPU** — every page's operator work is priced by the
//!   device cost table and executed on the device's few slow cores, which
//!   is what caps compute-heavy queries below the bandwidth bound (the
//!   1.7x-instead-of-2.8x effect of Figure 3).
//!
//! The operator loop itself — read pages, run the kernel, charge its
//! receipt, cut batches — is [`smartssd_exec::run_op`], shared with the host
//! engine; this module supplies its device-side [`OpSite`].

use crate::config::DeviceConfig;
use smartssd_exec::{run_op, OpScratch, OpSite, QueryOp, TableRef, WorkCounts};
use smartssd_flash::{FlashConfig, FlashError, FlashSsd, READ_RETRY_LIMIT};
use smartssd_sim::{CpuModel, FaultCounters, SimTime};
use smartssd_storage::expr::ExprError;
use smartssd_storage::page::PageError;
use smartssd_storage::{PageBuf, PageDecodeCache, TableImage};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Deterministic xorshift64 stream for crash injection; the seed is fixed
/// so runs replay bit-exactly.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 32) as u32
    }
}

/// Handle returned by `OPEN` (paper: "a unique session id is then returned
/// to the host").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

/// One unit of output retrieved by a `GET`: `bytes` is the payload size as
/// transferred over the host interface, `ready_at` the simulated time at
/// which the device finished producing the batch.
pub type ResultBatch = smartssd_exec::ResultBatch<SimTime>;

/// Response to a `GET` poll.
#[derive(Debug, Clone)]
pub enum GetResponse {
    /// The program is still running; poll again at `ready_at`.
    Running {
        /// When the next batch becomes available.
        ready_at: SimTime,
    },
    /// One batch of results.
    Batch(ResultBatch),
    /// All results have been retrieved.
    Done,
}

/// Device-side failures surfaced through the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The `OPEN` command payload failed to unmarshal.
    Wire(smartssd_exec::WireError),
    /// All session slots (thread grants) are taken.
    TooManySessions,
    /// The session's working set exceeded its memory grant.
    MemoryGrantExceeded {
        /// Bytes the operator needed.
        needed: u64,
        /// Bytes the runtime could grant.
        grant: u64,
    },
    /// No such session (bad id, or already closed).
    UnknownSession(u32),
    /// The operator parameters failed validation.
    Validation(ExprError),
    /// The operator names a table extent — first LBA, page count, layout
    /// and schema — that no [`SmartSsd::load_table`] wrote.
    UnknownExtent {
        /// First LBA of the named extent.
        lba: u64,
        /// Its page count.
        pages: u64,
    },
    /// Flash read failure that survived the firmware's retry.
    Flash(FlashError),
    /// A page failed integrity validation after the flash read.
    Page(PageError),
    /// The smart-protocol firmware crashed and is resetting: every open
    /// session died with it, and `OPEN` is refused until the reset
    /// completes. The block path (host-side execution) is a separate
    /// failure domain and stays available.
    DeviceReset {
        /// Simulated time the failure was observed.
        at: SimTime,
        /// Simulated time the firmware reset completes.
        until: SimTime,
    },
    /// The firmware's bounded read-retry policy ran out of budget; the
    /// session is dead and the host should degrade to host-side execution.
    RetriesExhausted {
        /// Logical address of the failing page.
        lba: u64,
        /// Retries spent before giving up.
        attempts: u32,
        /// Simulated time at which the final attempt completed — the
        /// earliest moment a host-side fallback can start.
        at: SimTime,
        /// The error the final attempt failed with.
        cause: Box<DeviceError>,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Wire(e) => write!(f, "malformed OPEN payload: {e}"),
            DeviceError::TooManySessions => write!(f, "no free session slots"),
            DeviceError::MemoryGrantExceeded { needed, grant } => {
                write!(f, "memory grant exceeded: needed {needed}B, grant {grant}B")
            }
            DeviceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            DeviceError::Validation(e) => write!(f, "invalid operator: {e}"),
            DeviceError::UnknownExtent { lba, pages } => {
                write!(
                    f,
                    "no table of that schema and layout at {pages} pages from LBA {lba}"
                )
            }
            DeviceError::Flash(e) => write!(f, "flash: {e}"),
            DeviceError::Page(e) => write!(f, "page: {e}"),
            DeviceError::DeviceReset { at, until } => write!(
                f,
                "device firmware reset at {at}, unavailable until {until}"
            ),
            DeviceError::RetriesExhausted {
                lba,
                attempts,
                at,
                cause,
            } => write!(
                f,
                "read retries exhausted at LBA {lba} after {attempts} retries (at {at}): {cause}"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// One session slot: the id of the session holding it (0 when free, ids
/// start at 1), its batch queue and its work receipt. A slot and its queue
/// outlive their session, so a warm device opens one without allocating.
#[derive(Default)]
struct Session {
    id: u32,
    queue: VecDeque<ResultBatch>,
    work: WorkCounts,
}

/// One page held in device DRAM for shared-scan fan-out: the validated
/// page, the time its (single) flash read completed, and the sessions
/// currently entitled to it. The entry is evicted when the last owner
/// closes — the model is a scan-sharing window, not a general device cache.
struct SharedScanEntry {
    page: PageBuf,
    ready_at: SimTime,
    owners: Vec<u32>,
}

/// The Smart SSD: flash device + embedded CPU + session runtime.
pub struct SmartSsd {
    cfg: DeviceConfig,
    /// The underlying flash device (shared with normal block traffic).
    pub flash: FlashSsd,
    cpu: CpuModel,
    /// The session slots, grown to the most ever open at once.
    sessions: Vec<Session>,
    next_id: u32,
    /// Every table [`SmartSsd::load_table`] wrote and no later load
    /// overwrote, by `(first_lba, num_pages)`: the only extents an `OPEN`
    /// may name.
    tables: BTreeMap<(u64, u64), TableRef>,
    total_work: WorkCounts,
    faults: FaultCounters,
    /// Shared-scan window, keyed by LBA. Populated only when
    /// [`DeviceConfig::shared_scans`] is on.
    share_cache: HashMap<u64, SharedScanEntry>,
    /// Reverse index of the window: the LBAs each session owns, so a CLOSE
    /// releases exactly that session's pages instead of sweeping the whole
    /// cache. Kept in lockstep with `share_cache` owner lists.
    share_owner_pages: HashMap<u32, Vec<u64>>,
    shared_hits: u64,
    /// RNG for whole-device crash injection. Consulted only when
    /// [`smartssd_sim::FaultRates::crash_rate`] is nonzero, so clean
    /// configurations draw nothing and stay bit-identical.
    crash_rng: XorShift,
    /// Simulated time the in-progress firmware reset completes; `ZERO`
    /// when the device is healthy.
    reset_done: SimTime,
    /// Session ids killed by a crash whose owners have not yet observed
    /// the death. `GET` on a victim reports the reset; `CLOSE` succeeds
    /// (the grants are already gone).
    reset_victims: HashSet<u32>,
    /// Cursor into the scripted crash schedule
    /// ([`DeviceConfig::fault_plan`]): the next instant that has not fired
    /// yet. Timing state — reset with the timelines so a scenario replays
    /// bit-exactly run after run.
    plan_crash_cursor: usize,
    /// Per-LBA memo of checksum validation. Pointer-identity keyed, so a
    /// rewritten or corrupted buffer is always re-validated; not timing
    /// state, so it survives [`SmartSsd::reset_timing`].
    page_cache: PageDecodeCache,
    /// The operator driver's buffers, kept from one execution to the next.
    scratch: OpScratch<SimTime>,
}

impl SmartSsd {
    /// Builds a Smart SSD from flash geometry and device resources.
    pub fn new(flash_cfg: FlashConfig, cfg: DeviceConfig) -> Self {
        cfg.validate();
        let cpu = CpuModel::new("device-cpu", cfg.cpu_cores, cfg.cpu_hz);
        Self {
            flash: FlashSsd::new(flash_cfg),
            cpu,
            sessions: Vec::new(),
            next_id: 1,
            tables: BTreeMap::new(),
            total_work: WorkCounts::default(),
            faults: FaultCounters::default(),
            share_cache: HashMap::new(),
            share_owner_pages: HashMap::new(),
            shared_hits: 0,
            crash_rng: XorShift(0xD1B5_4A32_D192_ED03),
            reset_done: SimTime::ZERO,
            reset_victims: HashSet::new(),
            plan_crash_cursor: 0,
            page_cache: PageDecodeCache::new(),
            scratch: OpScratch::default(),
            cfg,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Mutable device configuration — the fault-injection hook fleet
    /// experiments and tests use to degrade one device (e.g. arm
    /// `crash_rate` on a single fleet member) without rebuilding it.
    pub fn config_mut(&mut self) -> &mut DeviceConfig {
        &mut self.cfg
    }

    /// Number of currently open sessions. Diagnostics: the session-leak
    /// regression tests assert this returns to zero after every run,
    /// including error paths.
    pub fn open_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.id != 0).count()
    }

    /// Session slots an `OPEN` could take now: a host that finds none parks
    /// its query instead of sending an `OPEN` the device would refuse.
    pub fn free_slots(&self) -> usize {
        self.cfg.max_sessions.saturating_sub(self.open_sessions())
    }

    /// The slot of live session `sid`.
    fn slot_of(&self, sid: SessionId) -> Result<usize, DeviceError> {
        let live = |s: &Session| s.id == sid.0 && sid.0 != 0;
        let slot = self.sessions.iter().position(live);
        slot.ok_or(DeviceError::UnknownSession(sid.0))
    }

    /// Device-side completion estimate for a live session: the readiness
    /// time of the last result batch still queued. `None` for an unknown
    /// session or one whose queue is fully drained. Unlike `GET`, this peek
    /// never consumes a batch, so a coordinator can rank shards by expected
    /// finish (straggler detection) without perturbing the protocol.
    pub fn session_eta(&self, sid: SessionId) -> Option<SimTime> {
        let slot = self.slot_of(sid).ok()?;
        self.sessions[slot].queue.back().map(|b| b.ready_at)
    }

    /// The embedded CPU (utilization/energy accounting).
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// Attaches a tracer to the device's internal resources: flash channels,
    /// the shared DRAM bus, and the device CPU cores.
    pub fn set_tracer(&mut self, tracer: smartssd_sim::Tracer) {
        self.flash.set_tracer(tracer.clone());
        self.cpu
            .set_tracer(tracer, smartssd_sim::trace::pid::DEVICE_CPU);
    }

    /// Aggregate operator work performed since the last timing reset.
    pub fn total_work(&self) -> &WorkCounts {
        &self.total_work
    }

    /// Fault/recovery counters since the last timing reset: the flash
    /// emulator's ECC events merged with the firmware's own retry and
    /// escape-detection counts.
    pub fn fault_counters(&self) -> FaultCounters {
        let stats = self.flash.stats();
        FaultCounters {
            ecc_retries: stats.ecc_retries,
            ecc_failures: stats.ecc_failures,
            ..self.faults
        }
    }

    /// Loads a table image onto the device starting at `first_lba`,
    /// returning the [`TableRef`] the host will embed in `OPEN` parameters.
    /// A table it overwrites, in whole or in part, can no longer be opened.
    pub fn load_table(
        &mut self,
        img: &TableImage,
        first_lba: u64,
    ) -> Result<TableRef, DeviceError> {
        let tref = TableRef {
            first_lba,
            num_pages: img.num_pages() as u64,
            schema: img.schema().clone(),
            layout: img.layout(),
        };
        let end = first_lba.saturating_add(tref.num_pages);
        self.tables
            .retain(|&(first, n), _| first.max(first_lba) >= end.min(first.saturating_add(n)));
        for (i, page) in img.pages().iter().enumerate() {
            self.flash
                .write(first_lba + i as u64, page.raw().clone(), SimTime::ZERO)
                .map_err(DeviceError::Flash)?;
        }
        self.tables
            .insert((first_lba, tref.num_pages), tref.clone());
        Ok(tref)
    }

    /// Trims `lba` on the flash and drops its memoized validation, so the
    /// replaced page is not kept alive by the memo.
    pub fn trim(&mut self, lba: u64) -> Result<(), FlashError> {
        self.flash.trim(lba)?;
        self.page_cache.forget(lba);
        Ok(())
    }

    /// Whether every table `op` names is one this device loaded, with the
    /// schema and layout it was loaded with: an extent past the end of the
    /// LBA space, a page count no allocation could hold, or pages decoded
    /// under the wrong schema would otherwise reach the operator.
    fn check_extents(&self, op: &QueryOp) -> Result<(), DeviceError> {
        for t in op.tables() {
            let (lba, pages) = (t.first_lba, t.num_pages);
            let same = self.tables.get(&(lba, pages)).is_some_and(|l| {
                l.layout == t.layout && (Arc::ptr_eq(&l.schema, &t.schema) || l.schema == t.schema)
            });
            if !same {
                return Err(DeviceError::UnknownExtent { lba, pages });
            }
        }
        Ok(())
    }

    /// Page reads served out of the shared-scan window since the last
    /// timing reset — flash reads that concurrent sessions did *not* pay
    /// for because a peer's read was fanned out to them.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Resets timing state (flash timelines, CPU, work counters, the
    /// shared-scan window) between the load phase and a timed experiment.
    /// Sessions survive.
    pub fn reset_timing(&mut self) {
        self.flash.reset_timing();
        self.cpu.reset();
        self.total_work = WorkCounts::default();
        self.faults = FaultCounters::default();
        self.share_cache.clear();
        self.share_owner_pages.clear();
        self.shared_hits = 0;
        // Crash state is timing state; the RNG is not (its stream must keep
        // advancing across resets, like the flash error RNG).
        self.reset_done = SimTime::ZERO;
        self.reset_victims.clear();
        self.plan_crash_cursor = 0;
    }

    /// Fires the next scripted crash ([`DeviceConfig::fault_plan`]) if its
    /// instant has passed and the device is not already mid-reset. Crashes
    /// fire at the first session activity at or after their scripted time —
    /// the device is a passive target, so a fault is only *observed* when
    /// the host talks to it.
    fn poll_scripted_crash(&mut self, now: SimTime) -> Option<DeviceError> {
        let at = *self.cfg.fault_plan.crashes().get(self.plan_crash_cursor)?;
        if now < at || now < self.reset_done {
            return None;
        }
        self.plan_crash_cursor += 1;
        Some(self.crash(now))
    }

    /// Cycle price of one page batch, inflated by any scripted slowdown
    /// window covering the batch's start: a gray device's firmware is slow
    /// too, not just its media.
    fn batch_cycles(&self, w: &WorkCounts, at: SimTime) -> u64 {
        self.cfg.costs.cycles(w) * self.cfg.fault_plan.slowdown_factor(at) as u64
    }

    /// Kills every open session and takes the smart runtime offline until
    /// the firmware reset completes.
    fn crash(&mut self, now: SimTime) -> DeviceError {
        let until = now + self.cfg.fault_rates.reset_latency;
        self.faults.device_crashes += 1;
        self.faults.reset_downtime_ns += self.cfg.fault_rates.reset_latency.as_nanos();
        for s in self.sessions.iter_mut().filter(|s| s.id != 0) {
            self.faults.killed_sessions += 1;
            self.reset_victims.insert(std::mem::take(&mut s.id));
            s.queue.clear();
        }
        self.share_cache.clear();
        self.share_owner_pages.clear();
        self.reset_done = until;
        DeviceError::DeviceReset { at: now, until }
    }

    /// `OPEN`: validates the operator, grants session resources, and starts
    /// execution at simulated time `now`.
    pub fn open(&mut self, op: &QueryOp, now: SimTime) -> Result<SessionId, DeviceError> {
        if now < self.reset_done {
            // Reset storm: a command that hammers mid-reset firmware
            // interrupts recovery and pushes completion back by a quarter
            // of the base reset latency. Hosts that keep probing a sick
            // device prolong its downtime; health-aware routing that backs
            // off lets it come back on schedule.
            let penalty = SimTime::from_nanos(self.cfg.fault_rates.reset_latency.as_nanos() / 4);
            self.reset_done += penalty;
            self.faults.reset_downtime_ns += penalty.as_nanos();
            return Err(DeviceError::DeviceReset {
                at: now,
                until: self.reset_done,
            });
        }
        if let Some(err) = self.poll_scripted_crash(now) {
            return Err(err);
        }
        if self.cfg.fault_rates.crash_rate > 0
            && self.crash_rng.next_u32() < self.cfg.fault_rates.crash_rate
        {
            return Err(self.crash(now));
        }
        if self.free_slots() == 0 {
            return Err(DeviceError::TooManySessions);
        }
        self.check_extents(op)?;
        op.validate().map_err(DeviceError::Validation)?;
        // The id is reserved before execution so shared-scan entries can be
        // tagged with their owner; it is only consumed on success.
        let id = self.next_id;
        let mut scratch = std::mem::take(&mut self.scratch);
        let run = run_op(&mut DeviceSite { dev: self, id }, op, now, &mut scratch);
        self.scratch = scratch;
        // A failed OPEN holds no grants: drop any shared-scan ownership the
        // partial execution registered.
        let mut run = run.inspect_err(|_| self.release_shared(id))?;
        if let QueryOp::GroupAgg { .. } = op {
            // Group rows materialize after the scan, outside any page's
            // receipt: the session's work records them, no cycles are due.
            run.work.out_tuples += run.last.rows.len() as u64;
            run.work.out_bytes += run.last.bytes;
        }
        self.next_id += 1;
        self.total_work.absorb(&run.work);
        if self.sessions.iter().all(|s| s.id != 0) {
            self.sessions.push(Session::default());
        }
        // The device computes the whole batch queue now, with simulated
        // timestamps; `GET` polls replay it to the host.
        let s = self
            .sessions
            .iter_mut()
            .find(|s| s.id == 0)
            .expect("a free slot");
        (s.id, s.work) = (id, run.work);
        s.queue.extend(run.full);
        s.queue.push_back(run.last);
        Ok(SessionId(id))
    }

    /// `OPEN`, from the raw command payload as it crosses the SAS link:
    /// unmarshals the operator (rejecting malformed payloads) and starts
    /// the session. This is the entry point device firmware would expose.
    pub fn open_raw(&mut self, payload: &[u8], now: SimTime) -> Result<SessionId, DeviceError> {
        let op = smartssd_exec::decode_op(payload).map_err(DeviceError::Wire)?;
        self.open(&op, now)
    }

    /// `GET`: polls the session at simulated time `now`.
    pub fn get(&mut self, sid: SessionId, now: SimTime) -> Result<GetResponse, DeviceError> {
        if let Some(err) = self.poll_scripted_crash(now) {
            return Err(err);
        }
        if self.reset_victims.contains(&sid.0) {
            return Err(DeviceError::DeviceReset {
                at: now,
                until: self.reset_done,
            });
        }
        let slot = self.slot_of(sid)?;
        let session = &mut self.sessions[slot];
        match session.queue.front() {
            None => Ok(GetResponse::Done),
            Some(b) if b.ready_at > now => Ok(GetResponse::Running {
                ready_at: b.ready_at,
            }),
            Some(_) => Ok(GetResponse::Batch(
                session.queue.pop_front().expect("front checked"),
            )),
        }
    }

    /// `CLOSE`: releases the session's grants (including its shared-scan
    /// ownership) and clears its state.
    pub fn close(&mut self, sid: SessionId) -> Result<(), DeviceError> {
        // A session killed by a firmware crash has no grants left to
        // release; its CLOSE is an acknowledged no-op.
        if self.reset_victims.remove(&sid.0) {
            return Ok(());
        }
        let slot = self.slot_of(sid)?;
        let s = &mut self.sessions[slot];
        s.id = 0;
        s.queue.clear();
        self.release_shared(sid.0);
        Ok(())
    }

    /// Drops one session's ownership of shared-scan pages, evicting entries
    /// nobody holds anymore. The reverse index makes this O(pages the
    /// session touched) rather than a sweep of the whole window, so a
    /// million CLOSEs don't rescan the cache a million times.
    fn release_shared(&mut self, owner: u32) {
        let Some(lbas) = self.share_owner_pages.remove(&owner) else {
            return;
        };
        for lba in lbas {
            if let Some(e) = self.share_cache.get_mut(&lba) {
                e.owners.retain(|&o| o != owner);
                if e.owners.is_empty() {
                    self.share_cache.remove(&lba);
                }
            }
        }
    }

    /// Work receipt of a live session (diagnostics).
    pub fn session_work(&self, sid: SessionId) -> Option<&WorkCounts> {
        Some(&self.sessions[self.slot_of(sid).ok()?].work)
    }

    /// Reads one page through the internal data path under a single bounded
    /// retry policy covering both uncorrectable errors and checksum
    /// mismatches (silent ECC escapes), lending the validated page (the
    /// decode memo's, so a warm read clones nothing) with its availability
    /// time.
    ///
    /// Every retry is posted at the *failed attempt's completion time* —
    /// an uncorrectable read still occupied the channel/chip until
    /// `failed_at`, and an escape is only detected once the page has fully
    /// arrived in device DRAM — so recovery latency and energy are charged
    /// to the run. On budget exhaustion the typed
    /// [`DeviceError::RetriesExhausted`] is returned; there is no panic
    /// path.
    fn read_page(&mut self, lba: u64, now: SimTime) -> Result<(&PageBuf, SimTime), DeviceError> {
        let mut t = now;
        let mut attempts = 0u32;
        let arrived = loop {
            let cause = match self.flash.read_ref(lba, t) {
                Ok((data, iv)) => match self.page_cache.validate(lba, &data) {
                    Ok(()) => break iv.end,
                    Err(e) => {
                        // The escape is caught by the page checksum only
                        // after the transfer finished: re-read from iv.end.
                        self.faults.escapes_detected += 1;
                        t = iv.end;
                        DeviceError::Page(e)
                    }
                },
                Err(FlashError::Uncorrectable { lba, failed_at }) => {
                    // The failed attempt held the flash path until
                    // failed_at; the firmware retry starts there.
                    t = failed_at;
                    DeviceError::Flash(FlashError::Uncorrectable { lba, failed_at })
                }
                Err(e) => return Err(DeviceError::Flash(e)),
            };
            if attempts >= READ_RETRY_LIMIT {
                return Err(DeviceError::RetriesExhausted {
                    lba,
                    attempts,
                    at: t,
                    cause: Box::new(cause),
                });
            }
            attempts += 1;
            self.faults.read_retries += 1;
        };
        Ok((self.page_cache.page(lba).expect("validated above"), arrived))
    }

    /// [`Self::read_page`] with shared-scan fan-out: if a concurrent scan
    /// session already fetched this LBA, the page is served from device
    /// DRAM at `max(peer's completion, now)` — no flash traffic, no
    /// channel/bus occupancy — and `owner` joins the entry's owner list.
    /// Otherwise the page is read normally and published for peers.
    fn read_page_shared(
        &mut self,
        lba: u64,
        now: SimTime,
        owner: u32,
    ) -> Result<(&PageBuf, SimTime), DeviceError> {
        let at = if let Some(entry) = self.share_cache.get_mut(&lba) {
            self.shared_hits += 1;
            if !entry.owners.contains(&owner) {
                entry.owners.push(owner);
                self.share_owner_pages.entry(owner).or_default().push(lba);
            }
            // An in-flight read is joined (available at its completion); a
            // finished one is available immediately.
            entry.ready_at.max(now)
        } else {
            let (page, ready_at) = self.read_page(lba, now)?;
            let entry = SharedScanEntry {
                page: page.clone(),
                ready_at,
                owners: vec![owner],
            };
            self.share_cache.insert(lba, entry);
            self.share_owner_pages.entry(owner).or_default().push(lba);
            ready_at
        };
        Ok((&self.share_cache[&lba].page, at))
    }
}

/// The device as [`run_op`] sees it: reads go through the internal data
/// path (flash, channels, DRAM bus), receipts are priced by the device cost
/// table and executed on the embedded cores, the working set is held to the
/// session's memory grant, and row streams are cut at the `GET` result
/// buffer.
struct DeviceSite<'a> {
    dev: &'a mut SmartSsd,
    /// The session id the OPEN reserved; shared-scan pages are tagged with
    /// it.
    id: u32,
}

impl OpSite for DeviceSite<'_> {
    type Instant = SimTime;
    type Error = DeviceError;

    /// The firmware's read: one page under its bounded retry policy. With
    /// a `shareable` read and shared scans on, the page goes through the
    /// shared-scan window as this session.
    fn read_page(
        &mut self,
        lba: u64,
        at: SimTime,
        shareable: bool,
    ) -> Result<(&PageBuf, SimTime), DeviceError> {
        if shareable && self.dev.cfg.shared_scans {
            self.dev.read_page_shared(lba, at, self.id)
        } else {
            self.dev.read_page(lba, at)
        }
    }

    fn charge(&mut self, at: SimTime, work: &WorkCounts) -> SimTime {
        let cycles = self.dev.batch_cycles(work, at);
        self.dev.cpu.execute(at, cycles).end
    }

    fn check_grant(&mut self, needed: u64) -> Result<(), DeviceError> {
        let grant = self.dev.cfg.session_memory_bytes;
        if needed > grant {
            return Err(DeviceError::MemoryGrantExceeded { needed, grant });
        }
        Ok(())
    }

    fn batch_cut_bytes(&self) -> u64 {
        self.dev.cfg.result_buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_exec::spec::{BuildSide, ColRef, JoinSpec, ScanAggSpec, ScanSpec};
    use smartssd_storage::expr::{AggSpec, AggState, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder, Tuple};

    fn device() -> SmartSsd {
        SmartSsd::new(FlashConfig::default(), DeviceConfig::default())
    }

    fn small_table(layout: Layout, n: i32) -> TableImage {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new("t", Arc::clone(&s), layout);
        b.extend((0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64 * 3)] as Tuple));
        b.finish()
    }

    /// Drains a session to completion, returning rows, aggs, and finish time.
    fn drain(dev: &mut SmartSsd, sid: SessionId) -> (Vec<Tuple>, Option<Vec<AggState>>, SimTime) {
        let mut rows = Vec::new();
        let mut aggs: Option<Vec<AggState>> = None;
        let mut t = SimTime::ZERO;
        loop {
            match dev.get(sid, t).unwrap() {
                GetResponse::Running { ready_at } => t = ready_at,
                GetResponse::Batch(b) => {
                    t = t.max(b.ready_at);
                    rows.extend(b.rows);
                    if let Some(parts) = b.aggs {
                        match &mut aggs {
                            None => aggs = Some(parts),
                            Some(acc) => {
                                for (a, p) in acc.iter_mut().zip(parts.iter()) {
                                    a.merge(p);
                                }
                            }
                        }
                    }
                }
                GetResponse::Done => return (rows, aggs, t),
            }
        }
    }

    #[test]
    fn scan_agg_session_computes_correct_sum() {
        let mut dev = device();
        let img = small_table(Layout::Pax, 10_000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(100)),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        };
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        let (rows, aggs, done) = drain(&mut dev, sid);
        assert!(rows.is_empty());
        let aggs = aggs.unwrap();
        assert_eq!(aggs[0].finish(), (0..100i128).map(|k| k * 3).sum::<i128>());
        assert_eq!(aggs[1].finish(), 100);
        assert!(done > SimTime::ZERO);
        dev.close(sid).unwrap();
    }

    #[test]
    fn scan_session_streams_batches() {
        let mut dev = SmartSsd::new(
            FlashConfig::default(),
            DeviceConfig {
                result_buffer_bytes: 4096, // force multiple batches
                ..DeviceConfig::default()
            },
        );
        let img = small_table(Layout::Nsm, 20_000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::Scan {
            table: tref,
            spec: ScanSpec {
                pred: Pred::Const(true),
                project: vec![0],
            },
        };
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        // Count batches by polling.
        let mut batches = 0;
        let mut rows = 0usize;
        let mut t = SimTime::ZERO;
        loop {
            match dev.get(sid, t).unwrap() {
                GetResponse::Running { ready_at } => t = ready_at,
                GetResponse::Batch(b) => {
                    batches += 1;
                    rows += b.rows.len();
                }
                GetResponse::Done => break,
            }
        }
        assert!(batches > 1, "expected multiple result batches");
        assert_eq!(rows, 20_000);
    }

    #[test]
    fn get_before_ready_reports_running() {
        let mut dev = device();
        let img = small_table(Layout::Pax, 50_000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        match dev.get(sid, SimTime::ZERO).unwrap() {
            GetResponse::Running { ready_at } => assert!(ready_at > SimTime::ZERO),
            other => panic!("expected Running, got {other:?}"),
        }
    }

    #[test]
    fn session_lifecycle_errors() {
        let mut dev = device();
        let bogus = SessionId(99);
        assert_eq!(
            dev.get(bogus, SimTime::ZERO).unwrap_err(),
            DeviceError::UnknownSession(99)
        );
        assert_eq!(
            dev.close(bogus).unwrap_err(),
            DeviceError::UnknownSession(99)
        );
    }

    #[test]
    fn max_sessions_enforced() {
        let mut dev = SmartSsd::new(
            FlashConfig::default(),
            DeviceConfig {
                max_sessions: 1,
                ..DeviceConfig::default()
            },
        );
        let img = small_table(Layout::Nsm, 100);
        let tref = dev.load_table(&img, 0).unwrap();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        let s1 = dev.open(&op, SimTime::ZERO).unwrap();
        assert_eq!(
            dev.open(&op, SimTime::ZERO).unwrap_err(),
            DeviceError::TooManySessions
        );
        dev.close(s1).unwrap();
        // Slot freed: a new session opens.
        dev.open(&op, SimTime::ZERO).unwrap();
    }

    #[test]
    fn validation_errors_surface_through_open() {
        let mut dev = device();
        let img = small_table(Layout::Nsm, 10);
        let tref = dev.load_table(&img, 0).unwrap();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(99))],
            },
        };
        assert!(matches!(
            dev.open(&op, SimTime::ZERO).unwrap_err(),
            DeviceError::Validation(_)
        ));
    }

    fn join_op(build: TableRef, probe: TableRef, filter_first: bool) -> QueryOp {
        QueryOp::Join {
            probe,
            spec: JoinSpec {
                build: BuildSide {
                    table: build,
                    key_col: 0,
                    payload: vec![1],
                },
                probe_key: 0,
                probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(3000)),
                filter_first,
                output: smartssd_exec::JoinOutput::Project(vec![
                    ColRef::Probe(1),
                    ColRef::Build(0),
                ]),
            },
        }
    }

    #[test]
    fn join_session_matches_reference() {
        let mut dev = device();
        // Build: k 0..500. Probe: k 0..2000 (keys 0..2000, so 500 match),
        // v = 3k (pred v < 3000 -> k < 1000).
        let build = small_table(Layout::Nsm, 500);
        let probe = small_table(Layout::Nsm, 2000);
        let bref = dev.load_table(&build, 0).unwrap();
        let pref = dev.load_table(&probe, 1000).unwrap();
        dev.reset_timing();
        let sid = dev.open(&join_op(bref, pref, true), SimTime::ZERO).unwrap();
        let (rows, _, _) = drain(&mut dev, sid);
        // Matching rows: probe k in 0..500 (in build) AND v=3k<3000 (k<1000)
        // -> k in 0..500.
        assert_eq!(rows.len(), 500);
        for t in &rows {
            let v = t[0].as_i64();
            let pay = t[1].as_i64();
            assert_eq!(pay, v); // build payload v = 3k equals probe v = 3k
        }
    }

    #[test]
    fn memory_grant_exceeded_on_large_build() {
        let mut dev = SmartSsd::new(
            FlashConfig::default(),
            DeviceConfig {
                session_memory_bytes: 1024, // absurdly small grant
                ..DeviceConfig::default()
            },
        );
        let build = small_table(Layout::Nsm, 10_000);
        let probe = small_table(Layout::Nsm, 100);
        let bref = dev.load_table(&build, 0).unwrap();
        let pref = dev.load_table(&probe, 5000).unwrap();
        match dev.open(&join_op(bref, pref, true), SimTime::ZERO) {
            Err(DeviceError::MemoryGrantExceeded { needed, grant }) => {
                assert!(needed > grant);
            }
            other => panic!("expected MemoryGrantExceeded, got {other:?}"),
        }
    }

    #[test]
    fn pax_scan_is_faster_than_nsm_for_selective_agg() {
        // The Figure 3 shape at module level: same data, same query, PAX
        // completes sooner inside the device because decode is cheaper.
        let mut times = Vec::new();
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut dev = device();
            let img = small_table(layout, 200_000);
            let tref = dev.load_table(&img, 0).unwrap();
            dev.reset_timing();
            let op = QueryOp::ScanAgg {
                table: tref,
                spec: ScanAggSpec {
                    pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(100)),
                    aggs: vec![AggSpec::sum(Expr::col(1))],
                },
            };
            let sid = dev.open(&op, SimTime::ZERO).unwrap();
            let (_, _, done) = drain(&mut dev, sid);
            times.push(done);
        }
        assert!(
            times[1] < times[0],
            "PAX {} should beat NSM {}",
            times[1],
            times[0]
        );
    }

    #[test]
    fn concurrent_sessions_share_the_device_cpu() {
        let mut dev = device();
        let img = small_table(Layout::Nsm, 100_000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        let s1 = dev.open(&op, SimTime::ZERO).unwrap();
        let (_, _, t1) = drain(&mut dev, s1);
        let mut dev2 = device();
        let img2 = small_table(Layout::Nsm, 100_000);
        let tref2 = dev2.load_table(&img2, 0).unwrap();
        dev2.reset_timing();
        let op2 = QueryOp::ScanAgg {
            table: tref2,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        // Two overlapping sessions on one device: both finish later than a
        // lone session because CPU and flash are shared.
        let sa = dev2.open(&op2, SimTime::ZERO).unwrap();
        let sb = dev2.open(&op2, SimTime::ZERO).unwrap();
        let (_, _, ta) = drain(&mut dev2, sa);
        let (_, _, tb) = drain(&mut dev2, sb);
        assert!(ta.max(tb) > t1, "contended {} vs lone {}", ta.max(tb), t1);
    }

    fn count_op(tref: TableRef) -> QueryOp {
        QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        }
    }

    #[test]
    fn a_load_over_part_of_a_table_retires_its_extent() {
        let mut dev = device();
        let old = dev.load_table(&small_table(Layout::Nsm, 2_000), 0).unwrap();
        let at = old.num_pages / 2;
        assert!(at > 0, "the new table must overlap the old one's tail");
        let new = dev.load_table(&small_table(Layout::Pax, 500), at).unwrap();
        assert_eq!(
            dev.open(&count_op(old.clone()), SimTime::ZERO).unwrap_err(),
            DeviceError::UnknownExtent {
                lba: old.first_lba,
                pages: old.num_pages,
            }
        );
        let sid = dev.open(&count_op(new), SimTime::ZERO).unwrap();
        dev.close(sid).unwrap();
    }

    #[test]
    fn device_crash_kills_sessions_and_recovers_after_reset() {
        let mut dev = device();
        let img = small_table(Layout::Pax, 1000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = count_op(tref);
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        // Arm the crash: the very next OPEN takes down the firmware.
        dev.cfg.fault_rates.crash_rate = u32::MAX;
        let at = SimTime::from_millis(1);
        let until = match dev.open(&op, at) {
            Err(DeviceError::DeviceReset { at: got, until }) => {
                assert_eq!(got, at);
                until
            }
            other => panic!("expected DeviceReset, got {other:?}"),
        };
        assert_eq!(until, at + dev.config().fault_rates.reset_latency);
        // The pre-existing session died with the firmware...
        assert!(matches!(
            dev.get(sid, SimTime::from_millis(2)),
            Err(DeviceError::DeviceReset { .. })
        ));
        // ...but its CLOSE is clean: the grants evaporated with the crash.
        dev.close(sid).unwrap();
        // During the reset window OPEN is refused outright — and the poke
        // storms the recovering firmware, pushing the reset back by a
        // quarter of the base latency.
        let penalty = SimTime::from_nanos(dev.config().fault_rates.reset_latency.as_nanos() / 4);
        let stormed = match dev.open(&op, SimTime::from_millis(2)) {
            Err(DeviceError::DeviceReset { until: got, .. }) => {
                assert_eq!(got, until + penalty);
                got
            }
            other => panic!("expected DeviceReset, got {other:?}"),
        };
        let f = dev.fault_counters();
        assert_eq!(f.device_crashes, 1);
        assert_eq!(f.killed_sessions, 1);
        assert_eq!(
            f.reset_downtime_ns,
            (dev.config().fault_rates.reset_latency + penalty).as_nanos()
        );
        // Disarm; the original reset instant is still inside the (extended)
        // window, and the device admits sessions again only once the
        // stormed reset completes.
        dev.cfg.fault_rates.crash_rate = 0;
        assert!(matches!(
            dev.open(&op, until),
            Err(DeviceError::DeviceReset { .. })
        ));
        // That refusal stormed the window once more.
        let s2 = dev.open(&op, stormed + penalty).unwrap();
        dev.close(s2).unwrap();
    }

    #[test]
    fn scripted_crash_fires_at_first_activity_and_replays_bit_exact() {
        use smartssd_sim::FaultPlan;
        let mut dev = device();
        let img = small_table(Layout::Pax, 1000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        dev.cfg.fault_plan = FaultPlan::new()
            .crash_at(0, SimTime::from_millis(1))
            .for_device(0);
        let op = count_op(tref);
        // Activity before the scripted instant is clean.
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        // The first activity at/after the instant observes the crash — here
        // a GET on the in-flight session, which dies with the firmware.
        let at = SimTime::from_millis(3);
        let until = match dev.get(sid, at) {
            Err(DeviceError::DeviceReset { at: got, until }) => {
                assert_eq!(got, at);
                until
            }
            other => panic!("expected DeviceReset, got {other:?}"),
        };
        assert_eq!(until, at + dev.config().fault_rates.reset_latency);
        dev.close(sid).unwrap();
        let f = dev.fault_counters();
        assert_eq!((f.device_crashes, f.killed_sessions), (1, 1));
        // The schedule has one entry: once the reset completes the device
        // admits sessions again, with no RNG draws anywhere.
        let s2 = dev.open(&op, until).unwrap();
        dev.close(s2).unwrap();
        // reset_timing rewinds the cursor; the same scenario replays
        // bit-exactly.
        dev.reset_timing();
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        match dev.get(sid, at) {
            Err(DeviceError::DeviceReset { at: got, until: u2 }) => {
                assert_eq!(got, at);
                assert_eq!(u2, until);
            }
            other => panic!("expected DeviceReset on replay, got {other:?}"),
        }
    }

    #[test]
    fn scripted_slowdown_inflates_device_cpu_time() {
        use smartssd_sim::FaultPlan;
        let horizon = SimTime::from_secs(3600);
        let run = |factor: u32| {
            let plan = FaultPlan::new()
                .slowdown(0, factor, SimTime::ZERO, horizon)
                .for_device(0);
            let mut dev = SmartSsd::new(
                FlashConfig::default(),
                DeviceConfig {
                    fault_plan: plan,
                    ..DeviceConfig::default()
                },
            );
            let img = small_table(Layout::Pax, 10_000);
            let tref = dev.load_table(&img, 0).unwrap();
            dev.reset_timing();
            let sid = dev.open(&count_op(tref), SimTime::ZERO).unwrap();
            let (_, aggs, done) = drain(&mut dev, sid);
            dev.close(sid).unwrap();
            (aggs.unwrap()[0].finish(), done)
        };
        let (clean_count, clean_done) = run(1);
        let (slow_count, slow_done) = run(64);
        // Gray firmware is slower, never wrong.
        assert_eq!(clean_count, slow_count);
        assert!(
            slow_done > clean_done,
            "64x CPU slowdown must stretch the run ({slow_done:?} vs {clean_done:?})"
        );
    }

    #[test]
    fn shared_scans_issue_each_page_once() {
        let mut dev = SmartSsd::new(
            FlashConfig::default(),
            DeviceConfig {
                shared_scans: true,
                ..DeviceConfig::default()
            },
        );
        let img = small_table(Layout::Pax, 50_000);
        let pages = img.num_pages() as u64;
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = count_op(tref);
        let s1 = dev.open(&op, SimTime::ZERO).unwrap();
        let s2 = dev.open(&op, SimTime::ZERO).unwrap();
        assert_eq!(dev.flash.stats().reads, pages, "pages fetched once");
        assert_eq!(dev.shared_hits(), pages, "second scan rode the first");
        let (_, a1, t1) = drain(&mut dev, s1);
        let (_, a2, t2) = drain(&mut dev, s2);
        assert_eq!(a1.unwrap()[0].finish(), 50_000);
        assert_eq!(a2.unwrap()[0].finish(), 50_000);
        assert!(t1 > SimTime::ZERO && t2 > SimTime::ZERO);
        dev.close(s1).unwrap();
        dev.close(s2).unwrap();
        // Both owners gone: the window is empty and a fresh scan re-reads.
        let s3 = dev.open(&op, SimTime::ZERO).unwrap();
        assert_eq!(dev.flash.stats().reads, 2 * pages, "window was evicted");
        dev.close(s3).unwrap();
    }

    #[test]
    fn shared_scans_off_reads_per_session() {
        let mut dev = device();
        let img = small_table(Layout::Pax, 50_000);
        let pages = img.num_pages() as u64;
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = count_op(tref);
        let s1 = dev.open(&op, SimTime::ZERO).unwrap();
        let s2 = dev.open(&op, SimTime::ZERO).unwrap();
        assert_eq!(dev.flash.stats().reads, 2 * pages);
        assert_eq!(dev.shared_hits(), 0);
        dev.close(s1).unwrap();
        dev.close(s2).unwrap();
    }

    #[test]
    fn shared_scans_do_not_change_answers_or_lone_session_timing() {
        let build = |shared| {
            let mut dev = SmartSsd::new(
                FlashConfig::default(),
                DeviceConfig {
                    shared_scans: shared,
                    ..DeviceConfig::default()
                },
            );
            let img = small_table(Layout::Pax, 30_000);
            let tref = dev.load_table(&img, 0).unwrap();
            dev.reset_timing();
            (dev, tref)
        };
        let (mut off, tref_off) = build(false);
        let (mut on, tref_on) = build(true);
        let s_off = off.open(&count_op(tref_off), SimTime::ZERO).unwrap();
        let s_on = on.open(&count_op(tref_on), SimTime::ZERO).unwrap();
        let (r1, a1, t1) = drain(&mut off, s_off);
        let (r2, a2, t2) = drain(&mut on, s_on);
        assert_eq!(r1, r2);
        assert_eq!(
            a1.unwrap()[0].finish(),
            a2.unwrap()[0].finish(),
            "answers identical"
        );
        assert_eq!(t1, t2, "a lone session is untouched by sharing");
    }

    #[test]
    fn shared_scan_makespan_not_worse_for_concurrent_sessions() {
        let run = |shared: bool| {
            let mut dev = SmartSsd::new(
                FlashConfig::default(),
                DeviceConfig {
                    shared_scans: shared,
                    ..DeviceConfig::default()
                },
            );
            let img = small_table(Layout::Pax, 100_000);
            let tref = dev.load_table(&img, 0).unwrap();
            dev.reset_timing();
            let op = count_op(tref);
            let sids: Vec<_> = (0..4)
                .map(|_| dev.open(&op, SimTime::ZERO).unwrap())
                .collect();
            let mut makespan = SimTime::ZERO;
            for sid in sids {
                let (_, _, t) = drain(&mut dev, sid);
                makespan = makespan.max(t);
                dev.close(sid).unwrap();
            }
            makespan
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn work_receipts_accumulate() {
        let mut dev = device();
        let img = small_table(Layout::Nsm, 1000);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        let sid = dev.open(&op, SimTime::ZERO).unwrap();
        let w = dev.session_work(sid).unwrap();
        assert_eq!(w.tuples(), 1000);
        assert_eq!(dev.total_work().tuples(), 1000);
        assert!(dev.cpu().cycles_total() > 0);
    }
}
