//! Common page infrastructure: the 8 KB page buffer, header codec, and
//! checksum.
//!
//! Pages mirror SQL Server's 8 KB unit (the paper's host DBMS). Every page
//! carries a small header with a layout tag, tuple count, and a checksum
//! that stands in for the integrity checks a real device's ECC path
//! provides end-to-end.
//!
//! Header map (`PAGE_HEADER_SIZE` = 32 bytes, little-endian): magic `0..4`,
//! layout tag `4`, tuple count `5..7`, zero `7`, digest `8..16`
//! ([`page_digest`]), reserved zeros `16..32`.

use bytes::Bytes;
use std::fmt;

/// Page size in bytes (SQL Server uses 8 KB pages).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header.
pub const PAGE_HEADER_SIZE: usize = 32;

/// Magic bytes identifying a formatted page.
pub const PAGE_MAGIC: [u8; 4] = *b"SSPG";

/// On-page record organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// N-ary storage model: whole tuples in a slotted page (SQL Server's
    /// default heap layout).
    Nsm,
    /// Partition Attributes Across: per-column minipages within the page,
    /// implemented by the paper for the Smart SSD path.
    Pax,
}

impl Layout {
    fn tag(self) -> u8 {
        match self {
            Layout::Nsm => 0,
            Layout::Pax => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Layout> {
        match tag {
            0 => Some(Layout::Nsm),
            1 => Some(Layout::Pax),
            _ => None,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Nsm => write!(f, "NSM"),
            Layout::Pax => write!(f, "PAX"),
        }
    }
}

/// An immutable, reference-counted 8 KB page image.
///
/// Cloning a `PageBuf` is O(1) (shared `Bytes`), which lets the flash store,
/// device DRAM, and host buffer pool pass pages around without copying —
/// the *timing* cost of each copy is charged by the simulation layer, not
/// by actual memcpys.
#[derive(Debug, Clone)]
pub struct PageBuf {
    data: Bytes,
}

/// Errors surfaced when validating a page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Page is not `PAGE_SIZE` bytes.
    BadLength(usize),
    /// Magic bytes missing — the page was never formatted.
    BadMagic,
    /// Unknown layout tag.
    BadLayout(u8),
    /// Checksum mismatch (simulated media corruption / ECC escape).
    ChecksumMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed over the page ([`page_digest`]).
        computed: u64,
    },
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::BadLength(n) => write!(f, "page has {n} bytes, expected {PAGE_SIZE}"),
            PageError::BadMagic => write!(f, "page magic missing"),
            PageError::BadLayout(t) => write!(f, "unknown layout tag {t}"),
            PageError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
        }
    }
}

impl std::error::Error for PageError {}

impl PageBuf {
    /// Wraps raw bytes as a page, validating length, magic, layout tag, and
    /// checksum.
    pub fn from_bytes(data: Bytes) -> Result<Self, PageError> {
        if data.len() != PAGE_SIZE {
            return Err(PageError::BadLength(data.len()));
        }
        if data[0..4] != PAGE_MAGIC {
            return Err(PageError::BadMagic);
        }
        let tag = data[4];
        if Layout::from_tag(tag).is_none() {
            return Err(PageError::BadLayout(tag));
        }
        let page = Self { data };
        page.verify()?;
        Ok(page)
    }

    /// Seals a fresh page image in one pass over one `PAGE_SIZE` buffer:
    /// header, the `head` parts back to back from the start of the body,
    /// zero fill, `tail` flush against the end of the page, then the
    /// digest of all of it ([`page_digest`]) into header bytes `8..16`.
    pub(crate) fn format<'a>(
        layout: Layout,
        tuple_count: u16,
        head: impl IntoIterator<Item = &'a [u8]>,
        tail: &[u8],
    ) -> Self {
        let mut raw = Vec::with_capacity(PAGE_SIZE);
        raw.extend_from_slice(&PAGE_MAGIC);
        raw.push(layout.tag());
        raw.extend_from_slice(&tuple_count.to_le_bytes());
        raw.resize(PAGE_HEADER_SIZE, 0);
        for part in head {
            raw.extend_from_slice(part);
        }
        assert!(raw.len() + tail.len() <= PAGE_SIZE, "page body overflows");
        raw.resize(PAGE_SIZE - tail.len(), 0);
        raw.extend_from_slice(tail);
        let digest = page_digest(&raw);
        raw[8..16].copy_from_slice(&digest.to_le_bytes());
        Self {
            data: Bytes::from(raw),
        }
    }

    /// The page's layout tag.
    pub fn layout(&self) -> Layout {
        // `from_bytes` rejects unknown tags, `format` writes `Layout::tag`,
        // and `corrupted` only touches the body: byte 4 is always valid.
        Layout::from_tag(self.data[4]).expect("validated at construction")
    }

    /// Number of tuples stored on the page.
    pub fn tuple_count(&self) -> u16 {
        le_u16(&self.data, 5)
    }

    /// The stored digest (header bytes `8..16`).
    pub fn stored_checksum(&self) -> u64 {
        le_u64(&self.data, 8)
    }

    /// Verifies the page, header and body, against the stored digest.
    pub fn verify(&self) -> Result<(), PageError> {
        let computed = page_digest(&self.data);
        let stored = self.stored_checksum();
        if stored == computed {
            Ok(())
        } else {
            Err(PageError::ChecksumMismatch { stored, computed })
        }
    }

    /// The page body (everything after the header).
    pub fn body(&self) -> &[u8] {
        &self.data[PAGE_HEADER_SIZE..]
    }

    /// The full raw page, header included.
    pub fn raw(&self) -> &Bytes {
        &self.data
    }

    /// Whether `data` is this page's own buffer: pointer identity, not
    /// equal contents. While this page is alive its allocation cannot be
    /// freed and reused, so a holder of the page that sees the same buffer
    /// again knows its bytes are the ones it saw before.
    pub fn same_buffer(&self, data: &Bytes) -> bool {
        Bytes::ptr_eq(&self.data, data)
    }

    /// Returns a copy of this page with `nbytes` bytes flipped starting at
    /// `offset` within the body — used by tests and failure-injection to
    /// simulate media corruption that slipped past ECC.
    pub fn corrupted(&self, offset: usize, nbytes: usize) -> PageBuf {
        let mut raw = self.data.to_vec();
        for b in raw.iter_mut().skip(PAGE_HEADER_SIZE + offset).take(nbytes) {
            *b ^= 0xFF;
        }
        PageBuf {
            data: Bytes::from(raw),
        }
    }
}

/// Memoizes [`PageBuf::from_bytes`] validation per LBA.
///
/// First-touch validation walks the whole 8 KB page (about 0.35 us with the
/// multi-lane [`checksum64`] when the page is in cache, three to four times
/// that when it is not); a page that is byte-for-byte the same buffer
/// as last time (the common case: [`bytes::Bytes`] hands out clones of one
/// allocation) must validate the same way, and a memo hit is one index and
/// one pointer compare: no hash, no copy and no reference-count traffic.
/// The cache keys on *pointer identity*: a hit means the
/// flash returned the exact allocation we already validated, so
/// the stored result is reused without re-hashing. Any rewrite, corruption
/// injection, or scrub produces a fresh allocation, misses the pointer
/// check, and is validated from scratch — so behaviour is bit-identical to
/// calling [`PageBuf::from_bytes`] every time.
///
/// A reader that borrows the flash's payload ([`Self::validate`], then
/// [`Self::page`]) is lent the memo's own page; [`Self::decode`] hands the
/// caller's buffer back as the page. Holding the validated [`PageBuf`] (and
/// with it the `Bytes` allocation) alive in the cache also rules out ABA
/// reuse of a freed address.
///
/// Tables are loaded at consecutive LBAs from 0, so the memo is a vector
/// indexed by LBA, grown to the highest LBA decoded: a lookup is one bounds
/// check, and a first touch hashes nothing.
#[derive(Debug, Clone, Default)]
pub struct PageDecodeCache {
    pages: Vec<Option<PageBuf>>,
}

impl PageDecodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates `data` as the page at `lba`, reusing the previous result
    /// when `data` is pointer-identical to the buffer validated last time;
    /// on success [`Self::page`] holds `data`'s buffer at `lba`. A buffer
    /// that fails leaves the memo as it was.
    pub fn validate(&mut self, lba: u64, data: &Bytes) -> Result<(), PageError> {
        let i = lba as usize;
        if let Some(Some(hit)) = self.pages.get(i) {
            if hit.same_buffer(data) {
                return Ok(());
            }
        }
        let page = PageBuf::from_bytes(data.clone())?;
        if i >= self.pages.len() {
            self.pages.resize(i + 1, None);
        }
        self.pages[i] = Some(page);
        Ok(())
    }

    /// The page last validated at `lba`, lent.
    pub fn page(&self, lba: u64) -> Option<&PageBuf> {
        self.pages.get(lba as usize)?.as_ref()
    }

    /// [`Self::validate`], returning `data` itself as the page: the buffer
    /// the memo holds, so a hit costs no clone. Library reads validate and
    /// borrow [`Self::page`]; this owned form is what the frozen
    /// benchmark's decode-hit probe times.
    pub fn decode(&mut self, lba: u64, data: Bytes) -> Result<PageBuf, PageError> {
        self.validate(lba, &data)?;
        Ok(PageBuf { data })
    }

    /// Drops the memoized validation of `lba`, releasing the buffer it
    /// holds: what a trim of that LBA calls, so a replaced extent's pages
    /// are not kept alive by the memo.
    pub fn forget(&mut self, lba: u64) {
        if let Some(slot) = self.pages.get_mut(lba as usize) {
            *slot = None;
        }
    }

    /// Drops all memoized validations.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

/// Little-endian `u16` at `b[at..at + 2]`.
#[inline]
pub(crate) fn le_u16(b: &[u8], at: usize) -> u16 {
    let w = &b[at..at + 2];
    u16::from_le_bytes([w[0], w[1]])
}

/// Little-endian `i32` at `b[at..at + 4]`. Slicing first leaves one range
/// check; the constant indices below it are provably in bounds.
#[inline]
pub(crate) fn le_i32(b: &[u8], at: usize) -> i32 {
    let w = &b[at..at + 4];
    i32::from_le_bytes([w[0], w[1], w[2], w[3]])
}

/// Little-endian `i64` at `b[at..at + 8]`; one range check, as [`le_i32`].
#[inline]
pub(crate) fn le_i64(b: &[u8], at: usize) -> i64 {
    let w = &b[at..at + 8];
    i64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// Checksum lanes: one accumulator per aligned 8-byte word of a stripe.
const LANES: usize = 8;
/// Bytes consumed per round, one word per lane: one cache line.
const STRIPE: usize = 8 * LANES;
/// Odd, so multiplying by it permutes the `u64`s (2^64 / golden ratio).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One accumulator step. For a fixed `word` it permutes `acc`, and for a
/// fixed `acc` it permutes `word`: xor, an odd multiply and a rotate are
/// each invertible.
#[inline]
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(MIX).rotate_left(31)
}

/// Little-endian `u64` at `b[at..at + 8]`; one range check, as [`le_i32`].
#[inline]
fn le_u64(b: &[u8], at: usize) -> u64 {
    let w = &b[at..at + 8];
    u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// One round: the stripe's `LANES` words, one into each accumulator.
/// Always inlined so the accumulators stay in registers across rounds.
#[inline(always)]
fn round(acc: &mut [u64; LANES], stripe: &[u8]) {
    for (i, a) in acc.iter_mut().enumerate() {
        *a = mix(*a, le_u64(stripe, 8 * i));
    }
}

/// The checksum kernel: `body` hashed a word at a time into `LANES`
/// independent accumulators, one cache line a round (a short final stripe
/// is zero-padded), then the lanes merged into the length. Not yet
/// avalanched, so callers can mix further words in.
#[inline]
fn absorb(body: &[u8]) -> u64 {
    let mut acc: [u64; LANES] = std::array::from_fn(|i| MIX.wrapping_mul(i as u64 + 1));
    let mut stripes = body.chunks_exact(STRIPE);
    for stripe in stripes.by_ref() {
        round(&mut acc, stripe);
    }
    let rest = stripes.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rest.len()].copy_from_slice(rest);
        round(&mut acc, &last);
    }
    acc.iter().fold(body.len() as u64, |h, &a| mix(h, a))
}

/// Final avalanche (xor-shifts and odd multiplies: a permutation of `u64`).
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// 64-bit checksum of a byte string. A real SSD corrects errors with
/// BCH/LDPC ECC in the flash controller, which the flash model charges as
/// latency; this plays the same detect-bad-reads role for the emulator's
/// failure injection and is pure host cost, so it is built to run as close
/// to memory speed as safe code gets: the body is hashed eight bytes at a
/// time into `LANES` independent accumulators, one multiply per word and
/// one cache line per round, so the multiplies overlap and as many lines as
/// possible are in flight when the page is not in cache.
///
/// **Guarantee.** Two bodies of equal length that differ only inside one
/// aligned 8-byte word never share a checksum. That covers every single-bit
/// and single-byte flip, which is what the flash's ECC-escape injection and
/// a one-byte [`PageBuf::corrupted`] produce. Proof: the word is fed to
/// exactly one `mix` step of one lane (a short final stripe is
/// zero-padded, so tail bytes are words too). The lane enters that step
/// with equal accumulators and different words, so leaves it with different
/// accumulators; every later step of the lane, every merge step, and the
/// final avalanche permute the `u64` they carry while all their other
/// inputs are equal. All 64 bits are kept: folding them to fewer would make
/// the guarantee a probability. Damage spanning several words is caught as
/// by any 64-bit checksum: all but about 2^-64 of it. The length is mixed
/// in so that zero padding cannot alias a longer body.
pub fn checksum64(body: &[u8]) -> u64 {
    avalanche(absorb(body))
}

/// The digest a sealed page stores in header bytes `8..16`: the
/// [`checksum64`] kernel over the body, then the three header words that
/// do not hold the digest (bytes `0..8`: magic, layout tag, tuple count;
/// bytes `16..24` and `24..32`: reserved) mixed in before the avalanche. It
/// covers every byte of the page except the eight that hold it, and the
/// guarantee of [`checksum64`] extends to the header: each header word
/// feeds exactly one `mix` step, so two pages that differ only inside one
/// aligned 8-byte word, header or body, never share a digest. A flipped
/// layout tag or tuple count is a [`PageError::ChecksumMismatch`], not a
/// reader handed a page it cannot parse.
///
/// # Panics
/// If `page` is shorter than [`PAGE_HEADER_SIZE`].
pub fn page_digest(page: &[u8]) -> u64 {
    let (header, body) = page.split_at(PAGE_HEADER_SIZE);
    let h = [0, 16, 24]
        .iter()
        .fold(absorb(body), |h, &at| mix(h, le_u64(header, at)));
    avalanche(h)
}

/// [`checksum64`] folded to 32 bits. Kept only because the frozen
/// benchmark's `storage.checksum_ns_per_page` probe calls it; nothing in
/// the library may (`scripts/check.sh` checks), since a fold gives up the
/// single-word guarantee.
pub fn checksum(body: &[u8]) -> u32 {
    let h = checksum64(body);
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_and_validate_round_trip() {
        let page = PageBuf::format(Layout::Nsm, 7, [&b"hello"[..]], &[]);
        let back = PageBuf::from_bytes(page.raw().clone()).unwrap();
        assert_eq!(back.layout(), Layout::Nsm);
        assert_eq!(back.tuple_count(), 7);
        assert!(back.verify().is_ok());
    }

    #[test]
    fn corruption_detected() {
        let page = PageBuf::format(Layout::Pax, 3, [&b"body bytes"[..]], &[]);
        let bad = page.corrupted(2, 1);
        match bad.verify() {
            Err(PageError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(PageBuf::from_bytes(bad.raw().clone()).is_err());
    }

    #[test]
    fn wrong_length_rejected() {
        let err = PageBuf::from_bytes(Bytes::from_static(b"short")).unwrap_err();
        assert_eq!(err, PageError::BadLength(5));
    }

    #[test]
    fn missing_magic_rejected() {
        let raw = vec![0u8; PAGE_SIZE];
        assert_eq!(
            PageBuf::from_bytes(Bytes::from(raw)).unwrap_err(),
            PageError::BadMagic
        );
    }

    #[test]
    fn unknown_layout_rejected() {
        let page = PageBuf::format(Layout::Nsm, 0, [], &[]);
        let mut raw = page.raw().to_vec();
        raw[4] = 9;
        assert_eq!(
            PageBuf::from_bytes(Bytes::from(raw)).unwrap_err(),
            PageError::BadLayout(9)
        );
    }

    /// Golden vectors: the checksum is part of the on-page format, so a
    /// change to the kernel must show up here, not only as unreadable pages.
    #[test]
    fn checksum_golden_vectors() {
        assert_eq!(checksum64(b""), 0xE88A_1146_7CFA_5F5A);
        assert_eq!(checksum64(b"a"), 0x43C8_7F50_4595_7A1C);
        assert_eq!(checksum(b"a"), 0x065D_054C);
        let empty_page = PageBuf::format(Layout::Nsm, 0, [], &[]);
        assert_eq!(empty_page.stored_checksum(), 0xAC9D_F5CA_B2BE_0D50);
    }

    /// The digest covers the header: any single-bit flip of the layout tag,
    /// the tuple count or the reserved bytes moves it, so `from_bytes`
    /// refuses the page instead of handing a reader a page it cannot parse.
    #[test]
    fn header_bit_flips_are_checksum_mismatches() {
        for layout in [Layout::Nsm, Layout::Pax] {
            let page = PageBuf::format(layout, 3, [&b"body bytes"[..]], b"tail");
            let stored = page.stored_checksum();
            for bit in (4 * 8..8 * 8).chain(16 * 8..PAGE_HEADER_SIZE * 8) {
                let mut raw = page.raw().to_vec();
                raw[bit / 8] ^= 1 << (bit % 8);
                let computed = page_digest(&raw);
                assert_ne!(computed, stored, "{layout} header bit {bit}");
                // An unknown tag is refused before the digest is looked at.
                let expected = match Layout::from_tag(raw[4]) {
                    Some(_) => PageError::ChecksumMismatch { stored, computed },
                    None => PageError::BadLayout(raw[4]),
                };
                assert_eq!(
                    PageBuf::from_bytes(Bytes::from(raw)).unwrap_err(),
                    expected,
                    "{layout} header bit {bit}"
                );
            }
        }
    }

    #[test]
    fn format_places_head_zero_fill_and_tail() {
        let page = PageBuf::format(Layout::Pax, 2, [&b"ab"[..], &b"cd"[..]], b"yz");
        let raw = page.raw();
        assert_eq!(raw.len(), PAGE_SIZE);
        assert_eq!(&raw[..8], b"SSPG\x01\x02\x00\x00");
        assert!(raw[16..PAGE_HEADER_SIZE].iter().all(|&b| b == 0));
        assert_eq!(&page.body()[..4], b"abcd");
        assert!(page.body()[4..PAGE_SIZE - PAGE_HEADER_SIZE - 2]
            .iter()
            .all(|&b| b == 0));
        assert_eq!(&raw[PAGE_SIZE - 2..], b"yz");
        assert!(page.verify().is_ok());
    }

    #[test]
    fn decode_cache_matches_from_bytes() {
        let mut cache = PageDecodeCache::new();
        let page = PageBuf::format(Layout::Pax, 3, [&b"cached body"[..]], &[]);

        // First decode validates; second decode of the same allocation hits.
        let a = cache.decode(7, page.raw().clone()).unwrap();
        let b = cache.decode(7, page.raw().clone()).unwrap();
        assert!(Bytes::ptr_eq(a.raw(), b.raw()));
        assert!(cache.page(7).unwrap().same_buffer(page.raw()));
        assert!(cache.page(8).is_none() && cache.page(6).is_none());

        // A different allocation with corrupt contents must be re-validated
        // even though the cache holds a good entry for the LBA.
        let bad = page.corrupted(1, 2);
        assert!(cache.decode(7, bad.raw().clone()).is_err());

        // A rewrite (fresh allocation, valid contents) replaces the entry.
        let page2 = PageBuf::format(Layout::Nsm, 9, [&b"new body"[..]], &[]);
        let c = cache.decode(7, page2.raw().clone()).unwrap();
        assert_eq!(c.tuple_count(), 9);
        let d = cache.decode(7, page2.raw().clone()).unwrap();
        assert!(d.same_buffer(c.raw()));

        // A trimmed LBA lets its buffer go; forgetting one past the end is
        // a no-op.
        cache.forget(7);
        cache.forget(99);
        assert!(cache.pages.iter().all(Option::is_none));
    }

    #[test]
    fn decode_hit_returns_the_callers_buffer() {
        let mut cache = PageDecodeCache::new();
        let page = PageBuf::format(Layout::Nsm, 2, [&b"lent"[..]], &[]);
        cache.decode(3, page.raw().clone()).unwrap();
        let data = page.raw().clone();
        let hit = cache.decode(3, data.clone()).unwrap();
        assert!(hit.same_buffer(&data));
        cache.validate(3, &data).unwrap();
        assert!(cache.page(3).unwrap().same_buffer(&data));
    }

    #[test]
    fn decode_revalidates_equal_bytes_in_another_buffer() {
        let mut cache = PageDecodeCache::new();
        let page = PageBuf::format(Layout::Pax, 4, [&b"copied"[..]], &[]);
        cache.validate(5, page.raw()).unwrap();
        // Equal bytes, another allocation: not a hit, so the copy is
        // validated and becomes the memo's page.
        let copy = Bytes::from(page.raw().to_vec());
        assert!(!Bytes::ptr_eq(&copy, page.raw()));
        let decoded = cache.decode(5, copy.clone()).unwrap();
        assert!(decoded.same_buffer(&copy));
        assert!(cache.page(5).unwrap().same_buffer(&copy));
        // A corrupted copy in a fresh buffer fails the same way it would
        // with no memo.
        let bad = Bytes::from(page.corrupted(0, 1).raw().to_vec());
        assert_eq!(
            cache.decode(5, bad.clone()).unwrap_err(),
            PageBuf::from_bytes(bad).unwrap_err()
        );
    }

    #[test]
    fn decode_rejects_a_corrupted_copy_and_keeps_the_clean_page() {
        let mut cache = PageDecodeCache::new();
        let page = PageBuf::format(Layout::Nsm, 6, [&b"clean"[..]], &[]);
        cache.validate(9, page.raw()).unwrap();
        let bad = page.corrupted(2, 3);
        assert!(matches!(
            cache.validate(9, bad.raw()),
            Err(PageError::ChecksumMismatch { .. })
        ));
        assert!(cache.decode(9, bad.raw().clone()).is_err());
        // The failed copy left the memo as it was, so the next clean read
        // of the same buffer is a hit.
        assert!(cache.page(9).unwrap().same_buffer(page.raw()));
        let again = cache.decode(9, page.raw().clone()).unwrap();
        assert!(again.same_buffer(page.raw()));
        assert!(cache.page(9).unwrap().same_buffer(page.raw()));
    }
}
