//! Common page infrastructure: the 8 KB page buffer, header codec, and
//! checksum.
//!
//! Pages mirror SQL Server's 8 KB unit (the paper's host DBMS). Every page
//! carries a small header with a layout tag, tuple count, and a checksum
//! that stands in for the integrity checks a real device's ECC path
//! provides end-to-end.

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
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum recomputed over the body.
        computed: u32,
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
    /// checksum over all of it.
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
        let sum = checksum(&raw[PAGE_HEADER_SIZE..]);
        raw[8..12].copy_from_slice(&sum.to_le_bytes());
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

    /// The stored checksum.
    pub fn stored_checksum(&self) -> u32 {
        le_u32(&self.data, 8)
    }

    /// Verifies the body against the stored checksum.
    pub fn verify(&self) -> Result<(), PageError> {
        let computed = checksum(&self.data[PAGE_HEADER_SIZE..]);
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
/// First-touch validation walks the whole 8 KB body (about 0.6 us with the
/// multi-lane [`checksum`]); a page that is byte-for-byte the same buffer
/// as last time (the common case: [`bytes::Bytes`] hands out clones of one
/// allocation) must validate the same way, and a memo hit costs 0.03 us.
/// The cache keys on *pointer identity*: a hit means the
/// flash returned a clone of the exact allocation we already validated, so
/// the stored result is reused without re-hashing. Any rewrite, corruption
/// injection, or scrub produces a fresh allocation, misses the pointer
/// check, and is validated from scratch — so behaviour is bit-identical to
/// calling [`PageBuf::from_bytes`] every time.
///
/// Holding the validated [`PageBuf`] (and with it the `Bytes` allocation)
/// alive in the cache also rules out ABA reuse of a freed address.
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
    /// when `data` is pointer-identical to the buffer validated last time.
    pub fn decode(&mut self, lba: u64, data: Bytes) -> Result<PageBuf, PageError> {
        let i = lba as usize;
        if let Some(Some(hit)) = self.pages.get(i) {
            if Bytes::ptr_eq(hit.raw(), &data) {
                return Ok(hit.clone());
            }
        }
        let page = PageBuf::from_bytes(data)?;
        if i >= self.pages.len() {
            self.pages.resize(i + 1, None);
        }
        self.pages[i] = Some(page.clone());
        Ok(page)
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

/// Little-endian `u32` at `b[at..at + 4]`.
#[inline]
fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
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

/// Checksum lanes: one accumulator per aligned 4-byte word of a stripe.
const LANES: usize = 8;
/// Bytes consumed per round, one word per lane.
const STRIPE: usize = 4 * LANES;
/// Odd, so multiplying by it permutes the `u32`s (2^32 / golden ratio).
const MIX: u32 = 0x9E37_79B1;

/// One accumulator step. For a fixed `word` it permutes `acc`, and for a
/// fixed `acc` it permutes `word`: xor, an odd multiply and a rotate are
/// each invertible.
#[inline]
fn mix(acc: u32, word: u32) -> u32 {
    (acc ^ word).wrapping_mul(MIX).rotate_left(13)
}

/// Checksum of a page body. A real SSD corrects errors with BCH/LDPC ECC
/// in the flash controller, which the flash model charges as latency; this
/// plays the same detect-bad-reads role for the emulator's failure
/// injection and is pure host cost, so it is built to run at memory speed:
/// the body is hashed a word at a time into `LANES` independent
/// accumulators, whose multiplies overlap and vectorize, instead of one
/// dependent multiply per byte.
///
/// **Guarantee.** Two bodies of equal length that differ only inside one
/// aligned 4-byte word never share a checksum. That covers every single-bit
/// and single-byte flip, which is what the flash's ECC-escape injection and
/// a one-byte [`PageBuf::corrupted`] produce. Proof: the word is fed to
/// exactly one `mix` step of one lane (a short final stripe is
/// zero-padded, so tail bytes are words too). The lane enters that step
/// with equal accumulators and different words, so leaves it with different
/// accumulators; every later step of the lane, every merge step, and the
/// final avalanche (xor-shifts and odd multiplies) permute the value they
/// carry while all their other inputs are equal. Damage spanning several
/// words is caught as by any 32-bit checksum: all but about 2^-32 of it.
/// The length is mixed in so that zero padding cannot alias a longer body.
pub fn checksum(body: &[u8]) -> u32 {
    let mut acc: [u32; LANES] = std::array::from_fn(|i| MIX.wrapping_mul(i as u32 + 1));
    let mut round = |stripe: &[u8]| {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = mix(*a, le_u32(stripe, 4 * i));
        }
    };
    let mut stripes = body.chunks_exact(STRIPE);
    for stripe in stripes.by_ref() {
        round(stripe);
    }
    let rest = stripes.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rest.len()].copy_from_slice(rest);
        round(&last);
    }
    let mut h = acc.iter().fold(body.len() as u32, |h, &a| mix(h, a));
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
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
        assert_eq!(checksum(b""), 0x0D31_7CBC);
        assert_eq!(checksum(b"a"), 0xC33F_C964);
        let empty_page = PageBuf::format(Layout::Nsm, 0, [], &[]);
        assert_eq!(empty_page.stored_checksum(), 0xA4FD_78E3);
    }

    #[test]
    fn format_places_head_zero_fill_and_tail() {
        let page = PageBuf::format(Layout::Pax, 2, [&b"ab"[..], &b"cd"[..]], b"yz");
        let raw = page.raw();
        assert_eq!(raw.len(), PAGE_SIZE);
        assert_eq!(&raw[..8], b"SSPG\x01\x02\x00\x00");
        assert!(raw[12..PAGE_HEADER_SIZE].iter().all(|&b| b == 0));
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

        // A different allocation with corrupt contents must be re-validated
        // even though the cache holds a good entry for the LBA.
        let bad = page.corrupted(1, 2);
        assert!(cache.decode(7, bad.raw().clone()).is_err());

        // A rewrite (fresh allocation, valid contents) replaces the entry.
        let page2 = PageBuf::format(Layout::Nsm, 9, [&b"new body"[..]], &[]);
        let c = cache.decode(7, page2.raw().clone()).unwrap();
        assert_eq!(c.tuple_count(), 9);
        let d = cache.decode(7, page2.raw().clone()).unwrap();
        assert!(Bytes::ptr_eq(c.raw(), d.raw()));
    }
}
