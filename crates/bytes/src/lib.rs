//! Offline shim for the `bytes` crate.
//!
//! The workspace builds in environments with no network access, so the
//! tiny slice of `bytes` we rely on is vendored here: [`Bytes`] is an
//! immutable, reference-counted byte buffer whose `clone()` is O(1).
//! That property is load-bearing — pages flow from the NAND array
//! through the FTL, buffer pool, and kernels without ever deep-copying.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous slice of memory.
///
/// Internally an `Arc<Box<[u8]>>`, so `clone()` bumps a refcount instead
/// of copying the payload, and a `Vec` whose length is its capacity (every
/// sealed page) becomes a `Bytes` without copying: the `Arc` takes the
/// `Vec`'s own buffer. Static slices are stored without allocation.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Box<[u8]>>),
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wraps a static slice without allocating.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }

    /// True when both handles view the exact same memory, i.e. one is a
    /// `clone()` of the other. Two buffers with equal contents in
    /// different allocations compare `false`.
    pub fn ptr_eq(a: &Bytes, b: &Bytes) -> bool {
        match (&a.0, &b.0) {
            (Repr::Shared(x), Repr::Shared(y)) => Arc::ptr_eq(x, y),
            (Repr::Static(x), Repr::Static(y)) => std::ptr::eq(*x, *y),
            _ => false,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Keeps the `Vec`'s buffer; it is reallocated only to drop spare
    /// capacity.
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(v.into_boxed_slice())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(Box::<[u8]>::from(s))
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes(Repr::Shared(Arc::new(b)))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &c[..]);
        if let (Repr::Shared(x), Repr::Shared(y)) = (&b.0, &c.0) {
            assert!(Arc::ptr_eq(x, y));
        } else {
            panic!("expected shared repr");
        }
    }

    #[test]
    fn from_vec_keeps_the_buffer() {
        let v = vec![7u8; 8192];
        let data = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), data);
        let c = b.clone();
        assert_eq!(c.as_ptr(), data);
        assert!(Bytes::ptr_eq(&b, &c));
        assert!(!Bytes::ptr_eq(&b, &Bytes::from(vec![7u8; 8192])));
        // Empty buffers share a dangling data pointer, not an allocation.
        assert!(!Bytes::ptr_eq(
            &Bytes::from(Vec::new()),
            &Bytes::from(Vec::new())
        ));
    }

    #[test]
    fn static_and_eq() {
        let s = Bytes::from_static(b"abc");
        assert_eq!(s, Bytes::from(b"abc".to_vec()));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Bytes::new().is_empty());
    }
}
