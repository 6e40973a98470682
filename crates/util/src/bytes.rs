//! [`Bytes`]: a cheaply-cloneable, sliceable, immutable byte buffer.
//!
//! Stand-in for the `bytes` crate's `Bytes` with the semantics DIESEL
//! relies on: cloning and slicing share one allocation, so handing a
//! cached chunk to N readers or carving file payloads out of a sealed
//! chunk copies pointers, not data.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage of a [`Bytes`]: either a shared heap allocation
/// or a borrowed `'static` slice (which needs no allocation at all).
#[derive(Clone)]
enum Data {
    Shared(Arc<Vec<u8>>),
    Static(&'static [u8]),
}

impl Data {
    fn as_slice(&self) -> &[u8] {
        match self {
            Data::Shared(v) => v,
            Data::Static(s) => s,
        }
    }
}

/// An immutable, reference-counted byte buffer; `clone` and
/// [`slice`](Bytes::slice) are O(1) and share the allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Data,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (backed by a `'static` slice: no allocation).
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// A buffer over static data. No copy: the slice is held directly,
    /// and clones/slices of the result stay allocation-free.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes { data: Data::Static(data), start: 0, end: data.len() }
    }

    /// Whether `self` and `other` are views into the same backing
    /// storage (one shared allocation, or the same static slice). This
    /// is the zero-copy plane's observable invariant: a file read out
    /// of a cached chunk must share the chunk's allocation.
    pub fn shares_allocation(&self, other: &Bytes) -> bool {
        match (&self.data, &other.data) {
            (Data::Shared(a), Data::Shared(b)) => Arc::ptr_eq(a, b),
            (Data::Static(a), Data::Static(b)) => a.as_ptr() == b.as_ptr() && a.len() == b.len(),
            _ => false,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-buffer sharing this buffer's allocation. Panics if the
    /// range is out of bounds (same contract as the `bytes` crate).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of range for {}", self.len());
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// The bytes as a slice.
    #[expect(clippy::indexing_slicing, reason = "start..end is in bounds by construction")]
    pub fn as_slice(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }

    /// Take the bytes as an owned `Vec<u8>`. When this handle is the
    /// sole owner of a full-range heap buffer the allocation is moved
    /// out without copying; otherwise (shared, sliced, or static) the
    /// covered range is copied.
    #[expect(clippy::indexing_slicing, reason = "start..end is in bounds by construction")]
    pub fn into_vec(self) -> Vec<u8> {
        let Bytes { data, start, end } = self;
        match data {
            Data::Shared(arc) if start == 0 && end == arc.len() => match Arc::try_unwrap(arc) {
                Ok(v) => v,
                Err(shared) => shared[start..end].to_vec(),
            },
            other => other.as_slice()[start..end].to_vec(),
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
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Data::Shared(Arc::new(v)), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
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
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b, [1u8, 2, 3][..]);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(b"abc".to_vec()));
        assert_eq!(Bytes::from(String::from("xy")).as_slice(), b"xy");
        assert_eq!((1u8..4).collect::<Bytes>(), Bytes::from(vec![1, 2, 3]));
    }

    #[test]
    fn slicing_shares_the_allocation() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let mid = b.slice(10..20);
        assert_eq!(mid.as_slice(), (10u8..20).collect::<Vec<_>>().as_slice());
        // Sub-slicing a slice composes offsets.
        let inner = mid.slice(2..=4);
        assert_eq!(inner.as_slice(), &[12, 13, 14]);
        assert_eq!(b.slice(..).len(), 100);
        assert_eq!(b.slice(95..).as_slice(), &[95, 96, 97, 98, 99]);
        // Same backing allocation for all of them.
        assert!(b.shares_allocation(&inner));
        let c = b.clone();
        assert!(b.shares_allocation(&c));
    }

    #[test]
    fn from_static_holds_the_slice_without_copying() {
        static DATA: &[u8] = b"static payload";
        let b = Bytes::from_static(DATA);
        assert_eq!(b.as_slice().as_ptr(), DATA.as_ptr(), "from_static must not copy");
        let mid = b.slice(7..);
        assert_eq!(mid.as_slice(), b"payload");
        assert_eq!(mid.as_slice().as_ptr(), DATA[7..].as_ptr(), "slices stay in place");
        assert!(b.shares_allocation(&b.clone()));
        // Static and heap buffers never report a shared allocation,
        // even when their contents agree.
        assert!(!b.shares_allocation(&Bytes::from(DATA.to_vec())));
        // into_vec on a static buffer is the documented copy.
        assert_eq!(mid.into_vec(), b"payload".to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        let _ = Bytes::from(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn into_vec_moves_when_unique_and_copies_when_shared() {
        // Sole owner, full range: the allocation moves (same pointer).
        let v: Vec<u8> = (0u8..16).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique full-range into_vec must not copy");
        assert_eq!(back, (0u8..16).collect::<Vec<_>>());

        // Shared: the original clone stays usable and the copy is right.
        let b = Bytes::from((0u8..8).collect::<Vec<_>>());
        let keep = b.clone();
        assert_eq!(b.into_vec(), (0u8..8).collect::<Vec<_>>());
        assert_eq!(keep.len(), 8);

        // Sliced: only the covered range comes back.
        let b = Bytes::from((0u8..10).collect::<Vec<_>>()).slice(2..5);
        assert_eq!(b.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn hash_and_debug() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Bytes::from(vec![1, 2]));
        assert!(set.contains(&Bytes::from(vec![1, 2])));
        assert_eq!(format!("{:?}", Bytes::from(vec![0; 5])), "Bytes(5 bytes)");
    }
}
