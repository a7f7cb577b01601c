//! Zero-copy array storage for loaded models.
//!
//! The `GEXM` snapshot format lays every CSR/label/score array out as
//! an 8-byte-aligned little-endian section so the loader can *borrow* the
//! arrays straight out of the load buffer instead of copying them. This
//! module supplies the four pieces that make it sound:
//!
//! * [`Bytes`] — an immutable byte range over a refcounted owner. Cloning
//!   and [`Bytes::slice`] are O(1) and share the owner, so every section
//!   of a loaded snapshot is a `Bytes` slice of the one load buffer.
//! * [`AlignedBuf`] — a byte buffer whose base pointer is 8-byte aligned
//!   (backed by a `Vec<u64>`), so a section at an 8-aligned file offset is
//!   8-aligned in memory too. Model files are read directly into one.
//! * [`PodView`] — a typed `&[T]` view over a [`Bytes`] slice, validated
//!   for alignment and length at construction. Cloning is O(1) and shares
//!   the underlying buffer.
//! * [`U32Store`] / [`U16Store`] — either an owned boxed slice (built
//!   models) or a borrowed [`PodView`] (loaded snapshots). The graph
//!   structures store these and deref to plain slices, so inference code
//!   is oblivious to where an array lives.
//!
//! The raw little-endian byte reinterpretation assumes a little-endian
//! host, which every supported target is; [`PodView::new`] rejects
//! misaligned or odd-length sections with `None` rather than UB.

use std::marker::PhantomData;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Immutable, refcounted bytes: an `Arc`-held owner plus a range of it.
///
/// The guarantee [`PodView`] rests on: **an owner's bytes never move
/// while any `Arc` holds it.** The owner lives in the `Arc`'s allocation,
/// which is freed only when the last clone or slice drops, and `Bytes`
/// never takes `&mut` to it, so the slice its `AsRef` lends out stays
/// where it is, unchanged, for as long as any `Bytes` of it exists.
#[derive(Clone)]
pub struct Bytes {
    owner: Arc<dyn AsRef<[u8]> + Send + Sync>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wraps any byte owner (a `Vec<u8>`, an [`AlignedBuf`], a memory
    /// map); the `Bytes`, and every slice of it, keeps the owner alive.
    pub fn from_owner<T: AsRef<[u8]> + Send + Sync + 'static>(owner: T) -> Self {
        let end = owner.as_ref().len();
        Self {
            owner: Arc::new(owner),
            start: 0,
            end,
        }
    }

    /// A sub-range sharing this buffer's owner. O(1); panics if the
    /// range is inverted or out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice start {begin} > end {end}");
        assert!(end <= len, "slice end {end} out of bounds (len {len})");
        Self {
            owner: Arc::clone(&self.owner),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &(*self.owner).as_ref()[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_owner(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A byte buffer guaranteed to start on an 8-byte boundary.
///
/// Backed by a `Vec<u64>` (whose allocation is 8-aligned by construction)
/// exposing the first `len` bytes. This is the owner type behind every
/// zero-copy model load: wrap it in [`Bytes::from_owner`] and slice.
#[derive(Debug, Clone)]
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// An uninitialized (zeroed) buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies `data` into a fresh aligned buffer.
    pub fn copy_from(data: &[u8]) -> Self {
        let mut buf = Self::zeroed(data.len());
        buf.as_mut_slice().copy_from_slice(data);
        buf
    }

    /// Reads `len` bytes from `reader` straight into aligned storage (the
    /// file-load path: no intermediate unaligned `Vec<u8>`).
    pub fn read_exact(reader: &mut impl std::io::Read, len: usize) -> std::io::Result<Self> {
        let mut buf = Self::zeroed(len);
        reader.read_exact(buf.as_mut_slice())?;
        Ok(buf)
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: u64 -> u8 loosens alignment, and len never exceeds the
        // allocation (words.len() * 8 >= len by construction).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_slice`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl AsRef<[u8]> for AlignedBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Marker for element types safe to reinterpret from little-endian bytes.
///
/// Sealed: only the primitive integer widths the GEXM format stores.
pub trait Pod: Copy + private::Sealed + 'static {}

mod private {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}

/// A typed, refcounted `&[T]` view over a [`Bytes`] slice.
///
/// Constructed only through [`PodView::new`], which checks that the byte
/// range is a whole number of elements and that its base pointer satisfies
/// `T`'s alignment — the two conditions that make the pointer cast sound.
/// The base pointer and element count are cached at construction: the
/// view holds its `Bytes`, and an owner's bytes never move while any
/// `Arc` holds it (see [`Bytes`]), so the address stays valid. That keeps
/// `Deref` on the inference hot path a plain `from_raw_parts` with no
/// virtual dispatch through the buffer owner. Cloning shares the buffer
/// (O(1)).
#[derive(Clone)]
pub struct PodView<T: Pod> {
    /// Keep-alive handle for the backing allocation; never re-read on
    /// the hot path.
    _bytes: Bytes,
    ptr: *const T,
    len: usize,
    _elem: PhantomData<T>,
}

// SAFETY: the view is an immutable window into bytes its `Bytes` keeps
// alive, and an owner's bytes never move while any `Arc` holds it; the
// owner is itself `Send + Sync`, and `T` is a sealed plain-old-data
// integer type with no interior mutability.
unsafe impl<T: Pod> Send for PodView<T> {}
unsafe impl<T: Pod> Sync for PodView<T> {}

impl<T: Pod> PodView<T> {
    /// Wraps `bytes` as a `[T]` view; `None` if the length is not a
    /// multiple of `size_of::<T>()` or the base pointer is misaligned.
    pub fn new(bytes: Bytes) -> Option<Self> {
        let size = std::mem::size_of::<T>();
        if bytes.len() % size != 0 || bytes.as_ptr() as usize % std::mem::align_of::<T>() != 0 {
            return None;
        }
        let (ptr, len) = (bytes.as_ptr().cast::<T>(), bytes.len() / size);
        Some(Self {
            _bytes: bytes,
            ptr,
            len,
            _elem: PhantomData,
        })
    }

    /// Number of `T` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Pod> Deref for PodView<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: alignment and whole-element length were verified in
        // `new`; `self._bytes` holds the owner's `Arc`, and an owner's
        // bytes never move while any `Arc` holds it, so `ptr` still
        // points at them, unchanged; T is a sealed POD integer type
        // (little-endian host assumed, as documented at module level).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> std::fmt::Debug for PodView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PodView(len {})", self.len())
    }
}

macro_rules! store {
    ($name:ident, $elem:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Derefs to a plain slice either way; `Owned` comes from the
        /// builder (and the serving overlay), `View` from the zero-copy
        /// snapshot loader.
        #[derive(Debug, Clone)]
        pub enum $name {
            Owned(Box<[$elem]>),
            View(PodView<$elem>),
        }

        impl Deref for $name {
            type Target = [$elem];

            #[inline]
            fn deref(&self) -> &[$elem] {
                match self {
                    Self::Owned(b) => b,
                    Self::View(v) => v,
                }
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> Self {
                Self::Owned(v.into_boxed_slice())
            }
        }

        impl From<PodView<$elem>> for $name {
            fn from(v: PodView<$elem>) -> Self {
                Self::View(v)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                **self == **other
            }
        }

        impl Eq for $name {}

        impl $name {
            /// Whether this array borrows from a shared load buffer
            /// (true only for zero-copy snapshot views).
            pub fn is_view(&self) -> bool {
                matches!(self, Self::View(_))
            }
        }
    };
}

store!(
    U32Store,
    u32,
    "A `u32` array: owned or borrowed from a load buffer."
);
store!(
    U16Store,
    u16,
    "A `u16` array: owned or borrowed from a load buffer."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_aligned_and_sized() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0);
            assert_eq!(buf.is_empty(), len == 0);
        }
    }

    #[test]
    fn copy_from_roundtrips() {
        let data: Vec<u8> = (0..=255).collect();
        let buf = AlignedBuf::copy_from(&data);
        assert_eq!(buf.as_slice(), &data[..]);
    }

    #[test]
    fn read_exact_fills_from_reader() {
        let data: Vec<u8> = (0u8..100).collect();
        let mut cursor = &data[..];
        let buf = AlignedBuf::read_exact(&mut cursor, 100).unwrap();
        assert_eq!(buf.as_slice(), &data[..]);
        let mut short = &data[..10];
        assert!(AlignedBuf::read_exact(&mut short, 100).is_err());
    }

    #[test]
    fn pod_view_reads_little_endian_values() {
        let buf = AlignedBuf::copy_from(&[1, 0, 0, 0, 2, 0, 0, 0]);
        let bytes = Bytes::from_owner(buf);
        let view = PodView::<u32>::new(bytes.clone()).unwrap();
        assert_eq!(&*view, &[1u32, 2]);
        let halves = PodView::<u16>::new(bytes).unwrap();
        assert_eq!(&*halves, &[1u16, 0, 2, 0]);
    }

    #[test]
    fn pod_view_rejects_misalignment_and_ragged_lengths() {
        let buf = AlignedBuf::copy_from(&[0u8; 16]);
        let bytes = Bytes::from_owner(buf);
        // Offset 2 is 2-aligned: fine for u16, misaligned for u32.
        assert!(PodView::<u16>::new(bytes.slice(2..10)).is_some());
        assert!(PodView::<u32>::new(bytes.slice(2..10)).is_none());
        // 7 bytes is not a whole number of u32s.
        assert!(PodView::<u32>::new(bytes.slice(0..7)).is_none());
        // Empty view is fine.
        assert_eq!(PodView::<u32>::new(bytes.slice(8..8)).unwrap().len(), 0);
    }

    #[test]
    fn slices_share_the_owner() {
        let bytes = Bytes::from((0u8..32).collect::<Vec<_>>());
        let head = bytes.slice(0..8);
        let mid = bytes.slice(8..24);
        let nested = mid.slice(4..8);
        assert_eq!(&head[..], &(0u8..8).collect::<Vec<_>>()[..]);
        assert_eq!(&nested[..], &[12, 13, 14, 15]);
        // Same backing allocation: pointer arithmetic lines up.
        let base = bytes.as_ptr() as usize;
        assert_eq!(head.as_ptr() as usize, base);
        assert_eq!(mid.as_ptr() as usize, base + 8);
        assert_eq!(nested.as_ptr() as usize, base + 12);
        // Dropping the root keeps slices alive (refcount, not borrow).
        drop(bytes);
        assert_eq!(nested.len(), 4);
    }

    #[test]
    fn from_owner_keeps_custom_owner_alive() {
        struct Owner(Vec<u8>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        let b = Bytes::from_owner(Owner(vec![9, 8, 7]));
        let tail = b.slice(1..);
        drop(b);
        assert_eq!(&tail[..], &[8, 7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(0..4);
    }

    #[test]
    fn bytes_compare_by_content_not_by_owner() {
        let owned = Bytes::from(vec![1u8, 2]);
        let aligned = Bytes::from_owner(AlignedBuf::copy_from(&[0, 1, 2]));
        assert!(owned == aligned.slice(1..));
        assert!(owned != aligned.slice(..2));
    }

    #[test]
    fn stores_deref_and_compare_across_variants() {
        let owned = U32Store::from(vec![3u32, 1, 4]);
        let buf = AlignedBuf::copy_from(&[3, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0]);
        let view = U32Store::from(PodView::<u32>::new(Bytes::from_owner(buf)).unwrap());
        assert_eq!(owned, view);
        assert_eq!(&*view, &[3u32, 1, 4]);
        assert!(view.is_view());
        assert!(!owned.is_view());
    }
}
