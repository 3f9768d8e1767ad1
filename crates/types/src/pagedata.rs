//! Shared, immutable page payloads.
//!
//! [`PageData`] wraps page bytes in an `Arc<[u8]>` so a payload produced
//! once (a committed page image, a prefetched page) can be handed to the
//! page cache, the replica fan-out, and the transport without copying the
//! bytes again — cloning a `PageData` bumps a refcount. On the wire these
//! are plain length-prefixed bytes.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted page payload.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PageData(Arc<[u8]>);

impl PageData {
    pub fn new(bytes: Vec<u8>) -> Self {
        PageData(bytes.into())
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for PageData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for PageData {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for PageData {
    fn from(v: Vec<u8>) -> Self {
        PageData::new(v)
    }
}

impl From<&[u8]> for PageData {
    fn from(v: &[u8]) -> Self {
        PageData(v.into())
    }
}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageData({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = PageData::new(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn deref_and_conversions() {
        let d = PageData::from(vec![9u8; 4]);
        assert_eq!(d.len(), 4);
        assert_eq!(&d[..2], &[9, 9]);
        assert!(!d.is_empty());
        assert!(PageData::new(Vec::new()).is_empty());
    }
}
