//! The byte codec: every structure that must become real bytes — kernel
//! messages, journal frames, on-disk inodes, migrating process records and
//! lock lists — states its layout once, as a [`Wire`] impl, and that one
//! statement serves both directions. (No serialization crate is in the
//! approved dependency list, so this is hand-rolled.)
//!
//! A layout is a composition, stated with [`wire!`](crate::wire): a struct is
//! its listed fields in the order listed, an enum a tag byte and then the
//! variant's fields, and both read back exactly what they wrote and refuse
//! everything else. The layouts of the shared vocabulary
//! (ids, ranges, lock descriptors, intentions lists, [`Error`]) are the table
//! at the bottom of this file; a type another crate owns has its layout
//! there, next to the type. Integers are little-endian; a flag is one byte,
//! 0 or 1, and any other value is refused.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::Error;
use crate::id::{Channel, Fid, InodeNo, PageNo, PhysPage, Pid, SiteId, TransId, VolumeId};
use crate::lockmode::{LockClass, LockMode, LockRequestMode};
use crate::pagedata::PageData;
use crate::proto::{
    FileListEntry, GrantPage, IntentionsEntry, IntentionsList, LockDescriptor, Owner, TxnStatus,
};
use crate::range::ByteRange;

/// A type with one byte layout. `get` undoes `put` and returns `None` on
/// anything `put` cannot have written: truncation, an unknown tag, a flag
/// that is neither 0 nor 1, a count the input cannot hold.
///
/// The impls in this file, and the ones [`wire!`](crate::wire) writes, mark
/// both methods `#[inline]`: a layout is a composition of impls that live in
/// other crates, and without the hint each field of each message is a call
/// into `locus-types` (measured: the decode probes ran 10-20% slower than
/// the same-crate private functions these replaced).
pub trait Wire: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Option<Self>;
}

/// The encoding of `v`, alone.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.put(&mut e);
    e.finish()
}

/// Decodes bytes that hold exactly one `T`; trailing bytes are refused.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut d = Dec::new(bytes);
    let v = T::get(&mut d)?;
    d.done().then_some(v)
}

/// For a layout's golden test: panics unless `value` encodes to exactly the
/// bytes `golden_hex` spells and those bytes decode back to `value`. A
/// round trip alone passes a mistake made symmetrically; this does not.
pub fn assert_pinned<T: Wire + PartialEq + std::fmt::Debug>(value: &T, golden_hex: &str) {
    let byte = |i| u8::from_str_radix(&golden_hex[i..i + 2], 16).expect("hex digits");
    let golden: Vec<u8> = (0..golden_hex.len()).step_by(2).map(byte).collect();
    assert_eq!(to_bytes(value), golden, "{value:?}");
    assert_eq!(from_bytes::<T>(&golden).as_ref(), Some(value));
}

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    /// A writer whose buffer holds `capacity` bytes before it grows: one
    /// allocation for a value whose size the caller knows roughly.
    pub fn with_capacity(capacity: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// A `u32` count followed by the elements, each written by `elem`.
    pub fn seq<I: ExactSizeIterator>(
        &mut self,
        items: I,
        mut elem: impl FnMut(I::Item, &mut Self),
    ) {
        self.u32(items.len() as u32);
        for item in items {
            elem(item, self);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based byte reader; all methods return `None` on truncation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    /// The next byte, left unread.
    pub fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32` count followed by that many elements, each read by `elem`.
    /// The count comes from bytes nobody vouches for (a frame, a journal
    /// tail, a disk block) and every element is at least one byte, so a
    /// count above the bytes remaining is `None` before anything is
    /// reserved; honest input still allocates exactly once.
    pub fn seq<T>(&mut self, mut elem: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Some(out)
    }

    /// Whether the input is fully consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// States a type's byte layout, once, for both directions.
///
/// `wire!(struct T { a, b })`: the listed fields in the order listed, which
/// need not be declaration order. A field that does not travel is named
/// after `+` with the value it decodes to — an expression that may use the
/// fields already read, and `?` to refuse them.
///
/// `wire!(enum T { 0 => A, 1 => B(x), 2 => C { y, z } })`: the variant's tag
/// byte, then its fields in the order listed. A tag that is not listed is
/// refused, so a retired tag stays unassigned simply by staying out of the
/// list — never reuse one. `field with module` lays that field out through
/// `module::put` / `module::get` instead of through its type. Tags under
/// `retired` are read as the variant named but never written.
#[macro_export]
macro_rules! wire {
    (struct $ty:ident { $($f:ident),* $(,)? } $(+ { $($rest:ident: $val:expr),* $(,)? })?) => {
        impl $crate::codec::Wire for $ty {
            #[inline]
            fn put(&self, e: &mut $crate::codec::Enc) {
                let $ty { $($f,)* $($($rest: _,)*)? } = self;
                $($crate::codec::Wire::put($f, e);)*
            }
            #[inline]
            fn get(d: &mut $crate::codec::Dec<'_>) -> Option<Self> {
                $(let $f = $crate::codec::Wire::get(d)?;)*
                Some($ty { $($($rest: $val,)*)? $($f,)* })
            }
        }
    };
    (enum $ty:ident {
        $($tag:tt => $var:ident
            $(( $($t:ident $(with $tv:ident)?),* ))?
            $({ $($f:ident $(with $fv:ident)?),* $(,)? })?
        ),* $(,)?
    } $(retired { $($rtag:tt => $rvar:ident ( $($rt:ident),* )),* $(,)? })?) => {
        impl $crate::codec::Wire for $ty {
            #[inline]
            fn put(&self, e: &mut $crate::codec::Enc) {
                match self {$(
                    $ty::$var $(( $($t),* ))? $({ $($f),* })? => {
                        e.u8($tag);
                        $($($crate::wire_field!(put $t, e $(, $tv)?);)*)?
                        $($($crate::wire_field!(put $f, e $(, $fv)?);)*)?
                    }
                )*}
            }
            #[inline]
            fn get(d: &mut $crate::codec::Dec<'_>) -> Option<Self> {
                Some(match d.u8()? {
                    $($tag => {
                        $($(let $t = $crate::wire_field!(get d $(, $tv)?);)*)?
                        $($(let $f = $crate::wire_field!(get d $(, $fv)?);)*)?
                        $ty::$var $(( $($t),* ))? $({ $($f),* })?
                    })*
                    $($($rtag => {
                        $(let $rt = $crate::codec::Wire::get(d)?;)*
                        $ty::$rvar($($rt),*)
                    })*)?
                    _ => return None,
                })
            }
        }
    };
}

/// One field of a [`wire!`] enum variant: through its type, or `with` a
/// module.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    (put $v:ident, $e:ident) => {
        $crate::codec::Wire::put($v, $e)
    };
    (put $v:ident, $e:ident, $with:ident) => {
        $with::put($v, $e)
    };
    (get $d:ident) => {
        $crate::codec::Wire::get($d)?
    };
    (get $d:ident, $with:ident) => {
        $with::get($d)?
    };
}

/// A nested structure behind a `u32` byte length, the way a journal frame
/// carries a whole log record: written in place, the length patched in once
/// it is known, and on the way back the record must fill its length exactly.
pub mod framed {
    use super::{from_bytes, Dec, Enc, Wire};

    #[inline]
    pub fn put<T: Wire>(v: &T, e: &mut Enc) {
        let at = e.buf.len();
        e.u32(0);
        v.put(e);
        let len = (e.buf.len() - at - 4) as u32;
        e.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    #[inline]
    pub fn get<T: Wire>(d: &mut Dec<'_>) -> Option<T> {
        from_bytes(d.bytes()?)
    }
}

macro_rules! wire_int {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$t(*self);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                d.$t()
            }
        }
    )*};
}

wire_int!(u32, u64);

/// Travels as a `u64` whatever the host's word size.
impl Wire for usize {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        usize::try_from(d.u64()?).ok()
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        match d.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Payload bytes travel in bulk behind their length. (`u8` itself is not
/// `Wire`, which is what lets this sit beside the generic sequence impls.)
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.bytes(self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        // Copied out here because this is the deserialization boundary:
        // the input buffer is transient.
        Some(d.bytes()?.to_vec())
    }
}

impl Wire for PageData {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.bytes(self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(PageData::from(d.bytes()?))
    }
}

/// Bytes that are not UTF-8 decode lossily: a garbled diagnostic string is
/// still a diagnostic.
impl Wire for String {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(String::from_utf8_lossy(d.bytes()?).into_owned())
    }
}

/// A presence flag, then the value if present.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(if bool::get(d)? {
            Some(T::get(d)?)
        } else {
            None
        })
    }
}

macro_rules! wire_seq {
    ($($coll:ident $(: $bound:ident)?),*) => {$(
        impl<T: Wire $(+ $bound)?> Wire for $coll<T> {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.seq(self.iter(), T::put);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                Some(d.seq(T::get)?.into_iter().collect())
            }
        }
    )*};
}

wire_seq!(Vec, BTreeSet: Ord);

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter(), |(k, v), e| {
            k.put(e);
            v.put(e);
        });
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(
            d.seq(|d| Some((K::get(d)?, V::get(d)?)))?
                .into_iter()
                .collect(),
        )
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
        self.2.put(e);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::get(d)?, B::get(d)?, C::get(d)?))
    }
}

macro_rules! wire_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                self.0.put(e);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                Some($ty(Wire::get(d)?))
            }
        }
    )*};
}

// The shared vocabulary. Every message, journal frame, inode, process record
// and lock-list image is a composition of these.

wire_newtype!(SiteId, Pid, VolumeId, InodeNo, PageNo, PhysPage, Channel);
wire!(struct TransId { site, seq });
wire!(struct Fid { volume, inode });
wire!(struct ByteRange { start, len });
wire!(enum Owner { 0 => Trans(tid), 1 => Proc(pid) });
wire!(enum LockMode { 0 => Unix, 1 => Shared, 2 => Exclusive });
wire!(enum LockClass { 0 => Transaction, 1 => NonTransaction });
wire!(enum LockRequestMode { 0 => Shared, 1 => Exclusive, 2 => Unlock });
// The journal's numbering. `TxnMsg::StatusAnswer` carries an optional status
// packed into one byte under a different one; see `locus-net`'s `wire`.
wire!(enum TxnStatus { 0 => Unknown, 1 => Committed, 2 => Aborted, 3 => Voted });
wire!(struct FileListEntry { fid, storage_site, epoch });
wire!(struct IntentionsEntry { page, new_phys, old_phys, old_vers, ranges });
// Not declaration order: the new length travels before the entries.
wire!(struct IntentionsList { fid, new_len, entries });
wire!(struct LockDescriptor { pid, tid, mode, class, range, retained });
wire!(enum GrantPage { 0 => Current, 1 => Shipped { vers, clean, data } });

// Every error class has its own tag so a decoded error is the error that was
// raised — callers match on variants for control flow, and a collapse to a
// display string would lose that across the wire. Tags 0–5 predate the typed
// extension and keep their layout; tag 6 (a bare string from before it)
// stays readable for captured byte streams and is classified as a protocol
// violation.
wire!(enum Error {
    0 => LockConflict { fid, range },
    1 => WouldBlock { fid, range },
    2 => AccessDenied { fid, range },
    3 => InTransit(pid),
    4 => NoSuchProcess(pid),
    5 => TxnAborted(tid),
    7 => PermissionDenied { fid },
    8 => NoSuchFile(name),
    9 => StaleFid(fid),
    10 => BadChannel,
    11 => SiteDown(site),
    12 => Partitioned { from, to },
    13 => NotInTransaction,
    14 => ChildrenActive { remaining },
    15 => VolumeFull,
    16 => InvalidArgument(what),
    17 => ProtocolViolation(what),
    18 => AlreadyExists(name),
    19 => Crashed(site),
    20 => DiskOffline,
    21 => NotLanded(tid),
} retired {
    6 => ProtocolViolation(what),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        None::<u64>.put(&mut e);
        Some(42u64).put(&mut e);
        e.bytes(b"hello");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.peek(), Some(7));
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(Option::<u64>::get(&mut d), Some(None));
        assert_eq!(Option::<u64>::get(&mut d), Some(Some(42)));
        assert_eq!(d.bytes(), Some(&b"hello"[..]));
        assert!(d.done());
        assert_eq!(d.peek(), None);
    }

    #[test]
    fn seq_reads_counted_elements_and_refuses_a_count_the_input_cannot_hold() {
        let mut bytes = to_bytes(&vec![10u64, 20, 30]);
        assert_eq!(bytes.len(), 4 + 3 * 8);
        assert_eq!(Dec::new(&bytes).seq(Dec::u64), Some(vec![10, 20, 30]));
        assert_eq!(Dec::new(&bytes[..20]).seq(Dec::u64), None, "truncated");
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Dec::new(&bytes).seq(Dec::u64), None, "hostile count");
        assert_eq!(Dec::new(&0u32.to_le_bytes()).seq(Dec::u64), Some(vec![]));
    }

    #[test]
    fn truncation_returns_none() {
        let bytes = to_bytes(&1u64);
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.u64(), None);
    }

    #[test]
    fn flags_are_strict_and_from_bytes_refuses_a_tail() {
        assert_eq!(from_bytes::<bool>(&[0]), Some(false));
        assert_eq!(from_bytes::<bool>(&[1]), Some(true));
        assert_eq!(from_bytes::<bool>(&[2]), None);
        assert_eq!(
            from_bytes::<LockClass>(&[1]),
            Some(LockClass::NonTransaction)
        );
        assert_eq!(from_bytes::<LockClass>(&[0xff]), None);
        assert_eq!(from_bytes::<Option<SiteId>>(&[2, 0, 0, 0, 0]), None);
        assert_eq!(from_bytes::<SiteId>(&[3, 0, 0, 0]), Some(SiteId(3)));
        assert_eq!(
            from_bytes::<SiteId>(&[3, 0, 0, 0, 0]),
            None,
            "trailing byte"
        );
    }

    #[test]
    fn a_framed_record_carries_its_length_and_must_fill_it() {
        let tid = TransId::new(SiteId(2), 17);
        let mut e = Enc::new();
        framed::put(&tid, &mut e);
        let bytes = e.finish();
        assert_eq!(bytes[..4], 12u32.to_le_bytes());
        assert_eq!(bytes[4..], to_bytes(&tid));
        assert_eq!(framed::get::<TransId>(&mut Dec::new(&bytes)), Some(tid));
        // A length one byte longer than the record: the tail is refused.
        let mut long = bytes.clone();
        long[0] = 13;
        long.push(0);
        assert_eq!(framed::get::<TransId>(&mut Dec::new(&long)), None);
    }
}
