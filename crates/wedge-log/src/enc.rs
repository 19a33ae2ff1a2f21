//! Canonical wire encoding and decoding.
//!
//! Every signed WedgeChain message is serialized with this tiny,
//! unambiguous, length-prefixed encoding before hashing/signing, so a
//! digest or signature commits to exactly one byte string. (Generic
//! serializers are not canonical by default; a hand-written codec is
//! the safer choice for signing.)
//!
//! [`Decoder`] is the exact inverse, for the networked driver: a
//! stream of fields read in the same order they were written, with
//! every malformation (truncation, bad tag, oversized length prefix,
//! trailing bytes) a typed [`DecodeError`] rather than a panic —
//! decoded bytes come from untrusted peers.
//!
//! [`Wire`] is the one codec every nested wire type implements: its
//! encoding, its exact length and its smallest size, each stated once.
//! Composites are built from their fields' impls (plain structs list
//! their fields with [`wire_struct!`](crate::wire_struct)), and the one
//! rule that bounds a hostile element count lives in `Vec<T>`'s impl:
//! a count that `T::MIN_LEN` bytes per element could not fit into the
//! remaining input is refused before anything is allocated.

use std::fmt;
use std::sync::Arc;
use wedge_crypto::{Digest, IdentityId, InclusionProof, Signature};

/// Incrementally builds a canonical byte string.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder seeded with a domain-separation tag.
    pub fn with_tag(tag: &str) -> Self {
        Self::with_tag_and_capacity(tag, 64)
    }

    /// Creates a tag-seeded encoder pre-sized for `payload_len` more
    /// bytes after the tag — an exact `encoded_len()` here means the
    /// encode never reallocates.
    pub fn with_tag_and_capacity(tag: &str, payload_len: usize) -> Self {
        let mut e = Encoder { buf: Vec::with_capacity(8 + tag.len() + payload_len) };
        e.put_bytes(tag.as_bytes());
        e
    }

    /// Wraps a caller-owned buffer and appends to its existing
    /// contents; [`Encoder::finish`] hands the buffer back. This is
    /// the reuse path: pooled buffers keep their capacity across
    /// messages, and frame builders can lay payload bytes directly
    /// after a header they already wrote.
    pub fn append_to(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.buf.reserve(additional);
        self
    }

    /// Appends a fixed-width big-endian u8.
    #[inline]
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a fixed-width big-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a fixed-width big-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a fixed-width big-endian u128.
    #[inline]
    pub fn put_u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a 32-byte digest (fixed width, no prefix).
    #[inline]
    pub fn put_digest(&mut self, d: &Digest) -> &mut Self {
        self.buf.extend_from_slice(d.as_bytes());
        self
    }

    /// Appends a 32-byte Schnorr signature (fixed width, no prefix).
    #[inline]
    fn put_signature(&mut self, s: &Signature) -> &mut Self {
        self.buf.extend_from_slice(&s.to_bytes());
        self
    }

    /// Appends one [`Wire`] value.
    #[inline]
    pub fn put<T: Wire>(&mut self, v: &T) -> &mut Self {
        v.encode_into(self);
        self
    }

    /// Finishes and returns the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length (for capacity decisions/tests).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Why decoding failed. Every variant is a malformed (or truncated,
/// or tampered) input — never a programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a field.
    UnexpectedEof,
    /// The domain-separation tag did not match the expected one.
    BadTag,
    /// A length prefix claims more bytes than the input holds.
    BadLength,
    /// Input continued past the final field.
    TrailingBytes,
    /// A field held a value the type cannot represent.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "input truncated mid-field"),
            DecodeError::BadTag => write!(f, "domain-separation tag mismatch"),
            DecodeError::BadLength => write!(f, "length prefix exceeds input"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after final field"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads fields back out of a canonical byte string, in the order
/// [`Encoder`] wrote them.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes and checks the [`Encoder::with_tag`] prefix.
    pub fn expect_tag(&mut self, tag: &str) -> Result<(), DecodeError> {
        if self.get_bytes()? != tag.as_bytes() {
            return Err(DecodeError::BadTag);
        }
        Ok(())
    }

    /// Reads a fixed-width u8.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width big-endian u32.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }

    /// Reads a fixed-width big-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// Reads a fixed-width big-endian u128.
    #[inline]
    pub fn get_u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().expect("took 16 bytes")))
    }

    /// Reads a length-prefixed byte string. The prefix is validated
    /// against the remaining input *before* any allocation, so a
    /// hostile length cannot balloon memory.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength);
        }
        self.take(len as usize)
    }

    /// Reads a 32-byte digest (fixed width, no prefix).
    #[inline]
    pub fn get_digest(&mut self) -> Result<Digest, DecodeError> {
        let bytes: [u8; 32] = self.take(32)?.try_into().expect("took 32 bytes");
        Ok(Digest::from_bytes(bytes))
    }

    /// Reads a 32-byte Schnorr signature (fixed width, no prefix).
    #[inline]
    fn get_signature(&mut self) -> Result<Signature, DecodeError> {
        let bytes: [u8; 32] = self.take(32)?.try_into().expect("took 32 bytes");
        Ok(Signature::from_bytes(&bytes))
    }

    /// Reads one [`Wire`] value.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::decode_from(self)
    }

    /// Reads the count prefix of a repeated field, rejecting counts
    /// that could not possibly fit in the remaining input (each
    /// element occupies at least `min_elem_bytes`). This bounds
    /// pre-allocation against hostile counts; `Vec<T>` is its one
    /// caller.
    #[inline]
    fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.get_u64()?;
        if count > (self.remaining() / min_elem_bytes.max(1)) as u64 {
            return Err(DecodeError::BadLength);
        }
        Ok(count as usize)
    }

    /// Requires every byte to have been consumed — a decoded message
    /// with leftovers is not the message that was signed.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
}

/// A type with one canonical wire encoding, written once.
///
/// `MIN_LEN` is the fewest bytes any value encodes to. For a fixed-size
/// type it is also the exact length, which is why
/// [`Wire::encoded_len`] defaults to it; variable-size types override
/// `encoded_len` with the exact sum of their parts. `Vec<T>` reads its
/// count through the hostile-count guard with `T::MIN_LEN`, so a
/// minimum stated too high would refuse honest input and one stated
/// too low would let a hostile count reserve memory — the conformance
/// suite pins every impl's smallest value to exactly `MIN_LEN`.
pub trait Wire: Sized {
    /// Fewest bytes any value of the type encodes to.
    const MIN_LEN: usize;

    /// Exact byte length of [`Wire::encode_into`]'s output.
    fn encoded_len(&self) -> usize {
        Self::MIN_LEN
    }

    /// Appends the canonical encoding to an in-progress message.
    fn encode_into(&self, enc: &mut Encoder);

    /// Inverse of [`Wire::encode_into`]. Signatures inside are *not*
    /// verified here — decoding and trusting are separate steps.
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Appends `items` back to back, behind the count `Vec<T>` already
    /// wrote. One loop for every type; `u8` copies the slice at once.
    #[doc(hidden)]
    fn encode_run(items: &[Self], enc: &mut Encoder) {
        for item in items {
            item.encode_into(enc);
        }
    }

    /// Reads `count` values written by [`Wire::encode_run`]; `count`
    /// already passed the hostile-count guard.
    #[doc(hidden)]
    fn decode_run(count: usize, dec: &mut Decoder<'_>) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::decode_from(dec)?);
        }
        Ok(out)
    }
}

impl Wire for u8 {
    const MIN_LEN: usize = 1;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u8()
    }
    // Byte strings are `Vec<u8>`: one copy, not one call per byte.
    #[inline]
    fn encode_run(items: &[u8], enc: &mut Encoder) {
        enc.buf.extend_from_slice(items);
    }
    #[inline]
    fn decode_run(count: usize, dec: &mut Decoder<'_>) -> Result<Vec<u8>, DecodeError> {
        Ok(dec.take(count)?.to_vec())
    }
}

impl Wire for u32 {
    const MIN_LEN: usize = 4;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u32()
    }
}

impl Wire for u64 {
    const MIN_LEN: usize = 8;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64()
    }
}

impl Wire for u128 {
    const MIN_LEN: usize = 16;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u128(*self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u128()
    }
}

impl Wire for Digest {
    const MIN_LEN: usize = 32;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_digest(self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_digest()
    }
}

impl Wire for Signature {
    const MIN_LEN: usize = 32;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_signature(self);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_signature()
    }
}

impl Wire for IdentityId {
    const MIN_LEN: usize = u64::MIN_LEN;
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(IdentityId(dec.get_u64()?))
    }
}

/// A Merkle inclusion proof: the leaf index as a `u64`, then the
/// sibling path.
impl Wire for InclusionProof {
    const MIN_LEN: usize = u64::MIN_LEN + Vec::<Digest>::MIN_LEN;
    #[inline]
    fn encoded_len(&self) -> usize {
        u64::MIN_LEN + self.siblings.encoded_len()
    }
    #[inline]
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.leaf_index as u64).put(&self.siblings);
    }
    #[inline]
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let leaf_index =
            usize::try_from(dec.get_u64()?).map_err(|_| DecodeError::Malformed("leaf index"))?;
        Ok(InclusionProof { leaf_index, siblings: dec.get()? })
    }
}

/// A presence byte — `0` for `None`, `1` then the value for `Some`.
/// Any other presence byte is malformed.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            Some(v) => {
                enc.put_u8(1).put(v);
            }
            None => {
                enc.put_u8(0);
            }
        }
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(dec.get()?)),
            _ => Err(DecodeError::Malformed("option presence byte")),
        }
    }
}

/// A `u64` count, then the elements. The count is checked against
/// `T::MIN_LEN` before the vector is pre-sized, so a hostile count
/// cannot reserve memory the remaining input could never fill.
/// `Vec<u8>` is therefore exactly [`Encoder::put_bytes`]'s encoding.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn encoded_len(&self) -> usize {
        u64::MIN_LEN + self.iter().map(T::encoded_len).sum::<usize>()
    }
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        T::encode_run(self, enc);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = dec.get_count(T::MIN_LEN)?;
        T::decode_run(count, dec)
    }
}

/// Shared values encode as the value; decoding makes a fresh `Arc`.
impl<T: Wire> Wire for Arc<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn encoded_len(&self) -> usize {
        T::encoded_len(self)
    }
    fn encode_into(&self, enc: &mut Encoder) {
        T::encode_into(self, enc);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(dec.get()?))
    }
}

/// Boxed values encode as the value.
impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn encoded_len(&self) -> usize {
        T::encoded_len(self)
    }
    fn encode_into(&self, enc: &mut Encoder) {
        T::encode_into(self, enc);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(dec.get()?))
    }
}

/// A pair is its two fields in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put(&self.0).put(&self.1);
    }
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((dec.get()?, dec.get()?))
    }
}

/// Implements [`Wire`] for a plain struct as its fields in the listed
/// order: `MIN_LEN` and `encoded_len` are the sums over the fields,
/// and decoding reads each field back in the same order. Every field
/// must be listed with its type — the compiler rejects a missing field
/// or a wrong type — so the list is the encoding.
///
/// ```
/// # use wedge_log::{wire_struct, Decoder, Encoder, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Pair {
///     a: u64,
///     b: Option<u32>,
/// }
/// wire_struct!(Pair { a: u64, b: Option<u32> });
///
/// assert_eq!(Pair::MIN_LEN, 9);
/// let p = Pair { a: 7, b: Some(1) };
/// let mut enc = Encoder::default();
/// p.encode_into(&mut enc);
/// let bytes = enc.finish();
/// assert_eq!(bytes.len(), p.encoded_len());
/// assert_eq!(Decoder::new(&bytes).get::<Pair>(), Ok(p));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        impl $crate::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::Wire>::MIN_LEN)+;
            #[inline]
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Wire::encoded_len(&self.$field))+
            }
            #[inline]
            fn encode_into(&self, enc: &mut $crate::Encoder) {
                $($crate::Wire::encode_into(&self.$field, enc);)+
            }
            #[inline]
            fn decode_from(
                dec: &mut $crate::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                Ok($name { $($field: <$ty as $crate::Wire>::decode_from(dec)?),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::sha256;

    #[test]
    fn tag_prefixes_output() {
        let e = Encoder::with_tag("t");
        // 8-byte length + 1 tag byte.
        assert_eq!(e.len(), 9);
    }

    #[test]
    fn length_prefix_prevents_ambiguity() {
        // ("ab", "c") must encode differently from ("a", "bc").
        let mut e1 = Encoder::with_tag("x");
        e1.put_bytes(b"ab").put_bytes(b"c");
        let mut e2 = Encoder::with_tag("x");
        e2.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(e1.finish(), e2.finish());
    }

    #[test]
    fn fixed_width_ints_are_big_endian() {
        let mut e = Encoder::default();
        e.put_u32(1);
        assert_eq!(e.finish(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn digest_roundtrip_into_encoding() {
        let d = sha256(b"abc");
        let mut e = Encoder::default();
        e.put_digest(&d);
        assert_eq!(e.finish(), d.as_bytes().to_vec());
    }
}
