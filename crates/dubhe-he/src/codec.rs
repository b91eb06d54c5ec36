//! Canonical binary encoding of the HE objects that cross the wire.
//!
//! The `DBH2` payload codec of the protocol layer bottoms out here: every
//! ciphertext is emitted as a **fixed-width big-endian limb** of exactly
//! [`ciphertext_size_bytes`] bytes (⌈2·|n|/8⌉ — the width of its residue
//! class), and a public key as its ⌈|n|/8⌉-byte modulus. These are the same
//! widths [`crate::transport`] models, which is what makes *measured* frame
//! bytes line up with the *modeled* canonical accounting: an encoded vector
//! is its canonical ciphertext payload plus a constant-size header, instead
//! of the ~2.5× expansion of decimal-string JSON.
//!
//! Layouts (all integers big-endian):
//!
//! ```text
//! public key   := u32 len | n (len = ⌈|n|/8⌉ bytes, minimal big-endian)
//! ciphertext   := value, zero-padded to ⌈2·|n|/8⌉ bytes (width from the key)
//! vector       := public key | u32 count | count × ciphertext
//! private key  := public key | u32 len | p | u32 len | q
//! packed       := u32 slot_bits | u64 key_bits | u64 count | vector
//! ```
//!
//! Decoding is defensive: truncated input, counts that overrun the payload,
//! residues `≥ n²` and key material that fails validation all surface as
//! typed [`HeError`]s — never a panic, never an unbounded allocation (the
//! element count is checked against the remaining payload *before* any
//! buffer is reserved).
//!
//! ## One vector, many addressees
//!
//! A coordinator's registration broadcast carries the same total once per
//! addressee. [`VectorEncodeMemo`] and [`VectorDecodeMemo`] make that cost
//! one encoding and one parse plus a byte copy / byte compare per repeat,
//! without changing a byte on the wire: the encoder hands out again the
//! bytes it encoded last when the next vector is a handle on the same
//! storage ([`EncryptedVector::shares_storage`]); the decoder reuses the
//! vector it just validated when the next encoding is byte-identical to the
//! one that produced it. The encoder keeps a copy of those bytes of its
//! own, so a writer may reclaim its output as it leaves; the decoder borrows
//! them from its input, and copies them only when asked to outlive it
//! ([`VectorDecodeMemo::into_owned`]), so a reader may drop its input as it
//! is decoded. An encoding is self-delimiting (key length, key, count,
//! fixed-width residues), so a byte-identical prefix decodes to an equal
//! vector and consumes the same bytes — the short-cut cannot return
//! anything the full parse would not.

use std::borrow::Cow;

use num_bigint::BigUint;
use num_traits::Zero;

use crate::ciphertext::Ciphertext;
use crate::error::HeError;
use crate::keys::{PrivateKey, PublicKey};
use crate::packing::{PackedEncryptedVector, Packer};
use crate::transport::ciphertext_size_bytes;
use crate::vector::EncryptedVector;

/// Appends `v` as 4 big-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` as 8 big-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `x` left-padded with zeros to exactly `width` bytes.
///
/// Returns [`HeError::ValueTooWide`] if `x` does not fit.
pub fn put_biguint_fixed(out: &mut Vec<u8>, x: &BigUint, width: usize) -> Result<(), HeError> {
    let bytes = x.to_bytes_be();
    // `to_bytes_be` renders zero as one 0x00 byte; canonically it needs none.
    let bytes: &[u8] = if x.is_zero() { &[] } else { &bytes };
    if bytes.len() > width {
        return Err(HeError::ValueTooWide {
            bytes: bytes.len(),
            width,
        });
    }
    out.resize(out.len() + (width - bytes.len()), 0);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Takes the next `n` bytes off the cursor.
pub fn take_bytes<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8], HeError> {
    if cur.len() < n {
        return Err(HeError::MalformedEncoding {
            detail: "truncated: fewer bytes than the encoding announces",
        });
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

/// Takes a big-endian `u32` off the cursor.
pub fn take_u32(cur: &mut &[u8]) -> Result<u32, HeError> {
    let b = take_bytes(cur, 4)?;
    Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Takes a big-endian `u64` off the cursor.
pub fn take_u64(cur: &mut &[u8]) -> Result<u64, HeError> {
    let b = take_bytes(cur, 8)?;
    Ok(u64::from_be_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Encodes a public key: `u32` length + the minimal big-endian modulus.
///
/// The length always equals
/// [`public_key_size_bytes`](crate::transport::public_key_size_bytes) for
/// the key, so the modulus portion matches the transport model exactly.
pub fn encode_public_key(public: &PublicKey, out: &mut Vec<u8>) {
    let n = public.n().to_bytes_be();
    put_u32(out, n.len() as u32);
    out.extend_from_slice(&n);
}

/// Exact encoded size of [`encode_public_key`]'s output.
pub fn encoded_public_key_bytes(public: &PublicKey) -> usize {
    4 + crate::transport::public_key_size_bytes(public)
}

/// Decodes a public key. Rejects a zero modulus and non-minimal encodings
/// (leading zero bytes), so one key has exactly one encoding.
pub fn decode_public_key(cur: &mut &[u8]) -> Result<PublicKey, HeError> {
    let len = take_u32(cur)? as usize;
    let bytes = take_bytes(cur, len)?;
    if bytes.is_empty() || bytes[0] == 0 {
        return Err(HeError::MalformedEncoding {
            detail: "public key modulus must be non-zero and minimally encoded",
        });
    }
    Ok(PublicKey::new(BigUint::from_bytes_be(bytes)))
}

/// Encodes one ciphertext at the fixed width of its key's residue class.
///
/// The key itself is *not* emitted — vectors carry it once, and single
/// ciphertexts travel alongside a key the receiver already holds.
pub fn encode_ciphertext(ct: &Ciphertext, out: &mut Vec<u8>) -> Result<(), HeError> {
    put_biguint_fixed(out, ct.raw(), ciphertext_size_bytes(ct.public_key()))
}

/// Why a zero residue is refused: it is no encryption (every ciphertext is a
/// unit of `Z_{n²}`), and its decryption has no plaintext.
const ZERO_RESIDUE: &str = "ciphertext residue is zero";

/// Decodes one fixed-width ciphertext under `public`, rejecting residues
/// outside `Z_{n²}` and zero, which encrypts nothing.
pub fn decode_ciphertext(cur: &mut &[u8], public: &PublicKey) -> Result<Ciphertext, HeError> {
    let bytes = take_bytes(cur, ciphertext_size_bytes(public))?;
    let value = BigUint::from_bytes_be(bytes);
    if &value >= public.n_squared() {
        return Err(HeError::MalformedEncoding {
            detail: "ciphertext residue is not below n²",
        });
    }
    if value.is_zero() {
        return Err(HeError::MalformedEncoding {
            detail: ZERO_RESIDUE,
        });
    }
    Ok(Ciphertext::from_raw(value, public.clone()))
}

/// Encodes an element-wise encrypted vector: the key once, then `count`
/// fixed-width ciphertexts. The ciphertext portion is exactly
/// [`vector_wire_bytes`](crate::transport::vector_wire_bytes).
pub fn encode_vector(vector: &EncryptedVector, out: &mut Vec<u8>) -> Result<(), HeError> {
    out.reserve(encoded_vector_bytes(vector));
    encode_public_key(vector.public_key(), out);
    put_u32(out, vector.len() as u32);
    let width = ciphertext_size_bytes(vector.public_key());
    for ct in vector.elements() {
        put_biguint_fixed(out, ct.raw(), width)?;
    }
    Ok(())
}

/// Checks, without encoding it, that every residue of `vector` fits the
/// fixed width [`encode_vector`] gives it — the one way that encoder can
/// fail, refused with the error it would have returned.
pub fn check_encodable(vector: &EncryptedVector) -> Result<(), HeError> {
    let width = ciphertext_size_bytes(vector.public_key());
    for ct in vector.elements() {
        let bytes = (ct.raw().bits() as usize).div_ceil(8);
        if bytes > width {
            return Err(HeError::ValueTooWide { bytes, width });
        }
    }
    Ok(())
}

/// Exact encoded size of [`encode_vector`]'s output, from the transport size
/// model: the key header plus `count` fixed-width ciphertexts. Encoders
/// reserve this up front so a registry never grows its buffer element by
/// element.
pub fn encoded_vector_bytes(vector: &EncryptedVector) -> usize {
    4 + crate::transport::public_key_size_bytes(vector.public_key())
        + 4
        + crate::transport::vector_wire_bytes(vector)
}

/// Encoder-side memory of the vector encoded last: a handle on it and a
/// copy of its encoding. See the module docs.
#[derive(Debug, Default)]
pub struct VectorEncodeMemo {
    last: Option<EncryptedVector>,
    bytes: Vec<u8>,
}

impl VectorEncodeMemo {
    /// [`encode_vector`]'s bytes for `vector`: the remembered ones when it
    /// shares storage with the vector this memo encoded last, else encoded
    /// afresh (and remembered).
    pub fn encoding(&mut self, vector: &EncryptedVector) -> Result<&[u8], HeError> {
        if !self
            .last
            .as_ref()
            .is_some_and(|last| last.shares_storage(vector))
        {
            self.last = None;
            self.bytes.clear();
            encode_vector(vector, &mut self.bytes)?;
            self.last = Some(vector.clone());
        }
        Ok(&self.bytes)
    }
}

/// Decoder-side memory of the vector decoded last: a handle on it and the
/// bytes it was decoded from, borrowed from the input until
/// [`into_owned`](Self::into_owned) copies them. See the module docs.
#[derive(Debug, Default)]
pub struct VectorDecodeMemo<'a> {
    last: Option<(Cow<'a, [u8]>, EncryptedVector)>,
}

impl<'a> VectorDecodeMemo<'a> {
    /// [`decode_vector`], except that an encoding byte-identical to the one
    /// this memo decoded last yields a handle on that already validated
    /// vector. Only a successful decode is remembered.
    pub fn decode_vector(&mut self, cur: &mut &'a [u8]) -> Result<EncryptedVector, HeError> {
        if let Some((bytes, vector)) = &self.last {
            if let Some(rest) = cur.strip_prefix(&bytes[..]) {
                *cur = rest;
                return Ok(vector.clone());
            }
        }
        let input = *cur;
        let vector = decode_vector(cur)?;
        let bytes = &input[..input.len() - cur.len()];
        self.last = Some((Cow::Borrowed(bytes), vector.clone()));
        Ok(vector)
    }

    /// This memo freed from its input, so that it may outlive it — as a
    /// reader that drops its input as it is decoded keeps it from one read
    /// to the next. Copies the remembered bytes if they are still borrowed.
    pub fn into_owned(self) -> VectorDecodeMemo<'static> {
        VectorDecodeMemo {
            last: self
                .last
                .map(|(bytes, vector)| (Cow::Owned(bytes.into_owned()), vector)),
        }
    }

    /// [`decode_packed_vector`] with the inner vector read through
    /// [`decode_vector`](Self::decode_vector); the slot layout is validated
    /// against every envelope's own header regardless.
    pub fn decode_packed_vector(
        &mut self,
        cur: &mut &'a [u8],
    ) -> Result<PackedEncryptedVector, HeError> {
        let (packer, count) = take_packed_header(cur)?;
        let vector = self.decode_vector(cur)?;
        PackedEncryptedVector::from_vector(vector, count, packer)
    }
}

/// A decoded-but-not-materialised encrypted vector: the public key plus a
/// borrowed, fully validated fixed-width residue block still inside the
/// buffer it arrived in.
///
/// Produced by [`decode_vector_view`], which performs every check
/// [`decode_vector`] does (header shape, count-vs-payload, residues `< n²`)
/// without allocating a [`BigUint`] per element. A view is therefore safe to
/// fold directly — `RunningFold::fold_view` multiplies the residue bytes
/// into its accumulators with zero per-element heap traffic — or to
/// [`materialize`](Self::materialize) into an owned [`EncryptedVector`]
/// when it must outlive the frame buffer.
#[derive(Debug, Clone)]
pub struct EncryptedVectorView<'a> {
    public: PublicKey,
    /// `count` residues of exactly `width` bytes each, all `< n²`.
    residues: &'a [u8],
    count: usize,
    width: usize,
}

impl<'a> EncryptedVectorView<'a> {
    /// The key every element was encrypted under.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if the vector has no positions.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The fixed big-endian width of each residue
    /// ([`ciphertext_size_bytes`] of the key).
    pub fn residue_width(&self) -> usize {
        self.width
    }

    /// The big-endian bytes of position `i`'s residue (validated `< n²`).
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn residue_bytes(&self, i: usize) -> &'a [u8] {
        &self.residues[i * self.width..(i + 1) * self.width]
    }

    /// The borrowed residue block for positions `start..end` — the per-shard
    /// slice of a sharded fold.
    ///
    /// # Panics
    ///
    /// If the range is out of bounds.
    pub fn residue_range(&self, start: usize, end: usize) -> EncryptedVectorView<'a> {
        EncryptedVectorView {
            public: self.public.clone(),
            residues: &self.residues[start * self.width..end * self.width],
            count: end - start,
            width: self.width,
        }
    }

    /// Total size of the residue block in bytes (`count × width`) — the
    /// canonical ciphertext payload the transport model accounts.
    pub fn ciphertext_payload_bytes(&self) -> usize {
        self.residues.len()
    }

    /// Copies the view out into an owned [`EncryptedVector`], bit-identical
    /// to what [`decode_vector`] returns for the same bytes. The escape
    /// hatch for ciphertexts that must outlive the frame buffer.
    pub fn materialize(&self) -> EncryptedVector {
        let elements = (0..self.count)
            .map(|i| {
                Ciphertext::from_raw(
                    BigUint::from_bytes_be(self.residue_bytes(i)),
                    self.public.clone(),
                )
            })
            .collect();
        EncryptedVector::from_raw_parts(elements, self.public.clone())
    }
}

/// Decodes an encrypted vector as a borrowed [`EncryptedVectorView`] over
/// the input buffer — same validation and cursor discipline as
/// [`decode_vector`], but no per-element allocation.
///
/// Residues are range-checked against `n²` by fixed-width big-endian byte
/// comparison (equivalent to the numeric comparison), and zero is refused,
/// so a returned view upholds the same invariants as a decoded vector.
pub fn decode_vector_view<'a>(cur: &mut &'a [u8]) -> Result<EncryptedVectorView<'a>, HeError> {
    let public = decode_public_key(cur)?;
    let count = take_u32(cur)? as usize;
    let width = ciphertext_size_bytes(&public);
    if count
        .checked_mul(width)
        .is_none_or(|total| total > cur.len())
    {
        return Err(HeError::MalformedEncoding {
            detail: "vector element count overruns the payload",
        });
    }
    let residues = take_bytes(cur, count * width)?;
    let mut bound = Vec::with_capacity(width);
    put_biguint_fixed(&mut bound, public.n_squared(), width)
        .expect("n² fits the residue width derived from it");
    for chunk in residues.chunks_exact(width) {
        if chunk >= bound.as_slice() {
            return Err(HeError::MalformedEncoding {
                detail: "ciphertext residue is not below n²",
            });
        }
        if chunk.iter().all(|&b| b == 0) {
            return Err(HeError::MalformedEncoding {
                detail: ZERO_RESIDUE,
            });
        }
    }
    Ok(EncryptedVectorView {
        public,
        residues,
        count,
        width,
    })
}

/// Decodes an encrypted vector. The announced element count is checked
/// against the remaining payload before anything is allocated.
pub fn decode_vector(cur: &mut &[u8]) -> Result<EncryptedVector, HeError> {
    let public = decode_public_key(cur)?;
    let count = take_u32(cur)? as usize;
    let width = ciphertext_size_bytes(&public);
    if count
        .checked_mul(width)
        .is_none_or(|total| total > cur.len())
    {
        return Err(HeError::MalformedEncoding {
            detail: "vector element count overruns the payload",
        });
    }
    let mut elements = Vec::with_capacity(count);
    for _ in 0..count {
        elements.push(decode_ciphertext(cur, &public)?);
    }
    Ok(EncryptedVector::from_raw_parts(elements, public))
}

/// Encodes a packed encrypted vector: its slot layout header, then its
/// inner vector in its canonical form.
pub fn encode_packed_vector(
    packed: &PackedEncryptedVector,
    out: &mut Vec<u8>,
) -> Result<(), HeError> {
    out.reserve(encoded_packed_vector_bytes(packed));
    put_packed_header(packed, out);
    encode_vector(packed.vector(), out)
}

/// Bytes of a packed vector's slot layout header: `u32 slot_bits | u64 key_bits | u64 count`.
pub const PACKED_HEADER_BYTES: usize = 4 + 8 + 8;

/// Appends a packed vector's slot layout header, in front of its inner vector.
pub fn put_packed_header(packed: &PackedEncryptedVector, out: &mut Vec<u8>) {
    let packer = packed.packer();
    put_u32(out, packer.slot_bits);
    put_u64(out, packer.key_bits);
    put_u64(out, packed.count() as u64);
}

/// Exact encoded size of [`encode_packed_vector`]'s output.
pub fn encoded_packed_vector_bytes(packed: &PackedEncryptedVector) -> usize {
    PACKED_HEADER_BYTES + encoded_vector_bytes(packed.vector())
}

/// Decodes a packed encrypted vector. Beyond the inner vector's defenses,
/// the slot layout is validated against the decoded key and lane count —
/// hostile widths, foreign key sizes and ciphertext counts that disagree
/// with the layout are all typed errors.
pub fn decode_packed_vector(cur: &mut &[u8]) -> Result<PackedEncryptedVector, HeError> {
    let (packer, count) = take_packed_header(cur)?;
    let vector = decode_vector(cur)?;
    PackedEncryptedVector::from_vector(vector, count, packer)
}

/// Takes and validates the slot layout header of a packed vector.
fn take_packed_header(cur: &mut &[u8]) -> Result<(Packer, usize), HeError> {
    let slot_bits = take_u32(cur)?;
    let key_bits = take_u64(cur)?;
    let count = take_u64(cur)?;
    if count > u32::MAX as u64 {
        return Err(HeError::MalformedEncoding {
            detail: "packed lane count overruns the u32 element space",
        });
    }
    Ok((Packer::try_new(slot_bits, key_bits)?, count as usize))
}

/// Encodes a private key: its public key, then the two length-prefixed prime
/// factors (together one modulus width — the transport model's
/// `private_key_size_bytes`).
pub fn encode_private_key(private: &PrivateKey, out: &mut Vec<u8>) {
    encode_public_key(&private.public, out);
    let (p, q) = private.primes();
    for factor in [p, q] {
        let bytes = factor.to_bytes_be();
        put_u32(out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
}

/// Exact encoded size of [`encode_private_key`]'s output, from the primes'
/// real byte lengths: a factor of a `b`-bit modulus may take a byte less
/// than `b / 16`.
pub fn encoded_private_key_bytes(private: &PrivateKey) -> usize {
    let (p, q) = private.primes();
    let factor = |f: &BigUint| 4 + (f.bits() as usize).div_ceil(8);
    encoded_public_key_bytes(&private.public) + factor(p) + factor(q)
}

/// Decodes and *validates* a private key: factors that do not multiply to
/// the modulus (or otherwise fail the CRT precomputation) are rejected with
/// [`HeError::MalformedKey`].
pub fn decode_private_key(cur: &mut &[u8]) -> Result<PrivateKey, HeError> {
    let public = decode_public_key(cur)?;
    let mut factors = Vec::with_capacity(2);
    for _ in 0..2 {
        let len = take_u32(cur)? as usize;
        if len > cur.len() {
            return Err(HeError::MalformedEncoding {
                detail: "private-key factor overruns the payload",
            });
        }
        factors.push(BigUint::from_bytes_be(take_bytes(cur, len)?));
    }
    let q = factors.pop().expect("two factors pushed");
    let p = factors.pop().expect("two factors pushed");
    PrivateKey::try_new(public, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use crate::transport::{public_key_size_bytes, vector_wire_bytes};
    use rand::SeedableRng;

    fn setup() -> (PublicKey, PrivateKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let (pk, sk) = kp.split();
        (pk, sk, rng)
    }

    #[test]
    fn vector_round_trips_and_matches_the_size_model_exactly() {
        let (pk, sk, mut rng) = setup();
        let values = vec![0u64, 1, 5, 1_000_000, 0, 42, 7, 9];
        let v = EncryptedVector::encrypt_u64(&pk, &values, &mut rng);

        let mut buf = Vec::new();
        encode_vector(&v, &mut buf).unwrap();
        // Header (4 + |n| + 4) + exactly the canonical ciphertext payload.
        assert_eq!(
            buf.len(),
            4 + public_key_size_bytes(&pk) + 4 + vector_wire_bytes(&v),
            "measured encoding must equal the transport model plus a constant header"
        );

        let mut cur = &buf[..];
        let back = decode_vector(&mut cur).unwrap();
        assert!(cur.is_empty(), "decoding must consume the whole encoding");
        assert_eq!(back, v);
        assert_eq!(back.decrypt_u64(&sk).unwrap(), values);
    }

    #[test]
    fn keys_round_trip_through_the_binary_codec() {
        let (pk, sk, mut rng) = setup();
        let mut buf = Vec::new();
        encode_public_key(&pk, &mut buf);
        assert_eq!(buf.len(), 4 + public_key_size_bytes(&pk));
        let back_pk = decode_public_key(&mut &buf[..]).unwrap();
        assert_eq!(back_pk, pk);

        let mut buf = Vec::new();
        encode_private_key(&sk, &mut buf);
        let back_sk = decode_private_key(&mut &buf[..]).unwrap();
        assert_eq!(back_sk, sk);
        let ct = back_pk.encrypt_u64(123, &mut rng);
        assert_eq!(back_sk.decrypt_u64(&ct), 123);
    }

    #[test]
    fn truncated_and_oversized_inputs_are_typed_errors() {
        let (pk, _sk, mut rng) = setup();
        let v = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        let mut buf = Vec::new();
        encode_vector(&v, &mut buf).unwrap();

        // Every strict prefix fails with a typed error, never a panic.
        for cut in [0, 3, 5, buf.len() / 2, buf.len() - 1] {
            let err = decode_vector(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, HeError::MalformedEncoding { .. }),
                "cut {cut}: {err}"
            );
        }

        // A hostile element count larger than the payload is rejected before
        // any allocation happens.
        let mut hostile = Vec::new();
        encode_public_key(&pk, &mut hostile);
        put_u32(&mut hostile, u32::MAX);
        let err = decode_vector(&mut &hostile[..]).unwrap_err();
        assert!(matches!(err, HeError::MalformedEncoding { .. }), "{err}");
    }

    #[test]
    fn out_of_range_residues_and_forged_keys_are_rejected() {
        let (pk, _sk, _rng) = setup();
        // A ciphertext field of all 0xFF is ≥ n² at the fixed width.
        let mut buf = Vec::new();
        encode_public_key(&pk, &mut buf);
        put_u32(&mut buf, 1);
        buf.resize(buf.len() + ciphertext_size_bytes(&pk), 0xFF);
        let err = decode_vector(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, HeError::MalformedEncoding { .. }), "{err}");

        // Private-key factors that do not multiply to n are refused.
        let mut forged = Vec::new();
        encode_public_key(&pk, &mut forged);
        for _ in 0..2 {
            put_u32(&mut forged, 1);
            forged.push(35);
        }
        let err = decode_private_key(&mut &forged[..]).unwrap_err();
        assert!(matches!(err, HeError::MalformedKey { .. }), "{err}");

        // A non-minimal (zero-padded) modulus is not a valid encoding.
        let n = pk.n().to_bytes_be();
        let mut padded = Vec::new();
        put_u32(&mut padded, (n.len() + 1) as u32);
        padded.push(0);
        padded.extend_from_slice(&n);
        let err = decode_public_key(&mut &padded[..]).unwrap_err();
        assert!(matches!(err, HeError::MalformedEncoding { .. }), "{err}");
    }

    #[test]
    fn a_zero_residue_is_refused_by_every_decoder() {
        let (pk, _sk, mut rng) = setup();
        let v = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        let mut buf = Vec::new();
        encode_vector(&v, &mut buf).unwrap();
        // Zero the middle element's residue in place.
        let width = ciphertext_size_bytes(&pk);
        let start = 4 + public_key_size_bytes(&pk) + 4 + width;
        buf[start..start + width].fill(0);
        let zero = HeError::MalformedEncoding {
            detail: ZERO_RESIDUE,
        };
        assert_eq!(decode_vector(&mut &buf[..]).unwrap_err(), zero);
        assert_eq!(decode_vector_view(&mut &buf[..]).unwrap_err(), zero);
        assert_eq!(
            decode_ciphertext(&mut &buf[start..], &pk).unwrap_err(),
            zero
        );
    }

    #[test]
    fn packed_vector_round_trips_and_matches_its_size_model() {
        let (pk, sk, mut rng) = setup();
        let packer = Packer::new(16, crate::TEST_KEY_BITS);
        let values: Vec<u64> = (0..23).map(|i| i * 9).collect();
        let packed = PackedEncryptedVector::encrypt(packer, &pk, &values, &mut rng).unwrap();

        let mut buf = Vec::new();
        encode_packed_vector(&packed, &mut buf).unwrap();
        assert_eq!(buf.len(), encoded_packed_vector_bytes(&packed));

        let mut cur = &buf[..];
        let back = decode_packed_vector(&mut cur).unwrap();
        assert!(cur.is_empty(), "decoding must consume the whole encoding");
        assert_eq!(back, packed);
        assert_eq!(back.decrypt_u64(&sk).unwrap(), values);
    }

    #[test]
    fn truncated_and_hostile_packed_encodings_are_typed_errors() {
        let (pk, _sk, mut rng) = setup();
        let packer = Packer::new(16, crate::TEST_KEY_BITS);
        let packed = PackedEncryptedVector::encrypt(packer, &pk, &[1, 2, 3], &mut rng).unwrap();
        let mut buf = Vec::new();
        encode_packed_vector(&packed, &mut buf).unwrap();

        for cut in [0, 3, 11, 19, buf.len() / 2, buf.len() - 1] {
            let err = decode_packed_vector(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, HeError::MalformedEncoding { .. }),
                "cut {cut}: {err}"
            );
        }

        // A hostile slot width never panics the packer.
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(&77u32.to_be_bytes());
        assert!(decode_packed_vector(&mut &bad[..]).is_err());

        // A lane count that disagrees with the ciphertext count is refused.
        let mut bad = buf.clone();
        bad[12..20].copy_from_slice(&500u64.to_be_bytes());
        assert!(decode_packed_vector(&mut &bad[..]).is_err());

        // A layout header claiming a foreign key size is refused.
        let mut bad = buf;
        bad[4..12].copy_from_slice(&1024u64.to_be_bytes());
        assert!(matches!(
            decode_packed_vector(&mut &bad[..]).unwrap_err(),
            HeError::PackerMismatch { .. }
        ));
    }

    #[test]
    fn vector_view_agrees_with_the_owned_decoder() {
        let (pk, sk, mut rng) = setup();
        let values = vec![9u64, 0, 1 << 40, 3, 77];
        let v = EncryptedVector::encrypt_u64(&pk, &values, &mut rng);
        let mut buf = Vec::new();
        encode_vector(&v, &mut buf).unwrap();
        // Trailing bytes prove the two decoders consume identically.
        buf.extend_from_slice(&[0xAB, 0xCD]);

        let mut owned_cur = &buf[..];
        let owned = decode_vector(&mut owned_cur).unwrap();
        let mut view_cur = &buf[..];
        let view = decode_vector_view(&mut view_cur).unwrap();
        assert_eq!(owned_cur, view_cur, "cursor positions must agree");
        assert_eq!(view.len(), owned.len());
        assert_eq!(view.residue_width(), ciphertext_size_bytes(&pk));
        assert_eq!(
            view.ciphertext_payload_bytes(),
            vector_wire_bytes(&owned),
            "payload accounting must match the transport model"
        );
        assert_eq!(view.materialize(), owned);
        assert_eq!(view.materialize().decrypt_u64(&sk).unwrap(), values);

        // Per-position residue bytes are the canonical fixed-width limbs.
        let width = view.residue_width();
        for (i, ct) in owned.elements().iter().enumerate() {
            let mut canonical = Vec::new();
            put_biguint_fixed(&mut canonical, ct.raw(), width).unwrap();
            assert_eq!(view.residue_bytes(i), &canonical[..], "position {i}");
        }

        // A sub-range view materializes to the matching element window.
        let sub = view.residue_range(1, 4);
        assert_eq!(sub.len(), 3);
        for (i, ct) in sub.materialize().elements().iter().enumerate() {
            assert_eq!(ct.raw(), owned.elements()[1 + i].raw());
        }
    }

    #[test]
    fn vector_view_rejects_exactly_what_the_owned_decoder_rejects() {
        let (pk, _sk, mut rng) = setup();
        let v = EncryptedVector::encrypt_u64(&pk, &[5, 6, 7], &mut rng);
        let mut buf = Vec::new();
        encode_vector(&v, &mut buf).unwrap();

        for cut in 0..buf.len() {
            let owned = decode_vector(&mut &buf[..cut]);
            let view = decode_vector_view(&mut &buf[..cut]).map(|v| v.materialize());
            assert_eq!(owned, view, "cut {cut}: decoders must agree");
        }

        // An out-of-range residue is refused by both, with the same error.
        let mut hostile = buf.clone();
        let tail = hostile.len();
        let width = ciphertext_size_bytes(&pk);
        hostile[tail - width..].fill(0xFF);
        assert_eq!(
            decode_vector(&mut &hostile[..]).unwrap_err(),
            decode_vector_view(&mut &hostile[..]).unwrap_err(),
        );

        // A hostile count is refused before any allocation.
        let mut hostile = Vec::new();
        encode_public_key(&pk, &mut hostile);
        put_u32(&mut hostile, u32::MAX);
        assert!(matches!(
            decode_vector_view(&mut &hostile[..]).unwrap_err(),
            HeError::MalformedEncoding { .. }
        ));
    }

    #[test]
    fn memos_copy_and_reuse_without_changing_a_byte_or_a_value() {
        let (pk, _sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        let rebuilt = EncryptedVector::from_ciphertexts(&pk, a.elements().to_vec()).unwrap();
        let b = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        assert!(a.shares_storage(&a.clone()));
        assert!(a == rebuilt && !a.shares_storage(&rebuilt));
        assert!(!a.shares_storage(&a.slice(0, 3).unwrap()));
        let packed = PackedEncryptedVector::encrypt(
            Packer::new(16, crate::TEST_KEY_BITS),
            &pk,
            &[7, 8, 9],
            &mut rng,
        )
        .unwrap();

        // Clones, an equal-but-separate vector, a different one, a packed
        // pair: the memo's output is the plain encoders', byte for byte.
        let sequence = [&a, &a.clone(), &rebuilt, &a, &b, &b.clone(), &a];
        let (mut plain, mut memoed) = (b"head".to_vec(), b"head".to_vec());
        let mut memo = VectorEncodeMemo::default();
        for v in sequence {
            encode_vector(v, &mut plain).unwrap();
            memoed.extend_from_slice(memo.encoding(v).unwrap());
        }
        for p in [&packed, &packed.clone()] {
            encode_packed_vector(p, &mut plain).unwrap();
            put_packed_header(p, &mut memoed);
            memoed.extend_from_slice(memo.encoding(p.vector()).unwrap());
        }
        assert_eq!(memoed, plain);

        // A residue wider than its field is refused by the check with the
        // encoder's own error, and the memo remembers nothing of it.
        let wide = Ciphertext::from_raw(pk.n_squared().clone() << 8u32, pk.clone());
        let wide = EncryptedVector::from_ciphertexts(&pk, vec![wide]).unwrap();
        let refused = encode_vector(&wide, &mut Vec::new()).unwrap_err();
        assert!(matches!(refused, HeError::ValueTooWide { .. }));
        assert_eq!(check_encodable(&wide), Err(refused.clone()));
        assert_eq!(memo.encoding(&wide), Err(refused));
        assert!(sequence.iter().all(|v| check_encodable(v).is_ok()));
        let mut again = Vec::new();
        encode_vector(&a, &mut again).unwrap();
        assert_eq!(memo.encoding(&a).unwrap(), again);

        // Decoding with a memo yields the plain decoders' values and cursor;
        // byte-identical neighbours come back as handles on one vector.
        let (mut cur, mut memo_cur) = (&plain[4..], &memoed[4..]);
        let mut memo = VectorDecodeMemo::default();
        let mut decoded = Vec::new();
        for _ in sequence {
            let v = memo.decode_vector(&mut memo_cur).unwrap();
            assert_eq!(v, decode_vector(&mut cur).unwrap());
            assert_eq!(memo_cur, cur);
            decoded.push(v);
        }
        assert!(decoded[0].shares_storage(&decoded[3]), "a, a, rebuilt, a");
        assert!(!decoded[3].shares_storage(&decoded[4]), "a then b");
        assert!(decoded[4].shares_storage(&decoded[5]), "b, b");
        for _ in 0..2 {
            let p = memo.decode_packed_vector(&mut memo_cur).unwrap();
            assert_eq!(p, decode_packed_vector(&mut cur).unwrap());
        }
        assert!(memo_cur.is_empty() && cur.is_empty());

        // A prefix of the remembered bytes is not a match: truncation is
        // still the parser's typed error.
        let mut memo = VectorDecodeMemo::default();
        let mut two = Vec::new();
        encode_vector(&a, &mut two).unwrap();
        let one = two.len();
        encode_vector(&a, &mut two).unwrap();
        let mut cur = &two[..two.len() - 1];
        memo.decode_vector(&mut cur).unwrap();
        assert_eq!(cur.len(), one - 1);
        assert_eq!(
            memo.decode_vector(&mut cur),
            decode_vector(&mut &two[one..two.len() - 1])
        );

        // The memo borrows what it decoded until it is made to outlive its
        // input: a reader that drops each encoding once decoded still gets
        // the short-cut for the next.
        let mut memo = VectorDecodeMemo::default();
        let first = memo.decode_vector(&mut &two[..one]).unwrap();
        assert!(matches!(memo.last, Some((Cow::Borrowed(_), _))));
        let mut memo = memo.into_owned();
        let next = two[one..].to_vec();
        drop(two);
        let mut cur = &next[..];
        assert!(memo.decode_vector(&mut cur).unwrap().shares_storage(&first));
        assert!(cur.is_empty());
    }

    #[test]
    fn fixed_width_field_rejects_overflow() {
        let mut out = Vec::new();
        let err = put_biguint_fixed(&mut out, &BigUint::from(0x1_0000u64), 2).unwrap_err();
        assert_eq!(err, HeError::ValueTooWide { bytes: 3, width: 2 });
        put_biguint_fixed(&mut out, &BigUint::from(7u64), 4).unwrap();
        assert_eq!(out, vec![0, 0, 0, 7]);
        out.clear();
        put_biguint_fixed(&mut out, &BigUint::zero(), 3).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
    }
}
