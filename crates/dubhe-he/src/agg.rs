//! Montgomery-domain running aggregation of encrypted vectors.
//!
//! The coordinator folds client registries into one homomorphic sum *as they
//! arrive*: per arriving vector, one modular multiplication per registry
//! position. Done naively that multiplication is a full-width product
//! followed by a Knuth division by `n²` — the division being pure overhead,
//! because the key's cached [`MontgomeryContext`] can reduce with shifts and
//! adds instead.
//!
//! [`RunningFold`] keeps the entire running state **inside the Montgomery
//! domain**: arriving residues are multiplied in with a single Montgomery
//! multiplication each (no per-element conversion — the fold tracks the
//! accumulated `R⁻¹` deficit instead), and the state is converted out once
//! per position when the total is read. The produced ciphertexts are
//! **bit-for-bit identical** to a left-to-right
//! [`EncryptedVector::add`](crate::EncryptedVector::add) chain (and to
//! [`sum_vectors_serial`](crate::sum_vectors_serial)): a modular product does
//! not depend on the reduction route. The property tests pin this for every
//! fold shape the coordinators use.
//!
//! Keys whose modulus is even (impossible for generated keys, conceivable
//! for forged wire material) have no Montgomery context; the fold silently
//! degrades to plain reductions with the same results.

use num_bigint::{BigUint, MontgomeryOperand};

use crate::ciphertext::Ciphertext;
use crate::codec;
use crate::error::HeError;
use crate::keys::PublicKey;
use crate::transport::ciphertext_size_bytes;
use crate::vector::{for_each_chunk_with_scratch, map_indexed, EncryptedVector, ScratchPool, Work};

#[cfg(doc)]
use num_bigint::MontgomeryContext;

/// The per-position accumulators of a [`RunningFold`].
#[derive(Debug, Clone)]
enum FoldState {
    /// In-domain accumulators: after folding `folded` vectors, position `i`
    /// stores the true running product times `R^-(folded - 1)`.
    Mont(Vec<MontgomeryOperand>),
    /// Plain residues (even-modulus fallback).
    Plain(Vec<BigUint>),
}

/// A running homomorphic sum of same-shape encrypted vectors, accumulated in
/// the Montgomery domain of the key's cached `n²` context.
///
/// One Montgomery multiplication per position per folded vector; one conversion
/// out per position when [`total`](Self::total) is read. Equivalent, bit for
/// bit, to folding with [`EncryptedVector::add`] — just without paying a
/// full-width division per element.
#[derive(Debug, Clone)]
pub struct RunningFold {
    public: PublicKey,
    /// How many vectors have been folded in (≥ 1).
    folded: u64,
    state: FoldState,
    /// Pooled per-chunk kernel scratch arenas: warmed by the first fold, then
    /// reused so the steady state allocates nothing per element.
    scratch: ScratchPool,
}

impl RunningFold {
    /// Seeds the fold with its first vector.
    pub fn new(v: &EncryptedVector) -> Self {
        let public = v.public_key().clone();
        let state = match public.mont_n2() {
            Some(ctx) => FoldState::Mont(
                v.elements()
                    .iter()
                    .map(|c| ctx.montgomery_residue(c.raw()))
                    .collect(),
            ),
            None => FoldState::Plain(v.elements().iter().map(|c| c.raw().clone()).collect()),
        };
        RunningFold {
            public,
            folded: 1,
            state,
            scratch: ScratchPool::new(),
        }
    }

    /// Seeds the fold straight from a borrowed frame view — the zero-copy
    /// twin of [`new`](Self::new), bit-identical to decoding the vector and
    /// seeding from it.
    pub fn from_view(v: &codec::EncryptedVectorView<'_>) -> Self {
        let public = v.public_key().clone();
        let state = match public.mont_n2() {
            Some(ctx) => FoldState::Mont(
                (0..v.len())
                    .map(|i| {
                        ctx.operand_from_be_bytes(v.residue_bytes(i))
                            .expect("view residues are validated below n²")
                    })
                    .collect(),
            ),
            None => FoldState::Plain(
                (0..v.len())
                    .map(|i| BigUint::from_bytes_be(v.residue_bytes(i)))
                    .collect(),
            ),
        };
        RunningFold {
            public,
            folded: 1,
            state,
            scratch: ScratchPool::new(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        match &self.state {
            FoldState::Mont(e) => e.len(),
            FoldState::Plain(e) => e.len(),
        }
    }

    /// `true` if the fold has no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many vectors have been folded in so far.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// The key every folded vector was encrypted under.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Folds one more vector into the running sum. Shape and key mismatches
    /// are typed errors, exactly like [`EncryptedVector::add`].
    pub fn fold(&mut self, v: &EncryptedVector) -> Result<(), HeError> {
        if v.len() != self.len() {
            return Err(HeError::LengthMismatch {
                left: self.len(),
                right: v.len(),
            });
        }
        if !v.public_key().same_key(&self.public) {
            return Err(HeError::KeyMismatch);
        }
        let public = &self.public;
        match &mut self.state {
            FoldState::Mont(elems) => {
                // In-place Montgomery multiply through the pooled arenas: the
                // steady-state fold touches the heap zero times per element
                // (pinned by tests/alloc_counting.rs).
                let ctx = public.mont_n2().expect("Mont state implies a context");
                let arriving = v.elements();
                let (pool, work) = (&self.scratch, Work::new(1, public.n_squared()));
                for_each_chunk_with_scratch(elems, pool, work, |offset, block, scratch| {
                    for (j, acc) in block.iter_mut().enumerate() {
                        ctx.montgomery_mul_residue_assign(acc, arriving[offset + j].raw(), scratch);
                    }
                });
            }
            FoldState::Plain(elems) => {
                let n_squared = public.n_squared();
                let next = map_indexed(elems.len(), Work::new(2, n_squared), |i| {
                    (&elems[i] * v.elements()[i].raw()) % n_squared
                });
                *elems = next;
            }
        }
        self.folded += 1;
        Ok(())
    }

    /// Folds a borrowed frame view into the running sum without ever
    /// materialising its ciphertexts: each residue is staged from its
    /// big-endian frame bytes directly into the Montgomery kernel
    /// ([`MontgomeryContext::montgomery_mul_be_assign`]), so the steady
    /// state touches the heap zero times per element. Bit-identical to
    /// [`fold`](Self::fold) of the materialised vector; shape and key
    /// mismatches are the same typed errors.
    pub fn fold_view(&mut self, v: &codec::EncryptedVectorView<'_>) -> Result<(), HeError> {
        if v.len() != self.len() {
            return Err(HeError::LengthMismatch {
                left: self.len(),
                right: v.len(),
            });
        }
        if !v.public_key().same_key(&self.public) {
            return Err(HeError::KeyMismatch);
        }
        let public = &self.public;
        match &mut self.state {
            FoldState::Mont(elems) => {
                let ctx = public.mont_n2().expect("Mont state implies a context");
                let (pool, work) = (&self.scratch, Work::new(1, public.n_squared()));
                for_each_chunk_with_scratch(elems, pool, work, |offset, block, scratch| {
                    for (j, acc) in block.iter_mut().enumerate() {
                        // The view validated every residue below n² at decode
                        // time, so the staging multiply cannot refuse.
                        let ok =
                            ctx.montgomery_mul_be_assign(acc, v.residue_bytes(offset + j), scratch);
                        debug_assert!(ok, "view residues are validated below n²");
                    }
                });
            }
            FoldState::Plain(elems) => {
                let n_squared = public.n_squared();
                let next = map_indexed(elems.len(), Work::new(2, n_squared), |i| {
                    (&elems[i] * &BigUint::from_bytes_be(v.residue_bytes(i))) % n_squared
                });
                *elems = next;
            }
        }
        self.folded += 1;
        Ok(())
    }

    /// The running total as an ordinary encrypted vector: converts every
    /// position out of the Montgomery domain (one correction multiply + one
    /// exit multiply each). Non-destructive — the fold can keep advancing.
    pub fn total(&self) -> EncryptedVector {
        let elements = match &self.state {
            FoldState::Mont(elems) => {
                let ctx = self.public.mont_n2().expect("Mont state implies a context");
                // `folded` vectors went through `folded - 1` in-domain
                // multiplies (deficit R^-(folded-1)); multiplying by
                // R^(folded+1) and exiting lands exactly on the product.
                let correction = ctx.montgomery_residue(&ctx.r_power(self.folded + 1));
                let exit = Work::new(2, self.public.n_squared());
                map_indexed(elems.len(), exit, |i| {
                    let value = ctx.from_montgomery(&ctx.montgomery_mul(&elems[i], &correction));
                    Ciphertext::from_raw(value, self.public.clone())
                })
            }
            FoldState::Plain(elems) => elems
                .iter()
                .map(|e| Ciphertext::from_raw(e.clone(), self.public.clone()))
                .collect(),
        };
        EncryptedVector::from_raw_parts(elements, self.public.clone())
    }

    /// Serializes the fold's **in-domain** state for crash recovery:
    ///
    /// ```text
    /// snapshot := u8 kind (0 = Mont, 1 = Plain)
    ///           | u64 folded
    ///           | public key
    ///           | u32 count | count × residue (ciphertext width)
    /// ```
    ///
    /// Montgomery accumulators are dumped as their raw residues (no domain
    /// exit), so [`restore`](Self::restore) rebuilds them limb-for-limb and a
    /// resumed fold is bit-identical to one that never stopped — pinned by
    /// the property tests across lengths and interruption points.
    pub fn snapshot(&self) -> Result<Vec<u8>, HeError> {
        let width = ciphertext_size_bytes(&self.public);
        let mut out = Vec::new();
        let (kind, residues): (u8, Vec<BigUint>) = match &self.state {
            FoldState::Mont(elems) => (0, elems.iter().map(|op| op.raw_residue()).collect()),
            FoldState::Plain(elems) => (1, elems.clone()),
        };
        out.push(kind);
        codec::put_u64(&mut out, self.folded);
        codec::encode_public_key(&self.public, &mut out);
        codec::put_u32(&mut out, residues.len() as u32);
        for r in &residues {
            codec::put_biguint_fixed(&mut out, r, width)?;
        }
        Ok(out)
    }

    /// Rebuilds a fold from a [`snapshot`](Self::snapshot). Decoding is
    /// defensive: truncation, overrunning counts, a zero fold count, residues
    /// `≥ n²`, and a kind byte that contradicts the restored key's Montgomery
    /// capability are all typed errors.
    pub fn restore(bytes: &[u8]) -> Result<Self, HeError> {
        let cur = &mut &bytes[..];
        let kind = *codec::take_bytes(cur, 1)?.first().expect("one byte taken");
        let folded = codec::take_u64(cur)?;
        if folded == 0 {
            return Err(HeError::MalformedEncoding {
                detail: "fold snapshot claims zero folded vectors",
            });
        }
        let public = codec::decode_public_key(cur)?;
        let count = codec::take_u32(cur)? as usize;
        let width = ciphertext_size_bytes(&public);
        if count
            .checked_mul(width)
            .is_none_or(|total| total > cur.len())
        {
            return Err(HeError::MalformedEncoding {
                detail: "fold snapshot residue count overruns the payload",
            });
        }
        let mut residues = Vec::with_capacity(count);
        for _ in 0..count {
            let value = BigUint::from_bytes_be(codec::take_bytes(cur, width)?);
            if &value >= public.n_squared() {
                return Err(HeError::MalformedEncoding {
                    detail: "fold snapshot residue is not below n²",
                });
            }
            residues.push(value);
        }
        let state = match (kind, public.mont_n2()) {
            (0, Some(ctx)) => {
                FoldState::Mont(residues.iter().map(|r| ctx.montgomery_residue(r)).collect())
            }
            (1, None) => FoldState::Plain(residues),
            (0, None) | (1, Some(_)) => {
                return Err(HeError::MalformedEncoding {
                    detail: "fold snapshot kind contradicts the key's Montgomery capability",
                })
            }
            _ => {
                return Err(HeError::MalformedEncoding {
                    detail: "unknown fold snapshot kind",
                })
            }
        };
        Ok(RunningFold {
            public,
            folded,
            state,
            scratch: ScratchPool::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use crate::vector::sum_vectors_serial;
    use rand::SeedableRng;

    fn vectors(count: usize, len: usize) -> (Keypair, Vec<EncryptedVector>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF01D);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let vs = (0..count)
            .map(|i| {
                let v: Vec<u64> = (0..len).map(|j| ((i * 7 + j) % 5) as u64).collect();
                EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
            })
            .collect();
        (kp, vs)
    }

    #[test]
    fn running_fold_is_bit_identical_to_the_serial_fold() {
        for (count, len) in [(1usize, 9usize), (2, 3), (7, 13), (12, 56)] {
            let (_kp, vs) = vectors(count, len);
            let mut fold = RunningFold::new(&vs[0]);
            for v in &vs[1..] {
                fold.fold(v).unwrap();
            }
            assert_eq!(fold.folded(), count as u64);
            let total = fold.total();
            let serial = sum_vectors_serial(&vs).unwrap().unwrap();
            for (i, (a, b)) in total.elements().iter().zip(serial.elements()).enumerate() {
                assert_eq!(a.raw(), b.raw(), "count {count} len {len} position {i}");
            }
        }
    }

    #[test]
    fn view_folds_are_bit_identical_to_owned_folds() {
        for (count, len) in [(1usize, 5usize), (3, 9), (9, 56)] {
            let (_kp, vs) = vectors(count, len);
            let frames: Vec<Vec<u8>> = vs
                .iter()
                .map(|v| {
                    let mut buf = Vec::new();
                    codec::encode_vector(v, &mut buf).unwrap();
                    buf
                })
                .collect();
            let mut owned = RunningFold::new(&vs[0]);
            let mut viewed =
                RunningFold::from_view(&codec::decode_vector_view(&mut &frames[0][..]).unwrap());
            for (v, frame) in vs[1..].iter().zip(&frames[1..]) {
                owned.fold(v).unwrap();
                let view = codec::decode_vector_view(&mut &frame[..]).unwrap();
                viewed.fold_view(&view).unwrap();
            }
            assert_eq!(viewed.folded(), owned.folded());
            let (a, b) = (viewed.total(), owned.total());
            for (i, (x, y)) in a.elements().iter().zip(b.elements()).enumerate() {
                assert_eq!(x.raw(), y.raw(), "count {count} len {len} position {i}");
            }
        }
    }

    #[test]
    fn view_fold_mismatches_are_the_same_typed_errors() {
        let (_kp, vs) = vectors(2, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let other = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let mut fold = RunningFold::new(&vs[0]);

        let mut buf = Vec::new();
        let short = EncryptedVector::encrypt_u64(&other.public, &[1, 2, 3], &mut rng);
        codec::encode_vector(&short, &mut buf).unwrap();
        let view = codec::decode_vector_view(&mut &buf[..]).unwrap();
        assert_eq!(
            fold.fold_view(&view).unwrap_err(),
            HeError::LengthMismatch { left: 4, right: 3 }
        );

        let mut buf = Vec::new();
        let foreign = EncryptedVector::encrypt_u64(&other.public, &[1, 2, 3, 4], &mut rng);
        codec::encode_vector(&foreign, &mut buf).unwrap();
        let view = codec::decode_vector_view(&mut &buf[..]).unwrap();
        assert_eq!(fold.fold_view(&view).unwrap_err(), HeError::KeyMismatch);
        assert_eq!(fold.folded(), 1);
    }

    #[test]
    fn total_is_readable_mid_fold() {
        let (kp, vs) = vectors(5, 4);
        let mut fold = RunningFold::new(&vs[0]);
        fold.fold(&vs[1]).unwrap();
        let partial = fold.total();
        let expected = sum_vectors_serial(&vs[..2]).unwrap().unwrap();
        assert_eq!(partial, expected);
        // Reading the total must not perturb further folding.
        for v in &vs[2..] {
            fold.fold(v).unwrap();
        }
        assert_eq!(fold.total(), sum_vectors_serial(&vs).unwrap().unwrap());
        let _ = kp;
    }

    #[test]
    fn snapshot_restore_resumes_bit_identical_to_an_uninterrupted_fold() {
        let (_kp, vs) = vectors(6, 5);
        let mut uninterrupted = RunningFold::new(&vs[0]);
        for v in &vs[1..] {
            uninterrupted.fold(v).unwrap();
        }
        for cut in 1..vs.len() {
            let mut fold = RunningFold::new(&vs[0]);
            for v in &vs[1..cut] {
                fold.fold(v).unwrap();
            }
            let snap = fold.snapshot().unwrap();
            drop(fold); // the "crash"
            let mut resumed = RunningFold::restore(&snap).unwrap();
            assert_eq!(resumed.folded(), cut as u64);
            for v in &vs[cut..] {
                resumed.fold(v).unwrap();
            }
            let total = resumed.total();
            for (i, (a, b)) in total
                .elements()
                .iter()
                .zip(uninterrupted.total().elements())
                .enumerate()
            {
                assert_eq!(a.raw(), b.raw(), "cut {cut} position {i}");
            }
        }
    }

    #[test]
    fn corrupt_snapshots_are_typed_errors() {
        let (_kp, vs) = vectors(2, 3);
        let mut fold = RunningFold::new(&vs[0]);
        fold.fold(&vs[1]).unwrap();
        let snap = fold.snapshot().unwrap();

        for cut in [0, 1, 8, snap.len() / 2, snap.len() - 1] {
            let err = RunningFold::restore(&snap[..cut]).unwrap_err();
            assert!(
                matches!(err, HeError::MalformedEncoding { .. }),
                "cut {cut}: {err}"
            );
        }

        // Unknown kind byte.
        let mut bad = snap.clone();
        bad[0] = 9;
        assert!(RunningFold::restore(&bad).is_err());

        // A zero fold count is never produced and never accepted.
        let mut bad = snap.clone();
        bad[1..9].copy_from_slice(&0u64.to_be_bytes());
        assert!(RunningFold::restore(&bad).is_err());

        // An all-0xFF residue is ≥ n² at the fixed width.
        let mut bad = snap.clone();
        let tail = bad.len();
        bad[tail - 4..].fill(0xFF);
        let width = ciphertext_size_bytes(vs[0].public_key());
        bad[tail - width..].fill(0xFF);
        assert!(RunningFold::restore(&bad).is_err());
    }

    #[test]
    fn shape_and_key_mismatches_are_typed_errors() {
        let (_kp, vs) = vectors(2, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let other = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let short = EncryptedVector::encrypt_u64(&other.public, &[1, 2, 3], &mut rng);
        let mut fold = RunningFold::new(&vs[0]);
        assert_eq!(
            fold.fold(&short).unwrap_err(),
            HeError::LengthMismatch { left: 4, right: 3 }
        );
        let foreign = EncryptedVector::encrypt_u64(&other.public, &[1, 2, 3, 4], &mut rng);
        assert_eq!(fold.fold(&foreign).unwrap_err(), HeError::KeyMismatch);
        // Failed folds must not advance the count.
        assert_eq!(fold.folded(), 1);
    }
}
