//! Element-wise encrypted integer vectors.
//!
//! The two encrypted objects exchanged in Dubhe are vectors:
//!
//! * the **registry** `R^(t,k)` — a one-hot vector of length
//!   `l = Σ_{i∈G} C-choose-i` filled in by each client during registration, and
//! * the **scaled label distribution** `p_l` sent by tentatively selected
//!   clients during multi-time selection.
//!
//! Both are encrypted element-by-element under the epoch public key; the server
//! adds the vectors of all clients without decrypting anything.
//!
//! ## Hot path
//!
//! Vector encryption goes through the [`PrecomputedEncryptor`] by default: one
//! shared fixed-base table per key, short-exponent randomness per element
//! (see [`crate::fast`]). With the `parallel` feature (default-on) the
//! per-element work of `encrypt`, `decrypt`, `add` and [`sum_vectors`]
//! additionally fans out over all cores **when there is enough of it**: each
//! call site states its cost as a `Work` estimate (elements × multiplies
//! per element × limbs² of the modulus) and anything under
//! `FAN_OUT_WORK` runs inline on the calling thread — a 10 × 256-bit
//! registry fold is a microsecond of arithmetic and must not pay a
//! cross-thread hand-off, a 56 × 1024-bit one or any encryption does fan
//! out. Every fast/parallel path is bit-for-bit equivalent to the serial
//! naive one, which the property tests assert.

use std::sync::{Arc, Mutex};

use num_bigint::{BigUint, MontgomeryScratch};
use num_traits::Zero;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ciphertext::Ciphertext;
use crate::error::HeError;
use crate::fast::{sample_exponents, Encryptor, PrecomputedEncryptor};
use crate::keys::{PrivateKey, PublicKey};

/// Work, in 64-bit limb multiply-accumulates, a vector operation must reach
/// before it fans out over cores; below it the operation runs inline.
///
/// Set from two rungs of the benchmark ladder: `bigint.mont_mul_ns` puts one
/// limb multiply-accumulate of the Montgomery kernel at ≈ 2 ns (129 ns per
/// 8-limb multiply at 256-bit keys), and handing a job to the parked pool and
/// collecting it again breaks even with running it inline at 40–80 µs of
/// arithmetic on the two-core reference host. 2¹⁵ ≈ 65 µs sits in that
/// band: a 56-position fold at 1024-bit keys (57 344) fans out, a
/// 14-position shard slice of it (14 336) or any 256-bit registry does not.
const FAN_OUT_WORK: u64 = 1 << 15;

/// What one vector operation costs: modular multiplications per element,
/// and the modulus they run under. The call sites know both; the element
/// count is supplied where the decision is made.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Work {
    /// Limb multiply-accumulates per element: multiplies × limbs².
    per_element: u64,
}

impl Work {
    /// `muls_per_element` modular multiplications (or operations of the
    /// same order: a reduction, a domain conversion) under `modulus`.
    pub(crate) fn new(muls_per_element: u64, modulus: &BigUint) -> Self {
        let limbs = modulus.bits().div_ceil(64);
        Work {
            per_element: muls_per_element.saturating_mul(limbs * limbs),
        }
    }

    /// Whether `elements` of these are worth a cross-thread hand-off. Never
    /// without the `parallel` feature.
    fn fans_out(self, elements: usize) -> bool {
        cfg!(feature = "parallel")
            && self.per_element.saturating_mul(elements as u64) >= FAN_OUT_WORK
    }
}

/// Number of chunks (and pooled scratch arenas) a fold splits its
/// accumulator slice into. Fixed — not a function of the element count — so
/// the bookkeeping a steady-state fold allocates is O(1) in the vector
/// length, which the counting-allocator test pins.
pub(crate) const FOLD_CHUNKS: usize = 8;

/// A fixed pool of kernel scratch arenas, one per fold chunk. The arenas warm
/// up on first use and are reused for every subsequent multiplication, which
/// is what takes the steady-state fold to zero heap allocations per element.
///
/// The lanes sit behind uncontended `Mutex`es purely so disjoint parallel
/// chunks can each borrow their own arena mutably through a shared pool
/// reference; locks are taken once per chunk, not per element.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    lanes: Vec<Mutex<MontgomeryScratch>>,
}

impl ScratchPool {
    pub(crate) fn new() -> Self {
        ScratchPool {
            lanes: (0..FOLD_CHUNKS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl Clone for ScratchPool {
    /// Cloning yields a fresh (cold) pool: scratch contents are meaningless
    /// between operations, only the warmed capacity would carry over.
    fn clone(&self) -> Self {
        ScratchPool::new()
    }
}

/// Runs `f` over contiguous chunks of `items` (at most [`FOLD_CHUNKS`] of
/// them), each chunk with exclusive use of one pooled scratch arena; chunks
/// run in parallel when `work` says the slice carries enough arithmetic,
/// inline through lane 0 otherwise. `f` receives the chunk's element offset,
/// the chunk itself and its arena.
pub(crate) fn for_each_chunk_with_scratch<T, F>(
    items: &mut [T],
    pool: &ScratchPool,
    work: Work,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut MontgomeryScratch) + Sync,
{
    if items.is_empty() {
        return;
    }
    let chunk = items.len().div_ceil(FOLD_CHUNKS).max(1);
    if work.fans_out(items.len()) {
        #[cfg(feature = "parallel")]
        {
            use rayon::prelude::*;
            items
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(ci, block)| {
                    let mut scratch = pool.lanes[ci].lock().expect("scratch lane poisoned");
                    f(ci * chunk, block, &mut scratch);
                });
            return;
        }
    }
    let mut scratch = pool.lanes[0].lock().expect("scratch lane poisoned");
    for (ci, block) in items.chunks_mut(chunk).enumerate() {
        f(ci * chunk, block, &mut scratch);
    }
}

/// Runs `f` over every index in `0..len`, in parallel when `work` says the
/// elements carry enough arithmetic. Results keep input order.
pub(crate) fn map_indexed<T, F>(len: usize, work: Work, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if work.fans_out(len) {
        #[cfg(feature = "parallel")]
        {
            use rayon::prelude::*;
            return (0..len).into_par_iter().map(f).collect();
        }
    }
    (0..len).map(f).collect()
}

/// A vector of Paillier ciphertexts sharing one public key.
///
/// The key is stored once as a shared handle; elements alias it rather than
/// owning per-element copies (see [`PublicKey`]). The ciphertexts themselves
/// sit in shared storage and are never mutated after construction, so a
/// clone is a reference-count bump — a coordinator addressing one total to
/// a thousand clients hands out a thousand handles, not a thousand copies —
/// and [`shares_storage`](Self::shares_storage) lets an encoder notice that
/// two handles are the same vector without comparing a residue.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptedVector {
    elements: Arc<[Ciphertext]>,
    public: PublicKey,
}

impl EncryptedVector {
    /// Assembles a vector from decoded parts (the canonical codec's
    /// deserialisation path). Callers must ensure every element was produced
    /// under `public`.
    pub(crate) fn from_raw_parts(elements: Vec<Ciphertext>, public: PublicKey) -> Self {
        EncryptedVector {
            elements: elements.into(),
            public,
        }
    }

    /// `true` when `self` and `other` are handles on the same stored
    /// ciphertexts under the same key (one is a clone of the other), which
    /// makes them equal element for element. Separately built vectors
    /// answer `false` even when their contents happen to be equal.
    pub fn shares_storage(&self, other: &EncryptedVector) -> bool {
        Arc::ptr_eq(&self.elements, &other.elements) && self.public.same_key(&other.public)
    }

    /// Assembles a vector from ciphertexts that were produced individually
    /// (e.g. synthetic residues in benchmarks, or ciphertexts collected from
    /// several single-value encryptions). Every element must have been
    /// produced under `public`; a stray key is [`HeError::KeyMismatch`].
    pub fn from_ciphertexts(
        public: &PublicKey,
        elements: Vec<Ciphertext>,
    ) -> Result<Self, HeError> {
        for ct in &elements {
            if !ct.public_key().same_key(public) {
                return Err(HeError::KeyMismatch);
            }
        }
        Ok(Self::from_raw_parts(elements, public.clone()))
    }

    /// Encrypts a slice of `u64` values element-by-element.
    ///
    /// Uses the key's shared [`PrecomputedEncryptor`] fast path (building the
    /// fixed-base table on the key's first vector encryption) and fans the
    /// per-element work out over cores under the `parallel` feature.
    pub fn encrypt_u64<R: Rng + ?Sized>(public: &PublicKey, values: &[u64], rng: &mut R) -> Self {
        let encryptor = PrecomputedEncryptor::new(public, rng);
        Self::encrypt_u64_with(&encryptor, values, rng)
    }

    /// Encrypts a slice of `u64` values with an explicit fast encryptor —
    /// any [`Encryptor`]: the public-key-only [`PrecomputedEncryptor`], or
    /// the [`CrtEncryptor`](crate::CrtEncryptor) /
    /// [`EpochEncryptor`](crate::EpochEncryptor) when the keypair is in
    /// hand. All produce bit-identical vectors from the same randomness.
    ///
    /// # Panics
    /// Panics if a value does not fit in the message space — only possible
    /// at the 64-bit minimum key size, and the same contract as the naive
    /// [`PublicKey::encrypt_u64`] path.
    pub fn encrypt_u64_with<E, R>(encryptor: &E, values: &[u64], rng: &mut R) -> Self
    where
        E: Encryptor + ?Sized,
        R: Rng + ?Sized,
    {
        let public = encryptor.public_key().clone();
        // n >= 2^64 makes every u64 a valid plaintext; only smaller moduli
        // need the explicit range check.
        if public.bits() <= 64 {
            for &v in values {
                assert!(
                    &BigUint::from(v) < public.n(),
                    "plaintext {v} exceeds the {}-bit Paillier message space",
                    public.bits()
                );
            }
        }
        // RNG draws are sequential (cheap); the randomness components are
        // the heavy part and go through the batch multi-exponentiation
        // evaluator in one call (which parallelises internally).
        let exponents = sample_exponents(values.len(), rng);
        let randomizers = encryptor.randomizers_for(&exponents);
        // At most one product and one reduction per element, under n².
        let combine = Work::new(2, public.n_squared());
        let elements = map_indexed(values.len(), combine, |i| {
            // g⁰ = 1 and the randomizer is already reduced below n², so the
            // zero elements that dominate one-hot registries skip the
            // full-width multiply-and-divide entirely.
            let value = if values[i] == 0 {
                randomizers[i].clone()
            } else {
                let g_to_m = public.g_to_m(&BigUint::from(values[i]));
                (g_to_m * &randomizers[i]) % public.n_squared()
            };
            Ciphertext::from_raw(value, public.clone())
        });
        Self::from_raw_parts(elements, public)
    }

    /// Encrypts a slice of `u64` values with per-element textbook `rⁿ`
    /// randomness — the reference path the benches compare the fast path
    /// against. Semantically identical to [`encrypt_u64`], just slower.
    ///
    /// [`encrypt_u64`]: EncryptedVector::encrypt_u64
    pub fn encrypt_u64_naive<R: Rng + ?Sized>(
        public: &PublicKey,
        values: &[u64],
        rng: &mut R,
    ) -> Self {
        let elements = values.iter().map(|&v| public.encrypt_u64(v, rng)).collect();
        Self::from_raw_parts(elements, public.clone())
    }

    /// Encrypts a slice of arbitrary-precision values (fast path).
    pub fn encrypt<R: Rng + ?Sized>(
        public: &PublicKey,
        values: &[BigUint],
        rng: &mut R,
    ) -> Result<Self, HeError> {
        let encryptor = PrecomputedEncryptor::new(public, rng);
        Self::encrypt_with(&encryptor, values, rng)
    }

    /// Encrypts a slice of arbitrary-precision values with an explicit fast
    /// encryptor — any [`Encryptor`], so packed multi-slot plaintexts get the
    /// same CRT-split tier as `u64` registries when the keypair is in hand.
    /// Values at or above the modulus are [`HeError::PlaintextTooLarge`].
    pub fn encrypt_with<E, R>(
        encryptor: &E,
        values: &[BigUint],
        rng: &mut R,
    ) -> Result<Self, HeError>
    where
        E: Encryptor + ?Sized,
        R: Rng + ?Sized,
    {
        let public = encryptor.public_key().clone();
        for v in values {
            if v >= public.n() {
                return Err(HeError::PlaintextTooLarge);
            }
        }
        let exponents = sample_exponents(values.len(), rng);
        let randomizers = encryptor.randomizers_for(&exponents);
        let combine = Work::new(2, public.n_squared());
        let elements = map_indexed(values.len(), combine, |i| {
            // Same zero shortcut as the `u64` path: g⁰ = 1 makes the
            // randomizer the finished ciphertext.
            let value = if values[i].is_zero() {
                randomizers[i].clone()
            } else {
                let g_to_m = public.g_to_m(&values[i]);
                (g_to_m * &randomizers[i]) % public.n_squared()
            };
            Ciphertext::from_raw(value, public.clone())
        });
        Ok(Self::from_raw_parts(elements, public))
    }

    /// An all-zero encrypted vector of the given length (identity for sums).
    pub fn zeros(public: &PublicKey, len: usize) -> Self {
        let elements = (0..len).map(|_| public.zero_ciphertext()).collect();
        Self::from_raw_parts(elements, public.clone())
    }

    /// Number of encrypted elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The public key the vector was encrypted under.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Access to the individual ciphertexts (e.g. for transport accounting).
    pub fn elements(&self) -> &[Ciphertext] {
        &self.elements
    }

    /// Element-wise homomorphic addition.
    pub fn add(&self, other: &EncryptedVector) -> Result<EncryptedVector, HeError> {
        if self.len() != other.len() {
            return Err(HeError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        if !self.public.same_key(&other.public) {
            return Err(HeError::KeyMismatch);
        }
        let n_squared = self.public.n_squared();
        let elements = map_indexed(self.len(), Work::new(2, n_squared), |i| {
            let value = (self.elements[i].raw() * other.elements[i].raw()) % n_squared;
            Ciphertext::from_raw(value, self.public.clone())
        });
        Ok(Self::from_raw_parts(elements, self.public.clone()))
    }

    /// Element-wise plaintext-scalar multiplication.
    pub fn mul_plain_u64(&self, k: u64) -> EncryptedVector {
        let k = BigUint::from(k);
        // Square-and-multiply over the bits of `k`: about 1.5 multiplies a bit.
        let work = Work::new(2 * k.bits().max(1), self.public.n_squared());
        let elements = map_indexed(self.len(), work, |i| self.elements[i].mul_plain(&k));
        Self::from_raw_parts(elements, self.public.clone())
    }

    /// Decrypts every element to a `u64`.
    ///
    /// The private key first decrypts a secret random-weight combination of
    /// the vector, which bounds the values' sum; then it repacks the vector
    /// homomorphically, under its own key, into ciphertexts with slots just
    /// wide enough for that sum, decrypts those and checks the unpacking
    /// against the first decryption. That is one CRT decryption plus one
    /// per group instead of one per element: 2 instead of 56 for the
    /// paper's registry at 1024 bits, 3 instead of 52 for a 52-class sum of
    /// twenty 10⁶-scaled distributions. See
    /// `PrivateKey::decrypt_u64_batch`. Vectors shorter than three take one
    /// decryption per element.
    ///
    /// Returns [`HeError::PlaintextTooWide`] for the first element that
    /// does not fit in a `u64` — e.g. a sum whose counters overflowed the
    /// word, or a ciphertext that was never a small-integer encryption —
    /// and [`HeError::CiphertextNotInvertible`] for one that shares a factor
    /// with the modulus. A hostile or corrupted vector therefore surfaces as
    /// a typed error, never a panic.
    pub fn decrypt_u64(&self, private: &PrivateKey) -> Result<Vec<u64>, HeError> {
        private.decrypt_u64_batch(&self.elements)
    }

    /// Decrypts every element to an arbitrary-precision integer, one CRT
    /// decryption per element; an element that shares a factor with the
    /// modulus is [`HeError::CiphertextNotInvertible`].
    pub fn decrypt(&self, private: &PrivateKey) -> Result<Vec<BigUint>, HeError> {
        private.decrypt_batch(&self.elements)
    }

    /// Total serialized size of the ciphertexts in bytes (overhead accounting).
    pub fn byte_len(&self) -> usize {
        self.elements.iter().map(Ciphertext::byte_len).sum()
    }

    /// The sub-vector of positions `start..end` (ciphertexts are cheap to
    /// clone: they alias the shared key handle).
    ///
    /// A sharded coordinator partitions registry positions across server
    /// instances with this: shard `i` folds only its slice of every arriving
    /// vector, and [`concat`](Self::concat) reassembles the full sum.
    ///
    /// Returns [`HeError::SliceOutOfRange`] when the range does not fit.
    pub fn slice(&self, start: usize, end: usize) -> Result<EncryptedVector, HeError> {
        if start > end || end > self.len() {
            return Err(HeError::SliceOutOfRange {
                start,
                end,
                len: self.len(),
            });
        }
        Ok(EncryptedVector {
            elements: self.elements[start..end].into(),
            public: self.public.clone(),
        })
    }

    /// Concatenates per-shard sub-vectors back into one vector. The inverse
    /// of [`slice`](Self::slice) over a partition of `0..len`.
    ///
    /// Returns `None` for an empty part list (no key to attach), and
    /// [`HeError::KeyMismatch`] if the parts disagree on the key.
    pub fn concat(parts: &[EncryptedVector]) -> Result<Option<EncryptedVector>, HeError> {
        let Some(first) = parts.first() else {
            return Ok(None);
        };
        let mut elements = Vec::with_capacity(parts.iter().map(EncryptedVector::len).sum());
        for part in parts {
            if !part.public.same_key(&first.public) {
                return Err(HeError::KeyMismatch);
            }
            elements.extend_from_slice(&part.elements);
        }
        Ok(Some(Self::from_raw_parts(elements, first.public.clone())))
    }
}

impl Serialize for EncryptedVector {
    fn to_value(&self) -> Value {
        // The shared-handle story extends to the wire: the key is emitted
        // once for the whole vector, never per element.
        Value::Object(vec![
            ("public".to_string(), self.public.to_value()),
            (
                "elements".to_string(),
                Value::Array(self.elements.iter().map(|c| c.raw().to_value()).collect()),
            ),
        ])
    }
}

impl Deserialize for EncryptedVector {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let public = PublicKey::from_value(serde::get_field(v, "public")?)?;
        let raw: Vec<BigUint> = Vec::from_value(serde::get_field(v, "elements")?)?;
        let elements = raw
            .into_iter()
            .map(|value| Ciphertext::from_raw(value, public.clone()))
            .collect();
        Ok(Self::from_raw_parts(elements, public))
    }
}

/// Homomorphically sums a collection of encrypted vectors, fanning the
/// independent per-position folds out over cores when `parallel` is enabled.
///
/// The per-position product runs in the Montgomery domain of the key's
/// cached `n²` context: each residue costs one Montgomery multiplication
/// instead of a full multiply plus a Knuth division, and the accumulated `R⁻¹`
/// deficit is cancelled by a single correction multiply per position (see
/// [`num_bigint::MontgomeryContext::montgomery_residue`]). The result is
/// bit-for-bit identical to [`sum_vectors_serial`] — a modular product does
/// not depend on the reduction route — which the property tests pin.
///
/// Returns `None` for an empty collection (there is no well-defined length).
pub fn sum_vectors(vectors: &[EncryptedVector]) -> Result<Option<EncryptedVector>, HeError> {
    let Some(first) = vectors.first() else {
        return Ok(None);
    };
    for v in &vectors[1..] {
        if v.len() != first.len() {
            return Err(HeError::LengthMismatch {
                left: first.len(),
                right: v.len(),
            });
        }
        if !v.public.same_key(&first.public) {
            return Err(HeError::KeyMismatch);
        }
    }
    let public = first.public.clone();
    let Some(ctx) = public.mont_n2() else {
        // A key with an even modulus (only possible for forged or corrupted
        // key material) has no Montgomery context; the serial reference
        // fold handles that case with plain reductions.
        return sum_vectors_serial(vectors);
    };
    // Folding V raw residues takes V − 1 in-domain multiplies (deficit
    // R^-(V-1)); multiplying by R^(V+1) and exiting restores the product.
    let correction = ctx.montgomery_residue(&ctx.r_power(vectors.len() as u64 + 1));
    // One accumulator per position, advanced in place through a pooled
    // scratch arena: allocations are O(positions) for the seeds and the
    // final exit, never O(positions × vectors).
    let pool = ScratchPool::new();
    let seed = Work::new(1, public.n_squared());
    let mut accs = map_indexed(first.len(), seed, |i| {
        ctx.montgomery_residue(first.elements[i].raw())
    });
    // One multiply per further vector plus the correction, per position.
    let fold = Work::new(vectors.len() as u64, public.n_squared());
    for_each_chunk_with_scratch(&mut accs, &pool, fold, |offset, block, scratch| {
        // Vector-major: one sequential pass over the inputs per chunk, so
        // the walk follows the heap layout of the vectors' limbs instead of
        // striding one position across every vector — the block's
        // accumulators stay resident while each input line is touched once.
        // The multiply sequence per accumulator is unchanged, so totals
        // stay bit-identical to the serial reference.
        for v in &vectors[1..] {
            for (j, acc) in block.iter_mut().enumerate() {
                ctx.montgomery_mul_residue_assign(acc, v.elements[offset + j].raw(), scratch);
            }
        }
        for acc in block.iter_mut() {
            ctx.montgomery_mul_assign(acc, &correction, scratch);
        }
    });
    let elements = accs
        .iter()
        .map(|acc| Ciphertext::from_raw(ctx.from_montgomery(acc), public.clone()))
        .collect();
    Ok(Some(EncryptedVector::from_raw_parts(elements, public)))
}

/// Reference implementation of [`sum_vectors`]: a strictly sequential
/// left-to-right fold of [`EncryptedVector::add`]. Kept as the oracle the
/// property tests compare the parallel path against bit-for-bit.
pub fn sum_vectors_serial(vectors: &[EncryptedVector]) -> Result<Option<EncryptedVector>, HeError> {
    let mut iter = vectors.iter();
    let Some(first) = iter.next() else {
        return Ok(None);
    };
    let mut acc = first.clone();
    for v in iter {
        if v.len() != acc.len() {
            return Err(HeError::LengthMismatch {
                left: acc.len(),
                right: v.len(),
            });
        }
        if !v.public.same_key(&acc.public) {
            return Err(HeError::KeyMismatch);
        }
        let n_squared = acc.public.n_squared();
        let elements = acc
            .elements
            .iter()
            .zip(v.elements.iter())
            .map(|(a, b)| Ciphertext::from_raw((a.raw() * b.raw()) % n_squared, acc.public.clone()))
            .collect();
        acc = EncryptedVector::from_raw_parts(elements, acc.public.clone());
    }
    Ok(Some(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use rand::SeedableRng;

    fn setup() -> (PublicKey, PrivateKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let (pk, sk) = kp.split();
        (pk, sk, rng)
    }

    #[test]
    fn batch_randomizer_fan_out_is_decided_on_the_combs_work() {
        use crate::fast::{chunk_work, BATCH_CHUNK};
        // The CRT tier's two legs run under p², which is as wide as n. A
        // 1024-bit client fans out whether it encrypts a packed registry
        // (2 ciphertexts, one chunk) or an element-wise one (56); ten
        // ciphertexts at 256 bits are 25 µs of arithmetic and stay inline.
        for (key_bits, ciphertexts, expected) in
            [(1024u32, 2usize, true), (1024, 56, true), (256, 10, false)]
        {
            let p_squared = BigUint::from(1u32) << (key_bits - 1);
            let chunks = ciphertexts.div_ceil(BATCH_CHUNK);
            assert_eq!(
                chunk_work(2, &p_squared).fans_out(chunks),
                expected && cfg!(feature = "parallel"),
                "{ciphertexts} ciphertexts at {key_bits} bits"
            );
        }
    }

    #[test]
    fn vector_round_trip() {
        let (pk, sk, mut rng) = setup();
        let values = vec![0u64, 1, 2, 3, 4, 1000];
        let enc = EncryptedVector::encrypt_u64(&pk, &values, &mut rng);
        assert_eq!(enc.decrypt_u64(&sk).unwrap(), values);
        assert_eq!(enc.len(), 6);
        assert!(!enc.is_empty());
    }

    #[test]
    fn naive_and_fast_paths_decrypt_identically() {
        let (pk, sk, mut rng) = setup();
        let values = vec![7u64, 0, 13, 99, 1_000_000, 42, 5, 6, 7, 8];
        let fast = EncryptedVector::encrypt_u64(&pk, &values, &mut rng);
        let naive = EncryptedVector::encrypt_u64_naive(&pk, &values, &mut rng);
        assert_eq!(fast.decrypt_u64(&sk).unwrap(), values);
        assert_eq!(naive.decrypt_u64(&sk).unwrap(), values);
        // Different randomness, same plaintexts: homomorphically compatible.
        let doubled = fast.add(&naive).unwrap();
        let expected: Vec<u64> = values.iter().map(|v| v * 2).collect();
        assert_eq!(doubled.decrypt_u64(&sk).unwrap(), expected);
    }

    #[test]
    fn vector_addition_is_elementwise() {
        let (pk, sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        let b = EncryptedVector::encrypt_u64(&pk, &[10, 20, 30], &mut rng);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.decrypt_u64(&sk).unwrap(), vec![11, 22, 33]);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let (pk, _sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        let b = EncryptedVector::encrypt_u64(&pk, &[1, 2], &mut rng);
        assert_eq!(
            a.add(&b),
            Err(HeError::LengthMismatch { left: 3, right: 2 })
        );
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let (pk, _sk, mut rng) = setup();
        let kp2 = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let a = EncryptedVector::encrypt_u64(&pk, &[1], &mut rng);
        let b = EncryptedVector::encrypt_u64(&kp2.public, &[1], &mut rng);
        assert_eq!(a.add(&b), Err(HeError::KeyMismatch));
    }

    #[test]
    fn zeros_are_identity() {
        let (pk, sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[5, 6, 7], &mut rng);
        let z = EncryptedVector::zeros(&pk, 3);
        assert_eq!(a.add(&z).unwrap().decrypt_u64(&sk).unwrap(), vec![5, 6, 7]);
        assert_eq!(z.decrypt_u64(&sk).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn scalar_multiplication() {
        let (pk, sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        assert_eq!(a.mul_plain_u64(4).decrypt_u64(&sk).unwrap(), vec![4, 8, 12]);
    }

    #[test]
    fn sum_vectors_aggregates_all_clients() {
        let (pk, sk, mut rng) = setup();
        let regs: Vec<EncryptedVector> = (0..10)
            .map(|i| {
                let mut v = vec![0u64; 8];
                v[i % 8] = 1;
                EncryptedVector::encrypt_u64(&pk, &v, &mut rng)
            })
            .collect();
        let total = sum_vectors(&regs).unwrap().unwrap();
        assert_eq!(
            total.decrypt_u64(&sk).unwrap(),
            vec![2, 2, 1, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn parallel_and_serial_sums_agree_bit_for_bit() {
        let (pk, sk, mut rng) = setup();
        let regs: Vec<EncryptedVector> = (0..12)
            .map(|i| {
                let v: Vec<u64> = (0..20).map(|j| ((i * j) % 7) as u64).collect();
                EncryptedVector::encrypt_u64(&pk, &v, &mut rng)
            })
            .collect();
        let parallel = sum_vectors(&regs).unwrap().unwrap();
        let serial = sum_vectors_serial(&regs).unwrap().unwrap();
        for (p, s) in parallel.elements().iter().zip(serial.elements()) {
            assert_eq!(p.raw(), s.raw(), "parallel and serial sums diverged");
        }
        assert_eq!(
            parallel.decrypt_u64(&sk).unwrap(),
            serial.decrypt_u64(&sk).unwrap()
        );
    }

    #[test]
    fn sum_vectors_empty_is_none() {
        assert!(sum_vectors(&[]).unwrap().is_none());
        assert!(sum_vectors_serial(&[]).unwrap().is_none());
    }

    #[test]
    fn sum_vectors_rejects_mismatched_shapes() {
        let (pk, _sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1, 2], &mut rng);
        let b = EncryptedVector::encrypt_u64(&pk, &[1, 2, 3], &mut rng);
        assert!(sum_vectors(&[a, b]).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn fast_path_rejects_oversized_u64_at_minimum_key_size() {
        // At the 64-bit minimum key size, n < 2^64, so u64::MAX overflows the
        // message space; the fast path must refuse (like the naive path does)
        // instead of silently encrypting u64::MAX mod n.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let kp = Keypair::generate(64, &mut rng);
        let _ = EncryptedVector::encrypt_u64(&kp.public, &[u64::MAX], &mut rng);
    }

    #[test]
    fn vector_cannot_exceed_message_space() {
        let (pk, _sk, mut rng) = setup();
        let too_big = vec![pk.n().clone()];
        assert_eq!(
            EncryptedVector::encrypt(&pk, &too_big, &mut rng),
            Err(HeError::PlaintextTooLarge)
        );
    }

    #[test]
    fn byte_len_scales_with_length() {
        let (pk, _sk, mut rng) = setup();
        let a = EncryptedVector::encrypt_u64(&pk, &[1; 4], &mut rng);
        let b = EncryptedVector::encrypt_u64(&pk, &[1; 8], &mut rng);
        assert!(b.byte_len() > a.byte_len());
    }

    #[test]
    fn serde_round_trip_emits_key_once() {
        let (pk, sk, mut rng) = setup();
        let values = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let enc = EncryptedVector::encrypt_u64(&pk, &values, &mut rng);
        let json = serde_json::to_string(&enc).unwrap();
        // One "n" field for the whole vector, not one per element.
        assert_eq!(json.matches("\"n\"").count(), 1);
        let back: EncryptedVector = serde_json::from_str(&json).unwrap();
        assert_eq!(back.decrypt_u64(&sk).unwrap(), values);
        assert_eq!(back, enc);
    }
}
