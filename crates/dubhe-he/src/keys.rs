//! Paillier key material: generation, encryption and decryption.
//!
//! We use the common simplification `g = n + 1`, under which encryption of a
//! message `m` with randomness `r` is
//!
//! ```text
//! c = (1 + m·n) · rⁿ  mod n²
//! ```
//!
//! and decryption uses the Chinese Remainder Theorem over the prime factors
//! `p`, `q` of `n` for a ~4× speed-up compared to the textbook formula, exactly
//! as production Paillier implementations (e.g. python-paillier used by the
//! paper) do.
//!
//! ## Shared key handles
//!
//! A [`PublicKey`] is a cheap handle (`Arc` around the actual key material):
//! cloning it — which every [`Ciphertext`] does — copies one pointer instead
//! of two multi-kilobit integers. An encrypted length-`l` registry therefore
//! stores the modulus once, not `l` times, which is what makes per-element
//! ciphertext vectors affordable at production client counts.
//!
//! The handle also carries the lazily built fixed-base table behind
//! [`PrecomputedEncryptor`](crate::PrecomputedEncryptor) (see [`crate::fast`]),
//! so every consumer of the same key shares one table.
//!
//! A [`PrivateKey`] is the same kind of handle over the factors and
//! everything derived from them: the dispatched key of Fig. 4 is one
//! allocation however many in-process parties hold it. Its shared half also
//! carries the lazily built `p²`/`q²` combs behind
//! [`CrtEncryptor`](crate::CrtEncryptor), so they are built once per key per
//! process, live until the last clone of the key is dropped, and — like the
//! factors — never appear in `Debug` output. Sharing is by handle only: a key
//! decoded from bytes is a new handle with nothing built yet.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use num_bigint::{BigUint, MontgomeryContext, MontgomeryScratch, MontgomeryTable, RandBigInt};
use num_integer::Integer;
use num_traits::{One, Zero};
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::ciphertext::Ciphertext;
use crate::error::HeError;
use crate::fast::{CrtBase, FastBase};
use crate::prime::{generate_prime_pair, lift_inverse_squared, mod_inverse};
use crate::vector::{map_indexed, Work};

/// Minimum supported modulus size in bits.
pub const MIN_KEY_BITS: u64 = 64;

/// The actual public-key material, shared behind an [`Arc`] by every handle,
/// ciphertext and vector produced under the key.
#[derive(Debug)]
pub(crate) struct PublicKeyInner {
    /// The modulus `n = p·q`.
    pub(crate) n: BigUint,
    /// Cached `n²`, the ciphertext modulus.
    pub(crate) n_squared: BigUint,
    /// Number of bits in `n` (the nominal key size).
    pub(crate) bits: u64,
    /// Lazily sampled subgroup generator `h = g₀ⁿ mod n²` shared by every
    /// encryptor tier of the key (see `crate::fast`).
    pub(crate) subgroup_h: OnceLock<BigUint>,
    /// Lazily built fixed-base table for precomputed encryption.
    pub(crate) fast: OnceLock<FastBase>,
    /// Lazily built Montgomery context for `n²`, shared by every handle so
    /// the `R² mod n²` setup is paid once per key instead of once per
    /// exponentiation (`mul_plain`, `rerandomise`, textbook encryption).
    pub(crate) mont_n2: OnceLock<MontgomeryContext>,
}

/// The public (encryption) half of a Paillier keypair.
///
/// Everything a client needs to encrypt a registry, and everything the server
/// needs to homomorphically add ciphertexts, is contained here. The server in
/// Dubhe's honest-but-curious threat model holds *only* this key.
///
/// `PublicKey` is a shared handle: `clone()` is an `Arc` refcount bump, and
/// equality first compares handle identity before falling back to comparing
/// moduli.
#[derive(Debug, Clone)]
pub struct PublicKey {
    inner: Arc<PublicKeyInner>,
}

impl PublicKey {
    pub(crate) fn new(n: BigUint) -> Self {
        let n_squared = &n * &n;
        let bits = n.bits();
        PublicKey {
            inner: Arc::new(PublicKeyInner {
                n,
                n_squared,
                bits,
                subgroup_h: OnceLock::new(),
                fast: OnceLock::new(),
                mont_n2: OnceLock::new(),
            }),
        }
    }

    /// The modulus `n = p·q`.
    pub fn n(&self) -> &BigUint {
        &self.inner.n
    }

    /// The ciphertext modulus `n²`.
    pub fn n_squared(&self) -> &BigUint {
        &self.inner.n_squared
    }

    /// Number of bits in `n` (the nominal key size).
    pub fn bits(&self) -> u64 {
        self.inner.bits
    }

    /// `true` if both handles refer to the same key (pointer identity first,
    /// modulus comparison as the slow path for deserialized copies).
    pub fn same_key(&self, other: &PublicKey) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.n == other.inner.n
    }

    /// The key's shared subgroup generator `h = g₀ⁿ mod n²`, sampled on
    /// first use (with randomness from `rng`) and then reused by every
    /// handle — the precomputed and CRT encryption tiers both derive their
    /// tables from this one value, which is what keeps their ciphertexts
    /// bit-for-bit interchangeable.
    pub(crate) fn subgroup_h<R: Rng + ?Sized>(&self, rng: &mut R) -> &BigUint {
        self.inner
            .subgroup_h
            .get_or_init(|| crate::fast::sample_subgroup_h(self, rng))
    }

    /// The lazily initialised fixed-base table (expanded on first use from
    /// [`subgroup_h`](Self::subgroup_h), then shared by every handle to
    /// this key). Only the precomputed tier needs it; the CRT tier builds
    /// half-width tables of its own from the same `h`.
    pub(crate) fn fast_base<R: Rng + ?Sized>(&self, rng: &mut R) -> &FastBase {
        if let Some(table) = self.inner.fast.get() {
            return table;
        }
        let h = self.subgroup_h(rng).clone();
        self.inner.fast.get_or_init(|| FastBase::new(self, &h))
    }

    /// The key's cached Montgomery context for `n²`, built on first use.
    /// `None` for a (necessarily forged or corrupted) key whose modulus is
    /// even — Montgomery reduction needs `gcd(m, 2⁶⁴) = 1`. Consumers fall
    /// back to plain modular arithmetic in that case.
    pub(crate) fn mont_n2(&self) -> Option<&MontgomeryContext> {
        if self.inner.n_squared.is_even() {
            return None;
        }
        Some(
            self.inner
                .mont_n2
                .get_or_init(|| MontgomeryContext::new(&self.inner.n_squared)),
        )
    }

    /// `base^exponent mod n²` through the key's cached Montgomery context.
    ///
    /// `n²` is odd for every generated key (`p`, `q` are odd primes); a
    /// deserialized key with an even modulus falls back to the generic
    /// `modpow`, which handles even moduli without a context. Bit-for-bit
    /// identical to `base.modpow(exponent, n²)` either way (pinned by tests).
    pub(crate) fn pow_mod_n_squared(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        match self.mont_n2() {
            Some(ctx) => ctx.modpow(base, exponent),
            None => base.modpow(exponent, &self.inner.n_squared),
        }
    }

    /// Half of the message space: plaintexts in `[0, n/2)` are non-negative,
    /// plaintexts in `(n/2, n)` encode negative values.
    pub fn signed_boundary(&self) -> BigUint {
        self.n() >> 1u32
    }

    /// Encrypts an arbitrary-precision non-negative integer with textbook
    /// `rⁿ` randomness.
    ///
    /// This is the reference path; bulk callers should prefer
    /// [`PrecomputedEncryptor`](crate::PrecomputedEncryptor), which produces
    /// identically decryptable ciphertexts several times faster.
    ///
    /// Returns [`HeError::PlaintextTooLarge`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, HeError> {
        if m >= self.n() {
            return Err(HeError::PlaintextTooLarge);
        }
        let r = self.sample_randomness(rng);
        Ok(self.encrypt_with_randomness(m, &r))
    }

    /// Encrypts a `u64` plaintext (the common case for registry counters).
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Ciphertext {
        self.encrypt(&BigUint::from(m), rng)
            .expect("u64 always fits in a >=64-bit modulus")
    }

    /// Encrypts a signed integer using the `n/2` wrap-around convention.
    pub fn encrypt_i64<R: Rng + ?Sized>(&self, m: i64, rng: &mut R) -> Ciphertext {
        let encoded = self.encode_i64(m);
        self.encrypt(&encoded, rng)
            .expect("encoded value is below n")
    }

    /// Maps a signed integer into the message space (`n/2` wrap-around).
    pub(crate) fn encode_i64(&self, m: i64) -> BigUint {
        if m >= 0 {
            BigUint::from(m as u64)
        } else {
            self.n() - BigUint::from(m.unsigned_abs())
        }
    }

    /// `g^m = (1 + n)^m = 1 + m·n (mod n²)` — the message component shared by
    /// every encryption path.
    pub(crate) fn g_to_m(&self, m: &BigUint) -> BigUint {
        (BigUint::one() + m * self.n()) % self.n_squared()
    }

    /// Deterministic encryption with caller-provided randomness `r ∈ Z*_n`.
    ///
    /// Exposed so tests and the transcript-replay tooling can produce
    /// reproducible ciphertexts; real protocol flows should use [`encrypt`].
    ///
    /// [`encrypt`]: PublicKey::encrypt
    pub fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> Ciphertext {
        let g_to_m = self.g_to_m(m);
        let r_to_n = self.pow_mod_n_squared(r, self.n());
        let value = (g_to_m * r_to_n) % self.n_squared();
        Ciphertext::from_raw(value, self.clone())
    }

    /// An encryption of zero with unit randomness. Useful as the identity for
    /// homomorphic summation folds.
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext::from_raw(BigUint::one(), self.clone())
    }

    /// Samples encryption randomness `r` uniformly from `Z*_n`.
    pub fn sample_randomness<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let r = rng.gen_biguint_below(self.n());
            if !r.is_zero() && r.gcd(self.n()).is_one() {
                return r;
            }
        }
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.same_key(other)
    }
}

impl Eq for PublicKey {}

impl Serialize for PublicKey {
    fn to_value(&self) -> Value {
        // `n²`, `bits` and the fast-base table are all derived from `n`;
        // serializing only the modulus keeps wire keys minimal.
        Value::Object(vec![("n".to_string(), self.n().to_value())])
    }
}

impl Deserialize for PublicKey {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = BigUint::from_value(serde::get_field(v, "n")?)?;
        if n.is_zero() {
            return Err(DeError::custom("public key modulus must be non-zero"));
        }
        Ok(PublicKey::new(n))
    }
}

/// The private-key material, shared behind an [`Arc`] by every clone of the
/// handle. Deliberately not `Debug`: every field is, or reveals, a factor.
struct PrivateKeyInner {
    /// Prime factor `p` of `n`.
    p: BigUint,
    /// Prime factor `q` of `n`.
    q: BigUint,
    /// `p − 1`, the exponent of the `p²` decryption leg.
    p_minus_1: BigUint,
    /// `q − 1`, the exponent of the `q²` leg.
    q_minus_1: BigUint,
    /// Cached Montgomery context for `p²` (the modulus of the CRT leg).
    p_ctx: MontgomeryContext,
    /// Cached Montgomery context for `q²`.
    q_ctx: MontgomeryContext,
    /// `h_p = L_p(g^{p-1} mod p²)⁻¹ mod p` (CRT precomputation), which is
    /// `p − (q⁻¹ mod p)` for `g = n + 1`.
    h_p: BigUint,
    /// `h_q = L_q(g^{q-1} mod q²)⁻¹ mod q` (CRT precomputation), which is
    /// `q − (p⁻¹ mod q)` for `g = n + 1`.
    h_q: BigUint,
    /// `q⁻¹ mod p` for CRT recombination.
    q_inv_p: BigUint,
    /// Lazily built CRT encryption base (see `crate::fast`): the first
    /// encryptor made from any clone of this key builds it, the rest share
    /// it. A failed build is remembered too — it depends on the key alone.
    crt: OnceLock<Result<Arc<CrtBase>, HeError>>,
}

/// The private (decryption) half of a Paillier keypair.
///
/// In Dubhe this key is dispatched by a randomly chosen *agent* client to all
/// clients; the server never holds it.
///
/// `PrivateKey` is a shared handle like [`PublicKey`]: `clone()` is two
/// refcount bumps, and equality compares handle identity before factors.
/// Its `Debug` form prints the key size and nothing secret.
///
/// Serialization carries only the prime factors `p`, `q` (plus the public
/// modulus) — everything else, including the per-key Montgomery contexts for
/// `p²` and `q²`, is recomputed on deserialization. This keeps the wire form
/// aligned with the transport size model (two half-modulus factors) and lets
/// every decryption reuse cached contexts instead of re-deriving `R²`.
#[derive(Clone)]
pub struct PrivateKey {
    /// The public key this private key belongs to.
    pub public: PublicKey,
    inner: Arc<PrivateKeyInner>,
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrivateKey")
            .field("bits", &self.public.bits())
            .field("factors", &format_args!("<redacted>"))
            .finish()
    }
}

impl PartialEq for PrivateKey {
    fn eq(&self, other: &Self) -> bool {
        // Everything else is derived from (public, p, q).
        self.public == other.public
            && (Arc::ptr_eq(&self.inner, &other.inner)
                || (self.inner.p == other.inner.p && self.inner.q == other.inner.q))
    }
}

impl Eq for PrivateKey {}

impl PrivateKey {
    /// Builds the CRT precomputation, validating the factors: deserialized
    /// or decoded key material that is not a factorisation of `n` (or whose
    /// `L` values are not invertible) is rejected instead of panicking.
    pub(crate) fn try_new(public: PublicKey, p: BigUint, q: BigUint) -> Result<Self, HeError> {
        let one = BigUint::one();
        if p.is_even() || q.is_even() || p <= one || q <= one {
            return Err(HeError::MalformedKey {
                detail: "prime factors must be odd and greater than 1",
            });
        }
        if &(&p * &q) != public.n() {
            return Err(HeError::MalformedKey {
                detail: "factors do not multiply to the public modulus",
            });
        }
        let p_ctx = MontgomeryContext::new(&(&p * &p));
        let q_ctx = MontgomeryContext::new(&(&q * &q));
        let p_minus_1 = &p - &one;
        let q_minus_1 = &q - &one;

        // In closed form, without a ladder: (1 + n)^(p−1) ≡ 1 + (p−1)·n
        // (mod p²), since n² ≡ 0, so L_p = (p−1)·q ≡ −q (mod p) and
        // h_p = L_p⁻¹ = p − (q⁻¹ mod p); likewise h_q = q − (p⁻¹ mod q).
        // L_p is invertible exactly when q is modulo p, so one inverse
        // serves both `h_p` and Garner's `q⁻¹ mod p`.
        let q_inv_p = mod_inverse(&(&q % &p), &p).ok_or(HeError::MalformedKey {
            detail: "L_p is not invertible modulo p",
        })?;
        let p_inv_q = mod_inverse(&(&p % &q), &q).ok_or(HeError::MalformedKey {
            detail: "L_q is not invertible modulo q",
        })?;
        let h_p = &p - &q_inv_p;
        let h_q = &q - &p_inv_q;

        Ok(PrivateKey {
            public,
            inner: Arc::new(PrivateKeyInner {
                p,
                q,
                p_minus_1,
                q_minus_1,
                p_ctx,
                q_ctx,
                h_p,
                h_q,
                q_inv_p,
                crt: OnceLock::new(),
            }),
        })
    }

    fn new(public: PublicKey, p: BigUint, q: BigUint) -> Self {
        PrivateKey::try_new(public, p, q).expect("generated factors form a valid key")
    }

    /// The prime factors `(p, q)` — for the canonical codec only.
    pub(crate) fn primes(&self) -> (&BigUint, &BigUint) {
        (&self.inner.p, &self.inner.q)
    }

    /// The cached Montgomery contexts for `p²` and `q²` (in that order) —
    /// the CRT encryptor evaluates its fixed-base tables through these, so
    /// no exponentiation under a live key re-derives `R²`.
    pub(crate) fn crt_contexts(&self) -> (&MontgomeryContext, &MontgomeryContext) {
        (&self.inner.p_ctx, &self.inner.q_ctx)
    }

    /// `(q²)⁻¹ mod p²`, Garner's constant for recombining the CRT
    /// encryptor's two legs, lifted from the cached `q⁻¹ mod p` (see
    /// [`lift_inverse_squared`]) rather than inverted afresh. `None` only
    /// if the lift fails its own check.
    pub(crate) fn q_squared_inverse(&self) -> Option<BigUint> {
        let key = &*self.inner;
        lift_inverse_squared(&key.q_inv_p, &key.q, key.p_ctx.modulus())
    }

    /// The key's shared CRT encryption base for the subgroup generator `h`,
    /// built by whichever clone asks first (concurrent first callers wait
    /// for that one build). The base is a function of `(p, q, h)`, and `h`
    /// is sampled per *public* handle, so a caller holding another `h` gets
    /// a base of its own, built fresh and not kept.
    pub(crate) fn crt_base(&self, h: &BigUint) -> Result<Arc<CrtBase>, HeError> {
        let build = || CrtBase::new(self, h).map(Arc::new);
        match self.inner.crt.get_or_init(build) {
            Ok(base) if base.built_from(h) => Ok(Arc::clone(base)),
            Ok(_) => build(),
            Err(e) => Err(e.clone()),
        }
    }

    /// The two CRT legs of decryption, `p²` first, each through the key's
    /// cached Montgomery context.
    fn legs(&self) -> [DecryptLeg<'_>; 2] {
        let key = &*self.inner;
        [
            DecryptLeg {
                ctx: &key.p_ctx,
                exponent: &key.p_minus_1,
                prime: &key.p,
                h: &key.h_p,
            },
            DecryptLeg {
                ctx: &key.q_ctx,
                exponent: &key.q_minus_1,
                prime: &key.q,
                h: &key.h_q,
            },
        ]
    }

    /// CRT recombination of the leg plaintexts `m_p = m mod p`,
    /// `m_q = m mod q` to `m = m_q + q·((m_p − m_q)·q⁻¹ mod p)` in `[0, n)`.
    fn recombine(&self, m_p: &BigUint, m_q: &BigUint) -> BigUint {
        let key = &*self.inner;
        let diff = if m_p >= m_q {
            (m_p - m_q) % &key.p
        } else {
            (&key.p - ((m_q - m_p) % &key.p)) % &key.p
        };
        let t = (diff * &key.q_inv_p) % &key.p;
        m_q + &key.q * t
    }

    /// CRT decryption of one ciphertext: the lone case of
    /// [`decrypt_stacks`](Self::decrypt_stacks), so its two leg ladders
    /// run side by side when they clear the fan-out bound. A value sharing
    /// a factor with `n` is [`HeError::CiphertextNotInvertible`].
    fn decrypt_raw(&self, ct: &Ciphertext) -> Result<BigUint, HeError> {
        self.decrypt_stacks(std::slice::from_ref(ct), 1, 0)
            .pop()
            .expect("one ciphertext is one stack")
    }

    /// Decrypts a ciphertext to its arbitrary-precision plaintext in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `ct` shares a factor with `n` (zero, or a multiple of `p`
    /// or `q`): such a value encrypts nothing. Untrusted vectors go through
    /// [`decrypt_batch`](Self::decrypt_batch) or
    /// [`EncryptedVector::decrypt_u64`](crate::EncryptedVector::decrypt_u64),
    /// which return [`HeError::CiphertextNotInvertible`] instead.
    pub fn decrypt(&self, ct: &Ciphertext) -> BigUint {
        self.decrypt_raw(ct)
            .expect("ciphertext is invertible modulo n")
    }

    /// Decrypts a batch of ciphertexts, one CRT decryption per element.
    ///
    /// The pool items are legs, not elements: each element's `p²` and `q²`
    /// ladders are two items, fanned out over all cores when the `parallel`
    /// feature is enabled (it is by default) and the `2·len` items clear
    /// the fan-out work bound — at 1024-bit keys one element's two legs
    /// do, at the 256-bit test size sixteen legs (eight elements). A lone
    /// decryption therefore runs its two ladders side by side.
    ///
    /// This is the arbitrary-width path (packed plaintexts, `decrypt`);
    /// vectors of `u64` counters take the repacking path behind
    /// [`EncryptedVector::decrypt_u64`](crate::EncryptedVector::decrypt_u64),
    /// which decrypts one ciphertext for its check plus one per group of
    /// slots instead of `len` (2 for a 56-element registry whose counts sum
    /// below 2¹⁷ at 1024 bits). The first element that shares a factor with
    /// `n` is [`HeError::CiphertextNotInvertible`]; the order is the
    /// element-by-element one, lowest index first and its `p` leg before its
    /// `q` leg.
    pub fn decrypt_batch(&self, cts: &[Ciphertext]) -> Result<Vec<BigUint>, HeError> {
        self.decrypt_stacks(cts, 1, 0).into_iter().collect()
    }

    /// One CRT decryption per stack of `depth ≥ 1` consecutive ciphertexts
    /// of `cts` (the last stack may be shorter), results in stack order.
    ///
    /// A stack `C₀ … C_{d−1}` is decrypted as `Π C_t^(2^(t·field_bits))`,
    /// an encryption of `Σ m_t·2^(t·field_bits) mod n`, folded by Horner
    /// inside each leg: `field_bits` squarings and one multiply per extra
    /// ciphertext, then the leg's ladder. With `depth = 1` a stack is its
    /// one ciphertext and `field_bits` is unused. Every (stack, leg) pair is
    /// one pool item, `p²` first, as [`repack`](Self::repack) fans out its
    /// (group, leg) chains. A stack holding a value that shares a factor
    /// with `n` is [`HeError::CiphertextNotInvertible`], since the product
    /// of a unit and a non-unit is a non-unit.
    pub(crate) fn decrypt_stacks(
        &self,
        cts: &[Ciphertext],
        depth: usize,
        field_bits: u64,
    ) -> Vec<Result<BigUint, HeError>> {
        let key = &*self.inner;
        let legs = self.legs();
        let stacks: Vec<&[Ciphertext]> = cts.chunks(depth).collect();
        // Per (stack, leg): the Horner chain's squarings, then one
        // sliding-window ladder over the bits of p − 1 (or q − 1) under the
        // half-width square — a squaring per bit (three quarters of a
        // multiply) plus a multiply per window (every sixth bit at these
        // lengths) and the odd-power table, about one multiply a bit.
        let chain = field_bits * (depth as u64 - 1);
        let work = Work::new(chain + key.p.bits(), key.p_ctx.modulus());
        let shares = map_indexed(legs.len() * stacks.len(), work, |j| {
            let (leg, stack) = (&legs[j % legs.len()], stacks[j / legs.len()]);
            match stack {
                [ct] => leg.plaintext(ct.raw()),
                _ => leg.plaintext(&leg.horner(&leg.arena(stack), 0..stack.len(), field_bits)),
            }
        });
        let mut shares = shares.into_iter();
        (0..stacks.len())
            .map(|_| {
                let m_p = shares.next().expect("a share per leg");
                let m_q = shares.next().expect("a share per leg");
                Ok(self.recombine(&m_p?, &m_q?))
            })
            .collect()
    }

    /// [`decrypt_batch`](Self::decrypt_batch) narrowed to `u64`, one
    /// decryption per element: the first element that is not an
    /// encryption, or whose plaintext needs more than 64 bits, is the
    /// error.
    fn decrypt_u64_each(&self, cts: &[Ciphertext]) -> Result<Vec<u64>, HeError> {
        let narrow = |m: BigUint| match m.to_u64_digits()[..] {
            [] => Ok(0),
            [v] => Ok(v),
            _ => Err(HeError::PlaintextTooWide {
                bits: m.bits(),
                max_bits: SLOT_BITS,
            }),
        };
        self.decrypt_stacks(cts, 1, 0)
            .into_iter()
            .map(|m| m.and_then(narrow))
            .collect()
    }

    /// Decrypts ciphertexts whose plaintexts must each fit a `u64`, with one
    /// CRT decryption for a check plus one per group of slots instead of
    /// `len` — two for the paper's 56-element registry at 1024 bits.
    ///
    /// One [`repack`](Self::repack) answers every vector of `u64`s (under a
    /// key of 256 bits or more, at any length): its check, decrypted first,
    /// bounds the values and sizes the slots, so they unpack exactly
    /// whatever the check's weights were. If it refuses
    /// (a plaintext that is not a `u64`, a ciphertext that encrypts
    /// nothing), the per-element path runs, only to name the first offending
    /// element with exactly the error it has always produced — so values
    /// and errors are one CRT decryption per element's, bit for bit. Short
    /// batches (fewer than three elements, where packing saves no ladder)
    /// and keys whose primes do not exceed 2⁶⁴ (where the check's bound does
    /// not hold) take the per-element path throughout.
    pub(crate) fn decrypt_u64_batch(&self, cts: &[Ciphertext]) -> Result<Vec<u64>, HeError> {
        let key = &*self.inner;
        if cts.len() < 3 || key.p.bits() <= SLOT_BITS || key.q.bits() <= SLOT_BITS {
            return self.decrypt_u64_each(cts);
        }
        match self.repack(cts) {
            Some(values) => Ok(values),
            None => self.decrypt_u64_each(cts),
        }
    }

    /// One repacking decryption of `cts`, in two rounds of chains, one
    /// chain per CRT leg (and group):
    ///
    /// 1. **Check.** Per leg, every residue goes into one Montgomery arena,
    ///    fresh secret weights `wᵢ ∈ [2⁶³, 2⁶⁴)` from [`check_weights`]
    ///    give `X = Π cᵢ^wᵢ` by [`multi_exp`], and `X` is decrypted once to
    ///    `D = Σ wᵢ·mᵢ mod n`.
    /// 2. **Size the slots.** For `u64`s `D` is that sum itself (it stays
    ///    below `len·2¹²⁸`, less than `n` whenever `len < 2^(bits(n) −
    ///    129)`), and every `mᵢ ≤ Σ mⱼ ≤ ⌊D / 2⁶³⌋`; so
    ///    slots of `bits(⌊D / 2⁶³⌋)` bits, at most 64, hold every value.
    ///    [`fitted_slot_bits`] packs them in the fewest groups.
    /// 3. **Repack.** Each group of `⌊(bits(n) − 1) / s⌋` elements folds by
    ///    Horner into `Π cⱼ^(2^(s·j))`, an encryption of `Σ mⱼ·2^(s·j)`
    ///    below `2^(bits(n) − 1)`: `s` squarings and one multiply per
    ///    element. It is decrypted once and cut into `s`-bit slots `vⱼ`; a
    ///    plaintext of `2^(s·count)` or more refuses.
    /// 4. **Verify.** `D` must equal `Σ wᵢ·vᵢ mod n`.
    ///
    /// `u64`s unpack exactly and pass, so the output never depends on the
    /// weights; they choose only the width, within one bit. If some `mᵢ ≠
    /// vᵢ` (a value of 2⁶⁴ or more, two that cancel, `n − 1` wrapping a
    /// group), then `δᵢ = mᵢ − vᵢ ≢ 0 (mod n)` and `n / gcd(δᵢ, n) ≥ min(p,
    /// q) > 2⁶⁴`, so at a given width at most one of the 2⁶³ values of `wᵢ`
    /// passes. The width is read from `D`, which depends on the weights, so
    /// the bound adds up over every width the length can take: one per
    /// group count, `⌈len / ⌊(bits(n) − 1) / 64⌋⌉` of them. A forgery passes
    /// with probability at most that many times 2⁻⁶³: 2⁻⁶¹ for the paper's
    /// registry at 1024 bits.
    ///
    /// `None` when a step refuses: a leg power of zero, a slot overflow, a
    /// failed check.
    fn repack(&self, cts: &[Ciphertext]) -> Option<Vec<u64>> {
        let key = &*self.inner;
        let legs = self.legs();
        let modulus = key.p_ctx.modulus();
        let weights = check_weights(cts.len());
        // Per leg: a reduction and a domain conversion per residue, the
        // check's 64 squarings and `len + 15` multiplies in each of 16
        // windows, then one leg ladder, about a multiply per exponent bit.
        let len = cts.len() as u64;
        let windows = (u64::BITS / WINDOW_BITS) as u64;
        let check = 2 * len + 64 + windows * (len + (1 << WINDOW_BITS) - 1) + key.p.bits();
        let checked = map_indexed(legs.len(), Work::new(check, modulus), |l| {
            let arena = legs[l].arena(cts);
            let share = legs[l].plaintext(&multi_exp(legs[l].ctx, &arena, &weights));
            (arena, share.ok())
        });
        let [(arena_p, Some(d_p)), (arena_q, Some(d_q))] = &checked[..] else {
            return None;
        };
        let (arenas, weighted) = ([arena_p, arena_q], self.recombine(d_p, d_q));

        let need = (&weighted >> 63u32).bits().clamp(1, SLOT_BITS);
        let slot_bits = fitted_slot_bits(self.public.bits(), cts.len(), need);
        let slots = ((self.public.bits() - 1) / slot_bits) as usize;
        let groups: Vec<Range<usize>> = (0..cts.len())
            .step_by(slots)
            .map(|start| start..(start + slots).min(cts.len()))
            .collect();
        // Per (group, leg): `s` squarings a slot, then one leg ladder.
        let fold = slot_bits * slots.min(cts.len()) as u64 + key.p.bits();
        let shares = map_indexed(legs.len() * groups.len(), Work::new(fold, modulus), |j| {
            let (l, g) = (j % legs.len(), j / legs.len());
            let packed = legs[l].horner(arenas[l], groups[g].clone(), slot_bits);
            legs[l].plaintext(&packed).ok()
        });

        let mut values = Vec::with_capacity(cts.len());
        for (group, share) in groups.iter().zip(shares.chunks(legs.len())) {
            let [Some(m_p), Some(m_q)] = share else {
                return None;
            };
            let m = self.recombine(m_p, m_q);
            if m.bits() > slot_bits * group.len() as u64 {
                return None;
            }
            values.extend(unpack(&m, slot_bits, group.len()));
        }
        // Σ wᵢ·vᵢ in 128 bits plus a count of carries out of them.
        let (mut low, mut carries) = (0u128, 0u64);
        for (&w, &v) in weights.iter().zip(&values) {
            let (sum, carry) = low.overflowing_add(w as u128 * v as u128);
            low = sum;
            carries += carry as u64;
        }
        let expected = ((BigUint::from(carries) << 128u32) + BigUint::from(low)) % self.public.n();
        (weighted == expected).then_some(values)
    }

    /// Decrypts to `u64`, panicking if the plaintext does not fit. Registry
    /// counters always fit because they are bounded by the client count.
    pub fn decrypt_u64(&self, ct: &Ciphertext) -> u64 {
        let m = self.decrypt(ct);
        let digits = m.to_u64_digits();
        match digits.len() {
            0 => 0,
            1 => digits[0],
            _ => panic!("plaintext does not fit in u64: {m}"),
        }
    }

    /// Decrypts a signed integer encoded via the `n/2` wrap-around convention.
    pub fn decrypt_i64(&self, ct: &Ciphertext) -> Result<i64, HeError> {
        let m = self.decrypt_raw(ct)?;
        let boundary = self.public.signed_boundary();
        if m < boundary {
            let digits = m.to_u64_digits();
            let v = match digits.len() {
                0 => 0u64,
                1 => digits[0],
                _ => return Err(HeError::SignedRangeOverflow),
            };
            i64::try_from(v).map_err(|_| HeError::SignedRangeOverflow)
        } else {
            let neg = self.public.n() - m;
            let digits = neg.to_u64_digits();
            let v = match digits.len() {
                0 => 0u64,
                1 => digits[0],
                _ => return Err(HeError::SignedRangeOverflow),
            };
            let v = i64::try_from(v).map_err(|_| HeError::SignedRangeOverflow)?;
            Ok(-v)
        }
    }
}

impl Serialize for PrivateKey {
    fn to_value(&self) -> Value {
        // Only the factors travel: the CRT precomputation and Montgomery
        // contexts are derived again on the receiving side. This is the same
        // shape the canonical binary codec uses and what the transport model
        // prices (p and q, together one modulus width).
        Value::Object(vec![
            ("public".to_string(), self.public.to_value()),
            ("p".to_string(), self.inner.p.to_value()),
            ("q".to_string(), self.inner.q.to_value()),
        ])
    }
}

impl Deserialize for PrivateKey {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let public = PublicKey::from_value(serde::get_field(v, "public")?)?;
        let p = BigUint::from_value(serde::get_field(v, "p")?)?;
        let q = BigUint::from_value(serde::get_field(v, "q")?)?;
        PrivateKey::try_new(public, p, q).map_err(|e| DeError::custom(e.to_string()))
    }
}

/// The Paillier `L` function: `L(x) = (x - 1) / d`.
fn l_function(x: &BigUint, d: &BigUint) -> BigUint {
    (x - BigUint::one()) / d
}

/// The widest repacking slot, one `u64` plaintext: the bound every
/// decrypted value is held to.
const SLOT_BITS: u64 = 64;

/// Window width, in weight bits, of [`multi_exp`]. At registry lengths 4
/// takes the fewest multiplies: ≈ 1 080 for 56 weights, against ≈ 1 110 at
/// 5 bits and ≈ 1 230 at 3.
const WINDOW_BITS: u32 = 4;

/// The slot width for `len ≥ 1` values of at most `need ≤ 64` bits under a
/// `key_bits`-bit modulus: the fewest groups whose slots hold `need` bits,
/// then the widest slots, at most 64 bits, that fit a group's share of the
/// elements below `2^(key_bits − 1)`. Widening costs squarings but leaves a
/// length one width per group count, the count the check's bound adds up
/// over. At 1024 bits a 56-element registry needing ≤ 18 bits is one group
/// of 18-bit slots, and 52 try sums needing 26 are two groups of 39.
fn fitted_slot_bits(key_bits: u64, len: usize, need: u64) -> u64 {
    let capacity = key_bits - 1;
    let groups = (len as u64).div_ceil(capacity / need);
    (capacity / (len as u64).div_ceil(groups)).min(SLOT_BITS)
}

/// The `count` lowest `slot_bits`-bit slots of `m`, lowest first.
fn unpack(m: &BigUint, slot_bits: u64, count: usize) -> impl Iterator<Item = u64> {
    let limbs = m.to_u64_digits();
    (0..count as u64).map(move |j| bit_field(&limbs, j * slot_bits, slot_bits))
}

/// The `width` bits (1 to 64) of the little-endian `limbs` from bit `at`
/// up, zero past the top limb.
pub(crate) fn bit_field(limbs: &[u64], at: u64, width: u64) -> u64 {
    let limb = |i: usize| limbs.get(i).copied().unwrap_or(0) as u128;
    let (i, shift) = ((at / 64) as usize, at % 64);
    let window = (limb(i) | (limb(i + 1) << 64)) >> shift;
    window as u64 & (u64::MAX >> (64 - width))
}

/// `Π cᵢ^wᵢ mod m` over the first `weights.len()` entries of `arena`, in
/// the Montgomery domain of `ctx`: Pippenger's bucket method over
/// [`WINDOW_BITS`]-bit windows of the weights, top window first. Per
/// window the accumulator is squared once a bit; then, for each digit `d`
/// from the largest down, the elements whose window reads `d` join a
/// running product, which is multiplied into the accumulator — an element
/// enters `d` times for one multiply. Each bucket is spent as soon as it is
/// formed, so none is stored. About `len + 15` multiplies a window, 16
/// windows, against ≈ 32 per element for square-and-multiply.
fn multi_exp(ctx: &MontgomeryContext, arena: &MontgomeryTable, weights: &[u64]) -> BigUint {
    let top_digit = (1u64 << WINDOW_BITS) - 1;
    let mut scratch = MontgomeryScratch::new();
    let mut acc = ctx.to_montgomery(&BigUint::one());
    let mut running = acc.clone();
    for shift in (0..u64::BITS).step_by(WINDOW_BITS as usize).rev() {
        for _ in 0..WINDOW_BITS {
            ctx.montgomery_sqr_assign(&mut acc, &mut scratch);
        }
        let mut started = false;
        for digit in (1..=top_digit).rev() {
            for (i, &w) in weights.iter().enumerate() {
                if (w >> shift) & top_digit != digit {
                    continue;
                }
                if started {
                    ctx.montgomery_mul_entry_assign(&mut running, arena, i, &mut scratch);
                } else {
                    arena.load(i, &mut running);
                    started = true;
                }
            }
            if started {
                ctx.montgomery_mul_assign(&mut acc, &running, &mut scratch);
            }
        }
    }
    ctx.from_montgomery(&acc)
}

/// One CRT leg of decryption: modulus `p²` (through the key's cached
/// context), exponent `p − 1`, and the constant `h_p` (or the same for `q`).
struct DecryptLeg<'a> {
    ctx: &'a MontgomeryContext,
    exponent: &'a BigUint,
    prime: &'a BigUint,
    h: &'a BigUint,
}

impl DecryptLeg<'_> {
    /// `m mod p` for a ciphertext `c` with plaintext `m`:
    /// `L_p(c^(p−1) mod p²)·h_p mod p`. A `c` divisible by `p` (zero among
    /// them) has power zero — by Fermat every other `c` has a power of 1
    /// mod `p` — and no plaintext: [`HeError::CiphertextNotInvertible`].
    fn plaintext(&self, c: &BigUint) -> Result<BigUint, HeError> {
        let power = self.ctx.modpow(c, self.exponent);
        if power.is_zero() {
            return Err(HeError::CiphertextNotInvertible);
        }
        Ok((l_function(&power, self.prime) * self.h) % self.prime)
    }

    /// Every residue of `cts` reduced mod `p²` and mapped into the leg's
    /// Montgomery domain, in one limb arena (7 KB for 56 elements at 1024
    /// bits).
    fn arena(&self, cts: &[Ciphertext]) -> MontgomeryTable {
        let mut arena = self.ctx.table(cts.len());
        for (i, ct) in cts.iter().enumerate() {
            arena.store(i, &self.ctx.to_montgomery(ct.raw()));
        }
        arena
    }

    /// `Π cⱼ^(2^(s·(j − start))) mod p²` over `group` by Horner, highest
    /// element first: an encryption (mod `p²`) of the group's plaintexts
    /// packed into `s = slot_bits`-bit slots, lowest element in the lowest
    /// slot.
    fn horner(&self, arena: &MontgomeryTable, group: Range<usize>, slot_bits: u64) -> BigUint {
        let mut scratch = MontgomeryScratch::new();
        let mut acc = arena.entry(group.end - 1);
        for i in group.rev().skip(1) {
            for _ in 0..slot_bits {
                self.ctx.montgomery_sqr_assign(&mut acc, &mut scratch);
            }
            self.ctx
                .montgomery_mul_entry_assign(&mut acc, arena, i, &mut scratch);
        }
        self.ctx.from_montgomery(&acc)
    }
}

/// Fresh weights in `[2⁶³, 2⁶⁴)` for the unpacking check of
/// [`PrivateKey::repack`], one per element: SipHash outputs under a new
/// [`RandomState`] key, which the standard library seeds from the operating
/// system, with the top bit set so that the weighted sum over 2⁶³ bounds
/// the plain one. The weights must be unpredictable to whoever made the
/// ciphertexts, so they never come from a caller's seeded generator (a seed
/// is reproducible) or from the key (every client holds it).
fn check_weights(len: usize) -> Vec<u64> {
    let keys = RandomState::new();
    (0..len).map(|i| keys.hash_one(i) | 1 << 63).collect()
}

/// A freshly generated public/private keypair.
///
/// In the Dubhe protocol the keypair is generated per registration epoch by a
/// randomly selected agent and dispatched to all clients (public *and* private
/// key) while the server receives only the public key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Keypair {
    /// Public encryption key.
    pub public: PublicKey,
    /// Private decryption key.
    pub private: PrivateKey,
}

impl Keypair {
    /// Generates a keypair whose modulus `n` has (approximately) `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits < MIN_KEY_BITS`.
    pub fn generate<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> Self {
        assert!(
            bits >= MIN_KEY_BITS,
            "key size {bits} below minimum {MIN_KEY_BITS}"
        );
        let (p, q) = generate_prime_pair(bits / 2, rng);
        let n = &p * &q;
        let public = PublicKey::new(n);
        let private = PrivateKey::new(public.clone(), p, q);
        Keypair { public, private }
    }

    /// Splits the keypair into `(public, private)` halves.
    pub fn split(self) -> (PublicKey, PrivateKey) {
        (self.public, self.private)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        Keypair::generate(crate::TEST_KEY_BITS, &mut rng)
    }

    /// The CRT constants as `try_new` computed them before the closed
    /// form: `L` of a `p − 1` / `q − 1` ladder on `g = n + 1`, inverted.
    fn ladder_constants(key: &PrivateKey) -> (BigUint, BigUint) {
        let k = &*key.inner;
        let g = key.public.n() + BigUint::one();
        let l_p = l_function(&k.p_ctx.modpow(&g, &k.p_minus_1), &k.p);
        let l_q = l_function(&k.q_ctx.modpow(&g, &k.q_minus_1), &k.q);
        (
            mod_inverse(&l_p, &k.p).expect("L_p invertible"),
            mod_inverse(&l_q, &k.q).expect("L_q invertible"),
        )
    }

    #[test]
    fn closed_form_crt_constants_match_the_ladder_form() {
        for seed in 0..32 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let key = Keypair::generate(crate::TEST_KEY_BITS, &mut rng).private;
            let (h_p, h_q) = ladder_constants(&key);
            assert_eq!(
                (&key.inner.h_p, &key.inner.h_q),
                (&h_p, &h_q),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn closed_form_crt_constants_match_the_ladder_form_at_1024_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1024);
        let key = Keypair::generate(1024, &mut rng).private;
        let (h_p, h_q) = ladder_constants(&key);
        assert_eq!((&key.inner.h_p, &key.inner.h_q), (&h_p, &h_q));
    }

    #[test]
    fn encrypt_decrypt_round_trip_small_values() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for m in [0u64, 1, 2, 17, 1000, u32::MAX as u64, u64::MAX] {
            let ct = kp.public.encrypt_u64(m, &mut rng);
            assert_eq!(kp.private.decrypt_u64(&ct), m, "round trip failed for {m}");
        }
    }

    #[test]
    fn encryption_is_randomised() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let a = kp.public.encrypt_u64(5, &mut rng);
        let b = kp.public.encrypt_u64(5, &mut rng);
        assert_ne!(
            a.raw(),
            b.raw(),
            "two encryptions of the same value must differ"
        );
        assert_eq!(kp.private.decrypt_u64(&a), kp.private.decrypt_u64(&b));
    }

    #[test]
    fn signed_round_trip() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for m in [0i64, 1, -1, 42, -42, i32::MAX as i64, -(i32::MAX as i64)] {
            let ct = kp.public.encrypt_i64(m, &mut rng);
            assert_eq!(kp.private.decrypt_i64(&ct).unwrap(), m);
        }
    }

    #[test]
    fn plaintext_larger_than_modulus_is_rejected() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let too_big = kp.public.n().clone() + BigUint::one();
        assert_eq!(
            kp.public.encrypt(&too_big, &mut rng),
            Err(HeError::PlaintextTooLarge)
        );
    }

    #[test]
    fn zero_ciphertext_decrypts_to_zero() {
        let kp = keypair();
        assert_eq!(kp.private.decrypt_u64(&kp.public.zero_ciphertext()), 0);
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn tiny_key_generation_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let _ = Keypair::generate(32, &mut rng);
    }

    #[test]
    fn generated_modulus_is_pinned_for_a_fixed_seed() {
        // Recorded at the commit before Miller–Rabin moved onto a shared
        // Montgomery context: the prime search must consume the RNG in the
        // same order (same n, same stream position afterwards), or every
        // fixed-seed key — the benchmark's among them — changes under it.
        use rand::RngCore;
        let golden: [(u64, &str, u64); 2] = [
            (
                256,
                "114205653312471208615039248631774275070690056856756102962439305615743161970327",
                0xff06_58bb_39a8_ea4e,
            ),
            (
                1024,
                "132228035371388249538745797034749234996633346713738417209397989446057797421473\
                 630291278801431792139399432400393645745166998167285043979110340584535928415452\
                 754421460939239457576977509277696982641138629666073334814033845177381308398753\
                 086447591320489691299379408502988662761966845013414794050747555182542318213",
                0xa98d_f9a1_0539_8d51,
            ),
        ];
        for (bits, n, next_draw) in golden {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xD0BE_2021);
            let kp = Keypair::generate(bits, &mut rng);
            assert_eq!(kp.public.n().to_string(), n, "{bits}-bit modulus moved");
            assert_eq!(rng.next_u64(), next_draw, "{bits}-bit draw count moved");
        }
    }

    #[test]
    fn signed_boundary_is_half_modulus() {
        let kp = keypair();
        assert_eq!(kp.public.signed_boundary(), kp.public.n() >> 1u32);
    }

    #[test]
    fn keys_serialize_round_trip() {
        let kp = keypair();
        let json = serde_json::to_string(&kp).unwrap();
        let back: Keypair = serde_json::from_str(&json).unwrap();
        assert_eq!(back.public, kp.public);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let ct = back.public.encrypt_u64(77, &mut rng);
        assert_eq!(kp.private.decrypt_u64(&ct), 77);
    }

    #[test]
    fn cloned_handles_share_key_material() {
        let kp = keypair();
        let a = kp.public.clone();
        let b = kp.public.clone();
        assert!(a.same_key(&b));
        // Handle clones are pointer copies, not key-material copies.
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn deserialized_key_equals_original_without_sharing_storage() {
        let kp = keypair();
        let json = serde_json::to_string(&kp.public).unwrap();
        let back: PublicKey = serde_json::from_str(&json).unwrap();
        assert!(!Arc::ptr_eq(&back.inner, &kp.public.inner));
        assert_eq!(back, kp.public);
        assert_eq!(back.n_squared(), kp.public.n_squared());
        assert_eq!(back.bits(), kp.public.bits());
    }

    #[test]
    fn cached_montgomery_path_is_bit_identical_to_generic_modpow() {
        // The per-key contexts must reproduce the uncached arithmetic
        // exactly: same randomness in, same ciphertext residues out.
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..8 {
            let r = kp.public.sample_randomness(&mut rng);
            let e = rng.gen_biguint(192);
            assert_eq!(
                kp.public.pow_mod_n_squared(&r, &e),
                r.modpow(&e, kp.public.n_squared()),
                "cached n² context diverged from generic modpow"
            );
        }
        // Deterministic encryption (which routes through the cached context)
        // must keep producing the exact ciphertext of the textbook formula.
        let m = BigUint::from(123_456u64);
        let r = kp.public.sample_randomness(&mut rng);
        let ct = kp.public.encrypt_with_randomness(&m, &r);
        let textbook = (kp.public.g_to_m(&m) * r.modpow(kp.public.n(), kp.public.n_squared()))
            % kp.public.n_squared();
        assert_eq!(ct.raw(), &textbook);
        assert_eq!(kp.private.decrypt(&ct), m);
    }

    #[test]
    fn private_key_serializes_factors_only_and_rejects_garbage() {
        let kp = keypair();
        let json = serde_json::to_string(&kp.private).unwrap();
        // Only (public, p, q) travel; the CRT values are recomputed.
        assert!(!json.contains("h_p") && !json.contains("q_inv_p"), "{json}");
        let back: PrivateKey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kp.private);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let ct = kp.public.encrypt_u64(99, &mut rng);
        assert_eq!(back.decrypt_u64(&ct), 99);

        // Factors that do not multiply to n must be refused, not panic.
        let forged = format!(
            "{{\"public\":{{\"n\":\"{}\"}},\"p\":\"35\",\"q\":\"35\"}}",
            kp.public.n()
        );
        assert!(serde_json::from_str::<PrivateKey>(&forged).is_err());
    }

    #[test]
    fn batch_decrypt_matches_scalar_decrypt() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let cts: Vec<Ciphertext> = (0..40u64)
            .map(|m| kp.public.encrypt_u64(m * 11, &mut rng))
            .collect();
        let batch = kp.private.decrypt_batch(&cts).unwrap();
        for (i, (ct, m)) in cts.iter().zip(&batch).enumerate() {
            assert_eq!(&kp.private.decrypt(ct), m, "element {i} diverged");
        }
    }

    #[test]
    fn the_fitted_width_holds_the_need_in_the_fewest_groups() {
        // (key bits, length, need, width): at 1024 bits a registry whose
        // counts sum below 2¹⁷ is one group of 18-bit slots, 52 try sums of
        // twenty 10⁶-scaled distributions (below 2²⁶) two groups of 39 and
        // full `u64`s four groups of 14; at the test size 7 small values are
        // one group of 36.
        for (bits, len, need, width) in [
            (1024, 56, 11, 18),
            (1024, 56, 18, 18),
            (1024, 56, 19, 36),
            (1024, 52, 26, 39),
            (1024, 56, 64, 64),
            (1024, 10, 1, 64),
            (256, 7, 1, 36),
            (256, 7, 37, 63),
            (256, 7, 64, 64),
            (256, 70, 16, 18),
        ] {
            assert_eq!(
                fitted_slot_bits(bits, len, need),
                width,
                "{len} values of {need} bits at {bits}"
            );
        }
        // Every need fits, in the fewest groups, and a length takes at most
        // one width per group count of its 64-bit packing.
        for bits in [256u64, 1024] {
            let capacity = bits - 1;
            for len in 1..=80u64 {
                let widths: std::collections::BTreeSet<u64> = (1..=SLOT_BITS)
                    .map(|need| {
                        let width = fitted_slot_bits(bits, len as usize, need);
                        let groups = len.div_ceil(capacity / width);
                        let at = format!("{len} values of {need} bits at {bits}");
                        assert!(need <= width && width <= SLOT_BITS, "{at}: {width}");
                        assert!(
                            groups == 1 || len.div_ceil(groups - 1) > capacity / need,
                            "{at}: {groups} groups"
                        );
                        width
                    })
                    .collect();
                assert!(widths.len() as u64 <= len.div_ceil(capacity / SLOT_BITS));
            }
        }
    }

    /// The repacking on its own must return every vector of `u64`s at
    /// whatever width its check sizes: a decoding bug would otherwise hide
    /// behind the per-element path. Registry counts `0..=N`; try sums of
    /// twenty 10⁶-scaled distributions, most of each on one class; values
    /// on both sides of `2^s` for each width `s` the length can take;
    /// random and full `u64`s.
    fn the_repacking_returns_the_values_itself(kp: &Keypair, lens: &[usize]) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let bits = kp.public.bits();
        for &len in lens {
            let counts = (0..len as u64)
                .map(|i| if i == 0 { 1000 } else { i * 37 % 1001 })
                .collect();
            let mut tries = vec![0u64; len];
            for contributor in 0..20 {
                tries[contributor * 7 % len] += 900_000;
                for _ in 0..10 {
                    tries[rng.gen_range(0..len)] += 10_000;
                }
            }
            let widths: std::collections::BTreeSet<u64> = (1..=SLOT_BITS)
                .map(|need| fitted_slot_bits(bits, len, need))
                .collect();
            let edges = widths.iter().map(|&s| {
                let below = u64::MAX >> (64 - s);
                let edge = [below, below.wrapping_add(1), below.wrapping_add(2), 3];
                let values = (0..len).map(|i| edge[i % 4]).collect();
                (format!("the edge of {s}-bit slots"), values)
            });
            let cases = [
                ("registry counts".to_string(), counts),
                ("try sums".to_string(), tries),
                (
                    "random u64s".to_string(),
                    (0..len).map(|_| rng.gen()).collect(),
                ),
                ("u64::MAX".to_string(), vec![u64::MAX; len]),
            ];
            for (what, values) in cases.into_iter().chain(edges) {
                let cts: Vec<Ciphertext> = values
                    .iter()
                    .map(|&m| kp.public.encrypt_u64(m, &mut rng))
                    .collect();
                assert_eq!(
                    kp.private.repack(&cts),
                    Some(values),
                    "{what}, {len} elements"
                );
            }
        }
    }

    #[test]
    fn the_repacking_returns_u64_vectors_itself() {
        the_repacking_returns_the_values_itself(&keypair(), &[3, 4, 7, 15, 16, 40, 70]);
    }

    #[test]
    fn the_repacking_returns_paper_sized_vectors_itself() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1024);
        the_repacking_returns_the_values_itself(&Keypair::generate(1024, &mut rng), &[52, 56]);
    }

    #[test]
    fn the_bucket_multi_exponentiation_is_the_product_of_powers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        // 8 and 16 limbs: the legs' width at 512- and 1024-bit keys.
        for bits in [512, 1024] {
            let mut m = rng.gen_biguint(bits);
            m.set_bit(bits - 1, true);
            m.set_bit(0, true);
            let ctx = MontgomeryContext::new(&m);
            let bases: Vec<BigUint> = (0..56).map(|_| rng.gen_biguint_below(&m)).collect();
            let mut arena = ctx.table(bases.len());
            for (i, base) in bases.iter().enumerate() {
                arena.store(i, &ctx.to_montgomery(base));
            }
            let random: Vec<u64> = (0..56).map(|_| rng.gen()).collect();
            let cases = [
                ("zeros", vec![0; 56]),
                ("ones", vec![1; 56]),
                ("u64::MAX", vec![u64::MAX; 56]),
                (
                    "0, 1 and u64::MAX among random weights",
                    (0..56)
                        .map(|i| [0, 1, u64::MAX, random[i]][i % 4])
                        .collect(),
                ),
                (
                    "windows 1 to 14 zero in every weight",
                    random.iter().map(|&w| w & 0xF000_0000_0000_000F).collect(),
                ),
                (
                    "one non-zero window per weight",
                    (0..56).map(|i| 0x9u64 << (4 * (i % 16))).collect(),
                ),
                ("one element", vec![random[0]]),
                ("56 random weights", random.clone()),
            ];
            for (what, weights) in cases {
                let expected = weights
                    .iter()
                    .zip(&bases)
                    .fold(BigUint::one(), |acc, (&w, b)| {
                        acc * b.modpow(&BigUint::from(w), &m) % &m
                    });
                assert_eq!(
                    multi_exp(&ctx, &arena, &weights),
                    expected,
                    "{what} at {bits} bits"
                );
            }
        }
    }

    /// Legs, not elements, are the pool items; the error is still the
    /// element-by-element one. At the 256-bit test size a batch of eight
    /// or more fans its legs out and a shorter one runs inline, so lengths
    /// 1–9 cover both routes (and `--no-default-features` the serial one
    /// throughout). A non-unit at every position is the batch's error, and
    /// beside a plaintext too wide for `u64` the lower index names it.
    #[test]
    fn a_batch_fanned_out_by_legs_keeps_the_per_element_error_order() {
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let (p, q) = kp.private.primes();
        let wide = kp
            .public
            .encrypt(&(BigUint::one() << 70u32), &mut rng)
            .unwrap();
        let too_wide = HeError::PlaintextTooWide {
            bits: 71,
            max_bits: SLOT_BITS,
        };
        for len in 1..=9usize {
            let honest: Vec<Ciphertext> = (0..len as u64)
                .map(|m| kp.public.encrypt_u64(m, &mut rng))
                .collect();
            for at in 0..len {
                for bad in [p, q] {
                    let mut cts = honest.clone();
                    cts[at] = Ciphertext::from_raw(bad.clone(), kp.public.clone());
                    let what = format!("{bad} at {at} of {len}");
                    let expected = HeError::CiphertextNotInvertible;
                    assert_eq!(
                        kp.private.decrypt_batch(&cts),
                        Err(expected.clone()),
                        "{what}"
                    );
                    for w in (0..len).filter(|&w| w != at) {
                        let mut mixed = cts.clone();
                        mixed[w] = wide.clone();
                        let first = if w < at { &too_wide } else { &expected };
                        assert_eq!(
                            kp.private.decrypt_u64_each(&mixed),
                            Err(first.clone()),
                            "{what}, too wide at {w}"
                        );
                    }
                }
            }
            let values = kp.private.decrypt_u64_each(&honest).unwrap();
            assert_eq!(values, (0..len as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ciphertexts_sharing_a_factor_with_n_are_typed_errors_on_every_decrypt_path() {
        use crate::{EncryptedVector, PackedEncryptedVector, Packer};
        let kp = keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (p, q) = kp.private.primes();
        let hostile = [
            BigUint::zero(),
            p.clone(),
            q * BigUint::from(3u64),
            kp.public.n().clone(),
        ];
        for bad in hostile {
            // Short (per-element) and repacked lengths, the bad element
            // first, inside a group and last.
            for (len, at) in [(1, 0), (2, 1), (7, 0), (7, 4), (7, 6)] {
                let mut cts: Vec<Ciphertext> = (0..len as u64)
                    .map(|m| kp.public.encrypt_u64(m, &mut rng))
                    .collect();
                cts[at] = Ciphertext::from_raw(bad.clone(), kp.public.clone());
                let v = EncryptedVector::from_ciphertexts(&kp.public, cts).unwrap();
                let expected = HeError::CiphertextNotInvertible;
                let at = format!("{bad} at {at} of {len}");
                assert_eq!(v.decrypt_u64(&kp.private).unwrap_err(), expected, "{at}");
                assert_eq!(v.decrypt(&kp.private).unwrap_err(), expected, "{at}");
                let packer = Packer::new(16, crate::TEST_KEY_BITS);
                let lanes = len * packer.slots_per_plaintext().unwrap();
                let packed = PackedEncryptedVector::from_vector(v, lanes, packer).unwrap();
                assert_eq!(
                    packed.decrypt_u64(&kp.private).unwrap_err(),
                    expected,
                    "{at}"
                );
            }
            let ct = Ciphertext::from_raw(bad, kp.public.clone());
            assert_eq!(
                kp.private.decrypt_i64(&ct),
                Err(HeError::CiphertextNotInvertible)
            );
        }
    }
}
