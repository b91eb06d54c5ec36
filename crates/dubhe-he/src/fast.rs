//! Precomputed-base Paillier encryption — the hot path.
//!
//! Textbook Paillier encryption spends almost all of its time computing the
//! randomness component `rⁿ mod n²`: an exponentiation with an *n-sized*
//! (1024–2048 bit) exponent, repeated for every registry slot of every
//! client. This module replaces it with the standard short-exponent,
//! fixed-base construction:
//!
//! 1. **Once per key**: pick a random `g₀ ∈ Z*_n` and precompute
//!    `h = g₀ⁿ mod n²`. `h` is a uniformly random *n-th residue*, i.e. a
//!    random element of exactly the subgroup textbook randomness `rⁿ` lives
//!    in.
//! 2. **Once per key**: build a Lim–Lee fixed-base comb for `h` (CRYPTO
//!    '94): the exponent is read as `COMB_ROWS` rows of `COMB_COLUMNS`
//!    bits, and the table holds the product of `h^(2^(a·i))` over every
//!    non-empty subset of rows `i` — 255 operands in one limb arena, built
//!    by 224 squarings and 247 multiplications. Any power of `h` with a
//!    [`RANDOMNESS_EXPONENT_BITS`]-bit exponent then costs one squaring and
//!    at most one multiplication per *column*: 31 + 32.
//! 3. **Per ciphertext**: sample a short random exponent `x` and encrypt as
//!    `c = (1 + m·n) · hˣ mod n²`.
//!
//! ## Security argument
//!
//! Replacing `rⁿ` (uniform in the n-th–residue subgroup) by `hˣ` (a random
//! power of a random subgroup element) with a `2λ`-bit exponent is the
//! standard short-exponent optimisation for Paillier: it is exactly the
//! scheme described in §6 of Damgård–Jurik ("the subgroup variant"), and it
//! is what production libraries ship — python-paillier (used by the paper)
//! exposes the same trade-off as `EncryptedNumber`'s obfuscation with
//! `r_value` precomputation, and rust-paillier/libpaillier provide
//! "precomputed randomness" APIs built on the same identity. Distinguishing
//! `hˣ` from uniform in the subgroup is the short-exponent discrete-log
//! assumption with a `2λ = 256`-bit exponent, which comfortably matches the
//! ~112–128-bit security of 2048-bit moduli. Ciphertexts remain *bitwise
//! ordinary* Paillier ciphertexts: decryption, homomorphic addition and all
//! transport paths are unchanged, which the property tests assert.
//!
//! ## Expected speed-up
//!
//! Binary exponentiation with an n-sized exponent costs ≈ `|n|` squarings
//! plus `|n|/2` multiplications mod `n²`; the comb costs
//! `2 · COMB_COLUMNS − 1` operations, half of them squarings. At 1024-bit
//! keys that is ≈ 1536 vs 63 heavy operations — an order of magnitude on the
//! randomness component, and 5–10× end-to-end once the (cheap) message
//! component and final multiplication are included. The `benchmark/`
//! crate's `bigint.modpow_us` and `he.encrypt_vec_ms` rungs measure the two
//! sides.
//!
//! ## The CRT-split tier
//!
//! Parties that hold the *keypair* — in Dubhe, every selection client and
//! the agent, but never the coordinator — can do better still:
//! [`CrtEncryptor`] evaluates the same comb modulo `p²` and `q²`
//! (half-width operands, so each multiplication costs about a quarter of its
//! `n²` counterpart), entirely inside the Montgomery domain of the private
//! key's cached contexts, and Garner-recombines the two legs to the unique
//! residue mod `n²`. Because both tiers share one `h` per key handle and the
//! same exponent sampling, their ciphertexts are **bit-for-bit identical**
//! given the same randomness stream.
//!
//! The two per-leg combs are a pure function of `(p, q, h)`, so they are
//! built **once per key per process**: the first [`CrtEncryptor`] made from
//! any clone of a [`PrivateKey`] builds them (≈ 0.35 ms at 1024 bits, 64 KiB
//! resident) into the key's shared half, and every later one — the other
//! N − 1 clients of a simulated epoch, which all hold clones of the one
//! dispatched key — is two refcount bumps. That base also owns the batch
//! counter: elements encrypted under the key by *any* of its encryptors
//! count towards one 512-element threshold, so a cohort that together
//! encrypts past it widens the tables once (2 MiB at 1024 bits, 0.5 MiB at
//! 256) and all of it walks them from then on; the base and its tables go
//! when the last clone of the key does. This is sharing inside one process
//! only: a real client, alone in its process with a key it decoded from the
//! wire, builds one comb per key exactly as before — which is why the table
//! is a comb and not the larger one a long-lived encryptor would amortise.
//! What went away is a simulator paying for it N times. The base serves the
//! `h` it was built from; a [`PublicKey`] handle that sampled another `h`
//! (the same modulus decoded twice) gets combs of its own, built per
//! encryptor and not kept, and stays bit-identical to its own precomputed
//! tier. (The benchmark's `he.encryptor_build_ms` / `he.encrypt_vec_ms` rungs
//! reuse one key, so they time the shared path; the cold build is pinned in
//! `tests/alloc_counting.rs`.)
//! [`EpochEncryptor::for_key_material`] picks the best tier the key
//! material in hand supports.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use num_bigint::{
    BigUint, MontgomeryContext, MontgomeryOperand, MontgomeryScratch, MontgomeryTable, RandBigInt,
};
use num_traits::{One, Zero};
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::error::HeError;
use crate::keys::{Keypair, PrivateKey, PublicKey};
use crate::vector::{map_indexed, Work};

/// Bit length of the short randomness exponent `x` (≈ 2× the 128-bit
/// security level targeted by 2048-bit moduli).
pub const RANDOMNESS_EXPONENT_BITS: u64 = 256;

/// Rows of the fixed-base comb: the table holds `2^COMB_ROWS − 1` operands.
/// Picked from {6, 7, 8} on the benchmark ladder (CHANGES.md, PR 16): 8 is
/// the only candidate whose per-exponent walk is no dearer than the 64
/// multiplications of the table it replaced, and it still builds in half the
/// operations. Not a parameter.
const COMB_ROWS: usize = 8;

/// Columns of the comb — bits per row, and squarings per exponent.
const COMB_COLUMNS: usize = (RANDOMNESS_EXPONENT_BITS as usize).div_ceil(COMB_ROWS);

/// What one exponent costs on the comb, for the fan-out estimates: a
/// squaring and (all but one time in 256) a multiplication per column.
const COMB_STEPS: u64 = 2 * COMB_COLUMNS as u64;

/// Window width of the batch-only wide table (8 bits → 255 stored powers
/// per window): one multiplication per byte of the exponent, no squarings.
const WIDE_WINDOW_BITS: usize = 8;

/// Cumulative elements a key's encryptors of one tier must have
/// batch-encrypted before the tier's 8-bit wide tables are built. Expanding
/// a wide table costs a 248-squaring chain plus `32 rows × 254`
/// multiplications per leg, and a walk over it spends 32 multiplications per
/// exponent where the comb spends 31 squarings (≈ 0.85 of a multiplication
/// each) and 32 multiplications — ~27 saved per element, so the break-even
/// sits near 320 elements per leg; a key that only ever encrypts one
/// registry (a real client: one 56-element vector per key) stays on the
/// comb and never pays the expansion.
const WIDE_TABLE_MIN_ELEMENTS: u64 = 512;

/// Elements per interleaved-walk chunk: one scratch arena (and one pass of
/// table-row reuse) covers this many exponents, while leaving registry-sized
/// batches enough chunks to fan out over cores.
pub(crate) const BATCH_CHUNK: usize = 4;

/// The fixed-base state for `h = g₀ⁿ mod n²`.
///
/// Built lazily, once per key, behind the shared [`PublicKey`] handle; every
/// ciphertext produced under the key amortises it. Generated keys (odd `n²`)
/// hold a comb in the Montgomery domain of the key's cached context; a
/// forged even-modulus key has no such domain and takes the generic `modpow`
/// with identical results.
#[derive(Debug)]
pub(crate) enum FastBase {
    /// Montgomery-domain comb + batch state (the real-key path).
    Mont {
        leg: WindowLeg,
        batch: BatchState<WideLeg>,
    },
    /// Just `h`, for even (forged) moduli.
    Plain { h: BigUint },
}

impl FastBase {
    /// Builds the comb for the key's shared subgroup generator `h` (see
    /// [`sample_subgroup_h`] — both encryptor tiers derive from the same
    /// `h`, which is what keeps their ciphertexts interchangeable).
    pub(crate) fn new(public: &PublicKey, h: &BigUint) -> Self {
        match public.mont_n2() {
            Some(ctx) => FastBase::Mont {
                leg: WindowLeg::new(ctx, h, &mut MontgomeryScratch::new()),
                batch: BatchState::default(),
            },
            None => FastBase::Plain { h: h.clone() },
        }
    }

    /// `hˣ mod n²`.
    pub(crate) fn pow(&self, x: &BigUint, n_squared: &BigUint) -> BigUint {
        match self {
            FastBase::Mont { leg, .. } => leg.pow(x),
            FastBase::Plain { h } => h.modpow(x, n_squared),
        }
    }

    /// Batch `hˣ mod n²` for a whole exponent vector: the interleaved
    /// multi-exponentiation walk when there is a comb, the scalar path
    /// otherwise. Bit-identical to mapping [`pow`](Self::pow).
    pub(crate) fn pow_batch(&self, xs: &[BigUint], n_squared: &BigUint) -> Vec<BigUint> {
        match self {
            FastBase::Mont { leg, batch } => {
                let wide = batch.wide_for(xs.len(), || WideLeg::new(leg));
                let chunks: Vec<&[BigUint]> = xs.chunks(BATCH_CHUNK).collect();
                let work = chunk_work(1, leg.ctx.modulus());
                let per_chunk = map_indexed(chunks.len(), work, |ci| {
                    leg.pow_chunk(wide, chunks[ci], &mut MontgomeryScratch::new())
                });
                per_chunk.concat()
            }
            FastBase::Plain { .. } => xs.iter().map(|x| self.pow(x, n_squared)).collect(),
        }
    }
}

/// Cost of one [`BATCH_CHUNK`] of exponents through
/// [`WindowLeg::pow_chunk`] on `legs` legs under `modulus`: the comb's
/// [`COMB_STEPS`] per exponent (a walk over wide tables halves it; the
/// estimate keeps the upper figure).
pub(crate) fn chunk_work(legs: u64, modulus: &BigUint) -> Work {
    Work::new(legs * BATCH_CHUNK as u64 * COMB_STEPS, modulus)
}

/// Shared lazy-upgrade state for the batch evaluator of one encryptor tier:
/// counts cumulative batch-encrypted elements and expands the 8-bit wide
/// tables (`W` is one [`WideLeg`] or a pair) once the volume justifies it.
#[derive(Debug)]
pub(crate) struct BatchState<W> {
    /// Cumulative elements routed through the batch path.
    seen: AtomicU64,
    /// The lazily expanded wide tables.
    wide: OnceLock<W>,
}

impl<W> Default for BatchState<W> {
    fn default() -> Self {
        BatchState {
            seen: AtomicU64::new(0),
            wide: OnceLock::new(),
        }
    }
}

impl<W> BatchState<W> {
    /// Accounts `count` more elements and returns the wide tables if the
    /// cumulative volume has crossed [`WIDE_TABLE_MIN_ELEMENTS`] (expanding
    /// them on the first crossing).
    fn wide_for(&self, count: usize, build: impl FnOnce() -> W) -> Option<&W> {
        let seen = self.seen.fetch_add(count as u64, Ordering::Relaxed) + count as u64;
        (seen >= WIDE_TABLE_MIN_ELEMENTS).then(|| self.wide.get_or_init(build))
    }
}

/// Samples `g₀` and computes the subgroup generator `h = g₀ⁿ mod n²` — the
/// one full-width exponentiation the fixed-base scheme ever pays, through
/// the key's cached Montgomery context. Cached once per key handle (see
/// `PublicKey::subgroup_h`); both encryptor tiers consume the same `h`, so
/// neither needs the other's tables to exist.
pub(crate) fn sample_subgroup_h<R: Rng + ?Sized>(public: &PublicKey, rng: &mut R) -> BigUint {
    let n = public.n();
    let g0 = loop {
        let candidate = rng.gen_biguint_below(n);
        if !candidate.is_zero() {
            break candidate;
        }
    };
    public.pow_mod_n_squared(&g0, n)
}

/// The table digit made of `count` bits of `x`, `stride` apart from bit
/// `start` up: a comb column (`stride = COMB_COLUMNS`, one bit per row) or a
/// window of the wide table (`stride = 1`).
fn gather_bits(x: &BigUint, start: usize, stride: usize, count: usize) -> usize {
    (0..count).fold(0, |digit, j| {
        digit | (x.bit((start + j * stride) as u64) as usize) << j
    })
}

/// Fast Paillier encryptor bound to one shared [`PublicKey`].
///
/// Construction forces the key's fixed-base table to exist (building it on
/// first use); encryption then replaces the full-width `rⁿ` exponentiation
/// with a short windowed `hˣ`. Ciphertexts decrypt identically to the
/// textbook path — the property tests in `tests/proptest_he.rs` pin this.
///
/// `EncryptedVector::encrypt_u64` and the secure protocol in `dubhe-select`
/// go through this type by default.
#[derive(Debug, Clone)]
pub struct PrecomputedEncryptor {
    public: PublicKey,
}

impl PrecomputedEncryptor {
    /// Binds to `public`, building the shared fixed-base table if this key
    /// has never encrypted fast before.
    pub fn new<R: Rng + ?Sized>(public: &PublicKey, rng: &mut R) -> Self {
        public.fast_base(rng);
        PrecomputedEncryptor {
            public: public.clone(),
        }
    }

    /// The key this encryptor is bound to.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }
}

impl Encryptor for PrecomputedEncryptor {
    fn public_key(&self) -> &PublicKey {
        &self.public
    }

    fn randomizer_for(&self, x: &BigUint) -> BigUint {
        self.public
            .fast_base(&mut NoRng)
            .pow(x, self.public.n_squared())
    }

    fn randomizers_for(&self, xs: &[BigUint]) -> Vec<BigUint> {
        self.public
            .fast_base(&mut NoRng)
            .pow_batch(xs, self.public.n_squared())
    }
}

/// A source of Paillier ciphertext randomness bound to one shared
/// [`PublicKey`]: the common interface of [`PrecomputedEncryptor`] (needs
/// only the public key) and [`CrtEncryptor`] (exploits the private factors).
/// Bulk vector encryption and the protocol roles are generic over it, the
/// scalar `encrypt*` surface is provided once here, and every
/// implementation produces bit-identical ciphertexts from the same
/// randomness stream — only [`randomizer_for`](Self::randomizer_for)'s
/// arithmetic route differs.
pub trait Encryptor: Sync {
    /// The key ciphertexts are produced under.
    fn public_key(&self) -> &PublicKey;

    /// The randomness component `hˣ mod n²` for a pre-sampled exponent
    /// `x`. Deterministic: same `x`, same component, whichever
    /// implementation computes it. Total in `x`: the fixed-base table
    /// serves the short ([`RANDOMNESS_EXPONENT_BITS`]-bit) exponents
    /// encryption samples, a wider one takes a generic exponentiation.
    fn randomizer_for(&self, x: &BigUint) -> BigUint;

    /// The randomness components for a whole exponent vector at once.
    /// Semantically `xs.iter().map(|x| self.randomizer_for(x))` — and
    /// bit-identical to it, which the property tests pin — but
    /// implementations route it through the simultaneous
    /// multi-exponentiation evaluator: an interleaved comb walk over all
    /// exponents with shared table rows, in-place Montgomery multiplies
    /// through per-chunk scratch arenas, and (past a volume threshold)
    /// lazily widened 8-bit tables. Registry-vector encryption calls this
    /// once per vector.
    fn randomizers_for(&self, xs: &[BigUint]) -> Vec<BigUint> {
        let work = Work::new(COMB_STEPS, self.public_key().n_squared());
        map_indexed(xs.len(), work, |i| self.randomizer_for(&xs[i]))
    }

    /// Samples a fresh randomness component `hˣ mod n²`.
    fn randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let x = sample_short_exponent(rng);
        self.randomizer_for(&x)
    }

    /// Encrypts an arbitrary-precision non-negative integer.
    ///
    /// Returns [`HeError::PlaintextTooLarge`] if `m >= n`.
    fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<Ciphertext, HeError> {
        let public = self.public_key();
        if m >= public.n() {
            return Err(HeError::PlaintextTooLarge);
        }
        // g⁰ = 1 and randomizers come out reduced below n², so encrypting
        // zero (most elements of a one-hot registry) is the randomizer
        // itself — no full-width multiply-and-divide.
        let value = if m.is_zero() {
            self.randomizer(rng)
        } else {
            (public.g_to_m(m) * self.randomizer(rng)) % public.n_squared()
        };
        Ok(Ciphertext::from_raw(value, public.clone()))
    }

    /// Encrypts a `u64` plaintext.
    fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Ciphertext {
        self.encrypt(&BigUint::from(m), rng)
            .expect("u64 always fits in a >=64-bit modulus")
    }

    /// Encrypts a signed integer using the `n/2` wrap-around convention.
    fn encrypt_i64<R: Rng + ?Sized>(&self, m: i64, rng: &mut R) -> Ciphertext {
        let encoded = self.public_key().encode_i64(m);
        self.encrypt(&encoded, rng)
            .expect("encoded value is below n")
    }
}

/// Pre-samples short exponents for `count` ciphertexts. Splitting the
/// (cheap, sequential) RNG draws from the (heavy, parallelisable) table
/// exponentiations is what lets vector encryption fan out over cores.
pub(crate) fn sample_exponents<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<BigUint> {
    (0..count).map(|_| sample_short_exponent(rng)).collect()
}

/// One fixed-base comb leg: `h mod s` for a leg modulus `s` (`n²` for the
/// single-modulus tier, `p²`/`q²` for the CRT tier), held entirely in the
/// Montgomery domain of the key's cached context for `s`, so a power of `h`
/// is a chain of in-place Montgomery squarings and multiplications with a
/// single conversion out.
#[derive(Debug)]
pub(crate) struct WindowLeg {
    /// The key's Montgomery context for this leg's modulus.
    ctx: MontgomeryContext,
    /// `table[d − 1]` = Montgomery form of `∏ h^(2^(a·i)) mod s` over the
    /// set bits `i` of `d`, with `a =` [`COMB_COLUMNS`]; `table[0]` is `h`.
    table: MontgomeryTable,
}

impl WindowLeg {
    fn new(ctx: &MontgomeryContext, h: &BigUint, scratch: &mut MontgomeryScratch) -> Self {
        let mut table = ctx.table((1 << COMB_ROWS) - 1);
        let mut row_base = ctx.to_montgomery(h);
        let mut product = row_base.clone();
        for row in 0..COMB_ROWS {
            if row > 0 {
                for _ in 0..COMB_COLUMNS {
                    ctx.montgomery_sqr_assign(&mut row_base, scratch);
                }
            }
            // This row alone, then joined to every subset of the rows below.
            let bit = 1 << row;
            table.store(bit - 1, &row_base);
            for below in 1..bit {
                table.load(below - 1, &mut product);
                ctx.montgomery_mul_assign(&mut product, &row_base, scratch);
                table.store((bit | below) - 1, &product);
            }
        }
        WindowLeg {
            ctx: ctx.clone(),
            table,
        }
    }

    /// `hˣ mod s`: a one-exponent [`pow_chunk`](Self::pow_chunk).
    fn pow(&self, x: &BigUint) -> BigUint {
        self.pow_chunk(None, std::slice::from_ref(x), &mut MontgomeryScratch::new())
            .pop()
            .expect("one exponent in, one power out")
    }

    /// Simultaneous multi-exponentiation of one chunk of exponents: the
    /// column loop is outermost and the per-exponent accumulators advance
    /// together — square, then multiply by the column's table entry unless
    /// the column is all zeros — so the table is walked once per chunk (not
    /// once per element) and every operation is in place through one shared
    /// scratch arena. With `wide` tables the walk is one multiplication per
    /// byte of the exponent and no squarings; either way the result is the
    /// unique `hˣ mod s`. An exponent wider than the tables cover takes the
    /// context's generic `modpow` instead.
    fn pow_chunk(
        &self,
        wide: Option<&WideLeg>,
        xs: &[BigUint],
        scratch: &mut MontgomeryScratch,
    ) -> Vec<BigUint> {
        let mut accs: Vec<Option<MontgomeryOperand>> = vec![None; xs.len()];
        let steps = wide.map_or(COMB_COLUMNS, |w| w.rows.len());
        for step in (0..steps).rev() {
            let (table, start, stride, bits) = match wide {
                Some(w) => (&w.rows[step], step * WIDE_WINDOW_BITS, 1, WIDE_WINDOW_BITS),
                None => (&self.table, step, COMB_COLUMNS, COMB_ROWS),
            };
            for (acc, x) in accs.iter_mut().zip(xs) {
                if let (Some(a), None) = (acc.as_mut(), wide) {
                    self.ctx.montgomery_sqr_assign(a, scratch);
                }
                let digit = gather_bits(x, start, stride, bits);
                if digit == 0 {
                    continue;
                }
                match acc.as_mut() {
                    Some(a) => self
                        .ctx
                        .montgomery_mul_entry_assign(a, table, digit - 1, scratch),
                    None => *acc = Some(table.entry(digit - 1)),
                }
            }
        }
        accs.iter()
            .zip(xs)
            .map(|(acc, x)| match acc {
                _ if x.bits() > RANDOMNESS_EXPONENT_BITS => {
                    let h = self.ctx.from_montgomery(&self.table.entry(0));
                    self.ctx.modpow(&h, x)
                }
                None => BigUint::one(),
                Some(a) => self.ctx.from_montgomery(a),
            })
            .collect()
    }
}

/// The 8-bit wide-window companion of a [`WindowLeg`]: `rows[w][d − 1]` =
/// Montgomery form of `h^(d·256ʷ) mod s` for `d ∈ [1, 255]`. Expanded lazily
/// from the comb's `h` once an encryptor has batch-processed enough elements
/// to amortise the `32 × 254` multiplications per leg.
#[derive(Debug)]
pub(crate) struct WideLeg {
    rows: Vec<MontgomeryTable>,
}

impl WideLeg {
    fn new(narrow: &WindowLeg) -> Self {
        let ctx = &narrow.ctx;
        let windows = (RANDOMNESS_EXPONENT_BITS as usize).div_ceil(WIDE_WINDOW_BITS);
        // The row bases h^(256ʷ): one squaring chain up from h.
        let mut scratch = MontgomeryScratch::new();
        let mut base = narrow.table.entry(0);
        let mut bases = vec![base.clone()];
        for _ in 1..windows {
            for _ in 0..WIDE_WINDOW_BITS {
                ctx.montgomery_sqr_assign(&mut base, &mut scratch);
            }
            bases.push(base.clone());
        }
        // Rows are independent given their bases, so the (one-off)
        // expansion fans out over cores.
        let digits = (1 << WIDE_WINDOW_BITS) - 1;
        let row = Work::new(digits as u64 - 1, ctx.modulus());
        let rows = map_indexed(windows, row, |w| {
            let mut scratch = MontgomeryScratch::new();
            let mut row = ctx.table(digits);
            let mut power = bases[w].clone();
            row.store(0, &power);
            for d in 1..digits {
                ctx.montgomery_mul_assign(&mut power, &bases[w], &mut scratch);
                row.store(d, &power);
            }
            row
        });
        WideLeg { rows }
    }
}

/// The CRT encryption base of one private key: the fixed-base state for
/// `h` under `p²` and `q²`, plus what recombines the two legs. A pure
/// function of `(p, q, h)`, built once per key per process and held behind
/// the shared [`PrivateKey`] handle (`PrivateKey::crt_base`), where every
/// [`CrtEncryptor`] of the key finds it. `h mod p²` next to the public `h`
/// gives the factors away, so the base is as secret as they are.
pub(crate) struct CrtBase {
    /// The subgroup generator the combs were built from.
    h: BigUint,
    p_leg: WindowLeg,
    q_leg: WindowLeg,
    /// `(q²)⁻¹ mod p²` (Garner's recombination constant), stored in the
    /// Montgomery domain of the p² context so the recombination reduction
    /// is one Montgomery multiply — `(q2_inv·R)·diff·R⁻¹ = q2_inv·diff mod
    /// p²` — instead of a full-width multiply plus a Knuth division.
    q2_inv_mont: MontgomeryOperand,
    /// Batch-volume counter + lazily widened per-leg 8-bit tables: every
    /// encryptor of the key counts into it, so the key as a whole amortises
    /// one expansion.
    batch: BatchState<(WideLeg, WideLeg)>,
}

impl fmt::Debug for CrtBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CrtBase(<redacted>)")
    }
}

impl CrtBase {
    /// Builds the two per-leg Montgomery combs for `h` through the private
    /// key's cached contexts.
    pub(crate) fn new(private: &PrivateKey, h: &BigUint) -> Result<Self, HeError> {
        let (p_ctx, q_ctx) = private.crt_contexts();
        let q2_inv = private.q_squared_inverse().ok_or(HeError::MalformedKey {
            detail: "q² is not invertible modulo p²",
        })?;
        let mut scratch = MontgomeryScratch::new();
        Ok(CrtBase {
            h: h.clone(),
            p_leg: WindowLeg::new(p_ctx, h, &mut scratch),
            q_leg: WindowLeg::new(q_ctx, h, &mut scratch),
            q2_inv_mont: p_ctx.to_montgomery(&q2_inv),
            batch: BatchState::default(),
        })
    }

    /// `true` if this base serves `h` — the combs are of no use to a public
    /// handle that sampled another generator.
    pub(crate) fn built_from(&self, h: &BigUint) -> bool {
        self.h == *h
    }

    /// Garner recombination of the two leg residues to the unique residue
    /// below `n² = p²·q²`: `c = a_q + q²·((a_p − a_q)·(q²)⁻¹ mod p²)`.
    fn recombine(&self, a_p: BigUint, a_q: BigUint) -> BigUint {
        let (p_squared, q_squared) = (self.p_leg.ctx.modulus(), self.q_leg.ctx.modulus());
        let a_q_mod_p = &a_q % p_squared;
        let diff = if a_p >= a_q_mod_p {
            a_p - a_q_mod_p
        } else {
            p_squared - (a_q_mod_p - a_p)
        };
        let t = self
            .p_leg
            .ctx
            .montgomery_mul_residue(&self.q2_inv_mont, &diff)
            .raw_residue();
        a_q + q_squared * t
    }

    /// `hˣ mod n²`.
    fn pow(&self, x: &BigUint) -> BigUint {
        self.recombine(self.p_leg.pow(x), self.q_leg.pow(x))
    }

    /// Batch `hˣ mod n²`: the interleaved walk down both legs, chunk by
    /// chunk. Bit-identical to mapping [`pow`](Self::pow).
    fn pow_batch(&self, xs: &[BigUint]) -> Vec<BigUint> {
        let wide = self.batch.wide_for(xs.len(), || {
            (WideLeg::new(&self.p_leg), WideLeg::new(&self.q_leg))
        });
        // Both legs share a modulus width (p² and q² of equal-size primes).
        let chunks: Vec<&[BigUint]> = xs.chunks(BATCH_CHUNK).collect();
        let work = chunk_work(2, self.p_leg.ctx.modulus());
        let per_chunk = map_indexed(chunks.len(), work, |ci| {
            let (chunk, mut scratch) = (chunks[ci], MontgomeryScratch::new());
            let a_p = self
                .p_leg
                .pow_chunk(wide.map(|w| &w.0), chunk, &mut scratch);
            let a_q = self
                .q_leg
                .pow_chunk(wide.map(|w| &w.1), chunk, &mut scratch);
            a_p.into_iter()
                .zip(a_q)
                .map(|(p, q)| self.recombine(p, q))
                .collect::<Vec<_>>()
        });
        per_chunk.concat()
    }
}

/// CRT-split fast Paillier encryptor — the hot path when the *keypair* is
/// available (clients and the agent hold it; the coordinator, which never
/// sees the private key, structurally cannot build one).
///
/// Instead of evaluating the fixed-base comb modulo `n²`, the randomness
/// component `hˣ` is evaluated modulo `p²` and `q²` — half-width operands,
/// so each multiplication costs a quarter of its full-width counterpart —
/// through the private key's cached Montgomery contexts, and the two legs
/// are CRT-recombined to the unique residue mod `n² = p²·q²`. The output is
/// **bit-for-bit identical** to [`PrecomputedEncryptor`] for the same key
/// handle and randomness stream (both compute the same `hˣ mod n²`), which
/// the property tests pin; only the arithmetic route differs.
///
/// The encryptor itself is two handles: the combs live with the private key
/// and are shared by every encryptor made from any clone of it.
#[derive(Debug, Clone)]
pub struct CrtEncryptor {
    public: PublicKey,
    base: Arc<CrtBase>,
}

impl CrtEncryptor {
    /// Binds to a keypair, sampling (or reusing) the key's shared subgroup
    /// generator and building (or reusing) its two per-leg Montgomery combs.
    pub fn new<R: Rng + ?Sized>(keypair: &Keypair, rng: &mut R) -> Result<Self, HeError> {
        CrtEncryptor::from_keys(&keypair.public, &keypair.private, rng)
    }

    /// [`new`](Self::new) from the two key halves. Returns
    /// [`HeError::KeyMismatch`] if `private` does not belong to `public`.
    pub fn from_keys<R: Rng + ?Sized>(
        public: &PublicKey,
        private: &PrivateKey,
        rng: &mut R,
    ) -> Result<Self, HeError> {
        if !private.public.same_key(public) {
            return Err(HeError::KeyMismatch);
        }
        // The same h = g₀ⁿ as the single-modulus path: encryptors on the
        // same key handle share one subgroup generator, which is what makes
        // their outputs interchangeable bit for bit — without forcing the
        // full-width n² comb (which only the precomputed tier uses) to
        // exist.
        let h = public.subgroup_h(rng);
        Ok(CrtEncryptor {
            public: public.clone(),
            base: private.crt_base(h)?,
        })
    }
}

impl Encryptor for CrtEncryptor {
    fn public_key(&self) -> &PublicKey {
        &self.public
    }

    fn randomizer_for(&self, x: &BigUint) -> BigUint {
        self.base.pow(x)
    }

    fn randomizers_for(&self, xs: &[BigUint]) -> Vec<BigUint> {
        self.base.pow_batch(xs)
    }
}

/// The encryptor an epoch participant uses, chosen from the key material it
/// holds: parties with the private key (selection clients, the agent, the
/// simulator) run the CRT-split path, public-key-only parties the
/// single-modulus precomputed path. The choice is invisible downstream —
/// both produce bit-identical ciphertexts from the same randomness stream.
#[derive(Debug, Clone)]
pub enum EpochEncryptor {
    /// Public-key-only fixed-base path.
    Precomputed(PrecomputedEncryptor),
    /// CRT-split `p²`/`q²` path (requires the private factors).
    Crt(CrtEncryptor),
}

impl EpochEncryptor {
    /// Picks the fastest encryptor the given key material supports. Falls
    /// back to the precomputed path if the private half is absent (or, for a
    /// forged key, fails CRT precomputation).
    pub fn for_key_material<R: Rng + ?Sized>(
        public: &PublicKey,
        private: Option<&PrivateKey>,
        rng: &mut R,
    ) -> Self {
        if let Some(sk) = private {
            if let Ok(crt) = CrtEncryptor::from_keys(public, sk, rng) {
                return EpochEncryptor::Crt(crt);
            }
        }
        EpochEncryptor::Precomputed(PrecomputedEncryptor::new(public, rng))
    }

    /// `true` if this is the CRT-split path.
    pub fn is_crt(&self) -> bool {
        matches!(self, EpochEncryptor::Crt(_))
    }
}

impl Encryptor for EpochEncryptor {
    fn public_key(&self) -> &PublicKey {
        match self {
            EpochEncryptor::Precomputed(e) => e.public_key(),
            EpochEncryptor::Crt(e) => e.public_key(),
        }
    }

    fn randomizer_for(&self, x: &BigUint) -> BigUint {
        match self {
            EpochEncryptor::Precomputed(e) => e.randomizer_for(x),
            EpochEncryptor::Crt(e) => e.randomizer_for(x),
        }
    }

    fn randomizers_for(&self, xs: &[BigUint]) -> Vec<BigUint> {
        match self {
            EpochEncryptor::Precomputed(e) => e.randomizers_for(xs),
            EpochEncryptor::Crt(e) => e.randomizers_for(xs),
        }
    }
}

/// Samples a non-zero [`RANDOMNESS_EXPONENT_BITS`]-bit exponent.
fn sample_short_exponent<R: Rng + ?Sized>(rng: &mut R) -> BigUint {
    loop {
        let x = rng.gen_biguint(RANDOMNESS_EXPONENT_BITS);
        if !x.is_zero() {
            return x;
        }
    }
}

/// Placeholder RNG for paths where the fast-base table is guaranteed to be
/// initialised already (constructing a [`PrecomputedEncryptor`] initialises
/// it); reaching this RNG means a missed initialisation, which is a bug.
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u64(&mut self) -> u64 {
        unreachable!("fast-base table must be initialised before randomizer_for")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn setup() -> (crate::PublicKey, crate::PrivateKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA57);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let (pk, sk) = kp.split();
        (pk, sk, rng)
    }

    #[test]
    fn fast_ciphertexts_decrypt_identically_to_naive() {
        let (pk, sk, mut rng) = setup();
        let enc = PrecomputedEncryptor::new(&pk, &mut rng);
        for m in [0u64, 1, 17, 123_456, u32::MAX as u64, u64::MAX] {
            let fast = enc.encrypt_u64(m, &mut rng);
            let naive = pk.encrypt_u64(m, &mut rng);
            assert_eq!(sk.decrypt_u64(&fast), m);
            assert_eq!(sk.decrypt_u64(&fast), sk.decrypt_u64(&naive));
        }
    }

    #[test]
    fn fast_encryption_is_randomised() {
        let (pk, sk, mut rng) = setup();
        let enc = PrecomputedEncryptor::new(&pk, &mut rng);
        let a = enc.encrypt_u64(9, &mut rng);
        let b = enc.encrypt_u64(9, &mut rng);
        assert_ne!(a.raw(), b.raw());
        assert_eq!(sk.decrypt_u64(&a), sk.decrypt_u64(&b));
    }

    #[test]
    fn fast_ciphertexts_compose_homomorphically_with_naive_ones() {
        let (pk, sk, mut rng) = setup();
        let enc = PrecomputedEncryptor::new(&pk, &mut rng);
        let fast = enc.encrypt_u64(20, &mut rng);
        let naive = pk.encrypt_u64(22, &mut rng);
        assert_eq!(sk.decrypt_u64(&fast.add(&naive).unwrap()), 42);
    }

    #[test]
    fn fast_signed_round_trip() {
        let (pk, sk, mut rng) = setup();
        let enc = PrecomputedEncryptor::new(&pk, &mut rng);
        for m in [0i64, 5, -5, i32::MAX as i64, -(i32::MAX as i64)] {
            assert_eq!(sk.decrypt_i64(&enc.encrypt_i64(m, &mut rng)).unwrap(), m);
        }
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let (pk, _sk, mut rng) = setup();
        let enc = PrecomputedEncryptor::new(&pk, &mut rng);
        let too_big = pk.n().clone();
        assert_eq!(
            enc.encrypt(&too_big, &mut rng),
            Err(HeError::PlaintextTooLarge)
        );
    }

    #[test]
    fn encryptors_share_one_table_per_key() {
        let (pk, _sk, mut rng) = setup();
        let a = PrecomputedEncryptor::new(&pk, &mut rng);
        let b = PrecomputedEncryptor::new(&pk, &mut rng);
        // Both encryptors resolve to the same lazily built table: the
        // underlying handle is shared, so pointer equality holds.
        assert!(std::ptr::eq(
            a.public_key().fast_base(&mut rng),
            b.public_key().fast_base(&mut rng),
        ));
    }

    #[test]
    fn epoch_encryptor_picks_the_crt_tier_from_the_key_material() {
        let (pk, sk, mut rng) = setup();
        let with_private = EpochEncryptor::for_key_material(&pk, Some(&sk), &mut rng);
        assert!(with_private.is_crt(), "keypair holders get the CRT tier");
        let public_only = EpochEncryptor::for_key_material(&pk, None, &mut rng);
        assert!(!public_only.is_crt(), "public-only parties cannot");
        // Whichever tier was picked, the ciphertexts interoperate.
        let sum = with_private
            .encrypt_u64(20, &mut rng)
            .add(&public_only.encrypt_u64(22, &mut rng))
            .unwrap();
        assert_eq!(sk.decrypt_u64(&sum), 42);
    }

    #[test]
    fn batch_randomizers_are_bit_identical_to_the_scalar_path() {
        let (pk, sk, mut rng) = setup();
        let crt = CrtEncryptor::from_keys(&pk, &sk, &mut rng).unwrap();
        let pre = PrecomputedEncryptor::new(&pk, &mut rng);
        for len in [0usize, 1, 3, 7, 56] {
            let xs: Vec<BigUint> = (0..len)
                .map(|_| rng.gen_biguint(RANDOMNESS_EXPONENT_BITS))
                .collect();
            let scalar: Vec<BigUint> = xs.iter().map(|x| crt.randomizer_for(x)).collect();
            assert_eq!(crt.randomizers_for(&xs), scalar, "crt tier, len {len}");
            assert_eq!(
                pre.randomizers_for(&xs),
                scalar,
                "precomputed tier, len {len}"
            );
        }
    }

    #[test]
    fn batch_randomizers_stay_bit_identical_past_the_wide_table_upgrade() {
        let (pk, sk, mut rng) = setup();
        let crt = CrtEncryptor::from_keys(&pk, &sk, &mut rng).unwrap();
        let pre = PrecomputedEncryptor::new(&pk, &mut rng);
        let xs: Vec<BigUint> = (0..48)
            .map(|_| rng.gen_biguint(RANDOMNESS_EXPONENT_BITS))
            .collect();
        let scalar: Vec<BigUint> = xs.iter().map(|x| crt.randomizer_for(x)).collect();
        // Drive both tiers' cumulative counters across WIDE_TABLE_MIN_ELEMENTS;
        // every round — before, straddling and after the 8-bit upgrade —
        // must reproduce the scalar path exactly.
        let rounds = (2 * WIDE_TABLE_MIN_ELEMENTS as usize) / xs.len() + 1;
        for round in 0..rounds {
            assert_eq!(crt.randomizers_for(&xs), scalar, "crt tier, round {round}");
            assert_eq!(pre.randomizers_for(&xs), scalar, "pre tier, round {round}");
        }
    }

    /// A copy of the keypair as another process would hold it: decoded from
    /// the canonical bytes, nothing sampled and nothing built.
    fn cold_copy(sk: &crate::PrivateKey) -> (crate::PublicKey, crate::PrivateKey) {
        let mut bytes = Vec::new();
        crate::codec::encode_private_key(sk, &mut bytes);
        let cold = crate::codec::decode_private_key(&mut &bytes[..]).unwrap();
        (cold.public.clone(), cold)
    }

    /// The CRT encryptor `for_key_material` hands a keypair holder.
    fn epoch_crt<R: Rng>(
        pk: &crate::PublicKey,
        sk: &crate::PrivateKey,
        rng: &mut R,
    ) -> CrtEncryptor {
        match EpochEncryptor::for_key_material(pk, Some(sk), rng) {
            EpochEncryptor::Crt(enc) => enc,
            EpochEncryptor::Precomputed(_) => panic!("keypair holders get the CRT tier"),
        }
    }

    #[test]
    fn every_clone_of_a_private_key_is_served_the_same_base() {
        let (pk, sk, mut rng) = setup();
        let first = CrtEncryptor::from_keys(&pk, &sk, &mut rng).unwrap();
        for _ in 0..200 {
            let enc = epoch_crt(&pk.clone(), &sk.clone(), &mut rng);
            assert!(Arc::ptr_eq(&enc.base, &first.base));
        }
        // A decoded copy is the same key but another handle: its own base.
        let (cold_pk, cold_sk) = cold_copy(&sk);
        assert_eq!(cold_sk, sk);
        let cold = CrtEncryptor::from_keys(&cold_pk, &cold_sk, &mut rng).unwrap();
        assert!(!Arc::ptr_eq(&cold.base, &first.base));
    }

    #[test]
    fn a_warm_base_and_a_cold_one_encrypt_bit_identically() {
        let (pk, sk, _) = setup();
        let (cold_pk, cold_sk) = cold_copy(&sk);
        // Each handle samples its h on first use: the same stream, the same h.
        let sample = || rand::rngs::StdRng::seed_from_u64(0x5A3E);
        let first = CrtEncryptor::from_keys(&pk, &sk, &mut sample()).unwrap();
        // Other holders of the key take its shared counter past the
        // wide-table upgrade before this one encrypts anything.
        let xs = sample_exponents(WIDE_TABLE_MIN_ELEMENTS as usize, &mut sample());
        first.randomizers_for(&xs);
        let warm = CrtEncryptor::from_keys(&pk, &sk, &mut NoRng).unwrap();
        assert!(warm.base.batch.wide.get().is_some());
        let cold = CrtEncryptor::from_keys(&cold_pk, &cold_sk, &mut sample()).unwrap();
        assert!(cold.base.built_from(&warm.base.h), "same h on both handles");

        let values: Vec<u64> = (0..56).collect();
        let (mut warm_rng, mut cold_rng) = (sample(), sample());
        // The cold base starts on its comb and crosses the threshold itself
        // part-way through; the warm one walks wide tables throughout.
        for round in 0..(WIDE_TABLE_MIN_ELEMENTS as usize / values.len() + 2) {
            assert_eq!(
                warm.encrypt_u64(round as u64, &mut warm_rng).raw(),
                cold.encrypt_u64(round as u64, &mut cold_rng).raw(),
                "scalar, round {round}"
            );
            let a = crate::EncryptedVector::encrypt_u64_with(&warm, &values, &mut warm_rng);
            let b = crate::EncryptedVector::encrypt_u64_with(&cold, &values, &mut cold_rng);
            let raw = |v: &crate::EncryptedVector| -> Vec<BigUint> {
                v.elements().iter().map(|c| c.raw().clone()).collect()
            };
            assert_eq!(raw(&a), raw(&b), "batch, round {round}");
        }
        assert!(
            cold.base.batch.wide.get().is_some(),
            "the cold base crossed"
        );
    }

    #[test]
    fn a_public_handle_with_another_h_is_not_served_the_cached_base() {
        let (pk, sk, mut rng) = setup();
        let cached = CrtEncryptor::from_keys(&pk, &sk, &mut rng).unwrap();
        // The same modulus decoded again: a handle that samples its own h.
        let (other_pk, _) = cold_copy(&sk);
        let other = CrtEncryptor::from_keys(&other_pk, &sk, &mut rng).unwrap();
        assert!(!other.base.built_from(&cached.base.h), "two handles, two h");
        assert!(!Arc::ptr_eq(&other.base, &cached.base));
        let pre = PrecomputedEncryptor::new(&other_pk, &mut NoRng);
        let xs = sample_exponents(9, &mut rng);
        assert_eq!(other.randomizers_for(&xs), pre.randomizers_for(&xs));
        for x in &xs {
            assert_eq!(other.randomizer_for(x), pre.randomizer_for(x));
        }
        // The key still serves its first handle from the cache.
        let again = CrtEncryptor::from_keys(&pk, &sk, &mut NoRng).unwrap();
        assert!(Arc::ptr_eq(&again.base, &cached.base));
    }

    #[test]
    fn racing_first_builds_on_one_key_share_one_base() {
        let (pk, sk, mut rng) = setup();
        let xs = sample_exponents(5, &mut rng);
        let start = std::sync::Barrier::new(8);
        let built: Vec<(CrtEncryptor, Vec<BigUint>)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8u64)
                .map(|i| {
                    let (pk, sk, xs, start) = (pk.clone(), sk.clone(), &xs, &start);
                    scope.spawn(move || {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(i);
                        start.wait();
                        let enc = epoch_crt(&pk, &sk, &mut rng);
                        let out = enc.randomizers_for(xs);
                        (enc, out)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect()
        });
        let pre = PrecomputedEncryptor::new(&pk, &mut NoRng);
        for (enc, out) in &built {
            assert!(Arc::ptr_eq(&enc.base, &built[0].0.base));
            assert_eq!(out, &pre.randomizers_for(&xs));
        }
    }

    #[test]
    fn debug_output_of_the_crt_tier_prints_no_secret() {
        let (pk, sk, mut rng) = setup();
        let crt = epoch_crt(&pk, &sk, &mut rng);
        let enc = EpochEncryptor::Crt(crt.clone());
        let kp = Keypair {
            public: pk.clone(),
            private: sk.clone(),
        };
        let printed = format!("{enc:?} {sk:?} {kp:?}");
        assert!(printed.contains("<redacted>"), "{printed}");
        let (p, q) = sk.primes();
        for secret in [p, q, crt.base.p_leg.ctx.modulus()] {
            assert!(!printed.contains(&secret.to_string()), "a factor printed");
        }
        for leg in [&crt.base.p_leg, &crt.base.q_leg] {
            for entry in [0, 1, 254] {
                for limb in leg.table.entry(entry).raw_residue().to_u64_digits() {
                    assert!(!printed.contains(&limb.to_string()), "a comb limb printed");
                }
            }
        }
    }

    #[test]
    fn windowed_pow_matches_modpow() {
        let (pk, _sk, mut rng) = setup();
        let base = pk.fast_base(&mut rng);
        // Recover h = table value for exponent 1 and compare windowed powers
        // against the generic modpow for random short exponents.
        let h = base.pow(&BigUint::from(1u32), pk.n_squared());
        for _ in 0..10 {
            let x = rng.gen_biguint(RANDOMNESS_EXPONENT_BITS);
            assert_eq!(base.pow(&x, pk.n_squared()), h.modpow(&x, pk.n_squared()));
        }
    }

    /// The combs of a 256- and a 1024-bit key under `n²`, `p²` and `q²`,
    /// each with the `h` it was built from.
    fn combs() -> &'static [(WindowLeg, BigUint)] {
        static COMBS: OnceLock<Vec<(WindowLeg, BigUint)>> = OnceLock::new();
        COMBS.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0B);
            let mut combs = Vec::new();
            for bits in [crate::TEST_KEY_BITS, 1024] {
                let (pk, sk) = Keypair::generate(bits, &mut rng).split();
                let h = pk.subgroup_h(&mut rng);
                let (p_ctx, q_ctx) = sk.crt_contexts();
                for ctx in [pk.mont_n2().unwrap(), p_ctx, q_ctx] {
                    let leg = WindowLeg::new(ctx, h, &mut MontgomeryScratch::new());
                    combs.push((leg, h.clone()));
                }
            }
            combs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn comb_walks_match_the_generic_ladder_under_every_leg(seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut xs: Vec<BigUint> = (0..3).map(|_| rng.gen_biguint(256)).collect();
            // The shapes a comb can get wrong: all ones, every odd column
            // all zeros, and one set bit in each row in turn.
            xs.push((BigUint::one() << 256) - BigUint::one());
            let mut sparse = xs[0].clone();
            for bit in (0..256).filter(|bit| bit % COMB_COLUMNS % 2 == 1) {
                sparse.set_bit(bit as u64, false);
            }
            xs.push(sparse);
            for row in 0..COMB_ROWS {
                let bit = row * COMB_COLUMNS + rng.gen_range(0..COMB_COLUMNS);
                xs.push(BigUint::one() << bit as u32);
            }
            for (leg, h) in combs() {
                let expected: Vec<BigUint> = xs.iter().map(|x| leg.ctx.modpow(h, x)).collect();
                let scalar: Vec<BigUint> = xs.iter().map(|x| leg.pow(x)).collect();
                prop_assert_eq!(&scalar, &expected, "pow under {}", leg.ctx.modulus());
                let chunked = leg.pow_chunk(None, &xs, &mut MontgomeryScratch::new());
                prop_assert_eq!(&chunked, &expected, "pow_chunk under {}", leg.ctx.modulus());
            }
        }
    }
}
