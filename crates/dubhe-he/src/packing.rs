//! BatchCrypt-style plaintext packing.
//!
//! Encrypting the registry element-by-element costs one full Paillier ciphertext
//! (≈ 2 × key-size bits) per position, which is where the 29–31 KB ciphertext
//! sizes reported in §6.4 of the paper come from. The paper cites BatchCrypt
//! [Zhang et al., ATC'20] as the state of the art for reducing this overhead in
//! cross-silo FL: several small counters are packed into one large plaintext,
//! encrypted as a single ciphertext, and the additive homomorphism then applies
//! slot-wise as long as no slot overflows.
//!
//! Dubhe's registry counters are bounded by the number of clients (≤ 8962 in the
//! paper), so a 32-bit slot can absorb billions of additions before overflow —
//! packing is a safe and large win, which the `overhead_report` experiment
//! quantifies.

use num_bigint::BigUint;
use num_traits::Zero;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ciphertext::Ciphertext;
use crate::error::HeError;
use crate::fast::{Encryptor, PrecomputedEncryptor};
use crate::keys::{bit_field, PrivateKey, PublicKey};
use crate::vector::EncryptedVector;

/// Packs fixed-width unsigned slots into Paillier plaintexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packer {
    /// Width of each slot in bits.
    pub slot_bits: u32,
    /// Key size (modulus bits) the packer is dimensioned for.
    pub key_bits: u64,
}

impl Packer {
    /// Creates a packer with the given slot width for the given key size.
    ///
    /// A safety margin of one slot is reserved so the packed value always stays
    /// below the modulus.
    pub fn new(slot_bits: u32, key_bits: u64) -> Self {
        assert!(
            (8..=64).contains(&slot_bits),
            "slot width must be in [8, 64]"
        );
        Packer {
            slot_bits,
            key_bits,
        }
    }

    /// Non-panicking [`new`](Self::new) for untrusted inputs (wire decoding,
    /// snapshot restore): an out-of-range slot width is a typed error.
    pub fn try_new(slot_bits: u32, key_bits: u64) -> Result<Self, HeError> {
        if !(8..=64).contains(&slot_bits) {
            return Err(HeError::MalformedEncoding {
                detail: "packing slot width outside [8, 64]",
            });
        }
        Ok(Packer {
            slot_bits,
            key_bits,
        })
    }

    /// How many slots fit into a single plaintext (with one slot of headroom
    /// reserved below the modulus).
    ///
    /// Returns [`HeError::SlotTooWide`] when the answer would be zero — i.e.
    /// when `slot_bits` approaches `key_bits` and not even one slot plus its
    /// headroom fits. Earlier versions returned `0` here and `pack` silently
    /// promoted it to one *headroom-less* slot per plaintext, risking
    /// undetected overflow into the modulus.
    pub fn slots_per_plaintext(&self) -> Result<usize, HeError> {
        let per = ((self.key_bits.saturating_sub(self.slot_bits as u64)) / self.slot_bits as u64)
            as usize;
        if per == 0 {
            return Err(HeError::SlotTooWide {
                slot_bits: self.slot_bits,
                key_bits: self.key_bits,
            });
        }
        Ok(per)
    }

    /// Maximum value a slot can hold.
    pub fn slot_capacity(&self) -> u64 {
        if self.slot_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.slot_bits) - 1
        }
    }

    /// Packs `values` into as few plaintexts as possible.
    ///
    /// Returns [`HeError::PackingOverflow`] if any value exceeds the slot
    /// capacity, and [`HeError::SlotTooWide`] if the slot width leaves no
    /// room in the plaintext.
    pub fn pack(&self, values: &[u64]) -> Result<Vec<BigUint>, HeError> {
        let cap = self.slot_capacity();
        for &v in values {
            if v > cap {
                return Err(HeError::PackingOverflow {
                    slot_bits: self.slot_bits,
                    value: v,
                });
            }
        }
        let per = self.slots_per_plaintext()?;
        let mut out = Vec::with_capacity(values.len().div_ceil(per));
        for chunk in values.chunks(per) {
            let mut acc = BigUint::zero();
            // Slot 0 occupies the least-significant bits.
            for (i, &v) in chunk.iter().enumerate() {
                acc |= BigUint::from(v) << (i as u32 * self.slot_bits);
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Unpacks plaintexts back into `count` slot values.
    ///
    /// # Panics
    /// Panics if the slot width is invalid for the key size; `pack` rejects
    /// such packers before any packed data can exist.
    pub fn unpack(&self, plaintexts: &[BigUint], count: usize) -> Vec<u64> {
        let per = self
            .slots_per_plaintext()
            .expect("unpacking data that could never have been packed");
        let mask = BigUint::from(self.slot_capacity());
        let mut out = Vec::with_capacity(count);
        'outer: for pt in plaintexts {
            for i in 0..per {
                if out.len() == count {
                    break 'outer;
                }
                let slot = (pt >> (i as u32 * self.slot_bits)) & &mask;
                let digits = slot.to_u64_digits();
                out.push(if digits.is_empty() { 0 } else { digits[0] });
            }
        }
        out.resize(count, 0);
        out
    }

    /// Packs and encrypts `values` under `public`, through the key's shared
    /// [`PrecomputedEncryptor`] fast path.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        public: &PublicKey,
        values: &[u64],
        rng: &mut R,
    ) -> Result<PackedCiphertext, HeError> {
        let plaintexts = self.pack(values)?;
        let cts = EncryptedVector::encrypt(public, &plaintexts, rng)?
            .elements()
            .to_vec();
        Ok(PackedCiphertext {
            ciphertexts: cts,
            count: values.len(),
            packer: *self,
        })
    }

    /// Packs and encrypts `values` with an explicit fast encryptor (amortises
    /// table setup across many clients of one epoch key).
    pub fn encrypt_with<R: Rng + ?Sized>(
        &self,
        encryptor: &PrecomputedEncryptor,
        values: &[u64],
        rng: &mut R,
    ) -> Result<PackedCiphertext, HeError> {
        let plaintexts = self.pack(values)?;
        let mut cts = Vec::with_capacity(plaintexts.len());
        for pt in &plaintexts {
            cts.push(encryptor.encrypt(pt, rng)?);
        }
        Ok(PackedCiphertext {
            ciphertexts: cts,
            count: values.len(),
            packer: *self,
        })
    }
}

/// A packed, encrypted vector of small counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedCiphertext {
    ciphertexts: Vec<Ciphertext>,
    count: usize,
    packer: Packer,
}

impl PackedCiphertext {
    /// Number of logical slots (original vector length).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of Paillier ciphertexts actually transmitted.
    pub fn ciphertext_count(&self) -> usize {
        self.ciphertexts.len()
    }

    /// Slot-wise homomorphic addition. The caller is responsible for ensuring
    /// that no slot overflows (in Dubhe: at most `N` additions of one-hot
    /// registries, far below the 2³²-1 capacity of the default packer).
    pub fn add(&self, other: &PackedCiphertext) -> Result<PackedCiphertext, HeError> {
        if self.count != other.count || self.ciphertexts.len() != other.ciphertexts.len() {
            return Err(HeError::LengthMismatch {
                left: self.count,
                right: other.count,
            });
        }
        let ciphertexts = self
            .ciphertexts
            .iter()
            .zip(&other.ciphertexts)
            .map(|(a, b)| a.add(b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PackedCiphertext {
            ciphertexts,
            count: self.count,
            packer: self.packer,
        })
    }

    /// Decrypts (batch CRT) and unpacks back to the original counters. A
    /// ciphertext that shares a factor with the modulus is
    /// [`HeError::CiphertextNotInvertible`].
    pub fn decrypt(&self, private: &PrivateKey) -> Result<Vec<u64>, HeError> {
        let plaintexts = private.decrypt_batch(&self.ciphertexts)?;
        Ok(self.packer.unpack(&plaintexts, self.count))
    }

    /// Serialized ciphertext bytes (overhead accounting).
    pub fn byte_len(&self) -> usize {
        self.ciphertexts.iter().map(Ciphertext::byte_len).sum()
    }
}

/// The executable overflow-headroom argument behind every packed fold.
///
/// Packing is only sound while no lane ever carries into its neighbor. With
/// non-negative counters the worst case is every one of `max_clients`
/// contributions putting `max_counter` into the same lane, so the invariant
///
/// ```text
/// max_clients · max_counter  <  2^slot_bits
/// ```
///
/// is checked **at configuration time** (a violating declaration is
/// [`HeError::HeadroomExceeded`], before any ciphertext exists) and enforced
/// **at fold time** ([`check_budget`](Self::check_budget) refuses the
/// contribution that would exceed the declared cohort, as
/// [`HeError::ClientBudgetExhausted`]). The boundary configuration
/// `max_clients · max_counter == 2^slot_bits − 1` is the largest that passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeadroomModel {
    packer: Packer,
    max_clients: u64,
    max_counter: u64,
}

impl HeadroomModel {
    /// Validates and seals a packed-fold configuration.
    ///
    /// Errors: [`HeError::SlotTooWide`] when the packer fits no slot into the
    /// key's plaintext, [`HeError::HeadroomExceeded`] when the worst-case
    /// lane sum reaches `2^slot_bits`.
    pub fn new(packer: Packer, max_clients: u64, max_counter: u64) -> Result<Self, HeError> {
        packer.slots_per_plaintext()?;
        let worst = (max_clients as u128).saturating_mul(max_counter as u128);
        if worst >= 1u128 << packer.slot_bits {
            return Err(HeError::HeadroomExceeded {
                slot_bits: packer.slot_bits,
                max_clients,
                max_counter,
            });
        }
        Ok(HeadroomModel {
            packer,
            max_clients,
            max_counter,
        })
    }

    /// The slot layout the model is declared for.
    pub fn packer(&self) -> Packer {
        self.packer
    }

    /// The declared maximum cohort size.
    pub fn max_clients(&self) -> u64 {
        self.max_clients
    }

    /// The declared per-lane maximum of one contribution.
    pub fn max_counter(&self) -> u64 {
        self.max_counter
    }

    /// Refuses a fold that would hold more than the declared cohort:
    /// `folded > max_clients` is [`HeError::ClientBudgetExhausted`]. Called
    /// *before* the homomorphic multiply, so an over-budget fold never
    /// mutates state.
    pub fn check_budget(&self, folded: u64) -> Result<(), HeError> {
        if folded > self.max_clients {
            return Err(HeError::ClientBudgetExhausted {
                folded,
                max_clients: self.max_clients,
            });
        }
        Ok(())
    }

    /// Refuses a slot layout that disagrees with the declared one
    /// ([`HeError::PackerMismatch`]).
    pub fn check_packer(&self, got: &Packer) -> Result<(), HeError> {
        if *got != self.packer {
            return Err(HeError::PackerMismatch {
                expected_slot_bits: self.packer.slot_bits,
                expected_key_bits: self.packer.key_bits,
                got_slot_bits: got.slot_bits,
                got_key_bits: got.key_bits,
            });
        }
        Ok(())
    }
}

/// A packed encrypted vector that travels the protocol: `count` logical
/// lanes laid into `⌈count / slots_per_plaintext⌉` Paillier ciphertexts,
/// carried as an ordinary [`EncryptedVector`] plus the [`Packer`] layout
/// metadata a receiver needs to unpack. Slot-wise addition is plain
/// ciphertext multiplication, so the coordinator's Montgomery-domain
/// [`RunningFold`](crate::agg::RunningFold) applies unchanged to the inner
/// vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedEncryptedVector {
    vector: EncryptedVector,
    count: usize,
    packer: Packer,
}

impl PackedEncryptedVector {
    /// Packs and encrypts `values` through the key's shared
    /// [`PrecomputedEncryptor`].
    pub fn encrypt<R: Rng + ?Sized>(
        packer: Packer,
        public: &PublicKey,
        values: &[u64],
        rng: &mut R,
    ) -> Result<Self, HeError> {
        let encryptor = PrecomputedEncryptor::new(public, rng);
        Self::encrypt_with(packer, &encryptor, values, rng)
    }

    /// Packs and encrypts `values` with an explicit fast encryptor — any
    /// [`Encryptor`] tier, including the CRT-split one when the keypair is in
    /// hand. The packer must be dimensioned for the encryptor's key.
    pub fn encrypt_with<E, R>(
        packer: Packer,
        encryptor: &E,
        values: &[u64],
        rng: &mut R,
    ) -> Result<Self, HeError>
    where
        E: Encryptor + ?Sized,
        R: Rng + ?Sized,
    {
        let key_bits = encryptor.public_key().bits();
        if packer.key_bits != key_bits {
            return Err(HeError::PackerMismatch {
                expected_slot_bits: packer.slot_bits,
                expected_key_bits: key_bits,
                got_slot_bits: packer.slot_bits,
                got_key_bits: packer.key_bits,
            });
        }
        let plaintexts = packer.pack(values)?;
        let vector = EncryptedVector::encrypt_with(encryptor, &plaintexts, rng)?;
        Ok(PackedEncryptedVector {
            vector,
            count: values.len(),
            packer,
        })
    }

    /// Reassembles a packed vector from decoded parts, validating that the
    /// ciphertext count matches the slot layout for `count` lanes and that
    /// the packer is dimensioned for the vector's key. The wire decoder and
    /// fold totals come through here, so a malformed combination can never
    /// circulate.
    pub fn from_vector(
        vector: EncryptedVector,
        count: usize,
        packer: Packer,
    ) -> Result<Self, HeError> {
        if packer.key_bits != vector.public_key().bits() {
            return Err(HeError::PackerMismatch {
                expected_slot_bits: packer.slot_bits,
                expected_key_bits: vector.public_key().bits(),
                got_slot_bits: packer.slot_bits,
                got_key_bits: packer.key_bits,
            });
        }
        let per = packer.slots_per_plaintext()?;
        if vector.len() != count.div_ceil(per) {
            return Err(HeError::MalformedEncoding {
                detail: "packed ciphertext count disagrees with the slot layout",
            });
        }
        Ok(PackedEncryptedVector {
            vector,
            count,
            packer,
        })
    }

    /// Number of logical lanes (the original vector length).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of Paillier ciphertexts actually transmitted.
    pub fn ciphertext_count(&self) -> usize {
        self.vector.len()
    }

    /// The slot layout.
    pub fn packer(&self) -> Packer {
        self.packer
    }

    /// The underlying element-wise encrypted vector of packed plaintexts.
    pub fn vector(&self) -> &EncryptedVector {
        &self.vector
    }

    /// The key the lanes are encrypted under.
    pub fn public_key(&self) -> &PublicKey {
        self.vector.public_key()
    }

    /// Lane-wise homomorphic addition. Mismatched slot layouts are
    /// [`HeError::PackerMismatch`]; mismatched lane counts are
    /// [`HeError::LengthMismatch`].
    pub fn add(&self, other: &PackedEncryptedVector) -> Result<PackedEncryptedVector, HeError> {
        if self.packer != other.packer {
            return Err(HeError::PackerMismatch {
                expected_slot_bits: self.packer.slot_bits,
                expected_key_bits: self.packer.key_bits,
                got_slot_bits: other.packer.slot_bits,
                got_key_bits: other.packer.key_bits,
            });
        }
        if self.count != other.count {
            return Err(HeError::LengthMismatch {
                left: self.count,
                right: other.count,
            });
        }
        Ok(PackedEncryptedVector {
            vector: self.vector.add(&other.vector)?,
            count: self.count,
            packer: self.packer,
        })
    }

    /// Decrypts (batch CRT) and unpacks back to the `count` lane values, one
    /// CRT decryption per ciphertext: the depth-1 case of
    /// [`decrypt_u64_under`](Self::decrypt_u64_under), for a receiver that
    /// holds no [`HeadroomModel`]. Each slot is read whole, so any plaintext
    /// decodes to its `count` lowest slots. A ciphertext that shares a
    /// factor with the modulus is [`HeError::CiphertextNotInvertible`].
    pub fn decrypt_u64(&self, private: &PrivateKey) -> Result<Vec<u64>, HeError> {
        self.decrypt_stacked(private, self.packer.slot_bits)
    }

    /// Decrypts the `count` lanes of a total folded under `model`, stacking
    /// `d` of its `k` ciphertexts into one decryption where the declared
    /// lanes leave room.
    ///
    /// **Depth rule.** Every lane of an honest total is at most
    /// `max_clients · max_counter`, of `b` bits; a `slot_bits`-bit slot has
    /// room for `⌊slot_bits / b⌋` such lanes. So `d = min(⌊slot_bits / b⌋,
    /// k)` consecutive ciphertexts `C_t` are decrypted as one, `Π
    /// C_t^(2^(t·f))` with `f = ⌊slot_bits / d⌋`, and each lane is read from
    /// its `f`-bit field: `⌈k / d⌉` CRT decryptions instead of `k`. For the
    /// paper's 56-element registry in 32-bit slots with `N = 200` (8-bit
    /// lanes) that is `d = 2`, `f = 16`: one decryption instead of two.
    ///
    /// **Honest bound.** Each plaintext `M_t` is below `2^(per·slot_bits)`,
    /// `per` slots of a ciphertext, and every lane below `2^f`. Then the
    /// stacked plaintext is `Σ M_t·2^(t·f)` exactly, below
    /// `2^(per·slot_bits) < n`, its fields do not overlap, and the lanes
    /// equal [`decrypt_u64`](Self::decrypt_u64)'s. The bound is the one the
    /// model declares (assumption 3 of the threat model), and nothing
    /// further is checked: a lane in `[2^f, 2^slot_bits)` reads wrong here
    /// where `decrypt_u64` would read it whole.
    ///
    /// **Fallback.** A stacked plaintext with bits above `per·slot_bits`
    /// is not an honest stack; the total is then decrypted again at depth
    /// 1 and equals `decrypt_u64`. A ciphertext sharing a factor with the
    /// modulus at any stacked position makes its stack a non-unit, which is
    /// `decrypt_u64`'s [`HeError::CiphertextNotInvertible`]. A total whose
    /// slot layout is not the model's is [`HeError::PackerMismatch`].
    pub fn decrypt_u64_under(
        &self,
        private: &PrivateKey,
        model: &HeadroomModel,
    ) -> Result<Vec<u64>, HeError> {
        model.check_packer(&self.packer)?;
        let worst = model.max_clients as u128 * model.max_counter as u128;
        self.decrypt_stacked(private, u128::BITS - worst.leading_zeros())
    }

    /// The lanes, if each needs at most `lane_bits`, from the `⌈k / d⌉`
    /// stacked decryptions of [`stack_depth`]: field `t` of a stack's slot
    /// holds that slot of the stack's `t`-th ciphertext.
    fn decrypt_stacked(&self, private: &PrivateKey, lane_bits: u32) -> Result<Vec<u64>, HeError> {
        let per = self.packer.slots_per_plaintext()?;
        let (depth, field_bits) = stack_depth(self.packer.slot_bits, lane_bits, self.vector.len());
        let (slot_bits, field_bits) = (self.packer.slot_bits as u64, field_bits as u64);
        let stacks = private
            .decrypt_stacks(self.vector.elements(), depth, field_bits)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        if depth > 1 && stacks.iter().any(|m| m.bits() > per as u64 * slot_bits) {
            return self.decrypt_stacked(private, self.packer.slot_bits);
        }
        let mut lanes = Vec::with_capacity(stacks.len() * depth * per);
        for m in &stacks {
            let limbs = m.to_u64_digits();
            for t in 0..depth as u64 {
                lanes.extend(
                    (0..per as u64)
                        .map(|i| bit_field(&limbs, i * slot_bits + t * field_bits, field_bits)),
                );
            }
        }
        lanes.resize(self.count, 0);
        Ok(lanes)
    }

    /// Serialized ciphertext bytes (variable big-integer width; the canonical
    /// fixed-width model is
    /// [`packed_vector_wire_bytes`](crate::transport::packed_vector_wire_bytes)).
    pub fn byte_len(&self) -> usize {
        self.vector.byte_len()
    }
}

/// How deep a packed total of `ciphertexts` ciphertexts stacks when each
/// lane needs at most `lane_bits` of a `slot_bits`-bit slot: `(d, f)` with
/// `d = min(⌊slot_bits / lane_bits⌋, ciphertexts)`, at least 1, ciphertexts
/// to a decryption and `f = ⌊slot_bits / d⌋` bits to a lane's field.
fn stack_depth(slot_bits: u32, lane_bits: u32, ciphertexts: usize) -> (usize, u32) {
    let depth = ((slot_bits / lane_bits.max(1)) as usize)
        .min(ciphertexts)
        .max(1);
    (depth, slot_bits / depth as u32)
}

/// Default packer used by the overhead experiments: 32-bit slots dimensioned
/// for the paper's 2048-bit keys.
pub fn default_packer() -> Packer {
    Packer::new(32, crate::PAPER_KEY_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use rand::SeedableRng;

    fn setup() -> (PublicKey, PrivateKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let (pk, sk) = kp.split();
        (pk, sk, rng)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let p = Packer::new(16, 256);
        let values: Vec<u64> = vec![0, 1, 2, 65535, 42, 7, 0, 9, 100];
        let packed = p.pack(&values).unwrap();
        assert_eq!(p.unpack(&packed, values.len()), values);
    }

    #[test]
    fn slots_per_plaintext_reserves_headroom() {
        let p = Packer::new(32, 2048);
        assert_eq!(p.slots_per_plaintext().unwrap(), (2048 - 32) / 32);
        let p = Packer::new(16, 256);
        assert_eq!(p.slots_per_plaintext().unwrap(), (256 - 16) / 16);
    }

    #[test]
    fn slot_width_at_or_above_key_size_is_an_error_not_a_silent_slot() {
        // 64-bit slots in a 64-bit plaintext: no room for slot + headroom.
        for (slot_bits, key_bits) in [(64u32, 64u64), (64, 127), (32, 63), (60, 100)] {
            let p = Packer::new(slot_bits, key_bits);
            assert_eq!(
                p.slots_per_plaintext(),
                Err(HeError::SlotTooWide {
                    slot_bits,
                    key_bits
                })
            );
            assert_eq!(
                p.pack(&[1, 2, 3]),
                Err(HeError::SlotTooWide {
                    slot_bits,
                    key_bits
                }),
                "pack must refuse to emit headroom-less slots"
            );
        }
        // One slot plus headroom is exactly the boundary case that stays ok.
        assert_eq!(Packer::new(32, 64).slots_per_plaintext().unwrap(), 1);
    }

    #[test]
    fn overflowing_slot_is_rejected() {
        let p = Packer::new(16, 256);
        assert_eq!(
            p.pack(&[70_000]),
            Err(HeError::PackingOverflow {
                slot_bits: 16,
                value: 70_000
            })
        );
    }

    #[test]
    fn encrypted_packed_round_trip() {
        let (pk, sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let values: Vec<u64> = (0..40).map(|i| i * 3).collect();
        let enc = p.encrypt(&pk, &values, &mut rng).unwrap();
        assert_eq!(enc.decrypt(&sk).unwrap(), values);
        assert!(
            enc.ciphertext_count() < values.len(),
            "packing must reduce ciphertext count"
        );
    }

    #[test]
    fn packed_addition_is_slotwise() {
        let (pk, sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let a: Vec<u64> = vec![1, 0, 3, 0, 5, 6];
        let b: Vec<u64> = vec![0, 2, 0, 4, 5, 6];
        let ea = p.encrypt(&pk, &a, &mut rng).unwrap();
        let eb = p.encrypt(&pk, &b, &mut rng).unwrap();
        let sum = ea.add(&eb).unwrap();
        assert_eq!(sum.decrypt(&sk).unwrap(), vec![1, 2, 3, 4, 10, 12]);
    }

    #[test]
    fn repeated_additions_stay_below_slot_capacity() {
        let (pk, sk, mut rng) = setup();
        let p = Packer::new(32, crate::TEST_KEY_BITS);
        let one_hot: Vec<u64> = vec![0, 1, 0];
        let mut acc = p.encrypt(&pk, &[0, 0, 0], &mut rng).unwrap();
        for _ in 0..50 {
            let c = p.encrypt(&pk, &one_hot, &mut rng).unwrap();
            acc = acc.add(&c).unwrap();
        }
        assert_eq!(acc.decrypt(&sk).unwrap(), vec![0, 50, 0]);
    }

    #[test]
    fn mismatched_counts_rejected() {
        let (pk, _sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let a = p.encrypt(&pk, &[1, 2, 3], &mut rng).unwrap();
        let b = p.encrypt(&pk, &[1, 2], &mut rng).unwrap();
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn packing_reduces_transport_size_vs_elementwise() {
        let (pk, _sk, mut rng) = setup();
        let values = vec![1u64; 56]; // registry length from the paper's group 1
        let elementwise = crate::EncryptedVector::encrypt_u64(&pk, &values, &mut rng);
        let packed = Packer::new(16, crate::TEST_KEY_BITS)
            .encrypt(&pk, &values, &mut rng)
            .unwrap();
        assert!(packed.byte_len() < elementwise.byte_len() / 4);
    }

    #[test]
    #[should_panic(expected = "slot width")]
    fn invalid_slot_width_panics() {
        let _ = Packer::new(4, 256);
    }

    #[test]
    fn default_packer_matches_paper_key_size() {
        let p = default_packer();
        assert_eq!(p.key_bits, crate::PAPER_KEY_BITS);
        assert_eq!(p.slot_bits, 32);
    }

    #[test]
    fn headroom_boundary_is_exact() {
        // Exactly 2^slot_bits - 1 worst-case lane sum: the largest passing
        // configuration, for several factorizations and slot widths.
        for (slot_bits, clients, counter) in [
            (16u32, (1u64 << 16) - 1, 1u64),
            (16, 257, 255),
            (32, (1 << 32) - 1, 1),
            (32, (1 << 16) + 1, (1 << 16) - 1),
            (8, 255, 1),
            (8, 51, 5),
        ] {
            let p = Packer::new(slot_bits, crate::TEST_KEY_BITS);
            assert_eq!(
                (clients as u128) * (counter as u128),
                (1u128 << slot_bits) - 1
            );
            let model = HeadroomModel::new(p, clients, counter).unwrap();
            assert_eq!(model.max_clients(), clients);
            // One past the boundary: the worst case reaches 2^slot_bits.
            assert_eq!(
                HeadroomModel::new(p, clients + 1, counter).unwrap_err(),
                HeError::HeadroomExceeded {
                    slot_bits,
                    max_clients: clients + 1,
                    max_counter: counter,
                }
            );
        }
        // 64-bit slots in a key wide enough to hold them: u64::MAX clients of
        // counter 1 is the boundary; the product path must not overflow u128.
        let wide = Packer::new(64, 256);
        HeadroomModel::new(wide, u64::MAX, 1).unwrap();
        assert!(matches!(
            HeadroomModel::new(wide, u64::MAX, 2),
            Err(HeError::HeadroomExceeded { .. })
        ));
        // A slot width that fits no lane surfaces the packer's own error.
        assert!(matches!(
            HeadroomModel::new(Packer::new(60, 100), 1, 1),
            Err(HeError::SlotTooWide { .. })
        ));
    }

    #[test]
    fn over_budget_fold_is_refused_before_mutating_state() {
        let (pk, sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let model = HeadroomModel::new(p, 3, 9).unwrap();
        let contributions: Vec<PackedEncryptedVector> = (0..4)
            .map(|i| PackedEncryptedVector::encrypt(p, &pk, &[i + 1, 0, 9, i], &mut rng).unwrap())
            .collect();
        // The coordinator's fold: each contribution checked against the
        // model before it is multiplied in.
        let mut fold = crate::RunningFold::new(contributions[0].vector());
        for v in &contributions[1..3] {
            model.check_budget(fold.folded() + 1).unwrap();
            fold.fold(v.vector()).unwrap();
        }
        // The 4th contribution exceeds the declared 3-client cohort: typed
        // error, no silent wrap, and nothing folded.
        assert_eq!(
            model.check_budget(fold.folded() + 1),
            Err(HeError::ClientBudgetExhausted {
                folded: 4,
                max_clients: 3,
            })
        );
        let total_at_budget = PackedEncryptedVector::from_vector(fold.total(), 4, p).unwrap();
        assert_eq!(total_at_budget.decrypt_u64(&sk).unwrap(), vec![6, 0, 27, 3]);
    }

    #[test]
    fn packed_fold_matches_the_add_chain_bit_for_bit() {
        let (pk, sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let lanes = 40; // several plaintexts at (256-16)/16 = 15 slots each
        let inputs: Vec<Vec<u64>> = (0..5)
            .map(|i| {
                (0..lanes)
                    .map(|j| ((i * 13 + j * 7) % 600) as u64)
                    .collect()
            })
            .collect();
        let packed: Vec<PackedEncryptedVector> = inputs
            .iter()
            .map(|v| PackedEncryptedVector::encrypt(p, &pk, v, &mut rng).unwrap())
            .collect();
        // The coordinator's fold over the inner vectors.
        let mut fold = crate::RunningFold::new(packed[0].vector());
        let mut chain = packed[0].clone();
        for v in &packed[1..] {
            fold.fold(v.vector()).unwrap();
            chain = chain.add(v).unwrap();
        }
        let total = PackedEncryptedVector::from_vector(fold.total(), lanes, p).unwrap();
        assert_eq!(total, chain);
        let mut expected = vec![0u64; lanes];
        for v in &inputs {
            for (e, x) in expected.iter_mut().zip(v) {
                *e += x;
            }
        }
        assert_eq!(total.decrypt_u64(&sk).unwrap(), expected);
    }

    #[test]
    fn foreign_slot_layouts_are_packer_mismatches() {
        let (pk, _sk, mut rng) = setup();
        let p16 = Packer::new(16, crate::TEST_KEY_BITS);
        let p32 = Packer::new(32, crate::TEST_KEY_BITS);
        let a = PackedEncryptedVector::encrypt(p16, &pk, &[1, 2, 3], &mut rng).unwrap();
        let b = PackedEncryptedVector::encrypt(p32, &pk, &[1, 2, 3], &mut rng).unwrap();
        assert!(matches!(
            a.add(&b).unwrap_err(),
            HeError::PackerMismatch { .. }
        ));
        let model16 = HeadroomModel::new(p16, 10, 100).unwrap();
        assert!(matches!(
            model16.check_packer(&b.packer()).unwrap_err(),
            HeError::PackerMismatch { .. }
        ));
        assert_eq!(model16.check_packer(&a.packer()), Ok(()));
        // A packer dimensioned for a different key size than the encryptor's
        // is refused before anything is packed.
        let foreign = Packer::new(16, 512);
        assert!(matches!(
            PackedEncryptedVector::encrypt(foreign, &pk, &[1], &mut rng).unwrap_err(),
            HeError::PackerMismatch { .. }
        ));
    }

    #[test]
    fn crt_and_precomputed_tiers_produce_identical_packed_vectors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let kp = Keypair::generate(crate::TEST_KEY_BITS, &mut rng);
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let values: Vec<u64> = (0..33).map(|i| i * 11).collect();
        // Build the key's shared fixed-base table up front so neither tier's
        // constructor draws from its (identically seeded) RNG.
        let _warm = crate::fast::PrecomputedEncryptor::new(&kp.public, &mut rng);

        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let pre = crate::fast::PrecomputedEncryptor::new(&kp.public, &mut rng_a);
        let a = PackedEncryptedVector::encrypt_with(p, &pre, &values, &mut rng_a).unwrap();

        let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
        let crt = crate::fast::CrtEncryptor::new(&kp, &mut rng_b).unwrap();
        let b = PackedEncryptedVector::encrypt_with(p, &crt, &values, &mut rng_b).unwrap();

        assert_eq!(
            a, b,
            "CRT tier must be bit-identical to the precomputed tier"
        );
        assert_eq!(a.decrypt_u64(&kp.private).unwrap(), values);
    }

    #[test]
    fn from_vector_validates_the_layout() {
        let (pk, _sk, mut rng) = setup();
        let p = Packer::new(16, crate::TEST_KEY_BITS);
        let good = PackedEncryptedVector::encrypt(p, &pk, &[1; 20], &mut rng).unwrap();
        let inner = good.vector().clone();
        assert!(PackedEncryptedVector::from_vector(inner.clone(), 20, p).is_ok());
        // 20 lanes at 15 slots/plaintext need 2 ciphertexts; claiming 40
        // lanes would need 3.
        assert!(matches!(
            PackedEncryptedVector::from_vector(inner.clone(), 40, p).unwrap_err(),
            HeError::MalformedEncoding { .. }
        ));
        // A packer dimensioned for a foreign key size is refused.
        assert!(matches!(
            PackedEncryptedVector::from_vector(inner, 20, Packer::new(16, 512)).unwrap_err(),
            HeError::PackerMismatch { .. }
        ));
    }

    #[test]
    fn the_stack_depth_fits_the_declared_lanes_into_a_slot() {
        // The paper's registry: 8-bit lanes (N = 200) in 32-bit slots.
        assert_eq!(stack_depth(32, 8, 2), (2, 16));
        assert_eq!(stack_depth(32, 8, 5), (4, 8));
        for k in 0..6 {
            assert_eq!(stack_depth(32, 28, k), (1, 32), "{k} ciphertexts");
        }
        // A slot read whole: the model-less decode.
        assert_eq!(stack_depth(64, 64, 3), (1, 64));
        assert_eq!(stack_depth(8, 0, 3), (3, 2));
    }

    /// A 5-ciphertext total of 8-bit lanes in 32-bit slots at the test key
    /// size — stacks of 4 and 1 — with its registration model.
    fn five_deep() -> (Packer, HeadroomModel, usize) {
        let packer = Packer::new(32, crate::TEST_KEY_BITS);
        let model = HeadroomModel::new(packer, 200, 1).unwrap();
        (packer, model, 5 * packer.slots_per_plaintext().unwrap())
    }

    fn packed_from(pk: &PublicKey, cts: Vec<Ciphertext>) -> PackedEncryptedVector {
        let (packer, _, count) = five_deep();
        let v = EncryptedVector::from_ciphertexts(pk, cts).unwrap();
        PackedEncryptedVector::from_vector(v, count, packer).unwrap()
    }

    #[test]
    fn a_non_unit_at_any_stacked_position_is_the_whole_slot_decodes_error() {
        let (pk, sk, mut rng) = setup();
        let (packer, model, count) = five_deep();
        let honest = PackedEncryptedVector::encrypt(packer, &pk, &vec![3; count], &mut rng)
            .unwrap()
            .vector()
            .elements()
            .to_vec();
        let (p, q) = sk.primes();
        for bad in [BigUint::zero(), p.clone(), q * BigUint::from(5u32)] {
            for at in 0..honest.len() {
                let mut cts = honest.clone();
                cts[at] = Ciphertext::from_raw(bad.clone(), pk.clone());
                let v = packed_from(&pk, cts);
                let expected = Err(HeError::CiphertextNotInvertible);
                assert_eq!(v.decrypt_u64(&sk), expected, "{bad} at {at}");
                assert_eq!(v.decrypt_u64_under(&sk, &model), expected, "{bad} at {at}");
            }
        }
    }

    /// Plaintexts no honest fold makes, each at every position: a bit just
    /// above the `per` slots, and `n − 1` among zeros, which wraps its stack
    /// to `n − 2^(t·f)`. Either way the stack has bits above the slots, and
    /// the decode is the whole-slot one.
    #[test]
    fn a_stack_with_bits_above_its_slots_falls_back_to_the_whole_slot_decode() {
        let (pk, sk, mut rng) = setup();
        let (packer, model, count) = five_deep();
        let lanes: Vec<u64> = (0..count as u64).map(|i| i * 37 % 201).collect();
        let honest = packer.pack(&lanes).unwrap();
        let above = BigUint::from(1u32) << (packer.slots_per_plaintext().unwrap() as u32 * 32);
        for at in 0..honest.len() {
            let mut high = honest.clone();
            high[at] = &high[at] + &above;
            let mut wrap = vec![BigUint::zero(); honest.len()];
            wrap[at] = pk.n() - BigUint::from(1u32);
            for plaintexts in [high, wrap] {
                let cts = plaintexts
                    .iter()
                    .map(|m| pk.encrypt(m, &mut rng).unwrap())
                    .collect();
                let v = packed_from(&pk, cts);
                let whole = v.decrypt_u64(&sk).unwrap();
                assert_eq!(v.decrypt_u64_under(&sk, &model).unwrap(), whole, "at {at}");
            }
        }
        let honest = PackedEncryptedVector::encrypt(packer, &pk, &lanes, &mut rng).unwrap();
        assert_eq!(honest.decrypt_u64_under(&sk, &model).unwrap(), lanes);
    }

    #[test]
    fn a_total_decoded_under_a_foreign_model_is_a_packer_mismatch() {
        let (pk, sk, mut rng) = setup();
        let (packer, _, count) = five_deep();
        let v = PackedEncryptedVector::encrypt(packer, &pk, &vec![1; count], &mut rng).unwrap();
        for foreign in [Packer::new(16, crate::TEST_KEY_BITS), Packer::new(32, 512)] {
            let model = HeadroomModel::new(foreign, 200, 1).unwrap();
            assert!(matches!(
                v.decrypt_u64_under(&sk, &model),
                Err(HeError::PackerMismatch { .. })
            ));
        }
    }
}
