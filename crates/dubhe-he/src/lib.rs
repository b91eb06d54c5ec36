//! # dubhe-he — additively homomorphic encryption substrate
//!
//! A from-scratch implementation of the [Paillier cryptosystem][paillier] used by
//! the Dubhe client-selection protocol (ICPP '21). The paper relies on the
//! additive homomorphism of Paillier so that the central server can aggregate
//! client *registries* (one-hot encoded label-distribution summaries) and
//! encrypted label distributions without ever learning any individual client's
//! data distribution.
//!
//! The crate provides:
//!
//! * [`Keypair`], [`PublicKey`], [`PrivateKey`] — key generation with
//!   Miller–Rabin prime search and CRT-accelerated (and batch-parallel)
//!   decryption. `PublicKey` is a cheap shared handle: every ciphertext
//!   references one key allocation instead of owning a copy.
//! * [`PrecomputedEncryptor`] — the encryption hot path: per-key precomputed
//!   `h = g₀ⁿ mod n²` with a fixed-base comb table, so ciphertext
//!   randomness costs a short (256-bit) comb exponentiation instead of a
//!   full `rⁿ` (see [`fast`] for the construction and security argument).
//!   [`EncryptedVector::encrypt_u64`] and the secure protocol use it by
//!   default.
//! * [`CrtEncryptor`] / [`EpochEncryptor`] — the CRT-split tier on top: when
//!   the *keypair* is in hand (clients and the agent — never the server),
//!   the same comb is evaluated mod `p²` and mod `q²` through the
//!   key's cached Montgomery contexts and recombined, for another ≥2×
//!   on encryption with bit-identical ciphertexts.
//! * [`RunningFold`] — Montgomery-domain registry aggregation: the
//!   coordinator's running homomorphic sums advance with one Montgomery
//!   multiply per position per arriving vector (no per-element division),
//!   converted out once per position when the total is read — bit-identical
//!   to an [`EncryptedVector::add`] chain.
//! * [`Ciphertext`] — a single encrypted value supporting `⊕` (ciphertext +
//!   ciphertext), ciphertext + plaintext and ciphertext × plaintext-scalar.
//! * [`EncryptedVector`] — element-wise encrypted integer vectors (the registry
//!   and the encrypted label distribution `p_l` of the multi-time selection),
//!   with rayon-parallel encrypt/decrypt/sum behind the default-on `parallel`
//!   feature (for calls that carry enough arithmetic to repay the hand-off;
//!   smaller ones run inline — see [`vector`]), plus [`slice`](EncryptedVector::slice) /
//!   [`concat`](EncryptedVector::concat) so a sharded coordinator can
//!   partition positions across parallel folds and reassemble the total.
//! * [`packing`] — BatchCrypt-style packing of many small counters into a single
//!   plaintext, used to quantify how much of the HE overhead can be removed.
//! * [`fixed`] — fixed-point encoding of probability vectors.
//! * [`transport`] — the canonical wire-size model: fixed ciphertext widths
//!   and key-material sizes used by the §6.4 overhead study, the protocol
//!   layer's per-message accounting, and the FL simulator's ledger (so
//!   modeled, in-memory and TCP-framed runs stay byte-comparable).
//! * [`codec`] — the canonical binary encoding of ciphertexts, vectors and
//!   keys (fixed-width big-endian limbs at exactly the [`transport`] model's
//!   widths); the `DBH2` wire format of `dubhe-select::protocol` bottoms out
//!   here, which is what makes measured frame bytes match the model.
//!
//! ## Example
//!
//! ```
//! use dubhe_he::{Keypair, EncryptedVector};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 512-bit keys keep doc-tests fast; experiments use 2048 bits like the paper.
//! let keypair = Keypair::generate(512, &mut rng);
//! let (pk, sk) = keypair.split();
//!
//! // Two clients register one-hot vectors; the server adds ciphertexts blindly.
//! let a = EncryptedVector::encrypt_u64(&pk, &[0, 1, 0, 0], &mut rng);
//! let b = EncryptedVector::encrypt_u64(&pk, &[0, 0, 1, 0], &mut rng);
//! let aggregate = a.add(&b).unwrap();
//! assert_eq!(aggregate.decrypt_u64(&sk).unwrap(), vec![0, 1, 1, 0]);
//! ```
//!
//! [paillier]: https://link.springer.com/chapter/10.1007/3-540-48910-X_16

pub mod agg;
pub mod ciphertext;
pub mod codec;
pub mod error;
pub mod fast;
pub mod fixed;
pub mod keys;
pub mod packing;
pub mod prime;
pub mod transport;
pub mod vector;

pub use agg::RunningFold;
pub use ciphertext::Ciphertext;
pub use codec::{decode_vector_view, EncryptedVectorView};
pub use error::HeError;
pub use fast::{
    CrtEncryptor, Encryptor, EpochEncryptor, PrecomputedEncryptor, RANDOMNESS_EXPONENT_BITS,
};
pub use fixed::{FixedPointCodec, DEFAULT_FIXED_SCALE};
pub use keys::{Keypair, PrivateKey, PublicKey};
pub use packing::{
    HeadroomModel, PackedCiphertext, PackedEncryptedVector, PackedRunningFold, Packer,
};
pub use transport::{
    ciphertext_size_bytes, packed_vector_wire_bytes, packed_vector_wire_bytes_for,
    public_key_size_bytes, TransportSize,
};
pub use vector::{sum_vectors, sum_vectors_serial, EncryptedVector};

/// Key size (in bits of the modulus `n`) used by the paper's evaluation.
///
/// The paper encrypts with 2048-bit Paillier keys, the setting adopted by FATE
/// and BatchCrypt. Tests and doc-examples use smaller keys for speed; the
/// overhead experiments use this constant.
pub const PAPER_KEY_BITS: u64 = 2048;

/// Key size recommended for unit tests: large enough to hold realistic registry
/// counts, small enough that key generation takes milliseconds.
pub const TEST_KEY_BITS: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_registry_aggregation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kp = Keypair::generate(TEST_KEY_BITS, &mut rng);
        let (pk, sk) = kp.split();

        // Three clients, registry length 5, each flips exactly one bit.
        let registries = [
            vec![1u64, 0, 0, 0, 0],
            vec![0u64, 0, 1, 0, 0],
            vec![0u64, 0, 1, 0, 0],
        ];
        let mut total: Option<EncryptedVector> = None;
        for r in &registries {
            let enc = EncryptedVector::encrypt_u64(&pk, r, &mut rng);
            total = Some(match total {
                None => enc,
                Some(t) => t.add(&enc).unwrap(),
            });
        }
        let decrypted = total.unwrap().decrypt_u64(&sk).unwrap();
        assert_eq!(decrypted, vec![1, 0, 2, 0, 0]);
    }
}
