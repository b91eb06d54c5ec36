//! Error type shared by all dubhe-he operations.

use std::fmt;

/// Errors produced by the homomorphic-encryption layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeError {
    /// Two ciphertexts (or vectors) were combined under different public keys.
    KeyMismatch,
    /// Vector operands have different lengths.
    LengthMismatch { left: usize, right: usize },
    /// A plaintext does not fit into the message space of the key.
    PlaintextTooLarge,
    /// A decrypted plaintext is wider than the integer type the caller asked
    /// for (e.g. a registry counter that no longer fits in a `u64`).
    PlaintextTooWide {
        /// Number of significant bits of the decrypted plaintext.
        bits: u64,
        /// Width in bits of the requested integer type.
        max_bits: u64,
    },
    /// A packed word would overflow its slot width.
    PackingOverflow { slot_bits: u32, value: u64 },
    /// The packing slot width leaves no room for even one slot (plus the
    /// overflow-headroom slot) in a plaintext of the given key size.
    SlotTooWide { slot_bits: u32, key_bits: u64 },
    /// A declared packing configuration cannot guarantee lane isolation:
    /// `max_clients · max_counter` reaches `2^slot_bits`, so a worst-case
    /// fold could carry into the neighboring slot. Refused at configuration
    /// time — before any ciphertext exists.
    HeadroomExceeded {
        /// The slot width the configuration declared.
        slot_bits: u32,
        /// The declared maximum cohort size.
        max_clients: u64,
        /// The declared per-lane maximum of one contribution.
        max_counter: u64,
    },
    /// A packed fold was asked to absorb more contributions than the
    /// headroom model's declared client budget. Folding past the budget
    /// could overflow a lane silently, so the fold refuses instead.
    ClientBudgetExhausted {
        /// Contributions the fold would hold after this one.
        folded: u64,
        /// The declared maximum cohort size.
        max_clients: u64,
    },
    /// Two packed operands (or a packed message and the receiver's declared
    /// policy) disagree on slot layout — combining them lane-wise would
    /// scramble counters across slot boundaries.
    PackerMismatch {
        /// Expected slot width in bits.
        expected_slot_bits: u32,
        /// Expected key size the layout is dimensioned for.
        expected_key_bits: u64,
        /// The offending slot width.
        got_slot_bits: u32,
        /// The offending key size.
        got_key_bits: u64,
    },
    /// The requested key size is too small to be usable.
    KeyTooSmall { bits: u64, minimum: u64 },
    /// Decryption produced a value outside the expected signed range.
    SignedRangeOverflow,
    /// A vector slice was requested outside the vector's bounds.
    SliceOutOfRange {
        /// Requested start position.
        start: usize,
        /// Requested end position (exclusive).
        end: usize,
        /// The vector's actual length.
        len: usize,
    },
    /// A value needs more bytes than the fixed field width the canonical
    /// binary encoding assigns it (see [`crate::codec`]).
    ValueTooWide {
        /// Minimal big-endian byte length of the value.
        bytes: usize,
        /// The fixed field width it had to fit.
        width: usize,
    },
    /// A canonical binary encoding could not be decoded: truncated input,
    /// an out-of-range field, or trailing garbage.
    MalformedEncoding {
        /// What was wrong with the bytes.
        detail: &'static str,
    },
    /// Private-key material failed validation (factors that do not multiply
    /// to the modulus, even "primes", or a non-invertible `L` value).
    MalformedKey {
        /// What was wrong with the key material.
        detail: &'static str,
    },
    /// A ciphertext shares a factor with the modulus — zero, or a multiple
    /// of `p` or `q` — so it is no encryption of anything and has no
    /// plaintext.
    CiphertextNotInvertible,
}

impl fmt::Display for HeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeError::KeyMismatch => {
                write!(f, "ciphertexts were produced under different public keys")
            }
            HeError::LengthMismatch { left, right } => {
                write!(
                    f,
                    "encrypted vectors have different lengths: {left} vs {right}"
                )
            }
            HeError::PlaintextTooLarge => {
                write!(f, "plaintext does not fit in the Paillier message space")
            }
            HeError::PlaintextTooWide { bits, max_bits } => {
                write!(
                    f,
                    "decrypted plaintext needs {bits} bits but the caller asked \
                     for a {max_bits}-bit integer"
                )
            }
            HeError::PackingOverflow { slot_bits, value } => {
                write!(
                    f,
                    "value {value} does not fit in a {slot_bits}-bit packing slot"
                )
            }
            HeError::SlotTooWide {
                slot_bits,
                key_bits,
            } => {
                write!(
                    f,
                    "{slot_bits}-bit slots do not fit into a {key_bits}-bit plaintext \
                     (need at least one slot plus one slot of headroom)"
                )
            }
            HeError::HeadroomExceeded {
                slot_bits,
                max_clients,
                max_counter,
            } => {
                write!(
                    f,
                    "{max_clients} clients × counter {max_counter} can overflow a \
                     {slot_bits}-bit slot (lane sums must stay below 2^{slot_bits})"
                )
            }
            HeError::ClientBudgetExhausted {
                folded,
                max_clients,
            } => {
                write!(
                    f,
                    "packed fold refuses contribution {folded}: the headroom model \
                     declares at most {max_clients} clients"
                )
            }
            HeError::PackerMismatch {
                expected_slot_bits,
                expected_key_bits,
                got_slot_bits,
                got_key_bits,
            } => {
                write!(
                    f,
                    "packed slot layout mismatch: expected {expected_slot_bits}-bit slots \
                     for {expected_key_bits}-bit keys, got {got_slot_bits}-bit slots for \
                     {got_key_bits}-bit keys"
                )
            }
            HeError::KeyTooSmall { bits, minimum } => {
                write!(
                    f,
                    "key size {bits} bits is below the supported minimum {minimum}"
                )
            }
            HeError::SignedRangeOverflow => {
                write!(f, "decrypted value falls outside the signed encoding range")
            }
            HeError::SliceOutOfRange { start, end, len } => {
                write!(
                    f,
                    "slice {start}..{end} is out of range for a length-{len} encrypted vector"
                )
            }
            HeError::ValueTooWide { bytes, width } => {
                write!(
                    f,
                    "value needs {bytes} bytes but its canonical field is {width} bytes wide"
                )
            }
            HeError::MalformedEncoding { detail } => {
                write!(f, "malformed canonical encoding: {detail}")
            }
            HeError::MalformedKey { detail } => {
                write!(f, "invalid private-key material: {detail}")
            }
            HeError::CiphertextNotInvertible => {
                write!(
                    f,
                    "ciphertext shares a factor with the modulus and encrypts nothing"
                )
            }
        }
    }
}

impl std::error::Error for HeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HeError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));
        let e = HeError::PackingOverflow {
            slot_bits: 16,
            value: 70000,
        };
        assert!(e.to_string().contains("70000"));
        assert!(HeError::KeyMismatch.to_string().contains("public keys"));
        assert!(HeError::KeyTooSmall {
            bits: 8,
            minimum: 64
        }
        .to_string()
        .contains("minimum"));
        let e = HeError::SlotTooWide {
            slot_bits: 64,
            key_bits: 64,
        };
        assert!(e.to_string().contains("64-bit slots"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&HeError::KeyMismatch);
    }
}
