//! The wire messages of the Dubhe exchanges and their transport sizes.
//!
//! Every object that crosses the network in Fig. 4 or §5.3.1 is one variant
//! of [`ProtocolMsg`]; parties are named by [`Party`]. A message knows its
//! canonical wire size ([`ProtocolMsg::wire_bytes`]) via the `dubhe-he`
//! transport model, so any [`Transport`](crate::protocol::Transport)
//! implementation can meter a link without serializing.

use dubhe_he::transport::{
    ciphertext_size_bytes, packed_vector_wire_bytes, private_key_size_bytes, public_key_size_bytes,
    vector_wire_bytes,
};
use dubhe_he::{EncryptedVector, PackedEncryptedVector, PrivateKey, PublicKey};
use serde::{Deserialize, Serialize};

use crate::selector::ClientId;

/// A protocol participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Party {
    /// The randomly chosen agent client that owns the epoch keypair.
    Agent,
    /// The honest-but-curious coordinator server.
    Server,
    /// An ordinary selection client, identified by its dense id.
    Client(ClientId),
}

/// The kind of a [`ProtocolMsg`], used for per-kind transport accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MsgKind {
    /// [`ProtocolMsg::PublicKeyDispatch`].
    KeyDispatch,
    /// [`ProtocolMsg::EncryptedRegistry`].
    Registry,
    /// [`ProtocolMsg::EncryptedTotalBroadcast`].
    TotalBroadcast,
    /// [`ProtocolMsg::EncryptedDistribution`].
    Distribution,
    /// [`ProtocolMsg::EncryptedDistributionSum`].
    DistributionSum,
    /// [`ProtocolMsg::TryVerdict`].
    Verdict,
}

/// One wire message of the secure exchanges (Fig. 4 steps 1–4 and the
/// §5.3.1 multi-time determination).
// The key-dispatch variant carries whole keypairs (with their cached CRT /
// Montgomery precomputation) and is sent a handful of times per epoch;
// boxing it would complicate the serde layout for no hot-path win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolMsg {
    /// **Fig. 4 step 1** — the agent dispatches the epoch key. Copies bound
    /// for clients carry the private key (clients decrypt the total
    /// themselves); the server's copy carries `None` and the server refuses
    /// delivery of anything else.
    PublicKeyDispatch {
        /// The epoch public key.
        public_key: PublicKey,
        /// The private key — present only on client-bound copies.
        private_key: Option<PrivateKey>,
    },
    /// **Fig. 4 step 2** — a client's encrypted one-hot registry `R^(t,k)`.
    EncryptedRegistry {
        /// The sending client.
        client: ClientId,
        /// The element-wise encrypted registry.
        registry: EncryptedVector,
    },
    /// **Fig. 4 step 3** — the server's broadcast of the homomorphic sum
    /// `Enc(R_A)` of every received registry.
    EncryptedTotalBroadcast {
        /// The encrypted overall registry.
        total: EncryptedVector,
    },
    /// **§5.3.1** — a tentatively selected client's encrypted scaled label
    /// distribution `Enc(p_l)` for one try.
    EncryptedDistribution {
        /// The sending client.
        client: ClientId,
        /// Which of the `H` tentative tries this contribution belongs to.
        try_index: usize,
        /// The encrypted fixed-point label distribution.
        distribution: EncryptedVector,
    },
    /// **§5.3.1** — the server's homomorphic sum `Enc(Σ p_l)` of one try,
    /// forwarded to the agent for decryption.
    EncryptedDistributionSum {
        /// Which try the sum belongs to.
        try_index: usize,
        /// How many client distributions were folded in (the agent divides
        /// by this to recover the population distribution).
        contributors: usize,
        /// The encrypted sum.
        sum: EncryptedVector,
    },
    /// **§5.3.1** — the agent's verdict after the L1 try-test
    /// `h* = argmin_h ‖p_o,h − p_u‖₁`.
    TryVerdict {
        /// The winning try index `h*`.
        best_try: usize,
        /// `‖p_o,h* − p_u‖₁`.
        distance: f64,
    },
    /// **Fig. 4 step 2, packed** — a client's registry with many counters
    /// laid into each Paillier plaintext (BatchCrypt-style slot packing).
    /// Semantically identical to [`EncryptedRegistry`](Self::EncryptedRegistry)
    /// at ~slots× fewer ciphertexts; a packing-configured coordinator accepts
    /// only this form.
    PackedRegistry {
        /// The sending client.
        client: ClientId,
        /// The slot-packed encrypted registry.
        registry: PackedEncryptedVector,
    },
    /// **Fig. 4 step 3, packed** — the server's broadcast of the lane-wise
    /// homomorphic sum of every received packed registry.
    PackedTotalBroadcast {
        /// The packed encrypted overall registry.
        total: PackedEncryptedVector,
    },
    /// **§5.3.1, packed** — a tentatively selected client's slot-packed
    /// encrypted scaled label distribution for one try.
    PackedDistribution {
        /// The sending client.
        client: ClientId,
        /// Which of the `H` tentative tries this contribution belongs to.
        try_index: usize,
        /// The packed encrypted fixed-point label distribution.
        distribution: PackedEncryptedVector,
    },
    /// **§5.3.1, packed** — the server's lane-wise homomorphic sum of one
    /// try's packed distributions, forwarded to the agent for decryption.
    PackedDistributionSum {
        /// Which try the sum belongs to.
        try_index: usize,
        /// How many client distributions were folded in.
        contributors: usize,
        /// The packed encrypted sum.
        sum: PackedEncryptedVector,
    },
}

impl ProtocolMsg {
    /// The message's kind (for accounting). A packed variant shares the kind
    /// of its element-wise form — it is the same protocol step, just a denser
    /// layout — so per-kind metering compares packed and unpacked runs
    /// link-for-link.
    pub fn kind(&self) -> MsgKind {
        match self {
            ProtocolMsg::PublicKeyDispatch { .. } => MsgKind::KeyDispatch,
            ProtocolMsg::EncryptedRegistry { .. } | ProtocolMsg::PackedRegistry { .. } => {
                MsgKind::Registry
            }
            ProtocolMsg::EncryptedTotalBroadcast { .. }
            | ProtocolMsg::PackedTotalBroadcast { .. } => MsgKind::TotalBroadcast,
            ProtocolMsg::EncryptedDistribution { .. } | ProtocolMsg::PackedDistribution { .. } => {
                MsgKind::Distribution
            }
            ProtocolMsg::EncryptedDistributionSum { .. }
            | ProtocolMsg::PackedDistributionSum { .. } => MsgKind::DistributionSum,
            ProtocolMsg::TryVerdict { .. } => MsgKind::Verdict,
        }
    }

    /// Canonical wire size in bytes, from the `dubhe-he` transport model:
    /// ciphertexts at the fixed width ⌈2·|n|/8⌉, key material at ⌈|n|/8⌉ per
    /// modulus-sized component, and 8 bytes per scalar header field.
    pub fn wire_bytes(&self) -> usize {
        const SCALAR: usize = std::mem::size_of::<u64>();
        match self {
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            } => {
                public_key_size_bytes(public_key)
                    + private_key
                        .as_ref()
                        .map(|sk| private_key_size_bytes(&sk.public))
                        .unwrap_or(0)
            }
            ProtocolMsg::EncryptedRegistry { registry, .. } => SCALAR + vector_wire_bytes(registry),
            ProtocolMsg::EncryptedTotalBroadcast { total } => vector_wire_bytes(total),
            ProtocolMsg::EncryptedDistribution { distribution, .. } => {
                2 * SCALAR + vector_wire_bytes(distribution)
            }
            ProtocolMsg::EncryptedDistributionSum { sum, .. } => {
                2 * SCALAR + vector_wire_bytes(sum)
            }
            ProtocolMsg::TryVerdict { .. } => 2 * SCALAR,
            ProtocolMsg::PackedRegistry { registry, .. } => {
                SCALAR + packed_vector_wire_bytes(registry)
            }
            ProtocolMsg::PackedTotalBroadcast { total } => packed_vector_wire_bytes(total),
            ProtocolMsg::PackedDistribution { distribution, .. } => {
                2 * SCALAR + packed_vector_wire_bytes(distribution)
            }
            ProtocolMsg::PackedDistributionSum { sum, .. } => {
                2 * SCALAR + packed_vector_wire_bytes(sum)
            }
        }
    }

    /// The ciphertext payload portion of [`wire_bytes`](Self::wire_bytes):
    /// bytes of encrypted vector material, excluding headers and keys. This
    /// is the quantity the §6.4 overhead study (and the FL ledger) charges.
    pub fn ciphertext_bytes(&self) -> usize {
        match self {
            ProtocolMsg::PublicKeyDispatch { .. } | ProtocolMsg::TryVerdict { .. } => 0,
            ProtocolMsg::EncryptedRegistry { registry, .. } => vector_wire_bytes(registry),
            ProtocolMsg::EncryptedTotalBroadcast { total } => vector_wire_bytes(total),
            ProtocolMsg::EncryptedDistribution { distribution, .. } => {
                vector_wire_bytes(distribution)
            }
            ProtocolMsg::EncryptedDistributionSum { sum, .. } => vector_wire_bytes(sum),
            ProtocolMsg::PackedRegistry { registry, .. } => packed_vector_wire_bytes(registry),
            ProtocolMsg::PackedTotalBroadcast { total } => packed_vector_wire_bytes(total),
            ProtocolMsg::PackedDistribution { distribution, .. } => {
                packed_vector_wire_bytes(distribution)
            }
            ProtocolMsg::PackedDistributionSum { sum, .. } => packed_vector_wire_bytes(sum),
        }
    }
}

/// An addressed message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The sending party.
    pub from: Party,
    /// The receiving party.
    pub to: Party,
    /// The key-rotation epoch the frame belongs to. Every party starts at
    /// epoch 0; only a key dispatch may advance a receiver's epoch, and any
    /// other frame whose epoch disagrees with the receiver's is refused with
    /// a typed error ([`StaleEpoch`]/[`FutureEpoch`]). Legacy frames without
    /// the field decode as epoch 0.
    ///
    /// [`StaleEpoch`]: crate::error::ProtocolError::StaleEpoch
    /// [`FutureEpoch`]: crate::error::ProtocolError::FutureEpoch
    pub epoch: u64,
    /// The payload.
    pub msg: ProtocolMsg,
}

// Hand-written (de)serialization so a missing `epoch` field defaults to 0:
// pre-epoch peers and recorded transcripts keep decoding unchanged.
impl Serialize for Envelope {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("from".to_string(), self.from.to_value()),
            ("to".to_string(), self.to.to_value()),
            ("epoch".to_string(), self.epoch.to_value()),
            ("msg".to_string(), self.msg.to_value()),
        ])
    }
}

impl Deserialize for Envelope {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Envelope {
            from: Deserialize::from_value(serde::get_field(v, "from")?)?,
            to: Deserialize::from_value(serde::get_field(v, "to")?)?,
            epoch: match serde::get_field(v, "epoch") {
                Ok(value) => Deserialize::from_value(value)?,
                Err(_) => 0,
            },
            msg: Deserialize::from_value(serde::get_field(v, "msg")?)?,
        })
    }
}

/// Per-element ciphertext width under `public` — re-exported convenience so
/// protocol consumers need only this module for size math.
pub fn ciphertext_width(public: &PublicKey) -> usize {
    ciphertext_size_bytes(public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dubhe_he::Keypair;
    use rand::SeedableRng;

    #[test]
    fn wire_bytes_follow_the_transport_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let v = EncryptedVector::encrypt_u64(&kp.public, &[0, 1, 0, 0], &mut rng);
        let ct = ciphertext_width(&kp.public);

        let reg = ProtocolMsg::EncryptedRegistry {
            client: 3,
            registry: v.clone(),
        };
        assert_eq!(reg.wire_bytes(), 8 + 4 * ct);
        assert_eq!(reg.ciphertext_bytes(), 4 * ct);
        assert_eq!(reg.kind(), MsgKind::Registry);

        let to_server = ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: None,
        };
        let to_client = ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: Some(kp.private.clone()),
        };
        // The client copy carries the private factors on top of the modulus.
        assert_eq!(to_client.wire_bytes(), 2 * to_server.wire_bytes());
        assert_eq!(to_server.ciphertext_bytes(), 0);

        let verdict = ProtocolMsg::TryVerdict {
            best_try: 2,
            distance: 0.25,
        };
        assert_eq!(verdict.wire_bytes(), 16);
        assert_eq!(verdict.kind(), MsgKind::Verdict);
    }

    #[test]
    fn a_key_dispatch_prints_no_secret() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        // The key as it is once a client has encrypted under it: its shared
        // half carries the p²/q² combs as well as the factors.
        let _ = dubhe_he::EpochEncryptor::for_key_material(&kp.public, Some(&kp.private), &mut rng);
        let envelope = Envelope {
            from: Party::Agent,
            to: Party::Client(0),
            epoch: 0,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: kp.public.clone(),
                private_key: Some(kp.private.clone()),
            },
        };
        let printed = format!("{envelope:?}");
        // The whole private half is this fixed text: no factor, no comb limb.
        assert!(
            printed.contains("private_key: Some(PrivateKey { bits: 256, factors: <redacted> })"),
            "{printed}"
        );
        let json = serde_json::to_string(&kp.private).unwrap();
        for name in ["\"p\":\"", "\"q\":\""] {
            let digits = json.split(name).nth(1).expect("a factor field");
            let factor = &digits[..digits.find('"').expect("closing quote")];
            assert!(factor.len() > 30, "{factor} is not a 128-bit factor");
            assert!(!printed.contains(factor), "a factor printed");
        }
    }
}
