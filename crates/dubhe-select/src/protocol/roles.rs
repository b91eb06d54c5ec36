//! The protocol roles and their step-wise message handlers.
//!
//! Each role is a state machine exposing `handle(msg) → outgoing envelopes`.
//! What a role *can* know is a property of its struct definition:
//!
//! * the coordinator — [`ShardedCoordinator`](super::shard::ShardedCoordinator),
//!   in its own module, reached through the [`Coordinator`] trait defined
//!   here — has fields for a [`PublicKey`] and ciphertext folds only: there
//!   is no field that could store a [`PrivateKey`] or a plaintext
//!   registry/distribution, and its handler returns
//!   [`ProtocolError::PrivateKeyAtServer`] if a key dispatch tries to smuggle
//!   one in. This is the compile-time embodiment of the paper's
//!   honest-but-curious threat model (§5.3.3).
//! * [`AgentNode`] owns the epoch keypair, decrypts the per-try sums the
//!   server forwards and evaluates the L1 try-test.
//! * [`SelectClientNode`] holds the dispatched key material, fills and
//!   encrypts its own registry (Algorithm 1) and computes its own
//!   participation probability (Eq. 6) from the decrypted overall registry.

use std::collections::BTreeMap;

use dubhe_data::ClassDistribution;
use dubhe_he::{
    packed_vector_wire_bytes, EncryptedVector, EpochEncryptor, FixedPointCodec, Keypair,
    PackedEncryptedVector, PrecomputedEncryptor, PrivateKey, PublicKey,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::codec::RegistryFrame;
use super::message::{ciphertext_width, Envelope, Party, ProtocolMsg};
use super::packing::PackingPolicy;
use crate::codebook::RegistryLayout;
use crate::config::DubheConfig;
use crate::error::ProtocolError;
use crate::probability::participation_probability;
use crate::registry::{register, Registration};
use crate::selector::ClientId;

/// The coordinator slot of the protocol drivers: where server-bound messages
/// are delivered and tentative tries are announced.
///
/// Two implementations cover the deployment spectrum:
///
/// * [`ShardedCoordinator`](crate::protocol::ShardedCoordinator) — the
///   coordinator itself: registry positions partitioned across N shard
///   folds (one in process by default), merged on completion;
/// * [`Client`](crate::protocol::Client) — the client side of the network,
///   which carries every server-bound message over a framed TCP
///   connection to a remote listener (`dubhe-net`'s `ReactorListener`)
///   serving that same coordinator.
///
/// The drivers ([`pump`](crate::protocol::pump),
/// [`run_registration`](crate::protocol::run_registration),
/// [`run_try`](crate::protocol::run_try)) are generic over this trait, so the
/// same `AgentNode`/`SelectClientNode` exchange runs unchanged against
/// either.
pub trait Coordinator {
    /// Delivers one server-bound envelope, returning the messages it
    /// triggers. Local coordinators unwrap the message; networked ones ship
    /// the whole envelope so the remote side still sees who sent it.
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError>;

    /// Announces one tentative try (§5.3.1): the coordinator will accept
    /// exactly one encrypted distribution from each of `participants` for
    /// `try_index`. Networked implementations carry this over the wire.
    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError>;

    /// Opens a new registration epoch with a (possibly resized) cohort:
    /// clients may have joined or left since the last epoch. Resets every
    /// registration and try fold; frames from older epochs are refused with
    /// [`ProtocolError::StaleEpoch`] afterwards.
    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError>;

    /// Closes the registration phase with whatever registries have arrived —
    /// the explicit partial-cohort fold a straggler deadline triggers. The
    /// total is broadcast to the clients that did register (and the agent);
    /// later registries are refused. Errs with
    /// [`ProtocolError::NothingToClose`] if no registry ever arrived.
    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError>;

    /// Closes one tentative try with whatever contributions have arrived,
    /// forwarding the partial sum (and its true contributor count, which is
    /// what the agent divides by) to the agent. Errs with
    /// [`ProtocolError::UnknownTry`] for a try never announced and
    /// [`ProtocolError::NothingToClose`] if nobody contributed (the try is
    /// abandoned either way — never a hang).
    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError>;

    /// Delivers one deferred `DBH2` registry upload (see [`RegistryFrame`]).
    ///
    /// The default materialises the envelope and routes through
    /// [`deliver`](Self::deliver) — correct for every implementation. The
    /// local coordinator overrides it to decode the ciphertext block as a
    /// borrowed view and fold residues straight out of the frame bytes,
    /// with the same epoch/slot/packing checks and the same typed errors
    /// as the eager path.
    fn deliver_registry_frame(
        &mut self,
        frame: RegistryFrame,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        self.deliver(frame.materialize()?)
    }
}

/// The record a coordinator keeps of every closed aggregation: who was
/// expected, who actually contributed, and whether the close was partial
/// (straggler deadline / explicit churn) or natural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortOutcome {
    /// The epoch the aggregation ran in.
    pub epoch: u64,
    /// The tentative try, or `None` for the registration fold.
    pub try_index: Option<usize>,
    /// How many contributions were expected.
    pub expected: usize,
    /// How many actually arrived before the close.
    pub contributed: usize,
    /// `true` if the cohort was closed before everyone contributed.
    pub partial: bool,
}

/// The agent-side view of one multi-time tentative try: what
/// [`AgentNode::try_outcomes`] reports once the try's sum is decrypted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecureTryOutcome {
    /// The decrypted population distribution `p_o,h` of this try.
    pub population: Vec<f64>,
    /// `‖p_o,h − p_u‖₁`.
    pub distance_to_uniform: f64,
    /// Ciphertext bytes that crossed the network for this try (canonical
    /// wire width).
    pub ciphertext_bytes: usize,
    /// Number of encrypted distribution messages (one per contributor).
    pub messages: usize,
}

/// The keypair-owning agent: dispatches the epoch key, decrypts the per-try
/// sums the server forwards, and issues the L1 try-test verdict.
#[derive(Debug)]
pub struct AgentNode {
    keypair: Keypair,
    key_bits: u64,
    epoch: u64,
    codec: FixedPointCodec,
    classes: usize,
    overall_registry: Option<Vec<u64>>,
    expected_tries: usize,
    try_outcomes: BTreeMap<usize, SecureTryOutcome>,
    verdict: Option<(usize, f64)>,
}

impl AgentNode {
    /// Generates a fresh epoch keypair (and pays the key's one-time
    /// fixed-base precomputation so every client encrypts on the fast path).
    pub fn new<R: Rng + ?Sized>(key_bits: u64, classes: usize, rng: &mut R) -> Self {
        let keypair = Keypair::generate(key_bits, rng);
        let _ = PrecomputedEncryptor::new(&keypair.public, rng);
        AgentNode {
            key_bits,
            ..AgentNode::from_keypair(keypair, classes)
        }
    }

    /// Wraps existing key material (used by compatibility drivers whose
    /// callers generated the keypair themselves).
    pub fn from_keypair(keypair: Keypair, classes: usize) -> Self {
        let key_bits = keypair.public.n().bits();
        AgentNode {
            keypair,
            key_bits,
            epoch: 0,
            codec: FixedPointCodec::default(),
            classes,
            overall_registry: None,
            expected_tries: 0,
            try_outcomes: BTreeMap::new(),
            verdict: None,
        }
    }

    /// The agent's current key-rotation epoch (starts at 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rotates the epoch keypair: generates a fresh keypair at the same key
    /// size, advances the epoch, forgets everything derived from the old key
    /// (overall registry, try outcomes, verdict) and returns the key
    /// dispatches — stamped with the new epoch — that drive cohort
    /// re-registration. Stale frames from the old epoch are refused by every
    /// receiver from here on.
    pub fn rotate_epoch<R: Rng + ?Sized>(&mut self, clients: usize, rng: &mut R) -> Vec<Envelope> {
        let keypair = Keypair::generate(self.key_bits, rng);
        let _ = PrecomputedEncryptor::new(&keypair.public, rng);
        self.keypair = keypair;
        self.epoch += 1;
        self.overall_registry = None;
        self.try_outcomes.clear();
        self.verdict = None;
        self.dispatch_keys(clients)
    }

    /// Delivers one envelope, checking its epoch stamp first. The agent is
    /// the epoch's author: nothing another party sends may advance it, so
    /// both directions of disagreement are typed errors.
    pub fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => self.handle(envelope.msg),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => Err(ProtocolError::FutureEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
        }
    }

    /// The epoch public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.keypair.public
    }

    /// The epoch private key (the agent is its only protocol-level owner
    /// besides the clients it dispatches to).
    pub fn private_key(&self) -> &PrivateKey {
        &self.keypair.private
    }

    /// Fig. 4 step 1: key dispatch. Clients receive the full keypair (they
    /// decrypt the total themselves); the server receives the public key
    /// only. The server copy is emitted first so it can verify uploads.
    pub fn dispatch_keys(&self, clients: usize) -> Vec<Envelope> {
        let mut out = Vec::with_capacity(clients + 1);
        out.push(Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: self.epoch,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: self.keypair.public.clone(),
                private_key: None,
            },
        });
        for id in 0..clients {
            out.push(Envelope {
                from: Party::Agent,
                to: Party::Client(id),
                epoch: self.epoch,
                msg: ProtocolMsg::PublicKeyDispatch {
                    public_key: self.keypair.public.clone(),
                    private_key: Some(self.keypair.private.clone()),
                },
            });
        }
        out
    }

    /// Starts a multi-time round of `h` tries: clears previous outcomes; the
    /// verdict is emitted after the `h`-th sum is decrypted.
    pub fn expect_tries(&mut self, h: usize) {
        self.expected_tries = h;
        self.try_outcomes.clear();
        self.verdict = None;
    }

    /// The overall registry decrypted from the server broadcast, if seen.
    pub fn overall_registry(&self) -> Option<&[u64]> {
        self.overall_registry.as_deref()
    }

    /// The per-try outcomes decrypted so far, in try order.
    pub fn try_outcomes(&self) -> Vec<SecureTryOutcome> {
        self.try_outcomes.values().cloned().collect()
    }

    /// The verdict of the completed multi-time round, if all tries arrived.
    pub fn verdict(&self) -> Option<(usize, f64)> {
        self.verdict
    }

    /// Records one decrypted try sum (however it travelled — element-wise or
    /// packed), scores it against the uniform distribution, and emits the
    /// verdict once every expected try has arrived.
    fn record_try_outcome(
        &mut self,
        try_index: usize,
        contributors: usize,
        decrypted: Vec<u64>,
        ciphertext_bytes: usize,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        let population = self.codec.decode_average(&decrypted, contributors);
        let p_u = vec![1.0 / self.classes as f64; self.classes];
        let distance = dubhe_data::l1_distance(&population, &p_u);
        self.try_outcomes.insert(
            try_index,
            SecureTryOutcome {
                population,
                distance_to_uniform: distance,
                ciphertext_bytes,
                messages: contributors,
            },
        );
        if self.expected_tries > 0 && self.try_outcomes.len() == self.expected_tries {
            let (best_try, distance) = self
                .try_outcomes
                .iter()
                .min_by(|a, b| {
                    a.1.distance_to_uniform
                        .partial_cmp(&b.1.distance_to_uniform)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(&i, o)| (i, o.distance_to_uniform))
                .expect("expected_tries > 0");
            self.verdict = Some((best_try, distance));
            return Ok(vec![Envelope {
                from: Party::Agent,
                to: Party::Server,
                epoch: self.epoch,
                msg: ProtocolMsg::TryVerdict { best_try, distance },
            }]);
        }
        Ok(Vec::new())
    }

    /// Handles one incoming message, returning the messages it triggers.
    pub fn handle(&mut self, msg: ProtocolMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match msg {
            ProtocolMsg::EncryptedTotalBroadcast { total } => {
                self.overall_registry = Some(total.decrypt_u64(&self.keypair.private)?);
                Ok(Vec::new())
            }
            ProtocolMsg::PackedTotalBroadcast { total } => {
                self.overall_registry = Some(total.decrypt_u64(&self.keypair.private)?);
                Ok(Vec::new())
            }
            ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors,
                sum,
            } => {
                let ciphertext_bytes =
                    contributors * self.classes * ciphertext_width(&self.keypair.public);
                let decrypted = sum.decrypt_u64(&self.keypair.private)?;
                self.record_try_outcome(try_index, contributors, decrypted, ciphertext_bytes)
            }
            ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors,
                sum,
            } => {
                // Each contributor uploaded one packed vector shaped like the
                // sum, so the uplink ciphertext traffic of the try is
                // `contributors ×` the sum's own packed wire size.
                let ciphertext_bytes = contributors * packed_vector_wire_bytes(&sum);
                let decrypted = sum.decrypt_u64(&self.keypair.private)?;
                self.record_try_outcome(try_index, contributors, decrypted, ciphertext_bytes)
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "agent",
                kind: other.kind(),
            }),
        }
    }
}

/// The registration plan a full selection client executes on key receipt.
#[derive(Debug, Clone)]
struct RegistrationPlan {
    layout: RegistryLayout,
    thresholds: Vec<f64>,
    k: usize,
}

/// An ordinary selection client: fills and encrypts its registry, decrypts
/// the broadcast total with the dispatched key, and computes its own
/// participation probability.
#[derive(Debug)]
pub struct SelectClientNode {
    id: ClientId,
    distribution: ClassDistribution,
    codec: FixedPointCodec,
    plan: Option<RegistrationPlan>,
    /// When set, the client uploads packed registries (and, if the policy
    /// packs tries, packed distributions) under the policy's slot layout.
    packing: Option<PackingPolicy>,
    epoch: u64,
    public_key: Option<PublicKey>,
    private_key: Option<PrivateKey>,
    encryptor: Option<EpochEncryptor>,
    registration: Option<Registration>,
    overall_registry: Option<Vec<u64>>,
}

impl SelectClientNode {
    /// A client that will register (Algorithm 1) under `config` as soon as
    /// the epoch key arrives.
    pub fn new(id: ClientId, distribution: ClassDistribution, config: &DubheConfig) -> Self {
        let plan = RegistrationPlan {
            layout: config.validate(),
            thresholds: config.effective_thresholds(),
            k: config.k,
        };
        SelectClientNode {
            plan: Some(plan),
            ..SelectClientNode::without_registration(id, distribution)
        }
    }

    /// A client that only takes part in multi-time distribution exchanges
    /// (no registration phase).
    pub fn without_registration(id: ClientId, distribution: ClassDistribution) -> Self {
        SelectClientNode {
            id,
            distribution,
            codec: FixedPointCodec::default(),
            plan: None,
            packing: None,
            epoch: 0,
            public_key: None,
            private_key: None,
            encryptor: None,
            registration: None,
            overall_registry: None,
        }
    }

    /// Builder: uploads under a [`PackingPolicy`] — the registry (and, when
    /// the policy packs tries, each distribution) is slot-packed before
    /// encryption. The coordinator must hold the *same* policy: a mismatched
    /// layout is refused on its side with a typed error.
    pub fn with_packing(mut self, policy: PackingPolicy) -> Self {
        self.packing = Some(policy);
        self
    }

    /// The client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The client's current key-rotation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs epoch key material without going through a dispatch message
    /// (used by compatibility drivers). Any encryptor built for a previous
    /// key is discarded.
    pub fn install_keys(&mut self, public: PublicKey, private: PrivateKey) {
        self.public_key = Some(public);
        self.private_key = Some(private);
        self.encryptor = None;
    }

    /// Delivers one envelope, checking its epoch stamp first. A key dispatch
    /// from a *newer* epoch is how the client learns of a rotation: it adopts
    /// the epoch, forgets the old key material and (if it holds a
    /// registration plan) re-registers under the new key. Anything else from
    /// the wrong epoch is a typed error.
    pub fn deliver<R: Rng + ?Sized>(
        &mut self,
        envelope: Envelope,
        rng: &mut R,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => self.handle(envelope.msg, rng),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => {
                if matches!(envelope.msg, ProtocolMsg::PublicKeyDispatch { .. }) {
                    self.epoch = envelope.epoch;
                    self.encryptor = None;
                    self.overall_registry = None;
                    self.handle(envelope.msg, rng)
                } else {
                    Err(ProtocolError::FutureEpoch {
                        received: envelope.epoch,
                        current: self.epoch,
                    })
                }
            }
        }
    }

    /// The client's registration, once the key arrived and Algorithm 1 ran.
    pub fn registration(&self) -> Option<&Registration> {
        self.registration.as_ref()
    }

    /// The overall registry this client decrypted from the broadcast.
    pub fn overall_registry(&self) -> Option<&[u64]> {
        self.overall_registry.as_deref()
    }

    /// Eq. 6: the participation probability this client computes *for
    /// itself* from the decrypted overall registry and its own category.
    pub fn participation_probability(&self) -> Option<f64> {
        let overall = self.overall_registry.as_ref()?;
        let registration = self.registration.as_ref()?;
        let k = self.plan.as_ref()?.k;
        Some(participation_probability(overall, registration.position, k))
    }

    /// The client's epoch encryptor, built on first use. Clients hold the
    /// dispatched *keypair*, so this is normally the CRT-split
    /// [`CrtEncryptor`](dubhe_he::CrtEncryptor) fast path; a client that
    /// somehow only has the public half falls back to the
    /// [`PrecomputedEncryptor`] — the ciphertexts are bit-identical either
    /// way.
    fn encryptor<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<&EpochEncryptor, ProtocolError> {
        if self.encryptor.is_none() {
            let pk = self
                .public_key
                .clone()
                .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
            self.encryptor = Some(EpochEncryptor::for_key_material(
                &pk,
                self.private_key.as_ref(),
                rng,
            ));
        }
        Ok(self.encryptor.as_ref().expect("just installed"))
    }

    /// §5.3.1: encrypts this client's scaled label distribution for one
    /// tentative try and addresses it to the server.
    pub fn encrypt_distribution<R: Rng + ?Sized>(
        &mut self,
        try_index: usize,
        rng: &mut R,
    ) -> Result<Envelope, ProtocolError> {
        let scaled = self.codec.encode_vec(&self.distribution.proportions());
        let packer = self.packing.filter(|p| p.packs_tries()).map(|p| p.packer());
        let id = self.id;
        let encryptor = self.encryptor(rng)?;
        let msg = match packer {
            Some(packer) => ProtocolMsg::PackedDistribution {
                client: id,
                try_index,
                distribution: PackedEncryptedVector::encrypt_with(packer, encryptor, &scaled, rng)?,
            },
            None => ProtocolMsg::EncryptedDistribution {
                client: id,
                try_index,
                distribution: EncryptedVector::encrypt_u64_with(encryptor, &scaled, rng),
            },
        };
        Ok(Envelope {
            from: Party::Client(self.id),
            to: Party::Server,
            epoch: self.epoch,
            msg,
        })
    }

    /// Handles one incoming message, returning the messages it triggers.
    pub fn handle<R: Rng + ?Sized>(
        &mut self,
        msg: ProtocolMsg,
        rng: &mut R,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match msg {
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            } => {
                let private_key =
                    private_key.ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                self.install_keys(public_key, private_key);
                if let Some(plan) = self.plan.clone() {
                    // Fig. 4 step 2: register, encrypt, upload — slot-packed
                    // when a packing policy is installed.
                    let registration = register(&self.distribution, &plan.layout, &plan.thresholds);
                    let packer = self.packing.map(|p| p.packer());
                    let id = self.id;
                    let encryptor = self.encryptor(rng)?;
                    let msg = match packer {
                        Some(packer) => ProtocolMsg::PackedRegistry {
                            client: id,
                            registry: PackedEncryptedVector::encrypt_with(
                                packer,
                                encryptor,
                                &registration.registry,
                                rng,
                            )?,
                        },
                        None => ProtocolMsg::EncryptedRegistry {
                            client: id,
                            registry: EncryptedVector::encrypt_u64_with(
                                encryptor,
                                &registration.registry,
                                rng,
                            ),
                        },
                    };
                    self.registration = Some(registration);
                    Ok(vec![Envelope {
                        from: Party::Client(self.id),
                        to: Party::Server,
                        epoch: self.epoch,
                        msg,
                    }])
                } else {
                    Ok(Vec::new())
                }
            }
            ProtocolMsg::EncryptedTotalBroadcast { total } => {
                let sk = self
                    .private_key
                    .as_ref()
                    .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                self.overall_registry = Some(total.decrypt_u64(sk)?);
                Ok(Vec::new())
            }
            ProtocolMsg::PackedTotalBroadcast { total } => {
                let sk = self
                    .private_key
                    .as_ref()
                    .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                // Under a policy the lanes are bounded by its registry
                // model, so the total's ciphertexts stack into fewer
                // decryptions.
                self.overall_registry = Some(match &self.packing {
                    Some(policy) => total.decrypt_u64_under(sk, &policy.registry_model())?,
                    None => total.decrypt_u64(sk)?,
                });
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "client",
                kind: other.kind(),
            }),
        }
    }
}
