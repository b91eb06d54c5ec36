//! The federated-learning simulator: select → broadcast → local train (in
//! parallel) → aggregate → evaluate, round after round.
//!
//! Selection can run in three modes ([`SecureMode`]):
//!
//! * **Modeled** — the plaintext decision model picks participants and the
//!   ledger charges the *modeled* ciphertext sizes of the secure exchanges
//!   (fast; the default for large-scale experiments).
//! * **Encrypted** — registration and multi-time selection actually run
//!   through the role-separated actor/transport API of
//!   [`dubhe_select::protocol`]: real Paillier ciphertexts, real agent
//!   decryptions, and a ledger charged from the metered transport.
//! * **EncryptedTcp** — the same exchange, but the coordinator is a
//!   [`ShardedCoordinator`] behind a loopback TCP listener: every
//!   server-bound message crosses a real socket as a length-prefixed frame,
//!   and the ledger additionally records the measured frame bytes.
//!
//! Because every transport prices ciphertexts at their canonical width, all
//! modes produce identical selections, histories and canonical ledger byte
//! totals for the same key size — which the tests pin.

use dubhe_data::{l1_distance, ClassDistribution, Dataset};
use dubhe_ml::Sequential;
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::multi_time_select;
use dubhe_select::protocol::stats::ListenerStats;
use dubhe_select::protocol::{
    pump, run_registration, run_try_with_dropouts, ChannelPolicy, Client, ClientConfig,
    Coordinator, Envelope, InMemoryTransport, PackingPolicy, RegistrationRun, ShardedCoordinator,
    Transport,
};
use dubhe_select::selector::{population_distribution, ClientSelector};
use dubhe_select::{ProtocolError, SelectError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::aggregate::{aggregate, Aggregation};
use crate::client::{FlClient, LocalTrainingConfig, LocalUpdate};
use crate::comm::{encrypted_vector_bytes, model_update_bytes, CommLedger, RoundComm};
use crate::error::FlError;
use crate::history::{History, RoundRecord};

/// How the simulator treats the secure selection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecureMode {
    /// Plaintext decision model; the ledger charges modeled ciphertext sizes
    /// under a `key_bits`-bit Paillier key.
    Modeled {
        /// Key size the modeled ciphertext accounting assumes.
        key_bits: u64,
    },
    /// Registration and multi-time selection run end-to-end through the
    /// actor/transport API with real `key_bits`-bit Paillier ciphertexts.
    Encrypted {
        /// Key size of the real epoch keypair the agent generates.
        key_bits: u64,
        /// BatchCrypt-style slot packing: `Some(slot_bits)` packs that many
        /// bits per counter lane, many lanes per Paillier plaintext, so the
        /// ciphertext-bearing messages shrink by the lane count. The policy's
        /// [`HeadroomModel`](dubhe_he::HeadroomModel) proves the cohort can
        /// never overflow a lane before any ciphertext exists; a slot width
        /// whose lanes cannot hold the fixed-scale try distributions packs
        /// the registration epoch only, and one that cannot even hold the
        /// registration counters is refused with a typed error. Decrypted
        /// totals — and therefore selections and histories — are identical
        /// to the unpacked run on the same seed.
        packing: Option<u32>,
    },
    /// Like [`Encrypted`](Self::Encrypted), but the coordinator runs behind
    /// a loopback TCP listener: every server-bound message crosses a real
    /// socket as a length-prefixed `DBH2` frame, the coordinator state is
    /// sharded across `shards` rayon-parallel folds, and the ledger
    /// additionally records the measured frame bytes
    /// ([`RoundComm::wire_frame_bytes`](crate::comm::RoundComm::wire_frame_bytes)).
    /// Selections, training history and canonical byte totals are identical
    /// to the other two modes on the same seed; only the measured framing
    /// is added.
    EncryptedTcp {
        /// Key size of the real epoch keypair the agent generates.
        key_bits: u64,
        /// Shard count of the remote coordinator (≥ 1).
        shards: usize,
        /// Slot packing, exactly as in [`Encrypted`](Self::Encrypted) — the
        /// packed frames cross the socket like any other, so the measured
        /// wire bytes shrink along with the canonical ciphertext accounting.
        packing: Option<u32>,
        /// Whether the loopback connection runs the authenticated channel:
        /// under [`ChannelPolicy::Required`] the listener and client run
        /// the handshake at round 0 (the client pins the listener's
        /// public identity) and every protocol frame crosses the socket
        /// AEAD-sealed. Selections, histories and canonical byte ledgers
        /// are bit-identical to a `Plaintext` run on the same seed — the
        /// channel pays only handshake + per-frame sealing bytes, metered
        /// separately in the client's [`WireStats`].
        ///
        /// [`WireStats`]: dubhe_select::protocol::WireStats
        channel: ChannelPolicy,
    },
}

impl SecureMode {
    /// The key size this mode accounts (or encrypts) with.
    pub fn key_bits(&self) -> u64 {
        match *self {
            SecureMode::Modeled { key_bits }
            | SecureMode::Encrypted { key_bits, .. }
            | SecureMode::EncryptedTcp { key_bits, .. } => key_bits,
        }
    }

    /// True for the end-to-end encrypted modes (in-process or socket-backed).
    pub fn is_encrypted(&self) -> bool {
        matches!(
            self,
            SecureMode::Encrypted { .. } | SecureMode::EncryptedTcp { .. }
        )
    }

    /// The slot width of an encrypted mode's ciphertext packing (`None` when
    /// the mode is modeled or uploads one counter per plaintext).
    pub fn packing_slot_bits(&self) -> Option<u32> {
        match *self {
            SecureMode::Encrypted { packing, .. } | SecureMode::EncryptedTcp { packing, .. } => {
                packing
            }
            SecureMode::Modeled { .. } => None,
        }
    }
}

/// The coordinator slot of an encrypted simulation: in-process, or a framed
/// TCP connection to the loopback [`ReactorListener`].
// One `SimCoordinator` exists per simulation and lives on the stack for its
// whole run — the variant size gap buys nothing to box away.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SimCoordinator {
    Local(ShardedCoordinator),
    Remote(Client),
}

impl SimCoordinator {
    /// Measured socket bytes so far (both directions; zero for local).
    fn wire_bytes(&self) -> usize {
        match self {
            SimCoordinator::Local(_) => 0,
            SimCoordinator::Remote(t) => t.wire_stats().total_bytes(),
        }
    }
}

impl Coordinator for SimCoordinator {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        match self {
            SimCoordinator::Local(s) => s.deliver(envelope),
            SimCoordinator::Remote(t) => t.deliver(envelope),
        }
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[usize],
    ) -> Result<(), ProtocolError> {
        match self {
            SimCoordinator::Local(s) => Coordinator::announce_try(s, try_index, participants),
            SimCoordinator::Remote(t) => t.announce_try(try_index, participants),
        }
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        match self {
            SimCoordinator::Local(s) => Coordinator::begin_epoch(s, epoch, expected_registrations),
            SimCoordinator::Remote(t) => t.begin_epoch(epoch, expected_registrations),
        }
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        match self {
            SimCoordinator::Local(s) => Coordinator::close_registration(s),
            SimCoordinator::Remote(t) => t.close_registration(),
        }
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        match self {
            SimCoordinator::Local(s) => Coordinator::close_try(s, try_index),
            SimCoordinator::Remote(t) => t.close_try(try_index),
        }
    }
}

/// One injected mid-round churn event: `client` silently stops uploading in
/// round `round` (see [`SimulationConfig::dropout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientDropout {
    /// The round the client vanishes in.
    pub round: usize,
    /// The client that vanishes.
    pub client: usize,
}

/// Run-level configuration of a federated simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of federated rounds.
    pub rounds: usize,
    /// Evaluate the global model on the test set every `eval_every` rounds
    /// (the final round is always evaluated).
    pub eval_every: usize,
    /// Local-training hyper-parameters (E, B, optimizer).
    pub local: LocalTrainingConfig,
    /// Aggregation rule (the paper uses FedVC's uniform average).
    pub aggregation: Aggregation,
    /// Number of tentative tries `H` of the multi-time selection (1 = one-off).
    pub multi_time_h: usize,
    /// Master seed; every round derives its own sub-seed from it.
    pub seed: u64,
    /// Train the selected clients in parallel with rayon.
    pub parallel: bool,
    /// Secure-protocol mode: modeled accounting or the real encrypted
    /// exchange (see [`SecureMode`]).
    pub secure: SecureMode,
    /// Rotate the epoch keypair every this many rounds (0 = never). A
    /// rotation replays the registration epoch under a fresh key: the agent
    /// generates a new keypair, every client re-registers, and the
    /// coordinator starts a new fold — all of it real traffic in the
    /// encrypted modes, and a registration-sized ledger charge in the
    /// modeled mode, so the modes stay byte-equivalent under rotation.
    pub rotate_epoch_every: usize,
    /// Injected mid-round churn, honored by the encrypted multi-time
    /// exchange: the named client is announced as a tentative participant
    /// but never uploads, and the coordinator explicitly closes the
    /// partial-cohort fold. Ignored by the modeled mode and by one-off
    /// (`multi_time_h == 1`) rounds, which have no per-try uploads to drop.
    pub dropout: Option<ClientDropout>,
}

impl SimulationConfig {
    /// A sensible default for laptop-scale experiments.
    pub fn quick(rounds: usize, seed: u64) -> Self {
        SimulationConfig {
            rounds,
            eval_every: 1,
            local: LocalTrainingConfig {
                epochs: 1,
                batch_size: 8,
                optimizer: crate::client::LocalOptimizer::Sgd { lr: 0.05 },
            },
            aggregation: Aggregation::FedVcUniform,
            multi_time_h: 1,
            seed,
            parallel: true,
            secure: SecureMode::Modeled {
                key_bits: dubhe_he::PAPER_KEY_BITS,
            },
            rotate_epoch_every: 0,
            dropout: None,
        }
    }
}

/// A complete federated system: clients, test set, global model and a selector.
pub struct FlSimulation {
    clients: Vec<FlClient>,
    client_distributions: Vec<ClassDistribution>,
    test: Dataset,
    global_model: Sequential,
    selector: Box<dyn ClientSelector>,
    config: SimulationConfig,
    ledger: CommLedger,
    /// The live actors of an encrypted epoch, kept across rounds: the agent
    /// holds the epoch keypair, clients their key material and
    /// registrations, the coordinator slot its public key — in-process or a
    /// socket to the loopback listener.
    ///
    /// Declared before `listener` on purpose: fields drop in declaration
    /// order, so the endpoint's connection closes before the listener's
    /// threads stop.
    protocol: Option<RegistrationRun<SimCoordinator>>,
    /// The loopback coordinator listener of a [`SecureMode::EncryptedTcp`]
    /// run (threads stop on drop).
    listener: Option<ReactorListener<ShardedCoordinator>>,
}

impl FlSimulation {
    /// Assembles a simulation.
    ///
    /// # Panics
    /// Panics if there are no clients, the test set is empty, or the selector's
    /// population disagrees with the number of clients.
    pub fn new(
        clients: Vec<FlClient>,
        test: Dataset,
        global_model: Sequential,
        selector: Box<dyn ClientSelector>,
        config: SimulationConfig,
    ) -> Self {
        assert!(
            !clients.is_empty(),
            "a federation needs at least one client"
        );
        assert!(!test.is_empty(), "the test set must not be empty");
        assert_eq!(
            selector.population(),
            clients.len(),
            "selector population ({}) must match the number of clients ({})",
            selector.population(),
            clients.len()
        );
        assert!(config.rounds > 0, "need at least one round");
        assert!(config.eval_every > 0, "eval_every must be positive");
        assert!(config.multi_time_h >= 1, "H must be at least 1");
        if let SecureMode::EncryptedTcp { shards, .. } = config.secure {
            assert!(shards >= 1, "EncryptedTcp needs at least one shard");
        }
        let client_distributions = clients.iter().map(FlClient::distribution).collect();
        FlSimulation {
            clients,
            client_distributions,
            test,
            global_model,
            selector,
            config,
            ledger: CommLedger::new(),
            protocol: None,
            listener: None,
        }
    }

    /// Convenience constructor from per-client datasets.
    pub fn from_datasets(
        datasets: Vec<Dataset>,
        test: Dataset,
        global_model: Sequential,
        selector: Box<dyn ClientSelector>,
        config: SimulationConfig,
    ) -> Self {
        let clients = datasets
            .into_iter()
            .enumerate()
            .map(|(id, ds)| FlClient::new(id, ds).expect("every client dataset must be non-empty"))
            .collect();
        FlSimulation::new(clients, test, global_model, selector, config)
    }

    /// The per-client label distributions.
    pub fn client_distributions(&self) -> &[ClassDistribution] {
        &self.client_distributions
    }

    /// The current global model.
    pub fn global_model(&self) -> &Sequential {
        &self.global_model
    }

    /// The communication ledger accumulated so far.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// The name of the selector in use.
    pub fn selector_name(&self) -> &'static str {
        self.selector.name()
    }

    /// True once the encrypted epoch ran and the actors are live.
    pub fn protocol_active(&self) -> bool {
        self.protocol.is_some()
    }

    /// Connection metrics of the live loopback listener of an
    /// [`EncryptedTcp`](SecureMode::EncryptedTcp) run — `None` in the other
    /// modes (or before round 0 spawns the listener).
    pub fn listener_stats(&self) -> Option<ListenerStats> {
        self.listener.as_ref().map(ReactorListener::stats)
    }

    /// Resolves the configured slot width into a [`PackingPolicy`] for this
    /// cohort, or `None` when the mode does not pack.
    ///
    /// A width whose lanes hold both the registration counters and the
    /// fixed-scale try distributions packs everything; one that only fits
    /// the registration counters (e.g. 16-bit lanes against the 10⁶ fixed
    /// scale) packs the registration epoch alone; one whose headroom proof
    /// fails even for binary counters surfaces as a typed
    /// [`ProtocolError`] — the simulation refuses to start an epoch a lane
    /// could overflow.
    fn packing_policy(&self, key_bits: u64) -> Result<Option<PackingPolicy>, ProtocolError> {
        let Some(slot_bits) = self.config.secure.packing_slot_bits() else {
            return Ok(None);
        };
        let n = self.client_distributions.len() as u64;
        let policy = PackingPolicy::new(slot_bits, key_bits, n)
            .or_else(|_| PackingPolicy::registry_only(slot_bits, key_bits, n))?;
        Ok(Some(policy))
    }

    /// The RNG stream feeding the cryptographic side of the encrypted mode.
    /// It is independent of the round's selection stream so that modeled and
    /// encrypted runs draw identical tentative selections.
    fn crypto_rng(&self, round: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round as u64)
                ^ 0xD3C0_DE00_5EC0_DE5A,
        )
    }

    /// Runs one round and returns its record.
    ///
    /// Fails with a typed [`FlError`] instead of panicking when the selector
    /// produces an empty or out-of-range participant set, when the encrypted
    /// exchange is violated, or when the local-training configuration is
    /// unusable — a misconfigured run cannot abort a long simulation from
    /// inside.
    pub fn run_round(&mut self, round: usize) -> Result<RoundRecord, FlError> {
        let mut rng =
            StdRng::seed_from_u64(self.config.seed.wrapping_add(round as u64 * 0x5851_F42D));
        let mut crypto_rng = self.crypto_rng(round);
        let mut transport = InMemoryTransport::new();
        let key_bits = self.config.secure.key_bits();

        // 0. Encrypted mode: the registration epoch (Fig. 4) runs once, at
        //    round 0, through the real actor exchange — against an
        //    in-process coordinator, or over loopback TCP to a sharded one.
        let registry_len = self.selector.registry_len();
        let registration_round = round == 0 && registry_len.is_some();
        let wire_before = self.protocol.as_ref().map_or(0, |r| r.server.wire_bytes());
        if self.config.secure.is_encrypted() && registration_round {
            if let Some(config) = self.selector.secure_config().cloned() {
                let n = self.client_distributions.len();
                let packing = self.packing_policy(key_bits)?;
                let server = match self.config.secure {
                    SecureMode::EncryptedTcp {
                        shards, channel, ..
                    } => {
                        let mut coordinator = ShardedCoordinator::new(n, shards);
                        if let Some(policy) = packing {
                            coordinator = coordinator.with_packing(policy);
                        }
                        let listener = ReactorListener::spawn_with(
                            coordinator,
                            ReactorConfig::default().with_channel(channel),
                        )?;
                        // Under Required the client pins the identity the
                        // listener just minted — trust is established at
                        // spawn, not on first use.
                        let mut client_config = ClientConfig::default().with_channel(channel);
                        if let Some(pin) = listener.public_identity() {
                            client_config = client_config.with_expected_server(pin);
                        }
                        let endpoint = Client::connect(listener.addr(), 1, client_config)?;
                        self.listener = Some(listener);
                        SimCoordinator::Remote(endpoint)
                    }
                    _ => {
                        let mut coordinator = ShardedCoordinator::new(n, 1);
                        if let Some(policy) = packing {
                            coordinator = coordinator.with_packing(policy);
                        }
                        SimCoordinator::Local(coordinator)
                    }
                };
                let run = run_registration(
                    &self.client_distributions,
                    &config,
                    key_bits,
                    packing,
                    server,
                    &mut transport,
                    &mut crypto_rng,
                )?;
                // The decrypted overall registry must agree bit-for-bit with
                // the plaintext decision model the selector runs on.
                if let Some(expected) = self.selector.overall_registry() {
                    if run.overall_registry() != Some(expected) {
                        return Err(dubhe_select::ProtocolError::RegistryDivergence.into());
                    }
                }
                self.protocol = Some(run);
            }
        }

        // 0b. Key rotation: every `rotate_epoch_every` rounds the agent
        //     generates a fresh keypair and the whole cohort re-registers
        //     under it — a full registration epoch replay, driven by the
        //     same per-round crypto stream so selections stay untouched.
        let rotate_every = self.config.rotate_epoch_every;
        let rotation_round = rotate_every > 0
            && round > 0
            && round.is_multiple_of(rotate_every)
            && registry_len.is_some();
        if self.config.secure.is_encrypted() && rotation_round {
            if let Some(run) = self.protocol.as_mut() {
                let n = run.clients.len();
                for e in run.agent.rotate_epoch(n, &mut crypto_rng) {
                    transport.send(e);
                }
                pump(
                    &mut transport,
                    &mut run.agent,
                    &mut run.clients,
                    &mut run.server,
                    &mut crypto_rng,
                )?;
                // The re-decrypted overall registry must still agree with
                // the plaintext decision model — rotation changes the key,
                // never the data.
                if let Some(expected) = self.selector.overall_registry() {
                    if run.overall_registry() != Some(expected) {
                        return Err(dubhe_select::ProtocolError::RegistryDivergence.into());
                    }
                }
            }
        }

        // Which clients (if any) silently drop out of this round's tries.
        let drop_ids: Vec<usize> = match self.config.dropout {
            Some(d) if d.round == round => vec![d.client],
            _ => Vec::new(),
        };
        let mut dropped_clients: Vec<usize> = Vec::new();

        // 1. Client selection (optionally multi-time, §5.3.1).
        let mut selected = if self.config.multi_time_h > 1 {
            let h = self.config.multi_time_h;
            if let (true, Some(run)) = (self.config.secure.is_encrypted(), self.protocol.as_mut()) {
                // The real §5.3.1 exchange: tentative clients encrypt, the
                // server folds, the agent decrypts and issues the verdict.
                run.agent.expect_tries(h);
                let mut tries = Vec::with_capacity(h);
                for try_index in 0..h {
                    let tentative = self.selector.select(&mut rng);
                    let dropped: Vec<usize> = drop_ids
                        .iter()
                        .copied()
                        .filter(|c| tentative.contains(c))
                        .collect();
                    // An announced cohort that loses dropouts mid-try is
                    // closed explicitly, and the agent scores the try over
                    // the survivors.
                    for &c in &dropped {
                        if !dropped_clients.contains(&c) {
                            dropped_clients.push(c);
                        }
                    }
                    run_try_with_dropouts(
                        try_index,
                        &tentative,
                        &dropped,
                        &mut run.agent,
                        &mut run.clients,
                        &mut run.server,
                        &mut transport,
                        &mut crypto_rng,
                    )?;
                    tries.push(tentative);
                }
                let (best_try, _) = run.agent.verdict().expect("all tries evaluated");
                tries.swap_remove(best_try)
            } else {
                multi_time_select(
                    self.selector.as_mut(),
                    &self.client_distributions,
                    h,
                    &mut rng,
                )?
                .selected
            }
        } else {
            self.selector.select(&mut rng)
        };
        // A client that dropped mid-round does not come back to train in it.
        if !dropped_clients.is_empty() {
            selected.retain(|id| !dropped_clients.contains(id));
        }
        if selected.is_empty() {
            return Err(SelectError::EmptySelection.into());
        }

        // 2. Broadcast + local training (parallel across clients). An
        //    unusable training configuration surfaces as one typed error.
        let round_seed = self.config.seed ^ (round as u64);
        let global = &self.global_model;
        let local_cfg = &self.config.local;
        let results: Vec<Result<LocalUpdate, FlError>> = if self.config.parallel {
            selected
                .par_iter()
                .map(|&id| self.clients[id].local_train(global, local_cfg, round_seed))
                .collect()
        } else {
            selected
                .iter()
                .map(|&id| self.clients[id].local_train(global, local_cfg, round_seed))
                .collect()
        };
        let updates: Vec<LocalUpdate> = results.into_iter().collect::<Result<_, _>>()?;

        // 3. Aggregation (Eq. 1).
        let new_weights = aggregate(&updates, self.config.aggregation);
        self.global_model.set_weights(&new_weights);

        // 4. Evaluation and bookkeeping.
        let evaluate =
            round.is_multiple_of(self.config.eval_every) || round + 1 == self.config.rounds;
        let test_accuracy = if evaluate {
            Some(
                self.global_model
                    .accuracy(self.test.features(), self.test.labels()),
            )
        } else {
            None
        };
        let p_o = population_distribution(&selected, &self.client_distributions)?;
        let p_u = vec![1.0 / p_o.len() as f64; p_o.len()];
        let unbiasedness = l1_distance(&p_o, &p_u);
        let mean_local_loss =
            updates.iter().map(|u| u.mean_loss).sum::<f32>() / updates.len() as f32;

        let k = selected.len();
        let model_bytes = 2 * k * model_update_bytes(self.global_model.param_count());
        let comm = if self.config.secure.is_encrypted() && self.protocol.is_some() {
            // Measured accounting from the metered transport. Canonical
            // ciphertext widths make these totals identical to the modeled
            // branch below for the same key size. Socket-backed rounds also
            // record the real framed bytes that crossed the loopback wire (an
            // in-process coordinator meters none).
            let wire_delta = self
                .protocol
                .as_ref()
                .map_or(0, |r| r.server.wire_bytes() - wire_before);
            RoundComm::from_transport(transport.stats(), k, model_bytes)
                .with_wire_frames(wire_delta)
        } else {
            // Modeled accounting: registration happens once (round 0) for
            // selectors with a registry epoch; its ciphertext cost is N
            // encrypted registries. Multi-time selection moves ≈ H·K
            // encrypted class distributions per round.
            let registry_ct_bytes = registry_len
                .map(|len| encrypted_vector_bytes(len, key_bits))
                .unwrap_or(0);
            let classes = p_o.len();
            let multi_time_messages = if self.config.multi_time_h > 1 {
                self.config.multi_time_h * k
            } else {
                0
            };
            let multi_time_ct_bytes = if registry_len.is_some() {
                multi_time_messages * encrypted_vector_bytes(classes, key_bits)
            } else {
                0
            };
            // A rotation round replays the registration epoch, so it is
            // charged exactly like one on top of its multi-time traffic.
            let registering = registration_round || rotation_round;
            RoundComm {
                check_in_messages: k,
                registration_messages: if registering { self.clients.len() } else { 0 },
                multi_time_messages,
                ciphertext_bytes: if registering {
                    self.clients.len() * registry_ct_bytes + multi_time_ct_bytes
                } else {
                    multi_time_ct_bytes
                },
                model_bytes,
                wire_frame_bytes: 0,
            }
        };
        self.ledger.record(comm);

        // The epoch the round ran under: the agent's live counter in
        // encrypted mode, the rotation arithmetic in modeled mode — the
        // same number by construction, which the equivalence tests pin.
        let epoch = match self.protocol.as_ref() {
            Some(run) => run.agent.epoch(),
            None if rotate_every > 0 && registry_len.is_some() => (round / rotate_every) as u64,
            None => 0,
        };

        Ok(RoundRecord {
            round,
            test_accuracy,
            mean_local_loss,
            population_unbiasedness: unbiasedness,
            population_distribution: p_o,
            selected_clients: selected,
            epoch,
            partial_cohort: !dropped_clients.is_empty(),
            dropped_clients,
        })
    }

    /// Runs the configured number of rounds and returns the history.
    pub fn run(&mut self) -> Result<History, FlError> {
        let mut history = History::new();
        for round in 0..self.config.rounds {
            history.push(self.run_round(round)?);
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::small_mlp;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use dubhe_select::{DubheConfig, DubheSelector, RandomSelector};

    fn build_federation(
        clients: usize,
        rho: f64,
        emd: f64,
        seed: u64,
    ) -> (Vec<Dataset>, Dataset, Vec<ClassDistribution>) {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho,
            emd_avg: emd,
            clients,
            samples_per_client: 32,
            test_samples_per_class: 20,
            seed,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = spec.build_dataset(&mut rng);
        let dists = ds.client_distributions();
        (ds.client_data, ds.test, dists)
    }

    #[test]
    fn a_short_run_produces_history_and_learns_something() {
        let (client_data, test, _) = build_federation(30, 2.0, 0.5, 1);
        let selector = Box::new(RandomSelector::new(30, 10));
        let model = small_mlp(32, 10, 0);
        let mut config = SimulationConfig::quick(8, 7);
        config.local.optimizer = crate::client::LocalOptimizer::Sgd { lr: 0.1 };
        let mut sim = FlSimulation::from_datasets(client_data, test, model, selector, config);
        let history = sim.run().unwrap();
        assert_eq!(history.len(), 8);
        let first = history.rounds[0].test_accuracy.unwrap();
        let last = history.final_accuracy().unwrap();
        assert!(last > first, "accuracy should improve: {first} -> {last}");
        assert_eq!(sim.ledger().rounds.len(), 8);
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        let (client_data, test, _) = build_federation(20, 2.0, 1.0, 2);
        let build = |parallel: bool| {
            let selector = Box::new(RandomSelector::new(20, 5));
            let model = small_mlp(32, 10, 3);
            let mut config = SimulationConfig::quick(3, 11);
            config.parallel = parallel;
            FlSimulation::from_datasets(client_data.clone(), test.clone(), model, selector, config)
        };
        let hist_par = build(true).run().unwrap();
        let hist_seq = build(false).run().unwrap();
        assert_eq!(hist_par, hist_seq, "parallelism must not change results");
    }

    #[test]
    fn dubhe_selector_plugs_into_the_simulator() {
        let (client_data, test, dists) = build_federation(60, 10.0, 1.5, 3);
        let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
        let model = small_mlp(32, 10, 4);
        let config = SimulationConfig::quick(3, 13);
        let mut sim = FlSimulation::from_datasets(client_data, test, model, selector, config);
        assert_eq!(sim.selector_name(), "Dubhe");
        let history = sim.run().unwrap();
        assert_eq!(history.len(), 3);
        // Registration messages are charged once (round 0).
        assert_eq!(sim.ledger().rounds[0].registration_messages, 60);
        assert_eq!(sim.ledger().rounds[1].registration_messages, 0);
        for r in &history.rounds {
            assert_eq!(r.selected_clients.len(), 20);
            assert!(r.population_unbiasedness >= 0.0 && r.population_unbiasedness <= 2.0);
        }
    }

    #[test]
    fn multi_time_h_selects_more_balanced_rounds() {
        let (client_data, test, dists) = build_federation(80, 10.0, 1.5, 4);
        let run_with_h = |h: usize| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 5);
            let mut config = SimulationConfig::quick(4, 17);
            config.multi_time_h = h;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            sim.run().unwrap().mean_unbiasedness()
        };
        let one_off = run_with_h(1);
        let multi = run_with_h(10);
        assert!(
            multi <= one_off + 0.05,
            "H=10 ({multi:.3}) should not be less balanced than H=1 ({one_off:.3})"
        );
    }

    #[test]
    fn encrypted_mode_matches_modeled_mode_end_to_end() {
        // The acceptance test of the encrypted wiring: same seeds, same
        // selector, one run modeled and one driven through the real
        // actor/transport exchange. Selections, training history and ledger
        // byte totals must all agree.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 6);
        let run_mode = |secure: SecureMode| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(3, 19);
            config.multi_time_h = 3;
            config.secure = secure;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            (history, sim.ledger().clone(), sim.protocol_active())
        };

        let (modeled_hist, modeled_ledger, modeled_proto) =
            run_mode(SecureMode::Modeled { key_bits: 256 });
        let (encrypted_hist, encrypted_ledger, encrypted_proto) = run_mode(SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        });

        assert!(!modeled_proto, "modeled mode must not build actors");
        assert!(encrypted_proto, "encrypted mode must run the real epoch");
        assert_eq!(
            modeled_hist, encrypted_hist,
            "the encrypted exchange must reproduce the plaintext decisions"
        );
        assert_eq!(
            modeled_ledger.total_ciphertext_bytes(),
            encrypted_ledger.total_ciphertext_bytes(),
            "measured uplink bytes must equal the modeled accounting"
        );
        assert_eq!(
            modeled_ledger.dubhe_overhead_messages(),
            encrypted_ledger.dubhe_overhead_messages()
        );
        assert!(encrypted_ledger.total_ciphertext_bytes() > 0);
    }

    #[test]
    fn key_rotation_preserves_mode_equivalence_and_advances_the_epoch() {
        // Rotation replays the registration epoch under a fresh key every
        // other round. The decisions, history and canonical ledger totals
        // must stay identical between the modeled and the real encrypted
        // run — and both must report the same advancing epoch counter.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 6);
        let run_mode = |secure: SecureMode| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(5, 19);
            config.multi_time_h = 3;
            config.rotate_epoch_every = 2;
            config.secure = secure;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            (history, sim.ledger().clone())
        };

        let (modeled_hist, modeled_ledger) = run_mode(SecureMode::Modeled { key_bits: 256 });
        let (encrypted_hist, encrypted_ledger) = run_mode(SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        });

        assert_eq!(
            modeled_hist, encrypted_hist,
            "rotation must not perturb any decision"
        );
        let epochs: Vec<u64> = encrypted_hist.rounds.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 0, 1, 1, 2], "epoch advances every 2 rounds");
        assert_eq!(
            modeled_ledger.total_ciphertext_bytes(),
            encrypted_ledger.total_ciphertext_bytes(),
            "re-registration bytes must match the modeled registration charge"
        );
        assert_eq!(
            modeled_ledger.dubhe_overhead_messages(),
            encrypted_ledger.dubhe_overhead_messages()
        );
        // Rotation rounds (2 and 4) pay a full registration on top of the
        // multi-time traffic; the rounds in between pay none.
        assert_eq!(encrypted_ledger.rounds[2].registration_messages, 24);
        assert_eq!(encrypted_ledger.rounds[3].registration_messages, 0);
        assert_eq!(encrypted_ledger.rounds[4].registration_messages, 24);
    }

    #[test]
    fn injected_dropout_closes_a_partial_cohort_and_records_it() {
        // One client silently vanishes in round 1: every try it was
        // tentatively selected for is explicitly closed on the partial
        // cohort, the round completes (no hang, no error), and the record
        // names the dropout.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 12);
        let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
        let model = small_mlp(32, 10, 8);
        let mut config = SimulationConfig::quick(3, 29);
        config.multi_time_h = 3;
        config.secure = SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        };
        config.dropout = Some(ClientDropout {
            round: 1,
            client: 0,
        });
        let mut sim = FlSimulation::from_datasets(client_data, test, model, selector, config);
        let history = sim.run().unwrap();
        assert_eq!(history.len(), 3);

        let hit = &history.rounds[1];
        assert_eq!(hit.dropped_clients, vec![0], "the dropout is recorded");
        assert!(hit.partial_cohort, "at least one fold closed partial");
        assert!(
            !hit.selected_clients.contains(&0),
            "a vanished client cannot train in the round it dropped"
        );
        for untouched in [&history.rounds[0], &history.rounds[2]] {
            assert!(untouched.dropped_clients.is_empty());
            assert!(!untouched.partial_cohort);
        }
    }

    #[test]
    fn tcp_encrypted_mode_matches_the_in_memory_modes_end_to_end() {
        // The acceptance pin of the socket-backed mode: same seeds, same
        // selector — one run modeled, one through in-process actors, and one
        // over loopback TCP against a 4-shard coordinator. Training history
        // and canonical ledger totals must be identical across all of them;
        // only the socket-backed run measures frame bytes.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 9);
        let run_mode = |secure: SecureMode| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(3, 19);
            config.multi_time_h = 3;
            config.secure = secure;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            let stats = sim.listener_stats();
            (history, sim.ledger().clone(), stats)
        };

        let (modeled_hist, modeled_ledger, modeled_stats) =
            run_mode(SecureMode::Modeled { key_bits: 256 });
        let (encrypted_hist, encrypted_ledger, _) = run_mode(SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        });
        let (tcp_hist, tcp_ledger, tcp_stats) = run_mode(SecureMode::EncryptedTcp {
            key_bits: 256,
            shards: 4,
            packing: None,
            channel: ChannelPolicy::Plaintext,
        });

        assert_eq!(tcp_hist, modeled_hist, "TCP must reproduce the decisions");
        assert_eq!(tcp_hist, encrypted_hist);
        // The listener saw the single persistent client connection plus
        // real frames.
        assert!(modeled_stats.is_none(), "no listener in the modeled mode");
        let stats = tcp_stats.expect("socket-backed runs have stats");
        assert_eq!(stats.connections_accepted, 1);
        assert!(stats.frames_received > 0);
        assert_eq!(stats.frames_sent, stats.frames_received);
        assert!(stats.bytes_received > 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.backpressure_disconnects, 0);
        assert_eq!(stats.latency.count, stats.frames_sent as u64);
        assert_eq!(
            tcp_ledger.total_ciphertext_bytes(),
            modeled_ledger.total_ciphertext_bytes(),
            "canonical accounting is transport-independent"
        );
        assert_eq!(
            tcp_ledger.dubhe_overhead_messages(),
            modeled_ledger.dubhe_overhead_messages()
        );
        // Framed traffic includes headers and encoding on top of the uplink
        // ciphertexts.
        assert!(tcp_ledger.total_wire_frame_bytes() > tcp_ledger.total_ciphertext_bytes());
        // Every round with protocol traffic shows measured frames.
        assert!(tcp_ledger.rounds[0].wire_frame_bytes > 0);
        assert!(
            tcp_ledger.rounds[1].wire_frame_bytes > 0,
            "multi-time rounds cross the wire too"
        );
        // Only the socket-backed run pays (and measures) framing.
        assert_eq!(modeled_ledger.total_wire_frame_bytes(), 0);
        assert_eq!(encrypted_ledger.total_wire_frame_bytes(), 0);
    }

    #[test]
    fn authenticated_channel_leaves_every_ledger_byte_identical() {
        // The acceptance pin of the channel satellite: the same socket-backed
        // simulation with the AEAD channel Required vs Plaintext must
        // produce bit-identical histories *and* bit-identical ledgers
        // (canonical ciphertext bytes AND measured wire-frame bytes, which
        // meter the inner protocol frames, not the seals). Authentication
        // is pure armor: it changes what crosses the socket, never what the
        // protocol decides or accounts.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 9);
        let run_mode = |secure: SecureMode| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(3, 19);
            config.multi_time_h = 3;
            config.secure = secure;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            let stats = sim.listener_stats();
            (history, sim.ledger().clone(), stats)
        };
        let tcp_mode = |channel| SecureMode::EncryptedTcp {
            key_bits: 256,
            shards: 4,
            packing: None,
            channel,
        };

        let (plain_hist, plain_ledger, _) = run_mode(tcp_mode(ChannelPolicy::Plaintext));
        let (sealed_hist, sealed_ledger, sealed_stats) =
            run_mode(tcp_mode(ChannelPolicy::Required));
        assert_eq!(
            sealed_hist, plain_hist,
            "the channel must not change a single decision"
        );
        assert_eq!(
            sealed_ledger, plain_ledger,
            "the channel must not change a single ledger byte"
        );
        let stats = sealed_stats.expect("socket-backed runs have stats");
        assert_eq!(stats.handshakes_completed, 1);
        assert_eq!(stats.handshakes_failed, 0);
        assert_eq!(stats.aead_rejections, 0);
        assert_eq!(stats.downgrades_refused, 0);
    }

    #[test]
    fn packed_modes_match_unpacked_decisions_with_at_least_4x_fewer_ciphertext_bytes() {
        // The acceptance pin of the packed protocol: same seeds, same
        // selector — element-wise runs against 32-bit slot-packed runs,
        // in-process and over loopback TCP.
        // Every decision (selections, histories, epochs) must be identical;
        // only the ciphertext representation — and with it the canonical
        // uplink bytes and the measured frame bytes — shrinks, by at least
        // the 4x the packing exists to deliver (length-56 registries at 7
        // lanes per 256-bit plaintext actually shrink 7x).
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 9);
        let run_mode = |secure: SecureMode| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(3, 19);
            config.multi_time_h = 3;
            config.secure = secure;
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            let stats = sim.listener_stats();
            (history, sim.ledger().clone(), stats)
        };

        let (unpacked_hist, unpacked_ledger, _) = run_mode(SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        });
        let (packed_hist, packed_ledger, _) = run_mode(SecureMode::Encrypted {
            key_bits: 256,
            packing: Some(32),
        });
        let (tcp_unpacked_hist, tcp_unpacked_ledger, _) = run_mode(SecureMode::EncryptedTcp {
            key_bits: 256,
            shards: 4,
            packing: None,
            channel: ChannelPolicy::Plaintext,
        });
        let (tcp_packed_hist, tcp_packed_ledger, tcp_packed_stats) =
            run_mode(SecureMode::EncryptedTcp {
                key_bits: 256,
                shards: 4,
                packing: Some(32),
                channel: ChannelPolicy::Plaintext,
            });

        assert_eq!(
            packed_hist, unpacked_hist,
            "packing must not change a single decision"
        );
        assert_eq!(tcp_packed_hist, packed_hist, "nor over a real socket");
        assert_eq!(tcp_unpacked_hist, packed_hist);

        // The canonical uplink accounting shrinks at least 4x, identically
        // in-process and across the socket.
        let unpacked_bytes = unpacked_ledger.total_ciphertext_bytes();
        let packed_bytes = packed_ledger.total_ciphertext_bytes();
        assert!(packed_bytes > 0);
        assert!(
            packed_bytes * 4 <= unpacked_bytes,
            "32-bit slots must shrink uplink ciphertext bytes >= 4x \
             (packed {packed_bytes} vs element-wise {unpacked_bytes})"
        );
        assert_eq!(packed_bytes, tcp_packed_ledger.total_ciphertext_bytes());

        // The measured frame traffic shrinks with it — packing is not an
        // accounting trick, the socket really carries fewer bytes.
        assert!(
            tcp_packed_ledger.total_wire_frame_bytes() * 2
                < tcp_unpacked_ledger.total_wire_frame_bytes(),
            "packed frames must at least halve the measured wire traffic \
             (packed {} vs element-wise {})",
            tcp_packed_ledger.total_wire_frame_bytes(),
            tcp_unpacked_ledger.total_wire_frame_bytes()
        );

        // The listener really served the packed session: one persistent
        // connection, real frames, zero decode errors.
        let stats = tcp_packed_stats.expect("socket-backed runs have stats");
        assert_eq!(stats.connections_accepted, 1);
        assert!(stats.frames_received > 0);
        assert_eq!(stats.frames_sent, stats.frames_received);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn sixteen_bit_slots_pack_the_registration_epoch_only() {
        // 16-bit lanes cannot hold the 10^6 fixed-scale try distributions,
        // so the policy resolution falls back to registry-only packing: the
        // registration epoch shrinks (56 counters -> 4 ciphertexts at 15
        // lanes per 256-bit plaintext), the per-try traffic stays
        // element-wise, and every decision still matches the unpacked run.
        let (client_data, test, dists) = build_federation(24, 10.0, 1.5, 9);
        let run_mode = |packing: Option<u32>| {
            let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
            let model = small_mlp(32, 10, 6);
            let mut config = SimulationConfig::quick(2, 19);
            config.multi_time_h = 3;
            config.secure = SecureMode::Encrypted {
                key_bits: 256,
                packing,
            };
            let mut sim = FlSimulation::from_datasets(
                client_data.clone(),
                test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            (history, sim.ledger().clone())
        };

        let (unpacked_hist, unpacked_ledger) = run_mode(None);
        let (packed_hist, packed_ledger) = run_mode(Some(16));

        assert_eq!(packed_hist, unpacked_hist);
        // Round 0 carries the registration epoch: its bytes shrink. The
        // pure multi-time round 1 stays element-wise, byte-for-byte.
        assert!(
            packed_ledger.rounds[0].ciphertext_bytes < unpacked_ledger.rounds[0].ciphertext_bytes
        );
        assert_eq!(
            packed_ledger.rounds[1].ciphertext_bytes,
            unpacked_ledger.rounds[1].ciphertext_bytes
        );
    }

    #[test]
    fn encrypted_mode_without_registry_selector_falls_back_to_modeled() {
        let (client_data, test, _) = build_federation(15, 2.0, 0.5, 8);
        let selector = Box::new(RandomSelector::new(15, 5));
        let model = small_mlp(32, 10, 7);
        let mut config = SimulationConfig::quick(2, 23);
        config.secure = SecureMode::Encrypted {
            key_bits: 256,
            packing: None,
        };
        let mut sim = FlSimulation::from_datasets(client_data, test, model, selector, config);
        let history = sim.run().unwrap();
        assert_eq!(history.len(), 2);
        assert!(!sim.protocol_active());
        assert_eq!(sim.ledger().total_ciphertext_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "must match the number of clients")]
    fn mismatched_selector_population_panics() {
        let (client_data, test, _) = build_federation(10, 1.0, 0.0, 5);
        let selector = Box::new(RandomSelector::new(99, 5));
        let model = small_mlp(32, 10, 6);
        let config = SimulationConfig::quick(1, 1);
        let _ = FlSimulation::from_datasets(client_data, test, model, selector, config);
    }
}
