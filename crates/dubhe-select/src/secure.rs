//! The secure protocol entry points: compatibility wrappers over the
//! role-separated actors in [`crate::protocol`].
//!
//! Per registration epoch (Fig. 4):
//!
//! 1. a randomly selected *agent* client generates a Paillier keypair and
//!    dispatches it to all clients; the server receives only the public key;
//! 2. every client fills its registry (Algorithm 1), encrypts it element-wise
//!    and sends the ciphertext vector to the server;
//! 3. the server folds the arriving encrypted registries into one running
//!    homomorphic sum and broadcasts the encrypted total;
//! 4. every client decrypts the total with the shared secret key and computes
//!    its own participation probability (Eq. 6).
//!
//! The multi-time selection exchanges encrypted label distributions the same
//! way: tentatively selected clients send `Enc(p_l)`, the server adds them and
//! forwards `Enc(Σ p_l)` to the agent, which decrypts and evaluates
//! `‖p_o,h − p_u‖₁` — the server never sees a plaintext distribution.
//!
//! The functions here construct the actors, run the drivers over an
//! [`InMemoryTransport`] and flatten the result into the historical structs.
//! They consume their RNG in exactly the order the pre-actor implementation
//! did, so results (ciphertexts included) are bit-identical on the same seed
//! — the equivalence property tests pin this.

use dubhe_data::ClassDistribution;
use dubhe_he::{
    ciphertext_size_bytes, transport::plaintext_vector_bytes, EncryptedVector, Keypair, PrivateKey,
    PublicKey,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::codebook::RegistryLayout;
use crate::config::DubheConfig;
use crate::error::SelectError;
use crate::protocol::{
    run_registration, run_try, AgentNode, InMemoryTransport, SelectClientNode, ShardedCoordinator,
};
use crate::registry::Registration;

/// What the honest-but-curious server observes during one registration epoch.
///
/// The struct deliberately stores *only* ciphertext material and sizes; there
/// is no way to construct it with plaintext registries. Since the actor
/// redesign the server folds arriving registries into the single running
/// [`encrypted_total`](Self::encrypted_total), so its memory footprint is
/// `O(registry_len)` instead of `O(clients × registry_len)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerView {
    /// The epoch public key (the server may legitimately hold this).
    pub public_key: PublicKey,
    /// The running homomorphic sum of every registry received — after the
    /// last client uploads, the encrypted overall registry it broadcasts.
    pub encrypted_total: Option<EncryptedVector>,
    /// Ciphertext payload bytes received from clients (canonical wire width).
    pub bytes_received: usize,
    /// Number of client → server registry messages observed.
    pub messages_received: usize,
}

/// The result of a full secure registration epoch.
#[derive(Debug, Clone)]
pub struct SecureRegistrationEpoch {
    /// Per-client registrations (each client knows its own, the server none).
    pub registrations: Vec<Registration>,
    /// The overall registry as decrypted by the clients.
    pub overall_registry: Vec<u64>,
    /// Everything the server saw.
    pub server_view: ServerView,
    /// Index of the client acting as the key-dispatching agent.
    pub agent: usize,
    /// Plaintext size of one registry in bytes (overhead reporting).
    pub registry_plaintext_bytes: usize,
    /// Ciphertext size of one registry in bytes (overhead reporting).
    pub registry_ciphertext_bytes: usize,
}

/// Runs one secure registration epoch end-to-end through the actor API.
///
/// `key_bits` is configurable so tests can run with small keys while the
/// overhead experiments use the paper's 2048-bit setting.
pub fn secure_registration<R: Rng + ?Sized>(
    client_distributions: &[ClassDistribution],
    config: &DubheConfig,
    key_bits: u64,
    rng: &mut R,
) -> Result<SecureRegistrationEpoch, SelectError> {
    let layout = config.validate();
    let mut transport = InMemoryTransport::new();
    let run = run_registration(client_distributions, config, key_bits, &mut transport, rng)?;

    let stats = transport.stats();
    let public_key = run.agent.public_key().clone();
    let overall_registry = run.overall_registry().to_vec();
    debug_assert_eq!(
        run.agent.overall_registry(),
        Some(overall_registry.as_slice()),
        "agent and clients must decrypt the same total"
    );

    Ok(SecureRegistrationEpoch {
        registrations: run.registrations(),
        overall_registry,
        server_view: ServerView {
            encrypted_total: run.server.encrypted_total(),
            public_key: public_key.clone(),
            bytes_received: stats.uplink_registry_ciphertext_bytes,
            messages_received: stats.registries.messages,
        },
        agent: run.agent_id,
        registry_plaintext_bytes: plaintext_vector_bytes(layout.len()),
        registry_ciphertext_bytes: layout.len() * ciphertext_size_bytes(&public_key),
    })
}

/// The agent-side view of one multi-time tentative try performed securely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecureTryOutcome {
    /// The decrypted population distribution `p_o,h` of this try.
    pub population: Vec<f64>,
    /// `‖p_o,h − p_u‖₁`.
    pub distance_to_uniform: f64,
    /// Ciphertext bytes that crossed the network for this try (canonical
    /// wire width).
    pub ciphertext_bytes: usize,
    /// Number of encrypted distribution messages (one per selected client).
    pub messages: usize,
}

/// Builds the ephemeral actor session used when the caller already holds the
/// epoch keys (the historical `secure_*` signatures).
pub(crate) fn keyed_session(
    client_distributions: &[ClassDistribution],
    public_key: &PublicKey,
    private_key: &PrivateKey,
) -> Result<(AgentNode, Vec<SelectClientNode>, ShardedCoordinator), SelectError> {
    let classes = client_distributions
        .first()
        .ok_or(SelectError::NoClients)?
        .classes();
    let agent = AgentNode::from_keypair(
        Keypair {
            public: public_key.clone(),
            private: private_key.clone(),
        },
        classes,
    );
    let mut clients: Vec<SelectClientNode> = client_distributions
        .iter()
        .enumerate()
        .map(|(id, d)| SelectClientNode::without_registration(id, d.clone()))
        .collect();
    for c in &mut clients {
        c.install_keys(public_key.clone(), private_key.clone());
    }
    let server = ShardedCoordinator::with_public_key(public_key.clone(), 0, 1);
    Ok((agent, clients, server))
}

/// Securely evaluates one tentative client set: the selected clients encrypt
/// their scaled label distributions, the server adds the ciphertexts, the
/// agent decrypts the sum and measures the distance to uniform.
///
/// Returns [`SelectError::EmptySelection`] for an empty tentative selection
/// instead of aborting, so a misconfigured selector cannot kill a long run.
pub fn secure_evaluate_try<R: Rng + ?Sized>(
    selected: &[usize],
    client_distributions: &[ClassDistribution],
    public_key: &PublicKey,
    private_key: &PrivateKey,
    rng: &mut R,
) -> Result<SecureTryOutcome, SelectError> {
    let (mut agent, mut clients, mut server) =
        keyed_session(client_distributions, public_key, private_key)?;
    agent.expect_tries(1);
    let mut transport = InMemoryTransport::new();
    run_try(
        0,
        selected,
        &mut agent,
        &mut clients,
        &mut server,
        &mut transport,
        rng,
    )?;
    Ok(agent
        .try_outcomes()
        .into_iter()
        .next()
        .expect("the single try completed"))
}

/// Returns the registry layout used by `config` — re-exported here so callers
/// of the secure API need only this module.
pub fn layout_of(config: &DubheConfig) -> RegistryLayout {
    config.validate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probability::participation_probability;
    use crate::protocol::{Party, ProtocolMsg};
    use crate::registry::register_all;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use rand::SeedableRng;

    const TEST_KEY_BITS: u64 = 256;

    fn clients(n: usize, seed: u64) -> Vec<ClassDistribution> {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho: 10.0,
            emd_avg: 1.5,
            clients: n,
            samples_per_client: 100,
            test_samples_per_class: 1,
            seed,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        spec.build_partition(&mut rng).client_distributions()
    }

    #[test]
    fn secure_registration_matches_plaintext_aggregation() {
        let dists = clients(30, 1);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let epoch = secure_registration(&dists, &config, TEST_KEY_BITS, &mut rng).unwrap();

        // The decrypted overall registry equals the plaintext sum.
        let layout = config.validate();
        let (_, plaintext_overall) = register_all(&dists, &layout, &config.effective_thresholds());
        assert_eq!(epoch.overall_registry, plaintext_overall);
        assert_eq!(epoch.registrations.len(), 30);
        assert!(epoch.agent < 30);
    }

    #[test]
    fn server_only_sees_ciphertexts() {
        let dists = clients(10, 3);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut transport = InMemoryTransport::recording();
        let run =
            run_registration(&dists, &config, TEST_KEY_BITS, &mut transport, &mut rng).unwrap();

        // Audit the full transcript: every message delivered to the server is
        // either the public-key-only dispatch or a ciphertext payload.
        let mut registries_seen = 0usize;
        for env in transport.transcript() {
            if env.to != Party::Server {
                continue;
            }
            match &env.msg {
                ProtocolMsg::PublicKeyDispatch { private_key, .. } => {
                    assert!(
                        private_key.is_none(),
                        "server must never get the secret key"
                    );
                }
                ProtocolMsg::EncryptedRegistry { registry, .. } => {
                    registries_seen += 1;
                    // Each transmitted element is a full-size ciphertext, not
                    // a 0/1 bit.
                    for ct in registry.elements() {
                        assert!(ct.byte_len() > 8, "ciphertext suspiciously small");
                    }
                }
                ProtocolMsg::TryVerdict { .. } => {}
                other => panic!("unexpected server-bound message: {:?}", other.kind()),
            }
        }
        assert_eq!(registries_seen, 10);
        assert_eq!(run.server.messages_received(), 11); // key dispatch + 10 registries
        assert!(run.server.bytes_received() > 0);

        // Two clients (even in the same category) never send identical
        // ciphertexts thanks to fresh encryption randomness.
        let regs: Vec<&EncryptedVector> = transport
            .transcript()
            .iter()
            .filter_map(|e| match &e.msg {
                ProtocolMsg::EncryptedRegistry { registry, .. } => Some(registry),
                _ => None,
            })
            .collect();
        assert_ne!(regs[0].elements()[0].raw(), regs[1].elements()[0].raw());
    }

    #[test]
    fn server_memory_is_one_running_fold() {
        // The server's entire ciphertext state after N uploads is a single
        // vector of registry length — not N buffered registries.
        let dists = clients(25, 17);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let epoch = secure_registration(&dists, &config, TEST_KEY_BITS, &mut rng).unwrap();
        let total = epoch.server_view.encrypted_total.as_ref().unwrap();
        assert_eq!(total.len(), config.validate().len());
        assert_eq!(epoch.server_view.messages_received, 25);
        assert_eq!(
            epoch.server_view.bytes_received,
            25 * epoch.registry_ciphertext_bytes
        );
    }

    #[test]
    fn probabilities_from_secure_epoch_sum_to_k() {
        let dists = clients(200, 5);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let epoch = secure_registration(&dists, &config, TEST_KEY_BITS, &mut rng).unwrap();
        let expected: f64 = epoch
            .registrations
            .iter()
            .map(|r| participation_probability(&epoch.overall_registry, r.position, config.k))
            .sum();
        assert!(
            (expected - config.k as f64).abs() < 1.0,
            "expected participation {expected}"
        );
    }

    #[test]
    fn clients_compute_their_own_probabilities() {
        // Step 4 of Fig. 4 happens inside the client role: after the
        // broadcast, every client knows its own probability and they all
        // agree with Eq. 6 evaluated on the decrypted total.
        let dists = clients(40, 21);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut transport = InMemoryTransport::new();
        let run =
            run_registration(&dists, &config, TEST_KEY_BITS, &mut transport, &mut rng).unwrap();
        let overall = run.overall_registry().to_vec();
        for client in &run.clients {
            let p = client.participation_probability().expect("epoch complete");
            let expected = participation_probability(
                &overall,
                client.registration().unwrap().position,
                config.k,
            );
            assert_eq!(p, expected, "client {} probability", client.id());
        }
    }

    #[test]
    fn ciphertext_expansion_is_reported() {
        let dists = clients(5, 7);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let epoch = secure_registration(&dists, &config, TEST_KEY_BITS, &mut rng).unwrap();
        assert_eq!(epoch.registry_plaintext_bytes, 56 * 8);
        assert!(epoch.registry_ciphertext_bytes > epoch.registry_plaintext_bytes);
    }

    #[test]
    fn secure_try_matches_plaintext_population() {
        let dists = clients(40, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let keypair = Keypair::generate(TEST_KEY_BITS, &mut rng);
        let (pk, sk) = keypair.split();
        let selected: Vec<usize> = vec![0, 3, 7, 21, 33];
        let outcome = secure_evaluate_try(&selected, &dists, &pk, &sk, &mut rng).unwrap();
        let plaintext = crate::selector::population_distribution(&selected, &dists).unwrap();
        for (a, b) in outcome.population.iter().zip(&plaintext) {
            assert!((a - b).abs() < 1e-5, "secure {a} vs plaintext {b}");
        }
        let plain_dist = crate::selector::population_unbiasedness(&selected, &dists).unwrap();
        assert!((outcome.distance_to_uniform - plain_dist).abs() < 1e-4);
        assert_eq!(outcome.messages, 5);
        assert!(outcome.ciphertext_bytes > 0);
    }

    #[test]
    fn empty_secure_try_is_an_error_not_a_panic() {
        let dists = clients(5, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let keypair = Keypair::generate(TEST_KEY_BITS, &mut rng);
        let (pk, sk) = keypair.split();
        assert_eq!(
            secure_evaluate_try(&[], &dists, &pk, &sk, &mut rng),
            Err(SelectError::EmptySelection)
        );
    }

    #[test]
    fn registration_of_zero_clients_is_an_error() {
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let err = secure_registration(&[], &config, TEST_KEY_BITS, &mut rng).unwrap_err();
        assert_eq!(err, SelectError::NoClients);
    }
}
