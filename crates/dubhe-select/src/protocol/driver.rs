//! Deterministic drivers that pump messages between the roles.
//!
//! A driver owns no protocol knowledge beyond *sequencing*: it seeds the
//! first messages (key dispatch, tentative-try announcements), then delivers
//! queued envelopes to their addressees until the transport is drained.
//! Everything cryptographic happens inside the roles; everything observable
//! happens on the [`Transport`].
//!
//! There is one driver per exchange: [`run_registration`] for Fig. 4 and
//! [`run_try_with_dropouts`] (with [`run_try`] its no-dropout form) for the
//! §5.3.1 tries. Clients are dispatched to in id order, and the in-memory
//! transport delivers depth-first: what one delivery sends goes out before
//! anything already waiting, so a client's upload reaches the coordinator
//! before the next client encrypts. Only clients draw from the RNG, each
//! while handling its own message, and they still handle those in id
//! order, so a run consumes its RNG in exactly the order the pre-actor
//! implementation did — which is what keeps the equivalence pins in
//! `tests/protocol_roundtrip.rs` bit-identical on the same seed.

use dubhe_data::ClassDistribution;
use rand::Rng;

use super::message::Party;
use super::packing::PackingPolicy;
use super::roles::{AgentNode, Coordinator, SelectClientNode};
use super::shard::ShardedCoordinator;
use super::transport::Transport;
use crate::config::DubheConfig;
use crate::error::SelectError;
use crate::registry::Registration;
use crate::selector::ClientId;

/// Delivers queued messages to their addressees until the transport drains.
///
/// The coordinator slot is any [`Coordinator`]: the in-process
/// [`ShardedCoordinator`] (at any shard count), or a
/// [`TcpTransport`](super::tcp::TcpTransport) that ships every server-bound
/// envelope across a real socket. The agent and client roles never know the
/// difference — which is the point.
pub fn pump<T, C, R>(
    transport: &mut T,
    agent: &mut AgentNode,
    clients: &mut [SelectClientNode],
    server: &mut C,
    rng: &mut R,
) -> Result<(), SelectError>
where
    T: Transport,
    C: Coordinator,
    R: Rng + ?Sized,
{
    while let Some(envelope) = transport.deliver() {
        let outgoing = match envelope.to {
            Party::Server => server.deliver(envelope)?,
            Party::Agent => agent.deliver(envelope)?,
            Party::Client(id) => {
                let population = clients.len();
                let client = clients
                    .get_mut(id)
                    .ok_or(SelectError::ClientOutOfRange { id, population })?;
                client.deliver(envelope, rng)?
            }
        };
        for e in outgoing {
            transport.send(e);
        }
    }
    Ok(())
}

/// The actors of one registration epoch. The agent keeps the epoch
/// keypair, the clients keep their key material and registrations — reuse
/// them for the round's multi-time exchanges via [`run_try`].
///
/// Generic over the coordinator slot (`C`): whatever [`Coordinator`] the
/// caller handed to [`run_registration`] (a [`ShardedCoordinator`] at any
/// shard count, or a TCP connector to a remote listener).
#[derive(Debug)]
pub struct RegistrationRun<C = ShardedCoordinator> {
    /// Index of the client that played the key-dispatching agent.
    pub agent_id: ClientId,
    /// The agent role (keypair owner).
    pub agent: AgentNode,
    /// Every selection client, indexed by id.
    pub clients: Vec<SelectClientNode>,
    /// The coordinator slot (ciphertexts and the public key only — or a
    /// connector to a remote process holding exactly that).
    pub server: C,
}

impl<C> RegistrationRun<C> {
    /// The overall registry as decrypted by the clients (all clients hold
    /// the same copy; this returns client 0's), or `None` while no total
    /// has been broadcast — a lost upload leaves the epoch open until the
    /// coordinator closes it.
    pub fn overall_registry(&self) -> Option<&[u64]> {
        self.clients.first()?.overall_registry()
    }

    /// The per-client registrations, in client order, or `None` if a client
    /// has not registered.
    pub fn registrations(&self) -> Option<Vec<Registration>> {
        self.clients
            .iter()
            .map(|c| c.registration().cloned())
            .collect()
    }
}

/// Runs one full registration epoch (Fig. 4 steps 1–4) over `transport`.
///
/// A random agent is drawn from the population, generates the epoch keypair,
/// dispatches it (public key to the server, keypair to the clients); every
/// client registers with Algorithm 1, encrypts and uploads; the server folds
/// the arriving registries into one running homomorphic sum and broadcasts
/// it; clients and agent decrypt the total.
///
/// `server` must expect `client_distributions.len()` registrations: a
/// [`ShardedCoordinator`] (one shard in process, more for partitioned
/// folds), or a [`TcpTransport`](super::tcp::TcpTransport) to run the
/// identical exchange against a remote listener (`dubhe-net`'s
/// `ReactorListener`). It comes back inside the run, so the caller can keep
/// using it for multi-time rounds.
///
/// With `packing`, every client uploads a slot-packed registry, and the
/// coordinator must hold the **same** [`PackingPolicy`] (via its
/// `with_packing` builder) — a coordinator without one, or with a different
/// slot layout, refuses the uploads with typed errors. The exchange
/// sequence, addressees and epoch stamps are those of the unpacked run; only
/// the registry payload (and therefore the wire bytes) changes, so decrypted
/// totals match the unpacked run exactly.
pub fn run_registration<C, T, R>(
    client_distributions: &[ClassDistribution],
    config: &DubheConfig,
    key_bits: u64,
    packing: Option<PackingPolicy>,
    mut server: C,
    transport: &mut T,
    rng: &mut R,
) -> Result<RegistrationRun<C>, SelectError>
where
    C: Coordinator,
    T: Transport,
    R: Rng + ?Sized,
{
    let n = client_distributions.len();
    if n == 0 {
        return Err(SelectError::NoClients);
    }
    let classes = client_distributions[0].classes();

    let agent_id = rng.gen_range(0..n);
    let mut agent = AgentNode::new(key_bits, classes, rng);
    let mut clients: Vec<SelectClientNode> = client_distributions
        .iter()
        .enumerate()
        .map(|(id, d)| {
            let client = SelectClientNode::new(id, d.clone(), config);
            match packing {
                Some(policy) => client.with_packing(policy),
                None => client,
            }
        })
        .collect();

    for e in agent.dispatch_keys(n) {
        transport.send(e);
    }
    pump(transport, &mut agent, &mut clients, &mut server, rng)?;

    Ok(RegistrationRun {
        agent_id,
        agent,
        clients,
        server,
    })
}

/// Runs one tentative try of the §5.3.1 multi-time exchange with no
/// dropouts: [`run_try_with_dropouts`] with an empty `dropped` set.
pub fn run_try<C, T, R>(
    try_index: usize,
    selected: &[ClientId],
    agent: &mut AgentNode,
    clients: &mut [SelectClientNode],
    server: &mut C,
    transport: &mut T,
    rng: &mut R,
) -> Result<(), SelectError>
where
    C: Coordinator,
    T: Transport,
    R: Rng + ?Sized,
{
    run_try_with_dropouts(
        try_index,
        selected,
        &[],
        agent,
        clients,
        server,
        transport,
        rng,
    )
}

/// Runs one tentative try of the §5.3.1 multi-time exchange: the server
/// announces the tentative participant set, each tentatively selected client
/// encrypts and uploads its scaled label distribution, the server folds them
/// and forwards `Enc(Σ p_l)` to the agent, which decrypts and scores the
/// try. Once the agent has seen every expected try (see
/// [`AgentNode::expect_tries`]) it emits its [`TryVerdict`].
///
/// The clients in `dropped` are announced as participants but never upload
/// (a silent mid-round drop). If any dropped, the driver explicitly closes
/// the try once every surviving contribution is folded — the partial-cohort
/// fold a straggler deadline would have triggered — and pumps the partial
/// sum to the agent, which divides by the *actual* contributor count. If
/// *every* participant drops, the close surfaces
/// [`ProtocolError::NothingToClose`](crate::error::ProtocolError::NothingToClose)
/// — an abandoned try, never a hang.
///
/// [`TryVerdict`]: super::message::ProtocolMsg::TryVerdict
#[allow(clippy::too_many_arguments)] // a try's inputs plus the three roles
pub fn run_try_with_dropouts<C, T, R>(
    try_index: usize,
    selected: &[ClientId],
    dropped: &[ClientId],
    agent: &mut AgentNode,
    clients: &mut [SelectClientNode],
    server: &mut C,
    transport: &mut T,
    rng: &mut R,
) -> Result<(), SelectError>
where
    C: Coordinator,
    T: Transport,
    R: Rng + ?Sized,
{
    if selected.is_empty() {
        return Err(SelectError::EmptySelection);
    }
    let population = clients.len();
    if let Some(&id) = selected.iter().find(|&&id| id >= population) {
        return Err(SelectError::ClientOutOfRange { id, population });
    }
    Coordinator::announce_try(server, try_index, selected)?;
    for &id in selected.iter().filter(|id| !dropped.contains(id)) {
        let e = clients[id].encrypt_distribution(try_index, rng)?;
        transport.send(e);
    }
    pump(transport, agent, clients, server, rng)?;
    if dropped.is_empty() {
        return Ok(());
    }
    for e in server.close_try(try_index)? {
        transport.send(e);
    }
    pump(transport, agent, clients, server, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probability::participation_probability;
    use crate::protocol::{InMemoryTransport, ProtocolMsg};
    use crate::registry::register_all;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use dubhe_he::{ciphertext_size_bytes, EncryptedVector};
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

    /// One in-process registration epoch over `transport`, one shard.
    fn register<T: Transport>(
        dists: &[ClassDistribution],
        config: &DubheConfig,
        transport: &mut T,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<RegistrationRun, SelectError> {
        let server = ShardedCoordinator::new(dists.len(), 1);
        run_registration(dists, config, TEST_KEY_BITS, None, server, transport, rng)
    }

    #[test]
    fn secure_registration_matches_plaintext_aggregation() {
        let dists = clients(30, 1);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let run = register(&dists, &config, &mut InMemoryTransport::new(), &mut rng).unwrap();

        // The decrypted overall registry equals the plaintext sum.
        let layout = config.validate();
        let (_, plaintext_overall) = register_all(&dists, &layout, &config.effective_thresholds());
        assert_eq!(run.overall_registry(), Some(&plaintext_overall[..]));
        assert_eq!(run.agent.overall_registry(), run.overall_registry());
        assert_eq!(run.registrations().unwrap().len(), 30);
        assert!(run.agent_id < 30);
    }

    #[test]
    fn server_only_sees_ciphertexts() {
        let dists = clients(10, 3);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut transport = InMemoryTransport::recording();
        let run = register(&dists, &config, &mut transport, &mut rng).unwrap();

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
        let mut transport = InMemoryTransport::new();
        let run = register(&dists, &config, &mut transport, &mut rng).unwrap();
        let registry_len = config.validate().len();
        let total = run.server.encrypted_total().unwrap();
        assert_eq!(total.len(), registry_len);
        let stats = transport.stats();
        assert_eq!(stats.registries.messages, 25);
        assert_eq!(
            stats.uplink_registry_ciphertext_bytes,
            25 * registry_len * ciphertext_size_bytes(run.agent.public_key())
        );
    }

    #[test]
    fn probabilities_from_secure_epoch_sum_to_k() {
        let dists = clients(200, 5);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let run = register(&dists, &config, &mut InMemoryTransport::new(), &mut rng).unwrap();
        let overall = run.overall_registry().unwrap();
        let expected: f64 = run
            .registrations()
            .unwrap()
            .iter()
            .map(|r| participation_probability(overall, r.position, config.k))
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
        let run = register(&dists, &config, &mut InMemoryTransport::new(), &mut rng).unwrap();
        let overall = run.overall_registry().unwrap();
        for client in &run.clients {
            let p = client.participation_probability().expect("epoch complete");
            let expected = participation_probability(
                overall,
                client.registration().unwrap().position,
                config.k,
            );
            assert_eq!(p, expected, "client {} probability", client.id());
        }
    }

    #[test]
    fn secure_try_matches_plaintext_population() {
        let dists = clients(40, 9);
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut transport = InMemoryTransport::new();
        let mut run = register(&dists, &config, &mut transport, &mut rng).unwrap();
        let selected: Vec<usize> = vec![0, 3, 7, 21, 33];
        run.agent.expect_tries(1);
        run_try(
            0,
            &selected,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        )
        .unwrap();
        let outcome = run.agent.try_outcomes().pop().expect("the try completed");
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
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut transport = InMemoryTransport::new();
        let mut run = register(&dists, &config, &mut transport, &mut rng).unwrap();
        let tried = run_try(
            0,
            &[],
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        );
        assert_eq!(tried, Err(SelectError::EmptySelection));
    }

    #[test]
    fn registration_of_zero_clients_is_an_error() {
        let config = DubheConfig::group1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let err = register(&[], &config, &mut InMemoryTransport::new(), &mut rng).unwrap_err();
        assert_eq!(err, SelectError::NoClients);
    }
}
