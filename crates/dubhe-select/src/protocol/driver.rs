//! Deterministic drivers that pump messages between the roles.
//!
//! A driver owns no protocol knowledge beyond *sequencing*: it seeds the
//! first messages (key dispatch, tentative-try announcements), then delivers
//! queued envelopes to their addressees until the transport is drained.
//! Everything cryptographic happens inside the roles; everything observable
//! happens on the [`Transport`].
//!
//! Delivery is strictly FIFO and clients are dispatched to in id order, so a
//! driver run consumes its RNG in exactly the order the pre-actor
//! implementation did — which is what makes the compatibility wrappers in
//! [`crate::secure`] bit-identical to the legacy functions on the same seed.

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

/// The actors of one completed registration epoch. The agent keeps the
/// epoch keypair, the clients keep their key material and registrations —
/// reuse them for the round's multi-time exchanges via [`run_try`].
///
/// Generic over the coordinator slot (`C`): `run_registration` fills it with
/// a one-shard in-process [`ShardedCoordinator`]; [`run_registration_with`]
/// threads through whatever [`Coordinator`] the caller supplies (more
/// shards, or a TCP connector to a remote listener).
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
    /// the same copy; this returns client 0's).
    pub fn overall_registry(&self) -> &[u64] {
        self.clients[0]
            .overall_registry()
            .expect("registration epoch completed")
    }

    /// The per-client registrations, in client order.
    pub fn registrations(&self) -> Vec<Registration> {
        self.clients
            .iter()
            .map(|c| c.registration().expect("registered").clone())
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
pub fn run_registration<T, R>(
    client_distributions: &[ClassDistribution],
    config: &DubheConfig,
    key_bits: u64,
    transport: &mut T,
    rng: &mut R,
) -> Result<RegistrationRun, SelectError>
where
    T: Transport,
    R: Rng + ?Sized,
{
    let server = ShardedCoordinator::new(client_distributions.len(), 1);
    run_registration_with(
        client_distributions,
        config,
        key_bits,
        server,
        transport,
        rng,
    )
}

/// [`run_registration`] with a caller-supplied coordinator slot: a
/// [`ShardedCoordinator`] with more shards for partitioned folds, or a [`TcpTransport`](super::tcp::TcpTransport) to drive the
/// identical exchange against a remote listener (`dubhe-net`'s
/// `ReactorListener`).
///
/// The supplied coordinator must expect `client_distributions.len()`
/// registrations. Returns the completed actors with the coordinator slot
/// inside, so the caller can keep using it for multi-time rounds.
pub fn run_registration_with<C, T, R>(
    client_distributions: &[ClassDistribution],
    config: &DubheConfig,
    key_bits: u64,
    server: C,
    transport: &mut T,
    rng: &mut R,
) -> Result<RegistrationRun<C>, SelectError>
where
    C: Coordinator,
    T: Transport,
    R: Rng + ?Sized,
{
    run_registration_inner(
        client_distributions,
        config,
        key_bits,
        None,
        server,
        transport,
        rng,
    )
}

/// [`run_registration_with`] under a [`PackingPolicy`]: every client uploads
/// a slot-packed registry. The supplied coordinator must hold the **same**
/// policy (via its `with_packing` builder) — a coordinator without one, or
/// with a different slot layout, refuses the uploads with typed errors.
///
/// The exchange sequence, addressees and epoch stamps are identical to the
/// unpacked run; only the registry payload representation (and therefore the
/// wire bytes) changes, so decrypted totals — and everything computed from
/// them — match the unpacked run exactly.
pub fn run_registration_with_packing<C, T, R>(
    client_distributions: &[ClassDistribution],
    config: &DubheConfig,
    key_bits: u64,
    policy: PackingPolicy,
    server: C,
    transport: &mut T,
    rng: &mut R,
) -> Result<RegistrationRun<C>, SelectError>
where
    C: Coordinator,
    T: Transport,
    R: Rng + ?Sized,
{
    run_registration_inner(
        client_distributions,
        config,
        key_bits,
        Some(policy),
        server,
        transport,
        rng,
    )
}

#[allow(clippy::too_many_arguments)] // the shared core of the two entry points
fn run_registration_inner<C, T, R>(
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

/// Runs one tentative try of the §5.3.1 multi-time exchange: the server
/// announces the tentative participant set, each tentatively selected client
/// encrypts and uploads its scaled label distribution, the server folds them
/// and forwards `Enc(Σ p_l)` to the agent, which decrypts and scores the
/// try. Once the agent has seen every expected try (see
/// [`AgentNode::expect_tries`]) it emits its [`TryVerdict`].
///
/// [`TryVerdict`]: super::message::ProtocolMsg::TryVerdict
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
    if selected.is_empty() {
        return Err(SelectError::EmptySelection);
    }
    for &id in selected {
        if id >= clients.len() {
            return Err(SelectError::ClientOutOfRange {
                id,
                population: clients.len(),
            });
        }
    }
    Coordinator::announce_try(server, try_index, selected)?;
    for &id in selected {
        let e = clients[id].encrypt_distribution(try_index, rng)?;
        transport.send(e);
    }
    pump(transport, agent, clients, server, rng)
}

/// [`run_try`] with injected churn: the clients in `dropped` are announced
/// as participants but never upload (a silent mid-round drop). After every
/// surviving contribution is folded, the driver explicitly closes the try —
/// the partial-cohort fold a straggler deadline would have triggered — and
/// pumps the partial sum to the agent. The agent divides by the *actual*
/// contributor count, so the population estimate stays normalized.
///
/// With an empty `dropped` this is exactly [`run_try`]. If *every*
/// participant drops the close surfaces
/// [`ProtocolError::NothingToClose`](crate::error::ProtocolError::NothingToClose)
/// — an abandoned try, never a hang.
#[allow(clippy::too_many_arguments)] // run_try's signature plus the dropout set
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
    if dropped.is_empty() {
        return run_try(try_index, selected, agent, clients, server, transport, rng);
    }
    if selected.is_empty() {
        return Err(SelectError::EmptySelection);
    }
    for &id in selected {
        if id >= clients.len() {
            return Err(SelectError::ClientOutOfRange {
                id,
                population: clients.len(),
            });
        }
    }
    Coordinator::announce_try(server, try_index, selected)?;
    for &id in selected {
        if dropped.contains(&id) {
            continue;
        }
        let e = clients[id].encrypt_distribution(try_index, rng)?;
        transport.send(e);
    }
    pump(transport, agent, clients, server, rng)?;
    for e in server.close_try(try_index)? {
        transport.send(e);
    }
    pump(transport, agent, clients, server, rng)
}
