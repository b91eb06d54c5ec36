//! `epoch_elementwise` and `epoch_packed`: the paper's selection epoch with
//! the real roles end to end.
//!
//! `AgentNode` + `N` × `SelectClientNode` run Fig. 4 registration and the
//! §5.3.1 multi-time tries; every server-bound envelope crosses one
//! plaintext `DBH2` loopback connection to an in-process
//! `ReactorListener<ShardedCoordinator>`. Untraced epochs go through the
//! library's own `pump` / `run_try`; traced epochs go through this file's
//! copy of those loops, which brackets every call into a role or the
//! transport with a span and is held to the same reference.

use std::time::Instant;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::{l1_distance, ClassDistribution};
use dubhe_he::{FixedPointCodec, Keypair};
use dubhe_select::protocol::{
    pump, run_try, AgentNode, ChannelPolicy, CodecKind, Coordinator, CoordinatorServer,
    InMemoryTransport, MsgKind, PackingPolicy, Party, SelectClientNode, ShardedCoordinator,
    TcpConfig, TcpTransport, Transport,
};
use dubhe_select::{ClientId, ClientSelector, DubheConfig, DubheSelector, SelectError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ladder::{self, LadderInputs};
use crate::proc::Rusage;
use crate::trace::Tracer;
use crate::workload::{
    epoch_keypair, finish_listener, listener_gates, spawn_listener, wire_bytes, EpochOutcome,
    Reading, Workload,
};

/// Decorrelates the epoch's randomness stream from the population's.
const EPOCH_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parameters of one `epoch_*` workload.
#[derive(Debug, Clone)]
pub struct EpochWorkload {
    pub name: &'static str,
    /// Population size `N`.
    pub clients: usize,
    /// Participants per try `K`.
    pub k: usize,
    /// Tentative tries `H`.
    pub tries: usize,
    pub key_bits: u64,
    pub shards: usize,
    /// `Some(slot_bits)` runs the epoch under `PackingPolicy::new`.
    pub slot_bits: Option<u32>,
}

/// What the roles decided in one epoch — everything the gates compare.
#[derive(Debug, Clone, PartialEq)]
struct Decisions {
    /// The overall registry as every client and the agent decrypted it.
    overall: Vec<u64>,
    selections: Vec<Vec<ClientId>>,
    /// The agent's decrypted population distribution per try.
    populations: Vec<Vec<f64>>,
    verdict: (usize, f64),
}

/// What `--seed` (and the fixed key seed) turn into: the same for every
/// epoch of a run.
struct Inputs {
    distributions: Vec<ClassDistribution>,
    config: DubheConfig,
    keypair: Keypair,
    policy: Option<PackingPolicy>,
    selector: DubheSelector,
    epoch_seed: u64,
}

pub struct EpochReady {
    inputs: Inputs,
    /// The same seed through `InMemoryTransport` + `CoordinatorServer`.
    reference: Decisions,
}

struct Actors {
    agent: AgentNode,
    clients: Vec<SelectClientNode>,
    selector: DubheSelector,
    transport: InMemoryTransport,
    rng: StdRng,
}

impl EpochWorkload {
    /// The paper's epoch at the paper's registry length: element-wise
    /// ciphertexts, where `dubhe-he` does almost all the work.
    pub fn elementwise() -> Self {
        EpochWorkload {
            name: "epoch_elementwise",
            clients: 24,
            k: 10,
            tries: 3,
            key_bits: 1024,
            shards: 4,
            slot_bits: None,
        }
    }

    /// The same epoch slot-packed: HE work per client drops about tenfold,
    /// so per-message costs carry a visible share.
    pub fn packed() -> Self {
        EpochWorkload {
            name: "epoch_packed",
            clients: 200,
            slot_bits: Some(32),
            ..EpochWorkload::elementwise()
        }
    }

    /// Operations one epoch plans: key dispatch, `N` registries, `H`
    /// announcements, `H·K` distributions, the verdict.
    fn planned_operations(&self) -> u64 {
        (1 + self.clients + self.tries * (1 + self.k) + 1) as u64
    }

    fn actors(&self, inputs: &Inputs) -> Actors {
        let classes = inputs.config.classes;
        let clients = inputs
            .distributions
            .iter()
            .enumerate()
            .map(|(id, d)| {
                let client = SelectClientNode::new(id, d.clone(), &inputs.config);
                match inputs.policy {
                    Some(policy) => client.with_packing(policy),
                    None => client,
                }
            })
            .collect();
        Actors {
            agent: AgentNode::from_keypair(inputs.keypair.clone(), classes),
            clients,
            selector: inputs.selector.clone(),
            transport: InMemoryTransport::new(),
            rng: StdRng::seed_from_u64(inputs.epoch_seed),
        }
    }

    fn coordinator(&self, inputs: &Inputs) -> ShardedCoordinator {
        let coordinator = ShardedCoordinator::new(self.clients, self.shards);
        match inputs.policy {
            Some(policy) => coordinator.with_packing(policy),
            None => coordinator,
        }
    }

    /// Key dispatch → verdict against any coordinator slot, returning the
    /// tentative selections. This is the stopwatch's interior: nothing here
    /// but the protocol.
    fn drive<C: Coordinator>(
        &self,
        actors: &mut Actors,
        server: &mut C,
        tracer: &mut Tracer,
    ) -> Result<Vec<Vec<ClientId>>, SelectError> {
        let Actors {
            agent,
            clients,
            selector,
            transport,
            rng,
        } = actors;
        let traced = tracer.enabled();

        let phase = tracer.enter("driver.registration");
        for e in agent.dispatch_keys(self.clients) {
            transport.send(e);
        }
        let pumped = if traced {
            pump_traced(transport, agent, clients, server, rng, tracer)
        } else {
            pump(transport, agent, clients, server, rng)
        };
        tracer.exit(phase);
        pumped?;

        let phase = tracer.enter("driver.tries");
        agent.expect_tries(self.tries);
        let mut selections = Vec::with_capacity(self.tries);
        let mut tried = Ok(());
        for try_index in 0..self.tries {
            let draw = tracer.enter("select.draw");
            let selected = selector.select(rng);
            tracer.exit(draw);
            tried = if traced {
                run_try_traced(
                    try_index, &selected, agent, clients, server, transport, rng, tracer,
                )
            } else {
                run_try(try_index, &selected, agent, clients, server, transport, rng)
            };
            selections.push(selected);
            if tried.is_err() {
                break;
            }
        }
        tracer.exit(phase);
        tried.map(|()| selections)
    }

    /// Reads what the roles hold after a completed epoch. Every client and
    /// the agent must have decrypted the same overall registry.
    fn decisions(actors: &Actors, selections: Vec<Vec<ClientId>>) -> Result<Decisions, String> {
        let overall = actors
            .agent
            .overall_registry()
            .ok_or("the agent never saw the registration total")?
            .to_vec();
        for client in &actors.clients {
            if client.overall_registry() != Some(&overall[..]) {
                return Err(format!(
                    "client {} decrypted another overall registry than the agent",
                    client.id()
                ));
            }
        }
        Ok(Decisions {
            overall,
            selections,
            populations: actors
                .agent
                .try_outcomes()
                .into_iter()
                .map(|o| o.population)
                .collect(),
            verdict: actors
                .agent
                .verdict()
                .ok_or("the agent issued no verdict")?,
        })
    }

    /// The plaintext gates: what the ciphertexts must have summed to.
    fn check_against_plaintext(&self, inputs: &Inputs, got: &Decisions, errors: &mut Vec<String>) {
        let mut overall = vec![0u64; inputs.selector.layout().len()];
        for registration in inputs.selector.registrations() {
            for (sum, bit) in overall.iter_mut().zip(&registration.registry) {
                *sum += bit;
            }
        }
        if got.overall != overall {
            errors.push("decrypted overall registry != plaintext sum of registrations".into());
        }
        let codec = FixedPointCodec::default();
        let uniform = vec![1.0 / inputs.config.classes as f64; inputs.config.classes];
        let mut best: Option<(usize, f64)> = None;
        for (try_index, selected) in got.selections.iter().enumerate() {
            let mut sum = vec![0u64; inputs.config.classes];
            for &id in selected {
                let scaled = codec.encode_vec(&inputs.distributions[id].proportions());
                for (s, v) in sum.iter_mut().zip(scaled) {
                    *s += v;
                }
            }
            let population = codec.decode_average(&sum, selected.len());
            if got.populations.get(try_index) != Some(&population) {
                errors.push(format!("try {try_index}: decrypted sum != plaintext sum"));
            }
            let distance = l1_distance(&population, &uniform);
            if best.is_none_or(|(_, d)| distance < d) {
                best = Some((try_index, distance));
            }
        }
        if best != Some(got.verdict) {
            errors.push(format!(
                "verdict {:?} != plaintext arg-min {best:?}",
                got.verdict
            ));
        }
    }
}

/// The benchmark's copy of `dubhe_select::protocol::pump`, with a span
/// around every delivery, named after the layer that does the work.
fn pump_traced<C: Coordinator>(
    transport: &mut InMemoryTransport,
    agent: &mut AgentNode,
    clients: &mut [SelectClientNode],
    server: &mut C,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> Result<(), SelectError> {
    while let Some(envelope) = transport.deliver() {
        let kind = envelope.msg.kind();
        let outgoing = match envelope.to {
            Party::Server => {
                let span = tracer.enter(match kind {
                    MsgKind::Registry => "net.rtt_registry",
                    MsgKind::Distribution => "net.rtt_distribution",
                    _ => "net.rtt_control",
                });
                let out = server.deliver(envelope);
                tracer.exit(span);
                out?
            }
            Party::Agent => {
                let span = tracer.enter(match kind {
                    MsgKind::TotalBroadcast => "agent.total_decrypt",
                    _ => "agent.try_decide",
                });
                let out = agent.deliver(envelope);
                tracer.exit(span);
                out?
            }
            Party::Client(id) => {
                let population = clients.len();
                let client = clients
                    .get_mut(id)
                    .ok_or(SelectError::ClientOutOfRange { id, population })?;
                let span = tracer.enter(match kind {
                    MsgKind::KeyDispatch => "client.keys_register",
                    _ => "client.total_decrypt",
                });
                let out = client.deliver(envelope, rng);
                tracer.exit(span);
                out?
            }
        };
        for e in outgoing {
            transport.send(e);
        }
    }
    Ok(())
}

/// The benchmark's copy of `dubhe_select::protocol::run_try` (the selector
/// only ever hands it a valid, non-empty selection).
#[allow(clippy::too_many_arguments)] // run_try's signature plus the tracer
fn run_try_traced<C: Coordinator>(
    try_index: usize,
    selected: &[ClientId],
    agent: &mut AgentNode,
    clients: &mut [SelectClientNode],
    server: &mut C,
    transport: &mut InMemoryTransport,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> Result<(), SelectError> {
    let span = tracer.enter("net.rtt_control");
    let announced = Coordinator::announce_try(server, try_index, selected);
    tracer.exit(span);
    announced?;
    for &id in selected {
        let span = tracer.enter("client.try_encrypt");
        let envelope = clients[id].encrypt_distribution(try_index, rng);
        tracer.exit(span);
        transport.send(envelope?);
    }
    pump_traced(transport, agent, clients, server, rng, tracer)
}

fn population(clients: usize, seed: u64) -> Vec<ClassDistribution> {
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    spec.build_partition(&mut rng).client_distributions()
}

impl Workload for EpochWorkload {
    type Ready = EpochReady;

    fn name(&self) -> &'static str {
        self.name
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn connections(&self) -> usize {
        1
    }

    fn describe(&self) -> String {
        format!(
            "N={} K={} H={} key_bits={} registry_len=56 shards={} packing={} channel=plaintext connections=1 codec=DBH2",
            self.clients,
            self.k,
            self.tries,
            self.key_bits,
            self.shards,
            self.slot_bits
                .map_or("off".to_string(), |b| format!("{b}-bit slots")),
        )
    }

    fn set_up(&self, seed: u64, tracer: &mut Tracer) -> Result<EpochReady, String> {
        let span = tracer.enter("setup.population");
        let distributions = population(self.clients, seed);
        let config = DubheConfig {
            k: self.k,
            multi_time_h: self.tries,
            key_bits: self.key_bits,
            ..DubheConfig::group1()
        };
        let selector = DubheSelector::new(&distributions, config.clone());
        tracer.exit(span);

        let span = tracer.enter("he.keygen");
        let keypair = epoch_keypair(self.key_bits);
        tracer.exit(span);

        let policy = match self.slot_bits {
            Some(bits) => Some(
                PackingPolicy::new(bits, self.key_bits, self.clients as u64)
                    .map_err(|e| format!("packing policy: {e}"))?,
            ),
            None => None,
        };
        let inputs = Inputs {
            distributions,
            config,
            keypair,
            policy,
            selector,
            epoch_seed: seed ^ EPOCH_STREAM,
        };

        // The reference: the same seed through the in-memory transport and
        // the single in-process coordinator, library loops only.
        let span = tracer.enter("setup.reference");
        let mut server = CoordinatorServer::new(self.clients);
        if let Some(policy) = inputs.policy {
            server = server.with_packing(policy);
        }
        let mut actors = self.actors(&inputs);
        let reference = self
            .drive(&mut actors, &mut server, &mut Tracer::new(false))
            .map_err(|e| e.to_string())
            .and_then(|selections| Self::decisions(&actors, selections));
        tracer.exit(span);
        let reference = reference.map_err(|e| format!("in-memory reference epoch: {e}"))?;
        let ready = EpochReady { inputs, reference };

        // One opaque span: the warm-up's inner spans would otherwise count
        // as a measured epoch's.
        let span = tracer.enter("setup.warmup_epoch");
        let warm = self.run_epoch(&ready, &mut Tracer::new(false));
        tracer.exit(span);
        if !warm.errors.is_empty() {
            return Err(format!("warm-up epoch: {}", warm.errors.join("; ")));
        }
        Ok(ready)
    }

    fn run_epoch(&self, ready: &EpochReady, tracer: &mut Tracer) -> EpochOutcome {
        let mut outcome = EpochOutcome {
            attempted: self.planned_operations(),
            ..EpochOutcome::default()
        };

        let span = tracer.enter("net.listen");
        let listener = spawn_listener(self.coordinator(&ready.inputs), ChannelPolicy::Plaintext);
        tracer.exit(span);
        let listener = match listener {
            Ok(listener) => listener,
            Err(e) => return outcome.abort(e),
        };
        let span = tracer.enter("net.connect");
        let endpoint = TcpTransport::connect_with_config(
            listener.addr(),
            TcpConfig::default().with_codec(CodecKind::Binary),
        );
        tracer.exit(span);
        let mut endpoint = match endpoint {
            Ok(endpoint) => endpoint,
            Err(e) => return outcome.abort(format!("connect: {e}")),
        };
        let mut actors = self.actors(&ready.inputs);

        let root = tracer.enter("epoch");
        let cpu = Rusage::now();
        let started = Instant::now();
        let driven = self.drive(&mut actors, &mut endpoint, tracer);
        outcome.wall_s = started.elapsed().as_secs_f64();
        outcome.cpu = Rusage::now().since(&cpu);
        tracer.exit(root);
        let decisions = driven
            .map_err(|e| e.to_string())
            .and_then(|selections| Self::decisions(&actors, selections));

        let client_meter = *endpoint.wire_stats();
        if let Err(e) = endpoint.shutdown() {
            outcome.errors.push(format!("shutdown frame: {e}"));
        }
        let (stats, coordinator) = match finish_listener(listener, 1) {
            Ok(done) => done,
            Err(e) => return outcome.abort(e),
        };
        outcome.wire_bytes = wire_bytes(&stats);

        match decisions {
            Err(e) => outcome.errors.push(format!("epoch aborted: {e}")),
            Ok(decisions) => {
                self.check_against_plaintext(&ready.inputs, &decisions, &mut outcome.errors);
                if decisions != ready.reference {
                    outcome.errors.push(
                        "decisions differ from the in-memory CoordinatorServer reference".into(),
                    );
                }
                if coordinator.last_verdict() != Some(decisions.verdict) {
                    outcome
                        .errors
                        .push("the listener's coordinator recorded another verdict".into());
                }
            }
        }
        // One message per operation except the H announcements, which are
        // control frames the coordinator does not count.
        let messages = self.planned_operations() as usize - self.tries;
        if coordinator.messages_received() != messages {
            outcome.errors.push(format!(
                "coordinator received {} messages, expected {messages}",
                coordinator.messages_received()
            ));
        }
        listener_gates(&stats, 1, false, &mut outcome.errors);
        // Both ends metered the same reply bytes.
        if client_meter.bytes_received != stats.bytes_sent {
            outcome.errors.push(format!(
                "client read {} reply bytes, listener wrote {}",
                client_meter.bytes_received, stats.bytes_sent
            ));
        }
        outcome.listener = stats;
        outcome.settle()
    }

    fn ladder(&self, ready: &EpochReady) -> Vec<Reading> {
        ladder::run(&LadderInputs {
            keypair: &ready.inputs.keypair,
            registry_len: ready.inputs.selector.layout().len(),
            shards: self.shards,
            policy: ready.inputs.policy,
            sealed: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(slot_bits: Option<u32>) -> EpochWorkload {
        EpochWorkload {
            name: "test",
            clients: 8,
            k: 4,
            tries: 2,
            key_bits: 256,
            shards: 2,
            slot_bits,
        }
    }

    #[test]
    fn same_seed_repeats_the_wire_bytes_and_another_seed_passes_every_gate() {
        for w in [small(None), small(Some(32))] {
            let ready = w
                .set_up(1, &mut Tracer::new(false))
                .expect("set-up, seed 1");
            let first = w.run_epoch(&ready, &mut Tracer::new(false));
            assert_eq!(first.errors, Vec::<String>::new());
            assert_eq!((first.attempted, first.failed), (20, 0));

            // The benchmark's own pump copy is held to the same reference.
            let mut tracer = Tracer::new(true);
            let traced = w.run_epoch(&ready, &mut tracer);
            assert_eq!(traced.errors, Vec::<String>::new());
            assert_eq!(traced.wire_bytes, first.wire_bytes);
            let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
            for expected in [
                "epoch",
                "driver.registration",
                "driver.tries",
                "client.keys_register",
                "client.total_decrypt",
                "client.try_encrypt",
                "agent.total_decrypt",
                "agent.try_decide",
                "select.draw",
                "net.rtt_registry",
                "net.rtt_distribution",
            ] {
                assert!(names.contains(&expected), "no {expected} span");
            }

            let again = w.set_up(1, &mut Tracer::new(false)).expect("set-up again");
            assert_eq!(again.reference, ready.reference);
            let repeat = w.run_epoch(&again, &mut Tracer::new(false));
            assert_eq!(repeat.wire_bytes, first.wire_bytes);

            let other = w
                .set_up(2, &mut Tracer::new(false))
                .expect("set-up, seed 2");
            let outcome = w.run_epoch(&other, &mut Tracer::new(false));
            assert_eq!(outcome.errors, Vec::<String>::new());
            assert_eq!(outcome.wire_bytes, first.wire_bytes);
        }
    }

    #[test]
    fn a_wrong_reference_fails_every_operation_of_the_epoch() {
        let w = small(None);
        let mut ready = w.set_up(3, &mut Tracer::new(false)).expect("set-up");
        ready.reference.verdict.1 += 1.0;
        let outcome = w.run_epoch(&ready, &mut Tracer::new(false));
        assert_eq!(outcome.failed, outcome.attempted);
        assert!(
            outcome.errors[0].contains("reference"),
            "{:?}",
            outcome.errors
        );
    }
}
