//! `fanin_large_sealed` and `fanin_small_plain`: the coordinator side of an
//! epoch under many logical clients.
//!
//! Client crypto is out of the timed path: set-up encrypts a pool of 64
//! registries and 64 distributions (as `load_gen` does) and the epoch
//! replays them as `N` logical clients' uploads through a `MuxClient`,
//! closed loop, at most [`INFLIGHT`] frames awaiting a reply. What the
//! stopwatch sees is the server: frame reassembly, (un)sealing, zero-copy
//! decode and `< n²` validation, the Montgomery fold, shard fan-out, and
//! the reactor → router → reactor hand-offs.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dubhe_he::{EncryptedVector, EpochEncryptor, Keypair, PublicKey, DEFAULT_FIXED_SCALE};
use dubhe_net::{MuxClient, MuxConfig};
use dubhe_select::protocol::{
    ChannelPolicy, CodecKind, Coordinator, Envelope, NodeIdentity, Party, ProtocolMsg,
    ShardedCoordinator, WireMsg,
};
use dubhe_select::ProtocolError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::ladder::{self, LadderInputs};
use crate::proc::Rusage;
use crate::trace::Tracer;
use crate::workload::{
    epoch_keypair, finish_listener, listener_gates, nproc, spawn_listener, wire_bytes,
    EpochOutcome, Reading, Workload, SERVER_IDENTITY_SEED,
};

/// Distinct ciphertext vectors per kind; logical clients cycle through them.
const POOL: usize = 64;
/// Label classes of the synthetic distributions.
const CLASSES: usize = 10;
/// Frames awaiting a reply at any moment, across all connections.
const INFLIGHT: usize = 16;
/// Base seed of the per-connection client identities on a sealed channel.
const CLIENT_IDENTITY_SEED: u64 = 0xC11E_0000;
const EPOCH: u64 = 0;
const VERDICT: (usize, f64) = (0, 0.25);

/// Parameters of one `fanin_*` workload.
#[derive(Debug, Clone)]
pub struct FanInWorkload {
    pub name: &'static str,
    /// Logical clients `N`.
    pub clients: usize,
    /// Participants per try `K`.
    pub select: usize,
    /// Tentative tries `H`.
    pub tries: usize,
    pub key_bits: u64,
    pub registry_len: usize,
    pub shards: usize,
    /// `true` runs every connection over the authenticated channel.
    pub sealed: bool,
}

pub struct FanInReady {
    keypair: Keypair,
    registries: Vec<EncryptedVector>,
    distributions: Vec<EncryptedVector>,
    /// Pool entry each logical client registers with.
    registry_of: Vec<usize>,
    /// Pool entry each logical client contributes to each try.
    distribution_of: Vec<Vec<usize>>,
    /// The tentative participant sets, sorted.
    participants: Vec<Vec<usize>>,
    connections: usize,
    reference: Reference,
}

/// What the in-process `ShardedCoordinator` made of the same session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Reference {
    /// Digest of the registration total and every try sum, as replied.
    replies: u64,
    /// Digest of the registration total the coordinator holds at the end.
    state: u64,
    messages: usize,
}

/// FNV-1a over ciphertext residues, length-prefixed: equal digests ⇔ the
/// coordinator aggregated bit-identical folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn vector(&mut self, v: &EncryptedVector) {
        self.eat(&(v.len() as u64).to_be_bytes());
        for ct in v.elements() {
            let bytes = ct.raw().to_bytes_be();
            self.eat(&(bytes.len() as u64).to_be_bytes());
            self.eat(&bytes);
        }
    }

    /// Folds in whatever aggregate a reply batch carries: the registration
    /// total (the agent's copy, last in the batch) or a try sum.
    fn batch(&mut self, envelopes: &[Envelope]) {
        match envelopes.last().map(|e| &e.msg) {
            Some(ProtocolMsg::EncryptedTotalBroadcast { total }) => {
                self.eat(&(envelopes.len() as u64).to_be_bytes());
                self.vector(total);
            }
            Some(ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors,
                sum,
            }) => {
                self.eat(&(*try_index as u64).to_be_bytes());
                self.eat(&(*contributors as u64).to_be_bytes());
                self.vector(sum);
            }
            _ => {}
        }
    }
}

impl FanInReady {
    fn public_key(&self) -> &PublicKey {
        &self.keypair.public
    }

    fn key_dispatch(&self) -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: self.public_key().clone(),
                private_key: None,
            },
        }
    }

    fn registry(&self, client: usize) -> Envelope {
        Envelope {
            from: Party::Client(client),
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::EncryptedRegistry {
                client,
                registry: self.registries[self.registry_of[client]].clone(),
            },
        }
    }

    fn distribution(&self, client: usize, try_index: usize) -> Envelope {
        Envelope {
            from: Party::Client(client),
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution: self.distributions[self.distribution_of[try_index][client]].clone(),
            },
        }
    }

    fn verdict(&self) -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::TryVerdict {
                best_try: VERDICT.0,
                distance: VERDICT.1,
            },
        }
    }
}

impl FanInWorkload {
    /// Paper-sized frames (1024-bit key, registry length 56 ≈ 14 KB) over
    /// the sealed channel: byte-proportional server costs dominate.
    pub fn large_sealed() -> Self {
        FanInWorkload {
            name: "fanin_large_sealed",
            clients: 1000,
            select: 100,
            tries: 3,
            key_bits: 1024,
            registry_len: 56,
            shards: 4,
            sealed: true,
        }
    }

    /// The smallest frames (256-bit key, registry length 10 ≈ 650 B), in
    /// plaintext, one shard: per-frame fixed costs dominate.
    pub fn small_plain() -> Self {
        FanInWorkload {
            name: "fanin_small_plain",
            clients: 3000,
            select: 300,
            tries: 3,
            key_bits: 256,
            registry_len: 10,
            shards: 1,
            sealed: false,
        }
    }

    fn channel(&self) -> ChannelPolicy {
        if self.sealed {
            ChannelPolicy::Required
        } else {
            ChannelPolicy::Plaintext
        }
    }

    /// Key dispatch, `N` registries, `H` announcements, `H·K`
    /// distributions, the verdict.
    fn planned_operations(&self) -> u64 {
        (1 + self.clients + self.tries * (1 + self.select) + 1) as u64
    }

    /// The whole session folded into an in-process coordinator, checked
    /// against the plaintext sums.
    fn reference(
        &self,
        ready: &FanInReady,
        registry_plain: &[Vec<u64>],
        distribution_plain: &[Vec<u64>],
    ) -> Result<Reference, String> {
        let err = |what: &str, e: ProtocolError| format!("reference {what}: {e}");
        let private = &ready.keypair.private;
        let mut digest = Digest::new();
        let mut server = ShardedCoordinator::new(self.clients, self.shards);
        server
            .deliver(ready.key_dispatch())
            .map_err(|e| err("key dispatch", e))?;
        let mut expected = vec![0u64; self.registry_len];
        for client in 0..self.clients {
            for (sum, v) in expected
                .iter_mut()
                .zip(&registry_plain[ready.registry_of[client]])
            {
                *sum += v;
            }
            let out = server
                .deliver(ready.registry(client))
                .map_err(|e| err("registry", e))?;
            digest.batch(&out);
        }
        let total = server
            .encrypted_total()
            .ok_or("reference registration never completed")?;
        if total.decrypt_u64(private).map_err(|e| e.to_string())? != expected {
            return Err("reference registration total != plaintext sum".into());
        }
        for (try_index, participants) in ready.participants.iter().enumerate() {
            Coordinator::announce_try(&mut server, try_index, participants)
                .map_err(|e| err("announce", e))?;
            let mut expected = vec![0u64; CLASSES];
            let mut sum = None;
            for &client in participants {
                for (s, v) in expected
                    .iter_mut()
                    .zip(&distribution_plain[ready.distribution_of[try_index][client]])
                {
                    *s += v;
                }
                let out = server
                    .deliver(ready.distribution(client, try_index))
                    .map_err(|e| err("distribution", e))?;
                digest.batch(&out);
                if let Some(ProtocolMsg::EncryptedDistributionSum { sum: s, .. }) =
                    out.into_iter().next().map(|e| e.msg)
                {
                    sum = Some(s);
                }
            }
            let sum = sum.ok_or("reference try never completed")?;
            if sum.decrypt_u64(private).map_err(|e| e.to_string())? != expected {
                return Err(format!("reference try {try_index} sum != plaintext sum"));
            }
        }
        server
            .deliver(ready.verdict())
            .map_err(|e| err("verdict", e))?;
        let mut state = Digest::new();
        state.vector(&total);
        Ok(Reference {
            replies: digest.0,
            state: state.0,
            messages: server.messages_received(),
        })
    }

    /// Uploads one frame per client in `clients`, closed loop: a new frame
    /// goes out only when a reply frees one of the [`INFLIGHT`] slots.
    /// Client `c` always speaks on connection `c % connections`, so the
    /// listener's identity binding sees one identity per client.
    fn pipeline(
        &self,
        ready: &FanInReady,
        mux: &mut MuxClient,
        session: &mut Session,
        clients: &mut dyn Iterator<Item = usize>,
        frame: Frame,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        let mut outstanding = 0usize;
        loop {
            while outstanding < INFLIGHT {
                let Some(client) = clients.next() else { break };
                let span = tracer.enter("gen.build");
                let envelope = match frame {
                    Frame::Distribution { try_index } => ready.distribution(client, try_index),
                    _ => ready.registry(client),
                };
                let msg = WireMsg::Envelope { envelope };
                tracer.exit(span);
                session.send(mux, client % ready.connections, &msg, frame, tracer)?;
                outstanding += 1;
            }
            if outstanding == 0 {
                return Ok(());
            }
            outstanding -= session.collect(mux, tracer)?;
        }
    }

    /// One control frame on connection 0, reply awaited.
    fn control(
        &self,
        mux: &mut MuxClient,
        session: &mut Session,
        msg: WireMsg,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        session.send(mux, 0, &msg, Frame::Control, tracer)?;
        session.collect(mux, tracer).map(|_| ())
    }

    /// Key dispatch → verdict over the wire.
    fn drive(
        &self,
        ready: &FanInReady,
        mux: &mut MuxClient,
        session: &mut Session,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        let phase = tracer.enter("driver.registration");
        let key_dispatch = WireMsg::Envelope {
            envelope: ready.key_dispatch(),
        };
        let registered = self
            .control(mux, session, key_dispatch, tracer)
            .and_then(|()| {
                let mut clients = 0..self.clients;
                self.pipeline(ready, mux, session, &mut clients, Frame::Registry, tracer)
            });
        tracer.exit(phase);
        registered?;

        let phase = tracer.enter("driver.tries");
        let tried = self.drive_tries(ready, mux, session, tracer);
        tracer.exit(phase);
        tried
    }

    fn drive_tries(
        &self,
        ready: &FanInReady,
        mux: &mut MuxClient,
        session: &mut Session,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        for (try_index, participants) in ready.participants.iter().enumerate() {
            let announce = WireMsg::AnnounceTry {
                try_index,
                participants: participants.clone(),
            };
            self.control(mux, session, announce, tracer)?;
            let mut clients = participants.iter().copied();
            let frame = Frame::Distribution { try_index };
            self.pipeline(ready, mux, session, &mut clients, frame, tracer)?;
        }
        let verdict = WireMsg::Envelope {
            envelope: ready.verdict(),
        };
        self.control(mux, session, verdict, tracer)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Control,
    Registry,
    Distribution { try_index: usize },
}

/// The generator's per-epoch bookkeeping: the digest of the aggregates the
/// replies carried, refusals, and (while tracing) per-frame round trips.
struct Session {
    digest: Digest,
    replies: u64,
    refusals: Vec<String>,
    /// Per connection, the send instants of frames still awaiting their
    /// reply — replies on one connection arrive in request order.
    awaiting: Vec<VecDeque<(Instant, Frame)>>,
    rtt_us: (Vec<f64>, Vec<f64>),
}

impl Session {
    fn new(connections: usize) -> Self {
        Session {
            digest: Digest::new(),
            replies: 0,
            refusals: Vec::new(),
            awaiting: vec![VecDeque::new(); connections],
            rtt_us: (Vec::new(), Vec::new()),
        }
    }

    fn send(
        &mut self,
        mux: &mut MuxClient,
        conn: usize,
        msg: &WireMsg,
        frame: Frame,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        let span = tracer.enter("mux.send");
        let sent = mux.send(conn, msg);
        tracer.exit(span);
        if tracer.enabled() {
            self.awaiting[conn].push_back((Instant::now(), frame));
        }
        sent
    }

    /// Moves queued bytes and takes every reply that has arrived (at least
    /// one), returning how many.
    fn collect(
        &mut self,
        mux: &mut MuxClient,
        tracer: &mut Tracer,
    ) -> Result<usize, ProtocolError> {
        let span = tracer.enter("mux.collect");
        let replies = mux.collect(1);
        tracer.exit(span);
        let replies = replies?;
        let count = replies.len();
        let span = tracer.enter("gen.check");
        for (conn, reply) in replies {
            self.replies += 1;
            if let Some((sent, frame)) = self.awaiting[conn].pop_front() {
                let us = sent.elapsed().as_secs_f64() * 1e6;
                match frame {
                    Frame::Registry => self.rtt_us.0.push(us),
                    Frame::Distribution { .. } => self.rtt_us.1.push(us),
                    Frame::Control => {}
                }
            }
            match reply {
                WireMsg::Batch { envelopes } => self.digest.batch(&envelopes),
                WireMsg::Ack => {}
                WireMsg::Error { detail } => self.refusals.push(detail),
                other => self.refusals.push(format!("unexpected reply {other:?}")),
            }
        }
        tracer.exit(span);
        Ok(count)
    }
}

impl Workload for FanInWorkload {
    type Ready = FanInReady;

    fn name(&self) -> &'static str {
        self.name
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn connections(&self) -> usize {
        // Two, or one on a one-core host: never more than `nproc`.
        2.min(nproc())
    }

    fn describe(&self) -> String {
        format!(
            "N={} K={} H={} key_bits={} registry_len={} shards={} channel={} connections={} inflight={INFLIGHT} pool={POOL} codec=DBH2",
            self.clients,
            self.select,
            self.tries,
            self.key_bits,
            self.registry_len,
            self.shards,
            if self.sealed { "sealed" } else { "plaintext" },
            self.connections(),
        )
    }

    fn set_up(&self, seed: u64, tracer: &mut Tracer) -> Result<FanInReady, String> {
        let span = tracer.enter("he.keygen");
        let keypair = epoch_keypair(self.key_bits);
        tracer.exit(span);

        // Inputs: which registry position each pool entry sets, the scaled
        // distributions, who uploads which entry, and who is drawn per try.
        let span = tracer.enter("setup.population");
        let mut rng = StdRng::seed_from_u64(seed);
        let registry_plain: Vec<Vec<u64>> = (0..POOL)
            .map(|_| {
                let mut onehot = vec![0u64; self.registry_len];
                onehot[rng.gen_range(0..self.registry_len)] = 1;
                onehot
            })
            .collect();
        let distribution_plain: Vec<Vec<u64>> = (0..POOL)
            .map(|_| {
                (0..CLASSES)
                    .map(|_| rng.gen_range(0..=DEFAULT_FIXED_SCALE / CLASSES as u64))
                    .collect()
            })
            .collect();
        let registry_of = (0..self.clients).map(|_| rng.gen_range(0..POOL)).collect();
        let distribution_of = (0..self.tries)
            .map(|_| (0..self.clients).map(|_| rng.gen_range(0..POOL)).collect())
            .collect();
        let participants = (0..self.tries)
            .map(|_| {
                let mut ids: Vec<usize> = (0..self.clients).collect();
                ids.shuffle(&mut rng);
                ids.truncate(self.select);
                ids.sort_unstable();
                ids
            })
            .collect();
        tracer.exit(span);

        let span = tracer.enter("setup.pool");
        let encryptor =
            EpochEncryptor::for_key_material(&keypair.public, Some(&keypair.private), &mut rng);
        let registries = registry_plain
            .iter()
            .map(|v| EncryptedVector::encrypt_u64_with(&encryptor, v, &mut rng))
            .collect();
        let distributions = distribution_plain
            .iter()
            .map(|v| EncryptedVector::encrypt_u64_with(&encryptor, v, &mut rng))
            .collect();
        tracer.exit(span);

        let mut ready = FanInReady {
            keypair,
            registries,
            distributions,
            registry_of,
            distribution_of,
            participants,
            connections: self.connections(),
            reference: Reference::default(),
        };
        let span = tracer.enter("setup.reference");
        let reference = self.reference(&ready, &registry_plain, &distribution_plain);
        tracer.exit(span);
        ready.reference = reference?;

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

    fn run_epoch(&self, ready: &FanInReady, tracer: &mut Tracer) -> EpochOutcome {
        let mut outcome = EpochOutcome {
            attempted: self.planned_operations(),
            ..EpochOutcome::default()
        };
        let conns = ready.connections;

        let span = tracer.enter("net.listen");
        let listener = spawn_listener(
            ShardedCoordinator::new(self.clients, self.shards),
            self.channel(),
        );
        tracer.exit(span);
        let listener = match listener {
            Ok(listener) => listener,
            Err(e) => return outcome.abort(e),
        };
        let mut config = MuxConfig::default()
            .with_codec(CodecKind::Binary)
            .with_exchange_timeout(Duration::from_secs(60));
        if self.sealed {
            config = config
                .with_channel(ChannelPolicy::Required)
                .with_identity_seed(CLIENT_IDENTITY_SEED)
                .with_expected_server(NodeIdentity::from_seed(SERVER_IDENTITY_SEED).public_bytes());
        }
        let span = tracer.enter("net.connect");
        let mux = MuxClient::connect(listener.addr(), conns, config);
        tracer.exit(span);
        let mut mux = match mux {
            Ok(mux) => mux,
            Err(e) => return outcome.abort(format!("connect: {e}")),
        };
        let mut session = Session::new(conns);

        let root = tracer.enter("epoch");
        let cpu = Rusage::now();
        let started = Instant::now();
        let driven = self.drive(ready, &mut mux, &mut session, tracer);
        outcome.wall_s = started.elapsed().as_secs_f64();
        outcome.cpu = Rusage::now().since(&cpu);
        tracer.exit(root);

        mux.shutdown();
        let (stats, coordinator) = match finish_listener(listener, conns) {
            Ok(done) => done,
            Err(e) => return outcome.abort(e),
        };
        outcome.wire_bytes = wire_bytes(&stats);
        outcome.rtt_us = session.rtt_us;

        if let Err(e) = driven {
            outcome.errors.push(format!("epoch aborted: {e}"));
        }
        for refusal in session.refusals.iter().take(3) {
            outcome.errors.push(format!("error reply: {refusal}"));
        }
        if session.replies != outcome.attempted {
            outcome.errors.push(format!(
                "{} replies for {} operations",
                session.replies, outcome.attempted
            ));
        }
        if session.digest.0 != ready.reference.replies {
            outcome
                .errors
                .push("replied folds differ from the in-process reference".into());
        }
        let mut state = Digest::new();
        if let Some(total) = coordinator.encrypted_total() {
            state.vector(&total);
        }
        if state.0 != ready.reference.state {
            outcome
                .errors
                .push("final registry fold differs from the in-process reference".into());
        }
        if coordinator.messages_received() != ready.reference.messages {
            outcome.errors.push(format!(
                "coordinator received {} messages, reference {}",
                coordinator.messages_received(),
                ready.reference.messages
            ));
        }
        if coordinator.last_verdict() != Some(VERDICT) {
            outcome.errors.push("verdict not recorded".into());
        }
        listener_gates(&stats, conns, self.sealed, &mut outcome.errors);
        outcome.listener = stats;
        outcome.settle()
    }

    fn ladder(&self, ready: &FanInReady) -> Vec<Reading> {
        ladder::run(&LadderInputs {
            keypair: &ready.keypair,
            registry_len: self.registry_len,
            shards: self.shards,
            policy: None,
            sealed: self.sealed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(sealed: bool) -> FanInWorkload {
        FanInWorkload {
            name: "test",
            clients: 40,
            select: 8,
            tries: 2,
            key_bits: 256,
            registry_len: 10,
            shards: 2,
            sealed,
        }
    }

    #[test]
    fn same_seed_repeats_the_wire_bytes_and_another_seed_passes_every_gate() {
        for w in [small(false), small(true)] {
            let ready = w
                .set_up(1, &mut Tracer::new(false))
                .expect("set-up, seed 1");
            let first = w.run_epoch(&ready, &mut Tracer::new(false));
            assert_eq!(first.errors, Vec::<String>::new());
            assert_eq!((first.attempted, first.failed), (60, 0));
            let handshakes = if w.sealed { ready.connections } else { 0 };
            assert_eq!(first.listener.handshakes_completed, handshakes);

            let mut tracer = Tracer::new(true);
            let traced = w.run_epoch(&ready, &mut tracer);
            assert_eq!(traced.errors, Vec::<String>::new());
            assert_eq!(traced.wire_bytes, first.wire_bytes);
            assert_eq!(traced.rtt_us.0.len(), 40);
            assert_eq!(traced.rtt_us.1.len(), 16);
            assert!(first.rtt_us.0.is_empty());

            let again = w.set_up(1, &mut Tracer::new(false)).expect("set-up again");
            assert_eq!(again.participants, ready.participants);
            let repeat = w.run_epoch(&again, &mut Tracer::new(false));
            assert_eq!(repeat.wire_bytes, first.wire_bytes);

            let other = w
                .set_up(2, &mut Tracer::new(false))
                .expect("set-up, seed 2");
            assert_ne!(other.participants, ready.participants);
            let outcome = w.run_epoch(&other, &mut Tracer::new(false));
            assert_eq!(outcome.errors, Vec::<String>::new());
            assert_eq!(outcome.wire_bytes, first.wire_bytes);
        }
    }

    #[test]
    fn a_wrong_digest_fails_every_operation_of_the_epoch() {
        let w = small(false);
        let mut ready = w.set_up(3, &mut Tracer::new(false)).expect("set-up");
        ready.reference.replies ^= 1;
        let outcome = w.run_epoch(&ready, &mut Tracer::new(false));
        assert_eq!(outcome.failed, outcome.attempted);
        assert!(
            outcome.errors[0].contains("reference"),
            "{:?}",
            outcome.errors
        );
    }
}
