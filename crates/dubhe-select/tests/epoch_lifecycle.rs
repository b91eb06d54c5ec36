//! End-to-end pins for the epoch lifecycle: key rotation with cohort
//! re-registration (in memory and over TCP), stale/future frame rejection,
//! coordinator crash recovery from a snapshot (element-wise and packed, at
//! several shard counts), snapshot corruption, the straggler deadline, and
//! dropout-driven partial-cohort folds.
//!
//! The acceptance bar: a coordinator killed mid-aggregation and restored
//! from its snapshot must finish on a total *bit-identical* to the
//! left-to-right `EncryptedVector::add` chain over the uploads — what an
//! uninterrupted run folds to at any shard count — a corrupt snapshot must
//! be a typed error, and a round with injected churn must always close —
//! explicitly partial — instead of hanging.

use std::time::Duration;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::EncryptedVector;
use dubhe_net::ReactorListener;
use dubhe_select::protocol::{
    pump, run_registration, run_try, run_try_with_dropouts, Client, ClientConfig, Coordinator,
    Envelope, InMemoryTransport, PackingPolicy, Party, ProtocolMsg, ShardedCoordinator, Transport,
};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector, ProtocolError};
use rand::SeedableRng;

const KEY_BITS: u64 = 256;

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
fn rotation_re_registers_the_cohort_under_a_fresh_key() {
    let dists = clients(12, 81);
    let mut config = DubheConfig::group1();
    config.k = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(82);
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(12, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let overall_epoch0 = run.overall_registry().unwrap().to_vec();
    let old_modulus = run.agent.public_key().n().clone();

    // Mid-simulation rotation: fresh keypair, everyone re-registers.
    for e in run.agent.rotate_epoch(12, &mut rng) {
        transport.send(e);
    }
    pump(
        &mut transport,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut rng,
    )
    .unwrap();

    assert_eq!(run.agent.epoch(), 1);
    assert_eq!(run.server.epoch(), 1);
    for c in &run.clients {
        assert_eq!(c.epoch(), 1, "client {} missed the rotation", c.id());
    }
    assert_ne!(
        run.agent.public_key().n(),
        &old_modulus,
        "rotation must generate a genuinely fresh key"
    );
    // Same distributions, fresh key: the re-derived overall registry is the
    // same plaintext decision even though every ciphertext changed.
    assert_eq!(run.overall_registry(), Some(&overall_epoch0[..]));
    assert_eq!(run.agent.overall_registry(), Some(&overall_epoch0[..]));

    // The new epoch is live: a multi-time round runs to a verdict.
    let mut selector = DubheSelector::new(&dists, config);
    run.agent.expect_tries(1);
    let tentative = selector.select(&mut rng);
    run_try(
        0,
        &tentative,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    assert!(run.agent.verdict().is_some());

    // A replayed epoch-0 frame is now refused with a typed error.
    let stale = Envelope {
        from: Party::Agent,
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try: 0,
            distance: 0.0,
        },
    };
    match Coordinator::deliver(&mut run.server, stale) {
        Err(ProtocolError::StaleEpoch {
            received: 0,
            current: 1,
        }) => {}
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
}

#[test]
fn rotation_drives_re_registration_over_tcp() {
    let dists = clients(8, 91);
    let mut config = DubheConfig::group1();
    config.k = 4;
    let mut rng = rand::rngs::StdRng::seed_from_u64(92);

    let listener = ReactorListener::spawn(ShardedCoordinator::new(8, 2)).unwrap();
    let endpoint = Client::connect(listener.addr(), 1, ClientConfig::default()).unwrap();
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        endpoint,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let overall_epoch0 = run.overall_registry().unwrap().to_vec();

    for e in run.agent.rotate_epoch(8, &mut rng) {
        transport.send(e);
    }
    pump(
        &mut transport,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut rng,
    )
    .unwrap();

    assert_eq!(run.agent.epoch(), 1);
    assert_eq!(run.overall_registry(), Some(&overall_epoch0[..]));

    // The remote coordinator refuses a stale frame with a relayed typed
    // error — never a hang or a dropped session.
    let stale = Envelope {
        from: Party::Agent,
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try: 0,
            distance: 0.0,
        },
    };
    match Coordinator::deliver(&mut run.server, stale) {
        Err(ProtocolError::Remote { detail }) => {
            assert!(detail.contains("stale frame"), "{detail}");
        }
        other => panic!("expected a relayed stale-epoch error, got {other:?}"),
    }

    // The rotated epoch still works end-to-end over the socket.
    let mut selector = DubheSelector::new(&dists, config);
    run.agent.expect_tries(1);
    let tentative = selector.select(&mut rng);
    run_try(
        0,
        &tentative,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    assert!(run.agent.verdict().is_some());

    run.server.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("listener state");
    assert_eq!(coordinator.epoch(), 1);
}

#[test]
fn stale_and_future_frames_are_typed_errors_at_every_role() {
    let dists = clients(3, 101);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(102);
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(3, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let verdict = |epoch: u64, to: Party| Envelope {
        from: Party::Agent,
        to,
        epoch,
        msg: ProtocolMsg::TryVerdict {
            best_try: 0,
            distance: 0.0,
        },
    };

    // The server refuses a non-key frame from the future...
    match Coordinator::deliver(&mut run.server, verdict(3, Party::Server)) {
        Err(ProtocolError::FutureEpoch {
            received: 3,
            current: 0,
        }) => {}
        other => panic!("expected FutureEpoch at the server, got {other:?}"),
    }
    // ...the agent (the epoch's author) refuses both directions...
    let total = run.server.encrypted_total().expect("epoch complete");
    let broadcast = |epoch: u64, to: Party| Envelope {
        from: Party::Server,
        to,
        epoch,
        msg: ProtocolMsg::EncryptedTotalBroadcast {
            total: total.clone(),
        },
    };
    match run.agent.deliver(broadcast(2, Party::Agent)) {
        Err(ProtocolError::FutureEpoch { .. }) => {}
        other => panic!("expected FutureEpoch at the agent, got {other:?}"),
    }
    for e in run.agent.rotate_epoch(3, &mut rng) {
        transport.send(e);
    }
    pump(
        &mut transport,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut rng,
    )
    .unwrap();
    match run.agent.deliver(broadcast(0, Party::Agent)) {
        Err(ProtocolError::StaleEpoch {
            received: 0,
            current: 1,
        }) => {}
        other => panic!("expected StaleEpoch at the agent, got {other:?}"),
    }
    // ...and a client refuses stale frames and non-key future frames alike.
    match run.clients[0].deliver(broadcast(0, Party::Client(0)), &mut rng) {
        Err(ProtocolError::StaleEpoch { .. }) => {}
        other => panic!("expected StaleEpoch at the client, got {other:?}"),
    }
    match run.clients[0].deliver(broadcast(9, Party::Client(0)), &mut rng) {
        Err(ProtocolError::FutureEpoch { .. }) => {}
        other => panic!("expected FutureEpoch at the client, got {other:?}"),
    }
}

/// The definition every registry fold is pinned to: the left-to-right
/// `EncryptedVector::add` chain over the uploads, in arrival order.
fn add_chain<'a>(uploads: impl Iterator<Item = &'a EncryptedVector>) -> EncryptedVector {
    uploads
        .cloned()
        .reduce(|sum, v| sum.add(&v).unwrap())
        .expect("at least one upload")
}

/// Asserts `total` is `chain`, residue for residue.
fn assert_is_chain(total: &EncryptedVector, chain: &EncryptedVector, what: &str) {
    assert_eq!(total.len(), chain.len(), "{what}");
    for (a, b) in total.elements().iter().zip(chain.elements()) {
        assert_eq!(a.raw(), b.raw(), "{what}: fold diverged from the add chain");
    }
}

/// Asserts every envelope is the registration broadcast — packed iff
/// `packed` — carrying `chain`, residue for residue.
fn assert_broadcast_is_chain(
    broadcast: &[Envelope],
    packed: bool,
    chain: &EncryptedVector,
    what: &str,
) {
    for e in broadcast {
        match &e.msg {
            ProtocolMsg::EncryptedTotalBroadcast { total } if !packed => {
                assert_is_chain(total, chain, what)
            }
            ProtocolMsg::PackedTotalBroadcast { total } if packed => {
                assert_is_chain(total.vector(), chain, what)
            }
            other => panic!("{what}: unexpected {:?}", other.kind()),
        }
    }
}

/// Drives one full registration on a recording transport and returns the
/// server-bound envelopes it carried (key dispatch first, then every
/// registry upload, in arrival order) plus the add chain over those uploads
/// — element-wise, or under `policy` when one is given (the chain then runs
/// over the packed uploads' ciphertext vectors).
fn recorded_registration(
    n: usize,
    seed: u64,
    policy: Option<PackingPolicy>,
) -> (Vec<Envelope>, EncryptedVector) {
    let dists = clients(n, seed);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
    let mut transport = InMemoryTransport::recording();
    let mut server = ShardedCoordinator::new(n, 1);
    if let Some(policy) = policy {
        server = server.with_packing(policy);
    }
    run_registration(
        &dists,
        &config,
        KEY_BITS,
        policy,
        server,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let replay: Vec<Envelope> = transport
        .transcript()
        .iter()
        .filter(|e| {
            matches!(
                e.msg,
                ProtocolMsg::PublicKeyDispatch { .. }
                    | ProtocolMsg::EncryptedRegistry { .. }
                    | ProtocolMsg::PackedRegistry { .. }
            ) && e.to == Party::Server
        })
        .cloned()
        .collect();
    // replay[0] is the server's key dispatch; the rest are registries.
    assert_eq!(replay.len(), n + 1);
    let chain = add_chain(replay.iter().filter_map(|e| match &e.msg {
        ProtocolMsg::EncryptedRegistry { registry, .. } => Some(registry),
        ProtocolMsg::PackedRegistry { registry, .. } => Some(registry.vector()),
        _ => None,
    }));
    (replay, chain)
}

/// The crash-recovery pin: kill the coordinator between uploads — right
/// after the seeding upload, twice mid-fold, one short of completion — so
/// all that survives is the snapshot bytes, restore it, and finish. At every
/// shard count the resumed total, and the total in every envelope of the
/// completion broadcast, must be the add chain bit for bit.
fn killed_mid_aggregation_resumes_bit_identically(seed: u64, policy: Option<PackingPolicy>) {
    let n = 12;
    let (replay, reference) = recorded_registration(n, seed, policy);
    for (shards, cut) in [1usize, 3, 4]
        .into_iter()
        .flat_map(|s| [1, 2, 7, n - 1].map(|cut| (s, cut)))
    {
        let what = format!("shards {shards} cut {cut}");
        let mut live = ShardedCoordinator::new(n, shards);
        if let Some(policy) = policy {
            live = live.with_packing(policy);
        }
        for e in replay.iter().take(1 + cut) {
            Coordinator::deliver(&mut live, e.clone()).unwrap();
        }
        let bytes = live.snapshot().unwrap();
        drop(live);

        let mut resumed = ShardedCoordinator::restore(&bytes).unwrap();
        assert_eq!(resumed.shards(), shards);
        assert_eq!(
            resumed.packing(),
            policy.as_ref(),
            "{what}: policy survives"
        );
        let mut broadcast = Vec::new();
        for e in replay.iter().skip(1 + cut) {
            broadcast = Coordinator::deliver(&mut resumed, e.clone()).unwrap();
        }
        let total = resumed.encrypted_total().expect("epoch complete");
        assert_is_chain(&total, &reference, &what);
        let lanes = resumed.packed_encrypted_total().map(|total| total.count());
        assert_eq!(lanes, policy.map(|_| 56), "{what}");
        assert_eq!(broadcast.len(), n + 1, "{what}: completion must broadcast");
        assert_broadcast_is_chain(&broadcast, policy.is_some(), &reference, &what);
    }
}

#[test]
fn sharded_coordinator_killed_mid_aggregation_resumes_bit_identically() {
    killed_mid_aggregation_resumes_bit_identically(121, None);
}

#[test]
fn sharded_coordinator_killed_mid_packed_aggregation_resumes_bit_identically() {
    // Length-56 registries at 7 lanes per 256-bit plaintext are 8
    // ciphertexts, which 3 shards do NOT divide evenly — ranges of 3/3/2
    // ciphertexts, i.e. 21/21/14 lanes — so a crash straddles both a shard
    // boundary and a plaintext boundary. The restored partition, lane count
    // and every shard fold must line back up, and the restored coordinator
    // must still know its slot layout (the snapshot carries the policy, and
    // restore cross-validates the lane count against it).
    let policy = PackingPolicy::new(32, KEY_BITS, 12).unwrap();
    assert_eq!(recorded_registration(12, 321, Some(policy)).1.len(), 8);
    killed_mid_aggregation_resumes_bit_identically(321, Some(policy));
}

#[test]
fn corrupt_coordinator_snapshots_are_typed_errors() {
    // The reproducer: epoch 0, registration open, shards `u32::MAX`, an
    // empty cohort, three zero counters, three zero flags. The shard count
    // used to reach `Vec::with_capacity` unchecked and abort the process;
    // every shard costs at least its one flag byte, so a count past the
    // payload is refused before anything is allocated.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&0u64.to_be_bytes()); // epoch
    hostile.push(0); // registration_closed
    hostile.extend_from_slice(&u32::MAX.to_be_bytes()); // shards
    hostile.extend_from_slice(&0u32.to_be_bytes()); // cohort
    hostile.extend_from_slice(&[0; 24]); // registrations, bytes, messages
    hostile.extend_from_slice(&[0; 3]); // no key, no policy, no partition
    match ShardedCoordinator::restore(&hostile) {
        Err(ProtocolError::MalformedFrame { detail }) => {
            assert!(detail.contains("shard count"), "{detail}")
        }
        other => panic!("expected MalformedFrame, got {other:?}"),
    }
    // The same header with an honest count restores.
    hostile[9..13].copy_from_slice(&4u32.to_be_bytes());
    hostile.extend_from_slice(&[0; 4]); // four empty shard folds
    assert_eq!(ShardedCoordinator::restore(&hostile).unwrap().shards(), 4);

    // Every strict prefix of a valid four-shard snapshot — element-wise and
    // packed, mid-fold — is a typed error, never a panic or a hang.
    let n = 6;
    let policy = PackingPolicy::new(32, KEY_BITS, n as u64).unwrap();
    for policy in [None, Some(policy)] {
        let (replay, _) = recorded_registration(n, 331, policy);
        let mut live = ShardedCoordinator::new(n, 4);
        if let Some(policy) = policy {
            live = live.with_packing(policy);
        }
        for e in replay.iter().take(1 + 3) {
            Coordinator::deliver(&mut live, e.clone()).unwrap();
        }
        let bytes = live.snapshot().unwrap();
        assert_eq!(ShardedCoordinator::restore(&bytes).unwrap().shards(), 4);
        for len in 0..bytes.len() {
            assert!(
                ShardedCoordinator::restore(&bytes[..len]).is_err(),
                "packed {}: a {len}-byte prefix of {} restored",
                policy.is_some(),
                bytes.len()
            );
        }
    }
}

#[test]
fn straggler_deadline_closes_partial_rounds_instead_of_hanging() {
    let n = 4;
    let packed = PackingPolicy::new(32, KEY_BITS, n as u64).unwrap();
    for (policy, shards) in [(None, 1), (None, 4), (Some(packed), 1), (Some(packed), 4)] {
        let what = format!("packed {}, shards {shards}", policy.is_some());
        let (replay, _) = recorded_registration(n, 131, policy);
        let coordinator = || match policy {
            None => ShardedCoordinator::new(n, shards),
            Some(policy) => ShardedCoordinator::new(n, shards).with_packing(policy),
        };

        // A zero deadline expires immediately: as soon as one registry is
        // in, close_expired folds whatever arrived.
        let mut server = coordinator().with_straggler_deadline(Duration::ZERO);
        for e in replay.iter().take(1 + 2) {
            Coordinator::deliver(&mut server, e.clone()).unwrap();
        }
        let partial_chain = add_chain(replay[1..3].iter().map(|e| match &e.msg {
            ProtocolMsg::EncryptedRegistry { registry, .. } => registry,
            ProtocolMsg::PackedRegistry { registry, .. } => registry.vector(),
            other => panic!("{what}: {:?} in the replay", other.kind()),
        }));
        let envelopes = server.close_expired().unwrap();
        // An expired registration broadcasts its partial total — in the
        // representation it was folded in — to the two contributors (in id
        // order) and the agent, and to nobody else.
        let mut expected: Vec<Party> = replay[1..3].iter().map(|e| e.from).collect();
        expected.sort_by_key(|party| match party {
            Party::Client(id) => *id,
            other => panic!("{what}: a registry from {other:?}"),
        });
        expected.push(Party::Agent);
        let addressees: Vec<Party> = envelopes.iter().map(|e| e.to).collect();
        assert_eq!(addressees, expected, "{what}");
        assert_broadcast_is_chain(&envelopes, policy.is_some(), &partial_chain, &what);
        let outcome = *server.cohort_outcomes().last().expect("recorded");
        assert_eq!(outcome.expected, n, "{what}");
        assert_eq!(outcome.contributed, 2, "{what}");
        assert!(outcome.partial, "{what}");
        assert_eq!(outcome.try_index, None, "{what}");

        // A straggler arriving after the close is a typed error, not
        // corruption.
        match Coordinator::deliver(&mut server, replay[3].clone()) {
            Err(ProtocolError::EpochComplete { .. }) => {}
            other => panic!("{what}: expected EpochComplete after partial close, got {other:?}"),
        }

        // An expired try nobody contributed to is abandoned — recorded, no
        // envelope, no hang.
        server.announce_try(7, &[0, 1]);
        let envelopes = server.close_expired().unwrap();
        assert!(envelopes.is_empty(), "{what}");
        let outcome = *server.cohort_outcomes().last().expect("recorded");
        assert_eq!(outcome.try_index, Some(7), "{what}");
        assert_eq!(outcome.contributed, 0, "{what}");
        assert!(outcome.partial, "{what}");
        assert_eq!(server.cohort_outcomes().len(), 2, "{what}");

        // Without a deadline, close_expired is a no-op (nothing ever
        // "expires").
        let mut patient = coordinator();
        for e in replay.iter().take(1 + 2) {
            Coordinator::deliver(&mut patient, e.clone()).unwrap();
        }
        assert!(patient.close_expired().unwrap().is_empty(), "{what}");
    }
}

#[test]
fn dropout_partial_fold_feeds_the_agent_a_normalized_sum() {
    let dists = clients(10, 141);
    let mut config = DubheConfig::group1();
    config.k = 5;
    let mut rng = rand::rngs::StdRng::seed_from_u64(142);
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(10, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let mut selector = DubheSelector::new(&dists, config);
    run.agent.expect_tries(1);
    let tentative = selector.select(&mut rng);
    assert!(tentative.len() >= 2, "need a survivor besides the dropout");
    let dropped = vec![tentative[0]];

    run_try_with_dropouts(
        0,
        &tentative,
        &dropped,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap();

    // The round closed on the partial cohort and the agent still scored it.
    let (best_try, distance) = run.agent.verdict().expect("verdict on partial cohort");
    assert_eq!(best_try, 0);
    assert!(distance.is_finite());
    let outcome = *run.server.cohort_outcomes().last().expect("recorded");
    assert_eq!(outcome.try_index, Some(0));
    assert_eq!(outcome.expected, tentative.len());
    assert_eq!(outcome.contributed, tentative.len() - 1);
    assert!(outcome.partial);

    // The agent's population estimate is normalized by the *actual*
    // contributor count: a probability distribution, not a scaled one.
    let outcome = &run.agent.try_outcomes()[0];
    let mass: f64 = outcome.population.iter().sum();
    assert!((mass - 1.0).abs() < 1e-6, "population mass {mass}");

    // Dropping *every* participant abandons the try with a typed error.
    run.agent.expect_tries(1);
    let all = tentative.clone();
    let err = run_try_with_dropouts(
        1,
        &tentative,
        &all,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap_err();
    match err {
        dubhe_select::SelectError::Protocol(ProtocolError::NothingToClose { what }) => {
            assert_eq!(what, "try");
        }
        other => panic!("expected NothingToClose, got {other:?}"),
    }
}
