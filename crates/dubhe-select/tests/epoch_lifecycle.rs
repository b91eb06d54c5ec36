//! End-to-end pins for the epoch lifecycle: key rotation with cohort
//! re-registration (in memory and over TCP), stale/future frame rejection,
//! coordinator crash recovery from a snapshot (single and sharded), the
//! straggler deadline, and dropout-driven partial-cohort folds.
//!
//! The acceptance bar: a coordinator killed mid-aggregation and restored
//! from its snapshot must finish on a total *bit-identical* to the
//! uninterrupted run, and a round with injected churn must always close —
//! explicitly partial — instead of hanging.

use std::time::Duration;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_net::ReactorListener;
use dubhe_select::protocol::{
    pump, run_registration_with, run_registration_with_packing, run_try, run_try_with_dropouts,
    Coordinator, CoordinatorServer, Envelope, InMemoryTransport, PackingPolicy, Party, ProtocolMsg,
    ShardedCoordinator, TcpTransport, Transport,
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
    let mut run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        CoordinatorServer::new(12),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let overall_epoch0 = run.overall_registry().to_vec();
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
    assert_eq!(run.overall_registry(), &overall_epoch0[..]);
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
    let endpoint = TcpTransport::connect(listener.addr()).unwrap();
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        endpoint,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let overall_epoch0 = run.overall_registry().to_vec();

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
    assert_eq!(run.overall_registry(), &overall_epoch0[..]);

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
    let mut run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        CoordinatorServer::new(3),
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

/// Drives one full registration on a recording transport and returns the
/// envelopes it carried (key dispatch first, then every registry upload)
/// plus the uninterrupted coordinator's final total for comparison.
fn recorded_registration(n: usize, seed: u64) -> (Vec<Envelope>, dubhe_he::EncryptedVector) {
    let dists = clients(n, seed);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
    let mut transport = InMemoryTransport::recording();
    let run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        CoordinatorServer::new(n),
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let total = run.server.encrypted_total().expect("epoch complete");
    let replay: Vec<Envelope> = transport
        .transcript()
        .iter()
        .filter(|e| {
            matches!(
                e.msg,
                ProtocolMsg::PublicKeyDispatch { .. } | ProtocolMsg::EncryptedRegistry { .. }
            ) && e.to == Party::Server
        })
        .cloned()
        .collect();
    (replay, total)
}

#[test]
fn coordinator_killed_mid_aggregation_resumes_bit_identically() {
    let n = 10;
    let (replay, reference) = recorded_registration(n, 111);
    // replay[0] is the server's key dispatch; the rest are registries.
    assert_eq!(replay.len(), n + 1);

    for cut in [1usize, 4, 9] {
        let mut live = CoordinatorServer::new(n);
        for e in replay.iter().take(1 + cut) {
            Coordinator::deliver(&mut live, e.clone()).unwrap();
        }
        // Kill the coordinator mid-aggregation; all that survives is the
        // snapshot bytes.
        let bytes = live.snapshot().unwrap();
        drop(live);

        let mut resumed = CoordinatorServer::restore(&bytes).unwrap();
        let mut broadcast = Vec::new();
        for e in replay.iter().skip(1 + cut) {
            broadcast = Coordinator::deliver(&mut resumed, e.clone()).unwrap();
        }
        let total = resumed.encrypted_total().expect("epoch complete");
        assert_eq!(total.len(), reference.len());
        for (a, b) in total.elements().iter().zip(reference.elements()) {
            assert_eq!(a.raw(), b.raw(), "cut {cut}: resumed fold diverged");
        }
        // The broadcast the resumed coordinator emits carries that exact
        // bit-identical total.
        assert!(
            !broadcast.is_empty(),
            "cut {cut}: completion must broadcast"
        );
    }
}

#[test]
fn sharded_coordinator_killed_mid_aggregation_resumes_bit_identically() {
    let n = 12;
    let (replay, reference) = recorded_registration(n, 121);

    for shards in [1usize, 3, 4] {
        for cut in [2usize, 7] {
            let mut live = ShardedCoordinator::new(n, shards);
            for e in replay.iter().take(1 + cut) {
                Coordinator::deliver(&mut live, e.clone()).unwrap();
            }
            let bytes = live.snapshot().unwrap();
            drop(live);

            let mut resumed = ShardedCoordinator::restore(&bytes).unwrap();
            assert_eq!(resumed.shards(), shards);
            for e in replay.iter().skip(1 + cut) {
                Coordinator::deliver(&mut resumed, e.clone()).unwrap();
            }
            let total = resumed.encrypted_total().expect("epoch complete");
            for (a, b) in total.elements().iter().zip(reference.elements()) {
                assert_eq!(
                    a.raw(),
                    b.raw(),
                    "shards {shards} cut {cut}: resumed fold diverged"
                );
            }
        }
    }
}

/// The packed twin of [`recorded_registration`]: the same full registration
/// driven under a 32-bit [`PackingPolicy`], returning the server-bound
/// envelopes and the uninterrupted packed total.
fn recorded_packed_registration(
    n: usize,
    seed: u64,
    policy: PackingPolicy,
) -> (Vec<Envelope>, dubhe_he::PackedEncryptedVector) {
    let dists = clients(n, seed);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
    let mut transport = InMemoryTransport::recording();
    let run = run_registration_with_packing(
        &dists,
        &config,
        KEY_BITS,
        policy,
        CoordinatorServer::new(n).with_packing(policy),
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let total = run.server.packed_encrypted_total().expect("epoch complete");
    let replay: Vec<Envelope> = transport
        .transcript()
        .iter()
        .filter(|e| {
            matches!(
                e.msg,
                ProtocolMsg::PublicKeyDispatch { .. } | ProtocolMsg::PackedRegistry { .. }
            ) && e.to == Party::Server
        })
        .cloned()
        .collect();
    (replay, total)
}

#[test]
fn coordinator_killed_mid_packed_aggregation_resumes_bit_identically() {
    // The packed crash-recovery pin: kill the coordinator between packed
    // uploads (including right after the seeding upload and one short of
    // completion), restore it from the snapshot bytes alone, and finish.
    // The resumed packed total must be bit-identical, ciphertext for
    // ciphertext, to the uninterrupted fold — and the restored coordinator
    // must still know its slot layout (the snapshot carries the policy, and
    // restore cross-validates fold against policy).
    let n = 10;
    let policy = PackingPolicy::new(32, KEY_BITS, n as u64).unwrap();
    let (replay, reference) = recorded_packed_registration(n, 311, policy);
    assert_eq!(replay.len(), n + 1);
    // Length-56 registries at 7 lanes per 256-bit plaintext: 8 ciphertexts.
    assert_eq!(reference.ciphertext_count(), 8);

    for cut in [1usize, 4, 9] {
        let mut live = CoordinatorServer::new(n).with_packing(policy);
        for e in replay.iter().take(1 + cut) {
            Coordinator::deliver(&mut live, e.clone()).unwrap();
        }
        let bytes = live.snapshot().unwrap();
        drop(live);

        let mut resumed = CoordinatorServer::restore(&bytes).unwrap();
        assert_eq!(
            resumed.packing(),
            Some(&policy),
            "policy survives the crash"
        );
        let mut broadcast = Vec::new();
        for e in replay.iter().skip(1 + cut) {
            broadcast = Coordinator::deliver(&mut resumed, e.clone()).unwrap();
        }
        let total = resumed.packed_encrypted_total().expect("epoch complete");
        assert_eq!(total.count(), reference.count());
        for (a, b) in total
            .vector()
            .elements()
            .iter()
            .zip(reference.vector().elements())
        {
            assert_eq!(a.raw(), b.raw(), "cut {cut}: resumed packed fold diverged");
        }
        assert!(
            broadcast
                .iter()
                .any(|e| matches!(e.msg, ProtocolMsg::PackedTotalBroadcast { .. })),
            "cut {cut}: completion must broadcast the packed total"
        );
    }
}

#[test]
fn sharded_coordinator_killed_mid_packed_aggregation_resumes_bit_identically() {
    // Same pin against the sharded coordinator, with shard counts that do
    // NOT divide the 8-ciphertext layout evenly — the shard boundaries land
    // mid-vector between plaintexts (3 shards -> ranges of 3/3/2
    // ciphertexts, i.e. 21/21/14 lanes), so a crash straddles both a shard
    // boundary and a plaintext boundary. The restored partition, lane count
    // and every shard fold must line back up bit-identically.
    let n = 12;
    let policy = PackingPolicy::new(32, KEY_BITS, n as u64).unwrap();
    let (replay, reference) = recorded_packed_registration(n, 321, policy);

    for shards in [1usize, 3, 4] {
        for cut in [2usize, 7, 11] {
            let mut live = ShardedCoordinator::new(n, shards).with_packing(policy);
            for e in replay.iter().take(1 + cut) {
                Coordinator::deliver(&mut live, e.clone()).unwrap();
            }
            let bytes = live.snapshot().unwrap();
            drop(live);

            let mut resumed = ShardedCoordinator::restore(&bytes).unwrap();
            assert_eq!(resumed.shards(), shards);
            assert_eq!(resumed.packing(), Some(&policy));
            for e in replay.iter().skip(1 + cut) {
                Coordinator::deliver(&mut resumed, e.clone()).unwrap();
            }
            let total = resumed.packed_encrypted_total().expect("epoch complete");
            for (a, b) in total
                .vector()
                .elements()
                .iter()
                .zip(reference.vector().elements())
            {
                assert_eq!(
                    a.raw(),
                    b.raw(),
                    "shards {shards} cut {cut}: resumed packed fold diverged"
                );
            }
        }
    }
}

#[test]
fn straggler_deadline_closes_partial_rounds_instead_of_hanging() {
    let n = 4;
    let (replay, _) = recorded_registration(n, 131);

    // A zero deadline expires immediately: as soon as one registry is in,
    // close_expired folds whatever arrived.
    let mut server = CoordinatorServer::new(n).with_straggler_deadline(Duration::ZERO);
    for e in replay.iter().take(1 + 2) {
        Coordinator::deliver(&mut server, e.clone()).unwrap();
    }
    let envelopes = server.close_expired().unwrap();
    assert!(
        envelopes
            .iter()
            .any(|e| matches!(e.msg, ProtocolMsg::EncryptedTotalBroadcast { .. })),
        "an expired registration must broadcast its partial total"
    );
    let outcome = *server.cohort_outcomes().last().expect("recorded");
    assert_eq!(outcome.expected, n);
    assert_eq!(outcome.contributed, 2);
    assert!(outcome.partial);
    assert_eq!(outcome.try_index, None);

    // A straggler arriving after the close is a typed error, not corruption.
    match Coordinator::deliver(&mut server, replay[3].clone()) {
        Err(ProtocolError::EpochComplete { .. }) => {}
        other => panic!("expected EpochComplete after partial close, got {other:?}"),
    }

    // An expired try nobody contributed to is abandoned — recorded, no
    // envelope, no hang.
    server.announce_try(7, &[0, 1]);
    let envelopes = server.close_expired().unwrap();
    assert!(envelopes.is_empty());
    let outcome = *server.cohort_outcomes().last().expect("recorded");
    assert_eq!(outcome.try_index, Some(7));
    assert_eq!(outcome.contributed, 0);
    assert!(outcome.partial);

    // Without a deadline, close_expired is a no-op (nothing ever "expires").
    let mut patient = CoordinatorServer::new(n);
    for e in replay.iter().take(1 + 2) {
        Coordinator::deliver(&mut patient, e.clone()).unwrap();
    }
    assert!(patient.close_expired().unwrap().is_empty());
}

#[test]
fn dropout_partial_fold_feeds_the_agent_a_normalized_sum() {
    let dists = clients(10, 141);
    let mut config = DubheConfig::group1();
    config.k = 5;
    let mut rng = rand::rngs::StdRng::seed_from_u64(142);
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        CoordinatorServer::new(10),
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
