//! Integration tests for the role-separated protocol:
//!
//! * **Threat model** — a full registration + multi-time epoch is walked
//!   through the actors over a recording transport, and the transcript is
//!   audited: the server never receives a private key or anything but
//!   ciphertexts, and the server role structurally cannot hold either.
//! * **Serde** — every [`ProtocolMsg`] variant round-trips through JSON.
//! * **Equivalence** — the actor-driven registration driver and
//!   `secure_multi_time_select` produce bit-identical results (ciphertexts
//!   included) to a straight-line reimplementation of the pre-actor code on
//!   the same seed, including participation probabilities and byte totals.

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::transport::ciphertext_size_bytes;
use dubhe_he::{sum_vectors, EncryptedVector, FixedPointCodec, Keypair, PrecomputedEncryptor};
use dubhe_select::participation_probability;
use dubhe_select::protocol::{
    run_registration, run_try, InMemoryTransport, MsgKind, Party, ProtocolMsg, ShardedCoordinator,
};
use dubhe_select::registry::register_all_encrypted;
use dubhe_select::{secure_multi_time_select, ClientSelector, DubheConfig, DubheSelector};
use rand::{Rng, SeedableRng};

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

/// Walks a complete epoch — registration plus an H=3 multi-time round —
/// and audits the transcript against the honest-but-curious threat model.
#[test]
fn full_epoch_never_shows_the_server_secrets() {
    let dists = clients(12, 41);
    let config = DubheConfig {
        k: 5,
        ..DubheConfig::group1()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut transport = InMemoryTransport::recording();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(dists.len(), 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    // Multi-time round through the same actors.
    let mut selector = DubheSelector::new(&dists, config.clone());
    run.agent.expect_tries(3);
    for try_index in 0..3 {
        let tentative = selector.select(&mut rng);
        run_try(
            try_index,
            &tentative,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        )
        .unwrap();
    }
    assert!(run.agent.verdict().is_some(), "epoch must reach a verdict");

    // 1. The server role's API exposes nothing but the public key and
    //    ciphertext folds; its struct has no private-key field to begin
    //    with, so the following is the *observable* half of the guarantee.
    assert!(run.server.public_key().is_some());

    // 2. Transcript audit: everything addressed to the server is either the
    //    public-key-only dispatch, a ciphertext payload, or the verdict.
    let mut server_kinds = Vec::new();
    for env in transport.transcript() {
        if env.to != Party::Server {
            continue;
        }
        server_kinds.push(env.msg.kind());
        match &env.msg {
            ProtocolMsg::PublicKeyDispatch { private_key, .. } => {
                assert!(
                    private_key.is_none(),
                    "a private key was addressed to the server"
                );
            }
            ProtocolMsg::EncryptedRegistry { registry, .. } => {
                // One-hot plaintexts are 0/1; every wire element is a
                // full-width ciphertext instead.
                for ct in registry.elements() {
                    assert!(ct.byte_len() > 8);
                }
            }
            ProtocolMsg::EncryptedDistribution { distribution, .. } => {
                for ct in distribution.elements() {
                    assert!(ct.byte_len() > 8);
                }
            }
            ProtocolMsg::TryVerdict { .. } => {}
            other => panic!("threat-model violation: server got {:?}", other.kind()),
        }
    }
    assert_eq!(
        server_kinds
            .iter()
            .filter(|k| **k == MsgKind::Registry)
            .count(),
        12
    );
    assert_eq!(
        server_kinds
            .iter()
            .filter(|k| **k == MsgKind::Distribution)
            .count(),
        3 * 5
    );

    // 3. Private keys travel only agent → client.
    for env in transport.transcript() {
        if let ProtocolMsg::PublicKeyDispatch {
            private_key: Some(_),
            ..
        } = &env.msg
        {
            assert_eq!(env.from, Party::Agent);
            assert!(matches!(env.to, Party::Client(_)));
        }
    }

    // 4. And no plaintext registry ever equals what crossed the wire: the
    //    decrypted total exists only on key-holding parties.
    let overall = run.overall_registry().unwrap();
    assert_eq!(overall.iter().sum::<u64>(), 12);
}

#[test]
fn the_server_rejects_a_smuggled_private_key() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut server = dubhe_select::ShardedCoordinator::new(1, 1);
    let err = server
        .handle(ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: Some(kp.private.clone()),
        })
        .unwrap_err();
    assert_eq!(err, dubhe_select::ProtocolError::PrivateKeyAtServer);
    assert!(
        server.public_key().is_none(),
        "the dispatch must be refused"
    );
}

/// Every `ProtocolMsg` variant survives a JSON round trip.
#[test]
fn protocol_messages_round_trip_through_serde() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let vector = EncryptedVector::encrypt_u64(&kp.public, &[0, 1, 0, 2], &mut rng);

    let messages = vec![
        ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: None,
        },
        ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: Some(kp.private.clone()),
        },
        ProtocolMsg::EncryptedRegistry {
            client: 7,
            registry: vector.clone(),
        },
        ProtocolMsg::EncryptedTotalBroadcast {
            total: vector.clone(),
        },
        ProtocolMsg::EncryptedDistribution {
            client: 3,
            try_index: 2,
            distribution: vector.clone(),
        },
        ProtocolMsg::EncryptedDistributionSum {
            try_index: 2,
            contributors: 5,
            sum: vector.clone(),
        },
        ProtocolMsg::TryVerdict {
            best_try: 1,
            distance: 0.25,
        },
    ];
    for msg in messages {
        let json = serde_json::to_string(&msg).unwrap();
        let back: ProtocolMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg, "round trip changed {:?}", msg.kind());
        assert_eq!(back.wire_bytes(), msg.wire_bytes());
    }

    // A decryptable payload stays decryptable after the round trip.
    let json =
        serde_json::to_string(&ProtocolMsg::EncryptedTotalBroadcast { total: vector }).unwrap();
    let back: ProtocolMsg = serde_json::from_str(&json).unwrap();
    if let ProtocolMsg::EncryptedTotalBroadcast { total } = back {
        assert_eq!(total.decrypt_u64(&kp.private).unwrap(), vec![0, 1, 0, 2]);
    } else {
        panic!("wrong variant");
    }
}

/// Straight-line reimplementation of the pre-actor `secure_registration`
/// (agent draw, keygen, shared fast encryptor, per-client encrypt in id
/// order, one homomorphic sum, decrypt) used as the equivalence oracle.
struct LegacyRegistration {
    agent: usize,
    overall: Vec<u64>,
    total: EncryptedVector,
    uplink_ciphertext_bytes: usize,
    positions: Vec<usize>,
}

fn legacy_registration<R: Rng>(
    dists: &[ClassDistribution],
    config: &DubheConfig,
    rng: &mut R,
) -> LegacyRegistration {
    let layout = config.validate();
    let thresholds = config.effective_thresholds();
    let agent = rng.gen_range(0..dists.len());
    let keypair = Keypair::generate(KEY_BITS, rng);
    let (public_key, private_key) = keypair.split();
    let encryptor = PrecomputedEncryptor::new(&public_key, rng);
    let (registrations, encrypted) =
        register_all_encrypted(dists, &layout, &thresholds, &encryptor, rng);
    let total = sum_vectors(&encrypted).unwrap().unwrap();
    let overall = total.decrypt_u64(&private_key).unwrap();
    LegacyRegistration {
        agent,
        overall,
        total,
        uplink_ciphertext_bytes: encrypted.len()
            * layout.len()
            * ciphertext_size_bytes(&public_key),
        positions: registrations.iter().map(|r| r.position).collect(),
    }
}

/// The actor-driven registration is bit-identical to the legacy straight-line
/// path on the same seed: same agent, same ciphertext total, same decrypted
/// registry, same probabilities, same uplink byte total.
#[test]
fn actor_registration_is_bit_identical_to_the_legacy_path() {
    for seed in 0..4u64 {
        let dists = clients(10 + seed as usize * 3, 100 + seed);
        let config = DubheConfig::group1();

        let legacy = legacy_registration(
            &dists,
            &config,
            &mut rand::rngs::StdRng::seed_from_u64(500 + seed),
        );
        let mut transport = InMemoryTransport::new();
        let run = run_registration(
            &dists,
            &config,
            KEY_BITS,
            None,
            ShardedCoordinator::new(dists.len(), 1),
            &mut transport,
            &mut rand::rngs::StdRng::seed_from_u64(500 + seed),
        )
        .unwrap();
        let overall = run.overall_registry().unwrap();

        assert_eq!(run.agent_id, legacy.agent, "seed {seed}: agent draw");
        assert_eq!(overall, legacy.overall, "seed {seed}");
        assert_eq!(
            transport.stats().uplink_registry_ciphertext_bytes,
            legacy.uplink_ciphertext_bytes,
            "seed {seed}: uplink byte totals"
        );
        // The ciphertexts themselves are bit-identical: the server's running
        // fold equals the legacy sum_vectors result element by element.
        let total = run.server.encrypted_total().unwrap();
        assert_eq!(total.len(), legacy.total.len());
        for (a, b) in total.elements().iter().zip(legacy.total.elements()) {
            assert_eq!(a.raw(), b.raw(), "seed {seed}: fold diverged");
        }
        // Bit-identical participation probabilities (exact f64 equality).
        for (reg, &pos) in run.registrations().unwrap().iter().zip(&legacy.positions) {
            assert_eq!(reg.position, pos);
            let p_new = participation_probability(overall, reg.position, config.k);
            let p_old = participation_probability(&legacy.overall, pos, config.k);
            assert!(p_new == p_old, "seed {seed}: probability drifted");
        }
    }
}

/// Straight-line reimplementation of the pre-actor secure multi-time loop.
fn legacy_multi_time<R: Rng>(
    dists: &[ClassDistribution],
    config: &DubheConfig,
    h: usize,
    rng: &mut R,
) -> (Vec<usize>, usize, Vec<f64>, usize) {
    let keypair = Keypair::generate(KEY_BITS, rng);
    let (public_key, private_key) = keypair.split();
    let codec = FixedPointCodec::default();
    let classes = dists[0].classes();
    let mut selector = DubheSelector::new(dists, config.clone());

    let mut tries = Vec::new();
    let mut distances = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..h {
        let selected = selector.select(rng);
        let encryptor = PrecomputedEncryptor::new(&public_key, rng);
        let mut encrypted = Vec::with_capacity(selected.len());
        for &id in &selected {
            let scaled = codec.encode_vec(&dists[id].proportions());
            encrypted.push(EncryptedVector::encrypt_u64_with(&encryptor, &scaled, rng));
            bytes += classes * ciphertext_size_bytes(&public_key);
        }
        let sum = sum_vectors(&encrypted).unwrap().unwrap();
        let decrypted = sum.decrypt_u64(&private_key).unwrap();
        let population = codec.decode_average(&decrypted, selected.len());
        let p_u = vec![1.0 / classes as f64; classes];
        distances.push(dubhe_data::l1_distance(&population, &p_u));
        tries.push(selected);
    }
    let best = distances
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    (tries[best].clone(), best, distances, bytes)
}

/// The actor-driven multi-time wrapper reproduces the legacy loop exactly:
/// same tentative draws, same decrypted distances, same winner, same bytes.
#[test]
fn actor_multi_time_is_bit_identical_to_the_legacy_path() {
    for seed in 0..3u64 {
        let dists = clients(30, 200 + seed);
        let config = DubheConfig {
            k: 8,
            ..DubheConfig::group1()
        };
        let h = 4;

        let (legacy_selected, legacy_best, legacy_distances, legacy_bytes) = legacy_multi_time(
            &dists,
            &config,
            h,
            &mut rand::rngs::StdRng::seed_from_u64(900 + seed),
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + seed);
        let keypair = Keypair::generate(KEY_BITS, &mut rng);
        let (pk, sk) = keypair.split();
        let mut selector = DubheSelector::new(&dists, config.clone());
        let secure =
            secure_multi_time_select(&mut selector, &dists, h, &pk, &sk, &mut rng).unwrap();

        assert_eq!(secure.best_try, legacy_best, "seed {seed}");
        assert_eq!(secure.selected, legacy_selected, "seed {seed}");
        assert_eq!(secure.ciphertext_bytes, legacy_bytes, "seed {seed}");
        assert_eq!(secure.tries.len(), legacy_distances.len());
        for (t, d) in secure.tries.iter().zip(&legacy_distances) {
            assert!(
                t.distance_to_uniform == *d,
                "seed {seed}: decrypted distance drifted ({} vs {d})",
                t.distance_to_uniform
            );
        }
    }
}

/// The coordinator rejects duplicate, unknown and late contributions — the
/// uploads a retrying networked transport could replay — instead of silently
/// folding them into the homomorphic sums.
#[test]
fn the_server_rejects_replayed_and_unknown_contributions() {
    use dubhe_select::{ProtocolError, ShardedCoordinator};

    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let registry =
        |rng: &mut rand::rngs::StdRng| EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0], rng);

    // Registration: one upload per known client, none after the broadcast.
    let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), 2, 1);
    server
        .handle(ProtocolMsg::EncryptedRegistry {
            client: 0,
            registry: registry(&mut rng),
        })
        .unwrap();
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedRegistry {
                client: 0,
                registry: registry(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::DuplicateContribution {
            client: 0,
            try_index: None
        }
    );
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedRegistry {
                client: 9,
                registry: registry(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::UnknownContributor {
            client: 9,
            try_index: None
        }
    );
    let broadcast = server
        .handle(ProtocolMsg::EncryptedRegistry {
            client: 1,
            registry: registry(&mut rng),
        })
        .unwrap();
    assert!(!broadcast.is_empty(), "second upload completes the epoch");
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedRegistry {
                client: 1,
                registry: registry(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::EpochComplete { client: 1 }
    );
    // The corrupted uploads never reached the fold: it still decrypts to
    // exactly two registrations.
    let total = server.encrypted_total().unwrap();
    assert_eq!(total.decrypt_u64(&kp.private).unwrap(), vec![2, 0, 0]);

    // Multi-time: only announced participants, once each.
    server.announce_try(0, &[3, 5]);
    let dist =
        |rng: &mut rand::rngs::StdRng| EncryptedVector::encrypt_u64(&kp.public, &[7, 7, 7], rng);
    server
        .handle(ProtocolMsg::EncryptedDistribution {
            client: 5,
            try_index: 0,
            distribution: dist(&mut rng),
        })
        .unwrap();
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedDistribution {
                client: 5,
                try_index: 0,
                distribution: dist(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::DuplicateContribution {
            client: 5,
            try_index: Some(0)
        }
    );
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedDistribution {
                client: 4,
                try_index: 0,
                distribution: dist(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::UnknownContributor {
            client: 4,
            try_index: Some(0)
        }
    );
    assert_eq!(
        server
            .handle(ProtocolMsg::EncryptedDistribution {
                client: 3,
                try_index: 7,
                distribution: dist(&mut rng),
            })
            .unwrap_err(),
        ProtocolError::UnknownTry { try_index: 7 }
    );
    let sum = server
        .handle(ProtocolMsg::EncryptedDistribution {
            client: 3,
            try_index: 0,
            distribution: dist(&mut rng),
        })
        .unwrap();
    assert_eq!(sum.len(), 1, "the completed try goes to the agent");
}
