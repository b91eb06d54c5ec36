//! The adversarial-client gauntlet: every abuse a hostile or broken peer
//! can throw at a coordinator — malformed registries, replays, stale-epoch
//! frames, garbage bytes, oversized payloads, and a fault-injecting
//! transport — must surface as a typed [`ProtocolError`]. Never a panic,
//! never a hang, never a silently corrupted fold.
//!
//! `docs/THREAT_MODEL.md` maps each of these scenarios to the claim it
//! makes executable.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::packing::Packer;
use dubhe_he::{Ciphertext, EncryptedVector, HeError, Keypair, PackedEncryptedVector};
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    client_handshake, codec, pump, read_channel_frame, read_frame, run_registration, write_frame,
    ChannelFrame, ChannelPolicy, Coordinator, Envelope, InMemoryTransport, NodeIdentity,
    PackingPolicy, Party, ProtocolMsg, RegistryFrame, SecureChannel, SelectClientNode,
    ShardedCoordinator, TcpConfig, TcpTransport, Transport, WireMsg, FRAME_MAGIC_V2,
    MAX_FRAME_BYTES,
};
use dubhe_select::{DubheConfig, ProtocolError, SelectError};
use num_bigint::BigUint;
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

/// The connector config the live-listener tests dial with: a short read
/// timeout so a wedged peer fails the test fast instead of stalling it.
fn quick() -> TcpConfig {
    TcpConfig::default().with_read_timeout(Duration::from_secs(5))
}

fn registry_envelope(client: usize, registry: EncryptedVector) -> Envelope {
    Envelope {
        from: Party::Client(client),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::EncryptedRegistry { client, registry },
    }
}

#[test]
fn malformed_registries_are_typed_errors_not_corruption() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(151);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    // Every shard count runs the same gauntlet: a refused registry must leave
    // each shard's running fold exactly as it was.
    for shards in [1, 4] {
        let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), 4, shards);

        // A well-formed first registry seeds the fold.
        let good = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0, 0, 0, 0], &mut rng);
        Coordinator::deliver(&mut server, registry_envelope(0, good.clone())).unwrap();

        // Wrong length: the shape mismatch is a typed homomorphic error.
        let short = EncryptedVector::encrypt_u64(&kp.public, &[1, 0], &mut rng);
        match Coordinator::deliver(&mut server, registry_envelope(1, short)) {
            Err(ProtocolError::He(dubhe_he::HeError::LengthMismatch { left: 6, right: 2 })) => {}
            other => panic!("expected a length mismatch, got {other:?}"),
        }

        // Wrong key: ciphertexts under a foreign modulus cannot enter the fold.
        let foreign = Keypair::generate(KEY_BITS, &mut rng);
        let alien = EncryptedVector::encrypt_u64(&foreign.public, &[0; 6], &mut rng);
        match Coordinator::deliver(&mut server, registry_envelope(2, alien)) {
            Err(ProtocolError::He(dubhe_he::HeError::KeyMismatch)) => {}
            other => panic!("expected a key mismatch, got {other:?}"),
        }

        // A client id outside the cohort is refused by name.
        match Coordinator::deliver(&mut server, registry_envelope(99, good.clone())) {
            Err(ProtocolError::UnknownContributor {
                client: 99,
                try_index: None,
            }) => {}
            other => panic!("expected UnknownContributor, got {other:?}"),
        }

        // A dispatch smuggling a private key to the server is structurally
        // refused — the coordinator has no field that could even hold it.
        let smuggle = Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: kp.public.clone(),
                private_key: Some(kp.private.clone()),
            },
        };
        match Coordinator::deliver(&mut server, smuggle) {
            Err(ProtocolError::PrivateKeyAtServer) => {}
            other => panic!("expected PrivateKeyAtServer, got {other:?}"),
        }

        // The fold survived the gauntlet untouched: client 0's registry is the
        // only contribution.
        assert_eq!(server.cohort_outcomes().len(), 0);
        for id in 1..4 {
            let v = EncryptedVector::encrypt_u64(&kp.public, &[0, 1, 0, 0, 0, 0], &mut rng);
            Coordinator::deliver(&mut server, registry_envelope(id, v)).unwrap();
        }
        let total = server.encrypted_total().expect("epoch complete");
        assert_eq!(
            total.decrypt_u64(&kp.private).unwrap(),
            vec![1, 3, 0, 0, 0, 0]
        );
    }
}

/// `vector` with element `at` replaced by the residue 0, which no
/// encryption produces and no private key can decrypt.
fn with_zero_at(vector: &EncryptedVector, at: usize) -> EncryptedVector {
    let mut elements = vector.elements().to_vec();
    elements[at] = Ciphertext::from_raw(BigUint::from(0u32), vector.public_key().clone());
    EncryptedVector::from_ciphertexts(vector.public_key(), elements).unwrap()
}

#[test]
fn a_broadcast_total_with_a_zero_element_is_a_typed_error_at_the_client() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(157);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut client = SelectClientNode::without_registration(0, clients(1, 157).remove(0));
    client.install_keys(kp.public.clone(), kp.private.clone());
    let total = EncryptedVector::encrypt_u64(&kp.public, &[4, 1, 0, 2, 0, 3], &mut rng);
    // Short vectors decrypt element by element, longer ones by repacking:
    // both must refuse, wherever the zero sits.
    for (len, at) in [(2, 1), (6, 0), (6, 4), (6, 5)] {
        let total = with_zero_at(&total.slice(0, len).unwrap(), at);
        match client.handle(ProtocolMsg::EncryptedTotalBroadcast { total }, &mut rng) {
            Err(ProtocolError::He(HeError::CiphertextNotInvertible)) => {}
            other => panic!("zero at {at} of {len}: expected a typed refusal, got {other:?}"),
        }
        assert_eq!(client.overall_registry(), None);
    }
    let packer = Packer::new(16, KEY_BITS);
    let packed =
        PackedEncryptedVector::encrypt(packer, &kp.public, &[4, 1, 0, 2], &mut rng).unwrap();
    let total =
        PackedEncryptedVector::from_vector(with_zero_at(packed.vector(), 0), 4, packer).unwrap();
    match client.handle(ProtocolMsg::PackedTotalBroadcast { total }, &mut rng) {
        Err(ProtocolError::He(HeError::CiphertextNotInvertible)) => {}
        other => panic!("packed zero: expected a typed refusal, got {other:?}"),
    }
    assert_eq!(client.overall_registry(), None);
}

#[test]
fn a_zero_residue_in_an_upload_is_refused_without_touching_the_fold() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(167);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    for shards in [1, 4] {
        let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), 3, shards);
        let good = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0, 0, 0, 0], &mut rng);
        Coordinator::deliver(&mut server, registry_envelope(0, good)).unwrap();

        // Client 1's upload with its third residue zeroed on the wire.
        let upload = EncryptedVector::encrypt_u64(&kp.public, &[0, 0, 1, 0, 0, 0], &mut rng);
        let mut payload = codec::encode(&WireMsg::Envelope {
            envelope: registry_envelope(1, upload.clone()),
        })
        .unwrap();
        let width = upload.elements()[0].byte_len();
        let residue = upload.elements()[2].raw().to_bytes_be();
        let mut needle = vec![0u8; width - residue.len()];
        needle.extend(residue);
        let at = payload
            .windows(width)
            .position(|w| w == needle)
            .expect("the residue is in the payload");
        payload[at..at + width].fill(0);

        // Refused by the eager decoder and by the deferred fold alike.
        assert!(
            matches!(
                codec::decode(&payload),
                Err(ProtocolError::MalformedFrame { .. })
            ),
            "eager decode accepted a zero residue"
        );
        let frame = RegistryFrame::try_from_payload(payload).expect("a registry frame");
        match Coordinator::deliver_registry_frame(&mut server, frame) {
            Err(ProtocolError::MalformedFrame { detail }) => {
                assert!(detail.contains("zero"), "{detail}")
            }
            other => panic!("expected a malformed frame, got {other:?}"),
        }

        // The slot stays open for a well-formed retry, and the fold holds
        // exactly the accepted contributions.
        for id in 1..3 {
            let v = EncryptedVector::encrypt_u64(&kp.public, &[0, 0, 1, 0, 0, 0], &mut rng);
            Coordinator::deliver(&mut server, registry_envelope(id, v)).unwrap();
        }
        let total = server.encrypted_total().expect("epoch complete");
        assert_eq!(
            total.decrypt_u64(&kp.private).unwrap(),
            vec![1, 0, 2, 0, 0, 0]
        );
    }
}

#[test]
fn replayed_frames_are_rejected_at_every_stage() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(161);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), 2, 1);

    let v = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0], &mut rng);
    Coordinator::deliver(&mut server, registry_envelope(0, v.clone())).unwrap();

    // Replaying the same registry mid-epoch is a duplicate...
    match Coordinator::deliver(&mut server, registry_envelope(0, v.clone())) {
        Err(ProtocolError::DuplicateContribution {
            client: 0,
            try_index: None,
        }) => {}
        other => panic!("expected DuplicateContribution, got {other:?}"),
    }

    Coordinator::deliver(&mut server, registry_envelope(1, v.clone())).unwrap();
    // ...and replaying after the total was broadcast is a typed straggler
    // rejection.
    match Coordinator::deliver(&mut server, registry_envelope(1, v.clone())) {
        Err(ProtocolError::EpochComplete { client: 1 }) => {}
        other => panic!("expected EpochComplete, got {other:?}"),
    }

    // Same discipline for the multi-time tries.
    server.announce_try(0, &[0, 1]);
    let d = Envelope {
        from: Party::Client(0),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::EncryptedDistribution {
            client: 0,
            try_index: 0,
            distribution: v.clone(),
        },
    };
    Coordinator::deliver(&mut server, d.clone()).unwrap();
    match Coordinator::deliver(&mut server, d) {
        Err(ProtocolError::DuplicateContribution {
            client: 0,
            try_index: Some(0),
        }) => {}
        other => panic!("expected a per-try duplicate rejection, got {other:?}"),
    }
    // A contribution to a try that was never announced is refused too.
    let unannounced = Envelope {
        from: Party::Client(0),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::EncryptedDistribution {
            client: 0,
            try_index: 9,
            distribution: v,
        },
    };
    match Coordinator::deliver(&mut server, unannounced) {
        Err(ProtocolError::UnknownTry { try_index: 9 }) => {}
        other => panic!("expected UnknownTry, got {other:?}"),
    }
}

#[test]
fn stale_epoch_replays_are_refused_after_rotation() {
    let dists = clients(4, 171);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(172);
    let mut transport = InMemoryTransport::recording();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(4, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    // Capture a real epoch-0 registry upload off the wire, then rotate.
    let replayed = transport
        .transcript()
        .iter()
        .find(|e| matches!(e.msg, ProtocolMsg::EncryptedRegistry { .. }))
        .cloned()
        .expect("a registry crossed the transport");
    for e in run.agent.rotate_epoch(4, &mut rng) {
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

    // The replay is a stale frame now — even though it was perfectly valid
    // (and accepted) in the epoch it was recorded in.
    match Coordinator::deliver(&mut run.server, replayed) {
        Err(ProtocolError::StaleEpoch {
            received: 0,
            current: 1,
        }) => {}
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
}

fn packed_registry_envelope(client: usize, registry: PackedEncryptedVector) -> Envelope {
    Envelope {
        from: Party::Client(client),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::PackedRegistry { client, registry },
    }
}

#[test]
fn mismatched_packer_metadata_is_refused_without_corrupting_the_fold() {
    // Client and coordinator disagree about the slot layout (or whether to
    // pack at all): every combination is a typed refusal, and the fold the
    // honest cohort builds afterwards is untouched.
    let mut rng = rand::rngs::StdRng::seed_from_u64(231);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let policy = PackingPolicy::new(32, KEY_BITS, 4).unwrap();
    let mut server =
        ShardedCoordinator::with_public_key(kp.public.clone(), 4, 1).with_packing(policy);

    // A client packing 16-bit lanes against the coordinator's 32-bit policy:
    // folding across layouts would corrupt lanes, so the packer check fires.
    let narrow = Packer::new(16, KEY_BITS);
    let mismatched =
        PackedEncryptedVector::encrypt(narrow, &kp.public, &[1, 0, 0, 0, 0, 0], &mut rng).unwrap();
    match Coordinator::deliver(&mut server, packed_registry_envelope(0, mismatched)) {
        Err(ProtocolError::He(dubhe_he::HeError::PackerMismatch { .. })) => {}
        other => panic!("expected PackerMismatch, got {other:?}"),
    }

    // An element-wise registry at a packed coordinator is a layout
    // disagreement by kind, before any ciphertext is touched.
    let elementwise = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0, 0, 0, 0], &mut rng);
    match Coordinator::deliver(&mut server, registry_envelope(0, elementwise.clone())) {
        Err(ProtocolError::PackingDisagreement {
            role: "server",
            expected_packed: true,
            ..
        }) => {}
        other => panic!("expected PackingDisagreement, got {other:?}"),
    }

    // And a packed registry at a policy-less coordinator is the reverse.
    let mut plain_server = ShardedCoordinator::with_public_key(kp.public.clone(), 4, 1);
    let packed =
        PackedEncryptedVector::encrypt(policy.packer(), &kp.public, &[1, 0, 0, 0, 0, 0], &mut rng)
            .unwrap();
    match Coordinator::deliver(&mut plain_server, packed_registry_envelope(0, packed)) {
        Err(ProtocolError::PackingDisagreement {
            role: "server",
            expected_packed: false,
            ..
        }) => {}
        other => panic!("expected PackingDisagreement, got {other:?}"),
    }

    // The refused attempts burned nothing: the same slots accept the honest
    // uploads and the total decrypts to the full cohort.
    for id in 0..4 {
        let v = PackedEncryptedVector::encrypt(
            policy.packer(),
            &kp.public,
            &[0, 1, 0, 0, 0, 0],
            &mut rng,
        )
        .unwrap();
        Coordinator::deliver(&mut server, packed_registry_envelope(id, v)).unwrap();
    }
    let total = server.packed_encrypted_total().expect("epoch complete");
    assert_eq!(
        total.decrypt_u64(&kp.private).unwrap(),
        vec![0, 4, 0, 0, 0, 0]
    );
}

#[test]
fn packed_frames_replayed_across_epochs_are_stale_after_rotation() {
    // The packed twin of the stale-epoch gauntlet: a perfectly valid packed
    // registry recorded in epoch 0 is a typed stale-frame rejection once the
    // key rotates — packed payloads get the same replay protection as
    // element-wise ones because they share the epoch-stamped envelope.
    let dists = clients(4, 241);
    let config = DubheConfig::group1();
    let policy = PackingPolicy::new(32, KEY_BITS, 4).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(242);
    let mut transport = InMemoryTransport::recording();
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        Some(policy),
        ShardedCoordinator::new(4, 1).with_packing(policy),
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let replayed = transport
        .transcript()
        .iter()
        .find(|e| matches!(e.msg, ProtocolMsg::PackedRegistry { .. }))
        .cloned()
        .expect("a packed registry crossed the transport");
    for e in run.agent.rotate_epoch(4, &mut rng) {
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

    match Coordinator::deliver(&mut run.server, replayed) {
        Err(ProtocolError::StaleEpoch {
            received: 0,
            current: 1,
        }) => {}
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
}

#[test]
fn truncated_packed_dbh2_payloads_do_not_kill_the_listener() {
    // A DBH2 frame whose header-announced length is honest but whose packed
    // payload is internally cut short: the decoder hits the truncation as a
    // typed error, the connection ends, and the listener keeps serving.
    let mut rng = rand::rngs::StdRng::seed_from_u64(251);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let policy = PackingPolicy::new(32, KEY_BITS, 4).unwrap();
    let listener = ReactorListener::spawn(
        ShardedCoordinator::with_public_key(kp.public.clone(), 4, 2).with_packing(policy),
    )
    .unwrap();
    let addr = listener.addr();

    let registry =
        PackedEncryptedVector::encrypt(policy.packer(), &kp.public, &[1, 0, 0, 0, 0, 0], &mut rng)
            .unwrap();
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &WireMsg::Envelope {
            envelope: packed_registry_envelope(0, registry),
        },
    )
    .unwrap();
    // Rebuild the frame with 10 payload bytes chopped off and the length
    // header telling the truth about it — the *encoding* is what's cut.
    let payload = &frame[8..frame.len() - 10];
    let mut hostile = frame[..4].to_vec();
    hostile.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    hostile.extend_from_slice(payload);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&hostile).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Best-effort typed-error reply, then hangup; either way the read ends.
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    drop(stream);

    // The listener survived and a healthy packed session still works.
    let mut client = TcpTransport::connect_with_config(addr, quick()).unwrap();
    for id in 0..4 {
        let v = PackedEncryptedVector::encrypt(
            policy.packer(),
            &kp.public,
            &[0, 1, 0, 0, 0, 0],
            &mut rng,
        )
        .unwrap();
        client.deliver(packed_registry_envelope(id, v)).unwrap();
    }
    client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("listener state");
    let total = coordinator
        .packed_encrypted_total()
        .expect("epoch complete");
    assert_eq!(
        total.decrypt_u64(&kp.private).unwrap(),
        vec![0, 4, 0, 0, 0, 0]
    );
}

/// Drives the deferred-registry recovery exchange against the listener at
/// `addr`: a registry whose ciphertext block is corrupt
/// (but whose prefix is intact, so it takes the zero-copy deferred path)
/// earns a typed Error *without* losing the connection — the fold never saw
/// it and the client's slot is still free — and the same connection then
/// completes the epoch with healthy uploads.
fn corrupt_deferred_registry_then_recover(
    addr: std::net::SocketAddr,
    kp: &Keypair,
    rng: &mut rand::rngs::StdRng,
) {
    let width = (2 * KEY_BITS as usize).div_ceil(8);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let registry = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 2], rng);
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &WireMsg::Envelope {
            envelope: registry_envelope(0, registry),
        },
    )
    .unwrap();
    // Blow the last residue past n² — prefix and framing stay honest.
    let len = frame.len();
    frame[len - width..].fill(0xFF);
    stream.write_all(&frame).unwrap();
    let (reply, _) = read_frame(&mut stream).unwrap();
    assert!(
        matches!(reply, WireMsg::Error { .. }),
        "corrupt block must earn a typed error, got {reply:?}"
    );

    // Same connection, same client id: the slot was not burned, the epoch
    // completes, framing never desynchronised.
    for id in 0..2 {
        let v = EncryptedVector::encrypt_u64(&kp.public, &[id as u64 + 1, 0, 2], rng);
        let mut f = Vec::new();
        write_frame(
            &mut f,
            &WireMsg::Envelope {
                envelope: registry_envelope(id, v),
            },
        )
        .unwrap();
        stream.write_all(&f).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert!(
            matches!(reply, WireMsg::Batch { .. }),
            "healthy upload {id} after the refusal: got {reply:?}"
        );
    }
    let mut f = Vec::new();
    write_frame(&mut f, &WireMsg::Shutdown).unwrap();
    stream.write_all(&f).unwrap();
}

#[test]
fn corrupt_deferred_registries_keep_the_connection() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(271);
    let kp = Keypair::generate(KEY_BITS, &mut rng);

    let reactor =
        ReactorListener::spawn(ShardedCoordinator::with_public_key(kp.public.clone(), 2, 2))
            .unwrap();
    corrupt_deferred_registry_then_recover(reactor.addr(), &kp, &mut rng);
    let coordinator = reactor.shutdown().expect("reactor state");
    let total = coordinator.encrypted_total().expect("epoch complete");
    assert_eq!(total.decrypt_u64(&kp.private).unwrap(), vec![3, 0, 4]);
}

#[test]
fn oversized_frames_are_refused_in_both_directions() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(181);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let big = EncryptedVector::encrypt_u64(&kp.public, &vec![1u64; 64], &mut rng);

    // Server side: a listener capped at 1 KiB refuses a multi-kilobyte
    // registry with a typed error — relayed if the reply gets out before
    // the poisoned connection closes, a clean disconnect otherwise.
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::with_public_key(kp.public.clone(), 4, 1),
        ReactorConfig::default().with_max_frame_bytes(1024),
    )
    .unwrap();
    let mut client = TcpTransport::connect_with_config(listener.addr(), quick()).unwrap();
    let err = client
        .deliver(registry_envelope(0, big.clone()))
        .unwrap_err();
    match &err {
        ProtocolError::Remote { detail } => assert!(detail.contains("frame"), "{detail}"),
        ProtocolError::Disconnected
        | ProtocolError::Io { .. }
        | ProtocolError::TruncatedFrame { .. } => {}
        other => panic!("expected a typed oversize refusal, got {other:?}"),
    }
    drop(client);
    listener.shutdown();

    // Client side: a transport capped below its own payload refuses to send
    // at all — the frame never touches the socket.
    let listener = ReactorListener::spawn(ShardedCoordinator::new(4, 1)).unwrap();
    let mut tiny = TcpTransport::connect_with_config(
        listener.addr(),
        TcpConfig::default().with_max_frame_bytes(256),
    )
    .unwrap();
    match tiny.deliver(registry_envelope(0, big)) {
        Err(ProtocolError::FrameTooLarge { .. }) => {}
        other => panic!("expected FrameTooLarge before sending, got {other:?}"),
    }
    drop(tiny);
    listener.shutdown();
}

// ---------------------------------------------------------------------------
// Fault injection. `Flaky` hurts one send, named by its 0-based index, so a
// test names exactly which protocol step is hit and the run stays
// reproducible. Whatever it does, the roles must answer with a typed error
// or a correct partial result — never a panic, a hang or a corrupted fold.
// ---------------------------------------------------------------------------

/// A delayed envelope is queued after the next send, or when the queue runs
/// dry: a delay postpones, it never loses. A truncation cuts the last
/// ciphertext element off a registry, which length-prefixed framing would
/// not catch.
#[derive(Clone, Copy)]
enum Mishap {
    Drop,
    Duplicate,
    Delay,
    Truncate,
}

struct Flaky {
    inner: InMemoryTransport,
    mishap: Mishap,
    at: usize,
    sends: usize,
    held: Option<Envelope>,
    injected: usize,
}

fn flaky(mishap: Mishap, at: usize) -> Flaky {
    Flaky {
        inner: InMemoryTransport::new(),
        mishap,
        at,
        sends: 0,
        held: None,
        injected: 0,
    }
}

impl Transport for Flaky {
    fn send(&mut self, mut envelope: Envelope) {
        let hit = self.sends == self.at;
        self.sends += 1;
        if !hit {
            self.inner.send(envelope);
            if let Some(held) = self.held.take() {
                self.inner.send(held);
            }
            return;
        }
        self.injected += 1;
        match self.mishap {
            Mishap::Drop => {}
            Mishap::Duplicate => (0..2).for_each(|_| self.inner.send(envelope.clone())),
            Mishap::Delay => self.held = Some(envelope),
            Mishap::Truncate => {
                if let ProtocolMsg::EncryptedRegistry { registry, .. } = &mut envelope.msg {
                    *registry = registry.slice(0, registry.len() - 1).unwrap();
                }
                self.inner.send(envelope);
            }
        }
    }

    fn deliver(&mut self) -> Option<Envelope> {
        self.inner.deliver().or_else(|| self.held.take())
    }
}

#[test]
fn fault_injected_duplicates_surface_as_typed_errors() {
    let dists = clients(6, 191);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(192);

    // Sends 0..=6 are the key dispatches (server + 6 clients); send 7 is
    // the first registry upload. Duplicating it is a wire-level replay.
    let mut transport = flaky(Mishap::Duplicate, 7);
    let err = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(6, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap_err();
    match err {
        SelectError::Protocol(ProtocolError::DuplicateContribution {
            try_index: None, ..
        }) => {}
        other => panic!("expected a replayed-registry rejection, got {other:?}"),
    }
    assert_eq!(transport.injected, 1);
}

#[test]
fn fault_injected_truncation_surfaces_as_a_typed_error() {
    let dists = clients(6, 201);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(202);

    // Cut one ciphertext element out of the first registry upload: the
    // fold-shape check catches it by type, and the sender is identifiable.
    let mut transport = flaky(Mishap::Truncate, 7);
    let err = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(6, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap_err();
    match err {
        SelectError::Protocol(ProtocolError::He(dubhe_he::HeError::LengthMismatch { .. })) => {}
        other => panic!("expected a shape mismatch from the truncated registry, got {other:?}"),
    }
    assert_eq!(transport.injected, 1);
}

#[test]
fn fault_injected_drops_end_in_an_explicit_partial_close_never_a_hang() {
    let dists = clients(6, 211);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(212);

    // Drop the first registry upload on the wire: registration cannot
    // complete naturally, but the pump drains (no hang) and the explicit
    // close folds the 5 survivors.
    let mut transport = flaky(Mishap::Drop, 7);
    let mut run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(6, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();
    assert_eq!(transport.injected, 1);
    assert!(
        run.clients.iter().all(|c| c.overall_registry().is_none()),
        "no broadcast can have happened with a registry missing"
    );
    assert!(
        run.overall_registry().is_none(),
        "an open epoch has no total"
    );

    for e in run.server.close_registration().unwrap() {
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

    let outcome = *run.server.cohort_outcomes().last().expect("recorded");
    assert_eq!(outcome.expected, 6);
    assert_eq!(outcome.contributed, 5);
    assert!(outcome.partial);
    // The partial total is a real decision input: the agent decrypted it
    // and it sums to the 5 contributors.
    let overall = run.agent.overall_registry().expect("partial broadcast");
    assert_eq!(overall.iter().sum::<u64>(), 5);
}

#[test]
fn fault_injected_delays_reorder_but_never_lose_frames() {
    let dists = clients(6, 221);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(222);

    // Hold the first registry back past its siblings: delivery order
    // changes, the homomorphic fold does not care, the epoch completes.
    let mut transport = flaky(Mishap::Delay, 7);
    let run = run_registration(
        &dists,
        &config,
        KEY_BITS,
        None,
        ShardedCoordinator::new(6, 1),
        &mut transport,
        &mut rng,
    )
    .unwrap();
    assert_eq!(transport.injected, 1);
    let overall = run.overall_registry().expect("the epoch completed");
    assert_eq!(overall.iter().sum::<u64>(), 6, "all 6 registries arrived");
    let outcome = *run.server.cohort_outcomes().last().expect("recorded");
    assert!(!outcome.partial, "a delayed frame is late, not lost");
    assert_eq!(outcome.contributed, 6);
}

// ---------------------------------------------------------------------------
// Partial-frame abuse. The reactor reassembles every connection's frames
// incrementally in one thread, so split headers and trickled payloads must
// survive interleaving across connections.
// ---------------------------------------------------------------------------

fn verdict_envelope(best_try: usize) -> WireMsg {
    WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try,
                distance: 0.5,
            },
        },
    }
}

#[test]
fn reactor_reassembles_interleaved_partial_frames_per_connection() {
    // Eight connections trickle their frames in 3-byte slices, round-robin:
    // every read the reactor makes lands mid-header or mid-payload of a
    // *different* connection than the last. Each frame must still decode on
    // its own connection.
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let n = 8;
    let mut streams: Vec<TcpStream> = (0..n)
        .map(|_| {
            let s = TcpStream::connect(reactor.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &verdict_envelope(i)).unwrap();
            frame
        })
        .collect();

    let mut offsets = vec![0usize; n];
    for round in 0.. {
        let mut progressed = false;
        for lane in 0..n {
            // Rotate the send order every round so the arrival interleaving
            // varies too, not just the slicing.
            let i = (lane + round) % n;
            if offsets[i] < frames[i].len() {
                let end = (offsets[i] + 3).min(frames[i].len());
                streams[i].write_all(&frames[i][offsets[i]..end]).unwrap();
                offsets[i] = end;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    for (i, stream) in streams.iter_mut().enumerate() {
        let (reply, _) = read_frame(stream).unwrap();
        assert!(
            matches!(&reply, WireMsg::Batch { envelopes } if envelopes.is_empty()),
            "connection {i}: expected an empty batch, got {reply:?}"
        );
    }
    let stats = reactor.stats();
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.truncated_frames, 0);
    assert_eq!(stats.frames_received, n);
    assert_eq!(stats.peak_connections, n);
    let state = reactor.shutdown().expect("coordinator state");
    assert_eq!(state.messages_received(), n);
}

#[test]
fn reactor_decodes_headers_split_at_every_boundary() {
    // The frame header is 8 bytes (4 magic + 4 length). Deliver it split at
    // every possible byte boundary, with a pause at the split so the reactor
    // gets to read the partial header on its own (the pause only shapes the
    // input — no assertion depends on its length), then the payload in two
    // halves. No split position may confuse the reassembler.
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, &verdict_envelope(3)).unwrap();
    for split in 1..8 {
        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&frame[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let mid = (frame.len() + split) / 2;
        stream.write_all(&frame[split..mid]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        stream.write_all(&frame[mid..]).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert!(
            matches!(&reply, WireMsg::Batch { envelopes } if envelopes.is_empty()),
            "split at {split}: got {reply:?}"
        );
    }
    let stats = reactor.stats();
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.truncated_frames, 0);
    assert_eq!(stats.frames_received, 7);
    drop(reactor);
}

#[test]
fn reactor_survives_the_garbage_gauntlet_and_still_serves_tcp_transport() {
    // A flood of non-protocol bytes, a truncated frame, and the magics of
    // the retired JSON (`DBH1`) and compressed-JSON (`DBHZ`) codecs — two
    // more unknown magics — at a plaintext listener and at a
    // channel-required one: every connection is hung up on (framing is
    // unrecoverable), the listener is not, and the healthy session
    // afterwards runs over the stock `TcpTransport`.
    let retired_frame = |magic: &[u8], payload: &[u8]| {
        let mut frame = magic.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    let retired = [
        retired_frame(b"DBH1", br#"{"Envelope":{"envelope":{"from":"Agent","to":"Server","epoch":0,"msg":{"TryVerdict":{"best_try":1,"distance":0.5}}}}}"#),
        retired_frame(b"DBHZ", b"lzss"),
    ];
    let assert_bad_magic = |reply: WireMsg| match reply {
        WireMsg::Error { detail } => assert!(detail.contains("bad magic"), "{detail}"),
        other => panic!("expected a bad-magic refusal, got {other:?}"),
    };

    for policy in [ChannelPolicy::Plaintext, ChannelPolicy::Required] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default().with_channel(policy),
        )
        .unwrap();
        let addr = reactor.addr();

        for garbage in [&b"GET / HTTP/1.1\r\n\r\n"[..], &[0xFFu8; 64][..]] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(garbage).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // Best-effort error reply then hangup; either way the read ends.
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        }

        // A truncated frame — valid magic, promised length never delivered.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut partial = Vec::new();
        partial.extend_from_slice(&FRAME_MAGIC_V2);
        partial.extend_from_slice(&100u32.to_be_bytes());
        partial.extend_from_slice(b"short");
        stream.write_all(&partial).unwrap();
        drop(stream);

        // A retired magic opening a connection (the Plaintext phase, or
        // the Handshake phase under `Required`) is refused by name...
        for frame in &retired {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(frame).unwrap();
            assert_bad_magic(read_frame(&mut stream).unwrap().0);
        }

        // ...and on an Established channel the same refusal comes back
        // sealed.
        let mut config = quick().with_channel(policy);
        if let Some(pin) = reactor.public_identity() {
            for (seed, frame) in (71..).zip(&retired) {
                let (mut stream, mut channel) = sealed_session(addr, seed, pin);
                stream.write_all(frame).unwrap();
                assert_bad_magic(read_sealed(&mut stream, &mut channel));
            }
            config = config.with_expected_server(pin);
        }

        let mut client = TcpTransport::connect_with_config(addr, config).unwrap();
        let out = client
            .deliver(Envelope {
                from: Party::Agent,
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::TryVerdict {
                    best_try: 1,
                    distance: 0.5,
                },
            })
            .unwrap();
        assert!(out.is_empty());
        client.shutdown().unwrap();
        let coordinator = reactor.shutdown().expect("listener state");
        assert_eq!(coordinator.last_verdict(), Some((1, 0.5)));
    }
}

// ---------------------------------------------------------------------------
// The authenticated-channel gauntlet: a man-in-the-middle who can read,
// flip, replay, or inject bytes on the wire — and a peer who simply refuses
// to authenticate. Every attack is a typed
// refusal (sealed when a channel exists to seal with, plaintext before one
// does), never a panic, never a hang, and never a corrupted fold.
// `docs/THREAT_MODEL.md` maps each scenario to the claim it makes executable.
// ---------------------------------------------------------------------------

/// Connects and runs the client half of the handshake with a deterministic
/// per-seed identity, pinning the listener's public key.
fn sealed_session(
    addr: std::net::SocketAddr,
    seed: u64,
    pin: [u8; 32],
) -> (TcpStream, SecureChannel) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let identity = NodeIdentity::from_seed(seed);
    let channel = client_handshake(&mut stream, &identity, Some(pin), MAX_FRAME_BYTES).unwrap();
    (stream, channel)
}

/// Encodes `msg` as an inner `DBH2` frame and returns the sealed wire bytes
/// (without sending them — tamper/replay tests want the raw frame).
fn sealed_bytes(channel: &mut SecureChannel, msg: &WireMsg) -> Vec<u8> {
    let mut inner = Vec::new();
    write_frame(&mut inner, msg).unwrap();
    channel.seal_frame(&inner)
}

/// Reads one sealed frame off the stream and opens it into a protocol
/// message.
fn read_sealed(stream: &mut TcpStream, channel: &mut SecureChannel) -> WireMsg {
    let (frame, _) = read_channel_frame(stream, MAX_FRAME_BYTES).unwrap();
    let ChannelFrame::Sealed(payload) = frame else {
        panic!("expected a sealed reply, got {frame:?}");
    };
    let inner = channel.open_payload(&payload).unwrap();
    read_frame(&mut inner.as_slice()).unwrap().0
}

/// The MITM tamper + replay script, against the Required listener at
/// `addr`. Returns nothing; every step asserts.
fn tamper_and_replay_gauntlet(addr: std::net::SocketAddr, pin: [u8; 32]) {
    // Tamper: a single flipped ciphertext bit voids the tag. The refusal
    // comes back *sealed* (the send direction outlives the poisoned
    // receive direction), then the connection ends.
    let (mut stream, mut channel) = sealed_session(addr, 31, pin);
    let good = sealed_bytes(&mut channel, &verdict_envelope(1));
    stream.write_all(&good).unwrap();
    assert!(
        matches!(
            read_sealed(&mut stream, &mut channel),
            WireMsg::Batch { .. }
        ),
        "the untampered frame establishes a healthy session first"
    );
    let mut evil = sealed_bytes(&mut channel, &verdict_envelope(2));
    evil[8] ^= 0x01; // first ciphertext byte, behind the 8-byte header
    stream.write_all(&evil).unwrap();
    match read_sealed(&mut stream, &mut channel) {
        WireMsg::Error { detail } => {
            assert!(detail.contains("authentication failed"), "{detail}")
        }
        other => panic!("expected a sealed auth failure, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "then a hangup");

    // Replay: byte-identical sealed frames do not re-enter. The receiver
    // opens the second copy under the next sequence number, so its tag
    // fails: a typed authentication failure.
    let (mut stream, mut channel) = sealed_session(addr, 32, pin);
    let once = sealed_bytes(&mut channel, &verdict_envelope(3));
    stream.write_all(&once).unwrap();
    assert!(matches!(
        read_sealed(&mut stream, &mut channel),
        WireMsg::Batch { .. }
    ));
    stream.write_all(&once).unwrap();
    match read_sealed(&mut stream, &mut channel) {
        WireMsg::Error { detail } => assert!(detail.contains("authentication failed"), "{detail}"),
        other => panic!("expected a replay rejection, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn mitm_tampering_and_replay_are_sealed_refusals() {
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let pin = reactor.public_identity().expect("identity resolved");
    tamper_and_replay_gauntlet(reactor.addr(), pin);
    let stats = reactor.stats();
    assert_eq!(stats.handshakes_completed, 2);
    assert_eq!(stats.handshakes_failed, 0);
    assert_eq!(stats.aead_rejections, 2, "one tamper + one replay");
    assert_eq!(stats.downgrades_refused, 0);
    reactor.shutdown();
}

/// The session-hijack script: identity A claims a client slot, identity B
/// tries to speak for it, A resumes after a reconnect. Ends with a complete,
/// uncorrupted epoch.
fn hijack_gauntlet(
    addr: std::net::SocketAddr,
    pin: [u8; 32],
    kp: &Keypair,
    rng: &mut rand::rngs::StdRng,
) {
    // Identity A (seed 41) registers as client 0.
    let (mut alice, mut alice_ch) = sealed_session(addr, 41, pin);
    let upload = WireMsg::Envelope {
        envelope: registry_envelope(0, EncryptedVector::encrypt_u64(&kp.public, &[1, 0], rng)),
    };
    let frame = sealed_bytes(&mut alice_ch, &upload);
    alice.write_all(&frame).unwrap();
    assert!(matches!(
        read_sealed(&mut alice, &mut alice_ch),
        WireMsg::Batch { .. }
    ));

    // Identity B (seed 42) authenticates fine — but cannot speak as
    // client 0, which is bound to A's channel identity.
    let (mut mallory, mut mallory_ch) = sealed_session(addr, 42, pin);
    let forged = WireMsg::Envelope {
        envelope: registry_envelope(0, EncryptedVector::encrypt_u64(&kp.public, &[9, 9], rng)),
    };
    let frame = sealed_bytes(&mut mallory_ch, &forged);
    mallory.write_all(&frame).unwrap();
    match read_sealed(&mut mallory, &mut mallory_ch) {
        WireMsg::Error { detail } => {
            assert!(detail.contains("session hijack refused"), "{detail}")
        }
        other => panic!("expected a hijack refusal, got {other:?}"),
    }

    // A reconnects — fresh TCP connection, fresh handshake, same long-term
    // identity — and still owns the binding: the re-sent registry reaches
    // the coordinator (which refuses it as a duplicate, proving the channel
    // layer let it through) rather than the hijack check.
    drop(alice);
    let (mut alice2, mut alice2_ch) = sealed_session(addr, 41, pin);
    let frame = sealed_bytes(&mut alice2_ch, &upload);
    alice2.write_all(&frame).unwrap();
    match read_sealed(&mut alice2, &mut alice2_ch) {
        WireMsg::Error { detail } => {
            assert!(
                detail.contains("already uploaded") && !detail.contains("hijack"),
                "resume must pass the binding and hit the idempotency layer: {detail}"
            );
        }
        other => panic!("expected the coordinator's duplicate refusal, got {other:?}"),
    }

    // Mallory is free to be client 1 under their own name; the epoch
    // completes and the fold holds exactly A's and Mallory's vectors.
    let honest = WireMsg::Envelope {
        envelope: registry_envelope(1, EncryptedVector::encrypt_u64(&kp.public, &[0, 2], rng)),
    };
    let frame = sealed_bytes(&mut mallory_ch, &honest);
    mallory.write_all(&frame).unwrap();
    assert!(matches!(
        read_sealed(&mut mallory, &mut mallory_ch),
        WireMsg::Batch { .. }
    ));
}

#[test]
fn session_hijack_is_refused_and_resume_survives() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(411);
    let kp = Keypair::generate(KEY_BITS, &mut rng);

    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::with_public_key(kp.public.clone(), 2, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let pin = reactor.public_identity().expect("identity resolved");
    hijack_gauntlet(reactor.addr(), pin, &kp, &mut rng);
    let coordinator = reactor.shutdown().expect("reactor state");
    let total = coordinator.encrypted_total().expect("epoch complete");
    assert_eq!(total.decrypt_u64(&kp.private).unwrap(), vec![1, 2]);
}

/// Downgrade attempts at every phase of a Required connection, plus the
/// codec-confusion inverse (sealed frames at a plaintext listener).
fn downgrade_gauntlet(addr: std::net::SocketAddr, pin: [u8; 32]) {
    // Before the handshake: a plaintext protocol frame is refused, then the
    // connection ends.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &verdict_envelope(0)).unwrap();
    let (reply, _) = read_frame(&mut stream).unwrap();
    match reply {
        WireMsg::Error { detail } => {
            assert!(detail.contains("authenticated channel"), "{detail}")
        }
        other => panic!("expected a downgrade refusal, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);

    // After establishment: falling back to plaintext mid-session is the
    // same refusal, now sealed (the peer proved it holds the session keys,
    // so the error travels under them).
    let (mut stream, mut channel) = sealed_session(addr, 51, pin);
    let good = sealed_bytes(&mut channel, &verdict_envelope(1));
    stream.write_all(&good).unwrap();
    assert!(matches!(
        read_sealed(&mut stream, &mut channel),
        WireMsg::Batch { .. }
    ));
    write_frame(&mut stream, &verdict_envelope(2)).unwrap();
    match read_sealed(&mut stream, &mut channel) {
        WireMsg::Error { detail } => {
            assert!(detail.contains("authenticated channel"), "{detail}")
        }
        other => panic!("expected a sealed downgrade refusal, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn downgrade_attempts_are_refused_at_every_phase() {
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let pin = reactor.public_identity().expect("identity resolved");
    downgrade_gauntlet(reactor.addr(), pin);
    let stats = reactor.stats();
    assert_eq!(stats.downgrades_refused, 2, "pre + post handshake");
    assert_eq!(stats.handshakes_completed, 1);
    reactor.shutdown();
}

#[test]
fn sealed_frames_at_a_plaintext_listener_are_codec_confusion_not_a_crash() {
    // The inverse direction: DBHS/DBHE frames arriving at a listener that
    // never opted into the channel are unknown magics — a typed decode
    // refusal and a hangup, and the listener keeps serving plaintext.
    let mut probe = Vec::new();
    probe.extend_from_slice(b"DBHE");
    probe.extend_from_slice(&32u32.to_be_bytes());
    probe.extend_from_slice(&[0u8; 32]);

    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&probe).unwrap();
    // Best-effort typed-error reply, then hangup; either way the read
    // ends and the next (plaintext) session works.
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);

    let mut client = TcpTransport::connect_with_config(reactor.addr(), quick()).unwrap();
    let out = client
        .deliver(Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try: 2,
                distance: 0.25,
            },
        })
        .unwrap();
    assert!(out.is_empty());
    client.shutdown().unwrap();
    assert_eq!(reactor.stats().decode_errors, 1);
    assert_eq!(reactor.shutdown().unwrap().last_verdict(), Some((2, 0.25)));
}
