//! Acceptance pins for the event-driven listener.
//!
//! The bar, mirroring `dubhe-select`'s `networked_protocol.rs`: a full
//! registration + multi-time session served by a four-shard
//! [`ReactorListener`] must match the in-memory one-shard coordinator —
//! same decrypted overall registry, same verdict, same canonical accounting
//! — on both readiness backends, with ciphertext residues *bit-identical*
//! to the left-to-right `EncryptedVector::add` chain over the recorded
//! uploads. And every abuse a socket can
//! deliver (garbage, mid-frame stalls, a reader that stops reading) must
//! surface as typed flow control, never a panic or a hang.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::EncryptedVector;
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::client::dial;
use dubhe_select::protocol::connection::Event;
use dubhe_select::protocol::frames::SEAL_SLICE;
use dubhe_select::protocol::{
    append_frame, codec, run_registration, run_try, ChannelPolicy, Client, ClientConfig,
    Connection, Coordinator, Envelope, InMemoryTransport, ListenerStats, NodeIdentity, Party,
    ProtocolMsg, RegistryFrame, ShardedCoordinator, TransportStats, WireMsg, FRAME_MAGIC_HANDSHAKE,
    MAX_FRAME_BYTES, SEALED_FRAME_OVERHEAD,
};
use dubhe_select::{ClientId, ClientSelector, DubheConfig, DubheSelector, ProtocolError};
use mini_mio::Backend;
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

/// What one driven session leaves behind for the equivalence pins: the
/// overall registry as the clients decrypted it, the verdict, the canonical
/// transport accounting, the coordinator slot — and the definition the
/// registry fold is pinned to, the left-to-right `EncryptedVector::add`
/// chain over the recorded uploads in arrival order.
struct Session<C> {
    overall: Vec<u64>,
    verdict: (usize, f64),
    stats: TransportStats,
    server: C,
    registry_chain: EncryptedVector,
}

/// One full session (registration + H=3 multi-time round) against an
/// arbitrary coordinator slot, on a recording transport.
fn drive_session<C: Coordinator>(dists: &[ClassDistribution], seed: u64, server: C) -> Session<C> {
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut transport = InMemoryTransport::recording();
    let mut run = run_registration(
        dists,
        &config,
        KEY_BITS,
        None,
        server,
        &mut transport,
        &mut rng,
    )
    .unwrap();

    let mut selector = DubheSelector::new(dists, config);
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

    let registry_chain = transport
        .transcript()
        .iter()
        .filter_map(|e| match &e.msg {
            ProtocolMsg::EncryptedRegistry { registry, .. } => Some(registry.clone()),
            _ => None,
        })
        .reduce(|sum, registry| sum.add(&registry).unwrap())
        .expect("every client uploaded a registry");
    Session {
        overall: run.overall_registry().unwrap().to_vec(),
        verdict: run.agent.verdict().expect("all tries evaluated"),
        stats: *transport.stats(),
        server: run.server,
        registry_chain,
    }
}

/// Asserts `total` is the add chain, residue for residue.
fn assert_is_chain(total: &EncryptedVector, chain: &EncryptedVector, what: &str) {
    assert_eq!(total.len(), chain.len(), "{what}");
    for (a, b) in total.elements().iter().zip(chain.elements()) {
        assert_eq!(a.raw(), b.raw(), "{what}: fold diverged from the add chain");
    }
}

/// Blocks until `done` holds of the listener's stats and returns that
/// snapshot. The listener counts asynchronously to the client's reads, so a
/// test pins totals only after waiting here — and `done` must be a
/// condition on *monotonic* counters (`connections_closed == n`, never
/// `connections_open == 0`, which also holds before anything was accepted).
fn wait_for<C: Coordinator + Send + 'static>(
    reactor: &ReactorListener<C>,
    what: &str,
    done: impl Fn(&ListenerStats) -> bool,
) -> ListenerStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = reactor.stats();
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "{what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn verdict_envelope(best_try: usize) -> WireMsg {
    WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try,
                distance: 0.1,
            },
        },
    }
}

#[test]
fn reactor_session_is_bit_identical_to_memory() {
    let dists = clients(20, 81);

    let memory = drive_session(&dists, 82, ShardedCoordinator::new(20, 1));
    let total_mem = memory.server.encrypted_total().expect("epoch complete");
    assert_is_chain(&total_mem, &memory.registry_chain, "in memory, 1 shard");

    // The reactor must match on both readiness backends.
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 4),
            ReactorConfig::default().with_backend(backend),
        )
        .unwrap();
        let endpoint = Client::connect(reactor.addr(), 1, ClientConfig::default()).unwrap();
        let tcp = drive_session(&dists, 82, endpoint);
        assert_eq!(tcp.overall, memory.overall, "{backend:?}");
        assert_eq!(tcp.verdict, memory.verdict, "{backend:?}");
        assert_eq!(tcp.stats, memory.stats, "{backend:?}");
        tcp.server.shutdown().unwrap();

        // The shutdown frame lands asynchronously; wait for the listener to
        // close the connection before pinning the frame totals.
        let what = format!("{backend:?}: connection never drained");
        let listener_stats = wait_for(&reactor, &what, |s| s.connections_closed == 1);
        assert!(listener_stats.frames_received > 0, "{backend:?}");
        assert_eq!(
            listener_stats.frames_received,
            listener_stats.frames_sent + 1,
            "{backend:?}: one reply per request, plus the replyless shutdown frame"
        );
        assert!(listener_stats.latency.count > 0, "{backend:?}");

        let state = reactor.shutdown().expect("listener state");
        // Bit-identical ciphertext folds, element by element: the served
        // four-shard fold is the add chain of the uploads this session
        // recorded, and the one-shard in-memory fold.
        let total = state.encrypted_total().expect("epoch complete");
        assert_is_chain(&total, &tcp.registry_chain, &format!("{backend:?}"));
        assert_is_chain(&total, &total_mem, &format!("{backend:?} vs memory"));
        assert_eq!(state.messages_received(), memory.server.messages_received());
        assert_eq!(state.bytes_received(), memory.server.bytes_received());
        assert_eq!(state.last_verdict(), Some(memory.verdict));
    }
}

#[test]
fn required_channel_session_is_bit_identical_to_plaintext_on_both_backends() {
    let dists = clients(20, 91);
    let memory = drive_session(&dists, 92, ShardedCoordinator::new(20, 1));

    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 4),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required),
        )
        .unwrap();
        let pin = reactor
            .public_identity()
            .expect("required channel resolves an identity");
        let endpoint = Client::connect(
            reactor.addr(),
            1,
            ClientConfig::default()
                .with_channel(ChannelPolicy::Required)
                .with_expected_server(pin),
        )
        .unwrap();
        let tcp = drive_session(&dists, 92, endpoint);
        // Every protocol-level ledger — decrypted registry, verdict, per-kind
        // transport accounting — is bit-identical with the channel on.
        assert_eq!(tcp.overall, memory.overall, "{backend:?}");
        assert_eq!(tcp.verdict, memory.verdict, "{backend:?}");
        assert_eq!(tcp.stats, memory.stats, "{backend:?}");
        tcp.server.shutdown().unwrap();

        let what = format!("{backend:?}: connection never drained");
        let listener_stats = wait_for(&reactor, &what, |s| s.connections_closed == 1);
        assert_eq!(listener_stats.handshakes_completed, 1, "{backend:?}");
        assert_eq!(listener_stats.handshakes_failed, 0, "{backend:?}");
        assert_eq!(listener_stats.aead_rejections, 0, "{backend:?}");
        assert_eq!(listener_stats.downgrades_refused, 0, "{backend:?}");
        assert_eq!(listener_stats.decode_errors, 0, "{backend:?}");
        // And so is the fold the sealed frames fed: the add chain of the
        // uploads, which is also what the plaintext in-memory session folded.
        let state = reactor.shutdown().expect("listener state");
        let total = state.encrypted_total().expect("epoch complete");
        assert_is_chain(&total, &tcp.registry_chain, &format!("{backend:?}"));
        assert_is_chain(
            &total,
            &memory.registry_chain,
            &format!("{backend:?} vs memory"),
        );
    }
}

#[test]
fn mux_client_runs_sealed_sessions_end_to_end() {
    let n = 24;
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let pin = reactor.public_identity().expect("identity resolved");
    let mut mux = Client::connect(
        reactor.addr(),
        n,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(pin)
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();

    // Two phases over persistent sealed connections: every request earns
    // its (empty batch) reply through the seal in both directions.
    let requests: Vec<(usize, WireMsg)> = (0..n).map(|i| (i, verdict_envelope(i % 5))).collect();
    let replies = mux.exchange(&requests).unwrap();
    assert_eq!(replies.len(), n);
    assert!(replies
        .iter()
        .all(|(_, msg)| matches!(msg, WireMsg::Batch { envelopes } if envelopes.is_empty())));
    let replies = mux.exchange(&requests[..7]).unwrap();
    assert_eq!(replies.len(), 7);
    mux.shutdown().unwrap();

    let stats = wait_for(&reactor, "connections never drained", |s| {
        s.connections_closed == n
    });
    assert_eq!(stats.connections_accepted, n);
    assert_eq!(stats.handshakes_completed, n);
    assert_eq!(stats.handshakes_failed, 0);
    assert_eq!(stats.aead_rejections, 0);
    assert_eq!(stats.downgrades_refused, 0);
    assert_eq!(stats.frames_received, n + 7 + n, "requests + shutdowns");
    assert_eq!(stats.frames_sent, n + 7);
    assert_eq!(stats.decode_errors, 0);
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), n + 7);
}

/// `n` registry uploads (one pooled ciphertext vector, as a load generator
/// replays them) whose last reply is the registration broadcast: a `Batch`
/// of `n + 1` envelopes around one length-56 total — 3.6 KB an addressee at
/// 256-bit keys, so `n = 800` is a 2.9 MB sealed frame.
fn registry_uploads(n: usize) -> (WireMsg, Vec<Envelope>) {
    uploads_of_length(n, 56)
}

/// [`registry_uploads`] at any registry length: 64 B a position at 256-bit
/// keys, so length 10 is a 0.7 KB frame the event loop may answer itself and
/// length 100 a 6.4 KB one that is always the router's.
fn uploads_of_length(n: usize, length: usize) -> (WireMsg, Vec<Envelope>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB16);
    let keypair = dubhe_he::Keypair::generate(KEY_BITS, &mut rng);
    let mut one_hot = vec![0u64; length];
    one_hot[5] = 1;
    let registry = dubhe_he::EncryptedVector::encrypt_u64(&keypair.public, &one_hot, &mut rng);
    let key_dispatch = WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: keypair.public.clone(),
                private_key: None,
            },
        },
    };
    let uploads = (0..n).map(|client| Envelope {
        from: Party::Client(client),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::EncryptedRegistry {
            client,
            registry: registry.clone(),
        },
    });
    (key_dispatch, uploads.collect())
}

/// What the plaintext `DBH2` frame for `msg` weighs: a sealed frame's
/// inner bytes.
fn inner_bytes(msg: &WireMsg) -> usize {
    8 + codec::encode(msg).unwrap().len()
}

/// What a sealed `DBH2` frame for `msg` weighs on the wire: a one-record
/// frame's overhead, and a tag more for each 256 KiB record past the first.
fn sealed_frame_bytes(msg: &WireMsg) -> usize {
    let inner = inner_bytes(msg);
    inner + SEALED_FRAME_OVERHEAD + 16 * (inner.div_ceil(SEAL_SLICE) - 1)
}

/// The broadcast checks shared by both big-batch tests: `n + 1` addressees
/// in cohort order, every one holding the same total.
fn assert_broadcast(envelopes: &[Envelope], n: usize) {
    assert_eq!(envelopes.len(), n + 1);
    let ProtocolMsg::EncryptedTotalBroadcast { total } = &envelopes[n].msg else {
        panic!("the agent's copy closes the broadcast");
    };
    assert_eq!(total.len(), 56);
    for (i, envelope) in envelopes.iter().enumerate() {
        let to = if i < n {
            Party::Client(i)
        } else {
            Party::Agent
        };
        assert_eq!((envelope.from, envelope.to), (Party::Server, to));
        assert!(
            matches!(&envelope.msg, ProtocolMsg::EncryptedTotalBroadcast { total: t } if t == total)
        );
    }
}

#[test]
fn multi_mib_sealed_broadcast_reaches_a_mux_client_byte_for_byte() {
    let n = 800;
    let (key_dispatch, uploads) = registry_uploads(n);
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let conns = 2;
    let mut mux = Client::connect(
        reactor.addr(),
        conns,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(reactor.public_identity().expect("identity resolved"))
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();

    // Client `c` speaks on connection `c % 2` (the identity binding keeps
    // one identity per client); everything is queued, then moved at once,
    // so the 2.9 MB reply is reassembled from partial reads behind a queue
    // of small replies.
    let mut requests = vec![(0, key_dispatch)];
    requests.extend(
        uploads
            .into_iter()
            .enumerate()
            .map(|(c, envelope)| (c % conns, WireMsg::Envelope { envelope })),
    );
    let replies = mux.exchange(&requests).unwrap();
    assert_eq!(replies.len(), n + 1);
    let mut bytes_out = 0;
    let mut broadcasts = 0;
    for (_, reply) in &replies {
        bytes_out += sealed_frame_bytes(reply);
        match reply {
            WireMsg::Batch { envelopes } if envelopes.is_empty() => {}
            WireMsg::Batch { envelopes } => {
                assert_broadcast(envelopes, n);
                assert!(sealed_frame_bytes(reply) > 2 << 20, "a multi-MiB frame");
                broadcasts += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(broadcasts, 1);
    mux.shutdown().unwrap();

    let stats = wait_for(&reactor, "connections never drained", |s| {
        s.connections_closed == conns
    });
    let bytes_in: usize = requests
        .iter()
        .map(|(_, msg)| sealed_frame_bytes(msg))
        .sum();
    let shutdowns = conns * sealed_frame_bytes(&WireMsg::Shutdown);
    assert_eq!(stats.bytes_received, bytes_in + shutdowns);
    assert_eq!(stats.bytes_sent, bytes_out);
    assert_eq!(stats.frames_received, n + 1 + conns);
    assert_eq!(stats.frames_sent, n + 1);
    assert_eq!(
        stats.aead_rejections + stats.decode_errors + stats.backpressure_disconnects,
        0
    );
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), n + 1);
}

#[test]
fn multi_mib_sealed_broadcast_reaches_tcp_transport_byte_for_byte() {
    let n = 800;
    let (key_dispatch, uploads) = registry_uploads(n);
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let mut client = Client::connect(
        reactor.addr(),
        1,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(reactor.public_identity().expect("identity resolved")),
    )
    .unwrap();
    let WireMsg::Envelope { envelope } = key_dispatch else {
        unreachable!()
    };
    assert!(client.deliver(envelope).unwrap().is_empty());
    let mut broadcast = Vec::new();
    for envelope in uploads {
        assert!(
            broadcast.is_empty(),
            "the broadcast answers the last upload"
        );
        broadcast = client.deliver(envelope).unwrap();
    }
    assert_broadcast(&broadcast, n);

    // Both sides metered the same bytes, the seal included, in each
    // direction — and the reply was one multi-MiB frame.
    let wire = *client.wire_stats();
    let stats = wait_for(&reactor, "replies never counted", |s| {
        s.frames_sent == n + 1
    });
    assert_eq!((wire.frames_sent, wire.frames_received), (n + 1, n + 1));
    assert_eq!(
        stats.bytes_received,
        wire.bytes_sent + wire.frames_sent * SEALED_FRAME_OVERHEAD
    );
    let reply = WireMsg::Batch {
        envelopes: broadcast,
    };
    // The broadcast's records past its first carry a tag each.
    let extra_tags = sealed_frame_bytes(&reply) - inner_bytes(&reply) - SEALED_FRAME_OVERHEAD;
    assert_eq!(
        stats.bytes_sent,
        wire.bytes_received + wire.frames_received * SEALED_FRAME_OVERHEAD + extra_tags
    );
    assert_eq!(
        wire.sealed_overhead_bytes,
        2 * (n + 1) * SEALED_FRAME_OVERHEAD + extra_tags
    );
    assert!(sealed_frame_bytes(&reply) > 2 << 20, "a multi-MiB frame");
    assert!(stats.bytes_sent > sealed_frame_bytes(&reply));
    client.shutdown().unwrap();
}

#[test]
fn a_reply_still_being_sealed_does_not_hold_up_another_connection() {
    reply_being_sealed_holds_up_no_one(false);
}

#[test]
fn a_reply_still_being_sealed_does_not_hold_up_another_connection_while_its_reader_drains() {
    reply_being_sealed_holds_up_no_one(true);
}

/// Connection A's registration broadcast is n + 1 copies of a length-700
/// total, 45 KB an addressee at 256-bit keys, so ≈ 18 MB sealed — several
/// times what a loopback socket buffers. Connection B's small request is
/// answered while that broadcast still has bytes to seal; then A's replies
/// open, the broadcast byte for byte.
///
/// Without `drain`, A reads nothing until B has been answered, so its full
/// socket stalls the seal part-way. With it, a thread reads A's socket as
/// fast as it fills, so it never refuses a byte and nothing but the loop's
/// one slice per connection per turn stands between B and the ≈ 70 ms the
/// seal takes; B then handshakes first, so its request needs one turn.
fn reply_being_sealed_holds_up_no_one(drain: bool) {
    let (n, length) = (400, 700);
    let (key_dispatch, uploads) = uploads_of_length(n, length);
    let requests: Vec<WireMsg> = std::iter::once(key_dispatch)
        .chain(
            uploads
                .into_iter()
                .map(|envelope| WireMsg::Envelope { envelope }),
        )
        .collect();
    let mut reference = ShardedCoordinator::new(n, 4);
    let replies: Vec<WireMsg> = requests
        .iter()
        .map(|msg| reply_in_memory(&mut reference, msg))
        .collect();
    let broadcast = &replies[n];
    assert!(
        inner_bytes(broadcast) > 16 << 20,
        "a reply of 16 MiB or more"
    );
    let before_broadcast: usize = replies[..n].iter().map(inner_bytes).sum();
    let wire_bytes: usize = replies.iter().map(sealed_frame_bytes).sum();

    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let config = ClientConfig::default()
        .with_channel(ChannelPolicy::Required)
        .with_expected_server(reactor.public_identity().expect("identity resolved"))
        .with_exchange_timeout(Duration::from_secs(30));
    let connect_b = || Client::connect(reactor.addr(), 1, config.with_identity_seed(2)).unwrap();
    let early_b = drain.then(connect_b);
    let (mut a_stream, mut a) = dial(reactor.addr(), &config.with_identity_seed(1), 0).unwrap();
    let drained = drain.then(|| {
        let mut reader = a_stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut bytes = vec![0; wire_bytes];
            reader.read_exact(&mut bytes).map(|()| bytes)
        })
    });
    for msg in &requests {
        a.queue(msg.clone()).unwrap();
    }
    a.write_queued(&mut a_stream).unwrap();
    wait_for(&reactor, "the broadcast never started sealing", |s| {
        s.bytes_sealed > before_broadcast
    });

    // B is answered while A's broadcast is part-sealed: the monotonic count
    // says so, whenever it is read after the answer.
    let mut b = early_b.unwrap_or_else(connect_b);
    Coordinator::announce_try(&mut b, 0, &[1, 2]).unwrap();
    let ack = inner_bytes(&WireMsg::Ack);
    let all_sealed = before_broadcast + inner_bytes(broadcast) + ack;
    let sealed = reactor.stats().bytes_sealed;
    assert!(
        sealed < all_sealed,
        "B answered only after A's broadcast was sealed whole ({sealed} B)"
    );

    // Then A's replies open: every one, the broadcast byte for byte.
    let bytes = match drained {
        Some(reader) => reader.join().unwrap().unwrap(),
        None => {
            let mut bytes = vec![0; wire_bytes];
            a_stream.read_exact(&mut bytes).unwrap();
            bytes
        }
    };
    let mut wire = &bytes[..];
    for (i, expect) in replies.iter().enumerate() {
        match a.next_event(&mut wire).unwrap() {
            Event::Frame { msg, .. } => assert_eq!(&msg.force().unwrap(), expect, "reply {i}"),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    assert!(wire.is_empty());
    b.shutdown().unwrap();
    a.queue(WireMsg::Shutdown).unwrap();
    a.write_queued(&mut a_stream).unwrap();
    let stats = wait_for(&reactor, "connections never drained", |s| {
        s.connections_closed == 2
    });
    assert_eq!(stats.bytes_sealed, all_sealed);
    assert_eq!(stats.frames_sent, n + 2);
    assert_eq!(
        stats.aead_rejections + stats.decode_errors + stats.backpressure_disconnects,
        0
    );
}

#[test]
fn downgrades_and_handshake_stalls_get_typed_refusals_on_both_backends() {
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required)
                .with_read_timeout(Duration::from_millis(300)),
        )
        .unwrap();

        // Plaintext protocol traffic at a Required listener: refused as a
        // downgrade attempt, then cut.
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&burst_of(&[verdict_envelope(0)])).unwrap();
        match reply_then_hangup(&mut raw) {
            WireMsg::Error { detail } => {
                assert!(detail.contains("authenticated channel"), "{detail}")
            }
            other => panic!("expected a downgrade refusal, got {other:?}"),
        }

        // Handshake slow-loris: a connection that opens the prelude and
        // stalls is swept at the read timeout, with a courtesy notice.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBHS").unwrap(); // valid handshake magic, then silence
        match reply_then_hangup(&mut loris) {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }

        // A connection that never sends a byte is swept too — silence is
        // not a way to hold a pre-authentication slot open.
        let silent = TcpStream::connect(reactor.addr()).unwrap();
        let what = format!("{backend:?}: silent pre-auth connection never swept");
        let stats = wait_for(&reactor, &what, |s| s.connections_closed == 3);
        drop(silent);

        assert_eq!(stats.downgrades_refused, 1, "{backend:?}");
        assert_eq!(
            stats.handshakes_failed, 3,
            "{backend:?}: downgrade + loris + silent"
        );
        assert_eq!(stats.handshakes_completed, 0, "{backend:?}");

        // Slots freed: an honest client still authenticates and is served.
        let mut honest = Client::connect(
            reactor.addr(),
            1,
            ClientConfig::default()
                .with_exchange_timeout(Duration::from_secs(5))
                .with_channel(ChannelPolicy::Required)
                .with_expected_server(reactor.public_identity().expect("identity resolved")),
        )
        .unwrap();
        honest
            .announce_try(0, &[1, 2])
            .expect("listener healthy after sweeping the stalled handshakes");
        assert_eq!(reactor.stats().handshakes_completed, 1, "{backend:?}");
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn a_low_order_hello_is_cut_and_counted() {
    // A client holding no secret at all: static key 00…00 beside an honest
    // ephemeral. Every DH share that key enters is zero, so the listener
    // refuses the hello before deriving anything, tells the peer, hangs up
    // and counts a failed handshake — no channel, no `00…00` identity.
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let eph = NodeIdentity::from_seed(3).public_bytes();
    let hello = [
        &FRAME_MAGIC_HANDSHAKE[..],
        &64u32.to_be_bytes(),
        &[0u8; 32],
        &eph,
    ]
    .concat();
    raw.write_all(&hello).unwrap();
    match reply_then_hangup(&mut raw) {
        WireMsg::Error { detail } => assert!(detail.contains("not contributory"), "{detail}"),
        other => panic!("expected a handshake refusal, got {other:?}"),
    }
    let stats = wait_for(&reactor, "refused hello never reaped", |s| {
        s.connections_closed == 1
    });
    assert_eq!(stats.handshakes_failed, 1);
    assert_eq!(stats.handshakes_completed, 0);
    assert!(reactor.shutdown().is_some());
}

#[test]
fn an_oversized_handshake_header_is_refused_at_once_on_both_backends() {
    // Before anyone has authenticated, the longest frame a listener buffers
    // is M1's 64 bytes: a `DBHS` header announcing more — 1 MiB, or the
    // whole frame ceiling — is refused on its eighth byte, not reserved and
    // waited for until the read timeout (an hour here) sweeps it.
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required)
                .with_read_timeout(Duration::from_secs(3600)),
        )
        .unwrap();
        for announced in [1u32 << 20, MAX_FRAME_BYTES as u32] {
            let mut raw = TcpStream::connect(reactor.addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(&FRAME_MAGIC_HANDSHAKE).unwrap();
            raw.write_all(&announced.to_be_bytes()).unwrap();
            match reply_then_hangup(&mut raw) {
                WireMsg::Error { detail } => assert!(
                    detail.contains(&format!(
                        "{announced}-byte payload, above the 64-byte limit"
                    )),
                    "{backend:?}: {detail}"
                ),
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        }
        let what = format!("{backend:?}: refused headers never reaped");
        let stats = wait_for(&reactor, &what, |s| s.connections_closed == 2);
        assert_eq!(
            stats.handshakes_failed, 2,
            "{backend:?}: one per connection"
        );
        assert_eq!(stats.handshakes_completed, 0, "{backend:?}");
        assert_eq!(
            stats.truncated_frames + stats.decode_errors,
            0,
            "{backend:?}"
        );
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn an_unbounded_frame_ceiling_serves_sealed_registrations() {
    // `usize::MAX` reads as "no ceiling": the listener's default
    // high-water mark (twice the ceiling) and every sealed-frame allowance
    // (the ceiling plus the seal) saturate instead of overflowing, so a
    // sealed registration goes through on all three configs.
    let n = 6;
    let listener = || {
        ReactorListener::spawn_with(
            ShardedCoordinator::new(n, 1),
            ReactorConfig::default()
                .with_channel(ChannelPolicy::Required)
                .with_max_frame_bytes(usize::MAX),
        )
        .unwrap()
    };

    // The client as the driver's coordinator, a request at a time.
    let (key_dispatch, uploads) = registry_uploads(n);
    let reactor = listener();
    let mut client = Client::connect(
        reactor.addr(),
        1,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(reactor.public_identity().expect("identity resolved"))
            .with_max_frame_bytes(usize::MAX),
    )
    .unwrap();
    let WireMsg::Envelope { envelope } = key_dispatch.clone() else {
        unreachable!()
    };
    assert!(client.deliver(envelope).unwrap().is_empty());
    let mut broadcast = Vec::new();
    for envelope in uploads.clone() {
        broadcast = client.deliver(envelope).unwrap();
    }
    assert_broadcast(&broadcast, n);
    client.shutdown().unwrap();

    // The client with every request queued at once.
    let reactor = listener();
    let mut mux = Client::connect(
        reactor.addr(),
        1,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(reactor.public_identity().expect("identity resolved"))
            .with_max_frame_bytes(usize::MAX)
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    let mut requests = vec![(0, key_dispatch)];
    requests.extend(
        uploads
            .into_iter()
            .map(|envelope| (0, WireMsg::Envelope { envelope })),
    );
    let replies = mux.exchange(&requests).unwrap();
    let Some((_, WireMsg::Batch { envelopes })) = replies.last() else {
        panic!("the last upload is answered with the broadcast");
    };
    assert_broadcast(envelopes, n);
    mux.shutdown().unwrap();
}

#[test]
fn mux_client_multiplexes_many_persistent_connections() {
    let n = 128;
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut mux = Client::connect(
        reactor.addr(),
        n,
        ClientConfig::default().with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    assert_eq!(mux.len(), n);

    // Every connection sends a verdict concurrently; every one gets its own
    // (empty batch) reply.
    let requests: Vec<(usize, WireMsg)> = (0..n).map(|i| (i, verdict_envelope(i % 7))).collect();
    let replies = mux.exchange(&requests).unwrap();
    assert_eq!(replies.len(), n);
    assert!(replies
        .iter()
        .all(|(_, msg)| matches!(msg, WireMsg::Batch { envelopes } if envelopes.is_empty())));
    assert_eq!(mux.latency().count(), n as u64);

    // A second phase over the same (persistent) connections still works.
    let replies = mux.exchange(&requests[..16]).unwrap();
    assert_eq!(replies.len(), 16);
    mux.shutdown().unwrap();

    // Shutdown frames land asynchronously; wait for the listener to close
    // every connection before pinning the totals.
    let stats = wait_for(&reactor, "connections never drained", |s| {
        s.connections_closed == n
    });
    assert_eq!(stats.connections_accepted, n);
    assert_eq!(stats.peak_connections, n);
    assert_eq!(stats.frames_received, n + 16 + n, "requests + shutdowns");
    assert_eq!(stats.frames_sent, n + 16);
    assert_eq!(stats.decode_errors, 0);
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), n + 16);
}

#[test]
fn stalled_reader_is_cut_by_backpressure_not_buffered_forever() {
    // Replies must queue: the raw client sends requests but never reads.
    // An unknown request earns an Error reply whose detail echoes the
    // request's debug form — so a bulky request makes a bulky reply, filling
    // the 64 KiB high-water mark long before the kernel buffers absorb it.
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_high_water(64 * 1024),
    )
    .unwrap();
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    let bulky = WireMsg::Batch {
        envelopes: (0..200)
            .map(|i| Envelope {
                from: Party::Client(i),
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::TryVerdict {
                    best_try: i,
                    distance: 0.25,
                },
            })
            .collect(),
    };
    // Keep writing until the server cuts us — a write error is that signal
    // arriving, not a test failure — or the counter trips first.
    let bulky = burst_of(&[bulky]);
    while reactor.stats().backpressure_disconnects == 0 {
        if raw.write_all(&bulky).is_err() {
            break;
        }
    }
    let stats = wait_for(&reactor, "backpressure never tripped", |s| {
        s.backpressure_disconnects == 1
    });
    assert!(
        stats.peak_write_queue > 64 * 1024,
        "peak queue {} should exceed the high-water mark",
        stats.peak_write_queue
    );
    // The listener survives and serves the next client normally.
    let mut healthy = Client::connect(
        reactor.addr(),
        1,
        ClientConfig::default().with_exchange_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    healthy
        .announce_try(0, &[1, 2])
        .expect("listener healthy after cutting the stalled reader");
    drop(reactor);
}

#[test]
fn garbage_and_mid_frame_stalls_get_typed_errors_on_both_backends() {
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_read_timeout(Duration::from_millis(300)),
        )
        .unwrap();

        // Garbage magic: one typed error reply, then a hangup.
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\nHost: dubhe\r\n\r\n")
            .unwrap();
        match reply_then_hangup(&mut raw) {
            WireMsg::Error { detail } => assert!(detail.contains("malformed"), "{detail}"),
            other => panic!("expected an error reply, got {other:?}"),
        }

        // Mid-frame stall: header starts, then silence. The reactor must
        // reap the connection after the read timeout — with a courtesy
        // error frame — and count it as truncated.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBH2").unwrap(); // valid magic, nothing more
        match reply_then_hangup(&mut loris) {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }

        let stats = reactor.stats();
        assert_eq!(stats.decode_errors, 1, "{backend:?}");
        assert_eq!(stats.truncated_frames, 1, "{backend:?}");
        assert_eq!(stats.connections_open, 0, "{backend:?}");
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn a_plaintext_batch_stalled_after_some_envelopes_is_swept_with_a_stall_notice() {
    // A batch is decoded envelope by envelope as it lands, so a peer that
    // stops at an envelope boundary leaves no byte of it unparsed: the
    // connection is still mid-frame, and is swept at the read timeout like
    // any other stall.
    let batch = WireMsg::Batch {
        envelopes: (0..20)
            .map(|i| match verdict_envelope(i) {
                WireMsg::Envelope { envelope } => envelope,
                _ => unreachable!("a verdict is an envelope"),
            })
            .collect(),
    };
    let frame = burst_of(&[batch]);
    let envelope = (frame.len() - 8 - 5) / 20;
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_read_timeout(Duration::from_millis(300)),
        )
        .unwrap();
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(&frame[..8 + 5 + 7 * envelope]).unwrap();
        match reply_then_hangup(&mut loris) {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }
        let stats = reactor.stats();
        assert_eq!(stats.truncated_frames, 1, "{backend:?}");
        assert_eq!(stats.decode_errors, 0, "{backend:?}");
        assert_eq!(stats.connections_open, 0, "{backend:?}");
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn slow_loris_byte_at_a_time_frame_still_decodes() {
    // Trickling a whole valid frame one byte at a time — with pauses well
    // under the read timeout — must decode exactly like a burst: progress
    // resets the stall deadline, only true stalls are cut.
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_read_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = burst_of(&[WireMsg::AnnounceTry {
        try_index: 0,
        participants: vec![1, 2, 3],
    }]);
    for byte in frame {
        raw.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = read_msg(&mut Connection::plaintext(MAX_FRAME_BYTES), &mut raw);
    assert!(matches!(reply, WireMsg::Ack), "got {reply:?}");
    let stats = reactor.stats();
    assert_eq!(stats.truncated_frames, 0);
    assert_eq!(stats.decode_errors, 0);
    drop(reactor);
}

/// A coordinator whose deferred-registry path waits at a gate: every `DBH2`
/// registry upload takes one token from the test before it is folded. A job
/// held there is a job outstanding at the router for exactly as long as the
/// test says — the interleaving is forced by a channel, not hoped for with
/// a sleep.
struct Gated {
    inner: ShardedCoordinator,
    gate: mpsc::Receiver<()>,
}

impl Coordinator for Gated {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.inner.deliver(envelope)
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        Coordinator::announce_try(&mut self.inner, try_index, participants)
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        Coordinator::begin_epoch(&mut self.inner, epoch, expected_registrations)
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        Coordinator::close_registration(&mut self.inner)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        Coordinator::close_try(&mut self.inner, try_index)
    }

    fn deliver_registry_frame(
        &mut self,
        frame: RegistryFrame,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        self.gate.recv().expect("the test holds the gate open");
        self.inner.deliver_registry_frame(frame)
    }
}

/// What the in-memory coordinator answers `msg` with — the reference every
/// reply off the wire is held to, whichever thread produced it.
fn reply_in_memory(reference: &mut ShardedCoordinator, msg: &WireMsg) -> WireMsg {
    let result = match msg.clone() {
        WireMsg::Envelope { envelope } => reference
            .deliver(envelope)
            .map(|envelopes| WireMsg::Batch { envelopes }),
        WireMsg::AnnounceTry {
            try_index,
            participants,
        } => Coordinator::announce_try(reference, try_index, &participants).map(|()| WireMsg::Ack),
        WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        } => Coordinator::begin_epoch(reference, epoch, expected_registrations)
            .map(|()| WireMsg::Ack),
        other => panic!("the tests send no {other:?}"),
    };
    result.unwrap_or_else(|e| WireMsg::Error {
        detail: e.to_string(),
    })
}

/// The next message `conn` — the one connection reading `stream` — gets.
fn read_msg(conn: &mut Connection, stream: &mut TcpStream) -> WireMsg {
    match conn.next_event(stream).unwrap() {
        Event::Frame { msg, .. } => msg.force().unwrap(),
        other => panic!("expected a protocol frame, got {other:?}"),
    }
}

/// One plaintext reply off a raw socket, then the clean hangup behind it.
fn reply_then_hangup(stream: &mut TcpStream) -> WireMsg {
    let mut conn = Connection::plaintext(MAX_FRAME_BYTES);
    let reply = read_msg(&mut conn, stream);
    let end = conn.next_event(stream);
    assert!(matches!(end, Err(ProtocolError::Disconnected)), "{end:?}");
    reply
}

/// The `DBH2` frames of `msgs`, back to back: one `write_all` of this is one
/// pipelined burst.
fn burst_of(msgs: &[WireMsg]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for msg in msgs {
        append_frame(&mut bytes, msg, MAX_FRAME_BYTES, None).unwrap();
    }
    bytes
}

fn envelope_msg(envelope: &Envelope) -> WireMsg {
    WireMsg::Envelope {
        envelope: envelope.clone(),
    }
}

#[test]
fn frames_behind_a_routed_one_are_routed_and_replies_keep_request_order() {
    for backend in [Backend::Epoll, Backend::Portable] {
        let (open_gate, gate) = mpsc::channel();
        let reactor = ReactorListener::spawn_with(
            Gated {
                inner: ShardedCoordinator::new(3, 2),
                gate,
            },
            ReactorConfig::default().with_backend(backend),
        )
        .unwrap();
        let mut reference = ShardedCoordinator::new(3, 2);
        let (key_dispatch, uploads) = uploads_of_length(3, 100);
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut conn = Connection::plaintext(MAX_FRAME_BYTES);
        let mut expect_replies = |raw: &mut TcpStream, msgs: &[WireMsg]| {
            for msg in msgs {
                let reply = read_msg(&mut conn, raw);
                assert_eq!(reply, reply_in_memory(&mut reference, msg), "{backend:?}");
            }
        };

        // Alone, small, router idle: the event loop answers it itself.
        let alone = [key_dispatch];
        raw.write_all(&burst_of(&alone)).unwrap();
        expect_replies(&mut raw, &alone);
        let stats = wait_for(&reactor, "first reply never counted", |s| {
            s.frames_sent == 1
        });
        assert_eq!(stats.answered_inline, 1, "{backend:?}");

        // One write: a 6.4 KB registry — over the inline bound, so it is the
        // router's, where the gate holds it — and two small frames behind
        // it. Once all three are decoded the two small ones have met a job
        // outstanding, and must have followed it to the router.
        let burst = [
            envelope_msg(&uploads[0]),
            verdict_envelope(1),
            WireMsg::AnnounceTry {
                try_index: 0,
                participants: vec![0, 2],
            },
        ];
        raw.write_all(&burst_of(&burst)).unwrap();
        wait_for(&reactor, "burst never decoded", |s| s.frames_received == 4);
        open_gate.send(()).unwrap();
        expect_replies(&mut raw, &burst);
        let stats = wait_for(&reactor, "burst never answered", |s| s.frames_sent == 4);
        assert_eq!(
            stats.answered_inline, 1,
            "{backend:?}: nothing overtakes a routed frame"
        );

        // The router is idle again: a small frame is answered inline again,
        // a large one is still routed, and the order still holds when the
        // small one comes first.
        let burst = [verdict_envelope(2), envelope_msg(&uploads[1])];
        raw.write_all(&burst_of(&burst)).unwrap();
        open_gate.send(()).unwrap();
        expect_replies(&mut raw, &burst);
        let stats = wait_for(&reactor, "second burst never answered", |s| {
            s.frames_sent == 6
        });
        assert_eq!(stats.answered_inline, 2, "{backend:?}");
        assert!(stats.socket_reads >= 3 && stats.socket_writes >= 3);

        // A mixed session hands back the same coordinator an in-memory one
        // would have become.
        raw.write_all(&burst_of(&[WireMsg::Shutdown])).unwrap();
        wait_for(&reactor, "connection never drained", |s| {
            s.connections_closed == 1
        });
        let state = reactor.shutdown().expect("listener state").inner;
        assert_eq!(state.messages_received(), reference.messages_received());
        assert_eq!(state.messages_received(), 5, "{backend:?}");
        assert_eq!(state.bytes_received(), reference.bytes_received());
    }
}

#[test]
fn pipelined_small_frames_are_all_answered_inline_in_request_order() {
    let n = 5;
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(n, 1)).unwrap();
    let mut reference = ShardedCoordinator::new(n, 1);
    let (key_dispatch, uploads) = uploads_of_length(n, 10);
    let mut burst = vec![key_dispatch];
    burst.extend(uploads.iter().map(envelope_msg));
    burst.push(verdict_envelope(0));

    // Seven 0.7 KB-or-less frames in one write, nothing ever at the router:
    // every one is answered where it was read.
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&burst_of(&burst)).unwrap();
    let mut conn = Connection::plaintext(MAX_FRAME_BYTES);
    for (i, msg) in burst.iter().enumerate() {
        let reply = read_msg(&mut conn, &mut raw);
        assert_eq!(reply, reply_in_memory(&mut reference, msg), "reply {i}");
        // The upload that completes the cohort is answered with the
        // broadcast, in its place in the order.
        let broadcast = matches!(&reply, WireMsg::Batch { envelopes } if envelopes.len() == n + 1);
        assert_eq!(broadcast, i == n, "reply {i}");
    }
    let stats = wait_for(&reactor, "replies never counted", |s| {
        s.frames_sent == burst.len()
    });
    assert_eq!(stats.frames_received, burst.len());
    assert_eq!(stats.answered_inline, burst.len());
    assert!(stats.socket_reads >= 1);
    assert!(
        (1..=burst.len()).contains(&stats.socket_writes),
        "{} writes for {} replies",
        stats.socket_writes,
        burst.len()
    );
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), reference.messages_received());
}

#[test]
fn refusals_read_the_same_answered_inline_and_through_the_router() {
    let (open_gate, gate) = mpsc::channel();
    let reactor = ReactorListener::spawn_with(
        Gated {
            inner: ShardedCoordinator::new(3, 1),
            gate,
        },
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let mut mux = Client::connect(
        reactor.addr(),
        2,
        ClientConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(reactor.public_identity().expect("identity resolved"))
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    let (_, uploads) = uploads_of_length(3, 100);
    let begin = WireMsg::BeginEpoch {
        epoch: 2,
        expected_registrations: 3,
    };
    let as_client_7 = |epoch| WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Client(7),
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::TryVerdict {
                best_try: 0,
                distance: 0.5,
            },
        },
    };
    let error_text = |reply: &WireMsg| match reply {
        WireMsg::Error { detail } => detail.clone(),
        other => panic!("expected a typed refusal, got {other:?}"),
    };

    // Inline: connection 0 opens epoch 2, then speaks as client 7 at epoch 0
    // (stale — and the binding of 7 to its identity); connection 1, another
    // identity, speaks as client 7 (hijack). All small, nothing outstanding.
    let mut reference = ShardedCoordinator::new(3, 1);
    let replies = mux.exchange(&[(0, begin.clone())]).unwrap();
    assert_eq!(replies[0].1, reply_in_memory(&mut reference, &begin));
    let stale_inline = error_text(&mux.exchange(&[(0, as_client_7(0))]).unwrap()[0].1);
    let hijack_inline = error_text(&mux.exchange(&[(1, as_client_7(2))]).unwrap()[0].1);
    let stats = wait_for(&reactor, "inline replies never counted", |s| {
        s.frames_sent == 3
    });
    assert_eq!(stats.answered_inline, 3);
    assert_eq!(
        stale_inline,
        error_text(&reply_in_memory(&mut reference, &as_client_7(0)))
    );
    assert!(stale_inline.contains("stale"), "{stale_inline}");
    assert!(
        hijack_inline.contains("session hijack refused"),
        "{hijack_inline}"
    );

    // Routed: the same two frames, each behind a 6.4 KB registry the gate
    // holds at the router until both frames of the burst are decoded.
    let mut routed = Vec::new();
    for (conn, client, frame) in [(0, 0, as_client_7(0)), (1, 1, as_client_7(2))] {
        let decoded = reactor.stats().frames_received + 2;
        let burst = [(conn, envelope_msg(&uploads[client])), (conn, frame)];
        let replies = std::thread::scope(|scope| {
            scope.spawn(|| {
                wait_for(&reactor, "burst never decoded", |s| {
                    s.frames_received == decoded
                });
                open_gate.send(()).unwrap();
            });
            mux.exchange(&burst).unwrap()
        });
        assert_eq!(replies.len(), 2);
        routed.push(error_text(&replies[1].1));
    }
    let stats = wait_for(&reactor, "routed replies never counted", |s| {
        s.frames_sent == 7
    });
    assert_eq!(stats.answered_inline, 3, "all four went through the router");
    assert_eq!(routed, [stale_inline, hijack_inline]);
    mux.shutdown().unwrap();
    wait_for(&reactor, "connections never drained", |s| {
        s.connections_closed == 2
    });
    assert!(reactor.shutdown().is_some());
}

#[test]
fn a_request_followed_at_once_by_a_close_is_answered_then_reaped_on_both_backends() {
    // A read that comes back short ends the turn without probing the socket
    // again, so the EOF right behind the request is not seen by that read:
    // the level-triggered poller must report it on the next turn — after
    // the reply has left.
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default().with_backend(backend),
        )
        .unwrap();
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&burst_of(&[verdict_envelope(3)])).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        let reply = reply_then_hangup(&mut raw);
        assert!(
            matches!(&reply, WireMsg::Batch { envelopes } if envelopes.is_empty()),
            "{backend:?}: {reply:?}"
        );
        let what = format!("{backend:?}: the EOF behind a short read was never re-reported");
        let stats = wait_for(&reactor, &what, |s| s.connections_closed == 1);
        assert_eq!((stats.frames_received, stats.frames_sent), (1, 1));
        assert_eq!(stats.truncated_frames, 0, "{backend:?}");
        let state = reactor.shutdown().expect("listener state");
        assert_eq!(state.messages_received(), 1);
    }
}
