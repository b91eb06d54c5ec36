//! Equivalence and robustness pins for the networked/sharded coordinator.
//!
//! The acceptance bar of the transport work: a `ShardedCoordinator` at N ∈
//! {1, 4} — in memory or behind a TCP loopback — must produce, on the same
//! seed, the same decrypted overall registry, the same verdict, the same
//! canonical byte accounting, and ciphertext residues *bit-identical* to the
//! definition of the fold: the left-to-right `EncryptedVector::add` chain
//! over the uploads in arrival order. And the TCP layer must surface every
//! failure mode as a `ProtocolError`, never a panic or a hang.
//!
//! The [`Client`]'s own tests live here rather than beside
//! it: they need a live [`ReactorListener`], and only an integration test
//! can hand this crate's coordinator to the `dubhe-net` dev-dependency.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::EncryptedVector;
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::connection::Event;
use dubhe_select::protocol::{
    run_registration, run_try, ChannelPolicy, Client, ClientConfig, Connection, Coordinator,
    Envelope, InMemoryTransport, ListenerStats, Party, ProtocolMsg, ShardedCoordinator,
    TransportStats, WireMsg, FRAME_MAGIC_V2, HANDSHAKE_WIRE_BYTES, MAX_FRAME_BYTES,
    SEALED_FRAME_OVERHEAD,
};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector, ProtocolError};
use rand::SeedableRng;

const KEY_BITS: u64 = 256;

/// The client config every test here dials with: a short exchange timeout so
/// a wedged peer fails the test fast instead of stalling the suite.
fn quick() -> ClientConfig {
    ClientConfig::default().with_exchange_timeout(Duration::from_secs(5))
}

/// Blocks until `done` holds of the listener's stats and returns that
/// snapshot: the listener counts asynchronously to the client's reads, so
/// totals are pinned only after waiting on a *monotonic* counter.
fn wait_for(
    listener: &ReactorListener<ShardedCoordinator>,
    what: &str,
    done: impl Fn(&ListenerStats) -> bool,
) -> ListenerStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = listener.stats();
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "{what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn verdict(best_try: usize) -> Envelope {
    Envelope {
        from: Party::Agent,
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try,
            distance: 0.1,
        },
    }
}

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

#[test]
fn sharded_coordinator_is_bit_identical_to_single_for_n_1_and_4() {
    // "Single" is the single fold: one left-to-right add chain. Both shard
    // counts must land on it bit for bit, and agree with each other on
    // everything else a session produces.
    let dists = clients(20, 51);
    let [one, four] =
        [1usize, 4].map(|shards| drive_session(&dists, 52, ShardedCoordinator::new(20, shards)));

    for (shards, session) in [(1, &one), (4, &four)] {
        let total = session.server.encrypted_total().expect("epoch complete");
        assert_is_chain(&total, &session.registry_chain, &format!("shards={shards}"));
    }
    // Same seed, same uploads: the two sessions folded the same ciphertexts.
    assert_is_chain(
        &four.registry_chain,
        &one.registry_chain,
        "recorded uploads",
    );
    assert_eq!(four.overall, one.overall);
    assert_eq!(four.verdict, one.verdict);
    assert_eq!(four.stats, one.stats);
    assert_eq!(
        four.server.messages_received(),
        one.server.messages_received()
    );
    assert_eq!(four.server.bytes_received(), one.server.bytes_received());
}

#[test]
fn tcp_loopback_session_is_bit_identical_to_in_memory_under_both_codecs() {
    let dists = clients(24, 61);

    let memory = drive_session(&dists, 62, ShardedCoordinator::new(24, 1));
    let total_mem = memory.server.encrypted_total().expect("epoch complete");
    assert_is_chain(&total_mem, &memory.registry_chain, "in memory, 1 shard");

    // Same exchange, but every server-bound envelope crosses a real socket
    // to a four-shard listener as a `DBH2` frame. Decisions and canonical
    // accounting must be identical; only the measured framing is added.
    let listener = ReactorListener::spawn(ShardedCoordinator::new(24, 4)).unwrap();
    let endpoint = Client::connect(listener.addr(), 1, quick()).unwrap();
    let tcp = drive_session(&dists, 62, endpoint);

    assert_eq!(tcp.overall, memory.overall);
    assert_eq!(tcp.verdict, memory.verdict);
    // The local transport saw the identical message flow...
    assert_eq!(tcp.stats, memory.stats);
    // ...and the socket actually carried it: framed bytes exceed the
    // canonical ciphertext accounting (framing is not free), but by no more
    // than 10 % — the paper's communication model prices a message at its
    // canonical size, and `DBH2` adds only a constant header per frame and
    // per vector.
    let wire = *tcp.server.wire_stats();
    let canonical = memory.stats.total().bytes;
    assert!(wire.frames_sent > 0 && wire.frames_received > 0);
    assert!(
        canonical < wire.total_bytes() && wire.total_bytes() * 10 <= canonical * 11,
        "framed traffic {} should sit within 1.10x of canonical bytes {canonical}",
        wire.total_bytes(),
    );
    tcp.server.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("listener state");
    // The remote four-shard coordinator folded the uploads this session
    // recorded into exactly their add chain, and saw what the in-memory
    // one-shard coordinator saw, in canonical units.
    let total = coordinator.encrypted_total().expect("epoch complete");
    assert_is_chain(&total, &tcp.registry_chain, "over TCP, 4 shards");
    assert_is_chain(&total, &total_mem, "over TCP vs in memory");
    assert_eq!(
        coordinator.messages_received(),
        memory.server.messages_received()
    );
    assert_eq!(coordinator.bytes_received(), memory.server.bytes_received());
    assert_eq!(coordinator.last_verdict(), Some(memory.verdict));
}

#[test]
fn remote_coordinator_relays_protocol_errors() {
    // A registry from an unknown client must come back as a typed remote
    // rejection, not a hang or a dropped connection.
    let dists = clients(4, 71);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(72);

    let listener = ReactorListener::spawn(ShardedCoordinator::new(4, 2)).unwrap();
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

    // Replay client 0's registration after the epoch completed.
    let registry =
        dubhe_he::EncryptedVector::encrypt_u64(run.agent.public_key(), &vec![0u64; 56], &mut rng);
    let err = run
        .server
        .deliver(Envelope {
            from: Party::Client(0),
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::EncryptedRegistry {
                client: 0,
                registry,
            },
        })
        .unwrap_err();
    match err {
        ProtocolError::Remote { detail } => {
            assert!(detail.contains("after the total was broadcast"), "{detail}");
        }
        other => panic!("expected a relayed remote error, got {other}"),
    }
}

#[test]
fn truncated_frames_are_a_counted_hangup() {
    // A correct magic and a length announcing 100 bytes — cut off inside
    // the length, then inside the payload, before the client half-closes.
    // The listener counts the truncation and hangs up; the peer reads a
    // typed disconnect, never a hang.
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut frame = FRAME_MAGIC_V2.to_vec();
    frame.extend_from_slice(&100u32.to_be_bytes());
    frame.extend_from_slice(b"abc");
    for cut in [6, frame.len()] {
        let mut raw = TcpStream::connect(listener.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&frame[..cut]).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let closed = Connection::plaintext(MAX_FRAME_BYTES).next_event(&mut raw);
        assert!(
            matches!(closed, Err(ProtocolError::Disconnected)),
            "{closed:?}"
        );
    }
    let stats = wait_for(&listener, "truncations never counted", |s| {
        s.connections_closed == 2
    });
    assert_eq!(stats.truncated_frames, 2);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn mid_exchange_disconnect_is_an_error_not_a_hang() {
    // The "server" accepts and immediately drops the connection.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let killer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });
    let mut endpoint = Client::connect(addr, 1, quick()).unwrap();
    killer.join().unwrap();
    let err = endpoint.deliver(verdict(0)).unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::Disconnected
                | ProtocolError::TruncatedFrame { .. }
                | ProtocolError::Io { .. }
        ),
        "unexpected error shape: {err}"
    );
}

#[test]
fn silent_peer_times_out_instead_of_hanging() {
    // The "server" accepts and never replies — it holds the socket open
    // until the test releases it — so only the client's exchange timeout can
    // bound the wait.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, released) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let _ = released.recv();
        drop(stream);
    });
    let mut endpoint = Client::connect(
        addr,
        1,
        ClientConfig::default().with_exchange_timeout(Duration::from_millis(300)),
    )
    .unwrap();
    let started = Instant::now();
    let err = endpoint
        .announce_try(0, &[1, 2, 3])
        .expect_err("silent peer must not look like success");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timed out too slowly: {:?}",
        started.elapsed()
    );
    assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
    release.send(()).unwrap();
    holder.join().unwrap();
}

#[test]
fn a_peer_that_never_reads_cannot_hang_a_send() {
    // The "server" accepts and never reads. Once the kernel buffers on both
    // ends are full, only the exchange timeout bounds the write of a request
    // larger than they are.
    let peer = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let config = ClientConfig::default().with_exchange_timeout(Duration::from_millis(300));
    let mut client = Client::connect(peer.local_addr().unwrap(), 1, config).unwrap();
    let (_silent, _) = peer.accept().unwrap();
    // A 24 MiB registry without the encryption work: one ciphertext, repeated.
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let kp = dubhe_he::Keypair::generate(KEY_BITS, &mut rng);
    let one = EncryptedVector::encrypt_u64(&kp.public, &[1], &mut rng).elements()[0].clone();
    let registry = EncryptedVector::from_ciphertexts(&kp.public, vec![one; 400_000]).unwrap();
    let upload = Envelope {
        from: Party::Client(0),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::EncryptedRegistry {
            client: 0,
            registry,
        },
    };
    let started = Instant::now();
    let err = client.deliver(upload).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timed out too slowly: {:?}",
        started.elapsed()
    );
    assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
}

#[test]
fn connect_to_a_dead_port_fails_cleanly() {
    // Bind-then-drop guarantees the port is closed.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let err = Client::connect(addr, 1, ClientConfig::default()).unwrap_err();
    assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
}

#[test]
fn an_oversized_request_is_refused_before_a_byte_reaches_the_socket() {
    use std::io::Read;
    // Plaintext, against a bare socket: the peer reads nothing at all.
    let peer = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let mut client = Client::connect(
        peer.local_addr().unwrap(),
        1,
        quick().with_max_frame_bytes(16),
    )
    .unwrap();
    let (mut accepted, _) = peer.accept().unwrap();
    let err = client.deliver(verdict(0)).unwrap_err();
    assert!(
        matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
        "{err}"
    );
    assert_eq!(client.wire_stats().frames_sent, 0);
    drop(client);
    let mut seen = Vec::new();
    assert_eq!(accepted.read_to_end(&mut seen).unwrap(), 0, "{seen:?}");

    // Sealed, against the listener: a half-written frame or a consumed
    // sequence number would desynchronise the channel, so the refusal is
    // proven by the next request being served as the connection's first.
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let config = quick()
        .with_channel(ChannelPolicy::Required)
        .with_max_frame_bytes(64);
    let mut client = Client::connect(listener.addr(), 1, config).unwrap();
    let err = client.announce_try(0, &[1; 20]).unwrap_err();
    assert!(
        matches!(err, ProtocolError::FrameTooLarge { max: 64, .. }),
        "{err}"
    );
    assert!(client.deliver(verdict(1)).unwrap().is_empty());
    assert_eq!(client.wire_stats().frames_sent, 1);
    let stats = wait_for(&listener, "reply never counted", |s| s.frames_sent == 1);
    assert_eq!(stats.frames_received, 1);
    assert_eq!(stats.aead_rejections + stats.decode_errors, 0);
    client.shutdown().unwrap();
}

#[test]
fn listener_spawns_serves_and_shuts_down() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 2)).unwrap();
    let mut client = Client::connect(listener.addr(), 1, quick()).unwrap();
    // A verdict is always accepted and triggers nothing.
    let out = client.deliver(verdict(0)).unwrap();
    assert!(out.is_empty());
    assert_eq!(client.wire_stats().frames_sent, 1);
    assert_eq!(client.wire_stats().frames_received, 1);
    assert!(client.wire_stats().total_bytes() > 0);
    let stats = wait_for(&listener, "reply never counted", |s| {
        s.frames_sent == 1 && s.latency.count == 1
    });
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.frames_received, 1);
    assert_eq!(stats.frames_sent, 1);
    assert!(stats.bytes_received > 0 && stats.bytes_sent > 0);
    client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 1);
    assert_eq!(coordinator.last_verdict(), Some((0, 0.1)));
}

#[test]
fn idle_connection_survives_and_shutdown_stays_prompt() {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_read_timeout(Duration::from_millis(50)),
    )
    .unwrap();
    let mut client = Client::connect(listener.addr(), 1, quick()).unwrap();
    // Stay silent past the read timeout, like a client that is busy training
    // between protocol rounds: a second connection stalls mid-frame, and the
    // listener cutting *it* proves the timeout elapsed and the sweep ran
    // while the idle one sat there. Quiet between frames is not an error.
    let mut stalled = TcpStream::connect(listener.addr()).unwrap();
    stalled.write_all(&FRAME_MAGIC_V2).unwrap();
    wait_for(&listener, "stalled connection never swept", |s| {
        s.truncated_frames == 1
    });
    client
        .deliver(verdict(2))
        .expect("connection still healthy");
    // Drop the listener while the (idle) connection stays open: shutdown
    // must complete via the stop flag, not wait for a client hangup.
    let started = Instant::now();
    drop(listener);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "listener shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_retired_dbh1_reply_is_a_malformed_frame_to_both_connectors() {
    // A peer still answering in the retired JSON framing (`DBH1`): its
    // reply is an unknown magic like any other, refused as a typed
    // malformed frame whether the client is driven as a coordinator or
    // through a phase of its own.
    let peer = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = peer.local_addr().unwrap();
    let json = br#"{"Batch":{"envelopes":[]}}"#;
    let mut reply = b"DBH1".to_vec();
    reply.extend_from_slice(&(json.len() as u32).to_be_bytes());
    reply.extend_from_slice(json);
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = peer.accept().unwrap();
            let request = Connection::plaintext(MAX_FRAME_BYTES).next_event(&mut stream);
            assert!(
                matches!(&request, Ok(Event::Frame { msg, .. })
                    if matches!(msg.clone().force(), Ok(WireMsg::Envelope { .. }))),
                "{request:?}"
            );
            stream.write_all(&reply).unwrap();
        }
    });
    let assert_malformed = |err: ProtocolError| {
        assert!(
            matches!(&err, ProtocolError::MalformedFrame { detail } if detail.contains("bad magic")),
            "{err}"
        );
    };

    let mut client = Client::connect(addr, 1, quick()).unwrap();
    assert_malformed(client.deliver(verdict(0)).unwrap_err());
    let mut mux = Client::connect(
        addr,
        1,
        ClientConfig::default().with_exchange_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    let request = WireMsg::Envelope {
        envelope: verdict(1),
    };
    assert_malformed(mux.exchange(&[(0, request)]).unwrap_err());
    server.join().unwrap();
}

#[test]
fn required_channel_serves_sealed_sessions() {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 2),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(99),
    )
    .unwrap();
    let server_pub = listener
        .public_identity()
        .expect("required listener has identity");
    let config = quick()
        .with_channel(ChannelPolicy::Required)
        .with_identity_seed(1)
        .with_expected_server(server_pub);
    let mut client = Client::connect(listener.addr(), 1, config).unwrap();
    assert_eq!(client.peer_identity(0), Some(server_pub));

    let out = client.deliver(verdict(3)).unwrap();
    assert!(out.is_empty());
    client.announce_try(0, &[1, 2]).unwrap();

    // The seal's cost lives in the overhead counters, not the
    // ledger-facing frame bytes.
    let wire = *client.wire_stats();
    assert_eq!(wire.frames_sent, 2);
    assert_eq!(wire.frames_received, 2);
    assert!(wire.handshake_bytes >= HANDSHAKE_WIRE_BYTES);
    assert_eq!(wire.sealed_overhead_bytes, 4 * SEALED_FRAME_OVERHEAD);

    client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 1);
    assert_eq!(coordinator.last_verdict(), Some((3, 0.1)));
}

#[test]
fn sealed_and_plaintext_sessions_meter_identical_protocol_bytes() {
    // The FL ledger charges wire bytes off these counters; turning the
    // channel on must not move them by a single byte. A whole session
    // (registration + three tries) each way.
    let dists = clients(24, 65);
    let run = |policy: ChannelPolicy| {
        let listener = ReactorListener::spawn_with(
            ShardedCoordinator::new(24, 2),
            ReactorConfig::default()
                .with_channel(policy)
                .with_identity_seed(7),
        )
        .unwrap();
        let mut config = quick().with_channel(policy).with_identity_seed(1);
        if let Some(pin) = listener.public_identity() {
            config = config.with_expected_server(pin);
        }
        let endpoint = Client::connect(listener.addr(), 1, config).unwrap();
        let session = drive_session(&dists, 66, endpoint);
        let wire = *session.server.wire_stats();
        session.server.shutdown().unwrap();
        drop(listener);
        (session.overall, session.verdict, session.stats, wire)
    };
    let (sealed_overall, sealed_verdict, sealed_stats, sealed) = run(ChannelPolicy::Required);
    let (plain_overall, plain_verdict, plain_stats, plain) = run(ChannelPolicy::Plaintext);
    assert_eq!(sealed_overall, plain_overall);
    assert_eq!(sealed_verdict, plain_verdict);
    assert_eq!(sealed_stats, plain_stats);
    assert_eq!(sealed.frames_sent, plain.frames_sent);
    assert_eq!(sealed.frames_received, plain.frames_received);
    assert_eq!(sealed.bytes_sent, plain.bytes_sent);
    assert_eq!(sealed.bytes_received, plain.bytes_received);
    assert_eq!(sealed.total_bytes(), plain.total_bytes());
    assert_eq!(plain.channel_overhead_bytes(), 0);

    // What the channel adds: exactly one handshake and exactly the seal on
    // every frame, both directions — within 15 % of the protocol bytes.
    let frames = sealed.frames_sent + sealed.frames_received;
    assert_eq!(sealed.handshake_bytes, HANDSHAKE_WIRE_BYTES);
    assert_eq!(sealed.sealed_overhead_bytes, frames * SEALED_FRAME_OVERHEAD);
    let protocol = sealed.total_bytes();
    assert!(
        (protocol + sealed.channel_overhead_bytes()) * 100 <= protocol * 115,
        "channel overhead {} B on {protocol} protocol B exceeds 1.15x",
        sealed.channel_overhead_bytes()
    );
}

#[test]
fn session_hijack_is_refused_and_reconnect_resumes() {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 4),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(42),
    )
    .unwrap();
    let pin = listener.public_identity().unwrap();
    let config_for = |seed: u64| {
        quick()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(seed)
            .with_expected_server(pin)
    };
    let client_envelope = Envelope {
        from: Party::Client(7),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try: 0,
            distance: 0.5,
        },
    };

    // Identity A speaks as ClientId 7 and binds it.
    let mut honest = Client::connect(listener.addr(), 1, config_for(1)).unwrap();
    honest.deliver(client_envelope.clone()).unwrap();

    // Identity B replaying ClientId 7 is refused with the typed error.
    let mut hijacker = Client::connect(listener.addr(), 1, config_for(2)).unwrap();
    let err = hijacker.deliver(client_envelope.clone()).unwrap_err();
    match err {
        ProtocolError::Remote { detail } => {
            assert!(detail.contains("session hijack refused"), "{detail}")
        }
        other => panic!("expected remote hijack refusal, got {other}"),
    }

    // The honest identity reconnecting resumes its binding untouched.
    honest.reconnect(0).unwrap();
    honest.deliver(client_envelope).unwrap();
    assert_eq!(honest.wire_stats().reconnects, 1);

    honest.shutdown().unwrap();
    let stats = listener.stats();
    assert_eq!(stats.handshakes_completed, 3);
    assert_eq!(stats.handshakes_failed, 0);
    drop(listener);
}

#[test]
fn concurrent_connections_are_served() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let addr = listener.addr();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, 1, quick()).unwrap();
                client.deliver(verdict(i)).unwrap();
                client.shutdown().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 4);
}
