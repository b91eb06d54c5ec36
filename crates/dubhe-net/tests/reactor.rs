//! Acceptance pins for the event-driven listener.
//!
//! The bar, mirroring `dubhe-select`'s `networked_protocol.rs`: a full
//! registration + multi-time session served by the [`ReactorListener`] must
//! be *bit-identical* — same decrypted overall registry, same ciphertext
//! residues, same verdict, same canonical accounting — to the in-memory
//! coordinator, on both readiness backends. And every abuse a socket can
//! deliver (garbage, mid-frame stalls, a reader that stops reading) must
//! surface as typed flow control, never a panic or a hang.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_net::{MuxClient, MuxConfig, ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    read_frame, run_registration_with, run_try, ChannelPolicy, CodecKind, Coordinator, Envelope,
    InMemoryTransport, ListenerStats, Party, ProtocolMsg, ShardedCoordinator, TcpConfig,
    TcpTransport, TransportStats, WireMsg, SEALED_FRAME_OVERHEAD,
};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector};
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

/// One full session (registration + H=3 multi-time round) against an
/// arbitrary coordinator slot; returns everything the equivalence pins
/// compare.
fn drive_session<C: Coordinator>(
    dists: &[ClassDistribution],
    seed: u64,
    server: C,
) -> (Vec<u64>, (usize, f64), TransportStats, C) {
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut transport = InMemoryTransport::new();
    let mut run =
        run_registration_with(dists, &config, KEY_BITS, server, &mut transport, &mut rng).unwrap();

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

    let overall = run.overall_registry().to_vec();
    let verdict = run.agent.verdict().expect("all tries evaluated");
    (overall, verdict, *transport.stats(), run.server)
}

/// Blocks until `done` holds of the listener's stats and returns that
/// snapshot. The listener counts asynchronously to the client's reads, so a
/// test pins totals only after waiting here — and `done` must be a
/// condition on *monotonic* counters (`connections_closed == n`, never
/// `connections_open == 0`, which also holds before anything was accepted).
fn wait_for(
    reactor: &ReactorListener<ShardedCoordinator>,
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

    let (overall_mem, verdict_mem, stats_mem, server) =
        drive_session(&dists, 82, dubhe_select::CoordinatorServer::new(20));
    let total_mem = server.encrypted_total().expect("epoch complete");

    // The reactor must match on both readiness backends.
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 2),
            ReactorConfig::default().with_backend(backend),
        )
        .unwrap();
        let endpoint = TcpTransport::connect_with_config(
            reactor.addr(),
            TcpConfig::default().with_codec(CodecKind::Binary),
        )
        .unwrap();
        let (overall, verdict, stats, endpoint) = drive_session(&dists, 82, endpoint);
        assert_eq!(overall, overall_mem, "{backend:?}");
        assert_eq!(verdict, verdict_mem, "{backend:?}");
        assert_eq!(stats, stats_mem, "{backend:?}");
        endpoint.shutdown().unwrap();

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
        // Bit-identical ciphertext folds, element by element.
        let total = state.encrypted_total().expect("epoch complete");
        assert_eq!(total.len(), total_mem.len());
        for (a, b) in total.elements().iter().zip(total_mem.elements()) {
            assert_eq!(a.raw(), b.raw(), "{backend:?}: fold diverged from memory");
        }
        assert_eq!(state.messages_received(), server.messages_received());
        assert_eq!(state.bytes_received(), server.bytes_received());
        assert_eq!(state.last_verdict(), Some(verdict_mem));
    }
}

#[test]
fn required_channel_session_is_bit_identical_to_plaintext_on_both_backends() {
    let dists = clients(20, 91);
    let (overall_mem, verdict_mem, stats_mem, _server) =
        drive_session(&dists, 92, dubhe_select::CoordinatorServer::new(20));

    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 2),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required),
        )
        .unwrap();
        let pin = reactor
            .public_identity()
            .expect("required channel resolves an identity");
        let endpoint = TcpTransport::connect_with_config(
            reactor.addr(),
            TcpConfig::default()
                .with_codec(CodecKind::Binary)
                .with_channel(ChannelPolicy::Required)
                .with_expected_server(pin),
        )
        .unwrap();
        let (overall, verdict, stats, endpoint) = drive_session(&dists, 92, endpoint);
        // Every protocol-level ledger — decrypted registry, verdict, per-kind
        // transport accounting — is bit-identical with the channel on.
        assert_eq!(overall, overall_mem, "{backend:?}");
        assert_eq!(verdict, verdict_mem, "{backend:?}");
        assert_eq!(stats, stats_mem, "{backend:?}");
        endpoint.shutdown().unwrap();

        let what = format!("{backend:?}: connection never drained");
        let listener_stats = wait_for(&reactor, &what, |s| s.connections_closed == 1);
        assert_eq!(listener_stats.handshakes_completed, 1, "{backend:?}");
        assert_eq!(listener_stats.handshakes_failed, 0, "{backend:?}");
        assert_eq!(listener_stats.aead_rejections, 0, "{backend:?}");
        assert_eq!(listener_stats.downgrades_refused, 0, "{backend:?}");
        assert_eq!(listener_stats.decode_errors, 0, "{backend:?}");
        assert!(reactor.shutdown().is_some());
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
    let mut mux = MuxClient::connect(
        reactor.addr(),
        n,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
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
    mux.shutdown();

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
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB16);
    let keypair = dubhe_he::Keypair::generate(KEY_BITS, &mut rng);
    let mut one_hot = [0u64; 56];
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

/// What a sealed `DBH2` frame for `msg` weighs on the wire.
fn sealed_frame_bytes(msg: &WireMsg) -> usize {
    8 + CodecKind::Binary.encode(msg).unwrap().len() + SEALED_FRAME_OVERHEAD
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

// Seconds-long under a debug-build ChaCha20; CI runs it with --release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn multi_mib_sealed_broadcast_reaches_a_mux_client_byte_for_byte() {
    let n = 800;
    let (key_dispatch, uploads) = registry_uploads(n);
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let conns = 2;
    let mut mux = MuxClient::connect(
        reactor.addr(),
        conns,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
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
    mux.shutdown();

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

// Seconds-long under a debug-build ChaCha20; CI runs it with --release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn multi_mib_sealed_broadcast_reaches_tcp_transport_byte_for_byte() {
    let n = 800;
    let (key_dispatch, uploads) = registry_uploads(n);
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let mut client = TcpTransport::connect_with_config(
        reactor.addr(),
        TcpConfig::default()
            .with_codec(CodecKind::Binary)
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
    assert_eq!(
        stats.bytes_sent,
        wire.bytes_received + wire.frames_received * SEALED_FRAME_OVERHEAD
    );
    assert_eq!(
        wire.sealed_overhead_bytes,
        2 * (n + 1) * SEALED_FRAME_OVERHEAD
    );
    let reply = WireMsg::Batch {
        envelopes: broadcast,
    };
    assert!(sealed_frame_bytes(&reply) > 2 << 20, "a multi-MiB frame");
    assert!(stats.bytes_sent > sealed_frame_bytes(&reply));
    client.shutdown().unwrap();
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
        // downgrade attempt, in the codec the client attempted, then cut.
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        dubhe_select::protocol::write_frame_with(&mut raw, &verdict_envelope(0), CodecKind::Binary)
            .unwrap();
        let (reply, _) = read_frame(&mut raw).expect("a refusal frame before the hangup");
        match reply {
            WireMsg::Error { detail } => {
                assert!(detail.contains("authenticated channel"), "{detail}")
            }
            other => panic!("expected a downgrade refusal, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        // Handshake slow-loris: a connection that opens the prelude and
        // stalls is swept at the read timeout, with a courtesy notice.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBHS").unwrap(); // valid handshake magic, then silence
        let (reply, _) = read_frame(&mut loris).expect("a stall notice before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(loris.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

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
        let mut honest = TcpTransport::connect_with_config(
            reactor.addr(),
            TcpConfig::default()
                .with_read_timeout(Duration::from_secs(5))
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
fn mux_client_multiplexes_many_persistent_connections() {
    let n = 128;
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut mux = MuxClient::connect(
        reactor.addr(),
        n,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
            .with_exchange_timeout(Duration::from_secs(30)),
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
    mux.shutdown();

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
    while reactor.stats().backpressure_disconnects == 0 {
        if dubhe_select::protocol::write_frame_with(&mut raw, &bulky, CodecKind::Binary).is_err() {
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
    let mut healthy = TcpTransport::connect_with_config(
        reactor.addr(),
        TcpConfig::default().with_read_timeout(Duration::from_secs(5)),
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
        let (reply, _) = read_frame(&mut raw).expect("an error frame before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("malformed"), "{detail}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        // Mid-frame stall: header starts, then silence. The reactor must
        // reap the connection after the read timeout — with a courtesy
        // error frame — and count it as truncated.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBH2").unwrap(); // valid magic, nothing more
        let (reply, _) = read_frame(&mut loris).expect("a stall notice before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(loris.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        let stats = reactor.stats();
        assert_eq!(stats.decode_errors, 1, "{backend:?}");
        assert_eq!(stats.truncated_frames, 1, "{backend:?}");
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
    let mut frame = Vec::new();
    dubhe_select::protocol::write_frame_with(
        &mut frame,
        &WireMsg::AnnounceTry {
            try_index: 0,
            participants: vec![1, 2, 3],
        },
        CodecKind::Binary,
    )
    .unwrap();
    for byte in frame {
        raw.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (reply, _) = read_frame(&mut raw).expect("the trickled frame decodes");
    assert!(matches!(reply, WireMsg::Ack), "got {reply:?}");
    let stats = reactor.stats();
    assert_eq!(stats.truncated_frames, 0);
    assert_eq!(stats.decode_errors, 0);
    drop(reactor);
}
