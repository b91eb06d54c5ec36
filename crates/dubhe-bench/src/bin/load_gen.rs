//! `load_gen` — the network-layer load bench (`results/BENCH_net.json`).
//!
//! Drives 10³–10⁵ concurrent synthetic clients, each on its own persistent
//! framed connection, through a full selection session — public-key
//! dispatch, the registration epoch, `H` multi-time tries and the verdict —
//! against the event-loop [`ReactorListener`] from `dubhe-net`.
//!
//! The client side is a single-threaded [`MuxClient`] multiplexing every
//! connection through one poller; the server side runs in a **subprocess**
//! (`--serve`), because a loopback connection costs one file descriptor on
//! each end and the default `RLIMIT_NOFILE` hard cap (20 000 here) would
//! otherwise halve the reachable connection count.
//!
//! Every run is an acceptance check, not just a stopwatch: the parent folds
//! the identical envelope set into an in-process [`ShardedCoordinator`] and
//! compares a digest of the final ciphertext residues — the listener must
//! be *bit-identical* to the reference, or the bench aborts.
//!
//! ```text
//! load_gen [--clients 10000] [--shards 4] [--key-bits 256] [--tries 3]
//!          [--select 2048] [--seed 42] [--channel]
//! ```
//!
//! `--channel` runs the whole bench over the authenticated channel: both
//! sides derive the listener's long-term identity deterministically from the
//! shared `--seed` (so the parent can pin it without extra IPC), every
//! connection runs the X25519 handshake, and every frame crosses the socket
//! AEAD-sealed. The digest acceptance check additionally asserts the
//! listener's auth counters: one completed handshake per connection, zero
//! failures, zero AEAD rejections, zero downgrades.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dubhe_bench::dump_json;
use dubhe_he::{EncryptedVector, Keypair, PublicKey};
use dubhe_net::{MuxClient, MuxConfig, ReactorConfig, ReactorListener};
use dubhe_select::protocol::stats::{LatencySummary, ListenerStats};
use dubhe_select::protocol::{
    ChannelPolicy, Coordinator, Envelope, NodeIdentity, Party, ProtocolMsg, ShardedCoordinator,
    WireMsg,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Distinct ciphertexts are pooled and cycled across clients: the folds stay
/// real (every registry multiplies into the running total), but pool-sized
/// encryption cost keeps a 10⁴-client session affordable on one core.
const POOL: usize = 64;
/// Label classes of the synthetic registries/distributions.
const CLASSES: usize = 10;
const EPOCH: u64 = 0;
const VERDICT: (usize, f64) = (0, 0.25);
/// Salt folded into `--seed` to derive the listener's long-term channel
/// identity. Parent and `--serve` child share seed and salt, so the parent
/// can compute the public key to pin without an extra IPC line.
const IDENTITY_SALT: u64 = 0x5EA1_1DE0_57A7_1C5E;

fn server_identity_seed(seed: u64) -> u64 {
    seed ^ IDENTITY_SALT
}

fn value_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed_after<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    value_after(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------------
// The deterministic session script, shared by the wire runs and the
// in-process reference so their folds can be compared bit-for-bit.
// ---------------------------------------------------------------------------

struct SessionScript {
    public_key: PublicKey,
    registries: Vec<EncryptedVector>,
    distributions: Vec<EncryptedVector>,
    tries: usize,
    select: usize,
}

impl SessionScript {
    fn build(key_bits: u64, tries: usize, select: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keypair = Keypair::generate(key_bits, &mut rng);
        let public_key = keypair.public.clone();
        let registries = (0..POOL)
            .map(|i| {
                let mut onehot = vec![0u64; CLASSES];
                onehot[i % CLASSES] = 1;
                EncryptedVector::encrypt_u64(&public_key, &onehot, &mut rng)
            })
            .collect();
        let distributions = (0..POOL)
            .map(|i| {
                let scaled: Vec<u64> = (0..CLASSES).map(|c| ((i + c) % 97) as u64).collect();
                EncryptedVector::encrypt_u64(&public_key, &scaled, &mut rng)
            })
            .collect();
        SessionScript {
            public_key,
            registries,
            distributions,
            tries,
            select,
        }
    }

    fn key_dispatch(&self) -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: self.public_key.clone(),
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
                registry: self.registries[client % POOL].clone(),
            },
        }
    }

    fn participants(&self, try_index: usize, n: usize) -> Vec<usize> {
        let k = self.select.min(n);
        let start = (try_index * 997) % n;
        (0..k).map(|j| (start + j) % n).collect()
    }

    fn distribution(&self, client: usize, try_index: usize) -> Envelope {
        Envelope {
            from: Party::Client(client),
            to: Party::Server,
            epoch: EPOCH,
            msg: ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution: self.distributions[(client + 7 * try_index) % POOL].clone(),
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

    /// Folds the whole session into an in-process coordinator and returns
    /// `(digest, messages_received)` — the reference every wire run must hit.
    fn reference(&self, n: usize, shards: usize) -> (u64, usize) {
        let mut server = ShardedCoordinator::new(n, shards);
        server.deliver(self.key_dispatch()).expect("key dispatch");
        for client in 0..n {
            server.deliver(self.registry(client)).expect("registry");
        }
        for try_index in 0..self.tries {
            let participants = self.participants(try_index, n);
            Coordinator::announce_try(&mut server, try_index, &participants).expect("announce");
            for &client in &participants {
                server
                    .deliver(self.distribution(client, try_index))
                    .expect("distribution");
            }
        }
        server.deliver(self.verdict()).expect("verdict");
        (state_digest(&server), server.messages_received())
    }
}

/// FNV-1a over the final fold's ciphertext residues: equal digests ⇔ the
/// coordinator aggregated bit-identical totals.
fn state_digest(state: &ShardedCoordinator) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let total = state.encrypted_total().expect("registration completed");
    for ct in total.elements() {
        let bytes = ct.raw().to_bytes_be();
        eat(&(bytes.len() as u64).to_be_bytes());
        eat(&bytes);
    }
    hash
}

// ---------------------------------------------------------------------------
// --serve: the listener subprocess.
// ---------------------------------------------------------------------------

/// Serves one session: binds the listener, prints `ADDR`, waits for the
/// parent to finish (a line or EOF on stdin), then reports the final
/// coordinator digest and the listener's connection metrics.
fn serve(n: usize, shards: usize, channel: ChannelPolicy, seed: u64) {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(n, shards),
        ReactorConfig::default()
            .with_channel(channel)
            .with_identity_seed(server_identity_seed(seed)),
    )
    .expect("spawn listener");
    announce_ready(listener.addr());
    wait_for_parent();
    let stats = listener.stats();
    let state = listener.shutdown().expect("coordinator state");
    println!("MSGS {}", state.messages_received());
    let (best_try, distance) = state.last_verdict().expect("verdict recorded");
    println!("VERDICT {best_try} {distance}");
    println!("DIGEST {:016x}", state_digest(&state));
    println!(
        "STATS {}",
        serde_json::to_string(&stats).expect("stats serialize")
    );
}

fn announce_ready(addr: std::net::SocketAddr) {
    println!("ADDR {addr}");
    std::io::stdout().flush().expect("flush");
}

fn wait_for_parent() {
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
}

// ---------------------------------------------------------------------------
// The parent: drive one session over the wire and time its phases.
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct BackendReport {
    clients: usize,
    connect_s: f64,
    registration_s: f64,
    registrations_per_s: f64,
    tries: usize,
    participants_per_try: usize,
    tries_s: f64,
    rounds_per_s: f64,
    latency_us: LatencySummary,
    server: ListenerStats,
    digest: String,
    bit_identical_to_reference: bool,
}

#[derive(Serialize)]
struct NetBenchReport {
    clients: usize,
    shards: usize,
    key_bits: u64,
    tries: usize,
    select: usize,
    codec: String,
    channel: String,
    ciphertext_pool: usize,
    seed: u64,
    runs: Vec<BackendReport>,
}

struct ServerChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: std::net::SocketAddr,
}

fn spawn_server(n: usize, shards: usize, channel: ChannelPolicy, seed: u64) -> ServerChild {
    let exe = std::env::current_exe().expect("current exe");
    let mut args = vec![
        "--serve".to_string(),
        "--clients".to_string(),
        n.to_string(),
        "--shards".to_string(),
        shards.to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    if channel.is_required() {
        args.push("--channel".to_string());
    }
    let mut child = Command::new(exe)
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn --serve subprocess");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read ADDR line");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .unwrap_or_else(|| panic!("expected ADDR line, got {line:?}"))
        .parse()
        .expect("parse listener address");
    ServerChild {
        child,
        stdout,
        addr,
    }
}

/// Replies must be `Ack`/`Batch`; a single `Error` frame fails the bench.
fn check_replies(phase: &str, replies: &[(usize, WireMsg)]) {
    for (conn, reply) in replies {
        if let WireMsg::Error { detail } = reply {
            panic!("{phase}: connection {conn} got an error reply: {detail}");
        }
    }
}

fn run_backend(
    n: usize,
    shards: usize,
    script: &SessionScript,
    channel: ChannelPolicy,
    seed: u64,
) -> BackendReport {
    let (ref_digest, ref_msgs) = script.reference(n, shards);

    println!("[n={n}] spawning listener subprocess...");
    let mut server = spawn_server(n, shards, channel, seed);

    let mut mux_config = MuxConfig::default().with_exchange_timeout(Duration::from_secs(300));
    if channel.is_required() {
        // The child derived its identity from the shared seed; pin it.
        let pin = NodeIdentity::from_seed(server_identity_seed(seed)).public_bytes();
        mux_config = mux_config
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(pin);
    }
    let t = Instant::now();
    let mut mux = MuxClient::connect(server.addr, n, mux_config).expect("connect mux clients");
    let connect_s = t.elapsed().as_secs_f64();
    println!("[n={n}] {n} connections in {connect_s:.2}s");

    // Key dispatch: one control envelope from the agent, on connection 0.
    let replies = mux
        .exchange(&[(
            0,
            WireMsg::Envelope {
                envelope: script.key_dispatch(),
            },
        )])
        .expect("key dispatch");
    check_replies("key dispatch", &replies);

    // Registration epoch: every client uploads its encrypted registry on its
    // own connection; the upload completing the cohort pulls the broadcast.
    let t = Instant::now();
    for client in 0..n {
        mux.send(
            client,
            &WireMsg::Envelope {
                envelope: script.registry(client),
            },
        )
        .expect("queue registry");
    }
    let replies = mux.collect(n).expect("registration replies");
    check_replies("registration", &replies);
    let registration_s = t.elapsed().as_secs_f64();
    println!("[n={n}] registration epoch in {registration_s:.2}s");

    // Multi-time selection: H tries of announce → k contributions → sum.
    let k = script.select.min(n);
    let t = Instant::now();
    for try_index in 0..script.tries {
        let participants = script.participants(try_index, n);
        let replies = mux
            .exchange(&[(
                0,
                WireMsg::AnnounceTry {
                    try_index,
                    participants: participants.clone(),
                },
            )])
            .expect("announce try");
        check_replies("announce", &replies);
        for &client in &participants {
            mux.send(
                client,
                &WireMsg::Envelope {
                    envelope: script.distribution(client, try_index),
                },
            )
            .expect("queue distribution");
        }
        let replies = mux.collect(participants.len()).expect("try replies");
        check_replies("try", &replies);
    }
    let replies = mux
        .exchange(&[(
            0,
            WireMsg::Envelope {
                envelope: script.verdict(),
            },
        )])
        .expect("verdict");
    check_replies("verdict", &replies);
    let tries_s = t.elapsed().as_secs_f64();
    println!(
        "[n={n}] {} tries x {k} participants in {tries_s:.2}s",
        script.tries
    );

    let latency_us = mux.latency_summary();
    mux.shutdown();

    // Tell the child to wrap up, then read its report.
    let mut stdin = server.child.stdin.take().expect("child stdin");
    let _ = stdin.write_all(b"DONE\n");
    drop(stdin);
    let mut msgs = None;
    let mut verdict = None;
    let mut digest = None;
    let mut stats: Option<ListenerStats> = None;
    let mut line = String::new();
    while {
        line.clear();
        server.stdout.read_line(&mut line).expect("child report") > 0
    } {
        if let Some(v) = line.trim().strip_prefix("MSGS ") {
            msgs = v.parse::<usize>().ok();
        } else if let Some(v) = line.trim().strip_prefix("VERDICT ") {
            verdict = Some(v.to_string());
        } else if let Some(v) = line.trim().strip_prefix("DIGEST ") {
            digest = Some(v.to_string());
        } else if let Some(v) = line.trim().strip_prefix("STATS ") {
            stats = serde_json::from_str(v).ok();
        }
    }
    let status = server.child.wait().expect("child exit");
    assert!(status.success(), "[n={n}] server subprocess failed");
    let msgs = msgs.expect("MSGS line");
    let digest = digest.expect("DIGEST line");
    let verdict = verdict.expect("VERDICT line");
    let stats = stats.expect("STATS line");

    // The acceptance pins: the listener's folds must be bit-identical to the
    // in-process reference, with the identical message count and verdict.
    let expected_digest = format!("{ref_digest:016x}");
    assert_eq!(
        digest, expected_digest,
        "[n={n}] ciphertext folds diverged from the in-process reference"
    );
    assert_eq!(msgs, ref_msgs, "[n={n}] message count diverged");
    assert_eq!(
        verdict,
        format!("{} {}", VERDICT.0, VERDICT.1),
        "[n={n}] verdict diverged"
    );
    // The auth counters are part of the acceptance surface: with the channel
    // on, every connection authenticated exactly once and nothing was
    // rejected; with it off, no handshake ever ran.
    if channel.is_required() {
        assert_eq!(
            stats.handshakes_completed, n,
            "[n={n}] every connection must complete its handshake"
        );
    } else {
        assert_eq!(stats.handshakes_completed, 0, "[n={n}]");
    }
    assert_eq!(stats.handshakes_failed, 0, "[n={n}]");
    assert_eq!(stats.aead_rejections, 0, "[n={n}]");
    assert_eq!(stats.downgrades_refused, 0, "[n={n}]");
    println!(
        "[n={n}] bit-identical to reference (digest {digest}); p50 {:.0}us p99 {:.0}us, peak queue {}B",
        latency_us.p50_us, latency_us.p99_us, stats.peak_write_queue
    );

    BackendReport {
        clients: n,
        connect_s,
        registration_s,
        registrations_per_s: n as f64 / registration_s,
        tries: script.tries,
        participants_per_try: k,
        tries_s,
        rounds_per_s: script.tries as f64 / tries_s,
        latency_us,
        server: stats,
        digest,
        bit_identical_to_reference: true,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients: usize = parsed_after(&args, "--clients", 10_000);
    let shards: usize = parsed_after(&args, "--shards", 4);
    let key_bits: u64 = parsed_after(&args, "--key-bits", 256);
    let tries: usize = parsed_after(&args, "--tries", 3);
    let select: usize = parsed_after(&args, "--select", 2048);
    let seed: u64 = parsed_after(&args, "--seed", 42);
    let channel = if args.iter().any(|a| a == "--channel") {
        ChannelPolicy::Required
    } else {
        ChannelPolicy::Plaintext
    };

    if args.iter().any(|a| a == "--serve") {
        serve(clients, shards, channel, seed);
        return;
    }

    println!(
        "load_gen: {clients} clients, {shards} shards, {key_bits}-bit keys, \
         H={tries} tries of {select}, DBH2 framing, channel {channel:?}"
    );
    let script = SessionScript::build(key_bits, tries, select, seed);
    let runs = vec![run_backend(clients, shards, &script, channel, seed)];

    let report = NetBenchReport {
        clients,
        shards,
        key_bits,
        tries,
        select,
        codec: "DBH2".to_string(),
        channel: format!("{channel:?}").to_lowercase(),
        ciphertext_pool: POOL,
        seed,
        runs,
    };
    dump_json("BENCH_net", &report);
}
