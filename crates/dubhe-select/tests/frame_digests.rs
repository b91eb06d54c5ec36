//! Every frame of four fixed-seed sessions, pinned by digest.
//!
//! `wire_bytes_per_client` counts bytes; it would not notice two fields
//! swapped. This test runs a registration and one tentative try of `N = 160`
//! `TEST_KEY_BITS` clients at registry length 56 — element-wise and packed,
//! each bare and on the authenticated channel — through a client-role and a
//! server-role [`Connection`] over byte vectors, a [`ShardedCoordinator`]
//! answering behind the server. The element-wise registration broadcast is
//! about 580 KB, so on the channel it is a multi-record sealed frame.
//!
//! Each frame is pinned as the receiving connection released it: the
//! SHA-256 of its inner `DBH2` frame, and its length on the wire — the
//! frame's own length bare, its `DBHE` length sealed. The sealed sessions
//! run under fresh ephemeral keys, so their ciphertext is not pinned; their
//! inner frames are the bare sessions', byte for byte. The expected values
//! are the committed root `BENCH_frames.json`. On a mismatch the test names
//! the first differing frame and writes what it computed beside the build's
//! other test output, so an intended wire change updates the file in the
//! same diff.

use std::fmt::Write as _;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_he::TEST_KEY_BITS;
use dubhe_select::protocol::connection::Event;
use dubhe_select::protocol::{
    append_frame, run_registration, run_try, Connection, Coordinator, Envelope, InMemoryTransport,
    NodeIdentity, PackingPolicy, ShardedCoordinator, WireMsg, MAX_FRAME_BYTES,
};
use dubhe_select::{DubheConfig, ProtocolError};
use rand::SeedableRng;
use serde::Deserialize;

const CLIENTS: usize = 160;
const SEED: u64 = 0xD16E57;
const SCHEMA_VERSION: u64 = 1;

/// A coordinator slot that carries every call as a frame from a client-role
/// connection to a server-role one, answers it with a [`ShardedCoordinator`]
/// as the listener does, and carries the reply back — logging each frame.
struct Wired {
    client: Connection,
    server: Connection,
    coordinator: ShardedCoordinator,
    frames: Vec<String>,
}

impl Wired {
    fn new(sealed: bool, coordinator: ShardedCoordinator) -> Wired {
        let (mut client, mut server) = if sealed {
            (
                Connection::client(&NodeIdentity::from_seed(1), None, MAX_FRAME_BYTES),
                Connection::server(NodeIdentity::from_seed(2), MAX_FRAME_BYTES),
            )
        } else {
            (
                Connection::plaintext(MAX_FRAME_BYTES),
                Connection::plaintext(MAX_FRAME_BYTES),
            )
        };
        if sealed {
            for (from, to) in [(0, 1), (1, 0), (0, 1)] {
                let pair = [&mut client, &mut server];
                let mut bytes = Vec::new();
                pair[from].out.flush(&mut bytes).unwrap();
                pair[to].received(&bytes);
                assert!(pair[to].poll().unwrap().is_some(), "a handshake step");
            }
            assert!(client.peer().is_some() && server.peer().is_some());
        }
        Wired {
            client,
            server,
            coordinator,
            frames: Vec::new(),
        }
    }

    /// Moves `msg` from `from` to `to` as one frame and returns what `to`
    /// released, logging the frame as `"<dir> <sha256 of the inner frame>
    /// <wire length>"`.
    fn carry(
        from: &mut Connection,
        to: &mut Connection,
        msg: WireMsg,
        dir: &str,
        frames: &mut Vec<String>,
    ) -> WireMsg {
        let wire = from.queue(msg).unwrap();
        let mut bytes = Vec::new();
        from.out.flush(&mut bytes).unwrap();
        assert_eq!(bytes.len(), wire, "{dir} frame {}", frames.len());
        to.received(&bytes);
        let Some(Event::Frame {
            msg,
            wire_bytes,
            frame_bytes,
        }) = to.poll().unwrap()
        else {
            panic!("{dir} frame {}: nothing released", frames.len());
        };
        assert_eq!(wire_bytes, wire);
        assert!(to.poll().unwrap().is_none() && !to.is_mid_frame());
        let msg = msg.force().unwrap();
        let mut inner = Vec::new();
        append_frame(&mut inner, &msg, MAX_FRAME_BYTES, None).unwrap();
        assert_eq!(inner.len(), frame_bytes, "{dir} frame {}", frames.len());
        frames.push(format!(
            "{dir} {} {wire}",
            hex(&mini_crypto::sha256(&inner))
        ));
        msg
    }

    /// One request and its reply.
    fn call(&mut self, request: WireMsg) -> WireMsg {
        let request = Self::carry(
            &mut self.client,
            &mut self.server,
            request,
            "up",
            &mut self.frames,
        );
        let reply = answer(&mut self.coordinator, request);
        Self::carry(
            &mut self.server,
            &mut self.client,
            reply,
            "down",
            &mut self.frames,
        )
    }

    fn batch(&mut self, request: WireMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match self.call(request) {
            WireMsg::Batch { envelopes } => Ok(envelopes),
            other => panic!("expected a batch, got {other:?}"),
        }
    }
}

/// What the listener answers a request with.
fn answer(coordinator: &mut ShardedCoordinator, msg: WireMsg) -> WireMsg {
    let batch = |r: Result<Vec<Envelope>, ProtocolError>| match r {
        Ok(envelopes) => WireMsg::Batch { envelopes },
        Err(e) => WireMsg::Error {
            detail: e.to_string(),
        },
    };
    match msg {
        WireMsg::Envelope { envelope } => batch(coordinator.deliver(envelope)),
        WireMsg::AnnounceTry {
            try_index,
            participants,
        } => {
            coordinator.announce_try(try_index, &participants);
            WireMsg::Ack
        }
        other => panic!("the session sends no {other:?}"),
    }
}

impl Coordinator for Wired {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.batch(WireMsg::Envelope { envelope })
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[usize],
    ) -> Result<(), ProtocolError> {
        let reply = self.call(WireMsg::AnnounceTry {
            try_index,
            participants: participants.to_vec(),
        });
        assert_eq!(reply, WireMsg::Ack);
        Ok(())
    }

    fn begin_epoch(&mut self, _: u64, _: usize) -> Result<(), ProtocolError> {
        unreachable!("one epoch")
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        unreachable!("every client registers")
    }

    fn close_try(&mut self, _: usize) -> Result<Vec<Envelope>, ProtocolError> {
        unreachable!("every participant uploads")
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

fn clients() -> Vec<ClassDistribution> {
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: CLIENTS,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed: SEED,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    spec.build_partition(&mut rng).client_distributions()
}

/// A registration and one try of ten participants; the frames it put on
/// the wire.
fn session(sealed: bool, packed: bool) -> Vec<String> {
    let dists = clients();
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let mut transport = InMemoryTransport::new();
    let coordinator = ShardedCoordinator::new(CLIENTS, 4);
    let mut run = if packed {
        let policy = PackingPolicy::new(32, TEST_KEY_BITS, CLIENTS as u64).unwrap();
        let server = Wired::new(sealed, coordinator.with_packing(policy));
        run_registration(
            &dists,
            &config,
            TEST_KEY_BITS,
            Some(policy),
            server,
            &mut transport,
            &mut rng,
        )
    } else {
        let server = Wired::new(sealed, coordinator);
        run_registration(
            &dists,
            &config,
            TEST_KEY_BITS,
            None,
            server,
            &mut transport,
            &mut rng,
        )
    }
    .unwrap();
    let registry = run.clients[0].overall_registry().unwrap().len();
    assert_eq!(registry, 56, "the paper's registry length");
    run.agent.expect_tries(1);
    let participants: Vec<usize> = (0..CLIENTS).step_by(16).collect();
    run_try(
        0,
        &participants,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    run.server.frames
}

#[derive(Deserialize)]
struct FramesFile {
    schema_version: u64,
    sessions: Vec<SessionFrames>,
}

#[derive(Deserialize)]
struct SessionFrames {
    name: String,
    frames: Vec<String>,
}

/// The committed file, as `(session name, frames)` in file order.
fn committed() -> Vec<(String, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frames.json");
    let text = std::fs::read_to_string(path).expect("BENCH_frames.json at the repo root");
    let file: FramesFile = serde_json::from_str(&text).expect("BENCH_frames.json parses");
    assert_eq!(file.schema_version, SCHEMA_VERSION);
    file.sessions
        .into_iter()
        .map(|s| (s.name, s.frames))
        .collect()
}

/// The computed sessions, in the committed file's format.
fn render(sessions: &[(String, Vec<String>)]) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"what\": \"SHA-256 of every inner \
         DBH2 frame of four fixed-seed sessions (N = {CLIENTS}, TEST_KEY_BITS, registry \
         length 56, one try of 10), in order, each with its length on the wire; written \
         by crates/dubhe-select/tests/frame_digests.rs\",\n  \"sessions\": [\n"
    );
    for (i, (name, frames)) in sessions.iter().enumerate() {
        write!(
            out,
            "    {{\n      \"name\": \"{name}\",\n      \"frames\": [\n"
        )
        .unwrap();
        for (j, frame) in frames.iter().enumerate() {
            let comma = if j + 1 < frames.len() { "," } else { "" };
            writeln!(out, "        \"{frame}\"{comma}").unwrap();
        }
        let comma = if i + 1 < sessions.len() { "," } else { "" };
        writeln!(out, "      ]\n    }}{comma}").unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn every_frame_of_four_fixed_seed_sessions_matches_its_committed_digest() {
    let sessions: Vec<(String, Vec<String>)> = [
        ("plaintext_elementwise", false, false),
        ("plaintext_packed", false, true),
        ("sealed_elementwise", true, false),
        ("sealed_packed", true, true),
    ]
    .into_iter()
    .map(|(name, sealed, packed)| (name.to_string(), session(sealed, packed)))
    .collect();

    // The channel changes no inner byte: the sealed sessions' digests are
    // the bare ones'.
    for (bare, sealed) in [(0, 2), (1, 3)] {
        let digests = |s: &[String]| -> Vec<String> {
            s.iter()
                .map(|f| f.rsplit_once(' ').unwrap().0.to_string())
                .collect()
        };
        assert_eq!(digests(&sessions[bare].1), digests(&sessions[sealed].1));
    }
    let largest = sessions[2].1.iter().map(|f| {
        let wire: usize = f.rsplit_once(' ').unwrap().1.parse().unwrap();
        wire
    });
    assert!(
        largest.max().unwrap() > 2 * 256 * 1024,
        "a multi-slice broadcast"
    );

    let computed = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_frames.json");
    std::fs::write(&computed, render(&sessions)).unwrap();
    let committed = committed();
    let names = |s: &[(String, Vec<String>)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&committed), names(&sessions), "session names");
    for ((name, want), (_, got)) in committed.iter().zip(&sessions) {
        let first = want.iter().zip(got).position(|(w, g)| w != g);
        if let Some(at) = first {
            panic!(
                "{name}: frame {at} differs: committed `{}`, computed `{}` (all computed \
                 frames written to {})",
                want[at],
                got[at],
                computed.display()
            );
        }
        assert_eq!(
            want.len(),
            got.len(),
            "{name}: frame count (computed frames written to {})",
            computed.display()
        );
    }
}
