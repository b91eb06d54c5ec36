//! Codec robustness: property-based round-trips of every [`WireMsg`]
//! variant through the `DBH2` codec, and `DBH2` frame error paths against
//! byte cursors and against the live TCP listener (its truncated-frame case
//! lives in `networked_protocol.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use dubhe_he::{EncryptedVector, Keypair};
use dubhe_net::ReactorListener;
use dubhe_select::protocol::codec::{decode, encode};
use dubhe_select::protocol::{
    append_frame, read_frame, write_frame, Envelope, Party, ProtocolMsg, ShardedCoordinator,
    WireMsg, FRAME_MAGIC_V2, MAX_FRAME_BYTES,
};
use dubhe_select::ProtocolError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One shared keypair: key generation dominates a per-case budget and the
/// codecs only care about the *shape* of the key material.
fn keypair() -> &'static Keypair {
    static KEYPAIR: OnceLock<Keypair> = OnceLock::new();
    KEYPAIR.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xD0B43);
        Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng)
    })
}

fn vector(values: &[u64], rng: &mut StdRng) -> EncryptedVector {
    EncryptedVector::encrypt_u64(&keypair().public, values, rng)
}

/// Builds one randomized [`ProtocolMsg`] of the chosen shape.
fn protocol_msg(
    variant: usize,
    values: &[u64],
    scalars: (usize, usize),
    rng: &mut StdRng,
) -> ProtocolMsg {
    let (a, b) = scalars;
    match variant {
        0 => ProtocolMsg::PublicKeyDispatch {
            public_key: keypair().public.clone(),
            private_key: if a % 2 == 0 {
                Some(keypair().private.clone())
            } else {
                None
            },
        },
        1 => ProtocolMsg::EncryptedRegistry {
            client: a,
            registry: vector(values, rng),
        },
        2 => ProtocolMsg::EncryptedTotalBroadcast {
            total: vector(values, rng),
        },
        3 => ProtocolMsg::EncryptedDistribution {
            client: a,
            try_index: b,
            distribution: vector(values, rng),
        },
        4 => ProtocolMsg::EncryptedDistributionSum {
            try_index: b,
            contributors: a,
            sum: vector(values, rng),
        },
        _ => ProtocolMsg::TryVerdict {
            best_try: b,
            distance: (a % 1000) as f64 / 8.0,
        },
    }
}

/// Builds one randomized [`WireMsg`] covering every variant.
fn wire_msg(
    variant: usize,
    inner: usize,
    values: &[u64],
    scalars: (usize, usize),
    text: &str,
    rng: &mut StdRng,
) -> WireMsg {
    let envelope = |rng: &mut StdRng| Envelope {
        from: Party::Client(scalars.0),
        to: if inner.is_multiple_of(2) {
            Party::Server
        } else {
            Party::Agent
        },
        epoch: scalars.1 as u64,
        msg: protocol_msg(inner % 6, values, scalars, rng),
    };
    match variant {
        0 => WireMsg::Envelope {
            envelope: envelope(rng),
        },
        1 => WireMsg::AnnounceTry {
            try_index: scalars.1,
            participants: values.iter().map(|&v| v as usize).collect(),
        },
        // The upper half of `inner` is a broadcast: one message cloned to
        // every addressee, so its vector is shared rather than rebuilt.
        2 if inner >= 6 => {
            let first = envelope(rng);
            let addressee = |to| Envelope {
                to: Party::Client(to),
                ..first.clone()
            };
            WireMsg::Batch {
                envelopes: (0..1 + inner % 3).map(addressee).collect(),
            }
        }
        2 => WireMsg::Batch {
            envelopes: (0..inner % 3).map(|_| envelope(rng)).collect(),
        },
        3 => WireMsg::Ack,
        4 => WireMsg::Error {
            detail: text.to_string(),
        },
        _ => WireMsg::Shutdown,
    }
}

/// The frame the parent commit's `write_frame_limited` put on the wire,
/// from public pieces: magic, length, and a payload in which a batch is
/// stitched from envelopes encoded one at a time (a lone envelope has no
/// neighbour to share a vector with).
fn parent_frame(msg: &WireMsg) -> Vec<u8> {
    let payload = match msg {
        WireMsg::Batch { envelopes } => {
            let mut out = vec![2];
            out.extend_from_slice(&(envelopes.len() as u32).to_be_bytes());
            for envelope in envelopes {
                let alone = WireMsg::Envelope {
                    envelope: envelope.clone(),
                };
                out.extend_from_slice(&encode(&alone).unwrap()[1..]);
            }
            out
        }
        _ => encode(msg).unwrap(),
    };
    let mut frame = FRAME_MAGIC_V2.to_vec();
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every variant of every message, filled with random contents, must
    /// survive encode → frame → read-frame → decode.
    #[test]
    fn every_wiremsg_round_trips_through_both_codecs(
        variant in 0usize..6,
        inner in 0usize..12,
        values in prop::collection::vec(0u64..10_000, 1..9),
        a in 0usize..1000,
        b in 0usize..64,
        text_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(text_seed);
        let text = format!("error {}", rng.gen_range(0..100_000));
        let msg = wire_msg(variant, inner, &values, (a, b), &text, &mut rng);
        // Payload-level round trip.
        let payload = encode(&msg).unwrap();
        prop_assert_eq!(decode(&payload).unwrap(), msg.clone());
        // Frame-level round trip.
        let mut framed = Vec::new();
        let written = write_frame(&mut framed, &msg).unwrap();
        prop_assert_eq!(written, framed.len());
        // The wire bytes are pinned: in-place framing (shared vectors
        // copied, not re-encoded) changes none of them.
        prop_assert_eq!(&framed, &parent_frame(&msg));
        let mut queued = vec![0xEE; 3];
        append_frame(&mut queued, &msg, MAX_FRAME_BYTES, None).unwrap();
        prop_assert_eq!(&queued[3..], &framed[..]);
        let (back, consumed) = read_frame(&mut &framed[..]).unwrap();
        prop_assert_eq!(back, msg.clone());
        prop_assert_eq!(consumed, framed.len());
    }

    /// Arbitrary byte soup handed to the binary decoder must fail with a
    /// typed error — never panic, never succeed by accident (the chance of
    /// random bytes forming a valid ciphertext payload is negligible, but a
    /// clean `Ok` on `[3]`-style one-byte frames is legitimate).
    #[test]
    fn binary_decoder_survives_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        match decode(&bytes) {
            Ok(msg) => {
                // If random bytes happen to decode, they must re-encode to
                // the exact same bytes (the encoding is canonical).
                prop_assert_eq!(encode(&msg).unwrap(), bytes);
            }
            Err(e) => prop_assert!(
                matches!(e, ProtocolError::MalformedFrame { .. }),
                "unexpected error shape: {}", e
            ),
        }
    }

    /// Truncating a valid DBH2 frame at any byte yields a typed framing
    /// error (truncated/disconnected).
    #[test]
    fn truncated_dbh2_frames_are_typed_errors(
        cut_seed in any::<u64>(),
        values in prop::collection::vec(0u64..100, 1..5),
    ) {
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let msg = WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(1),
                to: Party::Server,
                epoch: 3,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: 1,
                    registry: vector(&values, &mut rng),
                },
            },
        };
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).unwrap();
        let cut = rng.gen_range(0..framed.len());
        let err = read_frame(&mut &framed[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                ProtocolError::TruncatedFrame { .. } | ProtocolError::Disconnected
            ),
            "cut {}: {}", cut, err
        );
    }
}

#[test]
fn oversized_dbh2_header_is_rejected_before_allocating() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&FRAME_MAGIC_V2);
    buf.extend_from_slice(&(u32::MAX).to_be_bytes());
    assert_eq!(
        read_frame(&mut &buf[..]).unwrap_err(),
        ProtocolError::FrameTooLarge {
            len: u32::MAX as usize,
            max: MAX_FRAME_BYTES,
        }
    );
}

#[test]
fn garbage_dbh2_frames_get_an_error_reply_and_a_hangup() {
    // A frame with a valid DBH2 magic but an undecodable payload is
    // reported as a typed error frame, then the connection closes.
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut raw = TcpStream::connect(listener.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = [42u8, 13, 13, 13];
    raw.write_all(&FRAME_MAGIC_V2).unwrap();
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let (reply, _) = read_frame(&mut raw).expect("an error frame before the hangup");
    match reply {
        WireMsg::Error { detail } => assert!(detail.contains("malformed"), "{detail}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "connection closed");
}
