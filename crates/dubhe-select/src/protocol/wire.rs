//! The framed wire layer of the networked transport.
//!
//! Every message on a protocol socket is one *frame*:
//!
//! ```text
//! +-----------------+-----------------+----------------------+
//! | magic "DBH2"    | payload length  | payload              |
//! |                 | u32, big-endian | DBH2-encoded WireMsg |
//! +-----------------+-----------------+----------------------+
//! ```
//!
//! The payload is the canonical binary encoding of [`super::codec`]. `DBH2`
//! is the one protocol magic; the authenticated channel adds `DBHS` and
//! `DBHE` (see [`super::channel`]), and any other magic is refused.
//!
//! Frames are read and written by one sans-IO
//! [`Connection`](super::connection::Connection) per socket (its byte-level
//! halves are in [`super::frames`]), defensive by construction:
//!
//! * a frame that does not start with a known magic is rejected as
//!   [`ProtocolError::MalformedFrame`] before any allocation happens;
//! * the announced payload length is checked against [`MAX_FRAME_BYTES`]
//!   ([`ProtocolError::FrameTooLarge`]), and the payload buffer grows only
//!   as its bytes land, so garbage or hostile headers cannot make the
//!   receiver allocate what the peer never sends;
//! * a stream that ends mid-frame surfaces
//!   [`ProtocolError::TruncatedFrame`]; a stream that ends cleanly *between*
//!   frames surfaces [`ProtocolError::Disconnected`] — callers that expected
//!   more exchange treat both as errors, never as silence.
//!
//! [`WireMsg`] wraps the protocol-level [`Envelope`] with the small control
//! vocabulary a client ↔ coordinator session needs (try announcements,
//! reply batches, relayed errors, shutdown).

use serde::{Deserialize, Serialize};

use super::codec::RegistryFrame;
use super::message::{Envelope, Party};
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// The 4-byte preamble of a protocol (`DBH2`) frame: protocol name +
/// wire-format version.
pub const FRAME_MAGIC_V2: [u8; 4] = *b"DBH2";

/// Upper bound on a frame payload. Generous: the largest legitimate message
/// is a broadcast batch of full-length encrypted registries under 2048-bit
/// keys (tens of KB each); 64 MiB leaves three orders of magnitude headroom
/// while still refusing absurd lengths parsed out of garbage bytes.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One message of the client ↔ coordinator wire session.
// Envelope wraps ProtocolMsg, whose key-dispatch variant is deliberately
// large (see the note there); the same trade-off applies here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// A protocol envelope travelling to the coordinator.
    Envelope {
        /// The addressed protocol message.
        envelope: Envelope,
    },
    /// Control plane: announce the participant set of one tentative try
    /// (§5.3.1) ahead of the encrypted distribution uploads.
    AnnounceTry {
        /// Which of the `H` tries is being announced.
        try_index: usize,
        /// The tentatively selected client ids.
        participants: Vec<ClientId>,
    },
    /// Control plane: open a new key-rotation epoch with a (possibly
    /// resized) cohort. The coordinator resets its per-epoch folds and
    /// refuses frames stamped with older epochs afterwards.
    BeginEpoch {
        /// The new epoch id.
        epoch: u64,
        /// The new cohort size.
        expected_registrations: usize,
    },
    /// Control plane: close the registration phase with whatever registries
    /// arrived — the explicit partial-cohort fold a straggler deadline
    /// triggers. The reply is a [`Batch`](WireMsg::Batch) of the triggered
    /// broadcast envelopes.
    CloseRegistration,
    /// Control plane: close one tentative try with whatever contributions
    /// arrived. The reply is a [`Batch`](WireMsg::Batch) carrying the
    /// partial sum.
    CloseTry {
        /// The try to close.
        try_index: usize,
    },
    /// The coordinator's reply to an [`Envelope`](WireMsg::Envelope): every
    /// message the delivery triggered (possibly empty), in emission order.
    Batch {
        /// The triggered envelopes.
        envelopes: Vec<Envelope>,
    },
    /// The coordinator's acknowledgement of a control message.
    Ack,
    /// The coordinator rejected the message; its [`ProtocolError`] rendered
    /// as text.
    Error {
        /// The rendered coordinator-side error.
        detail: String,
    },
    /// Ends the session: the peer will close the connection after reading
    /// this frame.
    Shutdown,
}

/// A frame read whose payload decoding may have been *deferred*.
///
/// `DBH2` registry uploads — the coordinator's hot path — are recognised by
/// their constant-size envelope prefix and shipped to the router as raw
/// payload bytes ([`RegistryFrame`]); the router folds their ciphertext
/// block through a borrowed view with zero per-element allocation. Every
/// other frame decodes eagerly.
// The size gap between variants is irrelevant: a `LazyMsg` lives for one
// dispatch — decoded off the socket, matched, and consumed — never stored
// in collections, so boxing `WireMsg` would add an allocation to the hot
// path to save stack bytes nobody keeps.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LazyMsg {
    /// A fully decoded message (everything that is not a `DBH2` registry).
    Eager(WireMsg),
    /// A recognised `DBH2` registry upload, still in frame-payload form.
    DeferredRegistry(RegistryFrame),
}

impl LazyMsg {
    /// Forces the message: deferred registries are materialised through the
    /// eager decoder (same validation, same errors), decoded messages pass
    /// through unchanged.
    pub fn force(self) -> Result<WireMsg, ProtocolError> {
        match self {
            LazyMsg::Eager(msg) => Ok(msg),
            LazyMsg::DeferredRegistry(frame) => Ok(WireMsg::Envelope {
                envelope: frame.materialize()?,
            }),
        }
    }
}

/// The `ClientId` a request speaks *as*, if any — what the listener's
/// identity-binding check (session-hijack refusal) keys on.
pub fn claimed_client(msg: &LazyMsg) -> Option<ClientId> {
    match msg {
        LazyMsg::DeferredRegistry(frame) => Some(frame.client()),
        LazyMsg::Eager(WireMsg::Envelope { envelope }) => match envelope.from {
            Party::Client(id) => Some(id),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::channel::append_frame;
    use crate::protocol::connection::{Connection, Event};
    use crate::protocol::message::ProtocolMsg;

    fn verdict_envelope() -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 3,
            msg: ProtocolMsg::TryVerdict {
                best_try: 1,
                distance: 0.5,
            },
        }
    }

    /// The plaintext frame of `msg`.
    fn frame(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(&mut out, msg, MAX_FRAME_BYTES, None).unwrap();
        out
    }

    /// The next message a plaintext connection reads off `stream`, and its
    /// bytes on the wire.
    fn read_next(
        conn: &mut Connection,
        stream: &mut &[u8],
    ) -> Result<(WireMsg, usize), ProtocolError> {
        match conn.next_event(stream)? {
            Event::Frame {
                msg, wire_bytes, ..
            } => Ok((msg.force()?, wire_bytes)),
            other => panic!("a plaintext connection yields frames only: {other:?}"),
        }
    }

    /// The first message a fresh plaintext connection reads off `bytes`.
    fn read_one(bytes: &[u8]) -> Result<(WireMsg, usize), ProtocolError> {
        read_next(&mut Connection::plaintext(MAX_FRAME_BYTES), &mut &bytes[..])
    }

    #[test]
    fn frames_round_trip() {
        let msgs = vec![
            WireMsg::Envelope {
                envelope: verdict_envelope(),
            },
            WireMsg::AnnounceTry {
                try_index: 2,
                participants: vec![0, 3, 7],
            },
            WireMsg::BeginEpoch {
                epoch: 4,
                expected_registrations: 12,
            },
            WireMsg::CloseRegistration,
            WireMsg::CloseTry { try_index: 5 },
            WireMsg::Batch {
                envelopes: vec![verdict_envelope(), verdict_envelope()],
            },
            WireMsg::Ack,
            WireMsg::Error {
                detail: "nope".to_string(),
            },
            WireMsg::Shutdown,
        ];
        let buf: Vec<u8> = msgs.iter().flat_map(frame).collect();
        let (mut conn, mut cursor) = (Connection::plaintext(MAX_FRAME_BYTES), &buf[..]);
        let mut read = 0;
        for m in &msgs {
            let (back, bytes) = read_next(&mut conn, &mut cursor).unwrap();
            assert_eq!(&back, m);
            read += bytes;
        }
        assert_eq!(read, buf.len());
        // The stream ends cleanly between frames.
        assert_eq!(
            read_next(&mut conn, &mut cursor),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn bad_magic_is_malformed_not_a_panic() {
        let err = read_one(b"HTTP/1.1 200 OK\r\n\r\n").unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let buf = [FRAME_MAGIC_V2, u32::MAX.to_be_bytes()].concat();
        assert_eq!(
            read_one(&buf).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );
    }

    #[test]
    fn truncation_points_are_distinguished_from_clean_close() {
        let full = frame(&WireMsg::Ack);
        // Cut inside the magic, inside the length, and inside the payload.
        for cut in [2, 6, full.len() - 1] {
            let err = read_one(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Zero bytes: a clean close.
        assert_eq!(read_one(&full[..0]), Err(ProtocolError::Disconnected));
    }

    #[test]
    fn undecodable_payload_is_malformed() {
        // The magic commits the decoder to the binary layout: text behind
        // it is malformed, not a panic.
        let payload = b"{\"not\": \"a wire message\"}";
        let buf = [
            &FRAME_MAGIC_V2[..],
            &(payload.len() as u32).to_be_bytes(),
            payload,
        ]
        .concat();
        let err = read_one(&buf).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn frames_negotiate_their_codec_from_the_magic() {
        // The magic is the whole negotiation: `DBH2` commits the reader to
        // the binary layout, and the retired JSON magic `DBH1` — a whole
        // frame as its last peer would have sent it — is an unknown magic.
        let msg = WireMsg::AnnounceTry {
            try_index: 1,
            participants: vec![2, 4],
        };
        let mut buf = frame(&msg);
        let n2 = buf.len();
        assert_eq!(buf[..4], FRAME_MAGIC_V2);
        let json = br#"{"Ack":null}"#;
        buf.extend_from_slice(b"DBH1");
        buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
        buf.extend_from_slice(json);

        let (mut conn, mut cursor) = (Connection::plaintext(MAX_FRAME_BYTES), &buf[..]);
        assert_eq!(read_next(&mut conn, &mut cursor).unwrap(), (msg, n2));
        let err = read_next(&mut conn, &mut cursor).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn lazy_reads_defer_binary_registries_and_nothing_else() {
        use dubhe_he::{EncryptedVector, Keypair};
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let registry = WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(2),
                to: Party::Server,
                epoch: 1,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: 2,
                    registry: EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 3], &mut rng),
                },
            },
        };
        let lazy = |bytes: &[u8], max: usize| match Connection::plaintext(max)
            .next_event(&mut &bytes[..])?
        {
            Event::Frame {
                msg, wire_bytes, ..
            } => Ok((msg, wire_bytes)),
            other => panic!("{other:?}"),
        };

        // A DBH2 registry comes back deferred, charged its whole frame, and
        // forces to the identical message.
        let full = frame(&registry);
        let (msg, bytes) = lazy(&full, MAX_FRAME_BYTES).unwrap();
        assert_eq!(bytes, full.len());
        assert!(matches!(msg, LazyMsg::DeferredRegistry(_)));
        assert_eq!(claimed_client(&msg), Some(2));
        assert_eq!(msg.force().unwrap(), registry);

        // Non-registry frames decode eagerly.
        let verdict = frame(&WireMsg::Envelope {
            envelope: verdict_envelope(),
        });
        let (msg, _) = lazy(&verdict, MAX_FRAME_BYTES).unwrap();
        assert!(matches!(msg, LazyMsg::Eager(WireMsg::Envelope { .. })));
        assert_eq!(claimed_client(&msg), None);

        // Error paths are the eager reader's: truncation, oversized lengths.
        for cut in [2, 6, full.len() - 1] {
            let err = lazy(&full[..cut], MAX_FRAME_BYTES).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }
        assert_eq!(
            lazy(&full, 16).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: full.len() - 8,
                max: 16
            }
        );
    }

    #[test]
    fn dbh2_error_paths_mirror_the_dbh1_suite() {
        // Oversized length: rejected before allocating.
        let buf = [FRAME_MAGIC_V2, u32::MAX.to_be_bytes()].concat();
        assert_eq!(
            read_one(&buf).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );

        // Truncation inside magic, length, and payload.
        let full = frame(&WireMsg::Ack);
        for cut in [2, 6, full.len() - 1] {
            let err = read_one(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }

        // A DBH2 magic carrying a JSON payload is malformed, not a panic:
        // the magic commits the decoder to the binary layout.
        let payload = serde_json::to_string(&WireMsg::Ack).unwrap().into_bytes();
        let mixed = [
            &FRAME_MAGIC_V2[..],
            &(payload.len() as u32).to_be_bytes(),
            &payload,
        ]
        .concat();
        let err = read_one(&mixed).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");

        // An unknown magic version is refused by name — the retired
        // compressed-JSON magic included.
        for unknown in [&b"DBH3\x00\x00\x00\x00"[..], &b"DBHZ\x00\x00\x00\x00"[..]] {
            let err = read_one(unknown).unwrap_err();
            assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
            assert!(err.to_string().contains("bad magic"), "{err}");
        }
    }

    /// A sink that records the length of every write it is handed.
    #[derive(Default)]
    struct Sink {
        writes: Vec<usize>,
    }

    impl std::io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_goes_out_in_one_write_or_not_at_all() {
        // On a TCP_NODELAY socket every `write` is a syscall and may be a
        // segment: magic, length and payload travel together.
        let msg = WireMsg::Error {
            detail: "z".repeat(100),
        };
        let mut conn = Connection::plaintext(1 << 10);
        let written = conn.queue(msg.clone()).unwrap();
        let mut sink = Sink::default();
        conn.write_queued(&mut sink).unwrap();
        assert_eq!(sink.writes, [written]);
        let mut conn = Connection::plaintext(16);
        assert!(conn.queue(msg).is_err());
        let mut sink = Sink::default();
        conn.write_queued(&mut sink).unwrap();
        assert!(sink.writes.is_empty(), "refused before anything is written");
    }

    #[test]
    fn configured_frame_limits_bound_both_directions() {
        // A frame that fits the default limit but not a configured one is
        // refused on read, before the payload buffer is allocated…
        let full = frame(&WireMsg::Error {
            detail: "x".repeat(100),
        });
        let err = read_next(&mut Connection::plaintext(16), &mut &full[..]).unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );

        // …and on write, before anything reaches the stream.
        let mut conn = Connection::plaintext(16);
        let err = conn
            .queue(WireMsg::Error {
                detail: "y".repeat(100),
            })
            .unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );
        assert_eq!(
            conn.out.pending(),
            0,
            "nothing may be queued before the check"
        );

        // A generous configured limit behaves like the default.
        let (msg, _) = read_one(&full).unwrap();
        assert!(matches!(msg, WireMsg::Error { .. }));
    }
}
