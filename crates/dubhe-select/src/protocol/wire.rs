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
//! The framing is std-only (`std::io::Read`/`Write` over any byte stream —
//! `std::net::TcpStream` in production, `&[u8]` cursors in tests) and
//! defensive by construction:
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

use std::io::{ErrorKind, Read, Write};

use serde::{Deserialize, Serialize};

use super::channel::append_frame;
use super::codec::{self, RegistryFrame};
use super::frames::SEAL_SLICE;
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

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

/// Magic (4) + big-endian payload length (4).
const HEADER_BYTES: usize = 8;

/// Writes one frame, returning the total bytes put on the wire (header
/// included) so callers can meter real frame traffic. Enforces the default
/// [`MAX_FRAME_BYTES`]; use [`write_frame_limited`] to enforce a configured
/// limit.
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMsg) -> Result<usize, ProtocolError> {
    write_frame_limited(w, msg, MAX_FRAME_BYTES)
}

/// [`write_frame`] with a caller-configured payload ceiling (see
/// [`TcpConfig`](super::tcp::TcpConfig)): a payload above `max_frame_bytes`
/// is refused *before* anything is written, so an oversized message never
/// leaves a half-frame on the stream. The frame goes out in **one** write —
/// on a `TCP_NODELAY` socket, one segment train instead of three.
pub fn write_frame_limited<W: Write>(
    w: &mut W,
    msg: &WireMsg,
    max_frame_bytes: usize,
) -> Result<usize, ProtocolError> {
    let mut frame = Vec::new();
    append_frame(&mut frame, msg, max_frame_bytes, None)?;
    write_whole_frame(w, &frame)?;
    Ok(frame.len())
}

/// Puts one already framed message on a stream with a single `write_all`.
pub(crate) fn write_whole_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(frame).map_err(|e| io_error("write frame", e))?;
    w.flush().map_err(|e| io_error("flush frame", e))
}

/// Reads exactly `buf.len()` bytes. `at_frame_start` distinguishes a clean
/// close (EOF before any byte of this frame → [`ProtocolError::Disconnected`])
/// from a cut-off frame ([`ProtocolError::TruncatedFrame`]).
pub(crate) fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
    at_frame_start: bool,
) -> Result<(), ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_frame_start && filled == 0 {
                    ProtocolError::Disconnected
                } else {
                    ProtocolError::TruncatedFrame { context }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(if at_frame_start && filled == 0 {
                    ProtocolError::Disconnected
                } else {
                    ProtocolError::TruncatedFrame { context }
                });
            }
            Err(e) => return Err(io_error("read frame", e)),
        }
    }
    Ok(())
}

/// Reads and validates one frame header: the magic as soon as it is
/// complete, then the announced payload length against `max_frame_bytes` —
/// before any payload is buffered.
fn read_header<R: Read>(r: &mut R, max_frame_bytes: usize) -> Result<usize, ProtocolError> {
    let mut magic = [0u8; 4];
    read_exact_or(r, &mut magic, "header", true)?;
    if magic != FRAME_MAGIC_V2 {
        return Err(ProtocolError::MalformedFrame {
            detail: format!("bad magic {magic:02x?}, expected DBH2"),
        });
    }
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, "header", false)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_frame_bytes {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    Ok(len)
}

/// [`read_frame`] with a caller-configured payload ceiling (see
/// [`TcpConfig`](super::tcp::TcpConfig)). The announced length is checked
/// against `max_frame_bytes` before a payload byte is read, and the payload
/// buffer grows only as its bytes arrive.
pub fn read_frame_limited<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(WireMsg, usize), ProtocolError> {
    let len = read_header(r, max_frame_bytes)?;
    let payload = read_payload(r, len)?;
    Ok((codec::decode(&payload)?, HEADER_BYTES + len))
}

/// Reads the `len`-byte payload an unauthenticated header announced into a
/// buffer that grows as bytes land, at most [`SEAL_SLICE`] a step.
pub(crate) fn read_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, ProtocolError> {
    let mut payload = Vec::new();
    while payload.len() < len {
        let at = payload.len();
        payload.resize(at + (len - at).min(SEAL_SLICE), 0);
        read_exact_or(r, &mut payload[at..], "payload", false)?;
    }
    Ok(payload)
}

/// Splits the frame at the front of `bytes` into its borrowed payload, with
/// the stream readers' validation and errors (an empty slice is a clean
/// close, a short one a truncated frame). Bytes after the frame are left
/// alone.
fn split_frame(bytes: &[u8], max_frame_bytes: usize) -> Result<&[u8], ProtocolError> {
    let mut cur = bytes;
    let len = read_header(&mut cur, max_frame_bytes)?;
    cur.get(..len)
        .ok_or(ProtocolError::TruncatedFrame { context: "payload" })
}

/// [`read_frame_limited`] for a frame that already sits in memory — a
/// reassembly buffer, a sealed frame opened in place: the payload is
/// decoded where it lies instead of being copied out first.
pub fn decode_frame(
    bytes: &[u8],
    max_frame_bytes: usize,
) -> Result<(WireMsg, usize), ProtocolError> {
    let payload = split_frame(bytes, max_frame_bytes)?;
    Ok((codec::decode(payload)?, HEADER_BYTES + payload.len()))
}

/// Reads one frame, returning the message and the total bytes consumed.
///
/// Never panics and never reads past the frame: unknown magics, oversized
/// lengths, truncation, disconnects and undecodable payloads each map to
/// their own [`ProtocolError`] variant. With a read timeout set on the
/// underlying stream, a silent peer surfaces as [`ProtocolError::Io`] when
/// the timeout elapses — a caller is never stuck forever.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(WireMsg, usize), ProtocolError> {
    read_frame_limited(r, MAX_FRAME_BYTES)
}

/// A frame read whose payload decoding may have been *deferred*.
///
/// `DBH2` registry uploads — the coordinator's hot path — are recognised by
/// their constant-size envelope prefix and shipped to the router as raw
/// payload bytes ([`RegistryFrame`]); the router folds their ciphertext
/// block through a borrowed view with zero per-element allocation. Every
/// other frame decodes eagerly, exactly as [`decode_frame`] would.
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

/// [`decode_frame`], but a registry payload is returned *undecoded*
/// as [`LazyMsg::DeferredRegistry`] — copied out of `bytes` once, so the
/// receiver can fold it straight out of the payload after the buffer it
/// arrived in has moved on. All other payloads (and every malformed prefix)
/// go through the eager decoder, keeping its exact error behaviour; note a
/// deferred registry's ciphertext block is validated only when the receiver
/// decodes its view.
pub fn decode_frame_lazy(
    bytes: &[u8],
    max_frame_bytes: usize,
) -> Result<(LazyMsg, usize), ProtocolError> {
    let payload = split_frame(bytes, max_frame_bytes)?;
    let msg = match RegistryFrame::parse_prefix(payload) {
        Some(prefix) => LazyMsg::DeferredRegistry(prefix.with_payload(payload.to_vec())),
        None => LazyMsg::Eager(codec::decode(payload)?),
    };
    Ok((msg, HEADER_BYTES + payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut buf = Vec::new();
        let mut written = 0;
        for m in &msgs {
            written += write_frame(&mut buf, m).unwrap();
        }
        assert_eq!(written, buf.len());
        let mut cursor = &buf[..];
        for m in &msgs {
            let (back, _) = read_frame(&mut cursor).unwrap();
            assert_eq!(&back, m);
        }
        // The stream ends cleanly between frames.
        assert_eq!(read_frame(&mut cursor), Err(ProtocolError::Disconnected));
    }

    #[test]
    fn bad_magic_is_malformed_not_a_panic() {
        let garbage = b"HTTP/1.1 200 OK\r\n\r\n";
        let err = read_frame(&mut &garbage[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC_V2);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );
    }

    #[test]
    fn truncation_points_are_distinguished_from_clean_close() {
        let mut full = Vec::new();
        write_frame(&mut full, &WireMsg::Ack).unwrap();
        // Cut inside the magic, inside the length, and inside the payload.
        for cut in [2, 6, full.len() - 1] {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Zero bytes: a clean close.
        assert_eq!(
            read_frame(&mut &full[..0]),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn undecodable_payload_is_malformed() {
        // The magic commits the decoder to the binary layout: text behind
        // it is malformed, not a panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC_V2);
        let payload = b"{\"not\": \"a wire message\"}";
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        let err = read_frame(&mut &buf[..]).unwrap_err();
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
        let mut buf = Vec::new();
        let n2 = write_frame(&mut buf, &msg).unwrap();
        assert_eq!(buf[..4], FRAME_MAGIC_V2);
        let json = br#"{"Ack":null}"#;
        buf.extend_from_slice(b"DBH1");
        buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
        buf.extend_from_slice(json);

        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), (msg, n2));
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert_eq!(
            decode_frame(&buf[n2..], MAX_FRAME_BYTES).unwrap_err(),
            err,
            "the in-memory reader refuses it the same way"
        );
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

        // A DBH2 registry comes back deferred, with the same byte count the
        // eager reader charges, and forces to the identical message.
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &registry).unwrap();
        let (lazy, bytes) = decode_frame_lazy(&buf, MAX_FRAME_BYTES).unwrap();
        assert_eq!(bytes, written);
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);

        // Non-registry frames decode eagerly.
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &WireMsg::Envelope {
                envelope: verdict_envelope(),
            },
        )
        .unwrap();
        let (lazy, _) = decode_frame_lazy(&buf, MAX_FRAME_BYTES).unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Envelope { .. })));

        // Error paths are byte-for-byte the eager reader's: truncation,
        // oversized lengths, bad magic.
        let mut full = Vec::new();
        write_frame(&mut full, &registry).unwrap();
        for cut in [2, 6, full.len() - 1] {
            let lazy_err = decode_frame_lazy(&full[..cut], MAX_FRAME_BYTES).unwrap_err();
            let eager_err = read_frame_limited(&mut &full[..cut], MAX_FRAME_BYTES).unwrap_err();
            assert_eq!(lazy_err, eager_err, "cut at {cut}");
        }
        assert_eq!(
            decode_frame_lazy(&full, 16).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: full.len() - 8,
                max: 16
            }
        );
    }

    #[test]
    fn dbh2_error_paths_mirror_the_dbh1_suite() {
        // Oversized length: rejected before allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC_V2);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );

        // Truncation inside magic, length, and payload.
        let mut full = Vec::new();
        write_frame(&mut full, &WireMsg::Ack).unwrap();
        for cut in [2, 6, full.len() - 1] {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }

        // A DBH2 magic carrying a JSON payload is malformed, not a panic:
        // the magic commits the decoder to the binary layout.
        let payload = serde_json::to_string(&WireMsg::Ack).unwrap().into_bytes();
        let mut mixed = Vec::new();
        mixed.extend_from_slice(&FRAME_MAGIC_V2);
        mixed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        mixed.extend_from_slice(&payload);
        let err = read_frame(&mut &mixed[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");

        // An unknown magic version is refused by name — the retired
        // compressed-JSON magic included.
        for mut unknown in [&b"DBH3\x00\x00\x00\x00"[..], &b"DBHZ\x00\x00\x00\x00"[..]] {
            let err = read_frame(&mut unknown).unwrap_err();
            assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
            assert!(err.to_string().contains("bad magic"), "{err}");
        }
    }

    #[test]
    fn a_frame_goes_out_in_one_write_or_not_at_all() {
        // On a TCP_NODELAY socket every `write` is a syscall and may be a
        // segment: magic, length and payload travel together.
        #[derive(Default)]
        struct Sink {
            writes: Vec<usize>,
        }
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let msg = WireMsg::Error {
            detail: "z".repeat(100),
        };
        let mut sink = Sink::default();
        let written = write_frame_limited(&mut sink, &msg, 1 << 10).unwrap();
        assert_eq!(sink.writes, [written]);
        let mut sink = Sink::default();
        assert!(write_frame_limited(&mut sink, &msg, 16).is_err());
        assert!(sink.writes.is_empty(), "refused before anything is written");
    }

    #[test]
    fn configured_frame_limits_bound_both_directions() {
        // A frame that fits the default limit but not a configured one is
        // refused on read, before the payload buffer is allocated…
        let mut full = Vec::new();
        write_frame(
            &mut full,
            &WireMsg::Error {
                detail: "x".repeat(100),
            },
        )
        .unwrap();
        let err = read_frame_limited(&mut &full[..], 16).unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );

        // …and on write, before anything reaches the stream.
        let mut sink = Vec::new();
        let err = write_frame_limited(
            &mut sink,
            &WireMsg::Error {
                detail: "y".repeat(100),
            },
            16,
        )
        .unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );
        assert!(sink.is_empty(), "nothing may be written before the check");

        // A generous configured limit behaves like the default.
        let (msg, _) = read_frame_limited(&mut &full[..], MAX_FRAME_BYTES).unwrap();
        assert!(matches!(msg, WireMsg::Error { .. }));
    }
}
