//! One connection's protocol, sans I/O: the single place that classifies
//! incoming frames, walks the authenticated channel's phases and decides
//! which refusal — and which listener counter — each misbehaviour earns.
//!
//! A [`Connection`] is handed the bytes a socket delivered
//! ([`received`](Connection::received)) and gives back, one
//! [`poll`](Connection::poll) at a time, what they meant: a protocol frame,
//! a handshake step, or a typed [`Refusal`]. Messages queued on it
//! ([`queue`](Connection::queue)) join its write queue
//! ([`out`](Connection::out)), which encodes them a chunk ahead of the
//! socket, or seals them a record ahead once the channel is established.
//! The state machine never touches a socket or reads a clock (the blocking
//! helpers at the end pump it over a stream): it reports whether a read
//! deadline should be armed ([`wants_read_deadline`](Connection::wants_read_deadline)),
//! and whoever owns the socket decides how bytes move and when a stall has
//! lasted too long. Two drivers pump it: `dubhe-net`'s `ReactorListener`
//! (server role) and the [`Client`](super::client::Client) (client role),
//! both nonblocking; the client runs its handshake blocking, through
//! [`handshake`](Connection::handshake).
//!
//! A plaintext-policy connection stays in the `Plaintext` phase for life; a
//! `Required` one walks `Handshake → Established`. What each phase does with
//! each frame, and the [`Counter`] a refusal is charged to:
//!
//! | phase | `DBH2` | `DBHS` | `DBHE` | unknown magic, oversized header |
//! |---|---|---|---|---|
//! | Plaintext | frame | bad magic (decode) | bad magic (decode) | refused (decode) |
//! | Handshake | downgrade (downgrade) | handshake step; longer than the role's longest message: too large (—) | out of phase (—) | refused (—) |
//! | Established | downgrade (downgrade) | out of phase (decode) | frame; failed open (AEAD), bad inner frame (decode) | refused (decode) |
//!
//! "(—)": no counter of its own — a connection that dies before mutual
//! authentication is one failed handshake, whatever killed it. A replayed,
//! reordered or spliced sealed frame is a failed open: it fails its tag.
//!
//! A batch is decoded as it arrives, an envelope at a time, each dropped
//! once decoded; on the channel each record is verified as it completes and
//! decrypted in place first (the channel module's *Wire formats*). So a
//! registration broadcast is held about an envelope — and a record — at a
//! time, and released as one [`Event::Frame`] when its last envelope is in;
//! until then the connection is mid-frame, for
//! [`closed_error`](Connection::closed_error) and the read deadline alike.
//! A buffer grows only as bytes land, by at most a record; a
//! handshake-phase header sizes nothing — anything but a handshake message
//! no longer than the role's longest is refused at it.

use std::io::{self, Read, Write};

use super::channel::{
    sealed_frame_len, ClientHandshake, HandshakeStep, NodeIdentity, Records, SecureChannel,
    ServerHandshake, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED, HELLO_LEN, M2_LEN,
};
use super::frames::{FrameBuffer, WriteQueue, CHUNK};
use super::stats::Counter;
use super::wire::{LazyMsg, WireMsg, FRAME_MAGIC_V2};
use crate::error::ProtocolError;
use mini_crypto::TAG_LEN;

/// The handshake a connection runs, by role.
enum Handshake {
    Client(ClientHandshake),
    Server(ServerHandshake),
}

impl Handshake {
    fn on_payload(&mut self, payload: &[u8]) -> Result<HandshakeStep, ProtocolError> {
        match self {
            Handshake::Client(hs) => hs.on_payload(payload),
            Handshake::Server(hs) => hs.on_payload(payload),
        }
    }

    /// The longest handshake message this role receives — M2 for a client,
    /// M1 for a server (M3 is shorter) — and so the largest `DBHS` frame it
    /// buffers before anyone has authenticated.
    fn longest_message(&self) -> usize {
        match self {
            Handshake::Client(_) => M2_LEN,
            Handshake::Server(_) => HELLO_LEN,
        }
    }
}

enum Phase {
    /// Bare `DBH2` frames, no channel.
    Plaintext,
    /// Pre-protocol: nothing but `DBHS` frames is accepted.
    Handshake(Handshake),
    /// Mutually authenticated: nothing but `DBHE` sealed frames is.
    Established {
        channel: SecureChannel,
        /// The records of the sealed frame arriving now.
        arriving: Option<Records>,
    },
}

/// What one [`Connection::poll`] made of the buffered bytes.
// Sized by `LazyMsg`, and for the same reason allowed: an event lives for
// one dispatch and is never stored.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Event {
    /// A handshake message was answered; the reply is queued in
    /// [`Connection::out`] for the driver to flush.
    HandshakeReply,
    /// Mutual authentication completed. On a client, the last handshake
    /// message (M3) is queued in [`Connection::out`].
    Established {
        /// The peer's authenticated public identity.
        peer: [u8; 32],
    },
    /// One protocol frame, decoded where it arrived (a registry upload
    /// deferred, see [`LazyMsg`]).
    Frame {
        /// The message.
        msg: LazyMsg,
        /// Bytes the frame took on the wire, seal included.
        wire_bytes: usize,
        /// Bytes of the plaintext frame (equal to `wire_bytes` without a
        /// channel).
        frame_bytes: usize,
    },
}

/// A frame the connection refuses: the typed error to surface (a server
/// sends it back before hanging up) and the listener counter it is charged
/// to. Every refusal is terminal — framing or trust is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Why.
    pub error: ProtocolError,
    /// The [`ListenerStats`](super::stats::ListenerStats) counter this
    /// refusal bumps; `None` in the handshake phase except for a downgrade.
    pub counter: Option<Counter>,
}

fn refuse(counter: Option<Counter>) -> impl Fn(ProtocolError) -> Refusal + Copy {
    move |error| Refusal { error, counter }
}

/// A frame whose magic the connection's phase does not speak, refused at
/// its header with what the whole frame would earn.
fn out_of_phase(magic: [u8; 4]) -> Refusal {
    let auth = |detail: &str, counter| Refusal {
        error: ProtocolError::AuthFailure {
            detail: detail.to_string(),
        },
        counter,
    };
    match magic {
        FRAME_MAGIC_V2 => Refusal {
            error: ProtocolError::DowngradeRefused { magic },
            counter: Some(Counter::DowngradesRefused),
        },
        // Only the handshake phase refuses a sealed frame...
        FRAME_MAGIC_SEALED => auth("sealed frame before the handshake finished", None),
        // ...and only the established one a handshake frame.
        _ => auth(
            "handshake frame after the channel was established",
            Some(Counter::DecodeErrors),
        ),
    }
}

/// One connection's protocol state: reassembly, channel phase, write queue.
pub struct Connection {
    phase: Phase,
    frames: FrameBuffer,
    /// Outgoing bytes for the driver to write: frames from
    /// [`queue`](Self::queue) and the handshake's own messages.
    pub out: WriteQueue,
    max_frame_bytes: usize,
    /// What [`received`](Self::received) made of a record it opened, for
    /// the next [`poll`](Self::poll).
    ready: Option<Result<Event, Refusal>>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let peer = self.peer();
        f.debug_struct("Connection")
            .field("peer", &peer)
            .finish_non_exhaustive()
    }
}

impl Connection {
    fn new(phase: Phase, max_frame_bytes: usize) -> Connection {
        let frames = match phase {
            Phase::Plaintext => FrameBuffer::new(),
            _ => FrameBuffer::channel(),
        };
        Connection {
            phase,
            frames,
            out: WriteQueue::default(),
            max_frame_bytes,
            ready: None,
        }
    }

    /// A connection without the channel, either role.
    pub fn plaintext(max_frame_bytes: usize) -> Connection {
        Connection::new(Phase::Plaintext, max_frame_bytes)
    }

    /// The server end of a `Required` connection, awaiting the client's M1.
    pub fn server(identity: NodeIdentity, max_frame_bytes: usize) -> Connection {
        let hs = Handshake::Server(ServerHandshake::new(identity));
        Connection::new(Phase::Handshake(hs), max_frame_bytes)
    }

    /// The client end of a `Required` connection, with its M1 queued.
    /// `expected_server` pins the server's public identity; `None` trusts
    /// first use.
    pub fn client(
        identity: &NodeIdentity,
        expected_server: Option<[u8; 32]>,
        max_frame_bytes: usize,
    ) -> Connection {
        let hs = ClientHandshake::new(identity, expected_server);
        let hello = hs.hello();
        let mut connection =
            Connection::new(Phase::Handshake(Handshake::Client(hs)), max_frame_bytes);
        connection.out.push(&hello);
        connection
    }

    /// Appends bytes read off the socket; bytes that complete a sealed record
    /// are polled before those behind them are buffered (the buffer holds one
    /// record, not a record and a read), for [`poll`](Self::poll) to return.
    pub fn received(&mut self, mut bytes: &[u8]) {
        while self.ready.is_none() {
            let Some(records) = self.arriving() else {
                break;
            };
            let rest = (records.next_len() + TAG_LEN).saturating_sub(self.frames.unopened());
            if records.is_done() || bytes.len() < rest {
                break;
            }
            self.frames.extend(&bytes[..rest]);
            bytes = &bytes[rest..];
            self.ready = self.poll().transpose();
        }
        self.frames.extend(bytes);
    }

    /// The next thing the buffered bytes hold, once they hold a whole one;
    /// `Ok(None)` means "need more bytes". After a refusal the connection
    /// is dead: the driver reports it and hangs up.
    pub fn poll(&mut self) -> Result<Option<Event>, Refusal> {
        if let Some(ready) = self.ready.take() {
            return ready.map(Some);
        }
        let max = self.max_frame_bytes;
        match &mut self.phase {
            Phase::Plaintext => {
                let frame = self
                    .frames
                    .next_frame_lazy(max)
                    .map_err(refuse(Some(Counter::DecodeErrors)))?;
                Ok(frame.map(|(msg, bytes)| Event::Frame {
                    msg,
                    wire_bytes: bytes,
                    frame_bytes: bytes,
                }))
            }
            Phase::Handshake(hs) => {
                // Refused at its header, before a byte of it is buffered: no
                // unauthenticated peer makes this buffer hold more than the
                // role's longest handshake message.
                let Some((magic, len)) = self.frames.channel_header(max).map_err(refuse(None))?
                else {
                    return Ok(None);
                };
                if magic != FRAME_MAGIC_HANDSHAKE {
                    return Err(out_of_phase(magic));
                }
                let longest = hs.longest_message();
                if len > longest {
                    let too_large = ProtocolError::FrameTooLarge { len, max: longest };
                    return Err(refuse(None)(too_large));
                }
                let Some(frame) = self.frames.take(8 + len) else {
                    return Ok(None);
                };
                let step = hs.on_payload(&frame[8..]).map_err(refuse(None))?;
                if let Some(reply) = step.reply {
                    self.out.push(&reply);
                }
                let Some(channel) = step.established else {
                    return Ok(Some(Event::HandshakeReply));
                };
                let peer = channel.peer_identity();
                self.phase = Phase::Established {
                    channel,
                    arriving: None,
                };
                Ok(Some(Event::Established { peer }))
            }
            Phase::Established { channel, arriving } => loop {
                let decode = refuse(Some(Counter::DecodeErrors));
                // Tampered ciphertext, or a frame replayed, reordered, cut
                // or spliced: the receive direction is dead, and the
                // connection with it.
                let aead = refuse(Some(Counter::AeadRejections));
                let Some(records) = arriving else {
                    // Between frames: the next header, in the clear.
                    let Some((magic, len)) = self.frames.channel_header(max).map_err(decode)?
                    else {
                        return Ok(None);
                    };
                    if magic != FRAME_MAGIC_SEALED {
                        return Err(out_of_phase(magic));
                    }
                    self.frames.take(8);
                    *arriving = Some(channel.open_records(len).map_err(aead)?);
                    continue;
                };
                // Each record once all of it is in: verified, decrypted in
                // place, and its plaintext put behind the frame's so far.
                self.frames.open_records(records).map_err(aead)?;
                // Only verified bytes are decoded: the inner frame, as far as
                // its records have opened.
                let Some((msg, frame_bytes)) = self.frames.next_frame_lazy(max).map_err(decode)?
                else {
                    if records.is_done() {
                        // The seal ended inside its inner frame.
                        return Err(decode(ProtocolError::TruncatedFrame { context: "payload" }));
                    }
                    self.frames.reserve_record(records.next_len() + TAG_LEN);
                    return Ok(None);
                };
                if frame_bytes != records.len {
                    let detail = format!(
                        "a {}-byte seal around a {frame_bytes}-byte frame",
                        records.len
                    );
                    return Err(decode(ProtocolError::MalformedFrame { detail }));
                }
                *arriving = None;
                return Ok(Some(Event::Frame {
                    msg,
                    wire_bytes: sealed_frame_len(frame_bytes),
                    frame_bytes,
                }));
            },
        }
    }

    /// Queues `msg` on [`out`](Self::out) — sealed once the channel is
    /// established, bare before — and returns its size on the wire. The
    /// queue keeps the message and encodes it a slice at a time as it is
    /// flushed. A message that does not encode, or is over the frame
    /// ceiling, is refused here, with the queue and the channel's send
    /// sequence as they were.
    pub fn queue(&mut self, msg: WireMsg) -> Result<usize, ProtocolError> {
        let channel = match &mut self.phase {
            Phase::Established { channel, .. } => Some(channel),
            _ => None,
        };
        self.out.push_frame(msg, self.max_frame_bytes, channel)
    }

    /// True while the channel handshake is still running.
    pub fn is_handshaking(&self) -> bool {
        matches!(self.phase, Phase::Handshake(_))
    }

    /// The peer's authenticated identity, once the channel is established.
    pub fn peer(&self) -> Option<[u8; 32]> {
        match &self.phase {
            Phase::Established { channel, .. } => Some(channel.peer_identity()),
            _ => None,
        }
    }

    /// True if a frame has started arriving but is not complete yet.
    pub fn is_mid_frame(&self) -> bool {
        self.frames.is_mid_frame() || self.arriving().is_some()
    }

    /// The records of the sealed frame arriving now, from its header in.
    fn arriving(&self) -> Option<&Records> {
        match &self.phase {
            Phase::Established { arriving, .. } => arriving.as_ref(),
            _ => None,
        }
    }

    /// Whether the driver should hold the connection to a read deadline:
    /// mid-frame, and for the whole handshake — a peer that connects and
    /// then trickles or stays silent must not keep a pre-authentication
    /// slot. Idleness between frames is healthy and never timed out.
    pub fn wants_read_deadline(&self) -> bool {
        self.is_mid_frame() || self.is_handshaking()
    }

    /// What the peer hanging up now means: a clean close between frames, a
    /// truncated frame inside one.
    pub fn closed_error(&self) -> ProtocolError {
        match self.frames.pending_bytes() {
            _ if self.arriving().is_some() => ProtocolError::TruncatedFrame { context: "payload" },
            0 => ProtocolError::Disconnected,
            1..=7 => ProtocolError::TruncatedFrame { context: "header" },
            _ => ProtocolError::TruncatedFrame { context: "payload" },
        }
    }

    /// Frees what holds nothing — a drained write queue, the frame buffer
    /// between frames — for an owner that waits on its peer and should not
    /// keep its largest request or reply across the wait.
    pub(crate) fn release_idle(&mut self) {
        self.out.release();
        if !self.is_mid_frame() {
            self.frames.release();
        }
    }

    /// The established channel, taken out of the connection.
    pub fn into_channel(self) -> Option<SecureChannel> {
        match self.phase {
            Phase::Established { channel, .. } => Some(channel),
            _ => None,
        }
    }

    /// Writes everything queued to a blocking `stream`, then flushes it. A
    /// stream that stops taking bytes — its write timeout expired — is a
    /// typed [`ProtocolError::Io`], never a hang.
    pub fn write_queued(&mut self, stream: &mut impl Write) -> Result<(), ProtocolError> {
        let io_error = |detail: String| ProtocolError::Io {
            context: "write frame",
            detail,
        };
        self.out
            .flush(stream)
            .map_err(|e| io_error(e.to_string()))?;
        let unwritten = self.out.pending();
        if unwritten > 0 {
            return Err(io_error(format!(
                "the peer stopped reading with {unwritten} bytes unwritten"
            )));
        }
        stream.flush().map_err(|e| io_error(e.to_string()))?;
        self.out.release();
        Ok(())
    }

    /// Blocks on `stream` until the next event, reading only while the
    /// bytes already buffered hold none. A refusal surfaces as its error, a
    /// read timeout as [`ProtocolError::Io`]. Like
    /// [`write_queued`](Self::write_queued), it leaves no buffer allocated
    /// that holds nothing.
    pub fn next_event(&mut self, stream: &mut impl Read) -> Result<Event, ProtocolError> {
        let mut chunk = [0u8; CHUNK];
        loop {
            if let Some(event) = self.poll().map_err(|refusal| refusal.error)? {
                self.release_idle();
                return Ok(event);
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err(self.closed_error()),
                Ok(n) => self.received(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(ProtocolError::Io {
                        context: "read frame",
                        detail: e.to_string(),
                    })
                }
            }
        }
    }

    /// Runs a [`client`](Self::client) connection's handshake over a
    /// blocking stream, in the one order a peer that answers only on
    /// `flush` can serve: M1 written and flushed, reads until M2 is whole,
    /// M3 written and flushed — and no read after M3.
    pub fn handshake<S: Read + Write>(&mut self, stream: &mut S) -> Result<(), ProtocolError> {
        self.write_queued(stream)?;
        while !matches!(self.next_event(stream)?, Event::Established { .. }) {}
        self.write_queued(stream)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::channel::tests::fixed_channel;
    use crate::protocol::channel::{
        append_frame, FRAME_MAGIC_SEALED, HANDSHAKE_WIRE_BYTES, SEALED_FRAME_OVERHEAD,
    };
    use crate::protocol::codec::decode;
    use crate::protocol::frames::SEAL_SLICE;
    use crate::protocol::wire::MAX_FRAME_BYTES;

    const MAX: usize = 1024;

    /// An established connection over `channel`, as if its handshake had
    /// just completed.
    pub(crate) fn established_with(channel: SecureChannel, max_frame_bytes: usize) -> Connection {
        let phase = Phase::Established {
            channel,
            arriving: None,
        };
        Connection::new(phase, max_frame_bytes)
    }

    fn client_id() -> NodeIdentity {
        NodeIdentity::from_seed(1)
    }

    fn server_id() -> NodeIdentity {
        NodeIdentity::from_seed(2)
    }

    /// Everything `from` has queued, as it would leave the socket.
    fn drain(from: &mut Connection) -> Vec<u8> {
        let mut bytes = Vec::new();
        from.out.flush(&mut bytes).unwrap();
        bytes
    }

    /// Moves everything `from` has queued into `to`; returns the byte count.
    fn shuttle(from: &mut Connection, to: &mut Connection) -> usize {
        let bytes = drain(from);
        to.received(&bytes);
        bytes.len()
    }

    /// A handshaken `(client, server)` pair over nothing but byte vectors.
    fn established() -> (Connection, Connection) {
        let server_pub = server_id().public_bytes();
        let mut client = Connection::client(&client_id(), Some(server_pub), MAX);
        let mut server = Connection::server(server_id(), MAX);
        let mut moved = shuttle(&mut client, &mut server);
        assert!(matches!(server.poll(), Ok(Some(Event::HandshakeReply))));
        moved += shuttle(&mut server, &mut client);
        let peer = |c: &mut Connection| match c.poll() {
            Ok(Some(Event::Established { peer })) => peer,
            other => panic!("expected establishment, got {other:?}"),
        };
        assert_eq!(peer(&mut client), server_pub);
        moved += shuttle(&mut client, &mut server);
        assert_eq!(peer(&mut server), client_id().public_bytes());
        assert_eq!(moved, HANDSHAKE_WIRE_BYTES);
        (client, server)
    }

    fn plain_ack() -> Vec<u8> {
        let mut frame = Vec::new();
        append_frame(&mut frame, &WireMsg::Ack, MAX, None).unwrap();
        frame
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Role {
        Client,
        Server,
    }

    #[derive(Clone, Copy, Debug)]
    enum At {
        Plaintext,
        Handshake,
        Established,
    }

    #[derive(Clone, Copy, Debug)]
    enum Incoming {
        Dbh2,
        Dbhs,
        Dbhe,
        UnknownMagic,
        OversizedHeader,
        TamperedSeal,
        ReplayedSeal,
    }

    /// A poll's outcome in comparable form: events by kind, refusals by
    /// error variant and counter.
    #[derive(Debug, PartialEq)]
    enum Got {
        HandshakeReply,
        Established,
        Frame(WireMsg),
        Refused(String, Option<Counter>),
    }

    /// The connection under test, in `role` at `at`, and the bytes its
    /// peer sends for `incoming`.
    fn case(role: Role, at: At, incoming: Incoming) -> (Connection, Vec<u8>) {
        let (mut conn, mut peer) = match (at, role) {
            (At::Plaintext, _) => (Connection::plaintext(MAX), None),
            (At::Handshake, Role::Server) => (
                Connection::server(server_id(), MAX),
                Some(Connection::client(&client_id(), None, MAX)),
            ),
            (At::Handshake, Role::Client) => {
                let mut conn = Connection::client(&client_id(), None, MAX);
                let mut server = Connection::server(server_id(), MAX);
                shuttle(&mut conn, &mut server);
                assert!(matches!(server.poll(), Ok(Some(Event::HandshakeReply))));
                (conn, Some(server))
            }
            (At::Established, Role::Client) => {
                let (client, server) = established();
                (client, Some(server))
            }
            (At::Established, Role::Server) => {
                let (client, server) = established();
                (server, Some(client))
            }
        };
        // A sealed frame from the connection's own peer once it is
        // established; from an unrelated channel before.
        let mut sealed = || {
            let mut sender = match (at, peer.take()) {
                (At::Established, Some(peer)) => peer,
                _ => established().0,
            };
            sender.queue(WireMsg::Ack).unwrap();
            drain(&mut sender)
        };
        let header = |magic: [u8; 4], len: usize| [magic, (len as u32).to_be_bytes()].concat();
        let bytes = match incoming {
            Incoming::Dbh2 => plain_ack(),
            Incoming::Dbhs => match (at, peer.as_mut()) {
                (At::Handshake, Some(peer)) => drain(peer),
                _ => drain(&mut Connection::client(&client_id(), None, MAX)),
            },
            Incoming::Dbhe => sealed(),
            Incoming::UnknownMagic => b"HTTP/1.1 200 OK\r\n".to_vec(),
            Incoming::OversizedHeader => match at {
                At::Plaintext => header(FRAME_MAGIC_V2, MAX + 1),
                At::Handshake => header(FRAME_MAGIC_HANDSHAKE, 1 << 20),
                At::Established => header(FRAME_MAGIC_SEALED, MAX + SEALED_FRAME_OVERHEAD + 1),
            },
            Incoming::TamperedSeal => {
                let mut frame = sealed();
                frame[8] ^= 1; // first ciphertext byte, behind the header
                frame
            }
            Incoming::ReplayedSeal => sealed().repeat(2),
        };
        if let Some(peer) = peer.as_mut() {
            drain(peer);
        }
        drain(&mut conn);
        (conn, bytes)
    }

    fn expected(role: Role, at: At, incoming: Incoming) -> Vec<Got> {
        use Counter::*;
        let refused = |variant: &str, counter| vec![Got::Refused(variant.to_string(), counter)];
        let ack = || Got::Frame(WireMsg::Ack);
        match (at, incoming) {
            (At::Plaintext, Incoming::Dbh2) => vec![ack()],
            (At::Plaintext, Incoming::OversizedHeader) => {
                refused("FrameTooLarge", Some(DecodeErrors))
            }
            (At::Plaintext, _) => refused("MalformedFrame", Some(DecodeErrors)),
            (At::Handshake, Incoming::Dbh2) => refused("DowngradeRefused", Some(DowngradesRefused)),
            (At::Handshake, Incoming::Dbhs) => vec![match role {
                Role::Server => Got::HandshakeReply,
                Role::Client => Got::Established,
            }],
            (At::Handshake, Incoming::UnknownMagic) => refused("MalformedFrame", None),
            (At::Handshake, Incoming::OversizedHeader) => refused("FrameTooLarge", None),
            (At::Handshake, _) => refused("AuthFailure", None),
            (At::Established, Incoming::Dbh2) => {
                refused("DowngradeRefused", Some(DowngradesRefused))
            }
            (At::Established, Incoming::Dbhs) => refused("AuthFailure", Some(DecodeErrors)),
            (At::Established, Incoming::Dbhe) => vec![ack()],
            (At::Established, Incoming::UnknownMagic) => {
                refused("MalformedFrame", Some(DecodeErrors))
            }
            (At::Established, Incoming::OversizedHeader) => {
                refused("FrameTooLarge", Some(DecodeErrors))
            }
            (At::Established, Incoming::TamperedSeal) => {
                refused("AuthFailure", Some(AeadRejections))
            }
            (At::Established, Incoming::ReplayedSeal) => vec![
                ack(),
                Got::Refused("AuthFailure".to_string(), Some(AeadRejections)),
            ],
        }
    }

    /// Feeds `bytes` in `chunk`-sized pieces, polling after each until the
    /// connection needs more or refuses.
    fn run(conn: &mut Connection, bytes: &[u8], chunk: usize) -> Vec<Got> {
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            conn.received(piece);
            loop {
                match conn.poll() {
                    Ok(None) => break,
                    Ok(Some(Event::HandshakeReply)) => got.push(Got::HandshakeReply),
                    Ok(Some(Event::Established { .. })) => got.push(Got::Established),
                    Ok(Some(Event::Frame { msg, .. })) => {
                        got.push(Got::Frame(msg.force().unwrap()))
                    }
                    Err(Refusal { error, counter }) => {
                        let variant = format!("{error:?}");
                        let variant = variant.split([' ', '{', '(']).next().unwrap();
                        got.push(Got::Refused(variant.to_string(), counter));
                        return got;
                    }
                }
            }
        }
        got
    }

    #[test]
    fn every_role_phase_and_frame_classifies_once_whole_or_byte_by_byte() {
        use Incoming::*;
        for role in [Role::Client, Role::Server] {
            for at in [At::Plaintext, At::Handshake, At::Established] {
                for incoming in [
                    Dbh2,
                    Dbhs,
                    Dbhe,
                    UnknownMagic,
                    OversizedHeader,
                    TamperedSeal,
                    ReplayedSeal,
                ] {
                    let want = expected(role, at, incoming);
                    for chunk in [usize::MAX, 1] {
                        let (mut conn, bytes) = case(role, at, incoming);
                        let got = run(&mut conn, &bytes, chunk);
                        assert_eq!(
                            got, want,
                            "{role:?} at {at:?} given {incoming:?}, chunk {chunk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_client_and_a_server_connection_hold_a_session_over_byte_vectors() {
        let (mut client, mut server) = established();
        for try_index in 0..3 {
            let request = WireMsg::AnnounceTry {
                try_index,
                participants: vec![try_index, try_index + 7],
            };
            let sent = client.queue(request.clone()).unwrap();
            shuttle(&mut client, &mut server);
            match server.poll() {
                Ok(Some(Event::Frame {
                    msg,
                    wire_bytes,
                    frame_bytes,
                })) => {
                    assert_eq!(msg.force().unwrap(), request);
                    assert_eq!(
                        (wire_bytes, frame_bytes + SEALED_FRAME_OVERHEAD),
                        (sent, sent)
                    );
                }
                other => panic!("round trip {try_index}: {other:?}"),
            }
            let reply = WireMsg::Error {
                detail: format!("reply {try_index}"),
            };
            server.queue(reply.clone()).unwrap();
            shuttle(&mut server, &mut client);
            match client.poll() {
                Ok(Some(Event::Frame { msg, .. })) => assert_eq!(msg.force().unwrap(), reply),
                other => panic!("round trip {try_index}: {other:?}"),
            }
            assert!(matches!(client.poll(), Ok(None)));
            assert!(matches!(server.poll(), Ok(None)));
        }
        assert!(!client.wants_read_deadline() && !server.wants_read_deadline());
    }

    #[test]
    fn sealed_frames_fed_in_any_pieces_yield_the_events_fed_whole() {
        // Pipelined frames across several keystream blocks each; what the
        // server makes of them fed whole, a byte at a time and in seeded
        // random pieces, polling after every piece.
        let msgs: Vec<WireMsg> = [0usize, 1, 63, 64, 65, 500, 900]
            .into_iter()
            .map(|n| WireMsg::Error {
                detail: "o".repeat(n),
            })
            .collect();
        let events = |piece: &mut dyn FnMut() -> usize| {
            let (mut client, mut server) = established();
            for msg in &msgs {
                client.queue(msg.clone()).unwrap();
            }
            let bytes = drain(&mut client);
            let (mut at, mut got) = (0, Vec::new());
            while at < bytes.len() {
                let end = (at + piece().max(1)).min(bytes.len());
                server.received(&bytes[at..end]);
                at = end;
                while let Some(event) = server.poll().unwrap() {
                    let Event::Frame {
                        msg,
                        wire_bytes,
                        frame_bytes,
                    } = event
                    else {
                        panic!("protocol frames only: {event:?}");
                    };
                    got.push((msg.force().unwrap(), wire_bytes, frame_bytes));
                }
            }
            assert!(!server.is_mid_frame());
            got
        };
        let whole = events(&mut || usize::MAX);
        assert_eq!(whole.len(), msgs.len());
        assert!(whole.iter().zip(&msgs).all(|((got, ..), sent)| got == sent));
        assert_eq!(events(&mut || 1), whole, "a byte at a time");
        let mut seed = 0x51CE_u64;
        for _ in 0..8 {
            let mut random = || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % 200) as usize
            };
            assert_eq!(events(&mut random), whole, "random pieces");
        }
    }

    #[test]
    fn a_plaintext_frame_split_anywhere_yields_the_event_it_yields_whole() {
        use crate::protocol::codec::tests::{broadcast_batches, sample_msgs};
        for msg in sample_msgs().into_iter().chain(broadcast_batches()) {
            let mut frame = Vec::new();
            append_frame(&mut frame, &msg, MAX_FRAME_BYTES, None).unwrap();
            for at in 0..=frame.len() {
                let mut conn = Connection::plaintext(MAX_FRAME_BYTES);
                conn.received(&frame[..at]);
                if at < frame.len() {
                    assert!(matches!(conn.poll(), Ok(None)), "split at {at}");
                    assert_eq!(conn.is_mid_frame(), at > 0, "split at {at}");
                }
                conn.received(&frame[at..]);
                let Ok(Some(Event::Frame {
                    msg: got,
                    wire_bytes,
                    frame_bytes,
                })) = conn.poll()
                else {
                    panic!("split at {at} of {msg:?}: no frame");
                };
                assert_eq!(got.force().unwrap(), msg, "split at {at}");
                assert_eq!((wire_bytes, frame_bytes), (frame.len(), frame.len()));
                assert!(!conn.wants_read_deadline());
            }
        }
    }

    #[test]
    fn a_peer_hanging_up_after_k_envelopes_truncates_the_payload() {
        // The broadcast's envelopes are decoded and dropped as they land, so
        // at an envelope boundary nothing of the frame is left unparsed; the
        // connection still knows it is inside one.
        use crate::protocol::codec::tests::broadcast_batches;
        let msg = broadcast_batches().swap_remove(0);
        let WireMsg::Batch { envelopes } = &msg else {
            unreachable!("a broadcast is a batch")
        };
        let mut frame = Vec::new();
        append_frame(&mut frame, &msg, MAX_FRAME_BYTES, None).unwrap();
        let envelope = (frame.len() - 8 - 5) / envelopes.len();
        for k in 0..envelopes.len() {
            let mut conn = Connection::plaintext(MAX_FRAME_BYTES);
            conn.received(&frame[..8 + 5 + k * envelope]);
            assert!(matches!(conn.poll(), Ok(None)), "k = {k}");
            assert!(conn.is_mid_frame() && conn.wants_read_deadline(), "k = {k}");
            assert_eq!(
                conn.closed_error(),
                ProtocolError::TruncatedFrame { context: "payload" },
                "k = {k}"
            );
        }
    }

    /// A batch of `n` envelopes around one `TEST_KEY_BITS` total: the
    /// registration broadcast's shape, 3.6 KB an envelope.
    fn broadcast(n: usize) -> WireMsg {
        use crate::protocol::{Envelope, Party, ProtocolMsg};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let kp = dubhe_he::Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let total = dubhe_he::EncryptedVector::encrypt_u64(&kp.public, &[1; 56], &mut rng);
        let msg = ProtocolMsg::EncryptedTotalBroadcast { total };
        let envelope = |i| Envelope {
            from: Party::Server,
            to: Party::Client(i),
            epoch: 1,
            msg: msg.clone(),
        };
        WireMsg::Batch {
            envelopes: (0..n).map(envelope).collect(),
        }
    }

    /// Sealed frames of one, two and three records — an error, then two
    /// broadcasts — each the first a fixed channel sends, with its message.
    fn record_frames() -> Vec<(WireMsg, Vec<u8>)> {
        let short = WireMsg::Error {
            detail: "one record".to_string(),
        };
        [short, broadcast(100), broadcast(160)]
            .into_iter()
            .enumerate()
            .map(|(i, msg)| {
                let mut frame = Vec::new();
                let mut sender = fixed_channel(true);
                append_frame(&mut frame, &msg, MAX_FRAME_BYTES, Some(&mut sender)).unwrap();
                assert_eq!((frame.len() - 8).div_ceil(SEAL_SLICE + TAG_LEN), i + 1);
                (msg, frame)
            })
            .collect()
    }

    /// Where record `k` of a sealed frame starts.
    fn record_at(k: usize) -> usize {
        8 + k * (SEAL_SLICE + TAG_LEN)
    }

    #[test]
    fn a_sealed_frame_split_anywhere_yields_the_event_it_yields_whole() {
        // Split in two: at every byte of the header and around every record
        // boundary and tag, and every 4093rd byte between — against what the
        // one-step open and decode make of the frame.
        for (msg, frame) in record_frames() {
            let mut payload = frame[8..].to_vec();
            let inner = fixed_channel(false).open_in_place(&mut payload).unwrap();
            assert_eq!(decode(&inner[8..]).unwrap(), msg);
            let inner_len = inner.len();
            let records = (frame.len() - 8).div_ceil(SEAL_SLICE + TAG_LEN);
            let mut splits: Vec<usize> = (0..=24).chain((0..frame.len()).step_by(4093)).collect();
            for k in 1..=records {
                let end = record_at(k).min(frame.len());
                splits.extend(end - TAG_LEN - 2..=end + 2);
            }
            for at in splits.into_iter().filter(|&at| at <= frame.len()) {
                let mut conn = established_with(fixed_channel(false), MAX_FRAME_BYTES);
                conn.received(&frame[..at]);
                if at < frame.len() {
                    assert!(matches!(conn.poll(), Ok(None)), "split at {at}");
                    assert_eq!(conn.is_mid_frame(), at > 0, "split at {at}");
                }
                conn.received(&frame[at..]);
                let Ok(Some(Event::Frame {
                    msg: got,
                    wire_bytes,
                    frame_bytes,
                })) = conn.poll()
                else {
                    panic!("split at {at}: no frame");
                };
                assert_eq!(got.force().unwrap(), msg, "split at {at}");
                assert_eq!((wire_bytes, frame_bytes), (frame.len(), inner_len));
                assert!(!conn.wants_read_deadline(), "split at {at}");
            }
        }
    }

    #[test]
    fn a_tampered_dropped_swapped_cut_or_relabelled_record_releases_nothing() {
        let (_, frame) = record_frames().pop().expect("a three-record frame");
        // A genuine frame behind, the second the sender seals: what a
        // lengthened header reads into.
        let next = {
            let mut sender = fixed_channel(true);
            sender.seal_frame(b"DBH2\0\0\0\x01\x03");
            sender.seal_frame(b"DBH2\0\0\0\x01\x03")
        };
        let relabel = |mut bytes: Vec<u8>, len: usize| {
            bytes[4..8].copy_from_slice(&(len as u32).to_be_bytes());
            bytes
        };
        let (r0, r1, r2) = (record_at(0), record_at(1), record_at(2));
        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        for (k, (start, end)) in [(r0, r1), (r1, r2), (r2, frame.len())]
            .into_iter()
            .enumerate()
        {
            for (what, at) in [("ciphertext", start + 5), ("tag", end - 1)] {
                let mut tampered = frame.clone();
                tampered[at] ^= 1;
                cases.push((format!("the {what} of record {k} tampered"), tampered));
            }
        }
        // Record 0 dropped: record 1 arrives in its place. Record 1 dropped:
        // the frame is short by a record, so the header is relabelled to
        // match (or the receiver would wait for it).
        cases.push((
            "record 0 dropped".into(),
            [&frame[..r0], &frame[r1..], &next].concat(),
        ));
        let dropped = [&frame[..r1], &frame[r2..]].concat();
        let dropped_len = dropped.len() - 8;
        cases.push((
            "record 1 dropped, the header relabelled".into(),
            relabel(dropped, dropped_len),
        ));
        let swapped = [&frame[..r0], &frame[r1..r2], &frame[r0..r1], &frame[r2..]].concat();
        cases.push(("records 0 and 1 swapped".into(), swapped));
        for k in [1, 2] {
            let cut = relabel(frame[..record_at(k)].to_vec(), record_at(k) - 8);
            cases.push((format!("cut after record {k}, the header relabelled"), cut));
        }
        for len in [frame.len() - 9, frame.len() - 7] {
            let edited = relabel(frame.clone(), len);
            cases.push((
                format!("the header length edited to {len}"),
                [&edited[..], &next].concat(),
            ));
        }
        for (what, bytes) in cases {
            for chunk in [usize::MAX, 16 * 1024] {
                let mut conn = established_with(fixed_channel(false), MAX_FRAME_BYTES);
                let mut refused = None;
                for piece in bytes.chunks(chunk) {
                    conn.received(piece);
                    match conn.poll() {
                        Ok(None) => {}
                        Ok(Some(event)) => panic!("{what}: released {event:?}"),
                        Err(refusal) => {
                            refused = Some(refusal);
                            break;
                        }
                    }
                }
                let refusal = refused.unwrap_or_else(|| panic!("{what}: not refused"));
                assert!(
                    matches!(refusal.error, ProtocolError::AuthFailure { .. }),
                    "{what}: {}",
                    refusal.error
                );
                assert_eq!(refusal.counter, Some(Counter::AeadRejections), "{what}");
            }
        }
    }

    #[test]
    fn a_peer_hanging_up_between_records_truncates_the_payload() {
        let (msg, frame) = record_frames().pop().expect("a three-record frame");
        let cuts = [1, 7, 8, 9, record_at(1) - 1, record_at(1), record_at(1) + 1];
        for cut in cuts.into_iter().chain([record_at(2), frame.len() - 1]) {
            let mut conn = established_with(fixed_channel(false), MAX_FRAME_BYTES);
            conn.received(&frame[..cut]);
            assert!(matches!(conn.poll(), Ok(None)), "cut at {cut}");
            assert!(conn.wants_read_deadline(), "cut at {cut}");
            let context = if cut < 8 { "header" } else { "payload" };
            assert_eq!(
                conn.closed_error(),
                ProtocolError::TruncatedFrame { context },
                "cut at {cut}"
            );
            conn.received(&frame[cut..]);
            assert!(
                matches!(conn.poll(), Ok(Some(Event::Frame { msg: got, .. })) if got.clone().force().unwrap() == msg)
            );
            assert!(
                !conn.wants_read_deadline() && conn.closed_error() == ProtocolError::Disconnected
            );
        }
    }

    #[test]
    fn an_unauthenticated_handshake_header_is_refused_on_its_eighth_byte() {
        // Announcements of 1 MiB and of the whole frame ceiling; that
        // nothing is reserved for them is pinned in `tests/frame_alloc.rs`.
        // A plaintext or sealed header is out of phase whatever follows,
        // refused with what the whole frame earns (the phase table above).
        for announced in [1 << 20, MAX_FRAME_BYTES] {
            for magic in [FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_V2, FRAME_MAGIC_SEALED] {
                let roles = [
                    (Connection::server(server_id(), MAX_FRAME_BYTES), 64),
                    (Connection::client(&client_id(), None, MAX_FRAME_BYTES), 96),
                ];
                for (mut conn, longest) in roles {
                    let header = [magic, (announced as u32).to_be_bytes()].concat();
                    conn.received(&header[..7]);
                    assert!(matches!(conn.poll(), Ok(None)));
                    conn.received(&header[7..]);
                    let refusal = conn.poll().unwrap_err();
                    let expected = match magic {
                        FRAME_MAGIC_HANDSHAKE => (
                            ProtocolError::FrameTooLarge {
                                len: announced,
                                max: longest,
                            },
                            None,
                        ),
                        FRAME_MAGIC_V2 => (
                            ProtocolError::DowngradeRefused { magic },
                            Some(Counter::DowngradesRefused),
                        ),
                        _ => (
                            ProtocolError::AuthFailure {
                                detail: "sealed frame before the handshake finished".to_string(),
                            },
                            None,
                        ),
                    };
                    assert_eq!((refusal.error, refusal.counter), expected);
                    assert!(
                        conn.is_handshaking(),
                        "counted as a failed handshake at close"
                    );
                }
            }
        }
    }
}
