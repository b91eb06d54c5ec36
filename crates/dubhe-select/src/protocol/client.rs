//! The one client: persistent framed connections to a coordinator
//! listener, driven from a single thread through one readiness poller.
//!
//! A [`Client`] holds `n` connections in one flat table; connection `i`
//! plays synthetic client `i`. Requests are queued on any subset of them
//! ([`send`](Client::send)), and a poll loop moves the bytes until the
//! expected replies are in ([`collect`](Client::collect)), recording one
//! latency sample (request queued → reply decoded) per exchange. Over its
//! connection 0 the client is a [`Coordinator`], so `AgentNode` and
//! `SelectClientNode` drive the *identical*
//! [`ProtocolMsg`](super::message::ProtocolMsg) exchange whether the
//! coordinator is an in-process
//! [`ShardedCoordinator`](super::shard::ShardedCoordinator) or `dubhe-net`'s
//! `ReactorListener` across the network; `dubhe-bench`'s `load_gen` drives
//! 10⁴+ connections through the same type.
//!
//! The protocol invariant that keeps this simple: every request frame earns
//! exactly one reply frame, and replies on one connection come back in
//! request order (the listener's router is FIFO). So a phase is "send N
//! frames, collect N frames", matched per connection in FIFO order, with no
//! request ids on the wire.
//!
//! What each frame means — framing, the channel's phases, every refusal —
//! is decided by the sans-IO [`Connection`] each socket pumps, the same one
//! the listener pumps. [`dial`] is the one connect path: a blocking connect
//! and handshake, after which the socket turns nonblocking.
//!
//! Robustness contract (pinned by `tests/networked_protocol.rs`): a
//! malformed, truncated or oversized frame, a mid-exchange disconnect, a
//! silent peer, or one that stops reading all surface as [`ProtocolError`]
//! — never a panic, never an unbounded hang.
//! [`exchange_timeout`](ClientConfig::exchange_timeout) bounds the dial,
//! each socket read and write of the handshake, and each `collect` whole.
//!
//! A connection that waits for nothing holds no buffer: its write queue is
//! released once drained and its frame buffer between frames, and the event
//! batch is sized to the connection count, capped at 1 024. A
//! one-connection client that has its reply holds no block of 1 KiB.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mini_mio::{Events, Interest, Poll, Registry, Token};
use serde::{Deserialize, Serialize};

use super::channel::{ChannelPolicy, NodeIdentity, HANDSHAKE_WIRE_BYTES};
use super::codec::payload_size_hint;
use super::connection::{Connection, Event};
use super::frames::CHUNK;
use super::message::Envelope;
use super::roles::Coordinator;
use super::stats::LatencyHistogram;
use super::wire::{WireMsg, MAX_FRAME_BYTES};
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// Default [`ClientConfig::exchange_timeout`]. Long enough for a 2048-bit
/// registration epoch on a loaded machine, short enough that a wedged peer
/// cannot hang a driver forever.
pub const DEFAULT_EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// The most readiness events one poll reports.
const MAX_EVENTS: usize = 1024;

/// The client's knobs, builder-style.
///
/// Defaults: [`DEFAULT_EXCHANGE_TIMEOUT`] (30 s), the global
/// [`MAX_FRAME_BYTES`] (64 MiB) frame ceiling in both directions, no
/// channel, a fresh identity per dial and no pinned server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bounds the dial, every socket read and write of the handshake, and
    /// each [`Client::collect`] phase as a whole: a silent or wedged server
    /// surfaces as a typed error, never a hang.
    pub exchange_timeout: Duration,
    /// Largest frame payload accepted *or produced* (the registration
    /// broadcast grows with the client count — size accordingly).
    pub max_frame_bytes: usize,
    /// Whether every connection runs the authenticated channel handshake
    /// after connecting and seals every frame.
    pub channel: ChannelPolicy,
    /// Base seed of the long-term channel identities: connection `i`
    /// derives its static secret from `seed + i`, so a reconnecting client
    /// presents the *same* identity and gets its cohort slot back. `None`
    /// generates a fresh identity per dial.
    pub identity_seed: Option<u64>,
    /// Pinned server public identity: the handshake refuses any server
    /// whose static key differs. `None` trusts first use.
    pub expected_server: Option<[u8; 32]>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            exchange_timeout: DEFAULT_EXCHANGE_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            channel: ChannelPolicy::Plaintext,
            identity_seed: None,
            expected_server: None,
        }
    }
}

impl ClientConfig {
    /// Replaces the exchange timeout.
    pub fn with_exchange_timeout(mut self, exchange_timeout: Duration) -> Self {
        self.exchange_timeout = exchange_timeout;
        self
    }

    /// Replaces the frame-payload ceiling (both directions).
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replaces the channel policy.
    pub fn with_channel(mut self, channel: ChannelPolicy) -> Self {
        self.channel = channel;
        self
    }

    /// Derives connection `i`'s long-term identity from `seed + i`.
    pub fn with_identity_seed(mut self, seed: u64) -> Self {
        self.identity_seed = Some(seed);
        self
    }

    /// Pins the server's public identity.
    pub fn with_expected_server(mut self, public: [u8; 32]) -> Self {
        self.expected_server = Some(public);
        self
    }
}

/// Real bytes and frames observed on the client's sockets (header +
/// payload, both directions). This is what a deployment actually pays on
/// the wire — framing and payload encoding included — as opposed to the
/// canonical ciphertext accounting of
/// [`TransportStats`](super::transport::TransportStats), which prices
/// messages at their fixed-width transport model for like-for-like
/// comparison with the paper. Under the `DBH2` codec the two converge to
/// within a few percent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Frames queued for the sockets.
    pub frames_sent: usize,
    /// Frames read from the sockets.
    pub frames_received: usize,
    /// Bytes queued (headers + payloads).
    pub bytes_sent: usize,
    /// Bytes read (headers + payloads).
    pub bytes_received: usize,
    /// Bytes the channel handshake(s) put on the wire, both directions.
    /// Metered apart from the frame counters so the protocol ledger stays
    /// bit-identical with the channel on or off.
    pub handshake_bytes: usize,
    /// Extra bytes sealing added on top of the inner plaintext frames
    /// ([`SEALED_FRAME_OVERHEAD`](super::channel::SEALED_FRAME_OVERHEAD) per frame of up to 256 KiB, a tag more per
    /// 256 KiB past that; both directions). Same separation rationale as
    /// `handshake_bytes`.
    pub sealed_overhead_bytes: usize,
    /// Successful [`Client::reconnect`] cycles.
    pub reconnects: usize,
}

impl WireStats {
    /// Total *protocol* bytes that crossed the sockets in either direction
    /// — inner frame bytes only, by design: this feeds the FL ledger's
    /// communication accounting, which must not move when the channel turns
    /// on. The channel's own cost is [`WireStats::channel_overhead_bytes`].
    pub fn total_bytes(&self) -> usize {
        self.bytes_sent + self.bytes_received
    }

    /// Bytes the authenticated channel itself cost: handshakes plus
    /// per-frame sealing overhead.
    pub fn channel_overhead_bytes(&self) -> usize {
        self.handshake_bytes + self.sealed_overhead_bytes
    }
}

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

/// Dials `addr` as connection `conn` and, under a `Required` policy, runs
/// the client handshake with connection `conn`'s identity. The stream comes
/// back blocking, with [`exchange_timeout`](ClientConfig::exchange_timeout)
/// on the connect and on every read and write.
pub fn dial(
    addr: SocketAddr,
    config: &ClientConfig,
    conn: usize,
) -> Result<(TcpStream, Connection), ProtocolError> {
    let timeout = config.exchange_timeout;
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| io_error("connect", e))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| io_error("configure socket", e))?;
    if !config.channel.is_required() {
        return Ok((stream, Connection::plaintext(config.max_frame_bytes)));
    }
    let identity = match config.identity_seed {
        Some(seed) => NodeIdentity::from_seed(seed.wrapping_add(conn as u64)),
        None => NodeIdentity::generate(),
    };
    let mut connection =
        Connection::client(&identity, config.expected_server, config.max_frame_bytes);
    connection.handshake(&mut stream)?;
    Ok((stream, connection))
}

/// One connection of a [`Client`].
#[derive(Debug)]
struct Link {
    stream: TcpStream,
    /// The connection's protocol state: requests seal on queue, replies
    /// unseal on read when the config requires the channel.
    connection: Connection,
    /// Queue instants of requests still awaiting their reply, FIFO.
    pending: VecDeque<Instant>,
    wants_write: bool,
}

/// Persistent client connections to one coordinator listener, driven from
/// a single thread; over connection 0, a [`Coordinator`].
#[derive(Debug)]
pub struct Client {
    poll: Poll,
    registry: Registry,
    events: Events,
    /// The last poll's events, copied out so handlers can borrow `self`.
    ready: Vec<mini_mio::Event>,
    links: Vec<Link>,
    /// Remembered so [`reconnect`](Self::reconnect) can redial with the same
    /// knobs and identity.
    addr: SocketAddr,
    config: ClientConfig,
    latency: LatencyHistogram,
    wire: WireStats,
}

impl Client {
    /// Opens `n` persistent connections to `addr`.
    pub fn connect(
        addr: SocketAddr,
        n: usize,
        config: ClientConfig,
    ) -> Result<Self, ProtocolError> {
        let poll = Poll::new().map_err(|e| io_error("create poller", e))?;
        let mut client = Client {
            registry: poll.registry(),
            poll,
            events: Events::with_capacity(n.clamp(1, MAX_EVENTS)),
            ready: Vec::new(),
            links: Vec::with_capacity(n),
            addr,
            config,
            latency: LatencyHistogram::new(),
            wire: WireStats::default(),
        };
        for conn in 0..n {
            let link = client.open(conn)?;
            client.links.push(link);
            // On a single core a tight connect loop starves the listener
            // process of CPU until the accept backlog (128) overflows and
            // every further SYN waits out a 1 s retransmit. Descheduling for
            // a moment every half-backlog of connects lets the acceptor
            // drain; the pause is dwarfed by the retransmits it prevents.
            if conn % 64 == 63 {
                std::thread::sleep(Duration::from_millis(2));
            } else {
                std::thread::yield_now();
            }
        }
        Ok(client)
    }

    /// Dials connection `conn` and registers its socket, nonblocking.
    fn open(&mut self, conn: usize) -> Result<Link, ProtocolError> {
        let (stream, connection) = dial(self.addr, &self.config, conn)?;
        stream
            .set_nonblocking(true)
            .map_err(|e| io_error("configure socket", e))?;
        self.registry
            .register(&stream, Token(conn), Interest::READABLE)
            .map_err(|e| io_error("register socket", e))?;
        if connection.peer().is_some() {
            self.wire.handshake_bytes += HANDSHAKE_WIRE_BYTES;
        }
        Ok(Link {
            stream,
            connection,
            pending: VecDeque::new(),
            wants_write: false,
        })
    }

    /// Tears connection `conn` down and dials + handshakes it afresh with
    /// the original config (same identity, same pinned server). Replies it
    /// still owed are lost; the wire counters carry over — a reconnect is
    /// the *same logical session* recovering — and the cycle is counted in
    /// [`WireStats::reconnects`].
    ///
    /// The server keys cohort state off the authenticated identity, so a
    /// reconnecting registered client resumes its binding instead of
    /// burning a second cohort slot.
    pub fn reconnect(&mut self, conn: usize) -> Result<(), ProtocolError> {
        let _ = self.links[conn].stream.shutdown(Shutdown::Both);
        let link = self.open(conn)?;
        let old = std::mem::replace(&mut self.links[conn], link);
        let _ = self.registry.deregister(&old.stream);
        self.wire.reconnects += 1;
        Ok(())
    }

    /// Number of connections held.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no connections are held.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Every latency sample recorded so far (request queued → reply
    /// decoded), across all connections and phases.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Real frame traffic on the sockets (headers + encoded payloads).
    pub fn wire_stats(&self) -> &WireStats {
        &self.wire
    }

    /// The server's authenticated public identity on connection `conn`,
    /// once a `Required` channel is established.
    pub fn peer_identity(&self, conn: usize) -> Option<[u8; 32]> {
        self.links[conn].connection.peer()
    }

    /// Queues one request frame on connection `conn` — sealed into a `DBHE`
    /// frame when the connection runs the channel. Bytes move on the next
    /// [`collect`](Self::collect). The ledger-facing counters meter the
    /// *inner* frame bytes; the seal's cost goes to the channel-overhead
    /// counters. An oversized message is refused here, before a byte of it
    /// is queued.
    pub fn send(&mut self, conn: usize, msg: WireMsg) -> Result<(), ProtocolError> {
        let link = &mut self.links[conn];
        let inner = link.connection.peer().map(|_| 8 + payload_size_hint(&msg));
        let written = link.connection.queue(msg)?;
        let inner = inner.unwrap_or(written);
        self.wire.frames_sent += 1;
        self.wire.bytes_sent += inner;
        self.wire.sealed_overhead_bytes += written - inner;
        link.pending.push_back(Instant::now());
        Ok(())
    }

    /// Sends every queued frame and collects exactly `expected` reply
    /// frames, in arrival order, within one
    /// [`exchange_timeout`](ClientConfig::exchange_timeout). The phase
    /// primitive.
    pub fn collect(&mut self, expected: usize) -> Result<Vec<(usize, WireMsg)>, ProtocolError> {
        let timeout = self.config.exchange_timeout;
        let deadline = Instant::now() + timeout;
        let mut replies = Vec::with_capacity(expected);
        // Opening flush: most frames fit the kernel send buffer outright,
        // so many phases never need WRITABLE interest at all.
        for conn in 0..self.links.len() {
            self.flush(conn)?;
        }
        while replies.len() < expected {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProtocolError::Io {
                    context: "collect replies",
                    detail: format!(
                        "timed out after {timeout:?} with {} of {expected} replies",
                        replies.len()
                    ),
                });
            }
            self.poll
                .poll(&mut self.events, Some(deadline - now))
                .map_err(|e| io_error("poll", e))?;
            let mut ready = std::mem::take(&mut self.ready);
            ready.extend(self.events.iter().copied());
            for event in ready.drain(..) {
                let conn = event.token().0;
                if event.is_writable() {
                    self.flush(conn)?;
                }
                if event.is_readable() || event.is_hup() || event.is_error() {
                    self.read_replies(conn, &mut replies)?;
                }
            }
            self.ready = ready;
        }
        Ok(replies)
    }

    /// One whole phase: queue every `(connection, request)`, move the bytes,
    /// return one reply per request in arrival order.
    pub fn exchange(
        &mut self,
        requests: &[(usize, WireMsg)],
    ) -> Result<Vec<(usize, WireMsg)>, ProtocolError> {
        for (conn, msg) in requests {
            self.send(*conn, msg.clone())?;
        }
        self.collect(requests.len())
    }

    /// Ends the session politely: every connection writes a shutdown frame
    /// (and whatever it still had queued) before the sockets close, and the
    /// listener hangs up. No reply follows a shutdown frame. The first
    /// connection that cannot write is the error, after the others tried.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        let mut outcome = Ok(());
        for link in &mut self.links {
            let written = link.connection.queue(WireMsg::Shutdown).and_then(|_| {
                link.stream
                    .set_nonblocking(false)
                    .map_err(|e| io_error("configure socket", e))?;
                link.connection.write_queued(&mut link.stream)
            });
            outcome = outcome.and(written);
        }
        outcome
    }

    fn flush(&mut self, conn: usize) -> Result<(), ProtocolError> {
        let link = &mut self.links[conn];
        link.connection
            .out
            .flush(&mut &link.stream)
            .map_err(|e| io_error("write frame", e))?;
        let want_write = link.connection.out.pending() > 0;
        link.connection.release_idle();
        if link.wants_write != want_write {
            let interest = if want_write {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            self.registry
                .reregister(&link.stream, Token(conn), interest)
                .map_err(|e| io_error("register socket", e))?;
            link.wants_write = want_write;
        }
        Ok(())
    }

    fn read_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<(usize, WireMsg)>,
    ) -> Result<(), ProtocolError> {
        let link = &mut self.links[conn];
        let mut chunk = [0u8; CHUNK];
        loop {
            match link.stream.read(&mut chunk) {
                Ok(0) => {
                    // The listener hung up. Mid-frame or with replies still
                    // owed, that is an error the caller must see (e.g. a
                    // backpressure disconnect); otherwise it is clean.
                    if link.connection.is_mid_frame() || !link.pending.is_empty() {
                        return Err(link.connection.closed_error());
                    }
                    break;
                }
                Ok(n) => {
                    link.connection.received(&chunk[..n]);
                    // Replies are pulled as their bytes land, not after the
                    // socket has been drained: a batch is decoded an
                    // envelope (and a sealed record) at a time.
                    while let Some(event) = link.connection.poll().map_err(|r| r.error)? {
                        if let Event::Frame {
                            msg,
                            wire_bytes,
                            frame_bytes,
                        } = event
                        {
                            self.wire.frames_received += 1;
                            self.wire.bytes_received += frame_bytes;
                            self.wire.sealed_overhead_bytes += wire_bytes - frame_bytes;
                            if let Some(queued_at) = link.pending.pop_front() {
                                self.latency.record(queued_at.elapsed());
                            }
                            replies.push((conn, msg.force()?));
                        }
                    }
                    // A short read drained the socket; the level-triggered
                    // poll reports whatever lands later, a hangup included.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_error("read frame", e)),
            }
        }
        link.connection.release_idle();
        Ok(())
    }

    /// Sends one wire message on connection 0 and awaits its reply, a
    /// remote error unwrapped into its typed one.
    fn request(&mut self, msg: WireMsg) -> Result<WireMsg, ProtocolError> {
        self.send(0, msg)?;
        match self.collect(1)?.swap_remove(0).1 {
            WireMsg::Error { detail } => Err(ProtocolError::Remote { detail }),
            reply => Ok(reply),
        }
    }

    /// Expects the coordinator's reply batch.
    fn request_batch(&mut self, msg: WireMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match self.request(msg)? {
            WireMsg::Batch { envelopes } => Ok(envelopes),
            other => Err(unexpected("a batch", other)),
        }
    }

    /// Expects a bare acknowledgement.
    fn request_ack(&mut self, msg: WireMsg) -> Result<(), ProtocolError> {
        match self.request(msg)? {
            WireMsg::Ack => Ok(()),
            other => Err(unexpected("an ack", other)),
        }
    }
}

fn unexpected(expected: &str, reply: WireMsg) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: format!("expected {expected} or error reply, got {reply:?}"),
    }
}

/// The coordinator behind connection 0: every server-bound envelope becomes
/// one framed request, and the coordinator's reply batch is returned to the
/// driver for local delivery. No other request may be in flight on the
/// client meanwhile.
impl Coordinator for Client {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(WireMsg::Envelope { envelope })
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        self.request_ack(WireMsg::AnnounceTry {
            try_index,
            participants: participants.to_vec(),
        })
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        self.request_ack(WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        })
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(WireMsg::CloseRegistration)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(WireMsg::CloseTry { try_index })
    }
}
