//! The load-generation side: many persistent client connections multiplexed
//! through one poller from a single thread.
//!
//! A thread-per-client load generator tops out three orders of magnitude
//! below the listener it is supposed to stress. [`MuxClient`] holds 10⁴+
//! nonblocking connections in one flat table, queues request frames onto
//! any subset of them, and drives a poll loop until every expected reply
//! has arrived — recording one end-to-end latency sample (request queued →
//! reply decoded) per exchange into a
//! [`dubhe_select::protocol::stats::LatencyHistogram`].
//!
//! The protocol invariant that makes the phase API this simple: every
//! request frame earns exactly one reply frame, and replies on one
//! connection come back in request order (the listener's router is FIFO).
//! So a phase is "send N frames, collect N frames", with per-connection
//! FIFO matching — no request ids on the wire.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dubhe_select::protocol::channel::{secret_bytes_from_seed, ChannelPolicy};
use dubhe_select::protocol::codec::CodecKind;
use dubhe_select::protocol::connection::{Connection, Event};
use dubhe_select::protocol::frames::CHUNK;
use dubhe_select::protocol::stats::{LatencyHistogram, LatencySummary};
use dubhe_select::protocol::tcp::{dial, TcpConfig};
use dubhe_select::protocol::wire::{WireMsg, MAX_FRAME_BYTES};
use dubhe_select::ProtocolError;
use mini_mio::{Backend, Events, Interest, Poll, Registry, Token};

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

/// Knobs for the client-side multiplexer, builder-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxConfig {
    /// Largest frame payload accepted or produced (the registration-total
    /// broadcast batch grows with the client count — size accordingly).
    pub max_frame_bytes: usize,
    /// Overall deadline for one [`MuxClient::collect`] phase; a silent or
    /// wedged server surfaces as a typed error, never a hang.
    pub exchange_timeout: Duration,
    /// Readiness backend; `None` picks the platform default.
    pub backend: Option<Backend>,
    /// Whether every connection runs the authenticated-channel handshake
    /// before its socket turns nonblocking. Under
    /// [`ChannelPolicy::Required`] all traffic travels in `DBHE` sealed
    /// frames; connection `i` handshakes with a deterministic identity
    /// derived from [`identity_seed`](Self::identity_seed)` + i`.
    pub channel: ChannelPolicy,
    /// Base seed of the per-connection client identities (connection `i`
    /// derives its X25519 secret from `identity_seed + i`), so the
    /// session-hijack binding sees synthetic client `i` speak with the
    /// same identity on every run.
    pub identity_seed: u64,
    /// Pins the server's public channel identity; `None` trusts first use.
    pub expected_server: Option<[u8; 32]>,
    /// Dial + handshake attempts per connection before giving up (≥ 1).
    /// Transient failures retry under bounded exponential backoff with
    /// deterministic jitter; exhaustion surfaces
    /// [`ProtocolError::RetriesExhausted`].
    pub connect_attempts: usize,
    /// Base delay of the retry backoff (attempt `i` sleeps
    /// `retry_base · 2^i` plus jitter).
    pub retry_base: Duration,
    /// Seed of the deterministic retry jitter (XORed with the connection
    /// index so a thundering herd still spreads out).
    pub retry_seed: u64,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            exchange_timeout: Duration::from_secs(120),
            backend: None,
            channel: ChannelPolicy::Plaintext,
            identity_seed: 0,
            expected_server: None,
            connect_attempts: 1,
            retry_base: Duration::from_millis(25),
            retry_seed: 0,
        }
    }
}

impl MuxConfig {
    // Kept for exactly one caller, the frozen `benchmark/`'s fan-in
    // workloads (`fanin.rs:611`); it goes with the `CodecKind` shim in
    // `dubhe-select`'s `codec.rs` in the benchmark-only change of ROADMAP
    // item 1(d).
    #[doc(hidden)]
    pub fn with_codec(self, _: CodecKind) -> Self {
        self
    }

    /// Replaces the frame-payload ceiling.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replaces the per-phase deadline.
    pub fn with_exchange_timeout(mut self, exchange_timeout: Duration) -> Self {
        self.exchange_timeout = exchange_timeout;
        self
    }

    /// Pins a specific readiness backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Replaces the channel policy.
    pub fn with_channel(mut self, channel: ChannelPolicy) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the base seed of the per-connection client identities.
    pub fn with_identity_seed(mut self, identity_seed: u64) -> Self {
        self.identity_seed = identity_seed;
        self
    }

    /// Pins the server's public channel identity.
    pub fn with_expected_server(mut self, public: [u8; 32]) -> Self {
        self.expected_server = Some(public);
        self
    }

    /// Enables bounded-backoff retries: `attempts` total dial+handshake
    /// tries per connection, starting from a `retry_base` initial delay.
    pub fn with_retries(mut self, attempts: usize, retry_base: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.retry_base = retry_base;
        self
    }

    /// Replaces the retry-jitter seed.
    pub fn with_retry_seed(mut self, retry_seed: u64) -> Self {
        self.retry_seed = retry_seed;
        self
    }

    /// How connection `i` is dialled: the connector's own [`dial`], with
    /// `exchange_timeout` bounding the handshake's socket waits, the
    /// identity seeded at `identity_seed + i` and the retry jitter at
    /// `retry_seed ^ i`.
    fn dial_config(&self, i: usize) -> TcpConfig {
        let identity_seed = self.identity_seed.wrapping_add(i as u64);
        TcpConfig {
            read_timeout: self.exchange_timeout,
            max_frame_bytes: self.max_frame_bytes,
            channel: self.channel,
            identity: Some(secret_bytes_from_seed(identity_seed)),
            expected_server: self.expected_server,
            connect_attempts: self.connect_attempts,
            retry_base: self.retry_base,
            retry_seed: self.retry_seed ^ i as u64,
        }
    }
}

struct MuxConn {
    stream: TcpStream,
    /// The connection's protocol state: requests seal on queue, replies
    /// unseal on read when the config requires the channel.
    connection: Connection,
    /// Queue instants of requests still awaiting their reply, FIFO.
    pending: VecDeque<Instant>,
    wants_write: bool,
}

/// Many persistent client connections to one coordinator listener, driven
/// from a single thread. Connection `i` plays synthetic client `i`.
pub struct MuxClient {
    poll: Poll,
    registry: Registry,
    events: Events,
    /// The last poll's events, copied out so handlers can borrow `self`.
    ready: Vec<mini_mio::Event>,
    conns: Vec<MuxConn>,
    config: MuxConfig,
    latency: LatencyHistogram,
}

impl MuxClient {
    /// Opens `n` persistent connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize, config: MuxConfig) -> Result<Self, ProtocolError> {
        MuxClient::connect_spread(&[addr], n, config)
    }

    /// Opens `n` persistent connections round-robin across `addrs` — pair
    /// with [`ReactorConfig::listen_addrs`](crate::ReactorConfig) to spread
    /// very large client counts over several loopback source-port spaces.
    pub fn connect_spread(
        addrs: &[SocketAddr],
        n: usize,
        config: MuxConfig,
    ) -> Result<Self, ProtocolError> {
        assert!(!addrs.is_empty(), "need at least one listener address");
        let poll = match config.backend {
            Some(backend) => Poll::with_backend(backend),
            None => Poll::new(),
        }
        .map_err(|e| io_error("create poller", e))?;
        let registry = poll.registry();
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            // On a single core a tight connect loop starves the listener
            // process of CPU until the accept backlog (128) overflows and
            // every further SYN waits out a 1 s retransmit. Descheduling for
            // a moment every half-backlog of connects lets the acceptor
            // drain; the pause is dwarfed by the retransmits it prevents.
            let (stream, connection) = dial(addrs[i % addrs.len()], &config.dial_config(i))?;
            if i % 64 == 63 {
                std::thread::sleep(Duration::from_millis(2));
            } else {
                std::thread::yield_now();
            }
            stream
                .set_nonblocking(true)
                .map_err(|e| io_error("configure socket", e))?;
            registry
                .register(&stream, Token(i), Interest::READABLE)
                .map_err(|e| io_error("register socket", e))?;
            conns.push(MuxConn {
                stream,
                connection,
                pending: VecDeque::new(),
                wants_write: false,
            });
        }
        Ok(MuxClient {
            poll,
            registry,
            events: Events::with_capacity(1024),
            ready: Vec::new(),
            conns,
            config,
            latency: LatencyHistogram::new(),
        })
    }

    /// Number of connections held.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections are held.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Every latency sample recorded so far (request queued → reply
    /// decoded), across all connections and phases.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// [`latency`](Self::latency) collapsed for reporting.
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// Queues one request frame on connection `conn` — sealed into a `DBHE`
    /// frame when the connection runs the channel. Bytes move on the next
    /// [`collect`](Self::collect) (or [`exchange`](Self::exchange)).
    pub fn send(&mut self, conn: usize, msg: &WireMsg) -> Result<(), ProtocolError> {
        let c = &mut self.conns[conn];
        c.connection.queue(msg.clone())?;
        c.pending.push_back(Instant::now());
        Ok(())
    }

    /// Sends every queued frame and collects exactly `expected` reply
    /// frames, in arrival order. The phase primitive.
    pub fn collect(&mut self, expected: usize) -> Result<Vec<(usize, WireMsg)>, ProtocolError> {
        let deadline = Instant::now() + self.config.exchange_timeout;
        let mut replies = Vec::with_capacity(expected);
        // Opening flush: most frames fit the kernel send buffer outright,
        // so many phases never need WRITABLE interest at all.
        for token in 0..self.conns.len() {
            self.flush(token)?;
        }
        while replies.len() < expected {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProtocolError::Io {
                    context: "collect replies",
                    detail: format!(
                        "timed out after {:?} with {} of {expected} replies",
                        self.config.exchange_timeout,
                        replies.len()
                    ),
                });
            }
            let timeout = (deadline - now).min(Duration::from_millis(500));
            self.poll
                .poll(&mut self.events, Some(timeout))
                .map_err(|e| io_error("poll", e))?;
            let mut ready = std::mem::take(&mut self.ready);
            ready.extend(self.events.iter().copied());
            for event in ready.drain(..) {
                let token = event.token().0;
                if event.is_writable() {
                    self.flush(token)?;
                }
                if event.is_readable() || event.is_hup() || event.is_error() {
                    self.read_replies(token, &mut replies)?;
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
            self.send(*conn, msg)?;
        }
        self.collect(requests.len())
    }

    /// Tells every connection's listener side to hang up, best-effort.
    pub fn shutdown(mut self) {
        for token in 0..self.conns.len() {
            let _ = self.conns[token].connection.queue(WireMsg::Shutdown);
            // No reply follows a shutdown frame.
            let _ = self.flush(token);
        }
    }

    fn flush(&mut self, token: usize) -> Result<(), ProtocolError> {
        let c = &mut self.conns[token];
        c.connection
            .out
            .flush(&mut &c.stream)
            .map_err(|e| io_error("write frame", e))?;
        let want_write = c.connection.out.pending() > 0;
        if c.wants_write != want_write {
            let interest = if want_write {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            self.registry
                .reregister(&c.stream, Token(token), interest)
                .map_err(|e| io_error("register socket", e))?;
            c.wants_write = want_write;
        }
        Ok(())
    }

    fn read_replies(
        &mut self,
        token: usize,
        replies: &mut Vec<(usize, WireMsg)>,
    ) -> Result<(), ProtocolError> {
        let c = &mut self.conns[token];
        let mut chunk = [0u8; CHUNK];
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    // The listener hung up. Mid-frame or with replies still
                    // owed, that is an error the caller must see (e.g. a
                    // backpressure disconnect); otherwise it is clean.
                    if c.connection.is_mid_frame() || !c.pending.is_empty() {
                        return Err(c.connection.closed_error());
                    }
                    break;
                }
                Ok(n) => {
                    c.connection.received(&chunk[..n]);
                    // Replies are pulled as their bytes land, not after the
                    // socket has been drained: a batch is decoded an
                    // envelope (and a sealed record) at a time.
                    while let Some(event) = c.connection.poll().map_err(|r| r.error)? {
                        if let Event::Frame { msg, .. } = event {
                            if let Some(queued_at) = c.pending.pop_front() {
                                self.latency.record(queued_at.elapsed());
                            }
                            replies.push((token, msg.force()?));
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
        Ok(())
    }
}
