//! The networked transport's client half: a framed TCP connector.
//!
//! [`TcpTransport`] plugs into the same driver slot as a local
//! [`ShardedCoordinator`](super::shard::ShardedCoordinator) (the
//! [`Coordinator`] trait), so `AgentNode` and `SelectClientNode` drive the
//! *identical* [`ProtocolMsg`](super::message::ProtocolMsg) exchange whether
//! the coordinator is an in-process struct or a process across the network.
//! Every server-bound envelope becomes one framed request; the coordinator's
//! reply batch is returned to the driver for local delivery. It is std-only
//! (no async runtime — the build environment is offline, and `std::net` is
//! all a request/reply connector needs).
//!
//! The server half is `dubhe-net`'s `ReactorListener`: one event-loop thread
//! serving every connection, one router thread owning the coordinator. It
//! lives in its own crate because it needs the readiness poller; this crate
//! only defines the wire it speaks.
//!
//! What each frame means — framing, the channel's phases, every refusal —
//! is decided by the sans-IO [`Connection`] this connector pumps over a
//! blocking socket, the same one under `dubhe-net`'s listener and
//! multiplexer; [`dial`] is the one connect path of this connector and the
//! multiplexer.
//!
//! Robustness contract (pinned by `tests/networked_protocol.rs`): a
//! malformed, truncated or oversized frame, a mid-exchange disconnect, a
//! silent peer, or one that stops reading all surface as [`ProtocolError`]
//! — never a panic, never an unbounded hang. Every socket read and every
//! socket write is bounded by [`TcpConfig::read_timeout`], the per-I/O
//! timeout.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use super::channel::{
    secret_bytes_from_seed, ChannelPolicy, NodeIdentity, RetrySchedule, HANDSHAKE_WIRE_BYTES,
};
use super::codec::payload_size_hint;
use super::connection::{Connection, Event};
use super::message::Envelope;
use super::roles::Coordinator;
use super::transport::TransportStats;
use super::wire::{WireMsg, MAX_FRAME_BYTES};
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// Default per-I/O timeout on protocol sockets. Long enough for a 2048-bit
/// registration epoch on a loaded machine, short enough that a wedged peer
/// cannot hang a driver forever.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket knobs for the client-side connector, builder-style.
///
/// Defaults: [`DEFAULT_READ_TIMEOUT`] (30 s) per socket read or write and the global
/// [`MAX_FRAME_BYTES`] (64 MiB) frame ceiling in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Per-I/O socket timeout: bounds every read of a reply frame and every
    /// write of a request, the handshake's included.
    pub read_timeout: Duration,
    /// Largest frame payload accepted *or produced* on this socket.
    pub max_frame_bytes: usize,
    /// Whether to run the authenticated channel handshake after connecting
    /// and seal every frame (default: [`ChannelPolicy::Plaintext`]).
    pub channel: ChannelPolicy,
    /// Static-secret bytes of this endpoint's long-term channel identity.
    /// `None` generates a fresh identity per connect — fine for anonymous
    /// clients, but a reconnecting client that wants its cohort slot back
    /// must present the *same* identity, so persistent clients set this.
    pub identity: Option<[u8; 32]>,
    /// Pinned server public identity: the handshake refuses any server
    /// whose static key differs. `None` trusts first use.
    pub expected_server: Option<[u8; 32]>,
    /// Total connect (+ handshake) attempts, ≥ 1. With the default of 1 a
    /// failure surfaces raw; with more, transient failures are retried
    /// under bounded exponential backoff and exhaustion surfaces
    /// [`ProtocolError::RetriesExhausted`].
    pub connect_attempts: usize,
    /// Base backoff delay between attempts (attempt `i` waits
    /// `retry_base · 2^i` plus jitter).
    pub retry_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            channel: ChannelPolicy::Plaintext,
            identity: None,
            expected_server: None,
            connect_attempts: 1,
            retry_base: Duration::from_millis(25),
            retry_seed: 0,
        }
    }
}

impl TcpConfig {
    /// Replaces the per-I/O timeout.
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
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

    /// Installs a deterministic long-term identity derived from `seed`
    /// (what tests and simulations use so reconnects present the same key).
    pub fn with_identity_seed(mut self, seed: u64) -> Self {
        self.identity = Some(secret_bytes_from_seed(seed));
        self
    }

    /// Installs explicit identity static-secret bytes.
    pub fn with_identity_bytes(mut self, bytes: [u8; 32]) -> Self {
        self.identity = Some(bytes);
        self
    }

    /// Pins the server's public identity.
    pub fn with_expected_server(mut self, public: [u8; 32]) -> Self {
        self.expected_server = Some(public);
        self
    }

    /// Enables bounded-backoff retries: `attempts` total tries with
    /// `retry_base` initial delay.
    pub fn with_retries(mut self, attempts: usize, retry_base: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.retry_base = retry_base;
        self
    }

    /// Replaces the backoff jitter seed.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }
}

/// Real bytes and frames observed on one socket (header + payload, both
/// directions). This is what a deployment actually pays on the wire —
/// framing and payload encoding included — as opposed to the canonical
/// ciphertext accounting of [`TransportStats`], which prices messages at
/// their fixed-width transport model for like-for-like comparison with the
/// paper. Under the `DBH2` codec the two converge to within a few percent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Frames written to the socket.
    pub frames_sent: usize,
    /// Frames read from the socket.
    pub frames_received: usize,
    /// Bytes written (headers + payloads).
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
    /// Successful [`TcpTransport::reconnect`] cycles on this connector.
    pub reconnects: usize,
}

impl WireStats {
    /// Total *protocol* bytes that crossed the socket in either direction —
    /// inner frame bytes only, by design: this feeds the FL ledger's
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

/// Dials `addr` and, under a `Required` policy, runs the client handshake.
/// The stream comes back blocking, with
/// [`read_timeout`](TcpConfig::read_timeout) on every read and write.
///
/// With `connect_attempts > 1`, *transient* failures (socket errors,
/// disconnects, truncated handshakes — a coordinator that is still binding
/// its port or restarting) are retried under bounded exponential backoff
/// with deterministic jitter; exhaustion surfaces
/// [`ProtocolError::RetriesExhausted`]. Deterministic refusals —
/// authentication failures, a wrong pinned server key, downgrades — are
/// *never* retried: repeating them cannot help and would hammer a peer that
/// already said no.
pub fn dial(
    addr: SocketAddr,
    config: &TcpConfig,
) -> Result<(TcpStream, Connection), ProtocolError> {
    let attempts = config.connect_attempts.max(1);
    let mut schedule = RetrySchedule::new(config.retry_base, config.retry_seed);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(schedule.delay(attempt as u32 - 1));
        }
        match dial_once(addr, config) {
            Ok(dialed) => return Ok(dialed),
            Err(
                e @ (ProtocolError::Io { .. }
                | ProtocolError::Disconnected
                | ProtocolError::TruncatedFrame { .. }),
            ) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    if attempts == 1 {
        Err(last.expect("one failed attempt recorded"))
    } else {
        Err(ProtocolError::RetriesExhausted { attempts })
    }
}

/// One dial + (policy permitting) handshake.
fn dial_once(
    addr: SocketAddr,
    config: &TcpConfig,
) -> Result<(TcpStream, Connection), ProtocolError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_error("connect", e))?;
    let timeout = Some(config.read_timeout);
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| io_error("configure socket", e))?;
    if !config.channel.is_required() {
        return Ok((stream, Connection::plaintext(config.max_frame_bytes)));
    }
    let identity = match config.identity {
        Some(bytes) => NodeIdentity::from_secret_bytes(bytes),
        None => NodeIdentity::generate(),
    };
    let mut connection =
        Connection::client(&identity, config.expected_server, config.max_frame_bytes);
    connection.handshake(&mut stream)?;
    Ok((stream, connection))
}

/// The client-side connector: carries server-bound protocol messages over a
/// framed TCP stream to a coordinator listener and hands the coordinator's
/// replies back to the driver.
///
/// Implements [`Coordinator`], so it drops into
/// [`run_registration`](super::driver::run_registration) /
/// [`run_try`](super::driver::run_try) /
/// [`pump`](super::driver::pump) exactly where a local server would go.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// The connection's protocol state; sealed when the config's policy is
    /// [`ChannelPolicy::Required`].
    connection: Connection,
    stats: TransportStats,
    wire: WireStats,
    /// Remembered so [`reconnect`](Self::reconnect) can redial and re-run
    /// the handshake with the same knobs and identity.
    addr: SocketAddr,
    config: TcpConfig,
}

impl TcpTransport {
    /// Connects to a coordinator endpoint with the [`TcpConfig`] defaults:
    /// [`DEFAULT_READ_TIMEOUT`] and [`MAX_FRAME_BYTES`].
    pub fn connect(addr: SocketAddr) -> Result<Self, ProtocolError> {
        TcpTransport::connect_with_config(addr, TcpConfig::default())
    }

    /// Connects with every socket knob spelled out in a [`TcpConfig`],
    /// retrying transient failures as [`dial`] describes.
    pub fn connect_with_config(addr: SocketAddr, config: TcpConfig) -> Result<Self, ProtocolError> {
        let (stream, connection) = dial(addr, &config)?;
        let handshake_bytes = match connection.peer() {
            Some(_) => HANDSHAKE_WIRE_BYTES,
            None => 0,
        };
        Ok(TcpTransport {
            stream,
            connection,
            stats: TransportStats::default(),
            wire: WireStats {
                handshake_bytes,
                ..WireStats::default()
            },
            addr,
            config,
        })
    }

    /// Tears the current socket down and dials + handshakes afresh with the
    /// connection's original config (same identity, same pinned server, same
    /// retry schedule). Protocol and wire counters carry over — a reconnect
    /// is the *same logical session* recovering, not a new connector — and
    /// the cycle is counted in [`WireStats::reconnects`].
    ///
    /// The server keys cohort state off the authenticated identity, so a
    /// reconnecting registered client resumes idempotently instead of
    /// burning a second cohort slot; see
    /// [`deliver_idempotent`](Self::deliver_idempotent).
    pub fn reconnect(&mut self) -> Result<(), ProtocolError> {
        let _ = self.stream.shutdown(Shutdown::Both);
        let fresh = Self::connect_with_config(self.addr, self.config)?;
        self.stream = fresh.stream;
        self.connection = fresh.connection;
        self.wire.handshake_bytes += fresh.wire.handshake_bytes;
        self.wire.reconnects += 1;
        Ok(())
    }

    /// [`deliver`](Coordinator::deliver), but a remote duplicate-contribution
    /// refusal counts as success with no replies: the resume path for a
    /// client that reconnected without knowing whether its upload landed.
    /// Safe because the coordinator's fold rejects duplicates *before*
    /// folding — replaying a landed registry cannot double-count it.
    pub fn deliver_idempotent(
        &mut self,
        envelope: Envelope,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match self.deliver(envelope) {
            Err(ProtocolError::Remote { detail })
                if detail.contains("already uploaded its registry")
                    || detail.contains("already contributed to try") =>
            {
                Ok(Vec::new())
            }
            other => other,
        }
    }

    /// Canonical per-kind accounting of every message this connector carried
    /// (requests out and reply envelopes in), in the same units as
    /// [`InMemoryTransport::stats`](super::transport::InMemoryTransport::stats).
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Real frame traffic on the socket (headers + encoded payloads).
    pub fn wire_stats(&self) -> &WireStats {
        &self.wire
    }

    /// The server's authenticated public identity, once a `Required`
    /// channel is established.
    pub fn peer_identity(&self) -> Option<[u8; 32]> {
        self.connection.peer()
    }

    /// Frames one wire message — bare on a plaintext connection, sealed on a
    /// channel — and puts it on the socket. The ledger-facing counters meter
    /// the *inner* frame bytes; the seal's cost goes to the channel-overhead
    /// counters. An oversized message is refused before a byte is written.
    fn send(&mut self, msg: &WireMsg) -> Result<(), ProtocolError> {
        let written = self.connection.queue(msg.clone())?;
        self.connection.write_queued(&mut self.stream)?;
        let overhead = written - 8 - payload_size_hint(msg);
        self.wire.frames_sent += 1;
        self.wire.bytes_sent += written - overhead;
        self.wire.sealed_overhead_bytes += overhead;
        Ok(())
    }

    /// Sends one wire message and reads the peer's single reply frame,
    /// opened and decoded inside the buffer it was read into.
    fn request(&mut self, msg: &WireMsg) -> Result<WireMsg, ProtocolError> {
        self.send(msg)?;
        loop {
            let event = self.connection.next_event(&mut self.stream)?;
            if let Event::Frame {
                msg,
                wire_bytes,
                frame_bytes,
            } = event
            {
                self.wire.frames_received += 1;
                self.wire.bytes_received += frame_bytes;
                self.wire.sealed_overhead_bytes += wire_bytes - frame_bytes;
                return msg.force();
            }
        }
    }

    /// Expects the coordinator's reply batch; unwraps remote errors.
    fn request_batch(&mut self, msg: &WireMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match self.request(msg)? {
            WireMsg::Batch { envelopes } => {
                for e in &envelopes {
                    self.stats.charge(&e.msg);
                }
                Ok(envelopes)
            }
            WireMsg::Error { detail } => Err(ProtocolError::Remote { detail }),
            other => Err(ProtocolError::MalformedFrame {
                detail: format!("expected a batch or error reply, got {other:?}"),
            }),
        }
    }

    /// Expects a bare acknowledgement; unwraps remote errors.
    fn request_ack(&mut self, msg: &WireMsg) -> Result<(), ProtocolError> {
        match self.request(msg)? {
            WireMsg::Ack => Ok(()),
            WireMsg::Error { detail } => Err(ProtocolError::Remote { detail }),
            other => Err(ProtocolError::MalformedFrame {
                detail: format!("expected an ack or error reply, got {other:?}"),
            }),
        }
    }

    /// Ends the session politely; the listener closes the connection.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        self.send(&WireMsg::Shutdown)
    }
}

impl Coordinator for TcpTransport {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.stats.charge(&envelope.msg);
        self.request_batch(&WireMsg::Envelope { envelope })
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        self.request_ack(&WireMsg::AnnounceTry {
            try_index,
            participants: participants.to_vec(),
        })
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        self.request_ack(&WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        })
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(&WireMsg::CloseRegistration)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(&WireMsg::CloseTry { try_index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_retries_surface_typed_exhaustion() {
        // A port with nothing listening refuses instantly; all attempts are
        // transient failures, so the bounded backoff runs dry.
        let dead_addr = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let started = std::time::Instant::now();
        let err = TcpTransport::connect_with_config(
            dead_addr,
            TcpConfig::default().with_retries(3, Duration::from_millis(5)),
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::RetriesExhausted { attempts: 3 });
        // Backoff is bounded: 5 + 10 ms (+ jitter < 5 ms each) at most.
        assert!(started.elapsed() < Duration::from_secs(5));

        // A single attempt keeps the raw error for back-compat.
        let err = TcpTransport::connect(dead_addr).unwrap_err();
        assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
    }
}
