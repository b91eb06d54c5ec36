//! The event-driven coordinator listener: one event-loop thread serving
//! every connection, one router thread for the requests it does not answer
//! itself.
//!
//! ## Topology
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   clients ──TCP──▶ │ event-loop thread                          │
//!                    │   mini_mio::Poll (epoll / poll(2))         │
//!                    │   nonblocking accept                       │
//!                    │   per-conn Connection: reassembly, phase,  │
//!                    │   bounded write queue; one flush, and one  │
//!                    │     seal slice, per connection per turn    │
//!                    │   small frame + idle router: answered here ├──┐
//!                    └───────┬───────────────────────▲────────────┘  │
//!                       jobs │ mpsc             mpsc │ replies       │
//!                            │                       │ + Waker       │
//!                    ┌───────▼───────────────────────┴────────────┐  │
//!                    │ router thread: large frames, and whatever  │  │
//!                    │ arrives while a job is outstanding         │  │
//!                    └───────────────────┬────────────────────────┘  │
//!                                  ┌─────▼───────────────────────────▼─┐
//!                                  │ Mutex<Served>: the Coordinator +  │
//!                                  │ the ClientId → identity bindings  │
//!                                  └───────────────────────────────────┘
//! ```
//!
//! ## Who touches the coordinator, and when
//!
//! The coordinator and the session-hijack bindings sit behind one mutex,
//! uncontended by construction. The event loop counts the jobs it has sent
//! to the router minus the replies it has drained from it; the router takes
//! the mutex only between receiving a job and sending that job's reply, so
//! whenever the count is zero the router holds nothing and is parked, or
//! about to be, on its empty channel. Only then — and only for a frame of at most
//! `INLINE_FRAME_BYTES` — does the loop take the mutex itself, run the
//! *same* function the router runs (`Served::answer`: hijack check, then
//! `route_msg`) and queue the reply. A larger frame, or any frame that
//! arrives while a job is outstanding, crosses to the router over the mpsc
//! channel as before, and its reply comes back over the second channel with
//! a [`Waker`] ring so a poll blocked on quiet sockets picks it up
//! immediately. Either way the coordinator sees requests in the order the
//! loop decoded them, and a connection's replies are queued in its request
//! order: an inline answer is queued only when every earlier reply already
//! has been. The router exists so a 14 KB fold (or a multi-megabyte one)
//! overlaps with parsing the next frame; a microsecond fold does not earn
//! the two hand-offs and two context switches that overlap costs. Inline
//! work is bounded per readiness event by what one connection may have read
//! (`READ_BUDGET` plus one chunk), in frames of at most `INLINE_FRAME_BYTES`
//! each, before the loop moves on to the next connection.
//!
//! With all connections multiplexed onto one thread, 10⁴+ mostly-idle
//! persistent clients cost file descriptors, not stacks.
//!
//! ## Reads and writes
//!
//! A readable socket is read until a `read` comes back short — fewer bytes
//! than the buffer holds means the socket is drained, and the poller is
//! level-triggered, so anything that lands later (an EOF included) is
//! reported again; no extra `read` is spent probing for `WouldBlock`.
//! Replies — answered inline or drained from the router — are appended to
//! their connection's queue and the connection is marked; every marked
//! connection — and every one whose socket turned writable — is flushed
//! once when the loop turn ends, so sixteen replies to sixteen pipelined
//! requests leave in one `write`.
//!
//! That flush also produces the reply's bytes, a window ahead of what the
//! socket has taken: a bare frame is encoded one `CHUNK` (16 KiB, the read
//! buffer's size) ahead, and on a sealed channel a frame is encoded and
//! sealed one `SEAL_SLICE` record (256 KiB, the read budget's size) ahead.
//! A turn writes one slice of a connection's queue at most. A reply larger
//! than that — the registration broadcast is `N + 1` copies of the total,
//! 14.5 MB at `N = 1000` — leaves a slice per turn: its first bytes leave
//! after its first window, the peer reads them while the next is produced,
//! and every other connection is read and answered between slices. A
//! connection with bytes still to produce keeps its WRITABLE interest: its
//! socket took every produced byte, so the next poll reports it writable at
//! once, and its next slice is produced when that turn ends.
//!
//! ## Flow control
//!
//! Replies are queued per connection and flushed as the socket accepts them
//! (`WouldBlock` simply parks the remainder until the poller reports the
//! socket writable again). The queue is *bounded*: one that grows past
//! [`ReactorConfig::high_water`] is flushed at once instead of at the end of
//! the turn, and if the peer has stopped reading and the socket does not
//! bring it back under the mark, the listener records a
//! [`ProtocolError::Backpressure`] disconnect and drops the connection — it
//! never holds more than `high_water` plus one frame and never blocks the
//! event loop on one slow reader. Bytes not sealed yet count against the
//! mark, but the cut is for bytes the socket refused: sealing that has not
//! caught up is never taken for a peer that stopped reading. A peer that
//! stalls *mid-frame* on the read side is cut by
//! [`ReactorConfig::read_timeout`], measured from its last byte of
//! progress; idleness *between* frames is healthy (a client may train for
//! minutes between protocol rounds) and is never timed out.
//!
//! ## Authenticated channel
//!
//! Every connection is a server-role [`Connection`]: under
//! [`ReactorConfig::channel`] = [`ChannelPolicy::Required`] it starts in
//! the handshake phase, with the whole prelude under the read timeout so a
//! handshake slow-loris is swept. Which frames each phase accepts, which
//! refusal the rest earn and which counter the refusal bumps is the
//! `Connection`'s decision; this loop sends the refusal back — sealed once
//! a channel exists — hangs up, and binds each `ClientId` to the first
//! authenticated identity that speaks for it (session-hijack refusal, with
//! reconnects presenting the same identity sailing through).
//!
//! Because every coordinator fold is commutative (Montgomery-domain
//! ciphertext multiplication), the ledgers this listener produces are
//! bit-identical to the in-memory transport's, no matter how arrival order
//! interleaves across connections — pinned by this crate's equivalence
//! tests and `dubhe-fl`'s simulation suite.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dubhe_select::protocol::channel::{ChannelPolicy, NodeIdentity};
use dubhe_select::protocol::connection::{Connection, Event};
use dubhe_select::protocol::frames::CHUNK;
use dubhe_select::protocol::stats::{ListenerMetrics, ListenerStats};
use dubhe_select::protocol::wire::{claimed_client, LazyMsg, WireMsg, MAX_FRAME_BYTES};
use dubhe_select::protocol::Coordinator;
use dubhe_select::{ClientId, ProtocolError};
use mini_mio::{Backend, Events, Interest, Poll, Registry, Token, Waker};

/// Default mid-frame stall bound, matching the client's
/// [`DEFAULT_EXCHANGE_TIMEOUT`](dubhe_select::protocol::DEFAULT_EXCHANGE_TIMEOUT).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a poll sleeps when nothing bounds it sooner. Purely a liveness
/// backstop (stop and replies both ring the waker); large enough to cost
/// nothing, small enough that a lost wakeup could never wedge the loop.
const IDLE_POLL_BACKSTOP: Duration = Duration::from_millis(500);

/// Per-readiness read budget: after this many bytes from one socket the
/// loop moves on to the next event (level-triggered polling re-reports the
/// leftover), so one firehose connection cannot starve the rest.
const READ_BUDGET: usize = 256 * 1024;

/// Largest request frame, in bytes on the wire, the event loop answers
/// itself when the router is idle; anything larger is the router's.
///
/// Not a knob: it sits where the benchmark ladder puts the break-even
/// between the hop a routed frame pays (two cross-thread wake-ups, both
/// ways) and the overlap the router buys (it folds while this thread opens
/// and parses the next frame). At 0.7 KB and 256-bit keys
/// (`coordinator.registry_us` 2–3 µs) answering inline wins outright:
/// `fanin_small_plain` runs its epoch in half the time. At 2.6 KB and
/// 1024-bit keys over four shards (`coordinator.distribution_us` 33–43 µs)
/// the overlap wins: with those frames answered inline the tries phase of
/// `fanin_large_sealed` took 15–20 % longer (`driver.tries_s` 17–18 → 20–23
/// ms, three alternating traced runs each), and routed it matches the
/// parent's. 2 KiB separates the two, and sits safely under the fold's own
/// fan-out decision: at 1024-bit keys it is 8 ciphertext residues, a
/// quarter of `dubhe-he`'s `FAN_OUT_WORK`, so nothing answered on the loop
/// thread would have been spread over cores by the router either.
const INLINE_FRAME_BYTES: usize = 2 * 1024;

/// Knobs for the reactor listener, builder-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Mid-frame read timeout, measured from a connection's last byte of
    /// progress on an incomplete frame.
    pub read_timeout: Duration,
    /// Largest frame payload accepted or produced.
    pub max_frame_bytes: usize,
    /// Per-connection write-queue bound, in bytes: a queue past this mark
    /// means the peer stopped reading, and the connection is dropped with a
    /// [`ProtocolError::Backpressure`]. Defaults to `2 × max_frame_bytes`
    /// (saturating), so no single in-flight reply can trip it on its own.
    pub high_water: usize,
    /// Addresses to listen on. Several loopback aliases (`127.0.0.2`, …)
    /// spread very large client counts across source-port spaces; one
    /// `127.0.0.1:0` entry is the default.
    pub listen_addrs: Vec<SocketAddr>,
    /// Readiness backend; `None` picks the platform default (epoll on
    /// Linux, `poll(2)` elsewhere).
    pub backend: Option<Backend>,
    /// Events drained per poll call (level-triggered polling re-reports
    /// whatever does not fit).
    pub events_capacity: usize,
    /// Whether connections must run the authenticated-channel handshake
    /// before any protocol frame is accepted. Under
    /// [`ChannelPolicy::Required`] every connection starts in a
    /// pre-protocol phase speaking nothing but `DBHS` frames; after mutual
    /// authentication completes, nothing but `DBHE` sealed frames.
    pub channel: ChannelPolicy,
    /// The listener's static X25519 identity secret under a `Required`
    /// policy; `None` generates a fresh identity at spawn (readable via
    /// [`ReactorListener::public_identity`] so clients can pin it).
    pub identity: Option<[u8; 32]>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            high_water: 2 * MAX_FRAME_BYTES,
            listen_addrs: vec![SocketAddr::from(([127, 0, 0, 1], 0))],
            backend: None,
            events_capacity: 1024,
            channel: ChannelPolicy::Plaintext,
            identity: None,
        }
    }
}

impl ReactorConfig {
    /// Replaces the mid-frame read timeout.
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Replaces the frame-payload ceiling and scales the default high-water
    /// mark with it (call [`with_high_water`](Self::with_high_water) *after*
    /// this to pin an explicit bound).
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self.high_water = max_frame_bytes.saturating_mul(2);
        self
    }

    /// Replaces the per-connection write-queue bound.
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        self.high_water = high_water;
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

    /// Pins the listener's static channel identity to a deterministic
    /// secret derived from `seed`.
    pub fn with_identity_seed(mut self, seed: u64) -> Self {
        self.identity = Some(dubhe_select::protocol::channel::secret_bytes_from_seed(
            seed,
        ));
        self
    }

    /// Pins the listener's static channel identity (the X25519 secret).
    pub fn with_identity_bytes(mut self, secret: [u8; 32]) -> Self {
        self.identity = Some(secret);
        self
    }
}

/// A decoded (or deferred — see [`LazyMsg`]) request crossing from the
/// event loop to the router.
struct Job {
    token: usize,
    msg: LazyMsg,
    /// The authenticated channel identity of the connection this request
    /// arrived on, when it ran the handshake — what the session-hijack
    /// binding keys on.
    identity: Option<[u8; 32]>,
    started: Instant,
}

/// The router's answer crossing back to the event loop.
struct Reply {
    token: usize,
    msg: WireMsg,
    started: Instant,
}

/// The event-driven multiplexed coordinator listener: serves the wire
/// protocol — framing, the authenticated channel, typed errors — to every
/// connection from a single event-loop thread.
#[derive(Debug)]
pub struct ReactorListener<C: Coordinator + Send + 'static> {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    metrics: Arc<ListenerMetrics>,
    event_thread: Option<JoinHandle<()>>,
    /// Hands back its share of the coordinator when it ends; by then the
    /// event thread has dropped the only other one.
    router_thread: Option<JoinHandle<Arc<Mutex<Served<C>>>>>,
    /// The listener's public channel identity, when it requires the
    /// authenticated channel — what clients pin.
    public_identity: Option<[u8; 32]>,
}

impl<C: Coordinator + Send + 'static> ReactorListener<C> {
    /// Binds an ephemeral loopback port and starts serving `coordinator`
    /// with the [`ReactorConfig`] defaults.
    pub fn spawn(coordinator: C) -> Result<Self, ProtocolError> {
        ReactorListener::spawn_with(coordinator, ReactorConfig::default())
    }

    /// [`spawn`](Self::spawn) with every knob spelled out.
    pub fn spawn_with(coordinator: C, config: ReactorConfig) -> Result<Self, ProtocolError> {
        let io_err = |context: &'static str| {
            move |e: std::io::Error| ProtocolError::Io {
                context,
                detail: e.to_string(),
            }
        };
        let mut listeners = Vec::with_capacity(config.listen_addrs.len());
        let mut addrs = Vec::with_capacity(config.listen_addrs.len());
        for addr in &config.listen_addrs {
            let listener = TcpListener::bind(addr).map_err(io_err("bind"))?;
            listener.set_nonblocking(true).map_err(io_err("bind"))?;
            addrs.push(listener.local_addr().map_err(io_err("bind"))?);
            listeners.push(listener);
        }
        let poll = match config.backend {
            Some(backend) => Poll::with_backend(backend),
            None => Poll::new(),
        }
        .map_err(io_err("create poller"))?;
        let registry = poll.registry();
        for (i, listener) in listeners.iter().enumerate() {
            registry
                .register(listener, Token(i), Interest::READABLE)
                .map_err(io_err("register listener"))?;
        }
        let waker_token = listeners.len();
        let waker =
            Arc::new(Waker::new(&registry, Token(waker_token)).map_err(io_err("create waker"))?);

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ListenerMetrics::new());
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();

        // Resolve the channel identity once at spawn so every connection
        // handshakes as the same server (and so clients can pin it).
        let identity = config.channel.is_required().then(|| match config.identity {
            Some(bytes) => NodeIdentity::from_secret_bytes(bytes),
            None => NodeIdentity::generate(),
        });
        let public_identity = identity.as_ref().map(|id| id.public_bytes());

        let served = Arc::new(Mutex::new(Served {
            coordinator,
            bindings: HashMap::new(),
        }));
        let router_served = Arc::clone(&served);
        let router_waker = Arc::clone(&waker);
        let router_thread =
            std::thread::spawn(move || route_jobs(router_served, job_rx, reply_tx, router_waker));

        let mut event_loop = EventLoop {
            poll,
            registry,
            events: Events::with_capacity(config.events_capacity),
            ready: Vec::new(),
            listeners,
            waker: Arc::clone(&waker),
            waker_token,
            conns: HashMap::new(),
            next_token: waker_token + 1,
            job_tx,
            reply_rx,
            outstanding: 0,
            served,
            flush_due: Vec::new(),
            stop: Arc::clone(&stop),
            metrics: Arc::clone(&metrics),
            identity,
            config,
        };
        let event_thread = std::thread::spawn(move || event_loop.run());

        Ok(ReactorListener {
            addrs,
            stop,
            waker,
            metrics,
            event_thread: Some(event_thread),
            router_thread: Some(router_thread),
            public_identity,
        })
    }

    /// The first (often only) address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Every bound address, in [`ReactorConfig::listen_addrs`] order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The listener's public channel identity under
    /// [`ChannelPolicy::Required`] — what clients pin; `None` when the
    /// listener serves plaintext.
    pub fn public_identity(&self) -> Option<[u8; 32]> {
        self.public_identity
    }

    /// A point-in-time [`ListenerStats`] snapshot.
    pub fn stats(&self) -> ListenerStats {
        self.metrics.snapshot()
    }

    /// Stops the event loop, drains the router and returns the final
    /// coordinator state.
    pub fn shutdown(mut self) -> Option<C> {
        self.stop_threads()
    }

    fn stop_threads(&mut self) -> Option<C> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        // The event thread owned the only job Sender and the only other
        // share of the coordinator; with it gone the router drains its
        // queue and returns the last one. A thread that panicked mid-request
        // left the mutex poisoned: no coordinator state to vouch for.
        let served = self.router_thread.take()?.join().ok()?;
        let served = Arc::try_unwrap(served).ok()?.into_inner().ok()?;
        Some(served.coordinator)
    }
}

impl<C: Coordinator + Send + 'static> Drop for ReactorListener<C> {
    fn drop(&mut self) {
        if self.event_thread.is_some() {
            let _ = self.stop_threads();
        }
    }
}

/// What a request touches beyond its own connection: the coordinator, and
/// the session-hijack bindings in front of it. One instance per listener,
/// behind the mutex the module doc describes.
#[derive(Debug)]
struct Served<C> {
    coordinator: C,
    /// The first authenticated identity to speak as a `ClientId` owns that
    /// id for the listener's lifetime.
    bindings: HashMap<ClientId, [u8; 32]>,
}

impl<C: Coordinator> Served<C> {
    /// Answers one request — the one function both threads serve with. A
    /// different channel identity reusing a bound `ClientId` gets a typed
    /// refusal before the coordinator ever sees the message; reconnects
    /// present the same identity and sail through.
    fn answer(&mut self, msg: LazyMsg, identity: Option<[u8; 32]>) -> WireMsg {
        if let (Some(id), Some(who)) = (claimed_client(&msg), identity) {
            if *self.bindings.entry(id).or_insert(who) != who {
                return WireMsg::Error {
                    detail: ProtocolError::AuthFailure {
                        detail: format!(
                            "client {id} is bound to a different channel identity \
                             (session hijack refused)"
                        ),
                    }
                    .to_string(),
                };
            }
        }
        route_msg(&mut self.coordinator, msg)
    }
}

/// The router thread: answers the requests the event loop hands over, in
/// the order it sent them. The mutex is taken per job and released before
/// the job's reply is sent — the event loop takes it only when every job it
/// sent has been answered, so the two never meet there. Bursts of queued
/// jobs are answered with a single waker ring.
fn route_jobs<C: Coordinator>(
    served: Arc<Mutex<Served<C>>>,
    rx: mpsc::Receiver<Job>,
    tx: mpsc::Sender<Reply>,
    waker: Arc<Waker>,
) -> Arc<Mutex<Served<C>>> {
    let mut jobs = Vec::new();
    while let Ok(first) = rx.recv() {
        jobs.push(first);
        while jobs.len() < 1024 {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        for job in jobs.drain(..) {
            let msg = served
                .lock()
                .expect("the event loop panicked mid-request")
                .answer(job.msg, job.identity);
            let reply = Reply {
                token: job.token,
                msg,
                started: job.started,
            };
            if tx.send(reply).is_err() {
                return served;
            }
        }
        let _ = waker.wake();
    }
    served
}

/// Maps one request onto the [`Coordinator`] trait. Epoch checks live in
/// `deliver`, so a stale or future-epoch frame from a remote peer earns a
/// typed error reply, exactly as it would in-process.
fn route_msg<C: Coordinator>(coordinator: &mut C, msg: LazyMsg) -> WireMsg {
    let batch_or_error = |r: Result<Vec<dubhe_select::protocol::Envelope>, ProtocolError>| match r {
        Ok(envelopes) => WireMsg::Batch { envelopes },
        Err(e) => WireMsg::Error {
            detail: e.to_string(),
        },
    };
    let ack_or_error = |r: Result<(), ProtocolError>| match r {
        Ok(()) => WireMsg::Ack,
        Err(e) => WireMsg::Error {
            detail: e.to_string(),
        },
    };
    let msg = match msg {
        // Registry uploads arrive undecoded: the fold reads ciphertext
        // residues straight out of the frame payload.
        LazyMsg::DeferredRegistry(frame) => {
            return batch_or_error(coordinator.deliver_registry_frame(frame));
        }
        LazyMsg::Eager(msg) => msg,
    };
    match msg {
        WireMsg::Envelope { envelope } => batch_or_error(coordinator.deliver(envelope)),
        WireMsg::AnnounceTry {
            try_index,
            participants,
        } => ack_or_error(coordinator.announce_try(try_index, &participants)),
        WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        } => ack_or_error(coordinator.begin_epoch(epoch, expected_registrations)),
        WireMsg::CloseRegistration => batch_or_error(coordinator.close_registration()),
        WireMsg::CloseTry { try_index } => batch_or_error(coordinator.close_try(try_index)),
        other => WireMsg::Error {
            detail: format!("coordinator cannot serve {other:?}"),
        },
    }
}

/// One reply frame sitting (possibly partially) in a connection's write
/// queue, tracked by its end offset in the connection's cumulative output
/// stream so completion can be detected after any number of partial writes.
struct PendingSend {
    /// Cumulative stream offset at which this frame ends.
    end: u64,
    /// Decode instant of the request this answers (`None` for listener-
    /// originated error frames, which have no request latency).
    started: Option<Instant>,
    /// Frame size on the wire.
    bytes: usize,
}

/// Per-connection state owned by the event loop: the socket, and what only
/// the loop tracks about it. The protocol itself — reassembly, channel
/// phase, refusals, the write queue — is the [`Connection`].
struct Conn {
    stream: TcpStream,
    connection: Connection,
    pending_sends: VecDeque<PendingSend>,
    /// Set while the connection sits in [`EventLoop::flush_due`].
    flush_due: bool,
    /// The write queue's `sealed_total` already added to the listener's
    /// `bytes_sealed`.
    sealed_counted: u64,
    /// Armed while the connection wants a read deadline; pushed forward on
    /// every byte of progress, enforced by the sweep in the event loop.
    frame_deadline: Option<Instant>,
    /// Flush what is queued, then close (shutdown frames, refusals).
    closing: bool,
    /// Whether the current registration includes WRITABLE.
    wants_write: bool,
}

/// Why the event loop dropped a connection — decides which failure counter
/// the close records.
enum CloseReason {
    /// Clean close or shutdown frame: no failure to count.
    Clean,
    /// Peer vanished or stalled mid-frame.
    Truncated,
    /// Write queue crossed the high-water mark.
    Backpressure,
}

/// A connection's socket as its write queue sees it: every `write` call is
/// counted.
struct CountedWrites<'a>(&'a TcpStream, &'a ListenerMetrics);

impl Write for CountedWrites<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.1.socket_write();
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct EventLoop<C> {
    poll: Poll,
    registry: Registry,
    events: Events,
    /// The last poll's events, copied out so handlers can borrow `self`.
    ready: Vec<mini_mio::Event>,
    listeners: Vec<TcpListener>,
    waker: Arc<Waker>,
    waker_token: usize,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    job_tx: mpsc::Sender<Job>,
    reply_rx: mpsc::Receiver<Reply>,
    /// Jobs sent to the router minus replies drained from it. Zero means
    /// the router has answered everything it was sent: it holds no lock and
    /// is parked, or about to be, on its empty channel.
    outstanding: usize,
    /// The coordinator, shared with the router; see the module doc for when
    /// this thread may take it.
    served: Arc<Mutex<Served<C>>>,
    /// Connections holding replies queued this turn and not yet offered to
    /// their socket, or whose socket turned writable: flushed when the turn
    /// ends.
    flush_due: Vec<usize>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ListenerMetrics>,
    /// The resolved server identity under a `Required` channel policy;
    /// every accepted connection handshakes against a clone of it.
    identity: Option<NodeIdentity>,
    config: ReactorConfig,
}

impl<C: Coordinator> EventLoop<C> {
    fn run(&mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.next_timeout();
            if let Err(e) = self.poll.poll(&mut self.events, Some(timeout)) {
                eprintln!("reactor listener: poll failed, shutting down: {e}");
                break;
            }
            let mut ready = std::mem::take(&mut self.ready);
            ready.extend(self.events.iter().copied());
            for event in ready.drain(..) {
                let token = event.token().0;
                if token < self.listeners.len() {
                    self.accept_all(token);
                } else if token == self.waker_token {
                    self.waker.drain();
                    self.drain_replies();
                } else {
                    if event.is_readable() || event.is_hup() || event.is_error() {
                        self.handle_read(token);
                    }
                    // Written with the turn's other flushes, so a
                    // connection gets one slice of production per turn.
                    if event.is_writable() {
                        self.mark_flush_due(token);
                    }
                }
            }
            self.ready = ready;
            // Replies may have landed while the loop was busy with sockets;
            // drain opportunistically rather than waiting for the next ring.
            self.drain_replies();
            // The turn's one write per connection: everything queued above,
            // inline answers and router replies alike, with at most one
            // slice of sealing each.
            let mut due = std::mem::take(&mut self.flush_due);
            for token in due.drain(..) {
                self.flush_conn(token);
            }
            self.flush_due = due;
            self.sweep_stalled();
        }
        // Count every still-open connection as closed so a final stats
        // snapshot balances.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, CloseReason::Clean);
        }
    }

    /// Sleep until the nearest mid-frame deadline, else the idle backstop.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.frame_deadline)
            .map(|d| {
                d.saturating_duration_since(now)
                    .max(Duration::from_millis(1))
            })
            .min()
            .unwrap_or(IDLE_POLL_BACKSTOP)
            .min(IDLE_POLL_BACKSTOP)
    }

    fn accept_all(&mut self, listener_idx: usize) {
        loop {
            match self.listeners[listener_idx].accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if let Err(e) =
                        self.registry
                            .register(&stream, Token(token), Interest::READABLE)
                    {
                        eprintln!("reactor listener: register failed, refusing connection: {e}");
                        continue;
                    }
                    let max = self.config.max_frame_bytes;
                    let connection = match &self.identity {
                        Some(id) => Connection::server(id.clone(), max),
                        None => Connection::plaintext(max),
                    };
                    // A handshake starts under the read timeout: a peer that
                    // connects and then stays silent is swept, never parked.
                    let frame_deadline = connection
                        .wants_read_deadline()
                        .then(|| Instant::now() + self.config.read_timeout);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            connection,
                            pending_sends: VecDeque::new(),
                            flush_due: false,
                            sealed_counted: 0,
                            frame_deadline,
                            closing: false,
                            wants_write: false,
                        },
                    );
                    self.metrics.connection_opened();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("reactor listener: accept failed, continuing: {e}");
                    break;
                }
            }
        }
    }

    fn handle_read(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; CHUNK];
        let mut budget = READ_BUDGET;
        let mut eof = false;
        let mut progressed = false;
        loop {
            self.metrics.socket_read();
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.connection.received(&chunk[..n]);
                    progressed = true;
                    budget = budget.saturating_sub(n);
                    // A short read drained the socket, a spent budget ends
                    // this connection's share of the turn: either way the
                    // level-triggered poll re-reports whatever is left or
                    // lands later, an EOF included.
                    if n < chunk.len() || budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        self.parse_frames(token, progressed);
        if eof {
            let reason = if self
                .conns
                .get(&token)
                .is_some_and(|c| c.connection.is_mid_frame())
            {
                CloseReason::Truncated
            } else {
                CloseReason::Clean
            };
            self.close_conn(token, reason);
        }
    }

    /// Pulls every event out of a connection's buffered bytes: requests go
    /// to [`dispatch`](Self::dispatch), handshake replies to the write
    /// queue, and a refusal back to the peer as a typed error frame before
    /// the hangup. What each phase accepts, and which counter a refusal is
    /// charged to, is the [`Connection`]'s to decide.
    fn parse_frames(&mut self, token: usize, progressed: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.connection.poll() {
                Ok(Some(Event::Frame {
                    msg, wire_bytes, ..
                })) => {
                    self.metrics.frame_received(wire_bytes);
                    if matches!(msg, LazyMsg::Eager(WireMsg::Shutdown)) {
                        conn.closing = true;
                        if conn.connection.out.pending() == 0 {
                            self.close_conn(token, CloseReason::Clean);
                        }
                        return;
                    }
                    let identity = conn.connection.peer();
                    if !self.dispatch(token, msg, identity, wire_bytes) {
                        return;
                    }
                }
                Ok(Some(Event::HandshakeReply)) => self.queued(token),
                Ok(Some(Event::Established { .. })) => {
                    conn.frame_deadline = None;
                    self.metrics.handshake_completed();
                }
                Ok(None) => {
                    self.update_deadline(token, progressed);
                    return;
                }
                Err(refusal) => {
                    if let Some(counter) = refusal.counter {
                        self.metrics.count(counter);
                    }
                    // Framing or trust is lost: tell the peer why, flush,
                    // hang up rather than guess at bytes.
                    conn.closing = true;
                    conn.frame_deadline = None;
                    let detail = refusal.error.to_string();
                    self.queue_frame(token, WireMsg::Error { detail }, None);
                    return;
                }
            }
        }
    }

    /// Gets one decoded request answered; `false` if the connection had to
    /// be closed instead. With no job outstanding at the router and a frame
    /// of at most [`INLINE_FRAME_BYTES`], this thread answers it where it
    /// stands — the router holds nothing, so the coordinator mutex is free —
    /// and queues the reply; anything else goes to the router, behind
    /// whatever it holds.
    fn dispatch(
        &mut self,
        token: usize,
        msg: LazyMsg,
        identity: Option<[u8; 32]>,
        wire_bytes: usize,
    ) -> bool {
        let started = Instant::now();
        if self.outstanding == 0 && wire_bytes <= INLINE_FRAME_BYTES {
            let reply = self
                .served
                .lock()
                .expect("the router panicked mid-request")
                .answer(msg, identity);
            self.metrics.answered_inline();
            self.queue_frame(token, reply, Some(started));
            return true;
        }
        let job = Job {
            token,
            msg,
            identity,
            started,
        };
        if self.job_tx.send(job).is_err() {
            // Router gone: the listener is shutting down.
            self.close_conn(token, CloseReason::Clean);
            return false;
        }
        self.outstanding += 1;
        true
    }

    /// Arms, pushes forward or clears the read deadline after a pull came
    /// up short, as the connection asks.
    fn update_deadline(&mut self, token: usize, progressed: bool) {
        let read_timeout = self.config.read_timeout;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.connection.wants_read_deadline() {
            conn.frame_deadline = None;
        } else if progressed || conn.frame_deadline.is_none() {
            conn.frame_deadline = Some(Instant::now() + read_timeout);
        }
    }

    /// Moves a reply into a connection's write queue, which encodes it a
    /// chunk ahead of the socket, or seals it a record ahead on an
    /// established channel.
    /// Metrics count the bytes queued, seal included.
    fn queue_frame(&mut self, token: usize, msg: WireMsg, started: Option<Instant>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.connection.queue(msg) {
            Ok(written) => conn.pending_sends.push_back(PendingSend {
                end: conn.connection.out.queued_total(),
                started,
                bytes: written,
            }),
            Err(e) => {
                // An unencodable reply is a server-side bug surfaced safely:
                // drop the connection rather than desync its framing.
                eprintln!("reactor listener: failed to encode reply, closing connection: {e}");
                self.close_conn(token, CloseReason::Clean);
                return;
            }
        }
        self.queued(token);
    }

    /// After every push: marks the connection for the flush that ends the
    /// turn — or, with more than the high-water mark unwritten, offers the
    /// bytes to the socket now and cuts a peer that still will not take
    /// them.
    fn queued(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut socket = CountedWrites(&conn.stream, &self.metrics);
        match conn
            .connection
            .out
            .hold_to(self.config.high_water, &mut socket)
        {
            Ok(false) => self.mark_flush_due(token),
            Ok(true) => self.flushed(token),
            Err(e @ ProtocolError::Backpressure { .. }) => {
                eprintln!("reactor listener: {e}");
                self.flushed(token);
                self.close_conn(token, CloseReason::Backpressure);
            }
            Err(_) => self.close_conn(token, CloseReason::Truncated),
        }
    }

    /// Queues the connection for the flush that ends the turn.
    fn mark_flush_due(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.flush_due {
            conn.flush_due = true;
            self.flush_due.push(token);
        }
    }

    /// Produces at most one slice more and writes as much of it as the
    /// socket accepts — a sealed slice in one `write` when it takes it all,
    /// a bare one a chunk a `write`.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.flush_due = false;
        let mut socket = CountedWrites(&conn.stream, &self.metrics);
        match conn.connection.out.flush_slice(&mut socket) {
            Ok(()) => self.flushed(token),
            Err(_) => self.close_conn(token, CloseReason::Truncated),
        }
    }

    /// After every write attempt: records the bytes sealed and the frames
    /// that left completely, and what the socket would not take; finishes a
    /// pending close once the queue drains. WRITABLE interest is kept while
    /// bytes remain: sealed ones the socket refused, or unsealed ones, whose
    /// next slice the writable socket asks for in the next turn.
    fn flushed(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let sealed = conn.connection.out.sealed_total();
        if sealed > conn.sealed_counted {
            self.metrics
                .bytes_sealed((sealed - conn.sealed_counted) as usize);
            conn.sealed_counted = sealed;
        }
        while conn
            .pending_sends
            .front()
            .is_some_and(|p| p.end <= conn.connection.out.written_total())
        {
            let done = conn.pending_sends.pop_front().expect("front checked");
            self.metrics.frame_sent(done.bytes);
            if let Some(started) = done.started {
                self.metrics.record_latency(started.elapsed());
            }
        }
        let unwritten = conn.connection.out.pending();
        self.metrics.write_queue_depth(unwritten);
        if unwritten == 0 && conn.closing {
            self.close_conn(token, CloseReason::Clean);
            return;
        }
        self.set_write_interest(token, unwritten > 0);
    }

    fn set_write_interest(&mut self, token: usize, want_write: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.wants_write == want_write {
            return;
        }
        let interest = if want_write {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if self
            .registry
            .reregister(&conn.stream, Token(token), interest)
            .is_ok()
        {
            conn.wants_write = want_write;
        }
    }

    fn drain_replies(&mut self) {
        while let Ok(reply) = self.reply_rx.try_recv() {
            self.outstanding -= 1;
            // The connection may have died while its request was at the
            // router; its reply is simply dropped (`queue_frame` finds no
            // connection to queue it on).
            self.queue_frame(reply.token, reply.msg, Some(reply.started));
        }
    }

    /// Cuts connections that stalled mid-frame past the read timeout,
    /// telling the peer why first: the notice is queued behind whatever the
    /// connection still owes — never into the middle of a half-written
    /// reply, and on a channel sealed under the next sequence number in
    /// line — and gets one nonblocking flush before the hangup.
    fn sweep_stalled(&mut self) {
        let now = Instant::now();
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.frame_deadline.is_some_and(|d| d <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in stalled {
            if let Some(conn) = self.conns.get(&token) {
                let detail = if conn.connection.is_handshaking() {
                    format!(
                        "handshake stalled past the {:?} read timeout",
                        self.config.read_timeout
                    )
                } else {
                    format!(
                        "transport I/O failed while trying to read frame: \
                         stalled mid-frame past the {:?} read timeout",
                        self.config.read_timeout
                    )
                };
                self.queue_frame(token, WireMsg::Error { detail }, None);
                self.flush_conn(token);
            }
            self.close_conn(token, CloseReason::Truncated);
        }
    }

    fn close_conn(&mut self, token: usize, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.registry.deregister(&conn.stream);
        // A connection that dies before mutual authentication completes is
        // a failed handshake, whatever killed it.
        if conn.connection.is_handshaking() {
            self.metrics.handshake_failed();
        }
        match reason {
            CloseReason::Clean => {}
            CloseReason::Truncated => self.metrics.truncated_frame(),
            CloseReason::Backpressure => self.metrics.backpressure_disconnect(),
        }
        self.metrics.connection_closed();
    }
}
