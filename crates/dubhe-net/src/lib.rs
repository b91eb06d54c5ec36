//! # dubhe-net — the event-driven coordinator listener
//!
//! A selection epoch at production scale means 10⁴–10⁵ *mostly idle*
//! persistent client connections — far beyond what a thread per socket can
//! carry (the thread-per-connection listener this crate replaced accepted
//! 2.4× and registered a 9 000-client cohort 10.8× slower). So the
//! coordinator is served one way: one event-loop thread multiplexing every
//! connection through a readiness poller ([`mini_mio`], the vendored
//! epoll/poll(2) stand-in). Small requests that find the router idle are
//! answered on that thread; everything else is routed to the coordinator
//! on a separate router thread, so a large fold overlaps with the next
//! frame's parse.
//!
//! [`ReactorListener`] is that server: non-blocking accept, identity
//! binding, bounded write queues flushed once per connection per loop
//! turn, with `WouldBlock`-driven flow control and a typed
//! [`Backpressure`](dubhe_select::ProtocolError::Backpressure) disconnect
//! past the high-water mark, and a [`ListenerStats`] snapshot of all of it.
//! The client side — one connection for a driver, 10⁴+ for `dubhe-bench`'s
//! `load_gen` — is `dubhe-select`'s [`Client`].
//!
//! Wire format, channel, message types, coordinator semantics and the
//! per-connection protocol itself — frame reassembly, the
//! authenticated-channel phases, every refusal, in one sans-IO
//! [`Connection`] per socket — all come from `dubhe-select`; this crate
//! only decides *how the listener's sockets are waited on*, which is why
//! the ledgers it produces are bit-identical to the in-memory transport
//! (the running folds are commutative, so arrival order cannot matter).
//!
//! ## Example: a coordinator behind a loopback port
//!
//! ```
//! use dubhe_net::ReactorListener;
//! use dubhe_select::protocol::{
//!     Client, ClientConfig, Coordinator, Envelope, Party, ProtocolMsg, ShardedCoordinator,
//! };
//!
//! let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 2)).unwrap();
//! let mut client = Client::connect(listener.addr(), 1, ClientConfig::default()).unwrap();
//! // A verdict is always accepted and triggers no broadcast.
//! let replies = client
//!     .deliver(Envelope {
//!         from: Party::Agent,
//!         to: Party::Server,
//!         epoch: 0,
//!         msg: ProtocolMsg::TryVerdict { best_try: 1, distance: 0.25 },
//!     })
//!     .unwrap();
//! assert!(replies.is_empty());
//! client.shutdown().unwrap();
//! let coordinator = listener.shutdown().expect("state returned");
//! assert_eq!(coordinator.last_verdict(), Some((1, 0.25)));
//! ```
//!
//! [`ListenerStats`]: dubhe_select::protocol::stats::ListenerStats
//! [`Connection`]: dubhe_select::protocol::Connection
//! [`Client`]: dubhe_select::protocol::Client

#[doc(hidden)]
pub mod compat;
pub mod reactor;

#[doc(hidden)]
pub use compat::{MuxClient, MuxConfig};
pub use reactor::{ReactorConfig, ReactorListener};
