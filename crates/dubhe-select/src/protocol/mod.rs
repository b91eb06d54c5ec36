//! # The role-separated Dubhe protocol
//!
//! This module makes the paper's threat model a *structural* property: who
//! can see which message is decided by which role type holds which fields,
//! not by the discipline of a monolithic function. Three actors exchange
//! typed [`ProtocolMsg`]s over a [`Transport`]:
//!
//! * [`AgentNode`] — the randomly chosen agent client. Owns the epoch
//!   [`Keypair`](dubhe_he::Keypair), decrypts the per-try sums, evaluates
//!   the L1 try-test and issues the verdict.
//! * [`SelectClientNode`] — an ordinary client. Receives the keypair, fills
//!   and encrypts its registry (Algorithm 1), decrypts the broadcast total
//!   and computes its own participation probability (Eq. 6).
//! * [`ShardedCoordinator`] — the honest-but-curious coordinator. Holds only
//!   the [`PublicKey`](dubhe_he::PublicKey) and running ciphertext folds;
//!   its struct has no field that could store a private key or a plaintext
//!   distribution, and it refuses a key dispatch that carries one.
//!
//! ## Message ↔ paper mapping
//!
//! | [`ProtocolMsg`] variant | Paper step | Link |
//! |---|---|---|
//! | [`PublicKeyDispatch`] | Fig. 4 step 1 — agent generates and dispatches the epoch key | agent → clients (keypair), agent → server (public key only) |
//! | [`EncryptedRegistry`] | Fig. 4 step 2 — each client uploads `Enc(R^(t,k))` | client → server |
//! | [`EncryptedTotalBroadcast`] | Fig. 4 step 3 — server adds registries blindly, broadcasts `Enc(R_A)` | server → clients, agent |
//! | [`EncryptedDistribution`] | §5.3.1 — tentatively selected client uploads `Enc(p_l)` for try `h` | client → server |
//! | [`EncryptedDistributionSum`] | §5.3.1 — server forwards `Enc(Σ p_l)` of try `h` | server → agent |
//! | [`TryVerdict`] | §5.3.1 — agent announces `h* = argmin_h ‖p_o,h − p_u‖₁` | agent → server |
//!
//! When a [`PackingPolicy`] is installed (BatchCrypt-style slot packing, the
//! paper's §6.4 overhead lever), the four ciphertext-bearing messages travel
//! as their `Packed*` twins — [`PackedRegistry`], [`PackedTotalBroadcast`],
//! [`PackedDistribution`], [`PackedDistributionSum`] — same paper steps,
//! same [`MsgKind`]s (so per-kind metering compares packed and unpacked runs
//! link-for-link), with many counters per Paillier plaintext. The policy's
//! [`HeadroomModel`](dubhe_he::HeadroomModel) proves `max_clients ·
//! max_counter < 2^slot_bits` before any ciphertext exists and refuses
//! over-budget folds at runtime with typed errors.
//!
//! Fig. 4 step 4 (clients decrypt the total and compute Eq. 6 locally)
//! produces no wire message: it happens inside [`SelectClientNode`] when the
//! broadcast arrives.
//!
//! Every message knows its canonical wire size through `dubhe-he`'s
//! transport model ([`ProtocolMsg::wire_bytes`]), and the in-memory
//! transport meters every link per message kind ([`TransportStats`]) — the
//! numbers the §6.4 overhead study reports and the FL ledger charges.
//!
//! ## Drivers and deployment shapes
//!
//! One driver per exchange sequences it deterministically:
//! [`run_registration`] for Fig. 4, [`run_try_with_dropouts`] (and
//! [`run_try`], its form without dropouts) for §5.3.1, both over [`pump`].
//! `dubhe-fl`'s simulator, `secure_multi_time_select` and the examples
//! drive the same actors through them.
//!
//! The drivers are generic over the [`Coordinator`] slot, which is what lets
//! one exchange run in process or across a socket without the agent or
//! client roles changing a line:
//!
//! * [`ShardedCoordinator`] — the one coordinator state machine: registry
//!   positions partitioned across N shard folds (one by default) that
//!   advance rayon-parallel and merge into a bit-identical total;
//! * [`Client`] → `dubhe_net::ReactorListener` — the same messages as
//!   length-prefixed `DBH2` frames (see [`wire`]) over real loopback
//!   sockets, served by `dubhe-net`'s event-loop listener. The payload is
//!   the canonical binary encoding of [`codec`], so wire traffic stays
//!   within 1.10× of the paper's communication model.
//!
//! Both ends of a socket — the listener, and the one [`Client`] that a
//! driver (over one connection) and the load generator (over 10⁴+) share —
//! pump one sans-IO [`Connection`] per socket: frame reassembly, the
//! authenticated channel's phases and every refusal live there once.
//!
//! `docs/ARCHITECTURE.md` draws the full picture; `docs/THREAT_MODEL.md`
//! explains why both uphold the same structural guarantee.
//!
//! [`PublicKeyDispatch`]: ProtocolMsg::PublicKeyDispatch
//! [`EncryptedRegistry`]: ProtocolMsg::EncryptedRegistry
//! [`EncryptedTotalBroadcast`]: ProtocolMsg::EncryptedTotalBroadcast
//! [`EncryptedDistribution`]: ProtocolMsg::EncryptedDistribution
//! [`EncryptedDistributionSum`]: ProtocolMsg::EncryptedDistributionSum
//! [`TryVerdict`]: ProtocolMsg::TryVerdict
//! [`PackedRegistry`]: ProtocolMsg::PackedRegistry
//! [`PackedTotalBroadcast`]: ProtocolMsg::PackedTotalBroadcast
//! [`PackedDistribution`]: ProtocolMsg::PackedDistribution
//! [`PackedDistributionSum`]: ProtocolMsg::PackedDistributionSum

pub mod channel;
pub mod client;
pub mod codec;
pub mod connection;
pub mod driver;
pub mod frames;
pub mod message;
pub mod packing;
pub mod roles;
pub mod shard;
pub mod stats;
pub mod transport;
pub mod wire;

#[doc(hidden)]
pub use crate::compat::{
    client_handshake, read_channel_frame, ChannelFrame, CodecKind, CoordinatorServer, TcpConfig,
    TcpTransport,
};
pub use channel::{
    append_frame, secret_bytes_from_seed, ChannelPolicy, ClientHandshake, NodeIdentity,
    SecureChannel, ServerHandshake, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED,
    HANDSHAKE_WIRE_BYTES, SEALED_FRAME_OVERHEAD,
};
pub use client::{Client, ClientConfig, WireStats, DEFAULT_EXCHANGE_TIMEOUT};
pub use codec::RegistryFrame;
pub use connection::Connection;
pub use driver::{pump, run_registration, run_try, run_try_with_dropouts, RegistrationRun};
pub use frames::FrameBuffer;
pub use message::{Envelope, MsgKind, Party, ProtocolMsg};
pub use packing::PackingPolicy;
pub use roles::{AgentNode, CohortOutcome, Coordinator, SecureTryOutcome, SelectClientNode};
pub use shard::{shard_ranges, ShardedCoordinator};
pub use stats::{Counter, LatencyHistogram, LatencySummary, ListenerMetrics, ListenerStats};
pub use transport::{InMemoryTransport, LinkStats, Transport, TransportStats};
pub use wire::{claimed_client, LazyMsg, WireMsg, FRAME_MAGIC_V2, MAX_FRAME_BYTES};
