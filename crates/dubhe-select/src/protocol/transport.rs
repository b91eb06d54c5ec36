//! Message routing between protocol roles.
//!
//! A [`Transport`] moves [`Envelope`]s between parties. The in-memory
//! implementation delivers depth-first and meters every link — messages and
//! canonical wire bytes per [`MsgKind`] — which is exactly what the FL
//! simulator charges to its [`CommLedger`](../../dubhe_fl/comm) and what the
//! §6.4 overhead study prints.
//!
//! Depth-first means that what a delivery's handler sends goes out before
//! anything that was already waiting, in the order it was sent. So a
//! client's registry reaches the coordinator before the next client even
//! sees its key, and the exchange holds one registry in flight, not `N`
//! waiting. In the drivers' exchanges the order changes nothing a party
//! can see: only clients draw from the RNG, each only while handling one of
//! its own messages; the agent dispatches the coordinator's key ahead of
//! the clients'; and every party still receives its own messages in the
//! order a first-in-first-out queue gives them, which the transcript and
//! frame-digest pins hold to.
//!
//! The networked hop lives one level up: the drivers'
//! [`Coordinator`](super::roles::Coordinator) slot, which
//! [`TcpTransport`](super::tcp::TcpTransport) fills by carrying every
//! server-bound envelope over a framed socket while this local transport
//! keeps sequencing (and metering) the exchange.

use serde::{Deserialize, Serialize};

use super::message::{Envelope, MsgKind, ProtocolMsg};

/// Moves protocol messages between parties.
pub trait Transport {
    /// Queues an envelope for delivery, charging its wire size to the link.
    /// The whole envelope travels — including its epoch stamp, which the
    /// receiving role checks on delivery.
    fn send(&mut self, envelope: Envelope);

    /// Takes the next pending message, in delivery order.
    fn deliver(&mut self) -> Option<Envelope>;
}

/// Messages and bytes observed on one (set of) link(s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Number of messages.
    pub messages: usize,
    /// Canonical wire bytes (see [`ProtocolMsg::wire_bytes`]).
    pub bytes: usize,
}

impl LinkStats {
    fn charge(&mut self, msg: &ProtocolMsg) {
        self.messages += 1;
        self.bytes += msg.wire_bytes();
    }
}

/// Per-kind transport accounting for one exchange.
///
/// The uplink kinds ([`registries`](Self::registries) and
/// [`distributions`](Self::distributions)) are the client → server payloads
/// the paper's §6.4 overhead model counts: `N` registry transfers per
/// registration epoch and ≈ `H·K` distribution transfers per multi-time
/// round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Key dispatches (agent → clients and agent → server).
    pub key_dispatches: LinkStats,
    /// Encrypted registries (clients → server).
    pub registries: LinkStats,
    /// Encrypted-total broadcasts (server → clients/agent).
    pub total_broadcasts: LinkStats,
    /// Encrypted distributions (tentative clients → server).
    pub distributions: LinkStats,
    /// Encrypted distribution sums (server → agent).
    pub distribution_sums: LinkStats,
    /// Try verdicts (agent → server).
    pub verdicts: LinkStats,
    /// Ciphertext-only registry uplink bytes.
    pub uplink_registry_ciphertext_bytes: usize,
    /// Ciphertext-only distribution uplink bytes.
    pub uplink_distribution_ciphertext_bytes: usize,
}

impl TransportStats {
    /// All links combined.
    pub fn total(&self) -> LinkStats {
        let all = [
            self.key_dispatches,
            self.registries,
            self.total_broadcasts,
            self.distributions,
            self.distribution_sums,
            self.verdicts,
        ];
        LinkStats {
            messages: all.iter().map(|l| l.messages).sum(),
            bytes: all.iter().map(|l| l.bytes).sum(),
        }
    }

    /// Ciphertext bytes sent *to* the server by clients (registries plus
    /// distributions) — the uplink cost the ledger charges. Headers are
    /// excluded so the figure matches the modeled
    /// `len × ciphertext_size` accounting exactly.
    pub fn uplink_ciphertext_bytes(&self) -> usize {
        self.uplink_registry_ciphertext_bytes + self.uplink_distribution_ciphertext_bytes
    }

    fn of_kind_mut(&mut self, kind: MsgKind) -> &mut LinkStats {
        match kind {
            MsgKind::KeyDispatch => &mut self.key_dispatches,
            MsgKind::Registry => &mut self.registries,
            MsgKind::TotalBroadcast => &mut self.total_broadcasts,
            MsgKind::Distribution => &mut self.distributions,
            MsgKind::DistributionSum => &mut self.distribution_sums,
            MsgKind::Verdict => &mut self.verdicts,
        }
    }

    /// Charges one message to its per-kind link (and, for client → server
    /// uplinks, to the ciphertext-only counters). Every transport — the
    /// in-memory queue and the TCP connector alike — meters through this,
    /// which is what keeps their canonical accounting comparable.
    pub fn charge(&mut self, msg: &ProtocolMsg) {
        self.of_kind_mut(msg.kind()).charge(msg);
        match msg.kind() {
            MsgKind::Registry => {
                self.uplink_registry_ciphertext_bytes += msg.ciphertext_bytes();
            }
            MsgKind::Distribution => {
                self.uplink_distribution_ciphertext_bytes += msg.ciphertext_bytes();
            }
            _ => {}
        }
    }
}

/// The in-memory transport: depth-first delivery, full metering, and
/// (optionally) a transcript of every envelope for threat-model auditing in
/// tests.
#[derive(Debug, Default)]
pub struct InMemoryTransport {
    /// What waits, the next to go out last — but for the envelopes sent
    /// since the last delivery, from `fresh` on, which are in send order
    /// until the next delivery turns them round.
    waiting: Vec<Envelope>,
    fresh: usize,
    stats: TransportStats,
    transcript: Option<Vec<Envelope>>,
}

impl InMemoryTransport {
    /// An empty transport with metering only.
    pub fn new() -> Self {
        InMemoryTransport::default()
    }

    /// An empty transport that additionally records every sent envelope, so
    /// tests can audit exactly what each party was shown.
    pub fn recording() -> Self {
        InMemoryTransport {
            transcript: Some(Vec::new()),
            ..InMemoryTransport::default()
        }
    }

    /// The per-kind accounting so far.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// The recorded transcript (empty slice unless built with
    /// [`recording`](Self::recording)).
    pub fn transcript(&self) -> &[Envelope] {
        self.transcript.as_deref().unwrap_or(&[])
    }

    /// True if no message is waiting for delivery.
    pub fn is_idle(&self) -> bool {
        self.waiting.is_empty()
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, envelope: Envelope) {
        self.stats.charge(&envelope.msg);
        if let Some(t) = &mut self.transcript {
            t.push(envelope.clone());
        }
        self.waiting.push(envelope);
    }

    fn deliver(&mut self) -> Option<Envelope> {
        self.waiting[self.fresh..].reverse();
        let next = self.waiting.pop();
        self.fresh = self.waiting.len();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::message::Party;
    use dubhe_he::transport::ciphertext_size_bytes;
    use dubhe_he::{EncryptedVector, Keypair};
    use rand::SeedableRng;

    #[test]
    fn fifo_delivery_and_metering() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let v = EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 0], &mut rng);
        let ct = ciphertext_size_bytes(&kp.public);

        let mut t = InMemoryTransport::recording();
        t.send(Envelope {
            from: Party::Client(0),
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::EncryptedRegistry {
                client: 0,
                registry: v.clone(),
            },
        });
        t.send(Envelope {
            from: Party::Client(1),
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::EncryptedRegistry {
                client: 1,
                registry: v,
            },
        });

        assert_eq!(t.stats().registries.messages, 2);
        assert_eq!(t.stats().registries.bytes, 2 * (8 + 3 * ct));
        assert_eq!(t.stats().uplink_ciphertext_bytes(), 2 * 3 * ct);
        assert_eq!(t.stats().total().messages, 2);
        assert_eq!(t.transcript().len(), 2);

        let first = t.deliver().expect("queued");
        assert_eq!(first.from, Party::Client(0));
        let second = t.deliver().expect("queued");
        assert_eq!(second.from, Party::Client(1));
        assert!(t.deliver().is_none());
        assert!(t.is_idle());
    }

    #[test]
    fn a_reply_goes_before_what_was_already_waiting() {
        let note = |id: usize| Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try: id,
                distance: 0.0,
            },
        };
        let id = |e: Option<Envelope>| match e.map(|e| e.msg) {
            Some(ProtocolMsg::TryVerdict { best_try, .. }) => Some(best_try),
            _ => None,
        };
        let mut t = InMemoryTransport::recording();
        // Seeded before the first delivery: first in, first out.
        for i in [0, 1, 2] {
            t.send(note(i));
        }
        assert_eq!(id(t.deliver()), Some(0));
        // What handling 0 sends goes next, as a batch in its own order …
        for i in [10, 11, 12] {
            t.send(note(i));
        }
        assert_eq!(id(t.deliver()), Some(10));
        // … and a reply to one of the batch goes before the batch's rest.
        t.send(note(20));
        let order: Vec<_> = std::iter::from_fn(|| id(t.deliver())).collect();
        assert_eq!(order, [20, 11, 12, 1, 2]);
        assert!(t.is_idle());
        // The transcript keeps send order.
        let sent: Vec<_> = t
            .transcript()
            .iter()
            .map(|e| id(Some(e.clone())).unwrap())
            .collect();
        assert_eq!(sent, [0, 1, 2, 10, 11, 12, 20]);
    }
}
