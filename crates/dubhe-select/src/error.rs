//! Error types of the selection crate.
//!
//! Selection runs inside long-lived simulations (hundreds of rounds, many
//! scenarios); a misconfigured selector must surface as a recoverable error
//! at the API boundary, never as a process abort. The two layers are:
//!
//! * [`SelectError`] — what the selection / evaluation functions return
//!   (empty selections, zero tries, out-of-range clients);
//! * [`ProtocolError`] — what a protocol role returns when it receives a
//!   message that violates the exchange (wrong destination, missing key
//!   material, a private key offered to the server). It converts into
//!   [`SelectError`] so drivers expose a single error type.

use dubhe_he::HeError;

use crate::protocol::message::MsgKind;

/// Errors returned by selection and secure-evaluation entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// A population quantity was requested for an empty client selection.
    EmptySelection,
    /// No client distributions were supplied.
    NoClients,
    /// Multi-time selection was asked to run zero tries.
    ZeroTries,
    /// A selected client id falls outside the population.
    ClientOutOfRange {
        /// The offending client id.
        id: usize,
        /// The population size it was checked against.
        population: usize,
    },
    /// A protocol role rejected a message during the encrypted exchange.
    Protocol(ProtocolError),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::EmptySelection => {
                write!(
                    f,
                    "population distribution of an empty selection is undefined"
                )
            }
            SelectError::NoClients => write!(f, "need at least one client distribution"),
            SelectError::ZeroTries => {
                write!(f, "multi-time selection needs at least one try")
            }
            SelectError::ClientOutOfRange { id, population } => {
                write!(
                    f,
                    "selected client {id} out of range (population {population})"
                )
            }
            SelectError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for SelectError {}

impl From<ProtocolError> for SelectError {
    fn from(e: ProtocolError) -> Self {
        SelectError::Protocol(e)
    }
}

/// Errors raised by protocol roles while handling messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A role received a message kind it does not handle.
    UnexpectedMessage {
        /// The receiving role ("agent", "client", "server").
        role: &'static str,
        /// The offending message kind.
        kind: MsgKind,
    },
    /// A key dispatch destined for the server carried the private key — the
    /// one flow the threat model forbids. The server refuses it outright.
    PrivateKeyAtServer,
    /// A role needed key material it has not received yet.
    MissingKeyMaterial {
        /// The role missing its keys.
        role: &'static str,
    },
    /// A distribution referenced a tentative try the server never announced.
    UnknownTry {
        /// The unannounced try index.
        try_index: usize,
    },
    /// A contribution arrived from a client outside the expected set (the
    /// registered population, or a try's announced participants).
    UnknownContributor {
        /// The unexpected client id.
        client: usize,
        /// The tentative try, or `None` for a registration upload.
        try_index: Option<usize>,
    },
    /// A client contributed twice to the same aggregation — folding it
    /// again would silently corrupt the homomorphic sum.
    DuplicateContribution {
        /// The repeating client id.
        client: usize,
        /// The tentative try, or `None` for a registration upload.
        try_index: Option<usize>,
    },
    /// A coordinator and a contributor disagree about ciphertext packing: a
    /// packed frame reached a coordinator with no packing policy, or an
    /// element-wise frame reached one configured for packed folds. Folding
    /// across the two layouts would corrupt lanes, so the frame is refused.
    PackingDisagreement {
        /// The refusing role.
        role: &'static str,
        /// `true` if the receiver expected packed ciphertexts and got
        /// element-wise ones; `false` for the reverse.
        expected_packed: bool,
        /// The offending message kind.
        kind: MsgKind,
    },
    /// A registry arrived after the epoch total was already broadcast.
    EpochComplete {
        /// The late client id.
        client: usize,
    },
    /// A frame stamped with an epoch older than the receiver's current one —
    /// a straggler from before a key rotation, or a replay. Folding it would
    /// mix ciphertexts across keypairs, so it is refused outright.
    StaleEpoch {
        /// The epoch the frame was stamped with.
        received: u64,
        /// The receiver's current epoch.
        current: u64,
    },
    /// A non-key-dispatch frame stamped with an epoch the receiver has not
    /// entered yet. Only a key dispatch may advance a party's epoch.
    FutureEpoch {
        /// The epoch the frame was stamped with.
        received: u64,
        /// The receiver's current epoch.
        current: u64,
    },
    /// A partial-cohort close was requested but there is nothing to close:
    /// no contribution ever arrived, so no fold exists to publish.
    NothingToClose {
        /// What was asked to close ("registration", "try").
        what: &'static str,
    },
    /// An encrypted registration epoch decrypted to a different overall
    /// registry than the plaintext decision model it was checked against.
    RegistryDivergence,
    /// A homomorphic operation failed (mismatched key or vector length).
    He(HeError),
    /// A socket operation failed (connect, read or write). The error is
    /// captured as its [`std::io::ErrorKind`] name plus detail text so the
    /// protocol error stays `Clone`/`Eq`-comparable in tests.
    Io {
        /// What the transport was doing ("connect", "read frame", ...).
        context: &'static str,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A frame arrived that is not a valid protocol frame: wrong magic, a
    /// payload that is not valid UTF-8/JSON, or a message of the wrong shape
    /// for the state the connection is in.
    MalformedFrame {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A frame header announced a payload larger than the transport accepts —
    /// either garbage bytes parsed as a length, or a hostile peer trying to
    /// make the receiver allocate unboundedly.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The transport's limit.
        max: usize,
    },
    /// The peer closed the connection in the middle of a frame — some bytes
    /// of the header or payload arrived and then the stream ended.
    TruncatedFrame {
        /// Which part of the frame was cut off ("header", "payload").
        context: &'static str,
    },
    /// The peer closed the connection cleanly between frames while more
    /// exchange was expected (a mid-exchange disconnect).
    Disconnected,
    /// A connection's bounded write queue crossed its high-water mark: the
    /// peer stopped reading while replies kept accumulating. The listener
    /// disconnects rather than buffer without bound or block the event loop.
    Backpressure {
        /// Bytes queued for the connection when it was cut.
        queued: usize,
        /// The configured high-water mark.
        high_water: usize,
    },
    /// The remote coordinator rejected a message; its own [`ProtocolError`]
    /// is relayed as text across the wire.
    Remote {
        /// The coordinator-side error, rendered.
        detail: String,
    },
    /// Channel authentication failed: a handshake message did not verify,
    /// a sealed record's AEAD tag was wrong (tampering, a ciphertext bit
    /// flip, or a frame replayed, reordered, cut or spliced: a frame is
    /// opened under the sequence number the receiver expects, which is not
    /// on the wire), or a peer presented a different identity than the
    /// session was bound to (a hijack attempt). The connection is cut — decrypting or
    /// folding anything after an authentication failure is unsound.
    AuthFailure {
        /// What failed to authenticate.
        detail: String,
    },
    /// A plaintext protocol frame arrived on a connection whose policy
    /// requires the authenticated channel — a downgrade attempt (or a
    /// misconfigured peer). Refused before any payload is decoded.
    DowngradeRefused {
        /// The plaintext frame magic that was refused.
        magic: [u8; 4],
    },
    /// Every connect/handshake attempt failed within the configured retry
    /// budget; the transport gave up after backing off between attempts.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnexpectedMessage { role, kind } => {
                write!(f, "{role} cannot handle a {kind:?} message")
            }
            ProtocolError::PrivateKeyAtServer => {
                write!(f, "refusing to deliver a private key to the server")
            }
            ProtocolError::MissingKeyMaterial { role } => {
                write!(f, "{role} has no key material for this epoch yet")
            }
            ProtocolError::UnknownTry { try_index } => {
                write!(f, "encrypted distribution for unannounced try {try_index}")
            }
            ProtocolError::UnknownContributor { client, try_index } => match try_index {
                Some(t) => write!(f, "client {client} is not a participant of try {t}"),
                None => write!(
                    f,
                    "client {client} is not part of the registering population"
                ),
            },
            ProtocolError::DuplicateContribution { client, try_index } => match try_index {
                Some(t) => write!(f, "client {client} already contributed to try {t}"),
                None => write!(f, "client {client} already uploaded its registry"),
            },
            ProtocolError::PackingDisagreement {
                role,
                expected_packed,
                kind,
            } => {
                if *expected_packed {
                    write!(
                        f,
                        "{role} is configured for packed ciphertexts but received an \
                         element-wise {kind:?} frame"
                    )
                } else {
                    write!(
                        f,
                        "{role} received a packed {kind:?} frame but has no packing policy"
                    )
                }
            }
            ProtocolError::EpochComplete { client } => {
                write!(
                    f,
                    "client {client} uploaded a registry after the total was broadcast"
                )
            }
            ProtocolError::StaleEpoch { received, current } => {
                write!(
                    f,
                    "stale frame from epoch {received} (current epoch is {current})"
                )
            }
            ProtocolError::FutureEpoch { received, current } => {
                write!(
                    f,
                    "frame from future epoch {received} (current epoch is {current}; only a key dispatch advances an epoch)"
                )
            }
            ProtocolError::NothingToClose { what } => {
                write!(f, "cannot close {what}: no contribution has arrived")
            }
            ProtocolError::RegistryDivergence => {
                write!(
                    f,
                    "decrypted overall registry disagrees with the plaintext decision model"
                )
            }
            ProtocolError::He(e) => write!(f, "homomorphic operation failed: {e}"),
            ProtocolError::Io { context, detail } => {
                write!(
                    f,
                    "transport I/O failed while trying to {context}: {detail}"
                )
            }
            ProtocolError::MalformedFrame { detail } => {
                write!(f, "malformed protocol frame: {detail}")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame announces a {len}-byte payload, above the {max}-byte limit"
                )
            }
            ProtocolError::TruncatedFrame { context } => {
                write!(f, "connection closed mid-frame (truncated {context})")
            }
            ProtocolError::Disconnected => {
                write!(f, "peer disconnected mid-exchange")
            }
            ProtocolError::Backpressure { queued, high_water } => {
                write!(
                    f,
                    "write queue reached {queued} bytes (high-water mark {high_water}); \
                     disconnecting stalled reader"
                )
            }
            ProtocolError::Remote { detail } => {
                write!(f, "remote coordinator rejected the message: {detail}")
            }
            ProtocolError::AuthFailure { detail } => {
                write!(f, "channel authentication failed: {detail}")
            }
            ProtocolError::DowngradeRefused { magic } => {
                write!(
                    f,
                    "plaintext frame {} refused: this connection requires the \
                     authenticated channel",
                    String::from_utf8_lossy(magic)
                )
            }
            ProtocolError::RetriesExhausted { attempts } => {
                write!(
                    f,
                    "gave up after {attempts} connect/handshake attempts (bounded backoff \
                     exhausted)"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<HeError> for ProtocolError {
    fn from(e: HeError) -> Self {
        ProtocolError::He(e)
    }
}

impl From<HeError> for SelectError {
    fn from(e: HeError) -> Self {
        SelectError::Protocol(ProtocolError::He(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        let e: SelectError = ProtocolError::PrivateKeyAtServer.into();
        assert!(matches!(e, SelectError::Protocol(_)));
        assert!(e.to_string().contains("private key"));
        assert!(SelectError::EmptySelection.to_string().contains("empty"));
        let he: SelectError = HeError::KeyMismatch.into();
        assert!(he.to_string().contains("homomorphic"));
        assert!(ProtocolError::UnknownTry { try_index: 3 }
            .to_string()
            .contains('3'));
        let stale = ProtocolError::StaleEpoch {
            received: 1,
            current: 2,
        };
        assert!(stale.to_string().contains("stale"));
        let future = ProtocolError::FutureEpoch {
            received: 5,
            current: 2,
        };
        assert!(future.to_string().contains("future"));
        assert!(ProtocolError::NothingToClose { what: "try" }
            .to_string()
            .contains("close"));
    }

    #[test]
    fn channel_errors_display() {
        let auth = ProtocolError::AuthFailure {
            detail: "bad tag".to_string(),
        };
        assert!(auth.to_string().contains("authentication failed"));
        let downgrade = ProtocolError::DowngradeRefused { magic: *b"DBH2" };
        assert!(downgrade.to_string().contains("DBH2"));
        assert!(downgrade.to_string().contains("authenticated channel"));
        let retries = ProtocolError::RetriesExhausted { attempts: 5 };
        assert!(retries.to_string().contains("5 connect/handshake attempts"));
    }
}
