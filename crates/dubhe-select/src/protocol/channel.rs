//! The authenticated session layer: pre-protocol handshake + AEAD framing.
//!
//! A bare `DBH2` frame authenticates nothing: anyone who can reach the
//! socket can speak it. This module is the in-repo answer: before any
//! [`WireMsg`] travels, the two endpoints of a
//! connection run a three-message mutual-authentication handshake (X25519
//! triple-DH, Noise-XX-shaped) and every subsequent frame is sealed with
//! ChaCha20-Poly1305 under per-direction keys and strictly sequenced
//! nonces. The crypto primitives come from the vendored offline stand-in
//! `mini-crypto` (RFC-vectored; swapping to the real crates is a
//! manifest-only change).
//!
//! ## Wire formats
//!
//! Two frame magics join `DBH2`, both length-prefixed the same way
//! (`magic + u32 BE length + payload`):
//!
//! ```text
//! DBHS — handshake:  payload is one handshake message (below)
//! DBHE — sealed:     payload = record 0 || record 1 || …
//!                    record i = ciphertext of inner bytes [i·R, (i+1)·R) || tag (16)
//! ```
//!
//! A sealed payload decrypts to one *inner* `DBH2` frame, cut by its length
//! alone into records of `R =` [`SEAL_SLICE`] (256 KiB) bytes, the last
//! shorter, each sealed by itself — TLS 1.3's record layer (RFC 8446 §5),
//! the STREAM construction (Hoang et al., CRYPTO 2015). Record `i`'s nonce is
//! `i` (`u32` BE) then the frame's sequence number (`u64` BE), which is not
//! on the wire: each side counts its direction's frames. Its associated
//! data is the 8-byte `DBHE` header, which binds the total length. A frame
//! replayed, reordered, spliced or cut, or a record dropped or swapped,
//! fails a tag: [`ProtocolError::AuthFailure`].
//!
//! A write queue seals each record once its last plaintext byte is encoded
//! (a `FrameProducer`); a receiving [`Connection`] verifies each record as
//! it completes, decrypts it in place and decodes its plaintext as it would
//! a plaintext frame's: no byte is decoded before its own record's tag
//! verifies, and neither end holds more than a record of the frame. The
//! bytes are those of [`append_frame`], [`seal_frame`](SecureChannel::seal_frame)
//! and [`open_in_place`](SecureChannel::open_in_place), however they are cut.
//!
//! ## Handshake state machine
//!
//! ```text
//! client                                         server
//!   | --- M1: client_static ‖ client_eph ---------> |   (DBHS)
//!   | <-- M2: server_static ‖ server_eph ‖ tag_s -- |   (DBHS)
//!   | --- M3: tag_c ------------------------------> |   (DBHS)
//!   |            … DBHE sealed frames only …        |
//! ```
//!
//! Both sides derive `ikm = DH(e_c,e_s) ‖ DH(s_c,e_s) ‖ DH(e_c,s_s)` —
//! the ephemeral-ephemeral share gives freshness, the two static-ephemeral
//! shares prove possession of each long-term identity key — and expand
//! session keys with HKDF salted by the SHA-256 transcript of the exact
//! handshake bytes. `tag_s` / `tag_c` are HMAC confirmations over the
//! transcript under a third derived key: each side proves it derived the
//! same secrets *before* any protocol frame is accepted.
//!
//! A key proves possession only if the DH it enters can come out
//! unpredictable. Each side therefore refuses, before deriving anything, a
//! peer key with a non-canonical encoding (bit 255 set, or `u ≥ 2²⁵⁵ − 19`:
//! an alias of a canonical point, one secret passing as two identities) and
//! any DH output that is not contributory (a low-order point such as `u = 0`
//! sends every share to zero, so the confirmation tags would follow from
//! the sender's own ephemeral alone and `00…00` would pass as an identity
//! any number of peers share). A frame that
//! fails any check surfaces a typed [`ProtocolError::AuthFailure`] /
//! [`DowngradeRefused`] — never a panic, never a hang.
//!
//! [`DowngradeRefused`]: ProtocolError::DowngradeRefused

use std::borrow::Cow;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use mini_crypto::{hkdf, hmac_sha256, sha256, ChaCha20Poly1305, PublicKey, StaticSecret, TAG_LEN};
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use super::connection::Connection;
use super::frames::{FrameProducer, SEAL_SLICE};
use super::wire::{read_exact_or, read_payload, write_whole_frame, WireMsg, FRAME_MAGIC_V2};
use crate::error::ProtocolError;

/// The 4-byte preamble of a handshake (`DBHS`) frame.
pub const FRAME_MAGIC_HANDSHAKE: [u8; 4] = *b"DBHS";

/// The 4-byte preamble of a sealed (`DBHE`) frame.
pub const FRAME_MAGIC_SEALED: [u8; 4] = *b"DBHE";

/// What sealing adds to a one-record frame on the wire: the `DBHE` header
/// and one tag. The inner plaintext frame travels byte-for-byte as
/// ciphertext; each record past the first adds another tag.
pub const SEALED_FRAME_OVERHEAD: usize = 8 + TAG_LEN;

/// The wire length of a sealed frame around an inner frame of `inner_len`
/// bytes: its header, the inner bytes and one tag a record. Every ceiling a
/// sealed frame is held to is this function of the inner ceiling.
pub(crate) fn sealed_frame_len(inner_len: usize) -> usize {
    let records = inner_len.div_ceil(SEAL_SLICE).max(1);
    inner_len.saturating_add(8 + TAG_LEN * records)
}

/// The most a channel-aware reader takes after a header: a sealed frame's
/// payload around the largest inner frame, or the longest handshake message.
pub(crate) fn channel_ceiling(max_frame_bytes: usize) -> usize {
    (sealed_frame_len(max_frame_bytes.saturating_add(8)) - 8).max(M2_LEN)
}

/// M1 = static(32) + ephemeral(32); M2 adds the confirmation tag.
pub(crate) const HELLO_LEN: usize = 64;
const CONFIRM_LEN: usize = 32;
pub(crate) const M2_LEN: usize = HELLO_LEN + CONFIRM_LEN;

/// Total bytes the three handshake frames put on the wire (headers
/// included): M1 (8+64) + M2 (8+96) + M3 (8+32). What a connector charges
/// to its channel-overhead accounting per handshake.
pub const HANDSHAKE_WIRE_BYTES: usize = (8 + HELLO_LEN) + (8 + M2_LEN) + (8 + CONFIRM_LEN);

/// Whether a connection endpoint runs the authenticated channel.
///
/// `Plaintext` keeps the historical behaviour (frames travel as bare
/// `DBH2`) — loopback benches stay unauthenticated *by
/// choice*. `Required` refuses every plaintext protocol frame with a typed
/// [`ProtocolError::DowngradeRefused`], before, during and after the
/// handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChannelPolicy {
    /// Run the handshake and seal every frame; refuse plaintext traffic.
    Required,
    /// No handshake, bare protocol frames (the historical behaviour).
    #[default]
    Plaintext,
}

impl ChannelPolicy {
    /// `true` when this endpoint runs the authenticated channel.
    pub fn is_required(self) -> bool {
        matches!(self, ChannelPolicy::Required)
    }
}

/// Process-wide entropy for fresh secrets: a counter hashed with the time
/// so two generated identities never collide, even within one tick.
fn fresh_secret() -> [u8; 32] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&count.to_le_bytes());
    seed[8..16].copy_from_slice(&nanos.to_le_bytes());
    seed[16..24].copy_from_slice(&pid.to_le_bytes());
    // One hash round so structure in the inputs does not leak into the key.
    sha256(&seed)
}

/// A node's long-term channel identity: an X25519 static keypair. The
/// 32-byte public key *is* the identity the rest of the stack keys state
/// off (cohort bindings, metrics, session-hijack checks).
#[derive(Clone)]
pub struct NodeIdentity {
    secret: StaticSecret,
    public: [u8; 32],
}

impl std::fmt::Debug for NodeIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never render the secret.
        write!(f, "NodeIdentity({:02x?}…)", &self.public[..4])
    }
}

impl NodeIdentity {
    /// Builds an identity from explicit static-secret bytes (the form
    /// configs carry, since `[u8; 32]` stays `Copy`).
    pub fn from_secret_bytes(bytes: [u8; 32]) -> NodeIdentity {
        let secret = StaticSecret::from_bytes(bytes);
        let public = PublicKey::from(&secret).to_bytes();
        NodeIdentity { secret, public }
    }

    /// A deterministic identity derived from a seed via the vendored
    /// `StdRng` — what tests and simulations use so runs are reproducible.
    pub fn from_seed(seed: u64) -> NodeIdentity {
        NodeIdentity::from_secret_bytes(secret_bytes_from_seed(seed))
    }

    /// A fresh identity from process-local entropy.
    pub fn generate() -> NodeIdentity {
        NodeIdentity::from_secret_bytes(fresh_secret())
    }

    /// The public identity: what peers see and what state is keyed off.
    pub fn public_bytes(&self) -> [u8; 32] {
        self.public
    }
}

/// Derives static-secret bytes from a seed (deterministic; the `from_seed`
/// identity and config plumbing share this so they agree byte-for-byte).
pub fn secret_bytes_from_seed(seed: u64) -> [u8; 32] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut bytes = [0u8; 32];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// The established channel: per-direction AEAD keys plus strictly
/// sequenced nonces, bound to the authenticated peer identity.
pub struct SecureChannel {
    send_key: [u8; 32],
    recv_key: [u8; 32],
    send_seq: u64,
    recv_seq: u64,
    peer: [u8; 32],
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SecureChannel(peer {:02x?}…, seq {}/{})",
            &self.peer[..4],
            self.send_seq,
            self.recv_seq
        )
    }
}

/// One sealed frame's records, sealed or opened in order by `mini-crypto`'s
/// AEAD: record `i` under nonce `i ‖ seq`, the frame's header as its AAD.
pub(crate) struct Records {
    aead: ChaCha20Poly1305,
    /// The frame's `DBHE` header: the associated data of every record.
    pub(crate) header: [u8; 8],
    seq: u64,
    /// The next record's index.
    next: u32,
    /// The inner frame's length, and its bytes not through a record yet.
    pub(crate) len: usize,
    left: usize,
}

impl Records {
    /// The records of frame `seq` around an inner frame of `len` bytes.
    fn new(key: &[u8; 32], seq: u64, len: usize) -> Records {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&FRAME_MAGIC_SEALED);
        let announced = u32::try_from(sealed_frame_len(len) - 8).expect("callers bound it");
        header[4..].copy_from_slice(&announced.to_be_bytes());
        Records {
            aead: ChaCha20Poly1305::new(key),
            header,
            seq,
            next: 0,
            len,
            left: len,
        }
    }

    /// The inner length a sealed payload of `payload_len` bytes carries: the
    /// one whose sealed frame has that length, if any.
    fn len_for(payload_len: usize) -> Result<usize, ProtocolError> {
        let records = payload_len.div_ceil(SEAL_SLICE + TAG_LEN).max(1);
        match payload_len.checked_sub(TAG_LEN * records) {
            Some(len)
                if sealed_frame_len(len) == 8 + payload_len && payload_len <= u32::MAX as usize =>
            {
                Ok(len)
            }
            _ => Err(ProtocolError::AuthFailure {
                detail: format!("no record layout makes a {payload_len}-byte sealed payload"),
            }),
        }
    }

    /// Plaintext bytes in the next record.
    pub(crate) fn next_len(&self) -> usize {
        self.left.min(SEAL_SLICE)
    }

    /// True once every record is through.
    pub(crate) fn is_done(&self) -> bool {
        self.next > 0 && self.left == 0
    }

    fn nonce(&self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.next.to_be_bytes());
        nonce[4..].copy_from_slice(&self.seq.to_be_bytes());
        nonce
    }

    fn advance(&mut self, len: usize) {
        self.next += 1;
        self.left -= len;
    }

    /// Encrypts the next record's plaintext in place and returns its tag.
    pub(crate) fn seal(&mut self, record: &mut [u8]) -> [u8; TAG_LEN] {
        debug_assert_eq!(record.len(), self.next_len());
        let tag = self
            .aead
            .encrypt_in_place_detached(&self.nonce(), &self.header, record);
        self.advance(record.len());
        tag
    }

    /// Opens the next record where it lies — its ciphertext, then its tag —
    /// and leaves its plaintext in front of the tag. A failed tag leaves the
    /// record as it arrived: [`ProtocolError::AuthFailure`].
    pub(crate) fn open(&mut self, record: &mut [u8]) -> Result<(), ProtocolError> {
        let (text, tag) = record.split_at_mut(record.len() - TAG_LEN);
        debug_assert_eq!(text.len(), self.next_len());
        let tag = (&*tag).try_into().expect("a TAG_LEN split");
        self.aead
            .decrypt_in_place_detached(&self.nonce(), &self.header, text, tag)
            .map_err(|_| ProtocolError::AuthFailure {
                detail: format!(
                    "AEAD tag verification failed on record {} of sealed frame {}",
                    self.next, self.seq
                ),
            })?;
        self.advance(text.len());
        Ok(())
    }
}

impl SecureChannel {
    /// The peer's authenticated public identity.
    pub fn peer_identity(&self) -> [u8; 32] {
        self.peer
    }

    /// The records of the next frame sent, around an inner frame of
    /// `inner_len` bytes, under the next send sequence number.
    pub(crate) fn seal_records(&mut self, inner_len: usize) -> Records {
        self.send_seq += 1;
        Records::new(&self.send_key, self.send_seq - 1, inner_len)
    }

    /// The records of the next frame received, whose header announced
    /// `payload_len` bytes, under the next receive sequence number; a length
    /// no inner frame seals to is [`ProtocolError::AuthFailure`].
    pub(crate) fn open_records(&mut self, payload_len: usize) -> Result<Records, ProtocolError> {
        let len = Records::len_for(payload_len)?;
        let records = Records::new(&self.recv_key, self.recv_seq, len);
        self.recv_seq += 1;
        Ok(records)
    }

    /// Seals one inner plaintext frame into a complete `DBHE` wire frame of
    /// its own — the byte-slice form of what [`append_frame`] does for a
    /// message.
    pub fn seal_frame(&mut self, inner: &[u8]) -> Vec<u8> {
        let mut records = self.seal_records(inner.len());
        let mut frame = Vec::with_capacity(sealed_frame_len(inner.len()));
        frame.extend_from_slice(&records.header);
        while !records.is_done() {
            let (at, done) = (frame.len(), inner.len() - records.left);
            frame.extend_from_slice(&inner[done..done + records.next_len()]);
            let tag = records.seal(&mut frame[at..]);
            frame.extend_from_slice(&tag);
        }
        frame
    }

    /// Opens one whole `DBHE` payload (its records) where it lies and
    /// returns the inner frame, borrowed from `payload`. A payload no inner
    /// frame seals to, a failed tag, or a frame out of sequence is
    /// [`ProtocolError::AuthFailure`]; it leaves `payload` as it arrived
    /// (opened records encrypted back) and the receive sequence unmoved.
    pub fn open_in_place<'a>(&mut self, payload: &'a mut [u8]) -> Result<&'a [u8], ProtocolError> {
        let len = Records::len_for(payload.len())?;
        let mut records = Records::new(&self.recv_key, self.recv_seq, len);
        let record = SEAL_SLICE + TAG_LEN;
        let mut failure = None;
        for (i, chunk) in payload.chunks_mut(record).enumerate() {
            if let Err(error) = records.open(chunk) {
                failure = Some((i, error));
                break;
            }
        }
        if let Some((failed, error)) = failure {
            let mut again = Records::new(&self.recv_key, self.recv_seq, len);
            for opened in payload.chunks_mut(record).take(failed) {
                again.seal(&mut opened[..SEAL_SLICE]);
            }
            return Err(error);
        }
        // Close the records up over their tags.
        for i in 1..len.div_ceil(SEAL_SLICE) {
            let start = i * record;
            let end = (start + SEAL_SLICE).min(payload.len() - TAG_LEN);
            payload.copy_within(start..end, i * SEAL_SLICE);
        }
        self.recv_seq += 1;
        Ok(&payload[..len])
    }

    /// [`open_in_place`](Self::open_in_place) on a copy: returns the inner
    /// plaintext frame as a `Vec` of its own and leaves `payload` alone.
    pub fn open_payload(&mut self, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let mut opened = payload.to_vec();
        let len = self.open_in_place(&mut opened)?.len();
        opened.truncate(len);
        Ok(opened)
    }
}

/// Appends one complete wire frame for `msg` to `out` — a bare plaintext
/// frame when `channel` is `None`, a sealed `DBHE` frame when the connection
/// runs the authenticated channel — and returns the bytes appended.
///
/// A `FrameProducer` run to the end in one step, into space reserved once
/// for the frame's exact length. A message that does not encode, or whose
/// payload exceeds `max_frame_bytes`, is refused with `out` as it was and
/// the channel's send sequence untouched.
pub fn append_frame(
    out: &mut Vec<u8>,
    msg: &WireMsg,
    max_frame_bytes: usize,
    channel: Option<&mut SecureChannel>,
) -> Result<usize, ProtocolError> {
    let mut frame = FrameProducer::new(Cow::Borrowed(msg), max_frame_bytes, channel)?;
    let len = frame.wire_len();
    out.reserve(len);
    frame.produce(out, usize::MAX);
    debug_assert!(frame.is_done());
    Ok(len)
}

/// The two key-schedule directions, so client and server construct mirror
/// channels from one HKDF output.
struct SessionKeys {
    c2s: [u8; 32],
    s2c: [u8; 32],
    confirm: [u8; 32],
    transcript: [u8; 32],
}

fn derive_keys(
    dh_ee: &[u8; 32],
    dh_se: &[u8; 32],
    dh_es: &[u8; 32],
    m1: &[u8],
    server_hello: &[u8],
) -> SessionKeys {
    let transcript = sha256(&[b"dubhe-hs-v1" as &[u8], m1, server_hello].concat());
    let ikm = [dh_ee.as_slice(), dh_se.as_slice(), dh_es.as_slice()].concat();
    let okm = hkdf(&transcript, &ikm, b"dubhe-channel v1", 96);
    let mut c2s = [0u8; 32];
    let mut s2c = [0u8; 32];
    let mut confirm = [0u8; 32];
    c2s.copy_from_slice(&okm[..32]);
    s2c.copy_from_slice(&okm[32..64]);
    confirm.copy_from_slice(&okm[64..96]);
    SessionKeys {
        c2s,
        s2c,
        confirm,
        transcript,
    }
}

/// A peer's X25519 key off the wire, refused unless canonically encoded:
/// bit 255 clear and `u < 2²⁵⁵ − 19`, so each point has one encoding and
/// each secret one identity.
fn peer_key(bytes: &[u8], whose: &str) -> Result<PublicKey, ProtocolError> {
    let key: [u8; 32] = bytes.try_into().expect("32-byte key");
    // u ≥ p exactly when every byte above the lowest is p's (0xff, 0x7f on
    // top) and the lowest is at least p's 0xed.
    let at_least_p = key[31] == 0x7f && key[1..31].iter().all(|&b| b == 0xff) && key[0] >= 0xed;
    if key[31] & 0x80 != 0 || at_least_p {
        return Err(ProtocolError::AuthFailure {
            detail: format!("{whose} key is not canonically encoded"),
        });
    }
    Ok(PublicKey::from_bytes(key))
}

/// One Diffie-Hellman share of the handshake, refused when it is not
/// contributory: a low-order peer key makes it zero whatever the secret.
fn dh_share(secret: &StaticSecret, peer: &PublicKey) -> Result<[u8; 32], ProtocolError> {
    let shared = secret.diffie_hellman(peer);
    if !shared.was_contributory() {
        return Err(ProtocolError::AuthFailure {
            detail: "low-order peer key: the key exchange is not contributory".to_string(),
        });
    }
    Ok(shared.to_bytes())
}

fn confirm_tag(keys: &SessionKeys, label: &[u8]) -> [u8; 32] {
    hmac_sha256(&keys.confirm, &[label, &keys.transcript].concat())
}

fn channel_from(keys: &SessionKeys, is_client: bool, peer: [u8; 32]) -> SecureChannel {
    let (send, recv) = if is_client {
        (&keys.c2s, &keys.s2c)
    } else {
        (&keys.s2c, &keys.c2s)
    };
    SecureChannel {
        send_key: *send,
        recv_key: *recv,
        send_seq: 0,
        recv_seq: 0,
        peer,
    }
}

// ------------------------------------------------------------ raw framing

/// One frame pulled off a channel-aware socket, still undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelFrame {
    /// A `DBHS` handshake message.
    Handshake(Vec<u8>),
    /// A `DBHE` sealed payload: its records.
    Sealed(Vec<u8>),
    /// A plaintext `DBH2` protocol frame: the *entire* frame bytes, header
    /// included, so a `Plaintext`-policy caller can re-parse it with the
    /// ordinary wire readers.
    Plaintext(Vec<u8>),
}

/// One complete `DBHS` frame around a handshake message.
fn handshake_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC_HANDSHAKE);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Writes one `DBHS` frame, returning the bytes put on the wire.
pub fn write_handshake_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<usize, ProtocolError> {
    let frame = handshake_frame(payload);
    write_whole_frame(w, &frame)?;
    Ok(frame.len())
}

/// Reads one frame of *any* known magic — handshake, sealed or plaintext —
/// returning it with the total bytes consumed. This is the read primitive
/// of channel-aware blocking paths: the caller decides which variants its
/// policy and phase accept (a `Required` endpoint maps
/// [`ChannelFrame::Plaintext`] to [`ProtocolError::DowngradeRefused`]).
pub fn read_channel_frame<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(ChannelFrame, usize), ProtocolError> {
    let mut magic = [0u8; 4];
    read_exact_or(r, &mut magic, "header", true)?;
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, "header", false)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    // Sealed frames may exceed the inner ceiling by exactly the seal.
    if len > channel_ceiling(max_frame_bytes) {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    let payload = read_payload(r, len)?;
    let total = 8 + len;
    if magic == FRAME_MAGIC_HANDSHAKE {
        return Ok((ChannelFrame::Handshake(payload), total));
    }
    if magic == FRAME_MAGIC_SEALED {
        return Ok((ChannelFrame::Sealed(payload), total));
    }
    if magic == FRAME_MAGIC_V2 {
        let mut frame = Vec::with_capacity(total);
        frame.extend_from_slice(&magic);
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&payload);
        return Ok((ChannelFrame::Plaintext(frame), total));
    }
    Err(ProtocolError::MalformedFrame {
        detail: format!("bad magic {magic:02x?}, expected DBH2, DBHS or DBHE"),
    })
}

// ------------------------------------------------------- client handshake

/// Runs the client side of the handshake over a blocking stream — a
/// [`Connection`] pumped to establishment. On success the stream speaks
/// sealed frames only. `expected_server` pins the server's public identity
/// (connection refused with [`ProtocolError::AuthFailure`] on mismatch);
/// `None` trusts first use.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    identity: &NodeIdentity,
    expected_server: Option<[u8; 32]>,
    max_frame_bytes: usize,
) -> Result<SecureChannel, ProtocolError> {
    let mut connection = Connection::client(identity, expected_server, max_frame_bytes);
    connection.handshake(stream)?;
    Ok(connection
        .into_channel()
        .expect("a completed handshake leaves the channel established"))
}

/// The client side of the handshake as an explicit state machine, the
/// mirror of [`ServerHandshake`]: [`hello`](Self::hello) is M1, and the
/// server's M2 fed to [`on_payload`](Self::on_payload) yields M3 and the
/// established channel at once.
pub struct ClientHandshake {
    identity: NodeIdentity,
    expected_server: Option<[u8; 32]>,
    eph: StaticSecret,
    m1: [u8; HELLO_LEN],
}

impl ClientHandshake {
    /// A fresh handshake under a fresh ephemeral key. `expected_server`
    /// pins the server's public identity; `None` trusts first use.
    pub fn new(identity: &NodeIdentity, expected_server: Option<[u8; 32]>) -> ClientHandshake {
        let eph = StaticSecret::from_bytes(fresh_secret());
        let mut m1 = [0u8; HELLO_LEN];
        m1[..32].copy_from_slice(&identity.public);
        m1[32..].copy_from_slice(&PublicKey::from(&eph).to_bytes());
        ClientHandshake {
            identity: identity.clone(),
            expected_server,
            eph,
            m1,
        }
    }

    /// M1, as a complete `DBHS` frame.
    pub fn hello(&self) -> Vec<u8> {
        handshake_frame(&self.m1)
    }

    /// Feeds the server's M2. The step carries M3, as a complete `DBHS`
    /// frame, and the established channel; errors are terminal.
    pub fn on_payload(&mut self, m2: &[u8]) -> Result<HandshakeStep, ProtocolError> {
        if m2.len() != M2_LEN {
            return Err(ProtocolError::AuthFailure {
                detail: format!("server hello is {} bytes, expected {M2_LEN}", m2.len()),
            });
        }
        let server_static = peer_key(&m2[..32], "server static")?;
        let server_eph = peer_key(&m2[32..64], "server ephemeral")?;
        if self
            .expected_server
            .is_some_and(|pinned| pinned != server_static.to_bytes())
        {
            return Err(ProtocolError::AuthFailure {
                detail: "server identity does not match the pinned key".to_string(),
            });
        }

        let dh_ee = dh_share(&self.eph, &server_eph)?;
        let dh_se = dh_share(&self.identity.secret, &server_eph)?;
        let dh_es = dh_share(&self.eph, &server_static)?;
        let keys = derive_keys(&dh_ee, &dh_se, &dh_es, &self.m1, &m2[..64]);

        let expect_server_tag = confirm_tag(&keys, b"server");
        if !constant_time_eq(&m2[64..], &expect_server_tag) {
            return Err(ProtocolError::AuthFailure {
                detail: "server handshake confirmation tag did not verify".to_string(),
            });
        }
        Ok(HandshakeStep {
            reply: Some(handshake_frame(&confirm_tag(&keys, b"client"))),
            established: Some(channel_from(&keys, true, server_static.to_bytes())),
        })
    }
}

// ------------------------------------------------------- server handshake

/// The server side of the handshake as an explicit state machine, fed one
/// `DBHS` payload at a time by a server-role [`Connection`].
pub struct ServerHandshake {
    identity: NodeIdentity,
    state: ServerHandshakeState,
}

enum ServerHandshakeState {
    AwaitHello,
    AwaitConfirm {
        keys: SessionKeys,
        client_static: [u8; 32],
    },
    Done,
}

/// What one handshake payload produced, on either side: an optional reply
/// frame to write, and the established channel once the exchange completes.
pub struct HandshakeStep {
    /// A complete `DBHS` frame to send back, if this step produces one.
    pub reply: Option<Vec<u8>>,
    /// The established channel, once the client's confirmation verifies.
    pub established: Option<SecureChannel>,
}

impl ServerHandshake {
    /// A fresh handshake for one inbound connection.
    pub fn new(identity: NodeIdentity) -> ServerHandshake {
        ServerHandshake {
            identity,
            state: ServerHandshakeState::AwaitHello,
        }
    }

    /// Feeds one `DBHS` payload to the state machine. Errors are terminal:
    /// the caller cuts the connection.
    pub fn on_payload(&mut self, payload: &[u8]) -> Result<HandshakeStep, ProtocolError> {
        match std::mem::replace(&mut self.state, ServerHandshakeState::Done) {
            ServerHandshakeState::AwaitHello => {
                if payload.len() != HELLO_LEN {
                    return Err(ProtocolError::AuthFailure {
                        detail: format!(
                            "client hello is {} bytes, expected {HELLO_LEN}",
                            payload.len()
                        ),
                    });
                }
                let client_static = peer_key(&payload[..32], "client static")?;
                let client_eph = peer_key(&payload[32..], "client ephemeral")?;

                let eph = StaticSecret::from_bytes(fresh_secret());
                let eph_pub = PublicKey::from(&eph).to_bytes();
                let dh_ee = dh_share(&eph, &client_eph)?;
                let dh_se = dh_share(&eph, &client_static)?;
                let dh_es = dh_share(&self.identity.secret, &client_eph)?;

                let mut hello = [0u8; HELLO_LEN];
                hello[..32].copy_from_slice(&self.identity.public);
                hello[32..].copy_from_slice(&eph_pub);
                let keys = derive_keys(&dh_ee, &dh_se, &dh_es, payload, &hello);

                let mut m2 = Vec::with_capacity(M2_LEN);
                m2.extend_from_slice(&hello);
                m2.extend_from_slice(&confirm_tag(&keys, b"server"));
                let reply = handshake_frame(&m2);

                self.state = ServerHandshakeState::AwaitConfirm {
                    keys,
                    client_static: client_static.to_bytes(),
                };
                Ok(HandshakeStep {
                    reply: Some(reply),
                    established: None,
                })
            }
            ServerHandshakeState::AwaitConfirm {
                keys,
                client_static,
            } => {
                let expect = confirm_tag(&keys, b"client");
                if payload.len() != CONFIRM_LEN || !constant_time_eq(payload, &expect) {
                    return Err(ProtocolError::AuthFailure {
                        detail: "client handshake confirmation tag did not verify".to_string(),
                    });
                }
                Ok(HandshakeStep {
                    reply: None,
                    established: Some(channel_from(&keys, false, client_static)),
                })
            }
            ServerHandshakeState::Done => Err(ProtocolError::AuthFailure {
                detail: "handshake message after the handshake completed".to_string(),
            }),
        }
    }
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

// ------------------------------------------------------------------ retry

/// Bounded exponential backoff with deterministic jitter for transient
/// connect/handshake failures: attempt `i` (0-based) sleeps
/// `base · 2^i + jitter` where jitter is uniform in `[0, base)` from the
/// vendored seeded `StdRng` — deterministic per (seed, attempt), so test
/// runs are reproducible while a thundering herd still spreads out.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    base: std::time::Duration,
    rng: rand::rngs::StdRng,
}

impl RetrySchedule {
    /// A schedule starting at `base` delay, jitter-seeded with `seed`.
    pub fn new(base: std::time::Duration, seed: u64) -> RetrySchedule {
        RetrySchedule {
            base,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based), jitter included.
    pub fn delay(&mut self, attempt: u32) -> std::time::Duration {
        let base_ns = self.base.as_nanos() as u64;
        let backoff = base_ns.saturating_mul(1u64 << attempt.min(16));
        let jitter = if base_ns == 0 {
            0
        } else {
            self.rng.next_u64() % base_ns
        };
        std::time::Duration::from_nanos(backoff.saturating_add(jitter))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Drives a real `client_handshake` against a [`ServerHandshake`] state
    /// machine without sockets or threads: the client's writes are parsed
    /// into DBHS frames and fed to the server, whose replies land in the
    /// client's read buffer.
    fn handshake_pair(
        client_id: &NodeIdentity,
        server_id: &NodeIdentity,
        pin: Option<[u8; 32]>,
    ) -> Result<(SecureChannel, SecureChannel), ProtocolError> {
        let mut client_out: Vec<u8> = Vec::new();
        let mut client_in: Vec<u8> = Vec::new();
        struct Shuttle<'a> {
            inbox: &'a mut Vec<u8>,
            outbox: &'a mut Vec<u8>,
            hs: &'a mut ServerHandshake,
            server_channel: &'a mut Option<SecureChannel>,
        }
        impl std::io::Read for Shuttle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.inbox.len());
                if n == 0 {
                    return Ok(0);
                }
                buf[..n].copy_from_slice(&self.inbox[..n]);
                self.inbox.drain(..n);
                Ok(n)
            }
        }
        impl std::io::Write for Shuttle<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.outbox.extend_from_slice(buf);
                // When a complete DBHS frame lands, feed the server.
                while self.outbox.len() >= 8 {
                    let len = u32::from_be_bytes(self.outbox[4..8].try_into().unwrap()) as usize;
                    if self.outbox.len() < 8 + len {
                        break;
                    }
                    let payload: Vec<u8> = self.outbox[8..8 + len].to_vec();
                    self.outbox.drain(..8 + len);
                    let step = self
                        .hs
                        .on_payload(&payload)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    if let Some(reply) = step.reply {
                        self.inbox.extend_from_slice(&reply);
                    }
                    if let Some(ch) = step.established {
                        *self.server_channel = Some(ch);
                    }
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut server_hs = ServerHandshake::new(server_id.clone());
        let mut server_channel = None;
        let mut shuttle = Shuttle {
            inbox: &mut client_in,
            outbox: &mut client_out,
            hs: &mut server_hs,
            server_channel: &mut server_channel,
        };
        let client_channel = client_handshake(&mut shuttle, client_id, pin, 1 << 20)?;
        let server_channel = server_channel.expect("server established");
        Ok((client_channel, server_channel))
    }

    #[test]
    fn handshake_establishes_matching_channels() {
        let client_id = NodeIdentity::from_seed(1);
        let server_id = NodeIdentity::from_seed(2);
        let (mut client, mut server) =
            handshake_pair(&client_id, &server_id, Some(server_id.public_bytes())).unwrap();

        assert_eq!(client.peer_identity(), server_id.public_bytes());
        assert_eq!(server.peer_identity(), client_id.public_bytes());

        // Both directions seal and open.
        let frame = client.seal_frame(b"up the wire");
        assert_eq!(&frame[..4], &FRAME_MAGIC_SEALED);
        let opened = server.open_payload(&frame[8..]).unwrap();
        assert_eq!(opened, b"up the wire");

        let down = server.seal_frame(b"down the wire");
        assert_eq!(client.open_payload(&down[8..]).unwrap(), b"down the wire");
    }

    #[test]
    fn pinned_server_mismatch_is_refused() {
        let client_id = NodeIdentity::from_seed(1);
        let server_id = NodeIdentity::from_seed(2);
        let wrong_pin = NodeIdentity::from_seed(3).public_bytes();
        let err = handshake_pair(&client_id, &server_id, Some(wrong_pin)).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
    }

    #[test]
    fn tampered_frames_and_replays_are_typed_errors() {
        let client_id = NodeIdentity::from_seed(4);
        let server_id = NodeIdentity::from_seed(5);
        let (mut client, mut server) = handshake_pair(&client_id, &server_id, None).unwrap();

        // Bit-flip anywhere in the sealed region fails the tag.
        let frame = client.seal_frame(b"payload");
        let mut tampered = frame.clone();
        let n = tampered.len();
        tampered[n - 1] ^= 0x01;
        let err = server.open_payload(&tampered[8..]).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");

        // The genuine frame still opens (failed opens do not advance seq).
        assert_eq!(server.open_payload(&frame[8..]).unwrap(), b"payload");

        // Replaying it is now out of sequence: sealed under sequence number
        // 0 and opened under 1, its tag fails.
        let err = server.open_payload(&frame[8..]).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");

        // A reordered (future) frame is refused the same way.
        let f1 = client.seal_frame(b"one");
        let f2 = client.seal_frame(b"two");
        let err = server.open_payload(&f2[8..]).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
        assert_eq!(server.open_payload(&f1[8..]).unwrap(), b"one");
    }

    #[test]
    fn identities_are_deterministic_per_seed() {
        assert_eq!(
            NodeIdentity::from_seed(7).public_bytes(),
            NodeIdentity::from_seed(7).public_bytes()
        );
        assert_ne!(
            NodeIdentity::from_seed(7).public_bytes(),
            NodeIdentity::from_seed(8).public_bytes()
        );
        assert_ne!(
            NodeIdentity::generate().public_bytes(),
            NodeIdentity::generate().public_bytes()
        );
    }

    #[test]
    fn channel_frames_parse_by_magic() {
        // Handshake frame round-trips.
        let mut buf = Vec::new();
        write_handshake_frame(&mut buf, b"hello").unwrap();
        let (frame, n) = read_channel_frame(&mut &buf[..], 1 << 20).unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(frame, ChannelFrame::Handshake(b"hello".to_vec()));

        // Plaintext frames come back whole for policy dispatch.
        let mut buf = Vec::new();
        super::super::wire::write_frame(&mut buf, &super::super::wire::WireMsg::Ack).unwrap();
        let (frame, _) = read_channel_frame(&mut &buf[..], 1 << 20).unwrap();
        assert_eq!(frame, ChannelFrame::Plaintext(buf.clone()));

        // Unknown magic (the retired JSON and compressed-JSON ones
        // included) is malformed; truncation is typed.
        for mut unknown in [
            &b"EVIL\x00\x00\x00\x00"[..],
            b"DBH1\x00\x00\x00\x00",
            b"DBHZ\x00\x00\x00\x00",
        ] {
            let err = read_channel_frame(&mut unknown, 1 << 20).unwrap_err();
            assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
        }
        let err = read_channel_frame(&mut &buf[..3], 1 << 20).unwrap_err();
        assert!(matches!(err, ProtocolError::TruncatedFrame { .. }), "{err}");
    }

    /// `write_frame_limited` as it stood at the parent commit (three writes
    /// into a `Vec` sink), over a payload encoded one envelope at a time so
    /// it owes nothing to the shared-vector short-cut either.
    fn parent_write_frame(msg: &WireMsg, max_frame_bytes: usize) -> Result<Vec<u8>, ProtocolError> {
        let payload = super::super::codec::tests::per_envelope_payload(msg);
        if payload.len() > max_frame_bytes {
            return Err(ProtocolError::FrameTooLarge {
                len: payload.len(),
                max: max_frame_bytes,
            });
        }
        let mut w = Vec::new();
        w.extend_from_slice(&FRAME_MAGIC_V2);
        w.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        w.extend_from_slice(&payload);
        Ok(w)
    }

    /// A sealed frame as the wire format defines it, built independently of
    /// `Records`: the inner bytes cut into 256 KiB records, each sealed by
    /// `mini-crypto`'s one-shot AEAD under the nonce `index ‖ seq` with the
    /// frame's header as associated data.
    pub(crate) fn reference_seal_frame(channel: &mut SecureChannel, inner: &[u8]) -> Vec<u8> {
        let seq = channel.send_seq;
        channel.send_seq += 1;
        let mut records: Vec<&[u8]> = inner.chunks(SEAL_SLICE).collect();
        if records.is_empty() {
            records.push(&[]);
        }
        let len = inner.len() + TAG_LEN * records.len();
        let mut frame = [FRAME_MAGIC_SEALED, (len as u32).to_be_bytes()].concat();
        let aad = frame.clone();
        let aead = ChaCha20Poly1305::new(&channel.send_key);
        for (i, record) in records.into_iter().enumerate() {
            let nonce = [&(i as u32).to_be_bytes()[..], &seq.to_be_bytes()].concat();
            frame.extend(aead.seal(&nonce.try_into().unwrap(), &aad, record));
        }
        frame
    }

    /// Channels over one fixed key schedule: as many identical senders and
    /// receivers as a comparison needs.
    pub(crate) fn fixed_channel(is_client: bool) -> SecureChannel {
        let keys = SessionKeys {
            c2s: [0x11; 32],
            s2c: [0x22; 32],
            confirm: [0; 32],
            transcript: [0; 32],
        };
        channel_from(&keys, is_client, [9; 32])
    }

    #[test]
    fn append_frame_puts_the_parent_commits_bytes_on_the_wire() {
        use super::super::codec::tests::{broadcast_batches, sample_msgs};
        use super::super::wire::decode_frame;
        let max = 1 << 20;
        let (mut sender, mut reference_sender) = (fixed_channel(true), fixed_channel(true));
        let (mut receiver, mut copying_receiver) = (fixed_channel(false), fixed_channel(false));
        for msg in sample_msgs().into_iter().chain(broadcast_batches()) {
            // Plaintext, into an empty buffer and behind queued bytes.
            let plain = parent_write_frame(&msg, max).unwrap();
            let mut out = Vec::new();
            assert_eq!(append_frame(&mut out, &msg, max, None), Ok(plain.len()));
            assert_eq!(out, plain, "{msg:?}");
            let mut out = b"queued".to_vec();
            append_frame(&mut out, &msg, max, None).unwrap();
            assert_eq!(out, [&b"queued"[..], &plain].concat());
            assert_eq!(
                decode_frame(&plain, max).unwrap(),
                (msg.clone(), plain.len())
            );

            // Sealed: the same bytes as encode → inner → seal → frame.
            let sealed = reference_seal_frame(&mut reference_sender, &plain);
            let mut out = b"queued".to_vec();
            let written = append_frame(&mut out, &msg, max, Some(&mut sender));
            assert_eq!(written, Ok(sealed.len()));
            assert_eq!(written, Ok(sealed_frame_len(plain.len())));
            assert_eq!(out, [&b"queued"[..], &sealed].concat());
            // The allocating wrapper is the same frame, one sequence on.
            let wrapped = reference_sender.seal_frame(&plain);
            let mut out = Vec::new();
            append_frame(&mut out, &msg, max, Some(&mut sender)).unwrap();
            assert_eq!(out, wrapped);

            // Both open — in place and through the copying wrapper — to the
            // plaintext frame, which decodes to the message.
            for frame in [&sealed, &wrapped] {
                let mut payload = frame[8..].to_vec();
                assert_eq!(copying_receiver.open_payload(&payload).unwrap(), plain);
                let inner = receiver.open_in_place(&mut payload).unwrap();
                assert_eq!(inner, plain);
                assert_eq!(decode_frame(inner, max).unwrap().0, msg);
            }
        }

        // A refusal leaves the buffer and the send sequence as they were.
        let big = WireMsg::Error {
            detail: "y".repeat(100),
        };
        for channel in [None, Some(&mut sender)] {
            let mut out = b"queued".to_vec();
            let err = append_frame(&mut out, &big, 16, channel).unwrap_err();
            assert_eq!(err, ProtocolError::FrameTooLarge { len: 105, max: 16 });
            assert_eq!(out, b"queued");
        }
        assert_eq!(sender.send_seq, reference_sender.send_seq);
        let mut next = Vec::new();
        append_frame(&mut next, &WireMsg::Ack, max, Some(&mut sender)).unwrap();
        let plain = parent_write_frame(&WireMsg::Ack, max).unwrap();
        assert_eq!(next, reference_seal_frame(&mut reference_sender, &plain));
    }

    /// An error message whose plaintext frame is `inner_len` bytes.
    fn inner_of(inner_len: usize) -> WireMsg {
        WireMsg::Error {
            detail: "r".repeat(inner_len - 13),
        }
    }

    /// Produces `msg`'s sealed frame a piece at a time, `budgets` giving
    /// each step's budget beyond the bytes not sealed yet, in turn (the last
    /// one repeating) — what a write queue does across flushes.
    fn seal_in_slices(channel: &mut SecureChannel, msg: &WireMsg, budgets: &[usize]) -> Vec<u8> {
        let mut frame = FrameProducer::new(Cow::Borrowed(msg), usize::MAX, Some(channel)).unwrap();
        let mut budgets = budgets
            .iter()
            .chain(std::iter::repeat(budgets.last().unwrap()));
        let mut out = Vec::new();
        while !frame.is_done() {
            let budget = frame.unsealed() + budgets.next().unwrap().max(&1);
            frame.produce(&mut out, budget);
        }
        assert_eq!(out.len(), frame.wire_len());
        out
    }

    /// The plaintext frame of `msg`.
    fn plain(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(&mut out, msg, usize::MAX, None).unwrap();
        out
    }

    #[test]
    fn a_frame_sealed_in_slices_is_the_one_shot_frame_at_every_length_and_split() {
        let (mut sender, mut reference) = (fixed_channel(true), fixed_channel(true));
        let mut receiver = fixed_channel(false);
        // Every length to 600 bytes, and one- to three-record frames around
        // each record boundary.
        let around = |records: usize| (records * SEAL_SLICE - 2)..=(records * SEAL_SLICE + 2);
        let lengths = (13..=600)
            .chain(around(1))
            .chain(around(2))
            .chain([3 * SEAL_SLICE]);
        for len in lengths {
            let msg = inner_of(len);
            let inner = plain(&msg);
            // Budgets that cut anywhere — a byte, odd sizes, a byte either
            // side of a record, everything at once — in at most 4096 steps.
            let budgets = [1, 7, 64, 4093, SEAL_SLICE - 1, SEAL_SLICE + 1, usize::MAX];
            for budget in budgets.into_iter().filter(|&b| len / b <= 4096) {
                let sliced = seal_in_slices(&mut sender, &msg, &[budget]);
                let one_shot = reference_seal_frame(&mut reference, &inner);
                assert_eq!(sliced, one_shot, "length {len}, slices of {budget}");
                assert_eq!(receiver.open_payload(&sliced[8..]).unwrap(), inner);
            }
        }
    }

    #[test]
    fn a_mebibyte_frame_sealed_in_random_slices_is_the_one_shot_frame() {
        let (mut sender, mut reference) = (fixed_channel(true), fixed_channel(true));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EA1);
        let msg = WireMsg::Error {
            detail: (0..(1 << 20) + 77)
                .map(|i| char::from(b'a' + (i % 26) as u8))
                .collect(),
        };
        let inner = plain(&msg);
        for _ in 0..8 {
            let budgets: Vec<usize> = (0..64)
                .map(|_| match rng.next_u64() % 3 {
                    0 => 64 + (rng.next_u64() % 512) as usize,
                    1 => (rng.next_u64() % (64 << 10)) as usize,
                    _ => (rng.next_u64() % (512 << 10)) as usize,
                })
                .collect();
            let sliced = seal_in_slices(&mut sender, &msg, &budgets);
            assert_eq!(sliced, reference_seal_frame(&mut reference, &inner));
        }
    }

    /// Feeds `frame` to a receiving connection in pieces of the sizes `cuts`
    /// gives, polling after each: what it released, or its refusal. Nothing
    /// is released before the last piece.
    fn open_in_pieces(
        channel: SecureChannel,
        frame: &[u8],
        cuts: &mut impl FnMut() -> usize,
    ) -> Result<WireMsg, ProtocolError> {
        use crate::protocol::connection::{tests::established_with, Event};
        let mut conn = established_with(channel, usize::MAX);
        let mut at = 0;
        while at < frame.len() {
            let end = (at + cuts().max(1)).min(frame.len());
            conn.received(&frame[at..end]);
            at = end;
            match conn.poll().map_err(|refusal| refusal.error)? {
                None => assert!(conn.wants_read_deadline()),
                Some(Event::Frame {
                    msg, wire_bytes, ..
                }) => {
                    assert_eq!((at, wire_bytes), (frame.len(), frame.len()));
                    return Ok(msg.force().unwrap());
                }
                Some(other) => panic!("{other:?}"),
            }
        }
        Err(conn.closed_error())
    }

    #[test]
    fn a_frame_opened_as_it_arrives_is_the_frame_opened_whole() {
        let mut sender = fixed_channel(true);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0BE4);
        let lengths = (13..700).step_by(13).chain([4096, 70_000, SEAL_SLICE + 9]);
        for (seq, len) in lengths.enumerate() {
            let msg = inner_of(len);
            let frame = sender.seal_frame(&plain(&msg));
            // A byte at a time, pieces that never end on a record, random.
            for piece in [1, 4093, 0] {
                if piece == 1 && len > 4096 {
                    continue;
                }
                let mut cut = || match piece {
                    0 => (rng.next_u64() % 30_000) as usize,
                    n => n,
                };
                let mut receiver = fixed_channel(false);
                receiver.recv_seq = seq as u64;
                let opened = open_in_pieces(receiver, &frame, &mut cut);
                assert_eq!(opened.unwrap(), msg, "length {len}, pieces of {piece}");
            }
        }
    }

    #[test]
    fn a_tampered_frame_opened_as_it_arrives_is_refused_and_put_back() {
        let mut sender = fixed_channel(true);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A3B);
        let msg = inner_of(150);
        let genuine = sender.seal_frame(&plain(&msg));
        let mut receiver = fixed_channel(false);
        // Every byte of the payload, ciphertext and tag: refused as it
        // arrives, and by the one-step open, which puts it back.
        for at in 8..genuine.len() {
            for piece in [1usize, 7, 64, 0] {
                let mut frame = genuine.clone();
                frame[at] ^= 0x20;
                let mut cut = || match piece {
                    0 => (rng.next_u64() % 40) as usize,
                    n => n,
                };
                let err = open_in_pieces(fixed_channel(false), &frame, &mut cut).unwrap_err();
                assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
            }
            let mut payload = genuine[8..].to_vec();
            payload[at - 8] ^= 0x20;
            let tampered = payload.clone();
            let err = receiver.open_in_place(&mut payload).unwrap_err();
            assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
            assert_eq!(payload, tampered, "byte {at}: put back");
            assert_eq!(receiver.recv_seq, 0, "byte {at}: no sequence taken");
        }
        assert_eq!(
            open_in_pieces(fixed_channel(false), &genuine, &mut || 5),
            Ok(msg)
        );
    }

    #[test]
    fn a_multi_record_open_in_place_that_fails_puts_every_record_back() {
        let mut sender = fixed_channel(true);
        let inner: Vec<u8> = (0..2 * SEAL_SLICE + 300).map(|i| (i % 251) as u8).collect();
        let genuine = sender.seal_frame(&inner)[8..].to_vec();
        let mut receiver = fixed_channel(false);
        let record = SEAL_SLICE + TAG_LEN;
        for at in [
            0,
            record - 1,
            record,
            2 * record - 1,
            2 * record,
            genuine.len() - 1,
        ] {
            let mut payload = genuine.clone();
            payload[at] ^= 1;
            let tampered = payload.clone();
            let err = receiver.open_in_place(&mut payload).unwrap_err();
            assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
            assert_eq!(payload, tampered, "byte {at}: put back");
        }
        let mut payload = genuine;
        assert_eq!(receiver.open_in_place(&mut payload).unwrap(), inner);
    }

    /// An M1 for a server handshake: `static ‖ ephemeral`, as given.
    fn hello(static_key: [u8; 32], eph: [u8; 32]) -> Vec<u8> {
        [static_key, eph].concat()
    }

    fn assert_auth_failure(result: Result<HandshakeStep, ProtocolError>, what: &str) {
        match result {
            Err(ProtocolError::AuthFailure { .. }) => {}
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }

    #[test]
    fn a_hello_with_a_key_that_proves_nothing_is_refused() {
        let server_id = NodeIdentity::from_seed(2);
        let client_id = NodeIdentity::from_seed(1);
        let eph = NodeIdentity::from_seed(3).public_bytes();
        let server = || ServerHandshake::new(server_id.clone());

        // The reproducer: no secret at all, static key 00…00. Every DH share
        // it enters is zero, so the tags would follow from the ephemeral
        // alone and any number of such peers would share one identity.
        let zero = [0u8; 32];
        assert_auth_failure(server().on_payload(&hello(zero, eph)), "zero static");
        // The same point in the ephemeral slot, and another low-order one
        // (u = 1) in each.
        let one = {
            let mut u = [0u8; 32];
            u[0] = 1;
            u
        };
        let honest = client_id.public_bytes();
        for (s, e) in [(honest, zero), (one, eph), (honest, one)] {
            assert_auth_failure(server().on_payload(&hello(s, e)), "low-order key");
        }

        // One secret, two encodings: bit 255 set is refused, and so is an
        // encoding of u ≥ p (here p itself, an alias of 0).
        let mut alias = honest;
        alias[31] |= 0x80;
        assert_auth_failure(server().on_payload(&hello(alias, eph)), "top-bit alias");
        assert_auth_failure(server().on_payload(&hello(honest, alias)), "top-bit alias");
        let mut p = [0xff; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert_auth_failure(server().on_payload(&hello(p, eph)), "u = p");

        // The canonical key behind the alias is an ordinary hello.
        let step = server().on_payload(&hello(honest, eph)).unwrap();
        assert!(step.reply.is_some() && step.established.is_none());
    }

    #[test]
    fn the_client_refuses_a_low_order_server_key() {
        // A server that answers M1 with a chosen M2, whatever M1 said.
        struct Scripted(Vec<u8>);
        impl Read for Scripted {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0.drain(..n);
                Ok(n)
            }
        }
        impl Write for Scripted {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let client_id = NodeIdentity::from_seed(1);
        let honest = NodeIdentity::from_seed(2).public_bytes();
        let eph = NodeIdentity::from_seed(3).public_bytes();
        let mut alias = honest;
        alias[31] |= 0x80;
        for (s, e, what) in [
            ([0u8; 32], eph, "zero static"),
            (honest, [0u8; 32], "zero ephemeral"),
            (alias, eph, "top-bit alias"),
        ] {
            let mut m2 = Vec::new();
            write_handshake_frame(&mut m2, &[s, e, [7; 32]].concat()).unwrap();
            let err = client_handshake(&mut Scripted(m2), &client_id, None, 1 << 20).unwrap_err();
            assert!(
                matches!(&err, ProtocolError::AuthFailure { detail } if !detail.contains("tag")),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn a_failed_open_in_place_leaves_the_payload_untouched() {
        let (mut sender, mut receiver) = (fixed_channel(true), fixed_channel(false));
        let frame = sender.seal_frame(b"DBH2\0\0\0\x01\x03");
        let mut payload = frame[8..].to_vec();
        let n = payload.len();
        payload[n - 1] ^= 1;
        let tampered = payload.clone();
        let err = receiver.open_in_place(&mut payload).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
        assert_eq!(payload, tampered, "verify first, decrypt after");
        let mut short = vec![0u8; 8 + TAG_LEN - 1];
        assert!(receiver.open_in_place(&mut short).is_err());
        // The genuine payload still opens: a failed open took no sequence.
        payload[n - 1] ^= 1;
        assert_eq!(
            receiver.open_in_place(&mut payload).unwrap(),
            b"DBH2\0\0\0\x01\x03"
        );
    }

    #[test]
    fn client_handshake_reads_only_between_its_two_flushes() {
        // A peer that answers only on `flush` and reads as end-of-stream
        // when it has nothing to give — an in-memory pipe like the
        // benchmark ladder's. A pump that reads before M1 is flushed, or
        // once more after M2 is whole, meets that end-of-stream.
        struct FlushPipe {
            server: ServerHandshake,
            inbound: Vec<u8>,
            outbound: Vec<u8>,
            established: Option<SecureChannel>,
            log: Vec<&'static str>,
        }
        impl Write for FlushPipe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.log.push("write");
                self.inbound.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.log.push("flush");
                let mut pending = &self.inbound[..];
                while !pending.is_empty() {
                    let frame = read_channel_frame(&mut pending, 1 << 10);
                    let Ok((ChannelFrame::Handshake(payload), _)) = frame else {
                        return Err(std::io::Error::other("not a whole handshake frame"));
                    };
                    let step = self
                        .server
                        .on_payload(&payload)
                        .map_err(std::io::Error::other)?;
                    self.outbound.extend(step.reply.unwrap_or_default());
                    self.established = step.established.or(self.established.take());
                }
                self.inbound.clear();
                Ok(())
            }
        }
        impl Read for FlushPipe {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.log.push("read");
                let n = buf.len().min(self.outbound.len());
                buf[..n].copy_from_slice(&self.outbound[..n]);
                self.outbound.drain(..n);
                Ok(n)
            }
        }
        let server_id = NodeIdentity::from_seed(2);
        let mut pipe = FlushPipe {
            server: ServerHandshake::new(server_id.clone()),
            inbound: Vec::new(),
            outbound: Vec::new(),
            established: None,
            log: Vec::new(),
        };
        let pin = Some(server_id.public_bytes());
        let mut client =
            client_handshake(&mut pipe, &NodeIdentity::from_seed(1), pin, 1 << 20).unwrap();
        // M1 out and flushed, reads until M2 is whole, M3 out and flushed —
        // and nothing read after.
        pipe.log.dedup();
        assert_eq!(pipe.log, ["write", "flush", "read", "write", "flush"]);
        let mut server = pipe.established.expect("M3 reached the server");
        let frame = client.seal_frame(b"after the handshake");
        assert_eq!(
            server.open_payload(&frame[8..]).unwrap(),
            b"after the handshake"
        );
    }

    #[test]
    fn retry_schedule_is_deterministic_and_bounded() {
        let base = std::time::Duration::from_millis(10);
        let mut a = RetrySchedule::new(base, 42);
        let mut b = RetrySchedule::new(base, 42);
        let mut c = RetrySchedule::new(base, 43);
        let delays_a: Vec<_> = (0..4).map(|i| a.delay(i)).collect();
        let delays_b: Vec<_> = (0..4).map(|i| b.delay(i)).collect();
        assert_eq!(delays_a, delays_b, "same seed, same jitter");
        let delays_c: Vec<_> = (0..4).map(|i| c.delay(i)).collect();
        assert_ne!(delays_a, delays_c, "different seed, different jitter");
        for (i, d) in delays_a.iter().enumerate() {
            let backoff = base * (1 << i as u32);
            assert!(*d >= backoff, "attempt {i}: {d:?} < {backoff:?}");
            assert!(*d < backoff + base, "attempt {i}: {d:?} jitter too big");
        }
    }
}
