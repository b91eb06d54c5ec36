//! The `DBH2` payload codec: a [`WireMsg`] to frame-payload bytes and back.
//!
//! A frame (see [`super::wire`]) is `DBH2 | u32 length | payload`. The
//! payload is a canonical binary layout whose ciphertext fields are the
//! fixed-width big-endian limbs of [`dubhe_he::codec`], so a frame is its
//! canonical payload plus a small constant header — within 1.10× of the
//! paper's communication model, pinned by `tests/networked_protocol.rs`.
//!
//! Encoding is *total* over `WireMsg` (every variant encodes) and decoding
//! is *defensive*: arbitrary bytes surface as
//! [`ProtocolError::MalformedFrame`], never a panic. Both also run a piece
//! at a time (`PayloadEncoder`, `PayloadDecoder`), so neither end of a
//! connection holds a registration broadcast whole; [`encode`] and
//! [`decode`] are the one-step cases.
//!
//! ## `DBH2` payload layout
//!
//! All integers big-endian; `uN` fields are fixed-width; bignums use the
//! canonical encodings of [`dubhe_he::codec`].
//!
//! ```text
//! wiremsg  := 0 envelope
//!           | 1 u64 try_index  u32 count  count × u64 participant
//!           | 2 u32 count  count × envelope
//!           | 3                                  (Ack)
//!           | 4 u32 len  utf-8 detail            (Error)
//!           | 5                                  (Shutdown)
//!           | 6 u64 epoch  u64 expected          (BeginEpoch)
//!           | 7                                  (CloseRegistration)
//!           | 8 u64 try_index                    (CloseTry)
//! envelope := party party u64-epoch protocolmsg
//! party    := 0 | 1 | 2 u64 client-id
//! protocolmsg :=
//!     0 public-key  u8 has-private  [private-key]
//!   | 1 u64 client  vector
//!   | 2 vector
//!   | 3 u64 client  u64 try_index  vector
//!   | 4 u64 try_index  u64 contributors  vector
//!   | 5 u64 best_try  f64-bits distance
//!   | 6 u64 client  packed-vector                      (PackedRegistry)
//!   | 7 packed-vector                                  (PackedTotalBroadcast)
//!   | 8 u64 client  u64 try_index  packed-vector       (PackedDistribution)
//!   | 9 u64 try_index  u64 contributors  packed-vector (PackedDistributionSum)
//! packed-vector := u32 slot_bits  u64 key_bits  u64 count  vector
//! ```
//!
//! The packed variants extend the tag sequence (6–9) rather than reordering
//! it, so every pre-packing DBH2 peer still reads tags 0–5 unchanged.

use std::borrow::Cow;

use dubhe_he::codec as he;
use dubhe_he::EncryptedVector;

use super::message::{Envelope, Party, ProtocolMsg};
use super::wire::WireMsg;
use crate::error::ProtocolError;
use dubhe_he::HeError;

/// Serializes one message into a frame payload of its own, in one
/// allocation of its exact length: a `PayloadEncoder` run to the end in one
/// call.
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, ProtocolError> {
    let mut encoder = PayloadEncoder::new(Cow::Borrowed(msg))?;
    let mut out = Vec::with_capacity(encoder.remaining());
    encoder.encode(&mut out, usize::MAX);
    Ok(out)
}

/// One message's payload, encoded into the end of a buffer a piece at a
/// time — what lets a write queue hold a registration broadcast a slice at
/// a time instead of whole.
///
/// Everything that can fail is checked by [`new`](Self::new), which also
/// fixes the payload's exact length ([`payload_size_hint`]); encoding is
/// then infallible. The pieces are the message's head (all of it unless it
/// carries envelopes or an error detail), then each envelope. A piece's
/// fields go in whole; its trailing vector, or an error's detail, is cut
/// at whatever byte a call's budget ends on and resumed by the next call.
/// Consecutive envelopes carrying one shared vector (a broadcast) encode it
/// once: the encoder keeps its own copy of the vector it encoded last
/// ([`he::VectorEncodeMemo`]), since the buffer it writes to may be
/// reclaimed as it leaves. An owned broadcast is held as its one envelope
/// and its addressees, the other envelopes dropped before a byte is encoded.
pub(crate) struct PayloadEncoder<'a> {
    msg: Cow<'a, WireMsg>,
    /// A broadcast's addressees, `msg` keeping its first envelope; or empty.
    to: Vec<Party>,
    /// Payload bytes not encoded yet.
    remaining: usize,
    /// The next piece: 0 is the message's head, `i` its `i`-th envelope.
    next: usize,
    /// The rest of the piece under way: how much of its vector or detail
    /// is already out.
    tail: Tail,
    memo: he::VectorEncodeMemo,
}

#[derive(Clone, Copy)]
enum Tail {
    None,
    Vector(usize),
    Detail(usize),
}

/// The envelopes a message carries, in order.
fn envelopes(msg: &WireMsg) -> &[Envelope] {
    match msg {
        WireMsg::Envelope { envelope } => std::slice::from_ref(envelope),
        WireMsg::Batch { envelopes } => envelopes,
        _ => &[],
    }
}

/// Envelope `i` of a message and its addressee, where `to` holds the
/// addressees of a broadcast held once (see [`PayloadEncoder`]).
fn envelope<'m>(msg: &'m WireMsg, to: &[Party], i: usize) -> (&'m Envelope, Party) {
    let envelope = &envelopes(msg)[if to.is_empty() { i } else { 0 }];
    (envelope, to.get(i).copied().unwrap_or(envelope.to))
}

/// Whether `envelopes` are one message to several addressees: equal but for
/// `to`, over one vector by storage — which `==` then compares by pointer
/// (an `Arc` of `Eq` elements).
fn one_message(envelopes: &[Envelope]) -> bool {
    envelopes.len() > 1
        && envelopes.iter().all(|e| {
            let first = &envelopes[0];
            let vectors = trailing_vector(e).zip(trailing_vector(first));
            vectors.is_some_and(|(v, w)| v.shares_storage(w))
                && (e.from, e.epoch, &e.msg) == (first.from, first.epoch, &first.msg)
        })
}

/// The vector an envelope's message ends with, if it carries one.
fn trailing_vector(envelope: &Envelope) -> Option<&EncryptedVector> {
    match &envelope.msg {
        ProtocolMsg::PublicKeyDispatch { .. } | ProtocolMsg::TryVerdict { .. } => None,
        ProtocolMsg::EncryptedRegistry { registry: v, .. }
        | ProtocolMsg::EncryptedTotalBroadcast { total: v }
        | ProtocolMsg::EncryptedDistribution {
            distribution: v, ..
        }
        | ProtocolMsg::EncryptedDistributionSum { sum: v, .. } => Some(v),
        ProtocolMsg::PackedRegistry { registry: v, .. }
        | ProtocolMsg::PackedTotalBroadcast { total: v }
        | ProtocolMsg::PackedDistribution {
            distribution: v, ..
        }
        | ProtocolMsg::PackedDistributionSum { sum: v, .. } => Some(v.vector()),
    }
}

impl<'a> PayloadEncoder<'a> {
    /// Takes `msg` for encoding, or refuses it with the error encoding it
    /// would meet: a vector with a residue wider than its field. Each
    /// vector is checked once however many envelopes in a row carry it.
    pub(crate) fn new(mut msg: Cow<'a, WireMsg>) -> Result<Self, ProtocolError> {
        let mut last: Option<&EncryptedVector> = None;
        for envelope in envelopes(&msg) {
            let Some(vector) = trailing_vector(envelope) else {
                continue;
            };
            if !last.is_some_and(|last| last.shares_storage(vector)) {
                he::check_encodable(vector).map_err(he_err)?;
                last = Some(vector);
            }
        }
        let remaining = payload_size_hint(&msg);
        let mut to = Vec::new();
        if let Cow::Owned(WireMsg::Batch { envelopes }) = &mut msg {
            if one_message(envelopes) {
                to = envelopes.iter().map(|e| e.to).collect();
                *envelopes = envelopes.drain(..1).collect();
            }
        }
        Ok(PayloadEncoder {
            remaining,
            msg,
            to,
            next: 0,
            tail: Tail::None,
            memo: he::VectorEncodeMemo::default(),
        })
    }

    /// Payload bytes not encoded yet.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Appends the payload's next bytes to `out` until `budget` more are in
    /// or the payload is complete. A call may overshoot `budget` by the
    /// fields of one piece — an envelope's up to its vector, tens of bytes,
    /// or a whole key dispatch or try announcement — never by a vector.
    pub(crate) fn encode(&mut self, out: &mut Vec<u8>, budget: usize) {
        let start = out.len();
        let end = start.saturating_add(budget);
        let msg = &*self.msg;
        while out.len() - start < self.remaining && out.len() < end {
            let (bytes, at): (&[u8], usize) = match self.tail {
                Tail::None => {
                    self.tail = put_piece(msg, &self.to, self.next, out);
                    self.next += 1;
                    continue;
                }
                Tail::Vector(at) => {
                    let (envelope, _) = envelope(msg, &self.to, self.next - 2);
                    let vector = trailing_vector(envelope).expect("a vector piece");
                    let bytes = self.memo.encoding(vector);
                    (bytes.expect("checked when the encoder was built"), at)
                }
                Tail::Detail(at) => match msg {
                    WireMsg::Error { detail } => (detail.as_bytes(), at),
                    _ => unreachable!("only an error has a detail"),
                },
            };
            let n = (bytes.len() - at).min(end - out.len());
            out.extend_from_slice(&bytes[at..at + n]);
            self.tail = match self.tail {
                _ if at + n == bytes.len() => Tail::None,
                Tail::Vector(_) => Tail::Vector(at + n),
                _ => Tail::Detail(at + n),
            };
        }
        let appended = out.len() - start;
        assert!(appended <= self.remaining, "payload_size_hint is exact");
        self.remaining -= appended;
    }
}

/// Appends the fields of piece `next` of `msg` — its head, or envelope
/// `next - 1` up to its vector, [`envelope`] — and says what follows them.
fn put_piece(msg: &WireMsg, to: &[Party], next: usize, out: &mut Vec<u8>) -> Tail {
    if next > 0 {
        let (envelope, to) = envelope(msg, to, next - 1);
        put_envelope_fields(envelope, to, out);
        return match trailing_vector(envelope) {
            Some(_) => Tail::Vector(0),
            None => Tail::None,
        };
    }
    match msg {
        WireMsg::Envelope { .. } => out.push(0),
        WireMsg::AnnounceTry {
            try_index,
            participants,
        } => {
            out.push(1);
            he::put_u64(out, *try_index as u64);
            he::put_u32(out, participants.len() as u32);
            for &p in participants {
                he::put_u64(out, p as u64);
            }
        }
        WireMsg::Batch { envelopes } => {
            out.push(2);
            he::put_u32(out, envelopes.len().max(to.len()) as u32);
        }
        WireMsg::Ack => out.push(3),
        WireMsg::Error { detail } => {
            out.push(4);
            he::put_u32(out, detail.len() as u32);
            return Tail::Detail(0);
        }
        WireMsg::Shutdown => out.push(5),
        // The epoch-lifecycle control frames postdate tags 0–5; their
        // tags extend the sequence rather than following the enum's
        // declaration order, so every pre-lifecycle DBH2 peer still
        // reads the original six unchanged.
        WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        } => {
            out.push(6);
            he::put_u64(out, *epoch);
            he::put_u64(out, *expected_registrations as u64);
        }
        WireMsg::CloseRegistration => out.push(7),
        WireMsg::CloseTry { try_index } => {
            out.push(8);
            he::put_u64(out, *try_index as u64);
        }
    }
    Tail::None
}

/// Parses one frame payload. The whole payload must be consumed. A
/// `PayloadDecoder` run to the end in one call.
pub fn decode(payload: &[u8]) -> Result<WireMsg, ProtocolError> {
    let (_, msg) = PayloadDecoder::new(payload.len()).decode(payload)?;
    Ok(msg.expect("a whole payload decodes or is refused"))
}

/// The wire-message tag of a [`WireMsg::Batch`], the one message decoded a
/// piece at a time.
pub(crate) const BATCH_TAG: u8 = 2;

/// One message's payload, decoded a piece at a time as its bytes arrive —
/// the dual of [`PayloadEncoder`], and what lets a receiver hold a
/// registration broadcast an envelope at a time instead of whole.
///
/// The pieces are the encoder's: a batch's head (its tag and count), then
/// each envelope, whose exact length is read off its leading fields
/// ([`envelope_len`]) so it is parsed once all of it is in and its bytes can
/// be dropped; any other message is one piece, the whole payload. Pieces
/// are parsed by the functions a whole payload is, in the same order, with
/// one [`he::VectorDecodeMemo`] across a batch; where a piece's length cannot
/// be read off — fields that do not parse — it is taken to run to the end of
/// the payload, so the parser meets exactly the bytes it would have met
/// whole. However a payload is split, the decoder answers what [`decode`]
/// answers for it whole: the same message, or the same error.
#[derive(Debug)]
pub(crate) struct PayloadDecoder {
    /// The payload's length, from its frame header.
    len: usize,
    /// Payload bytes not decoded yet.
    remaining: usize,
    /// Once a batch's head is in: its envelopes decoded so far, and how many
    /// are still to come.
    batch: Option<(Vec<Envelope>, usize)>,
    /// The batch's vector memo, kept (with its bytes copied) from one call
    /// to the next only while the payload is unfinished.
    memo: he::VectorDecodeMemo<'static>,
}

impl PayloadDecoder {
    /// A decoder for a payload of `len` bytes.
    pub(crate) fn new(len: usize) -> Self {
        PayloadDecoder {
            len,
            remaining: len,
            batch: None,
            memo: he::VectorDecodeMemo::default(),
        }
    }

    /// The payload's length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Payload bytes decoded, and so no longer needed.
    pub(crate) fn decoded(&self) -> usize {
        self.len - self.remaining
    }

    /// Decodes whole pieces off the front of `bytes` — the payload's next
    /// bytes, as far as they have arrived; any past its end are left alone
    /// — and returns how many bytes it took, with the message once its last
    /// piece is in. An error is terminal.
    pub(crate) fn decode(
        &mut self,
        bytes: &[u8],
    ) -> Result<(usize, Option<WireMsg>), ProtocolError> {
        let bytes = &bytes[..bytes.len().min(self.remaining)];
        let mut cur = bytes;
        let mut memo = std::mem::take(&mut self.memo);
        let outcome = self.take_pieces(&mut cur, &mut memo);
        if let Ok(None) = outcome {
            self.memo = memo.into_owned();
        }
        self.remaining -= bytes.len() - cur.len();
        outcome.map(|msg| (bytes.len() - cur.len(), msg))
    }

    /// Parses pieces off `cur` until one has not arrived whole or the
    /// message is complete.
    fn take_pieces<'a>(
        &mut self,
        cur: &mut &'a [u8],
        memo: &mut he::VectorDecodeMemo<'a>,
    ) -> Result<Option<WireMsg>, ProtocolError> {
        let arrived = cur.len();
        loop {
            // Payload bytes from the front of `cur` on, arrived or not.
            let rest = self.remaining - (arrived - cur.len());
            let Some((envelopes, left)) = &mut self.batch else {
                let head = match cur.first() {
                    Some(&BATCH_TAG) => rest.min(5),
                    _ => rest,
                };
                if cur.len() < head {
                    return Ok(None);
                }
                let mut piece = &cur[..head];
                let parsed = decode_head(&mut piece, rest, memo)?;
                *cur = &cur[head - piece.len()..];
                match parsed {
                    Head::Batch(count) => self.batch = Some((Vec::new(), count)),
                    Head::Msg(msg) if cur.is_empty() => return Ok(Some(msg)),
                    Head::Msg(_) => return Err(malformed("trailing bytes after the wire message")),
                }
                continue;
            };
            if *left == 0 {
                if rest > 0 {
                    return Err(malformed("trailing bytes after the wire message"));
                }
                let envelopes = std::mem::take(envelopes);
                return Ok(Some(WireMsg::Batch { envelopes }));
            }
            let len = match envelope_len(cur) {
                Some(len) if len <= rest => len,
                _ => rest,
            };
            if cur.len() < len {
                return Ok(None);
            }
            let mut piece = &cur[..len];
            let decoded = decode_envelope(&mut piece, memo)?;
            // Doubles, but never past the count: it ends at its count.
            if envelopes.len() == envelopes.capacity() {
                envelopes.reserve_exact(envelopes.len().clamp(1, *left));
            }
            envelopes.push(decoded);
            *cur = &cur[len - piece.len()..];
            *left -= 1;
        }
    }
}

/// The exact encoded length of the envelope at the front of `bytes`, read
/// off its fields as far as its vector's element count, no residue needed:
/// the dual of [`envelope_hint`]. `None` while those fields have not all
/// arrived, or when they do not parse — the decoder then waits for the rest
/// of the payload and lets the parser say why.
fn envelope_len(bytes: &[u8]) -> Option<usize> {
    let mut cur = bytes;
    let cur = &mut cur;
    for _ in 0..2 {
        match take_u8(cur).ok()? {
            0 | 1 => {}
            2 => skip(cur, 8)?,
            _ => return None,
        }
    }
    skip(cur, 8)?;
    let residues = match take_u8(cur).ok()? {
        0 => {
            skip_blob(cur)?;
            match take_u8(cur).ok()? {
                0 => 0,
                // A private key: the modulus again, then the two primes.
                1 => {
                    (0..3).try_for_each(|_| skip_blob(cur))?;
                    0
                }
                _ => return None,
            }
        }
        5 => {
            skip(cur, 16)?;
            0
        }
        tag @ 1..=9 => {
            let scalars = match tag {
                2 | 7 => 0,
                1 | 6 => 8,
                _ => 16,
            };
            skip(cur, scalars)?;
            if tag >= 6 {
                skip(cur, 20)?; // the slot layout
            }
            vector_len(cur)?
        }
        _ => return None,
    };
    (bytes.len() - cur.len()).checked_add(residues)
}

/// Steps `cur` over its vector's key and count and returns the bytes of its
/// residue block, which fixed-width residues make `count × width`.
fn vector_len(cur: &mut &[u8]) -> Option<usize> {
    let key_len = he::take_u32(cur).ok()? as usize;
    let n = he::take_bytes(cur, key_len).ok()?;
    // A modulus the parser refuses has no width.
    let &lead = n.first().filter(|&&lead| lead != 0)?;
    let bits = 8 * n.len() - lead.leading_zeros() as usize;
    let count = he::take_u32(cur).ok()? as usize;
    count.checked_mul(dubhe_he::transport::ciphertext_size_bytes_for(bits as u64))
}

fn skip(cur: &mut &[u8], n: usize) -> Option<()> {
    he::take_bytes(cur, n).ok().map(drop)
}

/// Steps over a `u32`-length-prefixed field.
fn skip_blob(cur: &mut &[u8]) -> Option<()> {
    let len = he::take_u32(cur).ok()?;
    skip(cur, len as usize)
}

// Kept for exactly one caller: the frozen `benchmark/`, whose ladder spells
// `CodecKind::Binary.{encode, decode}` and whose epoch and fan-in workloads
// pass `CodecKind::Binary` to the identity builders `TcpConfig::with_codec`
// and `MuxConfig::with_codec`. The benchmark-only change of ROADMAP item
// 1(d) re-points those lines at `codec::{encode, decode}`, drops the two
// builder calls and deletes this shim with them. Nothing else may name it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    Binary,
}

impl CodecKind {
    pub fn encode(self, msg: &WireMsg) -> Result<Vec<u8>, ProtocolError> {
        encode(msg)
    }

    pub fn decode(self, payload: &[u8]) -> Result<WireMsg, ProtocolError> {
        decode(payload)
    }
}

/// Encoded size of a party tag (client ids carry a u64).
fn party_hint(p: &Party) -> usize {
    match p {
        Party::Client(_) => 9,
        _ => 1,
    }
}

/// Encoded size of one envelope: exact, from the `dubhe-he` size model —
/// fixed-width ciphertexts, and a key dispatch's primes at their real
/// byte lengths.
fn envelope_hint(e: &Envelope) -> usize {
    let body = match &e.msg {
        ProtocolMsg::PublicKeyDispatch {
            public_key,
            private_key,
        } => {
            he::encoded_public_key_bytes(public_key)
                + 1
                + private_key
                    .as_ref()
                    .map_or(0, he::encoded_private_key_bytes)
        }
        ProtocolMsg::EncryptedRegistry { registry, .. } => 8 + he::encoded_vector_bytes(registry),
        ProtocolMsg::EncryptedTotalBroadcast { total } => he::encoded_vector_bytes(total),
        ProtocolMsg::EncryptedDistribution { distribution, .. } => {
            16 + he::encoded_vector_bytes(distribution)
        }
        ProtocolMsg::EncryptedDistributionSum { sum, .. } => 16 + he::encoded_vector_bytes(sum),
        ProtocolMsg::TryVerdict { .. } => 16,
        ProtocolMsg::PackedRegistry { registry, .. } => {
            8 + he::encoded_packed_vector_bytes(registry)
        }
        ProtocolMsg::PackedTotalBroadcast { total } => he::encoded_packed_vector_bytes(total),
        ProtocolMsg::PackedDistribution { distribution, .. } => {
            16 + he::encoded_packed_vector_bytes(distribution)
        }
        ProtocolMsg::PackedDistributionSum { sum, .. } => 16 + he::encoded_packed_vector_bytes(sum),
    };
    party_hint(&e.from) + party_hint(&e.to) + 8 + 1 + body
}

/// Exactly how many bytes [`encode`] produces for `msg`, from the
/// `dubhe-he` size model and without encoding anything: what a framer
/// fixes a frame's length from before the first byte of it is encoded.
pub fn payload_size_hint(msg: &WireMsg) -> usize {
    1 + match msg {
        WireMsg::Envelope { envelope } => envelope_hint(envelope),
        WireMsg::AnnounceTry { participants, .. } => 8 + 4 + 8 * participants.len(),
        WireMsg::Batch { envelopes } => 4 + envelopes.iter().map(envelope_hint).sum::<usize>(),
        WireMsg::Ack | WireMsg::Shutdown | WireMsg::CloseRegistration => 0,
        WireMsg::Error { detail } => 4 + detail.len(),
        WireMsg::BeginEpoch { .. } => 16,
        WireMsg::CloseTry { .. } => 8,
    }
}

fn malformed(detail: &str) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: format!("binary payload: {detail}"),
    }
}

fn he_err(e: HeError) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: format!("binary payload: {e}"),
    }
}

fn encode_party(party: &Party, out: &mut Vec<u8>) {
    match party {
        Party::Agent => out.push(0),
        Party::Server => out.push(1),
        Party::Client(id) => {
            out.push(2);
            he::put_u64(out, *id as u64);
        }
    }
}

/// Appends an envelope's fields, addressed `to`: everything up to the
/// vector its message ends with, if it has one (see [`trailing_vector`]).
fn put_envelope_fields(e: &Envelope, to: Party, out: &mut Vec<u8>) {
    encode_party(&e.from, out);
    encode_party(&to, out);
    he::put_u64(out, e.epoch);
    match &e.msg {
        ProtocolMsg::PublicKeyDispatch {
            public_key,
            private_key,
        } => {
            out.push(0);
            he::encode_public_key(public_key, out);
            match private_key {
                None => out.push(0),
                Some(sk) => {
                    out.push(1);
                    he::encode_private_key(sk, out);
                }
            }
        }
        ProtocolMsg::EncryptedRegistry { client, .. } => {
            out.push(1);
            he::put_u64(out, *client as u64);
        }
        ProtocolMsg::EncryptedTotalBroadcast { .. } => out.push(2),
        ProtocolMsg::EncryptedDistribution {
            client, try_index, ..
        } => {
            out.push(3);
            he::put_u64(out, *client as u64);
            he::put_u64(out, *try_index as u64);
        }
        ProtocolMsg::EncryptedDistributionSum {
            try_index,
            contributors,
            ..
        } => {
            out.push(4);
            he::put_u64(out, *try_index as u64);
            he::put_u64(out, *contributors as u64);
        }
        ProtocolMsg::TryVerdict { best_try, distance } => {
            out.push(5);
            he::put_u64(out, *best_try as u64);
            he::put_u64(out, distance.to_bits());
        }
        ProtocolMsg::PackedRegistry { client, registry } => {
            out.push(6);
            he::put_u64(out, *client as u64);
            he::put_packed_header(registry, out);
        }
        ProtocolMsg::PackedTotalBroadcast { total } => {
            out.push(7);
            he::put_packed_header(total, out);
        }
        ProtocolMsg::PackedDistribution {
            client,
            try_index,
            distribution,
        } => {
            out.push(8);
            he::put_u64(out, *client as u64);
            he::put_u64(out, *try_index as u64);
            he::put_packed_header(distribution, out);
        }
        ProtocolMsg::PackedDistributionSum {
            try_index,
            contributors,
            sum,
        } => {
            out.push(9);
            he::put_u64(out, *try_index as u64);
            he::put_u64(out, *contributors as u64);
            he::put_packed_header(sum, out);
        }
    }
}

/// A recognised-but-undecoded `DBH2` registry upload: the owned frame
/// payload plus the envelope prefix parsed out of it.
///
/// Registry uploads are the coordinator's hot path — thousands per round,
/// each dominated by its fixed-width ciphertext block. Materialising that
/// block into per-element `BigUint`s on the
/// connection thread, only to multiply the values into a fold and drop
/// them, is pure allocator traffic. [`RegistryFrame::try_from_payload`]
/// instead parses just the constant-size envelope prefix (`O(1)`, no
/// ciphertext touched) so the transport can ship the raw payload to the
/// router, where [`view`](Self::view) decodes the vector as a borrowed
/// [`EncryptedVectorView`](he::EncryptedVectorView) and the fold multiplies
/// residues straight out of the frame bytes.
///
/// Anything that is not a plain single-registry `DBH2` envelope is handed
/// back unparsed, so the eager path keeps its exact error behaviour.
#[derive(Debug, Clone)]
pub struct RegistryFrame {
    payload: Vec<u8>,
    from: Party,
    to: Party,
    epoch: u64,
    client: usize,
    /// Offset of the encoded vector inside `payload`.
    vector_offset: usize,
}

impl RegistryFrame {
    /// Parses the envelope prefix of a `DBH2` frame payload. Returns the
    /// payload unchanged (`Err`) when it is anything other than a plain
    /// `Envelope { msg: EncryptedRegistry }` — truncated prefixes included,
    /// so the eager decoder owns every malformed-frame diagnosis.
    ///
    /// The ciphertext block is *not* validated here; [`view`](Self::view)
    /// performs the full vector validation at fold time.
    pub fn try_from_payload(payload: Vec<u8>) -> Result<RegistryFrame, Vec<u8>> {
        match Self::parse_prefix(&payload) {
            Some((from, to, epoch, client, vector_offset)) => Ok(RegistryFrame {
                payload,
                from,
                to,
                epoch,
                client,
                vector_offset,
            }),
            None => Err(payload),
        }
    }

    /// `true` iff [`try_from_payload`](Self::try_from_payload) would accept
    /// this payload — the borrowed check an event loop runs before copying
    /// the payload out of its reassembly buffer.
    pub fn matches_prefix(payload: &[u8]) -> bool {
        Self::parse_prefix(payload).is_some()
    }

    /// The envelope-prefix parse shared by the owned and borrowed entry
    /// points: `(from, to, epoch, client, vector_offset)`.
    fn parse_prefix(payload: &[u8]) -> Option<(Party, Party, u64, usize, usize)> {
        let mut cur = payload;
        let parsed = (|cur: &mut &[u8]| -> Result<(Party, Party, u64, usize), ProtocolError> {
            if take_u8(cur)? != 0 {
                return Err(malformed("not an envelope"));
            }
            let from = decode_party(cur)?;
            let to = decode_party(cur)?;
            let epoch = he::take_u64(cur).map_err(he_err)?;
            if take_u8(cur)? != 1 {
                return Err(malformed("not a registry"));
            }
            let client = take_usize(cur)?;
            Ok((from, to, epoch, client))
        })(&mut cur);
        let (from, to, epoch, client) = parsed.ok()?;
        Some((from, to, epoch, client, payload.len() - cur.len()))
    }

    /// Sender of the deferred envelope.
    pub fn from(&self) -> Party {
        self.from
    }

    /// Recipient of the deferred envelope.
    pub fn to(&self) -> Party {
        self.to
    }

    /// Epoch stamp of the deferred envelope.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registering client id.
    pub fn client(&self) -> usize {
        self.client
    }

    /// Size in bytes of the whole frame payload.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Decodes the registry as a borrowed view over the frame payload —
    /// full vector validation (header shape, count-vs-payload, residues
    /// `< n²`, no trailing bytes), zero per-element allocation.
    pub fn view(&self) -> Result<he::EncryptedVectorView<'_>, ProtocolError> {
        let mut cur = &self.payload[self.vector_offset..];
        let view = he::decode_vector_view(&mut cur).map_err(he_err)?;
        if !cur.is_empty() {
            return Err(malformed("trailing bytes after the wire message"));
        }
        Ok(view)
    }

    /// Decodes the whole payload eagerly into the envelope it defers — the
    /// escape hatch for receivers that need an owned [`Envelope`] (and the
    /// path that keeps error behaviour identical to an undeferred frame).
    pub fn materialize(&self) -> Result<Envelope, ProtocolError> {
        match decode(&self.payload)? {
            WireMsg::Envelope { envelope } => Ok(envelope),
            _ => Err(malformed("deferred frame is not an envelope")),
        }
    }
}

fn take_u8(cur: &mut &[u8]) -> Result<u8, ProtocolError> {
    let b = he::take_bytes(cur, 1).map_err(he_err)?;
    Ok(b[0])
}

fn take_usize(cur: &mut &[u8]) -> Result<usize, ProtocolError> {
    let v = he::take_u64(cur).map_err(he_err)?;
    usize::try_from(v).map_err(|_| malformed("scalar does not fit in usize"))
}

fn take_count(cur: &mut &[u8]) -> Result<usize, ProtocolError> {
    Ok(he::take_u32(cur).map_err(he_err)? as usize)
}

fn decode_party(cur: &mut &[u8]) -> Result<Party, ProtocolError> {
    match take_u8(cur)? {
        0 => Ok(Party::Agent),
        1 => Ok(Party::Server),
        2 => Ok(Party::Client(take_usize(cur)?)),
        tag => Err(malformed_tag("party", tag)),
    }
}

fn malformed_tag(what: &str, tag: u8) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: format!("binary payload: unknown {what} tag {tag}"),
    }
}

fn decode_envelope<'a>(
    cur: &mut &'a [u8],
    memo: &mut he::VectorDecodeMemo<'a>,
) -> Result<Envelope, ProtocolError> {
    let from = decode_party(cur)?;
    let to = decode_party(cur)?;
    let epoch = he::take_u64(cur).map_err(he_err)?;
    let msg = match take_u8(cur)? {
        0 => {
            let public_key = he::decode_public_key(cur).map_err(he_err)?;
            let private_key = match take_u8(cur)? {
                0 => None,
                1 => Some(he::decode_private_key(cur).map_err(he_err)?),
                tag => return Err(malformed_tag("private-key presence", tag)),
            };
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            }
        }
        1 => ProtocolMsg::EncryptedRegistry {
            client: take_usize(cur)?,
            registry: memo.decode_vector(cur).map_err(he_err)?,
        },
        2 => ProtocolMsg::EncryptedTotalBroadcast {
            total: memo.decode_vector(cur).map_err(he_err)?,
        },
        3 => ProtocolMsg::EncryptedDistribution {
            client: take_usize(cur)?,
            try_index: take_usize(cur)?,
            distribution: memo.decode_vector(cur).map_err(he_err)?,
        },
        4 => ProtocolMsg::EncryptedDistributionSum {
            try_index: take_usize(cur)?,
            contributors: take_usize(cur)?,
            sum: memo.decode_vector(cur).map_err(he_err)?,
        },
        5 => ProtocolMsg::TryVerdict {
            best_try: take_usize(cur)?,
            distance: f64::from_bits(he::take_u64(cur).map_err(he_err)?),
        },
        6 => ProtocolMsg::PackedRegistry {
            client: take_usize(cur)?,
            registry: memo.decode_packed_vector(cur).map_err(he_err)?,
        },
        7 => ProtocolMsg::PackedTotalBroadcast {
            total: memo.decode_packed_vector(cur).map_err(he_err)?,
        },
        8 => ProtocolMsg::PackedDistribution {
            client: take_usize(cur)?,
            try_index: take_usize(cur)?,
            distribution: memo.decode_packed_vector(cur).map_err(he_err)?,
        },
        9 => ProtocolMsg::PackedDistributionSum {
            try_index: take_usize(cur)?,
            contributors: take_usize(cur)?,
            sum: memo.decode_packed_vector(cur).map_err(he_err)?,
        },
        tag => return Err(malformed_tag("protocol-message", tag)),
    };
    Ok(Envelope {
        from,
        to,
        epoch,
        msg,
    })
}

/// What a payload holds in front of its envelopes: a batch's count, or the
/// whole of any other message.
enum Head {
    Batch(usize),
    Msg(WireMsg),
}

/// Parses a payload's head off `cur`, whose front is `rest` bytes from the
/// payload's end.
fn decode_head<'a>(
    cur: &mut &'a [u8],
    rest: usize,
    memo: &mut he::VectorDecodeMemo<'a>,
) -> Result<Head, ProtocolError> {
    let msg = match take_u8(cur)? {
        0 => WireMsg::Envelope {
            envelope: decode_envelope(cur, memo)?,
        },
        1 => {
            let try_index = take_usize(cur)?;
            let count = take_count(cur)?;
            // 8 bytes per participant: refuse counts the payload cannot hold
            // before reserving anything.
            if count.checked_mul(8).is_none_or(|need| need > cur.len()) {
                return Err(malformed("participant count overruns the payload"));
            }
            let mut participants = Vec::with_capacity(count);
            for _ in 0..count {
                participants.push(take_usize(cur)?);
            }
            WireMsg::AnnounceTry {
                try_index,
                participants,
            }
        }
        BATCH_TAG => {
            let count = take_count(cur)?;
            // Envelopes are variable-width; a lower bound of 3 bytes each
            // (two parties + message tag) rejects impossible counts early.
            // No pre-reservation from the announced count either: an
            // in-memory `Envelope` is two orders of magnitude larger than
            // its 3-byte wire lower bound, so `with_capacity(count)` would
            // let one hostile frame reserve gigabytes before the first
            // envelope fails to decode. The list grows by what decodes.
            if count.checked_mul(3).is_none_or(|need| need > rest - 5) {
                return Err(malformed("envelope count overruns the payload"));
            }
            return Ok(Head::Batch(count));
        }
        3 => WireMsg::Ack,
        4 => {
            let len = take_count(cur)?;
            let bytes = he::take_bytes(cur, len).map_err(he_err)?;
            let detail = std::str::from_utf8(bytes)
                .map_err(|_| malformed("error detail is not UTF-8"))?
                .to_string();
            WireMsg::Error { detail }
        }
        5 => WireMsg::Shutdown,
        6 => WireMsg::BeginEpoch {
            epoch: he::take_u64(cur).map_err(he_err)?,
            expected_registrations: take_usize(cur)?,
        },
        7 => WireMsg::CloseRegistration,
        8 => WireMsg::CloseTry {
            try_index: take_usize(cur)?,
        },
        tag => return Err(malformed_tag("wire-message", tag)),
    };
    Ok(Head::Msg(msg))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dubhe_he::{EncryptedVector, Keypair};
    use rand::SeedableRng;

    /// One message of every `WireMsg` / `ProtocolMsg` shape; the channel
    /// tests frame and seal the same set.
    pub(crate) fn sample_msgs() -> Vec<WireMsg> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let v = EncryptedVector::encrypt_u64(&kp.public, &[0, 1, 0, 2], &mut rng);
        let packer = dubhe_he::Packer::new(16, dubhe_he::TEST_KEY_BITS);
        let pv = dubhe_he::PackedEncryptedVector::encrypt(
            packer,
            &kp.public,
            &(0..20).map(|i| i * 3).collect::<Vec<u64>>(),
            &mut rng,
        )
        .unwrap();
        let env = |msg: ProtocolMsg| Envelope {
            from: Party::Client(3),
            to: Party::Server,
            epoch: 4,
            msg,
        };
        vec![
            WireMsg::Envelope {
                envelope: Envelope {
                    from: Party::Agent,
                    to: Party::Client(1),
                    epoch: 4,
                    msg: ProtocolMsg::PublicKeyDispatch {
                        public_key: kp.public.clone(),
                        private_key: Some(kp.private.clone()),
                    },
                },
            },
            WireMsg::Envelope {
                envelope: Envelope {
                    from: Party::Agent,
                    to: Party::Server,
                    epoch: 4,
                    msg: ProtocolMsg::PublicKeyDispatch {
                        public_key: kp.public.clone(),
                        private_key: None,
                    },
                },
            },
            WireMsg::Envelope {
                envelope: env(ProtocolMsg::EncryptedRegistry {
                    client: 3,
                    registry: v.clone(),
                }),
            },
            WireMsg::Batch {
                envelopes: vec![
                    env(ProtocolMsg::EncryptedTotalBroadcast { total: v.clone() }),
                    env(ProtocolMsg::EncryptedDistribution {
                        client: 3,
                        try_index: 2,
                        distribution: v.clone(),
                    }),
                    env(ProtocolMsg::EncryptedDistributionSum {
                        try_index: 2,
                        contributors: 9,
                        sum: v,
                    }),
                    env(ProtocolMsg::TryVerdict {
                        best_try: 1,
                        distance: 0.625,
                    }),
                ],
            },
            WireMsg::Envelope {
                envelope: env(ProtocolMsg::PackedRegistry {
                    client: 3,
                    registry: pv.clone(),
                }),
            },
            WireMsg::Batch {
                envelopes: vec![
                    env(ProtocolMsg::PackedTotalBroadcast { total: pv.clone() }),
                    env(ProtocolMsg::PackedDistribution {
                        client: 3,
                        try_index: 2,
                        distribution: pv.clone(),
                    }),
                    env(ProtocolMsg::PackedDistributionSum {
                        try_index: 2,
                        contributors: 9,
                        sum: pv,
                    }),
                ],
            },
            WireMsg::AnnounceTry {
                try_index: 7,
                participants: vec![0, 5, 11],
            },
            WireMsg::Ack,
            WireMsg::Error {
                detail: "nope — später".to_string(),
            },
            WireMsg::Shutdown,
            WireMsg::BeginEpoch {
                epoch: 5,
                expected_registrations: 12,
            },
            WireMsg::CloseRegistration,
            WireMsg::CloseTry { try_index: 2 },
        ]
    }

    /// The batches the shared-vector short-cuts exist for, and the ones that
    /// must not trip them: a registration broadcast (`N + 1` addressees of
    /// one total, element-wise and packed); a batch alternating two *equal
    /// but separately built* vectors, then two *different* vectors of equal
    /// length, then a vector and its clone; and four near-broadcasts, the
    /// element-wise one with its last envelope from another sender, of
    /// another epoch, of another variant over the same vector, or over an
    /// equal vector built apart.
    pub(crate) fn broadcast_batches() -> Vec<WireMsg> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let total = EncryptedVector::encrypt_u64(&kp.public, &[3, 0, 1, 4], &mut rng);
        let packer = dubhe_he::Packer::new(16, dubhe_he::TEST_KEY_BITS);
        let values: Vec<u64> = (0..20).collect();
        let packed =
            dubhe_he::PackedEncryptedVector::encrypt(packer, &kp.public, &values, &mut rng)
                .unwrap();
        let broadcast = |msg: ProtocolMsg| {
            let to = (0..5).map(Party::Client).chain([Party::Agent]);
            let envelopes = to.map(|to| Envelope {
                from: Party::Server,
                to,
                epoch: 7,
                msg: msg.clone(),
            });
            WireMsg::Batch {
                envelopes: envelopes.collect(),
            }
        };
        let rebuilt =
            EncryptedVector::from_ciphertexts(&kp.public, total.elements().to_vec()).unwrap();
        assert!(rebuilt == total && !rebuilt.shares_storage(&total));
        let other = EncryptedVector::encrypt_u64(&kp.public, &[9, 9, 9, 9], &mut rng);
        let third = EncryptedVector::encrypt_u64(&kp.public, &[9, 9, 9, 9], &mut rng);
        let sequence = [
            &total, &rebuilt, &total, &rebuilt, &other, &third, &other, &third, &third,
        ];
        let envelopes = sequence.iter().enumerate().map(|(i, v)| Envelope {
            from: Party::Server,
            to: Party::Client(i),
            epoch: 7,
            msg: ProtocolMsg::EncryptedTotalBroadcast {
                total: (*v).clone(),
            },
        });
        let alternating = WireMsg::Batch {
            envelopes: envelopes.collect(),
        };
        let one_off = |change: &dyn Fn(&mut Envelope)| {
            let mut batch = broadcast(ProtocolMsg::EncryptedTotalBroadcast {
                total: total.clone(),
            });
            let WireMsg::Batch { envelopes } = &mut batch else {
                unreachable!("a broadcast is a batch")
            };
            change(envelopes.last_mut().expect("six addressees"));
            batch
        };
        vec![
            broadcast(ProtocolMsg::EncryptedTotalBroadcast {
                total: total.clone(),
            }),
            broadcast(ProtocolMsg::PackedTotalBroadcast { total: packed }),
            alternating,
            one_off(&|e| e.from = Party::Agent),
            one_off(&|e| e.epoch = 8),
            one_off(&|e| {
                e.msg = ProtocolMsg::EncryptedDistributionSum {
                    try_index: 0,
                    contributors: 5,
                    sum: total.clone(),
                }
            }),
            one_off(&|e| {
                e.msg = ProtocolMsg::EncryptedTotalBroadcast {
                    total: rebuilt.clone(),
                }
            }),
        ]
    }

    /// The parent commit's `DBH2` encoding of a batch, from public pieces
    /// only: every envelope encoded on its own (a lone envelope has nothing
    /// to share a vector with), stitched behind the batch header.
    pub(crate) fn per_envelope_payload(msg: &WireMsg) -> Vec<u8> {
        let WireMsg::Batch { envelopes } = msg else {
            return encode(msg).unwrap();
        };
        let mut out = vec![2];
        he::put_u32(&mut out, envelopes.len() as u32);
        for envelope in envelopes {
            let alone = WireMsg::Envelope {
                envelope: envelope.clone(),
            };
            out.extend_from_slice(&encode(&alone).unwrap()[1..]);
        }
        out
    }

    /// The parent commit's `DBH2` batch decoder: every envelope parsed and
    /// validated in full, nothing carried from one to the next.
    fn decode_per_envelope(payload: &[u8]) -> Result<WireMsg, ProtocolError> {
        if payload.first() != Some(&2) {
            return decode(payload);
        }
        let mut cur = &payload[1..];
        let count = take_count(&mut cur)?;
        if count.checked_mul(3).is_none_or(|need| need > cur.len()) {
            return Err(malformed("envelope count overruns the payload"));
        }
        let mut envelopes = Vec::new();
        for _ in 0..count {
            let mut memo = he::VectorDecodeMemo::default();
            envelopes.push(decode_envelope(&mut cur, &mut memo)?);
        }
        if !cur.is_empty() {
            return Err(malformed("trailing bytes after the wire message"));
        }
        Ok(WireMsg::Batch { envelopes })
    }

    fn vector_of(envelope: &Envelope) -> &EncryptedVector {
        match &envelope.msg {
            ProtocolMsg::EncryptedTotalBroadcast { total } => total,
            ProtocolMsg::PackedTotalBroadcast { total } => total.vector(),
            other => panic!("not a broadcast: {other:?}"),
        }
    }

    #[test]
    fn shared_vectors_change_no_byte_and_no_value() {
        for msg in sample_msgs().into_iter().chain(broadcast_batches()) {
            let payload = encode(&msg).unwrap();
            assert_eq!(payload, per_envelope_payload(&msg), "{msg:?}");
            let back = decode(&payload).unwrap();
            assert_eq!(back, msg);
            assert_eq!(decode_per_envelope(&payload).unwrap(), msg);
        }
        // The broadcast is where the short-cuts bite: the hint is exact, and
        // the decoded addressees are handles on one validated vector.
        for msg in &broadcast_batches()[..2] {
            let payload = encode(msg).unwrap();
            assert_eq!(payload.len(), payload_size_hint(msg));
            let WireMsg::Batch { envelopes } = decode(&payload).unwrap() else {
                panic!("a batch decodes to a batch");
            };
            let first = vector_of(&envelopes[0]);
            assert!(envelopes.iter().all(|e| vector_of(e).shares_storage(first)));
        }
    }

    #[test]
    fn the_decode_short_cut_cannot_be_steered() {
        // Differential against per-envelope decoding: whatever is done to
        // the bytes of a 3-addressee broadcast, the decoder that reuses a
        // byte-identical vector answers exactly as the one that parses
        // every envelope — the same value or the same typed error.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let other_key = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng).public;
        for msg in &broadcast_batches()[..2] {
            let WireMsg::Batch { envelopes } = msg else {
                unreachable!()
            };
            let msg = WireMsg::Batch {
                envelopes: envelopes[..3].to_vec(),
            };
            let payload = encode(&msg).unwrap();
            let agree = |bytes: &[u8], what: &str| {
                let (new, old) = (decode(bytes), decode_per_envelope(bytes));
                assert_eq!(new, old, "{what}");
                new
            };
            assert_eq!(agree(&payload, "intact").unwrap(), msg);

            let mut errors = 0;
            for i in 0..payload.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut bytes = payload.clone();
                    bytes[i] ^= mask;
                    errors += agree(&bytes, &format!("byte {i} ^ {mask:#04x}")).is_err() as usize;
                }
            }
            // Header flips are refused; most residue flips are another valid
            // ciphertext, which the changed addressee alone must receive.
            assert!(0 < errors && errors < 3 * payload.len(), "{errors}");
            assert!(agree(&payload[..payload.len() - 1], "last byte dropped").is_err());

            // The second envelope under another key of the same width: its
            // bytes differ from the first's, so it is parsed on its own
            // (and refused or accepted on its own residues).
            let vector_bytes = he::encoded_vector_bytes(vector_of(&envelopes[0]));
            let second_end = payload.len() - (payload.len() - 5) / 3;
            let key_at = second_end - vector_bytes + 4;
            let mut bytes = payload.clone();
            let n = other_key.n().to_bytes_be();
            bytes[key_at..key_at + n.len()].copy_from_slice(&n);
            let _ = agree(&bytes, "second key replaced");

            // The second vector's last residue pushed to ≥ n².
            let width = dubhe_he::transport::ciphertext_size_bytes(&other_key);
            let mut bytes = payload.clone();
            bytes[second_end - width..second_end].fill(0xFF);
            let err = agree(&bytes, "second vector's last residue out of range").unwrap_err();
            assert!(err.to_string().contains("not below n²"), "{err}");
        }
    }

    /// Decodes `payload` through a [`PayloadDecoder`] fed it as a receiver
    /// is: `piece()` more bytes arrive at a time, and only what the decoder
    /// has not taken is offered again. Returns the outcome and the most
    /// bytes ever held untaken.
    fn streamed(
        payload: &[u8],
        mut piece: impl FnMut() -> usize,
    ) -> (Result<WireMsg, ProtocolError>, usize) {
        let mut decoder = PayloadDecoder::new(payload.len());
        let (mut arrived, mut taken, mut held) = (0usize, 0, 0);
        loop {
            arrived = arrived.saturating_add(piece()).min(payload.len());
            held = held.max(arrived - taken);
            let outcome = decoder.decode(&payload[taken..arrived]);
            if let Some((list, _)) = &decoder.batch {
                let (len, capacity) = (list.len(), list.capacity());
                assert!(capacity <= 2 * len, "{capacity} slots for {len} envelopes");
            }
            match outcome {
                Err(e) => return (Err(e), held),
                Ok((n, msg)) => {
                    taken += n;
                    assert_eq!(taken, decoder.decoded());
                    if let Some(msg) = msg {
                        assert_eq!(taken, payload.len(), "the whole payload is taken");
                        return (Ok(msg), held);
                    }
                    assert!(arrived < payload.len(), "a whole payload is decided");
                }
            }
        }
    }

    /// A seeded xorshift draw in `1..=bound`.
    fn draws(seed: u64, bound: usize) -> impl FnMut() -> usize {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + (state % bound as u64) as usize
        }
    }

    /// Batches for the streaming decoder: 300-addressee element-wise and
    /// packed broadcasts, a mixed batch of every envelope shape over
    /// several vectors and keys, and an empty batch.
    fn streaming_batches() -> Vec<WireMsg> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let values: Vec<u64> = (0..56).collect();
        let total = EncryptedVector::encrypt_u64(&kp.public, &values, &mut rng);
        let packer = dubhe_he::Packer::new(16, dubhe_he::TEST_KEY_BITS);
        let packed =
            dubhe_he::PackedEncryptedVector::encrypt(packer, &kp.public, &values, &mut rng)
                .unwrap();
        let vectors: Vec<EncryptedVector> = (0..3)
            .map(|i| EncryptedVector::encrypt_u64(&kp.public, &values[i..], &mut rng))
            .collect();
        let env = |i: usize, msg: ProtocolMsg| Envelope {
            from: Party::Server,
            to: Party::Client(i),
            epoch: 9,
            msg,
        };
        let broadcast = |msg: ProtocolMsg| WireMsg::Batch {
            envelopes: (0..300).map(|i| env(i, msg.clone())).collect(),
        };
        let mixed: Vec<Envelope> = (0..60)
            .map(|i| {
                env(
                    i,
                    match i % 7 {
                        0 => ProtocolMsg::PublicKeyDispatch {
                            public_key: kp.public.clone(),
                            private_key: (i % 2 == 0).then(|| kp.private.clone()),
                        },
                        1 => ProtocolMsg::TryVerdict {
                            best_try: i,
                            distance: 0.25,
                        },
                        2 => ProtocolMsg::EncryptedDistribution {
                            client: i,
                            try_index: 1,
                            distribution: vectors[i % 3].clone(),
                        },
                        3 => ProtocolMsg::PackedDistributionSum {
                            try_index: 1,
                            contributors: i,
                            sum: packed.clone(),
                        },
                        4 => ProtocolMsg::EncryptedTotalBroadcast {
                            total: total.clone(),
                        },
                        5 => ProtocolMsg::PackedRegistry {
                            client: i,
                            registry: packed.clone(),
                        },
                        _ => ProtocolMsg::EncryptedRegistry {
                            client: i,
                            registry: vectors[1].clone(),
                        },
                    },
                )
            })
            .collect();
        vec![
            broadcast(ProtocolMsg::EncryptedTotalBroadcast { total }),
            broadcast(ProtocolMsg::PackedTotalBroadcast { total: packed }),
            WireMsg::Batch { envelopes: mixed },
            WireMsg::Batch { envelopes: vec![] },
        ]
    }

    #[test]
    fn a_payload_split_anywhere_decodes_as_it_does_whole() {
        for msg in sample_msgs().into_iter().chain(broadcast_batches()) {
            let payload = encode(&msg).unwrap();
            for at in 0..=payload.len() {
                let mut pieces = [at, usize::MAX].into_iter();
                let (got, _) = streamed(&payload, || pieces.next().unwrap());
                assert_eq!(got, Ok(msg.clone()), "split at {at} of {msg:?}");
            }
        }
    }

    #[test]
    fn a_batch_fed_in_seeded_chunks_is_held_an_envelope_at_a_time() {
        for (i, msg) in streaming_batches().into_iter().enumerate() {
            let payload = encode(&msg).unwrap();
            let WireMsg::Batch { envelopes } = &msg else {
                unreachable!("batches only")
            };
            let largest = envelopes
                .iter()
                .map(|e| {
                    encode(&WireMsg::Envelope {
                        envelope: e.clone(),
                    })
                    .unwrap()
                    .len()
                })
                .max()
                .map_or(5, |len| len.max(5));
            for seed in 0..8 {
                let bound = [1, 7, 64, 700, 4096, 16 * 1024, 1 << 20][seed as usize % 7];
                let (got, held) = streamed(&payload, draws(seed + 1, bound));
                assert_eq!(got, Ok(msg.clone()), "batch {i}, seed {seed}");
                let Ok(WireMsg::Batch { envelopes: list }) = got else {
                    unreachable!("a batch decodes to a batch")
                };
                assert_eq!(
                    list.capacity(),
                    list.len(),
                    "batch {i}: the list ends at its count"
                );
                assert!(
                    held <= bound + largest,
                    "batch {i}, seed {seed}: {held} B held, {largest} B envelopes"
                );
            }
        }
    }

    #[test]
    fn corrupted_and_truncated_payloads_stream_to_the_whole_parse_s_error() {
        // Single-byte corruptions at seeded offsets, each fed in seeded
        // chunks, and seeded truncations: the streamed outcome is the whole
        // parse's, message or exact error.
        let mut refused = 0;
        let batches = streaming_batches();
        for (i, msg) in batches.iter().enumerate() {
            let payload = encode(msg).unwrap();
            let mut offset = draws(100 + i as u64, payload.len());
            let mut chunk = draws(200 + i as u64, 2048);
            for trial in 0..120 {
                let mut bytes = payload.clone();
                let at = offset() - 1;
                bytes[at] ^= [0x01, 0x80, 0xFF][trial % 3];
                let whole = decode(&bytes);
                refused += usize::from(whole.is_err());
                let (got, _) = streamed(&bytes, &mut chunk);
                assert_eq!(got, whole, "batch {i}: byte {at} flipped");
            }
            for _ in 0..20 {
                let cut = offset() - 1;
                let (got, _) = streamed(&payload[..cut], &mut chunk);
                assert_eq!(got, decode(&payload[..cut]), "batch {i}: cut at {cut}");
                assert!(got.is_err());
            }
        }
        assert!(
            refused > 100,
            "the corruptions reach the refusals: {refused}"
        );
    }

    #[test]
    fn every_variant_round_trips_through_both_codecs() {
        for msg in sample_msgs() {
            assert_eq!(decode(&encode(&msg).unwrap()).unwrap(), msg);
        }
    }

    /// A key dispatch of `kp`, with and without the private half.
    fn key_dispatches(kp: &Keypair) -> [WireMsg; 2] {
        let dispatch = |private_key: Option<dubhe_he::PrivateKey>| WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Agent,
                to: Party::Client(2),
                epoch: 1,
                msg: ProtocolMsg::PublicKeyDispatch {
                    public_key: kp.public.clone(),
                    private_key,
                },
            },
        };
        [dispatch(Some(kp.private.clone())), dispatch(None)]
    }

    /// A keypair over primes of 120 and 136 bits — a 255- or 256-bit
    /// modulus whose smaller prime encodes a byte short of half its width,
    /// as a key from another implementation's keygen may. (`Keypair`'s own
    /// keygen draws both primes at exactly half the width.)
    fn unbalanced_keypair(rng: &mut rand::rngs::StdRng) -> Keypair {
        let p = dubhe_he::prime::generate_prime(120, rng);
        let q = dubhe_he::prime::generate_prime(136, rng);
        let mut bytes = Vec::new();
        for value in [&p * &q, p, q] {
            let value = value.to_bytes_be();
            he::put_u32(&mut bytes, value.len() as u32);
            bytes.extend_from_slice(&value);
        }
        let private = he::decode_private_key(&mut &bytes[..]).unwrap();
        Keypair {
            public: private.public.clone(),
            private,
        }
    }

    /// Whether a prime of `kp` encodes shorter than half the modulus.
    fn has_a_short_prime(kp: &Keypair) -> bool {
        let mut bytes = Vec::new();
        he::encode_private_key(&kp.private, &mut bytes);
        let modulus = dubhe_he::transport::public_key_size_bytes(&kp.public);
        let mut cur = &bytes[4 + modulus..];
        (0..2).any(|_| {
            let len = he::take_u32(&mut cur).unwrap() as usize;
            he::take_bytes(&mut cur, len).unwrap();
            len < modulus.div_ceil(2)
        })
    }

    #[test]
    fn binary_encode_size_hint_covers_every_payload_in_one_allocation() {
        // The hint is the payload's exact length for every message — what a
        // write queue fixes a frame's header from before encoding a byte of
        // it — key dispatches included, whose primes may encode a byte short
        // of half the modulus.
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let keypairs: Vec<Keypair> = (0..64)
            .map(|i| match i % 8 {
                0 => unbalanced_keypair(&mut rng),
                _ => Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng),
            })
            .collect();
        assert!(
            keypairs.iter().any(has_a_short_prime),
            "the set carries a prime that encodes one byte short"
        );
        // The first two broadcast batches are true broadcasts; the others
        // may equal them by value, not by storage.
        let broadcasts = broadcast_batches().into_iter().enumerate();
        let dispatches = keypairs.iter().flat_map(key_dispatches);
        for (msg, held) in sample_msgs()
            .into_iter()
            .map(|msg| (msg, false))
            .chain(broadcasts.map(|(i, msg)| (msg, i < 2)))
            .chain(dispatches.map(|msg| (msg, false)))
        {
            let payload = encode(&msg).unwrap();
            assert_eq!(payload.len(), payload_size_hint(&msg), "{msg:?}");
            assert_eq!(payload.capacity(), payload.len(), "one allocation");
            // Owned, only a broadcast is held as one envelope and its
            // addressees, and its bytes do not change; a near-broadcast
            // keeps its list.
            let mut owned = PayloadEncoder::new(Cow::Owned(msg.clone())).unwrap();
            assert_eq!(!owned.to.is_empty(), held, "{msg:?}");
            let mut bytes = Vec::new();
            owned.encode(&mut bytes, usize::MAX);
            assert_eq!(bytes, payload, "{msg:?}");
        }
    }

    #[test]
    fn the_size_hint_is_exact_for_a_1024_bit_key_dispatch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let kp = Keypair::generate(1024, &mut rng);
        for msg in key_dispatches(&kp) {
            assert_eq!(encode(&msg).unwrap().len(), payload_size_hint(&msg));
        }
    }

    #[test]
    fn binary_decoder_rejects_garbage_without_panicking() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],                                              // empty
            vec![9],                                             // unknown wire tag
            vec![0, 7],                                          // unknown party tag
            vec![4, 0, 0, 0, 10, b'x'],                          // error detail truncated
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255], // hostile count
            vec![3, 3],                                          // trailing bytes after Ack
            vec![0, 0, 1, 0, 0, 0, 0, 0xFF, 0xFF], // bad detail: invalid utf8... actually envelope
        ];
        for bytes in cases {
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(err, ProtocolError::MalformedFrame { .. }),
                "{bytes:?} -> {err}"
            );
        }
    }

    #[test]
    fn truncated_packed_dbh2_payloads_are_typed_errors() {
        // Every strict prefix of a packed-registry frame decodes to a typed
        // MalformedFrame — never a panic, never an unbounded allocation.
        let packed = sample_msgs()
            .into_iter()
            .find(|m| {
                matches!(
                    m,
                    WireMsg::Envelope {
                        envelope: Envelope {
                            msg: ProtocolMsg::PackedRegistry { .. },
                            ..
                        }
                    }
                )
            })
            .expect("sample set carries a packed registry");
        let payload = encode(&packed).unwrap();
        for cut in 0..payload.len() {
            let err = decode(&payload[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::MalformedFrame { .. }),
                "cut {cut}: {err}"
            );
        }
        // A hostile slot width inside an otherwise intact frame is refused.
        let mut bad = payload.clone();
        // envelope: tag(1) + from(9) + to(1) + epoch(8) + msgtag(1) + client(8)
        let layout_off = 1 + 9 + 1 + 8 + 1 + 8;
        bad[layout_off..layout_off + 4].copy_from_slice(&250u32.to_be_bytes());
        assert!(matches!(
            decode(&bad).unwrap_err(),
            ProtocolError::MalformedFrame { .. }
        ));
    }

    #[test]
    fn registry_frames_defer_exactly_the_binary_registry_payloads() {
        // The deferral gate must accept the unpacked-registry envelope and
        // nothing else — every other payload falls back to the eager
        // decoder byte-for-byte unchanged.
        for msg in sample_msgs() {
            let payload = encode(&msg).unwrap();
            let is_registry = matches!(
                &msg,
                WireMsg::Envelope {
                    envelope: Envelope {
                        msg: ProtocolMsg::EncryptedRegistry { .. },
                        ..
                    }
                }
            );
            assert_eq!(
                RegistryFrame::matches_prefix(&payload),
                is_registry,
                "prefix gate disagrees for {msg:?}"
            );
            match RegistryFrame::try_from_payload(payload.clone()) {
                Ok(frame) => {
                    assert!(is_registry);
                    assert_eq!(frame.payload_len(), payload.len());
                }
                Err(returned) => {
                    assert!(!is_registry);
                    assert_eq!(returned, payload, "fallback must not disturb the payload");
                }
            }
        }
    }

    #[test]
    fn deferred_view_agrees_with_the_eager_decoder() {
        let msg = sample_msgs()
            .into_iter()
            .find(|m| {
                matches!(
                    m,
                    WireMsg::Envelope {
                        envelope: Envelope {
                            msg: ProtocolMsg::EncryptedRegistry { .. },
                            ..
                        }
                    }
                )
            })
            .expect("sample set carries a registry");
        let payload = encode(&msg).unwrap();
        let WireMsg::Envelope { envelope } = decode(&payload).unwrap() else {
            panic!("registry payload decodes to an envelope");
        };
        let ProtocolMsg::EncryptedRegistry { client, registry } = &envelope.msg else {
            panic!("registry payload decodes to a registry");
        };

        let frame = RegistryFrame::try_from_payload(payload).expect("registry payload defers");
        assert_eq!(frame.from(), envelope.from);
        assert_eq!(frame.to(), envelope.to);
        assert_eq!(frame.epoch(), envelope.epoch);
        assert_eq!(frame.client(), *client);
        // The borrowed view sees exactly the ciphertext the eager decoder
        // materialises, and full materialisation is the same envelope.
        let view = frame.view().expect("well-formed block");
        assert_eq!(view.len(), registry.len());
        assert_eq!(&view.materialize(), registry);
        assert_eq!(frame.materialize().unwrap(), envelope);
    }

    #[test]
    fn truncated_deferred_frames_never_reach_the_fold() {
        // Cutting a registry payload anywhere must end in a typed error,
        // whether the cut lands in the prefix (deferral falls back and the
        // eager decoder reports it) or inside the ciphertext block (the
        // frame is accepted but `view()` refuses before any fold state is
        // touched). Never a panic, never a dangling borrow.
        let msg = sample_msgs()
            .into_iter()
            .find(|m| {
                matches!(
                    m,
                    WireMsg::Envelope {
                        envelope: Envelope {
                            msg: ProtocolMsg::EncryptedRegistry { .. },
                            ..
                        }
                    }
                )
            })
            .expect("sample set carries a registry");
        let payload = encode(&msg).unwrap();
        for cut in 0..payload.len() {
            match RegistryFrame::try_from_payload(payload[..cut].to_vec()) {
                Err(returned) => {
                    // Prefix incomplete: the eager decoder owns the error.
                    let err = decode(&returned).unwrap_err();
                    assert!(
                        matches!(err, ProtocolError::MalformedFrame { .. }),
                        "cut {cut}: {err}"
                    );
                }
                Ok(frame) => {
                    let err = frame.view().unwrap_err();
                    assert!(
                        matches!(err, ProtocolError::MalformedFrame { .. }),
                        "cut {cut}: {err}"
                    );
                }
            }
        }
        // Trailing garbage after an intact block is refused too — the
        // deferred path keeps the eager decoder's exact-length contract.
        let mut padded = payload.clone();
        padded.push(0);
        let frame = RegistryFrame::try_from_payload(padded).expect("prefix still matches");
        assert!(matches!(
            frame.view().unwrap_err(),
            ProtocolError::MalformedFrame { .. }
        ));
        // An out-of-range residue (≥ n²) is caught by validation, exactly
        // like the owned decoder.
        let width = RegistryFrame::try_from_payload(payload.clone())
            .expect("prefix matches")
            .view()
            .expect("well-formed block")
            .residue_width();
        let mut bad = payload;
        let len = bad.len();
        bad[len - width..].fill(0xFF);
        let frame = RegistryFrame::try_from_payload(bad).expect("prefix still matches");
        assert!(matches!(
            frame.view().unwrap_err(),
            ProtocolError::MalformedFrame { .. }
        ));
    }
}
