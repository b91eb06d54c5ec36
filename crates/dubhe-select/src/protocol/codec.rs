//! The `DBH2` payload codec: a [`WireMsg`] to frame-payload bytes and back.
//!
//! A frame (see [`super::wire`]) is `DBH2 | u32 length | payload`. The
//! payload is a canonical binary layout whose ciphertext fields are the
//! fixed-width big-endian limbs of [`dubhe_he::codec`], so a frame is its
//! canonical payload plus a small constant header — within 1.10× of the
//! paper's communication model, pinned by `tests/networked_protocol.rs`.
//!
//! ## One layout, two walks
//!
//! Each message's layout is written once: the two `layout!` tables give
//! every wire message, and every protocol message an envelope carries, as
//! its tag and then its fields in order, and each field's type its own
//! layout ([`dubhe_he::codec`]'s canonical one for keys and vectors; all
//! integers big-endian). New tags extend a table, so an older `DBH2` peer
//! still reads the tags it knows. Everything else walks that description:
//! the *write walk* puts the fields into a sink — the payload
//! (`PayloadEncoder`), or a count of its bytes ([`payload_size_hint`]),
//! which is therefore exact; the *read walk* takes them off the bytes
//! (`PayloadDecoder`, [`decode`]), or steps over them to read an envelope's
//! length (`envelope_len`, which skips a residue block as `count × width`).
//! [`RegistryFrame`] is the read walk stopped at a registry's vector.
//!
//! Encoding is *total* over `WireMsg` and decoding is *defensive*:
//! arbitrary bytes surface as [`ProtocolError::MalformedFrame`], never a
//! panic. Both run a piece at a time — a message's head, then a batch's
//! envelopes — so neither end of a connection holds a registration
//! broadcast whole; [`encode`] and [`decode`] are the one-step cases.

use std::borrow::Cow;

use dubhe_he::codec as he;
use dubhe_he::{EncryptedVector, HeError, PackedEncryptedVector, PrivateKey, PublicKey};

use super::message::{Envelope, Party, ProtocolMsg};
use super::wire::WireMsg;
use crate::error::ProtocolError;

/// Bytes of a tag and of a scalar.
const TAG_BYTES: usize = size_of::<u8>();
const SCALAR_BYTES: usize = size_of::<u64>();
/// A batch's head: its tag and its `u32` envelope count.
const BATCH_HEAD_BYTES: usize = TAG_BYTES + size_of::<u32>();
/// The fewest bytes an envelope takes: two party tags and a message tag.
const ENVELOPE_MIN_BYTES: usize = 3 * TAG_BYTES;

/// The wire-message tag of a [`WireMsg::Batch`], the one message decoded a
/// piece at a time.
pub(crate) const BATCH_TAG: u8 = 2;
/// The tags of the envelope a [`RegistryFrame`] defers, and of its message.
const ENVELOPE_TAG: u8 = 0;
const REGISTRY_TAG: u8 = 1;

type Memo<'a> = he::VectorDecodeMemo<'a>;

/// A field's layout: how the write walk puts it, and how the read walk
/// takes it or steps over it. A message family is a field as well: its
/// tag, then its variant's fields (see `layout!`).
trait Field: Sized {
    /// Puts the field into `sink`, all but the vector or error detail it
    /// may end with: that is returned, for the encoder to cut to its budget.
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>>;

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError>;

    /// Steps `cur` over the field but for a vector's residue block, and
    /// returns the block's bytes; `None` where the bytes do not parse. By
    /// default by taking it, which costs a scalar or a party nothing.
    fn step(cur: &mut &[u8]) -> Option<usize> {
        Self::take(cur, &mut Memo::default()).ok().map(|_| 0)
    }
}

/// Writes a message family's layout — each variant's tag, then its fields
/// in order — as the family's [`Field`] implementation.
macro_rules! layout {
    ($family:ident, $what:literal; $($tag:tt $variant:ident { $($field:ident: $ty:ty),* },)*) => {
        impl Field for $family {
            fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
                match self {
                    $($family::$variant { $($field),* } => {
                        put_bytes(sink, &[$tag]);
                        None $(.or(Field::put($field, sink)))*
                    })*
                }
            }

            fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
                Ok(match take_u8(cur)? {
                    $($tag => $family::$variant {
                        $($field: <$ty as Field>::take(cur, memo)?),*
                    },)*
                    tag => return Err(malformed_tag($what, tag)),
                })
            }

            fn step(cur: &mut &[u8]) -> Option<usize> {
                match take_u8(cur).ok()? {
                    $($tag => Some(0 $(+ <$ty as Field>::step(cur)?)*),)*
                    _ => None,
                }
            }
        }
    };
}

layout! { WireMsg, "wire-message";
    ENVELOPE_TAG Envelope { envelope: Envelope },
    1 AnnounceTry { try_index: usize, participants: Vec<usize> },
    BATCH_TAG Batch { envelopes: Vec<Envelope> },
    3 Ack {},
    4 Error { detail: String },
    5 Shutdown {},
    6 BeginEpoch { epoch: u64, expected_registrations: usize },
    7 CloseRegistration {},
    8 CloseTry { try_index: usize },
}

layout! { ProtocolMsg, "protocol-message";
    0 PublicKeyDispatch { public_key: PublicKey, private_key: Option<PrivateKey> },
    REGISTRY_TAG EncryptedRegistry { client: usize, registry: EncryptedVector },
    2 EncryptedTotalBroadcast { total: EncryptedVector },
    3 EncryptedDistribution { client: usize, try_index: usize, distribution: EncryptedVector },
    4 EncryptedDistributionSum { try_index: usize, contributors: usize, sum: EncryptedVector },
    5 TryVerdict { best_try: usize, distance: f64 },
    6 PackedRegistry { client: usize, registry: PackedEncryptedVector },
    7 PackedTotalBroadcast { total: PackedEncryptedVector },
    8 PackedDistribution { client: usize, try_index: usize, distribution: PackedEncryptedVector },
    9 PackedDistributionSum { try_index: usize, contributors: usize, sum: PackedEncryptedVector },
}

/// A `u64` scalar: a `usize` as one, an `f64` as its bits.
macro_rules! scalar {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl Field for $ty {
            fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
                put_bytes(sink, &$to(*self).to_be_bytes());
                None
            }

            fn take<'a>(cur: &mut &'a [u8], _: &mut Memo<'a>) -> Result<Self, ProtocolError> {
                let scalar = he::take_u64(cur).map_err(he_err)?;
                $from(scalar)
            }
        }
    )*};
}

scalar! {
    u64: |v| v, Ok;
    usize: |v| v as u64,
        |v| usize::try_from(v).map_err(|_| malformed("scalar does not fit in usize"));
    f64: f64::to_bits, |v| Ok(f64::from_bits(v));
}

/// `0` the agent, `1` the server, `2` a client, then its id.
impl Field for Party {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        match self {
            Party::Agent => put_bytes(sink, &[0]),
            Party::Server => put_bytes(sink, &[1]),
            Party::Client(id) => {
                put_bytes(sink, &[2]);
                id.put(sink);
            }
        }
        None
    }

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        match take_u8(cur)? {
            0 => Ok(Party::Agent),
            1 => Ok(Party::Server),
            2 => Ok(Party::Client(usize::take(cur, memo)?)),
            tag => Err(malformed_tag("party", tag)),
        }
    }
}

/// Its parties, its epoch, then its message.
impl Field for Envelope {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        put_envelope(self, self.to, sink)
    }

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        Ok(Envelope {
            from: Party::take(cur, memo)?,
            to: Party::take(cur, memo)?,
            epoch: u64::take(cur, memo)?,
            msg: ProtocolMsg::take(cur, memo)?,
        })
    }

    fn step(cur: &mut &[u8]) -> Option<usize> {
        Some(Party::step(cur)? + Party::step(cur)? + u64::step(cur)? + ProtocolMsg::step(cur)?)
    }
}

/// Puts `envelope`'s fields addressed `to`, which a broadcast held once
/// (see [`PayloadEncoder`]) gives each of its pieces.
fn put_envelope<'m>(envelope: &'m Envelope, to: Party, sink: &mut impl Sink) -> Option<Tail<'m>> {
    envelope.from.put(sink);
    to.put(sink);
    envelope.epoch.put(sink);
    envelope.msg.put(sink)
}

impl Field for PublicKey {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        let len = he::encoded_public_key_bytes(self);
        sink.put(len, |out| he::encode_public_key(self, out));
        None
    }

    fn take<'a>(cur: &mut &'a [u8], _: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        he::decode_public_key(cur).map_err(he_err)
    }

    /// Steps over the `u32`-length-prefixed modulus, building no key.
    fn step(cur: &mut &[u8]) -> Option<usize> {
        let len = he::take_u32(cur).ok()?;
        he::take_bytes(cur, len as usize).ok().map(|_| 0)
    }
}

/// A byte saying whether a private key follows, then the key.
impl Field for Option<PrivateKey> {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        put_bytes(sink, &[u8::from(self.is_some())]);
        if let Some(key) = self {
            let len = he::encoded_private_key_bytes(key);
            sink.put(len, |out| he::encode_private_key(key, out));
        }
        None
    }

    fn take<'a>(cur: &mut &'a [u8], _: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        match take_u8(cur)? {
            0 => Ok(None),
            1 => he::decode_private_key(cur).map(Some).map_err(he_err),
            tag => Err(malformed_tag("private-key presence", tag)),
        }
    }

    /// Steps over the presence byte and the key's three blobs, building no key.
    fn step(cur: &mut &[u8]) -> Option<usize> {
        let blobs = [0, 3].get(usize::from(take_u8(cur).ok()?))?;
        (0..*blobs).try_fold(0, |_, _| PublicKey::step(cur))
    }
}

impl Field for EncryptedVector {
    fn put<'m>(&'m self, _: &mut impl Sink) -> Option<Tail<'m>> {
        Some(Tail::Vector(self))
    }

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        memo.decode_vector(cur).map_err(he_err)
    }

    /// Steps over its key and count: its residue block, which fixed-width
    /// residues make `count × width`, is what is left.
    fn step(cur: &mut &[u8]) -> Option<usize> {
        let key_len = he::take_u32(cur).ok()? as usize;
        let n = he::take_bytes(cur, key_len).ok()?;
        // A modulus the parser refuses has no width.
        let &lead = n.first().filter(|&&lead| lead != 0)?;
        let bits = 8 * n.len() - lead.leading_zeros() as usize;
        let count = he::take_u32(cur).ok()? as usize;
        count.checked_mul(dubhe_he::transport::ciphertext_size_bytes_for(bits as u64))
    }
}

/// Its slot header ([`he::PACKED_HEADER_BYTES`]), then its vector.
impl Field for PackedEncryptedVector {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        let header = he::PACKED_HEADER_BYTES;
        sink.put(header, |out| he::put_packed_header(self, out));
        self.vector().put(sink)
    }

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        memo.decode_packed_vector(cur).map_err(he_err)
    }

    fn step(cur: &mut &[u8]) -> Option<usize> {
        he::take_bytes(cur, he::PACKED_HEADER_BYTES).ok()?;
        EncryptedVector::step(cur)
    }
}

/// A count, then that many scalars.
impl Field for Vec<usize> {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        put_count(sink, self.len());
        for scalar in self {
            scalar.put(sink);
        }
        None
    }

    fn take<'a>(cur: &mut &'a [u8], memo: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        let count = take_count(cur)?;
        // Refuse counts the payload cannot hold before reserving anything.
        let need = count.checked_mul(SCALAR_BYTES);
        if need.is_none_or(|need| need > cur.len()) {
            return Err(malformed("participant count overruns the payload"));
        }
        (0..count).map(|_| usize::take(cur, memo)).collect()
    }
}

/// A batch's envelope count, then its envelopes: pieces of their own, which
/// the encoder puts and the decoder takes one at a time.
impl Field for Vec<Envelope> {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        put_count(sink, self.len());
        None
    }

    fn take<'a>(_: &mut &'a [u8], _: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        unreachable!("PayloadDecoder takes a batch's head and envelopes itself")
    }
}

/// A length, then that many bytes of UTF-8.
impl Field for String {
    fn put<'m>(&'m self, sink: &mut impl Sink) -> Option<Tail<'m>> {
        put_count(sink, self.len());
        Some(Tail::Detail(self))
    }

    fn take<'a>(cur: &mut &'a [u8], _: &mut Memo<'a>) -> Result<Self, ProtocolError> {
        let len = take_count(cur)?;
        let bytes = he::take_bytes(cur, len).map_err(he_err)?;
        let detail = std::str::from_utf8(bytes).map_err(|_| malformed("error detail is not UTF-8"));
        Ok(detail?.to_string())
    }
}

/// Where the write walk puts a message's fields: into a payload, or into a
/// count of its bytes — so [`payload_size_hint`] counts what [`encode`]
/// writes.
trait Sink {
    /// Puts a field of `len` bytes, which `write` appends.
    fn put(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>));
}

impl Sink for Vec<u8> {
    fn put(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.len();
        write(self);
        debug_assert_eq!(self.len() - start, len, "a field's count is its length");
    }
}

impl Sink for usize {
    fn put(&mut self, len: usize, _: impl FnOnce(&mut Vec<u8>)) {
        *self += len;
    }
}

fn put_bytes(sink: &mut impl Sink, bytes: &[u8]) {
    sink.put(bytes.len(), |out| out.extend_from_slice(bytes));
}

fn put_count(sink: &mut impl Sink, count: usize) {
    put_bytes(sink, &(count as u32).to_be_bytes());
}

/// The end of a piece that the encoder cuts to its budget.
enum Tail<'m> {
    Vector(&'m EncryptedVector),
    Detail(&'m str),
}

/// The write walk over piece `piece` of `msg`: its head — all of it but for
/// a batch — or a batch's envelope `piece - 1`; see [`PayloadEncoder`] for
/// `to`.
fn put_piece<'m>(
    msg: &'m WireMsg,
    to: &[Party],
    piece: usize,
    sink: &mut impl Sink,
) -> Option<Tail<'m>> {
    match (msg, piece.checked_sub(1)) {
        (WireMsg::Batch { envelopes }, Some(i)) => {
            let envelope = &envelopes[if to.is_empty() { i } else { 0 }];
            put_envelope(envelope, to.get(i).copied().unwrap_or(envelope.to), sink)
        }
        // A broadcast held once counts its addressees.
        (WireMsg::Batch { .. }, None) if !to.is_empty() => {
            put_bytes(sink, &[BATCH_TAG]);
            put_count(sink, to.len());
            None
        }
        _ => msg.put(sink),
    }
}

/// Exactly how many bytes [`encode`] produces for `msg`: the write walk run
/// into a count, without encoding anything — what a framer fixes a frame's
/// length from before the first byte of it is encoded.
pub fn payload_size_hint(msg: &WireMsg) -> usize {
    let mut size = 0;
    for piece in 0..=batch(msg).len() {
        let tail = put_piece(msg, &[], piece, &mut size);
        size += match tail {
            None => 0,
            Some(Tail::Vector(vector)) => he::encoded_vector_bytes(vector),
            Some(Tail::Detail(detail)) => detail.len(),
        };
    }
    size
}

/// Serializes one message into a payload of its own, in one allocation of
/// its exact length: a `PayloadEncoder` run to the end in one call.
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, ProtocolError> {
    let mut encoder = PayloadEncoder::new(Cow::Borrowed(msg))?;
    let mut out = Vec::with_capacity(encoder.remaining());
    encoder.encode(&mut out, usize::MAX);
    Ok(out)
}

/// One message's payload, encoded into the end of a buffer a piece at a
/// time ([`put_piece`]), so a write queue holds a registration broadcast a
/// slice at a time. [`new`](Self::new) checks all that can fail and fixes
/// the payload's length. A piece goes in whole but for its trailing vector
/// or detail, which is cut where a call's budget ends. A broadcast's shared
/// vector is encoded once, into a copy the encoder keeps
/// ([`he::VectorEncodeMemo`]); an owned broadcast is held as its one
/// envelope and its addressees, the other envelopes dropped at once.
pub(crate) struct PayloadEncoder<'a> {
    msg: Cow<'a, WireMsg>,
    /// A broadcast's addressees, `msg` keeping its first envelope; or empty.
    to: Vec<Party>,
    /// Payload bytes not encoded yet.
    remaining: usize,
    /// The next piece.
    next: usize,
    /// While the last piece's vector or detail is not all out: how much is.
    at: Option<usize>,
    memo: he::VectorEncodeMemo,
}

/// A batch's envelopes: its pieces past its head.
fn batch(msg: &WireMsg) -> &[Envelope] {
    match msg {
        WireMsg::Batch { envelopes } => envelopes,
        _ => &[],
    }
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
    match envelope.msg.put(&mut 0usize) {
        Some(Tail::Vector(vector)) => Some(vector),
        _ => None,
    }
}

impl<'a> PayloadEncoder<'a> {
    /// Takes `msg` for encoding, or refuses it with the error encoding it
    /// would meet: a vector with a residue wider than its field. Each
    /// vector is checked once however many envelopes in a row carry it.
    pub(crate) fn new(mut msg: Cow<'a, WireMsg>) -> Result<Self, ProtocolError> {
        let mut last: Option<&EncryptedVector> = None;
        for piece in 0..=batch(&msg).len() {
            let Some(Tail::Vector(vector)) = put_piece(&msg, &[], piece, &mut 0usize) else {
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
            at: None,
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
            let (tail, at) = match self.at {
                // The piece's fields are out: walk them into a count.
                Some(at) => (put_piece(msg, &self.to, self.next - 1, &mut 0usize), at),
                None => {
                    self.next += 1;
                    (put_piece(msg, &self.to, self.next - 1, out), 0)
                }
            };
            let bytes = match tail {
                None => &[][..],
                Some(Tail::Vector(vector)) => {
                    let bytes = self.memo.encoding(vector);
                    bytes.expect("checked when the encoder was built")
                }
                Some(Tail::Detail(detail)) => detail.as_bytes(),
            };
            let n = (bytes.len() - at).min(end.saturating_sub(out.len()));
            out.extend_from_slice(&bytes[at..at + n]);
            self.at = Some(at + n).filter(|&at| at < bytes.len());
        }
        let appended = out.len() - start;
        assert!(appended <= self.remaining, "payload_size_hint is exact");
        self.remaining -= appended;
    }
}

/// Parses one frame payload. The whole payload must be consumed. A
/// `PayloadDecoder` run to the end in one call.
pub fn decode(payload: &[u8]) -> Result<WireMsg, ProtocolError> {
    let (_, msg) = PayloadDecoder::new(payload.len()).decode(payload)?;
    Ok(msg.expect("a whole payload decodes or is refused"))
}

/// The exact encoded length of the envelope at the front of `bytes`, read
/// by stepping over its fields. `None` while they have not all arrived, or
/// when they do not parse: the decoder then waits for the whole payload and
/// lets the parser say why.
fn envelope_len(bytes: &[u8]) -> Option<usize> {
    let mut cur = bytes;
    let residues = Envelope::step(&mut cur)?;
    (bytes.len() - cur.len()).checked_add(residues)
}

/// One message's payload, decoded a piece at a time as its bytes arrive —
/// [`PayloadEncoder`]'s dual, so a receiver holds a registration broadcast
/// an envelope at a time. Each envelope of a batch is parsed once its
/// length ([`envelope_len`]) has arrived, with one [`Memo`] across the
/// batch; where no length can be read off, the piece runs to the payload's
/// end, so however a payload is split the decoder answers what [`decode`]
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
    memo: Memo<'static>,
}

impl PayloadDecoder {
    /// A decoder for a payload of `len` bytes.
    pub(crate) fn new(len: usize) -> Self {
        PayloadDecoder {
            len,
            remaining: len,
            batch: None,
            memo: Memo::default(),
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
        memo: &mut Memo<'a>,
    ) -> Result<Option<WireMsg>, ProtocolError> {
        let arrived = cur.len();
        loop {
            // Payload bytes from the front of `cur` on, arrived or not.
            let rest = self.remaining - (arrived - cur.len());
            let Some((envelopes, left)) = &mut self.batch else {
                // Any message but a batch is one piece: the whole payload.
                if cur.first() != Some(&BATCH_TAG) {
                    if cur.len() < rest {
                        return Ok(None);
                    }
                    let msg = WireMsg::take(cur, memo)?;
                    if !cur.is_empty() {
                        return Err(malformed("trailing bytes after the wire message"));
                    }
                    return Ok(Some(msg));
                }
                if cur.len() < rest.min(BATCH_HEAD_BYTES) {
                    return Ok(None);
                }
                let count = take_count(&mut &cur[TAG_BYTES..rest.min(BATCH_HEAD_BYTES)])?;
                // A lower bound per envelope refuses impossible counts, but
                // nothing is reserved from one: an `Envelope` is 100× its
                // wire lower bound. The list grows by what decodes.
                let need = count.checked_mul(ENVELOPE_MIN_BYTES);
                if need.is_none_or(|need| need > rest - BATCH_HEAD_BYTES) {
                    return Err(malformed("envelope count overruns the payload"));
                }
                *cur = &cur[BATCH_HEAD_BYTES..];
                self.batch = Some((Vec::new(), count));
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
            let decoded = Envelope::take(&mut piece, memo)?;
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

// Kept for the frozen `benchmark/` alone, which spells it (and passes it to
// `TcpConfig::with_codec` / `MuxConfig::with_codec`); ROADMAP item 1(d)
// deletes it with those lines. Nothing else may name it.
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

fn malformed(detail: &str) -> ProtocolError {
    ProtocolError::MalformedFrame {
        detail: format!("binary payload: {detail}"),
    }
}

fn he_err(e: HeError) -> ProtocolError {
    malformed(&e.to_string())
}

/// A recognised-but-undecoded `DBH2` registry upload — the coordinator's
/// hot path: the owned payload and the envelope fields in front of its
/// vector, read in `O(1)` without touching a ciphertext. The router then
/// folds residues straight out of the payload through [`view`](Self::view),
/// a borrowed [`EncryptedVectorView`](he::EncryptedVectorView), instead of
/// materialising a `BigUint` per element. Anything else is handed back
/// unparsed, so the eager path keeps its exact error behaviour.
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
    /// Reads the fields in front of a registry's vector, or returns the
    /// payload unchanged when it is not a plain `EncryptedRegistry` envelope
    /// — truncated ones included, so the eager decoder owns every diagnosis.
    /// The vector is validated by [`view`](Self::view), at fold time.
    pub fn try_from_payload(payload: Vec<u8>) -> Result<RegistryFrame, Vec<u8>> {
        match Self::parse_prefix(&payload) {
            Some(frame) => Ok(frame.with_payload(payload)),
            None => Err(payload),
        }
    }

    /// `true` iff [`try_from_payload`](Self::try_from_payload) would accept
    /// this payload, checked on a borrow.
    pub fn matches_prefix(payload: &[u8]) -> bool {
        Self::parse_prefix(payload).is_some()
    }

    /// The read walk over an envelope, stopped at a registry's vector: the
    /// frame it defers, but for its payload, which
    /// [`with_payload`](Self::with_payload) then hands over — so a receiver
    /// that borrows the payload to check it parses the prefix once.
    pub(crate) fn parse_prefix(payload: &[u8]) -> Option<RegistryFrame> {
        let (cur, memo) = (&mut &payload[..], &mut Memo::default());
        (take_u8(cur).ok()? == ENVELOPE_TAG).then_some(())?;
        let from = Party::take(cur, memo).ok()?;
        let to = Party::take(cur, memo).ok()?;
        let epoch = u64::take(cur, memo).ok()?;
        (take_u8(cur).ok()? == REGISTRY_TAG).then_some(())?;
        let client = usize::take(cur, memo).ok()?;
        let vector_offset = payload.len() - cur.len();
        Some(RegistryFrame {
            payload: Vec::new(),
            from,
            to,
            epoch,
            client,
            vector_offset,
        })
    }

    /// The frame [`parse_prefix`](Self::parse_prefix) read off `payload`.
    pub(crate) fn with_payload(self, payload: Vec<u8>) -> RegistryFrame {
        RegistryFrame { payload, ..self }
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
    let b = he::take_bytes(cur, TAG_BYTES).map_err(he_err)?;
    Ok(b[0])
}

fn take_count(cur: &mut &[u8]) -> Result<usize, ProtocolError> {
    Ok(he::take_u32(cur).map_err(he_err)? as usize)
}

fn malformed_tag(what: &str, tag: u8) -> ProtocolError {
    malformed(&format!("unknown {what} tag {tag}"))
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
            envelopes.push(Envelope::take(&mut cur, &mut memo)?);
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
        // The length reader steps over a key without building it: a private
        // key whose factors do not multiply to its modulus, which the parser
        // refuses, still has its exact length read off.
        let mut dispatch = encode(&sample_msgs()[0]).unwrap();
        *dispatch.last_mut().unwrap() ^= 2;
        assert!(decode(&dispatch).is_err_and(|e| e.to_string().contains("multiply")));
        let envelope = &dispatch[TAG_BYTES..];
        assert_eq!(envelope_len(envelope), Some(envelope.len()));
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

    /// 64 seeded `TEST_KEY_BITS` keypairs, every eighth over unbalanced
    /// primes.
    fn seeded_keypairs() -> Vec<Keypair> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        (0..64)
            .map(|i| match i % 8 {
                0 => unbalanced_keypair(&mut rng),
                _ => Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng),
            })
            .collect()
    }

    #[test]
    fn binary_encode_size_hint_covers_every_payload_in_one_allocation() {
        // The hint is the payload's exact length for every message — what a
        // write queue fixes a frame's header from before encoding a byte of
        // it — key dispatches included, whose primes may encode a byte short
        // of half the modulus.
        let keypairs = seeded_keypairs();
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
            // The length reader reads off each envelope's bytes the count the
            // write walk makes of it.
            let (mut at, envelopes) = match &msg {
                WireMsg::Envelope { envelope } => (TAG_BYTES, std::slice::from_ref(envelope)),
                _ => (BATCH_HEAD_BYTES, batch(&msg)),
            };
            for envelope in envelopes {
                let mut count = 0;
                if let Some(Tail::Vector(vector)) = envelope.put(&mut count) {
                    count += he::encoded_vector_bytes(vector);
                }
                assert_eq!(envelope_len(&payload[at..]), Some(count), "{msg:?}");
                at += count;
            }
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
    fn every_message_encodes_to_its_committed_digest() {
        // Each payload's SHA-256 and length, one line per message of the
        // sample set, the broadcast batches and the seeded key dispatches:
        // a change to the codec that moves a byte of any of them shows here,
        // named. The expected lines are the committed
        // `tests/fixtures/dbh2_payloads.txt`; on a mismatch the computed ones
        // are written beside the build's output for the diff.
        let named = |set: &'static str, msgs: Vec<WireMsg>| {
            let msgs = msgs.into_iter().enumerate();
            msgs.map(move |(i, msg)| (format!("{set} {i}"), msg))
        };
        let keypairs = seeded_keypairs();
        let dispatches = keypairs.iter().flat_map(key_dispatches).collect();
        let computed: Vec<String> = named("sample", sample_msgs())
            .chain(named("broadcast", broadcast_batches()))
            .chain(named("dispatch", dispatches))
            .map(|(name, msg)| {
                let payload = encode(&msg).unwrap();
                let digest = mini_crypto::sha256(&payload);
                let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
                format!("{name} {hex} {}", payload.len())
            })
            .collect();
        let committed: Vec<&str> = include_str!("../../tests/fixtures/dbh2_payloads.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .collect();
        if let Some(at) = (0..committed.len().max(computed.len()))
            .find(|&i| committed.get(i).copied() != computed.get(i).map(String::as_str))
        {
            let exe = std::env::current_exe().unwrap();
            let tmp = exe.ancestors().nth(3).unwrap().join("tmp");
            std::fs::create_dir_all(&tmp).unwrap();
            let written = tmp.join("dbh2_payloads.txt");
            std::fs::write(&written, computed.join("\n") + "\n").unwrap();
            panic!(
                "message {at} differs: committed {:?}, computed {:?} (all computed lines \
                 written to {})",
                committed.get(at),
                computed.get(at),
                written.display()
            );
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
