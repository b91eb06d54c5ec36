//! Both directions of a non-blocking socket's byte stream: incremental
//! frame reassembly on the way in ([`FrameBuffer`]), one bounded write queue
//! on the way out ([`WriteQueue`], which encodes its frames a chunk, or
//! seals them a record, ahead of each write) — the byte-level halves of a
//! [`Connection`](super::connection::Connection).
//!
//! An event loop gets bytes in whatever slices the kernel delivers (a
//! header split across two reads, a byte-at-a-time slow-loris, three
//! pipelined frames in one burst) and must never block. [`FrameBuffer`] is
//! fed raw bytes as they arrive, and complete [`WireMsg`]s are pulled out as
//! they become parseable; a blocking reader feeds it the same way, a read
//! at a time. A header is validated here and nowhere else (`check_header`):
//! the magic once 4 bytes are in, the announced length against the ceiling
//! once 8 are, *before* a payload byte is buffered — so a hostile header is
//! refused after at most 8 bytes, with a typed [`ProtocolError`].
//!
//! A batch is decoded while it arrives, an envelope at a time (the codec's
//! `PayloadDecoder`), each envelope's bytes dropped once decoded; on a
//! channel the decoding reads only the records opened so far. So the buffer
//! holds about an envelope (and a record) of a registration broadcast, not
//! the frame, and no announced length is reserved ahead of its bytes.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, Write};

use super::channel::{
    channel_ceiling, sealed_frame_len, Records, SecureChannel, FRAME_MAGIC_HANDSHAKE,
    FRAME_MAGIC_SEALED,
};
use super::codec::{
    decode, payload_size_hint, PayloadDecoder, PayloadEncoder, RegistryFrame, BATCH_TAG,
};
use super::wire::{LazyMsg, WireMsg, FRAME_MAGIC_V2};
use crate::error::ProtocolError;
use mini_crypto::TAG_LEN;

/// Magic (4) + big-endian payload length (4).
const HEADER_BYTES: usize = 8;

/// Bytes of already-consumed prefix tolerated before a queue compacts.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// One sealed record — a sealed frame is produced a slice ahead of what its
/// sink has taken, since a record's tag needs all of it — and what one
/// [`WriteQueue::flush_slice`] writes, of a frame of either kind. The same
/// 256 KiB as the reactor's per-readiness read budget, so a connection's
/// share of a loop turn is bounded the same way in both directions.
pub const SEAL_SLICE: usize = 256 * 1024;

/// What a socket is read in and a bare frame is written in: every driver's
/// read buffer, and how far a write queue encodes a bare frame ahead of
/// what its sink has taken.
pub const CHUNK: usize = 16 * 1024;

/// Drops the consumed prefix `buf[..*pos]` of a byte queue when that is free
/// (nothing is left behind it) or amortised: at least [`COMPACT_THRESHOLD`]
/// consumed bytes **and** no more bytes left to move than were consumed
/// since the last compaction. Over any sequence of appends and partial
/// consumptions the bytes moved therefore never exceed the bytes consumed —
/// a multi-megabyte frame draining through a slow socket is not shifted
/// down once per `WouldBlock`.
fn compact(buf: &mut Vec<u8>, pos: &mut usize) {
    if *pos == buf.len() {
        buf.clear();
        *pos = 0;
    } else if *pos >= COMPACT_THRESHOLD && *pos >= buf.len() - *pos {
        buf.drain(..*pos);
        *pos = 0;
    }
}

/// The outgoing byte queue of one connection — every driver's, since it is
/// the [`Connection`](super::connection::Connection)'s, so there is one
/// write loop and one compaction rule.
///
/// Frames are queued behind whatever is still unwritten
/// ([`Connection::queue`](super::connection::Connection::queue), and the
/// handshake's own messages) and leave through [`flush`](Self::flush) in as
/// few `write` calls as the sink and the window allow. Queueing and writing
/// are separate on purpose — an owner that answers sixteen requests in one
/// loop turn pushes sixteen times and flushes once.
///
/// A pushed frame is checked, sized and, on a channel, given its sequence
/// number at once, but its bytes are produced — encoded and, on a channel,
/// sealed — at flush time, a window ahead of what the sink has taken (a
/// `FrameProducer` each): a [`CHUNK`] for a bare frame, a [`SEAL_SLICE`]
/// record for a sealed one. Only that produced prefix of the queue is ever
/// offered to a sink, so the queue holds a chunk of a bare frame and about
/// two slices of a sealed one, not the frame. A multi-megabyte reply starts
/// leaving after its first window rather than its last, is encoded, sealed
/// and written while still in cache, and an event loop that writes one
/// slice per connection per turn ([`flush_slice`](Self::flush_slice))
/// keeps serving its other connections in between. Bytes not produced yet
/// are pending like any other — they hold a close-after-flush back and
/// count against a high-water mark — but only bytes a sink refused mean a
/// peer that stopped reading.
#[derive(Default)]
pub struct WriteQueue {
    /// Produced bytes from the first unwritten one on, behind `pos`; the
    /// front frame's unsealed ones at the end.
    buf: Vec<u8>,
    /// Start of the unwritten suffix in `buf`.
    pos: usize,
    /// Bytes ever queued / ever accepted by a sink: cumulative stream
    /// offsets, so an owner can tell when a given frame has left completely
    /// after any number of partial writes.
    queued_total: u64,
    written_total: u64,
    /// Ciphertext bytes ever sealed.
    sealed_total: u64,
    /// What is queued behind `buf`, oldest first: frames not produced to
    /// their end (only the front one begun) and raw bytes pushed behind
    /// them.
    producing: VecDeque<Queued>,
}

// Nearly every entry is a frame: boxing it would cost an allocation per
// frame to shrink the rare raw entry.
#[allow(clippy::large_enum_variant)]
enum Queued {
    Frame(FrameProducer<'static>),
    Raw(Vec<u8>),
}

/// Room reserved past a slice for what a production step may overshoot it
/// by: a piece's fields, a frame's headers and tag.
const PRODUCE_SLACK: usize = 256;

impl std::fmt::Debug for WriteQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteQueue")
            .field("pending", &self.pending())
            .field("unproduced", &self.unproduced())
            .finish_non_exhaustive()
    }
}

impl WriteQueue {
    /// Bytes queued but not yet accepted by a sink, produced or not.
    pub fn pending(&self) -> usize {
        (self.queued_total - self.written_total) as usize
    }

    /// The part of [`pending`](Self::pending) not final yet — not encoded,
    /// or on a channel not sealed — which no sink has been offered.
    pub fn unproduced(&self) -> usize {
        self.pending() - (self.final_end() - self.pos)
    }

    /// Cumulative bytes ever queued.
    pub fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// Cumulative bytes ever accepted by a sink.
    pub fn written_total(&self) -> u64 {
        self.written_total
    }

    /// Cumulative ciphertext bytes ever sealed.
    pub fn sealed_total(&self) -> u64 {
        self.sealed_total
    }

    /// End of the final bytes in `buf`: all of it but the front frame's
    /// unsealed tail.
    fn final_end(&self) -> usize {
        match self.producing.front() {
            Some(Queued::Frame(frame)) => self.buf.len() - frame.unsealed(),
            _ => self.buf.len(),
        }
    }

    /// Appends pre-encoded bytes (handshake messages), behind every frame
    /// queued before them.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.producing.is_empty() {
            self.buf.extend_from_slice(bytes);
        } else {
            self.producing.push_back(Queued::Raw(bytes.to_vec()));
        }
        self.queued_total += bytes.len() as u64;
    }

    /// Queues one frame and returns its size on the wire; on a channel the
    /// frame takes its sequence number now. Its bytes are produced as it is
    /// flushed. A message that does not encode, or is over the ceiling,
    /// leaves the queue (and the channel's send sequence) exactly as it
    /// was; see [`append_frame`](super::channel::append_frame).
    pub(crate) fn push_frame(
        &mut self,
        msg: WireMsg,
        max_frame_bytes: usize,
        channel: Option<&mut SecureChannel>,
    ) -> Result<usize, ProtocolError> {
        let frame = FrameProducer::new(Cow::Owned(msg), max_frame_bytes, channel)?;
        let len = frame.wire_len();
        self.producing.push_back(Queued::Frame(frame));
        self.queued_total += len as u64;
        Ok(len)
    }

    /// Frees the buffer and the list of frames behind it once everything
    /// queued has been written — for an owner that waits on its peer
    /// between frames and should not hold the largest frame it ever sent
    /// across that wait.
    pub(crate) fn release(&mut self) {
        if self.pending() == 0 {
            self.buf = Vec::new();
            self.pos = 0;
            self.producing = VecDeque::new();
        }
    }

    /// Produces up to one window more, and no more than `share`, stopping
    /// when a window of final bytes waits unwritten; returns how many bytes
    /// it made final. Room is made first: the written prefix is dropped
    /// when the buffer would otherwise have to grow (a move of fewer bytes
    /// than the reallocation it saves would copy).
    fn produce_ahead(&mut self, share: usize) -> usize {
        // A sealed frame is produced a record ahead, since its tag needs
        // all of it; anything else a chunk.
        let window = match self.producing.front() {
            Some(Queued::Frame(frame)) if frame.seal.is_some() => SEAL_SLICE,
            Some(_) => CHUNK,
            None => return 0,
        };
        let lead = self.final_end() - self.pos;
        let mut budget = window.saturating_sub(lead).min(share);
        // What a step overshoots by — a piece's fields, a record's header
        // and tag — can take the lead past a window.
        if budget == 0 {
            return 0;
        }
        // Where production can end, from `pos`: a window past it and a
        // piece's fields more, or the end of the queue.
        let end = lead + (budget + PRODUCE_SLACK).min(self.pending() - lead);
        if self.pos == self.buf.len() || self.buf.capacity() < self.pos + end {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf
            .reserve((self.pos + end).saturating_sub(self.buf.len()));
        let mut made = 0;
        while let Some(front) = self.producing.front_mut() {
            match front {
                Queued::Raw(bytes) => {
                    self.buf.extend_from_slice(bytes);
                    budget = budget.saturating_sub(bytes.len());
                    made += bytes.len();
                }
                Queued::Frame(frame) => {
                    let (turned, sealed) = frame.produce(&mut self.buf, budget);
                    budget = budget.saturating_sub(turned);
                    made += turned;
                    self.sealed_total += sealed as u64;
                    if !frame.is_done() {
                        return made;
                    }
                }
            }
            self.producing.pop_front();
        }
        made
    }

    /// Offers the final, unwritten bytes to `sink` until it has taken them
    /// all (`Ok(true)`), takes none or would block (`Ok(false)`).
    fn write_final(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        let end = self.final_end();
        while self.pos < end {
            match sink.write(&self.buf[self.pos..end]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.pos += n;
                    self.written_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Produces a window and offers it, with whatever else is final, to
    /// `sink`, over and over until the sink has taken everything, takes
    /// none, or would block; then reclaims the written prefix by the
    /// amortised `compact` rule. A hard I/O error is returned after the
    /// bytes written before it have been accounted for.
    pub fn flush(&mut self, sink: &mut impl Write) -> io::Result<()> {
        self.flush_share(usize::MAX, sink)
    }

    /// [`flush`](Self::flush) with one slice of production at most: an
    /// event loop's once-a-turn write, which leaves the rest of a large
    /// frame to later turns (the queue's [`unproduced`](Self::unproduced)
    /// says how much). A sealed frame's window is the slice, so its turn is
    /// one step; a bare frame's slice is produced and written a chunk at a
    /// time.
    pub fn flush_slice(&mut self, sink: &mut impl Write) -> io::Result<()> {
        self.flush_share(SEAL_SLICE.saturating_sub(self.final_end() - self.pos), sink)
    }

    /// [`flush`](Self::flush), producing no more than `share` bytes. A step
    /// that neither produces nor writes a byte — a record that needs more
    /// share than is left — ends it too.
    fn flush_share(&mut self, mut share: usize, sink: &mut impl Write) -> io::Result<()> {
        let outcome = loop {
            let written = self.written_total;
            let made = self.produce_ahead(share);
            share -= made.min(share);
            let outcome = self.write_final(sink);
            let moved = made > 0 || self.written_total > written;
            match outcome {
                Ok(true) if share > 0 && moved && !self.producing.is_empty() => continue,
                outcome => break outcome,
            }
        };
        compact(&mut self.buf, &mut self.pos);
        outcome.map(drop)
    }

    /// Holds the queue to its bound after a push. At or under `high_water`
    /// pending bytes nothing happens — the owner's once-a-turn flush will
    /// take them (`Ok(false)`). Past it the bytes are produced and offered
    /// to `sink` at once, for as long as it takes them (`Ok(true)`), and a
    /// queue the sink does not bring back under the mark belongs to a peer
    /// that stopped reading: [`ProtocolError::Backpressure`]. Checked after
    /// every push, this keeps the queue within `high_water` plus the one
    /// frame just queued.
    pub fn hold_to(
        &mut self,
        high_water: usize,
        sink: &mut impl Write,
    ) -> Result<bool, ProtocolError> {
        if self.pending() <= high_water {
            return Ok(false);
        }
        self.flush(sink).map_err(|e| ProtocolError::Io {
            context: "write frame",
            detail: e.to_string(),
        })?;
        let queued = self.pending();
        if queued > high_water {
            return Err(ProtocolError::Backpressure { queued, high_water });
        }
        Ok(true)
    }
}

/// One wire frame — bare, or sealed on a channel — produced into the end of
/// a byte queue a piece at a time. [`new`](Self::new) does everything that
/// can fail: it checks the message encodes, fixes the frame's length against
/// the ceiling and, on a channel, takes its sequence number. Each
/// [`produce`](Self::produce) encodes the next bytes and seals each record
/// once its last plaintext byte is in, its tag right behind it. The bytes
/// are those of the whole frame built at once, however they are cut.
pub(crate) struct FrameProducer<'a> {
    payload: PayloadEncoder<'a>,
    /// What goes in front of the payload and is not out yet: on a channel
    /// the `DBHE` header, then the (inner) `DBH2` header.
    head: Option<([u8; 16], usize)>,
    /// The records on a channel, until the last tag is out.
    seal: Option<Records>,
    /// Bytes at the end of the queue this frame has encoded and not sealed:
    /// the current record's so far.
    unsealed: usize,
    wire_len: usize,
}

impl<'a> FrameProducer<'a> {
    /// Takes `msg` to be produced as one frame, or refuses it — it does not
    /// encode, or its payload exceeds `max_frame_bytes` — with the channel's
    /// send sequence untouched.
    pub(crate) fn new(
        msg: Cow<'a, WireMsg>,
        max_frame_bytes: usize,
        channel: Option<&mut SecureChannel>,
    ) -> Result<Self, ProtocolError> {
        let len = payload_size_hint(&msg);
        let wire_len = match channel {
            Some(_) => sealed_frame_len(8 + len),
            None => 8 + len,
        };
        // A frame announces what follows its header in a u32 of its own.
        if len > max_frame_bytes || u32::try_from(wire_len - 8).is_err() {
            return Err(ProtocolError::FrameTooLarge {
                len,
                max: max_frame_bytes,
            });
        }
        let payload = PayloadEncoder::new(msg)?;
        let seal = channel.map(|channel| channel.seal_records(8 + len));
        let mut head = [0u8; 16];
        let at = match &seal {
            Some(records) => {
                head[..8].copy_from_slice(&records.header);
                8
            }
            None => 0,
        };
        head[at..at + 4].copy_from_slice(&FRAME_MAGIC_V2);
        head[at + 4..at + 8].copy_from_slice(&(len as u32).to_be_bytes());
        Ok(FrameProducer {
            payload,
            head: Some((head, at + 8)),
            seal,
            unsealed: 0,
            wire_len,
        })
    }

    /// The frame's size on the wire, seal included.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Bytes at the end of the queue this frame has put there but not
    /// sealed: not final yet.
    pub(crate) fn unsealed(&self) -> usize {
        self.unsealed
    }

    /// True once every byte of the frame is in the queue, final.
    pub(crate) fn is_done(&self) -> bool {
        self.head.is_none() && self.payload.remaining() == 0 && self.seal.is_none()
    }

    /// Appends the frame's next bytes to `out` — whose last
    /// [`unsealed`](Self::unsealed) bytes are this frame's, and count
    /// against `budget` — until `budget` more are in or the whole frame is;
    /// returns how many turned final, and how many of those are ciphertext.
    pub(crate) fn produce(&mut self, out: &mut Vec<u8>, budget: usize) -> (usize, usize) {
        let final_end = out.len() - self.unsealed;
        if let Some((head, len)) = self.head.take() {
            out.extend_from_slice(&head[..len]);
            // On a channel the inner header is record 0's first plaintext.
            if self.seal.is_some() {
                self.unsealed += 8;
            }
        }
        let room = |out: &Vec<u8>| budget.saturating_sub(out.len() - final_end);
        let Some(records) = self.seal.as_mut() else {
            self.payload.encode(out, room(out));
            return (out.len() - final_end, 0);
        };
        let mut sealed = 0;
        loop {
            let record = records.next_len();
            if self.unsealed < record {
                let before = out.len();
                self.payload
                    .encode(out, (record - self.unsealed).min(room(out)));
                self.unsealed += out.len() - before;
                if self.unsealed < record {
                    break;
                }
            }
            // The record's last byte is in (with perhaps a piece's fields
            // past it): seal it and put its tag right behind it.
            let at = out.len() - self.unsealed;
            let tag = records.seal(&mut out[at..at + record]);
            out.extend_from_slice(&tag);
            out[at + record..].rotate_right(TAG_LEN);
            self.unsealed -= record;
            sealed += record;
            if records.is_done() {
                self.seal = None;
                break;
            }
        }
        (out.len() - self.unsealed - final_end, sealed)
    }
}

/// Reassembles length-prefixed frames from arbitrary byte slices. One per
/// connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unparsed suffix in `buf`.
    pos: usize,
    /// On a channel, the bytes at the end of `buf` not opened yet; a pull
    /// reads only the plaintext in front of them.
    sealed: Option<usize>,
    /// The plaintext batch being decoded as it arrives: its header and the
    /// envelopes already decoded are behind `pos`.
    decoding: Option<PayloadDecoder>,
}

/// Room made past a record and the plaintext in front of it, for a larger
/// undecoded rest of an envelope in front of a later record.
const RECORD_SLACK: usize = 8 * 1024;

/// Validates the header at the front of `avail` — the magic once 4 bytes are
/// in, the length against the ceiling once 8 are — and returns both.
/// `channel` admits `DBHS` and `DBHE`, and a channel's ceiling.
pub(crate) fn check_header(
    avail: &[u8],
    max_frame_bytes: usize,
    channel: bool,
) -> Result<Option<([u8; 4], usize)>, ProtocolError> {
    if avail.len() < 4 {
        return Ok(None);
    }
    let magic = [avail[0], avail[1], avail[2], avail[3]];
    let known = magic == FRAME_MAGIC_V2
        || (channel && (magic == FRAME_MAGIC_HANDSHAKE || magic == FRAME_MAGIC_SEALED));
    if !known {
        let expected = if channel {
            "DBH2, DBHS or DBHE"
        } else {
            "DBH2"
        };
        return Err(ProtocolError::MalformedFrame {
            detail: format!("bad magic {magic:02x?}, expected {expected}"),
        });
    }
    if avail.len() < HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
    let ceiling = if channel {
        channel_ceiling(max_frame_bytes)
    } else {
        max_frame_bytes
    };
    if len > ceiling {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    Ok(Some((magic, len)))
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// End of the plaintext a pull may read.
    fn end(&self) -> usize {
        self.buf.len() - self.sealed.unwrap_or(0)
    }

    /// Appends bytes read off the socket. When they do not fit, the
    /// consumed prefix is dropped first (a move of fewer bytes than the
    /// reallocation it saves would copy) and the buffer grows only then:
    /// it doubles, but never to more than [`SEAL_SLICE`] past the bytes it
    /// holds.
    pub fn extend(&mut self, bytes: &[u8]) {
        compact(&mut self.buf, &mut self.pos);
        if self.buf.capacity() - self.buf.len() < bytes.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
            let held = self.buf.len() + bytes.len();
            if self.buf.capacity() < held {
                let doubled = (2 * self.buf.capacity()).max(held);
                let grown = doubled.min(held + SEAL_SLICE);
                self.buf.reserve_exact(grown - self.buf.len());
            }
        }
        self.buf.extend_from_slice(bytes);
        if let Some(sealed) = &mut self.sealed {
            *sealed += bytes.len();
        }
    }

    /// Bytes received but not yet consumed by a complete frame — a batch's
    /// decoded envelopes, dropped already, included.
    pub fn pending_bytes(&self) -> usize {
        let decoded = self
            .decoding
            .as_ref()
            .map_or(0, |decoder| HEADER_BYTES + decoder.decoded());
        self.buf.len() - self.pos + decoded
    }

    /// True if a frame has started arriving but is not complete yet — the
    /// state in which a peer cutting off (or stalling past the read
    /// timeout) means a *truncated* frame rather than a clean close.
    pub fn is_mid_frame(&self) -> bool {
        self.pending_bytes() > 0
    }

    /// Frees the buffer once it holds nothing, for an owner that waits on
    /// its peer between frames.
    pub(crate) fn release(&mut self) {
        if self.pending_bytes() == 0 {
            self.buf = Vec::new();
            self.pos = 0;
        }
    }

    /// An empty buffer for a channel's bytes, read only once opened.
    pub(crate) fn channel() -> Self {
        FrameBuffer {
            sealed: Some(0),
            ..Self::default()
        }
    }

    /// On a channel, between frames: the next frame's magic and length,
    /// once its header is in and valid.
    pub(crate) fn channel_header(
        &self,
        max_frame_bytes: usize,
    ) -> Result<Option<([u8; 4], usize)>, ProtocolError> {
        check_header(&self.buf[self.end()..], max_frame_bytes, true)
    }

    /// On a channel, between frames: takes the next `len` bytes — a sealed
    /// frame's header, a whole handshake frame — once they are in.
    pub(crate) fn take(&mut self, len: usize) -> Option<&[u8]> {
        let start = self.end();
        if self.buf.len() < start + len {
            return None;
        }
        self.pos = start + len;
        *self.sealed.as_mut().expect("a channel's bytes") -= len;
        Some(&self.buf[start..start + len])
    }

    /// Opens each of `records` that is in whole, in place, and puts its
    /// plaintext behind what a pull reads, its tag dropped.
    pub(crate) fn open_records(&mut self, records: &mut Records) -> Result<(), ProtocolError> {
        while !records.is_done() {
            let (start, len) = (self.end(), records.next_len() + TAG_LEN);
            let Some(record) = self.buf.get_mut(start..start + len) else {
                break;
            };
            records.open(record)?;
            // Drop the tag moving the fewer bytes: those in front, or behind.
            let tag = start + len - TAG_LEN;
            if tag - self.pos <= self.buf.len() - (tag + TAG_LEN) {
                self.buf.copy_within(self.pos..tag, self.pos + TAG_LEN);
                self.pos += TAG_LEN;
            } else {
                self.buf.drain(tag..tag + TAG_LEN);
            }
            *self.sealed.as_mut().expect("a channel's bytes") -= len;
        }
        Ok(())
    }

    /// Reserves room, once, for a `len`-byte record behind undecoded plaintext.
    pub(crate) fn reserve_record(&mut self, len: usize) {
        let need = self.end() - self.pos + len;
        if self.buf.capacity() - self.pos < need {
            self.buf.drain(..self.pos);
            self.pos = 0;
            if self.buf.capacity() < need {
                let room = need + RECORD_SLACK;
                self.buf.reserve_exact(room.saturating_sub(self.buf.len()));
            }
        }
    }

    /// Bytes not opened yet, on a channel.
    pub(crate) fn unopened(&self) -> usize {
        self.sealed.unwrap_or(0)
    }

    /// Pulls the next plaintext frame once it is complete, registry uploads
    /// *undecoded* as [`LazyMsg::DeferredRegistry`] — the router folds
    /// their ciphertext block straight out of the payload bytes instead of
    /// materialising per-element bignums on the event loop. Every other
    /// frame decodes with identical validation and errors.
    ///
    /// A batch is decoded while it arrives, from its first payload byte on:
    /// each envelope as soon as all of it is in, its bytes then left behind
    /// as consumed, so the buffer holds about one envelope of a
    /// registration broadcast, not the frame; the message is released whole
    /// when its last envelope is in. Any other frame is decoded where it
    /// lies once whole. The deferral check runs on the borrowed buffer; only
    /// a recognised registry's payload is copied out (and when the frame is
    /// the buffer's sole content, the buffer itself is taken — no copy).
    pub fn next_frame_lazy(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(LazyMsg, usize)>, ProtocolError> {
        if self.decoding.is_none() {
            // No announced length is reserved: the buffer grows as bytes land.
            let avail = &self.buf[self.pos..self.end()];
            let Some((_, len)) = check_header(avail, max_frame_bytes, false)? else {
                return Ok(None);
            };
            if avail.len() >= HEADER_BYTES + len {
                return self.whole_frame_lazy(len).map(Some);
            }
            if avail.get(HEADER_BYTES) != Some(&BATCH_TAG) {
                return Ok(None);
            }
            self.pos += HEADER_BYTES;
            self.decoding = Some(PayloadDecoder::new(len));
        }
        let end = self.end();
        let decoder = self.decoding.as_mut().expect("a batch being decoded");
        let (taken, msg) = decoder.decode(&self.buf[self.pos..end])?;
        self.pos += taken;
        let Some(msg) = msg else {
            return Ok(None);
        };
        let total = HEADER_BYTES + decoder.len();
        self.decoding = None;
        Ok(Some((LazyMsg::Eager(msg), total)))
    }

    /// Decodes the whole plaintext frame at the front, whose header
    /// `check_header` passed with a `len`-byte payload. A registry upload
    /// comes back undecoded, its payload copied out — or, when the frame is
    /// the buffer's whole content, the buffer itself taken, its header
    /// shaved: zero copies of the (dominant) ciphertext block.
    fn whole_frame_lazy(&mut self, len: usize) -> Result<(LazyMsg, usize), ProtocolError> {
        let total = HEADER_BYTES + len;
        let start = self.pos + HEADER_BYTES;
        let payload = &self.buf[start..start + len];
        let msg = match RegistryFrame::parse_prefix(payload) {
            Some(prefix) if self.pos == 0 && self.buf.len() == total => {
                let mut taken = std::mem::take(&mut self.buf);
                taken.drain(..HEADER_BYTES);
                return Ok((LazyMsg::DeferredRegistry(prefix.with_payload(taken)), total));
            }
            Some(prefix) => LazyMsg::DeferredRegistry(prefix.with_payload(payload.to_vec())),
            None => LazyMsg::Eager(decode(payload)?),
        };
        self.pos += total;
        Ok((msg, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::channel::{append_frame, SEALED_FRAME_OVERHEAD};

    /// The next complete frame, registry uploads decoded too.
    fn next_frame(
        fb: &mut FrameBuffer,
        max_frame_bytes: usize,
    ) -> Result<Option<(WireMsg, usize)>, ProtocolError> {
        let Some((msg, bytes)) = fb.next_frame_lazy(max_frame_bytes)? else {
            return Ok(None);
        };
        Ok(Some((msg.force()?, bytes)))
    }

    fn encode(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(&mut out, msg, usize::MAX, None).unwrap();
        out
    }

    #[test]
    fn reassembles_byte_at_a_time_and_pipelined_frames() {
        let a = encode(&WireMsg::Ack);
        let b = encode(&WireMsg::CloseRegistration);
        let mut fb = FrameBuffer::new();
        // Slow-loris: one byte per feed, frame completes only on the last.
        for &byte in &a {
            assert!(next_frame(&mut fb, 1024).is_ok());
            fb.extend(&[byte]);
        }
        let (msg, bytes) = next_frame(&mut fb, 1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(bytes, a.len());
        assert!(!fb.is_mid_frame());
        // Two pipelined frames in one burst.
        let mut burst = b.clone();
        burst.extend_from_slice(&a);
        fb.extend(&burst);
        let (msg, _) = next_frame(&mut fb, 1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::CloseRegistration));
        assert!(fb.is_mid_frame());
        let (msg, _) = next_frame(&mut fb, 1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(next_frame(&mut fb, 1024).unwrap(), None);
    }

    #[test]
    fn bad_magic_and_oversized_length_fail_fast() {
        // The retired JSON magic is as unknown as any other.
        for magic in [b"HTTP", b"DBH1"] {
            let mut fb = FrameBuffer::new();
            fb.extend(magic);
            assert!(matches!(
                next_frame(&mut fb, 1024),
                Err(ProtocolError::MalformedFrame { .. })
            ));
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_V2);
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(
            next_frame(&mut fb, 1024),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn header_split_across_feeds_waits_for_completion() {
        let frame = encode(&WireMsg::Ack);
        let mut fb = FrameBuffer::new();
        fb.extend(&frame[..3]); // partial magic
        assert_eq!(next_frame(&mut fb, 1024).unwrap(), None);
        assert!(fb.is_mid_frame());
        fb.extend(&frame[3..6]); // magic complete, length partial
        assert_eq!(next_frame(&mut fb, 1024).unwrap(), None);
        fb.extend(&frame[6..]);
        assert!(next_frame(&mut fb, 1024).unwrap().is_some());
    }

    fn registry_msg() -> WireMsg {
        use crate::protocol::{Envelope, Party, ProtocolMsg};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let kp = dubhe_he::Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(4),
                to: Party::Server,
                epoch: 2,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: 4,
                    registry: dubhe_he::EncryptedVector::encrypt_u64(
                        &kp.public,
                        &[1, 0, 2],
                        &mut rng,
                    ),
                },
            },
        }
    }

    #[test]
    fn lazy_pull_defers_registries_in_every_buffer_shape() {
        let registry = registry_msg();
        let frame = encode(&registry);
        let max = frame.len() * 4;

        // Sole content of the buffer: the zero-copy take path.
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        let (lazy, bytes) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert_eq!(bytes, frame.len());
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);
        assert!(!fb.is_mid_frame());

        // Byte-at-a-time: defers only once the frame completes.
        let mut fb = FrameBuffer::new();
        for &byte in &frame {
            assert!(fb.next_frame_lazy(max).unwrap().is_none());
            fb.extend(&[byte]);
        }
        let (lazy, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert_eq!(lazy.force().unwrap(), registry);

        // Pipelined behind and ahead of eager frames: the registry mid-
        // buffer takes the copy path, neighbours stay eager, order holds.
        let ack = encode(&WireMsg::Ack);
        let mut fb = FrameBuffer::new();
        fb.extend(&ack);
        fb.extend(&frame);
        fb.extend(&ack);
        let (lazy, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Ack)));
        let (lazy, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);
        let (lazy, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Ack)));
        assert!(fb.next_frame_lazy(max).unwrap().is_none());
    }

    #[test]
    fn channel_pull_classifies_every_magic_and_keeps_the_error_contract() {
        use crate::protocol::channel::handshake_frame;

        // A handshake frame, a sealed frame's header and a plaintext frame
        // pipelined in one burst classify in order, byte-at-a-time included:
        // each header once whole, each frame taken once in.
        let hs = handshake_frame(&[7u8; 64]);
        let sealed = [&FRAME_MAGIC_SEALED[..], &24u32.to_be_bytes()].concat();
        let plain = encode(&WireMsg::Ack);
        let burst = [&hs[..], &sealed, &plain].concat();

        let mut fb = FrameBuffer::channel();
        for &byte in &burst[..8] {
            assert!(fb.channel_header(1024).unwrap().is_none());
            fb.extend(&[byte]);
        }
        let header = fb.channel_header(1024).unwrap();
        assert_eq!(header, Some((FRAME_MAGIC_HANDSHAKE, 64)));
        assert!(fb.take(hs.len()).is_none(), "the payload is not in yet");
        fb.extend(&burst[8..]);
        assert_eq!(fb.take(hs.len()), Some(&hs[..]));
        let header = fb.channel_header(1024).unwrap();
        assert_eq!(header, Some((FRAME_MAGIC_SEALED, 24)));
        assert_eq!(fb.take(8), Some(&sealed[..]));
        let header = fb.channel_header(1024).unwrap();
        assert_eq!(header, Some((FRAME_MAGIC_V2, plain.len() - 8)));
        assert_eq!(fb.take(plain.len()), Some(&plain[..]));
        assert!(fb.channel_header(1024).unwrap().is_none());
        assert!(!fb.is_mid_frame());

        // Unknown magic refused after 4 bytes; a sealed frame may exceed the
        // inner ceiling by exactly the seal, but no more.
        let mut fb = FrameBuffer::channel();
        fb.extend(b"HTTP");
        assert!(matches!(
            fb.channel_header(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
        // (An inner ceiling of 128: below about 100 bytes the longest
        // handshake message sets the channel's ceiling instead.)
        let mut fb = FrameBuffer::channel();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((128 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(fb.channel_header(128).unwrap().is_some()); // exactly at ceiling
        let mut fb = FrameBuffer::channel();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((129 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(matches!(
            fb.channel_header(128),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    /// A nonblocking socket as the write queue sees one: takes `room` more
    /// bytes, then would block. Records what it was given and how often it
    /// was asked.
    #[derive(Default)]
    struct Sink {
        seen: Vec<u8>,
        room: usize,
        writes: usize,
    }

    impl Sink {
        fn with_room(room: usize) -> Self {
            Sink {
                room,
                ..Sink::default()
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.room);
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.seen.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn compaction_never_moves_more_bytes_than_were_consumed() {
        // A write queue is appended to and drained through `flush` into a
        // sink that takes an arbitrary share and then blocks (the same rule
        // serves a reassembly buffer meeting partial frames). Whatever the
        // split sequence, the bytes the compaction shifts down stay within
        // the bytes written so far, the queue's content is preserved, and a
        // fully written queue is emptied for free.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        for scale in [1usize, 1 << 9, 1 << 13, 1 << 16] {
            let mut queue = WriteQueue::default();
            let mut sink = Sink::default();
            let (mut appended, mut moved) = (0usize, 0usize);
            for _ in 0..200 {
                let grow = next(4 * scale);
                let bytes: Vec<u8> = (appended..appended + grow).map(|i| i as u8).collect();
                queue.push(&bytes);
                appended += grow;
                sink.room = next(queue.pending() + 1);
                let uncompacted = queue.pos + sink.room;
                queue.flush(&mut sink).unwrap();
                let consumed = sink.seen.len();
                if queue.pos != uncompacted {
                    assert_eq!(queue.pos, 0);
                    moved += queue.buf.len();
                }
                if queue.pending() == 0 {
                    assert!(queue.buf.is_empty(), "a drained queue is cleared");
                }
                assert!(moved <= consumed, "moved {moved} > consumed {consumed}");
                assert_eq!(queue.pending(), appended - consumed);
                assert_eq!(
                    (queue.queued_total(), queue.written_total()),
                    (appended as u64, consumed as u64)
                );
                assert_eq!(
                    queue.buf[queue.pos..].first().copied(),
                    (consumed < appended).then_some(consumed as u8)
                );
            }
            let expect = (0..appended).map(|i| i as u8);
            let through = sink.seen.iter().chain(&queue.buf[queue.pos..]).copied();
            assert!(through.eq(expect), "content kept, in order");
            // Not vacuous: small queues never pay a move, large ones do.
            assert!(if scale == 1 {
                moved == 0
            } else {
                scale < 1 << 16 || moved > 0
            });
        }
        // An 8 MiB request leaving through a socket that takes 200 KiB a
        // write: draining on every partial write past the threshold would
        // move ≈ 160 MiB, reclaiming only once the queue is empty (what the
        // multiplexer's own flush loop used to do) would hold all 8 MiB to
        // the end; the amortised rule moves at most the 8.
        let mut queue = WriteQueue::default();
        queue.push(&vec![0u8; 8 << 20]);
        let (mut moved, mut compactions) = (0usize, 0usize);
        while queue.pending() > 0 {
            let uncompacted = queue.pos + (200 << 10).min(queue.pending());
            queue.flush(&mut Sink::with_room(200 << 10)).unwrap();
            if queue.pos != uncompacted && !queue.buf.is_empty() {
                moved += queue.buf.len();
                compactions += 1;
            }
        }
        assert!(moved <= 8 << 20, "moved {moved} bytes draining 8 MiB");
        assert!(
            compactions > 0,
            "the written prefix is reclaimed on the way"
        );
    }

    fn replies(n: usize) -> Vec<WireMsg> {
        (0..n)
            .map(|i| WireMsg::Error {
                detail: format!("reply {i}: {}", "x".repeat(7 * i)),
            })
            .collect()
    }

    #[test]
    fn replies_pushed_in_one_turn_leave_in_one_write() {
        // Sixteen replies queued, one flush: the sink is asked once, and
        // what it gets is the sixteen frames exactly as they would have
        // gone out one by one.
        let msgs = replies(16);
        let mut queue = WriteQueue::default();
        let mut one_by_one = Vec::new();
        for msg in &msgs {
            let written = queue.push_frame(msg.clone(), 1 << 20, None).unwrap();
            assert_eq!(written, encode(msg).len());
            one_by_one.extend(encode(msg));
        }
        assert_eq!(queue.pending(), one_by_one.len());
        let mut sink = Sink::with_room(usize::MAX);
        queue.flush(&mut sink).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.seen, one_by_one);
        assert_eq!(queue.pending(), 0);
        assert_eq!(queue.written_total(), one_by_one.len() as u64);
        // Nothing queued, nothing asked of the socket.
        queue.flush(&mut sink).unwrap();
        assert_eq!(sink.writes, 1);
    }

    #[test]
    fn a_queue_past_high_water_is_flushed_at_once_or_cut() {
        let msgs = replies(64);
        let high_water = 2048;
        let largest = encode(&msgs[63]).len();

        // A sink that keeps up: under the mark pushes wait for the turn's
        // flush, the push that crosses it goes out on the spot — with
        // everything queued before it, in one write.
        let mut queue = WriteQueue::default();
        let mut sink = Sink::with_room(usize::MAX);
        let mut flushed_early = 0;
        for msg in &msgs {
            queue.push_frame(msg.clone(), 1 << 20, None).unwrap();
            let over = queue.pending() > high_water;
            let writes = sink.writes;
            assert_eq!(queue.hold_to(high_water, &mut sink).unwrap(), over);
            assert_eq!(sink.writes - writes, usize::from(over));
            assert!(queue.pending() <= high_water);
            flushed_early += usize::from(over);
        }
        assert!(flushed_early > 1, "the mark was crossed more than once");

        // A sink that takes nothing: the first push past the mark is a
        // backpressure disconnect, and the queue never held more than the
        // mark plus that one frame.
        let mut queue = WriteQueue::default();
        let mut dead = Sink::with_room(0);
        let mut cut = None;
        for msg in &msgs {
            queue.push_frame(msg.clone(), 1 << 20, None).unwrap();
            assert!(queue.pending() <= high_water + largest);
            match queue.hold_to(high_water, &mut dead) {
                Ok(flushed) => assert!(!flushed && queue.pending() <= high_water),
                Err(e) => {
                    cut = Some(e);
                    break;
                }
            }
        }
        let queued = queue.pending();
        assert!(queued > high_water && queued <= high_water + largest);
        assert_eq!(
            cut,
            Some(ProtocolError::Backpressure { queued, high_water })
        );
        assert!(dead.seen.is_empty());
    }

    #[test]
    fn a_frame_pushed_behind_a_partial_write_never_lands_inside_it() {
        // The stall notice's path: a reply is half out when the listener
        // decides to hang up, the notice is pushed behind it and the queue
        // gets one more flush. However many bytes the socket takes in total
        // — for every `k` — what it saw is a prefix of reply ‖ notice.
        let reply = WireMsg::Error {
            detail: "a reply the peer has not finished reading".repeat(3),
        };
        let notice = WireMsg::Error {
            detail: "stalled mid-frame past the read timeout".to_string(),
        };
        let mut whole = encode(&reply);
        let reply_len = whole.len();
        whole.extend(encode(&notice));
        for k in 0..=whole.len() {
            let mut queue = WriteQueue::default();
            let mut sink = Sink::with_room(k.min(reply_len.saturating_sub(1)));
            queue.push_frame(reply.clone(), 1 << 20, None).unwrap();
            queue.flush(&mut sink).unwrap();
            assert!(queue.pending() > 0, "the reply is still partly queued");
            queue.push_frame(notice.clone(), 1 << 20, None).unwrap();
            sink.room = k - sink.seen.len();
            queue.flush(&mut sink).unwrap();
            assert_eq!(sink.seen, whole[..k], "k = {k}");
            assert_eq!(queue.pending(), whole.len() - k);
        }
    }

    /// Messages whose frames run from a few bytes to three slices, by size:
    /// errors, key dispatches, and batches of one shared vector (a
    /// broadcast), of distinct vectors and of everything at once.
    fn frame_mix() -> Vec<WireMsg> {
        use crate::protocol::codec::tests::{broadcast_batches, sample_msgs};
        use crate::protocol::{Envelope, Party, ProtocolMsg};
        use dubhe_he::{EncryptedVector, Keypair};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let values: Vec<u64> = (0..56).collect();
        let vectors: Vec<EncryptedVector> = (0..3)
            .map(|_| EncryptedVector::encrypt_u64(&kp.public, &values, &mut rng))
            .collect();
        let envelope = |to: usize, msg: ProtocolMsg| Envelope {
            from: Party::Server,
            to: Party::Client(to),
            epoch: 9,
            msg,
        };
        let total = |v: &EncryptedVector| ProtocolMsg::EncryptedTotalBroadcast { total: v.clone() };
        let batch = |envelopes: Vec<Envelope>| WireMsg::Batch { envelopes };
        // 3.7 KB an envelope: 70, 140 and 210 of them span one, two and
        // three slices.
        let broadcast = |n: usize| batch((0..n).map(|i| envelope(i, total(&vectors[0]))).collect());
        let distinct = |n: usize| {
            batch(
                (0..n)
                    .map(|i| envelope(i, total(&vectors[i % 3])))
                    .collect(),
            )
        };
        let dispatch = ProtocolMsg::PublicKeyDispatch {
            public_key: kp.public.clone(),
            private_key: Some(kp.private.clone()),
        };
        let mixed = batch(
            (0..150)
                .map(|i| match i % 7 {
                    0 => envelope(i, dispatch.clone()),
                    1 | 2 => envelope(i, total(&vectors[i % 3])),
                    3 => envelope(
                        i,
                        ProtocolMsg::TryVerdict {
                            best_try: i,
                            distance: 0.5,
                        },
                    ),
                    _ => envelope(i, total(&vectors[1])),
                })
                .collect(),
        );
        let mut mix = sample_msgs();
        mix.extend(broadcast_batches());
        mix.push(WireMsg::Envelope {
            envelope: envelope(1, dispatch),
        });
        mix.push(WireMsg::Error {
            detail: "e".repeat(2 * SEAL_SLICE + 77),
        });
        mix.extend([
            broadcast(1),
            broadcast(70),
            distinct(140),
            mixed,
            broadcast(210),
        ]);
        mix
    }

    #[test]
    fn sealed_frames_leave_as_the_one_shot_seal_whatever_the_sink_takes() {
        // Frames from a few bytes to three slices, plaintext and sealed,
        // handshake-style raw pushes and refused pushes between them,
        // drained through `flush` and `flush_slice` into a sink that takes
        // an arbitrary share and then blocks. Whatever the split, the sink
        // only ever sees a prefix of the `append_frame` outputs one after
        // another, production never runs more than a slice ahead of it, the
        // queue holds about two slices however large the frame, its counts
        // stay exact, and a refusal changes nothing: every frame behind it
        // opens and decodes.
        use crate::protocol::channel::tests::fixed_channel;
        let mix = frame_mix();
        let (small, large) = mix.split_at(mix.len() - 4);
        let max = 3 * SEAL_SLICE;
        let oversized = WireMsg::Error {
            detail: "o".repeat(max),
        };
        let too_wide = {
            let mut wide = small[2].clone();
            let WireMsg::Envelope { envelope } = &mut wide else {
                unreachable!("the third sample is a registry upload")
            };
            let crate::protocol::ProtocolMsg::EncryptedRegistry { registry, .. } =
                &mut envelope.msg
            else {
                unreachable!("the third sample is a registry upload")
            };
            let pk = registry.public_key().clone();
            let residue =
                dubhe_he::Ciphertext::from_raw(pk.n_squared().clone() << 8u32, pk.clone());
            *registry = dubhe_he::EncryptedVector::from_ciphertexts(&pk, vec![residue]).unwrap();
            WireMsg::Batch {
                envelopes: vec![envelope.clone()],
            }
        };
        for sealed in [false, true] {
            let mut seed = 0x2545_F491_4F6C_DD1Du64 ^ sealed as u64;
            let mut next = move |bound: usize| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % bound as u64) as usize
            };
            let channels = || sealed.then(|| fixed_channel(true));
            let (mut sender, mut oracle) = (channels(), channels());
            let mut queue = WriteQueue::default();
            let mut sink = Sink::default();
            let (mut expect, mut sent, mut sealed_bytes) = (Vec::new(), Vec::new(), 0u64);
            for step in 0..240 {
                for _ in 0..next(3) {
                    let (pending, queued) = (queue.pending(), queue.queued_total());
                    let refused = match next(16) {
                        0 => {
                            queue.push(b"DBHS raw bytes");
                            expect.extend_from_slice(b"DBHS raw bytes");
                            continue;
                        }
                        1 => queue.push_frame(oversized.clone(), max, sender.as_mut()),
                        2 => queue.push_frame(too_wide.clone(), max, sender.as_mut()),
                        _ => {
                            let msg = match next(10) {
                                0 => &large[next(large.len())],
                                _ => &small[next(small.len())],
                            };
                            let written = queue.push_frame(msg.clone(), max, sender.as_mut());
                            let start = expect.len();
                            let one_step = append_frame(&mut expect, msg, max, oracle.as_mut());
                            assert_eq!(written, one_step);
                            assert_eq!(written, Ok(expect.len() - start));
                            let inner = 8 + payload_size_hint(msg);
                            sealed_bytes += (inner * usize::from(sealed)) as u64;
                            sent.push(msg);
                            continue;
                        }
                    };
                    assert!(refused.is_err(), "step {step}");
                    assert_eq!((queue.pending(), queue.queued_total()), (pending, queued));
                }
                sink.room = next(2 * SEAL_SLICE);
                let before = sink.seen.len();
                if next(2) == 0 {
                    queue.flush(&mut sink).unwrap();
                } else {
                    queue.flush_slice(&mut sink).unwrap();
                }
                let seen = sink.seen.len();
                assert_eq!(sink.seen[before..], expect[before..seen], "step {step}");
                assert_eq!(queue.pending(), expect.len() - seen);
                assert!(queue.unproduced() <= queue.pending());
                let lead = queue.pending() - queue.unproduced();
                assert!(
                    queue.unproduced() == 0 || lead <= SEAL_SLICE + 4 * 1024,
                    "step {step}: {lead} final bytes ahead of the sink"
                );
                assert!(
                    queue.buf.capacity() <= 2 * SEAL_SLICE + 4 * 1024,
                    "step {step}: a {} B queue buffer",
                    queue.buf.capacity()
                );
                assert_eq!(queue.written_total(), seen as u64);
                assert_eq!(queue.queued_total(), expect.len() as u64);
            }
            sink.room = usize::MAX;
            queue.flush(&mut sink).unwrap();
            assert_eq!(sink.seen, expect);
            assert_eq!((queue.pending(), queue.unproduced()), (0, 0));
            assert_eq!(queue.sealed_total(), sealed_bytes);
            assert!(sent.len() > 100 && sent.iter().any(|m| large.contains(m)));

            // Everything that left opens and decodes, in order.
            let mut receiver = sealed.then(|| fixed_channel(false));
            let raw = b"DBHS raw bytes";
            let mut wire = &sink.seen[..];
            for msg in sent {
                while wire.starts_with(raw) {
                    wire = &wire[raw.len()..];
                }
                let len = 8 + u32::from_be_bytes(wire[4..8].try_into().unwrap()) as usize;
                let mut frame = wire[..len].to_vec();
                let inner = match receiver.as_mut() {
                    Some(channel) => channel.open_in_place(&mut frame[8..]).unwrap(),
                    None => &frame[..],
                };
                assert_eq!(&decode(&inner[8..]).unwrap(), msg);
                wire = &wire[len..];
            }
        }
    }

    #[test]
    fn a_turn_writes_one_slice_of_a_bare_frame_produced_a_chunk_at_a_time() {
        // An event loop's turn takes one slice of a connection's queue, bare
        // or sealed. A bare frame is produced a chunk at a time, so a turn
        // into a sink with unlimited room writes a chunk at a time until a
        // slice has left — not one chunk, and not a slice and a chunk more —
        // and the queue never holds more than a chunk and a piece's fields.
        let broadcast = frame_mix().pop().expect("the mix ends with a broadcast");
        let mut queue = WriteQueue::default();
        let wire = queue.push_frame(broadcast.clone(), 1 << 20, None).unwrap();
        assert!(wire > 2 * SEAL_SLICE, "a frame of several slices");
        let mut sink = Sink::with_room(usize::MAX);
        let mut turns = 0;
        while queue.pending() > 0 {
            let (before, writes) = (sink.seen.len(), sink.writes);
            queue.flush_slice(&mut sink).unwrap();
            let wrote = sink.seen.len() - before;
            if queue.pending() > 0 {
                assert!(
                    (SEAL_SLICE..=SEAL_SLICE + CHUNK).contains(&wrote),
                    "turn {turns}: {wrote} B written"
                );
            }
            assert!(sink.writes - writes <= SEAL_SLICE.div_ceil(CHUNK));
            assert!(queue.buf.capacity() <= CHUNK + PRODUCE_SLACK);
            turns += 1;
        }
        assert_eq!(turns, wire.div_ceil(SEAL_SLICE));
        assert_eq!(sink.seen, encode(&broadcast));
    }

    #[test]
    fn a_plaintext_frame_grows_as_it_lands_and_a_batch_is_held_an_envelope_at_a_time() {
        // No announced length sizes a plaintext buffer: its header reserves
        // nothing, and a 3 MiB frame grows as it lands, never more than a
        // slice past the bytes held.
        let big = encode(&WireMsg::Error {
            detail: "x".repeat(3 << 20),
        });
        let mut fb = FrameBuffer::new();
        fb.extend(&big[..HEADER_BYTES]);
        assert!(next_frame(&mut fb, 4 << 20).unwrap().is_none());
        assert!(fb.buf.capacity() < 1024);
        for chunk in big[HEADER_BYTES..].chunks(CHUNK) {
            fb.extend(chunk);
            assert!(fb.buf.capacity() <= fb.buf.len() + SEAL_SLICE);
        }
        let (msg, bytes) = next_frame(&mut fb, 4 << 20).unwrap().unwrap();
        assert_eq!(bytes, big.len());
        assert!(matches!(msg, WireMsg::Error { detail } if detail.len() == 3 << 20));

        // A batch is decoded as it lands, an envelope at a time: a 210-
        // addressee broadcast (three slices) behind an ack and ahead of
        // another, fed a socket's chunk at a time, is held in a buffer of at
        // most twice a chunk and an envelope, reports mid-frame until its
        // last envelope is in, and comes out whole, with its own size on
        // the wire.
        let broadcast = frame_mix().pop().expect("the mix ends with a broadcast");
        let frame = encode(&broadcast);
        let envelope = (frame.len() - HEADER_BYTES - 5) / 210;
        let ack = encode(&WireMsg::Ack);
        let stream = [&ack[..], &frame, &ack].concat();
        let mut fb = FrameBuffer::new();
        let (mut got, mut largest) = (Vec::new(), 0);
        for chunk in stream.chunks(CHUNK) {
            fb.extend(chunk);
            largest = largest.max(fb.buf.capacity());
            while let Some(pulled) = next_frame(&mut fb, 1 << 20).unwrap() {
                got.push(pulled);
            }
            let mid_broadcast = got.len() == 1;
            assert_eq!(fb.is_mid_frame(), mid_broadcast, "{} frames out", got.len());
        }
        let want = [WireMsg::Ack, broadcast, WireMsg::Ack];
        let sizes = [ack.len(), frame.len(), ack.len()];
        assert!(got.into_iter().eq(want.into_iter().zip(sizes)));
        assert!(
            largest <= 2 * (CHUNK + envelope),
            "a {largest} B buffer for {envelope} B envelopes"
        );
    }

    #[test]
    fn lazy_pull_keeps_the_eager_error_contract() {
        let registry = registry_msg();
        let frame = encode(&registry);

        // Over the ceiling: refused with the same typed error, even though
        // the payload would have matched the registry prefix.
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        assert!(matches!(
            fb.next_frame_lazy(16),
            Err(ProtocolError::FrameTooLarge { max: 16, .. })
        ));

        // Bad magic: refused after four bytes, exactly like next_frame.
        let mut fb = FrameBuffer::new();
        fb.extend(b"HTTPxxxx");
        assert!(matches!(
            fb.next_frame_lazy(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));

        // A corrupted ciphertext block still defers (the prefix is intact);
        // the typed error surfaces at view time in the router, not here —
        // but a corrupted *prefix* falls back to the eager decoder's error.
        let mut corrupt = frame.clone();
        let len = corrupt.len();
        corrupt[len - 1] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&corrupt);
        assert!(fb.next_frame_lazy(len * 2).unwrap().is_some());

        let mut bad_prefix = frame;
        bad_prefix[8] = 9; // unknown envelope tag
        let mut fb = FrameBuffer::new();
        fb.extend(&bad_prefix);
        assert!(matches!(
            fb.next_frame_lazy(1024 * 1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
    }
}
