//! Both directions of a non-blocking socket's byte stream: incremental
//! frame reassembly on the way in ([`FrameBuffer`]), one bounded write queue
//! on the way out ([`WriteQueue`], which encodes and seals its frames a
//! slice ahead of each write) — the byte-level halves of a
//! [`Connection`](super::connection::Connection).
//!
//! A blocking reader can hand `read_frame_limited` the stream and let it
//! block until a whole frame arrives; an event loop cannot — it gets bytes
//! in whatever slices the kernel delivers (a header split across two reads,
//! a byte-at-a-time slow-loris, three pipelined frames in one burst) and
//! must never block. [`FrameBuffer`] bridges the two worlds: feed it raw
//! bytes as they arrive, pull complete [`WireMsg`]s out as they become
//! parseable. Validation order matches the blocking path — magic before
//! length, announced length against the ceiling *before* buffering a
//! payload — so a hostile header is refused after at most 8 bytes, with the
//! same typed [`ProtocolError`]s the blocking reader produces.
//!
//! A plaintext batch is decoded while it arrives, an envelope at a time
//! (the codec's `PayloadDecoder`), and each envelope's bytes are left
//! behind as consumed once decoded: the buffer holds about an envelope of a
//! registration broadcast, not the frame. Only a sealed frame's announced
//! length is reserved ahead of its bytes; every other buffer grows as they
//! land.

use std::collections::VecDeque;
use std::io::{self, Write};

use super::channel::{
    FrameProducer, SecureChannel, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED, SEALED_FRAME_OVERHEAD,
};
use super::codec::{PayloadDecoder, RegistryFrame, BATCH_TAG};
use super::wire::{decode_frame_lazy, LazyMsg, WireMsg, FRAME_MAGIC_V2};
use crate::error::ProtocolError;

/// Magic (4) + big-endian payload length (4).
const HEADER_BYTES: usize = 8;

/// Bytes of already-consumed prefix tolerated before a queue compacts.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Most bytes a write queue produces — encodes and, on a channel, seals —
/// ahead of what its sink has taken: one slice per
/// [`WriteQueue::flush_slice`]. The same 256 KiB as the
/// reactor's per-readiness read budget, so a connection's share of a loop
/// turn is bounded the same way in both directions.
pub const SEAL_SLICE: usize = 256 * 1024;

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
/// few `write` calls as the sink allows. Queueing and writing are separate
/// on purpose — an owner that answers sixteen requests in one loop turn
/// pushes sixteen times and flushes once.
///
/// A pushed frame is checked, sized and, on a channel, given its sequence
/// number at once, but its bytes are produced — encoded and, on a channel,
/// sealed — at flush time, at most [`SEAL_SLICE`] bytes ahead of what the
/// sink has taken (a `FrameProducer` each): only that produced prefix of the
/// queue is ever offered to a sink, and the queue holds about two slices of
/// a frame, not the frame. So a multi-megabyte reply starts leaving after
/// its first slice rather than its last, is encoded, sealed and written
/// while still in cache, and an event loop that takes one slice per
/// connection per turn ([`flush_slice`](Self::flush_slice)) keeps serving
/// its other connections in between. Bytes not produced yet are pending
/// like any other — they hold a close-after-flush back and count against a
/// high-water mark — but only bytes a sink refused mean a peer that stopped
/// reading.
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
    Frame(FrameProducer<WireMsg>),
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
        let frame = FrameProducer::new(msg, max_frame_bytes, channel)?;
        let len = frame.wire_len();
        self.producing.push_back(Queued::Frame(frame));
        self.queued_total += len as u64;
        Ok(len)
    }

    /// Frees the buffer once everything queued has been written — for an
    /// owner that waits on its peer between frames and should not hold the
    /// largest frame it ever sent across that wait.
    pub(crate) fn release(&mut self) {
        if self.pending() == 0 {
            self.buf = Vec::new();
            self.pos = 0;
        }
    }

    /// Produces up to one slice more, stopping when [`SEAL_SLICE`] final
    /// bytes wait unwritten. Room for the slice is made first: the written
    /// prefix is dropped when the buffer would otherwise have to grow (a
    /// move of fewer bytes than the reallocation it saves would copy).
    fn produce_ahead(&mut self) {
        let lead = self.final_end() - self.pos;
        let mut budget = SEAL_SLICE.saturating_sub(lead);
        // Where production can end, from `pos`: a slice past it and a
        // piece's fields more, or the end of the queue.
        let end = lead + (budget + PRODUCE_SLACK).min(self.pending() - lead);
        if self.pos == self.buf.len() || self.buf.capacity() < self.pos + end {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf
            .reserve((self.pos + end).saturating_sub(self.buf.len()));
        while let Some(front) = self.producing.front_mut() {
            match front {
                Queued::Raw(bytes) => {
                    self.buf.extend_from_slice(bytes);
                    budget = budget.saturating_sub(bytes.len());
                }
                Queued::Frame(frame) => {
                    let (made, sealed) = frame.produce(&mut self.buf, budget);
                    budget = budget.saturating_sub(made);
                    self.sealed_total += sealed as u64;
                    if !frame.is_done() {
                        return;
                    }
                }
            }
            self.producing.pop_front();
        }
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

    /// Produces a slice and offers it, with whatever else is final, to
    /// `sink`, over and over until the sink has taken everything, takes
    /// none, or would block; then reclaims the written prefix by the
    /// amortised `compact` rule. A hard I/O error is returned after the
    /// bytes written before it have been accounted for.
    pub fn flush(&mut self, sink: &mut impl Write) -> io::Result<()> {
        let outcome = loop {
            self.produce_ahead();
            match self.write_final(sink) {
                Ok(true) if !self.producing.is_empty() => continue,
                outcome => break outcome,
            }
        };
        compact(&mut self.buf, &mut self.pos);
        outcome.map(drop)
    }

    /// [`flush`](Self::flush) with one slice of production at most: an
    /// event loop's once-a-turn write, which leaves the rest of a large
    /// frame to later turns (the queue's [`unproduced`](Self::unproduced)
    /// says how much).
    pub fn flush_slice(&mut self, sink: &mut impl Write) -> io::Result<()> {
        self.produce_ahead();
        let outcome = self.write_final(sink);
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

/// One frame of any known magic, still undecoded and still inside the
/// [`FrameBuffer`] it was reassembled in — the borrowed twin of
/// [`ChannelFrame`](super::channel::ChannelFrame).
#[derive(Debug, PartialEq, Eq)]
pub enum BufferedFrame<'a> {
    /// A `DBHS` handshake message.
    Handshake(&'a [u8]),
    /// A `DBHE` sealed payload (`seq || ciphertext || tag`), mutable so the
    /// channel can open it where it lies.
    Sealed(&'a mut [u8]),
    /// A plaintext `DBH2` protocol frame, header included.
    Plaintext(&'a [u8]),
}

/// Reassembles length-prefixed frames from arbitrary byte slices. One per
/// connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unparsed suffix in `buf`.
    pos: usize,
    /// The plaintext batch being decoded as it arrives: its header and the
    /// envelopes already decoded are behind `pos`.
    decoding: Option<PayloadDecoder>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the socket. When they do not fit, the
    /// consumed prefix is dropped first (a move of fewer bytes than the
    /// reallocation it saves would copy) and the buffer grows only then:
    /// it doubles, but never to more than [`SEAL_SLICE`] past the bytes it
    /// holds. Only a sealed frame's header reserves ahead of its bytes.
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

    /// The magic and announced payload length of the frame at the front,
    /// once its 8-byte header has arrived — what a caller with a ceiling of
    /// its own checks before a pull reserves the announced length.
    pub fn header(&self) -> Option<([u8; 4], usize)> {
        if self.decoding.is_some() {
            return None;
        }
        let h = self.buf.get(self.pos..self.pos + HEADER_BYTES)?;
        let len = u32::from_be_bytes([h[4], h[5], h[6], h[7]]) as usize;
        Some(([h[0], h[1], h[2], h[3]], len))
    }

    /// The payload of the frame at the front as far as it has arrived, once
    /// its header has — the bytes a sealed frame's open cursor works
    /// through before the frame is whole. Only meaningful while that frame
    /// is incomplete (a pull just came up short).
    pub(crate) fn arriving_payload(&mut self) -> &mut [u8] {
        let start = (self.pos + HEADER_BYTES).min(self.buf.len());
        &mut self.buf[start..]
    }

    /// True if a frame has started arriving but is not complete yet — the
    /// state in which a peer cutting off (or stalling past the read
    /// timeout) means a *truncated* frame rather than a clean close.
    pub fn is_mid_frame(&self) -> bool {
        self.pending_bytes() > 0
    }

    /// Validates the header at the front of the unparsed bytes and returns
    /// the frame's total length once the whole frame has arrived; `None`
    /// means "need more bytes". The magic is checked as soon as it is
    /// complete — garbage is refused after 4 bytes, not held until a
    /// phantom "length" dribbles in — and the announced length against the
    /// ceiling before any payload is buffered. `channel` admits the `DBHS`
    /// and `DBHE` magics, and a sealed frame's allowance above the inner
    /// ceiling (exactly the seal).
    ///
    /// A sealed frame that passed both checks but is still arriving gets its
    /// whole announced length reserved here, once: a multi-megabyte reply is
    /// opened in one allocation instead of growing its way up. Its peer is
    /// authenticated (the handshake phase refuses a sealed frame at its
    /// header); every other frame's buffer grows only as its bytes land.
    fn arrived(
        &mut self,
        max_frame_bytes: usize,
        channel: bool,
    ) -> Result<Option<usize>, ProtocolError> {
        let avail = &self.buf[self.pos..];
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
            max_frame_bytes.saturating_add(SEALED_FRAME_OVERHEAD)
        } else {
            max_frame_bytes
        };
        if len > ceiling {
            return Err(ProtocolError::FrameTooLarge {
                len,
                max: max_frame_bytes,
            });
        }
        let total = HEADER_BYTES + len;
        if avail.len() < total {
            if magic == FRAME_MAGIC_SEALED && self.buf.capacity() - self.pos < total {
                self.buf.drain(..self.pos);
                self.pos = 0;
                self.buf.reserve_exact(total - self.buf.len());
            }
            return Ok(None);
        }
        Ok(Some(total))
    }

    /// Pulls the next complete frame, if one has fully arrived:
    /// [`next_frame_lazy`](Self::next_frame_lazy) with registry uploads
    /// decoded too.
    ///
    /// `Ok(None)` means "need more bytes"; errors are terminal for the
    /// connection (framing is lost once a header is bad — same contract as
    /// the blocking reader).
    pub fn next_frame(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(WireMsg, usize)>, ProtocolError> {
        let Some((msg, bytes)) = self.next_frame_lazy(max_frame_bytes)? else {
            return Ok(None);
        };
        Ok(Some((msg.force()?, bytes)))
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
            if let Some(total) = self.arrived(max_frame_bytes, false)? {
                return self.whole_frame_lazy(total, max_frame_bytes).map(Some);
            }
            let Some((_, len)) = self.header() else {
                return Ok(None);
            };
            if self.buf.get(self.pos + HEADER_BYTES) != Some(&BATCH_TAG) {
                return Ok(None);
            }
            self.pos += HEADER_BYTES;
            self.decoding = Some(PayloadDecoder::new(len));
        }
        let decoder = self.decoding.as_mut().expect("a batch being decoded");
        let (taken, msg) = decoder.decode(&self.buf[self.pos..])?;
        self.pos += taken;
        let Some(msg) = msg else {
            return Ok(None);
        };
        let total = HEADER_BYTES + decoder.len();
        self.decoding = None;
        Ok(Some((LazyMsg::Eager(msg), total)))
    }

    /// Decodes the whole plaintext frame of `total` bytes at the front.
    fn whole_frame_lazy(
        &mut self,
        total: usize,
        max_frame_bytes: usize,
    ) -> Result<(LazyMsg, usize), ProtocolError> {
        if self.pos == 0
            && self.buf.len() == total
            && RegistryFrame::matches_prefix(&self.buf[HEADER_BYTES..])
        {
            // The frame is the buffer's whole content: take it, shave the
            // header — zero copies of the (dominant) ciphertext block.
            let mut taken = std::mem::take(&mut self.buf);
            taken.drain(..HEADER_BYTES);
            let frame = RegistryFrame::try_from_payload(taken)
                .expect("matches_prefix accepted this payload");
            return Ok((LazyMsg::DeferredRegistry(frame), total));
        }
        let frame = decode_frame_lazy(&self.buf[self.pos..self.pos + total], max_frame_bytes)?;
        self.pos += total;
        Ok(frame)
    }

    /// Pulls the next frame of *any* known magic — `DBHS` handshake, `DBHE`
    /// sealed or plaintext protocol — still undecoded and still in the
    /// buffer, as a [`BufferedFrame`]. The nonblocking twin of
    /// [`read_channel_frame`](super::channel::read_channel_frame):
    /// the reactor's pre-protocol handshake phase and its sealed sessions
    /// pull through this, and the caller decides which variants its policy
    /// and phase accept — a sealed payload is handed out mutably, to be
    /// opened and decoded in place. Same contract as
    /// [`next_frame`](Self::next_frame): magic validated after 4 bytes,
    /// announced length checked against the ceiling *before* buffering
    /// (sealed frames may exceed the inner ceiling by exactly the seal),
    /// `Ok(None)` means "need more bytes".
    pub fn next_channel_frame(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(BufferedFrame<'_>, usize)>, ProtocolError> {
        let Some(total) = self.arrived(max_frame_bytes, true)? else {
            return Ok(None);
        };
        let frame = &mut self.buf[self.pos..self.pos + total];
        self.pos += total;
        let magic = [frame[0], frame[1], frame[2], frame[3]];
        let pulled = if magic == FRAME_MAGIC_HANDSHAKE {
            BufferedFrame::Handshake(&frame[HEADER_BYTES..])
        } else if magic == FRAME_MAGIC_SEALED {
            BufferedFrame::Sealed(&mut frame[HEADER_BYTES..])
        } else {
            BufferedFrame::Plaintext(frame)
        };
        Ok(Some((pulled, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;

    fn encode(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, msg).unwrap();
        out
    }

    #[test]
    fn reassembles_byte_at_a_time_and_pipelined_frames() {
        let a = encode(&WireMsg::Ack);
        let b = encode(&WireMsg::CloseRegistration);
        let mut fb = FrameBuffer::new();
        // Slow-loris: one byte per feed, frame completes only on the last.
        for &byte in &a {
            assert!(fb.next_frame(1024).is_ok());
            fb.extend(&[byte]);
        }
        let (msg, bytes) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(bytes, a.len());
        assert!(!fb.is_mid_frame());
        // Two pipelined frames in one burst.
        let mut burst = b.clone();
        burst.extend_from_slice(&a);
        fb.extend(&burst);
        let (msg, _) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::CloseRegistration));
        assert!(fb.is_mid_frame());
        let (msg, _) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(fb.next_frame(1024).unwrap(), None);
    }

    #[test]
    fn bad_magic_and_oversized_length_fail_fast() {
        // The retired JSON magic is as unknown as any other.
        for magic in [b"HTTP", b"DBH1"] {
            let mut fb = FrameBuffer::new();
            fb.extend(magic);
            assert!(matches!(
                fb.next_frame(1024),
                Err(ProtocolError::MalformedFrame { .. })
            ));
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_V2);
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(
            fb.next_frame(1024),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn header_split_across_feeds_waits_for_completion() {
        let frame = encode(&WireMsg::Ack);
        let mut fb = FrameBuffer::new();
        fb.extend(&frame[..3]); // partial magic
        assert_eq!(fb.next_frame(1024).unwrap(), None);
        assert!(fb.is_mid_frame());
        fb.extend(&frame[3..6]); // magic complete, length partial
        assert_eq!(fb.next_frame(1024).unwrap(), None);
        fb.extend(&frame[6..]);
        assert!(fb.next_frame(1024).unwrap().is_some());
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
        use crate::protocol::channel::write_handshake_frame;

        // A handshake frame, a sealed frame and a plaintext frame pipelined
        // in one burst classify in order, byte-at-a-time included.
        let mut hs = Vec::new();
        write_handshake_frame(&mut hs, &[7u8; 64]).unwrap();
        let mut sealed = Vec::new();
        sealed.extend_from_slice(&FRAME_MAGIC_SEALED);
        sealed.extend_from_slice(&(24u32).to_be_bytes());
        sealed.extend_from_slice(&[9u8; 24]);
        let plain = encode(&WireMsg::Ack);
        let mut burst = hs.clone();
        burst.extend_from_slice(&sealed);
        burst.extend_from_slice(&plain);

        let mut fb = FrameBuffer::new();
        for &byte in &burst[..hs.len()] {
            assert!(fb.next_channel_frame(1024).unwrap().is_none());
            fb.extend(&[byte]);
        }
        fb.extend(&burst[hs.len()..]);
        let (frame, n) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert_eq!(frame, BufferedFrame::Handshake(&[7u8; 64]));
        assert_eq!(n, hs.len());
        let (frame, _) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert_eq!(frame, BufferedFrame::Sealed(&mut [9u8; 24]));
        let (frame, _) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert!(matches!(frame, BufferedFrame::Plaintext(frame) if *frame == plain[..]));
        assert!(fb.next_channel_frame(1024).unwrap().is_none());
        assert!(!fb.is_mid_frame());

        // Unknown magic refused after 4 bytes; a sealed frame may exceed the
        // inner ceiling by exactly the seal, but no more.
        let mut fb = FrameBuffer::new();
        fb.extend(b"HTTP");
        assert!(matches!(
            fb.next_channel_frame(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((64 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(fb.next_channel_frame(64).unwrap().is_none()); // exactly at ceiling: wait
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((65 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(matches!(
            fb.next_channel_frame(64),
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
        use crate::protocol::channel::append_frame;
        use crate::protocol::channel::tests::fixed_channel;
        use crate::protocol::wire::decode_frame;
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
                            let inner = expect.len() - start - 32 * usize::from(sealed);
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
                assert_eq!(&decode_frame(inner, max).unwrap().0, msg);
                wire = &wire[len..];
            }
        }
    }

    #[test]
    fn an_announced_frame_is_reserved_once_not_doubled_into() {
        // After a sealed frame's 8-byte header passes the ceiling check the
        // whole frame is reserved; feeding the rest in socket-sized chunks
        // never reallocates, even with a consumed frame still ahead of it.
        let mut big = FRAME_MAGIC_SEALED.to_vec();
        big.extend_from_slice(&(3u32 << 20).to_be_bytes());
        big.resize(HEADER_BYTES + (3 << 20), 0x5A);
        let ack = encode(&WireMsg::Ack);
        let mut fb = FrameBuffer::new();
        fb.extend(&ack);
        fb.extend(&big[..HEADER_BYTES]);
        assert!(fb.next_channel_frame(4 << 20).unwrap().is_some());
        assert!(fb.next_channel_frame(4 << 20).unwrap().is_none());
        let reserved = fb.buf.capacity();
        assert_eq!(reserved, big.len(), "exactly the announced frame");
        let at = fb.buf.as_ptr();
        for chunk in big[HEADER_BYTES..].chunks(16 * 1024) {
            fb.extend(chunk);
            assert_eq!((fb.buf.as_ptr(), fb.buf.capacity()), (at, reserved));
        }
        let (frame, bytes) = fb.next_channel_frame(4 << 20).unwrap().unwrap();
        assert_eq!(bytes, big.len());
        assert!(matches!(frame, BufferedFrame::Sealed(payload) if payload.len() == 3 << 20));
        // Over the ceiling nothing is reserved at all.
        let mut fb = FrameBuffer::new();
        fb.extend(&big[..HEADER_BYTES]);
        assert!(fb.next_channel_frame(1 << 20).is_err());
        assert!(fb.buf.capacity() < 1024);
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
        assert!(fb.next_frame(4 << 20).unwrap().is_none());
        assert!(fb.buf.capacity() < 1024);
        for chunk in big[HEADER_BYTES..].chunks(16 * 1024) {
            fb.extend(chunk);
            assert!(fb.buf.capacity() <= fb.buf.len() + SEAL_SLICE);
        }
        let (msg, bytes) = fb.next_frame(4 << 20).unwrap().unwrap();
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
        for chunk in stream.chunks(16 * 1024) {
            fb.extend(chunk);
            largest = largest.max(fb.buf.capacity());
            while let Some(pulled) = fb.next_frame(1 << 20).unwrap() {
                got.push(pulled);
            }
            let mid_broadcast = got.len() == 1;
            assert_eq!(fb.is_mid_frame(), mid_broadcast, "{} frames out", got.len());
        }
        let want = [WireMsg::Ack, broadcast, WireMsg::Ack];
        let sizes = [ack.len(), frame.len(), ack.len()];
        assert!(got.into_iter().eq(want.into_iter().zip(sizes)));
        assert!(
            largest <= 2 * (16 * 1024 + envelope),
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
