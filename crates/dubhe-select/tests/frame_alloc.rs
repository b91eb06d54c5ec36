//! Counting-allocator proof of the reply path's buffer discipline.
//!
//! The registration broadcast is one `Batch` of `N + 1` envelopes around a
//! single total — a megabyte-scale frame at any real cohort size. Timings of
//! that path swing with the host; what it *allocates* does not. This test
//! pins the mechanism: framing and sealing the broadcast makes **one**
//! frame-sized allocation (the frame itself, reserved exactly) and a number
//! of small ones that does not grow with `N`; opening it in place and
//! decoding it make none more. Received by a connection — bare, or sealed,
//! its records verified and decrypted as they land — it is decoded an
//! envelope at a time: no allocation of even a quarter of the frame, and
//! live bytes within one envelope (and on a channel one record) and 64 KiB
//! of what decoding alone holds, whatever `N`. No header sizes a buffer
//! past what has landed: not an unauthenticated handshake header, not a
//! plaintext one, and not one a blocking reader meets. Queued on a
//! connection, as the listener queues its replies, the broadcast is not
//! even framed whole: the write queue seals it a slice ahead of the socket,
//! and encodes a bare one a chunk ahead, so what the server holds for it is
//! about two slices sealed and one chunk bare, whatever the cohort size;
//! and the queue keeps one envelope and the addressees, not the
//! `N + 1`-envelope list. An integration test is its own binary, so the
//! counting `#[global_allocator]` observes exactly this workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

use dubhe_he::{EncryptedVector, Keypair};
use dubhe_select::protocol::codec::{decode, encode, payload_size_hint};
use dubhe_select::protocol::connection::Event;
use dubhe_select::protocol::frames::{CHUNK, SEAL_SLICE};
use dubhe_select::protocol::{
    append_frame, client_handshake, decode_frame, read_channel_frame, read_frame_limited,
    ChannelFrame, Connection, Envelope, NodeIdentity, Party, ProtocolMsg, SecureChannel,
    ServerHandshake, WireMsg, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED, FRAME_MAGIC_V2,
    MAX_FRAME_BYTES, SEALED_FRAME_OVERHEAD,
};
use dubhe_select::ProtocolError;
use rand::SeedableRng;

/// Forwards to the system allocator, counting calls, calls at or above
/// [`BIG`] bytes, and the high-water mark of live bytes. Calls are counted
/// on the thread being measured only: a thread of the process's parallel
/// pool that happens to start inside a measured window (it copies its name
/// as it starts) is not the measured work.
struct CountingAlloc;

thread_local! {
    static MEASURED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BIG: AtomicUsize = AtomicUsize::new(usize::MAX);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if !MEASURED.with(std::cell::Cell::get) {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= BIG.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // Priced as a fresh block beside the old one, which is what a
        // moving realloc holds at its worst.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run: the counters are process-wide, and
/// libtest runs tests on parallel threads.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// What `f` cost the heap: the allocation calls it made on this thread,
/// those of at least `big` bytes, and the most bytes the process held live
/// above what was live when it started.
fn measure<T>(big: usize, f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    BIG.store(big, Ordering::SeqCst);
    let (allocs, bigs) = (
        ALLOCS.load(Ordering::SeqCst),
        BIG_ALLOCS.load(Ordering::SeqCst),
    );
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    MEASURED.with(|m| m.set(true));
    let out = f();
    MEASURED.with(|m| m.set(false));
    BIG.store(usize::MAX, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::SeqCst) - allocs,
        BIG_ALLOCS.load(Ordering::SeqCst) - bigs,
        PEAK.load(Ordering::SeqCst) - base,
    )
}

/// A real handshake over loopback; returns (client, server) channels.
fn channel_pair() -> (SecureChannel, SecureChannel) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut handshake = ServerHandshake::new(NodeIdentity::from_seed(2));
        loop {
            let (frame, _) = read_channel_frame(&mut stream, 1 << 10).unwrap();
            let ChannelFrame::Handshake(payload) = frame else {
                panic!("handshake frames only");
            };
            let step = handshake.on_payload(&payload).unwrap();
            if let Some(reply) = step.reply {
                stream.write_all(&reply).unwrap();
            }
            if let Some(channel) = step.established {
                return channel;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    let identity = NodeIdentity::from_seed(1);
    let client = client_handshake(&mut stream, &identity, None, 1 << 10).unwrap();
    (client, server.join().expect("server handshake"))
}

/// Moves what `from` has queued into `to` and polls `to` once.
fn shuttle(from: &mut Connection, to: &mut Connection) -> Option<Event> {
    let mut bytes = Vec::new();
    from.out.flush(&mut bytes).unwrap();
    to.received(&bytes);
    to.poll().unwrap()
}

/// A handshaken (client, server) pair of connections, over byte vectors.
fn connection_pair() -> (Connection, Connection) {
    let mut client = Connection::client(&NodeIdentity::from_seed(1), None, MAX_FRAME_BYTES);
    let mut server = Connection::server(NodeIdentity::from_seed(2), MAX_FRAME_BYTES);
    shuttle(&mut client, &mut server);
    shuttle(&mut server, &mut client);
    shuttle(&mut client, &mut server);
    assert!(client.peer().is_some() && server.peer().is_some());
    (client, server)
}

/// A sealed frame's wire length around an inner frame of `inner` bytes: a
/// one-record frame's overhead, and a tag more for each record past the
/// first.
fn sealed_len(inner: usize) -> usize {
    inner + SEALED_FRAME_OVERHEAD + 16 * (inner.div_ceil(SEAL_SLICE) - 1)
}

/// The registration broadcast of an `n`-client cohort over a length-56
/// total, built the way the coordinators build it: clones of one message.
fn broadcast(n: usize) -> WireMsg {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB40ADCA5);
    let keypair = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
    let total = EncryptedVector::encrypt_u64(&keypair.public, &[1; 56], &mut rng);
    let msg = ProtocolMsg::EncryptedTotalBroadcast { total };
    let to = (0..n).map(Party::Client).chain([Party::Agent]);
    let envelopes = to.map(|to| Envelope {
        from: Party::Server,
        to,
        epoch: 1,
        msg: msg.clone(),
    });
    WireMsg::Batch {
        envelopes: envelopes.collect(),
    }
}

#[test]
fn a_broadcast_is_framed_sealed_and_received_in_one_buffer_each() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut client, mut server) = channel_pair();
    let (mut client_link, mut server_link) = connection_pair();
    let mut small_allocs = Vec::new();
    for n in [75, 300] {
        let msg = broadcast(n);
        let wire = sealed_len(8 + payload_size_hint(&msg));

        // Out: encode, frame and seal straight into the write queue.
        let (queue, allocs, frame_sized, peak) = measure(wire / 4, || {
            let mut queue = Vec::new();
            let channel = Some(&mut server);
            append_frame(&mut queue, &msg, MAX_FRAME_BYTES, channel).unwrap();
            queue
        });
        assert_eq!(queue.len(), wire, "the size hint is exact for a broadcast");
        assert_eq!(queue.capacity(), wire, "reserved exactly, once");
        assert_eq!(frame_sized, 1, "n = {n}: frame-sized allocations sending");
        assert!(
            peak * 10 <= wire * 11,
            "n = {n}: {peak} B live to put {wire} B on the wire"
        );

        // In, in one step: the payload in one buffer, opened and decoded
        // where it lies.
        let (back, allocs_in, frame_sized, _) = measure(wire / 4, || {
            let mut payload = queue[8..].to_vec();
            let inner = client.open_in_place(&mut payload).unwrap();
            decode_frame(inner, MAX_FRAME_BYTES).unwrap().0
        });
        assert_eq!(frame_sized, 1, "n = {n}: frame-sized allocations receiving");
        assert_eq!(back, msg);

        // The same through a client-role connection, polled as a driver
        // polls it: chunk by chunk.
        server_link.queue(msg.clone()).unwrap();
        let mut sealed = Vec::new();
        server_link.out.flush(&mut sealed).unwrap();
        let (back, _, frame_sized, _) = measure(wire / 4, || {
            for chunk in sealed.chunks(CHUNK) {
                client_link.received(chunk);
                if let Some(Event::Frame { msg, .. }) = client_link.poll().unwrap() {
                    return msg.force().unwrap();
                }
            }
            panic!("the broadcast never completed");
        });
        // It holds one record, not the frame: a record's buffer is a
        // quarter of the frame or more at n = 75 (two records), and less at
        // n = 300.
        assert_eq!(
            frame_sized,
            usize::from(4 * SEAL_SLICE >= wire),
            "n = {n}: frame-sized allocations in a Connection"
        );
        assert_eq!(back, msg);
        small_allocs.push((allocs, allocs_in));
    }
    // Four times the addressees: the same encode work (one vector, 56
    // residues) and the same parse; only the envelope list's own growth
    // adds a few reallocations on the way in.
    let ((out_75, in_75), (out_300, in_300)) = (small_allocs[0], small_allocs[1]);
    assert_eq!(out_75, out_300, "allocations sending must not scale with N");
    assert!(out_300 < 150, "{out_300} allocations to send");
    assert!(
        in_300 <= in_75 + 4,
        "{in_75} → {in_300} allocations receiving"
    );

    // A handshake-phase header announcing 1 MiB, or the whole frame
    // ceiling, is refused on its eighth byte with nothing reserved for it —
    // a plaintext or sealed one as out of phase. A plaintext connection's
    // is accepted, and still sizes nothing: its buffer grows only as bytes
    // land.
    for announced in [1u32 << 20, MAX_FRAME_BYTES as u32] {
        let identity = NodeIdentity::from_seed(1);
        let handshaking = |magic: [u8; 4]| {
            [
                Connection::server(NodeIdentity::from_seed(2), MAX_FRAME_BYTES),
                Connection::client(&identity, None, MAX_FRAME_BYTES),
            ]
            .map(|link| (link, magic, true))
        };
        let cases = [FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_V2, FRAME_MAGIC_SEALED]
            .into_iter()
            .flat_map(handshaking)
            .chain([(
                Connection::plaintext(MAX_FRAME_BYTES),
                FRAME_MAGIC_V2,
                false,
            )]);
        for (mut link, magic, refused) in cases {
            let header = [magic, announced.to_be_bytes()].concat();
            let (polled, _, reserved, _) = measure(1024, || {
                link.received(&header);
                link.poll()
            });
            if refused {
                assert!(polled.is_err(), "{announced}: {polled:?}");
            } else {
                assert!(matches!(polled, Ok(None)), "{announced}: {polled:?}");
            }
            assert_eq!(
                reserved, 0,
                "{announced} under {magic:?}: allocations of 1 KiB or more"
            );
        }
    }
}

#[test]
fn a_plaintext_broadcast_is_received_an_envelope_at_a_time_not_as_a_frame() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A plaintext client-role connection receiving the broadcast in socket-
    // sized chunks decodes each envelope as it lands and drops its bytes:
    // the frame — 1.1 MB at n = 300, 4.4 MB at n = 1 200 — is never held,
    // and beyond what decoding itself holds (the envelope list, measured on
    // its own) the connection keeps one envelope and 64 KiB at most,
    // whatever n.
    for n in [300, 1200] {
        let msg = broadcast(n);
        let mut frame = Vec::new();
        append_frame(&mut frame, &msg, MAX_FRAME_BYTES, None).unwrap();
        let wire = frame.len();
        let envelope = (wire - 8 - 5) / (n + 1);
        let (list, _, _, list_peak) = measure(usize::MAX, || decode(&frame[8..]).unwrap());
        assert_eq!(list, msg);
        drop(list);

        let mut link = Connection::plaintext(MAX_FRAME_BYTES);
        let (back, _, frame_sized, peak) = measure(wire / 4, || {
            for chunk in frame.chunks(CHUNK) {
                link.received(chunk);
                if let Some(Event::Frame {
                    msg, wire_bytes, ..
                }) = link.poll().unwrap()
                {
                    assert_eq!(wire_bytes, wire);
                    return msg.force().unwrap();
                }
                assert!(link.is_mid_frame());
            }
            panic!("the broadcast never completed");
        });
        assert_eq!(back, msg);
        assert_eq!(
            frame_sized,
            0,
            "n = {n}: allocations of {} B or more",
            wire / 4
        );
        assert!(
            peak <= list_peak + envelope + 64 * 1024,
            "n = {n}: {peak} B live to receive {wire} B; the list alone took {list_peak} B"
        );
    }
}

#[test]
fn a_sealed_broadcast_is_received_a_record_at_a_time_not_as_a_frame() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The sealed twin of the plaintext pin above: a client-role connection
    // on an established channel receives the broadcast in socket-sized
    // chunks, verifies and decrypts each 256 KiB record as it completes and
    // decodes its envelopes as they land. The frame — 1.1 MB at n = 300,
    // 4.4 MB at n = 1 200 — is never held: beyond what decoding itself
    // holds it keeps one record, one envelope and 64 KiB at most.
    for n in [300, 1200] {
        let (mut client_link, mut server_link) = connection_pair();
        let msg = broadcast(n);
        let mut plain = Vec::new();
        append_frame(&mut plain, &msg, MAX_FRAME_BYTES, None).unwrap();
        let envelope = (plain.len() - 8 - 5) / (n + 1);
        let (list, _, _, list_peak) = measure(usize::MAX, || decode(&plain[8..]).unwrap());
        assert_eq!(list, msg);
        drop((list, plain));

        server_link.queue(msg.clone()).unwrap();
        let mut sealed = Vec::new();
        server_link.out.flush(&mut sealed).unwrap();
        let wire = sealed.len();
        assert!(wire > 4 * SEAL_SLICE, "n = {n}: a multi-record frame");
        let (back, _, frame_sized, peak) = measure(wire / 4, || {
            for chunk in sealed.chunks(CHUNK) {
                client_link.received(chunk);
                if let Some(Event::Frame {
                    msg, wire_bytes, ..
                }) = client_link.poll().unwrap()
                {
                    assert_eq!(wire_bytes, wire);
                    return msg.force().unwrap();
                }
                assert!(client_link.is_mid_frame());
            }
            panic!("the broadcast never completed");
        });
        assert_eq!(back, msg);
        assert_eq!(
            frame_sized,
            0,
            "n = {n}: allocations of {} B or more",
            wire / 4
        );
        assert!(
            peak <= list_peak + SEAL_SLICE + envelope + 64 * 1024,
            "n = {n}: {peak} B live to receive {wire} B; the list alone took {list_peak} B"
        );
    }
}

#[test]
fn a_blocking_reader_sizes_no_buffer_from_an_unauthenticated_header() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A header announcing the whole frame ceiling, then end of stream: both
    // blocking readers refuse the truncated payload having allocated no
    // more than a slice for it, and keep their error contract.
    for magic in [FRAME_MAGIC_V2, FRAME_MAGIC_SEALED, FRAME_MAGIC_HANDSHAKE] {
        let header = [magic, (MAX_FRAME_BYTES as u32).to_be_bytes()].concat();
        let (errs, _, big, _) = measure(1 << 20, || {
            let channel = read_channel_frame(&mut &header[..], MAX_FRAME_BYTES).unwrap_err();
            let plain = read_frame_limited(&mut &header[..], MAX_FRAME_BYTES);
            (channel, plain.map(|(msg, _)| msg))
        });
        assert_eq!(big, 0, "{magic:?}: allocations of 1 MiB or more");
        let truncated = ProtocolError::TruncatedFrame { context: "payload" };
        assert_eq!(errs.0, truncated, "{magic:?}");
        if magic == FRAME_MAGIC_V2 {
            assert_eq!(errs.1, Err(truncated));
        }
    }
    // A clean close between frames and an over-ceiling header keep theirs.
    let empty: &[u8] = &[];
    assert_eq!(
        read_channel_frame(&mut &empty[..], MAX_FRAME_BYTES).unwrap_err(),
        ProtocolError::Disconnected
    );
    assert_eq!(
        read_frame_limited(&mut &empty[..], MAX_FRAME_BYTES).unwrap_err(),
        ProtocolError::Disconnected
    );
    let over = [FRAME_MAGIC_V2, (1u32 << 20).to_be_bytes()].concat();
    assert!(matches!(
        read_frame_limited(&mut &over[..], 1 << 10),
        Err(ProtocolError::FrameTooLarge { .. })
    ));
}

/// A nonblocking socket that takes at most 64 KiB a write, into a buffer
/// reserved beforehand, and blocks on every fourth write.
struct Trickle {
    seen: Vec<u8>,
    writes: usize,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes.is_multiple_of(4) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(64 * 1024);
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_queued_broadcast_is_held_as_two_slices_not_as_a_frame() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The reply path as the listener runs it: the broadcast moved into a
    // server-role connection's queue and drained a slice per turn through a
    // socket that takes at most 64 KiB a write. The sealed frame is 1.1 MB
    // at n = 300, 4.4 MB at n = 1 200 and 11 MB at n = 3 000; the queue
    // never allocates a quarter of it, and holds the same two slices at
    // most for each. It does not hold the `n + 1`-envelope list either:
    // queueing keeps the one envelope and its addressees, 16 B each.
    for n in [300, 1200, 3000] {
        let (mut client_link, mut server_link) = connection_pair();
        let msg = broadcast(n);
        let wire = sealed_len(8 + payload_size_hint(&msg));
        let mut sink = Trickle {
            seen: Vec::with_capacity(wire),
            writes: 0,
        };
        let queued = msg.clone();
        let (_, _, frame_sized, peak) = measure(wire / 4, || {
            let held = LIVE.load(Ordering::SeqCst);
            assert_eq!(server_link.queue(queued), Ok(wire));
            let released = held.saturating_sub(LIVE.load(Ordering::SeqCst));
            let list = (n + 1) * (std::mem::size_of::<Envelope>() - 16);
            assert!(
                released + 4 * 1024 >= list,
                "n = {n}: queueing released {released} B of the envelope list"
            );
            while server_link.out.pending() > 0 {
                server_link.out.flush_slice(&mut sink).unwrap();
            }
        });
        assert_eq!(
            frame_sized,
            0,
            "n = {n}: allocations of {} B or more",
            wire / 4
        );
        assert!(
            peak <= 2 * SEAL_SLICE + 64 * 1024,
            "n = {n}: {peak} B live to send {wire} B"
        );

        // What left is the broadcast, whole.
        assert_eq!(sink.seen.len(), wire);
        let mut back = None;
        for chunk in sink.seen.chunks(CHUNK) {
            client_link.received(chunk);
            if let Some(Event::Frame { msg, .. }) = client_link.poll().unwrap() {
                back = Some(msg.force().unwrap());
            }
        }
        assert_eq!(back, Some(msg), "n = {n}");
    }
}

/// What a production step of the write queue may overshoot its window by
/// (a piece's fields): the queue's `PRODUCE_SLACK`.
const PRODUCE_SLACK: usize = 256;

#[test]
fn a_queued_bare_broadcast_is_held_as_one_chunk_not_as_a_slice() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The bare twin of the pin above. A plaintext frame has no tag to wait
    // for, so the queue encodes it one chunk ahead of the socket, not one
    // slice: the 1.1 MB broadcast at n = 300 and the 11 MB one at n = 3 000,
    // queued and then drained a turn at a time through a socket that takes
    // at most 64 KiB a write, hold one chunk and a piece's fields, whatever
    // n. (Queueing itself is measured apart: it frees the envelope list,
    // which would hide a larger buffer.)
    for n in [300, 3000] {
        let mut link = Connection::plaintext(MAX_FRAME_BYTES);
        let msg = broadcast(n);
        let wire = 8 + payload_size_hint(&msg);
        let mut sink = Trickle {
            seen: Vec::with_capacity(wire),
            writes: 0,
        };
        assert_eq!(link.queue(msg.clone()), Ok(wire));
        let (_, _, frame_sized, peak) = measure(wire / 4, || {
            while link.out.pending() > 0 {
                link.out.flush_slice(&mut sink).unwrap();
            }
        });
        assert_eq!(
            frame_sized,
            0,
            "n = {n}: allocations of {} B or more",
            wire / 4
        );
        assert!(
            peak <= CHUNK + PRODUCE_SLACK + 64 * 1024,
            "n = {n}: {peak} B live to send {wire} B"
        );

        // What left is the frame the codec encodes, byte for byte.
        assert_eq!(sink.seen.len(), wire);
        assert_eq!(sink.seen[..4], FRAME_MAGIC_V2);
        assert_eq!(sink.seen[4..8], ((wire - 8) as u32).to_be_bytes());
        assert!(sink.seen[8..] == encode(&msg).unwrap()[..], "n = {n}");
    }
}
