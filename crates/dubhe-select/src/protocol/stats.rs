//! Shared listener observability: per-connection frame/latency metrics and
//! the [`ListenerStats`] snapshot API.
//!
//! `dubhe-net`'s event-driven `ReactorListener` records into a
//! [`ListenerMetrics`] recorder and publishes it as a [`ListenerStats`]
//! snapshot — what `load_gen` writes to `results/BENCH_net.json` and the
//! benchmark reads its `net.*` layer from: frames and bytes in each
//! direction, decode failures, write-queue high-water marks, and a
//! per-request latency histogram (decode → reply handed to the socket). The
//! types live here, beside the wire they describe, so a client-side
//! consumer needs no dependency on the listener crate.
//!
//! The recorder is all atomics plus one mutex around the latency histogram —
//! observability only, never on the coordinator-state path, and never held
//! while the listener's one coordinator mutex is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Number of log₂ microsecond buckets: covers 1 µs .. ~2¹⁹ s, far beyond any
/// sane request latency.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram (microsecond resolution).
///
/// Constant memory, O(1) record, mergeable; quantiles come back as the
/// geometric midpoint of the owning bucket — ±√2 accuracy, plenty for a
/// p50/p99 trend line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(us: u64) -> usize {
        ((64 - us.max(1).leading_zeros()) as usize - 1).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds, or `None` if empty.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)) µs.
                let lo = (1u64 << i) as f64;
                return Some(lo * std::f64::consts::SQRT_2);
            }
        }
        Some(self.max_us as f64)
    }

    /// Collapses the histogram into the summary a report serializes.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: if self.count == 0 {
                0.0
            } else {
                self.sum_us as f64 / self.count as f64
            },
            p50_us: self.quantile_us(0.50).unwrap_or(0.0),
            p99_us: self.quantile_us(0.99).unwrap_or(0.0),
            max_us: self.max_us,
        }
    }
}

/// The serialized shape of a latency distribution in a bench report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds (log-bucket midpoint).
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds (log-bucket midpoint).
    pub p99_us: f64,
    /// Largest single sample, microseconds (exact).
    pub max_us: u64,
}

/// A point-in-time snapshot of everything a listener observed: connection
/// lifecycle, frame/byte traffic per direction, failure counters, write-queue
/// pressure, and the request-latency distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ListenerStats {
    /// Connections accepted since spawn.
    pub connections_accepted: usize,
    /// Connections fully closed since spawn (any reason).
    pub connections_closed: usize,
    /// Connections open right now.
    pub connections_open: usize,
    /// Most connections ever open at once.
    pub peak_connections: usize,
    /// Complete frames decoded off sockets.
    pub frames_received: usize,
    /// Frames fully written back to sockets.
    pub frames_sent: usize,
    /// Bytes read off sockets (headers + payloads).
    pub bytes_received: usize,
    /// Bytes written to sockets (headers + payloads).
    pub bytes_sent: usize,
    /// Frames refused before reaching the coordinator: bad magic, oversized
    /// announcement, undecodable payload.
    pub decode_errors: usize,
    /// Connections that died mid-frame (peer cut off or stalled past the
    /// read timeout).
    pub truncated_frames: usize,
    /// Connections disconnected because their write queue crossed the
    /// backpressure high-water mark (slow or stalled readers).
    pub backpressure_disconnects: usize,
    /// Largest per-connection write-queue depth observed, in bytes.
    pub peak_write_queue: usize,
    /// Channel handshakes that ran to completion (session keys established).
    pub handshakes_completed: usize,
    /// Channel handshakes that failed before establishment: malformed hello,
    /// bad confirmation tag, or a peer that stalled out mid-handshake.
    pub handshakes_failed: usize,
    /// Sealed frames refused after establishment: tag mismatch (tampering)
    /// or nonce replay/reorder.
    pub aead_rejections: usize,
    /// Plaintext protocol frames refused because the listener requires the
    /// authenticated channel (downgrade attempts).
    pub downgrades_refused: usize,
    /// Requests the event-loop thread answered itself — the router was idle
    /// and the frame small — instead of handing them to the router thread.
    pub answered_inline: usize,
    /// `read` calls made on connection sockets.
    pub socket_reads: usize,
    /// `write` calls made on connection sockets; `frames_sent` over this is
    /// how many replies one write carried on average.
    pub socket_writes: usize,
    /// Ciphertext bytes sealed for sending so far. A large reply is sealed
    /// a slice per loop turn, ahead of what its socket has taken, so this
    /// grows across turns — and stops short of the reply while its reader
    /// does not read.
    pub bytes_sealed: usize,
    /// Per-request latency (frame decoded → reply handed to the socket).
    pub latency: LatencySummary,
}

/// A [`ListenerStats`] failure counter: what a refused frame is charged
/// to. The per-connection state machine
/// ([`Connection`](super::connection::Connection)) picks it, in one place,
/// for every refusal it makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// [`ListenerStats::decode_errors`].
    DecodeErrors,
    /// [`ListenerStats::aead_rejections`].
    AeadRejections,
    /// [`ListenerStats::downgrades_refused`].
    DowngradesRefused,
}

/// The live, thread-safe recorder behind a [`ListenerStats`] snapshot.
///
/// Shared as an `Arc` between a listener's I/O side and whoever holds the
/// listener handle; every counter is a relaxed atomic (monotonic counters
/// need no ordering) except `connections_closed`, whose release/acquire
/// pairing publishes a closed connection's other counts with it; the
/// latency histogram sits behind its own mutex.
#[derive(Debug, Default)]
pub struct ListenerMetrics {
    connections_accepted: AtomicUsize,
    connections_closed: AtomicUsize,
    peak_connections: AtomicUsize,
    frames_received: AtomicUsize,
    frames_sent: AtomicUsize,
    bytes_received: AtomicUsize,
    bytes_sent: AtomicUsize,
    decode_errors: AtomicUsize,
    truncated_frames: AtomicUsize,
    backpressure_disconnects: AtomicUsize,
    peak_write_queue: AtomicUsize,
    handshakes_completed: AtomicUsize,
    handshakes_failed: AtomicUsize,
    aead_rejections: AtomicUsize,
    downgrades_refused: AtomicUsize,
    answered_inline: AtomicUsize,
    socket_reads: AtomicUsize,
    socket_writes: AtomicUsize,
    bytes_sealed: AtomicUsize,
    latency_us_hist: Mutex<LatencyHistogram>,
}

fn bump_max(slot: &AtomicUsize, candidate: usize) {
    let mut current = slot.load(Ordering::Relaxed);
    while candidate > current {
        match slot.compare_exchange_weak(current, candidate, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

impl ListenerMetrics {
    /// A zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one accepted connection (and maintains the concurrency peak).
    pub fn connection_opened(&self) {
        let accepted = self.connections_accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let closed = self.connections_closed.load(Ordering::Relaxed);
        bump_max(&self.peak_connections, accepted.saturating_sub(closed));
    }

    /// Counts one closed connection. `Release`, paired with the `Acquire`
    /// load in [`snapshot`](Self::snapshot): a snapshot that shows the close
    /// also shows everything the listener counted for that connection before
    /// it, so `connections_closed == n` is a sound condition to wait on
    /// before pinning totals.
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Release);
    }

    /// Counts one decoded inbound frame of `bytes` total size.
    pub fn frame_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one fully written outbound frame of `bytes` total size.
    pub fn frame_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one undecodable inbound frame.
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection cut mid-frame.
    pub fn truncated_frame(&self) {
        self.truncated_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one backpressure disconnect.
    pub fn backpressure_disconnect(&self) {
        self.backpressure_disconnects
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Maintains the peak write-queue depth (bytes).
    pub fn write_queue_depth(&self, bytes: usize) {
        bump_max(&self.peak_write_queue, bytes);
    }

    /// Counts one completed channel handshake.
    pub fn handshake_completed(&self) {
        self.handshakes_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed channel handshake.
    pub fn handshake_failed(&self) {
        self.handshakes_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one sealed frame refused after establishment (tamper/replay).
    pub fn aead_rejection(&self) {
        self.aead_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one plaintext frame refused by a channel-required listener.
    pub fn downgrade_refused(&self) {
        self.downgrades_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one refusal against its counter.
    pub fn count(&self, counter: Counter) {
        match counter {
            Counter::DecodeErrors => self.decode_error(),
            Counter::AeadRejections => self.aead_rejection(),
            Counter::DowngradesRefused => self.downgrade_refused(),
        }
    }

    /// Counts one request answered on the event-loop thread.
    pub fn answered_inline(&self) {
        self.answered_inline.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `read` call on a connection socket.
    pub fn socket_read(&self) {
        self.socket_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `write` call on a connection socket.
    pub fn socket_write(&self) {
        self.socket_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `bytes` more ciphertext sealed for sending.
    pub fn bytes_sealed(&self, bytes: usize) {
        self.bytes_sealed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one request latency (frame decoded → reply handed off).
    pub fn record_latency(&self, latency: Duration) {
        self.latency_us_hist
            .lock()
            .expect("latency histogram poisoned")
            .record(latency);
    }

    /// A consistent-enough snapshot for reporting (individual counters are
    /// each exact; cross-counter skew is bounded by in-flight requests).
    pub fn snapshot(&self) -> ListenerStats {
        let accepted = self.connections_accepted.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Acquire);
        ListenerStats {
            connections_accepted: accepted,
            connections_closed: closed,
            connections_open: accepted.saturating_sub(closed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            truncated_frames: self.truncated_frames.load(Ordering::Relaxed),
            backpressure_disconnects: self.backpressure_disconnects.load(Ordering::Relaxed),
            peak_write_queue: self.peak_write_queue.load(Ordering::Relaxed),
            handshakes_completed: self.handshakes_completed.load(Ordering::Relaxed),
            handshakes_failed: self.handshakes_failed.load(Ordering::Relaxed),
            aead_rejections: self.aead_rejections.load(Ordering::Relaxed),
            downgrades_refused: self.downgrades_refused.load(Ordering::Relaxed),
            answered_inline: self.answered_inline.load(Ordering::Relaxed),
            socket_reads: self.socket_reads.load(Ordering::Relaxed),
            socket_writes: self.socket_writes.load(Ordering::Relaxed),
            bytes_sealed: self.bytes_sealed.load(Ordering::Relaxed),
            latency: self
                .latency_us_hist
                .lock()
                .expect("latency histogram poisoned")
                .summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles_behave() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.5).unwrap();
        assert!((8.0..32.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((8_000.0..32_000.0).contains(&p99), "p99 {p99}");
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 10_000);
        assert!(s.mean_us > 10.0 && s.mean_us < 10_000.0);
    }

    #[test]
    fn histograms_merge_additively() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(500));
        b.record(Duration::from_micros(700));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.summary().max_us, 700);
    }

    #[test]
    fn metrics_snapshot_reflects_recorded_traffic() {
        let m = ListenerMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.frame_received(100);
        m.frame_sent(60);
        m.decode_error();
        m.write_queue_depth(4096);
        m.write_queue_depth(1024);
        m.handshake_completed();
        m.handshake_failed();
        m.aead_rejection();
        m.aead_rejection();
        m.downgrade_refused();
        m.answered_inline();
        m.socket_read();
        m.socket_read();
        m.socket_write();
        m.record_latency(Duration::from_micros(42));
        let s = m.snapshot();
        assert_eq!(s.connections_accepted, 2);
        assert_eq!(s.connections_open, 1);
        assert_eq!(s.peak_connections, 2);
        assert_eq!((s.frames_received, s.bytes_received), (1, 100));
        assert_eq!((s.frames_sent, s.bytes_sent), (1, 60));
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.peak_write_queue, 4096);
        assert_eq!(s.handshakes_completed, 1);
        assert_eq!(s.handshakes_failed, 1);
        assert_eq!(s.aead_rejections, 2);
        assert_eq!(s.downgrades_refused, 1);
        assert_eq!(
            (s.answered_inline, s.socket_reads, s.socket_writes),
            (1, 2, 1)
        );
        assert_eq!(s.latency.count, 1);
        // Snapshots serialize for the bench report.
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("peak_write_queue"));
    }
}
