//! What every workload hands back to the run loop, and the listener
//! lifecycle both workload families share.

use std::time::{Duration, Instant};

use dubhe_he::{Keypair, PrecomputedEncryptor};
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    ChannelPolicy, Coordinator, ListenerStats, ShardedCoordinator, HANDSHAKE_WIRE_BYTES,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::proc::Rusage;
use crate::stats::summarize;
use crate::trace::Tracer;

/// One named reading. Timings carry their sample count and the tail
/// percentile that count supports; counts are exact and carry neither.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub tail: Option<(u32, f64)>,
}

impl Reading {
    /// A count, a ratio or a single measurement.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Reading {
        Reading {
            name,
            value,
            unit,
            samples: 1,
            tail: None,
        }
    }

    /// The median of `samples` (each multiplied by `scale` into `unit`);
    /// 0 from an empty sample, which is how a layer that a workload never
    /// enters reads.
    pub fn timed(name: &'static str, unit: &'static str, scale: f64, samples: &[f64]) -> Reading {
        if samples.is_empty() {
            return Reading {
                samples: 0,
                ..Reading::exact(name, 0.0, unit)
            };
        }
        let summary = summarize(samples);
        Reading {
            name,
            value: summary.median * scale,
            unit,
            samples: summary.count,
            tail: summary.tail.map(|(p, v)| (p, v * scale)),
        }
    }
}

/// The keypair comes from this constant, not from `--seed`: the prime
/// search is geometric in its seed, so a seed-dependent key would make
/// `setup_s` (and nothing else) swing by integer factors between seeds.
pub const KEY_SEED: u64 = 0xD0BE_2021;

/// The epoch keypair, exactly as `AgentNode::new` makes it: generation plus
/// the key's one-time fixed-base precomputation. The key's lazy tables draw
/// from whatever RNG first touches them, so they are filled here, from the
/// key's own stream — afterwards an epoch's randomness depends on `--seed`
/// alone and every epoch of a run draws the same selections.
pub fn epoch_keypair(key_bits: u64) -> Keypair {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let keypair = Keypair::generate(key_bits, &mut rng);
    let _ = PrecomputedEncryptor::new(&keypair.public, &mut rng);
    keypair
}

/// Fixed seed of the listener's long-term channel identity, so the clients
/// can pin it.
pub const SERVER_IDENTITY_SEED: u64 = 0x5EA1_1DE0_57A7_1C5E;

/// The result of one epoch (key dispatch → verdict) of any workload.
#[derive(Debug, Clone, Default)]
pub struct EpochOutcome {
    /// Wall time of the epoch, stopwatch around key dispatch → verdict only.
    pub wall_s: f64,
    /// What the whole process (generator and listener threads) spent
    /// between the same two points.
    pub cpu: Rusage,
    /// Protocol operations (request/reply exchanges) the epoch planned.
    pub attempted: u64,
    /// Operations that failed. An `Error` reply, a typed error, a time-out
    /// or a failed gate fails every operation of the epoch: once one fold
    /// is wrong, nothing the epoch produced can be trusted.
    pub failed: u64,
    /// Every byte the listener's sockets carried for the session, both
    /// directions, handshakes and sealing included.
    pub wire_bytes: u64,
    /// The listener's own counters for the session.
    pub listener: ListenerStats,
    /// Per-frame round trips in µs, recorded only while tracing:
    /// `(registry frames, distribution frames)`.
    pub rtt_us: (Vec<f64>, Vec<f64>),
    /// Why the epoch is not correct (empty when every gate passed).
    pub errors: Vec<String>,
}

impl EpochOutcome {
    /// The epoch could not run (or finish): every operation it planned
    /// counts as failed.
    pub fn abort(mut self, why: String) -> EpochOutcome {
        self.errors.push(why);
        self.settle()
    }

    /// Applies the rule that a failed gate fails every operation of its
    /// epoch.
    pub fn settle(mut self) -> EpochOutcome {
        if !self.errors.is_empty() {
            self.failed = self.attempted;
        }
        self
    }
}

/// A benchmark workload: set-up once, then any number of identical epochs.
pub trait Workload {
    /// Everything set-up builds and the epochs reuse.
    type Ready;

    fn name(&self) -> &'static str;
    /// The population size `N` that `wire_bytes_per_client` divides by.
    fn clients(&self) -> usize;
    /// Client connections the generator opens (never more than `nproc`).
    fn connections(&self) -> usize;
    /// One line of parameters for the header.
    fn describe(&self) -> String;

    /// Builds inputs from `seed`, generates the key, computes the
    /// in-process reference and runs one untimed warm-up epoch over the
    /// wire. Everything lazy in the program is warm afterwards.
    fn set_up(&self, seed: u64, tracer: &mut Tracer) -> Result<Self::Ready, String>;

    /// Runs one epoch against a fresh coordinator + listener + connection
    /// and checks every gate.
    fn run_epoch(&self, ready: &Self::Ready, tracer: &mut Tracer) -> EpochOutcome;

    /// Direct timed calls into single layers at this workload's parameters.
    fn ladder(&self, ready: &Self::Ready) -> Vec<Reading>;
}

/// Cores the host gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Spawns the in-process reactor listener (its event-loop and router
/// threads are the program under test, not the generator). Loopback only.
pub fn spawn_listener(
    coordinator: ShardedCoordinator,
    channel: ChannelPolicy,
) -> Result<ReactorListener<ShardedCoordinator>, String> {
    let config = ReactorConfig::default()
        .with_channel(channel)
        .with_identity_seed(SERVER_IDENTITY_SEED);
    ReactorListener::spawn_with(coordinator, config).map_err(|e| format!("spawn listener: {e}"))
}

/// Waits until the listener has closed every connection it accepted (the
/// clients have sent their `Shutdown` frames), so its counters are final —
/// a reply is counted just *after* the write that lets the client read it —
/// then stops it and returns the counters and the coordinator.
pub fn finish_listener<C: Coordinator + Send + 'static>(
    listener: ReactorListener<C>,
    connections: usize,
) -> Result<(ListenerStats, C), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = listener.stats();
        if stats.connections_accepted >= connections
            && stats.connections_closed == stats.connections_accepted
        {
            let coordinator = listener
                .shutdown()
                .ok_or_else(|| "listener router thread panicked".to_string())?;
            return Ok((stats, coordinator));
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "listener still holds {} of {} connections 10 s after shutdown frames",
                stats.connections_open, stats.connections_accepted
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Every byte the session put on the listener's sockets.
pub fn wire_bytes(stats: &ListenerStats) -> u64 {
    (stats.bytes_received + stats.bytes_sent + stats.handshakes_completed * HANDSHAKE_WIRE_BYTES)
        as u64
}

/// The socket-level gates every epoch must pass: one completed handshake
/// per connection on a sealed workload (none on a plaintext one) and not a
/// single refused, rejected or dropped frame.
pub fn listener_gates(
    stats: &ListenerStats,
    connections: usize,
    sealed: bool,
    errors: &mut Vec<String>,
) {
    let mut expect = |what: &str, got: usize, want: usize| {
        if got != want {
            errors.push(format!("listener {what} = {got}, expected {want}"));
        }
    };
    expect(
        "connections_accepted",
        stats.connections_accepted,
        connections,
    );
    expect(
        "handshakes_completed",
        stats.handshakes_completed,
        if sealed { connections } else { 0 },
    );
    expect("handshakes_failed", stats.handshakes_failed, 0);
    expect("decode_errors", stats.decode_errors, 0);
    expect("truncated_frames", stats.truncated_frames, 0);
    expect("aead_rejections", stats.aead_rejections, 0);
    expect(
        "backpressure_disconnects",
        stats.backpressure_disconnects,
        0,
    );
    expect("downgrades_refused", stats.downgrades_refused, 0);
    expect(
        "frames_sent + 1 shutdown per connection",
        stats.frames_sent + connections,
        stats.frames_received,
    );
}
