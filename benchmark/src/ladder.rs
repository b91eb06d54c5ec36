//! The layer ladder: direct timed calls into one public function of one
//! layer at a time, at the workload's key size and vector lengths.
//!
//! Each entry is sampled until it has 100 samples, or 30 once a quarter of
//! a second has gone by (key generation, which is far slower, takes 5). The
//! reading is the median; the tail percentile the sample count supports is
//! printed beside it.

use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

use dubhe_he::{
    EncryptedVector, EpochEncryptor, Keypair, PackedEncryptedVector, PackedRunningFold, RunningFold,
};
use dubhe_select::protocol::{
    client_handshake, read_channel_frame, ChannelFrame, CodecKind, Coordinator, Envelope,
    NodeIdentity, PackingPolicy, Party, ProtocolMsg, RegistryFrame, SecureChannel, ServerHandshake,
    ShardedCoordinator, WireMsg, HANDSHAKE_WIRE_BYTES, MAX_FRAME_BYTES, SEALED_FRAME_OVERHEAD,
};
use num_bigint::{MontgomeryContext, MontgomeryScratch, RandBigInt};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{epoch_keypair, Reading, KEY_SEED, SERVER_IDENTITY_SEED};

/// Label classes of a distribution upload.
const CLASSES: usize = 10;
/// Cohort of the in-process coordinator entries: large enough that the
/// per-registry cost is steady, small enough to build thirty of them.
const COHORT: usize = 64;
/// Client budget of the packing policy the `he.pack_*` entries use when the
/// workload itself does not pack (`epoch_packed`'s own `N`).
const PACK_CLIENTS: u64 = 200;

pub struct LadderInputs<'a> {
    pub keypair: &'a Keypair,
    pub registry_len: usize,
    pub shards: usize,
    /// The workload's packing policy; `Some` makes the codec and
    /// coordinator entries use the packed message family.
    pub policy: Option<PackingPolicy>,
    /// Whether the workload's connections are sealed (decides
    /// `channel.overhead_bytes`, which is 0 on a plaintext workload).
    pub sealed: bool,
}

/// Collects samples from `measure` (seconds per call) under the module's
/// sampling rule.
fn sample(mut measure: impl FnMut() -> f64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(100);
    while samples.len() < 100 && (samples.len() < 30 || started.elapsed().as_millis() < 250) {
        samples.push(measure());
    }
    samples
}

/// Seconds `f` takes, its result kept alive past the stopwatch.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed().as_secs_f64();
    black_box(out);
    elapsed
}

/// A loopback-free duplex for the handshake entry: what the client writes
/// is parsed as `DBHS` frames and fed to a sans-IO [`ServerHandshake`],
/// whose replies become what the client reads next.
struct HandshakePipe {
    server: ServerHandshake,
    inbound: Vec<u8>,
    outbound: Vec<u8>,
    read_pos: usize,
    established: Option<SecureChannel>,
}

impl Write for HandshakePipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inbound.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut cur = &self.inbound[..];
        while !cur.is_empty() {
            let Ok((ChannelFrame::Handshake(payload), _)) =
                read_channel_frame(&mut cur, MAX_FRAME_BYTES)
            else {
                return Err(std::io::Error::other("not a whole handshake frame"));
            };
            let step = self
                .server
                .on_payload(&payload)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            if let Some(reply) = step.reply {
                self.outbound.extend_from_slice(&reply);
            }
            if step.established.is_some() {
                self.established = step.established;
            }
        }
        self.inbound.clear();
        Ok(())
    }
}

impl Read for HandshakePipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.outbound.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.outbound[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

/// One full mutual-authentication handshake, both sides' work, no socket:
/// `(client channel, server channel)`.
fn handshake() -> (SecureChannel, SecureChannel) {
    let mut pipe = HandshakePipe {
        server: ServerHandshake::new(NodeIdentity::from_seed(SERVER_IDENTITY_SEED)),
        inbound: Vec::new(),
        outbound: Vec::new(),
        read_pos: 0,
        established: None,
    };
    let client = client_handshake(
        &mut pipe,
        &NodeIdentity::from_seed(1),
        Some(NodeIdentity::from_seed(SERVER_IDENTITY_SEED).public_bytes()),
        MAX_FRAME_BYTES,
    )
    .expect("in-memory handshake");
    let server = pipe
        .established
        .expect("server side established by the client's confirmation");
    (client, server)
}

fn server_bound(client: usize, msg: ProtocolMsg) -> Envelope {
    Envelope {
        from: Party::Client(client),
        to: Party::Server,
        epoch: 0,
        msg,
    }
}

/// What the later rungs reuse from the `he` rung: one client's encryptor
/// and the ciphertexts it made.
struct Material {
    encryptor: EpochEncryptor,
    registry: EncryptedVector,
    packed: PackedEncryptedVector,
}

pub fn run(inputs: &LadderInputs<'_>) -> Vec<Reading> {
    let mut rng = StdRng::seed_from_u64(KEY_SEED ^ 1);
    let mut out = Vec::new();
    bigint(inputs, &mut rng, &mut out);
    let material = he(inputs, &mut rng, &mut out);
    let frame_bytes = codec(inputs, &material, &mut out);
    channel(inputs, frame_bytes, &mut out);
    coordinator(inputs, &material, &mut rng, &mut out);
    out
}

/// The CIOS kernel and a Paillier-shaped exponentiation (key-sized
/// exponent), both at the ciphertext modulus n².
fn bigint(inputs: &LadderInputs<'_>, rng: &mut StdRng, out: &mut Vec<Reading>) {
    let public = &inputs.keypair.public;
    let ctx = MontgomeryContext::new(public.n_squared());
    let b = ctx.to_montgomery(&rng.gen_biguint_below(public.n_squared()));
    let mut acc = ctx.to_montgomery(&rng.gen_biguint_below(public.n_squared()));
    let mut scratch = MontgomeryScratch::new();
    let samples = sample(|| {
        time(|| {
            for _ in 0..1000 {
                ctx.montgomery_mul_assign(&mut acc, &b, &mut scratch);
            }
        }) / 1000.0
    });
    black_box(&acc);
    out.push(Reading::timed("bigint.mont_mul_ns", "ns", 1e9, &samples));
    let base = rng.gen_biguint_below(public.n_squared());
    let exponent = rng.gen_biguint(public.bits());
    let samples = sample(|| time(|| ctx.modpow(&base, &exponent)));
    out.push(Reading::timed("bigint.modpow_us", "us", 1e6, &samples));
}

/// Key generation, then what one client and the coordinator's fold do with
/// the key, element-wise and slot-packed.
fn he(inputs: &LadderInputs<'_>, rng: &mut StdRng, out: &mut Vec<Reading>) -> Material {
    let (public, private) = (&inputs.keypair.public, &inputs.keypair.private);
    let key_bits = public.bits();

    // The fixed-seed key generation (and fixed-base table) set-up pays.
    let samples: Vec<f64> = (0..5).map(|_| time(|| epoch_keypair(key_bits))).collect();
    out.push(Reading::timed("he.keygen_ms", "ms", 1e3, &samples));

    // A fresh encryptor per sample, as in the epoch — a shared one would
    // widen its window tables after 512 elements and stop resembling a
    // client's.
    let mut onehot = vec![0u64; inputs.registry_len];
    onehot[inputs.registry_len / 2] = 1;
    let samples = sample(|| time(|| EpochEncryptor::for_key_material(public, Some(private), rng)));
    out.push(Reading::timed("he.encryptor_build_ms", "ms", 1e3, &samples));
    let samples = sample(|| {
        let encryptor = EpochEncryptor::for_key_material(public, Some(private), rng);
        time(|| EncryptedVector::encrypt_u64_with(&encryptor, &onehot, rng))
    });
    out.push(Reading::timed("he.encrypt_vec_ms", "ms", 1e3, &samples));
    let encryptor = EpochEncryptor::for_key_material(public, Some(private), rng);
    let registry = EncryptedVector::encrypt_u64_with(&encryptor, &onehot, rng);
    let samples = sample(|| time(|| registry.decrypt_u64(private)));
    out.push(Reading::timed("he.decrypt_vec_ms", "ms", 1e3, &samples));

    // The same registry through the slot-packed family.
    let pack_policy = inputs.policy.unwrap_or_else(|| {
        PackingPolicy::new(32, key_bits, PACK_CLIENTS).expect("32-bit slots hold 200 clients")
    });
    let packer = pack_policy.packer();
    let samples = sample(|| {
        let encryptor = EpochEncryptor::for_key_material(public, Some(private), rng);
        time(|| PackedEncryptedVector::encrypt_with(packer, &encryptor, &onehot, rng))
    });
    out.push(Reading::timed("he.pack_encrypt_ms", "ms", 1e3, &samples));
    let packed = PackedEncryptedVector::encrypt_with(packer, &encryptor, &onehot, rng)
        .expect("packed registry");
    let samples = sample(|| time(|| packed.decrypt_u64(private)));
    out.push(Reading::timed("he.pack_decrypt_ms", "ms", 1e3, &samples));
    let folds = cohort(Some(pack_policy)) - 1;
    let samples = sample(|| {
        let mut fold =
            PackedRunningFold::new(&packed, pack_policy.registry_model()).expect("seed fold");
        time(|| {
            for _ in 0..folds {
                fold.fold(&packed).expect("within the client budget");
            }
        }) / folds as f64
    });
    out.push(Reading::timed("he.pack_fold_us", "us", 1e6, &samples));

    // The coordinator's running fold: one vector in, total out.
    let mut fold = RunningFold::new(&registry);
    let samples = sample(|| {
        time(|| {
            for _ in 0..16 {
                fold.fold(&registry).expect("same key, same length");
            }
        }) / 16.0
    });
    out.push(Reading::timed("he.fold_vec_us", "us", 1e6, &samples));
    let samples = sample(|| time(|| fold.total()));
    out.push(Reading::timed("he.fold_total_us", "us", 1e6, &samples));

    Material {
        encryptor,
        registry,
        packed,
    }
}

/// Clients in a coordinator cohort: [`COHORT`], or the policy's client
/// budget when that is smaller.
fn cohort(policy: Option<PackingPolicy>) -> usize {
    policy.map_or(COHORT, |p| COHORT.min(p.max_clients() as usize))
}

/// The workload's registry upload: packed when the workload packs.
fn registry_msg(inputs: &LadderInputs<'_>, material: &Material, client: usize) -> ProtocolMsg {
    match inputs.policy {
        Some(_) => ProtocolMsg::PackedRegistry {
            client,
            registry: material.packed.clone(),
        },
        None => ProtocolMsg::EncryptedRegistry {
            client,
            registry: material.registry.clone(),
        },
    }
}

/// Encode, decode and zero-copy view of the workload's registry frame
/// (`DBH2`); returns the frame's size on the wire.
fn codec(inputs: &LadderInputs<'_>, material: &Material, out: &mut Vec<Reading>) -> usize {
    let wire = WireMsg::Envelope {
        envelope: server_bound(0, registry_msg(inputs, material, 0)),
    };
    let encode = || CodecKind::Binary.encode(&wire).expect("encodable registry");
    let payload = encode();
    let samples = sample(|| time(encode));
    out.push(Reading::timed("codec.encode_us", "us", 1e6, &samples));
    let samples = sample(|| time(|| CodecKind::Binary.decode(&payload)));
    out.push(Reading::timed("codec.decode_us", "us", 1e6, &samples));
    // The zero-copy view only exists for element-wise registries; packed
    // frames take the eager decode above on the live path too.
    let samples = if RegistryFrame::matches_prefix(&payload) {
        sample(|| {
            let copies: Vec<Vec<u8>> = (0..8).map(|_| payload.clone()).collect();
            time(|| {
                for copy in copies {
                    let frame = RegistryFrame::try_from_payload(copy).expect("registry prefix");
                    black_box(frame.view().expect("valid ciphertext block").len());
                }
            }) / 8.0
        })
    } else {
        Vec::new()
    };
    out.push(Reading::timed("codec.view_us", "us", 1e6, &samples));
    let frame_bytes = 8 + payload.len();
    out.push(Reading::exact("codec.frame_bytes", frame_bytes as f64, "B"));
    frame_bytes
}

/// The handshake (both sides, no socket), then seal / open of one registry
/// frame. The byte overhead is what a sealed session of one frame each way
/// pays; 0 when the workload runs plaintext.
fn channel(inputs: &LadderInputs<'_>, frame_bytes: usize, out: &mut Vec<Reading>) {
    let samples = sample(|| time(handshake));
    out.push(Reading::timed("channel.handshake_ms", "ms", 1e3, &samples));
    let (mut client, mut server) = handshake();
    let inner = vec![0xA5u8; frame_bytes];
    let mut sealed_frames = Vec::new();
    let samples = sample(|| {
        let started = Instant::now();
        let frame = client.seal_frame(&inner);
        let elapsed = started.elapsed().as_secs_f64();
        sealed_frames.push(frame);
        elapsed
    });
    out.push(Reading::timed("channel.seal_us", "us", 1e6, &samples));
    let samples: Vec<f64> = sealed_frames
        .iter()
        .map(|frame| time(|| server.open_payload(&frame[8..]).expect("in-sequence frame")))
        .collect();
    out.push(Reading::timed("channel.open_us", "us", 1e6, &samples));
    let overhead = if inputs.sealed {
        HANDSHAKE_WIRE_BYTES + 2 * SEALED_FRAME_OVERHEAD
    } else {
        0
    };
    out.push(Reading::exact(
        "channel.overhead_bytes",
        overhead as f64,
        "B",
    ));
}

/// In-process `ShardedCoordinator::deliver` at the workload's shard count,
/// through the live path's entry points (zero-copy frame for element-wise
/// registries, eager otherwise): a steady registry, a steady distribution,
/// and the registry that completes the cohort and builds the broadcast.
fn coordinator(
    inputs: &LadderInputs<'_>,
    material: &Material,
    rng: &mut StdRng,
    out: &mut Vec<Reading>,
) {
    let mut scaled = vec![0u64; CLASSES];
    scaled[0] = 100_000;
    let try_policy = inputs.policy.filter(|p| p.packs_tries());
    let packed_distribution = try_policy.map(|p| {
        PackedEncryptedVector::encrypt_with(p.packer(), &material.encryptor, &scaled, rng)
            .expect("packed distribution")
    });
    let plain_distribution = EncryptedVector::encrypt_u64_with(&material.encryptor, &scaled, rng);
    let distribution_msg = |client: usize| match &packed_distribution {
        Some(distribution) => ProtocolMsg::PackedDistribution {
            client,
            try_index: 0,
            distribution: distribution.clone(),
        },
        None => ProtocolMsg::EncryptedDistribution {
            client,
            try_index: 0,
            distribution: plain_distribution.clone(),
        },
    };

    let cohort = cohort(inputs.policy);
    let participants: Vec<usize> = (0..cohort).collect();
    let (mut registry_s, mut distribution_s, mut finish_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..30 {
        let mut coordinator = ShardedCoordinator::new(cohort, inputs.shards);
        if let Some(policy) = inputs.policy {
            coordinator = coordinator.with_packing(policy);
        }
        coordinator
            .deliver(Envelope {
                from: Party::Agent,
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::PublicKeyDispatch {
                    public_key: inputs.keypair.public.clone(),
                    private_key: None,
                },
            })
            .expect("key dispatch");
        for id in 0..cohort {
            let envelope = server_bound(id, registry_msg(inputs, material, id));
            let payload = CodecKind::Binary
                .encode(&WireMsg::Envelope {
                    envelope: envelope.clone(),
                })
                .expect("encodable registry");
            let seconds = match RegistryFrame::try_from_payload(payload) {
                Ok(frame) => time(|| coordinator.deliver_registry_frame(frame).expect("fold")),
                Err(_) => time(|| coordinator.deliver(envelope).expect("fold")),
            };
            // The first registry seeds the fold and the last one closes
            // the cohort; the ones between are the steady state.
            if id + 1 == cohort {
                finish_s.push(seconds);
            } else if id > 0 {
                registry_s.push(seconds);
            }
        }
        Coordinator::announce_try(&mut coordinator, 0, &participants).expect("announce");
        for id in 0..cohort - 1 {
            let envelope = server_bound(id, distribution_msg(id));
            let seconds = time(|| coordinator.deliver(envelope).expect("fold"));
            if id > 0 {
                distribution_s.push(seconds);
            }
        }
    }
    out.push(Reading::timed(
        "coordinator.registry_us",
        "us",
        1e6,
        &registry_s,
    ));
    out.push(Reading::timed(
        "coordinator.distribution_us",
        "us",
        1e6,
        &distribution_s,
    ));
    out.push(Reading::timed(
        "coordinator.finish_us",
        "us",
        1e6,
        &finish_s,
    ));
}
