//! Criterion benchmarks of the pluggable wire codecs: encode/decode
//! throughput and bytes-per-message for `DBH1` (JSON) and `DBH2` (canonical
//! binary) over the representative protocol payloads — a length-56 encrypted registry upload (element-wise
//! and slot-packed at 16- and 32-bit widths) and a 10-class encrypted
//! distribution.
//!
//! Besides the criterion timings, the binary writes
//! `results/BENCH_wire.json` with the measured bytes-per-message,
//! per-operation latencies and the packed-registry byte reduction, so CI
//! records the wire-format trajectory run over run — including the packing
//! acceptance bar: a 32-bit-slot packed length-56 registry must ship at
//! least 4× fewer binary payload bytes than the element-wise upload
//! (`cargo bench -p dubhe-bench --bench wire_codec -- --test`).

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dubhe_he::{EncryptedVector, Keypair, PackedEncryptedVector, Packer};
use dubhe_select::protocol::{CodecKind, Envelope, Party, ProtocolMsg, WireMsg};
use rand::SeedableRng;
use serde::Serialize;

const KEY_BITS: u64 = 512;

/// Wraps one protocol message in the envelope every sample shares.
fn enveloped(msg: ProtocolMsg) -> WireMsg {
    WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Client(7),
            to: Party::Server,
            epoch: 0,
            msg,
        },
    }
}

/// The payloads the §6.4 overhead model is made of: a registry upload
/// (registration epoch, element-wise and packed at both deployed slot
/// widths) and a scaled label distribution (multi-time round).
fn sample_messages() -> Vec<(&'static str, WireMsg)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut registry = vec![0u64; 56];
    registry[17] = 1;
    let packed_s16 =
        PackedEncryptedVector::encrypt(Packer::new(16, KEY_BITS), &kp.public, &registry, &mut rng)
            .expect("16-bit slots fit the bench key");
    let packed_s32 =
        PackedEncryptedVector::encrypt(Packer::new(32, KEY_BITS), &kp.public, &registry, &mut rng)
            .expect("32-bit slots fit the bench key");
    let registry = EncryptedVector::encrypt_u64(&kp.public, &registry, &mut rng);
    let distribution =
        EncryptedVector::encrypt_u64(&kp.public, &[100u64, 3, 5, 8, 1, 0, 9, 2, 4, 7], &mut rng);
    vec![
        (
            "registry_l56",
            enveloped(ProtocolMsg::EncryptedRegistry {
                client: 7,
                registry,
            }),
        ),
        (
            "packed_registry_l56_s16",
            enveloped(ProtocolMsg::PackedRegistry {
                client: 7,
                registry: packed_s16,
            }),
        ),
        (
            "packed_registry_l56_s32",
            enveloped(ProtocolMsg::PackedRegistry {
                client: 7,
                registry: packed_s32,
            }),
        ),
        (
            "distribution_c10",
            enveloped(ProtocolMsg::EncryptedDistribution {
                client: 7,
                try_index: 2,
                distribution,
            }),
        ),
    ]
}

fn bench_encode(c: &mut Criterion) {
    let msgs = sample_messages();
    let mut group = c.benchmark_group("wire_encode");
    for (name, msg) in &msgs {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            group.bench_with_input(BenchmarkId::new(*name, codec.name()), msg, |b, msg| {
                b.iter(|| codec.encode(black_box(msg)).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let msgs = sample_messages();
    let mut group = c.benchmark_group("wire_decode");
    for (name, msg) in &msgs {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            let payload = codec.encode(msg).unwrap();
            group.bench_with_input(
                BenchmarkId::new(*name, codec.name()),
                &payload,
                |b, payload| {
                    b.iter(|| codec.decode(black_box(payload)).unwrap());
                },
            );
        }
    }
    group.finish();
}

#[derive(Serialize)]
struct WireRow {
    message: &'static str,
    codec: &'static str,
    payload_bytes: usize,
    encode_ns: f64,
    decode_ns: f64,
}

#[derive(Serialize)]
struct PackedReduction {
    slot_bits: u32,
    /// Binary (`DBH2`) payload bytes of the element-wise length-56 registry.
    element_wise_bytes: usize,
    /// Binary (`DBH2`) payload bytes of the packed length-56 registry.
    packed_bytes: usize,
    reduction: f64,
}

#[derive(Serialize)]
struct WireReport {
    rows: Vec<WireRow>,
    /// Measured packed-vs-element-wise registry reductions; the 32-bit row
    /// carries the ≥4× acceptance bar asserted at report time.
    packed_registry_reduction: Vec<PackedReduction>,
}

/// Measures bytes-per-message and per-op latency for both codecs and writes
/// `results/BENCH_wire.json`. Runs a single iteration in `--test` mode so
/// the CI smoke step stays fast but still records the byte sizes.
fn write_wire_report() {
    let iters: u32 = if std::env::args().any(|a| a == "--test") {
        1
    } else {
        200
    };
    let mut rows = Vec::new();
    for (name, msg) in &sample_messages() {
        for codec in [CodecKind::Json, CodecKind::Binary] {
            let payload = codec.encode(msg).unwrap();
            let t = Instant::now();
            for _ in 0..iters {
                black_box(codec.encode(black_box(msg)).unwrap());
            }
            let encode_ns = t.elapsed().as_nanos() as f64 / iters as f64;
            let t = Instant::now();
            for _ in 0..iters {
                black_box(codec.decode(black_box(&payload)).unwrap());
            }
            let decode_ns = t.elapsed().as_nanos() as f64 / iters as f64;
            rows.push(WireRow {
                message: name,
                codec: codec.name(),
                payload_bytes: payload.len(),
                encode_ns,
                decode_ns,
            });
        }
    }
    for group in rows.chunks(3) {
        let dbh1 = group[0].payload_bytes as f64;
        let sized: Vec<String> = group
            .iter()
            .map(|r| {
                format!(
                    "{}: {:>7} B ({:.2}x)",
                    r.codec,
                    r.payload_bytes,
                    dbh1 / r.payload_bytes as f64
                )
            })
            .collect();
        println!("{:<24} {}", group[0].message, sized.join("   "));
    }
    // Packed-registry acceptance: the binary payload of the slot-packed
    // length-56 registry against the element-wise one, per slot width. The
    // 32-bit row is the protocol's full-packing deployment and must come in
    // at ≥ 4× fewer bytes.
    let binary_bytes = |message: &str| {
        rows.iter()
            .find(|r| r.message == message && r.codec == CodecKind::Binary.name())
            .expect("every sample message has a binary row")
            .payload_bytes
    };
    let element_wise_bytes = binary_bytes("registry_l56");
    let mut packed_registry_reduction = Vec::new();
    for slot_bits in [16u32, 32] {
        let packed_bytes = binary_bytes(&format!("packed_registry_l56_s{slot_bits}"));
        let reduction = element_wise_bytes as f64 / packed_bytes as f64;
        println!(
            "packed s{slot_bits:<2} registry: {packed_bytes:>7} B vs {element_wise_bytes} B element-wise ({reduction:.2}x smaller)"
        );
        packed_registry_reduction.push(PackedReduction {
            slot_bits,
            element_wise_bytes,
            packed_bytes,
            reduction,
        });
        assert!(
            slot_bits != 32 || element_wise_bytes >= 4 * packed_bytes,
            "32-bit-slot packing must cut the length-56 registry at least 4x \
             ({element_wise_bytes} B -> {packed_bytes} B)"
        );
    }

    // Benches run with the package directory as cwd; aim for the workspace
    // root's results/ where every other machine-readable artifact lives.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    dubhe_bench::dump_json_at(
        &results,
        "BENCH_wire",
        &WireReport {
            rows,
            packed_registry_reduction,
        },
    );
}

criterion_group!(benches, bench_encode, bench_decode);

fn main() {
    benches();
    write_wire_report();
}
