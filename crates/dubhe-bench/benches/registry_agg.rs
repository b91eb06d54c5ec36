//! Scaling benchmark of registry aggregation: how fast can a coordinator
//! fold `N` client registries into one homomorphic sum, for `N` from 10² to
//! 10⁵?
//!
//! Three routes are timed over the same synthetic ciphertexts (uniform
//! residues below `n²` — the fold is arithmetic on residues, so synthetic
//! inputs measure exactly what real registries cost, without paying 10⁵
//! encryptions to set the sweep up):
//!
//! * `serial`   — the reference left-to-right `(acc · c) mod n²` fold
//!   ([`sum_vectors_serial`]), one full multiply + Knuth division per
//!   element;
//! * `mont`     — the Montgomery-domain batch fold ([`sum_vectors`]): one
//!   Montgomery multiply per element, one conversion out per position;
//! * `running`  — the coordinator-style incremental [`RunningFold`] (one
//!   vector at a time, as registries arrive over the wire);
//! * `packed16` / `packed32` — the slot-packed [`PackedRunningFold`]: the
//!   same length-56 registry laid into `⌈56 / lanes⌉` ciphertexts (16-bit
//!   slots → 15 lanes → 4 ciphertexts, 32-bit → 7 lanes → 8, at the CI key),
//!   so the coordinator multiplies ~7–14× fewer residues per client.
//!
//! All element-wise routes produce bit-identical totals, and the packed fold
//! is asserted bit-identical to the Montgomery batch fold over the same
//! packed ciphertexts. Besides the criterion groups, the binary writes
//! `results/BENCH_agg.json` with per-count timings and speedups (element-wise
//! and packed rows) so CI tracks the aggregation trajectory the way
//! `BENCH_wire.json` tracks framing
//! (`cargo bench -p dubhe-bench --bench registry_agg -- --test`).

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dubhe_bench::{allocs_during, synthetic_registries};
use dubhe_he::{
    sum_vectors, sum_vectors_serial, HeadroomModel, Keypair, PackedEncryptedVector,
    PackedRunningFold, Packer, PublicKey, RunningFold,
};
use rand::SeedableRng;
use serde::Serialize;

/// CI key size: the byte/op accounting scales with the modulus, the fold
/// structure does not, so a small key keeps the 10⁵ point affordable.
const KEY_BITS: u64 = 256;

/// Registry length of the paper's group-1 configuration.
const REGISTRY_LEN: usize = 56;

/// Slot widths the packed sweep covers (the two widths the protocol layer
/// deploys: 16-bit registry-only packing and 32-bit full packing).
const SLOT_WIDTHS: [u32; 2] = [16, 32];

/// Synthetic *packed* registries: the same uniform-residue trick as
/// [`synthetic_registries`], but over the `⌈len / lanes⌉` ciphertexts a
/// packed length-`len` registry actually ships. The fold is arithmetic on
/// residues either way, so this measures exactly what a packed coordinator
/// pays without `count` real pack-and-encrypt passes.
fn synthetic_packed_registries(
    public: &PublicKey,
    count: usize,
    len: usize,
    packer: Packer,
    seed: u64,
) -> Vec<PackedEncryptedVector> {
    let lanes = packer.slots_per_plaintext().expect("slot width fits key");
    synthetic_registries(public, count, len.div_ceil(lanes), seed)
        .into_iter()
        .map(|v| PackedEncryptedVector::from_vector(v, len, packer).expect("layout matches"))
        .collect()
}

fn bench_fold_routes(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA66);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut group = c.benchmark_group("registry_agg");
    group.sample_size(10);
    for count in [100usize, 1000] {
        let vectors = synthetic_registries(&kp.public, count, REGISTRY_LEN, 0xA66E);
        group.bench_with_input(BenchmarkId::new("serial", count), &vectors, |b, vs| {
            b.iter(|| sum_vectors_serial(black_box(vs)).unwrap().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("mont", count), &vectors, |b, vs| {
            b.iter(|| sum_vectors(black_box(vs)).unwrap().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("running", count), &vectors, |b, vs| {
            b.iter(|| {
                let mut fold = RunningFold::new(&vs[0]);
                for v in &vs[1..] {
                    fold.fold(v).unwrap();
                }
                fold.total()
            });
        });
        for slot_bits in SLOT_WIDTHS {
            let packer = Packer::new(slot_bits, KEY_BITS);
            let model = HeadroomModel::new(packer, count as u64, 1).unwrap();
            let packed =
                synthetic_packed_registries(&kp.public, count, REGISTRY_LEN, packer, 0xA66E);
            group.bench_with_input(
                BenchmarkId::new(format!("packed{slot_bits}"), count),
                &packed,
                |b, vs| {
                    b.iter(|| {
                        let mut fold = PackedRunningFold::new(&vs[0], model).unwrap();
                        for v in &vs[1..] {
                            fold.fold(v).unwrap();
                        }
                        fold.total()
                    });
                },
            );
        }
    }
    group.finish();
}

#[derive(Serialize)]
struct AggRow {
    clients: usize,
    registry_len: usize,
    key_bits: u64,
    serial_ms: f64,
    mont_ms: f64,
    running_fold_ms: f64,
    /// Serial reference over the Montgomery batch fold.
    speedup_mont: f64,
    /// Serial reference over the incremental running fold.
    speedup_running: f64,
    /// Montgomery batch throughput in folded elements per second.
    mont_elems_per_s: f64,
    /// Heap allocations per folded element in the Montgomery batch fold.
    /// `null` unless built with `--features count-allocs`; the scratch
    /// arenas hold this near zero (seeding amortises across the sweep).
    mont_allocs_per_element: Option<f64>,
    /// Same meter over the incremental running fold.
    running_allocs_per_element: Option<f64>,
}

#[derive(Serialize)]
struct PackedAggRow {
    clients: usize,
    registry_len: usize,
    key_bits: u64,
    slot_bits: u32,
    lanes_per_ciphertext: usize,
    /// Ciphertexts per client registry after packing (`⌈56 / lanes⌉`).
    ciphertexts: usize,
    packed_fold_ms: f64,
    /// Element-wise running fold at the same client count over the packed
    /// incremental fold — tracks the `56 / ciphertexts` layout reduction.
    speedup_vs_element_wise: f64,
    /// `registry_len / ciphertexts`, the work reduction the layout promises.
    ciphertext_reduction: f64,
}

#[derive(Serialize)]
struct AggReport {
    element_wise: Vec<AggRow>,
    packed: Vec<PackedAggRow>,
}

/// The 10²…10⁵ sweep behind `results/BENCH_agg.json`.
fn write_agg_report() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA66);
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let mut rows = Vec::new();
    for &count in &[100usize, 1_000, 10_000, 100_000] {
        let vectors = synthetic_registries(&kp.public, count, REGISTRY_LEN, 0xA66E);

        let t = Instant::now();
        let serial = sum_vectors_serial(&vectors).unwrap().unwrap();
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (mont, mont_allocs) = allocs_during(|| sum_vectors(&vectors).unwrap().unwrap());
        let mont_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (running, running_allocs) = allocs_during(|| {
            let mut fold = RunningFold::new(&vectors[0]);
            for v in &vectors[1..] {
                fold.fold(v).unwrap();
            }
            fold.total()
        });
        let running_fold_ms = t.elapsed().as_secs_f64() * 1e3;

        assert_eq!(mont, serial, "Montgomery batch fold diverged at {count}");
        assert_eq!(running, serial, "running fold diverged at {count}");

        let elems = (count * REGISTRY_LEN) as f64;
        rows.push(AggRow {
            clients: count,
            registry_len: REGISTRY_LEN,
            key_bits: KEY_BITS,
            serial_ms,
            mont_ms,
            running_fold_ms,
            speedup_mont: serial_ms / mont_ms,
            speedup_running: serial_ms / running_fold_ms,
            mont_elems_per_s: elems / (mont_ms / 1e3),
            mont_allocs_per_element: mont_allocs.map(|a| a as f64 / elems),
            running_allocs_per_element: running_allocs.map(|a| a as f64 / elems),
        });
    }
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "clients", "serial ms", "mont ms", "running ms", "mont x", "running x"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x {:>8.2}x",
            r.clients, r.serial_ms, r.mont_ms, r.running_fold_ms, r.speedup_mont, r.speedup_running
        );
    }

    // Packed sweep: the 10³-client point CI smokes, one row per slot width.
    // Bit-identity is asserted against the Montgomery batch fold over the
    // same packed ciphertexts, so the packed incremental route can never
    // drift from the reference arithmetic.
    let mut packed_rows = Vec::new();
    for &count in &[100usize, 1_000] {
        for slot_bits in SLOT_WIDTHS {
            let packer = Packer::new(slot_bits, KEY_BITS);
            let lanes = packer.slots_per_plaintext().unwrap();
            let model = HeadroomModel::new(packer, count as u64, 1).unwrap();
            let packed =
                synthetic_packed_registries(&kp.public, count, REGISTRY_LEN, packer, 0xA66E);

            let t = Instant::now();
            let mut fold = PackedRunningFold::new(&packed[0], model).unwrap();
            for v in &packed[1..] {
                fold.fold(v).unwrap();
            }
            let total = fold.total();
            let packed_fold_ms = t.elapsed().as_secs_f64() * 1e3;

            let inner: Vec<_> = packed.iter().map(|p| p.vector().clone()).collect();
            let reference = sum_vectors(&inner).unwrap().unwrap();
            assert_eq!(
                *total.vector(),
                reference,
                "packed fold diverged from the batch fold at {count}/{slot_bits}"
            );

            let element_wise_ms = rows
                .iter()
                .find(|r| r.clients == count)
                .expect("packed sweep points are a subset of the element-wise sweep")
                .running_fold_ms;
            let ciphertexts = total.ciphertext_count();
            packed_rows.push(PackedAggRow {
                clients: count,
                registry_len: REGISTRY_LEN,
                key_bits: KEY_BITS,
                slot_bits,
                lanes_per_ciphertext: lanes,
                ciphertexts,
                packed_fold_ms,
                speedup_vs_element_wise: element_wise_ms / packed_fold_ms,
                ciphertext_reduction: REGISTRY_LEN as f64 / ciphertexts as f64,
            });
        }
    }
    println!(
        "{:>8} {:>6} {:>6} {:>12} {:>10} {:>8}",
        "clients", "slots", "cts", "packed ms", "vs elems", "layout"
    );
    for r in &packed_rows {
        println!(
            "{:>8} {:>6} {:>6} {:>12.1} {:>9.2}x {:>7.2}x",
            r.clients,
            r.slot_bits,
            r.ciphertexts,
            r.packed_fold_ms,
            r.speedup_vs_element_wise,
            r.ciphertext_reduction
        );
    }

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    dubhe_bench::dump_json_at(
        &results,
        "BENCH_agg",
        &AggReport {
            element_wise: rows,
            packed: packed_rows,
        },
    );
}

criterion_group!(benches, bench_fold_routes);

fn main() {
    benches();
    write_agg_report();
}
