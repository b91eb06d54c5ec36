//! Counting-allocator proof that key-derived state is held once per key.
//!
//! Fig. 4 has the agent dispatch one keypair to all N clients. In one
//! process that is one allocation of key material and one CRT encryption
//! base (two combs — 16 KB at the 256-bit test size, 66 KB at 1024 bits),
//! however many clients hold the key. What a registration epoch keeps live
//! per client is then its registration, its decrypted registry and its copy
//! of the broadcast — well under 2 KiB — and a rotated-out key leaves nothing
//! behind. Timings swing with the host; live bytes do not. An integration
//! test is its own binary, so the counting `#[global_allocator]` observes
//! exactly this workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_select::protocol::{
    pump, run_registration, InMemoryTransport, PackingPolicy, RegistrationRun, ShardedCoordinator,
    Transport,
};
use dubhe_select::DubheConfig;
use rand::SeedableRng;

const KEY_BITS: u64 = 256;

/// Forwards to the system allocator, keeping live bytes and their
/// high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

/// Tests in one binary run concurrently; the global meter forces them to
/// take turns (a poisoned lock just means a sibling failed — carry on).
static TURN: Mutex<()> = Mutex::new(());

fn clients(n: usize, seed: u64) -> Vec<ClassDistribution> {
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: n,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    spec.build_partition(&mut rng).client_distributions()
}

/// A full in-memory registration of these clients, under 32-bit packing
/// or element-wise.
fn registration(
    dists: &[ClassDistribution],
    packed: bool,
    transport: &mut InMemoryTransport,
    rng: &mut rand::rngs::StdRng,
) -> RegistrationRun<ShardedCoordinator> {
    let n = dists.len();
    let policy = packed.then(|| PackingPolicy::new(32, KEY_BITS, n as u64).unwrap());
    let server = ShardedCoordinator::new(n, 1);
    let server = match policy {
        Some(policy) => server.with_packing(policy),
        None => server,
    };
    run_registration(
        dists,
        &DubheConfig::group1(),
        KEY_BITS,
        policy,
        server,
        transport,
        rng,
    )
    .unwrap()
}

/// The most bytes that registration holds live above what was live before
/// it started.
fn registration_peak(n: usize, packed: bool) -> usize {
    let dists = clients(n, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let run = registration(&dists, packed, &mut InMemoryTransport::new(), &mut rng);
    assert_eq!(run.clients.len(), n);
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn a_registration_epoch_holds_under_two_kib_per_extra_client() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Packed and element-wise alike: the transport holds the upload in
    // flight, not every client's waiting to be folded. The first run of
    // each shape fills the process-wide lazies (pool, arenas). Both cohorts
    // encrypt more than the 512 elements after which a key's shared batch
    // counter widens its tables (once, 522 KB here), so that one-off is in
    // both readings and cancels.
    for packed in [true, false] {
        registration_peak(100, packed);
        let (small, large) = (
            registration_peak(100, packed),
            registration_peak(250, packed),
        );
        let per_client = large.saturating_sub(small) / 150;
        // One comb pair per client would alone be 16 KB here.
        assert!(
            per_client < 2048,
            "packed {packed}: {per_client} B live per extra client \
             ({small} B at N = 100, {large} B at N = 250)"
        );
    }
}

#[test]
fn a_rotated_out_key_leaves_nothing_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let n = 12;
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let mut transport = InMemoryTransport::new();
    let mut run = registration(&clients(n, 9), true, &mut transport, &mut rng);
    // Every rotation builds a key, its tables and one CRT base, and every
    // client re-registers through that base. When the last handle to the
    // old key goes, so must all of it: live bytes after each rotation read
    // the same figure, to within the few limbs by which one key's bignums
    // normalise shorter than another's.
    let mut settled = Vec::new();
    for _ in 0..50 {
        for e in run.agent.rotate_epoch(n, &mut rng) {
            transport.send(e);
        }
        pump(
            &mut transport,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut rng,
        )
        .unwrap();
        settled.push(LIVE.load(Ordering::SeqCst));
    }
    assert_eq!(run.agent.epoch(), 50);
    let (low, high) = (
        *settled.iter().min().expect("fifty rotations"),
        *settled.iter().max().expect("fifty rotations"),
    );
    assert!(
        high - low < 4096,
        "live heap drifts across rotations: {low}..{high} B ({settled:?})"
    );
}
