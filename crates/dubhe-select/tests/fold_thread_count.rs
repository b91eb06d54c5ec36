//! Registry folds routed through `ShardedCoordinator` create no thread per
//! fold, at one shard (the fold runs inline) and at four (the shard fan-out
//! runs on the persistent pool, whose size is fixed once started).
//!
//! One test, alone in its binary: `Threads:` in `/proc/self/status` counts
//! the whole process, and with sibling tests the harness would be starting
//! and joining their threads while this one samples.

use dubhe_he::{EncryptedVector, Keypair};
use dubhe_select::protocol::{ProtocolMsg, ShardedCoordinator};
use rand::SeedableRng;

const CLIENTS: usize = 200;
const REGISTRY_LEN: usize = 10;

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn sharded_registry_folds_keep_the_thread_count_of_the_first_fold() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7C0);
    let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
    let registries: Vec<EncryptedVector> = (0..CLIENTS)
        .map(|i| {
            let mut v = vec![0u64; REGISTRY_LEN];
            v[i % REGISTRY_LEN] = 1;
            EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
        })
        .collect();

    for shards in [1, 4] {
        let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), CLIENTS, shards);
        let mut after_first = None;
        for (client, registry) in registries.iter().enumerate() {
            let registry = registry.clone();
            server
                .handle(ProtocolMsg::EncryptedRegistry { client, registry })
                .unwrap();
            if client == 0 {
                after_first = os_threads();
            } else {
                assert_eq!(
                    os_threads(),
                    after_first,
                    "{shards} shard(s): fold {client} changed the thread count"
                );
            }
        }
        assert!(server.encrypted_total().is_some());
    }
}
