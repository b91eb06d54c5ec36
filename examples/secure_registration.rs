//! Secure registration walk-through: the full Paillier-encrypted protocol of
//! Fig. 4, showing exactly what the server sees (ciphertexts only) and what
//! each client learns (the aggregate registry and its own probability).
//!
//! ```text
//! cargo run --release --example secure_registration
//! ```
//!
//! Key size defaults to 512 bits so the example finishes in seconds; pass
//! `--key-bits 2048` for the paper's production setting.

use dubhe::data::federated::{DatasetFamily, FederatedSpec};
use dubhe::he::{ciphertext_size_bytes, transport::plaintext_vector_bytes};
use dubhe::select::probability::participation_probability;
use dubhe::select::protocol::{run_registration, run_try, InMemoryTransport, ShardedCoordinator};
use dubhe::select::DubheConfig;
use rand::SeedableRng;

fn main() {
    let key_bits: u64 = std::env::args()
        .skip_while(|a| a != "--key-bits")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);

    // A small federation so the console output stays readable.
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 40,
        samples_per_client: 64,
        test_samples_per_class: 1,
        seed: 9,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let clients = spec.build_partition(&mut rng).client_distributions();
    let config = DubheConfig::group1();

    println!("== secure registration epoch ({key_bits}-bit Paillier) ==");
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(
        &clients,
        &config,
        key_bits,
        None,
        ShardedCoordinator::new(clients.len(), 1),
        &mut transport,
        &mut rng,
    )
    .expect("non-empty federation");
    let overall = run.overall_registry().expect("every client registered");
    let registrations = run.registrations().expect("every client registered");
    let layout = config.validate();
    let plaintext_bytes = plaintext_vector_bytes(layout.len());
    let ciphertext_bytes = layout.len() * ciphertext_size_bytes(run.agent.public_key());
    let stats = transport.stats();
    println!("agent client              : #{}", run.agent_id);
    println!("registries received       : {}", stats.registries.messages);
    println!(
        "ciphertext bytes received : {}",
        stats.uplink_registry_ciphertext_bytes
    );
    println!(
        "one registry              : {plaintext_bytes} B plaintext -> {ciphertext_bytes} B ciphertext ({:.0}x expansion)",
        ciphertext_bytes as f64 / plaintext_bytes as f64
    );

    println!("\noverall registry (decrypted by clients, occupied categories only):");
    for (pos, &count) in overall.iter().enumerate() {
        if count > 0 {
            let cat = layout.category_at(pos);
            println!("  category {:?} -> {count} clients", cat.classes);
        }
    }

    println!("\nper-client probabilities (first 10 clients):");
    for (id, reg) in registrations.iter().take(10).enumerate() {
        let p = participation_probability(overall, reg.position, config.k);
        println!(
            "  client {id:>2}: dominating classes {:?} -> P = {p:.3}",
            reg.category.classes
        );
    }
    let expected: f64 = registrations
        .iter()
        .map(|r| participation_probability(overall, r.position, config.k))
        .sum();
    println!(
        "expected participants (Eq. 7): {expected:.2} (target K = {})",
        config.k
    );

    // A secure multi-time tentative try under the same epoch key: the agent
    // learns only the aggregate.
    println!("\n== secure tentative try (encrypted p_l aggregation) ==");
    let selected: Vec<usize> = (0..20).collect();
    run.agent.expect_tries(1);
    run_try(
        0,
        &selected,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .expect("non-empty tentative set");
    let outcome = run.agent.try_outcomes().pop().expect("the try completed");
    println!("tentative clients          : {}", outcome.messages);
    println!("ciphertext bytes exchanged : {}", outcome.ciphertext_bytes);
    println!(
        "agent-side ||p_o - p_u||_1 : {:.4}",
        outcome.distance_to_uniform
    );
}
