//! The coordinator against a plain-integer reference model.
//!
//! [`Model`] is the honest-but-curious server of Fig. 4 / §5.3 written over
//! integers: bitmaps, counters and per-position `u64` sums, no ciphertext
//! and no code shared with `protocol/shard.rs`. A seeded driver feeds the
//! same random operation sequence — well-formed uploads and every refusal
//! the coordinator types (duplicates, strangers, wrong lengths, foreign
//! keys, foreign slot layouts, packed-vs-plain disagreement, stale and
//! future epochs, a private key at the server), closes, a zero straggler
//! deadline, resized epochs, crash + restore, eager and deferred-frame
//! delivery — to the model and to a real [`ShardedCoordinator`], and after
//! **every** step compares the reply addressees and kinds in order, the
//! typed error and its fields, the outcome log, the counters, and every
//! emitted total decrypted against the model's sums.
//!
//! Shapes: {1, 4} shards × {element-wise, packed 32-bit}. A failure names
//! its shape, seed and step; the sequence replays from the seed alone.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Duration;

use dubhe_he::{
    EncryptedVector, EpochEncryptor, HeError, Keypair, PackedEncryptedVector, Packer, TEST_KEY_BITS,
};
use dubhe_select::protocol::{
    codec, CohortOutcome, Coordinator, Envelope, MsgKind, PackingPolicy, Party, ProtocolMsg,
    RegistryFrame, ShardedCoordinator, WireMsg,
};
use dubhe_select::ProtocolError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;
const OPS: usize = 200;
/// Canonical ciphertext width, ⌈2·|n|/8⌉, and the width of one modulus.
const CIPHERTEXT_BYTES: usize = TEST_KEY_BITS as usize / 4;
const KEY_BYTES: usize = TEST_KEY_BITS as usize / 8;
/// The packed shapes' policy: 32-bit lanes, at most three clients per fold.
const SLOT_BITS: u32 = 32;
const BUDGET: u64 = 3;

/// A running plain-integer sum: the key its vectors travel under (0 = the
/// epoch key, 1 = a foreign one) and the per-position totals.
#[derive(Debug, Clone, PartialEq)]
struct Sum {
    key: usize,
    values: Vec<u64>,
}

/// One uploaded vector, as the integers the coordinator may react to.
#[derive(Debug, Clone)]
struct Upload {
    key: usize,
    /// The slot width when the vector travels packed.
    packed: Option<u32>,
    values: Vec<u64>,
}

impl Upload {
    /// How many ciphertexts carry the vector: one per value, or one per
    /// plaintext's worth of lanes (a plaintext keeps one slot of headroom).
    fn ciphertexts(&self) -> usize {
        match self.packed {
            None => self.values.len(),
            Some(slot_bits) => {
                let lanes = (TEST_KEY_BITS / slot_bits as u64 - 1) as usize;
                self.values.len().div_ceil(lanes)
            }
        }
    }
}

/// A server-bound message, as integers.
#[derive(Debug, Clone)]
enum Arrival {
    /// `(key, carries the private half)`
    Key(usize, bool),
    /// `(client, registry)`
    Registry(usize, Upload),
    /// `(client, try_index, distribution)`
    Distribution(usize, usize, Upload),
    /// `(best_try)`
    Verdict(usize),
    /// A total broadcast — which no server expects to receive.
    Broadcast(Upload),
}

impl Arrival {
    /// Canonical wire bytes: ciphertexts at their fixed width, key material
    /// per modulus-sized component, 8 bytes per scalar header field.
    fn wire_bytes(&self) -> usize {
        match self {
            Arrival::Key(_, private) => KEY_BYTES * (1 + *private as usize),
            Arrival::Registry(_, upload) => 8 + upload.ciphertexts() * CIPHERTEXT_BYTES,
            Arrival::Distribution(_, _, upload) => 16 + upload.ciphertexts() * CIPHERTEXT_BYTES,
            Arrival::Verdict(_) => 16,
            Arrival::Broadcast(upload) => upload.ciphertexts() * CIPHERTEXT_BYTES,
        }
    }
}

/// One envelope the server emits, with its total in the clear.
#[derive(Debug, PartialEq)]
struct Reply {
    to: Party,
    kind: MsgKind,
    packed: bool,
    /// `(try_index, contributors)` of a distribution sum.
    round: Option<(usize, usize)>,
    sum: Sum,
}

#[derive(Debug, Default)]
struct ModelTry {
    participants: Vec<usize>,
    contributed: Vec<usize>,
    sum: Option<Sum>,
}

/// The coordinator over integers.
#[derive(Debug, Default)]
struct Model {
    packing: bool,
    deadline: bool,
    epoch: u64,
    server_key: Option<usize>,
    registered: Vec<bool>,
    closed: bool,
    registry: Option<Sum>,
    tries: BTreeMap<usize, ModelTry>,
    outcomes: Vec<CohortOutcome>,
    verdict: Option<(usize, f64)>,
    messages: usize,
    bytes: usize,
}

type Replies = Result<Vec<Reply>, ProtocolError>;

/// Adds `upload` into `sum`, after the refusals a fold applies in order:
/// slot layout, length, client budget, key.
fn fold(sum: &mut Option<Sum>, folded: usize, upload: &Upload) -> Result<(), ProtocolError> {
    if let Some(got) = upload.packed.filter(|&bits| bits != SLOT_BITS) {
        return Err(ProtocolError::He(HeError::PackerMismatch {
            expected_slot_bits: SLOT_BITS,
            expected_key_bits: TEST_KEY_BITS,
            got_slot_bits: got,
            got_key_bits: TEST_KEY_BITS,
        }));
    }
    if let Some(sum) = sum
        .as_ref()
        .filter(|s| s.values.len() != upload.values.len())
    {
        return Err(ProtocolError::He(HeError::LengthMismatch {
            left: sum.values.len(),
            right: upload.values.len(),
        }));
    }
    if upload.packed.is_some() && folded as u64 + 1 > BUDGET {
        return Err(ProtocolError::He(HeError::ClientBudgetExhausted {
            folded: folded as u64 + 1,
            max_clients: BUDGET,
        }));
    }
    match sum {
        None => {
            *sum = Some(Sum {
                key: upload.key,
                values: upload.values.clone(),
            })
        }
        Some(sum) if sum.key != upload.key => return Err(ProtocolError::He(HeError::KeyMismatch)),
        Some(sum) => (sum.values.iter_mut().zip(&upload.values)).for_each(|(s, v)| *s += v),
    }
    Ok(())
}

impl Model {
    fn new(cohort: usize, packing: bool, deadline: bool) -> Self {
        Model {
            packing,
            deadline,
            registered: vec![false; cohort],
            ..Model::default()
        }
    }

    fn received(&self) -> usize {
        self.registered.iter().filter(|&&seen| seen).count()
    }

    fn begin_epoch(&mut self, epoch: u64, cohort: usize) {
        *self = Model {
            epoch,
            registered: vec![false; cohort],
            packing: self.packing,
            deadline: self.deadline,
            server_key: self.server_key,
            outcomes: std::mem::take(&mut self.outcomes),
            messages: self.messages,
            bytes: self.bytes,
            ..Model::default()
        };
    }

    /// A crash keeps what the snapshot carries: the registration phase.
    /// In-flight tries, the outcome log and the last verdict are gone.
    fn crash(&mut self) {
        self.tries.clear();
        self.outcomes.clear();
        self.verdict = None;
    }

    /// A packed phase admits only packed uploads, an element-wise one only
    /// element-wise uploads.
    fn representation(&self, kind: MsgKind, upload: &Upload) -> Result<(), ProtocolError> {
        if upload.packed.is_some() == self.packing {
            return Ok(());
        }
        Err(ProtocolError::PackingDisagreement {
            role: "server",
            expected_packed: self.packing,
            kind,
        })
    }

    fn settle_registration(&mut self, partial: bool) -> Replies {
        self.closed = true;
        self.outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: None,
            expected: self.registered.len(),
            contributed: self.received(),
            partial,
        });
        let contributors = (0..self.registered.len()).filter(|&id| self.registered[id]);
        Ok(contributors
            .map(Party::Client)
            .chain([Party::Agent])
            .map(|to| Reply {
                to,
                kind: MsgKind::TotalBroadcast,
                packed: self.packing,
                round: None,
                sum: self
                    .registry
                    .clone()
                    .expect("a closed registration has a sum"),
            })
            .collect())
    }

    fn close_registration(&mut self) -> Replies {
        if self.closed || self.registry.is_none() {
            return Err(ProtocolError::NothingToClose {
                what: "registration",
            });
        }
        self.settle_registration(true)
    }

    fn settle_try(&mut self, try_index: usize, partial: bool) -> Replies {
        let round = self
            .tries
            .remove(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        self.outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: round.participants.len(),
            contributed: round.contributed.len(),
            partial,
        });
        let sum = round
            .sum
            .ok_or(ProtocolError::NothingToClose { what: "try" })?;
        Ok(vec![Reply {
            to: Party::Agent,
            kind: MsgKind::DistributionSum,
            packed: self.packing,
            round: Some((try_index, round.contributed.len())),
            sum,
        }])
    }

    fn close_expired(&mut self) -> Replies {
        let mut out = Vec::new();
        if !self.deadline {
            return Ok(out);
        }
        for try_index in self.tries.keys().copied().collect::<Vec<_>>() {
            match self.settle_try(try_index, true) {
                Ok(replies) => out.extend(replies),
                Err(ProtocolError::NothingToClose { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if !self.closed && self.registry.is_some() {
            out.extend(self.settle_registration(true)?);
        }
        Ok(out)
    }

    fn deliver(&mut self, epoch: u64, arrival: &Arrival) -> Replies {
        let (received, current) = (epoch, self.epoch);
        if received < current {
            return Err(ProtocolError::StaleEpoch { received, current });
        }
        if received > current {
            if !matches!(arrival, Arrival::Key(..)) {
                return Err(ProtocolError::FutureEpoch { received, current });
            }
            // Only a key dispatch may carry the server into a newer epoch.
            self.begin_epoch(received, self.registered.len());
        }
        self.messages += 1;
        self.bytes += arrival.wire_bytes();
        match arrival {
            Arrival::Key(_, true) => Err(ProtocolError::PrivateKeyAtServer),
            Arrival::Key(key, false) => {
                self.server_key = Some(*key);
                Ok(Vec::new())
            }
            &Arrival::Registry(client, ref upload) => {
                self.representation(MsgKind::Registry, upload)?;
                if self.closed || self.received() == self.registered.len() {
                    return Err(ProtocolError::EpochComplete { client });
                }
                let try_index = None;
                match self.registered.get(client) {
                    None => return Err(ProtocolError::UnknownContributor { client, try_index }),
                    Some(true) => {
                        return Err(ProtocolError::DuplicateContribution { client, try_index })
                    }
                    Some(false) => {}
                }
                let folded = self.received();
                fold(&mut self.registry, folded, upload)?;
                self.registered[client] = true;
                if self.received() == self.registered.len() {
                    return self.settle_registration(false);
                }
                Ok(Vec::new())
            }
            &Arrival::Distribution(client, index, ref upload) => {
                self.representation(MsgKind::Distribution, upload)?;
                let round = self
                    .tries
                    .get_mut(&index)
                    .ok_or(ProtocolError::UnknownTry { try_index: index })?;
                let try_index = Some(index);
                if !round.participants.contains(&client) {
                    return Err(ProtocolError::UnknownContributor { client, try_index });
                }
                if round.contributed.contains(&client) {
                    return Err(ProtocolError::DuplicateContribution { client, try_index });
                }
                fold(&mut round.sum, round.contributed.len(), upload)?;
                round.contributed.push(client);
                if round.contributed.len() == round.participants.len() {
                    return self.settle_try(index, false);
                }
                Ok(Vec::new())
            }
            Arrival::Verdict(best_try) => {
                self.verdict = Some((*best_try, 0.25));
                Ok(Vec::new())
            }
            Arrival::Broadcast(_) => Err(ProtocolError::UnexpectedMessage {
                role: "server",
                kind: MsgKind::TotalBroadcast,
            }),
        }
    }
}

/// The two keypairs every sequence draws on (0 = epoch key, 1 = foreign),
/// with their encryptors — generated once per process.
struct Keys {
    pairs: [Keypair; 2],
    encryptors: [EpochEncryptor; 2],
}

fn keys() -> &'static Keys {
    static KEYS: OnceLock<Keys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let pairs = [(); 2].map(|()| Keypair::generate(TEST_KEY_BITS, &mut rng));
        let encryptors = [0, 1].map(|i| {
            EpochEncryptor::for_key_material(&pairs[i].public, Some(&pairs[i].private), &mut rng)
        });
        Keys { pairs, encryptors }
    })
}

/// Turns an [`Arrival`] into the real envelope it describes.
fn materialize(epoch: u64, arrival: &Arrival, rng: &mut StdRng) -> Envelope {
    let plain = |upload: &Upload, rng: &mut StdRng| {
        EncryptedVector::encrypt_u64_with(&keys().encryptors[upload.key], &upload.values, rng)
    };
    let packed = |slot_bits: u32, upload: &Upload, rng: &mut StdRng| {
        let packer = Packer::new(slot_bits, TEST_KEY_BITS);
        let encryptor = &keys().encryptors[upload.key];
        PackedEncryptedVector::encrypt_with(packer, encryptor, &upload.values, rng).unwrap()
    };
    let (from, msg) = match *arrival {
        Arrival::Key(key, private) => (
            Party::Agent,
            ProtocolMsg::PublicKeyDispatch {
                public_key: keys().pairs[key].public.clone(),
                private_key: private.then(|| keys().pairs[key].private.clone()),
            },
        ),
        Arrival::Registry(client, ref upload) => (
            Party::Client(client),
            match upload.packed {
                None => ProtocolMsg::EncryptedRegistry {
                    client,
                    registry: plain(upload, rng),
                },
                Some(bits) => ProtocolMsg::PackedRegistry {
                    client,
                    registry: packed(bits, upload, rng),
                },
            },
        ),
        Arrival::Distribution(client, try_index, ref upload) => (
            Party::Client(client),
            match upload.packed {
                None => ProtocolMsg::EncryptedDistribution {
                    client,
                    try_index,
                    distribution: plain(upload, rng),
                },
                Some(bits) => ProtocolMsg::PackedDistribution {
                    client,
                    try_index,
                    distribution: packed(bits, upload, rng),
                },
            },
        ),
        Arrival::Verdict(best_try) => (
            Party::Agent,
            ProtocolMsg::TryVerdict {
                best_try,
                distance: 0.25,
            },
        ),
        Arrival::Broadcast(ref upload) => (
            Party::Agent,
            ProtocolMsg::EncryptedTotalBroadcast {
                total: plain(upload, rng),
            },
        ),
    };
    Envelope {
        from,
        to: Party::Server,
        epoch,
        msg,
    }
}

/// Reads one emitted envelope back into integers, decrypting its total with
/// the key the model says the fold ran under.
fn observe(envelope: &Envelope, key: usize) -> Reply {
    let private = &keys().pairs[key].private;
    let round = |try_index: &usize, contributors: &usize| Some((*try_index, *contributors));
    let (round, values) = match &envelope.msg {
        ProtocolMsg::EncryptedTotalBroadcast { total } => {
            (None, total.decrypt_u64(private).unwrap())
        }
        ProtocolMsg::PackedTotalBroadcast { total } => (None, total.decrypt_u64(private).unwrap()),
        ProtocolMsg::EncryptedDistributionSum {
            try_index,
            contributors,
            sum,
        } => (
            round(try_index, contributors),
            sum.decrypt_u64(private).unwrap(),
        ),
        ProtocolMsg::PackedDistributionSum {
            try_index,
            contributors,
            sum,
        } => (
            round(try_index, contributors),
            sum.decrypt_u64(private).unwrap(),
        ),
        other => panic!("the server emitted a {:?}", other.kind()),
    };
    let packed = matches!(
        envelope.msg,
        ProtocolMsg::PackedTotalBroadcast { .. } | ProtocolMsg::PackedDistributionSum { .. }
    );
    Reply {
        to: envelope.to,
        kind: envelope.msg.kind(),
        packed,
        round,
        sum: Sum { key, values },
    }
}

/// One step of a sequence.
#[derive(Debug)]
enum Op {
    Deliver {
        epoch: u64,
        arrival: Arrival,
        /// Hand a registry over as a deferred `DBH2` frame instead.
        as_frame: bool,
    },
    Announce {
        try_index: usize,
        participants: Vec<usize>,
    },
    CloseRegistration,
    CloseTry(usize),
    CloseExpired,
    BeginEpoch {
        epoch: u64,
        cohort: usize,
    },
    Crash,
}

/// Draws an upload of nominally `len` values below `bound`, now and then
/// bent into one of the shapes a fold must refuse.
fn random_upload(rng: &mut StdRng, packing: bool, len: usize, bound: u64) -> Upload {
    let mut upload = Upload {
        key: 0,
        packed: packing.then_some(SLOT_BITS),
        values: Vec::new(),
    };
    let mut len = len;
    match rng.gen_range(0..24) {
        0 => len += 1,
        1 => len -= 1,
        2 => upload.key = 1,
        3 => upload.packed = (!packing).then_some(SLOT_BITS),
        4 if packing => upload.packed = Some(16),
        _ => {}
    }
    upload.values = (0..len).map(|_| rng.gen_range(0..bound)).collect();
    upload
}

fn random_op(rng: &mut StdRng, model: &Model, len: usize) -> Op {
    let cohort = model.registered.len();
    // Mostly what would move the protocol forward, so the sequences spend
    // their steps in live states: an id still awaited (else any id, or the
    // one past the cohort — a stranger), a try that is open (else any).
    let pick = |rng: &mut StdRng, awaited: Vec<usize>, any: usize| match awaited.len() {
        n if n > 0 && rng.gen_bool(0.75) => awaited[rng.gen_range(0..n)],
        _ => rng.gen_range(0..any),
    };
    let try_index = pick(rng, model.tries.keys().copied().collect(), 3);
    let announce = |rng: &mut StdRng| {
        let mut participants: Vec<usize> = (0..cohort + 1).collect();
        for i in (1..participants.len()).rev() {
            participants.swap(i, rng.gen_range(0..i + 1));
        }
        participants.truncate(rng.gen_range(1..5));
        Op::Announce {
            try_index: rng.gen_range(0..3),
            participants,
        }
    };
    let arrival = match rng.gen_range(0..100) {
        0..=39 if model.closed && rng.gen_bool(0.4) => {
            return Op::BeginEpoch {
                epoch: model.epoch + 1,
                cohort: rng.gen_range(1..6),
            }
        }
        0..=39 => {
            let awaited = (0..cohort).filter(|&id| !model.registered[id]).collect();
            let client = pick(rng, awaited, cohort + 1);
            Arrival::Registry(client, random_upload(rng, model.packing, len, 4))
        }
        40..=64 if model.tries.is_empty() && rng.gen_bool(0.6) => return announce(rng),
        40..=64 => {
            let awaited = model.tries.get(&try_index).map_or(Vec::new(), |round| {
                let waiting = |id: &&usize| !round.contributed.contains(id);
                round.participants.iter().filter(waiting).copied().collect()
            });
            let client = pick(rng, awaited, cohort + 1);
            let upload = random_upload(rng, model.packing, len, 1000);
            Arrival::Distribution(client, try_index, upload)
        }
        65..=69 => Arrival::Key(rng.gen_range(0..8usize) / 7, rng.gen_range(0..5) == 0),
        70..=72 => Arrival::Verdict(try_index),
        73 => Arrival::Broadcast(Upload {
            key: 0,
            packed: None,
            values: vec![1; len],
        }),
        74..=81 => return announce(rng),
        82..=84 => return Op::CloseRegistration,
        85..=88 => return Op::CloseTry(try_index),
        89..=92 => return Op::CloseExpired,
        93..=95 => {
            return Op::BeginEpoch {
                epoch: model.epoch + rng.gen_range(0..3u64),
                cohort: rng.gen_range(1..6),
            }
        }
        _ => return Op::Crash,
    };
    let epoch = match rng.gen_range(0..16) {
        0 => model.epoch.saturating_sub(1),
        1 => model.epoch + 1,
        _ => model.epoch,
    };
    let as_frame = matches!(arrival, Arrival::Registry(..)) && rng.gen_bool(0.5);
    Op::Deliver {
        epoch,
        arrival,
        as_frame,
    }
}

fn coordinator(cohort: usize, shards: usize, packing: bool) -> ShardedCoordinator {
    let server = ShardedCoordinator::new(cohort, shards);
    if !packing {
        return server;
    }
    server.with_packing(PackingPolicy::new(SLOT_BITS, TEST_KEY_BITS, BUDGET).unwrap())
}

fn run_sequence(shards: usize, packing: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Packed vectors span four ciphertexts, so four shards each own one.
    let len = if packing { 23 } else { 9 };
    let deadline = seed & 1 == 0;
    let cohort = rng.gen_range(1..6);
    let mut model = Model::new(cohort, packing, deadline);
    let mut real = coordinator(cohort, shards, packing);
    if deadline {
        real = real.with_straggler_deadline(Duration::ZERO);
    }

    for step in 0..OPS {
        let op = random_op(&mut rng, &model, len);
        let what = format!("shards {shards}, packed {packing}, seed {seed}, step {step}: {op:?}");
        let (expected, got) = match &op {
            Op::Deliver {
                epoch,
                arrival,
                as_frame,
            } => {
                let envelope = materialize(*epoch, arrival, &mut rng);
                let frame = as_frame
                    .then(|| {
                        codec::encode(&WireMsg::Envelope {
                            envelope: envelope.clone(),
                        })
                    })
                    .and_then(|payload| RegistryFrame::try_from_payload(payload.unwrap()).ok());
                let got = match frame {
                    Some(frame) => real.deliver_registry_frame(frame),
                    None => real.deliver(envelope),
                };
                (model.deliver(*epoch, arrival), got)
            }
            Op::Announce {
                try_index,
                participants,
            } => {
                let round = ModelTry {
                    participants: participants.clone(),
                    ..ModelTry::default()
                };
                model.tries.insert(*try_index, round);
                Coordinator::announce_try(&mut real, *try_index, participants).expect(&what);
                (Ok(Vec::new()), Ok(Vec::new()))
            }
            Op::CloseRegistration => (
                model.close_registration(),
                Coordinator::close_registration(&mut real),
            ),
            Op::CloseTry(try_index) => (
                model.settle_try(*try_index, true),
                Coordinator::close_try(&mut real, *try_index),
            ),
            Op::CloseExpired => (model.close_expired(), real.close_expired()),
            Op::BeginEpoch { epoch, cohort } => {
                model.begin_epoch(*epoch, *cohort);
                Coordinator::begin_epoch(&mut real, *epoch, *cohort).expect(&what);
                (Ok(Vec::new()), Ok(Vec::new()))
            }
            Op::Crash => {
                // All that survives is the snapshot bytes (the deadline is
                // configuration, re-applied by whoever restarts the server).
                let bytes = real.snapshot().expect(&what);
                real = ShardedCoordinator::restore(&bytes).expect(&what);
                assert_eq!(real.shards(), shards, "{what}");
                assert_eq!(real.packing().is_some(), packing, "{what}");
                if deadline {
                    real = real.with_straggler_deadline(Duration::ZERO);
                }
                model.crash();
                (Ok(Vec::new()), Ok(Vec::new()))
            }
        };

        match (&expected, &got) {
            (Ok(expected), Ok(got)) => {
                let addressed = |to: Party, kind: MsgKind| format!("{to:?} {kind:?}");
                let want: Vec<_> = expected.iter().map(|r| addressed(r.to, r.kind)).collect();
                let have: Vec<_> = (got.iter().map(|e| addressed(e.to, e.msg.kind()))).collect();
                assert_eq!(have, want, "{what}: addressees and kinds, in order");
                for (reply, envelope) in expected.iter().zip(got) {
                    assert_eq!(envelope.from, Party::Server, "{what}");
                    assert_eq!(envelope.epoch, model.epoch, "{what}");
                    assert_eq!(&observe(envelope, reply.sum.key), reply, "{what}");
                }
            }
            (Err(expected), Err(got)) => assert_eq!(got, expected, "{what}"),
            _ => panic!("{what}: the model says {expected:?}, the coordinator {got:?}"),
        }
        assert_eq!(real.cohort_outcomes(), &model.outcomes[..], "{what}");
        assert_eq!(real.messages_received(), model.messages, "{what}");
        assert_eq!(real.bytes_received(), model.bytes, "{what}");
        assert_eq!(real.epoch(), model.epoch, "{what}");
        assert_eq!(real.last_verdict(), model.verdict, "{what}");
        let server_key = model.server_key.map(|key| keys().pairs[key].public.n());
        assert_eq!(real.public_key().map(|pk| pk.n()), server_key, "{what}");
        // The running total is decrypted where it is likeliest to go wrong:
        // right after a crash, and at the end of the sequence.
        if matches!(op, Op::Crash) || step + 1 == OPS {
            let sum = model.registry.as_ref();
            let private = &keys().pairs[sum.map_or(0, |s| s.key)].private;
            let running = match packing {
                false => (real.encrypted_total()).map(|t| t.decrypt_u64(private).unwrap()),
                true => (real.packed_encrypted_total()).map(|t| t.decrypt_u64(private).unwrap()),
            };
            assert_eq!(running.as_ref(), sum.map(|s| &s.values), "{what}");
        }
    }
}

#[test]
fn one_shard_elementwise_matches_the_model() {
    (0..SEEDS).for_each(|seed| run_sequence(1, false, seed));
}

#[test]
fn four_shards_elementwise_match_the_model() {
    (0..SEEDS).for_each(|seed| run_sequence(4, false, seed));
}

#[test]
fn one_shard_packed_matches_the_model() {
    (0..SEEDS).for_each(|seed| run_sequence(1, true, seed));
}

#[test]
fn four_shards_packed_match_the_model() {
    (0..SEEDS).for_each(|seed| run_sequence(4, true, seed));
}
