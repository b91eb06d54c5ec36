//! The sharded coordinator: registry positions partitioned across N folds.
//!
//! A single [`CoordinatorServer`](super::roles::CoordinatorServer) keeps one
//! running homomorphic fold of length `registry_len`. At millions of clients
//! the fold itself becomes the bottleneck: every arriving registry costs
//! `registry_len` modular multiplications on one state object. The
//! [`ShardedCoordinator`] splits the *positions* `0..registry_len` into `N`
//! contiguous shards, each holding its own running fold of its slice; an
//! arriving vector is sliced once and the per-shard folds advance in parallel
//! (rayon) because they touch disjoint state. When the epoch completes, the
//! shard folds are concatenated back into the full encrypted overall registry.
//!
//! Because Paillier addition is element-wise and the shards partition the
//! element index space, the sharded fold performs *exactly* the same modular
//! multiplications in the same per-element order as the single fold — the
//! merged result is bit-identical for any shard count, which the equivalence
//! tests pin for `N ∈ {1, 4}`.
//!
//! Sharding changes nothing about the threat model: every shard still holds
//! only ciphertext slices and the public key (see `docs/THREAT_MODEL.md`).

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use dubhe_he::{
    codec as he_codec, EncryptedVector, HeError, HeadroomModel, PackedEncryptedVector, Packer,
    PublicKey, RunningFold,
};

use super::codec::RegistryFrame;
use super::message::{Envelope, MsgKind, Party, ProtocolMsg};
use super::packing::PackingPolicy;
use super::roles::{CohortOutcome, Coordinator};
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// The contiguous position ranges of an `len`-element vector split into
/// `shards` near-equal parts (earlier shards get the remainder).
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    (0..shards)
        .map(|i| (i * len) / shards..((i + 1) * len) / shards)
        .collect()
}

/// Advances every shard fold by its slice of `v`, in parallel across shards.
/// `folds` and `v`-slices are disjoint per shard, so the folds are
/// independent; each shard's [`RunningFold`] accumulates its slice in the
/// Montgomery domain (one Montgomery multiply per position), and each element
/// still sees the same multiplication order as the unsharded fold — the
/// merged result stays bit-identical.
///
/// A vector whose length disagrees with the partition is rejected with the
/// same `HeError::LengthMismatch` the single coordinator's fold raises —
/// the two deployments accept exactly the same message set.
fn fold_sharded(
    folds: &mut [Option<RunningFold>],
    v: &EncryptedVector,
    ranges: &[Range<usize>],
) -> Result<(), ProtocolError> {
    use rayon::prelude::*;
    let expected = ranges.last().map_or(0, |r| r.end);
    if v.len() != expected {
        return Err(ProtocolError::He(dubhe_he::HeError::LengthMismatch {
            left: expected,
            right: v.len(),
        }));
    }
    // Move each fold out of its slot, advance all slots in parallel (each is
    // a disjoint &mut chunk — no cloning of the running folds), move back.
    let mut work: Vec<Result<Option<RunningFold>, ProtocolError>> =
        folds.iter_mut().map(|slot| Ok(slot.take())).collect();
    work.par_chunks_mut(1).enumerate().for_each(|(i, chunk)| {
        let prev = match chunk[0].as_mut() {
            Ok(prev) => prev.take(),
            Err(_) => return,
        };
        chunk[0] = (|| {
            let slice = v.slice(ranges[i].start, ranges[i].end)?;
            Ok(Some(match prev {
                None => RunningFold::new(&slice),
                Some(mut fold) => {
                    fold.fold(&slice)?;
                    fold
                }
            }))
        })();
    });
    for (slot, fold) in work.into_iter().zip(folds.iter_mut()) {
        *fold = slot?;
    }
    Ok(())
}

/// The zero-copy counterpart of [`fold_sharded`]: advances every shard fold
/// by its borrowed slice of a deferred frame's residue block, in parallel
/// across shards. No per-element ciphertext is ever materialised — each
/// shard multiplies residues straight out of the frame bytes — and the
/// merged result stays bit-identical to the eager sharded fold.
fn fold_sharded_view(
    folds: &mut [Option<RunningFold>],
    v: &he_codec::EncryptedVectorView<'_>,
    ranges: &[Range<usize>],
) -> Result<(), ProtocolError> {
    use rayon::prelude::*;
    let expected = ranges.last().map_or(0, |r| r.end);
    if v.len() != expected {
        return Err(ProtocolError::He(HeError::LengthMismatch {
            left: expected,
            right: v.len(),
        }));
    }
    let mut work: Vec<Result<Option<RunningFold>, ProtocolError>> =
        folds.iter_mut().map(|slot| Ok(slot.take())).collect();
    work.par_chunks_mut(1).enumerate().for_each(|(i, chunk)| {
        let prev = match chunk[0].as_mut() {
            Ok(prev) => prev.take(),
            Err(_) => return,
        };
        chunk[0] = (|| {
            let slice = v.residue_range(ranges[i].start, ranges[i].end);
            Ok(Some(match prev {
                None => RunningFold::from_view(&slice),
                Some(mut fold) => {
                    fold.fold_view(&slice)?;
                    fold
                }
            }))
        })();
    });
    for (slot, fold) in work.into_iter().zip(folds.iter_mut()) {
        *fold = slot?;
    }
    Ok(())
}

/// Merges per-shard folds back into the full vector (`None` if no shard has
/// folded anything yet), converting each shard's state out of the Montgomery
/// domain.
fn merge(folds: &[Option<RunningFold>]) -> Result<Option<EncryptedVector>, ProtocolError> {
    let parts: Vec<EncryptedVector> = folds
        .iter()
        .filter_map(|f| f.as_ref().map(RunningFold::total))
        .collect();
    if parts.len() != folds.len() {
        return Ok(None);
    }
    Ok(EncryptedVector::concat(&parts)?)
}

/// The packed counterpart of [`fold_sharded`]: validates one arriving
/// [`PackedEncryptedVector`] against the cohort's [`HeadroomModel`] exactly
/// like the single coordinator's `PackedRunningFold` would — slot layout,
/// lane count, then the client budget, all **before** any multiply — and
/// then advances the shard folds over the *ciphertext* index space. Shard
/// boundaries over ciphertext indices never split a plaintext, so each lane
/// stays whole inside one shard and the merged total is bit-identical to the
/// single packed fold.
fn fold_sharded_packed(
    folds: &mut [Option<RunningFold>],
    ranges_slot: &mut Option<Vec<Range<usize>>>,
    lanes: &mut Option<usize>,
    folded_so_far: usize,
    v: &PackedEncryptedVector,
    model: HeadroomModel,
    shards: usize,
) -> Result<(), ProtocolError> {
    model.check_packer(&v.packer())?;
    if let Some(expected) = *lanes {
        if v.count() != expected {
            return Err(ProtocolError::He(HeError::LengthMismatch {
                left: expected,
                right: v.count(),
            }));
        }
    }
    model.check_budget(folded_so_far as u64 + 1)?;
    let ranges = ranges_slot
        .get_or_insert_with(|| shard_ranges(v.ciphertext_count(), shards))
        .clone();
    fold_sharded(folds, v.vector(), &ranges)?;
    *lanes = Some(v.count());
    Ok(())
}

/// Merges per-shard folds of a packed aggregation back into one
/// [`PackedEncryptedVector`] of `lanes` logical lanes.
fn merge_packed(
    folds: &[Option<RunningFold>],
    lanes: usize,
    packer: Packer,
) -> Result<Option<PackedEncryptedVector>, ProtocolError> {
    match merge(folds)? {
        None => Ok(None),
        Some(vector) => Ok(Some(
            PackedEncryptedVector::from_vector(vector, lanes, packer).map_err(ProtocolError::He)?,
        )),
    }
}

/// Per-try sharded aggregation state.
#[derive(Debug, Clone)]
struct ShardedTryFold {
    participants: Vec<ClientId>,
    contributed: Vec<bool>,
    received: usize,
    ranges: Option<Vec<Range<usize>>>,
    folds: Vec<Option<RunningFold>>,
    /// Logical lane count of the packed vectors folded so far (`None` for an
    /// element-wise try, or before the first packed contribution).
    lanes: Option<usize>,
    /// When the try was announced — the straggler clock.
    opened: Instant,
}

/// A coordinator whose registry positions are partitioned across `N` shard
/// folds. Drop-in replacement for
/// [`CoordinatorServer`](super::roles::CoordinatorServer) in the driver's
/// [`Coordinator`] slot: same message handling, same validation, same emitted
/// envelopes — and bit-identical ciphertext totals on the same inputs.
#[derive(Debug)]
pub struct ShardedCoordinator {
    shards: usize,
    public_key: Option<PublicKey>,
    registered: Vec<bool>,
    registrations_received: usize,
    /// Position ranges, fixed by the first registry's length (ciphertext
    /// count for a packed cohort — ciphertext boundaries never split a
    /// plaintext, so the partition is automatically lane-aligned).
    registry_ranges: Option<Vec<Range<usize>>>,
    registry_folds: Vec<Option<RunningFold>>,
    /// Logical lane count of the packed registries folded so far.
    registry_lanes: Option<usize>,
    /// When set, packed-only folds under the policy's headroom budget —
    /// identical acceptance policy to the single coordinator's.
    packing: Option<PackingPolicy>,
    /// `true` once the registration total has been broadcast — naturally or
    /// by a partial close.
    registration_closed: bool,
    /// The current key-rotation epoch.
    epoch: u64,
    /// When the current registration phase opened — the straggler clock.
    registration_opened: Instant,
    /// If set, [`close_expired`](Self::close_expired) partially closes any
    /// aggregation open longer than this.
    straggler_deadline: Option<Duration>,
    tries: BTreeMap<usize, ShardedTryFold>,
    cohort_outcomes: Vec<CohortOutcome>,
    last_verdict: Option<(usize, f64)>,
    bytes_received: usize,
    messages_received: usize,
}

impl ShardedCoordinator {
    /// A sharded coordinator expecting `expected_registrations` registry
    /// uploads this epoch, with positions split across `shards` folds.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(expected_registrations: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedCoordinator {
            shards,
            public_key: None,
            registered: vec![false; expected_registrations],
            registrations_received: 0,
            registry_ranges: None,
            registry_folds: vec![None; shards],
            registry_lanes: None,
            packing: None,
            registration_closed: false,
            epoch: 0,
            registration_opened: Instant::now(),
            straggler_deadline: None,
            tries: BTreeMap::new(),
            cohort_outcomes: Vec::new(),
            last_verdict: None,
            bytes_received: 0,
            messages_received: 0,
        }
    }

    /// Builder: sets the straggler deadline after which
    /// [`close_expired`](Self::close_expired) partially closes an open
    /// aggregation. No deadline (the default) means aggregations stay open
    /// until closed explicitly.
    pub fn with_straggler_deadline(mut self, deadline: Duration) -> Self {
        self.straggler_deadline = Some(deadline);
        self
    }

    /// Builder: installs a [`PackingPolicy`] — same acceptance policy and
    /// budget enforcement as
    /// [`CoordinatorServer::with_packing`](super::roles::CoordinatorServer::with_packing),
    /// with the shard partition computed over ciphertext indices (which
    /// never split a plaintext, so lanes stay whole within a shard).
    pub fn with_packing(mut self, policy: PackingPolicy) -> Self {
        self.packing = Some(policy);
        self
    }

    /// The installed packing policy, if any.
    pub fn packing(&self) -> Option<&PackingPolicy> {
        self.packing.as_ref()
    }

    /// A sharded coordinator that already learned the epoch public key
    /// out-of-band (sessions that skip the key-dispatch step).
    pub fn with_public_key(
        public_key: PublicKey,
        expected_registrations: usize,
        shards: usize,
    ) -> Self {
        ShardedCoordinator {
            public_key: Some(public_key),
            ..ShardedCoordinator::new(expected_registrations, shards)
        }
    }

    /// The number of shard folds.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The epoch public key, once dispatched.
    pub fn public_key(&self) -> Option<&PublicKey> {
        self.public_key.as_ref()
    }

    /// The running encrypted overall registry, merged across shards on
    /// demand (`None` until every shard has folded at least one slice).
    pub fn encrypted_total(&self) -> Option<EncryptedVector> {
        merge(&self.registry_folds).ok().flatten()
    }

    /// The running **packed** encrypted overall registry, merged across
    /// shards on demand.
    pub fn packed_encrypted_total(&self) -> Option<PackedEncryptedVector> {
        let (lanes, policy) = (self.registry_lanes?, self.packing.as_ref()?);
        merge_packed(&self.registry_folds, lanes, policy.packer())
            .ok()
            .flatten()
    }

    /// Canonical wire bytes received so far.
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }

    /// Messages received so far.
    pub fn messages_received(&self) -> usize {
        self.messages_received
    }

    /// The agent's verdict for the last multi-time round, if any.
    pub fn last_verdict(&self) -> Option<(usize, f64)> {
        self.last_verdict
    }

    /// The coordinator's current key-rotation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every closed aggregation so far (registrations and tries, partial and
    /// natural), in close order.
    pub fn cohort_outcomes(&self) -> &[CohortOutcome] {
        &self.cohort_outcomes
    }

    /// Checks an incoming envelope's epoch stamp — identical policy to
    /// [`CoordinatorServer`](super::roles::CoordinatorServer): a key dispatch
    /// from a newer epoch advances the coordinator, anything else from the
    /// wrong epoch is a typed error.
    fn check_epoch(&mut self, envelope: &Envelope) -> Result<(), ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => Ok(()),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => {
                if matches!(envelope.msg, ProtocolMsg::PublicKeyDispatch { .. }) {
                    let expected = self.registered.len();
                    self.enter_epoch(envelope.epoch, expected);
                    Ok(())
                } else {
                    Err(ProtocolError::FutureEpoch {
                        received: envelope.epoch,
                        current: self.epoch,
                    })
                }
            }
        }
    }

    /// Resets all per-epoch aggregation state for `epoch` with a cohort of
    /// `expected_registrations`.
    fn enter_epoch(&mut self, epoch: u64, expected_registrations: usize) {
        self.epoch = epoch;
        self.registered = vec![false; expected_registrations];
        self.registrations_received = 0;
        self.registry_ranges = None;
        self.registry_folds = vec![None; self.shards];
        self.registry_lanes = None;
        self.registration_closed = false;
        self.registration_opened = Instant::now();
        self.tries.clear();
        self.last_verdict = None;
    }

    /// Explicitly opens a new epoch with a resized cohort.
    pub fn begin_epoch(&mut self, epoch: u64, expected_registrations: usize) {
        self.enter_epoch(epoch, expected_registrations);
    }

    /// The registration broadcast for the current merged fold, addressed to
    /// every *contributing* client plus the agent. The shards are merged
    /// once; every addressee's copy is a handle on that one total, as in
    /// [`CoordinatorServer`](super::roles::CoordinatorServer).
    fn registration_broadcast(&self) -> Result<Vec<Envelope>, ProtocolError> {
        let msg = match (&self.packing, self.registry_lanes) {
            (Some(policy), Some(lanes)) => ProtocolMsg::PackedTotalBroadcast {
                total: merge_packed(&self.registry_folds, lanes, policy.packer())?
                    .expect("caller checked a fold exists"),
            },
            _ => ProtocolMsg::EncryptedTotalBroadcast {
                total: merge(&self.registry_folds)?.expect("caller checked a fold exists"),
            },
        };
        let mut out = Vec::with_capacity(self.registrations_received + 1);
        for (id, seen) in self.registered.iter().enumerate() {
            if *seen {
                out.push(Envelope {
                    from: Party::Server,
                    to: Party::Client(id),
                    epoch: self.epoch,
                    msg: msg.clone(),
                });
            }
        }
        out.push(Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        });
        Ok(out)
    }

    /// Closes registration with whatever registries arrived. One registry
    /// folds **all** shards (the positions partition its index space), so a
    /// partial cohort still has every shard populated and merges exactly
    /// like a complete one.
    pub fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        if self.registration_closed || self.registry_folds.iter().all(Option::is_none) {
            return Err(ProtocolError::NothingToClose {
                what: "registration",
            });
        }
        self.registration_closed = true;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: None,
            expected: self.registered.len(),
            contributed: self.registrations_received,
            partial: true,
        });
        self.registration_broadcast()
    }

    /// Closes one tentative try with whatever contributions arrived. See
    /// [`Coordinator::close_try`].
    pub fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        let slot = self
            .tries
            .remove(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: slot.participants.len(),
            contributed: slot.received,
            partial: true,
        });
        if slot.received == 0 {
            return Err(ProtocolError::NothingToClose { what: "try" });
        }
        let msg = match (&self.packing, slot.lanes) {
            (Some(policy), Some(lanes)) => ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: merge_packed(&slot.folds, lanes, policy.packer())?
                    .expect("every shard folded"),
            },
            _ => ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: merge(&slot.folds)?.expect("every shard folded"),
            },
        };
        Ok(vec![Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        }])
    }

    /// Partially closes every aggregation open longer than the configured
    /// straggler deadline — same semantics as
    /// [`CoordinatorServer::close_expired`](super::roles::CoordinatorServer::close_expired).
    pub fn close_expired(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        let Some(deadline) = self.straggler_deadline else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let expired: Vec<usize> = self
            .tries
            .iter()
            .filter(|(_, slot)| slot.opened.elapsed() >= deadline)
            .map(|(&i, _)| i)
            .collect();
        for try_index in expired {
            match self.close_try(try_index) {
                Ok(envelopes) => out.extend(envelopes),
                Err(ProtocolError::NothingToClose { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if !self.registration_closed
            && self.registry_folds.iter().any(Option::is_some)
            && self.registration_opened.elapsed() >= deadline
        {
            out.extend(self.close_registration()?);
        }
        Ok(out)
    }

    /// Serializes the coordinator's registration-phase state for crash
    /// recovery: epoch, cohort bitmap, accounting, public key, registry
    /// length and every shard fold (raw in-domain residues). The shard
    /// ranges are *not* stored — they are a pure function of
    /// `(registry_len, shards)` and are recomputed on restore. In-flight
    /// tries are not captured: a restarted coordinator re-announces them.
    pub fn snapshot(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::new();
        he_codec::put_u64(&mut out, self.epoch);
        out.push(self.registration_closed as u8);
        he_codec::put_u32(&mut out, self.shards as u32);
        he_codec::put_u32(&mut out, self.registered.len() as u32);
        out.extend(self.registered.iter().map(|&b| b as u8));
        he_codec::put_u64(&mut out, self.registrations_received as u64);
        he_codec::put_u64(&mut out, self.bytes_received as u64);
        he_codec::put_u64(&mut out, self.messages_received as u64);
        match &self.public_key {
            None => out.push(0),
            Some(pk) => {
                out.push(1);
                he_codec::encode_public_key(pk, &mut out);
            }
        }
        match &self.packing {
            None => out.push(0),
            Some(policy) => {
                out.push(1);
                policy.encode(&mut out);
            }
        }
        match &self.registry_ranges {
            None => out.push(0),
            Some(ranges) => {
                out.push(1);
                he_codec::put_u64(&mut out, ranges.last().map_or(0, |r| r.end) as u64);
                if self.packing.is_some() {
                    // A packed cohort's ranges cover ciphertext indices; the
                    // logical lane count is also needed to rebuild totals.
                    he_codec::put_u64(&mut out, self.registry_lanes.unwrap_or(0) as u64);
                }
            }
        }
        for fold in &self.registry_folds {
            match fold {
                None => out.push(0),
                Some(fold) => {
                    out.push(1);
                    let snap = fold.snapshot().map_err(ProtocolError::He)?;
                    he_codec::put_u32(&mut out, snap.len() as u32);
                    out.extend_from_slice(&snap);
                }
            }
        }
        Ok(out)
    }

    /// Rebuilds a sharded coordinator from a [`snapshot`](Self::snapshot).
    /// Every restored shard fold is bit-identical to the serialized one, so
    /// a resumed registration merges to exactly the total an uninterrupted
    /// coordinator would have broadcast.
    pub fn restore(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let he = ProtocolError::He;
        let cur = &mut &bytes[..];
        let take_flag = |cur: &mut &[u8]| -> Result<bool, ProtocolError> {
            match he_codec::take_bytes(cur, 1).map_err(he)?[0] {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(ProtocolError::MalformedFrame {
                    detail: "snapshot flag byte is not 0 or 1".into(),
                }),
            }
        };
        let epoch = he_codec::take_u64(cur).map_err(he)?;
        let registration_closed = take_flag(cur)?;
        let shards = he_codec::take_u32(cur).map_err(he)? as usize;
        if shards == 0 {
            return Err(ProtocolError::MalformedFrame {
                detail: "snapshot claims zero shards".into(),
            });
        }
        let expected = he_codec::take_u32(cur).map_err(he)? as usize;
        if expected > cur.len() {
            return Err(ProtocolError::MalformedFrame {
                detail: "snapshot cohort bitmap overruns the payload".into(),
            });
        }
        let registered: Vec<bool> = he_codec::take_bytes(cur, expected)
            .map_err(he)?
            .iter()
            .map(|&b| b != 0)
            .collect();
        let registrations_received = he_codec::take_u64(cur).map_err(he)? as usize;
        if registrations_received != registered.iter().filter(|&&b| b).count() {
            return Err(ProtocolError::MalformedFrame {
                detail: "snapshot registration count disagrees with its cohort bitmap".into(),
            });
        }
        let bytes_received = he_codec::take_u64(cur).map_err(he)? as usize;
        let messages_received = he_codec::take_u64(cur).map_err(he)? as usize;
        let public_key = if take_flag(cur)? {
            Some(he_codec::decode_public_key(cur).map_err(he)?)
        } else {
            None
        };
        let packing = if take_flag(cur)? {
            Some(PackingPolicy::decode(cur)?)
        } else {
            None
        };
        if let Some(policy) = &packing {
            // A tampered snapshot cannot resurrect a cohort past its budget.
            policy
                .registry_model()
                .check_budget(registrations_received as u64)
                .map_err(he)?;
        }
        let mut registry_lanes = None;
        let registry_ranges = if take_flag(cur)? {
            let len = he_codec::take_u64(cur).map_err(he)? as usize;
            if let Some(policy) = &packing {
                let lanes = he_codec::take_u64(cur).map_err(he)? as usize;
                let per = policy.packer().slots_per_plaintext().map_err(he)?;
                if len != lanes.div_ceil(per) {
                    return Err(ProtocolError::MalformedFrame {
                        detail: "snapshot lane count disagrees with its shard partition".into(),
                    });
                }
                registry_lanes = Some(lanes);
            }
            Some(shard_ranges(len, shards))
        } else {
            None
        };
        let mut registry_folds = Vec::with_capacity(shards);
        for _ in 0..shards {
            registry_folds.push(if take_flag(cur)? {
                let len = he_codec::take_u32(cur).map_err(he)? as usize;
                let snap = he_codec::take_bytes(cur, len).map_err(he)?;
                Some(RunningFold::restore(snap).map_err(he)?)
            } else {
                None
            });
        }
        let mut server = ShardedCoordinator::new(0, shards);
        server.epoch = epoch;
        server.registration_closed = registration_closed;
        server.registered = registered;
        server.registrations_received = registrations_received;
        server.bytes_received = bytes_received;
        server.messages_received = messages_received;
        server.public_key = public_key;
        server.packing = packing;
        server.registry_ranges = registry_ranges;
        server.registry_lanes = registry_lanes;
        server.registry_folds = registry_folds;
        Ok(server)
    }

    /// Announces one tentative try: see
    /// [`CoordinatorServer::announce_try`](super::roles::CoordinatorServer::announce_try).
    pub fn announce_try(&mut self, try_index: usize, participants: &[ClientId]) {
        let mut sorted = participants.to_vec();
        sorted.sort_unstable();
        let contributed = vec![false; sorted.len()];
        self.tries.insert(
            try_index,
            ShardedTryFold {
                participants: sorted,
                contributed,
                received: 0,
                ranges: None,
                folds: vec![None; self.shards],
                lanes: None,
                opened: Instant::now(),
            },
        );
    }

    /// Shared registration bookkeeping — same policy as
    /// `CoordinatorServer::claim_registration_slot`: one registry per known
    /// client, none after the close. Marks the client's slot.
    fn claim_registration_slot(&mut self, client: ClientId) -> Result<(), ProtocolError> {
        if self.registration_closed || self.registrations_received == self.registered.len() {
            return Err(ProtocolError::EpochComplete { client });
        }
        match self.registered.get_mut(client) {
            None => Err(ProtocolError::UnknownContributor {
                client,
                try_index: None,
            }),
            Some(seen) if *seen => Err(ProtocolError::DuplicateContribution {
                client,
                try_index: None,
            }),
            Some(seen) => {
                *seen = true;
                Ok(())
            }
        }
    }

    /// Counts one accepted registration and broadcasts the merged total when
    /// the cohort completes.
    fn finish_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        self.registrations_received += 1;
        if self.registrations_received == self.registered.len() {
            self.registration_closed = true;
            self.cohort_outcomes.push(CohortOutcome {
                epoch: self.epoch,
                try_index: None,
                expected: self.registered.len(),
                contributed: self.registrations_received,
                partial: false,
            });
            self.registration_broadcast()
        } else {
            Ok(Vec::new())
        }
    }

    /// Shared per-try bookkeeping: announced try, announced participant,
    /// first contribution. Marks it and returns the participant index.
    fn claim_try_slot(
        &mut self,
        try_index: usize,
        client: ClientId,
    ) -> Result<usize, ProtocolError> {
        let slot = self
            .tries
            .get_mut(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        let idx = slot.participants.binary_search(&client).map_err(|_| {
            ProtocolError::UnknownContributor {
                client,
                try_index: Some(try_index),
            }
        })?;
        if slot.contributed[idx] {
            return Err(ProtocolError::DuplicateContribution {
                client,
                try_index: Some(try_index),
            });
        }
        slot.contributed[idx] = true;
        Ok(idx)
    }

    /// If every announced participant contributed, removes the try and
    /// forwards its merged sum — packed when the try folded packed vectors.
    fn finish_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        let done = {
            let slot = self.tries.get(&try_index).expect("claimed above");
            slot.received == slot.participants.len()
        };
        if !done {
            return Ok(Vec::new());
        }
        let slot = self.tries.remove(&try_index).expect("present");
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: slot.participants.len(),
            contributed: slot.received,
            partial: false,
        });
        let msg = match (&self.packing, slot.lanes) {
            (Some(policy), Some(lanes)) => ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: merge_packed(&slot.folds, lanes, policy.packer())?.expect("non-empty try"),
            },
            _ => ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: merge(&slot.folds)?.expect("non-empty try"),
            },
        };
        Ok(vec![Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        }])
    }

    /// Handles one incoming message, returning the messages it triggers.
    /// The accepted/rejected message set is identical to the single
    /// coordinator's, as is every emitted envelope.
    pub fn handle(&mut self, msg: ProtocolMsg) -> Result<Vec<Envelope>, ProtocolError> {
        self.messages_received += 1;
        self.bytes_received += msg.wire_bytes();
        match msg {
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            } => {
                if private_key.is_some() {
                    return Err(ProtocolError::PrivateKeyAtServer);
                }
                self.public_key = Some(public_key);
                Ok(Vec::new())
            }
            ProtocolMsg::EncryptedRegistry { client, registry } => {
                if self.packing.is_some() {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: true,
                        kind: MsgKind::Registry,
                    });
                }
                self.claim_registration_slot(client)?;
                let ranges = self
                    .registry_ranges
                    .get_or_insert_with(|| shard_ranges(registry.len(), self.shards))
                    .clone();
                // Mirror the single coordinator: a rejected payload must not
                // burn the client's registration slot.
                if let Err(e) = fold_sharded(&mut self.registry_folds, &registry, &ranges) {
                    self.registered[client] = false;
                    return Err(e);
                }
                self.finish_registration()
            }
            ProtocolMsg::PackedRegistry { client, registry } => {
                let Some(policy) = self.packing else {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: false,
                        kind: MsgKind::Registry,
                    });
                };
                self.claim_registration_slot(client)?;
                if let Err(e) = fold_sharded_packed(
                    &mut self.registry_folds,
                    &mut self.registry_ranges,
                    &mut self.registry_lanes,
                    self.registrations_received,
                    &registry,
                    policy.registry_model(),
                    self.shards,
                ) {
                    self.registered[client] = false;
                    return Err(e);
                }
                self.finish_registration()
            }
            ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution,
            } => {
                if self.packing.is_some_and(|p| p.packs_tries()) {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: true,
                        kind: MsgKind::Distribution,
                    });
                }
                let shards = self.shards;
                let idx = self.claim_try_slot(try_index, client)?;
                let slot = self.tries.get_mut(&try_index).expect("claimed above");
                let ranges = slot
                    .ranges
                    .get_or_insert_with(|| shard_ranges(distribution.len(), shards))
                    .clone();
                if let Err(e) = fold_sharded(&mut slot.folds, &distribution, &ranges) {
                    slot.contributed[idx] = false;
                    return Err(e);
                }
                slot.received += 1;
                self.finish_try(try_index)
            }
            ProtocolMsg::PackedDistribution {
                client,
                try_index,
                distribution,
            } => {
                let Some(model) = self.packing.and_then(|p| p.try_model()) else {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: false,
                        kind: MsgKind::Distribution,
                    });
                };
                let shards = self.shards;
                let idx = self.claim_try_slot(try_index, client)?;
                let slot = self.tries.get_mut(&try_index).expect("claimed above");
                let received = slot.received;
                if let Err(e) = fold_sharded_packed(
                    &mut slot.folds,
                    &mut slot.ranges,
                    &mut slot.lanes,
                    received,
                    &distribution,
                    model,
                    shards,
                ) {
                    slot.contributed[idx] = false;
                    return Err(e);
                }
                slot.received += 1;
                self.finish_try(try_index)
            }
            ProtocolMsg::TryVerdict { best_try, distance } => {
                self.last_verdict = Some((best_try, distance));
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "server",
                kind: other.kind(),
            }),
        }
    }
}

impl Coordinator for ShardedCoordinator {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.check_epoch(&envelope)?;
        ShardedCoordinator::handle(self, envelope.msg)
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        ShardedCoordinator::announce_try(self, try_index, participants);
        Ok(())
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        ShardedCoordinator::begin_epoch(self, epoch, expected_registrations);
        Ok(())
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        ShardedCoordinator::close_registration(self)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        ShardedCoordinator::close_try(self, try_index)
    }

    fn deliver_registry_frame(
        &mut self,
        frame: RegistryFrame,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        // Mirror of `CoordinatorServer::deliver_registry_frame`, with the
        // fold fanned out across shards over the borrowed residue block.
        let view = frame.view()?;
        match frame.epoch().cmp(&self.epoch) {
            std::cmp::Ordering::Equal => {}
            std::cmp::Ordering::Less => {
                return Err(ProtocolError::StaleEpoch {
                    received: frame.epoch(),
                    current: self.epoch,
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(ProtocolError::FutureEpoch {
                    received: frame.epoch(),
                    current: self.epoch,
                })
            }
        }
        self.messages_received += 1;
        self.bytes_received += 8 + view.ciphertext_payload_bytes();
        if self.packing.is_some() {
            return Err(ProtocolError::PackingDisagreement {
                role: "server",
                expected_packed: true,
                kind: MsgKind::Registry,
            });
        }
        let client = frame.client();
        self.claim_registration_slot(client)?;
        let ranges = self
            .registry_ranges
            .get_or_insert_with(|| shard_ranges(view.len(), self.shards))
            .clone();
        if let Err(e) = fold_sharded_view(&mut self.registry_folds, &view, &ranges) {
            self.registered[client] = false;
            return Err(e);
        }
        self.finish_registration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dubhe_he::Keypair;
    use rand::SeedableRng;

    #[test]
    fn ranges_partition_the_index_space() {
        for (len, shards) in [(56, 4), (53, 4), (10, 3), (3, 8), (0, 2), (1, 1)] {
            let ranges = shard_ranges(len, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[shards - 1].end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous partition");
            }
        }
    }

    #[test]
    fn sharded_fold_is_bit_identical_to_single_fold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let vectors: Vec<EncryptedVector> = (0..6)
            .map(|i| {
                let mut v = vec![0u64; 13];
                v[i % 13] = 1;
                v[(i * 5) % 13] += 2;
                EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
            })
            .collect();

        // Single fold: left-to-right add.
        let mut single = vectors[0].clone();
        for v in &vectors[1..] {
            single = single.add(v).unwrap();
        }

        for shards in [1, 4] {
            let ranges = shard_ranges(13, shards);
            let mut folds = vec![None; shards];
            for v in &vectors {
                fold_sharded(&mut folds, v, &ranges).unwrap();
            }
            let merged = merge(&folds).unwrap().unwrap();
            assert_eq!(merged.len(), single.len());
            for (m, s) in merged.elements().iter().zip(single.elements()) {
                assert_eq!(m.raw(), s.raw(), "shards={shards}");
            }
        }
    }

    #[test]
    fn length_mismatch_is_rejected_exactly_like_the_single_coordinator() {
        use super::super::roles::CoordinatorServer;

        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let registry = |len: usize, rng: &mut rand::rngs::StdRng| ProtocolMsg::EncryptedRegistry {
            client: 0,
            registry: EncryptedVector::encrypt_u64(&kp.public, &vec![1u64; len], rng),
        };
        let second = |len: usize, rng: &mut rand::rngs::StdRng| ProtocolMsg::EncryptedRegistry {
            client: 1,
            registry: EncryptedVector::encrypt_u64(&kp.public, &vec![1u64; len], rng),
        };

        // A longer AND a shorter second vector must fail identically on both
        // coordinator shapes (the sharded one must not silently truncate).
        for mismatched in [11usize, 5] {
            let mut single = CoordinatorServer::with_public_key(kp.public.clone(), 2);
            let mut sharded = ShardedCoordinator::with_public_key(kp.public.clone(), 2, 4);
            assert!(single.handle(registry(8, &mut rng)).unwrap().is_empty());
            assert!(sharded.handle(registry(8, &mut rng)).unwrap().is_empty());
            let e_single = single.handle(second(mismatched, &mut rng)).unwrap_err();
            let e_sharded = sharded.handle(second(mismatched, &mut rng)).unwrap_err();
            assert_eq!(e_single, e_sharded, "len {mismatched}");
            assert!(
                matches!(
                    e_sharded,
                    ProtocolError::He(dubhe_he::HeError::LengthMismatch { left: 8, .. })
                ),
                "len {mismatched}: {e_sharded}"
            );
        }
    }

    #[test]
    fn slice_out_of_range_is_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let v = EncryptedVector::encrypt_u64(&kp.public, &[1, 2, 3], &mut rng);
        assert!(v.slice(0, 4).is_err());
        assert!(v.slice(2, 1).is_err());
        assert_eq!(v.slice(1, 3).unwrap().len(), 2);
    }
}
