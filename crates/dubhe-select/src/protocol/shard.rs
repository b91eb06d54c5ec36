//! The coordinator: registry positions partitioned across N shard folds.
//!
//! [`ShardedCoordinator`] is *the* honest-but-curious server of Fig. 4 and
//! §5.3 — the only coordinator state machine in the tree. It holds the epoch
//! [`PublicKey`] and running ciphertext folds, nothing else: there is no
//! field that could store a `PrivateKey` or a plaintext registry or
//! distribution, and a key dispatch that tries to smuggle a private key in
//! is refused with [`ProtocolError::PrivateKeyAtServer`]. Registries are
//! folded into the running homomorphic sum *as they arrive*, so the folds
//! are `O(registry_len)` whatever the client count. What grows with the
//! client count `N` is the registration broadcast, and only as its
//! addressees: once the `N + 1` envelopes around one total are queued, the
//! serving side holds the total, one envelope, the addressees (16 B each)
//! and, per connection, one chunk of the frame, or two records sealed — its
//! write queue encodes the frame a chunk, or seals it a record, ahead of
//! the socket.
//!
//! The *positions* `0..registry_len` are split into `N` contiguous shards,
//! each holding its own running fold of its slice; an arriving vector is
//! sliced once and the per-shard folds advance in parallel (rayon) because
//! they touch disjoint state. At millions of clients that spreads the
//! `registry_len` modular multiplications every registry costs over N state
//! objects; when an aggregation closes, the shard folds are concatenated
//! back into the full encrypted total.
//!
//! Because Paillier addition is element-wise and the shards partition the
//! element index space, every element sees *exactly* the same modular
//! multiplications in the same order whatever the shard count — the merged
//! result is bit-identical to a left-to-right [`EncryptedVector::add`] chain
//! for any `N`, which the equivalence tests pin for `N ∈ {1, 4}`.
//!
//! A shard count of 1 is the in-process default (`dubhe-fl`'s local
//! simulator, [`secure_multi_time_select`], the examples). It has **no fast
//! path**: one shard runs the same slice → fold → concat code as four, so
//! there is one behaviour to test and measure (the `fanin_small_plain`
//! benchmark workload times exactly this shape), and a one-shard slice or
//! concat is a handful of reference-count bumps next to the multiplies.
//!
//! Sharding changes nothing about the threat model: every shard still holds
//! only ciphertext slices and the public key (see `docs/THREAT_MODEL.md`).
//!
//! [`secure_multi_time_select`]: crate::multi_time::secure_multi_time_select

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use dubhe_he::{
    codec as he_codec, EncryptedVector, HeError, HeadroomModel, PackedEncryptedVector, PublicKey,
    RunningFold,
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

/// A merged running total, in the representation its vectors arrived in.
enum Total {
    Plain(EncryptedVector),
    Packed(PackedEncryptedVector),
}

/// The running state of one aggregation (the registration, or one try): the
/// position partition and one [`RunningFold`] per shard.
#[derive(Debug, Clone)]
struct ShardFolds {
    /// Position ranges, fixed by the first vector's length (ciphertext count
    /// for a packed aggregation — ciphertext boundaries never split a
    /// plaintext, so the partition is automatically lane-aligned).
    ranges: Option<Vec<Range<usize>>>,
    /// One fold per shard; all `None` until the first vector, all `Some`
    /// after (one vector advances **every** shard).
    folds: Vec<Option<RunningFold>>,
    /// Logical lane count of the packed vectors folded so far (`None` for an
    /// element-wise aggregation, or before the first packed contribution).
    lanes: Option<usize>,
}

impl ShardFolds {
    fn new(shards: usize) -> Self {
        ShardFolds {
            ranges: None,
            folds: vec![None; shards],
            lanes: None,
        }
    }

    /// `true` until the first vector has been folded.
    fn is_empty(&self) -> bool {
        self.folds.iter().all(Option::is_none)
    }

    /// Advances every shard fold by its slice of a `len`-position vector, in
    /// parallel across shards; `step` seeds or advances one shard's fold
    /// from the slice at that shard's range. The folds are disjoint per
    /// shard, each accumulates in the Montgomery domain (one Montgomery
    /// multiply per position), and each element sees the same
    /// multiplication order as an unsharded fold — the merged result stays
    /// bit-identical.
    ///
    /// A vector whose length disagrees with the partition is refused with
    /// [`HeError::LengthMismatch`] before any shard moves, and a vector a
    /// shard refuses (foreign key) leaves that shard's fold as it was: a
    /// refused vector never changes the running total.
    fn advance<F>(&mut self, len: usize, step: F) -> Result<(), ProtocolError>
    where
        F: Fn(&Range<usize>, &mut Option<RunningFold>) -> Result<(), HeError> + Sync,
    {
        use rayon::prelude::*;
        let shards = self.folds.len();
        let ranges = self.ranges.get_or_insert_with(|| shard_ranges(len, shards));
        let expected = ranges.last().map_or(0, |r| r.end);
        if len != expected {
            return Err(ProtocolError::He(HeError::LengthMismatch {
                left: expected,
                right: len,
            }));
        }
        // One work item per shard — a disjoint `&mut` fold and its outcome.
        let mut work: Vec<(&mut Option<RunningFold>, Result<(), HeError>)> =
            self.folds.iter_mut().map(|fold| (fold, Ok(()))).collect();
        work.par_chunks_mut(1).enumerate().for_each(|(i, chunk)| {
            let (fold, outcome) = &mut chunk[0];
            *outcome = step(&ranges[i], fold);
        });
        work.into_iter()
            .try_for_each(|(_, outcome)| outcome.map_err(ProtocolError::He))
    }

    /// Folds one element-wise vector: shard `i` slices its range out of `v`
    /// (a reference-count bump per ciphertext).
    fn fold_vector(&mut self, v: &EncryptedVector) -> Result<(), ProtocolError> {
        self.advance(v.len(), |range, fold| {
            let slice = v.slice(range.start, range.end)?;
            match fold {
                None => *fold = Some(RunningFold::new(&slice)),
                Some(fold) => fold.fold(&slice)?,
            }
            Ok(())
        })
    }

    /// Folds one deferred frame's residue block without materialising a
    /// ciphertext: shard `i` multiplies its range of residues straight out
    /// of the frame bytes. Bit-identical to [`fold_vector`](Self::fold_vector)
    /// of the decoded vector.
    fn fold_view(&mut self, v: &he_codec::EncryptedVectorView<'_>) -> Result<(), ProtocolError> {
        self.advance(v.len(), |range, fold| {
            let slice = v.residue_range(range.start, range.end);
            match fold {
                None => *fold = Some(RunningFold::from_view(&slice)),
                Some(fold) => fold.fold_view(&slice)?,
            }
            Ok(())
        })
    }

    /// Folds one packed vector, the `folded_so_far + 1`-th of its
    /// aggregation, under the phase's [`HeadroomModel`]: slot layout, lane
    /// count, then the client budget are all checked **before** any
    /// multiply, so a refused vector leaves the sum untouched. The shards
    /// partition the *ciphertext* index space, which never splits a
    /// plaintext — each lane stays whole inside one shard.
    fn fold_packed(
        &mut self,
        v: &PackedEncryptedVector,
        model: HeadroomModel,
        folded_so_far: usize,
    ) -> Result<(), ProtocolError> {
        model.check_packer(&v.packer())?;
        if let Some(expected) = self.lanes.filter(|&lanes| lanes != v.count()) {
            return Err(ProtocolError::He(HeError::LengthMismatch {
                left: expected,
                right: v.count(),
            }));
        }
        model.check_budget(folded_so_far as u64 + 1)?;
        self.fold_vector(v.vector())?;
        self.lanes = Some(v.count());
        Ok(())
    }

    /// Merges the shard folds back into the full ciphertext vector (`None`
    /// before the first fold), converting each shard's state out of the
    /// Montgomery domain.
    fn merge(&self) -> Result<Option<EncryptedVector>, ProtocolError> {
        let parts: Vec<EncryptedVector> = self
            .folds
            .iter()
            .filter_map(|f| f.as_ref().map(RunningFold::total))
            .collect();
        if parts.len() != self.folds.len() {
            return Ok(None);
        }
        Ok(EncryptedVector::concat(&parts)?)
    }

    /// The merged total in the representation that was folded: packed (under
    /// `packing`'s slot layout) when packed vectors arrived, element-wise
    /// otherwise. `None` before the first fold.
    fn total(&self, packing: Option<&PackingPolicy>) -> Result<Option<Total>, ProtocolError> {
        let Some(vector) = self.merge()? else {
            return Ok(None);
        };
        Ok(Some(match (packing, self.lanes) {
            (Some(policy), Some(lanes)) => Total::Packed(PackedEncryptedVector::from_vector(
                vector,
                lanes,
                policy.packer(),
            )?),
            _ => Total::Plain(vector),
        }))
    }
}

/// Per-try aggregation state.
#[derive(Debug, Clone)]
struct TryFold {
    /// The announced participant set, sorted.
    participants: Vec<ClientId>,
    /// Which announced participants have contributed so far.
    contributed: Vec<bool>,
    received: usize,
    folds: ShardFolds,
    /// When the try was announced — the straggler clock.
    opened: Instant,
}

/// The honest-but-curious coordinator, with its registry positions
/// partitioned across `N` shard folds (`N = 1` in process by default). Holds
/// the epoch [`PublicKey`] and running ciphertext folds — nothing else — and
/// fills the drivers' [`Coordinator`] slot; the ciphertext totals it emits
/// are bit-identical for every shard count.
#[derive(Debug)]
pub struct ShardedCoordinator {
    public_key: Option<PublicKey>,
    /// Which client ids have registered (length = expected registrations).
    registered: Vec<bool>,
    registrations_received: usize,
    registry: ShardFolds,
    /// When set, the coordinator accepts **only** packed frames for the
    /// phases the policy covers, validates every arrival against the
    /// policy's slot layout, and refuses any fold past the declared client
    /// budget — the executable headroom model.
    packing: Option<PackingPolicy>,
    /// `true` once the registration total has been broadcast — naturally or
    /// by a partial close. Later registries are refused either way.
    registration_closed: bool,
    /// The current key-rotation epoch. Advanced by a key dispatch stamped
    /// with a newer epoch, or explicitly via [`begin_epoch`](Self::begin_epoch).
    epoch: u64,
    /// When the current registration phase opened — the straggler clock.
    registration_opened: Instant,
    /// If set, [`close_expired`](Self::close_expired) partially closes any
    /// aggregation open longer than this.
    straggler_deadline: Option<Duration>,
    tries: BTreeMap<usize, TryFold>,
    cohort_outcomes: Vec<CohortOutcome>,
    last_verdict: Option<(usize, f64)>,
    bytes_received: usize,
    messages_received: usize,
}

impl ShardedCoordinator {
    /// A coordinator expecting `expected_registrations` registry uploads
    /// this epoch (0 for a pure multi-time session), with positions split
    /// across `shards` folds.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(expected_registrations: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedCoordinator {
            public_key: None,
            registered: vec![false; expected_registrations],
            registrations_received: 0,
            registry: ShardFolds::new(shards),
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

    /// Builder: installs a [`PackingPolicy`]. From here on the coordinator
    /// accepts only packed registries (and, if the policy packs tries, only
    /// packed distributions), folds them lane-wise under the policy's
    /// headroom budget, and emits packed broadcasts/sums. Element-wise
    /// frames for a packed phase — and packed frames without a policy — are
    /// [`ProtocolError::PackingDisagreement`].
    pub fn with_packing(mut self, policy: PackingPolicy) -> Self {
        self.packing = Some(policy);
        self
    }

    /// The installed packing policy, if any.
    pub fn packing(&self) -> Option<&PackingPolicy> {
        self.packing.as_ref()
    }

    /// A coordinator that already learned the epoch public key out-of-band
    /// (sessions that skip the key-dispatch step).
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
        self.registry.folds.len()
    }

    /// The epoch public key, once dispatched.
    pub fn public_key(&self) -> Option<&PublicKey> {
        self.public_key.as_ref()
    }

    /// The running encrypted overall registry (complete once every expected
    /// registry arrived), merged across shards on demand; `None` before the
    /// first registry.
    pub fn encrypted_total(&self) -> Option<EncryptedVector> {
        self.registry.merge().ok().flatten()
    }

    /// The running **packed** encrypted overall registry, when a packing
    /// policy is installed and at least one packed registry arrived.
    pub fn packed_encrypted_total(&self) -> Option<PackedEncryptedVector> {
        match self.registry.total(self.packing.as_ref()) {
            Ok(Some(Total::Packed(total))) => Some(total),
            _ => None,
        }
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

    /// Checks an arrival's epoch stamp. A key dispatch from a newer epoch
    /// advances the coordinator (same cohort size); anything else from the
    /// wrong epoch is a typed error.
    fn check_epoch(&mut self, received: u64, key_dispatch: bool) -> Result<(), ProtocolError> {
        let current = self.epoch;
        match received.cmp(&current) {
            Ordering::Equal => Ok(()),
            Ordering::Less => Err(ProtocolError::StaleEpoch { received, current }),
            Ordering::Greater if key_dispatch => {
                self.begin_epoch(received, self.registered.len());
                Ok(())
            }
            Ordering::Greater => Err(ProtocolError::FutureEpoch { received, current }),
        }
    }

    /// Explicitly opens a new epoch with a resized cohort (clients joined or
    /// left), resetting all per-epoch aggregation state. The [`Coordinator`]
    /// trait routes here.
    pub fn begin_epoch(&mut self, epoch: u64, expected_registrations: usize) {
        self.epoch = epoch;
        self.registered = vec![false; expected_registrations];
        self.registrations_received = 0;
        self.registry = ShardFolds::new(self.shards());
        self.registration_closed = false;
        self.registration_opened = Instant::now();
        self.tries.clear();
        self.last_verdict = None;
    }

    /// Marks the registration closed, records its outcome and returns the
    /// broadcast: `Enc(R_A)` (Fig. 4 step 3) to every *contributing* client
    /// plus the agent, stamped with the current epoch — nobody but the key
    /// holders can open it. The shards are merged once; every addressee's
    /// copy is a handle on that one total (a clone of an [`EncryptedVector`]
    /// is a reference-count bump), which is also what lets the `DBH2`
    /// encoder write the ciphertexts once and copy the bytes for the rest,
    /// and a write queue keep one envelope and the addressees.
    fn settle_registration(&mut self, partial: bool) -> Result<Vec<Envelope>, ProtocolError> {
        self.registration_closed = true;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: None,
            expected: self.registered.len(),
            contributed: self.registrations_received,
            partial,
        });
        let total = self.registry.total(self.packing.as_ref())?;
        let msg = match total.expect("callers settle a non-empty fold") {
            Total::Plain(total) => ProtocolMsg::EncryptedTotalBroadcast { total },
            Total::Packed(total) => ProtocolMsg::PackedTotalBroadcast { total },
        };
        let envelope = |to, msg| Envelope {
            from: Party::Server,
            to,
            epoch: self.epoch,
            msg,
        };
        let mut out = Vec::with_capacity(self.registrations_received + 1);
        for (id, seen) in self.registered.iter().enumerate() {
            if *seen {
                out.push(envelope(Party::Client(id), msg.clone()));
            }
        }
        out.push(envelope(Party::Agent, msg));
        Ok(out)
    }

    /// Closes registration with whatever registries arrived — the explicit
    /// partial-cohort fold. One registry folds **all** shards (the positions
    /// partition its index space), so a partial cohort merges exactly like a
    /// complete one. See [`Coordinator::close_registration`].
    pub fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        if self.registration_closed || self.registry.is_empty() {
            return Err(ProtocolError::NothingToClose {
                what: "registration",
            });
        }
        self.settle_registration(true)
    }

    /// Removes one try, records its outcome and forwards its merged sum —
    /// packed when the try folded packed vectors — to the agent. A try
    /// nobody contributed to is abandoned: recorded,
    /// [`ProtocolError::NothingToClose`], no envelope.
    fn settle_try(
        &mut self,
        try_index: usize,
        partial: bool,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        let slot = self
            .tries
            .remove(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        let contributors = slot.received;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: slot.participants.len(),
            contributed: contributors,
            partial,
        });
        let msg = match slot.folds.total(self.packing.as_ref())? {
            None => return Err(ProtocolError::NothingToClose { what: "try" }),
            Some(Total::Plain(sum)) => ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors,
                sum,
            },
            Some(Total::Packed(sum)) => ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors,
                sum,
            },
        };
        Ok(vec![Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        }])
    }

    /// Closes one tentative try with whatever contributions arrived. See
    /// [`Coordinator::close_try`].
    pub fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        self.settle_try(try_index, true)
    }

    /// Partially closes every aggregation open longer than the configured
    /// straggler deadline (a no-op without one): expired tries forward their
    /// partial sums, an expired registration broadcasts its partial total.
    /// Expired tries nobody contributed to are abandoned (recorded, no
    /// envelope). This is what guarantees a round **never hangs** on a
    /// silently dropped client.
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
            && !self.registry.is_empty()
            && self.registration_opened.elapsed() >= deadline
        {
            out.extend(self.close_registration()?);
        }
        Ok(out)
    }

    /// Serializes the coordinator's registration-phase state for crash
    /// recovery: epoch, cohort bitmap, accounting, public key, registry
    /// length and every shard fold (via [`RunningFold::snapshot`] — raw
    /// in-domain residues, no re-folding on restore). The shard ranges are
    /// *not* stored — they are a pure function of `(registry_len, shards)`
    /// and are recomputed on restore. In-flight tries are not captured: a
    /// restarted coordinator re-announces them.
    pub fn snapshot(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::new();
        he_codec::put_u64(&mut out, self.epoch);
        out.push(self.registration_closed as u8);
        he_codec::put_u32(&mut out, self.shards() as u32);
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
        match &self.registry.ranges {
            None => out.push(0),
            Some(ranges) => {
                out.push(1);
                he_codec::put_u64(&mut out, ranges.last().map_or(0, |r| r.end) as u64);
                if self.packing.is_some() {
                    // A packed cohort's ranges cover ciphertext indices; the
                    // logical lane count is also needed to rebuild totals.
                    he_codec::put_u64(&mut out, self.registry.lanes.unwrap_or(0) as u64);
                }
            }
        }
        for fold in &self.registry.folds {
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

    /// Rebuilds a coordinator from a [`snapshot`](Self::snapshot). Every
    /// restored shard fold is bit-identical to the serialized one, so a
    /// resumed registration merges to exactly the total an uninterrupted
    /// coordinator would have broadcast. The bytes are untrusted: every
    /// count is bounded by the payload that would have to carry it before
    /// anything is allocated, and a truncated or tampered snapshot is a
    /// typed error.
    pub fn restore(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let he = ProtocolError::He;
        let malformed = |detail: &str| ProtocolError::MalformedFrame {
            detail: detail.into(),
        };
        let cur = &mut &bytes[..];
        let take_flag = |cur: &mut &[u8]| -> Result<bool, ProtocolError> {
            match he_codec::take_bytes(cur, 1).map_err(he)?[0] {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(malformed("snapshot flag byte is not 0 or 1")),
            }
        };
        let epoch = he_codec::take_u64(cur).map_err(he)?;
        let registration_closed = take_flag(cur)?;
        let shards = he_codec::take_u32(cur).map_err(he)? as usize;
        if shards == 0 {
            return Err(malformed("snapshot claims zero shards"));
        }
        // Every shard costs at least its one flag byte further down.
        if shards > cur.len() {
            return Err(malformed("snapshot shard count overruns the payload"));
        }
        let expected = he_codec::take_u32(cur).map_err(he)? as usize;
        if expected > cur.len() {
            return Err(malformed("snapshot cohort bitmap overruns the payload"));
        }
        let registered: Vec<bool> = he_codec::take_bytes(cur, expected)
            .map_err(he)?
            .iter()
            .map(|&b| b != 0)
            .collect();
        let registrations_received = he_codec::take_u64(cur).map_err(he)? as usize;
        if registrations_received != registered.iter().filter(|&&b| b).count() {
            return Err(malformed(
                "snapshot registration count disagrees with its cohort bitmap",
            ));
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
        let mut registry = ShardFolds::new(shards);
        if take_flag(cur)? {
            let len = he_codec::take_u64(cur).map_err(he)? as usize;
            // Every position costs at least one residue byte further down.
            if len > cur.len() {
                return Err(malformed("snapshot registry length overruns the payload"));
            }
            if let Some(policy) = &packing {
                let lanes = he_codec::take_u64(cur).map_err(he)? as usize;
                let per = policy.packer().slots_per_plaintext().map_err(he)?;
                if len != lanes.div_ceil(per) {
                    return Err(malformed(
                        "snapshot lane count disagrees with its shard partition",
                    ));
                }
                registry.lanes = Some(lanes);
            }
            registry.ranges = Some(shard_ranges(len, shards));
        }
        for fold in &mut registry.folds {
            if take_flag(cur)? {
                let len = he_codec::take_u32(cur).map_err(he)? as usize;
                let snap = he_codec::take_bytes(cur, len).map_err(he)?;
                *fold = Some(RunningFold::restore(snap).map_err(he)?);
            }
        }
        Ok(ShardedCoordinator {
            public_key,
            registered,
            registrations_received,
            registry,
            packing,
            registration_closed,
            epoch,
            bytes_received,
            messages_received,
            ..ShardedCoordinator::new(0, shards)
        })
    }

    /// Announces one tentative try (§5.3.1: the server performs the `H`
    /// tentative selections): the coordinator will fold exactly one
    /// encrypted distribution from each of `participants` for `try_index`
    /// and then forward the sum to the agent. Contributions from anyone
    /// else — or a second contribution from the same client — are rejected.
    pub fn announce_try(&mut self, try_index: usize, participants: &[ClientId]) {
        let mut sorted = participants.to_vec();
        sorted.sort_unstable();
        let contributed = vec![false; sorted.len()];
        self.tries.insert(
            try_index,
            TryFold {
                participants: sorted,
                contributed,
                received: 0,
                folds: ShardFolds::new(self.shards()),
                opened: Instant::now(),
            },
        );
    }

    /// The headroom model the installed policy packs `kind` under; `None`
    /// when that phase travels element-wise.
    fn phase_model(&self, kind: MsgKind) -> Option<HeadroomModel> {
        match kind {
            MsgKind::Registry => self.packing.map(|p| p.registry_model()),
            _ => self.packing.and_then(|p| p.try_model()),
        }
    }

    /// Admits an element-wise `kind` arrival, refusing it when the policy
    /// packs that phase.
    fn expect_plain(&self, kind: MsgKind) -> Result<(), ProtocolError> {
        match self.phase_model(kind) {
            None => Ok(()),
            Some(_) => Err(ProtocolError::PackingDisagreement {
                role: "server",
                expected_packed: true,
                kind,
            }),
        }
    }

    /// Admits a packed `kind` arrival and returns the model to fold it
    /// under, refusing it when no policy packs that phase.
    fn expect_packed(&self, kind: MsgKind) -> Result<HeadroomModel, ProtocolError> {
        self.phase_model(kind)
            .ok_or(ProtocolError::PackingDisagreement {
                role: "server",
                expected_packed: false,
                kind,
            })
    }

    /// Folds one registry upload, however it travelled: `fold` advances the
    /// registry folds given how many registries are already in. Exactly one
    /// registry per known client, and none once the epoch total has been
    /// broadcast (naturally or by a partial close) — duplicates, strangers
    /// and stragglers would silently corrupt the homomorphic sum (a real
    /// concern once a retrying networked transport sits underneath), so they
    /// are protocol errors instead. The client's slot is marked only after
    /// the fold accepted the payload: a refused one (wrong shape, foreign
    /// key, foreign slot layout, over budget) leaves a well-formed retry
    /// possible. Broadcasts the merged total when the cohort completes.
    fn fold_registry(
        &mut self,
        client: ClientId,
        fold: impl FnOnce(&mut ShardFolds, usize) -> Result<(), ProtocolError>,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        if self.registration_closed || self.registrations_received == self.registered.len() {
            return Err(ProtocolError::EpochComplete { client });
        }
        match self.registered.get(client) {
            None => {
                return Err(ProtocolError::UnknownContributor {
                    client,
                    try_index: None,
                })
            }
            Some(true) => {
                return Err(ProtocolError::DuplicateContribution {
                    client,
                    try_index: None,
                })
            }
            Some(false) => {}
        }
        fold(&mut self.registry, self.registrations_received)?;
        self.registered[client] = true;
        self.registrations_received += 1;
        if self.registrations_received == self.registered.len() {
            self.settle_registration(false)
        } else {
            Ok(Vec::new())
        }
    }

    /// Folds one distribution upload, however it travelled: the try must be
    /// announced, the client one of its participants, and this its first
    /// contribution (marked only after `fold` accepted the payload). When
    /// every announced participant has contributed, the try is removed and
    /// its merged sum forwarded to the agent.
    fn fold_distribution(
        &mut self,
        try_index: usize,
        client: ClientId,
        fold: impl FnOnce(&mut ShardFolds, usize) -> Result<(), ProtocolError>,
    ) -> Result<Vec<Envelope>, ProtocolError> {
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
        fold(&mut slot.folds, slot.received)?;
        slot.contributed[idx] = true;
        slot.received += 1;
        if slot.received == slot.participants.len() {
            self.settle_try(try_index, false)
        } else {
            Ok(Vec::new())
        }
    }

    /// Handles one incoming message, returning the messages it triggers.
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
                self.expect_plain(MsgKind::Registry)?;
                self.fold_registry(client, |folds, _| folds.fold_vector(&registry))
            }
            ProtocolMsg::PackedRegistry { client, registry } => {
                let model = self.expect_packed(MsgKind::Registry)?;
                self.fold_registry(client, |folds, n| folds.fold_packed(&registry, model, n))
            }
            ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution,
            } => {
                self.expect_plain(MsgKind::Distribution)?;
                self.fold_distribution(try_index, client, |folds, _| {
                    folds.fold_vector(&distribution)
                })
            }
            ProtocolMsg::PackedDistribution {
                client,
                try_index,
                distribution,
            } => {
                let model = self.expect_packed(MsgKind::Distribution)?;
                self.fold_distribution(try_index, client, |folds, n| {
                    folds.fold_packed(&distribution, model, n)
                })
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
        let key_dispatch = matches!(envelope.msg, ProtocolMsg::PublicKeyDispatch { .. });
        self.check_epoch(envelope.epoch, key_dispatch)?;
        self.handle(envelope.msg)
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
        // The vector decode happens first: a malformed ciphertext block
        // surfaces before any delivery bookkeeping, exactly where the eager
        // path's frame decode would have refused the frame.
        let view = frame.view()?;
        self.check_epoch(frame.epoch(), false)?;
        self.messages_received += 1;
        // `ProtocolMsg::wire_bytes` for a registry: the client scalar plus
        // the canonical ciphertext payload — which is the view's block.
        self.bytes_received += 8 + view.ciphertext_payload_bytes();
        self.expect_plain(MsgKind::Registry)?;
        self.fold_registry(frame.client(), |folds, _| folds.fold_view(&view))
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
            let mut folds = ShardFolds::new(shards);
            for v in &vectors {
                folds.fold_vector(v).unwrap();
            }
            let merged = folds.merge().unwrap().unwrap();
            assert_eq!(merged.len(), single.len());
            for (m, s) in merged.elements().iter().zip(single.elements()) {
                assert_eq!(m.raw(), s.raw(), "shards={shards}");
            }
        }
    }

    #[test]
    fn length_mismatch_is_rejected_exactly_like_an_add_chain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let mut vector =
            |len: usize| EncryptedVector::encrypt_u64(&kp.public, &vec![1u64; len], &mut rng);
        let first = vector(8);

        // A longer AND a shorter second vector must fail at every shard
        // count exactly as the left-to-right `add` chain does (a sharded
        // fold must not silently truncate) — and leave the fold untouched.
        for mismatched in [11usize, 5] {
            let second = vector(mismatched);
            let reference = ProtocolError::He(first.add(&second).unwrap_err());
            for shards in [1, 4] {
                let mut server = ShardedCoordinator::with_public_key(kp.public.clone(), 2, shards);
                let registry =
                    |client, registry: &EncryptedVector| ProtocolMsg::EncryptedRegistry {
                        client,
                        registry: registry.clone(),
                    };
                assert!(server.handle(registry(0, &first)).unwrap().is_empty());
                let refused = server.handle(registry(1, &second)).unwrap_err();
                assert_eq!(refused, reference, "len {mismatched}, shards {shards}");
                assert!(
                    matches!(
                        refused,
                        ProtocolError::He(HeError::LengthMismatch { left: 8, right })
                            if right == mismatched
                    ),
                    "len {mismatched}: {refused}"
                );
                let total = server
                    .encrypted_total()
                    .expect("the first registry stays folded");
                for (t, f) in total.elements().iter().zip(first.elements()) {
                    assert_eq!(t.raw(), f.raw(), "len {mismatched}, shards {shards}");
                }
            }
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
