//! Live-topology glue: mutation schedules, the sweep loop's store handle,
//! and the sweep-boundary application path (DESIGN.md §12).
//!
//! Mutation is confined to sweep boundaries: mid-sweep code can only
//! obtain `&GraphStore`, so an in-flight sweep always reads one
//! consistent epoch. Everything that touches `&mut GraphStore` — the
//! due-ordered batch queue, outcome merging, cache/MMBuf invalidation,
//! plan reseeding — lives in this module.

use crate::job::Job;
use crate::programs::{ExecMode, GtsProgram};
use crate::sweep::plan::SweepPlan;
use crate::sweep::{ckpt, kernels};
use crate::EngineError;
use gts_ckpt::Snapshot;
use gts_storage::builder::GraphStore;
use gts_storage::{MutationBatch, MutationOutcome, Wal};
use gts_telemetry::keys;
use std::collections::{BTreeMap, VecDeque};

/// When each [`MutationBatch`] of a live run applies: at the boundary of
/// the keyed sweep (before that sweep streams any page), so an in-flight
/// sweep always sees one consistent epoch of the topology. A batch whose
/// sweep the algorithm never reaches — it converged earlier — is *not*
/// dropped: the engine keeps the run alive at the fixpoint, applies the
/// batch, and re-sweeps incrementally (see [`crate::Engine::run_job_live`]).
#[derive(Debug, Clone, Default)]
pub struct MutationSchedule {
    batches: BTreeMap<u32, MutationBatch>,
}

impl MutationSchedule {
    /// An empty schedule ([`crate::Engine::run_job_live`] then behaves
    /// like [`crate::Engine::run_job`]).
    pub fn new() -> MutationSchedule {
        MutationSchedule::default()
    }

    /// Apply `batch` at the boundary of sweep `sweep` (builder-style).
    /// Scheduling twice at the same sweep appends to the existing batch in
    /// call order.
    pub fn at(mut self, sweep: u32, batch: MutationBatch) -> MutationSchedule {
        let slot = self.batches.entry(sweep).or_default();
        for &op in batch.ops() {
            slot.push(op);
        }
        self
    }

    /// Number of scheduled (non-empty-keyed) batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The due-ordered application queue.
    pub(crate) fn into_queue(self) -> VecDeque<(u32, MutationBatch)> {
        self.batches.into_iter().collect()
    }
}

/// What one boundary's [`StoreHandle::apply_due`] did: the merged outcome
/// of every batch that came due, how many batches that was, and what the
/// write-ahead log absorbed (zero when no WAL is attached, or when every
/// append was an idempotent re-log during a recovery replay).
pub(crate) struct AppliedMutations {
    pub(crate) outcome: MutationOutcome,
    pub(crate) batches: u64,
    pub(crate) wal_appends: u64,
    pub(crate) wal_bytes: u64,
}

/// The sweep loop's access to the graph: read-only for
/// [`crate::Engine::run_job`], or a mutable store plus a due-ordered
/// mutation queue for [`crate::Engine::run_job_live`]. Mutation is confined to
/// [`StoreHandle::apply_due`], which only the sweep boundary calls —
/// mid-sweep code can only obtain `&GraphStore`, so a sweep in flight
/// always reads one consistent epoch.
pub(crate) enum StoreHandle<'a> {
    /// Immutable topology (the classic static run).
    Shared(&'a GraphStore),
    /// Live topology: batches from a [`MutationSchedule`] apply at sweep
    /// boundaries.
    Live {
        store: &'a mut GraphStore,
        queue: VecDeque<(u32, MutationBatch)>,
    },
}

impl StoreHandle<'_> {
    /// The store, read-only (any variant).
    pub(crate) fn store(&self) -> &GraphStore {
        match self {
            StoreHandle::Shared(s) => s,
            StoreHandle::Live { store, .. } => store,
        }
    }

    /// The earliest sweep with an unapplied batch, if any.
    pub(crate) fn earliest_pending(&self) -> Option<u32> {
        match self {
            StoreHandle::Shared(_) => None,
            StoreHandle::Live { queue, .. } => queue.front().map(|&(s, _)| s),
        }
    }

    /// Crash recovery ahead of a checkpoint resume (live runs only):
    /// replay the suffix of `wal` that rolls the store forward to the
    /// fingerprint `snap` recorded, and return how many records that took.
    ///
    /// Batches the replay applied are popped off the schedule queue so
    /// the resumed loop does not apply them twice; leading *empty* batches
    /// due strictly before the snapshot's sweep are also behind us (they
    /// never move the epoch, so the replay cannot see them).
    pub(crate) fn recover(&mut self, wal: &Wal, snap: &Snapshot) -> Result<u64, EngineError> {
        let StoreHandle::Live { store, queue } = self else {
            return Ok(0);
        };
        let (target_fp, snap_sweep) =
            ckpt::snapshot_progress(snap).map_err(EngineError::Checkpoint)?;
        let base_epoch = store.epoch();
        let replayed = ckpt::recover_store(store, wal, target_fp)?;
        let mut to_skip = store.epoch() - base_epoch;
        while to_skip > 0 {
            let Some((_, batch)) = queue.pop_front() else {
                break;
            };
            if !batch.is_empty() {
                to_skip -= 1;
            }
        }
        while queue
            .front()
            .is_some_and(|(due, b)| b.is_empty() && *due < snap_sweep)
        {
            queue.pop_front();
        }
        Ok(replayed)
    }

    /// Apply every batch due at or before the boundary of `sweep`,
    /// merging their outcomes. `None` when nothing was due. A rejected
    /// batch aborts with [`EngineError::Mutation`], the store unchanged
    /// by the rejected batch (earlier batches of the same boundary stay
    /// applied — each batch is individually atomic).
    ///
    /// With a `wal` attached, every non-empty batch is logged before it
    /// is applied ([`GraphStore::apply_mutations_logged`]), so a crash at
    /// any instant leaves the log at or ahead of the store and recovery
    /// can always roll forward.
    pub(crate) fn apply_due(
        &mut self,
        sweep: u32,
        mut wal: Option<&mut Wal>,
    ) -> Result<Option<AppliedMutations>, EngineError> {
        let StoreHandle::Live { store, queue } = self else {
            return Ok(None);
        };
        let mut applied: Option<AppliedMutations> = None;
        while queue.front().is_some_and(|&(s, _)| s <= sweep) {
            let Some((_, batch)) = queue.pop_front() else {
                break;
            };
            let (outcome, bytes) = match wal.as_deref_mut() {
                Some(w) => store.apply_mutations_logged(&batch, w)?,
                None => (store.apply_mutations(&batch)?, 0),
            };
            applied = Some(match applied {
                None => AppliedMutations {
                    outcome,
                    batches: 1,
                    wal_appends: u64::from(bytes > 0),
                    wal_bytes: bytes,
                },
                Some(prev) => AppliedMutations {
                    outcome: merge_outcomes(prev.outcome, outcome),
                    batches: prev.batches + 1,
                    wal_appends: prev.wal_appends + u64::from(bytes > 0),
                    wal_bytes: prev.wal_bytes + bytes,
                },
            });
        }
        Ok(applied)
    }
}

/// Fold two same-boundary outcomes into one. A pid allocated by the first
/// batch and rewritten by the second stays in `new_pids` (no sweep ran in
/// between, so no cache ever saw it and placement happens once).
fn merge_outcomes(a: MutationOutcome, b: MutationOutcome) -> MutationOutcome {
    let union = |mut x: Vec<u64>, y: Vec<u64>| {
        x.extend(y);
        x.sort_unstable();
        x.dedup();
        x
    };
    let new_pids = union(a.new_pids, b.new_pids);
    let mut dirty_pids = union(a.dirty_pids, b.dirty_pids);
    dirty_pids.retain(|pid| new_pids.binary_search(pid).is_err());
    MutationOutcome {
        inserted: a.inserted + b.inserted,
        deleted: a.deleted + b.deleted,
        pages_rewritten: a.pages_rewritten + b.pages_rewritten,
        delta_pages_allocated: a.delta_pages_allocated + b.delta_pages_allocated,
        dirty_pids,
        new_pids,
        epoch: a.epoch.max(b.epoch),
    }
}

impl Job<'_> {
    /// Apply every mutation batch due at the top of this sweep and absorb
    /// the result into the run: drop rewritten pages from all GPU caches
    /// and the MMBuf, register the fresh delta pages with the storage
    /// array, refresh the LP degree map, bump the `mut.*` counters, and
    /// rebuild the sweep plan around the program's re-activation seeds.
    /// In-flight state only ever sees the store before or after a whole
    /// batch — never mid-rewrite (epoch visibility, DESIGN.md §12).
    ///
    /// Leaves `restricted` set when the new plan is a seed-restricted
    /// sweep-mode plan (only sound after a `Done` revival: the program's
    /// state is a fixpoint of the pre-mutation topology, so only the
    /// disturbed pages can start new propagation), and clear — with a
    /// full rebuild of the plan — in every other case, including "nothing
    /// was due". Either way the revival is consumed.
    pub(crate) fn mutation_boundary(
        &mut self,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
    ) -> Result<(), EngineError> {
        let revived = std::mem::take(&mut self.revived);
        self.restricted = false;
        let Some(applied) = handle.apply_due(self.sweep, self.wal.as_mut())? else {
            return Ok(());
        };
        let o = &applied.outcome;
        // Targeted invalidation: every cached copy of a rewritten page —
        // GPU page caches and the host-side MMBuf — is stale. Delta pages
        // are brand new, so they cannot be cached and only need placement
        // on the storage array's live drives.
        let mut dropped = 0u64;
        for lane in &mut self.setup.lanes {
            dropped += lane.invalidate_pages(&o.dirty_pids);
        }
        if let Some(source) = &mut self.source {
            source.invalidate(&o.dirty_pids);
            source.note_new_pages(&o.new_pids);
        }
        let store = handle.store();
        self.lp_degrees = kernels::lp_total_degrees(store);
        let tel = &self.tel;
        tel.add(keys::MUT_BATCHES, applied.batches);
        tel.add(keys::MUT_INSERTED, o.inserted);
        tel.add(keys::MUT_DELETED, o.deleted);
        tel.add(keys::MUT_PAGES_REWRITTEN, o.pages_rewritten);
        tel.add(keys::MUT_DELTA_PAGES, o.delta_pages_allocated);
        tel.add(keys::MUT_CACHE_INVALIDATIONS, dropped);
        tel.set(keys::MUT_EPOCH, o.epoch);
        tel.add(keys::WAL_APPENDS, applied.wal_appends);
        tel.add(keys::WAL_BYTES, applied.wal_bytes);
        let seeds = prog.on_mutation(store, o);
        self.plan = if prog.mode() == ExecMode::Sweep {
            // Mid-run (state is not a fixpoint) the full plan is the only
            // sound choice; likewise when the program gave no seeds.
            self.restricted = revived && !seeds.is_empty();
            if self.restricted {
                SweepPlan::from_marked(store, seeds)?
            } else {
                SweepPlan::full(store)
            }
        } else {
            // Traversal: the pending frontier pages stay planned; the
            // mutation's seeds join them.
            let planned = self.plan.sp_pids().iter().chain(self.plan.lp_pids());
            SweepPlan::from_marked(store, planned.copied().chain(seeds))?
        };
        Ok(())
    }
}
