//! A device fleet multiplexing many tenants, each on a [`DevicePool`]
//! of its own.
//!
//! [`FleetHandle`] is the one serving substrate: a fixed number of
//! tenant *slots*, each held slot owning a pool of `shards_per_slot`
//! devices behind a lock of its own. A multi-tenant server shares one
//! fleet of N slots between its sessions; a private session is simply a
//! one-slot fleet of its own. Either way the session drains
//! [`FleetEvent`]s — the one in-process event record — and projects each
//! to the client-visible [`WireCompletion`] or [`WireFailure`]. Three
//! properties define the design:
//!
//! - **Isolation by construction.** Acquiring a slot builds the tenant's
//!   pool with [`DevicePool::new`] — the constructor a private pool of
//!   the same shape uses, fault seeding included — and releasing the
//!   slot drops it. A tenant's pool routes, quarantines, and drives
//!   clocks on its own devices only, so its demultiplexed event stream —
//!   sequence numbers, pool-local shard indices, finish cycles, energy
//!   bits, fingerprints, typed failures — is bit-identical to a solo run
//!   on a private pool, regardless of what other tenants do. The test
//!   battery in `tests/fleet_isolation.rs` pins this, not just claims it.
//! - **One lock per slot.** A batch runs straight on the caller's own
//!   pool under that slot's lock; no fleet-wide lock or queue sits in
//!   front of it, so tenants on different slots never wait for each
//!   other. There is no weighted admission: every tenant's batches run
//!   in the order its own session submits them.
//! - **Quota backpressure.** Each tenant's outstanding-op quota is
//!   enforced the way a private serving engine bounds its own window:
//!   after submission, the tenant's *own* pool is stepped until its
//!   outstanding count is back under quota. Quotas shape host-side
//!   pacing only; they never touch device timing.
//!
//! # Example
//!
//! Two tenants on one fleet; each stream demuxes independently:
//!
//! ```
//! use codic_core::device::DeviceConfig;
//! use codic_core::fleet::{FleetConfig, FleetHandle};
//! use codic_core::ops::CodicOp;
//! use codic_dram::{DramGeometry, TimingParams};
//!
//! let device = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
//!     .with_refresh(false);
//! let fleet = FleetHandle::new(FleetConfig::new(2, 2, device));
//!
//! let a = fleet.acquire_with(1, 64).unwrap();
//! let b = fleet.acquire_with(1, 64).unwrap();
//! let ops: Vec<CodicOp> = (0..32).map(|i| CodicOp::read(i * 8192)).collect();
//!
//! let (receipt, _) = fleet.submit(a, &ops).unwrap();
//! assert_eq!(receipt.seq_base, 0);
//! let (_, events_a) = fleet.flush(a);
//! let (_, events_b) = {
//!     fleet.submit(b, &ops).unwrap();
//!     fleet.flush(b)
//! };
//! // Same ops, same quota, disjoint slots: bit-identical streams.
//! assert_eq!(events_a.len(), 32);
//! assert_eq!(events_a, events_b);
//! fleet.release(a);
//! fleet.release(b);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::device::{DeviceConfig, OpCompletion};
use crate::error::CodicError;
use crate::fault::{FaultCause, HealthPolicy};
use crate::ops::CodicOp;
use crate::pool::{DevicePool, ShardHealth};

/// Static shape of a [`FleetHandle`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenant slots. Each holds at most one tenant.
    pub slots: usize,
    /// Shards in each tenant's pool.
    pub shards_per_slot: usize,
    /// Device configuration for every shard. A
    /// [`FaultPlan`](crate::fault::FaultPlan) here is the *base* plan:
    /// each tenant's pool derives per-shard schedules from it exactly as
    /// a private pool built from the same config would.
    pub device: DeviceConfig,
    /// Per-tenant outstanding-op quota for callers to pass to
    /// [`FleetHandle::acquire_with`]; the fleet itself does not read it.
    pub quota: usize,
    /// Self-quarantine policy applied to every tenant's pool.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// A fleet of `slots` tenant slots, `shards_per_slot` shards each,
    /// with the default quota (1024 ops) and health policy.
    #[must_use]
    pub fn new(slots: usize, shards_per_slot: usize, device: DeviceConfig) -> Self {
        FleetConfig {
            slots,
            shards_per_slot,
            device,
            quota: 1024,
            health: HealthPolicy::default(),
        }
    }

    /// Replaces the default per-tenant outstanding-op quota.
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota.max(1);
        self
    }

    /// Replaces the self-quarantine policy.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }
}

/// Handle to a live tenant: which slot, and an epoch stamp so a handle
/// that outlives its tenancy is caught instead of touching the slot's
/// next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId {
    slot: usize,
    epoch: u64,
}

impl TenantId {
    /// The slot this tenancy occupies.
    #[must_use]
    pub fn slot(self) -> usize {
        self.slot
    }
}

/// One demultiplexed completion event of a tenant's stream. `shard`
/// indexes the tenant's own pool — the same index an equivalent private
/// pool would report — so the stream carries no trace of which slot the
/// tenant holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// Tenant-stream sequence number (dense from 0, submission order).
    pub seq: u64,
    /// Shard of the tenant's pool that served the operation.
    pub shard: u16,
    /// The device-level completion, bit-for-bit.
    pub completion: OpCompletion,
}

impl FleetEvent {
    /// The client-visible record of this event as a completion.
    #[must_use]
    pub fn to_wire(&self) -> WireCompletion {
        WireCompletion {
            seq: self.seq,
            shard: self.shard,
            op: self.completion.op,
            finish_cycle: self.completion.finish_cycle,
            busy_cycles: self.completion.cost.busy_cycles,
            activations: self.completion.cost.activations,
            energy_nj: self.completion.cost.energy_nj,
            fingerprint: self.completion.fingerprint,
        }
    }

    /// The client-visible record of this event's failure, when it failed.
    #[must_use]
    pub fn to_wire_failure(&self) -> Option<WireFailure> {
        self.completion.outcome.cause().map(|cause| WireFailure {
            seq: self.seq,
            shard: self.shard,
            op: self.completion.op,
            at_cycle: self.completion.finish_cycle,
            cause,
            attempts: self.completion.attempts,
        })
    }
}

/// One finished operation as a serving client sees it: the record a
/// wire protocol carries for a successful [`FleetEvent`]
/// ([`FleetEvent::to_wire`]). Plain data; its byte layout belongs to the
/// protocol that encodes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCompletion {
    /// Zero-based submission sequence number within the session (events
    /// arrive in deterministic completion order, not sequence order).
    pub seq: u64,
    /// The pool shard that served the operation.
    pub shard: u16,
    /// The operation that completed.
    pub op: CodicOp,
    /// Memory cycle at which the operation finished on its shard.
    pub finish_cycle: u64,
    /// Bank/bus occupancy of the operation in memory cycles.
    pub busy_cycles: u32,
    /// Activations charged against the rank's tRRD/tFAW windows.
    pub activations: u8,
    /// Accounted energy of the operation in nanojoules.
    pub energy_nj: f64,
    /// FNV-1a-64 fingerprint of the written row's simulated contents —
    /// carried on the wire (and hashed into the session checksum) only
    /// for bulk-bitwise compute operations; decodes as 0 for everything
    /// else, and senders must set it to 0 for non-compute operations so
    /// round trips are exact.
    pub fingerprint: u64,
}

/// One failed operation as a serving client sees it — the faulted
/// sibling of [`WireCompletion`] ([`FleetEvent::to_wire_failure`]). A
/// session with fault injection disabled never produces one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFailure {
    /// Zero-based submission sequence number within the session.
    pub seq: u64,
    /// The pool shard the operation was routed to.
    pub shard: u16,
    /// The operation that failed.
    pub op: CodicOp,
    /// Memory cycle at which the failure was delivered on its shard.
    pub at_cycle: u64,
    /// Why the operation failed.
    pub cause: FaultCause,
    /// Issue attempts consumed (1 = failed on the first issue).
    pub attempts: u8,
}

/// What the fleet accepted for one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitReceipt {
    /// First sequence number assigned to the batch.
    pub seq_base: u64,
    /// Operations accepted (the whole batch — submission is
    /// all-or-nothing, like a private pool's).
    pub accepted: u32,
}

/// One live tenancy: its own pool plus everything a private serving
/// engine would keep per session.
#[derive(Debug)]
struct Tenant {
    epoch: u64,
    pool: DevicePool,
    /// Outstanding-op quota enforced by stepping the tenant's own pool.
    quota: usize,
    /// Next tenant-stream sequence number. Every op is submitted tagged
    /// with its sequence number, so a completion tagged at or past it
    /// belongs to no admitted batch.
    next_seq: u64,
}

impl Tenant {
    /// The private serving engine's submission discipline on the
    /// tenant's own pool: all-or-nothing routed submission, quota
    /// backpressure stepping only this tenant's shards, health check at
    /// the batch boundary, then a non-blocking drain. Every clock this
    /// touches belongs to the tenant, so no other tenant's activity can
    /// perturb its device timeline.
    fn submit(&mut self, ops: &[CodicOp]) -> Result<(AdmitReceipt, Vec<FleetEvent>), CodicError> {
        let seq_base = self.next_seq;
        // A batch cut short by the last shard wedging is not admitted:
        // `next_seq` stays put, so its enqueued ops' completions, tagged
        // from `seq_base` on, are dropped at the next drain. Quarantine
        // is permanent, so no later batch can reuse those seqs.
        self.pool.submit_all_tagged(ops, seq_base)?;
        self.next_seq += ops.len() as u64;
        while self.pool.outstanding() > self.quota && self.pool.step() {}
        self.pool.check_health();
        let receipt = AdmitReceipt {
            seq_base,
            accepted: ops.len() as u32,
        };
        Ok((receipt, self.drain()))
    }

    /// Takes every buffered completion of the tenant's shards, ordered
    /// by `(finish_cycle, seq)` — the same emission order a private
    /// serving engine produces. Each shard's buffer is already one run
    /// in that order, so the runs are merged, not sorted: each step
    /// emits the least head among the non-empty runs, and the last run
    /// left is copied whole.
    fn drain(&mut self) -> Vec<FleetEvent> {
        let admitted = self.next_seq;
        let mut runs: Vec<(u16, &[(u64, OpCompletion)])> = self
            .pool
            .completion_runs()
            .enumerate()
            .filter(|(_, run)| !run.is_empty())
            .map(|(shard, run)| (shard as u16, run))
            .collect();
        // Sized for every buffered completion up front: growing by
        // doubling would cost allocations that rise with the batch size.
        let mut ready = Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
        let mut emit = |shard: u16, &(seq, completion): &(u64, OpCompletion)| {
            if seq < admitted {
                ready.push(FleetEvent {
                    seq,
                    shard,
                    completion,
                });
            }
        };
        let head = |run: &[(u64, OpCompletion)]| (run[0].1.finish_cycle, run[0].0);
        while runs.len() > 1 {
            let mut best = 0;
            for i in 1..runs.len() {
                if head(runs[i].1) < head(runs[best].1) {
                    best = i;
                }
            }
            let (shard, run) = &mut runs[best];
            emit(*shard, &run[0]);
            *run = &run[1..];
            if run.is_empty() {
                runs.swap_remove(best);
            }
        }
        if let Some((shard, run)) = runs.pop() {
            run.iter().for_each(|event| emit(shard, event));
        }
        self.pool.clear_completions();
        ready
    }
}

/// The fleet's shared state: its shape, the tenancy counter, and one
/// lock per slot.
struct Fleet {
    config: FleetConfig,
    /// Monotonic tenancy counter backing [`TenantId`] staleness checks.
    /// It publishes no other data (the slot lock does), so `Relaxed`
    /// suffices: only uniqueness matters.
    epoch: AtomicU64,
    /// `None` is a free slot: it holds no devices.
    slots: Box<[Mutex<Option<Tenant>>]>,
}

/// Cloneable, thread-safe handle to a fleet of tenant slots — the form
/// the server's one-thread-per-session model consumes. Every per-tenant
/// method locks only that tenant's slot, so sessions on different slots
/// run concurrently. See the [module docs](self) for the design
/// contract.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<Fleet>,
}

impl fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetHandle")
            .field("slots", &self.slots())
            .field("free_slots", &self.free_slots())
            .field("shards_per_slot", &self.shards_per_slot())
            .finish()
    }
}

impl FleetHandle {
    /// Builds the fleet with every slot free. Devices are built per
    /// tenant, by [`FleetHandle::acquire_with`].
    ///
    /// # Panics
    ///
    /// Panics if `config.slots` or `config.shards_per_slot` is zero.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.slots > 0, "a fleet needs at least one slot");
        assert!(
            config.shards_per_slot > 0,
            "a slot needs at least one shard"
        );
        FleetHandle {
            inner: Arc::new(Fleet {
                slots: (0..config.slots).map(|_| Mutex::new(None)).collect(),
                epoch: AtomicU64::new(0),
                config,
            }),
        }
    }

    /// Locks one slot. A panicked holder's poison is ignored: a slot's
    /// state is only mutated under methods that keep it consistent at
    /// every step.
    fn lock(&self, slot: usize) -> MutexGuard<'_, Option<Tenant>> {
        self.inner.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` on the live tenancy `id` under its slot's lock.
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    fn with_tenant<R>(&self, id: TenantId, f: impl FnOnce(&mut Tenant) -> R) -> R {
        match &mut *self.lock(id.slot) {
            Some(t) if t.epoch == id.epoch => f(t),
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    /// Acquires the lowest free slot for a new tenant with outstanding-op
    /// `quota` (clamped to at least 1), or `None` when the fleet is full.
    /// `weight` is accepted for compatibility and has no effect: every
    /// tenant's batches run on its own pool as they arrive.
    ///
    /// The tenant gets a pool of its own, built by [`DevicePool::new`]
    /// from the fleet's device config — the very pool a private session
    /// of `shards_per_slot` shards would build. That is the whole
    /// solo-equivalence argument.
    pub fn acquire_with(&self, _weight: u32, quota: usize) -> Option<TenantId> {
        let config = &self.inner.config;
        (0..self.slots()).find_map(|slot| {
            let mut guard = self.lock(slot);
            if guard.is_some() {
                return None;
            }
            let mut pool = DevicePool::new(config.shards_per_slot, &config.device);
            pool.set_health_policy(config.health);
            let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            *guard = Some(Tenant {
                epoch,
                pool,
                quota: quota.max(1),
                next_seq: 0,
            });
            Some(TenantId { slot, epoch })
        })
    }

    /// Releases the tenancy: its slot is freed and its pool dropped.
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn release(&self, id: TenantId) {
        let mut slot = self.lock(id.slot);
        match &*slot {
            Some(t) if t.epoch == id.epoch => *slot = None,
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    /// Submits the batch on the tenant's own pool and returns the
    /// receipt plus every event of this tenant's stream that became
    /// ready — exactly what a private serving engine's batch submission
    /// returns.
    ///
    /// # Errors
    ///
    /// The submission error, with the tenant's state untouched (like a
    /// private engine's failed submission).
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn submit(
        &self,
        id: TenantId,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<FleetEvent>), CodicError> {
        self.with_tenant(id, |t| t.submit(ops))
    }

    /// Flushes the tenancy: drives its pool to idle, applies the health
    /// policy, drains every event. Returns the slowest shard's cycle in
    /// the tenant's pool and the drained events. Other tenants' clocks
    /// don't move.
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn flush(&self, id: TenantId) -> (u64, Vec<FleetEvent>) {
        self.with_tenant(id, |t| {
            t.pool.drive();
            t.pool.check_health();
            let events = t.drain();
            (t.pool.now_max(), events)
        })
    }

    /// Operations submitted but not yet completed in the tenant's pool.
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.with_tenant(id, |t| t.pool.outstanding())
    }

    /// The slowest shard cycle in the tenant's pool.
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.with_tenant(id, |t| t.pool.now_max())
    }

    /// The tenant's per-shard health, cloned out of the lock.
    #[must_use]
    pub fn health(&self, id: TenantId) -> Vec<ShardHealth> {
        self.with_tenant(id, |t| t.pool.health().to_vec())
    }

    /// Number of tenant slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.inner.slots.len()
    }

    /// Slots currently free.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        (0..self.slots())
            .filter(|&slot| self.lock(slot).is_none())
            .count()
    }

    /// Shards in each tenant's pool.
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.inner.config.shards_per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    use codic_dram::geometry::DramGeometry;
    use codic_dram::timing::TimingParams;

    use crate::fault::FaultPlan;
    use crate::ops::VariantId;

    fn device_config() -> DeviceConfig {
        DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
    }

    fn zero_ops(rows: u64) -> Vec<CodicOp> {
        (0..rows)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect()
    }

    #[test]
    fn slots_acquire_release_and_recycle() {
        let fleet = FleetHandle::new(FleetConfig::new(2, 2, device_config()));
        assert_eq!(fleet.free_slots(), 2);
        let a = fleet.acquire_with(1, 1024).expect("slot a");
        let b = fleet.acquire_with(1, 1024).expect("slot b");
        assert_eq!(fleet.free_slots(), 0);
        assert!(fleet.acquire_with(1, 1024).is_none(), "full fleet rejects");
        fleet.release(a);
        assert_eq!(fleet.free_slots(), 1);
        let c = fleet.acquire_with(1, 1024).expect("slot a recycled");
        assert_eq!(c.slot(), a.slot(), "lowest free slot is reused");
        assert_ne!(c, a, "but under a fresh epoch");
        fleet.release(b);
        fleet.release(c);
    }

    #[test]
    #[should_panic(expected = "stale tenant handle")]
    fn stale_tenant_handles_are_caught() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 1, device_config()));
        let a = fleet.acquire_with(1, 1024).expect("slot");
        fleet.release(a);
        let _b = fleet.acquire_with(1, 1024).expect("recycled");
        let _ = fleet.submit(a, &zero_ops(1)); // stale: a's epoch is gone
    }

    #[test]
    fn submission_streams_are_dense_and_ordered() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 2, device_config()));
        let t = fleet.acquire_with(1, 64).expect("slot");
        let mut events = Vec::new();
        for chunk in zero_ops(96).chunks(32) {
            let (receipt, ready) = fleet.submit(t, chunk).expect("admit");
            assert_eq!(receipt.accepted, 32);
            events.extend(ready);
        }
        let (_, tail) = fleet.flush(t);
        events.extend(tail);
        assert_eq!(events.len(), 96);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..96).collect::<Vec<_>>(), "dense seq space");
        for pair in events.windows(2) {
            assert!(
                (pair[0].completion.finish_cycle, pair[0].seq)
                    <= (pair[1].completion.finish_cycle, pair[1].seq),
                "emission order is (finish_cycle, seq)"
            );
        }
        fleet.release(t);
    }

    #[test]
    fn quota_is_respected_after_every_admission() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 2, device_config()).with_quota(8));
        let t = fleet.acquire_with(1, 8).expect("slot");
        for chunk in zero_ops(64).chunks(16) {
            fleet.submit(t, chunk).expect("admit");
            assert!(
                fleet.outstanding(t) <= 8,
                "quota bounds outstanding ops after every admission step"
            );
        }
        fleet.release(t);
    }

    #[test]
    fn derived_fault_seeds_are_lease_local() {
        // A faulted fleet slot must deliver the same failures a private
        // pool of the same shape delivers — seeds derived from LOCAL
        // shard indices, not fleet-global ones. Slot 1 (global shards
        // 2..4) is the interesting case.
        let device = device_config().with_faults(FaultPlan::new(77).with_misfires(8000));
        let fleet = FleetHandle::new(FleetConfig::new(2, 2, device.clone()));
        let _a = fleet.acquire_with(1, 1024).expect("slot 0");
        let b = fleet.acquire_with(1, 1024).expect("slot 1");
        let ops = zero_ops(512);
        let (_, mut events) = fleet.submit(b, &ops).expect("admit");
        let (_, tail) = fleet.flush(b);
        events.extend(tail);

        let mut solo = crate::pool::DevicePool::new(2, &device);
        let routed = solo.submit_all_async_routed(&ops).expect("solo admit");
        solo.drive();
        let mut solo_failures = 0;
        for (i, (shard, mut future)) in routed.into_iter().enumerate() {
            let completion = future.try_take().expect("driven to idle");
            let event = &events[events.iter().position(|e| e.seq == i as u64).unwrap()];
            assert_eq!(event.shard as usize, shard);
            assert_eq!(event.completion.outcome, completion.outcome);
            if completion.outcome.cause().is_some() {
                solo_failures += 1;
            }
        }
        assert!(solo_failures > 0, "the misfire plan must actually fire");
        fleet.release(b);
    }

    /// The private serving engine's discipline on a private pool of
    /// `shards` shards, written out by hand: routed submission, quota
    /// backpressure, a health check and a `(finish_cycle, seq)` drain
    /// at every batch boundary, then a flush.
    fn solo_events(
        shards: usize,
        device: &DeviceConfig,
        ops: &[CodicOp],
        batch: usize,
        quota: usize,
    ) -> Vec<FleetEvent> {
        fn drain(inflight: &mut Vec<(u64, u16, crate::executor::OpFuture)>) -> Vec<FleetEvent> {
            let mut ready = Vec::new();
            inflight.retain_mut(|(seq, shard, future)| match future.try_take() {
                Some(completion) => {
                    ready.push(FleetEvent {
                        seq: *seq,
                        shard: *shard,
                        completion,
                    });
                    false
                }
                None => true,
            });
            ready.sort_by_key(|e| (e.completion.finish_cycle, e.seq));
            ready
        }
        let mut pool = DevicePool::new(shards, device);
        let (mut inflight, mut out, mut next_seq) = (Vec::new(), Vec::new(), 0);
        for chunk in ops.chunks(batch) {
            for (shard, future) in pool.submit_all_async_routed(chunk).expect("in range") {
                inflight.push((next_seq, shard as u16, future));
                next_seq += 1;
            }
            while pool.outstanding() > quota && pool.step() {}
            pool.check_health();
            out.extend(drain(&mut inflight));
        }
        pool.drive();
        pool.check_health();
        out.extend(drain(&mut inflight));
        out
    }

    #[test]
    fn fresh_and_recycled_slots_serve_the_solo_stream() {
        // Misfires plus a clock that wedges mid-run: a slot whose devices
        // were not rebuilt for its next tenant would start that tenant
        // on advanced, wedged clocks and consumed misfire schedules.
        let plan = FaultPlan::new(31)
            .with_misfires(6000)
            .with_stuck_shard(1, 3000);
        let device = device_config().with_faults(plan);
        let (batch, quota) = (32, 64);
        let ops = zero_ops(256);
        let solo = solo_events(2, &device, &ops, batch, quota);
        assert!(
            solo.iter().any(|e| e.completion.outcome.is_failed()),
            "the plan must actually fire"
        );
        let fleet = FleetHandle::new(FleetConfig::new(2, 2, device));
        // Holding slot 0 puts every run below on slot 1, so the devices
        // under test sit at a nonzero fleet offset.
        let hold = fleet.acquire_with(1, quota).expect("slot 0");
        for run in [
            "never-used slot",
            "slot released by an earlier tenant",
            "same slot again",
        ] {
            let t = fleet.acquire_with(1, quota).expect("slot 1");
            assert_eq!(t.slot(), 1);
            let mut events = Vec::new();
            for chunk in ops.chunks(batch) {
                events.extend(fleet.submit(t, chunk).expect("admit").1);
            }
            events.extend(fleet.flush(t).1);
            fleet.release(t);
            assert_eq!(events, solo, "{run}");
        }
        fleet.release(hold);
    }

    #[test]
    fn merged_drains_match_the_sorted_order_under_retries() {
        // Misfired ops re-enter their shard's controller under newer
        // request ids, so a shard retires some completions out of
        // `(finish_cycle, seq)` order. Each drain must still emit exactly
        // what sorting the batch's events by that key gives.
        let device = device_config()
            .with_faults(FaultPlan::new(2).with_misfires(8000))
            .with_retry(crate::fault::RetryPolicy::attempts(4));
        let fleet = FleetHandle::new(FleetConfig::new(1, 4, device));
        let t = fleet.acquire_with(1, 1024).expect("slot");
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let ops: Vec<CodicOp> = (0..20_000u64)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let row_addr = (state % 8192) * DramGeometry::ROW_BYTES;
                match i % 3 {
                    0 => CodicOp::command(VariantId::DetZero, row_addr),
                    1 => CodicOp::RowCloneZero { row_addr },
                    _ => CodicOp::LisaCloneZero { row_addr },
                }
            })
            .collect();
        let reorders = crate::device::TAGGED_REORDERS.with(std::cell::Cell::get);
        let mut drains: Vec<Vec<FleetEvent>> = ops
            .chunks(256)
            .map(|chunk| fleet.submit(t, chunk).expect("admit").1)
            .collect();
        drains.push(fleet.flush(t).1);
        let reorders = crate::device::TAGGED_REORDERS.with(std::cell::Cell::get) - reorders;
        fleet.release(t);
        let mut seen = vec![false; ops.len()];
        for events in &drains {
            let mut sorted = events.clone();
            sorted.sort_unstable_by_key(|e| (e.completion.finish_cycle, e.seq));
            assert_eq!(*events, sorted);
            for e in events {
                assert!(!std::mem::replace(&mut seen[e.seq as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s), "every op delivered");
        let retried = drains
            .iter()
            .flatten()
            .filter(|e| e.completion.attempts > 1);
        assert!(retried.count() > 1000, "the plan must actually fire");
        assert!(reorders > 0, "no completion retired out of order");
    }

    #[test]
    fn a_mid_batch_wedge_emits_only_the_batches_it_admitted() {
        // One shard whose clock sticks at cycle 150. The first batch sits
        // in the queue (the quota never steps it); the second overfills
        // the 64-deep queue, so submission steps the clock into the
        // ceiling, the only shard is quarantined, and the batch fails
        // with `NoHealthyShards` after part of it was enqueued.
        let device = device_config().with_faults(FaultPlan::new(5).with_stuck_clock(150));
        let fleet = FleetHandle::new(FleetConfig::new(1, 1, device));
        let t = fleet.acquire_with(1, 4096).expect("slot");
        let (receipt, mut events) = fleet.submit(t, &zero_ops(32)).expect("first batch");
        assert_eq!(receipt.seq_base, 0);
        let wedged = zero_ops(256)[32..].to_vec();
        assert_eq!(
            fleet.submit(t, &wedged).map(|(r, _)| r),
            Err(CodicError::NoHealthyShards)
        );
        assert_eq!(
            fleet.submit(t, &zero_ops(1)).map(|(r, _)| r),
            Err(CodicError::NoHealthyShards),
            "the quarantined pool admits nothing"
        );
        let (receipt, ready) = fleet.submit(t, &[]).expect("an empty batch needs no shard");
        assert_eq!(receipt.seq_base, 32, "the failed batch consumed no seq");
        events.extend(ready);
        events.extend(fleet.flush(t).1);
        assert_eq!(fleet.outstanding(t), 0);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (0..32).collect::<Vec<_>>(),
            "the first batch, each op once; the failed batch took no seq"
        );
        let stuck = FaultCause::ClockStuck;
        let failed = events
            .iter()
            .filter(|e| e.completion.outcome.cause() == Some(stuck))
            .count();
        assert!(
            events.iter().all(
                |e| e.completion.outcome.is_ok() || e.completion.outcome.cause() == Some(stuck)
            ),
            "an op either completed or failed with the stuck clock"
        );
        assert!(
            failed > 0 && failed < 32,
            "the wedge lands mid-batch: {failed} of 32 failed"
        );
        assert_eq!(
            fleet.health(t)[0],
            ShardHealth::Quarantined { cause: stuck }
        );
        fleet.release(t);
    }

    #[test]
    fn racing_acquires_take_distinct_slots() {
        const N: usize = 4;
        let fleet = FleetHandle::new(FleetConfig::new(N, 1, device_config()));
        let barrier = Barrier::new(N);
        let ids: Vec<TenantId> = thread::scope(|s| {
            let racers: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        fleet.acquire_with(1, 64).expect("a free slot per racer")
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("acquirer panicked"))
                .collect()
        });
        let mut slots: Vec<usize> = ids.iter().map(|id| id.slot()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..N).collect::<Vec<_>>(), "N racers, N slots");
        assert!(fleet.acquire_with(1, 64).is_none(), "full fleet rejects");

        let gone = ids[N / 2];
        thread::scope(|s| {
            s.spawn(|| fleet.release(gone))
                .join()
                .expect("releaser panicked");
        });
        assert_eq!(fleet.free_slots(), 1, "exactly one slot freed");
        let next = fleet.acquire_with(1, 64).expect("the freed slot");
        assert_eq!(next.slot(), gone.slot(), "the released slot is reused");
        for &id in ids.iter().filter(|&&id| id != gone) {
            assert_eq!(fleet.outstanding(id), 0, "other tenancies stay live");
            fleet.release(id);
        }
        fleet.release(next);
    }

    #[test]
    fn tenant_quarantine_is_confined_to_its_lease() {
        // Both slots share a hot misfire plan, but only row operations
        // can misfire: the tenant hammering DetZero trips the health
        // policy and quarantines its own shard, while its neighbour —
        // running plain reads on the *same* plan — must neither observe
        // the quarantine in its health nor in its stream.
        let hot = device_config().with_faults(FaultPlan::new(9).with_misfires(60_000));
        let policy = HealthPolicy {
            max_failed_per_64k: 30_000,
            min_ops: 16,
        };
        let fleet = FleetHandle::new(FleetConfig::new(2, 1, hot).with_health(policy));
        let sick = fleet.acquire_with(1, 1024).expect("sick");
        let fine = fleet.acquire_with(1, 1024).expect("fine");
        let _ = fleet.submit(sick, &zero_ops(64));
        let _ = fleet.flush(sick);
        assert!(
            fleet.health(sick).iter().any(|h| !h.is_healthy()),
            "the misfiring shard quarantines"
        );
        let reads: Vec<CodicOp> = (0..64).map(|i| CodicOp::read(i * 8192)).collect();
        fleet.submit(fine, &reads).expect("healthy tenant admits");
        let (_, events) = fleet.flush(fine);
        assert_eq!(events.len(), 64);
        assert!(
            fleet.health(fine).iter().all(|h| h.is_healthy()),
            "the neighbour's lease stays healthy"
        );
        fleet.release(sick);
        fleet.release(fine);
    }
}
