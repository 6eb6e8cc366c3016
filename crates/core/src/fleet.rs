//! A shared device fleet multiplexing many tenants, each on a
//! [`DevicePool`] of its own.
//!
//! [`SharedFleet`] is the one serving substrate: a fixed number of
//! tenant *slots*, each held slot owning a pool of `shards_per_slot`
//! devices. A multi-tenant server shares one fleet of N slots between
//! its sessions; a private session is simply a one-slot fleet of its
//! own. Either way the session drains [`FleetEvent`]s. Three properties
//! define the design:
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
//! - **Fair admission.** Queued batches are admitted by deficit
//!   round-robin over the slots: each rotation visit grants a tenant
//!   `weight × quantum` ops of credit, batches are admitted while the
//!   front batch's cost fits the deficit, and an idle tenant forfeits its
//!   credit. With `quantum` at least the largest batch cost, every
//!   pending tenant is served within one full rotation — the starvation
//!   bound `tests/fleet_fairness.rs` asserts.
//! - **Quota backpressure.** Each tenant's outstanding-op quota is
//!   enforced the way a private serving engine bounds its own window:
//!   after admission, the tenant's *own* pool is stepped until its
//!   outstanding count is back under quota. Fairness and quotas shape
//!   host-side admission order only; they never touch device timing.
//!
//! [`FleetHandle`] wraps the fleet in `Arc<Mutex<…>>` for the server's
//! one-thread-per-session model: sessions submit batches, the lock
//! holder pumps the round-robin until its own ticket resolves (doing
//! other tenants' admissions in fair order on the way), and each
//! tenant's events stay in per-tenant buffers until collected.
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

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::device::{DeviceConfig, OpCompletion};
use crate::error::CodicError;
use crate::fault::HealthPolicy;
use crate::idmap::IdMap;
use crate::ops::CodicOp;
use crate::pool::{DevicePool, ShardHealth};

/// Static shape of a [`SharedFleet`].
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
    /// Default per-tenant outstanding-op quota
    /// (see [`SharedFleet::acquire_with`] to override per tenant).
    pub quota: usize,
    /// Deficit-round-robin quantum: ops of admission credit granted per
    /// weight unit per rotation visit. Any quantum at least the largest
    /// batch cost bounds every pending tenant's wait to one rotation.
    pub quantum: u32,
    /// Self-quarantine policy applied to every tenant's pool.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// A fleet of `slots` tenant slots, `shards_per_slot` shards each,
    /// with the default quota (1024 ops), quantum (4096 ops), and health
    /// policy.
    #[must_use]
    pub fn new(slots: usize, shards_per_slot: usize, device: DeviceConfig) -> Self {
        FleetConfig {
            slots,
            shards_per_slot,
            device,
            quota: 1024,
            quantum: 4096,
            health: HealthPolicy::default(),
        }
    }

    /// Replaces the default per-tenant outstanding-op quota.
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota.max(1);
        self
    }

    /// Replaces the deficit-round-robin quantum.
    #[must_use]
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum.max(1);
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

/// What the fleet admitted for one enqueued batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitReceipt {
    /// First sequence number assigned to the batch.
    pub seq_base: u64,
    /// Operations admitted (the whole batch — admission is
    /// all-or-nothing, like a private pool's submission).
    pub accepted: u32,
}

/// A batch waiting in a tenant's pending queue for DRR admission.
#[derive(Debug)]
struct PendingBatch {
    ticket: u64,
    ops: Vec<CodicOp>,
}

/// One live tenancy: its own pool plus everything a private serving
/// engine would keep per session.
#[derive(Debug)]
struct Tenant {
    epoch: u64,
    pool: DevicePool,
    /// QoS weight: admission credit per rotation is `weight × quantum`.
    weight: u32,
    /// Outstanding-op quota enforced by stepping the tenant's own pool.
    quota: usize,
    /// Deficit-round-robin credit, in ops.
    deficit: u64,
    /// Next tenant-stream sequence number.
    next_seq: u64,
    /// Batches enqueued but not yet admitted.
    pending: VecDeque<PendingBatch>,
    /// Admitted, not yet completed: `(seq, shard, future)`.
    inflight: Vec<(u64, u16, crate::executor::OpFuture)>,
    scratch: Vec<(u64, u16, crate::executor::OpFuture)>,
    /// Completed events awaiting collection, in emission order.
    events: Vec<FleetEvent>,
    /// Batches admitted over the tenancy (fairness observability).
    admitted: u64,
}

/// The shared fleet: tenant slots, each held one owning its own
/// [`DevicePool`], with deficit-round-robin admission at the pool
/// boundary. See the [module docs](self) for the design contract.
#[derive(Debug)]
pub struct SharedFleet {
    config: FleetConfig,
    /// `None` is a free slot: it holds no devices.
    slots: Vec<Option<Tenant>>,
    /// Next slot the round-robin visits.
    cursor: usize,
    /// Monotonic tenancy counter backing [`TenantId`] staleness checks.
    epoch: u64,
    next_ticket: u64,
    /// Resolved admission tickets awaiting collection.
    tickets: IdMap<Result<AdmitReceipt, CodicError>>,
}

impl SharedFleet {
    /// Builds the fleet with every slot free. Devices are built per
    /// tenant, by [`SharedFleet::acquire_with`].
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
        SharedFleet {
            slots: (0..config.slots).map(|_| None).collect(),
            cursor: 0,
            epoch: 0,
            next_ticket: 0,
            tickets: IdMap::with_capacity(config.slots.max(8) * 2),
            config,
        }
    }

    /// Number of tenant slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently free.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Shards in each tenant's pool.
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.config.shards_per_slot
    }

    /// Acquires a free slot with weight 1 and the fleet's default quota.
    pub fn acquire(&mut self) -> Option<TenantId> {
        self.acquire_with(1, self.config.quota)
    }

    /// Acquires the lowest free slot for a new tenant with the given QoS
    /// `weight` and outstanding-op `quota` (both clamped to at least 1),
    /// or `None` when the fleet is full.
    ///
    /// The tenant gets a pool of its own, built by [`DevicePool::new`]
    /// from the fleet's device config — the very pool a private session
    /// of `shards_per_slot` shards would build. That is the whole
    /// solo-equivalence argument.
    pub fn acquire_with(&mut self, weight: u32, quota: usize) -> Option<TenantId> {
        let slot = self.slots.iter().position(Option::is_none)?;
        let mut pool = DevicePool::new(self.config.shards_per_slot, &self.config.device);
        pool.set_health_policy(self.config.health);
        self.epoch += 1;
        self.slots[slot] = Some(Tenant {
            epoch: self.epoch,
            pool,
            weight: weight.max(1),
            quota: quota.max(1),
            deficit: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            scratch: Vec::new(),
            events: Vec::new(),
            admitted: 0,
        });
        Some(TenantId {
            slot,
            epoch: self.epoch,
        })
    }

    /// Releases the tenancy: its slot is freed and its pool dropped.
    /// Batches still pending resolve their tickets as
    /// [`CodicError::NoHealthyShards`] — a released tenant has no shards
    /// left to admit to.
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn release(&mut self, id: TenantId) {
        let pending = std::mem::take(&mut self.tenant_mut(id).pending);
        self.slots[id.slot] = None;
        for batch in pending {
            self.tickets
                .insert(batch.ticket, Err(CodicError::NoHealthyShards));
        }
    }

    fn tenant_mut(&mut self, id: TenantId) -> &mut Tenant {
        match &mut self.slots[id.slot] {
            Some(t) if t.epoch == id.epoch => t,
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    fn tenant(&self, id: TenantId) -> &Tenant {
        match &self.slots[id.slot] {
            Some(t) if t.epoch == id.epoch => t,
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    /// Queues a batch for fair admission; returns the ticket that
    /// [`SharedFleet::pump_until`] resolves. Sequence numbers are
    /// assigned at *admission*, so they follow admission order (which,
    /// within one tenant, is enqueue order — the queue is FIFO).
    pub fn enqueue(&mut self, id: TenantId, ops: &[CodicOp]) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.tenant_mut(id).pending.push_back(PendingBatch {
            ticket,
            ops: ops.to_vec(),
        });
        ticket
    }

    /// Collects a resolved ticket, if resolved.
    pub fn take_ticket(&mut self, ticket: u64) -> Option<Result<AdmitReceipt, CodicError>> {
        self.tickets.remove(ticket)
    }

    /// True while any tenant has batches awaiting admission.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.slots.iter().flatten().any(|t| !t.pending.is_empty())
    }

    /// One deficit-round-robin visit: grants the cursor slot's tenant its
    /// credit and admits its queued batches while they fit, then advances
    /// the cursor. Returns the number of batches admitted.
    ///
    /// Classic DRR, with batch length in ops as the cost function: an
    /// idle queue forfeits its credit (deficits measure backlog service,
    /// not idle accumulation), and a visited backlog earns
    /// `weight × quantum` more credit than it did last rotation — so any
    /// pending batch is eventually affordable, and with the quantum at
    /// least the largest batch cost, affordable within one rotation.
    pub fn pump_turn(&mut self) -> usize {
        let slot = self.cursor;
        self.cursor = (self.cursor + 1) % self.slots.len();
        let quantum = self.config.quantum;
        let Some(tenant) = &mut self.slots[slot] else {
            return 0;
        };
        if tenant.pending.is_empty() {
            tenant.deficit = 0;
            return 0;
        }
        tenant.deficit = tenant
            .deficit
            .saturating_add(u64::from(tenant.weight) * u64::from(quantum));
        let mut admitted = 0;
        while let Some(front) = tenant.pending.front() {
            let cost = (front.ops.len() as u64).max(1);
            if cost > tenant.deficit {
                break;
            }
            let batch = tenant.pending.pop_front().expect("front exists");
            tenant.deficit -= cost;
            let result = Self::admit(tenant, &batch.ops);
            self.tickets.insert(batch.ticket, result);
            admitted += 1;
        }
        admitted
    }

    /// Pumps rotation turns until `ticket` resolves, then returns its
    /// result. Other tenants' batches ahead in the rotation are admitted
    /// along the way — the caller does the fleet's work in fair order.
    ///
    /// # Errors
    ///
    /// The admission error the ticket resolved to, verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `ticket` is not pending anywhere and never resolves
    /// (e.g. a ticket already taken).
    pub fn pump_until(&mut self, ticket: u64) -> Result<AdmitReceipt, CodicError> {
        loop {
            if let Some(result) = self.tickets.remove(ticket) {
                return result;
            }
            assert!(
                self.has_pending(),
                "ticket {ticket} is not pending and never resolved"
            );
            self.pump_turn();
        }
    }

    /// Pumps rotation turns until every queued batch everywhere is
    /// admitted; returns the total admitted.
    pub fn pump(&mut self) -> usize {
        let mut total = 0;
        while self.has_pending() {
            total += self.pump_turn();
        }
        total
    }

    /// The private serving engine's submission discipline on the
    /// tenant's own pool: all-or-nothing routed submission, quota
    /// backpressure stepping only this tenant's shards, health check at
    /// the batch boundary, then a non-blocking drain. Because every
    /// clock this touches belongs to the tenant, admission order across
    /// tenants cannot perturb any tenant's device timeline.
    fn admit(tenant: &mut Tenant, ops: &[CodicOp]) -> Result<AdmitReceipt, CodicError> {
        let routed = tenant.pool.submit_all_async_routed(ops)?;
        let seq_base = tenant.next_seq;
        for (shard, future) in routed {
            tenant
                .inflight
                .push((tenant.next_seq, shard as u16, future));
            tenant.next_seq += 1;
        }
        while tenant.pool.outstanding() > tenant.quota && tenant.pool.step() {}
        tenant.pool.check_health();
        tenant.admitted += 1;
        Self::drain(tenant);
        Ok(AdmitReceipt {
            seq_base,
            accepted: ops.len() as u32,
        })
    }

    /// Moves every resolved in-flight future into the tenant's event
    /// buffer, ordered by `(finish_cycle, seq)` — the same emission
    /// order a private serving engine produces.
    fn drain(tenant: &mut Tenant) {
        let mut ready = Vec::new();
        tenant.scratch.clear();
        for (seq, shard, mut future) in tenant.inflight.drain(..) {
            match future.try_take() {
                Some(completion) => ready.push(FleetEvent {
                    seq,
                    shard,
                    completion,
                }),
                None => tenant.scratch.push((seq, shard, future)),
            }
        }
        std::mem::swap(&mut tenant.inflight, &mut tenant.scratch);
        ready.sort_by_key(|e| (e.completion.finish_cycle, e.seq));
        tenant.events.extend(ready);
    }

    /// Flushes the tenancy: drives its pool to idle, applies the health
    /// policy, drains every event. Returns the slowest shard's cycle in
    /// the tenant's pool. Other tenants' clocks don't move.
    pub fn flush(&mut self, id: TenantId) -> u64 {
        let tenant = self.tenant_mut(id);
        tenant.pool.drive();
        tenant.pool.check_health();
        Self::drain(tenant);
        tenant.pool.now_max()
    }

    /// Takes the tenant's buffered events (emission order).
    pub fn take_events(&mut self, id: TenantId) -> Vec<FleetEvent> {
        std::mem::take(&mut self.tenant_mut(id).events)
    }

    /// Operations admitted but not yet completed in the tenant's pool.
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.tenant(id).pool.outstanding()
    }

    /// The slowest shard cycle in the tenant's pool.
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.tenant(id).pool.now_max()
    }

    /// The per-shard health of the tenant's pool.
    #[must_use]
    pub fn health(&self, id: TenantId) -> &[ShardHealth] {
        self.tenant(id).pool.health()
    }

    /// The tenant's current deficit-round-robin credit, in ops.
    #[must_use]
    pub fn deficit(&self, id: TenantId) -> u64 {
        self.tenant(id).deficit
    }

    /// Batches admitted over the tenancy so far.
    #[must_use]
    pub fn admitted_batches(&self, id: TenantId) -> u64 {
        self.tenant(id).admitted
    }
}

/// Cloneable, thread-safe handle to a [`SharedFleet`] — the form the
/// server's one-thread-per-session model consumes. All methods lock the
/// fleet for their duration; [`FleetHandle::submit`] additionally pumps
/// the round-robin until its own ticket resolves.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<Mutex<SharedFleet>>,
}

impl fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fleet = self.lock();
        f.debug_struct("FleetHandle")
            .field("slots", &fleet.slots())
            .field("free_slots", &fleet.free_slots())
            .field("shards_per_slot", &fleet.shards_per_slot())
            .finish()
    }
}

impl FleetHandle {
    /// Builds a fleet and wraps it (see [`SharedFleet::new`]).
    ///
    /// # Panics
    ///
    /// As [`SharedFleet::new`].
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        FleetHandle {
            inner: Arc::new(Mutex::new(SharedFleet::new(config))),
        }
    }

    /// Locks the fleet. A panicked holder's poison is ignored: the
    /// fleet's state is only mutated under methods that keep it
    /// consistent at every await-free step.
    fn lock(&self) -> MutexGuard<'_, SharedFleet> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// See [`SharedFleet::acquire_with`].
    pub fn acquire_with(&self, weight: u32, quota: usize) -> Option<TenantId> {
        self.lock().acquire_with(weight, quota)
    }

    /// See [`SharedFleet::release`].
    pub fn release(&self, id: TenantId) {
        self.lock().release(id);
    }

    /// Enqueues the batch, pumps the fair rotation until it is admitted,
    /// and returns the receipt plus every event of this tenant's stream
    /// that became ready — exactly what a private serving engine's
    /// batch submission returns.
    ///
    /// # Errors
    ///
    /// The admission error, with the tenant's state untouched (buffered
    /// events stay buffered, like a private engine's failed submission).
    pub fn submit(
        &self,
        id: TenantId,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<FleetEvent>), CodicError> {
        let mut fleet = self.lock();
        let ticket = fleet.enqueue(id, ops);
        let receipt = fleet.pump_until(ticket)?;
        Ok((receipt, fleet.take_events(id)))
    }

    /// Flushes the tenancy; returns its pool's slowest shard cycle and
    /// the drained events (see [`SharedFleet::flush`]).
    pub fn flush(&self, id: TenantId) -> (u64, Vec<FleetEvent>) {
        let mut fleet = self.lock();
        let now = fleet.flush(id);
        (now, fleet.take_events(id))
    }

    /// See [`SharedFleet::outstanding`].
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.lock().outstanding(id)
    }

    /// See [`SharedFleet::now_max`].
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.lock().now_max(id)
    }

    /// The tenant's per-shard health, cloned out of the lock.
    #[must_use]
    pub fn health(&self, id: TenantId) -> Vec<ShardHealth> {
        self.lock().health(id).to_vec()
    }

    /// See [`SharedFleet::slots`].
    #[must_use]
    pub fn slots(&self) -> usize {
        self.lock().slots()
    }

    /// See [`SharedFleet::free_slots`].
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.lock().free_slots()
    }

    /// See [`SharedFleet::shards_per_slot`].
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.lock().shards_per_slot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut fleet = SharedFleet::new(FleetConfig::new(2, 2, device_config()));
        assert_eq!(fleet.free_slots(), 2);
        let a = fleet.acquire().expect("slot a");
        let b = fleet.acquire().expect("slot b");
        assert_eq!(fleet.free_slots(), 0);
        assert!(fleet.acquire().is_none(), "full fleet rejects");
        fleet.release(a);
        assert_eq!(fleet.free_slots(), 1);
        let c = fleet.acquire().expect("slot a recycled");
        assert_eq!(c.slot(), a.slot(), "lowest free slot is reused");
        assert_ne!(c, a, "but under a fresh epoch");
        fleet.release(b);
        fleet.release(c);
    }

    #[test]
    #[should_panic(expected = "stale tenant handle")]
    fn stale_tenant_handles_are_caught() {
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 1, device_config()));
        let a = fleet.acquire().expect("slot");
        fleet.release(a);
        let _b = fleet.acquire().expect("recycled");
        fleet.enqueue(a, &zero_ops(1)); // stale: a's epoch is gone
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
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 2, device_config()).with_quota(8));
        let t = fleet.acquire().expect("slot");
        for chunk in zero_ops(64).chunks(16) {
            let ticket = fleet.enqueue(t, chunk);
            fleet.pump_until(ticket).expect("admit");
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
        for (i, (shard, future)) in routed.into_iter().enumerate() {
            let completion = crate::executor::block_on(future);
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
    fn drr_serves_every_pending_tenant_within_one_rotation() {
        let mut fleet = SharedFleet::new(FleetConfig::new(3, 1, device_config()).with_quantum(64));
        let tenants: Vec<TenantId> = (0..3).map(|_| fleet.acquire().expect("slot")).collect();
        // Tenant 0 floods; tenants 1 and 2 each queue one batch.
        for chunk in zero_ops(64 * 8).chunks(64) {
            fleet.enqueue(tenants[0], chunk);
        }
        let t1 = fleet.enqueue(tenants[1], &zero_ops(32));
        let t2 = fleet.enqueue(tenants[2], &zero_ops(32));
        // One full rotation (slots() turns) must admit every tenant's
        // front batch: the quantum covers the largest batch cost.
        for _ in 0..fleet.slots() {
            fleet.pump_turn();
        }
        assert!(
            fleet.take_ticket(t1).is_some(),
            "tenant 1 served in one rotation"
        );
        assert!(
            fleet.take_ticket(t2).is_some(),
            "tenant 2 served in one rotation"
        );
        assert!(fleet.has_pending(), "the flood is still queued");
        fleet.pump();
        for t in tenants {
            fleet.flush(t);
            fleet.release(t);
        }
    }

    #[test]
    fn weights_scale_admission_credit() {
        let mut fleet = SharedFleet::new(
            FleetConfig::new(2, 1, device_config())
                .with_quantum(32)
                .with_quota(4096),
        );
        let heavy = fleet.acquire_with(4, 4096).expect("heavy");
        let light = fleet.acquire_with(1, 4096).expect("light");
        for chunk in zero_ops(32 * 40).chunks(32) {
            fleet.enqueue(heavy, chunk);
        }
        for chunk in zero_ops(32 * 40).chunks(32) {
            fleet.enqueue(light, chunk);
        }
        // Four rotations: weight-4 earns 4 admissions per visit to
        // weight-1's single admission.
        for _ in 0..4 * fleet.slots() {
            fleet.pump_turn();
        }
        assert_eq!(fleet.admitted_batches(heavy), 16);
        assert_eq!(fleet.admitted_batches(light), 4);
        fleet.pump();
        for t in [heavy, light] {
            fleet.flush(t);
            fleet.release(t);
        }
    }

    #[test]
    fn idle_tenants_forfeit_deficit() {
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 1, device_config()).with_quantum(16));
        let t = fleet.acquire().expect("slot");
        let ticket = fleet.enqueue(t, &zero_ops(8));
        fleet.pump_until(ticket).expect("admit");
        assert!(fleet.deficit(t) > 0, "leftover credit after admission");
        fleet.pump_turn(); // visit with an empty queue
        assert_eq!(fleet.deficit(t), 0, "idle visit resets the deficit");
        fleet.flush(t);
        fleet.release(t);
    }

    #[test]
    fn released_tenants_reject_their_queued_batches() {
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 1, device_config()));
        let t = fleet.acquire().expect("slot");
        let ticket = fleet.enqueue(t, &zero_ops(4));
        fleet.release(t);
        assert_eq!(
            fleet.take_ticket(ticket),
            Some(Err(CodicError::NoHealthyShards)),
            "a released tenant's pending batches resolve as rejections"
        );
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
