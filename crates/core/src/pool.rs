//! A sharded pool of [`CodicDevice`]s for throughput-style workloads.
//!
//! Serving-scale CODIC traffic (secure-deallocation trace replays,
//! full-module destruction sweeps, PUF evaluation campaigns) is
//! embarrassingly parallel across channels/ranks: each shard owns its own
//! mode registers, policy state, and cycle-level scheduler. [`DevicePool`]
//! builds one [`CodicDevice`] per shard, routes each [`CodicOp`] to the
//! shard owning its row, and drives the shards on rayon worker threads.
//!
//! The API is batched: [`DevicePool::execute_all`] is the
//! submit → run → collect convenience wrapper the benchmarks use, and
//! [`DevicePool::submit_all_async_routed`] + [`DevicePool::drive`] is the
//! async pair — one [`OpFuture`] slot per operation, filled by the clock
//! driver and emptied with [`OpFuture::try_take`].
//!
//! Each slot is shared with its operation's pending entry and filled in
//! place by the rayon worker driving the shard. Each
//! shard's in-flight table is a slot slab as long as the shard's peak
//! live count, so it never grows at steady state, however long a write
//! waits behind later traffic.
//!
//! Long-running services bound their in-flight window with
//! [`DevicePool::outstanding`] (the pool-wide backpressure signal; the
//! per-shard figure is [`CodicDevice::outstanding`] via
//! [`DevicePool::device`]) and relieve pressure incrementally with
//! [`DevicePool::step`], which advances every busy shard by one engine
//! event instead of running all the way to idle.
//!
//! The pool owns its shards' routing table and health state too
//! ([`DevicePool::shard_of`], [`DevicePool::quarantine`],
//! [`DevicePool::check_health`]), and it is the unit of tenancy: every
//! held slot of a [`FleetHandle`](crate::fleet::FleetHandle) owns one
//! pool built by [`DevicePool::new`], so a tenant's stream is a private
//! pool's stream by construction.
//!
//! # Example
//!
//! The async pattern end to end — submit a batch, drive the shard
//! clocks, take the typed completions:
//!
//! ```
//! use codic_core::device::DeviceConfig;
//! use codic_core::ops::{CodicOp, VariantId};
//! use codic_core::pool::DevicePool;
//! use codic_dram::{DramGeometry, TimingParams};
//!
//! let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
//!     .with_refresh(false);
//! let mut pool = DevicePool::new(2, &config);
//!
//! // One zeroing command and one ordinary read on the shared path.
//! let ops = [CodicOp::command(VariantId::DetZero, 0), CodicOp::read(64)];
//! let mut routed = pool.submit_all_async_routed(&ops).unwrap();
//! assert_eq!(pool.outstanding(), 2);
//!
//! pool.drive(); // the clock driver fills every slot
//! assert_eq!(pool.outstanding(), 0);
//!
//! let completions: Vec<_> = routed
//!     .iter_mut()
//!     .map(|(_, future)| future.try_take().expect("driven to idle"))
//!     .collect();
//! assert_eq!(completions[0].op, ops[0]);
//! assert!(completions[1].finish_cycle > 0);
//! ```

use codic_dram::geometry::{Divisor, DramGeometry};
use rayon::prelude::*;

use crate::device::{BatchOutcome, CodicDevice, DeviceConfig, OpCompletion, SweepReport};
use crate::error::CodicError;
use crate::executor::OpFuture;
use crate::fault::{FaultCause, HealthPolicy};
use crate::ops::CodicOp;

/// One shard's health state, as tracked by the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard serves traffic.
    Healthy,
    /// The shard was drained and removed from the routing table; its row
    /// ranges are re-routed to the surviving shards.
    Quarantined {
        /// What condemned the shard.
        cause: FaultCause,
    },
}

impl ShardHealth {
    /// True while the shard serves traffic.
    #[must_use]
    pub fn is_healthy(self) -> bool {
        matches!(self, ShardHealth::Healthy)
    }
}

/// Aggregate outcome of a pooled batch execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOutcome {
    /// Per-shard batch outcomes, indexed by shard.
    pub per_shard: Vec<BatchOutcome>,
}

impl PoolOutcome {
    /// Total operations completed across all shards.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.per_shard.iter().map(BatchOutcome::ops).sum()
    }

    /// The slowest shard's finish cycle (shards run concurrently, so this
    /// is the batch's wall-clock DRAM time).
    #[must_use]
    pub fn finish_cycle(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|o| o.finish_cycle)
            .max()
            .unwrap_or(0)
    }

    /// The slowest shard's finish time in nanoseconds of DRAM time.
    #[must_use]
    pub fn finish_ns(&self) -> f64 {
        self.per_shard
            .iter()
            .map(|o| o.finish_ns)
            .fold(0.0, f64::max)
    }

    /// Total accounted energy across shards, in nanojoules.
    #[must_use]
    pub fn energy_nj(&self) -> f64 {
        self.per_shard.iter().map(|o| o.energy_nj).sum()
    }

    /// Iterates every completion with its shard index.
    pub fn completions(&self) -> impl Iterator<Item = (usize, &OpCompletion)> {
        self.per_shard
            .iter()
            .enumerate()
            .flat_map(|(shard, o)| o.completions.iter().map(move |c| (shard, c)))
    }
}

/// A pool of identical devices, one per channel/rank shard, with the
/// routing table and per-shard health that steer traffic over them.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<CodicDevice>,
    /// Bytes per distribution block: one block spans one row in every
    /// bank of a shard, so consecutive blocks rotate shards without
    /// starving any shard's bank-level parallelism.
    block_bytes: Divisor,
    /// The shard count, as the divisor a block's primary shard takes.
    shards: Divisor,
    /// Per-shard health; quarantined shards take no new traffic.
    health: Vec<ShardHealth>,
    /// Cache of healthy shard indices, in order — the re-routing table
    /// consulted by [`DevicePool::shard_of`] when a primary shard is
    /// quarantined.
    healthy: Vec<usize>,
    /// Byte address anchoring every bulk-bitwise compute op's route when
    /// the configuration carries a compute region. Compute state lives in
    /// one device's data plane, so every compute op must land on the one
    /// shard owning the region's base block — scattering the region's
    /// rows across shards would split the architectural state.
    compute_base: Option<u64>,
    /// When shards self-quarantine (checked only at batch boundaries).
    health_policy: HealthPolicy,
}

impl DevicePool {
    /// Builds a pool of `shards` devices, each configured from `config`,
    /// all healthy.
    ///
    /// When `config` carries a [`FaultPlan`](crate::fault::FaultPlan),
    /// each shard receives its *derived* per-shard plan
    /// ([`FaultPlan::for_shard`](crate::fault::FaultPlan::for_shard)):
    /// independently seeded misfire schedules, and the stuck clock only
    /// on its target shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize, config: &DeviceConfig) -> Self {
        assert!(shards > 0, "a pool needs at least one shard");
        let region = config.compute_range();
        DevicePool {
            devices: (0..shards)
                .map(|shard| {
                    let mut config = config.clone();
                    config.fault = config.fault.map(|plan| plan.for_shard(shard));
                    CodicDevice::new(config)
                })
                .collect(),
            block_bytes: Divisor::new(
                DramGeometry::ROW_BYTES * u64::from(config.geometry.total_banks()).max(1),
            ),
            shards: Divisor::new(shards as u64),
            health: vec![ShardHealth::Healthy; shards],
            healthy: (0..shards).collect(),
            compute_base: (!region.is_empty()).then_some(region.start),
            health_policy: HealthPolicy::default(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.devices.len()
    }

    /// The shard that owns `op`'s row. Rows are distributed in blocks of
    /// one bank-rotation each (8 consecutive rows touch all 8 banks), so
    /// every shard keeps full bank-level parallelism under contiguous
    /// workloads.
    ///
    /// When the primary shard is quarantined, the block is re-routed
    /// deterministically over the surviving shards
    /// (`healthy[block % healthy.len()]`), so two pools with the same
    /// quarantine set route identically. With every shard quarantined the
    /// primary mapping is returned; submission paths reject that case
    /// with [`CodicError::NoHealthyShards`] before routing.
    ///
    /// Bulk-bitwise compute operations are the exception to row-based
    /// distribution: they all route by the compute region's base address
    /// (one shard's data plane owns the whole region), regardless of
    /// which compute row they touch.
    #[must_use]
    pub fn shard_of(&self, op: CodicOp) -> usize {
        let addr = match self.compute_base {
            Some(base) if op.is_compute() => base,
            _ => op.row_addr(),
        };
        let block = addr / self.block_bytes;
        let primary = (block % self.shards) as usize;
        if self.health[primary].is_healthy() || self.healthy.is_empty() {
            primary
        } else {
            self.healthy[(block % self.healthy.len() as u64) as usize]
        }
    }

    /// Per-shard health states, indexed by shard.
    #[must_use]
    pub fn health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Replaces the self-quarantine policy (defaults to
    /// [`HealthPolicy::default`]).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.health_policy = policy;
    }

    /// Quarantines `shard`: drains it if its clock still advances
    /// (pending completions are delivered with their own outcomes), fails
    /// whatever cannot finish with `cause`, and removes the shard from
    /// the routing table. Subsequent traffic for its row ranges is
    /// re-routed to the surviving shards. Returns the number of pending
    /// operations failed; quarantining an already-quarantined shard is a
    /// no-op returning 0.
    pub fn quarantine(&mut self, shard: usize, cause: FaultCause) -> usize {
        if !self.health[shard].is_healthy() {
            return 0;
        }
        let device = &mut self.devices[shard];
        if !device.is_stalled() {
            device.run_to_idle();
        }
        let failed = device.fail_all_pending(cause);
        self.health[shard] = ShardHealth::Quarantined { cause };
        self.healthy.retain(|&s| s != shard);
        failed
    }

    /// Applies the health policy to every healthy shard: a stalled clock
    /// quarantines immediately ([`FaultCause::ClockStuck`]); a delivered
    /// failure rate past the policy threshold quarantines with
    /// [`FaultCause::Quarantined`]. Called by services at batch/flush
    /// boundaries — never on the per-op hot path. Returns the number of
    /// shards newly quarantined.
    pub fn check_health(&mut self) -> usize {
        let mut condemned = 0;
        for shard in 0..self.devices.len() {
            if !self.health[shard].is_healthy() {
                continue;
            }
            let device = &self.devices[shard];
            let cause = if device.is_stalled() {
                Some(FaultCause::ClockStuck)
            } else {
                let stats = device.fault_stats();
                let breached = stats.delivered() >= self.health_policy.min_ops
                    && stats.failed_per_64k() > self.health_policy.max_failed_per_64k;
                breached.then_some(FaultCause::Quarantined)
            };
            if let Some(cause) = cause {
                self.quarantine(shard, cause);
                condemned += 1;
            }
        }
        condemned
    }

    /// One shard's device, for inspection.
    #[must_use]
    pub fn device(&self, shard: usize) -> &CodicDevice {
        &self.devices[shard]
    }

    /// Distributes a batch across the shards, all-or-nothing, and returns
    /// one [`OpFuture`] slot per operation in input order, beside the
    /// shard it landed on. Every operation is policy-checked against its
    /// shard before anything is enqueued anywhere. The pool's clock
    /// driver, [`DevicePool::drive`] (or each shard's own
    /// [`CodicDevice::step`]/[`CodicDevice::run_to_idle`]), fills the
    /// slots in completion order.
    ///
    /// A shard whose clock wedges with a full queue *during* submission
    /// is quarantined on the spot — its stranded operations resolve as
    /// typed [`FaultCause::ClockStuck`] failures — and the operation
    /// re-routes to a survivor, so the landing shard can differ from
    /// what [`DevicePool::shard_of`] said before submission.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything, or
    /// [`CodicError::NoHealthyShards`] when every shard is (or becomes)
    /// quarantined — in the mid-batch case, operations submitted before
    /// the last shard wedged stay enqueued.
    pub fn submit_all_async_routed(
        &mut self,
        ops: &[CodicOp],
    ) -> Result<Vec<(usize, OpFuture)>, CodicError> {
        let mut routed = Vec::with_capacity(ops.len());
        self.submit_each(ops, |device, shard, op| {
            routed.push((shard, device.submit_async_prechecked(op)?));
            Ok(())
        })?;
        Ok(routed)
    }

    /// The tagged twin of [`DevicePool::submit_all_async_routed`]: the
    /// same routing, quarantine and re-route, but op `i` is submitted on
    /// its shard's synchronous path tagged `first_tag + i`, and its
    /// completion lands, with the tag, in its shard's run of
    /// [`DevicePool::completion_runs`]. No future, lock or allocation per
    /// op.
    ///
    /// # Errors
    ///
    /// As [`DevicePool::submit_all_async_routed`]. On a mid-batch
    /// [`CodicError::NoHealthyShards`], the ops enqueued before the last
    /// shard wedged still deliver their (failed) completions, tagged.
    pub(crate) fn submit_all_tagged(
        &mut self,
        ops: &[CodicOp],
        first_tag: u64,
    ) -> Result<(), CodicError> {
        let mut tag = first_tag;
        self.submit_each(ops, |device, _, op| {
            device.submit_tagged(op, tag)?;
            tag += 1;
            Ok(())
        })
    }

    /// Every shard's buffered completions, in shard order, each run
    /// ordered by `(finish_cycle, tag)` ([`CodicDevice::completions`]).
    pub(crate) fn completion_runs(&self) -> impl Iterator<Item = &[(u64, OpCompletion)]> {
        self.devices.iter().map(CodicDevice::completions)
    }

    /// Empties every shard's completion buffer, keeping its capacity.
    pub(crate) fn clear_completions(&mut self) {
        self.devices
            .iter_mut()
            .for_each(CodicDevice::clear_completions);
    }

    /// The one routed submission loop behind both flavours. Every op is
    /// routed and policy-checked first (`route_checked`; the config is
    /// the same on every shard, so a mid-batch re-route cannot
    /// invalidate the check), then handed to `submit` with its shard —
    /// re-routed through [`DevicePool::shard_of`] if the precomputed
    /// route went stale. A shard that reports a wedged clock at
    /// submission ([`CodicError::DeviceStalled`]: the op was not
    /// enqueued) is quarantined on the spot and the op re-routes to a
    /// survivor.
    fn submit_each(
        &mut self,
        ops: &[CodicOp],
        mut submit: impl FnMut(&mut CodicDevice, usize, CodicOp) -> Result<(), CodicError>,
    ) -> Result<(), CodicError> {
        let routes = self.route_checked(ops)?;
        for (&op, mut shard) in ops.iter().zip(routes) {
            if !self.health[shard].is_healthy() {
                shard = self.shard_of(op);
            }
            loop {
                if self.healthy.is_empty() {
                    return Err(CodicError::NoHealthyShards);
                }
                match submit(&mut self.devices[shard], shard, op) {
                    Err(CodicError::DeviceStalled) => {
                        // The shard can make no progress with a full
                        // queue: condemn it here rather than bounce the
                        // batch; its stranded ops resolve as typed
                        // ClockStuck failures.
                        self.quarantine(shard, FaultCause::ClockStuck);
                        shard = self.shard_of(op);
                    }
                    result => break result?,
                }
            }
        }
        Ok(())
    }

    /// Computes every op's shard and policy-checks it there, before
    /// anything is enqueued anywhere (the all-or-nothing pre-flight).
    fn route_checked(&self, ops: &[CodicOp]) -> Result<Vec<usize>, CodicError> {
        if self.healthy.is_empty() && !ops.is_empty() {
            return Err(CodicError::NoHealthyShards);
        }
        let mut routes = Vec::with_capacity(ops.len());
        for &op in ops {
            let shard = self.shard_of(op);
            self.devices[shard].controller().check_safe_range(op)?;
            routes.push(shard);
        }
        Ok(routes)
    }

    /// The pool's clock driver: advances every shard's event engine to
    /// idle on rayon worker threads, filling every outstanding
    /// [`OpFuture`] slot along the way (from the worker threads).
    /// Returns the slowest shard's finish cycle.
    pub fn drive(&mut self) -> u64 {
        // Shards with no actionable event would run-to-idle as a no-op;
        // skip them (their clocks stay put, contributing only `now`)
        // and skip the rayon dispatch entirely when every shard is
        // quiet — serving loops flush at every batch boundary, where
        // most shards are usually already drained.
        if self
            .devices
            .iter()
            .all(|d| d.next_event_cycle() == u64::MAX)
        {
            return self.now_max();
        }
        self.devices
            .iter_mut()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|d| {
                if d.next_event_cycle() == u64::MAX {
                    d.now()
                } else {
                    d.run_to_idle()
                }
            })
            .collect::<Vec<_>>()
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    /// Advances every busy shard by one engine event — the incremental
    /// clock driver for serving loops that relieve backpressure without
    /// running all the way to idle (the [`OpFuture`] slot of each op that
    /// retires is filled along the way). Returns `false` when every shard was already idle.
    ///
    /// Unlike [`DevicePool::drive`], this is a small, bounded amount of
    /// work, so it runs on the caller's thread (no rayon dispatch) and its
    /// effect is deterministic for a given submission sequence.
    pub fn step(&mut self) -> bool {
        let mut advanced = false;
        for device in &mut self.devices {
            // `u64::MAX` guarantees `step()` would be a no-op; skipping
            // the shard is state-identical and keeps the backpressure
            // loop from re-visiting drained shards every iteration.
            if device.next_event_cycle() != u64::MAX {
                advanced |= device.step();
            }
        }
        advanced
    }

    /// Total operations submitted but not yet completed across all shards
    /// — the pool-wide backpressure signal for serving loops that bound
    /// their in-flight window. Per shard:
    /// [`CodicDevice::outstanding`] via [`DevicePool::device`].
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.devices.iter().map(CodicDevice::outstanding).sum()
    }

    /// The slowest shard's current cycle.
    pub(crate) fn now_max(&self) -> u64 {
        self.devices.iter().map(CodicDevice::now).max().unwrap_or(0)
    }

    /// Distributes `ops` across the shards and runs them all to
    /// completion in parallel — the batched serving path.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything, or
    /// [`CodicError::DeviceStalled`] when a shard's clock wedges with a
    /// full queue. A stall is not all-or-nothing: the stalled shard keeps
    /// the operations it managed to enqueue outstanding, and other shards
    /// may have run their share.
    pub fn execute_all(&mut self, ops: &[CodicOp]) -> Result<PoolOutcome, CodicError> {
        let routes = self.route_checked(ops)?;
        let mut per_shard_ops: Vec<Vec<CodicOp>> = vec![Vec::new(); self.devices.len()];
        for (&op, shard) in ops.iter().zip(routes) {
            per_shard_ops[shard].push(op);
        }
        let per_shard = self
            .devices
            .iter_mut()
            .zip(per_shard_ops)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(device, ops)| device.execute_all(&ops))
            .collect::<Result<_, _>>()?;
        Ok(PoolOutcome { per_shard })
    }

    /// Runs an event-driven full-module sweep on every shard in parallel.
    ///
    /// Unlike [`DevicePool::execute_all`] — where the shards act as
    /// parallel channels serving *one* module-sized address space — the
    /// sweep treats each shard as its *own complete module*: a pool of N
    /// shards destroys N modules concurrently (the multi-module variant
    /// of the cold-boot scenario), and total swept rows are N × the
    /// per-module row count.
    ///
    /// # Errors
    ///
    /// Returns the policy error when the sweep is not allowed on a shard,
    /// or [`CodicError::DeviceStalled`] when a shard's clock wedges
    /// mid-sweep.
    pub fn sweep_all_rows(&mut self, proto: CodicOp) -> Result<Vec<SweepReport>, CodicError> {
        self.devices
            .iter_mut()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|d| d.sweep_all_rows(proto))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codic_dram::timing::TimingParams;

    use crate::ops::VariantId;

    fn pool(shards: usize) -> DevicePool {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false);
        DevicePool::new(shards, &config)
    }

    fn zero_ops(rows: u64) -> Vec<CodicOp> {
        (0..rows)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect()
    }

    #[test]
    fn ops_are_block_interleaved_across_shards() {
        let p = pool(4);
        // 8 rows per block (one full bank rotation), then the next shard.
        let shards: Vec<usize> = zero_ops(32).iter().map(|&op| p.shard_of(op)).collect();
        let expected: Vec<usize> = (0..32).map(|i| (i / 8) % 4).collect();
        assert_eq!(shards, expected);
    }

    #[test]
    fn routing_matches_the_division_formula_at_3_and_4_shards() {
        // 2 ranks make 16-row blocks, 3 ranks 24-row ones: a power-of-two
        // and a non-power-of-two block beside each shard count.
        for (shards, ranks) in [(3, 1), (3, 3), (4, 2), (4, 3)] {
            let mut geometry = DramGeometry::module_mib(64);
            geometry.ranks = ranks;
            let config = DeviceConfig::new(geometry, TimingParams::ddr3_1600_11());
            let p = DevicePool::new(shards, &config);
            let block_rows = u64::from(geometry.total_banks());
            for i in 0..2048u64 {
                let op = CodicOp::read(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20);
                let block = op.row_addr() / DramGeometry::ROW_BYTES / block_rows;
                let expected = (block % shards as u64) as usize;
                assert_eq!(p.shard_of(op), expected, "{shards} shards, {ranks} ranks");
            }
        }
    }

    #[test]
    fn pooled_execution_completes_every_op() {
        let mut p = pool(4);
        let outcome = p.execute_all(&zero_ops(64)).unwrap();
        assert_eq!(outcome.ops(), 64);
        let per_shard_rows: Vec<u64> = (0..4).map(|s| p.device(s).stats().row_ops).collect();
        assert_eq!(per_shard_rows, vec![16, 16, 16, 16]);
        assert!(outcome.finish_cycle() > 0);
        assert!(outcome.energy_nj() > 0.0);
        assert_eq!(outcome.completions().count(), 64);
    }

    #[test]
    fn sharding_reduces_per_batch_dram_time() {
        let ops = zero_ops(256);
        let one = pool(1).execute_all(&ops).unwrap().finish_cycle();
        let four = pool(4).execute_all(&ops).unwrap().finish_cycle();
        assert!(
            four * 3 < one,
            "4 shards ({four} cycles) must beat 1 shard ({one} cycles)"
        );
    }

    #[test]
    fn pool_policy_is_all_or_nothing() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_safe_range(0..DramGeometry::ROW_BYTES)
            .with_refresh(false);
        let mut p = DevicePool::new(2, &config);
        // Op 0 is in range; op 1 (row 1) is outside every shard's range.
        let err = p.execute_all(&zero_ops(2)).unwrap_err();
        assert!(matches!(err, CodicError::AddressOutOfRange { .. }));
        assert_eq!(p.device(0).stats().row_ops, 0);
        assert_eq!(p.device(1).stats().row_ops, 0);
    }

    #[test]
    fn async_batch_is_awaitable_after_drive() {
        let ops = zero_ops(16);
        // Twin pools: the async path must report exactly what the
        // batched path reports, shard for shard.
        let mut batch_pool = pool(2);
        let mut batch_completions: Vec<_> = batch_pool
            .execute_all(&ops)
            .unwrap()
            .completions()
            .map(|(shard, c)| (shard, c.op, c.finish_cycle))
            .collect();
        batch_completions.sort_by_key(|&(_, op, cycle)| (cycle, op.row_addr()));

        let mut async_pool = pool(2);
        let mut routed = async_pool.submit_all_async_routed(&ops).unwrap();
        assert_eq!(routed.len(), 16);
        assert!(routed.iter_mut().all(|(_, f)| f.try_take().is_none()));
        for (&op, &(shard, _)) in ops.iter().zip(&routed) {
            assert_eq!(shard, async_pool.shard_of(op));
        }
        let finish = async_pool.drive();
        assert!(finish > 0);
        let mut async_completions: Vec<_> = routed
            .iter_mut()
            .map(|(shard, f)| {
                let c = f.try_take().expect("driven to idle");
                (*shard, c.op, c.finish_cycle)
            })
            .collect();
        async_completions.sort_by_key(|&(_, op, cycle)| (cycle, op.row_addr()));
        assert_eq!(batch_completions, async_completions);
        assert_eq!(async_pool.outstanding(), 0);
    }

    #[test]
    fn step_relieves_outstanding_incrementally() {
        let mut p = pool(2);
        let ops = zero_ops(24);
        let mut routed = p.submit_all_async_routed(&ops).unwrap();
        assert_eq!(p.outstanding(), 24);
        assert_eq!(p.device(0).outstanding() + p.device(1).outstanding(), 24);
        // Stepping events one at a time drains the window monotonically
        // to zero without ever calling the run-to-idle driver.
        let mut last = p.outstanding();
        while p.step() {
            let now = p.outstanding();
            assert!(now <= last, "outstanding never grows while stepping");
            last = now;
        }
        assert_eq!(p.outstanding(), 0);
        // Every future resolved through the incremental driver.
        let drained: Vec<_> = routed
            .iter_mut()
            .filter_map(|(_, f)| f.try_take())
            .collect();
        assert_eq!(drained.len(), 24);
        assert!(!p.step(), "idle pool has no events");
    }

    #[test]
    fn quarantine_reroutes_deterministically_to_survivors() {
        let mut p = pool(4);
        assert!(p.health().iter().all(|h| h.is_healthy()));
        let failed = p.quarantine(2, crate::fault::FaultCause::Quarantined);
        assert_eq!(failed, 0, "an idle shard drains with nothing to fail");
        assert_eq!(
            p.health()[2],
            ShardHealth::Quarantined {
                cause: crate::fault::FaultCause::Quarantined
            }
        );
        // Blocks owned by healthy shards keep their primary mapping;
        // shard 2's blocks land on healthy[block % 3] — a pure function
        // of the quarantine set, so a twin pool routes identically.
        let routes: Vec<usize> = zero_ops(32).iter().map(|&op| p.shard_of(op)).collect();
        let healthy = [0usize, 1, 3];
        let expected: Vec<usize> = (0..32u64)
            .map(|i| {
                let block = i / 8;
                let primary = (block % 4) as usize;
                if primary == 2 {
                    healthy[(block % 3) as usize]
                } else {
                    primary
                }
            })
            .collect();
        assert_eq!(routes, expected);
        // Traffic still completes, all on surviving shards.
        let outcome = p.execute_all(&zero_ops(32)).unwrap();
        assert_eq!(outcome.ops(), 32);
        assert_eq!(p.device(2).stats().row_ops, 0);
        // Double quarantine is a no-op.
        assert_eq!(p.quarantine(2, crate::fault::FaultCause::ClockStuck), 0);
    }

    #[test]
    fn quarantine_fails_a_stuck_shards_ops_in_submission_order() {
        use crate::fault::{FaultCause, FaultPlan};
        // Shard 1 wedges mid-stream at cycle 3000 with ids 496..=562
        // live; submission condemns it on the spot and re-routes the rest
        // to shard 0.
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(FaultPlan::new(3).with_stuck_shard(1, 3000));
        let mut p = DevicePool::new(2, &config);
        // Reads of shard 1's blocks only (odd 8-row blocks).
        let reads: Vec<CodicOp> = (0..2000u64)
            .map(|i| CodicOp::read(((i / 8 * 2 + 1) * 8 + i % 8) * DramGeometry::ROW_BYTES))
            .collect();
        p.submit_all_tagged(&reads, 0).unwrap();
        assert!(!p.health()[1].is_healthy());
        let mut failed = Vec::new();
        for (_, c) in p.completion_runs().nth(1).unwrap() {
            if c.outcome.is_failed() {
                assert_eq!(c.outcome.cause(), Some(FaultCause::ClockStuck));
                failed.push(c.token);
            }
        }
        // The live ids straddle a multiple of 512, where a ring indexed
        // by `id % capacity` would wrap.
        let (first, last) = (
            failed.iter().min().unwrap().0 .0,
            failed.iter().max().unwrap().0 .0,
        );
        assert!(first / 512 < last / 512, "live ids {first}..={last}");
        assert!(failed.windows(2).all(|w| w[0] < w[1]), "{failed:?}");
    }

    #[test]
    fn fully_quarantined_pool_rejects_submissions() {
        let mut p = pool(2);
        p.quarantine(0, crate::fault::FaultCause::Quarantined);
        p.quarantine(1, crate::fault::FaultCause::Quarantined);
        let err = p.submit_all_async_routed(&zero_ops(1)).unwrap_err();
        assert_eq!(err, CodicError::NoHealthyShards);
        let err = p.execute_all(&zero_ops(1)).unwrap_err();
        assert_eq!(err, CodicError::NoHealthyShards);
        // An empty batch is still fine: nothing to route.
        assert!(p.submit_all_async_routed(&[]).unwrap().is_empty());
    }

    #[test]
    fn compute_ops_all_route_to_the_region_owning_shard() {
        let geometry = DramGeometry::module_mib(64);
        let config = DeviceConfig::new(geometry, TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_compute_rows(16);
        let mut p = DevicePool::new(4, &config);
        let base = config.compute_range().start;
        let row = DramGeometry::ROW_BYTES;
        let ops = [
            CodicOp::RowFill {
                row_addr: base,
                pattern: 0b1100,
            },
            CodicOp::RowFill {
                row_addr: base + row,
                pattern: 0b1010,
            },
            CodicOp::RowInit {
                row_addr: base + 2 * row,
                ones: false,
            },
            CodicOp::MajAnd { row_addr: base },
        ];
        // Row-based distribution would scatter these 16 rows; compute
        // routing pins them all to the shard owning the region base, so
        // one data plane sees the whole dependency chain.
        let owner = p.shard_of(ops[0]);
        assert!(ops.iter().all(|&op| p.shard_of(op) == owner));
        let outcome = p.execute_all(&ops).unwrap();
        assert_eq!(outcome.ops(), 4);
        assert!(outcome.completions().all(|(shard, _)| shard == owner));
        // The owning shard's data plane holds the AND result (1100 & 1010).
        let plane = p.device(owner).data_plane().unwrap();
        assert_eq!(plane.word(base), 0b1000);
        // Non-compute traffic still block-interleaves across all shards.
        let shards: std::collections::HashSet<usize> =
            zero_ops(32).iter().map(|&op| p.shard_of(op)).collect();
        assert_eq!(shards.len(), 4);
    }

    #[test]
    fn sweeps_on_a_stuck_clock_report_the_stall() {
        use crate::fault::FaultPlan;
        use std::time::Duration;
        // A sweep that spins on a wedged clock never returns: run each
        // input on a worker thread so a hang fails the test instead.
        fn within_30s(
            what: &str,
            sweep: impl FnOnce() -> Result<(), CodicError> + Send + 'static,
        ) -> Result<(), CodicError> {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(sweep()));
            rx.recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{what}: the sweep hung on a stuck clock"))
        }
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false);
        let proto = CodicOp::command(VariantId::DetZero, 0);
        let stuck = config
            .clone()
            .with_faults(FaultPlan::new(1).with_stuck_clock(100));
        let device = within_30s("device", move || {
            CodicDevice::new(stuck).sweep_all_rows(proto).map(drop)
        });
        assert_eq!(device, Err(CodicError::DeviceStalled));
        let stuck_shard = config.with_faults(FaultPlan::new(1).with_stuck_shard(1, 100));
        let pool = within_30s("pool", move || {
            DevicePool::new(2, &stuck_shard)
                .sweep_all_rows(proto)
                .map(drop)
        });
        assert_eq!(pool, Err(CodicError::DeviceStalled));
    }

    #[test]
    fn execute_all_on_a_stuck_shard_reports_the_stall() {
        use crate::fault::FaultPlan;
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(FaultPlan::new(1).with_stuck_shard(1, 50));
        let mut p = DevicePool::new(2, &config);
        assert_eq!(
            p.execute_all(&zero_ops(1024)).map(drop),
            Err(CodicError::DeviceStalled)
        );
        // Not all-or-nothing: the wedged shard keeps what it enqueued.
        assert!(p.device(1).outstanding() > 0);
        assert_eq!(p.device(0).outstanding(), 0);
    }

    #[test]
    fn pooled_sweep_destroys_one_full_module_per_shard() {
        let mut p = pool(2);
        let reports = p
            .sweep_all_rows(CodicOp::command(VariantId::DetZero, 0))
            .unwrap();
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert_eq!(r.rows, DramGeometry::module_mib(64).total_rows());
        }
    }
}
