//! The `CodicDevice` service layer: one typed command path from use case
//! to cycle-level controller.
//!
//! The paper's §4.4 argues the memory controller should expose CODIC
//! *applications* behind a controlled interface. [`CodicDevice`] is that
//! interface as a service: it composes
//!
//! 1. mode-register programming ([`CodicController`] installs the variant
//!    a [`CodicOp`] names),
//! 2. safe-range policy enforcement (every operation is authorized
//!    *before* it is enqueued — rejected operations never reach the
//!    command bus), and
//! 3. cycle-level scheduling (the operation is enqueued on the embedded
//!    FR-FCFS [`MemoryController`] — row operations and ordinary
//!    [`CodicOp::Read`]/[`CodicOp::Write`] traffic share one scheduler —
//!    and completes under real bank/rank timing).
//!
//! Completions are typed: each [`OpCompletion`] carries the operation, the
//! memory cycle it finished, and its accounted cost ([`OpCost`]: occupancy
//! + energy, from [`codic_power::accounting`] for row operations).
//!
//! The engine underneath is event-driven: the controller jumps from event
//! to event ([`MemoryController::advance_to`]) instead of ticking every
//! cycle, with bit-identical results, so even full-module sweeps
//! ([`CodicDevice::sweep_all_rows`] — cold-boot destruction of up to
//! 64 GB) stream through the one shared scheduler at per-command rather
//! than per-cycle cost. Completions are drained
//! ([`CodicDevice::take_completions`]) or taken one by one from the
//! [`OpFuture`] slot of [`CodicDevice::submit_async`], which the clock
//! driver ([`CodicDevice::step`] / [`CodicDevice::run_to_idle`]) fills.

use std::ops::Range;

use codic_dram::controller::MemoryController;
use codic_dram::geometry::DramGeometry;
use codic_dram::request::{MemRequest, ReqId, ReqKind, RowOpKind};
use codic_dram::stats::MemStats;
use codic_dram::timing::TimingParams;
use codic_power::accounting::{self, RowOpCost};
use codic_power::{EnergyModel, IddValues};

use crate::data::DataPlane;
use crate::error::CodicError;
use crate::executor::{one_shot, Completer, OpFuture};
use crate::fault::{FaultCause, FaultPlan, FaultStats, OpOutcome, RetryPolicy};
use crate::interface::CodicController;
use crate::ops::{CodicOp, InDramMechanism, RowRegion};

/// Configuration of one [`CodicDevice`] (one channel/rank's worth of
/// DRAM plus its controller policy).
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Module organization behind the device.
    pub geometry: DramGeometry,
    /// DDR timing the embedded controller enforces.
    pub timing: TimingParams,
    /// Datasheet currents for the completion energy accounting.
    pub idd: IddValues,
    /// The system-defined range destructive operations are confined to
    /// (§4.4). Defaults to the whole module.
    pub safe_range: Range<u64>,
    /// Whether the refresh engine runs (the paper's PUF methodology
    /// disables it, §6.1).
    pub refresh_enabled: bool,
    /// Injected fault schedule (`None` — the default — disables fault
    /// injection entirely; the service path then behaves exactly as if
    /// the feature did not exist).
    pub fault: Option<FaultPlan>,
    /// Retry discipline for misfired operations (only consulted while a
    /// fault plan is installed; the default of one attempt disables
    /// retry).
    pub retry: RetryPolicy,
    /// Rows reserved for the bulk-bitwise compute region, carved from the
    /// *top* of the module. `0` (the default) disables the compute
    /// subsystem entirely: compute operations are rejected pre-bus and no
    /// data plane is allocated, so existing workloads pay nothing.
    pub compute_rows: u64,
}

impl DeviceConfig {
    /// A device over `geometry` with `timing`, destructive operations
    /// allowed anywhere in the module, and refresh enabled.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: TimingParams) -> Self {
        DeviceConfig {
            geometry,
            timing,
            idd: IddValues::ddr3_1600(),
            safe_range: 0..geometry.total_bytes(),
            refresh_enabled: true,
            fault: None,
            retry: RetryPolicy::default(),
            compute_rows: 0,
        }
    }

    /// The paper's evaluation configuration: 1 GB DDR3-1600.
    #[must_use]
    pub fn paper_default() -> Self {
        DeviceConfig::new(DramGeometry::default(), TimingParams::ddr3_1600_11())
    }

    /// Confines destructive operations to `safe_range`.
    #[must_use]
    pub fn with_safe_range(mut self, safe_range: Range<u64>) -> Self {
        self.safe_range = safe_range;
        self
    }

    /// Enables or disables the refresh engine.
    #[must_use]
    pub fn with_refresh(mut self, enabled: bool) -> Self {
        self.refresh_enabled = enabled;
        self
    }

    /// Installs a deterministic fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the retry discipline for misfired operations.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Reserves `rows` rows at the top of the module as the authorized
    /// bulk-bitwise compute region (clamped to the module size).
    #[must_use]
    pub fn with_compute_rows(mut self, rows: u64) -> Self {
        self.compute_rows = rows.min(self.geometry.total_rows());
        self
    }

    /// The byte-address range of the compute region (empty when the
    /// compute subsystem is disabled).
    #[must_use]
    pub fn compute_range(&self) -> Range<u64> {
        let total = self.geometry.total_bytes();
        total - self.compute_rows * DramGeometry::ROW_BYTES..total
    }
}

/// Completion token returned by [`CodicDevice::submit`]; redeemed against
/// the matching [`OpCompletion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpToken(pub(crate) ReqId);

impl OpToken {
    /// A token for unit tests that never touches a real controller.
    #[cfg(test)]
    pub(crate) fn test_only(raw: u64) -> Self {
        OpToken(ReqId(raw))
    }
}

/// The accounted cost of one operation on the service path: bank/bus
/// occupancy plus energy. Row operations inherit the shared
/// [`codic_power::accounting`] numbers; ordinary data accesses are charged
/// their burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Occupancy duration in memory cycles (bank occupancy for row
    /// operations, data-path latency for column accesses).
    pub busy_cycles: u32,
    /// Activations charged against the rank's tRRD/tFAW windows.
    pub activations: u8,
    /// Total energy of the operation in nanojoules.
    pub energy_nj: f64,
}

impl From<RowOpCost> for OpCost {
    fn from(cost: RowOpCost) -> Self {
        OpCost {
            busy_cycles: cost.busy_cycles,
            activations: cost.activations,
            energy_nj: cost.energy_nj,
        }
    }
}

/// A finished operation, with its typed outcome and accounted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCompletion {
    /// The token [`CodicDevice::submit`] handed out.
    pub token: OpToken,
    /// The operation that completed.
    pub op: CodicOp,
    /// Memory cycle at which the operation finished.
    pub finish_cycle: u64,
    /// Accounted occupancy and energy cost. A misfired operation keeps
    /// its real cost (the bank was occupied and the energy spent); an
    /// operation failed without executing ([`FaultCause::ClockStuck`],
    /// [`FaultCause::Quarantined`]) carries zero cost.
    pub cost: OpCost,
    /// Whether the operation succeeded ([`OpOutcome::Ok`] always, unless
    /// fault injection is active).
    pub outcome: OpOutcome,
    /// Issue attempts this completion took (1 = first try; larger only
    /// when a [`RetryPolicy`] re-issued misfires).
    pub attempts: u8,
    /// FNV-1a-64 fingerprint of the destination row contents after a
    /// bulk-bitwise compute operation, computed by the data plane at
    /// submit time. `0` for every other operation and whenever the
    /// compute subsystem is disabled.
    pub fingerprint: u64,
}

/// Result of a batched [`CodicDevice::execute_all`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Every completion, in completion order.
    pub completions: Vec<OpCompletion>,
    /// Memory cycle at which the last operation finished.
    pub finish_cycle: u64,
    /// Wall-clock time of the batch in nanoseconds of DRAM time.
    pub finish_ns: f64,
    /// Total accounted energy of the batch in nanojoules.
    pub energy_nj: f64,
}

impl BatchOutcome {
    /// Number of completed operations.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.completions.len()
    }
}

/// Result of an event-driven full-module row sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Row operations issued (one per row of the module).
    pub rows: u64,
    /// Memory cycle at which the last row finished.
    pub finish_cycle: u64,
    /// Command statistics of the sweep (row ops + activations).
    pub stats: MemStats,
    /// Total accounted energy of the sweep in nanojoules.
    pub energy_nj: f64,
}

/// Where a finished operation's completion is delivered.
#[derive(Debug)]
enum Waiter {
    /// The device's completion buffer, beside this tag: the token's
    /// request id for [`CodicDevice::submit`], the submitter's tag (a
    /// serving tenant's sequence number) for [`CodicDevice::submit_tagged`].
    Tag(u64),
    /// An async submission's completion slot.
    Future(Completer),
}

/// One submitted operation awaiting completion: its typed op and where
/// to deliver it. The token is the op's *original* request id: a retried
/// op re-enters the scheduler under a fresh id but keeps the token its
/// submitter holds.
#[derive(Debug)]
struct PendingOp {
    token: OpToken,
    op: CodicOp,
    /// Where the op's accounted cost sits in the device's memo
    /// ([`cost_slot`]), read at delivery. Matching on the op there
    /// compiles to an indirect jump, which a mixed stream mispredicts.
    cost_slot: u8,
    /// Data-plane fingerprint fixed at submit time (architectural state
    /// advances in submission order, decoupled from the timing model).
    fingerprint: u64,
    waiter: Waiter,
    /// Issue attempts so far (1 = first issue).
    attempts: u8,
    /// Per-device row-op index the misfire schedule is keyed by.
    op_index: u64,
    /// Decision of the fault plan for this attempt, fixed at issue time.
    will_fail: bool,
}

// The pending slab spends one of these per slot, up to a few hundred
// slots per shard, and an empty slot costs no more.
const _: () = assert!(std::mem::size_of::<PendingOp>() <= 80);
const _: () = assert!(std::mem::size_of::<Option<PendingOp>>() == std::mem::size_of::<PendingOp>());

/// The controller tag of a request with no pending entry (a
/// [`CodicDevice::sweep_all_rows`] row): past any slot the slab can hold.
const UNTRACKED: u32 = u32::MAX;

/// The in-flight operations, one slot each. A request carries its slot
/// index as its controller tag ([`MemRequest::with_tag`]), so a
/// completion finds its entry by index: no hashing, no search. Vacated
/// slots are reused first, so the slab is as long as the peak live
/// count, which the controller's three queues, its in-flight set and the
/// parked retries bound, however far apart the live request ids are.
#[derive(Debug, Default)]
struct PendingSlab {
    slots: Vec<Option<PendingOp>>,
    /// Vacant slots whose requests have left the controller, reused
    /// last-in first-out.
    free: Vec<u32>,
    /// Occupied slots.
    live: usize,
}

impl PendingSlab {
    /// The slot the next [`PendingSlab::insert`] fills: the tag its
    /// request must carry.
    fn vacant(&self) -> u32 {
        self.free.last().copied().unwrap_or(self.slots.len() as u32)
    }

    /// Fills [`PendingSlab::vacant`] with `op` and returns its index.
    fn insert(&mut self, op: PendingOp) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(op);
                slot
            }
            None => {
                self.slots.push(Some(op));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Vacates the slot of a retired request by its tag and returns the
    /// entry. `None` for an untracked request, and for a slot emptied by
    /// [`PendingSlab::drain`]: its request has now left the controller,
    /// so the slot is free again.
    fn remove(&mut self, tag: u32) -> Option<PendingOp> {
        let entry = self.slots.get_mut(tag as usize)?.take();
        self.free.push(tag);
        self.live -= usize::from(entry.is_some());
        entry
    }

    /// Takes every live entry. Their requests may still sit in the
    /// controller (a stuck clock), so their slots stay off the free list
    /// until [`PendingSlab::remove`] sees them retire: a new op never
    /// shares a slot with a request still in flight.
    fn drain(&mut self) -> impl Iterator<Item = PendingOp> + '_ {
        self.live = 0;
        self.slots.iter_mut().filter_map(Option::take)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A misfired operation waiting out its retry backoff.
#[derive(Debug)]
struct Retry {
    pending: PendingOp,
    /// Earliest cycle the re-issue may enter the scheduler.
    not_before: u64,
}

/// The device's fault-injection state; exists only while a plan is
/// installed, so the fault-free hot path costs one `Option` branch.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    retry: RetryPolicy,
    /// Row ops issued so far — the misfire schedule's op index.
    next_op_index: u64,
    retries: Vec<Retry>,
    stats: FaultStats,
}

/// The CODIC service device: policy-checked, typed command submission over
/// an embedded cycle-level memory controller.
///
/// In-flight operations live in a slab whose slots are recycled and
/// whose index each request carries through the controller. A finished
/// operation lands in one completion buffer, beside its tag and ordered
/// by `(finish_cycle, tag)`, or, for an async submission, in its
/// one-shot slot. Once warm, the buffer allocates nothing per
/// operation; an async submission allocates its slot.
#[derive(Debug)]
pub struct CodicDevice {
    policy: CodicController,
    mc: MemoryController,
    energy: EnergyModel,
    /// In-flight operations, each found by the slot index its request
    /// carries as the controller tag. The slab's length follows the peak
    /// live count: a write starved behind a stream of reads holds one
    /// slot, not a window of every later id.
    pending: PendingSlab,
    /// Accounted costs, precomputed per request shape (timing and energy
    /// model are fixed at construction), indexed by [`cost_slot`]: the
    /// five row-operation kinds, then reads and writes. No per-operation
    /// float accounting.
    costs: [OpCost; 7],
    /// Completions of token and tagged submissions with their tags,
    /// ordered by `(finish_cycle, tag)`.
    completions: Vec<(u64, OpCompletion)>,
    /// Fault injection and retry state; `None` (the default) means the
    /// feature is disabled and every completion is [`OpOutcome::Ok`].
    fault: Option<FaultState>,
    /// The compute-region data plane; `None` (the default) means the
    /// bulk-bitwise subsystem is disabled and costs nothing.
    data: Option<DataPlane>,
}

/// Answers `p` with its completion, delivered where its waiter says: an
/// async submission's slot, or the completion buffer, kept ordered by
/// `(finish_cycle, tag)`.
///
/// Completions arrive in retirement order, `(finish_cycle, request
/// id)`. Tokens are request ids, and a serving tenant tags its ops in
/// submission order, which is request-id order, so the insertion is a
/// push, except behind a retried op: it re-entered the controller under
/// a newer id, and where it ties an earlier-tagged op's finish cycle it
/// retires first. The insertion walks back from the end past those.
fn deliver(
    p: PendingOp,
    finish_cycle: u64,
    cost: OpCost,
    outcome: OpOutcome,
    completions: &mut Vec<(u64, OpCompletion)>,
) {
    let completion = OpCompletion {
        token: p.token,
        op: p.op,
        finish_cycle,
        cost,
        outcome,
        attempts: p.attempts,
        fingerprint: p.fingerprint,
    };
    match p.waiter {
        Waiter::Future(completer) => completer.fulfil(completion),
        Waiter::Tag(tag) => {
            let key = (completion.finish_cycle, tag);
            let mut at = completions.len();
            while at > 0 && (completions[at - 1].1.finish_cycle, completions[at - 1].0) > key {
                at -= 1;
            }
            #[cfg(test)]
            if at < completions.len() {
                TAGGED_REORDERS.with(|n| n.set(n.get() + 1));
            }
            completions.insert(at, (tag, completion));
        }
    }
}

/// The `costs` slot of a row-operation kind.
fn row_cost_idx(kind: RowOpKind) -> usize {
    match kind {
        RowOpKind::Codic => 0,
        RowOpKind::RowClone => 1,
        RowOpKind::LisaClone => 2,
        RowOpKind::TripleAct => 3,
        RowOpKind::DualContact => 4,
    }
}

/// The `costs` slots of the read and write bursts.
const READ_COST: usize = 5;
const WRITE_COST: usize = 6;

/// The `costs` slot of `op`'s accounted cost.
fn cost_slot(op: CodicOp) -> usize {
    match op {
        CodicOp::Read { .. } => READ_COST,
        CodicOp::Write { .. } => WRITE_COST,
        _ => row_cost_idx(op.row_op_kind().expect("non-data ops are row ops")),
    }
}

impl CodicDevice {
    /// Creates a device from `config`.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        let mut mc = MemoryController::new(config.geometry, config.timing);
        mc.set_refresh_enabled(config.refresh_enabled);
        let fault = config.fault.map(|plan| {
            if let Some(cycle) = plan.stuck_at_cycle {
                mc.set_clock_fault(cycle);
            }
            FaultState {
                plan,
                retry: config.retry,
                next_op_index: 0,
                retries: Vec::new(),
                stats: FaultStats::default(),
            }
        });
        let energy = EnergyModel::new(config.idd, config.timing, config.geometry.devices_per_rank);
        let t = config.timing;
        let read = OpCost {
            busy_cycles: t.t_cl + t.t_bl,
            activations: 0,
            energy_nj: energy.read_burst_nj(),
        };
        let mut costs = [read; 7];
        costs[WRITE_COST] = OpCost {
            busy_cycles: t.t_cwl + t.t_bl,
            activations: 0,
            energy_nj: energy.write_burst_nj(),
        };
        for kind in [
            RowOpKind::Codic,
            RowOpKind::RowClone,
            RowOpKind::LisaClone,
            RowOpKind::TripleAct,
            RowOpKind::DualContact,
        ] {
            costs[row_cost_idx(kind)] = accounting::row_op_cost(kind, &t, &energy).into();
        }
        let compute_range = config.compute_range();
        let data = (!compute_range.is_empty()).then(|| DataPlane::new(compute_range.clone()));
        CodicDevice {
            policy: CodicController::new(config.safe_range).with_compute_range(compute_range),
            mc,
            energy,
            pending: PendingSlab::default(),
            costs,
            completions: Vec::new(),
            fault,
            data,
        }
    }

    /// The policy layer (mode registers and safe range). Completions are
    /// the service path's bounded, drainable audit trail.
    #[must_use]
    pub fn controller(&self) -> &CodicController {
        &self.policy
    }

    /// The embedded cycle-level controller's statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.mc.stats()
    }

    /// The current memory cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.mc.now()
    }

    /// The timing parameters in use.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        self.mc.timing()
    }

    /// The module geometry behind the device.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        self.mc.geometry()
    }

    /// The energy model used for completion accounting.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The compute-region data plane, when the compute subsystem is
    /// enabled ([`DeviceConfig::with_compute_rows`]).
    #[must_use]
    pub fn data_plane(&self) -> Option<&DataPlane> {
        self.data.as_ref()
    }

    /// True when nothing is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.mc.is_idle()
    }

    /// Number of submitted operations not yet completed — the
    /// backpressure signal for serving loops that bound their in-flight
    /// window. Misfired operations waiting out a retry backoff still
    /// count: their submitters have not been answered yet.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.fault.as_ref().map_or(0, |fault| fault.retries.len())
    }

    /// True when an injected stuck-clock fault prevents any further
    /// progress on this device (always `false` without fault injection).
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.mc.clock_stalled()
    }

    /// Fault observations so far (all zero while fault injection is
    /// disabled) — the input to the pool's health policy.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .as_ref()
            .map_or_else(FaultStats::default, |fault| fault.stats)
    }

    /// Fails every submitted-but-unanswered operation with `cause`,
    /// filling async slots and buffering the other completions as
    /// usual — the quarantine path for a shard that can no longer make
    /// progress. Failed-this-way completions carry zero cost (the
    /// operations never executed to completion) and finish at the
    /// current cycle. They are delivered in ascending token order, which
    /// is submission order, whether an op was queued, in flight or
    /// parked for a retry. Returns how many operations were failed.
    pub fn fail_all_pending(&mut self, cause: FaultCause) -> usize {
        self.harvest();
        let CodicDevice {
            mc,
            pending,
            completions,
            fault,
            ..
        } = self;
        let mut failed: Vec<PendingOp> = pending.drain().collect();
        if let Some(fault) = fault {
            failed.extend(fault.retries.drain(..).map(|retry| retry.pending));
            fault.stats.failed += failed.len() as u64;
        }
        failed.sort_unstable_by_key(|p| p.token);
        let now = mc.now();
        let count = failed.len();
        let unexecuted = OpCost {
            busy_cycles: 0,
            activations: 0,
            energy_nj: 0.0,
        };
        for p in failed {
            deliver(p, now, unexecuted, OpOutcome::Failed { cause }, completions);
        }
        count
    }

    /// Submits one typed operation.
    ///
    /// The safe-range policy check runs *before* anything else, so a
    /// rejected operation neither reaches the command bus nor perturbs
    /// the mode registers. The variant a [`CodicOp::Command`] names is
    /// then programmed if it is not already installed; reprogramming
    /// waits for the device to drain first (JEDEC MRS requires all banks
    /// idle), so queued operations of the previous variant complete under
    /// the registers they were issued with. If the row-operation queue is
    /// full, the device ticks the controller until a slot frees.
    ///
    /// # Errors
    ///
    /// Returns the policy error (e.g. [`CodicError::AddressOutOfRange`])
    /// when §4.4's rules reject the operation.
    pub fn submit(&mut self, op: CodicOp) -> Result<OpToken, CodicError> {
        self.policy.check_safe_range(op)?;
        self.submit_inner(op, None)
    }

    /// The post-policy submission path shared by every submit flavor:
    /// callers have already run [`CodicController::check_safe_range`]
    /// (directly, or batched at the pool/batch boundary), so the per-op
    /// loop pays only the queue push.
    /// `waiter` is installed into the pending entry at insert time, so no
    /// caller looks the entry up again to attach it; `None` delivers to
    /// the completion buffer tagged with the token's request id.
    fn submit_inner(&mut self, op: CodicOp, waiter: Option<Waiter>) -> Result<OpToken, CodicError> {
        self.install_for(op);
        // The full §4.4 authorization (variant match + range) cannot
        // fail here: every caller ran the range check against this
        // policy, and `install_for` just installed the op's variant.
        debug_assert!(
            self.policy.authorize(op).is_ok(),
            "range was pre-checked and the variant just installed"
        );
        let request = MemRequest::new(op.row_addr(), self.request_for(op));
        loop {
            // Stepping below retires and re-issues ops, so the vacant
            // slot is read afresh for every push.
            let slot = self.pending.vacant();
            match self.mc.push(request.with_tag(slot)) {
                Ok(id) => {
                    // Architectural state advances at accept time, in
                    // submission order, decoupled from the cycle-level
                    // timing below.
                    let fingerprint = match &mut self.data {
                        Some(data) => data.apply(op),
                        None => 0,
                    };
                    // Only the in-DRAM row operations are probabilistic:
                    // the fault plan rolls per row op, never for ordinary
                    // reads/writes.
                    let (op_index, will_fail) = match &mut self.fault {
                        Some(fault) if op.row_op_kind().is_some() => {
                            let index = fault.next_op_index;
                            fault.next_op_index += 1;
                            (index, fault.plan.misfires(index, 1))
                        }
                        _ => (0, false),
                    };
                    let filled = self.pending.insert(PendingOp {
                        token: OpToken(id),
                        op,
                        cost_slot: cost_slot(op) as u8,
                        fingerprint,
                        waiter: waiter.unwrap_or(Waiter::Tag(id.0)),
                        attempts: 1,
                        op_index,
                        will_fail,
                    });
                    debug_assert_eq!(filled, slot, "the request carries its slot");
                    return Ok(OpToken(id));
                }
                // The queue drains as the scheduler makes progress, so a
                // full queue only costs time, never correctness. Jump
                // straight to the next engine event instead of ticking
                // through the quiet gap. A device that can make no
                // progress at all (injected stuck clock) reports the
                // stall instead of spinning forever; no slot was filled.
                Err(_) => {
                    if !self.step() {
                        return Err(CodicError::DeviceStalled);
                    }
                }
            }
        }
    }

    /// Submits one typed operation and returns the slot its
    /// [`OpCompletion`] lands in — the async twin of [`CodicDevice::submit`].
    /// The clock driver fills the slot ([`CodicDevice::step`] /
    /// [`CodicDevice::run_to_idle`] /
    /// [`DevicePool::drive`](crate::pool::DevicePool::drive)), bypassing the
    /// [`CodicDevice::take_completions`] buffer.
    ///
    /// # Errors
    ///
    /// Returns the policy error exactly as [`CodicDevice::submit`] does.
    pub fn submit_async(&mut self, op: CodicOp) -> Result<OpFuture, CodicError> {
        self.policy.check_safe_range(op)?;
        self.submit_async_prechecked(op)
    }

    /// [`CodicDevice::submit`] minus the safe-range check, for callers
    /// that already pre-flighted the whole batch (the pool's
    /// all-or-nothing routed path), with the completion delivered to the
    /// [`CodicDevice::completions`] buffer, beside `tag`. The tag rides
    /// the pending entry the device keeps anyway, so the caller needs no
    /// token map of its own.
    pub(crate) fn submit_tagged(&mut self, op: CodicOp, tag: u64) -> Result<(), CodicError> {
        self.submit_inner(op, Some(Waiter::Tag(tag))).map(drop)
    }

    /// [`CodicDevice::submit_async`] minus the safe-range check, for
    /// callers that already pre-flighted the whole batch (the pool's
    /// all-or-nothing routed path). The completer rides the pending
    /// insert; if submission fails, the future and its slot are dropped.
    pub(crate) fn submit_async_prechecked(&mut self, op: CodicOp) -> Result<OpFuture, CodicError> {
        let (future, completer) = one_shot();
        self.submit_inner(op, Some(Waiter::Future(completer)))?;
        Ok(future)
    }

    /// The controller request `op` maps to: a bank-occupying row
    /// operation, or an ordinary column access for the data path.
    fn request_for(&self, op: CodicOp) -> ReqKind {
        match op {
            CodicOp::Read { .. } => ReqKind::Read,
            CodicOp::Write { .. } => ReqKind::Write,
            _ => ReqKind::RowOp {
                op: op.row_op_kind().expect("non-data ops are row ops"),
                busy_cycles: self.costs[cost_slot(op)].busy_cycles,
            },
        }
    }

    /// Submits a whole batch, all-or-nothing: every operation is checked
    /// against the safe-range policy first, and nothing is enqueued unless
    /// all pass. Tokens are returned in input order.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything.
    pub fn submit_all(&mut self, ops: &[CodicOp]) -> Result<Vec<OpToken>, CodicError> {
        for op in ops {
            self.policy.check_safe_range(*op)?;
        }
        ops.iter().map(|&op| self.submit_inner(op, None)).collect()
    }

    /// Advances one memory cycle through the *reference* driver
    /// ([`MemoryController::tick_reference`]: retire/refresh/schedule run
    /// unconditionally, no event-horizon consultation) and harvests —
    /// the oracle the engine-equivalence tests pin the event engine
    /// against.
    pub fn tick_reference(&mut self) {
        self.mc.tick_reference();
        self.harvest();
        self.pump_retries();
    }

    /// The cycle of the next event [`CodicDevice::step`] could act on —
    /// the earliest of the scheduler's event horizon and any misfire
    /// retry coming due — or `u64::MAX` when there is none (idle, or
    /// wedged at an injected clock ceiling). `u64::MAX` guarantees
    /// `step()` would be a no-op returning `false`, which is what lets
    /// [`DevicePool::step`](crate::pool::DevicePool::step) and
    /// [`DevicePool::drive`](crate::pool::DevicePool::drive) skip this
    /// shard entirely instead of visiting it every iteration. A read of
    /// the controller's maintained horizon, not a scan, so the check
    /// costs the serving step nothing beside the event it gates.
    #[must_use]
    pub fn next_event_cycle(&self) -> u64 {
        let ceiling = self.mc.clock_fault();
        let mut next = u64::MAX;
        if !self.mc.is_idle() {
            let event = self.mc.next_event_cycle();
            if ceiling.is_none_or(|c| event <= c) {
                next = event;
            }
        }
        if let Some(fault) = &self.fault {
            if let Some(due) = fault.retries.iter().map(|r| r.not_before).min() {
                if ceiling.is_none_or(|c| due <= c) {
                    next = next.min(due);
                }
            }
        }
        next
    }

    /// The clock-driver step: advances the engine to its next event (at
    /// most one command issues or retires), harvests completions, and
    /// fills the [`OpFuture`] slot of each op that retired. Returns
    /// `false` when the device was already idle (no event to advance to).
    pub fn step(&mut self) -> bool {
        if !self.mc.is_idle() && self.mc.step_event() {
            self.harvest();
            self.pump_retries();
            return true;
        }
        // The engine is out of events (idle, or wedged at an injected
        // clock ceiling): misfires waiting out their backoff are the only
        // remaining source of progress.
        self.advance_to_next_retry()
    }

    /// Runs until every submitted operation completed; returns the cycle
    /// the last one finished (or the current cycle when already idle).
    ///
    /// Event-driven: the embedded controller jumps from event to event
    /// (bit-identical to ticking every cycle), and every outstanding
    /// [`OpFuture`] slot is filled on the way.
    pub fn run_to_idle(&mut self) -> u64 {
        let mut last = self.mc.run_to_idle();
        self.harvest();
        // Misfired operations re-enter the scheduler once their backoff
        // elapses; keep draining until no retry can make progress.
        while self.advance_to_next_retry() {
            last = last.max(self.mc.run_to_idle());
            self.harvest();
        }
        debug_assert!(
            self.pending.is_empty() || self.mc.clock_stalled(),
            "an idle device has no outstanding operations"
        );
        last
    }

    /// Removes and returns all completions harvested so far, ordered by
    /// finish cycle, ties by token (submission order).
    pub fn take_completions(&mut self) -> Vec<OpCompletion> {
        self.harvest();
        self.completions.drain(..).map(|(_, c)| c).collect()
    }

    /// Completions buffered so far, with their tags, ordered by
    /// `(finish_cycle, tag)`: one sorted run, ready to merge with other
    /// devices' runs. Every clock driver harvests before it returns, so
    /// the buffer is already current. [`CodicDevice::submit`]'s ops land
    /// here too, tagged with their request ids, so a caller that reads
    /// tags as its own sequence numbers submits on the tagged path only.
    pub(crate) fn completions(&self) -> &[(u64, OpCompletion)] {
        &self.completions
    }

    /// Empties the [`CodicDevice::completions`] buffer in place: its
    /// capacity is kept, so a serving loop that drains at every batch
    /// boundary allocates nothing here once warm.
    pub(crate) fn clear_completions(&mut self) {
        self.completions.clear();
    }

    /// Submits `ops`, runs to idle, and returns the typed batch outcome.
    ///
    /// The outcome covers exactly this batch: completions of operations
    /// submitted earlier through the token API stay buffered for their
    /// own [`CodicDevice::take_completions`] call.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything, or
    /// [`CodicError::DeviceStalled`] when the clock wedges with a full
    /// queue. A stall is not all-or-nothing: the operations enqueued
    /// before it stay outstanding.
    pub fn execute_all(&mut self, ops: &[CodicOp]) -> Result<BatchOutcome, CodicError> {
        let first = self.submit_all(ops)?.first().copied();
        self.run_to_idle();
        // Tokens are request ids, handed out in submission order and kept
        // across retries, so the batch owns exactly the completions at or
        // past its first token.
        let mut completions = Vec::with_capacity(ops.len());
        if let Some(first) = first {
            self.completions.retain(|&(_, c)| {
                let ours = c.token >= first;
                if ours {
                    completions.push(c);
                }
                !ours
            });
        }
        let finish_cycle = completions
            .iter()
            .map(|c| c.finish_cycle)
            .max()
            .unwrap_or_else(|| self.mc.now());
        let energy_nj = completions.iter().map(|c| c.cost.energy_nj).sum();
        Ok(BatchOutcome {
            finish_cycle,
            finish_ns: self.mc.timing().ns(finish_cycle),
            energy_nj,
            completions,
        })
    }

    /// Plans `mechanism` over `region` and executes the resulting command
    /// stream — the one service entry point all three use cases share.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything.
    pub fn run_mechanism(
        &mut self,
        mechanism: &dyn InDramMechanism,
        region: RowRegion,
    ) -> Result<BatchOutcome, CodicError> {
        self.execute_all(&mechanism.plan(region))
    }

    /// Sweeps `proto` over *every* row of the module — the full-module
    /// workload (cold-boot destruction), streamed through the shared
    /// event-driven engine: each row is enqueued as a row operation on the
    /// embedded FR-FCFS controller, which jumps from event to event, so
    /// the sweep pays per *command* rather than per cycle while the rank
    /// tRRD/tFAW windows and per-bank occupancy are enforced by exactly
    /// the scheduler every other operation uses (no bespoke sweep math).
    ///
    /// The report is scoped to the sweep: `finish_cycle` is the duration
    /// from sweep start, `stats` the command-count delta.
    ///
    /// # Errors
    ///
    /// Returns the policy error when a destructive `proto` is not allowed
    /// over the full module range,
    /// [`CodicError::NotARowOperation`] when `proto` is an ordinary data
    /// access, and [`CodicError::DeviceStalled`] when the clock wedges
    /// with the queue full.
    pub fn sweep_all_rows(&mut self, proto: CodicOp) -> Result<SweepReport, CodicError> {
        let geometry = *self.mc.geometry();
        if proto.is_data_access() {
            return Err(CodicError::NotARowOperation { op: proto });
        }
        // The sweep covers [0, total_bytes): checking the first and last
        // row covers the whole contiguous range — and runs before any
        // register programming, so a rejected sweep leaves no trace.
        self.policy.check_safe_range(proto.with_row_addr(0))?;
        self.policy.check_safe_range(
            proto.with_row_addr(geometry.total_bytes() - DramGeometry::ROW_BYTES),
        )?;
        self.install_for(proto);
        let kind = proto.row_op_kind().expect("data accesses rejected above");
        let cost = self.costs[row_cost_idx(kind)];
        // Sweep rows have no pending entry: their completions are only
        // counted, so they carry a tag no slot answers to.
        let request_at = |row: u64| {
            MemRequest::new(
                row * DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: kind,
                    busy_cycles: cost.busy_cycles,
                },
            )
            .with_tag(UNTRACKED)
        };
        let start_cycle = self.mc.now();
        let stats_before = *self.mc.stats();
        let rows = geometry.total_rows();
        // Consecutive row addresses rotate over the banks, so the queue
        // keeps every bank busy; refills jump the engine one event at a
        // time when the 64-deep row-op queue is full.
        let mut pushed = 0u64;
        while pushed < rows {
            match self.mc.push(request_at(pushed)) {
                Ok(_) => pushed += 1,
                // A device that can make no progress (injected stuck
                // clock) reports the stall instead of spinning forever.
                Err(_) => {
                    if !self.step() {
                        return Err(CodicError::DeviceStalled);
                    }
                }
            }
        }
        let finish = self.run_to_idle();
        Ok(SweepReport {
            rows,
            finish_cycle: finish - start_cycle,
            stats: self.mc.stats().since(&stats_before),
            energy_nj: cost.energy_nj * rows as f64,
        })
    }

    /// Programs the variant `op` names, if any and not already installed.
    /// Reprogramming is an MRS barrier: JEDEC requires all banks idle for
    /// a mode-register write, so the device drains first and every queued
    /// operation completes under the registers it was issued with.
    fn install_for(&mut self, op: CodicOp) {
        if let Some(variant) = op.variant() {
            if self.policy.installed() != Some(variant) {
                // Backoff-parked retries count as queued work: they must
                // re-issue (and complete) under the registers they were
                // submitted against before the MRS reprogram.
                if !self.mc.is_idle() || self.has_retries() {
                    self.run_to_idle();
                }
                self.policy.install(variant);
            }
        }
    }

    /// True while misfired operations are waiting out a retry backoff.
    fn has_retries(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|fault| !fault.retries.is_empty())
    }

    /// Re-issues every retry whose backoff has elapsed, oldest first;
    /// returns how many entered the scheduler. A fresh misfire roll is
    /// made per attempt.
    fn pump_retries(&mut self) -> usize {
        if !self.has_retries() {
            return 0;
        }
        let Some(mut fault) = self.fault.take() else {
            return 0;
        };
        let now = self.mc.now();
        let mut issued = 0;
        let mut i = 0;
        while i < fault.retries.len() {
            if fault.retries[i].not_before > now {
                i += 1;
                continue;
            }
            let op = fault.retries[i].pending.op;
            let request = MemRequest::new(op.row_addr(), self.request_for(op))
                .with_tag(self.pending.vacant());
            match self.mc.push(request) {
                Ok(_) => {
                    let mut p = fault.retries.remove(i).pending;
                    p.attempts += 1;
                    p.will_fail = fault.plan.misfires(p.op_index, p.attempts);
                    fault.stats.retries += 1;
                    let filled = self.pending.insert(p);
                    debug_assert_eq!(filled, request.tag, "the request carries its slot");
                    issued += 1;
                }
                // No queue slot at this event; a later pump re-tries.
                Err(_) => i += 1,
            }
        }
        self.fault = Some(fault);
        issued
    }

    /// When the engine itself is out of events, jumps the clock to the
    /// earliest retry due time and re-issues what came due. Returns
    /// `false` when there is nothing to do (no retries, or none can ever
    /// issue — e.g. due beyond an injected clock ceiling, or no free
    /// queue slot on a wedged scheduler).
    fn advance_to_next_retry(&mut self) -> bool {
        let due = match &self.fault {
            Some(fault) => match fault.retries.iter().map(|r| r.not_before).min() {
                Some(due) => due,
                None => return false,
            },
            None => return false,
        };
        if self.mc.clock_fault().is_some_and(|ceiling| due > ceiling) {
            return false;
        }
        if due > self.mc.now() {
            self.mc.advance_to(due);
            self.harvest();
        }
        self.pump_retries() > 0
    }

    /// How many slots the pending slab holds, live or vacant.
    #[cfg(test)]
    fn pending_capacity(&self) -> usize {
        self.pending.slots.len()
    }

    fn harvest(&mut self) {
        // Disjoint field borrows: the controller drains its buffer in
        // place (capacity retained — no allocation) while the pending
        // slab and the cost memo answer each completion.
        let CodicDevice {
            mc,
            pending,
            costs,
            completions,
            fault,
            ..
        } = self;
        match fault {
            // The fault-free fast path: one `match` on entry, zero cost
            // per completion.
            None => mc.drain_completions(|c| {
                if let Some(p) = pending.remove(c.tag) {
                    let cost = costs[usize::from(p.cost_slot)];
                    deliver(p, c.finish_cycle, cost, OpOutcome::Ok, completions);
                }
            }),
            Some(fault) => mc.drain_completions(|c| {
                if let Some(p) = pending.remove(c.tag) {
                    // A misfire with attempts left parks for its backoff
                    // instead of completing; the submitter's token and
                    // waiter ride along to the re-issue.
                    if p.will_fail && p.attempts < fault.retry.max_attempts {
                        let not_before = c.finish_cycle + fault.retry.backoff_for(p.attempts);
                        fault.retries.push(Retry {
                            pending: p,
                            not_before,
                        });
                        return;
                    }
                    let outcome = if p.will_fail {
                        fault.stats.failed += 1;
                        OpOutcome::Failed {
                            cause: FaultCause::Misfire,
                        }
                    } else {
                        fault.stats.ok += 1;
                        OpOutcome::Ok
                    };
                    let cost = costs[usize::from(p.cost_slot)];
                    deliver(p, c.finish_cycle, cost, outcome, completions);
                }
            }),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Completions [`deliver`] inserted before the end of their device's
    /// buffer, on this thread: the retirements a tenant's merge relies on
    /// the insertion to reorder.
    pub(crate) static TAGGED_REORDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VariantId;
    use codic_dram::controller::QUEUE_DEPTH;

    fn device() -> CodicDevice {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false);
        CodicDevice::new(config)
    }

    #[test]
    fn submit_programs_registers_and_completes_with_cost() {
        let mut d = device();
        let token = d.submit(CodicOp::command(VariantId::Sig, 0)).unwrap();
        assert_eq!(d.controller().installed(), Some(VariantId::Sig));
        d.run_to_idle();
        let done = d.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        assert_eq!(done[0].op.variant(), Some(VariantId::Sig));
        assert_eq!(done[0].cost.busy_cycles, d.timing().t_rc);
        assert!(done[0].cost.energy_nj > 17.0);
        assert_eq!(d.stats().row_ops, 1);
    }

    #[test]
    fn rejected_ops_never_reach_the_command_bus() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_safe_range(0..8192)
            .with_refresh(false);
        let mut d = CodicDevice::new(config);
        let err = d
            .submit(CodicOp::command(VariantId::DetZero, 1 << 20))
            .unwrap_err();
        assert!(matches!(err, CodicError::AddressOutOfRange { .. }));
        assert!(d.is_idle());
        assert_eq!(d.stats().row_ops, 0);
        assert!(d.take_completions().is_empty());
        // The rejection happened before any register programming.
        assert_eq!(d.controller().installed(), None);
        assert_eq!(d.controller().registers().mrs_commands(), 0);
    }

    #[test]
    fn submit_all_is_all_or_nothing() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_safe_range(0..8192)
            .with_refresh(false);
        let mut d = CodicDevice::new(config);
        let ops = [
            CodicOp::command(VariantId::DetZero, 0),
            CodicOp::command(VariantId::DetZero, 1 << 20), // out of range
        ];
        assert!(d.submit_all(&ops).is_err());
        assert_eq!(d.stats().row_ops, 0, "nothing was enqueued");
    }

    #[test]
    fn batch_execution_reports_cycles_and_energy() {
        let mut d = device();
        let ops: Vec<CodicOp> = (0..16)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect();
        let outcome = d.execute_all(&ops).unwrap();
        assert_eq!(outcome.ops(), 16);
        assert!(outcome.finish_cycle > 0);
        assert!((outcome.finish_ns - d.timing().ns(outcome.finish_cycle)).abs() < 1e-9);
        let per_op = d.energy_model().act_pre_nj();
        assert!((outcome.energy_nj - 16.0 * per_op).abs() < 1e-6);
    }

    #[test]
    fn queue_overflow_is_absorbed_by_ticking() {
        let mut d = device();
        // Far more ops than the 64-entry row-op queue.
        let ops: Vec<CodicOp> = (0..200)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect();
        let outcome = d.execute_all(&ops).unwrap();
        assert_eq!(outcome.ops(), 200);
        assert_eq!(d.stats().row_ops, 200);
    }

    #[test]
    fn sweep_matches_the_cycle_level_rate_bound() {
        let mut d = device();
        let report = d
            .sweep_all_rows(CodicOp::command(VariantId::DetZero, 0))
            .unwrap();
        let g = d.geometry();
        assert_eq!(report.rows, g.total_rows());
        assert_eq!(report.stats.row_ops, report.rows);
        // Steady state is tFAW-bound: 4 ops per tFAW.
        let per_op = report.finish_cycle as f64 / report.rows as f64;
        let bound = f64::from(d.timing().t_faw) / 4.0;
        assert!((per_op - bound).abs() < 2.0, "per-op {per_op} vs {bound}");
    }

    #[test]
    fn sweep_requires_module_wide_destructive_authority() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_safe_range(0..8192);
        let mut d = CodicDevice::new(config);
        assert!(matches!(
            d.sweep_all_rows(CodicOp::command(VariantId::DetZero, 0)),
            Err(CodicError::AddressOutOfRange { .. })
        ));
        // Non-destructive sweeps are allowed anywhere.
        assert!(d
            .sweep_all_rows(CodicOp::command(VariantId::Activate, 0))
            .is_ok());
    }

    #[test]
    fn reprogramming_is_an_mrs_barrier() {
        let mut d = device();
        d.submit(CodicOp::command(VariantId::Sig, 0)).unwrap();
        // Reprogramming to a new variant drains the queued Sig op first
        // (MRS needs idle banks), so it completed under Sig's registers.
        d.submit(CodicOp::command(VariantId::DetZero, 8192))
            .unwrap();
        assert_eq!(d.controller().installed(), Some(VariantId::DetZero));
        let drained = d.take_completions();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].op.variant(), Some(VariantId::Sig));
        d.run_to_idle();
        assert_eq!(d.take_completions().len(), 1);
    }

    #[test]
    fn reads_writes_and_row_ops_share_one_scheduler() {
        let mut d = device();
        let ops = [
            CodicOp::command(VariantId::DetZero, 0),
            CodicOp::read(8192),
            CodicOp::write(16384),
            CodicOp::read(16448),
        ];
        let outcome = d.execute_all(&ops).unwrap();
        assert_eq!(outcome.ops(), 4);
        assert_eq!(d.stats().row_ops, 1);
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().writes, 1);
        let t = *d.timing();
        for c in &outcome.completions {
            match c.op {
                CodicOp::Read { .. } => {
                    assert_eq!(c.cost.busy_cycles, t.t_cl + t.t_bl);
                    assert_eq!(c.cost.activations, 0);
                    assert!((c.cost.energy_nj - d.energy_model().read_burst_nj()).abs() < 1e-12);
                }
                CodicOp::Write { .. } => {
                    assert_eq!(c.cost.busy_cycles, t.t_cwl + t.t_bl);
                    assert!((c.cost.energy_nj - d.energy_model().write_burst_nj()).abs() < 1e-12);
                }
                _ => assert_eq!(c.cost.busy_cycles, t.t_rc),
            }
        }
    }

    #[test]
    fn data_accesses_need_no_variant_and_ignore_the_safe_range() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_safe_range(0..8192)
            .with_refresh(false);
        let mut d = CodicDevice::new(config);
        // Plain traffic far outside the destructive safe range is fine —
        // it is not a destructive CODIC command.
        d.submit(CodicOp::read(1 << 20)).unwrap();
        d.submit(CodicOp::write(1 << 21)).unwrap();
        d.run_to_idle();
        assert_eq!(d.take_completions().len(), 2);
        assert_eq!(d.controller().installed(), None, "no MRS programming");
    }

    #[test]
    fn sweep_rejects_data_access_protos() {
        let mut d = device();
        assert!(matches!(
            d.sweep_all_rows(CodicOp::read(0)),
            Err(CodicError::NotARowOperation { .. })
        ));
        assert!(d.is_idle());
    }

    #[test]
    fn awaiting_a_future_needs_no_polling_loop() {
        let mut d = device();
        let mut future = d.submit_async(CodicOp::command(VariantId::Sig, 0)).unwrap();
        assert_eq!(future.try_take(), None);
        // One call drives the engine to idle and fills the slot; the take
        // that follows never polls the device.
        d.run_to_idle();
        let done = future.try_take().expect("driven to idle");
        assert_eq!(done.op, CodicOp::command(VariantId::Sig, 0));
        assert_eq!(done.cost.busy_cycles, d.timing().t_rc);
        // Async completions bypass the polling buffer.
        assert!(d.take_completions().is_empty());
    }

    #[test]
    fn tagged_completions_carry_their_tags_and_match_the_token_path() {
        let ops: Vec<CodicOp> = (0..40)
            .map(|i| match i % 3 {
                0 => CodicOp::read(i * 4096),
                1 => CodicOp::write(i * 4096),
                _ => CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES),
            })
            .collect();
        let mut tokens = device();
        let issued = tokens.submit_all(&ops).unwrap();
        tokens.run_to_idle();
        let expected = tokens.take_completions();

        let mut d = device();
        for (i, &op) in ops.iter().enumerate() {
            d.submit_tagged(op, 100 + i as u64).unwrap();
        }
        d.run_to_idle();
        let drained = d.completions().to_vec();
        d.clear_completions();
        assert!(d.completions().is_empty());
        // Same completions in the same order; each tag names its op.
        assert_eq!(
            drained.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            expected
        );
        for (tag, c) in &drained {
            let i = issued.iter().position(|&t| t == c.token).unwrap();
            assert_eq!(*tag, 100 + i as u64);
            assert_eq!(c.op, ops[i]);
        }
    }

    /// Asserts every slot of the idle device's pending slab is on the
    /// free list exactly once.
    fn assert_slab_all_free(d: &CodicDevice) {
        assert!(d.pending.is_empty());
        let mut free = d.pending.free.clone();
        free.sort_unstable();
        assert_eq!(free, (0..d.pending_capacity() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_rows_take_no_pending_slot() {
        // Token and tagged ops of the sweep's variant (no MRS barrier)
        // and data accesses wait in the queues while each sweep streams
        // its untracked rows through, so the completions interleave.
        let mut d = device();
        let zero = |row: u64| CodicOp::command(VariantId::DetZero, row * DramGeometry::ROW_BYTES);
        let (mut tokens, mut tags) = (Vec::new(), 0u64);
        for round in 0..3u64 {
            for i in 0..4 {
                let row = 64 * round + 8 * i;
                tokens.push(d.submit(zero(row)).unwrap());
                tokens.push(
                    d.submit(CodicOp::read(row * DramGeometry::ROW_BYTES))
                        .unwrap(),
                );
                for op in [
                    zero(row + 1),
                    CodicOp::write((row + 2) * DramGeometry::ROW_BYTES),
                ] {
                    d.submit_tagged(op, tags).unwrap();
                    tags += 1;
                }
            }
            assert_eq!(d.outstanding(), 16);
            let report = d.sweep_all_rows(zero(0)).unwrap();
            assert_eq!(report.rows, d.geometry().total_rows());
            assert_slab_all_free(&d);
        }
        assert_eq!(d.pending_capacity(), 16, "only submitted ops take slots");
        let (token_ops, tagged_ops): (Vec<_>, Vec<_>) = d
            .completions()
            .iter()
            .partition(|(_, c)| tokens.contains(&c.token));
        let mut delivered: Vec<OpToken> = token_ops.iter().map(|(_, c)| c.token).collect();
        delivered.sort_unstable();
        assert_eq!(delivered, tokens, "every token op delivered once");
        let mut delivered: Vec<u64> = tagged_ops.iter().map(|&(tag, _)| tag).collect();
        delivered.sort_unstable();
        assert_eq!(
            delivered,
            (0..tags).collect::<Vec<_>>(),
            "every tagged op once"
        );
    }

    #[test]
    fn a_stalled_submit_takes_no_pending_slot() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(crate::fault::FaultPlan::new(5).with_stuck_clock(150));
        let mut d = CodicDevice::new(config);
        let zero = |row: u64| CodicOp::command(VariantId::DetZero, row * DramGeometry::ROW_BYTES);
        let mut row = 0;
        while d.submit(zero(row)).is_ok() {
            row += 1;
        }
        // The queue is full behind the stuck clock: every further submit
        // fails and leaves the count and the slab as they were.
        let (outstanding, slots) = (d.outstanding(), d.pending_capacity());
        assert!(outstanding > 0 && d.is_stalled());
        for _ in 0..3 {
            assert_eq!(d.submit(zero(row)), Err(CodicError::DeviceStalled));
            assert_eq!(d.outstanding(), outstanding);
            assert_eq!(d.pending_capacity(), slots);
            assert_eq!(d.pending.free.len(), slots - outstanding);
        }
        // Failing the stranded ops empties their slots but keeps them off
        // the free list: their requests still sit in the stuck controller.
        assert_eq!(
            d.fail_all_pending(crate::fault::FaultCause::ClockStuck),
            outstanding
        );
        assert_eq!(d.outstanding(), 0);
        assert_eq!(d.pending.free.len(), slots - outstanding);
    }

    #[test]
    fn step_is_the_single_event_clock_driver() {
        let mut d = device();
        let mut future = d
            .submit_async(CodicOp::command(VariantId::DetZero, 0))
            .unwrap();
        let mut steps = 0;
        while d.step() {
            steps += 1;
            assert!(steps < 100, "one op takes a handful of events");
        }
        assert!(steps >= 2, "at least an issue and a retire event");
        assert!(future.try_take().is_some());
        assert!(!d.step(), "idle device has no events");
    }

    #[test]
    fn compute_ops_need_an_enabled_compute_region() {
        let mut d = device();
        assert!(d.data_plane().is_none(), "compute is off by default");
        assert!(matches!(
            d.submit(CodicOp::MajAnd { row_addr: 0 }),
            Err(CodicError::NoComputeRegion)
        ));
        assert!(d.is_idle() && d.take_completions().is_empty());
    }

    #[test]
    fn compute_ops_are_timed_costed_and_value_checked() {
        use crate::data::row_fingerprint;
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_compute_rows(16);
        let region = config.compute_range();
        let mut d = CodicDevice::new(config);
        let base = region.start;
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
            CodicOp::Not {
                src_addr: base,
                dst_addr: base + 3 * row,
            },
        ];
        let outcome = d.execute_all(&ops).unwrap();
        assert_eq!(outcome.ops(), 5);
        let t = *d.timing();
        for c in &outcome.completions {
            match c.op {
                CodicOp::MajAnd { .. } => {
                    assert_eq!(c.cost.activations, 3);
                    assert!(c.cost.busy_cycles > t.t_rc, "charge sharing adds cycles");
                }
                CodicOp::Not { .. } => {
                    assert_eq!(c.cost.activations, 2);
                    assert_eq!(c.cost.busy_cycles, 2 * t.t_ras + t.t_rp);
                }
                _ => {}
            }
            // Every compute completion carries a fingerprint of its
            // destination row as of its own submission.
            assert_ne!(c.fingerprint, 0, "{:?}", c.op);
        }
        // Ops whose destination was never overwritten afterwards carry
        // the fingerprint the final plane still agrees with.
        for (i, addr) in [(3usize, base), (4, base + 3 * row)] {
            assert_eq!(
                outcome
                    .completions
                    .iter()
                    .find(|c| c.op == ops[i])
                    .unwrap()
                    .fingerprint,
                d.data_plane().unwrap().fingerprint(addr),
                "op {i}"
            );
        }
        // Value semantics: MAJ(1100, 1010, 0) = AND = 1000, NOT → !1000.
        let plane = d.data_plane().unwrap();
        assert_eq!(plane.word(base), 0b1000);
        assert_eq!(plane.word(base + 3 * row), !0b1000);
        let mut expected = [0u64; crate::data::WORDS_PER_ROW];
        expected.fill(!0b1000u64);
        assert_eq!(
            plane.fingerprint(base + 3 * row),
            row_fingerprint(&expected)
        );
        // Out-of-region compute destinations are rejected pre-bus.
        assert!(matches!(
            d.submit(CodicOp::RowInit {
                row_addr: 0,
                ones: true,
            }),
            Err(CodicError::ComputeOutsideRegion { .. })
        ));
    }

    #[test]
    fn non_compute_completions_carry_no_fingerprint() {
        let mut d = device();
        let outcome = d
            .execute_all(&[CodicOp::command(VariantId::DetZero, 0), CodicOp::read(64)])
            .unwrap();
        assert!(outcome.completions.iter().all(|c| c.fingerprint == 0));
    }

    #[test]
    fn a_starved_write_leaves_the_pending_table_bounded() {
        // FR-FCFS drains writes only at the high-water mark or once the
        // read queue is empty, so one write can wait behind a steady read
        // stream while every later id retires around it. The table must
        // follow the live count, not the span from the write's id on.
        let mut d = device();
        let write = d.submit(CodicOp::write(1 << 20)).unwrap();
        let mut done = 0usize;
        let mut peak = d.pending_capacity();
        for i in 0..200_000u64 {
            d.submit(CodicOp::read((i % 1024) * 64)).unwrap();
            while d.outstanding() > 8 {
                assert!(d.step());
            }
            peak = peak.max(d.pending_capacity());
            if i % 4096 == 0 {
                done += d.take_completions().len();
            }
        }
        assert!(peak <= 8 * QUEUE_DEPTH, "pending table grew to {peak}");
        d.run_to_idle();
        let rest = d.take_completions();
        assert_eq!(done + rest.len(), 200_001);
        // The write waited out (nearly) the whole stream.
        assert!(rest.iter().any(|c| c.token == write));
    }

    #[test]
    fn retry_churn_leaves_the_pending_table_empty_and_bounded() {
        // Every re-issue re-enters the table under a fresh request id.
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(FaultPlan::new(11).with_misfires(32_768))
            .with_retry(RetryPolicy::attempts(6).with_backoff(8, 256));
        let mut d = CodicDevice::new(config);
        let mut peak = d.pending_capacity();
        for i in 0..20_000u64 {
            d.submit(CodicOp::command(
                VariantId::DetZero,
                (i % 4096) * DramGeometry::ROW_BYTES,
            ))
            .unwrap();
            peak = peak.max(d.pending_capacity());
        }
        d.run_to_idle();
        let stats = d.fault_stats();
        assert!(stats.retries > 10_000, "{stats:?}");
        assert_eq!(stats.ok + stats.failed, 20_000);
        assert!(d.pending.is_empty() && d.outstanding() == 0);
        peak = peak.max(d.pending_capacity());
        assert!(peak <= 8 * QUEUE_DEPTH, "pending table grew to {peak}");
        assert_eq!(d.take_completions().len(), 20_000);
    }

    #[test]
    fn execute_all_scopes_the_outcome_to_its_batch() {
        let mut d = device();
        let token = d.submit(CodicOp::command(VariantId::DetZero, 0)).unwrap();
        // A later batch must not absorb the earlier op's completion.
        let outcome = d
            .execute_all(&[CodicOp::command(VariantId::DetZero, 8192)])
            .unwrap();
        assert_eq!(outcome.ops(), 1);
        assert_eq!(outcome.completions[0].op.row_addr(), 8192);
        let earlier = d.take_completions();
        assert_eq!(earlier.len(), 1);
        assert_eq!(earlier[0].token, token);
    }

    #[test]
    fn the_completion_buffer_stays_ordered_under_retries_and_quarantine() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(FaultPlan::new(3).with_misfires(16_384))
            .with_retry(RetryPolicy::attempts(4));
        let mut d = CodicDevice::new(config);
        // Row kinds of unequal occupancy, so a retried op can tie an
        // earlier one's finish cycle.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut op = |i: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let row_addr = (state % 8192) * DramGeometry::ROW_BYTES;
            match i % 3 {
                0 => CodicOp::command(VariantId::DetZero, row_addr),
                1 => CodicOp::RowCloneZero { row_addr },
                _ => CodicOp::LisaCloneZero { row_addr },
            }
        };
        let reorders = TAGGED_REORDERS.with(std::cell::Cell::get);
        let mut tokens = Vec::new();
        for i in 0..20_000u64 {
            tokens.push(d.submit(op(i)).unwrap());
            if i == 10_000 {
                // Part-way through: whatever is queued, in flight or
                // parked for a retry fails now, in token order.
                assert!(d.fail_all_pending(FaultCause::Quarantined) > 0);
            }
        }
        d.run_to_idle();
        assert!(
            TAGGED_REORDERS.with(std::cell::Cell::get) > reorders,
            "retries must retire out of token order for this test to bite"
        );
        let done = d.take_completions();
        assert!(done
            .windows(2)
            .all(|w| (w[0].finish_cycle, w[0].token) < (w[1].finish_cycle, w[1].token)));
        let mut delivered: Vec<OpToken> = done.iter().map(|c| c.token).collect();
        delivered.sort_unstable();
        assert_eq!(delivered, tokens, "every token delivered exactly once");
    }

    #[test]
    fn a_future_dropped_before_its_op_retires_leaves_the_device_consistent() {
        let mut d = device();
        let zero = |row: u64| CodicOp::command(VariantId::DetZero, row * DramGeometry::ROW_BYTES);
        let mut kept = d.submit_async(zero(0)).unwrap();
        drop(d.submit_async(zero(1)).unwrap());
        let token = d.submit(zero(2)).unwrap();
        assert_eq!(d.outstanding(), 3);
        d.run_to_idle();
        assert_eq!(d.outstanding(), 0);
        assert_eq!(kept.try_take().map(|c| c.op), Some(zero(0)));
        let done = d.take_completions();
        assert_eq!(
            done.len(),
            1,
            "the dropped future's completion goes nowhere"
        );
        assert_eq!(done[0].token, token);
        // Later futures resolve as usual, through reused pending slots.
        let later: Vec<_> = (3..8)
            .map(|row| d.submit_async(zero(row)).unwrap())
            .collect();
        d.run_to_idle();
        assert_eq!(d.outstanding(), 0);
        for (row, mut future) in (3..8).zip(later) {
            assert_eq!(future.try_take().map(|c| c.op), Some(zero(row)));
        }
        assert_eq!(d.pending_capacity(), 5, "vacated slots were reused");
    }

    #[test]
    fn delivered_costs_come_from_the_memo_and_failures_cost_nothing() {
        let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
            .with_faults(FaultPlan::new(9).with_misfires(32_768))
            .with_retry(RetryPolicy::attempts(3));
        let mut d = CodicDevice::new(config);
        let ops = [
            CodicOp::read(0),
            CodicOp::write(64),
            CodicOp::command(VariantId::DetZero, 8192),
            CodicOp::RowCloneZero { row_addr: 16_384 },
            CodicOp::LisaCloneZero { row_addr: 24_576 },
        ];
        let mut retried = 0;
        for round in 0..40u64 {
            let shifted = ops.map(|op| op.with_row_addr(op.row_addr() + round * 32_768));
            for c in d.execute_all(&shifted).unwrap().completions {
                assert_eq!(c.cost, d.costs[cost_slot(c.op)], "{:?}", c.op);
                retried += usize::from(c.attempts > 1);
            }
        }
        assert!(retried > 0, "some row ops were re-issued");
        d.submit(CodicOp::command(VariantId::DetZero, 0)).unwrap();
        d.submit(CodicOp::read(64)).unwrap();
        assert_eq!(d.fail_all_pending(FaultCause::Quarantined), 2);
        let failed = d.take_completions();
        assert_eq!(failed.len(), 2);
        for c in failed {
            assert_eq!(c.cost.energy_nj, 0.0);
            assert_eq!((c.cost.busy_cycles, c.cost.activations), (0, 0));
        }
    }
}
