//! FR-FCFS memory controller with read/write queues, write draining,
//! open-page policy, refresh, and row-operation support.
//!
//! Matches the paper's evaluation configuration (Tables 5 and 7):
//! 64-entry read and write queues with FR-FCFS scheduling
//! (first-ready, first-come-first-served).
//!
//! # Scheduling internals: indexed queues over a request slab
//!
//! The serving hot path is O(1)-amortized per command rather than
//! O(queued requests) per command:
//!
//! - **Request slab.** Every accepted request lives in a slot of a
//!   freelist-recycled slab (`Slot`); slots have stable indices, so no
//!   issue ever shifts queue memory (`VecDeque::remove` is gone).
//! - **Per-bank FIFO chains.** Each queue class (read / write / row-op)
//!   keeps one doubly-linked chain *per bank* through the slab, in global
//!   arrival order (`BankChain`). The oldest request of a bank is its
//!   chain head; issue unlinks in O(1).
//! - **Ready-bank index.** A bitmask per queue class (`BankSet`) names
//!   the banks with a non-empty chain, so every scheduler pass and the
//!   event horizon iterate *banks*, not requests. Per chain, two caches
//!   make bank-level readiness O(1): `match_head`/`match_len` track the
//!   earliest (and count of) queued column accesses targeting the bank's
//!   open row, rebuilt only when the bank's open row changes; row-op
//!   chains track the earliest request per activation weight
//!   (`act_head`), because the rank tRRD/tFAW gate differs for one-,
//!   two-, and triple-activation operations.
//! - **Arrival-sequence tiebreak.** First-ready selection takes, among
//!   all ready banks, the candidate with the minimal global arrival
//!   sequence (the [`ReqId`] handed out by [`MemoryController::push`]).
//!   Within a class this equals queue order, so the issued command
//!   stream is **bit-identical** to a full FR-FCFS scan of global
//!   arrival-ordered queues — the invariant the `scheduler_pins` test
//!   pins with per-case digests the full-scan scheduler produced.
//! - **Incremental horizon.** The controller caches one *candidate* per
//!   (class, bank): the earliest cycle any command for that bank's chain
//!   could issue, given bank, rank and data-bus state (`u64::MAX` for an
//!   empty chain), plus the minimum per class. A candidate never depends
//!   on `now`, so it only goes stale when its inputs move, and every
//!   `&mut` method recomputes exactly the entries its change invalidated:
//!
//!   | change                                  | entries recomputed                         |
//!   |-----------------------------------------|--------------------------------------------|
//!   | `push`                                  | that (class, bank)                         |
//!   | any command, with its request's unlink  | every class of its bank                    |
//!   | activate, row op                        | every closed bank of its rank (tRRD/tFAW gates moved) |
//!   | read, write                             | open-row read/write entries (`data_bus_free` moved) |
//!   | refresh                                 | everything                                 |
//!
//!   [`MemoryController::next_event_cycle`] is then a read of the
//!   in-flight head, the refresh terms and the three class minima. The
//!   scheduler reads the same cache: it skips a class whose minimum lies
//!   after `now`, and skips banks whose candidate does. That filter is
//!   exact, not a heuristic, because a candidate is a lower bound on the
//!   bank's next command — it is at most the cycle at which a column
//!   access, precharge or activate (or row op) first passes the very
//!   checks `find_ready` and `advance_oldest` apply — so a skipped bank
//!   could not have issued anyway. The reference driver
//!   ([`MemoryController::tick_reference`]) never reads the cache, and
//!   debug builds check it against a from-scratch scan on every
//!   [`MemoryController::next_event_cycle`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::address::{AddressMapper, DramAddress};
use crate::bank::Bank;
use crate::geometry::DramGeometry;
use crate::rank::Rank;
use crate::request::{MemRequest, QueueFull, ReqId, ReqKind, RowOpKind};
use crate::stats::MemStats;
use crate::timing::TimingParams;

/// Capacity of each of the read and write queues (Table 5).
pub const QUEUE_DEPTH: usize = 64;

/// Write-queue occupancy that starts a write drain.
const DRAIN_HIGH: usize = 48;

/// Write-queue occupancy that ends a write drain.
const DRAIN_LOW: usize = 16;

/// Null link / absent-slot marker in the request slab.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: ReqId,
    addr: DramAddress,
    kind: ReqKind,
    /// The caller's [`MemRequest::tag`], carried to the completion.
    tag: u32,
}

/// One slab entry: a pending request threaded into its bank's chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pending: Pending,
    prev: u32,
    next: u32,
}

/// One bank's FIFO chain through the slab for one queue class, plus the
/// O(1)-readiness caches (see the module docs).
#[derive(Debug, Clone, Copy)]
struct BankChain {
    head: u32,
    tail: u32,
    len: u32,
    /// Earliest queued column access targeting the bank's open row
    /// (read/write chains only; [`NIL`] while the bank is closed or no
    /// queued access matches).
    match_head: u32,
    /// Number of queued column accesses targeting the bank's open row.
    match_len: u32,
    /// Earliest queued row operation per activation weight (index 0: one
    /// activation, index 1: two, index 2: triple-row activation) — row-op
    /// chains only.
    act_head: [u32; 3],
}

impl BankChain {
    const EMPTY: BankChain = BankChain {
        head: NIL,
        tail: NIL,
        len: 0,
        match_head: NIL,
        match_len: 0,
        act_head: [NIL, NIL, NIL],
    };
}

/// A dense bitmask over bank indices: the ready-bank occupancy index.
#[derive(Debug, Clone)]
struct BankSet {
    words: Vec<u64>,
}

impl BankSet {
    fn new(banks: usize) -> Self {
        BankSet {
            words: vec![0; banks.div_ceil(64).max(1)],
        }
    }

    fn insert(&mut self, bank: usize) {
        self.words[bank / 64] |= 1 << (bank % 64);
    }

    fn remove(&mut self, bank: usize) {
        self.words[bank / 64] &= !(1 << (bank % 64));
    }

    fn iter(&self) -> BankSetIter<'_> {
        BankSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words[0],
        }
    }
}

struct BankSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BankSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// The activation-weight cache index of a row operation (0: single
/// activation, 1: double, 2: triple-row activation).
fn act_weight(op: RowOpKind) -> usize {
    usize::from(op.activations().clamp(1, 3)) - 1
}

/// A completed request: its id, the cycle its data (or operation)
/// finished, and the tag it was pushed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request id handed out by [`MemoryController::push`].
    pub id: ReqId,
    /// Memory cycle at which the request completed.
    pub finish_cycle: u64,
    /// The request's [`MemRequest::tag`], unchanged: a caller that tags
    /// each request with the index of its own record finds that record
    /// without a search.
    pub tag: u32,
}

/// The cycle-level DDR3 memory controller.
#[derive(Debug)]
pub struct MemoryController {
    mapper: AddressMapper,
    timing: TimingParams,
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    slab: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Per-class, per-bank chains (indexed `[Queue][bank]`).
    chains: [Vec<BankChain>; Queue::COUNT],
    /// Per-class occupancy: which banks have a non-empty chain.
    occupied: [BankSet; Queue::COUNT],
    /// Per-class queued-request totals (queue caps, drain hysteresis).
    queued: [usize; Queue::COUNT],
    /// Reused (arrival, bank) buffer for the FCFS pass — no per-cycle
    /// allocation.
    oldest_scratch: Vec<(u64, u32)>,
    /// Per-class, per-bank issue candidates (the incremental horizon, see
    /// the module docs): [`MemoryController::bank_candidate`] of every
    /// non-empty chain, `u64::MAX` for an empty one.
    cand: [Vec<u64>; Queue::COUNT],
    /// Per-class minimum of `cand`.
    class_min: [u64; Queue::COUNT],
    /// Per-rank activation gates for 1, 2 and 3 activations
    /// ([`MemoryController::act_gates_of`]); they move only when the rank
    /// records an activation.
    rank_gates: Vec<[u64; 3]>,
    /// Cycles [`MemoryController::step_cycle`] has processed.
    processed_cycles: u64,
    /// Issued requests as `(finish_cycle, id, tag)`; ids are unique, so
    /// the tag never decides the order.
    in_flight: BinaryHeap<Reverse<(u64, u64, u32)>>,
    completed: Vec<Completion>,
    last_finish: u64,
    now: u64,
    data_bus_free: u64,
    write_drain: bool,
    refresh_enabled: bool,
    refresh_pending: bool,
    next_refresh: u64,
    next_id: u64,
    stats: MemStats,
    /// Injected clock fault: the controller never processes an event
    /// after this cycle (`None` — the default — means no fault, and the
    /// engine behaves exactly as if the field did not exist).
    clock_ceiling: Option<u64>,
}

impl MemoryController {
    /// Creates a controller for a module of the given geometry and timing.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: TimingParams) -> Self {
        let total_banks = geometry.total_banks() as usize;
        MemoryController {
            mapper: AddressMapper::new(geometry),
            timing,
            banks: vec![Bank::new(); total_banks],
            ranks: (0..geometry.ranks).map(|_| Rank::new()).collect(),
            slab: Vec::with_capacity(Queue::COUNT * QUEUE_DEPTH),
            free_slots: Vec::with_capacity(Queue::COUNT * QUEUE_DEPTH),
            chains: std::array::from_fn(|_| vec![BankChain::EMPTY; total_banks]),
            occupied: std::array::from_fn(|_| BankSet::new(total_banks)),
            queued: [0; Queue::COUNT],
            oldest_scratch: Vec::with_capacity(total_banks),
            cand: std::array::from_fn(|_| vec![u64::MAX; total_banks]),
            class_min: [u64::MAX; Queue::COUNT],
            rank_gates: vec![[0; 3]; geometry.ranks as usize],
            processed_cycles: 0,
            in_flight: BinaryHeap::new(),
            completed: Vec::new(),
            last_finish: 0,
            now: 0,
            data_bus_free: 0,
            write_drain: false,
            refresh_enabled: true,
            refresh_pending: false,
            next_refresh: u64::from(timing.t_refi),
            next_id: 0,
            stats: MemStats::default(),
            clock_ceiling: None,
        }
    }

    /// Injects a stuck-clock fault: the controller will never process an
    /// event after `cycle`. Requests already queued or in flight with
    /// finish times beyond the ceiling simply never retire; new pushes
    /// are still accepted while queue slots last. Detection is
    /// [`MemoryController::clock_stalled`].
    pub fn set_clock_fault(&mut self, cycle: u64) {
        self.clock_ceiling = Some(cycle);
    }

    /// The injected clock ceiling, if any.
    #[must_use]
    pub fn clock_fault(&self) -> Option<u64> {
        self.clock_ceiling
    }

    /// True when work is pending but the next event lies beyond the
    /// injected clock ceiling — the device can make no further progress.
    /// Always `false` without an injected fault.
    #[must_use]
    pub fn clock_stalled(&self) -> bool {
        match self.clock_ceiling {
            Some(ceiling) => !self.is_idle() && self.next_event_cycle() > ceiling,
            None => false,
        }
    }

    /// The current memory cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The timing parameters in use.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The module geometry in use.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        self.mapper.geometry()
    }

    /// Accumulated command statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Cycles the controller has processed (retire, then refresh or
    /// schedule), by any driver. The event drivers skip quiet cycles, so
    /// this counts how often the horizon stopped the clock — kept out of
    /// [`MemStats`], which is identical across drivers.
    #[must_use]
    pub fn processed_cycles(&self) -> u64 {
        self.processed_cycles
    }

    /// Enables or disables the refresh engine (enabled by default).
    /// The paper's PUF methodology disables refresh (§6.1).
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
    }

    /// Whether a request of `kind` can currently be accepted.
    #[must_use]
    pub fn can_accept(&self, kind: ReqKind) -> bool {
        self.queued[Queue::of(kind).idx()] < QUEUE_DEPTH
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] (with the request) if the target queue is at
    /// capacity; the caller should retry after ticking.
    pub fn push(&mut self, request: MemRequest) -> Result<ReqId, QueueFull> {
        if !self.can_accept(request.kind) {
            self.stats.queue_rejections += 1;
            return Err(QueueFull { request });
        }
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let pending = Pending {
            id,
            addr: self.mapper.decode(request.addr),
            kind: request.kind,
            tag: request.tag,
        };
        self.enqueue(pending);
        Ok(id)
    }

    /// Threads `pending` onto the tail of its bank's chain, updating the
    /// occupancy index and readiness caches.
    fn enqueue(&mut self, pending: Pending) {
        let class = Queue::of(pending.kind);
        let bank_idx = self.bank_index(&pending.addr);
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Slot {
                    pending,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(Slot {
                    pending,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        let chain = &mut self.chains[class.idx()][bank_idx];
        if chain.tail == NIL {
            chain.head = slot;
            self.occupied[class.idx()].insert(bank_idx);
        } else {
            self.slab[chain.tail as usize].next = slot;
            self.slab[slot as usize].prev = chain.tail;
        }
        let chain = &mut self.chains[class.idx()][bank_idx];
        chain.tail = slot;
        chain.len += 1;
        self.queued[class.idx()] += 1;
        match pending.kind {
            ReqKind::Read | ReqKind::Write => {
                if self.banks[bank_idx].open_row() == Some(pending.addr.row) {
                    let chain = &mut self.chains[class.idx()][bank_idx];
                    chain.match_len += 1;
                    if chain.match_head == NIL {
                        chain.match_head = slot;
                    }
                }
            }
            ReqKind::RowOp { op, .. } => {
                let chain = &mut self.chains[class.idx()][bank_idx];
                let w = act_weight(op);
                if chain.act_head[w] == NIL {
                    chain.act_head[w] = slot;
                }
            }
        }
        self.update_candidate(class, bank_idx);
    }

    /// Unlinks `slot` from its chain in O(1), repairing the readiness
    /// caches (a forward scan bounded by the bank's own chain when the
    /// removed slot was a cache head), and recycles it on the freelist.
    /// The bank's candidates are left to the caller,
    /// [`MemoryController::issue_column`], which recomputes them once the
    /// command has changed the bank.
    fn unlink(&mut self, class: Queue, slot: u32) -> Pending {
        let Slot {
            pending,
            prev,
            next,
        } = self.slab[slot as usize];
        let bank_idx = self.bank_index(&pending.addr);
        match pending.kind {
            ReqKind::Read | ReqKind::Write => {
                if self.banks[bank_idx].open_row() == Some(pending.addr.row) {
                    let chain = &self.chains[class.idx()][bank_idx];
                    let new_len = chain.match_len - 1;
                    let new_head = if chain.match_head != slot {
                        chain.match_head
                    } else if new_len == 0 {
                        NIL
                    } else {
                        // The removed slot was the earliest match, so the
                        // next one is strictly after it in the chain.
                        let row = pending.addr.row;
                        let mut cur = next;
                        loop {
                            let s = &self.slab[cur as usize];
                            if s.pending.addr.row == row {
                                break cur;
                            }
                            cur = s.next;
                        }
                    };
                    let chain = &mut self.chains[class.idx()][bank_idx];
                    chain.match_head = new_head;
                    chain.match_len = new_len;
                }
            }
            ReqKind::RowOp { op, .. } => {
                let w = act_weight(op);
                if self.chains[class.idx()][bank_idx].act_head[w] == slot {
                    let mut cur = next;
                    let new_head = loop {
                        if cur == NIL {
                            break NIL;
                        }
                        let s = &self.slab[cur as usize];
                        if let ReqKind::RowOp { op: other, .. } = s.pending.kind {
                            if act_weight(other) == w {
                                break cur;
                            }
                        }
                        cur = s.next;
                    };
                    self.chains[class.idx()][bank_idx].act_head[w] = new_head;
                }
            }
        }
        if prev == NIL {
            self.chains[class.idx()][bank_idx].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.chains[class.idx()][bank_idx].tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
        let chain = &mut self.chains[class.idx()][bank_idx];
        chain.len -= 1;
        if chain.len == 0 {
            self.occupied[class.idx()].remove(bank_idx);
        }
        self.queued[class.idx()] -= 1;
        self.free_slots.push(slot);
        pending
    }

    /// Recomputes the cached candidate of one (class, bank) pair and keeps
    /// the class minimum exact.
    fn update_candidate(&mut self, class: Queue, bank_idx: usize) {
        let gates = self.rank_gates[self.rank_of_bank(bank_idx)];
        if self.store_candidate(class, bank_idx, gates) {
            self.rescan_min(class);
        }
    }

    /// Recomputes the cached candidate of one (class, bank) pair, given
    /// the bank's rank gates. A lower or unchanged class minimum is kept
    /// exact here; returns true when the change raised the minimum entry,
    /// so the caller must [`rescan_min`](MemoryController::rescan_min) the
    /// class (once per batch of updates).
    fn store_candidate(&mut self, class: Queue, bank_idx: usize, gates: [u64; 3]) -> bool {
        let c = class.idx();
        let new = if self.chains[c][bank_idx].len == 0 {
            u64::MAX
        } else {
            self.bank_candidate(class, bank_idx, gates)
        };
        let old = std::mem::replace(&mut self.cand[c][bank_idx], new);
        if new <= self.class_min[c] {
            self.class_min[c] = new;
            false
        } else {
            old == self.class_min[c]
        }
    }

    fn rescan_min(&mut self, class: Queue) {
        let c = class.idx();
        self.class_min[c] = self.cand[c].iter().fold(u64::MAX, |m, &v| m.min(v));
    }

    /// Recomputes every class's candidate for `bank_idx` after its bank
    /// state or chains changed.
    fn update_bank(&mut self, bank_idx: usize) {
        let gates = self.rank_gates[self.rank_of_bank(bank_idx)];
        for class in Queue::ALL {
            if self.store_candidate(class, bank_idx, gates) {
                self.rescan_min(class);
            }
        }
    }

    /// Refreshes `rank_idx`'s activation gates after it recorded an
    /// activation, and recomputes the candidates of its closed banks —
    /// the only ones that read the gates.
    fn update_rank(&mut self, rank_idx: usize) {
        let gates = self.act_gates_of(&self.ranks[rank_idx]);
        self.rank_gates[rank_idx] = gates;
        for class in Queue::ALL {
            // A class whose minimum is `u64::MAX` has only empty chains,
            // and their entries are already `u64::MAX`.
            if self.class_min[class.idx()] == u64::MAX {
                continue;
            }
            let mut stale = false;
            for bank_idx in self.banks_of_rank(rank_idx) {
                if self.banks[bank_idx].open_row().is_none() {
                    stale |= self.store_candidate(class, bank_idx, gates);
                }
            }
            if stale {
                self.rescan_min(class);
            }
        }
    }

    /// Recomputes the read/write candidates that wait on the data bus —
    /// open banks with a queued open-row access — after `data_bus_free`
    /// moved.
    fn update_data_bus(&mut self) {
        for class in [Queue::Read, Queue::Write] {
            let mut stale = false;
            for rank_idx in 0..self.ranks.len() {
                let gates = self.rank_gates[rank_idx];
                for bank_idx in self.banks_of_rank(rank_idx) {
                    if self.banks[bank_idx].open_row().is_some()
                        && self.chains[class.idx()][bank_idx].match_len > 0
                    {
                        stale |= self.store_candidate(class, bank_idx, gates);
                    }
                }
            }
            if stale {
                self.rescan_min(class);
            }
        }
    }

    /// True when no request is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queued.iter().all(|&n| n == 0) && self.in_flight.is_empty()
    }

    /// Removes and returns all completions that have finished by now.
    ///
    /// Completions accumulate until taken; long-running callers must call
    /// this (directly or through their tick loop) to bound the buffer.
    /// Allocation-sensitive callers should prefer
    /// [`MemoryController::drain_completions`].
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// Drains every buffered completion through `f`, in retirement order,
    /// retaining the buffer's capacity — the allocation-free twin of
    /// [`MemoryController::take_completions`] for steady-state serving
    /// loops.
    pub fn drain_completions(&mut self, mut f: impl FnMut(Completion)) {
        for completion in self.completed.drain(..) {
            f(completion);
        }
    }

    /// Advances one memory cycle, issuing at most one command.
    ///
    /// Equivalent to [`MemoryController::advance_to`]`(now + 1)`: the
    /// cycle-by-cycle driver and the event-driven driver share one engine
    /// and produce bit-identical command streams.
    pub fn tick(&mut self) {
        self.advance_to(self.now + 1);
    }

    /// Advances one memory cycle through the *reference* driver: retire,
    /// refresh, and schedule run unconditionally, with no consultation of
    /// [`MemoryController::next_event_cycle`] — the pre-event-engine
    /// `tick` body, byte for byte.
    ///
    /// This is the oracle the engine-equivalence tests (and the
    /// `bench_device` tick-engine baseline) pin the event engine against:
    /// because it never reads the horizon, a horizon bug that delays
    /// events cannot cancel out of the comparison the way it would if
    /// both sides shared [`MemoryController::tick`]'s gating.
    pub fn tick_reference(&mut self) {
        self.step_cycle(false);
        self.now += 1;
    }

    /// The earliest cycle `>= now()` at which the controller may act —
    /// retire an in-flight request, start or service a refresh, or issue
    /// a command for a queued request — or `u64::MAX` when no future
    /// cycle can ever be actionable (idle with refresh disabled).
    ///
    /// The horizon is conservative: it never skips past an actionable
    /// cycle, but may name a cycle at which, on inspection, nothing can
    /// issue yet (the engine then recomputes from there). Every cycle in
    /// `(now(), next_event_cycle())` is guaranteed to be a no-op, which
    /// is what lets [`MemoryController::advance_to`] jump the clock.
    ///
    /// A read of the incremental horizon (see the module docs): the
    /// in-flight head, the refresh terms and the cached per-class
    /// candidate minima. Debug builds check the cache against a
    /// from-scratch scan here.
    #[must_use]
    pub fn next_event_cycle(&self) -> u64 {
        debug_assert_eq!(self.stale_candidate(), None, "stale candidate cache");
        let mut e = u64::MAX;
        if let Some(&Reverse((cycle, _, _))) = self.in_flight.peek() {
            e = e.min(cycle);
        }
        if self.refresh_pending {
            // While a refresh is pending the scheduler is blocked: the
            // only command-bus events are the close-banks/refresh steps.
            match self.banks.iter().find(|b| b.open_row().is_some()) {
                Some(bank) => e = e.min(bank.next_pre_at()),
                None => {
                    let all_ready = self.banks.iter().map(Bank::next_act_at).max().unwrap_or(0);
                    e = e.min(all_ready);
                }
            }
        } else {
            if self.refresh_enabled {
                e = e.min(self.next_refresh);
            }
            e = self.class_min.into_iter().fold(e, u64::min);
        }
        e.max(self.now)
    }

    /// The debug oracle for the cache: recomputes every candidate from
    /// scratch, with the rank gates re-derived from the rank windows, and
    /// returns the first cached entry that differs as `(class, bank,
    /// cached, fresh)` — or a stale class minimum, with no bank.
    fn stale_candidate(&self) -> Option<(Queue, Option<usize>, u64, u64)> {
        for class in Queue::ALL {
            let c = class.idx();
            let mut min = u64::MAX;
            // Occupied banks come in ascending order, so each rank's gates
            // are derived once.
            let mut rank_gates = (usize::MAX, [0; 3]);
            for bank_idx in self.occupied[c].iter() {
                let rank_idx = self.rank_of_bank(bank_idx);
                if rank_gates.0 != rank_idx {
                    rank_gates = (rank_idx, self.act_gates_of(&self.ranks[rank_idx]));
                }
                let fresh = self.bank_candidate(class, bank_idx, rank_gates.1);
                if self.cand[c][bank_idx] != fresh {
                    return Some((class, Some(bank_idx), self.cand[c][bank_idx], fresh));
                }
                min = min.min(fresh);
            }
            for (bank_idx, &cached) in self.cand[c].iter().enumerate() {
                if cached != u64::MAX && self.chains[c][bank_idx].len == 0 {
                    return Some((class, Some(bank_idx), cached, u64::MAX));
                }
            }
            if self.class_min[c] != min {
                return Some((class, None, self.class_min[c], min));
            }
        }
        None
    }

    /// The rank's activation gates for 1, 2, and 3 activations: the
    /// earliest cycles its tRRD/tFAW windows allow, independent of any
    /// bank state.
    fn act_gates_of(&self, rank: &Rank) -> [u64; 3] {
        [
            rank.earliest_activate(0, 1, &self.timing),
            rank.earliest_activate(0, 2, &self.timing),
            rank.earliest_activate(0, 3, &self.timing),
        ]
    }

    /// Cycles from `now()` until [`MemoryController::next_event_cycle`] —
    /// zero when the controller can act this cycle. Callers composing the
    /// controller with other clocked components (e.g. trace-driven cores)
    /// may safely skip this many cycles without losing events.
    #[must_use]
    pub fn cycles_until_next_event(&self) -> u64 {
        self.next_event_cycle().saturating_sub(self.now)
    }

    /// The earliest cycle at which any request queued on `bank_idx` in
    /// `class` could be issued a command (column access, precharge, or
    /// activate), given current bank/rank/bus state — the per-bank
    /// aggregation of the old per-request candidate scan, made O(1) by
    /// the chain caches. `gates` holds the bank's rank activation gates
    /// for 1, 2, and 3 activations. Independent of `now`, and a lower
    /// bound on the bank's next command (exact except for an open bank
    /// whose oldest request hits the open row while a younger one misses
    /// it: that precharge term is early). The scheduler's
    /// one-command-per-cycle arbitration is applied when the cycle is
    /// actually processed.
    fn bank_candidate(&self, class: Queue, bank_idx: usize, gates: [u64; 3]) -> u64 {
        let bank = &self.banks[bank_idx];
        let chain = &self.chains[class.idx()][bank_idx];
        match class {
            Queue::Read | Queue::Write => match bank.open_row() {
                Some(_) => {
                    let mut cand = u64::MAX;
                    if chain.match_len > 0 {
                        let (col_gate, bus_lead) = if class == Queue::Read {
                            (bank.next_rd_at(), self.timing.t_cl)
                        } else {
                            (bank.next_wr_at(), self.timing.t_cwl)
                        };
                        cand = cand.min(
                            col_gate.max(self.data_bus_free.saturating_sub(u64::from(bus_lead))),
                        );
                    }
                    if chain.len > chain.match_len {
                        cand = cand.min(bank.next_pre_at());
                    }
                    cand
                }
                None => bank.next_act_at().max(gates[0]),
            },
            Queue::RowOp => match bank.open_row() {
                Some(_) => bank.next_pre_at(),
                None => {
                    let mut cand = u64::MAX;
                    for (w, &slot) in chain.act_head.iter().enumerate() {
                        if slot != NIL {
                            cand = cand.min(bank.next_act_at().max(gates[w]));
                        }
                    }
                    cand
                }
            },
        }
    }

    /// Advances the clock to exactly `target`, processing every
    /// actionable cycle in `[now, target)` and jumping over the quiet
    /// gaps in between — the event-driven core. Calling this is
    /// bit-identical (same commands at the same cycles, same completions,
    /// same statistics) to calling [`MemoryController::tick`]
    /// `target - now()` times; wall-clock cost scales with *events*
    /// rather than with simulated cycles.
    pub fn advance_to(&mut self, target: u64) {
        // A stuck clock (injected fault) caps how far the engine will
        // walk: events at the ceiling itself may still process, nothing
        // after it.
        let target = match self.clock_ceiling {
            Some(ceiling) => target.min(ceiling.saturating_add(1)),
            None => target,
        };
        while self.now < target {
            let event = self.next_event_cycle().min(target);
            if event > self.now {
                self.now = event;
                if self.now >= target {
                    break;
                }
            }
            self.step_cycle(true);
            self.now += 1;
        }
    }

    /// One tick's worth of work at the current cycle (without advancing
    /// the clock): retire, then refresh or schedule. `filtered` lets the
    /// scheduler skip classes and banks whose cached candidate lies after
    /// `now`; the reference driver passes `false` and never reads the
    /// cache.
    fn step_cycle(&mut self, filtered: bool) {
        self.processed_cycles += 1;
        self.retire_in_flight();
        if self.refresh_enabled && !self.refresh_pending && self.now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            let _ = self.service_refresh();
        } else {
            self.update_drain_mode();
            self.schedule(filtered);
        }
    }

    /// Jumps the clock to the next event and processes that one cycle —
    /// the single-event driver. Returns `false` (and leaves the clock
    /// untouched) when no future cycle can ever be actionable.
    ///
    /// Equivalent to ticking up to and through the event cycle; callers
    /// interleaving their own work per event (queue refills, completion
    /// harvesting) use this instead of a fixed [`MemoryController::advance_to`]
    /// target.
    pub fn step_event(&mut self) -> bool {
        let event = self.next_event_cycle();
        if event == u64::MAX {
            return false;
        }
        // An injected stuck clock refuses any event past its ceiling.
        if let Some(ceiling) = self.clock_ceiling {
            if event > ceiling {
                return false;
            }
        }
        self.now = self.now.max(event);
        self.step_cycle(true);
        self.now += 1;
        true
    }

    /// Runs until idle, returning the cycle at which the last request
    /// completed (or the current cycle when already idle). Completions
    /// stay buffered for [`MemoryController::take_completions`]; callers
    /// that only need the finish cycle can discard them afterwards.
    ///
    /// Event-driven: the clock jumps from event to event instead of
    /// ticking through quiet cycles, with results bit-identical to the
    /// tick-by-tick loop.
    pub fn run_to_idle(&mut self) -> u64 {
        let last = self.now;
        while !self.is_idle() && self.step_event() {}
        last.max(self.last_finish)
    }

    fn retire_in_flight(&mut self) {
        while let Some(&Reverse((cycle, id, tag))) = self.in_flight.peek() {
            if cycle > self.now {
                break;
            }
            self.in_flight.pop();
            self.last_finish = self.last_finish.max(cycle);
            self.completed.push(Completion {
                id: ReqId(id),
                finish_cycle: cycle,
                tag,
            });
        }
    }

    fn update_drain_mode(&mut self) {
        if self.queued[Queue::Write.idx()] >= DRAIN_HIGH {
            self.write_drain = true;
        } else if self.queued[Queue::Write.idx()] <= DRAIN_LOW {
            self.write_drain = false;
        }
    }

    /// Attempts to make refresh progress; returns true if a command was
    /// issued this cycle.
    fn service_refresh(&mut self) -> bool {
        // Close any open bank first.
        for i in 0..self.banks.len() {
            if self.banks[i].open_row().is_some() {
                if self.banks[i].can_precharge(self.now) {
                    self.precharge_bank(i);
                    return true;
                }
                return false;
            }
        }
        // All banks closed; wait until every bank can accept an activate
        // (i.e. tRP has elapsed) then refresh all ranks.
        if self.banks.iter().all(|b| b.can_activate(self.now)) {
            let until = self.now + u64::from(self.timing.t_rfc);
            for b in &mut self.banks {
                b.block_until(until);
            }
            self.stats.refreshes += self.ranks.len() as u64;
            self.refresh_pending = false;
            self.next_refresh += u64::from(self.timing.t_refi);
            for bank_idx in 0..self.banks.len() {
                self.update_bank(bank_idx);
            }
            return true;
        }
        false
    }

    fn schedule(&mut self, filtered: bool) {
        // Row operations are scheduled like reads but take precedence over
        // the data queues only when no column command is ready: they never
        // need the data bus. Reads lead unless a write drain is active or
        // no read is queued.
        const READS_FIRST: [Queue; Queue::COUNT] = [Queue::Read, Queue::Write, Queue::RowOp];
        const WRITES_FIRST: [Queue; Queue::COUNT] = [Queue::Write, Queue::Read, Queue::RowOp];
        let order = if self.write_drain || self.queued[Queue::Read.idx()] == 0 {
            WRITES_FIRST
        } else {
            READS_FIRST
        };
        for class in order {
            // No bank of a class whose minimum candidate lies ahead can
            // issue this cycle.
            if filtered && self.class_min[class.idx()] > self.now {
                continue;
            }
            if self.try_queue(class, filtered) {
                break;
            }
        }
    }

    fn try_queue(&mut self, which: Queue, filtered: bool) -> bool {
        // Pass 1 (first-ready): issue any request whose row is open and
        // whose column command is timing-clean.
        if let Some(slot) = self.find_ready(which, filtered) {
            self.issue_column(which, slot);
            return true;
        }
        // Pass 2 (FCFS): for the oldest request per bank, advance the bank
        // state with a precharge or activate.
        self.advance_oldest(which, filtered)
    }

    /// Whether the scheduler may skip `bank_idx` in `class` this cycle:
    /// only when filtering, and only when the bank's candidate — a lower
    /// bound on its next command — lies after `now`.
    fn not_due(&self, filtered: bool, class: Queue, bank_idx: usize) -> bool {
        filtered && self.cand[class.idx()][bank_idx] > self.now
    }

    /// First-ready selection over the ready-bank index: among all banks
    /// whose caches name an issuable request, the one with the minimal
    /// global arrival sequence — identical to scanning the class's
    /// arrival-ordered queue front to back.
    fn find_ready(&self, which: Queue, filtered: bool) -> Option<u32> {
        let mut best: Option<(u64, u32)> = None;
        match which {
            Queue::Read | Queue::Write => {
                let is_read = which == Queue::Read;
                if !self.column_bus_ok(is_read) {
                    return None;
                }
                for bank_idx in self.occupied[which.idx()].iter() {
                    let chain = &self.chains[which.idx()][bank_idx];
                    if chain.match_head == NIL || self.not_due(filtered, which, bank_idx) {
                        continue;
                    }
                    let bank = &self.banks[bank_idx];
                    let gate = if is_read {
                        bank.next_rd_at()
                    } else {
                        bank.next_wr_at()
                    };
                    if self.now < gate {
                        continue;
                    }
                    let arrival = self.slab[chain.match_head as usize].pending.id.0;
                    if best.is_none_or(|(b, _)| arrival < b) {
                        best = Some((arrival, chain.match_head));
                    }
                }
            }
            Queue::RowOp => {
                for bank_idx in self.occupied[Queue::RowOp.idx()].iter() {
                    if self.not_due(filtered, which, bank_idx)
                        || !self.banks[bank_idx].can_row_op(self.now)
                    {
                        continue;
                    }
                    let rank = &self.ranks[self.rank_of_bank(bank_idx)];
                    let chain = &self.chains[Queue::RowOp.idx()][bank_idx];
                    for (w, &slot) in chain.act_head.iter().enumerate() {
                        if slot == NIL {
                            continue;
                        }
                        if !rank.can_activate(self.now, w as u8 + 1, &self.timing) {
                            continue;
                        }
                        let arrival = self.slab[slot as usize].pending.id.0;
                        if best.is_none_or(|(b, _)| arrival < b) {
                            best = Some((arrival, slot));
                        }
                    }
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    fn column_bus_ok(&self, is_read: bool) -> bool {
        let start = self.now
            + u64::from(if is_read {
                self.timing.t_cl
            } else {
                self.timing.t_cwl
            });
        start >= self.data_bus_free
    }

    fn issue_column(&mut self, which: Queue, slot: u32) {
        let p = self.unlink(which, slot);
        let bank_idx = self.bank_index(&p.addr);
        match p.kind {
            ReqKind::Read => {
                let done = self.banks[bank_idx].read(self.now, &self.timing);
                self.data_bus_free = done;
                self.stats.reads += 1;
                self.stats.row_hits += 1;
                self.in_flight.push(Reverse((done, p.id.0, p.tag)));
                self.update_bank(bank_idx);
                self.update_data_bus();
            }
            ReqKind::Write => {
                let done = self.banks[bank_idx].write(self.now, &self.timing);
                self.data_bus_free = done;
                self.stats.writes += 1;
                self.stats.row_hits += 1;
                self.in_flight.push(Reverse((done, p.id.0, p.tag)));
                self.update_bank(bank_idx);
                self.update_data_bus();
            }
            ReqKind::RowOp { op, busy_cycles } => {
                self.banks[bank_idx].row_op(self.now, busy_cycles);
                let rank_idx = p.addr.rank as usize;
                self.ranks[rank_idx].record_activate(self.now, op.activations(), &self.timing);
                self.stats.row_ops += 1;
                self.stats.row_op_activations += u64::from(op.activations());
                self.in_flight
                    .push(Reverse((self.now + u64::from(busy_cycles), p.id.0, p.tag)));
                // The bank stays closed, so the rank pass covers it.
                self.update_rank(rank_idx);
            }
        }
    }

    /// The FCFS pass: for each bank's oldest request — banks visited in
    /// ascending arrival order of those oldest requests, exactly the
    /// order a front-to-back queue scan discovers them — advance the bank
    /// state with a precharge or activate. First success wins the cycle.
    fn advance_oldest(&mut self, which: Queue, filtered: bool) -> bool {
        let mut order = std::mem::take(&mut self.oldest_scratch);
        order.clear();
        for bank_idx in self.occupied[which.idx()].iter() {
            if self.not_due(filtered, which, bank_idx) {
                continue;
            }
            let head = self.chains[which.idx()][bank_idx].head;
            order.push((self.slab[head as usize].pending.id.0, bank_idx as u32));
        }
        order.sort_unstable();
        let is_rowop = which == Queue::RowOp;
        let mut issued = false;
        for &(_, bank) in order.iter() {
            let bank_idx = bank as usize;
            let head = self.chains[which.idx()][bank_idx].head;
            let p = self.slab[head as usize].pending;
            match self.banks[bank_idx].open_row() {
                Some(row)
                    if (is_rowop || row != p.addr.row)
                        && self.banks[bank_idx].can_precharge(self.now) =>
                {
                    self.precharge_bank(bank_idx);
                    if !is_rowop {
                        self.stats.row_misses += 1;
                    }
                    issued = true;
                    break;
                }
                Some(_) => {
                    // Either the correct row is open (waiting on a column
                    // timing or the data bus), or the wrong row is open but
                    // its precharge window (tRAS) has not elapsed yet.
                    // Nothing to do for this bank this cycle.
                }
                None if !is_rowop => {
                    let rank_idx = p.addr.rank as usize;
                    if self.banks[bank_idx].can_activate(self.now)
                        && self.ranks[rank_idx].can_activate(self.now, 1, &self.timing)
                    {
                        self.activate_bank(bank_idx, p.addr.row, rank_idx);
                        issued = true;
                        break;
                    }
                }
                None => {
                    // Row ops issue directly from pass 1 when the bank and
                    // rank windows allow; nothing to prepare here.
                }
            }
        }
        self.oldest_scratch = order;
        issued
    }

    /// Precharges `bank_idx` and invalidates its open-row match caches and
    /// candidates — the single choke point every precharge (scheduler or
    /// refresh) goes through, so the caches can never go stale.
    fn precharge_bank(&mut self, bank_idx: usize) {
        self.banks[bank_idx].precharge(self.now, &self.timing);
        self.stats.precharges += 1;
        for class in [Queue::Read, Queue::Write] {
            let chain = &mut self.chains[class.idx()][bank_idx];
            chain.match_head = NIL;
            chain.match_len = 0;
        }
        self.update_bank(bank_idx);
    }

    /// Activates `row` on `bank_idx`, rebuilds its open-row match caches
    /// with one pass over the bank's own (bounded) chains, and recomputes
    /// the candidates the bank and rank changes invalidated.
    fn activate_bank(&mut self, bank_idx: usize, row: u32, rank_idx: usize) {
        self.banks[bank_idx].activate(row, self.now, &self.timing);
        self.ranks[rank_idx].record_activate(self.now, 1, &self.timing);
        self.stats.activates += 1;
        for class in [Queue::Read, Queue::Write] {
            let mut head = NIL;
            let mut len = 0u32;
            let mut cur = self.chains[class.idx()][bank_idx].head;
            while cur != NIL {
                let s = &self.slab[cur as usize];
                if s.pending.addr.row == row {
                    if head == NIL {
                        head = cur;
                    }
                    len += 1;
                }
                cur = s.next;
            }
            let chain = &mut self.chains[class.idx()][bank_idx];
            chain.match_head = head;
            chain.match_len = len;
        }
        self.update_rank(rank_idx);
        self.update_bank(bank_idx);
    }

    fn bank_index(&self, addr: &DramAddress) -> usize {
        addr.bank_id(self.mapper.geometry()) as usize
    }

    fn rank_of_bank(&self, bank_idx: usize) -> usize {
        self.mapper.rank_of_bank(bank_idx)
    }

    fn banks_of_rank(&self, rank_idx: usize) -> std::ops::Range<usize> {
        let per_rank = self.mapper.geometry().banks_per_rank as usize;
        rank_idx * per_rank..(rank_idx + 1) * per_rank
    }
}

/// The three FR-FCFS queue classes, in slab-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queue {
    Read = 0,
    Write = 1,
    RowOp = 2,
}

impl Queue {
    const COUNT: usize = 3;
    const ALL: [Queue; Queue::COUNT] = [Queue::Read, Queue::Write, Queue::RowOp];

    fn of(kind: ReqKind) -> Queue {
        match kind {
            ReqKind::Read => Queue::Read,
            ReqKind::Write => Queue::Write,
            ReqKind::RowOp { .. } => Queue::RowOp,
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LINE_BYTES;
    use crate::request::RowOpKind;

    fn mc() -> MemoryController {
        let mut mc =
            MemoryController::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11());
        mc.set_refresh_enabled(false);
        mc
    }

    fn run_until_idle(mc: &mut MemoryController) -> u64 {
        mc.run_to_idle()
    }

    #[test]
    fn single_read_latency_is_act_plus_cas_plus_burst() {
        let mut m = mc();
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        let finish = run_until_idle(&mut m);
        let t = m.timing();
        // ACT at cycle 0 is not possible before the scheduler sees the
        // request (1 cycle), then tRCD + tCL + tBL.
        let ideal = u64::from(t.t_rcd + t.t_cl + t.t_bl);
        assert!(finish >= ideal && finish <= ideal + 4, "finish {finish}");
        assert_eq!(m.stats().activates, 1);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn stuck_clock_freezes_the_engine_at_its_ceiling() {
        // Reference: the same request stream without a fault.
        let mut healthy = mc();
        healthy.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        let healthy_finish = run_until_idle(&mut healthy);

        let mut m = mc();
        m.set_clock_fault(2);
        assert!(!m.clock_stalled(), "an idle faulted device is not stalled");
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        let finish = run_until_idle(&mut m);
        assert!(healthy_finish > 2, "the op needs cycles past the ceiling");
        assert!(finish <= 3, "the clock never walked past the ceiling");
        assert!(!m.is_idle(), "the request is wedged, not completed");
        assert!(m.clock_stalled());
        assert!(m.take_completions().is_empty());
        // Every driver respects the ceiling: step_event refuses, tick and
        // advance_to clamp.
        assert!(!m.step_event());
        let now = m.now();
        m.advance_to(now + 10_000);
        m.tick();
        assert!(m.now() <= 3);
        assert_eq!(m.clock_fault(), Some(2));
    }

    #[test]
    fn row_hits_avoid_new_activates() {
        let mut m = mc();
        for i in 0..8u64 {
            m.push(MemRequest::new(i * LINE_BYTES, ReqKind::Read))
                .unwrap();
        }
        run_until_idle(&mut m);
        assert_eq!(m.stats().activates, 1, "sequential lines share one row");
        assert_eq!(m.stats().reads, 8);
        assert_eq!(m.stats().row_hit_rate(), Some(8.0 / 8.0));
    }

    #[test]
    fn row_conflict_precharges_and_reactivates() {
        let mut m = mc();
        let row_bytes = DramGeometry::ROW_BYTES;
        // Same bank, different rows: rows in the same bank are
        // banks_per_rank rows apart in physical address space.
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        m.push(MemRequest::new(row_bytes * 8, ReqKind::Read))
            .unwrap();
        run_until_idle(&mut m);
        assert_eq!(m.stats().activates, 2);
        assert_eq!(m.stats().precharges, 1);
        assert_eq!(m.stats().row_misses, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut m = mc();
        for i in 0..4u64 {
            m.push(MemRequest::new(i * LINE_BYTES, ReqKind::Write))
                .unwrap();
        }
        m.push(MemRequest::new(4 * LINE_BYTES, ReqKind::Read))
            .unwrap();
        let mut read_done = None;
        let mut writes_done = 0;
        while !m.is_idle() {
            m.tick();
            for c in m.take_completions() {
                if c.id == ReqId(4) {
                    read_done = Some(c.finish_cycle);
                } else {
                    writes_done += 1;
                    let _ = writes_done;
                }
            }
        }
        let read_done = read_done.expect("read completed");
        assert!(
            read_done < u64::from(m.timing().t_rc) + 20,
            "read finished at {read_done}, should not wait for all writes"
        );
    }

    #[test]
    fn bank_parallel_rowops_sustain_tfaw_rate() {
        // Issue one CODIC row op per row over all 8 banks; the steady-state
        // rate must be tFAW-limited: 4 ops per tFAW.
        let mut m = mc();
        let rows = 64u64;
        let mut next_row = 0u64;
        let mut finish = 0;
        loop {
            while next_row < rows {
                let addr = next_row * DramGeometry::ROW_BYTES;
                let t_rc = m.timing().t_rc;
                let req = MemRequest::new(
                    addr,
                    ReqKind::RowOp {
                        op: RowOpKind::Codic,
                        busy_cycles: t_rc,
                    },
                );
                if m.push(req).is_err() {
                    break;
                }
                next_row += 1;
            }
            if m.is_idle() && next_row >= rows {
                break;
            }
            m.tick();
            for c in m.take_completions() {
                finish = finish.max(c.finish_cycle);
            }
        }
        let t = m.timing();
        let per_op = finish as f64 / rows as f64;
        let faw_bound = f64::from(t.t_faw) / 4.0;
        assert!(
            (per_op - faw_bound).abs() < 2.0,
            "per-op {per_op} cycles vs tFAW/4 = {faw_bound}"
        );
        assert_eq!(m.stats().row_ops, rows);
    }

    #[test]
    fn refresh_blocks_and_counts() {
        let mut m =
            MemoryController::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11());
        let refi = u64::from(m.timing().t_refi);
        for _ in 0..refi + 300 {
            m.tick();
        }
        assert!(m.stats().refreshes >= 1);
    }

    #[test]
    fn queue_full_is_reported() {
        let mut m = mc();
        for i in 0..QUEUE_DEPTH as u64 {
            m.push(MemRequest::new(i * LINE_BYTES, ReqKind::Read))
                .unwrap();
        }
        let err = m
            .push(MemRequest::new(0, ReqKind::Read))
            .expect_err("queue must be full");
        assert_eq!(err.request.addr, 0);
        assert_eq!(m.stats().queue_rejections, 1);
    }

    /// Mixed workload driven tick-by-tick and by event jumps must agree
    /// on every completion, statistic, and the final clock.
    #[test]
    fn event_jumps_are_bit_identical_to_ticking() {
        let build = |refresh: bool| {
            let mut m =
                MemoryController::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11());
            m.set_refresh_enabled(refresh);
            for i in 0..10u64 {
                m.push(MemRequest::new(i * LINE_BYTES, ReqKind::Read))
                    .unwrap();
                m.push(MemRequest::new(
                    DramGeometry::ROW_BYTES * 8 + i * LINE_BYTES,
                    ReqKind::Write,
                ))
                .unwrap();
            }
            m.push(MemRequest::new(
                DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: RowOpKind::Codic,
                    busy_cycles: TimingParams::ddr3_1600_11().t_rc,
                },
            ))
            .unwrap();
            m
        };
        for refresh in [false, true] {
            // The reference driver never consults the horizon, so a
            // too-late next_event_cycle() cannot cancel out of this
            // comparison.
            let mut ticked = build(refresh);
            let mut jumped = build(refresh);
            while !ticked.is_idle() {
                ticked.tick_reference();
            }
            jumped.run_to_idle();
            assert_eq!(ticked.take_completions(), jumped.take_completions());
            assert_eq!(ticked.stats(), jumped.stats(), "refresh={refresh}");
            assert_eq!(ticked.now(), jumped.now(), "refresh={refresh}");
        }
    }

    #[test]
    fn next_event_cycle_never_skips_an_actionable_cycle() {
        // Drive with the reference driver (which acts regardless of the
        // horizon): whenever the horizon claims the current cycle is
        // quiet, the reference step over that cycle must change nothing.
        // A too-late horizon fails here — the reference would issue or
        // retire inside the claimed-quiet gap.
        let mut m = mc();
        for i in 0..6u64 {
            m.push(MemRequest::new(
                i * DramGeometry::ROW_BYTES * 8,
                ReqKind::Read,
            ))
            .unwrap();
        }
        let mut quiet_claims = 0;
        while !m.is_idle() {
            let horizon = m.next_event_cycle();
            let before = (*m.stats(), m.take_completions().len());
            m.tick_reference();
            if m.now() <= horizon {
                // The stepped cycle was claimed quiet: no command may
                // have issued and nothing may have retired.
                quiet_claims += 1;
                let after = (*m.stats(), m.take_completions().len());
                assert_eq!(before.0, after.0);
                assert_eq!(after.1, 0);
            }
        }
        assert!(quiet_claims > 0, "the workload must exercise quiet gaps");
    }

    #[test]
    fn event_driver_processes_a_pinned_number_of_cycles() {
        // Reads to row 0 and writes to row 1 of banks 0 and 1 (so both
        // contend for the data bus), then a CODIC op on each bank: the
        // event driver must stop the clock exactly this often. A horizon
        // that turns conservative (naming cycles at which nothing can
        // act) raises the count; one that skips events breaks the
        // engine-equivalence tests instead.
        let build = || {
            let mut m = mc();
            for i in 0..4u64 {
                for bank in 0..2 {
                    let line = bank * DramGeometry::ROW_BYTES + i * LINE_BYTES;
                    m.push(MemRequest::new(line, ReqKind::Read)).unwrap();
                    m.push(MemRequest::new(
                        DramGeometry::ROW_BYTES * 8 + line,
                        ReqKind::Write,
                    ))
                    .unwrap();
                }
            }
            for bank in 0..8u64 {
                m.push(MemRequest::new(
                    bank * DramGeometry::ROW_BYTES,
                    ReqKind::RowOp {
                        op: RowOpKind::Codic,
                        busy_cycles: m.timing().t_rc,
                    },
                ))
                .unwrap();
            }
            m
        };
        let mut m = build();
        // 34 commands and 24 completions, the last at cycle 184.
        assert_eq!(m.run_to_idle(), 184);
        assert_eq!(m.processed_cycles(), 53);
        // The reference driver processes every cycle up to idle.
        let mut reference = build();
        while !reference.is_idle() {
            reference.tick_reference();
        }
        assert_eq!(reference.processed_cycles(), reference.now());
        assert_eq!(reference.now(), m.now());
    }

    #[test]
    fn advance_to_lands_exactly_on_target() {
        let mut m = mc();
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        m.advance_to(5);
        assert_eq!(m.now(), 5);
        m.advance_to(100_000);
        assert_eq!(m.now(), 100_000);
        assert!(m.is_idle());
    }

    #[test]
    fn completions_report_monotone_ids_for_fifo_reads_to_one_bank() {
        let mut m = mc();
        for i in 0..4u64 {
            m.push(MemRequest::new(i * LINE_BYTES, ReqKind::Read))
                .unwrap();
        }
        let mut ids = Vec::new();
        while !m.is_idle() {
            m.tick();
            ids.extend(m.take_completions().into_iter().map(|c| c.id));
        }
        let sorted = {
            let mut s = ids.clone();
            s.sort();
            s
        };
        assert_eq!(ids, sorted, "same-row reads complete in order");
    }

    #[test]
    fn completions_carry_the_tags_their_requests_were_pushed_with() {
        // Reads, writes and row ops over 512 rows, refilled as the queues
        // drain, with refresh on: every driver hands each request's tag
        // back with its completion, and the tag moves no command.
        const REQUESTS: u64 = 3000;
        let mut streams = Vec::new();
        for name in ["tick_reference", "tick", "advance_to"] {
            let mut m =
                MemoryController::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11());
            let busy_cycles = m.timing().t_rc;
            let mut tags = std::collections::HashMap::new();
            let mut stream = Vec::new();
            let mut next = 0u64;
            while next < REQUESTS || !m.is_idle() {
                while next < REQUESTS {
                    let kind = match next % 5 {
                        0 | 1 => ReqKind::Read,
                        2 => ReqKind::Write,
                        3 => ReqKind::RowOp {
                            op: RowOpKind::Codic,
                            busy_cycles,
                        },
                        _ => ReqKind::RowOp {
                            op: RowOpKind::RowClone,
                            busy_cycles: 2 * busy_cycles,
                        },
                    };
                    let addr =
                        (next * 7919 % 512) * DramGeometry::ROW_BYTES + (next % 16) * LINE_BYTES;
                    let tag = u32::MAX - (next.wrapping_mul(0x9e37_79b9) >> 5) as u32;
                    match m.push(MemRequest::new(addr, kind).with_tag(tag)) {
                        Ok(id) => {
                            tags.insert(id, tag);
                            next += 1;
                        }
                        Err(_) => break,
                    }
                }
                match name {
                    "tick_reference" => m.tick_reference(),
                    "tick" => m.tick(),
                    _ => m.advance_to(m.now() + 37),
                }
                for c in m.take_completions() {
                    assert_eq!(tags.remove(&c.id), Some(c.tag), "{name}: {c:?}");
                    stream.push(c);
                }
            }
            assert!(tags.is_empty(), "{name}: {} never completed", tags.len());
            assert!(m.stats().refreshes > 0, "{name}: the run crosses a refresh");
            streams.push(stream);
        }
        assert_eq!(streams[0], streams[1], "tick and tick_reference agree");
    }

    #[test]
    fn slab_recycles_slots_across_batches() {
        // Queue capacity bounds the live slots, so the slab must stop
        // growing after the first full batch no matter how many requests
        // stream through.
        let mut m = mc();
        for batch in 0..4u64 {
            let mut pushed = 0u64;
            while pushed < 256 {
                let addr = (batch * 256 + pushed) * DramGeometry::ROW_BYTES;
                if m.push(MemRequest::new(addr, ReqKind::Read)).is_ok() {
                    pushed += 1;
                } else {
                    m.step_event();
                }
            }
            m.run_to_idle();
            assert!(
                m.slab.len() <= Queue::COUNT * QUEUE_DEPTH,
                "slab grew to {} slots",
                m.slab.len()
            );
        }
        assert_eq!(m.stats().reads, 4 * 256);
        assert_eq!(m.free_slots.len(), m.slab.len(), "all slots recycled");
    }

    #[test]
    fn eligible_single_activation_rowop_overtakes_blocked_double() {
        // Saturate the rank's tFAW window so that a two-activation row op
        // is gated while a one-activation op is not: the younger Codic op
        // must issue first even though the RowClone op is ahead of it in
        // arrival order (first-READY, then FCFS).
        let mut m = mc();
        let t_rc = m.timing().t_rc;
        // Three single-activation ops on banks 0-2 fill 3 of the 4 tFAW
        // slots back to back.
        for bank in 0..3u64 {
            m.push(MemRequest::new(
                bank * DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: RowOpKind::Codic,
                    busy_cycles: t_rc,
                },
            ))
            .unwrap();
        }
        // An older double-activation op on bank 3, then a younger single
        // on bank 4.
        let double = m
            .push(MemRequest::new(
                3 * DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: RowOpKind::RowClone,
                    busy_cycles: t_rc,
                },
            ))
            .unwrap();
        let single = m
            .push(MemRequest::new(
                4 * DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: RowOpKind::Codic,
                    busy_cycles: t_rc,
                },
            ))
            .unwrap();
        m.run_to_idle();
        let completions = m.take_completions();
        let finish_of = |id: ReqId| {
            completions
                .iter()
                .find(|c| c.id == id)
                .expect("completed")
                .finish_cycle
        };
        assert!(
            finish_of(single) < finish_of(double),
            "single-activation op (finish {}) must overtake the \
             tFAW-blocked double (finish {})",
            finish_of(single),
            finish_of(double)
        );
        assert_eq!(m.stats().row_ops, 5);
        assert_eq!(m.stats().row_op_activations, 6);
    }

    #[test]
    fn triple_activation_rowops_respect_the_rank_windows() {
        // A back-to-back stream of triple-row activations: each op takes
        // 3 of the 4 tFAW slots, so the scheduler must gate every op on
        // the full 3-activation rank window (a 2-activation gate would
        // trip the rank assertion). Mixing banks exercises the per-weight
        // ready cache under rank pressure.
        let mut m = mc();
        let t_rc = m.timing().t_rc;
        let t_faw = u64::from(m.timing().t_faw);
        let n = 8u64;
        for i in 0..n {
            m.push(MemRequest::new(
                (i % 4) * DramGeometry::ROW_BYTES,
                ReqKind::RowOp {
                    op: RowOpKind::TripleAct,
                    busy_cycles: t_rc,
                },
            ))
            .unwrap();
        }
        let finish = m.run_to_idle();
        assert_eq!(m.stats().row_ops, n);
        assert_eq!(m.stats().row_op_activations, 3 * n);
        // 3 activations per op leave one tFAW slot spare: consecutive ops
        // cannot land in the same window, so the stream needs at least
        // one full window per op beyond the first.
        assert!(
            finish >= (n - 1) * t_faw,
            "{n} triple-activation ops finished at {finish}, before the \
             tFAW bound {}",
            (n - 1) * t_faw
        );
    }

    #[test]
    fn drain_completions_is_allocation_free_at_steady_state() {
        let mut m = mc();
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap();
        m.run_to_idle();
        let mut seen = Vec::new();
        m.drain_completions(|c| seen.push(c));
        assert_eq!(seen.len(), 1);
        let warm_capacity = m.completed.capacity();
        assert!(warm_capacity >= 1, "buffer capacity is retained");
        // A second batch reuses the drained buffer: capacity unchanged.
        m.push(MemRequest::new(LINE_BYTES, ReqKind::Read)).unwrap();
        m.run_to_idle();
        m.drain_completions(|c| seen.push(c));
        assert_eq!(seen.len(), 2);
        assert_eq!(m.completed.capacity(), warm_capacity);
        assert!(m.take_completions().is_empty());
    }

    #[test]
    fn match_caches_follow_the_open_row() {
        // Interleave hits and conflicts on one bank: the scheduler must
        // keep serving open-row hits that arrived *after* a conflicting
        // request was already queued, exactly like a full queue scan.
        let mut m = mc();
        let other_row = DramGeometry::ROW_BYTES * 8; // same bank, row 1
        m.push(MemRequest::new(0, ReqKind::Read)).unwrap(); // opens row 0
        m.push(MemRequest::new(other_row, ReqKind::Read)).unwrap(); // conflict
        m.push(MemRequest::new(LINE_BYTES, ReqKind::Read)).unwrap(); // row-0 hit
        m.run_to_idle();
        let completions = m.take_completions();
        assert_eq!(completions.len(), 3);
        // The row-0 hit (id 2) must complete before the row-1 conflict
        // (id 1): first-ready beats FCFS while row 0 is open.
        let finish_of = |raw: u64| {
            completions
                .iter()
                .find(|c| c.id == ReqId(raw))
                .expect("completed")
                .finish_cycle
        };
        assert!(finish_of(2) < finish_of(1));
        // Every issued column access counts as a hit; the conflict is
        // charged as a miss at its precharge.
        assert_eq!(m.stats().row_hits, 3);
        assert_eq!(m.stats().row_misses, 1);
    }
}
