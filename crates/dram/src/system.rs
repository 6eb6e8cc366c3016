//! Full-system composition: cores + caches + memory controller + DRAM.

use crate::controller::MemoryController;
use crate::cpu::{Core, CoreRequest};
use crate::geometry::DramGeometry;
use crate::stats::MemStats;
use crate::timing::TimingParams;
use crate::trace::TraceOp;

/// Result of a completed system simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Total memory cycles simulated.
    pub cycles: u64,
    /// Instructions retired per core.
    pub retired: Vec<u64>,
    /// Memory controller counters.
    pub mem: MemStats,
}

impl SystemStats {
    /// Nanoseconds simulated, given the timing used.
    #[must_use]
    pub fn elapsed_ns(&self, timing: &TimingParams) -> f64 {
        timing.ns(self.cycles)
    }
}

/// The tag of a posted request: no core waits for it, so its completion
/// wakes no core.
const POSTED: u32 = u32::MAX;

/// A system of one or more trace-driven cores sharing a memory controller,
/// matching the paper's Tables 5 and 7 configurations. A blocking
/// request carries its core's index as its [`MemRequest::tag`], so a
/// completion finds the core waiting for it by its tag.
///
/// [`MemRequest::tag`]: crate::request::MemRequest::tag
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    mc: MemoryController,
}

impl System {
    /// Builds a system with one core per trace.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: TimingParams, traces: Vec<Vec<TraceOp>>) -> Self {
        System {
            cores: traces.into_iter().map(Core::new).collect(),
            mc: MemoryController::new(geometry, timing),
        }
    }

    /// Access to the memory controller (e.g. to disable refresh).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// Whether every core finished and memory drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(Core::is_finished) && self.mc.is_idle()
    }

    /// Advances the whole system one memory cycle.
    pub fn tick(&mut self) {
        self.tick_with(false);
    }

    /// One composite cycle, driving the controller either through the
    /// shared engine (`tick`) or through the horizon-free reference
    /// driver (`tick_reference`) — the latter is the equivalence oracle.
    fn tick_with(&mut self, reference: bool) {
        for i in 0..self.cores.len() {
            match self.cores[i].tick() {
                CoreRequest::None => {}
                CoreRequest::Blocking(req) => match self.mc.push(req.with_tag(i as u32)) {
                    Ok(id) => self.cores[i].on_issued(id),
                    Err(_) => self.cores[i].on_rejected(),
                },
                CoreRequest::Posted(req) => {
                    if self.mc.push(req.with_tag(POSTED)).is_err() {
                        self.cores[i].on_posted_rejected(req);
                    }
                }
            }
        }
        if reference {
            self.mc.tick_reference();
        } else {
            self.mc.tick();
        }
        for c in self.mc.take_completions() {
            if let Some(core) = self.cores.get_mut(c.tag as usize) {
                core.on_complete(c.id);
            }
        }
    }

    /// Cycles from now for which provably neither a core nor the memory
    /// controller can act: every core is counting down a stall/bubble (or
    /// blocked on memory) and the controller's next event — including the
    /// completion that would wake a blocked core — is that far away.
    fn quiet_gap(&self) -> u64 {
        self.cores
            .iter()
            .map(Core::quiet_cycles)
            .min()
            .unwrap_or(u64::MAX)
            .min(self.mc.cycles_until_next_event())
    }

    /// Runs to completion (or until `max_cycles`) and reports statistics.
    ///
    /// Event-driven: after each simulated cycle the system jumps the
    /// clock over the quiet gap where no core and no controller event can
    /// occur, so wall-clock cost scales with events rather than with
    /// simulated cycles. Results (cycle counts, retired instructions,
    /// memory statistics) are bit-identical to ticking every cycle, and
    /// the run stops exactly at the first cycle `>= max_cycles` — jumps
    /// are clamped, so the reported [`SystemStats::cycles`] never
    /// overshoots `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> SystemStats {
        let mut cycles = 0;
        while !self.is_done() && cycles < max_cycles {
            self.tick();
            cycles += 1;
            if self.is_done() {
                break;
            }
            let gap = self.quiet_gap().min(max_cycles - cycles);
            if gap > 0 {
                self.mc.advance_to(self.mc.now() + gap);
                for core in &mut self.cores {
                    core.skip(gap);
                }
                cycles += gap;
            }
        }
        SystemStats {
            cycles,
            retired: self.cores.iter().map(Core::retired).collect(),
            mem: *self.mc.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LINE_BYTES;
    use crate::trace::zero_fill_trace;

    fn small_system(traces: Vec<Vec<TraceOp>>) -> System {
        let mut s = System::new(
            DramGeometry::module_mib(64),
            TimingParams::ddr3_1600_11(),
            traces,
        );
        s.controller_mut().set_refresh_enabled(false);
        s
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut s = small_system(vec![vec![]]);
        let stats = s.run(1000);
        assert!(s.is_done());
        assert!(stats.cycles < 5);
    }

    #[test]
    fn zero_fill_writes_every_line_to_dram() {
        let lines = 32u64;
        let trace = zero_fill_trace(0, lines * LINE_BYTES);
        let mut s = small_system(vec![trace]);
        let stats = s.run(1_000_000);
        assert!(s.is_done());
        // Every line: one fill read (write-allocate) + one flush write.
        assert_eq!(stats.mem.writes, lines);
        assert_eq!(stats.mem.reads, lines);
    }

    #[test]
    fn two_cores_make_progress_together() {
        let t1 = vec![TraceOp::Read(0), TraceOp::Bubble(10)];
        let t2 = vec![TraceOp::Read(1024 * 1024), TraceOp::Bubble(10)];
        let mut s = small_system(vec![t1, t2]);
        let stats = s.run(100_000);
        assert!(s.is_done());
        assert_eq!(stats.retired, vec![11, 11]);
        assert_eq!(stats.mem.reads, 2);
    }

    #[test]
    fn memory_bound_trace_is_slower_than_compute_bound() {
        // Strided reads (one per line, distinct rows) vs pure bubbles.
        let mut strided = Vec::new();
        for i in 0..64u64 {
            strided.push(TraceOp::Read(i * DramGeometry::ROW_BYTES * 8));
        }
        let mut s1 = small_system(vec![strided]);
        let mem_stats = s1.run(10_000_000);
        let mut s2 = small_system(vec![vec![TraceOp::Bubble(64)]]);
        let cpu_stats = s2.run(10_000_000);
        assert!(mem_stats.cycles > cpu_stats.cycles * 5);
    }

    /// The old engine, cycle by cycle: the reference the event-driven
    /// `run` must match bit-for-bit. Cores tick directly and the
    /// controller runs through its horizon-free reference driver, so
    /// neither a `quiet_cycles` nor a `next_event_cycle` bug can cancel
    /// out of the comparison.
    fn run_ticked(s: &mut System, max_cycles: u64) -> SystemStats {
        let mut cycles = 0;
        while !s.is_done() && cycles < max_cycles {
            s.tick_with(true);
            cycles += 1;
        }
        SystemStats {
            cycles,
            retired: s.cores.iter().map(Core::retired).collect(),
            mem: *s.mc.stats(),
        }
    }

    #[test]
    fn event_run_is_bit_identical_to_ticked_run() {
        let mk = |refresh: bool| {
            let mut t1 = vec![TraceOp::Bubble(40)];
            for i in 0..24u64 {
                t1.push(TraceOp::Read(i * DramGeometry::ROW_BYTES * 8));
                t1.push(TraceOp::Bubble(7));
            }
            let t2 = zero_fill_trace(1 << 20, 24 * LINE_BYTES);
            let mut s = System::new(
                DramGeometry::module_mib(64),
                TimingParams::ddr3_1600_11(),
                vec![t1, t2],
            );
            s.controller_mut().set_refresh_enabled(refresh);
            s
        };
        for refresh in [false, true] {
            for max_cycles in [u64::MAX, 777] {
                let reference = run_ticked(&mut mk(refresh), max_cycles);
                let event = mk(refresh).run(max_cycles);
                assert_eq!(reference, event, "refresh={refresh} max={max_cycles}");
            }
        }
    }

    #[test]
    fn run_stops_exactly_at_max_cycles_without_overshoot() {
        // A memory-bound trace nowhere near finished at the cutoff: the
        // quiet-gap jumps must clamp to the cycle budget.
        let mut trace = Vec::new();
        for i in 0..64u64 {
            trace.push(TraceOp::Read(i * DramGeometry::ROW_BYTES * 8));
        }
        let mut s = small_system(vec![trace]);
        let stats = s.run(777);
        assert!(!s.is_done(), "cutoff must hit mid-run");
        assert_eq!(stats.cycles, 777, "no overshoot under event jumps");
    }

    #[test]
    fn elapsed_ns_scales_with_clock() {
        let stats = SystemStats {
            cycles: 800,
            retired: vec![],
            mem: MemStats::default(),
        };
        assert!((stats.elapsed_ns(&TimingParams::ddr3_1600_11()) - 1000.0).abs() < 1e-9);
    }
}
