//! What the benchmark does about the host it runs on: it pins a
//! one-client closed loop to a single CPU, and it reports wall-clock
//! figures at a reference host speed, measured by calibration kernels run
//! in the same process between samples.
//!
//! On a shared two-vCPU virtual machine, each benchmark process lands in
//! a fast or a slow state and stays there: across eight 10 s runs of
//! `mixed_replay` rows/s spread 26 % (quartile distance over median) and
//! set-up time 50 %, while the same runs' `bitwise_replay` rows/s spread
//! 4 %. The slow state slows memory-bound and syscall-bound code, not
//! arithmetic, so each figure is divided by the slowdown of a kernel of
//! its own kind, timed next to it: rows/s and batch latency by the
//! workload's [`Kernel`], set-up time by [`Kernel::Spawn`]. In the same
//! runs the normalised figures spread 3 % (rows/s), 2–4 % (batch p50)
//! and 4–6 % (set-up). The kernels are std-only code with no
//! dependency on the crates under test, so a change to those crates moves
//! a normalised figure exactly as it moves the raw one; the raw figures
//! are on the stamp line.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// A calibration kernel: a fixed amount of std-only work of one kind.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Fills 64 Ki pseudo-random words into a fresh allocation, sorts
    /// them, and inserts every fourth into a fresh hash map. Allocation,
    /// branchy compares and cache-bound lookups, like the scheduler's
    /// queues and maps.
    Memory,
    /// 600 k rounds of xorshift and integer division on registers, like
    /// the data plane's row fingerprints.
    Compute,
    /// Spawns a thread, makes one 64-byte round trip with it over a Unix
    /// socket pair, and joins it, like a session's set-up.
    Spawn,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Memory => "memory",
            Kernel::Compute => "compute",
            Kernel::Spawn => "spawn",
        }
    }

    /// Seconds one pass takes on the reference host. They only set the
    /// scale of the normalised figures.
    fn reference_s(self) -> f64 {
        match self {
            Kernel::Memory => 2.0e-3,
            Kernel::Compute => 2.5e-3,
            Kernel::Spawn => 30e-6,
        }
    }

    /// Times one pass and returns how much slower than the reference
    /// host it ran: above 1 on a slower host, so a rate is multiplied by
    /// it and a time divided by it.
    pub fn slowdown(self) -> Result<f64, String> {
        let started = Instant::now();
        match self {
            Kernel::Memory => memory_pass(),
            Kernel::Compute => compute_pass(),
            Kernel::Spawn => spawn_pass().map_err(|e| format!("spawn calibration: {e}"))?,
        }
        Ok(started.elapsed().as_secs_f64() / self.reference_s())
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn memory_pass() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut words: Vec<u64> = (0..65_536).map(|_| xorshift(&mut x)).collect();
    words.sort_unstable();
    let mut map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &w) in words.iter().enumerate().step_by(4) {
        map.insert(w, i);
    }
    black_box(map.len());
}

fn compute_pass() {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for i in 1..600_000u64 {
        acc = acc.wrapping_add(xorshift(&mut x) % (i | 1));
    }
    black_box(acc);
}

fn spawn_pass() -> io::Result<()> {
    let (mut here, mut there) = UnixStream::pair()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let mut buf = [0u8; 64];
        there.read_exact(&mut buf)?;
        there.write_all(&buf)
    });
    let mut buf = [1u8; 64];
    here.write_all(&buf)?;
    here.read_exact(&mut buf)?;
    echo.join()
        .map_err(|_| io::Error::other("echo thread panicked"))?
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may run on, and returns that CPU.
///
/// A one-client session never has its client and server threads busy at
/// once, so one CPU costs it no parallelism; spread over two, every batch
/// hands over through a cross-CPU wake-up, which on a virtual machine
/// costs as much as the host is loaded (500 round trips of 4 KiB over a
/// socket pair took 8.3 ms unpinned, 4.5 ms pinned). Every caller picks
/// the same CPU, so threads pinned separately share it.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    let cpu = (0..set.len() * 64)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a readable buffer.
    if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(cpu)
}
