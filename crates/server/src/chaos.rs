//! A deterministic, seeded chaos transport: the wire-level twin of the
//! device layer's `FaultPlan`.
//!
//! [`ChaosPlan`] describes what goes wrong on a connection — byte
//! corruption, a hard mid-frame cut, short reads/writes, stalls — and
//! [`wrap`] applies it around the two halves of a real stream. All
//! chaos is driven by splitmix64 rolls keyed on the **absolute byte
//! offset** of each direction's stream, so the damage is a pure
//! function of `(seed, offset)`: independent of timing, buffering, or
//! how the bytes happened to be sliced into read/write calls. That is
//! what lets the end-to-end suite pin *exact* session checksums while
//! the transport is actively lying, cutting, and stalling.
//!
//! A cut is byte-exact: the transfer that crosses `cut_after` combined
//! bytes is truncated at the boundary, the underlying transport is
//! severed ([`Severable`]), and every later call fails with
//! [`io::ErrorKind::ConnectionReset`] — exactly the mid-frame kill a
//! yanked cable or an OOM-killed peer produces.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// splitmix64 — the same generator the fault layer and the fuzz
/// campaigns use; the server mints its session tokens with it too.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Direction salts: the two byte streams of one connection roll
/// independently.
const DIR_READ: u64 = 0x5eed_0000_0000_0001;
const DIR_WRITE: u64 = 0x5eed_0000_0000_0002;
/// Salt separating the per-call stall roll from the per-byte
/// corruption roll.
const STALL_SALT: u64 = 0x57a1_1000_0000_0000;

/// A seeded description of everything this transport does to a
/// connection. `ChaosPlan::new(seed)` is a perfectly honest transport;
/// each `with_*` builder arms one failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for every roll this plan makes.
    pub seed: u64,
    /// Per-64 KiB odds that any given transferred byte is overwritten
    /// with a seeded value (0 = off). Rolled per absolute byte offset,
    /// per direction.
    pub corrupt_per_64k: u32,
    /// Hard-cut the connection once this many bytes (both directions
    /// combined) have moved; the crossing transfer is truncated at the
    /// exact boundary (0 = never).
    pub cut_after: u64,
    /// Largest transfer per read/write call (0 = unlimited): forces the
    /// short-I/O paths that vectored writes and incremental readers
    /// must survive.
    pub max_io_chunk: usize,
    /// Per-64 KiB odds that an I/O call stalls ~1 ms first (0 = off).
    /// Stalls only burn host time — they can never change what any
    /// checksum sees.
    pub stall_per_64k: u32,
}

impl ChaosPlan {
    /// An honest transport with `seed`; arm failure modes with the
    /// `with_*` builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            corrupt_per_64k: 0,
            cut_after: 0,
            max_io_chunk: 0,
            stall_per_64k: 0,
        }
    }

    /// Arms per-byte corruption at `per_64k` / 65536 odds per byte.
    #[must_use]
    pub fn with_corruption(mut self, per_64k: u32) -> Self {
        self.corrupt_per_64k = per_64k;
        self
    }

    /// Arms the hard cut after `bytes` combined transferred bytes.
    #[must_use]
    pub fn with_cut_after(mut self, bytes: u64) -> Self {
        self.cut_after = bytes;
        self
    }

    /// Caps every read/write call at `chunk` bytes.
    #[must_use]
    pub fn with_short_io(mut self, chunk: usize) -> Self {
        self.max_io_chunk = chunk;
        self
    }

    /// Arms ~1 ms stalls at `per_64k` / 65536 odds per I/O call.
    #[must_use]
    pub fn with_stalls(mut self, per_64k: u32) -> Self {
        self.stall_per_64k = per_64k;
        self
    }

    /// The plan for reconnection `attempt` (0 = the first connection):
    /// same failure modes, independently seeded rolls — so a resumed
    /// connection sees *different* damage, not a replay of the same
    /// bytes dying the same way forever.
    #[must_use]
    pub fn for_attempt(&self, attempt: u32) -> Self {
        ChaosPlan {
            seed: mix64(self.seed ^ (u64::from(attempt).wrapping_add(1) << 32)),
            ..*self
        }
    }

    /// The corruption roll for the byte at `offset` of direction
    /// `dir`: `Some(value)` overwrites the byte.
    fn corrupt_at(&self, dir: u64, offset: u64) -> Option<u8> {
        if self.corrupt_per_64k == 0 {
            return None;
        }
        let roll = mix64(self.seed ^ dir ^ offset);
        (roll % 65_536 < u64::from(self.corrupt_per_64k)).then_some((roll >> 32) as u8)
    }

    /// The stall roll for the I/O call whose first byte is `offset`.
    fn stalls_at(&self, dir: u64, offset: u64) -> bool {
        self.stall_per_64k != 0
            && mix64(self.seed ^ dir ^ offset ^ STALL_SALT) % 65_536 < u64::from(self.stall_per_64k)
    }
}

/// A transport the chaos layer can hard-cut mid-frame, both directions
/// at once — the moral equivalent of yanking the cable.
pub trait Severable {
    /// Cuts the underlying transport; later I/O on either half fails.
    fn sever(&self);
}

impl Severable for UnixStream {
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Severable for TcpStream {
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl<T: Severable + ?Sized> Severable for &T {
    fn sever(&self) {
        (**self).sever();
    }
}

impl<T: Severable + ?Sized> Severable for &mut T {
    fn sever(&self) {
        (**self).sever();
    }
}

/// Shared per-connection chaos state: both halves count into the same
/// cut budget, each direction keeps its own byte offset.
#[derive(Debug)]
struct ChaosState {
    plan: ChaosPlan,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    total_bytes: AtomicU64,
    cut: AtomicBool,
}

impl ChaosState {
    fn reset_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos transport cut")
    }

    /// How many of `want` bytes may still move before the cut, erroring
    /// once the budget is spent. `None` = unlimited.
    fn budget(&self, want: usize) -> io::Result<usize> {
        if self.cut.load(Ordering::Relaxed) {
            return Err(Self::reset_error());
        }
        if self.plan.cut_after == 0 {
            return Ok(want);
        }
        let left = self
            .plan
            .cut_after
            .saturating_sub(self.total_bytes.load(Ordering::Relaxed));
        if left == 0 {
            self.cut.store(true, Ordering::Relaxed);
            return Err(Self::reset_error());
        }
        Ok(want.min(usize::try_from(left).unwrap_or(usize::MAX)))
    }

    /// Accounts `n` moved bytes against the cut budget; returns true
    /// when the budget just ran out and the transport must be severed.
    fn account(&self, n: usize) -> bool {
        let total = self.total_bytes.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        if self.plan.cut_after != 0 && total >= self.plan.cut_after {
            self.cut.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// The read half of a chaos-wrapped connection.
#[derive(Debug)]
pub struct ChaosReader<S> {
    inner: S,
    state: Arc<ChaosState>,
}

/// The write half of a chaos-wrapped connection.
#[derive(Debug)]
pub struct ChaosWriter<S> {
    inner: S,
    state: Arc<ChaosState>,
    /// Scratch for the corrupted copy of an outgoing chunk.
    scratch: Vec<u8>,
}

/// Wraps the two halves of one connection in `plan`'s chaos. The halves
/// share one cut budget (combined bytes, either direction) and keep
/// independent corruption offsets.
pub fn wrap<R, W>(read_half: R, write_half: W, plan: ChaosPlan) -> (ChaosReader<R>, ChaosWriter<W>)
where
    R: Read + Severable,
    W: Write + Severable,
{
    let state = Arc::new(ChaosState {
        plan,
        read_bytes: AtomicU64::new(0),
        write_bytes: AtomicU64::new(0),
        total_bytes: AtomicU64::new(0),
        cut: AtomicBool::new(false),
    });
    (
        ChaosReader {
            inner: read_half,
            state: Arc::clone(&state),
        },
        ChaosWriter {
            inner: write_half,
            state,
            scratch: Vec::new(),
        },
    )
}

/// [`wrap`] for a [`UnixStream`]: clones the stream into its two
/// chaos-wrapped halves.
///
/// # Errors
///
/// Propagates the `try_clone` failure.
pub fn wrap_unix(
    stream: UnixStream,
    plan: ChaosPlan,
) -> io::Result<(ChaosReader<UnixStream>, ChaosWriter<UnixStream>)> {
    let read_half = stream.try_clone()?;
    Ok(wrap(read_half, stream, plan))
}

/// [`wrap`] for a [`TcpStream`]: clones the stream into its two
/// chaos-wrapped halves. Cuts shut down both directions, so the chaos
/// plan behaves identically over TCP and Unix sockets.
///
/// # Errors
///
/// Propagates the `try_clone` failure.
pub fn wrap_tcp(
    stream: TcpStream,
    plan: ChaosPlan,
) -> io::Result<(ChaosReader<TcpStream>, ChaosWriter<TcpStream>)> {
    let read_half = stream.try_clone()?;
    Ok(wrap(read_half, stream, plan))
}

impl<S: Read + Severable> Read for ChaosReader<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let plan = self.state.plan;
        let mut want = self.state.budget(buf.len())?;
        if plan.max_io_chunk != 0 {
            want = want.min(plan.max_io_chunk);
        }
        let offset = self.state.read_bytes.load(Ordering::Relaxed);
        if plan.stalls_at(DIR_READ, offset) {
            thread::sleep(Duration::from_millis(1));
        }
        let n = self.inner.read(&mut buf[..want])?;
        self.state.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        for (i, byte) in buf[..n].iter_mut().enumerate() {
            if let Some(value) = plan.corrupt_at(DIR_READ, offset + i as u64) {
                *byte = value;
            }
        }
        if self.state.account(n) {
            self.inner.sever();
        }
        Ok(n)
    }
}

impl<S: Write + Severable> Write for ChaosWriter<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let plan = self.state.plan;
        let mut want = self.state.budget(buf.len())?;
        if plan.max_io_chunk != 0 {
            want = want.min(plan.max_io_chunk);
        }
        let offset = self.state.write_bytes.load(Ordering::Relaxed);
        if plan.stalls_at(DIR_WRITE, offset) {
            thread::sleep(Duration::from_millis(1));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&buf[..want]);
        for (i, byte) in self.scratch.iter_mut().enumerate() {
            if let Some(value) = plan.corrupt_at(DIR_WRITE, offset + i as u64) {
                *byte = value;
            }
        }
        let n = self.inner.write(&self.scratch)?;
        self.state
            .write_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        if self.state.account(n) {
            let _ = self.inner.flush();
            self.inner.sever();
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.cut.load(Ordering::Relaxed) {
            return Err(ChaosState::reset_error());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory severable pipe half for unit tests.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Severable for Sink {
        fn sever(&self) {}
    }

    struct Source<'a>(&'a [u8]);
    impl Read for Source<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    impl Severable for Source<'_> {
        fn sever(&self) {}
    }

    fn write_all_chunks<W: Write>(w: &mut W, data: &[u8]) -> io::Result<()> {
        let mut rest = data;
        while !rest.is_empty() {
            let n = w.write(rest)?;
            assert!(n > 0, "chaos writer made no progress");
            rest = &rest[n..];
        }
        Ok(())
    }

    #[test]
    fn corruption_is_a_pure_function_of_seed_and_offset() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let plan = ChaosPlan::new(0xc0ffee).with_corruption(3000);
        // Same plan, different call slicing: byte-identical output.
        let (mut one, mut two) = (Sink::default(), Sink::default());
        {
            let (_, mut w) = wrap(Source(&[]), &mut one, plan);
            write_all_chunks(&mut w, &data).unwrap();
        }
        {
            let (_, mut w) = wrap(Source(&[]), &mut two, plan.with_short_io(7));
            write_all_chunks(&mut w, &data).unwrap();
        }
        assert_eq!(one.0, two.0, "slicing changed the corruption pattern");
        assert_ne!(one.0, data, "3000/64k over 4 KiB corrupted nothing");
        // A different seed damages different bytes.
        let mut three = Sink::default();
        {
            let (_, mut w) = wrap(
                Source(&[]),
                &mut three,
                ChaosPlan::new(1).with_corruption(3000),
            );
            write_all_chunks(&mut w, &data).unwrap();
        }
        assert_ne!(one.0, three.0);
        // The read direction rolls independently but just as purely.
        let mut got = vec![0u8; data.len()];
        let (mut r, _) = wrap(Source(&data), Sink::default(), plan);
        r.read_exact(&mut got).unwrap();
        assert_ne!(got, data);
        assert_ne!(got, one.0, "read and write directions share rolls");
    }

    #[test]
    fn cuts_are_byte_exact_and_final() {
        let data = vec![0xabu8; 1000];
        let mut sink = Sink::default();
        let plan = ChaosPlan::new(7).with_cut_after(321);
        {
            let (_, mut w) = wrap(Source(&[]), &mut sink, plan);
            let mut written = 0usize;
            let err = loop {
                match w.write(&data[written..]) {
                    Ok(n) => written += n,
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            assert_eq!(written, 321, "the cut truncated at the exact byte");
            // Severed means severed: reads die too, flush dies.
            assert_eq!(
                w.flush().unwrap_err().kind(),
                io::ErrorKind::ConnectionReset
            );
        }
        assert_eq!(sink.0.len(), 321);
        // The cut budget is shared: reads spend it as well.
        let payload = vec![1u8; 100];
        let (mut r, mut w) = wrap(
            Source(&payload),
            Sink::default(),
            ChaosPlan::new(7).with_cut_after(60),
        );
        let mut buf = vec![0u8; 50];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(
            w.write(&[0u8; 50]).unwrap(),
            10,
            "write got the 10 remaining budget bytes"
        );
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn short_io_chunks_and_stalls_never_change_the_bytes() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 13 % 256) as u8).collect();
        let plan = ChaosPlan::new(99).with_short_io(3).with_stalls(800);
        let mut sink = Sink::default();
        {
            let (_, mut w) = wrap(Source(&[]), &mut sink, plan);
            write_all_chunks(&mut w, &data).unwrap();
        }
        assert_eq!(sink.0, data, "short I/O and stalls must be lossless");
        let (mut r, _) = wrap(Source(&data), Sink::default(), plan);
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn tcp_cuts_sever_both_directions_of_the_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let (mut r, mut w) = wrap_tcp(client, ChaosPlan::new(5).with_cut_after(8)).unwrap();
        peer.write_all(&[7u8; 4]).unwrap();
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [7u8; 4]);
        assert_eq!(w.write(&[0u8; 16]).unwrap(), 4, "remaining cut budget");
        assert_eq!(
            w.write(&[0u8; 1]).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        // The sever shut the real socket down: the peer sees EOF.
        let mut tail = Vec::new();
        peer.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, [0u8; 4], "peer got exactly the pre-cut bytes");
    }

    #[test]
    fn for_attempt_reseeds_without_changing_the_failure_modes() {
        let plan = ChaosPlan::new(42)
            .with_corruption(10)
            .with_cut_after(1 << 20)
            .with_short_io(16)
            .with_stalls(5);
        let next = plan.for_attempt(1);
        assert_ne!(next.seed, plan.seed);
        assert_eq!(next.corrupt_per_64k, plan.corrupt_per_64k);
        assert_eq!(next.cut_after, plan.cut_after);
        assert_eq!(next.max_io_chunk, plan.max_io_chunk);
        assert_eq!(next.stall_per_64k, plan.stall_per_64k);
        assert_ne!(plan.for_attempt(1), plan.for_attempt(2));
        // Attempt 0 still differs from the base plan's raw seed — the
        // reconnect path always goes through for_attempt.
        assert_ne!(plan.for_attempt(0).seed, plan.seed);
    }
}
