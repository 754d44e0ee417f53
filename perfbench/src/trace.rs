//! Per-thread I/O accounting and the benchmark's span recorder.
//!
//! Every device the benchmark hands to a layer is a [`Dev`]: a
//! [`BlockDevice`] wrapper owned by the benchmark. It always counts the
//! blocks and bytes its calling thread moves (the amplification metrics need
//! them on every run), and, while tracing is on, times each call as a child
//! span of the root span open on the calling thread.
//!
//! Root spans are opened by the benchmark around every call it makes into a
//! layer ([`span`]). Attribution runs through thread-local state: every layer
//! issues its device I/O on the caller's thread, so a device call belongs to
//! the root span open on its own thread. Device calls that no root span can
//! claim are counted as unattributed, so the attribution can be checked.
//!
//! Spans stay in memory until the run ends; [`write_spans`] dumps them.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use stegfs_blockdev::{BlockDevice, BlockId, DeviceError};

/// Whether device calls are timed as child spans.
static TRACING: AtomicBool = AtomicBool::new(false);
/// Whether the timed client phase is running.
static TIMED: AtomicBool = AtomicBool::new(false);
/// Device calls made during the timed phase by a thread that is not a
/// client, or by a client outside any root span while tracing.
static UNATTRIBUTED: AtomicU64 = AtomicU64::new(0);

/// Histogram bins of the device write positions a client records.
pub const WRITE_BINS: usize = 64;

/// Nanoseconds since the first call, on one clock for every thread.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub fn set_timed(on: bool) {
    TIMED.store(on, Ordering::SeqCst);
}

pub fn unattributed_device_calls() -> u64 {
    UNATTRIBUTED.load(Ordering::SeqCst)
}

/// Which device of a workload a call went to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// The volume of the agent or resilience tier.
    Volume = 0,
    /// The oblivious store's level partition.
    Level = 1,
    /// The oblivious store's sort partition.
    Sort = 2,
}
pub const TAGS: usize = 3;

/// Root span types: one per public call the benchmark makes into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CoreOpenFile,
    CoreReadBlock,
    CoreUpdateBlock,
    ObliviousRead,
    ObliviousWrite,
    ResilienceReadFile,
    ResilienceWriteBlock,
    RegistryGet,
    RegistryPut,
    ResilienceOpen,
}

pub const KINDS: [Kind; 10] = [
    Kind::CoreOpenFile,
    Kind::CoreReadBlock,
    Kind::CoreUpdateBlock,
    Kind::ObliviousRead,
    Kind::ObliviousWrite,
    Kind::ResilienceReadFile,
    Kind::ResilienceWriteBlock,
    Kind::RegistryGet,
    Kind::RegistryPut,
    Kind::ResilienceOpen,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::CoreOpenFile => "core.open_file",
            Kind::CoreReadBlock => "core.read_block",
            Kind::CoreUpdateBlock => "core.update_block",
            Kind::ObliviousRead => "oblivious.read",
            Kind::ObliviousWrite => "oblivious.write",
            Kind::ResilienceReadFile => "resilience.read_file",
            Kind::ResilienceWriteBlock => "resilience.write_block",
            Kind::RegistryGet => "registry.get",
            Kind::RegistryPut => "registry.put",
            Kind::ResilienceOpen => "resilience.open",
        }
    }
}

/// A finished root span with the sums of its device children.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub device_ns: u64,
    pub device_calls: u32,
    pub device_blocks: u32,
    /// Index of the first child in the thread's child list.
    pub first_child: usize,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One device call made inside a root span.
#[derive(Clone, Copy, Debug)]
pub struct ChildRec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub blocks: u32,
    pub tag: Tag,
}

/// Bytes moved by one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoTally {
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl IoTally {
    pub fn add(&mut self, o: &IoTally) {
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
    }
}

/// Everything one thread recorded.
pub struct ThreadLog {
    pub io: IoTally,
    /// Writes per equal-width bin of the device, by first block, when
    /// recording is on. A histogram rather than the positions, so the
    /// benchmark's memory does not grow with the program's speed.
    pub write_bins: [u64; WRITE_BINS],
    pub spans: Vec<SpanRec>,
    pub children: Vec<ChildRec>,
    /// Device-call time and count per [`Tag`], inside root spans.
    pub tag_ns: [u64; TAGS],
    pub tag_calls: [u64; TAGS],
    /// Timed calls checked against the span they should hold.
    pub checked_calls: u64,
    /// Timed calls that did not hold exactly one root span no longer than
    /// the call, plus root spans opened inside another.
    pub check_failures: u64,
}

impl Default for ThreadLog {
    fn default() -> Self {
        Self {
            io: IoTally::default(),
            write_bins: [0; WRITE_BINS],
            spans: Vec::new(),
            children: Vec::new(),
            tag_ns: [0; TAGS],
            tag_calls: [0; TAGS],
            checked_calls: 0,
            check_failures: 0,
        }
    }
}

#[derive(Default)]
struct ThreadState {
    client: bool,
    record_writes: bool,
    open: Option<SpanRec>,
    log: ThreadLog,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Mark the calling thread as a client (its timed-phase device calls are
/// expected) and choose whether its write positions are kept.
pub fn enter_client(record_writes: bool) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.client = true;
        s.record_writes = record_writes;
    });
}

/// Take and reset everything the calling thread recorded.
pub fn take_thread_log() -> ThreadLog {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().log))
}

/// Run `f` as a root span of `kind` when tracing is on; plain call otherwise.
/// A span opened inside another is not recorded but counted as a check
/// failure.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let nested = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.open.is_some() {
            s.log.check_failures += 1;
            return true;
        }
        let first_child = s.log.children.len();
        s.open = Some(SpanRec {
            kind,
            start_ns: now_ns(),
            end_ns: 0,
            device_ns: 0,
            device_calls: 0,
            device_blocks: 0,
            first_child,
        });
        false
    });
    if nested {
        return f();
    }
    let out = f();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let mut rec = s.open.take().expect("root span open");
        rec.end_ns = now_ns();
        s.log.spans.push(rec);
    });
    out
}

/// Number of root spans the calling thread has closed so far.
pub fn closed_spans() -> usize {
    STATE.with(|s| s.borrow().log.spans.len())
}

/// Check a timed call against the spans it held, measured apart from them:
/// while tracing, every timed call wraps exactly one root span, and that
/// span cannot outlast the call. `spans_before` is [`closed_spans`] before
/// the call, `call_ns` the call's own timing.
pub fn check_timed_call(spans_before: usize, call_ns: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let log = &mut s.log;
        log.checked_calls += 1;
        let one = log.spans.len() == spans_before + 1;
        if !(one && log.spans[spans_before].dur_ns() <= call_ns) {
            log.check_failures += 1;
        }
    });
}

/// The benchmark's device wrapper: counts and (when tracing) times every
/// call, then forwards it unchanged, ranged calls as ranged calls.
pub struct Dev<D> {
    inner: D,
    tag: Tag,
}

impl<D> Dev<D> {
    pub fn new(inner: D, tag: Tag) -> Self {
        Self { inner, tag }
    }
}

impl<D: BlockDevice> Dev<D> {
    /// Account one device call moving `bytes` from block `first` on.
    #[inline]
    fn call<R>(&self, write: bool, first: BlockId, bytes: usize, call: impl FnOnce() -> R) -> R {
        let (tag, device_blocks) = (self.tag, self.inner.num_blocks());
        let blocks = (bytes / self.inner.block_size()) as u32;
        let traced = STATE.with(|s| {
            let mut s = s.borrow_mut();
            let io = &mut s.log.io;
            if write {
                io.write_bytes += bytes as u64;
            } else {
                io.read_bytes += bytes as u64;
            }
            if write && s.record_writes {
                let bin = first.min(device_blocks - 1) * WRITE_BINS as u64 / device_blocks;
                s.log.write_bins[bin as usize] += 1;
            }
            let expected = s.client && (s.open.is_some() || !tracing());
            if TIMED.load(Ordering::Relaxed) && !expected {
                UNATTRIBUTED.fetch_add(1, Ordering::Relaxed);
            }
            tracing() && s.open.is_some()
        });
        if !traced {
            return call();
        }
        let start_ns = now_ns();
        let out = call();
        let end_ns = now_ns();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.open.as_mut().expect("checked above");
            open.device_ns += end_ns - start_ns;
            open.device_calls += 1;
            open.device_blocks += blocks;
            s.log.tag_ns[tag as usize] += end_ns - start_ns;
            s.log.tag_calls[tag as usize] += 1;
            s.log.children.push(ChildRec {
                start_ns,
                end_ns,
                blocks,
                tag,
            });
        });
        out
    }
}

impl<D: BlockDevice> BlockDevice for Dev<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.call(false, block, buf.len(), || {
            self.inner.read_block(block, buf)
        })
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.call(true, block, buf.len(), || {
            self.inner.write_block(block, buf)
        })
    }

    fn read_blocks(&self, start: BlockId, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.call(false, start, buf.len(), || {
            self.inner.read_blocks(start, buf)
        })
    }

    fn write_blocks(&self, start: BlockId, buf: &[u8]) -> Result<(), DeviceError> {
        self.call(true, start, buf.len(), || {
            self.inner.write_blocks(start, buf)
        })
    }

    fn sync(&self) -> Result<(), DeviceError> {
        self.inner.sync()
    }
}

/// Failures of the traced-run self-check over the logs of client segments
/// (`logs[i]` ran for `wall_ns[i]`) and of other threads (the rest).
///
/// Self time is the span minus its device children, so self plus device
/// time equals span time by construction. What is checked is the spans
/// against what the benchmark measures apart from them: every root span
/// sits in exactly one timed call and no timed call misses its span
/// ([`check_timed_call`]), no span is opened inside another, and a client's
/// spans, and so its device time, add up to no more than its wall time.
pub fn self_check(logs: &[ThreadLog], wall_ns: &[u64]) -> u64 {
    let mut bad = 0;
    for (i, log) in logs.iter().enumerate() {
        bad += log.check_failures;
        if log.checked_calls != log.spans.len() as u64 {
            bad += 1;
        }
        if let Some(&wall) = wall_ns.get(i) {
            let span_ns: u64 = log.spans.iter().map(SpanRec::dur_ns).sum();
            if span_ns > wall {
                bad += 1;
            }
        }
    }
    bad
}

/// Write every span with its device children as JSON lines to `path`:
/// thread, span type, start and end on the trace clock (ns), and each child
/// as `[device tag, start offset, duration, blocks]`, offsets and durations
/// in ns from the span's start.
pub fn write_spans(path: &std::path::Path, logs: &[ThreadLog]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let end_child = log
                .spans
                .get(i + 1)
                .map_or(log.children.len(), |next| next.first_child);
            write!(
                out,
                "{{\"thread\":{thread},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"children\":[",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
            )?;
            for (j, c) in log.children[s.first_child..end_child].iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                write!(
                    out,
                    "{sep}[{},{},{},{}]",
                    c.tag as u8,
                    c.start_ns - s.start_ns,
                    c.end_ns - c.start_ns,
                    c.blocks
                )?;
            }
            writeln!(out, "]}}")?;
        }
    }
    out.flush()
}
