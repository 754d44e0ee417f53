//! Workload plumbing shared by the three workloads: input generation,
//! closed-loop clients, latency summaries and host facts.

use std::time::{Duration, Instant};

use crate::trace::{self, ThreadLog};

/// Number of client threads every workload runs.
pub const CLIENTS: usize = 2;

/// SplitMix64: cheap, seedable input generator. The program's own DRBG is
/// never used for inputs, so the inputs cost the clients almost nothing.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Deterministic content of `len` bytes for a version tag: the model keeps
/// only the tag of each block's last acknowledged write.
pub fn content(tag: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut r = Rng::new(tag);
    while out.len() < len {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A fresh tag for a write by `client` — unique across the run.
pub fn fresh_tag(client: usize, counter: &mut u64) -> u64 {
    *counter += 1;
    ((client as u64 + 1) << 48) | *counter
}

/// Zipf(θ) over `0..n`, ranks mapped through a seeded permutation so the
/// hot items are scattered rather than the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self {
            cdf,
            perm: rng.permutation(n),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// Segments a timed phase is cut into. Throughput is computed per segment
/// and latency quantiles per block of segments, and the median over them is
/// reported, so a burst of host noise moves one of them, not the result.
pub const WINDOWS: usize = 10;
/// Samples a latency block needs so that its p99 has ten samples beyond it.
const MIN_BLOCK: usize = 1000;

/// Latency samples of one operation type, ns.
#[derive(Default)]
pub struct Lat(pub Vec<u32>);

impl Lat {
    /// Time one call; while tracing, also check it held exactly one root
    /// span no longer than the call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let spans_before = trace::tracing().then(trace::closed_spans);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.0.push(ns);
        if let Some(before) = spans_before {
            trace::check_timed_call(before, u64::from(ns));
        }
        out
    }
}

/// The p50 and p99 of one operation type over a phase, in bounded memory:
/// segments are pooled, in order, into blocks of at least 1000 samples; each
/// block's nearest-rank quantiles are kept and its samples dropped (except
/// the last block's, which absorbs a short remainder). Samples kept for the
/// whole run would make the benchmark's memory, and so `peak_rss_mib`, grow
/// with the program's speed.
#[derive(Default)]
pub struct Quantiles {
    blocks: Vec<[u32; 2]>,
    last: Vec<u32>,
    carry: Vec<u32>,
    count: usize,
}

impl Quantiles {
    fn add(&mut self, samples: Vec<u32>) {
        self.count += samples.len();
        self.carry.extend(samples);
        if self.carry.len() >= MIN_BLOCK {
            self.last = std::mem::take(&mut self.carry);
            self.last.sort_unstable();
            self.blocks.push(Self::block(&self.last));
        }
    }

    fn finish(&mut self) {
        if self.carry.is_empty() {
            return;
        }
        if !self.blocks.is_empty() {
            self.blocks.pop();
        }
        self.last.append(&mut self.carry);
        self.last.sort_unstable();
        self.blocks.push(Self::block(&self.last));
    }

    fn block(sorted: &[u32]) -> [u32; 2] {
        [nearest_rank(sorted, 0.5), nearest_rank(sorted, 0.99)]
    }

    fn median_us(&self, i: usize) -> f64 {
        median(self.blocks.iter().map(|b| f64::from(b[i]) / 1e3).collect())
    }

    pub fn p50_us(&self) -> f64 {
        self.median_us(0)
    }

    pub fn p99_us(&self) -> f64 {
        self.median_us(1)
    }

    pub fn len(&self) -> usize {
        self.count
    }
}

/// Nearest-rank quantile of sorted values (0 when empty).
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a small set of measurements.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-thread `(on-CPU ns, runqueue ns)` from the scheduler.
fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Off-CPU time of one client over its timed phase, split into waiting
/// (blocked) and runnable-but-not-running (runqueue).
#[derive(Clone, Copy, Default)]
pub struct OffCpu {
    pub wall_ns: u64,
    pub blocked_ns: u64,
    pub runqueue_ns: u64,
}

/// What one client thread hands back at the end of a segment.
pub struct ClientOut {
    pub tally: Tally,
    pub log: ThreadLog,
    pub off_cpu: OffCpu,
}

/// Run `CLIENTS` closed-loop clients for `dur`; each calls `body(client,
/// deadline)` once and loops inside it until the deadline passes.
pub fn run_clients(
    dur: Duration,
    record_writes: bool,
    body: impl Fn(usize, Instant) -> Tally + Sync,
) -> Segment {
    let start_ns = trace::now_ns();
    let deadline = Instant::now() + dur;
    trace::set_timed(true);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let body = &body;
                scope.spawn(move || {
                    trace::enter_client(record_writes);
                    let _ = trace::take_thread_log();
                    let t0 = Instant::now();
                    let s0 = schedstat();
                    let tally = body(c, deadline);
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    let off_cpu = match (s0, schedstat()) {
                        (Some((cpu0, rq0)), Some((cpu1, rq1))) => {
                            let runqueue_ns = rq1.saturating_sub(rq0);
                            let off = wall_ns.saturating_sub(cpu1.saturating_sub(cpu0));
                            OffCpu {
                                wall_ns,
                                blocked_ns: off.saturating_sub(runqueue_ns),
                                runqueue_ns,
                            }
                        }
                        _ => OffCpu {
                            wall_ns,
                            ..OffCpu::default()
                        },
                    };
                    ClientOut {
                        tally,
                        log: trace::take_thread_log(),
                        off_cpu,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    trace::set_timed(false);
    (outs, (start_ns, trace::now_ns()))
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host facts printed with every result: CPU model and crypto-relevant
/// flags, core count and the crypto backends the program selected.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .replace('"', "'");
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .map(|f| f.split_whitespace().collect())
        .unwrap_or_default();
    let has = |f: &str| flags.contains(&f);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\":\"{model}\",\"aes\":{},\"sha_ni\":{},\"avx2\":{},\"vaes\":{},\"cores\":{cores},\"aes_backend\":\"{}\",\"sha256_backend\":\"{}\"}}",
        has("aes"),
        has("sha_ni"),
        has("avx2"),
        has("vaes"),
        stegfs_crypto::backend_name(),
        stegfs_crypto::sha256_backend_name(),
    )
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
            .value
    }

    /// Overwrite a metric of the template; an unknown name is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"))
            .value = value;
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Ratio that reads 0 rather than NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-client counts of one timed segment.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub user_read_bytes: u64,
    pub user_write_bytes: u64,
    pub reads: Lat,
    pub writes: Lat,
    pub logins: Lat,
    /// Timed only so the traced run can check the calls' spans; no metric.
    pub logouts: Lat,
}

impl Tally {
    /// Count one operation; `ok` is false on an error or wrong bytes.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_error.is_none() {
                self.first_error = Some(what());
            }
        }
    }
}

/// One segment's client results and its start and end on the trace clock.
pub type Segment = (Vec<ClientOut>, (u64, u64));

/// Run a timed phase of `dur` as [`WINDOWS`] segments; `between` runs after
/// each segment, while no client is active. Slow-moving host noise then
/// touches every kind of sample alike, and the per-segment medians absorb
/// bursts.
pub fn segmented(
    dur: Duration,
    record_writes: bool,
    body: impl Fn(usize, Instant) -> Tally + Sync,
    mut between: impl FnMut(),
) -> Phase {
    let seg = dur / WINDOWS as u32;
    let mut phase = Phase::default();
    for _ in 0..WINDOWS {
        phase.add(run_clients(seg, record_writes, &body));
        between();
    }
    phase.finish();
    phase
}

/// The merged outcome of a timed phase.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub user_read_bytes: u64,
    pub user_write_bytes: u64,
    pub reads: Quantiles,
    pub writes: Quantiles,
    pub logins: Quantiles,
    pub io: trace::IoTally,
    pub logs: Vec<ThreadLog>,
    pub off_cpu: Vec<OffCpu>,
    /// Operations and nanoseconds of each segment.
    pub segments: Vec<(u64, u64)>,
}

impl Phase {
    /// Fold in one segment's client results.
    pub fn add(&mut self, (outs, (start_ns, end_ns)): Segment) {
        let mut ops = 0;
        let (mut reads, mut writes, mut logins) = (Vec::new(), Vec::new(), Vec::new());
        for o in outs {
            let t = o.tally;
            ops += t.attempted;
            self.attempted += t.attempted;
            self.failed += t.failed;
            if self.first_error.is_none() {
                self.first_error = t.first_error;
            }
            self.user_read_bytes += t.user_read_bytes;
            self.user_write_bytes += t.user_write_bytes;
            reads.extend(t.reads.0);
            writes.extend(t.writes.0);
            logins.extend(t.logins.0);
            self.io.add(&o.log.io);
            self.logs.push(o.log);
            self.off_cpu.push(o.off_cpu);
        }
        self.reads.add(reads);
        self.writes.add(writes);
        self.logins.add(logins);
        self.segments.push((ops, end_ns - start_ns));
    }

    /// Close the latency blocks once every segment is in.
    pub fn finish(&mut self) {
        self.reads.finish();
        self.writes.finish();
        self.logins.finish();
    }

    /// Median over the segments of operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        median(
            self.segments
                .iter()
                .map(|&(ops, ns)| ratio(ops as f64, ns as f64 / 1e9))
                .collect(),
        )
    }
}
