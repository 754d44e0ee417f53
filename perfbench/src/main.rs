//! perfbench: the end-to-end benchmark of the three user-facing tiers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <agent-update|oblivious-read|resilient-session> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two closed-loop clients drive one workload over in-memory devices for
//! `--seconds`, check every read against their own last acknowledged write,
//! and check the tier's invariants afterwards. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. The line before it carries the
//! host fingerprint and the sample count of every timing. See `NOTES.md`.

mod agent;
mod harness;
mod layers;
mod oblivious;
mod resilient;
mod trace;

use std::time::{Duration, Instant};

use harness::{median, peak_rss_mib, ratio, Metrics, Phase, Quantiles};

/// How one run is carried out.
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Plan {
    /// Length of one timed phase: a traced run splits its time between an
    /// untraced and a traced phase, so the cost of tracing shows.
    pub fn phase_len(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    /// Build the workload's starting state several times (once when
    /// tracing) and keep the last; returns it with the median set-up time.
    pub fn set_up<B>(&self, build: impl Fn() -> B) -> (B, f64) {
        let repeats = if self.trace { 1 } else { SETUP_REPEATS };
        let mut times = Vec::new();
        let mut bed = None;
        for _ in 0..repeats {
            drop(bed.take());
            let t0 = Instant::now();
            bed = Some(build());
            times.push(t0.elapsed().as_secs_f64());
        }
        (bed.expect("at least one set-up"), median(times))
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What a run found: counts, broken invariants, sample sizes and metrics.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    broken: Vec<String>,
    samples: Vec<(String, usize)>,
    notes: Vec<(String, u64)>,
    metrics: Metrics,
}

impl Outcome {
    /// Add a phase's operation counts.
    pub fn count(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        if self.first_error.is_none() {
            self.first_error = p.first_error.clone();
        }
    }

    /// Record an invariant; a broken one fails the run.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.broken.push(what.to_string());
        }
    }

    pub fn samples(&mut self, what: &str, n: usize) {
        self.samples.push((what.to_string(), n));
    }

    /// A count worth seeing on every run that is not a failure.
    pub fn note(&mut self, what: &str, n: u64) {
        self.notes.push((what.to_string(), n));
    }

    pub fn finish_e2e(&mut self, (m, samples): (Metrics, Vec<(String, usize)>)) {
        self.samples.extend(samples);
        self.metrics = m;
    }

    pub fn finish_layers(&mut self, mut m: Metrics) {
        m.set(
            "failed_op_frac",
            ratio(self.failed as f64, self.attempted as f64),
        );
        m.set(
            "trace.unattributed_device_calls",
            trace::unattributed_device_calls() as f64,
        );
        self.require(
            trace::unattributed_device_calls() == 0,
            "device calls outside any root span",
        );
        self.require(
            m.get("trace.self_check_failures") == 0.0,
            "span self-check: spans disagree with the timed calls around them",
        );
        self.metrics = m;
    }
}

/// The end-to-end metrics of an untraced phase, with their sample counts.
pub fn e2e(
    p: &Phase,
    logins: &Quantiles,
    setup_s: f64,
    mount_ms: f64,
) -> (Metrics, Vec<(String, usize)>) {
    let mut m = Metrics::default();
    m.push("ops_per_s", p.ops_per_s(), "1/s");
    m.push("read_p50_us", p.reads.p50_us(), "us");
    m.push("read_p99_us", p.reads.p99_us(), "us");
    m.push("write_p50_us", p.writes.p50_us(), "us");
    m.push("write_p99_us", p.writes.p99_us(), "us");
    m.push("login_p50_us", logins.p50_us(), "us");
    m.push("login_p99_us", logins.p99_us(), "us");
    m.push("mount_ms", mount_ms, "ms");
    m.push("setup_s", setup_s, "s");
    m.push(
        "write_amp",
        ratio(p.io.write_bytes as f64, p.user_write_bytes as f64),
        "x",
    );
    m.push(
        "read_amp",
        ratio(p.io.read_bytes as f64, p.user_read_bytes as f64),
        "x",
    );
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let samples = vec![
        ("read".to_string(), p.reads.len()),
        ("write".to_string(), p.writes.len()),
        ("login".to_string(), logins.len()),
        ("setup".to_string(), SETUP_REPEATS),
    ];
    (m, samples)
}

fn parse_args() -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let plan = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match plan.workload.as_str() {
        "agent-update" => agent::run(&plan),
        "oblivious-read" => oblivious::run(&plan),
        "resilient-session" => resilient::run(&plan),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let correct = out.failed == 0 && out.broken.is_empty();
    if let Some(e) = &out.first_error {
        eprintln!("perfbench: first failed operation: {e}");
    }
    for b in &out.broken {
        eprintln!("perfbench: invariant broken: {b}");
    }
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\":{n}"))
        .collect();
    let notes: String = out
        .notes
        .iter()
        .map(|(k, n)| format!(",\"{k}\":{n}"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"samples\":{{{}}},\"failed_op_frac\":{:?},\"broken\":{}{notes}}}",
        plan.workload,
        plan.seed,
        plan.seconds,
        plan.trace,
        harness::host_fingerprint(),
        samples.join(","),
        ratio(out.failed as f64, out.attempted as f64),
        out.broken.len(),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
