//! The per-layer metrics of the traced run. Every workload reports the full
//! set, in this order; a layer a workload does not exercise reads 0.

use std::path::{Path, PathBuf};
use std::time::Instant;

use stegfs_base::BlockCodec;
use stegfs_crypto::{HashDrbg, Key256};

use crate::harness::{median, nearest_rank, ratio, Metrics, OffCpu, Phase};
use crate::trace::{self_check, KINDS};

/// Metrics reported besides the per-span triples, with their units.
const OTHER: [(&str, &str); 31] = [
    ("core.iterations_per_update", "count"),
    ("core.dummy_updates_per_update", "count"),
    ("core.relocation_frac", "frac"),
    ("core.write_position_kl_bits", "bits"),
    ("stegfs.map.data_frac", "frac"),
    ("crypto.seal_us", "us"),
    ("crypto.open_us", "us"),
    ("oblivious.retrieve_ios_per_read", "ios"),
    ("oblivious.sort_ios_per_read", "ios"),
    ("oblivious.reorders_per_kop", "count"),
    ("oblivious.buffer_hit_frac", "frac"),
    ("oblivious.overhead_factor", "x"),
    ("oblivious.overhead_factor_model", "x"),
    ("blockdev.level.us_per_op", "us"),
    ("blockdev.sort.us_per_op", "us"),
    ("blockdev.volume.us_per_op", "us"),
    ("resilience.reads_verified_per_read", "count"),
    ("resilience.read_check_failures", "count"),
    ("resilience.intents_per_write", "count"),
    ("resilience.remount_unrecoverable_intents", "count"),
    ("registry.get.load_frac", "frac"),
    ("registry.resident_records_peak", "count"),
    ("clients.blocked_frac", "frac"),
    ("clients.runqueue_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.self_check_failures", "count"),
    ("trace.unattributed_device_calls", "count"),
    ("trace.spans", "count"),
    ("failed_op_frac", "frac"),
    ("untraced.ops_per_s", "1/s"),
    ("traced.ops_per_s", "1/s"),
];

/// The per-layer metrics every workload fills the same way: spans, client
/// off-CPU time, codec timings at `block_size` and the cost of tracing. The
/// workload sets its own layers' counters on the result. Every span is
/// written to [`spans_path`] of `workload`.
pub fn traced(workload: &str, untraced: &Phase, traced: &Phase, block_size: usize) -> Metrics {
    let path = spans_path(workload);
    crate::trace::write_spans(&path, &traced.logs)
        .unwrap_or_else(|e| panic!("write spans to {}: {e}", path.display()));
    let mut m = template();
    spans(&mut m, traced);
    off_cpu(&mut m, &traced.off_cpu);
    crypto(&mut m, block_size);
    m.set("untraced.ops_per_s", untraced.ops_per_s());
    m.set("traced.ops_per_s", traced.ops_per_s());
    m.set(
        "trace.overhead_frac",
        1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()),
    );
    m
}

/// Every per-layer metric at 0, in report order.
fn template() -> Metrics {
    let mut m = Metrics::default();
    for kind in KINDS {
        m.push(format!("{}.self_us_p50", kind.name()), 0.0, "us");
        m.push(format!("{}.device_us_per_call", kind.name()), 0.0, "us");
        m.push(
            format!("{}.device_blocks_per_call", kind.name()),
            0.0,
            "blocks",
        );
    }
    for (name, unit) in OTHER {
        m.push(name, 0.0, unit);
    }
    m
}

/// Where a traced run of `workload` writes its spans: beside the
/// benchmark's sources, overwritten by the next traced run of the workload.
pub fn spans_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("spans-{workload}.jsonl"))
}

/// Fill the per-span triples, the per-device times and the self-check from
/// the traced phase's logs.
fn spans(m: &mut Metrics, traced: &Phase) {
    let logs = &traced.logs;
    for kind in KINDS {
        let mut self_ns = Vec::new();
        let (mut device_ns, mut blocks) = (0u64, 0u64);
        for s in logs
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.kind == kind)
        {
            self_ns.push(s.dur_ns() - s.device_ns);
            device_ns += s.device_ns;
            blocks += u64::from(s.device_blocks);
        }
        let n = self_ns.len() as f64;
        self_ns.sort_unstable();
        m.set(
            &format!("{}.self_us_p50", kind.name()),
            nearest_rank(&self_ns, 0.5) as f64 / 1e3,
        );
        m.set(
            &format!("{}.device_us_per_call", kind.name()),
            ratio(device_ns as f64 / 1e3, n),
        );
        m.set(
            &format!("{}.device_blocks_per_call", kind.name()),
            ratio(blocks as f64, n),
        );
    }
    for (tag, name) in [
        (crate::trace::Tag::Volume, "blockdev.volume.us_per_op"),
        (crate::trace::Tag::Level, "blockdev.level.us_per_op"),
        (crate::trace::Tag::Sort, "blockdev.sort.us_per_op"),
    ] {
        let ns: u64 = logs.iter().map(|l| l.tag_ns[tag as usize]).sum();
        let calls: u64 = logs.iter().map(|l| l.tag_calls[tag as usize]).sum();
        m.set(name, ratio(ns as f64 / 1e3, calls as f64));
    }
    m.set(
        "trace.spans",
        logs.iter().map(|l| l.spans.len()).sum::<usize>() as f64,
    );
    let wall_ns: Vec<u64> = traced.off_cpu.iter().map(|o| o.wall_ns).collect();
    m.set(
        "trace.self_check_failures",
        self_check(logs, &wall_ns) as f64,
    );
}

/// Off-CPU shares of the client threads, averaged over clients.
fn off_cpu(m: &mut Metrics, off: &[OffCpu]) {
    let wall: u64 = off.iter().map(|o| o.wall_ns).sum();
    let blocked: u64 = off.iter().map(|o| o.blocked_ns).sum();
    let runqueue: u64 = off.iter().map(|o| o.runqueue_ns).sum();
    m.set("clients.blocked_frac", ratio(blocked as f64, wall as f64));
    m.set("clients.runqueue_frac", ratio(runqueue as f64, wall as f64));
}

/// Median microseconds of `BlockCodec::seal` and `open` at `block_size`.
fn crypto(m: &mut Metrics, block_size: usize) {
    const CALLS: usize = 2000;
    let codec = BlockCodec::new(block_size);
    let key = Key256::from_passphrase("perfbench crypto probe");
    let mut rng = HashDrbg::from_u64(7);
    let plain = vec![0x5au8; codec.data_field_len()];
    let mut seal = Vec::with_capacity(CALLS);
    let mut open = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let t0 = Instant::now();
        let sealed = std::hint::black_box(codec.seal(&key, &plain, &mut rng).expect("seal"));
        seal.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let opened = std::hint::black_box(codec.open(&key, &sealed).expect("open"));
        open.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(opened, plain, "codec round trip");
    }
    m.set("crypto.seal_us", median(seal));
    m.set("crypto.open_us", median(open));
}
