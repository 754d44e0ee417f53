//! `agent-update`: the Figure 6 update loop end to end on `ConcurrentAgent`
//! (Construction 1) over a filled 64 MiB volume.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stegfs_base::{StegFsConfig, DEFAULT_MAP_SHARDS};
use stegfs_blockdev::MemDevice;
use stegfs_crypto::Key256;
use steghide::{AgentConfig, ConcurrentAgent, FileId, NonVolatileAgent, UpdateStats};

use crate::harness::{
    content, fresh_tag, median, ratio, run_clients, segmented, Metrics, Phase, Rng, Segment, Tally,
    Zipf, CLIENTS,
};
use crate::trace::{self, span, Dev, Kind, Tag, WRITE_BINS};
use crate::{e2e, layers, Outcome, Plan};

const BLOCK_SIZE: usize = 4096;
const VOLUME_BLOCKS: u64 = 16_384;
const FILES: usize = 32;
const FILE_BLOCKS: usize = 72;
const ZIPF_THETA: f64 = 0.9;
const READ_SHARE: f64 = 0.6;
/// The write-position guard's bound, as a multiple of the KL divergence a
/// uniform sample of `n` writes shows on average, `(bins - 1) / (2 n ln 2)`
/// bits. That KL is χ²(bins − 1)/(2 n ln 2), so a uniform stream exceeds
/// twice its mean with probability about 5·10⁻⁶.
pub const KL_BOUND_FACTOR: f64 = 2.0;
/// Login burst after every segment of the timed phase.
const LOGIN_BURST: Duration = Duration::from_millis(50);
/// Agent restarts after every segment; `mount_ms` is their median.
const MOUNTS_PER_SEGMENT: usize = 3;

type Vol = Dev<Arc<MemDevice>>;

/// One client's generator state and model: the tag of every block's last
/// acknowledged write.
struct Client {
    rng: Rng,
    zipf: Zipf,
    counter: u64,
    tags: Vec<Vec<u64>>,
}

pub struct Bed {
    agent: ConcurrentAgent<Vol>,
    mem: Arc<MemDevice>,
    key: Key256,
    seed: u64,
    secrets: Vec<Key256>,
    ids: Vec<Vec<FileId>>,
    clients: Vec<Mutex<Client>>,
    per: usize,
}

fn path(client: usize, file: usize) -> String {
    format!("/c{client}/f{file:02}")
}

/// Format and fill the volume, then create every client's files with
/// seeded content.
pub fn setup(seed: u64, cfg: AgentConfig) -> Bed {
    let mem = Arc::new(MemDevice::new(VOLUME_BLOCKS, BLOCK_SIZE));
    let key = Key256::from_passphrase(&format!("perfbench agent {seed}"));
    let agent = ConcurrentAgent::format(
        Dev::new(mem.clone(), Tag::Volume),
        StegFsConfig::default(),
        cfg,
        key,
        seed,
        DEFAULT_MAP_SHARDS,
    )
    .expect("format agent volume");
    let per = agent.fs().content_bytes_per_block();
    let mut rng = Rng::new(seed ^ 0xa6e47);
    let mut secrets = Vec::new();
    let mut ids = Vec::new();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let secret = Key256::from_passphrase(&format!("perfbench client {c} seed {seed}"));
        let mut cids = Vec::new();
        let mut tags = Vec::new();
        for f in 0..FILES {
            let file: Vec<u64> = (0..FILE_BLOCKS).map(|_| rng.next_u64()).collect();
            let bytes: Vec<u8> = file.iter().flat_map(|&t| content(t, per)).collect();
            cids.push(
                agent
                    .create_file(&secret, &path(c, f), &bytes)
                    .expect("create client file"),
            );
            tags.push(file);
        }
        let mut crng = Rng::new(seed.wrapping_mul(0x100_0193) ^ c as u64);
        let zipf = Zipf::new(FILES * FILE_BLOCKS, ZIPF_THETA, &mut crng);
        secrets.push(secret);
        ids.push(cids);
        clients.push(Mutex::new(Client {
            rng: crng,
            zipf,
            counter: 0,
            tags,
        }));
    }
    Bed {
        agent,
        mem,
        key,
        seed,
        secrets,
        ids,
        clients,
        per,
    }
}

/// The closed-loop client: Zipf-chosen blocks of its own files, reads
/// checked against its last acknowledged writes.
fn client(bed: &Bed, c: usize, deadline: Instant) -> Tally {
    let mut guard = bed.clients[c].lock().expect("client state");
    let Client {
        rng,
        zipf,
        counter,
        tags,
    } = &mut *guard;
    let ids = &bed.ids[c];
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let i = zipf.sample(rng);
        let (f, b) = (i / FILE_BLOCKS, i % FILE_BLOCKS);
        if rng.unit() < READ_SHARE {
            let got = tally.reads.time(|| {
                span(Kind::CoreReadBlock, || {
                    bed.agent.read_block(ids[f], b as u64)
                })
            });
            let ok = matches!(&got, Ok(v) if *v == content(tags[f][b], bed.per));
            tally.op(ok, || {
                format!("read_block c{c} f{f} b{b}: {:?}", got.as_ref().err())
            });
            tally.user_read_bytes += bed.per as u64;
        } else {
            let tag = fresh_tag(c, counter);
            let payload = content(tag, bed.per);
            let got = tally.writes.time(|| {
                span(Kind::CoreUpdateBlock, || {
                    bed.agent.update_block(ids[f], b as u64, &payload)
                })
            });
            tally.op(got.is_ok(), || {
                format!("update_block c{c} f{f} b{b}: {:?}", got.as_ref().err())
            });
            if got.is_ok() {
                tags[f][b] = tag;
            }
            tally.user_write_bytes += bed.per as u64;
        }
    }
    tally
}

/// Logins: each client re-opens its own files with its secret (the agent
/// probes for the header), closed loop for `dur`.
fn logins(bed: &Bed, dur: Duration) -> Segment {
    run_clients(dur, false, |c, deadline| {
        let mut tally = Tally::default();
        let mut f = 0;
        while Instant::now() < deadline {
            let got = tally.logins.time(|| {
                span(Kind::CoreOpenFile, || {
                    bed.agent.open_file(&bed.secrets[c], &path(c, f))
                })
            });
            let ok = matches!(&got, Ok(id) if *id == bed.ids[c][f]);
            tally.op(ok, || format!("login c{c} f{f}: {:?}", got.as_ref().err()));
            f = (f + 1) % FILES;
        }
        tally
    })
}

/// Restart the agent on the flushed volume: mount with the saved block map
/// and open every client file. Returns the restarted agent, the opened ids
/// and the time taken in ms.
fn remount(bed: &Bed) -> (NonVolatileAgent<Vol>, Vec<(usize, usize, FileId)>, f64) {
    let map = bed.agent.map().to_scalar();
    let t0 = Instant::now();
    let mut agent = NonVolatileAgent::mount(
        Dev::new(bed.mem.clone(), Tag::Volume),
        AgentConfig::default(),
        bed.key,
        map,
        bed.seed,
    )
    .expect("remount agent volume");
    let mut opened = Vec::new();
    for (c, secret) in bed.secrets.iter().enumerate() {
        for f in 0..FILES {
            opened.push((
                c,
                f,
                agent.open_file(secret, &path(c, f)).expect("reopen file"),
            ));
        }
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (agent, opened, ms)
}

/// Everything measured between the segments of a timed phase.
#[derive(Default)]
struct Between {
    logins: Phase,
    mounts: Vec<f64>,
}

impl Between {
    /// Flush headers, then a login burst and a few agent restarts.
    fn run(&mut self, bed: &Bed) {
        bed.agent.flush().expect("flush headers");
        self.logins.add(logins(bed, LOGIN_BURST));
        for _ in 0..MOUNTS_PER_SEGMENT {
            self.mounts.push(remount(bed).2);
        }
    }
}

/// A timed phase of `dur`.
fn phase(bed: &Bed, dur: Duration, between: &mut Between) -> Phase {
    segmented(
        dur,
        true,
        |c, deadline| client(bed, c, deadline),
        || between.run(bed),
    )
}

/// KL divergence (bits) of a phase's device write positions from uniform,
/// and the bound it must stay under.
pub fn write_position_kl(phase: &Phase) -> (f64, f64) {
    let mut bins = [0u64; WRITE_BINS];
    for log in &phase.logs {
        for (b, n) in bins.iter_mut().zip(log.write_bins) {
            *b += n;
        }
    }
    let n = bins.iter().sum::<u64>().max(1) as f64;
    let bound = KL_BOUND_FACTOR * (WRITE_BINS - 1) as f64 / (2.0 * n * std::f64::consts::LN_2);
    (kl_bits_from_uniform(&bins), bound)
}

/// `stegfs_analysis::kl_divergence_from_uniform` over an already binned
/// histogram: the same sum, `Σ p log2(p / q)` over the non-empty bins.
fn kl_bits_from_uniform(bins: &[u64]) -> f64 {
    let n = bins.iter().sum::<u64>() as f64;
    let q = 1.0 / bins.len() as f64;
    bins.iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * (p / q).log2()
        })
        .sum()
}

/// Every file as the last restart reads it, against the clients' models.
fn read_back(bed: &Bed, out: &mut Outcome) {
    let (agent, opened, _) = remount(bed);
    for (c, f, id) in opened {
        let client = bed.clients[c].lock().expect("client state");
        let want: Vec<u8> = client.tags[f]
            .iter()
            .flat_map(|&t| content(t, bed.per))
            .collect();
        let ok = agent.read_file(id).ok().as_deref() == Some(&want[..]);
        out.require(ok, &format!("remount read-back of {}", path(c, f)));
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let (bed, setup_s) = plan.set_up(|| setup(plan.seed, AgentConfig::default()));
    let mut out = Outcome::default();
    let mut between = Between::default();
    let untraced = phase(&bed, plan.phase_len(), &mut between);
    between.logins.finish();
    let before = bed.agent.stats();
    let mut traced_between = Between::default();
    let traced = plan.trace.then(|| {
        trace::set_tracing(true);
        let p = phase(&bed, plan.phase_len(), &mut traced_between);
        trace::set_tracing(false);
        p
    });
    let delta = bed.agent.stats().since(&before);
    for p in [&untraced, &between.logins, &traced_between.logins] {
        out.count(p);
    }
    if let Some(t) = &traced {
        out.count(t);
    }

    out.require(
        bed.agent.map().counters_are_consistent(),
        "block-map counters inconsistent",
    );
    let mut kl = 0.0;
    for p in std::iter::once(&untraced).chain(traced.as_ref()) {
        let (k, bound) = write_position_kl(p);
        out.require(
            k <= bound,
            &format!("write-position KL {k:.3e} bits over bound {bound:.3e}"),
        );
        kl = k;
    }
    read_back(&bed, &mut out);
    out.samples("mount", between.mounts.len());

    if let Some(mut t) = traced {
        t.logs.append(&mut traced_between.logins.logs);
        t.off_cpu.append(&mut traced_between.logins.off_cpu);
        let mut m = layers::traced(&plan.workload, &untraced, &t, BLOCK_SIZE);
        update_stats(&mut m, &delta);
        m.set("core.write_position_kl_bits", kl);
        m.set("stegfs.map.data_frac", bed.agent.utilisation());
        out.finish_layers(m);
    } else {
        out.finish_e2e(e2e(
            &untraced,
            &between.logins.logins,
            setup_s,
            median(between.mounts),
        ));
    }
    out
}

fn update_stats(m: &mut Metrics, d: &UpdateStats) {
    let updates = d.data_updates as f64;
    m.set(
        "core.iterations_per_update",
        ratio(d.iterations as f64, updates),
    );
    m.set(
        "core.dummy_updates_per_update",
        ratio(d.dummy_updates as f64, updates),
    );
    m.set("core.relocation_frac", ratio(d.relocations as f64, updates));
}

#[cfg(test)]
mod tests {
    use stegfs_blockdev::BlockDevice;

    use super::*;

    /// The guard's histogram, filled by the device wrapper, gives the
    /// analysis crate's KL of the write positions.
    #[test]
    fn binned_kl_matches_analysis() {
        const BLOCKS: u64 = 1000;
        let dev = Dev::new(MemDevice::new(BLOCKS, 512), Tag::Volume);
        let mut rng = Rng::new(3);
        let positions: Vec<u64> = (0..5000)
            .map(|i| rng.below(if i % 3 == 0 { BLOCKS / 8 } else { BLOCKS }))
            .collect();
        trace::enter_client(true);
        let _ = trace::take_thread_log();
        for &p in &positions {
            dev.write_block(p, &[0u8; 512]).expect("write");
        }
        let bins = trace::take_thread_log().write_bins;
        let want =
            stegfs_analysis::kl_divergence_from_uniform(&positions, BLOCKS, WRITE_BINS as u64);
        assert!((kl_bits_from_uniform(&bins) - want).abs() < 1e-12);
    }

    /// The deniability guard can catch a leak: with relocation off, updates
    /// rewrite the Zipf-hot blocks in place and the write positions stop
    /// looking uniform, while the Figure 6 loop stays under the bound.
    #[test]
    fn write_position_guard_flags_in_place_updates() {
        for (cfg, leaks) in [
            (AgentConfig::default(), false),
            (AgentConfig::default().without_relocation(), true),
        ] {
            let bed = setup(7, cfg);
            let p = segmented(
                Duration::from_millis(500),
                true,
                |c, deadline| client(&bed, c, deadline),
                || {},
            );
            let (kl, bound) = write_position_kl(&p);
            println!(
                "relocation {}: KL {kl:.3e} bits, bound {bound:.3e}",
                cfg.relocate_on_update
            );
            assert_eq!(p.failed, 0);
            assert_eq!(
                kl > bound,
                leaks,
                "relocation {}: KL {kl:.3e} bits, bound {bound:.3e}",
                cfg.relocate_on_update
            );
        }
    }
}
