//! `oblivious-read`: the hierarchical oblivious store (Figure 8(b)) holding
//! 16384 items of 4 KiB behind a 1024-item buffer.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stegfs_blockdev::MemDevice;
use stegfs_crypto::Key256;
use stegfs_oblivious::{EpochState, ObliviousConfig, ObliviousStats, ObliviousStore};

use crate::harness::{content, fresh_tag, median, ratio, segmented, Phase, Rng, Tally, CLIENTS};
use crate::trace::{self, span, Dev, Kind, Tag};
use crate::{e2e, layers, Outcome, Plan};

const ITEMS: u64 = 16_384;
const BUFFER: u64 = 1024;
const ITEM_BYTES: usize = 4096;
const READ_SHARE: f64 = 0.9;
/// Operations per session after the login.
const SESSION_OPS: usize = 4;
/// Every `USER_STRIDE`-th item of a client is a user's header item: only a
/// login reads it, and sessions never touch it.
const USER_STRIDE: u64 = 16;
/// Mount-time epoch checks after every segment; `mount_ms` is their median.
const MOUNTS_PER_SEGMENT: usize = 64;

type Part = Dev<Arc<MemDevice>>;
type Store = ObliviousStore<Part, Part>;

/// One client's generator state and model: the tag of each owned item
/// (item `CLIENTS * j + c` is entry `j`).
struct Client {
    rng: Rng,
    counter: u64,
    tags: Vec<u64>,
}

pub struct Bed {
    store: Store,
    level_mem: Arc<MemDevice>,
    cfg: ObliviousConfig,
    key: Key256,
    clients: Vec<Mutex<Client>>,
}

/// Build the store and insert every item; client `c` owns the ids
/// `c, c + 2, c + 4, ...`.
pub fn setup(seed: u64) -> Bed {
    let cfg = ObliviousConfig::new(BUFFER, ITEMS).with_persisted_epoch();
    let block = Store::block_size_for_item(ITEM_BYTES);
    let level_mem = Arc::new(MemDevice::new(Store::blocks_required(&cfg, block), block));
    let sort_mem = Arc::new(MemDevice::new(
        Store::sort_blocks_required(&cfg),
        Store::sort_block_size_for(block),
    ));
    let key = Key256::from_passphrase(&format!("perfbench oblivious {seed}"));
    let store = ObliviousStore::new(
        Dev::new(level_mem.clone(), Tag::Level),
        Dev::new(sort_mem, Tag::Sort),
        cfg,
        key,
        seed,
        None,
    )
    .expect("construct oblivious store");
    let mut rng = Rng::new(seed ^ 0x0b11);
    let mut models: Vec<Vec<u64>> = vec![Vec::new(); CLIENTS];
    for id in 0..ITEMS {
        let tag = rng.next_u64();
        store
            .insert(id, content(tag, ITEM_BYTES))
            .expect("populate oblivious store");
        models[(id % CLIENTS as u64) as usize].push(tag);
    }
    let clients = models
        .into_iter()
        .enumerate()
        .map(|(c, tags)| {
            Mutex::new(Client {
                rng: Rng::new(seed.wrapping_mul(0x01b3) ^ (c as u64 + 11)),
                counter: 0,
                tags,
            })
        })
        .collect();
    Bed {
        store,
        level_mem,
        cfg,
        key,
        clients,
    }
}

/// The closed-loop client: sessions of one login (an oblivious read of a
/// uniformly chosen user's header item) and `SESSION_OPS` uniform
/// operations over the client's other items.
fn client(bed: &Bed, c: usize, deadline: Instant) -> Tally {
    let mut guard = bed.clients[c].lock().expect("client state");
    let Client { rng, counter, tags } = &mut *guard;
    let owned = tags.len() as u64;
    let id_of = |j: u64| j * CLIENTS as u64 + c as u64;
    // The r-th item that is not a header.
    let body_item = |r: u64| r / (USER_STRIDE - 1) * USER_STRIDE + r % (USER_STRIDE - 1) + 1;
    let body_items = owned / USER_STRIDE * (USER_STRIDE - 1);
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let j = rng.below(owned / USER_STRIDE) * USER_STRIDE;
        let got = tally
            .logins
            .time(|| span(Kind::ObliviousRead, || bed.store.read(id_of(j))));
        let ok = matches!(&got, Ok(v) if *v == content(tags[j as usize], ITEM_BYTES));
        tally.op(ok, || {
            format!("login read of item {}: {:?}", id_of(j), got.as_ref().err())
        });
        tally.user_read_bytes += ITEM_BYTES as u64;
        for _ in 0..SESSION_OPS {
            let j = body_item(rng.below(body_items));
            if rng.unit() < READ_SHARE {
                let got = tally
                    .reads
                    .time(|| span(Kind::ObliviousRead, || bed.store.read(id_of(j))));
                let ok = matches!(&got, Ok(v) if *v == content(tags[j as usize], ITEM_BYTES));
                tally.op(ok, || {
                    format!("read of item {}: {:?}", id_of(j), got.as_ref().err())
                });
                tally.user_read_bytes += ITEM_BYTES as u64;
            } else {
                let tag = fresh_tag(c, counter);
                let payload = content(tag, ITEM_BYTES);
                let got = tally
                    .writes
                    .time(|| span(Kind::ObliviousWrite, || bed.store.write(id_of(j), payload)));
                tally.op(got.is_ok(), || {
                    format!("write of item {}: {:?}", id_of(j), got.as_ref().err())
                });
                if got.is_ok() {
                    tags[j as usize] = tag;
                }
                tally.user_write_bytes += ITEM_BYTES as u64;
            }
        }
    }
    tally
}

/// A timed phase of `dur`, with mount checks between its segments.
fn phase(bed: &Bed, dur: Duration, mounts: &mut Vec<f64>, clean: &mut bool) -> Phase {
    segmented(
        dur,
        false,
        |c, deadline| client(bed, c, deadline),
        || mount(bed, mounts, clean),
    )
}

/// The store's mount-time check: read back the persisted write epoch and
/// compare it with the live one. Records each check's time in ms and clears
/// `clean` unless every check found a clean epoch equal to `write_epoch()`.
fn mount(bed: &Bed, times: &mut Vec<f64>, clean: &mut bool) {
    let device = Dev::new(bed.level_mem.clone(), Tag::Level);
    let live = bed.store.write_epoch();
    for _ in 0..MOUNTS_PER_SEGMENT {
        let t0 = Instant::now();
        let state = Store::epoch_state(&device, &bed.cfg, &bed.key);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        *clean &= matches!(state, Ok(EpochState::Clean { epoch }) if epoch == live);
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let (bed, setup_s) = plan.set_up(|| setup(plan.seed));
    let mut out = Outcome::default();
    let (mut mounts, mut clean) = (Vec::new(), true);
    let untraced = phase(&bed, plan.phase_len(), &mut mounts, &mut clean);
    let before = bed.store.stats();
    let traced = plan.trace.then(|| {
        trace::set_tracing(true);
        let p = phase(&bed, plan.phase_len(), &mut mounts, &mut clean);
        trace::set_tracing(false);
        p
    });
    let delta = bed.store.stats().since(&before);
    out.count(&untraced);
    if let Some(t) = &traced {
        out.count(t);
    }

    out.require(
        bed.store.membership_is_consistent(),
        "oblivious membership inconsistent",
    );
    out.require(bed.store.write_epoch() % 2 == 0, "write epoch odd at rest");
    out.require(clean, "persisted epoch is not the clean live epoch");
    out.samples("mount", mounts.len());

    if let Some(t) = traced {
        let mut m = layers::traced(
            &plan.workload,
            &untraced,
            &t,
            Store::block_size_for_item(ITEM_BYTES),
        );
        store_stats(&mut m, &delta, t.attempted);
        m.set("oblivious.overhead_factor_model", bed.cfg.overhead_factor());
        out.finish_layers(m);
    } else {
        out.finish_e2e(e2e(&untraced, &untraced.logins, setup_s, median(mounts)));
    }
    out
}

fn store_stats(m: &mut crate::harness::Metrics, d: &ObliviousStats, ops: u64) {
    let reads = d.reads_served as f64;
    m.set(
        "oblivious.retrieve_ios_per_read",
        ratio(d.retrieve_ios as f64, reads),
    );
    m.set(
        "oblivious.sort_ios_per_read",
        ratio(d.sort_ios as f64, reads),
    );
    m.set(
        "oblivious.reorders_per_kop",
        ratio(d.reorders as f64 * 1e3, ops as f64),
    );
    m.set(
        "oblivious.buffer_hit_frac",
        ratio(d.buffer_hits as f64, reads),
    );
    m.set("oblivious.overhead_factor", d.overhead_factor());
}
