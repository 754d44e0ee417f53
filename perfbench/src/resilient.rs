//! `resilient-session`: login, file work and logout against a
//! `ResilientStore` with 4+2 Cauchy stripes, 4 journal slots and a 100k-user
//! persistent registry; then checkpoint, unmount, remount and read back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use stegfs_blockdev::MemDevice;
use stegfs_crypto::Key256;
use stegfs_resilience::{RegistryConfig, ResilienceConfig, ResilienceStats, ResilientStore};

use crate::harness::{
    content, fresh_tag, median, ratio, segmented, Lat, Metrics, Phase, Rng, Tally, Zipf, CLIENTS,
};
use crate::trace::{self, span, Dev, Kind, Tag};
use crate::{e2e, layers, Outcome, Plan};

const BLOCK_SIZE: usize = 4096;
const VOLUME_BLOCKS: u64 = 16_384;
const FILES: usize = 16;
const FILE_BLOCKS: usize = 16;
const USERS: u64 = 100_000;
const SHARDS: u32 = 256;
const RESIDENT_SHARDS: usize = 4;
const SEGMENT_BLOCKS: u32 = 4;
const SESSION_OPS: usize = 8;
const READ_SHARE: f64 = 0.7;
const ZIPF_THETA: f64 = 0.8;
const RECORD_BYTES: usize = 16;
type Vol = Dev<MemDevice>;

/// One client's generator state and model: file block tags and the record
/// tag of every user it has logged out (the others still hold their set-up
/// record).
struct Client {
    rng: Rng,
    zipf: Zipf,
    counter: u64,
    files: Vec<Vec<u64>>,
    users: HashMap<u64, u64>,
}

/// Counters of retired stores: each remount starts a store with fresh
/// statistics, so the counts of the one unmounted are kept here.
#[derive(Clone, Copy, Default)]
struct Counts {
    reads_verified: u64,
    read_check_failures: u64,
    intents_journaled: u64,
}

impl Counts {
    fn add(&mut self, now: &ResilienceStats, at_open: &ResilienceStats) {
        self.reads_verified += now.reads_verified - at_open.reads_verified;
        self.read_check_failures += now.read_check_failures - at_open.read_check_failures;
        self.intents_journaled += now.intents_journaled - at_open.intents_journaled;
    }
}

/// The mounted store and its statistics at mount time.
struct Mounted {
    store: ResilientStore<Vol>,
    at_open: ResilienceStats,
}

pub struct Bed {
    mounted: RwLock<Option<Mounted>>,
    master: Key256,
    seed: u64,
    clients: Vec<Mutex<Client>>,
    per: usize,
    /// Largest resident registry record count seen after a session (traced
    /// phase only).
    resident_peak: AtomicU64,
}

fn config() -> ResilienceConfig {
    ResilienceConfig::default()
        .with_stripe(4, 2)
        .with_journal_slots(4)
}

fn user_name(u: u64) -> String {
    format!("user-{u:06}")
}

fn path(client: usize, file: usize) -> String {
    format!("/c{client}/f{file:02}")
}

/// The set-up record of user `u`.
fn initial_record_tag(seed: u64, u: u64) -> u64 {
    Rng::new(seed ^ (u << 20) ^ 0x5e55).next_u64()
}

/// Format, create the registry, bulk-load every user in shard order, then
/// create every client's files.
pub fn setup(seed: u64) -> Bed {
    let master = Key256::from_passphrase(&format!("perfbench resilient {seed}"));
    let store = ResilientStore::format(
        Dev::new(MemDevice::new(VOLUME_BLOCKS, BLOCK_SIZE), Tag::Volume),
        config(),
        &master,
        seed,
    )
    .expect("format resilient volume");
    store
        .init_registry(
            RegistryConfig::default()
                .with_shards(SHARDS)
                .with_segment_blocks(SEGMENT_BLOCKS)
                .with_max_resident(RESIDENT_SHARDS),
        )
        .expect("init registry");
    let mut order: Vec<(u32, u64)> = (0..USERS)
        .map(|u| (store.registry_shard_of(&user_name(u)).expect("registry"), u))
        .collect();
    order.sort_unstable();
    for (_, u) in order {
        store
            .registry_put(
                &user_name(u),
                &content(initial_record_tag(seed, u), RECORD_BYTES),
            )
            .expect("register user");
    }
    store.registry_checkpoint().expect("checkpoint bulk load");

    let per = store.fs().content_bytes_per_block();
    let mut rng = Rng::new(seed ^ 0xf11e5);
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut files = Vec::new();
        for f in 0..FILES {
            let tags: Vec<u64> = (0..FILE_BLOCKS).map(|_| rng.next_u64()).collect();
            store
                .create_file(&path(c, f), &file_bytes(&tags, per))
                .expect("create client file");
            files.push(tags);
        }
        let mut crng = Rng::new(seed.wrapping_mul(0xc2b2_ae35) ^ (c as u64 + 101));
        let zipf = Zipf::new(FILES, ZIPF_THETA, &mut crng);
        clients.push(Mutex::new(Client {
            rng: crng,
            zipf,
            counter: 0,
            files,
            users: HashMap::new(),
        }));
    }
    let at_open = store.stats();
    Bed {
        mounted: RwLock::new(Some(Mounted { store, at_open })),
        master,
        seed,
        clients,
        per,
        resident_peak: AtomicU64::new(0),
    }
}

fn file_bytes(tags: &[u64], per: usize) -> Vec<u8> {
    tags.iter().flat_map(|&t| content(t, per)).collect()
}

/// The closed-loop client: sessions of a login (`registry_get`), eight
/// operations on Zipf-chosen files, and a logout (`registry_put`).
fn client(bed: &Bed, c: usize, deadline: Instant) -> Tally {
    let mounted = bed.mounted.read().expect("store lock");
    let store = &mounted.as_ref().expect("mounted").store;
    let mut guard = bed.clients[c].lock().expect("client state");
    let Client {
        rng,
        zipf,
        counter,
        files,
        users,
    } = &mut *guard;
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        // Client c serves the users u with u % CLIENTS == c.
        let u = rng.below(USERS / CLIENTS as u64) * CLIENTS as u64 + c as u64;
        let name = user_name(u);
        let record = users
            .get(&u)
            .copied()
            .unwrap_or_else(|| initial_record_tag(bed.seed, u));
        let want = content(record, RECORD_BYTES);
        let got = tally
            .logins
            .time(|| span(Kind::RegistryGet, || store.registry_get(&name)));
        let ok = matches!(&got, Ok(Some(v)) if *v == want);
        tally.op(ok, || format!("login {name}: {:?}", got.as_ref().err()));

        for _ in 0..SESSION_OPS {
            let f = zipf.sample(rng);
            let p = path(c, f);
            if rng.unit() < READ_SHARE {
                let got = tally
                    .reads
                    .time(|| span(Kind::ResilienceReadFile, || store.read_file(&p)));
                let ok = matches!(&got, Ok(v) if *v == file_bytes(&files[f], bed.per));
                tally.op(ok, || format!("read_file {p}: {:?}", got.as_ref().err()));
                tally.user_read_bytes += (FILE_BLOCKS * bed.per) as u64;
            } else {
                let b = rng.below(FILE_BLOCKS as u64) as usize;
                let tag = fresh_tag(c, counter);
                let data = content(tag, bed.per);
                let got = tally.writes.time(|| {
                    span(Kind::ResilienceWriteBlock, || {
                        store.write_block(&p, b as u64, &data)
                    })
                });
                tally.op(got.is_ok(), || {
                    format!("write_block {p} {b}: {:?}", got.as_ref().err())
                });
                if got.is_ok() {
                    files[f][b] = tag;
                }
                tally.user_write_bytes += bed.per as u64;
            }
        }

        let tag = fresh_tag(c, counter);
        let record = content(tag, RECORD_BYTES);
        let got = tally
            .logouts
            .time(|| span(Kind::RegistryPut, || store.registry_put(&name, &record)));
        tally.op(got.is_ok(), || {
            format!("logout {name}: {:?}", got.as_ref().err())
        });
        if got.is_ok() {
            users.insert(u, tag);
        }
        if trace::tracing() {
            let resident = store.registry_stats().resident_records as u64;
            bed.resident_peak.fetch_max(resident, Ordering::Relaxed);
        }
    }
    tally
}

/// What the remounts between segments found.
#[derive(Default)]
struct Between {
    mounts: Vec<f64>,
    counts: Counts,
    broken: Vec<String>,
    /// Intents a remount's journal recovery classified as unrecoverable.
    unrecoverable: u64,
}

impl Between {
    /// Checkpoint the registry, unmount and remount the volume, then read
    /// every file back against the clients' models; the users' sessions go
    /// on against the remounted store. Nothing clears the journal at
    /// unmount, so each remount finds the latest intents and rolls them
    /// forward (they all completed); rolling one back would undo an
    /// acknowledged write.
    fn remount(&mut self, bed: &Bed) {
        let mut slot = bed.mounted.write().expect("store lock");
        let Mounted { store, at_open } = slot.take().expect("mounted");
        if store.registry_checkpoint().is_err() {
            self.broken.push("registry checkpoint failed".to_string());
        }
        if !store.block_map().counters_are_consistent() {
            self.broken
                .push("block-map counters inconsistent".to_string());
        }
        self.counts.add(&store.stats(), &at_open);
        let device = store.into_device();
        let mut open = Lat::default();
        let store = open
            .time(|| {
                span(Kind::ResilienceOpen, || {
                    ResilientStore::open(device, config(), &bed.master, bed.seed)
                })
            })
            .expect("remount resilient volume");
        self.mounts.push(f64::from(open.0[0]) / 1e6);
        let report = store.last_recovery();
        if report.rolled_back != 0 {
            self.broken.push(format!("remount rolled back: {report:?}"));
        }
        self.unrecoverable += report.unrecoverable;
        for (c, client) in bed.clients.iter().enumerate() {
            let client = client.lock().expect("client state");
            for (f, tags) in client.files.iter().enumerate() {
                if store.read_file(&path(c, f)).ok() != Some(file_bytes(tags, bed.per)) {
                    self.broken
                        .push(format!("read-back of {} after remount", path(c, f)));
                }
            }
        }
        let at_open = store.stats();
        *slot = Some(Mounted { store, at_open });
    }
}

fn phase(bed: &Bed, dur: Duration, between: &mut Between) -> Phase {
    segmented(
        dur,
        false,
        |c, deadline| client(bed, c, deadline),
        || between.remount(bed),
    )
}

/// Every logged-out record, read back from the store the last remount
/// left, against the clients' models (the files were read back right after
/// that remount).
fn read_back_records(bed: &Bed, out: &mut Outcome) {
    let mounted = bed.mounted.read().expect("store lock");
    let store = &mounted.as_ref().expect("mounted").store;
    for client in &bed.clients {
        let client = client.lock().expect("client state");
        // In shard order, so each shard is loaded once.
        let mut users: Vec<(u32, u64, u64)> = client
            .users
            .iter()
            .map(|(&u, &t)| (store.registry_shard_of(&user_name(u)).unwrap_or(0), u, t))
            .collect();
        users.sort_unstable();
        for (_, u, t) in users {
            let got = store.registry_get(&user_name(u)).ok().flatten();
            out.require(
                got == Some(content(t, RECORD_BYTES)),
                &format!("remount record of {}", user_name(u)),
            );
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let (bed, setup_s) = plan.set_up(|| setup(plan.seed));
    let mut out = Outcome::default();
    let mut between = Between::default();
    let untraced = phase(&bed, plan.phase_len(), &mut between);
    let before = between.counts;
    let traced = plan.trace.then(|| {
        trace::set_tracing(true);
        let _ = trace::take_thread_log();
        let p = phase(&bed, plan.phase_len(), &mut between);
        trace::set_tracing(false);
        p
    });
    let after = between.counts;
    for p in std::iter::once(&untraced).chain(traced.as_ref()) {
        out.count(p);
    }
    for b in &between.broken {
        out.require(false, b);
    }
    read_back_records(&bed, &mut out);
    out.samples("mount", between.mounts.len());
    out.note("remount_unrecoverable_intents", between.unrecoverable);

    if let Some(mut t) = traced {
        t.logs.push(trace::take_thread_log());
        let mut m = layers::traced(&plan.workload, &untraced, &t, BLOCK_SIZE);
        counts(&mut m, &after, &before, &t);
        let gets: Vec<_> = t
            .logs
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.kind == Kind::RegistryGet)
            .collect();
        let loads = gets.iter().filter(|s| s.device_calls > 0).count();
        m.set(
            "registry.get.load_frac",
            ratio(loads as f64, gets.len() as f64),
        );
        m.set(
            "resilience.remount_unrecoverable_intents",
            between.unrecoverable as f64,
        );
        m.set(
            "registry.resident_records_peak",
            bed.resident_peak.load(Ordering::Relaxed) as f64,
        );
        out.finish_layers(m);
    } else {
        out.finish_e2e(e2e(
            &untraced,
            &untraced.logins,
            setup_s,
            median(between.mounts),
        ));
    }
    out
}

fn counts(m: &mut Metrics, after: &Counts, before: &Counts, t: &Phase) {
    m.set(
        "resilience.reads_verified_per_read",
        ratio(
            (after.reads_verified - before.reads_verified) as f64,
            t.reads.len() as f64,
        ),
    );
    m.set(
        "resilience.read_check_failures",
        (after.read_check_failures - before.read_check_failures) as f64,
    );
    m.set(
        "resilience.intents_per_write",
        ratio(
            (after.intents_journaled - before.intents_journaled) as f64,
            t.writes.len() as f64,
        ),
    );
}
