//! The concurrent serving layer: a lock-decomposed agent that serves many
//! users' reads, updates and dummy updates from shared references.
//!
//! The sequential [`NonVolatileAgent`](crate::NonVolatileAgent) owns
//! everything mutably, so a multi-user driver can only interleave block
//! steps cooperatively on one thread. [`ConcurrentAgent`] decomposes that
//! single borrow into independent locks so the paper's construction — many
//! users whose traffic blends into one indistinguishable stream — can
//! actually be served by many threads:
//!
//! * the **block map** is a [`ShardedBlockMap`]: reclassifications on
//!   different shards never contend, and relocation targets are claimed
//!   atomically (`claim`) so two updates cannot steal the same dummy block;
//! * every physical **read-modify-write** (dummy-update reseal, in-place
//!   rewrite, relocation write) runs under the *per-shard update lock* of the
//!   block it touches — operations on blocks in different shards proceed in
//!   parallel, while a reseal can never interleave destructively with a data
//!   write to the same block;
//! * the **read path is shared**: content reads hold only the registry
//!   *read* lock — shared among all readers, contended only by the brief
//!   header-repoint at the end of a relocation — across the device read, so
//!   a block's location is pinned while it is read (see
//!   [`ConcurrentAgent::read_block`]) and device block ops stay concurrent;
//! * **dummy updates are batched across shards**: one draw of `K` candidates
//!   under the RNG lock, grouped by shard, then exactly one update-lock
//!   acquisition per shard per round;
//! * **structural operations** (file creation, header flush) take the write
//!   side of a structural `RwLock` that all per-block traffic holds for read,
//!   because their multi-block writes go through [`StegFs`] paths that cannot
//!   take the per-shard locks themselves;
//! * statistics are atomic ([`SharedUpdateStats`]), and per-file header
//!   mutations are serialised by per-file locks.
//!
//! This agent implements the paper's Construction 1 keying (one volume-wide
//! key, the non-volatile deployment model), which is the flavour a shared
//! serving layer runs: the agent is a long-lived service with its own secret.
//! Security is unchanged — every access still lands on a uniformly selected
//! block, which the `concurrent_security` integration test verifies against
//! the statistical attackers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use stegfs_base::{BlockClass, FileAccessKey, ShardedBlockMap, StegFs, StegFsConfig};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::error::AgentError;
use crate::registry::{FileId, Registry};
use crate::stats::{SharedUpdateStats, UpdateStats};
use crate::update::UpdateOutcome;

/// A pluggable victim stream for dummy updates. The uniform sampler is the
/// default; a source lets maintenance work (scrub cursors, targeted refresh
/// sweeps) pick the blocks the cover traffic touches — the observable stream
/// must stay statistically indistinguishable from uniform, which the
/// integration suite checks with a KL bound.
pub trait VictimSource: Sync {
    /// The next `k` victim payload blocks. May return fewer (or out-of-range
    /// ids); the agent pads with uniform draws.
    fn next_victims(&self, k: usize) -> Vec<BlockId>;
}

/// Lock-decomposed multi-user serving agent (Construction 1 keying).
pub struct ConcurrentAgent<D> {
    fs: StegFs<D>,
    map: ShardedBlockMap,
    registry: RwLock<Registry>,
    /// One lock per map shard; held across every read-modify-write of a block
    /// in that shard.
    update_locks: Vec<Mutex<()>>,
    /// Read side: per-block traffic. Write side: multi-block structural
    /// operations (create, flush) whose writes bypass the shard locks.
    structural: RwLock<()>,
    /// Serialises updates of the same file so header bookkeeping stays
    /// consistent; never held by the read path.
    file_locks: Mutex<HashMap<FileId, Arc<Mutex<()>>>>,
    cfg: AgentConfig,
    stats: SharedUpdateStats,
    rng: Mutex<HashDrbg>,
    agent_key: Key256,
    dummy_fak: FileAccessKey,
}

impl<D: BlockDevice> ConcurrentAgent<D> {
    /// Format `device` as a fresh volume served by this agent, with the block
    /// map split over `num_shards` shards.
    pub fn format(
        device: D,
        fs_cfg: StegFsConfig,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        seed: u64,
        num_shards: usize,
    ) -> Result<Self, AgentError> {
        let (fs, mut map) = StegFs::format(device, fs_cfg, seed)?;
        // Same construction as the sequential non-volatile agent: the agent
        // holds the FAK of a dummy file that conceptually owns the abandoned
        // pool.
        let dummy_fak = FileAccessKey::from_parts(
            agent_key.derive("steghide:dummy-file:location"),
            agent_key,
            Some(agent_key),
        );
        fs.create_dummy_file(&mut map, "/.steghide-dummy", &dummy_fak, 1)?;
        let map = ShardedBlockMap::from_scalar(&map, num_shards);
        let update_locks = (0..num_shards).map(|_| Mutex::new(())).collect();
        Ok(Self {
            fs,
            map,
            registry: RwLock::new(Registry::new()),
            update_locks,
            structural: RwLock::new(()),
            file_locks: Mutex::new(HashMap::new()),
            cfg: agent_cfg,
            stats: SharedUpdateStats::default(),
            rng: Mutex::new(HashDrbg::new(&(seed ^ 0x5deece66d).to_be_bytes())),
            agent_key,
            dummy_fak,
        })
    }

    fn effective_fak(&self, user_secret: &Key256) -> FileAccessKey {
        FileAccessKey::from_parts(
            user_secret.derive("steghide:location"),
            self.agent_key,
            Some(self.agent_key),
        )
    }

    fn file_lock(&self, id: FileId) -> Arc<Mutex<()>> {
        self.file_locks
            .lock()
            .entry(id)
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }

    /// Create a hidden file for a user; returns its id. A structural
    /// operation: takes the structural write lock, so it excludes per-block
    /// traffic for its (short, rare) duration.
    pub fn create_file(
        &self,
        user_secret: &Key256,
        path: &str,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        let _exclusive = self.structural.write();
        let fak = self.effective_fak(user_secret);
        let file = self.fs.create_file(&mut &self.map, path, &fak, content)?;
        Ok(self.registry.write().register(file))
    }

    /// Create a hidden file of `size` bytes without writing its content
    /// blocks (benchmark set-up helper).
    pub fn create_file_sparse(
        &self,
        user_secret: &Key256,
        path: &str,
        size: u64,
    ) -> Result<FileId, AgentError> {
        let _exclusive = self.structural.write();
        let fak = self.effective_fak(user_secret);
        let file = self
            .fs
            .create_file_sparse(&mut &self.map, path, &fak, size)?;
        Ok(self.registry.write().register(file))
    }

    /// Open an existing hidden file; returns its id.
    ///
    /// Idempotent across sessions: if the file is already registered (same
    /// header block), the existing id is returned instead of minting a
    /// second one. Two live ids for one physical file would carry two
    /// independently cached headers — concurrent updates through them would
    /// diverge and the last flushed header would silently win, leaking the
    /// other's relocated blocks.
    ///
    /// Takes the structural read lock: opening probes header and indirect
    /// blocks on the device, which must not interleave with a concurrent
    /// create/flush's multi-block header writes.
    pub fn open_file(&self, user_secret: &Key256, path: &str) -> Result<FileId, AgentError> {
        let _shared = self.structural.read();
        let fak = self.effective_fak(user_secret);
        let file = self.fs.open_file(&fak, path)?;
        let mut registry = self.registry.write();
        if let Some((existing, crate::registry::BlockRole::Header)) =
            registry.owner_of(file.header_location)
        {
            return Ok(existing);
        }
        Ok(registry.register(file))
    }

    /// Read one content block of an open file — the shared read path.
    ///
    /// The registry **read** lock is held across the device read (readers
    /// never block each other; only the brief `registry.write()` at the end
    /// of a relocation waits). Holding it pins the location: without it, a
    /// relocation could repoint the header and abandon the old block, a
    /// second user's update could re-claim that block, and — everything
    /// being sealed under the one Construction 1 key — the stale read would
    /// decrypt *another user's* fresh content instead of failing.
    pub fn read_block(&self, id: FileId, index: u64) -> Result<Vec<u8>, AgentError> {
        let _shared = self.structural.read();
        let registry = self.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        let loc = *file
            .header
            .blocks
            .get(index as usize)
            .ok_or(AgentError::Fs(stegfs_base::FsError::OutOfBounds {
                index,
                len: file.header.num_blocks(),
            }))?;
        Ok(self
            .fs
            .codec()
            .read_sealed(self.fs.device(), loc, &self.agent_key)?)
    }

    /// Read a whole open file. Like [`ConcurrentAgent::read_block`], the
    /// registry read lock is held for the whole read, so the result is a
    /// consistent snapshot of the file (relocations wait; other readers and
    /// dummy updates do not).
    pub fn read_file(&self, id: FileId) -> Result<Vec<u8>, AgentError> {
        let _shared = self.structural.read();
        let registry = self.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        let mut out = Vec::with_capacity(file.header.file_size as usize);
        for &loc in &file.header.blocks {
            let chunk = self
                .fs
                .codec()
                .read_sealed(self.fs.device(), loc, &self.agent_key)?;
            out.extend_from_slice(&chunk);
        }
        out.truncate(file.header.file_size as usize);
        Ok(out)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, id: FileId) -> Result<u64, AgentError> {
        Ok(self
            .registry
            .read()
            .get(id)
            .ok_or(AgentError::UnknownFile(id))?
            .num_content_blocks())
    }

    fn content_location(&self, id: FileId, index: u64) -> Result<BlockId, AgentError> {
        let registry = self.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        file.header
            .blocks
            .get(index as usize)
            .copied()
            .ok_or(AgentError::Fs(stegfs_base::FsError::OutOfBounds {
                index,
                len: file.header.num_blocks(),
            }))
    }

    /// Reseal `block` under the shard update lock — the unit dummy update.
    /// The caller must already hold the structural read lock.
    fn dummy_update_locked(&self, block: BlockId) -> Result<(), AgentError> {
        let _shard = self.update_locks[self.map.shard_of(block)].lock();
        self.reseal_shard_locked(block)
    }

    /// Issue one idle-time dummy update; returns the block touched.
    pub fn dummy_update_once(&self) -> Result<u64, AgentError> {
        Ok(self.dummy_update_batch(1)?[0])
    }

    /// Uniformly draw `k` candidate payload blocks under a single
    /// acquisition of the agent's selection RNG.
    fn draw_candidates(&self, k: usize) -> Vec<u64> {
        let payload = self.fs.superblock().payload_blocks();
        let mut rng = self.rng.lock();
        (0..k).map(|_| 1 + rng.gen_range(payload)).collect()
    }

    /// Draw one candidate without the `Vec` round trip — the Figure 6 loop
    /// runs this once per iteration.
    fn draw_candidate(&self) -> u64 {
        let payload = self.fs.superblock().payload_blocks();
        1 + self.rng.lock().gen_range(payload)
    }

    /// Dummy-update `block` in place: read + decrypt lock-free, then seal
    /// the identical plaintext under a fresh IV (the volume DRBG lock covers
    /// only the seal, never the device I/O — otherwise every writer on every
    /// shard would serialise behind one mutex for the duration of a device
    /// wait). Caller must hold the block's shard update lock.
    fn reseal_shard_locked(&self, block: BlockId) -> Result<(), AgentError> {
        let codec = self.fs.codec();
        let plaintext = codec.read_sealed(self.fs.device(), block, &self.agent_key)?;
        let sealed = self
            .fs
            .with_rng(|rng| codec.seal(&self.agent_key, &plaintext, rng))?;
        self.fs.device().write_block(block, &sealed)?;
        self.stats.count_dummy_update();
        Ok(())
    }

    /// Issue `k` dummy updates with cross-shard batched selection: all `k`
    /// candidates are drawn under one RNG lock acquisition, grouped by shard,
    /// and each shard's update lock is taken exactly once for its whole
    /// group. Returns the touched blocks in selection order.
    pub fn dummy_update_batch(&self, k: usize) -> Result<Vec<u64>, AgentError> {
        let candidates = self.draw_candidates(k);
        self.dummy_update_candidates(candidates)
    }

    /// Issue `k` dummy updates drawing the victims from `source` instead of
    /// the uniform sampler — the hook that lets maintenance sweeps (e.g. a
    /// scrub cursor) ride the cover-traffic stream. Out-of-range victims and
    /// any shortfall below `k` are replaced by uniform draws, so a
    /// misbehaving source degrades to ordinary cover traffic rather than
    /// skewing or starving it.
    pub fn dummy_update_batch_from(
        &self,
        k: usize,
        source: &dyn VictimSource,
    ) -> Result<Vec<u64>, AgentError> {
        let payload = self.fs.superblock().payload_blocks();
        let mut candidates: Vec<u64> = source
            .next_victims(k)
            .into_iter()
            .filter(|&b| b >= 1 && b <= payload)
            .take(k)
            .collect();
        while candidates.len() < k {
            candidates.push(self.draw_candidate());
        }
        self.dummy_update_candidates(candidates)
    }

    fn dummy_update_candidates(&self, candidates: Vec<u64>) -> Result<Vec<u64>, AgentError> {
        let _shared = self.structural.read();
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); self.update_locks.len()];
        for &block in &candidates {
            by_shard[self.map.shard_of(block)].push(block);
        }
        for (shard, blocks) in by_shard.iter().enumerate() {
            if blocks.is_empty() {
                continue;
            }
            let _lock = self.update_locks[shard].lock();
            for &block in blocks {
                self.reseal_shard_locked(block)?;
            }
        }
        Ok(candidates)
    }

    /// Update one content block with the Figure 6 algorithm, concurrently
    /// safe: the relocation target is claimed atomically on the sharded map,
    /// and every block write happens under that block's shard update lock.
    pub fn update_block(
        &self,
        id: FileId,
        index: u64,
        payload: &[u8],
    ) -> Result<UpdateOutcome, AgentError> {
        let max_payload = self.fs.content_bytes_per_block();
        if payload.len() > max_payload {
            return Err(AgentError::PayloadTooLarge {
                got: payload.len(),
                max: max_payload,
            });
        }
        let _shared = self.structural.read();
        let file_lock = self.file_lock(id);
        let _file = file_lock.lock();

        let b1 = self.content_location(id, index)?;

        if !self.cfg.relocate_on_update {
            // Ablation mode (the paper's insufficient defence): dummy-update
            // stream only, data rewritten in place.
            let _shard = self.update_locks[self.map.shard_of(b1)].lock();
            self.read_for_accounting(b1)?;
            self.write_sealed_content(b1, payload)?;
            self.stats.count_iteration();
            self.stats.count_data_update();
            self.stats.count_in_place();
            return Ok(UpdateOutcome::InPlace { block: b1 });
        }

        for _attempt in 0..self.cfg.max_update_iterations {
            self.stats.count_iteration();
            let b2 = self.draw_candidate();

            if b2 == b1 {
                // Figure 6, first branch: update in place.
                let _shard = self.update_locks[self.map.shard_of(b1)].lock();
                self.read_for_accounting(b1)?;
                self.write_sealed_content(b1, payload)?;
                self.stats.count_data_update();
                self.stats.count_in_place();
                return Ok(UpdateOutcome::InPlace { block: b1 });
            }

            if self.map.claim(b2, BlockClass::Dummy, BlockClass::Data) {
                // Figure 6, second branch: substitute B2 for B1. B2 is ours
                // alone now (the claim was atomic), so write it, repoint the
                // header, then abandon B1. An I/O error before the header
                // repoint must release the claim, or B2 would stay classified
                // Data with no header referencing it — a permanent dummy-pool
                // leak.
                let io = (|| {
                    {
                        let _shard = self.update_locks[self.map.shard_of(b1)].lock();
                        self.read_for_accounting(b1)?;
                    }
                    let _shard = self.update_locks[self.map.shard_of(b2)].lock();
                    self.write_sealed_content(b2, payload)
                })();
                if let Err(e) = io {
                    self.map.set(b2, BlockClass::Dummy);
                    return Err(e);
                }
                self.registry
                    .write()
                    .relocate_content_block(id, index, b1, b2);
                self.map.set(b1, BlockClass::Dummy);
                self.stats.count_data_update();
                self.stats.count_relocation();
                return Ok(UpdateOutcome::Relocated { from: b1, to: b2 });
            }

            // Figure 6, third branch: B2 holds data — dummy-update it and try
            // again.
            self.dummy_update_locked(b2)?;
        }

        Err(AgentError::UpdateRetriesExhausted {
            attempts: self.cfg.max_update_iterations,
        })
    }

    fn read_for_accounting(&self, block: BlockId) -> Result<(), AgentError> {
        // Per-thread scratch: the Figure 6 loop must not allocate a block
        // buffer per iteration (same rationale as the sequential core's
        // scratch field, which a shared `&self` cannot reuse without a lock).
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.resize(self.fs.codec().block_size(), 0);
            self.fs.device().read_block(block, &mut scratch)
        })?;
        self.stats.count_data_io_pair();
        Ok(())
    }

    fn write_sealed_content(&self, block: BlockId, payload: &[u8]) -> Result<(), AgentError> {
        // Seal under the volume DRBG lock, write with it released — the lock
        // must never span a device wait (see `reseal_shard_locked`).
        let sealed = self
            .fs
            .with_rng(|rng| self.fs.codec().seal(&self.agent_key, payload, rng))?;
        self.fs.device().write_block(block, &sealed)?;
        Ok(())
    }

    /// Write back every dirty cached header. A structural operation (header
    /// and indirect writes bypass the shard locks).
    pub fn flush(&self) -> Result<(), AgentError> {
        let _exclusive = self.structural.write();
        let mut registry = self.registry.write();
        for id in registry.dirty_file_ids() {
            let file = registry.get_mut(id).ok_or(AgentError::UnknownFile(id))?;
            self.fs.save(file)?;
        }
        Ok(())
    }

    /// Update statistics collected so far.
    pub fn stats(&self) -> UpdateStats {
        self.stats.snapshot()
    }

    /// Current space utilisation.
    pub fn utilisation(&self) -> f64 {
        self.map.utilisation()
    }

    /// The sharded block map.
    pub fn map(&self) -> &ShardedBlockMap {
        &self.map
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.fs
    }

    /// Shard count of the map and the update-lock array.
    pub fn num_shards(&self) -> usize {
        self.update_locks.len()
    }

    /// The FAK of the agent-held dummy file.
    pub fn dummy_file_key(&self) -> &FileAccessKey {
        &self.dummy_fak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    fn agent(num_blocks: u64, shards: usize) -> ConcurrentAgent<MemDevice> {
        ConcurrentAgent::format(
            MemDevice::new(num_blocks, 512),
            StegFsConfig::default().with_block_size(512),
            AgentConfig::default(),
            Key256::from_passphrase("concurrent agent secret"),
            7,
            shards,
        )
        .unwrap()
    }

    #[test]
    fn create_update_read_roundtrip() {
        let agent = agent(512, 8);
        let user = Key256::from_passphrase("alice");
        let per = agent.fs().content_bytes_per_block();
        let content = vec![1u8; per * 5];
        let id = agent.create_file(&user, "/alice/db", &content).unwrap();
        assert_eq!(agent.num_blocks(id).unwrap(), 5);

        let new_block = vec![7u8; per];
        agent.update_block(id, 3, &new_block).unwrap();
        let read = agent.read_file(id).unwrap();
        assert_eq!(&read[3 * per..4 * per], &new_block[..]);
        assert_eq!(&read[..per], &content[..per]);
        assert_eq!(agent.read_block(id, 3).unwrap()[..per], new_block[..]);

        // Close the loop through a flush and a fresh open.
        agent.flush().unwrap();
        let id2 = agent.open_file(&user, "/alice/db").unwrap();
        assert_eq!(agent.read_file(id2).unwrap(), read);
    }

    #[test]
    fn dummy_batch_takes_each_shard_lock_once_and_counts() {
        let agent = agent(256, 4);
        let touched = agent.dummy_update_batch(64).unwrap();
        assert_eq!(touched.len(), 64);
        assert!(touched.iter().all(|&b| (1..256).contains(&b)));
        let stats = agent.stats();
        assert_eq!(stats.dummy_updates, 64);
        assert_eq!(stats.block_reads, 64);
        assert_eq!(stats.block_writes, 64);
    }

    #[test]
    fn dummy_updates_do_not_corrupt_data() {
        let agent = agent(256, 8);
        let user = Key256::from_passphrase("bob");
        let per = agent.fs().content_bytes_per_block();
        let content = vec![0x42u8; per * 4];
        let id = agent.create_file(&user, "/bob/f", &content).unwrap();
        for _ in 0..20 {
            agent.dummy_update_batch(10).unwrap();
        }
        assert_eq!(agent.read_file(id).unwrap(), content);
        assert_eq!(agent.stats().dummy_updates, 200);
    }

    #[test]
    fn concurrent_updates_and_reads_preserve_every_file() {
        let agent = agent(1024, 8);
        let per = agent.fs().content_bytes_per_block();
        let users = 4usize;
        let ids: Vec<FileId> = (0..users)
            .map(|u| {
                let secret = Key256::from_passphrase(&format!("user-{u}"));
                agent
                    .create_file(&secret, &format!("/u{u}"), &vec![u as u8; per * 4])
                    .unwrap()
            })
            .collect();

        std::thread::scope(|s| {
            for (u, &id) in ids.iter().enumerate() {
                let agent = &agent;
                s.spawn(move || {
                    for round in 0..8u64 {
                        let fill = (u as u8) ^ (round as u8) | 0x80;
                        agent.update_block(id, round % 4, &vec![fill; per]).unwrap();
                        agent.read_block(id, round % 4).unwrap();
                    }
                });
            }
            let agent = &agent;
            s.spawn(move || {
                for _ in 0..16 {
                    agent.dummy_update_batch(8).unwrap();
                }
            });
        });

        // Every file still reads back: position (round % 4) holds the last
        // fill its owner wrote.
        for (u, &id) in ids.iter().enumerate() {
            let read = agent.read_file(id).unwrap();
            let expected_last = (u as u8) ^ 7u8 | 0x80;
            assert_eq!(read[3 * per], expected_last, "user {u} block 3");
        }
        let stats = agent.stats();
        assert_eq!(stats.data_updates, users as u64 * 8);
        assert_eq!(
            stats.dummy_updates,
            128 + stats.iterations - stats.data_updates
        );
        assert!(agent.map().counters_are_consistent());
    }

    #[test]
    fn relocation_reclassifies_and_conserves_blocks() {
        let agent = agent(1024, 8);
        let user = Key256::from_passphrase("carol");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/c", &vec![1u8; per * 2]).unwrap();
        let before_data = agent.map().data_blocks();

        let mut relocated = false;
        for i in 0..20u64 {
            match agent.update_block(id, 0, &vec![i as u8; per]).unwrap() {
                UpdateOutcome::Relocated { from, to } => {
                    relocated = true;
                    assert_eq!(agent.map().class(from), BlockClass::Dummy);
                    assert_eq!(agent.map().class(to), BlockClass::Data);
                }
                UpdateOutcome::InPlace { .. } => {}
            }
        }
        assert!(relocated, "expected at least one relocation in 20 updates");
        // Relocation swaps classifications one for one.
        assert_eq!(agent.map().data_blocks(), before_data);
        assert!(agent.map().counters_are_consistent());
    }

    #[test]
    fn reopening_a_file_returns_the_same_id() {
        // Two sessions opening the same physical file must share one cached
        // header (and therefore one per-file update lock); a second id would
        // let concurrent updates diverge and the last flushed header win.
        let agent = agent(512, 8);
        let user = Key256::from_passphrase("erin");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/e", &vec![3u8; per * 2]).unwrap();
        agent.flush().unwrap();
        assert_eq!(agent.open_file(&user, "/e").unwrap(), id);
        assert_eq!(agent.open_file(&user, "/e").unwrap(), id);
        // Updates through the reopened handle land in the one shared header.
        agent.update_block(id, 1, &vec![9u8; per]).unwrap();
        assert_eq!(agent.read_block(id, 1).unwrap()[..per], vec![9u8; per][..]);
    }

    #[test]
    fn unknown_file_and_oversized_payload_error() {
        let agent = agent(256, 4);
        assert!(matches!(
            agent.read_file(999),
            Err(AgentError::UnknownFile(999))
        ));
        let user = Key256::from_passphrase("dan");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/d", &vec![0u8; per]).unwrap();
        assert!(matches!(
            agent.update_block(id, 0, &vec![0u8; per + 1]),
            Err(AgentError::PayloadTooLarge { .. })
        ));
        assert!(matches!(
            agent.update_block(id, 99, &vec![0u8; per]),
            Err(AgentError::Fs(stegfs_base::FsError::OutOfBounds { .. }))
        ));
    }
}
