//! Construction 1: the non-volatile agent (the paper's **StegHide\***).
//!
//! Section 4.1: the agent runs in a safe environment and owns a non-volatile
//! memory holding exactly two secrets — the volume-wide block encryption key
//! and the FAK of the dummy file. Every block on the volume is encrypted
//! under the single agent key; user file access keys only determine *where* a
//! file's header lives. Because the agent has a complete view of the volume,
//! it may select any block as a dummy-update or relocation target.

use stegfs_base::{BlockClass, BlockMap, FileAccessKey, StegFs, StegFsConfig};
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::Key256;

use crate::config::AgentConfig;
use crate::error::AgentError;
use crate::registry::{FileId, Registry};
use crate::stats::UpdateStats;
use crate::update::UpdateOutcome;

/// The non-volatile agent (StegHide\*).
pub struct NonVolatileAgent<D> {
    fs: StegFs<D>,
    map: BlockMap,
    registry: Registry,
    cfg: AgentConfig,
    stats: UpdateStats,
    agent_key: Key256,
    dummy_fak: FileAccessKey,
    /// Reusable block-sized buffer for accounting reads, so the per-iteration
    /// Figure 6 loop does not allocate.
    scratch: Vec<u8>,
}

impl<D: BlockDevice> NonVolatileAgent<D> {
    /// Format `device` as a fresh volume managed by this agent.
    ///
    /// `agent_key` is the secret the agent keeps in its non-volatile memory;
    /// `seed` drives all pseudo-random choices (block scattering, IVs, dummy
    /// targets) so experiments are reproducible.
    pub fn format(
        device: D,
        fs_cfg: StegFsConfig,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        seed: u64,
    ) -> Result<Self, AgentError> {
        let (fs, map) = StegFs::format(device, fs_cfg, seed)?;
        let mut agent = Self::new(fs, map, agent_cfg, agent_key);
        // The paper's construction keeps a dummy file whose FAK the agent
        // holds; all abandoned blocks conceptually belong to it. We
        // materialise its header so the construction is complete, while the
        // abandoned pool itself is tracked by the block map.
        agent
            .fs
            .create_dummy_file(&mut agent.map, "/.steghide-dummy", &agent.dummy_fak, 1)?;
        Ok(agent)
    }

    /// Re-attach the agent to an existing volume using its persistent secrets
    /// and the block map it saved (see [`NonVolatileAgent::export_block_map`]).
    ///
    /// `seed` seeds the volume DRBG that draws IVs and dummy-update and
    /// relocation targets, so every restart must pass a fresh one: a
    /// repeated seed replays the same IVs under the same agent key.
    pub fn mount(
        device: D,
        agent_cfg: AgentConfig,
        agent_key: Key256,
        block_map: BlockMap,
        seed: u64,
    ) -> Result<Self, AgentError> {
        let fs = StegFs::mount_with(device, StegFsConfig::default().header_probe_limit, seed)?;
        Ok(Self::new(fs, block_map, agent_cfg, agent_key))
    }

    fn new(fs: StegFs<D>, map: BlockMap, cfg: AgentConfig, agent_key: Key256) -> Self {
        Self {
            fs,
            map,
            registry: Registry::new(),
            cfg,
            stats: UpdateStats::default(),
            agent_key,
            dummy_fak: FileAccessKey::from_parts(
                agent_key.derive("steghide:dummy-file:location"),
                agent_key,
                Some(agent_key),
            ),
            scratch: Vec::new(),
        }
    }

    /// Serialize the agent's block map — the state it persists alongside its
    /// key so that a later [`NonVolatileAgent::mount`] has the complete view.
    pub fn export_block_map(&self) -> Vec<u8> {
        self.map.to_bytes()
    }

    /// The FAK of the agent-held dummy file.
    pub fn dummy_file_key(&self) -> &FileAccessKey {
        &self.dummy_fak
    }

    /// Effective FAK for a user file: the location comes from the user's
    /// secret and path, while header and content are encrypted under the
    /// agent's volume-wide key (Section 4.1.2: "the agent keeps two keys
    /// \[...\] the other is the secret key for encrypting all the storage
    /// blocks").
    fn effective_fak(&self, user_secret: &Key256) -> FileAccessKey {
        FileAccessKey::from_parts(
            user_secret.derive("steghide:location"),
            self.agent_key,
            Some(self.agent_key),
        )
    }

    /// Create a hidden file for a user and leave it open; returns its id.
    pub fn create_file(
        &mut self,
        user_secret: &Key256,
        path: &str,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        let fak = self.effective_fak(user_secret);
        let file = self.fs.create_file(&mut self.map, path, &fak, content)?;
        Ok(self.registry.register(file))
    }

    /// Create a hidden file of `size` bytes without writing its content
    /// blocks (benchmark set-up helper; reads and updates behave identically
    /// to a fully written file).
    pub fn create_file_sparse(
        &mut self,
        user_secret: &Key256,
        path: &str,
        size: u64,
    ) -> Result<FileId, AgentError> {
        let fak = self.effective_fak(user_secret);
        let file = self
            .fs
            .create_file_sparse(&mut self.map, path, &fak, size)?;
        Ok(self.registry.register(file))
    }

    /// Open an existing hidden file; returns its id.
    pub fn open_file(&mut self, user_secret: &Key256, path: &str) -> Result<FileId, AgentError> {
        let fak = self.effective_fak(user_secret);
        let file = self.fs.open_file(&fak, path)?;
        Ok(self.registry.register(file))
    }

    /// Save (if dirty) and close an open file.
    pub fn close_file(&mut self, id: FileId) -> Result<(), AgentError> {
        self.save_file(id)?;
        self.registry.unregister(id);
        Ok(())
    }

    /// Read a whole open file.
    pub fn read_file(&self, id: FileId) -> Result<Vec<u8>, AgentError> {
        let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.fs.read_file(file)?)
    }

    /// Read one content block of an open file.
    pub fn read_block(&self, id: FileId, index: u64) -> Result<Vec<u8>, AgentError> {
        let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.fs.read_content_block(file, index)?)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, id: FileId) -> Result<u64, AgentError> {
        Ok(self
            .registry
            .get(id)
            .ok_or(AgentError::UnknownFile(id))?
            .num_content_blocks())
    }

    /// Update one content block using the Figure 6 algorithm: the block
    /// moves to a uniformly random position, found by drawing candidates
    /// from the whole volume until one is in place or abandoned.
    pub fn update_block(
        &mut self,
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
        let file = self.registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        let b1 = *file
            .header
            .blocks
            .get(index as usize)
            .ok_or(AgentError::Fs(stegfs_base::FsError::OutOfBounds {
                index,
                len: file.header.num_blocks(),
            }))?;

        if !self.cfg.relocate_on_update {
            // Ablation mode: dummy-update stream only, data rewritten in
            // place. This is what the paper argues is insufficient.
            self.read_block_for_accounting(b1)?;
            self.write_sealed_content(b1, payload)?;
            self.stats.data_updates += 1;
            self.stats.iterations += 1;
            self.stats.in_place += 1;
            return Ok(UpdateOutcome::InPlace { block: b1 });
        }

        for _attempt in 0..self.cfg.max_update_iterations {
            self.stats.iterations += 1;
            let b2 = self.fs.random_payload_block();

            if b2 == b1 {
                // Figure 6, first branch: update in place.
                self.read_block_for_accounting(b1)?;
                self.write_sealed_content(b1, payload)?;
                self.stats.data_updates += 1;
                self.stats.in_place += 1;
                return Ok(UpdateOutcome::InPlace { block: b1 });
            }

            if self.map.class(b2) == BlockClass::Dummy {
                // Figure 6, second branch: substitute the abandoned B2 for B1.
                self.read_block_for_accounting(b1)?;
                self.write_sealed_content(b2, payload)?;
                self.map.set(b2, BlockClass::Data);
                self.map.set(b1, BlockClass::Dummy);
                self.registry.relocate_content_block(id, index, b1, b2);
                self.stats.data_updates += 1;
                self.stats.relocations += 1;
                return Ok(UpdateOutcome::Relocated { from: b1, to: b2 });
            }

            // Figure 6, third branch: B2 holds data — dummy-update it and try
            // again.
            self.dummy_update_block(b2)?;
        }

        Err(AgentError::UpdateRetriesExhausted {
            attempts: self.cfg.max_update_iterations,
        })
    }

    /// Update `count` consecutive content blocks starting at `start_index`,
    /// filling each with `fill` — the paper's "update range" workload
    /// (Figure 11(b)).
    pub fn update_range_fill(
        &mut self,
        id: FileId,
        start_index: u64,
        count: u64,
        fill: u8,
    ) -> Result<Vec<UpdateOutcome>, AgentError> {
        let payload = vec![fill; self.fs.content_bytes_per_block()];
        (start_index..start_index + count)
            .map(|i| self.update_block(id, i, &payload))
            .collect()
    }

    fn read_block_for_accounting(&mut self, block: u64) -> Result<(), AgentError> {
        self.scratch.resize(self.fs.codec().block_size(), 0);
        self.fs.device().read_block(block, &mut self.scratch)?;
        self.stats.block_reads += 1;
        Ok(())
    }

    fn write_sealed_content(&mut self, block: u64, payload: &[u8]) -> Result<(), AgentError> {
        self.fs.with_rng(|rng| {
            self.fs
                .codec()
                .write_sealed(self.fs.device(), block, &self.agent_key, payload, rng)
        })?;
        self.stats.block_writes += 1;
        Ok(())
    }

    /// Dummy-update `block` (read, refresh IV, re-encrypt under the agent
    /// key, write back) and account for its two I/Os.
    fn dummy_update_block(&mut self, block: u64) -> Result<(), AgentError> {
        self.fs.reseal_block(block, &self.agent_key)?;
        self.stats.block_reads += 1;
        self.stats.block_writes += 1;
        self.stats.dummy_updates += 1;
        Ok(())
    }

    /// Save the cached header of an open file.
    pub fn save_file(&mut self, id: FileId) -> Result<(), AgentError> {
        let file = self
            .registry
            .get_mut(id)
            .ok_or(AgentError::UnknownFile(id))?;
        Ok(self.fs.save(file)?)
    }

    /// Save every dirty cached header.
    pub fn flush(&mut self) -> Result<(), AgentError> {
        for id in self.registry.dirty_file_ids() {
            self.save_file(id)?;
        }
        Ok(())
    }

    /// Delete an open file, returning its blocks to the dummy pool.
    pub fn delete_file(&mut self, id: FileId) -> Result<(), AgentError> {
        let file = self
            .registry
            .unregister(id)
            .ok_or(AgentError::UnknownFile(id))?;
        self.fs.delete_file(&mut self.map, file)?;
        Ok(())
    }

    /// Perform the configured number of idle-time dummy updates
    /// (Section 4.1.3) on uniformly random blocks; returns the blocks
    /// touched.
    pub fn tick_idle(&mut self) -> Result<Vec<u64>, AgentError> {
        (0..self.cfg.dummy_updates_per_tick)
            .map(|_| self.dummy_update_once())
            .collect()
    }

    /// Issue exactly `n` dummy updates (used by experiments that control the
    /// dummy/data mix precisely).
    pub fn dummy_updates(&mut self, n: u64) -> Result<(), AgentError> {
        for _ in 0..n {
            self.dummy_update_once()?;
        }
        Ok(())
    }

    /// Dummy-update one uniformly random block; returns the block.
    fn dummy_update_once(&mut self) -> Result<u64, AgentError> {
        let block = self.fs.random_payload_block();
        self.dummy_update_block(block)?;
        Ok(block)
    }

    /// Update statistics collected so far.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Current space utilisation (`data blocks / payload blocks`).
    pub fn utilisation(&self) -> f64 {
        self.map.utilisation()
    }

    /// The underlying file system (for experiment plumbing).
    pub fn fs(&self) -> &StegFs<D> {
        &self.fs
    }

    /// The agent's block map.
    pub fn block_map(&self) -> &BlockMap {
        &self.map
    }

    /// Consume the agent and return the underlying device.
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_base::BlockClass;
    use stegfs_blockdev::MemDevice;

    fn new_agent(num_blocks: u64) -> NonVolatileAgent<MemDevice> {
        NonVolatileAgent::format(
            MemDevice::new(num_blocks, 512),
            StegFsConfig::default().with_block_size(512),
            AgentConfig::default(),
            Key256::from_passphrase("agent secret"),
            7,
        )
        .unwrap()
    }

    #[test]
    fn create_update_read_roundtrip() {
        let mut agent = new_agent(512);
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

        // Close and reopen: relocations must have been persisted.
        agent.close_file(id).unwrap();
        let id2 = agent.open_file(&user, "/alice/db").unwrap();
        let read2 = agent.read_file(id2).unwrap();
        assert_eq!(read2, read);
    }

    #[test]
    fn mount_with_exported_map_preserves_view() {
        let mut agent = new_agent(256);
        let user = Key256::from_passphrase("bob");
        let per = agent.fs().content_bytes_per_block();
        let id = agent
            .create_file(&user, "/bob/f", &vec![9u8; per * 2])
            .unwrap();
        agent.close_file(id).unwrap();
        let map_bytes = agent.export_block_map();
        let data_blocks = agent.block_map().data_blocks();

        let device = agent.into_device();
        let map = BlockMap::from_bytes(&map_bytes).unwrap();
        let mut remounted = NonVolatileAgent::mount(
            device,
            AgentConfig::default(),
            Key256::from_passphrase("agent secret"),
            map,
            99,
        )
        .unwrap();
        assert_eq!(remounted.block_map().data_blocks(), data_blocks);
        let id = remounted.open_file(&user, "/bob/f").unwrap();
        assert_eq!(remounted.read_file(id).unwrap(), vec![9u8; per * 2]);
    }

    #[test]
    fn mount_seed_drives_victims_and_ivs() {
        // Two restarts of one volume with different seeds must draw
        // different dummy-update victims and seal under different IVs; a
        // replayed stream would repeat IVs under the one agent key.
        let mut agent = new_agent(512);
        let user = Key256::from_passphrase("carol");
        let id = agent.create_file(&user, "/carol/f", b"payload").unwrap();
        agent.close_file(id).unwrap();
        let map_bytes = agent.export_block_map();
        let device = agent.into_device();

        let runs: Vec<(Vec<u64>, Vec<u8>)> = [11u64, 999_999]
            .iter()
            .map(|&seed| {
                let mut agent = NonVolatileAgent::mount(
                    stegfs_blockdev::clone_to_mem(&device).unwrap(),
                    AgentConfig::default()
                        .without_relocation()
                        .with_dummy_updates_per_tick(20),
                    Key256::from_passphrase("agent secret"),
                    BlockMap::from_bytes(&map_bytes).unwrap(),
                    seed,
                )
                .unwrap();
                let victims = agent.tick_idle().unwrap();
                let id = agent.open_file(&user, "/carol/f").unwrap();
                let block = agent.update_block(id, 0, b"same").unwrap().current_block();
                let mut raw = vec![0u8; 512];
                agent.fs().device().read_block(block, &mut raw).unwrap();
                (victims, raw[..stegfs_base::IV_SIZE].to_vec())
            })
            .collect();
        assert_ne!(runs[0].0, runs[1].0, "two mounts drew the same victims");
        assert_ne!(runs[0].1, runs[1].1, "two mounts replayed the same IV");
    }

    #[test]
    fn wrong_user_secret_cannot_open() {
        let mut agent = new_agent(256);
        let user = Key256::from_passphrase("alice");
        agent.create_file(&user, "/f", b"secret").unwrap();
        let wrong = Key256::from_passphrase("eve");
        assert!(agent.open_file(&wrong, "/f").is_err());
    }

    #[test]
    fn tick_idle_issues_dummy_updates_without_corruption() {
        let mut agent = new_agent(256);
        let user = Key256::from_passphrase("alice");
        let content = vec![3u8; 1000];
        let id = agent.create_file(&user, "/f", &content).unwrap();
        for _ in 0..50 {
            agent.tick_idle().unwrap();
        }
        assert_eq!(agent.stats().dummy_updates, 50);
        assert_eq!(agent.read_file(id).unwrap(), content);
    }

    #[test]
    fn delete_restores_dummy_pool() {
        let mut agent = new_agent(256);
        let user = Key256::from_passphrase("alice");
        let before = agent.block_map().dummy_blocks();
        let id = agent.create_file(&user, "/f", &vec![1u8; 3000]).unwrap();
        assert!(agent.block_map().dummy_blocks() < before);
        agent.delete_file(id).unwrap();
        assert_eq!(agent.block_map().dummy_blocks(), before);
        assert!(agent.read_file(id).is_err());
    }

    #[test]
    fn relocation_moves_block_to_dummy_class_target() {
        let mut agent = new_agent(1024);
        let user = Key256::from_passphrase("alice");
        let per = agent.fs().content_bytes_per_block();
        let id = agent.create_file(&user, "/f", &vec![1u8; per * 2]).unwrap();
        // Force enough updates that at least one relocation occurs.
        let mut saw_relocation = false;
        for i in 0..20u64 {
            if let UpdateOutcome::Relocated { from, to } =
                agent.update_block(id, 0, &vec![i as u8; per]).unwrap()
            {
                saw_relocation = true;
                assert_eq!(agent.block_map().class(from), BlockClass::Dummy);
                assert_eq!(agent.block_map().class(to), BlockClass::Data);
            }
        }
        assert!(saw_relocation);
    }

    #[test]
    fn utilisation_reflects_allocations() {
        let mut agent = new_agent(512);
        assert!(agent.utilisation() < 0.02);
        let user = Key256::from_passphrase("u");
        let per = agent.fs().content_bytes_per_block();
        agent
            .create_file(&user, "/f", &vec![0u8; per * 100])
            .unwrap();
        assert!(agent.utilisation() > 0.15);
    }
}
