//! Construction 2: the volatile agent (the paper's **StegHide**), served by
//! many threads.
//!
//! Section 4.2: the agent keeps *no* persistent secrets. Each hidden file is
//! encrypted under its own keys, dummy blocks are organised into per-user
//! dummy files "of approximately the size of data files", and both kinds of
//! FAK are disclosed to the agent only when the user logs on. When the agent
//! starts it has zero knowledge of the volume; its view — and therefore the
//! region of storage it dummy-updates — grows as users log in, and is
//! forgotten again at logout or restart.
//!
//! Volumes are provisioned before the agent goes live, directly on the
//! substrate: [`StegFs::format`], then `create_file` / `create_dummy_file`
//! (or their `_sparse` forms) for each user, then [`StegFs::into_device`]
//! and [`ConcurrentVolatileAgent::mount`]. The agent joins Construction 2's
//! semantics with [`ConcurrentAgent`](crate::concurrent)'s lock
//! decomposition:
//!
//! * the **block map** is a [`ShardedBlockMap`] starting all-`Unknown` at
//!   mount; relocation targets are claimed atomically so two updates cannot
//!   convert the same disclosed dummy block;
//! * **login, logout and file creation are structural**: they open, forget
//!   or create files, re-classify all their blocks and mutate the registry
//!   wholesale, so they take the write side of the structural `RwLock` every per-block
//!   operation holds for read — a logout can never race a read or update of
//!   the session's own blocks;
//! * the **session table is sharded** by session id: ownership checks on
//!   different shards never contend, and a login storm distributes its
//!   bookkeeping instead of serialising on one map;
//! * per-block read-modify-writes run under the **per-shard update lock** of
//!   the block they touch, per-file header bookkeeping under a per-file
//!   lock, and the **read path is shared** (registry read lock held across
//!   the device read pins a block's location against relocation);
//! * **dummy-update victims** are drawn from the *known* universe only — the
//!   blocks of files disclosed by logged-in sessions, exactly Construction
//!   2's visibility rule. A victim that is mid-conversion (claimed as a
//!   relocation target but not yet repointed in the registry) is skipped
//!   under its shard lock rather than re-randomised, which would destroy the
//!   just-written data.
//!
//! Sessions of the same user may overlap: files are reference-counted, so a
//! file stays registered (and its blocks stay visible) until the last
//! session disclosing it logs out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use stegfs_base::{BlockClass, FileAccessKey, FileKind, ShardedBlockMap, StegFs, StegFsConfig};
use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{HashDrbg, Key256};

use crate::config::AgentConfig;
use crate::error::AgentError;
use crate::registry::{BlockRole, FileId, Registry};
use crate::stats::{SharedUpdateStats, UpdateStats};
use crate::update::UpdateOutcome;

/// Identifier of a login session.
pub type SessionId = u64;

/// One (path, FAK) pair a user discloses when logging on. Users disclose
/// their hidden files *and* their dummy files — the agent cannot tell which
/// is which until it opens the header, and the distinction never leaves the
/// agent's volatile memory.
#[derive(Debug, Clone)]
pub struct UserCredential {
    /// Path of the file.
    pub path: String,
    /// File access key.
    pub fak: FileAccessKey,
}

impl UserCredential {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, fak: FileAccessKey) -> Self {
        Self {
            path: path.into(),
            fak,
        }
    }
}

struct Session {
    user: String,
    files: Vec<FileId>,
}

/// How a dummy update must treat its victim, resolved under the victim's
/// shard lock.
enum Reseal {
    /// Decrypt under this key, refresh the IV, re-encrypt, write back.
    Key(Key256),
    /// Meaningless bytes: read (to keep the I/O signature) and re-randomise.
    Random,
    /// Mid-conversion (claimed relocation target) — touching it would
    /// destroy data that the registry does not yet attribute.
    Skip,
}

/// Lock-decomposed volatile agent (Construction 2 keying, per-session
/// registry sharding).
pub struct ConcurrentVolatileAgent<D> {
    fs: StegFs<D>,
    map: ShardedBlockMap,
    registry: RwLock<Registry>,
    /// Sessions, sharded by `session % shards`.
    sessions: Vec<RwLock<HashMap<SessionId, Session>>>,
    /// How many live sessions disclosed each registered file.
    open_counts: Mutex<HashMap<FileId, usize>>,
    /// One lock per map shard; held across every read-modify-write of a
    /// block in that shard.
    update_locks: Vec<Mutex<()>>,
    /// Read side: per-block traffic. Write side: login, logout, file
    /// creation, flush — multi-file structural operations.
    structural: RwLock<()>,
    /// Serialises updates of the same file.
    file_locks: Mutex<HashMap<FileId, Arc<Mutex<()>>>>,
    next_session: AtomicU64,
    cfg: AgentConfig,
    stats: SharedUpdateStats,
    rng: Mutex<HashDrbg>,
}

impl<D: BlockDevice> ConcurrentVolatileAgent<D> {
    /// Attach to an existing volume with zero knowledge, the production
    /// posture of Construction 2: every payload block starts out
    /// [`BlockClass::Unknown`] and the agent only ever touches blocks of
    /// files that logged-in users disclose. The volume is provisioned
    /// beforehand through [`StegFs`] (see the module docs).
    ///
    /// `seed` seeds both the victim sampler and the volume DRBG that draws
    /// IVs, so every restart must pass a fresh one: a repeated seed replays
    /// the same IVs under the users' keys.
    pub fn mount(
        device: D,
        agent_cfg: AgentConfig,
        seed: u64,
        num_shards: usize,
    ) -> Result<Self, AgentError> {
        let fs = StegFs::mount_with(device, StegFsConfig::default().header_probe_limit, seed)?;
        let map = ShardedBlockMap::new_unknown(fs.superblock().num_blocks, num_shards);
        Ok(Self {
            fs,
            map,
            registry: RwLock::new(Registry::new()),
            sessions: (0..num_shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            open_counts: Mutex::new(HashMap::new()),
            update_locks: (0..num_shards).map(|_| Mutex::new(())).collect(),
            structural: RwLock::new(()),
            file_locks: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            cfg: agent_cfg,
            stats: SharedUpdateStats::default(),
            rng: Mutex::new(HashDrbg::new(&(seed ^ 0x9e3779b9).to_be_bytes())),
        })
    }

    fn session_shard(&self, session: SessionId) -> &RwLock<HashMap<SessionId, Session>> {
        &self.sessions[(session as usize) % self.sessions.len()]
    }

    fn file_lock(&self, id: FileId) -> Arc<Mutex<()>> {
        self.file_locks
            .lock()
            .entry(id)
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }

    /// Log a user on: open every disclosed file, add its blocks to the
    /// agent's view, and return the session id. Structural: takes the write
    /// lock, so it excludes all per-block traffic for its duration.
    pub fn login(
        &self,
        user: &str,
        credentials: &[UserCredential],
    ) -> Result<SessionId, AgentError> {
        let _exclusive = self.structural.write();
        let mut registry = self.registry.write();
        let mut counts = self.open_counts.lock();
        let mut files = Vec::with_capacity(credentials.len());
        let mut opened: Vec<FileId> = Vec::new();
        let result = (|| {
            for cred in credentials {
                let file = self.fs.open_file(&cred.fak, &cred.path)?;
                // Re-disclosure of an already-registered file (another live
                // session of the same user) reuses the id — two cached
                // headers for one physical file would diverge.
                let id = match registry.owner_of(file.header_location) {
                    Some((existing, BlockRole::Header)) => existing,
                    _ => {
                        self.fs.register_file(&mut &self.map, &file);
                        registry.register(file)
                    }
                };
                *counts.entry(id).or_insert(0) += 1;
                opened.push(id);
                files.push(id);
            }
            Ok(())
        })();
        if let Err(e) = result {
            // Roll back the files this login already opened.
            for id in opened {
                Self::release_file(&self.fs, &self.map, &mut registry, &mut counts, id);
            }
            return Err(e);
        }
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.session_shard(session).write().insert(
            session,
            Session {
                user: user.to_string(),
                files,
            },
        );
        Ok(session)
    }

    /// Drop one disclosure of `id`; on the last one, persist the header and
    /// forget the file's keys and block classifications.
    fn release_file(
        fs: &StegFs<D>,
        map: &ShardedBlockMap,
        registry: &mut Registry,
        counts: &mut HashMap<FileId, usize>,
        id: FileId,
    ) {
        let remaining = match counts.get_mut(&id) {
            Some(n) => {
                *n -= 1;
                *n
            }
            None => return,
        };
        if remaining > 0 {
            return;
        }
        counts.remove(&id);
        if let Some(file) = registry.get_mut(id) {
            if file.dirty {
                // A failed header save must not leak the blocks into the
                // permanent view; the file stays reachable via its FAK.
                let _ = fs.save(file);
            }
        }
        if let Some(file) = registry.unregister(id) {
            for b in file.all_blocks() {
                map.set(b, BlockClass::Unknown);
            }
        }
    }

    /// Log a user off: persist dirty headers, then forget every file, key
    /// and block classification the session contributed (unless another live
    /// session still disclosed the same file). Structural.
    pub fn logout(&self, session: SessionId) -> Result<(), AgentError> {
        let _exclusive = self.structural.write();
        let state = self
            .session_shard(session)
            .write()
            .remove(&session)
            .ok_or(AgentError::UnknownSession(session))?;
        let mut registry = self.registry.write();
        let mut counts = self.open_counts.lock();
        for id in state.files {
            Self::release_file(&self.fs, &self.map, &mut registry, &mut counts, id);
        }
        Ok(())
    }

    /// Users currently logged in (sorted, duplicates preserved per session).
    pub fn logged_in_users(&self) -> Vec<String> {
        let mut users: Vec<String> = self
            .sessions
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .values()
                    .map(|s| s.user.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        users.sort();
        users
    }

    /// File ids registered by a session, in credential order.
    pub fn session_files(&self, session: SessionId) -> Result<Vec<FileId>, AgentError> {
        Ok(self
            .session_shard(session)
            .read()
            .get(&session)
            .ok_or(AgentError::UnknownSession(session))?
            .files
            .clone())
    }

    fn check_ownership(&self, session: SessionId, id: FileId) -> Result<(), AgentError> {
        let shard = self.session_shard(session).read();
        let s = shard
            .get(&session)
            .ok_or(AgentError::UnknownSession(session))?;
        if s.files.contains(&id) {
            Ok(())
        } else {
            Err(AgentError::UnknownFile(id))
        }
    }

    /// Create a new hidden file for a logged-in user by converting blocks of
    /// the disclosed dummy files into data blocks — how new data enters the
    /// system at runtime without any global free-space knowledge. The donor
    /// dummy files shrink in place and keep their ids. Structural.
    pub fn create_file_from_dummies(
        &self,
        session: SessionId,
        path: &str,
        fak: &FileAccessKey,
        content: &[u8],
    ) -> Result<FileId, AgentError> {
        let _exclusive = self.structural.write();
        if !self.session_shard(session).read().contains_key(&session) {
            return Err(AgentError::UnknownSession(session));
        }
        let file = self.fs.create_file(&mut &self.map, path, fak, content)?;
        self.fs.register_file(&mut &self.map, &file);
        let id = {
            let mut registry = self.registry.write();
            registry
                .donate_dummy_blocks(&file.all_blocks(), self.fs.content_bytes_per_block() as u64);
            registry.register(file)
        };
        self.open_counts.lock().insert(id, 1);
        self.session_shard(session)
            .write()
            .get_mut(&session)
            .expect("the structural lock pins the session")
            .files
            .push(id);
        Ok(id)
    }

    /// Read a whole file. The registry read lock is held across the device
    /// reads, so the result is a consistent snapshot (relocations wait).
    pub fn read_file(&self, session: SessionId, id: FileId) -> Result<Vec<u8>, AgentError> {
        let _shared = self.structural.read();
        self.check_ownership(session, id)?;
        let registry = self.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.fs.read_file(file)?)
    }

    /// Read one content block.
    pub fn read_block(
        &self,
        session: SessionId,
        id: FileId,
        index: u64,
    ) -> Result<Vec<u8>, AgentError> {
        let _shared = self.structural.read();
        self.check_ownership(session, id)?;
        let registry = self.registry.read();
        let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
        Ok(self.fs.read_content_block(file, index)?)
    }

    /// Number of content blocks of an open file.
    pub fn num_blocks(&self, session: SessionId, id: FileId) -> Result<u64, AgentError> {
        self.check_ownership(session, id)?;
        Ok(self
            .registry
            .read()
            .get(id)
            .ok_or(AgentError::UnknownFile(id))?
            .num_content_blocks())
    }

    /// Draw one victim from the known universe.
    fn draw_known(&self) -> Option<BlockId> {
        let registry = self.registry.read();
        let mut rng = self.rng.lock();
        registry.random_known_block(&mut rng)
    }

    /// Resolve how to reseal `block`. Must be called under the block's shard
    /// update lock so the answer cannot go stale against a concurrent
    /// relocation (see [`Reseal::Skip`]).
    fn reseal_action(&self, block: BlockId) -> Reseal {
        let registry = self.registry.read();
        let Some((fid, role)) = registry.owner_of(block) else {
            // Disclosed when drawn, logged out since: structural read vs
            // write makes this unreachable, but Skip is the safe answer.
            return Reseal::Skip;
        };
        let Some(file) = registry.get(fid) else {
            return Reseal::Skip;
        };
        match role {
            BlockRole::Header | BlockRole::Indirect(_) => Reseal::Key(*file.fak.header_key()),
            BlockRole::Content(_) => match (file.header.kind, file.fak.content_key()) {
                (FileKind::Data, Some(key)) => Reseal::Key(*key),
                _ => {
                    if self.map.class(block) == BlockClass::Data {
                        // Claimed as a relocation target, not yet repointed:
                        // it may already hold fresh data sealed under a key
                        // the registry does not know yet.
                        Reseal::Skip
                    } else {
                        Reseal::Random
                    }
                }
            },
        }
    }

    /// Dummy-update `block` under its shard lock. Returns whether the block
    /// was actually touched.
    fn dummy_update_locked(&self, block: BlockId) -> Result<bool, AgentError> {
        let _shard = self.update_locks[self.map.shard_of(block)].lock();
        match self.reseal_action(block) {
            Reseal::Key(key) => {
                let codec = self.fs.codec();
                let plaintext = codec.read_sealed(self.fs.device(), block, &key)?;
                let sealed = self.fs.with_rng(|rng| codec.seal(&key, &plaintext, rng))?;
                self.fs.device().write_block(block, &sealed)?;
            }
            Reseal::Random => {
                let block_size = self.fs.codec().block_size();
                let mut scratch = vec![0u8; block_size];
                self.fs.device().read_block(block, &mut scratch)?;
                self.fs.randomize_block(block)?;
            }
            Reseal::Skip => return Ok(false),
        }
        self.stats.count_dummy_update();
        Ok(true)
    }

    /// Issue one idle-time dummy update; returns the block touched. With
    /// nobody logged in there is nothing the agent can touch
    /// ([`AgentError::NothingToUpdate`]) — the price of volatility.
    pub fn dummy_update_once(&self) -> Result<BlockId, AgentError> {
        let _shared = self.structural.read();
        loop {
            let block = self.draw_known().ok_or(AgentError::NothingToUpdate)?;
            if self.dummy_update_locked(block)? {
                return Ok(block);
            }
        }
    }

    /// Issue the configured number of idle-time dummy updates.
    pub fn tick_idle(&self) -> Result<Vec<BlockId>, AgentError> {
        let n = self.cfg.dummy_updates_per_tick;
        let mut touched = Vec::with_capacity(n as usize);
        for _ in 0..n {
            touched.push(self.dummy_update_once()?);
        }
        Ok(touched)
    }

    /// Update one content block with the Figure 6 algorithm, concurrently
    /// safe: the relocation target (a disclosed dummy-file block) is claimed
    /// atomically on the sharded map, and every block write happens under
    /// that block's shard update lock.
    pub fn update_block(
        &self,
        session: SessionId,
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
        self.check_ownership(session, id)?;
        let file_lock = self.file_lock(id);
        let _file = file_lock.lock();

        let (b1, content_key) = {
            let registry = self.registry.read();
            let file = registry.get(id).ok_or(AgentError::UnknownFile(id))?;
            let b1 = *file
                .header
                .blocks
                .get(index as usize)
                .ok_or(AgentError::Fs(stegfs_base::FsError::OutOfBounds {
                    index,
                    len: file.header.num_blocks(),
                }))?;
            let key = file
                .fak
                .content_key()
                .copied()
                .ok_or(AgentError::Fs(stegfs_base::FsError::NoContentKey))?;
            (b1, key)
        };

        if !self.cfg.relocate_on_update {
            // Ablation mode (the paper's insufficient defence).
            let _shard = self.update_locks[self.map.shard_of(b1)].lock();
            self.read_for_accounting(b1)?;
            self.write_sealed_content(b1, &content_key, payload)?;
            self.stats.count_iteration();
            self.stats.count_data_update();
            self.stats.count_in_place();
            return Ok(UpdateOutcome::InPlace { block: b1 });
        }

        for _attempt in 0..self.cfg.max_update_iterations {
            self.stats.count_iteration();
            let b2 = self.draw_known().ok_or(AgentError::NoDummyBlocks)?;

            if b2 == b1 {
                // Figure 6, first branch: update in place.
                let _shard = self.update_locks[self.map.shard_of(b1)].lock();
                self.read_for_accounting(b1)?;
                self.write_sealed_content(b1, &content_key, payload)?;
                self.stats.count_data_update();
                self.stats.count_in_place();
                return Ok(UpdateOutcome::InPlace { block: b1 });
            }

            // A viable swap target is a content block of a disclosed *dummy*
            // file (Section 4.2.2 — the user's own decoys), atomically
            // claimed so no other update converts it concurrently.
            let target = {
                let registry = self.registry.read();
                match registry.owner_of(b2) {
                    Some((fid, BlockRole::Content(idx)))
                        if registry
                            .get(fid)
                            .map(|f| f.header.kind == FileKind::Dummy)
                            .unwrap_or(false) =>
                    {
                        Some((fid, idx))
                    }
                    _ => None,
                }
            };
            if let Some((dummy_fid, dummy_idx)) = target {
                if self.map.claim(b2, BlockClass::Dummy, BlockClass::Data) {
                    // Figure 6, second branch: substitute B2 for B1. B2 is
                    // ours alone now; write it, then repoint both headers in
                    // one registry transaction, then abandon B1 into the
                    // dummy file. An I/O error before the repoint releases
                    // the claim.
                    let io = (|| {
                        {
                            let _shard = self.update_locks[self.map.shard_of(b1)].lock();
                            self.read_for_accounting(b1)?;
                        }
                        let _shard = self.update_locks[self.map.shard_of(b2)].lock();
                        self.write_sealed_content(b2, &content_key, payload)
                    })();
                    if let Err(e) = io {
                        self.map.set(b2, BlockClass::Dummy);
                        return Err(e);
                    }
                    self.registry
                        .write()
                        .swap_with_dummy(id, index, b1, dummy_fid, dummy_idx, b2);
                    self.map.set(b1, BlockClass::Dummy);
                    self.stats.count_data_update();
                    self.stats.count_relocation();
                    return Ok(UpdateOutcome::Relocated { from: b1, to: b2 });
                }
                // Claim lost to a concurrent update: B2 is mid-conversion,
                // fall through to the retry (the dummy update will skip it).
            }

            // Figure 6, third branch: B2 holds data — dummy-update it and
            // try again.
            self.dummy_update_locked(b2)?;
        }

        Err(AgentError::UpdateRetriesExhausted {
            attempts: self.cfg.max_update_iterations,
        })
    }

    fn read_for_accounting(&self, block: BlockId) -> Result<(), AgentError> {
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

    fn write_sealed_content(
        &self,
        block: BlockId,
        key: &Key256,
        payload: &[u8],
    ) -> Result<(), AgentError> {
        // Seal under the volume DRBG lock, write with it released — the lock
        // must never span a device wait.
        let sealed = self
            .fs
            .with_rng(|rng| self.fs.codec().seal(key, payload, rng))?;
        self.fs.device().write_block(block, &sealed)?;
        Ok(())
    }

    /// Write back every dirty cached header. Structural.
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

    /// The sharded block map.
    pub fn map(&self) -> &ShardedBlockMap {
        &self.map
    }

    /// Quiesce all traffic (structural write lock — per-block ops hold the
    /// read side) and audit the map: cached per-shard counters agree with
    /// the class vectors and every block is in exactly one class. The only
    /// way to observe counter consistency while other threads are live;
    /// sampling [`ConcurrentVolatileAgent::map`] mid-flight races in-flight
    /// claim/counter pairs by design.
    pub fn audit_map_consistency(&self) -> bool {
        let _exclusive = self.structural.write();
        self.map.counters_are_consistent()
            && self.map.data_blocks()
                + self.map.dummy_blocks()
                + self.map.unknown_blocks()
                + self.map.reserved_blocks()
                == self.map.num_blocks()
    }

    /// The underlying file system.
    pub fn fs(&self) -> &StegFs<D> {
        &self.fs
    }

    /// Shard count of the map, the update-lock array and the session table.
    pub fn num_shards(&self) -> usize {
        self.update_locks.len()
    }

    /// Consume the agent and return the underlying device (simulated agent
    /// restart — all volatile knowledge is forgotten).
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    /// Provision a volume with two users, each owning a data and a dummy
    /// file, directly on the substrate; returns the device and the content.
    fn provision() -> (MemDevice, Vec<u8>) {
        let fs_cfg = StegFsConfig::default().with_block_size(512);
        let (fs, mut map) = StegFs::format(MemDevice::new(2048, 512), fs_cfg, 21).unwrap();
        let per = fs.content_bytes_per_block();
        let content = (0..per * 6).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
        for user in ["alice", "bob"] {
            fs.create_file(
                &mut map,
                &format!("/{user}/data"),
                &FileAccessKey::from_passphrase(&format!("{user}-data")),
                &content,
            )
            .unwrap();
            fs.create_dummy_file(
                &mut map,
                &format!("/{user}/dummy"),
                &FileAccessKey::from_passphrase(&format!("{user}-dummy")).without_content_key(),
                8,
            )
            .unwrap();
        }
        (fs.into_device(), content)
    }

    /// Mount the concurrent agent with zero knowledge on a provisioned
    /// volume.
    fn provisioned() -> (ConcurrentVolatileAgent<MemDevice>, Vec<u8>) {
        let (device, content) = provision();
        let agent = ConcurrentVolatileAgent::mount(device, AgentConfig::default(), 77, 8).unwrap();
        (agent, content)
    }

    fn credentials(user: &str) -> Vec<UserCredential> {
        vec![
            UserCredential::new(
                format!("/{user}/data"),
                FileAccessKey::from_passphrase(&format!("{user}-data")),
            ),
            UserCredential::new(
                format!("/{user}/dummy"),
                FileAccessKey::from_passphrase(&format!("{user}-dummy")).without_content_key(),
            ),
        ]
    }

    #[test]
    fn fresh_agent_knows_nothing() {
        let (agent, _) = provisioned();
        assert_eq!(agent.map().data_blocks(), 0);
        assert!(matches!(
            agent.dummy_update_once(),
            Err(AgentError::NothingToUpdate)
        ));
    }

    #[test]
    fn login_read_update_logout_roundtrip() {
        let (agent, content) = provisioned();
        let per = agent.fs().content_bytes_per_block();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        assert_eq!(agent.read_file(session, files[0]).unwrap(), content);

        let new_block = vec![0xABu8; per];
        agent
            .update_block(session, files[0], 2, &new_block)
            .unwrap();
        let read = agent.read_file(session, files[0]).unwrap();
        assert_eq!(&read[2 * per..3 * per], &new_block[..]);
        assert!(agent.dummy_update_once().is_ok());
        assert!(agent.map().counters_are_consistent());

        agent.logout(session).unwrap();
        assert_eq!(agent.map().data_blocks(), 0, "view forgotten at logout");
        assert_eq!(agent.map().unknown_blocks(), agent.map().num_blocks() - 1);

        // The update survived the logout: a fresh session reads it back.
        let session2 = agent.login("alice", &credentials("alice")).unwrap();
        let files2 = agent.session_files(session2).unwrap();
        let read2 = agent.read_file(session2, files2[0]).unwrap();
        assert_eq!(&read2[2 * per..3 * per], &new_block[..]);
    }

    #[test]
    fn overlapping_sessions_refcount_shared_files() {
        let (agent, content) = provisioned();
        let s1 = agent.login("alice", &credentials("alice")).unwrap();
        let s2 = agent.login("alice", &credentials("alice")).unwrap();
        let f1 = agent.session_files(s1).unwrap();
        let f2 = agent.session_files(s2).unwrap();
        assert_eq!(f1, f2, "re-disclosure reuses ids");
        agent.logout(s1).unwrap();
        // s2 still sees everything.
        assert_eq!(agent.read_file(s2, f2[0]).unwrap(), content);
        assert!(agent.map().data_blocks() > 0);
        agent.logout(s2).unwrap();
        assert_eq!(agent.map().data_blocks(), 0);
    }

    #[test]
    fn sessions_cannot_touch_each_others_files() {
        let (agent, _) = provisioned();
        let alice = agent.login("alice", &credentials("alice")).unwrap();
        let bob = agent.login("bob", &credentials("bob")).unwrap();
        let alice_files = agent.session_files(alice).unwrap();
        assert!(matches!(
            agent.read_file(bob, alice_files[0]),
            Err(AgentError::UnknownFile(_))
        ));
        assert!(matches!(
            agent.update_block(bob, alice_files[0], 0, b"x"),
            Err(AgentError::UnknownFile(_))
        ));
        assert!(matches!(
            agent.logout(999),
            Err(AgentError::UnknownSession(999))
        ));
    }

    #[test]
    fn updates_relocate_into_the_users_dummy_blocks() {
        let (agent, _) = provisioned();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        let per = agent.fs().content_bytes_per_block();
        let before_data = agent.map().data_blocks();

        let mut relocations = 0;
        for i in 0..16u64 {
            let payload = vec![i as u8 + 1; per];
            if matches!(
                agent
                    .update_block(session, files[0], i % 6, &payload)
                    .unwrap(),
                UpdateOutcome::Relocated { .. }
            ) {
                relocations += 1;
            }
        }
        assert!(relocations > 0, "expected at least one relocation");
        // Swap semantics conserve classes: the dummy file keeps its size and
        // the map keeps its counts.
        assert_eq!(agent.num_blocks(session, files[1]).unwrap(), 8);
        assert_eq!(agent.map().data_blocks(), before_data);
        assert!(agent.map().counters_are_consistent());
        assert_eq!(agent.stats().data_updates, 16);
    }

    #[test]
    fn login_discloses_files_and_enables_dummy_traffic() {
        let (agent, content) = provisioned();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        assert_eq!(agent.logged_in_users(), vec!["alice".to_string()]);
        let files = agent.session_files(session).unwrap();
        assert_eq!(files.len(), 2);
        // Dummy updates are now possible and touch only disclosed blocks.
        let known = agent.map().data_blocks() + agent.map().dummy_blocks();
        assert!(known > 0);
        for block in agent.tick_idle().unwrap() {
            assert_ne!(agent.map().class(block), BlockClass::Unknown);
        }
        assert_eq!(agent.read_file(session, files[0]).unwrap(), content);
    }

    #[test]
    fn login_with_wrong_key_fails() {
        let (agent, content) = provisioned();
        // The first credential opens, the second does not: the login must
        // roll the first file back out of the agent's view.
        let creds = vec![
            credentials("alice").remove(0),
            UserCredential::new(
                "/alice/dummy",
                FileAccessKey::from_passphrase("not-alice").without_content_key(),
            ),
        ];
        assert!(agent.login("alice", &creds).is_err());
        assert_eq!(agent.map().data_blocks(), 0);
        assert!(agent.audit_map_consistency());
        assert!(agent.logged_in_users().is_empty());

        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        assert_eq!(agent.read_file(session, files[0]).unwrap(), content);
    }

    #[test]
    fn create_file_from_dummies_converts_dummy_blocks() {
        let (agent, _) = provisioned();
        let session = agent.login("alice", &credentials("alice")).unwrap();
        let files = agent.session_files(session).unwrap();
        let per = agent.fs().content_bytes_per_block();
        let new_fak = FileAccessKey::from_passphrase("alice-notes");
        let content = vec![0x5Au8; per * 2];
        let id = agent
            .create_file_from_dummies(session, "/alice/notes", &new_fak, &content)
            .unwrap();
        assert_eq!(agent.read_file(session, id).unwrap(), content);
        // The user's dummy file shrank in place to donate the blocks: its id
        // is unchanged and the session still owns it.
        assert_eq!(
            agent.session_files(session).unwrap(),
            [files[0], files[1], id]
        );
        let donated = 8 - agent.num_blocks(session, files[1]).unwrap();
        assert!(donated > 0, "dummy file should have shrunk");
        assert!(agent.audit_map_consistency());
        // Updates relocate into what is left of the dummy pool.
        agent.update_block(session, id, 0, &vec![1u8; per]).unwrap();
        agent.flush().unwrap();
        agent.logout(session).unwrap();
        assert_eq!(agent.map().data_blocks(), 0, "view forgotten at logout");

        let session2 = agent
            .login(
                "alice",
                &[
                    credentials("alice").remove(1),
                    UserCredential::new("/alice/notes", new_fak.clone()),
                ],
            )
            .unwrap();
        let files2 = agent.session_files(session2).unwrap();
        assert_eq!(agent.num_blocks(session2, files2[0]).unwrap(), 8 - donated);
        let read = agent.read_file(session2, files2[1]).unwrap();
        assert_eq!(&read[..per], &vec![1u8; per][..]);
        assert_eq!(&read[per..], &content[per..]);
        assert!(matches!(
            agent.create_file_from_dummies(999, "/x", &new_fak, b"x"),
            Err(AgentError::UnknownSession(999))
        ));
    }

    #[test]
    fn mount_seed_drives_the_ivs() {
        // Two restarts of one volume, each rewriting the same block in place
        // (ablation mode, so both land on the same block): a fresh mount
        // seed must give a fresh IV.
        let (device, _) = provision();
        let ivs: Vec<Vec<u8>> = [11u64, 999_999]
            .iter()
            .map(|&seed| {
                let copy = stegfs_blockdev::clone_to_mem(&device).unwrap();
                let cfg = AgentConfig::default().without_relocation();
                let agent = ConcurrentVolatileAgent::mount(copy, cfg, seed, 8).unwrap();
                let session = agent.login("alice", &credentials("alice")).unwrap();
                let data = agent.session_files(session).unwrap()[0];
                let block = agent
                    .update_block(session, data, 0, b"same payload")
                    .unwrap()
                    .current_block();
                let mut raw = vec![0u8; 512];
                agent.fs().device().read_block(block, &mut raw).unwrap();
                raw[..stegfs_base::IV_SIZE].to_vec()
            })
            .collect();
        assert_ne!(ivs[0], ivs[1], "two mounts replayed the same IV");
    }
}
