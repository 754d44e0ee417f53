//! The Figure 6 update algorithm's outcome, shared by every agent.
//!
//! Each agent runs the algorithm over its own view of the volume: the
//! non-volatile agents draw candidates from the whole volume and relocate
//! into abandoned blocks, the volatile agent draws from the blocks of
//! disclosed files and relocates into disclosed dummy-file blocks. The tests
//! below check the algorithm's properties on Construction 1
//! ([`NonVolatileAgent`](crate::NonVolatileAgent)).

/// What a data update ended up doing, as reported to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The randomly selected block was the block being updated, so the update
    /// happened in place (the `B2 = B1` branch of Figure 6).
    InPlace {
        /// The block that was rewritten.
        block: u64,
    },
    /// The block's content moved to a new physical location.
    Relocated {
        /// Previous physical block.
        from: u64,
        /// New physical block.
        to: u64,
    },
}

impl UpdateOutcome {
    /// The physical block now holding the logical content.
    pub fn current_block(&self) -> u64 {
        match *self {
            UpdateOutcome::InPlace { block } => block,
            UpdateOutcome::Relocated { to, .. } => to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentConfig, AgentError, FileId, NonVolatileAgent};
    use stegfs_base::{BlockClass, StegFsConfig};
    use stegfs_blockdev::MemDevice;
    use stegfs_crypto::Key256;

    const USER: &str = "user location secret";

    /// A Construction 1 agent over a small volume with one four-block file.
    fn test_agent(
        num_blocks: u64,
        cfg: AgentConfig,
    ) -> (NonVolatileAgent<MemDevice>, FileId, Vec<u8>) {
        let mut agent = NonVolatileAgent::format(
            MemDevice::new(num_blocks, 512),
            StegFsConfig::default().with_block_size(512),
            cfg,
            Key256::from_passphrase("agent global key"),
            11,
        )
        .unwrap();
        let content = vec![0x42u8; 496 * 4];
        let id = agent
            .create_file(&Key256::from_passphrase(USER), "/t", &content)
            .unwrap();
        (agent, id, content)
    }

    #[test]
    fn in_place_and_relocated_updates_preserve_readability() {
        let (mut agent, id, content) = test_agent(256, AgentConfig::default());
        let per = agent.fs().content_bytes_per_block();
        let new_block = vec![0x99u8; per];
        let outcome = agent.update_block(id, 2, &new_block).unwrap();
        // Whatever branch was taken, the file now reads back with the new
        // block in position 2.
        let read = agent.read_file(id).unwrap();
        assert_eq!(&read[..per], &content[..per]);
        assert_eq!(&read[2 * per..3 * per], &new_block[..]);
        assert_eq!(
            agent.block_map().class(outcome.current_block()),
            BlockClass::Data
        );
        if let UpdateOutcome::Relocated { from, to } = outcome {
            assert_ne!(from, to);
            assert_eq!(agent.block_map().class(from), BlockClass::Dummy);
        }
        assert_eq!(agent.stats().data_updates, 1);
        assert!(agent.stats().iterations >= 1);
    }

    #[test]
    fn relocation_is_overwhelmingly_likely_at_low_utilisation() {
        // With ~3 % utilisation, the probability of 50 consecutive in-place
        // outcomes is negligible; expect at least one relocation.
        let (mut agent, id, _) = test_agent(512, AgentConfig::default());
        let per = agent.fs().content_bytes_per_block();
        let mut relocated = 0;
        for i in 0..50u64 {
            let payload = vec![i as u8; per];
            if matches!(
                agent.update_block(id, i % 4, &payload).unwrap(),
                UpdateOutcome::Relocated { .. }
            ) {
                relocated += 1;
            }
        }
        assert!(relocated > 40, "relocated only {relocated} of 50");
        assert_eq!(agent.stats().data_updates, 50);
        // After saving, the file still reads correctly from a fresh open.
        agent.flush().unwrap();
        let reopened = agent
            .open_file(&Key256::from_passphrase(USER), "/t")
            .unwrap();
        assert_eq!(
            agent.read_file(reopened).unwrap(),
            agent.read_file(id).unwrap()
        );
    }

    #[test]
    fn iterations_track_figure6_retries() {
        let (mut agent, id, _) = test_agent(256, AgentConfig::default());
        let per = agent.fs().content_bytes_per_block();
        for i in 0..20u64 {
            agent.update_block(id, 0, &vec![i as u8; per]).unwrap();
        }
        let s = agent.stats();
        assert_eq!(s.data_updates, 20);
        assert!(s.iterations >= 20);
        // Every iteration costs exactly one read and one write.
        assert_eq!(s.block_reads, s.iterations);
        assert_eq!(s.block_writes, s.iterations);
        // Retries show up as dummy updates.
        assert_eq!(s.dummy_updates, s.iterations - s.data_updates);
    }

    #[test]
    fn ablation_mode_never_relocates() {
        let (mut agent, id, _) = test_agent(256, AgentConfig::default().without_relocation());
        let per = agent.fs().content_bytes_per_block();
        let mut blocks = Vec::new();
        for i in 0..10u64 {
            match agent.update_block(id, 1, &vec![i as u8; per]).unwrap() {
                UpdateOutcome::InPlace { block } => blocks.push(block),
                other => panic!("ablation mode relocated: {other:?}"),
            }
        }
        blocks.dedup();
        assert_eq!(blocks.len(), 1, "the block never moved");
        assert_eq!(agent.stats().relocations, 0);
    }

    #[test]
    fn dummy_updates_do_not_corrupt_data() {
        let (mut agent, id, content) = test_agent(256, AgentConfig::default());
        agent.dummy_updates(200).unwrap();
        assert_eq!(agent.read_file(id).unwrap(), content);
        assert_eq!(agent.stats().dummy_updates, 200);
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut agent, id, _) = test_agent(256, AgentConfig::default());
        let per = agent.fs().content_bytes_per_block();
        assert!(matches!(
            agent.update_block(id, 0, &vec![0u8; per + 1]),
            Err(AgentError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_file_and_index_errors() {
        let (mut agent, id, _) = test_agent(256, AgentConfig::default());
        assert!(matches!(
            agent.update_block(id + 100, 0, b"x"),
            Err(AgentError::UnknownFile(_))
        ));
        assert!(matches!(
            agent.update_block(id, 1000, b"x"),
            Err(AgentError::Fs(stegfs_base::FsError::OutOfBounds { .. }))
        ));
        assert!(matches!(
            agent.read_file(id + 100),
            Err(AgentError::UnknownFile(_))
        ));
    }
}
