//! Construction 2 driven by one caller in sequence: a single user's volume
//! is provisioned, the agent restarts with zero knowledge, and login,
//! update, logout and re-login follow one another as the paper describes
//! StegHide's session lifecycle. The multi-session and multi-threaded
//! behaviour is covered next to the agent in `volatile_concurrent`.

use stegfs_base::{FileAccessKey, StegFs, StegFsConfig};
use stegfs_blockdev::MemDevice;

use crate::{AgentConfig, AgentError, ConcurrentVolatileAgent, UpdateOutcome, UserCredential};

/// Provision a volume with one user owning a data file and a dummy file,
/// then mount the agent so it has zero knowledge.
fn provisioned_agent() -> (
    ConcurrentVolatileAgent<MemDevice>,
    FileAccessKey,
    FileAccessKey,
) {
    let fs_cfg = StegFsConfig::default().with_block_size(512);
    let (fs, mut map) = StegFs::format(MemDevice::new(1024, 512), fs_cfg, 21).unwrap();
    let data_fak = FileAccessKey::from_passphrase("alice-data");
    let dummy_fak = FileAccessKey::from_passphrase("alice-dummy").without_content_key();
    let per = fs.content_bytes_per_block();
    let content = (0..per * 6).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
    fs.create_file(&mut map, "/alice/data", &data_fak, &content)
        .unwrap();
    fs.create_dummy_file(&mut map, "/alice/dummy", &dummy_fak, 8)
        .unwrap();

    let agent =
        ConcurrentVolatileAgent::mount(fs.into_device(), AgentConfig::default(), 77, 1).unwrap();
    (agent, data_fak, dummy_fak)
}

fn alice_credentials(data_fak: &FileAccessKey, dummy_fak: &FileAccessKey) -> Vec<UserCredential> {
    vec![
        UserCredential::new("/alice/data", data_fak.clone()),
        UserCredential::new("/alice/dummy", dummy_fak.clone()),
    ]
}

#[test]
fn fresh_agent_knows_nothing() {
    let (agent, _, _) = provisioned_agent();
    assert_eq!(agent.map().data_blocks(), 0);
    assert_eq!(agent.logged_in_users().len(), 0);
    // With nobody logged in there is nothing to dummy-update.
    assert!(matches!(
        agent.tick_idle(),
        Err(AgentError::NothingToUpdate)
    ));
}

#[test]
fn updates_relocate_into_the_users_dummy_blocks() {
    let (agent, data_fak, dummy_fak) = provisioned_agent();
    let session = agent
        .login("alice", &alice_credentials(&data_fak, &dummy_fak))
        .unwrap();
    let files = agent.session_files(session).unwrap();
    let data_id = files[0];
    let per = agent.fs().content_bytes_per_block();

    let mut relocations = 0;
    for i in 0..12u64 {
        let payload = vec![i as u8 + 1; per];
        match agent
            .update_block(session, data_id, i % 6, &payload)
            .unwrap()
        {
            UpdateOutcome::Relocated { .. } => relocations += 1,
            UpdateOutcome::InPlace { .. } => {}
        }
    }
    assert!(relocations > 0, "expected at least one relocation");
    // Dummy file keeps the same number of content blocks (swap semantics).
    let dummy_id = files[1];
    assert_eq!(agent.num_blocks(session, dummy_id).unwrap(), 8);
    assert_eq!(agent.stats().data_updates, 12);
}

#[test]
fn state_survives_logout_and_new_session() {
    let (agent, data_fak, dummy_fak) = provisioned_agent();
    let per = agent.fs().content_bytes_per_block();
    let session = agent
        .login("alice", &alice_credentials(&data_fak, &dummy_fak))
        .unwrap();
    let files = agent.session_files(session).unwrap();
    let expected: Vec<u8> = vec![0xC3; per];
    agent.update_block(session, files[0], 2, &expected).unwrap();
    agent.logout(session).unwrap();
    assert_eq!(agent.map().data_blocks(), 0, "view forgotten at logout");

    let session2 = agent
        .login("alice", &alice_credentials(&data_fak, &dummy_fak))
        .unwrap();
    let files2 = agent.session_files(session2).unwrap();
    let read = agent.read_file(session2, files2[0]).unwrap();
    assert_eq!(&read[2 * per..3 * per], &expected[..]);
}

#[test]
fn sessions_cannot_touch_each_others_files() {
    let (agent, data_fak, dummy_fak) = provisioned_agent();
    let alice = agent
        .login("alice", &alice_credentials(&data_fak, &dummy_fak))
        .unwrap();
    let alice_files = agent.session_files(alice).unwrap();
    // A user who discloses nothing still gets a session, but no access.
    let mallory = agent.login("mallory", &[]).unwrap();
    assert!(matches!(
        agent.read_file(mallory, alice_files[0]),
        Err(AgentError::UnknownFile(_))
    ));
    assert!(matches!(
        agent.update_block(mallory, alice_files[0], 0, b"x"),
        Err(AgentError::UnknownFile(_))
    ));
}

#[test]
fn logout_unknown_session_errors() {
    let (agent, _, _) = provisioned_agent();
    assert!(matches!(
        agent.logout(99),
        Err(AgentError::UnknownSession(99))
    ));
}
