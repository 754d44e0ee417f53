//! Sealing and opening of physical blocks.
//!
//! Every payload block on the volume has the shape described in Section 4.1.1
//! and Figure 5 of the paper:
//!
//! ```text
//! +----------------+--------------------------------------+
//! |   IV (16 B)    |  data field (block_size - 16 bytes,  |
//! |                |  CBC-encrypted under a 256-bit key)  |
//! +----------------+--------------------------------------+
//! ```
//!
//! A *dummy update* is precisely [`BlockCodec::reseal`]: read the block,
//! decrypt the data field, pick a fresh random IV, re-encrypt, write it back.
//! The plaintext is untouched but every ciphertext byte changes, so a
//! snapshot-diffing attacker cannot tell it apart from a genuine data update.

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{AesScheduleCache, CbcCipher, CbcLane, HashDrbg, Key256};

use crate::error::FsError;
use crate::layout::IV_SIZE;

/// Seals plaintext data fields into `IV || ciphertext` physical blocks and
/// opens them again.
///
/// The codec keeps a small cache of expanded AES key schedules: agents seal
/// and reseal thousands of blocks under a handful of keys (the global volume
/// key, or a few per-file header/content keys), so re-running the key
/// expansion per block would dominate the cipher cost.
pub struct BlockCodec {
    block_size: usize,
    schedules: AesScheduleCache,
}

impl BlockCodec {
    /// Create a codec for a given physical block size.
    pub fn new(block_size: usize) -> Self {
        assert!(
            block_size > IV_SIZE && (block_size - IV_SIZE) % 16 == 0,
            "block size must leave a 16-byte-aligned data field"
        );
        Self {
            block_size,
            schedules: AesScheduleCache::default(),
        }
    }

    /// Physical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Size of the plaintext data field in bytes.
    pub fn data_field_len(&self) -> usize {
        self.block_size - IV_SIZE
    }

    /// Seal `plaintext` (at most `data_field_len` bytes; shorter inputs are
    /// zero-padded) into a full physical block under `key`, using a fresh IV
    /// drawn from `rng`. The one-block case of [`BlockCodec::seal_batch`].
    pub fn seal(
        &self,
        key: &Key256,
        plaintext: &[u8],
        rng: &mut HashDrbg,
    ) -> Result<Vec<u8>, FsError> {
        let mut iv = [0u8; IV_SIZE];
        rng.fill_bytes(&mut iv);
        let mut block = self.stage(&iv, plaintext)?;
        self.seal_batch(key, [block.as_mut_slice()])?;
        Ok(block)
    }

    /// Lay `plaintext` (at most `data_field_len` bytes; shorter inputs are
    /// zero-padded) out as an unsealed physical block with `iv` in its IV
    /// field, ready for [`BlockCodec::seal_batch`].
    pub fn stage(&self, iv: &[u8; IV_SIZE], plaintext: &[u8]) -> Result<Vec<u8>, FsError> {
        if plaintext.len() > self.data_field_len() {
            return Err(FsError::Cipher(format!(
                "plaintext of {} bytes exceeds data field of {} bytes",
                plaintext.len(),
                self.data_field_len()
            )));
        }
        let mut block = vec![0u8; self.block_size];
        block[..IV_SIZE].copy_from_slice(iv);
        block[IV_SIZE..IV_SIZE + plaintext.len()].copy_from_slice(plaintext);
        Ok(block)
    }

    /// Seal staged physical blocks in place under `key`. Each block holds
    /// its caller-drawn IV in the IV field and its plaintext in the data
    /// field ([`BlockCodec::stage`]); every data field is CBC-encrypted under
    /// its own IV, all of them in one multi-lane cipher call so independent
    /// chains overlap in the AES pipeline. The result is byte-identical to
    /// sealing the blocks one at a time with the same IVs. A block of the
    /// wrong size fails the whole batch before anything is encrypted.
    pub fn seal_batch<'a>(
        &self,
        key: &Key256,
        blocks: impl IntoIterator<Item = &'a mut [u8]>,
    ) -> Result<(), FsError> {
        let mut lanes = Vec::new();
        for block in blocks {
            if block.len() != self.block_size {
                return Err(FsError::Cipher(format!(
                    "staged block of {} bytes, expected {}",
                    block.len(),
                    self.block_size
                )));
            }
            let (iv, data) = block.split_at_mut(IV_SIZE);
            let iv: &[u8; IV_SIZE] = (&*iv).try_into().expect("IV field is IV_SIZE bytes");
            lanes.push(CbcLane { iv, data });
        }
        let cbc = CbcCipher::new(self.schedules.get(key));
        cbc.encrypt_lanes(&mut lanes)?;
        Ok(())
    }

    /// Open a physical block under `key`, returning the full plaintext data
    /// field (including any zero padding the caller added at seal time).
    pub fn open(&self, key: &Key256, physical: &[u8]) -> Result<Vec<u8>, FsError> {
        if physical.len() != self.block_size {
            return Err(FsError::Cipher(format!(
                "physical block of {} bytes, expected {}",
                physical.len(),
                self.block_size
            )));
        }
        let mut iv = [0u8; IV_SIZE];
        iv.copy_from_slice(&physical[..IV_SIZE]);
        let mut data = physical[IV_SIZE..].to_vec();
        let cbc = CbcCipher::new(self.schedules.get(key));
        cbc.decrypt_in_place(&iv, &mut data)?;
        Ok(data)
    }

    /// Write `plaintext` sealed under `key` to `block` on `device`.
    pub fn write_sealed<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        plaintext: &[u8],
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let physical = self.seal(key, plaintext, rng)?;
        device.write_block(block, &physical)?;
        Ok(())
    }

    /// Read `block` from `device` and open it under `key`.
    pub fn read_sealed<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
    ) -> Result<Vec<u8>, FsError> {
        let mut physical = vec![0u8; self.block_size];
        device.read_block(block, &mut physical)?;
        self.open(key, &physical)
    }

    /// Perform a *dummy update* on `block`: decrypt, choose a fresh IV,
    /// re-encrypt the identical plaintext, write back. Section 4.1.3:
    /// "the agent reads in the selected block, decrypts it, assigns a new
    /// random number to its IV, re-encrypts it, and then writes it back."
    ///
    /// The whole round trip runs in one physical-block buffer: the data field
    /// is decrypted in place (hitting the cipher's pipelined wide-decrypt
    /// path), the IV is replaced, and the same bytes are re-encrypted in
    /// place — no separate plaintext allocation, and the identical single IV
    /// draw from `rng` as the seal/open formulation, so replay determinism
    /// is unchanged.
    pub fn reseal<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let mut physical = vec![0u8; self.block_size];
        device.read_block(block, &mut physical)?;
        let mut iv = [0u8; IV_SIZE];
        iv.copy_from_slice(&physical[..IV_SIZE]);
        let cbc = CbcCipher::new(self.schedules.get(key));
        cbc.decrypt_in_place(&iv, &mut physical[IV_SIZE..])?;
        rng.fill_bytes(&mut iv);
        physical[..IV_SIZE].copy_from_slice(&iv);
        cbc.encrypt_in_place(&iv, &mut physical[IV_SIZE..])?;
        device.write_block(block, &physical)?;
        Ok(())
    }

    /// Write-ordered relocating reseal: open `from`, seal its plaintext under
    /// a fresh IV at `to`, then read `to` back and verify it opens to the
    /// identical plaintext *before* returning. Only after this returns may
    /// the caller release or reuse `from` — so a write torn mid-reseal (a
    /// crash between issuing and completing the write) can lose at most the
    /// in-flight copy at `to`, while `from` still holds the data intact.
    ///
    /// The in-place [`BlockCodec::reseal`] lacks this property: a torn write
    /// there corrupts the only copy, which is exactly the crash-consistency
    /// hole the resilience tier's parity exists to cover.
    pub fn reseal_relocated<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        from: BlockId,
        to: BlockId,
        key: &Key256,
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let plaintext = self.read_sealed(device, from, key)?;
        self.write_sealed(device, to, key, &plaintext, rng)?;
        let back = self.read_sealed(device, to, key)?;
        if back != plaintext {
            return Err(FsError::Corrupt(format!(
                "relocated reseal read-back mismatch at block {to}"
            )));
        }
        Ok(())
    }

    /// Fill `block` with uniformly random bytes — the state of every abandoned
    /// block after formatting, and of dummy-file content blocks.
    pub fn write_random<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let random = rng.bytes(self.block_size);
        device.write_block(block, &random)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    fn codec() -> BlockCodec {
        BlockCodec::new(4096)
    }

    fn key(tag: u8) -> Key256 {
        Key256([tag; 32])
    }

    #[test]
    fn seal_open_roundtrip() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(1);
        let plaintext = vec![0x55u8; 1000];
        let sealed = c.seal(&key(1), &plaintext, &mut rng).unwrap();
        assert_eq!(sealed.len(), 4096);
        let opened = c.open(&key(1), &sealed).unwrap();
        assert_eq!(&opened[..1000], &plaintext[..]);
        assert!(opened[1000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_key_garbles_data() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(2);
        let sealed = c.seal(&key(1), b"top secret data", &mut rng).unwrap();
        let opened = c.open(&key(2), &sealed).unwrap();
        assert_ne!(&opened[..15], b"top secret data");
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(3);
        let too_big = vec![0u8; c.data_field_len() + 1];
        assert!(c.seal(&key(1), &too_big, &mut rng).is_err());
    }

    #[test]
    fn reseal_changes_ciphertext_but_not_plaintext() {
        let c = codec();
        let dev = MemDevice::new(8, 4096);
        let mut rng = HashDrbg::from_u64(4);
        c.write_sealed(&dev, 3, &key(9), b"hidden payload", &mut rng)
            .unwrap();
        let mut before = vec![0u8; 4096];
        dev.read_block(3, &mut before).unwrap();

        c.reseal(&dev, 3, &key(9), &mut rng).unwrap();

        let mut after = vec![0u8; 4096];
        dev.read_block(3, &mut after).unwrap();
        assert_ne!(before, after, "ciphertext must change");
        // Every 16-byte lane changes thanks to CBC chaining off a fresh IV.
        let differing = before
            .chunks(16)
            .zip(after.chunks(16))
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 4096 / 16);

        let opened = c.read_sealed(&dev, 3, &key(9)).unwrap();
        assert_eq!(&opened[..14], b"hidden payload");
    }

    #[test]
    fn in_place_reseal_is_byte_identical_to_open_then_seal() {
        // The single-buffer reseal must produce exactly the bytes the
        // open-then-seal formulation would, from the same DRBG state —
        // replayed benches and the determinism suite depend on it.
        let c = codec();
        let dev_a = MemDevice::new(4, 4096);
        let dev_b = MemDevice::new(4, 4096);
        let mut rng = HashDrbg::from_u64(42);
        let sealed = c.seal(&key(6), b"same bytes either way", &mut rng).unwrap();
        dev_a.write_block(2, &sealed).unwrap();
        dev_b.write_block(2, &sealed).unwrap();

        let mut rng_a = HashDrbg::from_u64(77);
        c.reseal(&dev_a, 2, &key(6), &mut rng_a).unwrap();

        let mut rng_b = HashDrbg::from_u64(77);
        let plaintext = c.read_sealed(&dev_b, 2, &key(6)).unwrap();
        c.write_sealed(&dev_b, 2, &key(6), &plaintext, &mut rng_b)
            .unwrap();

        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        dev_a.read_block(2, &mut a).unwrap();
        dev_b.read_block(2, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_seal_is_byte_identical_to_sequential_seals() {
        // Caller-drawn IVs in the same order as one `seal` per block must
        // give exactly the blocks `seal` gives, and leave the DRBG in the
        // same state — the level rebuild and the registry rely on both.
        let c = codec();
        for n in [1usize, 2, 3, 7, 8, 9, 17] {
            let plaintexts: Vec<Vec<u8>> = (0..n)
                .map(|i| vec![i as u8 ^ 0x3c; 1 + i * 97 % c.data_field_len()])
                .collect();

            let mut rng_a = HashDrbg::from_u64(42);
            let sequential: Vec<Vec<u8>> = plaintexts
                .iter()
                .map(|p| c.seal(&key(6), p, &mut rng_a).unwrap())
                .collect();

            let mut rng_b = HashDrbg::from_u64(42);
            let mut batched: Vec<Vec<u8>> = plaintexts
                .iter()
                .map(|p| {
                    let mut iv = [0u8; IV_SIZE];
                    rng_b.fill_bytes(&mut iv);
                    c.stage(&iv, p).unwrap()
                })
                .collect();
            c.seal_batch(&key(6), batched.iter_mut().map(Vec::as_mut_slice))
                .unwrap();

            assert_eq!(batched, sequential, "{n} blocks");
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "DRBG state after {n}");
        }
    }

    #[test]
    fn batch_seal_rejects_a_wrong_sized_block_before_encrypting() {
        let c = codec();
        let mut good = c.stage(&[1u8; IV_SIZE], b"payload").unwrap();
        let staged = good.clone();
        let mut short = vec![0u8; 4080];
        assert!(matches!(
            c.seal_batch(&key(1), [good.as_mut_slice(), short.as_mut_slice()]),
            Err(FsError::Cipher(_))
        ));
        assert_eq!(good, staged, "nothing sealed on a rejected batch");
    }

    #[test]
    fn sealed_block_looks_random() {
        // Rough distinguishability check: byte histogram of a sealed block of
        // zeros should not be wildly skewed (all 256 values roughly equally
        // likely), unlike the plaintext which is a single value.
        let c = codec();
        let mut rng = HashDrbg::from_u64(5);
        let sealed = c.seal(&key(1), &vec![0u8; 4080], &mut rng).unwrap();
        let mut counts = [0u32; 256];
        for &b in &sealed {
            counts[b as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max < 50,
            "suspiciously repetitive ciphertext (max count {max})"
        );
    }

    #[test]
    fn reseal_relocated_copies_and_verifies() {
        let c = codec();
        let dev = MemDevice::new(8, 4096);
        let mut rng = HashDrbg::from_u64(7);
        c.write_sealed(&dev, 2, &key(9), b"relocate me", &mut rng)
            .unwrap();
        c.reseal_relocated(&dev, 2, 5, &key(9), &mut rng).unwrap();
        let moved = c.read_sealed(&dev, 5, &key(9)).unwrap();
        assert_eq!(&moved[..11], b"relocate me");
        // Write ordering: the source block is untouched until the caller
        // releases it, so the data exists at both locations.
        let original = c.read_sealed(&dev, 2, &key(9)).unwrap();
        assert_eq!(original, moved);
    }

    #[test]
    fn reseal_relocated_detects_torn_destination_write() {
        use stegfs_blockdev::FaultDevice;
        let c = codec();
        let dev = FaultDevice::new(MemDevice::new(8, 4096));
        let mut rng = HashDrbg::from_u64(8);
        c.write_sealed(&dev, 1, &key(3), b"survives the tear", &mut rng)
            .unwrap();
        // The next scalar write lands only its first 100 bytes — a crash
        // mid-write at the destination.
        dev.arm_partial_scalar_write(100);
        let err = c.reseal_relocated(&dev, 1, 6, &key(3), &mut rng);
        assert!(err.is_err(), "read-back must catch the torn destination");
        // The source copy is still intact: nothing was released.
        let original = c.read_sealed(&dev, 1, &key(3)).unwrap();
        assert_eq!(&original[..17], b"survives the tear");
    }

    #[test]
    fn mid_range_tear_is_caught_by_relocation_read_back() {
        // A batched flush of relocated blocks goes through write_blocks and
        // the range tears *inside* a block (sub-sector crash). The read-back
        // verification that reseal_relocated performs per destination must
        // classify every destination as landed or not — the mid-torn sealed
        // block may not silently pass.
        use stegfs_blockdev::FaultDevice;
        let c = codec();
        let dev = FaultDevice::new(MemDevice::new(8, 4096));
        let mut rng = HashDrbg::from_u64(11);
        let payloads: Vec<Vec<u8>> = (0..3).map(|i| vec![0xa0 + i as u8; 64]).collect();
        let mut batch = Vec::new();
        for p in &payloads {
            batch.extend_from_slice(&c.seal(&key(4), p, &mut rng).unwrap());
        }
        // One whole block lands, then 20 bytes of the second block: its new
        // IV plus a few ciphertext bytes, the rest stale.
        dev.arm_torn_ranged_write_partial(1, 20);
        dev.write_blocks(4, &batch).unwrap();
        // Destination 4 landed and verifies like reseal_relocated's check.
        let ok = c.read_sealed(&dev, 4, &key(4)).unwrap();
        assert_eq!(&ok[..64], &payloads[0][..]);
        // Destination 5 is mid-torn: the new IV no longer matches the stale
        // ciphertext tail, so the opened plaintext cannot equal the sealed one.
        let torn = c.read_sealed(&dev, 5, &key(4)).unwrap();
        assert_ne!(&torn[..64], &payloads[1][..]);
        // Destination 6 was dropped entirely (still the old content).
        let dropped = c.read_sealed(&dev, 6, &key(4)).unwrap();
        assert_ne!(&dropped[..64], &payloads[2][..]);
    }

    #[test]
    fn write_random_fills_block() {
        let c = codec();
        let dev = MemDevice::new(4, 4096);
        let mut rng = HashDrbg::from_u64(6);
        c.write_random(&dev, 1, &mut rng).unwrap();
        let mut buf = vec![0u8; 4096];
        dev.read_block(1, &mut buf).unwrap();
        assert!(buf.iter().filter(|&&b| b != 0).count() > 3500);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn misaligned_block_size_panics() {
        BlockCodec::new(100);
    }
}
