//! The disk behind the storage ablation.
//!
//! The paper's configuration (§III): KVM "with `cache=none` for its
//! block storage devices", Xen "with its in-kernel block and network
//! backend drivers". The quantified experiments are network-centric.
//! The storage ablation charges each design's block path through
//! `hvx-core`'s `Hypervisor::block_request` and reads each request's
//! data from a [`Disk`]: a sparse sector store with a seek-plus-transfer
//! service time.

use crate::VioError;
use hvx_engine::Cycles;

/// Bytes per disk sector.
pub const SECTOR_SIZE: usize = 512;

/// The disk backing a VM: a sparse sector store with a simple service
/// time model (seek + per-sector transfer).
///
/// # Examples
///
/// ```
/// use hvx_vio::Disk;
///
/// let mut disk = Disk::ssd_m400(1 << 20);
/// disk.write_sectors(8, b"hello-disk")?;
/// let got = disk.read_sectors(8, 10)?;
/// assert_eq!(&got, b"hello-disk");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    size_bytes: u64,
    sectors: std::collections::HashMap<u64, Box<[u8]>>,
    /// Fixed per-request service latency (controller + seek).
    pub seek: Cycles,
    /// Transfer cost per sector.
    pub per_sector: Cycles,
    reads: u64,
    writes: u64,
}

impl Disk {
    /// The HP m400's 120 GB SATA3 SSD class device: ~60 µs access at
    /// 2.4 GHz.
    pub fn ssd_m400(size_bytes: u64) -> Self {
        Disk::new(size_bytes, Cycles::new(144_000), Cycles::new(1_200))
    }

    /// The Dell r320's 7200 RPM RAID5 array: ~4 ms seek at 2.1 GHz.
    pub fn raid5_r320(size_bytes: u64) -> Self {
        Disk::new(size_bytes, Cycles::new(8_400_000), Cycles::new(900))
    }

    /// Creates a disk with explicit timing.
    pub fn new(size_bytes: u64, seek: Cycles, per_sector: Cycles) -> Self {
        Disk {
            size_bytes,
            sectors: std::collections::HashMap::new(),
            seek,
            per_sector,
            reads: 0,
            writes: 0,
        }
    }

    /// The device capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// The device capacity in whole sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.size_bytes / SECTOR_SIZE as u64
    }

    fn check(&self, sector: u64, len: usize) -> Result<(), VioError> {
        let end = sector * SECTOR_SIZE as u64 + len as u64;
        if end > self.size_bytes {
            return Err(VioError::BufferTooSmall {
                need: end as usize,
                have: self.size_bytes as usize,
            });
        }
        Ok(())
    }

    /// Writes raw bytes starting at `sector` (lengths need not be
    /// sector-multiples; the tail of the last sector is zero-filled).
    ///
    /// # Errors
    ///
    /// [`VioError::BufferTooSmall`] past the end of the device.
    pub fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), VioError> {
        self.check(sector, data.len())?;
        for (i, chunk) in data.chunks(SECTOR_SIZE).enumerate() {
            let mut s = vec![0u8; SECTOR_SIZE].into_boxed_slice();
            s[..chunk.len()].copy_from_slice(chunk);
            self.sectors.insert(sector + i as u64, s);
        }
        self.writes += 1;
        Ok(())
    }

    /// Reads `len` bytes starting at `sector`; unwritten sectors read as
    /// zeros.
    ///
    /// # Errors
    ///
    /// [`VioError::BufferTooSmall`] past the end of the device.
    pub fn read_sectors(&mut self, sector: u64, len: usize) -> Result<Vec<u8>, VioError> {
        self.check(sector, len)?;
        let mut out = vec![0u8; len];
        for (i, chunk) in out.chunks_mut(SECTOR_SIZE).enumerate() {
            if let Some(s) = self.sectors.get(&(sector + i as u64)) {
                chunk.copy_from_slice(&s[..chunk.len()]);
            }
        }
        self.reads += 1;
        Ok(out)
    }

    /// Service time for a request of `sectors` sectors.
    pub fn service_time(&self, sectors: u32) -> Cycles {
        self.seek + self.per_sector * u64::from(sectors)
    }

    /// Completed read requests.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Completed write requests.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_round_trip_and_zero_fill() {
        let mut d = Disk::ssd_m400(1 << 20);
        d.write_sectors(4, b"abc").unwrap();
        assert_eq!(d.read_sectors(4, 3).unwrap(), b"abc");
        // The tail of the sector is zero.
        assert_eq!(d.read_sectors(4, 6).unwrap(), b"abc\0\0\0");
        // Unwritten sectors read as zero.
        assert_eq!(d.read_sectors(100, 4).unwrap(), vec![0; 4]);
        assert!(d.read_sectors(1 << 20, 1).is_err(), "past the end");
    }

    #[test]
    fn disk_timing_models_differ() {
        let ssd = Disk::ssd_m400(1 << 20);
        let hdd = Disk::raid5_r320(1 << 20);
        assert!(hdd.service_time(8) > ssd.service_time(8) * 10);
        // Transfer term grows with size.
        assert!(ssd.service_time(64) > ssd.service_time(8));
    }
}
