//! Simulated jurisdiction storage (paper §2.2, §3.1, Figure 11).
//!
//! "A Jurisdiction consists of some aggregate persistent storage space and
//! a set of Legion hosts ... all of a Jurisdiction's persistent storage
//! space must be visible from each of its hosts." An Inert object lives on
//! one of the jurisdiction's disks and is located by an **Object
//! Persistent Address** — "typically a file name, and will only be
//! meaningful within the Jurisdiction in which it resides" (§3.1.1).
//!
//! [`JurisdictionStorage`] models the aggregate space as a set of
//! [`SimDisk`]s. Visibility-from-every-host is a property the runtime
//! enforces (any host of the jurisdiction may ask its storage for any
//! OPR); cross-jurisdiction access is a type error by construction —
//! a [`PersistentAddress`] names its jurisdiction and the storage refuses
//! foreign addresses.
//!
//! A file name is data, not text: a [`FileName`] is the object and
//! sequence number of a shipped OPR or the content hash of a checkpoint,
//! disks are keyed by it, and only its [`Display`](fmt::Display) spells
//! it out (`opr/{loid}-{seq}.lopr`, `cas/{hex}.lopr`).

use crate::cas::ChunkId;
use crate::opr::{Opr, OprError};
use legion_core::fxmap::FxHashMap;
use legion_core::loid::Loid;
use std::fmt;

/// The name of one file on a jurisdiction's disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileName {
    /// `opr/{loid}-{seq}.lopr`: an OPR stored at an address
    /// [`JurisdictionStorage::reserve_address`] handed out.
    Opr {
        /// The object.
        loid: Loid,
        /// The storage's sequence number when the address was reserved.
        seq: u64,
    },
    /// `cas/{hex}.lopr`: a content-addressed checkpoint, named by the
    /// hash of its bytes.
    Cas(ChunkId),
}

impl fmt::Display for FileName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileName::Opr { loid, seq } => write!(f, "opr/{loid}-{seq}.lopr"),
            FileName::Cas(id) => write!(f, "cas/{}.lopr", id.hex_into(&mut [0; 64])),
        }
    }
}

/// An Object Persistent Address: jurisdiction-scoped "file name" (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PersistentAddress {
    /// The jurisdiction the address is meaningful in.
    pub jurisdiction: u32,
    /// Disk index within the jurisdiction.
    pub disk: u32,
    /// File name on that disk.
    pub name: FileName,
}

impl fmt::Display for PersistentAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jur{}:disk{}:{}",
            self.jurisdiction, self.disk, self.name
        )
    }
}

/// Storage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The address names a different jurisdiction — Object Persistent
    /// Addresses are "only meaningful within the Jurisdiction".
    ForeignJurisdiction {
        /// Jurisdiction of the storage asked.
        ours: u32,
        /// Jurisdiction in the address.
        theirs: u32,
    },
    /// No such disk in this jurisdiction.
    NoSuchDisk(u32),
    /// No file of that name.
    NotFound(FileName),
    /// The disk is full.
    DiskFull {
        /// Disk index.
        disk: u32,
        /// Bytes that did not fit.
        needed: u64,
        /// Bytes still free.
        free: u64,
    },
    /// The stored bytes failed OPR validation.
    Corrupt(OprError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ForeignJurisdiction { ours, theirs } => write!(
                f,
                "persistent address from jurisdiction {theirs} used in jurisdiction {ours}"
            ),
            StorageError::NoSuchDisk(d) => write!(f, "no disk {d} in this jurisdiction"),
            StorageError::NotFound(name) => write!(f, "no file \"{name}\""),
            StorageError::DiskFull { disk, needed, free } => {
                write!(f, "disk {disk} full ({needed} bytes needed, {free} free)")
            }
            StorageError::Corrupt(e) => write!(f, "corrupt OPR: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// One simulated disk: a byte-budgeted file map.
#[derive(Debug, Clone)]
pub struct SimDisk {
    files: FxHashMap<FileName, Vec<u8>>,
    capacity: u64,
    used: u64,
}

impl SimDisk {
    /// A disk with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        SimDisk {
            files: FxHashMap::default(),
            capacity,
            used: 0,
        }
    }

    /// Bytes in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    fn write(
        &mut self,
        disk_index: u32,
        name: FileName,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        let new_len = bytes.len() as u64;
        let old_len = self.files.get(&name).map_or(0, |f| f.len() as u64);
        let needed = new_len.saturating_sub(old_len);
        if needed > self.free() {
            return Err(StorageError::DiskFull {
                disk: disk_index,
                needed: new_len,
                free: self.free(),
            });
        }
        self.used = self.used - old_len + new_len;
        self.files.insert(name, bytes);
        Ok(())
    }

    fn read(&self, name: FileName) -> Result<&[u8], StorageError> {
        self.files
            .get(&name)
            .map(|v| v.as_slice())
            .ok_or(StorageError::NotFound(name))
    }

    fn delete(&mut self, name: FileName) -> Result<Vec<u8>, StorageError> {
        match self.files.remove(&name) {
            Some(bytes) => {
                self.used -= bytes.len() as u64;
                Ok(bytes)
            }
            None => Err(StorageError::NotFound(name)),
        }
    }
}

/// One content-addressed checkpoint blob: which disk holds it and how
/// many Object Persistent Addresses currently reference it.
#[derive(Debug, Clone)]
struct CasRef {
    disk: u32,
    refs: u64,
    len: u64,
}

/// The aggregate persistent storage of one jurisdiction.
///
/// OPR checkpoints are stored **content-addressed**: [`store_opr`]
/// hashes the encoded OPR and, when an identical checkpoint is already
/// on disk, returns the existing address and bumps a reference count
/// instead of writing a second copy. Repeated checkpoints of an
/// unchanged object therefore cost zero extra disk — the incremental
/// half of the journal/snapshot durability story. [`delete`] decrements
/// the count and only frees the blob when the last reference goes.
///
/// [`store_opr`]: JurisdictionStorage::store_opr
/// [`delete`]: JurisdictionStorage::delete
#[derive(Debug, Clone)]
pub struct JurisdictionStorage {
    jurisdiction: u32,
    disks: Vec<SimDisk>,
    seq: u64,
    /// Blob location + refcount of every [`FileName::Cas`] file.
    cas: FxHashMap<ChunkId, CasRef>,
    dedup_hits: u64,
    logical_bytes: u64,
}

impl JurisdictionStorage {
    /// Storage for `jurisdiction` with `disks` disks of `disk_capacity`
    /// bytes each.
    pub fn new(jurisdiction: u32, disks: usize, disk_capacity: u64) -> Self {
        JurisdictionStorage {
            jurisdiction,
            disks: (0..disks).map(|_| SimDisk::new(disk_capacity)).collect(),
            seq: 0,
            cas: FxHashMap::default(),
            dedup_hits: 0,
            logical_bytes: 0,
        }
    }

    /// The jurisdiction this storage belongs to.
    pub fn jurisdiction(&self) -> u32 {
        self.jurisdiction
    }

    /// Total bytes in use across disks.
    pub fn used(&self) -> u64 {
        self.disks.iter().map(|d| d.used()).sum()
    }

    /// Total files across disks.
    pub fn file_count(&self) -> usize {
        self.disks.iter().map(|d| d.file_count()).sum()
    }

    fn check(&self, addr: &PersistentAddress) -> Result<(), StorageError> {
        if addr.jurisdiction != self.jurisdiction {
            return Err(StorageError::ForeignJurisdiction {
                ours: self.jurisdiction,
                theirs: addr.jurisdiction,
            });
        }
        if addr.disk as usize >= self.disks.len() {
            return Err(StorageError::NoSuchDisk(addr.disk));
        }
        Ok(())
    }

    /// The disk with the most free bytes (the last of equals); `None`
    /// when there is no disk.
    fn emptiest_disk(&self) -> Option<u32> {
        self.disks
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.free())
            .map(|(i, _)| i as u32)
    }

    /// Store an OPR content-addressed, choosing the emptiest disk for new
    /// content; returns the Object Persistent Address. A checkpoint whose
    /// bytes are already stored returns the existing address (refcounted)
    /// and writes nothing.
    pub fn store_opr(&mut self, opr: &Opr) -> Result<PersistentAddress, StorageError> {
        let bytes = opr.encode();
        let id = ChunkId::of(&bytes);
        let jurisdiction = self.jurisdiction;
        let at = |disk| PersistentAddress {
            jurisdiction,
            disk,
            name: FileName::Cas(id),
        };
        if let Some(entry) = self.cas.get_mut(&id) {
            entry.refs += 1;
            self.dedup_hits += 1;
            self.logical_bytes += entry.len;
            return Ok(at(entry.disk));
        }
        let disk = self.emptiest_disk().ok_or(StorageError::NoSuchDisk(0))?;
        self.seq += 1;
        let addr = at(disk);
        let len = bytes.len() as u64;
        self.disks[disk as usize].write(disk, addr.name, bytes.into())?;
        self.logical_bytes += len;
        self.cas.insert(id, CasRef { disk, refs: 1, len });
        Ok(addr)
    }

    /// Checkpoints deduplicated away (stores that wrote nothing).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Bytes the vault would hold without content dedup (every
    /// `store_opr` counted at full size). Compare with [`used`] for the
    /// physical footprint.
    ///
    /// [`used`]: JurisdictionStorage::used
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Store raw bytes at an explicit address (used to receive a shipped
    /// OPR from another jurisdiction during Copy/Move).
    pub fn store_at(
        &mut self,
        addr: &PersistentAddress,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        self.check(addr)?;
        self.disks[addr.disk as usize].write(addr.disk, addr.name, bytes)
    }

    /// Load and validate the OPR at `addr`.
    pub fn load_opr(&self, addr: &PersistentAddress) -> Result<Opr, StorageError> {
        self.check(addr)?;
        let bytes = self.disks[addr.disk as usize].read(addr.name)?;
        Opr::decode(bytes).map_err(StorageError::Corrupt)
    }

    /// The stored bytes at `addr`, as they lie on the disk (for shipping
    /// to another jurisdiction, which copies them into a buffer of its
    /// own).
    pub fn read(&self, addr: &PersistentAddress) -> Result<&[u8], StorageError> {
        self.check(addr)?;
        self.disks[addr.disk as usize].read(addr.name)
    }

    /// Delete the file at `addr`, handing back the buffer it was stored
    /// in. For content-addressed checkpoints this drops one reference;
    /// the blob is only freed — and its buffer handed back — when the
    /// last address referencing it is deleted (`None` until then).
    pub fn delete(&mut self, addr: &PersistentAddress) -> Result<Option<Vec<u8>>, StorageError> {
        self.check(addr)?;
        if let FileName::Cas(id) = addr.name {
            if let Some(entry) = self.cas.get_mut(&id) {
                entry.refs -= 1;
                if entry.refs > 0 {
                    return Ok(None);
                }
                self.cas.remove(&id);
            }
        }
        self.disks[addr.disk as usize].delete(addr.name).map(Some)
    }

    /// Does a file exist at `addr` (and in this jurisdiction)?
    pub fn exists(&self, addr: &PersistentAddress) -> bool {
        self.check(addr).is_ok()
            && self.disks[addr.disk as usize]
                .files
                .contains_key(&addr.name)
    }

    /// Corrupt one byte of the file at `addr` (fault injection for tests
    /// and the lifecycle experiments).
    pub fn corrupt(&mut self, addr: &PersistentAddress, offset: usize) -> Result<(), StorageError> {
        self.check(addr)?;
        let disk = &mut self.disks[addr.disk as usize];
        let bytes = disk
            .files
            .get_mut(&addr.name)
            .ok_or(StorageError::NotFound(addr.name))?;
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 0xFF;
        }
        Ok(())
    }

    /// A fresh Object Persistent Address on the emptiest disk without
    /// writing anything (for two-phase Copy).
    pub fn reserve_address(&mut self, loid: &Loid) -> PersistentAddress {
        self.seq += 1;
        PersistentAddress {
            jurisdiction: self.jurisdiction,
            disk: self.emptiest_disk().unwrap_or(0),
            name: FileName::Opr {
                loid: *loid,
                seq: self.seq,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opr(seq: u64) -> Opr {
        Opr::new(
            Loid::instance(16, seq),
            Loid::class_object(16),
            7,
            vec![1, 2, 3, 4],
        )
    }

    fn storage() -> JurisdictionStorage {
        JurisdictionStorage::new(3, 2, 10_000)
    }

    #[test]
    fn store_load_roundtrip() {
        let mut s = storage();
        let o = opr(1);
        let addr = s.store_opr(&o).unwrap();
        assert_eq!(addr.jurisdiction, 3);
        assert!(s.exists(&addr));
        assert_eq!(s.load_opr(&addr).unwrap(), o);
        assert_eq!(s.file_count(), 1);
        assert!(s.used() > 0);
    }

    #[test]
    fn foreign_jurisdiction_is_refused() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        let foreign = PersistentAddress {
            jurisdiction: 99,
            ..addr
        };
        assert!(matches!(
            s.load_opr(&foreign),
            Err(StorageError::ForeignJurisdiction {
                ours: 3,
                theirs: 99
            })
        ));
        assert!(!s.exists(&foreign));
    }

    #[test]
    fn missing_file_and_disk() {
        let mut s = storage();
        let addr = s.reserve_address(&Loid::instance(16, 1));
        assert!(matches!(s.load_opr(&addr), Err(StorageError::NotFound(_))));
        let bad_disk = PersistentAddress { disk: 9, ..addr };
        assert!(matches!(
            s.load_opr(&bad_disk),
            Err(StorageError::NoSuchDisk(9))
        ));
    }

    #[test]
    fn delete_frees_space() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        let used = s.used();
        assert!(used > 0);
        s.delete(&addr).unwrap();
        assert_eq!(s.used(), 0);
        assert!(!s.exists(&addr));
        assert!(matches!(s.delete(&addr), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn disk_full_is_reported() {
        let mut s = JurisdictionStorage::new(0, 1, 16);
        let o = opr(1); // encoded OPR far exceeds 16 bytes
        assert!(matches!(
            s.store_opr(&o),
            Err(StorageError::DiskFull { .. })
        ));
        assert_eq!(s.used(), 0, "failed store consumes nothing");
    }

    #[test]
    fn store_spreads_to_emptiest_disk() {
        let mut s = storage();
        let a1 = s.store_opr(&opr(1)).unwrap();
        let a2 = s.store_opr(&opr(2)).unwrap();
        assert_ne!(a1.disk, a2.disk, "second OPR lands on the emptier disk");
    }

    #[test]
    fn corruption_detected_on_load() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        s.corrupt(&addr, 10).unwrap();
        assert!(matches!(s.load_opr(&addr), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn raw_shipping_between_jurisdictions() {
        // Fig. 11 migration path: read raw from one jurisdiction, store at
        // a reserved address in another, load there.
        let mut src = JurisdictionStorage::new(1, 1, 10_000);
        let mut dst = JurisdictionStorage::new(2, 1, 10_000);
        let o = opr(5);
        let a_src = src.store_opr(&o).unwrap();
        let bytes = src.read(&a_src).unwrap().to_vec();
        let a_dst = dst.reserve_address(&o.loid);
        assert_eq!(a_dst.jurisdiction, 2);
        dst.store_at(&a_dst, bytes.clone()).unwrap();
        assert_eq!(dst.load_opr(&a_dst).unwrap(), o);
        let freed = src.delete(&a_src).unwrap();
        assert_eq!(freed, Some(bytes), "the deleted file's buffer comes back");
        assert_eq!(src.file_count(), 0);
        assert_eq!(dst.file_count(), 1);
    }

    #[test]
    fn reserved_paths_name_the_loid_and_a_fresh_sequence_number() {
        let mut s = storage();
        let loid = Loid::instance(u64::MAX, u64::MAX);
        let first = s.reserve_address(&loid);
        assert_eq!(first.to_string(), format!("jur3:disk1:opr/{loid}-1.lopr"));
        s.store_opr(&opr(1)).unwrap(); // takes sequence number 2
        let short = Loid::instance(1, 2);
        assert_eq!(
            s.reserve_address(&short).to_string(),
            format!("jur3:disk0:opr/{short}-3.lopr")
        );
    }

    #[test]
    fn overwrite_accounts_correctly() {
        let mut s = JurisdictionStorage::new(0, 1, 1000);
        let addr = s.reserve_address(&Loid::instance(16, 1));
        s.store_at(&addr, vec![0; 100]).unwrap();
        assert_eq!(s.used(), 100);
        s.store_at(&addr, vec![0; 40]).unwrap();
        assert_eq!(s.used(), 40);
        s.store_at(&addr, vec![0; 999]).unwrap();
        assert_eq!(s.used(), 999);
        // Replacing with something that doesn't fit fails cleanly.
        let r = s.store_at(&addr, vec![0; 2000]);
        assert!(matches!(r, Err(StorageError::DiskFull { .. })));
        assert_eq!(s.used(), 999);
    }

    #[test]
    fn identical_checkpoints_dedup_to_one_blob() {
        let mut s = storage();
        let o = opr(1);
        let a1 = s.store_opr(&o).unwrap();
        let used_once = s.used();
        let a2 = s.store_opr(&o).unwrap();
        assert_eq!(a1, a2, "identical content shares one address");
        assert_eq!(s.used(), used_once, "second checkpoint wrote nothing");
        assert_eq!(s.file_count(), 1);
        assert_eq!(s.dedup_hits(), 1);
        assert_eq!(s.logical_bytes(), 2 * used_once);
        // A different checkpoint is a different blob.
        let a3 = s.store_opr(&opr(2)).unwrap();
        assert_ne!(a1, a3);
        assert_eq!(s.file_count(), 2);
    }

    #[test]
    fn dedup_refcount_frees_blob_on_last_delete() {
        let mut s = storage();
        let o = opr(1);
        let a1 = s.store_opr(&o).unwrap();
        let a2 = s.store_opr(&o).unwrap();
        assert_eq!(s.delete(&a1).unwrap(), None, "nothing freed yet");
        assert!(s.exists(&a2), "blob survives while a reference remains");
        assert_eq!(s.load_opr(&a2).unwrap(), o);
        assert_eq!(s.delete(&a2).unwrap(), Some(o.encode().to_vec()));
        assert!(!s.exists(&a2));
        assert_eq!(s.used(), 0);
        assert!(matches!(s.delete(&a2), Err(StorageError::NotFound(_))));
    }

    /// The names storage hands out, as text: an address from
    /// `reserve_address`, one from `store_opr`, and the error for a file
    /// that is gone — what a Magistrate's error replies carry.
    #[test]
    fn display_formats() {
        let mut s = JurisdictionStorage::new(1, 3, 10_000);
        let reserved = s.reserve_address(&Loid::instance(16, 5));
        assert_eq!(reserved.to_string(), "jur1:disk2:opr/L10.5.6b083867-1.lopr");
        let stored = s.store_opr(&opr(1)).unwrap();
        assert_eq!(
            stored.to_string(),
            "jur1:disk2:cas/179d5c1a40192ca7a3e15850f78e7ddc2ce5b2d7ffd3091999daea8baf89311f.lopr"
        );
        assert_eq!(
            s.load_opr(&reserved).unwrap_err().to_string(),
            "no file \"opr/L10.5.6b083867-1.lopr\""
        );
        s.delete(&stored).unwrap();
        assert_eq!(
            s.delete(&stored).unwrap_err().to_string(),
            "no file \"cas/179d5c1a40192ca7a3e15850f78e7ddc2ce5b2d7ffd3091999daea8baf89311f.lopr\""
        );
        assert!(StorageError::NoSuchDisk(2).to_string().contains("disk 2"));
    }
}
