//! Crash-safe persistent backing store for the session artifact cache.
//!
//! The in-memory [`crate::session::ArtifactStore`] dies with the
//! process; this module gives analysis outcomes a life across runs. The
//! design goal is *robustness before speed*: version skew, torn writes,
//! bit rot, a full disk, permission changes, and concurrent writers must
//! all degrade to a cold recompute — never a wrong result, never a
//! panic.
//!
//! ## On-disk format
//!
//! One file per entry — `<key:016x>.art` for an analysis outcome,
//! `<key:016x>.pack` for a per-procedure summary pack ([`crate::pack`]).
//! An outcome file is one framed entry:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"IPCPART1"
//!      8     4  format version (u32 LE)
//!     12     8  toolchain fingerprint (u64 LE)
//!     20     8  entry key (u64 LE)
//!     28     8  payload length (u64 LE)
//!     36     8  word-wise checksum over the payload (u64 LE)
//!     44     —  payload ([`Wire`]-encoded artifact)
//! ```
//!
//! A pack file is a log of *segments*, each framed exactly like an
//! entry under the pack's key, closed by a 24-byte *seal*:
//!
//! ```text
//! segment 0 (written afresh) │ segment 1 … n (appended) │ seal
//! seal: magic b"IPCPSEAL" │ segment count (u64 LE) │ chain (u64 LE)
//! ```
//!
//! The chain folds every segment's checksum in file order, so the seal
//! pins the whole log: a file cut anywhere — a segment boundary included
//! — or with any byte flipped fails validation. A cold run that loaded
//! the pack appends one segment holding only the summaries it computed,
//! overwriting the old seal with the segment and a new seal, under the
//! directory lock; on load, a later segment's entry wins over an earlier
//! one's. Once the appended segments outgrow [`PACK_COMPACT_PERCENT`]
//! of the first segment, the next store compacts instead: it rewrites
//! the pack as one fresh segment of the run's live summaries, through
//! temp file and rename. Loads read a pack under the lock, so they never
//! see half an append.
//!
//! Loads validate every header field *and* the checksum — of each
//! segment and of the seal; any mismatch moves the file (a whole pack,
//! whichever segment failed) into `quarantine/` (for postmortem
//! inspection), records the event in the cache's [`RobustnessReport`],
//! and reports a miss so the caller recomputes from scratch.
//!
//! ## Crash safety and concurrency
//!
//! Writes go to a process-unique temp file followed by an atomic rename,
//! so a reader never observes a half-written entry even if the writer
//! dies mid-write. A pack append is the one write in place: a writer
//! that dies mid-append leaves a pack whose seal no longer matches, so
//! the next load quarantines it and the run recomputes cold. Mutations
//! additionally serialize on an advisory
//! `.lock` file (created with `O_EXCL`, holding the owner's PID); locks
//! older than [`LOCK_STALE_SECS`] are presumed dead and broken. A store
//! that cannot acquire the lock or complete its write simply skips
//! caching — persistent-cache failures are *never* allowed to fail the
//! analysis.
//!
//! ## Eviction
//!
//! After each successful store the cache enforces an optional byte
//! budget by deleting the least-recently-used entries, outcomes and
//! packs alike (mtime order; a successful load refreshes an entry's
//! mtime). A pack is one file, so it is evicted, quarantined and
//! counted as one unit. The first store of each cache handle, and every
//! store that had to break a stale lock, also sweeps the temp files a
//! crashed writer left behind.
//!
//! All I/O funnels through the [`CacheIo`] trait so tests can wrap the
//! real filesystem with an [`IoFaultInjector`] and prove every fault
//! path degrades gracefully.

use crate::driver::{AnalysisConfig, AnalysisOutcome, PhaseStats, SolverKind};
use crate::jump::JumpFunctionKind;
use crate::subst::SubstitutionCounts;
use ipcp_analysis::budget::{IoFaultInjector, IoFaultKind, IoOp, RobustnessReport};
use ipcp_analysis::modref::Slot;
use ipcp_ir::codec::{ByteReader, Wire, WireError, WireSink};
use ipcp_ir::fingerprint::Fnv1a;
use ipcp_ir::Program;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// First 8 bytes of every entry file.
pub const MAGIC: [u8; 8] = *b"IPCPART1";

/// Bumped whenever the entry layout, any [`Wire`] encoding, or the
/// derivation of keys changes; old entries are quarantined, not misread.
/// Version 2: the generic value-context engine (pruned_call_edges in
/// [`PhaseStats`], the `branch_feasibility` key facet). Version 3:
/// fingerprints hash the `Wire` encoding instead of the `Debug`
/// rendering, so every key moved. Version 4: per-procedure summary
/// packs ([`pack_key`]) join the outcome entries, with `Wire` encodings
/// of jump functions and their store keys, and the payload checksum
/// runs over 8-byte words. Version 5: per-procedure keys fold callee
/// summaries instead of callee bodies, fingerprints widen to 128 bits,
/// packs become sealed logs of appended segments carrying table
/// fingerprints and DCE steps, and ledgers record summary fingerprints.
pub const FORMAT_VERSION: u32 = 5;

/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 44;

/// The quarantine reason of a payload that passes its checksum but does
/// not decode.
const DECODE_FAILED: &str = "payload decode failed";

/// Advisory locks older than this are presumed to belong to a dead
/// process and are broken.
pub const LOCK_STALE_SECS: u64 = 10;

/// Fingerprint of everything that invalidates cached artifacts wholesale:
/// the entry format version and the package version that wrote them.
pub fn toolchain_fingerprint() -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(FORMAT_VERSION));
    h.write_bytes(env!("CARGO_PKG_VERSION").as_bytes());
    h.finish()
}

/// Folds 64-bit parts (order-sensitive) into one entry-file key.
fn file_key(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.write_u64(part);
    }
    h.finish()
}

/// The cache key for a full analysis outcome: the program fingerprint
/// combined with every result-affecting configuration facet. `jobs` and
/// fuel take no part — parallelism is bit-identical by design and
/// metered runs are never cached. Entry keys name files and stay 64-bit.
pub fn outcome_key(base_fp: u128, config: &AnalysisConfig) -> u64 {
    file_key([
        base_fp as u64,
        (base_fp >> 64) as u64,
        outcome_facets(config),
    ])
}

/// Keeps summary-pack keys apart from outcome keys even if a label's
/// hash ever equals a program fingerprint.
const PACK_DOMAIN: u64 = u64::from_le_bytes(*b"sumpack1");

/// The cache key of the per-procedure summary pack (see
/// [`crate::pack`]) of the program analyzed under `label` — typically
/// its path — with `config`'s outcome facets. One pack per label and
/// configuration: each cold run appends the summaries it computed, so it
/// always holds those of the label's latest program.
pub fn pack_key(label: &str, config: &AnalysisConfig) -> u64 {
    file_key([
        PACK_DOMAIN,
        crate::audit::label_fp(label),
        outcome_facets(config),
    ])
}

/// Every result-affecting configuration facet, hashed.
fn outcome_facets(config: &AnalysisConfig) -> u64 {
    let mut facets = Fnv1a::new();
    config.jump_function.encode(&mut facets);
    config.return_jump_functions.encode(&mut facets);
    config.mod_info.encode(&mut facets);
    config.complete_propagation.encode(&mut facets);
    config.interprocedural.encode(&mut facets);
    config.rjf_full_composition.encode(&mut facets);
    config.solver.encode(&mut facets);
    config.gsa.encode(&mut facets);
    config.branch_feasibility.encode(&mut facets);
    facets.finish()
}

// ---- Wire impls for the persisted artifact and its key facets -------------

impl Wire for JumpFunctionKind {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(match self {
            JumpFunctionKind::Literal => 0,
            JumpFunctionKind::IntraproceduralConstant => 1,
            JumpFunctionKind::PassThrough => 2,
            JumpFunctionKind::Polynomial => 3,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(JumpFunctionKind::Literal),
            1 => Ok(JumpFunctionKind::IntraproceduralConstant),
            2 => Ok(JumpFunctionKind::PassThrough),
            3 => Ok(JumpFunctionKind::Polynomial),
            tag => Err(WireError::BadTag {
                what: "JumpFunctionKind",
                tag,
            }),
        }
    }
}

impl Wire for SolverKind {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(match self {
            SolverKind::CallGraph => 0,
            SolverKind::BindingGraph => 1,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SolverKind::CallGraph),
            1 => Ok(SolverKind::BindingGraph),
            tag => Err(WireError::BadTag {
                what: "SolverKind",
                tag,
            }),
        }
    }
}

impl Wire for SubstitutionCounts {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.per_proc.encode(w);
        self.total.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(SubstitutionCounts {
            per_proc: Vec::<usize>::decode(r)?,
            total: usize::decode(r)?,
        })
    }
}

impl Wire for PhaseStats {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.return_jfs.encode(w);
        self.forward_jfs.encode(w);
        self.useful_forward_jfs.encode(w);
        self.solver_iterations.encode(w);
        self.dce_rounds.encode(w);
        self.pruned_call_edges.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(PhaseStats {
            return_jfs: usize::decode(r)?,
            forward_jfs: usize::decode(r)?,
            useful_forward_jfs: usize::decode(r)?,
            solver_iterations: usize::decode(r)?,
            dce_rounds: usize::decode(r)?,
            pruned_call_edges: usize::decode(r)?,
        })
    }
}

impl Wire for AnalysisOutcome {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.program.encode(w);
        self.constants.encode(w);
        self.substitutions.encode(w);
        self.stats.encode(w);
        self.robustness.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(AnalysisOutcome {
            program: Program::decode(r)?,
            constants: Vec::<BTreeMap<Slot, i64>>::decode(r)?,
            substitutions: SubstitutionCounts::decode(r)?,
            stats: PhaseStats::decode(r)?,
            robustness: RobustnessReport::decode(r)?,
        })
    }
}

// ---- entry framing --------------------------------------------------------

/// An FNV-style hash over the payload's little-endian 8-byte words, the
/// tail zero-padded: one multiply per word instead of per byte. A
/// multiply alone only carries bits upward — a difference in bit 63 of
/// two words, or of one word and the stored sum, would cancel — so each
/// step folds the high half back down before the next word. Each step
/// is a bijection of the running state, so any change confined to one
/// word always changes the sum; a length change is caught by the
/// header's length field first.
fn checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(PRIME);
        h ^ (h >> 32)
    };
    let mut words = payload.chunks_exact(8);
    let mut h = Fnv1a::new().finish();
    for word in &mut words {
        h = step(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(h, u64::from_le_bytes(tail))
}

/// Frames `payload` into a complete entry file image.
pub fn encode_entry(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&toolchain_fingerprint().to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn read_u64_at(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Validates a whole entry file image against its expected `key` and
/// returns the payload slice.
///
/// # Errors
///
/// A stable human-readable reason — the quarantine classification.
pub fn validate_entry(key: u64, bytes: &[u8]) -> Result<&[u8], &'static str> {
    if bytes.len() < HEADER_LEN {
        return Err("truncated header");
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic");
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    if u32::from_le_bytes(v) != FORMAT_VERSION {
        return Err("format version mismatch");
    }
    if read_u64_at(bytes, 12) != toolchain_fingerprint() {
        return Err("toolchain mismatch");
    }
    if read_u64_at(bytes, 20) != key {
        return Err("key mismatch");
    }
    let payload = &bytes[HEADER_LEN..];
    if read_u64_at(bytes, 28) != payload.len() as u64 {
        return Err("length mismatch");
    }
    if read_u64_at(bytes, 36) != checksum(payload) {
        return Err("checksum mismatch");
    }
    Ok(payload)
}

// ---- pack framing -----------------------------------------------------------

/// First 8 bytes of a pack's seal.
const SEAL_MAGIC: [u8; 8] = *b"IPCPSEAL";

/// Length of the seal closing every pack file.
pub const SEAL_LEN: usize = 24;

/// How far a pack may grow by appended segments, in percent of its
/// first segment's size, before a store compacts it. A fixed share, not
/// a knob: with it, a pack never exceeds (1 + share) times the size of a
/// fresh pack of the same summaries.
pub const PACK_COMPACT_PERCENT: u64 = 25;

/// The seal chain before any segment.
const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The seal chain after one more segment, whose checksum is `checksum`.
fn chain_step(chain: u64, checksum: u64) -> u64 {
    let h = (chain ^ checksum).wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 32)
}

fn seal(count: u64, chain: u64) -> [u8; SEAL_LEN] {
    let mut out = [0u8; SEAL_LEN];
    out[..8].copy_from_slice(&SEAL_MAGIC);
    out[8..16].copy_from_slice(&count.to_le_bytes());
    out[16..].copy_from_slice(&chain.to_le_bytes());
    out
}

/// Frames `payloads` into a complete pack file image: one entry per
/// segment, in order, then the seal.
pub fn encode_pack(key: u64, payloads: &[&[u8]]) -> Vec<u8> {
    let size: usize = payloads.iter().map(|p| HEADER_LEN + p.len()).sum();
    let mut out = Vec::with_capacity(size + SEAL_LEN);
    let mut chain = CHAIN_SEED;
    for payload in payloads {
        chain = chain_step(chain, checksum(payload));
        out.extend_from_slice(&encode_entry(key, payload));
    }
    out.extend_from_slice(&seal(payloads.len() as u64, chain));
    out
}

/// Validates a whole pack file image against its expected `key` and
/// returns its segments' payloads, in file order.
///
/// # Errors
///
/// A stable human-readable reason — the quarantine classification: the
/// first segment's framing failure ([`validate_entry`]'s reasons), a
/// cut that leaves no seal, or a seal whose magic, segment count or
/// chain (`"checksum mismatch"`) disagrees with the segments.
pub fn pack_segments(key: u64, bytes: &[u8]) -> Result<Vec<&[u8]>, &'static str> {
    let mut segments = Vec::new();
    let mut chain = CHAIN_SEED;
    let mut rest = bytes;
    while rest.len() != SEAL_LEN {
        if rest.len() < HEADER_LEN {
            return Err("truncated pack");
        }
        // A length past the end is cut to it, so the header check reports it.
        let end = usize::try_from(read_u64_at(rest, 28))
            .ok()
            .and_then(|len| len.checked_add(HEADER_LEN))
            .map_or(rest.len(), |end| end.min(rest.len()));
        segments.push(validate_entry(key, &rest[..end])?);
        chain = chain_step(chain, read_u64_at(rest, 36));
        rest = &rest[end..];
    }
    if rest[..8] != SEAL_MAGIC {
        return Err("bad seal");
    }
    if segments.is_empty() || read_u64_at(rest, 8) != segments.len() as u64 {
        return Err("segment count mismatch");
    }
    if read_u64_at(rest, 16) != chain {
        return Err("checksum mismatch");
    }
    Ok(segments)
}

/// What an append needs of a pack on disk, read from its first header
/// and its seal alone; the segments are validated on the next load.
struct PackTail {
    /// File length.
    len: u64,
    /// Length of the first segment, header included.
    base: u64,
    count: u64,
    chain: u64,
}

/// The tail of `key`'s pack at `path`, or `None` when there is no pack
/// to append to: absent, unreadable, or framed for another key, format
/// or toolchain.
fn pack_tail(path: &Path, key: u64) -> Option<PackTail> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    if len < (HEADER_LEN + SEAL_LEN) as u64 {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    let mut tail = [0u8; SEAL_LEN];
    file.seek(SeekFrom::End(-(SEAL_LEN as i64))).ok()?;
    file.read_exact(&mut tail).ok()?;
    let framed = header[..8] == MAGIC
        && header[8..12] == FORMAT_VERSION.to_le_bytes()
        && read_u64_at(&header, 12) == toolchain_fingerprint()
        && read_u64_at(&header, 20) == key
        && tail[..8] == SEAL_MAGIC;
    let base = (HEADER_LEN as u64).checked_add(read_u64_at(&header, 28))?;
    (framed && base + SEAL_LEN as u64 <= len).then(|| PackTail {
        len,
        base,
        count: read_u64_at(&tail, 8),
        chain: read_u64_at(&tail, 16),
    })
}

// ---- pluggable I/O --------------------------------------------------------

/// The filesystem surface the cache touches, abstracted for fault
/// injection. Implementations must be shareable across analysis workers.
pub trait CacheIo: Send + Sync {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// The underlying I/O error (`NotFound` is the common miss case).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a whole file (the temp half of temp+rename).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` over `to`.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Creates the advisory lock file, failing if it already exists.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when another process holds the lock.
    fn create_lock(&self, path: &Path) -> io::Result<()>;

    /// Overwrites the file from byte `at` on with `bytes`, dropping what
    /// followed: how a pack's seal gives way to an appended segment and
    /// a new seal.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn append(&self, path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(at)?;
        file.seek(SeekFrom::Start(at))?;
        file.write_all(bytes)
    }
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct RealIo;

impl CacheIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_lock(&self, path: &Path) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        write!(f, "{}", std::process::id())
    }
}

/// The real filesystem wrapped with a deterministic [`IoFaultInjector`]:
/// at the injector's trigger point the configured fault strikes exactly
/// once.
pub struct FaultyIo {
    inner: RealIo,
    injector: Arc<IoFaultInjector>,
}

impl FaultyIo {
    /// Wraps the real filesystem with `injector`.
    pub fn new(injector: Arc<IoFaultInjector>) -> Self {
        FaultyIo {
            inner: RealIo,
            injector,
        }
    }
}

impl FaultyIo {
    /// The bytes a write lands when the armed fault strikes it, or the
    /// error it fails with; `None` when no fault strikes this write.
    fn strike(&self, bytes: &[u8]) -> Option<io::Result<Vec<u8>>> {
        if !self.injector.should_fire(IoOp::Write) {
            return None;
        }
        Some(match self.injector.kind() {
            // A crash mid-write: only a prefix reaches the disk, and
            // the write call itself appears to succeed.
            IoFaultKind::TornWrite => Ok(bytes[..bytes.len() / 2].to_vec()),
            // The bytes land whole, then lose their tail.
            IoFaultKind::Truncate => Ok(bytes[..bytes.len().saturating_sub(8)].to_vec()),
            // Media bit rot: one bit of the payload flips silently.
            IoFaultKind::BitFlip => {
                let mut corrupt = bytes.to_vec();
                if let Some(last) = corrupt.last_mut() {
                    *last ^= 0x01;
                }
                Ok(corrupt)
            }
            IoFaultKind::Enospc => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
            IoFaultKind::Eacces => Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "injected EACCES",
            )),
            IoFaultKind::RenameFail => unreachable!("rename faults target IoOp::Rename"),
        })
    }
}

impl CacheIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.strike(bytes) {
            Some(landed) => self.inner.write(path, &landed?),
            None => self.inner.write(path, bytes),
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.injector.should_fire(IoOp::Rename) {
            return Err(io::Error::other("injected rename failure"));
        }
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn create_lock(&self, path: &Path) -> io::Result<()> {
        self.inner.create_lock(path)
    }
    fn append(&self, path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
        match self.strike(bytes) {
            Some(landed) => self.inner.append(path, at, &landed?),
            None => self.inner.append(path, at, bytes),
        }
    }
}

// ---- advisory lock --------------------------------------------------------

struct DirLock<'a> {
    io: &'a dyn CacheIo,
    path: PathBuf,
    /// Whether acquiring it meant breaking a stale lock, whose dead
    /// owner may have left temp files behind.
    broke: bool,
}

/// The lock file's mtime, if it can be observed at all.
fn lock_mtime(path: &Path) -> Option<std::time::SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// Whether a lock with this mtime is past the staleness horizon.
fn lock_is_stale(mtime: Option<std::time::SystemTime>) -> bool {
    mtime
        .and_then(|m| m.elapsed().ok())
        .is_some_and(|age| age.as_secs() >= LOCK_STALE_SECS)
}

impl<'a> DirLock<'a> {
    /// Acquires the advisory lock, breaking stale locks and retrying
    /// briefly against live contenders.
    fn acquire(io: &'a dyn CacheIo, dir: &Path) -> io::Result<Self> {
        let path = dir.join(".lock");
        let mut broke = false;
        for attempt in 0..50 {
            match io.create_lock(&path) {
                Ok(()) => return Ok(DirLock { io, path, broke }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let judged = lock_mtime(&path);
                    if lock_is_stale(judged) {
                        // Presumed-dead owner: break the lock under the
                        // break mutex, then loop straight back to the
                        // O_EXCL create so exactly one breaker wins.
                        Self::break_stale(io, dir, &path, judged);
                        broke = true;
                    } else if attempt == 49 {
                        return Err(e);
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "cache lock contention",
        ))
    }

    /// Breaks a `.lock` judged stale at mtime `judged`. Unlink + O_EXCL
    /// create is not atomic, so a naive break lets two contenders both
    /// unlink and one of them delete a lock a third party just
    /// legitimately re-created. All unlinks of `.lock` therefore
    /// serialize on a second O_EXCL file, `.lock.break`, and the winner
    /// re-verifies — while holding the break mutex — that the lock it is
    /// about to unlink is byte-for-byte the one it judged stale: same
    /// mtime, still past the horizon. A fresh lock can only appear
    /// *after* an unlink, and unlinks only happen inside the mutex, so
    /// no live owner's lock is ever removed.
    fn break_stale(
        io: &dyn CacheIo,
        dir: &Path,
        path: &Path,
        judged: Option<std::time::SystemTime>,
    ) {
        let breaker = dir.join(".lock.break");
        match io.create_lock(&breaker) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                // The break mutex is held only across two stats and an
                // unlink — never across blocking work — so a stale one
                // belongs to a breaker that died mid-break.
                if lock_is_stale(lock_mtime(&breaker)) {
                    let _ = io.remove(&breaker);
                }
                // Someone else is (or was) breaking; let them finish.
                std::thread::sleep(Duration::from_millis(2));
                return;
            }
            Err(_) => return,
        }
        let current = lock_mtime(path);
        if current == judged && lock_is_stale(current) {
            let _ = io.remove(path);
        }
        let _ = io.remove(&breaker);
    }

    /// Refreshes the lock's mtime, marking the owner as alive. Long
    /// multi-entry operations (eviction sweeps, `clear`) call this
    /// periodically so a legitimate holder working past
    /// [`LOCK_STALE_SECS`] is not presumed dead and broken mid-flight.
    fn refresh(&self) {
        touch(&self.path);
    }
}

impl Drop for DirLock<'_> {
    fn drop(&mut self) {
        let _ = self.io.remove(&self.path);
    }
}

// ---- stats ----------------------------------------------------------------

/// Runtime counters for one cache handle's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries loaded and validated successfully (and, through
    /// [`DiskCache::load_decoded`], decoded).
    pub hits: u64,
    /// Loads that found no (usable) entry.
    pub misses: u64,
    /// Entries persisted successfully.
    pub writes: u64,
    /// Stores that failed (lock, write, or rename) and were skipped.
    pub write_errors: u64,
    /// Entries moved to `quarantine/` after failing validation.
    pub quarantined: u64,
    /// Entries deleted by the LRU byte-budget pass.
    pub evicted: u64,
    /// Summary packs loaded, validated and decoded. Pack traffic is counted here,
    /// never in `hits`, `misses` or `writes`, which count outcome
    /// entries only (`write_errors`, `quarantined` and `evicted` count
    /// both kinds).
    pub pack_loads: u64,
    /// Pack loads that found no usable pack.
    pub pack_misses: u64,
    /// Summary packs persisted.
    pub pack_writes: u64,
}

impl CacheStats {
    /// Renders the counters as a JSON object (hand-rolled; the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"writes\":{},\"write_errors\":{},\
             \"quarantined\":{},\"evicted\":{},\"pack_loads\":{},\"pack_misses\":{},\
             \"pack_writes\":{}}}",
            self.hits,
            self.misses,
            self.writes,
            self.write_errors,
            self.quarantined,
            self.evicted,
            self.pack_loads,
            self.pack_misses,
            self.pack_writes
        )
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {}, misses {}, writes {}, write errors {}, quarantined {}, evicted {}; \
             packs: loads {}, misses {}, writes {}",
            self.hits,
            self.misses,
            self.writes,
            self.write_errors,
            self.quarantined,
            self.evicted,
            self.pack_loads,
            self.pack_misses,
            self.pack_writes
        )
    }
}

/// Why a [`DiskCache::load_classified`] call came up empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMiss {
    /// No entry file exists for the key.
    Absent,
    /// The entry file exists but could not be read (permissions, I/O).
    Unreadable,
    /// The entry failed validation and was quarantined; carries the
    /// stable quarantine reason (e.g. `"checksum mismatch"`).
    Invalid(&'static str),
}

/// The two kinds of entry the cache holds. They share the framing,
/// quarantine, locking and eviction; the file extension tells them apart
/// and keeps the outcome counters about outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A whole analysis outcome, `<key>.art`.
    Outcome,
    /// A per-procedure summary pack, `<key>.pack`.
    Pack,
}

impl Entry {
    fn extension(self) -> &'static str {
        match self {
            Entry::Outcome => "art",
            Entry::Pack => "pack",
        }
    }
}

/// What `verify` found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Outcome entries that validated end-to-end.
    pub valid: u64,
    /// Outcome entries that failed validation and were quarantined.
    pub quarantined: u64,
    /// Summary packs that validated end-to-end.
    pub packs_valid: u64,
    /// Summary packs that failed validation and were quarantined.
    pub packs_quarantined: u64,
}

// ---- the cache ------------------------------------------------------------

/// A persistent, crash-safe artifact cache rooted at one directory.
///
/// Shared across analysis workers behind an [`Arc`]; every failure mode
/// degrades to a miss (cold recompute) and is counted, never propagated.
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    io: Box<dyn CacheIo>,
    stats: Mutex<CacheStats>,
    anomalies: Mutex<BTreeMap<String, u64>>,
    /// Whether this handle has swept dead temp files yet.
    swept: AtomicBool,
}

impl fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCache")
            .field("dir", &self.dir)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_io(dir, Box::new(RealIo))
    }

    /// Opens a cache whose filesystem accesses go through `io` — the
    /// fault-injection entry point.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn with_io(dir: impl Into<PathBuf>, io: Box<dyn CacheIo>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            max_bytes: None,
            io,
            stats: Mutex::new(CacheStats::default()),
            anomalies: Mutex::new(BTreeMap::new()),
            swept: AtomicBool::new(false),
        })
    }

    /// Caps the cache at `max_bytes` of entry data, enforced by LRU
    /// eviction after each store.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64, entry: Entry) -> PathBuf {
        self.dir.join(format!("{key:016x}.{}", entry.extension()))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn note_anomaly(&self, what: &str) {
        let mut anomalies = self.anomalies.lock().expect("cache anomaly lock");
        *anomalies.entry(what.to_string()).or_insert(0) += 1;
    }

    /// Moves `path` into `quarantine/`, falling back to deletion when
    /// even the move fails; the entry must not be loadable again either
    /// way.
    fn quarantine_file(&self, path: &Path, reason: &str) {
        let qdir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && path
                .file_name()
                .is_some_and(|name| self.io.rename(path, &qdir.join(name)).is_ok());
        if !moved {
            let _ = self.io.remove(path);
        }
        self.stats.lock().expect("cache stats lock").quarantined += 1;
        self.note_anomaly(&format!("diskcache: quarantined ({reason})"));
    }

    /// Quarantines `key`'s entry for a reason detected *above* the
    /// framing layer.
    pub fn quarantine_key(&self, key: u64, reason: &str) {
        self.quarantine_file(&self.entry_path(key, Entry::Outcome), reason);
    }

    /// Loads and validates `key`'s payload. Any failure — missing file,
    /// unreadable file, header or checksum mismatch — is a miss; corrupt
    /// entries are quarantined on the way out.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        self.load_classified(key).ok()
    }

    /// Like [`DiskCache::load`], but a miss reports *why* the entry was
    /// unusable so callers can attribute the recomputation. Stats and
    /// quarantine side effects are identical to `load`.
    ///
    /// # Errors
    ///
    /// The [`LoadMiss`] classification of the failed load.
    pub fn load_classified(&self, key: u64) -> Result<Vec<u8>, LoadMiss> {
        self.load_decoded(key, |payload| Some(payload.to_vec()))
    }

    /// [`DiskCache::load_classified`] through `decode`: a payload that
    /// passes its checksum but does not decode (codec skew within one
    /// format version, or a lying writer) is quarantined and counted as
    /// a miss, not a hit.
    ///
    /// # Errors
    ///
    /// The [`LoadMiss`] classification of the failed load or decode.
    pub fn load_decoded<T>(
        &self,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<T, LoadMiss> {
        self.load_entry(key, Entry::Outcome, |bytes| {
            decode(validate_entry(key, &bytes)?).ok_or(DECODE_FAILED)
        })
    }

    /// Loads a summary pack: its segments validated against the seal
    /// and decoded by `decode`, in file order. Any invalid or undecodable
    /// segment quarantines the whole pack. Counted as pack traffic. The
    /// file is read under the directory lock, so an append in flight is
    /// never seen half done.
    ///
    /// # Errors
    ///
    /// The [`LoadMiss`] classification of the failed load or decode.
    pub fn load_pack<T>(
        &self,
        key: u64,
        decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> Result<Vec<T>, LoadMiss> {
        self.load_entry(key, Entry::Pack, |bytes| {
            pack_segments(key, &bytes)?
                .into_iter()
                .map(decode)
                .collect::<Option<Vec<T>>>()
                .ok_or(DECODE_FAILED)
        })
    }

    fn count(
        &self,
        entry: Entry,
        outcome: impl Fn(&mut CacheStats) -> &mut u64,
        pack: impl Fn(&mut CacheStats) -> &mut u64,
    ) {
        let mut stats = self.stats.lock().expect("cache stats lock");
        match entry {
            Entry::Outcome => *outcome(&mut stats) += 1,
            Entry::Pack => *pack(&mut stats) += 1,
        }
    }

    fn count_miss(&self, entry: Entry) {
        self.count(entry, |s| &mut s.misses, |s| &mut s.pack_misses);
    }

    /// Reads one entry and hands its bytes to `parse`, which validates
    /// and decodes them; only an entry that parses counts as a hit (or
    /// pack load), and one that fails is quarantined for the reason
    /// `parse` gives.
    fn load_entry<T>(
        &self,
        key: u64,
        entry: Entry,
        parse: impl FnOnce(Vec<u8>) -> Result<T, &'static str>,
    ) -> Result<T, LoadMiss> {
        let path = self.entry_path(key, entry);
        let read = match entry {
            Entry::Outcome => self.io.read(&path),
            // Appends are in place; a reader that cannot get the lock
            // reads anyway, and at worst quarantines a torn pack.
            Entry::Pack => {
                let _lock = DirLock::acquire(self.io.as_ref(), &self.dir).ok();
                self.io.read(&path)
            }
        };
        let bytes = match read {
            Ok(bytes) => bytes,
            Err(e) => {
                let reason = if e.kind() == io::ErrorKind::NotFound {
                    LoadMiss::Absent
                } else {
                    self.note_anomaly("diskcache: unreadable entry");
                    LoadMiss::Unreadable
                };
                self.count_miss(entry);
                return Err(reason);
            }
        };
        match parse(bytes) {
            Ok(value) => {
                touch(&path);
                self.count(entry, |s| &mut s.hits, |s| &mut s.pack_loads);
                Ok(value)
            }
            Err(reason) => {
                self.quarantine_file(&path, reason);
                self.count_miss(entry);
                Err(LoadMiss::Invalid(reason))
            }
        }
    }

    /// Persists `payload` under `key` via temp-file + atomic rename,
    /// holding the advisory directory lock. Failures are counted and
    /// swallowed — the analysis result is already in hand; the cache
    /// merely failed to remember it.
    pub fn store(&self, key: u64, payload: &[u8]) {
        self.publish(key, &encode_entry(key, payload), Entry::Outcome);
    }

    /// Writes `payload` afresh as `key`'s whole summary pack, one
    /// segment, like [`DiskCache::store`]; counted as pack traffic.
    pub fn store_pack(&self, key: u64, payload: &[u8]) {
        self.publish(key, &encode_pack(key, &[payload]), Entry::Pack);
    }

    /// Appends `segment` to `key`'s summary pack under the directory
    /// lock, or — when there is no pack to append to, or the appended
    /// segments would outgrow [`PACK_COMPACT_PERCENT`] of the first one
    /// — compacts: writes `fresh()` as the whole pack, like
    /// [`DiskCache::store_pack`]. Returns the payload bytes written (0
    /// when the store failed; failures are counted and swallowed).
    pub fn append_pack(&self, key: u64, segment: &[u8], fresh: impl FnOnce() -> Vec<u8>) -> usize {
        let Some(lock) = self.lock_for_store() else {
            return 0;
        };
        let path = self.entry_path(key, Entry::Pack);
        let appended = (HEADER_LEN + segment.len()) as u64;
        let tail = pack_tail(&path, key).filter(|t| {
            let grown = t.len - t.base - SEAL_LEN as u64 + appended;
            grown * 100 <= t.base * PACK_COMPACT_PERCENT
        });
        let Some(tail) = tail else {
            let payload = fresh();
            let written =
                self.publish_locked(key, &encode_pack(key, &[&payload]), Entry::Pack, &lock);
            return if written { payload.len() } else { 0 };
        };
        let mut bytes = encode_entry(key, segment);
        let chain = chain_step(tail.chain, checksum(segment));
        bytes.extend_from_slice(&seal(tail.count + 1, chain));
        if let Err(e) = self.io.append(&path, tail.len - SEAL_LEN as u64, &bytes) {
            self.stats.lock().expect("cache stats lock").write_errors += 1;
            self.note_anomaly(&format!("diskcache: append failed ({})", e.kind()));
            return 0;
        }
        self.count(Entry::Pack, |s| &mut s.writes, |s| &mut s.pack_writes);
        self.after_store(&lock);
        segment.len()
    }

    /// The directory lock for a store, or `None` (counted) when it
    /// cannot be had.
    fn lock_for_store(&self) -> Option<DirLock<'_>> {
        match DirLock::acquire(self.io.as_ref(), &self.dir) {
            Ok(lock) => Some(lock),
            Err(e) => {
                self.stats.lock().expect("cache stats lock").write_errors += 1;
                self.note_anomaly(&format!("diskcache: lock failed ({})", e.kind()));
                None
            }
        }
    }

    fn publish(&self, key: u64, image: &[u8], entry: Entry) {
        if let Some(lock) = self.lock_for_store() {
            self.publish_locked(key, image, entry, &lock);
        }
    }

    /// Writes the file `image` as `key`'s entry through temp file and
    /// rename, under `lock`; whether it landed.
    fn publish_locked(&self, key: u64, image: &[u8], entry: Entry, lock: &DirLock<'_>) -> bool {
        let tmp = self
            .dir
            .join(format!(".tmp-{key:016x}.{}", std::process::id()));
        if let Err(e) = self.io.write(&tmp, image) {
            let _ = self.io.remove(&tmp);
            self.stats.lock().expect("cache stats lock").write_errors += 1;
            self.note_anomaly(&format!("diskcache: write failed ({})", e.kind()));
            return false;
        }
        if let Err(e) = self.io.rename(&tmp, &self.entry_path(key, entry)) {
            let _ = self.io.remove(&tmp);
            self.stats.lock().expect("cache stats lock").write_errors += 1;
            self.note_anomaly(&format!("diskcache: rename failed ({})", e.kind()));
            return false;
        }
        self.count(entry, |s| &mut s.writes, |s| &mut s.pack_writes);
        self.after_store(lock);
        true
    }

    /// Housekeeping after a successful store: the dead-temp sweep — on
    /// the handle's first store, and whenever the lock had to be broken
    /// — then the byte budget.
    fn after_store(&self, lock: &DirLock<'_>) {
        if lock.broke || !self.swept.swap(true, Ordering::Relaxed) {
            self.sweep_dead_temps();
        }
        self.evict_over_budget(lock);
    }

    /// Deletes least-recently-used entries until the byte budget holds.
    /// Only canonical entries, outcomes and packs (see [`payload_key`]),
    /// are counted or deleted; audit ledgers, quarantined files, the
    /// advisory lock, and anything else sharing the directory are out of
    /// scope.
    fn evict_over_budget(&self, lock: &DirLock<'_>) {
        let Some(max) = self.max_bytes else { return };
        let mut entries = self.list_entries();
        let mut total: u64 = entries.iter().map(|e| e.size).sum();
        // Oldest mtime first; name breaks ties deterministically.
        entries.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        let mut evicted = 0;
        for (i, entry) in entries.iter().enumerate() {
            if total <= max {
                break;
            }
            // A sweep over many entries can outlast the staleness
            // horizon; keep marking the lock alive so contenders don't
            // presume us dead and break it mid-sweep.
            if i % 64 == 0 {
                lock.refresh();
            }
            if self.io.remove(&entry.path).is_ok() {
                total -= entry.size;
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.stats.lock().expect("cache stats lock").evicted += evicted;
        }
    }

    /// Deletes `.tmp-*` files older than the staleness horizon: a
    /// crashed writer's torn temp is never published, but left alone it
    /// would consume disk forever while staying invisible to the byte
    /// budget. Fresh temps belong to in-flight writers and are kept.
    fn sweep_dead_temps(&self) {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for dirent in read.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(".tmp-") {
                continue;
            }
            let dead = dirent
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| mtime.elapsed().ok())
                .is_some_and(|age| age.as_secs() >= LOCK_STALE_SECS);
            if dead {
                let _ = self.io.remove(&dirent.path());
            }
        }
    }

    fn list_entries(&self) -> Vec<EntryMeta> {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for dirent in read.flatten() {
            let path = dirent.path();
            let Some((key, kind)) = payload_key(&path) else {
                continue;
            };
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            out.push(EntryMeta {
                mtime: meta.modified().ok(),
                size: meta.len(),
                key,
                kind,
                path,
            });
        }
        out
    }

    /// Number of outcome entries currently on disk.
    pub fn entry_count(&self) -> u64 {
        self.count_kind(Entry::Outcome)
    }

    /// Number of summary packs currently on disk.
    pub fn pack_count(&self) -> u64 {
        self.count_kind(Entry::Pack)
    }

    fn count_kind(&self, kind: Entry) -> u64 {
        self.list_entries()
            .iter()
            .filter(|e| e.kind == kind)
            .count() as u64
    }

    /// Total bytes of entry files, outcomes and packs, currently on
    /// disk: what the byte budget governs.
    pub fn total_bytes(&self) -> u64 {
        self.list_entries().iter().map(|e| e.size).sum()
    }

    /// Number of files sitting in `quarantine/`.
    pub fn quarantine_count(&self) -> u64 {
        std::fs::read_dir(self.quarantine_dir())
            .map(|read| read.flatten().count() as u64)
            .unwrap_or(0)
    }

    /// Validates every entry on disk, quarantining the ones that fail.
    pub fn verify(&self) -> VerifyOutcome {
        let mut outcome = VerifyOutcome::default();
        for entry in self.list_entries() {
            let verdict = match (self.io.read(&entry.path), entry.kind) {
                (Ok(bytes), Entry::Outcome) => validate_entry(entry.key, &bytes).map(|_| ()),
                (Ok(bytes), Entry::Pack) => pack_segments(entry.key, &bytes).map(|_| ()),
                (Err(_), _) => Err("unreadable entry"),
            };
            let (valid, quarantined) = match entry.kind {
                Entry::Outcome => (&mut outcome.valid, &mut outcome.quarantined),
                Entry::Pack => (&mut outcome.packs_valid, &mut outcome.packs_quarantined),
            };
            match verdict {
                Ok(()) => *valid += 1,
                Err(reason) => {
                    self.quarantine_file(&entry.path, reason);
                    *quarantined += 1;
                }
            }
        }
        outcome
    }

    /// Removes every entry, summary packs included, and every
    /// quarantined file; returns how many outcome entries and
    /// quarantined files were deleted (packs are derived data the next
    /// cold run rebuilds, and are not counted).
    pub fn clear(&self) -> u64 {
        let lock = DirLock::acquire(self.io.as_ref(), &self.dir).ok();
        let mut removed = 0;
        for (i, entry) in self.list_entries().iter().enumerate() {
            if i % 64 == 0 {
                if let Some(lock) = &lock {
                    lock.refresh();
                }
            }
            if self.io.remove(&entry.path).is_ok() && entry.kind == Entry::Outcome {
                removed += 1;
            }
        }
        if let Ok(read) = std::fs::read_dir(self.quarantine_dir()) {
            for dirent in read.flatten() {
                if self.io.remove(&dirent.path()).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Snapshot of this handle's runtime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.lock().expect("cache stats lock").clone()
    }

    /// The cache's own robustness ledger: every quarantine, failed
    /// write, and unreadable entry, as anomaly counts. Kept separate
    /// from the analysis outcome's report so warm results stay
    /// bit-identical to cold.
    pub fn robustness(&self) -> RobustnessReport {
        RobustnessReport {
            anomalies: self.anomalies.lock().expect("cache anomaly lock").clone(),
            ..RobustnessReport::default()
        }
    }
}

struct EntryMeta {
    mtime: Option<std::time::SystemTime>,
    size: u64,
    key: u64,
    kind: Entry,
    path: PathBuf,
}

/// The key and kind of a canonical entry — a file named exactly
/// `<key:016x>.art` or `<key:016x>.pack` — or `None` for everything
/// else. This is the scope test for eviction and entry listings: the
/// advisory `.lock`, the `audit/` ledgers, `quarantine/`, in-flight
/// `.tmp-*` files, and any foreign file a user drops next to the cache
/// all fall outside it.
fn payload_key(path: &Path) -> Option<(u64, Entry)> {
    let kind = match path.extension().and_then(|e| e.to_str()) {
        Some("art") => Entry::Outcome,
        Some("pack") => Entry::Pack,
        _ => return None,
    };
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some((u64::from_str_radix(stem, 16).ok()?, kind))
}

/// Best-effort LRU touch: refresh `path`'s mtime so eviction sees it as
/// recently used. Failures are ignored — staler-than-real mtimes only
/// make eviction marginally less precise.
fn touch(path: &Path) {
    if let Ok(f) = std::fs::File::options().append(true).open(path) {
        let now = std::time::SystemTime::now();
        let _ = f.set_times(std::fs::FileTimes::new().set_modified(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::codec::{decode_from_slice, encode_to_vec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipcp-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(7, b"hello artifact");
        assert_eq!(cache.load(7).as_deref(), Some(&b"hello artifact"[..]));
        let stats = cache.stats();
        assert_eq!((stats.writes, stats.hits, stats.misses), (1, 1, 0));
        assert!(cache.robustness().is_clean());
        // A fresh handle over the same directory sees the entry (the
        // whole point of persistence).
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.load(7).as_deref(), Some(&b"hello artifact"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_plain_miss() {
        let dir = temp_dir("miss");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load(1), None);
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.robustness().is_clean(), "a miss is not an anomaly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_bit_flips_do_not_cancel() {
        // A multiply-only word step keeps a bit-63 difference at bit 63,
        // so two such flips, or one in a word and one in the stored sum
        // (header byte 43), would cancel.
        let payload: Vec<u8> = (0..40u8).collect();
        let image = encode_entry(5, &payload);
        assert!(validate_entry(5, &image).is_ok());
        let flipped = |offsets: &[usize]| {
            let mut bytes = image.clone();
            for &at in offsets {
                bytes[at] ^= 0x80;
            }
            validate_entry(5, &bytes).err()
        };
        for pair in [[7, 15], [15, 39], [7, 39]] {
            let offsets = pair.map(|at| HEADER_LEN + at);
            assert_eq!(flipped(&offsets), Some("checksum mismatch"), "{pair:?}");
        }
        for at in [7, 15, 39] {
            assert_eq!(
                flipped(&[HEADER_LEN + at, 43]),
                Some("checksum mismatch"),
                "payload byte {at} and the sum's top bit"
            );
        }
    }

    #[test]
    fn corrupt_entries_quarantine_and_miss() {
        for (tag, mutate) in [
            (
                "truncate",
                Box::new(|b: &mut Vec<u8>| b.truncate(b.len() - 4)) as Box<dyn Fn(&mut Vec<u8>)>,
            ),
            (
                "bitflip",
                Box::new(|b: &mut Vec<u8>| {
                    let last = b.len() - 1;
                    b[last] ^= 0x80;
                }),
            ),
            ("magic", Box::new(|b: &mut Vec<u8>| b[0] = b'X')),
            ("version", Box::new(|b: &mut Vec<u8>| b[8] ^= 0xff)),
            ("header", Box::new(|b: &mut Vec<u8>| b.truncate(10))),
        ] {
            let dir = temp_dir(&format!("corrupt-{tag}"));
            let cache = DiskCache::open(&dir).unwrap();
            cache.store(3, b"payload bytes");
            let path = dir.join(format!("{:016x}.art", 3));
            let mut bytes = std::fs::read(&path).unwrap();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();

            assert_eq!(cache.load(3), None, "{tag}: corrupt entry must miss");
            assert!(!path.exists(), "{tag}: entry must leave the cache dir");
            assert_eq!(cache.stats().quarantined, 1, "{tag}");
            assert_eq!(cache.quarantine_count(), 1, "{tag}");
            let report = cache.robustness();
            assert_eq!(report.total_anomalies(), 1, "{tag}");
            // Re-load after quarantine is a plain miss, not a re-quarantine.
            assert_eq!(cache.load(3), None);
            assert_eq!(cache.stats().quarantined, 1, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wrong_key_content_is_quarantined() {
        let dir = temp_dir("wrongkey");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(5, b"five");
        // Copy entry 5's bytes over entry 9's name: key field mismatch.
        let bytes = std::fs::read(dir.join(format!("{:016x}.art", 5))).unwrap();
        std::fs::write(dir.join(format!("{:016x}.art", 9)), &bytes).unwrap();
        assert_eq!(cache.load(9), None);
        assert_eq!(cache.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_kind_degrades_to_cold() {
        for kind in IoFaultKind::ALL {
            let dir = temp_dir(&format!("fault-{}", kind.name()));
            let injector = Arc::new(IoFaultInjector::new(kind, 1));
            let cache =
                DiskCache::with_io(&dir, Box::new(FaultyIo::new(Arc::clone(&injector)))).unwrap();
            cache.store(11, b"precious result");
            assert_eq!(injector.injected(), 1, "{kind}: fault must fire");
            // Whatever the fault did, a load never returns wrong bytes:
            // either the entry survived intact (fault hit the temp file
            // and was caught before publish) or it misses.
            if let Some(bytes) = cache.load(11) {
                assert_eq!(bytes, b"precious result", "{kind}");
            }
            let stats = cache.stats();
            assert!(
                stats.write_errors + stats.quarantined + stats.hits > 0,
                "{kind}: fault must be visible in stats: {stats}"
            );
            // A second store (fault already spent) must succeed.
            cache.store(11, b"precious result");
            assert_eq!(
                cache.load(11).as_deref(),
                Some(&b"precious result"[..]),
                "{kind}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_temp_write_never_publishes_a_partial_entry() {
        let dir = temp_dir("torn-publish");
        let injector = Arc::new(IoFaultInjector::new(IoFaultKind::TornWrite, 1));
        let cache = DiskCache::with_io(&dir, Box::new(FaultyIo::new(injector))).unwrap();
        cache.store(2, b"half of me will be missing");
        // The torn temp file was renamed into place (the tear was
        // silent), so the *validator* must catch it at load time.
        assert_eq!(cache.load(2), None);
        assert_eq!(cache.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_enforces_byte_budget() {
        let dir = temp_dir("evict");
        let entry_size = (HEADER_LEN + 100) as u64;
        let cache = DiskCache::open(&dir)
            .unwrap()
            .with_max_bytes(entry_size * 2);
        let payload = [0u8; 100];
        cache.store(1, &payload);
        cache.store(2, &payload);
        // Make entry 1 the most recently used, then overflow the budget.
        std::thread::sleep(Duration::from_millis(20));
        assert!(cache.load(1).is_some());
        std::thread::sleep(Duration::from_millis(20));
        cache.store(3, &payload);
        assert_eq!(cache.stats().evicted, 1);
        assert_eq!(cache.entry_count(), 2);
        assert!(cache.load(2).is_none(), "LRU entry 2 must be the victim");
        assert!(cache.load(1).is_some());
        assert!(cache.load(3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_quarantines_bad_entries_and_counts_good_ones() {
        let dir = temp_dir("verify");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(1, b"good");
        cache.store(2, b"soon bad");
        let victim = dir.join(format!("{:016x}.art", 2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let outcome = cache.verify();
        assert_eq!(
            outcome,
            VerifyOutcome {
                valid: 1,
                quarantined: 1,
                ..VerifyOutcome::default()
            }
        );
        assert_eq!(cache.quarantine_count(), 1);
        // Idempotent: a second verify finds only the good entry.
        assert_eq!(
            cache.verify(),
            VerifyOutcome {
                valid: 1,
                quarantined: 0,
                ..VerifyOutcome::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_entries_and_quarantine() {
        let dir = temp_dir("clear");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(1, b"a");
        cache.store(2, b"b");
        cache.quarantine_key(1, "test");
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.quarantine_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = temp_dir("stalelock");
        let cache = DiskCache::open(&dir).unwrap();
        let lock = dir.join(".lock");
        std::fs::write(&lock, "99999").unwrap();
        // Backdate the lock past the staleness horizon.
        let old = std::time::SystemTime::now() - Duration::from_secs(LOCK_STALE_SECS + 5);
        let f = std::fs::File::options().append(true).open(&lock).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
        drop(f);
        cache.store(4, b"through the stale lock");
        assert_eq!(cache.stats().writes, 1);
        assert_eq!(
            cache.load(4).as_deref(),
            Some(&b"through the stale lock"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn backdate(path: &Path) {
        let old = std::time::SystemTime::now() - Duration::from_secs(LOCK_STALE_SECS + 5);
        let f = std::fs::File::options().append(true).open(path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
    }

    /// [`RealIo`] whose removals of a *stale* `.lock` are artificially
    /// staggered, widening the judge→unlink window the pre-fix breaking
    /// code raced on: contender B's delayed unlink lands after contender
    /// A already re-created the lock, letting C in alongside A.
    struct StaggeredBreakIo {
        inner: RealIo,
        seq: std::sync::atomic::AtomicUsize,
    }

    impl CacheIo for StaggeredBreakIo {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            let is_lock = path.file_name().and_then(|n| n.to_str()) == Some(".lock");
            if is_lock && lock_is_stale(lock_mtime(path)) {
                // Delay even the first unlink so every contender gets to
                // judge the old lock stale before any of them removes it.
                let n = self
                    .seq
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                    .min(8);
                std::thread::sleep(Duration::from_millis(10 * (n as u64 + 1)));
            }
            self.inner.remove(path)
        }
        fn create_lock(&self, path: &Path) -> io::Result<()> {
            self.inner.create_lock(path)
        }
    }

    #[test]
    fn breaking_a_stale_lock_admits_exactly_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = temp_dir("break-race");
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join(".lock");
        std::fs::write(&lock, "99999").unwrap();
        backdate(&lock);
        let io: Arc<StaggeredBreakIo> = Arc::new(StaggeredBreakIo {
            inner: RealIo,
            seq: AtomicUsize::new(0),
        });
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (io, active, peak, dir) = (&io, &active, &peak, &dir);
                scope.spawn(move || {
                    let guard = DirLock::acquire(io.as_ref() as &dyn CacheIo, dir)
                        .expect("every contender eventually acquires");
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(25));
                    active.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                });
            }
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "two contenders held the advisory lock at once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`RealIo`] that simulates the legitimate owner's refresh landing
    /// in the window between a contender judging the lock stale and
    /// unlinking it: the moment the contender wins the break mutex, the
    /// lock's mtime moves. The breaker must notice and decline.
    struct RefreshRacingIo {
        inner: RealIo,
        lock: PathBuf,
    }

    impl CacheIo for RefreshRacingIo {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn create_lock(&self, path: &Path) -> io::Result<()> {
            let created = self.inner.create_lock(path);
            if created.is_ok() && path.file_name().and_then(|n| n.to_str()) == Some(".lock.break") {
                touch(&self.lock);
            }
            created
        }
    }

    #[test]
    fn a_lock_refreshed_after_being_judged_stale_is_never_unlinked() {
        let dir = temp_dir("refresh-race");
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join(".lock");
        std::fs::write(&lock, "99999").unwrap();
        backdate(&lock);
        let io = RefreshRacingIo {
            inner: RealIo,
            lock: lock.clone(),
        };
        // The owner keeps refreshing (via the interposed IO), so the
        // contender must give up rather than break a live lock.
        assert!(DirLock::acquire(&io, &dir).is_err());
        assert!(lock.exists(), "the refreshed lock must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_marks_a_long_holder_alive() {
        let dir = temp_dir("refresh");
        std::fs::create_dir_all(&dir).unwrap();
        let io = RealIo;
        let guard = DirLock::acquire(&io, &dir).unwrap();
        backdate(&guard.path);
        assert!(lock_is_stale(lock_mtime(&guard.path)));
        guard.refresh();
        assert!(
            !lock_is_stale(lock_mtime(&guard.path)),
            "refresh must move the lock out of the staleness horizon"
        );
    }

    #[test]
    fn eviction_touches_only_canonical_payload_entries() {
        let dir = temp_dir("evict-scope");
        let cache = DiskCache::open(&dir).unwrap().with_max_bytes(0);
        // Populate every kind of neighbour that shares the directory.
        let audit_dir = dir.join("audit");
        std::fs::create_dir_all(&audit_dir).unwrap();
        let ledger = audit_dir.join("00000000deadbeef.ledger");
        std::fs::write(&ledger, "ledger").unwrap();
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        let quarantined = qdir.join(format!("{:016x}.art", 1));
        std::fs::write(&quarantined, "poison").unwrap();
        let stray = dir.join("stray.art");
        std::fs::write(&stray, "a user file that merely ends in .art").unwrap();
        let fresh_tmp = dir.join(format!(".tmp-{:016x}.99999", 2));
        std::fs::write(&fresh_tmp, "in-flight writer").unwrap();
        let dead_tmp = dir.join(format!(".tmp-{:016x}.88888", 3));
        std::fs::write(&dead_tmp, "crashed writer").unwrap();
        backdate(&dead_tmp);
        // A store over budget 0 must evict — but only its own kind.
        cache.store(7, b"payload");
        assert_eq!(cache.entry_count(), 0, "the payload entry is evicted");
        assert_eq!(cache.stats().evicted, 1);
        assert!(ledger.exists(), "audit ledgers are not eviction fodder");
        assert!(
            quarantined.exists(),
            "quarantined files are kept for postmortems"
        );
        assert!(stray.exists(), "foreign *.art files are outside the sweep");
        assert!(fresh_tmp.exists(), "a live writer's temp file survives");
        assert!(!dead_tmp.exists(), "a crashed writer's stale temp is swept");
        assert!(
            !dir.join(".lock").exists(),
            "the lock was released, never evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_zero_churn_still_attributes_eviction_in_the_audit() {
        use crate::session::AnalysisSession;
        let dir = temp_dir("evict-why");
        let source = "main\n  x = 1\n  print(x)\nend\n";
        let run = || {
            let cache = Arc::new(DiskCache::open(&dir).unwrap().with_max_bytes(0));
            let mut session = AnalysisSession::from_source(source).unwrap();
            session.attach_disk_cache(cache);
            session.set_audit_label("churn.mf");
            let session = session;
            session.analyze(&AnalysisConfig::default());
            session.last_audit().expect("audit available")
        };
        run();
        // The second run finds its outcome evicted (budget 0), and the
        // ledger-backed audit says so — `ipcp why` keeps attributing
        // correctly even while eviction churns around the ledger.
        let audit = run();
        let rendered = audit.render(None);
        assert!(
            rendered.contains("evicted"),
            "expected an eviction attribution, got:\n{rendered}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_key_separates_programs_and_configs() {
        let base = AnalysisConfig::default();
        let other = AnalysisConfig {
            return_jump_functions: !base.return_jump_functions,
            ..AnalysisConfig::default()
        };
        assert_ne!(outcome_key(1, &base), outcome_key(2, &base));
        assert_ne!(outcome_key(1, &base), outcome_key(1, &other));
        let cond = AnalysisConfig::conditional();
        let plain = AnalysisConfig {
            branch_feasibility: false,
            ..AnalysisConfig::conditional()
        };
        assert_ne!(outcome_key(1, &cond), outcome_key(1, &plain));
        // jobs and fuel must NOT affect the key.
        let tuned = AnalysisConfig {
            jobs: 8,
            fuel: Some(1_000_000),
            ..AnalysisConfig::default()
        };
        assert_eq!(outcome_key(1, &base), outcome_key(1, &tuned));
    }

    #[test]
    fn analysis_outcome_wire_roundtrip_is_bit_identical() {
        let outcome = crate::analyze_source(
            "global n\n\
             proc f(a)\n  print(a + n)\nend\n\
             main\n  n = 3\n  call f(4)\nend\n",
            &AnalysisConfig::default(),
        )
        .expect("analyzes");
        let bytes = encode_to_vec(&outcome);
        let back: AnalysisOutcome = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(
            encode_to_vec(&back),
            bytes,
            "re-encode must be bit-identical"
        );
        assert_eq!(back.constant_slot_count(), outcome.constant_slot_count());
        assert_eq!(back.substitutions, outcome.substitutions);
    }
}
