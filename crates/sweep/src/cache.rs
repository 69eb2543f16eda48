//! Content-addressed result cache.
//!
//! Each completed scenario cell is stored under its stable
//! [`Fingerprint`]: an in-memory map serves repeats inside one
//! campaign, and an optional cache directory
//! persists results across processes (one small JSON file per cell,
//! written atomically via a temp file + rename). Overlapping campaigns
//! therefore skip every cell any earlier campaign already simulated.

use std::collections::HashMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fingerprint::Fingerprint;
use crate::json::Json;

/// The cached numeric outcome of one scenario cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// End-to-end speedup over the dense baseline.
    pub speedup: f64,
    /// Total simulated cycles.
    pub cycles: f64,
    /// Dense-baseline cycles.
    pub dense_cycles: u64,
    /// Architecture power at the provisioned speedup (mW).
    pub power_mw: f64,
    /// Architecture area (mm²).
    pub area_mm2: f64,
    /// Effective TOPS/W (Definition V.1).
    pub tops_per_w: f64,
    /// Effective TOPS/mm².
    pub tops_per_mm2: f64,
}

impl CellMetrics {
    /// Serializes to a JSON object. Floats use [`Json::from_f64`] so
    /// that the degenerate NaN/∞ values sweep campaigns can produce
    /// still round-trip (plain JSON numbers cannot express them).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("speedup".into(), Json::from_f64(self.speedup)),
            ("cycles".into(), Json::from_f64(self.cycles)),
            // u64 as decimal string: full precision beyond 2^53.
            (
                "dense_cycles".into(),
                Json::Str(self.dense_cycles.to_string()),
            ),
            ("power_mw".into(), Json::from_f64(self.power_mw)),
            ("area_mm2".into(), Json::from_f64(self.area_mm2)),
            ("tops_per_w".into(), Json::from_f64(self.tops_per_w)),
            ("tops_per_mm2".into(), Json::from_f64(self.tops_per_mm2)),
        ])
    }

    /// Deserializes from the object written by [`CellMetrics::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, crate::json::JsonError> {
        Ok(CellMetrics {
            speedup: v.req("speedup")?.as_f64_lossless()?,
            cycles: v.req("cycles")?.as_f64_lossless()?,
            dense_cycles: v.req("dense_cycles")?.as_u64()?,
            power_mw: v.req("power_mw")?.as_f64_lossless()?,
            area_mm2: v.req("area_mm2")?.as_f64_lossless()?,
            tops_per_w: v.req("tops_per_w")?.as_f64_lossless()?,
            tops_per_mm2: v.req("tops_per_mm2")?.as_f64_lossless()?,
        })
    }
}

/// Cache activity counters for one campaign or process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that required a fresh simulation.
    pub misses: u64,
    /// Hits that came from the cache directory (subset of `hits`).
    pub disk_hits: u64,
    /// Results inserted.
    pub stores: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe content-addressed result cache.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<HashMap<Fingerprint, CellMetrics>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    stores: AtomicU64,
}

impl ResultCache {
    /// A purely in-memory cache (one process lifetime).
    pub fn in_memory() -> Self {
        ResultCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// A cache backed by a directory (created if absent); results
    /// persist across processes.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created.
    pub fn at_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let mut c = Self::in_memory();
        c.dir = Some(dir.as_ref().to_path_buf());
        Ok(c)
    }

    fn entry_path(&self, fp: Fingerprint) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{fp}.json")))
    }

    /// Looks up a fingerprint, counting a hit or miss. Disk entries are
    /// promoted into memory on first access.
    pub fn lookup(&self, fp: Fingerprint) -> Option<CellMetrics> {
        if let Some(m) = self.mem.lock().expect("cache lock").get(&fp).copied() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(m);
        }
        if let Some(path) = self.entry_path(fp) {
            if let Some(m) = read_entry(&path) {
                self.mem.lock().expect("cache lock").insert(fp, m);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some(m);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a result (memory, and disk when a directory is set).
    pub fn insert(&self, fp: Fingerprint, metrics: CellMetrics) {
        self.mem.lock().expect("cache lock").insert(fp, metrics);
        self.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = self.entry_path(fp) {
            // Failures to persist are non-fatal: the campaign still has
            // the result in memory; the next run re-simulates.
            let _ = write_entry(&path, &metrics);
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Resets the activity counters (entries are kept).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
    }
}

/// Summary of an on-disk cache directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheInfo {
    /// Number of result entries (`<fingerprint>.json` files).
    pub entries: u64,
    /// Total bytes of those entries.
    pub total_bytes: u64,
    /// Leftover temp files from interrupted writers.
    pub stale_tmp: u64,
}

/// Outcome of a [`prune_dir`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Entries evicted (oldest first).
    pub evicted: u64,
    /// Bytes reclaimed from evicted entries.
    pub freed_bytes: u64,
    /// Stale temp files removed.
    pub tmp_removed: u64,
    /// Entries and bytes remaining after the pass.
    pub kept: DiskCacheInfo,
}

/// Is this directory entry a cache result file?
fn is_entry(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

/// How old a writer temp file must be before maintenance treats it as
/// abandoned. Atomic writes live for milliseconds; an hour leaves no
/// room for racing an in-flight campaign's rename.
const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// Is this an *abandoned* temp file from an interrupted atomic write?
/// (Writers use `<fingerprint>.tmp.<pid>.<seq>`, see [`write_entry`].)
/// Fresh temp files — a concurrent campaign about to rename — never
/// match: a file with an unreadable or recent mtime is left alone.
fn is_stale_tmp(path: &Path) -> bool {
    let named_tmp = path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.contains(".tmp."));
    named_tmp
        && std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= STALE_TMP_AGE)
}

/// Scans a cache directory and reports entry count and size. Files that
/// vanish mid-scan (a concurrent pruner or writer rename) are skipped,
/// not errors.
///
/// # Errors
///
/// Returns the underlying error if the directory cannot be read.
pub fn disk_stats(dir: impl AsRef<Path>) -> io::Result<DiskCacheInfo> {
    let mut info = DiskCacheInfo::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if is_entry(&path) {
            let Ok(meta) = entry.metadata() else {
                continue; // vanished between read_dir and stat
            };
            info.entries += 1;
            info.total_bytes += meta.len();
        } else if is_stale_tmp(&path) {
            info.stale_tmp += 1;
        }
    }
    Ok(info)
}

/// Prunes a cache directory down to at most `max_bytes` of entries,
/// evicting in **age order** (oldest modification time first — the
/// entries least likely to be re-queried by ongoing campaigns), and
/// removes stale temp files. A `max_bytes` of 0 clears every entry.
///
/// Eviction is best-effort per file: an entry that disappears
/// concurrently (another pruner, a cache writer's rename) is skipped,
/// not an error.
///
/// # Errors
///
/// Returns the underlying error if the directory cannot be read.
pub fn prune_dir(dir: impl AsRef<Path>, max_bytes: u64) -> io::Result<PruneReport> {
    let mut report = PruneReport::default();
    let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let path = entry.path();
        if is_stale_tmp(&path) {
            if std::fs::remove_file(&path).is_ok() {
                report.tmp_removed += 1;
            }
            continue;
        }
        if !is_entry(&path) {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue; // vanished between read_dir and stat
        };
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        entries.push((path, meta.len(), mtime));
    }
    // Oldest first; ties broken by path for determinism.
    entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));

    // Bytes still on disk only shrink when a removal actually succeeds,
    // so a failed eviction (permissions, races) keeps the loop working
    // down the age list instead of declaring the budget met.
    let mut total: u64 = entries.iter().map(|e| e.1).sum();
    let mut evict = entries.iter();
    while total > max_bytes {
        let Some((path, len, _)) = evict.next() else {
            break;
        };
        if std::fs::remove_file(path).is_ok() {
            report.evicted += 1;
            report.freed_bytes += len;
            total -= len;
        }
    }
    report.kept = DiskCacheInfo {
        entries: entries.len() as u64 - report.evicted,
        total_bytes: total,
        stale_tmp: 0,
    };
    Ok(report)
}

/// An io error annotated with the directory it came from — `read_dir`
/// failures otherwise surface without any path at all.
fn dir_read_error(dir: &Path, e: &io::Error) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("reading cache dir `{}`: {e}", dir.display()),
    )
}

/// Outcome of a [`merge_dirs`] union.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Entries copied into the destination.
    pub merged: u64,
    /// Entries already present with identical canonical content.
    pub identical: u64,
    /// Unreadable, unparsable or oversized source entries skipped.
    pub invalid: u64,
    /// Torn destination entries (unparsable — a process died between a
    /// rename and its data hitting disk) and oversized ones, overwritten
    /// with good source content instead of being flagged as conflicts.
    pub healed: u64,
    /// Fingerprints present with *different* content (sorted). The
    /// destination keeps its first-seen value; callers treat a non-empty
    /// list as corruption (a fingerprint names the full scenario, so two
    /// honest caches can never disagree).
    pub conflicts: Vec<String>,
}

/// Unions the entries of several cache directories into `dest` by
/// fingerprint — the merge step of a sharded campaign, where every shard
/// simulated a disjoint cell set into its own directory.
///
/// Entries are re-encoded canonically (parse + rewrite through
/// [`CellMetrics`]), so equality is content equality: the same scenario
/// cached by different processes merges as `identical` even if the files
/// went through different write paths. A source directory that does not
/// exist is skipped (a shard may have had no cells); a source equal to
/// `dest` is skipped entirely. Writes are atomic (temp file + rename),
/// so a concurrent reader of `dest` never sees a torn entry.
///
/// # Errors
///
/// Returns the underlying error if `dest` cannot be created or an
/// existing source directory cannot be read.
pub fn merge_dirs(dest: impl AsRef<Path>, sources: &[impl AsRef<Path>]) -> io::Result<MergeReport> {
    let dest = dest.as_ref();
    std::fs::create_dir_all(dest)?;
    let dest_canon = std::fs::canonicalize(dest)?;
    let mut report = MergeReport::default();
    for src in sources {
        let src = src.as_ref();
        if !src.exists() {
            continue;
        }
        if std::fs::canonicalize(src)? == dest_canon {
            continue;
        }
        // Deterministic order: fingerprint-sorted entries, so the
        // first-seen value on a (hypothetical) conflict is stable.
        let mut entries: Vec<PathBuf> = std::fs::read_dir(src)
            .map_err(|e| dir_read_error(src, &e))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| is_entry(p))
            .collect();
        entries.sort();
        for path in entries {
            let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(Fingerprint::parse)
            else {
                report.invalid += 1; // not a cache entry name
                continue;
            };
            let Some(metrics) = read_entry(&path) else {
                report.invalid += 1; // truncated/corrupt source file
                continue;
            };
            let canonical = metrics.to_json().write();
            let target = dest.join(format!("{fp}.json"));
            match read_entry_text(&target) {
                Ok(Some(existing)) if existing == canonical => report.identical += 1,
                Ok(existing) => {
                    // A parseable destination entry that canonicalizes
                    // to the same bytes is the same content through a
                    // different write path; one that disagrees is a
                    // real conflict. One that does not even parse, or
                    // is oversized, is a torn or corrupt write — heal
                    // it with the good source copy instead of aborting
                    // the campaign over damage a retry already repaired.
                    match existing.as_deref().and_then(parse_entry) {
                        Some(m) if m.to_json().write() == canonical => report.identical += 1,
                        Some(_) => report.conflicts.push(fp.to_string()),
                        None => {
                            write_entry(&target, &metrics)?;
                            report.healed += 1;
                        }
                    }
                }
                Err(_) => {
                    write_entry(&target, &metrics)?;
                    report.merged += 1;
                }
            }
        }
    }
    report.conflicts.sort();
    report.conflicts.dedup();
    Ok(report)
}

/// Largest cache entry read, in bytes. A real entry is a few hundred
/// bytes; a longer file is treated like a corrupt one and never read
/// whole.
const MAX_ENTRY_BYTES: u64 = 64 << 10;

/// An entry file's text, or `None` when it exceeds [`MAX_ENTRY_BYTES`].
fn read_entry_text(path: &Path) -> io::Result<Option<String>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?
        .take(MAX_ENTRY_BYTES + 1)
        .read_to_end(&mut bytes)?;
    if bytes.len() as u64 > MAX_ENTRY_BYTES {
        return Ok(None);
    }
    String::from_utf8(bytes)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn parse_entry(text: &str) -> Option<CellMetrics> {
    let v = Json::parse(text).ok()?;
    CellMetrics::from_json(&v).ok()
}

fn read_entry(path: &Path) -> Option<CellMetrics> {
    parse_entry(&read_entry_text(path).ok()??)
}

fn write_entry(path: &Path, metrics: &CellMetrics) -> io::Result<()> {
    // Unique temp name per process and write: two processes sharing a
    // cache directory may simulate the same cell concurrently, and a
    // shared temp file would let their writes interleave before the
    // rename (whoever renames last wins, both files are whole).
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, metrics.to_json().write())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(speedup: f64) -> CellMetrics {
        CellMetrics {
            speedup,
            cycles: 100.0 / speedup,
            dense_cycles: 100,
            power_mw: 330.5,
            area_mm2: 0.97,
            tops_per_w: 24.0,
            tops_per_mm2: 8.5,
        }
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let c = ResultCache::in_memory();
        let fp = Fingerprint(1, 2);
        assert_eq!(c.lookup(fp), None);
        c.insert(fp, metrics(2.0));
        assert_eq!(c.lookup(fp), Some(metrics(2.0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.disk_hits), (1, 1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_json_roundtrip() {
        let m = CellMetrics {
            dense_cycles: u64::MAX - 3,
            ..metrics(3.25)
        };
        let back = CellMetrics::from_json(&Json::parse(&m.to_json().write()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn degenerate_metrics_roundtrip_through_json() {
        // Campaigns can produce NaN/∞ efficiency values; the cache must
        // bring them back intact instead of rejecting its own files.
        let m = CellMetrics {
            tops_per_w: f64::NAN,
            tops_per_mm2: f64::INFINITY,
            power_mw: f64::NEG_INFINITY,
            ..metrics(1.0)
        };
        let back = CellMetrics::from_json(&Json::parse(&m.to_json().write()).unwrap()).unwrap();
        assert!(back.tops_per_w.is_nan());
        assert_eq!(back.tops_per_mm2, f64::INFINITY);
        assert_eq!(back.power_mw, f64::NEG_INFINITY);
        assert_eq!(back.speedup, 1.0);
    }

    #[test]
    fn disk_cache_survives_process_boundary() {
        let dir = std::env::temp_dir().join(format!("griffin-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ResultCache::at_dir(&dir).unwrap();
            c.insert(Fingerprint(7, 9), metrics(4.0));
        }
        // A fresh cache instance (simulating a new process) sees it.
        let c2 = ResultCache::at_dir(&dir).unwrap();
        assert_eq!(c2.lookup(Fingerprint(7, 9)), Some(metrics(4.0)));
        let s = c2.stats();
        assert_eq!((s.hits, s.disk_hits), (1, 1));
        // Promoted to memory: second lookup no longer counts disk.
        c2.lookup(Fingerprint(7, 9));
        assert_eq!(c2.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_and_age_ordered_prune() {
        let dir = std::env::temp_dir().join(format!(
            "griffin-sweep-prune-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::at_dir(&dir).unwrap();
        for i in 0..4u64 {
            c.insert(Fingerprint(i, i), metrics(1.0 + i as f64));
            // Distinct mtimes so age ordering is deterministic.
            let path = dir.join(format!("{}.json", Fingerprint(i, i)));
            let t = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i);
            let f = std::fs::File::open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        // One abandoned temp file (old mtime) and one in-flight temp
        // file (fresh): only the former is maintenance's business.
        let stale = dir.join("junk.tmp.99.0");
        std::fs::write(&stale, "partial").unwrap();
        std::fs::File::open(&stale)
            .unwrap()
            .set_modified(std::time::SystemTime::UNIX_EPOCH)
            .unwrap();
        std::fs::write(dir.join("live.tmp.99.1"), "in flight").unwrap();

        let info = disk_stats(&dir).unwrap();
        assert_eq!(info.entries, 4);
        assert_eq!(info.stale_tmp, 1, "fresh temp files are not stale");
        // Entries serialize to slightly different sizes; budget exactly
        // for the two newest so precisely the two oldest must go.
        let budget: u64 = (2..4u64)
            .map(|i| {
                std::fs::metadata(dir.join(format!("{}.json", Fingerprint(i, i))))
                    .unwrap()
                    .len()
            })
            .sum();

        // The two oldest entries go, and the stale temp file too; the
        // in-flight temp file survives.
        let r = prune_dir(&dir, budget).unwrap();
        assert_eq!(r.evicted, 2);
        assert_eq!(r.tmp_removed, 1);
        assert_eq!(r.kept.entries, 2);
        assert!(r.kept.total_bytes <= budget);
        assert!(dir.join("live.tmp.99.1").exists());
        for i in 0..2u64 {
            assert!(!dir.join(format!("{}.json", Fingerprint(i, i))).exists());
        }
        for i in 2..4u64 {
            assert!(dir.join(format!("{}.json", Fingerprint(i, i))).exists());
        }

        // max_bytes 0 clears everything.
        let r = prune_dir(&dir, 0).unwrap();
        assert_eq!(r.evicted, 2);
        assert_eq!(disk_stats(&dir).unwrap(), DiskCacheInfo::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Unique scratch directory per test (parallel test threads must
    /// not share).
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "griffin-sweep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn prune_respects_the_inflight_tmp_age_cutoff() {
        // A fresh temp file is a concurrent writer about to rename; only
        // an abandoned (old-mtime) one is maintenance's to remove — even
        // under the most aggressive budget.
        let dir = scratch_dir("tmp-cutoff");
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = dir.join("aaaa.tmp.1.0");
        let stale = dir.join("bbbb.tmp.2.0");
        std::fs::write(&fresh, "in flight").unwrap();
        std::fs::write(&stale, "abandoned").unwrap();
        std::fs::File::open(&stale)
            .unwrap()
            .set_modified(std::time::SystemTime::UNIX_EPOCH)
            .unwrap();
        assert!(!is_stale_tmp(&fresh));
        assert!(is_stale_tmp(&stale));

        let r = prune_dir(&dir, 0).unwrap();
        assert_eq!((r.evicted, r.tmp_removed), (0, 1));
        assert!(fresh.exists(), "a fresh .tmp must survive pruning");
        assert!(!stale.exists(), "a stale .tmp must be removed");

        // Exactly at the cutoff age counts as abandoned.
        std::fs::File::open(&fresh)
            .unwrap()
            .set_modified(std::time::SystemTime::now() - STALE_TMP_AGE)
            .unwrap();
        assert!(is_stale_tmp(&fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_stats_on_empty_and_corrupt_dirs() {
        // Missing directory: a real error, not a silent zero.
        let dir = scratch_dir("stats-edge");
        assert!(disk_stats(&dir).is_err());

        // Empty directory: all-zero stats.
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(disk_stats(&dir).unwrap(), DiskCacheInfo::default());

        // A corrupt dump in a cache dir: `.json` files count as entries
        // (size accounting must cover them — prune's business), other
        // junk and subdirectories are ignored.
        std::fs::write(dir.join("broken.json"), "not json at all").unwrap();
        std::fs::write(dir.join("notes.txt"), "hello").unwrap();
        std::fs::create_dir_all(dir.join("subdir")).unwrap();
        let info = disk_stats(&dir).unwrap();
        assert_eq!(info.entries, 1);
        assert_eq!(info.total_bytes, "not json at all".len() as u64);
        assert_eq!(info.stale_tmp, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_unions_disjoint_shard_caches() {
        let root = scratch_dir("merge-union");
        let (a, b, dest) = (root.join("s0"), root.join("s1"), root.join("merged"));
        let ca = ResultCache::at_dir(&a).unwrap();
        let cb = ResultCache::at_dir(&b).unwrap();
        ca.insert(Fingerprint(1, 1), metrics(1.5));
        ca.insert(Fingerprint(2, 2), metrics(2.5));
        cb.insert(Fingerprint(3, 3), metrics(3.5));

        // A shard dir that never materialized is skipped, not an error.
        let r = merge_dirs(&dest, &[a.clone(), b.clone(), root.join("s9")]).unwrap();
        assert_eq!((r.merged, r.identical, r.invalid), (3, 0, 0));
        assert!(r.conflicts.is_empty());
        let merged = ResultCache::at_dir(&dest).unwrap();
        for (fp, s) in [
            (Fingerprint(1, 1), 1.5),
            (Fingerprint(2, 2), 2.5),
            (Fingerprint(3, 3), 3.5),
        ] {
            assert_eq!(merged.lookup(fp), Some(metrics(s)));
        }

        // Re-merging is idempotent: everything is now identical.
        let r2 = merge_dirs(&dest, &[a, b]).unwrap();
        assert_eq!((r2.merged, r2.identical), (0, 3));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_detects_conflicts_and_skips_invalid_entries() {
        let root = scratch_dir("merge-conflict");
        let (a, b, dest) = (root.join("s0"), root.join("s1"), root.join("merged"));
        let ca = ResultCache::at_dir(&a).unwrap();
        let cb = ResultCache::at_dir(&b).unwrap();
        // Same fingerprint, different content: impossible for honest
        // caches, so the merge must flag it loudly.
        ca.insert(Fingerprint(7, 7), metrics(1.0));
        cb.insert(Fingerprint(7, 7), metrics(9.0));
        // Corrupt source entry under a well-formed name, and a stray
        // json file whose name is no fingerprint.
        std::fs::write(a.join(format!("{}.json", Fingerprint(8, 8))), "garbage").unwrap();
        std::fs::write(b.join("readme.json"), "{}").unwrap();

        let r = merge_dirs(&dest, &[a, b]).unwrap();
        assert_eq!((r.merged, r.identical, r.invalid), (1, 0, 2));
        assert_eq!(r.conflicts, vec![Fingerprint(7, 7).to_string()]);
        // First-seen value wins; the destination stays self-consistent.
        let merged = ResultCache::at_dir(&dest).unwrap();
        assert_eq!(merged.lookup(Fingerprint(7, 7)), Some(metrics(1.0)));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_preserves_degenerate_float_entries() {
        // NaN metrics must merge as `identical` on re-merge: equality is
        // canonical-bytes, not f64 PartialEq (NaN != NaN).
        let root = scratch_dir("merge-nan");
        let src = root.join("s0");
        let dest = root.join("merged");
        let c = ResultCache::at_dir(&src).unwrap();
        c.insert(
            Fingerprint(5, 5),
            CellMetrics {
                tops_per_w: f64::NAN,
                ..metrics(1.0)
            },
        );
        let r1 = merge_dirs(&dest, std::slice::from_ref(&src)).unwrap();
        let r2 = merge_dirs(&dest, &[src]).unwrap();
        assert_eq!(r1.merged, 1);
        assert_eq!(r2.identical, 1);
        assert!(r2.conflicts.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_skips_a_killed_shards_partial_output() {
        // A shard killed mid-write leaves (a) an in-flight `.tmp` file
        // that never got renamed and (b) possibly a truncated entry.
        // Merge must skip both — the tmp silently (it is not an entry),
        // the torn entry as `invalid` — and take the good copy the
        // retried shard produced.
        let root = scratch_dir("merge-partial");
        let (dead, retry, dest) = (root.join("s0"), root.join("s0-retry"), root.join("merged"));
        let cd = ResultCache::at_dir(&dead).unwrap();
        cd.insert(Fingerprint(1, 1), metrics(1.5));
        cd.insert(Fingerprint(2, 2), metrics(2.5));
        // Kill simulation: a partial tmp and a half-written entry.
        std::fs::write(dead.join("0dead.tmp.7.0"), "{\"speedup\":").unwrap();
        let torn = dead.join(format!("{}.json", Fingerprint(2, 2)));
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        // The retried shard re-simulated the lost cell correctly.
        let cr = ResultCache::at_dir(&retry).unwrap();
        cr.insert(Fingerprint(2, 2), metrics(2.5));

        let r = merge_dirs(&dest, &[dead, retry]).unwrap();
        assert_eq!((r.merged, r.invalid, r.healed), (2, 1, 0));
        assert!(r.conflicts.is_empty());
        assert!(
            !dest.join("0dead.tmp.7.0").exists(),
            "in-flight temp files never reach the merged cache"
        );
        let merged = ResultCache::at_dir(&dest).unwrap();
        assert_eq!(merged.lookup(Fingerprint(2, 2)), Some(metrics(2.5)));

        // A *conflicting* canonical-bytes entry appearing after the
        // retry (an impostor shard dir) must still be detected — torn
        // files don't relax the conflict check for healthy ones.
        let impostor = root.join("s9");
        let ci = ResultCache::at_dir(&impostor).unwrap();
        ci.insert(Fingerprint(2, 2), metrics(99.0));
        let r2 = merge_dirs(&dest, &[impostor]).unwrap();
        assert_eq!(r2.conflicts, vec![Fingerprint(2, 2).to_string()]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_heals_a_torn_destination_entry() {
        // The *destination* can be torn too: a coordinator killed while
        // merging leaves an unparsable target. Re-merging must replace
        // it with the good source copy (healed), not flag a conflict —
        // while a parseable-but-different target stays a conflict.
        let root = scratch_dir("merge-heal");
        let (src, dest) = (root.join("s0"), root.join("merged"));
        let cs = ResultCache::at_dir(&src).unwrap();
        cs.insert(Fingerprint(4, 4), metrics(4.0));
        std::fs::create_dir_all(&dest).unwrap();
        std::fs::write(dest.join(format!("{}.json", Fingerprint(4, 4))), "{\"spee").unwrap();

        let r = merge_dirs(&dest, std::slice::from_ref(&src)).unwrap();
        assert_eq!((r.merged, r.healed, r.identical), (0, 1, 0));
        assert!(r.conflicts.is_empty());
        let merged = ResultCache::at_dir(&dest).unwrap();
        assert_eq!(merged.lookup(Fingerprint(4, 4)), Some(metrics(4.0)));

        // Idempotent after healing; a semantically different target is
        // still a conflict, never "healed" away.
        let r2 = merge_dirs(&dest, std::slice::from_ref(&src)).unwrap();
        assert_eq!((r2.identical, r2.healed), (1, 0));
        std::fs::write(
            dest.join(format!("{}.json", Fingerprint(4, 4))),
            metrics(5.0).to_json().write(),
        )
        .unwrap();
        let r3 = merge_dirs(&dest, &[src]).unwrap();
        assert_eq!(r3.conflicts, vec![Fingerprint(4, 4).to_string()]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_are_misses() {
        let dir =
            std::env::temp_dir().join(format!("griffin-sweep-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::at_dir(&dir).unwrap();
        let fp = Fingerprint(3, 4);
        std::fs::write(dir.join(format!("{fp}.json")), "not json").unwrap();
        assert_eq!(c.lookup(fp), None);
        assert_eq!(c.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A valid entry padded past [`MAX_ENTRY_BYTES`] with whitespace:
    /// it would parse if read whole, so only the cap rejects it.
    fn oversized_entry(m: CellMetrics) -> String {
        let mut text = m.to_json().write();
        text.push_str(&" ".repeat(MAX_ENTRY_BYTES as usize));
        text
    }

    #[test]
    fn oversized_disk_entry_is_a_miss_and_is_overwritten() {
        let dir = scratch_dir("oversized");
        let fp = Fingerprint(5, 6);
        let path = dir.join(format!("{fp}.json"));
        let c = ResultCache::at_dir(&dir).unwrap();
        std::fs::write(&path, oversized_entry(metrics(2.0))).unwrap();
        assert_eq!(c.lookup(fp), None);
        assert_eq!(c.stats().misses, 1);

        // The re-simulated result replaces the oversized file.
        c.insert(fp, metrics(2.0));
        assert!(std::fs::metadata(&path).unwrap().len() < MAX_ENTRY_BYTES);
        let fresh = ResultCache::at_dir(&dir).unwrap();
        assert_eq!(fresh.lookup(fp), Some(metrics(2.0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_skips_an_oversized_source_and_heals_an_oversized_destination() {
        let root = scratch_dir("merge-oversized");
        let (src, big, dest) = (root.join("s0"), root.join("s1"), root.join("merged"));
        let (good, bad) = (Fingerprint(7, 7), Fingerprint(8, 8));
        ResultCache::at_dir(&src)
            .unwrap()
            .insert(good, metrics(3.0));
        std::fs::create_dir_all(&big).unwrap();
        std::fs::write(
            big.join(format!("{bad}.json")),
            oversized_entry(metrics(4.0)),
        )
        .unwrap();
        std::fs::create_dir_all(&dest).unwrap();
        let target = dest.join(format!("{good}.json"));
        std::fs::write(&target, oversized_entry(metrics(3.0))).unwrap();

        let r = merge_dirs(&dest, &[src, big]).unwrap();
        assert_eq!((r.merged, r.healed, r.identical, r.invalid), (0, 1, 0, 1));
        assert!(r.conflicts.is_empty());
        assert_eq!(
            std::fs::read_to_string(&target).unwrap(),
            metrics(3.0).to_json().write(),
            "destination rewritten canonically"
        );
        assert!(!dest.join(format!("{bad}.json")).exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
