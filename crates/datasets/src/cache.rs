//! On-disk sequence caching.
//!
//! Generated sequences are deterministic, but long windows at MVSEC rates
//! take time to synthesize. A [`SequenceCache`] materializes windows as
//! binary AER files keyed by `(sequence, window, seed)` so repeated
//! experiment runs load instead of regenerate — and so generated data can
//! be shipped alongside results for auditability.

use crate::mvsec::SequenceId;
use crate::DatasetError;
use ev_core::aer;
use ev_core::stream::EventSlice;
use ev_core::time::TimeWindow;
use std::path::{Path, PathBuf};

/// A directory-backed cache of generated sequence windows.
///
/// # Examples
///
/// ```
/// use ev_datasets::cache::SequenceCache;
/// use ev_datasets::mvsec::SequenceId;
/// use ev_core::time::{TimeWindow, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("evedge-cache-doc");
/// let cache = SequenceCache::new(&dir)?;
/// let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(10));
/// let first = cache.load_or_generate(SequenceId::IndoorFlying1, window)?;
/// let second = cache.load_or_generate(SequenceId::IndoorFlying1, window)?;
/// assert_eq!(first, second);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequenceCache {
    root: PathBuf,
}

impl SequenceCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(SequenceCache {
            root: dir.as_ref().to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, id: SequenceId, window: TimeWindow) -> PathBuf {
        let seq = id.sequence();
        self.root.join(format!(
            "{}_{}_{}_{:x}.aer",
            id.name(),
            window.start().as_micros(),
            window.end().as_micros(),
            seq.seed
        ))
    }

    /// Whether a window is already cached.
    pub fn contains(&self, id: SequenceId, window: TimeWindow) -> bool {
        self.entry_path(id, window).is_file()
    }

    /// Loads the window from disk, or generates and stores it.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Cache`] on I/O, encode or decode failures, and
    /// propagates generation errors.
    pub fn load_or_generate(
        &self,
        id: SequenceId,
        window: TimeWindow,
    ) -> Result<EventSlice, DatasetError> {
        let path = self.entry_path(id, window);
        if path.is_file() {
            let bytes = std::fs::read(&path).map_err(|e| DatasetError::Cache {
                reason: format!("read {}: {e}", path.display()),
            })?;
            return aer::decode(&bytes).map_err(|e| DatasetError::Cache {
                reason: format!("decode {}: {e}", path.display()),
            });
        }
        let slice = id
            .sequence()
            .generate(window)
            .map_err(|e| DatasetError::Cache {
                reason: format!("generate {}: {e}", id.name()),
            })?;
        let bytes = aer::encode(&slice).map_err(|e| DatasetError::Cache {
            reason: format!("encode {}: {e}", id.name()),
        })?;
        std::fs::write(&path, &bytes).map_err(|e| DatasetError::Cache {
            reason: format!("write {}: {e}", path.display()),
        })?;
        Ok(slice)
    }

    /// Removes every cached entry, returning how many files were deleted.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Cache`] on directory-walk failures.
    pub fn clear(&self) -> Result<usize, DatasetError> {
        let mut removed = 0;
        let entries = std::fs::read_dir(&self.root).map_err(|e| DatasetError::Cache {
            reason: format!("read_dir {}: {e}", self.root.display()),
        })?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().map(|e| e == "aer").unwrap_or(false)
                && std::fs::remove_file(&path).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::time::Timestamp;

    fn temp_cache(tag: &str) -> SequenceCache {
        let dir = std::env::temp_dir().join(format!("evedge-cache-test-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        SequenceCache::new(&dir).expect("temp dir creatable")
    }

    fn window_ms(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn generates_then_loads_identically() {
        let cache = temp_cache("roundtrip");
        let w = window_ms(0, 20);
        assert!(!cache.contains(SequenceId::OutdoorNight1, w));
        let generated = cache
            .load_or_generate(SequenceId::OutdoorNight1, w)
            .expect("generation succeeds");
        assert!(cache.contains(SequenceId::OutdoorNight1, w));
        let loaded = cache
            .load_or_generate(SequenceId::OutdoorNight1, w)
            .expect("load succeeds");
        assert_eq!(generated, loaded);
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn distinct_windows_are_distinct_entries() {
        let cache = temp_cache("windows");
        let a = window_ms(0, 10);
        let b = window_ms(10, 20);
        cache
            .load_or_generate(SequenceId::IndoorFlying3, a)
            .expect("generates");
        assert!(cache.contains(SequenceId::IndoorFlying3, a));
        assert!(!cache.contains(SequenceId::IndoorFlying3, b));
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn clear_removes_entries() {
        let cache = temp_cache("clear");
        let w = window_ms(0, 10);
        cache
            .load_or_generate(SequenceId::OutdoorNight1, w)
            .expect("generates");
        let removed = cache.clear().expect("clear succeeds");
        assert_eq!(removed, 1);
        assert!(!cache.contains(SequenceId::OutdoorNight1, w));
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupted_entry_errors() {
        let cache = temp_cache("corrupt");
        let w = window_ms(0, 10);
        cache
            .load_or_generate(SequenceId::OutdoorNight1, w)
            .expect("generates");
        // Corrupt the file.
        let path = cache.entry_path(SequenceId::OutdoorNight1, w);
        std::fs::write(&path, b"not an aer stream").expect("writable");
        let err = cache.load_or_generate(SequenceId::OutdoorNight1, w);
        assert!(matches!(err, Err(DatasetError::Cache { .. })));
        std::fs::remove_dir_all(cache.root()).ok();
    }
}
