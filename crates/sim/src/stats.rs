//! Ground-truth access accounting.
//!
//! The simulator — unlike real hardware — can afford omniscience: it records
//! exactly how many times each logical page is accessed at the memory level
//! (LLC misses) in each epoch. This is what the paper's Oracle policy
//! "assumes knowledge of" (Table II), and what the Fig. 6 hitrate replay uses
//! as the denominator. None of this information is visible to the profilers,
//! which see only their own sampled views.
//!
//! Only memory-level accesses are recorded: an access served from cache
//! costs the recorder nothing. Lifetime heat is the sum of the epochs: a
//! caller that needs it adds up the [`EpochTruth`]s that
//! [`crate::machine::Machine::advance_epoch`] returns.

use crate::keymap::KeyMap;
use crate::pagedesc::PageKey;

/// Per-epoch, per-page memory-level access counts.
///
/// Counts live in a [`KeyMap`]: `record_mem` runs on every LLC miss, so the
/// map hash must be cheap (and deterministic for replays).
#[derive(Clone, Debug, Default)]
pub struct EpochTruth {
    /// Memory-level accesses (LLC misses) per packed [`PageKey`].
    pub mem_accesses: KeyMap<u64, u64>,
}

impl EpochTruth {
    /// Record one memory-level access to `key`.
    #[inline]
    pub(crate) fn record_mem(&mut self, key: PageKey) {
        *self.mem_accesses.entry(key.pack()).or_insert(0) += 1;
    }

    /// Total memory-level accesses this epoch.
    pub fn total_mem_accesses(&self) -> u64 {
        self.mem_accesses.values().sum()
    }

    /// Pages touched at the memory level this epoch.
    pub fn pages_touched(&self) -> usize {
        self.mem_accesses.len()
    }

    /// Memory accesses to one page this epoch.
    pub fn mem_accesses_of(&self, key: PageKey) -> u64 {
        self.mem_accesses.get(&key.pack()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;

    fn key(vpn: u64) -> PageKey {
        PageKey {
            pid: 1,
            vpn: Vpn(vpn),
        }
    }

    #[test]
    fn record_mem_counts_per_page() {
        let mut t = EpochTruth::default();
        t.record_mem(key(1));
        t.record_mem(key(1));
        t.record_mem(key(2));
        assert_eq!(t.mem_accesses.len(), 2);
        assert_eq!(t.mem_accesses_of(key(1)), 2);
        assert_eq!(t.mem_accesses_of(key(2)), 1);
        assert_eq!(t.mem_accesses_of(key(3)), 0);
        assert_eq!(t.total_mem_accesses(), 3);
    }

    #[test]
    fn pages_touched_counts_distinct_pages() {
        let mut t = EpochTruth::default();
        for v in 0..10 {
            t.record_mem(key(v));
            t.record_mem(key(v));
        }
        assert_eq!(t.pages_touched(), 10);
        assert_eq!(t.total_mem_accesses(), 20);
    }
}
