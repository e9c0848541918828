//! Set-associative cache with LRU replacement.
//!
//! One structure serves both levels: per-processor L1 data caches (which
//! track only line presence — the shared L2 manages coherence between its
//! L1s, as in the paper's CMP model) and the per-CMP shared unified L2
//! (which carries MSI-style coherence state with respect to the directory).

use crate::address::LineAddr;
use crate::config::CacheConfig;

/// Coherence state of a cached line (MSI without the I — absent means
/// invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy; other caches may also hold it.
    Shared,
    /// Writable, exclusive, possibly dirty copy.
    Modified,
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced line.
    pub line: LineAddr,
    /// Its coherence state at eviction (Modified victims need writeback).
    pub state: LineState,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    state: LineState,
    last_use: u64,
}

/// LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    set_mask: u64,
    lru_clock: u64,
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        assert!(num_sets.is_power_of_two() && num_sets > 0);
        SetAssocCache {
            sets: vec![Vec::with_capacity(cfg.associativity as usize); num_sets as usize],
            ways: cfg.associativity as usize,
            set_mask: num_sets - 1,
            lru_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    fn tick(&mut self) -> u64 {
        self.lru_clock += 1;
        self.lru_clock
    }

    /// Look up a line without touching LRU or hit counters.
    pub fn peek(&self, line: LineAddr) -> Option<LineState> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|w| w.line == line).map(|w| w.state)
    }

    /// Demand lookup: returns the state on hit and refreshes LRU.
    ///
    /// Hits rotate the way to slot 0 so that the common repeated-access
    /// pattern ends the scan at the first probe. Way order within a set
    /// carries no semantics (ways are identified by line, and the LRU
    /// victim is chosen by the strictly increasing `last_use` stamp), so
    /// the rotation cannot change hit/miss outcomes or victim choice.
    pub fn access(&mut self, line: LineAddr) -> Option<LineState> {
        let t = self.tick();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            if pos != 0 {
                set.swap(0, pos);
            }
            set[0].last_use = t;
            self.hits += 1;
            Some(set[0].state)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Install (or update) a line, evicting the LRU way if the set is full.
    /// Returns the victim, if one was displaced.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Victim> {
        let t = self.tick();
        let idx = self.set_index(line);
        let ways = self.ways;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            if pos != 0 {
                set.swap(0, pos);
            }
            set[0].state = state;
            set[0].last_use = t;
            return None;
        }
        let victim = if set.len() == ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .expect("full set is non-empty");
            let v = set.swap_remove(vi);
            Some(Victim {
                line: v.line,
                state: v.state,
            })
        } else {
            None
        };
        set.push(Way {
            line,
            state,
            last_use: t,
        });
        victim
    }

    /// Change the state of a resident line (e.g., S→M upgrade, M→S
    /// downgrade). Returns false if the line is not resident.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        let idx = self.set_index(line);
        if let Some(w) = self.sets[idx].iter_mut().find(|w| w.line == line) {
            w.state = state;
            true
        } else {
            false
        }
    }

    /// Remove a line (external invalidation or inclusion victim). Returns its
    /// state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter()
            .position(|w| w.line == line)
            .map(|pos| set.swap_remove(pos).state)
    }

    /// Number of resident lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Serialize the full cache state (geometry, LRU clock, every way in
    /// storage order, hit/miss counters).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.usize(self.ways);
        w.u64(self.set_mask);
        w.u64(self.lru_clock);
        w.usize(self.sets.len());
        for set in &self.sets {
            w.seq(set, |w, way| {
                w.u64(way.line.0);
                w.bool(matches!(way.state, LineState::Modified));
                w.u64(way.last_use);
            });
        }
        w.u64(self.hits);
        w.u64(self.misses);
    }

    /// Restore a cache written by [`SetAssocCache::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        let ways = r.usize()?;
        let set_mask = r.u64()?;
        let lru_clock = r.u64()?;
        let num_sets = r.usize()?;
        let mut sets = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            sets.push(r.seq(|r| {
                Ok(Way {
                    line: LineAddr(r.u64()?),
                    state: if r.bool()? {
                        LineState::Modified
                    } else {
                        LineState::Shared
                    },
                    last_use: r.u64()?,
                })
            })?);
        }
        Ok(SetAssocCache {
            sets,
            ways,
            set_mask,
            lru_clock,
            hits: r.u64()?,
            misses: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways, 64B lines.
        SetAssocCache::new(&CacheConfig {
            size_bytes: 256,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(4)), None);
        c.insert(LineAddr(4), LineState::Shared);
        assert_eq!(c.access(LineAddr(4)), Some(LineState::Shared));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        // Touch 0 so 2 becomes LRU.
        assert!(c.access(LineAddr(0)).is_some());
        let v = c.insert(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(v.line, LineAddr(2));
        assert!(c.peek(LineAddr(0)).is_some());
        assert!(c.peek(LineAddr(2)).is_none());
        assert!(c.peek(LineAddr(4)).is_some());
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        assert_eq!(c.insert(LineAddr(0), LineState::Modified), None);
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn modified_victim_reported_for_writeback() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Modified);
        c.insert(LineAddr(2), LineState::Shared);
        let v = c.insert(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert_eq!(v.state, LineState::Modified);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(LineAddr(1), LineState::Modified);
        assert_eq!(c.invalidate(LineAddr(1)), Some(LineState::Modified));
        assert_eq!(c.invalidate(LineAddr(1)), None);
        assert_eq!(c.peek(LineAddr(1)), None);
    }

    #[test]
    fn set_state_on_missing_line_is_false() {
        let mut c = tiny();
        assert!(!c.set_state(LineAddr(3), LineState::Shared));
        c.insert(LineAddr(3), LineState::Shared);
        assert!(c.set_state(LineAddr(3), LineState::Modified));
        assert_eq!(c.peek(LineAddr(3)), Some(LineState::Modified));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd lines map to set 1; fill both sets past capacity of one set.
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        c.insert(LineAddr(1), LineState::Shared);
        c.insert(LineAddr(3), LineState::Shared);
        assert_eq!(c.occupancy(), 4);
        // No cross-set eviction happened.
        for l in [0u64, 1, 2, 3] {
            assert!(c.peek(LineAddr(l)).is_some());
        }
    }
}
