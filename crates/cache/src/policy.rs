//! The policy interface between the simulator and cache schemes.

use reqblock_trace::Lpn;
use serde::{Deserialize, Serialize};

/// One page-granular access delivered to the write buffer, together with the
/// context of the request it belongs to (Algorithm 1 walks requests page by
/// page; policies like Req-block and VBBMS need the request identity/size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Logical page being accessed.
    pub lpn: Lpn,
    /// Monotone id of the enclosing request (groups pages into request
    /// blocks).
    pub req_id: u64,
    /// Total pages of the enclosing request (`R_size` in Algorithm 1).
    pub req_pages: u32,
    /// Logical time: count of page accesses processed so far. Used as the
    /// time base of the paper's Eq. 1.
    pub now: u64,
}

/// How a flush batch should be placed on flash (mirrors
/// `reqblock_ftl::Placement`; kept separate so the cache layer does not
/// depend on the FTL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Stripe pages round-robin across chips — exploits channel parallelism.
    Striped,
    /// Append the whole batch on one chip (BPLRU whole-block flushes).
    SingleBlock,
}

/// A group of pages leaving the cache in one eviction operation.
///
/// Figure 10 of the paper ("average page number of each eviction") counts
/// the `lpns` of one batch; the simulator flushes the batch as a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionBatch {
    /// Pages evicted together.
    pub lpns: Vec<Lpn>,
    /// Flush placement on flash.
    pub placement: Placement,
    /// Pages the simulator must *read from flash* before programming the
    /// batch (BPLRU page padding). Empty for every other policy.
    pub pad_reads: Vec<Lpn>,
    /// `false` for clean pages that can be dropped without flash writes
    /// (only possible when a policy caches read data, e.g. CFLRU with
    /// `cache_reads`).
    pub dirty: bool,
}

impl EvictionBatch {
    /// A dirty, striped batch (the common case).
    pub fn striped(lpns: Vec<Lpn>) -> Self {
        Self { lpns, placement: Placement::Striped, pad_reads: Vec::new(), dirty: true }
    }

    /// A dirty batch targeting a single flash block.
    pub fn single_block(lpns: Vec<Lpn>) -> Self {
        Self { lpns, placement: Placement::SingleBlock, pad_reads: Vec::new(), dirty: true }
    }

    /// Number of pages in the batch.
    pub fn len(&self) -> usize {
        self.lpns.len()
    }

    /// `true` if the batch carries no pages.
    pub fn is_empty(&self) -> bool {
        self.lpns.is_empty()
    }
}

/// Structural transition counters a policy may expose to the observability
/// layer. The Req-block scheme reports its IRL/SRL/DRL list dynamics here
/// (upgrades, splits, downgraded merges); simpler policies report nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Blocks promoted into the SRL (small-block hit, Algorithm 1 line 21).
    pub srl_upgrades: u64,
    /// Pages split off a large block into a DRL block (Figure 5(a)).
    pub drl_splits: u64,
    /// Victim evictions that merged a split block with its IRL original
    /// (the downgraded merging of Figure 6).
    pub downgrade_merges: u64,
    /// Victim selections performed (eviction operations).
    pub victim_selections: u64,
}

/// The write-buffer policy interface.
///
/// Implementations must maintain: `len_pages() <= capacity_pages()` after
/// every call, and `contains(lpn)` consistent with the pages inserted and
/// evicted so far.
pub trait WriteBuffer {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Capacity in pages.
    fn capacity_pages(&self) -> usize;

    /// Pages currently cached.
    fn len_pages(&self) -> usize;

    /// Is `lpn` currently cached?
    fn contains(&self, lpn: Lpn) -> bool;

    /// Write one page. Returns `true` if the page was already cached (a
    /// write hit, absorbed in DRAM). On a miss the page is inserted;
    /// evictions required to make room are appended to `evictions`.
    fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool;

    /// Read one page. Returns `true` on a buffer hit. Policies that cache
    /// read data may insert here (and thus evict); write-buffer policies
    /// only update recency metadata.
    fn read(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool;

    /// Number of policy metadata nodes currently allocated (list entries) —
    /// the basis of the paper's Figure 12 space-overhead model.
    fn node_count(&self) -> usize;

    /// Bytes of metadata: `node_count() * bytes-per-node` with the per-node
    /// sizes of §4.2.5 (LRU 12 B, block/virtual-block 24 B, request block
    /// 32 B).
    fn metadata_bytes(&self) -> usize;

    /// Pages per Req-block list level `[IRL, SRL, DRL]`; `None` for every
    /// other policy (Figure 13 probe).
    fn list_occupancy(&self) -> Option<[usize; 3]> {
        None
    }

    /// Structural transition counters; `None` for policies without any
    /// (only Req-block reports its list dynamics today).
    fn events(&self) -> Option<&CacheEvents> {
        None
    }

    /// Remove and return everything still cached (end-of-trace drain).
    fn drain(&mut self) -> Vec<EvictionBatch>;

    /// Hand a flushed [`EvictionBatch`] back to the policy so it can reuse
    /// the batch's page buffers for future blocks or batches instead of
    /// allocating fresh ones — the simulator calls this after every flush.
    /// The pages are already on flash; implementations must treat the
    /// contents as garbage. The default drops the batch.
    fn recycle(&mut self, _batch: EvictionBatch) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_constructors() {
        let b = EvictionBatch::striped(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.placement, Placement::Striped);
        assert!(b.dirty);
        assert!(b.pad_reads.is_empty());

        let s = EvictionBatch::single_block(vec![9]);
        assert_eq!(s.placement, Placement::SingleBlock);
    }

    #[test]
    fn empty_batch() {
        let b = EvictionBatch::striped(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
