//! The FTL proper: mapping, allocation, placement, GC orchestration.

use crate::blocks::{ChipBlocks, UNMAPPED};
use reqblock_flash::timeline::Origin;
use reqblock_flash::{
    FaultConfig, FaultModel, FaultStats, FlashTimeline, SsdConfig, MAX_READ_RETRIES,
};
use reqblock_trace::Lpn;
use serde::{Deserialize, Serialize};

/// Where a flush batch lands physically. See the crate docs: this is the
/// mechanism behind the paper's §4.2.2 channel-parallelism argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Pages are distributed round-robin over all chips (page-level dynamic
    /// allocation): a batch of N <= channels pages completes in roughly one
    /// program latency.
    Striped,
    /// The whole batch is appended on a single chip (BPLRU flushing a cached
    /// logical block onto one physical SSD block): programs serialize on
    /// that chip's array.
    SingleBlock,
}

/// FTL-level statistics (GC activity; flash op counts live in
/// [`FlashTimeline::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Number of GC victim collections performed.
    pub gc_runs: u64,
    /// Valid pages migrated by GC.
    pub gc_migrated_pages: u64,
    /// Blocks erased by GC.
    pub gc_erased_blocks: u64,
    /// Host reads of never-written LPNs (serviced with a timed flash read of
    /// arbitrary data, like a real drive returning unmapped sectors).
    pub unmapped_reads: u64,
}

/// GC timing observability, kept separate from [`FtlStats`] (whose exact
/// shape is pinned by golden tests). [`FtlStats`] says how much GC moved;
/// this says how long the device was tied up doing it — the "GC burst"
/// signal the observability layer surfaces over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlObs {
    /// Summed service time of every GC read/program/erase, ns.
    pub gc_busy_ns: u128,
    /// Longest single GC round (victim migration + erase), ns.
    pub gc_max_pause_ns: u64,
    /// Extra completion delay added by read-retry rounds (raw-bit-error
    /// recovery), ns: final completion minus first-attempt completion,
    /// summed over all faulting reads. Zero on the zero-fault path.
    pub retry_busy_ns: u128,
}

/// Device-level health under fault injection. The FTL degrades (rather
/// than corrupting data or looping) when block retirements or capacity
/// pressure leave a chip unable to honour new writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Health {
    /// Normal operation.
    #[default]
    Healthy,
    /// A chip's free blocks fell below [`FaultConfig::read_only_free_floor`]
    /// (or a chip physically ran out of space while faults were active):
    /// new host writes are rejected, reads are still served.
    ReadOnly,
}

/// Completion of one [`Ftl::read_page_completion`] or
/// [`Ftl::write_pages_completion`] call: exactly the finish time the bare
/// [`Ftl::read_page`] / [`Ftl::write_pages`] return, as a named field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// Completion time of the slowest page in the call, ns.
    pub done_ns: u64,
}

/// log2 of [`LEAF_LEN`].
const LEAF_BITS: u32 = 10;
/// Entries per forward-map leaf: 1 024 `u32`s, 4 KiB.
const LEAF_LEN: usize = 1 << LEAF_BITS;
const LEAF_MASK: usize = LEAF_LEN - 1;

/// Forward map (LPN -> PPN): a directory of fixed 4 KiB leaves. A leaf is
/// allocated on the first mapped write into its range and kept from then
/// on; reading a missing leaf returns [`UNMAPPED`] and storing
/// [`UNMAPPED`] into one allocates nothing. Memory therefore follows the
/// written footprint, not the device's capacity. Leaves never move; only
/// the directory, 8 bytes per leaf up to the highest leaf written (256 KiB
/// at most at paper geometry), grows like a `Vec`.
#[derive(Debug, Clone, Default)]
struct PageMap {
    leaves: Vec<Option<Box<[u32; LEAF_LEN]>>>,
}

impl PageMap {
    /// Read an entry; [`UNMAPPED`] when never set.
    #[inline]
    fn get(&self, idx: usize) -> u32 {
        match self.leaves.get(idx >> LEAF_BITS) {
            Some(Some(leaf)) => leaf[idx & LEAF_MASK],
            _ => UNMAPPED,
        }
    }

    /// Write an entry and return the one it replaced, in one leaf lookup;
    /// storing [`UNMAPPED`] clears it.
    #[inline]
    fn replace(&mut self, idx: usize, value: u32) -> u32 {
        match self.leaves.get_mut(idx >> LEAF_BITS) {
            Some(Some(leaf)) => std::mem::replace(&mut leaf[idx & LEAF_MASK], value),
            _ if value == UNMAPPED => UNMAPPED,
            _ => {
                self.materialize(idx >> LEAF_BITS)[idx & LEAF_MASK] = value;
                UNMAPPED
            }
        }
    }

    /// Unmap every entry, keeping the materialized leaves.
    fn clear(&mut self) {
        for leaf in self.leaves.iter_mut().flatten() {
            leaf.fill(UNMAPPED);
        }
    }

    /// Allocate leaf `leaf`, all unmapped.
    #[cold]
    fn materialize(&mut self, leaf: usize) -> &mut [u32; LEAF_LEN] {
        if leaf >= self.leaves.len() {
            self.leaves.resize_with(leaf + 1, || None);
        }
        self.leaves[leaf].insert(Box::new([UNMAPPED; LEAF_LEN]))
    }

    /// Every mapped `(index, value)` pair in index order, walking the
    /// materialized leaves only.
    fn mapped(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.leaves.iter().enumerate().flat_map(|(l, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != UNMAPPED)
                    .map(move |(i, &v)| ((l << LEAF_BITS) | i, v))
            })
        })
    }

    /// Hint the cache hierarchy that `idx` is about to be accessed. A long
    /// run's written footprint spans far more than the caches, so the
    /// per-page walk is DRAM-latency-bound; issuing the loads for a whole
    /// batch up front overlaps the misses instead of serializing them.
    #[inline]
    fn prefetch(&self, idx: usize) {
        #[cfg(target_arch = "x86_64")]
        if let Some(Some(leaf)) = self.leaves.get(idx >> LEAF_BITS) {
            let entry: *const u32 = &leaf[idx & LEAF_MASK];
            // SAFETY: prefetch has no architectural effect; the pointer
            // comes from a live reference and is never dereferenced.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    entry as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }
}

/// What [`Ftl::migrate`] did to one block.
struct Migration {
    /// Valid pages moved off the block.
    pages: u64,
    /// Flash busy time of their reads and programs, ns.
    busy_ns: u128,
    /// `false` when the chip ran out of space before every valid page
    /// moved; the device is then read-only.
    emptied: bool,
}

/// Page-level FTL over a multi-chip flash array.
///
/// Translations are `u32` physical page numbers (`u32::MAX` means
/// unmapped): the paper's 128 GB drive has 2^25 pages, so they fit
/// comfortably and lookups are loads instead of hashing. A PPN packs
/// `chip << chip_shift | block << block_shift | page`, each field padded
/// to a power of two, so decoding one is shifts and masks on any
/// geometry. The forward map is a `PageMap` of lazily allocated leaves;
/// the reverse map (PPN -> LPN) lives in each chip's [`ChipBlocks`]
/// beside the valid bitmaps it mirrors, as part of the GC index that only
/// migration reads. The index is built when the device first migrates a
/// page (the top of `gc_once` and `retire_block`): each chip lists its GC
/// candidates from its block metadata, and one walk of the forward map's
/// leaves fills the reverse entry of every valid page, since every valid
/// page is mapped. Until then programs store no reverse entry and
/// overwrites move no block between GC lists, so a device that never
/// collects pays for neither. Once built, entries for *invalidated* pages
/// go stale rather than being cleared: the bitmap is the source of truth
/// for liveness, and every reader (migration, the consistency check)
/// consults it first, so the per-page overwrite path makes no store into
/// the reverse map.
pub struct Ftl {
    cfg: SsdConfig,
    /// LPN -> PPN; `UNMAPPED` when the LPN has never been written.
    l2p: PageMap,
    chips: Vec<ChipBlocks>,
    /// Round-robin cursor for striped placement (and for spreading
    /// single-block batches across chips between evictions).
    cursor: usize,
    stats: FtlStats,
    obs: FtlObs,
    /// Seeded fault decision engine (inert by default).
    faults: FaultModel,
    /// Reliability counters (retries, retirements, rejections).
    fstats: FaultStats,
    /// Degradation state; once `ReadOnly`, writes are rejected for good.
    health: Health,
    /// Cached [`SsdConfig::gc_free_blocks_floor`]: the GC floor while no
    /// block has retired, hoisted off the per-page write path so batched
    /// flushes don't redo the float math for every page.
    gc_floor_healthy: usize,
    /// Cached [`SsdConfig::total_pages`], which divides on every call:
    /// every program and read range-checks its LPN against it.
    logical_pages: u64,
    /// PPN bit offset of the block field: `log2` of pages per block,
    /// rounded up.
    block_shift: u32,
    /// PPN bit offset of the chip field: `block_shift` plus `log2` of
    /// blocks per chip, rounded up.
    chip_shift: u32,
    /// Per-chip scratch for [`Ftl::write_pages`]: `true` while the chip's
    /// free-block count is known to sit at/above the GC floor within the
    /// current batch, letting later pages of the batch skip the GC re-check
    /// until an allocation opens a fresh block or a block retires.
    gc_checked: Vec<bool>,
}

impl Ftl {
    /// Build an FTL for `cfg` with an empty mapping and no fault injection.
    pub fn new(cfg: &SsdConfig) -> Self {
        Self::with_faults(cfg, FaultConfig::default())
    }

    /// Build an FTL for `cfg` with the given fault-injection configuration.
    /// [`FaultConfig::default`] is zero-fault and behaves exactly like
    /// [`Ftl::new`].
    pub fn with_faults(cfg: &SsdConfig, faults: FaultConfig) -> Self {
        cfg.validate().expect("invalid SSD config");
        let block_shift = cfg.pages_per_block.next_power_of_two().trailing_zeros();
        let chip_shift = block_shift + cfg.blocks_per_chip().next_power_of_two().trailing_zeros();
        // Every PPN is below the padded space, and every LPN below the page
        // count it bounds, so neither can collide with `UNMAPPED`.
        assert!(
            (cfg.total_chips() as u128) << chip_shift <= UNMAPPED as u128,
            "drive too large for u32 page indices"
        );
        Self {
            block_shift,
            chip_shift,
            l2p: PageMap::default(),
            chips: (0..cfg.total_chips()).map(|_| ChipBlocks::new(cfg)).collect(),
            cursor: 0,
            stats: FtlStats::default(),
            obs: FtlObs::default(),
            faults: FaultModel::new(faults),
            fstats: FaultStats::default(),
            health: Health::default(),
            gc_floor_healthy: cfg.gc_free_blocks_floor(),
            logical_pages: cfg.total_pages(),
            gc_checked: vec![false; cfg.total_chips()],
            cfg: cfg.clone(),
        }
    }

    /// Reset to the freshly built state for `cfg`, keeping the translation
    /// storage already materialized (forward-map leaves, block chunks) so a
    /// pooled device does not allocate it again. Returns `false` — leaving
    /// the FTL untouched — when `cfg` differs from the config this FTL was
    /// built with; the caller must rebuild from scratch instead.
    ///
    /// Cost is O(materialized leaves + allocated blocks):
    /// * `l2p`'s leaves are refilled with `UNMAPPED`, a sequential store
    ///   per entry instead of a directory lookup per live page.
    /// * The GC index returns to unbuilt, keeping its allocations: the
    ///   lists are emptied, and the reverse map is left stale wholesale,
    ///   since the next build rewrites the entry of every valid page.
    pub fn try_reset(&mut self, cfg: &SsdConfig, faults: FaultConfig) -> bool {
        if self.cfg != *cfg {
            return false;
        }
        self.l2p.clear();
        for blocks in &mut self.chips {
            blocks.reset();
        }
        self.cursor = 0;
        self.stats = FtlStats::default();
        self.obs = FtlObs::default();
        self.faults = FaultModel::new(faults);
        self.fstats = FaultStats::default();
        self.health = Health::default();
        self.gc_checked.fill(false);
        true
    }

    /// Drive configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// GC statistics so far.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// GC timing observability so far.
    pub fn obs(&self) -> &FtlObs {
        &self.obs
    }

    /// Reliability counters so far (all zero with the default fault config).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fstats
    }

    /// Current device health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Has the device entered read-only degraded mode?
    pub fn is_read_only(&self) -> bool {
        self.health == Health::ReadOnly
    }

    /// Blocks retired as bad across all chips.
    pub fn bad_blocks_total(&self) -> usize {
        self.chips.iter().map(|c| c.bad_count()).sum()
    }

    /// Is `lpn` currently mapped to a physical page?
    #[inline]
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.l2p.get(lpn as usize) != UNMAPPED
    }

    /// Number of logical pages the drive exposes.
    #[inline]
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Each chip's block state, GC index included. Tests only.
    #[doc(hidden)]
    pub fn chip_blocks(&self) -> &[ChipBlocks] {
        &self.chips
    }

    /// Build the GC index now instead of at the first migration; a no-op
    /// once it is built. Behaviour is the same either way, which tests
    /// pin by driving an eagerly and a lazily built FTL side by side.
    #[doc(hidden)]
    pub fn build_gc_index(&mut self) {
        let mut chips = std::mem::take(&mut self.chips);
        self.build_index_into(&mut chips);
        self.chips = chips;
    }

    /// Build the GC index of `chips`, this FTL's chips or a copy of them:
    /// every chip lists its candidates from its block metadata, then one
    /// walk of the forward map fills the reverse entry of every mapped
    /// page, which is every valid page. A no-op if `chips` are built.
    fn build_index_into(&self, chips: &mut [ChipBlocks]) {
        if chips[0].index_built() {
            return;
        }
        for blocks in chips.iter_mut() {
            blocks.build_index();
        }
        for (lpn, ppn) in self.l2p.mapped() {
            let (block, page) = self.block_page_of_ppn(ppn);
            chips[self.chip_of_ppn(ppn)].set_lpn(block, page, lpn as u32);
        }
    }

    /// Live (mapped) page count. O(chips * blocks); test/diagnostic use.
    pub fn live_pages(&self) -> u64 {
        self.chips.iter().map(|c| c.live_pages()).sum()
    }

    /// Free blocks on each chip (diagnostics).
    pub fn free_blocks_per_chip(&self) -> Vec<usize> {
        self.chips.iter().map(|c| c.free_count()).collect()
    }

    /// Free blocks across the drive (no allocation; sampled every
    /// observation interval, unlike [`Ftl::free_blocks_per_chip`]).
    pub fn free_blocks_total(&self) -> usize {
        self.chips.iter().map(|c| c.free_count()).sum()
    }

    /// Maximum per-block erase count across the drive (wear ceiling).
    pub fn max_erase_count(&self) -> u32 {
        self.chips.iter().map(|c| c.max_erase_count()).max().unwrap_or(0)
    }

    #[inline]
    fn ppn_of(&self, chip: usize, block: u32, page: u16) -> u32 {
        ((chip as u32) << self.chip_shift) | (block << self.block_shift) | u32::from(page)
    }

    #[inline]
    fn chip_of_ppn(&self, ppn: u32) -> usize {
        (ppn >> self.chip_shift) as usize
    }

    #[inline]
    fn block_page_of_ppn(&self, ppn: u32) -> (u32, u16) {
        let within = ppn & ((1 << self.chip_shift) - 1);
        (within >> self.block_shift, (within & ((1 << self.block_shift) - 1)) as u16)
    }

    /// Invalidate the physical page `ppn` (which must be valid). Leaves
    /// `l2p` untouched — callers own the forward mapping.
    fn invalidate_ppn(&mut self, ppn: u32) {
        let chip = self.chip_of_ppn(ppn);
        let (block, page) = self.block_page_of_ppn(ppn);
        self.chips[chip].invalidate(block, page);
    }

    /// The free-block count GC defends on `chip`. Identical to
    /// [`SsdConfig::gc_free_blocks_floor`] until blocks retire; afterwards
    /// the threshold applies to the *usable* (non-bad) block count, so a
    /// shrinking pool keeps the same proportional overprovisioning instead
    /// of GC-ing ever harder against an unreachable absolute target.
    fn gc_floor(&self, chip: usize) -> usize {
        let blocks = &self.chips[chip];
        if blocks.bad_count() == 0 {
            return self.gc_floor_healthy;
        }
        ((blocks.usable_count() as f64) * self.cfg.gc_threshold).ceil() as usize
    }

    /// Run GC on `chip` until its free-block count is back above the
    /// threshold or no block can be reclaimed.
    fn maybe_gc(&mut self, chip: usize, at: u64, tl: &mut FlashTimeline) {
        let floor = self.gc_floor(chip);
        while self.chips[chip].free_count() < floor {
            if !self.gc_once(chip, at, tl) {
                break;
            }
        }
    }

    /// One greedy GC round on `chip`: migrate the victim's valid pages
    /// within the chip, then erase it. Returns `false` if no victim exists
    /// or the chip ran out of space mid-migration.
    fn gc_once(&mut self, chip: usize, at: u64, tl: &mut FlashTimeline) -> bool {
        if !self.chips[chip].index_built() {
            self.build_gc_index();
        }
        let Some(victim) = self.chips[chip].greediest() else {
            return false;
        };
        let moved = self.migrate(chip, victim, at, tl);
        self.stats.gc_migrated_pages += moved.pages;
        if !moved.emptied {
            return false;
        }
        let er = tl.erase(&self.cfg, chip, at);
        let round_busy_ns = moved.busy_ns + (er.end_ns - er.start_ns) as u128;
        self.obs.gc_busy_ns += round_busy_ns;
        self.obs.gc_max_pause_ns = self.obs.gc_max_pause_ns.max(round_busy_ns as u64);
        if self.faults.erase_fails() {
            // The erase was attempted (and charged to the timeline) but the
            // block failed to clear: retire it instead of recycling it. Its
            // valid pages were already migrated, so no data is at risk —
            // but the free list does not grow.
            self.fstats.erase_failures += 1;
            self.chips[chip].retire(victim);
            self.fstats.retired_blocks += 1;
            self.refresh_health();
        } else {
            self.chips[chip].erase(victim);
            self.stats.gc_erased_blocks += 1;
        }
        self.stats.gc_runs += 1;
        true
    }

    /// Migrate every remaining valid page off `block` (within the chip),
    /// then mark the block bad. If the chip runs out of space
    /// mid-migration the block is *not* retired: its unmigrated pages stay
    /// where they are (still readable) and the device degrades instead of
    /// losing data.
    fn retire_block(&mut self, chip: usize, block: u32, at: u64, tl: &mut FlashTimeline) {
        if !self.chips[chip].index_built() {
            self.build_gc_index();
        }
        // Stop allocating from the failing block before rewriting onto it.
        self.chips[chip].close_active(block);
        let moved = self.migrate(chip, block, at, tl);
        self.fstats.remapped_pages += moved.pages;
        if moved.emptied {
            self.chips[chip].retire(block);
            self.fstats.retired_blocks += 1;
            self.refresh_health();
        }
    }

    /// Move every valid page of `block` to a fresh page on the same chip,
    /// in page order, charging each to the timelines as a GC-origin read
    /// and program. Migration traffic is exempt from fault checks, so
    /// failure handling cannot recurse. Each destination is allocated
    /// before its source is dropped: a chip that runs out of space
    /// mid-move keeps every page mapped and the device turns read-only (a
    /// zero-fault device cannot run out, so there it is a panic: live data
    /// exceeds physical capacity).
    fn migrate(&mut self, chip: usize, block: u32, at: u64, tl: &mut FlashTimeline) -> Migration {
        let mut moved = Migration { pages: 0, busy_ns: 0, emptied: false };
        let mut valid = self.chips[chip].meta(block).valid;
        while valid != 0 {
            let page = valid.trailing_zeros() as u16;
            valid &= valid - 1;
            let lpn = self.chips[chip].lpn(block, page);
            let Some((nb, np)) = self.chips[chip].allocate_page() else {
                assert!(
                    !self.faults.is_inert(),
                    "flash chip out of space: live data exceeds physical capacity"
                );
                self.health = Health::ReadOnly;
                return moved;
            };
            let rd = tl.read(&self.cfg, chip, at, Origin::Gc);
            let blocks = &mut self.chips[chip];
            blocks.invalidate(block, page);
            blocks.set_lpn(nb, np, lpn);
            let old = self.l2p.replace(lpn as usize, self.ppn_of(chip, nb, np));
            debug_assert_eq!(old, self.ppn_of(chip, block, page), "valid page without mapping");
            let pr = tl.program(&self.cfg, chip, at, Origin::Gc);
            moved.busy_ns += u128::from(rd.end_ns - rd.start_ns + pr.end_ns - pr.start_ns);
            moved.pages += 1;
        }
        moved.emptied = true;
        moved
    }

    /// Enter read-only mode when any chip's free blocks fall below the
    /// reliability floor. No-op with the default floor of 0.
    fn refresh_health(&mut self) {
        if self.health == Health::ReadOnly {
            return;
        }
        let floor = self.faults.config().read_only_free_floor;
        if floor == 0 {
            return;
        }
        if self.chips.iter().any(|c| c.free_count() < floor) {
            self.health = Health::ReadOnly;
        }
    }

    /// Program one host/flush page of a batch on `chip` at `at`. Returns
    /// completion ns, or `at` when the chip is out of space and the page
    /// is rejected.
    ///
    /// Write-then-invalidate, like a real FTL: the old copy stays mapped
    /// until the new program has succeeded, so a failed or rejected write
    /// never loses the previous version. A program failure charges the
    /// attempt to the timeline, drops the dead (never-mapped) page,
    /// retires its block — migrating the block's valid pages, possibly
    /// including the old copy of this very LPN — and tries again.
    ///
    /// The GC check before the program is skipped while this batch has
    /// already established that the chip's free-block count sits at/above
    /// the floor and nothing has moved either since. This is exact: between
    /// two programs on a chip, `free_count` only changes when an allocation
    /// opens a fresh block or a retirement migrates pages (GC runs to
    /// completion inside `maybe_gc`; invalidations never free blocks), and
    /// the floor itself only changes when a block retires. Each of those
    /// re-arms the check, so a skipped `maybe_gc` is provably a no-op and
    /// the GC runs, golden counters and response times are those of a
    /// check before every page.
    #[inline]
    fn program_page(&mut self, chip: usize, lpn: Lpn, at: u64, tl: &mut FlashTimeline) -> u64 {
        assert!(lpn < self.logical_pages, "LPN {lpn} beyond device");
        loop {
            if !self.gc_checked[chip] {
                self.maybe_gc(chip, at, tl);
                // Only mark the chip safe when it ended above the floor;
                // under space pressure (free below floor with no
                // reclaimable victim) every program re-checks, because
                // later invalidations of this very batch can mint a victim.
                self.gc_checked[chip] = self.chips[chip].free_count() >= self.gc_floor(chip);
            }
            let free_before = self.chips[chip].free_count();
            let Some((block, page)) = self.chips[chip].allocate_page() else {
                // Out of space while faults are live: retirements may have
                // eaten the overprovisioning GC needs, so this is a device
                // failure, not a configuration error.
                assert!(
                    !self.faults.is_inert(),
                    "flash chip out of space: live data exceeds physical capacity"
                );
                self.health = Health::ReadOnly;
                self.fstats.rejected_write_pages += 1;
                return at;
            };
            if self.chips[chip].free_count() != free_before {
                // The allocation opened a fresh block: GC gets its usual
                // look before the next program on this chip.
                self.gc_checked[chip] = false;
            }
            let done = tl.program(&self.cfg, chip, at, Origin::User).end_ns;
            if !self.faults.program_fails() {
                // Commit: map the new page, then invalidate the old copy.
                self.chips[chip].set_lpn(block, page, lpn as u32);
                let old = self.l2p.replace(lpn as usize, self.ppn_of(chip, block, page));
                if old != UNMAPPED {
                    self.invalidate_ppn(old);
                }
                return done;
            }
            self.fstats.program_failures += 1;
            self.chips[chip].invalidate(block, page);
            self.retire_block(chip, block, at, tl);
            self.gc_checked[chip] = false;
        }
    }

    /// Flush a batch of pages at `at` with the given placement policy.
    /// Returns the completion time of the slowest page (the batch finish).
    ///
    /// The batch is walked with per-chip GC state hoisted out of the page
    /// loop (`Ftl::program_page`); the timeline operations themselves
    /// stay strictly in per-page order — reordering them per chip would
    /// change channel-bus interleaving and with it every completion time
    /// (see DESIGN.md).
    pub fn write_pages(
        &mut self,
        lpns: &[Lpn],
        at: u64,
        placement: Placement,
        tl: &mut FlashTimeline,
    ) -> u64 {
        if lpns.is_empty() {
            return at;
        }
        self.refresh_health();
        if self.health == Health::ReadOnly {
            // Degraded: reject the whole batch, serve no flash traffic.
            self.fstats.rejected_write_pages += lpns.len() as u64;
            return at;
        }
        // Overlap the mapping-table misses of the whole batch: every page
        // walk starts with an `l2p` load whose line is rarely resident once
        // a run's written footprint outgrows the caches, then invalidates
        // the old physical page's block metadata. Two passes warm both
        // levels — the second pass re-reads `l2p` (now L1-resident) to
        // issue the dependent block-meta prefetches early. Neither pass
        // panics on an out-of-range LPN: the per-page assert does.
        for &lpn in lpns {
            self.l2p.prefetch(lpn as usize);
        }
        for &lpn in lpns {
            let old = self.l2p.get(lpn as usize);
            if old != UNMAPPED {
                let chip = self.chip_of_ppn(old);
                let (block, _) = self.block_page_of_ppn(old);
                self.chips[chip].prefetch_meta(block);
            }
        }
        let chips = self.chips.len();
        let mut done = at;
        match placement {
            Placement::Striped => {
                self.gc_checked.fill(false);
                let mut cursor = self.cursor;
                for &lpn in lpns {
                    let chip = cursor;
                    cursor += 1;
                    if cursor == chips {
                        cursor = 0;
                    }
                    done = done.max(self.program_page(chip, lpn, at, tl));
                }
                self.cursor = cursor;
            }
            Placement::SingleBlock => {
                let chip = self.cursor;
                self.cursor = (chip + 1) % chips;
                self.gc_checked[chip] = false;
                for &lpn in lpns {
                    done = done.max(self.program_page(chip, lpn, at, tl));
                }
            }
        }
        done
    }

    /// Service a host read of `lpn` at `at`. Returns completion ns. Reads of
    /// unmapped LPNs are timed like ordinary reads (chip chosen by address
    /// hash, `lpn` modulo the chip count) and counted in
    /// [`FtlStats::unmapped_reads`].
    pub fn read_page(&mut self, lpn: Lpn, at: u64, tl: &mut FlashTimeline) -> u64 {
        assert!(lpn < self.logical_pages, "LPN {lpn} beyond device");
        let ppn = self.l2p.get(lpn as usize);
        let chip = if ppn == UNMAPPED {
            self.stats.unmapped_reads += 1;
            let chips = self.chips.len() as u64;
            // A mask on the usual power-of-two array, not a division.
            (if chips.is_power_of_two() { lpn & (chips - 1) } else { lpn % chips }) as usize
        } else {
            self.chip_of_ppn(ppn)
        };
        let done = tl.read(&self.cfg, chip, at, Origin::User).end_ns;
        if !self.faults.read_fails() {
            return done;
        }
        // Raw-bit-error path: each retry is a full flash read issued after
        // the failed attempt, re-occupying the chip and bus timelines — this
        // is how fault injection degrades tail latency realistically.
        self.fstats.read_faults += 1;
        let first_attempt = done;
        let mut done = done;
        let mut corrected = false;
        for _ in 0..MAX_READ_RETRIES {
            self.fstats.read_retries += 1;
            done = tl.read(&self.cfg, chip, at, Origin::User).end_ns;
            if !self.faults.read_fails() {
                corrected = true;
                break;
            }
        }
        if !corrected {
            // ECC gave up; a real drive returns a media error. The
            // simulator serves the request (there is no data payload to
            // corrupt) and counts it.
            self.fstats.read_uncorrectable += 1;
        }
        self.obs.retry_busy_ns += done.saturating_sub(first_attempt) as u128;
        done
    }

    /// [`Ftl::write_pages`] with a structured completion.
    pub fn write_pages_completion(
        &mut self,
        lpns: &[Lpn],
        at: u64,
        placement: Placement,
        tl: &mut FlashTimeline,
    ) -> IoCompletion {
        IoCompletion { done_ns: self.write_pages(lpns, at, placement, tl) }
    }

    /// Hint that `lpn`'s forward mapping is about to be consulted. Lets a
    /// host overlap the mapping-table miss with its own per-page work
    /// before calling [`Ftl::read_page`]; purely a cache hint, no effect
    /// on behaviour.
    #[inline]
    pub fn prefetch_lpn(&self, lpn: Lpn) {
        self.l2p.prefetch(lpn as usize);
    }

    /// Chip currently backing `lpn`, or `None` when the LPN is unmapped
    /// (an unmapped read is served without touching any chip). This is the
    /// chip attribution the host's outstanding-read ledger keys on.
    #[inline]
    pub fn chip_of_lpn(&self, lpn: Lpn) -> Option<usize> {
        let ppn = self.l2p.get(lpn as usize);
        if ppn == UNMAPPED {
            None
        } else {
            Some(self.chip_of_ppn(ppn))
        }
    }

    /// [`Ftl::read_page`] with a structured completion.
    pub fn read_page_completion(
        &mut self,
        lpn: Lpn,
        at: u64,
        tl: &mut FlashTimeline,
    ) -> IoCompletion {
        IoCompletion { done_ns: self.read_page(lpn, at, tl) }
    }

    /// Debug-grade consistency check of the translation state:
    /// * every forward entry maps an in-range LPN to a valid page of an
    ///   allocated block whose reverse entry names that LPN;
    /// * every valid page's reverse entry maps forward to that page;
    /// * each block's valid count equals its live forward mappings;
    /// * free, active, full and bad blocks partition each chip and agree
    ///   with its free count, and its GC lists hold exactly the full
    ///   blocks with invalid pages, each at its current count
    ///   ([`ChipBlocks::check_consistency`]), on a healthy device and a
    ///   degraded one alike.
    ///
    /// On a device whose GC index is not built yet, the chips must hold
    /// no index, and the reverse map and lists checked are those a build
    /// would produce now, built into a copy of the chips.
    ///
    /// Walks the materialized forward-map leaves and the allocated blocks
    /// only, so it stays cheap at paper geometry. Tests only.
    #[doc(hidden)]
    pub fn check_consistency(&self) -> Result<(), String> {
        let built = self.chips[0].index_built();
        if let Some(chip) = self.chips.iter().position(|c| c.index_built() != built) {
            return Err(format!("chip {chip}'s GC index is built: {}, chip 0's: {built}", !built));
        }
        if built {
            return self.check_against(&self.chips);
        }
        for (chip, blocks) in self.chips.iter().enumerate() {
            blocks.check_consistency().map_err(|e| format!("chip {chip}: {e}"))?;
        }
        let mut chips = self.chips.clone();
        self.build_index_into(&mut chips);
        self.check_against(&chips).map_err(|e| format!("once the GC index is built: {e}"))
    }

    /// [`Ftl::check_consistency`] of the forward map against `chips`,
    /// whose GC index is built.
    fn check_against(&self, chips: &[ChipBlocks]) -> Result<(), String> {
        let mut live: Vec<Vec<u32>> =
            chips.iter().map(|c| vec![0; c.allocated_watermark() as usize]).collect();
        for (lpn, ppn) in self.l2p.mapped() {
            let chip = self.chip_of_ppn(ppn);
            let (block, page) = self.block_page_of_ppn(ppn);
            if lpn as u64 >= self.logical_pages || chip >= chips.len() {
                return Err(format!("lpn {lpn} -> ppn {ppn} outside the device"));
            }
            let blocks = &chips[chip];
            let Some(count) = live[chip].get_mut(block as usize) else {
                return Err(format!("lpn {lpn} maps to unallocated block {block} of chip {chip}"));
            };
            if blocks.meta(block).valid & (1u64 << page) == 0 {
                return Err(format!("mapped page not valid: lpn {lpn}"));
            }
            if blocks.lpn(block, page) != lpn as u32 {
                return Err(format!("l2p/p2l mismatch at lpn {lpn}"));
            }
            *count += 1;
        }
        for (chip, (blocks, per_block)) in chips.iter().zip(&live).enumerate() {
            blocks.check_consistency().map_err(|e| format!("chip {chip}: {e}"))?;
            for (block, &mapped) in (0..).zip(per_block) {
                let mut valid = blocks.meta(block).valid;
                if valid.count_ones() != mapped {
                    return Err(format!(
                        "chip {chip} block {block}: {} valid pages but {mapped} live mappings",
                        valid.count_ones()
                    ));
                }
                while valid != 0 {
                    let page = valid.trailing_zeros() as u16;
                    valid &= valid - 1;
                    let lpn = blocks.lpn(block, page);
                    if self.l2p.get(lpn as usize) != self.ppn_of(chip, block, page) {
                        return Err(format!(
                            "chip {chip} block {block} page {page}: \
                             reverse entry {lpn} does not map back"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Ftl, FlashTimeline, SsdConfig) {
        let cfg = SsdConfig::tiny();
        (Ftl::new(&cfg), FlashTimeline::new(&cfg), cfg)
    }

    /// 2 chips x 23 blocks x 6 pages: neither the block count nor the
    /// pages per block is a power of two.
    fn ragged() -> SsdConfig {
        SsdConfig { pages_per_block: 6, capacity_bytes: 2 * 23 * 6 * 4096, ..SsdConfig::tiny() }
    }

    #[test]
    fn ppn_fields_round_trip() {
        let cfg = ragged();
        let ftl = Ftl::new(&cfg);
        for chip in 0..cfg.total_chips() {
            for block in 0..cfg.blocks_per_chip() as u32 {
                for page in 0..cfg.pages_per_block as u16 {
                    let ppn = ftl.ppn_of(chip, block, page);
                    assert_ne!(ppn, UNMAPPED);
                    assert_eq!(ftl.chip_of_ppn(ppn), chip);
                    assert_eq!(ftl.block_page_of_ppn(ppn), (block, page));
                }
            }
        }
        // On the paper device every field is a power of two, so the
        // layout is dense: its last page is PPN `total_pages - 1`.
        let cfg = SsdConfig::paper();
        let ftl = Ftl::new(&cfg);
        let (chip, block, page) = (cfg.total_chips() - 1, 32_767, 63);
        let last = ftl.ppn_of(chip, block, page);
        assert_eq!(u64::from(last), cfg.total_pages() - 1);
        assert_eq!(ftl.chip_of_ppn(last), chip);
        assert_eq!(ftl.block_page_of_ppn(last), (block, page));
    }

    #[test]
    #[should_panic(expected = "drive too large")]
    fn padded_ppn_space_must_fit_u32() {
        // 2^31 + 128 pages fit a u32, but 2^24 + 1 blocks pad to 2^25, so
        // the padded space holds 2 x 2^25 x 64 = 2^32 page numbers.
        let blocks = (1u64 << 24) + 1;
        let cfg = SsdConfig {
            pages_per_block: 64,
            capacity_bytes: 2 * blocks * 64 * 4096,
            ..SsdConfig::tiny()
        };
        assert!(cfg.total_pages() < u64::from(UNMAPPED));
        Ftl::new(&cfg);
    }

    #[test]
    fn write_then_read_maps_page() {
        let (mut ftl, mut tl, _cfg) = setup();
        assert!(!ftl.is_mapped(7));
        ftl.write_pages(&[7], 0, Placement::Striped, &mut tl);
        assert!(ftl.is_mapped(7));
        let done = ftl.read_page(7, 0, &mut tl);
        assert!(done > 0);
        assert_eq!(tl.counters().user_reads, 1);
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let (mut ftl, mut tl, _cfg) = setup();
        ftl.write_pages(&[3], 0, Placement::Striped, &mut tl);
        assert_eq!(ftl.live_pages(), 1);
        ftl.write_pages(&[3], 0, Placement::Striped, &mut tl);
        // Still exactly one live page; the old copy is invalid.
        assert_eq!(ftl.live_pages(), 1);
        assert_eq!(tl.counters().user_programs, 2);
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn striped_batch_faster_than_single_block() {
        let cfg = SsdConfig::paper();
        let mut ftl_s = Ftl::new(&cfg);
        let mut tl_s = FlashTimeline::new(&cfg);
        let lpns: Vec<Lpn> = (0..8).collect();
        let striped_done = ftl_s.write_pages(&lpns, 0, Placement::Striped, &mut tl_s);

        let mut ftl_b = Ftl::new(&cfg);
        let mut tl_b = FlashTimeline::new(&cfg);
        let block_done = ftl_b.write_pages(&lpns, 0, Placement::SingleBlock, &mut tl_b);

        // 8 pages over 8+ chips: ~1 program latency. Same chip: ~8x.
        assert!(block_done > striped_done * 4, "{block_done} vs {striped_done}");
    }

    #[test]
    fn single_block_batches_rotate_chips_between_evictions() {
        let (mut ftl, mut tl, _cfg) = setup();
        ftl.write_pages(&[0, 1], 0, Placement::SingleBlock, &mut tl);
        let c0 = ftl.chip_of_ppn(ftl.l2p.get(0));
        assert_eq!(c0, ftl.chip_of_ppn(ftl.l2p.get(1)), "batch stays on one chip");
        ftl.write_pages(&[2], 0, Placement::SingleBlock, &mut tl);
        let c1 = ftl.chip_of_ppn(ftl.l2p.get(2));
        assert_ne!(c0, c1, "next batch should move to the next chip");
    }

    #[test]
    fn gc_triggers_and_reclaims_space() {
        let (mut ftl, mut tl, cfg) = setup();
        // tiny: 2 chips x 32 blocks x 8 pages = 512 physical pages.
        // Hammer 64 LPNs with overwrites until GC must have run.
        let mut writes = 0u64;
        for round in 0..40 {
            for lpn in 0..64u64 {
                ftl.write_pages(&[lpn], round * 1_000_000, Placement::Striped, &mut tl);
                writes += 1;
            }
        }
        assert_eq!(tl.counters().user_programs, writes);
        assert!(ftl.stats().gc_runs > 0, "GC never ran");
        assert!(tl.counters().erases > 0);
        // Free-block floor is respected (or nothing reclaimable remained).
        let floor = cfg.gc_free_blocks_floor();
        for free in ftl.free_blocks_per_chip() {
            assert!(free >= floor.saturating_sub(1), "free {free} below floor {floor}");
        }
        assert_eq!(ftl.live_pages(), 64);
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn gc_preserves_data_mappings() {
        let (mut ftl, mut tl, _cfg) = setup();
        // Write a stable set once, then churn a different set to force GC.
        let stable: Vec<Lpn> = (100..150).collect();
        ftl.write_pages(&stable, 0, Placement::Striped, &mut tl);
        for round in 0..60 {
            for lpn in 0..32u64 {
                ftl.write_pages(&[lpn], round, Placement::Striped, &mut tl);
            }
        }
        assert!(ftl.stats().gc_runs > 0);
        for &lpn in &stable {
            assert!(ftl.is_mapped(lpn), "GC lost mapping for {lpn}");
        }
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn try_reset_is_observationally_fresh() {
        let (mut ftl, mut tl, cfg) = setup();
        // Dirty the FTL hard enough that GC ran and blocks churned.
        for round in 0..40 {
            for lpn in 0..64u64 {
                ftl.write_pages(&[lpn], round * 1_000_000, Placement::Striped, &mut tl);
            }
        }
        assert!(ftl.stats().gc_runs > 0, "precondition: GC ran");
        assert!(ftl.try_reset(&cfg, FaultConfig::default()));
        assert!(ftl.chips.iter().all(|c| !c.index_built()), "reset kept the GC index");
        ftl.check_consistency().unwrap();
        assert_eq!(ftl.live_pages(), 0);
        assert_eq!(ftl.stats(), &FtlStats::default());
        assert_eq!(ftl.max_erase_count(), 0);

        // Replay one schedule on the reset FTL and on a genuinely fresh
        // one: every completion time and final statistic must agree.
        let mut fresh = Ftl::new(&cfg);
        let mut tl_reset = FlashTimeline::new(&cfg);
        let mut tl_fresh = FlashTimeline::new(&cfg);
        for round in 0..40u64 {
            for lpn in 0..64u64 {
                let at = round * 1_000_000;
                let a = ftl.write_pages(&[lpn], at, Placement::Striped, &mut tl_reset);
                let b = fresh.write_pages(&[lpn], at, Placement::Striped, &mut tl_fresh);
                assert_eq!(a, b);
            }
        }
        for lpn in 0..64u64 {
            let a = ftl.read_page(lpn, 50_000_000, &mut tl_reset);
            let b = fresh.read_page(lpn, 50_000_000, &mut tl_fresh);
            assert_eq!(a, b);
        }
        assert_eq!(ftl.stats(), fresh.stats());
        assert_eq!(ftl.free_blocks_per_chip(), fresh.free_blocks_per_chip());
        assert_eq!(tl_reset.counters(), tl_fresh.counters());
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn gc_index_is_built_at_the_first_migration() {
        let (mut ftl, mut tl, _cfg) = setup();
        let built = |ftl: &Ftl| ftl.chips.iter().all(|c| c.index_built());
        // 4 x 64 overwrites fill 16 of each chip's 32 blocks: no GC.
        let lpns: Vec<Lpn> = (0..64).collect();
        for round in 0..4 {
            ftl.write_pages(&lpns, round * 1_000_000, Placement::Striped, &mut tl);
        }
        assert_eq!(ftl.stats().gc_runs, 0);
        assert!(ftl.chips.iter().all(|c| !c.index_built() && c.greediest().is_none()));
        ftl.check_consistency().unwrap();
        let mut round = 4;
        while ftl.stats().gc_runs == 0 {
            ftl.write_pages(&lpns, round * 1_000_000, Placement::Striped, &mut tl);
            round += 1;
        }
        assert!(built(&ftl));
        ftl.check_consistency().unwrap();
        ftl.build_gc_index();
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn try_reset_rejects_changed_config() {
        let (mut ftl, mut tl, cfg) = setup();
        ftl.write_pages(&[1, 2, 3], 0, Placement::Striped, &mut tl);
        let mut other = cfg.clone();
        other.dram_access_ns += 1;
        assert!(!ftl.try_reset(&other, FaultConfig::default()));
        // The refused reset must leave state untouched.
        assert!(ftl.is_mapped(1));
        assert_eq!(ftl.live_pages(), 3);
    }

    #[test]
    fn gc_migration_counted_separately() {
        let (mut ftl, mut tl, _cfg) = setup();
        ftl.write_pages(&(200..232).collect::<Vec<_>>(), 0, Placement::Striped, &mut tl);
        let user_before = tl.counters().user_programs;
        for round in 0..60 {
            for lpn in 0..32u64 {
                ftl.write_pages(&[lpn], round, Placement::Striped, &mut tl);
            }
        }
        let c = tl.counters();
        assert_eq!(c.user_programs, user_before + 60 * 32);
        assert_eq!(c.gc_programs, ftl.stats().gc_migrated_pages);
        assert!(c.write_amplification() >= 1.0);
    }

    #[test]
    fn gc_obs_accumulates_busy_time() {
        let (mut ftl, mut tl, _cfg) = setup();
        assert_eq!(ftl.obs().gc_busy_ns, 0);
        for round in 0..40 {
            for lpn in 0..64u64 {
                ftl.write_pages(&[lpn], round * 1_000_000, Placement::Striped, &mut tl);
            }
        }
        assert!(ftl.stats().gc_runs > 0);
        let obs = ftl.obs();
        assert!(obs.gc_busy_ns > 0, "GC ran but no busy time recorded");
        assert!(obs.gc_max_pause_ns > 0);
        assert!(obs.gc_busy_ns >= obs.gc_max_pause_ns as u128);
        // Every GC round includes at least its erase.
        assert!(
            obs.gc_busy_ns >= ftl.stats().gc_runs as u128 * ftl.config().erase_latency_ns as u128
        );
    }

    #[test]
    fn free_blocks_total_matches_per_chip_sum() {
        let (mut ftl, mut tl, _cfg) = setup();
        let before = ftl.free_blocks_total();
        assert_eq!(before, ftl.free_blocks_per_chip().iter().sum::<usize>());
        ftl.write_pages(&(0..64).collect::<Vec<_>>(), 0, Placement::Striped, &mut tl);
        let after = ftl.free_blocks_total();
        assert!(after < before, "allocations must consume free blocks");
        assert_eq!(after, ftl.free_blocks_per_chip().iter().sum::<usize>());
    }

    #[test]
    fn unmapped_read_is_timed_and_counted() {
        let (mut ftl, mut tl, cfg) = setup();
        let done = ftl.read_page(99, 0, &mut tl);
        assert_eq!(done, cfg.read_latency_ns + cfg.page_transfer_ns());
        assert_eq!(ftl.stats().unmapped_reads, 1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (mut ftl, mut tl, _cfg) = setup();
        assert_eq!(ftl.write_pages(&[], 42, Placement::Striped, &mut tl), 42);
        assert_eq!(tl.counters().user_programs, 0);
    }

    #[test]
    #[should_panic(expected = "beyond device")]
    fn lpn_out_of_range_panics() {
        let (mut ftl, mut tl, cfg) = setup();
        let bad = cfg.total_pages();
        ftl.write_pages(&[bad], 0, Placement::Striped, &mut tl);
    }

    #[test]
    fn wear_increases_under_churn() {
        let (mut ftl, mut tl, _cfg) = setup();
        for round in 0..100 {
            for lpn in 0..32u64 {
                ftl.write_pages(&[lpn], round, Placement::Striped, &mut tl);
            }
        }
        assert!(ftl.max_erase_count() >= 1);
    }

    // ------------------------------------------------------------------
    // Fault injection / reliability
    // ------------------------------------------------------------------

    use reqblock_flash::PPM_SCALE;

    fn setup_faulty(fc: FaultConfig) -> (Ftl, FlashTimeline, SsdConfig) {
        let cfg = SsdConfig::tiny();
        (Ftl::with_faults(&cfg, fc), FlashTimeline::new(&cfg), cfg)
    }

    #[test]
    fn zero_fault_config_matches_plain_ftl() {
        let cfg = SsdConfig::tiny();
        let mut plain = Ftl::new(&cfg);
        let mut tl_a = FlashTimeline::new(&cfg);
        let mut faulty = Ftl::with_faults(&cfg, FaultConfig::default());
        let mut tl_b = FlashTimeline::new(&cfg);
        for round in 0..40u64 {
            for lpn in 0..64u64 {
                let a = plain.write_pages(&[lpn], round * 1_000, Placement::Striped, &mut tl_a);
                let b = faulty.write_pages(&[lpn], round * 1_000, Placement::Striped, &mut tl_b);
                assert_eq!(a, b);
            }
        }
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(tl_a.counters(), tl_b.counters());
        assert_eq!(*faulty.fault_stats(), FaultStats::default());
        assert_eq!(faulty.health(), Health::Healthy);
    }

    #[test]
    fn program_failures_retire_blocks_and_remap_pages() {
        // 2% program-fail rate: a handful of failures over 640 programs,
        // without retiring so many blocks the tiny drive dies.
        let fc = FaultConfig::with_rates(1234, 0, 20_000, 0);
        let (mut ftl, mut tl, _cfg) = setup_faulty(fc);
        for round in 0..10u64 {
            for lpn in 0..64u64 {
                ftl.write_pages(&[lpn], round * 1_000, Placement::Striped, &mut tl);
            }
        }
        let fs = *ftl.fault_stats();
        assert!(fs.program_failures > 0, "no program failure in 640 writes at 2%");
        assert_eq!(fs.retired_blocks as usize, ftl.bad_blocks_total());
        assert!(fs.retired_blocks > 0);
        // Every write ultimately landed: all 64 LPNs mapped, nothing lost.
        for lpn in 0..64u64 {
            assert!(ftl.is_mapped(lpn), "LPN {lpn} lost after program failures");
        }
        assert_eq!(ftl.live_pages(), 64);
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn erase_failures_retire_blocks_without_losing_data() {
        // Erases fail 5% of the time; force heavy GC churn.
        let fc = FaultConfig::with_rates(77, 0, 0, 50_000);
        let (mut ftl, mut tl, _cfg) = setup_faulty(fc);
        for round in 0..40u64 {
            for lpn in 0..64u64 {
                ftl.write_pages(&[lpn], round * 1_000, Placement::Striped, &mut tl);
            }
        }
        let fs = *ftl.fault_stats();
        assert!(fs.erase_failures > 0, "no erase failure despite GC churn");
        assert_eq!(fs.retired_blocks, fs.erase_failures);
        assert_eq!(fs.retired_blocks as usize, ftl.bad_blocks_total());
        // GC kept running around the bad blocks and data survived.
        assert_eq!(ftl.live_pages(), 64);
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn read_retries_cost_extra_flash_reads() {
        let fc = FaultConfig::with_rates(9, 300_000, 0, 0);
        let (mut ftl, mut tl, _cfg) = setup_faulty(fc);
        ftl.write_pages(&(0..32).collect::<Vec<_>>(), 0, Placement::Striped, &mut tl);
        let mut slow_reads = 0u64;
        let baseline = {
            let cfg = ftl.config();
            cfg.read_latency_ns + cfg.page_transfer_ns()
        };
        for lpn in 0..32u64 {
            // Arrivals a second apart: the chips are idle at each read, so
            // any extra latency is retry serialization, not queueing.
            let at = (lpn + 1) * 1_000_000_000;
            let done = ftl.read_page(lpn, at, &mut tl);
            if done > at + baseline {
                slow_reads += 1;
            }
        }
        let fs = *ftl.fault_stats();
        assert!(fs.read_faults > 0, "no read fault in 32 reads at 30%");
        assert!(fs.read_retries >= fs.read_faults);
        // Every faulted read re-occupied the timeline: observable latency.
        assert_eq!(slow_reads, fs.read_faults);
        assert_eq!(tl.counters().user_reads, 32 + fs.read_retries);
        // Retry delay is observable for attribution: at least one full
        // read latency per faulted read, none on a fault-free run.
        assert!(
            ftl.obs().retry_busy_ns >= fs.read_faults as u128 * baseline as u128,
            "retry_busy_ns {} below {} faults x {baseline} ns",
            ftl.obs().retry_busy_ns,
            fs.read_faults
        );
    }

    #[test]
    fn uncorrectable_reads_counted_after_retry_budget() {
        // Reads always fail: 1 fault + MAX_READ_RETRIES retries each, all
        // uncorrectable.
        let fc = FaultConfig::with_rates(5, PPM_SCALE, 0, 0);
        let (mut ftl, mut tl, _cfg) = setup_faulty(fc);
        ftl.write_pages(&[1, 2, 3], 0, Placement::Striped, &mut tl);
        for lpn in [1u64, 2, 3] {
            ftl.read_page(lpn, 0, &mut tl);
        }
        let fs = *ftl.fault_stats();
        assert_eq!(fs.read_faults, 3);
        assert_eq!(fs.read_uncorrectable, 3);
        assert_eq!(fs.read_retries, 3 * MAX_READ_RETRIES as u64);
    }

    #[test]
    fn free_floor_degrades_to_read_only_but_serves_reads() {
        // Zero fault rates; degradation comes purely from the free-block
        // floor. tiny chip = 32 blocks; floor 30 trips after a few blocks
        // open for writing.
        let fc = FaultConfig { read_only_free_floor: 30, ..FaultConfig::default() };
        let (mut ftl, mut tl, _cfg) = setup_faulty(fc);
        let mut lpn = 0u64;
        while !ftl.is_read_only() {
            ftl.write_pages(&[lpn], 0, Placement::Striped, &mut tl);
            lpn += 1;
            assert!(lpn < 400, "device never degraded");
        }
        assert_eq!(ftl.health(), Health::ReadOnly);
        let mapped_before = ftl.live_pages();
        let programs_before = tl.counters().user_programs;
        let rejected_before = ftl.fault_stats().rejected_write_pages;
        // Writes are rejected: no time charged, no flash traffic, counted.
        let done = ftl.write_pages(&[500, 501], 5_000, Placement::Striped, &mut tl);
        assert_eq!(done, 5_000);
        assert_eq!(tl.counters().user_programs, programs_before);
        assert_eq!(ftl.fault_stats().rejected_write_pages, rejected_before + 2);
        assert_eq!(ftl.live_pages(), mapped_before);
        assert!(!ftl.is_mapped(500));
        // Reads of existing data are still served, with normal timing.
        let r = ftl.read_page(0, 10_000, &mut tl);
        assert!(r > 10_000);
        assert!(ftl.is_mapped(0));
        ftl.check_consistency().unwrap();
    }

    #[test]
    fn gc_floor_shrinks_with_retired_blocks() {
        // Retire blocks via certain program failure on one chip, then check
        // the floor math follows the usable count.
        let fc = FaultConfig::with_rates(3, 0, 0, 0);
        let (ftl, _tl, cfg) = setup_faulty(fc);
        assert_eq!(ftl.gc_floor(0), cfg.gc_free_blocks_floor());
        let mut ftl = ftl;
        // Manually retire two blocks on chip 0 through the public surface:
        // fill them, invalidate them, and retire via erase-failure path is
        // indirect — use ChipBlocks directly instead.
        let blocks = &mut ftl.chips[0];
        for _ in 0..2 {
            let mut filled = None;
            for _ in 0..cfg.pages_per_block {
                let (b, p) = blocks.allocate_page().unwrap();
                blocks.invalidate(b, p);
                filled = Some(b);
            }
            blocks.retire(filled.unwrap());
        }
        assert_eq!(blocks.bad_count(), 2);
        // usable 30 * 0.10 -> ceil(3.0) = 3 vs the healthy floor of 4.
        assert_eq!(ftl.gc_floor(0), 3);
        assert_eq!(cfg.gc_free_blocks_floor(), 4);
    }

    #[test]
    fn deterministic_fault_stream_under_same_seed() {
        let fc = FaultConfig::with_rates(2024, 20_000, 10_000, 10_000);
        let run = || {
            let (mut ftl, mut tl, _cfg) = setup_faulty(fc.clone());
            let mut last = 0;
            for round in 0..20u64 {
                for lpn in 0..64u64 {
                    last = ftl.write_pages(&[lpn], round * 1_000, Placement::Striped, &mut tl);
                    last = last.max(ftl.read_page(lpn / 2, round * 1_000, &mut tl));
                }
            }
            (*ftl.fault_stats(), *tl.counters(), last)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed+config must reproduce faults exactly");
        assert!(a.0.read_faults > 0 || a.0.program_failures > 0);
    }
}
