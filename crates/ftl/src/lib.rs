//! Page-level flash translation layer with greedy garbage collection.
//!
//! Table 1 of the paper specifies a page-level FTL ("FTL Scheme: Page level")
//! with a 10 % GC threshold. This crate provides:
//!
//! * [`Ftl`] — logical-to-physical mapping, dynamic page allocation, and the
//!   write/read entry points the simulator calls. Two placement modes exist
//!   because the paper's §4.2.2 hinges on them:
//!   [`Placement::Striped`] spreads a flush batch round-robin across chips
//!   (what LRU/VBBMS/Req-block evictions get — the "multiple channels"
//!   parallelism), while [`Placement::SingleBlock`] appends the whole batch
//!   on one chip (BPLRU's whole-block flush, which serializes on a single
//!   channel and is why BPLRU loses on response time despite similar hit
//!   ratios).
//! * [`blocks`] — per-chip block state: free lists, append points, per-block
//!   valid bitmaps (`u64`, hence the 64 pages/block limit), erase counts,
//!   and the GC candidates.
//! * [`gc`] — greedy victim selection: each chip lists its full blocks
//!   with invalid pages by invalid count, and its block transitions keep
//!   the lists exact. GC migrates valid pages within the chip and erases
//!   the victim, charging all of it to the chip's timeline so later host
//!   operations observe the delay.
//!
//! Every flushed page goes through one write-then-invalidate program
//! routine, fault-injected or not, and GC and block retirement move valid
//! pages with one migration loop.
//!
//! Reliability (see DESIGN.md §9): built with [`Ftl::with_faults`], the FTL
//! consults a seeded `reqblock_flash::FaultModel` on host reads, host/flush
//! programs and GC erases. Failed reads retry (each retry a full timed
//! read), failed programs remap the page and retire the block, failed
//! erases retire the block; retired ([`BlockState::Bad`]) blocks leave the
//! rotation for good and shrink the GC floor proportionally. Once a chip's
//! free blocks fall below `FaultConfig::read_only_free_floor` the device
//! degrades per [`Health`]: writes rejected, reads still served. The
//! default fault config is inert and leaves behaviour bit-identical to a
//! fault-free build.

pub mod blocks;
pub mod ftl;
pub mod gc;

pub use blocks::{BlockState, ChipBlocks};
pub use ftl::{Ftl, FtlObs, FtlStats, Health, IoCompletion, Placement};
