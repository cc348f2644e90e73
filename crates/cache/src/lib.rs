//! DRAM write-buffer framework and baseline cache policies.
//!
//! Inside the simulated SSD, the DRAM data cache is a **write buffer**: only
//! the data of write requests is inserted (paper §3.4), reads are served
//! from the buffer when they hit and from flash otherwise. This crate
//! defines the policy interface and implements the three baselines the
//! paper compares against, plus CFLRU, the one policy that caches read
//! data:
//!
//! | policy | granularity | eviction | paper role |
//! |--------|-------------|----------|-----------|
//! | [`policies::lru::LruCache`] | page | LRU page | baseline (§4.1) |
//! | [`policies::cflru::CflruCache`] | page | clean-first LRU \[9\] | related work (§2.1) |
//! | [`policies::bplru::BplruCache`] | flash block | block LRU + seq demotion \[15\] | compared baseline |
//! | [`policies::vbbms::VbbmsCache`] | virtual block | split random/seq regions \[16\] | compared baseline |
//!
//! The paper's own policy (Req-block) lives in the sibling crate
//! `reqblock-core` and implements the same [`WriteBuffer`] trait.
//!
//! # Interface contract
//!
//! [`WriteBuffer::write`] and [`WriteBuffer::read`] are **page-granular**:
//! the simulator walks each request's LPNs in ascending order (Algorithm 1
//! of the paper) and calls the buffer once per page, passing the request
//! context ([`Access`]). When an insertion needs room, the policy appends
//! [`EvictionBatch`]es describing which pages leave the cache and how the
//! flush should be placed on flash ([`Placement`]); the simulator performs
//! the actual flash traffic and timing.

pub mod arena;
pub mod fxhash;
pub mod list;
pub mod overhead;
pub mod policies;
pub mod policy;

pub use arena::{Arena, ArenaId};
pub use fxhash::{fx_map_with_capacity, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use list::{Handle, SlabList};
pub use policy::{Access, CacheEvents, EvictionBatch, Placement, WriteBuffer};
