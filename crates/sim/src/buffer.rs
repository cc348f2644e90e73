//! Static dispatch over the cache-policy zoo.
//!
//! The [`Device`](crate::Device)'s write buffer is called once per page of
//! every request, the single hottest call site in the simulator; held as a
//! `Box<dyn WriteBuffer>` it would cost an indirect call each time.
//! [`PolicyBuffer`] closes the set: the five policy implementations become
//! enum variants, so the per-page `write`/`read` calls devirtualize and
//! inline into [`Ssd`](crate::Ssd)'s submit loop, while everything cold
//! (occupancy queries, event counters, telemetry) still goes through the
//! trait object view returned by [`PolicyBuffer::as_dyn`].

use reqblock_cache::policies::{BplruCache, CflruCache, LruCache, VbbmsCache};
use reqblock_cache::{Access, EvictionBatch, WriteBuffer};
use reqblock_core::ReqBlock;

/// A write buffer with the policy chosen at construction but dispatched
/// statically: one branch per call instead of a vtable load + indirect
/// call per page.
pub enum PolicyBuffer {
    /// Page-level LRU.
    Lru(LruCache),
    /// Clean-first LRU.
    Cflru(CflruCache),
    /// Block padding LRU.
    Bplru(BplruCache),
    /// Virtual-block split-region scheme.
    Vbbms(VbbmsCache),
    /// The paper's contribution.
    ReqBlock(ReqBlock),
}

macro_rules! each_policy {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            PolicyBuffer::Lru($inner) => $body,
            PolicyBuffer::Cflru($inner) => $body,
            PolicyBuffer::Bplru($inner) => $body,
            PolicyBuffer::Vbbms($inner) => $body,
            PolicyBuffer::ReqBlock($inner) => $body,
        }
    };
}

impl PolicyBuffer {
    /// Record a page write; returns whether it hit. See
    /// [`WriteBuffer::write`].
    #[inline]
    pub fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        each_policy!(self, c => c.write(a, evictions))
    }

    /// Record a page read; returns whether it hit. See
    /// [`WriteBuffer::read`].
    #[inline]
    pub fn read(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        each_policy!(self, c => c.read(a, evictions))
    }

    /// Hand a flushed batch back for buffer reuse. See
    /// [`WriteBuffer::recycle`].
    #[inline]
    pub fn recycle(&mut self, batch: EvictionBatch) {
        each_policy!(self, c => c.recycle(batch))
    }

    /// Remove and return everything still buffered. See
    /// [`WriteBuffer::drain`].
    pub fn drain(&mut self) -> Vec<EvictionBatch> {
        each_policy!(self, c => c.drain())
    }

    /// Trait-object view for the cold paths (occupancy, metadata, events):
    /// they run once per sample or per run, not once per page.
    pub fn as_dyn(&self) -> &dyn WriteBuffer {
        each_policy!(self, c => c as &dyn WriteBuffer)
    }
}
