//! Simulation configuration: SSD, cache size, policy and host-mode selection.

use crate::buffer::PolicyBuffer;
use crate::host::SubmitMode;
use reqblock_cache::policies::{
    BplruCache, BplruConfig, CflruCache, CflruConfig, LruCache, VbbmsCache,
};
use reqblock_core::{ReqBlock, ReqBlockConfig};
use reqblock_flash::{FaultConfig, SsdConfig};
use reqblock_obs::AttrConfig;
use serde::{Deserialize, Serialize};

/// The paper's three data-cache sizes (§4.1: "the size of data cache varying
/// from 16 MB to 64 MB for our 128 GB SSD device").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheSizeMb {
    /// 16 MB = 4096 pages.
    Mb16,
    /// 32 MB = 8192 pages.
    Mb32,
    /// 64 MB = 16384 pages.
    Mb64,
}

impl CacheSizeMb {
    /// All three sizes, smallest first.
    pub const ALL: [CacheSizeMb; 3] = [CacheSizeMb::Mb16, CacheSizeMb::Mb32, CacheSizeMb::Mb64];

    /// Size in megabytes.
    pub fn mb(self) -> usize {
        match self {
            CacheSizeMb::Mb16 => 16,
            CacheSizeMb::Mb32 => 32,
            CacheSizeMb::Mb64 => 64,
        }
    }

    /// Capacity in 4 KB pages.
    pub fn pages(self) -> usize {
        self.mb() * 1024 * 1024 / 4096
    }
}

impl std::fmt::Display for CacheSizeMb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}MB", self.mb())
    }
}

/// Which cache policy to run. Carries the per-policy configuration so a
/// whole experiment grid is expressible as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Page-level LRU (baseline).
    Lru,
    /// Clean-first LRU.
    Cflru(CflruConfig),
    /// Block padding LRU.
    Bplru(BplruConfig),
    /// Virtual-block split-region scheme.
    Vbbms,
    /// The paper's contribution.
    ReqBlock(ReqBlockConfig),
}

impl PolicyKind {
    /// The four schemes of the paper's headline comparison (Figures 8-11),
    /// in the paper's order.
    pub fn paper_comparison() -> [PolicyKind; 4] {
        [
            PolicyKind::Lru,
            PolicyKind::Bplru(BplruConfig::default()),
            PolicyKind::Vbbms,
            PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        ]
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Cflru(_) => "CFLRU",
            PolicyKind::Bplru(_) => "BPLRU",
            PolicyKind::Vbbms => "VBBMS",
            PolicyKind::ReqBlock(_) => "Req-block",
        }
    }

    /// Instantiate the policy for a cache of `cache_pages` pages on an SSD
    /// with `pages_per_block` pages per flash block, as the statically
    /// dispatched [`PolicyBuffer`] the device's hot path uses.
    pub fn build_buffer(&self, cache_pages: usize, pages_per_block: usize) -> PolicyBuffer {
        match *self {
            PolicyKind::Lru => PolicyBuffer::Lru(LruCache::new(cache_pages)),
            PolicyKind::Cflru(cfg) => PolicyBuffer::Cflru(CflruCache::new(cache_pages, cfg)),
            PolicyKind::Bplru(cfg) => {
                PolicyBuffer::Bplru(BplruCache::new(cache_pages, pages_per_block, cfg))
            }
            PolicyKind::Vbbms => PolicyBuffer::Vbbms(VbbmsCache::new(cache_pages)),
            PolicyKind::ReqBlock(cfg) => PolicyBuffer::ReqBlock(ReqBlock::new(cache_pages, cfg)),
        }
    }
}

/// When the periodic time-series sampler snapshots device state into the
/// active [`reqblock_obs::Recorder`]. Sampling only happens while a
/// recording run is in flight — with the no-op recorder the sampler is
/// never consulted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SampleInterval {
    /// Never sample (the default; plain metric runs).
    #[default]
    Off,
    /// Snapshot every N completed requests (`t` = request index). The
    /// paper's Figure 13 samples every 10 000 requests at full scale.
    Requests(u64),
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// SSD geometry and timing (Table 1).
    pub ssd: SsdConfig,
    /// Data-cache capacity in pages.
    pub cache_pages: usize,
    /// Cache management scheme.
    pub policy: PolicyKind,
    /// Sample metadata size / node count every this many requests (for the
    /// Figure 12 space-overhead averages). 0 disables sampling.
    pub overhead_sample_every: u64,
    /// Time-series sampling cadence for recorded runs.
    pub sampling: SampleInterval,
    /// Fault-injection configuration for the FTL/flash layer. The default
    /// is zero-fault: behaviour (and golden metrics) identical to a run
    /// without the reliability layer.
    pub fault: FaultConfig,
    /// How the host issues requests ([`SubmitMode`]). The default,
    /// `Queued { depth: 1 }`, is the paper's one-at-a-time model and is
    /// byte-identical to the pre-host-layer simulator.
    pub submit: SubmitMode,
    /// Per-request latency attribution (DESIGN.md §7.4). `None` (the
    /// default) keeps the simulator's plain path: no decomposition, no span
    /// sampling, no new telemetry keys — recorded JSONL stays
    /// byte-identical to earlier schema consumers. `Some` activates the
    /// attribution accumulator on *recorded* runs only; with the no-op
    /// recorder the enabled-flag guard monomorphizes the whole subsystem
    /// away.
    pub attr: Option<AttrConfig>,
}

impl SimConfig {
    /// The paper's setup: Table 1 SSD with one of the three cache sizes.
    pub fn paper(cache: CacheSizeMb, policy: PolicyKind) -> Self {
        Self {
            ssd: SsdConfig::paper(),
            cache_pages: cache.pages(),
            policy,
            overhead_sample_every: 1_000,
            sampling: SampleInterval::Off,
            fault: FaultConfig::default(),
            submit: SubmitMode::default(),
            attr: None,
        }
    }

    /// Miniature setup for unit tests: tiny SSD, `cache_pages`-page cache.
    pub fn tiny(cache_pages: usize, policy: PolicyKind) -> Self {
        Self {
            ssd: SsdConfig::tiny(),
            cache_pages,
            policy,
            overhead_sample_every: 10,
            sampling: SampleInterval::Off,
            fault: FaultConfig::default(),
            submit: SubmitMode::default(),
            attr: None,
        }
    }

    /// Same config with a different sampling cadence (builder-style).
    pub fn with_sampling(mut self, sampling: SampleInterval) -> Self {
        self.sampling = sampling;
        self
    }

    /// Same config with fault injection enabled (builder-style). Identical
    /// seeds and rates reproduce the exact same failures run after run.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Same config with a different host submit mode (builder-style).
    pub fn with_submit(mut self, submit: SubmitMode) -> Self {
        self.submit = submit;
        self
    }

    /// Same config with per-request latency attribution enabled
    /// (builder-style). Only recorded runs attribute; see
    /// [`SimConfig::attr`].
    pub fn with_attribution(mut self, attr: AttrConfig) -> Self {
        self.attr = Some(attr);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_match_paper() {
        assert_eq!(CacheSizeMb::Mb16.pages(), 4096);
        assert_eq!(CacheSizeMb::Mb32.pages(), 8192);
        assert_eq!(CacheSizeMb::Mb64.pages(), 16384);
        assert_eq!(CacheSizeMb::Mb32.to_string(), "32MB");
    }

    #[test]
    fn paper_comparison_order() {
        let names: Vec<&str> = PolicyKind::paper_comparison().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["LRU", "BPLRU", "VBBMS", "Req-block"]);
    }

    #[test]
    fn build_constructs_each_policy() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Cflru(CflruConfig::default()),
            PolicyKind::Bplru(BplruConfig::default()),
            PolicyKind::Vbbms,
            PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        ] {
            let built = kind.build_buffer(128, 64);
            let buf = built.as_dyn();
            assert_eq!(buf.capacity_pages(), 128);
            assert_eq!(buf.len_pages(), 0);
            assert_eq!(buf.name(), kind.name());
        }
    }
}
