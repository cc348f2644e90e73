//! The four benchmark workloads and how each is built from a seed.
//!
//! Each workload is chosen to load a different layer of the simulator (see
//! `README.md` for the measured split): a cache-policy change shows on
//! `ts0_small_writes` and must not move `proj0_gc`'s GC numbers; a GC or
//! FTL write-path change shows on `proj0_gc`; a write-path gain that costs
//! reads shows on `hm1_reads`; and only `fleet_qd8` exercises the flush
//! window, the task pool and pooled device reset.

use reqblock_core::ReqBlockConfig;
use reqblock_experiments::extensions::{fleet_device_config, fleet_mix, fleet_service_gap_ns};
use reqblock_experiments::Opts;
use reqblock_flash::SsdConfig;
use reqblock_sim::{CacheSizeMb, FleetConfig, PolicyKind, SimConfig, TenantMix};
use reqblock_trace::{profiles, WorkloadProfile};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ts_0` at full paper length on the paper device: small writes with
    /// strong reuse; the cache layer dominates and GC never runs.
    Ts0SmallWrites,
    /// `proj_0` x0.1 on a two-chip device sized at 1.15x the write
    /// footprint: large writes cycle the free pool and GC dominates.
    Proj0Gc,
    /// `hm_1` x3 on the paper device: 95 % reads, so the FTL read path
    /// dominates and the flush/GC path idles.
    Hm1Reads,
    /// The X8 three-tenant mix x0.2 over 16 striped queue-depth-8 devices
    /// through `run_fleet`: the flush window, pool and device reset.
    FleetQd8,
}

/// Devices in the `fleet_qd8` fleet.
const FLEET_DEVICES: usize = 16;

/// Worker threads of `fleet_qd8`'s timed runs. One: on a two-vCPU shared
/// host, two busy workers made the run time follow the host's scheduler
/// (five 20 s runs back to back spread their `req_per_s` medians over 21 %
/// with two workers and 3 % with one). The traced run's pool row still
/// times 1 against 2 threads.
pub(crate) const FLEET_THREADS: usize = 1;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ts0SmallWrites,
        Workload::Proj0Gc,
        Workload::Hm1Reads,
        Workload::FleetQd8,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ts0SmallWrites => "ts0_small_writes",
            Workload::Proj0Gc => "proj0_gc",
            Workload::Hm1Reads => "hm1_reads",
            Workload::FleetQd8 => "fleet_qd8",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace profile and device a single-device workload replays for
    /// `seed` at `scale` (1.0 is the benchmark's size; the integration tests
    /// run a small fraction); `None` for the fleet, which `fleet_setup` builds.
    pub fn single(self, seed: u64, scale: f64) -> Option<(WorkloadProfile, SimConfig)> {
        let mut cfg = SimConfig::paper(
            CacheSizeMb::Mb16,
            PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        );
        let profile = match self {
            Workload::Ts0SmallWrites => profiles::ts_0().scaled(scale),
            Workload::Proj0Gc => {
                let profile = profiles::proj_0().scaled(0.1 * scale);
                cfg.ssd = pressured_ssd(&profile);
                profile
            }
            Workload::Hm1Reads => profiles::hm_1().scaled(3.0 * scale),
            Workload::FleetQd8 => return None,
        };
        Some((reseed_profile(profile, seed), cfg))
    }
}

/// `fleet_qd8`'s configuration and tenant mix for `seed` at `scale`: runs
/// the calibration probe (`fleet_service_gap_ns`), builds the X8 mix at
/// x0.2 and 0.8x calibrated capacity, and reseeds every tenant.
pub(crate) fn fleet_setup(scale: f64, seed: u64) -> (FleetConfig, TenantMix) {
    let opts = Opts {
        scale: 0.2 * scale,
        threads: FLEET_THREADS,
        ..Opts::default()
    };
    let gap = fleet_service_gap_ns(&opts);
    let mut mix = fleet_mix(&opts, gap, FLEET_DEVICES);
    for tenant in &mut mix.tenants {
        tenant.seed = reseed(tenant.seed, seed);
        tenant.profile = reseed_profile(tenant.profile.clone(), seed);
    }
    (
        FleetConfig::uniform(FLEET_DEVICES, fleet_device_config()),
        mix,
    )
}

/// Mix the benchmark seed into a calibrated seed. Seed 0 keeps the
/// calibrated value, so the default run replays the profiles as shipped.
fn reseed(calibrated: u64, seed: u64) -> u64 {
    calibrated.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn reseed_profile(mut profile: WorkloadProfile, seed: u64) -> WorkloadProfile {
    profile.seed = reseed(profile.seed, seed);
    profile
}

/// A two-chip device with ~115 % of the profile's write footprint, so the
/// append stream cycles the free-block pool and GC erases fire (the sizing
/// the `wear`/fault extensions use).
fn pressured_ssd(profile: &WorkloadProfile) -> SsdConfig {
    let mut ssd = SsdConfig::paper();
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    let block_pages = ssd.total_chips() as u64 * ssd.pages_per_block as u64;
    let footprint = profile.streaming_pages + profile.cold_read_extra_pages;
    let want_pages = (footprint as f64 * 1.15) as u64;
    ssd.capacity_bytes = want_pages.div_ceil(block_pages).max(8) * block_pages * ssd.page_size;
    ssd
}
