//! Golden determinism-regression test for the Req-block hot path.
//!
//! The arena/hashing refactor of the per-access bookkeeping must change no
//! simulation output: this test replays fixed seeded `ts_0` slices through
//! two fresh Req-block devices, checks they agree with each other, and pins
//! every counter in `Metrics`, `OpCounters`, and `FtlStats` to a committed
//! golden baseline captured from the pre-refactor (HashMap + linear scan)
//! implementation.
//!
//! If this test fails after a hot-path change, the change altered simulation
//! *semantics*, not just speed — that is a bug (or a deliberate semantic
//! change that must re-capture the baseline and say so in its commit).

use reqblock::core::ReqBlockConfig;
use reqblock::flash::OpCounters;
use reqblock::ftl::FtlStats;
use reqblock::obs::NoopRecorder;
use reqblock::sim::{replay, CacheSizeMb, PolicyKind, SimConfig, TraceSource};
use reqblock::trace::profiles::ts_0;

/// Snapshot of every integer counter a run reports.
#[derive(Debug, PartialEq)]
struct Golden {
    requests: u64,
    read_reqs: u64,
    write_reqs: u64,
    read_pages: u64,
    write_pages: u64,
    read_hits: u64,
    write_hits: u64,
    evictions: u64,
    evicted_pages: u64,
    clean_dropped_pages: u64,
    pad_read_pages: u64,
    total_response_ns: u128,
    max_response_ns: u64,
    overhead_samples: u64,
    metadata_bytes_sum: u128,
    node_count_sum: u128,
    flash: OpCounters,
    ftl: FtlStats,
}

/// Run the scenario twice from scratch and require bit-identical output
/// before snapshotting it.
fn run_twice(cfg: &SimConfig, source: &TraceSource) -> Golden {
    let requests = source.requests().unwrap();
    let a = replay(cfg, requests.iter().copied(), &mut NoopRecorder);
    let b = replay(cfg, requests.iter().copied(), &mut NoopRecorder);
    assert_eq!(a.metrics, b.metrics, "fresh instances must agree exactly");
    assert_eq!(a.flash, b.flash);
    assert_eq!(a.ftl, b.ftl);
    let m = a.metrics;
    Golden {
        requests: m.requests,
        read_reqs: m.read_reqs,
        write_reqs: m.write_reqs,
        read_pages: m.read_pages,
        write_pages: m.write_pages,
        read_hits: m.read_hits,
        write_hits: m.write_hits,
        evictions: m.evictions,
        evicted_pages: m.evicted_pages,
        clean_dropped_pages: m.clean_dropped_pages,
        pad_read_pages: m.pad_read_pages,
        total_response_ns: m.total_response_ns,
        max_response_ns: m.max_response_ns,
        overhead_samples: m.overhead_samples,
        metadata_bytes_sum: m.metadata_bytes_sum,
        node_count_sum: m.node_count_sum,
        flash: a.flash,
        ftl: a.ftl,
    }
}

/// Paper-scale device: 16 MB cache on the Table 1 SSD. At trace scale 0.05
/// the working set overflows the cache, so evictions, downgraded-block
/// merging, and flash programs all fire.
#[test]
fn reqblock_golden_paper_device() {
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::ReqBlock(ReqBlockConfig::paper()));
    let source = TraceSource::Synthetic(ts_0().scaled(0.05));
    let got = run_twice(&cfg, &source);
    let want = Golden {
        requests: 90_086,
        read_reqs: 15_887,
        write_reqs: 74_199,
        read_pages: 35_692,
        write_pages: 148_515,
        read_hits: 22_920,
        write_hits: 129_568,
        evictions: 1_626,
        evicted_pages: 14_863,
        clean_dropped_pages: 0,
        pad_read_pages: 0,
        total_response_ns: 3_551_149_040,
        max_response_ns: 8_204_800,
        overhead_samples: 91,
        metadata_bytes_sum: 5_364_096,
        node_count_sum: 167_628,
        flash: OpCounters {
            user_reads: 12_772,
            user_programs: 14_863,
            gc_reads: 0,
            gc_programs: 0,
            erases: 0,
        },
        ftl: FtlStats {
            gc_runs: 0,
            gc_migrated_pages: 0,
            gc_erased_blocks: 0,
            unmapped_reads: 9_337,
        },
    };
    assert_eq!(got, want, "paper-device golden baseline drifted");
}

/// Pressured device: a 64-page cache on an SSD whose flash array barely
/// fits the trace footprint (14 500 pages into 16 384), so garbage
/// collection runs and the GC counters are pinned as well.
#[test]
fn reqblock_golden_pressured_device_with_gc() {
    let mut ssd = reqblock::flash::SsdConfig::paper();
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    // 2 chips x 128 blocks x 64 pages = 16 384 pages of 4 KB.
    ssd.capacity_bytes = 16_384 * ssd.page_size;
    let cfg = SimConfig {
        ssd,
        cache_pages: 64,
        policy: PolicyKind::ReqBlock(ReqBlockConfig::paper()),
        overhead_sample_every: 1_000,
        sampling: reqblock::sim::SampleInterval::Off,
        fault: reqblock::flash::FaultConfig::default(),
        submit: reqblock::sim::SubmitMode::default(),
        attr: None,
    };
    let source = TraceSource::Synthetic(ts_0().scaled(0.01));
    let got = run_twice(&cfg, &source);
    assert!(got.ftl.gc_runs > 0, "pressured device must garbage-collect");
    let want = Golden {
        requests: 18_017,
        read_reqs: 3_153,
        write_reqs: 14_864,
        read_pages: 7_006,
        write_pages: 29_517,
        read_hits: 1_285,
        write_hits: 7_871,
        evictions: 10_998,
        evicted_pages: 21_583,
        clean_dropped_pages: 0,
        pad_read_pages: 0,
        total_response_ns: 27_695_411_886,
        max_response_ns: 55_819_200,
        overhead_samples: 19,
        metadata_bytes_sum: 20_224,
        node_count_sum: 632,
        flash: OpCounters {
            user_reads: 5_721,
            user_programs: 21_583,
            gc_reads: 0,
            gc_programs: 0,
            erases: 108,
        },
        ftl: FtlStats {
            gc_runs: 108,
            gc_migrated_pages: 0,
            gc_erased_blocks: 108,
            unmapped_reads: 1_887,
        },
    };
    assert_eq!(got, want, "pressured-device golden baseline drifted");
}
