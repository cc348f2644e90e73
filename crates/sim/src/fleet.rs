//! Fleet orchestration: many independent simulated SSDs serving a blended
//! multi-tenant workload (DESIGN.md §7.5, streaming engine §7.6).
//!
//! The paper evaluates one drive at a time; a production deployment runs
//! *fleets* of drives behind a placement layer, and the numbers operators
//! care about — per-tenant p99/p999, the worst device in the fleet, what
//! one tenant's write bursts cost another tenant's read tail — only exist
//! at that scale. This module provides the smallest honest model of it:
//!
//! * A [`TenantMix`] describes the tenants: each [`TenantSpec`] names a
//!   workload profile (the calibrated Zipf/MSR synthetics or any
//!   [`WorkloadProfile`]), an open-loop [`ArrivalProcess`], and a seed.
//!   Each tenant's request stream is *defined* once — deterministic in
//!   `(profile, process, seed)`, independent of the device count and of
//!   every other tenant — so adding or removing a tenant never perturbs
//!   another tenant's arrivals.
//! * A [`Placement`] maps each tenant request to a device purely from
//!   `(tenant index, request sequence number, device count)` — no RNG, no
//!   load feedback — so the sharding is reproducible by construction.
//! * [`run_fleet`] simulates every device over its merged stream on the
//!   barrier-free task pool ([`run_task_pool`]) and aggregates per-device
//!   results into [`FleetMetrics`] in device order.
//!
//! # Streaming: memory O(devices), not O(devices x requests)
//!
//! No per-device shard is ever materialized. Each device's input is built
//! on the fly by [`device_stream`]: every tenant's stream is filtered to
//! the requests this device owns and the k tenant streams are merged by a
//! k-way loser tree in `(time_ns, tenant, seq)` order. Per-tenant arrival
//! times strictly increase, so each filtered stream is already sorted and
//! the merge emits exactly the order the reference materialize+sort
//! pipeline ([`shard_reference`], kept as the equivalence oracle and
//! bench baseline behind [`run_fleet_reference`]) produces.
//!
//! The cursors feeding the merge read each tenant's base request mix from
//! the shared trace cache ([`reqblock_trace::shared`]) and an arrival-time
//! schedule that [`run_fleet`] computes once per run: the arrival RNG is
//! strictly sequential, so the schedule is the one per-request artifact
//! devices cannot derive independently. Every device then strides directly
//! over the sequence numbers it owns (an arithmetic progression,
//! [`Placement::owned_seqs`]): O(own requests) per device, O(8 bytes x
//! total requests) shared.
//!
//! Device simulators are pooled: a worker pops a finished [`Ssd`] and
//! resets it to the fresh-device state instead of building one per
//! device. The reset keeps the FTL's materialized translation storage,
//! which follows the written footprint, so each worker allocates it once
//! for the largest footprint it serves. Peak memory is O(pool) +
//! O(devices) outcome slots — a thousand-device fleet fits where the old
//! pipeline needed two copies of every request.
//!
//! # Byte-identity at any thread count
//!
//! Every source of nondeterminism is pinned:
//!
//! 1. Tenant streams are deterministic in `(profile, process, seed)`
//!    ([`ArrivalProcess::rewrite`] and the per-run arrival schedules drive
//!    the same seeded xorshift64* sequence).
//! 2. Placement is a pure function of indices.
//! 3. Per-device merge order is the total order `(time_ns, tenant index,
//!    sequence number)` — a stable tie-break even when two tenants'
//!    arrivals collide on the nanosecond. The loser tree compares full
//!    keys, and keys are unique (the tenant index differs across
//!    cursors), so the merge has exactly one possible output.
//! 4. Devices are simulated independently on pooled simulators reset to
//!    the fresh-device state ([`Ssd::reset`] is observationally identical
//!    to [`Ssd::new`]; `tests/fleet.rs` pins this); workers only fill a
//!    dedicated `OnceLock` slot per device.
//! 5. Aggregation merges per-device histograms strictly in device order
//!    on the calling thread.
//!
//! The thread pool therefore only decides *when* each device is simulated
//! — and thereby which pooled simulator it reuses, which point 4 makes
//! irrelevant — never *what* any device computes or the order results are
//! merged: [`FleetMetrics`] is byte-identical at any `threads` value.
//! `tests/fleet.rs` pins the property (proptest across thread counts, plus a
//! streaming-vs-reference equivalence proptest) and a small-fleet golden.

use crate::config::SimConfig;
use crate::host::Ssd;
use crate::load::ArrivalProcess;
use crate::runner::{run_task_pool, Task};
use reqblock_obs::telemetry::to_jsonl;
use reqblock_obs::{Histogram, MemoryRecorder};
use reqblock_trace::shared;
use reqblock_trace::{Request, WorkloadProfile};
use std::sync::{Arc, Mutex, OnceLock};

/// One tenant of the fleet: a named request stream with its own arrival
/// process and seed.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (`"web"`, `"batch"`, ...).
    pub name: String,
    /// The request mix: ops, addresses, sizes. Arrival times are replaced
    /// by `process`, so only the mix matters here.
    pub profile: WorkloadProfile,
    /// Open-loop arrival process re-timing the profile's requests.
    pub process: ArrivalProcess,
    /// Seed of this tenant's arrival RNG. Independent per tenant: two
    /// tenants never share a generator, so removing one cannot shift
    /// another's arrivals.
    pub seed: u64,
}

impl TenantSpec {
    /// This tenant's whole request stream: the profile's shared synthetic
    /// trace re-timed by the arrival process. Deterministic in
    /// `(profile, process, seed)`. Kept for the reference pipeline and
    /// callers that want the whole stream at once.
    pub fn stream(&self) -> Vec<Request> {
        self.process.rewrite(&shared::synthetic(&self.profile), self.seed)
    }
}

/// The blended tenant population offered to the fleet.
#[derive(Debug, Clone, Default)]
pub struct TenantMix {
    /// The tenants, in a fixed order; the index into this vector is the
    /// tenant's identity everywhere (placement, metrics, exclusion).
    pub tenants: Vec<TenantSpec>,
}

impl TenantMix {
    /// A mix over the given tenants.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self { tenants }
    }

    /// Every tenant's stream materialized, index-aligned with
    /// [`TenantMix::tenants`]. Reference-pipeline input; the streaming
    /// engine never calls this.
    pub fn streams(&self) -> Vec<Vec<Request>> {
        self.tenants.iter().map(TenantSpec::stream).collect()
    }
}

/// Deterministic map from a tenant request to a device. Placement is a
/// pure function of `(tenant, sequence number, device count)`: no RNG and
/// no load feedback, so the same mix always shards identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every tenant's requests round-robin over **all** devices: request
    /// `k` of any tenant lands on device `k % devices`. Maximum spreading,
    /// maximum inter-tenant contact.
    Striped,
    /// Each tenant owns a group of `devices_per_tenant` consecutive
    /// devices starting at `tenant * devices_per_tenant` (mod the device
    /// count) and round-robins within its group. Tenants collide only when
    /// the groups wrap — packing isolates tenants when the fleet is large
    /// enough and degrades gracefully (sharing) when it is not.
    Packed {
        /// Devices in each tenant's group (clamped to `1..=devices`).
        devices_per_tenant: usize,
    },
}

impl Placement {
    /// The device that serves request `seq` of tenant `tenant` in a fleet
    /// of `devices` devices.
    pub fn device_for(&self, tenant: usize, seq: usize, devices: usize) -> usize {
        debug_assert!(devices > 0);
        match *self {
            Placement::Striped => seq % devices,
            Placement::Packed { devices_per_tenant } => {
                let group = devices_per_tenant.clamp(1, devices);
                (tenant * group + seq % group) % devices
            }
        }
    }

    /// The sequence numbers of `tenant`'s requests that `device` serves,
    /// as an arithmetic progression `(first, step)` — or `None` when the
    /// device serves none of them. Both placements route each tenant
    /// cyclically, so per `(tenant, device)` the owned set is always a
    /// single stride; this is what lets a device's merge cursor step
    /// straight from one owned request to the next instead of scanning
    /// (and filtering) the whole tenant stream.
    ///
    /// Equivalent to [`Placement::device_for`] by construction:
    /// `device_for(tenant, seq, devices) == device` iff
    /// `seq = first + i * step` for some `i >= 0`.
    pub fn owned_seqs(&self, tenant: usize, devices: usize, device: usize) -> Option<(usize, usize)> {
        debug_assert!(device < devices);
        match *self {
            Placement::Striped => Some((device, devices)),
            Placement::Packed { devices_per_tenant } => {
                let group = devices_per_tenant.clamp(1, devices);
                // device_for = (start + seq % group) % devices, so the
                // owned residue r solves (start + r) % devices == device —
                // unique (r < group <= devices) and owned iff r < group.
                let start = (tenant * group) % devices;
                let r = (device + devices - start) % devices;
                (r < group).then_some((r, group))
            }
        }
    }

    /// Short stable name for labels (`"striped"` / `"packed"`).
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Striped => "striped",
            Placement::Packed { .. } => "packed",
        }
    }
}

/// The fleet itself: one [`SimConfig`] per device plus the placement map.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// One configuration per device — each device may have its own
    /// geometry, policy, cache size, submit mode, and fault config. Use
    /// [`FleetConfig::uniform`] for the common identical-hardware case.
    pub devices: Vec<SimConfig>,
    /// How tenant requests are sharded onto devices.
    pub placement: Placement,
    /// When set, every device records its run into a [`MemoryRecorder`]
    /// and its aggregate telemetry (counters, gauges, spans, series) is
    /// returned as one JSONL document per device in
    /// [`FleetResult::telemetry`], tagged with the device index — ready
    /// for a rotating [`reqblock_obs::TelemetryWriter`].
    pub telemetry: bool,
}

impl FleetConfig {
    /// A fleet of `devices` identical drives built from `template`, striped
    /// placement. When the template injects faults, each device's fault
    /// seed is offset by its index so fault streams decorrelate across the
    /// fleet (a real fleet does not fail in lockstep) while staying fully
    /// deterministic.
    pub fn uniform(devices: usize, template: SimConfig) -> Self {
        assert!(devices > 0, "a fleet needs at least one device");
        let devices = (0..devices)
            .map(|i| {
                let mut cfg = template.clone();
                cfg.fault.seed = cfg.fault.seed.wrapping_add(i as u64);
                cfg
            })
            .collect();
        Self { devices, placement: Placement::Striped, telemetry: false }
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }
}

/// Execution knobs that cannot affect simulation output.
#[derive(Debug, Clone)]
pub struct FleetControl {
    /// Worker threads for the device pool; `1` is the explicit serial
    /// mode. Results are byte-identical at every value.
    pub threads: usize,
}

impl FleetControl {
    /// `threads` workers.
    pub fn threads(threads: usize) -> Self {
        Self { threads }
    }
}

/// Fleet-wide response statistics for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name, copied from the [`TenantSpec`].
    pub name: String,
    /// Requests this tenant completed across the whole fleet.
    pub requests: u64,
    /// Response-time histogram (ns) merged across every device, latency
    /// preset shape.
    pub hist: Histogram,
}

impl TenantStats {
    /// Response quantile upper bound in milliseconds (`None` when the
    /// tenant completed no requests).
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        self.hist.quantile_upper(q).map(|ns| ns as f64 / 1e6)
    }
}

/// One device's contribution to the fleet aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSummary {
    /// Requests this device served.
    pub requests: u64,
    /// p99 response upper bound on this device, ns (0 when idle).
    pub p99_ns: u64,
}

/// Aggregated fleet results: per-tenant and fleet-wide response
/// distributions plus per-device tails. Built by merging per-device
/// histograms in device order, so it is byte-identical at any thread
/// count (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Per-tenant stats, index-aligned with the [`TenantMix`].
    pub per_tenant: Vec<TenantStats>,
    /// Every response across every tenant and device.
    pub fleet: Histogram,
    /// Per-device summaries, device order.
    pub per_device: Vec<DeviceSummary>,
}

impl FleetMetrics {
    /// Devices in the fleet.
    pub fn devices(&self) -> usize {
        self.per_device.len()
    }

    /// Fleet-wide response quantile upper bound in milliseconds (0 when
    /// the fleet served nothing).
    pub fn fleet_percentile_ms(&self, q: f64) -> f64 {
        self.fleet.quantile_upper(q).unwrap_or(0) as f64 / 1e6
    }

    /// The worst single-device p99 in the fleet, ns.
    pub fn worst_device_p99_ns(&self) -> u64 {
        self.per_device.iter().map(|d| d.p99_ns).max().unwrap_or(0)
    }

    /// [`FleetMetrics::worst_device_p99_ns`] in milliseconds.
    pub fn worst_device_p99_ms(&self) -> f64 {
        self.worst_device_p99_ns() as f64 / 1e6
    }
}

/// Everything one fleet run produces.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The deterministic aggregate (compare this across thread counts).
    pub metrics: FleetMetrics,
    /// One telemetry JSONL document per device when
    /// [`FleetConfig::telemetry`] is set (device order), else empty.
    pub telemetry: Vec<String>,
}

/// What one device's worker computes before aggregation.
struct DeviceOutcome {
    per_tenant: Vec<Histogram>,
    all: Histogram,
    requests: u64,
    telemetry: Option<String>,
}

/// The per-tenant inputs one fleet run shares across every device task:
/// the immutable base request mix and the tenant's arrival-time schedule.
/// Computed once per run — the arrival RNG is strictly sequential, so the
/// schedule is the one per-request artifact that cannot be generated
/// independently per device; 8 bytes per request buys every device an
/// O(own requests) stride instead of an O(total requests) regeneration.
struct SharedTenant {
    /// The tenant's base request mix (the shared trace-cache slice).
    base: Arc<[Request]>,
    /// `times[k]` is the `time_ns` the tenant's [`ArrivalTimer`] assigns
    /// to request `k` — byte-identical to [`TenantSpec::stream`], because
    /// both drive the same seeded timer.
    ///
    /// [`ArrivalTimer`]: crate::load::ArrivalTimer
    times: Arc<[u64]>,
}

/// Build every tenant's [`SharedTenant`] for one fleet run.
fn shared_tenants(mix: &TenantMix) -> Vec<SharedTenant> {
    mix.tenants
        .iter()
        .map(|spec| {
            let base = shared::synthetic(&spec.profile);
            let mut timer = spec.process.timer(spec.seed);
            // Collected over a counted range: one allocation, no copy.
            let times = (0..base.len()).map(|_| timer.next_arrival_ns()).collect();
            SharedTenant { base, times }
        })
        .collect()
}

/// One tenant's placement-filtered stream for a single device: strided
/// reads over the run's [`SharedTenant`] plus a one-element lookahead
/// (`head`) holding the next request destined for the device. The owned
/// sequence numbers form an arithmetic progression
/// ([`Placement::owned_seqs`]), so the cursor jumps straight from one
/// owned request to the next: O(own requests) CPU per device.
struct TenantCursor {
    base: Arc<[Request]>,
    times: Arc<[u64]>,
    /// Next owned sequence number.
    next: usize,
    /// Stride between owned sequence numbers.
    step: usize,
    /// Tenant index in the mix — the merge tie-break key.
    tenant: u32,
    /// Next `(seq, request)` of this tenant routed to the device.
    head: Option<(u32, Request)>,
}

impl TenantCursor {
    fn new(st: &SharedTenant, tenant: u32, first: usize, step: usize) -> Self {
        let mut cursor = Self {
            base: st.base.clone(),
            times: st.times.clone(),
            next: first,
            step,
            tenant,
            head: None,
        };
        cursor.advance();
        cursor
    }

    /// Advance to this tenant's next request placed on the device.
    fn advance(&mut self) {
        self.head = None;
        if let Some(r) = self.base.get(self.next) {
            self.head = Some((self.next as u32, Request { time_ns: self.times[self.next], ..*r }));
            self.next += self.step;
            self.prefetch_next();
        }
    }

    /// Hint that the next owned request is about to be read. Owned
    /// requests sit a device count apart, so on a large fleet each
    /// `advance` misses the cache twice (`base` and `times`); issuing the
    /// loads one stride early overlaps them with the device's work on the
    /// current request. Purely a cache hint, no architectural effect.
    #[inline]
    fn prefetch_next(&self) {
        #[cfg(target_arch = "x86_64")]
        if let (Some(r), Some(t)) = (self.base.get(self.next), self.times.get(self.next)) {
            // SAFETY: prefetch has no architectural effect; the pointers
            // come from live references and are never dereferenced.
            unsafe {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch((r as *const Request).cast::<i8>(), _MM_HINT_T0);
                _mm_prefetch((t as *const u64).cast::<i8>(), _MM_HINT_T0);
            }
        }
    }

    /// Merge key `(time_ns, tenant, seq)`; `None` once exhausted. Keys
    /// are unique across live cursors (the tenant component differs), so
    /// comparisons never tie.
    fn key(&self) -> Option<(u64, u32, u32)> {
        self.head.as_ref().map(|&(seq, ref r)| (r.time_ns, self.tenant, seq))
    }
}

/// Does cursor `a` currently beat (sort before) cursor `b`? Exhausted
/// cursors lose to everything.
fn beats(cursors: &[TenantCursor], a: u32, b: u32) -> bool {
    match (cursors[a as usize].key(), cursors[b as usize].key()) {
        (Some(x), Some(y)) => x < y,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// K-way loser tree over [`TenantCursor`]s: a tournament tree whose
/// internal nodes store the *loser* of the match played there and whose
/// root slot holds the overall winner. Popping the winner replays only
/// the winner's root path — O(log k) comparisons per request instead of
/// the O(k) of a naive min-scan — which is what keeps the merge cheap
/// when a mix has many tenants.
///
/// Layout: implicit array heap with `k` leaves. `node[0]` is the winner;
/// `node[1..k]` are internal losers; positions `k..2k` are the leaves
/// (cursor index `pos - k`); the children of internal node `j` are
/// positions `2j` and `2j + 1`.
struct LoserTree {
    node: Vec<u32>,
}

impl LoserTree {
    /// Play the full tournament over the cursors' current keys.
    fn new(cursors: &[TenantCursor]) -> Self {
        let k = cursors.len();
        assert!(k > 0, "loser tree needs at least one cursor");
        if k == 1 {
            return Self { node: vec![0] };
        }
        let mut node = vec![u32::MAX; k];
        // winners[j] = winner of the subtree rooted at position j.
        let mut winners = vec![u32::MAX; 2 * k];
        for (i, w) in winners.iter_mut().skip(k).enumerate() {
            *w = i as u32;
        }
        for j in (1..k).rev() {
            let (a, b) = (winners[2 * j], winners[2 * j + 1]);
            let (w, l) = if beats(cursors, a, b) { (a, b) } else { (b, a) };
            winners[j] = w;
            node[j] = l;
        }
        node[0] = winners[1];
        Self { node }
    }

    /// The cursor holding the smallest current key.
    fn winner(&self) -> u32 {
        self.node[0]
    }

    /// Re-run the matches on cursor `w`'s root path after its key changed
    /// (it was popped and advanced). Every other path is untouched.
    fn replay(&mut self, cursors: &[TenantCursor], w: u32) {
        let k = cursors.len();
        if k == 1 {
            return;
        }
        let mut winner = w;
        let mut pos = (w as usize + k) / 2;
        while pos >= 1 {
            let rival = self.node[pos];
            if beats(cursors, rival, winner) {
                self.node[pos] = winner;
                winner = rival;
            }
            pos /= 2;
        }
        self.node[0] = winner;
    }
}

/// The streaming merged input for one device: every tenant's
/// placement-filtered stream merged by a k-way loser tree in
/// `(time_ns, tenant, seq)` order — exactly the order the reference
/// materialize+sort pipeline ([`shard_reference`]) produces, without ever
/// building a shard. Yields `(request, tenant index)`.
pub struct DeviceStream {
    cursors: Vec<TenantCursor>,
    tree: Option<LoserTree>,
}

/// Build the [`DeviceStream`] for `device` of a `devices`-wide fleet over
/// `mix`, with `exclude`'s stream withheld (its tenant index is skipped,
/// every other tenant's cursor is unchanged — the noisy-neighbor
/// contract). Public so equivalence tests and tools can inspect the
/// merged order directly; it computes the mix's arrival schedules on
/// every call, which [`run_fleet`] does once per run instead.
pub fn device_stream(
    mix: &TenantMix,
    placement: Placement,
    devices: usize,
    device: usize,
    exclude: Option<usize>,
) -> DeviceStream {
    merge_device(&shared_tenants(mix), placement, devices, device, exclude)
}

/// [`device_stream`] over a run's precomputed [`SharedTenant`]s: cursors
/// stride directly over their owned sequence numbers
/// ([`Placement::owned_seqs`]), so building and draining the stream costs
/// O(this device's requests), not O(the fleet's).
fn merge_device(
    tenants: &[SharedTenant],
    placement: Placement,
    devices: usize,
    device: usize,
    exclude: Option<usize>,
) -> DeviceStream {
    assert!(device < devices, "device index out of range");
    let cursors: Vec<TenantCursor> = tenants
        .iter()
        .enumerate()
        .filter(|&(t, _)| exclude != Some(t))
        .filter_map(|(t, st)| {
            // Tenants with no residue on this device contribute nothing.
            let (first, step) = placement.owned_seqs(t, devices, device)?;
            Some(TenantCursor::new(st, t as u32, first, step))
        })
        .collect();
    let tree = (!cursors.is_empty()).then(|| LoserTree::new(&cursors));
    DeviceStream { cursors, tree }
}

impl Iterator for DeviceStream {
    type Item = (Request, u32);

    fn next(&mut self) -> Option<(Request, u32)> {
        let tree = self.tree.as_mut()?;
        let w = tree.winner();
        let cursor = &mut self.cursors[w as usize];
        let (_, req) = cursor.head.take()?;
        let tenant = cursor.tenant;
        cursor.advance();
        tree.replay(&self.cursors, w);
        Some((req, tenant))
    }
}

/// Reference pipeline: shard every materialized tenant stream onto
/// devices and return each device's merged stream as `(request, tenant
/// index)` in simulation order — sorted by `(time_ns, tenant, seq)`, a
/// total order, so the merge is unambiguous even when arrivals collide on
/// the nanosecond. Memory O(total requests); kept as the oracle the
/// streaming [`device_stream`] is tested and benchmarked against.
pub fn shard_reference(
    streams: &[Vec<Request>],
    placement: Placement,
    devices: usize,
    exclude: Option<usize>,
) -> Vec<Vec<(Request, u32)>> {
    let mut per_device: Vec<Vec<(Request, u32, u32)>> = vec![Vec::new(); devices];
    for (tenant, stream) in streams.iter().enumerate() {
        if exclude == Some(tenant) {
            continue;
        }
        for (seq, req) in stream.iter().enumerate() {
            let d = placement.device_for(tenant, seq, devices);
            per_device[d].push((*req, tenant as u32, seq as u32));
        }
    }
    per_device
        .into_iter()
        .map(|mut v| {
            v.sort_unstable_by_key(|&(req, tenant, seq)| (req.time_ns, tenant, seq));
            v.into_iter().map(|(req, tenant, _)| (req, tenant)).collect()
        })
        .collect()
}

/// Simulate one device over its merged `(request, tenant)` input. Shared
/// by the streaming and reference pipelines, so past the input transport
/// the two are equal by construction.
fn simulate_device(
    ssd: &mut Ssd,
    input: impl Iterator<Item = (Request, u32)>,
    tenants: usize,
    telemetry: bool,
    idx: usize,
    devices: usize,
    placement: Placement,
) -> DeviceOutcome {
    let mut per_tenant = vec![Histogram::latency(); tenants];
    let mut all = Histogram::latency();
    let mut rec = telemetry.then(MemoryRecorder::default);
    for (req, tenant) in input {
        let response = match &mut rec {
            Some(rec) => ssd.submit_recorded(&req, rec),
            None => ssd.submit(&req),
        };
        per_tenant[tenant as usize].record(response);
        all.record(response);
    }
    let telemetry = rec.map(|mut rec| {
        ssd.finish_recording(&mut rec);
        to_jsonl(
            &rec,
            &[
                ("experiment", "fleet".into()),
                ("device", idx.to_string()),
                ("devices", devices.to_string()),
                ("placement", placement.name().into()),
            ],
        )
    });
    DeviceOutcome { per_tenant, requests: all.count(), all, telemetry }
}

/// Aggregate per-device outcomes strictly in device order on the calling
/// thread — thread-count invariance lives here. Histograms merge
/// streamingly (bucket-wise sums), so grouping by device cannot change
/// any total.
fn aggregate(mix: &TenantMix, slots: Vec<OnceLock<DeviceOutcome>>) -> FleetResult {
    let mut per_tenant: Vec<TenantStats> = mix
        .tenants
        .iter()
        .map(|t| TenantStats { name: t.name.clone(), requests: 0, hist: Histogram::latency() })
        .collect();
    let mut fleet = Histogram::latency();
    let mut per_device = Vec::with_capacity(slots.len());
    let mut telemetry = Vec::new();
    for slot in slots {
        let outcome = slot.into_inner().expect("every fleet device must finish");
        for (stats, h) in per_tenant.iter_mut().zip(&outcome.per_tenant) {
            stats.hist.merge(h);
            stats.requests += h.count();
        }
        fleet.merge(&outcome.all);
        per_device.push(DeviceSummary {
            requests: outcome.requests,
            p99_ns: outcome.all.quantile_upper(0.99).unwrap_or(0),
        });
        if let Some(doc) = outcome.telemetry {
            telemetry.push(doc);
        }
    }
    FleetResult { metrics: FleetMetrics { per_tenant, fleet, per_device }, telemetry }
}

/// Run the fleet: every device simulated independently over its streaming
/// merged input, aggregated into [`FleetMetrics`] in device order. See
/// the module docs for the determinism argument.
pub fn run_fleet(cfg: &FleetConfig, mix: &TenantMix, ctl: &FleetControl) -> FleetResult {
    run_fleet_excluding(cfg, mix, None, ctl)
}

/// [`run_fleet`] with one tenant's stream withheld. Crucially the excluded
/// tenant keeps its index: every other tenant's stream, seed, and
/// placement slots are bit-identical to the full run, so comparing the
/// two isolates interference. The excluded tenant appears in the result
/// with zero requests.
pub fn run_fleet_excluding(
    cfg: &FleetConfig,
    mix: &TenantMix,
    exclude: Option<usize>,
    ctl: &FleetControl,
) -> FleetResult {
    let devices = cfg.device_count();
    assert!(devices > 0, "a fleet needs at least one device");
    let tenants = mix.tenants.len();

    // Pooled simulators: a worker pops a finished Ssd and resets it
    // instead of building one per device, so the pool never holds more
    // simulators than there are workers.
    let pool: Mutex<Vec<Ssd>> = Mutex::new(Vec::new());
    // The base mixes are materialized process-wide by the trace cache;
    // share the arrival schedules too and let every device stride over its
    // owned requests (O(own) per device).
    let tenant_shared = shared_tenants(mix);
    let slots: Vec<OnceLock<DeviceOutcome>> = (0..devices).map(|_| OnceLock::new()).collect();
    let tasks: Vec<Task<'_>> = cfg
        .devices
        .iter()
        .zip(&slots)
        .enumerate()
        .map(|(idx, (dev_cfg, slot))| {
            let pool = &pool;
            let tenant_shared = &tenant_shared;
            Task::new(format!("fleet/device{idx}"), move || {
                let pooled = pool.lock().unwrap().pop();
                let mut ssd = match pooled {
                    Some(mut s) => {
                        s.reset(dev_cfg.clone());
                        s
                    }
                    None => Ssd::new(dev_cfg.clone()),
                };
                let input = merge_device(tenant_shared, cfg.placement, devices, idx, exclude);
                let outcome = simulate_device(
                    &mut ssd,
                    input,
                    tenants,
                    cfg.telemetry,
                    idx,
                    devices,
                    cfg.placement,
                );
                pool.lock().unwrap().push(ssd);
                let ok = slot.set(outcome).is_ok();
                debug_assert!(ok, "fleet device slot filled twice");
            })
        })
        .collect();
    run_task_pool(tasks, ctl.threads);
    aggregate(mix, slots)
}

/// [`run_fleet`] on the reference materialize+sort pipeline with a fresh
/// [`Ssd`] per device — memory O(total requests × 2). Kept as the
/// equivalence oracle (the streaming engine must match it byte for byte;
/// `tests/fleet.rs` pins this) and as the baseline the bench gate
/// measures the streaming engine against.
pub fn run_fleet_reference(cfg: &FleetConfig, mix: &TenantMix, ctl: &FleetControl) -> FleetResult {
    run_fleet_reference_excluding(cfg, mix, None, ctl)
}

/// [`run_fleet_reference`] with one tenant's stream withheld — the
/// reference counterpart of [`run_fleet_excluding`].
pub fn run_fleet_reference_excluding(
    cfg: &FleetConfig,
    mix: &TenantMix,
    exclude: Option<usize>,
    ctl: &FleetControl,
) -> FleetResult {
    let devices = cfg.device_count();
    assert!(devices > 0, "a fleet needs at least one device");
    let streams = mix.streams();
    let shards = shard_reference(&streams, cfg.placement, devices, exclude);
    let tenants = mix.tenants.len();

    let slots: Vec<OnceLock<DeviceOutcome>> = (0..devices).map(|_| OnceLock::new()).collect();
    let tasks: Vec<Task<'_>> = cfg
        .devices
        .iter()
        .zip(&shards)
        .zip(&slots)
        .enumerate()
        .map(|(idx, ((dev_cfg, stream), slot))| {
            Task::new(format!("fleet/device{idx}"), move || {
                let mut ssd = Ssd::new(dev_cfg.clone());
                let outcome = simulate_device(
                    &mut ssd,
                    stream.iter().copied(),
                    tenants,
                    cfg.telemetry,
                    idx,
                    devices,
                    cfg.placement,
                );
                let ok = slot.set(outcome).is_ok();
                debug_assert!(ok, "fleet device slot filled twice");
            })
        })
        .collect();
    run_task_pool(tasks, ctl.threads);
    aggregate(mix, slots)
}

/// The noisy-neighbor experiment: the same fleet run with and without one
/// antagonist tenant ([`run_fleet`] and [`run_fleet_excluding`]), same
/// seeds and placement for everyone else, so the per-tenant p99 delta
/// isolates interference, not RNG drift.
#[derive(Debug, Clone)]
pub struct NoisyNeighbor {
    /// The full mix, antagonist included.
    pub loaded: FleetMetrics,
    /// The mix with the antagonist's stream withheld (its tenant slot
    /// remains, with zero requests).
    pub solo: FleetMetrics,
    /// Index of the antagonist tenant in the mix.
    pub antagonist: usize,
}

impl NoisyNeighbor {
    /// How much the antagonist adds to `tenant`'s p99, in milliseconds
    /// (loaded minus solo). `None` for the antagonist itself and for
    /// tenants with no completed requests in either run.
    pub fn p99_delta_ms(&self, tenant: usize) -> Option<f64> {
        if tenant == self.antagonist {
            return None;
        }
        let loaded = self.loaded.per_tenant.get(tenant)?.percentile_ms(0.99)?;
        let solo = self.solo.per_tenant.get(tenant)?.percentile_ms(0.99)?;
        Some(loaded - solo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheSizeMb, PolicyKind};
    use reqblock_flash::FaultConfig;
    use reqblock_trace::profiles::{proj_0, ts_0};

    fn tiny_mix() -> TenantMix {
        TenantMix::new(vec![
            TenantSpec {
                name: "victim".into(),
                profile: ts_0().scaled(0.002),
                process: ArrivalProcess::poisson_rate(50_000.0),
                seed: 11,
            },
            TenantSpec {
                name: "antagonist".into(),
                profile: proj_0().scaled(0.002),
                process: ArrivalProcess::Bursty {
                    mean_interarrival_ns: 20_000,
                    burst_len: 32,
                    peak_to_mean: 8,
                },
                seed: 22,
            },
        ])
    }

    fn tiny_fleet(devices: usize) -> FleetConfig {
        FleetConfig::uniform(devices, SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru))
    }

    #[test]
    fn striped_placement_round_robins_over_all_devices() {
        let p = Placement::Striped;
        let hits: Vec<usize> = (0..8).map(|seq| p.device_for(3, seq, 4)).collect();
        assert_eq!(hits, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn packed_placement_confines_each_tenant_to_its_group() {
        let p = Placement::Packed { devices_per_tenant: 2 };
        for seq in 0..10 {
            assert!([0, 1].contains(&p.device_for(0, seq, 4)));
            assert!([2, 3].contains(&p.device_for(1, seq, 4)));
            // Third tenant wraps onto the first group.
            assert!([0, 1].contains(&p.device_for(2, seq, 4)));
        }
        // Group size clamps to the fleet.
        let wide = Placement::Packed { devices_per_tenant: 99 };
        let devs: std::collections::BTreeSet<usize> =
            (0..12).map(|seq| wide.device_for(0, seq, 3)).collect();
        assert_eq!(devs.len(), 3, "clamped group must still use every device");
    }

    #[test]
    fn owned_seqs_agrees_with_device_for_everywhere() {
        let placements = [
            Placement::Striped,
            Placement::Packed { devices_per_tenant: 1 },
            Placement::Packed { devices_per_tenant: 2 },
            Placement::Packed { devices_per_tenant: 3 },
            Placement::Packed { devices_per_tenant: 99 },
        ];
        for p in placements {
            for devices in 1..=6 {
                for tenant in 0..5 {
                    for device in 0..devices {
                        let owned: Vec<usize> = (0..48)
                            .filter(|&seq| p.device_for(tenant, seq, devices) == device)
                            .collect();
                        let strided: Vec<usize> = match p.owned_seqs(tenant, devices, device) {
                            Some((first, step)) => {
                                (first..48).step_by(step.max(1)).collect()
                            }
                            None => Vec::new(),
                        };
                        assert_eq!(
                            owned, strided,
                            "{p:?} tenant {tenant} device {device}/{devices}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_is_deterministic_and_thread_invariant() {
        let cfg = tiny_fleet(3);
        let mix = tiny_mix();
        let serial = run_fleet(&cfg, &mix, &FleetControl::threads(1));
        let parallel = run_fleet(&cfg, &mix, &FleetControl::threads(4));
        assert_eq!(serial.metrics, parallel.metrics);
        let again = run_fleet(&cfg, &mix, &FleetControl::threads(4));
        assert_eq!(parallel.metrics, again.metrics);
    }

    #[test]
    fn excluding_the_antagonist_keeps_victim_slots_and_zeroes_its_traffic() {
        let cfg = tiny_fleet(4);
        let mix = tiny_mix();
        let ctl = FleetControl::threads(2);
        let nn = NoisyNeighbor {
            loaded: run_fleet(&cfg, &mix, &ctl).metrics,
            solo: run_fleet_excluding(&cfg, &mix, Some(1), &ctl).metrics,
            antagonist: 1,
        };
        // Tenant slots persist in both runs.
        assert_eq!(nn.loaded.per_tenant.len(), 2);
        assert_eq!(nn.solo.per_tenant.len(), 2);
        assert_eq!(nn.solo.per_tenant[1].requests, 0, "withheld tenant serves nothing");
        // The victim completes the same number of requests either way —
        // interference changes response times, never the request stream.
        assert_eq!(nn.loaded.per_tenant[0].requests, nn.solo.per_tenant[0].requests);
        assert!(nn.loaded.per_tenant[0].requests > 0);
        // The antagonist's own delta is undefined by construction.
        assert!(nn.p99_delta_ms(1).is_none());
        assert!(nn.p99_delta_ms(0).is_some());
    }

    #[test]
    fn sharding_covers_every_request_exactly_once() {
        let mix = tiny_mix();
        let streams = mix.streams();
        let total: usize = streams.iter().map(Vec::len).sum();
        for placement in [Placement::Striped, Placement::Packed { devices_per_tenant: 2 }] {
            let shards = shard_reference(&streams, placement, 4, None);
            assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), total);
            for dev in &shards {
                let mut prev = 0;
                for (req, _) in dev {
                    assert!(req.time_ns >= prev, "device stream must stay time-ordered");
                    prev = req.time_ns;
                }
            }
        }
    }

    #[test]
    fn device_stream_matches_shard_reference_everywhere() {
        let mix = tiny_mix();
        let streams = mix.streams();
        for placement in [Placement::Striped, Placement::Packed { devices_per_tenant: 2 }] {
            for devices in [1usize, 3, 4] {
                for exclude in [None, Some(0), Some(1)] {
                    let shards = shard_reference(&streams, placement, devices, exclude);
                    for (device, want) in shards.iter().enumerate() {
                        let got: Vec<(Request, u32)> =
                            device_stream(&mix, placement, devices, device, exclude).collect();
                        assert_eq!(
                            &got, want,
                            "merge drifted: {placement:?} {devices} devices, \
                             device {device}, exclude {exclude:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn device_stream_over_empty_mix_is_empty() {
        let mix = TenantMix::default();
        assert_eq!(device_stream(&mix, Placement::Striped, 2, 0, None).count(), 0);
        // Excluding the only tenant empties the stream too.
        let one = TenantMix::new(vec![tiny_mix().tenants.remove(0)]);
        assert_eq!(device_stream(&one, Placement::Striped, 1, 0, Some(0)).count(), 0);
    }

    #[test]
    fn streaming_fleet_matches_reference_pipeline() {
        let mut cfg = tiny_fleet(3);
        cfg.telemetry = true;
        cfg.placement = Placement::Packed { devices_per_tenant: 2 };
        let mix = tiny_mix();
        let ctl = FleetControl::threads(2);
        let streaming = run_fleet(&cfg, &mix, &ctl);
        let reference = run_fleet_reference(&cfg, &mix, &ctl);
        assert_eq!(streaming.metrics, reference.metrics);
        assert_eq!(streaming.telemetry, reference.telemetry);
        // And with a tenant withheld.
        let s2 = run_fleet_excluding(&cfg, &mix, Some(1), &ctl);
        let r2 = run_fleet_reference_excluding(&cfg, &mix, Some(1), &ctl);
        assert_eq!(s2.metrics, r2.metrics);
        assert_eq!(s2.telemetry, r2.telemetry);
    }

    #[test]
    fn telemetry_emits_one_document_per_device() {
        let mut cfg = tiny_fleet(3);
        cfg.telemetry = true;
        let result = run_fleet(&cfg, &tiny_mix(), &FleetControl::threads(2));
        assert_eq!(result.telemetry.len(), 3);
        for (i, doc) in result.telemetry.iter().enumerate() {
            assert!(doc.starts_with("{\"type\":\"run_meta\""), "doc must lead with meta");
            assert!(doc.contains(&format!("\"device\":\"{i}\"")), "device tag missing");
            assert!(doc.contains("\"key\":\"requests\""), "rollup counter missing");
        }
        // Telemetry capture must not perturb the simulation.
        let mut plain_cfg = tiny_fleet(3);
        plain_cfg.telemetry = false;
        let plain = run_fleet(&plain_cfg, &tiny_mix(), &FleetControl::threads(2));
        assert_eq!(plain.metrics, result.metrics);
    }

    #[test]
    fn uniform_fleet_offsets_fault_seeds_per_device() {
        let template = SimConfig::paper(CacheSizeMb::Mb16, PolicyKind::Lru)
            .with_faults(FaultConfig::with_rates(100, 1_000, 0, 0));
        let cfg = FleetConfig::uniform(3, template);
        let seeds: Vec<u64> = cfg.devices.iter().map(|d| d.fault.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102]);
    }

    #[test]
    fn fleet_metrics_accessors_cover_empty_and_loaded_cases() {
        let cfg = tiny_fleet(2);
        let m = run_fleet(&cfg, &tiny_mix(), &FleetControl::threads(1)).metrics;
        assert_eq!(m.devices(), 2);
        assert!(m.fleet_percentile_ms(0.99) > 0.0);
        assert!(m.worst_device_p99_ms() >= m.fleet_percentile_ms(0.5));
        let empty = run_fleet(&cfg, &TenantMix::default(), &FleetControl::threads(1)).metrics;
        assert_eq!(empty.fleet_percentile_ms(0.99), 0.0);
        assert_eq!(empty.worst_device_p99_ns(), 0);
        assert!(empty.per_tenant.is_empty());
    }
}
