//! The benchmark's workloads: inputs made from a seed, one untraced or
//! traced repetition, and the checks every repetition's output must pass.

use crate::layers::{traced_config, CoreProbe, CoreSample, ProbeCost, RouterProbe, RouterSample};
use crate::layers::{TracedRouter, TracedSink};
use llmsim_cluster::{
    shard_fleet, simulate_fleet, simulate_shards, simulate_shards_traced, ClusterConfig,
    ClusterRequest, FleetReport, FleetShard, JoinShortestQueue, KvConfig, PrefixAware,
    ReplicaConfig, RouterPolicy,
};
use llmsim_core::{CostModel, CpuBackend, StreamSink, TensorParallel};
use llmsim_isa::gemm::amx_gemm_bf16;
use llmsim_isa::{amx_gemm_bf16_parallel, AmxStats, Bf16, ParallelGemmResult};
use llmsim_model::families;
use llmsim_workload::synthetic::{synthesize, synthesize_sessions, SessionSpec, SyntheticSpec};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `service_day` on 8 SPR replicas, join-shortest-queue, serial replay.
    FleetSteady,
    /// `chat_day` sessions on the same fleet with paged KV, prefix-aware.
    FleetSessionsKv,
    /// `service_day` on 8 TP2 replicas, dealt into cells replayed on threads.
    FleetShardedTp,
    /// One square BF16 GEMM through the emulated multi-core AMX kernel.
    GemmEmulation,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists only the last two: the two
    /// serial fleet workloads stay runnable by name, but their throughput
    /// spread more from run to run on a shared host than the manifest's
    /// largest bound allows (see `README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetSessionsKv,
        Workload::FleetShardedTp,
        Workload::GemmEmulation,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetSessionsKv => "fleet_sessions_kv",
            Workload::FleetShardedTp => "fleet_sharded_tp",
            Workload::GemmEmulation => "gemm_emulation",
        }
    }

    /// The workload named `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the measured size, or a tiny one for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A tiny size with every check still on.
    Smoke,
}

impl Size {
    /// Requests in the `service_day` trace of `fleet_steady`.
    fn steady_requests(self) -> usize {
        match self {
            Size::Full => 6_000,
            Size::Smoke => 300,
        }
    }

    /// Sessions in the `chat_day` trace of `fleet_sessions_kv`.
    fn sessions(self) -> usize {
        match self {
            Size::Full => 1_000,
            Size::Smoke => 40,
        }
    }

    /// Requests in the `service_day` trace of `fleet_sharded_tp`.
    fn sharded_requests(self) -> usize {
        match self {
            Size::Full => 12_000,
            Size::Smoke => 400,
        }
    }

    /// Side of the square GEMM.
    fn gemm_n(self) -> usize {
        match self {
            Size::Full => 1024,
            Size::Smoke => 64,
        }
    }
}

/// Mean calm-phase arrival rate of the `service_day` traces (simulated
/// req/s; bursts run at 4x), as in the engine benchmark: eight SPR
/// replicas absorb the calm load and shed part of each burst.
const RATE_PER_S: f64 = 1.5;
/// Session-start rate of the `chat_day` trace (simulated sessions/s).
const SESSION_RATE_PER_S: f64 = 0.35;
/// Replicas per fleet (per cell on the sharded workload).
const REPLICAS: usize = 8;

/// Inputs of one fleet workload.
pub struct Fleet {
    /// Which fleet workload this is.
    pub workload: Workload,
    /// The fleet.
    pub config: ClusterConfig,
    /// The whole trace.
    pub requests: Vec<ClusterRequest>,
    /// The cells the trace is dealt into (sharded workload only).
    pub shards: Vec<FleetShard>,
    /// Worker threads (sharded workload only).
    pub threads: usize,
}

/// Operands of the GEMM workload.
pub struct Gemm {
    /// Left operand, `n x n` row-major.
    pub a: Vec<Bf16>,
    /// Right operand, `n x n` row-major.
    pub b: Vec<Bf16>,
    /// Side of the square matrices.
    pub n: usize,
    /// Emulated cores (one thread each).
    pub cores: usize,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// A fleet replay.
    Fleet(Box<Fleet>),
    /// A GEMM.
    Gemm(Gemm),
}

/// Generates `workload`'s inputs from `seed`, using `threads` host
/// threads where the workload is parallel. Returns the inputs and the
/// seconds spent synthesizing the trace or operands alone.
#[must_use]
pub fn setup(workload: Workload, size: Size, seed: u64, threads: usize) -> (Inputs, f64) {
    let t0 = Instant::now();
    match workload {
        Workload::FleetSteady => {
            let requests = service_day(seed, size.steady_requests());
            let synth_s = t0.elapsed().as_secs_f64();
            let config = fleet_config(Arc::new(CpuBackend::paper_spr()));
            (fleet(workload, config, requests, 1), synth_s)
        }
        Workload::FleetSessionsKv => {
            let requests = chat_day(seed, size.sessions());
            let synth_s = t0.elapsed().as_secs_f64();
            let config = fleet_config(Arc::new(CpuBackend::paper_spr())).with_kv(KvConfig::new());
            (fleet(workload, config, requests, 1), synth_s)
        }
        Workload::FleetShardedTp => {
            let requests = service_day(seed, size.sharded_requests());
            let synth_s = t0.elapsed().as_secs_f64();
            let tp2 = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2)
                .expect("degree 2 is valid for OPT-13B");
            (
                fleet(workload, fleet_config(Arc::new(tp2)), requests, threads),
                synth_s,
            )
        }
        Workload::GemmEmulation => {
            let n = size.gemm_n();
            let gemm = Gemm {
                a: operand(seed, n * n),
                b: operand(seed ^ 0xB0B0_B0B0, n * n),
                n,
                cores: threads,
            };
            (Inputs::Gemm(gemm), t0.elapsed().as_secs_f64())
        }
    }
}

/// Deals the trace into `threads` cells on the sharded workload.
fn fleet(
    workload: Workload,
    config: ClusterConfig,
    requests: Vec<ClusterRequest>,
    threads: usize,
) -> Inputs {
    let shards = if workload == Workload::FleetShardedTp {
        shard_fleet(&config, &requests, threads)
    } else {
        Vec::new()
    };
    Inputs::Fleet(Box::new(Fleet {
        workload,
        config,
        requests,
        shards,
        threads,
    }))
}

/// Eight warm replicas sharing one backend `Arc`, serving OPT-13B.
fn fleet_config(backend: Arc<dyn CostModel + Send + Sync>) -> ClusterConfig {
    let replicas = (0..REPLICAS)
        .map(|_| ReplicaConfig::warm(backend.clone()))
        .collect();
    ClusterConfig::new(replicas, vec![families::opt_13b()])
}

fn service_day(seed: u64, n: usize) -> Vec<ClusterRequest> {
    synthesize(&SyntheticSpec::service_day(seed, n, RATE_PER_S))
        .into_iter()
        .enumerate()
        .map(|(i, r)| ClusterRequest {
            id: i,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            ..ClusterRequest::default()
        })
        .collect()
}

fn chat_day(seed: u64, sessions: usize) -> Vec<ClusterRequest> {
    synthesize_sessions(&SessionSpec::chat_day(seed, sessions, SESSION_RATE_PER_S))
        .iter()
        .enumerate()
        .map(|(i, r)| ClusterRequest {
            id: i,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            model: 0,
            prefix_id: r.prefix_id,
            prefix_len: r.prefix_len,
            session: r.session,
        })
        .collect()
}

/// `len` BF16 values in [-2, 2) from a splitmix64 stream seeded by `seed`.
fn operand(seed: u64, len: usize) -> Vec<Bf16> {
    let mut state = seed;
    let values: Vec<f32> = (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
        })
        .collect();
    Bf16::quantize_slice(&values)
}

/// The output of one fleet repetition.
pub struct FleetRun {
    /// The simulated report.
    pub report: FleetReport,
    /// `report.render()`, rendered inside the timed repetition.
    pub text: String,
    /// Spans the workload's sinks received (sharded workload only).
    pub spans: u64,
}

/// Per-layer measurements of one traced fleet repetition.
#[derive(Debug, Clone, Default)]
pub struct FleetLayers {
    /// Wall seconds of the replay call (render excluded).
    pub replay_s: f64,
    /// Thread-seconds of replay: the replay wall on a serial workload,
    /// the sum of cell walls on the sharded one (less the probes' cost
    /// after [`FleetLayers::without_probes`]).
    pub thread_s: f64,
    /// Cost-model layer.
    pub core: CoreSample,
    /// Routing layer.
    pub router: RouterSample,
    /// Spans the wrapped sinks received.
    pub sink_records: u64,
    /// Seconds inside `SpanSink::record`.
    pub sink_s: f64,
    /// Wall seconds of each cell (sharded workload only).
    pub cell_s: Vec<f64>,
    /// Seconds from the last cell's end to the merged report.
    pub merge_s: f64,
    /// Seconds inside `FleetReport::render`.
    pub render_s: f64,
}

impl FleetLayers {
    /// These measurements with the probes' own `cost` taken out. The part
    /// of each call its probe's clock interval recorded comes off that
    /// layer's time, and the whole probe cost of every call comes off the
    /// replay's thread-seconds, so the engine's self time (the remainder)
    /// holds none of it. The span sink's probe adds to plain fields rather
    /// than atomics, so its correction slightly overstates its cost.
    #[must_use]
    pub fn without_probes(mut self, cost: ProbeCost) -> Self {
        let inside = cost.inside_ns * 1e-9;
        let whole = (cost.inside_ns + cost.outside_ns) * 1e-9;
        let less = |s: f64, calls: u64| (s - calls as f64 * inside).max(0.0);
        self.core.prefill_s = less(self.core.prefill_s, self.core.prefill_calls);
        self.core.decode_s = less(self.core.decode_s, self.core.decode_calls);
        self.router.s = less(self.router.s, self.router.calls);
        self.sink_s = less(self.sink_s, self.sink_records);
        let calls = self.core.prefill_calls
            + self.core.decode_calls
            + self.router.calls
            + self.sink_records;
        self.thread_s = (self.thread_s - calls as f64 * whole).max(0.0);
        self
    }
}

impl Fleet {
    fn router(&self) -> Box<dyn RouterPolicy> {
        match self.workload {
            Workload::FleetSessionsKv => Box::new(PrefixAware::new()),
            _ => Box::new(JoinShortestQueue),
        }
    }

    fn traced_router(&self, probe: &Arc<RouterProbe>) -> Box<dyn RouterPolicy> {
        match self.workload {
            Workload::FleetSessionsKv => {
                Box::new(TracedRouter::new(PrefixAware::new(), probe.clone()))
            }
            _ => Box::new(TracedRouter::new(JoinShortestQueue, probe.clone())),
        }
    }

    /// One untraced repetition: replay the trace and render the report.
    #[must_use]
    pub fn replay(&self) -> FleetRun {
        self.replay_on(self.threads)
    }

    /// [`Fleet::replay`] with the cells spread over `threads` threads.
    #[must_use]
    pub fn replay_on(&self, threads: usize) -> FleetRun {
        if self.shards.is_empty() {
            let report = simulate_fleet(&self.config, &mut *self.router(), &self.requests);
            let text = report.render();
            return FleetRun {
                report,
                text,
                spans: 0,
            };
        }
        let mut sinks: Vec<StreamSink<io::Sink>> = (0..self.shards.len())
            .map(|_| StreamSink::tsv(io::sink()))
            .collect();
        let make_router = |_: usize| self.router();
        let report = simulate_shards_traced(&self.shards, &make_router, threads, &mut sinks);
        let text = report.render();
        let spans = sinks.iter().map(StreamSink::records).sum();
        FleetRun {
            report,
            text,
            spans,
        }
    }

    /// One traced repetition: the same replay with every layer boundary
    /// wrapped, each cell with probes of its own. Wrapped inputs are built
    /// before the clock starts. With `count_shapes` the cost-model probes
    /// also collect the distinct decode shapes, which makes their times
    /// unusable: that repetition is for its counts only.
    #[must_use]
    pub fn replay_traced(&self, count_shapes: bool) -> (FleetRun, FleetLayers) {
        let cells = self.shards.len().max(1);
        let core: Vec<Arc<CoreProbe>> = (0..cells)
            .map(|_| {
                Arc::new(if count_shapes {
                    CoreProbe::counting()
                } else {
                    CoreProbe::default()
                })
            })
            .collect();
        let shards: Vec<FleetShard> = self
            .shards
            .iter()
            .zip(&core)
            .map(|(s, probe)| FleetShard {
                config: traced_config(&s.config, probe),
                requests: s.requests.clone(),
                source_ids: s.source_ids.clone(),
            })
            .collect();
        let epoch = Instant::now();
        let router: Vec<Arc<RouterProbe>> = (0..cells)
            .map(|_| Arc::new(RouterProbe::new(epoch)))
            .collect();
        let mut layers = FleetLayers::default();

        let (report, spans) = if shards.is_empty() {
            let config = traced_config(&self.config, &core[0]);
            let t0 = Instant::now();
            let report = simulate_fleet(
                &config,
                &mut *self.traced_router(&router[0]),
                &self.requests,
            );
            layers.replay_s = t0.elapsed().as_secs_f64();
            layers.thread_s = layers.replay_s;
            (report, 0)
        } else {
            let mut sinks: Vec<TracedSink<StreamSink<io::Sink>>> = (0..shards.len())
                .map(|_| TracedSink::new(StreamSink::tsv(io::sink()), epoch))
                .collect();
            let make_router = |cell: usize| self.traced_router(&router[cell]);
            let t0 = Instant::now();
            let report = simulate_shards_traced(&shards, &make_router, self.threads, &mut sinks);
            let end_ns = epoch.elapsed().as_nanos() as f64;
            layers.replay_s = t0.elapsed().as_secs_f64();
            layers.cell_s = sinks
                .iter()
                .zip(&router)
                .map(|(s, r)| (s.end_ns() as f64 - r.start_ns() as f64) * 1e-9)
                .collect();
            layers.thread_s = layers.cell_s.iter().sum();
            let last_end = sinks.iter().map(TracedSink::end_ns).max().unwrap_or(0);
            layers.merge_s = (end_ns - last_end as f64) * 1e-9;
            layers.sink_records = sinks.iter().map(TracedSink::records).sum();
            layers.sink_s = sinks.iter().map(TracedSink::record_s).sum();
            (report, sinks.iter().map(|s| s.inner.records()).sum())
        };
        let t0 = Instant::now();
        let text = report.render();
        layers.render_s = t0.elapsed().as_secs_f64();
        layers.core = CoreProbe::sample(&core);
        layers.router = RouterProbe::sample(&router);
        let run = FleetRun {
            report,
            text,
            spans,
        };
        (run, layers)
    }

    /// The `shards = 1` identity: replaying the whole trace as one cell
    /// must render byte-identically to the serial engine.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    pub fn check_one_cell(&self) -> Result<(), String> {
        let one = shard_fleet(&self.config, &self.requests, 1);
        let make_router = |_: usize| self.router();
        let cell = simulate_shards(&one, &make_router, 1).render();
        let serial = simulate_fleet(&self.config, &mut *self.router(), &self.requests).render();
        if cell == serial {
            Ok(())
        } else {
            Err("one-cell sharded replay differs from the serial replay".into())
        }
    }
}

/// What a repetition's output reduces to for comparison: a work count and
/// a hash of everything the output says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Engine events (fleet) or emulated AMX instructions (GEMM).
    pub events: u64,
    /// FNV-1a hash of the rendered report and every outcome (fleet), or
    /// of the output matrix's bits (GEMM).
    pub fingerprint: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Checks one fleet repetition on its own and reduces it to a [`Digest`]:
/// every request reaches exactly one terminal state, and a sharded replay
/// streams one span per request.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_fleet(fleet: &Fleet, run: &FleetRun) -> Result<Digest, String> {
    let n = fleet.requests.len();
    let r = &run.report;
    let terminal = r.completed() + r.rejected() + r.failed();
    if terminal != n || r.outcomes.len() != n {
        return Err(format!(
            "conservation: {} completed + {} rejected + {} failed over {} outcomes, {n} requests",
            r.completed(),
            r.rejected(),
            r.failed(),
            r.outcomes.len()
        ));
    }
    if !fleet.shards.is_empty() && run.spans != n as u64 {
        return Err(format!("{} spans streamed for {n} requests", run.spans));
    }
    let mut h = Fnv::new();
    h.bytes(run.text.as_bytes());
    for o in &r.outcomes {
        h.u64(o.id as u64);
        h.u64(o.replica.map_or(u64::MAX, |x| x as u64));
        h.u64(o.state as u64);
        for v in [o.queue_delay_s, o.ttft_s, o.e2e_s] {
            h.u64(v.map_or(u64::MAX, f64::to_bits));
        }
        h.u64(o.tokens);
        h.u64(u64::from(o.retries));
    }
    Ok(Digest {
        events: r.events_processed,
        fingerprint: h.0,
    })
}

/// Tile instructions in `s`: every count but `LDTILECFG`, which each
/// emulated core issues once, so the total does not depend on the core
/// count.
#[must_use]
pub fn instructions(s: &AmxStats) -> u64 {
    s.tdpbf16ps + s.tdpbssd + s.tileload + s.tilestore + s.tilezero
}

impl Gemm {
    /// One repetition: the parallel emulated GEMM.
    #[must_use]
    pub fn multiply(&self) -> ParallelGemmResult {
        amx_gemm_bf16_parallel(&self.a, &self.b, self.n, self.n, self.n, self.cores)
    }

    /// The single-core kernel on the same operands, reduced to what the
    /// check needs, so its output matrix is not held while the parallel
    /// one is measured.
    #[must_use]
    pub fn reference(&self) -> GemmReference {
        let t0 = Instant::now();
        let r = amx_gemm_bf16(&self.a, &self.b, self.n, self.n, self.n);
        let single_core_s = t0.elapsed().as_secs_f64();
        GemmReference {
            fingerprint: fingerprint_bits(&r.c),
            tdpbf16ps: r.unit.stats().tdpbf16ps,
            single_core_s,
        }
    }
}

/// The single-core GEMM a parallel repetition must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct GemmReference {
    /// FNV-1a hash of the output matrix's bits.
    pub fingerprint: u64,
    /// `TDPBF16PS` instructions the single-core kernel issued.
    pub tdpbf16ps: u64,
    /// Wall seconds of the single-core kernel.
    pub single_core_s: f64,
}

fn fingerprint_bits(c: &[f32]) -> u64 {
    let mut h = Fnv::new();
    for x in c {
        h.bytes(&x.to_bits().to_le_bytes());
    }
    h.0
}

/// Checks one GEMM repetition against the single-core reference: the
/// output's bits must hash the same and the TMUL count be equal.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_gemm(run: &ParallelGemmResult, reference: &GemmReference) -> Result<Digest, String> {
    let stats = run.merged_stats();
    if stats.tdpbf16ps != reference.tdpbf16ps {
        return Err(format!(
            "parallel GEMM ran {} TDPBF16PS, single-core {}",
            stats.tdpbf16ps, reference.tdpbf16ps
        ));
    }
    let fingerprint = fingerprint_bits(&run.c);
    if fingerprint != reference.fingerprint {
        return Err("parallel GEMM output differs from the single-core kernel".into());
    }
    Ok(Digest {
        events: instructions(&stats),
        fingerprint,
    })
}
