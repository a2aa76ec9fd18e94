//! Outside-in tracing: decorators around each layer's public trait.
//!
//! The traced run swaps these wrappers in at the layer boundaries the
//! simulator already exposes — [`CostModel`] for pricing, [`RouterPolicy`]
//! for routing, [`SpanSink`] for span output — and times every call with
//! [`Instant`]. Nothing inside the simulator changes, so the traced replay
//! must render byte-identically to the untraced one (the benchmark checks
//! it on every traced repetition).
//!
//! Every cell of a replay gets probes of its own, so no counter is shared
//! between threads. The counters are atomics only because the wrapped
//! traits take `&self` and the sharded workload runs cells on threads.
//!
//! A timed repetition reads the clock and bumps counters, nothing more.
//! Distinct decode shapes are collected by a separate counting probe in an
//! untimed replay, and the probe's own cost per call is measured once per
//! run by [`probe_cost`] so that it can be taken out of the layer times.

use llmsim_cluster::{ClusterConfig, ClusterRequest, ReplicaView, RouterPolicy};
use llmsim_core::trace::{SpanRecord, SpanSink};
use llmsim_core::{Backend, CostModel, InferenceReport, Request, SimError};
use llmsim_hw::{Bytes, GbPerSec, Seconds};
use llmsim_model::{families, ModelConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Four `u64` counters of one cell's probe.
#[derive(Default)]
struct Counters([AtomicU64; 4]);

impl Counters {
    fn add(&self, counter: usize, v: u64) {
        self.0[counter].fetch_add(v, Relaxed);
    }

    fn get(&self, counter: usize) -> u64 {
        self.0[counter].load(Relaxed)
    }
}

// Counter slots. A cost probe counts prefill calls and time in the first
// two and decode steps in the last two; a router probe counts calls, time
// and rejections.
const CALLS: usize = 0;
const NANOS: usize = 1;
const DECODE_CALLS: usize = 2;
const DECODE_NANOS: usize = 3;
const REJECTS: usize = 2;

/// Counters behind one cell's [`TracedCost`]: prefill and decode-step
/// calls and their time, and — on a counting probe only — the distinct
/// `(batch, kv_len)` decode shapes priced.
#[derive(Default)]
pub struct CoreProbe {
    counters: Counters,
    shapes: Option<Mutex<HashSet<(u64, u64)>>>,
}

/// What one traced replay spent in the cost-model layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreSample {
    /// `prefill_time` calls.
    pub prefill_calls: u64,
    /// Seconds inside `prefill_time`.
    pub prefill_s: f64,
    /// `decode_step_time` calls.
    pub decode_calls: u64,
    /// Seconds inside `decode_step_time`.
    pub decode_s: f64,
    /// Distinct `(batch, kv_len)` decode shapes (counting probes only).
    pub decode_unique: u64,
}

impl CoreProbe {
    /// A probe that also collects the distinct decode shapes. Its hash-set
    /// insert is slow, so its times are not used.
    #[must_use]
    pub fn counting() -> Self {
        CoreProbe {
            counters: Counters::default(),
            shapes: Some(Mutex::new(HashSet::new())),
        }
    }

    /// The totals of `probes`, one per cell: counts and times summed,
    /// shapes united.
    #[must_use]
    pub fn sample(probes: &[Arc<CoreProbe>]) -> CoreSample {
        let sum = |counter| probes.iter().map(|p| p.counters.get(counter)).sum::<u64>();
        let mut union: HashSet<(u64, u64)> = HashSet::new();
        for set in probes.iter().filter_map(|p| p.shapes.as_ref()) {
            union.extend(set.lock().expect("a pricing thread panicked").iter());
        }
        CoreSample {
            prefill_calls: sum(CALLS),
            prefill_s: sum(NANOS) as f64 * 1e-9,
            decode_calls: sum(DECODE_CALLS),
            decode_s: sum(DECODE_NANOS) as f64 * 1e-9,
            decode_unique: union.len() as u64,
        }
    }
}

/// [`CostModel`] decorator timing `prefill_time` and `decode_step_time`.
pub struct TracedCost {
    inner: Arc<dyn CostModel + Send + Sync>,
    probe: Arc<CoreProbe>,
}

impl Backend for TracedCost {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        self.inner.run(model, request)
    }
}

impl CostModel for TracedCost {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        let t0 = Instant::now();
        let v = self.inner.prefill_time(model, batch, prompt_len);
        self.probe.counters.add(NANOS, nanos_since(t0));
        self.probe.counters.add(CALLS, 1);
        v
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        let t0 = Instant::now();
        let v = self.inner.decode_step_time(model, batch, kv_len);
        self.probe.counters.add(DECODE_NANOS, nanos_since(t0));
        self.probe.counters.add(DECODE_CALLS, 1);
        if let Some(shapes) = &self.probe.shapes {
            shapes
                .lock()
                .expect("a pricing thread panicked")
                .insert((batch, kv_len));
        }
        v
    }

    fn weight_bytes(&self, model: &ModelConfig) -> Bytes {
        self.inner.weight_bytes(model)
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        self.inner.weight_load_bandwidth()
    }

    fn holds_resident(&self, model: &ModelConfig) -> bool {
        self.inner.holds_resident(model)
    }

    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes {
        self.inner.kv_capacity_bytes(models)
    }
}

/// `config` with every replica's backend behind a [`TracedCost`] that
/// counts into `probe`.
///
/// Replicas that share one backend `Arc` share one wrapper `Arc`, so the
/// engine's prediction cache (which groups replicas by `Arc::ptr_eq`)
/// sees the same groups as in the untraced run and prices exactly as
/// often. A wrapper per replica would measure a different program.
#[must_use]
pub fn traced_config(config: &ClusterConfig, probe: &Arc<CoreProbe>) -> ClusterConfig {
    let mut traced = config.clone();
    let mut wrapped: Vec<(
        Arc<dyn CostModel + Send + Sync>,
        Arc<dyn CostModel + Send + Sync>,
    )> = Vec::new();
    for replica in &mut traced.replicas {
        let wrapper = match wrapped
            .iter()
            .find(|(orig, _)| Arc::ptr_eq(orig, &replica.backend))
        {
            Some((_, w)) => w.clone(),
            None => {
                let w: Arc<dyn CostModel + Send + Sync> = Arc::new(TracedCost {
                    inner: replica.backend.clone(),
                    probe: probe.clone(),
                });
                wrapped.push((replica.backend.clone(), w.clone()));
                w
            }
        };
        replica.backend = wrapper;
    }
    traced
}

/// Counters behind one cell's [`TracedRouter`], and the cell's start (a
/// cell starts when its router is built).
pub struct RouterProbe {
    counters: Counters,
    epoch: Instant,
    start_ns: AtomicU64,
}

/// What one traced replay spent in the routing layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterSample {
    /// `route` calls.
    pub calls: u64,
    /// Seconds inside `route`.
    pub s: f64,
    /// `route` calls that returned `None` (every replica full).
    pub rejects: u64,
}

impl RouterProbe {
    /// A probe timing its cell's start from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        RouterProbe {
            counters: Counters::default(),
            epoch,
            start_ns: AtomicU64::new(0),
        }
    }

    /// The totals of `probes`, one per cell.
    #[must_use]
    pub fn sample(probes: &[Arc<RouterProbe>]) -> RouterSample {
        let sum = |counter| probes.iter().map(|p| p.counters.get(counter)).sum::<u64>();
        RouterSample {
            calls: sum(CALLS),
            s: sum(NANOS) as f64 * 1e-9,
            rejects: sum(REJECTS),
        }
    }

    /// Start of the cell, in nanoseconds after the epoch.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.start_ns.load(Relaxed)
    }
}

/// [`RouterPolicy`] decorator timing `route`.
pub struct TracedRouter<R> {
    inner: R,
    probe: Arc<RouterProbe>,
}

impl<R: RouterPolicy> TracedRouter<R> {
    /// Wraps `inner`, marking the start of `probe`'s cell.
    pub fn new(inner: R, probe: Arc<RouterProbe>) -> Self {
        probe.start_ns.store(nanos_since(probe.epoch), Relaxed);
        TracedRouter { inner, probe }
    }
}

impl<R: RouterPolicy> RouterPolicy for TracedRouter<R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(&mut self, request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        let t0 = Instant::now();
        let picked = self.inner.route(request, replicas);
        self.probe.counters.add(NANOS, nanos_since(t0));
        self.probe.counters.add(CALLS, 1);
        if picked.is_none() {
            self.probe.counters.add(REJECTS, 1);
        }
        picked
    }

    fn observe(&mut self, signal: &llmsim_cluster::HealthSignal) {
        self.inner.observe(signal);
    }
}

/// [`SpanSink`] decorator timing `record`, and marking the end of its
/// cell's replay (the engine calls `finish` once, after the last record).
pub struct TracedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    epoch: Instant,
    records: u64,
    nanos: u64,
    end_ns: u64,
}

impl<S> TracedSink<S> {
    /// Wraps `inner`, timing the cell end from `epoch`.
    pub fn new(inner: S, epoch: Instant) -> Self {
        TracedSink {
            inner,
            epoch,
            records: 0,
            nanos: 0,
            end_ns: 0,
        }
    }

    /// `record` calls so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Seconds inside `record` so far.
    #[must_use]
    pub fn record_s(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// When `finish` was last called, in nanoseconds after the epoch.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }
}

impl<S: SpanSink> SpanSink for TracedSink<S> {
    fn record(&mut self, span: SpanRecord) {
        let t0 = Instant::now();
        self.inner.record(span);
        self.nanos += nanos_since(t0);
        self.records += 1;
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn hint_len(&mut self, expected: usize) {
        self.inner.hint_len(expected);
    }

    fn finish(&mut self) {
        self.inner.finish();
        self.end_ns = nanos_since(self.epoch);
    }
}

/// Host cost of the probe around one wrapped call, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeCost {
    /// The part the probe's own clock interval records, which a layer's
    /// measured time therefore includes.
    pub inside_ns: f64,
    /// The part outside that interval (the wrapper's dispatch, the other
    /// halves of the clock reads, the counter updates), which lands in
    /// whatever time encloses the call.
    pub outside_ns: f64,
}

/// A cost model that prices nothing, for [`probe_cost`].
struct NullCost;

impl Backend for NullCost {
    fn name(&self) -> String {
        "null".into()
    }

    fn run(&self, _: &ModelConfig, _: &Request) -> Result<InferenceReport, SimError> {
        Err(SimError::UnsupportedConfig(
            "the null cost model runs nothing".into(),
        ))
    }
}

impl CostModel for NullCost {
    fn prefill_time(&self, _: &ModelConfig, _: u64, _: u64) -> Seconds {
        Seconds::ZERO
    }

    fn decode_step_time(&self, _: &ModelConfig, _: u64, _: u64) -> Seconds {
        Seconds::ZERO
    }

    fn weight_bytes(&self, _: &ModelConfig) -> Bytes {
        Bytes::ZERO
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        GbPerSec::new(1.0)
    }

    fn holds_resident(&self, _: &ModelConfig) -> bool {
        true
    }

    fn kv_capacity_bytes(&self, _: &[ModelConfig]) -> Bytes {
        Bytes::ZERO
    }
}

/// Measures [`ProbeCost`] on a [`TracedCost`] around a cost model that
/// prices nothing: the median over rounds of the extra wall per call
/// against calling that model directly, split by what the probe recorded.
#[must_use]
pub fn probe_cost() -> ProbeCost {
    const CALLS_PER_ROUND: u64 = 100_000;
    const ROUNDS: usize = 9;
    let model = families::opt_13b();
    let bare: Arc<dyn CostModel + Send + Sync> = Arc::new(NullCost);
    let probe = Arc::new(CoreProbe::default());
    let traced: Arc<dyn CostModel + Send + Sync> = Arc::new(TracedCost {
        inner: bare.clone(),
        probe: probe.clone(),
    });
    let round = |m: &dyn CostModel| {
        let t0 = Instant::now();
        for i in 0..CALLS_PER_ROUND {
            black_box(m.decode_step_time(black_box(&model), black_box(i), 1));
        }
        nanos_since(t0) as f64
    };
    let mut inside = Vec::with_capacity(ROUNDS);
    let mut outside = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let before = probe.counters.get(DECODE_NANOS);
        let bare_ns = round(&*bare);
        let traced_ns = round(&*traced);
        let recorded = (probe.counters.get(DECODE_NANOS) - before) as f64;
        inside.push(recorded / CALLS_PER_ROUND as f64);
        outside.push((traced_ns - bare_ns - recorded) / CALLS_PER_ROUND as f64);
    }
    ProbeCost {
        inside_ns: crate::run::median(&inside).max(0.0),
        outside_ns: crate::run::median(&outside).max(0.0),
    }
}
