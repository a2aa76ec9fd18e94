//! One benchmark run: set up, warm up, repeat for the requested time,
//! check every repetition, and reduce the samples to named metrics.

use crate::expected::check_recorded;
use crate::host::peak_rss_mib;
use crate::layers::probe_cost;
use crate::workloads::{
    check_fleet, check_gemm, instructions, setup, Digest, Fleet, FleetLayers, Gemm, Inputs, Size,
    Workload,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (tracing off), with units, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), with units, as `BENCHMARK.json`
/// lists them. A layer a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.prefill_calls", "count"),
    ("core.prefill_s", "s"),
    ("core.decode_step_calls", "count"),
    ("core.decode_step_s", "s"),
    ("core.ns_per_decode_step", "ns"),
    ("core.decode_step_unique", "count"),
    ("core.decode_step_unique_frac", "ratio"),
    ("core.share", "ratio"),
    ("router.calls", "count"),
    ("router.s", "s"),
    ("router.rejects", "count"),
    ("router.ns_per_call", "ns"),
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.share", "ratio"),
    ("sink.records", "count"),
    ("sink.s", "s"),
    ("sink.ns_per_record", "ns"),
    ("shard.cells", "count"),
    ("shard.cell_s_max", "s"),
    ("shard.cell_s_mean", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.merge_s", "s"),
    ("shard.parallel_eff", "ratio"),
    ("report.render_s", "s"),
    ("workload.synth_s", "s"),
    ("isa.gemm_s", "s"),
    ("isa.tdpbf16ps", "count"),
    ("isa.tileload", "count"),
    ("isa.tilestore", "count"),
    ("isa.ns_per_tdpbf16ps", "ns"),
    ("isa.parallel_eff", "ratio"),
    ("isa.gflop_per_s", "GFLOP/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.probe_ns", "ns"),
];

/// Seconds of repeated set-ups per run; `setup_s` is their median.
const SETUP_SECONDS: f64 = 0.5;
/// Fewest set-ups per run.
const MIN_SETUPS: usize = 5;
/// Fewest measured repetitions per run (per side in a traced run).
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of repetitions to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Host threads for the parallel workloads.
    pub threads: usize,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checked repetitions, warm-up included.
    pub attempted: u64,
    /// Checked repetitions whose output was wrong.
    pub failed: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the run's first output (what `expected.rs` records).
    pub digest: Option<Digest>,
    /// Wall seconds of each measured untraced repetition.
    pub walls: Vec<f64>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts checked repetitions and the reasons of those that failed.
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    reference: Option<Digest>,
    workload: Workload,
    size: Size,
    seed: u64,
    cells: usize,
}

impl Checks {
    /// Records one repetition's check: its own result, then agreement
    /// with the run's first output and with the recorded digest.
    fn rep(&mut self, checked: Result<Digest, String>) {
        self.attempted += 1;
        let verdict = checked.and_then(|d| {
            let first = *self.reference.get_or_insert(d);
            if d != first {
                return Err(format!(
                    "repetition output {d:?} differs from the first {first:?}"
                ));
            }
            check_recorded(self.workload, self.size, self.seed, self.cells, d)
        });
        if let Err(e) = verdict {
            self.failures.push(e);
        }
    }

    /// Records a check that runs once per run.
    fn once(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failures.push(e);
        }
    }
}

/// Performs one run.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let mut setup_s = Vec::new();
    let mut synth_s = Vec::new();
    let mut inputs = None;
    let t0 = Instant::now();
    while setup_s.len() < MIN_SETUPS || t0.elapsed().as_secs_f64() < SETUP_SECONDS {
        // The previous set-up's inputs go before the next are built, so
        // two copies never count towards the peak resident memory.
        drop(inputs.take());
        let t = Instant::now();
        let (fresh, synth) = setup(opts.workload, opts.size, opts.seed, opts.threads);
        setup_s.push(t.elapsed().as_secs_f64());
        synth_s.push(synth);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut checks = Checks {
        attempted: 0,
        failures: Vec::new(),
        reference: None,
        workload: opts.workload,
        size: opts.size,
        seed: opts.seed,
        cells: match &inputs {
            Inputs::Fleet(fleet) => fleet.shards.len().max(1),
            Inputs::Gemm(_) => 1,
        },
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let walls = match &inputs {
        Inputs::Fleet(fleet) => fleet_run(fleet, opts, &mut checks, &mut m),
        Inputs::Gemm(gemm) => gemm_run(gemm, opts, &mut checks, &mut m),
    };
    if opts.trace {
        m.insert("workload.synth_s", median(&synth_s));
    } else {
        m.insert("setup_s", median(&setup_s));
        m.insert("peak_rss_mib", peak_rss_mib());
    }
    // Checks that are not part of the workload run after the peak is read.
    if let Inputs::Fleet(fleet) = &inputs {
        if !fleet.shards.is_empty() {
            checks.once(fleet.check_one_cell());
        }
    }
    let names: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();
    Outcome {
        attempted: checks.attempted,
        failed: checks.failures.len() as u64,
        failures: checks.failures,
        metrics,
        digest: checks.reference,
        walls,
    }
}

/// Repeats `rep` for `seconds`, returning each repetition's wall seconds:
/// at least [`MIN_REPS`] times, and after those only while a repetition
/// of median length still ends within `seconds`.
fn repeat(seconds: f64, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || t0.elapsed().as_secs_f64() + median(&walls) <= seconds {
        walls.push(rep());
    }
    walls
}

fn fleet_run(
    fleet: &Fleet,
    opts: &Options,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<f64> {
    let untraced = |checks: &mut Checks| {
        let t0 = Instant::now();
        let run = fleet.replay();
        let wall = t0.elapsed().as_secs_f64();
        checks.rep(check_fleet(fleet, &run));
        (wall, run)
    };
    if !opts.trace {
        // Warm-up: fills the process-wide timing memo the cost models share.
        let (_, warm) = untraced(checks);
        let walls = repeat(opts.seconds, || untraced(checks).0);
        let wall = median(&walls);
        m.insert("req_per_s", ratio(fleet.requests.len() as f64, wall));
        m.insert(
            "events_per_s",
            ratio(warm.report.events_processed as f64, wall),
        );
        return walls;
    }

    // The warm-up is the counting replay: it collects the distinct decode
    // shapes, which the timed repetitions leave out.
    let probe = probe_cost();
    let (warm, counted) = fleet.replay_traced(true);
    checks.rep(check_fleet(fleet, &warm));
    // Traced and untraced repetitions alternate, so drift on the host
    // affects both sides of the overhead ratio alike.
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut samples: Vec<FleetLayers> = Vec::new();
    let t0 = Instant::now();
    while samples.len() < MIN_REPS || t0.elapsed().as_secs_f64() < opts.seconds {
        let (run, layers) = fleet.replay_traced(false);
        traced_walls.push(layers.replay_s + layers.render_s);
        let (wall, plain) = untraced(checks);
        untraced_walls.push(wall);
        checks.rep(check_fleet(fleet, &run));
        checks.once(if run.text == plain.text {
            Ok(())
        } else {
            Err("traced replay rendered differently from the untraced one".into())
        });
        checks.once(same_counts(&counted, &layers));
        samples.push(layers.without_probes(probe));
    }
    // The cells once more on one thread: the serial baseline of the
    // parallel efficiency, and a check that the thread count is invisible.
    let serial_cells_s = if fleet.shards.is_empty() {
        0.0
    } else {
        let t0 = Instant::now();
        let serial = fleet.replay_on(1);
        let wall = t0.elapsed().as_secs_f64();
        checks.once(if serial.text == warm.text {
            Ok(())
        } else {
            Err("the cells replayed on one thread rendered differently".into())
        });
        wall
    };
    let events = warm.report.events_processed as f64;
    let per_rep =
        |f: &dyn Fn(&FleetLayers) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let engine_self =
        |l: &FleetLayers| l.thread_s - l.core.prefill_s - l.core.decode_s - l.router.s - l.sink_s;
    m.insert("core.prefill_calls", counted.core.prefill_calls as f64);
    m.insert("core.prefill_s", per_rep(&|l| l.core.prefill_s));
    m.insert("core.decode_step_calls", counted.core.decode_calls as f64);
    m.insert("core.decode_step_s", per_rep(&|l| l.core.decode_s));
    m.insert(
        "core.ns_per_decode_step",
        per_rep(&|l| ratio(l.core.decode_s * 1e9, l.core.decode_calls as f64)),
    );
    m.insert("core.decode_step_unique", counted.core.decode_unique as f64);
    m.insert(
        "core.decode_step_unique_frac",
        ratio(
            counted.core.decode_unique as f64,
            counted.core.decode_calls as f64,
        ),
    );
    m.insert(
        "core.share",
        per_rep(&|l| ratio(l.core.prefill_s + l.core.decode_s, l.thread_s)),
    );
    m.insert("router.calls", counted.router.calls as f64);
    m.insert("router.s", per_rep(&|l| l.router.s));
    m.insert("router.rejects", counted.router.rejects as f64);
    m.insert(
        "router.ns_per_call",
        per_rep(&|l| ratio(l.router.s * 1e9, l.router.calls as f64)),
    );
    m.insert("engine.events", events);
    m.insert("engine.self_s", per_rep(&engine_self));
    m.insert(
        "engine.ns_per_event",
        per_rep(&|l| ratio(engine_self(l) * 1e9, events)),
    );
    m.insert(
        "engine.share",
        per_rep(&|l| ratio(engine_self(l), l.thread_s)),
    );
    m.insert("sink.records", counted.sink_records as f64);
    m.insert("sink.s", per_rep(&|l| l.sink_s));
    m.insert(
        "sink.ns_per_record",
        per_rep(&|l| ratio(l.sink_s * 1e9, l.sink_records as f64)),
    );
    if !fleet.shards.is_empty() {
        let max = |l: &FleetLayers| l.cell_s.iter().copied().fold(0.0, f64::max);
        let mean = |l: &FleetLayers| l.cell_s.iter().sum::<f64>() / l.cell_s.len() as f64;
        m.insert("shard.cells", fleet.shards.len() as f64);
        m.insert("shard.cell_s_max", per_rep(&max));
        m.insert("shard.cell_s_mean", per_rep(&mean));
        m.insert("shard.imbalance", per_rep(&|l| ratio(max(l), mean(l))));
        m.insert("shard.merge_s", per_rep(&|l| l.merge_s));
        m.insert(
            "shard.parallel_eff",
            ratio(
                serial_cells_s,
                fleet.threads as f64 * median(&untraced_walls),
            ),
        );
    }
    m.insert("report.render_s", per_rep(&|l| l.render_s));
    m.insert(
        "trace.overhead_frac",
        ratio(median(&traced_walls), median(&untraced_walls)) - 1.0,
    );
    m.insert("trace.probe_ns", probe.inside_ns + probe.outside_ns);
    untraced_walls
}

/// The exact call counts of two traced repetitions must agree.
fn same_counts(a: &FleetLayers, b: &FleetLayers) -> Result<(), String> {
    let counts = |l: &FleetLayers| {
        [
            l.core.prefill_calls,
            l.core.decode_calls,
            l.router.calls,
            l.router.rejects,
            l.sink_records,
        ]
    };
    if counts(a) == counts(b) {
        Ok(())
    } else {
        Err(format!(
            "work counters moved between traced repetitions: {:?} vs {:?}",
            counts(a),
            counts(b)
        ))
    }
}

fn gemm_run(
    gemm: &Gemm,
    opts: &Options,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<f64> {
    let reference = gemm.reference();
    let warm = gemm.multiply();
    checks.rep(check_gemm(&warm, &reference));
    let stats = warm.merged_stats();
    let untraced = |checks: &mut Checks| {
        let t0 = Instant::now();
        let run = gemm.multiply();
        let wall = t0.elapsed().as_secs_f64();
        checks.rep(check_gemm(&run, &reference));
        wall
    };
    if !opts.trace {
        let walls = repeat(opts.seconds, || untraced(checks));
        let wall = median(&walls);
        m.insert("req_per_s", ratio(1.0, wall));
        m.insert("events_per_s", ratio(instructions(&stats) as f64, wall));
        return walls;
    }

    // Traced repetitions time the public call and read its exact
    // instruction counters; they alternate with untraced ones.
    let mut gemm_s = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let t0 = Instant::now();
    while gemm_s.len() < MIN_REPS || t0.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let run = gemm.multiply();
        let call_s = t.elapsed().as_secs_f64();
        let counted = run.merged_stats();
        traced_walls.push(t.elapsed().as_secs_f64());
        gemm_s.push(call_s);
        checks.rep(check_gemm(&run, &reference));
        checks.once(if counted == stats {
            Ok(())
        } else {
            Err(format!(
                "instruction counts moved: {counted:?} vs {stats:?}"
            ))
        });
        untraced_walls.push(untraced(checks));
    }
    let call_s = median(&gemm_s);
    let flops = 2.0 * (gemm.n as f64).powi(3);
    m.insert("isa.gemm_s", call_s);
    m.insert("isa.tdpbf16ps", stats.tdpbf16ps as f64);
    m.insert("isa.tileload", stats.tileload as f64);
    m.insert("isa.tilestore", stats.tilestore as f64);
    m.insert(
        "isa.ns_per_tdpbf16ps",
        ratio(call_s * 1e9, stats.tdpbf16ps as f64),
    );
    m.insert(
        "isa.parallel_eff",
        ratio(reference.single_core_s, gemm.cores as f64 * call_s),
    );
    m.insert("isa.gflop_per_s", ratio(flops * 1e-9, call_s));
    m.insert(
        "trace.overhead_frac",
        ratio(median(&traced_walls), median(&untraced_walls)) - 1.0,
    );
    untraced_walls
}
