//! Wall-clock benchmark of the fleet-engine replay fast path, emitting a
//! JSON summary (`BENCH_engine.json` by default) so engine-throughput
//! regressions are visible in CI artifacts and diffable across commits.
//!
//! Five replay paths are timed over seeded `service_day` synthetic traces:
//!
//! - `legacy_*`   — the preserved seed engine
//!   ([`llmsim_cluster::simulate_fleet_legacy`]) with its per-arrival
//!   re-pricing and O(n) id scans;
//! - `fast_*`     — the rewritten hot path ([`llmsim_cluster::simulate_fleet`])
//!   with slab slots, memoized pricing, and persistent router views;
//! - `traced_*`   — the fast engine streaming TSV spans through a
//!   [`StreamSink`] (span overhead, not disk speed: the writer is
//!   [`std::io::sink`]);
//! - `paged_1e5`  — the fast engine with paged KV and prefix caching on a
//!   multi-turn session trace (block growth events, admission gating, and
//!   prefix probes on top of the fast path);
//! - `tp_1e5`     — the fast engine over replicas backed by 2-socket
//!   tensor-parallel groups ([`llmsim_core::TensorParallel`]), so every
//!   prediction prices a sharded graph plus per-layer UPI all-reduces;
//! - `sharded_*`  — the fast engine over round-robin fleet shards replayed
//!   on scoped threads ([`llmsim_cluster::simulate_shards`]).
//!
//! Legacy and fast replay the same trace on the same fleet and must render
//! byte-identical reports (asserted on every run), so the headline
//! `speedup_vs_legacy` is a pure engine-speed delta. The sharded case
//! deliberately replays a *partitioned* fleet — cell-style scheduling over
//! four times the replicas, not the same simulation — so it is reported
//! next to `fast_serial_big` (each row carries its replica count) but
//! never compared with it, byte-for-byte or by a speed ratio.
//!
//! Every case also reports its pricing work, counted by a wrapper shared
//! as one `Arc` across the fleet (so the engine's prediction groups are
//! unchanged): `decode_step_evals`, the exact number of decode steps
//! priced (one per `decode_step_time` call, `out.len()` per
//! `decode_step_times` row call); `decode_step_runs`, the number of calls
//! that priced them; and `pricing_s`, the host seconds spent inside the
//! cost model, so each case shows its pricing share of wall time. The
//! counts are deterministic, unlike the times.
//!
//! The `fast_1e5`, `paged_1e5` and `tp_1e5` cases are the regression
//! gate: each runs once to warm up, then three timed samples, and reports
//! the median-wall sample. With `--baseline <path>` the run exits non-zero
//! if one of them priced more decode steps than a previously committed
//! summary (the exact floor), or its median regressed more than 30% in
//! requests/second against it (the wall-clock backstop).

use llmsim_cluster::{
    shard_fleet, simulate_fleet, simulate_fleet_legacy, simulate_fleet_traced, simulate_shards,
    ClusterConfig, ClusterRequest, FleetReport, JoinShortestQueue, KvConfig, ReplicaConfig,
    RouterPolicy,
};
use llmsim_core::{
    Backend, CostModel, CpuBackend, InferenceReport, Request, SimError, StreamSink, TensorParallel,
};
use llmsim_hw::{Bytes, GbPerSec, Seconds};
use llmsim_model::{families, ModelConfig};
use llmsim_workload::synthetic::{synthesize, synthesize_sessions, SessionSpec, SyntheticSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trace seed: any fixed value works; this one spells "ENGINE" in hex-ish.
const TRACE_SEED: u64 = 0x0E16_13E5;
/// Mean stationary arrival rate for the `service_day` trace (req/s of
/// simulated time; bursts run at 4x this). Sized so eight SPR replicas
/// absorb the stationary load and shed part of each burst: most requests
/// complete (exercising dispatch/batch/completion), the rest exercise the
/// admission path.
const RATE_PER_S: f64 = 1.5;

/// Times `f` once and returns (seconds, output).
fn time_one<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// A cost model that counts the decode steps it prices, the calls that
/// priced them, and the host time spent inside it, and otherwise
/// delegates. Atomic, because the sharded case prices on several threads;
/// the counts are still exact, since each cell's pricing work is fixed.
struct Counted {
    inner: Box<dyn CostModel + Send + Sync>,
    decode_steps: AtomicU64,
    decode_runs: AtomicU64,
    nanos: AtomicU64,
}

/// Pricing work of one replay.
#[derive(Clone, Copy)]
struct Pricing {
    decode_step_evals: u64,
    decode_step_runs: u64,
    pricing_s: f64,
}

impl Counted {
    /// Work counted since the last `take`, resetting the counters.
    fn take(&self) -> Pricing {
        Pricing {
            decode_step_evals: self.decode_steps.swap(0, Ordering::Relaxed),
            decode_step_runs: self.decode_runs.swap(0, Ordering::Relaxed),
            pricing_s: self.nanos.swap(0, Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    /// Runs `f` as one pricing call of `steps` decode steps (0 for prefill).
    fn priced<T>(&self, steps: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        if steps > 0 {
            self.decode_steps.fetch_add(steps, Ordering::Relaxed);
            self.decode_runs.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Backend for Counted {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        self.inner.run(model, request)
    }
}

impl CostModel for Counted {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        self.priced(0, || self.inner.prefill_time(model, batch, prompt_len))
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        self.priced(1, || self.inner.decode_step_time(model, batch, kv_len))
    }

    fn decode_step_times(
        &self,
        model: &ModelConfig,
        batch: u64,
        first_kv_len: u64,
        out: &mut [f64],
    ) {
        if out.is_empty() {
            return;
        }
        self.priced(out.len() as u64, || {
            self.inner
                .decode_step_times(model, batch, first_kv_len, out);
        });
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

/// Eight warm replicas sharing one counted `backend` `Arc`, serving
/// OPT-13B. Sharing the `Arc` keeps the whole fleet in a single prediction
/// group, which is the common production shape (homogeneous cells).
fn counted_fleet(backend: impl CostModel + Send + Sync + 'static) -> (ClusterConfig, Arc<Counted>) {
    let counted = Arc::new(Counted {
        inner: Box::new(backend),
        decode_steps: AtomicU64::new(0),
        decode_runs: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    });
    let shared: Arc<dyn CostModel + Send + Sync> = counted.clone();
    let replicas: Vec<ReplicaConfig> = (0..8)
        .map(|_| ReplicaConfig::warm(shared.clone()))
        .collect();
    let config = ClusterConfig::new(replicas, vec![families::opt_13b()]);
    (config, counted)
}

/// Eight warm Sapphire Rapids replicas (see [`counted_fleet`]).
fn fleet() -> (ClusterConfig, Arc<Counted>) {
    counted_fleet(CpuBackend::paper_spr())
}

/// Seeded `service_day` trace of `n` requests bound to model 0.
fn trace(n: usize) -> Vec<ClusterRequest> {
    let spec = SyntheticSpec::service_day(TRACE_SEED, n, RATE_PER_S);
    synthesize(&spec)
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

/// Eight warm replicas each backed by a 2-socket SPR tensor-parallel
/// group — the multi-socket serving shape (see [`counted_fleet`]).
fn tp_fleet() -> (ClusterConfig, Arc<Counted>) {
    let tp2 = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2)
        .expect("degree 2 is valid for the bench model");
    counted_fleet(tp2)
}

/// Seeded multi-turn session trace of roughly `sessions` x 5 requests
/// (2-8 turns each), the workload shape for the paged-KV case.
fn session_trace(sessions: usize) -> Vec<ClusterRequest> {
    let spec = SessionSpec::chat_day(TRACE_SEED ^ 0x5E55, sessions, 0.35);
    synthesize_sessions(&spec)
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

fn router() -> Box<dyn RouterPolicy> {
    Box::new(JoinShortestQueue)
}

struct CaseRow {
    name: &'static str,
    requests: usize,
    /// Replicas simulated (summed over cells for the sharded case).
    replicas: usize,
    /// Timed samples the row's wall time is the median of.
    samples: usize,
    wall_s: f64,
    pricing: Pricing,
    report: FleetReport,
}

impl CaseRow {
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }

    /// Share of wall time spent inside the cost model.
    fn pricing_share(&self) -> f64 {
        self.pricing.pricing_s / self.wall_s.max(1e-9)
    }
}

/// Times one replay of `requests` over `replicas` replicas, counting the
/// pricing work it does through `evals`.
fn run_case(
    name: &'static str,
    requests: &[ClusterRequest],
    replicas: usize,
    evals: &Counted,
    f: impl Fn(&[ClusterRequest]) -> FleetReport,
) -> CaseRow {
    sample_case(name, requests, replicas, evals, 0, 1, f)
}

/// [`run_case`] for a case the `--baseline` gate checks: one untimed
/// warm-up replay, then the median-wall sample of three timed ones.
fn gated_case(
    name: &'static str,
    requests: &[ClusterRequest],
    replicas: usize,
    evals: &Counted,
    f: impl Fn(&[ClusterRequest]) -> FleetReport,
) -> CaseRow {
    sample_case(name, requests, replicas, evals, 1, 3, f)
}

/// `warmup` untimed replays, then the median-wall sample of `samples`
/// timed ones. Every replay is a fresh, deterministic simulation, so all
/// samples must agree on the pricing counts and the report.
fn sample_case(
    name: &'static str,
    requests: &[ClusterRequest],
    replicas: usize,
    evals: &Counted,
    warmup: usize,
    samples: usize,
    f: impl Fn(&[ClusterRequest]) -> FleetReport,
) -> CaseRow {
    for _ in 0..warmup {
        f(requests);
    }
    let mut runs: Vec<(f64, Pricing, FleetReport)> = (0..samples)
        .map(|_| {
            evals.take();
            let (wall_s, report) = time_one(|| f(requests));
            (wall_s, evals.take(), report)
        })
        .collect();
    for (_, pricing, report) in &runs[1..] {
        let first = &runs[0];
        assert_eq!(
            (pricing.decode_step_evals, pricing.decode_step_runs),
            (first.1.decode_step_evals, first.1.decode_step_runs),
            "{name}: pricing work differs between samples"
        );
        assert_eq!(
            report.render(),
            first.2.render(),
            "{name}: samples diverged"
        );
    }
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let walls: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.0)).collect();
    let (wall_s, pricing, report) = runs.swap_remove(samples / 2);
    let row = CaseRow {
        name,
        requests: requests.len(),
        replicas,
        samples,
        wall_s,
        pricing,
        report,
    };
    eprintln!(
        "{:>15}: n={:>7} replicas={:>2} wall={:>9.3}s ({:>9.0} req/s; samples {}) decode_step_evals={} runs={} pricing={:.3}s ({:.0}% of wall) completed={} rejected={}",
        row.name,
        row.requests,
        row.replicas,
        row.wall_s,
        row.req_per_s(),
        walls.join(" "),
        row.pricing.decode_step_evals,
        row.pricing.decode_step_runs,
        row.pricing.pricing_s,
        100.0 * row.pricing_share(),
        row.report.completed(),
        row.report.rejected(),
    );
    row
}

/// Crude extraction of the numeric field `key` for the named case from a
/// previously emitted summary — the bench crate deliberately has no JSON
/// parser.
fn baseline_field(json: &str, case: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{case}\""))?;
    // Stop at the case's closing brace, so a field missing from this case
    // is never read from the next one.
    let row = &json[at..];
    let row = &row[..row.find('}')?];
    let key = format!("\"{key}\": ");
    let v = &row[row.find(&key)? + key.len()..];
    let end = v
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

fn main() {
    let mut out_path = "BENCH_engine.json".to_owned();
    let mut baseline_path: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--baseline" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path");
                    std::process::exit(2);
                }));
            }
            "--quick" => quick = true,
            other => {
                eprintln!(
                    "unknown flag {other} (expected --out <path>, --baseline <path>, --quick)"
                );
                std::process::exit(2);
            }
        }
    }

    let (config, evals) = fleet();
    let replicas = config.replicas.len();
    // Logical CPUs of the host, recorded beside the timings (0 = unknown).
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = if cores == 0 { 4 } else { cores };

    // Quick mode (CI) trims the legacy run to 1e4 — the seed engine is
    // superlinear in trace length, so the quick speedup *understates* the
    // full-trace ratio — and replays 1e5 instead of 1e6 on the wide cases.
    let n_legacy = if quick { 10_000 } else { 100_000 };
    let n_fast = 100_000;
    let n_big = if quick { 100_000 } else { 1_000_000 };

    let small = trace(n_legacy);
    let fast_trace = trace(n_fast);
    let big = trace(n_big);

    let legacy_row = run_case("legacy", &small, replicas, &evals, |reqs| {
        simulate_fleet_legacy(&config, &mut *router(), reqs)
    });
    // Byte-identity gate: the rewrite must not move a single output byte.
    let fast_same = simulate_fleet(&config, &mut *router(), &small);
    assert_eq!(
        legacy_row.report.render(),
        fast_same.render(),
        "fast engine diverged from the seed engine on the bench trace"
    );

    let fast_row = gated_case("fast_1e5", &fast_trace, replicas, &evals, |reqs| {
        simulate_fleet(&config, &mut *router(), reqs)
    });

    let traced_row = run_case("traced_1e5", &fast_trace, replicas, &evals, |reqs| {
        let mut sink = StreamSink::tsv(std::io::sink());
        let report = simulate_fleet_traced(&config, &mut *router(), reqs, &mut sink);
        sink.finish_into().expect("sink write cannot fail");
        report
    });
    assert_eq!(
        fast_row.report.render(),
        traced_row.report.render(),
        "tracing changed the simulation output"
    );

    // Paged-KV case: same fleet plus a memory-derived block pool, on a
    // session trace sized to ~1e5 requests (20k sessions x ~5 turns).
    let (paged_config, paged_evals) = fleet();
    let paged_config = paged_config.with_kv(KvConfig::new());
    let paged_trace = session_trace(20_000);
    let paged_row = gated_case("paged_1e5", &paged_trace, replicas, &paged_evals, |reqs| {
        simulate_fleet(&paged_config, &mut *router(), reqs)
    });

    // Tensor-parallel case: the same 1e5 trace on the TP2 fleet. Every
    // routing prediction walks the sharded graph and adds the all-reduce
    // tax, so this bounds the memoized-pricing overhead of `core::tp`.
    let (tp_config, tp_evals) = tp_fleet();
    let tp_row = gated_case("tp_1e5", &fast_trace, replicas, &tp_evals, |reqs| {
        simulate_fleet(&tp_config, &mut *router(), reqs)
    });

    let serial_big_row = run_case("fast_serial_big", &big, replicas, &evals, |reqs| {
        simulate_fleet(&config, &mut *router(), reqs)
    });

    // At least four shards so the deal/merge machinery runs even on a
    // single-core host (where the case measures shard overhead, not gain).
    // Every cell is a full copy of the fleet, so this simulates
    // `shards.len()` times the replicas of `fast_serial_big`: a different
    // simulation, reported beside it rather than divided by it.
    let shards = shard_fleet(&config, &big, threads.max(4));
    let make_router: &(dyn Fn(usize) -> Box<dyn RouterPolicy> + Sync) = &|_| router();
    let sharded_big_row = run_case("sharded_big", &big, replicas * shards.len(), &evals, |_| {
        simulate_shards(&shards, make_router, threads)
    });

    let rows = [
        &legacy_row,
        &fast_row,
        &traced_row,
        &paged_row,
        &tp_row,
        &serial_big_row,
        &sharded_big_row,
    ];

    // In quick mode legacy ran a shorter trace, so compare rates, not walls.
    let speedup = fast_row.req_per_s() / legacy_row.req_per_s().max(1e-9);
    let traced_overhead = traced_row.wall_s / fast_row.wall_s.max(1e-9) - 1.0;

    let mut json = String::new();
    let mut w = |line: &str| {
        let _ = writeln!(json, "{line}");
    };
    w("{");
    w("  \"bench\": \"engine\",");
    w(&format!("  \"quick\": {quick},"));
    w(&format!(
        "  \"fleet\": {{ \"replicas\": 8, \"backend\": \"spr\", \"model\": \"opt_13b\", \"rate_per_s\": {RATE_PER_S} }},"
    ));
    w(&format!("  \"threads\": {threads},"));
    w(&format!("  \"cores\": {cores},"));
    w("  \"cases\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        w(&format!(
            "    {{ \"name\": \"{}\", \"requests\": {}, \"replicas\": {}, \"samples\": {}, \"wall_s\": {:.4}, \"req_per_s\": {:.1}, \"decode_step_evals\": {}, \"decode_step_runs\": {}, \"pricing_s\": {:.4}, \"pricing_share\": {:.3}, \"events\": {}, \"completed\": {}, \"rejected\": {} }}{}",
            row.name,
            row.requests,
            row.replicas,
            row.samples,
            row.wall_s,
            row.req_per_s(),
            row.pricing.decode_step_evals,
            row.pricing.decode_step_runs,
            row.pricing.pricing_s,
            row.pricing_share(),
            row.report.events_processed,
            row.report.completed(),
            row.report.rejected(),
            comma,
        ));
    }
    w("  ],");
    w(&format!("  \"speedup_vs_legacy\": {speedup:.1},"));
    w(&format!("  \"traced_overhead_frac\": {traced_overhead:.4}"));
    w("}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(2);
        });
        let field = |case: &str, key: &str| {
            baseline_field(&text, case, key).unwrap_or_else(|| {
                eprintln!("baseline {path} has no {case} {key}");
                std::process::exit(2);
            })
        };
        let mut failed = false;
        for row in [&fast_row, &paged_row, &tp_row] {
            let case = row.name;
            // Exact floor first: the pricing work of a fixed trace is
            // deterministic, so any rise is a real regression.
            let now = row.pricing.decode_step_evals;
            let base = field(case, "decode_step_evals");
            eprintln!("pricing floor: {case} {now} decode-step evals vs baseline {base:.0}");
            if now as f64 > base {
                eprintln!("FAIL: {case} made more decode-step evaluations than {path}");
                failed = true;
            }
            // Wall-clock backstop on the median sample, loose enough to
            // ride out host noise.
            let now = row.req_per_s();
            let base = field(case, "req_per_s");
            let floor = base * 0.7;
            eprintln!(
                "throughput floor: {case} {now:.0} req/s vs baseline {base:.0} (floor {floor:.0})"
            );
            if now < floor {
                eprintln!("FAIL: {case} regressed more than 30% against {path}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
