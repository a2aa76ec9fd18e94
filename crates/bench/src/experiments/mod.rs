//! One module per paper table/figure plus ablations; each exposes `run()`
//! returning structured results and `render()` producing the printable
//! artifact. [`EXPERIMENTS`] names every artifact in paper order; the
//! DESIGN.md experiment index maps figures to these modules.

pub mod ablations;
pub mod ext_chaos;
pub mod ext_cluster;
pub mod ext_kvcache;
pub mod ext_memory;
pub mod ext_multisocket;
pub mod ext_resilience;
pub mod ext_speculative;
pub mod ext_trace;
pub mod extensions;
pub mod fig01_gemm;
pub mod fig06_07_footprints;
pub mod fig08_10_cpu_comparison;
pub mod fig11_12_counters;
pub mod fig13_15_numa;
pub mod fig14_16_cores;
pub mod fig17_19_cpu_vs_gpu;
pub mod fig18_offload;
pub mod fig20_21_seqlen;
pub mod tables;

/// One registry entry: the experiment's name — its `all_experiments
/// --only` selector and its `results/<name>.txt` artifact — and the
/// function that renders it.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, in paper order. This is the only list of them: stdout,
/// `--out` artifacts, `--only` selection and the `results/` golden test all
/// read it. Each entry is independent of the others (figures 8–10 each run
/// their own `CpuComparison`), so they can be rendered concurrently.
pub const EXPERIMENTS: [Experiment; 29] = [
    ("table1_cpus", tables::render_table1),
    ("table2_gpus", tables::render_table2),
    ("fig01_gemm", fig01_gemm::render),
    ("fig06_weights", fig06_07_footprints::render_fig6),
    ("fig07_kvcache", fig06_07_footprints::render_fig7),
    ("fig08_icl_vs_spr", || {
        fig08_10_cpu_comparison::render_fig8(&fig08_10_cpu_comparison::CpuComparison::run())
    }),
    ("fig09_phase_latency", || {
        fig08_10_cpu_comparison::render_fig9(&fig08_10_cpu_comparison::CpuComparison::run())
    }),
    ("fig10_phase_throughput", || {
        fig08_10_cpu_comparison::render_fig10(&fig08_10_cpu_comparison::CpuComparison::run())
    }),
    ("fig11_counters_llama13b", || {
        fig11_12_counters::render(&fig11_12_counters::run_fig11(), "Fig. 11")
    }),
    ("fig12_counters_opt66b", || {
        fig11_12_counters::render(&fig11_12_counters::run_fig12(), "Fig. 12")
    }),
    ("fig13_numa_modes", || {
        fig13_15_numa::render_fig13(&fig13_15_numa::run_fig13())
    }),
    ("fig14_core_sweep", || {
        fig14_16_cores::render_fig14(&fig14_16_cores::run_fig14())
    }),
    ("fig15_counters_numa", || {
        fig13_15_numa::render_fig15(&fig13_15_numa::run_fig15())
    }),
    ("fig16_counters_cores", || {
        fig14_16_cores::render_fig16(&fig14_16_cores::run_fig16())
    }),
    ("fig17_cpu_vs_gpu_b1", || {
        fig17_19_cpu_vs_gpu::render(&fig17_19_cpu_vs_gpu::run(1), "Fig. 17", 1)
    }),
    ("fig18_offload_breakdown", || {
        fig18_offload::render(&fig18_offload::run())
    }),
    ("fig19_cpu_vs_gpu_b16", || {
        fig17_19_cpu_vs_gpu::render(&fig17_19_cpu_vs_gpu::run(16), "Fig. 19", 16)
    }),
    ("fig20_seqlen_b1", || {
        fig20_21_seqlen::render(&fig20_21_seqlen::run(1), "Fig. 20")
    }),
    ("fig21_seqlen_b16", || {
        fig20_21_seqlen::render(&fig20_21_seqlen::run(16), "Fig. 21")
    }),
    ("ablations", ablations::render),
    ("extensions", extensions::render),
    ("ext_memory", ext_memory::render),
    ("ext_speculative", ext_speculative::render),
    ("ext_resilience", ext_resilience::render),
    ("ext_cluster", ext_cluster::render),
    ("ext_kvcache", ext_kvcache::render),
    ("ext_multisocket", ext_multisocket::render),
    ("ext_trace", ext_trace::render),
    ("ext_chaos", ext_chaos::render),
];

/// Renders every experiment in paper order (the `all_experiments` stdout),
/// across `workers` threads, joined by `"\n"`.
///
/// # Panics
///
/// Panics if `workers` is zero or an experiment panics.
#[must_use]
pub fn render_all_with_workers(workers: usize) -> String {
    crate::runner::par_map(&EXPERIMENTS, workers, |(_, render)| render()).join("\n")
}

/// Default worker count for rendering: the machine's parallelism.
#[must_use]
pub fn default_render_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod render_all_tests {
    use super::*;

    #[test]
    fn parallel_render_is_byte_identical_to_serial() {
        let serial = render_all_with_workers(1);
        let parallel = render_all_with_workers(8);
        assert_eq!(serial, parallel);
        // Sections land in paper order regardless of completion order.
        let t1 = serial.find("Table I").expect("Table I present");
        let fig20 = serial.find("Fig. 20").expect("Fig. 20 present");
        assert!(t1 < fig20);
    }

    /// `results/` holds exactly one artifact per registry entry, each
    /// byte-identical to that entry's render. When an experiment's output
    /// changes on purpose, regenerate with `all_experiments --out results`.
    #[test]
    fn results_dir_is_pinned_to_the_registry() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let rendered =
            crate::runner::par_map(&EXPERIMENTS, default_render_workers(), |(_, render)| {
                render()
            });
        for ((name, _), text) in EXPERIMENTS.iter().zip(&rendered) {
            let path = dir.join(format!("{name}.txt"));
            let pinned = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                pinned == *text,
                "{} is stale; regenerate with `all_experiments --out results`",
                path.display()
            );
        }

        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("results/ is readable")
            .map(|entry| entry.expect("results/ entry").file_name())
            .filter_map(|name| name.to_str().map(str::to_owned))
            .filter(|name| name.ends_with(".txt"))
            .collect();
        on_disk.sort_unstable();
        let mut expected: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| format!("{name}.txt"))
            .collect();
        expected.sort_unstable();
        assert_eq!(
            on_disk, expected,
            "results/ holds an artifact no experiment renders"
        );
    }
}
