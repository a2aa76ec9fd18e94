//! Ordered parallel execution across worker threads.

use llmsim_core::{Backend, InferenceReport, Request, SimError};
use llmsim_workload::SweepPoint;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maps `f` over `items` on up to `workers` threads, returning the results
/// in input order.
///
/// Workers claim items through an atomic cursor and publish each result
/// into its own pre-allocated [`OnceLock`] slot, so there is no shared lock
/// on the result vector: slots are disjoint by construction and each is
/// written exactly once by whichever worker claimed that index. The output
/// is therefore independent of `workers` and of completion order.
///
/// # Panics
///
/// Panics if `workers` is zero or `f` panics.
pub fn par_map<T: Sync, R: Send + Sync>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    assert!(workers > 0, "need at least one worker");
    let slots: Vec<OnceLock<R>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                slots[i]
                    .set(f(&items[i]))
                    .unwrap_or_else(|_| panic!("slot {i} claimed twice"));
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every item was visited"))
        .collect()
}

/// Runs every sweep point against `backend` across `workers` threads,
/// preserving input order in the output (see [`par_map`]).
///
/// # Errors
///
/// Returns the first [`SimError`] encountered (remaining points still run).
///
/// # Panics
///
/// Panics if `workers` is zero or a worker thread panics.
pub fn run_sweep<B: Backend + Sync>(
    backend: &B,
    points: &[SweepPoint],
    workers: usize,
) -> Result<Vec<InferenceReport>, SimError> {
    par_map(points, workers, |p| {
        let model = llmsim_workload::sweep::resolve_model(p);
        Request::try_new(p.batch, p.prompt_len, p.gen_len).and_then(|req| backend.run(&model, &req))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim_core::CpuBackend;
    use llmsim_workload::sweep;

    #[test]
    fn parallel_matches_serial() {
        let backend = CpuBackend::paper_spr();
        let points: Vec<_> = sweep::paper_grid().into_iter().take(6).collect();
        let par = run_sweep(&backend, &points, 4).unwrap();
        let ser = run_sweep(&backend, &points, 1).unwrap();
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.model, b.model);
            assert!((a.e2e_latency.as_f64() - b.e2e_latency.as_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn oversubscribed_workers_match_serial() {
        let backend = CpuBackend::paper_spr();
        let points: Vec<_> = sweep::paper_grid().into_iter().take(3).collect();
        // More workers than points: extra workers exit without claiming.
        let par = run_sweep(&backend, &points, 16).unwrap();
        assert_eq!(par.len(), points.len());
    }
}
