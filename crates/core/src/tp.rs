//! Tensor-parallel execution across sockets (UPI) or GPUs (NVLink) — the
//! §VI cross-socket scaling model, promoted to a first-class backend.
//!
//! [`TensorParallel`] wraps `degree` identical *shard* backends (each
//! configured with `with_tensor_degree`, so it executes the per-rank
//! Megatron shard: heads and FFN columns split, norms replicated) and adds
//! the cost the shards cannot see: **two all-reduces per decoder layer**
//! (after the attention output projection and after the FFN down
//! projection), each moving `tokens × d_model` activations over the
//! inter-socket or inter-GPU link.
//!
//! This is exactly the §VI mechanism. Prefill all-reduces carry
//! `batch × prompt_len` rows and are bandwidth-bound; decode all-reduces
//! carry `batch` rows, so their cost is dominated by the per-collective
//! software latency ([`calib::TP_ALLREDUCE_SW_S`]) and link latency — a
//! fixed per-layer tax that makes 2-socket decode scaling sublinear even
//! though each socket touches half the weights.
//!
//! ```
//! use llmsim_core::{Backend, CpuBackend, Request, TensorParallel};
//! use llmsim_model::families;
//!
//! let one = CpuBackend::paper_spr();
//! let two = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2)?;
//! let req = Request::paper_default(1);
//! let m = families::opt_13b();
//! let a = one.run(&m, &req)?;
//! let b = two.run(&m, &req)?;
//! let speedup = a.tpot.as_f64() / b.tpot.as_f64();
//! // Faster than one socket, slower than the ideal 2x: UPI-bound.
//! assert!(speedup > 1.0 && speedup < 2.0, "{speedup}");
//! # Ok::<(), llmsim_core::SimError>(())
//! ```

use crate::backend::{Backend, CostModel};
use crate::calib;
use crate::error::SimError;
use crate::report::InferenceReport;
use crate::request::Request;
use llmsim_hw::{presets, Bytes, GbPerSec, LinkSpec, Seconds};
use llmsim_model::{DType, ModelConfig};

/// A `degree`-way tensor-parallel group over identical shard backends.
///
/// `degree == 1` is a transparent pass-through: every method delegates to
/// the inner backend untouched, so a degree-1 group is byte-identical to
/// the plain backend (proptested in `tests/tp.rs`).
#[derive(Debug, Clone)]
pub struct TensorParallel<B> {
    /// One rank's backend, already configured to execute a `1/degree`
    /// shard of every graph.
    shard: B,
    degree: u64,
    /// The link every all-reduce crosses (UPI between sockets, NVLink
    /// between GPUs).
    link: LinkSpec,
    /// Element type of the all-reduced activations.
    act_dtype: DType,
}

impl<B> TensorParallel<B> {
    /// Wraps an already-sharded backend. `shard` must execute `1/degree`
    /// of every model (see `CpuBackend::with_tensor_degree` /
    /// `GpuBackend::with_tensor_degree`); this wrapper only adds the
    /// collective cost.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if `degree` is zero.
    pub fn new(shard: B, degree: u64, link: LinkSpec, act_dtype: DType) -> Result<Self, SimError> {
        if degree == 0 {
            return Err(SimError::UnsupportedConfig(
                "tensor-parallel degree must be at least 1".into(),
            ));
        }
        Ok(TensorParallel {
            shard,
            degree,
            link,
            act_dtype,
        })
    }

    /// The group's parallel degree.
    #[must_use]
    pub fn degree(&self) -> u64 {
        self.degree
    }

    /// The link all-reduces are priced on.
    #[must_use]
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// Wall-clock time of the all-reduces accompanying one forward pass
    /// over `tokens` token-rows (2 per layer, ring algorithm: each rank
    /// moves `2(p−1)/p` of the payload over the link).
    #[must_use]
    pub fn allreduce_time(&self, model: &ModelConfig, tokens: u64) -> Seconds {
        if self.degree <= 1 {
            return Seconds::ZERO;
        }
        let p = self.degree as f64;
        let payload = (tokens * model.d_model * self.act_dtype.bytes()) as f64;
        let wire = self
            .link
            .transfer_time(Bytes::new((payload * 2.0 * (p - 1.0) / p) as u64));
        let per_collective = Seconds::new(calib::TP_ALLREDUCE_SW_S) + wire;
        per_collective.scale(2.0 * model.n_layers as f64)
    }

    /// Bytes one rank pushes over the link for one forward pass over
    /// `tokens` token-rows (used for counter synthesis).
    fn allreduce_bytes(&self, model: &ModelConfig, tokens: u64) -> f64 {
        if self.degree <= 1 {
            return 0.0;
        }
        let p = self.degree as f64;
        let payload = (tokens * model.d_model * self.act_dtype.bytes()) as f64;
        payload * 2.0 * (p - 1.0) / p * 2.0 * model.n_layers as f64
    }
}

impl TensorParallel<crate::CpuBackend> {
    /// Splits a CPU backend across `degree` sockets over UPI — the §VI
    /// configuration. `socket` should be a *single-socket* backend (e.g.
    /// `CpuBackend::paper_spr()`, 48 cores); the group then models
    /// `degree` such sockets each running a shard.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if `degree` is zero.
    pub fn across_sockets(socket: crate::CpuBackend, degree: u64) -> Result<Self, SimError> {
        let act_dtype = socket.kv_dtype();
        let shard = socket.with_tensor_degree(degree)?;
        TensorParallel::new(shard, degree, presets::upi_link(), act_dtype)
    }
}

impl TensorParallel<crate::GpuBackend> {
    /// Splits a GPU backend across `degree` devices over NVLink. Sharding
    /// can make an otherwise-offloading model device-resident (the usual
    /// reason to TP on GPUs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if `degree` is zero.
    pub fn across_gpus(gpu: crate::GpuBackend, degree: u64) -> Result<Self, SimError> {
        let shard = gpu.with_tensor_degree(degree)?;
        TensorParallel::new(shard, degree, presets::nvlink_c2c(), DType::Bf16)
    }
}

impl<B: Backend> Backend for TensorParallel<B> {
    fn name(&self) -> String {
        if self.degree <= 1 {
            self.shard.name()
        } else {
            format!("tp{}[{}]", self.degree, self.shard.name())
        }
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        if self.degree <= 1 {
            return self.shard.run(model, request);
        }
        model
            .supports_tensor_parallel(self.degree)
            .map_err(SimError::InvalidRequest)?;
        let mut rep = self.shard.run(model, request)?;

        let prefill_tokens = request.batch * request.prompt_len;
        let pre_ar = self.allreduce_time(model, prefill_tokens);
        let step_ar = self.allreduce_time(model, request.batch);
        let steps = request.decode_steps();
        let dec_ar = step_ar.scale(steps as f64);

        rep.backend = self.name();
        rep.ttft += pre_ar;
        if steps > 0 {
            rep.tpot += step_ar;
        }
        rep.e2e_latency = rep.e2e_latency + pre_ar + dec_ar;
        rep.prefill.time += pre_ar;
        rep.decode.time += dec_ar;

        // The shard saw no cross-rank traffic; the group's link
        // utilization comes entirely from the all-reduces.
        let ar_bytes = self.allreduce_bytes(model, prefill_tokens)
            + self.allreduce_bytes(model, request.batch) * steps as f64;
        let cap = self.link.effective_bandwidth().bytes_per_sec();
        let elapsed = rep.e2e_latency.as_f64();
        rep.counters.upi_utilization = if cap > 0.0 && elapsed > 0.0 {
            (ar_bytes / (cap * elapsed)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Ok(rep)
    }
}

impl<B: CostModel> CostModel for TensorParallel<B> {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        let t = self.shard.prefill_time(model, batch, prompt_len);
        if self.degree <= 1 {
            return t;
        }
        t + self.allreduce_time(model, batch * prompt_len)
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        let t = self.shard.decode_step_time(model, batch, kv_len);
        if self.degree <= 1 {
            return t;
        }
        t + self.allreduce_time(model, batch)
    }

    fn decode_step_times(
        &self,
        model: &ModelConfig,
        batch: u64,
        first_kv_len: u64,
        out: &mut [f64],
    ) {
        self.shard
            .decode_step_times(model, batch, first_kv_len, out);
        if self.degree <= 1 {
            return;
        }
        // The all-reduce depends only on `batch`: price it once per row.
        let ar = self.allreduce_time(model, batch);
        for t in out.iter_mut() {
            *t = (Seconds::new(*t) + ar).as_f64();
        }
    }

    fn weight_bytes(&self, model: &ModelConfig) -> Bytes {
        // The group as a whole still stores (and cold-loads) every weight.
        self.shard.weight_bytes(model)
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        // Each rank pages its own shard concurrently.
        if self.degree <= 1 {
            self.shard.weight_load_bandwidth()
        } else {
            self.shard.weight_load_bandwidth().scale(self.degree as f64)
        }
    }

    fn holds_resident(&self, model: &ModelConfig) -> bool {
        // Residency is decided per rank: each holds 1/degree of the
        // weights (the shard backend already sizes that).
        self.shard.holds_resident(model)
    }

    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes {
        // KV is head-sharded: each rank stores 1/degree of every
        // sequence's cache, so group capacity is the sum over ranks.
        let per_rank = self.shard.kv_capacity_bytes(models);
        if self.degree <= 1 {
            per_rank
        } else {
            Bytes::new(per_rank.get().saturating_mul(self.degree))
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;
    use crate::{CpuBackend, GpuBackend};
    use llmsim_model::families;

    #[test]
    fn two_socket_decode_is_sublinear_and_upi_bound() {
        // §VI's shape: TP-2 beats one socket but falls short of 2x, and
        // far short of it at batch 1 where the per-layer all-reduce
        // latency dominates the halved weight stream.
        let one = CpuBackend::paper_spr();
        let two = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2).unwrap();
        let m = families::opt_13b();
        for batch in [1u64, 8] {
            let req = Request::paper_default(batch);
            let a = one.run(&m, &req).unwrap();
            let b = two.run(&m, &req).unwrap();
            let decode_speedup = a.tpot.as_f64() / b.tpot.as_f64();
            assert!(
                decode_speedup > 1.0 && decode_speedup < 2.0,
                "b={batch}: decode speedup {decode_speedup}"
            );
            let prefill_speedup = a.ttft.as_f64() / b.ttft.as_f64();
            assert!(
                prefill_speedup > 1.0 && prefill_speedup < 2.0,
                "b={batch}: prefill speedup {prefill_speedup}"
            );
            // The single socket never crosses UPI; the group does.
            assert_eq!(a.counters.upi_utilization, 0.0);
            assert!(b.counters.upi_utilization > 0.0);
        }
    }

    #[test]
    fn deeper_tp_keeps_shrinking_decode_latency() {
        let m = families::llama2_70b();
        let req = Request::paper_default(4);
        let t2 = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2)
            .unwrap()
            .run(&m, &req)
            .unwrap();
        let t4 = TensorParallel::across_sockets(CpuBackend::paper_spr(), 4)
            .unwrap()
            .run(&m, &req)
            .unwrap();
        assert!(t4.tpot < t2.tpot);
        // But efficiency decays: 4 ranks don't reach 2x the 2-rank speed.
        assert!(t4.tpot.as_f64() > t2.tpot.as_f64() / 2.0);
    }

    #[test]
    fn cost_model_times_match_report_phases() {
        let tp = TensorParallel::across_sockets(CpuBackend::paper_spr(), 2).unwrap();
        let m = families::opt_13b();
        let req = Request::new(4, 512, 16);
        let rep = tp.run(&m, &req).unwrap();
        let prefill = tp.prefill_time(&m, req.batch, req.prompt_len);
        assert!((rep.ttft.as_f64() - prefill.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn tp_makes_offloading_gpu_model_resident() {
        // OPT-66B BF16 (132 GB) offloads on one A100-40GB but shards to
        // residency across four, which is worth an order of magnitude.
        let one = GpuBackend::paper_a100();
        let four = TensorParallel::across_gpus(GpuBackend::paper_a100(), 4).unwrap();
        let m = families::opt_66b();
        let req = Request::paper_default(1);
        let a = one.run(&m, &req).unwrap();
        let b = four.run(&m, &req).unwrap();
        assert!(a.offload.is_some());
        assert!(b.offload.is_none());
        assert!(b.e2e_latency.as_f64() < a.e2e_latency.as_f64() / 4.0);
    }

    #[test]
    fn indivisible_model_is_rejected() {
        let tp = TensorParallel::across_sockets(CpuBackend::paper_spr(), 3).unwrap();
        // 50 280 vocab / 32 heads: degree 3 divides neither.
        let err = tp
            .run(&families::opt_6_7b(), &Request::paper_default(1))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn degree_one_is_plain_backend() {
        let plain = CpuBackend::paper_spr();
        let tp = TensorParallel::across_sockets(CpuBackend::paper_spr(), 1).unwrap();
        let m = families::llama2_13b();
        let req = Request::paper_default(8);
        let a = plain.run(&m, &req).unwrap();
        let b = tp.run(&m, &req).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(plain.name(), tp.name());
    }
}
