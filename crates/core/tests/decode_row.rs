//! Row-exactness of `CostModel::decode_step_times`.
//!
//! Pricing a row of consecutive decode steps in one call must give, slot
//! for slot, the same bits as pricing each step on its own with
//! `decode_step_time` — the fleet engine's per-step price table relies on
//! it for byte-identical reports. The CPU backend reuses the priced
//! operators that do not depend on `kv_len` while the decode bandwidth
//! holds, so the cases here cover every backend option that changes a
//! step graph or its pricing, and a flat-mode configuration whose
//! bandwidth moves inside a row.

use llmsim_core::{CostModel, CpuBackend, GpuBackend, TensorParallel};
use llmsim_hw::{NumaConfig, Seconds};
use llmsim_model::{families, DType, ModelConfig};
use proptest::prelude::*;

/// Every configuration under test, by name.
fn backends() -> Vec<(&'static str, Box<dyn CostModel>)> {
    let spr = CpuBackend::paper_spr;
    let tp = |degree| TensorParallel::across_sockets(spr(), degree).unwrap();
    vec![
        ("spr", Box::new(spr())),
        ("icl", Box::new(CpuBackend::paper_icl())),
        ("spr_tp1", Box::new(tp(1))),
        ("spr_tp2", Box::new(tp(2))),
        ("spr_tp4", Box::new(tp(4))),
        ("spr_int8", Box::new(spr().with_weight_dtype(DType::Int8))),
        ("spr_keep_half", Box::new(spr().with_kv_keep_ratio(0.5))),
        (
            "spr_attn_overhead",
            Box::new(spr().with_attention_overhead(Seconds::from_micros(750.0))),
        ),
        (
            "spr_tp2_int8_keep_half",
            Box::new(
                TensorParallel::across_sockets(
                    spr().with_weight_dtype(DType::Int8).with_kv_keep_ratio(0.5),
                    2,
                )
                .unwrap(),
            ),
        ),
        ("a100", Box::new(GpuBackend::paper_a100())),
    ]
}

/// Models every configuration above can shard four ways.
fn models() -> [ModelConfig; 3] {
    [
        families::opt_13b(),
        families::llama2_7b(),
        families::llama2_13b(),
    ]
}

/// Asserts `backend`'s row from `first` over `len` slots matches the
/// per-step method bit for bit.
fn assert_row_exact(
    name: &str,
    backend: &dyn CostModel,
    m: &ModelConfig,
    batch: u64,
    first: u64,
    len: usize,
) {
    let mut row = vec![f64::NAN; len];
    backend.decode_step_times(m, batch, first, &mut row);
    for (kv_len, got) in (first..).zip(&row) {
        let want = backend.decode_step_time(m, batch, kv_len).as_f64();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name} {} b={batch} row from {first}: kv {kv_len} priced {got} vs {want}",
            m.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_matches_per_step_pricing(
        batch in 1u64..33,
        first in 1u64..2049,
        len in 0usize..65,
        model_ix in 0usize..3,
    ) {
        let m = &models()[model_ix];
        for (name, backend) in backends() {
            assert_row_exact(name, backend.as_ref(), m, batch, first, len);
        }
    }
}

#[test]
fn empty_row_prices_nothing() {
    // Zero batch and context would panic if anything were priced.
    for (_, backend) in backends() {
        backend.decode_step_times(&families::opt_13b(), 0, 0, &mut []);
    }
}

#[test]
fn row_is_exact_where_flat_mode_hbm_spills_mid_row() {
    // OPT-30B's ~60 GB of BF16 weights nearly fill one SPR socket's 64 GB
    // of HBM in flat mode; a growing KV cache spills the rest to DDR, after
    // which every step's HBM fraction, and so its decode bandwidth, moves.
    let cpu = llmsim_hw::presets::spr_max_9468();
    let spr = CpuBackend::new(cpu, NumaConfig::QUAD_FLAT, 48, DType::Bf16).unwrap();
    let m = families::opt_30b();
    let batch = 16;
    let bandwidth = |kv| spr.decode_bandwidth(&m, batch, kv).as_f64().to_bits();
    let spill = (9..4096)
        .find(|&kv| bandwidth(kv) != bandwidth(kv - 1))
        .expect("the KV cache spills out of HBM within 4096 tokens");
    // The row below holds the bandwidth for its first steps (reuse) and
    // moves it at and after the spill (re-price): neither path is vacuous.
    let first = spill - 8;
    assert_eq!(bandwidth(first), bandwidth(first + 1));
    assert_ne!(bandwidth(spill), bandwidth(spill + 1));
    assert_row_exact("spr_flat_spill", &spr, &m, batch, first, 40);
    let tp2 = TensorParallel::across_sockets(spr, 2).unwrap();
    assert_row_exact("spr_flat_spill_tp2", &tp2, &m, batch, first, 40);
}
