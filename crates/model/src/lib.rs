//! # llmsim-model — LLM architecture descriptions and operator graphs
//!
//! Decoder-only transformer configurations (OPT and LLaMA-2 families, §II-A
//! of the paper), closed-form weight and KV-cache footprint math (§II-B), and
//! per-phase operator graphs carrying exact FLOP/byte costs that the engine
//! executes.
//!
//! # Examples
//!
//! ```
//! use llmsim_model::{families, graph, dtype::DType};
//!
//! let model = families::llama2_13b();
//! let prefill = graph::prefill_graph(&model, 8, 128, DType::Bf16);
//! let decode = graph::decode_step_graph(&model, 8, 160, DType::Bf16);
//!
//! // Prefill is compute-dense; decode is memory-dense.
//! assert!(prefill.totals().arithmetic_intensity()
//!     > 10.0 * decode.totals().arithmetic_intensity());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dtype;
pub mod families;
pub mod footprint;
pub mod graph;
pub mod ops;
pub mod phases;

pub use config::{Family, FfnKind, ModelConfig};
pub use dtype::DType;
pub use graph::{
    decode_attention_graph, decode_step_graph, depends_on_kv_len, prefill_graph, GraphTotals,
    OpGraph,
};
pub use ops::{Matmul, OpClass, OpKind, Operator};
pub use phases::Phase;
