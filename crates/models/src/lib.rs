//! Transformer model definitions for Mist: GPT-3, LLaMa and Falcon
//! families at the sizes of the paper's workload table (Table 4), plus the
//! structural layer description the symbolic tracer consumes.
//!
//! A model here is *shapes, parameter counts and an op list* — never
//! weights. Mist only reasons about time and memory, so this is all the
//! fidelity the original system extracts from `torch.fx` traces as well.

mod arch;
mod presets;
mod stats;

pub use arch::{AttentionImpl, Family, LayerOp, LayerOpKind, ModelSpec, Shard};
pub use presets::{falcon, gpt3, gpt3_with_layers, llama, preset, preset_names, ModelSize};
pub use stats::ModelStats;
