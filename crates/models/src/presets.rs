//! Model size presets matching the paper's workload table (Table 4).

use serde::{Deserialize, Serialize};

use crate::arch::{AttentionImpl, Family, ModelSpec};

/// Model scale from Table 4 (billions of parameters).
///
/// The motivating examples use "2.7B" and "7B"; those are the same
/// configurations as 2.6B / 6.7B (standard GPT-3 size ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelSize {
    /// ≈1.3B parameters: 24 layers × 2048 hidden.
    B1_3,
    /// ≈2.6B parameters: 32 layers × 2560 hidden.
    B2_6,
    /// ≈6.7B parameters: 32 layers × 4096 hidden.
    B6_7,
    /// ≈13B parameters: 40 layers × 5120 hidden.
    B13,
    /// ≈22B parameters: 48 layers × 6144 hidden.
    B22,
    /// ≈40B parameters: 48 layers × 8192 hidden (used in §6.3's A100 case).
    B40,
}

impl ModelSize {
    /// `(layers, hidden, heads)` of the preset.
    pub fn dims(self) -> (u32, u64, u64) {
        match self {
            ModelSize::B1_3 => (24, 2048, 16),
            ModelSize::B2_6 => (32, 2560, 32),
            ModelSize::B6_7 => (32, 4096, 32),
            ModelSize::B13 => (40, 5120, 40),
            ModelSize::B22 => (48, 6144, 48),
            ModelSize::B40 => (48, 8192, 64),
        }
    }

    /// All Table 4 sizes in ascending order.
    pub fn table4() -> [ModelSize; 5] {
        [
            ModelSize::B1_3,
            ModelSize::B2_6,
            ModelSize::B6_7,
            ModelSize::B13,
            ModelSize::B22,
        ]
    }

    /// Short label, e.g. `"2.6B"`.
    pub fn label(self) -> &'static str {
        match self {
            ModelSize::B1_3 => "1.3B",
            ModelSize::B2_6 => "2.6B",
            ModelSize::B6_7 => "6.7B",
            ModelSize::B13 => "13B",
            ModelSize::B22 => "22B",
            ModelSize::B40 => "40B",
        }
    }
}

/// Rounds `8h/3` up to a multiple of 256 (LLaMa's SwiGLU sizing rule).
fn swiglu_ffn(hidden: u64) -> u64 {
    let raw = 8 * hidden / 3;
    raw.div_ceil(256) * 256
}

/// Builds a GPT-3 model at a preset size.
pub fn gpt3(size: ModelSize, seq_len: u64, attention: AttentionImpl) -> ModelSpec {
    let (layers, hidden, heads) = size.dims();
    ModelSpec {
        family: Family::Gpt3,
        name: format!("GPT-3 {}", size.label()),
        num_layers: layers,
        hidden,
        heads,
        ffn_hidden: 4 * hidden,
        vocab: 50304,
        seq_len,
        attention,
    }
}

/// GPT-3 with an explicit layer count (Fig. 14's depth sweep).
pub fn gpt3_with_layers(
    size: ModelSize,
    num_layers: u32,
    seq_len: u64,
    attention: AttentionImpl,
) -> ModelSpec {
    let mut spec = gpt3(size, seq_len, attention);
    spec.num_layers = num_layers;
    spec.name = format!("GPT-3 {} ({} layers)", size.label(), num_layers);
    spec
}

/// Builds a LLaMa model at a preset size.
pub fn llama(size: ModelSize, seq_len: u64, attention: AttentionImpl) -> ModelSpec {
    let (layers, hidden, heads) = size.dims();
    ModelSpec {
        family: Family::Llama,
        name: format!("LLaMa {}", size.label()),
        num_layers: layers,
        hidden,
        heads,
        ffn_hidden: swiglu_ffn(hidden),
        vocab: 32000,
        seq_len,
        attention,
    }
}

/// Builds a Falcon model at a preset size.
pub fn falcon(size: ModelSize, seq_len: u64, attention: AttentionImpl) -> ModelSpec {
    let (layers, hidden, heads) = size.dims();
    ModelSpec {
        family: Family::Falcon,
        name: format!("Falcon {}", size.label()),
        num_layers: layers,
        hidden,
        heads,
        ffn_hidden: 4 * hidden,
        vocab: 65024,
        seq_len,
        attention,
    }
}

/// Every preset size, in ascending order.
const SIZES: [ModelSize; 6] = [
    ModelSize::B1_3,
    ModelSize::B2_6,
    ModelSize::B6_7,
    ModelSize::B13,
    ModelSize::B22,
    ModelSize::B40,
];

/// The 18 `family-size` preset names [`preset`] accepts, in listing
/// order: `gpt3-1.3b` … `falcon-40b`.
pub fn preset_names() -> Vec<String> {
    ["gpt3", "llama", "falcon"]
        .iter()
        .flat_map(|family| {
            SIZES
                .iter()
                .map(move |size| format!("{family}-{}", size.label().to_ascii_lowercase()))
        })
        .collect()
}

/// Longest sequence a preset accepts. With micro-batches of at most
/// 512 and at most 64 heads, this keeps the tracer's integer products
/// such as `b·heads·s²` (≤ 2^55) inside `u64`.
const MAX_SEQ_LEN: u64 = 1 << 20;

/// Builds a model from a `family-size` preset name, in any case:
/// family `gpt3` (or `gpt`), `llama` or `falcon`; size one of
/// [`ModelSize::label`], or the motivating examples' `2.7b` and `7b`.
/// `seq_len` must lie in `1..=2^20`.
pub fn preset(name: &str, seq_len: u64, attention: AttentionImpl) -> Result<ModelSpec, String> {
    if !(1..=MAX_SEQ_LEN).contains(&seq_len) {
        return Err(format!(
            "sequence length {seq_len} is outside 1..={MAX_SEQ_LEN}"
        ));
    }
    let (family, size) = name
        .split_once('-')
        .ok_or_else(|| format!("bad model name `{name}` (expected family-size)"))?;
    let size = match size.to_ascii_lowercase().as_str() {
        "2.7b" => ModelSize::B2_6,
        "7b" => ModelSize::B6_7,
        other => *SIZES
            .iter()
            .find(|s| s.label().eq_ignore_ascii_case(other))
            .ok_or_else(|| format!("unknown model size `{other}`"))?,
    };
    match family.to_ascii_lowercase().as_str() {
        "gpt3" | "gpt" => Ok(gpt3(size, seq_len, attention)),
        "llama" => Ok(llama(size, seq_len, attention)),
        "falcon" => Ok(falcon(size, seq_len, attention)),
        other => Err(format!("unknown model family `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_total_params_match_labels() {
        // Within 10% of the nominal size.
        for (size, nominal) in [
            (ModelSize::B1_3, 1.3e9),
            (ModelSize::B2_6, 2.6e9),
            (ModelSize::B6_7, 6.7e9),
            (ModelSize::B13, 13e9),
            (ModelSize::B22, 22e9),
        ] {
            let spec = gpt3(size, 2048, AttentionImpl::Flash);
            let total = spec.total_params() as f64;
            let rel = (total - nominal).abs() / nominal;
            assert!(rel < 0.10, "{}: {total:.3e} vs {nominal:.1e}", spec.name);
        }
    }

    #[test]
    fn llama_and_falcon_sizes_are_comparable_to_gpt() {
        for size in ModelSize::table4() {
            let g = gpt3(size, 2048, AttentionImpl::Flash).total_params() as f64;
            let l = llama(size, 2048, AttentionImpl::Flash).total_params() as f64;
            let f = falcon(size, 2048, AttentionImpl::Flash).total_params() as f64;
            assert!((l / g - 1.0).abs() < 0.12, "llama {l:.3e} vs gpt {g:.3e}");
            assert!((f / g - 1.0).abs() < 0.12, "falcon {f:.3e} vs gpt {g:.3e}");
        }
    }

    #[test]
    fn swiglu_rounding_is_multiple_of_256() {
        for h in [2048u64, 2560, 4096, 5120, 6144] {
            let f = swiglu_ffn(h);
            assert_eq!(f % 256, 0);
            assert!(f >= 8 * h / 3);
            assert!(f < 8 * h / 3 + 256);
        }
    }

    #[test]
    fn heads_divide_hidden() {
        for size in ModelSize::table4() {
            let (_, h, heads) = size.dims();
            assert_eq!(h % heads, 0, "{size:?}");
        }
    }

    #[test]
    fn preset_bounds_sequence_length() {
        let flash = AttentionImpl::Flash;
        assert!(preset("gpt3-6.7b", MAX_SEQ_LEN, flash).is_ok());
        for seq in [0, MAX_SEQ_LEN + 1, 1 << 62] {
            assert!(preset("gpt3-6.7b", seq, flash).is_err(), "seq {seq}");
        }
    }

    #[test]
    fn custom_layer_count_applies() {
        let spec = gpt3_with_layers(ModelSize::B22, 80, 2048, AttentionImpl::Standard);
        assert_eq!(spec.num_layers, 80);
        assert!(spec.name.contains("80 layers"));
    }
}
