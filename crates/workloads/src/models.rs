//! DNN / LLM layer-shape database.
//!
//! Every network the paper evaluates (Figures 11–13) is represented as the
//! list of GEMMs its layers lower to. Channel tables follow the published
//! architectures; attention layers are decomposed into their constituent
//! GEMMs. Shapes — especially the reduction dimension K — are what drive
//! the column-synchronous utilization results, so they are kept faithful;
//! minor bookkeeping layers (biases, norms) are omitted as the paper does.

use std::sync::{Arc, OnceLock};

use crate::hash::Fnv1a;
use crate::img2col::ConvShape;
use tpe_arith::Precision;

/// One GEMM-shaped layer: `C[m×n] = A[m×k] · B[k×n]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShape {
    /// Human-readable layer label (used as figure x-axis labels).
    pub name: String,
    /// Output rows (e.g. output channels, or tokens).
    pub m: usize,
    /// Output columns (e.g. output pixels, or features).
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// How many times this GEMM repeats in the network (e.g. per-group
    /// depthwise repeats, per-layer transformer repeats).
    pub repeats: usize,
    /// Layer-level operand precision override for mixed-precision
    /// schedules (`None` inherits the engine's precision — the default,
    /// and bit-identical to the pre-precision behavior). On serial
    /// engines a lower-precision layer streams proportionally fewer
    /// digits; dense parallel engines complete one full-width MAC per
    /// lane-cycle regardless, so the override only changes their
    /// numerics, not their schedule.
    pub precision: Option<Precision>,
}

impl LayerShape {
    /// Creates a layer shape at the engine-inherited (default) precision.
    pub fn new(name: impl Into<String>, m: usize, n: usize, k: usize, repeats: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0 && repeats > 0);
        Self {
            name: name.into(),
            m,
            n,
            k,
            repeats,
            precision: None,
        }
    }

    /// The same layer pinned to an explicit operand precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// From a convolution via img2col (one group).
    pub fn from_conv(name: impl Into<String>, conv: &ConvShape) -> Self {
        let (m, n, k) = conv.gemm_dims();
        Self::new(name, m, n, k, conv.groups)
    }

    /// Total multiply–accumulate count, or `None` when `m·n·k·repeats`
    /// does not fit a `u64`.
    pub fn checked_macs(&self) -> Option<u64> {
        [self.n, self.k, self.repeats]
            .into_iter()
            .try_fold(self.m as u64, |acc, d| acc.checked_mul(d as u64))
    }

    /// Total multiply–accumulate count.
    ///
    /// # Panics
    ///
    /// Panics when the count overflows a `u64` (see [`Self::validate`]
    /// for the checked form).
    pub fn macs(&self) -> u64 {
        self.checked_macs().expect("layer MAC count overflows u64")
    }

    /// Checks that every count derived from the shape stays exact: the
    /// MAC count must not exceed [`MAX_LAYER_MACS`], so it, the tile and
    /// element counts below it, and their `f64` images are all exact.
    /// Returns the MAC count.
    pub fn validate(&self) -> Result<u64, ShapeError> {
        match self.checked_macs() {
            Some(macs) if macs <= MAX_LAYER_MACS => Ok(macs),
            _ => Err(ShapeError {
                m: self.m,
                n: self.n,
                k: self.k,
                repeats: self.repeats,
            }),
        }
    }

    /// Distinct element counts of one GEMM instance —
    /// `(weights, activations, outputs)` = `(k·n, m·k, m·n)`. This is the
    /// byte-count basis of the memory-traffic model (multiply by repeats
    /// and the per-element byte width for a full layer). Each is at most
    /// the MAC count, so a shape that passes [`Self::validate`] cannot
    /// overflow here.
    pub fn operand_elems(&self) -> (u64, u64, u64) {
        let product = |a: usize, b: usize| {
            (a as u64)
                .checked_mul(b as u64)
                .expect("layer element count overflows u64")
        };
        (
            product(self.k, self.n),
            product(self.m, self.k),
            product(self.m, self.n),
        )
    }
}

/// The largest per-layer MAC count the evaluation accepts: 2^53, below
/// which every integer is exact as an `f64` (delays, throughput and
/// energy are computed in `f64`). About 9·10^15 MACs, three orders of
/// magnitude above any catalog layer.
pub const MAX_LAYER_MACS: u64 = 1 << 53;

/// A layer shape whose MAC count exceeds [`MAX_LAYER_MACS`] (or a `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// GEMM rows.
    pub m: usize,
    /// GEMM columns.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Repeat count.
    pub repeats: usize,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let macs = [self.n, self.k, self.repeats]
            .into_iter()
            .fold(self.m as u128, |acc, d| acc.saturating_mul(d as u128));
        write!(
            f,
            "layer {}x{}x{} r{} is out of range: {} MACs exceed the limit of 2^53",
            self.m, self.n, self.k, self.repeats, macs
        )
    }
}

impl std::error::Error for ShapeError {}

/// A network's layers, in execution order: an immutable, shared list
/// that carries its own content hash.
///
/// Cloning bumps a reference count instead of copying layers, and the
/// FNV-1a content hash (the content half of every whole-model cache key)
/// is computed once, when the list is built, instead of on every lookup.
/// There is no in-place mutator, so the hash cannot go stale: to edit a
/// network, build a new list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerList {
    layers: Arc<[LayerShape]>,
    hash: u64,
}

impl LayerList {
    /// The FNV-1a content hash over the whole list: layer count, then per
    /// layer its name (NUL-terminated so boundaries are unambiguous), GEMM
    /// dims, repeat count and optional precision override. Two lists with
    /// different content hash apart (up to 64-bit collisions).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Whether two lists share one allocation (a clone of the same list).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.layers, &b.layers)
    }
}

/// The content hash's byte stream, fed layer by layer.
fn content_hash(layers: &[LayerShape]) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(layers.len() as u64);
    for layer in layers {
        h.write(layer.name.as_bytes());
        h.write(&[0]);
        for dim in [layer.m, layer.n, layer.k, layer.repeats] {
            h.write_u64(dim as u64);
        }
        match layer.precision {
            None => h.write(&[0]),
            Some(p) => {
                h.write(&[1]);
                for bits in [p.a_bits, p.b_bits, p.acc_bits] {
                    h.write_u64(u64::from(bits));
                }
            }
        }
    }
    h.finish()
}

impl From<Vec<LayerShape>> for LayerList {
    fn from(layers: Vec<LayerShape>) -> Self {
        let hash = content_hash(&layers);
        Self {
            layers: layers.into(),
            hash,
        }
    }
}

impl FromIterator<LayerShape> for LayerList {
    fn from_iter<I: IntoIterator<Item = LayerShape>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl std::ops::Deref for LayerList {
    type Target = [LayerShape];

    fn deref(&self) -> &[LayerShape] {
        &self.layers
    }
}

/// A network: an ordered list of GEMM layers.
///
/// The layer list is shared: cloning a network (into every design point
/// of a sweep, every result, every serve request) bumps a reference count
/// instead of copying its layers or rehashing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkModel {
    /// Network name as used in Figure 12/13 labels.
    pub name: String,
    /// The layers, in execution order.
    pub layers: LayerList,
}

/// The process's one catalog: [`NetworkModel::all`] followed by the
/// mixed-precision presets, built (and content-hashed) on first use.
fn shared_catalog() -> &'static [NetworkModel] {
    static CATALOG: OnceLock<Vec<NetworkModel>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        vec![
            resnet18(),
            resnet50(),
            vgg16(),
            mobilenet_v2(),
            mobilenet_v3(),
            efficientnet_b0(),
            mobilevit_s(),
            vit_b16(),
            gpt2(),
            bert_base(),
            resnet18_quantized(),
        ]
    })
}

/// How many leading [`shared_catalog`] entries form the paper's sweep.
const PAPER_NETWORKS: usize = 10;

impl NetworkModel {
    /// Total MACs over the whole network.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerShape::macs).sum()
    }

    /// All networks of the Figure 12/13 sweep, in display order. Clones
    /// of the shared catalog entries: they share its layer lists.
    pub fn all() -> Vec<NetworkModel> {
        shared_catalog()[..PAPER_NETWORKS].to_vec()
    }

    /// The full lookup catalog: the Figure 12/13 sweep plus the
    /// mixed-precision presets ([`resnet18_quantized`]). Name-based
    /// resolution (`repro models --model`, `repro dse --model`, the serve
    /// `model` op) searches this; [`Self::all`] stays the paper's
    /// ten-network default grid. The catalog is built once per process;
    /// every call returns clones that share its layer lists.
    pub fn catalog() -> Vec<NetworkModel> {
        shared_catalog().to_vec()
    }

    /// The catalog network named `name` (case-insensitive), by reference.
    pub fn find(name: &str) -> Option<&'static NetworkModel> {
        shared_catalog()
            .iter()
            .find(|n| n.name.eq_ignore_ascii_case(name))
    }

    /// The catalog networks whose name contains `needle`
    /// (case-insensitive; an empty needle matches every network), in
    /// catalog order.
    pub fn matching(needle: &str) -> impl Iterator<Item = &'static NetworkModel> {
        let needle = needle.to_ascii_lowercase();
        shared_catalog()
            .iter()
            .filter(move |n| n.name.to_ascii_lowercase().contains(&needle))
    }
}

fn conv(name: &str, in_c: usize, out_c: usize, out_hw: usize, k: usize) -> LayerShape {
    LayerShape::new(name, out_c, out_hw * out_hw, in_c * k * k, 1)
}

fn dw(name: &str, channels: usize, out_hw: usize, k: usize) -> LayerShape {
    // Depthwise: one GEMM per channel with K = k².
    LayerShape::new(name, 1, out_hw * out_hw, k * k, channels)
}

/// ResNet-18 at 224×224 (the §IV-C sync example uses its 64-channel 3×3
/// middle layers: K = 576).
pub fn resnet18() -> NetworkModel {
    let mut layers = vec![conv("conv1-7x7", 3, 64, 112, 7)];
    for i in 0..4 {
        layers.push(conv(&format!("l1.{i}-3x3"), 64, 64, 56, 3));
    }
    layers.push(conv("l2.0-3x3s2", 64, 128, 28, 3));
    for i in 1..4 {
        layers.push(conv(&format!("l2.{i}-3x3"), 128, 128, 28, 3));
    }
    layers.push(conv("l3.0-3x3s2", 128, 256, 14, 3));
    for i in 1..4 {
        layers.push(conv(&format!("l3.{i}-3x3"), 256, 256, 14, 3));
    }
    layers.push(conv("l4.0-3x3s2", 256, 512, 7, 3));
    for i in 1..4 {
        layers.push(conv(&format!("l4.{i}-3x3"), 512, 512, 7, 3));
    }
    layers.push(LayerShape::new("fc", 1000, 1, 512, 1));
    NetworkModel {
        name: "ResNet18".into(),
        layers: layers.into(),
    }
}

/// Quantized ResNet-18: the standard mixed-precision deployment recipe —
/// the stem convolution and the classifier stay at W8 (they are the
/// accuracy-critical ends of the network), every middle block runs at W4.
/// On serial bit-slice engines the W4 layers stream roughly half the
/// digits, so this preset is where the precision axis pays off most
/// (T-MAC-style low-bit inference); dense parallel engines schedule it
/// identically to [`resnet18`].
pub fn resnet18_quantized() -> NetworkModel {
    let base = resnet18();
    let last = base.layers.len() - 1;
    let layers = base
        .layers
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 || i == last {
                l.with_precision(Precision::W8)
            } else {
                l.with_precision(Precision::W4)
            }
        })
        .collect();
    NetworkModel {
        name: "ResNet18-W4".into(),
        layers,
    }
}

/// ResNet-50 (bottleneck blocks; 1×1–3×3–1×1).
pub fn resnet50() -> NetworkModel {
    let mut layers = vec![conv("conv1-7x7", 3, 64, 112, 7)];
    let stages: [(usize, usize, usize, usize); 4] = [
        (64, 256, 56, 3),
        (128, 512, 28, 4),
        (256, 1024, 14, 6),
        (512, 2048, 7, 3),
    ];
    let mut in_c = 64;
    for (si, &(mid, out, hw, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            layers.push(conv(&format!("s{si}.{b}-1x1a"), in_c, mid, hw, 1));
            layers.push(conv(&format!("s{si}.{b}-3x3"), mid, mid, hw, 3));
            layers.push(conv(&format!("s{si}.{b}-1x1b"), mid, out, hw, 1));
            in_c = out;
        }
    }
    layers.push(LayerShape::new("fc", 1000, 1, 2048, 1));
    NetworkModel {
        name: "ResNet50".into(),
        layers: layers.into(),
    }
}

/// VGG-16 (all 3×3 convolutions — uniformly high K).
pub fn vgg16() -> NetworkModel {
    let cfg: [(usize, usize, usize, usize); 13] = [
        (3, 64, 224, 3),
        (64, 64, 224, 3),
        (64, 128, 112, 3),
        (128, 128, 112, 3),
        (128, 256, 56, 3),
        (256, 256, 56, 3),
        (256, 256, 56, 3),
        (256, 512, 28, 3),
        (512, 512, 28, 3),
        (512, 512, 28, 3),
        (512, 512, 14, 3),
        (512, 512, 14, 3),
        (512, 512, 14, 3),
    ];
    let mut layers: Vec<LayerShape> = cfg
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc, hw, k))| conv(&format!("conv{}", i + 1), ic, oc, hw, k))
        .collect();
    layers.push(LayerShape::new("fc1", 4096, 1, 25088, 1));
    layers.push(LayerShape::new("fc2", 4096, 1, 4096, 1));
    layers.push(LayerShape::new("fc3", 1000, 1, 4096, 1));
    NetworkModel {
        name: "VGG16".into(),
        layers: layers.into(),
    }
}

/// MobileNetV2 (inverted residuals: PW-expand, DW 3×3, PW-project).
pub fn mobilenet_v2() -> NetworkModel {
    let mut layers = vec![conv("conv1-3x3s2", 3, 32, 112, 3)];
    // (expansion, out_channels, blocks, out_hw of the stage)
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 112),
        (6, 24, 2, 56),
        (6, 32, 3, 28),
        (6, 64, 4, 14),
        (6, 96, 3, 14),
        (6, 160, 3, 7),
        (6, 320, 1, 7),
    ];
    let mut in_c = 32;
    for (si, &(t, out, blocks, hw)) in cfg.iter().enumerate() {
        for b in 0..blocks {
            let hidden = in_c * t;
            if t != 1 {
                layers.push(conv(&format!("b{si}.{b}-pw-exp"), in_c, hidden, hw, 1));
            }
            layers.push(dw(&format!("b{si}.{b}-dw3x3"), hidden, hw, 3));
            layers.push(conv(&format!("b{si}.{b}-pw-proj"), hidden, out, hw, 1));
            in_c = out;
        }
    }
    layers.push(conv("conv-last-1x1", 320, 1280, 7, 1));
    layers.push(LayerShape::new("fc", 1000, 1, 1280, 1));
    NetworkModel {
        name: "MobileNetV2".into(),
        layers: layers.into(),
    }
}

/// MobileNetV3-Large. The DW/PW alternation of its bneck blocks is the
/// Figure 11(B) workload: DW layers have K ∈ {9, 25} (low utilization),
/// PW layers K ∈ {16…960} (high utilization).
pub fn mobilenet_v3() -> NetworkModel {
    let mut layers = vec![conv("conv1-3x3s2", 3, 16, 112, 3)];
    // (expanded, out_c, kernel, out_hw) per bneck block of MobileNetV3-L.
    let cfg: [(usize, usize, usize, usize); 15] = [
        (16, 16, 3, 112),
        (64, 24, 3, 56),
        (72, 24, 3, 56),
        (72, 40, 5, 28),
        (120, 40, 5, 28),
        (120, 40, 5, 28),
        (240, 80, 3, 14),
        (200, 80, 3, 14),
        (184, 80, 3, 14),
        (184, 80, 3, 14),
        (480, 112, 3, 14),
        (672, 112, 3, 14),
        (672, 160, 5, 7),
        (960, 160, 5, 7),
        (960, 160, 5, 7),
    ];
    let mut in_c = 16;
    for (i, &(exp, out, k, hw)) in cfg.iter().enumerate() {
        if exp != in_c {
            layers.push(conv(&format!("b{i}-pw-exp"), in_c, exp, hw, 1));
        }
        layers.push(dw(&format!("b{i}-dw{k}x{k}"), exp, hw, k));
        layers.push(conv(&format!("b{i}-pw-proj"), exp, out, hw, 1));
        in_c = out;
    }
    layers.push(conv("conv-last-1x1", 160, 960, 7, 1));
    layers.push(LayerShape::new("fc1", 1280, 1, 960, 1));
    layers.push(LayerShape::new("fc2", 1000, 1, 1280, 1));
    NetworkModel {
        name: "MobileNetV3".into(),
        layers: layers.into(),
    }
}

/// EfficientNet-B0 (MBConv blocks, similar DW/PW texture).
pub fn efficientnet_b0() -> NetworkModel {
    let mut layers = vec![conv("stem-3x3s2", 3, 32, 112, 3)];
    // (expansion, out_c, kernel, blocks, out_hw)
    let cfg: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 3, 1, 112),
        (6, 24, 3, 2, 56),
        (6, 40, 5, 2, 28),
        (6, 80, 3, 3, 14),
        (6, 112, 5, 3, 14),
        (6, 192, 5, 4, 7),
        (6, 320, 3, 1, 7),
    ];
    let mut in_c = 32;
    for (si, &(t, out, k, blocks, hw)) in cfg.iter().enumerate() {
        for b in 0..blocks {
            let hidden = in_c * t;
            if t != 1 {
                layers.push(conv(&format!("mb{si}.{b}-pw-exp"), in_c, hidden, hw, 1));
            }
            layers.push(dw(&format!("mb{si}.{b}-dw{k}x{k}"), hidden, hw, k));
            layers.push(conv(&format!("mb{si}.{b}-pw-proj"), hidden, out, hw, 1));
            in_c = out;
        }
    }
    layers.push(conv("head-1x1", 320, 1280, 7, 1));
    layers.push(LayerShape::new("fc", 1000, 1, 1280, 1));
    NetworkModel {
        name: "EfficientNet-B0".into(),
        layers: layers.into(),
    }
}

/// One transformer encoder layer's GEMMs for `tokens` tokens at model
/// width `d` with `heads` heads and MLP expansion ×4.
fn transformer_layer(prefix: &str, tokens: usize, d: usize, heads: usize) -> Vec<LayerShape> {
    let dh = d / heads;
    vec![
        LayerShape::new(format!("{prefix}-qkv"), tokens, 3 * d, d, 1),
        LayerShape::new(format!("{prefix}-attn-qk"), tokens, tokens, dh, heads),
        LayerShape::new(format!("{prefix}-attn-v"), tokens, dh, tokens, heads),
        LayerShape::new(format!("{prefix}-proj"), tokens, d, d, 1),
        LayerShape::new(format!("{prefix}-fc1"), tokens, 4 * d, d, 1),
        LayerShape::new(format!("{prefix}-fc2"), tokens, d, 4 * d, 1),
    ]
}

/// ViT-B/16 at 224×224: 196 patches + class token, 12 layers, d = 768.
pub fn vit_b16() -> NetworkModel {
    let mut layers = vec![LayerShape::new("patch-embed", 197, 768, 768, 1)];
    for l in 0..12 {
        layers.extend(transformer_layer(&format!("L{l}"), 197, 768, 12));
    }
    layers.push(LayerShape::new("head", 1000, 1, 768, 1));
    NetworkModel {
        name: "ViT".into(),
        layers: layers.into(),
    }
}

/// MobileViT-S: MobileNetV2-style stem + three MobileViT transformer
/// stages (d = 144/192/240).
pub fn mobilevit_s() -> NetworkModel {
    let mut layers = vec![
        conv("stem-3x3s2", 3, 16, 128, 3),
        conv("mv2.0-pw-exp", 16, 64, 128, 1),
        dw("mv2.0-dw", 64, 128, 3),
        conv("mv2.0-pw-proj", 64, 32, 128, 1),
        conv("mv2.1-pw-exp", 32, 128, 64, 1),
        dw("mv2.1-dw", 128, 64, 3),
        conv("mv2.1-pw-proj", 128, 64, 64, 1),
    ];
    // (tokens, d, transformer blocks, conv channels, hw)
    let stages: [(usize, usize, usize, usize, usize); 3] = [
        (256, 144, 2, 96, 32),
        (64, 192, 4, 128, 16),
        (16, 240, 3, 160, 8),
    ];
    for (si, &(tokens, d, blocks, c, hw)) in stages.iter().enumerate() {
        layers.push(conv(&format!("s{si}-conv3x3"), c, c, hw, 3));
        layers.push(conv(&format!("s{si}-conv1x1"), c, d, hw, 1));
        for b in 0..blocks {
            layers.extend(transformer_layer(&format!("s{si}.t{b}"), tokens, d, 4));
        }
        layers.push(conv(&format!("s{si}-fuse"), d, c, hw, 1));
    }
    layers.push(conv("head-1x1", 160, 640, 8, 1));
    layers.push(LayerShape::new("fc", 1000, 1, 640, 1));
    NetworkModel {
        name: "MobileViT".into(),
        layers: layers.into(),
    }
}

/// GPT-2 (small): 12 layers, d = 768. Shapes model single-token decode
/// against a 1024-token KV cache — Figure 11(A)'s "inference latency of a
/// single embedding vector at each layer".
pub fn gpt2() -> NetworkModel {
    let mut layers = Vec::new();
    for l in 0..12 {
        layers.extend(gpt2_decode_sublayers(&format!("L{l}"), 1024));
    }
    layers.push(LayerShape::new("lm-head", 1, 50257, 768, 1));
    NetworkModel {
        name: "GPT-2".into(),
        layers: layers.into(),
    }
}

/// The sublayer GEMMs of one GPT-2 decode step (M = 1) at context length
/// `ctx` — the bars of Figure 11(A).
pub fn gpt2_decode_sublayers(prefix: &str, ctx: usize) -> Vec<LayerShape> {
    let (d, heads) = (768, 12);
    let dh = d / heads;
    vec![
        LayerShape::new(format!("{prefix}-qkv"), 1, 3 * d, d, 1),
        LayerShape::new(format!("{prefix}-attn-qk"), 1, ctx, dh, heads),
        LayerShape::new(format!("{prefix}-attn-v"), 1, dh, ctx, heads),
        LayerShape::new(format!("{prefix}-proj"), 1, d, d, 1),
        LayerShape::new(format!("{prefix}-fc1"), 1, 4 * d, d, 1),
        LayerShape::new(format!("{prefix}-fc2"), 1, d, 4 * d, 1),
    ]
}

/// BERT-base: 12 layers over 128-token sequences.
pub fn bert_base() -> NetworkModel {
    let mut layers = Vec::new();
    for l in 0..12 {
        layers.extend(transformer_layer(&format!("L{l}"), 128, 768, 12));
    }
    NetworkModel {
        name: "BERT".into(),
        layers: layers.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_has_576_reduction_mid_layers() {
        let net = resnet18();
        let mid = net.layers.iter().find(|l| l.name == "l1.0-3x3").unwrap();
        assert_eq!(mid.k, 576);
        assert_eq!(mid.m, 64);
        assert_eq!(mid.n, 56 * 56);
    }

    #[test]
    fn quantized_resnet18_pins_ends_at_w8_and_middle_at_w4() {
        let q = resnet18_quantized();
        let base = resnet18();
        assert_eq!(q.layers.len(), base.layers.len());
        assert_eq!(q.total_macs(), base.total_macs(), "shapes unchanged");
        assert_eq!(q.layers.first().unwrap().precision, Some(Precision::W8));
        assert_eq!(q.layers.last().unwrap().precision, Some(Precision::W8));
        for l in &q.layers[1..q.layers.len() - 1] {
            assert_eq!(l.precision, Some(Precision::W4), "{}", l.name);
        }
        // The catalog resolves it by name; the default grid stays at ten.
        assert_eq!(NetworkModel::all().len(), 10);
        assert!(NetworkModel::catalog()
            .iter()
            .any(|n| n.name == "ResNet18-W4"));
    }

    /// The catalog is built once: every call hands out clones that share
    /// each network's layer list, and `find` resolves by reference.
    #[test]
    fn catalog_is_built_once_and_shared() {
        let (a, b) = (NetworkModel::catalog(), NetworkModel::catalog());
        assert_eq!(a.len(), 11);
        for (x, y) in a.iter().zip(&b) {
            assert!(LayerList::ptr_eq(&x.layers, &y.layers), "{}", x.name);
        }
        for (x, y) in NetworkModel::all().iter().zip(&a) {
            assert!(LayerList::ptr_eq(&x.layers, &y.layers), "{}", x.name);
        }
        let q = NetworkModel::find("resnet18-w4").expect("case-insensitive");
        assert_eq!(q.name, "ResNet18-W4");
        assert!(LayerList::ptr_eq(&q.layers, &a[10].layers));
        assert_eq!(q, &resnet18_quantized());
        assert!(NetworkModel::find("resnet").is_none(), "exact names only");
        let names: Vec<&str> = NetworkModel::matching("RESNET18")
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(names, ["ResNet18", "ResNet18-W4"]);
        assert_eq!(NetworkModel::matching("").count(), 11);
    }

    /// The stored hash follows content, never the allocation: equal lists
    /// built apart hash equal, and any edit (which builds a new list)
    /// rehashes.
    #[test]
    fn layer_lists_hash_content() {
        let (a, b) = (resnet18(), resnet18());
        assert!(!LayerList::ptr_eq(&a.layers, &b.layers));
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.layers.content_hash(), b.layers.content_hash());
        let mut edited = a.layers.to_vec();
        edited[3].repeats += 1;
        let edited = LayerList::from(edited);
        assert_ne!(edited.content_hash(), a.layers.content_hash());
        assert_ne!(edited, a.layers);
        let empty = LayerList::from(Vec::new());
        assert_eq!(empty.content_hash(), Fnv1a::hash(&0u64.to_le_bytes()));
        assert!(empty.is_empty());
    }

    #[test]
    fn resnet18_total_macs_in_expected_range() {
        // Published figure ≈ 1.8 GMACs; conv-only tally lands nearby.
        let g = resnet18().total_macs() as f64 / 1e9;
        assert!((1.4..2.2).contains(&g), "ResNet-18 GMACs {g}");
    }

    #[test]
    fn vgg16_macs_match_published_scale() {
        let g = vgg16().total_macs() as f64 / 1e9;
        assert!((14.0..16.5).contains(&g), "VGG-16 GMACs {g}");
    }

    #[test]
    fn mobilenets_are_light() {
        let v2 = mobilenet_v2().total_macs() as f64 / 1e6;
        assert!((250.0..450.0).contains(&v2), "MobileNetV2 MMACs {v2}");
        let v3 = mobilenet_v3().total_macs() as f64 / 1e6;
        assert!((150.0..350.0).contains(&v3), "MobileNetV3 MMACs {v3}");
    }

    #[test]
    fn depthwise_layers_have_tiny_k() {
        let net = mobilenet_v3();
        let dws: Vec<_> = net
            .layers
            .iter()
            .filter(|l| l.name.contains("dw"))
            .collect();
        assert!(!dws.is_empty());
        assert!(dws.iter().all(|l| l.k == 9 || l.k == 25));
        let pws: Vec<_> = net
            .layers
            .iter()
            .filter(|l| l.name.contains("pw"))
            .collect();
        assert!(pws.iter().all(|l| l.k >= 16));
    }

    #[test]
    fn vit_macs_match_published_scale() {
        let g = vit_b16().total_macs() as f64 / 1e9;
        assert!((15.0..19.0).contains(&g), "ViT-B/16 GMACs {g}");
    }

    #[test]
    fn gpt2_decode_is_gemv_shaped() {
        for l in gpt2_decode_sublayers("x", 1024) {
            assert_eq!(l.m, 1, "{}", l.name);
        }
    }

    #[test]
    fn all_networks_have_positive_macs() {
        for net in NetworkModel::all() {
            assert!(net.total_macs() > 0, "{}", net.name);
            assert!(!net.layers.is_empty());
        }
    }
}
