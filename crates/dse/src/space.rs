//! The design space: axes, legality rules and cross-product enumeration.
//!
//! A [`DesignPoint`] is one fully-specified configuration: a
//! [`tpe_engine::EngineSpec`] (the architecture half — PE style, array
//! topology, multiplicand encoding and synthesis corner, Figure 9 /
//! Table VII / Tables II–III / §V) paired with a [`SweepWorkload`] (a
//! single GEMM layer *or a whole network*, Figures 11–13).
//!
//! [`DesignSpace::enumerate`] takes the cross product and drops illegal
//! combinations (serial styles require the serial array; dense multipliers
//! have their Booth encoder baked in, so the encoding axis only varies for
//! serial styles; OPT2's same-bit-weight trick needs FlexFlow's broadcast).

use tpe_arith::encode::EncodingKind;
use tpe_core::arch::{ArchKind, ArchModel, PeStyle};
use tpe_engine::{roster, EngineSpec, MemorySpec};
use tpe_sim::array::ClassicArch;
use tpe_workloads::{models, LayerShape};

pub use tpe_engine::{classic_name, Corner, Precision, SweepWorkload};

/// One fully-specified design point: an engine plus the workload it is
/// scored on.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The architecture-and-corner half (the canonical `tpe-engine`
    /// identity: label grammar, PE counts, pricing and scheduling all key
    /// on this).
    pub engine: EngineSpec,
    /// The workload: one GEMM layer or a whole network.
    pub workload: SweepWorkload,
}

impl DesignPoint {
    /// Pairs an engine with a workload.
    pub fn new(engine: EngineSpec, workload: impl Into<SweepWorkload>) -> Self {
        Self {
            engine,
            workload: workload.into(),
        }
    }

    /// The engine half — `repro dse --filter` and `repro models --arch`
    /// always match the same strings because both sides print this spec.
    pub fn engine_spec(&self) -> &EngineSpec {
        &self.engine
    }

    /// PE microarchitecture.
    pub fn style(&self) -> PeStyle {
        self.engine.style
    }

    /// Array organization.
    pub fn kind(&self) -> ArchKind {
        self.engine.kind
    }

    /// Multiplicand encoding.
    pub fn encoding(&self) -> EncodingKind {
        self.engine.encoding
    }

    /// Operand precision.
    pub fn precision(&self) -> Precision {
        self.engine.precision
    }

    /// Memory corner (SRAM capacity and bandwidths; `Unbounded` by
    /// default).
    pub fn memory(&self) -> MemorySpec {
        self.engine.memory
    }

    /// Synthesis corner.
    pub fn corner(&self) -> Corner {
        self.engine.corner()
    }

    /// Architecture half of the label (`OPT1(TPU)`, `OPT3[CSD]`).
    pub fn arch_label(&self) -> String {
        self.engine.arch_label()
    }

    /// Full point label, stable across runs — used for seeding, filtering
    /// and CSV emission.
    pub fn label(&self) -> String {
        format!("{}/{}", self.engine.label(), self.workload.name())
    }

    /// PE instances at the paper's array sizes (10×10×10 Cube, else 32×32).
    pub fn pe_instances(&self) -> usize {
        self.engine.pe_instances()
    }

    /// The equivalent `tpe-core` architecture model at this corner.
    pub fn arch_model(&self) -> ArchModel {
        self.engine.arch_model()
    }
}

/// The seven axes; [`DesignSpace::enumerate`] takes the legal cross
/// product.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// PE styles to sweep.
    pub styles: Vec<PeStyle>,
    /// Dense topologies to pair with dense-capable styles.
    pub dense_topologies: Vec<ClassicArch>,
    /// Encodings to pair with serial styles.
    pub encodings: Vec<EncodingKind>,
    /// Operand precisions (every style × topology × encoding combination
    /// synthesizes at each).
    pub precisions: Vec<Precision>,
    /// Synthesis corners.
    pub corners: Vec<Corner>,
    /// Memory corners. Defaults to the single `Unbounded` corner, which
    /// reproduces the historical (memory-free) numbers exactly; add
    /// [`roster::memory_corners`] entries to sweep the roofline axis.
    pub memories: Vec<MemorySpec>,
    /// Workloads: single layers and/or whole networks.
    pub workloads: Vec<SweepWorkload>,
}

impl DesignSpace {
    /// The default precision axis: the symmetric W4/W8/W16 ladder, W8
    /// first so the paper's configuration leads every label group.
    pub fn default_precisions() -> Vec<Precision> {
        vec![Precision::W8, Precision::W4, Precision::W16]
    }

    /// The full paper-flavored space: all six PE styles, all four classic
    /// topologies, all five encoders, the W8/W4/W16 precision ladder, the
    /// four [`roster::sweep_corners`] and a workload slice covering the
    /// utilization regimes of Figures 11–13 (wide conv, depthwise,
    /// attention, FFN) **plus one whole-model workload** (ResNet-18
    /// end-to-end), so the default Pareto front always carries at least
    /// one model-level objective point.
    pub fn paper_default() -> Self {
        Self {
            styles: PeStyle::ALL.to_vec(),
            dense_topologies: ClassicArch::ALL.to_vec(),
            encodings: EncodingKind::ALL.to_vec(),
            precisions: Self::default_precisions(),
            corners: roster::sweep_corners(),
            memories: vec![MemorySpec::unbounded()],
            workloads: default_workloads(),
        }
    }

    /// The paper-default axes with the workload axis replaced by whole
    /// networks whose name contains `filter` (case-insensitive; empty
    /// keeps the full catalog — the ten models of Figures 12–13 plus the
    /// mixed-precision presets). Errors when nothing matches.
    pub fn with_models(filter: &str) -> Result<Self, String> {
        let needle = filter.to_ascii_lowercase();
        let nets: Vec<SweepWorkload> = tpe_workloads::NetworkModel::catalog()
            .into_iter()
            .filter(|n| needle.is_empty() || n.name.to_ascii_lowercase().contains(&needle))
            .map(SweepWorkload::Model)
            .collect();
        if nets.is_empty() {
            return Err(format!("no network model matches `{filter}`"));
        }
        Ok(Self {
            workloads: nets,
            ..Self::paper_default()
        })
    }

    /// A small space for tests and the example: two styles per family, two
    /// encodings, two precisions, one corner family, two workloads.
    pub fn quick() -> Self {
        Self {
            styles: vec![
                PeStyle::TraditionalMac,
                PeStyle::Opt1,
                PeStyle::Opt3,
                PeStyle::Opt4E,
            ],
            dense_topologies: vec![ClassicArch::Tpu, ClassicArch::Trapezoid],
            encodings: vec![EncodingKind::EnT, EncodingKind::Mbe],
            precisions: vec![Precision::W8, Precision::W4],
            corners: vec![Corner::smic28(1.0), Corner::smic28(1.5)],
            memories: vec![MemorySpec::unbounded()],
            workloads: vec![
                SweepWorkload::Layer(LayerShape::new("conv-64x3136x576", 64, 3136, 576, 1)),
                SweepWorkload::Layer(LayerShape::new("attn-qk-1024x64", 1024, 1024, 64, 1)),
            ],
        }
    }

    /// Whether a (style, kind, encoding) combination is realizable.
    ///
    /// * Serial styles (OPT3/OPT4C/OPT4E) run only on the serial array and
    ///   accept every encoding axis value.
    /// * Dense styles run only on dense topologies with the multiplier's
    ///   built-in Booth encoding ([`EncodingKind::Mbe`]).
    /// * OPT2 additionally requires FlexFlow's operand broadcast (§IV-B).
    pub fn is_legal(style: PeStyle, kind: ArchKind, encoding: EncodingKind) -> bool {
        match kind {
            ArchKind::Serial => style.is_serial(),
            ArchKind::Dense(arch) => {
                if style.is_serial() || encoding != EncodingKind::Mbe {
                    return false;
                }
                match style {
                    PeStyle::TraditionalMac | PeStyle::Opt1 => true,
                    PeStyle::Opt2 => arch == ClassicArch::FlexFlow,
                    _ => false,
                }
            }
        }
    }

    /// Enumerates the legal cross product, in a deterministic order.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        self.enumerate_matching(&[])
    }

    /// Enumerates, keeping only points matching `filter`
    /// (case-insensitive). The filter is a comma-separated list of terms
    /// that must all match: a `precision=<label>` term matches the
    /// precision axis exactly (so `precision=w8` selects the default
    /// points, whose labels carry no suffix), a `memory=<name>` term
    /// matches the memory-corner axis exactly (`memory=unbounded` selects
    /// the default points), any other term matches the point label as a
    /// substring. An empty filter keeps everything.
    pub fn enumerate_filtered(&self, filter: &str) -> Vec<DesignPoint> {
        let terms: Vec<&str> = filter.split(',').filter(|t| !t.is_empty()).collect();
        self.enumerate_matching(&terms)
    }

    /// The shared enumeration loop. Filtering happens *during* the cross
    /// product, before a candidate's workload is cloned — a narrow filter
    /// over the default space (the serve `sweep`/`pareto` hot path) then
    /// costs label matching only, not 2000 whole-model clones.
    fn enumerate_matching(&self, terms: &[&str]) -> Vec<DesignPoint> {
        /// A pre-lowered filter term: a precision or memory axis
        /// exact-match form, or a lowercased label substring.
        enum Term {
            Precision(Option<Precision>),
            Memory(Option<MemorySpec>),
            Label(String),
        }
        let mut terms: Vec<Term> = terms
            .iter()
            .map(|term| match term.split_once('=') {
                Some((key, value)) if key.eq_ignore_ascii_case("precision") => {
                    Term::Precision(Precision::parse(value))
                }
                Some((key, value)) if key.eq_ignore_ascii_case("memory") => {
                    Term::Memory(roster::find_memory(value))
                }
                _ => Term::Label(term.to_ascii_lowercase()),
            })
            .collect();
        // Exact-match axis terms are a field compare; evaluate them
        // before any label term so rejected candidates never pay for
        // label construction (term conjunction is order-independent).
        terms.sort_by_key(|t| matches!(t, Term::Label(_)));
        let needs_label = terms.iter().any(|t| matches!(t, Term::Label(_)));

        let mut points = Vec::new();
        for &style in &self.styles {
            // (kind, encoding) pairs legal for this style.
            let mut variants: Vec<(ArchKind, EncodingKind)> = Vec::new();
            if style.is_serial() {
                for &enc in &self.encodings {
                    variants.push((ArchKind::Serial, enc));
                }
            } else {
                for &arch in &self.dense_topologies {
                    let kind = ArchKind::Dense(arch);
                    if Self::is_legal(style, kind, EncodingKind::Mbe) {
                        variants.push((kind, EncodingKind::Mbe));
                    }
                }
            }
            for &(kind, encoding) in &variants {
                for &precision in &self.precisions {
                    for &corner in &self.corners {
                        for &memory in &self.memories {
                            let engine = EngineSpec {
                                style,
                                kind,
                                encoding,
                                precision,
                                freq_ghz: corner.freq_ghz,
                                node: corner.node,
                                node_name: corner.node_name,
                                memory,
                            };
                            let engine_label = needs_label
                                .then(|| format!("{}/", engine.label()).to_ascii_lowercase());
                            for workload in &self.workloads {
                                // One lazily-built lowercased label per
                                // candidate, shared by every label term —
                                // never built when an axis term rejects
                                // the candidate first.
                                let mut label: Option<String> = None;
                                let matches = terms.iter().all(|term| match term {
                                    Term::Precision(p) => *p == Some(precision),
                                    Term::Memory(m) => *m == Some(memory),
                                    Term::Label(needle) => label
                                        .get_or_insert_with(|| {
                                            let mut label = engine_label
                                                .clone()
                                                .expect("label terms imply a prefix");
                                            label.push_str(&workload.name().to_ascii_lowercase());
                                            label
                                        })
                                        .contains(needle),
                                });
                                if matches {
                                    points.push(DesignPoint {
                                        engine: engine.clone(),
                                        workload: workload.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

/// Builds the space a *slice query* selects from — the shared entry point
/// of `repro dse` and the serve `sweep`/`pareto` ops, so a filter string
/// addresses exactly the same points on both paths.
///
/// `model` mirrors the CLI's `--model` flag: `None` keeps the paper
/// default space (layer workloads + ResNet-18 end-to-end), `"all"`
/// (case-insensitive) swaps the workload axis for every catalog network,
/// and any other value selects networks by name substring.
pub fn slice_space(model: Option<&str>) -> Result<DesignSpace, String> {
    match model {
        Some(name) if name.eq_ignore_ascii_case("all") => DesignSpace::with_models(""),
        Some(name) => DesignSpace::with_models(name),
        None => Ok(DesignSpace::paper_default()),
    }
}

/// The default workload axis: one layer per utilization regime the paper
/// studies — wide mid-network conv, depthwise conv, pointwise projection,
/// attention score GEMM, transformer FFN, the classifier GEMV — plus the
/// ResNet-18 network end-to-end (the whole-model objective).
pub fn default_workloads() -> Vec<SweepWorkload> {
    let resnet = models::resnet18();
    let mobilenet = models::mobilenet_v3();
    let mut picks: Vec<LayerShape> = Vec::new();
    // Wide conv (K = 576): the §IV-C sync example.
    if let Some(l) = resnet.layers.iter().find(|l| l.name == "l2.0-3x3s2") {
        picks.push(l.clone());
    }
    // Depthwise (K = 25) and pointwise from MobileNetV3: Figure 11(B).
    for name in ["b13-dw5x5", "b13-pw-proj"] {
        if let Some(l) = mobilenet.layers.iter().find(|l| l.name == name) {
            picks.push(l.clone());
        }
    }
    // Transformer shapes: attention scores (K = 64) and the FFN (K = 768).
    for l in models::gpt2_decode_sublayers("L0", 1024) {
        if l.k == 64 || l.name.ends_with("fc1") {
            picks.push(l);
        }
    }
    // Classifier GEMV — the skinny tail case.
    picks.push(LayerShape::new("fc-1000x512", 1000, 1, 512, 1));
    picks.truncate(6);
    let mut workloads: Vec<SweepWorkload> = picks.into_iter().map(SweepWorkload::Layer).collect();
    workloads.push(SweepWorkload::Model(resnet));
    workloads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_covers_over_200_points_on_5_plus_axes() {
        let space = DesignSpace::paper_default();
        assert!(space.styles.len() >= 4);
        assert!(space.encodings.len() >= 4);
        assert!(space.corners.len() >= 3);
        assert!(space.workloads.len() >= 4);
        assert_eq!(space.precisions.len(), 3, "W8/W4/W16 ladder");
        let points = space.enumerate();
        // The historical 672-point W8 space, multiplied by the precision
        // ladder.
        assert_eq!(points.len(), 672 * 3, "default space size");
        let w8: Vec<_> = points
            .iter()
            .filter(|p| p.precision() == Precision::W8)
            .collect();
        assert_eq!(w8.len(), 672, "the W8 slice is the historical space");
    }

    /// The W8 subsequence of the grown default space enumerates in exactly
    /// the historical order: a single-precision space's points, in order.
    #[test]
    fn w8_subsequence_preserves_historical_order() {
        let w8_only = DesignSpace {
            precisions: vec![Precision::W8],
            ..DesignSpace::paper_default()
        };
        let historical: Vec<String> = w8_only.enumerate().iter().map(DesignPoint::label).collect();
        let projected: Vec<String> = DesignSpace::paper_default()
            .enumerate()
            .iter()
            .filter(|p| p.precision() == Precision::W8)
            .map(DesignPoint::label)
            .collect();
        assert_eq!(projected, historical);
    }

    #[test]
    fn precision_filter_terms_select_the_axis() {
        let space = DesignSpace::quick();
        let all = space.enumerate();
        let w4 = space.enumerate_filtered("precision=w4");
        let w8 = space.enumerate_filtered("precision=w8");
        assert_eq!(w4.len() + w8.len(), all.len());
        assert!(w4.iter().all(|p| p.precision() == Precision::W4));
        assert!(w8.iter().all(|p| p.precision() == Precision::W8));
        // Terms compose: precision + label substring.
        let opt3_w4 = space.enumerate_filtered("precision=w4,opt3");
        assert!(!opt3_w4.is_empty());
        assert!(opt3_w4
            .iter()
            .all(|p| p.style() == PeStyle::Opt3 && p.precision() == Precision::W4));
        // An unparsable precision term matches nothing.
        assert!(space.enumerate_filtered("precision=w99").is_empty());
    }

    /// The memory axis sweeps like any other: the default space carries
    /// only the `Unbounded` corner, a grown space multiplies the point
    /// count, and `memory=<name>` terms slice it exactly.
    #[test]
    fn memory_axis_defaults_to_unbounded_and_filters_exactly() {
        let quick = DesignSpace::quick();
        let baseline = quick.enumerate();
        assert!(baseline.iter().all(|p| p.memory().is_unbounded()));

        let grown = DesignSpace {
            memories: roster::memory_corners(),
            ..DesignSpace::quick()
        };
        let corners = grown.memories.len();
        let all = grown.enumerate();
        assert_eq!(all.len(), baseline.len() * corners);

        let edge = grown.enumerate_filtered("memory=edge");
        assert_eq!(edge.len(), baseline.len());
        assert!(edge.iter().all(|p| p.memory().name == "edge"));
        // The default corner is addressable by name too, and its labels
        // carry no memory suffix — byte-identical to the baseline's.
        let unbounded = grown.enumerate_filtered("memory=unbounded");
        let labels: Vec<String> = unbounded.iter().map(DesignPoint::label).collect();
        let baseline_labels: Vec<String> = baseline.iter().map(DesignPoint::label).collect();
        assert_eq!(labels, baseline_labels);
        // Terms compose with the other axes, and unknown corners match
        // nothing.
        let mix = grown.enumerate_filtered("memory=hbm,precision=w4,opt3");
        assert!(!mix.is_empty());
        assert!(mix
            .iter()
            .all(|p| p.memory().name == "hbm" && p.precision() == Precision::W4));
        assert!(grown.enumerate_filtered("memory=no-such-corner").is_empty());
    }

    #[test]
    fn every_enumerated_point_is_legal() {
        for p in DesignSpace::paper_default().enumerate() {
            assert!(
                DesignSpace::is_legal(p.style(), p.kind(), p.encoding()),
                "illegal point {}",
                p.label()
            );
        }
    }

    #[test]
    fn serial_styles_never_pair_with_dense_arrays() {
        assert!(!DesignSpace::is_legal(
            PeStyle::Opt3,
            ArchKind::Dense(ClassicArch::Tpu),
            EncodingKind::EnT
        ));
        assert!(!DesignSpace::is_legal(
            PeStyle::TraditionalMac,
            ArchKind::Serial,
            EncodingKind::Mbe
        ));
        // OPT2 needs FlexFlow.
        assert!(!DesignSpace::is_legal(
            PeStyle::Opt2,
            ArchKind::Dense(ClassicArch::Tpu),
            EncodingKind::Mbe
        ));
        assert!(DesignSpace::is_legal(
            PeStyle::Opt2,
            ArchKind::Dense(ClassicArch::FlexFlow),
            EncodingKind::Mbe
        ));
    }

    #[test]
    fn labels_are_unique() {
        let points = DesignSpace::paper_default().enumerate();
        let mut labels: Vec<String> = points.iter().map(DesignPoint::label).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(before, labels.len(), "duplicate point labels");
    }

    #[test]
    fn default_space_carries_a_whole_model_workload() {
        let space = DesignSpace::paper_default();
        let models: Vec<_> = space
            .workloads
            .iter()
            .filter(|w| matches!(w, SweepWorkload::Model(_)))
            .collect();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].name(), "ResNet18");
        assert!(models[0].layer_count() > 10);
        assert_eq!(models[0].macs(), models::resnet18().total_macs());
    }

    #[test]
    fn with_models_replaces_the_workload_axis() {
        let space = DesignSpace::with_models("resnet").unwrap();
        assert_eq!(
            space.workloads.len(),
            3,
            "ResNet18 + ResNet50 + the quantized ResNet18-W4 preset"
        );
        assert!(space
            .workloads
            .iter()
            .all(|w| matches!(w, SweepWorkload::Model(_))));
        let all = DesignSpace::with_models("").unwrap();
        assert_eq!(all.workloads.len(), models::NetworkModel::catalog().len());
        assert!(DesignSpace::with_models("no-such-net").is_err());
    }

    /// Every point of a whole-network sweep shares its network's layer
    /// slice, and so does its evaluated result: enumeration and
    /// evaluation bump a reference count instead of copying layers. A
    /// catalog sweep reads model records only, so the reports map (the
    /// one that keeps per-layer rows) stays empty.
    #[test]
    fn model_points_share_their_network_layers() {
        let space = DesignSpace {
            memories: roster::memory_corners(),
            ..DesignSpace::with_models("").unwrap()
        };
        let layers_of = |w: &SweepWorkload| match w {
            SweepWorkload::Model(net) => net.layers.clone(),
            SweepWorkload::Layer(_) => unreachable!("a model-only space"),
        };
        let shared = |p: &DesignPoint| {
            let net = space
                .workloads
                .iter()
                .find(|w| w.name() == p.workload.name());
            std::sync::Arc::ptr_eq(&layers_of(&p.workload), &layers_of(net.unwrap()))
        };
        let points = space.enumerate_filtered("OPT4E[EN-T]/28nm@2.00");
        assert_eq!(
            points.len(),
            space.workloads.len() * 3 * 4,
            "nets × W4/W8/W16 × corners"
        );
        assert!(points.iter().all(shared));
        let cache = tpe_engine::EngineCache::new();
        let config = crate::sweep::SweepConfig {
            threads: 2,
            seed: 1,
            cycle_model: tpe_engine::CycleModel::Analytic,
        };
        let outcome = crate::sweep::sweep_with_cache(&points, config, &cache);
        assert!(outcome.results.iter().all(|r| shared(&r.point)));
        assert_eq!(cache.models_len(), points.len());
        assert_eq!(cache.reports_len(), 0);
    }

    #[test]
    fn filter_narrows_enumeration() {
        let space = DesignSpace::quick();
        let all = space.enumerate();
        let opt3 = space.enumerate_filtered("opt3");
        assert!(!opt3.is_empty() && opt3.len() < all.len());
        assert!(opt3.iter().all(|p| p.style() == PeStyle::Opt3));
    }

    /// Every engine a sweep enumerates resolves back through the roster's
    /// label lookup — what makes any sweep point servable by name.
    #[test]
    fn every_point_engine_is_findable_by_label() {
        let space = DesignSpace {
            memories: roster::memory_corners(),
            ..DesignSpace::quick()
        };
        for p in space.enumerate() {
            let found = roster::find(&p.engine.label()).unwrap();
            assert_eq!(found, p.engine, "{}", p.engine.label());
        }
    }
}
