#![warn(missing_docs)]

//! # tpe-workloads
//!
//! Workload substrate for the bit-weight TPE experiments: matrices, seeded
//! synthetic data, convolution lowering and a DNN/LLM layer-shape database.
//!
//! The paper's workload-dependent quantities all reduce to two things:
//!
//! 1. the **bit-level digit statistics** of normally-distributed INT8
//!    tensors (§II-C evaluates N(0, σ) matrices; real DNN weights and
//!    activations follow the same family), and
//! 2. the **GEMM shapes** (M, N, K) of the evaluated networks — GPT-2,
//!    MobileNetV3, ResNet, ViT, MobileViT — since the reduction dimension K
//!    drives column-PE utilization (§V-D).
//!
//! This crate supplies both, deterministically (every generator is seeded).

pub mod distributions;
pub mod hash;
pub mod img2col;
pub mod matrix;
pub mod models;
pub mod sparsity;

pub use hash::{fnv1a, Fnv1a};
pub use matrix::Matrix;
pub use models::{LayerList, LayerShape, NetworkModel, ShapeError, MAX_LAYER_MACS};
