//! Convolution → GEMM lowering (img2col), both shape-level and data-level.
//!
//! The paper maps every DNN layer to a matrix multiplication before feeding
//! it to the TPE; §IV-C's ResNet-18 example lowers a 3×3 convolution over
//! 64 channels to a GEMM with reduction dimension K = 64·3·3 = 576.

use crate::matrix::{matmul_i8, Matrix};

/// Shape of a 2-D convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input height and width (square inputs for simplicity).
    pub input_hw: usize,
    /// Kernel height/width (square kernels).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
    /// Channel groups (`in_channels` for a depthwise convolution).
    pub groups: usize,
}

impl ConvShape {
    /// A standard (non-grouped) convolution.
    pub fn standard(
        in_channels: usize,
        out_channels: usize,
        input_hw: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            input_hw,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// A depthwise convolution (one group per channel).
    pub fn depthwise(
        channels: usize,
        input_hw: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels: channels,
            out_channels: channels,
            input_hw,
            kernel,
            stride,
            padding,
            groups: channels,
        }
    }

    /// Output spatial size (height = width).
    pub fn output_hw(&self) -> usize {
        (self.input_hw + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// The GEMM this convolution lowers to, per group:
    /// `M = out_channels/groups`, `K = (in_channels/groups)·k²`,
    /// `N = output_hw²`.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        let m = self.out_channels / self.groups;
        let k = (self.in_channels / self.groups) * self.kernel * self.kernel;
        let n = self.output_hw() * self.output_hw();
        (m, n, k)
    }

    /// Total multiply–accumulates across all groups.
    pub fn macs(&self) -> u64 {
        let (m, n, k) = self.gemm_dims();
        [n, k, self.groups]
            .into_iter()
            .try_fold(m as u64, |acc, d| acc.checked_mul(d as u64))
            .expect("convolution MAC count overflows u64")
    }
}

/// Lowers an input tensor (channel-major `[C][H][W]`, flattened) into the
/// img2col patch matrix of shape `K × N` where `K = C·k²`, `N = out_hw²`.
///
/// # Panics
///
/// Panics if `input.len() != in_channels · input_hw²` or the shape is
/// grouped (use per-group lowering for depthwise).
pub fn im2col(shape: &ConvShape, input: &[i8]) -> Matrix<i8> {
    assert_eq!(shape.groups, 1, "im2col lowers one group at a time");
    assert_eq!(
        input.len(),
        shape.in_channels * shape.input_hw * shape.input_hw,
        "input tensor size mismatch"
    );
    let out_hw = shape.output_hw();
    let k_dim = shape.in_channels * shape.kernel * shape.kernel;
    let n_dim = out_hw * out_hw;
    let hw = shape.input_hw;
    Matrix::from_fn(k_dim, n_dim, |kidx, nidx| {
        let c = kidx / (shape.kernel * shape.kernel);
        let rem = kidx % (shape.kernel * shape.kernel);
        let (kh, kw) = (rem / shape.kernel, rem % shape.kernel);
        let (oy, ox) = (nidx / out_hw, nidx % out_hw);
        let iy = (oy * shape.stride + kh) as isize - shape.padding as isize;
        let ix = (ox * shape.stride + kw) as isize - shape.padding as isize;
        if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
            0
        } else {
            input[c * hw * hw + iy as usize * hw + ix as usize]
        }
    })
}

/// Direct (sliding-window) convolution — the oracle for [`im2col`].
/// Weights are `[out_c][in_c][k][k]` flattened; returns `[out_c][oh][ow]`.
pub fn conv2d_direct(shape: &ConvShape, input: &[i8], weights: &[i8]) -> Vec<i32> {
    assert_eq!(shape.groups, 1);
    let out_hw = shape.output_hw();
    let hw = shape.input_hw;
    let k = shape.kernel;
    let mut out = vec![0i32; shape.out_channels * out_hw * out_hw];
    for oc in 0..shape.out_channels {
        for oy in 0..out_hw {
            for ox in 0..out_hw {
                let mut acc = 0i32;
                for ic in 0..shape.in_channels {
                    for kh in 0..k {
                        for kw in 0..k {
                            let iy = (oy * shape.stride + kh) as isize - shape.padding as isize;
                            let ix = (ox * shape.stride + kw) as isize - shape.padding as isize;
                            if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                continue;
                            }
                            let x = input[ic * hw * hw + iy as usize * hw + ix as usize];
                            let w = weights[((oc * shape.in_channels + ic) * k + kh) * k + kw];
                            acc += i32::from(x) * i32::from(w);
                        }
                    }
                }
                out[oc * out_hw * out_hw + oy * out_hw + ox] = acc;
            }
        }
    }
    out
}

/// Convolution *via* GEMM: weights reshaped to `M × K`, patches `K × N`.
pub fn conv2d_gemm(shape: &ConvShape, input: &[i8], weights: &[i8]) -> Vec<i32> {
    let (m, _n, k) = shape.gemm_dims();
    let w = Matrix::from_vec(m, k, weights.to_vec());
    let patches = im2col(shape, input);
    let out = matmul_i8(&w, &patches);
    out.data().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::uniform_int8_matrix;

    /// The paper's §IV-C example: a ResNet-18 middle 3×3 conv over 64
    /// channels has reduction dimension 576.
    #[test]
    fn resnet18_mid_layer_reduction_is_576() {
        let conv = ConvShape::standard(64, 64, 56, 3, 1, 1);
        let (_, _, k) = conv.gemm_dims();
        assert_eq!(k, 576);
    }

    /// img2col + GEMM equals direct convolution on random data.
    #[test]
    fn gemm_lowering_matches_direct_conv() {
        let shape = ConvShape::standard(3, 8, 10, 3, 2, 1);
        let input = uniform_int8_matrix(1, 3 * 100, 5).data().to_vec();
        let (m, _, k) = shape.gemm_dims();
        let weights = uniform_int8_matrix(1, m * k, 6).data().to_vec();
        assert_eq!(
            conv2d_gemm(&shape, &input, &weights),
            conv2d_direct(&shape, &input, &weights)
        );
    }

    #[test]
    fn stride_and_padding_output_sizes() {
        assert_eq!(ConvShape::standard(1, 1, 224, 7, 2, 3).output_hw(), 112);
        assert_eq!(ConvShape::standard(1, 1, 56, 3, 1, 1).output_hw(), 56);
        assert_eq!(ConvShape::standard(1, 1, 28, 1, 1, 0).output_hw(), 28);
    }

    #[test]
    fn depthwise_gemm_dims() {
        // MobileNet DW 3×3: per-channel GEMM has K = 9 — the low reduction
        // dimension behind Figure 11(B)'s utilization dips.
        let dw = ConvShape::depthwise(112, 28, 3, 1, 1);
        let (m, n, k) = dw.gemm_dims();
        assert_eq!((m, k), (1, 9));
        assert_eq!(n, 28 * 28);
    }

    #[test]
    fn macs_counts_all_groups() {
        let dw = ConvShape::depthwise(16, 8, 3, 1, 1);
        assert_eq!(dw.macs(), 16 * 9 * 64);
    }

    #[test]
    fn zero_padding_contributes_zeros() {
        let shape = ConvShape::standard(1, 1, 2, 3, 1, 1);
        let patches = im2col(&shape, &[1, 2, 3, 4]);
        // Top-left output's first patch element is padding.
        assert_eq!(patches[(0, 0)], 0);
        // Center elements survive.
        assert_eq!(patches[(4, 0)], 1);
    }
}
