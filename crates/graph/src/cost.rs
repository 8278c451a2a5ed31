//! Analytic kernel cost model and convolution algorithm menu.
//!
//! Costs are roofline-style ([`KernelCost`]): FLOPs for math-heavy kernels
//! (convolution, matmul) and device-memory bytes for everything else. The
//! observed 37× spread of convolution times inside one network (paper
//! Fig. 2) emerges from the shape diversity, not from per-layer constants.
//!
//! Convolutions additionally expose an *algorithm menu*
//! ([`conv_algorithms`]), modeling cuDNN's workspace-hungry fast paths.
//! The executor picks the fastest algorithm whose workspace fits in free
//! device memory — the mechanism behind the paper's Vgg16 observation that
//! original TensorFlow *slows down* at large batch ("some convolution
//! layers falling back to a slower convolution algorithm due to memory
//! limit", §6.3.2) while Capuchin speeds up by freeing memory.

use capuchin_sim::KernelCost;

use crate::graph::Graph;
use crate::op::{Op, OpKind};

/// Sustained fraction of peak FLOP/s for convolution kernels.
const CONV_EFFICIENCY: f64 = 0.55;
/// Sustained fraction of peak FLOP/s for (batched) matmul kernels.
const MATMUL_EFFICIENCY: f64 = 0.50;

/// Per-op convolution workspace cap, mirroring the cuDNN workspace limit
/// frameworks configure (algorithms needing more are not offered).
pub const CONV_WORKSPACE_LIMIT: u64 = 4 << 30;

/// One cuDNN-style convolution algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvAlgo {
    /// Algorithm name, e.g. `"winograd"`.
    pub name: &'static str,
    /// Scratch workspace the algorithm needs for this op's shapes.
    pub workspace_bytes: u64,
    /// Duration multiplier relative to the baseline implicit-GEMM path
    /// (smaller is faster).
    pub speed_factor: f64,
}

impl ConvAlgo {
    /// The always-available zero-workspace baseline.
    pub fn baseline() -> ConvAlgo {
        ConvAlgo {
            name: "implicit_gemm",
            workspace_bytes: 0,
            speed_factor: 1.0,
        }
    }
}

fn input_bytes(g: &Graph, op: &Op) -> f64 {
    op.inputs
        .iter()
        .map(|&v| g.value(v).size_bytes() as f64)
        .sum()
}

fn output_bytes(g: &Graph, op: &Op) -> f64 {
    op.outputs
        .iter()
        .map(|&v| g.value(v).size_bytes() as f64)
        .sum()
}

fn io_bytes(g: &Graph, op: &Op) -> f64 {
    input_bytes(g, op) + output_bytes(g, op)
}

/// FLOPs of a convolution given its IO values (2 * N * K * C * k² * Ho * Wo).
fn conv_flops(g: &Graph, op: &Op) -> f64 {
    // Identify the filter among the inputs by rank-4 [K, C, k, k] shape and
    // the spatial output. For backprop variants the "output" plays the role
    // of dy/dx but the FLOP count is symmetric with the forward pass.
    let (spatial, filter) = match op.kind {
        OpKind::Conv2d(_) => (op.outputs[0], op.inputs[1]),
        OpKind::Conv2dBackpropInput(_) => (op.inputs[1], op.inputs[0]),
        OpKind::Conv2dBackpropFilter(_) => (op.inputs[1], op.outputs[0]),
        _ => unreachable!("conv_flops on non-conv op"),
    };
    let s = &g.value(spatial).shape;
    let f = &g.value(filter).shape;
    debug_assert_eq!(f.rank(), 4, "filter must be [K,C,k,k]");
    let (n, ho, wo) = (s.dim(0), s.dim(2), s.dim(3));
    let (k_out, c, kh, kw) = (f.dim(0), f.dim(1), f.dim(2), f.dim(3));
    2.0 * n as f64 * k_out as f64 * c as f64 * kh as f64 * kw as f64 * ho as f64 * wo as f64
}

fn matmul_flops(g: &Graph, op: &Op) -> f64 {
    let a = &g.value(op.inputs[0]).shape;
    let y = &g.value(op.outputs[0]).shape;
    let ra = a.rank();
    let ry = y.rank();
    let (m, n) = (y.dim(ry - 2), y.dim(ry - 1));
    // The contracted dimension is whichever trailing dim of `a` is not `m`.
    let ka = a.dim(ra - 1);
    let kb = a.dim(ra - 2);
    let k = if matches!(op.kind, OpKind::MatMul { ta: true, .. }) {
        kb
    } else {
        ka
    };
    let batch = if ry == 3 { y.dim(0) as f64 } else { 1.0 };
    2.0 * batch * m as f64 * n as f64 * k as f64
}

/// Roofline cost of one op.
///
/// # Panics
///
/// Panics if `op` is not from `g`.
pub fn kernel_cost(g: &Graph, op: &Op) -> KernelCost {
    let io = io_bytes(g, op);
    match &op.kind {
        // Sources materialize their value; weights are a one-time cost.
        OpKind::Input | OpKind::Weight => KernelCost::memory_bound(output_bytes(g, op)),

        OpKind::Conv2d(_) | OpKind::Conv2dBackpropInput(_) | OpKind::Conv2dBackpropFilter(_) => {
            KernelCost {
                flops: conv_flops(g, op),
                bytes: io,
                efficiency: CONV_EFFICIENCY,
            }
        }
        OpKind::MatMul { .. } => KernelCost {
            flops: matmul_flops(g, op),
            bytes: io,
            efficiency: MATMUL_EFFICIENCY,
        },

        // Normalizations make several passes over the data.
        OpKind::BatchNorm | OpKind::LayerNorm => {
            KernelCost::memory_bound(2.0 * input_bytes(g, op) + output_bytes(g, op))
        }
        OpKind::BatchNormGrad | OpKind::LayerNormGrad => KernelCost::memory_bound(2.0 * io),
        OpKind::Softmax
        | OpKind::SoftmaxGrad
        | OpKind::SoftmaxCrossEntropy
        | OpKind::SoftmaxCrossEntropyGrad => KernelCost::memory_bound(1.5 * io),

        // Elementwise and data-movement ops: one read + one write.
        OpKind::Relu
        | OpKind::ReluGrad
        | OpKind::Gelu
        | OpKind::GeluGrad
        | OpKind::Add
        | OpKind::AddN
        | OpKind::ScalarMul { .. }
        | OpKind::Dropout { .. }
        | OpKind::DropoutGrad { .. }
        | OpKind::Concat { .. }
        | OpKind::Slice { .. }
        | OpKind::Reshape
        | OpKind::Transpose
        | OpKind::BiasAdd
        | OpKind::BiasAddGrad
        | OpKind::MaxPool(_)
        | OpKind::MaxPoolGrad(_)
        | OpKind::AvgPool(_)
        | OpKind::AvgPoolGrad(_)
        | OpKind::GlobalAvgPool
        | OpKind::GlobalAvgPoolGrad => KernelCost::memory_bound(io),

        OpKind::Embedding => KernelCost::memory_bound(io_bytes(g, op)),
        // Sparse scatter-add touches ~2x the gradient slices.
        OpKind::EmbeddingGrad => {
            KernelCost::memory_bound(2.0 * g.value(op.inputs[1]).size_bytes() as f64)
        }
        // SGD: read w, read dw, write w.
        OpKind::ApplyGradient => KernelCost::memory_bound(1.5 * input_bytes(g, op)),
    }
}

/// The cuDNN-style algorithm menu for a convolution op, fastest last.
///
/// Non-convolutions get only the baseline entry. Workspace sizes scale with
/// the op's IO footprint, so large-batch convolutions need large scratch —
/// exactly the memory/speed trade the paper discusses for cuDNN (§2.1).
pub fn conv_algorithms(g: &Graph, op: &Op) -> Vec<ConvAlgo> {
    conv_menu(g, op).collect()
}

/// [`conv_algorithms`] without the `Vec`: the executor consults the menu
/// for every convolution it launches.
fn conv_menu(g: &Graph, op: &Op) -> impl Iterator<Item = ConvAlgo> {
    let attrs = match op.kind {
        OpKind::Conv2d(a) | OpKind::Conv2dBackpropInput(a) | OpKind::Conv2dBackpropFilter(a) => {
            Some(a)
        }
        _ => None,
    };
    let (io, out) = match attrs {
        Some(_) => (io_bytes(g, op) as u64, output_bytes(g, op) as u64),
        None => (0, 0),
    };
    [
        Some(ConvAlgo::baseline()),
        attrs.map(|_| ConvAlgo {
            name: "gemm_precomp",
            workspace_bytes: out / 4,
            speed_factor: 0.90,
        }),
        attrs.filter(|a| a.kernel >= 3).map(|_| ConvAlgo {
            name: "fft_tiling",
            workspace_bytes: io / 2,
            speed_factor: 0.80,
        }),
        attrs
            .filter(|a| a.kernel == 3 && a.stride == 1)
            .map(|_| ConvAlgo {
                name: "winograd",
                workspace_bytes: io / 4,
                speed_factor: 0.70,
            }),
    ]
    .into_iter()
    .flatten()
    .filter(|a| a.workspace_bytes <= CONV_WORKSPACE_LIMIT)
}

/// Picks the fastest algorithm whose workspace fits in `free_bytes`.
pub fn pick_conv_algo(g: &Graph, op: &Op, free_bytes: u64) -> ConvAlgo {
    conv_menu(g, op)
        .filter(|a| a.workspace_bytes <= free_bytes)
        .min_by(|a, b| {
            a.speed_factor
                .partial_cmp(&b.speed_factor)
                .expect("speed factors are finite")
        })
        .unwrap_or_else(ConvAlgo::baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use capuchin_tensor::{DType, Shape};

    fn conv_graph() -> Graph {
        let mut g = Graph::new("t");
        let x = g.input("x", Shape::nchw(8, 64, 56, 56), DType::F32);
        let _y = g.conv2d("conv", x, 128, 3, 1, 1);
        g
    }

    fn find_op<'g>(g: &'g Graph, name: &str) -> &'g Op {
        g.ops().iter().find(|o| o.name == name).unwrap()
    }

    #[test]
    fn conv_flops_formula() {
        let g = conv_graph();
        let op = find_op(&g, "conv");
        let cost = kernel_cost(&g, op);
        let expect = 2.0 * 8.0 * 128.0 * 64.0 * 9.0 * 56.0 * 56.0;
        assert_eq!(cost.flops, expect);
        assert!(cost.bytes > 0.0);
    }

    #[test]
    fn conv_backprops_cost_like_forward() {
        let mut g = conv_graph();
        let labels = g.input("labels", Shape::vector(8), DType::I32);
        let conv_out = g.values().iter().find(|v| v.name == "conv/out").unwrap().id;
        let gap = g.global_avg_pool("gap", conv_out);
        let fc = g.dense("fc", gap, 10);
        let loss = g.softmax_cross_entropy("loss", fc, labels);
        crate::build_backward(&mut g, loss);
        let fwd = kernel_cost(&g, find_op(&g, "conv")).flops;
        let bwd_f = g
            .ops()
            .iter()
            .find(|o| matches!(o.kind, OpKind::Conv2dBackpropFilter(_)))
            .unwrap();
        assert_eq!(kernel_cost(&g, bwd_f).flops, fwd);
    }

    #[test]
    fn matmul_flops_formula() {
        let mut g = Graph::new("t");
        let a = g.input("a", Shape::matrix(32, 512), DType::F32);
        let b = g.input("b", Shape::matrix(512, 1024), DType::F32);
        let _y = g.matmul("mm", a, b, false, false);
        let cost = kernel_cost(&g, find_op(&g, "mm"));
        assert_eq!(cost.flops, 2.0 * 32.0 * 512.0 * 1024.0);
    }

    #[test]
    fn batched_matmul_flops_scale_with_batch() {
        let mut g = Graph::new("t");
        let a = g.input("a", Shape::new(vec![12, 128, 64]), DType::F32);
        let b = g.input("b", Shape::new(vec![12, 128, 64]), DType::F32);
        let _y = g.matmul("scores", a, b, false, true);
        let cost = kernel_cost(&g, find_op(&g, "scores"));
        assert_eq!(cost.flops, 2.0 * 12.0 * 128.0 * 128.0 * 64.0);
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let mut g = Graph::new("t");
        let x = g.input("x", Shape::nchw(8, 64, 56, 56), DType::F32);
        let _r = g.relu("relu", x);
        let cost = kernel_cost(&g, find_op(&g, "relu"));
        assert_eq!(cost.flops, 0.0);
        let bytes = 2.0 * (8 * 64 * 56 * 56 * 4) as f64;
        assert_eq!(cost.bytes, bytes);
    }

    #[test]
    fn winograd_only_for_3x3_stride1() {
        let mut g = Graph::new("t");
        let x = g.input("x", Shape::nchw(8, 3, 224, 224), DType::F32);
        let _a = g.conv2d("c7", x, 64, 7, 2, 3);
        let x2 = g.input("x2", Shape::nchw(8, 64, 56, 56), DType::F32);
        let _b = g.conv2d("c3", x2, 64, 3, 1, 1);
        let a7: Vec<_> = conv_algorithms(&g, find_op(&g, "c7"))
            .iter()
            .map(|a| a.name)
            .collect();
        let a3: Vec<_> = conv_algorithms(&g, find_op(&g, "c3"))
            .iter()
            .map(|a| a.name)
            .collect();
        assert!(!a7.contains(&"winograd"));
        assert!(a3.contains(&"winograd"));
    }

    #[test]
    fn pick_algo_respects_free_memory() {
        let g = conv_graph();
        let op = find_op(&g, "conv");
        let plenty = pick_conv_algo(&g, op, u64::MAX);
        assert_eq!(plenty.name, "winograd");
        let tight = pick_conv_algo(&g, op, 0);
        assert_eq!(tight.name, "implicit_gemm");
    }

    #[test]
    fn non_conv_gets_baseline_only() {
        let mut g = Graph::new("t");
        let x = g.input("x", Shape::vector(8), DType::F32);
        let _r = g.relu("r", x);
        let algos = conv_algorithms(&g, find_op(&g, "r"));
        assert_eq!(algos.len(), 1);
        assert_eq!(algos[0].name, "implicit_gemm");
    }
}
