//! # capuchin-models — the paper's workload zoo
//!
//! From-scratch graph builders for the seven networks of the paper's
//! Table 1: VGG16, ResNet-50, ResNet-152, InceptionV3, InceptionV4,
//! DenseNet-121, and BERT-Base. Each builder produces the full *training*
//! graph — forward pass, reverse-mode backward pass, and SGD weight
//! updates — at a chosen batch size.
//!
//! ```
//! use capuchin_models::ModelKind;
//!
//! let model = ModelKind::ResNet50.build(32);
//! assert!(model.graph.op_count() > 500);
//! println!("{} at batch {}: {} params", model.graph.name(),
//!          model.batch, model.graph.param_count());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bert;
mod densenet;
mod inception;
mod resnet;
mod vgg;

pub use bert::{bert, bert_base, BertConfig};
pub use densenet::densenet121;
pub use inception::{inception_v3, inception_v4};
pub use resnet::{resnet101, resnet152, resnet50};
pub use vgg::{vgg16, vgg19};

use capuchin_graph::{build_backward, GradInfo, Graph, ValueId};
use serde::{Deserialize, Serialize};

/// A fully-built training computation.
#[derive(Debug)]
pub struct Model {
    /// The training graph (forward + backward + updates).
    pub graph: Graph,
    /// The scalar loss value.
    pub loss: ValueId,
    /// Gradient bookkeeping from autodiff.
    pub grads: GradInfo,
    /// Mini-batch size the graph was built for.
    pub batch: usize,
}

impl Model {
    /// Finalizes a forward graph into a training model by appending the
    /// backward pass.
    pub fn finish(mut graph: Graph, loss: ValueId, batch: usize) -> Model {
        let grads = build_backward(&mut graph, loss);
        debug_assert!(graph.validate().is_ok());
        Model {
            graph,
            loss,
            grads,
            batch,
        }
    }
}

/// The paper's workloads (Table 1).
///
/// `Ord` follows declaration order; the variant itself serves as an
/// interned cache key (cheaper than cloning the model's name `String`
/// per lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// VGG16, 224×224 CNN.
    Vgg16,
    /// ResNet-50, 224×224 CNN.
    ResNet50,
    /// ResNet-152, 224×224 CNN.
    ResNet152,
    /// InceptionV3, 299×299 CNN.
    InceptionV3,
    /// InceptionV4, 299×299 CNN.
    InceptionV4,
    /// DenseNet-121, 224×224 CNN (eager-mode workload).
    DenseNet121,
    /// BERT-Base with an MLM head (Transformer).
    BertBase,
}

impl ModelKind {
    /// All workloads, in the paper's Table 1 order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Vgg16,
        ModelKind::ResNet50,
        ModelKind::ResNet152,
        ModelKind::InceptionV3,
        ModelKind::InceptionV4,
        ModelKind::DenseNet121,
        ModelKind::BertBase,
    ];

    /// Command-line spellings (`capuchin-cli --model`, `trace_export`),
    /// in [`ModelKind::ALL`] order.
    pub const CLI_NAMES: [&'static str; 7] = [
        "vgg16",
        "resnet50",
        "resnet152",
        "inceptionv3",
        "inceptionv4",
        "densenet",
        "bert",
    ];

    /// Parses a command-line spelling ([`ModelKind::CLI_NAMES`]),
    /// ignoring case; `None` for anything else.
    pub fn from_cli_name(s: &str) -> Option<ModelKind> {
        let s = s.to_lowercase();
        let i = ModelKind::CLI_NAMES.iter().position(|&n| n == s)?;
        Some(ModelKind::ALL[i])
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Vgg16 => "Vgg16",
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::ResNet152 => "ResNet-152",
            ModelKind::InceptionV3 => "InceptionV3",
            ModelKind::InceptionV4 => "InceptionV4",
            ModelKind::DenseNet121 => "DenseNet",
            ModelKind::BertBase => "BERT",
        }
    }

    /// Builds the training graph at the given batch size.
    pub fn build(self, batch: usize) -> Model {
        match self {
            ModelKind::Vgg16 => vgg16(batch),
            ModelKind::ResNet50 => resnet50(batch),
            ModelKind::ResNet152 => resnet152(batch),
            ModelKind::InceptionV3 => inception_v3(batch),
            ModelKind::InceptionV4 => inception_v4(batch),
            ModelKind::DenseNet121 => densenet121(batch),
            ModelKind::BertBase => bert_base(batch),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_names_parse_in_any_case() {
        for (kind, name) in ModelKind::ALL.into_iter().zip(ModelKind::CLI_NAMES) {
            assert_eq!(ModelKind::from_cli_name(name), Some(kind));
        }
        let upper = ModelKind::from_cli_name("ResNet50");
        assert_eq!(upper, Some(ModelKind::ResNet50));
        assert_eq!(ModelKind::from_cli_name("resnet9000"), None);
    }

    #[test]
    fn all_models_build_and_validate_at_small_batch() {
        for kind in ModelKind::ALL {
            let m = kind.build(2);
            m.graph.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(m.batch, 2);
            assert!(m.graph.op_count() > 50, "{kind} suspiciously small");
        }
    }

    #[test]
    fn activation_bytes_scale_with_batch() {
        let small = ModelKind::ResNet50.build(2);
        let big = ModelKind::ResNet50.build(4);
        // Feature maps scale ~linearly with batch (weights don't).
        let s = small.graph.activation_bytes();
        let b = big.graph.activation_bytes();
        assert!(b > s * 19 / 10, "s={s} b={b}");
    }

    #[test]
    fn node_counts_match_paper_scale() {
        // "more than 3000 nodes in ResNet-50, 7000 nodes in BERT" (§1) for
        // TF's internal graph; our leaner IR should still be in the
        // hundreds-to-thousands.
        let resnet = ModelKind::ResNet50.build(2);
        assert!(resnet.graph.op_count() > 400, "{}", resnet.graph.op_count());
        let bert = ModelKind::BertBase.build(2);
        assert!(bert.graph.op_count() > 700, "{}", bert.graph.op_count());
    }
}
