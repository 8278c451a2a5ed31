//! `capuchin-cli max-batch` answers with the experiment harness's search
//! and refuses a policy that cannot train the model.

use std::process::Command;

use capuchin_bench::{Bench, System};
use capuchin_models::ModelKind;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_capuchin-cli"))
        .args(args)
        .output()
        .expect("capuchin-cli runs")
}

#[test]
fn max_batch_prints_the_harness_search() {
    let out = cli(&[
        "max-batch",
        "--model",
        "resnet50",
        "--policy",
        "tf-ori",
        "--memory",
        "2GiB",
    ]);
    assert!(out.status.success(), "{out:?}");
    let bench = Bench {
        spec: Bench::default().spec.with_memory(2 << 30),
        ..Bench::default()
    };
    let max = bench.max_batch(ModelKind::ResNet50, System::TfOri, 8);
    assert!(max > 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim(),
        format!("ResNet-50 maximum batch under tf-ori: {max}")
    );
}

#[test]
fn a_policy_that_cannot_train_the_model_exits_2() {
    for sub in [&["max-batch"][..], &["run", "--batch", "8"]] {
        let mut args = sub.to_vec();
        args.extend(["--model", "bert", "--policy", "vdnn"]);
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("vDNN is CNN-only"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
