//! The `trace_export` command line: a bad model, batch or system prints
//! usage, exits 2 and writes no artifact; a batch that does not fit
//! exits 1 with the engine's error.

use std::path::Path;
use std::process::{Command, Output};

fn trace_export(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_export"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("trace_export runs")
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("trace-export-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn bad_arguments_exit_2_and_write_nothing() {
    let dir = scratch_dir("cli");
    for args in [
        &["resnet9000"][..],
        &["resnet50", "many"],
        &["resnet50", "0"],
        &["resnet50", "8", "tf-new"],
        &["resnet50", "8", "capuchin", "extra"],
        &["bert", "8", "vdnn"],
    ] {
        let out = trace_export(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: trace_export"), "{args:?}: {stderr}");
        assert!(stderr.contains(args[args.len() - 1]), "{args:?}: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("readable").collect();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert!(left.is_empty(), "a bad invocation wrote {left:?}");
}

#[test]
fn a_batch_that_does_not_fit_exits_1_with_the_engine_error() {
    let dir = scratch_dir("oom");
    let out = trace_export(&dir, &["vgg16", "400", "tf-ori"]);
    let left: Vec<_> = std::fs::read_dir(&dir).expect("readable").collect();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("out of device memory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(left.is_empty(), "an OOM run wrote {left:?}");
}

#[test]
fn openai_memory_and_dtr_are_accepted() {
    let dir = scratch_dir("spellings");
    for (system, display) in [
        ("openai-memory", "OpenAI-M"),
        ("openai-m", "OpenAI-M"),
        ("dtr", "DTR"),
    ] {
        let out = trace_export(&dir, &["resnet50", "4", system]);
        assert!(out.status.success(), "{system}: {out:?}");
        let written = dir.join(format!("results/trace_resnet50_4_{display}.json"));
        assert!(written.exists(), "{system}: no {}", written.display());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
