//! The `trace_export` command line: a bad model, batch or system prints
//! usage, exits 2 and writes no artifact.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("trace-export-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for args in [
        &["resnet9000"][..],
        &["resnet50", "many"],
        &["resnet50", "0"],
        &["resnet50", "8", "tf-new"],
        &["resnet50", "8", "capuchin", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_export"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("trace_export runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: trace_export"), "{args:?}: {stderr}");
        assert!(stderr.contains(args[args.len() - 1]), "{args:?}: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("readable").collect();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert!(left.is_empty(), "a bad invocation wrote {left:?}");
}
