//! The `exhibit` driver's command line: a bad invocation prints usage,
//! exits 2 and writes no artifact.

use std::process::Command;

#[test]
fn unknown_exhibit_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("exhibit-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for args in [&["no_such_exhibit"][..], &[], &["--all", "fig1_vdnn_sync"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exhibit"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("exhibit runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: exhibit"));
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("readable").collect();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert!(left.is_empty(), "a bad invocation wrote {left:?}");
}
