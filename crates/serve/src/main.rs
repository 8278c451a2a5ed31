//! `capuchin-serve` — the streaming scheduler daemon, standalone.
//!
//! ```text
//! capuchin-serve [--addr 127.0.0.1:7070] [--clock virtual|wall]
//!                [the cluster flags of `capuchin-cli cluster`]
//! ```
//!
//! `--help` prints the flags (`capuchin_serve::USAGE`).
//!
//! Prints one `listening on <addr>` line to stdout once the socket is
//! bound (drivers parse the ephemeral port from it), then serves until a
//! client sends `shutdown`. The wire protocol is documented in
//! `capuchin_serve::protocol` and DESIGN.md §12.

use std::collections::HashMap;

use capuchin_cluster::STATS_SCHEMA_VERSION;
use capuchin_serve::{serve, ServeConfig, USAGE, WIRE_SCHEMA_VERSION};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_flags(raw: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = it
                .next()
                .unwrap_or_else(|| fail(&format!("missing value for --{key}")));
            flags.insert(key.to_owned(), val.clone());
        } else {
            fail(&format!("unexpected argument `{a}`"));
        }
    }
    flags
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(argv.first().map(String::as_str), Some("--help" | "-h")) {
        println!("{USAGE}");
        return;
    }
    let flags = parse_flags(&argv);
    let cfg = ServeConfig::from_flags(&flags).unwrap_or_else(|e| fail(&e));
    let clock = cfg.clock;
    let handle = serve(cfg).unwrap_or_else(|e| fail(&format!("cannot bind: {e}")));
    println!(
        "listening on {} (clock {}, wire schema v{WIRE_SCHEMA_VERSION}, stats schema v{STATS_SCHEMA_VERSION})",
        handle.addr(),
        clock.name(),
    );
    handle.wait();
}
