//! `capuchin-serve` — the streaming scheduler daemon, standalone.
//!
//! ```text
//! capuchin-serve [--addr 127.0.0.1:7070] [--clock virtual|wall]
//!                [--gpus <n>] [--memory <bytes|GiB>]
//!                [--admission tf-ori|capuchin] [--strategy fifo|best-fit]
//!                [--aging-rate <r>] [--preemption on|off]
//!                [--interconnect off|pcie|peer<k>]
//!                [--elastic on|off] [--min-batch-frac <f>]
//!                [--slo-aware on|off] [--predictive on|off]
//!                [--safety-margin <permille>] [--min-samples <n>]
//! ```
//!
//! Prints one `listening on <addr>` line to stdout once the socket is
//! bound (drivers parse the ephemeral port from it), then serves until a
//! client sends `shutdown`. The wire protocol is documented in
//! `capuchin_serve::protocol` and DESIGN.md §12.

use std::collections::HashMap;

use capuchin_cluster::STATS_SCHEMA_VERSION;
use capuchin_serve::{serve, ServeConfig, WIRE_SCHEMA_VERSION};

const USAGE: &str = "\
capuchin-serve — streaming scheduler daemon (line-delimited JSON over TCP)

USAGE:
    capuchin-serve [--addr <host:port>] [--clock virtual|wall]
                   [--gpus <n>] [--memory <bytes|GiB>]
                   [--admission tf-ori|capuchin] [--strategy fifo|best-fit]
                   [--aging-rate <r>] [--preemption on|off]
                   [--interconnect off|pcie|peer<k>]
                   [--elastic on|off] [--min-batch-frac <f>]
                   [--slo-aware on|off] [--predictive on|off]
                   [--safety-margin <permille>] [--min-samples <n>]

The cluster flags, their defaults and their messages are those of
`capuchin-cli cluster`: 4 × 16 GiB GPUs, capuchin admission, fifo
placement, SLO-aware scheduling on (--slo-aware off is the SLO-blind
baseline). --addr defaults to 127.0.0.1:7070; use port 0
for an ephemeral port (printed on the `listening on` line). --clock
virtual (the default) only advances the simulated clock inside `drain`,
so a fixed submission sequence reproduces the batch run byte-for-byte;
--clock wall paces events against real time.

Requests (one JSON object per line): submit, cancel, status, stats,
subscribe, drain, shutdown.
";

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
