//! The paper's evaluation (§6): every table and figure is one entry of
//! the exhibit table (`capuchin_bench::exhibit`), driven by this binary.
//!
//! ```sh
//! cargo run --release -p capuchin-bench --bin exhibit -- table2_max_batch  # one exhibit
//! cargo run --release -p capuchin-bench --bin exhibit -- --all             # every exhibit, in order
//! ```
//!
//! Each exhibit prints its table and writes `results/<name>.json`
//! relative to the working directory, so run it from the repository root.

use capuchin_bench::exhibit::{Exhibit, EXHIBITS};

fn usage() -> ! {
    let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    eprintln!("usage: exhibit <{}> | exhibit --all", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Exhibit> = match args.as_slice() {
        [all] if all == "--all" => EXHIBITS.iter().collect(),
        [name] => EXHIBITS.iter().filter(|e| e.name == name).collect(),
        _ => usage(),
    };
    if chosen.is_empty() {
        usage();
    }
    for exhibit in chosen {
        println!("\n================= {} =================", exhibit.name);
        exhibit.execute();
    }
}
