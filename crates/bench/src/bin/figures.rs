//! `figures` — regenerate the paper's evaluation figures, the ablations
//! and the sweeps from the registry in `bench::figures`.
//!
//! ```text
//! figures [--quick] [NAME...]
//! ```
//!
//! With no NAME every registered figure runs, in registry order. Each
//! figure prints an `=== <name> ===` header and its table, and writes
//! `bench_results/<name>.json` relative to the working directory (run
//! from a scratch directory to compare against the committed rows).
//! `--quick` selects the reduced scale CI gates against
//! `bench_results/quick/`. An unknown NAME or flag exits 2 and lists the
//! registry.

use bench::figures::{figure, Figure, FIGURES};
use bench::{emit_json, print_table, Scale};

fn usage(err: &str) -> ! {
    eprintln!("figures: {err}");
    eprintln!("usage: figures [--quick] [NAME...]");
    eprintln!("figures:");
    for f in FIGURES {
        eprintln!("  {}", f.name);
    }
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Paper;
    let mut selected: Vec<&Figure> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            name => selected
                .push(figure(name).unwrap_or_else(|| usage(&format!("unknown figure {name:?}")))),
        }
    }
    if selected.is_empty() {
        selected = FIGURES.iter().collect();
    }
    for fig in selected {
        println!("=== {} ===", fig.name);
        let rows = (fig.rows)(scale);
        print_table(fig.title, fig.x_label, &rows);
        emit_json(fig.name, &rows);
    }
}
