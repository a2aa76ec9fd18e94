//! Regenerates every table and figure in paper order. `--only <name>`
//! selects one experiment; `--out <dir>` writes `<dir>/<name>.txt` per
//! experiment instead of printing.

use llmsim_bench::experiments::{default_render_workers, Experiment, EXPERIMENTS};
use llmsim_bench::runner::par_map;
use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: all_experiments [--only <name>] [--out <dir>]");
    std::process::exit(2);
}

fn main() {
    let mut selected: &[Experiment] = &EXPERIMENTS;
    let mut out_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--only" => {
                let name = args.next().unwrap_or_else(|| usage());
                let Some(entry) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                    eprintln!(
                        "unknown experiment {name}; valid names: {}",
                        names.join(", ")
                    );
                    std::process::exit(2);
                };
                selected = std::slice::from_ref(entry);
            }
            "--out" => out_dir = Some(args.next().unwrap_or_else(|| "results".to_owned())),
            _ => usage(),
        }
    }

    let rendered = par_map(selected, default_render_workers(), |(_, render)| render());
    let Some(dir) = out_dir else {
        print!("{}", rendered.join("\n"));
        return;
    };
    let dir = Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create {}: {e}", dir.display());
        std::process::exit(1);
    }
    for ((name, _), text) in selected.iter().zip(&rendered) {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}
