//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p cliffguard-bench --bin experiments -- all
//! cargo run --release -p cliffguard-bench --bin experiments -- fig07 fig08 --scale quick
//! cargo run --release -p cliffguard-bench --bin experiments -- all --json results.json
//! ```

use cliffguard_bench::experiments::{run_experiment, ALL_IDS};
use cliffguard_bench::{Scale, Table};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Resolved before anything runs: an unknown id is a usage error, and
    // a repeated id runs once, in first-seen order.
    let mut ids: Vec<&'static str> = Vec::new();
    let mut add = |id: &'static str| {
        if !ids.contains(&id) {
            ids.push(id);
        }
    };
    let mut scale = Scale::Full;
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale needs tiny|quick|full"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a path")),
                );
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
                cliffguard_parallel::set_threads(n);
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            "all" => ALL_IDS.iter().copied().for_each(&mut add),
            other => match ALL_IDS.iter().find(|&&id| id == other) {
                Some(&id) => add(id),
                None => die(&format!(
                    "unknown experiment `{other}`; known: {}",
                    ALL_IDS.join(", ")
                )),
            },
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
        return;
    }

    let mut all_tables: Vec<Table> = Vec::new();
    for id in ids {
        let t0 = Instant::now();
        let tables = run_experiment(id, scale, seed).expect("ids are resolved against ALL_IDS");
        for t in &tables {
            println!("{t}");
        }
        eprintln!("[{id}] done in {:.1}s", t0.elapsed().as_secs_f64());
        all_tables.extend(tables);
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&all_tables).expect("serializable");
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <id>... | all [--scale tiny|quick|full] [--seed N] [--json PATH]\n\
         \x20                                [--threads N]\n\
         ids: {}",
        ALL_IDS.join(", ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
