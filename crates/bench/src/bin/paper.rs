//! `paper` — regenerate every table and figure of the GSI paper.
//!
//! ```text
//! paper <experiment> [options]
//!
//! experiments:
//!   table2 table3 table4 table5 table6 table7 table8 table9 table10 table11
//!   fig12 fig13 fig14 fig15 all
//!
//! options:
//!   --scale <f64>      multiplier on the default dataset scales (default 1.0)
//!   --queries <n>      queries per configuration (default 5; the paper uses 100)
//!   --query-size <n>   |V(Q)| (default 12, the paper's default)
//!   --seed <n>         RNG seed (default 42)
//!   --timeout <ms>     per-query timeout for GPU engines (default 30000; the
//!                      paper uses 100000)
//!   --cpu-timeout <ms> per-query timeout for CPU baselines (default 10000)
//! ```

use gsi_bench::experiments;
use gsi_bench::workloads::HarnessOpts;

fn usage() -> ! {
    eprintln!(
        "usage: paper <table2..table11|fig12..fig15|all> \
         [--scale F] [--queries N] [--query-size N] [--seed N] \
         [--timeout MS] [--cpu-timeout MS]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let run: fn(&HarnessOpts) = match args[0].as_str() {
        "table2" => experiments::table2,
        "table3" => experiments::table3,
        "table4" => experiments::table4,
        "table5" => experiments::table5,
        "table6" => experiments::table6,
        "table7" => experiments::table7,
        "table8" => experiments::table8,
        "table9" => experiments::table9,
        "table10" => experiments::table10,
        "table11" => experiments::table11,
        "fig12" => experiments::fig12,
        "fig13" => experiments::fig13,
        "fig14" => experiments::fig14,
        "fig15" => experiments::fig15,
        "all" => experiments::all,
        _ => usage(),
    };
    let mut opts = HarnessOpts::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| usage());
        match flag {
            "--scale" => opts.scale = val.parse().unwrap_or_else(|_| usage()),
            "--queries" => opts.queries = val.parse().unwrap_or_else(|_| usage()),
            "--query-size" => opts.query_size = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val.parse().unwrap_or_else(|_| usage()),
            "--timeout" => opts.timeout_ms = val.parse().unwrap_or_else(|_| usage()),
            "--cpu-timeout" => opts.cpu_timeout_ms = val.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 2;
    }

    println!(
        "GSI reproduction harness — scale x{}, {} queries/config, |V(Q)|={}, seed {}",
        opts.scale, opts.queries, opts.query_size, opts.seed
    );

    run(&opts);
}
