//! Experiment CLI: regenerate the tables/figures of `EXPERIMENTS.md`.
//!
//! ```text
//! ssp-exper list                 # show the experiment registry
//! ssp-exper all [--quick]        # run everything
//! ssp-exper exp3 exp4 [--seed 7] # run selected experiments
//! ssp-exper all --csv results/   # additionally write one CSV per table
//! ```
//!
//! Every experiment runs inside a probe session; the final `telemetry`
//! table (and `timings.csv` under `--csv`) attributes each experiment's
//! wall time to solver work — WAP max-flow computations, BAL bisection
//! steps, local-search evaluations. See `docs/OBSERVABILITY.md`.

use ssp_exper::table::Cell;
use ssp_exper::{registry, RunCfg, Table};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit(0);
    }
    let mut cfg = RunCfg::default();
    let mut selected: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => {
                let v = iter.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2)
                });
                cfg.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed '{v}'");
                    std::process::exit(2)
                });
            }
            "--csv" => {
                csv_dir = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2)
                }));
            }
            "list" => {
                for e in registry() {
                    println!("{:6}  {}", e.id, e.title);
                }
                return;
            }
            "all" => selected = registry().iter().map(|e| e.id.to_string()).collect(),
            "-h" | "--help" => usage_and_exit(0),
            other if other.starts_with("exp") => selected.push(other.to_string()),
            other => {
                eprintln!("unknown argument '{other}'");
                usage_and_exit(2);
            }
        }
    }
    if selected.is_empty() {
        usage_and_exit(2);
    }

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let reg = registry();
    let mut timings = Table::new(
        "telemetry: per-experiment wall time and solver counters",
        &[
            "exp",
            "wall s",
            "flow calls",
            "bal rounds",
            "bal flows",
            "ls evals",
            "validations",
        ],
    );
    for id in selected {
        let exp = reg.iter().find(|e| e.id == id).unwrap_or_else(|| {
            eprintln!("unknown experiment '{id}' (try 'list')");
            std::process::exit(2);
        });
        eprintln!(
            "== {}: {} (seed {}, {}) ==",
            exp.id,
            exp.title,
            cfg.seed,
            if cfg.quick { "quick" } else { "full" }
        );
        let t0 = std::time::Instant::now();
        // One probe session per experiment: counters in the timings table
        // are per-experiment totals (across all its worker threads). exp17
        // measures enabled-vs-disabled itself; exp20 and exp21 own their
        // sessions (exp21 reads the serve latency histograms back), so all
        // three need the probe idle.
        let session = if matches!(exp.id, "exp17" | "exp20" | "exp21") {
            None
        } else {
            ssp_probe::Session::begin()
        };
        let tables = (exp.run)(&cfg);
        let trace = session.map(|s| s.end());
        let wall = t0.elapsed().as_secs_f64();
        for (k, table) in tables.iter().enumerate() {
            println!("{}", table.to_markdown());
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}_{k}.csv", exp.id);
                let mut f = std::fs::File::create(&path).expect("create csv file");
                f.write_all(table.to_csv().as_bytes()).expect("write csv");
                eprintln!("wrote {path}");
            }
        }
        if let Some(trace) = &trace {
            timings.push(vec![
                Cell::Text(exp.id.to_string()),
                Cell::Num(wall, 3),
                Cell::Int(trace.counter("wap.flow_calls") as i64),
                Cell::Int(trace.counter("bal.rounds") as i64),
                Cell::Int(trace.counter("bal.flow_calls") as i64),
                Cell::Int(trace.counter("local_search.evaluations") as i64),
                Cell::Int(trace.counter("validate.calls") as i64),
            ]);
        }
        eprintln!("== {} done in {wall:.1}s ==\n", exp.id);
    }
    if !timings.rows.is_empty() {
        println!("{}", timings.to_markdown());
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/timings.csv");
            let mut f = std::fs::File::create(&path).expect("create csv file");
            f.write_all(timings.to_csv().as_bytes()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

fn usage_and_exit(code: i32) -> ! {
    eprintln!(
        "usage: ssp-exper <list | all | expN...> [--quick] [--seed N] [--csv DIR]\n\
         Regenerates the tables/figures of EXPERIMENTS.md."
    );
    std::process::exit(code);
}
