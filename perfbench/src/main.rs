//! End-to-end benchmark of the AIM-II engine served over TCP.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs 5] [--seconds 10] [--trace 0] [--seed 1] [--same-seed]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` makes the separate traced run that prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

use std::collections::BTreeMap;
use std::process::ExitCode;

use aim2_perfbench::{db, ops, run, steady};

/// `--key value` pairs and bare `--flag`s.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn number(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<u64>,
) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} takes a whole number, not {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (steady, rest) = match args.first().map(String::as_str) {
        Some("steady") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let result = flags(rest).and_then(|f| {
        let name = f.get("workload").ok_or("--workload is required")?;
        let w = ops::workload(name).ok_or_else(|| {
            let names: Vec<&str> = ops::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", names.join(", "))
        })?;
        if steady {
            return steady::run(
                w,
                number(&f, "runs", Some(5))?,
                number(&f, "seconds", Some(10))?,
                number(&f, "trace", Some(0))? == 1,
                number(&f, "seed", Some(1))?,
                f.contains_key("same-seed"),
            );
        }
        let (seed, seconds) = (number(&f, "seed", None)?, number(&f, "seconds", None)?);
        match db::pin_to_one_cpu() {
            Ok(cpu) => eprintln!("info: every thread pinned to CPU {cpu}"),
            Err(e) => eprintln!("info: not pinned to one CPU ({e}); latencies will spread more"),
        }
        let report = match number(&f, "trace", Some(0))? {
            0 => run::end_to_end(w, seed, seconds),
            1 => run::layers(w, seed, seconds),
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        }
        .map_err(|e| e.to_string())?;
        report.print();
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
