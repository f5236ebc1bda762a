//! The steadiness command: run one workload several times, one process
//! per run, and print each metric's median, quartiles and range. The
//! bounds in BENCHMARK.json are set from its output.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Json};
use crate::ops::Workload;
use crate::report::{median, quartiles};

pub fn run(
    w: Workload,
    runs: u64,
    seconds: u64,
    trace: bool,
    seed: u64,
    same_seed: bool,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut failed_shares = Vec::new();
    for i in 0..runs {
        let run_seed = if same_seed { seed } else { seed + i };
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &run_seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot start a run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = json::parse(last).map_err(|e| {
            format!(
                "run {i} (seed {run_seed}) printed no result ({e}); exit {:?}",
                out.status
            )
        })?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "run {i} (seed {run_seed}) was not correct:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let count = |k: &str| result.get(k).and_then(Json::num).unwrap_or(0.0);
        failed_shares.push(format!("{}/{}", count("failed"), count("attempted")));
        let metrics = result
            .get("metrics")
            .and_then(Json::obj)
            .ok_or("result without metrics")?;
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
            let v = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            values
                .entry(name.clone())
                .or_insert((unit, Vec::new()))
                .1
                .push(v);
        }
        eprintln!("run {} of {runs} (seed {run_seed}) done", i + 1);
    }
    println!(
        "{} × {runs} runs of {seconds} s, trace {}, seeds {}",
        w.name,
        trace as u8,
        if same_seed {
            format!("{seed} (all)")
        } else {
            format!("{seed}..{}", seed + runs - 1)
        }
    );
    println!("failed/attempted per run: {}", failed_shares.join(" "));
    println!(
        "{:<40} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (name, (unit, v)) in &values {
        let med = median(v);
        let (q1, q3) = quartiles(v);
        let (min, max) = v
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        // A count that differs between runs of one seed is not a
        // deterministic counter; with distinct seeds it is seed-dependent.
        let flag = if unit == "count" && min != max {
            "  NOT REPEATED"
        } else {
            ""
        };
        println!(
            "{name:<40} {unit:>8} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.1}%{flag}",
            spread * 100.0
        );
    }
    Ok(())
}
