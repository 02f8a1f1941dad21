//! `perf_gate` — compare a freshly measured benchmark JSON against the
//! checked-in baseline and fail CI on regressions.
//!
//! Two input shapes are understood:
//!
//! * `BENCH_train.json` style: an object of `"<bench id>": {"ns_per_iter":
//!   N, ...}` rows. Every id present in both files is compared on
//!   `ns_per_iter` (lower is better).
//! * `BENCH_serve.json` style: `--metric NAME` selects which numeric
//!   fields to compare (lower is better), e.g. `--metric
//!   latency_p50_ms`. Both the legacy flat report and the sweep format
//!   (an object of `"r<replicas>c<connections>"` rows) are accepted;
//!   sweep files compare each metric per shared row.
//!
//! A metric that got more than `--threshold` percent slower (default 25)
//! is a regression. Microbench timings on a loaded 1-core CI container
//! are too noisy for a hard gate, so when `available_parallelism() == 1`
//! regressions only produce a loud warning; `SPG_PERF_STRICT=1` forces
//! the hard failure anyway, `SPG_PERF_STRICT=0` forces warn-only.
//!
//! ```text
//! perf_gate --baseline BENCH_train.json --new /tmp/BENCH_train.json
//! perf_gate --baseline BENCH_serve.json --new /tmp/BENCH_serve.json \
//!     --metric latency_p50_ms --metric latency_p99_ms
//! ```

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    baseline: PathBuf,
    new: PathBuf,
    metrics: Vec<String>,
    threshold_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut baseline, mut new) = (None, None);
    let mut metrics = Vec::new();
    let mut threshold_pct = 25.0;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("--{flag} needs a value"));
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("baseline")?)),
            "--new" => new = Some(PathBuf::from(value("new")?)),
            "--metric" => metrics.push(value("metric")?),
            "--threshold" => {
                threshold_pct = value("threshold")?
                    .parse()
                    .map_err(|e| format!("invalid --threshold: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: perf_gate --baseline FILE --new FILE \
                            [--metric NAME]... [--threshold PCT]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        new: new.ok_or("--new is required")?,
        metrics,
        threshold_pct,
    })
}

fn load(path: &PathBuf) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(text) => text.parse().ok(),
        _ => None,
    }
}

/// `(name, baseline, new)` rows to compare, lower-is-better.
fn comparisons(
    args: &Args,
    base: &Value,
    fresh: &Value,
) -> Result<Vec<(String, f64, f64)>, String> {
    let mut rows = Vec::new();
    if args.metrics.is_empty() {
        // Bench-row style: every id in both files, on ns_per_iter.
        let Value::Object(base_rows) = base else {
            return Err(format!(
                "{}: expected a JSON object",
                args.baseline.display()
            ));
        };
        for (id, row) in base_rows {
            let Some(b) = row.field("ns_per_iter").ok().and_then(num) else {
                continue;
            };
            match fresh
                .field(id)
                .ok()
                .and_then(|r| r.field("ns_per_iter").ok().and_then(num))
            {
                Some(n) => rows.push((id.clone(), b, n)),
                None => eprintln!("perf_gate: WARNING: `{id}` missing from new results"),
            }
        }
    } else {
        // `--metric` mode. Serve reports come in two shapes: one flat
        // report object, or (since replica sweeps) an object of
        // `"r<replicas>c<connections>"` rows. Row style compares every
        // row shared by both files on each metric; a row missing from
        // the new results warns instead of failing, since a sweep may
        // be trimmed on slow machines.
        let row_style = matches!(base, Value::Object(entries)
            if !entries.is_empty()
                && entries.iter().all(|(_, v)| matches!(v, Value::Object(_))));
        if row_style {
            let Value::Object(base_rows) = base else {
                unreachable!("row_style implies an object")
            };
            for (id, row) in base_rows {
                for name in &args.metrics {
                    let b = row.field(name).ok().and_then(num).ok_or_else(|| {
                        format!(
                            "{}: row `{id}` has no numeric `{name}`",
                            args.baseline.display()
                        )
                    })?;
                    match fresh
                        .field(id)
                        .ok()
                        .and_then(|r| r.field(name).ok().and_then(num))
                    {
                        Some(n) => rows.push((format!("{id}.{name}"), b, n)),
                        None => {
                            eprintln!("perf_gate: WARNING: `{id}.{name}` missing from new results")
                        }
                    }
                }
            }
        } else {
            for name in &args.metrics {
                let b =
                    base.field(name).ok().and_then(num).ok_or_else(|| {
                        format!("{}: no numeric `{name}`", args.baseline.display())
                    })?;
                let n = fresh
                    .field(name)
                    .ok()
                    .and_then(num)
                    .ok_or_else(|| format!("{}: no numeric `{name}`", args.new.display()))?;
                rows.push((name.clone(), b, n));
            }
        }
    }
    if rows.is_empty() {
        return Err("nothing to compare (no shared metrics)".to_string());
    }
    Ok(rows)
}

/// Hard-fail on regressions? `SPG_PERF_STRICT` overrides the single-core
/// heuristic in both directions.
fn strict() -> bool {
    match std::env::var("SPG_PERF_STRICT").as_deref() {
        Ok("1") => true,
        Ok("0") => false,
        _ => std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (base, fresh) = match (load(&args.baseline), load(&args.new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = match comparisons(&args, &base, &fresh) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0;
    for (name, b, n) in &rows {
        let delta_pct = if *b > 0.0 { (n - b) / b * 100.0 } else { 0.0 };
        let verdict = if delta_pct > args.threshold_pct {
            regressions += 1;
            "REGRESSED"
        } else if delta_pct < 0.0 {
            "improved"
        } else {
            "ok"
        };
        // As recorded: serve latencies are fractions of a millisecond.
        println!("perf_gate: {name}: {b} -> {n} ({delta_pct:+.1}%) {verdict}");
    }
    if regressions == 0 {
        println!(
            "perf_gate: {} metric(s) within +{:.0}% of baseline",
            rows.len(),
            args.threshold_pct
        );
        return ExitCode::SUCCESS;
    }
    if strict() {
        eprintln!(
            "perf_gate: FAIL: {regressions} metric(s) regressed more than \
             {:.0}% vs {}",
            args.threshold_pct,
            args.baseline.display()
        );
        ExitCode::FAILURE
    } else {
        eprintln!(
            "perf_gate: WARNING: {regressions} metric(s) regressed more than \
             {:.0}% vs {} — not failing (single-core or SPG_PERF_STRICT=0); \
             set SPG_PERF_STRICT=1 to enforce",
            args.threshold_pct,
            args.baseline.display()
        );
        ExitCode::SUCCESS
    }
}
