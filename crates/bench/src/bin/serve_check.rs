//! Serving-side perf ratchet: gate `BENCH_serve.json` (written by
//! `scripts/fleet_smoke.sh`) against the checked-in `serve-baseline.json`.
//!
//! `cargo run --release -p cascn-bench --bin serve_check -- \
//!     [--check] [--bench PATH] [--baseline PATH]`
//!
//! The serving analogue of `record --check`: hard machine-independent
//! gates on correctness-adjacent counters (zero non-503 client errors
//! across the failover window, a warm-started replica actually serving
//! warm hits, the streaming and next-user paths exercised at all), and
//! generous ratio bands on the wall-clock latencies (router p50/p99 and
//! the `/predict_next` percentiles) so only order-of-magnitude
//! regressions trip CI rather than scheduler noise. Without `--check` it
//! just prints the extracted numbers, which is handy when re-baselining.

use std::process::exit;

use cascn_bench::ratchet::{args, check_against, flag_value, json_number, outside_band};

/// The `{ … }` object following `"name":`, brace-balanced so nested
/// objects inside the section stay inside the returned slice.
fn section<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

struct Bench {
    router_p50_us: f64,
    router_p99_us: f64,
    non_503_errors: f64,
    warm_hit_rate: f64,
    observe_ok: f64,
    streamed_events: f64,
    next_ok: f64,
    next_p50_us: f64,
    next_p99_us: f64,
}

fn parse_bench(text: &str) -> Result<Bench, String> {
    let sect = |name: &str| {
        section(text, name).ok_or_else(|| format!("bench file has no \"{name}\" section"))
    };
    let num = |slice: &str, key: &str, ctx: &str| {
        json_number(slice, key).ok_or_else(|| format!("bench {ctx} section is missing \"{key}\""))
    };
    let router = sect("router")?;
    let failover = sect("failover_window")?;
    let warm = sect("warm_start")?;
    let observe = sect("observe")?;
    let next = sect("predict_next")?;
    Ok(Bench {
        router_p50_us: num(router, "p50_us", "router")?,
        router_p99_us: num(router, "p99_us", "router")?,
        non_503_errors: num(failover, "non_503_errors", "failover_window")?,
        warm_hit_rate: num(warm, "warm_hit_rate", "warm_start")?,
        observe_ok: num(observe, "ok", "observe")?,
        streamed_events: num(observe, "streamed_events_total", "observe")?,
        next_ok: num(next, "ok", "predict_next")?,
        next_p50_us: num(next, "p50_us", "predict_next")?,
        next_p99_us: num(next, "p99_us", "predict_next")?,
    })
}

fn check(b: &Bench, baseline: &str) -> Result<(), String> {
    let num = |key: &str| {
        json_number(baseline, key).ok_or_else(|| format!("baseline is missing \"{key}\""))
    };
    let band = num("timing_band")?;
    let mut failures = Vec::new();

    // Hard gates: machine-independent contract counters.
    if b.non_503_errors > num("max_non_503_errors")? {
        failures.push(format!(
            "failover_window.non_503_errors {} > allowed {} (clients saw hard errors during failover)",
            b.non_503_errors,
            num("max_non_503_errors")?
        ));
    }
    if b.warm_hit_rate < num("min_warm_hit_rate")? {
        failures.push(format!(
            "warm_hit_rate {:.4} < required {:.4} (restarted replica is not serving from its snapshot)",
            b.warm_hit_rate,
            num("min_warm_hit_rate")?
        ));
    }
    if b.observe_ok < num("min_observe_ok")? || b.streamed_events < 1.0 {
        failures.push(format!(
            "observe path underexercised (ok {}, streamed_events_total {})",
            b.observe_ok, b.streamed_events
        ));
    }
    if b.next_ok < num("min_predict_next_ok")? {
        failures.push(format!(
            "predict_next.ok {} < required {} (next-user serving path underexercised)",
            b.next_ok,
            num("min_predict_next_ok")?
        ));
    }

    // Banded gates: wall-clock within a generous ratio band of the
    // recorded baseline — catches order-of-magnitude regressions only.
    let router = section(baseline, "router").ok_or("baseline has no \"router\" section")?;
    let next = section(baseline, "predict_next")
        .ok_or("baseline has no \"predict_next\" section")?;
    let banded = [
        ("router.p50_us", b.router_p50_us, json_number(router, "p50_us")),
        ("router.p99_us", b.router_p99_us, json_number(router, "p99_us")),
        ("predict_next.p50_us", b.next_p50_us, json_number(next, "p50_us")),
        ("predict_next.p99_us", b.next_p99_us, json_number(next, "p99_us")),
    ];
    for (key, measured, expect) in banded {
        let Some(expect) = expect else {
            failures.push(format!("baseline is missing \"{key}\""));
            continue;
        };
        failures.extend(outside_band(key, measured, expect, band));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args = args(&["--check", "--bench", "--baseline"]);
    let do_check = args.iter().any(|a| a == "--check");
    let bench_path = flag_value(&args, "--bench", "BENCH_serve.json");
    let baseline_path = flag_value(&args, "--baseline", "serve-baseline.json");

    let text = match std::fs::read_to_string(&bench_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve_check: cannot read {bench_path}: {e}");
            exit(1);
        }
    };
    let bench = match parse_bench(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve_check: {bench_path}: {e}");
            exit(1);
        }
    };
    println!(
        "serve_check: router p50 {:.0}us p99 {:.0}us, warm_hit_rate {:.4}, \
         observe ok {:.0} ({:.0} events), predict_next ok {:.0} p50 {:.0}us p99 {:.0}us",
        bench.router_p50_us,
        bench.router_p99_us,
        bench.warm_hit_rate,
        bench.observe_ok,
        bench.streamed_events,
        bench.next_ok,
        bench.next_p50_us,
        bench.next_p99_us
    );

    if do_check {
        check_against("serve_check", &baseline_path, |baseline| check(&bench, baseline));
    }
}
