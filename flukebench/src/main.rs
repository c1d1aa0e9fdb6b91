//! flukebench: the repository's benchmark.
//!
//! ```text
//! flukebench --workload <flukeperf|memtest|server> [--seed N] [--seconds S]
//!            [--trace 0|1] [--smoke]
//! ```
//!
//! Runs passes of one workload in this thread for `--seconds` seconds
//! (at least a few passes), checks every pass's outputs, and prints a
//! report followed by one JSON line: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! README.md for every metric and workload.

mod heap;
mod metrics;
mod pass;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fluke_arch::cost::cycles_to_us;

use heap::Counting;
use metrics::{per_layer, E2E};
use pass::{cpu_probe, run_pass, setup_only, Check, Pass};
use trace::Recorder;
use workload::{Size, Workload};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Fewest passes per mode, however long they take.
const MIN_PASSES: usize = 3;
/// Most passes per mode, however short they are.
const MAX_PASSES: usize = 200;
/// Most traced passes in a traced run (flukeperf records ~30,000 slice
/// spans per pass).
const MAX_TRACED: usize = 4;
/// Set-up samples behind the `setup_s` median, at least (passes plus
/// stand-alone set-ups).
const SETUP_SAMPLES: usize = 51;
/// Stand-alone set-ups after each untraced pass.
const SETUP_PER_PASS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut size) = (0, 10, false, Size::Paper);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => size = Size::Smoke,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flukebench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (w, size, seed) = (args.workload, args.size, args.seed);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut rec = Recorder::new();
    let mut cpu_ns = None;
    let mut setups: Vec<u64> = Vec::new();
    let mut peak_rss_kb = None;
    if args.trace {
        cpu_ns = Some(cpu_probe(3));
    }
    while untraced.len() < MAX_PASSES && (untraced.len() < MIN_PASSES || started.elapsed() < budget)
    {
        untraced.push(run_pass(w, size, seed, None));
        // Peak memory of a process that has run the workload once.
        peak_rss_kb.get_or_insert_with(peak_rss);
        if !args.trace {
            // Spread the extra set-up samples over the run.
            for _ in 0..SETUP_PER_PASS {
                setups.push(setup_only(w, size, seed));
            }
        } else if traced.len() < MAX_TRACED {
            // Alternate untraced and traced passes so drift hits both
            // alike, keeping the spans of at most MAX_TRACED passes.
            rec.pass = traced.len() as u32;
            traced.push(run_pass(w, size, seed, Some(&mut rec)));
        }
    }

    // Determinism: every pass's simulated results (and, where the kernel
    // was snapshotted, its state digest) equal the first pass's of its
    // mode; traced passes (kprof armed) equal the untraced ones.
    let mut checks: Vec<Check> = Vec::new();
    for p in untraced.iter().chain(&traced) {
        checks.extend(p.checks.iter().cloned());
    }
    for passes in [&untraced, &traced] {
        if let Some(first) = passes.first() {
            for p in &passes[1..] {
                checks.push(Check::eq(
                    "pass_deterministic",
                    (p.sim.fingerprint(), p.ckpt.as_ref().map(|c| c.digest)),
                    (
                        first.sim.fingerprint(),
                        first.ckpt.as_ref().map(|c| c.digest),
                    ),
                ));
            }
        }
    }
    for p in &traced {
        checks.push(Check::eq(
            "traced_sim_identical",
            p.sim.fingerprint(),
            untraced[0].sim.fingerprint(),
        ));
    }
    if let Some(Err(e)) = &cpu_ns {
        checks.push(Check {
            name: "cpu_probe",
            ok: false,
            detail: e.clone(),
        });
    }
    let failed = checks.iter().filter(|c| !c.ok).count();

    setups.extend(untraced.iter().map(|p| p.setup_ns));
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only(w, size, seed));
    }

    let e2e = end_to_end(
        w,
        &untraced,
        setups,
        peak_rss_kb.unwrap_or(f64::NAN),
        failed as f64 / checks.len() as f64,
    );
    println!(
        "# flukebench workload={} seed={seed} trace={} size={:?} passes: {} untraced, {} traced, {:.1} s",
        w.name(),
        u8::from(args.trace),
        size,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "# end to end (untraced passes; host_s the median pass, checkpoint_s the fastest, setup_s the median set-up)"
    );
    for m in E2E {
        match e2e.get(m.name) {
            Some(v) => println!("#   {:<18} {:>16} {:<13} {:<9}", m.name, v, m.unit, m.clock),
            None => println!(
                "#   {:<18} {:>16} {:<13} {:<9} (applies to {})",
                m.name,
                "n/a",
                m.unit,
                m.clock,
                m.applies.join(", ")
            ),
        }
    }
    let ms: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.1}", p.run_ns as f64 / 1e6))
        .collect();
    println!("# untraced pass run times (ms): {}", ms.join(" "));
    print_accuracy(w, seed, &untraced[0]);
    println!("# checks: {} attempted, {failed} failed", checks.len());
    for c in checks.iter().filter(|c| !c.ok) {
        println!("#   FAILED {}: {}", c.name, c.detail);
    }

    let mut metrics = BTreeMap::new();
    if args.trace {
        let layer = per_layer_values(&untraced, &traced, &rec, cpu_ns.and_then(Result::ok));
        println!("# per layer (traced passes; kprof armed)");
        for m in per_layer() {
            let v = layer[m.name];
            println!(
                "#   {:<36} {:>16} {:<14} {:<6} [{}] moves {} on {}; flat on {}",
                m.name, v, m.unit, m.better, m.layer, m.moves, m.on, m.flat
            );
            metrics.insert(m.name, (v, m.unit));
        }
        print_self_times(&rec);
        print_phases(&rec);
        write_spans(w, seed, &rec);
    } else {
        for m in E2E.iter().filter(|m| m.gated) {
            metrics.insert(m.name, (e2e[m.name], m.unit));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.len(),
        body.join(", ")
    );
}

/// A JSON number (non-finite values cannot be written as JSON numbers).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn min_by(passes: &[Pass], f: impl Fn(&Pass) -> Option<u64>) -> Option<u64> {
    passes.iter().filter_map(f).min()
}

fn median(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
    }
}

/// The end-to-end metrics of `w` that apply to it.
fn end_to_end(
    w: Workload,
    passes: &[Pass],
    setups: Vec<u64>,
    peak_rss_kb: f64,
    error_rate: f64,
) -> BTreeMap<&'static str, f64> {
    let sim = &passes[0].sim;
    let mut m = BTreeMap::new();
    m.insert(
        "host_s",
        median(passes.iter().map(|p| p.run_ns).collect()) / 1e9,
    );
    m.insert("setup_s", median(setups) / 1e9);
    if let Some(ns) = min_by(passes, |p| p.ckpt.as_ref().map(|c| c.ns())) {
        m.insert("checkpoint_s", ns as f64 / 1e9);
    }
    m.insert("peak_rss_mb", peak_rss_kb / 1024.0);
    m.insert("sim_ms", cycles_to_us(sim.elapsed) / 1000.0);
    m.insert(
        "sim_kmem_peak_kb",
        sim.stat("kernel.mem.kmem_peak_bytes") as f64 / 1024.0,
    );
    if let Some(p) = sim.probe {
        m.insert("preempt_p50_us", cycles_to_us(p.p50));
        m.insert("preempt_p99_us", cycles_to_us(p.p99));
        m.insert("preempt_max_us", cycles_to_us(p.max));
    }
    if let Some(r) = sim.rpc {
        m.insert("rpc_p50_us", cycles_to_us(r.p50));
        m.insert("rpc_p99_us", cycles_to_us(r.p99));
    }
    m.insert("error_rate", error_rate);
    debug_assert!(E2E
        .iter()
        .all(|e| m.contains_key(e.name) == e.applies.contains(&w.name())));
    m
}

/// Peak resident set of this process in KB (`getrusage`'s `ru_maxrss`,
/// which Linux reports in KB).
fn peak_rss() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// the first of which is `ru_maxrss`.
    #[repr(C)]
    struct Rusage {
        _times: [i64; 4],
        maxrss: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `Rusage` has the C layout of `struct rusage` on 64-bit Linux,
    // and `u` is a live, writable value for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64
    } else {
        f64::NAN
    }
}

/// Simulated results beside the paper's (EXPERIMENTS.md) and the
/// repository's committed cross-checks.
fn print_accuracy(w: Workload, seed: u64, p: &Pass) {
    let err = |got: f64, want: f64| format!("{:+.2}%", 100.0 * (got - want) / want);
    let sim = &p.sim;
    match w {
        Workload::Flukeperf => {
            let pr = sim.probe.expect("flukeperf probe");
            let max = cycles_to_us(pr.max);
            println!(
                "# accuracy: preempt_max_us {max} vs paper 1200 (Table 6, Process PP): {}",
                err(max, 1200.0)
            );
            println!(
                "# cross-check: probe runs {} misses {} (EXPERIMENTS.md: 1201 us, 7973 runs, 34 misses)",
                pr.runs, pr.misses
            );
        }
        Workload::Memtest => {
            let ms = cycles_to_us(sim.elapsed) / 1000.0;
            println!(
                "# accuracy: sim_ms {ms} vs paper 2884 (Table 5, memtest 1.00 = 2884 ms): {}",
                err(ms, 2884.0)
            );
            println!(
                "# cross-check: hard faults {}",
                sim.stat("kernel.fault.hard")
            );
        }
        Workload::Server => {
            let r = sim.rpc.expect("server rpc latency");
            println!("# accuracy: unvalidated (the paper has no server workload)");
            println!(
                "# cross-check: {} simulated cycles, rpc p99 {} cycles{}",
                sim.elapsed,
                r.p99,
                if seed == 0 {
                    " (BENCH_server.json, 10240 conns: 11952471 cycles, p99 4351)"
                } else {
                    " (seed != 0: seed-derived key table, no committed reference)"
                }
            );
        }
    }
}

/// Per-layer metrics from the traced passes (host timings from the
/// fastest), the probes, and the recorder. Host cost per unit of a
/// layer's work divides the fastest untraced pass, free of tracing cost.
fn per_layer_values(
    untraced: &[Pass],
    traced: &[Pass],
    rec: &Recorder,
    cpu_ns: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let best = traced
        .iter()
        .min_by_key(|p| p.run_ns)
        .expect("a traced pass");
    let sim = &traced[0].sim;
    let stat = |n: &str| sim.stat(n) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ms = |ns: u64| ns as f64 / 1e6;
    let run_ns = min_by(untraced, |p| Some(p.run_ns)).unwrap_or(0) as f64;
    let syscalls = stat("kernel.syscall.count");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert(
        "setup.kernel_new_ms",
        ms(min_by(traced, |p| Some(p.kernel_new_ns)).unwrap_or(0)),
    );
    m.insert(
        "setup.build_ms",
        ms(min_by(traced, |p| Some(p.setup_ns)).unwrap_or(0)),
    );
    m.insert("setup.heap_allocs", best.setup_heap.allocs as f64);
    m.insert("cpu.ns_per_instr", cpu_ns.unwrap_or(0.0));
    let mem = |f: fn(&pass::MemProbe) -> f64| {
        traced
            .iter()
            .filter_map(|p| p.mem.as_ref().map(f))
            .fold(f64::NAN, f64::min)
    };
    m.insert("mem.read_u8_ns", mem(|p| p.read_u8_ns));
    m.insert("mem.read_ns_per_kb", mem(|p| p.read_ns_per_kb));
    let (hits, misses) = (stat("kernel.tlb.hits"), stat("kernel.tlb.misses"));
    m.insert("tlb.hit_ratio", per(hits, hits + misses));
    m.insert("syscall.host_ns", per(run_ns, syscalls));
    m.insert(
        "ipc.host_ns_per_msg",
        per(run_ns, stat("kernel.ipc.messages")),
    );
    m.insert(
        "sched.host_ns_per_ctx_switch",
        per(run_ns, stat("kernel.sched.ctx_switches")),
    );
    m.insert(
        "sched.steal_ratio",
        per(
            stat("kernel.sched.percpu.steals"),
            stat("kernel.sched.percpu.steal_attempts"),
        ),
    );
    m.insert("run.calls", best.run_calls as f64);
    for l in per_layer() {
        if let Some(phase) = l.name.strip_prefix("kprof.") {
            m.insert(l.name, sim.kprof.get(phase).copied().unwrap_or(0) as f64);
        }
    }
    let ck = traced.iter().filter_map(|p| p.ckpt.as_ref());
    let fastest = |f: fn(&pass::Ckpt) -> u64| ck.clone().map(f).min().unwrap_or(0);
    let kb = traced[0]
        .ckpt
        .as_ref()
        .map_or(0.0, |c| c.bytes as f64 / 1024.0);
    m.insert(
        "snap.bytes",
        traced[0].ckpt.as_ref().map_or(0, |c| c.bytes) as f64,
    );
    m.insert("snap.encode_ms", ms(fastest(|c| c.encode_ns)));
    m.insert("snap.restore_ms", ms(fastest(|c| c.restore_ns)));
    m.insert("snap.digest_ms", ms(fastest(|c| c.digest_ns)));
    m.insert(
        "snap.encode_ns_per_kb",
        per(fastest(|c| c.encode_ns) as f64, kb),
    );
    m.insert(
        "snap.restore_ns_per_kb",
        per(fastest(|c| c.restore_ns) as f64, kb),
    );
    m.insert(
        "snap.heap_allocs",
        traced[0].ckpt.as_ref().map_or(0, |c| c.heap.allocs) as f64,
    );
    m.insert(
        "heap.allocs_per_syscall",
        per(best.run_heap.allocs as f64, syscalls),
    );
    m.insert(
        "heap.bytes_per_syscall",
        per(best.run_heap.bytes as f64, syscalls),
    );
    m.insert("trace.spans", rec.spans.len() as f64);
    m.insert("trace.overhead_ratio", per(best.run_ns as f64, run_ns));

    // Everything else is a kstat counter of the finished kernel.
    for l in per_layer() {
        m.entry(l.name).or_insert_with(|| stat(l.name));
    }
    m
}

/// Host time per span name: total and self (minus child spans).
fn print_self_times(rec: &Recorder) {
    println!("# span self time (all traced passes)");
    println!(
        "#   {:<18} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in rec.self_times() {
        println!(
            "#   {name:<18} {n:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Host time of the first traced pass's `Kernel::run` slices, grouped by
/// the entrypoint each slice dispatched most: flukeperf's phases run one
/// after another, so this splits its host time by phase.
fn print_phases(rec: &Recorder) {
    let mut by: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in rec.spans.iter().filter(|s| s.pass == 0) {
        if let Some(d) = &s.delta {
            let e = by.entry(d.top_sys.unwrap_or("(no syscalls)")).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += d.syscalls;
            e.3 += d.ipc_bytes;
        }
    }
    println!("# run slices by dominant entrypoint (traced pass 0)");
    println!(
        "#   {:<40} {:>7} {:>10} {:>10} {:>12} {:>14}",
        "entrypoint", "slices", "host_ms", "syscalls", "ns/syscall", "ipc_bytes"
    );
    for (name, (n, ns, sc, bytes)) in by {
        let per = if sc > 0 { ns as f64 / sc as f64 } else { 0.0 };
        println!(
            "#   {name:<40} {n:>7} {:>10.2} {sc:>10} {per:>12.1} {bytes:>14}",
            ns as f64 / 1e6
        );
    }
}

/// Write the spans to `out/spans-<workload>-<seed>.tsv` in the package.
fn write_spans(w: Workload, seed: u64, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name()));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            rec.write(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match res {
        Ok(()) => println!("# spans: {} written to {}", rec.spans.len(), path.display()),
        Err(e) => println!("# spans: not written ({e})"),
    }
}
