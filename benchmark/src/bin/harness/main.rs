//! The timed harness: one run of one workload.
//!
//! ```text
//! harness --workload <small|batch|lock> --seed <n> --seconds <s> --trace <0|1>
//!         [--tankd <path>] [--probe <path>] [--out <dir>] [--inject <defect>]
//! ```
//!
//! A run is three *rounds*. Each round starts a fresh `tankd` (so the
//! three set-up samples are real and a lucky or unlucky process lifetime
//! cannot own the run), drives it closed-loop then open-loop, and builds
//! a fresh simulated cluster for the workload's simulator half. The run
//! ends with the fault drill. Every timed metric is the median over the
//! pooled slices of the three rounds. The last line of standard output
//! is the result object the driver reads; everything above it is for
//! people. README.md in this directory explains every number.

mod load;
mod net;
mod sim;

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tank_benchmark::gen::{derive, schedule, Workload};
use tank_benchmark::metrics::{result_line, MetricDef, Values, END_TO_END, PER_LAYER};
use tank_benchmark::procstat;
use tank_benchmark::spans::Recorder;
use tank_benchmark::stats::{best_quarter_mean, median, percentile_sorted, quartiles, Better};

use load::{ClosedSlice, Engine, Inject, Load, LockLoad, MetaLoad, OpenSlice, PhaseTotals};
use net::{Fleet, Tankd};
use sim::SimRound;

/// Fresh-process rounds per run, and slices of each kind per round. On
/// the shared 2-vCPU reference box `tankd` lifetimes differ by ±15 %
/// (where the scheduler happens to put four busy threads on two CPUs)
/// and the whole box slows by 40 % for a few seconds at a time, so a run
/// buys steadiness with many lifetimes and many short slices, not with
/// long ones, and reports the best quarter of them (README, "Method").
const ROUNDS: usize = 10;
const SLICES: usize = 2;
/// Closed-loop slices take 40 % of `--seconds`, after a warm-up.
const CLOSED_SHARE: f64 = 0.40;
const WARMUP: Duration = Duration::from_millis(100);
/// Open-loop slices take 25 % of `--seconds`.
const OPEN_SHARE: f64 = 0.25;
/// Fault drills per run; `unavail_ms` and `failover_ms` are their medians.
const DRILLS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tankd: PathBuf,
    probe: PathBuf,
    out: PathBuf,
    inject: Option<Inject>,
}

fn usage() -> ! {
    eprintln!(
        "usage: harness --workload <small|batch|lock> --seed <n> --seconds <s> --trace <0|1> \
         [--tankd <path>] [--probe <path>] [--out <dir>] \
         [--inject <corrupt-reply|ignore-demand|no-phase3-gate>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut inject = None;
    // Beside this executable is where `run.sh` builds everything.
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let mut tankd = bin_dir.join("tankd");
    let mut probe = bin_dir.join("probe");
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--tankd" => tankd = value().into(),
            "--probe" => probe = value().into(),
            "--out" => out = value().into(),
            "--inject" => inject = Some(Inject::parse(&value()).unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        tankd,
        probe,
        out,
        inject,
    }
}

/// Everything one `tankd` lifetime measured.
struct NetRound {
    setup: Duration,
    closed: Vec<ClosedSlice>,
    closed_totals: PhaseTotals,
    open: Vec<OpenSlice>,
    open_totals: PhaseTotals,
    failed_units: u64,
    demands: u64,
    switches: u64,
    peak_rss_kib: u64,
    violations: Vec<String>,
}

fn net_round(args: &Args, seed: u64) -> io::Result<NetRound> {
    let w = args.workload;
    let t = Instant::now();
    let tankd = Tankd::spawn(&args.tankd)?;
    let mut fleet = Fleet::connect(tankd.addr)?;
    let mut lock_load = None;
    let mut meta_load = None;
    let load: &mut dyn Load = match w {
        Workload::Lock => lock_load.insert(LockLoad::set_up(seed, &mut fleet, args.inject)?),
        _ => meta_load.insert(MetaLoad::set_up(w, seed, &mut fleet, args.inject)?),
    };
    let setup = t.elapsed();

    let slots = load.slots();
    let mut engine = Engine {
        fleet: &mut fleet,
        load,
        pid: tankd.pid(),
        busy: vec![false; slots],
    };
    let switches0 = procstat::status(tankd.pid())?;
    let per_run = (ROUNDS * SLICES) as f64;
    let closed_slice = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / per_run);
    let (closed, closed_totals) = engine.closed(WARMUP, SLICES, closed_slice)?;
    let status = procstat::status(tankd.pid())?;
    let open_slice = Duration::from_secs_f64(args.seconds * OPEN_SHARE / per_run);
    let open_ns = open_slice.as_nanos() as u64 * SLICES as u64;
    let arrivals = schedule(seed, w.open_rate(), open_ns, slots);
    let (open, open_totals) = engine.open(&arrivals, SLICES, open_slice)?;

    let demands = lock_load.as_ref().map_or(0, LockLoad::demands);
    let (failed_units, violations) = match (lock_load, meta_load) {
        (Some(l), _) => l.finish(),
        (_, Some(m)) => m.finish(),
        _ => unreachable!("one load was set up"),
    };
    Ok(NetRound {
        setup,
        closed,
        closed_totals,
        open,
        open_totals,
        failed_units,
        demands,
        switches: (status.voluntary_switches + status.involuntary_switches)
            - (switches0.voluntary_switches + switches0.involuntary_switches),
        peak_rss_kib: status.peak_rss_kib,
        violations,
    })
}

/// Values the probe prints beside its per-layer metrics: how many spans
/// it wrote, and the leaf layers' busy time per op.
const PROBE_HELPERS: [&str; 2] = ["probe.spans", "probe.leaf_busy_us_per_op"];

/// Run the probe bin and read back its `name value` lines.
fn run_probe(args: &Args, trace_file: &Path) -> io::Result<Values> {
    let out = Command::new(&args.probe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(trace_file)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot run {}: {e}", args.probe.display()),
            )
        })?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "probe exited with {}",
            out.status
        )));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = Values::new();
    for line in text.lines() {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        let Ok(value) = value.trim().parse::<f64>() else {
            continue;
        };
        // Keep the key as one of the catalogue's static names (or the
        // probe's two helper values).
        let known = PER_LAYER.iter().map(|d| d.name).chain(PROBE_HELPERS);
        if let Some(key) = known.into_iter().find(|k| *k == name) {
            values.insert(key, value);
        }
    }
    Ok(values)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The open loop's diagnostics over a run's rounds.
struct Tails {
    /// p99 latency of each open-loop slice, µs.
    p99_us: Vec<f64>,
    /// p99 of how late the generator started that slice's ops, µs.
    late_p99_us: Vec<f64>,
    /// Ops due, and ops that never completed.
    due: u64,
    lost: u64,
}

impl Tails {
    fn of(nets: &[NetRound]) -> Tails {
        let p99 = |ns: &[u64]| percentile_sorted(ns, 99.0) as f64 / 1e3;
        let slices = || nets.iter().flat_map(|n| &n.open);
        Tails {
            p99_us: slices().map(|s| p99(&s.latency_ns)).collect(),
            late_p99_us: slices().map(|s| p99(&s.late_ns)).collect(),
            due: nets.iter().map(|n| n.open_totals.started).sum(),
            lost: nets.iter().map(|n| n.open_totals.unfinished).sum(),
        }
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

/// One line per metric: the reported value, then the slices' quartiles.
fn print_quartiles(name: &str, unit: &str, value: f64, samples: &[f64]) {
    let q = quartiles(samples);
    println!(
        "{name:<22} {value:>14.4} {unit:<5} slices: q1 {:>13.4} median {:>13.4} q3 {:>13.4} n {:>2}",
        q.q1, q.median, q.q3, q.n,
    );
}

fn run(args: &Args) -> io::Result<Outcome> {
    let w = args.workload;
    let per_unit = w.ops_per_unit() as f64;
    let mut values = Values::new();
    let mut violations: Vec<String> = Vec::new();

    // Traced runs start with the probe (the request path replayed through
    // the leaf layers, with spans); the simulator's spans are appended to
    // the same file afterwards, numbered after the probe's.
    let trace_file = args.out.join(format!("trace-{}.jsonl", w.name()));
    let mut rec = Recorder::off();
    if args.trace {
        std::fs::create_dir_all(&args.out)?;
        values = run_probe(args, &trace_file)?;
        let first_id = values.get("probe.spans").copied().unwrap_or(0.0) as u32 + 1;
        rec = Recorder::starting_at(first_id);
    }

    let mut nets = Vec::with_capacity(ROUNDS);
    let mut sims: Vec<SimRound> = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let seed = derive(args.seed, r as u64);
        nets.push(net_round(args, seed)?);
        sims.push(sim::round(
            w,
            seed,
            args.seconds,
            SLICES,
            args.trace,
            &mut rec,
        ));
    }
    let gate = args.inject != Some(Inject::NoPhase3Gate);
    let drills: Vec<sim::DrillRun> = sim::drill_seeds(args.seed, w, DRILLS)
        .into_iter()
        .map(|s| sim::drill(s, gate, args.trace))
        .collect();
    if args.trace {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&trace_file)?;
        let mut file = io::BufWriter::new(file);
        rec.write_jsonl(&mut file)?;
        // One line per simulated round: its obs registry's counters.
        for (round, sim) in sims.iter().enumerate() {
            let Some(snap) = &sim.registry else { continue };
            let counters: Vec<String> = snap
                .names()
                .iter()
                .filter_map(|n| Some(format!("\"{n}\":{}", snap.counter(n)?)))
                .collect();
            writeln!(
                file,
                "{{\"trace_id\":{round},\"name\":\"obs.registry\",\"counters\":{{{}}}}}",
                counters.join(",")
            )?;
        }
        file.flush()?;
    }

    // ---- end-to-end samples -------------------------------------------
    let setups: Vec<f64> = nets
        .iter()
        .zip(&sims)
        .map(|(n, s)| (n.setup + s.setup).as_secs_f64())
        .collect();
    let closed: Vec<&ClosedSlice> = nets.iter().flat_map(|n| &n.closed).collect();
    let ops_per_s: Vec<f64> = closed
        .iter()
        .map(|s| s.units as f64 * per_unit / s.wall.as_secs_f64())
        .collect();
    let cpu_per_op: Vec<f64> = closed
        .iter()
        .map(|s| ratio(s.cpu_ns as f64 / 1e3, s.units as f64 * per_unit))
        .collect();
    let open: Vec<&OpenSlice> = nets.iter().flat_map(|n| &n.open).collect();
    let p50_us: Vec<f64> = open
        .iter()
        .map(|s| percentile_sorted(&s.latency_ns, 50.0) as f64 / 1e3)
        .collect();
    let sim_slices: Vec<&sim::SimSlice> = sims.iter().flat_map(|s| &s.slices).collect();
    let sim_ops_per_s: Vec<f64> = sim_slices
        .iter()
        .map(|s| s.ops as f64 / (s.sim_ns as f64 / 1e9))
        .collect();
    let wall_us_per_op: Vec<f64> = sim_slices
        .iter()
        .map(|s| ratio(s.wall.as_secs_f64() * 1e6, s.ops as f64))
        .collect();
    let unavail: Vec<f64> = drills.iter().filter_map(|d| d.unavail_ms).collect();
    let failover: Vec<f64> = drills.iter().filter_map(|d| d.failover_ms).collect();

    // ---- checks and counts --------------------------------------------
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (r, n) in nets.iter().enumerate() {
        let units = n.closed_totals.started + n.open_totals.started;
        let lost = n.closed_totals.unfinished + n.open_totals.unfinished;
        attempted += units * w.ops_per_unit();
        failed += (n.failed_units + lost) * w.ops_per_unit();
        let stray = n.closed_totals.stray + n.open_totals.stray;
        if stray > 0 {
            violations.push(format!("round {r}: {stray} undecodable datagrams"));
        }
        violations.extend(n.violations.iter().map(|v| format!("round {r} tankd: {v}")));
    }
    for (r, s) in sims.iter().enumerate() {
        let t = s.report.client_totals();
        attempted += t.submitted;
        failed += t.failed + t.denied;
        violations.extend(s.violations.iter().map(|v| format!("round {r} sim: {v}")));
    }
    for (k, d) in drills.iter().enumerate() {
        violations.extend(d.violations.iter().map(|v| format!("drill {k}: {v}")));
    }
    for (name, samples) in [
        ("closed-loop", ops_per_s.len()),
        ("open-loop", p50_us.iter().filter(|v| **v > 0.0).count()),
        (
            "simulator",
            sim_ops_per_s.iter().filter(|v| **v > 0.0).count(),
        ),
    ] {
        let want = ROUNDS * SLICES;
        if samples < want {
            violations.push(format!(
                "{name}: {samples} of {want} slices completed any op"
            ));
        }
    }

    // ---- report -------------------------------------------------------
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    // Wall-clock metrics report the best quarter of their slices; set-up
    // and the simulated-time metrics, which no neighbour can disturb,
    // their median.
    let e2e: [(&str, &[f64], Option<Better>); 8] = [
        ("setup_s", &setups, None),
        ("ops_per_s", &ops_per_s, Some(Better::Higher)),
        ("server_cpu_us_per_op", &cpu_per_op, Some(Better::Lower)),
        ("p50_us", &p50_us, Some(Better::Lower)),
        ("sim_ops_per_s", &sim_ops_per_s, None),
        ("wall_us_per_op", &wall_us_per_op, Some(Better::Lower)),
        ("unavail_ms", &unavail, None),
        ("failover_ms", &failover, None),
    ];
    for (def, (name, samples, best)) in END_TO_END.iter().zip(e2e) {
        assert_eq!(def.name, name, "samples listed in catalogue order");
        if samples.is_empty() {
            violations.push(format!("{}: no sample", def.name));
            values.insert(def.name, 0.0);
            continue;
        }
        let value = match best {
            Some(better) => best_quarter_mean(samples, better),
            None => median(samples),
        };
        print_quartiles(def.name, def.unit, value, samples);
        values.insert(def.name, value);
    }

    // Tails and generator lateness: printed always, gated never — on a
    // shared 2-vCPU box they measure the neighbours.
    let tails = Tails::of(&nets);
    print_quartiles("diag.p99_us", "us", median(&tails.p99_us), &tails.p99_us);
    print_quartiles(
        "diag.gen_late_p99_us",
        "us",
        median(&tails.late_p99_us),
        &tails.late_p99_us,
    );
    println!(
        "diag.open_loop         {} due at {} /s, {} lost",
        tails.due,
        w.open_rate(),
        tails.lost
    );

    if args.trace {
        per_layer(args, &nets, &sims, &drills, &tails, &mut values);
        for d in &PER_LAYER {
            println!("{:<34} {:>16.4} {}", d.name, values[d.name], d.unit);
        }
    }

    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    println!("attempted {attempted} failed {failed}");
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: attempted.max(1),
        failed,
        values,
    })
}

/// The per-layer values a traced run adds to the probe's.
fn per_layer(
    args: &Args,
    nets: &[NetRound],
    sims: &[SimRound],
    drills: &[sim::DrillRun],
    tails: &Tails,
    values: &mut Values,
) {
    let per_unit = args.workload.ops_per_unit() as f64;
    // tankd as a process, over the closed-loop slices.
    let closed: Vec<&ClosedSlice> = nets.iter().flat_map(|n| &n.closed).collect();
    let closed_ops: f64 = closed.iter().map(|s| s.units as f64).sum::<f64>() * per_unit;
    let user: f64 = closed.iter().map(|s| s.cpu.user_us()).sum();
    let sys: f64 = closed.iter().map(|s| s.cpu.sys_us()).sum();
    // Counts below cover the closed phase *and* its drain; so does the
    // denominator.
    let phase_ops: f64 = nets
        .iter()
        .map(|n| n.closed_totals.started as f64)
        .sum::<f64>()
        * per_unit;
    let sum = |f: &dyn Fn(&NetRound) -> u64| nets.iter().map(f).sum::<u64>() as f64;
    values.insert("net.user_cpu_us_per_op", ratio(user, closed_ops));
    values.insert("net.sys_cpu_us_per_op", ratio(sys, closed_ops));
    values.insert(
        "net.ctx_switches_per_op",
        ratio(sum(&|n| n.switches), phase_ops),
    );
    values.insert(
        "net.dgrams_in_per_op",
        ratio(sum(&|n| n.closed_totals.traffic.sent), phase_ops),
    );
    values.insert(
        "net.dgrams_out_per_op",
        ratio(sum(&|n| n.closed_totals.traffic.received), phase_ops),
    );
    let leaf = values
        .get("probe.leaf_busy_us_per_op")
        .copied()
        .unwrap_or(0.0);
    values.insert(
        "net.unattributed_cpu_us_per_op",
        values["server_cpu_us_per_op"] - leaf,
    );
    values.insert(
        "net.peak_rss_kib",
        nets.iter().map(|n| n.peak_rss_kib).max().unwrap_or(0) as f64,
    );
    values.insert("net.p99_us", median(&tails.p99_us));
    values.insert("net.lost_frac", ratio(tails.lost as f64, tails.due as f64));
    values.insert("net.gen_late_p99_us", median(&tails.late_p99_us));
    let all_units: f64 = sum(&|n| n.closed_totals.started + n.open_totals.started);
    values.insert(
        "server.lock_demands_per_op",
        ratio(sum(&|n| n.demands), all_units),
    );

    // The simulated cluster, over whole rounds (cold slice and settle
    // included: the counters are not sliced).
    let ops: f64 = sims
        .iter()
        .map(|s| s.report.client_totals().completed as f64)
        .sum();
    let total = |f: &dyn Fn(&SimRound) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let per_op = |f: &dyn Fn(&SimRound) -> u64| ratio(total(f), ops);
    values.insert(
        "core.authority_mem_bytes",
        total(&|s| s.report.authority_memory_bytes as u64),
    );
    values.insert(
        "server.replays_per_op",
        per_op(&|s| s.report.server.replays),
    );
    values.insert(
        "server.pushes_per_op",
        per_op(&|s| s.report.server.pushes_sent),
    );
    values.insert(
        "server.requests_per_op",
        per_op(&|s| s.report.server.requests),
    );
    values.insert("server.nacks_per_op", per_op(&|s| s.report.server.nacks));
    values.insert("meta.txn_per_op", per_op(&|s| s.report.meta_transactions));
    values.insert(
        "meta.wal_fsyncs_per_mutation",
        ratio(total(&|s| s.wal.1), total(&|s| s.wal.0)),
    );
    let hits = total(&|s| s.report.client_totals().cache_hits);
    let misses = total(&|s| s.report.client_totals().cache_misses);
    values.insert("client.cache_hit_ratio", ratio(hits, hits + misses));
    values.insert(
        "client.cache_evictions_per_op",
        per_op(&|s| s.report.client_totals().cache_evictions),
    );
    values.insert(
        "client.keepalives_per_op",
        per_op(&|s| s.report.msg.keepalives),
    );
    values.insert(
        "client.retransmits_per_op",
        per_op(&|s| s.report.client_totals().retransmits),
    );
    values.insert(
        "storage.san_msgs_per_op",
        per_op(&|s| s.report.msg.san_sent),
    );
    values.insert("sim.ctl_msgs_per_op", per_op(&|s| s.report.msg.ctl_sent));
    values.insert("sim.ctl_bytes_per_op", per_op(&|s| s.report.msg.ctl_bytes));
    let shard_max = total(&|s| s.shard_requests.iter().copied().max().unwrap_or(0));
    let shard_mean = sims
        .iter()
        .map(|s| s.shard_requests.iter().sum::<u64>() as f64 / s.shard_requests.len() as f64)
        .sum::<f64>();
    values.insert("shard.imbalance", ratio(shard_max, shard_mean));
    let slices: Vec<&sim::SimSlice> = sims.iter().flat_map(|s| &s.slices).collect();
    let events_per_s: Vec<f64> = slices
        .iter()
        .map(|s| s.events as f64 / s.wall.as_secs_f64())
        .collect();
    values.insert("sim.events_per_wall_s", median(&events_per_s));
    // From the obs registry each observed round carried.
    let snaps: Vec<&tank_obs::Snapshot> = sims.iter().filter_map(|s| s.registry.as_ref()).collect();
    let batch: Vec<f64> = snaps
        .iter()
        .filter_map(|s| s.histogram("client.batch.size"))
        .filter(|h| h.count > 0)
        .map(|h| h.mean())
        .collect();
    values.insert(
        "client.batch_size_mean",
        if batch.is_empty() {
            0.0
        } else {
            median(&batch)
        },
    );
    let headroom = snaps
        .iter()
        .filter_map(|s| s.histogram("client.renewal_headroom_ns")?.min)
        .min();
    values.insert(
        "client.renewal_headroom_ms_min",
        headroom.map_or(0.0, |ns| ns as f64 / 1e6),
    );
    let steals: Vec<f64> = drills
        .iter()
        .filter_map(|d| d.steal_latency_ns)
        .map(|ns| ns as f64)
        .collect();
    values.insert(
        "server.steal_latency_ns_p50",
        if steals.is_empty() {
            0.0
        } else {
            median(&steals)
        },
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            // No result line: the run did not happen.
            eprintln!("harness: {e}");
            return ExitCode::from(1);
        }
    };
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            defs,
            &outcome.values
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
