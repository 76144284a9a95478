//! `perfbench` — the end-to-end and per-layer benchmark of the VASE flow.
//!
//! ```text
//! perfbench --workload <serve_corpus|scale_synth|map_search|sim_corpus>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--vase-bin <path>] [--out <file>] [--smoke]
//! ```
//!
//! Every workload makes its inputs from `--seed`, sets up (several
//! times, reporting the mean with the host's stolen time taken out),
//! runs whole rounds of operations for `--seconds` after a warm-up
//! round, and checks every output. Rates and latencies are medians over
//! the run's one-second windows, each corrected for stolen time (see
//! [`measure::Windows`]). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a separate traced
//! run (`--trace 1`). The full report, and
//! the recorded spans of a traced run, go to `--out` (default
//! `target/perfbench/<workload>-seed<n>-trace<0|1>.json`). `--smoke`
//! runs one set-up and one timed round, for the benchmark's own tests.
//! `perfbench/run.sh` builds the `vase` binary and this program in
//! release mode and passes `--vase-bin`.

mod layers;
mod map_search;
mod measure;
mod scale_synth;
mod serve_corpus;
mod sim_corpus;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use vase::diag::json::Json;

use measure::Checker;

/// End-to-end metrics, printed by every workload: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("netlist_area_um2", "um2"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("frontend.lex_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.sema_us", "us"),
    ("frontend.tokens", "count"),
    ("frontend.tokens_per_s", "1/s"),
    ("compiler.lower_us", "us"),
    ("compiler.blocks", "count"),
    ("compiler.solver_variants", "count"),
    ("compiler.candidates", "count"),
    ("vhif.opt_us", "us"),
    ("vhif.opt_blocks_removed", "count"),
    ("vhif.verify_us", "us"),
    ("analyze.range_us", "us"),
    ("analyze.iterations", "count"),
    ("archgen.map_us", "us"),
    ("archgen.nodes_visited", "count"),
    ("archgen.nodes_pruned", "count"),
    ("archgen.nodes_per_s", "1/s"),
    ("archgen.exact.map_us", "us"),
    ("archgen.exact.nodes_visited", "count"),
    ("archgen.exact.nodes_pruned", "count"),
    ("archgen.guided.map_us", "us"),
    ("archgen.guided.nodes_visited", "count"),
    ("archgen.guided.nodes_pruned", "count"),
    ("archgen.parallel.map_us", "us"),
    ("archgen.parallel.nodes_visited", "count"),
    ("archgen.parallel.nodes_pruned", "count"),
    ("archgen.cache_hits", "count"),
    ("archgen.cache_misses", "count"),
    ("archgen.cache_load_us", "us"),
    ("archgen.cache_save_us", "us"),
    ("sim.plan_us", "us"),
    ("sim.behavioral_steps_per_s", "1/s"),
    ("sim.netlist_steps_per_s", "1/s"),
    ("sim.lane_steps_per_s", "1/s"),
    ("sim.recovered_steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.mc_samples_per_s", "1/s"),
    ("serve.roundtrip_us", "us"),
    ("serve.roundtrip_p99_us", "us"),
    ("serve.service_us", "us"),
    ("serve.overhead_us", "us"),
    ("flow.overhead_us", "us"),
    ("flow.total_us", "us"),
];

/// How one invocation runs.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory for files the workload writes (cache
    /// snapshots); inside the results directory.
    pub work_dir: PathBuf,
    pub vase_bin: Option<PathBuf>,
}

impl Config {
    /// Set-up repetitions before the timed rounds; `setup_s` comes from
    /// them (see [`measure::SetupClock`]).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            15
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub checks: Checker,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric values by name (see [`END_TO_END`]).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the results file only.
    pub extra: Vec<(&'static str, Json)>,
    /// Recorded spans (traced runs).
    pub trace: Option<Json>,
}

impl Report {
    /// `ops_per_s` and `latency_p50_ms` from the run's windows (see
    /// [`measure::Windows`]); the whole run's latency p99, from
    /// `latencies_us`, goes to the results file.
    pub fn set_speed(&mut self, windows: &measure::Windows, latencies_us: &[f64]) {
        self.end_to_end.insert("ops_per_s", windows.rate());
        self.end_to_end
            .insert("latency_p50_ms", windows.latency_us() / 1e3);
        self.extra.push((
            "latency_p99_ms",
            Json::Num(measure::quantile(latencies_us, 0.99) / 1e3),
        ));
        self.extra
            .push(("latency_samples", Json::Int(latencies_us.len() as i128)));
        let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        self.extra.push(("window_rates", list(windows.rates())));
        self.extra
            .push(("window_latencies_us", list(windows.latencies_us())));
        self.extra.push(("window_steal", list(windows.steal())));
    }

    /// Fill the per-layer metrics that come straight from the
    /// recorder's spans and counters.
    pub fn set_recorded_layers(&mut self, rec: &measure::Recorder) {
        let l = &mut self.layers;
        for (metric, span) in [
            ("frontend.lex_us", "frontend.lex"),
            ("frontend.parse_us", "frontend.parse"),
            ("frontend.sema_us", "frontend.sema"),
            ("compiler.lower_us", "compiler.lower"),
            ("vhif.opt_us", "vhif.opt"),
            ("vhif.verify_us", "vhif.verify"),
            ("analyze.range_us", "analyze.range"),
            ("archgen.map_us", "archgen.map"),
            ("flow.overhead_us", "flow.overhead"),
            ("flow.total_us", "flow"),
        ] {
            l.insert(metric, rec.median_us(span));
        }
        for name in [
            "frontend.tokens",
            "compiler.blocks",
            "compiler.solver_variants",
            "compiler.candidates",
            "vhif.opt_blocks_removed",
            "analyze.iterations",
            "archgen.nodes_visited",
            "archgen.nodes_pruned",
        ] {
            l.insert(name, rec.mean_count(name));
        }
        l.insert(
            "frontend.tokens_per_s",
            rec.rate("frontend.tokens", "frontend.lex"),
        );
        // The layer-by-layer synthesis, span recording included, against
        // the same synthesis in one uninstrumented call.
        let (layered, flow) = (rec.median_us("layered"), rec.median_us("flow"));
        if layered > 0.0 && flow > 0.0 {
            self.extra
                .push(("tracing_overhead_share", Json::Num(layered / flow - 1.0)));
        }
        l.insert(
            "archgen.nodes_per_s",
            rec.rate("archgen.nodes_visited", "archgen.map"),
        );
    }
}

struct Args {
    workload: String,
    config: Config,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let seed = match value("--seed") {
        Some(s) => s
            .parse::<u64>()
            .map_err(|e| format!("bad --seed `{s}`: {e}"))?,
        None => 1,
    };
    let seconds = match value("--seconds") {
        Some(s) => s
            .parse::<f64>()
            .map_err(|e| format!("bad --seconds `{s}`: {e}"))?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}` (0 or 1)")),
    };
    let smoke = argv.iter().any(|a| a == "--smoke");
    let out = match value("--out") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(format!(
            "target/perfbench/{workload}-seed{seed}-trace{}.json",
            u8::from(trace)
        )),
    };
    if out
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("BENCH_"))
    {
        return Err("--out must not name a committed BENCH_*.json file".into());
    }
    let dir = out.parent().map(PathBuf::from).unwrap_or_default();
    let stem = out
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("perfbench");
    let work_dir = dir.join(format!("{stem}.work"));
    Ok(Args {
        workload,
        config: Config {
            seed,
            seconds,
            trace,
            smoke,
            work_dir,
            vase_bin: value("--vase-bin").map(PathBuf::from),
        },
        out,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = &args.config;
    if cfg.work_dir.exists() {
        std::fs::remove_dir_all(&cfg.work_dir)
            .map_err(|e| format!("cannot clear {}: {e}", cfg.work_dir.display()))?;
    }
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let ticks_before = measure::cpu_ticks();
    let mut report = match args.workload.as_str() {
        "serve_corpus" => serve_corpus::run(cfg)?,
        "scale_synth" => scale_synth::run(cfg)?,
        "map_search" => map_search::run(cfg)?,
        "sim_corpus" => sim_corpus::run(cfg)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (serve_corpus, scale_synth, map_search, sim_corpus)"
            ))
        }
    };
    if let (Some((t0, s0, _)), Some((t1, s1, _))) = (ticks_before, measure::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.extra.push(("host_steal_share", Json::Num(share)));
    }
    if let Some((faults, user_s, system_s)) = measure::own_usage() {
        report
            .extra
            .push(("minor_faults", Json::Int(i128::from(faults))));
        report.extra.push(("user_cpu_s", Json::Num(user_s)));
        report.extra.push(("system_cpu_s", Json::Num(system_s)));
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    for p in &report.checks.problems {
        eprintln!("check failed: {p}");
    }

    let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if cfg.trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.push((
            name,
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.checks.ok())),
        ("attempted", Json::Int(report.attempted as i128)),
        ("failed", Json::Int(report.failed as i128)),
        ("metrics", Json::obj(metrics)),
    ]);

    let number_map = |m: &BTreeMap<&'static str, f64>| {
        Json::obj(
            m.iter()
                .map(|(k, v)| (*k, Json::Num(*v)))
                .collect::<Vec<_>>(),
        )
    };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut file = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(cfg.seed as i128)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("cpus", Json::Int(cpus as i128)),
        ("result", result.clone()),
        (
            "problems",
            Json::Arr(report.checks.problems.iter().map(Json::str).collect()),
        ),
        ("end_to_end", number_map(&report.end_to_end)),
        ("per_layer", number_map(&report.layers)),
        ("extra", Json::obj(report.extra.clone())),
    ];
    if let Some(trace) = report.trace {
        file.push(("spans", trace));
    }
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, Json::obj(file).to_line() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("{}", result.to_line());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
