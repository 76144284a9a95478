//! `serve_corpus`: the release `vase serve` binary driven over stdin as a
//! closed loop with two requests outstanding, `--workers 2` and a
//! `--cache-file` in the run's scratch directory.
//!
//! Each round sends every one of the 11 shipped specs, inline as
//! `source`, as four requests — `synth -O0`, `synth -O2`, `analyze`,
//! `lint` — in a seeded order. `sim` requests are left out: the service
//! passes an empty stimulus map, so every spec answers "external input
//! has no stimulus", and counting those cheap failures would make their
//! fix read as a throughput loss.
//!
//! Set-up starts the daemon and runs one round, five times: the first
//! start is cold, the others load the cover-cache snapshot the previous
//! daemon left, as a restarted service does. The last daemon serves the
//! timed rounds.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vase::archgen::CoverCache;
use vase::diag::json::Json;
use vase::flow::{synthesize_source, FlowOptions};

use crate::measure::{self, mix, shuffle, Checker, Recorder, Windows};
use crate::{layers, Config, Report};

/// Requests in flight at once (the client is one closed loop).
const CONCURRENCY: usize = 2;
/// Rounds replayed in-process, layer by layer, in a traced run.
const REPLAY_ROUNDS: u64 = 20;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Synth(u8),
    Analyze,
    Lint,
}

const OPS: [Op; 4] = [Op::Synth(0), Op::Synth(2), Op::Analyze, Op::Lint];

/// A synth answer: (entity, op amps, area in m²) per design.
type Designs = Vec<(String, i128, f64)>;

struct Kind {
    entity: &'static str,
    source: &'static str,
    op: Op,
    /// The request line after `{"id":N,`.
    body: String,
    /// The one-shot flow's answer, for synth requests.
    expected: Option<Designs>,
}

struct Daemon {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<String>>,
    line: String,
}

impl Daemon {
    fn spawn(bin: &Path, cache: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--workers", "2", "--cache-file"])
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().ok_or("daemon has no stdin")?;
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let mut stderr = child.stderr.take().ok_or("daemon has no stderr")?;
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        Ok(Daemon {
            child: Some(child),
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
            stderr: Some(stderr),
            line: String::new(),
        })
    }

    fn pid(&self) -> Result<u32, String> {
        self.child
            .as_ref()
            .map(Child::id)
            .ok_or_else(|| "daemon already stopped".to_owned())
    }

    fn send(&mut self, id: u64, body: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "{{\"id\":{id},{body}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to the daemon: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        self.line.clear();
        let n = self
            .stdout
            .read_line(&mut self.line)
            .map_err(|e| format!("daemon read: {e}"))?;
        if n == 0 {
            return Err("the daemon closed its output".into());
        }
        Json::parse(self.line.trim_end()).map_err(|e| format!("bad response line: {e}"))
    }

    /// Close stdin (the daemon drains, snapshots and exits) and wait.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let status = child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}: {stderr}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Drive `daemon` as a closed loop: keep [`CONCURRENCY`] requests in
/// flight, taking request kinds from successive rounds until
/// `next_round` returns `None`, and hand each response with its round
/// trip (µs) to `on_response`.
fn closed_loop(
    daemon: &mut Daemon,
    kinds: &[Kind],
    next_id: &mut u64,
    mut next_round: impl FnMut() -> Option<Vec<usize>>,
    mut on_response: impl FnMut(usize, f64, &Json) -> Result<(), String>,
) -> Result<(), String> {
    let mut pending = VecDeque::new();
    let mut inflight: HashMap<i128, (usize, Instant)> = HashMap::new();
    let mut more = true;
    loop {
        while inflight.len() < CONCURRENCY {
            if pending.is_empty() && more {
                match next_round() {
                    Some(order) => pending.extend(order),
                    None => more = false,
                }
            }
            let Some(kind) = pending.pop_front() else {
                break;
            };
            let id = *next_id;
            *next_id += 1;
            let sent = Instant::now();
            daemon.send(id, &kinds[kind].body)?;
            inflight.insert(i128::from(id), (kind, sent));
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let response = daemon.recv()?;
        let received = Instant::now();
        let id = response
            .get("id")
            .and_then(Json::as_int)
            .ok_or("response without an id")?;
        let (kind, sent) = inflight
            .remove(&id)
            .ok_or_else(|| format!("unexpected response id {id}"))?;
        on_response(kind, measure::micros(received - sent), &response)?;
    }
}

fn designs_of(response: &Json) -> Designs {
    response
        .get("designs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|d| {
            (
                d.get("entity")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                d.get("opamps").and_then(Json::as_int).unwrap_or(-1),
                d.get("area_m2").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect()
}

/// Check one response against the known verdict for its spec, the
/// one-shot flow's result, and the first (cold) answer to the same
/// request.
fn check_response(
    kind: &Kind,
    name: &str,
    response: &Json,
    first: &mut Option<Designs>,
    checks: &mut Checker,
) {
    let status = response.get("status").and_then(Json::as_str).unwrap_or("");
    checks.check(status == "ok", || {
        format!("{name}: status `{status}`: {}", response.to_line())
    });
    match kind.op {
        Op::Lint => {
            let clean = response
                .get("diagnostics")
                .and_then(Json::as_arr)
                .is_some_and(<[Json]>::is_empty);
            checks.check(clean, || format!("{name}: lint is not clean"));
        }
        Op::Analyze => {
            let designs = response
                .get("designs")
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            let converged = !designs.is_empty()
                && designs.iter().all(|d| {
                    d.get("converged").and_then(Json::as_bool) == Some(true)
                        && d.get("cancelled").and_then(Json::as_bool) == Some(false)
                });
            checks.check(converged, || format!("{name}: analysis did not converge"));
        }
        Op::Synth(_) => {
            let got = designs_of(response);
            checks.check(!got.is_empty() && got.iter().all(|d| d.1 > 0), || {
                format!("{name}: no op amps in {got:?}")
            });
            checks.check(kind.expected.as_ref() == Some(&got), || {
                format!(
                    "{name}: serve answer {got:?} differs from the one-shot flow {:?}",
                    kind.expected
                )
            });
            match first {
                Some(cold) => checks.check(*cold == got, || {
                    format!("{name}: warm answer {got:?} differs from the cold answer {cold:?}")
                }),
                None => *first = Some(got),
            }
        }
    }
}

fn kinds() -> Result<Vec<Kind>, String> {
    let mut kinds = Vec::new();
    for (_, entity, source) in vase::benchmarks::corpus() {
        for op in OPS {
            let mut fields = vec![];
            let mut expected = None;
            match op {
                Op::Synth(level) => {
                    fields.push(("op", Json::str("synth")));
                    fields.push(("opt_level", Json::Int(i128::from(level))));
                    let options = FlowOptions {
                        opt_level: level,
                        ..FlowOptions::default()
                    };
                    let designs = synthesize_source(source, &options)
                        .map_err(|e| format!("{entity}: {e}"))?;
                    expected = Some(
                        designs
                            .iter()
                            .map(|d| {
                                (
                                    d.entity.clone(),
                                    d.synthesis.netlist.opamp_count() as i128,
                                    d.synthesis.estimate.area_m2,
                                )
                            })
                            .collect(),
                    );
                }
                Op::Analyze => fields.push(("op", Json::str("analyze"))),
                Op::Lint => fields.push(("op", Json::str("lint"))),
            }
            fields.push(("source", Json::str(source)));
            let line = Json::obj(fields).to_line();
            kinds.push(Kind {
                entity,
                source,
                op,
                body: line[1..].to_owned(),
                expected,
            });
        }
    }
    Ok(kinds)
}

fn order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, mix(seed, round, 6, 0));
    order
}

fn op_label(op: Op) -> &'static str {
    match op {
        Op::Synth(0) => "synth -O0",
        Op::Synth(_) => "synth -O2",
        Op::Analyze => "analyze",
        Op::Lint => "lint",
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let bin = cfg
        .vase_bin
        .as_deref()
        .ok_or("serve_corpus needs --vase-bin <path to vase>")?;
    let mut report = Report::default();
    let kinds = kinds()?;
    let cache_path = cfg.work_dir.join("cover.cache");
    let mut first: Vec<Option<Designs>> = kinds.iter().map(|_| None).collect();
    let mut next_id = 0u64;

    let mut checks = Checker::default();
    let mut respond = |checks: &mut Checker, kind: usize, response: &Json| {
        let k = &kinds[kind];
        let name = format!("{} {}", k.entity, op_label(k.op));
        check_response(k, &name, response, &mut first[kind], checks);
    };

    let mut daemon = None;
    let ((), setup_s) = measure::repeated_setup(cfg.setup_reps(), |_| {
        if let Some(d) = daemon.take() {
            Daemon::finish(d)?;
        }
        let mut d = Daemon::spawn(bin, &cache_path)?;
        let mut once = Some(order(cfg.seed, 0, kinds.len()));
        closed_loop(
            &mut d,
            &kinds,
            &mut next_id,
            || once.take(),
            |kind, _, r| {
                respond(&mut checks, kind, r);
                Ok(())
            },
        )?;
        daemon = Some(d);
        Ok(())
    })?;
    let mut daemon = daemon.ok_or("no daemon after set-up")?;
    report.end_to_end.insert("setup_s", setup_s);

    let mut roundtrips = Vec::new();
    let mut services = Vec::new();
    let mut overheads = Vec::new();
    let mut cache_hits = Vec::new();
    let mut cache_misses = Vec::new();
    let mut windows = Windows::default();
    let mut window_roundtrips = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut rounds = 0u64;
    closed_loop(
        &mut daemon,
        &kinds,
        &mut next_id,
        || {
            let done = rounds > 0 && (cfg.smoke || start.elapsed() >= budget);
            rounds += 1;
            (!done).then(|| order(cfg.seed, rounds, kinds.len()))
        },
        |kind, roundtrip_us, r| {
            respond(&mut checks, kind, r);
            let service_us = r
                .get("elapsed_ms")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
                * 1e3;
            roundtrips.push(roundtrip_us);
            window_roundtrips.push(roundtrip_us);
            if windows.due() {
                let rate = window_roundtrips.len() as f64 / windows.elapsed_s();
                windows.close(rate, measure::median(&window_roundtrips));
                window_roundtrips.clear();
            }
            services.push(service_us);
            overheads.push(roundtrip_us - service_us);
            if matches!(kinds[kind].op, Op::Synth(_)) {
                let designs = r.get("designs").and_then(Json::as_arr).unwrap_or(&[]);
                let sum = |key: &str| {
                    designs
                        .iter()
                        .filter_map(|d| d.get(key).and_then(Json::as_int))
                        .sum::<i128>() as f64
                };
                cache_hits.push(sum("cache_hits"));
                cache_misses.push(sum("cache_misses"));
            }
            Ok(())
        },
    )?;
    let timed_rounds = rounds - 1;
    report.attempted = roundtrips.len() as u64;
    if windows.len() == 0 {
        let rate = window_roundtrips.len() as f64 / windows.elapsed_s();
        windows.close(rate, measure::median(&window_roundtrips));
    }
    report.set_speed(&windows, &roundtrips);
    report.extra.push((
        "run_ops_per_s",
        Json::Num(roundtrips.len() as f64 / start.elapsed().as_secs_f64()),
    ));
    report.end_to_end.insert(
        "peak_rss_mib",
        measure::peak_rss_mib(&daemon.pid()?.to_string())?,
    );
    daemon.finish()?;

    // Mean area per synthesized design over one round (every round holds
    // the same requests).
    let areas: Vec<f64> = kinds
        .iter()
        .filter_map(|k| k.expected.as_ref())
        .flat_map(|d| d.iter().map(|(_, _, area)| *area))
        .collect();
    report
        .end_to_end
        .insert("netlist_area_um2", measure::mean(&areas) * 1e12);

    let l = &mut report.layers;
    l.insert("serve.roundtrip_us", measure::median(&roundtrips));
    l.insert(
        "serve.roundtrip_p99_us",
        measure::quantile(&roundtrips, 0.99),
    );
    l.insert("serve.service_us", measure::median(&services));
    l.insert("serve.overhead_us", measure::median(&overheads));
    l.insert("archgen.cache_hits", measure::mean(&cache_hits));
    l.insert("archgen.cache_misses", measure::mean(&cache_misses));
    report
        .extra
        .push(("timed_rounds", Json::Int(i128::from(timed_rounds))));
    report
        .extra
        .push(("concurrency", Json::Int(CONCURRENCY as i128)));

    if cfg.trace {
        let reps = if cfg.smoke { 1 } else { 5 };
        let (cache, load_s) = measure::repeated_setup(reps, |_| {
            CoverCache::load(&cache_path).map_err(|e| format!("cache load: {e}"))
        })?;
        let save_path = cfg.work_dir.join("save.cache");
        let ((), save_s) = measure::repeated_setup(reps, |_| {
            cache
                .save(&save_path)
                .map_err(|e| format!("cache save: {e}"))
        })?;
        let flow_cache = CoverCache::load(&cache_path).map_err(|e| format!("cache load: {e}"))?;
        let mut rec = Recorder::new(true);
        for round in 1..=timed_rounds.min(REPLAY_ROUNDS) {
            for kind in order(cfg.seed, round, kinds.len()) {
                let k = &kinds[kind];
                let source = k.source;
                rec.begin_op();
                match k.op {
                    Op::Lint => layers::lint(&mut rec, source)?,
                    Op::Analyze => layers::analyze_ranges(&mut rec, source)?,
                    Op::Synth(level) => {
                        let options = FlowOptions {
                            opt_level: level,
                            ..FlowOptions::default()
                        };
                        layers::traced_synth(
                            &mut rec,
                            source,
                            &options,
                            Some(&flow_cache),
                            Some(&cache),
                        )?;
                    }
                }
                rec.end_op();
            }
        }
        report.set_recorded_layers(&rec);
        let l = &mut report.layers;
        l.insert("archgen.cache_load_us", load_s * 1e6);
        l.insert("archgen.cache_save_us", save_s * 1e6);
        report.trace = Some(rec.trace_json());
    }
    report.checks = checks;
    Ok(report)
}
