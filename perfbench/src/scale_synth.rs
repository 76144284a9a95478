//! `scale_synth`: the in-process flow (`vase::flow::synthesize_source`,
//! default options, no cache) on `vase_bench::synthetic_source(n)` chains
//! of `n` weighted-sum equations.
//!
//! Each round synthesizes one chain per octave, `n ≈ 8, 16, …, 512`,
//! each size drawn from the seed in `(2^k·(1 − 1/64), 2^k]` and the order
//! shuffled. The draw is that narrow because mapping grows about as n²:
//! a wide draw of the largest size would move the run's mean cost by
//! more than the noise the benchmark has to resolve.

use std::collections::HashMap;
use std::time::Instant;

use vase::archgen::{map_graph_greedy, MapperConfig};
use vase::estimate::Estimator;
use vase::flow::{derive_constraints, synthesize_source, FlowOptions};
use vase::sim::{CompiledSim, SimConfig, Stimulus};
use vase_bench::synthetic_source;

use vase::diag::json::Json;

use crate::measure::{self, close, mix, shuffle, Checker, Recorder, SetupClock, Windows};
use crate::{layers, Config, Report};

const OCTAVES: std::ops::RangeInclusive<u32> = 3..=9;
/// Rounds whose netlist areas make up `netlist_area_um2` (a fixed set
/// per seed, so the metric does not depend on run length).
const AREA_ROUNDS: u64 = 16;
/// The set-up is timed again after every this many timed rounds.
const SETUP_EVERY: u64 = 4;

fn sizes(seed: u64, round: u64) -> Vec<usize> {
    let mut out: Vec<usize> = OCTAVES
        .map(|k| {
            let u = (mix(seed, round, u64::from(k), 1) >> 11) as f64 / (1u64 << 53) as f64;
            let top = f64::from(1u32 << k);
            ((top * (1.0 - u / 64.0)).floor() as usize).max(2)
        })
        .collect();
    shuffle(&mut out, mix(seed, round, 2, 0));
    out
}

/// The closed-form DC output of the chain for input `x`:
/// `q_i = w_i·q_{i-1} + 0.125·x` with `q_{-1} = x` and
/// `w_i = 0.5 + (i mod 7)·0.25`; `y = q_{n-1}`.
fn closed_form_dc(n: usize, x: f64) -> f64 {
    let mut q = x;
    for i in 0..n {
        let w = 0.5 + (i % 7) as f64 * 0.25;
        q = w * q + 0.125 * x;
    }
    q
}

/// What the first synthesis of a size produced, after checks; later
/// syntheses of the same source must match it exactly.
struct Reference {
    opamps: usize,
    area_m2: f64,
}

struct Inputs {
    sources: HashMap<usize, String>,
    references: HashMap<usize, Reference>,
}

impl Inputs {
    fn source(&mut self, n: usize) -> &str {
        self.sources.entry(n).or_insert_with(|| synthetic_source(n))
    }

    /// Check the first synthesis of size `n` against independent
    /// references and remember its result.
    fn reference(&mut self, n: usize, checks: &mut Checker) -> Result<&Reference, String> {
        if !self.references.contains_key(&n) {
            let source = self.source(n).to_owned();
            let r = check_chain(n, &source, checks)?;
            self.references.insert(n, r);
        }
        Ok(&self.references[&n])
    }
}

fn check_chain(n: usize, source: &str, checks: &mut Checker) -> Result<Reference, String> {
    let designs = synthesize_source(source, &FlowOptions::default())
        .map_err(|e| format!("chain n={n}: {e}"))?;
    checks.check(designs.len() == 1, || {
        format!("chain n={n}: {} designs", designs.len())
    });
    let d = designs
        .first()
        .ok_or_else(|| format!("chain n={n}: no design"))?;
    let s = &d.synthesis;
    checks.check(s.netlist.validate().is_ok(), || {
        format!("chain n={n}: netlist invalid")
    });
    checks.check(s.estimate.feasible(), || {
        format!("chain n={n}: estimate infeasible")
    });
    checks.check(!s.stats.budget_exhausted, || {
        format!("chain n={n}: search did not complete")
    });

    // The exact cover is never larger than the greedy one.
    let design = vase::frontend::parse_design_file(source).map_err(|e| e.to_string())?;
    let analyzed = vase::frontend::analyze(&design).map_err(|e| e.to_string())?;
    let arch = analyzed
        .architecture_of(&d.entity)
        .ok_or("chain: no architecture")?;
    let estimator = Estimator::new(derive_constraints(arch, FlowOptions::default().constraints));
    let mut greedy = 0.0;
    for graph in &d.vhif.graphs {
        greedy += map_graph_greedy(graph, &estimator, &MapperConfig::default())
            .map_err(|e| format!("chain n={n}: greedy: {e}"))?
            .estimate
            .area_m2;
    }
    checks.check(s.estimate.area_m2 <= greedy * (1.0 + 1e-12), || {
        format!(
            "chain n={n}: exact area {} > greedy area {greedy}",
            s.estimate.area_m2
        )
    });

    // Behavioural DC gain against the closed-form recurrence. The gain
    // reaches ~1e29 at n = 512; a tiny input keeps every value below the
    // simulator's divergence limit (1e12).
    let x = 1e-20;
    let inputs = [("x".to_owned(), Stimulus::Constant { level: x })]
        .into_iter()
        .collect();
    let plan = CompiledSim::new(&d.vhif, &inputs, &SimConfig::new(1e-6, 4e-6))
        .map_err(|e| format!("chain n={n}: sim plan: {e}"))?;
    let result = plan.run();
    let y = result
        .trace("y")
        .and_then(|t| t.last().copied())
        .unwrap_or(f64::NAN);
    let want = closed_form_dc(n, x);
    checks.check(close(y, want, 1e-9), || {
        format!("chain n={n}: DC output {y}, closed form {want}")
    });
    Ok(Reference {
        opamps: s.netlist.opamp_count(),
        area_m2: s.estimate.area_m2,
    })
}

/// The set-up: make the first round's inputs afresh and synthesize each
/// once. Returns their areas.
fn set_up(seed: u64, inputs: &Inputs, checks: &mut Checker) -> Result<Vec<f64>, String> {
    let mut areas = Vec::new();
    for n in sizes(seed, 0) {
        let source = synthetic_source(n);
        let (opamps, area) = synthesize(&mut Recorder::new(false), &source)?;
        let r = &inputs.references[&n];
        checks.check(opamps == r.opamps && area == r.area_m2, || {
            format!("chain n={n}: set-up result differs from the checked one")
        });
        areas.push(area);
    }
    Ok(areas)
}

/// Synthesize one chain (the timed operation); returns (opamps, area).
fn synthesize(rec: &mut Recorder, source: &str) -> Result<(usize, f64), String> {
    let options = FlowOptions::default();
    if !rec.on() {
        let designs = synthesize_source(source, &options).map_err(|e| e.to_string())?;
        let d = designs.first().ok_or("no design")?;
        return Ok((
            d.synthesis.netlist.opamp_count(),
            d.synthesis.estimate.area_m2,
        ));
    }
    let out = layers::traced_synth(rec, source, &options, None, None)?;
    let (_, s) = out.first().ok_or("no design")?;
    Ok((s.netlist.opamp_count(), s.estimate.area_m2))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rec = Recorder::new(cfg.trace);
    let mut inputs = Inputs {
        sources: HashMap::new(),
        references: HashMap::new(),
    };
    let mut areas = Vec::new();

    // References for the warm-up round, outside the set-up time.
    for n in sizes(cfg.seed, 0) {
        inputs.reference(n, &mut report.checks)?;
    }
    // Set-up: make the first round's inputs and run it once; repeated
    // after every `SETUP_EVERY`-th timed round.
    let mut setup = SetupClock::default();
    areas.extend(setup.time(|| set_up(cfg.seed, &inputs, &mut report.checks))?);

    let mut latencies = Vec::new();
    let mut busy_us = 0.0;
    let mut windows = Windows::default();
    let mut window_latencies = Vec::new();
    let rounds = measure::timed_rounds(cfg.seconds, cfg.smoke, |round| {
        for n in sizes(cfg.seed, round) {
            inputs.reference(n, &mut report.checks)?;
            let source = inputs.source(n).to_owned();
            rec.begin_op();
            let t0 = Instant::now();
            let outcome = synthesize(&mut rec, &source);
            let us = measure::micros(t0.elapsed());
            rec.end_op();
            report.attempted += 1;
            let (opamps, area) = outcome?;
            let r = &inputs.references[&n];
            report
                .checks
                .check(opamps == r.opamps && area == r.area_m2, || {
                    format!("chain n={n}: result differs from the first synthesis")
                });
            latencies.push(us);
            window_latencies.push(us);
            busy_us += us;
            if round < AREA_ROUNDS {
                areas.push(area);
            }
        }
        if round % SETUP_EVERY == 0 {
            setup.time(|| set_up(cfg.seed, &inputs, &mut report.checks))?;
        }
        if windows.due() {
            windows.close_ops(&mut window_latencies);
        }
        Ok(())
    })?;
    report.end_to_end.insert("setup_s", setup.seconds());

    if windows.len() == 0 {
        windows.close_ops(&mut window_latencies);
    }
    report.set_speed(&windows, &latencies);
    report.extra.push((
        "run_ops_per_s",
        Json::Num(latencies.len() as f64 / (busy_us * 1e-6)),
    ));
    report
        .extra
        .push(("timed_rounds", Json::Int(i128::from(rounds))));
    report
        .extra
        .push(("setup_reps", Json::Int(setup.reps() as i128)));
    report
        .end_to_end
        .insert("peak_rss_mib", measure::peak_rss_mib("self")?);
    report
        .end_to_end
        .insert("netlist_area_um2", measure::mean(&areas) * 1e12);
    report.set_recorded_layers(&rec);
    if cfg.trace {
        report.trace = Some(rec.trace_json());
    }
    Ok(report)
}
