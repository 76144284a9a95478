//! `map_search`: `vase_archgen::map_graph` on seeded synthetic
//! signal-flow graphs, under three strategies.
//!
//! Each round draws one graph per family (`filter_chain`, `control_loop`,
//! `fanout_mesh`) and size (25 and 50 operation blocks) from the seed,
//! and maps each with the exact depth-first search, the guided
//! best-first search, and the exact search on two threads, in a shuffled
//! order. These sizes complete under the default node cap; at 50 blocks
//! `control_loop` is where the search branches and prunes.
//!
//! On about one `fanout_mesh` graph in a thousand the exact search's
//! dominance memo prunes the minimum-area cover (the memo compares
//! op-amp counts, the objective is area), so the exact search returns a
//! larger cover than the guided one; on about one `fanout_mesh@50` graph
//! in fifteen thousand the guided search returns a larger cover than the
//! exact one. So that
//! these faults show in every run alike, each round also maps one fixed
//! graph with each, [`REGRESSIONS`], with the exact and the guided
//! search; the faulty mapping counts as a failed operation while it
//! returns the known larger cover. On a seeded graph the same faults
//! show on some seeds only, so there they are tallied in the results
//! file (`exact_nonminimal`, `guided_nonminimal`) rather than failed;
//! any other disagreement between the strategies is a check failure.

use vase::archgen::{map_graph, map_graph_greedy, MapResult, MapperConfig};
use vase::estimate::Estimator;
use vase::vhif::SignalFlowGraph;
use vase_bench::synthetic::FAMILIES;

use vase::diag::json::Json;

use crate::measure::{self, mix, shuffle, Checker, Recorder, Windows};
use crate::{Config, Report};

const SIZES: [usize; 2] = [25, 50];
/// Rounds whose exact-cover areas make up `netlist_area_um2`.
const AREA_ROUNDS: u64 = 32;
/// A fixed graph on which one strategy returns a larger cover than the
/// minimum: (family, size, generator seed, the strategy with the fault,
/// the minimum cover, the faulty strategy's cover). A cover is the bits
/// of its area (f64, m²) and its op amps. The minima come from the
/// search without bounding or memo (`MapperConfig::exhaustive()`).
type Regression = (
    &'static str,
    usize,
    u64,
    Strategy,
    (u64, usize),
    (u64, usize),
);

const REGRESSIONS: [Regression; 2] = [
    // The exact search's dominance memo prunes the minimum: 1.2230250e-7
    // m² against 1.215025e-7 m², both with 26 op amps.
    (
        "fanout_mesh",
        25,
        0x73f1_a46d_f9cc_e325,
        Strategy::Exact,
        (0x3e80_4ecb_4adc_bf29, 26),
        (0x3e80_6a48_2ab6_96e7, 26),
    ),
    // The guided search returns 2.5360750e-7 m² with 56 op amps against
    // the minimum 2.4808553e-7 m² with 55, which the exact search finds.
    (
        "fanout_mesh",
        50,
        0x5d1d_daf4_e43c_02da,
        Strategy::Guided,
        (0x3e90_a613_b3a3_1084, 55),
        (0x3e91_04f1_949f_e52b, 56),
    ),
];

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Exact,
    Guided,
    Parallel,
}

impl Strategy {
    const ALL: [Strategy; 3] = [Strategy::Exact, Strategy::Guided, Strategy::Parallel];

    fn config(self) -> MapperConfig {
        match self {
            Strategy::Exact => MapperConfig::default(),
            Strategy::Guided => MapperConfig::guided(),
            Strategy::Parallel => MapperConfig {
                parallelism: 2,
                ..MapperConfig::default()
            },
        }
    }

    /// Span and counter names of this strategy's per-layer metrics.
    fn names(self) -> [&'static str; 3] {
        match self {
            Strategy::Exact => [
                "archgen.exact.map",
                "archgen.exact.nodes_visited",
                "archgen.exact.nodes_pruned",
            ],
            Strategy::Guided => [
                "archgen.guided.map",
                "archgen.guided.nodes_visited",
                "archgen.guided.nodes_pruned",
            ],
            Strategy::Parallel => [
                "archgen.parallel.map",
                "archgen.parallel.nodes_visited",
                "archgen.parallel.nodes_pruned",
            ],
        }
    }
}

struct Graph {
    label: String,
    graph: SignalFlowGraph,
}

fn graph(family: usize, size: usize, graph_seed: u64) -> Graph {
    let (name, generate) = FAMILIES[family];
    Graph {
        label: format!("{name}@{size} seed {graph_seed:#x}"),
        graph: generate(size, graph_seed),
    }
}

/// The seeded graphs of a round.
fn graphs(seed: u64, round: u64) -> Vec<Graph> {
    let mut out = Vec::new();
    for f in 0..FAMILIES.len() {
        for size in SIZES {
            out.push(graph(f, size, mix(seed, round, f as u64, size as u64)));
        }
    }
    out
}

/// The graphs of [`REGRESSIONS`], in order.
fn regression_graphs() -> Result<Vec<Graph>, String> {
    REGRESSIONS
        .iter()
        .map(|&(family, size, graph_seed, ..)| {
            let f = FAMILIES
                .iter()
                .position(|(name, _)| *name == family)
                .ok_or("regression family missing")?;
            Ok(graph(f, size, graph_seed))
        })
        .collect()
}

/// Whether `m` is a valid cover smaller than the exact search's: the
/// form the dominance-memo fault takes (see the module docs).
fn beats_exact(m: &MapResult, exact: &MapResult) -> bool {
    m.estimate.area_m2 < exact.estimate.area_m2
        && m.netlist.opamp_count() == exact.netlist.opamp_count()
        && m.netlist.validate().is_ok()
        && m.estimate.feasible()
}

/// What a round did, besides its checks.
#[derive(Default)]
struct Outcome {
    /// Exact-cover areas of the seeded graphs.
    areas: Vec<f64>,
    /// Latencies (µs) of the mappings that did not fail.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Seeded graphs on which another strategy beat the exact cover.
    exact_nonminimal: u64,
    /// Seeded graphs on which the guided cover is larger than the exact.
    guided_nonminimal: u64,
}

/// One mapping, timed and recorded.
fn map_one(
    graph: &Graph,
    strategy: Strategy,
    rec: &mut Recorder,
) -> Result<(MapResult, f64), String> {
    let [span, visited, pruned] = strategy.names();
    rec.begin_op();
    let open = rec.begin(span);
    let result = map_graph(&graph.graph, &Estimator::default(), &strategy.config());
    let us = rec.end(open);
    let result = result.map_err(|e| format!("{}: map: {e}", graph.label))?;
    let stats = &result.stats;
    rec.add_time("archgen.map", us);
    rec.count("archgen.nodes_visited", stats.visited_nodes as f64);
    rec.count(visited, stats.visited_nodes as f64);
    let p = (stats.pruned_nodes + stats.memo_pruned) as f64;
    rec.count("archgen.nodes_pruned", p);
    rec.count(pruned, p);
    rec.end_op();
    Ok((result, us))
}

/// One round: every seeded graph under every strategy, and each of
/// [`REGRESSIONS`] under the exact and the guided search, in a seeded
/// order.
fn round(
    seed: u64,
    index: u64,
    regressions: &[Graph],
    rec: &mut Recorder,
    checks: &mut Checker,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let graphs = graphs(seed, index);
    // (graph, strategy); graphs from `graphs.len()` on are the
    // regression graphs.
    let mut order: Vec<(usize, usize)> = (0..graphs.len())
        .flat_map(|g| (0..Strategy::ALL.len()).map(move |s| (g, s)))
        .chain((graphs.len()..graphs.len() + regressions.len()).flat_map(|g| [(g, 0), (g, 1)]))
        .collect();
    shuffle(&mut order, mix(seed, index, 3, 0));
    let mut results: Vec<[Option<(MapResult, f64)>; 3]> = (0..graphs.len() + regressions.len())
        .map(|_| [None, None, None])
        .collect();
    for (g, s) in order {
        let graph = graphs
            .get(g)
            .unwrap_or_else(|| &regressions[g - graphs.len()]);
        results[g][s] = Some(map_one(graph, Strategy::ALL[s], rec)?);
        out.attempted += 1;
    }

    for (i, &(.., faulty, min, known)) in REGRESSIONS.iter().enumerate() {
        let label = &regressions[i].label;
        for (s, name) in ["exact", "guided"].into_iter().enumerate() {
            let Some((m, us)) = &results[graphs.len() + i][s] else {
                return Err(format!("{label}: {name} produced no result"));
            };
            let cover = (m.estimate.area_m2.to_bits(), m.netlist.opamp_count());
            if cover == min {
                out.latencies.push(*us);
                continue;
            }
            checks.check(Strategy::ALL[s] == faulty && cover == known, || {
                format!(
                    "{label}: {name} cover ({} m², {} op amps) is neither the minimum nor the known larger cover",
                    m.estimate.area_m2, cover.1
                )
            });
            out.failed += 1;
        }
    }

    for (graph, r) in graphs.iter().zip(&results) {
        let [Some((exact, _)), Some((guided, _)), Some((parallel, _))] = r else {
            return Err(format!("{}: a strategy produced no result", graph.label));
        };
        out.latencies.extend(r.iter().flatten().map(|(_, us)| *us));
        let label = &graph.label;
        // The guided search promises the exact search's netlist bit for
        // bit; the parallel search promises its optimum (area and op
        // amps) — which of two equal-area covers it returns depends on
        // thread timing. Where either beats the exact cover, the exact
        // search has hit the dominance-memo fault.
        let same_optimum = |m: &MapResult| {
            m.estimate.area_m2.to_bits() == exact.estimate.area_m2.to_bits()
                && m.netlist.opamp_count() == exact.netlist.opamp_count()
        };
        let nonminimal = beats_exact(guided, exact) || beats_exact(parallel, exact);
        if nonminimal {
            out.exact_nonminimal += 1;
            eprintln!("map_search: {label}: the exact search returns a larger cover than another strategy");
        }
        let guided_larger = guided.estimate.area_m2 > exact.estimate.area_m2
            && guided.netlist.validate().is_ok()
            && guided.estimate.feasible();
        if guided_larger {
            out.guided_nonminimal += 1;
            eprintln!("map_search: {label}: the guided search returns a larger cover than the exact search");
        }
        checks.check(
            (guided.netlist == exact.netlist && same_optimum(guided))
                || beats_exact(guided, exact)
                || guided_larger,
            || format!("{label}: guided search disagrees with exact search"),
        );
        checks.check(
            same_optimum(parallel)
                || (nonminimal && parallel.estimate.area_m2 <= exact.estimate.area_m2),
            || format!("{label}: parallel search finds another optimum than exact search"),
        );
        for (name, m) in [("exact", exact), ("guided", guided), ("parallel", parallel)] {
            checks.check(!m.stats.budget_exhausted, || {
                format!("{label}: {name} did not complete")
            });
            checks.check(m.netlist.validate().is_ok(), || {
                format!("{label}: {name} netlist invalid")
            });
            checks.check(m.estimate.feasible(), || {
                format!("{label}: {name} estimate infeasible")
            });
        }
        let greedy = map_graph_greedy(
            &graph.graph,
            &Estimator::default(),
            &MapperConfig::default(),
        )
        .map_err(|e| format!("{label}: greedy: {e}"))?;
        checks.check(
            exact.estimate.area_m2 <= greedy.estimate.area_m2 * (1.0 + 1e-12),
            || {
                format!(
                    "{label}: exact area {} > greedy area {}",
                    exact.estimate.area_m2, greedy.estimate.area_m2
                )
            },
        );
        out.areas.push(exact.estimate.area_m2);
    }
    Ok(out)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rec = Recorder::new(cfg.trace);
    let mut areas = Vec::new();
    let regressions = regression_graphs()?;

    // Set-up: generate the first round's graphs and map them once.
    let ((), setup_s) = measure::repeated_setup(cfg.setup_reps(), |rep| {
        let o = round(
            cfg.seed,
            0,
            &regressions,
            &mut Recorder::new(false),
            &mut report.checks,
        )?;
        if rep == 0 {
            areas.extend(o.areas);
        }
        Ok(())
    })?;
    report.end_to_end.insert("setup_s", setup_s);

    let mut latencies = Vec::new();
    let mut windows = Windows::default();
    let mut window_latencies = Vec::new();
    let mut exact_nonminimal = 0;
    let mut guided_nonminimal = 0;
    let rounds = measure::timed_rounds(cfg.seconds, cfg.smoke, |index| {
        let o = round(cfg.seed, index, &regressions, &mut rec, &mut report.checks)?;
        report.attempted += o.attempted;
        report.failed += o.failed;
        exact_nonminimal += o.exact_nonminimal;
        guided_nonminimal += o.guided_nonminimal;
        latencies.extend(&o.latencies);
        window_latencies.extend(o.latencies);
        if windows.due() {
            windows.close_ops(&mut window_latencies);
        }
        if index < AREA_ROUNDS {
            areas.extend(o.areas);
        }
        Ok(())
    })?;

    if windows.len() == 0 {
        windows.close_ops(&mut window_latencies);
    }
    report.set_speed(&windows, &latencies);
    report.extra.push((
        "run_ops_per_s",
        Json::Num(latencies.len() as f64 / (latencies.iter().sum::<f64>() * 1e-6)),
    ));
    report
        .extra
        .push(("timed_rounds", Json::Int(i128::from(rounds))));
    report
        .extra
        .push(("exact_nonminimal", Json::Int(i128::from(exact_nonminimal))));
    report.extra.push((
        "guided_nonminimal",
        Json::Int(i128::from(guided_nonminimal)),
    ));
    report
        .end_to_end
        .insert("peak_rss_mib", measure::peak_rss_mib("self")?);
    report
        .end_to_end
        .insert("netlist_area_um2", measure::mean(&areas) * 1e12);
    report.set_recorded_layers(&rec);
    for strategy in Strategy::ALL {
        let [span, visited, pruned] = strategy.names();
        let metric = match strategy {
            Strategy::Exact => "archgen.exact.map_us",
            Strategy::Guided => "archgen.guided.map_us",
            Strategy::Parallel => "archgen.parallel.map_us",
        };
        report.layers.insert(metric, rec.median_us(span));
        report.layers.insert(visited, rec.mean_count(visited));
        report.layers.insert(pruned, rec.mean_count(pruned));
    }
    if cfg.trace {
        report.trace = Some(rec.trace_json());
    }
    Ok(report)
}
