//! The synthesis flow called one layer at a time, with a span around
//! each public call, for traced runs.
//!
//! It makes the same calls, in the same order, as
//! `vase::flow::synthesize_source_with_cache`, so the spans add up to
//! that function's time less its own bookkeeping (`flow.overhead_us`).
//! `frontend.parse` includes lexing: the parser lexes internally, so
//! `frontend.lex` is a separate `lexer::lex` call on the same source.

use vase::archgen::{synthesize_with_cache, CoverCache, SynthesisResult};
use vase::compiler::compile;
use vase::estimate::Estimator;
use vase::flow::{derive_constraints, synthesize_source_with_cache, FlowOptions};
use vase::frontend::{analyze, lexer, parse_design_file, parse_design_file_recovering};
use vase::vhif::{verify_design, PassManager, VhifDesign};

use crate::measure::Recorder;

/// Spans of the flow's own layers (lexing is an extra call, so it is
/// left out).
const FLOW_LAYERS: [&str; 7] = [
    "frontend.parse",
    "frontend.sema",
    "compiler.lower",
    "vhif.opt",
    "vhif.verify",
    "analyze.range",
    "archgen.map",
];

/// Time the flow's layers have recorded so far in the current
/// operation, µs.
pub fn flow_layer_time(rec: &Recorder) -> f64 {
    FLOW_LAYERS.iter().map(|n| rec.op_time(n)).sum()
}

/// One synthesized architecture: entity, mapping result.
pub type Synthesized = (String, SynthesisResult);

fn lex(rec: &mut Recorder, source: &str) -> Result<(), String> {
    let open = rec.begin("frontend.lex");
    let tokens = lexer::lex(source);
    rec.end(open);
    let tokens = tokens.map_err(|e| format!("lex: {e}"))?;
    rec.count("frontend.tokens", tokens.len() as f64);
    Ok(())
}

/// Front end and lowering: the analyzed design and its compiled
/// architectures.
fn front_and_lower(
    rec: &mut Recorder,
    source: &str,
) -> Result<
    (
        vase::frontend::AnalyzedDesign,
        vase::compiler::CompiledDesign,
    ),
    String,
> {
    lex(rec, source)?;
    let open = rec.begin("frontend.parse");
    let design = parse_design_file(source);
    rec.end(open);
    let design = design.map_err(|e| format!("parse: {e}"))?;
    let open = rec.begin("frontend.sema");
    let analyzed = analyze(&design);
    rec.end(open);
    let analyzed = analyzed.map_err(|e| format!("sema: {e}"))?;
    let open = rec.begin("compiler.lower");
    let compiled = compile(&analyzed);
    rec.end(open);
    let compiled = compiled.map_err(|e| format!("lower: {e}"))?;
    for arch in &compiled.designs {
        let stats = arch.lowering_stats();
        rec.count("compiler.blocks", stats.blocks as f64);
        rec.count("compiler.solver_variants", stats.solver_variants as f64);
        rec.count("compiler.candidates", arch.vhif.candidates.len() as f64);
    }
    Ok((analyzed, compiled))
}

fn range_analysis(rec: &mut Recorder, vhif: &mut VhifDesign) -> vase::analyze::AnalysisResult {
    let open = rec.begin("analyze.range");
    let result = vase::analyze::annotate_design_bounds(vhif);
    rec.end(open);
    rec.count("analyze.iterations", result.iterations as f64);
    result
}

/// The synthesis flow, layer by layer.
pub fn synth(
    rec: &mut Recorder,
    source: &str,
    options: &FlowOptions,
    cache: Option<&CoverCache>,
) -> Result<Vec<Synthesized>, String> {
    let (analyzed, compiled) = front_and_lower(rec, source)?;
    let mut out = Vec::new();
    for mut arch in compiled.designs {
        if options.opt_level > 0 {
            let open = rec.begin("vhif.opt");
            let stats = PassManager::for_opt_level(options.opt_level).run(&mut arch.vhif);
            rec.end(open);
            if let (Some(first), Some(last)) = (stats.first(), stats.last()) {
                let removed = first.blocks_before.saturating_sub(last.blocks_after);
                rec.count("vhif.opt_blocks_removed", removed as f64);
            }
        }
        let source_arch = analyzed.architecture_of(&arch.entity);
        if options.verify {
            let ctx = source_arch
                .map(vase::lint::verify_context)
                .unwrap_or_default();
            let open = rec.begin("vhif.verify");
            let diags = verify_design(&arch.vhif, &ctx);
            rec.end(open);
            let ranges = range_analysis(rec, &mut arch.vhif);
            if vase::diag::has_errors(&diags) || vase::diag::has_errors(&ranges.diagnostics) {
                return Err(format!("{}: verification rejected the design", arch.entity));
            }
        }
        let constraints = match source_arch {
            Some(a) if options.derive_constraints => derive_constraints(a, options.constraints),
            _ => options.constraints,
        };
        let estimator = Estimator::new(constraints);
        let open = rec.begin("archgen.map");
        let synthesis = synthesize_with_cache(&arch.vhif, &estimator, &options.mapper, None, cache);
        rec.end(open);
        let synthesis = synthesis.map_err(|e| format!("{}: map: {e}", arch.entity))?;
        let s = &synthesis.stats;
        rec.count("archgen.nodes_visited", s.visited_nodes as f64);
        rec.count(
            "archgen.nodes_pruned",
            (s.pruned_nodes + s.memo_pruned) as f64,
        );
        out.push((arch.entity, synthesis));
    }
    Ok(out)
}

/// One traced synthesis: the whole `synthesize_source_with_cache` call
/// (span `flow`) and the same work layer by layer, each with its own
/// cache; `flow.overhead` is the flow's time its layers do not account
/// for. The two alternate in order from one operation to the next, so
/// neither always runs with warm processor caches.
pub fn traced_synth(
    rec: &mut Recorder,
    source: &str,
    options: &FlowOptions,
    flow_cache: Option<&CoverCache>,
    layer_cache: Option<&CoverCache>,
) -> Result<Vec<Synthesized>, String> {
    let flow = |rec: &mut Recorder| {
        let open = rec.begin("flow");
        let result = synthesize_source_with_cache(source, options, flow_cache);
        let us = rec.end(open);
        result.map(|_| us).map_err(|e| e.to_string())
    };
    let flow_first = rec.op().is_multiple_of(2);
    let mut flow_us = if flow_first { flow(rec)? } else { 0.0 };
    let before = flow_layer_time(rec);
    let open = rec.begin("layered");
    let out = synth(rec, source, options, layer_cache);
    rec.end(open);
    let out = out?;
    let layer_us = flow_layer_time(rec) - before;
    if !flow_first {
        flow_us = flow(rec)?;
    }
    rec.add_time("flow.overhead", flow_us - layer_us);
    Ok(out)
}

/// Range analysis of every compiled architecture (the `analyze`
/// request), layer by layer.
pub fn analyze_ranges(rec: &mut Recorder, source: &str) -> Result<(), String> {
    let (_, compiled) = front_and_lower(rec, source)?;
    for mut arch in compiled.designs {
        let result = range_analysis(rec, &mut arch.vhif);
        if !result.converged || vase::diag::has_errors(&result.diagnostics) {
            return Err(format!(
                "{}: range analysis did not converge cleanly",
                arch.entity
            ));
        }
    }
    Ok(())
}

/// The `lint` request, layer by layer: the recovering parser, then the
/// same semantic, lowering, verifier and range stages as `lint_source`.
pub fn lint(rec: &mut Recorder, source: &str) -> Result<(), String> {
    lex(rec, source)?;
    let open = rec.begin("frontend.parse");
    let (design, errors) = parse_design_file_recovering(source);
    rec.end(open);
    if !errors.is_empty() {
        return Err(format!("lint: {} parse error(s)", errors.len()));
    }
    let open = rec.begin("frontend.sema");
    let analyzed = analyze(&design);
    rec.end(open);
    let analyzed = analyzed.map_err(|e| format!("sema: {e}"))?;
    let open = rec.begin("compiler.lower");
    let compiled = compile(&analyzed);
    rec.end(open);
    let compiled = compiled.map_err(|e| format!("lower: {e}"))?;
    for arch in &compiled.designs {
        let ctx = analyzed
            .architecture_of(&arch.entity)
            .map(vase::lint::verify_context)
            .unwrap_or_default();
        let open = rec.begin("vhif.verify");
        let diags = verify_design(&arch.vhif, &ctx);
        rec.end(open);
        let actx = vase::analyze::AnalysisContext::from_design(&arch.vhif);
        let open = rec.begin("analyze.range");
        let result = vase::analyze::analyze_design(&arch.vhif, &actx);
        rec.end(open);
        rec.count("analyze.iterations", result.iterations as f64);
        if !diags.is_empty() || !result.diagnostics.is_empty() {
            return Err(format!("{}: lint is not clean", arch.entity));
        }
    }
    Ok(())
}
