//! Beyond the paper: the future-work features in action.
//!
//! Section 7 of the paper names three directions; this example runs all of
//! them on one corpus:
//!
//! 1. **other semantic distances** — re-ranking RDS results with the
//!    information-content family (Resnik, Lin, Jiang–Conrath, Wu–Palmer);
//! 2. **non-is-a / weighted edges** — the same query under unit weights
//!    and under a weighting that penalizes shallow (generic) edges, via
//!    the Dijkstra-frontier `WeightedKnds`;
//! 3. **combining with IR-style retrieval** — ontology-based query
//!    expansion with normalized score merging (footnote 3).
//!
//! ```sh
//! cargo run --release --example beyond_the_paper
//! ```

use cbr_corpus::{CorpusGenerator, CorpusProfile, FilterConfig};
use cbr_index::SegmentedView;
use cbr_knds::{KndsConfig, WeightedKnds};
use cbr_ontology::EdgeWeights;
use concept_rank::prelude::*;
use concept_rank::{EngineBuilder, ExpansionConfig, Measure};

fn main() {
    let ontology = OntologyGenerator::new(GeneratorConfig::snomed_like(6_000)).generate();
    let corpus = CorpusGenerator::new(
        &ontology,
        CorpusProfile::radio_like().with_num_docs(400).with_mean_concepts(18.0),
    )
    .generate();

    // Keep copies for the weighted engine (the facade owns its inputs).
    let ont2 = OntologyGenerator::new(GeneratorConfig::snomed_like(6_000)).generate();
    let source = SegmentedView::from_corpus(&corpus);

    let engine = EngineBuilder::new().filter(FilterConfig::default()).build(ontology, corpus);
    let query: Vec<ConceptId> = engine
        .corpus()
        .documents()
        .find(|d| d.num_concepts() >= 3)
        .map(|d| d.concepts()[..3].to_vec())
        .expect("non-trivial document");
    println!("query concepts:");
    for &c in &query {
        println!("  - {}", engine.ontology().label(c));
    }

    // 1. IC-based re-ranking.
    let hits = engine.rds(&query, 8).expect("query non-empty");
    println!("\nshortest-path ranking, then re-scored per measure:");
    println!("{:<8} {:>8} {:>9} {:>7} {:>7} {:>9}", "doc", "Ddq", "Resnik", "Lin", "WuP", "JC-sim");
    let sim = engine.semantic_similarity();
    for hit in &hits.results {
        let score = |m: Measure| {
            let doc = engine.document_concepts(hit.doc).unwrap();
            concept_rank::rerank::best_match_average(&sim, m, &doc, &query)
        };
        println!(
            "{:<8} {:>8} {:>9.2} {:>7.2} {:>7.2} {:>9.2}",
            hit.doc.to_string(),
            hit.distance,
            score(Measure::Resnik),
            score(Measure::Lin),
            score(Measure::WuPalmer),
            score(Measure::JiangConrath),
        );
    }
    let lin_order = engine.rerank(&hits.results, &query, Measure::Lin).unwrap();
    println!("top document under Lin: {} (score {:.3})", lin_order[0].doc, lin_order[0].score);

    // 2. Weighted edges: penalize edges leaving shallow, generic concepts.
    let unit = EdgeWeights::uniform(&ont2);
    let generic_penalty = EdgeWeights::from_fn(&ont2, |p, _| if ont2.depth(p) < 3 { 4 } else { 1 });
    let cfg = KndsConfig::default().with_error_threshold(0.9);
    let plain = WeightedKnds::new(&ont2, &unit, &source, cfg.clone()).rds(&query, 5);
    let weighted = WeightedKnds::new(&ont2, &generic_penalty, &source, cfg).rds(&query, 5);
    println!("\nweighted-edge search (penalty 4 on edges out of depth < 3):");
    println!("{:<8} {:>12} {:>14}", "rank", "unit Ddq", "weighted Ddq");
    for (i, (a, b)) in plain.results.iter().zip(weighted.results.iter()).enumerate() {
        println!("{:<8} {:>12} {:>14}", i + 1, a.distance, b.distance);
    }

    // 3. Query expansion.
    let cfg = ExpansionConfig { radius: 2, max_substitutes: 2, max_variants: 10 };
    let (expanded, nvars) = engine.rds_expanded(&query, 5, &cfg).unwrap();
    println!("\nexpanded retrieval ({nvars} variants, normalized distances):");
    for hit in &expanded {
        println!("  {}  {:.3}", hit.doc, hit.distance);
    }
}
