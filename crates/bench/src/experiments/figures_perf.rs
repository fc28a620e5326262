//! Performance-figure reproductions: Fig. 14 (Structure Determination
//! latency CDF) and Fig. 15 (ablation of BDB / DAP / INV).

use super::inv::InvertedIndex;
use crate::report::{print_cdf, save_json};
use crate::suite::Suite;
use serde_json::json;
use speakql_editdist::token_edit_distance;
use speakql_grammar::process_transcript_text;
use speakql_index::SearchConfig;
use speakql_metrics::Cdf;
use std::time::Instant;

/// Fig. 14 (App. D): CDF of Structure Determination latency.
pub fn fig14(suite: &Suite) {
    println!("== Fig. 14: structure-determination latency CDF ==");
    let runs = suite.employees_test();
    let index = suite.ctx.index.as_ref();
    let cfg = SearchConfig {
        k: 5,
        ..SearchConfig::default()
    };
    let mut lat = Vec::with_capacity(runs.len());
    for r in runs {
        let p = process_transcript_text(&r.transcript);
        let start = Instant::now();
        let hits = index.search(&p.masked, &cfg);
        lat.push(start.elapsed().as_secs_f64());
        std::hint::black_box(hits);
    }
    let cdf = Cdf::new(lat);
    print_cdf("structure latency (s)", &cdf, 10);
    println!(
        "median {:.4}s  p99 {:.4}s  (paper: <1.5 s for 99% of queries)",
        cdf.median(),
        cdf.percentile(0.99)
    );
    save_json(
        "fig14",
        &json!({"latency_s": {
            "median": cdf.median(), "p90": cdf.percentile(0.9), "p99": cdf.percentile(0.99),
            "series": cdf.series(20),
        }}),
    );
}

/// Fig. 15: ablation study of the search optimizations. (A) accuracy
/// (structure TED CDF); (B) runtime CDF. BDB must be exactly
/// accuracy-preserving; DAP and INV trade accuracy for latency. INV runs
/// through [`InvertedIndex`], whose posting lists are built here, untimed.
pub fn fig15(suite: &Suite) {
    println!("== Fig. 15: structure-search ablation ==");
    let runs = suite.employees_test();
    let index = suite.ctx.index.as_ref();
    let default = SearchConfig::default();
    let dap = SearchConfig {
        dap: true,
        ..default
    };
    // (name, search configuration, through INV)
    let configs: [(&str, SearchConfig, bool); 5] = [
        ("Default (BDB)", default, false),
        (
            "Default - BDB",
            SearchConfig {
                bdb: false,
                ..default
            },
            false,
        ),
        ("Default + DAP", dap, false),
        ("Default + INV", default, true),
        ("Default + DAP + INV", dap, true),
    ];
    let inv = InvertedIndex::build(index);
    let mut payload = serde_json::Map::new();
    let mut default_exact = None;
    for (name, cfg, through_inv) in configs {
        let mut teds = Vec::with_capacity(runs.len());
        let mut lats = Vec::with_capacity(runs.len());
        let mut nodes = 0u64;
        for r in runs {
            let p = process_transcript_text(&r.transcript);
            let start = Instant::now();
            let (hits, work) = if through_inv {
                let (hits, work) = inv.search(&p.masked, &cfg);
                (hits, work.units())
            } else {
                let (hits, stats) = index.search_with_stats(&p.masked, &cfg);
                (hits, stats.nodes_visited)
            };
            lats.push(start.elapsed().as_secs_f64());
            nodes += work;
            let ted = hits
                .first()
                .map(|h| {
                    token_edit_distance(&r.gt_structure.tokens, index.structure_tokens(h.structure))
                })
                .unwrap_or(r.gt_structure.len());
            teds.push(ted as f64);
        }
        let ted_cdf = Cdf::new(teds);
        let lat_cdf = Cdf::new(lats);
        let exact = ted_cdf.fraction_at(0.0);
        if name == "Default (BDB)" {
            default_exact = Some(exact);
        }
        println!(
            "{name:<22} exact-structure {:>5.1}%  median latency {:.5}s  mean nodes/query {:>9.0}",
            100.0 * exact,
            lat_cdf.median(),
            nodes as f64 / runs.len() as f64
        );
        payload.insert(
            name.to_string(),
            json!({
                "exact_structure_fraction": exact,
                "ted_median": ted_cdf.median(),
                "latency_median_s": lat_cdf.median(),
                "latency_p90_s": lat_cdf.percentile(0.9),
                "mean_nodes": nodes as f64 / runs.len() as f64,
                "ted_series": ted_cdf.series(12),
                "latency_series": lat_cdf.series(12),
            }),
        );
    }
    if let Some(e) = default_exact {
        println!(
            "(paper: Default ≈86% exact; +DAP+INV drops to ~21%; BDB saves ~2x runtime, DAP ~3.5x, INV ~1.7x; default exact here {:.1}%)",
            100.0 * e
        );
    }
    save_json("fig15", &serde_json::Value::Object(payload));
}
