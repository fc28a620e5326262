//! Extension experiments beyond the paper's figures:
//!
//! - **weights ablation**: is the class-weighted edit distance (W_K > W_S >
//!   W_L) actually better than uniform weights? The paper asserts "it is the
//!   ordering that matters" — we measure it, including the inverted ordering
//!   the conclusion's future work hints at (de-emphasizing structure).
//! - **scaling study**: structure accuracy and latency as the enumerated
//!   structure space grows — the accuracy/latency axis the paper's 50-token
//!   cap implicitly picks a point on.

use crate::report::{print_table, save_json};
use crate::suite::Suite;
use serde_json::json;
use speakql_editdist::{token_edit_distance, Weights};
use speakql_grammar::{process_transcript_text, GeneratorConfig};
use speakql_index::{SearchConfig, StructureIndex};
use speakql_metrics::Cdf;
use std::time::Instant;

/// Weights ablation: exact-structure rate under different weight orderings.
pub fn ablation_weights(suite: &Suite) {
    println!("== Extension: edit-distance weight ablation ==");
    let runs = suite.employees_test();
    let gen_cfg = suite.ctx.scale.generator();
    let variants: [(&str, Weights); 4] = [
        ("paper (K>S>L)", Weights::PAPER),
        ("uniform", Weights::UNIFORM),
        (
            "inverted (L>S>K)",
            Weights {
                keyword: 10,
                splchar: 11,
                literal: 12,
            },
        ),
        (
            "strong (K≫L)",
            Weights {
                keyword: 20,
                splchar: 15,
                literal: 10,
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut payload = serde_json::Map::new();
    for (name, w) in variants {
        let index = StructureIndex::from_grammar(&gen_cfg, w);
        let cfg = SearchConfig::default();
        let mut exact = 0usize;
        let mut ted_sum = 0usize;
        for r in runs {
            let p = process_transcript_text(&r.transcript);
            let hits = index.search(&p.masked, &cfg);
            let ted = hits
                .first()
                .map(|h| {
                    token_edit_distance(&r.gt_structure.tokens, index.structure_tokens(h.structure))
                })
                .unwrap_or(r.gt_structure.len());
            if ted == 0 {
                exact += 1;
            }
            ted_sum += ted;
        }
        let exact_pct = 100.0 * exact as f64 / runs.len() as f64;
        let mean_ted = ted_sum as f64 / runs.len() as f64;
        rows.push(vec![
            name.to_string(),
            format!("{exact_pct:.1}%"),
            format!("{mean_ted:.2}"),
        ]);
        payload.insert(
            name.to_string(),
            json!({"exact_pct": exact_pct, "mean_ted": mean_ted}),
        );
    }
    print_table(
        &["weighting", "exact structures", "mean structure TED"],
        &rows,
    );
    println!("(the paper's ordering should lead; inverted ordering should trail)");
    save_json("ablation_weights", &serde_json::Value::Object(payload));
}

/// The deterministic-parsing baseline (paper §3.2: "deterministic parsing
/// will almost always fail"): how many raw masked transcripts parse under
/// the Box 1 grammar, vs how many structures SpeakQL's search recovers.
pub fn baseline_parsing(suite: &Suite) {
    println!("== Extension: deterministic and error-correcting parsing baselines (paper §3.2) ==");
    let runs = suite.employees_test();
    let index = suite.ctx.index.as_ref();
    let mut raw_parses = 0usize;
    let mut corrected_parses = 0usize;
    let mut speakql_exact = 0usize;
    let mut parse_time = 0.0f64;
    let mut search_time = 0.0f64;
    let mut agree = 0usize;
    for r in runs {
        let p = process_transcript_text(&r.transcript);
        if speakql_grammar::recognize(&p.masked) {
            raw_parses += 1;
        }
        if let Some(s) = &r.top1_structure {
            if speakql_grammar::recognize(&s.tokens) {
                corrected_parses += 1;
            }
        }
        if r.structure_ted == 0 {
            speakql_exact += 1;
        }
        // Error-correcting parse (the abandoned approach) vs trie search:
        // compare minimum distances and latency.
        let t0 = Instant::now();
        let parse_d = speakql_grammar::min_parse_distance(&p.masked, (12, 11, 10));
        parse_time += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let hits = index.search(&p.masked, &SearchConfig::default());
        search_time += t1.elapsed().as_secs_f64();
        if let Some(h) = hits.first() {
            if h.distance == parse_d {
                agree += 1;
            }
        }
    }
    let n = runs.len() as f64;
    let rows = vec![
        vec![
            "raw transcript parses (deterministic baseline)".to_string(),
            format!("{:.1}%", 100.0 * raw_parses as f64 / n),
        ],
        vec![
            "SpeakQL output parses (valid by construction)".to_string(),
            format!("{:.1}%", 100.0 * corrected_parses as f64 / n),
        ],
        vec![
            "SpeakQL recovers the exact structure".to_string(),
            format!("{:.1}%", 100.0 * speakql_exact as f64 / n),
        ],
    ];
    print_table(&["outcome", "fraction"], &rows);
    println!("(a raw parse success does not even imply the *right* structure — only a valid one)");
    println!(
        "error-correcting Earley parse: mean {:.2} ms/query vs trie search {:.2} ms/query ({:.0}x slower); \
         min-distance agreement with the enumerated space: {:.0}%",
        1000.0 * parse_time / n,
        1000.0 * search_time / n,
        parse_time / search_time.max(1e-12),
        100.0 * agree as f64 / n,
    );
    println!("(the paper abandoned parsing because it \"was slower\" — quantified above)");
    save_json(
        "baseline_parsing",
        &json!({
            "raw_parse_pct": 100.0 * raw_parses as f64 / n,
            "corrected_parse_pct": 100.0 * corrected_parses as f64 / n,
            "speakql_exact_pct": 100.0 * speakql_exact as f64 / n,
            "error_parse_ms": 1000.0 * parse_time / n,
            "trie_search_ms": 1000.0 * search_time / n,
            "distance_agreement_pct": 100.0 * agree as f64 / n,
        }),
    );
}

/// Phonetic-algorithm ablation (App. F.7 asks how much the phonetic
/// representation buys over string matching): literal recall with the
/// ground-truth structure fixed, under Metaphone / Soundex / raw-string
/// keys. Isolates Literal Determination from structure errors.
pub fn ablation_phonetics(suite: &Suite) {
    use speakql_core::{LiteralConfig, LiteralFinder, PhoneticCatalog};
    use speakql_phonetics::PhoneticAlgorithm;
    println!("== Extension: phonetic-algorithm ablation (literal determination only) ==");
    let runs = suite.employees_test();
    let db = &suite.ctx.dataset.employees;
    let mut rows = Vec::new();
    let mut payload = serde_json::Map::new();
    for (name, algo) in [
        ("Metaphone (paper)", PhoneticAlgorithm::Metaphone),
        ("NYSIIS", PhoneticAlgorithm::Nysiis),
        ("Soundex", PhoneticAlgorithm::Soundex),
        ("raw string", PhoneticAlgorithm::Identity),
    ] {
        let catalog = PhoneticCatalog::build_with(db, algo);
        let finder = LiteralFinder::new(&catalog, LiteralConfig::default());
        let mut hit = 0usize;
        let mut total = 0usize;
        for r in runs {
            let p = process_transcript_text(&r.transcript);
            let filled = finder.fill_aligned(&p.words, &p.masked, &r.gt_structure, Weights::PAPER);
            for (f, gt) in filled.iter().zip(&r.gt_literals) {
                total += 1;
                if f.literal.eq_ignore_ascii_case(gt) {
                    hit += 1;
                }
            }
        }
        let recall = 100.0 * hit as f64 / total.max(1) as f64;
        rows.push(vec![name.to_string(), format!("{recall:.1}%")]);
        payload.insert(name.to_string(), json!(recall));
    }
    print_table(&["phonetic keys", "literal recall (gt structure)"], &rows);
    println!("(App. F.7: the phonetic representation retrieves literals string matching misses)");
    save_json("ablation_phonetics", &serde_json::Value::Object(payload));
}

/// Channel self-calibration: realized error rates of the simulated ASR
/// channel over the whole test workload, against its configured profile.
/// Substantiates the DESIGN.md claim that the channel reproduces the
/// Table 1 error taxonomy at the configured rates.
pub fn channel_calibration(suite: &Suite) {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use speakql_asr::{ChannelEvent, ChannelTrace};
    println!("== Extension: simulated-ASR channel calibration ==");
    let asr = &suite.ctx.asr_trained;
    let mut trace = ChannelTrace::default();
    for case in &suite.ctx.dataset.employees_test {
        let mut rng =
            ChaCha8Rng::seed_from_u64(crate::context::Context::case_seed("calib", case.id));
        let (_, t) = asr.transcribe_sql_traced(&case.sql, &mut rng);
        trace.merge(&t);
    }
    let p = &asr.profile;
    let rows = vec![
        vec![
            "splchar emitted as symbol".to_string(),
            format!(
                "{:.3}",
                trace.rate(ChannelEvent::SplCharAsSymbol, ChannelEvent::SplCharAsWords)
            ),
            format!("{:.3}", p.splchar_symbol_rate),
        ],
        vec![
            "known literal recombined".to_string(),
            format!(
                "{:.3}",
                trace.rate(
                    ChannelEvent::LiteralRecombined,
                    ChannelEvent::LiteralWordCorrupted
                )
            ),
            "(vs corrupted words; configured per-word)".to_string(),
        ],
        vec![
            "number transcribed correctly".to_string(),
            {
                let ok = trace.count(ChannelEvent::NumberCorrect) as f64;
                let bad = (trace.count(ChannelEvent::NumberSplit)
                    + trace.count(ChannelEvent::NumberDigitError)) as f64;
                format!("{:.3}", ok / (ok + bad).max(1.0))
            },
            format!("{:.3}", p.number_correct),
        ],
        vec![
            "date recombined correctly".to_string(),
            format!(
                "{:.3}",
                trace.rate(ChannelEvent::DateCorrect, ChannelEvent::DateFragmented)
            ),
            format!("{:.3}", p.date_correct),
        ],
    ];
    print_table(&["channel behaviour", "realized", "configured"], &rows);
    let counts: Vec<(&str, u64)> = vec![
        (
            "keyword corruptions",
            trace.count(ChannelEvent::KeywordCorrupted),
        ),
        (
            "splchars as words",
            trace.count(ChannelEvent::SplCharAsWords),
        ),
        (
            "literal recombinations",
            trace.count(ChannelEvent::LiteralRecombined),
        ),
        (
            "literal word corruptions",
            trace.count(ChannelEvent::LiteralWordCorrupted),
        ),
        ("number splits", trace.count(ChannelEvent::NumberSplit)),
        (
            "number digit errors",
            trace.count(ChannelEvent::NumberDigitError),
        ),
        (
            "date fragmentations",
            trace.count(ChannelEvent::DateFragmented),
        ),
        ("word drops", trace.count(ChannelEvent::WordDropped)),
    ];
    println!("realized error mix over the test split (Table 1 taxonomy):");
    for (label, c) in &counts {
        println!("  {label:<26} {c}");
    }
    save_json(
        "channel_calibration",
        &json!(counts
            .iter()
            .map(|(l, c)| json!({"event": l, "count": c}))
            .collect::<Vec<_>>()),
    );
}

/// Scaling study: accuracy/latency as the structure space grows.
pub fn scaling(suite: &Suite) {
    println!("== Extension: structure-space scaling study ==");
    let runs = suite.employees_test();
    let sizes: &[usize] = match suite.ctx.scale {
        crate::context::Scale::Small => &[5_000, 20_000, 50_000],
        _ => &[20_000, 50_000, 100_000, 200_000, 400_000],
    };
    let mut rows = Vec::new();
    let mut payload = serde_json::Map::new();
    for &cap in sizes {
        let cfg = GeneratorConfig {
            max_structures: Some(cap),
            ..GeneratorConfig::paper()
        };
        let index = StructureIndex::from_grammar(&cfg, Weights::PAPER);
        let search_cfg = SearchConfig::default();
        let mut exact = 0usize;
        let mut lats = Vec::with_capacity(runs.len());
        for r in runs {
            let p = process_transcript_text(&r.transcript);
            let start = Instant::now();
            let hits = index.search(&p.masked, &search_cfg);
            lats.push(start.elapsed().as_secs_f64());
            let ted = hits
                .first()
                .map(|h| {
                    token_edit_distance(&r.gt_structure.tokens, index.structure_tokens(h.structure))
                })
                .unwrap_or(usize::MAX);
            if ted == 0 {
                exact += 1;
            }
        }
        let lat = Cdf::new(lats);
        let exact_pct = 100.0 * exact as f64 / runs.len() as f64;
        rows.push(vec![
            format!("{}", index.len()),
            format!("{}", index.total_nodes()),
            format!("{exact_pct:.1}%"),
            format!("{:.4}s", lat.median()),
            format!("{:.4}s", lat.percentile(0.99)),
        ]);
        payload.insert(
            cap.to_string(),
            json!({
                "structures": index.len(),
                "nodes": index.total_nodes(),
                "exact_pct": exact_pct,
                "latency_median_s": lat.median(),
                "latency_p99_s": lat.percentile(0.99),
            }),
        );
    }
    print_table(
        &[
            "structures",
            "trie nodes",
            "exact structures",
            "median latency",
            "p99 latency",
        ],
        &rows,
    );
    println!("(accuracy climbs with coverage; latency grows sub-linearly thanks to BDB + pruning)");
    save_json("scaling", &serde_json::Value::Object(payload));
}

/// Timed `transcribe_batch` runs per width in [`thread_scaling`].
const SCALING_RUNS: usize = 5;

/// Thread-scaling study: batch transcription throughput as the engine's
/// one thread knob ([`speakql_core::SpeakQlConfig::threads`], the
/// `transcribe_batch` pool) grows, against the single-thread baseline.
/// Each transcription runs whole on one worker, so outputs are identical
/// at every width and this is a pure throughput axis. One untimed pass
/// warms the shared index first; each width then reports the median of
/// five runs with their min and max, and its speedup is a ratio of
/// medians.
pub fn thread_scaling(suite: &Suite) {
    println!("== Extension: thread-scaling study ==");
    let runs = suite.employees_test();
    let transcripts: Vec<&str> = runs.iter().map(|r| r.transcript.as_str()).collect();
    let engine = |threads: usize| {
        speakql_core::SpeakQl::with_index(
            &suite.ctx.dataset.employees,
            std::sync::Arc::clone(&suite.ctx.index),
            speakql_core::SpeakQlConfig {
                generator: suite.ctx.scale.generator(),
                ..speakql_core::SpeakQlConfig::paper()
            }
            .with_threads(threads),
        )
    };
    std::hint::black_box(engine(1).transcribe_batch(&transcripts));

    let mut rows = Vec::new();
    let mut payload = serde_json::Map::new();
    let mut batch_base = 0.0f64;
    for n in [1usize, 2, 4, 8] {
        let engine = engine(n);
        let mut times: Vec<f64> = (0..SCALING_RUNS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(engine.transcribe_batch(&transcripts));
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let (batch_s, min_s, max_s) = (times[SCALING_RUNS / 2], times[0], times[SCALING_RUNS - 1]);

        if n == 1 {
            batch_base = batch_s;
        }
        let batch_x = batch_base / batch_s;
        rows.push(vec![
            format!("{n}"),
            format!("{batch_s:.3}s"),
            format!("{min_s:.3}–{max_s:.3}s"),
            format!("{batch_x:.2}x"),
        ]);
        payload.insert(
            n.to_string(),
            json!({
                "batch_s": batch_s,
                "batch_s_min": min_s,
                "batch_s_max": max_s,
                "runs": SCALING_RUNS,
                "batch_speedup": batch_x,
            }),
        );
    }
    print_table(
        &["threads", "batch median", "batch min–max", "batch speedup"],
        &rows,
    );
    println!(
        "(batch transcription is embarrassingly parallel: one transcription per worker at a time)"
    );
    save_json("thread_scaling", &serde_json::Value::Object(payload));
}
