//! Integration-level properties of the search engine on *real* noisy
//! transcripts (not synthetic token soup): exactness of BDB, top-k ordering,
//! and the advertised behaviour of the approximate modes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use speakql_asr::{AsrEngine, AsrProfile, Vocabulary};
use speakql_bench::experiments::inv::InvertedIndex;
use speakql_data::{employees_db, generate_cases};
use speakql_editdist::Weights;
use speakql_grammar::{process_transcript_text, GeneratorConfig};
use speakql_index::{SearchConfig, StructureIndex};

fn fixture() -> &'static (StructureIndex, Vec<String>) {
    static F: std::sync::OnceLock<(StructureIndex, Vec<String>)> = std::sync::OnceLock::new();
    F.get_or_init(|| {
        let cfg = GeneratorConfig::small();
        let index = StructureIndex::from_grammar(&cfg, Weights::PAPER);
        let db = employees_db();
        let cases = generate_cases(&db, &cfg, 40, 0xF00D);
        let asr = AsrEngine::new(AsrProfile::acs_trained(), Vocabulary::empty());
        let transcripts = cases
            .iter()
            .map(|c| {
                let mut rng = ChaCha8Rng::seed_from_u64(c.id as u64);
                asr.transcribe_sql(&c.sql, &mut rng)
            })
            .collect();
        (index, transcripts)
    })
}

#[test]
fn default_search_is_exact_on_noisy_transcripts() {
    let (index, transcripts) = fixture();
    for t in transcripts {
        let p = process_transcript_text(t);
        for k in [1usize, 5] {
            let cfg = SearchConfig {
                k,
                ..SearchConfig::default()
            };
            assert_eq!(
                index.search(&p.masked, &cfg),
                index.scan(&p.masked, k),
                "trie search must equal brute force on {t}"
            );
        }
    }
}

#[test]
fn inv_returns_subset_quality() {
    // INV restricts the candidate set: its best hit can never beat the
    // exact search, and when the exact best carries a rare keyword INV
    // finds the same structure.
    let (index, transcripts) = fixture();
    let inverted = InvertedIndex::build(index);
    for t in transcripts {
        let p = process_transcript_text(t);
        let exact = index.search(&p.masked, &SearchConfig::default());
        let (inv, _) = inverted.search(&p.masked, &SearchConfig::default());
        if let (Some(e), Some(i)) = (exact.first(), inv.first()) {
            assert!(i.distance >= e.distance, "INV cannot beat exact search");
        }
    }
}

#[test]
fn dap_reduces_total_nodes_visited() {
    // DAP's prime prepass advances each prime child's column once *extra*
    // to pick the best branch, so on a transcript where the banded descend
    // bound has already pruned the non-chosen primes' subtrees, DAP can
    // visit a handful more nodes than the default walk. The heuristic's
    // contract is aggregate work reduction on real noisy transcripts, so
    // that is what we assert — strictly, and by a wide margin (the fixture
    // currently shows ~3x).
    let (index, transcripts) = fixture();
    let (mut default_total, mut dap_total) = (0u64, 0u64);
    for t in transcripts {
        let p = process_transcript_text(t);
        let (_, d_stats) = index.search_with_stats(&p.masked, &SearchConfig::default());
        let (_, dap_stats) = index.search_with_stats(
            &p.masked,
            &SearchConfig {
                dap: true,
                ..Default::default()
            },
        );
        default_total += d_stats.nodes_visited;
        dap_total += dap_stats.nodes_visited;
    }
    assert!(
        dap_total * 2 < default_total,
        "DAP must at least halve total nodes visited: dap={dap_total} default={default_total}"
    );
}

#[test]
fn bdb_prunes_but_preserves_results_at_scale() {
    let (index, transcripts) = fixture();
    let mut total_pruned = 0u64;
    for t in transcripts {
        let p = process_transcript_text(t);
        let (with, s1) = index.search_with_stats(&p.masked, &SearchConfig::default());
        let (without, _) = index.search_with_stats(
            &p.masked,
            &SearchConfig {
                bdb: false,
                ..Default::default()
            },
        );
        assert_eq!(with, without);
        total_pruned += s1.tries_pruned as u64;
    }
    assert!(
        total_pruned > 0,
        "BDB never pruned anything across 40 real transcripts"
    );
}
