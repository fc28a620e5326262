//! Shared experiment context: dataset, structure index, engines, ASR
//! profiles. Built once per `experiments` invocation and shared by every
//! table/figure reproduction.

use speakql_asr::{AsrEngine, AsrProfile, Vocabulary};
use speakql_core::{SpeakQl, SpeakQlConfig};
use speakql_data::SpokenSqlDataset;
use speakql_editdist::Weights;
use speakql_grammar::GeneratorConfig;
use speakql_index::StructureIndex;
use std::sync::Arc;

/// Experiment scale. Controls the structure-space size and dataset sizes so
/// the full suite can run on commodity hardware; `Paper` matches §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: smoke-test scale (CI).
    Small,
    /// Default: ~200k structures, 150/100/100 queries.
    Medium,
    /// The paper's scale: ≈1.6M structures, 750/500/500 queries.
    Paper,
}

impl Scale {
    /// Read from `SPEAKQL_SCALE` (small|medium|paper); default medium.
    pub fn from_env() -> Scale {
        match std::env::var("SPEAKQL_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("paper") => Scale::Paper,
            _ => Scale::Medium,
        }
    }

    /// The structure-generator configuration for this scale.
    pub fn generator(self) -> GeneratorConfig {
        match self {
            Scale::Small => GeneratorConfig::small(),
            Scale::Medium => GeneratorConfig::medium(),
            Scale::Paper => GeneratorConfig::paper(),
        }
    }

    /// (train, employees-test, yelp-test) sizes.
    pub fn dataset_sizes(self) -> (usize, usize, usize) {
        match self {
            Scale::Small => (40, 25, 25),
            Scale::Medium => (150, 100, 100),
            Scale::Paper => (750, 500, 500),
        }
    }
}

/// Everything the experiments need, built once.
pub struct Context {
    pub scale: Scale,
    pub dataset: SpokenSqlDataset,
    pub index: Arc<StructureIndex>,
    pub employees_engine: SpeakQl,
    pub yelp_engine: SpeakQl,
    /// Azure Custom Speech, custom-trained on the Employees training split.
    pub asr_trained: AsrEngine,
    /// Google Cloud Speech with hints, no custom vocabulary (App. F.3).
    pub asr_gcs: AsrEngine,
}

impl Context {
    /// Build the dataset, shared index, engines, and ASR profiles for
    /// `scale` (the expensive, run-once setup every experiment shares).
    pub fn new(scale: Scale) -> Context {
        let gen_cfg = scale.generator();
        let (train, etest, ytest) = scale.dataset_sizes();
        eprintln!("[context] generating dataset (scale {scale:?}) ...");
        let dataset = SpokenSqlDataset::with_sizes(&gen_cfg, train, etest, ytest);
        eprintln!("[context] building structure index ...");
        let config = SpeakQlConfig {
            generator: gen_cfg,
            ..SpeakQlConfig::paper()
        };
        let index = Arc::new(StructureIndex::from_grammar(
            &config.generator,
            Weights::PAPER,
        ));
        eprintln!(
            "[context] index: {} structures, {} trie nodes",
            index.len(),
            index.total_nodes()
        );
        let employees_engine =
            SpeakQl::with_index(&dataset.employees, Arc::clone(&index), config.clone());
        let yelp_engine = SpeakQl::with_index(&dataset.yelp, Arc::clone(&index), config);
        let asr_trained = AsrEngine::new(AsrProfile::acs_trained(), dataset.vocabulary.clone());
        let asr_gcs = AsrEngine::new(AsrProfile::gcs(), Vocabulary::empty());
        Context {
            scale,
            dataset,
            index,
            employees_engine,
            yelp_engine,
            asr_trained,
            asr_gcs,
        }
    }

    /// Deterministic per-case RNG seed.
    pub fn case_seed(split: &str, case_id: usize) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in split.bytes().chain(case_id.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}
