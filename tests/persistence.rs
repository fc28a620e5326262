//! Persistence integration: an engine built around a saved-and-reloaded
//! structure index must behave identically to the original, the binary
//! format must round-trip arbitrary structure arenas, and corrupt input
//! must surface a [`PersistError`] rather than panic.

use proptest::prelude::*;
use speakql_core::{CounterId, SpeakQl, SpeakQlConfig, SpeakQlError};
use speakql_data::employees_db;
use speakql_editdist::Weights;
use speakql_grammar::{GeneratorConfig, LitCategory, Placeholder, StructTokId, Structure};
use speakql_index::{
    from_bytes, from_shared, save_to_path, to_bytes, PersistError, SearchConfig, StructureIndex,
};
use std::sync::Arc;

#[test]
fn reloaded_index_drives_identical_engine() {
    let cfg = GeneratorConfig {
        max_structures: Some(5_000),
        ..GeneratorConfig::small()
    };
    let index = StructureIndex::from_grammar(&cfg, Weights::PAPER);

    let dir = std::env::temp_dir().join("speakql-it-persist");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.sqlx");
    save_to_path(&index, &path).expect("save");

    let db = employees_db();
    let engine_cfg = SpeakQlConfig {
        generator: cfg,
        ..SpeakQlConfig::paper()
    };
    let original = SpeakQl::with_index(&db, Arc::new(index), engine_cfg.clone());
    // The restored engine goes through the engine-level persisted-index
    // entry point, i.e. the zero-copy validate-then-borrow load path, and
    // observes: recording must not change a single answer.
    let restored = SpeakQl::with_persisted_index(&db, &path, engine_cfg.with_observability(true))
        .expect("load persisted index into engine");
    std::fs::remove_file(&path).ok();
    // The engine counts its one load and every segment the load validated.
    let report = restored.report();
    assert_eq!(report.counter(CounterId::IndexLoadZeroCopy), 1);
    assert_eq!(
        report.counter(CounterId::IndexLoadSegments),
        restored.index().segment_count() as u64
    );

    for transcript in [
        "select salary from salaries",
        "select sales from employers wear first name equals jon",
        "select sum open parenthesis salary close parenthesis from celeries where from date equals january twentieth nineteen ninety three",
        "select star from titles where title equals engineer limit ten",
    ] {
        let a = original.transcribe(transcript).expect("transcribe original");
        let b = restored.transcribe(transcript).expect("transcribe restored");
        assert_eq!(a.best_sql(), b.best_sql(), "mismatch on: {transcript}");
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(ca.sql, cb.sql);
            assert_eq!(ca.distance, cb.distance);
        }
    }
}

#[test]
fn persisted_file_size_is_compact() {
    let cfg = GeneratorConfig {
        max_structures: Some(5_000),
        ..GeneratorConfig::small()
    };
    let index = StructureIndex::from_grammar(&cfg, Weights::PAPER);
    let bytes = speakql_index::to_bytes(&index).expect("serialize");
    // The image carries the trie node planes (13 bytes/node) alongside
    // the ~20-30 bytes/structure arena, trading bytes at rest for a
    // zero-copy load; certainly under 128 per structure.
    assert!(
        bytes.len() < 5_000 * 128,
        "{} bytes for 5000 structures",
        bytes.len()
    );
    // And the arena reconstructs identically.
    let reloaded = speakql_index::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(reloaded.len(), index.len());
    for id in 0..index.len() as u32 {
        assert_eq!(reloaded.structure(id), index.structure(id));
    }
}

/// One random but well-formed structure: tokens over the full alphabet with
/// placeholder metadata matching the `Var` count. A pool of placeholders is
/// drawn alongside the tokens and truncated to the realized `Var` count;
/// governors stay below the `u16::MAX` sentinel the format reserves for
/// "none".
fn arb_structure() -> impl Strategy<Value = Structure> {
    let placeholder = (
        prop_oneof![
            Just(LitCategory::Table),
            Just(LitCategory::Attribute),
            Just(LitCategory::Value),
            Just(LitCategory::Number),
        ],
        prop::option::of(0u16..u16::MAX),
    )
        .prop_map(|(category, governor)| Placeholder { category, governor });
    (
        prop::collection::vec(0u8..28, 1..14),
        prop::collection::vec(placeholder, 14..15),
    )
        .prop_map(|(ids, pool)| {
            let tokens: Vec<StructTokId> = ids.into_iter().map(StructTokId).collect();
            let vars = tokens.iter().filter(|t| t.is_var()).count();
            Structure {
                tokens,
                placeholders: pool[..vars].to_vec(),
            }
        })
}

/// The first structure of each distinct token sequence: the trie index
/// (like the grammar generator feeding it) requires distinct sequences.
fn distinct(structures: Vec<Structure>) -> Vec<Structure> {
    let mut seen = std::collections::HashSet::new();
    structures
        .into_iter()
        .filter(|s| seen.insert(s.tokens.clone()))
        .collect()
}

/// A one-structure index, for tests that only need a valid image.
fn tiny_index() -> StructureIndex {
    StructureIndex::build(
        vec![Structure {
            tokens: vec![StructTokId(1), StructTokId(0)],
            placeholders: vec![Placeholder::table()],
        }],
        Weights::PAPER,
    )
}

fn arb_weights() -> impl Strategy<Value = Weights> {
    (1u32..=100, 1u32..=100, 1u32..=100).prop_map(|(keyword, splchar, literal)| Weights {
        keyword,
        splchar,
        literal,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_bytes(to_bytes(index))` reconstructs the arena and weights of
    /// any randomly sampled index exactly.
    #[test]
    fn roundtrip_arbitrary_indexes(
        structures in prop::collection::vec(arb_structure(), 1..40),
        weights in arb_weights(),
    ) {
        // The trie index (like the grammar generator feeding it) requires
        // distinct token sequences; keep the first of each.
        let mut seen = std::collections::HashSet::new();
        let structures: Vec<Structure> = structures
            .into_iter()
            .filter(|s| seen.insert(s.tokens.clone()))
            .collect();
        let index = StructureIndex::build(structures, weights);
        let bytes = to_bytes(&index).expect("serialize");
        let restored = from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(restored.weights(), index.weights());
        prop_assert_eq!(restored.len(), index.len());
        for id in 0..index.len() as u32 {
            prop_assert_eq!(restored.structure(id), index.structure(id));
        }
    }

    /// Corrupting any single byte of a valid image either round-trips to a
    /// well-formed index or fails with a `PersistError` — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(
        structures in prop::collection::vec(arb_structure(), 1..10),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut seen = std::collections::HashSet::new();
        let structures: Vec<Structure> = structures
            .into_iter()
            .filter(|s| seen.insert(s.tokens.clone()))
            .collect();
        let index = StructureIndex::build(structures, Weights::PAPER);
        let mut bytes = to_bytes(&index).expect("serialize").to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        let _ = from_bytes(&bytes);
    }

    /// `build → to_bytes → validate-borrow → search` is byte-identical to
    /// searching the arena built in memory: same hits, same order, same
    /// distances. The borrowed planes must be indistinguishable from the
    /// owned ones.
    #[test]
    fn zero_copy_roundtrip_search_is_byte_identical(
        structures in prop::collection::vec(arb_structure(), 1..40),
        masked in prop::collection::vec(0u8..28, 0..16),
        k in 1usize..6,
    ) {
        let mut seen = std::collections::HashSet::new();
        let structures: Vec<Structure> = structures
            .into_iter()
            .filter(|s| seen.insert(s.tokens.clone()))
            .collect();
        let built = StructureIndex::build(structures, Weights::PAPER);
        let bytes = to_bytes(&built).expect("serialize");
        let borrowed = speakql_index::from_shared(bytes).expect("validate-borrow");
        let masked: Vec<StructTokId> = masked.into_iter().map(StructTokId).collect();
        let cfg = SearchConfig::top_k(k);
        prop_assert_eq!(built.search(&masked, &cfg), borrowed.search(&masked, &cfg));
    }

    /// Fuzzing the header and offset-table region (the bytes that steer
    /// every downstream bounds computation) with multiple simultaneous
    /// corruptions must yield a typed error or a valid index — never a
    /// panic, even though checksums may still pass when mutations cancel.
    #[test]
    fn header_and_offset_fuzzing_never_panics(
        structures in prop::collection::vec(arb_structure(), 1..10),
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 1..8),
    ) {
        let mut seen = std::collections::HashSet::new();
        let structures: Vec<Structure> = structures
            .into_iter()
            .filter(|s| seen.insert(s.tokens.clone()))
            .collect();
        let index = StructureIndex::build(structures, Weights::PAPER);
        let mut bytes = to_bytes(&index).expect("serialize").to_vec();
        // Constrain mutations to the header + leading offset tables so the
        // fuzz concentrates where field interpretation happens.
        let window = bytes.len().min(160) as u64;
        for (seed, xor) in edits {
            bytes[(seed % window) as usize] ^= xor;
        }
        let _ = from_bytes(&bytes);
    }

    /// A syntactically plausible preamble (good magic + current version,
    /// both taken from a fresh image) followed by arbitrary bytes must never
    /// panic the loader.
    #[test]
    fn arbitrary_payload_after_valid_preamble_never_panics(
        payload in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut image = to_bytes(&tiny_index()).expect("serialize")[..6].to_vec();
        image.extend_from_slice(&payload);
        let _ = from_bytes(&image);
    }

    /// A built index is its loaded form: re-serializing the index loaded
    /// from a built index's image reproduces that image byte for byte, and
    /// the built and loaded indexes agree on the generation and on every
    /// search's hits and work counters.
    #[test]
    fn built_index_equals_its_loaded_form(
        structures in prop::collection::vec(arb_structure(), 1..40),
        weights in arb_weights(),
        masked in prop::collection::vec(0u8..28, 0..16),
        k in 1usize..6,
    ) {
        let built = StructureIndex::build(distinct(structures), weights);
        let bytes = to_bytes(&built).expect("serialize");
        let loaded = from_shared(bytes.clone()).expect("validate-borrow");
        prop_assert_eq!(to_bytes(&loaded).expect("re-serialize"), bytes);
        prop_assert_eq!(loaded.generation(), built.generation());
        let masked: Vec<StructTokId> = masked.into_iter().map(StructTokId).collect();
        let cfg = SearchConfig::top_k(k);
        prop_assert_eq!(
            built.search_with_stats(&masked, &cfg),
            loaded.search_with_stats(&masked, &cfg)
        );
    }
}

#[test]
fn old_version_preambles_fail_with_bad_version() {
    // Versions 1 to 4 are no longer decoded: an old image, whatever its
    // payload, must be rebuilt rather than loaded.
    let good = to_bytes(&tiny_index()).expect("serialize").to_vec();
    assert_eq!(u16::from_be_bytes([good[4], good[5]]), 5);
    for old in [1u16, 2, 3, 4] {
        let mut image = good.clone();
        image[4..6].copy_from_slice(&old.to_be_bytes());
        match from_bytes(&image) {
            Err(PersistError::BadVersion(v)) => assert_eq!(v, old),
            other => panic!("expected BadVersion({old}), got {other:?}"),
        }
        match speakql_index::from_bytes_rebuilt(&image) {
            Err(PersistError::BadVersion(v)) => assert_eq!(v, old),
            other => panic!("expected BadVersion({old}), got {other:?}"),
        }
    }
}

#[test]
fn engine_surfaces_typed_index_load_errors() {
    let dir = std::env::temp_dir().join("speakql-it-persist");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-an-index.sqlx");
    std::fs::write(&path, b"definitely not an index").unwrap();
    let Err(err) = SpeakQl::with_persisted_index(&employees_db(), &path, SpeakQlConfig::small())
    else {
        panic!("garbage must not build an engine");
    };
    std::fs::remove_file(&path).ok();
    match &err {
        SpeakQlError::IndexLoad { class, message } => {
            assert_eq!(*class, "bad_magic");
            assert!(message.contains("not a SpeakQL index file"), "{message}");
        }
        other => panic!("expected IndexLoad, got {other:?}"),
    }
    assert_eq!(err.class(), "index_load");

    let Err(missing) = SpeakQl::with_persisted_index(
        &employees_db(),
        dir.join("missing.sqlx"),
        SpeakQlConfig::small(),
    ) else {
        panic!("missing file must not build an engine");
    };
    match missing {
        SpeakQlError::IndexLoad { class, .. } => assert_eq!(class, "io"),
        other => panic!("expected IndexLoad, got {other:?}"),
    }
}

#[test]
fn corrupted_header_reports_each_error_path() {
    let index = StructureIndex::build(
        vec![Structure {
            tokens: vec![StructTokId(1), StructTokId(0)],
            placeholders: vec![Placeholder::table()],
        }],
        Weights::PAPER,
    );
    let good = to_bytes(&index).expect("serialize").to_vec();

    // Magic torn up -> BadMagic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        from_bytes(&bad_magic),
        Err(PersistError::BadMagic)
    ));

    // Version bumped -> BadVersion carrying the offending version.
    let mut bad_version = good.clone();
    bad_version[4] = 0x7f;
    match from_bytes(&bad_version) {
        Err(PersistError::BadVersion(v)) => assert_eq!(v, 0x7f00 + u16::from(good[5])),
        other => panic!("expected BadVersion, got {other:?}"),
    }

    // Header cut off mid-weights -> Corrupt("truncated header").
    match from_bytes(&good[..10]) {
        Err(PersistError::Corrupt(what)) => assert!(what.contains("truncated"), "{what}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Structure count claims more than the payload holds -> Corrupt.
    let mut overcount = good.clone();
    overcount[18] = 0xff; // most-significant byte of the big-endian u32 count
    assert!(matches!(
        from_bytes(&overcount),
        Err(PersistError::Corrupt(_))
    ));

    // Errors render as readable messages (Display path).
    assert_eq!(
        PersistError::BadMagic.to_string(),
        "not a SpeakQL index file"
    );
    assert!(PersistError::BadVersion(9).to_string().contains('9'));
    assert!(PersistError::Corrupt("x").to_string().contains('x'));
}
