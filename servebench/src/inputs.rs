//! Workload inputs: spoken-SQL cases pushed through the simulated ASR
//! channel, Zipf draws over small per-schema pools, the distinct batch
//! stream, and the catalog rows and probes churn writes.
//!
//! Everything here is a pure function of its seed. The dictation and churn
//! pools are drawn from a fixed pool seed so that every `--seed` replays the
//! same small set of queries in a different Zipf order: the accuracy and
//! latency figures then measure the program, not which two dozen queries a
//! seed happened to pick.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use speakql_asr::{spoken_words, verbalize_sql, AsrEngine, AsrProfile};
use speakql_data::{employees_db, generate_cases, training_vocabulary, yelp_db};
use speakql_db::{Database, Date, Value};
use speakql_grammar::GeneratorConfig;
use std::collections::HashSet;

/// Tenants, interleaved by schema so the head of the tenant Zipf covers
/// both schemas. Tenant `t` serves schema `t % 2`.
pub const TENANTS: [&str; 4] = ["employees-0", "yelp-0", "employees-1", "yelp-1"];
/// Distinct transcripts per schema in the dictation and churn pools.
pub const POOL_PER_SCHEMA: usize = 24;
/// Seed of the dictation and churn pools (fixed; see the module docs).
pub const POOL_SEED: u64 = 0x5EA_C0DE;
/// Seed of the training split the simulated ASR's vocabulary comes from
/// (the same split `speakql speak` uses).
const TRAIN_SEED: u64 = 0xA11CE;
/// Zipf exponent of tenant and transcript draws.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Cases generated per chunk of the batch stream.
const BATCH_CHUNK: usize = 256;

/// One spoken query: ground truth and what the ASR heard.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Schema: 0 = Employees, 1 = Yelp.
    pub schema: usize,
    /// Ground-truth SQL.
    pub sql: String,
    /// The simulated ASR transcript the benchmark sends.
    pub transcript: String,
}

/// The tenants' databases, indexed by schema.
pub fn databases() -> [Database; 2] {
    [employees_db(), yelp_db()]
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates cases for one schema through the paper-scale grammar and the
/// `acs_trained` ASR channel.
pub struct CaseSource {
    schema: usize,
    db: Database,
    asr: AsrEngine,
}

impl CaseSource {
    /// A source for schema `schema` over `db`.
    pub fn new(schema: usize, db: &Database) -> CaseSource {
        let train = generate_cases(db, &GeneratorConfig::paper(), 100, TRAIN_SEED);
        CaseSource {
            schema,
            db: db.clone(),
            asr: AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(db, &train)),
        }
    }

    /// `n` cases, deterministic in `seed`.
    pub fn cases(&self, n: usize, seed: u64) -> Vec<Case> {
        generate_cases(&self.db, &GeneratorConfig::paper(), n, seed)
            .into_iter()
            .map(|c| {
                let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, c.id as u64));
                Case {
                    schema: self.schema,
                    transcript: self.asr.transcribe_sql(&c.sql, &mut rng),
                    sql: c.sql,
                }
            })
            .collect()
    }
}

/// The dictation and churn pools: [`POOL_PER_SCHEMA`] cases per schema.
pub fn pools(sources: &[CaseSource; 2]) -> [Vec<Case>; 2] {
    [0, 1].map(|s| sources[s].cases(POOL_PER_SCHEMA, mix(POOL_SEED, s as u64)))
}

/// Inverse-CDF sampler over Zipf rank weights `1 / r^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n`.
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let cumulative = (0..n)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / ((r + 1) as f64).powf(exponent);
                Some(*acc)
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn draw(&self, rng: &mut ChaCha8Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let u: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A closed-loop caller's stream of (tenant, pool index) reads: tenant and
/// transcript are independent Zipf draws, deterministic in the seed and the
/// caller number.
pub struct ReadStream {
    rng: ChaCha8Rng,
    tenants: Zipf,
    texts: Zipf,
}

impl ReadStream {
    /// The stream of caller `caller` under `seed`.
    pub fn new(seed: u64, caller: u64) -> ReadStream {
        ReadStream {
            rng: ChaCha8Rng::seed_from_u64(mix(seed, 0xD1C7 + caller)),
            tenants: Zipf::new(TENANTS.len(), ZIPF_EXPONENT),
            texts: Zipf::new(POOL_PER_SCHEMA, ZIPF_EXPONENT),
        }
    }
}

impl Iterator for ReadStream {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let tenant = self.tenants.draw(&mut self.rng);
        Some((tenant, self.texts.draw(&mut self.rng)))
    }
}

/// The batch workload's inputs: an unbounded sequence of distinct cases,
/// alternating schemas, generated in chunks so a run can extend it without
/// changing any earlier element.
pub struct BatchStream {
    sources: [CaseSource; 2],
    seed: u64,
    chunk: u64,
    seen: HashSet<String>,
    cases: Vec<Case>,
}

impl BatchStream {
    /// The stream for `seed`.
    pub fn new(sources: [CaseSource; 2], seed: u64) -> BatchStream {
        BatchStream {
            sources,
            seed,
            chunk: 0,
            seen: HashSet::new(),
            cases: Vec::new(),
        }
    }

    /// Extend the stream to at least `n` cases.
    pub fn fill(&mut self, n: usize) {
        while self.cases.len() < n {
            let mut per_schema = [0, 1].map(|s| {
                self.sources[s]
                    .cases(BATCH_CHUNK, mix(self.seed, (self.chunk << 1) | s as u64))
                    .into_iter()
            });
            self.chunk += 1;
            // Alternate schemas, dropping transcripts seen earlier in the
            // run: every batch read is distinct.
            loop {
                let mut took = false;
                for it in per_schema.iter_mut() {
                    if let Some(c) = it.next() {
                        took = true;
                        if self.seen.insert(c.transcript.clone()) {
                            self.cases.push(c);
                        }
                    }
                }
                if !took {
                    break;
                }
            }
        }
    }

    /// The cases generated so far.
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }
}

/// New first names the churn writer adds, one per catalog update. None of
/// them occurs in the Employees instance.
pub const NEW_FIRST_NAMES: [&str; 12] = [
    "Zebulon",
    "Quillon",
    "Xanthippe",
    "Yevgenia",
    "Ottoline",
    "Peregrine",
    "Wolfram",
    "Ulrika",
    "Radomir",
    "Thaddeus",
    "Isolde",
    "Evander",
];

/// The Employees database after `updates` catalog updates: one new
/// employee row per update, named from [`NEW_FIRST_NAMES`].
pub fn employees_with_rows(base: &Database, updates: usize) -> Database {
    let mut db = base.clone();
    if let Some(table) = db.table_mut("Employees") {
        for (i, name) in NEW_FIRST_NAMES.iter().cycle().take(updates).enumerate() {
            table.push_row(vec![
                Value::Int(90_001 + i as i64),
                Value::Date(Date::new(1970, 1, 1).expect("valid date")),
                Value::Text((*name).to_string()),
                Value::Text("Halvorsen".into()),
                Value::Text("F".into()),
                Value::Date(Date::new(1999, 9, 9).expect("valid date")),
            ]);
        }
    }
    db
}

/// A probe read: a query naming a value a catalog update added.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Ground-truth SQL.
    pub sql: String,
    /// Its spoken form, as sent.
    pub transcript: String,
}

/// Probe reads for the row the `update`-th catalog update added.
pub fn probes(update: usize) -> Vec<Probe> {
    let name = NEW_FIRST_NAMES[update % NEW_FIRST_NAMES.len()];
    [
        format!("SELECT LastName FROM Employees WHERE FirstName = '{name}'"),
        format!("SELECT HireDate FROM Employees WHERE FirstName = '{name}'"),
    ]
    .into_iter()
    .map(|sql| Probe {
        transcript: spoken_words(&verbalize_sql(&sql)).join(" "),
        sql,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_streams_are_deterministic_in_the_seed() {
        let a: Vec<_> = ReadStream::new(7, 0).take(500).collect();
        let b: Vec<_> = ReadStream::new(7, 0).take(500).collect();
        let other_seed: Vec<_> = ReadStream::new(8, 0).take(500).collect();
        let other_caller: Vec<_> = ReadStream::new(7, 1).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_caller);
    }

    #[test]
    fn zipf_draws_favour_low_ranks() {
        let mut counts = [0usize; POOL_PER_SCHEMA];
        for (_, q) in ReadStream::new(1, 0).take(20_000) {
            counts[q] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[5] && counts[5] > counts[23]);
        // Rank 1 carries 1/H(24) ≈ 26.5% of the mass under s = 1.
        let head = counts[0] as f64 / 20_000.0;
        assert!((head - 0.265).abs() < 0.02, "head share {head}");
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let dbs = databases();
        let source = CaseSource::new(0, &dbs[0]);
        assert_eq!(source.cases(6, 42), source.cases(6, 42));
        assert_ne!(source.cases(6, 42), source.cases(6, 43));
        let pools_a = pools(&[CaseSource::new(0, &dbs[0]), CaseSource::new(1, &dbs[1])]);
        let pools_b = pools(&[CaseSource::new(0, &dbs[0]), CaseSource::new(1, &dbs[1])]);
        assert_eq!(pools_a, pools_b);
        assert!(pools_a.iter().all(|p| p.len() == POOL_PER_SCHEMA));
    }

    #[test]
    fn batch_stream_is_distinct_and_prefix_stable() {
        let dbs = databases();
        let sources = || [CaseSource::new(0, &dbs[0]), CaseSource::new(1, &dbs[1])];
        let mut short = BatchStream::new(sources(), 9);
        short.fill(300);
        let mut long = BatchStream::new(sources(), 9);
        long.fill(900);
        assert_eq!(short.cases(), &long.cases()[..short.cases().len()]);
        let distinct: HashSet<&str> = long.cases().iter().map(|c| c.transcript.as_str()).collect();
        assert_eq!(distinct.len(), long.cases().len());
        assert!(long.cases().iter().any(|c| c.schema == 1));
    }

    #[test]
    fn catalog_updates_add_one_row_per_update() {
        let base = databases()[0].clone();
        let grown = employees_with_rows(&base, 3);
        let names = |db: &Database| db.attribute_values("FirstName").len();
        assert_eq!(names(&grown), names(&base) + 3);
        assert!(probes(0)[0].transcript.contains("zebulon"));
    }
}
