//! Literal Determination (paper §4, Box 3).
//!
//! Fills the placeholder variables of the best structure using the raw
//! transcription (`TransOut`) and the phonetic catalog:
//!
//! 1. **Category assignment** — each placeholder's T/A/V category comes from
//!    the grammar derivation stored with the structure (§4.1).
//! 2. **Transcription segmentation** — a window of non-dictionary tokens is
//!    located for each placeholder, and all sub-token concatenations up to
//!    [`WINDOW_SIZE`] are enumerated as candidate spoken forms (§4.2).
//! 3. **Literal voting** — each enumerated string votes for its phonetically
//!    closest candidate literal; the most-voted literal wins, ties resolved
//!    lexicographically (§4.3, worked examples in App. E.2).
//!
//! A [`LiteralFinder`] is built over one transcript and fills the
//! placeholders of every candidate structure of that transcription. It
//! memoizes window encodings and finished fills, since the top-k candidates
//! land their placeholders on the same few windows, and it counts its voting
//! work into its own [`Tally`], which the engine adds to the transcription's
//! work.

use crate::catalog::{CandidateSet, PhoneticCatalog};
use speakql_grammar::{in_dictionaries, LitCategory, Structure};
use speakql_observe::{CounterId, Tally};
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum number of adjacent tokens concatenated per enumerated string
/// (`WindowSize` in Box 3).
pub const WINDOW_SIZE: usize = 3;

/// How many runner-up literals each placeholder keeps, for top-k display and
/// the SQL Keyboard's suggestion list.
pub const ALTERNATIVES: usize = 5;

/// One filled placeholder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilledLiteral {
    /// The winning literal, rendered ready for SQL (values quoted).
    pub literal: String,
    /// Runner-up literals by vote count (for top-k display and the SQL
    /// Keyboard's suggestion list).
    pub alternatives: Vec<String>,
    /// The TransOut word window `[begin, end)` this placeholder consumed.
    pub window: (usize, usize),
}

/// One window's enumerated `(string, word_count)` encodings, shared between
/// the candidates that consume the window.
type SharedEncodings = Rc<Vec<(String, usize)>>;

/// Everything a placeholder fill depends on within one transcript: the
/// window, the category code (`T`/`A`/`V`/`N`), and the governing attribute
/// (which selects candidate set B for values).
type FillKey = (usize, usize, char, Option<String>);

/// One completed fill — `(literal, alternatives, consumed_to)` exactly as
/// `assign_phonetic`/`assign_number` return it.
type Fill = (String, Vec<String>, usize);

/// The Literal Determination component, over one transcript's words.
///
/// The enumeration of a window `[begin, end)` depends only on the words, the
/// window size and the phonetic algorithm, so each distinct window is
/// encoded once however many candidates consume it. A whole placeholder
/// fill is a pure function of its window, its T/A/V/N category and the
/// governing attribute restricting candidate set B, so each distinct
/// `(window, category, governor)` is voted once too. Both memos return
/// exactly what recomputing would, so filled literals are unaffected, and
/// both keep the voting counters exact: `literal.strings_enumerated` counts
/// each window once, `literal.fill_memo_hits` counts each repeat.
#[derive(Debug)]
pub struct LiteralFinder<'a> {
    catalog: &'a PhoneticCatalog,
    words: &'a [String],
    windows: HashMap<(usize, usize), SharedEncodings>,
    fills: HashMap<FillKey, Fill>,
    tally: Tally,
}

impl<'a> LiteralFinder<'a> {
    /// A finder voting literals out of `catalog` for the transcript `words`
    /// (the word stream after SplChar handling), with empty memos.
    pub fn new(catalog: &'a PhoneticCatalog, words: &'a [String]) -> LiteralFinder<'a> {
        LiteralFinder {
            catalog,
            words,
            windows: HashMap::new(),
            fills: HashMap::new(),
            tally: Tally::default(),
        }
    }

    /// The voting work of every fill so far: `literal.vote_comparisons`,
    /// `phonetics.exact_hits`, `literal.strings_enumerated` and
    /// `literal.fill_memo_hits`.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Fill every placeholder of `structure`. Box 3's `LiteralFinder`,
    /// sequential windows only (no alignment anchors).
    pub fn fill(&mut self, structure: &Structure) -> Vec<FilledLiteral> {
        self.fill_with_anchors(structure, &vec![None; structure.var_count()])
    }

    /// Box 3's `LiteralFinder` with alignment-derived window anchors: the
    /// search engine's DP alignment of `masked` against `structure` under
    /// `weights` tells us which transcript token each placeholder matched,
    /// making the paper's `RightNonLiteral` window boundary precise when
    /// several placeholders share one run of non-dictionary tokens.
    pub fn fill_aligned(
        &mut self,
        masked: &[speakql_grammar::StructTokId],
        structure: &Structure,
        weights: speakql_editdist::Weights,
    ) -> Vec<FilledLiteral> {
        let anchors = crate::align::align_vars(masked, structure, weights);
        self.fill_with_anchors(structure, &anchors)
    }

    fn fill_with_anchors(
        &mut self,
        structure: &Structure,
        anchors: &[Option<usize>],
    ) -> Vec<FilledLiteral> {
        let trans_out = self.words;
        let n = trans_out.len();
        let mut filled: Vec<FilledLiteral> = Vec::with_capacity(structure.var_count());
        let mut running = 0usize;

        for (ph_idx, ph) in structure.placeholders.iter().enumerate() {
            // Jump ahead to this placeholder's alignment anchor, if any.
            if let Some(p) = anchors[ph_idx] {
                if p > running {
                    running = p;
                }
            }
            // Skip dictionary tokens (Box 3 lines 4-6).
            while running < n && in_dictionaries(&trans_out[running]) {
                running += 1;
            }
            let begin = running;
            // The window extends to the next dictionary token (the paper's
            // RightmostNonLiteral boundary: Fig. 4 windows end where the
            // next keyword/splchar run begins) ...
            let mut end = begin;
            while end < n && !in_dictionaries(&trans_out[end]) {
                end += 1;
            }
            // ... and never swallows the tokens a later placeholder is
            // anchored to.
            if let Some(&next_anchor) = anchors[ph_idx + 1..].iter().flatten().find(|&&p| p > begin)
            {
                end = end.min(next_anchor);
            }

            // Candidate set B (§4.1): governed attribute for values.
            let governed: Option<String> = ph.governor.and_then(|g| {
                filled
                    .get(g as usize)
                    .map(|f: &FilledLiteral| strip_quotes(&f.literal).to_string())
            });
            let (literal, alternatives, consumed_to) =
                self.assign(begin, end, ph.category, governed);

            filled.push(FilledLiteral {
                literal,
                alternatives,
                window: (begin, end),
            });
            running = consumed_to;
        }
        filled
    }

    /// Fill one placeholder through the fill memo. The fill is a pure
    /// function of the key (window × category × governor) given the fixed
    /// transcript and catalog, so memoized repeats — the common case across
    /// near-identical top-k candidates — return the identical result without
    /// re-voting. Memo hits count into `literal.fill_memo_hits`.
    fn assign(
        &mut self,
        begin: usize,
        end: usize,
        category: LitCategory,
        governed: Option<String>,
    ) -> (String, Vec<String>, usize) {
        let key = (begin, end, category.code(), governed);
        if let Some(fill) = self.fills.get(&key) {
            self.tally.incr(CounterId::LiteralFillMemoHits);
            return fill.clone();
        }
        let fill = if category == LitCategory::Number {
            self.assign_number(begin, end)
        } else {
            let candidates = self.catalog.candidates(category, key.3.as_deref());
            self.assign_phonetic(begin, end, candidates)
        };
        self.fills.insert(key, fill.clone());
        fill
    }

    /// EnumerateStrings + LiteralAssignment (Box 3). Returns the winner, the
    /// ranked alternatives, and the index just past the last consumed token.
    fn assign_phonetic(
        &mut self,
        begin: usize,
        end: usize,
        candidates: &CandidateSet,
    ) -> (String, Vec<String>, usize) {
        let trans_out = self.words;
        let entries = candidates.index().entries();
        if entries.is_empty() {
            // Nothing to vote for: echo the raw window (or a placeholder).
            let raw = trans_out[begin..end].join("");
            let lit = if raw.is_empty() { "x".to_string() } else { raw };
            return (lit, Vec::new(), end);
        }
        // Fragmented dates ("may 07 19 91", "january twentieth nineteen
        // ninety three") defeat phonetic voting; when the candidate domain
        // contains dates, try structural reassembly first.
        if candidates.has_dates() {
            if let Some(date) = reassemble_date(&trans_out[begin..end]) {
                let rendered = format!("'{date}'");
                if let Some(e) = entries.iter().find(|e| e.literal == rendered) {
                    return (e.literal.clone(), Vec::new(), end);
                }
            }
        }
        let set_a = self.window_encodings(begin, end);
        if set_a.is_empty() {
            // Empty window: fall back to the lexicographically first
            // candidate (deterministic, matches the tie rule).
            let lit = entries[0].literal.clone();
            return (lit, Vec::new(), begin);
        }

        // Voting (Box 3 LiteralAssignment): each enumerated string votes for
        // its closest candidate(s); ties within a vote go to every tied
        // candidate.
        let mut tally = VoteTally::new(entries.len());
        let mut comparisons = 0u64;
        let mut exact_hits = 0u64;
        for (key_a, last_pos) in set_a.iter() {
            // A candidate bucket can only be empty if the catalog column had
            // no values; skip the window's vote rather than panic on it.
            let Some(vote) = candidates.index().nearest(key_a) else {
                continue;
            };
            comparisons += vote.comparisons;
            exact_hits += vote.exact as u64;
            for bi in vote.winners {
                tally.cast(bi, *last_pos);
            }
        }
        self.tally.add(CounterId::VoteComparisons, comparisons);
        self.tally.add(CounterId::PhoneticExactHits, exact_hits);

        let ranked = tally.ranked();
        let winner = ranked[0];
        let literal = entries[winner].literal.clone();
        let alternatives: Vec<String> = ranked
            .iter()
            .skip(1)
            .take(ALTERNATIVES)
            .map(|&bi| entries[bi].literal.clone())
            .collect();
        let consumed_to = tally.last[winner] + 1;
        (literal, alternatives, consumed_to)
    }

    /// Enumerated encodings for one window through the window memo.
    /// `literal.strings_enumerated` counts actual enumeration work, so
    /// re-reads of an already-encoded window do not re-count.
    fn window_encodings(&mut self, begin: usize, end: usize) -> SharedEncodings {
        if let Some(set) = self.windows.get(&(begin, end)) {
            return Rc::clone(set);
        }
        let set = Rc::new(enumerate_strings(
            self.words,
            begin,
            end,
            WINDOW_SIZE,
            self.catalog.algorithm(),
        ));
        self.tally
            .add(CounterId::VoteEnumerations, set.len() as u64);
        self.windows.insert((begin, end), Rc::clone(&set));
        set
    }

    /// Number placeholders (the LIMIT argument): take the first numeric
    /// token in the window, merging adjacent numerals split by the ASR;
    /// falls back to parsing spoken number words ("seventy thousand") when
    /// the channel never recombined them.
    fn assign_number(&self, begin: usize, end: usize) -> (String, Vec<String>, usize) {
        let trans_out = self.words;
        if !trans_out[begin..end]
            .iter()
            .any(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_digit()))
        {
            if let Some(n) = parse_number_words(&trans_out[begin..end]) {
                return (n.to_string(), Vec::new(), end);
            }
        }
        let mut i = begin;
        while i < end {
            if trans_out[i].chars().all(|c| c.is_ascii_digit()) && !trans_out[i].is_empty() {
                // Merge a run of split numerals ("45000 412" → 45412-like
                // recovery only when the continuation looks like a suffix
                // chunk, i.e. shorter than the head's trailing zeros).
                let mut value: u64 = trans_out[i].parse().unwrap_or(0);
                let mut j = i + 1;
                while j < end && trans_out[j].chars().all(|c| c.is_ascii_digit()) {
                    if let Ok(chunk) = trans_out[j].parse::<u64>() {
                        if value.is_multiple_of(1000) && chunk < 1000 {
                            value += chunk;
                            j += 1;
                            continue;
                        }
                    }
                    break;
                }
                return (value.to_string(), Vec::new(), j);
            }
            i += 1;
        }
        ("10".to_string(), Vec::new(), end)
    }
}

/// Box 3's vote count over one candidate set, dense by entry index: each
/// entry's votes and the last window position among them, plus the entries
/// voted for, so ranking costs the votes cast rather than the domain.
struct VoteTally {
    votes: Vec<u32>,
    last: Vec<usize>,
    touched: Vec<usize>,
}

impl VoteTally {
    fn new(entries: usize) -> VoteTally {
        VoteTally {
            votes: vec![0; entries],
            last: vec![0; entries],
            touched: Vec::new(),
        }
    }

    /// One vote for `entry` from a string ending at window position `pos`.
    fn cast(&mut self, entry: usize, pos: usize) {
        if self.votes[entry] == 0 {
            self.touched.push(entry);
        }
        self.votes[entry] += 1;
        self.last[entry] = self.last[entry].max(pos);
    }

    /// The entries voted for, by votes descending, then entry index
    /// ascending. A candidate set's entries are unique and sorted by
    /// literal, so this is the paper's most-votes order with ties broken
    /// lexicographically (§4.3).
    fn ranked(&mut self) -> &[usize] {
        let votes = &self.votes;
        self.touched
            .sort_unstable_by_key(|&i| (std::cmp::Reverse(votes[i]), i));
        &self.touched
    }
}

/// EnumerateStrings (Box 3): all concatenations of up to `window_size`
/// adjacent tokens within `[begin, end)`, as `algo`'s phonetic keys, each
/// with the index of its last token. An `end` past the transcript is
/// clamped, so no window can index out of bounds.
#[allow(clippy::needless_range_loop)] // index arithmetic is the clearer form here
pub fn enumerate_strings(
    trans_out: &[String],
    begin: usize,
    end: usize,
    window_size: usize,
    algo: speakql_phonetics::PhoneticAlgorithm,
) -> Vec<(String, usize)> {
    let end = end.min(trans_out.len());
    let mut out = Vec::new();
    for i in begin..end {
        let mut cur = String::new();
        for j in i..end.min(i + window_size) {
            // panic-safe: `j < end <= trans_out.len()` by the clamp above.
            cur.push_str(&trans_out[j]);
            out.push((algo.key(&cur), j));
        }
    }
    out
}

fn strip_quotes(s: &str) -> &str {
    s.strip_prefix('\'')
        .and_then(|t| t.strip_suffix('\''))
        .unwrap_or(s)
}

pub(crate) fn is_date_literal(lit: &str) -> bool {
    let bare = strip_quotes(lit);
    bare.len() >= 8
        && bare.matches('-').count() == 2
        && bare.chars().next().is_some_and(|c| c.is_ascii_digit())
}

const MONTHS: [&str; 12] = [
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

const DAY_ORDINALS: [(&str, u8); 31] = [
    ("first", 1),
    ("second", 2),
    ("third", 3),
    ("fourth", 4),
    ("fifth", 5),
    ("sixth", 6),
    ("seventh", 7),
    ("eighth", 8),
    ("ninth", 9),
    ("tenth", 10),
    ("eleventh", 11),
    ("twelfth", 12),
    ("thirteenth", 13),
    ("fourteenth", 14),
    ("fifteenth", 15),
    ("sixteenth", 16),
    ("seventeenth", 17),
    ("eighteenth", 18),
    ("nineteenth", 19),
    ("twentieth", 20),
    ("thirtieth", 30),
    // compound forms handled by the "twenty"/"thirty" prefix logic below
    ("twentyfirst", 21),
    ("twentysecond", 22),
    ("twentythird", 23),
    ("twentyfourth", 24),
    ("twentyfifth", 25),
    ("twentysixth", 26),
    ("twentyseventh", 27),
    ("twentyeighth", 28),
    ("twentyninth", 29),
    ("thirtyfirst", 31),
];

const NUMBER_WORDS: [(&str, u32); 28] = [
    ("zero", 0),
    ("one", 1),
    ("two", 2),
    ("three", 3),
    ("four", 4),
    ("five", 5),
    ("six", 6),
    ("seven", 7),
    ("eight", 8),
    ("nine", 9),
    ("ten", 10),
    ("eleven", 11),
    ("twelve", 12),
    ("thirteen", 13),
    ("fourteen", 14),
    ("fifteen", 15),
    ("sixteen", 16),
    ("seventeen", 17),
    ("eighteen", 18),
    ("nineteen", 19),
    ("twenty", 20),
    ("thirty", 30),
    ("forty", 40),
    ("fifty", 50),
    ("sixty", 60),
    ("seventy", 70),
    ("eighty", 80),
    ("ninety", 90),
];

fn number_word(w: &str) -> Option<u32> {
    NUMBER_WORDS.iter().find(|(n, _)| *n == w).map(|(_, v)| *v)
}

/// Parse a run of spoken number words into a value ("forty five thousand
/// three hundred ten" → 45310). Non-number words terminate the run; returns
/// `None` if no number words are present at its start.
pub fn parse_number_words(words: &[String]) -> Option<u64> {
    let mut total: u64 = 0;
    let mut group: u64 = 0;
    let mut any = false;
    for w in words {
        let w = w.to_lowercase();
        if let Some(v) = number_word(&w) {
            group += v as u64;
            any = true;
        } else {
            match w.as_str() {
                "hundred" if any => group *= 100,
                "thousand" if any => {
                    total += group.max(1) * 1_000;
                    group = 0;
                }
                "million" if any => {
                    total += group.max(1) * 1_000_000;
                    group = 0;
                }
                "billion" if any => {
                    total += group.max(1) * 1_000_000_000;
                    group = 0;
                }
                _ => {
                    if any {
                        break;
                    }
                    // Skip leading non-number words.
                }
            }
        }
    }
    any.then_some(total + group)
}

/// Reassemble a fragmented spoken date from a transcript window (the date
/// error modes of Table 1 / App. F.6). Handles:
/// - `1993-01-20` (already recombined — caught earlier, but cheap to allow),
/// - `may 07 19 91` / `may 7 1991` (partial numeral recombination),
/// - `january twentieth nineteen ninety three` (raw spoken words).
pub fn reassemble_date(window: &[String]) -> Option<String> {
    let words: Vec<String> = window.iter().map(|w| w.to_lowercase()).collect();
    // Pass-through for an already-formed date token.
    for w in &words {
        if w.len() >= 8 && w.matches('-').count() == 2 {
            if let Some(d) = parse_ymd(w) {
                return Some(d);
            }
        }
    }
    let month_pos = words.iter().position(|w| MONTHS.contains(&w.as_str()))?;
    // panic-safe: `month_pos` came from `position` on `words`, so the index
    // is in bounds.
    let month = MONTHS.iter().position(|m| *m == words[month_pos])? as u8 + 1;
    // panic-safe: `month_pos < words.len()`, so the suffix slice is in range.
    let rest = &words[month_pos + 1..];
    let mut day: Option<u8> = None;
    let mut year: Option<i32> = None;
    let mut numeric_buf: Vec<u32> = Vec::new();
    let mut word_year: Vec<u32> = Vec::new();
    let mut i = 0usize;
    while i < rest.len() {
        // panic-safe: `i < rest.len()` is the loop condition.
        let w = &rest[i];
        if let Ok(n) = w.parse::<u32>() {
            numeric_buf.push(n);
            i += 1;
            continue;
        }
        // Day ordinals, simple or compound ("twenty first").
        // panic-safe: `i + 1` is guarded by the branch condition.
        let compound = if i + 1 < rest.len() {
            format!("{}{}", w, rest[i + 1])
        } else {
            String::new()
        };
        if let Some(&(_, d)) = DAY_ORDINALS.iter().find(|(o, _)| *o == compound.as_str()) {
            day = Some(d);
            i += 2;
            continue;
        }
        if let Some(&(_, d)) = DAY_ORDINALS.iter().find(|(o, _)| *o == w.as_str()) {
            day = Some(d);
            i += 1;
            continue;
        }
        if let Some(v) = number_word(w) {
            word_year.push(v);
            i += 1;
            continue;
        }
        i += 1;
    }
    // Interpret numerics: 4-digit → year, ≤31 (first) → day, trailing pairs
    // of ≤2-digit values like "19 93" → year.
    let mut pairs: Vec<u32> = Vec::new();
    for n in numeric_buf {
        if n >= 1000 {
            year = Some(n as i32);
        } else if day.is_none() && (1..=31).contains(&n) && pairs.is_empty() {
            day = Some(n as u8);
        } else {
            pairs.push(n);
        }
    }
    // panic-safe: indexes 0 and 1 are guarded by `pairs.len() >= 2`.
    if year.is_none() && pairs.len() >= 2 {
        year = Some((pairs[0] * 100 + pairs[1]) as i32);
    }
    // Year from spoken words: "nineteen ninety three" → 19, 90, 3.
    // panic-safe: index 0 and the `1..` suffix are guarded by `!is_empty`.
    if year.is_none() && !word_year.is_empty() {
        let hi = word_year[0];
        let lo: u32 = word_year[1..].iter().sum();
        if (10..=20).contains(&hi) {
            year = Some((hi * 100 + lo) as i32);
        } else if hi >= 1000 {
            year = Some(hi as i32);
        }
    }
    let (day, year) = (day?, year?);
    if !(1..=31).contains(&day) || !(1000..=9999).contains(&year) {
        return None;
    }
    Some(format!("{year:04}-{month:02}-{day:02}"))
}

fn parse_ymd(s: &str) -> Option<String> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u8 = it.next()?.parse().ok()?;
    let d: u8 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(format!("{y:04}-{m:02}-{d:02}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::{Column, Database, Table, TableSchema, Value, ValueType};
    use speakql_grammar::{Keyword, Placeholder, SplChar, StructTok};
    use speakql_phonetics::{PhoneticAlgorithm, PhoneticIndex};

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    fn fig4_db() -> Database {
        let mut db = Database::new("fig4");
        let mut emp = Table::new(TableSchema::new(
            "Employees",
            vec![
                Column::new("FirstName", ValueType::Text),
                Column::new("LastName", ValueType::Text),
            ],
        ));
        emp.push_row(vec![Value::Text("John".into()), Value::Text("Doe".into())]);
        db.add_table(emp);
        db.add_table(Table::new(TableSchema::new(
            "Salaries",
            vec![Column::new("Salary", ValueType::Int)],
        )));
        db
    }

    /// Paper Fig. 4: TransOut `SELECT first name FROM employers`,
    /// BestStruct `SELECT x1 FROM x2` → x1 = FirstName, x2 = Employees.
    #[test]
    fn figure4_worked_example() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
            ],
            vec![Placeholder::attribute(), Placeholder::table()],
        );
        let trans = words("select first name from employers");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[0].literal, "FirstName");
        assert_eq!(filled[1].literal, "Employees");
        assert_eq!(filled[0].window, (1, 3));
    }

    /// The finder's tally counts exactly the votes its fills cast: each
    /// distinct window's strings once, each string's comparisons and exact
    /// bucket hit, and a repeated fill as one memo hit per placeholder that
    /// votes nothing.
    #[test]
    fn tally_counts_each_vote_once_and_each_repeat_as_a_memo_hit() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
            ],
            vec![Placeholder::attribute(), Placeholder::table()],
        );
        let trans = words("select first name from employers");
        let mut finder = LiteralFinder::new(&catalog, &trans);
        let filled = finder.fill(&s);
        // Recount independently: enumerate each window and vote each string.
        let mut expected = Tally::default();
        for (f, category) in filled
            .iter()
            .zip([LitCategory::Attribute, LitCategory::Table])
        {
            let (begin, end) = f.window;
            let set = enumerate_strings(&trans, begin, end, WINDOW_SIZE, catalog.algorithm());
            expected.add(CounterId::VoteEnumerations, set.len() as u64);
            for (key, _) in &set {
                if let Some(vote) = catalog.candidates(category, None).index().nearest(key) {
                    expected.add(CounterId::VoteComparisons, vote.comparisons);
                    expected.add(CounterId::PhoneticExactHits, u64::from(vote.exact));
                }
            }
        }
        // Distinct totals, so a finder that swapped two counters fails.
        let counts = [
            CounterId::VoteEnumerations,
            CounterId::VoteComparisons,
            CounterId::PhoneticExactHits,
        ]
        .map(|id| expected.get(id));
        assert!(counts[0] != counts[1] && counts[1] != counts[2] && counts[0] != counts[2]);
        assert_eq!(*finder.tally(), expected);
        assert_eq!(finder.fill(&s), filled);
        expected.add(CounterId::LiteralFillMemoHits, 2);
        assert_eq!(*finder.tally(), expected);
    }

    /// Paper App. E.2 Example 1: A = {FRONT, DATE, FRONTDATE},
    /// B = {FROMDATE, TODATE}; naive all-pairs minimum would pick TODATE
    /// (via DATE), but voting picks FROMDATE.
    #[test]
    fn appendix_e2_example1_voting_beats_all_pairs() {
        let idx = PhoneticIndex::build(["FROMDATE", "TODATE"]);
        let trans = words("front date");
        let set_a = enumerate_strings(&trans, 0, 2, 3, PhoneticAlgorithm::Metaphone);
        // A = front (FRNT), frontdate (FRNTTT), date (TT)
        assert_eq!(set_a.len(), 3);
        // Run the voting logic through the finder on a catalog-free path by
        // constructing a minimal catalog around the same B set.
        let mut db = Database::new("x");
        let mut t = Table::new(TableSchema::new(
            "T",
            vec![
                Column::new("FROMDATE", ValueType::Date),
                Column::new("TODATE", ValueType::Date),
            ],
        ));
        t.rows.clear();
        db.add_table(t);
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
            ],
            vec![Placeholder::attribute(), Placeholder::table()],
        );
        let trans = words("select front date from t");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[0].literal, "FROMDATE");
        drop(idx);
    }

    /// Paper App. E.2 Example 2: A = {RUM, DATE, RUMDATE}; FROMDATE and
    /// TODATE tie via RUMDATE/DATE, but RUM's vote for FROMDATE breaks it.
    #[test]
    fn appendix_e2_example2_tie_broken_by_extra_vote() {
        let mut db = Database::new("x");
        db.add_table(Table::new(TableSchema::new(
            "T",
            vec![
                Column::new("FROMDATE", ValueType::Date),
                Column::new("TODATE", ValueType::Date),
            ],
        )));
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
            ],
            vec![Placeholder::attribute(), Placeholder::table()],
        );
        let trans = words("select rum date from t");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[0].literal, "FROMDATE");
    }

    /// §2 running example end-state: wear/first/name → FirstName window,
    /// Jon → 'John' from the governed FirstName domain.
    #[test]
    fn running_example_value_from_governed_domain() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        // SELECT x1 FROM x2 WHERE x3 = x4 with governor x3 -> x4.
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
                StructTok::Keyword(Keyword::Where),
                StructTok::Var,
                StructTok::SplChar(SplChar::Eq),
                StructTok::Var,
            ],
            vec![
                Placeholder::attribute(),
                Placeholder::table(),
                Placeholder::attribute(),
                Placeholder::value(Some(2)),
            ],
        );
        let trans = words("select last name from employers where first name = jon");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[0].literal, "LastName");
        assert_eq!(filled[1].literal, "Employees");
        assert_eq!(filled[2].literal, "FirstName");
        assert_eq!(filled[3].literal, "'John'");
    }

    #[test]
    fn number_placeholder_merges_split_numerals() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
                StructTok::Keyword(Keyword::Limit),
                StructTok::Var,
            ],
            vec![
                Placeholder::attribute(),
                Placeholder::table(),
                Placeholder::number(),
            ],
        );
        let trans = words("select salary from salaries limit 45000 412");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[2].literal, "45412");
    }

    #[test]
    fn more_placeholders_than_windows_still_fills() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
            ],
            vec![Placeholder::attribute(), Placeholder::table()],
        );
        // Transcript has no literal tokens at all.
        let trans = words("select from");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled.len(), 2);
        assert!(!filled[0].literal.is_empty());
        assert!(!filled[1].literal.is_empty());
    }

    #[test]
    fn date_reassembly_forms() {
        let w = |s: &str| {
            s.split_whitespace()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
        };
        // Table 1's error output for 1991-05-07.
        assert_eq!(
            reassemble_date(&w("may 07 19 91")),
            Some("1991-05-07".into())
        );
        assert_eq!(reassemble_date(&w("may 7 1991")), Some("1991-05-07".into()));
        // Raw spoken words, no recombination at all.
        assert_eq!(
            reassemble_date(&w("january twentieth nineteen ninety three")),
            Some("1993-01-20".into())
        );
        assert_eq!(
            reassemble_date(&w("march twenty first nineteen ninety")),
            Some("1990-03-21".into())
        );
        // Already recombined.
        assert_eq!(reassemble_date(&w("1993-01-20")), Some("1993-01-20".into()));
        // Garbage.
        assert_eq!(reassemble_date(&w("salary from employees")), None);
        assert_eq!(reassemble_date(&w("may")), None);
    }

    #[test]
    fn fragmented_date_recovered_from_domain() {
        use speakql_db::Date as DbDate;
        let mut db = Database::new("dates");
        let mut t = Table::new(TableSchema::new(
            "T",
            vec![Column::new("FromDate", ValueType::Date)],
        ));
        let date = |s: &str| match DbDate::parse(s) {
            Some(d) => d,
            None => panic!("fixture date must parse: {s}"),
        };
        t.push_row(vec![Value::Date(date("1993-01-20"))]);
        t.push_row(vec![Value::Date(date("1991-05-07"))]);
        db.add_table(t);
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
                StructTok::Keyword(Keyword::Where),
                StructTok::Var,
                StructTok::SplChar(SplChar::Eq),
                StructTok::Var,
            ],
            vec![
                Placeholder::attribute(),
                Placeholder::table(),
                Placeholder::attribute(),
                Placeholder::value(Some(2)),
            ],
        );
        let trans = words("select from date from t where from date = may 07 19 91");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[3].literal, "'1991-05-07'");
    }

    #[test]
    fn spoken_number_words_parse() {
        let w = |s: &str| {
            s.split_whitespace()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            parse_number_words(&w("forty five thousand three hundred ten")),
            Some(45310)
        );
        assert_eq!(parse_number_words(&w("seventy thousand")), Some(70000));
        assert_eq!(parse_number_words(&w("ten")), Some(10));
        assert_eq!(parse_number_words(&w("two hundred")), Some(200));
        assert_eq!(parse_number_words(&w("one million one")), Some(1_000_001));
        assert_eq!(parse_number_words(&w("salary from")), None);
    }

    #[test]
    fn limit_from_unrecombined_number_words() {
        let db = fig4_db();
        let catalog = PhoneticCatalog::build(&db);
        let s = Structure::new(
            vec![
                StructTok::Keyword(Keyword::Select),
                StructTok::Var,
                StructTok::Keyword(Keyword::From),
                StructTok::Var,
                StructTok::Keyword(Keyword::Limit),
                StructTok::Var,
            ],
            vec![
                Placeholder::attribute(),
                Placeholder::table(),
                Placeholder::number(),
            ],
        );
        let trans = words("select salary from salaries limit twenty five");
        let filled = LiteralFinder::new(&catalog, &trans).fill(&s);
        assert_eq!(filled[2].literal, "25");
    }

    #[test]
    fn enumerate_strings_window_cap() {
        let trans = words("a b c d");
        let set = enumerate_strings(&trans, 0, 4, 2, PhoneticAlgorithm::Metaphone);
        // 4 singletons + 3 pairs
        assert_eq!(set.len(), 7);
        let set3 = enumerate_strings(&trans, 0, 4, 3, PhoneticAlgorithm::Metaphone);
        assert_eq!(set3.len(), 9);
    }

    /// The tally voting kept before [`VoteTally`]: two hash maps, ranked by
    /// votes descending then literal ascending. Returns every voted entry in
    /// rank order and the winner's last voting position.
    fn reference_ranking(
        idx: &PhoneticIndex,
        votes: &[(Vec<usize>, usize)],
    ) -> (Vec<usize>, usize) {
        let mut count: HashMap<usize, u32> = HashMap::new();
        let mut location: HashMap<usize, usize> = HashMap::new();
        for (winners, last_pos) in votes {
            for &bi in winners {
                *count.entry(bi).or_insert(0) += 1;
                let loc = location.entry(bi).or_insert(0);
                *loc = (*loc).max(*last_pos);
            }
        }
        let mut ranked: Vec<(usize, u32)> = count.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| idx.entries()[a.0].literal.cmp(&idx.entries()[b.0].literal))
        });
        let winner = ranked[0].0;
        (
            ranked.into_iter().map(|(bi, _)| bi).collect(),
            location[&winner],
        )
    }

    proptest::proptest! {
        /// The dense tally ranks exactly as the hash-map tally with literal
        /// compares did, and keeps the winner's last voting position.
        #[test]
        fn dense_tally_matches_reference(
            lits in proptest::collection::vec("[a-e]{1,3}", 1..30),
            raw_votes in proptest::collection::vec(
                (proptest::collection::vec(0usize..30, 1..6), 0usize..12),
                1..24,
            ),
        ) {
            let idx = PhoneticIndex::build(lits);
            // `nearest` hands out ascending, unique winner indices.
            let votes: Vec<(Vec<usize>, usize)> = raw_votes
                .into_iter()
                .map(|(mut winners, pos)| {
                    winners.iter_mut().for_each(|w| *w %= idx.len());
                    winners.sort_unstable();
                    winners.dedup();
                    (winners, pos)
                })
                .collect();
            let mut tally = VoteTally::new(idx.len());
            for (winners, pos) in &votes {
                for &bi in winners {
                    tally.cast(bi, *pos);
                }
            }
            let ranked = tally.ranked().to_vec();
            let (expected, last) = reference_ranking(&idx, &votes);
            proptest::prop_assert_eq!(&ranked, &expected);
            proptest::prop_assert_eq!(tally.last[ranked[0]], last);
        }
    }
}
