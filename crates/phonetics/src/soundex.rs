//! American Soundex — the classic 4-character phonetic code, implemented as
//! an ablation alternative to Metaphone (the paper chose Metaphone; the
//! `ablation_phonetics` experiment measures how much that choice matters).

/// Compute the Soundex code of a word (`R163`-style: initial letter plus
/// three digits). Non-alphabetic characters are ignored; empty input yields
/// an empty string.
pub fn soundex(word: &str) -> String {
    let letters: Vec<char> = word
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_uppercase())
        .collect();
    let Some(&first) = letters.first() else {
        return String::new();
    };

    fn code(c: char) -> u8 {
        match c {
            'B' | 'F' | 'P' | 'V' => 1,
            'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' => 2,
            'D' | 'T' => 3,
            'L' => 4,
            'M' | 'N' => 5,
            'R' => 6,
            // vowels + H, W, Y
            _ => 0,
        }
    }

    let mut out = String::with_capacity(4);
    out.push(first);
    let mut prev_code = code(first);
    for &c in &letters[1..] {
        let k = code(c);
        if k == 0 {
            // Vowels reset the adjacency rule; H/W do not.
            if !matches!(c, 'H' | 'W') {
                prev_code = 0;
            }
            continue;
        }
        // Letters with the same code (possibly separated by H/W) count once.
        if k != prev_code {
            out.push(char::from(b'0' + k));
        }
        prev_code = k;
        if out.len() == 4 {
            break;
        }
    }
    while out.len() < 4 {
        out.push('0');
    }
    out
}

/// The phonetic algorithms available to literal determination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhoneticAlgorithm {
    /// Classic Metaphone — the paper's choice.
    #[default]
    Metaphone,
    /// American Soundex (ablation).
    Soundex,
    /// NYSIIS (ablation).
    Nysiis,
    /// No phonetic condensation: raw lower-cased alphanumerics (ablation —
    /// "string-based similarity search", App. F.7's comparison point).
    Identity,
}

impl PhoneticAlgorithm {
    /// Key an arbitrary literal under this algorithm: alphabetic runs are
    /// encoded, digits pass through, everything else is dropped (the same
    /// contract as [`crate::phonetic_key`]).
    pub fn key(self, literal: &str) -> String {
        match self {
            PhoneticAlgorithm::Metaphone => crate::metaphone::phonetic_key(literal),
            PhoneticAlgorithm::Soundex => key_with(literal, soundex),
            PhoneticAlgorithm::Nysiis => key_with(literal, crate::nysiis::nysiis),
            PhoneticAlgorithm::Identity => literal
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .map(|c| c.to_ascii_lowercase())
                .collect(),
        }
    }
}

fn key_with(literal: &str, mut encode: impl FnMut(&str) -> String) -> String {
    let chars: Vec<char> = literal.chars().collect();
    let mut out = String::with_capacity(literal.len());
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_alphabetic() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_alphabetic() {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            out.push_str(&encode(&word));
        } else if c.is_ascii_digit() {
            out.push(c);
            i += 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_examples() {
        assert_eq!(soundex("Robert"), "R163");
        assert_eq!(soundex("Rupert"), "R163");
        assert_eq!(soundex("Ashcraft"), "A261");
        assert_eq!(soundex("Ashcroft"), "A261");
        assert_eq!(soundex("Tymczak"), "T522");
        assert_eq!(soundex("Pfister"), "P236");
        assert_eq!(soundex("Honeyman"), "H555");
    }

    #[test]
    fn padding_and_empty() {
        assert_eq!(soundex("A"), "A000");
        assert_eq!(soundex(""), "");
        assert_eq!(soundex("123"), "");
    }

    #[test]
    fn schema_homophones() {
        assert_eq!(soundex("Jon"), soundex("John"));
        // Soundex keeps the initial letter, so it *misses* the
        // salary/celery homophony Metaphone catches — exactly the weakness
        // the ablation experiment quantifies.
        assert_ne!(soundex("Salary"), soundex("celery"));
        assert!(metaphone_agrees_on_salary_celery());
    }

    fn metaphone_agrees_on_salary_celery() -> bool {
        crate::metaphone::metaphone("Salary") == crate::metaphone::metaphone("celery")
    }

    #[test]
    fn algorithm_keys() {
        assert_eq!(PhoneticAlgorithm::Metaphone.key("Employees"), "EMPLYS");
        assert_eq!(PhoneticAlgorithm::Soundex.key("Employees"), "E514");
        assert_eq!(PhoneticAlgorithm::Identity.key("'d002'"), "d002");
        assert_eq!(
            PhoneticAlgorithm::Soundex.key("table_123"),
            format!("{}123", soundex("table"))
        );
    }
}
