//! Name normalization: the preprocessing step before any comparison.
//!
//! Web pages spell the same person many ways — `"Dr. Robert K. Smith"`,
//! `"smith, robert"`, `"Bob Smith"`. Normalization lowercases, strips
//! punctuation and titles, expands common nicknames and produces both a
//! token list and a canonical sorted form.

use std::collections::HashMap;

/// Common English nickname → formal-name expansions used by
/// [`NameNormalizer`].
pub const NICKNAMES: &[(&str, &str)] = &[
    ("bob", "robert"),
    ("bobby", "robert"),
    ("rob", "robert"),
    ("bert", "robert"),
    ("bill", "william"),
    ("billy", "william"),
    ("will", "william"),
    ("liz", "elizabeth"),
    ("beth", "elizabeth"),
    ("betty", "elizabeth"),
    ("dick", "richard"),
    ("rick", "richard"),
    ("rich", "richard"),
    ("jim", "james"),
    ("jimmy", "james"),
    ("mike", "michael"),
    ("mick", "michael"),
    ("tom", "thomas"),
    ("tommy", "thomas"),
    ("tony", "anthony"),
    ("chris", "christine"),
    ("christy", "christine"),
    ("tina", "christine"),
    ("kate", "katherine"),
    ("kathy", "katherine"),
    ("katie", "katherine"),
    ("alex", "alexander"),
    ("sandy", "alexander"),
    ("dan", "daniel"),
    ("danny", "daniel"),
    ("dave", "david"),
    ("ed", "edward"),
    ("eddie", "edward"),
    ("ted", "edward"),
    ("joe", "joseph"),
    ("joey", "joseph"),
    ("meg", "margaret"),
    ("peggy", "margaret"),
    ("ali", "alice"),
    ("sam", "samuel"),
    ("steve", "steven"),
    ("sue", "susan"),
    ("suzy", "susan"),
    ("pat", "patricia"),
    ("patty", "patricia"),
    ("andy", "andrew"),
    ("drew", "andrew"),
    ("nick", "nicholas"),
    ("matt", "matthew"),
    ("greg", "gregory"),
    ("jen", "jennifer"),
    ("jenny", "jennifer"),
    ("becky", "rebecca"),
    ("vicky", "victoria"),
];

/// Honorifics and suffixes dropped during normalization.
const TITLES: &[&str] = &[
    "mr",
    "mrs",
    "ms",
    "miss",
    "dr",
    "prof",
    "professor",
    "sir",
    "madam",
    "jr",
    "sr",
    "ii",
    "iii",
    "iv",
    "phd",
    "md",
    "esq",
];

/// A configurable name normalizer.
#[derive(Debug, Clone)]
pub struct NameNormalizer {
    nicknames: HashMap<String, String>,
    expand_nicknames: bool,
}

/// Every derived linkage key of one name, computed once per record by
/// [`NameNormalizer::prepare`] and reused across all of that record's
/// candidate pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedName {
    /// Normalized tokens in original order.
    pub tokens: Vec<String>,
    /// Tokens joined in original order (feed to order-sensitive
    /// comparators like Jaro-Winkler).
    pub joined: String,
    /// Tokens sorted and joined (order-insensitive canonical form).
    pub canonical: String,
    /// Soundex code of the last token, when computable.
    pub surname_soundex: Option<String>,
}

impl Default for NameNormalizer {
    fn default() -> Self {
        NameNormalizer::new()
    }
}

impl NameNormalizer {
    /// Creates a normalizer with the built-in nickname table.
    pub fn new() -> Self {
        NameNormalizer {
            nicknames: NICKNAMES
                .iter()
                .map(|&(nick, full)| (nick.to_owned(), full.to_owned()))
                .collect(),
            expand_nicknames: true,
        }
    }

    /// Disables nickname expansion (for ablation experiments).
    pub fn without_nicknames(mut self) -> Self {
        self.expand_nicknames = false;
        self
    }

    /// Adds a custom nickname expansion.
    pub fn with_nickname(mut self, nick: &str, full: &str) -> Self {
        self.nicknames
            .insert(nick.to_lowercase(), full.to_lowercase());
        self
    }

    /// Normalizes a raw name into cleaned tokens, in original order.
    ///
    /// Steps: lowercase → strip non-alphanumeric (commas, periods,
    /// apostrophes) → drop titles/suffixes → expand nicknames.
    pub fn tokens(&self, raw: &str) -> Vec<String> {
        let mut out = Vec::new();
        for token in raw.split(|c: char| !c.is_alphanumeric() && c != '\'') {
            let cleaned: String = token
                .chars()
                .filter(|c| c.is_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            if cleaned.is_empty() || Self::is_title(&cleaned) {
                continue;
            }
            out.push(match self.expansion(&cleaned) {
                Some(full) => full.to_owned(),
                None => cleaned,
            });
        }
        out
    }

    /// The expansion [`tokens`](Self::tokens) substitutes for one
    /// cleaned, non-title token, if any.
    pub(crate) fn expansion(&self, cleaned: &str) -> Option<&str> {
        if !self.expand_nicknames {
            return None;
        }
        self.nicknames.get(cleaned).map(String::as_str)
    }

    /// Whether [`tokens`](Self::tokens) drops a cleaned token as a title
    /// or suffix.
    pub(crate) fn is_title(cleaned: &str) -> bool {
        TITLES.contains(&cleaned)
    }

    /// Canonical form: normalized tokens sorted and joined with single
    /// spaces. `"Smith, Dr. Robert"` and `"Bob Smith"` both canonicalize to
    /// `"robert smith"`.
    pub fn canonical(&self, raw: &str) -> String {
        let mut tokens = self.tokens(raw);
        tokens.sort();
        tokens.join(" ")
    }

    /// Normalized tokens joined in original order (no sorting) — the form
    /// to feed order-sensitive comparators like Jaro-Winkler.
    pub fn joined(&self, raw: &str) -> String {
        self.tokens(raw).join(" ")
    }

    /// Precomputes every derived key for one raw name: the comparison and
    /// blocking hot paths then read cached fields instead of re-running
    /// normalize/tokenize/Soundex once per candidate *pair*.
    pub fn prepare(&self, raw: &str) -> PreparedName {
        let tokens = self.tokens(raw);
        let joined = tokens.join(" ");
        let mut sorted = tokens.clone();
        sorted.sort();
        let canonical = sorted.join(" ");
        let surname_soundex = tokens.last().and_then(|t| crate::phonetic::soundex(t));
        PreparedName {
            tokens,
            joined,
            canonical,
            surname_soundex,
        }
    }

    /// [`prepare`](Self::prepare) over a whole record list — the batch
    /// entry point the linker and blocking layers share.
    pub fn prepare_all(&self, names: &[String]) -> Vec<PreparedName> {
        names.iter().map(|n| self.prepare(n)).collect()
    }

    /// Whether a token looks like a bare initial (single letter).
    pub fn is_initial(token: &str) -> bool {
        token.chars().count() == 1 && token.chars().all(|c| c.is_alphabetic())
    }

    /// Compatibility of two token lists under initial-matching: every
    /// initial matches any token with that first letter; full tokens must
    /// appear in the other list. Used as a high-precision pre-filter.
    pub fn tokens_compatible(a: &[String], b: &[String]) -> bool {
        let ok = |xs: &[String], ys: &[String]| {
            xs.iter().all(|x| {
                if Self::is_initial(x) {
                    ys.iter().any(|y| y.chars().next() == x.chars().next())
                } else {
                    ys.iter().any(|y| {
                        y == x || (Self::is_initial(y) && y.chars().next() == x.chars().next())
                    })
                }
            })
        };
        ok(a, b) && ok(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_titles_punctuation_case() {
        let n = NameNormalizer::new();
        assert_eq!(
            n.tokens("Dr. Robert K. Smith, Jr."),
            vec!["robert", "k", "smith"]
        );
        assert_eq!(n.joined("SMITH, Robert"), "smith robert");
        assert_eq!(n.canonical("SMITH, Robert"), "robert smith");
    }

    #[test]
    fn nickname_expansion() {
        let n = NameNormalizer::new();
        assert_eq!(n.canonical("Bob Smith"), n.canonical("Robert Smith"));
        assert_eq!(n.canonical("Liz Jones"), n.canonical("Elizabeth Jones"));
        let off = NameNormalizer::new().without_nicknames();
        assert_ne!(off.canonical("Bob Smith"), off.canonical("Robert Smith"));
    }

    #[test]
    fn custom_nicknames() {
        let n = NameNormalizer::new().with_nickname("ranjit", "srivatsava");
        assert_eq!(n.canonical("Ranjit Ganta"), "ganta srivatsava");
    }

    #[test]
    fn apostrophes_and_hyphens() {
        let n = NameNormalizer::new();
        assert_eq!(n.tokens("O'Brien"), vec!["o'brien".replace('\'', "")]);
        assert_eq!(n.tokens("Mary-Jane Watson"), vec!["mary", "jane", "watson"]);
    }

    #[test]
    fn empty_and_junk() {
        let n = NameNormalizer::new();
        assert!(n.tokens("").is_empty());
        assert!(n.tokens("...  ,, ").is_empty());
        assert!(n.tokens("Dr. Prof.").is_empty());
        assert_eq!(n.canonical(""), "");
    }

    #[test]
    fn initials() {
        assert!(NameNormalizer::is_initial("r"));
        assert!(!NameNormalizer::is_initial("ro"));
        assert!(!NameNormalizer::is_initial("1"));
    }

    #[test]
    fn initial_compatibility() {
        let n = NameNormalizer::new();
        let a = n.tokens("R. Ganta");
        let b = n.tokens("Ranjit Ganta");
        assert!(NameNormalizer::tokens_compatible(&a, &b));
        let c = n.tokens("S. Ganta");
        assert!(!NameNormalizer::tokens_compatible(&c, &b));
        // Full-token mismatch fails.
        let d = n.tokens("Ranjit Gupta");
        assert!(!NameNormalizer::tokens_compatible(&d, &b));
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let n = NameNormalizer::new();
        assert_eq!(n.canonical("Ganta, Ranjit"), n.canonical("Ranjit Ganta"));
    }
}
