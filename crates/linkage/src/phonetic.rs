//! Phonetic encodings: Soundex and a Metaphone-style simplified code.
//!
//! Phonetic codes power blocking (candidate generation) — two spellings of
//! the same surname usually share a code even when edit distance is large.

/// American Soundex: first letter plus three digits.
///
/// Returns `None` for inputs with no ASCII-alphabetic characters.
pub fn soundex(s: &str) -> Option<String> {
    soundex_code(s.as_bytes()).map(|code| code.iter().map(|&b| char::from(b)).collect())
}

/// [`soundex`] over the bytes of a string, as four ASCII bytes and
/// without allocating. Only ASCII letters count, and no byte of a
/// multi-byte UTF-8 character is one, so any string's bytes give its
/// [`soundex`].
pub(crate) fn soundex_code(s: &[u8]) -> Option<[u8; 4]> {
    fn code(c: u8) -> u8 {
        match c {
            b'B' | b'F' | b'P' | b'V' => 1,
            b'C' | b'G' | b'J' | b'K' | b'Q' | b'S' | b'X' | b'Z' => 2,
            b'D' | b'T' => 3,
            b'L' => 4,
            b'M' | b'N' => 5,
            b'R' => 6,
            _ => 0, // vowels + H, W, Y
        }
    }

    let mut letters = s
        .iter()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_uppercase());
    let first = letters.next()?;
    let mut out = [first, b'0', b'0', b'0'];
    let mut len = 1;
    let mut last_code = code(first);
    for c in letters {
        let k = code(c);
        // H and W are transparent: they do not reset the previous code.
        if c == b'H' || c == b'W' {
            continue;
        }
        if k != 0 && k != last_code {
            out[len] = b'0' + k;
            len += 1;
            if len == 4 {
                break;
            }
        }
        last_code = k;
    }
    Some(out)
}

/// A simplified Metaphone-style consonant-skeleton code: maps the word to a
/// compact phonetic consonant string (length-capped at 6). Coarser than
/// real Metaphone but distinguishes more than Soundex while still merging
/// common spelling variants.
pub fn phonetic_skeleton(s: &str) -> Option<String> {
    let lower: Vec<char> = s
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    if lower.is_empty() {
        return None;
    }
    let mut out = String::new();
    let mut i = 0;
    while i < lower.len() && out.len() < 6 {
        let c = lower[i];
        let next = lower.get(i + 1).copied();
        let mapped: Option<char> = match c {
            // Digraph handling first.
            'p' if next == Some('h') => {
                i += 1;
                Some('f')
            }
            's' if next == Some('h') => {
                i += 1;
                Some('x') // "sh" sound
            }
            'c' if next == Some('h') => {
                i += 1;
                Some('x')
            }
            'c' if matches!(next, Some('e') | Some('i') | Some('y')) => Some('s'),
            'c' => Some('k'),
            'q' => Some('k'),
            'x' => Some('k'),
            'g' if next == Some('h') => {
                i += 1;
                Some('k')
            }
            'd' if next == Some('g') => {
                i += 1;
                Some('j')
            }
            'z' => Some('s'),
            'w' | 'h' | 'y' => None,
            'a' | 'e' | 'i' | 'o' | 'u' => {
                if out.is_empty() {
                    Some('a') // leading vowel kept as canonical 'a'
                } else {
                    None
                }
            }
            other => Some(other),
        };
        if let Some(m) = mapped {
            // Collapse doubled output codes.
            if !out.ends_with(m) {
                out.push(m);
            }
        }
        i += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soundex_textbook_values() {
        assert_eq!(soundex("Robert").as_deref(), Some("R163"));
        assert_eq!(soundex("Rupert").as_deref(), Some("R163"));
        assert_eq!(soundex("Ashcraft").as_deref(), Some("A261"));
        assert_eq!(soundex("Ashcroft").as_deref(), Some("A261"));
        assert_eq!(soundex("Tymczak").as_deref(), Some("T522"));
        assert_eq!(soundex("Pfister").as_deref(), Some("P236"));
        assert_eq!(soundex("Honeyman").as_deref(), Some("H555"));
    }

    #[test]
    fn soundex_merges_spelling_variants() {
        assert_eq!(soundex("Smith"), soundex("Smyth"));
        assert_eq!(soundex("Ganta"), soundex("Gantha"));
    }

    #[test]
    fn soundex_edge_cases() {
        assert_eq!(soundex(""), None);
        assert_eq!(soundex("123"), None);
        assert_eq!(soundex("A").as_deref(), Some("A000"));
        assert_eq!(soundex("  o'Brien ").as_deref(), Some("O165"));
        // Case-insensitive.
        assert_eq!(soundex("ROBERT"), soundex("robert"));
    }

    #[test]
    fn skeleton_merges_phonetic_variants() {
        assert_eq!(phonetic_skeleton("Philip"), phonetic_skeleton("Filip"));
        assert_eq!(
            phonetic_skeleton("Catherine"),
            phonetic_skeleton("Katherine")
        );
        assert_eq!(phonetic_skeleton("Zara"), phonetic_skeleton("Sara"));
    }

    #[test]
    fn skeleton_distinguishes_different_names() {
        assert_ne!(phonetic_skeleton("Robert"), phonetic_skeleton("Alice"));
        assert_ne!(phonetic_skeleton("Ganta"), phonetic_skeleton("Acharya"));
    }

    #[test]
    fn skeleton_edge_cases() {
        assert_eq!(phonetic_skeleton(""), None);
        assert_eq!(phonetic_skeleton("!!!"), None);
        assert!(phonetic_skeleton("Aeiou").is_some());
        // Length capped.
        let code = phonetic_skeleton("Brobdingnagian").unwrap();
        assert!(code.len() <= 6);
    }

    #[test]
    fn skeleton_collapses_doubles() {
        assert_eq!(phonetic_skeleton("Bobby"), phonetic_skeleton("Boby"));
        assert_eq!(phonetic_skeleton("Anna"), phonetic_skeleton("Ana"));
    }
}
