//! Edit-distance string comparators.

/// Levenshtein distance (insertions, deletions, substitutions), computed
/// with a two-row dynamic program over Unicode scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Optimal string alignment distance: Levenshtein plus transposition of two
/// adjacent characters (each substring may be edited at most once).
pub fn damerau_osa(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let w = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * w];
    for i in 0..=a.len() {
        d[i * w] = i;
    }
    for (j, cell) in d.iter_mut().enumerate().take(b.len() + 1) {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * w + j] + 1)
                .min(d[i * w + j - 1] + 1)
                .min(d[(i - 1) * w + j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * w + j - 2] + 1);
            }
            d[i * w + j] = best;
        }
    }
    d[a.len() * w + b.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 - distance / max(len_a, len_b)`. Two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_is_per_scalar() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn osa_counts_transpositions_once() {
        assert_eq!(levenshtein("ca", "ac"), 2);
        assert_eq!(damerau_osa("ca", "ac"), 1);
        assert_eq!(damerau_osa("robert", "robret"), 1); // adjacent swap
        assert_eq!(damerau_osa("kitten", "sitting"), 3);
        assert_eq!(damerau_osa("", "ab"), 2);
    }

    #[test]
    fn symmetry() {
        let pairs = [("ganta", "gupta"), ("alice", "alicia"), ("x", "")];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert_eq!(damerau_osa(a, b), damerau_osa(b, a));
        }
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let words = ["robert", "rupert", "rober", "robber", ""];
        for a in words {
            for b in words {
                for c in words {
                    assert!(
                        levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c),
                        "triangle violated for ({a}, {b}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn normalized_similarity() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("robert", "rupert");
        assert!(s > 0.4 && s < 0.8, "got {s}");
    }
}
