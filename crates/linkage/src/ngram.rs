//! Character n-gram set similarities (Jaccard, Dice, cosine).

use std::collections::HashMap;

/// Multiset of character n-grams of a string, with `#` padding at both ends
/// (so single-character strings still produce grams for `n >= 2`).
pub fn ngrams(s: &str, n: usize) -> HashMap<String, usize> {
    let mut out = HashMap::new();
    if n == 0 {
        return out;
    }
    let padded: Vec<char> = std::iter::repeat_n('#', n - 1)
        .chain(s.chars())
        .chain(std::iter::repeat_n('#', n - 1))
        .collect();
    if padded.len() < n {
        return out;
    }
    for w in padded.windows(n) {
        let gram: String = w.iter().collect();
        *out.entry(gram).or_insert(0) += 1;
    }
    out
}

fn intersection_size(a: &HashMap<String, usize>, b: &HashMap<String, usize>) -> usize {
    a.iter()
        .map(|(g, &ca)| ca.min(b.get(g).copied().unwrap_or(0)))
        .sum()
}

fn total(a: &HashMap<String, usize>) -> usize {
    a.values().sum()
}

/// Jaccard similarity of n-gram multisets: `|A ∩ B| / |A ∪ B|`.
pub fn jaccard(a: &str, b: &str, n: usize) -> f64 {
    let (ga, gb) = (ngrams(a, n), ngrams(b, n));
    let inter = intersection_size(&ga, &gb);
    let union = total(&ga) + total(&gb) - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Sørensen-Dice coefficient of n-gram multisets: `2|A ∩ B| / (|A| + |B|)`.
pub fn dice(a: &str, b: &str, n: usize) -> f64 {
    let (ga, gb) = (ngrams(a, n), ngrams(b, n));
    let denom = total(&ga) + total(&gb);
    if denom == 0 {
        return 1.0;
    }
    2.0 * intersection_size(&ga, &gb) as f64 / denom as f64
}

/// Cosine similarity of n-gram count vectors.
pub fn cosine(a: &str, b: &str, n: usize) -> f64 {
    let (ga, gb) = (ngrams(a, n), ngrams(b, n));
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let dot: f64 = ga
        .iter()
        .map(|(g, &ca)| ca as f64 * gb.get(g).copied().unwrap_or(0) as f64)
        .sum();
    let na: f64 = ga.values().map(|&c| (c * c) as f64).sum::<f64>().sqrt();
    let nb: f64 = gb.values().map(|&c| (c * c) as f64).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigrams_with_padding() {
        let g = ngrams("ab", 2);
        // #a, ab, b#
        assert_eq!(g.len(), 3);
        assert_eq!(g["ab"], 1);
        assert_eq!(g["#a"], 1);
        assert_eq!(g["b#"], 1);
    }

    #[test]
    fn repeated_grams_counted() {
        let g = ngrams("aaa", 2);
        assert_eq!(g["aa"], 2);
    }

    #[test]
    fn single_char_with_bigrams() {
        let g = ngrams("a", 2);
        assert_eq!(g.len(), 2); // #a, a#
    }

    #[test]
    fn zero_n_is_empty() {
        assert!(ngrams("abc", 0).is_empty());
        assert_eq!(jaccard("abc", "abc", 0), 1.0);
    }

    #[test]
    fn identity_scores_one() {
        for f in [jaccard, dice, cosine] {
            assert!((f("robert", "robert", 2) - 1.0).abs() < 1e-12);
            assert!((f("", "", 2) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_scores_zero() {
        assert_eq!(jaccard("aaa", "bbb", 2), 0.0);
        assert_eq!(dice("aaa", "bbb", 2), 0.0);
        assert_eq!(cosine("aaa", "bbb", 2), 0.0);
    }

    #[test]
    fn dice_geq_jaccard() {
        // Dice >= Jaccard always (equality iff 0 or 1).
        let pairs = [("robert", "rupert"), ("night", "nacht"), ("ab", "ba")];
        for (a, b) in pairs {
            let j = jaccard(a, b, 2);
            let d = dice(a, b, 2);
            assert!(d >= j, "dice {d} < jaccard {j} for ({a}, {b})");
        }
    }

    #[test]
    fn similar_names_score_high() {
        assert!(dice("christine", "christina", 2) > 0.7);
        assert!(jaccard("christine", "christina", 2) > 0.5);
        assert!(cosine("christine", "christina", 2) > 0.7);
        assert!(dice("christine", "robert", 2) < 0.3);
    }

    #[test]
    fn symmetry_and_bounds() {
        let words = ["", "a", "bob", "robert", "roberto"];
        for a in words {
            for b in words {
                for f in [jaccard, dice, cosine] {
                    let s1 = f(a, b, 2);
                    let s2 = f(b, a, 2);
                    assert!((s1 - s2).abs() < 1e-12);
                    assert!((0.0..=1.0 + 1e-12).contains(&s1));
                }
            }
        }
    }
}
