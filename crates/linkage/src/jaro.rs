//! Jaro and Jaro-Winkler similarity — the standard comparators for short
//! person-name strings in record linkage.

/// Jaro similarity in `[0, 1]`.
///
/// Matches are characters equal within a window of
/// `max(len_a, len_b)/2 - 1`; the score combines match counts and
/// transpositions. Two empty strings score 1.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut a_matches = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_matches.push(ca);
                break;
            }
        }
    }
    if a_matches.is_empty() {
        return 0.0;
    }
    let b_matches = b
        .iter()
        .zip(&b_matched)
        .filter(|(_, &matched)| matched)
        .map(|(&cb, _)| cb);
    let m = a_matches.len() as f64;
    let t = a_matches
        .iter()
        .zip(b_matches)
        .filter(|(&x, y)| x != *y)
        .count() as f64
        / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by up to 4 characters of common
/// prefix with scaling factor `p = 0.1` (the standard constant).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1)
}

/// Jaro-Winkler with an explicit prefix scaling factor `p` (clamped to the
/// valid `[0, 0.25]` range so the score cannot exceed 1).
pub fn jaro_winkler_with(a: &str, b: &str, p: f64) -> f64 {
    let p = p.clamp(0.0, 0.25);
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * p * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_values() {
        // Canonical examples from the record-linkage literature.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.767));
        assert!(close(jaro("JELLYFISH", "SMELLYFISH"), 0.896));
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.961));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.813));
    }

    #[test]
    fn identity_and_disjoint() {
        assert_eq!(jaro("robert", "robert"), 1.0);
        assert_eq!(jaro_winkler("robert", "robert"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn symmetry() {
        for (a, b) in [("martha", "marhta"), ("dwayne", "duane"), ("", "x")] {
            assert!(close(jaro(a, b), jaro(b, a)));
            assert!(close(jaro_winkler(a, b), jaro_winkler(b, a)));
        }
    }

    #[test]
    fn winkler_boosts_common_prefix() {
        // Same Jaro-level difference, but one pair shares a prefix.
        let plain = jaro("abcdef", "abcdxy");
        let boosted = jaro_winkler("abcdef", "abcdxy");
        assert!(boosted > plain);
        // No shared prefix: no boost.
        let a = jaro("xbcdef", "ybcdef");
        let b = jaro_winkler("xbcdef", "ybcdef");
        assert!(close(a, b));
    }

    #[test]
    fn scores_bounded() {
        let words = ["", "a", "ab", "robert", "rupert", "bobby", "roberto"];
        for a in words {
            for b in words {
                let j = jaro(a, b);
                let jw = jaro_winkler(a, b);
                assert!((0.0..=1.0).contains(&j), "jaro({a},{b})={j}");
                assert!((0.0..=1.0).contains(&jw), "jw({a},{b})={jw}");
                assert!(jw >= j - 1e-12, "winkler must not reduce score");
            }
        }
    }

    #[test]
    fn custom_prefix_factor_clamped() {
        // p beyond 0.25 would let scores exceed 1; must be clamped.
        let s = jaro_winkler_with("aaaa", "aaab", 5.0);
        assert!(s <= 1.0);
    }
}
