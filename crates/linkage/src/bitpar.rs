//! Bit-parallel Levenshtein and Jaro-Winkler for short ASCII strings.
//!
//! A string of at most [`MAX_LEN`] bytes fits one machine word of
//! position bits, so both comparators run a word at a time instead of a
//! cell at a time:
//!
//! * **Levenshtein** is Myers' bit-vector algorithm in Hyyrö's
//!   formulation: one pass over the text, a handful of word operations
//!   per text byte, the same integer distance as the two-row dynamic
//!   program of [`crate::edit::levenshtein`]. The similarity is the same
//!   `1 - d / max_len` expression.
//! * **Jaro**'s match search is a mask over the other string's
//!   positions. For each byte of `a` the candidates are the positions of
//!   `b` holding that byte, inside the window and not yet matched; the
//!   lowest such bit is exactly the position the greedy scan of
//!   [`crate::jaro::jaro`] picks. Transpositions are counted over the
//!   matched positions in order, and the score is the reference's float
//!   expression, so the result is the same `f64` to the bit.
//!
//! ASCII bytes are Unicode scalars, so on every input the kernels accept
//! they return bit for bit what the `&str` references return
//! (property-tested); longer or non-ASCII strings are for the references.

/// Longest string (in bytes) the kernels accept: one bit per position of
/// a `u64`.
pub const MAX_LEN: usize = 64;

/// Whether `s` is in the kernels' domain: ASCII and at most [`MAX_LEN`]
/// bytes.
pub fn fits(s: &str) -> bool {
    s.len() <= MAX_LEN && s.is_ascii()
}

/// The per-byte position masks of one string (bit `i` of `masks[c]` set
/// when byte `i` is `c`), loaded for one comparison and cleared after it,
/// so a reused table costs `O(len)` per call instead of a 1 KiB reset.
#[derive(Debug, Clone)]
pub struct PeqTable {
    masks: [u64; 128],
}

impl Default for PeqTable {
    fn default() -> Self {
        PeqTable { masks: [0; 128] }
    }
}

impl PeqTable {
    #[inline]
    fn load(&mut self, s: &[u8]) {
        for (i, &c) in s.iter().enumerate() {
            self.masks[usize::from(c)] |= 1u64 << i;
        }
    }

    #[inline]
    fn unload(&mut self, s: &[u8]) {
        for &c in s {
            self.masks[usize::from(c)] = 0;
        }
    }

    #[inline]
    fn mask(&self, c: u8) -> u64 {
        self.masks[usize::from(c)]
    }
}

/// The lowest `n` bits set (`n <= 64`).
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// [`crate::edit::levenshtein_similarity`] through the bit-parallel
/// kernel; `None` when either string is outside the kernel's domain
/// ([`fits`]).
pub fn levenshtein_similarity(a: &str, b: &str, peq: &mut PeqTable) -> Option<f64> {
    (fits(a) && fits(b)).then(|| levenshtein_similarity_ascii(a.as_bytes(), b.as_bytes(), peq))
}

/// [`crate::jaro::jaro_winkler`] through the bit-parallel kernel; `None`
/// when either string is outside the kernel's domain ([`fits`]).
pub fn jaro_winkler(a: &str, b: &str, peq: &mut PeqTable) -> Option<f64> {
    (fits(a) && fits(b)).then(|| jaro_winkler_ascii(a.as_bytes(), b.as_bytes(), peq))
}

/// Normalized Levenshtein similarity of two ASCII strings of at most
/// [`MAX_LEN`] bytes.
pub(crate) fn levenshtein_similarity_ascii(a: &[u8], b: &[u8], peq: &mut PeqTable) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_ascii(a, b, peq) as f64 / max_len as f64
}

/// Levenshtein distance, Myers / Hyyrö: `a` is the pattern (one bit per
/// position), `b` the text. `pv` / `mv` hold the +1 / -1 vertical
/// deltas of the current DP column; the distance is tracked at the
/// pattern's last row. Bits above `a.len()` carry garbage that additions
/// and shifts only ever move upward, so they never reach the tracked bit.
fn levenshtein_ascii(a: &[u8], b: &[u8], peq: &mut PeqTable) -> usize {
    debug_assert!(a.len() <= MAX_LEN && a.is_ascii() && b.is_ascii());
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    peq.load(a);
    let last = 1u64 << (a.len() - 1);
    let mut pv = u64::MAX;
    let mut mv = 0u64;
    let mut dist = a.len();
    for &c in b {
        let eq = peq.mask(c);
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            dist += 1;
        } else if mh & last != 0 {
            dist -= 1;
        }
        // The DP's top row is 0, 1, 2, ...: every horizontal delta
        // entering at row 0 is +1.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    peq.unload(a);
    dist
}

/// Jaro similarity of two ASCII strings of at most [`MAX_LEN`] bytes.
fn jaro_ascii(a: &[u8], b: &[u8], peq: &mut PeqTable) -> f64 {
    debug_assert!(a.len() <= MAX_LEN && b.len() <= MAX_LEN && a.is_ascii() && b.is_ascii());
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    peq.load(b);
    let mut a_matched = 0u64;
    let mut b_matched = 0u64;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        let free = peq.mask(ca) & low_bits(hi) & !low_bits(lo) & !b_matched;
        if free != 0 {
            // The lowest free position: the greedy scan's first hit.
            b_matched |= free & free.wrapping_neg();
            a_matched |= 1u64 << i;
        }
    }
    peq.unload(b);
    if a_matched == 0 {
        return 0.0;
    }
    let mut mismatched = 0usize;
    let (mut am, mut bm) = (a_matched, b_matched);
    while am != 0 {
        let (i, j) = (am.trailing_zeros() as usize, bm.trailing_zeros() as usize);
        mismatched += usize::from(a[i] != b[j]);
        am &= am - 1;
        bm &= bm - 1;
    }
    let m = a_matched.count_ones() as f64;
    let t = mismatched as f64 / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler (prefix scale 0.1) of two ASCII strings of at most
/// [`MAX_LEN`] bytes.
pub(crate) fn jaro_winkler_ascii(a: &[u8], b: &[u8], peq: &mut PeqTable) -> f64 {
    let p = 0.1;
    let j = jaro_ascii(a, b, peq);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * p * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::levenshtein;

    #[test]
    fn distances_match_the_dynamic_program() {
        let words = [
            "",
            "a",
            "ab",
            "kitten",
            "sitting",
            "robert smith",
            "smith robert",
            "flaw",
            "lawn",
        ];
        let mut peq = PeqTable::default();
        for a in words {
            for b in words {
                assert_eq!(
                    levenshtein_ascii(a.as_bytes(), b.as_bytes(), &mut peq),
                    levenshtein(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // The table is left clean after every call.
        assert!(peq.masks.iter().all(|&m| m == 0));
    }

    #[test]
    fn full_width_strings_use_the_top_bit() {
        let a = "a".repeat(64);
        let b = format!("{}b", "a".repeat(63));
        let mut peq = PeqTable::default();
        assert_eq!(
            levenshtein_similarity(&a, &b, &mut peq),
            Some(1.0 - 1.0 / 64.0)
        );
        assert_eq!(levenshtein_similarity(&a, &a, &mut peq), Some(1.0));
        assert_eq!(jaro_winkler(&a, &a, &mut peq), Some(1.0));
    }

    #[test]
    fn out_of_domain_inputs_are_refused() {
        let mut peq = PeqTable::default();
        let long = "x".repeat(65);
        assert_eq!(levenshtein_similarity(&long, "x", &mut peq), None);
        assert_eq!(jaro_winkler("x", &long, &mut peq), None);
        assert_eq!(jaro_winkler("café", "cafe", &mut peq), None);
        assert!(fits("") && fits(&"y".repeat(64)) && !fits("é"));
    }
}
