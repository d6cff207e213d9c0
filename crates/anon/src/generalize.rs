//! Generalization hierarchies and full-domain generalization
//! (Samarati/Sweeney-style, reference \[2\] of the paper).
//!
//! A [`Hierarchy`] maps each leaf value to a fixed path of increasingly
//! general labels ending at the root `*`. Numeric attributes use
//! [`NumericHierarchy`], which coarsens values into aligned bins whose width
//! doubles per level. [`FullDomain`] is a Datafly-style anonymizer: it
//! repeatedly generalizes the attribute with the most distinct values until
//! every equivalence class reaches size `k` (suppressing up to a bounded
//! number of outliers), then reports the induced [`Partition`].

use crate::anonymizer::Anonymizer;
use crate::error::{AnonError, Result};
use crate::partition::Partition;
use fred_data::{Table, Value};
use std::collections::HashMap;

/// A value-generalization hierarchy for a categorical attribute.
///
/// Level 0 is the leaf value itself; the last level is the root (`*` by
/// convention). All leaves must share the same path length.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    paths: HashMap<String, Vec<String>>,
    levels: usize,
}

impl Hierarchy {
    /// Builds a hierarchy from `(leaf, path)` pairs where `path[0] == leaf`.
    pub fn new(paths: Vec<(String, Vec<String>)>) -> Result<Self> {
        let mut map = HashMap::with_capacity(paths.len());
        let mut levels = 0usize;
        for (leaf, path) in paths {
            if path.is_empty() {
                return Err(AnonError::InvalidHierarchy(format!(
                    "empty path for `{leaf}`"
                )));
            }
            if path[0] != leaf {
                return Err(AnonError::InvalidHierarchy(format!(
                    "path for `{leaf}` must start with the leaf itself"
                )));
            }
            if levels == 0 {
                levels = path.len();
            } else if path.len() != levels {
                return Err(AnonError::InvalidHierarchy(format!(
                    "path for `{leaf}` has {} levels, expected {levels}",
                    path.len()
                )));
            }
            if map.insert(leaf.clone(), path).is_some() {
                return Err(AnonError::InvalidHierarchy(format!(
                    "duplicate leaf `{leaf}`"
                )));
            }
        }
        if levels == 0 {
            return Err(AnonError::InvalidHierarchy(
                "hierarchy has no leaves".into(),
            ));
        }
        Ok(Hierarchy { paths: map, levels })
    }

    /// Convenience constructor: a two-level hierarchy `leaf -> group -> *`.
    pub fn two_level(groups: &[(&str, &[&str])]) -> Result<Self> {
        let mut paths = Vec::new();
        for (group, leaves) in groups {
            for leaf in *leaves {
                paths.push((
                    (*leaf).to_owned(),
                    vec![(*leaf).to_owned(), (*group).to_owned(), "*".to_owned()],
                ));
            }
        }
        Hierarchy::new(paths)
    }

    /// Number of levels including leaf (0) and root.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Generalizes `value` to `level`. Unknown values generalize to the root
    /// at any level > 0 and stay themselves at level 0.
    pub fn generalize(&self, value: &str, level: usize) -> Result<String> {
        if level >= self.levels {
            return Err(AnonError::LevelOutOfRange {
                level,
                max: self.levels - 1,
            });
        }
        match self.paths.get(value) {
            Some(path) => Ok(path[level].clone()),
            None if level == 0 => Ok(value.to_owned()),
            None => Ok(self
                .paths
                .values()
                .next()
                .map(|p| p[self.levels - 1].clone())
                .unwrap_or_else(|| "*".into())),
        }
    }
}

/// A binning hierarchy for numeric attributes.
///
/// Level 0 keeps the exact value. Level `l >= 1` maps the value into a bin
/// of width `base_width * 2^(l-1)` aligned at `origin`. The top level is the
/// full range.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHierarchy {
    origin: f64,
    base_width: f64,
    levels: usize,
}

impl NumericHierarchy {
    /// Creates a numeric hierarchy; `levels` counts all levels including the
    /// exact level 0, so it must be at least 2 to allow any generalization.
    pub fn new(origin: f64, base_width: f64, levels: usize) -> Result<Self> {
        if base_width <= 0.0 || !base_width.is_finite() {
            return Err(AnonError::InvalidHierarchy(format!(
                "base width must be positive, got {base_width}"
            )));
        }
        if levels < 2 {
            return Err(AnonError::InvalidHierarchy("need at least 2 levels".into()));
        }
        Ok(NumericHierarchy {
            origin,
            base_width,
            levels,
        })
    }

    /// Number of levels including the exact level 0.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Bin label covering `x` at `level` as a half-open range `[lo, hi)`
    /// rendered `lo..hi`; level 0 renders the value itself.
    pub fn generalize(&self, x: f64, level: usize) -> Result<String> {
        if level >= self.levels {
            return Err(AnonError::LevelOutOfRange {
                level,
                max: self.levels - 1,
            });
        }
        if level == 0 {
            return Ok(format!("{x}"));
        }
        let width = self.base_width * f64::powi(2.0, (level - 1) as i32);
        let bin = ((x - self.origin) / width).floor();
        let lo = self.origin + bin * width;
        Ok(format!("{lo}..{}", lo + width))
    }
}

/// Per-attribute hierarchy: numeric or categorical.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeHierarchy {
    /// Numeric binning hierarchy.
    Numeric(NumericHierarchy),
    /// Categorical path hierarchy.
    Categorical(Hierarchy),
}

impl AttributeHierarchy {
    /// Number of levels.
    pub fn levels(&self) -> usize {
        match self {
            AttributeHierarchy::Numeric(h) => h.levels(),
            AttributeHierarchy::Categorical(h) => h.levels(),
        }
    }

    /// Generalized label of a cell at `level`.
    pub fn generalize_value(&self, value: &Value, level: usize) -> Result<String> {
        match self {
            AttributeHierarchy::Numeric(h) => {
                let x = value.as_f64().ok_or_else(|| {
                    AnonError::InvalidHierarchy("numeric hierarchy over non-numeric cell".into())
                })?;
                h.generalize(x, level)
            }
            AttributeHierarchy::Categorical(h) => {
                let s = value.as_str().ok_or_else(|| {
                    AnonError::InvalidHierarchy("categorical hierarchy over non-text cell".into())
                })?;
                h.generalize(s, level)
            }
        }
    }
}

/// Datafly-style full-domain generalization anonymizer.
///
/// At each step, equivalence classes are induced by the generalized QI
/// signature. If the rows in sub-`k` classes number at most
/// `max_suppressed`, those rows are suppressed (becoming singleton classes
/// in the reported partition — the discernibility metric then charges them
/// the `|D|·|E|` outlier penalty exactly as the paper's metric prescribes);
/// otherwise the attribute with the most distinct generalized values is
/// generalized one more level.
#[derive(Debug, Clone)]
pub struct FullDomain {
    hierarchies: Vec<AttributeHierarchy>,
    max_suppressed: usize,
}

impl FullDomain {
    /// Creates a full-domain anonymizer. `hierarchies` must align 1:1 with
    /// the table's quasi-identifier columns (in schema order).
    pub fn new(hierarchies: Vec<AttributeHierarchy>, max_suppressed: usize) -> Self {
        FullDomain {
            hierarchies,
            max_suppressed,
        }
    }

    /// The generalization levels chosen by the most recent run are not
    /// stored (the anonymizer is stateless); this helper recomputes the
    /// signature table for inspection.
    pub fn signatures(&self, table: &Table, levels: &[usize]) -> Result<Vec<Vec<String>>> {
        let qi = table.schema().quasi_identifier_indices();
        if qi.len() != self.hierarchies.len() {
            return Err(AnonError::InvalidHierarchy(format!(
                "{} hierarchies for {} quasi-identifiers",
                self.hierarchies.len(),
                qi.len()
            )));
        }
        let mut out = Vec::with_capacity(table.len());
        for row in table.rows() {
            let mut sig = Vec::with_capacity(qi.len());
            for (h, &c) in self.hierarchies.iter().zip(&qi) {
                sig.push(
                    h.generalize_value(&row[c], levels[qi.iter().position(|&x| x == c).unwrap()])?,
                );
            }
            out.push(sig);
        }
        Ok(out)
    }
}

impl Anonymizer for FullDomain {
    fn name(&self) -> &'static str {
        "full-domain"
    }

    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        if k == 0 {
            return Err(AnonError::InvalidK(k));
        }
        if table.len() < k {
            return Err(AnonError::NotEnoughRows {
                rows: table.len(),
                k,
            });
        }
        let qi = table.schema().quasi_identifier_indices();
        if qi.is_empty() {
            return Err(AnonError::NoQuasiIdentifiers);
        }
        if qi.len() != self.hierarchies.len() {
            return Err(AnonError::InvalidHierarchy(format!(
                "{} hierarchies for {} quasi-identifiers",
                self.hierarchies.len(),
                qi.len()
            )));
        }
        let mut levels = vec![0usize; qi.len()];
        loop {
            let sigs = self.signatures(table, &levels)?;
            let mut groups: HashMap<&[String], Vec<usize>> = HashMap::new();
            for (row, sig) in sigs.iter().enumerate() {
                groups.entry(sig.as_slice()).or_default().push(row);
            }
            let small: usize = groups
                .values()
                .filter(|rows| rows.len() < k)
                .map(|rows| rows.len())
                .sum();
            if small <= self.max_suppressed {
                // Done: sub-k rows become suppressed singletons.
                let mut classes: Vec<Vec<usize>> = Vec::new();
                for rows in groups.into_values() {
                    if rows.len() >= k {
                        classes.push(rows);
                    } else {
                        for r in rows {
                            classes.push(vec![r]);
                        }
                    }
                }
                // Deterministic order: by smallest member.
                classes.sort_by_key(|c| *c.iter().min().unwrap());
                return Partition::new(classes, table.len());
            }
            // Generalize the attribute with the most distinct values that
            // still has headroom.
            let mut best: Option<(usize, usize)> = None; // (distinct, attr)
            for (a, h) in self.hierarchies.iter().enumerate() {
                if levels[a] + 1 >= h.levels() {
                    continue;
                }
                let mut distinct: Vec<&String> = sigs.iter().map(|s| &s[a]).collect();
                distinct.sort();
                distinct.dedup();
                let d = distinct.len();
                if best.is_none_or(|(bd, _)| d > bd) {
                    best = Some((d, a));
                }
            }
            match best {
                Some((_, a)) => levels[a] += 1,
                None => {
                    // Everything at root and still sub-k groups beyond the
                    // suppression budget: suppress them anyway (root
                    // signature is identical for all, so this only happens
                    // when max_suppressed < rows in sub-k classes with all
                    // QIs at root — i.e. never for k <= n; defensive path).
                    let mut classes: Vec<Vec<usize>> = Vec::new();
                    for rows in groups.into_values() {
                        if rows.len() >= k {
                            classes.push(rows);
                        } else {
                            for r in rows {
                                classes.push(vec![r]);
                            }
                        }
                    }
                    classes.sort_by_key(|c| *c.iter().min().unwrap());
                    return Partition::new(classes, table.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    fn hierarchy() -> Hierarchy {
        Hierarchy::two_level(&[
            ("Europe", &["France", "Germany"]),
            ("Asia", &["Japan", "India"]),
        ])
        .unwrap()
    }

    #[test]
    fn hierarchy_paths() {
        let h = hierarchy();
        assert_eq!(h.levels(), 3);
        assert_eq!(h.generalize("France", 0).unwrap(), "France");
        assert_eq!(h.generalize("France", 1).unwrap(), "Europe");
        assert_eq!(h.generalize("France", 2).unwrap(), "*");
        assert_eq!(h.generalize("Japan", 1).unwrap(), "Asia");
        assert!(h.generalize("France", 3).is_err());
        // Unknown value: itself at level 0, root above.
        assert_eq!(h.generalize("Mars", 0).unwrap(), "Mars");
        assert_eq!(h.generalize("Mars", 1).unwrap(), "*");
    }

    #[test]
    fn hierarchy_validation() {
        assert!(Hierarchy::new(vec![]).is_err());
        assert!(Hierarchy::new(vec![("a".into(), vec![])]).is_err());
        assert!(Hierarchy::new(vec![("a".into(), vec!["b".into()])]).is_err());
        assert!(Hierarchy::new(vec![
            ("a".into(), vec!["a".into(), "*".into()]),
            ("b".into(), vec!["b".into()]),
        ])
        .is_err());
        assert!(Hierarchy::new(vec![
            ("a".into(), vec!["a".into(), "*".into()]),
            ("a".into(), vec!["a".into(), "*".into()]),
        ])
        .is_err());
    }

    #[test]
    fn numeric_hierarchy_bins_double() {
        let h = NumericHierarchy::new(0.0, 10.0, 4).unwrap();
        assert_eq!(h.generalize(37.0, 0).unwrap(), "37");
        assert_eq!(h.generalize(37.0, 1).unwrap(), "30..40");
        assert_eq!(h.generalize(37.0, 2).unwrap(), "20..40");
        assert_eq!(h.generalize(37.0, 3).unwrap(), "0..40");
        assert!(h.generalize(37.0, 4).is_err());
        assert!(NumericHierarchy::new(0.0, 0.0, 3).is_err());
        assert!(NumericHierarchy::new(0.0, 1.0, 1).is_err());
    }

    fn people_table() -> Table {
        let schema = Schema::builder()
            .identifier("Name")
            .quasi_int("Age")
            .quasi_categorical("Country")
            .sensitive_numeric("Salary")
            .build()
            .unwrap();
        let rows = vec![
            ("p0", 23, "France", 50_000.0),
            ("p1", 27, "Germany", 52_000.0),
            ("p2", 24, "France", 51_000.0),
            ("p3", 26, "Germany", 49_000.0),
            ("p4", 61, "Japan", 90_000.0),
            ("p5", 67, "India", 95_000.0),
            ("p6", 63, "Japan", 88_000.0),
            ("p7", 66, "India", 93_000.0),
        ];
        Table::with_rows(
            schema,
            rows.into_iter()
                .map(|(n, a, c, s)| {
                    vec![
                        Value::Text(n.into()),
                        Value::Int(a),
                        Value::Categorical(c.into()),
                        Value::Float(s),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    fn full_domain() -> FullDomain {
        FullDomain::new(
            vec![
                AttributeHierarchy::Numeric(NumericHierarchy::new(0.0, 5.0, 6).unwrap()),
                AttributeHierarchy::Categorical(hierarchy()),
            ],
            0,
        )
    }

    #[test]
    fn full_domain_reaches_k_anonymity() {
        let t = people_table();
        for k in [2usize, 4] {
            let p = full_domain().partition(&t, k).unwrap();
            assert!(p.satisfies_k(k), "k={k}: min class {}", p.min_class_size());
            assert_eq!(p.n_rows(), 8);
        }
    }

    #[test]
    fn full_domain_separates_age_groups_for_small_k() {
        let t = people_table();
        let p = full_domain().partition(&t, 4).unwrap();
        // Young Europeans vs old Asians should end in different classes.
        let class_of = p.class_of_rows();
        assert_eq!(class_of[0], class_of[1]);
        assert_ne!(class_of[0], class_of[4]);
    }

    #[test]
    fn suppression_budget_respected() {
        // One outlier (row 8) that never merges below root: with a budget of
        // 1 it gets suppressed rather than dragging everything to root.
        let schema = Schema::builder().quasi_int("Age").build().unwrap();
        let mut rows: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(20 + i)]).collect();
        rows.push(vec![Value::Int(90)]);
        let t = Table::with_rows(schema, rows).unwrap();
        let fd = FullDomain::new(
            vec![AttributeHierarchy::Numeric(
                NumericHierarchy::new(0.0, 10.0, 3).unwrap(),
            )],
            1,
        );
        let p = fd.partition(&t, 3).unwrap();
        // The outlier is a singleton; everyone else is in >= 3-classes.
        let sizes: Vec<usize> = p.classes().iter().map(Vec::len).collect();
        assert!(sizes.contains(&1));
        assert!(sizes.iter().filter(|&&s| s > 1).all(|&s| s >= 3));
    }

    #[test]
    fn mismatched_hierarchy_count_errors() {
        let t = people_table();
        let fd = FullDomain::new(vec![], 0);
        assert!(matches!(
            fd.partition(&t, 2),
            Err(AnonError::InvalidHierarchy(_))
        ));
    }
}
