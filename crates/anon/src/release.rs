//! Construction of anonymized releases (paper Table III).
//!
//! A release keeps identifiers verbatim (the enterprise requirement that
//! enables the attack), rewrites each quasi-identifier cell with a
//! class-level summary, and suppresses every sensitive cell.

use crate::error::Result;
use crate::partition::Partition;
use fred_data::{Interval, Table, Value};

/// How quasi-identifier cells are summarized within an equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QiStyle {
    /// Publish the covering range `[min-max]` (presentation used by the
    /// paper's Table III).
    Range,
    /// Publish the class centroid (classic microaggregation output).
    Centroid,
}

/// An anonymized release: the rewritten table plus the partition that
/// produced it and the level (`k`) it was built for.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// The published table.
    pub table: Table,
    /// Equivalence classes over the original row indices (row order is
    /// preserved by construction).
    pub partition: Partition,
    /// Anonymization level used.
    pub k: usize,
    /// Quasi-identifier summarization style.
    pub style: QiStyle,
}

/// Builds an anonymized release from a table and a partition of its rows.
///
/// * identifier and insensitive columns pass through unchanged;
/// * numeric quasi-identifier cells become the class [`Interval`]
///   ([`QiStyle::Range`]) or class mean ([`QiStyle::Centroid`]);
/// * categorical quasi-identifier cells become the class value when the
///   class agrees, otherwise the sorted distinct values joined with `|`;
/// * sensitive cells are suppressed to [`Value::Missing`].
pub fn build_release(
    table: &Table,
    partition: &Partition,
    k: usize,
    style: QiStyle,
) -> Result<Release> {
    let qi_cols = table.quasi_identifier_columns();
    let sens_cols = table.sensitive_columns();
    let class_of = partition.class_of_rows();
    let summaries: Vec<Vec<Value>> = partition
        .classes()
        .iter()
        .map(|class| class_summary(table, class, style))
        .collect();

    let mut out = table.clone();
    for (row_idx, _) in table.rows().iter().enumerate() {
        let class_idx = class_of[row_idx];
        for (qi_pos, &c) in qi_cols.iter().enumerate() {
            out.set_cell(row_idx, c, summaries[class_idx][qi_pos].clone())?;
        }
        for &c in &sens_cols {
            out.set_cell(row_idx, c, Value::Missing)?;
        }
    }
    Ok(Release {
        table: out,
        partition: partition.clone(),
        k,
        style,
    })
}

impl Release {
    /// Streams the release `build_release` would produce as row-chunks of
    /// at most `chunk_rows` rows, without ever materializing the full
    /// rewritten table: per-class summaries are computed lazily the first
    /// time a chunk touches the class and cached for later chunks.
    /// Concatenating every chunk's rows reproduces
    /// [`build_release`]`(..).table` cell-for-cell — sweeps over large
    /// worlds can therefore process one chunk at a time and keep peak
    /// memory proportional to `chunk_rows`, not to `rows × k-levels`.
    pub fn chunks<'a>(
        table: &'a Table,
        partition: &'a Partition,
        style: QiStyle,
        chunk_rows: usize,
    ) -> ReleaseChunks<'a> {
        ReleaseChunks {
            table,
            partition,
            style,
            qi_cols: table.quasi_identifier_columns(),
            sens_cols: table.sensitive_columns(),
            class_of: partition.class_of_rows(),
            summaries: vec![None; partition.len()],
            chunk_rows: chunk_rows.max(1),
            next_row: 0,
        }
    }
}

/// Streaming iterator over the row-chunks of a release; see
/// [`Release::chunks`].
#[derive(Debug, Clone)]
pub struct ReleaseChunks<'a> {
    table: &'a Table,
    partition: &'a Partition,
    style: QiStyle,
    qi_cols: Vec<usize>,
    sens_cols: Vec<usize>,
    class_of: Vec<usize>,
    /// Lazily-filled per-class QI summaries (aligned with `qi_cols`).
    summaries: Vec<Option<Vec<Value>>>,
    chunk_rows: usize,
    next_row: usize,
}

impl ReleaseChunks<'_> {
    fn warm_summary(&mut self, class_idx: usize) {
        if self.summaries[class_idx].is_none() {
            let class = &self.partition.classes()[class_idx];
            self.summaries[class_idx] = Some(class_summary(self.table, class, self.style));
        }
    }
}

impl Iterator for ReleaseChunks<'_> {
    type Item = Result<Table>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_row >= self.table.len() {
            return None;
        }
        let lo = self.next_row;
        let hi = (lo + self.chunk_rows).min(self.table.len());
        self.next_row = hi;
        fred_obs::counter("release.chunks", 1);
        fred_obs::counter("release.chunk_rows", (hi - lo) as u64);
        // Warm the summary cache for every class this chunk touches, then
        // rewrite rows through immutable reads.
        for row_idx in lo..hi {
            self.warm_summary(self.class_of[row_idx]);
        }
        let mut rows = Vec::with_capacity(hi - lo);
        for row_idx in lo..hi {
            let mut row = self.table.rows()[row_idx].clone();
            let summary = self.summaries[self.class_of[row_idx]]
                .as_deref()
                .expect("warmed above");
            for (qi_pos, &c) in self.qi_cols.iter().enumerate() {
                row[c] = summary[qi_pos].clone();
            }
            for &c in &self.sens_cols {
                row[c] = Value::Missing;
            }
            rows.push(row);
        }
        Some(Table::with_rows(self.table.schema().clone(), rows).map_err(Into::into))
    }
}

/// The published quasi-identifier cells of one equivalence class, one per
/// [`Table::quasi_identifier_columns`] entry, in that order: what every
/// row of the class carries in the release. [`build_release`] and
/// [`Release::chunks`] both rewrite rows from it, so a consumer that
/// needs only the summaries can call it once per class instead of
/// reading rewritten rows.
pub fn class_summary(table: &Table, class_rows: &[usize], style: QiStyle) -> Vec<Value> {
    table
        .quasi_identifier_columns()
        .into_iter()
        .map(|c| summarize_class(table, class_rows, c, style))
        .collect()
}

fn summarize_class(table: &Table, class: &[usize], col: usize, style: QiStyle) -> Value {
    // Numeric path: all members numeric-viewable.
    let numeric: Option<Vec<f64>> = class
        .iter()
        .map(|&r| table.cell(r, col).and_then(Value::as_f64))
        .collect();
    if let Some(xs) = numeric {
        return match style {
            QiStyle::Range => match Interval::cover(&xs) {
                Some(iv) => Value::Interval(iv),
                None => Value::Missing,
            },
            QiStyle::Centroid => Value::Float(xs.iter().sum::<f64>() / xs.len() as f64),
        };
    }
    // Categorical path: distinct sorted values.
    let mut labels: Vec<String> = class
        .iter()
        .filter_map(|&r| {
            table
                .cell(r, col)
                .and_then(Value::as_str)
                .map(str::to_owned)
        })
        .collect();
    labels.sort();
    labels.dedup();
    match labels.len() {
        0 => Value::Missing,
        1 => Value::Categorical(labels.pop().expect("len checked")),
        _ => Value::Categorical(labels.join("|")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymizer::Anonymizer;
    use crate::mdav::Mdav;
    use fred_data::{Schema, Table, Value};

    fn customer_table() -> Table {
        let schema = Schema::builder()
            .identifier("Name")
            .quasi_numeric("InvstVol")
            .quasi_numeric("InvstAmt")
            .quasi_numeric("Valuation")
            .sensitive_numeric("Income")
            .build()
            .unwrap();
        let rows = [
            ("Alice", 8.0, 7.0, 4.0, 91_250.0),
            ("Bob", 5.0, 4.0, 4.0, 74_340.0),
            ("Christine", 4.0, 5.0, 5.0, 75_123.0),
            ("Robert", 9.0, 8.0, 9.0, 98_230.0),
        ];
        Table::with_rows(
            schema,
            rows.iter()
                .map(|&(n, v, a, val, inc)| {
                    vec![
                        Value::Text(n.into()),
                        Value::Float(v),
                        Value::Float(a),
                        Value::Float(val),
                        Value::Float(inc),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn release_keeps_identifiers_and_suppresses_sensitive() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        let rel = build_release(&t, &p, 2, QiStyle::Range).unwrap();
        assert_eq!(
            rel.table.identifier_strings(),
            vec!["Alice", "Bob", "Christine", "Robert"]
        );
        assert!(rel.table.column(4).all(Value::is_missing));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn range_style_publishes_covering_intervals() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        let rel = build_release(&t, &p, 2, QiStyle::Range).unwrap();
        // Every QI cell is an interval containing the original value.
        for (r, row) in t.rows().iter().enumerate() {
            for c in 1..=3 {
                let published = rel.table.cell(r, c).unwrap();
                let iv = published.as_interval().expect("interval");
                let original = row[c].as_f64().unwrap();
                assert!(
                    iv.contains(original),
                    "row {r} col {c}: {iv:?} does not contain {original}"
                );
            }
        }
    }

    #[test]
    fn centroid_style_publishes_class_means() {
        let t = customer_table();
        let p = crate::partition::Partition::new(vec![vec![0, 3], vec![1, 2]], 4).unwrap();
        let rel = build_release(&t, &p, 2, QiStyle::Centroid).unwrap();
        // Alice & Robert share centroid (8.5, 7.5, 6.5).
        assert_eq!(rel.table.cell(0, 1).unwrap().as_f64(), Some(8.5));
        assert_eq!(rel.table.cell(3, 1).unwrap().as_f64(), Some(8.5));
        assert_eq!(rel.table.cell(0, 3).unwrap().as_f64(), Some(6.5));
        // Bob & Christine share centroid (4.5, 4.5, 4.5).
        assert_eq!(rel.table.cell(1, 2).unwrap().as_f64(), Some(4.5));
    }

    #[test]
    fn rows_in_same_class_publish_identical_qi_cells() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        let rel = build_release(&t, &p, 2, QiStyle::Range).unwrap();
        for class in rel.partition.classes() {
            for c in 1..=3 {
                let first = rel.table.cell(class[0], c).unwrap();
                for &r in class {
                    assert_eq!(rel.table.cell(r, c).unwrap(), first);
                }
            }
        }
    }

    #[test]
    fn class_summary_is_what_every_member_row_publishes() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        let qi_cols = t.quasi_identifier_columns();
        for style in [QiStyle::Range, QiStyle::Centroid] {
            let rel = build_release(&t, &p, 2, style).unwrap();
            for class in p.classes() {
                let summary = class_summary(&t, class, style);
                for &r in class {
                    let published: Vec<Value> = qi_cols
                        .iter()
                        .map(|&c| rel.table.rows()[r][c].clone())
                        .collect();
                    assert_eq!(summary, published, "{style:?} row {r}");
                }
            }
        }
    }

    #[test]
    fn chunks_concatenate_to_the_full_release() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        let full = build_release(&t, &p, 2, QiStyle::Range).unwrap();
        for chunk_rows in [1usize, 2, 3, 4, 7] {
            let mut streamed: Vec<Vec<Value>> = Vec::new();
            for chunk in Release::chunks(&t, &p, QiStyle::Range, chunk_rows) {
                let chunk = chunk.unwrap();
                assert!(chunk.len() <= chunk_rows);
                assert_eq!(chunk.schema(), t.schema());
                streamed.extend(chunk.rows().iter().cloned());
            }
            assert_eq!(streamed, full.table.rows(), "chunk_rows={chunk_rows}");
        }
        // Centroid style streams identically too.
        let full = build_release(&t, &p, 2, QiStyle::Centroid).unwrap();
        let streamed: Vec<Vec<Value>> = Release::chunks(&t, &p, QiStyle::Centroid, 3)
            .flat_map(|c| c.unwrap().rows().to_vec())
            .collect();
        assert_eq!(streamed, full.table.rows());
    }

    #[test]
    fn chunks_clamp_degenerate_sizes() {
        let t = customer_table();
        let p = Mdav::new().partition(&t, 2).unwrap();
        // chunk_rows = 0 is clamped to 1; oversized chunks yield one table.
        assert_eq!(Release::chunks(&t, &p, QiStyle::Range, 0).count(), t.len());
        let mut it = Release::chunks(&t, &p, QiStyle::Range, 1000);
        assert_eq!(it.next().unwrap().unwrap().len(), t.len());
        assert!(it.next().is_none());
    }

    #[test]
    fn categorical_qi_summarization() {
        let schema = Schema::builder()
            .quasi_categorical("Country")
            .sensitive_numeric("Salary")
            .build()
            .unwrap();
        let t = Table::with_rows(
            schema,
            vec![
                vec![Value::Categorical("FR".into()), Value::Float(1.0)],
                vec![Value::Categorical("DE".into()), Value::Float(2.0)],
                vec![Value::Categorical("FR".into()), Value::Float(3.0)],
                vec![Value::Categorical("FR".into()), Value::Float(4.0)],
            ],
        )
        .unwrap();
        let p = crate::partition::Partition::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        let rel = build_release(&t, &p, 2, QiStyle::Range).unwrap();
        assert_eq!(rel.table.cell(0, 0).unwrap().as_str(), Some("DE|FR"));
        assert_eq!(rel.table.cell(2, 0).unwrap().as_str(), Some("FR"));
    }
}
