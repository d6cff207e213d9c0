//! Construction of anonymized releases (paper Table III).
//!
//! A release keeps identifiers verbatim (the enterprise requirement that
//! enables the attack), rewrites each quasi-identifier cell with a
//! class-level summary, and suppresses every sensitive cell.
//!
//! Summaries of every class of a table come from one [`ClassSummarizer`]:
//! it reads the table's quasi-identifier cells once, through
//! [`Value::as_f64`], into one flat buffer, and folds each class from that
//! buffer instead of chasing every member's row. [`class_summary`] is the
//! one-class call. Both fold numeric cells through the same function, so
//! their summaries agree to the bit (pinned by property test).

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
    // Class `c`'s summary is `summaries[c * q..(c + 1) * q]`.
    let q = qi_cols.len();
    let mut summarizer = ClassSummarizer::new(table, style);
    let mut summaries = Vec::with_capacity(partition.len() * q);
    for class in partition.classes() {
        summaries.extend_from_slice(summarizer.summary(class));
    }

    let mut out = table.clone();
    for (row_idx, _) in table.rows().iter().enumerate() {
        let summary = &summaries[class_of[row_idx] * q..(class_of[row_idx] + 1) * q];
        for (qi_pos, &c) in qi_cols.iter().enumerate() {
            out.set_cell(row_idx, c, summary[qi_pos].clone())?;
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
/// row of the class carries in the release. [`Release::chunks`] rewrites
/// rows from it; a consumer that summarizes many classes of one table
/// uses a [`ClassSummarizer`] instead, which returns the same cells.
pub fn class_summary(table: &Table, class_rows: &[usize], style: QiStyle) -> Vec<Value> {
    table
        .quasi_identifier_columns()
        .into_iter()
        .map(|c| {
            let numeric: Option<Vec<f64>> = class_rows
                .iter()
                .map(|&r| table.cell(r, c).and_then(Value::as_f64))
                .collect();
            match numeric {
                Some(xs) => numeric_summary(&xs, style),
                None => categorical_summary(table, class_rows, c),
            }
        })
        .collect()
}

/// Summaries of many classes of one table: the table's quasi-identifier
/// cells are read once, through [`Value::as_f64`], into one row-major
/// buffer, and each class is folded from it. A column in which some
/// member of the class is not numeric takes [`class_summary`]'s
/// categorical path.
#[derive(Debug, Clone)]
pub struct ClassSummarizer<'a> {
    table: &'a Table,
    style: QiStyle,
    qi_cols: Vec<usize>,
    /// Row `r`'s numeric views: `cells[r * q..(r + 1) * q]`.
    cells: Vec<Option<f64>>,
    /// One class's values in one column, in member order.
    column: Vec<f64>,
    /// The last class's summary.
    summary: Vec<Value>,
}

impl<'a> ClassSummarizer<'a> {
    /// Reads `table`'s quasi-identifier cells for summaries in `style`.
    pub fn new(table: &'a Table, style: QiStyle) -> Self {
        let qi_cols = table.quasi_identifier_columns();
        let mut cells = Vec::with_capacity(table.len() * qi_cols.len());
        for row in table.rows() {
            cells.extend(qi_cols.iter().map(|&c| row[c].as_f64()));
        }
        ClassSummarizer {
            table,
            style,
            qi_cols,
            cells,
            column: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// [`class_summary`]`(table, class_rows, style)`, read from the
    /// buffer.
    pub fn summary(&mut self, class_rows: &[usize]) -> &[Value] {
        let q = self.qi_cols.len();
        self.summary.clear();
        for (qi, &c) in self.qi_cols.iter().enumerate() {
            self.column.clear();
            let numeric = class_rows
                .iter()
                .all(|&r| match self.cells.get(r * q + qi) {
                    Some(&Some(x)) => {
                        self.column.push(x);
                        true
                    }
                    _ => false,
                });
            self.summary.push(if numeric {
                numeric_summary(&self.column, self.style)
            } else {
                categorical_summary(self.table, class_rows, c)
            });
        }
        &self.summary
    }
}

/// The summary of a class whose cells in one column are all numeric,
/// `xs` in member order: their cover, or their mean summed in order.
fn numeric_summary(xs: &[f64], style: QiStyle) -> Value {
    match style {
        QiStyle::Range => match Interval::cover(xs) {
            Some(iv) => Value::Interval(iv),
            None => Value::Missing,
        },
        QiStyle::Centroid => Value::Float(xs.iter().sum::<f64>() / xs.len() as f64),
    }
}

/// The summary of a class in a column where some member is not numeric:
/// the distinct labels, sorted, joined with `|`.
fn categorical_summary(table: &Table, class: &[usize], col: usize) -> Value {
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
    use fred_data::{Interval, Schema, Table, Value};

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

    /// A table whose quasi-identifiers mix every cell kind a column of
    /// its type admits: `Int`, `Float` (signed zeros and NaN among them),
    /// `Interval` and `Missing` in a float column, `Int`, `Interval` and
    /// `Missing` in an int column, `Categorical` and `Missing` in a
    /// categorical one; seeded, `missing_share` in 1/16ths.
    fn mixed_table(n: usize, missing_share: u64, seed: u64) -> Table {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let schema = Schema::builder()
            .identifier("Name")
            .quasi_numeric("F")
            .quasi_int("I")
            .quasi_categorical("C")
            .sensitive_numeric("S")
            .build()
            .unwrap();
        let rows = (0..n)
            .map(|i| {
                let mut cell = |kinds: &[u8]| -> Value {
                    if next() % 16 < missing_share {
                        return Value::Missing;
                    }
                    let v = (next() % 5) as f64 - 2.0;
                    match kinds[(next() % kinds.len() as u64) as usize] {
                        b'i' => Value::Int(v as i64),
                        b'f' => Value::Float(match next() % 8 {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::NAN,
                            _ => v * 0.37,
                        }),
                        b'v' => Value::Interval(Interval::new(v, v + (next() % 3) as f64).unwrap()),
                        _ => Value::Categorical(["FR", "DE", "IT"][(next() % 3) as usize].into()),
                    }
                };
                let row = vec![cell(b"ifv"), cell(b"iv"), cell(b"c")];
                let mut full = vec![Value::Text(format!("p{i}"))];
                full.extend(row);
                full.push(Value::Float(i as f64));
                full
            })
            .collect();
        Table::with_rows(schema, rows).unwrap()
    }

    /// `n` rows shuffled and cut into classes of 1..=`max_class` rows.
    fn seeded_classes(n: usize, max_class: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut rows: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rows.swap(i, next() % (i + 1));
        }
        let mut classes = Vec::new();
        let mut rest = rows.as_slice();
        while !rest.is_empty() {
            let take = (1 + next() % max_class).min(rest.len());
            classes.push(rest[..take].to_vec());
            rest = &rest[take..];
        }
        classes
    }

    /// Value-for-value equality that tells `-0.0` from `0.0` and matches
    /// NaN with NaN: the `Debug` forms.
    fn same_cells(a: &[Value], b: &[Value]) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn summarizer_equals_class_summary_on_mixed_cells(
            n in 1usize..80,
            max_class in 1usize..9,
            missing_share in 0u64..4,
            seed in 0u64..1_000_000,
        ) {
            let table = mixed_table(n, missing_share, seed);
            let classes = seeded_classes(n, max_class, seed);
            for style in [QiStyle::Range, QiStyle::Centroid] {
                let mut summarizer = ClassSummarizer::new(&table, style);
                for class in &classes {
                    let one = class_summary(&table, class, style);
                    let read = summarizer.summary(class);
                    prop_assert!(
                        same_cells(read, &one),
                        "{style:?} class {class:?}: {read:?} != {one:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn summarizer_takes_the_categorical_path_for_one_non_numeric_member() {
        let schema = Schema::builder()
            .quasi_numeric("F")
            .quasi_categorical("C")
            .build()
            .unwrap();
        let t = Table::with_rows(
            schema,
            vec![
                vec![Value::Float(-0.0), Value::Categorical("FR".into())],
                vec![Value::Float(-0.0), Value::Categorical("DE".into())],
                vec![Value::Float(0.0), Value::Missing],
                vec![Value::Missing, Value::Categorical("FR".into())],
                vec![Value::Int(3), Value::Missing],
            ],
        )
        .unwrap();
        for style in [QiStyle::Range, QiStyle::Centroid] {
            let mut summarizer = ClassSummarizer::new(&t, style);
            for class in [&[0, 1][..], &[1, 0, 2], &[2, 3, 4], &[3], &[4, 2]] {
                let one = class_summary(&t, class, style);
                assert!(
                    same_cells(summarizer.summary(class), &one),
                    "{style:?} {class:?}"
                );
            }
            // One `Missing` member sends the numeric column down the
            // categorical path, which finds no label.
            assert_eq!(summarizer.summary(&[2, 3, 4])[0], Value::Missing);
            assert_eq!(
                summarizer.summary(&[0, 1, 3])[1],
                Value::Categorical("DE|FR".into())
            );
        }
        let mut centroid = ClassSummarizer::new(&t, QiStyle::Centroid);
        assert!(same_cells(
            centroid.summary(&[0, 1]),
            &class_summary(&t, &[0, 1], QiStyle::Centroid)
        ));
        let mut range = ClassSummarizer::new(&t, QiStyle::Range);
        assert_eq!(
            range.summary(&[1, 2])[0],
            Value::Interval(Interval::new(-0.0, 0.0).unwrap())
        );
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
