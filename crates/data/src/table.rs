//! In-memory tables: a schema plus rows of [`Value`]s.

use crate::error::{DataError, Result};
use crate::schema::{AttributeRole, Schema};
use crate::value::Value;
use rayon::prelude::*;
use std::fmt;

/// A row of cells; arity always matches the owning table's schema.
pub type Row = Vec<Value>;

/// An in-memory table.
///
/// Rows are stored row-major (releases are small relative to the analysis
/// done per cell, and the anonymizers permute/partition rows constantly, so
/// row-major keeps those operations allocation-free). Columnar access is
/// provided through iterators and [`Table::numeric_column`].
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a table and bulk-loads `rows`, validating each.
    pub fn with_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut t = Table::new(schema);
        t.rows.reserve(rows.len());
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row at `index`, if present.
    pub fn row(&self, index: usize) -> Option<&Row> {
        self.rows.get(index)
    }

    /// Cell at (`row`, `col`), if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// Replaces the cell at (`row`, `col`).
    pub fn set_cell(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        let ncols = self.schema.len();
        let attr = self.schema.attribute(col)?.clone();
        if !value.conforms_to(attr.kind()) {
            return Err(DataError::TypeMismatch {
                attribute: attr.name().to_owned(),
                expected: kind_str(attr.kind()),
                found: value.kind_name(),
            });
        }
        let r = self.rows.get_mut(row).ok_or(DataError::IndexOutOfBounds {
            index: row,
            len: ncols,
        })?;
        r[col] = value;
        Ok(())
    }

    /// Appends a row after validating arity and per-cell type conformance.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let attr = self.schema.attribute(i)?;
            if !v.conforms_to(attr.kind()) {
                return Err(DataError::TypeMismatch {
                    attribute: attr.name().to_owned(),
                    expected: kind_str(attr.kind()),
                    found: v.kind_name(),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Iterator over the cells of column `col`.
    pub fn column(&self, col: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows.iter().map(move |r| &r[col])
    }

    /// Column by attribute name.
    pub fn column_by_name(&self, name: &str) -> Result<Vec<&Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.column(idx).collect())
    }

    /// Numeric view of column `col` (intervals read at midpoints).
    ///
    /// Fails with [`DataError::NonNumericColumn`] if any non-missing cell
    /// lacks a numeric view; missing cells are skipped.
    pub fn numeric_column(&self, col: usize) -> Result<Vec<f64>> {
        let attr = self.schema.attribute(col)?;
        let mut out = Vec::with_capacity(self.rows.len());
        for v in self.column(col) {
            if v.is_missing() {
                continue;
            }
            match v.as_f64() {
                Some(x) => out.push(x),
                None => return Err(DataError::NonNumericColumn(attr.name().to_owned())),
            }
        }
        Ok(out)
    }

    /// Dense numeric matrix over the given columns, one row per record.
    ///
    /// Missing cells are rejected (callers that tolerate missingness should
    /// impute first); intervals read at midpoints.
    pub fn numeric_matrix(&self, cols: &[usize]) -> Result<Vec<Vec<f64>>> {
        let mut out = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut rec = Vec::with_capacity(cols.len());
            for &c in cols {
                let attr = self.schema.attribute(c)?;
                match row[c].as_f64() {
                    Some(x) => rec.push(x),
                    None => return Err(DataError::NonNumericColumn(attr.name().to_owned())),
                }
            }
            out.push(rec);
        }
        Ok(out)
    }

    /// Numeric matrix over the quasi-identifier columns.
    pub fn quasi_identifier_matrix(&self) -> Result<Vec<Vec<f64>>> {
        self.numeric_matrix(&self.schema.quasi_identifier_indices())
    }

    /// Projects a subset of columns into a new table.
    pub fn project(&self, cols: &[usize]) -> Result<Table> {
        let schema = self.schema.project(cols)?;
        let rows = self
            .rows
            .iter()
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect();
        Ok(Table { schema, rows })
    }

    /// Returns a new table containing the rows selected by `pred`.
    pub fn filter(&self, mut pred: impl FnMut(&Row) -> bool) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Returns the row indices sorted by the numeric view of column `col`
    /// (missing/non-numeric cells sort last, stably).
    pub fn argsort_by_column(&self, col: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.rows.len()).collect();
        idx.sort_by(|&a, &b| {
            let va = self.rows[a][col].as_f64();
            let vb = self.rows[b][col].as_f64();
            match (va, vb) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
        });
        idx
    }

    /// Returns a table with rows reordered by `order` (a permutation of row
    /// indices): the [`gather`](Table::gather) of every row.
    pub fn reorder(&self, order: &[usize]) -> Result<Table> {
        if order.len() != self.rows.len() {
            return Err(DataError::ShapeMismatch {
                left: (self.rows.len(), self.schema.len()),
                right: (order.len(), self.schema.len()),
            });
        }
        self.gather(order)
    }

    /// Returns a table of the rows at `rows`, in that order (a row may
    /// repeat), under the same schema. Every index is bounds-checked; the
    /// cells are not re-validated, since they come from this table. The
    /// copy runs on the worker pool, so one large gather keeps every
    /// worker busy.
    pub fn gather(&self, rows: &[usize]) -> Result<Table> {
        if let Some(&index) = rows.iter().find(|&&r| r >= self.rows.len()) {
            return Err(DataError::IndexOutOfBounds {
                index,
                len: self.rows.len(),
            });
        }
        Ok(Table {
            schema: self.schema.clone(),
            rows: rows.par_iter().map(|&r| self.rows[r].clone()).collect(),
        })
    }

    /// Looks up rows by the value of an identifier column; returns row
    /// indices whose identifier equals `key` exactly.
    pub fn find_by_identifier(&self, col: usize, key: &str) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r[col].as_str() == Some(key))
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the table as an aligned ASCII grid (used by examples and the
    /// repro harness to print the paper's tables).
    pub fn to_ascii(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.name().to_owned())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for row in &rendered {
            write_row(&mut out, row);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

fn kind_str(kind: crate::value::ValueKind) -> &'static str {
    match kind {
        crate::value::ValueKind::Int => "Int",
        crate::value::ValueKind::Float => "Float",
        crate::value::ValueKind::Text => "Text",
        crate::value::ValueKind::Categorical => "Categorical",
        crate::value::ValueKind::Interval => "Interval",
    }
}

/// Role-aware helpers used when constructing releases.
impl Table {
    /// Indices of quasi-identifier columns.
    pub fn quasi_identifier_columns(&self) -> Vec<usize> {
        self.schema.quasi_identifier_indices()
    }

    /// Indices of sensitive columns.
    pub fn sensitive_columns(&self) -> Vec<usize> {
        self.schema.sensitive_indices()
    }

    /// Indices of identifier columns.
    pub fn identifier_columns(&self) -> Vec<usize> {
        self.schema.identifier_indices()
    }

    /// Returns a copy with every sensitive cell replaced by
    /// [`Value::Missing`] (the suppression step of a release).
    pub fn suppress_sensitive(&self) -> Table {
        let sens = self.sensitive_columns();
        let mut t = self.clone();
        for row in &mut t.rows {
            for &c in &sens {
                row[c] = Value::Missing;
            }
        }
        t
    }

    /// Returns identifier strings per row, joining multiple identifier
    /// columns with a single space.
    pub fn identifier_strings(&self) -> Vec<String> {
        let ids = self.identifier_columns();
        self.rows
            .iter()
            .map(|r| {
                let parts: Vec<&str> = ids.iter().filter_map(|&c| r[c].as_str()).collect();
                parts.join(" ")
            })
            .collect()
    }

    /// Checks that every attribute with the given role is numeric-viewable
    /// in every row (used by anonymizers that require numeric QIs).
    pub fn role_is_numeric(&self, role: AttributeRole) -> bool {
        let cols = self.schema.indices_with_role(role);
        self.rows
            .iter()
            .all(|r| cols.iter().all(|&c| r[c].as_f64().is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::schema::Schema;

    fn customer_schema() -> Schema {
        // Paper Table II: Name | Invst Vol, Invst Amt, Valuation | Income
        Schema::builder()
            .identifier("Name")
            .quasi_numeric("InvstVol")
            .quasi_numeric("InvstAmt")
            .quasi_numeric("Valuation")
            .sensitive_numeric("Income")
            .build()
            .unwrap()
    }

    fn customer_table() -> Table {
        let mut t = Table::new(customer_schema());
        for (name, v, a, val, inc) in [
            ("Alice", 8.0, 7.0, 4.0, 91_250.0),
            ("Bob", 5.0, 4.0, 4.0, 74_340.0),
            ("Christine", 4.0, 5.0, 5.0, 75_123.0),
            ("Robert", 9.0, 8.0, 9.0, 98_230.0),
        ] {
            t.push_row(vec![
                Value::Text(name.into()),
                Value::Float(v),
                Value::Float(a),
                Value::Float(val),
                Value::Float(inc),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn push_row_validates_arity_and_types() {
        let mut t = Table::new(customer_schema());
        assert!(matches!(
            t.push_row(vec![Value::Text("x".into())]),
            Err(DataError::ArityMismatch {
                expected: 5,
                found: 1
            })
        ));
        let err = t
            .push_row(vec![
                Value::Text("x".into()),
                Value::Text("oops".into()),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::Float(1.0),
            ])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn numeric_access() {
        let t = customer_table();
        assert_eq!(t.len(), 4);
        let inc = t.numeric_column(4).unwrap();
        assert_eq!(inc, vec![91_250.0, 74_340.0, 75_123.0, 98_230.0]);
        let qi = t.quasi_identifier_matrix().unwrap();
        assert_eq!(qi.len(), 4);
        assert_eq!(qi[0], vec![8.0, 7.0, 4.0]);
    }

    #[test]
    fn numeric_column_skips_missing_but_rejects_text() {
        let mut t = customer_table();
        t.set_cell(1, 4, Value::Missing).unwrap();
        assert_eq!(t.numeric_column(4).unwrap().len(), 3);
        let err = t.numeric_column(0).unwrap_err();
        assert_eq!(err, DataError::NonNumericColumn("Name".into()));
    }

    #[test]
    fn interval_cells_read_at_midpoint() {
        let mut t = customer_table();
        t.set_cell(0, 1, Value::Interval(Interval::new(5.0, 10.0).unwrap()))
            .unwrap();
        let col = t.numeric_column(1).unwrap();
        assert_eq!(col[0], 7.5);
    }

    #[test]
    fn suppress_sensitive_blanks_income_only() {
        let t = customer_table().suppress_sensitive();
        assert!(t.column(4).all(|v| v.is_missing()));
        assert!(t.column(1).all(|v| !v.is_missing()));
    }

    #[test]
    fn projection_and_filter() {
        let t = customer_table();
        let p = t.project(&[0, 4]).unwrap();
        assert_eq!(p.schema().len(), 2);
        assert_eq!(p.row(0).unwrap()[0].as_str(), Some("Alice"));

        let rich = t.filter(|r| r[4].as_f64().is_some_and(|x| x > 90_000.0));
        assert_eq!(rich.len(), 2);
    }

    #[test]
    fn argsort_and_reorder() {
        let t = customer_table();
        let order = t.argsort_by_column(4);
        assert_eq!(order, vec![1, 2, 0, 3]); // Bob, Christine, Alice, Robert
        let sorted = t.reorder(&order).unwrap();
        assert_eq!(sorted.row(0).unwrap()[0].as_str(), Some("Bob"));
        assert!(t.reorder(&[0, 1]).is_err());
    }

    #[test]
    fn gather_copies_rows_in_order_and_checks_bounds() {
        let t = customer_table();
        let g = t.gather(&[3, 1, 3]).unwrap();
        assert_eq!(g.schema(), t.schema());
        assert_eq!(
            g.rows(),
            &[
                t.rows()[3].clone(),
                t.rows()[1].clone(),
                t.rows()[3].clone()
            ]
        );
        assert!(t.gather(&[]).unwrap().is_empty());
        assert_eq!(
            t.gather(&[0, 4]),
            Err(DataError::IndexOutOfBounds { index: 4, len: 4 })
        );
    }

    #[test]
    fn identifier_helpers() {
        let t = customer_table();
        assert_eq!(
            t.identifier_strings(),
            vec!["Alice", "Bob", "Christine", "Robert"]
        );
        assert_eq!(t.find_by_identifier(0, "Christine"), vec![2]);
        assert!(t.find_by_identifier(0, "Eve").is_empty());
    }

    #[test]
    fn ascii_rendering_contains_all_cells() {
        let t = customer_table();
        let s = t.to_ascii();
        assert!(s.contains("Name"));
        assert!(s.contains("Robert"));
        assert!(s.contains("98230"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn role_numeric_check() {
        let t = customer_table();
        assert!(t.role_is_numeric(AttributeRole::QuasiIdentifier));
        assert!(!t.role_is_numeric(AttributeRole::Identifier));
    }
}
