//! Printable experiment tables.

use serde::Serialize;
use std::fmt;

/// One table/series of an experiment, printable as aligned text and
/// serializable to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Experiment id (e.g. `fig07a`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper reference values, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>width$}", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float for latency/distance cells: three significant digits
/// below 10 (`0.0312`, `0.312`, `3.12`), whole numbers from 10 up.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() < 10.0 {
        let decimals = (2 - x.abs().log10().floor() as i32) as usize;
        format!("{x:.decimals$}")
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("t", "demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.00123), "0.00123");
        assert_eq!(fnum(0.0312), "0.0312");
        assert_eq!(fnum(0.04937), "0.0494");
        assert_eq!(fnum(0.312), "0.312");
        assert_eq!(fnum(1.234), "1.23");
        assert_eq!(fnum(3.12), "3.12");
        assert_eq!(fnum(-0.0312), "-0.0312");
        assert_eq!(fnum(10.4), "10");
        assert_eq!(fnum(1234.6), "1235");
    }
}
