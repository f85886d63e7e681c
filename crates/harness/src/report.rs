//! Table formatting and CSV output for the figure binaries.

use std::fmt::Write as _;
use std::path::Path;

/// Bytes → MB (the unit of the paper's memory figures).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A generic figure table: one row per runtime configuration, one numeric
/// column per density (or a single column for startup figures).
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<TableRow>,
    /// Unit shown in the header ("MB/container", "s").
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct TableRow {
    pub label: String,
    pub values: Vec<f64>,
    /// Highlighted ("our work's results are labeled in red").
    pub ours: bool,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: Vec<String>, unit: &'static str) -> Table {
        Table { title: title.into(), columns, rows: Vec::new(), unit }
    }

    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>, ours: bool) {
        self.rows.push(TableRow { label: label.into(), values, ours });
    }

    /// Render as an aligned text table. Each value column is as wide as
    /// its header plus one space (at least 14), so long headers never run
    /// together; widths count characters, not bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.chars().count()));
        let label_w =
            self.rows.iter().map(|r| r.label.chars().count() + 2).chain([12]).max().unwrap_or(12);
        let _ = write!(out, "{:label_w$}", "runtime");
        let mut widths = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            // An empty unit means the columns name their own units.
            let header =
                if self.unit.is_empty() { c.clone() } else { format!("{c} [{}]", self.unit) };
            let w = (header.chars().count() + 1).max(14);
            let _ = write!(out, "{header:>w$}");
            widths.push(w);
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let marker = if r.ours { "* " } else { "  " };
            let _ = write!(out, "{:label_w$}", format!("{marker}{}", r.label));
            for (i, v) in r.values.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(14);
                let _ = write!(out, "{v:>w$.2}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "(* = our work: WAMR embedded in crun)");
        out
    }

    /// Write as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "runtime");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out, ",ours");
        for r in &self.rows {
            let _ = write!(out, "{}", r.label);
            for v in &r.values {
                let _ = write!(out, ",{v:.4}");
            }
            let _ = writeln!(out, ",{}", r.ours);
        }
        out
    }

    /// Write the CSV beside the repo's other experiment outputs.
    pub fn save_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("target/experiments");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Value lookup by row label (for assertions and claim checks).
    pub fn value(&self, label_contains: &str, col: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.label.contains(label_contains))
            .and_then(|r| r.values.get(col))
            .copied()
    }

    /// The highlighted row.
    pub fn ours(&self) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion() {
        assert!((mb(10 << 20) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("Fig X", vec!["10".into(), "100".into()], "MB");
        t.row("crun-wamr (ours)", vec![5.5, 5.4], true);
        t.row("crun-wasmtime", vec![15.1, 15.0], false);
        let text = t.render();
        assert!(text.contains("* crun-wamr"));
        assert!(text.contains("15.10"));
        let csv = t.to_csv();
        assert!(csv.starts_with("runtime,10,100,ours"));
        assert!(csv.contains("crun-wasmtime,15.1000,15.0000,false"));
        assert_eq!(t.value("wamr", 1), Some(5.4));
        assert!(t.ours().unwrap().ours);
    }

    #[test]
    fn render_keeps_long_headers_apart_and_counts_chars() {
        let title = "Overload 3\u{d7} \u{2192} 0.5\u{d7}";
        let mut t = Table::new(
            title,
            vec!["baseline p99 ms".into(), "overload goodput rps".into(), "n".into()],
            "",
        );
        t.row("crun-wamr (ours) \u{2013} wide", vec![12.5, 1234.0, 3.0], true);
        t.row("crun-wasmtime", vec![1.0, 2.0, 3.0], false);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "=".repeat(title.chars().count()), "underline counts chars");
        let header = lines[2];
        assert!(header.contains(" baseline p99 ms overload goodput rps"), "{header}");
        // Every row is as wide (in chars) as the header, so columns align.
        let w = header.chars().count();
        assert_eq!(w, 25 + 16 + 21 + 14);
        for row in &lines[3..5] {
            assert_eq!(row.chars().count(), w, "{row:?}");
        }
        assert_eq!(
            lines[3],
            "* crun-wamr (ours) \u{2013} wide           12.50              1234.00          3.00"
        );
        // CSV is unaffected by display widths.
        assert_eq!(
            t.to_csv(),
            "runtime,baseline p99 ms,overload goodput rps,n,ours\n\
             crun-wamr (ours) \u{2013} wide,12.5000,1234.0000,3.0000,true\n\
             crun-wasmtime,1.0000,2.0000,3.0000,false\n"
        );
    }
}
