//! Report formatting shared by the experiment binaries.
//!
//! Every paper table and figure is rendered as an aligned text table
//! with paper-reported values side by side where available. The text
//! itself is produced by the [`reports`] module; [`campaign`] wraps
//! those reports as supervised jobs for the `all` binary, the one entry
//! point that prints them (`all --only <name>` for a single artifact).

pub mod campaign;
pub mod reports;
pub mod service_jobs;
pub mod service_load;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use vsnoop_bench::TextTable;
///
/// let mut t = TextTable::new(["app", "measured", "paper"]);
/// t.row(["fft", "30.1", "30.6"]);
/// let s = t.to_string();
/// assert!(s.contains("fft"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows shorter than the header are padded with
    /// empty cells; longer rows are allowed and widen the table.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (RFC-4180-style quoting), for plotting
    /// pipelines. Set `VSNOOP_CSV=<dir>` when running `all` (or an
    /// ablation binary) to also dump its tables there.
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            let line: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `<dir>/<name>.csv` if the `VSNOOP_CSV`
    /// environment variable names a directory (see `vsnoop::knob`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn maybe_dump_csv(&self, name: &str) -> std::io::Result<()> {
        if let Some(dir) = vsnoop::knob::csv_dir() {
            std::fs::create_dir_all(&dir)?;
            std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())?;
        }
        Ok(())
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |f: &mut std::fmt::Formatter<'_>, row: &[String]| -> std::fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    writeln!(f, "{cell:<w$}")?;
                } else {
                    write!(f, "{cell:<w$}  ")?;
                }
            }
            Ok(())
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a measured value with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a measured value with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats an optional paper value ("-" when the paper has none).
pub fn opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
}

/// Prints a banner heading for an experiment.
pub fn heading(title: &str, context: &str) {
    print!("{}", heading_string(title, context));
}

/// The banner heading as a string — exactly the bytes [`heading`]
/// prints.
pub fn heading_string(title: &str, context: &str) -> String {
    format!("\n=== {title} ===\n{context}\n\n")
}

/// Chooses the experiment scale from `VSNOOP_SCALE` (`quick` for smoke
/// runs, anything else or unset for the full scale used in
/// EXPERIMENTS.md).
pub fn scale_from_env() -> vsnoop::experiments::RunScale {
    if vsnoop::knob::quick_scale() {
        vsnoop::experiments::RunScale::quick()
    } else {
        vsnoop::experiments::RunScale::full()
    }
}

/// Initializes the observability layer from the shared `--trace-dir`
/// flag (also `--trace-dir=<dir>`), falling back to the `VSNOOP_TRACE`
/// environment variable. Every experiment binary calls this first
/// thing in `main`; with neither source set, tracing stays off and
/// every hook in the workspace remains a single predictable branch.
///
/// Telemetry, flight dumps and epoch exports go to files under the
/// trace directory only — stdout is byte-identical with tracing off
/// and on.
pub fn init_obs() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-dir" {
            if let Some(dir) = args.next() {
                vsnoop::obs::set_trace_dir(Some(std::path::PathBuf::from(dir)));
                return;
            }
        } else if let Some(dir) = a.strip_prefix("--trace-dir=") {
            if !dir.is_empty() {
                vsnoop::obs::set_trace_dir(Some(std::path::PathBuf::from(dir)));
                return;
            }
        }
    }
    vsnoop::obs::init_from_env();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = TextTable::new(["a", "longer"]);
        t.row(["xxxxx", "1"]);
        t.row(["y", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have the same width for column 0.
        assert!(lines[2].starts_with("xxxxx  "));
        assert!(lines[3].starts_with("y      "));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(s.contains('1'));
    }

    #[test]
    fn csv_rendering_quotes_when_needed() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["plain", "with,comma"]);
        t.row(["with\"quote", "x"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert_eq!(lines[2], "\"with\"\"quote\",x");
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(4.5678), "4.6");
        assert_eq!(f2(4.5678), "4.57");
        assert_eq!(opt(None), "-");
        assert_eq!(opt(Some(62.79)), "62.8");
    }
}
