//! Report emission: markdown tables and CSV series under
//! `target/repro/`.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A rendered experiment report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id, e.g. `table3` — used as the file stem.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Markdown body (tables + commentary).
    pub markdown: String,
    /// Named CSV series: `(name, header, rows)`.
    pub csv: Vec<(String, String, Vec<String>)>,
}

impl Report {
    /// Start a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        let id = id.into();
        let title = title.into();
        let mut markdown = String::new();
        let _ = writeln!(markdown, "# {title}\n");
        Report {
            id,
            title,
            markdown,
            csv: Vec::new(),
        }
    }

    /// Append a markdown paragraph.
    pub fn para(&mut self, text: &str) {
        let _ = writeln!(self.markdown, "{text}\n");
    }

    /// Append a markdown table.
    pub fn table<S: AsRef<str>>(&mut self, header: &[S], rows: &[Vec<String>]) {
        let header: Vec<&str> = header.iter().map(AsRef::as_ref).collect();
        let _ = writeln!(self.markdown, "| {} |", header.join(" | "));
        let _ = writeln!(
            self.markdown,
            "|{}|",
            header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in rows {
            let _ = writeln!(self.markdown, "| {} |", row.join(" | "));
        }
        let _ = writeln!(self.markdown);
    }

    /// Attach a CSV series.
    pub fn series(
        &mut self,
        name: impl Into<String>,
        header: impl Into<String>,
        rows: Vec<String>,
    ) {
        self.csv.push((name.into(), header.into(), rows));
    }

    /// Output directory (created on demand).
    pub fn out_dir() -> PathBuf {
        let dir = PathBuf::from("target/repro");
        std::fs::create_dir_all(&dir).ok();
        dir
    }

    /// Write the markdown and CSVs to `target/repro/` and echo the
    /// markdown to stdout. Returns the markdown path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Self::out_dir();
        let md_path = dir.join(format!("{}.md", self.id));
        std::fs::write(&md_path, &self.markdown)?;
        for (name, header, rows) in &self.csv {
            let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
            let _ = writeln!(text, "{header}");
            for r in rows {
                let _ = writeln!(text, "{r}");
            }
            std::fs::write(dir.join(format!("{}_{}.csv", self.id, name)), text)?;
        }
        println!("{}", self.markdown);
        Ok(md_path)
    }
}

/// Format a fractional excess as the paper prints it (`0.047%`, `OPT`).
pub fn fmt_excess(excess: f64) -> String {
    if excess <= 0.0 {
        "OPT".to_string()
    } else {
        format!("{:.3}%", excess * 100.0)
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.01 {
        format!("{:.1}ms", s * 1000.0)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut r = Report::new("t", "Test");
        r.table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(r.markdown.contains("| a | b |"));
        assert!(r.markdown.contains("|---|---|"));
        assert!(r.markdown.contains("| 3 | 4 |"));
    }

    #[test]
    fn excess_formatting() {
        assert_eq!(fmt_excess(0.0), "OPT");
        assert_eq!(fmt_excess(-0.1), "OPT");
        assert_eq!(fmt_excess(0.00047), "0.047%");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(0.005), "5.0ms");
        assert_eq!(fmt_secs(1.5), "1.50s");
    }

    #[test]
    fn write_emits_files() {
        let mut r = Report::new("unit_test_report", "Unit");
        r.para("hello");
        r.series("s1", "x,y", vec!["1,2".into()]);
        let path = r.write().unwrap();
        assert!(path.exists());
        assert!(Report::out_dir().join("unit_test_report_s1.csv").exists());
        std::fs::remove_file(path).ok();
        std::fs::remove_file(Report::out_dir().join("unit_test_report_s1.csv")).ok();
    }
}
