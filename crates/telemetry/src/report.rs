//! Structured flow reports: one [`Report`] renders as aligned human text
//! *and* as JSON, replacing the ad-hoc `report_output.txt` dumps.

use crate::json::Json;
use std::fmt::Write as _;

/// A titled group of key/value entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section heading.
    pub title: String,
    /// Entries in insertion order.
    pub entries: Vec<(String, Json)>,
}

impl Section {
    /// An empty section.
    pub fn new(title: &str) -> Self {
        Section {
            title: title.to_owned(),
            entries: Vec::new(),
        }
    }

    /// Appends one entry (builder-style).
    pub fn entry(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.entries.push((key.to_owned(), value.into()));
        self
    }

    /// Appends one entry in place.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        self.entries.push((key.to_owned(), value.into()));
    }
}

/// A structured report: a title plus ordered sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Report heading.
    pub title: String,
    /// Sections in insertion order.
    pub sections: Vec<Section>,
}

impl Report {
    /// An empty report.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Appends a section (builder-style).
    pub fn section(mut self, section: Section) -> Self {
        self.sections.push(section);
        self
    }

    /// Renders as aligned human-readable text (keys padded per section;
    /// strings print unquoted, every other value as its JSON).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.chars().count()));
        for section in &self.sections {
            out.push('\n');
            let _ = writeln!(out, "{}", section.title);
            let _ = writeln!(out, "{}", "-".repeat(section.title.chars().count()));
            let width = section
                .entries
                .iter()
                .map(|(k, _)| k.chars().count())
                .max()
                .unwrap_or(0);
            for (key, value) in &section.entries {
                let text = match value {
                    Json::Str(s) => s.clone(),
                    other => other.render(),
                };
                let _ = writeln!(out, "  {key:width$}  {text}");
            }
        }
        out
    }

    /// Renders as pretty-printed JSON (deterministic byte layout).
    pub fn to_json(&self) -> String {
        let sections: Vec<Json> = self
            .sections
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("title", Json::Str(s.title.clone())),
                    ("entries", Json::Obj(s.entries.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("sections", Json::Arr(sections)),
        ])
        .render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new("Symbad flow report").section(
            Section::new("Bus")
                .entry("transactions", 42u64)
                .entry("utilisation", 0.276)
                .entry("ok", true),
        )
    }

    #[test]
    fn text_layout_is_aligned() {
        let text = sample().to_text();
        assert!(text.starts_with("Symbad flow report\n=================="));
        assert!(text.contains("Bus\n---\n"));
        assert!(text.contains("  transactions  42\n"));
        assert!(text.contains("  utilisation   0.276\n"));
        assert!(text.contains("  ok            true\n"));
    }

    #[test]
    fn json_round_trips_values() {
        let json = sample().to_json();
        assert!(json.contains("\"title\": \"Symbad flow report\""));
        assert!(json.contains("\"transactions\": 42"));
        assert!(json.contains("\"utilisation\": 0.276"));
        assert!(json.contains("\"ok\": true"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_report_renders() {
        let r = Report::new("Empty");
        assert_eq!(r.to_text(), "Empty\n=====\n");
        assert!(r.to_json().contains("\"sections\": []"));
    }
}
