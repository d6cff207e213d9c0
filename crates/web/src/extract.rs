//! Attribute extraction: semi-structured parsing of page text back into
//! the auxiliary facts the adversary needs (paper Table IV's columns).

use crate::page::{PageKind, WebPage};
use fred_faults::InputDefect;

/// An auxiliary record extracted from one page — the programmatic analog
/// of one row of the paper's Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct AuxRecord {
    /// The page the record came from.
    pub page_id: usize,
    /// Name as printed on the page (noisy).
    pub name: String,
    /// Job title, when the page carries one.
    pub title: Option<String>,
    /// Employer, when the page carries one.
    pub employer: Option<String>,
    /// Employment seniority level 1..=4 inferred from the title keywords,
    /// when a title was found.
    pub seniority_level: Option<u8>,
    /// Property holdings in square feet, when the page carries them.
    pub property_sqft: Option<f64>,
}

/// The facts [`extract`] reads off one page, borrowed from the page's
/// text. Strings are copied only by [`consolidate`], once per
/// consolidated record, not once per page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageFacts<'a> {
    /// The page the facts came from.
    pub page_id: usize,
    /// Name as printed on the page (noisy).
    pub name: &'a str,
    /// Job title, when the page carries one.
    pub title: Option<&'a str>,
    /// Employer, when the page carries one.
    pub employer: Option<&'a str>,
    /// Seniority level of the title ([`title_seniority`]).
    pub seniority_level: Option<u8>,
    /// Property holdings in square feet, when the page carries them.
    pub property_sqft: Option<f64>,
}

/// [`PageFacts`] stored compactly, for a table of every page of a corpus:
/// the title and employer as byte ranges of the page's text, the page's
/// id and name left on the page. 40 bytes a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedFacts {
    title: Span,
    employer: Span,
    property_sqft: Option<f64>,
    seniority_level: Option<u8>,
}

/// A byte range `start..end` of a page's text, or none when `start` is
/// `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    const NONE: Span = Span {
        start: u32::MAX,
        end: u32::MAX,
    };

    /// The range of `part` within `text`, which must hold it.
    fn of(text: &str, part: Option<&str>) -> Span {
        let Some(part) = part else {
            return Span::NONE;
        };
        let start = (part.as_ptr() as usize)
            .checked_sub(text.as_ptr() as usize)
            .filter(|&start| start + part.len() <= text.len())
            .expect("extracted fields are slices of the page text");
        let offset = |at: usize| u32::try_from(at).expect("page text under 4 GiB");
        Span {
            start: offset(start),
            end: offset(start + part.len()),
        }
    }

    fn get(self, text: &str) -> Option<&str> {
        (self != Span::NONE).then(|| &text[self.start as usize..self.end as usize])
    }
}

impl PackedFacts {
    /// Packs the facts [`extract`] (or [`extract_checked`]) read off
    /// `page`.
    ///
    /// # Panics
    ///
    /// Panics when the facts are not `page`'s: their title or employer
    /// is not a slice of its text.
    pub fn pack(page: &WebPage, facts: &PageFacts<'_>) -> PackedFacts {
        PackedFacts {
            title: Span::of(&page.text, facts.title),
            employer: Span::of(&page.text, facts.employer),
            property_sqft: facts.property_sqft,
            seniority_level: facts.seniority_level,
        }
    }

    /// The facts as packed from `page` (which must be the page they were
    /// packed from).
    pub fn unpack<'p>(&self, page: &'p WebPage) -> PageFacts<'p> {
        PageFacts {
            page_id: page.id,
            name: &page.display_name,
            title: self.title.get(&page.text),
            employer: self.employer.get(&page.text),
            seniority_level: self.seniority_level,
            property_sqft: self.property_sqft,
        }
    }
}

/// Maps a job title to a seniority level 1..=4 by keyword — the domain
/// knowledge the paper's adversary applies to the Employment column.
/// Keywords match anywhere in the Unicode lowercase of the title.
pub fn title_seniority(title: &str) -> Option<u8> {
    let found = if title.is_ascii() {
        keywords_in(title.as_bytes())
    } else {
        keywords_in(title.to_lowercase().as_bytes())
    };
    let has = |keywords: u16| found & keywords != 0;
    // Most-senior keywords first so "assistant professor" and
    // "assistant" resolve correctly.
    if has(CEO | CHIEF | CHAIR | PRESIDENT) {
        Some(4)
    } else if has(DIRECTOR) || (has(PROFESSOR) && !has(ASSISTANT | ASSOCIATE)) || has(VP) {
        Some(3)
    } else if has(MANAGER | ASSOCIATE) {
        Some(2)
    } else if has(ASSISTANT | ANALYST | INTERN) {
        Some(1)
    } else {
        None
    }
}

// The seniority keywords, one bit each.
const CEO: u16 = 1;
const CHIEF: u16 = 1 << 1;
const CHAIR: u16 = 1 << 2;
const PRESIDENT: u16 = 1 << 3;
const DIRECTOR: u16 = 1 << 4;
const PROFESSOR: u16 = 1 << 5;
const VP: u16 = 1 << 6;
const MANAGER: u16 = 1 << 7;
const ASSOCIATE: u16 = 1 << 8;
const ASSISTANT: u16 = 1 << 9;
const ANALYST: u16 = 1 << 10;
const INTERN: u16 = 1 << 11;

/// The seniority keywords occurring in `text` (ignoring ASCII case), in
/// one pass: at each position at most one keyword can start, found by its
/// first letter. On the bytes of an ASCII title this is substring search
/// in its lowercase; on the bytes of an already-lowercased title it is
/// plain substring search (ASCII keyword bytes never match inside a
/// multi-byte character).
fn keywords_in(text: &[u8]) -> u16 {
    let mut found = 0;
    for i in 0..text.len() {
        let rest = &text[i..];
        let at = |word: &str| {
            rest.len() >= word.len() && rest[..word.len()].eq_ignore_ascii_case(word.as_bytes())
        };
        found |= match rest[0].to_ascii_lowercase() {
            b'a' if at("assistant") => ASSISTANT,
            b'a' if at("associate") => ASSOCIATE,
            b'a' if at("analyst") => ANALYST,
            b'c' if at("ceo") => CEO,
            b'c' if at("chief") => CHIEF,
            b'c' if at("chair") => CHAIR,
            b'd' if at("director") => DIRECTOR,
            b'i' if at("intern") => INTERN,
            b'm' if at("manager") => MANAGER,
            b'p' if at("president") => PRESIDENT,
            b'p' if at("professor") => PROFESSOR,
            b'v' if at("vp") => VP,
            _ => 0,
        };
    }
    found
}

/// Extracts a page's facts.
///
/// Extraction is template-aware but intentionally lossy in exactly the ways
/// the page kinds are: news blurbs yield no title or property, directory
/// entries no property, and so on.
pub fn extract(page: &WebPage) -> PageFacts<'_> {
    let text = page.text.as_str();
    let mut facts = PageFacts {
        page_id: page.id,
        name: &page.display_name,
        title: None,
        employer: None,
        seniority_level: None,
        property_sqft: None,
    };
    match page.kind {
        PageKind::Directory => {
            facts.title = field_after(text, "Position:");
            facts.employer = field_after(text, "Organization:");
        }
        PageKind::Homepage => {
            // "I work as a {title} at {employer}."
            if let Some(rest) = text.split("work as a ").nth(1) {
                if let Some(stop) = rest.find(" at ") {
                    facts.title = Some(rest[..stop].trim());
                    let after = &rest[stop + 4..];
                    let end = after.find('.').unwrap_or(after.len());
                    facts.employer = Some(after[..end].trim());
                }
            }
            facts.property_sqft = sqft_before(text, "sq ft");
        }
        PageKind::News => {
            // "{name} of {employer} spoke at ..."
            if let Some(rest) = text.split(" of ").nth(1) {
                if let Some(stop) = rest.find(" spoke at") {
                    facts.employer = Some(rest[..stop].trim());
                }
            }
        }
        PageKind::PropertyRecord => {
            facts.property_sqft = sqft_before(text, "sq ft");
        }
        PageKind::Blog => {
            // "By day I'm a {title}, paying my dues at {employer};"
            if let Some(rest) = text.split("I'm a ").nth(1) {
                if let Some(stop) = rest.find(',') {
                    facts.title = Some(rest[..stop].trim());
                }
            }
            if let Some(rest) = text.split(" dues at ").nth(1) {
                let end = rest.find(';').unwrap_or(rest.len());
                facts.employer = Some(rest[..end].trim());
            }
        }
    }
    facts.seniority_level = facts.title.and_then(title_seniority);
    facts
}

/// Checked variant of [`extract`] for dirty corpora: instead of parsing
/// whatever survives on a damaged page, it rejects pages whose template
/// frame is no longer intact — so a tolerant caller can *skip and count*
/// the page rather than fuse garbage.
///
/// Rejections map onto the shared taxonomy: a page with no name or text
/// at all (a tombstone) is a [`MalformedPage`](InputDefect::MalformedPage);
/// a page whose kind-specific head or tail marker is cut off is a
/// [`TruncatedPage`](InputDefect::TruncatedPage). On every cleanly
/// rendered page this returns exactly `Ok(extract(page))` (a non-finite
/// square footage is additionally dropped, defensively — templates never
/// render one).
pub fn extract_checked(page: &WebPage) -> Result<PageFacts<'_>, InputDefect> {
    if page.display_name.trim().is_empty() || page.text.trim().is_empty() {
        return Err(InputDefect::MalformedPage);
    }
    // Each template has a fixed head and tail; truncation or a garble
    // window over either boundary breaks the frame.
    let (head, tail) = match page.kind {
        PageKind::Directory => ("STAFF DIRECTORY", "Office hours by appointment."),
        PageKind::Homepage => ("Welcome to the homepage of", "Thanks for visiting!"),
        PageKind::News => ("LOCAL NEWS", "public library."),
        PageKind::PropertyRecord => ("COUNTY PROPERTY RECORDS", "Assessment year:"),
        PageKind::Blog => ("About me", "gardening and chess."),
    };
    if !page.text.starts_with(head) || !page.text.contains(tail) {
        return Err(InputDefect::TruncatedPage);
    }
    let mut facts = extract(page);
    if facts.property_sqft.is_some_and(|s| !s.is_finite()) {
        facts.property_sqft = None;
    }
    Ok(facts)
}

/// Merges several extractions about the same person into one consolidated
/// record: first non-missing title/employer, maximum seniority, mean of the
/// property figures (a real adversary would reconcile sources similarly).
/// The record's page id and name are the first extraction's.
pub fn consolidate(facts: &[PageFacts<'_>]) -> Option<AuxRecord> {
    let first = facts.first()?;
    let mut title = None;
    let mut employer = None;
    let mut seniority_level: Option<u8> = None;
    for f in facts {
        title = title.or(f.title);
        employer = employer.or(f.employer);
        seniority_level = match (seniority_level, f.seniority_level) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    let sqfts = facts.iter().filter_map(|f| f.property_sqft);
    let count = sqfts.clone().count();
    Some(AuxRecord {
        page_id: first.page_id,
        name: first.name.to_owned(),
        title: title.map(str::to_owned),
        employer: employer.map(str::to_owned),
        seniority_level,
        property_sqft: (count > 0).then(|| sqfts.sum::<f64>() / count as f64),
    })
}

fn field_after<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    let start = text.find(label)? + label.len();
    let rest = &text[start..];
    let end = rest.find('\n').unwrap_or(rest.len());
    let value = rest[..end].trim();
    (!value.is_empty()).then_some(value)
}

/// Finds the number immediately preceding `unit` in the text.
fn sqft_before(text: &str, unit: &str) -> Option<f64> {
    let pos = text.find(unit)?;
    let before = text[..pos].trim_end();
    // The number starts after the last character that cannot be part of
    // it (stepping over that character's full UTF-8 width).
    let start = before
        .char_indices()
        .rev()
        .find(|&(_, c)| !(c.is_ascii_digit() || c == '.' || c == ','))
        .map_or(0, |(i, c)| i + c.len_utf8());
    let digits = &before[start..];
    if digits.contains(',') {
        digits.replace(',', "").parse().ok()
    } else {
        digits.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::WebPage;

    #[test]
    fn directory_extraction() {
        let p = WebPage::render(
            7,
            Some(1),
            PageKind::Directory,
            "Alice Walker",
            "Assistant Professor",
            "NYU",
            None,
        );
        let r = extract(&p);
        assert_eq!(r.title, Some("Assistant Professor"));
        assert_eq!(r.employer, Some("NYU"));
        assert_eq!(r.seniority_level, Some(1));
        assert_eq!(r.property_sqft, None);
        assert_eq!(r.page_id, 7);
    }

    #[test]
    fn homepage_extraction() {
        let p = WebPage::render(
            0,
            None,
            PageKind::Homepage,
            "Robert Smith",
            "CEO",
            "Microsoft",
            Some(5430.0),
        );
        let r = extract(&p);
        assert_eq!(r.title, Some("CEO"));
        assert_eq!(r.employer, Some("Microsoft"));
        assert_eq!(r.seniority_level, Some(4));
        assert_eq!(r.property_sqft, Some(5430.0));
    }

    #[test]
    fn news_extraction_only_employer() {
        let p = WebPage::render(
            0,
            None,
            PageKind::News,
            "Wei Chen",
            "Director",
            "General Electric",
            Some(2000.0),
        );
        let r = extract(&p);
        assert_eq!(r.employer, Some("General Electric"));
        assert_eq!(r.title, None);
        assert_eq!(r.property_sqft, None);
    }

    #[test]
    fn property_record_extraction() {
        let p = WebPage::render(
            0,
            Some(3),
            PageKind::PropertyRecord,
            "Bob Lee",
            "",
            "",
            Some(1234.0),
        );
        let r = extract(&p);
        assert_eq!(r.property_sqft, Some(1234.0)); // template renders %.0f
        assert_eq!(r.title, None);
    }

    #[test]
    fn blog_extraction() {
        let p = WebPage::render(
            3,
            Some(7),
            PageKind::Blog,
            "Wei Chen",
            "Manager",
            "Verizon",
            None,
        );
        let r = extract(&p);
        assert_eq!(r.title, Some("Manager"));
        assert_eq!(r.employer, Some("Verizon"));
        assert_eq!(r.seniority_level, Some(2));
        assert_eq!(r.property_sqft, None);
    }

    #[test]
    fn packed_facts_unpack_to_the_extraction() {
        let kinds = [
            PageKind::Directory,
            PageKind::Homepage,
            PageKind::News,
            PageKind::PropertyRecord,
            PageKind::Blog,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            for (title, employer, sqft) in [
                ("Assistant Professor", "NYU", Some(1234.0)),
                ("", "", None),
                ("Chief Économiste", "Société Générale", Some(2e6)),
            ] {
                let p = WebPage::render(i, Some(i), kind, "Wei Chen", title, employer, sqft);
                let facts = extract(&p);
                assert_eq!(PackedFacts::pack(&p, &facts).unpack(&p), facts, "{kind:?}");
            }
        }
        assert_eq!(std::mem::size_of::<PackedFacts>(), 40);
    }

    #[test]
    #[should_panic(expected = "slices of the page text")]
    fn packed_facts_refuse_another_pages_fields() {
        let p = WebPage::render(
            0,
            None,
            PageKind::Blog,
            "Wei Chen",
            "Manager",
            "Verizon",
            None,
        );
        let q = p.clone();
        PackedFacts::pack(&p, &extract(&q));
    }

    #[test]
    fn title_seniority_mapping() {
        assert_eq!(title_seniority("CEO"), Some(4));
        assert_eq!(title_seniority("Department Chair"), Some(4));
        assert_eq!(title_seniority("Director of Engineering"), Some(3));
        assert_eq!(title_seniority("Professor"), Some(3));
        assert_eq!(title_seniority("Associate Professor"), Some(2));
        assert_eq!(title_seniority("Manager"), Some(2));
        assert_eq!(title_seniority("Assistant Professor"), Some(1));
        assert_eq!(title_seniority("Analyst"), Some(1));
        assert_eq!(title_seniority("Wizard"), None);
        // Case-insensitive, on ASCII and non-ASCII titles alike.
        assert_eq!(title_seniority("VICE PRESIDENT"), Some(4));
        assert_eq!(title_seniority("Senior Analyst"), Some(1));
        assert_eq!(title_seniority("Directeur Général · DIRECTOR"), Some(3));
        assert_eq!(title_seniority("Ärztlicher ASSISTANT"), Some(1));
        assert_eq!(title_seniority("Ärztin"), None);
        assert_eq!(title_seniority(""), None);
    }

    #[test]
    fn title_seniority_equals_lowercase_substring_search() {
        // The rule as first written: lowercase the title, then substring
        // search for each keyword.
        fn reference(title: &str) -> Option<u8> {
            let t = title.to_lowercase();
            if t.contains("ceo")
                || t.contains("chief")
                || t.contains("chair")
                || t.contains("president")
            {
                Some(4)
            } else if t.contains("director")
                || (t.contains("professor") && !t.contains("assistant") && !t.contains("associate"))
                || t.contains("vp")
            {
                Some(3)
            } else if t.contains("manager") || t.contains("associate") {
                Some(2)
            } else if t.contains("assistant") || t.contains("analyst") || t.contains("intern") {
                Some(1)
            } else {
                None
            }
        }
        let fragments = [
            "",
            " ",
            "CEO",
            "ce",
            "o",
            "Chair",
            "VP",
            "v",
            "Assist",
            "ant",
            "associate",
            "PROFESSOR",
            "Intern",
            "Ärzt",
            "İ",
            "\u{212A}",
            "manag",
            "ER",
            "analyst",
        ];
        for a in fragments {
            for b in fragments {
                for c in fragments {
                    let title = format!("{a}{b}{c}");
                    assert_eq!(title_seniority(&title), reference(&title), "{title:?}");
                }
            }
        }
    }

    #[test]
    fn sqft_before_steps_over_multibyte_characters() {
        // A multi-byte character right before the number used to slice
        // inside it and panic.
        assert_eq!(sqft_before("é1234 sq ft", "sq ft"), Some(1234.0));
        assert_eq!(sqft_before("home — 2,400 sq ft", "sq ft"), Some(2400.0));
        assert_eq!(sqft_before("1234 sq ft", "sq ft"), Some(1234.0));
        assert_eq!(sqft_before("no figure sq ft", "sq ft"), None);
        assert_eq!(sqft_before("no unit", "sq ft"), None);
    }

    #[test]
    fn extract_checked_accepts_every_clean_template() {
        for (i, kind) in PageKind::ALL.into_iter().enumerate() {
            let p = WebPage::render(
                i,
                Some(i),
                kind,
                "Alice Walker",
                "Director",
                "NYU",
                Some(2200.0),
            );
            let checked = extract_checked(&p).unwrap_or_else(|e| panic!("{kind}: {e}"));
            // Exact agreement with the lossy extractor on intact pages.
            assert_eq!(checked, extract(&p), "{kind}");
        }
    }

    #[test]
    fn extract_checked_rejects_truncated_pages() {
        // Regression: truncated pages used to be parsed as if intact,
        // feeding half-fields into consolidation.
        for (i, kind) in PageKind::ALL.into_iter().enumerate() {
            let mut p = WebPage::render(
                i,
                Some(i),
                kind,
                "Alice Walker",
                "Director",
                "NYU",
                Some(2200.0),
            );
            p.text.truncate(p.text.len() / 2);
            assert_eq!(
                extract_checked(&p),
                Err(InputDefect::TruncatedPage),
                "{kind}"
            );
        }
    }

    #[test]
    fn extract_checked_rejects_tombstones_and_blank_names() {
        let mut p = WebPage::render(0, None, PageKind::News, "Wei Chen", "Director", "NYU", None);
        p.text.clear();
        assert_eq!(extract_checked(&p), Err(InputDefect::MalformedPage));
        let mut q = WebPage::render(1, None, PageKind::News, "Wei Chen", "Director", "NYU", None);
        q.display_name = "   ".into();
        assert_eq!(extract_checked(&q), Err(InputDefect::MalformedPage));
    }

    #[test]
    fn consolidation_merges_sources() {
        let pages = [
            WebPage::render(
                0,
                Some(1),
                PageKind::Directory,
                "R. Smith",
                "Manager",
                "Verizon",
                None,
            ),
            WebPage::render(
                1,
                Some(1),
                PageKind::PropertyRecord,
                "Robert Smith",
                "",
                "",
                Some(2000.0),
            ),
            WebPage::render(
                2,
                Some(1),
                PageKind::PropertyRecord,
                "Robert Smith",
                "",
                "",
                Some(2400.0),
            ),
        ];
        let facts: Vec<PageFacts<'_>> = pages.iter().map(extract).collect();
        let merged = consolidate(&facts).unwrap();
        assert_eq!(merged.page_id, 0);
        assert_eq!(merged.name, "R. Smith");
        assert_eq!(merged.title.as_deref(), Some("Manager"));
        assert_eq!(merged.employer.as_deref(), Some("Verizon"));
        assert_eq!(merged.seniority_level, Some(2));
        assert_eq!(merged.property_sqft, Some(2200.0));
        assert!(consolidate(&[]).is_none());
    }
}
