//! The docs cite the design by section and title: every
//! `DESIGN.md §N "title"` citation in the tree's Markdown, Rust, shell
//! and SQL files (and every bare `§N "title"` inside DESIGN.md) names
//! section `N`, and `title` is a heading of that section or a bold or
//! italic run-in title in it (`**Title.**`, `*Title.*`; a run-in title's
//! trailing parenthetical may be left out). A citation wrapped across
//! lines or comment markers counts as one. CHANGES.md is a log of what
//! each change said at the time, so it is not held to the current
//! sections.
//!
//! Every `crates/…` path the same files name exists, a `*` matching any
//! run of characters within one path component and `{a,b}` either
//! alternative. CHANGES.md is exempt as a log, the benchmark package
//! `genesis_e2e/` as frozen with its benchmark, this file for its
//! examples and `tests/gates.rs`, which names a deleted file to hold it
//! deleted and checks that every other path it scans exists.

use std::fs;
use std::path::{Path, PathBuf};

/// The file exempt from the check (see the module header).
const EXEMPT: &str = "CHANGES.md";

/// The files the check reads: every `.md`, `.rs`, `.sh` and `.sql` file
/// under `dir`, build output and version control aside.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                sources(&path, out);
            }
        } else if ["md", "rs", "sh", "sql"].iter().any(|ext| name.ends_with(&format!(".{ext}"))) {
            out.push(path);
        }
    }
}

/// `text` with each line break and the indentation after it read as one
/// space, and with `markers`, the comment marker (`//!`, `///`, `//`,
/// `#`, `*`, `>`, each followed by a space) that starts a line, too.
fn joined(text: &str, markers: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = line.trim_start();
        let marker = ["//!", "///", "//", "#", "*", ">"]
            .iter()
            .filter(|_| markers)
            .find_map(|m| line.strip_prefix(m).filter(|rest| rest.is_empty() || rest.starts_with(' ')));
        let line = marker.unwrap_or(line).trim();
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(line);
    }
    out
}

/// One citation: the section number and the quoted title.
#[derive(Debug)]
struct Citation {
    file: String,
    section: u32,
    title: String,
}

/// The `§N "title"` citations in `text` (joined), each after `DESIGN.md`
/// unless `bare` admits one with no file named before it.
fn citations(file: &str, text: &str, bare: bool, out: &mut Vec<Citation>) {
    let text = joined(text, true);
    for (at, _) in text.match_indices('§') {
        let before = text[..at].trim_end().trim_end_matches('(').trim_end();
        let cited = before.ends_with("DESIGN.md") || (bare && !before.ends_with(".md"));
        if !cited {
            continue;
        }
        let rest = &text[at + '§'.len_utf8()..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let Ok(section) = rest[..digits].parse() else { continue };
        let rest = rest[digits..].trim_start_matches(',').trim_start();
        let Some(open) = rest.chars().next().filter(|&c| c == '"' || c == '“') else { continue };
        let rest = &rest[open.len_utf8()..];
        let Some(end) = rest.find(['"', '”']) else { continue };
        let title = rest[..end].to_owned();
        out.push(Citation { file: file.to_owned(), section, title });
    }
}

/// DESIGN.md's `## N. Title` sections: each number with its heading lines
/// and its text joined.
fn sections(design: &str) -> Vec<(u32, Vec<String>, String)> {
    let mut out: Vec<(u32, Vec<String>, String)> = Vec::new();
    let mut body = String::new();
    for line in design.lines() {
        let number = line.strip_prefix("## ").and_then(|h| h.split_once(". ")?.0.parse().ok());
        if let Some(n) = number {
            if let Some(last) = out.last_mut() {
                last.2 = joined(&body, false);
            }
            body.clear();
            out.push((n, Vec::new(), String::new()));
        }
        let Some(last) = out.last_mut() else { continue };
        if line.starts_with('#') {
            let heading = line.trim_start_matches('#').trim();
            let heading = heading.split_once(". ").filter(|(n, _)| n.parse::<u32>().is_ok());
            let heading = heading.map_or(line.trim_start_matches('#').trim(), |(_, h)| h);
            last.1.push(heading.trim_end_matches('.').to_owned());
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    if let Some(last) = out.last_mut() {
        last.2 = joined(&body, false);
    }
    out
}

/// Whether `title` is a heading of the section or a bold or italic
/// run-in title in its `text`.
fn names(headings: &[String], text: &str, title: &str) -> bool {
    if headings.iter().any(|h| h == title.trim_end_matches('.')) {
        return true;
    }
    let title = title.trim_end_matches('.');
    ["**", "*", "_"].iter().any(|mark| {
        let run_in = format!("{mark}{title}");
        text.match_indices(&run_in).any(|(at, _)| {
            let open_ok = !text[..at].ends_with('*');
            let rest = &text[at + run_in.len()..];
            let rest = rest.strip_prefix(['.', ':']).unwrap_or(rest);
            open_ok && (rest.starts_with(mark) || rest.starts_with(" ("))
        })
    })
}

#[test]
fn every_design_citation_names_its_section_and_title() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let sections = sections(&design);
    let mut files = Vec::new();
    sources(root, &mut files);
    let mut found = Vec::new();
    for path in &files {
        let file = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
        if file == EXEMPT {
            continue;
        }
        let Ok(text) = fs::read_to_string(path) else { continue };
        citations(&file, &text, file == "DESIGN.md", &mut found);
    }
    let broken: Vec<String> = found
        .iter()
        .filter(|c| {
            let section = sections.iter().find(|(n, _, _)| *n == c.section);
            !section.is_some_and(|(_, headings, text)| names(headings, text, &c.title))
        })
        .map(|c| format!("{}: DESIGN.md §{} \"{}\"", c.file, c.section, c.title))
        .collect();
    assert!(found.len() >= 40, "only {} citations found: the scan reads too little", found.len());
    let n = broken.len();
    assert!(n == 0, "{n} citations name no title of their section:\n{}", broken.join("\n"));
}

/// Files whose `crates/…` paths are not checked (see the module header).
const PATHS_EXEMPT: [&str; 4] = ["CHANGES.md", "genesis_e2e/", "tests/docs.rs", "tests/gates.rs"];

/// The `crates/…` paths named in `text`, each with its line number,
/// trailing punctuation left off.
fn crate_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("crates/") {
            let preceded = line[..at].chars().next_back();
            if preceded.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '/' || c == '.') {
                continue;
            }
            let path: String = line[at..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || "_./{},*-".contains(c))
                .collect();
            out.push((n + 1, path.trim_end_matches(['.', ',']).to_owned()));
        }
    }
    out
}

/// `path` with its one `{a,b}` group expanded.
fn alternatives(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_owned()],
    }
}

/// Whether `name` matches `pattern`, whose `*`s match any run of
/// characters.
fn glob_matches(pattern: &str, name: &str) -> bool {
    let mut parts = pattern.split('*');
    let first = parts.next().unwrap_or("");
    let Some(mut rest) = name.strip_prefix(first) else { return false };
    let parts: Vec<&str> = parts.collect();
    for (i, part) in parts.iter().enumerate() {
        if i + 1 == parts.len() {
            return rest.len() >= part.len() && rest.ends_with(part);
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    rest.is_empty()
}

/// Whether some file or directory under `root` matches `path`, component
/// by component.
fn exists(root: &Path, path: &str) -> bool {
    let mut dirs = vec![root.to_path_buf()];
    for component in path.split('/').filter(|c| !c.is_empty()) {
        let mut next = Vec::new();
        for dir in &dirs {
            if !component.contains('*') {
                next.push(dir.join(component));
                continue;
            }
            let Ok(entries) = fs::read_dir(dir) else { continue };
            for entry in entries.flatten() {
                if glob_matches(component, &entry.file_name().to_string_lossy()) {
                    next.push(entry.path());
                }
            }
        }
        dirs = next;
    }
    dirs.iter().any(|p| p.exists())
}

#[test]
fn every_named_crate_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(root, &mut files);
    let (mut named, mut missing) = (0, Vec::new());
    for path in &files {
        let file = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
        if PATHS_EXEMPT.iter().any(|e| file == *e || (e.ends_with('/') && file.starts_with(e))) {
            continue;
        }
        let Ok(text) = fs::read_to_string(path) else { continue };
        for (line, named_path) in crate_paths(&text) {
            named += 1;
            for alt in alternatives(&named_path) {
                if !exists(root, &alt) {
                    missing.push(format!("{file}:{line}: {alt}"));
                }
            }
        }
    }
    assert!(named >= 40, "only {named} paths found: the scan reads too little");
    let n = missing.len();
    assert!(n == 0, "{n} named paths do not exist:\n{}", missing.join("\n"));
}

#[test]
fn a_named_path_is_read_with_its_globs_and_alternatives() {
    let text = "see `crates/hw/src/modules/{mem_writer,binidgen}.rs`, and crates/*/src.\n\
                not xcrates/a, nor lib/crates/b";
    let paths: Vec<String> = crate_paths(text).into_iter().map(|(_, p)| p).collect();
    assert_eq!(paths, ["crates/hw/src/modules/{mem_writer,binidgen}.rs", "crates/*/src"]);
    assert_eq!(
        alternatives(&paths[0]),
        ["crates/hw/src/modules/mem_writer.rs", "crates/hw/src/modules/binidgen.rs"]
    );
    assert!(glob_matches("*.rs", "tier.rs") && glob_matches("a*b*c", "abbc"));
    assert!(!glob_matches("*.rs", "tier.md") && !glob_matches("a*b", "ab c"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(exists(root, "crates/*/src") && exists(root, "crates/hw/src/modules/*.rs"));
    assert!(!exists(root, "crates/core/src/lower.rs") && !exists(root, "crates/*/nothing"));
}

#[test]
fn a_citation_must_name_a_title_of_its_own_section() {
    let design = "## 1. One\n\n**A rule.** Text.\n\n### Sub head\n\n## 2. Two\n\n*Other (why).* More.\n";
    let sections = sections(design);
    let cite = |text: &str| {
        let mut found = Vec::new();
        citations("x.md", text, false, &mut found);
        let c = &found[0];
        let section = sections.iter().find(|(n, _, _)| *n == c.section);
        section.is_some_and(|(_, headings, body)| names(headings, body, &c.title))
    };
    assert!(cite("see DESIGN.md §1 \"A rule\""));
    assert!(cite("see (DESIGN.md\n// §1 \"Sub head\")"));
    assert!(cite("DESIGN.md §2 \"Two\""));
    assert!(cite("DESIGN.md §2 \"Other\""), "a run-in title's parenthetical may be left out");
    assert!(!cite("DESIGN.md §2 \"A rule\""), "a title of another section");
    assert!(!cite("DESIGN.md §1 \"A rul\""), "a title cut short");
    assert!(!cite("DESIGN.md §3 \"One\""), "no such section");
}
