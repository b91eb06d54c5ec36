//! The `compat` seam: each of `dubhe-he`, `dubhe-select` and `dubhe-net`
//! keeps the names only the detached `benchmark/` crate spells in one
//! `compat` module, as thin adapters over the live path. This guard keeps
//! the seam one-way. It reads each `compat` file's top-level `pub` names and
//! the methods it adds to types defined elsewhere, and fails if any Rust
//! file under `crates/`, `tests/`, `examples/` or `src/` names one — the
//! `compat` files themselves and their `#[doc(hidden)] pub use` re-export
//! lines excepted. So nothing but the benchmark comes to depend on the
//! seam, and deleting it stays a benchmark-only change.

use std::path::{Path, PathBuf};

const COMPAT_FILES: [&str; 3] = [
    "crates/dubhe-he/src/compat.rs",
    "crates/dubhe-select/src/compat.rs",
    "crates/dubhe-net/src/compat.rs",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The identifier at the front of `text`.
fn ident(text: &str) -> String {
    text.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// The names a `compat` file gives the outside: its top-level `pub` items,
/// the new names of its top-level `pub use … as Name` re-exports, and the
/// `pub fn`s of each `impl` block for a type it does not define. Its tests,
/// after `#[cfg(test)]`, are not read.
fn compat_names(source: &str) -> Vec<String> {
    let source = source.split("#[cfg(test)]").next().unwrap_or_default();
    let (mut defined, mut methods) = (Vec::new(), Vec::new());
    let (mut depth, mut impl_of, mut reexport) = (0usize, None::<String>, false);
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or_default().trim();
        if reexport || (depth == 0 && code.starts_with("pub use ")) {
            reexport = !code.ends_with(';');
            defined.extend(code.split(" as ").skip(1).map(ident));
        }
        if depth == 0 {
            let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
            if let Some(rest) = kinds
                .iter()
                .find_map(|kind| code.strip_prefix(&format!("pub {kind} ")))
            {
                defined.push(ident(rest));
            }
            impl_of = code.strip_prefix("impl ").map(ident);
        } else if depth == 1 {
            if let (Some(ty), Some(rest)) = (&impl_of, code.strip_prefix("pub fn ")) {
                methods.push((ty.clone(), ident(rest)));
            }
        }
        depth += code.matches('{').count();
        depth -= code.matches('}').count();
    }
    methods.retain(|(ty, _)| !defined.contains(ty));
    defined.extend(methods.into_iter().map(|(_, method)| method));
    defined
}

/// `source` without its `#[doc(hidden)] pub use …compat…;` statements.
fn without_reexports(source: &str) -> String {
    let (mut kept, mut skipping, mut hidden) = (String::new(), false, false);
    for line in source.lines() {
        let code = line.trim();
        if hidden && code.starts_with("pub use") && code.contains("compat") {
            skipping = true;
        }
        hidden = code == "#[doc(hidden)]";
        if skipping {
            skipping = !code.ends_with(';');
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn nothing_outside_the_compat_modules_names_what_they_hold() {
    let root = repo_root();
    let mut names = Vec::new();
    for file in COMPAT_FILES {
        let source = std::fs::read_to_string(root.join(file)).unwrap();
        let found = compat_names(&source);
        assert!(!found.is_empty(), "{file}: no names read");
        names.extend(found);
    }

    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let compat: Vec<PathBuf> = COMPAT_FILES.iter().map(|f| root.join(f)).collect();
    let mut offences = Vec::new();
    for file in files.iter().filter(|file| !compat.contains(file)) {
        let source = without_reexports(&std::fs::read_to_string(file).unwrap());
        for (number, line) in source.lines().enumerate() {
            let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            for word in words.filter(|word| names.iter().any(|name| name == word)) {
                offences.push(format!("{}:{}: {word}", file.display(), number + 1));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "compat names used:\n{}",
        offences.join("\n")
    );
}

#[test]
fn the_reader_finds_items_and_methods_added_to_outside_types() {
    let source = "\
use crate::Outside;
pub struct Own;
pub use crate::Outside as Renamed;
pub use crate::{
    First as Second,
    Kept,
};
impl Own {
    pub fn own_method(self) {}
}
impl Outside {
    pub fn added(self) -> Self {
        self
    }
}
pub fn free<T>(t: T) {}
#[cfg(test)]
pub fn tested() {}
";
    assert_eq!(
        compat_names(source),
        ["Own", "Renamed", "Second", "free", "added"]
    );
    let reexports =
        "#[doc(hidden)]\npub use crate::compat::{\n    A,\n    B,\n};\npub use other::C;\n";
    assert_eq!(
        without_reexports(reexports),
        "#[doc(hidden)]\npub use other::C;\n"
    );
}
