//! The lint engine: walks the workspace, runs every lint over every
//! file, then applies inline allows.

use std::path::{Path, PathBuf};

use crate::config::Policy;
use crate::diag::{Diagnostic, Disposition};
use crate::lints::{run_all, FileCtx};
use crate::model::WorkspaceModel;
use crate::scanner::FileInfo;
use crate::semantic;

/// The outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, including suppressed ones (disposition records
    /// how each was handled).
    pub diags: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing fails the run.
    pub fn is_clean(&self) -> bool {
        self.active() == 0
    }

    /// Findings that fail the run.
    pub fn active(&self) -> usize {
        self.diags.iter().filter(|d| d.disposition == Disposition::Active).count()
    }
}

/// A scan failure (I/O on the workspace tree).
#[derive(Debug)]
pub enum ScanError {
    /// The workspace root is missing the expected layout.
    BadRoot(PathBuf),
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl core::fmt::Display for ScanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScanError::BadRoot(p) => {
                write!(f, "{} does not look like the workspace root (no crates/)", p.display())
            }
            ScanError::Io(p, e) => write!(f, "reading {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for ScanError {}

/// Collects the workspace-relative paths of every `.rs` file under
/// `crates/*/src` and `src/`, sorted for deterministic reports.
///
/// # Errors
///
/// Fails when `root` has no `crates/` directory or a directory read
/// fails mid-walk.
fn workspace_files(root: &Path) -> Result<Vec<String>, ScanError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(ScanError::BadRoot(root.to_path_buf()));
    }
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&crates_dir).map_err(|e| ScanError::Io(crates_dir.clone(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::Io(crates_dir.clone(), e))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut files)?;
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ScanError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ScanError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one file's source text (exposed for fixture tests). Runs the
/// full pipeline — token lints plus the semantic passes over a
/// one-file workspace model.
pub fn lint_source(rel: &str, src: &str, policy: &Policy) -> Vec<Diagnostic> {
    lint_sources(&[(rel.to_string(), src.to_string())], policy)
}

/// Lints a set of files as one workspace: per-file token lints, then
/// the semantic lints (S1/T1) over the stitched workspace model,
/// then inline allow filtering. `files` pairs workspace-relative paths
/// with source text.
pub fn lint_sources(files: &[(String, String)], policy: &Policy) -> Vec<Diagnostic> {
    let infos: Vec<(String, FileInfo<'_>)> =
        files.iter().map(|(rel, src)| (rel.clone(), FileInfo::analyze(src))).collect();
    let mut out = Vec::new();
    for (rel, info) in &infos {
        let ctx = FileCtx { rel, krate: Policy::crate_of(rel), info, policy };
        run_all(&ctx, &mut out);
    }
    let model = WorkspaceModel::build(&infos, policy);
    out.extend(semantic::run_all(&model, policy));
    // Inline allows: A0 itself is exempt (an allow cannot excuse a
    // malformed allow).
    for d in &mut out {
        if d.lint == "A0" {
            continue;
        }
        if let Some((_, info)) = infos.iter().find(|(rel, _)| rel == &d.file) {
            if info.allowed(d.lint, d.line) {
                d.disposition = Disposition::Allowed;
            }
        }
    }
    out
}

/// Scans the whole workspace under `root`.
///
/// # Errors
///
/// Propagates tree-walk and file-read failures.
pub fn scan_workspace(root: &Path, policy: &Policy) -> Result<Report, ScanError> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in workspace_files(root)? {
        let path = root.join(&rel);
        let src = std::fs::read_to_string(&path).map_err(|e| ScanError::Io(path.clone(), e))?;
        sources.push((rel, src));
    }
    Ok(Report { files_scanned: sources.len(), diags: lint_sources(&sources, policy) })
}
