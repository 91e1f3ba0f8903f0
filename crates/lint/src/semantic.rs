//! Semantic lints over the workspace model: S1 snapshot-completeness
//! and T1 transitive hot-path. Unlike the token lints
//! these see the whole workspace at once — the call graph and the
//! struct tables — so a violation in one file can be caused by a
//! definition in another.

use crate::config::Policy;
use crate::diag::{Diagnostic, Disposition};
use crate::model::{FnId, WorkspaceModel};
use crate::parser::Site;

/// Runs all semantic lints, returning diagnostics sorted by position.
pub fn run_all(model: &WorkspaceModel, policy: &Policy) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    s1_snapshot_completeness(model, policy, &mut diags);
    t1_transitive_hot_path(model, policy, &mut diags);
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    diags
}

fn diag(lint: &'static str, name: &'static str, file: &str, site: &Site, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        name,
        file: file.to_string(),
        line: site.line,
        col: site.col,
        message,
        disposition: Disposition::Active,
    }
}

/// S1: every named field of `T` must be mentioned in both the `save`
/// and `load` bodies of `impl Snapshot for T`. Enums, tuple structs and
/// unresolvable self types are skipped — the lint only has teeth where
/// the field list is knowable.
fn s1_snapshot_completeness(model: &WorkspaceModel, policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for (rel, pf) in &model.files {
        for f in &pf.fns {
            if f.is_test || (f.name != "save" && f.name != "load") {
                continue;
            }
            let Some(trait_name) = &f.trait_name else { continue };
            if !policy.snapshot_traits.iter().any(|t| t == trait_name) {
                continue;
            }
            let Some(self_ty) = &f.self_ty else { continue };
            let Some(def) = model.resolve_struct(rel, self_ty) else { continue };
            if !def.has_named_fields || def.fields.is_empty() {
                continue;
            }
            let missing: Vec<&str> = def
                .fields
                .iter()
                .map(String::as_str)
                .filter(|field| !f.body_idents.iter().any(|id| id == field))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let site = Site { name: f.name.clone(), method: false, qual: None, line: f.line, col: f.col };
            diags.push(diag(
                "S1",
                "snapshot-completeness",
                rel,
                &site,
                format!(
                    "`{}::{}` never mentions field{} `{}` of `{}`; a field that skips the \
                     checkpoint frame silently breaks resume == uninterrupted (add it or justify \
                     with lint:allow(S1))",
                    self_ty,
                    f.name,
                    if missing.len() == 1 { "" } else { "s" },
                    missing.join("`, `"),
                    self_ty
                ),
            ));
        }
    }
}

/// Why a function may panic / allocate: a direct site in its body, or a
/// callee that may.
#[derive(Clone, Copy)]
enum Why {
    Direct(usize), // index into the fn's panics/allocs list
    Via(FnId),
}

/// Fixpoint-propagates a per-function "may" property backwards over the
/// call graph. `direct` gives the in-jurisdiction direct sites per fn.
fn propagate(model: &WorkspaceModel, direct: &[Option<usize>]) -> Vec<Option<Why>> {
    let n = model.fns.len();
    let mut why: Vec<Option<Why>> = direct.iter().map(|d| d.map(Why::Direct)).collect();
    // Reverse edges once; worklist from the directly-flagged fns.
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, calls) in model.calls.iter().enumerate() {
        for rc in calls {
            for &t in &rc.targets {
                rev[t].push(caller);
            }
        }
    }
    let mut queue: Vec<FnId> = (0..n).filter(|&i| why[i].is_some()).collect();
    let mut qi = 0;
    while qi < queue.len() {
        let f = queue[qi];
        qi += 1;
        for &caller in &rev[f] {
            if why[caller].is_none() {
                why[caller] = Some(Why::Via(f));
                queue.push(caller);
            }
        }
    }
    why
}

/// Renders the witness chain from `start` down to the direct site.
fn chain(
    model: &WorkspaceModel,
    why: &[Option<Why>],
    sites: &dyn Fn(FnId) -> Vec<Site>,
    start: FnId,
) -> String {
    let mut out = String::new();
    let mut cur = start;
    for _ in 0..64 {
        match why[cur] {
            Some(Why::Direct(i)) => {
                let node = &model.fns[cur];
                let list = sites(cur);
                let site = &list[i];
                out.push_str(&format!("`{}` ({}:{}: {})", node.def.name, node.file, site.line, site.name));
                return out;
            }
            Some(Why::Via(next)) => {
                out.push_str(&format!("`{}` → ", model.fns[cur].def.name));
                cur = next;
            }
            None => break,
        }
    }
    out
}

/// T1: extends H1 (no panic) and H2 (no alloc) transitively. A hot-path
/// function calling out of the H1/H2-audited modules into code that can
/// panic or allocate is flagged at the call site. Direct sites inside
/// the audited jurisdiction are not re-reported — H1/H2 own those.
fn t1_transitive_hot_path(model: &WorkspaceModel, policy: &Policy, diags: &mut Vec<Diagnostic>) {
    let in_hot_file = |id: FnId| policy.hot_files.iter().any(|h| h == &model.fns[id].file);
    let scoped = |id: FnId| {
        let node = &model.fns[id];
        in_hot_file(id) && policy.hot_fns.iter().any(|h| h == &node.def.name)
    };
    let n = model.fns.len();
    // H1's jurisdiction is whole hot files; H2's is hot fns in hot files.
    let direct_panic: Vec<Option<usize>> = (0..n)
        .map(|id| if !in_hot_file(id) && !model.fns[id].def.panics.is_empty() { Some(0) } else { None })
        .collect();
    let direct_alloc: Vec<Option<usize>> = (0..n)
        .map(|id| if !scoped(id) && !model.fns[id].def.allocs.is_empty() { Some(0) } else { None })
        .collect();
    let may_panic = propagate(model, &direct_panic);
    let may_alloc = propagate(model, &direct_alloc);
    let panic_sites = |id: FnId| model.fns[id].def.panics.clone();
    let alloc_sites = |id: FnId| model.fns[id].def.allocs.clone();

    for id in 0..n {
        if !scoped(id) {
            continue;
        }
        let node = &model.fns[id];
        for rc in &model.calls[id] {
            // The closest T1-scoped fn to the violation reports it;
            // calls into other scoped fns are their problem.
            let panic_target =
                rc.targets.iter().copied().find(|&t| t != id && !scoped(t) && may_panic[t].is_some());
            if let Some(t) = panic_target {
                diags.push(diag(
                    "T1",
                    "transitive-hot-path",
                    &node.file,
                    &rc.site,
                    format!(
                        "hot fn `{}` calls `{}`, which can panic: {}",
                        node.def.name,
                        rc.site.name,
                        chain(model, &may_panic, &panic_sites, t)
                    ),
                ));
            }
            let alloc_target =
                rc.targets.iter().copied().find(|&t| t != id && !scoped(t) && may_alloc[t].is_some());
            if let Some(t) = alloc_target {
                diags.push(diag(
                    "T1",
                    "transitive-hot-path",
                    &node.file,
                    &rc.site,
                    format!(
                        "hot fn `{}` calls `{}`, which allocates: {}",
                        node.def.name,
                        rc.site.name,
                        chain(model, &may_alloc, &alloc_sites, t)
                    ),
                ));
            }
        }
    }
}
