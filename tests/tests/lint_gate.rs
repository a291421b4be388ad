//! The lint gate: `cargo test` fails if any workspace invariant checked
//! by `dls-lint` is violated.
//!
//! The gate is baseline-aware: a finding listed in `lint_baseline.json`
//! at the repo root is accepted (so a burn-down can be staged across
//! PRs), but every *new* finding fails, and a separate test pins the
//! shipped baseline to empty so it can only grow in an explicit diff.
//!
//! The same scan is available interactively as `cargo run -p dls-lint`
//! (add `--json` for machine-readable output, `--baseline` for the same
//! acceptance semantics as this gate).

use std::path::Path;

/// Walks up from this package to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
fn workspace_root() -> &'static Path {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
        })
        .expect("test package lives inside the workspace")
}

/// Reads and parses the committed baseline.
fn baseline() -> Vec<dls_lint::baseline::BaselineEntry> {
    let path = workspace_root().join("lint_baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    dls_lint::baseline::parse(&text).expect("lint_baseline.json parses")
}

#[test]
fn workspace_passes_dls_lint() {
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    let (fresh, _accepted) = dls_lint::baseline::diff(&report.diagnostics, &baseline());
    assert!(
        fresh.is_empty(),
        "dls-lint found {} non-baselined violation(s):\n\n{}",
        fresh.len(),
        report.render_text()
    );
}

#[test]
fn shipped_baseline_is_empty() {
    // The workspace is fully clean or suppressed-with-reason; growing the
    // baseline is allowed only as an explicit, reviewed diff of this test.
    assert!(
        baseline().is_empty(),
        "lint_baseline.json has entries — burn them down or update this test \
         with a written justification"
    );
}

#[test]
fn all_analysis_passes_run_on_the_workspace() {
    // Each pass activates only when its scoped files are present; a rename
    // of round.rs/runtime.rs/biguint.rs must not silently disable a pass.
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    for pass in dls_lint::passes::PASS_NAMES {
        assert!(
            report.passes_run.contains(pass),
            "pass {pass:?} did not activate — were its scoped files renamed? \
             (ran: {:?})",
            report.passes_run
        );
    }
}

#[test]
fn lint_scan_covers_the_whole_workspace() {
    // A refactor that silently excludes members from the scan would make
    // the gate above pass vacuously; pin rough coverage floors.
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    assert!(
        report.files_scanned >= 70,
        "only {} files scanned — did member discovery break?",
        report.files_scanned
    );
    assert!(
        report.manifests_checked >= 11,
        "only {} manifests checked — did member discovery break?",
        report.manifests_checked
    );
}
