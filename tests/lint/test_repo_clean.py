"""The CI gate: the shipped tree must lint clean.

This is the machine-checked form of the determinism contract (DESIGN.md
section 9): zero findings over ``src`` and ``tests`` and no parse
errors.  There is no finding baseline: a finding is fixed or carries an
inline, justified ``# repro: noqa[ID]``.
"""

import os

import pytest

from repro.lint import DEFAULT_CONFIG, build_program, lint_paths, run_deep

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def src_index():
    return build_program(["src"], root=REPO_ROOT)


def test_repo_tree_lints_clean():
    report = lint_paths(["src", "tests"], root=REPO_ROOT)
    assert report.parse_errors == []
    assert report.files_checked > 100, "walker lost most of the tree"
    assert report.findings == [], "lint findings:\n" + "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}"
        for f in report.findings
    )


def test_repo_tree_deep_lints_clean():
    """The whole-program pass holds over ``src``.

    Deep findings embed call chains, which churn with refactors
    (DESIGN.md section 9.4): a true positive must be fixed or carry an
    inline justified noqa.
    """
    report = run_deep(["src"], root=REPO_ROOT)
    assert report.parse_errors == []
    assert report.findings == [], "deep findings:\n" + "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}"
        for f in report.findings
    )


def test_configured_pure_roots_resolve(src_index):
    """Every configured root must exist in the symbol table; a rename
    must not silently turn DET010/PERF into a no-op."""
    missing = [
        root
        for root in DEFAULT_CONFIG.pure_roots
        if root not in src_index.functions
    ]
    assert missing == [], (
        "pure roots no longer resolve; update LintConfig's defaults in "
        f"src/repro/lint/config.py: {missing}"
    )
    # And the traversal genuinely fans out — a linker regression that
    # strands the roots would silently gut the purity/perf passes.
    chains = src_index.reachable_chains(list(DEFAULT_CONFIG.pure_roots))
    assert len(chains) > 20, (
        f"only {len(chains)} functions reachable from the pure roots; "
        "the call-graph linker lost its edges"
    )


def test_configured_wall_clock_allowlist_resolves(src_index):
    """Every allowlisted module is a linted file and every allowlisted
    site a function defined in its file: a stale entry would keep
    DET002's exemption and DET010's traversal cut for whatever later
    takes that name."""
    missing_modules = [
        path
        for path in DEFAULT_CONFIG.wall_clock_modules
        if path not in src_index.modules
    ]
    defined = {
        (fn.relpath, fn.name) for fn in src_index.functions.values()
    }
    missing_sites = [
        site for site in DEFAULT_CONFIG.wall_clock_sites
        if site not in defined
    ]
    assert missing_modules == [] and missing_sites == [], (
        "wall-clock allowlist entries name no module or function; update "
        "LintConfig's defaults in src/repro/lint/config.py: "
        f"{missing_modules + missing_sites}"
    )
