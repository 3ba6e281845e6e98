"""hippolint's dogfood gate: the real tree must be clean.

These tests are what CI runs indirectly through the normal pytest job --
if any rule fires on ``src`` or ``tests`` the suite fails, so the
invariants hold on every change even without a separate lint job.
"""

from pathlib import Path

from repro.devtools import analyze_paths
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_hippolint_src_tests_clean(capsys):
    status = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), "--quiet"])
    captured = capsys.readouterr()
    assert status == 0, f"hippolint found violations:\n{captured.out}"
    assert captured.out == ""


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("HL002", "HL005", "HL014"):
        assert rule_id in out


def test_select_single_rule(capsys):
    status = main(
        [str(REPO_ROOT / "src"), "--select", "HL010", "--quiet"]
    )
    assert status == 0, capsys.readouterr().out


def test_fixture_directory_is_skipped():
    """The deliberately violating fixtures never reach the real run."""
    diagnostics, checked = analyze_paths([str(REPO_ROOT / "tests")])
    assert checked > 0
    assert not any("_fixtures" in d.path for d in diagnostics)
    assert not diagnostics


def test_lowercase_relation_rule_pinned_on_hot_modules():
    """Satellite: HL005 stays green on the modules PR 4/5 fixed casing in."""
    targets = [
        str(REPO_ROOT / "src" / "repro" / "conflicts" / "shard.py"),
        str(REPO_ROOT / "src" / "repro" / "repairs"),
        str(REPO_ROOT / "src" / "repro" / "cli.py"),
    ]
    diagnostics, checked = analyze_paths(targets, select=["HL005"])
    assert checked >= 3
    assert not diagnostics, [d.render() for d in diagnostics]
