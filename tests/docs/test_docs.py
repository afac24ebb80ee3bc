"""Documentation gates: doctests, intra-repo links, README/CLI sync.

These run in the tier-1 suite so documentation rot fails locally, and the
CI docs job runs the same checks standalone (``tools/check_links.py``,
``pytest --doctest-modules``).
"""

from __future__ import annotations

import doctest
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: The modules whose docstrings promise runnable examples (gated in CI with
#: ``pytest --doctest-modules`` over exactly this list).
DOCTEST_MODULES = (
    "repro.engine",
    "repro.core.lts",
    "repro.core.weak",
    "repro.partition.branching",
    "repro.explore",
    "repro.protocols",
)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = __import__(module_name, fromlist=["__name__"])
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} promises runnable examples but has none"
    assert results.failed == 0


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    check_links = _load_check_links()
    files = [ROOT / "README.md"] + sorted((ROOT / "docs").rglob("*.md"))
    assert len(files) >= 4  # README + architecture + paper-map + service-protocol
    failures = check_links.broken_links(files, ROOT)
    assert not failures, "broken markdown links:\n" + "\n".join(failures)


def test_link_checker_catches_breakage(tmp_path):
    check_links = _load_check_links()
    markdown = tmp_path / "doc.md"
    markdown.write_text(
        "[good](real.md)\n[bad](missing.md)\n[web](https://example.com/x)\n",
        encoding="utf-8",
    )
    (tmp_path / "real.md").write_text("ok\n", encoding="utf-8")
    failures = check_links.broken_links([markdown], tmp_path)
    assert len(failures) == 1 and "missing.md" in failures[0]


def test_link_checker_validates_heading_anchors(tmp_path):
    check_links = _load_check_links()
    markdown = tmp_path / "doc.md"
    markdown.write_text(
        "# Operating the Service\n\n"
        "[good](#operating-the-service)\n[bad](#no-such-heading)\n"
        "[good](other.md#real-one)\n[bad](other.md#fake-one)\n"
        "[ignored](script.py#L12)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.md").write_text("## Real One\n", encoding="utf-8")
    (tmp_path / "script.py").write_text("pass\n", encoding="utf-8")
    failures = check_links.broken_links([markdown], tmp_path)
    assert len(failures) == 2
    assert any("#no-such-heading" in failure for failure in failures)
    assert any("other.md#fake-one" in failure for failure in failures)


def test_paper_map_names_module_and_test_for_every_result():
    """Every theorem/lemma row of docs/paper-map.md links code *and* a test."""
    text = (ROOT / "docs" / "paper-map.md").read_text(encoding="utf-8")
    for required in (
        "Theorem 4.1(a)",
        "Theorem 4.1(b)",
        "Theorem 4.1(c)",
        "Lemma 4.2",
        "Theorem 5.1",
        "Lemma 3.1",
    ):
        row = next((line for line in text.splitlines() if line.startswith(f"| {required}")), None)
        assert row is not None, f"paper-map.md has no table row for {required}"
        assert "src/repro/" in row, f"{required} row names no implementation module"
        assert "tests/" in row, f"{required} row names no test"


def test_readme_lists_every_cli_command():
    """The README command table stays in sync with the argparse tree."""
    from repro.cli import build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    for command in subparsers.choices:
        assert f"`{command}`" in readme or f"`{command} " in readme, (
            f"CLI command {command!r} is missing from README.md -- regenerate the "
            "command table from `python -m repro --help`"
        )


def test_readme_links_docs_suite():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for target in (
        "docs/architecture.md",
        "docs/paper-map.md",
        "docs/service-protocol.md",
        "docs/protocols.md",
    ):
        assert target in readme, f"README.md does not cross-link {target}"
