"""Documentation health: links resolve, code blocks doctest clean.

Every relative link in README.md and docs/*.md must resolve, every
one of those files with ``>>>`` examples must pass
``doctest.testfile``, and every ``*.md`` file a Python file under
``src/``, ``benchmarks/`` or ``examples/`` names must exist.  The
checks live in the test suite, so local ``pytest`` and CI's test job
catch a broken link, a stale example or a dangling doc reference.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(#[^)]*)?\)")
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
CODE_DIRS = ("src", "benchmarks", "examples")


def _relative_links(path: Path):
    for match in LINK.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1).strip()
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    missing = [
        target
        for target in _relative_links(doc)
        if not (doc.parent / target).exists()
    ]
    assert not missing, f"{doc.name}: broken links {missing}"


@pytest.mark.parametrize(
    "doc",
    [p for p in DOCS if ">>>" in p.read_text(encoding="utf-8")],
    ids=lambda p: p.name,
)
def test_doc_examples_doctest_clean(doc):
    results = doctest.testfile(
        str(doc), module_relative=False, verbose=False
    )
    assert results.failed == 0, f"{doc.name}: {results.failed} failures"
    assert results.attempted > 0


def test_readme_points_at_docs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/PERFORMANCE.md" in readme


def test_docs_named_in_code_exist():
    """A ``*.md`` named in code exists at the repo root or in docs/."""
    dangling = [
        f"{path.relative_to(REPO)}: {name}"
        for folder in CODE_DIRS
        for path in sorted((REPO / folder).rglob("*.py"))
        for name in MD_NAME.findall(path.read_text(encoding="utf-8"))
        if not (REPO / name).exists() and not (REPO / "docs" / name).exists()
    ]
    assert not dangling, dangling
