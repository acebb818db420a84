"""Every test the docs cite exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` point readers at
tests as ``tests/<file>.py::<Name>`` or ``tests/<file>.py::<Name>::
<member>``; a citation of a deleted or renamed test sends them nowhere.
The change log and the roadmap record history and are not read, nor is
anything under ``perfbench/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``tests/<file>.py::<Name>`` with an optional ``::<member>``.  A
#: citation may wrap after ``::`` inside a code span.
CITATION = re.compile(r"tests/(\w+\.py)::\s*(\w+)(?:::(\w+))?")


def _docs() -> list[Path]:
    return [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
    ]


def _defined(body) -> dict[str, ast.AST]:
    """Names a module or class body binds: defs, classes, assignments."""
    names: dict[str, ast.AST] = {}
    for node in body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def _stale(citations) -> list[str]:
    modules: dict[str, dict[str, ast.AST] | None] = {}
    stale = []
    for where, file, name, member in citations:
        if file not in modules:
            path = ROOT / "tests" / file
            modules[file] = (
                _defined(ast.parse(path.read_text()).body)
                if path.is_file() else None
            )
        top = modules[file]
        node = None if top is None else top.get(name)
        if node is None or member is not None and (
            not isinstance(node, ast.ClassDef)
            or member not in _defined(node.body)
        ):
            cited = f"tests/{file}::{name}"
            stale.append(
                f"{where}: {cited}" + (f"::{member}" if member else "")
            )
    return stale


def _citations():
    for doc in _docs():
        text = doc.read_text()
        for m in CITATION.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            yield f"{doc.relative_to(ROOT)}:{line}", *m.groups()


def test_every_cited_test_exists():
    citations = list(_citations())
    assert len(citations) > 30
    assert _stale(citations) == []


def test_a_missing_test_is_reported():
    cites = [
        ("doc:1", "test_doc_citations.py", "test_every_cited_test_exists",
         None),
        ("doc:2", "test_doc_citations.py", "_gone", None),
        ("doc:3", "test_doc_citations.py", "_citations", "member"),
        ("doc:4", "test_no_such_file.py", "TestX", None),
    ]
    assert _stale(cites) == [
        "doc:2: tests/test_doc_citations.py::_gone",
        "doc:3: tests/test_doc_citations.py::_citations::member",
        "doc:4: tests/test_no_such_file.py::TestX",
    ]
