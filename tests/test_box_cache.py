"""spectral.py alone owns the grid's box cache.

SpectralGrid caches the multipliers of each box layout in its private
_boxes.  The solver reads every state through the dealias box, so no other
module has a reason to look into that cache, let alone to evict from it.
This scan fails when a package module other than spectral.py names it.
"""

import ast
from pathlib import Path

import pytest

import nematicflow

PACKAGE = Path(nematicflow.__file__).resolve().parent


def box_cache_names(source: str) -> list[str]:
    """One entry per mention of _boxes in source, as a name, an attribute
    or a string (getattr), with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.value if isinstance(node, ast.Constant) else None)
        if name == "_boxes":
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("snippet", [
    "g._boxes.pop(g.n // 2, None)",
    "boxes = grid._boxes",
    "_boxes = {}",
    "getattr(g, '_boxes').clear()",
])
def test_the_scan_finds_each_mention(snippet):
    assert box_cache_names(snippet)


@pytest.mark.parametrize("snippet", ["b = g.box(g.band)", "b = g.box_of(fhat)", "boxes = 2"])
def test_the_scan_passes_the_public_box_calls(snippet):
    assert box_cache_names(snippet) == []


def test_only_spectral_names_the_box_cache():
    sources = sorted(PACKAGE.glob("*.py"))
    assert box_cache_names((PACKAGE / "spectral.py").read_text())
    found = [f"{path.name} {hit}" for path in sources if path.name != "spectral.py"
             for hit in box_cache_names(path.read_text())]
    assert found == []
