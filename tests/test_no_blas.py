"""The package makes no BLAS or LAPACK call.

The kernels contract with einsum, and the sweep fits its order in plain
arithmetic, so no process of a run or a sweep loads and runs OpenBLAS: its
threads would oversubscribe a sweep's workers, and its pages and buffers
would raise the process's peak RSS.  This scan fails when the package
source gains a call that numpy hands to BLAS or LAPACK.
"""

import ast
from pathlib import Path

import pytest

import nematicflow

PACKAGE = Path(nematicflow.__file__).resolve().parent

# numpy names that reach BLAS or LAPACK (np.linalg is all LAPACK)
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "polyfit", "linalg"}


def blas_calls(source: str) -> list[str]:
    """One entry per BLAS-backed construct in source, with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif isinstance(node, ast.Attribute):
            if node.attr in BLAS_NAMES and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                found.append(f"{where}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(func, ast.Attribute) and func.attr == "dot":
                found.append(f"{where}: .dot(")
            if name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"{where}: einsum(optimize=...)")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"{where}: from {node.module} import {a.name}" for a in node.names
                      if a.name in BLAS_NAMES or node.module.startswith("numpy.linalg")]
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names
                      if a.name.startswith("numpy.linalg")]
    return found


@pytest.mark.parametrize("snippet", [
    "c = a @ b",
    "a @= b",
    "c = a.dot(b)",
    "c = np.dot(a, b)",
    "c = numpy.vdot(a, b)",
    "c = np.inner(a, b)",
    "c = np.matmul(a, b)",
    "c = np.tensordot(a, b, 1)",
    "p = np.polyfit(x, y, 1)",
    "x = np.linalg.lstsq(a, b)",
    "n = np.linalg.norm(a)",
    "c = np.einsum('ij,jk->ik', a, b, optimize=True)",
    "c = einsum('ij,jk->ik', a, b, optimize='greedy')",
    "from numpy import dot",
    "from numpy.linalg import norm",
    "import numpy.linalg",
])
def test_the_scan_finds_each_blas_construct(snippet):
    assert blas_calls(snippet)


@pytest.mark.parametrize("snippet", [
    "inner = g.l2_inner_unchecked\nv = inner(a, b)",
    "c = np.einsum('i,i->', a, b)",
    "c = np.einsum('ij,j->i', m, v, out=o)",
    "c = a * b",
    "from numpy import einsum",
])
def test_the_scan_passes_the_einsum_kernels(snippet):
    assert blas_calls(snippet) == []


def test_package_source_makes_no_blas_call():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name} {hit}" for path in sources
             for hit in blas_calls(path.read_text())]
    assert found == []
