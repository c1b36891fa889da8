"""The benchmark reads only names that ``src/arrowlm`` still defines, and calls them as they take.

Most names the benchmark reads are read only while a workload runs, so a
deleted one, or a deleted or renamed parameter, would otherwise surface
only in a benchmark run.  This reads the names and calls from the
benchmark's source with ``ast``, without importing or running it.
"""

import ast
import importlib
import inspect
from pathlib import Path

MODULES = ("cli", "corpus", "formula", "inference", "model", "prover", "retrieval")
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Read only after prover.type_check rejects a witness; ROADMAP item 1a replaces them with the oracles.
KNOWN_UNRESOLVED = {"prover.beta_normalize", "prover.StepLimitExceeded"}


def _module(node):
    """The module a name or attribute chain ends in (``prover``, ``workloads.prover``), or None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in MODULES else None


def bench_references() -> set[str]:
    """Every ``<module>.<name>`` that ``bench/*.py`` reads.

    That is an attribute of a module, a name imported from one, and a
    ``(module, "name")`` pair such as those the tracer patches by name.
    """
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and _module(node.value):
                refs.add(f"{_module(node.value)}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("arrowlm."):
                refs.update(f"{node.module.removeprefix('arrowlm.')}.{alias.name}" for alias in node.names)
            elif (isinstance(node, ast.Tuple) and len(node.elts) > 1 and _module(node.elts[0])
                    and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
                refs.add(f"{_module(node.elts[0])}.{node.elts[1].value}")
    return refs


def _resolve(ref: str):
    module, name = ref.split(".")
    return getattr(importlib.import_module(f"arrowlm.{module}"), name, None)


def bench_calls():
    """``(where, ref, positional count, keyword names)`` for each ``<module>.<name>(...)`` in ``bench/*.py``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and _module(node.func.value):
                yield (f"{path.name}:{node.lineno}", f"{_module(node.func.value)}.{node.func.attr}",
                       len(node.args), [kw.arg for kw in node.keywords])


def test_bench_reads_only_names_the_package_defines():
    refs = bench_references()
    assert len(refs) > 30
    assert {ref for ref in refs if _resolve(ref) is None} == KNOWN_UNRESOLVED


def test_bench_calls_bind_to_the_package_signatures():
    calls = list(bench_calls())
    assert len(calls) > 30
    for where, ref, positional, keywords in calls:
        if ref in KNOWN_UNRESOLVED:
            continue
        try:
            inspect.signature(_resolve(ref)).bind_partial(*[None] * positional,
                                                          **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{where}: {ref}: {exc}") from None
