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
SRC = Path(__file__).resolve().parents[1] / "src" / "arrowlm"

# Read only after prover.type_check rejects a witness; ROADMAP item 1a replaces them with the oracles.
KNOWN_UNRESOLVED = {"prover.beta_normalize", "prover.StepLimitExceeded"}

# Defined in src/arrowlm only because the benchmark reads them; ROADMAP item 1a deletes each
# in the same change that drops it from the benchmark (write_fragments with the text that
# enumerate_fragments slices for it).
BENCH_ONLY = {"corpus.read_vocab", "corpus.write_fragments", "corpus.write_vocab", "formula.Interner"}


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


def package_reads() -> set[str]:
    """Every name that ``src/arrowlm/*.py`` reads: a loaded name, an attribute or an import."""
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return reads


def test_bench_only_names_are_read_by_the_bench_alone():
    # A name the benchmark stops reading has no reader left, so delete it from src/arrowlm.
    assert BENCH_ONLY - bench_references() == set(), "delete these from src/arrowlm and BENCH_ONLY"
    assert all(_resolve(ref) is not None for ref in BENCH_ONLY)
    # Each is read nowhere in src/arrowlm; its definition is no read.
    assert {ref.split(".")[1] for ref in BENCH_ONLY} & package_reads() == set()


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
