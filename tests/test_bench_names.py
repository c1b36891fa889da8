"""The benchmark reads only names that ``src/arrowlm`` still defines.

Most names the benchmark reads are read only while a workload runs, so a
deleted one would otherwise surface only in a benchmark run.  This reads
the names from the benchmark's source with ``ast``, without importing or
running it.
"""

import ast
import importlib
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


def test_bench_reads_only_names_the_package_defines():
    refs = bench_references()
    assert len(refs) > 30
    unresolved = set()
    for ref in refs:
        module, name = ref.split(".")
        if not hasattr(importlib.import_module(f"arrowlm.{module}"), name):
            unresolved.add(ref)
    assert unresolved == KNOWN_UNRESOLVED
