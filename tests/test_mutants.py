"""The checks check: every mutant in ``mutants.py`` fails each test listed to kill it.

Each run happens in a fresh interpreter inside a copy of ``src/``, ``tests/``,
``bench/`` (whose seeded text some tests read) and ``pyproject.toml``, because
``pyproject.toml`` puts ``src`` on the import path and would otherwise import
the real, unmutated package.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutants")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "pyproject.toml", root / "pyproject.toml")
    return root


def run_tests(tree: Path, test_ids) -> tuple[int, set[str]]:
    """Run ``test_ids`` inside ``tree``; return pytest's exit code and the ids that failed."""
    # No installed plugin is needed, and loading them costs more than the tests.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *test_ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=120,
    )
    return run.returncode, set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def test_killing_tests_pass_unmutated(tree):
    test_ids = sorted({test_id for mutant in MUTANTS for test_id in mutant.killed_by})
    assert run_tests(tree, test_ids) == (0, set())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_is_killed(tree, mutant):
    path = tree / mutant.path
    source = path.read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1, "the mutant no longer applies; update mutants.py"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        assert run_tests(tree, mutant.killed_by) == (1, set(mutant.killed_by))
    finally:
        path.write_text(source, encoding="utf-8")
