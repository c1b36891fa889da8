"""Hand-written mutants of ``src/arrowlm``, each with the tests that must kill it.

A mutant names a file under the repository root, the exact text it replaces
(which must occur there once), the replacement, and the ids of the killing
tests as pytest prints them.  ``test_mutants.py`` applies each mutant alone
to a copy of the tree and expects every one of its tests to fail.  The list
grows only by deliberate cases (mutation analysis: DeMillo, Lipton & Sayward
1978, "Hints on test data selection", IEEE Computer 11(4)).
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: tuple[str, ...]


MUTANTS = (
    Mutant(
        "M1-type-check-skips-the-argument",
        "src/arrowlm/prover.py",
        "            if not check(t.arg, fun_ty.antecedent, env):\n                return None\n",
        "",
        ("tests/test_prover.py::TestTypeCheck::test_argument_of_the_wrong_type",
         "tests/test_prover.py::TestTypeCheck::test_unbound_argument"),
    ),
    Mutant(
        "M2-retrieval-rescores-a-continuation",
        "src/arrowlm/inference.py",
        "        if continuation in continuations:\n            continue\n",
        "",
        ("tests/test_inference.py::TestRetrievalFirst::test_scores_each_distinct_continuation_once",),
    ),
    Mutant(
        "M3-checkpoint-skips-the-vocab-size-check",
        "src/arrowlm/model.py",
        "    if len(vocab) != vocab_size:\n",
        "    if False:\n",
        ("tests/test_model.py::TestCheckpoint::test_vocab_sidecar_length_guard",),
    ),
    Mutant(
        "M4-vocab-accepts-duplicate-words",
        "src/arrowlm/corpus.py",
        "        if len(self.index) != len(self.words):\n",
        "        if False:\n",
        ("tests/test_corpus.py::TestBuildVocab::test_duplicate_words_are_refused",),
    ),
    Mutant(
        "M6-forward-loss-skips-the-shape-check",
        "src/arrowlm/model.py",
        "    if tokens.ndim != 2 or mask.shape != (tokens.shape[0], tokens.shape[1] - 1):\n",
        "    if False:\n",
        ("tests/test_model.py::TestForwardLoss::test_mask_shape_validated",),
    ),
    Mutant(
        "adamw-decays-every-tensor",
        "src/arrowlm/model.py",
        "key=lambda pair: pair[0] in _DECAYED)",
        "key=lambda pair: True)",
        ("tests/test_model.py::TestTrain::test_adamw_matches_the_plain_expressions_bit_for_bit[0.01]",),
    ),
)
