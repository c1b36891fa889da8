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
        "            todo.append((arg, head.antecedent, env))\n",
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
        ("tests/test_model.py::TestCheckpoint::test_stored_vocab_length_guard",),
    ),
    Mutant(
        "vocab-parser-skips-the-ending-check",  # one parser serves vocab.txt and the checkpoint
        "src/arrowlm/corpus.py",
        "        if words[-2:] != [EOS_WORD, PAD_WORD]:\n",
        "        if False:\n",
        ("tests/test_corpus.py::TestFileFormats::test_vocab_must_end_with_specials",
         "tests/test_model.py::TestCheckpoint::test_stored_vocab_must_end_in_eos_and_pad"),
    ),
    Mutant(
        "M4-vocab-accepts-duplicate-words",
        "src/arrowlm/corpus.py",
        "        if len(self.index) != len(self.words):\n",
        "        if False:\n",
        ("tests/test_corpus.py::TestBuildVocab::test_duplicate_words_are_refused",),
    ),
    Mutant(
        "train-skips-the-activation-bound",
        "src/arrowlm/model.py",
        "    if not bound <= float(np.finfo(dtype).max):  # NaN fails too\n",
        "    if False:\n",
        ("tests/test_model.py::TestTrain::test_activations_past_the_dtype_range_raise",
         "tests/test_cli.py::test_diverging_training_is_a_usage_error[overflowing-parameters]"),
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
        "for name, where, _ in layout if name in _DECAYED]",
        "for name, where, _ in layout]",
        ("tests/test_model.py::TestTrain::test_adamw_matches_the_plain_expressions_bit_for_bit[0.01]",),
    ),
    Mutant(
        "init-draws-h0-first",
        "src/arrowlm/model.py",
        "    for arr in (params.emb, params.u, params.v, params.w_out):\n"
        "        arr[...] = rng.standard_normal(arr.shape) * 0.02\n"
        "    params.h0[...] = rng.standard_normal(d)\n",
        "    params.h0[...] = rng.standard_normal(d)\n"
        "    for arr in (params.emb, params.u, params.v, params.w_out):\n"
        "        arr[...] = rng.standard_normal(arr.shape) * 0.02\n",
        ("tests/test_model.py::TestInitParams::test_matches_the_draw_then_concatenate_reference[13-64-8-0-float32]",
         "tests/test_model.py::TestInitParams::test_matches_the_draw_then_concatenate_reference[1-4-2-42-float64]"),
    ),
    Mutant(
        "load-keeps-the-read-only-buffer",
        "src/arrowlm/model.py",
        "ModelParams(flat.copy(), d, r, vocab_size, eps)",
        "ModelParams(flat, d, r, vocab_size, eps)",
        ("tests/test_model.py::TestModelParams::test_loaded_params_are_writable",),
    ),
    Mutant(
        "layer-norm-statistics-as-python-floats",
        "src/arrowlm/model.py",
        "    inv_std = 1.0 / np.sqrt(var + params.eps)\n",
        "    inv_std = 1.0 / np.sqrt(var + params.eps) if keep else 1.0 / math.sqrt(float(var) + params.eps)\n",
        ("tests/test_model.py::TestStep::test_one_state_layer_norm_matches_the_oracle_bit_for_bit[float32]",),
    ),
    Mutant(
        "match-checks-only-the-anchor-word",
        "src/arrowlm/retrieval.py",
        "            concrete.remove((j, word))\n",
        "            concrete.clear()\n",
        ("tests/test_retrieval.py::TestIndexScanAgreement::test_random_corpora",
         "tests/test_retrieval.py::TestIndexScanAgreement::test_patterns_random_corpora"),
    ),
    Mutant(
        "generate-free-stops-one-token-early",
        "src/arrowlm/inference.py",
        "    for _ in range(config.max_new_tokens):\n",
        "    for _ in range(config.max_new_tokens - 1):\n",
        ("tests/test_inference.py::test_greedy_equals_argmax_loop",),
    ),
    Mutant(
        "outputs-skip-the-directory-check",
        "src/arrowlm/cli.py",
        "    in_the_way = [out_dir / name for name in names if (out_dir / name).is_dir()]\n"
        "    if in_the_way:\n"
        "        raise IsADirectoryError(f\"{in_the_way[0]} is a directory\")\n",
        "",
        ("tests/test_cli.py::test_io_errors_are_usage_errors[train-loss-is-a-dir]",
         "tests/test_cli.py::test_io_errors_are_usage_errors[corpus-vocab-is-a-dir]"),
    ),
    Mutant(
        "query-skips-the-stored-word-check",
        "src/arrowlm/cli.py",
        "    if not args.symbolic and (unknown := db.positions.keys() - vocab.index.keys()):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_refusal_is_one_line_and_writes_nothing[stored-word-missing]",),
    ),
    Mutant(
        "node-builder-keeps-a-dead-entry",
        "src/arrowlm/formula.py",
        "    while (found := _NODES.setdefault(key, mine)()) is None:\n"
        "        _remove_dead_weakref(_NODES, key)\n",
        "    found = _NODES.setdefault(key, mine)()\n",
        ("tests/test_formula.py::TestHashConsing::test_rebuilt_while_the_collector_runs_callbacks",),
    ),
    Mutant(
        "atom-goal-memoized-under-the-arrival-context",
        "src/arrowlm/prover.py",
        "        if assumed:\n"
        "            hyps, known = hyps + tuple(assumed), known.union(assumed)\n"
        "    key = (goal, known)\n",
        "        key = (goal, known)\n"
        "        if assumed:\n"
        "            hyps, known = hyps + tuple(assumed), known.union(assumed)\n"
        "    else:\n"
        "        key = (goal, known)\n",
        ("tests/test_prover.py::TestOracleAgreement::test_random_formulas_against_sequent_search",
         "tests/test_prover.py::TestOracleAgreement::test_witnesses_type_check_small",
         "tests/test_prover.py::TestProveWithTerm::test_agreement_with_prove"),
    ),
    Mutant(
        "elimination-tries-an-implication-to-a-known-formula",
        "src/arrowlm/prover.py",
        "        if (not isinstance(f, Imp) or f.consequent in known\n",
        "        if (not isinstance(f, Imp)\n",
        ("tests/test_prover.py::TestProve::test_an_implication_to_a_known_formula_is_never_eliminated",),
    ),
    Mutant(
        "witness-keeps-the-auxiliary-redex",
        "src/arrowlm/prover.py",
        "        fun, _, c = fun  # (\\d. s (\\c. d)) arg  ~>  s (\\c. arg)\n"
        "        arg = Lam(c, arg)\n",
        "        s, d, c = fun\n"
        "        fun = Lam(d, _apply(s, Lam(c, Var(d))))\n",
        ("tests/test_prover.py::TestProveWithTerm::test_witnesses_are_beta_normal",
         "tests/test_prover.py::TestOracleAgreement::test_witnesses_type_check_small"),
    ),
    Mutant(
        "setting-past-the-float-range-accepted",
        "src/arrowlm/cli.py",
        "        if not abs(value) <= sys.float_info.max:",
        "        if not abs(value) < float(\"inf\"):",
        ("tests/test_cli.py::test_out_of_range_setting_is_a_usage_error[query-top-k-past-float]",
         "tests/test_cli.py::test_out_of_range_setting_is_a_usage_error[config-top-k-past-float]"),
    ),
    Mutant(
        "fragment-text-keeps-the-trailing-space",
        "src/arrowlm/corpus.py",
        "lines.append(line[start : ends[j - 1] - 1])",
        "lines.append(line[start : ends[j - 1]])",
        ("tests/test_corpus.py::TestFragmentText::test_written_text_matches_the_word_by_word_reference[k2-len3]",
         "tests/test_corpus.py::TestFragmentText::test_written_text_matches_the_word_by_word_reference[k5-len256]"),
    ),
)
