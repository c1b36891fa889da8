"""The three benchmark workloads, each run in a fresh process.

Each workload calls the public functions that the matching ``arrowlm``
command calls, in the same order, and times every call from outside:

* ``prove-mix``   -- ``cmd_prove``: parse, then decide (``prove``) or
  witness (``prove_with_term`` + ``format_term``), each request under a
  call budget and a SIGALRM safety deadline;
* ``build-train`` -- ``cmd_corpus`` then ``cmd_train``: the corpus stage,
  one epoch of ``train`` from ``init_params``, ``save_checkpoint``;
* ``query-tail``  -- ``cmd_query``: load and ``build_db``,
  then one closed-loop client sending queries back to back.

An operation is one request (prove-mix), one training step (build-train)
or one query.  A workload runs its fixed set of operations in a fixed
number of passes (PASSES), spread evenly over the measuring time, with
set-ups before each pass.  An operation's latency is its fastest pass and
it fails if it failed in most passes.  The pass count does not depend on
how fast the program is, so neither reading does: a faster program idles
between passes.  The fastest pass is the reading because shared machines
slow a process down for seconds at a time; a pass in a quiet moment is
what the code itself costs.

Each prove request runs first, untimed, under a budget of BUDGET_CALLS
Python calls, counted by a ``sys.settrace`` hook.  The budget is the
request's deadline: unlike a clock it ends the same requests on every run.
A request over it has timed out; it is not timed again and counts at
DEADLINE_S.  Timeouts, ``RecursionError``, non-finite losses, crashes and
wrong answers each count as one failed operation and stay in the latency
sample.  Output checks run outside the timed passes.

Usage: ``python3 bench/workloads.py SPEC.json`` where the spec names the
workload, seed, seconds, trace flag, pass share, fixture directory and
result path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import string
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from arrowlm import cli, corpus, formula, inference, model, prover, retrieval
from oracles import lj_provable
from spans import Tracer

DEFAULTS = cli.DEFAULTS
BUDGET_CALLS = 10_000  # Python calls per prove request; also stated in BENCHMARK.json
DEADLINE_S = 0.005  # latency charged to a prove request over budget: the budget's cost, 2-vCPU VM
SAFETY_S = 1.0  # SIGALRM wall-clock deadline on every prove request
# Passes per run and set-ups before each pass.  A traced run splits the
# measuring time between an untraced and a traced worker, with half the passes each.
PASSES = {"prove-mix": (40, 1), "build-train": (34, 2), "query-tail": (20, 1)}
ORACLE_MAX_NODES = 6  # lj_provable cross-check only on formulas this small
REFERENCE_SAMPLE = 50  # queries whose scores are recomputed independently


class Deadline(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no handler in the package swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


class Run:
    """One workload run: the pass loop, its samples and its counts.

    Each operation result is ``(seconds, failure or None, answer)``.
    """

    def __init__(self, seed: int, seconds: float, passes: int, setups: int, trace: dict | None = None):
        self.seed = seed
        self.seconds = seconds
        self.pass_count = passes
        self.setups_per_pass = setups
        self.trace = trace  # {"tracer": Tracer, "counters": dict} in a traced run
        self.tracer = None  # set while the spans are installed
        self.setup: list[float] = []
        self.passes = 0
        self.ops: list[tuple] = []
        self.wrong = 0
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}
        self.details: dict = {}
        self.digest = hashlib.sha256()

    def begin(self, request_id) -> None:
        if self.tracer is not None:
            self.tracer.begin_request(request_id)

    def measure(self, setup, run_pass) -> list[tuple]:
        """Run the set-ups and ``run_pass()`` in each of the passes, at even intervals.

        ``setup()`` runs one set-up and returns its seconds.  Spans, in a
        traced run, cover exactly the set-ups and passes.
        """
        if self.trace is not None:
            self.tracer = self.trace["tracer"]
            _install_spans(self.tracer, self.trace["counters"])
        slot = self.seconds / self.pass_count
        passes: list[list[tuple]] = []  # (seconds, failure) per operation
        answers: list = []
        start = time.perf_counter()
        try:
            for index in range(self.pass_count):
                idle = start + index * slot - time.perf_counter()
                if idle > 0:
                    time.sleep(idle)
                gc.collect()
                for repeat in range(self.setups_per_pass):
                    self.begin(("setup", index, repeat))
                    self.setup.append(setup())
                t1 = time.perf_counter()
                results = run_pass()
                self.details.setdefault("pass_s", []).append(time.perf_counter() - t1)
                self.details.setdefault("pass_failures", []).append(sum(1 for r in results if r[1]))
                # Keep one answer per operation: answers held for every pass would make
                # peak memory grow with the number of passes.
                answers = answers or [None] * len(results)
                for i, (_, failure, answer) in enumerate(results):
                    if not failure and answers[i] is None:
                        answers[i] = answer
                passes.append([(seconds, failure) for seconds, failure, _ in results])
                del results
                self.passes += 1
        finally:
            if self.tracer is not None:
                self.tracer.restore()
                self.begin(None)
                self.tracer = None
        self.details["measure_s"] = time.perf_counter() - start
        self.details["passes"] = self.passes
        self.ops = combine_passes(passes, answers)
        return self.ops

    def wrong_answer(self, message: str) -> None:
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def combine_passes(passes: list[list[tuple]], answers: list) -> list[tuple]:
    """Per operation: seconds, the failure it had in most passes (or None), and its answer.

    ``passes`` holds ``(seconds, failure)`` per operation for each pass.  The
    seconds are the fastest pass without a failure; a failed operation
    reads the median of its failed passes instead.
    """
    combined = []
    for results, answer in zip(zip(*passes), answers):
        failures = Counter(failure for _, failure in results if failure)
        if sum(failures.values()) * 2 > len(results):
            seconds = statistics.median(t for t, failure in results if failure)
            combined.append((seconds, failures.most_common(1)[0][0], answer))
        else:
            combined.append((min(t for t, failure in results if not failure), None, answer))
    return combined


def timed(fn):
    """``fn`` as a set-up that returns its own seconds."""

    def call() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return call


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------- prove-mix


class OverBudget(BaseException):
    """Raised by the call counter when a request exceeds BUDGET_CALLS."""


def _answer(kind: str, text: str, stage: list):
    """``arrowlm prove [--term]``: the decision, or the witness term or None."""
    goal = formula.parse_formula(text)
    stage[0] = "prove"
    if kind == "decide":
        return prover.prove(goal)
    term = prover.prove_with_term(goal)
    if term is not None:
        prover.format_term(term)
    return term


def budget_request(kind: str, text: str) -> tuple:
    """One request under the call budget and the safety deadline, untimed.

    Returns ``(failure, answer)``.  The counter's own frame counts toward
    the recursion limit, so the limit is raised by one while it runs: a
    request overflows the stack here exactly when it does untraced.
    """
    calls, stage, failure, answer = 0, ["parse"], None, None

    def count_call(frame, event, arg):
        nonlocal calls
        calls += 1
        if calls > BUDGET_CALLS:
            raise OverBudget()

    limit = sys.getrecursionlimit()
    try:
        signal.setitimer(signal.ITIMER_REAL, SAFETY_S)
        sys.setrecursionlimit(limit + 1)
        sys.settrace(count_call)
        try:
            answer = _answer(kind, text, stage)
        finally:
            sys.settrace(None)
            sys.setrecursionlimit(limit)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (OverBudget, Deadline):
        failure = "timeout"
    except RecursionError:
        failure = f"recursion_{stage[0]}"
    return failure, answer


def prove_request(kind: str, text: str) -> tuple:
    """One timed request: ``(seconds, failure, answer)``, the answer reduced to a digest.

    The safety deadline is armed outside the timed region.
    """
    failure, answer, stage = None, None, ["parse"]
    try:
        signal.setitimer(signal.ITIMER_REAL, SAFETY_S)
        try:
            start = time.perf_counter()
            answer = _answer(kind, text, stage)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        failure = "timeout"
    except RecursionError:
        failure = f"recursion_{stage[0]}"
    if failure:
        return DEADLINE_S, failure, None
    return elapsed, None, _answer_digest(kind, answer)


def _answer_digest(kind: str, answer) -> object:
    if kind == "decide" or answer is None:
        return bool(answer)
    return hashlib.sha256(prover.format_term(answer).encode()).hexdigest()


_IMPORT_CLI = "import time; t = time.perf_counter(); import arrowlm.cli; print(time.perf_counter() - t)"


def _cold_import() -> float:
    """Seconds a fresh interpreter spends importing the CLI: what ``arrowlm prove`` pays first.

    The interpreter times its own import, so process start-up is left out.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI], env=env, check=True, timeout=60, capture_output=True, text=True
    )
    return float(out.stdout)


BUDGET_COPY = 26 * 26 - 1  # the copy the budget pass asks about; passes use copies 0, 1, ...


def renamed(text: str, copy: int) -> str:
    """``text`` with atom ``a`` renamed to ``a`` plus two letters that name ``copy``.

    Each pass asks about its own copy of every formula: the search is the
    same, but a cache kept across requests cannot answer a later pass from
    an earlier one.  Atom names keep one length, so parsing costs the same.
    """
    letters = string.ascii_lowercase[copy // 26 % 26] + string.ascii_lowercase[copy % 26]
    return text.translate({ord(atom): atom + letters for atom in "pqr"})


def prove_mix(run: Run, fixtures: Path, work: Path) -> None:
    items = json.loads((fixtures / "formulas.json").read_text(encoding="utf-8"))
    requests = [(kind, text) for _, _, text in items for kind in ("decide", "witness")]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        budgeted, checks = [], Counter(type_check_s=0.0)
        # Each formula starts from a collected heap, as in a fresh `arrowlm prove`
        # process: the parser's closures form reference cycles that hold its token
        # list, so without this, peak memory would depend on when the collector ran.
        # Freezing the objects alive now keeps each collection short.
        gc.freeze()
        try:
            for index, (_, _, text) in enumerate(items):
                text = renamed(text, BUDGET_COPY)
                pair = [budget_request("decide", text), budget_request("witness", text)]
                _check_proofs(run, index, text, pair, checks)
                budgeted += pair
                gc.collect()
        finally:
            gc.unfreeze()
        timed_ids = [i for i, (failure, _) in enumerate(budgeted) if not failure]

        def run_pass():
            results = []
            for i in timed_ids:
                kind, text = requests[i]
                run.begin((run.passes, i))
                results.append(prove_request(kind, renamed(text, run.passes)))
            return results

        timed_ops = run.measure(_cold_import, run_pass)
    finally:
        signal.signal(signal.SIGALRM, previous)

    ops = [(DEADLINE_S, failure, None) for failure, _ in budgeted]
    for i, op in zip(timed_ids, timed_ops):
        ops[i] = op
        if not op[1] and op[2] != budgeted[i][1]:
            run.wrong_answer(f"request {i}: timed answer differs from the budgeted one")
    run.ops = ops
    failures = Counter(op[1] for op in ops if op[1])
    ms = [op[0] * 1e3 for op in ops]
    run.details.update(formulas=len(items), failures=dict(failures), budget_calls=BUDGET_CALLS,
                       deadline_s=DEADLINE_S, timed_requests=len(timed_ids),
                       witnesses_unchecked=checks["unchecked"])
    run.layers.update({
        "formula.recursion_errors": failures.get("recursion_parse", 0),
        "prover.recursion_errors": failures.get("recursion_prove", 0),
        "prover.timeouts": failures.get("timeout", 0),
        "prover.provable": sum(1 for failure, answer in budgeted[0::2] if not failure and answer),
        "prover.mismatches": run.wrong,
        "prover.redex_witnesses": checks["redex"],
        "prover.type_check_s": checks["type_check_s"],
        "prover.decide_p50_ms": _percentile(ms[0::2], 50),
        # p95: over 1% of requests fail today, which pins p99 at the deadline.
        "prover.decide_p95_ms": _percentile(ms[0::2], 95),
        "prover.witness_p95_ms": _percentile(ms[1::2], 95),
    })


def _check_proofs(run: Run, index: int, text: str, pair: list, checks: Counter) -> None:
    """Decide and witness agree, the witness is typed, small answers match lj_provable.

    ``pair`` holds the formula's budgeted decide and witness results; each
    answer is replaced by the digest the timed passes report, since terms
    held for the whole run would inflate peak memory.
    """
    (d_fail, decided), (w_fail, term) = pair
    pair[0] = (d_fail, None if d_fail else _answer_digest("decide", decided))
    pair[1] = (w_fail, None if w_fail else _answer_digest("witness", term))
    run.digest.update(f"{index}:{pair[0]}:{pair[1]}\n".encode())
    if not d_fail and not w_fail and decided != (term is not None):
        run.wrong_answer(f"formula {index}: prove={decided} but prove_with_term found {term is not None}")
        return
    if not w_fail and term is not None:
        goal = formula.parse_formula(text)
        try:
            signal.setitimer(signal.ITIMER_REAL, SAFETY_S)
            try:
                start = time.perf_counter()
                ok = prover.type_check(term, goal)
                checks["type_check_s"] += time.perf_counter() - start
                # type_check rejects beta-redexes, which substituted witnesses may hold.
                if not ok and prover.type_check(prover.beta_normalize(term), goal):
                    ok = True
                    checks["redex"] += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Deadline, RecursionError):
            checks["unchecked"] += 1
            return
        except prover.StepLimitExceeded:  # only an ill-typed term fails to normalize
            ok = False
        if not ok:
            run.wrong_answer(f"formula {index}: witness is not simply typed at its formula")
    if not d_fail and text.count("->") <= ORACLE_MAX_NODES:
        if lj_provable(formula.parse_formula(text)) != decided:
            run.wrong_answer(f"formula {index}: prove={decided} disagrees with lj_provable")


# -------------------------------------------------------------- build-train


def _spans_enumerated(sentences, k_frag: int, max_len: int) -> int:
    """Spans ``enumerate_fragments`` visits before deduplication."""
    total = 0
    for sent in sentences:
        n = min(len(sent), max_len)
        total += sum(max(0, min(i + k_frag, n) - (i + 2) + 1) for i in range(n)) + 1
    return total


def build_train(run: Run, fixtures: Path, work: Path) -> None:
    raw = (fixtures / "raw.txt").read_text(encoding="utf-8")
    out_dir = work / "corpus"
    out_dir.mkdir(parents=True, exist_ok=True)
    max_len, max_frag = DEFAULTS["max_len"], DEFAULTS["max_frag"]
    config = model.TrainConfig(
        d=DEFAULTS["d"], r=DEFAULTS["r"], lr=DEFAULTS["lr"], warmup_steps=DEFAULTS["warmup"],
        epochs=1, batch_size=DEFAULTS["batch_size"], k_frag=max_frag, max_len=max_len,
        seed=run.seed, weight_decay=DEFAULTS["weight_decay"], clip_norm=DEFAULTS["clip_norm"],
    )
    checkpoint = work / "model.ckpt"
    state: dict = {}
    histories: list[list[float]] = []

    def corpus_stage():
        body = corpus.strip_boilerplate(raw)
        sentences = corpus.split_sentences(body, max_len=max_len)
        vocab = corpus.build_vocab(sentences)
        training = corpus.enumerate_fragments(sentences, vocab, k_frag=max_frag, max_len=max_len)
        corpus.write_sentences(out_dir / "sentences.txt", sentences)
        corpus.write_vocab(out_dir / "vocab.txt", vocab)
        corpus.write_fragments(out_dir / "fragments.txt", training, vocab)
        state.update(sentences=sentences, vocab=vocab, training=training)

    # Step clock: one timestamp and one finiteness test per training step.
    marks: list[tuple[float, bool]] = []
    forward_loss = model.forward_loss

    def clocked_forward(params, tokens, mask):
        start = time.perf_counter()
        loss, tape = forward_loss(params, tokens, mask)
        marks.append((start, math.isfinite(loss)))
        return loss, tape

    def epoch():
        vocab = state["vocab"]
        run.begin(("epoch", run.passes))
        marks.clear()
        params = model.init_params(len(vocab), config.d, config.r, config.seed, dtype=np.float32)
        params, history = model.train(params, state["training"].fragments, config, pad_id=vocab.pad_id)
        end = time.perf_counter()
        histories.append(history)
        model.save_checkpoint(params, vocab, checkpoint)
        state["params"] = params
        bounds = [t for t, _ in marks] + [end]
        return [
            (b - a, None if finite else "nonfinite", None)
            for (a, finite), b in zip(marks, bounds[1:])
        ]

    model.forward_loss = clocked_forward
    try:
        ops = run.measure(timed(corpus_stage), epoch)
    finally:
        if model.forward_loss is clocked_forward:  # the tracer may already have restored it
            model.forward_loss = forward_loss

    sentences, vocab, fragments = state["sentences"], state["vocab"], state["training"].fragments
    losses = [h[0] for h in histories]
    run.digest.update(json.dumps([float(x).hex() for x in losses]).encode())
    run.digest.update(checkpoint.read_bytes())
    if not math.isfinite(losses[0]):
        run.problems.append(f"non-finite epoch loss {losses[0]}")
    elif not losses[0] < math.log(len(vocab)):
        run.wrong_answer(f"loss {losses[0]:.4f} is not below ln|V| = {math.log(len(vocab)):.4f}")
    if any(x.hex() != losses[0].hex() for x in losses):
        run.wrong_answer(f"same-seed epochs differ: {losses}")
    loaded, loaded_vocab = model.load_checkpoint(checkpoint)
    if loaded_vocab.words != vocab.words or not all(
        np.array_equal(a, b, equal_nan=True)
        for (_, a), (_, b) in zip(loaded.tensors(), state["params"].tensors())
    ):
        run.wrong_answer("checkpoint does not round-trip through load_checkpoint")

    pred_tokens = sum(len(f) - 1 for f in fragments)
    run.details.update(vocab_size=len(vocab), sentences=len(sentences), losses=losses)
    run.layers.update({
        "corpus.tokens": sum(len(s) for s in sentences),
        "corpus.fragments": len(fragments),
        "corpus.dedup_ratio": len(fragments) / _spans_enumerated(sentences, max_frag, max_len),
        "model.steps": len(ops),
        "model.pred_tokens": pred_tokens,
        "model.nonfinite_steps": sum(1 for r in ops if r[1]),
        "model.tokens_per_s": pred_tokens / sum(r[0] for r in ops),
        "model.train_loss": losses[0] if math.isfinite(losses[0]) else math.inf,  # a broken run reads worse
        "model.checkpoint_bytes": checkpoint.stat().st_size,
    })


# ------------------------------------------------------------------ queries


def _reference_logprob(params: model.ModelParams, prefix, continuation) -> float:
    """float64 recompute of the model's log-probability, written out from the math."""
    p = {name: arr.astype(np.float64) for name, arr in params.tensors()}

    def advance(h, tok):
        pre = h + p["u"] @ ((p["v"].T @ h) * np.tanh(p["emb"][tok]))
        centered = pre - pre.mean()
        return p["gain"] * centered / np.sqrt((centered**2).mean() + params.eps) + p["bias"]

    h = p["h0"]
    for tok in prefix:
        h = advance(h, tok)
    total = 0.0
    for tok in continuation:
        logits = p["w_out"] @ h
        top = logits.max()
        total += logits[tok] - top - math.log(np.exp(logits - top).sum())
        h = advance(h, tok)
    return total


class _Store:
    """Brute-force view of the deduplicated sentence store for output checks."""

    def __init__(self, sentences):
        seen = {}
        for sent in sentences:
            seen.setdefault(tuple(sent), None)
        self.sentences = list(seen)
        self.by_word: dict[str, list[tuple[int, int]]] = {}
        for sid, toks in enumerate(self.sentences):
            for off, word in enumerate(toks):
                self.by_word.setdefault(word, []).append((sid, off))

    def matches(self, words):
        n = len(words)
        return [
            (sid, off) for sid, off in self.by_word.get(words[0], ())
            if self.sentences[sid][off : off + n] == tuple(words)
        ]

    def pattern(self, text: str) -> set:
        parts = text.lower().split()
        concrete = [j for j, p in enumerate(parts) if p != "_" and not p.startswith("?")]
        if any(parts[j] not in self.by_word for j in concrete):
            return set()
        n = len(parts)
        if concrete:
            anchor = concrete[0]
            starts = [(sid, off - anchor) for sid, off in self.by_word[parts[anchor]] if off >= anchor]
        else:
            starts = [(sid, off) for sid, toks in enumerate(self.sentences) for off in range(len(toks))]
        hits = set()
        for sid, off in starts:
            window = self.sentences[sid][off : off + n]
            if len(window) < n:
                continue
            bound: dict[str, str] = {}
            for part, word in zip(parts, window):
                name = part[1:] if part.startswith("?") else None
                if part == "_" or (part.startswith("?") and not name):
                    continue
                if name is None and part != word or name is not None and bound.setdefault(name, word) != word:
                    break
            else:
                hits.add((sid, tuple(sorted(bound.items()))))
        return hits


def answer_query(query: dict, params, vocab, db):
    """One ``arrowlm query`` answer, mirroring ``cli._answer_query``."""
    if query["kind"] == "pattern":
        items = db.parse_pattern(query["text"])
        hits = retrieval.query_pattern(db, items) if items else []
        return [(bindings, sid) for bindings, sid, _ in hits]  # drop formulas that pin the store
    words = query["text"].lower().split()
    result = inference.retrieval_first(params, vocab, db, words, k=DEFAULTS["top_k"])
    generated = None
    if not result:
        prompt = [vocab.index[w] for w in words if w in vocab.index]
        decode = inference.DecodeConfig(
            mode="greedy", temperature=DEFAULTS["temperature"],
            max_new_tokens=DEFAULTS["max_new_tokens"], seed=DEFAULTS["seed"],
        )
        generated = inference.generate_free(params, vocab, prompt, decode) if prompt else []
    return result, generated


def _check_text(run: Run, index: int, words, answer, store: _Store, params, vocab, sampled: bool) -> None:
    """Ranked continuations follow the query in a stored sentence, in order, with true scores."""
    result, generated = answer
    k = DEFAULTS["top_k"]
    hits = store.matches(words) if all(w in vocab.index for w in words) else []
    conts = {store.sentences[sid][off + len(words):] for sid, off in hits} - {()}
    exact = {sid for sid, off in hits if off + len(words) == len(store.sentences[sid])}
    ranked = result.ranked
    run.digest.update(json.dumps([
        index, [[c.sentence_id, list(c.continuation)] for c in ranked],
        [c.sentence_id for c in result.exact_matches], generated,
    ]).encode())
    if not hits:
        if result or generated is None:
            run.wrong_answer(f"query {index}: no occurrence, expected free generation")
        elif any(not 0 <= t < len(vocab) or t in (vocab.pad_id, vocab.eos_id) for t in generated) \
                or len(generated) > DEFAULTS["max_new_tokens"]:
            run.wrong_answer(f"query {index}: invalid generated ids")
        return
    if len(ranked) != min(k, len(conts)) or len({c.continuation for c in ranked}) != len(ranked):
        run.wrong_answer(f"query {index}: {len(ranked)} ranked of {len(conts)} continuations")
        return
    if {c.sentence_id for c in result.exact_matches} != exact or len(result.exact_matches) != len(exact):
        run.wrong_answer(f"query {index}: exact matches differ")
        return
    for c in ranked:
        toks = store.sentences[c.sentence_id]
        if toks[c.start : c.end] != tuple(words) or toks[c.end:] != c.continuation \
                or not math.isfinite(c.total_logprob) \
                or not math.isclose(c.mean_logprob, c.total_logprob / len(c.continuation), rel_tol=1e-9):
            run.wrong_answer(f"query {index}: candidate does not follow the query in sentence {c.sentence_id}")
            return
    keys = [(-c.mean_logprob, c.sentence_id) for c in ranked]
    if keys != sorted(keys):
        run.wrong_answer(f"query {index}: ranking out of order")
        return
    if sampled:
        prefix = vocab.encode(words)
        for c in ranked:
            total = _reference_logprob(params, prefix, vocab.encode(c.continuation))
            if abs(total - c.total_logprob) > 1e-3 * max(1.0, abs(total)):
                run.wrong_answer(f"query {index}: total_logprob {c.total_logprob} vs recompute {total}")
                return
        if len(conts) <= 8:  # few enough to score every continuation independently
            ref = {c: _reference_logprob(params, prefix, vocab.encode(c)) / len(c) for c in conts}
            floor = min(ref[c.continuation] for c in ranked)
            chosen = {c.continuation for c in ranked}
            if any(v > floor + 1e-4 for c, v in ref.items() if c not in chosen):
                run.wrong_answer(f"query {index}: a better continuation was left out of the top {k}")


def queries(run: Run, fixtures: Path, work: Path) -> None:
    query_list = json.loads((fixtures / "queries.json").read_text(encoding="utf-8"))
    state: dict = {}

    def load_and_index():
        state.pop("db", None)  # drop the previous store before building the next
        sentences = corpus.read_sentences(fixtures / "sentences.txt")
        corpus_vocab = corpus.read_vocab(fixtures / "vocab.txt")
        params, vocab = model.load_checkpoint(fixtures / "model.ckpt")
        if vocab.words != corpus_vocab.words:
            raise RuntimeError("vocab mismatch between checkpoint and corpus")
        db = retrieval.build_db(sentences, k_max=DEFAULTS["max_frag"])
        state.update(sentences=sentences, params=params, vocab=vocab, db=db)

    def run_pass():
        params, vocab, db = state["params"], state["vocab"], state["db"]
        # Each pass sends the queries in its own seeded order, so a query's fastest
        # pass does not always follow the same query and its cache state.
        order = np.random.default_rng([run.seed, run.passes]).permutation(len(query_list))
        results = [None] * len(query_list)
        for i in order:
            run.begin((run.passes, int(i)))
            start = time.perf_counter()
            try:
                answer = answer_query(query_list[i], params, vocab, db)
                failure = None
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                answer, failure = None, f"{type(exc).__name__}: {exc}"
            results[i] = (time.perf_counter() - start, failure, answer)
        return results

    ops = run.measure(timed(load_and_index), run_pass)
    if run.trace is not None:
        # One extra store, built after the passes so tracemalloc slows none of them.
        tracemalloc.start()
        extra = retrieval.build_db(state["sentences"], k_max=DEFAULTS["max_frag"])
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del extra
        run.layers["retrieval.db_bytes_per_token"] = held / sum(len(s) for s in state["sentences"])

    store = _Store(state["sentences"])
    params, vocab = state["params"], state["vocab"]
    sampled = fallbacks = generated_tokens = 0
    for index, (query, (_, failure, answer)) in enumerate(zip(query_list, ops)):
        if failure:
            run.problems.append(f"query {index} raised {failure}")
        elif query["kind"] == "pattern":
            got = {(sid, tuple(sorted(b.items()))) for b, sid in answer}
            run.digest.update(json.dumps([index, sorted(got)]).encode())
            if got != store.pattern(query["text"]) or len(got) != len(answer):
                run.wrong_answer(f"pattern {index} {query['text']!r}: hits differ from brute force")
        else:
            if answer[1] is not None:
                fallbacks += 1
                generated_tokens += len(answer[1])
            take = sampled < REFERENCE_SAMPLE and bool(answer[0].ranked)
            sampled += take
            _check_text(run, index, query["text"].lower().split(), answer, store, params, vocab, take)
    run.details.update(queries=len(query_list), stored_sentences=len(state["db"]), reference_checked=sampled)
    run.layers.update({
        "inference.fallbacks": fallbacks,
        "inference.generated_tokens": generated_tokens,
        "model.checkpoint_bytes": (fixtures / "model.ckpt").stat().st_size,
    })


# ------------------------------------------------------------------ tracing


def _install_spans(tracer: Tracer, counters: dict) -> None:
    """Wrap every public call the per-layer metrics attribute time to."""

    def on_pack(args, kwargs, result):
        tokens, _ = result
        counters["positions"] += tokens.size
        counters["real_tokens"] += sum(len(f) for f in args[0])

    def on_occurrences(args, kwargs, result):
        db, words = args
        counters["occurrence_calls"] += 1
        counters["occurrences"] += len(result)
        counters["scan_queries"] += len(words) > db.k_max

    def on_score(args, kwargs, result):
        continuation = tuple(args[2])
        counters["candidates_scored"] += 1
        counters["scored_tokens"] += len(continuation)
        states = counters["states"].setdefault(tracer.request, set())
        states.update(continuation[:j] for j in range(len(continuation)))

    table = [
        (formula, "parse_formula", "formula.parse", None),
        (prover, "prove", "prover.prove", None),
        (prover, "prove_with_term", "prover.prove_with_term", None),
        (corpus, "strip_boilerplate", "corpus.split", None),
        (corpus, "split_sentences", "corpus.split", None),
        (corpus, "build_vocab", "corpus.vocab", None),
        (corpus, "enumerate_fragments", "corpus.fragments", None),
        (corpus, "write_sentences", "corpus.write", None),
        (corpus, "write_vocab", "corpus.write", None),
        (corpus, "write_fragments", "corpus.write", None),
        (corpus, "read_sentences", "corpus.read", None),
        (corpus, "read_vocab", "corpus.read", None),
        (model, "pack_batch", "model.pack", on_pack),
        (model, "forward_loss", "model.forward", None),
        (model, "backward", "model.backward", None),
        (model, "clip_gradients", "model.optimizer", None),
        (model.AdamW, "update", "model.optimizer", None),
        (model, "save_checkpoint", "model.save", None),
        (model, "load_checkpoint", "model.load", None),
        (retrieval, "build_db", "retrieval.build_db", None),
        (retrieval.SentenceDB, "occurrences", "retrieval.occurrences", on_occurrences),
        (retrieval, "query_pattern", "retrieval.query_pattern", None),
        (inference, "retrieval_first", "inference.retrieval_first", None),
        (inference, "score_continuation", "inference.score", on_score),
        (inference, "generate_free", "inference.generate", None),
    ]
    for owner, attr, name, observe in table:
        tracer.patch(owner, attr, name, observe)


# Span name -> per-layer metric: self time per set-up plus per pass, in seconds.
SPAN_METRICS = {
    "formula.parse": "formula.parse_s",
    "prover.prove": "prover.prove_s",
    "prover.prove_with_term": "prover.prove_with_term_s",
    "corpus.split": "corpus.split_s",
    "corpus.vocab": "corpus.vocab_s",
    "corpus.fragments": "corpus.fragments_s",
    "corpus.write": "corpus.write_s",
    "corpus.read": "corpus.read_s",
    "model.pack": "model.pack_s",
    "model.forward": "model.forward_s",
    "model.backward": "model.backward_s",
    "model.optimizer": "model.optimizer_s",
    "model.save": "model.save_s",
    "model.load": "model.load_s",
    "retrieval.build_db": "retrieval.build_db_s",
    "retrieval.occurrences": "retrieval.occurrences_s",
    "retrieval.query_pattern": "retrieval.query_pattern_s",
    "inference.retrieval_first": "inference.retrieval_first_s",
    "inference.score": "inference.score_s",
    "inference.generate": "inference.generate_s",
}

# Hook counters reported per pass.
COUNTER_METRICS = {
    "scan_queries": "retrieval.scan_queries",
    "candidates_scored": "inference.candidates_scored",
    "scored_tokens": "inference.scored_tokens",
}

WORKLOADS = {
    "prove-mix": prove_mix,
    "build-train": build_train,
    "query-tail": queries,
}


def _in_setup(request) -> bool:
    return isinstance(request, tuple) and request[0] == "setup"


def _traced_layers(tracer: Tracer, counters: dict, passes: int, setups: int) -> dict:
    """Per-layer metrics: span self time per set-up plus per pass, counters per pass."""
    layers = {}
    setup_times = tracer.self_times(_in_setup)
    pass_times = tracer.self_times(lambda request: not _in_setup(request))
    for span, metric in SPAN_METRICS.items():
        layers[metric] = setup_times.get(span, 0.0) / setups + pass_times.get(span, 0.0) / passes
    for key, metric in COUNTER_METRICS.items():
        layers[metric] = counters[key] / passes
    forward = layers["model.forward_s"]
    layers["model.backward_forward_ratio"] = layers["model.backward_s"] / forward if forward else 0.0
    positions = counters["positions"]
    layers["model.pad_share"] = 1.0 - counters["real_tokens"] / positions if positions else 0.0
    calls = counters["occurrence_calls"]
    layers["retrieval.occurrences_per_query"] = counters["occurrences"] / calls if calls else 0.0
    layers["inference.distinct_states"] = sum(len(s) for s in counters["states"].values()) / passes
    layers["trace.spans"] = len(tracer.spans) / passes
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fixtures: Path, work: Path,
                 share: float = 1.0) -> dict:
    """Run one workload in this process and return its result record.

    ``share`` scales the workload's pass count; a traced run gives each of
    its two workers half.
    """
    tracer = Tracer() if trace else None
    counters: dict = {key: 0 for key in ("positions", "real_tokens", "occurrence_calls", "occurrences")}
    counters.update({key: 0 for key in COUNTER_METRICS}, states={})
    passes, setups = PASSES[workload]
    run = Run(seed, seconds, max(2, round(passes * share)), setups,
              None if tracer is None else {"tracer": tracer, "counters": counters})
    WORKLOADS[workload](run, fixtures, work)

    lat_ms = [r[0] * 1e3 for r in run.ops]
    result = {
        "workload": workload,
        "attempted": len(run.ops),
        "failed": sum(1 for r in run.ops if r[1]) + run.wrong,
        "wrong": run.wrong,
        "problems": run.problems,
        "output_digest": run.digest.hexdigest(),
        "samples": {"ops": len(lat_ms), "passes": run.passes, "setup": len(run.setup)},
        "details": run.details,
        "end_to_end": {
            "setup_s": statistics.median(run.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": _percentile(lat_ms, 50),
            "op_p90_ms": _percentile(lat_ms, 90),
        },
        "layers": run.layers,
    }
    if tracer is not None:
        run.layers.update(_traced_layers(tracer, counters, run.passes, len(run.setup)))
        result["span_names"] = sorted(tracer.names())
        tracer.write(work / "spans.jsonl")
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run_workload(
        spec["workload"], spec["seed"], spec["seconds"], spec["trace"],
        Path(spec["fixtures"]), Path(spec["work"]), spec["share"],
    )
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
