"""``--cache-dir`` entries pickled before the packed-first ``Distribution``.

``data/parent_cache`` holds eight distributions written by
``ExecutionCache.put`` with the mapping-only layout (every distribution held
its ``str -> weight`` dict), one per stored form of interest: mapping-built
with and without a packed view, sampled, HAMMER's output, normalised, 70 bits
wide, statevector-built and tableau-built.  ``answers.json`` holds what that
code answered, through :func:`accessor_answers` below, for each entry loaded
back with a fresh cache.  Loading the same bytes now must answer the same,
value for value.

The answers were recorded on Python 3.11.  A few of them are the builtin
``sum`` of floats, which compensates from Python 3.12 on: the entropy and
the totals of derived distributions.  :func:`_on_this_interpreter` recomputes
exactly those from the recorded inputs, with the same expression the old
code used, and on 3.11 leaves every recorded value as it is.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from repro.engine.cache import ExecutionCache
from repro.obs.metrics import MetricsScope

FIXTURE = Path(__file__).parent / "data" / "parent_cache"
ANSWERS = json.loads((FIXTURE / "answers.json").read_text())


def _counts_and_vector(dist):
    return {
        "counts": [[o, w] for o, w in dist.counts().items()],
        "probability_vector": dist.probability_vector().tolist(),
        "total_weight": dist.total_weight,
    }


def accessor_answers(dist):
    """Every accessor's answer, in a fixed call order (calls may build caches)."""
    outcomes = dist.outcomes()
    n = dist.num_bits
    absent = next(
        format(v, f"0{n}b") for v in range(1 << min(n, 20)) if format(v, f"0{n}b") not in dist
    )
    return {
        "num_bits": dist.num_bits,
        "num_outcomes": dist.num_outcomes,
        "len": len(dist),
        "total_weight": dist.total_weight,
        "outcomes": outcomes,
        "iter": list(dist),
        "items": [[o, p] for o, p in dist.items()],
        "counts": [[o, w] for o, w in dist.counts().items()],
        "probabilities": [[o, p] for o, p in dist.probabilities().items()],
        "probability": [dist.probability(o) for o in outcomes] + [dist.probability(absent)],
        "contains": [o in dist for o in outcomes] + [absent in dist],
        "probability_vector": dist.probability_vector().tolist(),
        "words": dist.packed().words.tolist(),
        "ranked_outcomes": [[o, p] for o, p in dist.ranked_outcomes()],
        "most_probable": dist.most_probable(),
        "entropy": dist.entropy(),
        "distances": dist.hamming_distances_to(outcomes[0]).tolist(),
        "top_k": _counts_and_vector(dist.top_k(3)),
        "normalized": _counts_and_vector(dist.normalized()),
        "mapped": _counts_and_vector(dist.mapped(list(range(n))[::-1])),
        "marginal": _counts_and_vector(dist.marginal([0, n - 1])),
        "merged_with": _counts_and_vector(dist.merged_with(dist.top_k(2), 0.25)),
    }


def _answers(dist):
    return json.loads(json.dumps(accessor_answers(dist)))


def _on_this_interpreter(recorded):
    """The recorded answers, with each builtin float ``sum`` redone on this interpreter."""
    expected = copy.deepcopy(recorded)
    expected["entropy"] = float(-sum(p * math.log2(p) for _, p in recorded["items"] if p > 0))
    for derived in ("top_k", "normalized", "mapped", "marginal", "merged_with"):
        expected[derived]["total_weight"] = float(sum(w for _, w in recorded[derived]["counts"]))
    return expected


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="answers were recorded on Python 3.11")
def test_recorded_sums_are_the_builtin_sums():
    for recorded in ANSWERS.values():
        assert _on_this_interpreter(recorded) == recorded


@pytest.fixture
def cache_dir(tmp_path):
    # A failed load deletes the entry, so never point the cache at the fixture itself.
    target = tmp_path / "cache"
    shutil.copytree(FIXTURE, target)
    return target


@pytest.mark.parametrize("entry", sorted(ANSWERS))
def test_old_entries_answer_as_they_did(cache_dir, entry):
    namespace, key = entry.split("/")
    cache = ExecutionCache(cache_dir)
    with MetricsScope() as scope:
        dist = cache.get(namespace, key)
    assert dist is not None and scope.registry.counters == {f"cache.{namespace}.hits": 1}
    assert _answers(dist) == _on_this_interpreter(ANSWERS[entry])


@pytest.mark.parametrize("entry", sorted(ANSWERS))
def test_entries_rewritten_now_answer_the_same(cache_dir, tmp_path, entry):
    namespace, key = entry.split("/")
    fresh = tmp_path / "fresh"
    ExecutionCache(fresh).put(namespace, key, ExecutionCache(cache_dir).get(namespace, key))
    assert _answers(ExecutionCache(fresh).get(namespace, key)) == _on_this_interpreter(ANSWERS[entry])
