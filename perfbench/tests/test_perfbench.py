"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _rules(text):
    return sorted(" ".join(line.split()) for line in text.splitlines()
                  if line.strip().startswith("rule "))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_deterministic(workload):
    first = gen.workload_queries(workload, 7)
    again = gen.workload_queries(workload, 7)
    assert first == again
    assert [q.model_text.encode() for q in first] == [q.model_text.encode() for q in again]
    other = gen.workload_queries(workload, 8)
    assert [q.members for q in first] != [q.members for q in other]


def test_random_mix_models_vary_with_seed():
    a = {q.model_text for q in gen.workload_queries("random-mix", 1)}
    b = {q.model_text for q in gen.workload_queries("random-mix", 2)}
    assert a != b


def test_abp2_matches_bundled_model():
    path = os.path.join(REPO, "models", "abp.lcs")
    if not os.path.isfile(path):
        pytest.skip("bundled models are not in this checkout")
    with open(path, encoding="utf-8") as handle:
        bundled = handle.read()
    text = gen.abp_text(2)
    assert _rules(text) == _rules(bundled)
    assert check.ModelInfo(text).locations == check.ModelInfo(bundled).locations
    assert check.ModelInfo(text).regions["GOAL"] == check.ModelInfo(bundled).regions["GOAL"]


def test_abp_sizes():
    for n, locations, rules in ((2, 8, 36), (3, 18, 108), (4, 32, 240)):
        text = gen.abp_text(n)
        assert len(check.ModelInfo(text).locations) == locations
        assert len(_rules(text)) == rules


def test_text_region_matches_symbols_like_the_regex_grammar():
    info = check.ModelInfo("alphabet: a b\nchannels: c\nlocations: q\n")
    region = check.TextRegion("(q; aab*) + (q; (ab)*)", info)
    assert ("q", (("a", "a"),)) in region
    assert ("q", (("a", "a", "b", "b"),)) in region
    assert ("q", (("a", "b", "a", "b"),)) in region
    assert ("q", (("a", "a", "b", "a", "b"),)) not in region
    assert ("q", ((),)) in region
    assert check.TextRegion("(q; {})", info).locations() == frozenset()


# -- the checks catch wrong answers ----------------------------------------

def _small_abp(monkeypatch):
    monkeypatch.setitem(gen.WORKLOADS, "abp-prestar",
                        lambda seed: gen.abp_queries(seed, sizes=(2,)))


def test_correct_answers_pass(monkeypatch):
    _small_abp(monkeypatch)
    result = worker.run("abp-prestar", 1, False, set())
    assert result["failed"] == [] and result["failures"] == []


def test_wrong_golden_is_a_failed_query(monkeypatch):
    _small_abp(monkeypatch)
    goldens = worker.load_goldens()
    full = "(s0w0; (m0|m1|a0|a1)*; (m0|m1|a0|a1)*)"
    assert full in goldens["abp-2-prestar"]
    goldens["abp-2-prestar"] = goldens["abp-2-prestar"].replace(
        full, "(s0w0; (m0|m1|a0|a1)*; m0*)")
    monkeypatch.setattr(worker, "load_goldens", lambda: goldens)
    result = worker.run("abp-prestar", 1, False, set())
    assert result["failed"] == ["abp-2/prestar"]


def test_wrong_verdict_is_a_failed_query(monkeypatch):
    _small_abp(monkeypatch)
    solve = worker.solve_query

    def flipped(*args):
        region, verdicts, text = solve(*args)
        return region, [not verdicts[0]] + verdicts[1:], text

    monkeypatch.setattr(worker, "solve_query", flipped)
    result = worker.run("abp-prestar", 1, False, set())
    assert result["failed"] == ["abp-2/prestar"]


def test_verified_answers_are_not_checked_again(monkeypatch):
    _small_abp(monkeypatch)
    first = worker.run("abp-prestar", 1, False, set())
    monkeypatch.setattr(worker, "verify_query",
                        lambda *args: pytest.fail("re-checked a verified answer"))
    again = worker.run("abp-prestar", 1, False, set(first["digests"]))
    assert again["failed"] == []


# -- metrics ---------------------------------------------------------------

SMALL_RUN = """
import json, sys
sys.path.insert(0, %r)
import gen, worker
gen.WORKLOADS["relay-games"] = lambda seed: gen.relay_queries(seed, sizes=(2,))
print(json.dumps(worker.run("relay-games", 3, True, set())))
"""


def _traced_small_run():
    proc = subprocess.run([sys.executable, "-c", SMALL_RUN % BENCH],
                          capture_output=True, text=True, timeout=300, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_cover_every_layer_metric():
    first, second = _traced_small_run(), _traced_small_run()
    assert first["failed"] == [] and second["failed"] == []
    reps = [dict(first, traced=False), dict(first, traced=True)]
    metrics = run.per_layer(reps)
    assert set(metrics) == set(run.PER_LAYER)
    derived = {"trace.overhead_s", "model.pre_perf_rule.nonempty_ratio"}
    for name in set(run.PER_LAYER) - derived:
        assert name in first["layers"], name
        if run.PER_LAYER[name] == "count":
            assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["automata.canonicalize.calls"] > 0
    assert 0 < metrics["model.pre_perf_rule.nonempty_ratio"]["value"] <= 1


def test_end_to_end_metrics_and_units():
    reps = [{"peak_rss_mb": 20.0 + s, "compile_q": [0.0, 0.0, s],
             "solve_q": [s, 3 * s, 5 * s], "traced": False} for s in (0.1, 0.3, 0.2)]
    metrics = run.end_to_end(reps, setups=[0.5, 0.1, 0.2, 0.4])
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    assert metrics["solve_s"]["value"] == pytest.approx(0.2 + 0.6 + 1.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(20.2)
    # per-query medians 0.2, 0.6, 1.2: interpolated median and 90th percentile
    assert run.query_latency(reps) == pytest.approx([0.6, 0.6 + 0.8 * 0.6])


def test_benchmark_json_matches_the_runner():
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(path):
        pytest.skip("no BENCHMARK.json in this checkout")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "random-mix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
