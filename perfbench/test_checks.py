"""Self-test of the benchmark's result checks; needs no mapscat run.

    python3 -m pytest perfbench/test_checks.py

A corrupted result must fail its check, the seeded inputs must repeat,
and BENCHMARK.json must list exactly the metrics run.py reports.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

INVARIANTS = workloads.load_invariants()


def test_recorded_results_pass():
    for name, expected in INVARIANTS.items():
        attempted, failed, bad = workloads.check(name, copy.deepcopy(expected), expected)
        assert attempted >= 1 and failed == 0 and not bad, name


def test_dropped_arrow_fails():
    expected = INVARIANTS["gamma-a4"]
    actual = copy.deepcopy(expected)
    actual["arrows"].pop()
    assert workloads.check("gamma-a4", actual, expected) == (1, 1, ["arrows"])


def test_moved_vertex_fails():
    expected = INVARIANTS["kronecker-bounded"]
    actual = copy.deepcopy(expected)
    actual["vertices"][-1] = [15, 14]
    assert workloads.check("kronecker-bounded", actual, expected)[1] == 1


def test_flipped_tilting_status_fails():
    expected = INVARIANTS["certify-a3"]
    actual = copy.deepcopy(expected)
    actual["tilting"]["a3_rel/classical"]["ext1-vanishes"] = "fail"
    attempted, failed, bad = workloads.check("certify-a3", actual, expected)
    assert attempted == 322 and failed == 1 and bad == ["a3_rel/classical"]


def test_failed_certificate_counts_once():
    expected = INVARIANTS["certify-a3"]
    actual = copy.deepcopy(expected)
    actual["certificates"][0][4] = False
    assert workloads.check("certify-a3", actual, expected)[1] == 1


def test_missing_result_fails_every_operation():
    assert workloads.check("certify-a3", None, INVARIANTS["certify-a3"])[:2] == (322, 322)


def test_inputs_repeat_per_seed(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    for name in workloads.WORKLOADS:
        a = workloads.write_inputs(name, 5, tmp_path / "a")
        b = workloads.write_inputs(name, 5, tmp_path / "b")
        for alg in a:
            assert Path(a[alg][0]).read_text() == Path(b[alg][0]).read_text()
            assert a[alg][1] == b[alg][1]


def test_canonical_dims_undoes_the_relabelling():
    # canonical vertex v is file vertex perm[v]; Gamma vectors hold two copies
    assert workloads.canonical_dims([5, 6, 7, 1, 2, 3], [2, 0, 1]) == [7, 5, 6, 3, 1, 2]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracer.metric_names()]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
