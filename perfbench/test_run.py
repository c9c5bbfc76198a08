"""Checks of the benchmark's own bookkeeping.

    python3 -m pytest perfbench/test_run.py
"""

import json
import random
from collections import Counter
from types import SimpleNamespace

import run

run.load_package()
from thetapairs import gaussian  # noqa: E402


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_names()
    assert len(spec["per_layer"]) <= 128
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def _fake_pair(family, n=None, n_def=None):
    return SimpleNamespace(spec=SimpleNamespace(family=family, n=n),
                           frame=SimpleNamespace(n_def=n_def))


def _has_repeat(values):
    return max(Counter(values).values()) > 1


def test_points_are_on_a_wall_exactly_when_asked():
    # a restricted root vanishes on y exactly when these eigenvalues repeat:
    # d for diag(d) (splitA) and (diag(d), -diag(d)) (diag), all of them for glgl
    pairs = [_fake_pair("splitA", n_def=4), _fake_pair("glgl", n=2, n_def=4),
             _fake_pair("diag", n_def=6)]
    rng = random.Random(0)
    for pair in pairs:
        for q in range(200):
            wall = q % 2 == 1
            coeffs, spectrum = run.draw_a_point(pair, rng, wall, gaussian)
            roots_from = spectrum[:3] if pair.spec.family == "diag" else spectrum
            assert _has_repeat(roots_from) == wall
            assert any(not v.is_zero() for v in spectrum)
            if pair.spec.family != "glgl":
                diagonal = [b - a for a, b in zip([gaussian.ZERO] + coeffs, coeffs)]
                assert diagonal + [-coeffs[-1]] == spectrum[:len(coeffs) + 1]


def test_typical_slowdown():
    import speed

    assert speed.typical([1.0, 3.0, 2.0]) == 2.0
    # many samples: a speed that alternates is averaged, one stalled sample is dropped
    assert speed.typical([0.7, 1.0] * 10) == 0.85
    assert speed.typical([1.0] * 19 + [40.0]) == 1.0
