import json
import os
import subprocess
import sys

import numpy as np
import pytest

import schemeforge
from schemeforge.sampling import Sampler


def _draws(seed):
    rng = Sampler(seed)
    return (rng.indices(1000, 64).tolist(), rng.randrange(1000),
            rng.uniform(1.0, 2.0), rng.sample(range(1000), 10))


def test_a_seed_fixes_the_draws():
    assert _draws(0xA55C) == _draws(0xA55C)
    assert _draws(0) == _draws(0)
    assert _draws(0) != _draws(1)
    assert _draws(11) != _draws(0xA55C)


@pytest.mark.parametrize("n", [1, 3, 2 ** 31 - 1])
def test_indices_stay_below_n(n):
    draws = Sampler(7).indices(n, 5000)
    assert draws.dtype == np.int64 and draws.shape == (5000,)
    assert 0 <= draws.min() and draws.max() < n
    if n > 1:
        assert np.unique(draws).size > 1


def test_indices_are_uniform_over_three_bins():
    draws = Sampler(0xA55C).indices(3, 30_000)
    counts = np.bincount(draws, minlength=3)
    expected = draws.size / 3
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    assert chi_square < 13.82        # the 0.999 quantile at 2 degrees of freedom


def test_negative_seeds_are_refused():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        Sampler(-1)
    with pytest.raises(ValueError, match="cannot draw"):
        Sampler(0).indices(0, 3)


# every seeded path of the pipeline: the randomized refinement, the sampled
# scheme-axioms check (M*(5) has 39000 points) and the eigencombinations of
# M*(5) and PSL(2,8), the sampled Moufang check of M*(3) (1080 elements) and
# the two eigensolves and the double cosets of double_coset_table.  Only
# what numpy itself loads is excused: numpy 2 loads none of these modules,
# numpy 1.x loads numpy.random and numpy.ma with numpy
GUARD_SCRIPT = """
import json, sys
WATCHED = ("numpy.random", "numpy.ma", "hashlib")
import numpy
with_numpy = [m for m in WATCHED if m in sys.modules]
from schemeforge import (build_paige_loop, compute_character_table,
                         double_coset_table, group_scheme, inner_orbits,
                         loop_scheme, moufang_check, psl2, stabilizer,
                         verify_scheme_axioms)
loop = build_paige_loop(5)
sch = loop_scheme(loop, inner_orbits(loop, policy="randomized"))
assert verify_scheme_axioms(sch).passed
compute_character_table(sch)
assert moufang_check(build_paige_loop(3), samples=1000).mode == "sampled"
compute_character_table(group_scheme(psl2(8)))
g5 = psl2(5)
double_coset_table(g5, stabilizer(g5, 0))
print(json.dumps({"numpy": numpy.__version__, "with_numpy": with_numpy,
                  "after": [m for m in WATCHED if m in sys.modules]}))
"""


def test_the_pipeline_imports_no_numpy_random_ma_or_hashlib():
    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["after"] == report["with_numpy"]
    if int(report["numpy"].split(".")[0]) >= 2:
        assert report["after"] == []
