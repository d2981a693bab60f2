"""Tests for the Count-Min Sketch (paper parameterization, error bounds)."""
import numpy as np
import pytest

from repro.sketch.cms import _PRIME, CountMinSketch


def _cols_oracle(cms, keys):
    """(depth, n) columns, hashing every row at once (test oracle).

    The sketch hashes one row at a time in place; this direct d×N
    transcription of the same multiply-shift hash is what it must match.
    """
    k = keys.astype(np.uint64)[None, :]
    h = (cms._a[:, None] * k + cms._b[:, None]) % _PRIME
    return (h % np.uint64(cms.width)).astype(np.int64)


class TestParameterization:
    def test_paper_config_dimensions(self):
        # Section 4.4: eps=0.1, nu=0.01 → w=⌈e/0.1⌉, d=⌈ln 100⌉
        cms = CountMinSketch(eps=0.1, nu=0.01)
        assert cms.width == 28  # ceil(e/0.1) = ceil(27.18)
        assert cms.depth == 5   # ceil(ln 100) = ceil(4.6)

    @pytest.mark.parametrize("eps,w", [(0.5, 6), (0.1, 28), (0.01, 272)])
    def test_width_formula(self, eps, w):
        assert CountMinSketch(eps=eps).width == w

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_params_raise(self, bad):
        with pytest.raises(ValueError):
            CountMinSketch(eps=bad)
        with pytest.raises(ValueError):
            CountMinSketch(nu=bad)

    def test_memory_footprint_is_w_x_d(self):
        cms = CountMinSketch(eps=0.1, nu=0.01)
        assert cms.nbytes == cms.width * cms.depth * 8


class TestCounting:
    def test_single_key(self):
        cms = CountMinSketch()
        cms.add(42, 3)
        assert cms.query(42) >= 3

    def test_never_underestimates(self):
        g = np.random.default_rng(0)
        keys = g.integers(0, 1000, 5000)
        cms = CountMinSketch(eps=0.01, nu=0.01)
        cms.add_batch(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        est = cms.query_batch(uniq)
        assert (est >= counts).all()

    def test_error_bound_holds_for_most_keys(self):
        # overestimate ≤ eps·N with prob ≥ 1-nu per query
        g = np.random.default_rng(1)
        keys = g.integers(0, 500, 20000)
        cms = CountMinSketch(eps=0.05, nu=0.01)
        cms.add_batch(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        est = cms.query_batch(uniq)
        overshoot = est - counts
        frac_bad = (overshoot > 0.05 * cms.total).mean()
        assert frac_bad <= 0.05

    def test_batch_equals_singles(self):
        keys = np.array([1, 5, 5, 9, 1, 1], dtype=np.int64)
        a = CountMinSketch(seed=3)
        a.add_batch(keys)
        b = CountMinSketch(seed=3)
        for k in keys:
            b.add(int(k))
        np.testing.assert_array_equal(a.table, b.table)
        assert a.total == b.total == 6

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_matches_all_rows_oracle(self, eps):
        g = np.random.default_rng(4)
        # int64 pair codes, including ones with the top bits set
        keys = np.concatenate([g.integers(0, 1 << 62, 3000), -g.integers(1, 1 << 40, 100)])
        cms = CountMinSketch(eps=eps)
        cms.add_batch(keys)
        cols = _cols_oracle(cms, keys)
        want = np.zeros_like(cms.table)
        for r in range(cms.depth):
            np.add.at(want[r], cols[r], 1)
        np.testing.assert_array_equal(cms.table, want)
        est = want[np.arange(cms.depth)[:, None], cols].min(axis=0)
        np.testing.assert_array_equal(cms.query_batch(keys), est)

    def test_counts_accumulate(self):
        cms = CountMinSketch()
        cms.add(7, 2)
        cms.add(7, 5)
        assert cms.query(7) >= 7

    def test_empty_batch_noop(self):
        cms = CountMinSketch()
        cms.add_batch(np.zeros(0, dtype=np.int64))
        assert cms.total == 0
        assert len(cms.query_batch(np.zeros(0, dtype=np.int64))) == 0

    def test_unseen_key_small(self):
        cms = CountMinSketch(eps=0.01)
        cms.add_batch(np.arange(100, dtype=np.int64))
        # an unseen key can only collide; with eps=0.01 and N=100, ≤ 1
        assert cms.query(10**9) <= 1

    def test_deterministic_given_seed(self):
        a = CountMinSketch(seed=5)
        b = CountMinSketch(seed=5)
        keys = np.arange(50, dtype=np.int64)
        a.add_batch(keys)
        b.add_batch(keys)
        np.testing.assert_array_equal(a.table, b.table)

    def test_smaller_eps_smaller_error(self):
        g = np.random.default_rng(2)
        keys = g.integers(0, 2000, 50000)
        uniq, counts = np.unique(keys, return_counts=True)
        errs = []
        for eps in (0.5, 0.05):
            cms = CountMinSketch(eps=eps, nu=0.01)
            cms.add_batch(keys)
            errs.append(float((cms.query_batch(uniq) - counts).mean()))
        assert errs[1] <= errs[0]
