"""The in-tree F tail and the stdlib normal quantile, against scipy."""
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import fdtrc, ndtri

from hra_forge.dist import f_sf

# Where scipy's own tail is trustworthy. Below about 1e-280 fdtrc loses
# digits: at (42, 1000, 79.43) it reads 8.907e-286 against a 40-digit
# evaluation of 8.866e-286, which f_sf matches (see test_beyond_scipy).
P_FLOOR = 1e-270
RTOL = 1e-12

DFN = range(1, 45)
DFD = [*range(1, 60), 100, 300, 1000, 3000, 10_000]
F_GRID = [*np.logspace(-8, 6, 57).tolist(), 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 1e300]


class TestFTail:
    def test_matches_fdtrc_on_grid(self):
        """Within RTOL relative where fdtrc >= P_FLOOR, and within P_FLOOR
        absolute below it (measured: 7.1e-13 and 2.4e-276)."""
        f = np.array(F_GRID)
        worst_rel = worst_abs = 0.0
        for dfn in DFN:
            for dfd in DFD:
                want = fdtrc(dfn, dfd, f)
                got = np.array([f_sf(dfn, dfd, v) for v in F_GRID])
                gap = np.abs(got - want)
                tail = want >= P_FLOOR
                worst_rel = max(worst_rel, float((gap[tail] / want[tail]).max()))
                worst_abs = max(worst_abs, float(gap[~tail].max(initial=0.0)))
        assert worst_rel <= RTOL
        assert worst_abs <= P_FLOOR

    @pytest.mark.parametrize("dfn, dfd", [(1, 1), (1, 59), (44, 1), (44, 59), (3, 10_000)])
    def test_special_values(self, dfn, dfd):
        assert f_sf(dfn, dfd, 0.0) == 1.0
        assert f_sf(dfn, dfd, -2.5) == 1.0
        assert f_sf(dfn, dfd, -math.inf) == 1.0
        assert f_sf(dfn, dfd, math.inf) == 0.0
        assert math.isnan(f_sf(dfn, dfd, math.nan))
        assert f_sf(dfn, dfd, 5e-324) == 1.0
        for f in (1e300, 1.7e308):
            want = float(fdtrc(dfn, dfd, f))
            got = f_sf(dfn, dfd, f)
            assert 0.0 <= got < 1e-100
            if want >= P_FLOOR:
                assert got == pytest.approx(want, rel=RTOL, abs=0.0)

    def test_monotone_in_f(self):
        # elimination reads the largest p off the smallest F
        for dfd in (1, 5, 20, 59, 1000):
            ps = [f_sf(1, dfd, f) for f in np.logspace(-6, 4, 400).tolist()]
            assert all(a >= b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("dfn, dfd, f", [(10**6, 10**6, 1.0), (10**6, 10**6, 1.001),
                                             (44, 10**7, 1.0), (10**5, 3, 0.5), (3, 10**5, 2.0)])
    def test_large_dfs(self, dfn, dfd, f):
        # lgamma(a) and lgamma(a + b) would cancel in their leading digits here
        assert f_sf(dfn, dfd, f) == pytest.approx(fdtrc(dfn, dfd, f), rel=RTOL, abs=0.0)

    def test_beyond_scipy(self):
        """Against 40-digit mpmath where fdtrc underflows or loses digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for dfn, dfd, f in [(42, 1000, 79.43282347242821), (34, 5000, 50.11872336272735),
                                (1, 10_000, 3.0)]:
                x = dfd / (dfd + dfn * mp.mpf(f))
                want = mp.betainc(mp.mpf(dfd) / 2, mp.mpf(dfn) / 2, 0, x, regularized=True)
                assert abs(f_sf(dfn, dfd, f) - want) <= RTOL * want


class TestNormalQuantile:
    def test_matches_ndtri_at_plotting_positions(self):
        """The Q-Q plot's (i - 0.5) / n: measured within 1.2e-15 relative."""
        quantile = NormalDist().inv_cdf
        for n in [*range(1, 201), 500, 1000, 3000]:
            q = (np.arange(1, n + 1) - 0.5) / n
            want = ndtri(q)
            got = np.array([quantile(v) for v in q.tolist()])
            assert np.allclose(got, want, rtol=1e-14, atol=0.0), n
