import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from heraldsim import numerics
from heraldsim.numerics import (
    _legendre_rule,
    abs_squared,
    build_grid,
    hermitian_eigen,
    legendre_tail,
    legendre_vander,
    rms_time_width,
    sinc,
)

REPO = Path(__file__).resolve().parents[1]

# Gauss-Legendre weights to 40 digits (mpmath, 60-digit Newton on the
# recurrence): the centre node n // 2 of the ascending rule, then the 8 nodes
# nearest +1 in ascending order
WEIGHTS_40 = {
    256: (
        "0.01224767164028975590407032648971844135729",
        "0.001160843557567724723970598113460605721716",
        "0.001011424393208440452605812841425374977375",
        "0.0008618537014200890378140934162509687758914",
        "0.0007121541634733206669089891511233901501971",
        "0.0005623489540314098028152367475927053288565",
        "0.0004124632544261763284321858377358707992834",
        "0.0002625349442964459062874575624994967327247",
        "0.0001127890178222721755125388772498376055902",
    ),
    360: (
        "0.008714451620385730224712952407954839690661",
        "0.0005881125665986018625915343883309952335719",
        "0.000512321270708642703971360082803399858693",
        "0.0004364911669797053774762716821672152374765",
        "0.0003606281377714438824368631566869935298177",
        "0.00028473830792149613873719116364446433501",
        "0.0002088288121060538470843005602315180457668",
        "0.000132913208730391145364014599050368722274",
        "0.00005709977917366823976526527101827942654587",
    ),
    384: (
        "0.00817051698671111073998031695777657468519",
        "0.000517033045349154638070851592173620540253",
        "0.0004503919137716877613812631428789938598204",
        "0.0003837208020912924380769776054432472589978",
        "0.0003170242698112706309204038817114533027701",
        "0.0002503070890844147244367666054448758157687",
        "0.0001835749193551260444766282687846522708966",
        "0.0001168390665730188627954282573513175982201",
        "0.00005019410348692173752939580444474545030871",
    ),
    512: (
        "0.006129905175405785759156351067049341671937",
        "0.0002911054302514885125319368526081104574601",
        "0.0002535665435705865135865814668416902760329",
        "0.0002160181779769908583388096923337495777817",
        "0.0001784618055459532946077108721438631429969",
        "0.0001408990173881984930124330727260836632872",
        "0.0001033319034969132362968180117124963958917",
        "0.00006576573165924019583101442293512615753429",
        "0.00002825263737393469203874501078451898497295",
    ),
    768: (
        "0.00408794460134181810599921970907215175061",
        "0.0001294914625472838870266679925310150524032",
        "0.0001127874758170570632739999421182879470578",
        "0.00009608162609380794717612541320368320461074",
        "0.00007937421975252693487486411044483798957566",
        "0.00006266561599843194923302312584608141216991",
        "0.0000459563958165165253771457071916418507309",
        "0.00002924855339195397923090402019679189122721",
        "0.0000125649265012237476940767246562995814111",
    ),
    1024: (
        "0.003066460309243908211551278492051043539111",
        "0.00007286798631902746613667879090903704100879",
        "0.00006346712685980442299328849708007353086387",
        "0.00005406568289394000719879177977020036001277",
        "0.00004466375812857533938383476745275342000235",
        "0.00003526148598719869750666728379359541906514",
        "0.00002585912467646185867157669636716019832048",
        "0.00001645772757989686810680579875671040848569",
        "0.000007070076410182589871295805175639999432512",
    ),
    1536: (
        "0.00204464096683902030616957268591424993036",
        "0.00003239800730583026899006640713580589801606",
        "0.00002821791283477775856531783853619735837368",
        "0.00002403770585968651029362125448648612291751",
        "0.00001985741065987670454180922553020789490406",
        "0.00001567706472452444466259585704072989380237",
        "0.0000114967610186203439220607909562003513179",
        "0.000007316946032956578863012167907710411660407",
        "0.000003143280544300424052208816662687061255513",
    ),
}


class TestBuildGrid:
    def test_two_point_closed_form(self):
        g = build_grid(-1.0, 1.0, 2)
        assert g.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert g.weights == pytest.approx([1.0, 1.0])

    def test_quadratic_exact(self):
        g = build_grid(-1.0, 1.0, 2)
        assert g.integrate(g.nodes**2) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_gaussian_against_adaptive_quadrature(self):
        g = build_grid(-6.0, 6.0, 64)
        got = g.integrate(np.exp(-g.nodes**2 / 2))
        want, _ = quad(lambda x: np.exp(-x * x / 2), -6, 6)
        assert got == pytest.approx(want, abs=1e-10)
        # the untruncated value needs a wider window: [-6, 6] leaves ~5e-9
        # of Gaussian tail mass outside
        g8 = build_grid(-8.0, 8.0, 64)
        got8 = g8.integrate(np.exp(-g8.nodes**2 / 2))
        assert got8 == pytest.approx(np.sqrt(2 * np.pi), abs=1e-10)

    def test_weights_sum_to_interval(self):
        g = build_grid(-3.0, 7.5, 33)
        assert g.weights.sum() == pytest.approx(10.5, rel=1e-12)
        assert np.all(g.weights > 0)
        assert np.all(np.diff(g.nodes) > 0)

    @given(n=st.integers(4, 40), deg=st.integers(0, 7), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_exactness(self, n, deg, seed):
        # Gauss rule with n nodes is exact up to degree 2n - 1 >= 7
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, size=deg + 1)
        g = build_grid(-2.0, 3.0, n)
        got = g.integrate(np.polyval(coeffs, g.nodes))
        exact = np.diff(np.polyval(np.polyint(coeffs), [-2.0, 3.0]))[0]
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [256, 360, 512, 768])
    def test_normalized_legendre_basis_is_orthonormal(self, n):
        # the rule is exact up to degree 2n - 1, so the weighted Gram matrix of
        # sqrt(k + 1/2) P_k, k < n, is the identity up to rounding
        g = build_grid(-1.0, 1.0, n)
        v = np.polynomial.legendre.legvander(g.nodes, n - 1) * np.sqrt(np.arange(n) + 0.5)
        assert np.max(np.abs((v.T * g.weights) @ v - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 54, 129, 256, 768])
    def test_nodes_match_numpy_leggauss(self, n):
        g = build_grid(-1.0, 1.0, n)
        x, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(g.nodes - x)) <= 4.5e-16

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 54, 129, 256, 768])
    def test_rule_is_exactly_mirror_symmetric(self, n):
        g = build_grid(-1.0, 1.0, n)
        assert np.array_equal(g.nodes, -g.nodes[::-1])
        assert np.array_equal(g.weights, g.weights[::-1])
        if n % 2:
            assert g.nodes[n // 2] == 0.0

    @pytest.mark.parametrize("n", sorted(WEIGHTS_40))
    def test_weights_match_40_digit_values(self, n):
        # the largest error sits next to the end nodes: 7.2e-13, 2.1e-12,
        # 3.0e-12, 1.3e-12, 3.8e-12 and 4.6e-13 relative at n = 256, 360, 384,
        # 512, 768 and 1024.  At n = 1536 it is 3.8e-11, at the end node:
        # w = 2/((1 - x^2) P_n'(x)^2) turns a node's rounding error delta into
        # a relative weight error of up to about 2 delta / (1 - x^2), and
        # 1 - x^2 is 2.4e-6 there
        w = _legendre_rule(n)[1][[n // 2, *range(n - 8, n)]]
        want = np.array([float(v) for v in WEIGHTS_40[n]])
        assert np.max(np.abs(w / want - 1.0)) <= (1e-10 if n == 1536 else 1e-11)

    def test_weights_sum_to_two_for_every_small_n(self):
        for n in range(2, 201):
            g = build_grid(-1.0, 1.0, n)
            assert abs(g.weights.sum() - 2.0) <= 1e-14, n

    @pytest.mark.parametrize("lo,hi,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 1)])
    def test_rejects_bad_arguments(self, lo, hi, n):
        with pytest.raises(ValueError):
            build_grid(lo, hi, n)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(ValueError):
            build_grid(-np.inf, 1.0, 8)

    @pytest.mark.parametrize("nodes, weights, lo, hi, match", [
        ([-0.5, 0.5], [1.0], -1.0, 1.0, "matching 1-d arrays"),
        ([[-0.5, 0.5]], [[1.0, 1.0]], -1.0, 1.0, "matching 1-d arrays"),
        ([-0.5, 0.5], [1.0, 1.0], -np.inf, 1.0, "endpoints must be finite"),
        ([0.5, -0.5], [1.0, 1.0], -1.0, 1.0, "strictly increasing"),
        ([-0.5, 0.5, 0.5], [1.0, 1.0, 1.0], -1.0, 1.0, "strictly increasing"),
        ([-1.5, 0.5], [1.0, 1.0], -1.0, 1.0, "inside"),
        ([-0.5, 1.5], [1.0, 1.0], -1.0, 1.0, "inside"),
        ([-0.5, 0.5], [1.0, 0.0], -1.0, 1.0, "strictly positive"),
    ])
    def test_grid_rejects_a_malformed_rule(self, nodes, weights, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            numerics.FrequencyGrid(nodes=np.array(nodes), weights=np.array(weights),
                                   lo=lo, hi=hi)


def _normalized_legendre(coefs, x):
    """sum_k coefs[k] sqrt(k + 1/2) P_k(x): unit norm on [-1, 1] per term."""
    coefs = np.asarray(coefs)
    return np.polynomial.legendre.legval(x, coefs * np.sqrt(np.arange(coefs.size) + 0.5))


class TestLegendreRecurrence:
    @pytest.mark.parametrize("n_terms", [60, 256, 272])
    @pytest.mark.parametrize("band", [False, True])
    def test_vander_matches_numpy_legvander(self, n_terms, band):
        # below, at and above the 256 nodes, on the rule and on a band grid
        # (c = 220 with 12 modes needs N = 272 terms there); |Pbar_k| <=
        # sqrt(k + 1/2) on [-1, 1] sets the scale of each row
        b = 4.0 * np.pi
        x = build_grid(-0.5 * b, 0.5 * b, 256).nodes * (2.0 / b) if band else _legendre_rule(256)[0]
        scale = np.sqrt(np.arange(n_terms) + 0.5)[:, None]
        want = np.polynomial.legendre.legvander(x, n_terms - 1).T * scale
        assert np.max(np.abs(legendre_vander(x, n_terms) - want) / scale) <= 1e-13

    def test_vander_small_orders(self):
        x = np.array([-0.5, 0.0, 0.25])
        assert np.array_equal(legendre_vander(x, 1), np.full((1, 3), np.sqrt(0.5)))
        assert np.array_equal(legendre_vander(x, 2)[1], np.sqrt(1.5) * x)

    @pytest.mark.parametrize("n", [256, 384, 768])
    def test_rule_runs_the_recurrence_three_times(self, n, monkeypatch):
        calls = []
        rows = numerics._legendre_rows

        def counted(*args):
            calls.append(args[1])
            return rows(*args)

        monkeypatch.setattr(numerics, "_legendre_rows", counted)
        x, w, tail = _legendre_rule.__wrapped__(n)
        assert calls == [n, n, n]
        assert np.array_equal(x, _legendre_rule(n)[0])
        assert tail.shape == (n // 8, n)

    @pytest.mark.parametrize("n", [8, 33, 256, 360])
    def test_tail_rows_are_the_weighted_top_degrees(self, n):
        x, w, tail = _legendre_rule(n)
        first = n - n // 8
        want = np.polynomial.legendre.legvander(x, n - 1)[:, first:].T * w
        want *= np.sqrt(np.arange(first, n) + 0.5)[:, None]
        assert np.max(np.abs(tail - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("argv", [
        ["preset", "fig4"],
        ["preset", "fig1", "--dump-modes", "{tmp}"],
    ])
    def test_pipeline_does_not_import_numpy_polynomial(self, argv, tmp_path):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code = ("import sys\n"
                "from heraldsim import cli\n"
                f"assert cli.main({argv!r}) == 0\n"
                "assert 'numpy.polynomial' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestAbsSquared:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_abs_power_two(self, dtype):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 48)) * 10.0 ** rng.uniform(-320, 150, (64, 48))
        if dtype is complex:
            a = a + 1j * rng.normal(size=a.shape) * 10.0 ** rng.uniform(-320, 150, a.shape)
        a.flat[:4] = [0.0, -0.0, 5e-324, np.finfo(float).tiny]
        got = abs_squared(a)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), (np.abs(a) ** 2).view(np.int64))


class TestLegendreTail:
    @pytest.mark.parametrize("n_s, n_i, decay, bound", [
        (8, 8, 1.0, 1e-13), (64, 48, 1.0, 1e-13), (200, 256, 1.0, 1e-13),
        # with every degree below 7n/8 at equal weight, the rounding of the
        # rule's weights alone lifts the tail to 1.4e-13 at n = 384, and to
        # 6e-13 at n = 1536 with coefficients falling as 0.97^k: a floor six
        # orders below the tolerance the pipeline checks the tail against
        (360, 384, 0.97, 1e-13), (1024, 1536, 0.97, 1e-12),
    ])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_polynomial_field_has_no_tail(self, n_s, n_i, decay, bound, dtype):
        rng = np.random.default_rng(n_s + n_i)
        x, y = _legendre_rule(n_s)[0], _legendre_rule(n_i)[0]
        # every degree below 7n/8 along both axes
        k_s, k_i = n_s - n_s // 8, n_i - n_i // 8
        c_s = rng.standard_normal(k_s).astype(dtype) * decay ** np.arange(k_s)
        if dtype is complex:
            c_s += 1j * rng.standard_normal(k_s) * decay ** np.arange(k_s)
        c_i = rng.standard_normal(k_i) * decay ** np.arange(k_i)
        field = np.outer(_normalized_legendre(c_s, x), _normalized_legendre(c_i, y))
        field += np.outer(_normalized_legendre(c_s[:3], x), _normalized_legendre(c_i, -y))
        assert legendre_tail(field) <= bound

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_top_degree_part_reads_its_relative_weight(self, eps, axis):
        n_s, n_i = 96, 128
        x, y = _legendre_rule(n_s)[0], _legendre_rule(n_i)[0]
        w_s, w_i = _legendre_rule(n_s)[1], _legendre_rule(n_i)[1]
        p = np.outer(np.exp(-x**2), 1.0 / (2.0 + y))
        top = np.zeros(n_s if axis == 0 else n_i)
        top[-1] = 1.0
        if axis == 0:
            part = np.outer(_normalized_legendre(top, x), np.cos(y))
        else:
            part = np.outer(np.cos(x), _normalized_legendre(top, y))
        def weight(f):
            return np.sqrt(w_s @ np.abs(f) ** 2 @ w_i)

        part *= eps * weight(p) / weight(part)
        # p is analytic around [-1, 1] and resolved, so the tail is the added
        # part's share
        assert legendre_tail(p) <= 1e-14
        assert legendre_tail(p + part) == pytest.approx(eps / np.hypot(1.0, eps), rel=1e-4)

    def test_independent_of_scale_and_zero_for_zero_field(self):
        x, y = _legendre_rule(32)[0], _legendre_rule(40)[0]
        field = np.outer(np.exp(-4 * x**2), np.exp(-4 * y**2))
        for scale in (1e-100, 1e100):
            assert legendre_tail(scale * field) == pytest.approx(legendre_tail(field),
                                                                 rel=1e-10)
        assert legendre_tail(np.zeros((32, 40))) == 0.0

    def test_rejects_axes_below_8_nodes(self):
        with pytest.raises(ValueError):
            legendre_tail(np.ones((7, 16)))


class TestHermitianEigen:
    def test_identity(self):
        values, _ = hermitian_eigen(np.eye(3))
        assert values == pytest.approx([1, 1, 1])

    def test_diagonal_sorted_descending(self):
        values, _ = hermitian_eigen(np.diag([2.0, -1.0, 0.0]))
        assert values == pytest.approx([2.0, 0.0, -1.0])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = 0.5 * (m + m.conj().T)
        lam, v = hermitian_eigen(a)
        assert np.linalg.norm(a - v @ np.diag(lam) @ v.conj().T) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-10
        assert lam.sum() == pytest.approx(np.real(np.trace(a)), rel=1e-10, abs=1e-12)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.ones((2, 3)))


class TestSinc:
    def test_values(self):
        assert sinc(0.0) == 1.0
        assert abs(sinc(np.pi)) < 1e-15
        assert sinc(np.pi / 2) == pytest.approx(2 / np.pi)

    def test_vectorized(self):
        x = np.array([0.0, np.pi, 2 * np.pi])
        assert np.allclose(sinc(x), [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_normalized_numpy_sinc(self):
        k = np.arange(1, 319)
        x = np.concatenate([[0.0, 1e-300, -1e-300, 5e-324], np.pi * k, -np.pi * k,
                            np.linspace(-1e3, 1e3, 20001)])
        got = sinc(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.max(np.abs(got - np.sinc(x / np.pi))) <= 1e-15
        grid = sinc(x.reshape(-1, 1) * np.array([1.0, -0.5]))
        assert grid.shape == (x.size, 2)
        assert np.array_equal(grid[:, 0], got)

    def test_where_zeroes_masked_cells(self):
        x = np.array([[0.0, 1.0, 2.0], [0.0, -3.0, 4.0]])
        where = np.array([[True, False, True], [False, True, False]])
        got = sinc(x, where=where)
        assert np.array_equal(got[where], sinc(x)[where])
        assert np.all(got[~where] == 0.0)
        assert np.array_equal(sinc(x, where=np.array([True, False, True])),
                              sinc(x) * [1.0, 0.0, 1.0])


class TestRmsTimeWidth:
    def test_gaussian_fourier_pair(self):
        for s in (0.7, 1.0, 2.5):
            g = build_grid(-10 * s, 10 * s, 512)
            width = rms_time_width(g, np.exp(-g.nodes**2 / (2 * s * s)))
            assert width == pytest.approx(1 / (np.sqrt(2) * s), rel=0.02)

    def test_sinc_time_rectangle(self):
        mu = 4.0
        g = build_grid(-30.0, 30.0, 1024)
        width = rms_time_width(g, sinc(mu * g.nodes / 2))
        assert width == pytest.approx(mu / np.sqrt(12), rel=0.05)

    def test_halving_sigma_doubles_width(self):
        g = build_grid(-12.0, 12.0, 768)
        w1 = rms_time_width(g, np.exp(-g.nodes**2 / 2))
        w2 = rms_time_width(g, np.exp(-g.nodes**2 * 2))
        assert w2 == pytest.approx(2 * w1, rel=0.02)

    @given(theta=st.floats(0, 2 * np.pi), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_constant_phase_and_reflection(self, theta, seed):
        rng = np.random.default_rng(seed)
        g = build_grid(-8.0, 8.0, 256)
        amp = (np.exp(-((g.nodes - rng.uniform(-1, 1)) ** 2))
               * np.exp(1j * rng.uniform(-1, 1) * g.nodes))
        base = rms_time_width(g, amp)
        assert rms_time_width(g, amp * np.exp(1j * theta)) == pytest.approx(base, rel=1e-9)
        assert rms_time_width(g, amp[::-1]) == pytest.approx(base, rel=1e-9)

    def test_rejects_zero_amplitude(self):
        g = build_grid(-1.0, 1.0, 16)
        with pytest.raises(ValueError):
            rms_time_width(g, np.zeros(16))

    @pytest.mark.parametrize("shape", [(15,), (17,), (16, 1)])
    def test_rejects_samples_off_the_grid(self, shape):
        with pytest.raises(ValueError, match="must match the grid"):
            rms_time_width(build_grid(-1.0, 1.0, 16), np.ones(shape))

    def test_real_amplitude_has_no_cross_term(self):
        # <t> of a real amplitude is exactly 0, so the width is the one the
        # same samples give as a complex array
        g = build_grid(-8.0, 8.0, 256)
        amp = np.exp(-((g.nodes - 0.3) ** 2)) * (1 + 0.2 * g.nodes)
        assert rms_time_width(g, amp) == rms_time_width(g, amp.astype(complex))


def _preset_idler_grids():
    from heraldsim.scenarios import preset, run_scenario

    return {name: run_scenario(preset(name)).state.grid_i
            for name in ("fig1", "fig3", "fig5-180ps", "fig5-9ps", "fig5-wideband")}


class TestGridTables:
    """Each grid holds np.gradient's coefficients for its nodes, computed on
    first read; on unevenly spaced nodes the derivative is bitwise what numpy
    gives."""

    @pytest.fixture(scope="class")
    def idler_grids(self):
        return _preset_idler_grids()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_derivative_is_numpy_gradient(self, idler_grids, dtype):
        rng = np.random.default_rng(7)
        for name, g in idler_grids.items():
            f = rng.standard_normal(g.n) * np.exp(-(g.nodes / g.hi) ** 2)
            if dtype is complex:
                f = f * np.exp(1j * rng.uniform(0, 2 * np.pi, g.n))
            assert np.array_equal(g.derivative(f), np.gradient(f, g.nodes)), name

    @pytest.mark.parametrize("nodes", [
        build_grid(-1.0, 1.0, 2).nodes,
        np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 12)),
    ], ids=["two-nodes", "irregular"])
    def test_derivative_on_any_nodes(self, nodes):
        g = numerics.FrequencyGrid(nodes=nodes, weights=np.ones_like(nodes), lo=-1.0, hi=1.0)
        f = np.cos(3 * nodes) + 1j * nodes**3
        assert np.array_equal(g.derivative(f), np.gradient(f, nodes))
        assert np.array_equal(g.derivative(f.real), np.gradient(f.real, nodes))
