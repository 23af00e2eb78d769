import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import rgamma

from fracwave.errors import ConvergenceError, DomainError
from fracwave.mittag_leffler import (
    KERNEL_KINDS,
    kernel_weights,
    ml,
    ml_series_hp,
    ml_time_kernel,
    ml_values,
)
from fracwave import mittag_leffler
from fracwave.mittag_leffler import _BLOCK, _asymptotic_coefficients, _ml_series_mpf
from fracwave.spectral import fractional_eigenvalues

from oracles import decimal_ml_series, ml_asymptotic_mp

# values frozen from the 200-digit series oracle
ML_15_15_M2 = 0.4134096590549082
ML_15_1_M3 = -0.17556537379997825
ML_15_1_M3_STR = "-0.1755653737999782429152"
ML_15_15_MPI32 = -0.02526940034127306  # argument -pi**1.5


def test_exponential_special_cases():
    assert ml(1.0, 1.0, 0.0) == 1.0
    assert math.isclose(ml(1.0, 1.0, -1.0), math.exp(-1.0), rel_tol=1e-15)
    zs = np.linspace(-30.0, 1.0, 23)
    np.testing.assert_allclose(ml_values(1.0, 1.0, zs), np.exp(zs), rtol=1e-13)


def test_cosine_special_case():
    assert abs(ml(2.0, 1.0, -((math.pi / 2) ** 2))) < 1e-12
    ts = np.linspace(0.1, 40.0, 57)
    got = ml_values(2.0, 1.0, -(ts**2))
    ref = np.cos(ts)
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-12


def test_frozen_oracle_values():
    assert math.isclose(ml(1.5, 1.5, -2.0), ML_15_15_M2, rel_tol=1e-12)
    assert math.isclose(ml(1.5, 1.0, -3.0), ML_15_1_M3, rel_tol=1e-12)


def test_series_hp_examples():
    assert math.isclose(ml_series_hp(1.0, 2.0, 1.0, 1e-30), math.e - 1.0, rel_tol=1e-15)
    assert ml_series_hp(0.5, 1.0, 0.0, 1e-30) == 1.0
    assert math.isclose(ml_series_hp(1.5, 1.0, -3.0, 1e-30), ML_15_1_M3, rel_tol=1e-15)


def test_series_hp_against_decimal_strategy():
    # same series, different arithmetic backend and Gamma algorithm
    for alpha, beta, z in [(1.5, 1.0, -3.0), (1.2, 2.0, -1.5), (1.9, 1.9, -5.0)]:
        ref = decimal_ml_series(alpha, beta, z)
        got = _ml_series_mpf(alpha, beta, z, 1e-40, 80)
        assert abs(float(ref) - float(got)) <= 1e-18 * (1 + abs(float(ref)))
    hp = _ml_series_mpf(1.5, 1.0, -3.0, 1e-40, 80)
    import mpmath as mp

    with mp.workdps(40):
        assert mp.nstr(hp, 22) == ML_15_1_M3_STR


def test_fast_path_matches_oracle_samples():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        alpha = rng.uniform(1.02, 2.0)
        beta = rng.choice([1.0, 2.0, alpha, alpha + 1.0, alpha - 1.0])
        z = -rng.uniform(0.0, 10.0)
        ref = ml_series_hp(alpha, float(beta), float(z), 1e-30)
        got = ml(alpha, float(beta), float(z))
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-300, (alpha, beta, z)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=1.05, max_value=1.99),
    beta=st.floats(min_value=0.3, max_value=3.0),
    z=st.floats(min_value=-10.0, max_value=0.0),
)
def test_fast_path_matches_oracle_property(alpha, beta, z):
    ref = ml_series_hp(alpha, beta, z, 1e-30)
    got = ml(alpha, beta, z)
    assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


def test_decay_envelope():
    # |E_{a,b}(z)| <= C/(1+|z|) on the negative axis with an empirical C;
    # the envelope max_{|z| >= x} |E|(1+|z|) must not grow along the grid
    rng = np.random.default_rng(5)
    for _ in range(6):
        alpha = rng.uniform(1.05, 1.95)
        beta = float(rng.choice([1.0, 2.0, alpha]))
        z = -np.logspace(0.0, 6.0, 40)
        vals = np.abs(ml_values(alpha, beta, z)) * (1.0 + np.abs(z))
        c_fit = vals.max()
        assert np.isfinite(c_fit)
        running_sup = np.maximum.accumulate(vals[::-1])[::-1]
        assert (vals <= running_sup + 1e-12).all()


def test_argument_validation():
    with pytest.raises(DomainError):
        ml(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ml(-0.5, 1.0, -1.0)
    with pytest.raises(DomainError):
        ml(2.5, 1.0, -1.0)
    with pytest.raises(DomainError):
        ml(1.5, 1.0, math.inf)
    with pytest.raises(DomainError):
        ml_series_hp(1.5, 1.0, -51.0)
    with pytest.raises(DomainError):
        ml_series_hp(1.5, 1.0, -1.0, tol=0.0)


@pytest.mark.parametrize("alpha", (1.5, 2.0))
@pytest.mark.parametrize("beta", (1.0, 2.0, 1.5))
def test_ml_values_keeps_the_argument_shape(alpha, beta):
    """A 2-D argument with contour arguments (|z| > 1, both signs) gives
    the flat call's values, reshaped; a scalar gives shape (1,)."""
    z = np.array([[-5.0, -3.0, -250.0], [2.0, -0.5, 7.5]])
    flat = ml_values(alpha, beta, z.ravel())
    assert np.array_equal(ml_values(alpha, beta, z), flat.reshape(z.shape))
    assert np.array_equal(ml_values(alpha, beta, z[:, :, None]), flat.reshape(2, 3, 1))
    assert ml_values(alpha, beta, -5.0).shape == (1,)


def test_value_at_zero_is_reciprocal_gamma():
    for beta in (0.3, 1.0, 2.0, -0.5, 3.7):
        assert math.isclose(ml(1.3, beta, 0.0), float(rgamma(beta)),
                            rel_tol=1e-14, abs_tol=1e-15)


def test_alpha_two_recurrence_betas():
    # integer second parameters 4..5 ride the upward recurrence beyond |z|=1
    for beta in (4.0, 5.0):
        for z in (-1.5, -4.0, -20.0, 2.5):
            ref = ml_series_hp(2.0, beta, z, 1e-30)
            assert abs(ml(2.0, beta, z) - ref) <= 1e-11 * (1 + abs(ref))


def _assert_near_series(alpha, beta, z, tol):
    """ml_values matches `ml_series_hp` at each point of the grid z (step
    0.5) to tol times the largest |value| within 1 of it: near a zero of
    the function a plain relative error says nothing."""
    want = np.array([ml_series_hp(alpha, beta, float(x)) for x in z])
    scale = np.array([np.abs(want[max(i - 2, 0) : i + 3]).max() for i in range(z.size)])
    assert (np.abs(ml_values(alpha, beta, z) - want) <= tol * scale).all(), (alpha, beta)


@pytest.mark.parametrize("alpha", (0.8, 1.5, 1.9))
def test_beta_range_edges(alpha):
    """At the edges of `_BETA_RANGE` the values keep the accuracy that
    `ml_values` states: 1e-13 at beta = -4 and 1e-12 at beta = 6, relative
    to the largest |value| within 1 of z.  Just outside it, beta is a
    DomainError before any argument is looked at."""
    lo, hi = mittag_leffler._BETA_RANGE
    for beta, tol in ((lo, 1e-13), (hi, 1e-12)):
        _assert_near_series(alpha, beta, np.linspace(-30.0, 20.0, 101), tol)
    for beta in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 50.0):
        with pytest.raises(DomainError, match="beta"):
            ml_values(alpha, beta, np.array([-5.0, np.nan]))


@pytest.mark.parametrize("alpha, beta, z", [(1.5, 0.0, -2.0), (1.5, -1.0, -2.0),
                                            (1.5, -2.5, -2.0), (1.0, -1.0, 0.5)])
def test_series_oracle_at_gamma_poles(alpha, beta, z):
    """`ml_series_hp` sums through 1/Gamma, so a term whose alpha k + beta is
    a pole of Gamma is 0 and does not end the sum (alpha k + beta is 0 at
    k = 0, -1 at k = 0, -1 at k = 1, and -1 and 0 at k = 0, 1)."""
    _assert_near_series(alpha, beta, z + np.arange(-1.0, 1.5, 0.5), 1e-13)


@pytest.mark.parametrize("beta", (-4.0, -3.0, -2.0))
def test_series_oracle_at_negative_integer_beta(beta):
    """At a negative integer beta the first terms of the series are 0."""
    for alpha in (0.8, 1.5, 1.9):
        _assert_near_series(alpha, beta, np.linspace(-10.0, 10.0, 41), 1e-13)


# ---------------------------------------------------------------------------
# kernel family
# ---------------------------------------------------------------------------

def test_kernel_zero_eigenvalue():
    assert ml_time_kernel(1.5, 0.0, 2.0, "init_value") == 1.0
    assert math.isclose(ml_time_kernel(1.5, 0.0, 2.0, "init_velocity"), 2.0,
                        rel_tol=1e-15)
    t, a = 0.7, 1.5
    assert math.isclose(ml_time_kernel(a, 0.0, t, "impulse"),
                        t ** (a - 1.0) * rgamma(a), rel_tol=1e-14)
    assert math.isclose(ml_time_kernel(a, 0.0, t, "impulse_primitive"),
                        t**a * rgamma(a + 1.0), rel_tol=1e-14)


def test_kernel_frozen_impulse_value():
    lam = math.pi**1.5
    got = ml_time_kernel(1.5, lam, 1.0, "impulse")
    assert math.isclose(got, ML_15_15_MPI32, rel_tol=1e-12)


def test_kernel_at_time_zero():
    for kind, expected in [("init_value", 1.0), ("init_velocity", 0.0),
                           ("impulse", 0.0), ("impulse_primitive", 0.0)]:
        assert ml_time_kernel(1.5, 4.0, 0.0, kind) == expected


def test_kernel_rejects_unknown_kind():
    with pytest.raises(DomainError):
        ml_time_kernel(1.5, 1.0, 1.0, "nope")
    assert set(KERNEL_KINDS) == {"init_value", "init_velocity", "impulse",
                                 "impulse_primitive"}


def test_primitive_is_integral_of_impulse():
    # t^a E_{a,a+1}(-lam t^a) equals the integral of the impulse kernel
    for alpha, lam, t in [(1.5, 7.0, 0.8), (1.2, 30.0, 1.3), (1.9, 2.0, 2.0)]:
        val, err = quad(lambda s: ml_time_kernel(alpha, lam, s, "impulse"),
                        0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
        got = ml_time_kernel(alpha, lam, t, "impulse_primitive")
        assert abs(got - val) <= 1e-9 * (1 + abs(val))


def test_primitive_closed_route():
    # t^a E_{a,a+1}(-lam t^a) = (1 - E_{a,1}(-lam t^a)) / lam
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = rng.uniform(1.05, 2.0)
        lam = rng.uniform(0.3, 300.0)
        t = rng.uniform(0.05, 2.0)
        lhs = ml_time_kernel(alpha, lam, t, "impulse_primitive")
        rhs = (1.0 - ml(alpha, 1.0, -lam * t**alpha)) / lam
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def _central(f, t, h):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def test_derivative_identities_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        alpha = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.2, 50.0)
        t = rng.uniform(0.2, 2.0)
        h = 1e-5 * t

        # d/dt E_{a,1}(-lam t^a) = -lam t^(a-1) E_{a,a}(-lam t^a)
        lhs = _central(lambda s: ml(alpha, 1.0, -lam * s**alpha), t, h)
        rhs = -lam * t ** (alpha - 1.0) * ml(alpha, alpha, -lam * t**alpha)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))

        # d/dt [t E_{a,2}(-lam t^a)] = E_{a,1}(-lam t^a)
        lhs = _central(lambda s: s * ml(alpha, 2.0, -lam * s**alpha), t, h)
        rhs = ml(alpha, 1.0, -lam * t**alpha)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_impulse_kernel_derivative_identity():
    # d/dtau (t-tau)^(a-1) E_{a,a}(-lam (t-tau)^a)
    #   = -(t-tau)^(a-2) E_{a,a-1}(-lam (t-tau)^a)
    rng = np.random.default_rng(7)
    for _ in range(100):
        alpha = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.2, 20.0)
        t = rng.uniform(1.0, 2.0)
        tau = rng.uniform(0.1, 0.6) * t
        h = 1e-5 * t
        lhs = _central(lambda s: ml_time_kernel(alpha, lam, t - s, "impulse"), tau, h)
        u = t - tau
        rhs = -u ** (alpha - 2.0) * ml(alpha, alpha - 1.0, -lam * u**alpha)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_primitive_derivative_is_impulse():
    rng = np.random.default_rng(11)
    for _ in range(40):
        alpha = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.2, 40.0)
        t = rng.uniform(0.2, 2.0)
        h = 1e-5 * t
        lhs = _central(lambda s: ml_time_kernel(alpha, lam, s, "impulse_primitive"), t, h)
        rhs = ml_time_kernel(alpha, lam, t, "impulse")
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_kernel_weights_grid_shape_and_consistency():
    lam = np.array([0.0, 2.0, 37.0])
    tau = np.array([0.0, 0.3, 1.0])
    for kind in KERNEL_KINDS:
        w = kernel_weights(1.5, kind, lam, tau)
        assert w.shape == (3, 3)
        assert math.isclose(w[1, 2], ml_time_kernel(1.5, 2.0, 1.0, kind),
                            rel_tol=1e-14, abs_tol=1e-300)
    with pytest.raises(DomainError):
        kernel_weights(1.5, "impulse", np.array([-1.0]), tau)
    with pytest.raises(DomainError):
        kernel_weights(1.5, "impulse", lam, np.array([-0.1]))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="kernel_weights: eigenvalues lam must be finite"):
            kernel_weights(1.5, "impulse", np.array([1.0, bad]), tau)
        with pytest.raises(DomainError, match="kernel_weights: times tau must be finite"):
            kernel_weights(1.5, "impulse", lam, np.array([0.5, bad]))
    # finite lam and tau whose product lam * tau^alpha, or tau^alpha itself,
    # overflows: the error names the product, and no warning is printed
    for a, big_lam, big_tau in ((1.5, [2.0, 1e300], [0.5, 1e10]), (2.0, [1.0], [1e200]),
                                (2.0, [0.0], [1e200])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^kernel_weights: lam \* tau\^alpha overflows"):
                kernel_weights(a, "impulse", np.array(big_lam), np.array(big_tau))


def _time_grids(n_steps):
    """The left-rule times of an n-step grid on [0, 1] and the exact rule's
    n + 1 primitive times, as `spectral._time_weights` builds them."""
    left = 1.0 - np.arange(n_steps) / n_steps
    exact = 1.0 - np.arange(n_steps + 1) / n_steps
    exact[-1] = 0.0
    return left, exact


@pytest.mark.parametrize("alpha", (1.1, 1.5, 1.75, 2.0))
def test_kernel_weights_rows_equal_the_full_grid_rows(alpha):
    """kernel_weights(..., rows) is the full grid's rows bit for bit, for
    every kind on table 1's fine and coarse grids and on a 64-mode grid,
    with row sets whose own pole radii would give some contour bucket other
    parameters: below alpha = 2, ml_values on the rows alone, without the
    full grid's extents, changes bits."""
    paper = fractional_eigenvalues(0.75, 1000)
    grids = [(paper, _time_grids(1000)[0]), (paper, _time_grids(25)[1]),
             (paper, _time_grids(200)[1]), (fractional_eigenvalues(0.75, 64), _time_grids(200)[0])]
    moved = False
    for kind in KERNEL_KINDS:
        beta = mittag_leffler._KERNEL_PARAMS[kind](alpha)[0]
        for lam, tau in grids:
            full = kernel_weights(alpha, kind, lam, tau)
            for rows in (slice(40, 300), np.arange(0, lam.size, 16), np.array([3, lam.size - 1]),
                         slice(lam.size // 2, None)):
                assert np.array_equal(kernel_weights(alpha, kind, lam, tau, rows), full[rows])
            if lam.size == 64:
                alone = ml_values(alpha, beta, -np.outer(lam[40:], tau**alpha))
                moved |= not np.array_equal(alone, ml_values(alpha, beta,
                                                             -np.outer(lam, tau**alpha))[40:])
    assert moved == (alpha < 2.0)


def _negated_outer_weights(alpha, kind, lam, tau, rows):
    """`kernel_weights` evaluated on -outer(lam, tau^alpha), the negated copy
    of the product grid, with its extents and time factors."""
    beta, power = mittag_leffler._KERNEL_PARAMS[kind](alpha)
    targ = tau**alpha
    extents = (None if rows is None or mittag_leffler._elementary(alpha, beta)
               else mittag_leffler._grid_extents(alpha, lam.tobytes(), targ.tobytes()))
    evals = ml_values(alpha, beta, -np.outer(lam if rows is None else lam[rows], targ), extents)
    with np.errstate(divide="ignore", invalid="ignore"):
        return evals * np.where(tau > 0.0, tau**power, 1.0 if power == 0.0 else 0.0)


@pytest.mark.parametrize("alpha", (0.8, 1.1, 1.5, 2.0))
def test_kernel_weights_argument_grid_is_the_negated_outer_product(alpha, monkeypatch):
    """kernel_weights hands ml_values outer(-lam, tau^alpha), which has the
    bits of -outer(lam, tau^alpha), signed zeros at lam = 0 and tau = 0
    included, and its values equal those of the negated form for every
    kind, on the whole grid and on row subsets."""
    seen, real = [], mittag_leffler.ml_values
    monkeypatch.setattr(mittag_leffler, "ml_values",
                        lambda a, b, z, *rest: seen.append(z.copy()) or real(a, b, z, *rest))
    lam = np.r_[0.0, fractional_eigenvalues(0.75, 63)]
    for tau in _time_grids(50):
        want_z = -np.outer(lam, tau**alpha)
        assert np.signbit(want_z[0]).all() and (tau[-1] > 0.0 or np.signbit(want_z[:, -1]).all())
        for kind in KERNEL_KINDS:
            for rows in (None, slice(10, 40), np.array([0, 5, 33, 63])):
                got = kernel_weights(alpha, kind, lam, tau, rows)
                sub = want_z if rows is None else want_z[rows]
                assert np.array_equal(seen[-1].view(np.uint64), sub.view(np.uint64))
                assert np.array_equal(got, _negated_outer_weights(alpha, kind, lam, tau, rows))


def test_coefficient_tables_are_cached_and_read_only(monkeypatch):
    """The series, asymptotic and contour-node tables are cached, so a
    repeated parameter set gets the same table, and cannot be written;
    ml_values over every strategy's range equals the uncached tables'
    values bit for bit."""
    mu, h, n_side, _ = mittag_leffler._contour_params(1.5, 2.0, 3.0, False)
    tables = [(mittag_leffler._series_coefficients, (1.5, 1.5)),
              (mittag_leffler._asymptotic_coefficients, (1.5, 1.5, 7)),
              (mittag_leffler._node_coefficients, (1.5, 1.5, mu, h, n_side))]
    for fn, args in tables:
        first = fn(*args)
        assert fn(*args) is first
        for table in first if isinstance(first, tuple) else (first,):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
    z = np.concatenate([-np.geomspace(1e-3, 1e6, 400), np.geomspace(1e-3, 300.0, 100), [0.0]])
    params = [(a, b) for a in (0.8, 1.1, 1.5, 1.75, 1.95, 2.0) for b in (0.75, 1.0, a, a + 1.0)]
    cached = [ml_values(a, b, z) for a, b in params]
    for fn, _ in tables:
        monkeypatch.setattr(mittag_leffler, fn.__name__, fn.__wrapped__)
    for (a, b), want in zip(params, cached):
        assert np.array_equal(ml_values(a, b, z), want), (a, b)


@pytest.mark.parametrize("alpha, beta", [(0.8, 1.0), (1.1, 1.1), (1.5, 2.5), (1.75, 1.0),
                                         (2.0, 1.5)])
def test_grid_extents_equal_the_bucket_extents_of_a_full_call(alpha, beta, monkeypatch):
    """`_grid_extents` gives each contour bucket the least and largest pole
    radius that one ml_values call on the whole grid takes there."""
    taken = {}

    def record(alpha, beta, z, r, positive, r_lo, r_hi, _f=mittag_leffler._contour_values):
        key = (mittag_leffler._POSITIVE_KEY if positive else 1) + int(np.floor(np.log2(r[0])))
        assert taken.setdefault(key, (r_lo, r_hi)) == (r_lo, r_hi)
        return _f(alpha, beta, z, r, positive, r_lo, r_hi)

    lam = fractional_eigenvalues(0.75, 300)
    targ = _time_grids(1000)[0] ** alpha
    monkeypatch.setattr(mittag_leffler, "_contour_values", record)
    ml_values(alpha, beta, -np.outer(lam, targ))
    assert taken and mittag_leffler._grid_extents(alpha, lam.tobytes(), targ.tobytes()) == taken


@pytest.mark.parametrize("alpha, kind", [(1.1, "impulse_primitive"), (1.75, "impulse"),
                                         (2.0, "impulse")])
def test_kernel_weights_memory_per_argument(alpha, kind):
    """A 1000 x 1000 grid at table 1's eigenvalues and times allocates at
    most 32 bytes per argument at its peak, the 8-byte result included:
    the arguments, the result, the 2-byte routing key and the index of
    one bucket, plus chunk scratch."""
    import tracemalloc

    lam = fractional_eigenvalues(0.75, 1000)
    tau = 1.0 - 1e-3 * np.arange(1000)
    tracemalloc.start()
    try:
        w = kernel_weights(alpha, kind, lam, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(w).all()
    assert peak <= 32 * w.size, peak / w.size


def test_series_hp_convergence_error():
    # alpha tiny enough that |z| close to 1 needs more than the term cap
    with pytest.raises(ConvergenceError):
        ml_series_hp(0.001, 1.0, -0.999999, 1e-40, digits=30)


def _residue_rounding(alpha, beta, r):
    """Bound on the rounding of the double-precision pole residues at pole
    radius r: their phase r sin(pi/alpha) carries an error of a few ulps of
    r, times the residue bound (2/alpha) r^(1-beta) e^(r cos(pi/alpha))."""
    bound = (2.0 / alpha) * r ** (1.0 - beta) * np.exp(r * math.cos(math.pi / alpha))
    return 8.0 * np.finfo(float).eps * (r + 1.0) * bound


# Large negative arguments, where every kernel grid's contour buckets take
# the pole residues (table 1 reaches z ~ -1.8e5, table 2 z ~ -1e7).  From
# pole radius r = 64 on, the asymptotic series serves them and E_{a,a}, whose
# leading term vanishes (1/Gamma(0) = 0) and which is only ~1e-15 near
# z = -1e7, keeps its relative accuracy; the contour's relative error on
# E_{a,a} there reaches 1.1e-5 (a = 1.95, z = -1e7).
LARGE_Z = -np.geomspace(1e3, 1e7, 25)


@pytest.mark.parametrize("alpha, beta", [
    (1.5, 1.0), (1.5, 1.5), (1.75, 1.0), (1.75, 1.75), (1.95, 1.95),
    pytest.param(1.95, 1.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the residue's phase r*sin(pi/a) is rounded in double; at r ~ 42 "
        "this leaves up to 2.5e-15 absolute error near z = -1.5e3"))),
])
def test_large_argument_against_asymptotic_oracle(alpha, beta):
    got = ml_values(alpha, beta, LARGE_Z)
    want = np.array([ml_asymptotic_mp(alpha, beta, float(z)) for z in LARGE_Z])
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("alpha", (1.5, 1.75, 1.95))
def test_large_argument_relative_error_of_e_alpha_alpha(alpha):
    """E_{a,a} at the LARGE_Z points with r >= 64: within 4e-15 of its own
    size, plus the rounding of the residues (1e-12 relative at a = 1.95,
    where they nearly cancel the series; 2e-16 and 2e-15 at a = 1.5, 1.75)."""
    r = np.abs(LARGE_Z) ** (1.0 / alpha)
    z, r = LARGE_Z[r >= 64.0], r[r >= 64.0]
    assert z.size >= 21
    got = ml_values(alpha, alpha, z)
    want = np.array([ml_asymptotic_mp(alpha, alpha, float(x)) for x in z])
    assert (np.abs(got - want) <= 4e-15 * np.abs(want) + _residue_rounding(alpha, alpha, r)).all()


def _ml_reference(alpha, beta, z, r):
    """The defining series at 60 + 0.44 r digits for r <= 128, enough for
    its cancellation of about e^r; the asymptotic oracle beyond."""
    if r <= 128.0:
        return float(_ml_series_mpf(alpha, beta, z, 1e-40, 60 + math.ceil(0.44 * r)))
    return ml_asymptotic_mp(alpha, beta, z)


# The kernels' second parameters at each alpha, and two beyond 1 + 2 alpha,
# where the first coefficients are not bounded by the envelope.
ASYMPTOTIC_ORDERS = [(a, b) for a in (1.1, 1.25, 1.5, 1.75, 1.95)
                     for b in (1.0, 2.0, a, a + 1.0)] + [(1.1, 4.0), (1.25, 5.5)]


@pytest.mark.parametrize("alpha, beta", ASYMPTOTIC_ORDERS)
def test_asymptotic_series_against_mpmath(alpha, beta):
    r = np.concatenate([np.geomspace(64.0, 127.0, 5), np.geomspace(130.0, 2e4, 5)])
    z = -(r**alpha)
    r = np.abs(z) ** (1.0 / alpha)
    got = ml_values(alpha, beta, z)
    want = np.array([_ml_reference(alpha, beta, float(x), float(y)) for x, y in zip(z, r)])
    assert (np.abs(got - want) <= 4e-15 * np.abs(want) + _residue_rounding(alpha, beta, r)).all()


@pytest.mark.parametrize("alpha, k", [(1.1, 11), (1.5, 3)])
def test_asymptotic_terms_go_past_a_vanishing_coefficient(alpha, k):
    """At beta = alpha, beta - alpha k is a non-positive integer at k = 11
    (alpha = 1.1, up to rounding) and k = 3 (alpha = 1.5), so 1/Gamma
    vanishes or nearly does there.  The term count of the r = 64 bucket
    comes from the envelope and goes well past k; stopping at k would miss
    by 1e-11 relative at alpha = 1.1."""
    r = np.geomspace(64.0, 70.0, 7)
    z = -(r**alpha)
    r = np.abs(z) ** (1.0 / alpha)
    want = np.array([_ml_reference(alpha, alpha, float(x), float(y)) for x, y in zip(z, r)])
    got = ml_values(alpha, alpha, z)
    assert (np.abs(got - want) <= 4e-15 * np.abs(want)).all()
    coef = _asymptotic_coefficients(alpha, alpha, 6)
    assert coef.size > k + 3
    assert abs(coef[k - 1]) < 1e-12 * abs(coef[k - 2])


def _envelope(alpha, beta, k, bucket):
    """ln of the bound Gamma(1 + alpha k - beta)/pi on term k of the
    asymptotic series at the lower edge of a bucket, or inf before the bound
    holds (1 + alpha k - beta <= 0)."""
    x = 1.0 + alpha * k - beta
    if x <= 0.0:
        return math.inf
    return math.lgamma(x) - math.log(math.pi) - alpha * k * bucket * math.log(2.0)


def _target_term_count(alpha, beta, bucket):
    """The least n whose first omitted term's envelope is below
    2^-53 |z|^-2 at the bucket's upper edge, or None if no n below 10^4 is."""
    ln_target = -53.0 * math.log(2.0) - 2.0 * alpha * (bucket + 1) * math.log(2.0)
    counts = (n for n in range(1, 10_000) if _envelope(alpha, beta, n + 1, bucket) <= ln_target)
    return next(counts, None)


def test_asymptotic_term_count_of_kernel_buckets():
    """Every bucket of the kernels' betas ends where the envelope first falls
    below the target; the stop at the smallest term never applies to them."""
    for alpha in np.round(np.arange(1.01, 2.0, 0.01), 2):
        for beta in (1.0, 2.0, alpha, alpha + 1.0):
            for bucket in range(6, 40):
                want = _target_term_count(alpha, beta, bucket)
                assert want is not None
                assert _asymptotic_coefficients(alpha, beta, bucket).size == want


@pytest.mark.parametrize("alpha, beta", [(1.9, -2.0), (1.5, -4.0), (1.99, -3.0), (1.01, -4.0),
                                         (1.5, -3.5), (1.7, -2.5)])
def test_asymptotic_series_ends_at_its_smallest_term(alpha, beta):
    """For these (alpha, beta) the envelope of the r = 64 bucket bottoms out
    above the target, so no term count reaches it.  The sum ends at its
    smallest term instead, and the values over the bucket agree with the
    asymptotic oracle to 1e-10 of the largest |value| (about 1e-13 at
    these points)."""
    ks = range(1, 200)
    envelopes = [_envelope(alpha, beta, k, 6) for k in ks]
    assert _target_term_count(alpha, beta, 6) is None
    assert _asymptotic_coefficients(alpha, beta, 6).size == ks[int(np.argmin(envelopes))]
    z = -(np.geomspace(64.001, 127.99, 8) ** alpha)
    if (alpha, beta) == (1.9, -2.0):
        z = np.append(z, -3825.66)
    got = ml_values(alpha, beta, z)
    want = np.array([ml_asymptotic_mp(alpha, beta, float(x)) for x in z])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("alpha", (0.3, 0.5, 1.0, 1.5, 1.9, 2.0))
def test_finite_arguments_never_give_nan(alpha):
    """No finite z gives NaN, on a log grid of |z| from 1 to 1e308 of either
    sign and betas across [-4, 6].

    For z > 0, E is +inf where its leading term (1/alpha) r^(1-beta) e^r,
    r = z^(1/alpha), is above the largest double, and finite where it is
    below.  For z <= -1e20, E is within 1e-12 of the inverse-power series,
    plus at alpha = 2 the modulus r^(1-beta) of the residues.
    """
    mag = np.geomspace(1.0, 1e308, 309)
    ln_r = np.log(mag) / alpha
    with np.errstate(over="ignore"):  # this test's own r alone: ml_values must not warn
        r = np.exp(ln_r)
    for beta in np.linspace(-4.0, 6.0, 21):
        pos, neg = ml_values(alpha, beta, mag), ml_values(alpha, beta, -mag)
        assert not np.isnan(pos).any() and not np.isnan(neg).any(), beta
        ln_lead = r + (1.0 - beta) * ln_r - math.log(alpha)
        assert (pos[ln_lead > 710.0] == np.inf).all(), beta
        assert np.isfinite(pos[ln_lead < 700.0]).all(), beta
        far = mag >= 1e20
        series = -sum((-mag[far]) ** -k * rgamma(beta - alpha * k) for k in (1, 2, 3))
        with np.errstate(over="ignore"):
            modulus = r[far] ** (1.0 - beta) if alpha == 2.0 else 0.0
        assert (np.abs(neg[far] - series) <= 1e-12 + modulus).all(), beta


@pytest.mark.parametrize("alpha, beta", [(1.1, 1.1), (1.5, 1.0), (1.75, 2.75), (1.95, 1.95)])
def test_asymptotic_value_independent_of_other_arguments(alpha, beta):
    """A value at r >= 64 has the same bits alone as inside a large array of
    both signs whose buckets it shares with thousands of other arguments."""
    rng = np.random.default_rng(3)
    probe = -np.geomspace(64.0, 1e5, 23) ** alpha
    others = np.concatenate([-rng.uniform(1.01, 1e5, 3 * _BLOCK) ** alpha,
                             rng.uniform(-1.0, 1.0, 500), rng.uniform(1.01, 300.0, 500) ** alpha])
    z = np.concatenate([probe, others])
    perm = rng.permutation(z.size)
    mixed = ml_values(alpha, beta, z[perm])
    at = np.argsort(perm)[: probe.size]  # where each probe landed
    alone = np.array([ml_values(alpha, beta, x)[0] for x in probe])
    assert np.array_equal(mixed[at], alone)


def test_asymptotic_series_from_pole_radius_64(monkeypatch):
    """Negative z with r = |z|^(1/alpha) >= 64 and 1 < alpha < 2 go to the
    asymptotic series; r just below 64, positive z and other alpha to the
    contour."""
    seen = {"contour": [], "asymptotic": []}
    for name, key in (("_contour_values", "contour"), ("_asymptotic_values", "asymptotic")):
        def record(alpha, beta, z, *rest, _f=getattr(mittag_leffler, name), _k=key):
            seen[_k].append((alpha, z.copy()))
            return _f(alpha, beta, z, *rest)
        monkeypatch.setattr(mittag_leffler, name, record)
    below = 64.0 * (1.0 - np.geomspace(1e-11, 1e-2, 8))
    above = 64.0 * (1.0 + np.geomspace(1e-15, 1.0, 8))
    for alpha in (1.1, 1.5, 1.95):
        for r_want, route in ((below, "contour"), (above, "asymptotic")):
            z = -(r_want**alpha)
            r = np.abs(z) ** (1.0 / alpha)
            assert ((r < 64.0) if route == "contour" else (r >= 64.0)).all()
            seen["contour"].clear()
            seen["asymptotic"].clear()
            ml_values(alpha, 1.0, z)
            assert {a for a, _ in seen[route]} == {alpha}
            assert np.array_equal(np.sort(np.concatenate([x for _, x in seen[route]])), np.sort(z))
            assert not seen["asymptotic" if route == "contour" else "contour"]
    for alpha, beta, z in ((1.5, 1.0, above**1.5), (0.9, 1.0, -(above**0.9)),
                           (2.0, 1.5, -(above**2.0))):
        seen["asymptotic"].clear()
        ml_values(alpha, beta, z)
        assert not seen["asymptotic"]
