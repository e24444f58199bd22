"""2x2 realizations: embedding homomorphism, class membership, operator
assembly and the contraction / averagedness checks."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dysrates import (Averaged, Cocoercive, Disk, DysParams,
                      InvalidClassError, Lipschitz, Monotone, OperatorClassSpec,
                      ShiftedLipschitzBall, SingularResolventError,
                      StronglyMonotone, averagedness_thm41, boundary_pieces,
                      class_membership, cocoercive,
                      contraction_thm33, dys_matrix, lipschitz, monotone,
                      operator_from_resolvent_point, realize,
                      spectral_norm_2x2, strongly_monotone,
                      verify_averagedness, verify_contraction, zeta)
import dysrates.verify as verify_module
from dysrates.classes import resolvent_srg, srg
from dysrates.geometry import boundary_grid
from dysrates.search import search
from dysrates.verify import _entries, _parts, _random_boundary_points
from oracles import (assert_matches, dys_matrix_stacked, membership_margins,
                     operator_stacked, realize_stacked, rotation_value)

P11 = DysParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_realize_one_is_identity():
    assert np.array_equal(realize(1.0 + 0j), np.eye(2))


def test_realize_i_is_quarter_rotation():
    m = realize(1j)
    assert np.array_equal(m, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert spectral_norm_2x2(m) == pytest.approx(1.0)


def test_realize_norm_and_angle():
    z = 0.3 + 0.4j
    m = realize(z)
    assert spectral_norm_2x2(m) == pytest.approx(0.5)
    x = np.array([1.0, 0.0])
    y = m @ x
    assert math.atan2(y[1], y[0]) == pytest.approx(math.atan2(0.4, 0.3))


def test_embedding_is_ring_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(500):
        z, w = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(2))
        assert np.allclose(realize(z * w), realize(z) @ realize(w),
                           atol=1e-15, rtol=0)
        assert np.allclose(realize(z + w), realize(z) + realize(w),
                           atol=1e-15, rtol=0)


def test_norm_identity_exact():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert spectral_norm_2x2(realize(z)) == pytest.approx(abs(z),
                                                              rel=1e-14)


# ---------------------------------------------------------------------------
# resolvent realization
# ---------------------------------------------------------------------------

def test_operator_from_resolvent_half_is_identity():
    a = operator_from_resolvent_point(0.5 + 0j, 1.0)
    assert np.allclose(a, np.eye(2), atol=1e-14)


def test_operator_from_resolvent_one_is_zero():
    a = operator_from_resolvent_point(1.0 + 0j, 1.0)
    assert np.allclose(a, np.zeros((2, 2)), atol=1e-14)


def test_operator_resolvent_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = complex(rng.uniform(0.05, 1.2), rng.uniform(-0.5, 0.5))
        alpha = rng.uniform(0.2, 2.0)
        a = operator_from_resolvent_point(z, alpha)
        # resolvent of the realized operator: (I + alpha A)^{-1}
        j = np.linalg.inv(np.eye(2) + alpha * a)
        assert abs(rotation_value(j) - z) < 1e-14


def test_singular_resolvent_rejected():
    with pytest.raises(SingularResolventError):
        operator_from_resolvent_point(0j, 1.0)


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------

def test_membership_strongly_monotone_from_real_part():
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = rng.uniform(0.05, 1.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert class_membership(realize(z), strongly_monotone(mu), 0.0) == \
            (z.real >= mu)


def test_membership_lipschitz_from_modulus():
    rng = np.random.default_rng(4)
    for _ in range(200):
        L = rng.uniform(0.1, 2.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert class_membership(realize(z), lipschitz(L), 1e-12) == \
            (abs(z) <= L + 1e-12)


def test_membership_cocoercive_iff_disk_point():
    # Re z >= beta |z|^2 is exactly membership in Disk(1/(2 beta), 1/(2 beta))
    rng = np.random.default_rng(5)
    for _ in range(500):
        beta = rng.uniform(0.2, 2.0)
        z = complex(rng.uniform(-1, 2), rng.uniform(-1.5, 1.5))
        in_disk = abs(z - 1 / (2 * beta)) <= 1 / (2 * beta) + 1e-12
        assert class_membership(realize(z), cocoercive(beta),
                                1e-9) == in_disk


def _outside(region, d, where):
    """The point at distance d outside a region atom's boundary (inside
    when d < 0), at the angle or the height where."""
    if isinstance(region, Disk):
        return region.center + (region.radius + d) * cmath.exp(1j * where)
    return complex(region.threshold - d, where)


def _split_map(w, v):
    """The 2x2 matrix of x -> w x + v conj(x) on R^2 = C, whose SRG is the
    circle about w of radius |v| with its mirror."""
    return np.array([[w.real + v.real, v.imag - w.imag],
                     [w.imag + v.imag, w.real - v.real]])


# one atom of each kind; a point 0.1 outside its region passes only at a
# tolerance above 0.1, whichever atom it is
TOL_ATOMS = [Monotone(), StronglyMonotone(0.5), Cocoercive(0.25),
             Lipschitz(1.5), Averaged(0.3), ShiftedLipschitzBall(-1.0, 0.7)]


@pytest.mark.parametrize("atom", TOL_ATOMS, ids=lambda a: a.kind)
@pytest.mark.parametrize("angle", [0.0, 1.0, 2.5])
def test_membership_tolerance_is_a_distance_in_the_plane(atom, angle):
    # a scaled rotation (v = 0), whose SRG is one point, and a general map
    # whose SRG circle of radius |v| = 0.2 sits 0.1 outside at its farthest
    # point: its centre w lies 0.1 - |v| outside the boundary
    spec = OperatorClassSpec((atom,))
    for v in (0j, 0.2 * cmath.exp(0.7j)):
        m = _split_map(_outside(atom.region(), 0.1 - abs(v), angle), v)
        assert class_membership(m, spec, 0.101)
        assert not class_membership(m, spec, 0.099)


def test_resolvent_points_realize_class_members():
    cases = [
        (monotone(), 1.0),
        (strongly_monotone(0.7), 1.3),
        (cocoercive(0.8), 0.9),
        (monotone().intersect(lipschitz(0.5)), 1.0),
    ]
    rng = np.random.default_rng(6)
    for spec, alpha in cases:
        region = resolvent_srg(spec, alpha)
        pts = _random_boundary_points(boundary_pieces(region), 1000, rng)
        for z in pts:
            a = operator_from_resolvent_point(complex(z), alpha)
            assert class_membership(a, spec, 1e-9)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_dys_matrix_quarter_identity():
    t = dys_matrix(realize(0.5 + 0j), realize(0.5 + 0j), realize(1.0 + 0j),
                   1.0, 1.0)
    assert np.allclose(t, 0.25 * np.eye(2), atol=1e-15)
    assert spectral_norm_2x2(t) == pytest.approx(0.25)


def test_dys_matrix_lambda_zero_is_identity():
    t = dys_matrix(realize(0.3 + 0.1j), realize(0.4 - 0.2j),
                   realize(0.5 + 0j), 1.0, 0.0)
    assert np.allclose(t, np.eye(2), atol=1e-15)


def test_dys_matrix_norm_equals_symbol_modulus():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        za, zb, zc = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(3))
        alpha, lam = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        t = dys_matrix(realize(za), realize(zb), realize(zc), alpha, lam)
        expect = abs(zeta(za, zb, zc, DysParams(alpha, lam)))
        assert abs(spectral_norm_2x2(t) - expect) <= 1e-12 * max(1.0, expect)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------

def test_verify_thm31_instance_clean():
    a = strongly_monotone(1.0).intersect(lipschitz(1.0))
    report = verify_contraction(a, monotone(), cocoercive(1.0), P11,
                                2.0 / 3.0, n_trials=1000, rng_seed=0)
    assert report.passed
    assert report.max_norm_seen <= 2.0 / 3.0 + 1e-9


def test_verify_negative_control_finds_counterexample():
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    best = search(a, b, c, P11, 1.0 / 40.0).best_value
    report = verify_contraction(a, b, c, P11, best - 0.01, n_trials=200,
                                rng_seed=0)
    assert not report.passed
    assert any(v["kind"] == "norm_bound" for v in report.violations)


@pytest.mark.parametrize("shift", [0.0, 0.5, 0.9, -0.5])
def test_verify_probe_ignores_the_shift(shift):
    # the check is ||T|| <= rho, so the probe must aim at max |zeta| whatever
    # s the params carry; one random trial almost never finds that maximum
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    best = search(a, b, c, P11, 1.0 / 40.0).best_value
    params = DysParams(1.0, 1.0, shift)
    for seed in range(5):
        report = verify_contraction(a, b, c, params, best - 0.005,
                                    n_trials=1, rng_seed=seed)
        assert not report.passed


def test_verify_tiny_norm_at_its_own_rho_passes(monkeypatch):
    # zeta = 1 - 1.46625 * (2/3) = 0.0225 on one-point regions; iterating
    # this T from a unit vector drives x.x subnormal near step 95, where a
    # growth test against ||T||^k reported false violations
    point = strongly_monotone(0.5).intersect(lipschitz(0.5))
    params = DysParams(1.0, 1.46625)
    rho = verify_contraction(point, point, point, params, 1.0,
                             n_trials=20).max_norm_seen
    assert rho == pytest.approx(0.0225, rel=1e-9)
    monkeypatch.setattr(verify_module, "BOUND_TOL", 0.0)
    report = verify_contraction(point, point, point, params, rho,
                                n_trials=20)
    assert report.passed and report.violations == []


def test_verify_zero_trials_checks_the_probe():
    # max |zeta| is 1, at z_A = z_B = 0: the probe alone refutes 0.9 and
    # passes 1
    classes = monotone(), monotone(), cocoercive(1.0)
    report = verify_contraction(*classes, P11, 0.9, n_trials=0)
    assert report.trials == 0 and report.warnings
    assert [v["kind"] for v in report.violations] == ["norm_bound"]
    assert report.max_norm_seen == pytest.approx(1.0, abs=1e-12)
    assert verify_contraction(*classes, P11, 1.0, n_trials=0).passed
    with pytest.raises(ValueError, match="n_trials"):
        verify_contraction(*classes, P11, 1.0, n_trials=-1)


def test_verify_averagedness_norm_bound():
    a = strongly_monotone(1.0)
    c = monotone().intersect(lipschitz(1.0))
    report = verify_averagedness(a, monotone(), c, P11, 2.0 / 3.0,
                                 n_trials=1000, rng_seed=0)
    assert report.passed
    assert report.max_norm_seen <= 2.0 / 3.0 + 1e-9


def test_verify_averagedness_probe_refutes_undersized_theta():
    # Theorem 4.1 is tight here: max |zeta - 1/3| = 2/3 is attained at one
    # boundary triple, which 1000 random trials come within 1e-3 of only
    # by luck; the probe aims at it
    a = strongly_monotone(1.0)
    c = monotone().intersect(lipschitz(1.0))
    theta = 2.0 / 3.0 - 1e-3
    report = verify_averagedness(a, monotone(), c, P11, theta,
                                 n_trials=1000, rng_seed=0)
    assert not report.passed
    assert [v["kind"] for v in report.violations] == ["norm_bound"]
    assert report.violations[0]["norm"] > theta + 1e-9


@settings(deadline=None, max_examples=30)
@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.01, 0.99),
       st.booleans(), st.integers(0, 2 ** 16))
def test_verify_averagedness_passes_at_thm41_theta(mu, l_c, frac, on_a,
                                                   seed):
    # the probe lies on the boundaries, where Theorem 4.1 bounds
    # |zeta - (1 - theta)| by theta: it must never report a false failure
    alpha = frac * min(2.0, 2.0 * mu / l_c ** 2)
    sm = strongly_monotone(mu)
    a, b = (sm, monotone()) if on_a else (monotone(), sm)
    c = monotone().intersect(lipschitz(l_c))
    theta = averagedness_thm41(alpha, mu, l_c).theta
    report = verify_averagedness(a, b, c, DysParams(alpha, 1.0), theta,
                                 n_trials=100, rng_seed=seed)
    assert report.passed, report.violations
    assert report.max_norm_seen <= theta + 1e-9


def test_verify_reports_trials_off_the_classes(monkeypatch):
    # doubling a boundary point of J_A's region {|z - 1/2| <= 1/2} gives
    # Re A = -1/(2 alpha): no trial realizes a monotone A, so each one is a
    # class_membership violation and only the probe counts in max_norm_seen
    drawn = []

    def doubled(region, n, rng):
        drawn.append(2.0 * _random_boundary_points(region, n, rng))
        return drawn[-1]

    monkeypatch.setattr(verify_module, "_random_boundary_points", doubled)
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    report = verify_contraction(a, b, c, P11, 10.0, n_trials=50)
    assert not report.passed
    assert len(report.violations) == 50
    assert {v["kind"] for v in report.violations} == {"class_membership"}
    peak = (5.0 + math.sqrt(5.0)) / 10.0
    assert report.max_norm_seen == pytest.approx(peak, rel=1e-12)
    assert np.max(np.abs(zeta(*drawn, P11))) > peak


def test_verify_thm33_instance_clean():
    a = monotone().intersect(lipschitz(1.0))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    rho = contraction_thm33(1.0, 1.0, 1.0, 1.0, 0.5, role="A_lip").rho
    report = verify_contraction(a, monotone(), c, P11, rho, n_trials=1000,
                                rng_seed=0)
    assert report.passed
    assert report.max_norm_seen <= rho + 1e-9


# ---------------------------------------------------------------------------
# batched kernels against independent oracles
# ---------------------------------------------------------------------------

# |z| >= 1e-100 keeps the squares in the closed-form norms clear of underflow
COMPLEX = st.complex_numbers(min_magnitude=1e-100, max_magnitude=10.0)
STACK = st.lists(COMPLEX, min_size=1, max_size=16).map(
    lambda zs: np.array(zs, dtype=complex))
POSITIVE = st.floats(0.05, 5.0)
ATOM = st.one_of(
    st.just(Monotone()), st.builds(StronglyMonotone, POSITIVE),
    st.builds(Lipschitz, POSITIVE), st.builds(Cocoercive, POSITIVE),
    st.builds(Averaged, st.floats(0.05, 0.95)),
    st.builds(ShiftedLipschitzBall, st.floats(-3.0, 3.0), POSITIVE))


@settings(deadline=None)
@given(STACK)
def test_realized_stack_norm_is_modulus(zs):
    norms = spectral_norm_2x2(realize(zs))
    assert norms.shape == zs.shape
    for z, norm in zip(zs, norms):
        assert norm == pytest.approx(abs(complex(z)), rel=1e-14)


ENTRY = st.floats(-10.0, 10.0)


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 16), st.just(2),
                                    st.just(2)), elements=ENTRY))
def test_stack_norm_is_largest_singular_value(ms):
    for m, norm in zip(ms, spectral_norm_2x2(ms)):
        assert norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-12,
                                     abs=1e-150)


WIDE_ENTRY = st.one_of(st.just(0.0), st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0) | st.floats(-10.0, -1.0), st.integers(-300, 300)))


def _min_sym_eig(e):
    """Re w - |v|: the leftmost point of the SRG circle, the smallest
    eigenvalue of the symmetric part."""
    w, v = _parts(e)
    return w.real - np.abs(v)


@settings(deadline=None)
@given(st.lists(st.lists(WIDE_ENTRY, min_size=4, max_size=4), min_size=1,
                max_size=16))
def test_stack_norm_exact_across_exponent_range(entries):
    # entries from 1e-300 to 1e301: a closed form that squares squared
    # entries would underflow to 0 or overflow to inf here
    ms = np.array(entries).reshape(-1, 2, 2)
    for m, norm, eig in zip(ms, spectral_norm_2x2(ms),
                            _min_sym_eig(_entries(ms))):
        assert norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-12, abs=0)
        # Re w - |v| may cancel, so its error is relative to the entries
        expect = np.linalg.eigvalsh(0.5 * (m + m.T))[0]
        assert abs(eig - expect) <= 1e-12 * np.abs(m).max()


@settings(deadline=None)
@given(STACK)
def test_realized_stack_symmetric_part_min_eigenvalue_is_real_part(zs):
    for z, eig in zip(zs, _min_sym_eig(_entries(realize(zs)))):
        assert eig == pytest.approx(z.real, rel=1e-14)


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 16), st.just(2),
                                    st.just(2)), elements=ENTRY))
def test_stack_symmetric_part_min_eigenvalue(ms):
    # general matrices, whose symmetric part has off-diagonal entries
    for m, eig in zip(ms, _min_sym_eig(_entries(ms))):
        expect = np.linalg.eigvalsh(0.5 * (m + m.T))[0]
        assert abs(eig - expect) <= 1e-12 * max(1.0, np.abs(m).max())


@settings(deadline=None)
@given(arrays(np.float64, (2, 2), elements=ENTRY),
       st.tuples(ENTRY, ENTRY).filter(any))
def test_split_gives_the_srg_circle(m, x):
    # the SRG of m holds the ratio (m x)/x, as complex numbers, for every
    # x != 0 (Ryu, Hannah and Yin 2022); for a 2x2 map these ratios fill
    # the circle |z - w| = |v|.  x is scaled by a power of two, which is
    # exact, to a largest entry in [0.5, 1), so the ratio does not
    # overflow when x is subnormal
    x = np.ldexp(np.array(x), -math.frexp(np.abs(x).max())[1])
    mx = m @ x
    ratio = complex(*mx) / complex(*x)
    w, v = _parts(_entries(m))
    assert abs(abs(ratio - w) - abs(v)) <= 1e-12 * max(1.0, np.abs(m).max())


@settings(deadline=None)
@given(st.lists(st.tuples(COMPLEX, COMPLEX, COMPLEX), min_size=1,
                max_size=16),
       st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_dys_matrix_stack_norm_is_symbol_modulus(triples, alpha, lam):
    za, zb, zc = (np.array(z, dtype=complex) for z in zip(*triples))
    norms = spectral_norm_2x2(dys_matrix(realize(za), realize(zb),
                                         realize(zc), alpha, lam))
    for (a, b, c), norm in zip(triples, norms):
        expect = abs(1 - lam * a - lam * b + lam * (2 - alpha * c) * a * b)
        # zeta may cancel, so the error is relative to the terms summed
        scale = 1 + lam * abs(b) + lam * abs(a) * (
            1 + 2 * abs(b) + alpha * abs(c) * abs(b))
        assert abs(norm - expect) <= 1e-14 * scale


@settings(deadline=None)
@given(st.tuples(COMPLEX, COMPLEX, COMPLEX), st.floats(0.01, 2.0),
       st.floats(0.01, 2.0),
       st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
@example(((1 + 0j), (1 + 0j), (1 + 0j)), 1.0, 0.5, (0.0, 4.849e-160))
@example(((1 + 0j), (1 + 0j), (1 + 0j)), 2.0, 2.0, (5e-324, 5e-324))
def test_dys_matrix_scales_every_vector_by_its_norm(triple, alpha, lam, x):
    # T is a scaled rotation, so ||T^k x|| = ||T||^k ||x||: iterating T
    # shows nothing that the norm bound does not.  math.hypot keeps its
    # precision where the squares of tiny entries are subnormal, but not
    # where x itself is: hypot(5e-324, 5e-324) rounds to 5e-324.  T is
    # linear, so a small x is first scaled up by a power of two, which is
    # exact, to a largest entry of at least 0.5.
    a, b, c = triple
    t = dys_matrix(realize(a), realize(b), realize(c), alpha, lam)
    x = np.array(x)
    if x.any():
        x = np.ldexp(x, max(0, -math.frexp(np.abs(x).max())[1]))
    scale = 1 + lam * abs(b) + lam * abs(a) * (
        1 + 2 * abs(b) + alpha * abs(c) * abs(b))
    norm_x = math.hypot(*x)
    assert abs(math.hypot(*(t @ x)) - spectral_norm_2x2(t) * norm_x) <= \
        1e-12 * scale * norm_x


@settings(deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 2, 2), elements=st.floats(-10.0, 10.0)),
    arrays(np.float64, n, elements=st.floats(0.0, 1e-3)))),
    st.lists(ATOM, min_size=1, max_size=3))
def test_batched_membership_matches_scalar(stack_and_tols, atoms):
    ms, tols = stack_and_tols
    try:
        spec = OperatorClassSpec(tuple(atoms))
    except InvalidClassError:
        assume(False)
    mask = class_membership(ms, spec, tols)
    assert mask.shape == tols.shape
    scalar = [class_membership(m, spec, float(t)) for m, t in zip(ms, tols)]
    assert all(type(ok) is bool for ok in scalar)
    assert list(mask) == scalar


def test_membership_refuses_a_negative_tolerance():
    ms = realize(np.array([1.0, 2.0j]))
    for tol in (-1e-3, np.array([0.0, -1e-3])):
        with pytest.raises(ValueError, match="nonnegative"):
            class_membership(ms, monotone(), tol)


def test_membership_refuses_a_nan_tolerance():
    # NaN fails every comparison: a guard that refused only tol < 0 would
    # let it through, and a member would read as outside its class
    ms = realize(np.array([1.0, 2.0j]))
    for tol in (float("nan"), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="nonnegative"):
            class_membership(ms, monotone(), tol)


# ---------------------------------------------------------------------------
# the entry-array algebra against (n, 2, 2) stacks and @
# ---------------------------------------------------------------------------

def _stack(n):
    return arrays(np.float64, (n, 2, 2), elements=st.floats(-10.0, 10.0))


@settings(deadline=None)
@given(STACK, st.floats(0.01, 2.0))
def test_realize_and_operator_are_the_stacked_forms_bit_for_bit(zs, alpha):
    assert realize(zs).tobytes() == realize_stacked(zs).tobytes()
    assert realize(zs[0]).tobytes() == realize_stacked(zs[0]).tobytes()
    assert (operator_from_resolvent_point(zs, alpha).tobytes()
            == operator_stacked(zs, alpha).tobytes())


@settings(deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(*[_stack(n)] * 3)),
       st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_dys_matrix_matches_the_stacked_oracle(stacks, alpha, lam):
    # general matrices, not only scaled rotations; the two differ only in
    # how they round, so within a few ulps of the terms they sum
    j_a, j_b, c = stacks
    got = dys_matrix(j_a, j_b, c, alpha, lam)
    assert got.shape == j_a.shape
    abs_b = np.abs(j_b)
    terms = np.eye(2) + lam * abs_b + lam * np.abs(j_a) @ (
        2.0 * abs_b + np.eye(2) + alpha * np.abs(c) @ abs_b)
    error = np.abs(got - dys_matrix_stacked(j_a, j_b, c, alpha, lam))
    assert (error <= 8.0 * np.finfo(float).eps * terms).all()


@settings(deadline=None)
@given(st.integers(1, 16).flatmap(_stack), ATOM)
def test_membership_matches_the_stacked_oracle(ms, atom):
    # away from the tolerance edge, where the two may round either way
    try:
        spec = OperatorClassSpec((atom,))
    except InvalidClassError:
        assume(False)
    margins = membership_margins(ms, atom)
    mask = class_membership(ms, spec, 1e-9)
    clear = np.abs(margins + 1e-9) > 1e-9 * (1.0 + np.abs(ms).max() ** 2)
    assert (mask[clear] == (margins[clear] >= -1e-9)).all()


@settings(deadline=None)
@given(ATOM, st.lists(st.tuples(st.sampled_from([1, -1]),
                                st.floats(-math.pi, math.pi)),
                      min_size=1, max_size=16))
def test_membership_follows_each_atom_boundary(atom, points):
    # the points sit 1e-6 * scale on either side of the boundary that
    # region() states, and the oracle's margins come from the atom's own
    # parameters, so a region that moves its boundary further fails here
    region = atom.region()
    scale = (abs(region.center) + region.radius if isinstance(region, Disk)
             else 1.0 + abs(region.threshold))
    ms = realize(np.array([_outside(region, side * 1e-6 * scale, where)
                           for side, where in points]))
    margins = membership_margins(ms, atom)
    mask = class_membership(ms, OperatorClassSpec((atom,)), 1e-9)
    clear = np.abs(margins) > 1e-8 * scale ** 2
    assert (mask[clear] == (margins[clear] > 0)).all()


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

def _negative_control():
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    best = search(a, b, c, P11, 1.0 / 40.0).best_value
    return verify_contraction(a, b, c, P11, best - 0.01, n_trials=200,
                              rng_seed=0)


GOLDEN_RUNS = {
    "thm31": lambda: verify_contraction(
        strongly_monotone(1.0).intersect(lipschitz(1.0)), monotone(),
        cocoercive(1.0), P11, 2.0 / 3.0, n_trials=1000, rng_seed=0),
    "thm33": lambda: verify_contraction(
        monotone().intersect(lipschitz(1.0)), monotone(),
        cocoercive(1.0).intersect(strongly_monotone(0.5)), P11,
        contraction_thm33(1.0, 1.0, 1.0, 1.0, 0.5, role="A_lip").rho,
        n_trials=1000, rng_seed=0),
    "thm41": lambda: verify_averagedness(
        strongly_monotone(1.0), monotone(),
        monotone().intersect(lipschitz(1.0)), P11, 2.0 / 3.0,
        n_trials=1000, rng_seed=0),
    "negative_control": _negative_control,
}

def _srg_warning(shift):
    return [f"the SRG theorem does not apply at s = {shift!r} (false: (iii) "
            "(2 - lambda/(1 - s)) I - alpha C has an arc property); a pass "
            "shows no 2x2 counterexample, not a bound for every operator in "
            "the classes"]


# C is not enlarged, so hypothesis (iii) fails for thm33, thm41 and the
# published C of the negative control
GOLDEN = {
    "thm31": {"max_norm_seen": 0.5773502691896258, "passed": True,
              "rho": 0.6666666666666666, "trials": 1000, "violations": [],
              "warnings": []},
    "thm33": {"max_norm_seen": 0.8090169943749473, "passed": True,
              "rho": 0.8660254037844386, "trials": 1000, "violations": [],
              "warnings": _srg_warning(0.0)},
    "thm41": {"max_norm_seen": 0.6666666666666666, "passed": True,
              "rho": 0.6666666666666666, "trials": 1000, "violations": [],
              "warnings": _srg_warning(1.0 - 2.0 / 3.0)},
    "negative_control": {
        "max_norm_seen": 0.723606797749979, "passed": False,
        "rho": 0.713606797749979, "trials": 200,
        "warnings": _srg_warning(0.0),
        "violations": [
            {"kind": "norm_bound", "norm": 0.723606797749979,
             "bound": 0.713606797749979,
             "triple": ["(0.7236067977499788-0.44721359549995804j)",
                        "(0.7999999999999999+0.4000000000000001j)",
                        "(0.5+0.5j)"]}]},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_report_golden(name):
    report = GOLDEN_RUNS[name]()
    got = {**dataclasses.asdict(report), "passed": report.passed}
    assert_matches(json.loads(json.dumps(got)), GOLDEN[name], name)
