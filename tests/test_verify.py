"""2x2 realizations: embedding homomorphism, class membership, operator
assembly and the contraction / averagedness checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dysrates import (Averaged, Cocoercive, DysParams, InvalidClassError,
                      Lipschitz, Monotone, OperatorClassSpec, SearchConfig,
                      ShiftedLipschitzBall, SingularResolventError,
                      StronglyMonotone, class_membership, cocoercive,
                      contraction_thm33, dys_matrix, lipschitz, monotone,
                      operator_from_resolvent_point, realize, search,
                      spectral_norm_2x2, strongly_monotone,
                      verify_averagedness, verify_contraction, zeta)
from dysrates.classes import resolvent_srg, srg
from dysrates.geometry import boundary_grid
from dysrates.verify import _members, _sym_min_eig
from oracles import assert_matches, rotation_value

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
        from dysrates.verify import _random_boundary_points
        pts = _random_boundary_points(region, 1000, rng)
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
    best = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 40.0)).best_value
    report = verify_contraction(a, b, c, P11, best - 0.01, n_trials=200,
                                rng_seed=0)
    assert not report.passed
    assert any(v["kind"] == "norm_bound" for v in report.violations)


def test_verify_tiny_norm_at_its_own_rho_passes():
    # zeta = 1 - 1.46625 * (2/3) = 0.0225 on one-point regions; iterating
    # this T from a unit vector drives x.x subnormal near step 95, where a
    # growth test against ||T||^k reported false violations
    point = strongly_monotone(0.5).intersect(lipschitz(0.5))
    params = DysParams(1.0, 1.46625)
    rho = verify_contraction(point, point, point, params, 1.0,
                             n_trials=20).max_norm_seen
    assert rho == pytest.approx(0.0225, rel=1e-9)
    report = verify_contraction(point, point, point, params, rho,
                                n_trials=20, tol=0.0)
    assert report.passed and report.violations == []


def test_verify_zero_trials_vacuous():
    report = verify_contraction(monotone(), monotone(), cocoercive(1.0),
                                P11, 0.9, n_trials=0)
    assert report.passed
    assert report.warnings


def test_verify_averagedness_norm_bound():
    a = strongly_monotone(1.0)
    c = monotone().intersect(lipschitz(1.0))
    report = verify_averagedness(a, monotone(), c, P11, 2.0 / 3.0,
                                 n_trials=1000, rng_seed=0)
    assert report.passed
    assert report.max_norm_seen <= 2.0 / 3.0 + 1e-9


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


# the closed form squares squared entries, so entries stay clear of 1e-77
ENTRY = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) > 1e-50)


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 16), st.just(2),
                                    st.just(2)), elements=ENTRY))
def test_stack_norm_is_largest_singular_value(ms):
    for m, norm in zip(ms, spectral_norm_2x2(ms)):
        assert norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-12,
                                     abs=1e-150)


WIDE_ENTRY = st.one_of(st.just(0.0), st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0) | st.floats(-10.0, -1.0), st.integers(-150, 150)))


@settings(deadline=None)
@given(st.lists(st.lists(WIDE_ENTRY, min_size=4, max_size=4), min_size=1,
                max_size=16))
def test_stack_norm_exact_across_exponent_range(entries):
    # entries from 1e-150 to 1e150: squaring twice would underflow to 0 or
    # overflow to inf without the power-of-two rescaling
    ms = np.array(entries).reshape(-1, 2, 2)
    for m, norm in zip(ms, spectral_norm_2x2(ms)):
        assert norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-12, abs=0)


@settings(deadline=None)
@given(STACK)
def test_realized_stack_symmetric_part_min_eigenvalue_is_real_part(zs):
    for z, eig in zip(zs, _sym_min_eig(realize(zs))):
        assert eig == pytest.approx(z.real, rel=1e-14)


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
def test_dys_matrix_scales_every_vector_by_its_norm(triple, alpha, lam, x):
    # T is a scaled rotation, so ||T^k x|| = ||T||^k ||x||: iterating T
    # shows nothing that the norm bound does not
    a, b, c = triple
    t = dys_matrix(realize(a), realize(b), realize(c), alpha, lam)
    x = np.array(x)
    scale = 1 + lam * abs(b) + lam * abs(a) * (
        1 + 2 * abs(b) + alpha * abs(c) * abs(b))
    assert abs(np.linalg.norm(t @ x) - spectral_norm_2x2(t) * np.linalg.norm(
        x)) <= 1e-12 * scale * np.linalg.norm(x)


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
    mask = _members(ms, spec, tols)
    assert mask.shape == tols.shape
    assert list(mask) == [class_membership(m, spec, float(t))
                          for m, t in zip(ms, tols)]


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

def _negative_control():
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    best = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 40.0)).best_value
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

GOLDEN = {
    "thm31": {"max_norm_seen": 0.5773502691896258, "passed": True,
              "rho": 0.6666666666666666, "trials": 1000, "violations": [],
              "warnings": []},
    "thm33": {"max_norm_seen": 0.8090169943749473, "passed": True,
              "rho": 0.8660254037844386, "trials": 1000, "violations": [],
              "warnings": []},
    "thm41": {"max_norm_seen": 0.6654079940610714, "passed": True,
              "rho": 0.6666666666666666, "trials": 1000, "violations": [],
              "warnings": []},
    "negative_control": {
        "max_norm_seen": 0.723606797749979, "passed": False,
        "rho": 0.713606797749979, "trials": 200, "warnings": [],
        "violations": [
            {"kind": "norm_bound", "norm": 0.723606797749979,
             "bound": 0.713606797749979,
             "triple": ["(0.7236067977499788-0.44721359549995804j)",
                        "(0.7999999999999999+0.4000000000000001j)",
                        "(0.5+0.5j)"]}]},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_report_golden(name):
    report = json.loads(json.dumps(GOLDEN_RUNS[name]().as_dict()))
    assert_matches(report, GOLDEN[name], name)
