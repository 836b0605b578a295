"""Tests for ray integration and Cauchy principal values."""

import cmath
import math
import pathlib
import random
import subprocess
import sys

import mpmath
import pytest
import scipy.integrate

from lerchphi import quadrature
from lerchphi.cli import _sample_disc_z
from lerchphi.engine import phi_integral, phi_pv
from lerchphi.errors import DomainError, PoleOffRay, ToleranceNotMet
from lerchphi.quadrature import RayIntegrand, integrate_ray, pv_integrate_ray
from oracles import lerch_reference


def real_ray(fun, decay, growth=0):
    return RayIntegrand(fun, 0.0, decay_rate=decay, growth_degree=growth)


def pv_real_ray(fun, decay, pole, fold, tol):
    """pv_integrate_ray on the real ray, its tail on that ray too."""
    ray = real_ray(fun, decay)
    return pv_integrate_ray(ray, pole, fold, tol, tail=ray)


class TestIntegrateRay:
    def test_exponential(self):
        res = integrate_ray(real_ray(lambda t: cmath.exp(-t), 1.0), 1e-12)
        assert abs(res.value - 1.0) < 1e-12

    def test_gamma_two(self):
        res = integrate_ray(
            real_ray(lambda t: t * cmath.exp(-t), 1.0, growth=1), 1e-12
        )
        assert abs(res.value - 1.0) < 1e-12

    def test_lerch_kernel_closed_form(self):
        # integral of e^-t / (1 - 0.5 e^-t) dt = Phi(0.5, 1, 1) = 2 ln 2
        res = integrate_ray(
            real_ray(lambda t: cmath.exp(-t) / (1 - 0.5 * cmath.exp(-t)), 1.0),
            1e-10,
        )
        assert abs(res.value - 2 * math.log(2)) < 1e-10

    def test_against_scipy_quad(self):
        fun = lambda t: cmath.exp(-0.7 * t) / (1 + t * t)
        res = integrate_ray(real_ray(fun, 0.7), 1e-11)
        ref, ref_err = scipy.integrate.quad(
            lambda t: math.exp(-0.7 * t) / (1 + t * t), 0, math.inf
        )
        assert abs(res.value - ref) < 1e-10 + 10 * ref_err

    def test_complex_ray_angle(self):
        # analytic: integral of e^(-t) dt along arg t = phi is still 1
        phi_angle = 0.6
        res = integrate_ray(
            RayIntegrand(lambda t: cmath.exp(-t), phi_angle,
                         decay_rate=math.cos(phi_angle)),
            1e-11,
        )
        assert abs(res.value - 1.0) < 1e-11

    def test_err_estimate_majorizes(self):
        res = integrate_ray(
            real_ray(lambda t: t**2 * cmath.exp(-2 * t), 2.0, growth=2), 1e-10
        )
        assert abs(res.value - 0.25) <= max(res.err_estimate, 1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            RayIntegrand(lambda t: 1.0, 2.0, decay_rate=1.0)
        with pytest.raises(DomainError):
            RayIntegrand(lambda t: 1.0, 0.0, decay_rate=0.0)


def lerch_kernel_fold(z, a):
    """Fold of e^((a-1) t) / (z - e^(-t)) about t0 = -ln z, for real z in
    (0, 1) on the real ray: z - e^(-t0 - v) = -z expm1(-v) keeps the two
    sides free of cancellation."""
    t0 = -math.log(z)

    def side(v):
        return math.exp((a - 1) * (t0 + v)) / (-z * math.expm1(-v))

    return lambda u: side(u) + side(-u)


class TestPrincipalValue:
    def test_odd_folded_integrand_vanishes(self):
        # 1/(t-1) e^(-(t-1)^2) has an odd numerator about the pole: the fold
        # e^(-u^2)/u - e^(-u^2)/u is zero, and what is left is the tail
        # beyond t = 2
        fun = lambda t: cmath.exp(-((t - 1) ** 2)) / (t - 1)
        res = pv_real_ray(fun, 1.0, 1.0, lambda u: 0j, 1e-10)
        tail = scipy.integrate.quad(
            lambda u: math.exp(-(u**2)) / u, 1.0, math.inf
        )[0]
        assert abs(res.value - tail) < 1e-9

    def test_lerch_pv_n1_at_half_shift(self):
        # Theorem-style kernel, cot term vanishing at a = 1/2:
        # PV integral of e^(at)/(z e^t - 1) equals Phi(z, 1, a) there
        z, a = 0.5, 0.5
        fun = lambda t: cmath.exp((a - 1) * t) / (z - cmath.exp(-t))
        res = pv_real_ray(fun, 1 - a, -math.log(z), lerch_kernel_fold(z, a),
                          1e-10)
        phi_ref = sum(z**m / (m + a) for m in range(200))  # direct series
        assert abs(res.value - phi_ref) < 1e-9

    def test_lerch_pv_n1_general_shift(self):
        # same kernel at a = 0.3: PV = Phi(z,1,a) - pi z^-a cot(pi a)
        z, a = 0.5, 0.3
        fun = lambda t: cmath.exp((a - 1) * t) / (z - cmath.exp(-t))
        res = pv_real_ray(fun, 1 - a, -math.log(z), lerch_kernel_fold(z, a),
                          1e-10)
        phi_ref = sum(z**m / (m + a) for m in range(200))
        expected = phi_ref - math.pi * z ** (-a) / math.tan(math.pi * a)
        assert abs(res.value - expected) < 1e-9

    @pytest.mark.parametrize("tail_angle", [0.5, -1.2])
    def test_tail_along_another_ray_of_the_wedge(self, tail_angle):
        # the kernel above: its poles ln 2 + 2 pi i k lie left of
        # Re t = 2 ln 2, so the tail may leave 2 t0 along any ray into the
        # right half-plane, and the principal value does not move
        z, a = 0.5, 0.3
        fun = lambda t: cmath.exp((a - 1) * t) / (z - cmath.exp(-t))
        tail = RayIntegrand(fun, tail_angle,
                            decay_rate=(1 - a) * math.cos(tail_angle))
        res = pv_integrate_ray(real_ray(fun, 1 - a), -math.log(z),
                               lerch_kernel_fold(z, a), 1e-10, tail=tail)
        phi_ref = sum(z**m / (m + a) for m in range(200))
        expected = phi_ref - math.pi * z ** (-a) / math.tan(math.pi * a)
        assert abs(res.value - expected) < 1e-9

    def test_linearity(self):
        rng = random.Random(7)
        t0 = 1.5
        f = lambda t: cmath.exp(-((t - t0) ** 2)) / (t - t0)
        g = lambda t: cmath.exp(-t) / (t - t0)
        # f folds to 0; g folds to (e^(-t0-u) - e^(-t0+u))/u
        fold_g = lambda u: -2.0 * math.exp(-t0) * math.sinh(u) / u
        pv_f = pv_real_ray(f, 1.0, t0, lambda u: 0j, 1e-10).value
        pv_g = pv_real_ray(g, 1.0, t0, fold_g, 1e-10).value
        for _ in range(3):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            combo = lambda t: alpha * f(t) + beta * g(t)
            pv_combo = pv_real_ray(combo, 1.0, t0, lambda u: beta * fold_g(u),
                                   1e-10).value
            assert abs(pv_combo - (alpha * pv_f + beta * pv_g)) < 2e-9

    def test_dummy_far_pole_matches_plain_integral(self):
        # pole-free integrand with a pole declared where it is negligible
        fun = lambda t: cmath.exp(-2 * t)
        fold = lambda u: 2 * math.exp(-18) * math.cosh(2 * u)
        plain = integrate_ray(real_ray(fun, 2.0), 1e-11)
        dummy = pv_real_ray(fun, 2.0, 9.0, fold, 1e-11)
        assert abs(plain.value - dummy.value) < 2e-11

    def test_pole_off_ray_rejected(self):
        fun = lambda t: 1.0 / (t - 1j)
        with pytest.raises(PoleOffRay):
            pv_real_ray(fun, 1.0, 1j, lambda u: 0j, 1e-8)

    def test_misdeclared_pole_location_fails_honestly(self):
        # true pole at 1, declared at 2: the fold keeps the pole at u = 1,
        # and the failure carries the partial result
        fun = lambda t: cmath.exp(-((t - 1) ** 2)) / (t - 1)
        fold = lambda u: fun(2 + u) + fun(2 - u)
        with pytest.raises(ToleranceNotMet):
            pv_real_ray(fun, 1.0, 2.0, fold, 1e-8)

    def test_double_pole_blows_up_fold(self):
        # declared simple, actually order two: the fold 2 e^(-u^2)/u^2
        # stays singular at u -> 0
        fun = lambda t: cmath.exp(-((t - 1) ** 2)) / (t - 1) ** 2
        fold = lambda u: 2 * math.exp(-(u**2)) / u**2
        with pytest.raises(PoleOffRay):
            pv_real_ray(fun, 1.0, 1.0, fold, 1e-8)


def test_node_tables_are_built_on_first_use():
    code = ("import lerchphi.cli, lerchphi.quadrature as q; "
            "print(q._nodes.cache_info().currsize)")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "0"


def theorem1_points(seed, count):
    """(z, n, a) drawn by the rule of `lerchphi check --suite theorem1`,
    where the integral and the principal value both apply; n cycles 2, 3, 1."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        z = _sample_disc_z(rng)
        a = complex(rng.uniform(0.5, 0.85), rng.uniform(-0.35, 0.35))
        if ((a - 1) * cmath.exp(1j * cmath.phase(-cmath.log(z)))).real > -0.2:
            continue
        points.append((z, 1 + (len(points) + 1) % 3, a))
    return points


def carried(route, z, n, a, tol):
    """The route's result, or the one its ToleranceNotMet carries."""
    try:
        return route(z, n, a, tol)
    except ToleranceNotMet as exc:
        return exc.result


# Work gates: nodes may fall, never rise, as the quadrature changes.
@pytest.mark.parametrize("call, ceiling", [
    (lambda: phi_integral(0.999 * cmath.exp(0.7j), 2, 0.3 + 0.1j), 85),
    (lambda: phi_pv(0.5 * cmath.exp(0.7j), 3, 0.75), 144),
], ids=["integral_r0.999", "pv_n3"])
def test_probe_work(call, ceiling):
    assert call().terms_or_nodes <= ceiling


@pytest.mark.parametrize("route, ceiling", [
    (phi_integral, 4253),
    (phi_pv, 8637),
], ids=["integral", "pv"])
def test_theorem1_work(route, ceiling):
    work = sum(carried(route, z, n, a, 1e-10).terms_or_nodes
               for z, n, a in theorem1_points(0, 50))
    assert work <= ceiling


def test_estimates_bound_the_error_on_theorem1_points():
    for z, n, a in theorem1_points(1, 60):
        with mpmath.workdps(30):
            ref = complex(mpmath.lerchphi(z, n, a))
        for tol in (1e-8, 1e-10, 1e-13):
            for route in (phi_integral, phi_pv):
                res = carried(route, z, n, a, tol)
                assert abs(res.value - ref) <= res.err_estimate, (
                    route, z, n, a, tol)


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_pv_certifies_where_the_naive_fold_stalled(tol):
    # a fold that forms z - e^(-(t0 +- v)) by subtraction loses all digits
    # next to the pole, and stalls here at 1e-12 with an error of 2.08
    z, n, a = -0.7698 - 0.1896j, 2, 0.6253 + 0.2742j
    with mpmath.workdps(30):
        ref = complex(mpmath.lerchphi(z, n, a))
    res = phi_pv(z, n, a, tol)
    assert abs(res.value - ref) <= res.err_estimate
    assert res.err_estimate <= tol * max(1.0, abs(res.value))


@pytest.mark.parametrize("tol", [1e-15, 1e-16])
def test_pv_estimate_holds_below_the_rounding_floor(tol):
    # certified or stalled, the estimate bounds the error
    with mpmath.workdps(30):
        ref = complex(mpmath.lerchphi(0.5j, 4, 0.4))
    res = carried(phi_pv, 0.5j, 4, 0.4, tol)
    assert abs(res.value - ref) <= res.err_estimate


def test_pv_tail_leaves_the_ray_next_to_the_circle():
    # e^(2i) at |z| = 1 - 1.6e-10 (the CLI's band-in point): phi lies
    # within 8e-11 of -pi/2, where e^((a-1) t) decays at 4.8e-11 along the
    # pole's ray, next to the poles t0 + 2 pi i k; along the real direction
    # it decays at 0.6
    z = -0.4161468364805589 + 0.9092974266801941j
    res = phi_pv(z, 3, 0.4, 1e-10)
    with mpmath.workdps(30):
        ref = complex(mpmath.lerchphi(z, 3, 0.4))
    assert res.terms_or_nodes <= 300
    assert abs(res.value - ref) <= res.err_estimate


def near_circle_pv_points(seed, per_band):
    """(z, n, a) with |z| = 1 - 10^-k, k = 2..9, per_band of each, where the
    principal value is admissible."""
    rng = random.Random(seed)
    points = []
    for k in range(2, 10):
        drawn = 0
        while drawn < per_band:
            z = (1 - 10.0**-k) * cmath.exp(1j * rng.uniform(-3.0, 3.0))
            n = rng.randint(1, 4)
            a = complex(rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0))
            phi_angle = cmath.phase(-cmath.log(z))
            if ((a - 1) * cmath.exp(1j * phi_angle)).real >= 0:
                continue
            points.append((z, n, a))
            drawn += 1
    return points


def test_pv_certifies_next_to_the_circle():
    work = 0
    for z, n, a in near_circle_pv_points(0, 3):
        res = phi_pv(z, n, a, 1e-10)
        with mpmath.workdps(30):
            ref = complex(mpmath.lerchphi(z, n, a))
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a)
        work += res.terms_or_nodes
    assert work <= 5063


def negative_shift_points(seed, per_z):
    """(z, n, a) from the grid z in {0.5, 0.2 - 0.1i, 0.05, 0.003 + 0.01i,
    1e-5 + 1e-5i}, a = 0.4 - k + 0.1i, k in {0, 2, 5, 10, 20, 40, 80, 150,
    300}, n = 1..3: per_z shifts of each z, each with one order.  As k
    grows, -Re((a-1) t0) does too, the fold's mass moves to its far end and
    e^((a-1) t0) underflows."""
    rng = random.Random(seed)
    points = []
    for z in (0.5, 0.2 - 0.1j, 0.05, 0.003 + 0.01j, 1e-5 + 1e-5j):
        for k in rng.sample((0, 2, 5, 10, 20, 40, 80, 150, 300), per_z):
            points.append((z, rng.randint(1, 3), complex(0.4 - k, 0.1)))
    return points


def test_pv_certifies_at_negative_shifts():
    for z, n, a in negative_shift_points(11, 6):
        res = phi_pv(z, n, a, 1e-10)
        with mpmath.workdps(30):
            ref = complex(mpmath.lerchphi(z, n, a))
        assert abs(res.value - ref) <= res.err_estimate, (z, n, a)


@pytest.mark.parametrize("z, n, a", [
    (0.2 - 0.1j, 1, -79.6 + 0.1j),
    (0.2 - 0.1j, 2, -79.6 + 0.1j),
    (0.2 - 0.1j, 3, -79.6 + 0.1j),
    (0.05, 1, -39.6 + 0.1j),
    (0.05, 2, -39.6 + 0.1j),
    (0.05, 3, -39.6 + 0.1j),
])
def test_pv_fold_walks_to_its_far_end(z, n, a):
    # the fold's mass sits next to u0, where a walk that stops at the
    # first small term from the middle never arrives: it returned about 0
    # with an estimate near 1e-17 after 12 nodes
    res = phi_pv(z, n, a, 1e-10)
    with mpmath.workdps(30):
        ref = complex(mpmath.lerchphi(z, n, a))
    assert abs(res.value - ref) <= res.err_estimate
    assert res.err_estimate <= 1e-10 * max(1.0, abs(res.value))


@pytest.fixture
def table_sizes(monkeypatch):
    """Sizes of the node tables the quadrature asks for from here on."""
    sizes = []
    nodes = quadrature._nodes

    def recording(tanh_sinh, level):
        table = nodes(tanh_sinh, level)
        sizes.append(sum(len(side) for side in table))
        return table

    monkeypatch.setattr(quadrature, "_nodes", recording)
    return sizes


def test_pv_piece_cannot_run_away(table_sizes):
    # the fold walked 2 nodes a level here, while each level's table
    # doubled: 419,430 nodes at level 16, for more than a minute
    z, n, a = 0.003 + 0.01j, 1, -19.6 + 0.1j
    res = phi_pv(z, n, a, 1e-10)
    with mpmath.workdps(30):
        ref = complex(mpmath.lerchphi(z, n, a))
    assert abs(res.value - ref) <= res.err_estimate
    assert res.terms_or_nodes <= 211
    assert max(table_sizes) <= quadrature._MAX_NODES


def test_a_piece_ends_before_its_table_passes_the_cap(table_sizes):
    # only the level-0 node at t = 1 is nonzero: each later level walks one
    # node a side, halves the value and never converges
    spike = real_ray(lambda t: 1.0 if t == 1.0 else 0.0, 1.0)
    with pytest.raises(ToleranceNotMet) as info:
        integrate_ray(spike, 1e-10)
    assert info.value.result.terms_or_nodes < 100
    assert max(table_sizes) <= quadrature._MAX_NODES


@pytest.fixture
def scripted_piece(monkeypatch):
    """integrate_ray at tol 1e-10 on one piece whose level sums follow a
    script: values[L] is its trapezoid value at level L, one node a level.
    With a value about 1 the piece's share is 2.5e-11."""
    def run(values):
        def level_sums(piece, level, cut, grow=0.0):
            h = quadrature._H0 / 2**level
            part = values[level] / h - (values[level - 1] / (2 * h)
                                        if level else 0.0)
            return part, abs(part), 0.0, 1
        monkeypatch.setattr(quadrature, "_level_sums", level_sums)
        return integrate_ray(real_ray(lambda t: 0j, 1.0), 1e-10)
    return run


def test_a_zero_first_difference_is_no_contraction(scripted_piece):
    # levels 0 and 1 agree exactly, so level 3 has no contraction d1 -> d2
    # to compare with d2 -> d3; it must neither divide by d1 nor stall
    res = scripted_piece([1.0, 1.0, 1.001, 1.001001, 1.001001 + 1e-12,
                          1.001001 + 1e-12])
    assert abs(res.value - 1.001001) < 1e-11
    assert res.err_estimate < 1e-13


@pytest.mark.parametrize("diffs, level", [
    ((1e-2, 1e-4, 1e-8), 3),        # speeds up: d3^2/d2 = 1e-12 certifies
    ((1e-2, 1e-4, 1e-6, 1e-8), 5),  # steady: d4^2/d3 = 1e-10 does not
    ((1e-2, 1e-5, 1e-7), 4),        # slows down at level 3
    ((1e-4, 1e-3, 1e-7), 4),        # d1 -> d2 grew: no contraction to speed up
])
def test_a_piece_stops_where_its_contraction_certifies(scripted_piece,
                                                       diffs, level):
    # the script's differences d1, d2, ... are diffs, then 1e-12 and 1e-24
    values = [1.0]
    for d in diffs + (1e-12, 1e-24):
        values.append(values[-1] + d)
    res = scripted_piece(values)
    assert res.terms_or_nodes == level + 1
    assert abs(res.value - values[level]) < 1e-15
    assert res.err_estimate < 2.5e-11


def negative_axis_points(seed, count):
    """(z, n, a) on the negative real axis, z in [-5, -1.2], where phi serves
    the point by the integral: n = 1..6, Re a in [0.05, 3], |Im a| <= 5."""
    rng = random.Random(seed)
    return [(complex(-rng.uniform(1.2, 5.0)), rng.randint(1, 6),
             complex(rng.uniform(0.05, 3.0), rng.uniform(-5.0, 5.0)))
            for _ in range(count)]


def near_circle_integral_points(seed, count):
    """(z, n, a) with ||z| - 1| log-uniform in [1e-6, 1e-2], alternately
    inside and outside the circle, |arg z| in [0.1, pi], n = 1..4,
    Re a in [0.05, 3], |Im a| <= 1."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        delta = 10.0 ** rng.uniform(-6.0, -2.0)
        r = 1.0 - delta if i % 2 == 0 else 1.0 + delta
        theta = rng.uniform(0.1, math.pi) * rng.choice((-1, 1))
        a = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0))
        points.append((r * cmath.exp(1j * theta), rng.randint(1, 4), a))
    return points


def large_im_shift_points(seed, count):
    """(z, n, a) with |z| in [0.05, 0.95], n = 1..4, Re a in [0.5, 3] and
    |Im a| <= 40, where e^(-a t) oscillates across many nodes.  With Re a
    below about 0.25 the decay is so slow that many such points reach the
    node cap and stall."""
    rng = random.Random(seed)
    return [(rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(-3.1, 3.1)),
             rng.randint(1, 4),
             complex(rng.uniform(0.5, 3.0), rng.uniform(-40.0, 40.0)))
            for _ in range(count)]


def pv_stress_points(seed, count):
    """(z, n, a) where the principal value is admissible: |z| log-uniform in
    [0.01, 0.95], any arg z, n = 1..6, Re a in [-5, 1], |Im a| <= 3.  Small
    |z| and large |a - 1| make the tail start far out, where its integrand
    decays from the start of the ray."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        z = 10.0 ** rng.uniform(-2.0, -0.02) * cmath.exp(
            1j * rng.uniform(-3.1, 3.1))
        n = rng.randint(1, 6)
        a = complex(rng.uniform(-5.0, 1.0), rng.uniform(-3.0, 3.0))
        phi_angle = cmath.phase(-cmath.log(z))
        if ((a - 1) * cmath.exp(1j * phi_angle)).real < 0:
            points.append((z, n, a))
    return points


HARD_SETS = {
    "negative_axis": (phi_integral, negative_axis_points),
    "near_circle": (phi_integral, near_circle_integral_points),
    "large_im_shift": (phi_integral, large_im_shift_points),
    "negative_shift": (phi_pv, lambda seed, count:
                       negative_shift_points(seed, count // 5)),
    "pv_stress": (phi_pv, pv_stress_points),
}


@pytest.mark.parametrize("name", HARD_SETS)
def test_estimates_bound_the_error_on_hard_sets(name):
    # sets where a piece may stop at an early level: oscillating and slowly
    # decaying integrands, poles next to the path, tails far out; every
    # point certifies (a stall raises) with an estimate that bounds the error
    route, draw = HARD_SETS[name]
    for z, n, a in draw(5, 16):
        ref = lerch_reference(z, n, a, dps=20)
        for tol in (1e-7, 1e-10, 1e-13):
            res = route(z, n, a, tol)
            assert abs(res.value - ref) <= res.err_estimate, (z, n, a, tol)


def test_pv_tail_counts_the_cut_where_its_walk_stops():
    # the tail's integrand decays from the start of its ray, 2 t0, so the
    # terms rise towards it past the first one below the cut; the walk
    # stops there, and the estimate must count the cut, not that term
    z, n, a = (0.013243665107094167 + 0.05130866967365912j, 6,
               -4.3282246402087505 - 2.7959176980837865j)
    res = phi_pv(z, n, a, 1.0630534498231649e-07)
    assert abs(res.value - lerch_reference(z, n, a)) <= res.err_estimate


@pytest.mark.xfail(strict=True, reason="an exp-sinh tail that decays from "
                   "the start of its ray can hold more below the cut than "
                   "the cut: its walk stops at the first small term")
def test_pv_tail_below_the_cut_is_bounded():
    # both sides of the tail stop at their first node, below the cut, while
    # the term at x = -1, nearer 2 t0, is 1.7 times the cut: the piece
    # misses 1.19e-12 of a tail of 1.36e-12, and its estimate is 8.0e-13
    z, n, a = (0.0016152278311795624 + 0.015882791972334376j, 6,
               -3.4678214257607296 - 1.3401415399554018j)
    res = phi_pv(z, n, a, 2.7556309669802458e-08)
    assert abs(res.value - lerch_reference(z, n, a)) <= res.err_estimate
