import numpy as np
import pytest

from spherelab.geometry import hermitian_pair, random_sphere_points, tangent_frame
from spherelab.quadrature import contact_one_form

# the contact form every experiment pairs against, and its Levi form
XI = contact_one_form()
DXI = XI.d()


def xi(x, u):
    """xi(u) at the points x (npoints, 2) for real directions u."""
    return XI.evaluate(np.atleast_2d(x), [u])


def dxi(x, u, v):
    return DXI.evaluate(np.atleast_2d(x), [u, v])


def omega0_bruteforce(x, v):
    """Direct evaluation of (1/2i) sum (conj(z_j) dz_j - z_j dconj(z_j))."""
    total = 0.0 + 0.0j
    for j in range(len(x)):
        total += (np.conj(x[j]) * v[j] - x[j] * np.conj(v[j])) / 2j
    return total.real


def random_tangent(x, rng):
    g = rng.standard_normal(2 * len(x))
    u = g[0::2] + 1j * g[1::2]
    u = u - hermitian_pair(u, x).real * x  # remove the radial part
    return u


def test_contact_form_examples():
    x = np.array([1.0, 0.0], dtype=complex)
    reeb = np.array([1j, 0.0])
    assert xi(x, reeb)[0] == pytest.approx(1.0, abs=1e-15)
    horiz = np.array([0.0, 1.0], dtype=complex)
    assert xi(x, horiz)[0] == pytest.approx(0.0, abs=1e-15)


def test_contact_form_matches_bruteforce(rng):
    for _ in range(50):
        x = random_sphere_points(1, rng=rng)[0]
        v = random_tangent(x, rng)
        assert xi(x, v)[0] == pytest.approx(omega0_bruteforce(x, v), abs=1e-12)


def test_reeb_examples():
    # T(x) = i x, the first vector of tangent_frame, in interleaved real coordinates
    for x, real in (([1.0, 0.0], [0.0, 1.0, 0.0, 0.0]), ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0])):
        reeb = tangent_frame(np.array(x, dtype=complex))[0]
        assert np.allclose(np.stack([reeb.real, reeb.imag], axis=-1).ravel(), real)
        assert xi(x, reeb)[0] == pytest.approx(1.0, abs=1e-15)


def test_reeb_contraction_identities(rng):
    xs = random_sphere_points(1000, rng=rng)
    reebs = 1j * xs
    assert np.max(np.abs(xi(xs, reebs) - 1.0)) <= 1e-10
    ws = np.array([random_tangent(x, rng) for x in xs[:25]])
    contraction = dxi(xs[:25], reebs[:25], ws)
    assert np.all(np.abs(contraction) <= 1e-10 * np.maximum(1.0, np.linalg.norm(ws, axis=1)))


def test_dxi_antisymmetric_and_positive_pair():
    x = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    w = np.array([0.0, 1j])
    assert dxi(x, v, v)[0] == 0.0
    val = dxi(x, v, w)[0]
    assert val == pytest.approx(2.0, abs=1e-14)  # twice the Levi value, positive
    assert dxi(x, w, v)[0] == pytest.approx(-val, abs=1e-14)


def test_dxi_matches_finite_difference(rng):
    h = 1e-6
    for _ in range(10):
        x = random_sphere_points(1, rng=rng)[0]
        u = random_tangent(x, rng)
        v = random_tangent(x, rng)
        # constant extensions commute, so d xi(u, v) = u(xi(v)) - v(xi(u))
        du = (omega0_bruteforce(x + h * u, v) - omega0_bruteforce(x - h * u, v)) / (2 * h)
        dv = (omega0_bruteforce(x + h * v, u) - omega0_bruteforce(x - h * v, u)) / (2 * h)
        assert dxi(x, u, v)[0] == pytest.approx(du - dv, abs=5e-6)


def test_strict_pseudoconvexity(rng):
    xs = random_sphere_points(1000, rng=rng)
    for x in xs[::20]:
        v = random_tangent(x, rng)
        v = v - xi(x, v)[0].real * (1j * x)  # project to the contact plane
        if np.linalg.norm(v) < 1e-8:
            continue
        assert dxi(x, v, 1j * v)[0].real > 0.0


def test_tangent_frame_structure(rng):
    x = random_sphere_points(1, rng=rng)[0]
    frame = tangent_frame(x)
    assert len(frame) == 3
    assert np.allclose(frame[0], 1j * x)
    for i, u in enumerate(frame):
        assert abs(hermitian_pair(u, x).real) <= 1e-10
        for j, v in enumerate(frame):
            expect = 1.0 if i == j else 0.0
            assert hermitian_pair(u, v).real == pytest.approx(expect, abs=1e-10)
    # horizontal pair is J-related
    assert np.allclose(frame[2], 1j * frame[1])
