"""Scalar inner functions: extraction, describing fields, quotients."""

import numpy as np
import pytest

import fibershift.beurling as beurling
from fibershift import (InnerField, NotInner, NotUnimodular, RangesDiffer,
                        RankTooLarge, ScalarH2, TruncationLattice,
                        WanderingRankNotOne,
                        decompose, inner_from_invariant, inner_quotient,
                        phi_representation, range_of_phi, shat_closure,
                        subspace_distance)
from fibershift.fields import field_from_fibers

from helpers import blaschke_coeffs


def _scalar(coeff_list, n_z):
    c = np.zeros(n_z, dtype=complex)
    c[: len(coeff_list)] = coeff_list
    return ScalarH2(c)


def test_scalar_container():
    h = _scalar([0, 0, 1], 8)
    assert h.n_z == 8
    assert h.norm() == 1.0
    assert h.inner_defect() < 1e-14
    vals = h.boundary_values(16)
    assert np.abs(vals[0] - 1.0) < 1e-14  # z = 1 evaluates to 1
    with pytest.raises(ValueError):
        h.boundary_values(8)  # under the 2*n_z oversampling floor
    with pytest.raises(ValueError):
        ScalarH2(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ScalarH2(np.zeros(0))


def test_monomial_inner_exact():
    h, defect = inner_from_invariant([_scalar([0, 0, 1], 16)])
    assert defect < 1e-12
    expected = np.zeros(16, dtype=complex)
    expected[2] = 1.0
    assert np.abs(h.coeffs - expected).max() < 1e-12


def test_blaschke_inner():
    a = 0.3 + 0.2j
    n_z = 32
    h, defect = inner_from_invariant([_scalar([-a, 1.0], n_z)])
    assert defect < 1e-9
    oracle = blaschke_coeffs(a, n_z)
    c = np.vdot(oracle, h.coeffs)  # phase alignment; both are unit vectors
    assert abs(abs(c) - 1.0) < 1e-9
    assert np.abs(h.coeffs - c * oracle).max() < 1e-9


def test_outer_generator_gives_constant():
    h, defect = inner_from_invariant([_scalar([-2.0, 1.0], 32)])
    assert defect < 1e-9
    expected = np.zeros(32, dtype=complex)
    expected[0] = 1.0
    assert np.abs(h.coeffs - expected).max() < 1e-9


def test_inner_from_invariant_forms_c_star_once(monkeypatch):
    """The leak and the wandering decision read one C*, and a refused
    decision is raised: a rank decision that keeps no singular value leaves
    all 14 dimensions of the span of z^2's shifts wandering."""
    import fibershift.shifts
    import fibershift.wandering
    real = fibershift.shifts.compressed_shift_adjoint
    calls = []

    def counting(frame, n_z, k):
        calls.append(frame.shape)
        return real(frame, n_z, k)

    for module in (fibershift.shifts, fibershift.wandering):
        monkeypatch.setattr(module, "compressed_shift_adjoint", counting)
    inner_from_invariant([_scalar([0, 0, 1], 16)])
    assert calls == [(16, 14)]
    monkeypatch.setattr(fibershift.wandering, "rank_decision",
                        lambda s, tol, fiber=None: 0)
    with pytest.raises(RankTooLarge, match="rank 14 exceeds k = 1"):
        inner_from_invariant([_scalar([0, 0, 1], 16)])


def test_zero_generator_rejected():
    with pytest.raises(WanderingRankNotOne):
        inner_from_invariant([ScalarH2(np.zeros(8))])
    with pytest.raises(ValueError):
        inner_from_invariant([])
    with pytest.raises(ValueError):
        inner_from_invariant([_scalar([1], 8), _scalar([1], 4)])


def _const_field(lat, coeffs_by_fiber, support, **kw):
    fibers = tuple(ScalarH2(c) for c in coeffs_by_fiber)
    return InnerField(lat, fibers, support, **kw)


def test_inner_field_validation():
    lat = TruncationLattice(2, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    field = _const_field(lat, (z1, np.zeros(8)), {0})
    assert field.inner_defects()[1] == 0.0
    assert field.coeff_matrix().shape == (2, 8)
    # non-inner fiber on the support
    bad = np.zeros(8, dtype=complex)
    bad[0] = bad[1] = 2 ** -0.5
    with pytest.raises(NotInner):
        _const_field(lat, (bad, np.zeros(8)), {0})
    # nonzero fiber off the support
    with pytest.raises(ValueError):
        _const_field(lat, (z1, z1), {0})
    with pytest.raises(ValueError):
        _const_field(TruncationLattice(2, 8, 2), (z1, np.zeros(8)), {0})
    # |phi| = 2 on the circle is a defect of 1.0, which no tolerance in
    # (0, 1) passes
    for tol in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="inner_tol"):
            _const_field(lat, (2 * z1, np.zeros(8)), {0}, inner_tol=tol)


def test_inner_field_fails_a_nan_defect():
    """Non-finite coefficients are refused outright; finite ones whose
    boundary values overflow give a NaN defect, which fails the check (a
    worst-so-far comparison used to skip it)."""
    lat = TruncationLattice(2, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    with pytest.raises(ValueError, match="finite"):
        ScalarH2(np.where(np.arange(8) == 3, np.nan, z1))
    huge = np.full(8, 1.7e308, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(ScalarH2(huge).inner_defect())
        with pytest.raises(NotInner) as exc:
            _const_field(lat, (z1, huge), {0, 1})
    assert exc.value.fiber == 1


def test_phi_representation_of_monomial():
    lat = TruncationLattice(4, 8, 1)
    col = np.zeros((8, 1), dtype=complex)
    col[1, 0] = 1.0
    gens = shat_closure([field_from_fibers(lat, [col] * 4)])
    res = decompose(gens, lat)
    phi = phi_representation(res)
    assert phi.support == frozenset(range(4))
    jphi = range_of_phi(phi)
    target = np.eye(8, dtype=complex)[:, 1:]
    for m in range(4):
        assert subspace_distance(jphi.frames[m], target) < 1e-10


def test_phi_representation_needs_scalar_fibers():
    lat = TruncationLattice(2, 4, 2)
    col = np.zeros((4, 2), dtype=complex)
    col[0, 0] = 1.0
    res = decompose(shat_closure([field_from_fibers(lat, [col] * 2)]), lat)
    with pytest.raises(ValueError):
        phi_representation(res)


def test_inner_quotient_recovers_phase():
    lat = TruncationLattice(3, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    phases = np.exp(1j * np.array([0.4, -1.1, 2.9]))
    phi1 = _const_field(lat, tuple(w * z1 for w in phases), {0, 1, 2})
    phi2 = _const_field(lat, (z1,) * 3, {0, 1, 2})
    psi = inner_quotient(phi1, phi2)
    assert psi.support == phi1.support
    for m in range(3):
        assert abs(psi.fibers[m].coeffs[0] - phases[m]) < 1e-12
        assert np.abs(psi.fibers[m].coeffs[1:]).max() == 0.0


def test_inner_quotient_builds_ranges_only_on_failure(monkeypatch):
    """A successful quotient builds no range function; a failing one builds
    both to tell RangesDiffer from NotUnimodular."""
    calls = []

    def counted(phi):
        calls.append(phi)
        return range_of_phi(phi)

    monkeypatch.setattr(beurling, "range_of_phi", counted)
    lat = TruncationLattice(3, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    phi1 = _const_field(lat, (1j * z1,) * 3, {0, 1, 2})
    phi2 = _const_field(lat, (z1,) * 3, {0, 1, 2})
    inner_quotient(phi1, phi2)
    assert calls == []
    with pytest.raises(RangesDiffer, match="range"):
        inner_quotient(phi1, _const_field(lat, (np.roll(z1, 1),) * 3, {0, 1, 2}))
    assert len(calls) == 2


def test_inner_quotient_rejects_mismatch():
    lat = TruncationLattice(2, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    z2 = np.zeros(8, dtype=complex)
    z2[2] = 1.0
    phi_a = _const_field(lat, (z1, np.zeros(8)), {0})
    phi_b = _const_field(lat, (z1, z1), {0, 1})
    with pytest.raises(RangesDiffer, match="supports"):
        inner_quotient(phi_a, phi_b)
    phi_c = _const_field(lat, (z2, np.zeros(8)), {0})
    with pytest.raises(RangesDiffer, match="range"):
        inner_quotient(phi_a, phi_c)


def test_inner_quotient_rejects_outer_ratio():
    # h2 = z(1 + 0.1 z)/sqrt(1.01) spans the same subspace as z but is not
    # a unimodular multiple; the loose construction tolerance lets the
    # field exist so the quotient itself must reject it
    lat = TruncationLattice(2, 16, 1)
    z1 = np.zeros(16, dtype=complex)
    z1[1] = 1.0
    h2 = np.zeros(16, dtype=complex)
    h2[1], h2[2] = 1.0, 0.1
    h2 /= np.linalg.norm(h2)
    phi1 = _const_field(lat, (z1,) * 2, {0, 1})
    phi2 = _const_field(lat, (h2,) * 2, {0, 1}, inner_tol=0.2)
    with pytest.raises(NotUnimodular):
        inner_quotient(phi1, phi2)
