"""Scalar inner functions: extraction, describing fields, quotients."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fibershift.beurling as beurling
import fibershift.factorization as factorization
from fibershift import (DecompositionResult, FiberedField, InnerField,
                        NotInner, NotInvariant, NotPartialIsometry,
                        NotUnimodular, RangesDiffer, RankTooLarge, ScalarH2,
                        SymbolField, ToleranceAmbiguity, TruncationLattice,
                        WanderingRankNotOne, closure_range, decompose,
                        decompose_range, initial_space_base,
                        inner_from_invariant, inner_quotient,
                        phi_representation, range_of_phi, shat_closure,
                        subspace_distance)
from fibershift.beurling import phi_range_frames
from fibershift.factorization import constant_unitary, verify_per_fiber
from fibershift.shifts import shifted_copies
from fibershift.subspaces import orthonormal_frame

from helpers import (blaschke_coeffs, field_from_fibers, grid_seeds,
                     laurent_seeds, run_cli, write_problem)


def _scalar(coeff_list, n_z):
    c = np.zeros(n_z, dtype=complex)
    c[: len(coeff_list)] = coeff_list
    return ScalarH2(c)


def test_scalar_container():
    h = _scalar([0, 0, 1], 8)
    assert h.n_z == 8
    assert h.inner_defect() == 0.0
    with pytest.raises(ValueError):
        ScalarH2(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ScalarH2(np.zeros(0))


@pytest.mark.parametrize("n_z", [8, 64])
def test_inner_defect_is_the_rms_of_modulus_squared_minus_one(n_z):
    """h = (1 + z^(n_z - 1)) / sqrt(2) has |h|^2 - 1 = cos((n_z - 1) t), so
    R = 1/sqrt(2); a sampled max of ||h| - 1| read 1.0 here. |h|^2 - 1 has
    degree below n_z, so 2 n_z - 1 equispaced samples give its RMS exactly,
    and its max stays within sqrt(2 n_z - 1) R."""
    h = _scalar([1.0] + [0.0] * (n_z - 2) + [1.0], n_z).coeffs / np.sqrt(2)
    r = ScalarH2(h).inner_defect()
    assert abs(r - 2 ** -0.5) < 1e-15
    zeta = np.exp(2j * np.pi * np.arange(2 * n_z - 1) / (2 * n_z - 1))
    f = np.abs(np.polyval(h[::-1], zeta)) ** 2 - 1.0
    assert abs(np.sqrt(np.mean(f ** 2)) - r) < 1e-14
    assert np.abs(f).max() <= np.sqrt(2 * n_z - 1) * r


_Z = np.eye(16, dtype=complex)


@pytest.mark.parametrize("h, inner", [
    pytest.param(_Z[3], True, id="z^3"),
    pytest.param(blaschke_coeffs(0.1, 16), True, id="blaschke-0.1"),
    pytest.param(blaschke_coeffs(0.5, 16), False, id="blaschke-0.5"),
    pytest.param((_Z[0] + _Z[-1]) / np.sqrt(2), False, id="overlap"),
    pytest.param((1 + 1e-9) * _Z[1], True, id="z-times-1+1e-9"),
    pytest.param((1 + 1e-8) * _Z[1], False, id="z-times-1+1e-8"),
    pytest.param(0.5 * _Z[1], False, id="z-over-2")])
def test_inner_is_rigidity_at_k_1(h, inner):
    """Innerness is defined once: with ||h||^2 away from 0, initial_space_base
    on Phi = h passes exactly when inner_defect <= orth_tol, and a rigidity
    refusal reports the same R. The Blaschke factor of 1/2 truncated at
    n_z = 16 carries a tail of 2^-16 and fails both."""
    lat = TruncationLattice(1, 16, 1)
    r = ScalarH2(h).inner_defect()
    assert (r <= lat.orth_tol) == inner
    field = SymbolField(lat, h[None, :, None])
    if inner:
        assert initial_space_base(field).ranks().tolist() == [1]
    else:
        with pytest.raises(NotPartialIsometry) as err:
            initial_space_base(field)
        assert "eigenvalue" in str(err.value) or f"rigidity defect {r:.3e}" in str(err.value)


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


def _const_field(lat, coeffs_by_fiber, support):
    fibers = tuple(ScalarH2(c) for c in coeffs_by_fiber)
    return InnerField(lat, fibers, support)


def test_inner_field_validation():
    lat = TruncationLattice(2, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    field = _const_field(lat, (z1, np.zeros(8)), {0})
    assert field.inner_defects().tolist() == [0.0, 0.0]
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
    # one fiber of length n_z per grid point, read by the symbol's shape check
    with pytest.raises(ValueError, match="shape"):
        _const_field(lat, (z1,), {0})
    with pytest.raises(ValueError, match="shape"):
        _const_field(lat, (z1[:4], z1[:4]), {0})
    with pytest.raises(ValueError, match="out of range"):
        _const_field(lat, (z1, np.zeros(8)), {0, 2})
    # |phi| = 2 on the circle is a defect of 1.0, which no inner_tol in
    # (0, 1), the lattice's range, passes
    with pytest.raises(NotInner):
        _const_field(TruncationLattice(2, 8, 1, inner_tol=0.999), (2 * z1, np.zeros(8)), {0})


def test_inner_field_is_the_k_1_symbol():
    """An inner field is a ``SymbolField``: its fibers stacked into phi of
    shape (n_lambda, n_z, 1), its defects kept from construction, and
    ``op(m)`` the multiplication by phi(lambda_m)."""
    lat = TruncationLattice(3, 8, 1)
    phi = np.zeros((3, 8), dtype=complex)
    phi[0, 2] = 1j
    phi[2] = blaschke_coeffs(0.01, 8)
    field = _const_field(lat, phi, [2, np.int64(0)])
    assert isinstance(field, SymbolField)
    assert not hasattr(field, "coeff_matrix")
    assert field.support == frozenset({0, 2})
    assert all(type(m) is int for m in field.support)
    assert field.phi.shape == (3, 8, 1) and not field.phi.flags.writeable
    assert field.phi[:, :, 0].tolist() == phi.tolist()
    assert [f.coeffs.tolist() for f in field.fibers] == phi.tolist()
    assert field.inner_defects() is field.inner_defects()
    assert not field.inner_defects().flags.writeable
    assert field.inner_defects().dtype == float
    assert field.inner_defects()[2] == field.fibers[2].inner_defect() > 0.0
    assert np.array_equal(field.op(0), np.eye(8, k=-2) * 1j)


def test_inner_field_fails_a_nan_defect():
    """Non-finite coefficients are refused outright; finite ones whose
    products overflow give an inf or NaN defect, which fails the check (a
    worst-so-far comparison used to skip it), with no overflow warning."""
    lat = TruncationLattice(2, 8, 1)
    z1 = np.zeros(8, dtype=complex)
    z1[1] = 1.0
    with pytest.raises(ValueError, match="finite"):
        ScalarH2(np.where(np.arange(8) == 3, np.nan, z1))
    huge = np.full(8, 1.7e308, dtype=complex)
    assert not np.isfinite(ScalarH2(huge).inner_defect())
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


def _range_of_phi_per_fiber(phi):
    """The frames of ``range_of_phi`` spanned one supported fiber at a time,
    with an empty frame off the support."""
    lat = phi.lattice
    frames = []
    for m in range(lat.n_lambda):
        if m in phi.support:
            stack = shifted_copies(phi.fibers[m].coeffs[:, None], lat.n_z, 1, lat.n_z)
            frames.append(orthonormal_frame(stack, lat.rank_tol, fiber=m))
        else:
            frames.append(np.zeros((lat.n_z, 0), dtype=complex))
    return frames


@pytest.mark.parametrize("n, seed, support", [(16, 5, 16), (16, 12, 8), (64, 5, 64)])
def test_range_of_phi_matches_the_per_fiber_span(n, seed, support):
    """``range_of_phi`` spans phi's shifts with the closure's span kernel,
    and its frames are bit for bit those of the per-fiber loop, the empty
    frames off the support included; so are the frames ``phi_range_frames``
    yields one at a time, which ``beurling`` compares with J."""
    lat = TruncationLattice(n, n, 1)
    seeds = grid_seeds(np.random.default_rng(seed), lat, 1)
    phi = phi_representation(decompose(shat_closure(seeds), lat))
    assert len(phi.support) == support
    expected = _range_of_phi_per_fiber(phi)
    for frames in (range_of_phi(phi).frames, phi_range_frames(phi)):
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(frames, expected, strict=True))


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
    assert isinstance(psi, InnerField)
    assert psi.support == phi1.support
    for m in range(3):
        assert abs(psi.fibers[m].coeffs[0] - phases[m]) < 1e-12
        assert np.abs(psi.fibers[m].coeffs[1:]).max() == 0.0
        assert np.array_equal(psi.op(m), psi.phi[m, 0, 0] * np.eye(8))


def test_inner_quotient_holds_c_to_the_inner_defect():
    """Each constant is judged by the rigidity defect its quotient field is
    held to, at the lattice's inner_tol, and the failure is NotUnimodular
    even where both describing fields pass: for phi1 = phi2 = a z with
    |a|^2 - 1 = 0.8e-6, c = a^2 has ||c|^2 - 1| = 1.6e-6 > 1e-6."""
    z1 = np.eye(8, dtype=complex)[1]
    phi = _const_field(TruncationLattice(1, 8, 1), ((1 + 0.4e-6) * z1,), {0})
    with pytest.raises(NotUnimodular, match=r"quotient modulus 1\.000001 \(fiber 0\)"):
        inner_quotient(phi, phi)
    lat = TruncationLattice(1, 8, 1, inner_tol=1e-5)
    phi1 = _const_field(lat, ((1 + 0.75e-6) * z1,), {0})
    psi = inner_quotient(phi1, _const_field(lat, (z1,), {0}))
    assert psi.inner_defects()[0] == phi1.inner_defects()[0] <= 1e-5


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
    lat = TruncationLattice(2, 16, 1, inner_tol=0.2)
    z1 = np.zeros(16, dtype=complex)
    z1[1] = 1.0
    h2 = np.zeros(16, dtype=complex)
    h2[1], h2[2] = 1.0, 0.1
    h2 /= np.linalg.norm(h2)
    phi1 = _const_field(lat, (z1,) * 2, {0, 1})
    phi2 = _const_field(lat, (h2,) * 2, {0, 1})
    with pytest.raises(NotUnimodular):
        inner_quotient(phi1, phi2)


def _recipe_seed(rng, lat):
    """A k = 1 seed z^p prod (z - rho lambda^e) with 1-2 roots inside the
    disk (|rho| in [0.1, 0.4]) and 0-2 outside (|rho| in [2.5, 4]), and per
    fiber its inner factor z^p prod b_{rho lambda_m^e}, truncated at n_z."""
    p = int(rng.integers(0, 3))
    seed = np.zeros((lat.n_lambda, lat.n_z), dtype=complex)
    seed[:, p] = 1.0
    theta = seed.copy()
    n_in, n_out = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    for i, (lo, hi) in enumerate(((0.1, 0.4),) * n_in + ((2.5, 4.0),) * n_out):
        rho = (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
        for m, a in enumerate(rho * lat.lambda_power(int(rng.integers(-2, 3)))):
            seed[m] = np.convolve(seed[m], [-a, 1.0])[:lat.n_z]
            if i < n_in:
                theta[m] = np.convolve(theta[m], blaschke_coeffs(a, lat.n_z))[:lat.n_z]
    return FiberedField(lat, seed[:, :, None]), theta


@pytest.mark.parametrize("n_z", [32, 64])
def test_phi_is_the_inner_factor_of_the_seed(n_z):
    """Beurling's theorem on a recipe with known roots: the shifts of the
    seed span theta H^2, theta its inner factor, and phi is theta up to a
    unimodular constant per fiber, compared through ``constant_unitary`` as
    ``connecting_isometry`` compares symbols. n_z >= 32 keeps
    |rho|^n_z <= 2e-13 four decades below the rank cutoff, so the closure
    drops every inner root's direction; at n_z = 16 a root near |rho| = 0.4
    sits at the edge of the guard band."""
    lat = TruncationLattice(8, n_z, 1)
    worst = 0.0
    for rng_seed in range(20):
        seed, theta = _recipe_seed(np.random.default_rng(rng_seed), lat)
        phi = phi_representation(decompose_range(closure_range([seed], lat), [seed]))
        assert phi.support == frozenset(range(lat.n_lambda))
        for m in range(lat.n_lambda):
            _, iso, fact = constant_unitary(theta[m][:, None], phi.phi[m])
            worst = max(worst, iso, fact)
    assert worst <= 10 * lat.orth_tol, worst


@settings(max_examples=60, deadline=None)
@given(n_lambda=st.integers(1, 8), n_z=st.sampled_from([16, 32, 64]),
       noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_inner_defect_is_bounded_by_the_isometry_defect(n_lambda, n_z, noise, seed):
    """Per fiber, over the same A_d = phi* S^d phi,
    R^2 = |A_0 - 1|^2 + 2 sum_{d>=1} |A_d|^2 and
    ||G_W - I||_F^2 = n_z |A_0 - 1|^2 + 2 sum_{d>=1} (n_z - d) |A_d|^2, so the
    inner defect never exceeds the isometry defect, and with
    inner_tol >= orth_tol NotInner fires only where verify fails. Checked
    on k = 1 decompositions of random seeds, their symbols perturbed on the
    support."""
    lat = TruncationLattice(n_lambda, n_z, 1, inner_tol=0.5)
    rng = np.random.default_rng(seed)
    try:
        seeds = grid_seeds(rng, lat, 1)
        res = decompose_range(closure_range(seeds, lat), seeds)
    except (ToleranceAmbiguity, NotInvariant):
        assume(False)
    shape = res.field.phi.shape
    kick = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noisy = res.field.phi + noise * (res.ranks[:, None, None] > 0) * kick
    res = DecompositionResult(SymbolField(lat, noisy), res.ranks, res.diagnostics, res.seeds)
    inner = phi_representation(res).inner_defects()
    assert np.all(inner <= verify_per_fiber(res)["isometry_defect"])


def test_beurling_computes_each_inner_defect_once(tmp_path, monkeypatch):
    """A beurling run validates the inner field and prints its defects from
    one rigidity defect per supported fiber: 64 at (64, 64, 1)."""
    calls = []
    real = factorization.rigidity_defect

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (beurling, factorization):
        monkeypatch.setattr(module, "rigidity_defect", counting)
    lat = TruncationLattice(64, 64, 1)
    path = str(tmp_path / "p.txt")
    write_problem(path, lat, laurent_seeds(np.random.default_rng(3), lat, 1, vanish=False))
    code, out = run_cli(["beurling", path])
    assert code == 0 and "max inner defect" in out
    assert len(calls) == 64
