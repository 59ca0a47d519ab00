"""Decomposition through a full Hardy space and connecting fields."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibershift import (CONNECTING_KEYS, DIAGNOSTIC_KEYS, ImagesDiffer,
                        NotInvariant, NotPartialIsometry, SymbolField,
                        TruncationLattice, connecting_isometry, decompose,
                        decompose_range, RangeFunctionH, initial_space_base,
                        range_from_generators, shat_closure,
                        verify_decomposition)
from fibershift.factorization import DecompositionResult, verify_per_fiber
from fibershift.fields import z_degree
from fibershift.shifts import shifted_copies
from fibershift.subspaces import DEGREE_TOL

from helpers import (field_from_fibers, frame_projector, grid_seeds, haar_frame,
                     haar_unitary, shift_matrix, unit_vector, with_frame,
                     with_tilted_extra_direction, z_e1_range)


def _monomial_gens(lat, degree):
    col = np.zeros((lat.n_z, lat.k), dtype=complex)
    col[degree, 0] = 1.0
    return shat_closure([field_from_fibers(lat, [col] * lat.n_lambda)])


def test_monomial_decomposition_exact():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 2), lat)
    assert all(v == 0.0 for v in res.diagnostics.values())
    assert list(res.ranks) == [1, 1, 1, 1]
    # first column of F is the frame vector itself: the monomial z^2
    f0 = res.field.op(0)[:, 0]
    expected = np.zeros(lat.ambient, dtype=complex)
    expected[2] = 1.0
    assert np.abs(f0 - expected).max() == 0.0


def test_unclosed_seeds_raise():
    rng = np.random.default_rng(50)
    lat = TruncationLattice(4, 16, 2)
    with pytest.raises(NotInvariant):
        decompose(grid_seeds(rng, lat, 1), lat)


def test_decompose_random_closure():
    # n_z = 32: an inner root rho of a seed symbol leaves a singular value
    # near rho**n_z in the truncated closure, which straddles the rank
    # cutoff for n_z = 16 but falls far below it from 32 up
    rng = np.random.default_rng(51)
    lat = TruncationLattice(6, 32, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    res = decompose(gens, lat)
    assert set(res.diagnostics) == set(DIAGNOSTIC_KEYS)
    assert max(res.diagnostics.values()) < 1e-8
    assert max(res.ranks) <= lat.k
    # base spans are nested coordinate spans
    for m in range(lat.n_lambda):
        r = res.base.rank(m)
        assert np.array_equal(res.base.frames[m], np.eye(lat.k)[:, :r])
        # column j*k + i of F is phi_i shifted j times, and zero for i >= r
        expected = np.zeros((lat.ambient, lat.ambient), dtype=complex)
        col = res.field.phi[m][:, :r]
        for j in range(lat.n_z):
            expected[:, j * lat.k: j * lat.k + r] = col
            col = shift_matrix(lat) @ col
        assert np.array_equal(res.field.op(m), expected)


def test_result_stores_only_the_symbol():
    lat = TruncationLattice(4, 8, 2)
    res = decompose(_monomial_gens(lat, 1), lat)
    arrays = [key for key, v in vars(res.field).items() if isinstance(v, np.ndarray)]
    assert arrays == ["phi"]
    assert res.field.phi.shape == (lat.n_lambda, lat.ambient, lat.k)
    assert list(res.ranks) == [1] * 4
    assert not np.any(res.field.phi[:, :, 1])  # zero past the wandering rank
    with pytest.raises(ValueError, match="wandering rank"):
        DecompositionResult(res.field, [3] * 4, {})


def test_verify_against_wrong_target():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 1), lat)
    wrong = range_from_generators(_monomial_gens(lat, 2), lat)
    diags = verify_decomposition(res, wrong)
    assert diags["image_defect"] > 0.1


def test_cover_reads_an_extra_direction_linearly():
    """An extra direction of J tilted delta into the band lies outside the
    image there. The cover reads delta; the band projector distance it
    replaces read delta**2, 1e-10 at delta = 1e-5, under orth_tol."""
    lat = TruncationLattice(4, 8, 2)
    jm = z_e1_range(lat)
    res = decompose_range(jm)
    assert res.diagnostics["image_defect"] == 0.0
    for delta in (1e-3, 1e-5, 1e-7):
        diags = verify_decomposition(res, with_tilted_extra_direction(jm, delta))
        assert diags["image_defect"] == pytest.approx(delta, rel=1e-6)
    assert verify_decomposition(res, with_tilted_extra_direction(jm, 1e-5))[
        "image_defect"] >= 1e-6


def test_cover_stays_linear_for_a_tilted_tail_direction():
    """J's frame column z^(n_z - 1) e_1 lies past the band. Tilting it by
    delta towards the band direction e_2 z^0 moves J off the image by
    delta."""
    lat = TruncationLattice(4, 8, 2)
    jm = z_e1_range(lat)
    res = decompose_range(jm)
    q = jm.frames[0]
    for delta in (1e-3, 1e-5, 1e-7):
        tilted = np.array(q)
        tilted[:, -1] = np.cos(delta) * q[:, -1] + np.sin(delta) * unit_vector(lat, 0, 1)
        diags = verify_decomposition(res, with_frame(jm, 0, tilted))
        assert diags["image_defect"] == pytest.approx(delta, rel=1e-6)


def _count_solver_calls(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Record (name, input shape) of every svd, eigvalsh and eigh call."""
    calls = []

    def counting(real):
        def solver(a, *args, **kwargs):
            calls.append((real.__name__, a.shape))
            return real(a, *args, **kwargs)
        return solver

    for name in ("svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls


def test_verify_runs_no_svd_and_no_ambient_eigenproblem(monkeypatch):
    """Cost guard: every defect is a Frobenius norm, so verification makes
    no SVD and no eigenproblem of any size. At (1,16,2) with n = 1 the
    2-norm route ran one 16 x 16 eigenproblem per defect."""
    rng = np.random.default_rng(14)
    lat = TruncationLattice(1, 16, 2)
    jm = range_from_generators(shat_closure(grid_seeds(rng, lat, 1)), lat)
    res = decompose_range(jm)
    assert int(res.ranks[0]) == 1
    calls = _count_solver_calls(monkeypatch)
    per = verify_per_fiber(res, jm)
    assert calls == []
    assert max(float(v.max()) for v in per.values()) < lat.orth_tol


def _dense_range(lat: TruncationLattice, frame: np.ndarray) -> RangeFunctionH:
    return RangeFunctionH(lat, (frame,) * lat.n_lambda)


def _corrupted(defect: str):
    """A symbol and a target that the named defect alone must catch, with
    the value that defect reads."""
    if defect == "isometry":
        # phi_1 = z e_1 scaled by 1 + 1e-6: G - I = 2.000001e-6 I on all n_z
        # shifts of phi_1 in H^2
        lat = TruncationLattice(4, 8, 2)
        jm = z_e1_range(lat)
        res = decompose_range(jm)
        phi = np.array(res.field.phi) * (1.0 + 1e-6)
        expected = (2e-6 + 1e-12) * np.sqrt(lat.n_z)
        return DecompositionResult(SymbolField(lat, phi), res.ranks, {}), jm, \
            "isometry_defect", expected
    if defect == "contain":
        # W = H^2 e_1 against J = z H^2 e_1: the column e_1 lies outside J
        lat = TruncationLattice(4, 8, 2)
        full = _dense_range(lat, np.column_stack(
            [unit_vector(lat, d, 0) for d in range(lat.n_z)]))
        return decompose_range(full), z_e1_range(lat), "image_defect", 1.0
    if defect == "cover":
        # J = z H^2 e_1 plus e_2 z^(n_z - 1) tilted 1e-5 towards e_2 z^0
        lat = TruncationLattice(4, 8, 2)
        jm = z_e1_range(lat)
        return decompose_range(jm), with_tilted_extra_direction(jm, 1e-5), \
            "image_defect", 1e-5
    # overlap: phi = (1 + z^40)/sqrt(2) has A_0 = 1 and A_40 = 1/2, which
    # sits 64 - 40 = 24 times above the diagonal of G and 24 times below:
    # ||G - I||_F^2 = 48/4 = 12. Its shifts inside the band 0 .. 23 are
    # orthonormal, so a Gram on the band alone reads 0.
    lat = TruncationLattice(1, 64, 1)
    phi = np.zeros((1, lat.ambient, 1), dtype=complex)
    phi[0, [0, 40], 0] = 1.0 / np.sqrt(2.0)
    res = DecompositionResult(SymbolField(lat, phi), [1], {})
    jm = _dense_range(lat, np.eye(lat.ambient, dtype=complex))
    return res, jm, "isometry_defect", np.sqrt(12.0)


@pytest.mark.parametrize("defect", ["isometry", "contain", "cover", "overlap"])
def test_each_defect_fails_on_its_own_corruption(defect):
    """Every check can fail: each corruption drives its defect past
    orth_tol, to the Frobenius norm worked out by hand."""
    res, jm, key, expected = _corrupted(defect)
    diags = verify_decomposition(res, jm)
    assert diags[key] == pytest.approx(expected, rel=1e-6)
    assert diags[key] > 10 * jm.lattice.orth_tol


def _band_references(phi: np.ndarray, n_z: int, k: int) -> tuple[float, float]:
    """The two band-limited checks the isometry defect replaced, for the
    columns ``phi``: the Gram ||W_b* W_b - I||_F of the shifts inside the
    band and the image leak ||S W_b' - W W* S W_b'||_F of the shifts of its
    first layers, with W all n_z truncated shifts."""
    n = phi.shape[1]
    b = n_z - 1 - max(z_degree(phi.reshape(n_z, -1), DEGREE_TOL), 0)
    w = shifted_copies(phi, n_z, k, n_z)
    band = w[:, : n * (b + 1)]
    shifted = w[:, n: n * (b + 1)]
    return (float(np.linalg.norm(band.conj().T @ band - np.eye(band.shape[1]))),
            float(np.linalg.norm(shifted - w @ (w.conj().T @ shifted))))


@settings(max_examples=150, deadline=None)
@given(n_z=st.integers(2, 8), k=st.integers(1, 3), data=st.data(),
       scale=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_isometry_defect_bounds_the_band_checks(n_z, k, data, scale, seed):
    """The exact defect ||G - I||_F is never below the band Gram (a block
    of G - I) and bounds the image leak ||W (I - W* W) E||_F by
    ||W||_2 ||G - I||_F <= sqrt(1 + ||G - I||_F) ||G - I||_F. Symbols are
    inner (constant unitary columns at degree p) plus noise below degree
    D, so the band is not trivial."""
    n = data.draw(st.integers(1, k))
    top = data.draw(st.integers(1, n_z))
    p = data.draw(st.integers(0, top - 1))
    rng = np.random.default_rng(seed)
    lat = TruncationLattice(1, n_z, k)
    phi = np.zeros((1, lat.ambient, k), dtype=complex)
    phi[0, p * k:(p + 1) * k, :n] = haar_frame(rng, k, n)
    noise = rng.standard_normal((top * k, n)) + 1j * rng.standard_normal((top * k, n))
    phi[0, : top * k, :n] += scale * noise
    res = DecompositionResult(SymbolField(lat, phi), [n], {})
    new = float(verify_per_fiber(res, _dense_range(lat, np.eye(lat.ambient)))[
        "isometry_defect"][0])
    band_gram, leak = _band_references(phi[0, :, :n], n_z, k)
    assert new >= band_gram - 1e-10
    assert np.sqrt(1.0 + new) * new >= leak - 1e-10


@pytest.mark.xfail(strict=True, reason="the cover never reads target rows above "
                   "the band, so a wrong wandering dimension verifies")
def test_verify_fails_a_wrong_wandering_dimension():
    """Phi = z e_1 decomposes J = z H^2 e_1 at (1, 8, 2). J' = J + span(z^7 e_2)
    is S-invariant with wandering dimension 2, so Phi does not factor it;
    every defect still reads 0.0, as z^7 e_2 sits above the band."""
    lat = TruncationLattice(1, 8, 2)
    jm = z_e1_range(lat)
    res = decompose_range(jm)
    wider = with_frame(jm, 0, np.column_stack([jm.frames[0], unit_vector(lat, 7, 1)]))
    assert list(res.ranks) == [1]
    assert list(decompose_range(wider).ranks) == [2]
    assert max(verify_decomposition(res, wider).values()) > lat.orth_tol


@pytest.mark.parametrize("bad", [1e-3, np.nan])
def test_decomposition_refuses_mass_past_the_rank(bad):
    """A partial isometry starting on the full Hardy space over the base has
    no mass off it: a symbol nonzero (or NaN, set behind SymbolField's
    check) past the wandering rank is refused."""
    lat = TruncationLattice(4, 8, 2)
    res = decompose_range(z_e1_range(lat))
    phi = np.array(res.field.phi)
    phi[2, 5, 1] = bad
    field = SymbolField(lat, np.zeros_like(phi))
    object.__setattr__(field, "phi", phi)
    with pytest.raises(ValueError, match="nonzero past the wandering rank at fiber 2"):
        DecompositionResult(field, res.ranks, {})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symbol_field_rejects_non_finite(bad):
    lat = TruncationLattice(4, 4, 2)
    phi = np.zeros((4, lat.ambient, 2), dtype=complex)
    phi[1, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SymbolField(lat, phi)


def test_connecting_isometry_remixed_generators():
    rng = np.random.default_rng(52)
    lat = TruncationLattice(6, 32, 2)
    gens = shat_closure(grid_seeds(rng, lat, 2))
    u = haar_unitary(rng, len(gens))
    remixed = [sum((gens[b].scaled(u[b, a]) for b in range(1, len(gens))),
                   gens[0].scaled(u[0, a])) for a in range(len(gens))]
    res1 = decompose(gens, lat)
    res2 = decompose(remixed, lat)
    psi, worst = connecting_isometry(res1, res2)
    assert set(worst) == set(CONNECTING_KEYS)
    assert max(worst.values()) < 1e-8
    assert psi.phi.shape == (6, lat.ambient, lat.k)


@settings(max_examples=100, deadline=None)
@given(n_lambda=st.integers(1, 3), n_z=st.integers(1, 6), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_connecting_field_is_the_constant_unitary(n_lambda, n_z, k, seed):
    """Phi2 = Phi1 V with V unitary per fiber: the connecting field's symbol
    is V at degree 0, its fiber operator is I (x) V, and it commutes with the
    shift exactly."""
    rng = np.random.default_rng(seed)
    lat = TruncationLattice(n_lambda, n_z, k)
    ranks = rng.integers(0, k + 1, n_lambda)
    phi1 = np.zeros((n_lambda, lat.ambient, k), dtype=complex)
    phi2 = np.zeros_like(phi1)
    vs = []
    for m, n in enumerate(ranks):
        v = np.zeros((k, k), dtype=complex)
        v[:n, :n] = haar_unitary(rng, n)
        phi1[m, :, :n] = haar_frame(rng, lat.ambient, n)
        phi2[m] = phi1[m] @ v
        vs.append(v)
    res1 = DecompositionResult(SymbolField(lat, phi1), ranks, {})
    res2 = DecompositionResult(SymbolField(lat, phi2), ranks, {})
    psi, worst = connecting_isometry(res1, res2)
    assert max(worst.values()) < 1e-13
    for m, v in enumerate(vs):
        assert np.abs(psi.phi[m][:k] - v).max() < 1e-13
        assert not np.any(psi.phi[m][k:])
        assert np.abs(psi.op(m) - np.kron(np.eye(n_z), v)).max() < 1e-13


def test_connecting_isometry_rejects_factorization_off_the_images():
    """A 1e-6 move of Phi2 orthogonal to Phi1 leaves U = Phi1* Phi2 unitary;
    only the factorization defect ||Phi2 - Phi1 U|| sees it."""
    rng = np.random.default_rng(53)
    lat = TruncationLattice(6, 32, 2)
    res1 = decompose(shat_closure(grid_seeds(rng, lat, 1)), lat)
    m = int(np.flatnonzero(res1.ranks == 1)[-1])
    phi2 = res1.field.phi * np.exp(0.7j)
    # at degree 3, the coordinate direction orthogonal to phi_1's
    block = phi2[m, 3 * lat.k: 4 * lat.k, 0]
    phi2[m, 3 * lat.k: 4 * lat.k, 0] += 1e-6 * np.array([-block[1], block[0]]).conj() \
        / np.linalg.norm(block)
    assert np.abs(res1.field.phi[m][:, 0].conj() @ phi2[m, :, 0]) == pytest.approx(1.0, abs=1e-14)
    res2 = DecompositionResult(SymbolField(lat, phi2), res1.ranks, {})
    with pytest.raises(ImagesDiffer, match="images") as err:
        connecting_isometry(res1, res2)
    assert err.value.fiber == m


def test_connecting_isometry_rejects_partition_mismatch():
    lat = TruncationLattice(4, 8, 2)
    res1 = decompose(_monomial_gens(lat, 1), lat)
    cols = np.zeros((2, lat.n_z, lat.k), dtype=complex)
    cols[0, 0, 0] = 1.0
    cols[1, 0, 1] = 1.0
    full = [field_from_fibers(lat, [c] * 4) for c in cols]
    res2 = decompose(shat_closure(full), lat)
    with pytest.raises(ImagesDiffer, match="partition"):
        connecting_isometry(res1, res2)


def test_connecting_isometry_rejects_different_images():
    lat = TruncationLattice(4, 8, 1)
    res1 = decompose(_monomial_gens(lat, 1), lat)
    res2 = decompose(_monomial_gens(lat, 2), lat)
    with pytest.raises(ImagesDiffer, match="images"):
        connecting_isometry(res1, res2)


def _assert_base_is(res, base):
    for m in range(res.lattice.n_lambda):
        assert np.abs(frame_projector(base.frames[m])
                      - frame_projector(res.base.frames[m])).max() < 1e-8


def test_initial_space_roundtrip():
    rng = np.random.default_rng(54)
    lat = TruncationLattice(6, 16, 2)
    col = np.zeros((lat.n_z, lat.k), dtype=complex)
    col[0] = haar_frame(rng, 2, 1)[:, 0]
    gens = [field_from_fibers(lat, [col] * lat.n_lambda)]
    res = decompose(shat_closure(gens), lat)
    _assert_base_is(res, initial_space_base(res.field))


def test_initial_space_accepts_frames_of_positive_degree():
    """Frames of positive degree clip at the top of the truncated F, whose
    singular values then stray from 0 and 1 (0.9936 at fiber 0). Read off
    the untruncated symbol, the field is rigid and starts on res.base."""
    rng = np.random.default_rng(56)
    lat = TruncationLattice(6, 16, 2)
    res = decompose(shat_closure(grid_seeds(rng, lat, 1)), lat)
    s = np.linalg.svd(res.field.op(0), compute_uv=False)
    assert np.any((s > 0.5) & (s < 1.0 - 1e-3))
    _assert_base_is(res, initial_space_base(res.field))


def test_initial_space_rejects_contraction():
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 1), lat)
    with pytest.raises(NotPartialIsometry, match="eigenvalue 0.250000") as err:
        initial_space_base(SymbolField(lat, 0.5 * res.field.phi))
    assert err.value.fiber == 0


def test_initial_space_rejects_overlapping_shifts_by_rigidity_alone():
    """phi = (1 + z^40)/sqrt(2) has A_0 = 1, so the eigenvalue check passes;
    A_40 = 1/2 makes the rigidity defect sqrt(2 * 1/4) = 0.707."""
    res, _, _, _ = _corrupted("overlap")
    phi = res.field.phi[0]
    assert np.abs(phi.conj().T @ phi - 1.0).max() < 1e-15
    with pytest.raises(NotPartialIsometry, match="rigidity defect 7.071e-01"):
        initial_space_base(res.field)


def test_initial_space_rejects_overflowing_symbol():
    """A finite entry near 1e+200 overflows Phi* Phi: the eigenvalue gate
    refuses the inf at that fiber, with no overflow warning escaping."""
    lat = TruncationLattice(4, 8, 1)
    res = decompose(_monomial_gens(lat, 1), lat)
    phi = np.array(res.field.phi)
    phi[2, 3, 0] = 1e200
    with pytest.raises(NotPartialIsometry, match="eigenvalue inf") as err:
        initial_space_base(SymbolField(lat, phi))
    assert err.value.fiber == 2


def test_initial_space_of_zero_symbol_is_empty():
    """Phi = 0 is the zero partial isometry: it starts on the zero space."""
    lat = TruncationLattice(3, 4, 2)
    base = initial_space_base(SymbolField(lat, np.zeros((3, lat.ambient, lat.k))))
    assert list(base.ranks()) == [0, 0, 0]


def test_initial_space_follows_constant_unitaries_and_degree_shifts():
    """Phi -> (I (x) U) z^2 Phi V keeps Phi rigid and moves the base to V* base:
    a constant unitary on the left and a power of z leave Phi* Phi alone."""
    rng = np.random.default_rng(54)
    lat = TruncationLattice(6, 16, 2)
    col = np.zeros((lat.n_z, lat.k), dtype=complex)
    col[0] = haar_frame(rng, 2, 1)[:, 0]
    res = decompose(shat_closure([field_from_fibers(lat, [col] * lat.n_lambda)]), lat)
    u, v = haar_unitary(rng, lat.k), haar_unitary(rng, lat.k)
    blocks = res.field.phi.reshape(lat.n_lambda, lat.n_z, lat.k, lat.k)
    assert not np.any(blocks[:, -2:])
    moved = np.zeros_like(blocks)
    moved[:, 2:] = u @ blocks[:, :-2] @ v
    base = initial_space_base(SymbolField(lat, moved.reshape(res.field.phi.shape)))
    for m in range(lat.n_lambda):
        assert np.abs(frame_projector(base.frames[m])
                      - frame_projector(v.conj().T @ res.base.frames[m])).max() < 1e-8


def test_initial_space_runs_no_svd_and_only_coordinate_eigenproblems(monkeypatch):
    """Cost guard: per fiber one k x k eigenproblem, no SVD and nothing of
    the ambient size n_z * k."""
    rng = np.random.default_rng(56)
    lat = TruncationLattice(6, 16, 2)
    res = decompose(shat_closure(grid_seeds(rng, lat, 1)), lat)
    calls = _count_solver_calls(monkeypatch)
    initial_space_base(res.field)
    assert calls == [("eigh", (lat.k, lat.k))] * lat.n_lambda


def test_readme_library_block_runs(capsys):
    """The README's "Library use" example runs as printed."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0]) == [1] * 64
    assert out[1] == str(dict.fromkeys(DIAGNOSTIC_KEYS, 0.0))
    assert float(out[2]) < 1e-12
