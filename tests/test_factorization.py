"""Decomposition through a full Hardy space and connecting fields."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibershift import (CONNECTING_KEYS, DIAGNOSTIC_KEYS, FiberedField,
                        FibershiftError, ImagesDiffer, NotInvariant,
                        NotPartialIsometry,
                        SymbolField, TruncationLattice, closure_range,
                        connecting_isometry, decompose, decompose_range,
                        initial_space_base, shat_closure, verify_decomposition)
from fibershift.factorization import DecompositionResult, verify_per_fiber
from fibershift.fields import z_degree
from fibershift.shifts import shifted_copies
from fibershift.subspaces import DEGREE_TOL

from helpers import (field_from_fibers, frame_projector, grid_seeds, haar_frame,
                     haar_unitary, shift_matrix, symbol_seeds, z_e1_range,
                     z_e1_seed)


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


def test_wandering_ranks_match_the_generic_rank():
    """By Beurling-Lax-Halmos the wandering dimension at lambda_m is the
    generic rank of the seeds G(lambda_m, .) = sum_j data[m, j] zeta^j: the
    largest rank, at rank_tol, of the k x r matrix G(lambda_m, zeta) over 3
    random |zeta| < 0.9. The oracle never looks at the truncation. Over
    (8, 32, k), k = 1..4, r = k seeds, each problem is refused (a
    FibershiftError) or passes its diagnostics with the oracle's ranks; all
    12 pass, so a new refusal here loses a pass."""
    passed = 0
    for k in (1, 2, 3, 4):
        lat = TruncationLattice(8, 32, k)
        for rng_seed in (3, 4, 5):
            rng = np.random.default_rng(rng_seed)
            seeds = grid_seeds(rng, lat, k)
            zeta = 0.9 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
            g = np.einsum("tj,rmji->mtir", zeta[:, None] ** np.arange(lat.n_z),
                          np.stack([s.data for s in seeds]))
            s = np.linalg.svd(g, compute_uv=False)
            oracle = np.max(np.sum(s > lat.rank_tol * s[..., :1], axis=-1), axis=1)
            try:
                res = decompose_range(closure_range(seeds, lat), seeds)
            except FibershiftError:
                continue
            assert max(res.diagnostics.values()) <= lat.orth_tol, (k, rng_seed)
            assert res.ranks.tolist() == oracle.tolist(), (k, rng_seed)
            passed += 1
    assert passed == 12


def test_result_stores_only_the_symbol():
    lat = TruncationLattice(4, 8, 2)
    res = decompose(_monomial_gens(lat, 1), lat)
    arrays = [key for key, v in vars(res.field).items() if isinstance(v, np.ndarray)]
    assert arrays == ["phi"]
    assert res.field.phi.shape == (lat.n_lambda, lat.ambient, lat.k)
    assert list(res.ranks) == [1] * 4
    assert not np.any(res.field.phi[:, :, 1])  # zero past the wandering rank
    with pytest.raises(ValueError, match="wandering rank"):
        DecompositionResult(res.field, [3] * 4, {}, res.seeds)


def _seed(lat: TruncationLattice, *terms: tuple[int, int, complex]) -> FiberedField:
    """The seed sum of c z^degree e_(coord + 1) over ``terms``, on every fiber."""
    data = np.zeros((lat.n_lambda, lat.n_z, lat.k), dtype=complex)
    for degree, coord, c in terms:
        data[:, degree, coord] += c
    return FiberedField(lat, data)


def _held_to(res: DecompositionResult, seeds) -> DecompositionResult:
    """``res`` with its symbol held to other seeds."""
    return DecompositionResult(res.field, res.ranks, {}, seeds)


def _z_e1_decomposition(lat: TruncationLattice) -> DecompositionResult:
    return decompose_range(z_e1_range(lat), [z_e1_seed(lat)])


@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_verify_against_wrong_target(held):
    """Phi = z checked against the seed z^2, whose H^2 span misses z: the
    seed cannot generate the image (A_0 = <z, z^2> = 0 is singular and
    reads inf). Phi = z^2 checked against the seeds z^2 and z: the seeds
    generate the image, but z lies outside it, and containment reads its
    whole unit norm. Held to the seeds' closure, both read the same."""
    lat = TruncationLattice(4, 8, 1)
    res1 = decompose(_monomial_gens(lat, 1), lat)
    res2 = decompose(_monomial_gens(lat, 2), lat)
    assert verify_decomposition(_held_to(res1, held([_seed(lat, (2, 0, 1.0))]))) == {
        "isometry_defect": 0.0, "image_defect": np.inf}
    seeds = [_seed(lat, (2, 0, 1.0)), _seed(lat, (1, 0, 1.0))]
    assert verify_decomposition(_held_to(res2, held(seeds))) == {
        "isometry_defect": 0.0, "image_defect": 1.0}


@pytest.mark.parametrize("degree", [0, 7], ids=["band", "top"])
@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_seed_tilted_out_of_the_image_reads_linearly(degree, held):
    """Phi = z e_1 held to z e_1 and to z^3 e_1 tilted by delta towards
    z^degree e_2, outside Phi H^2: the image defect reads sin(delta), at
    degree 0 and at the top degree n_z - 1 alike (the band cover it replaced
    never read rows past the band; a band projector distance read delta**2,
    1e-10 at delta = 1e-5, under orth_tol)."""
    lat = TruncationLattice(4, 8, 2)
    res = _z_e1_decomposition(lat)
    assert res.diagnostics == dict.fromkeys(DIAGNOSTIC_KEYS, 0.0)
    for delta in (1e-3, 1e-5, 1e-7):
        tilted = _seed(lat, (3, 0, np.cos(delta)), (degree, 1, np.sin(delta)))
        diags = verify_decomposition(_held_to(res, held([z_e1_seed(lat), tilted])))
        assert diags["image_defect"] == pytest.approx(np.sin(delta), rel=1e-9)
        assert diags["image_defect"] > 10 * lat.orth_tol or delta < 1e-6


def test_image_defect_ignores_the_scale_of_a_seed():
    """Each seed is scaled to unit norm per fiber, so multiplying one seed
    by 1e6 leaves the image defect unchanged up to rounding, here on a
    seed tilted 1e-3 out of the image."""
    lat = TruncationLattice(4, 8, 2)
    res = _z_e1_decomposition(lat)
    tilted = _seed(lat, (3, 0, np.cos(1e-3)), (0, 1, np.sin(1e-3)))
    base = verify_decomposition(_held_to(res, [z_e1_seed(lat), tilted]))
    big = FiberedField(lat, 1e6 * z_e1_seed(lat).data)
    scaled = verify_decomposition(_held_to(res, [big, tilted]))
    assert scaled["image_defect"] == pytest.approx(base["image_defect"], rel=1e-12)
    assert base["image_defect"] == pytest.approx(np.sin(1e-3), rel=1e-9)


def test_seed_below_the_rank_cutoff_reads_as_zero():
    """A seed that vanishes up to rounding at one fiber (1e-20 next to a
    unit seed) is below the rank cutoff that built J, so J and Phi leave it
    out there; verification reads it as zero instead of scaling its
    direction up to a unit column outside the image."""
    lat = TruncationLattice(2, 8, 2)
    data = np.zeros((2, 8, 2), dtype=complex)
    data[:, 0, 1] = [1e-20, 1.0]
    seeds = [z_e1_seed(lat), FiberedField(lat, data)]
    res = decompose_range(closure_range(seeds, lat), seeds)
    assert list(res.ranks) == [1, 2]
    assert max(res.diagnostics.values()) < 1e-15


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
    seeds = grid_seeds(rng, lat, 1)
    res = decompose_range(closure_range(seeds, lat), seeds)
    assert int(res.ranks[0]) == 1
    calls = _count_solver_calls(monkeypatch)
    per = verify_per_fiber(res)
    assert calls == []
    assert max(float(v.max()) for v in per.values()) < lat.orth_tol


def _corrupted(defect: str, held=list):
    """A decomposition held to seeds that the named defect alone must catch
    (or to what ``held`` makes of them), with the value that defect reads."""
    if defect == "isometry":
        # phi_1 = z e_1 scaled by 1 + 1e-6: G - I = 2.000001e-6 I on all n_z
        # shifts of phi_1 in H^2
        lat = TruncationLattice(4, 8, 2)
        res = _z_e1_decomposition(lat)
        phi = np.array(res.field.phi) * (1.0 + 1e-6)
        expected = (2e-6 + 1e-12) * np.sqrt(lat.n_z)
        return DecompositionResult(SymbolField(lat, phi), res.ranks, {},
                                   held(res.seeds)), "isometry_defect", expected
    if defect == "contain":
        # Phi = z e_1 held to z e_1 and e_2: the seed e_2 lies outside Phi H^2
        lat = TruncationLattice(4, 8, 2)
        seeds = [z_e1_seed(lat), _seed(lat, (0, 1, 1.0))]
        return _held_to(_z_e1_decomposition(lat), held(seeds)), "image_defect", 1.0
    if defect == "generate":
        # Phi = e_1 held to z e_1: the seed lies in Phi H^2 but generates only
        # z H^2 e_1, and A_0 = <e_1, z e_1> = 0 is singular, which reads inf
        lat = TruncationLattice(4, 8, 2)
        res = decompose(shat_closure([_seed(lat, (0, 0, 1.0))]), lat)
        return _held_to(res, held([z_e1_seed(lat)])), "image_defect", np.inf
    # overlap: phi = (1 + z^40)/sqrt(2) has A_0 = 1 and A_40 = 1/2, which
    # sits 64 - 40 = 24 times above the diagonal of G and 24 times below:
    # ||G - I||_F^2 = 48/4 = 12. Its shifts inside the band 0 .. 23 are
    # orthonormal, so a Gram on the band alone reads 0.
    lat = TruncationLattice(1, 64, 1)
    phi = np.zeros((1, lat.ambient, 1), dtype=complex)
    phi[0, [0, 40], 0] = 1.0 / np.sqrt(2.0)
    res = DecompositionResult(SymbolField(lat, phi), [1], {}, held(symbol_seeds(lat, phi)))
    return res, "isometry_defect", np.sqrt(12.0)


@pytest.mark.parametrize("defect", ["isometry", "contain", "generate", "overlap"])
@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_each_defect_fails_on_its_own_corruption(defect, held):
    """Every check can fail: each corruption drives its defect past
    orth_tol, to the Frobenius norm worked out by hand, held to its seeds
    or to their closure."""
    res, key, expected = _corrupted(defect, held)
    diags = verify_decomposition(res)
    assert diags[key] == pytest.approx(expected, rel=1e-6)
    assert diags[key] > 10 * res.lattice.orth_tol


def _band_references(phi: np.ndarray, n_z: int, k: int) -> tuple[float, float]:
    """The two band-limited checks the isometry defect replaced, for the
    columns ``phi``: the Gram ||W_b* W_b - I||_F of the shifts inside the
    band and the image leak ||S W_b' - W W* S W_b'||_F of the shifts of its
    first layers, with W all n_z truncated shifts."""
    n = phi.shape[1]
    b = n_z - 1 - max(z_degree(phi.reshape(n_z, -1), DEGREE_TOL), 0)
    w = shifted_copies(phi, n_z, k)
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
    res = DecompositionResult(SymbolField(lat, phi), [n], {}, symbol_seeds(lat, phi))
    new = float(verify_per_fiber(res)["isometry_defect"][0])
    band_gram, leak = _band_references(phi[0, :, :n], n_z, k)
    assert new >= band_gram - 1e-10
    assert np.sqrt(1.0 + new) * new >= leak - 1e-10


@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_verify_fails_a_wrong_wandering_dimension(held):
    """Phi = z e_1 decomposes J = z H^2 e_1 at (1, 8, 2). J' = J + span(z^7 e_2),
    spanned by the seeds z e_1 and z^7 e_2, is S-invariant with wandering
    dimension 2, so Phi does not factor it. The band cover read 0.0 here, as
    z^7 e_2 sits above the band; held to the seeds of J', containment reads
    the whole unit seed z^7 e_2."""
    lat = TruncationLattice(1, 8, 2)
    res = _z_e1_decomposition(lat)
    seeds = [z_e1_seed(lat), _seed(lat, (7, 1, 1.0))]
    assert list(res.ranks) == [1]
    assert list(decompose_range(closure_range(seeds, lat), seeds).ranks) == [2]
    diags = verify_decomposition(_held_to(res, held(seeds)))
    assert diags["isometry_defect"] == 0.0
    assert diags["image_defect"] > 0.5


def _h2_residual(res: DecompositionResult, seeds) -> float:
    """max over fibers of ||G - Phi P_+(Phi* G)||_F with unit seed columns:
    the distance of the seeds to Phi H^2 itself, not to its truncation."""
    lat = res.lattice
    out = 0.0
    for m in range(lat.n_lambda):
        phi = res.field.phi[m][:, :int(res.ranks[m])]
        w = shifted_copies(phi, lat.n_z, lat.k)
        g = np.array([s.fiber(m).reshape(-1) for s in seeds]).T
        g = g / np.linalg.norm(g, axis=0)
        out = max(out, float(np.linalg.norm(g - w @ (w.conj().T @ g))))
    return out


def test_image_defect_certifies_the_truncation_of_a_rational_inner_factor():
    """The seeds z e_1 + e_3/2 and e_2 - 4 z e_1 + z^3 e_3 span Theta H^2 with
    Theta rational but not a polynomial, so no Phi of degree below n_z is
    Theta, and the seeds keep a distance to Phi H^2 that closes
    geometrically in n_z. They lie in Phi H^2 + z^n_z H^2, the subspace a
    truncated decomposition stands for, so the image defect reads rounding
    at every n_z."""
    gaps = []
    for n_z in (16, 32, 64):
        lat = TruncationLattice(1, n_z, 3)
        seeds = [_seed(lat, (1, 0, 1.0), (0, 2, 0.5)),
                 _seed(lat, (0, 1, 1.0), (1, 0, -4.0), (3, 2, 1.0))]
        res = decompose_range(closure_range(seeds, lat), seeds)
        assert list(res.ranks) == [2]
        assert max(res.diagnostics.values()) < 1e-13
        gaps.append(_h2_residual(res, seeds))
    assert gaps[0] > 1e-3
    assert gaps[1] < 1e-2 * gaps[0] and gaps[2] < 1e-2 * gaps[1]


def test_truncated_shifts_certify_like_the_seed():
    """At (1, 8, 2) the seed s = (1, z)/sqrt(2) is inner, and its closure is
    decomposed by Phi = s. In H^2 the truncated shifts of s generate more
    than s does: S^7 s = z^7 e_1/sqrt(2) lost its z^8 e_2 term, and scaled
    to unit norm its part outside s H^2 is z^7 e_1/2 mod z^8, of norm 1/2.
    Mod z^8 both generate the same subspace, and held to either, the image
    defect reads rounding."""
    lat = TruncationLattice(1, 8, 2)
    s = _seed(lat, (0, 0, 1 / np.sqrt(2)), (1, 1, 1 / np.sqrt(2)))
    res = decompose_range(closure_range([s], lat), [s])
    assert list(res.ranks) == [1]
    assert max(res.diagnostics.values()) <= 1e-14
    closure = decompose(shat_closure([s]), lat)
    assert np.array_equal(closure.field.phi, res.field.phi)
    assert max(closure.diagnostics.values()) <= 1e-14
    assert _h2_residual(closure, shat_closure([s])) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("shape, r", [((16, 32, 2), 1), ((16, 32, 3), 3), ((8, 64, 1), 1)])
def test_decompose_of_a_closure_verifies_against_its_seeds(shape, r):
    """Verification drops each generator that is bitwise the truncated
    shift of the one before it, so ``decompose`` on a closure returns the
    Phi, ranks and diagnostics of the seeds, byte for byte, and carries the
    closure. Holding Phi to every shift read the image defect 1.3e-15
    against the seeds' 2.0e-16 at (16, 32, 2)."""
    lat = TruncationLattice(*shape)
    seeds = grid_seeds(np.random.default_rng(20), lat, r)
    gens = shat_closure(seeds)
    res = decompose(gens, lat)
    ref = decompose_range(closure_range(seeds, lat), seeds)
    assert res.field.phi.tobytes() == ref.field.phi.tobytes()
    assert res.ranks.tobytes() == ref.ranks.tobytes()
    assert np.array([res.diagnostics[key] for key in DIAGNOSTIC_KEYS]).tobytes() \
        == np.array([ref.diagnostics[key] for key in DIAGNOSTIC_KEYS]).tobytes()
    assert res.seeds == tuple(gens) and len(gens) > len(seeds)


def test_generation_is_read_mod_z_to_the_n_z():
    """At (1, 8, 1) the seed 1 - 2z is invertible mod z^8, so its truncated
    shifts span every series and Phi = 1 decomposes them. In H^2 the seed
    spans only b H^2, b the Blaschke factor with zero 1/2. At n_z <= 16 no
    check on the first n_z coefficients can tell, and the image defect
    reads rounding. Past that the truncated Toeplitz matrix of the seed has
    a singular value (about 2^-n_z) below the rank cutoff, so the closure
    drops its direction and the zero can be told: decompose keeps it, and
    verify does not yet see it (the strict xfail below)."""
    lat = TruncationLattice(1, 8, 1)
    s = _seed(lat, (0, 0, 1.0), (1, 0, -2.0))
    res = decompose_range(closure_range([s], lat), [s])
    assert list(res.ranks) == [1]
    assert np.abs(np.abs(res.field.phi[0, :, 0]) - np.eye(8)[0]).max() < 1e-12
    assert max(res.diagnostics.values()) < 1e-14


def _one_against_1_minus_2z(n_z: int):
    lat = TruncationLattice(1, n_z, 1)
    seed = _seed(lat, (0, 0, 1.0), (1, 0, -2.0))
    phi = np.zeros((1, n_z, 1), dtype=complex)
    phi[0, 0, 0] = 1.0
    return lat, seed, DecompositionResult(SymbolField(lat, phi), [1], {}, [seed])


@pytest.mark.parametrize("n_z", [32, 64])
def test_decompose_keeps_the_zero_of_1_minus_2z(n_z):
    """Past n_z = 16 the pipeline returns the Blaschke factor of 1/2, not
    Phi = 1: |phi(0)| = 1/2, and its own diagnostics pass."""
    lat, seed, _ = _one_against_1_minus_2z(n_z)
    res = decompose_range(closure_range([seed], lat), [seed])
    assert abs(abs(res.field.phi[0, 0, 0]) - 0.5) < 1e-12
    assert max(res.diagnostics.values()) <= lat.orth_tol


@pytest.mark.xfail(strict=True, reason="generation is checked on the degree-0 "
                   "block A_0 alone, not on the truncated Toeplitz matrix T_A")
@pytest.mark.parametrize("n_z", [32, 64])
def test_verify_fails_phi_one_against_a_hidden_zero(n_z):
    """Phi = 1 held to the seed 1 - 2z, which decompose refuses to return
    at this n_z (above): Phi H^2 is larger than what the seed generates,
    so verify should fail it. Today both defects read 0.0."""
    lat, _, res = _one_against_1_minus_2z(n_z)
    assert verify_decomposition(res)["image_defect"] > lat.orth_tol


@pytest.mark.parametrize("delta, fails", [(0.0, True), (1e-12, True), (1e-3, False)])
@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_generation_needs_a_full_rank_degree_0_block(delta, fails, held):
    """Phi = I at (1, 8, 2), held to a seed v tilted off both axes: one seed
    cannot generate two directions, so the image defect reads inf. Held to
    v and z v + delta w (w orthogonal to v), A_0 = [v, delta w]: the seeds
    generate everything mod z^8 exactly when delta is not below rank_tol,
    and rounding in a singular A_0 does not pass for a generating one."""
    lat = TruncationLattice(1, 8, 2)
    c, t = np.cos(0.3), np.sin(0.3)
    v = _seed(lat, (0, 0, c), (0, 1, t))
    phi = np.zeros((1, lat.ambient, 2), dtype=complex)
    phi[0, :2] = np.eye(2)
    res = DecompositionResult(SymbolField(lat, phi), [2], {}, held([v]))
    assert verify_decomposition(res)["image_defect"] == np.inf
    zv = _seed(lat, (1, 0, c), (1, 1, t), (0, 0, -delta * t), (0, 1, delta * c))
    diags = verify_decomposition(_held_to(res, held([v, zv])))
    assert diags["isometry_defect"] == 0.0
    assert (diags["image_defect"] == np.inf) == fails
    assert fails or diags["image_defect"] < 1e-15


@pytest.mark.parametrize("held", [list, shat_closure], ids=["seeds", "closure"])
def test_image_defect_reads_a_singular_gram_as_inf(held):
    """Phi = 1000 (e_1, z e_1) repeats a shifted column, so W* W is singular
    and its entries of 1e6 swallow the ridge: the solve fails, and the image
    defect reads inf instead of raising, while A_0 held to the seeds z e_1
    and e_1 (in this order, so neither is the shift of the one before it)
    has full rank."""
    lat = TruncationLattice(1, 8, 2)
    phi = np.zeros((1, lat.ambient, 2), dtype=complex)
    phi[0, 0, 0] = phi[0, 2, 1] = 1e3
    res = DecompositionResult(SymbolField(lat, phi), [2], {},
                              held([z_e1_seed(lat), _seed(lat, (0, 0, 1.0))]))
    assert verify_per_fiber(res)["image_defect"].tolist() == [np.inf]


@pytest.mark.parametrize("bad", [1e-3, np.nan])
def test_decomposition_refuses_mass_past_the_rank(bad):
    """A partial isometry starting on the full Hardy space over the base has
    no mass off it: a symbol nonzero (or NaN, set behind SymbolField's
    check) past the wandering rank is refused."""
    lat = TruncationLattice(4, 8, 2)
    res = _z_e1_decomposition(lat)
    phi = np.array(res.field.phi)
    phi[2, 5, 1] = bad
    field = SymbolField(lat, np.zeros_like(phi))
    object.__setattr__(field, "phi", phi)
    with pytest.raises(ValueError, match="nonzero past the wandering rank at fiber 2"):
        DecompositionResult(field, res.ranks, {}, res.seeds)


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
    mixed = np.einsum("ba,b...->a...", u, np.stack([g.data for g in gens]))
    remixed = [FiberedField(lat, d) for d in mixed]
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
    res1 = DecompositionResult(SymbolField(lat, phi1), ranks, {}, symbol_seeds(lat, phi1))
    res2 = DecompositionResult(SymbolField(lat, phi2), ranks, {}, symbol_seeds(lat, phi2))
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
    res2 = DecompositionResult(SymbolField(lat, phi2), res1.ranks, {}, res1.seeds)
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
    res, _, _ = _corrupted("overlap")
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
