"""Doubly invariant subspaces built from constant bases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fibershift import (RangeFunctionH, RangeFunctionK, TruncationLattice,
                        complement_range, full_hardy_from_base, is_full_hardy,
                        is_S_invariant, project_pointwise,
                        range_from_generators, shat_closure, subspace_distance)
import fibershift.full_hardy as full_hardy
from fibershift.fields import FiberedField
from fibershift.shifts import shift_leak

from helpers import (brute_projector, field_from_fibers, frame_projector,
                     grid_seeds, haar_frame)


def _random_base(rng, lat, ranks):
    return RangeFunctionK(lat, tuple(haar_frame(rng, lat.k, r) for r in ranks))


def test_roundtrip_small():
    rng = np.random.default_rng(40)
    lat = TruncationLattice(6, 4, 3)
    base = _random_base(rng, lat, (1, 2, 0, 3, 1, 2))
    jm = full_hardy_from_base(base)
    assert list(jm.ranks()) == [r * lat.n_z for r in (1, 2, 0, 3, 1, 2)]
    ok, recovered = is_full_hardy(jm)
    assert ok
    for m in range(lat.n_lambda):
        assert np.abs(frame_projector(recovered.frames[m])
                      - frame_projector(base.frames[m])).max() < 1e-10


def test_rejects_shifted_line():
    # span{z e_1} at every fiber is invariant but not reducing
    lat = TruncationLattice(4, 8, 1)
    col = np.zeros((8, 1), dtype=complex)
    col[1, 0] = 1.0
    gens = [field_from_fibers(lat, [col] * 4)]
    jm = range_from_generators(shat_closure(gens), lat)
    ok, _ = is_full_hardy(jm)
    assert not ok


def test_not_full_hardy_on_tiny_lattice():
    # with n_z = 2 span{z} is invariant and its complement span{1} is not:
    # the shift carries 1 to z, a leak of 1 on the whole frame
    lat = TruncationLattice(2, 2, 1)
    col = np.array([[0.0], [1.0]], dtype=complex)
    gens = [field_from_fibers(lat, [col] * 2)]
    jm = range_from_generators(gens, lat)
    assert is_full_hardy(jm) == (False, None)


def test_invariant_span_of_full_hardy_rank_is_not_reducing():
    # span{z^2 e_1, z^3 e_1, z^2 e_2, z^3 e_2} at n_z = 4, k = 2 is shift
    # invariant with rank 1 * n_z, but S* carries z^2 e_i to z e_i: only the
    # reversed-frame leak rejects it
    lat = TruncationLattice(2, 4, 2)
    gens = []
    for i in range(2):
        col = np.zeros((4, 2), dtype=complex)
        col[2, i] = 1.0
        gens.append(field_from_fibers(lat, [col] * 2))
    jm = range_from_generators(shat_closure(gens), lat)
    assert jm.ranks().tolist() == [4, 4]
    assert is_S_invariant(jm) == (True, 0.0)
    assert is_full_hardy(jm) == (False, None)


def test_project_pointwise_matches_dense():
    rng = np.random.default_rng(42)
    lat = TruncationLattice(4, 8, 2)
    base = _random_base(rng, lat, (1, 2, 1, 0))
    jm = full_hardy_from_base(base)
    vec = FiberedField(lat, (rng.standard_normal((4, 8, 2))
                             + 1j * rng.standard_normal((4, 8, 2))))
    out = project_pointwise(vec, base)
    for m in range(4):
        dense = brute_projector(jm.frames[m]) @ vec.flat()[m]
        assert np.abs(out.flat()[m] - dense).max() < 1e-12


def test_random_closure_rarely_full_hardy():
    # generic invariant subspaces have z-dependent fibers
    rng = np.random.default_rng(43)
    lat = TruncationLattice(4, 8, 2)
    gens = shat_closure(grid_seeds(rng, lat, 1))
    jm = range_from_generators(gens, lat)
    ok, _ = is_full_hardy(jm)
    assert not ok


@settings(max_examples=200, deadline=None)
@given(n_z=st.integers(1, 5), k=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_reversed_leak_is_complement_leak(n_z, k, data, seed):
    """With R the reversal of degree blocks, R S R = S*, so the leak of R Q
    is ||P S (I - P)||_F, the leak of the complement's frame."""
    lat = TruncationLattice(1, n_z, k)
    r = data.draw(st.integers(0, lat.ambient))
    q = haar_frame(np.random.default_rng(seed), lat.ambient, r)
    reverse = np.kron(np.eye(n_z)[::-1], np.eye(k))
    comp = complement_range(RangeFunctionH(lat, (q,))).frames[0]
    leak, _ = shift_leak(reverse @ q, n_z, k)
    assert abs(leak - shift_leak(comp, n_z, k)[0]) <= 1e-13


def _near_identity(rng, dim, eps):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(np.eye(dim) + eps * g / np.linalg.norm(g, 2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _perturbed_full_hardy(seed, lat=None, eps=None):
    """A full Hardy range function over a random base, every fiber turned by
    a unitary within about eps of the identity."""
    rng = np.random.default_rng(seed)
    if lat is None:
        lat = TruncationLattice(int(rng.integers(1, 4)), int(rng.integers(2, 7)),
                                int(rng.integers(1, 4)))
    if eps is None:
        eps = 10.0 ** rng.uniform(-13, -6)
    base = _random_base(rng, lat, [int(rng.integers(0, lat.k + 1))
                                   for _ in range(lat.n_lambda)])
    frames = tuple(_near_identity(rng, lat.ambient, eps) @ q
                   for q in full_hardy_from_base(base).frames)
    return base, RangeFunctionH(lat, frames)


def _base_distance(recovered, base):
    return max(subspace_distance(recovered.frames[m], base.frames[m])
               for m in range(base.lattice.n_lambda))


def test_perturbed_full_hardy_parity():
    """The verdict is the two-leak definition (J and its complement both
    invariant within orth_tol), and accepted bases are the drawn ones."""
    verdicts = []
    for seed in range(60):
        base, jm = _perturbed_full_hardy(seed)
        ok, recovered = is_full_hardy(jm)
        assert ok == (is_S_invariant(jm)[0]
                      and is_S_invariant(complement_range(jm))[0])
        if ok:
            assert _base_distance(recovered, base) <= 1e-7
        else:
            assert recovered is None
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


def test_leaky_full_hardy_is_a_verdict(monkeypatch):
    # the leak sits between half the rank cutoff (where the wandering step
    # refuses) and orth_tol: full Hardy within tolerance, base recovered
    # from J's own frame without the complement range, the wandering step
    # or any rank decision
    def forbidden(*args, **kwargs):
        raise AssertionError("called")
    for name in ("rank_decision", "orthonormal_frame"):
        monkeypatch.setattr(f"fibershift.subspaces.{name}", forbidden)
    for name in ("complement_range", "wandering_range", "rank_decision",
                 "orthonormal_frame"):
        monkeypatch.setattr(full_hardy, name, forbidden, raising=False)
    base, jm = _perturbed_full_hardy(1, TruncationLattice(2, 4, 2), 3e-9)
    assert 5e-10 < is_S_invariant(jm)[1] < jm.lattice.orth_tol
    ok, recovered = is_full_hardy(jm)
    assert ok
    assert _base_distance(recovered, base) <= 1e-7


def test_rank_off_the_n_z_multiples_is_not_full_hardy():
    # span{(1, 1, 1, 1)} leaks 0.43 under S and S*, inside orth_tol = 0.5,
    # but a full Hardy fiber has rank n * n_z
    lat = TruncationLattice(1, 4, 1, orth_tol=0.5)
    jm = RangeFunctionH(lat, (np.ones((4, 1), dtype=complex) / 2,))
    assert is_full_hardy(jm) == (False, None)

