"""Doubly invariant subspaces built from constant bases."""

import numpy as np

from fibershift import (RangeFunctionK, TruncationLattice,
                        full_hardy_complement, full_hardy_from_base,
                        is_full_hardy, project_pointwise,
                        range_from_generators, shat_closure)
from fibershift.fields import FiberedField, field_from_fibers

from helpers import brute_projector, frame_projector, grid_seeds, haar_frame


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


def test_complement_pointwise():
    rng = np.random.default_rng(41)
    lat = TruncationLattice(4, 4, 2)
    base = _random_base(rng, lat, (1, 0, 2, 1))
    comp = full_hardy_complement(base)
    ok, recovered = is_full_hardy(full_hardy_from_base(comp))
    assert ok
    for m in range(lat.n_lambda):
        p = frame_projector(base.frames[m]) + frame_projector(recovered.frames[m])
        assert np.abs(p - np.eye(lat.k)).max() < 1e-10


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
