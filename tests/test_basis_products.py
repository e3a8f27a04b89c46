"""The basis-product kernels of the ideal checks against one-hot references.

``ternary._ideal_products`` forms [e_i e_k s], [s e_i e_k] and [e_i s e_k]
from each presentation's own data, and ``embedding._assoc_ideal_residual``
forms e_i s and s e_i on the corner parts of s, corner block by corner block.  The references below form the same
products as generic products of broadcast one-hot batches, through
``_triple_coords`` and ``mul_coords``.
"""

import numpy as np
import pytest

from conftest import data_scale, lattice_spaces, scramble
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import ternary as tern
from ternlab.errors import InvalidInput

REL = 1e-12


def _ideal_products_reference(m, s):
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    x, y, s = eye[:, None], eye[None], s[:, None, None]
    prods = np.stack([tern._triple_coords(m, x, y, s), tern._triple_coords(m, s, x, y),
                      tern._triple_coords(m, x, s, y)])
    return prods.reshape(-1, d * d, d) / data_scale(m)


def _assoc_reference(e, span):
    eye = np.eye(e.dim, dtype=np.complex128)
    return mk.span_residual((prods for s in mk.span_chunks(span, 4 * e.dim)
                             for prods in (e.mul_coords(eye, s[:, None]),
                                           e.mul_coords(s[:, None], eye))), span)


def _spaces(catalog):
    return list(catalog) + lattice_spaces()


def _random_rows(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def _check_products(m, s):
    got, want = tern._ideal_products(m, s), _ideal_products_reference(m, s)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL * max(1.0, float(np.abs(want).max()))


def test_ideal_products_match_one_hot_reference(catalog):
    rng = np.random.default_rng(1101)
    for name, m in _spaces(catalog):
        ideal = idl.generated_ideal(m, [np.eye(m.dim)[0]]).basis.T
        for p in (m, tern.as_structure_space(m)):
            for s in (_random_rows(rng, 3, m.dim), ideal, np.eye(m.dim)[-1:]):
                _check_products(p, s)


def test_ideal_products_match_on_dense_structure_tensors(catalog):
    rng = np.random.default_rng(1102)
    for name, m in catalog[9:16]:
        p, _ = scramble(m, rng)
        _check_products(p, _random_rows(rng, 4, m.dim))


def test_ideal_products_reject_a_span_that_is_not_product_closed():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    m = tern.TernarySpace.from_blocks([tern.SignedBlock(-1, 2, 2, (x,))], validate=False)
    with pytest.raises(InvalidInput):
        tern._ideal_products(m, np.ones((1, 1), dtype=np.complex128))
    with pytest.raises(InvalidInput):
        idl.is_ideal(m, np.ones((1, 1)))


def test_assoc_ideal_residual_matches_mul_coords(catalog):
    rng = np.random.default_rng(1103)
    for name, m in _spaces(catalog):
        e = emb.build_embedding(m)
        ideal = idl.generated_ideal(m, [np.eye(m.dim)[0]])
        corner = np.eye(e.dim, dtype=np.complex128)[:, e.corner_indices["M"]]
        spans = [idl.embed_ideal(e, ideal), corner,
                 *(mk.colspace(_random_rows(rng, n, e.dim).T) for n in (1, 3))]
        for span in spans:
            # the kernel reads a span's corner parts: a random span's graded hull
            corners = emb._corner_parts(e, span)
            want = _assoc_reference(e, np.hstack(corners.parts))
            assert abs(emb._assoc_ideal_residual(e, corners) - want) <= REL * max(1.0, want), name
