"""Ideal checks, the Zettl split and the radical do not depend on the scale
of the data.

``ternary._ideal_products`` divides the basis products by the data scale
(|c|max on structure input, on block input each block's products by the
square of that block's largest entry), the graded Peirce check divides the
products of M and Mbar the same way, ``zettl_decompose`` judges the trace
operator's spectrum relative to its norm and a part's closure relative to
its largest product, and the
radical's trace-form certificate and ``radical._ambient``'s algebra both read
the data brought to unit scale (``radical._unit_space``).
Multiplying the blocks or c by any t then leaves the generated ideals, the
``is_ideal`` verdicts, the Zettl dimensions and the (zero) radical, on either
path, as they are at t = 1, and ``embed_ideal`` keeps the same corner parts.
Scaling one block of a direct sum by t changes none of these either.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lattice_spaces, no_certificate, scaled, scramble
from ternlab import cli
from ternlab import embedding as emb
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import ternary as tern
from ternlab.errors import DecompositionInconclusive, InvalidInput, NotAnIdeal

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _zettl_dims(m):
    split = tern.zettl_decompose(m)
    return split.plus.dim, split.minus.dim


@pytest.fixture(scope="module")
def cases(catalog):
    """(space, generator, ideal dimension, is_ideal verdicts on the ideal and
    on the generator's span, Zettl dimensions) at t = 1, for the catalog,
    its scrambles and the lattice spaces."""
    rng = np.random.default_rng(2002)
    spaces = [m for _, m in catalog]
    spaces += [scramble(m, rng)[0] for m in spaces] + [m for _, m in lattice_spaces()]
    out = []
    for m in spaces:
        gen = np.eye(m.dim, dtype=np.complex128)[0]
        ideal = idl.generated_ideal(m, [gen])
        verdicts = idl.is_ideal(m, ideal.basis), idl.is_ideal(m, gen[:, None])
        out.append((m, gen, ideal.dim, verdicts, _zettl_dims(m)))
    # span{e_0} is an ideal of some spaces and of others not
    assert {v[1] for *_, v, _ in out} == {True, False}
    return out


@PROPERTY
@given(st.data(), st.floats(-1.0, 1.0))
def test_ideals_zettl_and_radical_do_not_depend_on_the_data_scale(cases, tmp_path_factory,
                                                                  data, x):
    # t from 1e-6 to 1e6 on blocks, from 1e-10 to 1e10 on tensors
    m, gen, dim, verdicts, zettl = data.draw(st.sampled_from(cases))
    ms = scaled(m, 10.0 ** (x * (6 if m.is_block else 10)))
    ideal = idl.generated_ideal(ms, [gen])
    assert ideal.dim == dim
    assert (idl.is_ideal(ms, ideal.basis), idl.is_ideal(ms, gen[:, None])) == verdicts
    assert _zettl_dims(ms) == zettl
    # every case is a C*-ternary ring, so semisimple, on the certificate and
    # with it taken out, on the ambient algebra
    path = tmp_path_factory.mktemp("scaled") / "m.json"
    path.write_text(json.dumps(cli.to_instance_dict(ms, "scaled")))
    for path_taken in ("trace_form", "ambient"):
        with pytest.MonkeyPatch.context() as mp:
            if path_taken == "ambient":
                no_certificate(mp)
            out = io.StringIO()
            assert cli.main(["radical", str(path), "--format", "json"], out=out) == cli.EXIT_OK
        details = json.loads(out.getvalue())["details"]
        assert (details["radical_dim"], details["decided_by"]) == (0, path_taken)


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1e5])
def test_is_ideal_rejects_a_corner_at_every_scale(t):
    # span{E11} is no ternary ideal of full(2, 2, +1): [E11 E11 E12] = E11 E11* E12 = E12
    m = scaled(tern.full_matrix_space(2, 2, +1), t)
    assert not idl.is_ideal(m, np.eye(4)[:, :1])


def test_quotient_of_scaled_blocks_passes(catalog, tmp_path):
    # the blocks scaled by 1e-5: the products of the ideal check are of size
    # 1e-10 and the Zettl trace operator's spectrum of size 1e-10
    m = scaled(dict(catalog)["mix-full-scalar"], 1e-5)
    space, ideal = tmp_path / "scaled.json", tmp_path / "ideal.json"
    space.write_text(json.dumps(cli.to_instance_dict(m, "mix-full-scalar-1e-5")))
    gen = cli._encode_array(np.eye(m.dim, dtype=np.complex128)[0])
    ideal.write_text(json.dumps({"generators": [gen]}))
    out = io.StringIO()
    assert cli.main(["quotient", str(space), "--ideal", str(ideal), "--format", "json"],
                    out=out) == cli.EXIT_OK
    details = json.loads(out.getvalue())["details"]
    assert (details["ideal_dim"], details["quotient_dim"]) == (4, 1)
    assert details["quotient_zettl_dims"] == details["expected_zettl_dims"] == [0, 1]


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1e3])
def test_embedded_ideal_keeps_its_corner_parts_at_every_scale(t):
    # L(I) and R(I) are cut relative to their own products: with the blocks
    # scaled by 1e-5 those are of size 1e-10, and a cut relative to the unit
    # vectors of I would drop them
    for name, m in lattice_spaces():
        e, es = emb.build_embedding(m), emb.build_embedding(scaled(m, t))
        for sl in m.block_slices:
            gen = [np.eye(m.dim, dtype=np.complex128)[sl.start]]
            want = emb._corner_parts(e, idl.embed_ideal(e, idl.generated_ideal(m, gen))).dims
            got = idl.embed_ideal(es, idl.generated_ideal(es.base, gen))
            assert emb._corner_parts(es, got).dims == want, name


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-5])
def test_triple_rejects_a_span_that_is_not_closed_at_every_scale(t):
    # span{[[1, 1], [0, 0]], [[0, 0], [1, 0]]} is not closed (residual 0.5),
    # whatever the scale of its blocks
    basis = (t * np.array([[1.0, 1.0], [0.0, 0.0]]), t * np.array([[0.0, 0.0], [1.0, 0.0]]))
    m = tern.TernarySpace.from_blocks([tern.SignedBlock(+1, 2, 2, basis)], validate=False)
    e0, e1 = np.eye(2)
    with pytest.raises(InvalidInput, match="left the block span"):
        tern.triple(m, e0, e1, e0 + e1)


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6, 1e3])
def test_zettl_rejects_a_part_that_is_not_closed_at_every_scale(t):
    # one entry of c moved by 1e-6 leaves M+ short of product-closed by
    # 6.7e-7 relative to its largest product, whatever the scale of c
    full = tern.full_matrix_space
    c = np.array(tern.structure_constants_of(tern.direct_sum(full(2, 2, +1), full(1, 2, -1))).c)
    c[0, 0, 0, 5] += 1e-6
    m = tern.TernarySpace.from_structure(t * c, validate=False)
    with pytest.raises(DecompositionInconclusive, match="not product-closed"):
        tern.zettl_decompose(m)


def _two_scales(big, small):
    """full(4, 4, +1) scaled by big ⊕ full(2, 2, -1) scaled by small."""
    full = tern.full_matrix_space
    return tern.direct_sum(scaled(full(4, 4, +1), big), scaled(full(2, 2, -1), small))


@pytest.mark.parametrize("t", [1.0, 1e-3, 1e-4, 1e-5, 1e-7])
def test_ideal_checks_read_each_block_at_its_own_scale(t):
    # each block's products are divided by that block's own scale: with one
    # scale for all, span{E11} of a block scaled by 1e-4 read residual 1e-8,
    # an ideal, and from 1e-5 on the closure of E11 stopped at E11
    eye = np.eye(20, dtype=np.complex128)
    for big, small, at, block in ((1.0, t, 16, slice(16, 20)), (t, 1.0, 0, slice(0, 16)),
                                  (1.0, 1.0 / t, 0, slice(0, 16))):
        m = _two_scales(big, small)
        assert not idl.is_ideal(m, eye[:, at:at + 1])
        ideal = idl.generated_ideal(m, [eye[at]])
        assert mk.subspace_distance(ideal.basis, eye[:, block]) <= 1e-12
        assert idl.is_ideal(m, ideal)
        q = idl.quotient(m, ideal)
        assert q.dim == 20 - ideal.dim
        assert idl.quotient_zettl_dims(m, ideal) == _zettl_dims(q)


def test_quotient_by_the_small_block_passes(tmp_path):
    m = _two_scales(1.0, 1e-5)
    space, ideal = tmp_path / "two-scales.json", tmp_path / "ideal.json"
    space.write_text(json.dumps(cli.to_instance_dict(m, "two-scales")))
    ideal.write_text(json.dumps({"generators": [cli._encode_array(np.eye(20)[16])]}))
    out = io.StringIO()
    assert cli.main(["quotient", str(space), "--ideal", str(ideal), "--format", "json"],
                    out=out) == cli.EXIT_OK
    details = json.loads(out.getvalue())["details"]
    assert (details["ideal_dim"], details["quotient_dim"]) == (4, 16)


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1.0, 1e3, 1e5])
def test_peirce_check_reads_each_block_at_its_own_scale(t):
    # the products of M and Mbar land in L and R at the square of the block
    # scale; read against max(1, their size), M ⊕ Mbar alone passed at 1e-5
    for name, m in lattice_spaces():
        e, es = emb.build_embedding(m), emb.build_embedding(scaled(m, t))
        for sl in m.block_slices:
            gen = [np.eye(m.dim, dtype=np.complex128)[sl.start]]
            ideal = idl.embed_ideal(es, idl.generated_ideal(es.base, gen))
            parts = emb.peirce_split(es, ideal)
            unscaled = emb.peirce_split(e, idl.embed_ideal(e, idl.generated_ideal(m, gen)))
            assert parts.dims == unscaled.dims, name
            if (name, sl.start) == ("f33p-f22m-d2p", 0):
                with pytest.raises(NotAnIdeal, match="ideal check"):
                    emb.peirce_split(es, np.hstack([parts.m, parts.mbar]))


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1.0, 1e3, 1e5])
def test_embed_ideal_reads_each_block_at_its_own_scale(t):
    # L(I) and R(I) are cut by rank in each block alone: cut once across
    # both blocks, the products of one block read as rounding beside those of
    # the other at t = 1e-5 and 1e5, and the graded check failed at residual 1
    full, diag = tern.full_matrix_space, tern.diagonal_space
    for big, small, at, dims in ((full(4, 4, +1), full(2, 2, -1), 16, (20, 20, 20, 20)),
                                 (diag(2, +1), diag(2, -1), 2, (2, 2, 2, 2))):
        m = tern.direct_sum(big, scaled(small, t))
        e = emb.build_embedding(m)
        eye = np.eye(m.dim, dtype=np.complex128)
        span = idl.embed_ideal(e, idl.generated_ideal(m, [eye[0] + eye[at]]))
        assert emb.peirce_split(e, span).dims == dims
