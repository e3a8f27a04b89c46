"""``generated_ideal`` on block input closes each block the generators touch
in that block alone.

Products across blocks vanish, so the ideal that generators produce in a
direct sum is the sum of the ideals their parts produce in each block.  The
property test draws direct sums of catalog blocks and generators in some of
them, and compares the closure with the single-space closure of
``test_span_closure._generated_reference``: on the whole space at one scale
for all blocks, and block by block at mixed scales.  A generator's tail of
1e-6 in another block pulls that block in; a tail of 1e-12 does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import scaled, standard_instances
from test_span_closure import _generated_reference
from ternlab import ideals as idl
from ternlab import matkernel as mk
from ternlab import ternary as tern
from ternlab.errors import InvalidInput

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

#: The catalog's blocks, each a space of its own.
BLOCKS = [tern.TernarySpace(blocks=(b,)) for _, m in standard_instances()
          for b in m.blocks]


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(st.lists(st.sampled_from(range(len(BLOCKS))), min_size=2, max_size=3),
       st.data(), st.integers(0, 2 ** 32 - 1))
def test_block_closure_matches_the_single_space_closure(picks, data, seed):
    rng = np.random.default_rng(seed)
    parts = [BLOCKS[k] for k in picks]
    m = tern.direct_sum(*parts)
    n = len(parts)
    # each block holds random generators, its first basis element (whose
    # ideal is short of a diagonal block), a tail or nothing; at least one
    # block holds generators.  The tails of one example are all of 1e-6 (in
    # the ideal) or all of 1e-12 (left out): beside a 1e-6 tail, the
    # single-space closure draws a 1e-12 one in, as its rank cut rotates the
    # 1e-6 direction by 1e-12 / 1e-6
    roles = data.draw(st.lists(st.sampled_from(("gens", "unit", "tail", "none")),
                               min_size=n, max_size=n)
                      .filter(lambda r: "gens" in r or "unit" in r))
    tail = data.draw(st.sampled_from((1e-6, 1e-12)))
    gens = np.zeros((data.draw(st.integers(1, 2)), m.dim), dtype=np.complex128)
    for role, sl in zip(roles, m.block_slices):
        if role == "unit":
            gens[:, sl.start] = 1.0
        elif role != "none":
            gens[:, sl] = (1.0 if role == "gens" else tail) * _cplx(rng, len(gens), sl.stop - sl.start)
    inside = [role != "none" and (role != "tail" or tail > 1e-9) for role in roles]
    for t in (1e-6, 1.0, 1e6):
        space = scaled(m, t)
        ideal = idl.generated_ideal(space, list(gens))
        ref = _generated_reference(space, list(gens))
        assert ideal.dim == ref.shape[1]
        assert mk.subspace_distance(ideal.basis, ref) <= 1e-10
    # one scale per block, drawn from 1e-6 to 1e6: the sum of each kept
    # block's closure taken alone
    scales = data.draw(st.lists(st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6)),
                                min_size=n, max_size=n))
    space = tern.direct_sum(*(scaled(p, t) for p, t in zip(parts, scales)))
    want = np.zeros((m.dim, 0), dtype=np.complex128)
    for keep, part, sl in zip(inside, space.blocks, space.block_slices):
        if keep:
            alone = _generated_reference(tern.TernarySpace(blocks=(part,)), list(gens[:, sl]))
            placed = np.zeros((m.dim, alone.shape[1]), dtype=np.complex128)
            placed[sl] = alone
            want = np.hstack([want, placed])
    ideal = idl.generated_ideal(space, list(gens))
    assert ideal.dim == want.shape[1]
    assert mk.subspace_distance(ideal.basis, want) <= 1e-10
    assert idl.is_ideal(space, ideal.basis)


def _not_closed():
    # span{x} with x = [[1, 2], [3, 4]] is not closed: x x* x is no multiple of x
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    return tern.SignedBlock(-1, 2, 2, (x,))


def test_a_filled_block_is_recorded_only_when_closed():
    good = tern.full_matrix_space(2, 2, +1)
    m = tern.TernarySpace.from_blocks(good.blocks + (_not_closed(),), validate=False)
    eye = np.eye(m.dim, dtype=np.complex128)
    # the closed block, filled by the closure of E11, records no residual to read
    ideal = idl.generated_ideal(m, [eye[0]])
    assert vars(ideal)["residual"] == 0.0
    assert idl.is_ideal(m, ideal)
    # the generator fills the block that is not closed: its products are
    # formed when the residual is read, and leave the block's span
    for gens in ([eye[4]], [eye[0], eye[4]]):
        ideal = idl.generated_ideal(m, gens)
        assert "residual" not in vars(ideal)
        with pytest.raises(InvalidInput, match="left the block span"):
            idl.is_ideal(m, ideal)
