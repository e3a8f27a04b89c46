"""The command line's exit contract under generated instance and ideal files.

Every run of ``cli.main`` returns 0 (pass), 1 (property failure) or 2 (input
error) and raises nothing, whatever the files hold: wrong types, wrong
nesting depths, non-finite and huge entries, empty lists.  Files are valid
instances with one subtree replaced, or arbitrary JSON.
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ternlab import cli
from ternlab import ternary as tern

# the property tests draw the same examples on every run
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)

COMMANDS = ("verify", "decompose", "embed", "radical", "quotient", "wedderburn")
KEYS = ("name", "blocks", "structure_constants", "sign", "rows", "cols", "basis",
        "dim", "c", "generators")

_NUMBERS = st.one_of(st.integers(-2, 3), st.sampled_from(
    [0.5, -1e-300, 1e154, 1e200, 1.7e308, math.inf, -math.inf, math.nan, 10 ** 400]))
_LEAVES = st.one_of(_NUMBERS, st.none(), st.booleans(), st.just("x"))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                 max_size=3),
    max_leaves=12)

TEMPLATES = tuple(
    json.loads(json.dumps(cli.to_instance_dict(m, name))) for name, m in (
        ("mixed", tern.direct_sum(tern.scalar_space(+1), tern.scalar_space(-1))),
        ("row-anti", tern.full_matrix_space(1, 2, -1)),
        ("struct", tern.as_structure_space(tern.diagonal_space(2, -1)))))
IDEAL = {"generators": [[[1.0, 0.0], [0.0, 0.0]]]}


@st.composite
def _mutated(draw, template):
    """template with one subtree replaced: by arbitrary JSON, by itself one
    level deeper or shallower, by an empty list, or by a number."""

    def walk(value):
        keys = (list(value) if isinstance(value, dict)
                else list(range(len(value))) if isinstance(value, list) else [])
        if not keys or draw(st.integers(0, 3)) == 0:
            shallower = [value[0]] if isinstance(value, list) and value else []
            return draw(st.sampled_from([[value], [], *shallower]) | _JSON | _NUMBERS)
        key = draw(st.sampled_from(keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = walk(value[key])
        return out

    return walk(template)


_INSTANCES = st.sampled_from(TEMPLATES).flatmap(_mutated) | _JSON
_IDEALS = st.just(IDEAL) | _mutated(IDEAL) | _JSON


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _argv(command, path, ideal_path):
    argv = [command, str(path), "--format", "json"]
    return argv + ["--ideal", str(ideal_path)] if command == "quotient" else argv


@FUZZ
@given(st.sampled_from(COMMANDS), _INSTANCES, _IDEALS)
@example("quotient", TEMPLATES[0], [1, 2])
@example("quotient", TEMPLATES[0], {"generators": [[[math.inf, 0.0], [0.0, 0.0]]]})
@example("quotient", TEMPLATES[2], {"generators": [{"re": 1}]})
@example("verify", {"structure_constants": {"dim": 1, "c": [[[[{}]]]]}}, IDEAL)
@example("decompose", {"blocks": [dict(TEMPLATES[0]["blocks"][0], basis=[[[[10 ** 400, 0]]]])]},
         IDEAL)
def test_exit_contract_holds_on_generated_files(fuzz_dir, command, instance, ideal):
    path, ideal_path = fuzz_dir / "instance.json", fuzz_dir / "ideal.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    ideal_path.write_text(json.dumps(ideal), encoding="utf-8")
    assert cli.main(_argv(command, path, ideal_path), out=io.StringIO()) in (0, 1, 2)


@pytest.mark.parametrize("command", ["verify", "decompose", "radical"])
def test_unmutated_templates_pass(fuzz_dir, command):
    # the fuzzed runs share this command line, so they reach the commands
    # instead of stopping at the parser
    for template in TEMPLATES:
        path = fuzz_dir / f"{template['name']}.json"
        path.write_text(json.dumps(template), encoding="utf-8")
        assert cli.main(_argv(command, path, None), out=io.StringIO()) == 0, template["name"]
