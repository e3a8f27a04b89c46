import base64
import io
import json
import math

import numpy as np
import pytest

from conftest import no_certificate, scramble
from ternlab import cli
from ternlab import embedding as emb
from ternlab import radical as rad
from ternlab import ternary as tern


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def mixed_file(tmp_path):
    m = tern.direct_sum(tern.full_matrix_space(2, 2, +1), tern.scalar_space(-1))
    return _write(tmp_path, "mixed.json", cli.to_instance_dict(m, "mixed"))


def _run_json(argv):
    out = io.StringIO()
    code = cli.main(argv + ["--format", "json"], out=out)
    return code, json.loads(out.getvalue())


def _pack(c):
    """base64 of c as little-endian complex128 in C order."""
    return base64.b64encode(np.asarray(c, dtype="<c16").tobytes()).decode("ascii")


def _assert_bit_exact(a, b):
    # array_equal alone takes -0.0 for 0.0
    assert a.shape == b.shape
    for part in (np.real, np.imag):
        assert np.array_equal(part(a), part(b))
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


@pytest.fixture(scope="module")
def scrambles(catalog):
    rng = np.random.default_rng(4)
    return [(f"{name}-scrambled", scramble(m, rng)[0]) for name, m in catalog]


@pytest.mark.parametrize("text", [
    "true", "false", '[true, 1.5e-3]', '[false, 2]', '[1, true, 2]', '{"a": [0, false, 1]}',
    '[-1.5e+3, 2, true]', '[0.25, false]', '[1, 2.5e-3, -4]', '"tru"', '"alse"', '"u"', '"a"',
    '{"name": "untrue"}', '{"basis": [[1, 0]], "name": "fa lse"}'])
def test_read_json_finds_true_or_false_anywhere(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    assert cli._read_json(str(path)) == (json.loads(text), "true" in text or "false" in text)


def test_round_trip_block_instances(catalog):
    for name, m in catalog:
        data = json.loads(json.dumps(cli.to_instance_dict(m, name)))
        name2, m2 = cli.parse_instance_dict(data, validate=False)
        assert name2 == name
        assert m2.dim == m.dim
        for b1, b2 in zip(m.blocks, m2.blocks):
            assert b1.sign == b2.sign
            for x, y in zip(b1.basis, b2.basis):
                _assert_bit_exact(x, y)


def test_round_trip_structure_instance(catalog, scrambles):
    # the catalog's structure presentations hold exact zeros, some of them -0.0
    spaces = [(name, tern.as_structure_space(m)) for name, m in catalog] + scrambles
    assert {m.dim ** 4 > cli.PACK_ABOVE_ENTRIES for _, m in spaces} == {True, False}
    for name, m in spaces:
        data = json.loads(json.dumps(cli.to_instance_dict(m, name)))
        packed = m.dim ** 4 > cli.PACK_ABOVE_ENTRIES
        assert set(data["structure_constants"]) == {"dim", "c_base64" if packed else "c"}
        name2, m2 = cli.parse_instance_dict(data, validate=False)
        assert name2 == name
        _assert_bit_exact(m2.structure.c, m.structure.c)


def test_every_command_reads_nested_and_packed_files_alike(tmp_path, scrambles):
    for name, m in scrambles:
        c = np.asarray(m.structure.c)
        paths = [_write(tmp_path, f"{name}.{kind}.json", {
            "name": name, "structure_constants": {"dim": m.dim, key: encode(c)}})
            for kind, key, encode in (("nested", "c", cli._encode_array),
                                      ("packed", "c_base64", _pack))]
        ideal = _write(tmp_path, f"{name}.ideal.json",
                       {"generators": [cli._encode_array(np.eye(m.dim)[0])]})
        for command in cli.COMMANDS:
            runs = []
            for path in paths:
                argv = [command, path, "--format", "json"]
                argv += ["--ideal", ideal] if command == "quotient" else []
                out = io.StringIO()
                runs.append((cli.main(argv, out=out), out.getvalue()))
            assert runs[0] == runs[1], (name, command)
            # embed and wedderburn refuse structure input
            code, text = runs[0]
            assert (code, bool(text)) in ((0, True), (2, False)), (name, command)


def test_verify_pass(mixed_file):
    code, rep = _run_json(["verify", mixed_file])
    assert code == 0
    assert rep["passed"] is True
    assert set(rep["details"]["residuals"]) == {"closure"}


def test_verify_corrupted_names_identity(tmp_path):
    c = np.array(tern.structure_constants_of(tern.diagonal_space(2, +1)).c)
    c[0, 1, 1, 0] += 0.1
    path = _write(tmp_path, "bad.json", {
        "name": "bad",
        "structure_constants": {"dim": 2, "c": cli._encode_array(c)}})
    code, rep = _run_json(["verify", path])
    assert code == 1
    assert rep["details"]["failing_identity"].startswith("assoc")
    assert rep["details"]["failing_residual"] >= 0.05


def test_decompose_pure_anti(tmp_path):
    m = tern.full_matrix_space(2, 2, -1)
    path = _write(tmp_path, "anti.json", cli.to_instance_dict(m, "anti"))
    code, rep = _run_json(["decompose", path])
    assert code == 0
    assert rep["details"]["dim_plus"] == 0
    assert rep["details"]["dim_minus"] == 4


def test_radical_report(mixed_file):
    # the trace form of full(2, 2, +1) ⊕ C(-1) is diag(2, 2, 2, 2, -1): its
    # bound is the relative cut 1e-9 σ_max, above the rounding term
    code, rep = _run_json(["radical", mixed_file])
    assert code == 0
    d = rep["details"]
    assert d == {"radical_dim": 0, "semisimple": True, "embedding_radical_dim": 0,
                 "decided_by": "trace_form", "sigma_min": 1.0,
                 "bound": d["bound"], "margin": 1.0 - d["bound"]}
    assert d["bound"] == pytest.approx(2e-9, rel=1e-12)


def test_radical_builds_the_embedding_algebra_once(mixed_file, monkeypatch):
    # none on a file the trace form certifies, once on the ambient path
    calls = []
    original = rad.assoc_of_embedding

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rad, "assoc_of_embedding", counted)
    code, rep = _run_json(["radical", mixed_file])
    assert code == 0 and rep["details"]["embedding_radical_dim"] == 0
    assert rep["details"]["decided_by"] == "trace_form" and calls == []
    no_certificate(monkeypatch)
    code, rep = _run_json(["radical", mixed_file])
    assert code == 0 and rep["details"]["embedding_radical_dim"] == 0
    assert rep["details"]["decided_by"] == "ambient" and len(calls) == 1


def test_embed_report(mixed_file):
    code, rep = _run_json(["embed", mixed_file])
    assert code == 0
    assert rep["details"]["pi_kernel_gap"] > 1e-9
    assert rep["details"]["cstar_witness"]["gap"] > 0.1


def test_embed_fails_on_a_non_associative_table(mixed_file, monkeypatch):
    # the first M basis element squares to 0 in the linking algebra; a 0.1 in
    # that product breaks associativity, while the unit and pi's kernel gap hold
    table = emb.StandardEmbedding.table.func

    def corrupted(self):
        t = np.array(table(self))
        m0 = self.corner_indices["M"][0]
        t[m0, m0, m0] += 0.1
        return t

    monkeypatch.setattr(emb.StandardEmbedding, "table", property(corrupted))
    code, rep = _run_json(["embed", mixed_file])
    assert code == 1
    assert rep["details"]["pi_homomorphism_residual"] > 1e-3
    assert rep["details"]["pi_kernel_gap"] > 1e-9


def test_quotient_command(tmp_path, mixed_file):
    gen = np.zeros(5, dtype=np.complex128)
    gen[0] = 1.0
    ideal_path = _write(tmp_path, "ideal.json",
                        {"generators": [cli._encode_array(gen)]})
    code, rep = _run_json(["quotient", mixed_file, "--ideal", ideal_path])
    assert code == 0
    assert rep["details"]["ideal_dim"] == 4
    assert rep["details"]["quotient_dim"] == 1
    assert rep["details"]["quotient_zettl_dims"] == [0, 1]


def test_wedderburn_command(tmp_path):
    path = _write(tmp_path, "anti1.json",
                  cli.to_instance_dict(tern.scalar_space(-1), "scalar-anti"))
    code, rep = _run_json(["wedderburn", path])
    assert code == 0
    assert rep["details"]["residual"] <= 1e-8
    assert rep["details"]["star_deviation"] > 0.1


@pytest.mark.parametrize("name, code", [("full-2x2-anti", 0), ("mix-closures", 2)])
def test_wedderburn_command_beyond_m2(tmp_path, catalog, name, code):
    # full-2x2-anti embeds as M_4; mix-closures has dim 16 but is not simple
    path = _write(tmp_path, "inst.json", cli.to_instance_dict(dict(catalog)[name], name))
    out = io.StringIO()
    assert cli.main(["wedderburn", path, "--format", "json"], out=out) == code
    if code == 0:
        rep = json.loads(out.getvalue())
        assert rep["details"]["target_dim"] == 4
        assert rep["details"]["residual"] <= 1e-8


def test_verify_non_closed_block_names_closure(tmp_path):
    path = _write(tmp_path, "open.json", {"name": "open", "blocks": [
        {"sign": 1, "rows": 2, "cols": 2, "basis": [[[[1, 0], [2, 0]], [[0, 0], [1, 0]]]]}]})
    code, rep = _run_json(["verify", path])
    assert code == 1
    assert rep["details"]["failing_identity"] == "closure"
    assert rep["details"]["failing_residual"] > 1e-8
    for argv in (["decompose"], ["embed"], ["radical"], ["wedderburn"]):
        assert cli.main(argv + [path]) == 2, argv


@pytest.mark.parametrize("kind", ["blocks", "structure"])
def test_verify_fails_what_the_other_commands_reject(tmp_path, kind):
    # closure residuals of 3.0e-9 (span{E11 + 3e-9 E12, E22}) and 3.6e-9 (a
    # scrambled full(2, 2, +1) with one entry raised by 2e-9 |c|max): above
    # tern.DEFAULT_TOL, both the input gate and verify's default --tol
    if kind == "blocks":
        basis = (np.array([[1, 3e-9], [0, 0]]), np.diag([0.0, 1.0]))
        m = tern.TernarySpace.from_blocks([tern.SignedBlock(+1, 2, 2, basis)], validate=False)
    else:
        c = np.array(scramble(tern.full_matrix_space(2, 2, +1), np.random.default_rng(0))[0]
                     .structure.c)
        c[0, 0, 0, 1] += 2e-9 * np.abs(c).max()
        m = tern.TernarySpace.from_structure(c, validate=False)
    path = _write(tmp_path, "near.json", cli.to_instance_dict(m, "near"))
    code, rep = _run_json(["verify", path])
    assert code == 1
    assert tern.DEFAULT_TOL < rep["details"]["failing_residual"] < 1e-8
    for argv in (["decompose"], ["embed"], ["radical"], ["wedderburn"]):
        assert cli.main(argv + [path]) == 2, argv


def test_demo_m2_anti_table():
    code, rep = _run_json(["demo", "m2-anti"])
    assert code == 0
    assert rep["details"]["cells_checked"] == 16
    assert rep["details"]["mismatches"] == 0
    assert rep["details"]["table"]["E12.E21"] == "E11"
    assert rep["details"]["table"]["E11.E11"] == "-E11"


def test_all_demos_pass():
    for name in cli.DEMO_NAMES:
        out = io.StringIO()
        assert cli.main(["demo", name], out=out) == 0


def test_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, "bad2.json", {"name": "x"})
    assert cli.main(["decompose", bad]) == 2


BLOCK = {"sign": 1, "rows": 1, "cols": 1, "basis": [[[[1, 0]]]]}
ONE = _pack(np.ones((1, 1, 1, 1)))


def _packed(dim, payload, **extra):
    return {"structure_constants": dict(dim=dim, c_base64=payload, **extra)}


@pytest.mark.parametrize("payload", [
    {"blocks": 7},
    {"blocks": BLOCK},
    {"blocks": [3]},
    {"blocks": [dict(BLOCK, basis=5)]},
    {"structure_constants": 4},
    {"blocks": [dict(BLOCK, sign=[1])]},
    {"blocks": []},
    {"blocks": [dict(BLOCK, rows=1.5)]},
    {"blocks": [dict(BLOCK, rows=True)]},
    {"blocks": [dict(BLOCK, basis=[[[[True, False]]]])]},
    {"blocks": [dict(BLOCK, basis=[[[[1, None]]]])]},
    {"blocks": [dict(BLOCK, basis=[[[["1", 0]]]])]},
    {"blocks": [dict(BLOCK, basis=[[[[True, 0.5]]]])]},
    _packed(1, ONE, c=[[[[[1, 0]]]]]),
    {"structure_constants": {"dim": 1}},
    _packed(1, 1),
    _packed(1, ONE[:-4]),
    _packed(1, ONE[:-1]),
    _packed(1, ONE[:4] + " " + ONE[4:]),
    _packed(1, ONE[:4] + "*" + ONE[5:]),
    _packed(1, ONE[:4] + "\u00e9" + ONE[5:]),
    _packed(2, ONE),
    _packed(0, ""),
    {"structure_constants": {"dim": 0, "c": []}},
    _packed(-1, ONE),
    _packed(1, _pack(np.full((1, 1, 1, 1), complex(math.nan, 0.0)))),
    _packed(1, _pack(np.full((1, 1, 1, 1), complex(0.0, -math.inf)))),
], ids=["blocks-number", "blocks-object", "block-number", "basis-number",
        "structure-constants-number", "sign-list", "blocks-empty", "rows-float",
        "rows-bool", "basis-bool", "basis-null", "basis-string", "basis-bool-and-number",
        "nested-and-packed", "no-tensor", "packed-number", "packed-truncated",
        "packed-unpadded", "packed-space", "packed-star", "packed-non-ascii",
        "packed-wrong-dim", "packed-dim-0", "nested-dim-0", "packed-dim-negative",
        "packed-nan", "packed-inf"])
def test_wrong_json_types_exit_2(tmp_path, payload):
    bad = _write(tmp_path, "bad.json", dict(payload, name="x"))
    for argv in (["verify"], ["decompose"], ["embed"], ["radical"], ["wedderburn"],
                 ["quotient", "--ideal", bad]):
        assert cli.main(argv[:1] + [bad] + argv[1:]) == 2, argv


@pytest.mark.parametrize("ideal", [
    [1, 2],
    {"generators": [[[math.inf, 0.0]] + [[0.0, 0.0]] * 4]},
    {"generators": {"0": [[1.0, 0.0]] * 5}},
    {"generators": [[[None, 0.0]] + [[0.0, 0.0]] * 4]},
    {"generators": [[[True, 0.5]] + [[0.0, 0.0]] * 4]},
], ids=["list", "infinite-entry", "generators-object", "null-entry", "bool-and-number-entry"])
def test_malformed_ideal_files_exit_2(tmp_path, mixed_file, ideal, capsys):
    path = _write(tmp_path, "ideal.json", ideal)
    assert cli.main(["quotient", mixed_file, "--ideal", path]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--tol=nan", "--tol=inf", "--tol=0", "--tol=-1e-8"])
def test_bad_numeric_options_exit_2(mixed_file, option, capsys):
    assert cli.main(["verify", mixed_file, option]) == 2
    assert f"{option.split('=')[0]} must be" in capsys.readouterr().err


def test_samples_option_is_gone(mixed_file, capsys):
    assert cli.main(["verify", "--samples", "5", mixed_file]) == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_radical_and_quotient_take_no_tol(tmp_path, mixed_file, capsys):
    # neither command reads a tolerance, so neither accepts one
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[1.0, 0.0]] + [[0.0, 0.0]] * 4]})
    for argv in (["radical", mixed_file], ["quotient", mixed_file, "--ideal", ideal]):
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
        assert cli.main(argv + ["--tol", "1e-8"]) == 2, argv
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_dependent_basis_exits_2_under_every_command(tmp_path):
    row = [[[1.0, 0.0], [0.0, 0.0]]]
    path = _write(tmp_path, "dependent.json", {"name": "dependent", "blocks": [
        {"sign": 1, "rows": 1, "cols": 2, "basis": [row, [[[2.0, 0.0], [0.0, 0.0]]]]}]})
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[1.0, 0.0], [0.0, 0.0]]]})
    for argv in (["verify"], ["decompose"], ["embed"], ["radical"], ["wedderburn"],
                 ["quotient", "--ideal", ideal]):
        assert cli.main(argv[:1] + [path] + argv[1:]) == 2, argv


def test_reports_deterministic_under_seed(mixed_file):
    a = _run_json(["embed", mixed_file, "--seed", "7"])
    b = _run_json(["embed", mixed_file, "--seed", "7"])
    assert a == b


def test_decompose_structure_input_ignores_seed(tmp_path, catalog):
    ms, _ = scramble(dict(catalog)["mix-full-scalar"], np.random.default_rng(3))
    path = _write(tmp_path, "scrambled.json", cli.to_instance_dict(ms, "scrambled"))
    reps = [_run_json(["decompose", path, "--seed", seed])[1]["details"]
            for seed in ("0", "7")]
    assert (reps[0]["dim_plus"], reps[0]["dim_minus"]) == (4, 1)
    for key in ("plus_coords", "minus_coords"):
        assert reps[0][key] == reps[1][key]


def _radical_file(tmp_path):
    c = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    c[0, 0, 0, 0] = 1.0                 # Rad = span{b_1}
    return _write(tmp_path, "rad.json", cli.to_instance_dict(
        tern.TernarySpace.from_structure(c), "rad"))


def test_radical_reports_nonzero_radical(tmp_path):
    code, rep = _run_json(["radical", _radical_file(tmp_path)])
    assert code == 1
    # its trace form is diag(1, 0): the certificate fails and the ambient path decides
    d = rep["details"]
    assert d == {"radical_dim": 1, "semisimple": False, "decided_by": "ambient",
                 "sigma_min": 0.0, "bound": d["bound"], "margin": -d["bound"]}
    assert d["bound"] == pytest.approx(1e-9, rel=1e-12)


def test_radical_and_quotient_ignore_seed(tmp_path, mixed_file):
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[0, 0]] * 4 + [[1, 0]]]})
    for argv in (["radical", mixed_file], ["radical", _radical_file(tmp_path)],
                 ["quotient", mixed_file, "--ideal", ideal]):
        reps = [_run_json(argv + ["--seed", seed]) for seed in ("0", "7")]
        assert reps[0][0] == reps[1][0], argv
        assert reps[0][1]["details"] == reps[1][1]["details"], argv


def test_seed_env_fallback(mixed_file, monkeypatch):
    monkeypatch.setenv("TERNLAB_SEED", "11")
    code, rep = _run_json(["decompose", mixed_file])
    assert rep["seed"] == 11


def test_parsed_values_do_not_leak_between_runs(mixed_file, monkeypatch):
    monkeypatch.delenv("TERNLAB_SEED", raising=False)
    assert _run_json(["decompose", mixed_file, "--seed", "5"])[1]["seed"] == 5
    assert _run_json(["decompose", mixed_file])[1]["seed"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_structure_constants_exit_cleanly(tmp_path, capsys):
    # c = 1e200 squares out of double range; every command still ends in an exit code
    path = _write(tmp_path, "big.json", {
        "name": "big", "structure_constants": {"dim": 1, "c": [[[[[1e200, 0.0]]]]]}})
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[1.0, 0.0]]]})
    for argv in (["verify", path], ["decompose", path], ["embed", path],
                 ["radical", path], ["wedderburn", path],
                 ["quotient", path, "--ideal", ideal]):
        assert cli.main(argv, out=io.StringIO()) in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err, argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e5, 1e8, 1e100, 1e200])
def test_verify_passes_rescaled_structure_constants(tmp_path, factor):
    # the sampled identities run on c / |c|max, so no product overflows
    c = tern.structure_constants_of(tern.full_matrix_space(2, 2, +1)).c
    m = tern.TernarySpace.from_structure(factor * c)
    path = _write(tmp_path, "scaled.json", cli.to_instance_dict(m, "scaled"))
    code, rep = _run_json(["verify", path])
    assert code == 0, rep["details"]["residuals"]
    assert all(np.isfinite(r) for r in rep["details"]["residuals"].values())


def _encode_reference(a):
    if a.ndim == 0:
        return [float(np.real(a)), float(np.imag(a))]
    return [_encode_reference(x) for x in a]


def _instance_reference(m, name):
    if not m.is_block:
        return {"name": name, "structure_constants": {
            "dim": m.dim, "c": _encode_reference(m.structure.c)}}
    return {"name": name, "blocks": [
        {"sign": b.sign, "rows": b.rows, "cols": b.cols,
         "basis": [_encode_reference(x) for x in b.basis]} for b in m.blocks]}


def test_encode_array_matches_per_entry_reference(catalog):
    # the writer packs tensors of more than 256 entries; test_round_trip_structure_instance
    # reads those back bit for bit
    for name, m in catalog:
        for p in (m, tern.as_structure_space(m)):
            data = cli.to_instance_dict(p, name)
            if p.is_block or p.dim ** 4 <= 256:
                assert json.dumps(data) == json.dumps(_instance_reference(p, name))
            else:
                assert list(data["structure_constants"]) == ["dim", "c_base64"]
    for a in (np.array(1.5 - 2j), np.array(3), np.zeros(0), np.zeros((3, 0)),
              np.zeros((0, 2, 2), dtype=np.complex128), np.arange(6).reshape(2, 3)):
        assert json.dumps(cli._encode_array(a)) == json.dumps(_encode_reference(a))


def test_exact_commands_draw_no_random_numbers(tmp_path, mixed_file, catalog, monkeypatch):
    ms, _ = scramble(dict(catalog)["mix-full-scalar"], np.random.default_rng(3))
    scrambled = _write(tmp_path, "scrambled.json", cli.to_instance_dict(ms, "scrambled"))
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[0, 0]] * 4 + [[1, 0]]]})

    def no_rng(*args, **kwargs):
        raise AssertionError("a random number generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for argv in (["verify", mixed_file], ["verify", scrambled], ["decompose", mixed_file],
                 ["decompose", scrambled], ["embed", mixed_file],
                 ["radical", mixed_file], ["radical", scrambled],
                 ["quotient", mixed_file, "--ideal", ideal],
                 *(["demo", name] for name in cli.DEMO_NAMES)):
        assert cli.main(argv, out=io.StringIO()) == 0, argv


def test_verify_report_ignores_seed(tmp_path, mixed_file, catalog):
    ms, _ = scramble(dict(catalog)["mix-full-scalar"], np.random.default_rng(3))
    scrambled = _write(tmp_path, "scrambled.json", cli.to_instance_dict(ms, "scrambled"))
    for path in (mixed_file, scrambled):
        texts, details = [], []
        for seed in ("0", "7"):
            out = io.StringIO()
            assert cli.main(["verify", path, "--seed", seed], out=out) == 0
            texts.append(out.getvalue())
            details.append(json.dumps(_run_json(["verify", path, "--seed", seed])[1]["details"]))
        assert texts[0] == texts[1] and details[0] == details[1], path



def test_every_command_prints_identical_stdout_twice(tmp_path, catalog):
    spaces = dict(catalog)
    rng = np.random.default_rng(5)
    instances = [(name, spaces[name]) for name in ("scalar-anti", "mix-anti-diag",
                                                    "closure-2x2-two-gens")]
    instances += [(f"{name}-scrambled", scramble(spaces[name], rng)[0])
                  for name in ("mix-full-scalar", "full-2x3-tro")]
    runs = [["demo", name] for name in cli.DEMO_NAMES]
    for name, m in instances:
        path = _write(tmp_path, f"{name}.json", cli.to_instance_dict(m, name))
        gen = np.eye(m.dim, dtype=np.complex128)[0]
        ideal = _write(tmp_path, f"{name}.ideal.json", {"generators": [cli._encode_array(gen)]})
        runs += [[command, path] for command in ("verify", "decompose", "embed", "radical",
                                                 "wedderburn")]
        runs.append(["quotient", path, "--ideal", ideal])
    for argv in runs:
        for fmt in ("text", "json"):
            results = []
            for _ in range(2):
                out = io.StringIO()
                code = cli.main(argv + ["--seed", "3", "--format", fmt], out=out)
                results.append((code, out.getvalue()))
            assert results[0] == results[1], (argv, fmt)
            if argv[0] in ("verify", "decompose", "quotient", "demo"):
                assert results[0][0] == 0 and results[0][1], (argv, fmt)
