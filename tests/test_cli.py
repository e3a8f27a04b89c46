import io
import json
import math

import numpy as np
import pytest

from conftest import scramble
from ternlab import cli
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


def test_round_trip_block_instances(catalog):
    for name, m in catalog:
        data = json.loads(json.dumps(cli.to_instance_dict(m, name)))
        name2, m2 = cli.parse_instance_dict(data, validate=False)
        assert name2 == name
        assert m2.dim == m.dim
        for b1, b2 in zip(m.blocks, m2.blocks):
            assert b1.sign == b2.sign
            for x, y in zip(b1.basis, b2.basis):
                assert np.array_equal(x, y)


def test_round_trip_structure_instance():
    m = tern.as_structure_space(tern.diagonal_space(2, -1))
    data = json.loads(json.dumps(cli.to_instance_dict(m, "s")))
    _, m2 = cli.parse_instance_dict(data, validate=False)
    assert np.array_equal(m2.structure.c, m.structure.c)


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
    code, rep = _run_json(["radical", mixed_file])
    assert code == 0
    assert rep["details"] == {"radical_dim": 0, "semisimple": True,
                              "embedding_radical_dim": 0}


def test_radical_builds_the_embedding_algebra_once(mixed_file, monkeypatch):
    calls = []
    original = rad.assoc_of_embedding

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rad, "assoc_of_embedding", counted)
    code, rep = _run_json(["radical", mixed_file])
    assert code == 0 and rep["details"]["embedding_radical_dim"] == 0
    assert len(calls) == 1


def test_embed_report(mixed_file):
    code, rep = _run_json(["embed", mixed_file])
    assert code == 0
    assert rep["details"]["pi_kernel_gap"] > 1e-9
    assert rep["details"]["cstar_witness"]["gap"] > 0.1


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
], ids=["blocks-number", "blocks-object", "block-number", "basis-number",
        "structure-constants-number", "sign-list", "blocks-empty", "rows-float",
        "rows-bool", "basis-bool", "basis-null", "basis-string"])
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
], ids=["list", "infinite-entry", "generators-object", "null-entry"])
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
    assert rep["details"] == {"radical_dim": 1, "semisimple": False}


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
    for name, m in catalog:
        for p in (m, tern.as_structure_space(m)):
            assert (json.dumps(cli.to_instance_dict(p, name))
                    == json.dumps(_instance_reference(p, name)))
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
                 ["decompose", scrambled], ["radical", mixed_file], ["radical", scrambled],
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

