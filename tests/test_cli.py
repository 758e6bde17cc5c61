import json

import pytest

from toricfrob import OracleMismatch, catalog_entries
from toricfrob import cli as cli_mod
from toricfrob import frobenius as frobenius_mod
from toricfrob import structure as structure_mod
from toricfrob.cli import main

from conftest import plane_blown_up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_push_golden_json(capsys):
    code, out, _ = run(capsys, "push", "--variety", "P1", "--p", "2", "--json")
    assert code == 0
    assert out.strip() == (
        '{"q":2,"summands":[{"class":[0],"mult":1},{"class":[-1],"mult":1}],'
        '"det":[-1],"certified":true}'
    )


def test_push_text_mode(capsys):
    code, out, _ = run(capsys, "push", "--variety", "P2", "--p", "3")
    assert code == 0
    assert "det" in out and "certified: True" in out


def test_push_symbolic_divisor(capsys):
    code, out, _ = run(
        capsys, "push", "--variety", "P1", "--p", "2", "--divisor=-K", "--json"
    )
    assert code == 0
    assert json.loads(out)["q"] == 2


def test_fan_check_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(
        json.dumps({"name": "plane", "rays": [[1, 0], [0, 1], [-1, -1]],
                    "max_cones": [[0, 1], [1, 2], [0, 2]]})
    )
    code, out, _ = run(capsys, "fan", "check", "--fan", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["pic_rank"] == 1


def test_fan_check_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"rays": [[2, 0], [0, 1], [-1, -1]],
                    "max_cones": [[0, 1], [1, 2], [0, 2]]})
    )
    code, _, err = run(capsys, "fan", "check", "--fan", str(path))
    assert code == 1
    assert "primitive" in err


@pytest.mark.parametrize("rays, cones", [
    ([[1.9, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2.7]]),
    ([[True, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2.0]]),
])
def test_non_integer_fan_entries_are_refused(tmp_path, capsys, rays, cones):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": rays, "max_cones": cones}))
    for argv in (("fan", "check"), ("push", "--p", "2")):
        code, out, err = run(capsys, *argv, "--fan", str(path))
        assert code == 1 and out == ""
        assert "is not an integer" in err


@pytest.mark.parametrize("fan", [
    {"rays": 5, "max_cones": [[0, 1]]},
    {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": 5},
], ids=["rays", "max-cones"])
def test_a_scalar_list_in_a_fan_file_is_an_input_error(tmp_path, capsys, fan):
    # each died with a TypeError traceback: 'int' object is not iterable
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    code, out, err = run(capsys, "fan", "check", "--fan", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "is not a sequence of" in err
    assert "Traceback" not in err


def test_cohom_past_sixty_four_rays_exits_1(tmp_path, capsys):
    fan = plane_blown_up_to(65)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": fan.rays, "max_cones": fan.max_cones}))
    code, out, err = run(capsys, "cohom", "--fan", str(path), "--divisor=-K")
    assert code == 1 and out == ""
    assert "65 rays" in err


def test_missing_fan_file(capsys):
    code, _, err = run(capsys, "fan", "check", "--fan", "/nonexistent.json")
    assert code == 1


def test_unknown_variety(capsys):
    code, _, err = run(capsys, "cohom", "--variety", "P9", "--divisor", "0")
    assert code == 1
    assert "unknown variety" in err


def test_bad_divisor(capsys):
    code, _, err = run(capsys, "cohom", "--variety", "P2", "--divisor", "1,2")
    assert code == 1


def test_cohom(capsys):
    code, out, _ = run(
        capsys, "cohom", "--variety", "P2", "--divisor", "2,0,0", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"dims": [6, 0, 0]}


def test_ext_and_tilting(capsys):
    code, out, _ = run(capsys, "ext", "--variety", "P2", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"dims": [19, 0, 0], "strong_exceptional": True}
    code, out, _ = run(capsys, "tilting", "--variety", "P2", "--p", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["strong_exceptional"] and payload["contains_collection"]
    assert payload["quiver"][0][0] == 1


def test_tilting_without_collection_is_input_error(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(
        json.dumps({"rays": [[1], [-1]], "max_cones": [[0], [1]]})
    )
    code, _, err = run(capsys, "tilting", "--fan", str(path), "--p", "2")
    assert code == 1
    assert "collection" in err


def test_ext_identity_frobenius(capsys):
    code, out, _ = run(capsys, "ext", "--variety", "P2", "--p", "3", "--n", "0", "--json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 0]


def test_catalog_run_rejects_large_q(capsys):
    code, _, err = run(capsys, "catalog", "run", "--p", "5", "--n", "2")
    assert code == 1
    assert "exceeds" in err


def test_catalog_list_and_run(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 12
    code, out, _ = run(capsys, "catalog", "run", "--p", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"vanishing": 12, "failing": 0, "errors": 0}


def test_blowup_check(capsys):
    code, out, _ = run(capsys, "blowup-check", "--p", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["corank"] == payload["corank_oracle"] == 3
    exc = structure_mod._blown_up_plane().exceptional_class()
    assert payload["det_discrepancy"] == list((payload["corank"] * exc).coords)


def test_jets(capsys):
    code, out, _ = run(capsys, "jets", "--p", "2", "--n", "1", "--rank", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_h0"] == 19 and payload["surjective_rank"] == 4


def test_jet_rank_past_the_stack_bound_exits_1(monkeypatch, capsys):
    # q = 81 passes the residue, certificate and box guards on the plane;
    # its jet rows, (C(242, 2) + C(161, 2) + C(80, 2)) x C(81, 2) cells,
    # must not be built
    def unbounded(*args):
        raise AssertionError("jet stack allocated past MAX_JET_CELLS")

    monkeypatch.setattr(structure_mod, "_jet_stack", unbounded)
    code, out, err = run(capsys, "jets", "--p", "3", "--n", "4", "--rank")
    assert code == 1
    assert out == ""
    assert "jet rank at q = 81 needs 146451240 > 4000000 cells" in err
    code, out, _ = run(capsys, "jets", "--p", "3", "--n", "4")
    assert code == 0 and "rank=None" in out


def test_pbundle_check(capsys):
    code, out, _ = run(
        capsys, "pbundle-check", "--base", "P2", "--a", "2,0,0", "--p", "3", "--json"
    )
    assert code == 0
    assert json.loads(out)["split_check"] is True


def test_cech_commands(capsys):
    code, out, _ = run(
        capsys, "cech", "incidence", "--a", "-3", "--b", "0", "--p", "3", "--json"
    )
    assert code == 0
    assert json.loads(out)["dims"] == [0, 0, 1, 0]
    code, out, _ = run(capsys, "cech", "validate", "--json")
    assert code == 0
    assert json.loads(out)["agree"] is True


@pytest.mark.parametrize("argv", [
    ("push", "--variety", "P2", "--p", "2.0"),
    ("push", "--variety", "P2"),
    ("cech", "incidence", "--a", "1", "--b", "x", "--p", "3"),
    ("bogus",),
])
def test_malformed_arguments_exit_1(capsys, argv):
    # argparse's own exit code is 2, which is kept for invariant violations
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: toricfrob") and "error: " in captured.err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["cech", "incidence", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: toricfrob")


def test_internal_invariant_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise OracleMismatch("deliberately corrupted decomposition")

    monkeypatch.setattr(cli_mod, "frobenius_decompose", explode)
    code, _, err = run(capsys, "push", "--variety", "P1", "--p", "2")
    assert code == 2
    assert "invariant" in err


def test_catalog_run_propagates_broken_certificates(
    monkeypatch, cold_decompositions, capsys
):
    # a residue count that gains one summand fails every projection-formula
    # certificate; the survey must stop with exit 2, not report error rows
    cold_decompositions(*(entry.build() for entry in catalog_entries()))
    real = frobenius_mod._raw_decompose

    def corrupted(*args):
        entries = real(*args)
        first = next(iter(entries))
        return {**entries, first: entries[first] + 1}

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupted)
    code, out, err = run(capsys, "catalog", "run", "--p", "2")
    assert code == 2
    assert "invariant" in err
    assert "ERROR" not in out


def test_deterministic_output_bytes(capsys):
    _, first, _ = run(capsys, "catalog", "run", "--p", "2", "--json")
    _, second, _ = run(capsys, "catalog", "run", "--p", "2", "--json")
    assert first == second
