import gc
import json
import os
import random

import pytest

from diffalg import cli
from diffalg.algebra import Poly
from diffalg.cli import build_parser, main
from diffalg.config import CommutationCheck
from diffalg.jsontext import json_text
from diffalg.parsing import parse_config

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jet_command(capsys):
    code, out, _ = run(capsys, "jet", "d1(x * d1(x))", "--mode", "comm")
    assert code == 0
    assert out.strip() == "x[0]*x[d1^2] + x[d1]^2"


def test_jet_atom_and_json(capsys):
    code, out, _ = run(capsys, "jet", "d1(x) = x", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rel"] == "="
    assert data["poly"] == "x[d1] - x[0]"


def test_derive_command(capsys):
    code, out, _ = run(capsys, "derive", "x^2 / t", "--spec", "eta: t -> 1; d: x -> u")
    assert code == 0
    assert out.strip() == "(2*t*u*x - x^2) / (t^2)"


def test_config_check_commuting(capsys):
    code, out, _ = run(capsys, "config-check", os.path.join(CORPUS, "commuting.cfg"))
    assert code == 0
    assert "local: commutes" in out


def test_config_check_violation_with_global(capsys):
    code, out, _ = run(
        capsys,
        "config-check",
        os.path.join(CORPUS, "noncomm.cfg"),
        "--global-degree",
        "3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    local, glob = data["reports"]
    assert not local["commutes"]
    bad = [c for c in local["checks"] if c["status"].startswith("violation")]
    assert bad and bad[0]["alpha"] == "d1 d2"
    assert not glob["commutes"]


def test_config_check_rejects_negative_global_degree(capsys):
    code, out, err = run(
        capsys, "config-check", os.path.join(CORPUS, "commuting.cfg"), "--global-degree", "-3"
    )
    assert code == 1
    assert out == ""
    assert "negative degree bound -3" in err


def test_config_check_jobs_flag_leaves_output_unchanged(capsys):
    args = ["config-check", os.path.join(CORPUS, "noncomm.cfg"), "--global-degree", "4", "--json"]
    serial = run(capsys, *args, "--jobs", "1")
    assert serial[0] == 0
    assert run(capsys, *args, "--jobs", "4") == serial


@pytest.mark.parametrize(
    "text, message",
    [
        ("k = two\nP: d1\np[d1] = x[d1]\n", "expected a number, found 'two' (line 1, column 5)"),
        ("k = 1\nbase\nP: d1\np[d1] = x[d1]\n", "expected '=', found end of input (line 2, column 5)"),
        ("k = 2\n# leaders\n\nP: d1, d5\n", "generator d5 exceeds k=2 (line 4, column 8)"),
        ("k = 2\n\n\nP: d1\np[d7] = x[d1]\n", "generator d7 exceeds k=2 (line 5, column 3)"),
    ],
)
def test_config_parse_errors_exit_2_with_their_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    code, out, err = run(capsys, "config-check", str(bad))
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_config_g(capsys):
    path = os.path.join(CORPUS, "commuting.cfg")
    code, out, _ = run(capsys, "config-g", path, "d1 d2")
    assert code == 0
    assert "x[d2]" in out
    # a deep word costs no stack: its value is derived one letter at a time
    code, out, _ = run(capsys, "config-g", path, "d1^2000")
    assert (code, out) == (0, f"x[d1]\n  (word {' '.join(['d1'] * 1999)}, leader d1)\n")


def test_prolong_circle(capsys):
    code, out, _ = run(capsys, "prolong", os.path.join(CORPUS, "circle.variety"))
    assert code == 0
    data = json.loads(out)
    assert data["equations"] == ["2*y*y_y + 2*x*y_x"]
    assert data["tangent_space"]["dimension"] == 1


def test_prolong_twisted_equations_only(capsys):
    code, out, _ = run(capsys, "prolong", os.path.join(CORPUS, "twisted_parabola.variety"))
    assert code == 0
    data = json.loads(out)
    assert data["equations"] == ["2*x*y_x - 1"]
    assert "tangent_space" not in data


def test_prolong_twisted_point(capsys):
    code, out, _ = run(
        capsys,
        "prolong",
        os.path.join(CORPUS, "twisted_line.variety"),
        "--point",
        "t",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tangent_space"]["particular"] == ["1"]
    assert data["tangent_space"]["dimension"] == 0


def test_axiom_wide(capsys):
    code, out, _ = run(capsys, "axiom-wide", os.path.join(CORPUS, "product.zjson"), "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["x"] == ["z1", "z2"]
    assert len(data["y"]) == 2
    assert any(a["poly"] == "-z2 + y1" for a in data["wide"]["atoms"])


@pytest.mark.parametrize("entry", ["2*z2", "z2^2", "z2 + 1"])
def test_axiom_wide_rejects_entries_that_are_not_single_variables(tmp_path, capsys, entry):
    desc = {"indices": ["z1", entry, "z3"], "atoms": [{"poly": "z3 - z1*z2"}], "projection": ["z1"]}
    path = tmp_path / "deep.zjson"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "axiom-wide", str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error")


@pytest.mark.parametrize(
    "desc",
    [
        {"indices": [1, "z2"], "atoms": [{"poly": "z2"}], "projection": ["z2"]},
        {"indices": ["z1"], "atoms": ["z1"], "projection": ["z1"]},
        {"indices": ["z1"], "atoms": [{"poly": 5}], "projection": ["z1"]},
    ],
    ids=["index not a string", "atom not an object", "poly not a string"],
)
def test_axiom_wide_rejects_json_values_of_the_wrong_type(tmp_path, capsys, desc):
    path = tmp_path / "deep.zjson"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "axiom-wide", str(path), "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_axiom_wide_rejects_depth_below_one(capsys, n):
    code, out, err = run(capsys, "axiom-wide", os.path.join(CORPUS, "product.zjson"), "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"error: the depth n must be at least 1, got {n}\n"


@pytest.mark.parametrize(
    "argv, column",
    [(["--word", "d1 d3", "--leader", "d1"], 4), (["d1^2 d3"], 6)],
    ids=["free word", "exponent tuple"],
)
def test_config_g_rejects_generators_beyond_k(capsys, argv, column):
    code, out, err = run(capsys, "config-g", os.path.join(CORPUS, "commuting.cfg"), *argv)
    assert code == 2
    assert out == ""
    assert err == f"parse error: generator d3 exceeds k=2 (line 1, column {column})\n"


def test_config_g_refuses_a_monomial_together_with_a_word(capsys):
    path = os.path.join(CORPUS, "commuting.cfg")
    code, out, err = run(capsys, "config-g", path, "d1^5", "--word", "d1", "--leader", "d2")
    assert code == 1
    assert out == ""
    assert err == "error: give an exponent monomial or --word with --leader, not both\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--word", "d1"], "--word and --leader must be given together"),
        ([], "give an exponent monomial, or --word together with --leader"),
    ],
)
def test_config_g_needs_a_monomial_or_a_word_with_a_leader(capsys, flags, message):
    code, out, err = run(capsys, "config-g", os.path.join(CORPUS, "commuting.cfg"), *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_relation_declared_twice_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("k = 2\nP: d1\np[d1] = x[d1] - x[0]\np[d1] = x[d1] - 5*x[0]\n")
    code, out, err = run(capsys, "config-g", str(cfg), "d1^2")
    assert code == 2
    assert out == ""
    assert err == "parse error: `p[d1]` is declared twice (line 4, column 1)\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_dim_cert(capsys):
    code, out, _ = run(capsys, "dim-cert", os.path.join(CORPUS, "chain.tri"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1
    assert data["solve_order"] == ["x1", "x2"]


def test_dim_cert_without_ambient_line_orders_the_equation_variables(tmp_path, capsys):
    system = tmp_path / "chain.tri"
    system.write_text("x1 : x1 - x0^2\nx2 : x2^2 - x1\n")
    code, out, _ = run(capsys, "dim-cert", str(system))
    assert code == 0
    assert out == "dimension 1; solve order: x1, x2\n"


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text("k = 2\nP: d1\np[d1] = x[\neta: none\n")
    code, _, err = run(capsys, "config-check", str(bad))
    assert code == 2
    assert "parse error" in err

    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "config-check", str(missing))
    assert code == 1

    # structurally invalid: relation does not involve its leader variable
    invalid = tmp_path / "invalid.cfg"
    invalid.write_text("k = 2\nP: d1, d2\np[d1] = x[0]\np[d2] = x[d2] - x[0]\neta: none\n")
    code, _, err = run(capsys, "config-check", str(invalid))
    assert code == 1
    assert "error" in err

    code, _, err = run(capsys, "derive", "1/x", "--spec", "eta: none; d: x -> 0/0")
    assert code in (1, 2)


def test_config_check_rejects_eta_tables_that_do_not_commute(tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    head = "k = 2\nP: d1, d2\np[d1] = x[d1] - x[0]\np[d2] = x[d2] - 2*x[0]\neta[d1]: c -> 1\n"
    cfg.write_text(head + "eta[d2]: c -> c\n")
    code, out, err = run(capsys, "config-check", str(cfg), "--global-degree", "4")
    assert code == 1
    assert out == ""
    assert "do not commute" in err

    cfg.write_text(head + "eta[d2]: c -> 2\n")
    code, out, _ = run(capsys, "config-check", str(cfg), "--global-degree", "4")
    assert code == 0
    assert "global: commutes" in out


def test_config_check_rejects_jet_variables_in_eta_tables(tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    head = "k = 2\nP: d1, d2\np[d1] = x[d1] - x[0]\np[d2] = x[d2] - c\n"
    for table in ("eta[d1]: x[0] -> 1\n", "eta[d1]: c -> 1, x[0] -> c\n"):
        cfg.write_text(head + table)
        code, out, err = run(capsys, "config-check", str(cfg))
        assert code == 1
        assert out == ""
        assert "coefficient tables act on parameters, not on jet variables" in err


def test_byte_determinism(capsys):
    args = ["config-check", os.path.join(CORPUS, "noncomm.cfg"), "--global-degree", "4", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2

    code1, out1, _ = run(capsys, "prolong", os.path.join(CORPUS, "cusp.variety"))
    code2, out2, _ = run(capsys, "prolong", os.path.join(CORPUS, "cusp.variety"))
    assert out1 == out2 and code1 == code2 == 0


def _random_payload(rng, depth):
    """A nested value of the kinds the reports write: dicts with string keys,
    lists, strings (quotes, escapes, controls and non-ASCII among them),
    ints, booleans and None, empty containers included."""
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return "".join(rng.choice('ab "\\\n\t\x01/é∂\U0001d4b3') for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, -1, 7, 10 ** 30, -(2 ** 70)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind in (4, 5):
        return [_random_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    keys = {rng.choice(["b", "a", "é", "A", "a b", ""]) + str(rng.randrange(3)) for _ in range(rng.randrange(5))}
    return {key: _random_payload(rng, depth - 1) for key in keys}


def test_json_text_writes_what_json_dumps_writes():
    rng = random.Random(3)
    for _ in range(300):
        payload = _random_payload(rng, 4)
        assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)
    # json.dumps also writes floats, tuples and int keys; no report holds them
    for value in (1.5, (1, 2), {1: "one"}):
        with pytest.raises(TypeError):
            json_text(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["prolong", os.path.join(CORPUS, "circle.variety")],
        ["dim-cert", os.path.join(CORPUS, "chain.tri"), "--json"],
        ["axiom-wide", os.path.join(CORPUS, "product.zjson"), "--n", "2"],
        ["config-check", os.path.join(CORPUS, "scaled.cfg"), "--json"],
    ],
)
def test_json_reports_leave_no_reference_cycles(capsys, argv):
    assert run(capsys, *argv)[0] == 0  # warm-up: first-use caches are not garbage
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CORPUS) if n.endswith(".cfg")))
def test_config_check_json_is_json_text_of_the_report_dicts(capsys, name):
    # mixed.cfg, noncomm.cfg and quadratic.cfg hold entries with a witness,
    # a reduced difference and a point; quadratic.cfg from degree 4 on also
    # unconfirmed ones, without a point
    path = os.path.join(CORPUS, name)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for degree in range(7):
        cfg = parse_config(text)
        rng = random.Random(2025)
        reports = [cfg.check_local(rng), cfg.verify_global(degree, rng)]
        expected = json_text({"reports": [r.to_dict() for r in reports]}) + "\n"
        assert run(capsys, "config-check", path, "--global-degree", str(degree), "--json") == (0, expected, "")


def test_a_commutation_check_refuses_assignment_and_deletion():
    cfg = parse_config("k = 2\nP: d1, d2\np[d1] = x[d1] - x[0]\np[d2] = x[d2] - x[0]^2\n")
    check = cfg.check_local(random.Random(1)).first_violation()
    assert check.point is not None
    for name in CommutationCheck.__slots__:
        value = getattr(check, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(check, name, value)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(check, name)
        assert getattr(check, name) is value


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def boom(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "apply_derivation", boom)
    assert run(capsys, "derive", "x", "--spec", "d: x -> 1") == (1, "", "internal error: RuntimeError('boom')\n")


@pytest.mark.parametrize(
    "argv, renders",
    [
        # text mode prints only the derivative; JSON adds the input
        (["derive", "x^2 + t", "--spec", "eta: t -> 1; d: x -> u"], 1),
        (["derive", "x^2 + t", "--spec", "eta: t -> 1; d: x -> u", "--json"], 2),
        (["jet", "d1(x * d1(x))"], 1),
        (["jet", "d1(x) = x", "--json"], 1),
        (["config-g", os.path.join(CORPUS, "scaled.cfg"), "d1 d2"], 1),
        (["config-g", os.path.join(CORPUS, "scaled.cfg"), "d1 d2", "--json"], 1),
        # one violation at d1 d2, local and global: one difference per printed check
        (["config-check", os.path.join(CORPUS, "noncomm.cfg"), "--global-degree", "2"], 2),
        (["config-check", os.path.join(CORPUS, "noncomm.cfg"), "--global-degree", "2", "--json"], 2),
        (["dim-cert", os.path.join(CORPUS, "chain.tri")], 0),
    ],
)
def test_each_printed_value_is_rendered_once(capsys, monkeypatch, argv, renders):
    expected = run(capsys, *argv)
    calls = []
    render = Poly.__str__

    def counted(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(Poly, "__str__", counted)
    assert run(capsys, *argv) == expected
    assert len(calls) == renders
