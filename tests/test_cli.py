import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dequiv.cli import run
from dequiv.posets import diamond, poset_from_covers


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(diamond().to_json()))
    return str(path)


def test_verify_xp_pass_exit_code(capsys):
    assert run(["verify", "xp", "--weights", "2,2,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"
    assert set(out["equal_fields"]) == {"simples", "det_cartan", "coxeter", "snf_antisym"}


def test_verify_t2_and_remark(capsys):
    assert run(["verify", "t2", "--weights", "2,3"]) == 0
    assert run(["verify", "remark", "--family", "3", "--p2", "2", "--p3", "2"]) == 0


def test_hh_both_agrees(diamond_file, capsys):
    assert run(["hh", "--poset", diamond_file, "--method", "both",
                "--max-degree", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nerve"] == [1, 0, 0] and out["bar"] == [1, 0, 0] and out["agree"]


def test_hh_bar_on_weights(capsys):
    assert run(["hh", "--weights", "2,2,2,2", "--lambdas", "1,2",
                "--method", "bar", "--max-degree", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bar"] == [1, 0, 1]


def test_fractional_lambdas_golden_json(capsys):
    # non-integral lambdas keep Fraction entries in the relations and the
    # bases; the certificate and HH are the printed JSON, byte for byte
    golden = [
        (["invariants", "--weights", "2,2,2,2", "--lambdas", "1,1/2"],
         {"convention": "phi=-C^{-T}C", "coxeter": [1, 2, -1, -4, -1, 2, 1],
          "det_cartan": 1, "gldim": 2, "simples": 6, "snf_antisym": [1, 1],
          "total_dimension": 16,
          "vertex_order": ["0", "1,1", "2,1", "3,1", "4,1", "w"]}),
        (["hh", "--weights", "2,2,2,2", "--lambdas", "1,2/3", "--method", "bar",
          "--max-degree", "2"],
         {"bar": [1, 0, 1], "max_degree": 2, "method": "bar"}),
    ]
    for argv, expected in golden:
        assert run(argv) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert run(["canonical", "--weights", "2,2,2,2", "--lambdas", "1,1/2"]) == 0
    rels = json.loads(capsys.readouterr().out)["relations"]
    assert [[t["coeff"] for t in r["terms"]] for r in rels] == [["1", "-1", "1"], ["1", "-1", "1/2"]]


def test_invariants_sources_and_field(diamond_file, capsys):
    assert run(["invariants", "--poset", diamond_file]) == 0
    cert_q = json.loads(capsys.readouterr().out)
    assert run(["--field", "fp:101", "invariants", "--poset", diamond_file]) == 0
    cert_p = json.loads(capsys.readouterr().out)
    assert cert_q["coxeter"] == cert_p["coxeter"]


def test_incidence_over_the_field(diamond_file, capsys):
    # the commutativity relation of the diamond is a - b; over GF(2) -1 = 1
    def coeffs(args):
        assert run(args + ["incidence", "--poset", diamond_file]) == 0
        rels = json.loads(capsys.readouterr().out)["relations"]
        return [[t["coeff"] for t in r["terms"]] for r in rels]
    assert coeffs([]) == [["1", "-1"]]
    assert coeffs(["--field", "fp:2"]) == [["1", "1"]]
    assert coeffs(["--field", "fp:3"]) == [["1", "2"]]


def test_determinism(capsys):
    run(["posets", "enumerate", "--n", "4"])
    first = capsys.readouterr().out
    run(["posets", "enumerate", "--n", "4"])
    assert capsys.readouterr().out == first


def test_enumeration_output_ignores_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "dequiv.cli", "posets", "enumerate",
                               "--n", "6", "--connected"],
                              env=env, capture_output=True, timeout=120, check=True)
        outs.append(done.stdout)
    assert json.loads(outs[0])["count"] == 238
    assert outs[0] == outs[1]


def test_search_no_poset(capsys):
    assert run(["search", "no-poset", "--p", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matches"] == []


def test_bgp_round_trip(tmp_path, capsys):
    chain_q = {"vertices": ["a", "b"], "arrows": [{"id": "f", "from": "a", "to": "b"}]}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(chain_q))
    assert run(["bgp", "--quiver", str(path), "--vertex", "b"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["arrows"][0]["from"] == "b" and out["arrows"][0]["to"] == "a"


def test_invalid_inputs_exit_2(diamond_file, capsys):
    assert run(["canonical", "--weights", "bogus"]) == 2
    assert run(["invariants"]) == 2
    assert run(["invariants", "--poset", diamond_file, "--weights", "2,2,2"]) == 2
    assert run(["--field", "fp:8", "canonical", "--weights", "2,2"]) == 2
    assert run(["posets", "enumerate", "--n", "99"]) == 2
    capsys.readouterr()


def test_text_format(diamond_file, capsys):
    assert run(["--format", "text", "invariants", "--poset", diamond_file]) == 0
    out = capsys.readouterr().out
    assert "coxeter:" in out and not out.lstrip().startswith("{")


PATH_QUIVER = {"vertices": ["a", "b", "c"],
               "arrows": [{"id": "x", "from": "a", "to": "b"},
                          {"id": "y", "from": "b", "to": "c"}]}


@pytest.mark.parametrize("data, message", [
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": []}]}]),
     'relation term {"coeff": "1", "path": []} has an empty path and no \'source\' vertex'),
    ({"vertices": ["a"]}, "quiver is missing key 'arrows'"),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "z"]}]}]),
     'relation term {"coeff": "1", "path": ["x", "z"]} uses unknown arrow \'z\''),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x"]}]}]),
     "relation 1*x is not admissible: its term x has 1 arrow(s)"),
], ids=["empty-path", "missing-key", "unknown-arrow", "length-1-relation"])
def test_malformed_quiver_names_the_problem(tmp_path, capsys, data, message):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    assert run(["invariants", "--quiver", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"elements": ["a", "b"]}, "poset is missing key 'covers'"),
    ({"elements": ["a", "b"], "covers": [["a"]]}, 'cover ["a"] is not a pair [lower, upper]'),
], ids=["missing-key", "bad-cover"])
def test_malformed_poset_names_the_problem(tmp_path, capsys, data, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert run(["invariants", "--poset", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_admissible_quiver_relation_is_accepted(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(
        PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "y"]}]}])))
    assert run(["invariants", "--quiver", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["total_dimension"] == 5


@pytest.mark.parametrize("p, weights", [(2, "2,2,2,2"), (3, "2,2,2,2,2")])
def test_default_lambdas_too_few_in_prime_field(capsys, p, weights):
    t = len(weights.split(","))
    assert run(["--field", "fp:%d" % p, "invariants", "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert ("no default lambdas for t = %d weights over GF(%d)" % (t, p)) in err
    assert "GF(%d) has only %d" % (p, p - 1) in err


def test_hh_nerve_over_the_prime_field(rp2, tmp_path, capsys):
    # the projective plane has H^1 = H^2 = k over GF(2): the nerve must be
    # taken over the field of the bar complex for the two to agree
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(rp2.to_json()))
    args = ["hh", "--poset", str(path), "--method", "both", "--max-degree", "2"]
    assert run(["--field", "fp:2"] + args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nerve"] == out["bar"] == [1, 1, 1] and out["agree"]
    assert run(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nerve"] == out["bar"] == [1, 0, 0] and out["agree"]


@pytest.mark.parametrize("args", [
    ["verify", "xp", "--weights", "2,3,3"],
    ["verify", "t2", "--weights", "2,3"],
    ["verify", "remark", "--family", "3", "--p2", "2", "--p3", "2"],
    ["search", "no-poset", "--p", "2"],
], ids=lambda args: " ".join(args[:2]))
def test_rational_only_commands_refuse_another_field(capsys, args):
    # these pipelines build every algebra over Q; a prime field is refused
    # rather than ignored
    assert run(["--field", "fp:2"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s runs over q only\n" % " ".join(args[:2])
