import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dequiv import cli
from dequiv.algebra import incidence_algebra
from dequiv.cli import run
from dequiv.exactla import QQ, PrimeField
from dequiv.homology import certificate
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


@pytest.mark.parametrize("method", ["nerve", "bar", "both"])
def test_hh_refuses_a_negative_degree_bound(diamond_file, method, capsys):
    assert run(["hh", "--poset", diamond_file, "--method", method,
                "--max-degree", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--max-degree" in out.err


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


def test_invariants_sources_and_field(diamond_file, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "incidence_algebra", lambda *args: built.append(args))
    assert run(["invariants", "--poset", diamond_file]) == 0
    cert_q = json.loads(capsys.readouterr().out)
    assert run(["--field", "fp:101", "invariants", "--poset", diamond_file]) == 0
    cert_p = json.loads(capsys.readouterr().out)
    assert cert_q["coxeter"] == cert_p["coxeter"]
    # a poset is certified from the poset, with the incidence algebra's
    # certificate, vertex order included, and no algebra built
    assert built == []
    assert cert_q == certificate(incidence_algebra(diamond(), QQ)).to_json()
    assert cert_p == certificate(incidence_algebra(diamond(), PrimeField(101))).to_json()


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


@pytest.mark.parametrize("args, size, digest", [
    ([], 1047279, "a16d4e95a60d3701862f04c522a18c2b7970fe1b8536a386c98e4d308881d6e4"),
    (["--connected"], 878169, "c2a111579ed96cb8fd5f6adc2303b511f330057b47ef36618de3628d36cadafd"),
], ids=["all", "connected"])
def test_enumeration_listing_is_pinned(capsys, args, size, digest):
    """The 7-element listings, byte for byte: every class, its labels, its
    covers and the order of the list."""
    assert run(["posets", "enumerate", "--n", "7"] + args) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


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
     'relation term {"coeff": "1", "path": []} is not admissible: its path has 0 arrows'),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": [], "source": "a"}]}]),
     'relation term {"coeff": "1", "path": [], "source": "a"} is not admissible: '
     'its path has 0 arrows, and every path in a relation needs at least 2'),
    ({"vertices": ["a"]}, "quiver is missing key 'arrows'"),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "z"]}]}]),
     'relation term {"coeff": "1", "path": ["x", "z"]} uses unknown arrow \'z\''),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x"]}]}]),
     "relation 1*x is not admissible: its term x has 1 arrow(s)"),
    (dict(PATH_QUIVER, vertices="abc"), """quiver key 'vertices' is "abc", not a list"""),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": "xy"}]}]),
     """relation term {"coeff": "1", "path": "xy"} key 'path' is "xy", not a list"""),
    (dict(PATH_QUIVER, arrows=[{"id": ["x"], "from": "a", "to": "b"}]),
     """arrow {"id": ["x"], "from": "a", "to": "b"} key 'id' is ["x"], not a string"""),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1/0", "path": ["x", "y"]}]}]),
     'relation term {"coeff": "1/0", "path": ["x", "y"]} has coefficient "1/0", '
     'which is not an element of QQ'),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "abc", "path": ["x", "y"]}]}]),
     'relation term {"coeff": "abc", "path": ["x", "y"]} has coefficient "abc", '
     'which is not an element of QQ'),
    (dict(PATH_QUIVER, relations=[{"terms": []}]), 'relation {"terms": []} has no terms'),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": 0.1, "path": ["x", "y"]}]}]),
     'relation term {"coeff": 0.1, "path": ["x", "y"]} has coefficient 0.1, '
     'which is not an element of QQ'),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": True, "path": ["x", "y"]}]}]),
     'relation term {"coeff": true, "path": ["x", "y"]} has coefficient true, '
     'which is not an element of QQ'),
    (dict(PATH_QUIVER, vertices=["a", "b", "a", "c"]), "duplicate vertex labels: 'a'"),
    (dict(PATH_QUIVER, arrows=PATH_QUIVER["arrows"] + [{"id": "x", "from": "a", "to": "c"}]),
     "duplicate arrow names: 'x'"),
    (dict(PATH_QUIVER, arrows=PATH_QUIVER["arrows"] + [{"id": "z", "from": "a", "to": "q"}]),
     "arrow z has endpoint off the vertex set: 'q'"),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "y"]},
                                             {"coeff": "2", "path": ["x", "y"]}]}]),
     "relation repeats a path: x.y in 1*x.y + 2*x.y"),
    (dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "0", "path": ["x", "y"]}]}]),
     "relation with all-zero coefficients: 0*x.y"),
], ids=["empty-path", "empty-path-with-source", "missing-key", "unknown-arrow",
        "length-1-relation", "vertices-not-a-list", "path-not-a-list",
        "arrow-id-not-a-string", "zero-denominator", "coeff-not-a-number",
        "no-terms", "coeff-float", "coeff-boolean", "duplicate-vertex", "duplicate-arrow",
        "endpoint-off-the-vertices", "repeated-path", "all-zero-coefficients"])
def test_malformed_quiver_names_the_problem(tmp_path, capsys, data, message):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    assert run(["invariants", "--quiver", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"elements": ["a", "b"]}, "poset is missing key 'covers'"),
    ({"elements": ["a", "b"], "covers": [["a"]]}, 'cover ["a"] is not a pair [lower, upper]'),
    ({"elements": "abc", "covers": []}, """poset key 'elements' is "abc", not a list"""),
    ({"elements": [["a"], "b"], "covers": []},
     """poset key 'elements' holds ["a"], not a string"""),
    ({"elements": ["a", "b"], "covers": [[["a"], "b"]]},
     'cover [["a"], "b"] is not a pair [lower, upper] of labels'),
], ids=["missing-key", "bad-cover", "elements-not-a-list", "label-not-a-string",
        "cover-label-not-a-string"])
def test_malformed_poset_names_the_problem(tmp_path, capsys, data, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert run(["invariants", "--poset", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, data, message", [
    # int and str labels cannot be sorted into the chains of the order complex
    (["hh", "--method", "nerve", "--poset"], {"elements": [1, "b"], "covers": [[1, "b"]]},
     "poset key 'elements' holds 1, not a string"),
    (["--field", "fp:3", "invariants", "--quiver"],
     dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "abc", "path": ["x", "y"]}]}]),
     'relation term {"coeff": "abc", "path": ["x", "y"]} has coefficient "abc", '
     'which is not an element of GF(3)'),
    # over GF(3) a float would truncate to 0 and its term would vanish
    (["--field", "fp:3", "invariants", "--quiver"],
     dict(PATH_QUIVER, relations=[{"terms": [{"coeff": 3.9, "path": ["x", "y"]}]}]),
     'relation term {"coeff": 3.9, "path": ["x", "y"]} has coefficient 3.9, '
     'which is not an element of GF(3)'),
    (["bgp", "--vertex", "a", "--quiver"],
     dict(PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "y"]}]}]),
     "BGP reflection applies to relation-free quivers"),
], ids=["hh-nerve-mixed-labels", "coeff-outside-gf3", "coeff-float-gf3", "bgp-relations"])
def test_malformed_input_of_other_commands_names_the_problem(tmp_path, capsys, args,
                                                             data, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert run(args + [str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["invariants", "--weights", "2,2,2,2", "--lambdas", "1/0"],
     "--lambdas value '1/0' is not an element of QQ"),
    (["hh", "--weights", "2,2,2,2", "--lambdas", "1/0", "--method", "bar"],
     "--lambdas value '1/0' is not an element of QQ"),
    (["invariants", "--weights", "2,2,2,2", "--lambdas", "x"],
     "--lambdas value 'x' is not an element of QQ"),
    (["--field", "fp:3", "invariants", "--weights", "2,2,2,2", "--lambdas", "x"],
     "--lambdas value 'x' is not an element of GF(3)"),
], ids=["zero-denominator", "hh-zero-denominator", "not-a-number", "not-a-number-gf3"])
def test_lambdas_outside_the_field_name_the_option(capsys, args, message):
    assert run(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_admissible_quiver_relation_is_accepted(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(
        PATH_QUIVER, relations=[{"terms": [{"coeff": "1", "path": ["x", "y"]}]}])))
    assert run(["invariants", "--quiver", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["total_dimension"] == 5


def test_integer_coefficient_reads_as_its_string(tmp_path, capsys):
    # a JSON integer is the field element its decimal string names
    outs = []
    for coeff in (-2, "-2"):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(dict(
            PATH_QUIVER, relations=[{"terms": [{"coeff": coeff, "path": ["x", "y"]}]}])))
        assert run(["invariants", "--quiver", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["total_dimension"] == 5


KRONECKER = str(Path(__file__).resolve().parent / "data" / "kronecker.json")
A2 = str(Path(__file__).resolve().parent / "data" / "a2.json")


@pytest.mark.parametrize("args, message", [
    (["canonical", "--weights", "2,3", "--lambdas", "5"],
     "need 0 lambda parameters for 2 weights"),
    (["canonical", "--weights", "2,3", "--lambdas", "0"],
     "need 0 lambda parameters for 2 weights"),
    (["invariants", "--weights", "2,3", "--lambdas", "7"],
     "need 0 lambda parameters for 2 weights"),
    (["invariants", "--poset", "DIAMOND", "--lambdas", "7"],
     "--lambdas applies only with --weights"),
    (["invariants", "--quiver", KRONECKER, "--lambdas", "7"],
     "--lambdas applies only with --weights"),
    (["hh", "--poset", "DIAMOND", "--lambdas", "7", "--method", "both"],
     "--lambdas applies only with --weights"),
    (["invariants", "--weights", "2,2,2", "--lambdas", "0"], "lambda parameters must be nonzero"),
    (["invariants", "--weights", "2,2,2,2", "--lambdas", "1,1"],
     "lambda parameters must be pairwise distinct"),
], ids=["canonical-t2", "canonical-t2-zero", "invariants-t2", "invariants-poset",
        "invariants-quiver", "hh-poset", "lambda-zero", "lambdas-repeated"])
def test_lambdas_that_cannot_apply_are_refused(diamond_file, capsys, args, message):
    assert run([diamond_file if a == "DIAMOND" else a for a in args]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("args, message", [
    (["canonical", "--weights", "1,2"], "weights must be >= 2"),
    (["hh", "--poset", "DIAMOND", "--weights", "2,2,2"],
     "provide exactly one of --poset, --weights"),
    (["hh", "--weights", "2,2,2", "--method", "nerve"], "--method nerve requires --poset"),
    (["verify", "xp", "--weights", "3,2,3"], "expected three nondecreasing weights"),
    (["verify", "t2", "--weights", "2,3,4"], "expected two weights"),
    (["hh", "--weights", "2,2,2", "--method", "bar", "--max-degree", "4"],
     "hochschild_bar supports max_deg <= 3"),
    (["bgp", "--quiver", A2, "--vertex", "q"], "unknown vertex q"),
    (["--field", "gf7", "canonical", "--weights", "2,3"], "unknown field spec 'gf7'"),
    (["verify", "remark", "--family", "4", "--p2", "2", "--p3", "2"],
     "remark family must be 1, 2 or 3"),
], ids=["canonical-weight-1", "hh-two-sources",
        "hh-nerve-without-poset", "verify-xp-decreasing", "verify-t2-three-weights",
        "hh-degree-4", "bgp-unknown-vertex", "unknown-field", "remark-family-4"])
def test_usage_errors_name_the_problem(diamond_file, capsys, args, message):
    assert run([diamond_file if a == "DIAMOND" else a for a in args]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_verify_xp_notes_that_p1_2_has_no_table(capsys):
    assert run(["verify", "xp", "--weights", "2,3,3", "--beilinson"]) == 0
    assert json.loads(capsys.readouterr().out)["beilinson"] == {
        "window": [-3, 3], "equal": None, "k0_unimodular": None,
        "note": "cone-functor images unavailable for p1 = 2"}


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
