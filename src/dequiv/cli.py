"""Command-line front end: construct, compute, verify, search.

Exit codes: 0 success/pass, 1 verification failure, 2 invalid input."""

from __future__ import annotations

import json
import sys

import click

from .exactla import QQ, field_from_spec
from .posets import Poset, PosetError, enumerate_posets
from .quivers import (Presentation, QuiverError, bgp_reflect, canonical_presentation)
from .algebra import AlgebraError, build_algebra, incidence_algebra
from .homology import (ResourceRefusal, certificate, hochschild_bar,
                       nerve_cohomology, poset_certificate)
from .derived import (DerivedError, no_poset_search, verify_remark_family,
                      verify_t2, verify_weights)

INPUT_ERRORS = (PosetError, QuiverError, AlgebraError, DerivedError,
                ResourceRefusal, ValueError, KeyError, OSError,
                json.JSONDecodeError)


def _parse_weights(text, minimum=2):
    try:
        ws = [int(x) for x in text.split(",")]
    except ValueError:
        raise click.UsageError("weights must be comma-separated integers")
    if any(w < minimum for w in ws):
        raise click.UsageError("weights must be >= %d" % minimum)
    return ws


def _refuse_lambdas_without_weights(weights, lambdas):
    """--lambdas parametrises a canonical algebra, so it needs --weights."""
    if lambdas is not None and not weights:
        raise click.UsageError("--lambdas applies only with --weights")


def _parse_lambdas(text, field):
    if text is None:
        return None
    lambdas = []
    for x in text.split(","):
        try:
            lambdas.append(field.from_str(x))
        except (ValueError, ZeroDivisionError):
            raise click.UsageError("--lambdas value %r is not an element of %r"
                                   % (x, field)) from None
    return lambdas


def _render(data, fmt):
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    return _as_text(data)


def _as_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(data, list):
        return "\n".join(_as_text(v, indent) if isinstance(v, (dict, list))
                         else "%s- %s" % (pad, v) for v in data)
    return "%s%s" % (pad, data)


def _emit(ctx, data):
    click.echo(_render(data, ctx.obj["format"]))


@click.group()
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True, help="Output rendering.")
@click.option("--field", "field_spec", default="q", show_default=True,
              help="Coefficient field: q or fp:PRIME.")
@click.pass_context
def main(ctx, fmt, field_spec):
    """Exact-arithmetic workbench for derived-equivalence invariants."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    try:
        ctx.obj["field"] = field_from_spec(field_spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _require_q(ctx, command):
    """Refuse a --field other than q: the command builds its algebras over Q."""
    if ctx.obj["field"] is not QQ:
        raise click.UsageError("%s runs over q only" % command)


def _algebra_from_source(ctx, weights, lambdas, poset_path, quiver_path):
    sources = [s for s in (weights, poset_path, quiver_path) if s]
    if len(sources) != 1:
        raise click.UsageError("provide exactly one of --weights, --poset, --quiver")
    f = ctx.obj["field"]
    if weights:
        ws = _parse_weights(weights)
        return build_algebra(canonical_presentation(ws, _parse_lambdas(lambdas, f), f))
    if poset_path:
        return incidence_algebra(Poset.load(poset_path), f)
    return build_algebra(Presentation.load(quiver_path, f))


@main.command()
@click.option("--weights", required=True, help="Comma-separated weights, e.g. 2,3,4.")
@click.option("--lambdas", "lambdas", default=None,
              help="Comma-separated parameters for arms 3..t (default 1,2,...).")
@click.pass_context
def canonical(ctx, weights, lambdas):
    """Presentation of the canonical algebra of the given weights."""
    f = ctx.obj["field"]
    pres = canonical_presentation(_parse_weights(weights), _parse_lambdas(lambdas, f), f)
    _emit(ctx, pres.to_json())


@main.command()
@click.option("--poset", "poset_path", required=True, type=click.Path(exists=True))
@click.pass_context
def incidence(ctx, poset_path):
    """Presentation of the incidence algebra of a poset file."""
    from .quivers import incidence_presentation
    _emit(ctx, incidence_presentation(Poset.load(poset_path), ctx.obj["field"]).to_json())


@main.command()
@click.option("--weights", default=None, help="Canonical algebra weights.")
@click.option("--lambdas", default=None)
@click.option("--poset", "poset_path", default=None, type=click.Path(exists=True))
@click.option("--quiver", "quiver_path", default=None, type=click.Path(exists=True))
@click.pass_context
def invariants(ctx, weights, lambdas, poset_path, quiver_path):
    """Derived-invariant certificate of an algebra from one source."""
    _refuse_lambdas_without_weights(weights, lambdas)
    if poset_path and not (weights or quiver_path):
        # the incidence algebra's certificate, read off the poset
        cert = poset_certificate(Poset.load(poset_path), ctx.obj["field"])
    else:
        cert = certificate(_algebra_from_source(ctx, weights, lambdas, poset_path,
                                                quiver_path))
    _emit(ctx, cert.to_json())


@main.group()
def verify():
    """Certificate-comparison verification pipelines."""


@verify.command("xp")
@click.option("--weights", required=True, help="Three weights p1,p2,p3.")
@click.option("--beilinson", is_flag=True, default=False,
              help="Also run the Ext-table and unimodularity check.")
@click.pass_context
def verify_xp_cmd(ctx, weights, beilinson):
    _require_q(ctx, "verify xp")
    ws = _parse_weights(weights)
    if len(ws) != 3 or not ws[0] <= ws[1] <= ws[2]:
        raise click.UsageError("expected three nondecreasing weights")
    report = verify_weights(ws[0], ws[1], ws[2], with_beilinson=beilinson)
    _emit(ctx, report)
    sys.exit(0 if report["verdict"] == "pass" else 1)


@verify.command("t2")
@click.option("--weights", required=True, help="Two weights p1,p2.")
@click.pass_context
def verify_t2_cmd(ctx, weights):
    _require_q(ctx, "verify t2")
    ws = _parse_weights(weights)
    if len(ws) != 2:
        raise click.UsageError("expected two weights")
    report = verify_t2(ws[0], ws[1])
    _emit(ctx, report)
    sys.exit(0 if report["verdict"] == "pass" else 1)


@verify.command("remark")
@click.option("--family", type=int, required=True)
@click.option("--p2", type=int, required=True)
@click.option("--p3", type=int, required=True)
@click.option("--orientations", type=click.Choice(["all"]), default="all",
              show_default=True)
@click.pass_context
def verify_remark_cmd(ctx, family, p2, p3, orientations):
    _require_q(ctx, "verify remark")
    report = verify_remark_family(family, p2, p3)
    _emit(ctx, report)
    sys.exit(0 if report["verdict"] == "pass" else 1)


@main.command()
@click.option("--poset", "poset_path", default=None, type=click.Path(exists=True))
@click.option("--weights", default=None)
@click.option("--lambdas", default=None)
@click.option("--max-degree", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--method", type=click.Choice(["nerve", "bar", "both"]), default="both",
              show_default=True)
@click.pass_context
def hh(ctx, poset_path, weights, lambdas, max_degree, method):
    """Hochschild cohomology dimensions, degrees 0..max-degree."""
    _refuse_lambdas_without_weights(weights, lambdas)
    if bool(poset_path) == bool(weights):
        raise click.UsageError("provide exactly one of --poset, --weights")
    if method in ("nerve", "both") and not poset_path:
        raise click.UsageError("--method %s requires --poset" % method)
    out = {"max_degree": max_degree, "method": method}
    poset = Poset.load(poset_path) if poset_path else None
    if method in ("nerve", "both"):
        out["nerve"] = nerve_cohomology(poset, max_degree, ctx.obj["field"])
    if method in ("bar", "both"):
        alg = (incidence_algebra(poset, ctx.obj["field"]) if poset is not None
               else _algebra_from_source(ctx, weights, lambdas, None, None))
        out["bar"] = hochschild_bar(alg, max_degree)
    if method == "both":
        out["agree"] = out["nerve"] == out["bar"]
    _emit(ctx, out)
    if method == "both" and not out["agree"]:
        sys.exit(1)


@main.group()
def posets():
    """Poset utilities."""


@posets.command("enumerate")
@click.option("--n", type=int, required=True)
@click.option("--connected", is_flag=True, default=False)
@click.pass_context
def posets_enumerate(ctx, n, connected):
    """All posets on n elements up to isomorphism."""
    ps = enumerate_posets(n, connected_only=connected)
    _emit(ctx, {"n": n, "connected": connected, "count": len(ps),
                "posets": [p.to_json() for p in ps]})


@main.group()
def search():
    """Exhaustive searches."""


@search.command("no-poset")
@click.option("--p", type=int, required=True)
@click.pass_context
def search_no_poset(ctx, p):
    """Search for posets derived-matching the two-parallel-paths algebra."""
    _require_q(ctx, "search no-poset")
    report = no_poset_search(p)
    _emit(ctx, report)
    sys.exit(0 if report["verdict"] == "pass" else 1)


@main.command()
@click.option("--quiver", "quiver_path", required=True, type=click.Path(exists=True))
@click.option("--vertex", required=True)
@click.pass_context
def bgp(ctx, quiver_path, vertex):
    """BGP reflection of a relation-free quiver at a source or sink."""
    pres = Presentation.load(quiver_path, ctx.obj["field"])
    if pres.relations:
        raise click.UsageError("BGP reflection applies to relation-free quivers")
    _emit(ctx, bgp_reflect(pres.quiver, vertex).to_json())


def run(argv=None):
    """Programmatic entry point returning the exit code."""
    try:
        main.main(args=argv, standalone_mode=False, obj={})
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo("error: %s" % exc.format_message(), err=True)
        return 2
    except INPUT_ERRORS as exc:
        click.echo("error: %s" % exc, err=True)
        return 2
    return 0


def _script_main():
    sys.exit(run())


if __name__ == "__main__":
    _script_main()
