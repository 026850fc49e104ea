"""Command line surface: validation, curvature extremes, block catalogs,
graph folding and injectivity certificates.

Exit codes: 0 on success (including NOT_INJECTIVE, which is an answer),
1 on any validation or input failure, 2 when the block enumeration
budget is exhausted.  The default budget comes from the
CURV2X_MAX_BLOCKS environment variable when set.  Output is
deterministic: identical inputs and flags give byte-identical output.
"""

import os
import sys

import click

from .branched_complex import curvature_quantities, validate_complex
from .errors import CurvError, EnumerationBudgetExceeded
from .formats import (
    PREDICATE_NAMES,
    InvariantReportLine,
    ReportModel,
    canonical_complex,
    decimal_string,
    format_fraction,
    is_safe_token,
    parse_block_vector,
    parse_certificate,
    parse_complex,
    parse_document,
    parse_graph,
    parse_morphism,
    parse_report,
    serialize_certificate,
    serialize_complex,
    serialize_morphism,
    serialize_report,
)
from .origami import certify_pi1_injective, is_compatible
from .pipeline import (
    INVARIANTS,
    block_area,
    block_chi,
    build_cone,
    extremize,
    require_positive_areas,
)
from .serre_graph import stallings_fold

DEFAULT_BUDGET = 1_000_000
BUDGET_VAR = "CURV2X_MAX_BLOCKS"

_FILE = click.Path(exists=True, dir_okay=False)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _resolve_budget(option):
    if option is not None:
        if option <= 0:
            raise click.UsageError("--max-blocks must be positive")
        return option
    raw = os.environ.get(BUDGET_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise click.UsageError(f"{BUDGET_VAR} must be an integer, got {raw!r}")
    if value <= 0:
        raise click.UsageError(f"{BUDGET_VAR} must be positive")
    return value


def _resolve_predicate(option):
    if option is None:
        return None
    name = option.removeprefix("builtin:")
    if name == option or name not in PREDICATE_NAMES:
        raise click.UsageError("--pi takes " + " or ".join(
            f"builtin:{n}" for n in PREDICATE_NAMES))
    return name


def _yesno(flag):
    return "yes" if flag else "no"


@click.group()
def cli():
    """Exact curvature invariants of branched 2-complexes."""


@cli.command()
@click.argument("file", type=_FILE)
def validate(file):
    """Parse a document and run the validator for its kind."""
    text = _read(file)
    kind = parse_document(text).kind
    if kind == "complex":
        x = parse_complex(text)
        info = validate_complex(x)
        click.echo(f"OK complex: vertices={info['vertices']} "
                   f"edges={info['edges']} faces={info['faces']} "
                   f"area={format_fraction(info['total_area'])}")
    elif kind == "graph":
        g = parse_graph(text)
        click.echo(f"OK graph: vertices={len(g.vertices)} "
                   f"edges={len(g.geometric_edges())} "
                   f"connected={_yesno(g.is_connected())} "
                   f"core={_yesno(g.is_core())}")
    elif kind == "morphism":
        f = parse_morphism(text)
        click.echo(f"OK morphism: vertices={len(f.domain.vertices)} "
                   f"edges={len(f.domain.geometric_edges())} "
                   f"immersion={_yesno(f.is_immersion())}")
    elif kind == "certificate":
        f, omega = parse_certificate(text)
        _check_certificate(f, omega)
        nontrivial = sum(1 for c in omega.open_classes if len(c) > 1)
        click.echo(f"OK certificate: classes={nontrivial}")
    elif kind == "blockvector":
        predicate, vector = parse_block_vector(text)
        click.echo(f"OK blockvector: predicate={predicate} "
                   f"entries={len(vector)}")
    else:
        report = parse_report(text)
        click.echo(f"OK report: invariants={len(report.lines)}")


@cli.command()
@click.option("--decimal", type=int, default=None,
              help="Display values with this many decimal digits.")
@click.argument("file", type=_FILE)
def kappa(decimal, file):
    """Area, Euler characteristic, excess and curvature of a complex."""
    q = curvature_quantities(parse_complex(_read(file)))
    if q.kappa is None:
        raise click.ClickException("kappa needs positive total area")

    def show(q):
        return format_fraction(q) if decimal is None \
            else decimal_string(q, decimal)

    click.echo(f"Area={show(q.area)} chi={q.chi} tau={show(q.tau)} "
               f"kappa={show(q.kappa)}")


@cli.command()
@click.option("--which", required=True,
              type=click.Choice([*INVARIANTS, "all"]))
@click.option("--pi", "pi_option", default=None,
              help="Override the block predicate (builtin:surface or "
                   "builtin:irreducible).")
@click.option("--emit-realizer", type=click.Path(dir_okay=False), default=None)
@click.option("--emit-certificate", type=click.Path(dir_okay=False),
              default=None)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Write a machine-readable report document.")
@click.option("--max-blocks", type=int, default=None)
@click.option("--decimal", type=int, default=None,
              help="Display values with this many decimal digits.")
@click.argument("file", type=_FILE)
def invariant(which, pi_option, emit_realizer, emit_certificate, report_path,
              max_blocks, decimal, file):
    """Exact curvature extremes over blocked complexes above FILE."""
    budget = _resolve_budget(max_blocks)
    override = _resolve_predicate(pi_option)
    names = tuple(INVARIANTS) if which == "all" else (which,)
    if which == "all" and (emit_realizer or emit_certificate):
        raise click.UsageError(
            "--emit-realizer and --emit-certificate need a single --which")
    x = parse_complex(_read(file))
    require_positive_areas(x)
    cones = {}
    lines = []
    for name in names:
        predicate, sense = INVARIANTS[name]
        predicate = override or predicate
        if predicate not in cones:
            cones[predicate] = build_cone(x, predicate, max_candidates=budget)
        report = extremize(cones[predicate], sense, which=name)
        if isinstance(report.value, str):
            shown = report.value
        elif decimal is not None:
            shown = decimal_string(report.value, decimal)
        else:
            shown = format_fraction(report.value)
        click.echo(f"{name} = {shown}")
        realizer_ref = certificate_ref = None
        if emit_realizer or emit_certificate:
            if report.realizer is None:
                click.echo(f"note: {name} has no realizer (no admissible "
                           "blocks); nothing emitted", err=True)
            else:
                y, phi, omega = canonical_complex(report.realizer.complex,
                                                  report.realizer.map,
                                                  report.realizer.origami)
                if emit_realizer:
                    _write(emit_realizer, serialize_complex(y))
                    realizer_ref = emit_realizer
                if emit_certificate:
                    _write(emit_certificate,
                           serialize_certificate(phi.skeleton_map, omega))
                    certificate_ref = emit_certificate
        lines.append(InvariantReportLine(
            name, report.value,
            len(report.cone.variables), len(report.cone.gluing_rows),
            len(report.lp.dual) if report.lp else 0,
            len(report.lp.vertex) if report.lp else 0,
            realizer_ref, certificate_ref, report.integer_vector))
    if report_path is not None:
        source = file if is_safe_token(file) else "-"
        _write(report_path, serialize_report(ReportModel(source,
                                                         tuple(lines))))


@cli.command()
@click.option("--pi", "pi_option", default="builtin:surface",
              show_default=True)
@click.option("--max-blocks", type=int, default=None)
@click.argument("file", type=_FILE)
def blocks(pi_option, max_blocks, file):
    """List the admissible vertex blocks of a complex."""
    predicate = _resolve_predicate(pi_option)
    budget = _resolve_budget(max_blocks)
    x = parse_complex(_read(file))
    cone = build_cone(x, predicate, max_candidates=budget)
    click.echo(f"catalog predicate={predicate} blocks={len(cone.blocks)} "
               f"gluing-rows={len(cone.gluing_rows)}")
    for i, block in enumerate(cone.blocks):
        click.echo(f"block {i} vertex={block.base_vertex} "
                   f"parts={len(block.parts)} "
                   f"corners={len(block.corner_edges)} "
                   f"area={format_fraction(block_area(block))} "
                   f"chi={format_fraction(block_chi(block))} "
                   f"key={cone.variables[i].hex()}")


@cli.command("fold-graph")
@click.argument("file", type=_FILE)
def fold_graph(file):
    """Fold a graph morphism onto the immersion it factors through."""
    f = parse_morphism(_read(file))
    seq = stallings_fold(f)
    click.echo(f"folds={len(seq.folds)} "
               f"essential={_yesno(seq.all_essential)}", err=True)
    click.echo(serialize_morphism(seq.fbar), nl=False)


@cli.command()
@click.argument("file", type=_FILE)
def certify(file):
    """Certify pi1-injectivity of a morphism by an essential origami."""
    f = parse_morphism(_read(file))
    omega = certify_pi1_injective(f)
    if omega is None:
        click.echo("NOT_INJECTIVE")
        return
    click.echo(serialize_certificate(f, omega), nl=False)


def _check_certificate(f, omega):
    omega.validate(essential=True)
    if not is_compatible(omega, f):
        raise click.ClickException(
            "the origami is not compatible with the morphism")


@cli.command("verify-certificate")
@click.argument("file", type=_FILE)
def verify_certificate(file):
    """Check a certificate: essential origami, compatible with its map."""
    f, omega = parse_certificate(_read(file))
    _check_certificate(f, omega)
    click.echo("VALID")


def cli_main(argv=None):
    """Run the command line; returns the exit code instead of exiting."""
    try:
        cli.main(args=argv, prog_name="curv2x", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except EnumerationBudgetExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (CurvError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))
