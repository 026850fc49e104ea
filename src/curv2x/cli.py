"""Command line surface: validation, curvature extremes, block catalogs,
graph folding and injectivity certificates.

Exit codes: 0 on success (including NOT_INJECTIVE, which is an answer),
1 on any validation or input failure, 2 when the block enumeration
budget is exhausted.  --max-blocks sets the budget (default 1,000,000).
Output is deterministic: identical inputs and flags give byte-identical
output.
"""

import sys

import click

from .branched_complex import curvature_quantities, validate_complex
from .errors import CurvError, EnumerationBudgetExceeded
from .formats import (
    PREDICATE_NAMES,
    InvariantReportLine,
    ReportModel,
    canonical_complex,
    certificate_from_document,
    complex_from_document,
    decimal_string,
    format_fraction,
    graph_from_document,
    is_safe_token,
    morphism_from_document,
    parse_certificate,
    parse_complex,
    parse_document,
    parse_morphism,
    report_from_document,
    serialize_certificate,
    serialize_complex,
    serialize_morphism,
    serialize_report,
)
from .origami import certify_pi1_injective, is_compatible
from .pipeline import (
    INVARIANTS,
    build_cone,
    build_cones,
    extremize,
    require_positive_areas,
)
from .serre_graph import stallings_fold

DEFAULT_BUDGET = 1_000_000

_FILE = click.Path(exists=True, dir_okay=False)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _resolve_budget(option):
    if option is None:
        return DEFAULT_BUDGET
    if option <= 0:
        raise click.UsageError("--max-blocks must be positive")
    return option


def _resolve_predicate(option):
    name = option.removeprefix("builtin:")
    if name == option or name not in PREDICATE_NAMES:
        raise click.UsageError("--pi takes " + " or ".join(
            f"builtin:{n}" for n in PREDICATE_NAMES))
    return name


def _echo(message, nl=True, err=False):
    # Naming the stream keeps it out of click's cache of default streams,
    # which would keep every stdout an in-process run redirects to alive.
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _yesno(flag):
    return "yes" if flag else "no"


@click.group()
def cli():
    """Exact curvature invariants of branched 2-complexes."""


@cli.command()
@click.argument("file", type=_FILE)
def validate(file):
    """Parse a document and run the validator for its kind."""
    doc = parse_document(_read(file))
    if doc.kind == "complex":
        x = complex_from_document(doc)
        info = validate_complex(x)
        _echo(f"OK complex: vertices={info['vertices']} "
              f"edges={info['edges']} faces={info['faces']} "
              f"area={format_fraction(info['total_area'])}")
    elif doc.kind == "graph":
        g = graph_from_document(doc)
        _echo(f"OK graph: vertices={len(g.vertices)} "
              f"edges={len(g.geometric_edges())} "
              f"connected={_yesno(g.is_connected())} "
              f"core={_yesno(g.is_core())}")
    elif doc.kind == "morphism":
        f = morphism_from_document(doc)
        _echo(f"OK morphism: vertices={len(f.domain.vertices)} "
              f"edges={len(f.domain.geometric_edges())} "
              f"immersion={_yesno(f.is_immersion())}")
    elif doc.kind == "certificate":
        f, omega = certificate_from_document(doc)
        _check_certificate(f, omega)
        nontrivial = sum(1 for c in omega.open_classes if len(c) > 1)
        _echo(f"OK certificate: classes={nontrivial}")
    else:
        report = report_from_document(doc)
        _echo(f"OK report: invariants={len(report.lines)}")


@cli.command()
@click.option("--decimal", type=click.IntRange(min=0), default=None,
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

    _echo(f"Area={show(q.area)} chi={q.chi} tau={show(q.tau)} "
          f"kappa={show(q.kappa)}")


@cli.command()
@click.option("--which", required=True,
              type=click.Choice([*INVARIANTS, "all"]))
@click.option("--emit-realizer", type=click.Path(dir_okay=False), default=None)
@click.option("--emit-certificate", type=click.Path(dir_okay=False),
              default=None)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Write a machine-readable report document.")
@click.option("--max-blocks", type=int, default=None)
@click.option("--decimal", type=click.IntRange(min=0), default=None,
              help="Display values with this many decimal digits.")
@click.argument("file", type=_FILE)
def invariant(which, emit_realizer, emit_certificate, report_path,
              max_blocks, decimal, file):
    """Exact curvature extremes over blocked complexes above FILE."""
    budget = _resolve_budget(max_blocks)
    names = tuple(INVARIANTS) if which == "all" else (which,)
    if which == "all" and (emit_realizer or emit_certificate):
        raise click.UsageError(
            "--emit-realizer and --emit-certificate need a single --which")
    x = parse_complex(_read(file))
    require_positive_areas(x)
    # every cone the names need comes from one block search, so a
    # budget overrun stops the command before any line is printed
    cones = build_cones(x, [INVARIANTS[name][0] for name in names],
                        max_candidates=budget)
    lines = []
    for name in names:
        predicate, sense = INVARIANTS[name]
        report = extremize(cones[predicate], sense, which=name)
        if isinstance(report.value, str):
            shown = report.value
        elif decimal is not None:
            shown = decimal_string(report.value, decimal)
        else:
            shown = format_fraction(report.value)
        _echo(f"{name} = {shown}")
        realizer_ref = certificate_ref = None
        if emit_realizer or emit_certificate:
            if report.realizer is None:
                _echo(f"note: {name} has no realizer (no admissible "
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
    _echo(f"catalog predicate={predicate} blocks={len(cone.blocks)} "
          f"gluing-rows={len(cone.gluing_rows)}")
    for i, (block, key) in enumerate(zip(cone.blocks, cone.variables)):
        _echo(f"block {i} vertex={block.base_vertex} parts={len(block.parts)} "
              f"corners={len(block.corner_edges)} "
              f"area={format_fraction(cone.area_row[key])} "
              f"chi={format_fraction(cone.chi_row[key])} "
              f"key={key.hex()}")


@cli.command("fold-graph")
@click.argument("file", type=_FILE)
def fold_graph(file):
    """Fold a graph morphism onto the immersion it factors through."""
    f = parse_morphism(_read(file))
    seq = stallings_fold(f)
    _echo(f"folds={len(seq.folds)} "
          f"essential={_yesno(seq.all_essential)}", err=True)
    _echo(serialize_morphism(seq.fbar), nl=False)


@cli.command()
@click.argument("file", type=_FILE)
def certify(file):
    """Certify pi1-injectivity of a morphism by an essential origami."""
    f = parse_morphism(_read(file))
    omega = certify_pi1_injective(f)
    if omega is None:
        _echo("NOT_INJECTIVE")
        return
    _echo(serialize_certificate(f, omega), nl=False)


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
    _echo("VALID")


def cli_main(argv=None):
    """Run the command line; returns the exit code instead of exiting."""
    try:
        cli.main(args=argv, prog_name="curv2x", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except EnumerationBudgetExceeded as exc:
        _echo(f"error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        _echo("aborted", err=True)
        return 1
    except (CurvError, ValueError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))
