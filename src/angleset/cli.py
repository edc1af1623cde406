"""Command-line interface.

Subcommands: spectrum, sigma, exists, classify, construct, verify, sweep.
Graphs come either from a named-family spec (``--graph D~4``) or an edge-list
file (``--file``). Each subcommand computes one payload that :func:`_emit`
prints, as JSON with ``--format json`` and otherwise as ``key: value`` lines,
or for ``sweep`` as CSV rows. ``construct`` always prints JSON.
``sigma`` covers a tree with at least one edge or a single cycle, and adds the
closed form of a recognized shape, whose value is then the answer: ``sigma``
and ``classify`` solve nothing on a Dynkin or extended shape. Exit code 0
means the computation ran; a negative answer (no configuration exists,
verification failed) is still 0.
Malformed arguments (a missing ``--tau``, ``--tau abc``, an unknown option)
exit 2 with argparse's usage and ``angleset <cmd>: error: ...``, or
``angleset: error: ...`` for an unknown subcommand or option. Bad input exits
1 with ``error: ...``: graphs with more than ``graphs.MAX_VERTICES`` vertices
are rejected before any matrix is allocated, and sweeps of more than
``MAX_STEPS`` values before any value is listed.

No subcommand takes a tolerance. ``exists`` and ``sweep`` judge
semidefiniteness and rank at ``PSD_TOL``, and ``construct`` and ``verify`` the
residuals at ``VERIFY_TOL``, so no call can move a cut away from the one the
other subcommands use. ``classify`` and ``sigma`` read the index class off the
exact shapes, with no cut at all. ``exists`` and each ``sweep`` row assemble
the Gram matrix that ``construct`` factors and solve it once with eigvalsh,
which gives ``exists``, ``rank`` and ``min_eigenvalue`` together; so the
three subcommands agree on the verdict and the dimension, and none of them
runs the Jacobi solver.

:func:`main` may be called repeatedly in one process. Its parser is built on
the first call and reused; :func:`build_parser` returns a fresh one each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .admissible import _eigen_verdict, gram_matrix, sigma_cycle, sigma_tree, trichotomy
from .classify import classify_structure
from .configurations import (
    configuration_document,
    construct_configuration,
    load_configuration,
    verify_configuration,
)
from .graphs import (
    Graph,
    GraphError,
    check_vertex_count,
    generate_named,
    is_tree,
    parse_edge_list,
    parse_named_spec,
)
from .spectra import graph_index, graph_spectrum

SWEEP_COLUMNS = ("tau", "min_eigenvalue", "exists", "rank")

# ``sweep`` lists its tau values before it computes any row.
MAX_STEPS = 100_000


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, list):
        return ", ".join(_fmt(v) for v in x)
    return str(x)


def _load_graph(args: argparse.Namespace) -> Graph:
    if (args.graph is None) == (args.file is None):
        raise GraphError("give exactly one graph source: --graph or --file")
    if args.graph is not None:
        spec = parse_named_spec(args.graph)
        check_vertex_count(spec.vertex_count)
        return generate_named(spec)
    g = parse_edge_list(Path(args.file).read_text())
    check_vertex_count(g.n)
    return g


def _emit(args: argparse.Namespace, payload: dict, shown: tuple[str, ...] = (),
          **text_values) -> None:
    """Print ``payload`` in ``args.format``: ``json`` as one document; ``csv``
    as a header of ``payload["rows"]``'s keys and one line per row; ``text`` as
    one line per key of ``shown`` (default: every key) that is present, with
    ``text_values`` in place of payload values. Text and CSV show floats to 10
    significant digits, booleans as ``true``/``false`` and lists joined by ", "."""
    if args.format == "json":
        print(json.dumps(payload))
        return
    if args.format == "csv":
        rows = payload["rows"]
        lines = [",".join(rows[0])] + [",".join(map(_fmt, row.values())) for row in rows]
    else:
        text = {**payload, **text_values}
        lines = [f"{key}: {_fmt(text[key])}" for key in shown or text if key in text]
    print("\n".join(lines))


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    spec = graph_spectrum(g)
    payload = {
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "index": spec.index,
        "min_eigenvalue": spec.min_eigenvalue,
        "residual_bound": spec.residual_bound,
    }
    _emit(args, payload, ("eigenvalues", "index", "min_eigenvalue"))
    return 0


def cmd_sigma(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    shapes = classify_structure(g)
    shape = shapes.components[0]
    tree = g.n >= 2 and is_tree(g)
    if tree:
        interval = sigma_tree(g)
    elif len(shapes.components) == 1 and shape.family == "A~":
        interval = sigma_cycle(g.n)
    else:
        raise GraphError(
            "no formula in scope for this graph shape: sigma needs a tree "
            "with at least one edge, or a cycle"
        )
    payload = {
        "sigma_upper": interval.upper,
        "interval": f"(0, {_fmt(interval.upper)}]",
    }
    if tree:
        payload["trichotomy"] = trichotomy(g).value
    if shape.closed_form is not None:
        payload["closed_form"] = shape.closed_form
    _emit(args, payload, ("sigma_upper", "closed_form", "interval", "trichotomy"))
    return 0


def cmd_exists(args: argparse.Namespace) -> int:
    v = _eigen_verdict(gram_matrix(_load_graph(args), args.tau))
    _emit(args, {"exists": v.exists, "min_eigenvalue": v.min_eigenvalue, "rank": v.rank})
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    shapes = classify_structure(g)
    index = shapes.index
    payload = {
        "components": [
            {"label": c.label, "vertices": list(c.vertices)} for c in shapes.components
        ],
        "index": graph_index(g) if index is None else index,
        "index_class": shapes.predicted_index_kind.value,
    }
    _emit(args, payload, components=[c.label for c in shapes.components])
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    config = construct_configuration(g, args.tau)
    report = verify_configuration(config, g, args.tau)
    doc = configuration_document(config, g, args.tau, report)
    text = json.dumps(doc)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out} (ambient_dim {config.ambient_dim}, "
              f"verification {'passed' if report.passed else 'FAILED'})")
    else:
        print(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    doc = json.loads(Path(getattr(args, "in")).read_text())
    config, g, w = load_configuration(doc)
    report = verify_configuration(config, g, w)
    _emit(args, report.as_dict(), ("idempotency", "braid", "orthogonality", "gram", "passed"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps {args.steps} is above the limit of {MAX_STEPS}")
    lo, hi = args.tau_min, args.tau_max
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError("need 0 < --tau-min <= --tau-max <= 1")
    taus = [
        lo + (hi - lo) * k / (args.steps - 1) if args.steps > 1 else lo
        for k in range(args.steps)
    ]
    rows = []
    for tau in taus:
        v = _eigen_verdict(gram_matrix(g, tau))
        rows.append(dict(zip(SWEEP_COLUMNS, (tau, v.min_eigenvalue, v.exists, v.rank))))
    _emit(args, {"rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angleset",
        description="Existence and construction of fixed-angle line configurations "
        "attached to finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *, tau: bool = False,
            graph_source: bool = True, formats: tuple[str, ...] = ("text", "json")):
        p = sub.add_parser(name, help=help_text)
        if graph_source:
            p.add_argument("--graph", help="named family spec, e.g. A5, D~4, E~8, C6, K1,4")
            p.add_argument("--file", help="path to an edge-list file")
        if tau:
            p.add_argument("--tau", type=float, required=True,
                           help="angle parameter in (0, 1]")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)
        return p

    add("spectrum", cmd_spectrum, "adjacency eigenvalues, index and minimum")
    add("sigma", cmd_sigma, "admissible parameter interval of a tree or cycle")
    add("exists", cmd_exists, "semidefiniteness verdict for a given tau", tau=True)
    add("classify", cmd_classify, "shape labels and index trichotomy")
    p_construct = add("construct", cmd_construct,
                      "build a configuration and export it as JSON", tau=True,
                      formats=("json",))
    p_construct.add_argument("--out", help="output path (default: stdout)")
    p_verify = add("verify", cmd_verify, "re-check an exported configuration",
                   graph_source=False)
    p_verify.add_argument("--in", required=True, help="path to a configuration JSON")
    p_sweep = add("sweep", cmd_sweep, "tabulate existence over a tau range (CSV)",
                  formats=("csv", "json"))
    p_sweep.add_argument("--tau-min", type=float, default=0.01, dest="tau_min")
    p_sweep.add_argument("--tau-max", type=float, default=1.0, dest="tau_max")
    p_sweep.add_argument("--steps", type=int, default=100)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses. ``parse_args`` returns a fresh
    ``Namespace`` on every call and leaves the parser unchanged, and help and
    errors look up ``sys.stdout``/``sys.stderr`` when they print."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
