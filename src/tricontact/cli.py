"""Batch front end: ingest graphs, run pipeline stages, emit JSON/SVG artifacts.

Exit codes: 0 success, 2 input/schema problem, 3 graph validation failure,
4 solver failure (no contact layout for a piece), 5 verification failure,
6 internal pipeline failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from tricontact import assemble, perturb, planar, render, solver, verify
from tricontact.core import Representation
from tricontact.geometry import frac

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATE = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5
EXIT_PIPELINE = 6

# (exception types, exit code, message prefix), checked in order: GraphError
# and CanvasError subclass ValueError, so they precede the input-error row.
EXIT_CODES = (
    ((planar.GraphError,), EXIT_VALIDATE, "invalid graph"),
    ((solver.SolveFailure,), EXIT_SOLVER, "solver failure"),
    ((verify.DrawingError,), EXIT_VERIFY, "drawing failure"),
    ((assemble.PipelineError, perturb.GapError, solver.CanvasError),
     EXIT_PIPELINE, "pipeline failure"),
    ((OSError, json.JSONDecodeError, KeyError, ValueError), EXIT_INPUT, "input error"),
)
_HANDLED = tuple(t for types, _code, _label in EXIT_CODES for t in types)


def _dump(obj: dict, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _config(args) -> assemble.PipelineConfig:
    return assemble.PipelineConfig(
        outer=assemble.default_outer(frac(args.scale)),
        epsilon=frac(args.epsilon),
    )


def cmd_validate(args) -> int:
    T = planar.from_json(_load_json(args.input))
    out = {"valid": True, "n": T.n, "edges": len(T.edges), "faces": len(T.faces),
           "separating_triangles": [list(t) for t in planar.separating_triangles(T)]}
    _dump(out, args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "stacked":
        T = planar.gen_stacked(args.n, args.seed)
    else:
        if args.four_connected:
            T = planar.gen_four_connected(args.n, args.seed)
        else:
            T = planar.gen_triangulation(args.n, args.seed)
    _dump(T.to_json(), args.output)
    return EXIT_OK


def cmd_run(args) -> int:
    T = planar.from_json(_load_json(args.input))
    rep = assemble.represent(T, _config(args))
    _dump(rep.to_json(), args.output)
    report = verify.full_report(rep, T, with_faces=True,
                                with_drawing=args.drawing or bool(args.drawing_out))
    if args.report:
        _dump(report.to_json(), args.report)
    if args.drawing_out and report.drawing is not None:
        _dump(report.drawing.to_json(), args.drawing_out)
    if args.svg:
        _write_text(render.render_svg(rep, drawing=report.drawing), args.svg)
    if not report.passed:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = Representation.from_json(_load_json(args.input))
    T = planar.from_json(_load_json(args.graph))
    eps = frac(args.epsilon) if args.epsilon else None
    report = verify.full_report(rep, T, epsilon=eps,
                                with_faces=not args.no_faces, with_drawing=args.drawing)
    _dump(report.to_json(), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_render(args) -> int:
    rep = Representation.from_json(_load_json(args.input))
    d = None
    if args.graph:
        T = planar.from_json(_load_json(args.graph))
        d = verify.extract_drawing(rep, T)
    _write_text(render.render_svg(rep, drawing=d, show_contacts=args.contacts,
                                  precision=args.precision), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tricontact",
                                description="Intersection representations of planar "
                                            "triangulations by homothetic right triangles")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a graph JSON file")
    pv.add_argument("--input", required=True)
    pv.add_argument("--output", default=None)
    pv.set_defaults(fn=cmd_validate)

    pg = sub.add_parser("gen", help="generate a triangulation")
    pg.add_argument("kind", choices=["stacked", "random"])
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--four-connected", action="store_true",
                    help="filter/repair until no separating triangle remains")
    pg.add_argument("--output", default=None)
    pg.set_defaults(fn=cmd_gen)

    pr = sub.add_parser("run", help="full pipeline: decompose, solve, verify")
    pr.add_argument("--input", required=True)
    pr.add_argument("--output", default=None, help="representation JSON")
    pr.add_argument("--report", default=None, help="verification report JSON")
    pr.add_argument("--drawing-out", default=None, help="drawing JSON")
    pr.add_argument("--svg", default=None, help="render to SVG file")
    pr.add_argument("--drawing", action="store_true", help="extract and check a drawing")
    pr.add_argument("--epsilon", default="1", help="boundary overlap budget (rational)")
    pr.add_argument("--scale", default="1", help="scale of the default boundary triple")
    pr.set_defaults(fn=cmd_run)

    pc = sub.add_parser("verify", help="verify a representation against a graph")
    pc.add_argument("--input", required=True, help="representation JSON")
    pc.add_argument("--graph", required=True, help="graph JSON")
    pc.add_argument("--epsilon", default=None)
    pc.add_argument("--drawing", action="store_true")
    pc.add_argument("--no-faces", action="store_true")
    pc.add_argument("--output", default=None)
    pc.set_defaults(fn=cmd_verify)

    pd = sub.add_parser("render", help="render a representation to SVG")
    pd.add_argument("--input", required=True)
    pd.add_argument("--graph", default=None, help="also draw the planar drawing")
    pd.add_argument("--contacts", action="store_true")
    pd.add_argument("--precision", type=int, default=6)
    pd.add_argument("--output", default=None)
    pd.set_defaults(fn=cmd_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _HANDLED as e:
        code, label = next((c, lab) for types, c, lab in EXIT_CODES if isinstance(e, types))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
