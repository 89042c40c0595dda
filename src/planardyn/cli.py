"""Command-line interface.

Subcommands: ``eval`` (apply one map to one point), ``orbit`` (dump an
orbit segment as JSON, CSV, or SVG), ``verify`` (run a certificate suite,
exit 1 on failure), ``geometry`` (strip table and an SVG sketch of the
square), ``excursion`` (norm profile of a plane orbit as CSV).

Point input is exact by default: components are parsed as rationals, so
``--point 0,-3/4`` means exactly (0, -3/4).  Pass ``--approx`` to parse
machine floats instead; a NaN or infinite component is a usage error.
Exit codes: 0 success, 1 verification failure, 2 bad usage or a point
outside a map's domain.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import dynamics
from .numerics import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCES,
    DomainError,
    as_rational,
    make_context,
)
from .plane_map import lifted_core
from .square_map import NAMED_POINTS, region_of
from .strips import strip_locate, strip_table

MAP_IDS = tuple(dynamics.map_registry(None))
SUITES = tuple(dynamics.SUITE_TABLE)


def _parse_point(text: str, arity: int, approx: bool):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != arity:
        raise DomainError(f"expected {arity} comma-separated components, got {text!r}")
    point = tuple((float if approx else as_rational)(part) for part in parts)
    if approx and not all(math.isfinite(v) for v in point):
        raise DomainError(f"not a finite point: {text!r}")
    return point


def _parse_steps(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return (0, n) if n >= 0 else (n, 0)


def _fmt(value, ctx) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, float)):
        return repr(float(value))
    return ctx.nstr(value, 30)


def _fmt_point(point, ctx) -> str:
    if len(point) == 1:
        return _fmt(point[0], ctx)
    return "(" + ", ".join(_fmt(v, ctx) for v in point) + ")"


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(value)  # big floats lose digits here on purpose: JSON is double


def _emit(text: str, path=None) -> None:
    """Write text to the file at path and say so, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _arity(spec) -> int:
    return 1 if spec.domain == "interval" else 2


def cmd_eval(args) -> int:
    ctx = make_context(args.precision)
    spec = dynamics.map_registry(ctx)[args.map]
    point = _parse_point(args.point, _arity(spec), args.approx)
    fn = spec.inverse if args.inverse else spec.forward
    arg = point[0] if spec.domain == "interval" else point
    result = fn(arg)
    if spec.domain == "interval":
        result = (result,)
    print(_fmt_point(result, ctx))
    if args.map == "f" and not args.approx:
        print(f"region: {region_of(point[1], inverse=args.inverse).value}")
    if args.map == "Phi" and not args.approx:
        d = strip_locate(point[1])
        level = "-" if d.level is None else d.level
        print(f"strip: level={level} zone={d.zone.value}")
    return 0


def _orbit_rows(record):
    rows = []
    for n, point in record.entries:
        row = {"n": n, "x": _json_value(point[0])}
        if len(point) > 1:
            row["y"] = _json_value(point[1])
        rows.append(row)
    return rows


def _orbit_json(record, ctx) -> str:
    payload = {
        "map": record.map_id,
        "seed": [_json_value(v) for v in record.seed],
        "arithmetic": record.arithmetic,
        "points": _orbit_rows(record),
        "metadata": {
            "precision": ctx.prec,
            "sampler_seed": None,
            "tolerances": DEFAULT_TOLERANCES.report(ctx),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _orbit_csv(record) -> str:
    scalar = all(len(p) == 1 for _, p in record.entries)
    lines = ["n,x" if scalar else "n,x,y"]
    for n, point in record.entries:
        lines.append(",".join([str(n)] + [repr(float(v)) for v in point]))
    return "\n".join(lines) + "\n"


def _svg(x_lo, x_hi, y_lo, y_hi, draw) -> str:
    """A 640-px SVG on a white background, the view [x_lo, x_hi] x [y_lo,
    y_hi], whose elements ``draw(sx, sy)`` lists, given the maps of the
    view's coordinates onto the frame's."""
    size = 640.0

    def sx(x):
        return (float(x) - x_lo) / (x_hi - x_lo) * size

    def sy(y):
        return size - (float(y) - y_lo) / (y_hi - y_lo) * size

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
        *draw(sx, sy),
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _orbit_svg(record) -> str:
    pts = [(float(p[0]), float(p[1]) if len(p) > 1 else 0.0) for _, p in record.entries]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = (x_hi - x_lo or 1.0) * 0.05
    pad_y = (y_hi - y_lo or 1.0) * 0.05

    def draw(sx, sy):
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        yield f'<polyline points="{path}" fill="none" stroke="#888" stroke-width="1"/>'
        for (x, y), (n, _) in zip(pts, record.entries):
            yield f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#c22"/>'
            if n in (record.entries[0][0], 0, record.entries[-1][0]):
                yield f'<text x="{sx(x) + 5:.2f}" y="{sy(y) - 5:.2f}" font-size="11">n={n}</text>'

    return _svg(x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y, draw)


def cmd_orbit(args) -> int:
    ctx = make_context(args.precision)
    spec = dynamics.map_registry(ctx)[args.map]
    seed = _parse_point(args.seed, _arity(spec), args.approx)
    record = dynamics.orbit(spec, seed, _parse_steps(args.steps))
    writers = {
        "json": lambda: _orbit_json(record, ctx),
        "csv": lambda: _orbit_csv(record),
        "svg": lambda: _orbit_svg(record),
    }
    _emit(writers[args.format](), args.out)
    return 0


def cmd_verify(args) -> int:
    ctx = make_context(args.precision)
    report = dynamics.run_suite(args.suite, ctx, rng_seed=args.sampler_seed)
    n_pass = 0
    for i, cert in enumerate(report["certificates"], start=1):
        status = "PASS" if cert["passed"] else "FAIL"
        label = cert["evidence"].get("check", cert["kind"])
        target = cert["evidence"].get("map", "")
        print(f"[{status}] {i:02d} {cert['kind']:<15} {label}{' ' + target if target else ''}")
        n_pass += cert["passed"]
    total = len(report["certificates"])
    print(f"suite {args.suite}: {'PASS' if report['passed'] else 'FAIL'} ({n_pass}/{total})")
    if args.out:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _geometry_svg(max_level: int) -> str:
    def draw(sx, sy):
        yield (
            f'<rect x="{sx(-1):.2f}" y="{sy(1):.2f}" width="{sx(1) - sx(-1):.2f}" '
            f'height="{sy(-1) - sy(1):.2f}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for row in strip_table(max_level):
            for key, dash in (("lo", ""), ("mid", ' stroke-dasharray="4 3"')):
                if row[key] is None:
                    continue
                y = Fraction(row[key])
                yield (
                    f'<line x1="{sx(-1):.2f}" y1="{sy(y):.2f}" x2="{sx(1):.2f}" '
                    f'y2="{sy(y):.2f}" stroke="#46a" stroke-width="0.8"{dash}/>'
                )
        for x1, x2 in ((-1, Fraction(-1, 2)), (Fraction(1, 2), 1)):
            yield (
                f'<line x1="{sx(x1):.2f}" y1="{sy(0):.2f}" x2="{sx(x2):.2f}" '
                f'y2="{sy(0):.2f}" stroke="#c22" stroke-width="3"/>'
            )
        seen = {}
        for name, (px, py) in NAMED_POINTS.items():
            offset = 12 * seen.get((px, py), 0)
            seen[(px, py)] = seen.get((px, py), 0) + 1
            yield f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" fill="#222"/>'
            yield f'<text x="{sx(px) + 5:.2f}" y="{sy(py) - 4 + offset:.2f}" font-size="12">{name}</text>'

    return _svg(-1.1, 1.1, -1.1, 1.1, draw)


def cmd_geometry(args) -> int:
    print(json.dumps(strip_table(args.max_level), indent=2))
    if args.out:
        _emit(_geometry_svg(args.max_level), args.out)
    return 0


def cmd_excursion(args) -> int:
    ctx = make_context(args.precision)
    seed = _parse_point(args.seed, 2, args.approx)
    steps = int(args.steps)
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    rows = ["n,log10_norm"]
    for n, _, y in lifted_core(seed, (-steps, steps), ctx):
        norm = math.hypot(float(y[0]), float(y[1]))
        rows.append(f"{n},{'-inf' if norm == 0 else repr(math.log10(norm))}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planardyn",
        description="evaluate, iterate, and verify the bounded-orbit plane maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(p):
        p.add_argument(
            "--precision",
            type=int,
            default=DEFAULT_PRECISION,
            help=f"binary working precision (default {DEFAULT_PRECISION})",
        )

    p_eval = sub.add_parser("eval", help="apply one map to one point")
    p_eval.add_argument("--map", required=True, choices=MAP_IDS)
    p_eval.add_argument("--point", required=True, help='e.g. "0,-3/4" (or "1/2" for interval maps)')
    p_eval.add_argument("--inverse", action="store_true")
    p_eval.add_argument("--approx", action="store_true", help="parse the point as floats")
    add_precision(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_orbit = sub.add_parser("orbit", help="dump an orbit segment")
    p_orbit.add_argument("--map", required=True, choices=MAP_IDS)
    p_orbit.add_argument("--seed", required=True)
    p_orbit.add_argument("--steps", required=True, help='"a..b" inclusive, or a single count')
    p_orbit.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p_orbit.add_argument("--out")
    p_orbit.add_argument("--approx", action="store_true")
    add_precision(p_orbit)
    p_orbit.set_defaults(fn=cmd_orbit)

    p_verify = sub.add_parser("verify", help="run a certificate suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--out", help="write the full JSON report here")
    p_verify.add_argument(
        "--sampler-seed", type=int, default=dynamics.DEFAULT_SAMPLER_SEED
    )
    add_precision(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_geo = sub.add_parser("geometry", help="strip table (JSON) and optional SVG sketch")
    p_geo.add_argument("--max-level", type=int, default=8)
    p_geo.add_argument("--out", help="write an SVG of the square here")
    p_geo.set_defaults(fn=cmd_geometry)

    p_exc = sub.add_parser("excursion", help="norm profile of a plane orbit (CSV)")
    p_exc.add_argument("--seed", required=True)
    p_exc.add_argument("--steps", required=True, help="symmetric step span")
    p_exc.add_argument("--out")
    p_exc.add_argument("--approx", action="store_true")
    add_precision(p_exc)
    p_exc.set_defaults(fn=cmd_excursion)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
