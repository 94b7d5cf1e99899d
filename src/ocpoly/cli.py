"""Command-line front end.

Polynomials come from a file (JSON or the text form "(1)x^2 + (i)x + (j - k)");
octonion arguments use the element text format "c0 + c1 i + ... + c7 kl".
Output JSON is emitted with sorted keys so runs can be diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import render as render_mod
from .algebra import AlgebraParams, parse_octonion
from .dynamics import (classify_fixed, classify_pseudo_periodic,
                       detect_pseudo_period, fixed_points, orbit)
from .errors import NotInRMR, OcpolyError, ParseError, ResourceLimit
from .opoly import OPolynomial, parse_opolynomial
from .roots import (lmr_describe, lmr_sample, lmr_singular, rmr_classes,
                    rmr_witness, roots)
from .scalars import DEFAULT_EPS, Field

DEFAULT_SEED = 0xC0FFEE

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_RESOURCE = 4
EXIT_SELFTEST = 5


def _load_poly(path: str, field: Field) -> OPolynomial:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text, parse_int=field.parse,
                              parse_float=field.json_float)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        return OPolynomial.from_json(data, field)
    return parse_opolynomial(text, AlgebraParams.octonions(field))


@contextlib.contextmanager
def _writing(path: str):
    """An output file that cannot be written exits 2, as an unreadable
    input file does."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


# Each polynomial command takes the loaded polynomial and the parsed
# arguments, and returns what main writes to stdout: a JSON value, text,
# or None when the command wrote a file instead.

def cmd_roots(f: OPolynomial, args):
    return roots(f).to_json(f.params.field)


def cmd_companion(f: OPolynomial, args):
    return {"coeffs": [f.params.field.to_json(c)
                       for c in f.companion().coeffs]}


def cmd_rmr(f: OPolynomial, args):
    if args.element is None:
        return {"classes": [c.to_json(f.params.field)
                            for c in rmr_classes(f)]}
    mu = parse_octonion(args.element, f.params)
    try:
        c = rmr_witness(f, mu)
    except NotInRMR:
        return {"contains": False}
    witness = {"witness": c.to_json()} if args.witness else {}
    return {"contains": True, **witness}


def cmd_lmr(f: OPolynomial, args):
    if args.contains is not None:
        mu = parse_octonion(args.contains, f.params)
        return {"contains": lmr_singular(f, mu)}
    descs = lmr_describe(f)
    if args.sample is not None:
        return [p.to_json() for d in descs if d.kind != "whole-class"
                for p in lmr_sample(d, args.sample, seed=args.seed)]
    return [d.to_json() for d in descs]


def cmd_classify(f: OPolynomial, args):
    if args.alpha is not None:
        alpha = parse_octonion(args.alpha, f.params)
        period = detect_pseudo_period(f, alpha, args.max_period)
        if period is not None and period > 1:
            return classify_pseudo_periodic(f, alpha, period).to_json()
        return classify_fixed(f, alpha).to_json()
    fp = fixed_points(f)
    reports = [classify_fixed(f, lam).to_json() for lam, _ in fp.isolated]
    return {"fixed_points": fp.to_json(f.params.field), "reports": reports}


def cmd_orbit(f: OPolynomial, args):
    start = parse_octonion(args.start, f.params)
    rec = orbit(f, start, args.max_iter, escape_radius=args.escape_radius)
    text = rec.to_csv()
    if rec.detected_period is not None:
        text += f"# detected_period,{rec.detected_period}\n"
    if rec.escaped:
        text += "# escaped,1\n"
    if not args.out:
        return text
    with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return None


def cmd_render(f: OPolynomial, args):
    params = f.params
    spec = render_mod.SliceSpec(
        base=parse_octonion(args.base, params),
        dir_u=parse_octonion(args.dir_u, params),
        dir_v=parse_octonion(args.dir_v, params),
        width=args.width, height=args.height, scale=args.scale,
        max_iter=args.max_iter, escape_radius=args.escape_radius)
    with _writing(args.out):
        render_mod.render(f, spec, args.out)
    return None


def cmd_selftest() -> int:
    from .selftest import run_selftest
    results = run_selftest()
    width = max(len(r[0]) for r in results)
    failed = 0
    for cid, expected, got, ok in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {cid:<{width}}  expected={expected}  got={got}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ocpoly",
        description="octonion polynomial roots and dynamics")
    ap.add_argument("--mode", choices=("exact", "real"), default="real",
                    help="scalar arithmetic mode (default: real)")
    ap.add_argument("--eps", type=float, default=DEFAULT_EPS,
                    help="real-mode tolerance; all thresholds scale with it")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                    help="seed for the points of lmr --sample; root finding "
                    "is deterministic (default 0xC0FFEE)")
    sub = ap.add_subparsers(dest="command", required=True)

    def poly_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("poly", help="polynomial file (JSON or text form)")
        p.set_defaults(fn=fn)
        return p

    poly_cmd("roots", cmd_roots, "root set organized by conjugacy class")
    poly_cmd("companion", cmd_companion, "central companion polynomial")

    p = poly_cmd("rmr", cmd_rmr, "right-scalar-multiple root classes")
    p.add_argument("--element", help="membership query element")
    p.add_argument("--witness", action="store_true",
                   help="also emit a right-multiplier witness")

    p = poly_cmd("lmr", cmd_lmr, "left-scalar-multiple root descriptions")
    p.add_argument("--sample", type=int, metavar="N",
                   help="emit N seeded sample points per class")
    p.add_argument("--contains", metavar="ELT", help="membership query")

    p = poly_cmd("classify", cmd_classify, "fixed-point classification")
    p.add_argument("--alpha", help="classify this point instead of all")
    p.add_argument("--max-period", type=int, default=32)

    p = poly_cmd("orbit", cmd_orbit, "substitution orbit as CSV")
    p.add_argument("--start", required=True)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--escape-radius", type=float, default=1e6)
    p.add_argument("--out")

    p = poly_cmd("render", cmd_render, "escape-time slice image (PGM)")
    p.add_argument("--base", default="0")
    p.add_argument("--dir-u", default="1")
    p.add_argument("--dir-v", default="i")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--scale", type=float, default=4 / 256)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--escape-radius", type=float, default=2.0)
    p.add_argument("--out", required=True)

    sub.add_parser("selftest", help="re-run the reference examples")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        field = Field(exact=(args.mode == "exact"), eps=args.eps)
        out = args.fn(_load_poly(args.poly, field), args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OcpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    if isinstance(out, str):
        sys.stdout.write(out)
    elif out is not None:
        json.dump(out, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
