"""Command-line entry point: every operation behind one dispatcher with
machine-readable output.

Exit codes: 0 success, 1 usage error, 2 domain error (JSON error object on
stderr). Parameters are accepted as "theta,eps" or in interval form
"x=1.2929"; numbers use the exact syntax (e.g. "sqrt(2)-1", "3/8").
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ParseError, SqrectError
from .exactnum import format_number, parse_number
from .pet import Param, Point, code_orbit, islands
from .cfrac import expand, param_to_x, x_to_param, natural_extension_check

FORMATS = ("json", "csv", "text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _number(text: str):
    try:
        return parse_number(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed number {text!r}: {exc}") from exc


def parse_param(text: str) -> Param:
    """Parse 'theta,eps' or 'x=...'. Malformed text raises ParseError; a
    well-formed value outside the parameter domain raises ValueError."""
    text = text.strip()
    if text.startswith("x="):
        return x_to_param(_number(text[2:]))
    if "," not in text:
        raise ParseError(f"parameter must be 'theta,eps' or 'x=...': {text!r}")
    theta_s, eps_s = text.rsplit(",", 1)
    theta = _number(theta_s)
    try:
        eps = int(eps_s)
    except ValueError as exc:
        raise ParseError(f"eps must be an integer: {eps_s!r}") from exc
    return Param(theta, eps)


def parse_point(text: str) -> Point:
    """Parse 'x,y'; malformed text raises ParseError."""
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ParseError(f"point must be 'x,y': {text!r}")
    return Point(_number(parts[0]), _number(parts[1]))


def _given(value, default):
    """A flag's value as given, an explicit 0 included; `default` if absent."""
    return default if value is None else value


# -- command handlers: return (payload dict, csv rows, text lines) -------


def _cmd_expand(args):
    x = param_to_x(parse_param(args.param))
    e = expand(x, max_steps=_given(args.depth, 1000))
    payload = json.loads(e.to_json())
    csv = ["step,n,eps"] + [
        f"{i},{d.n},{d.eps}" for i, d in enumerate(e.steps)
    ]
    text = [
        f"status {e.status} preperiod {e.preperiod} period {e.period}",
        " ".join(f"({d.n},{d.eps:+d})" for d in e.steps),
    ]
    return payload, csv, text


def _cmd_orbit(args):
    p = parse_param(args.param)
    z = parse_point(args.point)
    n = _given(args.depth, 100)
    word = code_orbit(p, z, n)
    payload = {"param": str(p), "coding": str(word), "length": len(word)}
    return payload, ["coding", str(word)], [str(word)]


def _cmd_islands(args):
    p = parse_param(args.param)
    cells = islands(p, max_period=args.max_period)
    total = sum(float(c.rect.area()) for c in cells)
    payload = {
        "param": str(p),
        "count": len(cells),
        "total_area": total,
        "cells": [c.serialize() for c in cells],
    }
    csv = ["x,y,w,period"] + [
        f"{format_number(c.rect.x)},{format_number(c.rect.y)},"
        f"{format_number(c.rect.w)},{c.orbit_period}"
        for c in cells
    ]
    return payload, csv, payload["cells"]


def _cmd_induction_check(args):
    from .renorm import induction_verify

    p = parse_param(args.param)
    rep = induction_verify(
        p, samples=_given(args.trials, 10_000), seed=_given(args.seed, 0)
    )
    payload = {
        "param": str(p),
        "samples": rep.samples,
        "resampled": rep.resampled,
        "max_error": rep.max_error,
        "exact": rep.exact,
    }
    csv = [
        "samples,resampled,max_error,exact",
        f"{rep.samples},{rep.resampled},{rep.max_error!r},{rep.exact}",
    ]
    return payload, csv, [f"max_error {rep.max_error!r} exact {rep.exact}"]


def _cmd_sturmian(args):
    from .words import complexity, limit_word

    p = parse_param(args.param)
    n_max = args.n_max
    if n_max < 1:
        # no counted length would make an empty certificate
        raise ValueError(f"--n-max must be at least 1, got {n_max}")
    length = args.length
    w = limit_word(p, length)
    counts = {n: complexity(w, n) for n in range(1, n_max + 1)}
    payload = {
        "param": str(p),
        "prefix": str(w),
        "factor_counts": counts,
        "sturmian": all(c == n + 1 for n, c in counts.items()),
    }
    csv = ["n,factors"] + [f"{n},{c}" for n, c in counts.items()]
    return payload, csv, [str(w)]


def _cmd_tower(args):
    from .words import default_prefix_len, tower_stats

    p = parse_param(args.param)
    l = _given(args.depth, 5)
    prefix_len = args.prefix_len
    if prefix_len is None:
        prefix_len = default_prefix_len(p, l)
    ts = tower_stats(p, l, prefix_len)
    payload = {
        "l": ts.l,
        "N_a": ts.N_a,
        "N_b": ts.N_b,
        "N": ts.N,
        "alpha": ts.alpha,
        "beta": ts.beta,
    }
    return payload, ["l,N_a,N_b,N,alpha,beta", ts.csv_row()], [str(ts)]


def _cmd_lyapunov(args):
    from .lyap import MASTER_SEED, birkhoff_estimate

    est = birkhoff_estimate(
        seed=MASTER_SEED if args.seed is None else args.seed,
        trials=_given(args.trials, 1000),
        l=_given(args.depth, 10_000),
    )
    payload = {
        "lambda_hat": est.lambda_hat,
        "lnR_hat": est.lnR_hat,
        "s_hat": est.s_hat,
        "stderr_lambda": est.stderr_lambda,
        "stderr_lnR": est.stderr_lnR,
        "stderr_s": est.stderr_s,
        "l": est.l,
        "trials": est.trials,
        "seed": est.seed,
    }
    csv = ["quantity,value,stderr,l,trials,seed"] + est.csv_rows()
    text = [
        f"lambda {est.lambda_hat:.6f} +- {est.stderr_lambda:.6f}",
        f"lnR    {est.lnR_hat:.6f} +- {est.stderr_lnR:.6f}",
        f"s      {est.s_hat:.6f} +- {est.stderr_s:.6f}",
    ]
    return payload, csv, text


def _cmd_integrals(args):
    from .lyap import integral_ln_M, integral_ln_r, lower_bound_f

    terms = args.terms
    vals = {
        "ln_M": integral_ln_M(terms),
        "ln_r": integral_ln_r(terms),
        "f_lower_bound": lower_bound_f(terms),
    }
    payload = {
        k: {"value": v.value, "tail_bound": v.tail_bound, "terms": v.terms}
        for k, v in vals.items()
    }
    csv = ["integral,value,tail_bound,terms"] + [
        f"{k},{v.csv_row()}" for k, v in vals.items()
    ]
    text = [f"{k} = {v.value:.6f} (tail <= {v.tail_bound:.2e})" for k, v in vals.items()]
    return payload, csv, text


def _cmd_dimension(args):
    from .fractal import dimension_estimate, dimension_table, selfsimilar_dimension

    if args.table:
        rows = dimension_table(_given(args.n, 5))
        payload = {"table": rows[1:]}
        return payload, rows, rows
    if args.family:
        rep = selfsimilar_dimension(args.family, _given(args.n, 1))
    else:
        if not args.param:
            raise ValueError("dimension needs --table, --family or --param")
        rep = dimension_estimate(parse_param(args.param), _given(args.depth, 50))
    payload = json.loads(rep.to_json())
    csv = ["method,value", f"{rep.method},{rep.value!r}"]
    return payload, csv, [f"{rep.method} {rep.value:.6f}"]


def _cmd_render(args):
    from .render import render_cover, render_discontinuities, render_islands

    if args.out is None:
        raise ValueError("render requires --out")
    p = parse_param(args.param)
    px = _given(args.px, 1000)
    if args.kind == "discontinuities":
        img = render_discontinuities(p, _given(args.depth, 20), px)
    elif args.kind == "islands":
        periods = [int(t) for t in _given(args.periods, "1,5,21").split(",")]
        img = render_islands(p, periods, px)
    else:
        img = render_cover(p, _given(args.depth, 6), px)
    if args.palette == "mono":
        px16 = img.pixels.astype("u2")
        lum = (px16[..., 0] * 299 + px16[..., 1] * 587 + px16[..., 2] * 114) // 1000
        img.pixels[:] = lum.astype("u1")[..., None]
    img.save(args.out, compress=args.compress)
    payload = {
        "out": args.out,
        "width": img.width,
        "height": img.height,
        "kind": args.kind,
        "palette": args.palette,
    }
    return payload, [f"out,{args.out}"], [f"wrote {args.out}"]


def _cmd_natext_check(args):
    rep = natural_extension_check(
        samples=_given(args.trials, 100_000), seed=_given(args.seed, 0)
    )
    payload = {
        "samples": rep.samples,
        "stayed": rep.stayed,
        "fiber_square_ok": rep.fiber_square_ok,
        "fiber_middle_ok": rep.fiber_middle_ok,
        "disjoint_checked": rep.disjoint_checked,
        "disjoint_ok": rep.disjoint_ok,
    }
    csv = [
        "samples,stayed,fiber_square_ok,fiber_middle_ok,disjoint_checked,disjoint_ok",
        f"{rep.samples},{rep.stayed},{rep.fiber_square_ok},"
        f"{rep.fiber_middle_ok},{rep.disjoint_checked},{rep.disjoint_ok}",
    ]
    return payload, csv, [f"stayed {rep.stayed}/{rep.samples}"]


HANDLERS = {
    "expand": _cmd_expand,
    "orbit": _cmd_orbit,
    "islands": _cmd_islands,
    "induction-check": _cmd_induction_check,
    "sturmian": _cmd_sturmian,
    "tower": _cmd_tower,
    "lyapunov": _cmd_lyapunov,
    "integrals": _cmd_integrals,
    "dimension": _cmd_dimension,
    "render": _cmd_render,
    "natext-check": _cmd_natext_check,
}


def build_parser() -> _Parser:
    top = _Parser(prog="sqrect", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--format", choices=FORMATS, default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("expand", help="S-expansion of a parameter")
    sp.add_argument("--param", required=True)
    common(sp)

    sp = sub.add_parser("orbit", help="coding of a point orbit")
    sp.add_argument("--param", required=True)
    sp.add_argument("--point", required=True, help='"x,y"')
    common(sp)

    sp = sub.add_parser("islands", help="periodic cells up to a period")
    sp.add_argument("--param", required=True)
    sp.add_argument("--max-period", type=int, default=21)
    common(sp)

    sp = sub.add_parser("induction-check", help="renormalization conjugacy check")
    sp.add_argument("--param", required=True)
    common(sp)

    sp = sub.add_parser("sturmian", help="limit word prefix and factor counts")
    sp.add_argument("--param", required=True)
    sp.add_argument("--length", type=int, default=1000)
    sp.add_argument("--n-max", type=int, default=50)
    common(sp)

    sp = sub.add_parser("tower", help="block counts and measures at depth l")
    sp.add_argument("--param", required=True)
    sp.add_argument("--prefix-len", type=int, default=None,
                    help="letters of the limit word to decompose (default: "
                    "200 per unit of the depth-l matrix entry sum, at least "
                    "200000)")
    common(sp)

    sp = sub.add_parser("lyapunov", help="Monte-Carlo exponent estimates")
    sp.add_argument("--l", dest="depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("integrals", help="certified series values")
    sp.add_argument("--terms", type=int, default=2_000_000)
    common(sp)

    sp = sub.add_parser("dimension", help="Hausdorff dimension reports")
    sp.add_argument("--family", choices=("minus", "plus"), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--param", default=None)
    sp.add_argument("--table", action="store_true")
    common(sp)

    sp = sub.add_parser("render", help="rasterize a figure to a P6 pixmap")
    sp.add_argument("kind", choices=("discontinuities", "islands", "cover"))
    sp.add_argument("--param", required=True)
    sp.add_argument("--px", type=int, default=1000)
    sp.add_argument("--periods", default=None, help="comma list for islands")
    sp.add_argument("--palette", choices=("default", "mono"), default="default")
    sp.add_argument("--compress", action="store_true")
    common(sp)

    sp = sub.add_parser("natext-check", help="natural-extension domain check")
    common(sp)

    return top


def _emit(args, payload, csv_rows, text_lines) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = "\n".join(csv_rows)
    else:
        out = "\n".join(text_lines)
    dest = getattr(args, "out", None)
    if dest is not None and args.command != "render":
        with open(dest, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _write_manifest(args) -> None:
    dest = getattr(args, "out", None)
    if dest is None:
        return
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "command" and v is not None
    }
    manifest = {
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "flags": flags,
    }
    with open(f"{dest}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, csv_rows, text_lines = HANDLERS[args.command](args)
    # a float orbit can land on a pole of a branch map: a domain error too
    except (SqrectError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1 if isinstance(exc, ParseError) else 2
    _emit(args, payload, csv_rows, text_lines)
    _write_manifest(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
