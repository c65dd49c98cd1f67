"""Command-line entry point: every operation behind one dispatcher with
machine-readable output.

Exit codes: 0 success, 1 usage error, 2 domain error (JSON error object on
stderr), 141 when stdout closes early. Parameters are accepted as "theta,eps"
or in interval form "x=1.2929"; numbers use the exact syntax ("sqrt(2)-1", "3/8").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple

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

    def parse_known_args(self, args=None, namespace=None):
        # a command refuses a flag it does not take under its own usage;
        # argparse would hand it up to the top-level parser
        args, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


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


def parse_periods(text: str) -> list[int]:
    """Parse a comma list of integers; malformed text raises ParseError."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"periods must be comma-separated integers: {text!r}") from exc


def _given(value, default):
    """A flag's value as given, an explicit 0 included; `default` if absent."""
    return default if value is None else value


# -- command handlers: return (report, csv rows, text lines) -------------
# The report is a library dataclass or a plain mapping; JSON is written from
# its fields, in order. The first csv row is the header.


def _table(report) -> list:
    """A dataclass as a one-record csv table: field names, then values."""
    fields = asdict(report)
    return [list(fields), list(fields.values())]


def _cmd_expand(args):
    x = param_to_x(parse_param(args.param))
    e = expand(x, max_steps=_given(args.depth, 1000))
    report = {
        "digits": [{"n": d.n, "eps": d.eps} for d in e.steps],
        "status": e.status,
        "preperiod": e.preperiod,
        "period": e.period,
    }
    rows = [("step", "n", "eps"), *((i, d.n, d.eps) for i, d in enumerate(e.steps))]
    text = [
        f"status {e.status} preperiod {e.preperiod} period {e.period}",
        " ".join(f"({d.n},{d.eps:+d})" for d in e.steps),
    ]
    return report, rows, text


def _cmd_orbit(args):
    p = parse_param(args.param)
    z = parse_point(args.point)
    word = code_orbit(p, z, _given(args.depth, 100))
    report = {"param": str(p), "coding": word, "length": len(word)}
    return report, [("coding",), (word,)], [word]


def _cmd_islands(args):
    p = parse_param(args.param)
    cells = islands(p, max_period=args.max_period)
    rows = [
        (*map(format_number, (c.rect.x, c.rect.y, c.rect.w)), c.orbit_period)
        for c in cells
    ]
    lines = [
        f"CELL {x} {y} {w} {n} {c.code_period}" for (x, y, w, n), c in zip(rows, cells)
    ]
    report = {
        "param": str(p),
        "count": len(cells),
        "total_area": sum(float(c.rect.area()) for c in cells),
        "cells": lines,
    }
    return report, [("x", "y", "w", "period"), *rows], lines


def _cmd_induction_check(args):
    from .renorm import induction_verify

    p = parse_param(args.param)
    rep = induction_verify(
        p, samples=_given(args.trials, 10_000), seed=_given(args.seed, 0)
    )
    text = [f"max_error {rep.max_error!r} exact {rep.exact}"]
    return {"param": str(p), **asdict(rep)}, _table(rep), text


def _cmd_sturmian(args):
    from .words import complexity, limit_word

    p = parse_param(args.param)
    n_max = args.n_max
    if n_max < 1:
        # no counted length would make an empty certificate
        raise ValueError(f"--n-max must be at least 1, got {n_max}")
    w = limit_word(p, args.length)
    counts = {n: complexity(w, n) for n in range(1, n_max + 1)}
    report = {
        "param": str(p),
        "prefix": str(w),
        "factor_counts": counts,
        "sturmian": all(c == n + 1 for n, c in counts.items()),
    }
    return report, [("n", "factors"), *counts.items()], [report["prefix"]]


def _cmd_tower(args):
    from .words import tower_stats

    ts = tower_stats(parse_param(args.param), _given(args.depth, 5), args.prefix_len)
    return ts, _table(ts), [str(ts)]


def _cmd_lyapunov(args):
    from .lyap import MASTER_SEED, birkhoff_estimate

    est = birkhoff_estimate(
        seed=MASTER_SEED if args.seed is None else args.seed,
        trials=_given(args.trials, 1000),
        l=_given(args.depth, 10_000),
    )
    # not CocycleEstimate's field order: the estimates, their errors, the run
    report = {k: getattr(est, k) for k in (
        "lambda_hat", "lnR_hat", "s_hat", "stderr_lambda", "stderr_lnR",
        "stderr_s", "l", "trials", "seed",
    )}
    rows = [("quantity", "value", "stderr", "l", "trials", "seed")] + [
        (q, report[f"{q}_hat"], report[f"stderr_{q}"], est.l, est.trials, est.seed)
        for q in ("lambda", "lnR", "s")
    ]
    text = [f"{q:<6} {value:.6f} +- {se:.6f}" for q, value, se, *_ in rows[1:]]
    return report, rows, text


def _cmd_integrals(args):
    from .lyap import integral_ln_M, integral_ln_r, lower_bound_f

    terms = args.terms
    report = {
        "ln_M": integral_ln_M(terms),
        "ln_r": integral_ln_r(terms),
        "f_lower_bound": lower_bound_f(terms),
    }
    rows = [("integral", "value", "tail_bound", "terms")] + [
        (k, *astuple(v)) for k, v in report.items()
    ]
    text = [
        f"{k} = {v.value:.6f} (tail <= {v.tail_bound:.2e})" for k, v in report.items()
    ]
    return report, rows, text


def _cmd_dimension(args):
    from .fractal import dimension_estimate, dimension_table, selfsimilar_dimension

    # --n counts the self-similar members, --depth the renormalization steps
    if (args.table or args.family) and args.depth is not None:
        raise ParseError("--depth is read only with --param")
    if args.param and args.n is not None:
        raise ParseError("--n is read only with --table or --family")
    if args.table:
        lines = dimension_table(_given(args.n, 5))
        return {"table": lines[1:]}, [line.split(",") for line in lines], lines
    if args.family:
        rep = selfsimilar_dimension(args.family, _given(args.n, 1))
    else:
        if not args.param:
            raise ValueError("dimension needs --table, --family or --param")
        rep = dimension_estimate(parse_param(args.param), _given(args.depth, 50))
    report = {"method": rep.method, "value": rep.value, **rep.diagnostics}
    rows = [("method", "value"), (rep.method, rep.value)]
    return report, rows, [f"{rep.method} {rep.value:.6f}"]


def _cmd_render(args):
    from .render import render_cover, render_discontinuities, render_islands

    if args.out is None:
        raise ValueError("render requires --out")
    p = parse_param(args.param)
    px = _given(args.px, 1000)
    if args.kind == "discontinuities":
        img = render_discontinuities(p, _given(args.depth, 20), px)
    elif args.kind == "islands":
        img = render_islands(p, parse_periods(_given(args.periods, "1,5,21")), px)
    else:
        img = render_cover(p, _given(args.depth, 6), px)
    if args.palette == "mono":  # luma (299 R + 587 G + 114 B) // 1000, in int64
        luma = img.pixels @ [299, 587, 114] // 1000
        img.pixels[:] = luma.astype("u1")[..., None]
    img.save(args.out)
    report = {
        "out": args.out,
        "width": img.width,
        "height": img.height,
        "kind": args.kind,
        "palette": args.palette,
    }
    return report, [("out", args.out)], [f"wrote {args.out}"]


def _cmd_natext_check(args):
    rep = natural_extension_check(
        samples=_given(args.trials, 100_000), seed=_given(args.seed, 0)
    )
    return rep, _table(rep), [f"stayed {rep.stayed}/{rep.samples}"]


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

    def command(name, help, *flags, under=sub):
        """A subcommand with --format, --out and those of --seed, --depth and
        --trials in flags: only the flags its handler reads."""
        sp = under.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int, default=None)
        sp.add_argument("--format", choices=FORMATS, default="json")
        sp.add_argument("--out", default=None)
        return sp

    sp = command("expand", "S-expansion of a parameter", "depth")
    sp.add_argument("--param", required=True)

    sp = command("orbit", "coding of a point orbit", "depth")
    sp.add_argument("--param", required=True)
    sp.add_argument("--point", required=True, help='"x,y"')

    sp = command("islands", "periodic cells up to a period")
    sp.add_argument("--param", required=True)
    sp.add_argument("--max-period", type=int, default=21)

    sp = command("induction-check", "renormalization conjugacy check",
                 "seed", "trials")
    sp.add_argument("--param", required=True)

    sp = command("sturmian", "limit word prefix and factor counts")
    sp.add_argument("--param", required=True)
    sp.add_argument("--length", type=int, default=1000)
    sp.add_argument("--n-max", type=int, default=50)

    sp = command("tower", "block counts and measures at depth l", "depth")
    sp.add_argument("--param", required=True)
    sp.add_argument("--prefix-len", type=int, default=None,
                    help="letters of the limit word to decompose (default: "
                    "200 per unit of the depth-l matrix entry sum, at least "
                    "200000)")

    sp = command("lyapunov", "Monte-Carlo exponent estimates", "seed", "trials")
    sp.add_argument("--l", dest="depth", type=int, default=None)

    sp = command("integrals", "certified series values")
    sp.add_argument("--terms", type=int, default=2_000_000)

    sp = command("dimension", "Hausdorff dimension reports", "depth")
    sp.add_argument("--n", type=int, default=None)
    selector = sp.add_mutually_exclusive_group()
    selector.add_argument("--table", action="store_true")
    selector.add_argument("--family", choices=("minus", "plus"), default=None)
    selector.add_argument("--param", default=None)

    render = sub.add_parser("render", help="rasterize a figure to a P6 pixmap")
    kinds = render.add_subparsers(dest="kind", required=True)
    for kind, flags in (("discontinuities", ["depth"]), ("islands", []),
                        ("cover", ["depth"])):
        sp = command(kind, f"the {kind} figure", *flags, under=kinds)
        sp.add_argument("--param", required=True)
        sp.add_argument("--px", type=int, default=1000)
        sp.add_argument("--palette", choices=("default", "mono"), default="default")
        if kind == "islands":
            sp.add_argument("--periods", default=None, help="comma list of periods")

    command("natext-check", "natural-extension domain check", "seed", "trials")

    return top


def _emit(args, report, rows, text) -> None:
    """Write a handler's result in the chosen format: JSON from the report's
    fields (a dataclass's with `asdict`), csv one line per row (str of a
    float is its repr), or the text lines."""
    if args.format == "json":
        out = json.dumps(report, indent=2, default=asdict)
    elif args.format == "csv":
        out = "\n".join(",".join(map(str, row)) for row in rows)
    else:
        out = "\n".join(text)
    if args.out is not None and args.command != "render":
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out, flush=True)  # a closed pipe raises here, not at exit


def _write_manifest(args) -> None:
    if args.out is None:
        return
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "command" and v is not None
    }
    manifest = {
        "version": __version__,
        "command": args.command,
        "seed": flags.get("seed"),
        "flags": flags,
    }
    with open(f"{args.out}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, rows, text = HANDLERS[args.command](args)
        _emit(args, report, rows, text)
        _write_manifest(args)
    except BrokenPipeError:  # the reader is gone: end as SIGPIPE ends a writer
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # a float orbit can land on a pole of a branch map: a domain error too;
    # an output that cannot be written is a usage error
    except (SqrectError, ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1 if isinstance(exc, (ParseError, OSError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
