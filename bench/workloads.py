"""The three workloads: seeded op lists, the op bodies that call into
`sqrect`, and the identity checks that need no reference values.

An op is one unit of user work. Op lists are plain data (`Op`), built from
the workload, seed and pass number alone, so the same seed gives the same
lists. Op bodies
take a probe (see `worker.Probe`) and route every call into a `sqrect`
module through `probe.call(module, fn, ...)`; that is where traced runs put
their spans. Each body returns a dict of output strings, which the worker
compares with the committed reference values.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from sqrect import cfrac, exactnum, fractal, lyap, pet, render, renorm, words
from sqrect.errors import PrefixTooShort

WORKLOADS = ("exact", "cover", "float")
DEFAULT_SEED = 0
# Nominal seconds of one untraced pass, at the nominal machine speed of the
# speed probe (see `run.PROBE_NOMINAL_S`). A run makes `--seconds` over this
# many passes, whatever the speed of the program, so that its ops, and its
# failures, depend on the seed and the seconds alone.
PASS_S = {"exact": 4.4, "cover": 7.8, "float": 5.2}

# (step, error type) pairs that are a known defect, not a wrong output:
# tower_stats at the CLI default prefix length of 200 000 raises
# PrefixTooShort when the depth-l blocks are longer than 2 000 letters.
# These ops count as failed; they are listed, not avoided.
KNOWN_DEFECTS = {("tower", PrefixTooShort.__name__)}


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: dict


def make_ops(workload: str, seed: int, pass_no: int = 0) -> list[Op]:
    """The op list of one pass; it depends on its arguments only."""
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _piece_counts(p: pet.Param, depth: int):
    """Exact piece counts of the depth-1..depth covers, computed before any
    cover is built: ||M_0...M_{l-1} (1,1)||_1 of the incidence matrices."""
    M = renorm.Mat2.identity()
    for _ in range(depth):
        M = M @ renorm.incidence_matrix(p)
        yield sum(M.apply((1, 1)))
        p = renorm.renorm_step(p)


# -- exact: the exact-arithmetic path at quadratic-surd parameters --------

SURD_OPS = 50  # seeded surds per pass, next to the ten self-similar ones
COVER_BUDGET = 500  # exact cover pieces per op; the count grows heavy-tailed
SQUAREFREE = [d for d in range(2, 31) if exactnum.squarefree_decompose(d)[0] == 1]
VERIFY_SAMPLES = 50
ORBIT_POINT = (Fraction(1, 3), Fraction(2, 7))  # README `orbit --point`
ORBIT_STEPS = 200
ISLAND_PERIOD = 21  # CLI default --max-period
DIMENSION_DEPTH = 50  # CLI default --depth of `dimension --param`
WORD_LENGTH = 1000  # CLI default --length of `sturmian`
FACTOR_MAX = 50  # CLI default --n-max of `sturmian`
TOWER_DEPTH = 3
TOWER_PREFIX = 200_000  # CLI default --prefix-len of `tower`
ACCEL_STEPS = 8
# dimension_estimate's error decays like 1/l while its reported spread (of
# the last three depths) decays like 1/l^2, so the spread is no error bar:
# at l=50 the error is about 24 spreads. The check uses the tolerance of
# acceptance criterion 02 instead.
DIMENSION_TOL = 2e-2


def _param_op(op_id: str, p: pet.Param, verify_seed: int, family=None) -> Op:
    # the cover depth: the largest (up to 20) within COVER_BUDGET pieces
    depth, pieces = 0, 2
    for l, count in enumerate(_piece_counts(p, 20), 1):
        if count > COVER_BUDGET:
            break
        depth, pieces = l, count
    return Op(op_id, "param", {
        "theta": exactnum.format_number(p.theta), "eps": p.eps,
        "verify_seed": verify_seed, "cover_depth": depth, "cover_pieces": pieces,
        "family": family,
    })


def _random_surd(rng: random.Random) -> exactnum.Number:
    """(a + s*b*sqrt(d))/c in (0, 2): a is drawn from the 2c integers that
    keep the value inside, so no draw is rejected."""
    d = rng.choice(SQUAREFREE)
    b = rng.randint(1, 4) * rng.choice((-1, 1))
    c = rng.randint(1, 8)
    root = b * math.sqrt(d)
    a = rng.randint(math.floor(-root) + 1, math.floor(2 * c - root))
    return exactnum.make_surd(a, b, c, d)


def _exact_ops(rng: random.Random) -> list[Op]:
    ops = []
    for family in ("minus", "plus"):
        for n in range(1, 6):
            p = fractal.selfsimilar_parameter(family, n)
            ops.append(_param_op(f"selfsimilar-{family}{n}", p, 0, [family, n]))
    for i in range(SURD_OPS):
        p = cfrac.x_to_param(_random_surd(rng))
        ops.append(_param_op(f"surd-{i:02d}", p, rng.randrange(1 << 30)))
    # README: `sqrect tower --param 'sqrt(2)-1,-1' --depth 5`
    ops.append(Op("readme-tower", "tower", {
        "theta": "sqrt(2)-1", "eps": -1, "l": 5, "prefix_len": TOWER_PREFIX,
    }))
    return ops


def param_op(pr, a: dict) -> dict:
    out = {}
    theta = pr.call("exactnum", exactnum.parse_number, a["theta"])
    p = pet.Param(theta, a["eps"])
    x = cfrac.param_to_x(p)
    with pr.guard("expand"):
        e = pr.call("cfrac", cfrac.expand, x)
        out["expand"] = f"{e.status} {e.preperiod} {e.period} " + " ".join(
            f"{d.n}{d.eps:+d}" for d in e.steps
        )
        if a["family"]:
            pr.check("selfsimilar_period_1",
                     (e.status, e.preperiod, e.period) == ("periodic", 0, 1))
    with pr.guard("accel"):
        orbit = pr.call("cfrac", cfrac.accel_orbit, x, ACCEL_STEPS)
        pr.orbit = [x] + [st.y for st in orbit]
        steps = sum(st.m for st in orbit)
        pr.add("cfrac.accel_steps", steps)
        out["accel"] = f"{steps} " + exactnum.format_number(orbit[-1].y)
    with pr.guard("orbit"):
        word = pr.call("pet", pet.code_orbit, p, pet.Point(*ORBIT_POINT), ORBIT_STEPS)
        pr.add("pet.steps", len(word))
        out["orbit"] = str(word)
    with pr.guard("islands"):
        cells = pr.call("pet", pet.islands, p, ISLAND_PERIOD)
        pr.add("pet.cells", len(cells))
        out["islands"] = " ".join(str(c.orbit_period) for c in cells)
    with pr.guard("verify"):
        rep = pr.call("renorm", renorm.induction_verify, p,
                      VERIFY_SAMPLES, seed=a["verify_seed"])
        pr.add("renorm.verify_s", pr.last)
        pr.add("renorm.verify_samples", rep.samples)
        pr.add("renorm.verify_attempts", rep.samples + rep.resampled)
        out["verify"] = f"{rep.samples} {rep.resampled} {rep.max_error!r} {rep.exact}"
        pr.check("induction_exact_zero", rep.exact and rep.max_error == 0)
    with pr.guard("cocycle"):
        M, log_norm = pr.call("lyap", lyap.cocycle_product, p, DIMENSION_DEPTH)
        pr.add("lyap.cocycle_s", pr.last)
        pr.add("lyap.cocycle_steps", DIMENSION_DEPTH + 1)
        out["cocycle"] = f"{M.m11} {M.m12} {M.m21} {M.m22} {log_norm!r}"
    with pr.guard("dimension"):
        rep = pr.call("fractal", fractal.dimension_estimate, p, DIMENSION_DEPTH)
        out["dimension"] = f"{rep.value!r} {rep.diagnostics['spread']!r}"
        if a["family"]:
            closed = pr.call("fractal", fractal.selfsimilar_dimension, *a["family"])
            pr.check("selfsimilar_dimension", abs(rep.value - closed.value) <= DIMENSION_TOL)
    with pr.guard("sturmian"):
        w = pr.call("words", words.limit_word, p, WORD_LENGTH)
        counts = [pr.call("words", words.complexity, w, n)
                  for n in range(1, FACTOR_MAX + 1)]
        pr.add("words.letters", len(w))
        out["sturmian"] = sha(str(w)) + " " + " ".join(map(str, counts))
    with pr.guard("tower"):
        out["tower"] = _tower(pr, p, TOWER_DEPTH, TOWER_PREFIX)
    with pr.guard("cover"):
        pieces = pr.call("renorm", renorm.cover, p, a["cover_depth"])
        pr.add("renorm.cover_s", pr.last)
        pr.add("renorm.cover_pieces", len(pieces))
        shapes = "".join(c.shape for c in pieces)
        out["cover"] = f"{len(pieces)} {sha(shapes)}"
        pr.check("cover_pieces_norm", len(pieces) == a["cover_pieces"])
    return out


def _tower(pr, p: pet.Param, l: int, prefix_len: int) -> str:
    ts = pr.call("words", words.tower_stats, p, l, prefix_len)
    return f"{ts.N_a} {ts.N_b} {ts.alpha!r} {ts.beta!r}"


def tower_op(pr, a: dict) -> dict:
    theta = pr.call("exactnum", exactnum.parse_number, a["theta"])
    with pr.guard("tower"):
        return {"tower": _tower(pr, pet.Param(theta, a["eps"]), a["l"], a["prefix_len"])}
    return {}


# -- cover: float covers, box counting and rendering ---------------------

COVER_MIN_PIECES = 1_000
COVER_MAX_PIECES = 1_000_000
RENDER_MAX_PIECES = 70_000
RENDER_PX = 500
DEEP = (9, 8)  # depth, base_l: four 60k-piece chunks of the silver mean


def _cover_ops(rng: random.Random) -> list[Op]:
    """Every (parameter, depth) of both families, n=1..3, whose piece count
    lies in [COVER_MIN_PIECES, COVER_MAX_PIECES], from arrays inside L2 to
    ~40 MB; the streamed count on the silver mean; one render for each
    parameter. The seed sets only the order: every input is fixed."""
    ops = []
    for family in ("minus", "plus"):
        for n in (1, 2, 3):
            p = fractal.selfsimilar_parameter(family, n)
            radii = fractal.radius_sequence(p, 12)
            for l, pieces in enumerate(_piece_counts(p, 12), 1):
                if pieces > COVER_MAX_PIECES:
                    break
                if pieces <= RENDER_MAX_PIECES:
                    render_l, render_pieces = l, pieces
                if pieces >= COVER_MIN_PIECES:
                    ops.append(Op(f"cover-{family}{n}-l{l}", "cover", {
                        "family": family, "n": n, "l": l,
                        "r": repr(radii[l - 1]), "pieces": pieces,
                    }))
            ops.append(Op(f"render-{family}{n}-l{render_l}", "render", {
                "family": family, "n": n, "l": render_l,
                "px": RENDER_PX, "pieces": render_pieces,
            }))
    l, base_l = DEEP
    r = fractal.radius_sequence(fractal.selfsimilar_parameter("minus", 1), l)[l - 1]
    ops.append(Op(f"deep-minus1-l{l}", "deep", {
        "family": "minus", "n": 1, "l": l, "base_l": base_l, "r": repr(r)}))
    return ops


def cover_op(pr, a: dict) -> dict:
    p = pr.call("fractal", fractal.selfsimilar_parameter, a["family"], a["n"])
    arrays = pr.call("fractal", fractal.cover_arrays, p, a["l"])
    pr.add("fractal.cover_s", pr.last)
    pieces = int(arrays[0].size)
    pr.add("fractal.pieces", pieces)
    pr.check("cover_pieces_norm", pieces == a["pieces"])
    boxes = pr.call("fractal", fractal.box_count, arrays, float(a["r"]))
    pr.add("fractal.box_count_s", pr.last)
    pr.add("fractal.cover_boxes", boxes)
    # computed, not measured: the cover arrays plus one int64 per box code
    pr.peak("fractal.computed_bytes", sum(x.nbytes for x in arrays) + 8 * boxes)
    return {"pieces": str(pieces), "boxes": str(boxes)}


def deep_op(pr, a: dict) -> dict:
    p = pr.call("fractal", fractal.selfsimilar_parameter, a["family"], a["n"])
    boxes = pr.call("fractal", fractal.box_count_deep, p, a["l"],
                    float(a["r"]), base_l=a["base_l"])
    pr.add("fractal.box_count_deep_s", pr.last)
    pr.add("fractal.deep_boxes", boxes)
    return {"boxes": str(boxes)}


def render_op(pr, a: dict) -> dict:
    p = pr.call("fractal", fractal.selfsimilar_parameter, a["family"], a["n"])
    img = pr.call("render", render.render_cover, p, a["l"], a["px"])
    elapsed = pr.last
    data = pr.call("render", img.to_p6)
    pr.add("render.s", elapsed + pr.last)
    pr.add("render.rects", a["pieces"])
    pr.add("render.pixels", img.width * img.height)
    return {"p6_sha256": sha(data)}


# -- float: Monte-Carlo and certified series -----------------------------

BIRKHOFF = (6, 200, 2000)  # ops per pass, trials, depth
SERIES = ("integral_ln_M", "integral_ln_r", "lower_bound_f")
SERIES_TERMS = (10_000, 100_000, 300_000)
NATEXT_SAMPLES = 2000
# natural_extension_check's disjointness check builds every inverse branch
# up to 1/|y1| for each of its 1000 points, so its time and memory are
# heavy-tailed in the seed. Seeded seeds would make op_tail_s and
# peak_rss_mb report which seeds were drawn; the seeds are fixed instead:
# the CLI default, and one whose worst point needs 112 130 branches
# (3.5 s, 160 MB), so the heavy case is measured on every run.
NATEXT_SEEDS = (0, 885180465)
TRANSFER_POINTS = 10  # seeded y per density
TRANSFER_TOL = 1e-8  # acceptance criterion 09


def _float_ops(rng: random.Random) -> list[Op]:
    ops = []
    count, trials, l = BIRKHOFF
    for i in range(count):
        ops.append(Op(f"birkhoff-{i}", "birkhoff", {
            "seed": rng.randrange(1 << 30), "trials": trials, "l": l}))
    for name in SERIES:
        for terms in SERIES_TERMS:
            ops.append(Op(f"{name}-{terms}", "series", {"fn": name, "terms": terms}))
    for seed in NATEXT_SEEDS:
        ops.append(Op(f"natext-{seed}", "natext", {"seed": seed, "samples": NATEXT_SAMPLES}))
    for i in range(TRANSFER_POINTS):
        y = rng.uniform(0.0, 2.0)
        for which in ("nu", "bold_nu"):
            ops.append(Op(f"transfer-{which}-{i}", "transfer", {"which": which, "y": repr(y)}))
    return ops


def birkhoff_op(pr, a: dict) -> dict:
    est = pr.call("lyap", lyap.birkhoff_estimate, a["seed"], a["trials"], a["l"])
    pr.add("lyap.birkhoff_s", pr.last)
    pr.add("lyap.lane_steps", a["trials"] * a["l"])
    return {k: repr(getattr(est, k)) for k in (
        "lambda_hat", "lnR_hat", "s_hat", "stderr_lambda", "stderr_lnR", "stderr_s")}


def series_op(pr, a: dict) -> dict:
    v = pr.call("lyap", getattr(lyap, a["fn"]), a["terms"])
    pr.add("lyap.series_s", pr.last)
    pr.add("lyap.series_terms", v.terms)
    return {"value": repr(v.value), "tail_bound": repr(v.tail_bound), "terms": str(v.terms)}


def natext_op(pr, a: dict) -> dict:
    rep = pr.call("cfrac", cfrac.natural_extension_check, a["samples"], a["seed"])
    pr.add("cfrac.natext_s", pr.last)
    pr.add("cfrac.natext_samples", rep.samples)
    pr.add("cfrac.natext_stayed", rep.stayed)
    pr.check("natext_invariant", rep.stayed == rep.samples)
    pr.check("natext_fibers", rep.fiber_square_ok and rep.fiber_middle_ok)
    pr.check("natext_disjoint", rep.disjoint_ok == rep.disjoint_checked)
    return {"report": f"{rep.samples} {rep.stayed} {rep.disjoint_checked} {rep.disjoint_ok}"}


def transfer_op(pr, a: dict) -> dict:
    res = float(pr.call("cfrac", cfrac.transfer_residual, a["which"], float(a["y"])))
    pr.check("transfer_residual", res <= TRANSFER_TOL)
    return {"residual": repr(res)}


_BUILDERS = {"exact": _exact_ops, "cover": _cover_ops, "float": _float_ops}

RUNNERS = {
    "param": param_op, "tower": tower_op,
    "cover": cover_op, "deep": deep_op, "render": render_op,
    "birkhoff": birkhoff_op, "series": series_op,
    "natext": natext_op, "transfer": transfer_op,
}
