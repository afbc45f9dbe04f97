"""Command-line front end.

Subcommands: dim, normalize, nottingham, word, centralizer, autos-verify,
padic, fieldext.  Deterministic throughout (fixed seeds on verification
paths); exact rationals are emitted as num/den strings, decimals are display
columns only.  Exit codes: 0 success (verification failures are data),
1 computation error, 2 argument error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import autos, fieldext, freeprod, hausdorff, padic, partitions, series
from .matrices import UniTriWindow, valuation
from .partitions import PartitionDiagram
from .rings import Ring

VERIFY_SEED = 95117


@dataclass
class JobSpec:
    subcommand: str
    p: int = 3
    f: int = 1
    k: int = 1
    window: int = 6
    N: int = 20
    cap: int = 200_000
    fmt: str = "text"
    out: str | None = None
    alpha: str | None = None
    partition: str | None = None
    squares: str | None = None
    family: str | None = None
    series: str | None = None
    gen: str | None = None
    text: str | None = None


def _ring(spec: JobSpec) -> Ring:
    if spec.f > 1:
        return Ring.ext_field(spec.p, spec.f)
    return Ring.prime_field(spec.p)


def _diagram(spec: JobSpec) -> PartitionDiagram:
    picked = [v for v in (spec.alpha, spec.partition, spec.squares, spec.family) if v]
    if len(picked) != 1:
        raise ValueError("give exactly one of --alpha / --partition / --squares / --family")
    if spec.alpha:
        return hausdorff.partition_for_alpha(hausdorff.AlphaTarget.parse(spec.alpha), spec.N)
    if spec.partition:
        return partitions.parse_partition(spec.partition)
    if spec.squares:
        sq = partitions.parse_squares(spec.squares)
        window = max(spec.window, max(c for _, c in sq))
        return partitions.rect_closure(sq, window)
    name, _, args = spec.family.partition(":")
    params = [int(a) for a in args.split(",")] if args else []
    return partitions.family(name, *params)


def _emit(spec: JobSpec, report: dict, csv_text: str | None = None) -> None:
    if spec.fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif spec.fmt == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = _as_text(report)
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(report, indent=0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_as_text(val, indent + 1).rstrip("\n"))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                row = ", ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"{pad}  {row}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines) + "\n"


def _frac_str(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


# -- subcommand handlers --

def cmd_dim(spec: JobSpec):
    mu = _diagram(spec)
    seq = hausdorff.dim_sequence_partition(mu, spec.N)
    report = {"input": _describe_mu(spec, mu), "N": spec.N}
    rows = []
    parts = mu.heights() if mu.is_partition() else None
    count = 0
    for n, a_n in seq.rows():
        row = {"n": n}
        if parts is not None and n - 2 < len(parts):
            row["mu_n"] = parts[n - 2]
        count = mu.count_upto(n)
        row.update(count=count, a_n=_frac_str(a_n), decimal=f"{float(a_n):.12g}")
        rows.append(row)
    report["rows"] = rows
    report["count_at_N"] = count
    est = seq.limit_estimate()
    report["limit_estimate"] = None if est is None else _frac_str(est)
    csv_text = seq.to_csv() + f"# count_at_{spec.N},{count}\n"
    return 0, report, csv_text


def _describe_mu(spec, mu):
    for name in ("alpha", "partition", "squares", "family"):
        val = getattr(spec, name)
        if val:
            return {name: val}
    return {"window": mu.window}


def cmd_normalize(spec: JobSpec):
    mu = _diagram(spec)
    if not isinstance(mu, partitions.Partition):
        mu = mu.max_subpartition()
    out = hausdorff.monotone_normalize(mu)
    report = {
        "input_parts": list(mu.parts),
        "normalized": partitions.format_partition(out),
        "is_normal": out.is_normal(),
    }
    return 0, report, None


def cmd_word(spec: JobSpec):
    if not spec.text:
        raise ValueError("word subcommand needs word text")
    w = freeprod.Word.parse(spec.text, spec.p)
    x = freeprod.embed_word(w, spec.window)
    report = {"word": w.format(), "p": spec.p, "window": spec.window,
              "matrix": x.to_json()}
    try:
        l, case = freeprod.read_word_length(x)
        report["length"] = l
        report["case"] = case
    except ValueError as exc:
        report["length"] = None
        report["note"] = str(exc)
    return 0, report, None


def cmd_nottingham(spec: JobSpec):
    ring = _ring(spec)
    degree = max(spec.window, 2)
    if spec.series:
        u = series.SeriesAut.from_json(json.loads(spec.series))
        ring = u.ring
        if u.degree < spec.window:
            raise ValueError("series degree below requested window")
    elif spec.gen:
        r_text, _, a_text = spec.gen.partition(":")
        u = series.generator(ring, int(r_text), ring.elem(a_text or "1"), degree)
    else:
        raise ValueError("give --series JSON or --gen r:coeff")
    mat = series.series_matrix(u, spec.window)
    vinv = series.invert(u)
    report = {
        "series": u.to_json(),
        "matrix": mat.to_json(),
        "inverse_coeffs": [ring.format_value(c) for c in vinv.coeffs],
        "first_row_determined": series.first_row_determined(mat),
    }
    return 0, report, None


def cmd_centralizer(spec: JobSpec):
    ring = _ring(spec)
    mu = _diagram(spec)
    gens = partitions.subgroup_generators(mu, ring, spec.window)
    dim, basis = fieldext.centralizer_solve(gens, ring, spec.window)
    report = {
        "window": spec.window,
        "ring": ring.to_json(),
        "log_order": dim,
        "basis": [b.to_json()["entries"] for b in basis],
    }
    try:
        perp = mu.orthogonal()
        want = {(i, j) for i in range(1, spec.window + 1)
                for j in range(i + 1, spec.window + 1) if perp.has_square(i, j)}
        got = set()
        for b in basis:
            got |= b.positions()
        report["matches_orthogonal"] = (len(want) == dim and got <= want)
    except partitions.TailUndetermined:
        report["matches_orthogonal"] = None
    return 0, report, None


def cmd_autos_verify(spec: JobSpec):
    ring = _ring(spec)
    n = spec.window
    if n < 3:
        raise ValueError("autos-verify needs --window >= 3")
    g = UniTriWindow(ring, n, {(1, 2): 1, (2, n): 1})
    kinds = [
        ("flip", autos.Flip()),
        ("field", autos.FieldAut(1)),
        ("diagonal", autos.DiagonalAut(tuple([1, 2] * n)[:n])),
        ("inner", autos.InnerAut(g)),
        ("central", autos.scalar_central(ring, 2, 1)),
        ("extremal-first", autos.ExtremalAut(1, "first")),
        ("extremal-last", autos.ExtremalAut(1, "last")),
    ]
    checks = []
    failures = 0
    for name, aut in kinds:
        if name == "central" and n < 4:
            checks.append({"kind": name, "pass": None,
                           "note": "not applicable: central maps need window >= 4"})
            continue
        images = autos.generator_images(aut, ring, n)
        ok = autos.is_homomorphism(images, ring, n, pairs=120, seed=VERIFY_SEED)
        checks.append({"kind": name, "pass": ok})
        failures += 0 if ok else 1
    report = {"window": n, "ring": ring.to_json(), "checks": checks,
              "failures": failures}
    return 0, report, None


def cmd_padic(spec: JobSpec):
    mu = _diagram(spec)
    rep = padic.dim_sequence_padic(mu, spec.k, spec.N, spec.p, cap=spec.cap)
    rows = [{"n": n, "log_order": int(t * n * n * (n - 1) / 2),
             "a_n": _frac_str(t), "decimal": f"{float(t):.12g}",
             "verified": ver}
            for n, t, ver in rep.rows()]
    report = {"p": spec.p, "k": spec.k, "rows": rows,
              "claimed_zero_limit_discrepancy": rep.discrepancy_flag}
    return 0, report, rep.to_csv()


def cmd_fieldext(spec: JobSpec):
    if spec.f < 2:
        raise ValueError("fieldext needs --f >= 2")
    if spec.window < 2:
        raise ValueError("fieldext needs --window >= 2")
    ctx = fieldext.EmbeddingContext(spec.p, spec.f)
    n = spec.window
    lo, hi = fieldext.sandwich_bounds(spec.f, n)
    e = fieldext.restricted_image_log_order(ctx, n)
    ratio = Fraction(2 * e, n * (n - 1))
    import random
    rng = random.Random(VERIFY_SEED)
    ok = True
    for _ in range(25):
        x = autos.random_window(ctx.ring_q, max(n // spec.f, 2), rng)
        v = valuation(x)
        vp = valuation(fieldext.restrict_scalars(ctx, x))
        if not spec.f * v <= vp < spec.f * (v + 1):
            ok = False
    report = {
        "context": ctx.to_json(),
        "window": n,
        "image_log_order_p": e,
        "image_ratio": _frac_str(ratio),
        "sandwich_low": _frac_str(lo),
        "sandwich_high": _frac_str(hi),
        "sandwich_holds": lo <= ratio <= hi,
        "valuation_relation_holds": ok,
        "extension_image_ratio": _frac_str(fieldext.extension_image_ratio(spec.f)),
    }
    return 0, report, None


HANDLERS = {
    "dim": cmd_dim,
    "normalize": cmd_normalize,
    "word": cmd_word,
    "nottingham": cmd_nottingham,
    "centralizer": cmd_centralizer,
    "autos-verify": cmd_autos_verify,
    "padic": cmd_padic,
    "fieldext": cmd_fieldext,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=3)
    common.add_argument("--f", type=int, default=1)
    common.add_argument("--k", type=int, default=1)
    common.add_argument("--window", type=int, default=6)
    common.add_argument("--N", type=int, default=20)
    common.add_argument("--cap", type=int, default=200_000)
    common.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                        default="text")
    common.add_argument("--out", default=None)
    mu_args = argparse.ArgumentParser(add_help=False)
    mu_args.add_argument("--alpha", default=None,
                         help="rational a/b, decimal, or named constant (pi-inv, e-3)")
    mu_args.add_argument("--partition", default=None,
                         help="partition text like (0^2,1^2|tail=affine:2)")
    mu_args.add_argument("--squares", default=None, help="square list like (3,4);(1,2)")
    mu_args.add_argument("--family", default=None,
                         help="family name:args, e.g. lower-central:2 or rectangular:2,2")

    parser = argparse.ArgumentParser(prog="unitri", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("dim", parents=[common, mu_args])
    sub.add_parser("normalize", parents=[common, mu_args])
    p_word = sub.add_parser("word", parents=[common])
    p_word.add_argument("text", help="word like 'x y x^2 y'")
    p_not = sub.add_parser("nottingham", parents=[common])
    p_not.add_argument("--series", default=None, help="series JSON")
    p_not.add_argument("--gen", default=None, help="generator r:coeff")
    sub.add_parser("centralizer", parents=[common, mu_args])
    sub.add_parser("autos-verify", parents=[common])
    sub.add_parser("padic", parents=[common, mu_args])
    sub.add_parser("fieldext", parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = JobSpec(**{k: v for k, v in vars(args).items() if k in JobSpec.__dataclass_fields__})
    handler = HANDLERS[spec.subcommand]
    try:
        code, report, csv_text = handler(spec)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(spec, report, csv_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
