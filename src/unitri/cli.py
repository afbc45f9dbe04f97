"""Command-line front end.

Subcommands: dim, normalize, nottingham, word, centralizer, autos-verify,
padic, fieldext.  Deterministic throughout (fixed seeds on verification
paths); exact rationals are emitted as num/den strings, decimals are display
columns only.  Exit codes: 0 success (verification failures are data);
2 when argparse rejects the command line (an unknown subcommand, a
non-integer --p, --format xml, an option the subcommand does not read),
with its usage message; 1 when the
computation rejects a parsed value (word --window 0, fieldext --f 40) or
the --out file cannot be written, with one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache

from . import autos, fieldext, freeprod, hausdorff, padic, partitions, series
from .matrices import DEFAULT_CLOSURE_CAP, UniTriWindow, mat_mul, valuation
from .partitions import PartitionDiagram
from .rings import MAX_EXTENSION_DEGREE, MAX_PRIME, Ring

VERIFY_SEED = 95117
# the documented exact range of --N; past it dim's floors outgrow memory
MAX_N = 10 ** 6


def _ring(args: argparse.Namespace) -> Ring:
    if args.f < 1:
        raise ValueError("--f must be >= 1")
    if args.f > MAX_EXTENSION_DEGREE:
        raise ValueError(f"--f must be <= {MAX_EXTENSION_DEGREE}")
    if args.f > 1:
        return Ring.ext_field(args.p, args.f)
    return Ring.prime_field(args.p)


def _parse(option: str, form: str, parse, text: str):
    """parse(text); a value it rejects is an error naming the option and its form."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} wants {form}, not {text!r}") from None


def _window(args: argparse.Namespace) -> int:
    if args.window < 1:
        raise ValueError(f"--window {args.window}: window size must be >= 1")
    return args.window


def _diagram(args: argparse.Namespace) -> PartitionDiagram:
    picked = [v for v in (args.alpha, args.partition, args.squares, args.family) if v]
    if len(picked) != 1:
        raise ValueError("give exactly one of --alpha / --partition / --squares / --family")
    if args.alpha:
        if args.N < 2:
            raise ValueError("--alpha needs --N >= 2")
        alpha = _parse("--alpha", "a/b, a decimal or a named constant (pi-inv, e-3) in [0, 1]",
                       hausdorff.AlphaTarget.parse, args.alpha)
        return hausdorff.partition_for_alpha(alpha, args.N)
    if args.partition:
        return _parse("--partition", "partition text like (0^2,1^2|tail=affine:2)",
                      partitions.parse_partition, args.partition)
    if args.squares:
        sq = _parse("--squares", "a square list like (3,4);(1,2), each (i,j) with "
                    "1 <= i < j <= window", partitions.parse_squares, args.squares)
        window = max(args.window, max(c for _, c in sq))
        return partitions.rect_closure(sq, window)
    name, params = _parse("--family", "name:args, e.g. lower-central:2", _family_args,
                          args.family)
    return partitions.family(name, *params)


def _family_args(text: str):
    name, _, rest = text.partition(":")
    return name, [int(a) for a in rest.split(",")] if rest else []


def _emit(args: argparse.Namespace, report: dict | None, csv_text: str | None) -> None:
    if args.fmt == "json":
        text = _json_text(report) + "\n"
    elif args.fmt == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = _as_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder whose item separator is a newline and the indent of depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _shape(obj):
    """(h, closer) when obj nests non-empty containers h deep with every scalar
    at the bottom, arrays above it and one kind of container on it (dim rows,
    matrix entries, centralizer bases); None otherwise."""
    if isinstance(obj, dict):
        flat = obj and _SCALARS.issuperset(map(type, obj.values()))
        return (1, "}") if flat else None
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    if _SCALARS.issuperset(map(type, obj)):
        return 1, "]"
    below = set(map(_shape, obj))
    if len(below) != 1 or None in below:
        return None
    h, closer = below.pop()
    return h + 1, closer


@lru_cache(maxsize=None)
def _layout(depth: int, h: int, closer: str):
    """For a value of shape (h, closer) at depth: the lines its opening
    brackets become, the bracket runs between its items with their lines
    (outermost first), and the lines of its closing brackets."""
    pads = ["\n" + "  " * (depth + i) for i in range(h + 1)]
    closers, openers = closer + "]" * (h - 1), "[" * (h - 1) + ("{" if closer == "}" else "[")
    close = ["".join(pads[h - 1 - i] + closers[i] for i in range(k)) for k in range(h + 1)]
    open_ = ["".join(openers[j] + pads[j + 1] for j in range(h - k, h)) for k in range(h + 1)]
    swaps = tuple((closers[:k] + "," + pads[h] + openers[-k:],
                   close[k] + "," + pads[h - k] + open_[k]) for k in range(h - 1, 0, -1))
    return open_[h], swaps, close[h]


def _json_text(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2), byte for byte, for JSON values with string keys.

    When obj has a _shape, the C encoder writes it in one call, with a newline
    and the indent of its scalars as the item separator; then each bracket
    moves onto a line of its own (_layout).  Any other container encodes its
    keys and scalars in one call, with a null in the place of each container,
    which it fills by recursion.  All of this rests on one invariant: the C
    encoder escapes every control character inside a string, so a raw
    newline in its output comes only from a separator, and a bracket just
    before a separator closes a container.
    """
    if not isinstance(obj, _CONTAINERS):
        return _encoder(0).encode(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    shape = _shape(obj)
    if shape:
        head, swaps, tail = _layout(depth, *shape)
        text = _encoder(depth + shape[0]).encode(obj)[shape[0]:-shape[0]]
        for old, new in swaps:
            text = text.replace(old, new)
        return head + text + tail
    values = obj.values() if isinstance(obj, dict) else obj
    stub = [None if isinstance(v, _CONTAINERS) else v for v in values]
    if values is not obj:
        stub = dict(zip(obj, stub))
    text = _encoder(0).encode(stub)
    items = [e[:-4] + _json_text(v, depth + 1) if isinstance(v, _CONTAINERS) else e
             for e, v in zip(text[1:-1].split(",\n"), values)]
    pad = "\n" + "  " * depth
    return text[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + text[-1]


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

def cmd_dim(args: argparse.Namespace):
    if args.N < 2:
        raise ValueError("dim needs --N >= 2")
    mu = _diagram(args)
    seq = hausdorff.dim_sequence_partition(mu, args.N)
    count = mu.count_upto(args.N)
    if args.fmt == "csv":
        return None, seq.to_csv() + f"# count_at_{args.N},{count}\n"
    rows = []
    parts = mu.heights() if mu.is_partition() else None
    for n, a_n in seq.rows():
        row = {"n": n}
        if parts is not None and n - 2 < len(parts):
            row["mu_n"] = parts[n - 2]
        row.update(count=mu.count_upto(n), a_n=_frac_str(a_n), decimal=f"{float(a_n):.12g}")
        rows.append(row)
    est = seq.limit_estimate()
    report = {"input": _describe_mu(args, mu), "N": args.N, "rows": rows, "count_at_N": count,
              "limit_estimate": None if est is None else _frac_str(est)}
    return report, None


def _describe_mu(args, mu):
    for name in ("alpha", "partition", "squares", "family"):
        val = getattr(args, name)
        if val:
            return {name: val}
    return {"window": mu.window}


def cmd_normalize(args: argparse.Namespace):
    mu = _diagram(args)
    if not isinstance(mu, partitions.Partition):
        mu = mu.max_subpartition()
    out = hausdorff.monotone_normalize(mu)
    report = {
        "input_parts": list(mu.parts),
        "normalized": partitions.format_partition(out),
        "is_normal": out.is_normal(),
    }
    return report, None


def cmd_word(args: argparse.Namespace):
    if not args.text:
        raise ValueError("word subcommand needs word text")
    n = _window(args)
    w = _parse("word text", "letters x and y with integer exponents, like 'x y^2 x^-1'",
               lambda t: freeprod.Word.parse(t, args.p), args.text)
    x = freeprod.embed_word(w, n)
    report = {"word": w.format(), "p": args.p, "window": n,
              "matrix": x.to_json()}
    try:
        l, case = freeprod.read_word_length(x)
        report["length"] = l
        report["case"] = case
    except ValueError as exc:
        report["length"] = None
        report["note"] = str(exc)
    return report, None


def cmd_nottingham(args: argparse.Namespace):
    n = _window(args)
    ring = _ring(args)
    degree = max(n, 2)
    if args.series:
        try:
            u = series.SeriesAut.from_json(json.loads(args.series))
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
            raise ValueError('--series wants a JSON object {"q": ring, "coeffs": [...]}') from None
        ring = u.ring
        if u.degree < n:
            raise ValueError(f"--series has degree {u.degree}, below --window {n}")
    elif args.gen:
        r_text, _, a_text = args.gen.partition(":")
        try:
            r, alpha = int(r_text), ring.elem(a_text or "1")
        except ValueError:
            raise ValueError(f"--gen wants r:coeff, e.g. 1:2 or 1:0,1, not {args.gen!r}") from None
        if r < 1:
            raise ValueError(f"--gen wants r >= 1 in r:coeff, not {args.gen!r}")
        if r >= degree:
            raise ValueError(f"--gen wants r < {degree} in r:coeff at --window {n}, "
                             f"not {args.gen!r}")
        u = series.generator(ring, r, alpha, degree)
    else:
        raise ValueError("give --series JSON or --gen r:coeff")
    mat = series.series_matrix(u, n)
    vinv = series.invert(u)
    report = {
        "series": u.to_json(),
        "matrix": mat.to_json(),
        "inverse_coeffs": [ring.format_value(c) for c in vinv.coeffs],
        # the printed inverse's matrix must invert the printed matrix; compose
        # then reuses it, and substitution checks the inverse independently
        "first_row_determined": mat_mul(mat, series.series_matrix(vinv, n)).is_identity(),
        "inverse_verified": series.compose(u, vinv) == series.identity_series(u.ring, u.degree),
    }
    return report, None


def cmd_centralizer(args: argparse.Namespace):
    n = _window(args)
    ring = _ring(args)
    mu = _diagram(args)
    gens = partitions.subgroup_generators(mu, ring, n)
    dim, basis = fieldext.centralizer_solve(gens, ring, n)
    report = {
        "window": n,
        "ring": ring.to_json(),
        "log_order": dim,
        "basis": [b.json_entries() for b in basis],
    }
    # re-windowed to n, the orthogonal diagram covers the whole window
    perp = mu.materialize(max(n, mu.window)).orthogonal()
    want = {(i, j) for i in range(1, n + 1)
            for j in range(i + 1, n + 1) if perp.has_square(i, j)}
    report["matches_orthogonal"] = (len(want) == dim and all(
        (i, j) in want for b in basis for i, row in b.rows().items() for j in row))
    return report, None


def cmd_autos_verify(args: argparse.Namespace):
    ring = _ring(args)
    n = args.window
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
    return report, None


def cmd_padic(args: argparse.Namespace):
    if args.cap < 1:
        raise ValueError("padic needs --cap >= 1")
    if args.cap > DEFAULT_CLOSURE_CAP:
        raise ValueError(f"padic needs --cap <= {DEFAULT_CLOSURE_CAP}")
    if args.k < 0:
        raise ValueError("padic needs --k >= 0")
    if args.N < 2:
        raise ValueError("padic needs --N >= 2")
    mu = _diagram(args)
    rep = padic.dim_sequence_padic(mu, args.k, args.N, args.p, cap=args.cap)
    if args.fmt == "csv":
        return None, rep.to_csv()
    rows = [{"n": n, "log_order": log_order, "a_n": _frac_str(a_n),
             "decimal": f"{float(a_n):.12g}", "verified": ver}
            for n, log_order, a_n, ver in rep.rows()]
    report = {"p": args.p, "k": args.k, "rows": rows,
              "claimed_zero_limit_discrepancy": rep.discrepancy_flag}
    return report, None


def cmd_fieldext(args: argparse.Namespace):
    if not 2 <= args.f <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"fieldext needs 2 <= --f <= {MAX_EXTENSION_DEGREE}")
    if args.window < 2:
        raise ValueError("fieldext needs --window >= 2")
    ctx = fieldext.EmbeddingContext(args.p, args.f)
    n = args.window
    lo, hi = fieldext.sandwich_bounds(args.f, n)
    e = fieldext.restricted_image_log_order(ctx, n)
    ratio = Fraction(2 * e, n * (n - 1))
    rng = random.Random(VERIFY_SEED)
    ok = True
    for _ in range(25):
        x = autos.random_window(ctx.ring_q, max(n // args.f, 2), rng)
        v = valuation(x)
        vp = valuation(fieldext.restrict_scalars(ctx, x))
        if not args.f * v <= vp < args.f * (v + 1):
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
        "extension_image_ratio": _frac_str(fieldext.extension_image_ratio(args.f)),
    }
    return report, None


# each handler returns (report, csv_text): the CSV text alone for a
# subcommand with its own CSV form under --format csv, the report otherwise
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


# the options each handler reads besides --format and --out; a diagram reads
# --N for --alpha and --window for --squares
OPTIONS = {
    "p": dict(type=int, default=3),
    "f": dict(type=int, default=1),
    "k": dict(type=int, default=1),
    "window": dict(type=int, default=6),
    "N": dict(type=int, default=20),
    "cap": dict(type=int, default=padic.DEFAULT_IDEAL_CLOSURE_CAP),
}
READS = {
    "dim": ("window", "N"),
    "normalize": ("window", "N"),
    "word": ("p", "window"),
    "nottingham": ("p", "f", "window"),
    "centralizer": ("p", "f", "window", "N"),
    "autos-verify": ("p", "f", "window"),
    "padic": ("p", "k", "window", "N", "cap"),
    "fieldext": ("p", "f", "window"),
}
DIAGRAM_COMMANDS = ("dim", "normalize", "centralizer", "padic")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it as it was.

    Each subcommand takes only the options its handler reads, each by its
    full name, so any other option exits 2: with abbreviations on, dim's
    --p would silently read as --partition.
    """
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                        default="text")
    output.add_argument("--out", default=None)
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
    subs = {}
    for name, reads in READS.items():
        parents = [output, mu_args] if name in DIAGRAM_COMMANDS else [output]
        subs[name] = sub.add_parser(name, parents=parents, allow_abbrev=False)
        for opt in reads:
            subs[name].add_argument(f"--{opt}", **OPTIONS[opt])
    subs["word"].add_argument("text", help="word like 'x y x^2 y'")
    subs["nottingham"].add_argument("--series", default=None, help="series JSON")
    subs["nottingham"].add_argument("--gen", default=None, help="generator r:coeff")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "p" in vars(args):
            _parse("--p", f"an odd prime up to {MAX_PRIME}", Ring.prime_field, args.p)
        if vars(args).get("N", 0) > MAX_N:
            raise ValueError(f"--N {args.N}: N must be <= {MAX_N}, the exact range")
        _emit(args, *HANDLERS[args.subcommand](args))
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
