"""Command-line front end: spec parsing, report emission, and the built-in
worked examples.

Everything on the wire is exact: ratios are "p/q" strings (decimals are
rejected), JSON reports render Fractions the same way, and reports are
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .uvcore import (
    CardinalityPower,
    DiameterPlusOne,
    IntervalUnion,
    LebesguePlusOffset,
    UncertainPair,
    UvinfoError,
    format_ratio,
    ratio,
)

# infocalc, chancap, memoryless and apps are imported inside the functions
# that use them, so each command loads only the layers it runs

# card:<base>:<exp> computes (|S| / base) ** exp exactly, at a cost that grows
# with the exponent without bound; the CLI refuses exponents past this cap
# before any power is built.
CARD_MAX_EXPONENT = 64
# ... and a base whose power base ** exp passes this many bits: such values
# are too long to render as decimal ratios.
CARD_MAX_BITS = 4096


class ParseError(UvinfoError):
    """The input text does not parse (bad JSON, bad ratio, bad spec)."""


class ValidationError(UvinfoError):
    """The input parses but violates a structural invariant."""


# ---------------------------------------------------------------------------
# input parsing


def _parse_ratio(text) -> Fraction:
    try:
        return ratio(text)
    except UvinfoError as exc:
        raise ParseError(str(exc)) from None


def _parse_int(value, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"--{name} must be an integer, got {value!r}") \
            from None


def _refuse_booleans(values, what: str) -> None:
    for v in filter(lambda v: isinstance(v, bool), values):
        raise ParseError(f"a boolean is not a {what}: {v!r}")


def _normalize_symbols(raw: list) -> list:
    """Map JSON symbols to ints when every one is an integer or decimal
    digits after at most one minus sign (so witnesses print as {1, 7, 13}),
    otherwise to strings.  A boolean would read as 1 or 0; it is refused."""
    _refuse_booleans(raw, "symbol")
    if raw and all(isinstance(v, int) or (isinstance(v, str)
                   and v.removeprefix("-").isdecimal()) for v in raw):
        try:
            return [int(v) for v in raw]
        except ValueError:  # more digits than int reads from a string
            pass
    return [str(v) for v in raw]


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from None
    except (ValueError, RecursionError):  # past int's digits or the stack
        raise ParseError("invalid JSON: too many digits or too deep") from None


def parse_channel_spec(text: str):
    """Parse {"map": {input: [outputs...]}, "outputs": [...]} into a Channel.

    Input, image, and alphabet symbols are normalized to ints when all of
    them are integral.  The optional "outputs" field fixes the output
    alphabet; without it the alphabet is the union of the images.
    """
    from . import chancap
    obj = _load_json(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("map"), dict):
        raise ParseError("a channel spec is an object with a 'map' field")
    raw_map = obj["map"]
    stray = set(obj) - {"map", "outputs"}
    if stray:
        raise ParseError(f"unknown channel field {sorted(stray)[0]!r}")
    xs = _normalize_symbols(list(raw_map.keys()))
    seen = {}
    for key, x in zip(raw_map, xs):
        if x in seen:
            raise ValidationError(
                f"input keys {seen[x]!r} and {key!r} both read as {x!r}")
        seen[x] = key
    y_raw = []
    for x, image in zip(xs, raw_map.values()):
        if not isinstance(image, list):
            raise ParseError(f"image of input {x!r} must be a list")
        y_raw.extend(image)
    outputs = obj.get("outputs")
    if outputs is not None:
        if not isinstance(outputs, list) or not outputs:
            raise ParseError("'outputs' must be a nonempty list")
        y_raw.extend(outputs)
    ys = _normalize_symbols(y_raw)
    it = iter(ys)
    mapping = {x: frozenset(next(it) for _ in image)
               for x, image in zip(xs, raw_map.values())}
    try:
        return chancap.Channel.of(
            mapping, y_alphabet=None if outputs is None else tuple(it))
    except UvinfoError as exc:
        raise ValidationError(str(exc)) from None


def parse_pair_spec(text: str):
    """Parse a joint-range spec; returns (pair, default m_x, default m_y).

    Finite: {"kind": "finite", "joint": [[x, y], ...]}.
    Hybrid: {"kind": "hybrid", "cells": {label: [[lo, hi], ...]}}.
    Both accept optional "m_x"/"m_y" uncertainty-spec strings as defaults.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("a pair spec is a JSON object")
    kind = obj.get("kind")
    m_x = parse_m_spec(obj["m_x"]) if "m_x" in obj else None
    m_y = parse_m_spec(obj["m_y"]) if "m_y" in obj else None
    if kind == "finite":
        joint = obj.get("joint")
        if not isinstance(joint, list) or not joint:
            raise ParseError("a finite pair needs a nonempty 'joint' list")
        if any(not isinstance(p, list) or len(p) != 2 for p in joint):
            raise ParseError("'joint' entries are [x, y] pairs")
        xs = _normalize_symbols([p[0] for p in joint])
        ys = _normalize_symbols([p[1] for p in joint])
        return UncertainPair.finite(zip(xs, ys)), m_x, m_y
    if kind == "hybrid":
        cells = obj.get("cells")
        if not isinstance(cells, dict) or not cells:
            raise ParseError("a hybrid pair needs a nonempty 'cells' object")
        built = {}
        for label, pieces in cells.items():
            if not isinstance(pieces, list) or not pieces:
                raise ValidationError(f"empty cell for label {label!r}")
            try:
                built[label] = IntervalUnion.of(
                    (_parse_ratio(lo), _parse_ratio(hi)) for lo, hi in pieces)
            except (TypeError, ValueError):
                raise ParseError(
                    f"cell pieces of {label!r} are [lo, hi] pairs") from None
        try:
            return UncertainPair.hybrid(built), m_x, m_y
        except UvinfoError as exc:
            raise ValidationError(str(exc)) from None
    raise ParseError(f"unknown pair kind {kind!r} (finite or hybrid)")


def parse_m_spec(text: str):
    """Uncertainty functions in compact form: card:<base>[:<exp>],
    leb+<offset>, diam:<normalizer>."""
    t = str(text).strip()
    try:
        if t.startswith("card:"):
            parts = t.split(":")
            if len(parts) not in (2, 3):
                raise ParseError(f"bad cardinality spec {text!r}")
            base = int(parts[1])
            exp = int(parts[2]) if len(parts) == 3 else 1
            if exp > CARD_MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds the cap of "
                                 f"{CARD_MAX_EXPONENT}")
            if base.bit_length() * exp > CARD_MAX_BITS:
                raise ParseError(f"base ** exponent exceeds the cap of "
                                 f"{CARD_MAX_BITS} bits")
            return CardinalityPower(base, exp)
        if t.startswith("leb+"):
            return LebesguePlusOffset(_parse_ratio(t[4:]))
        if t.startswith("diam:"):
            return DiameterPlusOne(_parse_ratio(t[5:]))
    except ValueError:
        raise ParseError(f"non-integer field in {text!r}") from None
    except UvinfoError as exc:
        raise ParseError(f"bad uncertainty spec {text!r}: {exc}") from None
    raise ParseError(
        f"unknown uncertainty spec {text!r}; "
        "use card:<base>[:<exp>], leb+<offset>, or diam:<normalizer>")


def parse_matrix_spec(text: str):
    """Parse {"labels": [...], "entries": [[l1, l2, "p/q"], ...],
    "v_min": "p/q"} into an EquivocationMatrix."""
    from . import apps
    obj = _load_json(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("labels"), list):
        raise ParseError("a matrix spec is an object with a 'labels' list")
    _refuse_booleans(obj["labels"], "label")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise ParseError("'entries' must be a list of [l1, l2, value] rows")
    mapping = {}
    for row in entries:
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError(f"bad matrix entry {row!r}")
        if any(isinstance(label, (list, dict)) for label in row[:2]):
            raise ParseError(f"matrix entry labels are JSON scalars: {row!r}")
        _refuse_booleans(row[:2], "label")
        mapping[(row[0], row[1])] = _parse_ratio(row[2])
    try:
        return apps.EquivocationMatrix.of(
            obj["labels"], mapping, v_min=_parse_ratio(obj.get("v_min", 1)))
    except UvinfoError as exc:
        raise ValidationError(str(exc)) from None


def _read_input(path: str | None, flag: str) -> str:
    """Read the UTF-8 text file given to ``--<flag>``.  A bare name that is
    not a file here falls back to the ``data`` directory beside this module,
    so the shipped fixtures work by name (fig5.json, walkers.json); a path
    with a directory never does.  An unreadable file is a ``ParseError``, and
    so are a missing flag and an empty path."""
    if path is None:
        raise ParseError(f"missing required input --{flag}")
    if not path:
        raise ParseError(f"the path given to --{flag} is empty")
    name = path
    if not os.path.dirname(path) and not os.path.exists(path):
        name = os.path.join(os.path.dirname(__file__), "data", path)
    try:
        with open(name, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input file {path} is not UTF-8 text "
                         f"(byte {exc.start})") from None
    except (FileNotFoundError, ValueError):  # ValueError: a NUL in the path
        raise ParseError(f"no such input file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read input file {path}: {exc.strerror}") \
            from None


# ---------------------------------------------------------------------------
# report plumbing


def _plain(obj):
    """Reduce a report value to JSON-able form with exact ratio strings."""
    if isinstance(obj, Fraction):
        return format_ratio(obj)
    if isinstance(obj, IntervalUnion):
        return [[format_ratio(lo), format_ratio(hi)]
                for lo, hi in obj.pieces]
    if isinstance(obj, frozenset):
        return sorted((_plain(v) for v in obj), key=str)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def _nested(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and any(isinstance(v, dict) for v in value))


def _text_lines(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if _nested(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_inline(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if not isinstance(item, dict):
                lines.append(f"{pad}- {_inline(item)}")
                continue
            flat = "  ".join(f"{k}={_inline(v)}" for k, v in item.items()
                             if not _nested(v))
            lines.append(f"{pad}- {flat}" if flat else f"{pad}-")
            for k, v in item.items():
                if _nested(v):
                    lines.append(f"{pad}  {k}:")
                    lines.extend(_text_lines(v, indent + 2))
    else:
        lines.append(f"{pad}{_inline(obj)}")
    return lines


def _inline(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _emit(payload: dict, fmt: str) -> None:
    payload = _plain(payload)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_text_lines(payload)))


def _family_payload(family) -> dict | None:
    if family is None:
        return None
    return {"regime": family.regime,
            "delta": family.delta,
            "count": family.count,
            "sets": [s for s in family.sets]}


def _certificate_payload(cert) -> dict:
    return {
        "theorem": cert.theorem,
        "notion": cert.notion,
        "codebook": list(cert.codebook),
        "level": cert.level,
        "conditions": [{"name": c.name, "holds": c.holds, "detail": c.detail}
                       for c in cert.conditions],
        "certifies": cert.certifies,
        "capacity_bits": cert.render_bits() if cert.certifies else None,
        "delta_hat": cert.delta_hat,
    }


def _capacity_payload(res) -> dict:
    return {
        "delta": res.delta,
        "count": res.count,
        "bits": res.render_bits(),
        "witness": list(res.witness),
        "per_size": [{"size": k, "feasible": ok}
                     for k, ok in res.per_size_feasibility],
        "thresholds": [{"size": k, "threshold": t}
                       for k, t in res.thresholds],
    }


_MI_STATUS = {"associated": "Associated", "disassociated": "Disassociated",
              "no_family": "Neither"}


# ---------------------------------------------------------------------------
# command handlers (each reads its argparse namespace and returns
# (payload, exit_code))


def _pair_and_measures(args, unread=None):
    """The pair of --pair with its measures: --m-x and --m-y override the
    specs in the pair file, and the measure ``unread`` may be absent."""
    pair, m_x, m_y = parse_pair_spec(_read_input(args.pair, "pair"))
    if args.m_x is not None:
        m_x = parse_m_spec(args.m_x)
    if args.m_y is not None:
        m_y = parse_m_spec(args.m_y)
    if (m_x is None and unread != "m_x") or (m_y is None and unread != "m_y"):
        raise ParseError("uncertainty specs required (flags or pair fields)")
    return pair, m_x, m_y


def _channel_and_measure(args):
    return (parse_channel_spec(_read_input(args.channel, "channel")),
            parse_m_spec(args.m))


def _cmd_analyze(args):
    from . import infocalc
    pair, m_x, m_y = _pair_and_measures(args)
    assoc = infocalc.association_sets(pair, m_x, m_y)
    payload = {
        "command": "analyze",
        "x_marginal": pair.marginal_range("X"),
        "y_marginal": pair.marginal_range("Y"),
        "a_xy": sorted(assoc.a_xy),
        "a_yx": sorted(assoc.a_yx),
    }
    if (args.delta1 is None) != (args.delta2 is None):
        raise ParseError("give both --delta1 and --delta2 or neither")
    if args.delta1 is not None:
        delta1, delta2 = _parse_ratio(args.delta1), _parse_ratio(args.delta2)
        status = infocalc.classify_levels(assoc, delta1, delta2)
        payload["levels"] = {"delta1": delta1, "delta2": delta2,
                             "variant": status.variant,
                             "witness": list(status.witness)}
        if args.taxicab:
            fam = infocalc.taxicab_family(pair, m_x, m_y, delta1, delta2)
            payload["taxicab"] = {
                "exists": fam.exists,
                "count": len(fam.sets),
                "reason": fam.reason,
                "sets": list(fam.sets),
            }
    elif args.taxicab:
        raise ParseError("--taxicab needs --delta1 and --delta2")
    return payload, 0


def _cmd_mi(args):
    from . import infocalc
    # each direction measures only the side it conditions on
    unread = "m_x" if args.direction == "YgivenX" else "m_y"
    if getattr(args, unread) is not None:
        flag = unread.replace("_", "-")
        raise ParseError(f"--direction {args.direction} takes no --{flag}")
    pair, m_x, m_y = _pair_and_measures(args, unread)
    delta = _parse_ratio(args.delta1)
    result = infocalc.mutual_information(pair, m_x, m_y, delta,
                                         args.direction)
    payload = {
        "command": "mi",
        "direction": args.direction,
        "delta": delta,
        "status": _MI_STATUS[result.status],
        "count": result.count,
        "bits": result.render(),
        "family": _family_payload(result.family),
    }
    return payload, 0


def _cmd_capacity(args):
    from . import chancap
    ch, m = _channel_and_measure(args)
    res = chancap.capacity(ch, m, _parse_ratio(args.delta))
    return {"command": "capacity", **_capacity_payload(res)}, 0


def _cmd_rates(args):
    from . import memoryless
    if args.sequence is None and args.n_max is not None:
        raise ParseError("--n-max needs --sequence")
    if args.sequence is not None and (args.delta, args.horizon) != (None, None):
        raise ParseError("--sequence (profile) takes no --delta or --horizon")
    ch, m = _channel_and_measure(args)
    if args.sequence is not None:
        seq = _parse_sequence(args.sequence)
        n_max = 1 if args.n_max is None else _parse_int(args.n_max, "n-max")
        report = memoryless.capacity_profile(ch, m, seq, n_max)
        payload = {
            "command": "rates",
            "rows": [{"horizon": r.horizon, "delta_n": r.delta_n,
                      "count": r.rate.count, "bits": r.rate.render(),
                      "label": r.label} for r in report.rows],
            "inf": {"bits": report.inf_rate.render(),
                    "label": report.inf_label},
            "sup": {"bits": report.sup_rate.render(),
                    "label": report.sup_label},
            "certificates": [_certificate_payload(c)
                             for c in report.certificates],
            "notes": list(report.notes),
        }
        return payload, 0
    if args.delta is None:
        raise ParseError("rates needs --sequence (profile) or --delta")
    n = 1 if args.horizon is None else _parse_int(args.horizon, "horizon")
    delta = _parse_ratio(args.delta)
    rate = memoryless.rate_at_horizon(ch, m, delta, n)
    payload = {"command": "rates", "horizon": n, "delta_n": delta,
               "count": rate.count, "bits": rate.render(),
               "label": f"horizon-{n} bound"}
    return payload, 0


def _parse_sequence(text: str):
    """The ConfidenceSequence of inline JSON (an object, so it starts with
    ``{``) or of a JSON file read by ``_read_input``."""
    from . import memoryless
    if not text.lstrip().startswith("{"):
        text = _read_input(text, "sequence")
    try:
        return memoryless.parse_sequence_spec(_load_json(text))
    except UvinfoError as exc:
        raise ParseError(str(exc)) from None


def _cmd_single_letter(args):
    from . import memoryless
    for name in ("delta1", "delta_bar", "delta_star", "sequence"):
        if (getattr(args, name) is not None
                and name not in memoryless._READS[args.variant]):
            flag = name.replace("_", "-")
            raise ParseError(f"--variant {args.variant} takes no --{flag}")
    if (args.variant == "T14" and args.codebook is None
            and args.delta_star is not None):
        raise ParseError("--variant T14 without --codebook takes no "
                         "--delta-star")
    ch, m = _channel_and_measure(args)
    kwargs = {}
    if args.codebook is not None:
        raw = [s.strip() for s in args.codebook.split(",")]
        kwargs["codebook"] = tuple(_normalize_symbols(raw))
    for name in ("delta1", "delta_bar", "delta_star"):
        if getattr(args, name) is not None:
            kwargs[name] = _parse_ratio(getattr(args, name))
    if args.sequence is not None:
        kwargs["sequence"] = _parse_sequence(args.sequence)
    cert = memoryless.single_letter_check(ch, m, args.variant, **kwargs)
    return {"command": "single-letter", **_certificate_payload(cert)}, 0


def _cmd_verify(args):
    from . import chancap, infocalc, memoryless
    ch, m = _channel_and_measure(args)
    if args.deltas is not None:
        deltas = [_parse_ratio(t) for t in args.deltas.split(",")]
    else:
        _, deltas = chancap._noise_floor_search(ch, m)
    failures = 0
    coding_rows, tensor_rows = [], []
    for row in chancap.verify_coding_theorem(ch, m, deltas).rows:
        coding_rows.append({
            "delta": row.delta, "capacity": row.capacity_count,
            "information_sup": row.sup_count,
            "unrestricted_sup": row.unrestricted_count, "match": row.match})
        failures += 0 if row.match else 1
        cb = row.capacity_witness
        pair = chancap.induced_pair(ch, cb)
        rep = memoryless.tensorization_check([pair, pair], m, row.delta)
        ok = rep.status == "ok"
        tensor_rows.append({"delta": row.delta, "codebook": list(cb),
                            "status": rep.status, "reason": rep.reason,
                            "holds": rep.holds if ok else None,
                            "equality": rep.equality if ok else None})
        failures += 1 if ok and not rep.holds else 0

    pair = chancap.induced_pair(ch, ch.x_symbols)
    m_side = chancap._uniform_x(pair)
    assoc = infocalc.association_sets(pair, m_side, m)
    if assoc.a_xy and assoc.a_yx:
        d1 = min(assoc.a_xy) / 2
        d2 = min(assoc.a_yx) / 2
        lhs = infocalc.mutual_information(pair, m_side, m, d2, "YgivenX")
        rhs = infocalc.mutual_information(pair, m_side, m, d1, "XgivenY")
        tax = infocalc.taxicab_family(pair, m_side, m, d1, d2)
        match = (lhs.count == rhs.count
                 and (not tax.exists or len(tax.sets) == lhs.count))
        symmetry = {"delta1": d1, "delta2": d2, "i_y_given_x": lhs.count,
                    "i_x_given_y": rhs.count,
                    "taxicab": len(tax.sets) if tax.exists else None,
                    "match": match}
        failures += 0 if match else 1
    else:
        symmetry = {"skipped": "a side has no association values"}

    payload = {"command": "verify",
               "coding_theorem": coding_rows,
               "tensorization": tensor_rows,
               "symmetry": symmetry,
               "failures": failures}
    return payload, (1 if failures else 0)


def _cmd_hamming(args):
    from . import apps
    if args.words is not None and args.codebook is not None:
        raise ParseError("give --words or --codebook, not both")
    if args.words is not None:
        words = [w.strip() for w in args.words.split(",")]
    else:
        words = _read_input(args.codebook, "codebook").split()
    cb = [apps.BitString.of(w) for w in words]
    tau = _parse_ratio(args.tau)
    delta = Fraction(0) if args.delta is None else _parse_ratio(args.delta)
    try:
        report = apps.hamming_distance_bound(cb, tau, delta)
    except apps.NotDistinguishable as exc:
        return {"command": "hamming", "distinguishable": False,
                "message": str(exc)}, 1
    payload = {
        "command": "hamming",
        "distinguishable": True,
        "radius": report.radius,
        "threshold": report.threshold,
        "min_distance": report.min_distance,
        "correctable": report.correctable,
        "pairs": [{"x1": str(row.pair[0]), "x2": str(row.pair[1]),
                   "distance": row.distance, "bound": row.bound,
                   "correctable": row.correctable}
                  for row in report.rows],
    }
    return payload, 0


def _cmd_classify(args):
    from . import apps, chancap
    if args.matrix is not None and args.confusion is not None:
        raise ParseError("give --confusion or --matrix, not both")
    delta = _parse_ratio(args.delta)
    if args.matrix is not None:
        em = parse_matrix_spec(_read_input(args.matrix, "matrix"))
        res = apps.matrix_capacity(em, delta)
        return {"command": "classify", "source": "matrix",
                "labels": list(em.labels), "v_min": em.v_min,
                **_capacity_payload(res)}, 0
    text = _read_input(args.confusion, "confusion")
    try:
        ch = apps.confusion_ingest(text)
    except apps.MalformedRow as exc:
        raise ParseError(str(exc)) from None
    m = apps.label_uncertainty(ch)
    res = chancap.capacity(ch, m, delta)
    return {"command": "classify", "source": "confusion",
            "labels": list(ch.x_symbols),
            "images": {str(x): ch.image(x) for x in ch.x_symbols},
            **_capacity_payload(res)}, 0


# ---------------------------------------------------------------------------
# built-in worked examples


def _walkers_case() -> tuple:
    from . import infocalc
    pair, m_x, m_y = parse_pair_spec(_read_input("walkers.json", "pair"))
    assoc = infocalc.association_sets(pair, m_x, m_y)
    checks = [
        ("association X-side", sorted(assoc.a_xy),
         [Fraction(1, 5), Fraction(3, 5)]),
        ("association Y-side", sorted(assoc.a_yx),
         [Fraction(3, 8), Fraction(1, 2)]),
        ("levels (1/6, 1/4)",
         infocalc.classify_levels(assoc, Fraction(1, 6), Fraction(1, 4)).variant,
         "disassociated"),
        ("levels (3/5, 1/2)",
         infocalc.classify_levels(assoc, Fraction(3, 5), Fraction(1, 2)).variant,
         "associated"),
        ("levels (1/4, 1/4)",
         infocalc.classify_levels(assoc, Fraction(1, 4), Fraction(1, 4)).variant,
         "neither"),
        ("information at 1/4 (X side)",
         infocalc.mutual_information(pair, m_x, m_y, Fraction(1, 4),
                                     "XgivenY").status,
         "no_family"),
        ("taxicab at (1/6, 1/4)",
         (lambda f: (f.exists, len(f.sets)))(
             infocalc.taxicab_family(pair, m_x, m_y,
                                     Fraction(1, 6), Fraction(1, 4))),
         (True, 1)),
    ]
    return "walkers afternoon", checks


def _fig5():
    ch = parse_channel_spec(_read_input("fig5.json", "channel"))
    return ch, CardinalityPower(19), CardinalityPower(19, 3)


def _capacity_case() -> tuple:
    from . import chancap
    ch, m1, _ = _fig5()
    checks = []
    for delta, count, witness in ((Fraction(0), 2, (1, 13)),
                                  (Fraction(2, 9), 2, (1, 7)),
                                  (Fraction(4, 9), 3, (1, 7, 13))):
        res = chancap.capacity(ch, m1, delta)
        checks.append((f"capacity at {format_ratio(delta)}",
                       (res.count, res.witness), (count, witness)))
    return "19-symbol channel capacities", checks


def _sup_sequence_case() -> tuple:
    from . import memoryless
    ch, m1, _ = _fig5()
    seq = memoryless.ConfidenceSequence.geometric(
        Fraction(7, 342), first=Fraction(2, 9))
    cert = memoryless.single_letter_check(
        ch, m1, "T12", codebook=(1, 7, 13), delta1=Fraction(2, 9),
        sequence=seq)
    checks = [
        ("certificate level", cert.level, Fraction(1, 6)),
        ("all conditions hold", cert.certifies, True),
        ("certified bits", cert.render_bits() if cert.certifies else None,
         "1"),
    ]
    return "sup-capacity certificate (geometric tail)", checks


def _zero_error_case() -> tuple:
    from . import chancap, memoryless
    ch, m1, _ = _fig5()
    cert = memoryless.single_letter_check(ch, m1, "Cor2", codebook=(1, 7, 13))
    checks = [
        ("all conditions hold", cert.certifies, True),
        ("certified bits", cert.render_bits() if cert.certifies else None,
         "1"),
        ("zero-error count", chancap.capacity(ch, m1, Fraction(0)).count, 2),
    ]
    return "zero-error certificate", checks


def _inf_sequence_case() -> tuple:
    from . import memoryless
    ch, _, m3 = _fig5()
    growth = 3 * Fraction(7, 19) ** 3
    seq = memoryless.ConfidenceSequence.geometric(
        growth, scale=Fraction(1, 27) / growth)
    cert = memoryless.single_letter_check(
        ch, m3, "T13", codebook=(1, 7, 13), delta1=Fraction(1, 27),
        sequence=seq)
    checks = [
        ("delta_hat", cert.delta_hat, Fraction(7, 19) ** 3),
        ("all conditions hold", cert.certifies, True),
        ("certified bits", cert.render_bits() if cert.certifies else None,
         "log2(3)"),
    ]
    return "inf-capacity certificate (cubed uncertainty)", checks


def _vanishing_case() -> tuple:
    from . import memoryless
    ch, _, m3 = _fig5()
    cert = memoryless.single_letter_check(ch, m3, "T14")
    checks = [
        ("codebook", cert.codebook, (1, 7, 13)),
        ("all conditions hold", cert.certifies, True),
        ("certified bits", cert.render_bits() if cert.certifies else None,
         "log2(3)"),
    ]
    return "vanishing-sequence certificate", checks


_EXAMPLE_CASES = (_walkers_case, _capacity_case, _sup_sequence_case,
                  _zero_error_case, _inf_sequence_case, _vanishing_case)


def _cmd_examples(args):
    cases, failures = [], 0
    for name, checks in (case() for case in _EXAMPLE_CASES):
        rows = [{"check": label, "ok": got == want, "got": got, "want": want}
                for label, got, want in checks]
        failures += sum(not row["ok"] for row in rows)
        cases.append({"case": name, "ok": all(row["ok"] for row in rows),
                      "checks": rows})
    payload = {"command": "examples", "cases": cases, "failures": failures}
    return payload, (1 if failures else 0)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def run_command(args: argparse.Namespace) -> int:
    """Execute one parsed command: prints the report, returns the exit code
    (0 success, 1 verification mismatch, 2 input error, 3 internal error).

    Any other exception is a fault of the program, not of the input: it is
    reported on one stderr line and exits 3, never 1, which is reserved for
    a mismatch.  KeyboardInterrupt and SystemExit are not ``Exception``s
    and pass through."""
    try:
        payload, code = args.handler(args)
        _emit(payload, args.format)
    except UvinfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvinfo",
        description="exact non-stochastic information calculations")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    # every command takes --format too, so ``uvinfo capacity ... --format
    # json`` works as well as ``uvinfo --format json capacity ...``;
    # SUPPRESS keeps an untouched command flag from clobbering the global one
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"),
                     default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, parents=[fmt], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("analyze", _cmd_analyze, "association structure of a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--m-x"), p.add_argument("--m-y")
    p.add_argument("--delta1"), p.add_argument("--delta2")
    p.add_argument("--taxicab", action="store_true")

    p = command("mi", _cmd_mi, "delta-mutual information of a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--m-x"), p.add_argument("--m-y")
    p.add_argument("--delta1", required=True)
    p.add_argument("--direction", choices=("XgivenY", "YgivenX"),
                   default="XgivenY")

    p = command("capacity", _cmd_capacity, "(N, delta)-capacity of a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--delta", required=True)

    p = command("rates", _cmd_rates, "block rates / capacity profile")
    p.add_argument("--channel", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--delta"), p.add_argument("--horizon")
    p.add_argument("--sequence"), p.add_argument("--n-max")

    p = command("single-letter", _cmd_single_letter, "capacity certificates")
    p.add_argument("--channel", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--variant", required=True,
                   choices=("T12", "Cor2", "T13", "T14"))
    p.add_argument("--codebook"), p.add_argument("--delta1")
    p.add_argument("--delta-bar"), p.add_argument("--delta-star")
    p.add_argument("--sequence")

    p = command("verify", _cmd_verify,
                "coding-theorem / tensorization / symmetry suites")
    p.add_argument("--channel", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--deltas")

    p = command("hamming", _cmd_hamming, "bit-flip distance bounds")
    p.add_argument("--codebook"), p.add_argument("--words")
    p.add_argument("--tau", required=True)
    p.add_argument("--delta")

    p = command("classify", _cmd_classify,
                "label capacities from confusion data or a matrix")
    p.add_argument("--confusion"), p.add_argument("--matrix")
    p.add_argument("--delta", required=True)

    command("examples", _cmd_examples, "replay the built-in worked examples")
    return parser


def main(argv=None) -> None:
    sys.exit(run_command(_build_parser().parse_args(argv)))


def _process_main() -> None:
    """Run ``main`` as the ``uvinfo`` process.  On every way out the heap
    is frozen, so the full collections of interpreter teardown have nothing
    to walk; atexit handlers and the flushes of stdout and stderr still run.
    ``main`` never freezes: an in-process caller keeps its collector."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    _process_main()
