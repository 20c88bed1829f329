"""Ground spaces, uncertainty functions, and uncertain pairs.

Everything in this module is exact: set sizes, interval lengths and all
derived quantities are :class:`fractions.Fraction` values, so downstream
comparisons against thresholds are knife-edge-safe.

Two kinds of ground space are supported:

* finite spaces, whose subsets are ``frozenset`` values over the ground's
  labels, and
* one-dimensional interval spaces, whose subsets are
  :class:`IntervalUnion` values (disjoint closed intervals with rational
  endpoints).

An :class:`UncertainPair` stores a joint range as a finite relation
(finite x finite) or as finitely many ``(x, interval-union)`` cells
(finite x interval).  Marginal and conditional ranges are sections of the
stored relation; for the interval axis the pair can also produce its
*arrangement*: the finitely many classes of points with identical
conditional range, which is what makes the downstream calculus finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


class UvinfoError(Exception):
    """Base class for all errors raised by this package."""


class PointOutsideRange(UvinfoError):
    """A conditional range was requested at a point outside the marginal."""


class IncompatibleGround(UvinfoError):
    """An uncertainty function was applied to the wrong kind of subset."""


# ---------------------------------------------------------------------------
# rationals


def ratio(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string.

    Decimal notation is rejected on purpose: every threshold in the
    calculus is a knife edge, and a float would silently move it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise UvinfoError(f"decimal notation is not exact: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UvinfoError(f"not a valid ratio: {value!r}") from exc
    raise UvinfoError(f"not a valid ratio: {value!r}")


def format_ratio(value: Fraction) -> str:
    """Render a Fraction canonically as ``p`` or ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_log2(count: int, horizon: int = 1) -> str:
    """Render ``log2(count) / horizon`` bits exactly: ``k`` or ``p/q`` when
    the count is a power of two, otherwise ``log2(count)[/horizon]``."""
    if count & (count - 1) == 0:
        return format_ratio(Fraction(count.bit_length() - 1, horizon))
    return f"log2({count})" if horizon == 1 else f"log2({count})/{horizon}"


# ---------------------------------------------------------------------------
# interval unions


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint closed intervals with rational endpoints.

    The canonical form keeps pieces sorted and merged (overlapping or
    touching intervals are coalesced), so equality of values is equality
    of point sets.  Degenerate pieces ``[p, p]`` are allowed.
    """

    pieces: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[Union[int, str, Fraction], Union[int, str, Fraction]]]) -> "IntervalUnion":
        raw = sorted((ratio(lo), ratio(hi)) for lo, hi in pairs)
        for lo, hi in raw:
            if lo > hi:
                raise UvinfoError(f"interval endpoints out of order: [{lo}, {hi}]")
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        return IntervalUnion(tuple(merged))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    def is_empty(self) -> bool:
        return not self.pieces

    def measure(self) -> Fraction:
        """Total Lebesgue length of the union."""
        return sum((hi - lo for lo, hi in self.pieces), Fraction(0))

    def contains(self, point: Fraction) -> bool:
        return any(lo <= point <= hi for lo, hi in self.pieces)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out: list[tuple[Fraction, Fraction]] = []
        for alo, ahi in self.pieces:
            for blo, bhi in other.pieces:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalUnion.of(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.of(list(self.pieces) + list(other.pieces))

    def covers(self, other: "IntervalUnion") -> bool:
        return other.intersect(self) == other

    def endpoints(self) -> list[Fraction]:
        out: list[Fraction] = []
        for lo, hi in self.pieces:
            out.append(lo)
            out.append(hi)
        return out

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if not self.pieces:
            return "{}"
        return " u ".join(f"[{format_ratio(lo)}, {format_ratio(hi)}]" for lo, hi in self.pieces)


# ---------------------------------------------------------------------------
# ground sets


@dataclass(frozen=True)
class FiniteGround:
    """A finite ground space with distinct, canonically ordered labels."""

    labels: tuple

    @staticmethod
    def of(labels: Iterable) -> "FiniteGround":
        ordered = tuple(sorted(set(labels)))
        if not ordered:
            raise UvinfoError("a finite ground needs at least one label")
        return FiniteGround(ordered)

    def __contains__(self, label) -> bool:
        return label in set(self.labels)

    def subset(self, labels: Iterable) -> frozenset:
        sub = frozenset(labels)
        stray = sub - set(self.labels)
        if stray:
            raise UvinfoError(f"labels outside the ground: {sorted(stray)!r}")
        return sub


@dataclass(frozen=True)
class IntervalGround:
    """A one-dimensional ground space: a closed interval union."""

    support: IntervalUnion

    @staticmethod
    def of(pairs: Iterable[tuple]) -> "IntervalGround":
        support = IntervalUnion.of(pairs)
        if support.is_empty():
            raise UvinfoError("an interval ground needs nonempty support")
        return IntervalGround(support)


GroundSet = Union[FiniteGround, IntervalGround]
GroundSubset = Union[frozenset, IntervalUnion]


# ---------------------------------------------------------------------------
# uncertainty functions


class UncertaintyFunction:
    """A rational-valued set functional: zero on the empty set, positive and
    finite elsewhere, and strongly transitive
    (``max(m(S1), m(S2)) <= m(S1 | S2)``)."""

    kind: str

    def of(self, subset: GroundSubset) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class CardinalityPower(UncertaintyFunction):
    """``m(S) = (|S| / base_size) ** exponent`` on finite subsets.

    Exponent 1 is the plain normalized counting functional; higher
    exponents keep the product rule over cartesian powers but give up
    subadditivity.
    """

    base_size: int
    exponent: int = 1
    kind: str = field(default="cardinality_power", init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_size <= 0 or self.exponent <= 0:
            raise UvinfoError("base_size and exponent must be positive")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("cardinality uncertainty needs a finite subset")
        return Fraction(len(subset), self.base_size) ** self.exponent


@dataclass(frozen=True)
class LebesguePlusOffset(UncertaintyFunction):
    """``m(S) = L(S) + offset`` for nonempty interval unions, ``0`` on empty."""

    offset: Fraction
    kind: str = field(default="lebesgue_plus_offset", init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", ratio(self.offset))
        if self.offset < 0:
            raise UvinfoError("offset must be nonnegative")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, IntervalUnion):
            raise IncompatibleGround("Lebesgue uncertainty needs an interval union")
        if subset.is_empty():
            return Fraction(0)
        return subset.measure() + self.offset


def hamming_distance(a: str, b: str) -> int:
    if len(a) != len(b):
        raise UvinfoError("Hamming distance needs equal-length strings")
    return sum(1 for ca, cb in zip(a, b) if ca != cb)


@dataclass(frozen=True)
class DiameterPlusOne(UncertaintyFunction):
    """``m(S) = (diam(S) + 1) / normalizer`` with the Hamming metric.

    Labels must be equal-length 0/1 strings; ``normalizer = n + 1`` makes
    the full hypercube have uncertainty one.
    """

    normalizer: Fraction
    kind: str = field(default="diameter_plus_one", init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "normalizer", ratio(self.normalizer))
        if self.normalizer <= 0:
            raise UvinfoError("normalizer must be positive")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("diameter uncertainty needs a finite subset")
        if not subset:
            return Fraction(0)
        if not all(isinstance(p, str) for p in subset):
            raise IncompatibleGround("diameter uncertainty needs 0/1 string labels")
        points = sorted(subset)
        diam = 0
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                d = hamming_distance(a, b)
                if d > diam:
                    diam = d
        return Fraction(diam + 1) / self.normalizer


@dataclass(frozen=True)
class ExplicitWeights(UncertaintyFunction):
    """``m(S) = sum of per-label weights / normalizer`` (additive)."""

    weights: tuple[tuple[object, Fraction], ...]
    normalizer: Fraction
    kind: str = field(default="explicit_weights", init=False, repr=False)

    @staticmethod
    def of_mapping(weights: Mapping, normalizer: Union[int, str, Fraction] = 1) -> "ExplicitWeights":
        items = tuple(sorted((label, ratio(w)) for label, w in weights.items()))
        return ExplicitWeights(items, ratio(normalizer))

    def __post_init__(self) -> None:
        if self.normalizer <= 0:
            raise UvinfoError("normalizer must be positive")
        if any(w <= 0 for _, w in self.weights):
            raise UvinfoError("weights must be positive")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("weighted uncertainty needs a finite subset")
        table = dict(self.weights)
        missing = [s for s in subset if s not in table]
        if missing:
            raise IncompatibleGround(f"no weight for labels {sorted(map(repr, missing))}")
        return sum((table[s] for s in subset), Fraction(0)) / self.normalizer


def uncertainty_of(m: UncertaintyFunction, subset: GroundSubset) -> Fraction:
    """Apply an uncertainty function to a ground subset (exact Fraction)."""
    return m.of(subset)


# ---------------------------------------------------------------------------
# uncertain pairs


@dataclass(frozen=True)
class ArrangementCell:
    """One class of interval-axis points sharing a conditional range.

    ``reps`` holds one rational representative per maximal piece of the
    class; ``multi_point`` records whether the class contains at least two
    distinct points (a positive-length piece, or several pieces), which is
    what lets two *distinct* points of the class form an association pair.
    """

    xset: frozenset
    reps: tuple[Fraction, ...]
    multi_point: bool
    support: IntervalUnion


def _normalize_side(side: str) -> str:
    s = str(side).upper()
    if s not in ("X", "Y"):
        raise UvinfoError(f"side must be 'X' or 'Y', got {side!r}")
    return s


@dataclass(frozen=True)
class UncertainPair:
    """A joint range.

    * finite x finite: ``joint`` is a frozenset of ``(x, y)`` pairs.
    * finite x interval: ``cells`` maps each x to its conditional
      interval union (the y-section), and ``joint`` is ``None``.
    """

    x_ground: FiniteGround
    y_ground: GroundSet
    joint: Union[frozenset, None]
    cells: Union[tuple[tuple[object, IntervalUnion], ...], None]

    # -- constructors -------------------------------------------------

    @staticmethod
    def finite(joint: Iterable[tuple], x_ground: FiniteGround | None = None,
               y_ground: FiniteGround | None = None) -> "UncertainPair":
        pairs = frozenset(joint)
        xs = {x for x, _ in pairs}
        ys = {y for _, y in pairs}
        if x_ground is None:
            x_ground = FiniteGround.of(xs) if xs else FiniteGround((None,))
        if y_ground is None:
            y_ground = FiniteGround.of(ys) if ys else FiniteGround((None,))
        for x, y in pairs:
            if x not in x_ground or y not in y_ground:
                raise UvinfoError(f"joint pair {(x, y)!r} outside the grounds")
        return UncertainPair(x_ground, y_ground, pairs, None)

    @staticmethod
    def hybrid(cells: Mapping[object, IntervalUnion],
               x_ground: FiniteGround | None = None,
               y_ground: IntervalGround | None = None) -> "UncertainPair":
        items = tuple(sorted(cells.items(), key=lambda kv: kv[0]))
        if any(iu.is_empty() for _, iu in items):
            raise UvinfoError("every x must have a nonempty conditional range")
        if x_ground is None:
            x_ground = FiniteGround.of(x for x, _ in items)
        support = IntervalUnion.empty()
        for _, iu in items:
            support = support.union(iu)
        if y_ground is None:
            y_ground = IntervalGround(support)
        elif not y_ground.support.covers(support):
            raise UvinfoError("cells extend outside the y ground")
        return UncertainPair(x_ground, y_ground, None, items)

    # -- basic structure ----------------------------------------------

    def is_hybrid(self) -> bool:
        return self.cells is not None

    def is_empty(self) -> bool:
        if self.is_hybrid():
            return not self.cells
        return not self.joint

    # -- ranges --------------------------------------------------------

    def marginal_range(self, side: str) -> GroundSubset:
        """The projection of the joint relation onto one axis."""
        s = _normalize_side(side)
        if self.is_hybrid():
            if s == "X":
                return frozenset(x for x, _ in self.cells)
            support = IntervalUnion.empty()
            for _, iu in self.cells:
                support = support.union(iu)
            return support
        if s == "X":
            return frozenset(x for x, _ in self.joint)
        return frozenset(y for _, y in self.joint)

    def conditional_range(self, side: str, point) -> GroundSubset:
        """The section of the joint relation at ``point`` on the *other* axis."""
        s = _normalize_side(side)
        if self.is_hybrid():
            if s == "Y":
                for x, iu in self.cells:
                    if x == point:
                        return iu
                raise PointOutsideRange(f"{point!r} not in the X marginal")
            t = ratio(point)
            section = frozenset(x for x, iu in self.cells if iu.contains(t))
            if not section:
                raise PointOutsideRange(f"{format_ratio(t)} not in the Y marginal")
            return section
        if s == "Y":
            section = frozenset(y for x, y in self.joint if x == point)
        else:
            section = frozenset(x for x, y in self.joint if y == point)
        if not section:
            raise PointOutsideRange(f"{point!r} not in the opposite marginal")
        return section

    # -- arrangement of the interval axis ------------------------------

    def arrangement(self) -> list[ArrangementCell]:
        """Classes of interval-axis points with identical conditional range.

        Atoms are the endpoint singletons and the open gaps between
        consecutive endpoints; atoms with the same x-section are grouped
        into one cell (contiguity is irrelevant downstream — only the
        section and whether the class holds two distinct points matter).
        """
        if not self.is_hybrid():
            raise UvinfoError("arrangement is defined for interval pairs only")
        points = sorted({p for _, iu in self.cells for p in iu.endpoints()})
        atoms: list[tuple[Fraction, bool]] = []  # (representative, is_open_gap)
        for i, p in enumerate(points):
            atoms.append((p, False))
            if i + 1 < len(points):
                q = points[i + 1]
                atoms.append(((p + q) / 2, True))
        groups: dict[frozenset, list[tuple[Fraction, bool]]] = {}
        for rep, is_gap in atoms:
            xset = frozenset(x for x, iu in self.cells if iu.contains(rep))
            if xset:
                groups.setdefault(xset, []).append((rep, is_gap))
        out: list[ArrangementCell] = []
        for xset, members in groups.items():
            multi = len(members) > 1 or any(is_gap for _, is_gap in members)
            support = IntervalUnion.empty()
            # rebuild each class's support from the atoms' closures; the
            # closure of an open gap is safe here because its endpoints
            # carry either the same section (then they merge anyway) or a
            # strictly larger one (supersets only pad the display value).
            for rep, is_gap in members:
                if is_gap:
                    lo = max(p for p in points if p < rep)
                    hi = min(p for p in points if p > rep)
                    support = support.union(IntervalUnion.of([(lo, hi)]))
                else:
                    support = support.union(IntervalUnion.of([(rep, rep)]))
            reps = tuple(rep for rep, _ in members)
            out.append(ArrangementCell(xset, reps, multi, support))
        out.sort(key=lambda c: c.reps[0])
        return out

    # -- reassembly check ----------------------------------------------

    def reassembles(self) -> bool:
        """The defining identity: the joint equals the union over y of
        ``section(y) x {y}`` (checked per arrangement cell for interval
        pairs)."""
        if self.is_empty():
            return True
        if not self.is_hybrid():
            rebuilt = set()
            for y in self.marginal_range("Y"):
                for x in self.conditional_range("X", y):
                    rebuilt.add((x, y))
            return rebuilt == set(self.joint)
        for x, iu in self.cells:
            for cell in self.arrangement():
                hit = not cell.support.intersect(iu).is_empty()
                if (x in cell.xset) != hit and not cell.multi_point:
                    # single-point classes must agree exactly
                    return False
        # every cell section must list exactly the x's whose stored cell
        # contains the representative
        for cell in self.arrangement():
            for rep in cell.reps:
                if self.conditional_range("X", rep) != cell.xset:
                    return False
        return True


__all__ = [
    "ArrangementCell",
    "CardinalityPower",
    "DiameterPlusOne",
    "ExplicitWeights",
    "FiniteGround",
    "GroundSet",
    "GroundSubset",
    "IncompatibleGround",
    "IntervalGround",
    "IntervalUnion",
    "LebesguePlusOffset",
    "PointOutsideRange",
    "UncertainPair",
    "UncertaintyFunction",
    "UvinfoError",
    "format_ratio",
    "hamming_distance",
    "ratio",
    "uncertainty_of",
]
