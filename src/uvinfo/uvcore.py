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

An :class:`UncertainPair` stores a joint range as its sections: each x with
its conditional range [Y|x], a ``frozenset`` on a finite Y ground or an
:class:`IntervalUnion` on an interval one.  Marginal and conditional ranges
are read off them; for the interval axis the pair can also produce its
*arrangement*: the finitely many classes of points with identical
conditional range, which is what makes the downstream calculus finite.

Its readers own the reading of every exact number the library takes:
:func:`ratio` a rational, :func:`level` a delta or a level in its domain,
and :func:`positive_int` a horizon, a size or a length.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union


class UvinfoError(Exception):
    """Base class for all errors raised by this package."""


class PointOutsideRange(UvinfoError):
    """A conditional range was requested at a point outside the marginal."""


class IncompatibleGround(UvinfoError):
    """An uncertainty function was applied to the wrong kind of subset."""


class DeltaOutOfRange(UvinfoError):
    """A delta or a level lies outside its domain, as ``level`` reads it."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


# ---------------------------------------------------------------------------
# frozen records

_set = object.__setattr__


def _refuse(self, name, *value):
    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _frozen(cls=None, *, order=False):
    """Make ``cls`` a frozen record of the fields it annotates, in order,
    with its class-level values as defaults, as ``dataclass(frozen=True)``
    does: ``__init__`` (then ``__post_init__``), ``repr``, equality and a
    hash on the field tuple, and with ``order`` the four comparisons.  The
    methods are closures, so no source is generated or compiled."""
    if cls is None:
        return lambda cls: _frozen(cls, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    tail = tuple(defaults[n] for n in names[len(names) - len(defaults):])
    get, post_init = operator.attrgetter(*names), getattr(cls, "__post_init__", None)
    # the field tuple, which a dataclass hashes
    key = (lambda self: (get(self),)) if len(names) == 1 else get

    def bind(args, kwargs):
        if not kwargs and len(names) - len(tail) <= len(args) < len(names):
            return args + tail[len(args) - len(names):]  # the last fields' defaults
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields {names}; got {len(args)} "
                f"positional arguments and the keywords {sorted(kwargs)}")
        return map(values.__getitem__, names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # one store per field, as a dataclass makes: values stored into the
        # instance dict at once would make every later attribute read slower
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def comparison(op):
        def compare(self, other):
            if other.__class__ is self.__class__:
                return op(get(self), get(other))
            return NotImplemented
        return compare

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, comparison(operator.eq)
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _refuse
    if order:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            setattr(cls, f"__{op.__name__}__", comparison(op))
    return cls


class _CountResult:
    """A result that is an exact count of distinguishable symbols."""

    @property
    def bits(self) -> float:
        return math.log2(self.count)

    def render(self) -> str:
        """The count in bits, exact when it is a power of two."""
        return format_log2(self.count)


# ---------------------------------------------------------------------------
# rationals


def ratio(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string.

    Decimal notation is rejected on purpose: every threshold in the
    calculus is a knife edge, and a float would silently move it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # an int, but no number
        raise UvinfoError(f"a boolean is not a ratio: {value!r}")
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


def level(value, bound=Fraction(1), shown="", closed=False, name="delta") -> Fraction:
    """``value`` as ``ratio`` reads it, in ``[0, bound)``, ``[0, bound]`` when
    ``closed`` or ``[0, oo)`` when ``bound`` is None; outside, the refusal
    shows the bound as ``shown`` spells it, by default its value."""
    v = ratio(value)
    if 0 <= v and (bound is None or v < bound or closed and v == bound):
        return v
    top = "" if bound is None else f" {'<=' if closed else '<'} {shown or format_ratio(bound)}"
    raise DeltaOutOfRange(f"need 0 <= {name}{top}, got {format_ratio(v)}")


def _sorted_symbols(symbols, side: str) -> tuple:
    """The distinct symbols in sorted order: the one reader of the symbols,
    labels and points of channels, codebooks, grounds, pairs and weights."""
    try:
        return tuple(sorted(set(symbols)))
    except TypeError:
        raise UvinfoError(
            f"{side} symbols must be hashable and mutually comparable") from None


def positive_int(value, name: str) -> int:
    """``value`` when it is an int of at least 1; a bool, a float, a string
    or anything else is refused, so that no count is read from them."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise UvinfoError(f"{name} must be a positive integer")


def _items(values, name: str) -> tuple:
    """``values`` as a tuple; anything that is not iterable is refused."""
    try:
        return tuple(values)
    except TypeError:
        raise UvinfoError(f"{name} must be iterable, got {values!r}") from None


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


@_frozen
class IntervalUnion:
    """A finite union of disjoint closed intervals with rational endpoints.

    The canonical form keeps pieces sorted and merged (overlapping or
    touching intervals are coalesced), so equality of values is equality
    of point sets.  Degenerate pieces ``[p, p]`` are allowed.

    Unions speak the subset protocol of ``frozenset``: ``a & b`` is
    :meth:`intersect`, ``a | b`` is :meth:`union`, and a union is true
    exactly when it holds a point, so the empty union is false (a
    degenerate ``[p, p]`` is true).
    """

    pieces: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[Union[int, str, Fraction], Union[int, str, Fraction]]]) -> "IntervalUnion":
        try:
            raw = sorted((ratio(lo), ratio(hi)) for lo, hi in pairs)
        except (TypeError, ValueError):
            raise UvinfoError(
                "an interval union is read from (lo, hi) pairs") from None
        for lo, hi in raw:
            if lo > hi:
                raise UvinfoError(f"interval endpoints out of order: [{lo}, {hi}]")
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
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

    __and__ = intersect
    __or__ = union

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def covers(self, other: "IntervalUnion") -> bool:
        return other.intersect(self) == other

    def endpoints(self) -> list[Fraction]:
        return [p for piece in self.pieces for p in piece]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if not self.pieces:
            return "{}"
        return " u ".join(f"[{format_ratio(lo)}, {format_ratio(hi)}]" for lo, hi in self.pieces)


# ---------------------------------------------------------------------------
# ground sets


@_frozen
class FiniteGround:
    """A finite ground space with distinct, canonically ordered labels."""

    labels: tuple

    @staticmethod
    def of(labels: Iterable) -> "FiniteGround":
        ordered = _sorted_symbols(labels, "ground")
        if not ordered:
            raise UvinfoError("a finite ground needs at least one label")
        return FiniteGround(ordered)

    def __contains__(self, label) -> bool:
        return label in set(self.labels)

    def subset(self, labels: Iterable) -> frozenset:
        try:
            sub = frozenset(labels)
        except TypeError:
            raise UvinfoError("a subset is an iterable of hashable labels") from None
        stray = sub - set(self.labels)
        if stray:
            raise UvinfoError(
                f"labels outside the ground: {list(_sorted_symbols(stray, 'ground'))!r}")
        return sub


@_frozen
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


@_frozen
class CardinalityPower(UncertaintyFunction):
    """``m(S) = (|S| / base_size) ** exponent`` on finite subsets.

    Exponent 1 is the plain normalized counting functional; higher
    exponents keep the product rule over cartesian powers but give up
    subadditivity.  The value depends on ``|S|`` alone, so each size is
    computed once and kept in a per-instance table that takes no part in
    equality, hashing or ``repr``.
    """

    base_size: int
    exponent: int = 1
    kind = "cardinality_power"

    def __post_init__(self) -> None:
        positive_int(self.base_size, "base_size")
        positive_int(self.exponent, "exponent")
        _set(self, "_by_size", {})

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("cardinality uncertainty needs a finite subset")
        return self.of_size(len(subset))

    def of_size(self, size: int) -> Fraction:
        """The uncertainty of any subset with ``size`` elements."""
        value = self._by_size.get(size)
        if value is None:
            value = self._by_size[size] = Fraction(size, self.base_size) ** self.exponent
        return value


@_frozen
class LebesguePlusOffset(UncertaintyFunction):
    """``m(S) = L(S) + offset`` for nonempty interval unions, ``0`` on empty;
    the offset must be positive, or a single point would measure 0."""

    offset: Fraction
    kind = "lebesgue_plus_offset"

    def __post_init__(self) -> None:
        _set(self, "offset", ratio(self.offset))
        if self.offset <= 0:
            raise UvinfoError("offset must be positive")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, IntervalUnion):
            raise IncompatibleGround("Lebesgue uncertainty needs an interval union")
        if subset.is_empty():
            return Fraction(0)
        return subset.measure() + self.offset


def hamming_diameter(points: list, cap: int) -> int:
    """The largest Hamming distance between two bit strings held as
    integers; the scan stops early once it reaches ``cap``, the most any
    pair can differ by."""
    best = 0
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            d = (a ^ b).bit_count()
            if d > best:
                best = d
                if best >= cap:
                    return best
    return best


@_frozen
class DiameterPlusOne(UncertaintyFunction):
    """``m(S) = (diam(S) + 1) / normalizer`` with the Hamming metric.

    Labels must be equal-length 0/1 strings; ``normalizer = n + 1`` makes
    the full hypercube have uncertainty one.
    """

    normalizer: Fraction
    kind = "diameter_plus_one"

    def __post_init__(self) -> None:
        _set(self, "normalizer", ratio(self.normalizer))
        if self.normalizer <= 0:
            raise UvinfoError("normalizer must be positive")

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("diameter uncertainty needs a finite subset")
        if not subset:
            return Fraction(0)
        if not all(isinstance(p, str) and set(p) <= {"0", "1"} for p in subset):
            raise IncompatibleGround("diameter uncertainty needs 0/1 string labels")
        lengths = {len(p) for p in subset}
        if len(lengths) > 1:
            raise UvinfoError("Hamming distance needs equal-length strings")
        # the leading "0" lets the empty string read as the integer 0
        points = [int("0" + p, 2) for p in subset]
        return Fraction(hamming_diameter(points, lengths.pop()) + 1) / self.normalizer


@_frozen
class ExplicitWeights(UncertaintyFunction):
    """``m(S) = sum of per-label weights / normalizer`` (additive)."""

    weights: tuple[tuple[object, Fraction], ...]
    normalizer: Fraction
    kind = "explicit_weights"

    @staticmethod
    def of_mapping(weights: Mapping, normalizer: Union[int, str, Fraction] = 1) -> "ExplicitWeights":
        if not isinstance(weights, Mapping):
            raise UvinfoError(f"weights map each label to a weight, got {weights!r}")
        items = tuple((k, ratio(weights[k])) for k in _sorted_symbols(weights, "weight"))
        return ExplicitWeights(items, ratio(normalizer))

    def __post_init__(self) -> None:
        if self.normalizer <= 0:
            raise UvinfoError("normalizer must be positive")
        if any(w <= 0 for _, w in self.weights):
            raise UvinfoError("weights must be positive")
        _set(self, "_table", dict(self.weights))

    def of(self, subset: GroundSubset) -> Fraction:
        if not isinstance(subset, frozenset):
            raise IncompatibleGround("weighted uncertainty needs a finite subset")
        table = self._table
        missing = [s for s in subset if s not in table]
        if missing:
            raise IncompatibleGround(f"no weight for labels {sorted(map(repr, missing))}")
        return sum((table[s] for s in subset), Fraction(0)) / self.normalizer


# ---------------------------------------------------------------------------
# uncertain pairs


@_frozen
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


@_frozen
class UncertainPair:
    """A joint range, stored as its sections: ``cells`` holds each x of the
    X marginal with its nonempty conditional range [Y|x], in x order.  A
    section is a ``frozenset`` when the Y ground is a :class:`FiniteGround`
    and an :class:`IntervalUnion` when it is an :class:`IntervalGround`.
    """

    x_ground: FiniteGround
    y_ground: GroundSet
    cells: tuple[tuple[object, GroundSubset], ...]

    # -- constructors -------------------------------------------------

    @staticmethod
    def finite(joint: Iterable[tuple], x_ground: FiniteGround | None = None,
               y_ground: FiniteGround | None = None) -> "UncertainPair":
        try:
            pairs = frozenset(joint)
            xs = {x for x, _ in pairs}
        except (TypeError, ValueError):
            raise UvinfoError(
                "a finite joint range is a set of (x, y) pairs") from None
        ys = {y for _, y in pairs}
        if x_ground is None:
            x_ground = FiniteGround.of(xs) if xs else FiniteGround((None,))
        if y_ground is None:
            y_ground = FiniteGround.of(ys) if ys else FiniteGround((None,))
        if not (isinstance(x_ground, FiniteGround) and isinstance(y_ground, FiniteGround)):
            raise UvinfoError("the grounds of a finite pair are FiniteGround values")
        x_labels, y_labels = set(x_ground.labels), set(y_ground.labels)
        sections: dict = {}
        for x, y in pairs:
            if x not in x_labels or y not in y_labels:
                raise UvinfoError(f"joint pair {(x, y)!r} outside the grounds")
            sections.setdefault(x, set()).add(y)
        return UncertainPair(x_ground, y_ground, tuple(
            (x, frozenset(sections[x])) for x in x_ground.labels if x in sections))

    @staticmethod
    def hybrid(cells: Mapping[object, IntervalUnion],
               x_ground: FiniteGround | None = None,
               y_ground: IntervalGround | None = None) -> "UncertainPair":
        if not isinstance(cells, Mapping) or not all(
                isinstance(iu, IntervalUnion) for iu in cells.values()):
            raise UvinfoError("interval cells map each x to an IntervalUnion")
        items = tuple((x, cells[x]) for x in _sorted_symbols(cells, "x"))
        if any(iu.is_empty() for _, iu in items):
            raise UvinfoError("every x must have a nonempty conditional range")
        if x_ground is None:
            x_ground = FiniteGround.of(x for x, _ in items)
        support = IntervalUnion.of(p for _, iu in items for p in iu.pieces)
        if y_ground is None:
            y_ground = IntervalGround(support)
        if not (isinstance(x_ground, FiniteGround) and isinstance(y_ground, IntervalGround)):
            raise UvinfoError("an interval pair's grounds are FiniteGround and IntervalGround")
        if not y_ground.support.covers(support):
            raise UvinfoError("cells extend outside the y ground")
        return UncertainPair(x_ground, y_ground, items)

    # -- basic structure ----------------------------------------------

    @property
    def joint(self) -> Union[frozenset, None]:
        """The ``(x, y)`` pairs of a finite pair; None for an interval pair."""
        if isinstance(self.y_ground, IntervalGround):
            return None
        return frozenset((x, y) for x, section in self.cells for y in section)

    def is_hybrid(self) -> bool:
        return isinstance(self.y_ground, IntervalGround)

    def is_empty(self) -> bool:
        return not self.cells

    # -- ranges --------------------------------------------------------

    def marginal_range(self, side: str) -> GroundSubset:
        """The projection of the joint relation onto one axis."""
        if _normalize_side(side) == "X":
            return frozenset(x for x, _ in self.cells)
        if self.is_hybrid():
            return IntervalUnion.of(p for _, iu in self.cells for p in iu.pieces)
        return frozenset().union(*(section for _, section in self.cells))

    def conditional_range(self, side: str, point) -> GroundSubset:
        """The section of the joint relation at ``point`` on the *other* axis."""
        if _normalize_side(side) == "Y":
            for x, section in self.cells:
                if x == point:
                    return section
            opposite = "X" if self.is_hybrid() else "opposite"
            raise PointOutsideRange(f"{point!r} not in the {opposite} marginal")
        if self.is_hybrid():
            t = ratio(point)
            section = frozenset(x for x, iu in self.cells if iu.contains(t))
            if not section:
                raise PointOutsideRange(f"{format_ratio(t)} not in the Y marginal")
            return section
        # equality, not hashing: an unhashable point lies in no section
        section = frozenset(x for x, ys in self.cells if any(y == point for y in ys))
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
        # (representative, closure): an endpoint is its own closure, an open
        # gap between consecutive endpoints closes onto them
        atoms: list[tuple[Fraction, tuple[Fraction, Fraction]]] = []
        for i, p in enumerate(points):
            atoms.append((p, (p, p)))
            if i + 1 < len(points):
                q = points[i + 1]
                atoms.append(((p + q) / 2, (p, q)))
        groups: dict[frozenset, list] = {}
        for rep, closure in atoms:
            xset = frozenset(x for x, iu in self.cells if iu.contains(rep))
            if xset:
                groups.setdefault(xset, []).append((rep, closure))
        out: list[ArrangementCell] = []
        for xset, members in groups.items():
            multi = len(members) > 1 or any(lo < hi for _, (lo, hi) in members)
            # each class's support is the union of its atoms' closures; the
            # closure of an open gap is safe here because its endpoints
            # carry either the same section (then they merge anyway) or a
            # strictly larger one (supersets only pad the display value).
            support = IntervalUnion.of(closure for _, closure in members)
            reps = tuple(rep for rep, _ in members)
            out.append(ArrangementCell(xset, reps, multi, support))
        out.sort(key=lambda c: c.reps[0])
        return out

    # -- reassembly check ----------------------------------------------

    def reassembles(self) -> bool:
        """The defining identity: the joint equals the union over y of
        ``section(y) x {y}``.  Each stored section [Y|x] is rebuilt as the
        union of the Y classes whose section holds x: the points of a finite
        axis, the arrangement cells' supports on an interval one."""
        if self.is_hybrid():
            classes = [(cell.xset, cell.support) for cell in self.arrangement()]
        else:
            classes = [(self.conditional_range("X", y), frozenset([y]))
                       for y in self.marginal_range("Y")]
        rebuilt: dict = {}
        for xset, support in classes:
            for x in xset:
                rebuilt[x] = rebuilt[x] | support if x in rebuilt else support
        return rebuilt == dict(self.cells)


__all__ = [
    "ArrangementCell",
    "CardinalityPower",
    "DeltaOutOfRange",
    "DiameterPlusOne",
    "ExplicitWeights",
    "FiniteGround",
    "FrozenInstanceError",
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
    "hamming_diameter",
    "ratio",
]
