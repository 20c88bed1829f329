"""Association levels, overlap families, mutual information, and taxicab symmetry.

The calculus here is entirely finite: an :class:`~uvinfo.uvcore.UncertainPair`
is reduced to its distinct conditional ranges (with multiplicities), and every
definition — association sets, delta-connected components, overlap families,
the taxicab relation on the joint range — is evaluated by exact rational
comparison on that reduction.

A pair stores the conditional ranges [Y|x]; a finite pair's ranges [X|y] are
read off them in one pass, an interval pair's X side from its arrangement.
A side's family changes only at 0 and at its largest association value: the
components (or none) below the least value, none up to the largest, the
distinct ranges from it up.  ``_SideLevels`` is the one owner of that rule:
it reads a side once for every level that ``overlap_family``, the
information oracle and the certificates ask for.
Finite (``frozenset``) and interval (:class:`~uvinfo.uvcore.IntervalUnion`)
subsets share one algebra, ``&``, ``|`` and truthiness (nonempty is true), so
only sorting asks which kind of ground a subset lives on.

Conventions that matter and are easy to get wrong:

* Association pairs range over distinct *points* of the marginal, not over
  distinct conditional ranges.  Two distinct points with the same conditional
  range contribute that range's self-overlap (this is what puts 3/5 in the
  walkers' association set).
* Connectivity is strict (``> delta * m(marginal)``); association is weak
  (``<= delta``).  A ratio exactly equal to delta therefore associates but
  does not connect.
* An empty association set passes every "associated" comparison and fails
  every "disassociated" one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional

from .uvcore import (
    IntervalUnion,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    _CountResult,
    _frozen,
    _normalize_side,
    format_ratio,
    level,
)


class EmptyPair(UvinfoError):
    """The joint range is empty; association sets are undefined."""


class NotDisassociated(UvinfoError):
    """Components were requested at a level where they are ill-defined."""


# ---------------------------------------------------------------------------
# side profiles: distinct conditional ranges with point multiplicities


class _SideProfile:
    """Distinct conditional ranges of one side, each with the number of
    opposite-axis points (capped at 2) that produce it.  Built once per
    side read and never compared or hashed, so it is a plain slotted class,
    not a frozen record."""

    __slots__ = ("side", "marginal", "ranges", "counts")

    def __init__(self, side: str, marginal, ranges: tuple, counts: tuple):
        self.side, self.marginal = side, marginal
        self.ranges, self.counts = ranges, counts

    def pairs_with_overlap(self):
        for (i, a), (j, b) in combinations(enumerate(self.ranges), 2):
            inter = a & b
            if inter:
                yield i, j, inter


def _subset_sort_key(s):
    if isinstance(s, frozenset):
        return tuple(sorted(s))
    return tuple(s.pieces)


def _sections(pair: UncertainPair, side: str) -> dict:
    """The conditional ranges of ``side``, keyed by their opposite point: the
    stored sections [Y|x], or a finite pair's [X|y] read off them in one pass
    (an interval pair's X side goes through the arrangement instead)."""
    if side == "Y":
        return dict(pair.cells)
    sections: dict = {}
    for x, section in pair.cells:
        for y in section:
            sections.setdefault(y, set()).add(x)
    return {y: frozenset(xs) for y, xs in sections.items()}


def side_profile(pair: UncertainPair, side: str) -> _SideProfile:
    side = _normalize_side(side)
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    marginal = pair.marginal_range(side)
    if pair.is_hybrid() and side == "X":
        cells = pair.arrangement()
        ranges = [c.xset for c in cells]
        counts = [2 if c.multi_point else 1 for c in cells]
    else:
        groups: dict = {}
        for rng in _sections(pair, side).values():
            groups[rng] = min(2, groups.get(rng, 0) + 1)
        ranges, counts = list(groups), list(groups.values())
    order = sorted(range(len(ranges)), key=lambda i: _subset_sort_key(ranges[i]))
    return _SideProfile(side, marginal, tuple(ranges[i] for i in order),
                        tuple(counts[i] for i in order))


def _association_values(profile: _SideProfile, m: UncertaintyFunction) -> frozenset:
    # few overlaps differ in measure, so each distinct one is normalized once
    overlaps = {m.of(inter) for _, _, inter in profile.pairs_with_overlap()}
    overlaps.update(m.of(rng) for rng, count in zip(profile.ranges, profile.counts)
                    if count >= 2)
    total = m.of(profile.marginal)
    return frozenset(value / total for value in overlaps)


# ---------------------------------------------------------------------------
# association sets and level classification


@_frozen
class AssociationSets:
    """The nonzero normalized overlaps between conditional-range pairs,
    in both orientations."""

    a_xy: frozenset
    a_yx: frozenset

    def __post_init__(self) -> None:
        for values in (self.a_xy, self.a_yx):
            assert all(0 < v <= 1 for v in values), "association values live in (0, 1]"


def association_sets(pair: UncertainPair, m_x: UncertaintyFunction,
                     m_y: UncertaintyFunction) -> AssociationSets:
    return AssociationSets(
        a_xy=_association_values(side_profile(pair, "X"), m_x),
        a_yx=_association_values(side_profile(pair, "Y"), m_y),
    )


@_frozen
class LevelStatus:
    variant: str  # "disassociated" | "associated" | "neither"
    witness: tuple[str, ...]


def classify_levels(assoc: AssociationSets, delta1: Fraction, delta2: Fraction) -> LevelStatus:
    """Decide (dis)association at levels ``(delta1, delta2)``.

    Disassociated needs every value strictly above its level on both sides
    and both sets nonempty; associated needs every value at or below its
    level (an empty set passes).  The two can never hold together.
    """
    delta1 = level(delta1, 1, closed=True, name="delta1")
    delta2 = level(delta2, 1, closed=True, name="delta2")
    notes = []
    dis = bool(assoc.a_xy) and bool(assoc.a_yx) \
        and all(v > delta1 for v in assoc.a_xy) \
        and all(v > delta2 for v in assoc.a_yx)
    asc = all(v <= delta1 for v in assoc.a_xy) and all(v <= delta2 for v in assoc.a_yx)
    assert not (dis and asc), "mutual exclusion of the two regimes"
    if dis:
        notes.append(f"min a_xy {format_ratio(min(assoc.a_xy))} > {format_ratio(delta1)}")
        notes.append(f"min a_yx {format_ratio(min(assoc.a_yx))} > {format_ratio(delta2)}")
        return LevelStatus("disassociated", tuple(notes))
    if asc:
        for name, values, bound in (("a_xy", assoc.a_xy, delta1), ("a_yx", assoc.a_yx, delta2)):
            top = format_ratio(max(values)) if values else "(empty)"
            notes.append(f"max {name} {top} <= {format_ratio(bound)}")
        return LevelStatus("associated", tuple(notes))
    if assoc.a_xy and min(assoc.a_xy) <= delta1 < max(assoc.a_xy):
        notes.append(f"a_xy straddles {format_ratio(delta1)}")
    if assoc.a_yx and min(assoc.a_yx) <= delta2 < max(assoc.a_yx):
        notes.append(f"a_yx straddles {format_ratio(delta2)}")
    if not assoc.a_xy or not assoc.a_yx:
        notes.append("an empty side blocks disassociation")
    return LevelStatus("neither", tuple(notes))


# ---------------------------------------------------------------------------
# delta-connected components


def _find(parent: list[int], i: int) -> int:
    """The root of ``i`` in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _components(profile: _SideProfile) -> list:
    """The unions of the side's ranges that meet, merged transitively."""
    parent = list(range(len(profile.ranges)))
    for i, j, _ in profile.pairs_with_overlap():
        parent[_find(parent, i)] = _find(parent, j)
    buckets: dict[int, object] = {}
    for i, rng in enumerate(profile.ranges):
        root = _find(parent, i)
        buckets[root] = rng if root not in buckets else buckets[root] | rng
    return sorted(buckets.values(), key=_subset_sort_key)


def delta_components(pair: UncertainPair, m: UncertaintyFunction, delta: Fraction,
                     side: str) -> list:
    """The unique partition of the marginal into delta-connected components.

    Only defined when the side is disassociated at this level: every nonzero
    overlap ratio (including the self-overlap of a range produced by two
    distinct points) must strictly exceed ``delta``.  Then ranges that meet
    merge, transitivity holds, and the component unions partition the
    marginal.
    """
    delta = level(delta, 1, closed=True)
    profile = side_profile(pair, side)
    for value in _association_values(profile, m):
        if value <= delta:
            raise NotDisassociated(
                f"overlap ratio {format_ratio(value)} <= {format_ratio(delta)}")
    return _components(profile)


# ---------------------------------------------------------------------------
# overlap families and mutual information


@_frozen
class OverlapFamily:
    """A largest cover of the marginal by delta-connected sets with pairwise
    overlap at most ``delta * m(marginal)``."""

    sets: tuple
    regime: str  # "associated" | "disassociated"
    delta: Fraction

    @property
    def count(self) -> int:
        return len(self.sets)


class _SideLevels:
    """One side's overlap family at every level, from one reading of the
    side: its ranges, m of its marginal, and its least and largest
    association values (None when it has none).  The opposite side is read
    only when a level below the least value is first asked for."""

    def __init__(self, pair: UncertainPair, m: UncertaintyFunction, side: str):
        self._pair, self._profile = pair, side_profile(pair, side)
        values = _association_values(self._profile, m)
        self.ranges, self.m_marginal = self._profile.ranges, m.of(self._profile.marginal)
        self.least, self.largest = min(values, default=None), max(values, default=None)

    def associated(self, delta: Fraction) -> bool:
        return self.largest is None or delta >= self.largest

    def family(self, delta: Fraction) -> Optional[tuple]:
        """The family's sets at ``delta``: the ranges from the largest value
        up, None from the least value, and the components or None below."""
        if self.associated(delta):
            return self.ranges
        return None if delta >= self.least else self._below_least

    @cached_property
    def _below_least(self) -> Optional[tuple]:
        # the opposite association set is nonempty exactly when a range is
        # produced twice or two ranges meet (m vanishes only on the empty set)
        other = side_profile(self._pair, "Y" if self._profile.side == "X" else "X")
        if any(c >= 2 for c in other.counts) or next(other.pairs_with_overlap(), None):
            return tuple(_components(self._profile))
        return None


def overlap_family(pair: UncertainPair, m_x: UncertaintyFunction,
                   m_y: UncertaintyFunction, delta: Fraction,
                   side: str) -> Optional[OverlapFamily]:
    """Construct the delta-overlap family of one side, or ``None``.

    The regime is decided by the requested side's association values at
    ``delta``, with the opposite side held at its free level (1 for the
    associated branch — always satisfied; 0 for the disassociated branch —
    satisfied exactly when the opposite association set is nonempty).
    In the associated regime the family is the set of distinct conditional
    ranges; in the disassociated regime it is the component partition.
    """
    side, delta = _normalize_side(side), level(delta, 1, closed=True)
    levels = _SideLevels(pair, m_x if side == "X" else m_y, side)
    sets = levels.family(delta)
    if sets is None:
        return None
    regime = "associated" if levels.associated(delta) else "disassociated"
    return OverlapFamily(sets, regime, delta)


@_frozen
class MIResult(_CountResult):
    """Delta-mutual information: an exact count with a log2 rendering."""

    count: int
    status: str  # "associated" | "disassociated" | "no_family"
    family: Optional[OverlapFamily]


def mutual_information(pair: UncertainPair, m_x: UncertaintyFunction,
                       m_y: UncertaintyFunction, delta: Fraction,
                       direction: str = "YgivenX") -> MIResult:
    """``log2 |family|`` of the conditioned side, or 0 when no family exists.

    ``direction="YgivenX"`` is the information the pair provides about Y
    (family of ranges ``[Y|x]``); ``"XgivenY"`` conditions the other way.
    """
    if direction not in ("YgivenX", "XgivenY"):
        raise UvinfoError(f"unknown direction {direction!r}")
    side = "Y" if direction == "YgivenX" else "X"
    family = overlap_family(pair, m_x, m_y, delta, side)
    if family is None:
        return MIResult(1, "no_family", None)
    return MIResult(family.count, family.regime, family)


# ---------------------------------------------------------------------------
# taxicab families on the joint range


@_frozen
class TaxicabFamily:
    sets: tuple
    deltas: tuple[Fraction, Fraction]
    exists: bool
    reason: str = ""

    @property
    def count(self) -> int:
        return len(self.sets)


def _taxicab_nodes(pair: UncertainPair):
    """Reduce the joint range to finitely many nodes ``(x, point-id)``.

    Finite pairs use the y labels directly.  Interval pairs use arrangement
    cells, with *two* representatives for a multi-point cell so that the
    reduction can detect whether same-cell points end up disconnected (in
    which case no finite family exists).
    """
    rows = _sections(pair, "Y")
    if not pair.is_hybrid():
        cols = _sections(pair, "X")
        return [(y, cols[y], None) for y in sorted(cols)], rows
    points = []
    for idx, cell in enumerate(pair.arrangement()):
        points.append(((idx, 0), cell.xset, cell))
        if cell.multi_point:
            points.append(((idx, 1), cell.xset, cell))
    return points, rows


def taxicab_family(pair: UncertainPair, m_x: UncertaintyFunction,
                   m_y: UncertaintyFunction, delta1: Fraction,
                   delta2: Fraction) -> TaxicabFamily:
    """Taxicab-connected components of the joint range, property-checked.

    Moves between joint points: same x with the two points' x-side ranges
    overlapping strictly above ``delta1 * m(marginal X)``, or same point
    with the two x's y-side ranges overlapping strictly above
    ``delta2 * m(marginal Y)``.  The components cover the joint range and
    are returned as the family when every column (the nodes of one point)
    and every row (the nodes of one x) lies in one component.  That
    containment implies the projection-overlap bounds: each x and each
    point then lies in one component, so the projections of two components
    never meet.  So ``exists`` is false exactly when joining the twins of a
    multi-point cell, a column or a row would merge two components.
    """
    delta1 = level(delta1, 1, closed=True, name="delta1")
    delta2 = level(delta2, 1, closed=True, name="delta2")
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    points, rows = _taxicab_nodes(pair)
    total_x = m_x.of(pair.marginal_range("X"))
    total_y = m_y.of(pair.marginal_range("Y"))
    nodes = [(x, pid) for pid, xset, _ in points for x in sorted(xset)]
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def join(a, b) -> bool:
        """Merge the components of nodes ``a`` and ``b``; whether they were two."""
        root_a, root_b = _find(parent, index[a]), _find(parent, index[b])
        parent[root_a] = root_b
        return root_a != root_b

    # A1 moves: same x across two points, gated on the x-side overlap.  The
    # two representatives of a multi-point cell are among these pairs; their
    # gate is the section's self-overlap.
    for (pid_i, xset_i, _), (pid_j, xset_j, _) in combinations(points, 2):
        inter = xset_i & xset_j
        if inter and m_x.of(inter) > delta1 * total_x:
            for x in inter:
                join((x, pid_i), (x, pid_j))
    # A2 moves: same point across two x's, gated on the y-side overlap.
    for pid, xset, _ in points:
        for x1, x2 in combinations(sorted(xset), 2):
            inter = rows[x1] & rows[x2]
            if inter and m_y.of(inter) > delta2 * total_y:
                join((x1, pid), (x2, pid))

    def crosses(key) -> bool:
        """Whether joining each node to the first node with its key merges
        two components."""
        first: dict = {}
        return any(join(node, first.setdefault(key(node), node)) for node in nodes)

    checks = [(lambda node: node[1], "a column crosses components"),
              (lambda node: node[0], "a row crosses components")]
    # a multi-point cell whose twin representatives are separated means the
    # true family would need infinitely many sets; only an interval pair's
    # points are (cell, twin) ids (a finite pair's y label may be a tuple)
    if pair.is_hybrid():
        checks.insert(0, (lambda node: (node[0], node[1][0]),
                          "a multi-point class splits; no finite family"))
    for key, reason in checks:
        if crosses(key):
            return TaxicabFamily((), (delta1, delta2), False, reason)

    components: dict[int, set] = {}
    for node in nodes:
        components.setdefault(_find(parent, index[node]), set()).add(node)
    # a twin adds its cell's support again, which leaves the union as it is
    cell_support = {pid: cell.support for pid, _, cell in points if cell is not None}
    sets = []
    for comp in sorted(components.values(), key=min):
        if pair.is_hybrid():
            by_x: dict[object, IntervalUnion] = {}
            for x, pid in comp:
                by_x[x] = by_x.get(x, IntervalUnion.empty()) | cell_support[pid]
            comp = by_x.items()
        sets.append(frozenset(comp))
    return TaxicabFamily(tuple(sets), (delta1, delta2), True)


__all__ = [
    "AssociationSets",
    "EmptyPair",
    "LevelStatus",
    "MIResult",
    "NotDisassociated",
    "OverlapFamily",
    "TaxicabFamily",
    "association_sets",
    "classify_levels",
    "delta_components",
    "mutual_information",
    "overlap_family",
    "side_profile",
    "taxicab_family",
]
