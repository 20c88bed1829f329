"""Association levels, overlap families, mutual information, and taxicab symmetry.

The calculus here is entirely finite: an :class:`~uvinfo.uvcore.UncertainPair`
is reduced to its distinct conditional ranges (with multiplicities), and every
definition — association sets, delta-connected components, overlap families,
the taxicab relation on the joint range — is evaluated by exact rational
comparison on that reduction.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .uvcore import (
    ArrangementCell,
    IntervalUnion,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    format_log2,
    format_ratio,
)


class EmptyPair(UvinfoError):
    """The joint range is empty; association sets are undefined."""


class NotDisassociated(UvinfoError):
    """Components were requested at a level where they are ill-defined."""


# ---------------------------------------------------------------------------
# side profiles: distinct conditional ranges with point multiplicities


@dataclass(frozen=True)
class _SideProfile:
    """Distinct conditional ranges of one side, each with the number of
    opposite-axis points (capped at 2) that produce it."""

    side: str
    marginal: object
    ranges: tuple
    counts: tuple[int, ...]

    def pairs_with_overlap(self):
        for i in range(len(self.ranges)):
            for j in range(i + 1, len(self.ranges)):
                inter = _intersect(self.ranges[i], self.ranges[j])
                if not _subset_empty(inter):
                    yield i, j, inter

    def has_any_association(self) -> bool:
        """Whether the association set of this side is nonempty — an
        uncertainty-free question, since m vanishes only on the empty set."""
        if any(c >= 2 for c in self.counts):
            return True
        for _ in self.pairs_with_overlap():
            return True
        return False


def _intersect(a, b):
    if isinstance(a, frozenset):
        return a & b
    return a.intersect(b)


def _union(a, b):
    if isinstance(a, frozenset):
        return a | b
    return a.union(b)


def _subset_empty(s) -> bool:
    if isinstance(s, frozenset):
        return not s
    return s.is_empty()


def _subset_sort_key(s):
    if isinstance(s, frozenset):
        return tuple(sorted(s))
    return tuple(s.pieces)


def side_profile(pair: UncertainPair, side: str) -> _SideProfile:
    side = side.upper()
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    if pair.is_hybrid():
        if side == "X":
            cells = pair.arrangement()
            ranges = [c.xset for c in cells]
            counts = [2 if c.multi_point else 1 for c in cells]
        else:
            groups: dict[IntervalUnion, int] = {}
            for _, iu in pair.cells:
                groups[iu] = min(2, groups.get(iu, 0) + 1)
            ranges = list(groups.keys())
            counts = [groups[r] for r in ranges]
    else:
        opposite = "Y" if side == "X" else "X"
        groups2: dict[frozenset, int] = {}
        for point in pair.marginal_range(opposite):
            rng = pair.conditional_range(side, point)
            groups2[rng] = min(2, groups2.get(rng, 0) + 1)
        ranges = list(groups2.keys())
        counts = [groups2[r] for r in ranges]
    order = sorted(range(len(ranges)), key=lambda i: _subset_sort_key(ranges[i]))
    return _SideProfile(
        side,
        pair.marginal_range(side),
        tuple(ranges[i] for i in order),
        tuple(counts[i] for i in order),
    )


def _association_values(profile: _SideProfile, m: UncertaintyFunction) -> frozenset:
    total = m.of(profile.marginal)
    values = set()
    for _, _, inter in profile.pairs_with_overlap():
        values.add(m.of(inter) / total)
    for rng, count in zip(profile.ranges, profile.counts):
        if count >= 2:
            values.add(m.of(rng) / total)
    return frozenset(values)


# ---------------------------------------------------------------------------
# association sets and level classification


@dataclass(frozen=True)
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
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    return AssociationSets(
        a_xy=_association_values(side_profile(pair, "X"), m_x),
        a_yx=_association_values(side_profile(pair, "Y"), m_y),
    )


@dataclass(frozen=True)
class LevelStatus:
    variant: str  # "disassociated" | "associated" | "neither"
    witness: tuple[str, ...]


def classify_levels(assoc: AssociationSets, delta1: Fraction, delta2: Fraction) -> LevelStatus:
    """Decide (dis)association at levels ``(delta1, delta2)``.

    Disassociated needs every value strictly above its level on both sides
    and both sets nonempty; associated needs every value at or below its
    level (an empty set passes).  The two can never hold together.
    """
    if not (0 <= delta1 <= 1 and 0 <= delta2 <= 1):
        raise UvinfoError("levels must lie in [0, 1]")
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
        notes.append("max a_xy " + (format_ratio(max(assoc.a_xy)) if assoc.a_xy else "(empty)")
                     + f" <= {format_ratio(delta1)}")
        notes.append("max a_yx " + (format_ratio(max(assoc.a_yx)) if assoc.a_yx else "(empty)")
                     + f" <= {format_ratio(delta2)}")
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


def delta_components(pair: UncertainPair, m: UncertaintyFunction, delta: Fraction,
                     side: str) -> list:
    """The unique partition of the marginal into delta-connected components.

    Only defined when the side is disassociated at this level: every nonzero
    overlap ratio (including the self-overlap of a range produced by two
    distinct points) must strictly exceed ``delta``.  Then ranges that meet
    merge, transitivity holds, and the component unions partition the
    marginal.
    """
    profile = side_profile(pair, side)
    for value in _association_values(profile, m):
        if value <= delta:
            raise NotDisassociated(
                f"overlap ratio {format_ratio(value)} <= {format_ratio(delta)}")
    parent = list(range(len(profile.ranges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # every overlap exceeds delta (checked above), so ranges that meet merge
    for i, j, _ in profile.pairs_with_overlap():
        parent[find(i)] = find(j)
    buckets: dict[int, object] = {}
    for i, rng in enumerate(profile.ranges):
        root = find(i)
        buckets[root] = rng if root not in buckets else _union(buckets[root], rng)
    return sorted(buckets.values(), key=_subset_sort_key)


# ---------------------------------------------------------------------------
# overlap families and mutual information


@dataclass(frozen=True)
class OverlapFamily:
    """A largest cover of the marginal by delta-connected sets with pairwise
    overlap at most ``delta * m(marginal)``."""

    sets: tuple
    regime: str  # "associated" | "disassociated"
    delta: Fraction

    @property
    def count(self) -> int:
        return len(self.sets)


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
    side = side.upper()
    if not 0 <= delta <= 1:
        raise UvinfoError("delta must lie in [0, 1]")
    profile = side_profile(pair, side)
    m_side = m_x if side == "X" else m_y
    values = _association_values(profile, m_side)
    if not values or max(values) <= delta:
        return OverlapFamily(tuple(profile.ranges), "associated", delta)
    other = side_profile(pair, "Y" if side == "X" else "X")
    if all(v > delta for v in values) and other.has_any_association():
        components = delta_components(pair, m_side, delta, side)
        return OverlapFamily(tuple(components), "disassociated", delta)
    return None


@dataclass(frozen=True)
class MIResult:
    """Delta-mutual information: an exact count with a log2 rendering."""

    count: int
    status: str  # "associated" | "disassociated" | "no_family"
    family: Optional[OverlapFamily]

    @property
    def bits(self) -> float:
        return math.log2(self.count)

    def render(self) -> str:
        return format_log2(self.count)


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


@dataclass(frozen=True)
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
    if not pair.is_hybrid():
        ys = sorted(pair.marginal_range("Y"))
        cols = {y: pair.conditional_range("X", y) for y in ys}
        rows = {x: pair.conditional_range("Y", x) for x in sorted(pair.marginal_range("X"))}
        points = [(y, cols[y], None) for y in ys]
        return points, rows
    cells = pair.arrangement()
    points = []
    rows = dict(pair.cells)
    for idx, cell in enumerate(cells):
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
    ``delta2 * m(marginal Y)``.  The components are returned as the
    candidate family; ``exists`` is false when any family property fails
    (cover is automatic, so what can fail is column/row containment or the
    projection-overlap bounds).
    """
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    points, rows = _taxicab_nodes(pair)
    total_x = m_x.of(pair.marginal_range("X"))
    total_y = m_y.of(pair.marginal_range("Y"))
    nodes = []
    for pid, xset, _cell in points:
        for x in sorted(xset):
            nodes.append((x, pid))
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(a, b) -> None:
        parent[find(index[a])] = find(index[b])

    # A1 moves: same x across two points, gated on the x-side overlap.  The
    # two representatives of a multi-point cell are among these pairs; their
    # gate is the section's self-overlap.
    for i, (pid_i, xset_i, _) in enumerate(points):
        for pid_j, xset_j, _ in points[i + 1:]:
            inter = xset_i & xset_j
            if inter and m_x.of(inter) > delta1 * total_x:
                for x in inter:
                    join((x, pid_i), (x, pid_j))
    # A2 moves: same point across two x's, gated on the y-side overlap.
    for pid, xset, _ in points:
        xs = sorted(xset)
        for i, x1 in enumerate(xs):
            for x2 in xs[i + 1:]:
                inter = _intersect(rows[x1], rows[x2])
                if not _subset_empty(inter) and m_y.of(inter) > delta2 * total_y:
                    join((x1, pid), (x2, pid))

    components: dict[int, set] = {}
    for node in nodes:
        components.setdefault(find(index[node]), set()).add(node)
    comp_list = sorted(components.values(), key=min)

    # a multi-point cell whose twin representatives are separated means the
    # true family would need infinitely many sets
    for pid, xset, cell in points:
        if cell is not None and cell.multi_point and pid[1] == 0:
            for x in xset:
                if find(index[(x, pid)]) != find(index[(x, (pid[0], 1))]):
                    return TaxicabFamily((), (delta1, delta2), False,
                                         "a multi-point class splits; no finite family")

    def comp_of(node):
        return find(index[node])

    reason = ""
    exists = True
    # every column and every row must sit inside one component (this is both
    # the singly-connected containment property and, together with the
    # components covering everything, the contains-a-column/row property)
    for pid, xset, _ in points:
        roots = {comp_of((x, pid)) for x in xset}
        if len(roots) > 1:
            exists, reason = False, "a column crosses components"
            break
    if exists:
        for x, yrange in rows.items():
            roots = set()
            for pid, xset, _ in points:
                if x in xset:
                    roots.add(comp_of((x, pid)))
            if len(roots) > 1:
                exists, reason = False, "a row crosses components"
                break
    if exists:
        # projection overlap bounds
        xprojs = [frozenset(x for x, _ in comp) for comp in comp_list]
        for i in range(len(xprojs)):
            for j in range(i + 1, len(xprojs)):
                inter = xprojs[i] & xprojs[j]
                if inter and m_x.of(inter) > delta1 * total_x:
                    exists, reason = False, "x-projections overlap beyond delta1"
        if exists and not pair.is_hybrid():
            yprojs = [frozenset(pid for _, pid in comp) for comp in comp_list]
            for i in range(len(yprojs)):
                for j in range(i + 1, len(yprojs)):
                    inter = yprojs[i] & yprojs[j]
                    if inter and m_y.of(inter) > delta2 * total_y:
                        exists, reason = False, "y-projections overlap beyond delta2"
        # interval pairs: distinct cells are disjoint point classes, so two
        # components never share y points and the delta2 bound holds with
        # intersection measure zero

    if not exists:
        return TaxicabFamily((), (delta1, delta2), False, reason)

    cell_support = {}
    for pid, _, cell in points:
        if cell is not None:
            cell_support[pid] = cell.support
    sets = []
    for comp in comp_list:
        if pair.is_hybrid():
            by_x: dict[object, IntervalUnion] = {}
            for x, pid in comp:
                if pid[1] == 1:
                    continue
                cur = by_x.get(x, IntervalUnion.empty())
                by_x[x] = cur.union(cell_support[pid])
            sets.append(frozenset(by_x.items()))
        else:
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
