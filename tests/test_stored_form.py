"""The stored form of a joint range against a copy of the code it replaced.

``UncertainPair`` stores every pair as its sections [Y|x], and nothing else.
It used to store a finite pair as a set of ``(x, y)`` pairs and an interval
pair as sections, each beside an X and a Y ground; ``ReferencePair``,
``reference_sections`` and ``reference_induced_pair`` are verbatim copies of
that record and its readers, of ``infocalc._sections`` and of
``chancap.induced_pair``, and ``FiniteGround`` and ``IntervalGround`` of the
two ground classes they build.  Seeded pairs and channels must give equal
results, or equal refusals (class and message), through the readers, the
side profiles, the association sets, the overlap families, the taxicab
family, the oracle's codebook rows, ``mi_sup_oracle`` and
``verify_coding_theorem``.
"""

import contextlib
import random
from fractions import Fraction
from typing import Iterable, Mapping, Union

import pytest
from test_uvcore import reassembles

from uvinfo import chancap, infocalc
from uvinfo.chancap import Channel, as_codebook
from uvinfo.uvcore import (
    ArrangementCell,
    CardinalityPower,
    ExplicitWeights,
    GroundSubset,
    IntervalUnion,
    LebesguePlusOffset,
    PointOutsideRange,
    UncertainPair,
    UvinfoError,
    _frozen,
    _normalize_side,
    _sorted_symbols,
    format_ratio,
    ratio,
)

F = Fraction


# ---------------------------------------------------------------------------
# the reference: the ground classes the record stored


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


GroundSet = FiniteGround | IntervalGround


# ---------------------------------------------------------------------------
# the reference: the record as it stored a finite pair, and its readers


@_frozen
class ReferencePair:
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
               y_ground: FiniteGround | None = None) -> "ReferencePair":
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
        for x, y in pairs:
            if x not in x_labels or y not in y_labels:
                raise UvinfoError(f"joint pair {(x, y)!r} outside the grounds")
        return ReferencePair(x_ground, y_ground, pairs, None)

    @staticmethod
    def hybrid(cells: Mapping[object, IntervalUnion],
               x_ground: FiniteGround | None = None,
               y_ground: IntervalGround | None = None) -> "ReferencePair":
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
        return ReferencePair(x_ground, y_ground, None, items)

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
            return IntervalUnion.of(p for _, iu in self.cells for p in iu.pieces)
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
        cells = self.arrangement()
        for x, iu in self.cells:
            for cell in cells:
                hit = bool(cell.support & iu)
                if (x in cell.xset) != hit and not cell.multi_point:
                    # single-point classes must agree exactly
                    return False
        # every cell section must list exactly the x's whose stored cell
        # contains the representative
        for cell in cells:
            for rep in cell.reps:
                if self.conditional_range("X", rep) != cell.xset:
                    return False
        return True


def reference_sections(pair, side: str) -> dict:
    """The conditional ranges of ``side``, keyed by their opposite point, in
    one pass over the joint relation (over the cells for the Y side of an
    interval pair; its X side goes through the arrangement instead)."""
    if pair.is_hybrid():
        return dict(pair.cells)
    sections: dict = {}
    for x, y in pair.joint:
        key, point = (y, x) if side == "X" else (x, y)
        sections.setdefault(key, set()).add(point)
    return {key: frozenset(points) for key, points in sections.items()}


def reference_induced_pair(ch: Channel, codebook) -> ReferencePair:
    """The uncertain pair of a codebook sent through the channel: joint range
    {(x, y) : x in codebook, y in N(x)}."""
    cb = as_codebook(ch, codebook)
    joint = frozenset((x, y) for x in cb for y in ch.image(x))
    return ReferencePair.finite(
        joint,
        x_ground=FiniteGround.of(cb),
        y_ground=FiniteGround.of(ch.y_symbols),
    )


@contextlib.contextmanager
def reference_form():
    """Run the library on reference pairs: its section reader and its
    induced pairs are the reference copies while the block runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infocalc, "_sections", reference_sections)
        patch.setattr(chancap, "induced_pair", reference_induced_pair)
        yield


def outcome(call, *args):
    """A call's result, or the class and message of what it raised; a
    ``TypeError`` is an outcome too, so a refusal cannot turn into one."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# seeded pairs


TUPLES = [(a, b) for a in range(2) for b in range(3)]


def seeded_pairs(seed: int, count: int):
    """``(new, reference)`` pairs built from the same input: finite pairs
    with int labels, finite pairs with tuple labels, and interval pairs whose
    cells have up to three pieces, ``count`` of each; then one empty pair."""
    rng = random.Random(seed)
    for _ in range(count):
        xs = range(rng.randint(1, 5))
        joint = {(x, y) for x in xs for y in rng.sample(range(6), rng.randint(1, 3))}
        yield UncertainPair.finite(joint), ReferencePair.finite(joint)
        joint = {(TUPLES[x], y) for x in xs
                 for y in rng.sample(TUPLES, rng.randint(1, 3))}
        yield UncertainPair.finite(joint), ReferencePair.finite(joint)
        cells = {x: IntervalUnion.of(
            sorted(rng.sample(range(13), 2)) for _ in range(rng.randint(1, 3)))
            for x in xs}
        yield UncertainPair.hybrid(cells), ReferencePair.hybrid(cells)
    yield UncertainPair.finite([]), ReferencePair.finite([])


def probe_points(pair: ReferencePair, side: str) -> list:
    """Points at which to read ``side``'s conditional range: every point of
    the opposite marginal, then points outside it, an unhashable one among
    them."""
    if side == "Y":
        return sorted(pair.marginal_range("X")) + [99, (9, 9), [1]]
    if pair.is_hybrid():
        return [F(k, 2) for k in range(-1, 28)] + ["1/3", "0.5", [1]]
    return sorted(pair.marginal_range("Y")) + [99, (9, 9), [1], {1}]


def measures(pair: ReferencePair) -> tuple:
    m_x = CardinalityPower(max(1, len(pair.marginal_range("X"))))
    if pair.is_hybrid():
        return m_x, LebesguePlusOffset(1)
    return m_x, CardinalityPower(max(1, len(pair.marginal_range("Y"))))


def profile(pair, side: str) -> tuple:
    p = infocalc.side_profile(pair, side)
    return p.side, p.marginal, p.ranges, p.counts


LEVELS = (F(0), F(1, 5), F(1, 3), F(1, 2), F(1))


def readings(pair) -> list:
    """Everything the tests compare, read from the record and through the
    library."""
    m_x, m_y = measures(pair)
    out = [pair.joint, pair.is_hybrid(), pair.is_empty()]
    for side in ("X", "Y"):
        out.append(outcome(pair.marginal_range, side))
        out.extend(outcome(pair.conditional_range, side, point)
                   for point in probe_points(pair, side))
        out.append(outcome(profile, pair, side))
        out.extend(outcome(infocalc.overlap_family, pair, m_x, m_y, delta, side)
                   for delta in LEVELS)
    out.append(outcome(infocalc.association_sets, pair, m_x, m_y))
    out.extend(outcome(infocalc.taxicab_family, pair, m_x, m_y, d1, d2)
               for d1, d2 in ((0, 0), (F(1, 4), F(1, 3)), (F(1, 2), 1), (1, 0)))
    return out


class TestPairsMatchTheReference:
    def test_seeded_pairs(self):
        kinds = set()
        for new, ref in seeded_pairs(28, 100):
            assert dict(new.cells) == reference_sections(ref, "Y")
            assert reassembles(new)
            got = readings(new)
            with reference_form():
                want = readings(ref)
            assert got == want
            kinds.add((new.is_hybrid(), new.is_empty()))
        assert kinds == {(False, False), (True, False), (False, True)}

    def test_an_unhashable_point_is_outside_every_range(self):
        new, ref = UncertainPair.finite([(1, "u")]), ReferencePair.finite([(1, "u")])
        for pair in (new, ref):
            with pytest.raises(PointOutsideRange,
                               match=r"^\[1\] not in the opposite marginal$"):
                pair.conditional_range("X", [1])


# ---------------------------------------------------------------------------
# seeded channels


def seeded_channel(rng: random.Random) -> tuple:
    """A channel of 1-6 inputs, a cardinality or weighted measure on its
    outputs, and deltas below its noise floor."""
    outputs = rng.randint(3, 9)
    ch = Channel.of({x: frozenset(rng.sample(range(outputs), rng.randint(1, 3)))
                     for x in range(rng.randint(1, 6))}, y_alphabet=range(outputs))
    if rng.random() < 0.5:
        m = CardinalityPower(outputs, rng.randint(1, 2))
    else:
        weights = {y: rng.randint(1, 9) for y in range(outputs)}
        m = ExplicitWeights.of_mapping(weights, sum(weights.values()))
    v_min = ch.min_image_uncertainty(m)
    return ch, m, [F(0)] + [v_min * F(k, 5) for k in range(1, 5)]


def row_readings(ch, m, deltas) -> list:
    out = []
    for codebook, levels in chancap._codebook_rows(ch, m):
        out.append((codebook, levels.ranges, levels.m_marginal, levels.least,
                    levels.largest))
        out.extend(levels.family(delta) for delta in LEVELS)
    out.extend(outcome(chancap.mi_sup_oracle, ch, m, delta) for delta in deltas)
    out.append(outcome(chancap.verify_coding_theorem, ch, m, deltas))
    return out


class TestChannelsMatchTheReference:
    def test_seeded_channels(self):
        rng = random.Random(28)
        for _ in range(100):
            ch, m, deltas = seeded_channel(rng)
            for cb in chancap.distinct_image_representatives(ch), ch.x_symbols[:1]:
                new, ref = chancap.induced_pair(ch, cb), reference_induced_pair(ch, cb)
                assert new.joint == ref.joint
            got = row_readings(ch, m, deltas)
            with reference_form():
                want = row_readings(ch, m, deltas)
            assert got == want
