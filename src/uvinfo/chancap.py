"""Set-valued channels, equivocation, and exact (N, delta)-capacity.

A channel maps each input symbol to a nonempty set of output symbols; the
equivocation of two inputs is the (normalized) uncertainty of their image
intersection.  Capacity is the log of the largest codebook whose pairwise
equivocations all clear the size-dependent threshold ``delta / k``; it is
found by a ranked bitset clique search per size and certified by refuting
size ``count + 1``.

The uncertainty function must be normalized so the full output alphabet has
uncertainty 1 (cardinality-power functions over the whole alphabet already
are).  ``delta`` must stay below the uncertainty of the smallest image, or
every threshold comparison becomes vacuous and capacity is infinite.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .uvcore import (
    FiniteGround,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    CardinalityPower,
    format_log2,
    format_ratio,
)
from .infocalc import association_sets, overlap_family

MI_SUP_MAX_SYMBOLS = 12


class SamePoint(UvinfoError):
    """Equivocation of a codeword with itself is excluded."""


class DeltaOutOfRange(UvinfoError):
    """delta must satisfy 0 <= delta < m(V_N)."""


class AlphabetTooLarge(UvinfoError):
    """The requested brute-force search is beyond the supported size."""


class NotNormalized(UvinfoError):
    """The uncertainty of the full output alphabet must equal 1."""


def _sorted_symbols(symbols, side: str) -> tuple:
    """The distinct symbols in sorted order."""
    try:
        return tuple(sorted(set(symbols)))
    except TypeError:
        raise UvinfoError(
            f"{side} symbols must be hashable and mutually comparable") from None


@dataclass(frozen=True)
class Channel:
    """A set-valued noise map on finite alphabets.

    Symbols may be any sortable hashables; every image must be a nonempty
    subset of the output alphabet.
    """

    x_symbols: tuple
    y_symbols: tuple
    images: tuple  # frozensets, aligned with x_symbols

    @staticmethod
    def of(mapping: dict, y_alphabet=None) -> "Channel":
        if not mapping:
            raise UvinfoError("a channel needs at least one input symbol")
        xs = _sorted_symbols(mapping, "input")
        image_list = [frozenset(mapping[x]) for x in xs]
        for x, img in zip(xs, image_list):
            if not img:
                raise UvinfoError(f"image of {x!r} is empty")
        if y_alphabet is None:
            ys = _sorted_symbols(frozenset().union(*image_list), "output")
        else:
            ys = _sorted_symbols(y_alphabet, "output")
            yset = set(ys)
            for x, img in zip(xs, image_list):
                stray = img - yset
                if stray:
                    raise UvinfoError(
                        f"image of {x!r} contains {sorted(stray)[0]!r}, "
                        "not in the output alphabet")
        return Channel(xs, ys, tuple(image_list))

    @cached_property
    def _by_x(self) -> dict:
        return dict(zip(self.x_symbols, self.images))

    def image(self, x) -> frozenset:
        try:
            return self._by_x[x]
        except KeyError:
            raise UvinfoError(f"{x!r} is not an input symbol") from None

    @property
    def y_ground(self) -> frozenset:
        return frozenset(self.y_symbols)

    def min_image(self, m: UncertaintyFunction) -> frozenset:
        """The minimum-uncertainty image, ties broken by least input symbol."""
        best = None
        for x, img in zip(self.x_symbols, self.images):
            value = m.of(img)
            if best is None or value < best[0]:
                best = (value, img)
        return best[1]

    def min_image_uncertainty(self, m: UncertaintyFunction) -> Fraction:
        return m.of(self.min_image(m))


def ball_channel(points, distance: Callable, radius) -> Channel:
    """The metric-ball channel x -> {y : distance(x, y) <= radius} on a
    finite point set; the packing capacities of metric spaces are the
    special case of channel capacity this constructs."""
    pts = sorted(set(points))
    return Channel.of({x: frozenset(y for y in pts if distance(x, y) <= radius)
                       for x in pts})


def _require_normalized(ch: Channel, m: UncertaintyFunction) -> None:
    total = m.of(ch.y_ground)
    if total != 1:
        raise NotNormalized(
            f"m(output alphabet) = {format_ratio(total)}, expected 1")


def as_codebook(ch: Channel, points) -> tuple:
    cb = tuple(sorted(set(points)))
    if not cb:
        raise UvinfoError("a codebook must be nonempty")
    known = set(ch.x_symbols)
    for x in cb:
        if x not in known:
            raise UvinfoError(f"{x!r} is not an input symbol")
    return cb


def equivocation(ch: Channel, m: UncertaintyFunction, x1, x2) -> Fraction:
    """e_N(x1, x2) = m(N(x1) ∩ N(x2)) for distinct inputs."""
    if x1 == x2:
        raise SamePoint(f"equivocation needs two distinct inputs, got {x1!r}")
    _require_normalized(ch, m)
    return m.of(ch.image(x1) & ch.image(x2))


def _pair_values(ch: Channel, m: UncertaintyFunction) -> list:
    """Equivocations of all input pairs, in ``itertools.combinations`` order."""
    return [m.of(a & b) for a, b in itertools.combinations(ch.images, 2)]


def _delta_grid(ch: Channel, m: UncertaintyFunction, pair_values) -> list:
    """Zero plus every size-scaled positive pair value below the noise floor:
    the deltas at which per-size feasibility can change, in increasing order."""
    v_min = ch.min_image_uncertainty(m)
    grid = {Fraction(0)}
    for e in set(pair_values):
        if e > 0:
            for k in range(1, len(ch.x_symbols) + 1):
                if k * e < v_min:
                    grid.add(k * e)
    return sorted(grid)


@dataclass(frozen=True)
class Distinguishability:
    ok: bool
    threshold: Fraction
    violating_pair: Optional[tuple] = None
    violating_value: Optional[Fraction] = None


def _require_delta_finite(delta: Fraction) -> None:
    # The strict theory restricts delta below the noise floor m(V_N); on
    # finite alphabets the search stays exact and finite for any delta < 1,
    # and values in [m(V_N), 1) are exercised by the reference material, so
    # only [0, 1) is enforced here.
    if not 0 <= delta < 1:
        raise DeltaOutOfRange(f"need 0 <= delta < 1, got {format_ratio(delta)}")


def check_distinguishable(ch: Channel, m: UncertaintyFunction, codebook,
                          delta: Fraction) -> Distinguishability:
    """Whether all distinct pairs satisfy e_N(x1, x2) <= delta / |codebook|,
    reporting the first (lexicographic) violation otherwise."""
    cb = as_codebook(ch, codebook)
    _require_normalized(ch, m)
    _require_delta_finite(delta)
    threshold = delta / len(cb)
    for x1, x2 in itertools.combinations(cb, 2):
        value = m.of(ch.image(x1) & ch.image(x2))
        if value > threshold:
            return Distinguishability(False, threshold, (x1, x2), value)
    return Distinguishability(True, threshold)


@dataclass(frozen=True)
class CapacityResult:
    count: int
    witness: tuple
    per_size_feasibility: tuple  # ((k, feasible), ...) for every size tried
    thresholds: tuple            # ((k, delta/k), ...) matching per_size
    delta: Fraction

    @property
    def bits(self) -> float:
        return math.log2(self.count)

    def render_bits(self) -> str:
        return format_log2(self.count)


def _has_clique(adj: list, cand: int, need: int) -> bool:
    """Whether the vertex bitset ``cand`` holds a clique of ``need`` vertices:
    branch and bound under a greedy-colouring bound (MCQ, Tomita and Seki
    2003, on bitsets as in BBMC), since c colour classes hold no clique
    larger than c."""
    if need <= 0:
        return True
    coloured = []  # (colour, vertex), colours nondecreasing
    uncoloured, colour = cand, 0
    while uncoloured:
        colour += 1
        free = uncoloured
        while free:
            v = (free & -free).bit_length() - 1
            coloured.append((colour, v))
            uncoloured ^= 1 << v
            free &= ~(adj[v] | 1 << v)
    if colour == len(coloured):  # one vertex per colour: cand is a clique
        return colour >= need
    for c, v in reversed(coloured):
        if c < need:
            return False
        if _has_clique(adj, cand & adj[v], need - 1):
            return True
        cand ^= 1 << v
    return False


def _capacity_search(symbols, pair_values, delta: Fraction) -> CapacityResult:
    """The engine behind every capacity search (see ``capacity``), given the
    pair values of ``symbols`` in ``itertools.combinations`` order."""
    n = len(symbols)
    # Fractions are kept in lowest terms, so (numerator, denominator) is an
    # exact key, and far cheaper to hash than the Fraction itself.
    keys = [v.as_integer_ratio() for v in pair_values]
    values = sorted(dict(zip(keys, pair_values)).values())
    rank = {v.as_integer_ratio(): r for r, v in enumerate(values)}
    rows: list = [{} for _ in values]  # rank -> {vertex: neighbours at rank}
    for (i, j), key in zip(itertools.combinations(range(n), 2), keys):
        row = rows[rank[key]]
        row[i] = row.get(i, 0) | 1 << j
        row[j] = row.get(j, 0) | 1 << i
    per_size = []
    count, graph = 1, [0] * n
    for k in range(1, n + 1):
        adj = [0] * n
        for row in rows[:bisect.bisect_right(values, delta / k)]:
            for i, bits in row.items():
                adj[i] |= bits
        feasible = _has_clique(adj, (1 << n) - 1, k)
        per_size.append((k, feasible))
        if not feasible:
            break
        count, graph = k, adj
    # include-first scan: commit the least remaining symbol exactly when the
    # prefix still completes to a count-clique among the later candidates
    witness, cand = [], (1 << n) - 1
    while len(witness) < count:
        v = (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        if _has_clique(graph, cand & graph[v], count - len(witness) - 1):
            witness.append(symbols[v])
            cand &= graph[v]
    thresholds = tuple((k, delta / k) for k, _ in per_size)
    return CapacityResult(count, tuple(witness), tuple(per_size), thresholds,
                          delta)


def capacity(ch: Channel, m: UncertaintyFunction, delta: Fraction) -> CapacityResult:
    """The exact (N, delta)-capacity: the largest codebook size with all
    pairwise equivocations at most delta/size.

    Sizes are searched in increasing order; feasibility is monotone
    nonincreasing in the size (the threshold delta/k shrinks while the
    constraint set grows), so the search stops at the first infeasible size,
    which also certifies count + 1 exhaustively.  Size k is feasible when
    the graph joining inputs with equivocation at most delta/k has a k-clique.
    The distinct equivocations are ranked once, so each graph is built as int
    bitsets with no Fraction compared in the search, which is a branch and
    bound under a greedy-colouring bound.  The witness is the
    lexicographically least optimal codebook, found once at the final size
    by an include-first scan whose completion test is the same clique query.
    """
    _require_normalized(ch, m)
    _require_delta_finite(delta)
    return _capacity_search(ch.x_symbols, _pair_values(ch, m), delta)


def induced_pair(ch: Channel, codebook) -> UncertainPair:
    """The uncertain pair of a codebook sent through the channel: joint range
    {(x, y) : x in codebook, y in N(x)}."""
    cb = as_codebook(ch, codebook)
    joint = frozenset((x, y) for x in cb for y in ch.image(x))
    return UncertainPair.finite(
        joint,
        x_ground=FiniteGround.of(cb),
        y_ground=FiniteGround.of(ch.y_symbols),
    )


def distinct_image_representatives(ch: Channel) -> tuple:
    """Least input symbol per distinct image.

    Replacing a codeword by one with the same image (or dropping the
    duplicate) changes neither the output marginal nor the output-side
    family at a fixed scaled level, so sups over codebooks may be taken
    over subsets of these representatives.
    """
    seen = {}
    for x, img in zip(ch.x_symbols, ch.images):
        if img not in seen:
            seen[img] = x
    return tuple(sorted(seen.values()))


@dataclass(frozen=True)
class MISupResult:
    count: int
    codebook: tuple
    delta_tilde: Fraction
    feasible_only: bool

    @property
    def bits(self) -> float:
        return math.log2(self.count)


def _uniform_x(pair: UncertainPair) -> CardinalityPower:
    """The uniform measure on the input marginal of ``pair``."""
    return CardinalityPower(len(pair.marginal_range("X")))


def _output_association_values(pair: UncertainPair, m: UncertaintyFunction) -> list:
    """Distinct output-side association values of an induced pair."""
    return sorted(association_sets(pair, _uniform_x(pair), m).a_yx)


def mi_sup_oracle(ch: Channel, m: UncertaintyFunction, delta: Fraction, *,
                  feasible_only: bool = True) -> MISupResult:
    """Brute-force the coding-theorem right side: the sup over codebooks X
    and levels delta_tilde <= delta / m([Y]) of the output-side mutual
    information at delta_tilde / |X|.

    With ``feasible_only`` the sup ranges over (X, delta_tilde) whose
    output-side overlap family exists (the feasible set); without it a
    missing family scores 0 bits.  Families and feasibility only change at
    the finitely many output association values, so those (clipped to the
    allowed range, plus the endpoints) are swept exactly.
    """
    _require_normalized(ch, m)
    v_min = ch.min_image_uncertainty(m)
    if not 0 <= delta < v_min:
        raise DeltaOutOfRange(
            f"need 0 <= delta < m(V_N) = {format_ratio(v_min)}, "
            f"got {format_ratio(delta)}")
    reps = distinct_image_representatives(ch)
    if len(reps) > MI_SUP_MAX_SYMBOLS:
        raise AlphabetTooLarge(
            f"{len(reps)} distinct images exceed the brute-force cap "
            f"of {MI_SUP_MAX_SYMBOLS}")
    best: Optional[MISupResult] = None
    m_x_uniform = CardinalityPower(len(ch.x_symbols))
    for size in range(1, len(reps) + 1):
        for cb in itertools.combinations(reps, size):
            pair = induced_pair(ch, cb)
            m_out = m.of(pair.marginal_range("Y"))
            theta_max = delta / (m_out * size)
            thetas = [Fraction(0)]
            thetas.extend(v for v in _output_association_values(pair, m)
                          if v <= theta_max)
            if theta_max not in thetas:
                thetas.append(theta_max)
            for theta in sorted(thetas):
                family = overlap_family(pair, m_x_uniform, m, theta, "Y")
                if family is None:
                    if feasible_only:
                        continue
                    count = 1
                else:
                    count = family.count
                if best is None or count > best.count:
                    best = MISupResult(count, cb, theta * size, feasible_only)
    assert best is not None, "the singleton codebook is always feasible"
    return best


@dataclass(frozen=True)
class CodingTheoremRow:
    delta: Fraction
    capacity_count: int
    capacity_witness: tuple
    sup_count: int
    sup_codebook: tuple
    sup_delta_tilde: Fraction
    unrestricted_count: int
    match: bool


@dataclass(frozen=True)
class CodingTheoremReport:
    rows: tuple
    ok: bool


def verify_coding_theorem(ch: Channel, m: UncertaintyFunction,
                          delta_grid) -> CodingTheoremReport:
    """Check, for every delta in the grid, that the exact capacity equals
    the feasible-set mutual-information sup, and that dropping the
    feasibility restriction changes nothing."""
    rows = []
    ok = True
    for delta in delta_grid:
        cap = capacity(ch, m, delta)
        sup = mi_sup_oracle(ch, m, delta)
        free = mi_sup_oracle(ch, m, delta, feasible_only=False)
        match = cap.count == sup.count == free.count
        ok = ok and match
        rows.append(CodingTheoremRow(
            delta, cap.count, cap.witness, sup.count, sup.codebook,
            sup.delta_tilde, free.count, match))
    return CodingTheoremReport(tuple(rows), ok)


@dataclass(frozen=True)
class AvgOverlapResult:
    count: int
    witness: tuple
    delta: Fraction

    @property
    def bits(self) -> float:
        return math.log2(self.count)


def average_overlap(ch: Channel, m: UncertaintyFunction, codebook) -> Fraction:
    """The mean pairwise equivocation against twice the noise floor:
    sum of distinct-pair equivocations / (|codebook| * m(V_N))."""
    cb = as_codebook(ch, codebook)
    _require_normalized(ch, m)
    if len(cb) == 1:
        return Fraction(0)
    total = sum(m.of(ch.image(a) & ch.image(b))
                for a, b in itertools.combinations(cb, 2))
    return total / (len(cb) * ch.min_image_uncertainty(m))


def avg_overlap_capacity(ch: Channel, m: UncertaintyFunction,
                         delta: Fraction) -> AvgOverlapResult:
    """The largest codebook whose average overlap is at most delta.

    Unlike the pairwise notion this constraint is not monotone in the
    codebook size (the budget grows with the size), so the search walks the
    whole subset tree, pruning on the partial pair sum against the largest
    budget any completion could have.
    """
    _require_normalized(ch, m)
    if delta < 0:
        raise DeltaOutOfRange(f"delta must be nonnegative, got {format_ratio(delta)}")
    symbols = ch.x_symbols
    n = len(symbols)
    if n > 20:
        raise AlphabetTooLarge(f"{n} inputs exceed the brute-force cap of 20")
    table = dict(zip(itertools.combinations(symbols, 2), _pair_values(ch, m)))
    v_min = ch.min_image_uncertainty(m)
    best: tuple = (symbols[0],)
    chosen: list = []

    def walk(start: int, pair_sum: Fraction) -> None:
        nonlocal best
        if len(chosen) > len(best) and pair_sum <= delta * len(chosen) * v_min:
            best = tuple(chosen)
        if len(chosen) + (n - start) <= len(best):
            return
        for idx in range(start, n):
            x = symbols[idx]
            grown = pair_sum + sum(table[c, x] for c in chosen)
            max_size = len(chosen) + 1 + (n - idx - 1)
            if grown > delta * max_size * v_min:
                continue
            chosen.append(x)
            walk(idx + 1, grown)
            chosen.pop()

    walk(0, Fraction(0))
    return AvgOverlapResult(len(best), best, delta)


__all__ = [
    "AlphabetTooLarge",
    "AvgOverlapResult",
    "CapacityResult",
    "Channel",
    "CodingTheoremReport",
    "CodingTheoremRow",
    "DeltaOutOfRange",
    "Distinguishability",
    "MISupResult",
    "NotNormalized",
    "SamePoint",
    "as_codebook",
    "average_overlap",
    "avg_overlap_capacity",
    "ball_channel",
    "capacity",
    "check_distinguishable",
    "distinct_image_representatives",
    "equivocation",
    "induced_pair",
    "mi_sup_oracle",
    "verify_coding_theorem",
]
