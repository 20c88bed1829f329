"""Set-valued channels, equivocation, and exact (N, delta)-capacity.

A channel maps each input symbol to a nonempty set of output symbols; the
equivocation of two inputs is the (normalized) uncertainty of their image
intersection.  Capacity is the log of the largest codebook whose pairwise
equivocations all clear the size-dependent threshold ``delta / k``; it is
found by a bitset clique search over the ranks of the distinct pair values.
A greedy clique of the sparsest graph, that of the largest size, settles the
sizes up to its own; the clique then carries over to later sizes, cut down to
what survives in their graphs and completed greedily, and the count is
certified by refuting size ``count + 1``.

Two front ends feed that one engine, and both hand it one packed table per
channel: a row per vertex with a fixed-width big-endian field per vertex,
whose field ``j`` of row ``i`` orders the pair ``{i, j}`` among the pair
values, and the table value of each cut.  The graph of a cut is one
``bytes.translate`` of each row (a few when a field needs more than one
byte), in ``_at_most``.  Under a ``CardinalityPower`` a pair's value rises
strictly with the integer ``|N(x1) ∩ N(x2)|``, so the fields are the counts
themselves, each input's row the sum of its outputs' columns, with no
``Fraction`` per pair; the third source, an n-fold product, forms each
block's row as one product of rows filled from its base's counts.  Every
other measure, and ``apps.matrix_capacity``, ranks the ``Fraction`` value
of every pair and writes the ranks into the table by slice assignment.
At zero error a plain channel's one graph, of disjoint images, needs no
table: a row is the complement of the union of its outputs' input columns.

The engine compares only integers: both front ends hand over the distinct
pair values as integer ratios ``(p, q)``, within ``delta / k = dn / (dd k)``
exactly when ``p dd k <= dn q``, and a result's ``thresholds`` are derived.

The cost of a colouring search depends on the order of its vertices.  The
count front end numbers the inputs by ascending image size, which stands in
for the descending degree of MCQ, and a product's blocks in the Kronecker
order of that numbering; the ``Fraction`` front end keeps the input order.
Any top-level search that visits more nodes than its graph has vertices is
dropped, and that graph is renumbered once into smallest-last (degeneracy)
order, where this and every later search on it run with no limit.  The
witness scan walks the symbols in their own order whatever the numbering,
so no answer depends on it.

The information oracle, the second route to capacity, shares nothing with
that engine: it reads the output side of each codebook of distinct-image
representatives once, into ``infocalc``'s reader of that side's overlap
levels.  Every delta takes its sup from one walk of those rows, each at its
top level, which serves both of the oracle's modes (see ``_sup``); the
single-letter certificates take their families from the same rows.

The uncertainty function must be normalized so the full output alphabet has
uncertainty 1 (cardinality-power functions over the whole alphabet already
are).  The theory, and the information oracle, keep ``delta`` below m(V_N),
the uncertainty of the smallest image; the capacity searches stay exact and
finite for any delta < 1, so they take [0, 1), as the reference material does.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from array import array
from fractions import Fraction
from functools import cached_property, cmp_to_key, partial, reduce
from typing import Callable, Optional

from .uvcore import (
    DeltaOutOfRange,
    FiniteGround,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    CardinalityPower,
    _CountResult,
    _frozen,
    _items,
    _sorted_symbols,
    format_ratio,
    level,
)
# overlap_family is unused here; bench/test_bench.py asserts this binding
from .infocalc import _SideLevels, overlap_family

MI_SUP_MAX_SYMBOLS = 12


class SamePoint(UvinfoError):
    """Equivocation of a codeword with itself is excluded."""


class AlphabetTooLarge(UvinfoError):
    """The requested brute-force search is beyond the supported size."""


class NotNormalized(UvinfoError):
    """The uncertainty of the full output alphabet must equal 1."""


@_frozen
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
        try:
            image_list = [frozenset(mapping[x]) for x in xs]
        except (TypeError, LookupError):
            raise UvinfoError("a channel maps inputs to sets of outputs") from None
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
                        f"output symbol {min(stray, key=repr)!r} of input "
                        f"{x!r} is not in the output alphabet")
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
        return min(self.images, key=m.of)

    def min_image_uncertainty(self, m: UncertaintyFunction) -> Fraction:
        return m.of(self.min_image(m))


def ball_channel(points, distance: Callable, radius) -> Channel:
    """The metric-ball channel x -> {y : distance(x, y) <= radius} on a
    finite point set; the packing capacities of metric spaces are the
    special case of channel capacity this constructs."""
    pts = _sorted_symbols(points, "point")
    return Channel.of({x: frozenset(y for y in pts if distance(x, y) <= radius)
                       for x in pts})


def _require_normalized(ch: Channel, m: UncertaintyFunction) -> None:
    _require_unit(m.of(ch.y_ground))


def _require_unit(total: Fraction) -> None:
    if total != 1:
        raise NotNormalized(
            f"m(output alphabet) = {format_ratio(total)}, expected 1")


def as_codebook(ch: Channel, points) -> tuple:
    cb = _sorted_symbols(points, "codebook")
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


def _field_width(largest: int) -> int:
    """The bytes of a table field that holds every value up to ``largest``
    below the all-ones mark of a vertex's own field."""
    width = 1
    while largest >= 256 ** width - 1:
        width *= 2
    return width


def _count_table(images, horizon: int = 1) -> tuple:
    """The pair-count table of the ``horizon``-fold product of inputs with
    ``images``, blocks in the Kronecker order of the inputs' places: the
    field width ``w`` in bytes and, for each block ``i``, the ``w``-byte
    big-endian fields of a row whose field ``j`` is ``|N(i) ∩ N(j)|`` and
    whose own field ``i`` is all ones.

    ``col[y]`` has a 1 in field ``stride * j`` of each input ``j`` that sees
    ``y``, so the columns of ``N(i)`` sum to the row of ``i``, re-spaced;
    as ``|∏A_t ∩ ∏B_t| = ∏|A_t ∩ B_t|``, that of ``a`` spaced by the number
    of blocks ``b`` times that of ``b`` is the row of ``(a, b)``.  ``w``
    holds the largest block image below the all-ones mark: nothing carries.
    """
    width = _field_width(max(map(len, images)) ** horizon)
    bits, full = 8 * width, 256 ** width - 1
    def spaced(stride):
        cols = {y: bytearray(len(images) * stride * width)
                for y in set().union(*images)}
        for i, image in enumerate(images):
            field = width * stride * i
            for y in image:
                cols[y][field] = 1
        # Each column is turned into an int as its bytearray is dropped, so
        # at most one copy of the columns is alive at any time.
        col = {y: int.from_bytes(cols.pop(y), "little") for y in list(cols)}
        return [sum(map(col.__getitem__, image)) for image in images]
    rows = spaced(1)
    for _ in range(horizon - 1):
        rows = [a * b for a in spaced(len(rows)) for b in rows]
    return width, [(row | full << bits * i).to_bytes(len(rows) * width, "big")
                   for i, row in enumerate(rows)]


def _rank_table(n: int, pair_values, limit: Fraction) -> tuple:
    """The ``Fraction`` front end, given the pair values of ``n`` vertices
    in ``itertools.combinations`` order: the ``top`` distinct values at most
    ``limit``, as integer ratios in increasing order, and the table ``(w,
    rows, range(top))`` in ``_count_table``'s layout, field ``j`` of row
    ``i`` the rank of the value of ``{i, j}``, held at ``top``.  The pairs
    of ``i`` with the later vertices are one run of the pair list: reversed,
    the upper part of row ``i`` (field 0 comes last), and column ``i`` of
    the later rows, one extended-slice store; no Python loop visits a pair."""
    # pairs are keyed by (numerator, denominator), exact in lowest terms and
    # far cheaper to hash than the Fraction itself; the distinct values sort
    # by their floats (integer division rounds monotonically; infinity from
    # 2**1000 up), then each run of equal floats by cross multiplication
    keys = list(map(operator.methodcaller("as_integer_ratio"), pair_values))
    by_float = sorted((p / q if p < q << 1000 else math.inf, (p, q))
                      for p, q in set(keys))
    floats, values, end = [f for f, _ in by_float], [v for _, v in by_float], 0
    for tie in itertools.compress(range(1, len(floats)),
                                  map(operator.eq, floats[1:], floats)):
        if tie > end:
            start, end = tie - 1, bisect.bisect_right(floats, floats[tie], tie)
            values[start:end] = sorted(values[start:end], key=cmp_to_key(
                lambda a, b: a[0] * b[1] - b[0] * a[1]))
    ln, ld = limit.as_integer_ratio()
    top = bisect.bisect_right(values, False, key=lambda v: v[0] * ld > ln * v[1])
    rank = {v: min(r, top) for r, v in enumerate(values)}
    width = _field_width(top)
    code = next(c for c in "BHILQ" if array(c).itemsize == width)
    ranks = array(code, map(rank.__getitem__, keys))
    table, start = array(code, [256 ** width - 1]) * (n * n), 0
    for i in range(n):
        run = ranks[start:start + n - 1 - i]
        start += len(run)
        table[i * n:i * n + len(run)] = run[::-1]
        table[(i + 1) * n + len(run)::n] = run
    if sys.byteorder == "little":
        table.byteswap()
    flat, size = table.tobytes(), n * width
    rows = [flat[k:k + size] for k in range(0, n * size, size)]
    return values[:top], (width, rows, range(top))


def _table_sizes(width: int, rows: list, top: int) -> list:
    """The pair intersection sizes in the table up to ``top``, in
    increasing order; ``top`` stays below the all-ones mark.  A size is
    looked for only when each of its bytes is in that byte's plane, and is
    then one ``find`` of its field in the table, skipping any match that
    starts inside a field."""
    table, sizes = b"".join(rows), []
    planes = [table] if width == 1 else [table[k::width] for k in range(width)]
    for s in range(top + 1):
        field = s.to_bytes(width, "big")
        if all(map(bytes.__contains__, planes, field)):
            at = table.find(field)
            while at > 0 and at % width:
                at = table.find(field, at + 1)
            if at >= 0:
                sizes.append(s)
    return sizes


def _at_most(width: int, rows: list, size: int) -> list:
    """The adjacency of the table at ``size``: bit ``j`` of ``adj[i]`` is
    set when field ``j`` of row ``i`` is at most ``size``.  Each byte plane
    of a row is one ``translate`` to a binary string: the last plane gives
    the fields whose last byte is at most that of ``size``, and each plane
    above it keeps them where its byte is equal and adds the fields where
    it is smaller."""
    digits = size.to_bytes(width, "big")
    last = digits[-1]
    up_to = b"1" * (last + 1) + b"0" * (255 - last)
    adj = [int(plane.translate(up_to), 2) for plane in
           (rows if width == 1 else [row[width - 1::width] for row in rows])]
    for k in range(width - 2, -1, -1):
        d = digits[k]
        below = b"1" * d + b"0" * (256 - d)
        equal = b"0" * d + b"1" + b"0" * (255 - d)
        adj = [int(plane.translate(below), 2)
               | int(plane.translate(equal), 2) & a
               for plane, a in zip([row[k::width] for row in rows], adj)]
    return adj


def _disjointness(images) -> list:
    """The graph of inputs with pairwise disjoint ``images``: ``col[y]`` is
    the bitset of the inputs that see ``y``, so ``adj[i]`` is every input
    outside the union of the columns of ``N(i)``."""
    col = dict.fromkeys(set().union(*images), 0)
    for i, image in enumerate(images):
        bit = 1 << i
        for y in image:
            col[y] |= bit
    everyone = (1 << len(images)) - 1
    return [everyone ^ reduce(operator.or_, map(col.__getitem__, image))
            for image in images]


def _front_end(ch: Channel, m: UncertaintyFunction, limit: Fraction,
               horizon: int = 1) -> tuple:
    """The engine's input for ``ch`` under ``m``: the vertex number of each
    input, the distinct pair values at most ``limit`` in increasing order,
    each as an integer ratio ``(p, q)``, and the table ``(w, rows,
    fields)``: ``w``-byte fields as in ``_count_table``, and for each cut
    ``c`` of those values, ``fields[c - 1]``, the field value up to which
    ``_at_most`` joins the pairs whose value is among the first ``c``; or,
    at width 0, the adjacency of the one field, 0, as the rows.

    A ``CardinalityPower`` itself rises strictly with the intersection size,
    so its fields are the sizes that some pair has, up to the largest valued
    at most ``limit``, all read from one ``_count_table`` with no loop over
    pairs, and the value of size ``s`` is ``(s**e, base**e)``.  Its inputs
    are numbered by ascending image size (ties by index): a large image
    meets many others, so it has few neighbours in every graph, and the
    colouring search does best with such inputs last, as MCQ numbers by
    descending degree; no answer depends on it.  A ``limit`` below the
    value of size 1 joins only disjoint images: at ``horizon`` 1 the rows
    are then ``_disjointness``, with no count.  Past ``horizon`` 1 the
    table is the product's under its measure ``m``, blocks in the Kronecker
    order of those numbers.  Every other measure, a subclass included,
    ranks its pair values into a ``_rank_table`` and keeps the input order.
    """
    n = len(ch.x_symbols)
    if type(m) is CardinalityPower:
        order = sorted(range(n), key=list(map(len, ch.images)).__getitem__)
        numbering = sorted(range(n), key=order.__getitem__)  # the inverse
        images = [ch.images[i] for i in order]
        e, whole = m.exponent, m.base_size ** m.exponent
        num, den = limit.as_integer_ratio()
        largest, top = max(map(len, ch.images)) ** horizon, 0
        while top < largest and (top + 1) ** e * den <= num * whole:
            top += 1
        if top or horizon > 1:
            width, rows = _count_table(images, horizon)
            sizes = _table_sizes(width, rows, top)
        else:
            width, rows = 0, _disjointness(images)
            sizes = [0] if any(rows) else []
        return numbering, [(s ** e, whole) for s in sizes], (width, rows, sizes)
    return (range(n), *_rank_table(n, _pair_values(ch, m), limit))


def _product_search(ch: Channel, m: CardinalityPower, delta: Fraction,
                    horizon: int) -> CapacityResult:
    """``capacity`` of the ``horizon``-fold product of ``ch`` under its
    measure ``m``, with no block built: its symbols are block numbers."""
    _require_unit(m.of_size(len(ch.y_symbols) ** horizon))
    delta = level(delta)
    _, values, table = _front_end(ch, m, delta, horizon)
    blocks = range(len(table[1]))
    return _search(blocks, blocks, values, table, delta)


def _noise_floor_search(ch: Channel, m: UncertaintyFunction) -> tuple:
    """One front end, built at the noise floor m(V_N), serves every delta
    below it: the capacity search at such a delta, as a function of it, and
    ``_delta_grid``, the deltas below the floor where its count can change."""
    numbering, values, table = _front_end(ch, m, ch.min_image_uncertainty(m))
    return (partial(_search, ch.x_symbols, numbering, values, table),
            _delta_grid(ch, m, values))


def _delta_grid(ch: Channel, m: UncertaintyFunction, values) -> list:
    """Zero plus every size-scaled positive pair value below the noise floor:
    the deltas at which per-size feasibility can change, in increasing order,
    given the distinct pair values as integer ratios ``(p, q)``."""
    fn, fd = ch.min_image_uncertainty(m).as_integer_ratio()
    grid = {Fraction(0)}
    for p, q in values:
        if p > 0:
            # k p / q is below fn / fd exactly when k p fd < fn q
            last = min(len(ch.x_symbols), (fn * q - 1) // (p * fd))
            grid.update(Fraction(k * p, q) for k in range(1, last + 1))
    return sorted(grid)


@_frozen
class Distinguishability:
    ok: bool
    threshold: Fraction
    violating_pair: Optional[tuple] = None
    violating_value: Optional[Fraction] = None


def check_distinguishable(ch: Channel, m: UncertaintyFunction, codebook,
                          delta: Fraction) -> Distinguishability:
    """Whether all distinct pairs satisfy e_N(x1, x2) <= delta / |codebook|,
    reporting the first (lexicographic) violation otherwise."""
    cb = as_codebook(ch, codebook)
    _require_normalized(ch, m)
    threshold = level(delta) / len(cb)
    for x1, x2 in itertools.combinations(cb, 2):
        value = m.of(ch.image(x1) & ch.image(x2))
        if value > threshold:
            return Distinguishability(False, threshold, (x1, x2), value)
    return Distinguishability(True, threshold)


@_frozen
class CapacityResult(_CountResult):
    count: int
    witness: tuple
    per_size_feasibility: tuple  # ((k, feasible), ...) for every size tried
    delta: Fraction

    render_bits = _CountResult.render

    @property
    def thresholds(self) -> tuple:  # ((k, delta/k), ...), derived when read
        return tuple((k, self.delta / k) for k, _ in self.per_size_feasibility)


# A top-level clique search may visit this many nodes per vertex of its
# graph in the front end's numbering; past that it is dropped and run again,
# with no limit, in smallest-last order.
_STALL_NODES_PER_VERTEX = 1


class _Stalled(Exception):
    """A clique search ran out of nodes."""


def _clique(adj: list, non: list, cand: int, need: int,
            budget: list) -> Optional[int]:
    """A clique of at least ``need`` vertices within the vertex bitset
    ``cand``, as a bitset, or None when there is none: branch and bound
    under a greedy-colouring bound (MCQ, Tomita and Seki 2003, on bitsets as
    in BBMC), since c colour classes hold no clique larger than c.
    ``non`` is ``_complements(adj)``.  The search runs depth first on
    an explicit stack, so a deep clique costs no recursion.  Each node takes
    one from ``budget[0]``, and the search raises ``_Stalled`` when none is
    left."""
    if need <= 0:
        return 0
    left, frames, chosen = budget[0], [], 0
    try:
        while True:
            left -= 1
            if left < 0:
                raise _Stalled
            # colour cand greedily, least vertex first; a class coloured
            # below need heads no clique of need, so only the later classes
            # are kept for branching, each as a bitset
            uncoloured, colour, classes = cand, 0, []
            while uncoloured:
                colour += 1
                free = before = uncoloured
                while free:
                    low = free & -free
                    uncoloured ^= low
                    free &= non[low.bit_length()]
                if colour >= need:
                    classes.append(before ^ uncoloured)
            # one vertex per colour: cand is a clique
            if colour >= need and colour == cand.bit_count():
                return chosen | cand
            while not classes:  # back up to the last node with a branch left
                if not frames:
                    return None
                cand, classes, v = frames.pop()
                chosen ^= 1 << v
                cand ^= 1 << v
                need += 1
            # branch on the last coloured vertex first
            last = classes.pop()
            v = last.bit_length() - 1
            if last ^ 1 << v:
                classes.append(last ^ 1 << v)
            frames.append((cand, classes, v))
            chosen |= 1 << v
            if need == 1:
                return chosen
            cand &= adj[v]
            need -= 1
    finally:
        budget[0] = left


def _permutation(source: list) -> Callable[[int], int]:
    """The map from a vertex bitset to the one whose vertex ``p`` is vertex
    ``source[p]`` of the given one.  The bits pass through a binary string,
    which ``itemgetter`` permutes at C speed."""
    n = len(source)
    pick = operator.itemgetter(*[n - 1 - source[n - 1 - k] for k in range(n)])
    form = f"0{n}b"
    return lambda bits: int("".join(pick(format(bits, form))), 2)


def _smallest_last(adj: list) -> list:
    """A smallest-last (degeneracy) order of the graph (Matula and Beck
    1983): vertices are removed one at a time at least remaining degree and
    numbered from the last removed, so the dense core comes first and the
    search branches on sparse vertices first.  The remaining vertices are
    kept in one bitset per degree; a removal moves each bucket's share of
    its neighbours down one bucket with a single mask."""
    n = len(adj)
    bucket = [0] * n  # bucket[d]: the remaining vertices of degree d
    for v, neighbours in enumerate(adj):
        bucket[neighbours.bit_count()] |= 1 << v
    order, remaining, low = [0] * n, (1 << n) - 1, 0
    for place in range(n - 1, -1, -1):
        while not bucket[low]:
            low += 1
        pick = bucket[low] & -bucket[low]
        bucket[low] ^= pick
        remaining ^= pick
        order[place] = v = pick.bit_length() - 1
        rest, d = adj[v] & remaining, low
        while rest:
            hit = bucket[d] & rest
            if hit:
                bucket[d] ^= hit
                bucket[d - 1] |= hit
                rest ^= hit
            d += 1
        low = max(low - 1, 0)
    return order


def _complements(adj: list) -> list:
    """What a colour class keeps of its free vertices once it takes vertex
    ``v``, ``~(adj[v] | 1 << v)``, at index ``v + 1``: the bit length of
    ``1 << v``, which the colouring has at hand."""
    return [0] + [~(bits | 1 << v) for v, bits in enumerate(adj)]


class _Graph:
    """One graph of the engine as adjacency bitsets, and its clique query.

    A query first completes greedily what survives of its hint; only when
    that falls short does a colouring search run, first on a budget of
    ``_STALL_NODES_PER_VERTEX`` nodes per vertex.  The first search that
    runs out renumbers the graph once into smallest-last order; it and
    every later search on the graph then run there with no limit, their
    answers mapped back."""

    __slots__ = ("adj", "_non", "_relabelled")

    def __init__(self, adj: list):
        self.adj = adj
        self._non = None
        self._relabelled = None

    def clique(self, cand: int, need: int, hint: int = 0) -> Optional[int]:
        """A clique of at least ``need`` vertices within ``cand``, maximal
        there, or None when there is none.  The members of ``hint`` that
        are still a clique here (see ``_maximal``), completed greedily
        within ``cand``, settle the query when they are enough."""
        if cand.bit_count() < need:
            return None
        found = _maximal(self.adj, hint, cand)
        if found.bit_count() >= need:
            return found
        found = self._branch_and_bound(cand, need)
        return None if found is None else _maximal(self.adj, found, cand)

    def _branch_and_bound(self, cand: int, need: int) -> Optional[int]:
        if self._relabelled is None:
            if self._non is None:
                self._non = _complements(self.adj)
            budget = [_STALL_NODES_PER_VERTEX * len(self.adj)]
            try:
                return _clique(self.adj, self._non, cand, need, budget)
            except _Stalled:
                order = _smallest_last(self.adj)
                position = sorted(range(len(order)), key=order.__getitem__)
                into = _permutation(order)
                adj = [into(self.adj[v]) for v in order]
                self._relabelled = (into, _permutation(position), adj,
                                    _complements(adj))
        into, back, adj, non = self._relabelled
        found = _clique(adj, non, into(cand), need, [math.inf])
        return None if found is None else back(found)


def _maximal(adj: list, hint: int, cand: int) -> int:
    """A clique that is maximal among the vertices of ``cand``, built
    greedily, least vertex first: first from the members of ``hint`` in
    ``cand``, each kept when it is adjacent to all kept so far, so a clique
    ``hint`` is kept whole, then from all of ``cand``."""
    clique, reach = 0, -1  # reach: the vertices adjacent to all kept so far
    for pool in (hint & cand, cand):
        common = pool & reach
        while common:
            low = common & -common
            clique |= low
            reach &= adj[low.bit_length() - 1]
            common &= reach
    return clique


def _search(symbols, numbering, values, table,
            delta: Fraction) -> CapacityResult:
    """The engine behind every capacity search (see ``capacity``), given
    ``symbols`` in order with the vertex number of each, distinct pair
    values in increasing order as integer ratios ``(p, q)``, every value at
    most ``delta`` among them, and the table of the front end (see
    ``_front_end``): the graph of cut ``c``, as one neighbour bitset per
    vertex, is ``_at_most`` of the table at ``fields[c - 1]`` (see there for
    width 0)."""
    n, (width, rows, fields) = len(symbols), table
    all_vertices = (1 << n) - 1
    # value p/q is at most delta/k = dn/(dd k) exactly when p dd k <= dn q
    dn, dd = delta.as_integer_ratio()
    keys = [(p * dd, dn * q) for p, q in values]
    graphs = {}  # by cut: no cut's graph is built twice

    def graph(k: int) -> _Graph:
        cut = len(keys)
        while cut and keys[cut - 1][0] * k > keys[cut - 1][1]:
            cut -= 1
        if cut not in graphs:
            graphs[cut] = _Graph(
                [0] * n if not cut else
                _at_most(width, rows, fields[cut - 1]) if width else rows)
        return graphs[cut]

    # size n has the lowest cut, so its graph is a subgraph of every size's:
    # its greedy maximal clique of c vertices proves sizes 1..c
    last = graph(n)
    certificate = clique = _maximal(last.adj, 0, all_vertices)
    count, final = clique.bit_count(), None
    per_size = [(k, True) for k in range(1, count + 1)]
    for k in range(count + 1, n + 1):
        # the maximal clique of the last size certifies this one while it has
        # k vertices in this size's graph; a graph that drops some of its
        # pairs keeps what is left of it, completed greedily, and searches
        # only when that is too small
        size_graph = graph(k)
        if size_graph is not last or clique.bit_count() < k:
            clique = size_graph.clique(all_vertices, k, clique)
        last = size_graph
        per_size.append((k, clique is not None))
        if clique is None:
            break
        count, final, certificate = k, size_graph, clique
    if final is None:  # the clique of size n's graph is the count's
        final = graph(count)
    # include-first scan in symbol order: commit the next symbol exactly
    # when the prefix still completes to a count-clique among the later
    # candidates; ``certificate`` stays such a completion, so a symbol in it
    # needs no query, and its neighbours of any other symbol are the hint
    # of that symbol's query
    adj, witness, cand = final.adj, [], all_vertices
    for symbol, v in zip(symbols, numbering):
        if len(witness) == count:
            break
        if not cand >> v & 1:
            continue
        cand ^= 1 << v
        if not certificate >> v & 1:
            found = final.clique(cand & adj[v], count - len(witness) - 1,
                                 certificate & adj[v])
            if found is None:
                continue
            certificate = found
        witness.append(symbol)
        cand &= adj[v]
        certificate &= cand
    return CapacityResult(count, tuple(witness), tuple(per_size), delta)


def _capacity_search(symbols, pair_values, delta: Fraction) -> CapacityResult:
    """The engine on the pair values of ``symbols``, in combinations order."""
    return _search(symbols, range(len(symbols)),
                   *_rank_table(len(symbols), pair_values, delta), delta)


def capacity(ch: Channel, m: UncertaintyFunction, delta: Fraction) -> CapacityResult:
    """The exact (N, delta)-capacity: the largest codebook size with all
    pairwise equivocations at most delta/size.

    Size k is feasible when the graph G_k joining inputs with equivocation
    at most delta/k has a k-clique; feasibility is monotone nonincreasing in
    the size, as G_k keeps only pairs of G_(k-1) (the threshold delta/k
    shrinks).  So a greedy maximal clique of G_n, of c vertices, proves
    sizes 1..c with no other graph; from c + 1, sizes are searched in
    increasing order up to the first infeasible one, which also certifies
    count + 1 exhaustively.  The distinct equivocations are ranked once into
    one packed table (see the module docstring; zero error needs none), so a
    graph is one byte translation of each row, built at most once per cut,
    and the search, a branch and bound under a greedy-colouring bound,
    compares only integer keys; ``thresholds`` is derived from the result
    when read.  Every clique is kept maximal, as a certificate that carries
    over from size to size: a size whose graph drops pairs it used keeps
    what survives of it, least vertex first, and completes that greedily,
    and a search runs only where that falls short, as at the refutation of
    count + 1.  The witness is the lexicographically least optimal codebook,
    found once at the final size by an include-first scan in symbol order,
    whatever the numbering, whose completion test is the same clique query,
    started from the members of the last certificate among the symbol's
    neighbours.
    """
    _require_normalized(ch, m)
    delta = level(delta)
    return _search(ch.x_symbols, *_front_end(ch, m, delta), delta)


def induced_pair(ch: Channel, codebook) -> UncertainPair:
    """The uncertain pair of a codebook sent through the channel: joint range
    {(x, y) : x in codebook, y in N(x)}, whose section [Y|x] is the image
    N(x)."""
    cb = as_codebook(ch, codebook)
    return UncertainPair(FiniteGround(cb), FiniteGround.of(ch.y_symbols),
                         tuple((x, ch.image(x)) for x in cb))


def distinct_image_representatives(ch: Channel) -> tuple:
    """Least input symbol per distinct image.

    Replacing a codeword by one with the same image (or dropping the
    duplicate) changes neither the output marginal nor the output-side
    family at a fixed scaled level, so sups over codebooks may be taken
    over subsets of these representatives.
    """
    seen = {}
    for x, img in zip(ch.x_symbols, ch.images):
        seen.setdefault(img, x)
    return tuple(sorted(seen.values()))


@_frozen
class MISupResult(_CountResult):
    count: int
    codebook: tuple
    delta_tilde: Fraction
    feasible_only: bool  # the mode asked for; both modes give one sup (_sup)


def _uniform_x(pair: UncertainPair) -> CardinalityPower:
    """The uniform measure on the input marginal of ``pair``."""
    return CardinalityPower(len(pair.marginal_range("X")))


def _require_below_floor(ch: Channel, m: UncertaintyFunction,
                         delta) -> Fraction:
    _require_normalized(ch, m)
    v_min = ch.min_image_uncertainty(m)
    return level(delta, v_min, f"m(V_N) = {format_ratio(v_min)}")


def _codebook_row(ch: Channel, m: UncertaintyFunction, codebook: tuple) -> tuple:
    """``(codebook, levels)``: the codebook and the overlap levels of the
    output side of its induced pair, which hold what any level reads."""
    return codebook, _SideLevels(induced_pair(ch, codebook), m, "Y")


def _codebook_rows(ch: Channel, m: UncertaintyFunction) -> list:
    """The rows of the distinct-image codebooks (see ``_codebook_row``), by
    size, then in combination order."""
    reps = distinct_image_representatives(ch)
    if len(reps) > MI_SUP_MAX_SYMBOLS:
        raise AlphabetTooLarge(
            f"{len(reps)} distinct images exceed the brute-force cap "
            f"of {MI_SUP_MAX_SYMBOLS}")
    return [_codebook_row(ch, m, cb) for size in range(1, len(reps) + 1)
            for cb in itertools.combinations(reps, size)]


def _sup(rows: list, delta: Fraction) -> tuple:
    """``(count, delta_tilde, row)``: the information sup over ``rows`` at
    ``delta``, its level, and the first row to reach it.  Each row C is read
    once, at its top level delta_tilde = |C| * its largest output association
    value (0 when no two images of C meet), where its family is its |C|
    images; it is allowed when delta_tilde * m([Y]) <= delta.  Its one other
    family, the k < |C| components at level 0, never wins: a codebook with
    one codeword per component is smaller, so an earlier row, and scores k
    at level 0.  A missing family scores 1 in the unrestricted mode, as
    every singleton row does first, so one walk serves both modes."""
    best = 0, None, None
    for row in rows:
        codebook, levels = row
        top = Fraction(0) if levels.largest is None else levels.largest * len(codebook)
        if top * levels.m_marginal <= delta and len(levels.ranges) > best[0]:
            best = len(levels.ranges), top, row
    return best


def mi_sup_oracle(ch: Channel, m: UncertaintyFunction, delta: Fraction, *,
                  feasible_only: bool = True) -> MISupResult:
    """Brute-force the coding-theorem right side: the sup over codebooks X
    and levels delta_tilde <= delta / m([Y]) of the output-side mutual
    information at delta_tilde / |X|.

    With ``feasible_only`` the sup ranges over (X, delta_tilde) whose
    output-side overlap family exists (the feasible set); without it a
    missing family scores 0 bits.  Both modes give the same sup: a
    codebook's level-0 family never beats its top level, nor a missing one
    a singleton codebook, so one walk at the top levels serves (``_sup``).
    """
    delta = _require_below_floor(ch, m, delta)
    count, delta_tilde, (codebook, _) = _sup(_codebook_rows(ch, m), delta)
    return MISupResult(count, codebook, delta_tilde, feasible_only)


@_frozen
class CodingTheoremRow:
    delta: Fraction
    capacity_count: int
    capacity_witness: tuple
    sup_count: int
    sup_codebook: tuple
    sup_delta_tilde: Fraction
    unrestricted_count: int  # sup_count: both modes take one walk (_sup)
    match: bool


@_frozen
class CodingTheoremReport:
    rows: tuple
    ok: bool


def verify_coding_theorem(ch: Channel, m: UncertaintyFunction,
                          delta_grid) -> CodingTheoremReport:
    """Check, for every delta in the grid, that the exact capacity equals
    the feasible-set mutual-information sup, and that dropping the
    feasibility restriction changes nothing: it cannot, as ``_sup`` shows,
    so both sups are one walk of the oracle's codebook rows, built once, at
    the first delta that passes its checks."""
    rows, codebooks = [], None
    for delta in _items(delta_grid, "the delta grid"):
        cap = capacity(ch, m, delta)
        delta = _require_below_floor(ch, m, delta)
        codebooks = codebooks or _codebook_rows(ch, m)
        count, delta_tilde, (codebook, _) = _sup(codebooks, delta)
        rows.append(CodingTheoremRow(
            delta, cap.count, cap.witness, count, codebook, delta_tilde,
            count, cap.count == count))
    return CodingTheoremReport(tuple(rows), all(row.match for row in rows))


@_frozen
class AvgOverlapResult(_CountResult):
    count: int
    witness: tuple
    delta: Fraction


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
    delta = level(delta, None)
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
