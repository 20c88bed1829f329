"""Independent answers for the benchmark's capacity queries.

Nothing here imports uvinfo.  Channels are plain ``{input: set(outputs)}``
maps over the outputs ``0..n_outputs-1`` with the normalized counting
measure, so the equivocation of two inputs is ``|N(a) & N(b)| / n_outputs``
(``/ n_outputs**horizon`` on a product channel).  Two routes compute the
(N, delta)-capacity count and its lexicographically least witness:

* ``brute_force_capacity`` enumerates subsets in lexicographic order (up to
  about 20 inputs);
* ``clique_capacity`` decides each size k with a bitset branch and bound
  on the graph joining inputs whose equivocation is at most delta/k.

``witness_problems`` checks a returned witness pair by pair with exact
``Fraction`` arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def product_map(base: dict, horizon: int) -> dict:
    """The horizon-n extension of a base channel: blocks of inputs mapped to
    the product of their per-symbol images."""
    return {block: set(itertools.product(*(sorted(base[x]) for x in block)))
            for block in itertools.product(sorted(base), repeat=horizon)}


def pair_value(images: dict, a, b, n_outputs: int) -> Fraction:
    return Fraction(len(images[a] & images[b]), n_outputs)


def witness_problems(images: dict, n_outputs: int, delta: Fraction,
                     count: int, witness) -> list:
    """Everything wrong with (count, witness) as a capacity answer that can
    be seen without searching: the witness must be a sorted list of
    distinct inputs of length ``count`` whose pairs all stay within
    delta/count."""
    problems = []
    witness = list(witness)
    if len(witness) != count:
        problems.append(f"witness has {len(witness)} symbols, count is {count}")
    if witness != sorted(set(witness)):
        problems.append("witness is not sorted and duplicate-free")
    stray = [x for x in witness if x not in images]
    if stray:
        problems.append(f"witness symbol {stray[0]!r} is not an input")
        return problems
    if count >= 1:
        threshold = delta / count
        for a, b in itertools.combinations(witness, 2):
            value = pair_value(images, a, b, n_outputs)
            if value > threshold:
                problems.append(
                    f"pair ({a!r}, {b!r}) has equivocation {value} > {threshold}")
                break
    return problems


def _pair_values(images: dict, symbols: list, n_outputs: int) -> dict:
    return {(i, j): pair_value(images, symbols[i], symbols[j], n_outputs)
            for i, j in itertools.combinations(range(len(symbols)), 2)}


def _adjacency(values: dict, n: int, threshold: Fraction) -> list:
    adj = [0] * n
    for (i, j), value in values.items():
        if value <= threshold:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _colour_order(adj: list, cand: int) -> tuple:
    """Greedy sequential colouring of ``cand``; returns the vertices in
    colour order with their colour numbers (a clique uses each colour at
    most once, so the colour of a vertex bounds the clique size among it
    and the vertices before it)."""
    order, colours = [], []
    uncoloured, colour = cand, 0
    while uncoloured:
        colour += 1
        free = uncoloured
        while free:
            low = free & -free
            v = low.bit_length() - 1
            free &= ~adj[v] & ~low
            uncoloured &= ~low
            order.append(v)
            colours.append(colour)
    return order, colours


def has_clique(adj: list, cand: int, need: int) -> bool:
    """Whether the vertex set ``cand`` (a bitset) holds a clique of size
    ``need``."""
    if need <= 0:
        return True
    if bin(cand).count("1") < need:
        return False
    order, colours = _colour_order(adj, cand)
    for idx in range(len(order) - 1, -1, -1):
        if colours[idx] < need:
            return False
        v = order[idx]
        if has_clique(adj, cand & adj[v], need - 1):
            return True
        cand &= ~(1 << v)
    return False


def _least_clique(adj: list, n: int, k: int) -> list:
    """Lexicographically least k-clique, by including each vertex in order
    exactly when the choice still completes."""
    chosen, cand = [], (1 << n) - 1
    for v in range(n):
        if len(chosen) == k:
            break
        if not (cand >> v) & 1:
            continue
        later = cand & adj[v] & ~((1 << (v + 1)) - 1)
        if has_clique(adj, later, k - len(chosen) - 1):
            chosen.append(v)
            cand = later
    return chosen


def clique_capacity(images: dict, n_outputs: int, delta: Fraction) -> tuple:
    """(count, witness) by per-size clique search; sizes are tried in
    increasing order up to the first infeasible one."""
    symbols = sorted(images)
    n = len(symbols)
    values = _pair_values(images, symbols, n_outputs)
    count, feasible_adj = 1, None
    for k in range(2, n + 1):
        adj = _adjacency(values, n, delta / k)
        if not has_clique(adj, (1 << n) - 1, k):
            break
        count, feasible_adj = k, adj
    best = [0] if count == 1 else _least_clique(feasible_adj, n, count)
    return count, [symbols[i] for i in best]


def brute_force_capacity(images: dict, n_outputs: int, delta: Fraction) -> tuple:
    """(count, witness) by enumerating every k-subset in lexicographic
    order; exponential, meant for channels of about 20 inputs."""
    symbols = sorted(images)
    values = _pair_values(images, symbols, n_outputs)
    count, witness = 1, [0]
    for k in range(2, len(symbols) + 1):
        threshold = delta / k
        found = next(
            (cb for cb in itertools.combinations(range(len(symbols)), k)
             if all(values[pair] <= threshold
                    for pair in itertools.combinations(cb, 2))),
            None)
        if found is None:
            break
        count, witness = k, found
    return count, [symbols[i] for i in witness]
