"""The information oracle's one walk against a copy of the two-level walk it
replaced.

``chancap._sup`` reads each codebook row once, at its top level, and takes no
mode.  It used to try level 0 for every row as well, and to drop a missing
family only in the feasible mode; ``reference_sup`` is a verbatim copy of
that walk, ``reference_verify`` and ``reference_certify_t14`` verbatim copies
of ``verify_coding_theorem`` and ``memoryless._certify_t14`` as they called
it.  Seeded channels must give the same ``MISupResult`` and the same row
object in both modes, the same ``verify_coding_theorem`` report, and the same
T14 certificates, from ``single_letter_check`` and from the profiles of
vanishing sequences.
"""

import random
from fractions import Fraction

from uvinfo import chancap, infocalc, memoryless
from uvinfo.chancap import (
    Channel,
    CodingTheoremReport,
    CodingTheoremRow,
    MISupResult,
    _codebook_rows,
    _require_below_floor,
    capacity,
)
from uvinfo.memoryless import ConfidenceSequence, _certify
from uvinfo.uvcore import CardinalityPower, ExplicitWeights, UvinfoError

F = Fraction


# ---------------------------------------------------------------------------
# the reference: the two-level walk and its two callers


def reference_sup(rows: list, delta: Fraction, feasible_only: bool) -> tuple:
    """The ``mi_sup_oracle`` result over ``rows``, and its codebook's row."""
    best = None
    for row in rows:
        codebook, levels = row
        tries = [(levels.family(0), Fraction(0))]
        if levels.largest is not None:
            top = levels.largest * len(codebook)
            if top * levels.m_marginal <= delta:
                tries.append((levels.ranges, top))
        for sets, delta_tilde in tries:
            if sets is None and feasible_only:
                continue
            count = 1 if sets is None else len(sets)
            if best is None or count > best[0].count:
                best = MISupResult(count, codebook, delta_tilde,
                                   feasible_only), row
    assert best is not None, "the singleton codebook is always feasible"
    return best


def reference_verify(ch, m, delta_grid) -> CodingTheoremReport:
    rows, codebooks = [], None
    for delta in delta_grid:
        cap = capacity(ch, m, delta)
        delta = _require_below_floor(ch, m, delta)
        codebooks = codebooks or _codebook_rows(ch, m)
        sup, free = (reference_sup(codebooks, delta, mode)[0] for mode in (True, False))
        rows.append(CodingTheoremRow(
            delta, cap.count, cap.witness, sup.count, sup.codebook,
            sup.delta_tilde, free.count, cap.count == sup.count == free.count))
    return CodingTheoremReport(tuple(rows), all(row.match for row in rows))


def reference_certify_t14(ch, m, rows, best_count, best_delta):
    sup, row = reference_sup(rows, best_delta, True)
    return _certify("T14", ch, m, row, best_count, best_delta,
                    sup.delta_tilde, None)


def outcome(call, *args):
    """A call's result with its ``repr``, which shows the type of every
    ratio, or the class and message of the ``UvinfoError`` it raised."""
    try:
        result = call(*args)
    except UvinfoError as exc:
        return type(exc), str(exc)
    return result, repr(result)


# ---------------------------------------------------------------------------
# seeded channels

KINDS = ("repeated", "singleton", "disjoint", "meeting", "mixed")


def seeded_images(rng: random.Random, kind: str, outputs: int) -> list:
    """1-6 images on ``outputs`` outputs: some repeated, all singletons,
    pairwise disjoint, all meeting in output 0, or drawn freely."""
    n = rng.randint(1, 6)
    if kind == "repeated":
        pool = [frozenset(rng.sample(range(outputs), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(n)]
    if kind == "singleton":
        return [frozenset({rng.randrange(outputs)}) for _ in range(n)]
    if kind == "disjoint":
        ys = rng.sample(range(outputs), outputs)
        cuts = sorted(rng.sample(range(1, outputs), min(n, outputs) - 1))
        return [frozenset(ys[a:b]) for a, b in zip([0] + cuts, cuts + [outputs])]
    if kind == "meeting":
        return [frozenset({0, *rng.sample(range(1, outputs), rng.randint(0, 2))})
                for _ in range(n)]
    return [frozenset(rng.sample(range(outputs), rng.randint(1, 3)))
            for _ in range(n)]


def seeded_case(rng: random.Random, kind: str, measure: int) -> tuple:
    """A channel of ``kind``, a measure on its outputs (a cardinality power
    of exponent ``measure`` in 1-3, or weights when it is 4), and deltas
    below its noise floor: every grid delta, 0 and fractions of the floor."""
    outputs = rng.randint(3, 9)
    images = seeded_images(rng, kind, outputs)
    ch = Channel.of(dict(enumerate(images)), y_alphabet=range(outputs))
    if measure <= 3:
        m = CardinalityPower(outputs, measure)
    else:
        weights = {y: rng.randint(1, 9) for y in range(outputs)}
        m = ExplicitWeights.of_mapping(weights, sum(weights.values()))
    v_min = ch.min_image_uncertainty(m)
    _, grid = chancap._noise_floor_search(ch, m)
    fractions = [v_min * F(k, d) for k, d in ((1, 100), (1, 5), (1, 2), (4, 5), (99, 100))]
    return ch, m, sorted(set(grid) | {F(0)} | set(fractions))


def seeded_cases(seed: int, per_kind: int):
    rng = random.Random(seed)
    for i in range(per_kind):
        for kind in KINDS:
            yield kind, seeded_case(rng, kind, 1 + i % 4)


class TestOneWalkMatchesTheTwoLevelWalk:
    def test_seeded_channels(self, monkeypatch):
        kinds, levels, certified = set(), set(), 0
        for kind, (ch, m, deltas) in seeded_cases(29, 64):
            rows = _codebook_rows(ch, m)
            for delta in deltas:
                count, delta_tilde, row = chancap._sup(rows, delta)
                levels.add(delta_tilde > 0)
                for mode in (True, False):
                    want, want_row = reference_sup(rows, delta, mode)
                    got = MISupResult(count, row[0], delta_tilde, mode)
                    assert (got, repr(got)) == (want, repr(want))
                    assert row is want_row
                    assert outcome(lambda: chancap.mi_sup_oracle(
                        ch, m, delta, feasible_only=mode)) == (want, repr(want))
            got = [outcome(chancap.verify_coding_theorem, ch, m, deltas)]
            want = [outcome(reference_verify, ch, m, deltas)]
            sequences = (ConfidenceSequence.zero(),
                         ConfidenceSequence.geometric(F(1, 2), scale=deltas[-1]))
            for reading in (got, want):
                with monkeypatch.context() as patch:
                    if reading is want:
                        patch.setattr(memoryless, "_certify_t14",
                                      reference_certify_t14)
                    reading.append(outcome(memoryless.single_letter_check,
                                           ch, m, "T14"))
                    reading.extend(outcome(memoryless.capacity_profile,
                                           ch, m, seq, 1) for seq in sequences)
            assert got == want
            kinds.add(kind)
            certified += isinstance(got[1][0], memoryless.SingleLetterCertificate) \
                and got[1][0].certifies
        # every kind, winners at level 0 and above it, and certificates
        assert kinds == set(KINDS) and levels == {False, True} and certified > 50

    def test_the_oracle_reads_no_input_side(self, monkeypatch):
        # at the top level a row's family is its distinct images, read off
        # the output side; only a level below the least association value
        # reads the input side, and the walk asks for none
        sides = []
        profile = infocalc.side_profile

        def recording(pair, side):
            sides.append(side)
            return profile(pair, side)

        monkeypatch.setattr(infocalc, "side_profile", recording)
        for kind, (ch, m, deltas) in seeded_cases(7, 8):
            chancap.verify_coding_theorem(ch, m, deltas)
            for delta in deltas:
                for mode in (True, False):
                    chancap.mi_sup_oracle(ch, m, delta, feasible_only=mode)
        assert sides and "X" not in sides
