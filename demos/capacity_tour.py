"""A tour of one channel's capacity, from single shots to long blocks.

The channel has 19 input symbols falling into three interference groups;
outputs within a group are indistinguishable, and the groups leak into one
another through two shared outputs.  We sweep the confusion tolerance to
watch the capacity jump, verify the two independent routes to it agree,
and close with block-coding rates certified by single-letter checks.

Run with:  python3 demos/capacity_tour.py
"""

from fractions import Fraction as F

from uvinfo import (
    CardinalityPower,
    Channel,
    ConfidenceSequence,
    capacity,
    capacity_profile,
    format_ratio,
    information_rate_at_horizon,
    rate_at_horizon,
    verify_coding_theorem,
)


def build_channel() -> Channel:
    group1 = frozenset([1, 2, 3, 4, 5, 6, 11])
    group2 = frozenset([7, 8, 9, 10, 11, 12, 2])
    group3 = frozenset(range(13, 20))
    mapping = {x: group1 for x in range(1, 7)}
    mapping.update({x: group2 for x in range(7, 13)})
    mapping.update({x: group3 for x in range(13, 20)})
    return Channel.of(mapping)


def main() -> None:
    ch = build_channel()
    m = CardinalityPower(19)

    print("== capacity sweep ==")
    for delta in (F(0), F(2, 9), F(6, 19), F(4, 9)):
        result = capacity(ch, m, delta)
        print(f"delta = {format_ratio(delta):>5}: {result.count} messages,"
              f" witness {result.witness}")
    print()

    print("== two routes, one answer ==")
    report = verify_coding_theorem(ch, m, [F(0), F(1, 10), F(2, 9), F(1, 3)])
    for row in report.rows:
        print(f"delta = {format_ratio(row.delta):>4}: "
              f"capacity {row.capacity_count} / information sup "
              f"{row.sup_count} -> {'match' if row.match else 'MISMATCH'}")
    print("all rows match:", report.ok)
    print()

    print("== block rates ==")
    for n in (1, 2):
        delta = F(2, 9) ** n
        rate = rate_at_horizon(ch, m, delta, n)
        if rate != information_rate_at_horizon(ch, m, delta, n):
            raise SystemExit(f"rate and information rate differ at horizon {n}")
        print(f"horizon {n}: rate {rate.render()} bits/use")
    print()

    print("== certified profile under a geometric confidence sequence ==")
    seq = ConfidenceSequence.geometric(F(7, 342), first=F(2, 9))
    profile = capacity_profile(ch, m, seq, 2)
    for row in profile.rows:
        print(f"n = {row.horizon}: level {format_ratio(row.delta_n)},"
              f" rate {row.rate.render()}")
    print("rate range:", profile.inf_label, "to", profile.sup_label)
    for cert in profile.certificates:
        print(f"certificate {cert.theorem} ({cert.notion}):"
              f" {cert.render_bits()} bits, level {format_ratio(cert.level)}")
    for note in profile.notes:
        print("note:", note)


if __name__ == "__main__":
    main()
