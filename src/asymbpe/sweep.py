"""BPE configuration grids, tier reports, and size-conditioned recommendations.

A configuration is a plain ``(src_nmo, tgt_nmo)`` pair of merge-operation
counts, labeled "m1_m2" in K-notation by ``config_label`` ("16K_500";
"0.5K" and "500" both parse to 500), and symmetric when the two are equal.
A tier report is its rows: ``tier_report`` takes a cell's
``(src_nmo, tgt_nmo, score, p_value)`` systems and returns one
``(tier, system, delta)`` row per tier of ``TIERS``. It picks the best
symmetric system as baseline, the top two asymmetric systems (High A/B),
and the bottom two systems overall (Low A/B); deltas are score minus
baseline score.

Low tiers intentionally range over *all* configurations: published tier
tables occasionally surface a symmetric system among the two worst, and the
replay tests require reproducing them verbatim.
"""

from dataclasses import dataclass

PAPER_NMO_SET = (500, 1000, 2000, 4000, 8000, 16000, 25000, 32000)

LOW_BAND_LIMIT = 1_000_000
HIGH_BAND_LIMIT = 4_000_000


class SweepError(ValueError):
    pass


def format_nmo(nmo: int) -> str:
    """500 -> "500", 16000 -> "16K"."""
    if nmo % 1000 == 0 and nmo >= 1000:
        return "%dK" % (nmo // 1000)
    return str(nmo)


def parse_nmo(text) -> int:
    """Accept plain integers and K-notation ("0.5K", "25K"). A K value is
    read exactly and must be a whole number of merges: "1.1K" is 1100, and
    "0.0025K" (2.5 merges) is refused. ``fractions`` and ``decimal`` are
    imported only on those paths, so a plain integer loads neither."""
    if isinstance(text, int) and not isinstance(text, bool):
        value = text
    else:
        s = str(text).strip().upper()
        try:
            if s.endswith("K") and "/" not in s:
                from fractions import Fraction
                # Fraction reads a decimal exactly; it would also read "1/2".
                value = Fraction(s[:-1]) * 1000
            else:
                value = int(s)
        except ValueError:
            raise SweepError("cannot parse NMO value %r" % text) from None
        if value.denominator != 1:
            from decimal import Decimal
            raise SweepError("%r is %s merges, not a whole number"
                             % (text, Decimal(value.numerator) / value.denominator))
        value = int(value)
    if value < 0:
        raise SweepError("NMO must be non-negative, got %d" % value)
    return value


TIERS = ("Low A", "Low B", "Baseline", "High B", "High A")


def config_label(src_nmo, tgt_nmo) -> str:
    """16000, 500 -> "16K_500"."""
    return "%s_%s" % (format_nmo(src_nmo), format_nmo(tgt_nmo))


def enumerate_grid(nmo_set) -> list:
    """Full Cartesian product of (src, tgt) pairs in src-major order."""
    values = [parse_nmo(v) for v in nmo_set]
    if not values:
        raise SweepError("empty NMO set")
    if len(set(values)) != len(values):
        raise SweepError("duplicate NMO values in %r" % (nmo_set,))
    return [(s, t) for s in values for t in values]


def rank_key(score, src_nmo, tgt_nmo):
    """Sort key of the best-first order: higher score first, ties to the
    smaller source NMO, then the smaller target NMO. The first symmetric
    system in this order is the baseline, both of a tier report and of the
    significance tests a sweep runs."""
    return (-score, src_nmo, tgt_nmo)


def tier_report(systems) -> list:
    """Baseline / High A-B / Low A-B tiers for one result cell, from its
    ``(src_nmo, tgt_nmo, score, p_value or None)`` systems, as
    ``(tier, system, delta)`` rows in ``TIERS`` order. Each delta is the
    full-precision score difference, rounded to 2 decimals."""
    systems = list(systems)
    seen = set()
    for src, tgt, _score, _p in systems:
        if (src, tgt) in seen:
            raise SweepError("duplicate result for configuration %s" % config_label(src, tgt))
        seen.add((src, tgt))
    symmetric = [s for s in systems if s[0] == s[1]]
    asymmetric = [s for s in systems if s[0] != s[1]]
    missing = []
    if not symmetric:
        missing.append("at least 1 symmetric configuration")
    if len(asymmetric) < 2:
        missing.append("at least 2 asymmetric configurations (have %d)" % len(asymmetric))
    if missing:
        raise SweepError("insufficient coverage for tier report: need " + "; ".join(missing))

    def best_first(system):
        src, tgt, score, _p = system
        return rank_key(score, src, tgt)

    baseline = min(symmetric, key=best_first)
    highs = sorted(asymmetric, key=best_first)
    lows = [s for s in sorted(systems, key=lambda s: (s[2], s[0], s[1])) if s is not baseline]
    by_tier = {"Low A": lows[0], "Low B": lows[1], "Baseline": baseline,
               "High B": highs[1], "High A": highs[0]}
    # round() keeps the sign of a difference that rounds to zero; adding
    # 0.0 turns -0.0 into 0.0, so it renders as "0.00", not "-0.00".
    return [(tier, by_tier[tier], round(by_tier[tier][2] - baseline[2], 2) + 0.0)
            for tier in TIERS]


@dataclass
class Recommendation:
    resource_band: str
    src_range: tuple
    tgt_range: tuple
    rationale: str


def recommend(dataset_size: int) -> Recommendation:
    """Configuration ranges conditioned on training-corpus size."""
    if dataset_size < 1:
        raise SweepError("dataset size must be >= 1")
    if dataset_size < LOW_BAND_LIMIT:
        return Recommendation(
            "low", (4000, 32000), (500, 2000),
            "below 1M pairs a high source NMO (4K-32K) with a low target NMO "
            "(500-2K) outperforms symmetric configurations by the widest margin")
    if dataset_size < HIGH_BAND_LIMIT:
        return Recommendation(
            "medium", (2000, 8000), (2000, 8000),
            "around 1M pairs the optimal source and target NMO shift to the "
            "medium range (2K-8K) and the spread between configurations narrows")
    return Recommendation(
        "high", (16000, 32000), (16000, 32000),
        "at 4M pairs and above the difference between best and worst "
        "configurations is minimal; large symmetric vocabularies (>=16K) "
        "are acceptable and asymmetry brings only marginal gains")


def significance_markers(p_value) -> tuple:
    """(significant at .05, high-significance marker) per the table legend."""
    if p_value is None:
        return ("", "")
    sig = "yes" if p_value < 0.05 else ""
    star = "*" if p_value < 0.01 else ""
    return (sig, star)


def render_tier_tsv(rows) -> list:
    """``tier_report`` rows as TSV lines, without newlines."""
    lines = ["tier\tsrc\ttgt\tchrf\tdelta\tsignificant_p05\thigh_significance"]
    for tier, (src, tgt, score, p_value), delta in rows:
        sig, star = significance_markers(p_value)
        lines.append("%s\t%s\t%s\t%.2f\t%.2f\t%s\t%s" % (
            tier, format_nmo(src), format_nmo(tgt), score, delta, sig, star))
    return lines


def render_tier_text(rows) -> list:
    """``tier_report`` rows as aligned text lines, without newlines."""
    header = ("tier", "src", "tgt", "CHRF++", "delta", "sig")
    table = [header]
    for tier, (src, tgt, score, p_value), delta in rows:
        sig, star = significance_markers(p_value)
        table.append((tier, format_nmo(src), format_nmo(tgt),
                      "%.2f%s" % (score, star or ("+" if sig else "")),
                      "%.2f" % delta, "p<0.01" if star else ("p<0.05" if sig else "")))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
