"""BPE configuration grids, tier reports, and size-conditioned recommendations.

A configuration pairs a source and a target merge-operation count and is
labeled "m1_m2" in K-notation ("16K_500", "0.5K" and "500" both parse to
500). Tier reports pick the best symmetric system as baseline, the top two
asymmetric systems (High A/B), and the bottom two systems overall
(Low A/B); deltas are score minus baseline score.

Low tiers intentionally range over *all* configurations: published tier
tables occasionally surface a symmetric system among the two worst, and the
replay tests require reproducing them verbatim.
"""

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

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
    "0.0025K" (2.5 merges) is refused."""
    if isinstance(text, int) and not isinstance(text, bool):
        value = text
    else:
        s = str(text).strip().upper()
        try:
            # Fraction reads a decimal exactly; it would also read "1/2".
            value = Fraction(s[:-1]) * 1000 if s.endswith("K") and "/" not in s else int(s)
        except ValueError:
            raise SweepError("cannot parse NMO value %r" % text) from None
        if value.denominator != 1:
            raise SweepError("%r is %s merges, not a whole number"
                             % (text, Decimal(value.numerator) / value.denominator))
        value = int(value)
    if value < 0:
        raise SweepError("NMO must be non-negative, got %d" % value)
    return value


@dataclass(frozen=True, order=True)
class BpeConfig:
    src_nmo: int
    tgt_nmo: int

    @property
    def label(self) -> str:
        return "%s_%s" % (format_nmo(self.src_nmo), format_nmo(self.tgt_nmo))

    @property
    def symmetric(self) -> bool:
        return self.src_nmo == self.tgt_nmo


def enumerate_grid(nmo_set) -> list:
    """Full Cartesian product in src-major order."""
    values = [parse_nmo(v) for v in nmo_set]
    if not values:
        raise SweepError("empty NMO set")
    if len(set(values)) != len(values):
        raise SweepError("duplicate NMO values in %r" % (nmo_set,))
    return [BpeConfig(s, t) for s in values for t in values]


@dataclass
class SystemResult:
    config: BpeConfig
    score: float
    p_vs_baseline: float | None = None


@dataclass
class TierReport:
    baseline: SystemResult
    high_a: SystemResult
    high_b: SystemResult
    low_a: SystemResult
    low_b: SystemResult
    deltas: dict = field(default_factory=dict)

    TIERS = ("Low A", "Low B", "Baseline", "High B", "High A")

    def rows(self):
        by_tier = {"Low A": self.low_a, "Low B": self.low_b,
                   "Baseline": self.baseline, "High B": self.high_b,
                   "High A": self.high_a}
        for tier in self.TIERS:
            yield tier, by_tier[tier], self.deltas[tier]


def _best_key(result: SystemResult):
    # Higher score wins; ties prefer smaller src then tgt NMO.
    return (-result.score, result.config.src_nmo, result.config.tgt_nmo)


def _worst_key(result: SystemResult):
    return (result.score, result.config.src_nmo, result.config.tgt_nmo)


def tier_report(results) -> TierReport:
    """Baseline / High A-B / Low A-B tiers for one result cell. Each delta
    is the full-precision score difference, rounded to 2 decimals."""
    results = list(results)
    seen = set()
    for r in results:
        if r.config in seen:
            raise SweepError("duplicate result for configuration %s" % r.config.label)
        seen.add(r.config)
    symmetric = [r for r in results if r.config.symmetric]
    asymmetric = [r for r in results if not r.config.symmetric]
    missing = []
    if not symmetric:
        missing.append("at least 1 symmetric configuration")
    if len(asymmetric) < 2:
        missing.append("at least 2 asymmetric configurations (have %d)" % len(asymmetric))
    if missing:
        raise SweepError("insufficient coverage for tier report: need " + "; ".join(missing))

    baseline = min(symmetric, key=_best_key)
    highs = sorted(asymmetric, key=_best_key)
    lows = sorted(results, key=_worst_key)
    high_a, high_b = highs[0], highs[1]
    low_candidates = [r for r in lows if r is not baseline][:2]
    low_a, low_b = low_candidates[0], low_candidates[1]

    def delta(r):
        return round(r.score - baseline.score, 2)

    deltas = {"Baseline": delta(baseline), "High A": delta(high_a),
              "High B": delta(high_b), "Low A": delta(low_a), "Low B": delta(low_b)}
    return TierReport(baseline, high_a, high_b, low_a, low_b, deltas)


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


def render_tier_tsv(report: TierReport) -> str:
    lines = ["tier\tsrc\ttgt\tchrf\tdelta\tsignificant_p05\thigh_significance"]
    for tier, result, delta in report.rows():
        sig, star = significance_markers(result.p_vs_baseline)
        lines.append("%s\t%s\t%s\t%.2f\t%.2f\t%s\t%s" % (
            tier, format_nmo(result.config.src_nmo), format_nmo(result.config.tgt_nmo),
            result.score, delta, sig, star))
    return "\n".join(lines) + "\n"


def render_tier_text(report: TierReport) -> str:
    header = ("tier", "src", "tgt", "CHRF++", "delta", "sig")
    rows = [header]
    for tier, result, delta in report.rows():
        sig, star = significance_markers(result.p_vs_baseline)
        mark = (star or ("+" if sig else "")) if result.p_vs_baseline is not None else ""
        rows.append((tier, format_nmo(result.config.src_nmo),
                     format_nmo(result.config.tgt_nmo),
                     "%.2f%s" % (result.score, mark), "%.2f" % delta,
                     "p<0.01" if star else ("p<0.05" if sig else "")))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows) + "\n"
