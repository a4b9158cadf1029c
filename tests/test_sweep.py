import pytest

from asymbpe.sweep import (PAPER_NMO_SET, TIERS, SweepError, config_label, enumerate_grid,
                           format_nmo, parse_nmo, recommend, render_tier_text,
                           render_tier_tsv, tier_report)
from conftest import PUBLISHED_TIER_TABLES


def results_from_cell(cell):
    return [(src, tgt, score, None) for src, tgt, score, _delta in cell.values()]


def by_tier(rows):
    """tier -> (system, delta) of ``tier_report`` rows."""
    return {tier: (system, delta) for tier, system, delta in rows}


class TestNotation:
    @pytest.mark.parametrize("text,value", [
        ("500", 500), ("0.5K", 500), ("1K", 1000), ("25K", 25000),
        ("32k", 32000), ("2000", 2000), (16000, 16000), ("1.1K", 1100),
        ("0.001K", 1), ("0.0K", 0)])
    def test_parse(self, text, value):
        got = parse_nmo(text)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("text, merges", [
        ("0.0025K", "2.5"), ("0.0015K", "1.5"), ("0.0004K", "0.4"), ("1.0005K", "1000.5")])
    def test_fractional_merges_rejected(self, text, merges):
        # Each used to round: 0.0025K and 0.0015K both gave 2, 0.0004K gave 0.
        with pytest.raises(SweepError, match="is %s merges" % merges) as err:
            parse_nmo(text)
        assert repr(text) in str(err.value)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, value):
        with pytest.raises(SweepError, match=repr(value)):
            parse_nmo(value)

    @pytest.mark.parametrize("value,text", [
        (500, "500"), (1000, "1K"), (25000, "25K"), (32000, "32K"), (750, "750")])
    def test_format(self, value, text):
        assert format_nmo(value) == text

    def test_label_roundtrip(self):
        # Labels name run directories, so the paper's 64 must be distinct,
        # and each half of one parses back to its NMO.
        grid = enumerate_grid(PAPER_NMO_SET)
        assert len({config_label(*cfg) for cfg in grid}) == 64
        for cfg in grid:
            src, tgt = config_label(*cfg).split("_")
            assert (parse_nmo(src), parse_nmo(tgt)) == cfg

    def test_example_label(self):
        assert config_label(16000, 500) == "16K_500"

    def test_parse_garbage(self):
        with pytest.raises(SweepError):
            parse_nmo("five hundred")


class TestGrid:
    def test_paper_set_yields_64(self):
        assert len(enumerate_grid(PAPER_NMO_SET)) == 64

    def test_singleton(self):
        assert enumerate_grid([500]) == [(500, 500)]

    def test_two_by_two_src_major(self):
        grid = enumerate_grid([500, 1000])
        assert grid == [(500, 500), (500, 1000), (1000, 500), (1000, 1000)]

    def test_duplicates_rejected(self):
        with pytest.raises(SweepError):
            enumerate_grid([500, "0.5K"])

    def test_empty_rejected(self):
        with pytest.raises(SweepError, match="empty NMO set"):
            enumerate_grid([])


class TestTierReport:
    def test_published_hi_en_50k(self):
        cell = PUBLISHED_TIER_TABLES["hi-en"][50_000]
        report = by_tier(tier_report(results_from_cell(cell)))
        assert report["High A"][0][:2] == (16000, 500)
        assert report["High A"][1] == 5.84
        assert report["Baseline"][0][:2] == (4000, 4000)
        assert report["Baseline"][0][2] == 23.49

    def test_published_en_hi_100k(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][100_000]
        report = by_tier(tier_report(results_from_cell(cell)))
        assert report["High A"][0][:2] == (8000, 500)
        assert report["High A"][0][2] == 35.0
        assert report["High A"][1] == 5.96
        assert report["Baseline"][0][2] == 29.04

    @pytest.mark.parametrize("direction", ["hi-en", "en-hi"])
    def test_full_published_replay(self, direction):
        for size, cell in PUBLISHED_TIER_TABLES[direction].items():
            rows = tier_report(results_from_cell(cell))
            assert [tier for tier, _system, _delta in rows] == list(TIERS)
            for tier, system, delta in rows:
                src, tgt, score, expected_delta = cell[tier]
                assert system[:2] == (src, tgt), (direction, size, tier)
                assert delta == pytest.approx(expected_delta, abs=0.005), (direction, size, tier)

    def test_headline_averages_replay(self):
        # The abstract reports average gains of 5.32, 4.46 and 0.7 CHRF++ at
        # 50K, 100K and 500K pairs. Averaged over both directions, the
        # published High A deltas give 5.64, 3.715 and 0.70, and the High A/B
        # deltas 5.265, 3.625 and 0.5475: only 500K's 0.70 matches, so the
        # reading behind 5.32 and 4.46 cannot be recovered from the tier cells.
        def mean_delta(size, tiers):
            deltas = [delta for table in PUBLISHED_TIER_TABLES.values()
                      for tier, _system, delta in tier_report(results_from_cell(table[size]))
                      if tier in tiers]
            return sum(deltas) / len(deltas)

        high_a = {size: mean_delta(size, ("High A",)) for size in (50_000, 100_000, 500_000)}
        assert round(high_a[500_000], 2) == 0.7
        assert high_a == pytest.approx({50_000: 5.64, 100_000: 3.715, 500_000: 0.70})
        high_ab = {size: mean_delta(size, ("High A", "High B"))
                   for size in (50_000, 100_000, 500_000)}
        assert high_ab == pytest.approx({50_000: 5.265, 100_000: 3.625, 500_000: 0.5475})

    def test_identical_scores_all_deltas_zero(self):
        results = [(src, tgt, 50.0, None) for src, tgt in enumerate_grid([500, 1000, 2000])]
        assert all(d == 0.0 for _tier, _system, d in tier_report(results))

    def test_insufficient_coverage_error_lists_missing(self):
        with pytest.raises(SweepError, match="asymmetric"):
            tier_report([(500, 500, 10.0, None), (500, 1000, 11.0, None)])
        with pytest.raises(SweepError, match="symmetric"):
            tier_report([(500, 1000, 10.0, None), (1000, 500, 11.0, None)])

    def test_duplicate_configuration_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            tier_report([(500, 500, 1.0, None), (500, 500, 2.0, None),
                         (500, 1000, 3.0, None), (1000, 500, 4.0, None)])

    def test_permutation_invariance(self):
        cell = PUBLISHED_TIER_TABLES["hi-en"][100_000]
        results = results_from_cell(cell)
        r1 = tier_report(results)
        r2 = tier_report(results[::-1])
        assert [(t, s[:2]) for t, s, _ in r1] == [(t, s[:2]) for t, s, _ in r2]

    def test_affine_transform_preserves_identities(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][50_000]
        results = results_from_cell(cell)
        scaled = [(src, tgt, 0.37 * score + 4.2, p) for src, tgt, score, p in results]
        r1, r2 = tier_report(results), tier_report(scaled)
        assert [(t, s[:2]) for t, s, _ in r1] == [(t, s[:2]) for t, s, _ in r2]

    def test_tie_break_prefers_smaller_nmos(self):
        results = [(500, 500, 10.0, None), (500, 1000, 12.0, None), (1000, 500, 12.0, None),
                   (2000, 500, 8.0, None), (500, 2000, 8.0, None)]
        report = by_tier(tier_report(results))
        assert report["High A"][0][:2] == (500, 1000)
        assert report["Low A"][0][:2] == (500, 2000)


class TestRecommend:
    def test_low_band(self):
        rec = recommend(100_000)
        assert rec.resource_band == "low"
        assert rec.src_range == (4000, 32000)
        assert rec.tgt_range == (500, 2000)

    def test_medium_band(self):
        rec = recommend(1_000_000)
        assert rec.resource_band == "medium"
        assert rec.src_range == rec.tgt_range == (2000, 8000)

    def test_high_band(self):
        rec = recommend(8_000_000)
        assert rec.resource_band == "high"
        assert rec.src_range[0] >= 16000

    def test_invalid_size(self):
        with pytest.raises(SweepError):
            recommend(0)


class TestRendering:
    def test_tsv_columns_and_markers(self):
        cell = PUBLISHED_TIER_TABLES["hi-en"][50_000]
        results = [(src, tgt, score, 0.004 if src != tgt and score > 24 else None)
                   for src, tgt, score, _p in results_from_cell(cell)]
        lines = render_tier_tsv(tier_report(results))
        assert lines[0].split("\t") == ["tier", "src", "tgt", "chrf", "delta",
                                        "significant_p05", "high_significance"]
        high_a = [l for l in lines if l.startswith("High A")][0]
        assert high_a.split("\t") == ["High A", "16K", "500", "29.33", "5.84", "yes", "*"]

    def test_text_table_aligned(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][50_000]
        text = "\n".join(render_tier_text(tier_report(results_from_cell(cell))))
        assert "Baseline" in text and "18.39" in text
