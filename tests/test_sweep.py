import pytest

from asymbpe.sweep import (PAPER_NMO_SET, BpeConfig, SweepError, SystemResult,
                           enumerate_grid, format_nmo, parse_nmo, recommend,
                           render_tier_text, render_tier_tsv, tier_report)
from conftest import PUBLISHED_TIER_TABLES


def results_from_cell(cell):
    return [SystemResult(BpeConfig(src, tgt), score)
            for src, tgt, score, _delta in cell.values()]


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
        assert len({cfg.label for cfg in grid}) == 64
        for cfg in grid:
            src, tgt = cfg.label.split("_")
            assert BpeConfig(parse_nmo(src), parse_nmo(tgt)) == cfg

    def test_example_label(self):
        assert BpeConfig(16000, 500).label == "16K_500"

    def test_parse_garbage(self):
        with pytest.raises(SweepError):
            parse_nmo("five hundred")


class TestGrid:
    def test_paper_set_yields_64(self):
        assert len(enumerate_grid(PAPER_NMO_SET)) == 64

    def test_singleton(self):
        assert enumerate_grid([500]) == [BpeConfig(500, 500)]

    def test_two_by_two_src_major(self):
        grid = enumerate_grid([500, 1000])
        assert grid == [BpeConfig(500, 500), BpeConfig(500, 1000),
                        BpeConfig(1000, 500), BpeConfig(1000, 1000)]

    def test_duplicates_rejected(self):
        with pytest.raises(SweepError):
            enumerate_grid([500, "0.5K"])

    def test_empty_rejected(self):
        with pytest.raises(SweepError, match="empty NMO set"):
            enumerate_grid([])


class TestClassify:
    def test_symmetric(self):
        assert BpeConfig(4000, 4000).symmetric

    def test_asymmetric_examples(self):
        assert not BpeConfig(16000, 500).symmetric
        assert not BpeConfig(500, 32000).symmetric


class TestTierReport:
    def test_published_hi_en_50k(self):
        cell = PUBLISHED_TIER_TABLES["hi-en"][50_000]
        report = tier_report(results_from_cell(cell))
        assert report.high_a.config == BpeConfig(16000, 500)
        assert report.deltas["High A"] == 5.84
        assert report.baseline.config == BpeConfig(4000, 4000)
        assert report.baseline.score == 23.49

    def test_published_en_hi_100k(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][100_000]
        report = tier_report(results_from_cell(cell))
        assert report.high_a.config == BpeConfig(8000, 500)
        assert report.high_a.score == 35.0
        assert report.deltas["High A"] == 5.96
        assert report.baseline.score == 29.04

    @pytest.mark.parametrize("direction", ["hi-en", "en-hi"])
    def test_full_published_replay(self, direction):
        for size, cell in PUBLISHED_TIER_TABLES[direction].items():
            report = tier_report(results_from_cell(cell))
            for tier, result, delta in report.rows():
                src, tgt, score, expected_delta = cell[tier]
                assert result.config == BpeConfig(src, tgt), (direction, size, tier)
                assert delta == pytest.approx(expected_delta, abs=0.005), (direction, size, tier)

    def test_identical_scores_all_deltas_zero(self):
        results = [SystemResult(c, 50.0) for c in enumerate_grid([500, 1000, 2000])]
        report = tier_report(results)
        assert all(d == 0.0 for d in report.deltas.values())

    def test_insufficient_coverage_error_lists_missing(self):
        with pytest.raises(SweepError, match="asymmetric"):
            tier_report([SystemResult(BpeConfig(500, 500), 10.0),
                         SystemResult(BpeConfig(500, 1000), 11.0)])
        with pytest.raises(SweepError, match="symmetric"):
            tier_report([SystemResult(BpeConfig(500, 1000), 10.0),
                         SystemResult(BpeConfig(1000, 500), 11.0)])

    def test_duplicate_configuration_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            tier_report([SystemResult(BpeConfig(500, 500), 1.0),
                         SystemResult(BpeConfig(500, 500), 2.0),
                         SystemResult(BpeConfig(500, 1000), 3.0),
                         SystemResult(BpeConfig(1000, 500), 4.0)])

    def test_permutation_invariance(self):
        cell = PUBLISHED_TIER_TABLES["hi-en"][100_000]
        results = results_from_cell(cell)
        r1 = tier_report(results)
        r2 = tier_report(results[::-1])
        assert [(t, r.config) for t, r, _ in r1.rows()] == \
            [(t, r.config) for t, r, _ in r2.rows()]

    def test_affine_transform_preserves_identities(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][50_000]
        results = results_from_cell(cell)
        scaled = [SystemResult(r.config, 0.37 * r.score + 4.2) for r in results]
        r1, r2 = tier_report(results), tier_report(scaled)
        assert [(t, r.config) for t, r, _ in r1.rows()] == \
            [(t, r.config) for t, r, _ in r2.rows()]

    def test_tie_break_prefers_smaller_nmos(self):
        results = [SystemResult(BpeConfig(500, 500), 10.0),
                   SystemResult(BpeConfig(500, 1000), 12.0),
                   SystemResult(BpeConfig(1000, 500), 12.0),
                   SystemResult(BpeConfig(2000, 500), 8.0),
                   SystemResult(BpeConfig(500, 2000), 8.0)]
        report = tier_report(results)
        assert report.high_a.config == BpeConfig(500, 1000)
        assert report.low_a.config == BpeConfig(500, 2000)


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
        results = results_from_cell(cell)
        for r in results:
            if not r.config.symmetric and r.score > 24:
                r.p_vs_baseline = 0.004
        report = tier_report(results)
        lines = render_tier_tsv(report)
        assert lines[0].split("\t") == ["tier", "src", "tgt", "chrf", "delta",
                                        "significant_p05", "high_significance"]
        high_a = [l for l in lines if l.startswith("High A")][0]
        assert high_a.split("\t") == ["High A", "16K", "500", "29.33", "5.84", "yes", "*"]

    def test_text_table_aligned(self):
        cell = PUBLISHED_TIER_TABLES["en-hi"][50_000]
        text = "\n".join(render_tier_text(tier_report(results_from_cell(cell))))
        assert "Baseline" in text and "18.39" in text
