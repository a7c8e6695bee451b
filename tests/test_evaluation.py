"""Evaluation harness: Figure 5, Table 3, Table 4, DOM pilot, boxplots."""

import numpy as np
import pytest

from repro.analysis import Study
from repro.evaluation.access_control import (Figure5Row,
                                             evaluate_access_control)
from repro.evaluation.breakage import CATEGORIES, evaluate_breakage
from repro.evaluation.dompilot import evaluate_dom_pilot
from repro.evaluation.performance import (
    METRICS,
    evaluate_performance,
    paired_timings_from_logs,
)
from repro.stats.boxplot import BoxplotStats
import analysis_oracle


@pytest.fixture(scope="module")
def access_eval(population):
    sample = list(population.iter_sites(
        range(1, min(len(population), 150) + 1)))
    return evaluate_access_control(population, sample)


class TestFigure5:
    def test_guard_reduces_every_action(self, access_eval):
        for row in access_eval.rows:
            assert row.pct_sites_guarded < row.pct_sites_regular

    def test_reductions_in_paper_band(self, access_eval):
        for row in access_eval.rows:
            assert 60.0 <= row.reduction_pct <= 100.0

    def test_residual_from_owner_scripts(self, access_eval):
        # The guard's residual comes from first-party scripts: verify the
        # guarded crawl's remaining cross-domain actors are the sites
        # themselves.
        for action in Study(access_eval.guarded_logs).manipulations:
            assert action.actor == action.site

    def test_rows_match_per_log_oracle(self, access_eval):
        """Every Figure 5 number, recomputed one log at a time by the
        test oracle, equals the row ``Study`` gave."""
        def rates(logs):
            sites = {"overwriting": set(), "deleting": set(),
                     "exfiltration": set()}
            for log in logs:
                for action in analysis_oracle.detect_manipulations(log):
                    key = ("overwriting" if action.kind == "overwrite"
                           else "deleting")
                    sites[key].add(log.site)
                if analysis_oracle.detect_exfiltration(log):
                    sites["exfiltration"].add(log.site)
            n = max(len(logs), 1)
            return {key: 100.0 * len(value) / n
                    for key, value in sites.items()}

        regular = rates(access_eval.regular_logs)
        guarded = rates(access_eval.guarded_logs)
        assert access_eval.rows == [
            Figure5Row(action, regular[action], guarded[action])
            for action in ("overwriting", "deleting", "exfiltration")]

    def test_render(self, access_eval):
        text = access_eval.render()
        assert "overwriting" in text and "reduction" in text

    def test_zero_regular_gives_zero_reduction(self):
        assert Figure5Row("x", 0.0, 0.0).reduction_pct == 0.0


class TestTable3:
    def test_nav_and_appearance_never_break(self, population):
        table = evaluate_breakage(population, sample_size=60, top_k=400)
        assert table.minor["navigation"] == 0.0
        assert table.major["navigation"] == 0.0
        assert table.minor["appearance"] == 0.0
        assert table.major["appearance"] == 0.0

    def test_sso_breaks_without_whitelist(self, population):
        table = evaluate_breakage(population, sample_size=80, top_k=400)
        assert table.pct_sites_sso_broken > 3.0

    def test_whitelist_reduces_sso_breakage(self, population):
        plain = evaluate_breakage(population, sample_size=80, top_k=400)
        whitelisted = evaluate_breakage(population, sample_size=80, top_k=400,
                                        use_entity_whitelist=True)
        assert whitelisted.pct_sites_sso_broken < plain.pct_sites_sso_broken

    def test_same_domain_sso_never_breaks(self, population):
        sso_sites = [s for s in population.successful_sites()
                     if s.sso is not None
                     and s.sso.setter_key == s.sso.reader_key]
        if not sso_sites:
            pytest.skip("no same-domain SSO site in sample")
        table = evaluate_breakage(population, sites=sso_sites[:10])
        assert table.pct_sites_sso_broken == 0.0

    def test_cross_provider_sso_always_breaks_without_whitelist(self, population):
        sso_sites = [s for s in population.successful_sites()
                     if s.sso is not None
                     and s.sso.setter_key != s.sso.reader_key]
        if not sso_sites:
            pytest.skip("no cross-domain SSO site in sample")
        table = evaluate_breakage(population, sites=sso_sites[:10])
        assert table.pct_sites_sso_broken == 100.0

    def test_results_recorded_per_site(self, population):
        table = evaluate_breakage(population, sample_size=20, top_k=400)
        assert len(table.results) == table.n_sites
        for result in table.results:
            assert set(result.outcomes) == set(CATEGORIES)

    def test_render(self, population):
        table = evaluate_breakage(population, sample_size=20, top_k=400)
        assert "Minor" in table.render() and "Major" in table.render()


class TestTable4:
    @pytest.fixture(scope="class")
    def report(self, crawl_logs):
        return paired_timings_from_logs(crawl_logs, seed=2025)

    @pytest.fixture(scope="class")
    def low_noise_report(self, crawl_logs):
        # Visit noise is huge relative to the overhead (the paper had
        # 8,171 pairs; this fixture has a few hundred), so mean-shift
        # assertions use a low-noise model while distribution-shape
        # assertions keep the realistic one.
        from repro.browser.timing import PageLoadModel, TimingConfig
        model = PageLoadModel(TimingConfig(visit_sigma=0.03,
                                           stall_probability=0.0,
                                           overhead_spike_probability=0.0))
        return paired_timings_from_logs(crawl_logs, model=model, seed=2025)

    def test_guard_slower_in_all_metrics(self, low_noise_report):
        table = low_noise_report.table4()
        for metric in METRICS:
            assert table[metric]["guard_mean"] > table[metric]["normal_mean"]
            assert table[metric]["guard_median"] > table[metric]["normal_median"]

    def test_heavy_tails(self, report):
        table = report.table4()
        for metric in METRICS:
            assert table[metric]["normal_mean"] > \
                table[metric]["normal_median"] * 1.2

    def test_pairing_loss_applied(self, report, crawl_logs):
        assert report.n_sites < len(crawl_logs)

    def test_median_ratios_modest(self, report):
        for metric, ratio in report.median_ratios().items():
            assert 1.02 < ratio < 1.35  # paper: 1.108–1.122

    def test_mean_overhead_sub_second(self, low_noise_report):
        assert 0 < low_noise_report.mean_overhead_ms() < 1000  # paper: ~300 ms

    def test_boxplots_shift_up(self, report):
        for metric, pair in report.boxplots().items():
            assert pair["with_extension"].median > pair["no_extension"].median

    def test_ratio_outliers_exist(self, report):
        stats = report.ratio_stats()
        assert any(s.n_outliers_high > 0 for s in stats.values())

    def test_renderers(self, report):
        assert "DOM Content Loaded" in report.render_table4()
        assert "1." in report.render_ratios()

    def test_evaluate_performance_wrapper(self, population, crawl_logs):
        report = evaluate_performance(population, logs=crawl_logs)
        assert report.n_sites > 0


class TestDomPilot:
    def test_prevalence_near_paper(self, crawl_logs):
        report = evaluate_dom_pilot(crawl_logs)
        assert 2.0 < report.pct_sites < 20.0  # paper: 9.4%

    def test_kind_breakdown(self, crawl_logs):
        report = evaluate_dom_pilot(crawl_logs)
        assert report.mutations_by_kind
        assert set(report.mutations_by_kind) <= {
            "insert", "remove", "set_attribute", "set_text", "set_style"}

    def test_render(self, crawl_logs):
        assert "%" in evaluate_dom_pilot(crawl_logs).render()


class TestBoxplotStats:
    def test_five_number_summary(self):
        stats = BoxplotStats.from_samples(range(1, 101))
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.n == 100

    def test_whiskers_clamped_to_data(self):
        stats = BoxplotStats.from_samples([1, 2, 3, 4, 5])
        assert stats.whisker_low == 1
        assert stats.whisker_high == 5
        assert stats.n_outliers_low == 0

    def test_outliers_detected(self):
        data = [10.0] * 50 + [11.0] * 50 + [500.0]
        stats = BoxplotStats.from_samples(data)
        assert stats.n_outliers_high == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BoxplotStats.from_samples([])

    def test_iqr(self):
        stats = BoxplotStats.from_samples(range(1, 101))
        assert stats.iqr == pytest.approx(stats.q3 - stats.q1)

    def test_render(self):
        assert "median" in BoxplotStats.from_samples([1, 2, 3]).render("x")
