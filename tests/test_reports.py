"""Study report generators — each table/figure on the session crawl."""

import pytest

from repro.analysis.reports import (
    CONSENT_SIGNAL_COOKIES,
    Study,
    render_ranked,
    render_table1,
    render_table2,
    render_table5,
)
from repro.records import API_COOKIE_STORE, API_DOCUMENT_COOKIE
from test_attribution import header, log_with, write


class TestTable1:
    def test_six_rows(self, study):
        rows = study.table1()
        assert len(rows) == 6
        assert {(r.cookie_type, r.action) for r in rows} == {
            (api, action)
            for api in (API_DOCUMENT_COOKIE, API_COOKIE_STORE)
            for action in ("exfiltration", "overwriting", "deleting")}

    def test_ordering_matches_paper(self, study):
        rows = {(r.cookie_type, r.action): r for r in study.table1()}
        doc = API_DOCUMENT_COOKIE
        # exfiltration ≫ overwriting > deleting (Table 1's shape).
        assert rows[(doc, "exfiltration")].pct_websites > \
            rows[(doc, "overwriting")].pct_websites > \
            rows[(doc, "deleting")].pct_websites

    def test_cookiestore_rare(self, study):
        rows = {(r.cookie_type, r.action): r for r in study.table1()}
        cs = API_COOKIE_STORE
        assert rows[(cs, "exfiltration")].pct_websites < 3.0
        assert rows[(cs, "overwriting")].pct_websites == 0.0
        assert rows[(cs, "deleting")].pct_websites == 0.0

    def test_percentages_valid(self, study):
        for row in study.table1():
            assert 0.0 <= row.pct_websites <= 100.0
            assert 0.0 <= row.pct_cookies <= 100.0

    def test_render(self, study):
        text = render_table1(study.table1())
        assert "exfiltration" in text and "document.cookie" in text

    # Table 1 splits by the API that created the cookie, not the API of
    # the write acting on it.
    @staticmethod
    def _rows(log):
        study = Study([log])
        return study, {(r.cookie_type, r.action): r for r in study.table1()}

    def test_http_cookie_overwritten_by_script_counts_nowhere(self):
        log = log_with(headers=[header("srv_pref")],
                       writes=[write("srv_pref", kind="overwrite",
                                     domain="tracker.com",
                                     api=API_DOCUMENT_COOKIE)])
        study, rows = self._rows(log)
        overwrite, = study.manipulations
        assert overwrite.api_of_cookie == "http"
        assert all(row.n_cookies == 0 and row.pct_websites == 0.0
                   for row in rows.values())

    def test_delete_counts_under_the_creating_api(self):
        log = log_with(writes=[
            write("cs_id", domain="cdn.com", api=API_COOKIE_STORE, ts=1.0),
            write("cs_id", kind="delete", domain="tracker.com",
                  api=API_DOCUMENT_COOKIE, ts=2.0)])
        _study, rows = self._rows(log)
        store = rows[(API_COOKIE_STORE, "deleting")]
        assert (store.n_cookies, store.pct_websites) == (1, 100.0)
        assert rows[(API_DOCUMENT_COOKIE, "deleting")].n_cookies == 0


class TestTable2:
    def test_ga_tops(self, study):
        rows = study.table2(20)
        assert rows[0].cookie_name == "_ga"
        assert rows[0].owner_domain in ("googletagmanager.com",
                                        "google-analytics.com")

    def test_sorted_by_destination_entities(self, study):
        rows = study.table2(20)
        counts = [r.n_destination_entities for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_owner_entity_excluded_from_exfiltrators(self, study):
        from repro.analysis.entities import default_entity_map
        entities = default_entity_map()
        for row in study.table2(10):
            owner_entity = entities.entity_of(row.owner_domain)
            assert owner_entity not in row.top_exfiltrators

    def test_consent_signal_flagged(self, study):
        rows = study.table2(40)
        us_privacy = [r for r in rows if r.cookie_name == "us_privacy"]
        if not us_privacy:
            pytest.skip("us_privacy not in small-sample top list")
        assert us_privacy[0].consent_signal

    def test_consent_names(self):
        assert "us_privacy" in CONSENT_SIGNAL_COOKIES

    def test_render(self, study):
        assert "_ga" in render_table2(study.table2(5))


class TestFigure2:
    def test_gtm_is_top_exfiltrator(self, study):
        rows = study.figure2(20)
        assert rows[0].domain == "googletagmanager.com"

    def test_ranked_descending(self, study):
        rows = study.figure2(20)
        counts = [r.n_cookies for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_render(self, study):
        assert "googletagmanager" in render_ranked(study.figure2(5), "t")


class TestTable5AndFigure8:
    def test_rows_have_both_kinds(self, study):
        rows = study.table5(10)
        kinds = {r.manipulation for r in rows}
        assert kinds == {"overwriting", "deleting"}

    def test_paper_targets_among_overwritten(self, study):
        # On a 400-site sample not every named victim appears; the rows
        # must still be dominated by the paper's Table 5 cookie names.
        overwritten = {r.cookie_name for r in study.table5(25)
                       if r.manipulation == "overwriting"}
        paper_targets = {"_fbp", "OptanonConsent", "_ga", "_gcl_au",
                         "_uetvid", "_uetsid", "cto_bundle", "utag_main",
                         "ajs_anonymous_id", "_gid", "user_id",
                         "session_id", "cookie_test"}
        assert len(overwritten & paper_targets) >= 3

    def test_cmps_lead_deletion(self, study):
        figure8 = study.figure8(10)
        deleter_domains = [r.domain for r in figure8["deleting"]]
        cmp_domains = {"cdn-cookieyes.com", "cookie-script.com",
                       "civiccomputing.com", "cookiebot.com",
                       "cookielaw.org", "osano.com"}
        assert cmp_domains & set(deleter_domains[:6])

    def test_render(self, study):
        assert "overwriting" in render_table5(study.table5(5))


class TestSectionStats:
    def test_sec51(self, study):
        stats = study.sec51_prevalence()
        assert stats["pct_sites_with_third_party"] > 84
        assert 12 < stats["avg_third_party_scripts"] < 26
        assert 55 < stats["pct_tracking_scripts"] < 88
        assert stats["avg_cookies_set_by_third_party"] > \
            stats["avg_cookies_set_by_first_party"]

    def test_sec52(self, study):
        stats = study.sec52_api_usage()
        assert stats["pct_sites_document_cookie"] > 90
        assert stats["pct_sites_cookie_store"] < 8
        assert stats["pct_top_two_cookie_store"] > 80  # _awl + keep_alive
        top_names = {name for name, _ in stats["top_cookie_store_names"]}
        assert top_names <= {"keep_alive", "_awl"}

    def test_sec55(self, study):
        attrs = study.sec55_overwrite_attributes()
        assert attrs["value"] > attrs["expires"] > attrs["domain"] \
            >= attrs["path"]
        assert attrs["value"] > 70

    def test_sec56(self, study):
        stats = study.sec56_inclusion()
        assert stats["indirect_to_direct_ratio"] > 1.5
        assert 0 < stats["pct_indirect_tracking"] <= 100

    def test_sec8(self, study):
        stats = study.sec8_dom_pilot()
        assert 2 < stats["pct_sites_cross_domain_dom_modification"] < 20


class TestStudyInternals:
    def test_pairs_disjoint_by_api(self, study):
        doc = study.pairs_by_api[API_DOCUMENT_COOKIE]
        store = study.pairs_by_api[API_COOKIE_STORE]
        store_names = {p.name for p in store}
        assert store_names <= {"keep_alive", "_awl"}
        assert not {p.name for p in doc} & store_names

    def test_exfiltration_events_cross_domain(self, study):
        assert all(e.actor != e.pair.creator for e in study.exfil_events)

    def test_manipulations_have_valid_kinds(self, study):
        assert {m.kind for m in study.manipulations} <= {"overwrite", "delete"}
