"""Claim tables: row contents, exit codes, and the budget-exhausted path."""

from __future__ import annotations

import os

import pytest

from orientdiam import claims, search
from orientdiam.analysis import canonical_case_classes
from orientdiam.claims import BadFamily, BadRange, verify_claims
from orientdiam.search import (
    SearchConfig, SearchError, SearchOutcome, SearchStats, Verdict, decide_diameter2,
)


class TestFamilies:
    def test_33q_default_range(self):
        report = verify_claims("33q")
        by_q = {r.q: r for r in report.records}
        assert sorted(by_q) == [3, 4, 5, 6, 7]
        assert all(by_q[q].method == "construct" and by_q[q].observed == 2
                   for q in (3, 4, 5, 6))
        assert by_q[7].method == "search" and by_q[7].observed == 3
        assert report.exit_code == 0

    def test_34q_default_range_closes_threshold(self):
        report = verify_claims("34q")
        by_q = {r.q: r for r in report.records}
        assert sorted(by_q) == list(range(4, 13))
        assert by_q[12].method == "search"
        assert by_q[12].observed == 3 and by_q[12].passed
        assert report.exit_code == 0

    def test_baselines(self):
        report = verify_claims("baselines")
        observed = {r.claim_id: r.observed for r in report.records}
        assert observed == {
            "baseline-K4": 3,
            "baseline-K5": 2,
            "baseline-K(2,2)": 3,
            "baseline-K(2,3)": 4,
        }
        assert all(r.method == "brute-force" for r in report.records)

    @pytest.mark.parametrize("q_range", [(5, 3), (9, 9), (1, 100)])
    def test_baselines_reject_any_q_range(self, q_range):
        # the baselines have no q: a range would be ignored and pass vacuously
        with pytest.raises(BadRange):
            verify_claims("baselines", q_range=q_range)

    # (6.5, 7) used to raise TypeError, (3, 4, 5) a bare ValueError, and
    # (True, 4) ran q = 3, 4
    @pytest.mark.parametrize("family", ["33q", "baselines"])
    @pytest.mark.parametrize("q_range", [(6.5, 7), (3, 4, 5), (True, 4), (3,), 7, "3..7"],
                             ids=repr)
    def test_q_range_must_be_two_ints(self, family, q_range):
        with pytest.raises(BadRange, match="two integers"):
            verify_claims(family, q_range=q_range)

    def test_bad_family(self):
        with pytest.raises(BadFamily):
            verify_claims("77q")

    def test_q_range_past_the_vertex_cap_runs_nothing(self, monkeypatch):
        decided = []

        def recording(parts, cfg=None):
            decided.append(parts)
            return SearchOutcome(Verdict.UNKNOWN, None, SearchStats(1, 0, 0.0, 1))

        monkeypatch.setattr(search, "decide_diameter2", recording)
        with pytest.raises(BadRange, match="4097 vertices, past the cap of 4096 vertices"):
            verify_claims("34q", q_range=(12, 4090))
        assert decided == []
        # K(3,4,4089) has 4,096 vertices, the last graph inside the cap
        verify_claims("34q", q_range=(4089, 4089))
        assert decided == [(3, 4, 4089)]

    def test_q_range_clamps_below_constructive_range(self):
        report = verify_claims("33q", q_range=(1, 4))
        assert [r.q for r in report.records] == [3, 4]

    # the message names the range as given, not clamped to the family's first q
    @pytest.mark.parametrize("q_range,message", [
        ((1, 2), "q range 1..2 of family 33q, whose q starts at 3, selects no claims"),
        ((9, 3), "q range 9..3 of family 33q, whose q starts at 3, selects no claims"),
        ((1, 5000), "q range 1..5000 of family 33q, whose q starts at 3, reaches K(3,3,5000)"
                    " with 5006 vertices, past the cap of 4096 vertices"),
    ], ids=["1..2", "9..3", "1..5000"])
    def test_refused_q_range_is_reported_as_given(self, q_range, message):
        with pytest.raises(BadRange) as refused:
            verify_claims("33q", q_range=q_range)
        assert str(refused.value) == message


class TestExitCodes:
    def test_unknown_budget_gives_exit_3_and_emits_cnf(self, tmp_path):
        starved = SearchConfig(node_budget=1)
        report = verify_claims("33q", q_range=(7, 7), cfg=starved,
                               cnf_dir=str(tmp_path))
        (record,) = report.records
        assert record.unknown and not record.passed
        assert record.observed is None
        assert report.exit_code == 3
        assert len(report.cnf_emitted) == 1
        assert os.path.exists(report.cnf_emitted[0])

    def test_no_cnf_written_without_cnf_dir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        report = verify_claims("33q", q_range=(7, 7), cfg=SearchConfig(node_budget=1))
        assert report.exit_code == 3
        assert report.cnf_emitted == ()
        assert list(tmp_path.glob("*.cnf")) == []

    def test_unknown_over_clause_cap_writes_no_cnf(self, tmp_path):
        # K(3,3,300) needs 1,767,438 clauses, over cnf.MAX_CNF_CLAUSES
        report = verify_claims("33q", q_range=(300, 300), cfg=SearchConfig(node_budget=1),
                               cnf_dir=str(tmp_path))
        (record,) = report.records
        assert record.unknown and not record.passed
        assert record.observed is None
        assert report.exit_code == 3
        assert report.cnf_emitted == ()
        assert list(tmp_path.iterdir()) == []
        assert "UNKNOWN" in report.to_text()

    def test_search_observing_exists_fails_with_exit_1(self, monkeypatch):
        # a K(3,3,7) witness would contradict the paper: the row must fail
        def stub(parts, cfg=None):
            return SearchOutcome(Verdict.EXISTS, None, SearchStats(1, 0, 0.0, 1))

        monkeypatch.setattr(search, "decide_diameter2", stub)
        report = verify_claims("33q", q_range=(7, 7))
        (record,) = report.records
        assert record.observed == 2 and not record.passed and not record.unknown
        assert report.exit_code == 1
        assert " FAIL " in report.to_text()

    # a dict used to reach decide_diameter2 and fail there with an
    # AttributeError, after the constructive rows had run
    @pytest.mark.parametrize("family", ["33q", "baselines"])
    def test_cfg_must_be_a_search_config(self, monkeypatch, family):
        def unexpected(*args):
            raise AssertionError("a row ran under a refused config")

        monkeypatch.setattr(claims, "_claim", unexpected)
        with pytest.raises(SearchError, match="cfg must be a SearchConfig or None, got dict"):
            verify_claims(family, cfg={"node_budget": 5})

    def test_all_pass_gives_exit_0(self):
        assert verify_claims("baselines").exit_code == 0


class TestRecordInvariants:
    def test_pass_iff_observed_equals_expected(self, monkeypatch):
        outcomes = {}

        def recording(parts, cfg=None):
            outcomes[parts] = outcome = decide_diameter2(parts, cfg)
            return outcome

        monkeypatch.setattr(search, "decide_diameter2", recording)
        for family, p in (("33q", 3), ("34q", 4), ("baselines", None)):
            for r in verify_claims(family).records:
                assert r.passed == (r.observed == r.expected)
                if r.method == "search":
                    # a refutation passes only when it covers every case class
                    outcome = outcomes[(3, p, r.q)]
                    covered = outcome.stats.cases_enumerated == canonical_case_classes(p)
                    assert r.passed == (outcome.verdict is Verdict.NONE and covered)

    @pytest.mark.parametrize("family,p,q", [("33q", 3, 7), ("34q", 4, 12)])
    def test_refutation_must_cover_every_case(self, monkeypatch, family, p, q):
        classes = canonical_case_classes(p)
        for cases, passed in ((classes, True), (classes[1:], False)):
            def stub(parts, cfg=None):
                return SearchOutcome(Verdict.NONE, None, SearchStats(0, 0, 0.0, 0, cases))

            monkeypatch.setattr(search, "decide_diameter2", stub)
            report = verify_claims(family, q_range=(q, q))
            (record,) = report.records
            assert record.passed is passed
            assert report.exit_code == (0 if passed else 1)
            assert (" FAIL " in report.to_text()) is not passed
