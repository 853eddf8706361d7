"""Tests for the ViewAnalyzer facade and analysis reports."""

import pytest

from repro.core import ViewAnalyzer
from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.views import View, views_equivalent
from repro.workloads import company_scenario


@pytest.fixture
def padded_view(q_schema):
    s1 = parse_expression("pi{A,B}(q)", q_schema)
    s2 = parse_expression("pi{B,C}(q)", q_schema)
    joined = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
    return View(
        [
            (s1, RelationName("V1", "AB")),
            (s2, RelationName("V2", "BC")),
            (joined, RelationName("VJ", "ABC")),
        ],
        q_schema,
    )


class TestAnalyzerDecisions:
    def test_can_answer_and_explain(self, split_view, q_schema):
        analyzer = ViewAnalyzer(split_view)
        goal = parse_expression("pi{A,C}(pi{A,B}(q) & pi{B,C}(q))", q_schema)
        assert analyzer.can_answer(goal)
        construction = analyzer.explain(goal)
        assert construction is not None and construction.verify(goal)

    def test_cannot_answer_base_relation(self, split_view, q_schema):
        analyzer = ViewAnalyzer(split_view)
        assert not analyzer.can_answer(parse_expression("q", q_schema))
        assert analyzer.explain(parse_expression("q", q_schema)) is None

    def test_dominance_and_equivalence(self, split_view, joined_view):
        analyzer = ViewAnalyzer(split_view)
        assert analyzer.dominates(joined_view)
        assert analyzer.is_equivalent_to(joined_view)
        report = analyzer.equivalence_report(joined_view)
        assert report.equivalent

    def test_capacity_property(self, split_view):
        analyzer = ViewAnalyzer(split_view)
        assert analyzer.capacity.view is split_view
        assert analyzer.view is split_view


class TestAnalyzerTransforms:
    def test_nonredundant_output(self, padded_view):
        analyzer = ViewAnalyzer(padded_view)
        assert not analyzer.is_nonredundant()
        slim = analyzer.nonredundant()
        assert len(slim) < len(padded_view)
        assert views_equivalent(slim, padded_view)

    def test_simplified_output(self, joined_view):
        analyzer = ViewAnalyzer(joined_view)
        assert not analyzer.is_simplified()
        simplified = analyzer.simplified()
        assert views_equivalent(simplified, joined_view)

    def test_size_bound(self, joined_view):
        assert ViewAnalyzer(joined_view).size_bound() >= 2


class TestAnalysisReport:
    def test_report_fields(self, padded_view):
        report = ViewAnalyzer(padded_view).analyze()
        assert report.view_size == 3
        assert report.underlying_relations == ("q",)
        assert set(report.view_relations) == {"V1", "V2", "VJ"}
        assert not report.is_nonredundant
        assert report.nonredundant_size <= 2
        assert report.size_bound >= report.nonredundant_size
        assert report.simplified_size >= 1

    def test_report_per_definition_summaries(self, padded_view):
        report = ViewAnalyzer(padded_view).analyze()
        by_name = {summary.name: summary for summary in report.definitions}
        assert by_name["VJ"].redundant
        assert not by_name["VJ"].simple
        assert by_name["V1"].relation_names == ("q",)
        assert by_name["VJ"].template_rows == 2

    def test_report_on_simplified_view(self, split_view):
        report = ViewAnalyzer(split_view).analyze()
        assert report.is_nonredundant
        assert report.is_simplified
        assert report.simplified_size == report.view_size

    def test_report_is_computed_once_and_kept(self, padded_view, monkeypatch):
        analyzer = ViewAnalyzer(padded_view)
        assert not analyzer.analyzed
        computed = []
        original = ViewAnalyzer._compute_report

        def counted(self):
            computed.append(self)
            return original(self)

        monkeypatch.setattr(ViewAnalyzer, "_compute_report", counted)
        report = analyzer.analyze()
        assert analyzer.analyzed
        assert analyzer.analyze() is report
        assert computed == [analyzer]
        assert report == ViewAnalyzer(padded_view).analyze()

    def test_report_serialises(self, split_view):
        report = ViewAnalyzer(split_view).analyze()
        payload = report.to_dict()
        assert payload["view_size"] == 2
        assert isinstance(payload["definitions"], list)
        lines = report.summary_lines()
        assert any("nonredundant" in line for line in lines)

    def test_company_scenario_analysis(self):
        _schema, view = company_scenario()
        report = ViewAnalyzer(view).analyze()
        # The EmployeeBuilding member is derivable from EmployeePlacement.
        by_name = {summary.name: summary for summary in report.definitions}
        assert by_name["EmployeeBuilding"].redundant
        assert not report.is_nonredundant
        assert report.nonredundant_size == 2
