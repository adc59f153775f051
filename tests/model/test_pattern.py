"""Unit tests for CommunicationPattern containers."""

import pytest

from repro.errors import PatternError
from repro.model import Communication, CommunicationPattern, Message
from repro.model.cliques import CliqueAnalysis
from repro.model.contention import potential_contention_set
from repro.model.pattern import last_pattern_memo

from tests.fixtures import figure1_pattern


def _msg(s, d, lo=0.0, hi=1.0, size=1024):
    return Message(source=s, dest=d, t_start=lo, t_finish=hi, size_bytes=size)


class TestConstruction:
    def test_from_messages_infers_process_count(self):
        p = CommunicationPattern.from_messages([_msg(0, 5), _msg(2, 3)])
        assert p.num_processes == 6

    def test_explicit_process_count_is_kept(self):
        p = CommunicationPattern.from_messages([_msg(0, 1)], num_processes=16)
        assert p.num_processes == 16

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(PatternError):
            CommunicationPattern(messages=(_msg(0, 5),), num_processes=4)

    def test_rejects_empty_inference(self):
        with pytest.raises(PatternError):
            CommunicationPattern.from_messages([])

    def test_rejects_nonpositive_process_count(self):
        with pytest.raises(PatternError):
            CommunicationPattern(messages=(), num_processes=0)


class TestQueries:
    def test_len_and_iter(self):
        p = CommunicationPattern.from_messages([_msg(0, 1), _msg(1, 2)])
        assert len(p) == 2
        assert [m.source for m in p] == [0, 1]

    def test_communications_deduplicates(self):
        p = CommunicationPattern.from_messages(
            [_msg(0, 1, 0, 1), _msg(0, 1, 5, 6), _msg(1, 2)]
        )
        assert p.communications == {Communication(0, 1), Communication(1, 2)}

    def test_time_span(self):
        p = CommunicationPattern.from_messages([_msg(0, 1, 1.0, 2.0), _msg(1, 2, 0.5, 9.0)])
        assert p.time_span == (0.5, 9.0)

    def test_time_span_empty(self):
        p = CommunicationPattern(messages=(), num_processes=2)
        assert p.time_span == (0.0, 0.0)

    def test_total_bytes(self):
        p = CommunicationPattern.from_messages([_msg(0, 1, size=100), _msg(1, 2, size=50)])
        assert p.total_bytes == 150

    def test_messages_by_communication(self):
        p = CommunicationPattern.from_messages(
            [_msg(0, 1, 0, 1), _msg(0, 1, 2, 3), _msg(1, 0)]
        )
        groups = p.messages_by_communication()
        assert len(groups[Communication(0, 1)]) == 2
        assert len(groups[Communication(1, 0)]) == 1

    def test_sorted_by_start_orders_by_time(self):
        p = CommunicationPattern.from_messages([_msg(0, 1, 5, 6), _msg(1, 2, 0, 1)])
        assert [m.t_start for m in p.sorted_by_start()] == [0, 5]


class TestTransforms:
    def test_filter(self):
        p = CommunicationPattern.from_messages([_msg(0, 1), _msg(2, 3)])
        small = p.filter(lambda m: m.source == 0)
        assert len(small) == 1
        assert small.num_processes == p.num_processes

    def test_restrict_to(self):
        p = CommunicationPattern.from_messages([_msg(0, 1), _msg(2, 3), _msg(1, 3)])
        sub = p.restrict_to({0, 1})
        assert sub.communications == {Communication(0, 1)}

    def test_relabel(self):
        p = CommunicationPattern.from_messages([_msg(0, 1)], num_processes=2)
        q = p.relabel({0: 1, 1: 0})
        assert q.communications == {Communication(1, 0)}

    def test_relabel_requires_complete_mapping(self):
        p = CommunicationPattern.from_messages([_msg(0, 1)])
        with pytest.raises(PatternError):
            p.relabel({0: 1})

    def test_merged_with(self):
        a = CommunicationPattern.from_messages([_msg(0, 1)], num_processes=4)
        b = CommunicationPattern.from_messages([_msg(2, 3)], num_processes=8)
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert merged.num_processes == 8


class TestFigure1Fixture:
    def test_has_three_phases_of_expected_sizes(self):
        p = figure1_pattern()
        by_tag = {}
        for m in p:
            by_tag.setdefault(m.tag, []).append(m)
        assert sorted(by_tag) == ["phase0", "phase1", "phase2"]
        # 4 rows x 4 exchange messages in each reduction phase; 12
        # transpose pairs in the final phase.
        assert len(by_tag["phase0"]) == 16
        assert len(by_tag["phase1"]) == 16
        assert len(by_tag["phase2"]) == 12


class TestLastPatternMemo:
    def test_same_object_hits_and_other_objects_recompute(self):
        calls = []

        @last_pattern_memo
        def analyze(pattern):
            calls.append(pattern)
            return len(pattern)

        a = figure1_pattern()
        b = figure1_pattern()  # equal, but a different object
        assert a == b and a is not b
        assert [analyze(a), analyze(a), analyze(b), analyze(a)] == [len(a)] * 4
        # Identity hits only, and only the last pattern is kept.
        assert [p is a for p in calls] == [True, False, True]

    def test_memoized_analyses_match_fresh_ones(self):
        a = figure1_pattern()
        b = figure1_pattern()
        assert CliqueAnalysis.of(a) is CliqueAnalysis.of(a)
        assert CliqueAnalysis.of(b) == CliqueAnalysis.of(a)
        assert CliqueAnalysis.of(b).pattern is b
        assert potential_contention_set(a) is potential_contention_set(a)
        assert potential_contention_set(b) == potential_contention_set(a)
