"""Tests for the event log, symmetric access, and sessions."""

import pytest

from repro.core.log import EventKind, EventLog, LogEntry
from repro.core.session import (NaiveReplaySession, PlaySession,
                                ReplaySession)
from repro.core.symmetric import (PLAY_MASK, REPLAY_MASK, SymmetricCell,
                                  symmetric_access)
from repro.errors import LogFormatError, ReplayDivergenceError


class TestEventLog:
    def test_roundtrip_serialization(self):
        log = EventLog()
        log.record_packet(100, b"hello")
        log.record_time(150, 123456789)
        log.record_packet(200, b"\x00\xff" * 30)
        data = log.to_bytes()
        parsed = EventLog.from_bytes(data)
        assert len(parsed) == 3
        assert parsed.entries[0] == LogEntry(EventKind.PACKET, 100,
                                             payload=b"hello")
        assert parsed.entries[1] == LogEntry(EventKind.TIME, 150,
                                             value=123456789)
        assert parsed.entries[2].payload == b"\x00\xff" * 30

    def test_negative_time_value_roundtrips(self):
        log = EventLog()
        log.record_time(1, -42)
        assert EventLog.from_bytes(log.to_bytes()).entries[0].value == -42

    def test_empty_log_roundtrips(self):
        assert len(EventLog.from_bytes(EventLog().to_bytes())) == 0

    def test_monotonicity_enforced(self):
        log = EventLog()
        log.record_packet(100, b"a")
        with pytest.raises(LogFormatError):
            log.record_packet(50, b"b")

    def test_same_count_allowed(self):
        log = EventLog()
        log.record_packet(100, b"a")
        log.record_time(100, 5)
        assert len(log) == 2

    def test_size_accounting(self):
        log = EventLog()
        log.record_packet(1, b"x" * 100)
        log.record_time(2, 7)
        assert log.size_bytes() == len(log.to_bytes())
        breakdown = log.size_breakdown()
        assert breakdown["packet"] > breakdown["time"]
        assert sum(breakdown.values()) == log.size_bytes()

    def test_growth_rate(self):
        log = EventLog()
        log.record_packet(1, b"x" * 1024)
        # 1 KiB-plus in 60 seconds ≈ just over 1 kB/minute.
        rate = log.growth_rate_kb_per_minute(60e9)
        assert rate == pytest.approx(log.size_bytes() / 1024, rel=1e-6)
        with pytest.raises(ValueError):
            log.growth_rate_kb_per_minute(0)

    @pytest.mark.parametrize("corruption", [
        b"",                                  # empty
        b"XXXX\x01\x00\x00\x00\x00\x00",      # bad magic
        b"TDRL\x63\x00\x01\x00\x00\x00",      # bad version
    ])
    def test_rejects_corrupt_headers(self, corruption):
        with pytest.raises(LogFormatError):
            EventLog.from_bytes(corruption)

    def test_rejects_truncated_body(self):
        log = EventLog()
        log.record_packet(1, b"hello world")
        data = log.to_bytes()
        with pytest.raises(LogFormatError):
            EventLog.from_bytes(data[:-3])

    def test_rejects_trailing_garbage(self):
        log = EventLog()
        log.record_time(1, 2)
        with pytest.raises(LogFormatError):
            EventLog.from_bytes(log.to_bytes() + b"zz")


class TestSymmetricAccess:
    def test_play_selects_live_value(self):
        cell = SymmetricCell(0x1000, stored=999)
        value, addrs = symmetric_access(42, cell, PLAY_MASK)
        assert value == 42
        assert cell.stored == 42      # "logged" into the buffer
        assert addrs == (0x1000, 0x1000)

    def test_replay_selects_stored_value(self):
        cell = SymmetricCell(0x1000, stored=777)
        value, _ = symmetric_access(42, cell, REPLAY_MASK)
        assert value == 777
        assert cell.stored == 777

    def test_same_addresses_both_modes(self):
        cell_play = SymmetricCell(0x2000)
        cell_replay = SymmetricCell(0x2000)
        _, addrs_play = symmetric_access(5, cell_play, PLAY_MASK)
        _, addrs_replay = symmetric_access(5, cell_replay, REPLAY_MASK)
        assert addrs_play == addrs_replay

    def test_rejects_partial_mask(self):
        with pytest.raises(ValueError):
            symmetric_access(1, SymmetricCell(0), 0xFF)

    def test_64_bit_values(self):
        cell = SymmetricCell(0)
        big = (1 << 63) + 12345
        value, _ = symmetric_access(big, cell, PLAY_MASK)
        assert value == big & ((1 << 64) - 1)


class TestSessions:
    def make_log(self):
        log = EventLog()
        log.record_packet(10, b"req1")
        log.record_time(20, 5000)
        log.record_packet(30, b"req2")
        return log

    def test_play_session_records(self):
        session = PlaySession()
        assert session.packet_due(10, b"req1") == b"req1"
        value = session.observe_time(20, 5000)
        assert value == 5000
        assert session.packet_due(25, None) is None
        assert [e.kind for e in session.log] == [EventKind.PACKET,
                                                 EventKind.TIME]
        assert session.events_handled == 2

    def test_replay_injects_at_recorded_points(self):
        session = ReplaySession(self.make_log())
        assert session.packet_due(5, None) is None      # too early
        assert session.packet_due(10, None) == b"req1"  # exactly on time
        assert session.observe_time(20, 99999) == 5000  # logged value wins
        assert session.packet_due(29, None) is None
        assert session.packet_due(31, None) == b"req2"
        assert session.max_injection_slack == 1
        assert session.remaining_events() == 0

    def test_replay_time_divergence_wrong_count(self):
        log = EventLog()
        log.record_time(20, 5000)
        session = ReplaySession(log)
        with pytest.raises(ReplayDivergenceError):
            session.observe_time(21, 0)

    def test_replay_time_divergence_wrong_kind(self):
        log = EventLog()
        log.record_packet(10, b"x")
        session = ReplaySession(log)
        with pytest.raises(ReplayDivergenceError):
            session.observe_time(10, 0)

    def test_replay_time_divergence_empty_log(self):
        session = ReplaySession(EventLog())
        with pytest.raises(ReplayDivergenceError):
            session.observe_time(1, 0)

    def test_tdr_session_has_no_overhead(self):
        session = ReplaySession(self.make_log())
        assert session.injection_overhead_cycles == 0
        assert not session.skips_waits
        assert session.wait_target(0) is None

    def test_naive_session_skips_waits(self):
        session = NaiveReplaySession(self.make_log())
        assert session.skips_waits
        assert session.injection_overhead_cycles > 0
        assert session.wait_target(0) == 10
        assert session.packet_due(10, None) == b"req1"
        session.observe_time(20, 0)
        assert session.wait_target(25) == 30
        # Already-due events do not move the counter backwards.
        assert session.wait_target(50) == 50

    def test_naive_wait_target_none_when_done(self):
        session = NaiveReplaySession(EventLog())
        assert session.wait_target(0) is None

    def test_remaining_events(self):
        session = ReplaySession(self.make_log())
        assert session.remaining_events() == 3
        session.packet_due(10, None)
        assert session.remaining_events() == 2
