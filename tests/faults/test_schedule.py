"""Unit tests for FaultConfig / FaultSchedule determinism and hooks."""

import pytest

from repro.faults import FaultConfig, FaultSchedule
from repro.faults.schedule import _WindowTrack
from repro.sim.rng import RngStreams

NAN = float("nan")


class TestFaultConfig:
    def test_default_is_inactive(self):
        assert not FaultConfig().active

    def test_each_family_activates(self):
        assert FaultConfig(slow_shards=1).active
        assert FaultConfig(crash_shards=1).active
        assert FaultConfig(spike_rate=5.0, spike_extra=1e-3).active
        assert FaultConfig(loss_prob=0.01).active
        assert FaultConfig(rack_slow_racks=1).active

    def test_spike_rate_without_extra_is_inactive(self):
        assert not FaultConfig(spike_rate=5.0).active

    @pytest.mark.parametrize("kwargs", [
        dict(slow_shards=-1),
        dict(crash_shards=-1),
        dict(slow_factor=0.5),
        dict(slow_shards=1, slow_mean_on=0.0),
        dict(slow_shards=1, slow_mean_off=-1.0),
        dict(crash_shards=1, crash_mtbf=0.0),
        dict(crash_shards=1, crash_mttr=0.0),
        dict(spike_rate=-1.0),
        dict(spike_extra=-1.0),
        dict(spike_rate=1.0, spike_duration=0.0),
        dict(loss_prob=-0.1),
        dict(loss_prob=1.0),
        dict(rack_slow_racks=-1),
        dict(rack_slow_factor=0.5),
        dict(rack_slow_racks=1, rack_slow_mean_on=0.0),
        dict(rack_slow_racks=1, rack_slow_mean_off=-1.0),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(slow_factor=NAN), "slow_factor"),
        (dict(slow_shards=1, slow_mean_on=NAN), "slowdown window"),
        (dict(slow_shards=1, slow_mean_off=NAN), "slowdown window"),
        (dict(crash_shards=1, crash_mtbf=NAN), "MTBF/MTTR"),
        (dict(crash_shards=1, crash_mttr=NAN), "MTBF/MTTR"),
        (dict(spike_rate=NAN), "spike rate/extra"),
        (dict(spike_extra=NAN), "spike rate/extra"),
        (dict(spike_rate=1.0, spike_duration=NAN), "spike_duration"),
        (dict(rack_slow_factor=NAN), "rack_slow_factor"),
        (dict(rack_slow_racks=1, rack_slow_mean_on=NAN), "rack slowdown"),
        (dict(rack_slow_racks=1, rack_slow_mean_off=NAN), "rack slowdown"),
    ])
    def test_validation_rejects_nan(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultConfig(**kwargs)


class TestWindowTrack:
    def test_same_stream_same_timeline(self):
        times = [i * 0.01 for i in range(500)]
        a = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.8)
        b = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.8)
        assert [a.active(t) for t in times] == [b.active(t) for t in times]

    def test_starts_off_and_alternates(self):
        track = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.8)
        assert track.active(0.0) is False
        # Over a long horizon the track must have been on at some point.
        assert any(track.active(i * 0.05) for i in range(1, 2000))

    def test_timeline_independent_of_query_times(self):
        """Interval i is always the i-th draw: sampling coarsely or
        finely sees the same underlying on/off timeline."""
        fine = _WindowTrack(RngStreams(3).stream("x"), 0.3, 0.7)
        coarse = _WindowTrack(RngStreams(3).stream("x"), 0.3, 0.7)
        fine_states = {round(i * 0.5, 3): None for i in range(40)}
        for t in [i * 0.001 for i in range(20_000)]:
            state = fine.active(t)
            if round(t, 3) in fine_states:
                fine_states[round(t, 3)] = state
        for t in sorted(fine_states):
            assert coarse.active(t) == fine_states[t]


class TestObservabilityHooks:
    """`state_at` / `windows` / `families_at` / `realized_windows` —
    the after-the-fact views the tracing layer reads."""

    def _schedule(self, seed=42):
        config = FaultConfig(slow_shards=2, slow_mean_on=0.2,
                             slow_mean_off=0.3, crash_shards=1,
                             crash_mtbf=0.5, crash_mttr=0.2)
        return FaultSchedule(config, RngStreams(seed), 8)

    def test_state_at_matches_live_active(self):
        track = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.3)
        times = [i * 0.013 for i in range(800)]
        live = [track.active(t) for t in times]
        # After the cursor passed the horizon, parity over realised
        # transitions reproduces the live answers exactly.
        assert [track.state_at(t) for t in times] == live

    def test_windows_pair_transitions_and_clamp(self):
        track = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.3)
        track.active(10.0)
        windows = track.windows(10.0)
        assert windows, "timeline must toggle over a long horizon"
        for start, close in windows:
            assert 0.0 <= start < close <= 10.0
            mid = (start + close) / 2
            assert track.state_at(mid)
        # Disjoint and ordered.
        for (_, close), (start, _) in zip(windows, windows[1:]):
            assert close <= start
            assert not track.state_at((close + start) / 2)

    def test_windows_ignore_transitions_past_end(self):
        track = _WindowTrack(RngStreams(7).stream("t"), 0.2, 0.3)
        track.active(10.0)
        short = track.windows(2.0)
        assert all(close <= 2.0 for _start, close in short)
        assert all(start < 2.0 for start, _close in short)

    def test_families_at_sorted_and_consistent(self):
        sched = self._schedule()
        sched.advance(10.0)
        seen = set()
        for i in range(1000):
            t = i * 0.01
            families = sched.families_at(t)
            assert list(families) == sorted(families)
            assert set(families) <= {"crash", "slow"}
            seen.update(families)
            slow_live = any(sched._slow[s].state_at(t)
                            for s in sched.slow_ids)
            assert ("slow" in families) == slow_live
        assert seen == {"crash", "slow"}

    def test_realized_windows_deterministic_and_named(self):
        a = self._schedule().realized_windows(5.0)
        b = self._schedule().realized_windows(5.0)
        assert a == b
        assert a, "an active schedule realises at least one window"
        names = {name for name, _s, _e in a}
        assert all(name.startswith(("fault:slow:shard",
                                    "fault:crash:shard"))
                   for name in names)
        assert all(0.0 <= s < e <= 5.0 for _n, s, e in a)

    def test_inactive_schedule_realizes_nothing(self):
        sched = FaultSchedule(FaultConfig(), RngStreams(1), 4)
        assert sched.realized_windows(5.0) == []
        assert sched.families_at(1.0) == ()

    def test_advance_does_not_perturb_later_queries(self):
        """Interleaving telemetry `advance` calls with the serving
        hooks (all at the monotone simulator clock) must not change
        what the serving hooks return."""
        observed = self._schedule()
        plain = self._schedule()
        for i in range(500):
            t = i * 0.02
            observed.advance(t)  # telemetry tick at the same instant
            for shard in range(8):
                assert (observed.service_multiplier(shard, 0, t)
                        == plain.service_multiplier(shard, 0, t))
                assert (observed.is_down(shard, 0, t)
                        == plain.is_down(shard, 0, t))


class TestFaultSchedule:
    def _schedule(self, config, seed=42, n_shards=20):
        return FaultSchedule(config, RngStreams(seed), n_shards)

    def test_target_selection_is_deterministic(self):
        config = FaultConfig(slow_shards=3, crash_shards=2)
        a = self._schedule(config)
        b = self._schedule(config)
        assert a.slow_ids == b.slow_ids
        assert a.crash_ids == b.crash_ids
        assert len(a.slow_ids) == 3
        assert len(a.crash_ids) == 2

    def test_slow_multiplier_only_on_targets_and_primary(self):
        config = FaultConfig(slow_shards=2, slow_factor=50.0,
                             slow_mean_on=10.0, slow_mean_off=0.01)
        sched = self._schedule(config)
        # With mean_off tiny and mean_on huge, targets are slow almost
        # immediately and stay slow.
        now = 5.0
        hit = [s for s in range(20)
               if sched.service_multiplier(s, 0, now) != 1.0]
        assert hit == sched.slow_ids
        for shard_id in sched.slow_ids:
            assert sched.service_multiplier(shard_id, 0, now) == 50.0
            # Replica 1 stays healthy: shard faults hit replica 0 only.
            assert sched.service_multiplier(shard_id, 1, now) == 1.0

    def test_crash_windows(self):
        config = FaultConfig(crash_shards=1, crash_mtbf=0.01,
                             crash_mttr=10.0)
        sched = self._schedule(config)
        shard_id = sched.crash_ids[0]
        assert sched.is_down(shard_id, 0, 5.0)
        assert not sched.is_down(shard_id, 1, 5.0)
        other = next(s for s in range(20) if s != shard_id)
        assert not sched.is_down(other, 0, 5.0)

    def test_spike_extra_latency(self):
        config = FaultConfig(spike_rate=1000.0, spike_extra=2e-3,
                             spike_duration=10.0)
        sched = self._schedule(config)
        assert sched.extra_latency(5.0) == 2e-3

    def test_drop_message_rate(self):
        config = FaultConfig(loss_prob=0.25)
        sched = self._schedule(config)
        drops = sum(sched.drop_message() for _ in range(10_000))
        assert 0.2 < drops / 10_000 < 0.3

    def test_inactive_families_cost_nothing(self):
        sched = self._schedule(FaultConfig(slow_shards=1))
        assert not sched.is_down(0, 0, 1.0)
        assert sched.extra_latency(1.0) == 0.0
        assert not sched.drop_message()

    def test_building_schedule_leaves_other_streams_untouched(self):
        """Named fault streams must not perturb existing consumers."""
        plain = RngStreams(42).stream("mongodb.shard.0.service")
        with_faults = RngStreams(42)
        FaultSchedule(FaultConfig(slow_shards=3, crash_shards=2,
                                  spike_rate=10.0, spike_extra=1e-3,
                                  loss_prob=0.1, rack_slow_racks=1),
                      with_faults, n_shards=20, racks=2)
        after = with_faults.stream("mongodb.shard.0.service")
        assert [plain.random() for _ in range(100)] == \
               [after.random() for _ in range(100)]


class TestRackFaults:
    #: Rack windows on ~forever: targets are degraded from t~0 onwards.
    ALWAYS_ON = FaultConfig(rack_slow_racks=1, rack_slow_factor=30.0,
                            rack_slow_mean_on=100.0,
                            rack_slow_mean_off=0.001)

    def _schedule(self, config, racks=2, seed=42, n_shards=20):
        return FaultSchedule(config, RngStreams(seed), n_shards,
                             racks=racks)

    def test_rack_target_selection_is_deterministic(self):
        a = self._schedule(self.ALWAYS_ON)
        b = self._schedule(self.ALWAYS_ON)
        assert a.rack_ids == b.rack_ids
        assert len(a.rack_ids) == 1
        assert a.rack_ids[0] in (0, 1)

    def test_rack_fault_hits_every_replica_in_the_rack(self):
        """The defining property of the correlated family: replica
        filtering (shard faults hit replica 0 only) does NOT protect
        replicas placed in a degraded rack."""
        sched = self._schedule(self.ALWAYS_ON)
        rack = sched.rack_ids[0]
        now = 5.0
        for shard in range(20):
            for replica in range(2):
                in_rack = (shard + replica) % 2 == rack
                assert sched.rack_active(shard, replica, now) == in_rack
                multiplier = sched.service_multiplier(shard, replica, now)
                assert multiplier == (30.0 if in_rack else 1.0)

    def test_one_replica_per_shard_survives(self):
        """Round-robin placement + one bad rack of two: every shard
        keeps exactly one healthy replica, so routing can always
        escape."""
        sched = self._schedule(self.ALWAYS_ON)
        now = 5.0
        for shard in range(20):
            healthy = [r for r in range(2)
                       if sched.service_multiplier(shard, r, now) == 1.0]
            assert len(healthy) == 1

    def test_rack_and_shard_slowdowns_take_the_worse_factor(self):
        config = FaultConfig(
            slow_shards=20, slow_factor=50.0,
            slow_mean_on=100.0, slow_mean_off=0.001,
            rack_slow_racks=2, rack_slow_factor=30.0,
            rack_slow_mean_on=100.0, rack_slow_mean_off=0.001)
        sched = self._schedule(config)
        # Every shard slowed 50x, every rack slowed 30x: primaries see
        # max(50, 30), secondaries (shard family filtered) see 30.
        assert sched.service_multiplier(0, 0, 5.0) == 50.0
        assert sched.service_multiplier(0, 1, 5.0) == 30.0

    def test_zero_racks_configured_is_inert(self):
        sched = self._schedule(FaultConfig(slow_shards=1), racks=4)
        assert not sched.rack_active(0, 0, 5.0)

    def test_rejects_zero_racks(self):
        with pytest.raises(ValueError):
            self._schedule(self.ALWAYS_ON, racks=0)

    def test_rack_streams_leave_shard_families_untouched(self):
        """Enabling the rack family must not shift which shards the
        slow family targets or their window timelines."""
        base = FaultConfig(slow_shards=3, slow_mean_on=0.2,
                           slow_mean_off=0.3)
        with_racks = FaultConfig(slow_shards=3, slow_mean_on=0.2,
                                 slow_mean_off=0.3, rack_slow_racks=1)
        a = FaultSchedule(base, RngStreams(7), 20)
        b = FaultSchedule(with_racks, RngStreams(7), 20, racks=2)
        assert a.slow_ids == b.slow_ids
        times = [i * 0.01 for i in range(300)]
        for shard in a.slow_ids:
            assert [a._slow[shard].active(t) for t in times] == \
                   [b._slow[shard].active(t) for t in times]
