"""NetLab: the virtual-time pipelining model must be deterministic and
must reproduce the shape the socket bench measures on real TCP."""

import pytest

from repro.benchlab.netlab import run_netlab_experiment, run_pipelined


class TestDeterminism(object):
    def test_identical_runs_produce_identical_numbers(self):
        first = run_netlab_experiment(connections=4,
                                      commands_per_connection=30,
                                      rtt_ticks=8.0, service_ticks=1.0,
                                      window=8)
        second = run_netlab_experiment(connections=4,
                                       commands_per_connection=30,
                                       rtt_ticks=8.0, service_ticks=1.0,
                                       window=8)
        assert first == second

    def test_all_commands_complete(self):
        result = run_pipelined(connections=3, commands_per_connection=7,
                               window=1)
        assert result.commands == 21
        assert result.server_busy_ticks == 21 * 1.0
        assert result.round_trips == 21


class TestPipeliningShape(object):
    def test_pipelining_beats_round_trips(self):
        outcome = run_netlab_experiment(connections=8,
                                        commands_per_connection=50)
        assert outcome["speedup"] > 1.0
        assert outcome["pipelined"]["round_trips"] < \
            outcome["round_trip"]["round_trips"]

    def test_single_connection_speedup_approaches_the_model(self):
        # one connection, rtt >> service: round-trip pays rtt+service
        # per command; a window of w pays rtt once per w commands, so
        # the speedup approaches (rtt + service) / (rtt/w + service)
        rtt, service, window = 10.0, 1.0, 10
        outcome = run_netlab_experiment(connections=1,
                                        commands_per_connection=100,
                                        rtt_ticks=rtt,
                                        service_ticks=service,
                                        window=window)
        predicted = (rtt + service) / (rtt / window + service)
        assert abs(outcome["speedup"] - predicted) / predicted < 0.1

    @pytest.mark.parametrize("params,expected", [
        (dict(connections=3, commands_per_connection=7),
         {"discipline": "round_trip", "connections": 3, "commands": 21,
          "makespan": 79.0, "throughput": 0.26582278481012656,
          "server_busy_ticks": 21.0, "round_trips": 21}),
        (dict(connections=5, commands_per_connection=40, rtt_ticks=7.0,
              service_ticks=0.3),
         {"discipline": "round_trip", "connections": 5, "commands": 200,
          "makespan": 293.2000000000003, "throughput": 0.6821282401091399,
          "server_busy_ticks": 59.99999999999979, "round_trips": 200}),
    ], ids=["3x7", "5x40-fractional"])
    def test_window_one_is_the_round_trip_discipline(self, params,
                                                     expected):
        """``run_pipelined(window=1)`` replaced a hand-written
        ``run_round_trip``; these are that function's numbers, bit for
        bit (virtual time is deterministic)."""
        assert run_pipelined(window=1, **params).as_dict() == expected

    def test_window_one_degenerates_to_round_trips(self):
        piped = run_pipelined(connections=2, commands_per_connection=20,
                              window=1)
        # every command pays its own round trip
        assert piped.round_trips == piped.commands == 40
        assert piped.discipline == "round_trip"
        windowed = run_pipelined(connections=2, commands_per_connection=20,
                                 window=4)
        assert windowed.makespan < piped.makespan

    def test_saturated_server_caps_the_speedup(self):
        # when service dominates rtt, the server is the bottleneck and
        # pipelining cannot manufacture throughput
        outcome = run_netlab_experiment(connections=8,
                                        commands_per_connection=40,
                                        rtt_ticks=0.5,
                                        service_ticks=4.0)
        assert outcome["speedup"] < 1.5
