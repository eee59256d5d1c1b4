"""Tests for the FR-FCFS / FR-FCFS-Cap scheduling policies."""

import math

import pytest

from repro.controller import FrFcfs, FrFcfsCap, MemRequest, RequestType, Scheduler
from repro.dram import AddressMapper, DramGeometry
from repro.errors import ConfigError

MAPPER = AddressMapper(DramGeometry())


def req(address: int, arrival: int) -> MemRequest:
    request = MemRequest(RequestType.READ, address, MAPPER.decode(address))
    request.arrival = arrival
    return request


def ranked_list(scheduler, requests, hits, streaks=None):
    streaks = streaks or {}
    return list(
        scheduler.ranked(
            requests,
            lambda r: r in hits,
            lambda r: streaks.get(r, 0),
        )
    )


class TestFcfs:
    def test_keeps_arrival_order(self):
        requests = [req(i * 4096, i) for i in range(4)]
        assert ranked_list(Scheduler(), requests, hits=set()) == requests


class TestFrFcfs:
    def test_hits_jump_the_queue(self):
        requests = [req(i * 4096, i) for i in range(4)]
        hits = {requests[2]}
        order = ranked_list(FrFcfs(), requests, hits)
        assert order[0] is requests[2]
        assert order[1:] == [requests[0], requests[1], requests[3]]

    def test_hits_keep_relative_age_order(self):
        requests = [req(i * 4096, i) for i in range(4)]
        hits = {requests[1], requests[3]}
        order = ranked_list(FrFcfs(), requests, hits)
        assert order[:2] == [requests[1], requests[3]]


class TestFrFcfsCap:
    def test_capped_hit_loses_priority(self):
        requests = [req(0, 0), req(4096, 1)]
        hits = {requests[1]}
        # Bank streak already at the cap: the hit is demoted.
        order = ranked_list(
            FrFcfsCap(cap=4), requests, hits, streaks={requests[1]: 4}
        )
        assert order[0] is requests[0]

    def test_uncapped_hit_keeps_priority(self):
        requests = [req(0, 0), req(4096, 1)]
        hits = {requests[1]}
        order = ranked_list(
            FrFcfsCap(cap=4), requests, hits, streaks={requests[1]: 3}
        )
        assert order[0] is requests[1]

    def test_rejects_zero_cap(self):
        with pytest.raises(ConfigError):
            FrFcfsCap(cap=0)


class TestHitCap:
    def test_policies_are_their_hit_cap(self):
        assert Scheduler().hit_cap == 0
        assert FrFcfs().hit_cap == math.inf
        assert FrFcfsCap(cap=3).hit_cap == 3

    def test_ranked_derives_from_hit_cap(self):
        requests = [req(i * 4096, i) for i in range(3)]
        hits = {requests[2]}
        scheduler = Scheduler()
        scheduler.hit_cap = 2
        order = ranked_list(
            scheduler, requests, hits, streaks={requests[2]: 1}
        )
        assert order == [requests[2], requests[0], requests[1]]
