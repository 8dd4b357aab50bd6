"""Stateful (model-based) property tests for core data structures.

Hypothesis drives random operation sequences against each structure and a
trivially-correct Python model; any divergence or invariant violation is
shrunk to a minimal reproduction.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import Cluster, MiB
from repro.em import ExternalMemory, LRUCache
from repro.sim import Pool, Simulator


class BlockStoreMachine(RuleBasedStateMachine):
    """Allocation/free/write/peek sequences against a dict model."""

    def __init__(self):
        super().__init__()
        cluster = Cluster(1)
        self.em = ExternalMemory(cluster, 1 * MiB, 8)
        self.store = self.em.store(0)
        self.model = {}  # bid -> tuple of keys
        self.counter = 0

    @rule()
    def allocate_and_fill(self):
        bid = self.store.allocate()
        assert bid not in self.model, "allocator handed out a live slot"
        keys = np.arange(self.counter, self.counter + 3, dtype=np.uint64)
        self.counter += 3
        self.store.store_without_io(bid, keys)
        self.model[bid] = tuple(keys.tolist())

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def free_one(self, data):
        bid = data.draw(st.sampled_from(sorted(self.model)))
        self.store.free(bid)
        del self.model[bid]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def peek_matches_model(self, data):
        bid = data.draw(st.sampled_from(sorted(self.model)))
        assert tuple(self.store.peek(bid).tolist()) == self.model[bid]

    @invariant()
    def usage_counters_consistent(self):
        assert self.store.blocks_in_use == len(self.model)
        assert self.store.peak_blocks >= self.store.blocks_in_use


TestBlockStore = BlockStoreMachine.TestCase
TestBlockStore.settings = settings(max_examples=30, deadline=None,
                                   stateful_step_count=40)


class LRUCacheMachine(RuleBasedStateMachine):
    """LRU behaviour against an ordered-list model."""

    CAPACITY = 4

    def __init__(self):
        super().__init__()
        self.cache = LRUCache(self.CAPACITY)
        self.order = []  # least-recent first
        self.values = {}

    def _touch(self, key):
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)
        while len(self.order) > self.CAPACITY:
            evicted = self.order.pop(0)
            del self.values[evicted]

    @rule(key=st.integers(0, 9), value=st.integers())
    def put(self, key, value):
        self.cache.put(key, value)
        self.values[key] = value
        self._touch(key)

    @rule(key=st.integers(0, 9))
    def get(self, key):
        got = self.cache.get(key)
        if key in self.values:
            assert got == self.values[key]
            self._touch(key)
        else:
            assert got is None

    @invariant()
    def size_and_content_match(self):
        assert len(self.cache) == len(self.order)
        for key in self.order:
            assert key in self.cache


TestLRUCache = LRUCacheMachine.TestCase
TestLRUCache.settings = settings(max_examples=40, deadline=None,
                                 stateful_step_count=50)


def test_pool_never_oversubscribes_under_random_traffic():
    """Many workers hammering a Pool: capacity respected, all finish."""
    rng = np.random.default_rng(0)
    sim = Simulator()
    pool = Pool(sim, capacity=5)
    in_use = [0]
    peak = [0]

    def worker(n, hold):
        yield pool.acquire(n)
        in_use[0] += n
        peak[0] = max(peak[0], in_use[0])
        assert in_use[0] <= 5
        yield sim.timeout(hold)
        in_use[0] -= n
        pool.release(n)

    procs = [
        sim.process(worker(int(rng.integers(1, 4)), float(rng.uniform(0.1, 2))))
        for _ in range(60)
    ]
    sim.run()
    assert all(p.triggered for p in procs)
    assert pool.available == 5
    assert peak[0] == 5  # saturated at least once
