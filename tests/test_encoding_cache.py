"""Shared graph-encoding cache: hits, transparency, immutability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.ir.serialize import canonical_hash
from repro.memo import Memo
from repro.predictors.encoding_cache import cached_encoding, compute_encoding


def _chain(name: str, suffix: str = ""):
    """A small matmul->relu->softmax graph; names vary, structure doesn't."""
    b = GraphBuilder(name)
    x = b.input(f"x{suffix}", (4, 8))
    w = b.param(f"w{suffix}", (8, 8))
    h = b.relu(b.matmul(x, w, name=f"h{suffix}"))
    b.output(b.softmax(h), f"out{suffix}")
    return b.build()


class TestEncodingCache:
    def test_hit_and_miss_accounting(self):
        cache = Memo("test.encodings", "canonical graph hash")
        g = _chain("a")
        e1 = cached_encoding(g, cache)
        e2 = cached_encoding(g, cache)
        assert e1 is e2
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_structurally_identical_graphs_share_one_entry(self):
        """The key is the name-free canonical hash: two graphs that differ
        only in graph/node names share one frozen encoding bundle."""
        cache = Memo("test.encodings", "canonical graph hash")
        e1 = cached_encoding(_chain("a", "1"), cache)
        e2 = cached_encoding(_chain("b", "2"), cache)
        assert e1 is e2
        assert len(cache) == 1

    def test_cached_equals_fresh(self):
        g = _chain("a")
        cached = cached_encoding(g, Memo("test.encodings", "hash"))
        fresh = compute_encoding(g)
        assert np.array_equal(cached.raw_features, fresh.raw_features)
        assert np.array_equal(cached.features, fresh.features)
        assert np.array_equal(cached.reach, fresh.reach)
        assert np.array_equal(cached.depths, fresh.depths)
        assert np.array_equal(cached.adj, fresh.adj)
        assert np.array_equal(cached.adj_csr.toarray(), fresh.adj_csr.toarray())

    def test_cached_arrays_are_frozen(self):
        enc = cached_encoding(_chain("a"), Memo("test.encodings", "hash"))
        for a in (enc.raw_features, enc.features, enc.reach, enc.depths,
                  enc.adj, enc.adj_csr.data):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_clear_resets_entries_and_stats(self):
        cache = Memo("test.encodings", "canonical graph hash")
        cached_encoding(_chain("a"), cache)
        cached_encoding(_chain("a"), cache)
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)


class TestCanonicalHashMemo:
    def test_memo_stable_across_calls(self):
        g = _chain("a")
        assert canonical_hash(g) == canonical_hash(g)
        assert g._canonical_hash is not None

    def test_add_node_invalidates_memo(self):
        g = _chain("a")
        before = canonical_hash(g)
        last = g.nodes[-1]
        g.add_node("relu", [last.id], last.out)
        assert g._canonical_hash is None
        assert canonical_hash(g) != before
