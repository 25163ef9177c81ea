"""Router behaviour: placement, distributed reductions, epoch fencing.

The headline acceptance test lives here: a distributed REDUCE over a
3-node cluster is **bit-identical** to the single-node reduction for
every bundled dataset, for every reduction, and across cluster sizes
(placement invariance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SZOps
from repro.cluster import (
    CLUSTER_REDUCTIONS,
    ClusterError,
    combine_moments,
    finish_reduction,
)
from repro.core.moments import QuantizedMoments
from repro.datasets import dataset_names, generate_fields
from repro.runtime.lazy import LazyStream
from repro.service.protocol import Moments

EPS = 1e-3


class TestPlacement:
    def test_put_get_unchunked(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        assert router.put("U", compressed) == 1
        back = router.get_container("U")
        assert back.to_bytes() == compressed.to_bytes()

    def test_put_get_chunked_byte_identical(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        n = router.put("U", compressed, chunks=8)
        assert n == 8
        assert router.manifest("U").n_chunks == 8
        back = router.get_container("U")
        assert back.to_bytes() == compressed.to_bytes()

    def test_put_rejects_chunk_namespace(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=1, replicas=1)
        with pytest.raises(ClusterError, match="chunk-key"):
            router.put("U/#00001", compressed)

    def test_writes_land_on_all_replicas(self, cluster_factory, compressed):
        router, handles = cluster_factory(n_nodes=3, replicas=2)
        router.put("U", compressed, chunks=6)
        writes = router.telemetry.snapshot()["keyed_counters"]["shard_writes"]
        assert sum(writes.values()) == 6 * 2  # every chunk on two owners

    def test_op_chunked_matches_eager(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        router.put("U", compressed, chunks=5)
        result = router.op("U", [("negation", None), ("scalar_add", 0.25)])
        expected = (
            LazyStream(compressed)
            .apply("negation")
            .apply("scalar_add", 0.25)
            .decompress()
        )
        np.testing.assert_array_equal(
            LazyStream(result).decompress().reshape(-1), expected.reshape(-1)
        )

    # x1e10 writes blocks wider than 32 bits, which every owner must admit.
    @pytest.mark.parametrize("scalar", [2.0, 1e10])
    def test_op_with_result_name_stores_chunked(
        self, cluster_factory, compressed, scalar
    ):
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        router.put("U", compressed, chunks=5)
        n = router.op("U", [("scalar_multiply", scalar)], result_name="V")
        assert n == 5
        got = LazyStream(router.get_container("V")).decompress().reshape(-1)
        want = LazyStream(compressed).apply("scalar_multiply", scalar).decompress()
        np.testing.assert_array_equal(got, want.reshape(-1))


class TestDistributedReduceIdentity:
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_bit_identical_to_single_node_all_datasets(
        self, cluster_factory, dataset
    ):
        """The acceptance criterion, for every bundled dataset."""
        fields = generate_fields(dataset, scale=0.25)
        name, field = next(iter(fields.items()))
        c = SZOps(block_size=64).compress(field.reshape(-1), EPS)
        single = LazyStream(c)
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        router.put(name, c, chunks=6)
        for reduction in CLUSTER_REDUCTIONS:
            got = router.reduce(name, reduction)
            want = float(getattr(single, reduction)())
            assert got == want, f"{dataset}/{name} {reduction}: {got} != {want}"

    def test_variance_placement_invariant(self, cluster_factory, compressed):
        """variance/std are bit-identical across cluster sizes."""
        values = {}
        for n_nodes, chunks in ((1, 1), (1, 4), (3, 6), (3, 11)):
            router, _handles = cluster_factory(n_nodes=n_nodes, replicas=1)
            router.put("U", compressed, chunks=chunks)
            values[(n_nodes, chunks)] = (
                router.reduce("U", "variance"),
                router.reduce("U", "std"),
            )
        assert len(set(values.values())) == 1

    def test_reduce_with_chain_prefix(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=3, replicas=2)
        router.put("U", compressed, chunks=6)
        got = router.reduce("U", "mean", chain=[("scalar_add", 0.5)])
        want = float(LazyStream(compressed).apply("scalar_add", 0.5).mean())
        assert got == want

    def test_unknown_reduction_rejected(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=1, replicas=1)
        router.put("U", compressed)
        with pytest.raises(ClusterError, match="unknown reduction"):
            router.reduce("U", "median")
        assert set(CLUSTER_REDUCTIONS) == {
            "mean", "variance", "std", "minimum", "maximum",
        }


class TestMomentAlgebra:
    def test_combine_rejects_mixed_eps(self):
        a = Moments(QuantizedMoments(1, 1, 0, 1, 2), 1e-3)
        b = Moments(QuantizedMoments(1, 1, 0, 1, 2), 1e-2)
        with pytest.raises(ClusterError, match="eps"):
            combine_moments([a, b])

    def test_combine_rejects_empty(self):
        with pytest.raises(ClusterError):
            combine_moments([])

    def test_finish_rejects_empty_array(self):
        with pytest.raises(ClusterError, match="empty"):
            finish_reduction("mean", Moments(QuantizedMoments(0, 0, 0, 0, 0), 1e-3))

    def test_tree_combine_is_order_exact(self):
        rng = np.random.default_rng(3)
        qs = rng.integers(-1000, 1000, size=500)
        partials = [
            Moments(QuantizedMoments(int(q), int(q) ** 2, int(q), int(q), 1), 1e-3)
            for q in qs
        ]
        m = combine_moments(partials).moments
        assert m.s1 == int(qs.sum())
        assert m.s2 == int((qs.astype(np.int64) ** 2).sum())
        assert m.n == 500
        assert m.lo == int(qs.min()) and m.hi == int(qs.max())


class TestEpochFencing:
    def test_stale_router_reconciles_and_succeeds(
        self, cluster_factory, compressed
    ):
        """A router holding an old map retries once with the node's map."""
        from repro.cluster import ClusterClient

        router, handles = cluster_factory(n_nodes=3, replicas=2)
        stale = ClusterClient(router.map)  # snapshot of epoch 1
        try:
            router.put("U", compressed, chunks=4)
            # Advance the cluster's epoch behind the stale router's back.
            handles[-1].stop()
            router.remove_node(handles[-1].server.node_id)
            assert router.epoch == 2
            # The stale router hits the fence, adopts the pushed map, and
            # its retry succeeds against the surviving owners.
            value = stale._with_epoch_retry(
                lambda: stale._read_from_owners(
                    "U/#00000",
                    lambda c, e: c.get("U/#00000", epoch=e),
                )
            )
            assert value  # the chunk's bytes came back
            assert stale.epoch == 2
            assert stale.telemetry.counter("epoch_retries") >= 1
        finally:
            stale.close()

    def test_nodes_reject_mismatched_epoch(self, cluster_factory, compressed):
        from repro.service.client import ServiceClient, StaleEpoch

        router, handles = cluster_factory(n_nodes=1, replicas=1)
        router.put("U", compressed)
        with ServiceClient(handles[0].host, handles[0].port) as raw:
            with pytest.raises(StaleEpoch) as excinfo:
                raw.get("U", epoch=999)
            assert excinfo.value.map_json  # carries the node's map
            # Epoch 0 (plain single-node clients) bypasses the fence.
            assert raw.get("U") == compressed.to_bytes()

    def test_remove_last_node_refused(self, cluster_factory, compressed):
        router, _handles = cluster_factory(n_nodes=1, replicas=1)
        with pytest.raises(ClusterError, match="last node"):
            router.remove_node("node-0")
