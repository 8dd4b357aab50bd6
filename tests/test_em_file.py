"""Tests for run pieces, distributed runs, streaming writer/reader."""

import numpy as np
import pytest

from repro.cluster import Cluster, MiB
from repro.em import DistributedRun, ExternalMemory, LocalRunPiece, PieceReader, write_piece


def setup(n_nodes=1, block_elems=8):
    cluster = Cluster(n_nodes)
    em = ExternalMemory(cluster, 1 * MiB, block_elems)
    return cluster, em


def write_keys(cluster, store, keys):
    def body():
        piece = yield from write_piece(store, keys, tag="t")
        return piece

    return cluster.sim.run_process(body())


def test_write_piece_layout_and_metadata():
    cluster, em = setup()
    keys = np.arange(20, dtype=np.uint64)
    piece = write_keys(cluster, em.store(0), keys)
    assert piece.n_keys == 20
    assert piece.counts == [8, 8, 4]
    assert list(piece.first_keys) == [0, 8, 16]
    contents = np.concatenate([em.store(0).peek(b) for b in piece.blocks])
    assert np.array_equal(contents, keys)


def test_write_piece_empty():
    cluster, em = setup()
    piece = write_keys(cluster, em.store(0), np.empty(0, np.uint64))
    assert piece.n_keys == 0
    assert piece.blocks == []


def test_write_piece_rejects_unsorted_when_checked():
    cluster, em = setup()
    keys = np.array([3, 1, 2], dtype=np.uint64)

    def body():
        yield from write_piece(em.store(0), keys, tag="t", check_sorted=True)

    with pytest.raises(Exception):
        cluster.sim.run_process(body())


def test_block_of_lookup():
    cluster, em = setup()
    keys = np.arange(20, dtype=np.uint64)
    piece = write_keys(cluster, em.store(0), keys)
    assert piece.block_of(0) == (0, 0)
    assert piece.block_of(7) == (0, 7)
    assert piece.block_of(8) == (1, 0)
    assert piece.block_of(19) == (2, 3)
    with pytest.raises(IndexError):
        piece.block_of(20)


def test_block_start():
    cluster, em = setup()
    piece = write_keys(cluster, em.store(0), np.arange(20, dtype=np.uint64))
    assert [piece.block_start(i) for i in range(3)] == [0, 8, 16]


def test_free_all_releases_blocks():
    cluster, em = setup()
    piece = write_keys(cluster, em.store(0), np.arange(20, dtype=np.uint64))
    assert em.store(0).blocks_in_use == 3
    piece.free_all(em.store(0))
    assert em.store(0).blocks_in_use == 0
    assert len(piece) == 0


def test_distributed_run_locate():
    cluster, em = setup(n_nodes=2)
    p0 = write_keys(cluster, em.store(0), np.arange(10, dtype=np.uint64))
    p1 = write_keys(cluster, em.store(1), np.arange(10, 25, dtype=np.uint64))
    run = DistributedRun(0, [p0, p1])
    assert len(run) == 25
    assert run.locate(0) == (0, 0)
    assert run.locate(9) == (0, 9)
    assert run.locate(10) == (1, 0)
    assert run.locate(24) == (1, 14)
    with pytest.raises(IndexError):
        run.locate(25)
    assert run.offsets == [0, 10]


def test_piece_reader_returns_blocks_in_order():
    cluster, em = setup()
    keys = np.arange(40, dtype=np.uint64)
    piece = write_keys(cluster, em.store(0), keys)

    def body():
        reader = PieceReader(em.store(0), piece.blocks, tag="t", depth=2)
        arrays = yield from reader.read_all()
        return np.concatenate(arrays)

    got = cluster.sim.run_process(body())
    assert np.array_equal(got, keys)


def test_piece_reader_next_block_eof():
    cluster, em = setup()
    piece = write_keys(cluster, em.store(0), np.arange(8, dtype=np.uint64))

    def body():
        reader = PieceReader(em.store(0), piece.blocks, tag="t")
        first = yield from reader.next_block()
        second = yield from reader.next_block()
        return (first, second)

    first, second = cluster.sim.run_process(body())
    assert np.array_equal(first, np.arange(8, dtype=np.uint64))
    assert second is None


def test_piece_reader_depth_validation():
    cluster, em = setup()
    with pytest.raises(ValueError):
        PieceReader(em.store(0), [], tag="t", depth=0)


def test_piece_metadata_mismatch_rejected():
    with pytest.raises(ValueError):
        LocalRunPiece(
            node=0,
            blocks=[],
            counts=[1],
            first_keys=np.empty(0, np.uint64),
        )
