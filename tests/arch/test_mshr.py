"""Tests for the MSHR file."""

import dataclasses

import pytest

from repro.arch.mshr import MshrFile


class TestAllocateMerge:
    def test_first_miss_allocates(self):
        mshr = MshrFile(4, 2)
        assert mshr.probe(0) == "allocate"
        assert mshr.add(0) is True  # new downstream request
        assert mshr.outstanding == 1

    def test_repeat_miss_merges(self):
        mshr = MshrFile(4, 2)
        mshr.add(0)
        assert mshr.probe(0) == "merge"
        assert mshr.add(0) is False  # merged, no new request
        assert mshr.stats.merges == 1

    def test_merge_capacity_exhausted(self):
        mshr = MshrFile(4, 2)
        mshr.add(0)
        mshr.add(0)
        assert mshr.probe(0) == "stall"

    def test_file_full(self):
        mshr = MshrFile(2, 8)
        mshr.add(0)
        mshr.add(128)
        assert mshr.probe(256) == "stall"

    def test_add_while_full_raises(self):
        mshr = MshrFile(1, 1)
        mshr.add(0)
        before = dataclasses.replace(mshr.stats)
        with pytest.raises(RuntimeError):
            mshr.add(128)    # file full
        with pytest.raises(RuntimeError):
            mshr.add(0)      # merge capacity exhausted
        # A misused add() is not a stall: the stall counters that feed
        # ``sim.mshr.*_stalls`` stay untouched.
        assert mshr.stats == before
        assert mshr.outstanding == 1


class TestRelease:
    def test_release_returns_merged_count(self):
        mshr = MshrFile(4, 4)
        mshr.add(0)
        mshr.add(0)
        mshr.add(0)
        assert mshr.release(0) == 3
        assert mshr.is_empty

    def test_release_frees_entry(self):
        mshr = MshrFile(1, 1)
        mshr.add(0)
        mshr.release(0)
        assert mshr.probe(128) == "allocate"

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            MshrFile(1, 1).release(0)


class TestStats:
    def test_stall_accounting(self):
        mshr = MshrFile(1, 1)
        mshr.add(0)
        mshr.record_stall(0)     # merge-capacity stall
        mshr.record_stall(128)   # file-full stall
        assert mshr.stats.merge_stalls == 1
        assert mshr.stats.full_stalls == 1

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            MshrFile(0, 1)
        with pytest.raises(ValueError):
            MshrFile(1, 0)
