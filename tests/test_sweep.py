"""Small-LOT generation: the orbit test per labeling against the
filter-then-test reference, pinned sweep digests, the int views the
generators hand each LOT against the validated constructor, tree shapes
against the full Prufer scan and Otter's count, and the seeded random
generator."""

import hashlib
import random

import pytest

import lotva.sweep as sweep
from lotva import Lot, format_lot
from lotva.sweep import iter_small_lots, random_lot, tree_shapes

from oracles import reference_small_lots, reference_tree_shapes


def digest(lots):
    """(count, sha256 over the concatenated ``format_lot`` texts)."""
    h = hashlib.sha256()
    count = 0
    for lot in lots:
        h.update(format_lot(lot).encode())
        count += 1
    return count, h.hexdigest()


def assert_views_match_constructor(lots):
    """Equality ignores ``_iv`` and ``_paths``, so compare them with what
    the validated constructor computes; building it also checks every
    invariant the generators skip."""
    for lot in lots:
        ref = Lot(lot.vertices, lot.edges)
        assert (lot._iv, lot._paths, lot.name) == (ref._iv, ref._paths, ""), \
            format_lot(lot)


# ---------------------------------------------------------------------------
# iter_small_lots
# ---------------------------------------------------------------------------

class TestSmallLots:
    @pytest.mark.parametrize("max_edges,orientations",
                             [(k, o) for k in range(6) for o in (True, False)]
                             + [(6, False)])
    def test_matches_reference(self, max_edges, orientations):
        """Same LOTs in the same order as testing every (orientation,
        labeling) candidate against every automorphism on its own, with
        the int views the constructor would compute."""
        got = list(iter_small_lots(max_edges, orientations))
        want = list(reference_small_lots(max_edges, orientations))
        assert got == want
        assert_views_match_constructor(got)

    def test_sweep6_pinned(self):
        """The <=6 sweep of criterion 5, as it was generated before the
        orbit test moved to one pass per labeling."""
        assert digest(iter_small_lots(6)) == (
            163263,
            "60afe3866ef2c33020028a55dc26640e056ee717389bbd14e0fb726a0b8f8e2b")

    def test_sweep7_unoriented_pinned(self):
        assert digest(iter_small_lots(7, orientations=False)) == (
            55121,
            "cbb56d6bf61dff88a8e927dca240f48b7d736ad883082ede907232f99b99f639")

    def test_sweep6_sample_views_match_constructor(self, sweep6_every97):
        assert len(sweep6_every97) == 1684
        assert_views_match_constructor(sweep6_every97)

    @pytest.mark.parametrize("max_edges", [-1, -3])
    def test_negative_size_yields_nothing(self, max_edges):
        assert list(iter_small_lots(max_edges)) == []
        assert list(iter_small_lots(max_edges, orientations=False)) == []


# ---------------------------------------------------------------------------
# tree shapes
# ---------------------------------------------------------------------------

# unlabeled free trees on n = 1..12 vertices (OEIS A000055)
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


class TestTreeShapes:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_full_prufer_scan(self, n):
        assert tree_shapes(n) == reference_tree_shapes(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(ValueError, match=f"{n} vertices"):
            tree_shapes(n)

    def test_otter_count(self):
        assert tuple(sweep._free_tree_count(n) for n in range(1, 13)) \
            == FREE_TREES

    def test_scan_stops_at_last_class(self, monkeypatch):
        """For n = 8 the 23rd class first appears at Prufer index 5,349, so
        the scan reads 5,350 sequences of the 262,144."""
        read = []
        full_scan = sweep._prufer_trees

        def counting(n):
            for t in full_scan(n):
                read.append(t)
                yield t

        monkeypatch.setattr(sweep, "_prufer_trees", counting)
        shapes = tree_shapes.__wrapped__(8)
        assert len(shapes) == FREE_TREES[7]
        assert len(read) == 5350


# ---------------------------------------------------------------------------
# random_lot
# ---------------------------------------------------------------------------

class TestRandomLot:
    @pytest.mark.parametrize("n_edges", [-1, -2, -10])
    def test_negative_size_rejected(self, n_edges):
        with pytest.raises(ValueError):
            random_lot(random.Random(0), n_edges)
        with pytest.raises(ValueError):
            random_lot(random.Random(0), n_edges, injective=False,
                       compressed=False)

    def test_seeded_lots_pinned(self):
        """Every mode, sizes 0-12, seeds 0-39, as generated when a dead
        end retried by recursion; the grid includes dead ends.  Each LOT
        carries the int view the constructor would compute."""
        lots = [random_lot(random.Random(seed), k, inj, comp)
                for inj in (True, False) for comp in (True, False)
                for k in range(13) if not (k == 1 and comp)
                for seed in range(40)]
        assert digest(lots)[1] == (
            "22d2ca92c0390e1dbd5670fbda1d94489a50da910521a8c682722eec3d1b69f0")
        assert_views_match_constructor(lots)

    def test_dead_end_draws_again(self, monkeypatch):
        """Seed 144 at 3 edges hits three dead ends before its fourth
        tree takes labels."""
        trees = []
        decode = sweep._prufer_decode

        def counting(seq, n):
            trees.append(seq)
            return decode(seq, n)

        monkeypatch.setattr(sweep, "_prufer_decode", counting)
        random_lot(random.Random(144), 3)
        assert len(trees) == 4

    def test_many_dead_ends_need_no_recursion(self, monkeypatch):
        """More dead ends in a row than the recursion limit allows."""
        misses = [3000]
        labels = sweep._random_labels

        def dead_end_first(*args):
            if misses[0]:
                misses[0] -= 1
                return None
            return labels(*args)

        monkeypatch.setattr(sweep, "_random_labels", dead_end_first)
        lot = random_lot(random.Random(0), 5)
        assert lot.num_edges == 5 and misses[0] == 0
