"""The cut that spreads a scan or the verify battery over the usable CPUs."""

import math
from bisect import bisect_left
from itertools import accumulate, pairwise
from random import Random

import pytest

from planicheck.checks import balanced_parts
from planicheck.scenarios import _grid_rows


def assert_a_cut(items, parts, cut):
    # contiguous, in order, nonempty, and no more parts than asked or items
    assert [item for part in cut for item in part] == items
    assert all(cut)
    assert len(cut) <= min(parts, len(items))


def test_zero_weights_make_one_part():
    items = list("abcd")
    for parts in (1, 2, 3, 7):
        assert balanced_parts(items, [0, 0, 0, 0], parts) == [items]


def test_more_parts_than_items_give_one_item_a_part():
    items = list("abc")
    assert balanced_parts(items, [1, 1, 1], 10) == [["a"], ["b"], ["c"]]
    assert balanced_parts(["a"], [5], 4) == [["a"]]
    assert balanced_parts(items, [1, 0, 0], 3) == [["a"], ["b", "c"]]


def test_a_dominant_item_takes_a_part_of_its_own():
    # the verify battery's shape: the first suite outweighs the rest, which
    # share one part however many are asked for
    items = list("abcde")
    for parts in (2, 3, 4, 5):
        assert balanced_parts(items, [1000, 100, 10, 10, 10], parts) == [
            ["a"], ["b", "c", "d", "e"]]
    # a dominant last item: its cut falls on it, never past it
    assert balanced_parts(items, [1, 1, 1, 1, 100], 2) == [
        ["a", "b", "c", "d"], ["e"]]
    assert balanced_parts(items, [1, 1, 1, 1, 100], 5) == [
        ["a", "b", "c", "d"], ["e"]]
    assert balanced_parts(items, [1, 100, 1, 1, 1], 3) == [
        ["a", "b"], ["c", "d", "e"]]


def test_random_weights_give_nonempty_contiguous_parts():
    rng = Random(5)
    for _ in range(2000):
        items = list(range(rng.randint(1, 9)))
        weights = [rng.choice([0, 0, 1, 2, 10, 1000]) for _ in items]
        parts = rng.randint(1, 12)
        assert_a_cut(items, parts, balanced_parts(items, weights, parts))


def row_chunks_before(rows, parts):
    """The scan's cut as it was before it shared the cut with the verify
    battery: the parts capped at the rows, each cut the first row at which
    the nodes before it reach their share."""
    parts = min(parts, len(rows))
    prefix = list(accumulate((n for _, n in rows), initial=0))
    cuts = sorted({bisect_left(prefix, -(-c * prefix[-1] // parts))
                   for c in range(1, parts)})
    return [rows[s:e] for s, e in pairwise([0, *cuts, len(rows)])]


@pytest.mark.parametrize("step_deg", [0.25, 1, 1.2, 2, 3, 30, 60])
@pytest.mark.parametrize("max_angle", [math.pi, math.pi / 2])
def test_the_scan_chunks_stay_as_they_were(step_deg, max_angle):
    _, rows = _grid_rows(math.radians(step_deg), max_angle)
    for parts in range(1, 9):
        chunks = balanced_parts(rows, [n for _, n in rows], parts)
        assert chunks == row_chunks_before(rows, parts)
        assert_a_cut(rows, parts, chunks)
