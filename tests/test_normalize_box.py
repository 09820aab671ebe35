"""``normalize_box`` against the checks one by one.

A tuple or list of four ordered int pixels inside an int extent maps in one
expression; every other box goes through the checks one by one.  The oracle
``helpers.normalize_box_checked`` is the function before its all-int path, so
both must give an equal box, or the same error class and message, for any box
and extent.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import normalize_box_checked
from rsvl import markup
from rsvl.errors import ToolkitError
from rsvl.markup import Box, normalize_box

EXTENTS = [1, 999, 1000, 1001, 10**400, True, 2.0, 0]
ODD = [-0.0, 0.5, 2.5, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf,
       True, False, "3", None, [1]]


def _outcome(fn, box, width, height):
    try:
        got = fn(box, width, height)
    except ToolkitError as e:
        return type(e), str(e)
    return got, [type(v) for v in vars(got).values()]


@st.composite
def pixel_boxes(draw):
    """An extent and a box of ordered coordinates inside it, with at most one fault."""
    width, height = draw(st.sampled_from(EXTENTS)), draw(st.sampled_from(EXTENTS))

    def axis(extent):
        top = int(extent)
        pixel = st.one_of(st.integers(0, min(top, 5000)), st.just(top),
                          st.floats(0.0, float(min(top, 5000))))
        return sorted(draw(st.lists(pixel, min_size=2, max_size=2)))

    (x1, x2), (y1, y2) = axis(width), axis(height)
    values = [x1, y1, x2, y2]
    fault = draw(st.sampled_from(["none", "value", "order", "arity"]))
    if fault == "value":
        i = draw(st.integers(0, 3))
        top = int(width if i % 2 == 0 else height)
        values[i] = draw(st.sampled_from([*ODD, -1, top + 1]))
    elif fault == "order":
        values = [x2 + 1, y1, x1, y2] if draw(st.booleans()) else [x1, y2 + 1, x2, y1]
    elif fault == "arity":
        values = values[:3] if draw(st.booleans()) else [*values, 0]
    box = draw(st.sampled_from([tuple, list]))(values)
    return box, width, height


@settings(max_examples=400)
@given(pixel_boxes())
def test_normalize_box_matches_the_checks_one_by_one(drawn):
    box, width, height = drawn
    assert _outcome(normalize_box, box, width, height) == _outcome(normalize_box_checked, box, width, height)


@pytest.mark.parametrize("sequence", [tuple, list])
@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("value", [True, False, 2.0, -0.0, 10.0, -1, 11, None, "3"])
def test_each_odd_coordinate_matches_the_checks_one_by_one(value, i, sequence):
    box = [1, 1, 2, 2]
    box[i] = value
    box = sequence(box)
    assert _outcome(normalize_box, box, 10, 10) == _outcome(normalize_box_checked, box, 10, 10)


@given(st.integers(1, 5000), st.integers(1, 5000), st.data())
def test_ordered_int_boxes_take_the_one_expression_path(width, height, data):
    x1, x2 = sorted(data.draw(st.lists(st.integers(0, width), min_size=2, max_size=2)))
    y1, y2 = sorted(data.draw(st.lists(st.integers(0, height), min_size=2, max_size=2)))
    with mock.patch.object(markup, "_norm_coord", side_effect=AssertionError("mapped one by one")):
        got = normalize_box([x1, y1, x2, y2], width, height)
    assert got == normalize_box_checked((x1, y1, x2, y2), width, height)


@pytest.mark.parametrize("box,width,height,expected", [
    ((0.5, 0, 1, 1), 10**400, 10, Box(0, 0, 0, 100)),
    ((0.0, 0.0, 1e308, 1e308), 10**309, 10**309, Box(0, 0, 100, 100)),
    ((0.0, 0.0, 1e308, 1.5e308), int(1.7e308), int(1.7e308), Box(0, 0, 588, 882)),
])
def test_float_pixels_beyond_the_float_range_map_exactly(box, width, height, expected):
    assert normalize_box(box, width, height) == expected
