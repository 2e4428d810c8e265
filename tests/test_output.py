from __future__ import annotations

import math
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerisk import Series, emit_csv, emit_svg
from framerisk.output import _nice_ticks, format_value

MAX = sys.float_info.max
DATA_DIR = Path(__file__).parent / "data"

# Linear-axis charts written once and frozen under tests/data/: the goldens
# pin only a log x axis.
FROZEN_CHARTS = {
    "chart_negative_y.svg": [Series("loss", [1.0, 2.0, 3.0, 4.0], [-3.5, -1.25, -2.0, -0.5])],
    "chart_two_spans.svg": [
        Series("narrow", [0.0, 1.0, 2.0], [0.1, 0.5, 0.3]),
        Series("wide", [0.5, 4.0, 9.5], [12.0, 7.5, 3.25]),
    ],
    "chart_lone_value.svg": [Series("lone", [3.0, 3.0], [3.0, 3.0])],
    "chart_empty.svg": [Series("nothing", [], [])],
}

# Eight series, so the palette of seven wraps, the last a lone point drawn
# without a polyline, and all four escaped characters in every text.
ESCAPED_CHART = "chart_escaped_eight_series.svg"
ESCAPED_SERIES = [
    *(Series(f"s{i}", [0.0, 1.0, 2.0], [i, i + 0.5, 0.75 * i]) for i in range(6)),
    Series('cost & "risk" <p_ld>', [0.5, 1.5], [7.25, 2.5]),
    Series("lone", [1.25], [4.0]),
]
ESCAPED_TEXT = {"title": 'R&D "frames" <8x8>', "x_label": "x < 1 & y > 0", "y_label": '"beta" & <p>'}


def bounded(call, *args, events=100_000):
    """``call(*args)``, failed once its frames have raised ``events`` trace
    events: a tick loop that never ends fails within a second instead of
    filling the memory."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += 1
        if count > events:
            raise AssertionError(f"{call.__name__} ran past {events} trace events")
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        return call(*args)
    finally:
        sys.settrace(previous)


class TestCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = emit_csv(tmp_path / "empty.csv", ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"

    def test_six_significant_digits(self, tmp_path):
        path = emit_csv(tmp_path / "fmt.csv", ["x"], [(1.23456789,), (1234567.89,), (0.000123456789,)])
        lines = path.read_text().splitlines()
        assert lines[1] == "1.23457"
        assert lines[2] == "1.23457e+06"
        assert lines[3] == "0.000123457"

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.nan, "nan"),
            (-math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (-0.0, "-0"),
            (True, "True"),
            (7, "7"),
            (np.float64(1.23456789), "1.23457"),
            (np.float64(-math.inf), "-inf"),
            ("bending", "bending"),
        ],
    )
    def test_format_value(self, value, text):
        assert format_value(value) == text

    def test_ints_and_strings_verbatim(self, tmp_path):
        path = emit_csv(tmp_path / "mix.csv", ["n", "tag"], [(7, "bending")])
        assert path.read_text().splitlines()[1] == "7,bending"

    def test_rfc4180_quoting(self, tmp_path):
        path = emit_csv(tmp_path / "quote.csv", ["tag"], [("a,b",), ('say "hi"',)])
        lines = path.read_text().splitlines()
        assert lines[1] == '"a,b"'
        assert lines[2] == '"say ""hi"""'

    def test_lf_line_endings(self, tmp_path):
        path = emit_csv(tmp_path / "lf.csv", ["x"], [(1.0,), (2.0,)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rerun_is_byte_identical(self, tmp_path):
        rows = [(i, i * math.pi) for i in range(20)]
        a = emit_csv(tmp_path / "a.csv", ["i", "v"], rows).read_bytes()
        b = emit_csv(tmp_path / "b.csv", ["i", "v"], rows).read_bytes()
        assert a == b


class TestSvg:
    def test_valid_svg_document(self, tmp_path):
        series = [Series("one", [1, 2, 3], [1.0, 4.0, 2.0])]
        emit_svg(series, tmp_path / "chart.svg", title="t", x_label="x", y_label="y")
        root = ET.parse(tmp_path / "chart.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_single_point_series(self, tmp_path):
        emit_svg([Series("pt", [2.0], [3.0])], tmp_path / "point.svg")
        text = (tmp_path / "point.svg").read_text()
        assert "<circle" in text
        assert "polyline" not in text

    def test_nonfinite_points_dropped_with_warning(self, tmp_path):
        series = [Series("s", [1.0, 2.0, 3.0, 4.0], [1.0, float("nan"), float("inf"), 2.0])]
        with pytest.warns(UserWarning, match="2 non-plottable"):
            dropped = emit_svg(series, tmp_path / "drop.svg")
        assert dropped == 2

    def test_log_axis_drops_nonpositive_x(self, tmp_path):
        series = [Series("s", [0.0, 1e-3, 1e-2], [1.0, 2.0, 3.0])]
        with pytest.warns(UserWarning):
            dropped = emit_svg(series, tmp_path / "log.svg", log_x=True)
        assert dropped == 1
        assert "1e-3" in (tmp_path / "log.svg").read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        series = [
            Series("alpha", [1e-6, 1e-4, 1e-2, 1.0], [0.4, 0.6, 0.9, 1.2]),
            Series("beta", [1e-6, 1e-4, 1e-2, 1.0], [1.3, 1.25, 1.3, 1.65]),
        ]
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_svg(series, a, title="factors", log_x=True)
        emit_svg(series, b, title="factors", log_x=True)
        assert a.read_bytes() == b.read_bytes()

    def test_legend_names_present(self, tmp_path):
        emit_svg(
            [Series("tall frame", [1, 2], [1, 2]), Series("low frame", [1, 2], [2, 1])],
            tmp_path / "legend.svg",
        )
        text = (tmp_path / "legend.svg").read_text()
        assert "tall frame" in text
        assert "low frame" in text

    def test_text_is_escaped(self, tmp_path):
        emit_svg([Series("a<b>&c", [1, 2], [1, 2])], tmp_path / "esc.svg", title='q "x" <y>')
        ET.parse(tmp_path / "esc.svg")  # would raise on malformed XML

    def test_empty_series_still_valid(self, tmp_path):
        emit_svg([Series("nothing", [], [])], tmp_path / "empty.svg")
        ET.parse(tmp_path / "empty.svg")

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("ends", [(6.0, 6.000000000000001), (0.0, 5e-324)], ids=["one-ulp", "subnormal"])
    def test_axis_a_few_ulps_wide(self, tmp_path, axis, ends):
        # a step under half an ulp of 6 never moved a tick, and a span of
        # 5e-324 has a sixth of 0, whose log10 raised
        xs, ys = (list(ends), [1.0, 2.0]) if axis == "x" else ([1.0, 2.0], list(ends))
        bounded(emit_svg, [Series("narrow", xs, ys)], tmp_path / "narrow.svg")
        text = (tmp_path / "narrow.svg").read_text()
        ET.parse(tmp_path / "narrow.svg")
        assert text.count('stroke="#e3e3e3"') <= 2 * 8  # gridlines, one per tick

    @pytest.mark.parametrize("name", sorted(FROZEN_CHARTS))
    def test_linear_chart_matches_frozen_bytes(self, tmp_path, name):
        emit_svg(FROZEN_CHARTS[name], tmp_path / name, title=name, x_label="x", y_label="y")
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes()

    def test_escaped_chart_of_eight_series_matches_frozen_bytes(self, tmp_path):
        emit_svg(ESCAPED_SERIES, tmp_path / ESCAPED_CHART, **ESCAPED_TEXT)
        text = (tmp_path / ESCAPED_CHART).read_text()
        assert text.count("<polyline") == 7 and text.count("<circle") == 6 * 3 + 2 + 1
        assert (tmp_path / ESCAPED_CHART).read_bytes() == (DATA_DIR / ESCAPED_CHART).read_bytes()


# Finite floats with the ends of the float range, ulp-sized spans and the
# values past which a half no longer moves a float drawn often.
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([MAX, -MAX, 1e308, -1e308, 2.0**53, 1e17, -1e17, 5e-324, 0.0, 1.0]),
)
points = st.lists(st.tuples(finite, finite), max_size=6)
COORDINATES = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")


@settings(max_examples=100, deadline=None)
@given(data=st.lists(points, min_size=1, max_size=3), log_x=st.booleans())
def test_every_finite_series_plots(tmp_path_factory, data, log_x):
    path = tmp_path_factory.mktemp("svg") / "chart.svg"
    series = [Series(f"s{i}", [x for x, _ in pts], [y for _, y in pts]) for i, pts in enumerate(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        emit_svg(series, path, log_x=log_x)
    for element in ET.parse(path).getroot():
        values = [element.attrib[key] for key in COORDINATES if key in element.attrib]
        values += element.attrib.get("points", "").replace(",", " ").split()
        assert all(math.isfinite(float(v)) for v in values), ET.tostring(element)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 1.0),
        (6.0, 6.000000000000001),
        (1.0, 1.0000000000000007),
        (7.99999999999999, 8.00000000000001),  # the ulp doubles at 8
        (0.0, 5e-324),
        (-5e-324, 5e-324),
        (0.0, 1e-310),
        (-MAX, MAX),  # the span overflows
        (1e308, MAX),  # a step past the last tick overflows
        (-MAX, -1e308),
    ],
)
def test_nice_ticks_are_few_distinct_and_on_the_axis(lo, hi):
    ticks = bounded(_nice_ticks, lo, hi)
    assert 2 <= len(ticks) <= 8
    assert ticks == sorted(set(ticks))
    tol = 1e-9 * (hi / 6 - lo / 6)
    assert lo - tol <= ticks[0] and ticks[-1] <= hi + tol
