"""SVG line charts: polylines decimated to at most four points per pixel column."""

import itertools
import math
import signal
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ptlattice import svgplot
from ptlattice.svgplot import Series, render_line_chart

NS = {"svg": "http://www.w3.org/2000/svg"}


def polylines(path):
    root = ET.parse(path).getroot()
    return [line.get("points").split() for line in root.iterfind("svg:polyline", NS)]


def render_pair(tmp_path, monkeypatch, series, **kwargs):
    """The chart as drawn, and the same chart with every point kept."""
    decimated = render_line_chart(tmp_path / "decimated.svg", series, **kwargs)
    monkeypatch.setattr(svgplot, "_m4", lambda px, py: np.ones(px.size, dtype=bool))
    full = render_line_chart(tmp_path / "full.svg", series, **kwargs)
    monkeypatch.undo()
    return decimated, full


def m4_reference(px, py):
    """Indices kept per run of consecutive points in one pixel column, by a plain loop."""
    kept = []
    runs = itertools.groupby(range(len(px)), key=lambda i: math.floor(px[i]))
    for _, run in runs:
        run = list(run)
        heights = [py[i] for i in run]
        chosen = {run[0], run[-1], run[heights.index(min(heights))],
                  run[heights.index(max(heights))]}
        kept.extend(sorted(chosen))
    return kept


def test_at_most_two_points_per_column_is_byte_identical(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 900)  # about 0.62 px apart on the 560-px plot
    series = [Series("a", x, rng.normal(size=x.size)),
              Series("b", x[::3], np.cos(9.0 * x[::3]), dashed=True)]
    decimated, full = render_pair(tmp_path, monkeypatch, series)
    columns = np.floor(np.array([float(p.split(",")[0]) for p in polylines(full)[0]]))
    assert np.unique(columns, return_counts=True)[1].max() == 2
    assert decimated.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("n, grid", [
    (50_000, lambda s: s),  # uniform, about 89 points per column
    (3_000, lambda s: s**6),  # runs of hundreds of points down to single points
    (50_000, lambda s: np.abs(np.sin(7.0 * s))),  # back and forth: columns revisited
], ids=["uniform", "graded", "back_and_forth"])
def test_each_column_keeps_first_last_lowest_highest(n, grid):
    rng = np.random.default_rng(7)
    x = 64.0 + 560.0 * grid(np.linspace(0.0, 1.0, n))
    y = 200.0 + 150.0 * np.sin(np.linspace(0.0, 3000.0, n)) + rng.normal(size=n)
    keep = svgplot._m4(x, y)
    assert np.flatnonzero(keep).tolist() == m4_reference(x.tolist(), y.tolist())


def m4_concatenating(px, py):
    """_m4's mask as np.r_ concatenations write it."""
    col = np.floor(px)
    first = np.r_[True, col[1:] != col[:-1]]
    keep = first | np.r_[first[1:], True]
    run = np.cumsum(first) - 1
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(py == extreme.reduceat(py, np.flatnonzero(first))[run])
        keep[hit[np.r_[True, np.diff(run[hit]) != 0]]] = True
    return keep


def test_m4_matches_the_concatenating_expression():
    rng = np.random.default_rng(5)
    for trial in range(300):
        # runs of 1-50 points per column, columns sometimes revisited, heights with ties
        runs = rng.integers(1, 51, size=rng.integers(1, 30))
        columns = np.cumsum(rng.integers(-1, 3, size=runs.size)) + 300
        px = np.repeat(columns, runs) + rng.uniform(0.0, 1.0, runs.sum())
        py = rng.integers(0, 4, runs.sum()) * 7.5 if trial % 2 else rng.normal(size=runs.sum())
        np.testing.assert_array_equal(svgplot._m4(px, py), m4_concatenating(px, py))


def formatted(x, y):
    return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))


def assert_points_match_format(values):
    """_points with values as x and, reversed, as y, in one line and point by point."""
    x = np.array(values, dtype=float)
    y = x[::-1].copy()
    assert svgplot._points(x, y) == formatted(x, y)
    for a, b in zip(x[:, None], y[:, None]):
        assert svgplot._points(a, b) == formatted(a, b)


def test_points_match_format_on_random_pixels():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0.0, 640.0, 20_000), rng.uniform(0.0, 1.0, 2_000),
                        rng.uniform(0.0, 10.0, 2_000)])
    y = rng.permutation(x)
    assert svgplot._points(x, y) == formatted(x, y)


def test_points_match_format_at_exact_ties():
    # odd multiples of 1/8 are exact doubles whose cents end in a 5: "{:.2f}" rounds half to even
    eighths = np.arange(1, 640 * 8, 2) / 8
    assert_points_match_format(eighths[::37])
    assert svgplot._points(eighths, eighths) == formatted(eighths, eighths)


def test_points_match_format_one_double_from_a_tie():
    ties = (np.arange(64_000) + 0.5) / 100  # the doubles nearest x.xx5
    for values in (ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)):
        assert svgplot._points(values, values[::-1]) == formatted(values, values[::-1])


@pytest.mark.parametrize("edge", [0.0, -0.0, -1e-300, -0.004, 999.994, 999.995, 1000.0, 1e5])
def test_points_match_format_at_the_ends_of_the_tables(edge):
    assert_points_match_format([edge])
    assert_points_match_format([12.34, edge, 0.5, 639.99])


def test_a_line_off_the_tables_is_formatted_point_by_point(monkeypatch):
    # with the whole-part table blanked, only a line formatted point by point stays right
    monkeypatch.setattr(svgplot, "_WHOLE", np.zeros_like(svgplot._WHOLE))
    x = np.array([64.0, 100.25, 623.5])
    assert svgplot._points(x, x) != formatted(x, x)
    for odd in (-0.0, 0.125, 1000.0, np.nextafter(0.125, 1.0)):
        line = np.append(x, odd)
        assert svgplot._points(line, x[[0, 1, 2, 0]]) == formatted(line, x[[0, 1, 2, 0]])


def test_dense_chart_is_decimated(tmp_path, monkeypatch):
    t = np.linspace(-300.0, 300.0, 45_001)
    y = np.exp(-t * t / 1e4) * np.sin(3.0 * t)
    decimated, full = render_pair(tmp_path, monkeypatch, [Series("s", t, y)])
    kept, every = polylines(decimated)[0], polylines(full)[0]
    assert len(kept) <= 4 * 561
    assert kept[0] == every[0] and kept[-1] == every[-1]
    # an ordered subsequence of the full polyline, keeping its extremes
    rest = iter(every)
    assert all(point in rest for point in kept)
    heights = [float(p.split(",")[1]) for p in every]
    kept_heights = [float(p.split(",")[1]) for p in kept]
    assert (min(kept_heights), max(kept_heights)) == (min(heights), max(heights))


def test_non_monotone_and_log_charts_render(tmp_path):
    phase = np.linspace(0.0, 40.0, 20_000)
    loop = Series("loop", np.cos(phase), np.sin(3.0 * phase))
    out = render_line_chart(tmp_path / "loop.svg", [loop])
    (points,) = polylines(out)
    assert 2 < len(points) < phase.size
    rates = np.geomspace(1e-3, 10.0, 5_000)
    out = render_line_chart(tmp_path / "log.svg", [Series("p", rates, np.exp(-1.0 / rates))],
                            x_log=True)
    (points,) = polylines(out)
    assert 2 < len(points) < rates.size


@pytest.fixture
def one_second():
    """Fail a test that runs past 1 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("chart took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


def y_tick_labels(path):
    root = ET.parse(path).getroot()
    return [t.text for t in root.iterfind("svg:text[@text-anchor='end']", NS)]


def test_ticks_end_when_the_step_is_below_the_double_spacing(tmp_path, one_second):
    # 5 is below the spacing of doubles (16) at 1e17: adding it leaves a tick in place
    x = np.arange(21.0)
    out = render_line_chart(tmp_path / "big.svg", [Series("y", x, 1e17 + x)])
    labels = y_tick_labels(out)
    assert 1 <= len(labels) <= 7 and len(set(labels)) == len(labels)


@pytest.mark.parametrize("level", [1e16, -1e16, 3.0])
def test_constant_series_range_is_widened(tmp_path, one_second, level):
    x = np.arange(5.0)
    out = render_line_chart(tmp_path / "flat.svg", [Series("y", x, np.full(5, level))])
    (points,) = polylines(out)
    heights = {float(p.split(",")[1]) for p in points}
    assert len(heights) == 1 and all(map(math.isfinite, heights))
    assert y_tick_labels(out)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [0.0, 1.7e308]),
    ([0.0, 1.0], [-1.7e308, 1.7e308]),
    ([-1.7e308, 1.7e308], [1.7e308, 1.7e308]),
], ids=["padding_overflows", "span_overflows", "x_span_and_constant_y"])
def test_ranges_near_the_largest_double_stay_finite(tmp_path, x, y):
    # the 4% padding and the span of the range are taken in halves, and the
    # axis ends are clamped to the finite doubles
    out = render_line_chart(tmp_path / "huge.svg", [Series("y", np.array(x), np.array(y))])
    (points,) = polylines(out)
    coords = [float(v) for p in points for v in p.split(",")]
    assert len(coords) == 4 and all(map(math.isfinite, coords))
    root = ET.parse(out).getroot()
    ticks = [float(t.get(k)) for t in root.iterfind("svg:line", NS) for k in ("x1", "y1")]
    assert all(map(math.isfinite, ticks))
    labels = [float(t.text) for t in root.iterfind("svg:text", NS) if t.text != "y"]
    assert len(labels) >= 4 and all(map(math.isfinite, labels))


def test_tick_labels_tell_their_ticks_apart(tmp_path):
    x = np.arange(5.0)
    # the five ticks of a constant series at 1e16 all read 1e+16 at {:g}'s 6 digits
    out = render_line_chart(tmp_path / "flat.svg", [Series("y", x, np.full(5, 1e16))])
    labels = y_tick_labels(out)
    assert len(labels) == 5 and len(set(labels)) == 5
    assert [float(label) for label in labels] == [1e16 + k * 5e6 for k in range(-2, 3)]
    assert "1e+16" in labels
    # labels that {:g} keeps apart stay as they are
    out = render_line_chart(tmp_path / "unit.svg", [Series("y", x, x / 4)])
    assert y_tick_labels(out) == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert svgplot._labels([1.0, 1.0 + 1e-6, 2.5e-7]) == ["1", "1.000001", "2.5e-07"]


def x_tick_labels(path):
    root = ET.parse(path).getroot()
    tick_y = str(svgplot.HEIGHT - svgplot.MARGIN_B + 18)
    texts = root.iterfind("svg:text", NS)
    return {t.text: float(t.get("x")) for t in texts if t.get("y") == tick_y}


def test_log_axis_within_one_decade_is_labelled_in_rates(tmp_path):
    # 0.15-0.3 holds no power of ten: the ticks are rates in the range, at their log10
    rates = np.geomspace(0.15, 0.3, 7)
    out = render_line_chart(tmp_path / "narrow.svg", [Series("p", rates, rates)], x_log=True)
    ticks = x_tick_labels(out)
    assert list(ticks) == ["0.15", "0.2", "0.25", "0.3"]
    left, right = svgplot.MARGIN_L, svgplot.WIDTH - svgplot.MARGIN_R
    for label, x in ticks.items():
        share = math.log10(float(label) / 0.15) / math.log10(2.0)
        assert x == pytest.approx(left + share * (right - left), abs=0.05)
    # a range that holds a decade keeps its decade ticks
    out = render_line_chart(tmp_path / "wide.svg", [Series("p", rates / 2, rates)], x_log=True)
    assert list(x_tick_labels(out)) == ["1e-1"]


def test_log_axis_over_a_few_subnormals_has_a_tick(tmp_path):
    # the tick step in halves of 5e-324..1e-323 rounds to 0, and 10**-322 is
    # a subnormal rounded below the step that 5.96e-319..6.02e-319 asks for
    for lo, hi in [(5e-324, 1e-323), (5.95784e-319, 6.0175e-319)]:
        series = [Series("y", np.array([lo, hi]), np.array([0.0, 1.0]))]
        ticks = x_tick_labels(render_line_chart(tmp_path / "tiny.svg", series, x_log=True))
        assert ticks and all(svgplot.MARGIN_L <= x <= svgplot.WIDTH - svgplot.MARGIN_R
                             for x in ticks.values())
    # a range that holds its decade keeps it, as before
    series = [Series("y", np.array([1e-310, 2e-310]), np.array([0.0, 1.0]))]
    out = render_line_chart(tmp_path / "decade.svg", series, x_log=True)
    assert x_tick_labels(out) == {"1e-310": 64.0}
    assert polylines(out) == [["64.00,378.96", "624.00,53.04"]]


def test_a_chart_with_no_finite_point_is_refused(tmp_path):
    nan = Series("y", np.arange(3.0), np.full(3, math.nan))
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_chart(tmp_path / "none.svg", [nan])
    assert not (tmp_path / "none.svg").exists()
