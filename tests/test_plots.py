import pytest

from bevlab.plots import PlotError, line_plot


LABELS = {"title": "sweep", "x_label": "lambda", "y_label": "val mAP (extended RoI)"}


def read_plot_points(path):
    """The number of data points per polyline and of circles in a line_plot file."""
    counts, circles = [], 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("<polyline"):
                pts = line.split('points="', 1)[1].split('"', 1)[0]
                counts.append(len(pts.split()))
            circles += line.startswith("<circle")
    return counts, circles


def test_line_plot_writes_valid_svg_with_all_points(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(str(path), [0.0, 0.5, 1.0, 2.0], [0.1, 0.3, 0.25, 0.4], **LABELS)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert all(f">{label}</text>" in text for label in LABELS.values())
    assert read_plot_points(str(path)) == ([4], 4)


def test_line_plot_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot(str(a), [0.0, 1.0], [1.5, 2.5], **LABELS)
    line_plot(str(b), [0.0, 1.0], [1.5, 2.5], **LABELS)
    assert a.read_bytes() == b.read_bytes()


def test_single_point_and_flat_series_render(tmp_path):
    path = tmp_path / "one.svg"
    line_plot(str(path), [1.0], [0.5], **LABELS)
    assert read_plot_points(str(path)) == ([1], 1)
    line_plot(str(path), [0.0, 1.0, 2.0], [0.3, 0.3, 0.3], **LABELS)
    assert read_plot_points(str(path)) == ([3], 3)


def test_bad_series_rejected(tmp_path):
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "x.svg"), [1.0, 2.0], [1.0], **LABELS)
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "x.svg"), [], [], **LABELS)
