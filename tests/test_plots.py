import pytest

from bevlab.plots import PlotError, line_plot


def read_plot_points(path):
    """The number of data points per series in a line_plot file."""
    counts = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("<polyline"):
                pts = line.split('points="', 1)[1].split('"', 1)[0]
                counts.append(len(pts.split()))
    return counts


def test_line_plot_writes_valid_svg_with_all_points(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(str(path),
              [("run a", [0.0, 0.5, 1.0, 2.0], [0.1, 0.3, 0.25, 0.4]),
               ("run b", [0.0, 1.0, 2.0], [0.05, 0.2, 0.35])],
              title="sweep", x_label="lambda", y_label="mAP")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "sweep" in text and "lambda" in text and "mAP" in text
    assert "run a" in text and "run b" in text
    assert read_plot_points(str(path)) == [4, 3]


def test_line_plot_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [("s", [0.0, 1.0], [1.5, 2.5])]
    line_plot(str(a), series)
    line_plot(str(b), series)
    assert a.read_bytes() == b.read_bytes()


def test_single_point_and_flat_series_render(tmp_path):
    path = tmp_path / "one.svg"
    line_plot(str(path), [("dot", [1.0], [0.5])])
    assert read_plot_points(str(path)) == [1]
    line_plot(str(path), [("flat", [0.0, 1.0, 2.0], [0.3, 0.3, 0.3])])
    assert read_plot_points(str(path)) == [3]


def test_bad_series_rejected(tmp_path):
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "x.svg"), [])
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "x.svg"), [("s", [1.0, 2.0], [1.0])])
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "x.svg"), [("s", [], [])])
