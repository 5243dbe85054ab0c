"""Pinned bytes of each SVG renderer on fixed inputs.

The renderers have fixed sizes; these hashes show that a change to how a
size is set leaves every figure byte-identical.
"""

import hashlib

import pytest

from evperf import figures

FIGURES = {
    "bar_chart": lambda: figures.bar_chart(
        ["a", "b<c", "d"], [1.5, -0.25, 0.0], "Bars & more", xlabel="x"),
    "scatter": lambda: figures.scatter(
        [0.0, 1.0, 2.5, 2.5], [3.0, -1.0, 0.5, 0.25], "Scatter", "x", "y"),
    "empty_scatter": lambda: figures.scatter([], [], "Empty", "x", "y"),
    "heatmap": lambda: figures.heatmap(
        [[1, 2, 0], [3, 4, 5]], ["r0", "r1"], ["c0", "c1", "c2"], "Heat"),
    "strip_plot": lambda: figures.strip_plot(
        [("a", [0.1, -0.2, 0.3]), ("b", [0.0, 0.5])], "Strip", "phi"),
    "force_chart": lambda: figures.force_chart(
        [("x", 1.0, 0.3), ("y", 2.0, -0.1)], 0.5, 0.7, "Force"),
}

SVG_SHA256 = {
    "bar_chart": "f44b2859c917c110b80dd119f884e72c893f12859b4f60254eb684be86b50890",
    "empty_scatter": "692e24e7a13a74153b1395ddaeb1e6f9dcafb95801907042eaf47748cdb8b7d5",
    "force_chart": "4bc0c2674157de936fd1f8ed9c3a0838c7917d970aac29356d79f5d4c81a97dd",
    "heatmap": "f9fe1fda24884bba3dfc12f78dd4c1a8c1ac97db7505b8d2fbd5fdaf1140dd79",
    "scatter": "c804c4dbf12a1afa727f97f2d48d69bb46668c5f1f69dea92a3a17f8c0b7ab5b",
    "strip_plot": "447875e95b6739762f5faa38c019d3a33ea9e7ab5605245fd43efc37a99fcd4c",
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_svg_bytes_pinned(name):
    svg = FIGURES[name]()
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_SHA256[name]
