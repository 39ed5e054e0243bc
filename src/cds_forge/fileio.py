"""Edge-list files and DOT export.

The edge-list format: first significant line is "n m", then m lines "u v".
Labels are distinct, non-empty, whitespace-free tokens that do not start
with '#' and are mapped to dense internal ids in order of first appearance;
lines starting with '#' are comments.  The writer refuses any other label.
"""

from __future__ import annotations

import io
import logging
from .graph import Graph, new_graph
from .potential import Color, color_map

log = logging.getLogger(__name__)


def read_edge_list(path: str):
    """Parse a file into (Graph, labels).  labels[i] is the token that was
    mapped to internal id i.  Raises ValueError citing the line number."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    header: tuple[int, int] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if header is None:
                if len(tokens) != 2:
                    raise ValueError(f"{path}:{lineno}: expected header 'n m'")
                try:
                    header = (int(tokens[0]), int(tokens[1]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected header 'n m'") from None
                if header[0] < 1:
                    raise ValueError(f"{path}:{lineno}: vertex count must be positive")
                continue
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected an edge 'u v'")
            a, b = tokens
            if a == b:
                raise ValueError(f"{path}:{lineno}: self-loop on {a!r}")
            pair = []
            for tok in (a, b):
                if tok.startswith("#"):
                    # a line starting with such a label would read as a comment
                    raise ValueError(f"{path}:{lineno}: label {tok!r} starts with '#'")
                if tok not in index:
                    if len(labels) == header[0]:
                        raise ValueError(
                            f"{path}:{lineno}: label {tok!r} exceeds the declared "
                            f"{header[0]} vertices"
                        )
                    index[tok] = len(labels)
                    labels.append(tok)
                pair.append(index[tok])
            edges.append((pair[0], pair[1]))
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header 'n m'")
    n, m_declared = header
    if len(labels) != n:
        raise ValueError(
            f"{path}: header declares {n} vertices but {len(labels)} labels appear"
        )
    g = new_graph(n, edges)
    if g.edge_count != m_declared:
        log.warning(
            "%s: header declares %d edges, found %d after deduplication",
            path,
            m_declared,
            g.edge_count,
        )
    return g, tuple(labels)


def _check_labels(labels) -> None:
    """Raise ValueError naming the first label `read_edge_list` could not
    read back: an empty one, one holding whitespace or starting with '#',
    or a repeat."""
    seen = set()
    for label in map(str, labels):
        if label.split() != [label]:
            raise ValueError(f"label {label!r} is empty or holds whitespace")
        if label.startswith("#"):
            raise ValueError(f"label {label!r} starts with '#'")
        if label in seen:
            raise ValueError(f"label {label!r} appears twice")
        seen.add(label)


def format_edge_list(g: Graph, labels=None, comments=()) -> str:
    """The edge-list text of g; raises ValueError unless `labels` holds one
    label per vertex, each of which the reader accepts."""
    if labels is None:
        labels = tuple(str(v) for v in range(g.n))
    else:
        if len(labels) != g.n:
            raise ValueError(f"expected {g.n} labels, one per vertex, got {len(labels)}")
        _check_labels(labels)
    out = io.StringIO()
    for comment in comments:
        out.write(f"# {comment}\n")
    out.write(f"{g.n} {g.edge_count}\n")
    for u, v in g.edges():
        out.write(f"{labels[u]} {labels[v]}\n")
    return out.getvalue()


def write_edge_list(path: str, g: Graph, labels=None, comments=()) -> None:
    text = format_edge_list(g, labels, comments)  # a bad label leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_DOT_STYLE = {
    Color.BLACK: ' [style=filled, fillcolor=black, fontcolor=white]',
    Color.GRAY: ' [style=filled, fillcolor=gray]',
    Color.RED: ' [color=red]',
    Color.WHITE: "",
}


def _dot_id(label: str) -> str:
    """A DOT quoted ID: backslashes and double quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_dot(g: Graph, backbone, labels=None, m_fold: int = 2) -> str:
    """Render the graph with the backbone coloring: backbone vertices are
    filled black, dominated outsiders gray, under-dominated ones red
    outlined, untouched ones plain."""
    if labels is None:
        labels = tuple(str(v) for v in range(g.n))
    colors = color_map(g, backbone, m_fold)
    out = io.StringIO()
    out.write("graph backbone {\n")
    for v in range(g.n):
        out.write(f"  {_dot_id(labels[v])}{_DOT_STYLE[colors[v]]};\n")
    for u, v in g.edges():
        out.write(f"  {_dot_id(labels[u])} -- {_dot_id(labels[v])};\n")
    out.write("}\n")
    return out.getvalue()


def write_dot(path: str, g: Graph, backbone, labels=None, m_fold: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dot(g, backbone, labels, m_fold))
