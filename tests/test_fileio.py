import logging
import re

import pytest

from cds_forge import (
    format_dot,
    format_edge_list,
    new_graph,
    read_edge_list,
    write_edge_list,
)

from conftest import P8_EDGES, cycle_edges


def _label_edges(g, labels):
    return {frozenset((labels[u], labels[v])) for u, v in g.edges()}


def test_round_trip(tmp_path, p8):
    # internal ids are assigned by first appearance in the file, so the
    # round trip preserves the labeled graph, not the id numbering
    path = tmp_path / "g.edges"
    write_edge_list(str(path), p8)
    g, labels = read_edge_list(str(path))
    assert g.n == p8.n
    assert sorted(labels) == [str(v) for v in range(8)]
    want = {frozenset((str(u), str(v))) for u, v in p8.edges()}
    assert _label_edges(g, labels) == want


def test_labels_and_comments(tmp_path):
    path = tmp_path / "labeled.edges"
    path.write_text("# generated for the parser test\n3 3\nalpha beta\nbeta gamma\ngamma alpha\n")
    g, labels = read_edge_list(str(path))
    assert g.n == 3
    assert g.edge_count == 3
    assert labels == ("alpha", "beta", "gamma")  # order of first appearance
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 0)


def test_format_includes_comments(p8):
    text = format_edge_list(p8, comments=("made by hand", "second line"))
    lines = text.splitlines()
    assert lines[0] == "# made by hand"
    assert lines[1] == "# second line"
    assert lines[2] == "8 10"
    assert len(lines) == 3 + 10


def test_read_errors(tmp_path):
    cases = {
        "empty.edges": ("", "empty"),
        "header.edges": ("3\n0 1\n", "header"),
        "badline.edges": ("3 2\n0 1\n0\n", ":3"),
        "selfloop.edges": ("3 2\n0 1\nx x\n", "self-loop"),
        "overflow.edges": ("2 2\n0 1\n1 2\n", "label"),
        "undercount.edges": ("4 2\n0 1\n1 2\n", "label"),
    }
    for name, (content, needle) in cases.items():
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(ValueError, match=needle):
            read_edge_list(str(p))


def test_self_loop_cites_line(tmp_path):
    p = tmp_path / "loop.edges"
    p.write_text("# note\n3 3\na b\nb b\nb c\n")
    with pytest.raises(ValueError, match=r"loop\.edges:4: self-loop on 'b'"):
        read_edge_list(str(p))


def test_duplicate_edge_warns(tmp_path, caplog):
    p = tmp_path / "dup.edges"
    p.write_text("3 3\n0 1\n1 0\n1 2\n")
    with caplog.at_level(logging.WARNING, logger="cds_forge.fileio"):
        g, _ = read_edge_list(str(p))
    assert g.edge_count == 2
    assert any("3 edges" in r.message or "declared" in r.message for r in caplog.records)


def test_dot_triangle_all_filled(triangle):
    text = format_dot(triangle, range(3))
    assert text.count("fillcolor=black") == 3
    assert text.startswith("graph backbone {")
    assert text.rstrip().endswith("}")


def test_dot_colors(p8):
    text = format_dot(p8, {0, 1, 2, 3})
    lines = {l.strip() for l in text.splitlines()}
    assert '"0" [style=filled, fillcolor=black, fontcolor=white];' in lines
    # vertex 6 has one backbone neighbor: outlined red
    assert '"6" [color=red];' in lines
    # vertex 5 sees no backbone vertex: plain
    assert '"5";' in lines
    assert text.count("--") == p8.edge_count


def test_dot_gray_when_dominated(p8):
    text = format_dot(p8, range(7))
    assert '"7" [style=filled, fillcolor=gray];' in text


def test_dot_respects_m_fold(k5):
    # with a higher threshold the same outsiders drop from gray to red
    low = format_dot(k5, {0, 1}, m_fold=2)
    high = format_dot(k5, {0, 1}, m_fold=3)
    assert low.count("fillcolor=gray") == 3
    assert high.count("color=red") == 3


def test_write_edge_list_round_trips_labels(tmp_path):
    g = new_graph(4, cycle_edges(4))
    path = tmp_path / "labeled_out.edges"
    write_edge_list(str(path), g, labels=("n1", "n2", "n3", "n4"), comments=("hi",))
    back, labels = read_edge_list(str(path))
    assert sorted(labels) == ["n1", "n2", "n3", "n4"]
    want = {frozenset(("n" + str(u + 1), "n" + str(v + 1))) for u, v in g.edges()}
    assert _label_edges(back, labels) == want


def test_hash_label_is_rejected(tmp_path):
    # "#b c" would be read as a comment, silently losing an edge
    path = tmp_path / "hash.edges"
    path.write_text("3 3\na #b\n#b c\nc a\n")
    with pytest.raises(ValueError, match=r"hash\.edges:2: label '#b'"):
        read_edge_list(str(path))


@pytest.mark.parametrize(
    "labels, bad",
    [
        (("a b", "c", "d"), "'a b'"),
        (("a", "#b", "d"), "'#b'"),
        (("a", "", "d"), "''"),
        (("a", "a", "d"), "'a'"),
    ],
    ids=["whitespace", "hash", "empty", "duplicate"],
)
def test_writer_rejects_labels_the_reader_rejects(tmp_path, labels, bad):
    g = new_graph(3, cycle_edges(3))
    # the reader rejects the text the writer would have produced
    path = tmp_path / "raw.edges"
    path.write_text("3 3\n" + "".join(f"{labels[u]} {labels[v]}\n" for u, v in g.edges()))
    with pytest.raises(ValueError):
        read_edge_list(str(path))
    with pytest.raises(ValueError, match=f"label {re.escape(bad)}"):
        format_edge_list(g, labels)
    out = tmp_path / "out.edges"
    with pytest.raises(ValueError, match=f"label {re.escape(bad)}"):
        write_edge_list(str(out), g, labels)
    assert not out.exists()


@pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c", "d")], ids=["short", "long"])
def test_writer_rejects_a_label_count_other_than_n(tmp_path, labels):
    g = new_graph(3, cycle_edges(3))
    want = f"expected 3 labels, one per vertex, got {len(labels)}"
    with pytest.raises(ValueError, match=want):
        format_edge_list(g, labels)
    out = tmp_path / "out.edges"
    with pytest.raises(ValueError, match=want):
        write_edge_list(str(out), g, labels)
    assert not out.exists()


def test_dot_escapes_quotes_and_backslashes():
    labels = ('a"b', "c\\", 'd\\"e')
    text = format_dot(new_graph(3, cycle_edges(3)), {0}, labels=labels)
    assert '"a\\"b"' in text and '"c\\\\"' in text and '"d\\\\\\"e"' in text
    # every quoted ID on the node lines reads back as its label
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', text)
    assert [re.sub(r"\\(.)", r"\1", i) for i in ids[:3]] == list(labels)
    assert len(ids) == 3 + 2 * 3
