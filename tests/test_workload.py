import io
import math
import re
import sys
import time
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmds import (DemandDistribution, DemandMap, NetworkGraph,
                  generate_topology, parse_topology, read_demand,
                  sample_demand, segment_views, write_demand, write_edges,
                  write_gml, zipf_pmf, zipf_rank_to_view)
from mmds.cli import ScenarioConfig, main, run_scenario
from mmds.workload import (_MAX_NESTING, _node_id, _one_id_kind, _parse_gml,
                           _token_lines, _tokenize_gml)

KDL = files("mmds.data") / "kdl_754_895.gml"

SMALL_GML = """
Creator "by hand"
graph [
  directed 0
  node [ id 1 label "alpha" graphics [ x 1 y 2 ] ]
  node [ id 2 label "beta" ]
  node [ id 3 ]
  edge [ source 1 target 2 weight 5 ]
  edge [ source 2 target 3 ]
  edge [ source 2 target 1 ]
]
"""

class TestParseGml:
    def test_bundled_wide_area_topology(self):
        g = parse_topology(str(KDL), "gml")
        assert g.node_count == 754
        assert g.edge_count == 895
        assert g.is_connected()

    def test_small_graph_with_attributes(self):
        g = parse_topology(io.StringIO(SMALL_GML), "gml")
        assert g.node_count == 3
        assert g.edge_count == 2  # duplicate 1-2 collapsed
        assert g.labels[1] == "alpha"
        assert g.server == 1

    def test_malformed_block_names_line(self):
        bad = "graph [\n  node [ label \"x\" ]\n]"
        with pytest.raises(ValueError, match="line 2"):
            parse_topology(io.StringIO(bad), "gml")

    def test_truncated_file_names_its_last_line(self):
        with pytest.raises(ValueError, match="^line 3: "):
            parse_topology(io.StringIO("graph [\n node [ id 1 ]\n node [ id"),
                           "gml")
        with pytest.raises(ValueError, match="^line 2: unterminated block"):
            parse_topology(io.StringIO("graph [\n node [ id 1 ]\n"), "gml")

    def test_quoted_brackets_are_plain_labels(self):
        text = ('graph [ node [ id 1 label "[" ] '
                'node [ id 2 label "]" ] edge [ source 1 target 2 ] ]')
        g = parse_topology(io.StringIO(text), "gml")
        assert g.labels == {1: "[", 2: "]"}

    def test_key_without_value_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: id has no value"):
            parse_topology(io.StringIO("graph [\n  node [ id ]\n]"), "gml")

    @pytest.mark.parametrize("tail", ["]", "foo"])
    def test_junk_after_the_graph_block_raises(self, tail):
        with pytest.raises(ValueError, match="^line 2: "):
            parse_topology(io.StringIO(f"graph [ node [ id 1 ] ]\n{tail}\n"),
                           "gml")

    def test_quoted_key_raises(self):
        with pytest.raises(ValueError, match="^line 2: expected a key"):
            parse_topology(io.StringIO('graph [\n node [ id 1 "q q" 2 ] ]'), "gml")

    def test_deep_nesting_is_a_parse_error(self):
        text = "graph [ node [ id 1 ] " + "x [ " * 5000 + "] " * 5001
        with pytest.raises(ValueError, match="^line 1: blocks nested too deeply"):
            parse_topology(io.StringIO(text), "gml")

    def test_first_scalar_value_of_a_key_wins(self):
        nodes, labels, edges = _parse_gml(
            'graph [ node [ id [ x 9 ] id 1 id 2 label "a" label "b" ] ]')
        assert (nodes, labels, edges) == ({1}, {1: "a"}, [])

    def test_missing_path_with_a_space_is_no_topology_text(self, tmp_path):
        missing = tmp_path / "no such dir" / "net.gml"
        with pytest.raises(FileNotFoundError):
            parse_topology(str(missing), "gml")

    def test_missing_graph_block(self):
        with pytest.raises(ValueError, match=r"^line 1: no 'graph \[ \.\.\. \]' "
                                             r"block found$"):
            parse_topology(io.StringIO("node [ id 1 ]\n"), "gml")

    @pytest.mark.parametrize("text, line", [
        ("graph [ ]", 1), ("# c\ngraph [\n]\n", 2),
        ('Creator "me"\n\ngraph [\n  edge [ source 1 target 2 ]\n]\n', 3)])
    def test_graph_block_without_a_node_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: graph block holds "
                                             "no node$"):
            parse_topology(io.StringIO(text), "gml")

    def test_roundtrip(self, tmp_path):
        g = generate_topology(40, 60, seed=5)
        path = tmp_path / "g.gml"
        write_gml(g, path)
        assert parse_topology(str(path), "gml") == g

    def test_disconnected_requires_flag(self):
        text = ("graph [ node [ id 1 ] node [ id 2 ] node [ id 3 ] "
                "node [ id 4 ] edge [ source 1 target 2 ] "
                "edge [ source 3 target 4 ] ]")
        with pytest.raises(ValueError, match="disconnected"):
            parse_topology(io.StringIO(text), "gml")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = parse_topology(io.StringIO(text), "gml", largest_component=True)
        assert g.node_count == 2
        assert any("largest component" in str(w.message) for w in caught)

    def test_largest_component_need_not_hold_the_server(self):
        # node 1 (the smallest id) sits in a 2-node component; 3-4-5 is larger
        text = "1 2\n3 4\n4 5\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = parse_topology(io.StringIO(text), "edges", largest_component=True)
        assert g.nodes == {3, 4, 5}
        assert g.server == 3
        assert g.is_connected()

    def test_tied_largest_component_holds_the_smallest_id(self,
                                                          hash_seed_outputs):
        assert {o.splitlines()[3] for o in hash_seed_outputs} == {"['a', 'b']"}

    @pytest.mark.parametrize("label", ['say "hi"', "two\nlines", "cr\rlf",
                                       "line\u2028separator"])
    def test_label_that_cannot_read_back_is_refused(self, tmp_path, label):
        readable = {1: "a b", 2: "[#] x", 3: "²"}
        path = tmp_path / "g.gml"
        g = NetworkGraph([1, 2, 3], [(1, 2), (2, 3)], 1, readable)
        write_gml(g, path)
        assert parse_topology(str(path)).labels == readable
        path.unlink()
        g = NetworkGraph([1, 2, 3], [(1, 2), (2, 3)], 1, {**readable, 2: label})
        with pytest.raises(ValueError, match="holds a quote or a line break"):
            write_gml(g, path)
        assert not path.exists()

    def test_mixed_id_kinds_name_the_first_odd_id(self):
        text = ('graph [\n  node [ id 1 ]\n  node [ id 2 ]\n  node [ id a ]\n'
                '  node [ id 3 ]\n  edge [ source 1 target 2 ]\n]')
        with pytest.raises(ValueError, match="^line 4: node ids 1 and 'a' mix "
                                             "integers and names$"):
            parse_topology(io.StringIO(text), "gml")

    def test_self_loop_dropped_with_warning(self):
        text = ("graph [ node [ id 1 ] node [ id 2 ] "
                "edge [ source 1 target 1 ] edge [ source 1 target 2 ] ]")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = parse_topology(io.StringIO(text), "gml")
        assert g.edge_count == 1
        assert any("self-loop" in str(w.message) for w in caught)


GML_WORDS = ["graph", "node", "edge", "id", "source", "target", "label",
             "[", "]", "0", "1", "2", "17", '"x"', '"["', '"]"', '"a b"',
             "# note", "\n"]


@given(st.lists(st.sampled_from(GML_WORDS), max_size=40))
@settings(max_examples=300, deadline=None)
def test_gml_text_parses_or_names_a_line(words):
    text = " ".join(words)
    try:
        _parse_gml(text)
    except ValueError as exc:
        line = re.match(r"line (\d+): ", str(exc))
        assert line, str(exc)
        assert 1 <= int(line.group(1)) <= max(1, len(text.splitlines()))


# The per-line tokenizer and reader that the whole-text ones replaced, kept
# as a reference: for any text both must give the same nodes, labels and
# edges (with line numbers), or the same error naming the same line.
_REF_TOKEN = re.compile(r'"[^"]*"|[][]|#.*|[^\s"#[\]][^\s[\]]*|"')


def ref_tokenize_gml(text):
    for ln, line in enumerate(text.splitlines(), start=1):
        for tok in _REF_TOKEN.findall(line):
            if tok == '"':
                raise ValueError(f"line {ln}: unterminated string")
            if tok[0] != "#":
                yield tok, ln


def ref_read_pairs(tokens, end_line, depth=0):
    """The pairs of a block inside `depth` open ones (0: the top level)."""
    pairs = []
    for key, ln in tokens:
        if key == "]" and depth:
            return pairs
        if key[0] in '[]"':
            raise ValueError(f"line {ln}: expected a key, got {key}")
        value, _ = next(tokens, ("]", ln))
        if value == "]":
            raise ValueError(f"line {ln}: {key} has no value")
        if value == "[":
            if depth == _MAX_NESTING:
                raise ValueError(f"line {ln}: blocks nested too deeply")
            value = ref_read_pairs(tokens, end_line, depth + 1)
        elif value[0] == '"':
            value = value[1:-1]
        pairs.append((key, value, ln))
    if depth:
        raise ValueError(f"line {end_line}: unterminated block")
    return pairs


def ref_parse_gml(text):
    tokens = list(ref_tokenize_gml(text))
    end_line = tokens[-1][1] if tokens else 1
    limit = sys.getrecursionlimit()  # one frame per open block
    sys.setrecursionlimit(max(limit, 2 * _MAX_NESTING))
    try:
        top = ref_read_pairs(iter(tokens), end_line)
    finally:
        sys.setrecursionlimit(limit)
    declared, labels, edges, opened = [], {}, [], []
    for key, graph, ln in top:
        if key != "graph":
            continue
        if isinstance(graph, str):
            raise ValueError(f"line {ln}: expected '[' after 'graph'")
        opened.append(ln)
        for kind, block, ln in graph:
            if kind not in ("node", "edge"):
                continue
            if isinstance(block, str):
                raise ValueError(f"line {ln}: expected '[' to open {kind} block")
            fields = {k: v for k, v, _ in reversed(block) if isinstance(v, str)}
            for need in ("id",) if kind == "node" else ("source", "target"):
                if need not in fields:
                    raise ValueError(f"line {ln}: {kind} block without {need}")
            if kind == "node":
                nid = _node_id(fields["id"])
                declared.append((nid, ln))
                if "label" in fields:
                    labels[nid] = fields["label"]
            else:
                edges.append((_node_id(fields["source"]),
                              _node_id(fields["target"]), ln))
    if opened and not declared:
        raise ValueError(f"line {opened[0]}: graph block holds no node")
    if not declared:
        raise ValueError("line 1: no 'graph [ ... ]' block found")
    _one_id_kind(declared, int)
    return {nid for nid, _ in declared}, labels, edges


def gml_outcome(parse, text):
    """`parse(text)`, or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def new_gml(text):
    """`_parse_gml(text)` with each edge's token index turned into a line."""
    nodes, labels, edges = _parse_gml(text)
    line = _token_lines(text)
    return nodes, labels, [(a, b, line(i)) for a, b, i in edges]


def topology_messages(text):
    """The self-loop warnings and the error of `parse_topology(text)`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_topology(io.StringIO(text), "gml", largest_component=True)
            error = None
        except ValueError as exc:
            error = str(exc)
    loops = [str(w.message) for w in caught if "self-loop" in str(w.message)]
    return loops, error


def ref_topology_messages(text):
    """What `topology_messages` should be, from the reference parse."""
    try:
        nodes, _, edges = ref_parse_gml(text)
    except ValueError as exc:
        return [], str(exc)
    loops = []
    for a, b, ln in edges:
        if a == b:
            loops.append(f"line {ln}: dropping self-loop on node {a!r}")
        elif a not in nodes or b not in nodes:
            return loops, f"line {ln}: edge references undeclared node"
    return loops, None


GML_PIECES = ["graph [", "]", "[", "node [ id 1 ]", 'node [ id 2 label "a b" ]',
              "node [ id x ]", "node [ id ² ]", "node [ id 3 ]", "node [ id ٣ ]",
              "node [", "edge [ source 1 target 2 ]", "edge [ source 2 target 2 ]",
              "edge [ source 1 target 9 ]", "edge [ source 1", "target 3 ]",
              "graphics [ x 1 y [ z 2 ] ]", "id", "source", "label", "17",
              '"x"', '"["', '"]"', '"open', '"', "# note", '# "q" [ ]',
              'Creator "me"', "junk", ""]
GML_BREAKS = [" ", "\t", "\n", "\n\n", "\r\n", "\r", "\x0c", "\x85", " ",
              "  \n  "]
gml_texts = st.lists(st.tuples(st.sampled_from(GML_PIECES),
                               st.sampled_from(GML_BREAKS)), max_size=30).map(
    lambda parts: "".join(piece + brk for piece, brk in parts))


@st.composite
def gml_graphs(draw):
    """A graph block of node and edge blocks with labels, nested attribute
    blocks and comments, often with one piece inserted anywhere."""
    ids = draw(st.sampled_from([["1", "2", "3", "-4"], ["a", "b", "²", "٣"]]))
    tokens = ["graph", "["]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            block = ["node", "[", "id", draw(st.sampled_from(ids))]
            if draw(st.booleans()):
                block += ["label", draw(st.sampled_from(
                    ['"["', '"]"', '"a b"', '"#"', '"x"']))]
        else:
            block = ["edge", "[", "source", draw(st.sampled_from(ids + ["9"])),
                     "target", draw(st.sampled_from(ids))]
        if draw(st.booleans()):
            block += ["graphics", "[", "x", "1", "y", "[", "z", "2", "]", "]"]
        if draw(st.booleans()):
            block.append("# a ] comment [")
        tokens += block + ["]"]
    tokens.append("]")
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))),
                      draw(st.sampled_from(GML_PIECES)))
    breaks = st.sampled_from(GML_BREAKS)
    return "".join(tok + ("\n" if tok.startswith("#") else draw(breaks))
                   for tok in tokens)


@given(st.one_of(gml_texts, gml_graphs()))
@settings(max_examples=400, deadline=None)
def test_whole_text_parse_matches_the_per_line_reference(text):
    assert gml_outcome(new_gml, text) == gml_outcome(ref_parse_gml, text)
    assert topology_messages(text) == ref_topology_messages(text)


@pytest.mark.parametrize("line, replacement, message", [
    (5001, '    source "498', "line 5001: unterminated string"),
    (5001, '    "source" 498', 'line 5001: expected a key, got "source"'),
    (5002, "    target", "line 5002: target has no value"),
    (5002, "    target 9999", "line 5000: edge references undeclared node"),
    (5002, "    target ²", "line 5000: edge references undeclared node"),
    (5001, "    weight 1", "line 5000: edge block without source"),
    (5003, "", "line 5844: unterminated block")])
def test_defect_deep_in_the_bundled_file_names_its_line(line, replacement,
                                                        message):
    lines = KDL.read_text(encoding="utf-8").splitlines()
    assert lines[4999:5003] == ["  edge [", "    source 498", "    target 503",
                                "  ]"]
    lines[line - 1] = replacement
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_topology(io.StringIO(text), "gml")
    assert gml_outcome(new_gml, text) == gml_outcome(ref_parse_gml, text)


def test_self_loop_deep_in_the_bundled_file_names_its_line():
    lines = KDL.read_text(encoding="utf-8").splitlines()
    lines[5001] = "    target 498"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_topology(io.StringIO("\n".join(lines)), "gml",
                       largest_component=True)
    assert "line 5000: dropping self-loop on node 498" in [
        str(w.message) for w in caught]


# The tokenizer the split-based one stands in for: one regex over the whole
# text, comments filtered out, the first lone quote an error.
_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"  # where str.splitlines() breaks
_ONE_REGEX = re.compile(
    rf'\s*([^\s"#[\]][^\s[\]]*|[][]|"[^"{_BREAKS}]*"|#[^{_BREAKS}]*|")')


def one_regex_tokens(text):
    matches = [m for m in _ONE_REGEX.finditer(text.rstrip()) if m[1][0] != "#"]
    for m in matches:
        if m[1] == '"':
            line = len((text[:m.start(1)] + '"').splitlines())
            raise ValueError(f"line {line}: unterminated string")
    return [m[1] for m in matches]


# Brackets and the separators str.split() and `\s` share (NEL, FS and NBSP
# among them), which the split path takes; words a quote or a hash runs on
# from, strings and comments, which send a text to the regex.
BARE_PIECES = ["[", "]", "w", "\x85", " ", "\x1c", "\xa0", "\x0c", "\n"]
TOKEN_PIECES = BARE_PIECES + ['a"b', "a#b", '"x"y', 'a"', "b#", '"', "#",
                              '"x"', '"a b"', "# c"]


def texts(pieces):
    return st.lists(st.sampled_from(pieces), max_size=30).map("".join)


@given(texts(TOKEN_PIECES) | texts(BARE_PIECES))
@settings(max_examples=1000, deadline=None)
def test_split_tokens_match_the_single_regex(text):
    assert gml_outcome(_tokenize_gml, text) == gml_outcome(one_regex_tokens,
                                                           text)


def nested_gml(depth):
    """A graph block holding one node and depth - 1 nested blocks."""
    return "graph [ node [ id 1 ]\n" + "x [ " * (depth - 1) + "] " * depth


def test_nesting_past_the_bound_is_a_parse_error():
    # Python's stack used to end the old recursive reader at 994 blocks
    assert _MAX_NESTING >= 994
    assert parse_topology(io.StringIO(nested_gml(_MAX_NESTING))).nodes == {1}
    with pytest.raises(ValueError, match="^line 2: blocks nested too deeply$"):
        parse_topology(io.StringIO(nested_gml(_MAX_NESTING + 1)))


def test_nesting_error_names_the_line_that_crosses_the_bound():
    # the 1,001st block opens on line 2; the text's last token is 1,001
    # lines further down
    text = nested_gml(_MAX_NESTING + 1).replace("] ", "\n]")
    assert text.count("\n") == _MAX_NESTING + 2
    for parse in (new_gml, ref_parse_gml):
        assert gml_outcome(parse, text) == "line 2: blocks nested too deeply"


def test_trailing_blanks_parse_in_linear_time():
    # `\s*` before each token would backtrack over them quadratically:
    # about half a minute here, against milliseconds
    start = time.perf_counter()
    text = "graph [ node [ id 1 ] ]" + " \n" * 20_000
    assert _parse_gml(text) == ({1}, {}, [])
    with pytest.raises(ValueError, match="^line 1: unterminated block$"):
        _parse_gml("graph [ node [ id 1 ]" + " \n" * 20_000)
    assert time.perf_counter() - start < 5


class TestAsciiDigitIds:
    """Only ASCII digits make an integer id: '²' passes str.isdigit() but
    not int(), and int('٣') is 3."""

    def test_gml(self):
        text = ("graph [\n  node [ id a ]\n  node [ id ² ]\n  node [ id ٣ ]\n"
                "  edge [ source a target ² ]\n  edge [ source ² target ٣ ]\n]")
        assert parse_topology(io.StringIO(text), "gml").nodes == {"a", "²", "٣"}
        mixed = "graph [\n  node [ id 3 ]\n  node [ id ² ]\n]"
        with pytest.raises(ValueError, match="^line 3: node ids 3 and '²' mix "
                                             "integers and names$"):
            parse_topology(io.StringIO(mixed), "gml")

    def test_edge_list(self):
        g = parse_topology(io.StringIO("a ²\n² ٣\n"), "edges")
        assert g.nodes == {"a", "²", "٣"}
        with pytest.raises(ValueError, match="^line 2: node ids 3 and '٣' mix "
                                             "integers and names$"):
            parse_topology(io.StringIO("3 4\n4 ٣\n"), "edges")

    def test_demand_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("² 1\n٣ 2\n3 4\n", encoding="utf-8")
        assert read_demand(path).demand == {"²": 1, "٣": 2, 3: 4}

    @pytest.mark.parametrize("view", ["٣", "1_0", "+2"])
    def test_demand_view_takes_only_ascii_digits(self, tmp_path, view):
        path = tmp_path / "d.txt"
        path.write_text(f"a 1\nb {view}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line 2: view '{re.escape(view)}' "
                                             "is not an integer$"):
            read_demand(path)

    @pytest.mark.parametrize("token, number", [
        ("12", True), ("-3", True), ("007", True), ("٣", False), ("²", False),
        ("1_0", False), ("+2", False), ("-", False), ("", False),
        ("1.0", False)])
    def test_one_integer_rule(self, token, number):
        from mmds.workload import is_integer
        assert is_integer(token) is number
        assert isinstance(_node_id(token), int) is number


class TestParseEdges:
    def test_path_graph(self):
        g = parse_topology(io.StringIO("a b\nb c\n"), "edges")
        assert g.node_count == 3 and g.edge_count == 2

    def test_comments_and_blanks(self):
        text = "# header\n\n1 2  # trailing\n2 3\n"
        g = parse_topology(io.StringIO(text), "edges")
        assert g.node_count == 3
        assert g.server == 1  # numeric tokens become integers

    def test_malformed_line_numbered(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_topology(io.StringIO("1 2\n3 4 5\n"), "edges")

    def test_comment_only_and_trailing_comment_lines(self):
        g = parse_topology(io.StringIO("#\n1 2 # 3\n"), "edges")
        assert g.edges == {frozenset((1, 2))}
        with pytest.raises(ValueError, match="^line 2: expected 'a b'"):
            parse_topology(io.StringIO("# only a comment\n1 # 2\n"), "edges")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_an_edge_list_with_no_edge_is_refused(self, text):
        with pytest.raises(ValueError, match="^edge list holds no edge$"):
            parse_topology(io.StringIO(text), "edges")

    @pytest.mark.parametrize("text, message", [
        ("1 a\n", "line 1: node ids 1 and 'a'"),
        ("a b\nb c\n# 7\n\nc 7\n", "line 5: node ids 'a' and 7")])
    def test_mixed_id_kinds_name_the_first_odd_id(self, text, message):
        with pytest.raises(ValueError, match=f"^{message} mix integers and names$"):
            parse_topology(io.StringIO(text), "edges")

    def test_roundtrip(self, tmp_path):
        g = generate_topology(25, 31, seed=9)
        path = tmp_path / "g.edges"
        write_edges(g, path)
        assert parse_topology(str(path), "edges") == g

    @pytest.mark.parametrize("name", ["a b", "a\tb", "a#b", ""])
    def test_name_that_cannot_read_back_is_refused(self, tmp_path, name):
        path = tmp_path / "g.edges"
        g = parse_topology(io.StringIO('graph [ node [ id "a-b" ] node [ id c ] '
                                       'edge [ source "a-b" target c ] ]'))
        write_edges(g, path)
        assert parse_topology(str(path), "edges") == g
        path.unlink()
        g = NetworkGraph(["c", name], [("c", name)], "c")
        with pytest.raises(ValueError, match="cannot be an edge-list column"):
            write_edges(g, path)
        assert not path.exists()

    def test_gml_name_with_a_space_is_refused(self, tmp_path):
        g = parse_topology(io.StringIO('graph [ node [ id "a b" ] node [ id c ] '
                                       'edge [ source "a b" target c ] ]'))
        with pytest.raises(ValueError, match="^node 'a b' cannot be an "
                                             "edge-list column$"):
            write_edges(g, tmp_path / "g.edges")


class TestGenerateTopology:
    def test_exact_counts_large(self):
        g = generate_topology(10000, 20576, seed=1)
        assert g.node_count == 10000 and g.edge_count == 20576
        assert g.is_connected()

    def test_minimal(self):
        g = generate_topology(2, 1, seed=0)
        assert g.edge_count == 1

    def test_deterministic(self):
        assert generate_topology(100, 150, seed=4) == \
            generate_topology(100, 150, seed=4)
        assert generate_topology(100, 150, seed=4) != \
            generate_topology(100, 150, seed=5)

    def test_infeasible_specs(self):
        with pytest.raises(ValueError):
            generate_topology(10, 8, seed=0)
        with pytest.raises(ValueError):
            generate_topology(4, 7, seed=0)


class TestDistributions:
    def test_zipf_top_rank_probability(self):
        dist = DemandDistribution("zipf", 12, exponent=2)
        pmf = zipf_pmf(dist)
        want = 1 / sum(n ** -2 for n in range(1, 13))
        assert math.isclose(pmf[0], want, rel_tol=1e-12)
        assert abs(pmf[0] - 0.6390) < 5e-4
        assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)

    def test_zipf_center_out_mapping(self):
        dist = DemandDistribution("zipf", 12, exponent=2)
        mapping = zipf_rank_to_view(dist)
        assert mapping[0] == 6
        assert sorted(mapping) == list(range(1, 13))

    def test_gaussian_clamped_to_range(self):
        dist = DemandDistribution("gaussian", 12, variance=400)
        demand = sample_demand(dist, range(2000), seed=3)
        views = set(demand.demand.values())
        assert min(views) == 1 and max(views) == 12  # wild variance clamps

    def test_uniform_frequencies_within_five_sigma(self):
        K, n = 12, 100_000
        demand = sample_demand(DemandDistribution("uniform", K), range(n),
                               seed=11)
        counts = np.bincount(list(demand.demand.values()), minlength=K + 1)[1:]
        sigma = math.sqrt(n * (1 / K) * (1 - 1 / K))
        assert all(abs(c - n / K) < 5 * sigma for c in counts)

    def test_deterministic_per_seed(self):
        dist = DemandDistribution("zipf", 8, exponent=2)
        a = sample_demand(dist, ["t1", "t2", "t3"], seed=7)
        b = sample_demand(dist, ["t1", "t2", "t3"], seed=7)
        assert a.demand == b.demand

    def test_concentration_reduces_distinct_views(self):
        uniform = DemandDistribution("uniform", 12)
        zipf = DemandDistribution("zipf", 12, exponent=2)
        gauss = DemandDistribution("gaussian", 12, variance=4)
        terms = range(20)
        distinct = {d.kind: 0 for d in (uniform, zipf, gauss)}
        for s in range(120):
            for d in (uniform, zipf, gauss):
                distinct[d.kind] += len(set(
                    sample_demand(d, terms, seed=s).demand.values()))
        assert distinct["zipf"] <= distinct["uniform"]
        assert distinct["gaussian"] <= distinct["uniform"]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            DemandDistribution("pareto", 12)
        with pytest.raises(ValueError):
            DemandDistribution("gaussian", 12)
        with pytest.raises(ValueError):
            DemandDistribution("zipf", 12, exponent=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters(self, value):
        with pytest.raises(ValueError, match="^gaussian demand needs a "
                                             "positive variance$"):
            DemandDistribution("gaussian", 12, variance=value)
        with pytest.raises(ValueError, match="^zipf demand needs a "
                                             "positive exponent$"):
            DemandDistribution("zipf", 12, exponent=value)


class TestDemandFiles:
    def test_roundtrip(self, tmp_path):
        demand = DemandMap({"u1": 2, "u2": 5, 7: 4}, 6)
        path = tmp_path / "d.txt"
        write_demand(demand, path)
        back = read_demand(path, 6)
        assert back.demand == demand.demand

    def test_errors_numbered_and_typed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 2\nu2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_demand(path)
        path.write_text("u1 two\n")
        with pytest.raises(ValueError, match="not an integer"):
            read_demand(path)
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="empty"):
            read_demand(path)

    # one spelling twice, and two spellings of one integer id; the server
    # and the other terminal are of the terminal's kind
    @pytest.mark.parametrize("server, other, first, again, name", [
        ("s", "u2", "u1", "u1", "'u1'"), ("0", "2", "1", "01", "1")])
    def test_a_repeated_terminal_is_refused(self, tmp_path, capsys, server,
                                            other, first, again, name):
        path = tmp_path / "d.txt"
        path.write_text(f"{first} 2\n{other} 3\n{again} 7\n")
        message = f"line 3: terminal {name} already given on line 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_demand(path)
        topo = tmp_path / "t.edges"
        topo.write_text(f"{server} {other}\n{server} {first}\n")
        code = main(["solve", "--topology", str(topo), "--format", "edges",
                     "--demand", str(path), "--d", "2"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_comment_only_and_trailing_comment_lines(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("#\nu1 2 # 3\n")
        assert read_demand(path).demand == {"u1": 2}
        path.write_text("# only a comment\nu1 # 2\n")
        with pytest.raises(ValueError, match="^line 2: expected 'terminal view'"):
            read_demand(path)


# each input check with its message; `tmp` is a directory to write into
@pytest.mark.parametrize("call, message", [
    (lambda tmp: NetworkGraph([1, 2], [(1, 3)], 1),
     "edge (1, 3) references unknown node"),
    (lambda tmp: DemandMap({}, 0), "universe_size must be >= 1"),
    (lambda tmp: segment_views(DemandMap({}, 3), 2), "no desired views"),
    (lambda tmp: parse_topology(io.StringIO("1 2\n"), "xml"),
     "unknown topology format 'xml'"),
    (lambda tmp: write_gml(NetworkGraph(["a", "b"], [("a", "b")], "a"),
                           tmp / "g.gml"),
     "GML output requires integer node ids"),
    (lambda tmp: generate_topology(1, 0), "need at least 2 nodes"),
    (lambda tmp: DemandDistribution("uniform", 0), "view_count must be >= 1"),
    (lambda tmp: run_scenario(ScenarioConfig()),
     "scenario needs --topology, --gen or --preset"),
], ids=["unknown-node", "empty-universe", "no-desired-view", "unknown-format",
        "gml-named-nodes", "one-node", "no-view", "no-source"])
def test_input_check_refuses(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
    assert not (tmp_path / "g.gml").exists()
