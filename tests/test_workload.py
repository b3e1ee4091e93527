import io
import math
import re
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmds import (DemandDistribution, DemandMap, generate_topology,
                  parse_topology, read_demand, sample_demand, write_demand,
                  write_edges, write_gml, zipf_pmf, zipf_rank_to_view)
from mmds.workload import _parse_gml

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
        with pytest.raises(ValueError, match="graph"):
            parse_topology(io.StringIO("node [ id 1 ]\n"), "gml")

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

    def test_comment_only_and_trailing_comment_lines(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("#\nu1 2 # 3\n")
        assert read_demand(path).demand == {"u1": 2}
        path.write_text("# only a comment\nu1 # 2\n")
        with pytest.raises(ValueError, match="^line 2: expected 'terminal view'"):
            read_demand(path)
