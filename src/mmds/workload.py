"""Topology ingestion and generation, and client demand sampling.

File formats:

* GML subset: ``graph [ node [ id N ... ] edge [ source A target B ] ]``.
  A block is a run of ``key value`` pairs: the key is a bare word, the
  value a bare word, a ``"quoted string"`` or a nested ``[ ... ]`` block.
  The first scalar value of a key wins; other attributes and nested
  blocks are ignored.
* edge list: one ``a b`` pair per line.
* demand files: one ``terminal view`` pair per line.

In every format ``#`` starts a comment.

A GML text with no ``"`` or ``#`` is tokenized by str.split() once its
brackets are padded with blanks; any other text takes one `_GML_TOKEN`
pass.  One loop with a stack of open blocks, at most `_MAX_NESTING`, reads
the tokens; it holds the first semantic error to the end, so a syntax
error anywhere wins.

Node tokens of ASCII digits, with an optional leading ``-``, become
integers so that edge lists, GML files and demand files agree on node
identity; any other token, ``²`` or ``٣`` included, is a name.  A
topology's ids are all of one kind.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .graphs import DemandMap, NetworkGraph, bfs_distances


def is_integer(token: str) -> bool:
    """Whether `token` is an integer as every input of the program reads
    one: an optional ``-``, then ASCII digits.  str.isdigit() also takes
    '²' and '٣', and int() reads '٣' as 3, '1_0' as 10 and '+2' as 2."""
    digits = token[1:] if token.startswith("-") else token
    return digits.isascii() and digits.isdigit()


def _node_id(token: str):
    tok = token.strip()
    return int(tok) if is_integer(tok) else tok


def _one_id_kind(ids, line):
    """Raise unless the (id, position) pairs are all integers or all names;
    `line` maps a position to the line the error names."""
    ids = list(ids)
    for nid, pos in ids:
        if isinstance(nid, int) != isinstance(ids[0][0], int):
            raise ValueError(f"line {line(pos)}: node ids {ids[0][0]!r} and "
                             f"{nid!r} mix integers and names")


def _two_columns(lines, expected):
    """Yield (line_number, first, second) for each line of two columns;
    ``#`` starts a comment and blank lines are skipped."""
    for ln, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if len(parts) == 2:
            yield ln, *parts
        elif parts:
            raise ValueError(f"line {ln}: expected {expected}, got {line.strip()!r}")


# Group 1 is one token; `\s*` takes the blanks before it into the same
# match, so findall() must run on rstrip()ped text, or it backtracks
# quadratically over trailing blanks.  A string or a comment stops at any
# str.splitlines() break, so no token spans two lines.
_EOL = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_GML_TOKEN = re.compile(
    rf'\s*([^\s"#[\]][^\s[\]]*|[][]|"[^"{_EOL}]*"|#[^{_EOL}]*|")')


def _token_lines(text):
    """A function from the index of a token of `_tokenize_gml(text)` to its
    line.  Only an error or a warning asks, so the text is scanned again on
    the first call, and only then."""
    @cache
    def lines():
        ends = list(accumulate(map(len, text.splitlines(True))))
        return [bisect_right(ends, m.start(1)) + 1
                for m in _GML_TOKEN.finditer(text.rstrip()) if m[1][0] != "#"]
    return lambda index: lines()[index]


_MAX_NESTING = 1000  # open blocks at once; one more is a parse error


def _tokenize_gml(text):
    """The tokens of the whole text.  A quoted string keeps its quotes, so
    ``"["`` is never a bracket; comments are dropped."""
    if '"' not in text and "#" not in text:  # split() splits where `\s` matches
        return text.replace("[", " [ ").replace("]", " ] ").split()
    tokens = [t for t in _GML_TOKEN.findall(text.rstrip()) if t[0] != "#"]
    if '"' in tokens:
        i = tokens.index('"')
        raise ValueError(f"line {_token_lines(text)(i)}: unterminated string")
    return tokens


def _parse_gml(text):
    """Nodes, labels and (source, target, token index) edges, in one pass."""
    tokens = _tokenize_gml(text)
    line = _token_lines(text)
    node_id = cache(_node_id)  # an id recurs at each end of its edges
    declared, labels, edges, error = [], {}, [], None
    # The innermost open block (at first the top level): the keys of the
    # blocks kept in it, its key's index, and a node or edge block's fields.
    kept, at, fields, stack = ("graph",), -1, None, []
    opened = None  # the first top-level graph key's index
    pairs = enumerate(tokens)
    for i, key in pairs:
        if key == "]" and stack:
            kind = fields is not None and tokens[at]
            if kind == "node" and "id" in fields:
                nid = node_id(fields["id"])
                declared.append((nid, at))
                if "label" in fields:
                    labels[nid] = fields["label"]
            elif kind == "edge" and "source" in fields and "target" in fields:
                edges.append((node_id(fields["source"]),
                              node_id(fields["target"]), at))
            elif kind and error is None:
                need = ("id" if kind == "node" else
                        "target" if "source" in fields else "source")
                error = f"line {line(at)}: {kind} block without {need}"
            kept, at, fields = stack.pop()
            continue
        if key[0] in '[]"':
            raise ValueError(f"line {line(i)}: expected a key, got {key}")
        value = next(pairs, (0, "]"))[1]
        if value == "[":
            if len(stack) == _MAX_NESTING:
                raise ValueError(f"line {line(i)}: blocks nested too deeply")
            stack.append((kept, at, fields))
            if key not in kept:
                kept, fields = (), None  # only its syntax is checked
            elif key == "graph":
                kept, fields = ("node", "edge"), None
                opened = i if opened is None else opened
            else:
                kept, fields = (), {}
            at = i
        elif value == "]":
            raise ValueError(f"line {line(i)}: {key} has no value")
        elif fields is not None:
            fields.setdefault(key, value[1:-1] if value[0] == '"' else value)
        elif key in kept and error is None:
            error = (f"line {line(i)}: expected '[' after 'graph'" if key == "graph"
                     else f"line {line(i)}: expected '[' to open {key} block")
    if stack:
        raise ValueError(f"line {line(-1)}: unterminated block")
    if error:
        raise ValueError(error)
    if not declared:
        raise ValueError("line 1: no 'graph [ ... ]' block found" if opened is None
                         else f"line {line(opened)}: graph block holds no node")
    _one_id_kind(declared, line)
    return {nid for nid, _ in declared}, labels, edges


def parse_topology(source, fmt: str = "gml",
                   largest_component: bool = False) -> NetworkGraph:
    """Parse a topology from a path or an open text file; the node with
    the smallest identifier becomes the server.  A missing path raises
    FileNotFoundError.  A disconnected graph raises unless
    largest_component is set, in which case the biggest component is
    extracted with a warning."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if fmt == "gml":
        nodes, labels, raw_edges = _parse_gml(text)
        line = _token_lines(text)  # an edge holds its `edge` token's index
    elif fmt == "edges":
        nodes, labels, raw_edges = set(), {}, []
        for ln, a, b in _two_columns(text.splitlines(), "'a b'"):
            a, b = _node_id(a), _node_id(b)
            nodes.update((a, b))
            raw_edges.append((a, b, ln))
        if not raw_edges:
            raise ValueError("edge list holds no edge")
        line = int  # an edge list's positions are its line numbers
        _one_id_kind(((n, ln) for a, b, ln in raw_edges for n in (a, b)), line)
    else:
        raise ValueError(f"unknown topology format {fmt!r}")

    edges = []
    for a, b, pos in raw_edges:
        if a == b:
            warnings.warn(f"line {line(pos)}: dropping self-loop on node {a!r}")
            continue
        if a not in nodes or b not in nodes:
            raise ValueError(f"line {line(pos)}: edge references undeclared node")
        edges.append((a, b))
    graph = NetworkGraph(nodes, edges, min(nodes), labels)
    if not graph.is_connected():
        if not largest_component:
            raise ValueError("graph is disconnected "
                             "(pass largest_component=True to extract one)")
        comp = _largest_component(graph)
        warnings.warn(f"graph is disconnected; keeping largest component "
                      f"({len(comp.nodes)} of {len(graph.nodes)} nodes)")
        return comp
    return graph


def _largest_component(graph: NetworkGraph) -> NetworkGraph:
    seen = set()
    best = set()
    # each search starts at its component's smallest node, so of equal
    # components the one holding the smallest id is found first and kept
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        comp = set(bfs_distances(graph._adj, start))
        seen |= comp
        if len(comp) > len(best):
            best = comp
    edges = [tuple(e) for e in graph.edges if e <= best]
    labels = {n: l for n, l in graph.labels.items() if n in best}
    return NetworkGraph(best, edges, min(best), labels)


def write_gml(graph: NetworkGraph, path):
    """Write `graph` as GML; a non-integer id, or a label that holds a
    quote or a line break, which `parse_topology` could not read back,
    raises ValueError before the file is opened."""
    labels = getattr(graph, "labels", {})
    if not all(isinstance(n, int) for n in graph.nodes):
        raise ValueError("GML output requires integer node ids")
    for n, label in labels.items():
        if re.search(f'["{_EOL}]', str(label)):
            raise ValueError(f"GML label {label!r} of node {n} holds a quote "
                             "or a line break")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph [\n")
        for n in sorted(graph.nodes):
            fh.write(f"  node [\n    id {n}\n")
            if n in labels:
                fh.write(f'    label "{labels[n]}"\n')
            fh.write("  ]\n")
        for e in sorted(tuple(sorted(e)) for e in graph.edges):
            fh.write(f"  edge [\n    source {e[0]}\n    target {e[1]}\n  ]\n")
        fh.write("]\n")


def write_edges(graph: NetworkGraph, path):
    """Write `graph` as an edge list; a name that would not read back as
    one column, one that holds a blank or ``#`` or is empty, raises
    ValueError before the file is opened."""
    for n in graph.nodes:
        if str(n).split("#", 1)[0].split() != [str(n)]:
            raise ValueError(f"node {n!r} cannot be an edge-list column")
    with open(path, "w", encoding="utf-8") as fh:
        for e in sorted(tuple(sorted(e, key=repr)) for e in graph.edges):
            fh.write(f"{e[0]} {e[1]}\n")


def generate_topology(nodes: int, edges: int, seed=0) -> NetworkGraph:
    """Connected random graph with exactly the requested order and size:
    a preferential-attachment tree topped up with uniform extra edges.
    Deterministic for a given seed."""
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    if edges < nodes - 1:
        raise ValueError(f"{edges} edges cannot connect {nodes} nodes")
    if edges > nodes * (nodes - 1) // 2:
        raise ValueError(f"{edges} edges exceed a simple graph on {nodes} nodes")
    rng = np.random.default_rng(seed)
    edge_set = set()
    endpoints = [0]
    for n in range(1, nodes):
        # sampling from accumulated endpoints is degree-proportional
        p = int(endpoints[rng.integers(len(endpoints))])
        edge_set.add((p, n))
        endpoints.extend((p, n))
    while len(edge_set) < edges:
        a = int(rng.integers(nodes))
        b = int(rng.integers(nodes))
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e not in edge_set:
            edge_set.add(e)
    return NetworkGraph(range(nodes), edge_set, 0)


@dataclass(frozen=True)
class DemandDistribution:
    """Preferred-view distribution over views 1..view_count."""
    kind: str                     # uniform | gaussian | zipf
    view_count: int
    variance: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "zipf"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.view_count < 1:
            raise ValueError("view_count must be >= 1")
        # None, NaN and infinity fail `0 < x < inf` as well
        if self.kind == "gaussian" and not 0 < (self.variance or 0) < np.inf:
            raise ValueError("gaussian demand needs a positive variance")
        if self.kind == "zipf" and not 0 < (self.exponent or 0) < np.inf:
            raise ValueError("zipf demand needs a positive exponent")


def zipf_pmf(dist: DemandDistribution) -> np.ndarray:
    ranks = np.arange(1, dist.view_count + 1, dtype=float)
    w = ranks ** -dist.exponent
    return w / w.sum()


def zipf_rank_to_view(dist: DemandDistribution) -> list:
    """Rank->view map: most popular rank sits on the middle view, later
    ranks alternate outward."""
    K = dist.view_count
    center = (K + 1) // 2  # ceil(K/2)
    return sorted(range(1, K + 1), key=lambda v: (abs(v - center), v))


def sample_demand(dist: DemandDistribution, terminals, seed=0) -> DemandMap:
    """Draw one desired view per terminal, independently; deterministic
    for a given (distribution, terminal set, seed)."""
    return draw_demand(dist, sorted(terminals, key=repr), np.random.default_rng(seed))


def draw_demand(dist: DemandDistribution, terms, rng) -> DemandMap:
    """`sample_demand` of terminals in `repr` order, drawn from `rng`."""
    K = dist.view_count
    if dist.kind == "uniform":
        views = rng.integers(1, K + 1, size=len(terms)).tolist()
    elif dist.kind == "gaussian":
        raw = rng.normal(0.5 * K, dist.variance ** 0.5, size=len(terms))
        views = np.clip(np.rint(raw), 1, K).astype(int).tolist()
    else:
        ranks = rng.choice(K, size=len(terms), p=zipf_pmf(dist)).tolist()
        mapping = zipf_rank_to_view(dist)
        views = [mapping[r] for r in ranks]
    return DemandMap(zip(terms, views), K)


def read_demand(path, universe_size=None) -> DemandMap:
    pairs, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, terminal, view in _two_columns(fh, "'terminal view'"):
            if not is_integer(view):
                raise ValueError(f"line {ln}: view {view!r} is not an integer")
            node = _node_id(terminal)
            if node in seen:
                raise ValueError(f"line {ln}: terminal {node!r} already given "
                                 f"on line {seen[node]}")
            seen[node] = ln
            pairs[node] = int(view)
    if not pairs:
        raise ValueError("demand file is empty")
    if universe_size is None:
        universe_size = max(pairs.values())
    return DemandMap(pairs, universe_size)


def write_demand(demand: DemandMap, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(demand.demand, key=repr):
            fh.write(f"{t} {demand.demand[t]}\n")
