"""Topology ingestion and generation, and client demand sampling.

File formats:

* GML subset: ``graph [ node [ id N ... ] edge [ source A target B ] ]``
  with arbitrary extra attributes (nested blocks are skipped).
* edge list: one ``a b`` pair per line, ``#`` starts a comment.
* demand files: one ``terminal view`` pair per line.

All-digit node tokens become integers so that edge lists, GML files and
demand files agree on node identity.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import DemandMap, NetworkGraph, bfs_distances


def _node_id(token: str):
    tok = token.strip()
    neg = tok[1:] if tok.startswith("-") else tok
    return int(tok) if neg.isdigit() else tok


def _tokenize_gml(text):
    """Yield (token, line_number); quoted strings are single tokens."""
    for ln, line in enumerate(text.splitlines(), start=1):
        rest = line
        while rest:
            rest = rest.lstrip()
            if not rest or rest.startswith("#"):
                break
            if rest[0] == '"':
                end = rest.find('"', 1)
                if end < 0:
                    raise ValueError(f"line {ln}: unterminated string")
                yield rest[1:end], ln
                rest = rest[end + 1:]
            else:
                cut = len(rest)
                for i, ch in enumerate(rest):
                    if ch.isspace():
                        cut = i
                        break
                    if ch in "[]" and i > 0:
                        cut = i
                        break
                if rest[0] in "[]":
                    cut = 1
                yield rest[:cut], ln
                rest = rest[cut:]


def _parse_gml(text):
    tokens = list(_tokenize_gml(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, -1)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def skip_value():
        tok, ln = take()
        if tok == "[":
            depth = 1
            while depth:
                tok, ln = take()
                if tok is None:
                    raise ValueError(f"line {ln}: unbalanced brackets")
                depth += tok == "["
                depth -= tok == "]"

    def parse_block(line):
        fields = {}
        tok, ln = take()
        if tok != "[":
            raise ValueError(f"line {line}: expected '[' to open block")
        while True:
            tok, ln = take()
            if tok is None:
                raise ValueError(f"line {ln}: unterminated block")
            if tok == "]":
                return fields, ln
            key = tok
            val, vln = peek()
            if val == "[":
                skip_value()
            else:
                take()
                if key not in fields:
                    fields[key] = (val, vln)

    nodes, labels, edges = set(), {}, []
    while True:
        tok, ln = take()
        if tok is None:
            break
        if tok == "graph":
            tok, ln = take()
            if tok != "[":
                raise ValueError(f"line {ln}: expected '[' after 'graph'")
            while True:
                tok, ln = take()
                if tok is None:
                    raise ValueError(f"line {ln}: unterminated graph block")
                if tok == "]":
                    break
                if tok == "node":
                    fields, bln = parse_block(ln)
                    if "id" not in fields:
                        raise ValueError(f"line {ln}: node block without id")
                    nid = _node_id(fields["id"][0])
                    nodes.add(nid)
                    if "label" in fields:
                        labels[nid] = fields["label"][0]
                elif tok == "edge":
                    fields, bln = parse_block(ln)
                    for key in ("source", "target"):
                        if key not in fields:
                            raise ValueError(f"line {ln}: edge block without {key}")
                    edges.append((_node_id(fields["source"][0]),
                                  _node_id(fields["target"][0]), ln))
                else:
                    skip_value()  # scalar attribute or nested block
        else:
            # stray top-level attribute such as 'Creator "..."'
            skip_value()
    if not nodes:
        raise ValueError("line 1: no 'graph [ ... ]' block found")
    return nodes, labels, edges


def parse_topology(text_or_path, fmt: str = "gml",
                   largest_component: bool = False) -> NetworkGraph:
    """Parse a topology file (or literal text); the node with the smallest
    identifier becomes the server.  A disconnected graph raises unless
    largest_component is set, in which case the biggest component is
    extracted with a warning."""
    if hasattr(text_or_path, "read"):
        text = text_or_path.read()
    else:
        s = str(text_or_path)
        if "\n" not in s and os.path.exists(s):
            with open(s, "r", encoding="utf-8") as fh:
                text = fh.read()
        elif "\n" not in s and " " not in s:
            raise FileNotFoundError(f"no such topology file: {s}")
        else:
            text = s
    if fmt == "gml":
        nodes, labels, raw_edges = _parse_gml(text)
    elif fmt == "edges":
        nodes, labels, raw_edges = set(), {}, []
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected 'a b', got {line.strip()!r}")
            a, b = (_node_id(p) for p in parts)
            nodes.update((a, b))
            raw_edges.append((a, b, ln))
    else:
        raise ValueError(f"unknown topology format {fmt!r}")

    edges = []
    for a, b, ln in raw_edges:
        if a == b:
            warnings.warn(f"line {ln}: dropping self-loop on node {a!r}")
            continue
        if a not in nodes or b not in nodes:
            raise ValueError(f"line {ln}: edge references undeclared node")
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
    for start in graph.nodes:
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
    labels = getattr(graph, "labels", {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph [\n")
        for n in sorted(graph.nodes):
            if not isinstance(n, int):
                raise ValueError("GML output requires integer node ids")
            fh.write(f"  node [\n    id {n}\n")
            if n in labels:
                fh.write(f'    label "{labels[n]}"\n')
            fh.write("  ]\n")
        for e in sorted(tuple(sorted(e)) for e in graph.edges):
            fh.write(f"  edge [\n    source {e[0]}\n    target {e[1]}\n  ]\n")
        fh.write("]\n")


def write_edges(graph: NetworkGraph, path):
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
    mean: float | None = None     # gaussian; defaults to view_count / 2
    center_out: bool = True       # zipf rank 1 maps to the middle view

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "zipf"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.view_count < 1:
            raise ValueError("view_count must be >= 1")
        if self.kind == "gaussian" and (self.variance is None or self.variance <= 0):
            raise ValueError("gaussian demand needs a positive variance")
        if self.kind == "zipf" and (self.exponent is None or self.exponent <= 0):
            raise ValueError("zipf demand needs a positive exponent")


def zipf_pmf(dist: DemandDistribution) -> np.ndarray:
    ranks = np.arange(1, dist.view_count + 1, dtype=float)
    w = ranks ** -dist.exponent
    return w / w.sum()


def zipf_rank_to_view(dist: DemandDistribution) -> list:
    """Rank->view map: most popular rank sits on the middle view, later
    ranks alternate outward (identity map when center_out is off)."""
    K = dist.view_count
    if not dist.center_out:
        return list(range(1, K + 1))
    center = (K + 1) // 2  # ceil(K/2)
    return sorted(range(1, K + 1), key=lambda v: (abs(v - center), v))


def sample_demand(dist: DemandDistribution, terminals, seed=0) -> DemandMap:
    """Draw one desired view per terminal, independently; deterministic
    for a given (distribution, terminal set, seed)."""
    rng = np.random.default_rng(seed)
    terms = sorted(terminals, key=repr)
    K = dist.view_count
    if dist.kind == "uniform":
        views = rng.integers(1, K + 1, size=len(terms))
    elif dist.kind == "gaussian":
        mean = dist.mean if dist.mean is not None else 0.5 * K
        raw = rng.normal(mean, dist.variance ** 0.5, size=len(terms))
        views = np.clip(np.rint(raw), 1, K).astype(int)
    else:
        pmf = zipf_pmf(dist)
        ranks = rng.choice(K, size=len(terms), p=pmf)
        mapping = zipf_rank_to_view(dist)
        views = [mapping[r] for r in ranks]
    return DemandMap({t: int(v) for t, v in zip(terms, views)}, K)


def read_demand(path, universe_size=None) -> DemandMap:
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected 'terminal view'")
            try:
                view = int(parts[1])
            except ValueError:
                raise ValueError(f"line {ln}: view {parts[1]!r} is not an integer")
            pairs[_node_id(parts[0])] = view
    if not pairs:
        raise ValueError("demand file is empty")
    if universe_size is None:
        universe_size = max(pairs.values())
    return DemandMap(pairs, universe_size)


def write_demand(demand: DemandMap, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(demand.demand, key=repr):
            fh.write(f"{t} {demand.demand[t]}\n")
