"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.wrap` replaces a module attribute of fastgas with a timing wrapper
that keeps a stack of open spans, so each span's self time is its duration
minus the time of the wrapped calls it made. Functions are patched in every
namespace the pipeline looks them up in (`from x import f` binds a second
name), and `install` lists them all. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # deterministic work and outcome counters
        self.root_s: list[float] = []  # duration of each outermost span, in call order
        self.last: dict = {}  # last result of selected spans, for output checks
        self._stack: list[list[float]] = []  # time covered by children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str, after=None) -> None:
        """Time every call of `module.attr` as `span`; `after(args, result)`
        runs once the span has closed, so its cost lands in the parent."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            self._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()[0]
                self.self_s[span] += dt - children
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.root_s.append(dt)
            if after is not None:
                after(args, out)
            return out

        setattr(module, attr, timed)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)


def _cut(g, assignment: np.ndarray) -> int:
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    return int(((src < g.neighbors) & (assignment[src] != assignment[g.neighbors])).sum())


def install(t: Tracer, part_cap) -> None:
    """Wrap the calls of every layer: embeddings, graph, partition,
    selection, retrieval and cli. `part_cap(n, K)` is the balance cap."""
    from fastgas import cli, partition, selection

    def count(name, value):
        t.counts[name] += int(value)

    def on_kway(args, part):
        g, K = args[0], args[1]
        count("partition.cut", _cut(g, part.assignment))
        t.last["partition.max_part_over_cap"] = max(part.part_sizes) / part_cap(g.num_vertices, K)

    def on_fastgas(args, res):
        t.last["fastgas"] = {"selected": list(res.selected),
                             "per_part": {str(p): v for p, v in res.per_part.items()}}

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "_write_json", "cli.json_write",
           after=lambda a, _: count("cli.output_bytes", os.path.getsize(a[0])))
    t.wrap(cli, "load_embeddings", "embeddings.load",
           after=lambda a, _: count("embeddings.bytes_read", os.path.getsize(a[0])))
    t.wrap(cli, "build_knn_graph", "graph.knn", after=lambda a, g: count("graph.edges", g.num_edges))
    t.wrap(cli, "graph_to_dict", "graph.save")
    t.wrap(cli, "load_graph", "graph.load")
    for module in (partition, selection):
        t.wrap(module, "induced_subgraph", "graph.induced_subgraph")
    t.wrap(selection, "partition_kway", "partition.kway", after=on_kway)
    t.wrap(partition, "multilevel_bisect", "partition.bisect")
    t.wrap(partition, "random_matching_coarsen", "partition.coarsen",
           after=lambda a, _: count("partition.coarsen_vertices", a[0].num_vertices))
    t.wrap(partition, "bfs_initial_bisect", "partition.init_bisect")

    def on_refine(args, b):
        count("partition.refine_vertices", args[0].num_vertices)
        count("partition.refine_cut_gain", args[1].cut - b.cut)

    t.wrap(partition, "refine_kl", "partition.refine", after=on_refine)
    t.wrap(cli, "fastgas_select", "selection.fastgas", after=on_fastgas)
    t.wrap(selection, "greedy_select", "selection.greedy",
           after=lambda a, picks: count("selection.picks", len(picks)))
    for attr, span in (("random_select", "selection.random"),
                       ("top_degree_select", "selection.top_degree"),
                       ("pagerank_select", "selection.pagerank"),
                       ("subcluster_select", "selection.subcluster"),
                       ("retrieve_similar", "retrieval.similar"),
                       ("retrieve_random", "retrieval.random")):
        t.wrap(cli, attr, span)


def count_metrics(t: Tracer) -> dict[str, float]:
    """Counters that must repeat exactly across traced runs of the same inputs."""
    c, n = t.counts, t.calls
    return {
        "embeddings.bytes_read": c["embeddings.bytes_read"],
        "graph.edges": c["graph.edges"],
        "graph.induced_subgraph_calls": n["graph.induced_subgraph"],
        "partition.bisect_calls": n["partition.bisect"],
        "partition.coarsen_levels": n["partition.coarsen"],
        "partition.coarsen_vertices": c["partition.coarsen_vertices"],
        "partition.refine_calls": n["partition.refine"],
        "partition.refine_vertices": c["partition.refine_vertices"],
        "partition.refine_cut_gain": c["partition.refine_cut_gain"],
        "partition.cut": c["partition.cut"],
        "partition.max_part_over_cap": t.last.get("partition.max_part_over_cap", float("nan")),
        "selection.greedy_calls": n["selection.greedy"],
        "selection.picks": c["selection.picks"],
        "cli.output_bytes": c["cli.output_bytes"],
    }


SELF_TIMES = {
    "embeddings.load_s": "embeddings.load",
    "graph.knn_s": "graph.knn",
    "graph.save_s": "graph.save",
    "graph.load_s": "graph.load",
    "graph.induced_subgraph_s": "graph.induced_subgraph",
    "partition.kway_s": "partition.kway",
    "partition.bisect_s": "partition.bisect",
    "partition.coarsen_s": "partition.coarsen",
    "partition.init_bisect_s": "partition.init_bisect",
    "partition.refine_s": "partition.refine",
    "selection.fastgas_s": "selection.fastgas",
    "selection.greedy_s": "selection.greedy",
    "selection.random_s": "selection.random",
    "selection.top_degree_s": "selection.top_degree",
    "selection.pagerank_s": "selection.pagerank",
    "selection.subcluster_s": "selection.subcluster",
    "retrieval.similar_s": "retrieval.similar",
    "retrieval.random_s": "retrieval.random",
    "cli.json_write_s": "cli.json_write",
    "cli.main_s": "cli.main",
}
