"""Command-line pipeline: build-graph, partition, select, retrieve, bench, verify.

Config precedence: CLI flags > JSON config file (--config) > preset > defaults.
`FASTGAS_SEED` is the seed fallback when no flag or config value is given.
Exit codes: 1 = input error, 2 = parameter error, 3 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import bench as bench_mod
from .embeddings import load_embeddings
from .errors import FastgasError, InvalidParameter
from .graph import build_knn_graph, graph_to_dict, load_graph, save_graph
from .partition import partition_kway, partition_to_dict
from .retrieval import retrieve_random, retrieve_similar
from .selection import (
    fastgas_select,
    pagerank_select,
    random_select,
    subcluster_select,
    top_degree_select,
)

PRESETS = {
    "paper-18": {"k": 10, "budget": 18, "K": 6},
    "paper-100": {"k": 10, "budget": 100, "K": 10},
}

DEFAULTS = {
    "format": "jsonl",
    "k": 10,
    "K": 2,
    "budget": 18,
    "epsilon": 0.03,
    "method": "fastgas",
    "order": "asc",
    "mode": "similar",
    "m": 5,
    "threads": 1,
    "damping": 0.85,
    "tol": 1e-10,
    "max_iters": 200,
    "repeats": 1,
    "d": 64,
    "sizes": "1000,2000,4000,8000",
    "max_n": 12,
    "max_budget": 4,
    "instances": 500,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fastgas", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        sp.add_argument("--output", "-o")
        sp.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock timings from output files")

    sp = sub.add_parser("build-graph", help="build the kNN similarity graph from embeddings")
    common(sp)
    sp.add_argument("--input", required=True, help="embeddings file")
    sp.add_argument("--format", choices=["jsonl", "binary"])
    sp.add_argument("--k", type=int, help="neighbors per vertex")

    sp = sub.add_parser("partition", help="balanced K-way partition of a graph file")
    common(sp)
    sp.add_argument("--input", required=True, help="graph JSON from build-graph")
    sp.add_argument("--K", type=int)
    sp.add_argument("--epsilon", type=float)

    sp = sub.add_parser("select", help="run a selection strategy under a budget")
    common(sp)
    sp.add_argument("--input", required=True,
                    help="graph JSON (fastgas/random/top-degree/pagerank) or embeddings (subcluster)")
    sp.add_argument("--format", choices=["jsonl", "binary"], help="embeddings format for subcluster")
    sp.add_argument("--method", choices=["fastgas", "random", "top-degree", "pagerank", "subcluster"])
    sp.add_argument("--budget", type=int)
    sp.add_argument("--K", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--embeddings", help="optional embeddings file to attach instance ids")
    sp.add_argument("--damping", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iters", type=int, dest="max_iters")

    sp = sub.add_parser("retrieve", help="build per-test prompt example orderings")
    common(sp)
    sp.add_argument("--input", required=True, help="pool embeddings file")
    sp.add_argument("--format", choices=["jsonl", "binary"])
    sp.add_argument("--selection", required=True, help="selection JSON from `select`")
    sp.add_argument("--tests", required=True, help="test embeddings file")
    sp.add_argument("--tests-format", choices=["jsonl", "binary"], dest="tests_format")
    sp.add_argument("--mode", choices=["similar", "random"])
    sp.add_argument("--m", type=int, help="examples per prompt")
    sp.add_argument("--order", choices=["asc", "desc"])

    sp = sub.add_parser("bench", help="time the pipeline and baselines on synthetic pools")
    common(sp)
    sp.add_argument("--sizes", help="comma-separated pool sizes")
    sp.add_argument("--d", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--K", type=int)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--repeats", type=int)

    sp = sub.add_parser("verify", help="audit greedy selection against the exhaustive oracle")
    common(sp)
    sp.add_argument("--max-n", type=int, dest="max_n")
    sp.add_argument("--max-budget", type=int, dest="max_budget")
    sp.add_argument("--instances", type=int)

    return p


def _resolve(args: argparse.Namespace, key: str, cast=None):
    """CLI flag > config file > preset > env (seed only) > default."""
    val = getattr(args, key, None)
    if val is None and getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            val = json.load(f).get(key)
    if val is None and getattr(args, "preset", None):
        val = PRESETS[args.preset].get(key)
    if val is None and key == "seed":
        env = os.environ.get("FASTGAS_SEED")
        if env is not None:
            val = int(env)
    if val is None:
        val = DEFAULTS.get(key, 0 if key == "seed" else None)
    return cast(val) if cast is not None and val is not None else val


def _encode(obj, level: int) -> str:
    """`json.dumps(obj, indent=2)` nested `level` deep, byte for byte.

    The stdlib skips its C encoder whenever `indent` is set, so lists of
    ints, of strings and of equal-length int rows (graph edges, selections,
    plans) are formatted here with `join` and one templated `%` instead.
    """
    ind = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "]"
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = [encode_basestring_ascii(key) + ": " + _encode(v, level + 1)
                 for key, v in obj.items()]
        return "{" + ind + ("," + ind).join(items) + "\n" + "  " * level + "}"
    if type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            return "[" + ind + ("," + ind).join(map(int.__repr__, obj)) + close
        if kinds == {str}:
            return "[" + ind + ("," + ind).join(map(encode_basestring_ascii, obj)) + close
        if kinds == {list}:
            widths = set(map(len, obj))
            flat = tuple(chain.from_iterable(obj))
            if len(widths) == 1 and flat and set(map(type, flat)) == {int}:
                inner = ind + "  "
                row = "[" + inner + ("," + inner).join(["%d"] * widths.pop()) + ind + "]"
                return "[" + ind + ("," + ind).join([row] * len(obj)) % flat + close
        return "[" + ind + ("," + ind).join([_encode(v, level + 1) for v in obj]) + close
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _write_json(path: str | None, obj: dict) -> None:
    text = _encode(obj, 0) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cmd_build_graph(args) -> int:
    emb = load_embeddings(args.input, _resolve(args, "format"))
    t0 = time.perf_counter()
    g = build_knn_graph(emb, _resolve(args, "k", int), threads=_resolve(args, "threads", int))
    ms = (time.perf_counter() - t0) * 1e3
    out = graph_to_dict(g)
    out["ids"] = emb.ids
    if not args.no_timings:
        out["timings_ms"] = {"knn": round(ms, 3)}
    _write_json(args.output, out)
    print(f"N={g.num_vertices} |E|={g.num_edges} build_ms={ms:.1f}", file=sys.stderr)
    return 0


def _cmd_partition(args) -> int:
    g = load_graph(args.input)
    seed = _resolve(args, "seed", int)
    timings: dict[str, float] = {}
    part = partition_kway(g, _resolve(args, "K", int), seed,
                          epsilon=_resolve(args, "epsilon", float), timings=timings)
    out = partition_to_dict(g, part, seed, timings=None if args.no_timings else timings)
    _write_json(args.output, out)
    return 0


def _cmd_select(args) -> int:
    method = _resolve(args, "method")
    seed = _resolve(args, "seed", int)
    budget = _resolve(args, "budget", int)
    ids = None
    if method == "subcluster":
        emb = load_embeddings(args.input, _resolve(args, "format"))
        ids = emb.ids
        res = subcluster_select(emb, _resolve(args, "K", int), budget, seed)
    else:
        g = load_graph(args.input)
        if method == "fastgas":
            res = fastgas_select(g, _resolve(args, "K", int), budget, seed)
        elif method == "random":
            res = random_select(g.num_vertices, budget, seed)
        elif method == "top-degree":
            res = top_degree_select(g, budget)
        elif method == "pagerank":
            res = pagerank_select(g, budget, damping=_resolve(args, "damping", float),
                                  tol=_resolve(args, "tol", float),
                                  max_iters=_resolve(args, "max_iters", int))
        else:
            raise InvalidParameter(f"unknown method {method!r}")
    if args.embeddings:
        ids = load_embeddings(args.embeddings, _resolve(args, "format")).ids
    _write_json(args.output, res.to_dict(ids=ids, with_timings=not args.no_timings))
    return 0


def _cmd_retrieve(args) -> int:
    pool = load_embeddings(args.input, _resolve(args, "format"))
    with open(args.selection, "r", encoding="utf-8") as f:
        selected = json.load(f)["selected"]
    tests = load_embeddings(args.tests, _resolve(args, "tests_format") or _resolve(args, "format"))
    m = _resolve(args, "m", int)
    if _resolve(args, "mode") == "similar":
        plan = retrieve_similar(pool, selected, tests, m, order=_resolve(args, "order"))
    else:
        plan = retrieve_random([pool.ids[i] for i in selected], tests.ids, m,
                               _resolve(args, "seed", int))
    _write_json(args.output, plan.to_dict())
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in str(_resolve(args, "sizes")).split(",") if s.strip()]
    report = bench_mod.run_bench(
        sizes,
        d=_resolve(args, "d", int),
        k=_resolve(args, "k", int),
        K=_resolve(args, "K", int),
        M=_resolve(args, "budget", int),
        seed=_resolve(args, "seed", int),
        repeats=_resolve(args, "repeats", int),
        threads=_resolve(args, "threads", int),
    )
    _write_json(args.output, report)
    if args.output:
        rows = report["rows"]
        csv_path = str(Path(args.output).with_suffix(".csv"))
        with open(csv_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _cmd_verify(args) -> int:
    report = bench_mod.run_verify(
        max_n=_resolve(args, "max_n", int),
        max_budget=_resolve(args, "max_budget", int),
        instances=_resolve(args, "instances", int),
        seed=_resolve(args, "seed", int),
    )
    _write_json(args.output, report)
    print(
        f"exact-optimal {report['exact_optimal']}/{report['instances']}"
        f" min_ratio={report['min_ratio']} argmax_violations={report['argmax_violations']}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "build-graph": _cmd_build_graph,
    "partition": _cmd_partition,
    "select": _cmd_select,
    "retrieve": _cmd_retrieve,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = _resolve(args, "threads", int)
        if threads < 1:
            raise InvalidParameter(f"--threads must be at least 1, got {threads}")
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename or e}", file=sys.stderr)
        return 1
    except FastgasError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
