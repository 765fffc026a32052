"""Command-line pipeline: build-graph, partition, select, retrieve, verify.

Each subcommand's parser is its settings schema; `settle_args` settles every
setting once, before dispatch. A setting comes from its flag, else from
`--preset`, else from the flag's default; the environment sets nothing. The
part cap (`partition.BALANCE_EPSILON`) and PageRank's damping, tolerance and
step limit (`selection.PAGERANK_*`) are constants.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .embeddings import load_embeddings
from .errors import FastgasError, FormatError, InvalidParameter
from .graph import graph_to_dict, load_graph
from .knn import build_knn_graph
from .partition import partition_kway, partition_to_dict
from .retrieval import retrieve_random, retrieve_similar
from .selection import (
    fastgas_select,
    pagerank_select,
    random_select,
    subcluster_select,
    top_degree_select,
)

# Rows of an integer array formatted by one `%`.
_ENCODE_ROWS = 4096

PRESETS = {
    "paper-18": {"k": 10, "budget": 18, "K": 6},
    "paper-100": {"k": 10, "budget": 100, "K": 10},
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    p = argparse.ArgumentParser(prog="fastgas", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, unread: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        """A subcommand with the shared flags, less the `unread` ones it has no use for."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if "preset" not in unread:
            sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--seed", type=int, default=0)
        if "threads" not in unread:
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--output", "-o")
        sp.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock timings from output files")
        return sp

    sp = command("build-graph", _cmd_build_graph, "build the kNN similarity graph from embeddings")
    sp.add_argument("--input", required=True, help="embeddings file")
    sp.add_argument("--format", choices=["jsonl", "binary"], default="jsonl")
    sp.add_argument("--k", type=int, default=10, help="neighbors per vertex")

    sp = command("partition", _cmd_partition, "balanced K-way partition of a graph file")
    sp.add_argument("--input", required=True, help="graph JSON from build-graph")
    sp.add_argument("--K", type=int, default=2)

    sp = command("select", _cmd_select, "run a selection strategy under a budget")
    sp.add_argument("--input", required=True,
                    help="graph JSON (fastgas/random/top-degree/pagerank) or embeddings (subcluster)")
    sp.add_argument("--format", choices=["jsonl", "binary"],
                    help="embeddings format for subcluster (default: jsonl)")
    sp.add_argument("--method", choices=["fastgas", "random", "top-degree", "pagerank", "subcluster"],
                    default="fastgas")
    sp.add_argument("--budget", type=int, default=18)
    sp.add_argument("--K", type=int, default=2)

    sp = command("retrieve", _cmd_retrieve, "build per-test prompt example orderings")
    sp.add_argument("--input", required=True, help="pool embeddings file")
    sp.add_argument("--format", choices=["jsonl", "binary"], default="jsonl")
    sp.add_argument("--selection", required=True, help="selection JSON from `select`")
    sp.add_argument("--tests", required=True, help="test embeddings file")
    sp.add_argument("--tests-format", choices=["jsonl", "binary"], help="default: --format")
    sp.add_argument("--mode", choices=["similar", "random"], default="similar")
    sp.add_argument("--m", type=int, default=5,
                    help="examples per prompt; similar mode puts the most similar last")

    sp = command("verify", _cmd_verify, "audit greedy selection against the exhaustive oracle",
                 unread=("preset", "threads"))
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--max-budget", type=int, default=4)
    sp.add_argument("--instances", type=int, default=500)

    return p, sub.choices


def _json_pieces(obj):
    """`json.dumps(obj, indent=2)` byte for byte, as consecutive strings; a
    2-D integer array (graph edges) is written as the list of its rows.

    The stdlib skips its C encoder whenever `indent` is set, so the two
    values of an output that are long enough to feel it are formatted here:
    a top-level 2-D integer array a chunk of rows at a time with one
    templated `%`, and a top-level list of strings (ids) with one `join`.
    """
    if type(obj) is not dict or not obj or not all(type(key) is str for key in obj):
        yield json.dumps(obj, indent=2)
        return
    ind = "\n    "
    for i, (key, v) in enumerate(obj.items()):
        yield ("," if i else "{") + "\n  " + encode_basestring_ascii(key) + ": "
        if type(v) is np.ndarray and v.ndim == 2 and v.dtype.kind == "i" and v.size:
            row = "[" + ind + "  " + ("," + ind + "  ").join(["%d"] * v.shape[1]) + ind + "]"
            for j in range(0, len(v), _ENCODE_ROWS):
                part = v[j:j + _ENCODE_ROWS]
                rows = ("," + ind).join([row] * len(part)) % tuple(part.ravel().tolist())
                yield ("," if j else "[") + ind + rows
            yield "\n  ]"
        elif type(v) is list and v and set(map(type, v)) == {str}:
            yield "[" + ind + ("," + ind).join(map(encode_basestring_ascii, v)) + "\n  ]"
        else:
            yield json.dumps(v.tolist() if type(v) is np.ndarray else v, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _write_json(path: str | None, obj: dict) -> None:
    """`obj` as indented JSON to the file `path`, or to stdout, piece by piece."""
    out = open(path, "w", encoding="utf-8", newline="\n") if path else contextlib.nullcontext(sys.stdout)
    with out as f:
        f.writelines(_json_pieces(obj))
        f.write("\n")


def _load_selection(path: str, ids: list[str]) -> list[int]:
    """The `selected` indices of a selection file, each a distinct vertex of
    the pool with these ids. Its `selected_ids`, unless null or absent, must
    be the pool's ids at `selected`, so a selection made on another pool is
    refused."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: not a selection JSON: {e}") from None
    n = len(ids)
    selected = doc.get("selected") if type(doc) is dict else None
    if type(selected) is not list or not all(type(i) is int and 0 <= i < n for i in selected):
        raise FormatError(f"{path}: \"selected\" must be a list of pool indices in [0, {n})")
    seen = set()
    for j, i in enumerate(selected):
        if i in seen:
            raise FormatError(f"{path}: selected[{j}] = {i} repeats an earlier entry")
        seen.add(i)
    named = doc.get("selected_ids")
    if named is None:
        return selected
    if type(named) is not list:
        raise FormatError(f"{path}: \"selected_ids\" must be null or a list of pool ids")
    for j, (i, name) in enumerate(zip(selected, named)):
        if name != ids[i]:
            raise FormatError(f"{path}: selected_ids[{j}] is {json.dumps(name)}, but the pool's id "
                              f"at selected[{j}] = {i} is {json.dumps(ids[i])}")
    if len(named) != len(selected):
        raise FormatError(f"{path}: {len(named)} selected_ids for {len(selected)} selected")
    return selected


def _timed(call):
    """`call()` and its wall time in ms."""
    t0 = time.perf_counter()
    return call(), (time.perf_counter() - t0) * 1e3


def _write_output(args, out: dict, name: str, ms: float) -> None:
    """Write `out` to `args.output`, with the `ms` of its one library call as
    `timings_ms.<name>` unless `--no-timings` is set."""
    if not args.no_timings:
        out["timings_ms"] = {name: round(ms, 3)}
    _write_json(args.output, out)


def _cmd_build_graph(args) -> int:
    emb = load_embeddings(args.input, args.format)
    g, ms = _timed(lambda: build_knn_graph(emb, args.k, threads=args.threads))
    _write_output(args, graph_to_dict(g, args.k, emb.ids), "knn", ms)
    print(f"N={g.num_vertices} |E|={g.num_edges} build_ms={ms:.1f}", file=sys.stderr)
    return 0


def _cmd_partition(args) -> int:
    g, _ = load_graph(args.input)
    part, ms = _timed(lambda: partition_kway(g, args.K, args.seed))
    _write_output(args, partition_to_dict(g, part, args.seed), "partition", ms)
    return 0


def _cmd_select(args) -> int:
    if "K" in args.given and args.method not in ("fastgas", "subcluster"):
        raise InvalidParameter(f"K {args.K} needs method fastgas or subcluster; method {args.method} "
                               "picks from the whole pool, in no parts")
    if args.method == "subcluster":
        emb = load_embeddings(args.input, args.format or "jsonl")
        ids, n = emb.ids, len(emb.ids)
    elif args.format:
        raise InvalidParameter(f"format {args.format} needs method subcluster; method {args.method} "
                               "reads a graph JSON, whose format is fixed")
    else:
        g, ids = load_graph(args.input)
        n = g.num_vertices
    res, ms = _timed({
        "subcluster": lambda: subcluster_select(emb, args.K, args.budget, args.seed),
        "fastgas": lambda: fastgas_select(g, args.K, args.budget, args.seed),
        "random": lambda: random_select(n, args.budget, args.seed),
        "top-degree": lambda: top_degree_select(g, args.budget),
        "pagerank": lambda: pagerank_select(g, args.budget),
    }[args.method])
    _write_output(args, res.to_dict(ids=ids), "select", ms)
    return 0


def _cmd_retrieve(args) -> int:
    pool = load_embeddings(args.input, args.format)
    selected = _load_selection(args.selection, pool.ids)
    tests = load_embeddings(args.tests, args.tests_format or args.format)
    if args.mode == "similar":
        plan, ms = _timed(lambda: retrieve_similar(pool, selected, tests, args.m))
    else:
        ids = [pool.ids[i] for i in selected]
        plan, ms = _timed(lambda: retrieve_random(ids, tests.ids, args.m, args.seed))
    _write_output(args, plan.to_dict(), "retrieve", ms)
    return 0


# verify imports its module when run, so the pipeline's stages do not load
# it at start-up
def _cmd_verify(args) -> int:
    from .verify import run_verify

    report, ms = _timed(lambda: run_verify(max_n=args.max_n, max_budget=args.max_budget,
                                           instances=args.instances, seed=args.seed))
    _write_output(args, report, "verify", ms)
    print(f"exact-optimal {report['exact_optimal']}/{report['instances']}"
          f" min_ratio={report['min_ratio']} argmax_violations={report['argmax_violations']}",
          file=sys.stderr)
    return 0


def settle_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Every setting of `argv`'s subcommand, from its flags, preset and
    defaults in that order, with `given`, the settings that its flags set.
    An argv that does not parse exits 2; a `--threads` below 1 raises
    InvalidParameter."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sp = commands[args.command]
    # parsed again over defaults that no flag yields, to tell a flag's value
    # from a default
    unset = object()
    sp.set_defaults(**{action.dest: unset for action in sp._actions})
    again = parser.parse_args(argv)
    args.given = {action.dest for action in sp._actions if getattr(again, action.dest) is not unset}
    preset = PRESETS.get(getattr(args, "preset", None), {})
    for key in preset.keys() & vars(args).keys() - args.given:
        setattr(args, key, preset[key])
    if getattr(args, "threads", 1) < 1:
        raise InvalidParameter(f"--threads must be at least 1, got {args.threads}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = settle_args(argv)
        return args.run(args)
    except OSError as e:
        print(f"error: cannot open {e.filename or e}: {e.strerror}", file=sys.stderr)
        return 1
    except FastgasError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
