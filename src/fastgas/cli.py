"""Command-line pipeline: build-graph, partition, select, retrieve, bench, verify.

Each subcommand's parser is its settings schema; `settle_args` settles every
setting once, before dispatch. Precedence: CLI flags > JSON config file
(--config) > preset > the flag's default; the environment sets nothing. A
config key is the `dest` of one of the subcommand's optional flags (the flag
name with `-` replaced by `_`), and its value must fit that flag's type and
choices. The part cap (`partition.BALANCE_EPSILON`) and PageRank's damping,
tolerance and step limit (`selection.PAGERANK_*`) are constants.
Exit codes: 1 = input error, 2 = parameter error, 3 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bench as bench_mod
from .embeddings import load_embeddings
from .errors import FastgasError, FormatError, InvalidParameter
from .graph import build_knn_graph, graph_to_dict, load_graph
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


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    p = argparse.ArgumentParser(prog="fastgas", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--format", choices=["jsonl", "binary"], default="jsonl",
                    help="embeddings format for subcluster and --embeddings")
    sp.add_argument("--method", choices=["fastgas", "random", "top-degree", "pagerank", "subcluster"],
                    default="fastgas")
    sp.add_argument("--budget", type=int, default=18)
    sp.add_argument("--K", type=int, default=2)
    sp.add_argument("--embeddings", help="optional embeddings file to attach instance ids")

    sp = command("retrieve", _cmd_retrieve, "build per-test prompt example orderings")
    sp.add_argument("--input", required=True, help="pool embeddings file")
    sp.add_argument("--format", choices=["jsonl", "binary"], default="jsonl")
    sp.add_argument("--selection", required=True, help="selection JSON from `select`")
    sp.add_argument("--tests", required=True, help="test embeddings file")
    sp.add_argument("--tests-format", choices=["jsonl", "binary"], help="default: --format")
    sp.add_argument("--mode", choices=["similar", "random"], default="similar")
    sp.add_argument("--m", type=int, default=5, help="examples per prompt")
    sp.add_argument("--order", choices=["asc", "desc"], default="asc",
                    help="similar mode: asc puts the most similar example last")

    sp = command("bench", _cmd_bench, "time the pipeline and baselines on synthetic pools")
    sp.add_argument("--sizes", type=_int_list, default="1000,2000,4000,8000",
                    help="comma-separated pool sizes")
    sp.add_argument("--d", type=int, default=64)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--K", type=int, default=2)
    sp.add_argument("--budget", type=int, default=18)
    sp.add_argument("--repeats", type=int, default=1)

    sp = command("verify", _cmd_verify, "audit greedy selection against the exhaustive oracle")
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--max-budget", type=int, default=4)
    sp.add_argument("--instances", type=int, default=500)

    return p, sub.choices


def _config_value(path: str, key: str, action: argparse.Action, value):
    """`value` converted as its flag converts it; an error names the file and key."""
    if isinstance(action.default, bool):
        kinds, want = (bool,), "true or false"
    elif action.type is int:
        kinds, want = (int,), "an integer"
    elif action.choices:
        kinds, want = (str,), "one of " + ", ".join(action.choices)
    else:
        kinds, want = (str,), action.help if action.type else "a string"
    try:
        if type(value) in kinds:
            value = action.type(value) if action.type else value
            if action.choices is None or value in action.choices:
                return value
    except ValueError:
        pass
    raise InvalidParameter(f"config {path}: key {key!r} must be {want}, got {value!r}")


def _layer_defaults(sp: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Replace the defaults of `sp` with the preset, then the config file, so
    that parsing the command line again gives each layer its precedence.
    Config keys and values are checked against `sp`'s flags."""
    flags = {a.dest: a for a in sp._actions if a.option_strings and not a.required
             and a.dest not in ("help", "config", "preset")}
    layers = {}
    if args.preset:
        layers.update((k, v) for k, v in PRESETS[args.preset].items() if k in flags)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                config = json.load(f)
        except (OSError, ValueError) as e:
            raise InvalidParameter(f"config {args.config}: cannot read: {e}") from None
        if type(config) is not dict:
            raise InvalidParameter(f"config {args.config}: expected a JSON object")
        for key, value in config.items():
            if key not in flags:
                raise InvalidParameter(f"config {args.config}: unknown key {key!r} for "
                                       f"{args.command}; valid keys: {', '.join(sorted(flags))}")
            layers[key] = _config_value(args.config, key, flags[key], value)
    sp.set_defaults(**layers)


def _json_pieces(obj, level: int):
    """`json.dumps(obj, indent=2)` nested `level` deep, byte for byte, as
    consecutive strings; a 2-D integer array (graph edges) is written as the
    list of its rows.

    The stdlib skips its C encoder whenever `indent` is set, so lists of
    ints and of strings (selections, plans) are formatted here with `join`,
    and integer arrays a chunk of rows at a time with one templated `%`.
    """
    ind = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "]"
    if type(obj) is np.ndarray and obj.ndim == 2 and obj.dtype.kind == "i" and obj.size:
        # a chunk of rows at a time, as one flat list of Python ints
        inner = ind + "  "
        row = "[" + inner + ("," + inner).join(["%d"] * obj.shape[1]) + ind + "]"
        for i in range(0, len(obj), _ENCODE_ROWS):
            part = obj[i:i + _ENCODE_ROWS]
            rows = ("," + ind).join([row] * len(part)) % tuple(part.ravel().tolist())
            yield ("," if i else "[") + ind + rows
        yield close
    elif type(obj) is np.ndarray:
        yield from _json_pieces(obj.tolist(), level)
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        for i, (key, v) in enumerate(obj.items()):
            yield ("," if i else "{") + ind + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(v, level + 1)
        yield "\n" + "  " * level + "}"
    elif type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            yield "[" + ind + ("," + ind).join(map(int.__repr__, obj)) + close
        elif kinds == {str}:
            yield "[" + ind + ("," + ind).join(map(encode_basestring_ascii, obj)) + close
        else:
            for i, v in enumerate(obj):
                yield ("," if i else "[") + ind
                yield from _json_pieces(v, level + 1)
            yield close
    else:
        yield json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _write_json(path: str | None, obj: dict) -> None:
    """`obj` as indented JSON to the file `path`, or to stdout, piece by piece."""
    out = open(path, "w", encoding="utf-8", newline="\n") if path else contextlib.nullcontext(sys.stdout)
    with out as f:
        f.writelines(_json_pieces(obj, 0))
        f.write("\n")


def _load_selection(path: str, ids: list[str]) -> list[int]:
    """The `selected` indices of a selection file, each a distinct vertex of
    the pool with these ids. Its `selected_ids`, unless null or absent, must
    be the pool's ids at `selected`, so a selection made on another pool is
    refused."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:
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


def _cmd_build_graph(args) -> int:
    emb = load_embeddings(args.input, args.format)
    t0 = time.perf_counter()
    g = build_knn_graph(emb, args.k, threads=args.threads)
    ms = (time.perf_counter() - t0) * 1e3
    out = graph_to_dict(g, args.k)
    out["ids"] = emb.ids
    if not args.no_timings:
        out["timings_ms"] = {"knn": round(ms, 3)}
    _write_json(args.output, out)
    print(f"N={g.num_vertices} |E|={g.num_edges} build_ms={ms:.1f}", file=sys.stderr)
    return 0


def _cmd_partition(args) -> int:
    g = load_graph(args.input)
    timings: dict[str, float] = {}
    part = partition_kway(g, args.K, args.seed, timings=timings)
    out = partition_to_dict(g, part, args.seed, timings=None if args.no_timings else timings)
    _write_json(args.output, out)
    return 0


def _cmd_select(args) -> int:
    if args.method == "subcluster":
        emb = load_embeddings(args.input, args.format)
        ids, n = emb.ids, len(emb.ids)
    else:
        g = load_graph(args.input)
        ids, n = None, g.num_vertices
    if args.embeddings:
        ids = load_embeddings(args.embeddings, args.format).ids
        if len(ids) != n:
            raise FormatError(f"{args.embeddings}: {len(ids)} embeddings for the "
                              f"{n} vertices of {args.input}")
    if args.method == "subcluster":
        res = subcluster_select(emb, args.K, args.budget, args.seed)
    elif args.method == "fastgas":
        res = fastgas_select(g, args.K, args.budget, args.seed)
    elif args.method == "random":
        res = random_select(n, args.budget, args.seed)
    elif args.method == "top-degree":
        res = top_degree_select(g, args.budget)
    else:
        res = pagerank_select(g, args.budget)
    _write_json(args.output, res.to_dict(ids=ids, with_timings=not args.no_timings))
    return 0


def _cmd_retrieve(args) -> int:
    if args.mode == "random" and args.order != "asc":
        raise InvalidParameter(f"order {args.order} needs mode similar; mode random "
                               "draws each test's examples in random order")
    pool = load_embeddings(args.input, args.format)
    selected = _load_selection(args.selection, pool.ids)
    tests = load_embeddings(args.tests, args.tests_format or args.format)
    if args.mode == "similar":
        plan = retrieve_similar(pool, selected, tests, args.m, order=args.order)
    else:
        plan = retrieve_random([pool.ids[i] for i in selected], tests.ids, args.m, args.seed)
    _write_json(args.output, plan.to_dict())
    return 0


def _cmd_bench(args) -> int:
    if args.no_timings:
        raise InvalidParameter("bench reports timings only; --no-timings does not apply to it")
    # the CSV table goes next to the JSON report, with the suffix .csv
    csv_path = os.path.splitext(args.output)[0] + ".csv" if args.output else None
    if args.output and csv_path == args.output:
        raise InvalidParameter(f"bench would write both its JSON report and its CSV table to {csv_path}; "
                               "give --output a path that does not end in .csv")
    report = bench_mod.run_bench(args.sizes, d=args.d, k=args.k, K=args.K, M=args.budget,
                                 seed=args.seed, repeats=args.repeats, threads=args.threads)
    _write_json(args.output, report)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(report["rows"][0]))
            writer.writeheader()
            writer.writerows(report["rows"])
    return 0


def _cmd_verify(args) -> int:
    report = bench_mod.run_verify(max_n=args.max_n, max_budget=args.max_budget,
                                  instances=args.instances, seed=args.seed)
    _write_json(args.output, report)
    print(f"exact-optimal {report['exact_optimal']}/{report['instances']}"
          f" min_ratio={report['min_ratio']} argmax_violations={report['argmax_violations']}",
          file=sys.stderr)
    return 0


def settle_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Every setting of `argv`'s subcommand, from its flags, config file,
    preset and defaults in that order. An argv that does not parse exits 2;
    a bad config or `--threads` raises InvalidParameter."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    _layer_defaults(commands[args.command], args)
    args = parser.parse_args(argv)
    if args.threads < 1:
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


if __name__ == "__main__":
    sys.exit(main())
