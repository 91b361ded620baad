"""Command-line front end: every analysis as a reproducible batch command.

Commands: wordlen, hamdiff, verdict, depth-profile, qh, export-graph.
Group specs are JSON files (see groups.parse_group_spec); lamplighter specs
are {"lamps": <group spec>, "base": <group spec>}.  Outputs are deterministic
functions of the spec.  Exit codes: 0 success, 2 usage error, 3 resource cap,
4 verification failure (an emitted answer failed its re-check), 5 internal
error (a consistency assertion inside the program failed), 141 stdout closed
by its reader before the output ended (as for a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import re
import sys
from typing import Dict, Iterator, List, Optional, Sequence, TextIO

from . import graphs, groups, hamiltonian, wreath
from .errors import ResourceCapError, UsageError, VerificationError
from .limits import CAPS

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ends


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON spec {path}: {exc}")


def _group_from_file(path: str) -> groups.GroupModel:
    try:
        return groups.parse_group_spec(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad group spec {path}: {exc}")


def _finite_from_file(path: str, command: str) -> groups.FiniteModel:
    """The finite group spec at path, refused unless the Hamiltonian
    difference is defined on it."""
    model = _group_from_file(path)
    if not isinstance(model, groups.FiniteModel):
        raise UsageError(f"{command} needs finite group specs ({path})")
    if model.table.order < 2:
        raise UsageError(f"{command} needs groups of order at least 2 ({path})")
    return model


def _lamplighter_from_file(path: str) -> wreath.LamplighterModel:
    spec = _load_json(path)
    try:
        if not isinstance(spec, dict):
            raise ValueError(f"a lamplighter spec is a JSON object, got {type(spec).__name__}")
        lamps = groups.parse_group_spec(spec["lamps"])
        base = groups.parse_group_spec(spec["base"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad lamplighter spec {path}: {exc}")
    return wreath.LamplighterModel(lamps, base)


def parse_payload_json(model: groups.GroupModel, obj) -> groups.Payload:
    """Element from JSON: int (finite index), list (abelian vector or
    free-product letter pairs), or string (payload_str syntax)."""
    if isinstance(obj, str):
        return model.parse_payload(obj)
    if isinstance(obj, int):
        return model.normalize_payload(obj)
    if isinstance(obj, list):
        if obj and isinstance(obj[0], list):
            return model.normalize_payload(tuple((f, x) for f, x in obj))
        return model.normalize_payload(tuple(obj))
    raise UsageError(f"cannot parse element {obj!r}")


def _element_from_spec(model: wreath.LamplighterModel, spec: dict) -> wreath.WreathState:
    if not isinstance(spec, dict):
        raise UsageError(f"element spec must be a JSON object, got {type(spec).__name__}")
    try:
        lamps = [(parse_payload_json(model.base, key), parse_payload_json(model.lamps, val))
                 for key, val in spec.get("lamps", [])]
        pos = (parse_payload_json(model.base, spec["position"]) if "position" in spec
               else model.base.identity_payload())
        return model._state(lamps, pos)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed element spec: {exc}")


def _backend(model: wreath.LamplighterModel, name: str, exact: bool = False) -> bool:
    """--backend as the generic flag of the word-length entry points.  auto
    and the base's own strategy price by that strategy, generic by the ball
    upper bound; any other name, and with exact any generic pricing, is a
    usage error."""
    if name not in ("auto", "generic", model.strategy):
        raise UsageError(f"backend {name!r} does not fit the {model.base.variant} base"
                         f" (auto picks {model.strategy})")
    generic = name == "generic"
    if exact and (generic or model.strategy == "generic"):
        raise UsageError("depth needs an exact backend; 'generic' is an upper bound")
    return generic


def _check_out_dir(out: Optional[str]) -> None:
    """Refuse an --out that is a directory or lies in none before any work is
    done; the file itself is opened (and created) only by _output."""
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise UsageError(f"cannot open --out {out}: not a file in an existing directory")


@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """The --out file, opened for writing and closed after, or sys.stdout
    (left open) when out is not given."""
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise UsageError(f"cannot open --out {out}: {exc.strerror}")
    with fh:
        yield fh


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_wordlen(args) -> int:
    model = _lamplighter_from_file(args.group)
    element_spec = _load_json(args.element)
    g = _element_from_spec(model, element_spec)
    wl, walk = wreath.word_length_and_walk(model, g, _backend(model, args.backend))
    lines = []
    if wl.exact:
        lines.append(f"{wl.value} exact")
    else:
        lines.append(f"<= {wl.value} upper-bound")
    names = " ".join(model.base.payload_str(p) for p in walk)
    lines.append(f"ts-walk: {names}")
    if args.verify:
        lamps, pos = g  # model.state normalised pos
        hamiltonian._check_group_walk(model.base, walk, {k for k, _v in lamps})
        if walk[-1] != pos:
            raise VerificationError("walk does not end at the position")
        cost = wreath.lamp_cost(model, g)
        if wl.value != cost + len(walk) - 1:
            raise VerificationError(
                f"value {wl.value} is not lamp cost {cost} plus {len(walk) - 1} walk edges"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_hamdiff(args) -> int:
    specs = [_finite_from_file(path, "hamdiff") for path in args.group or []]
    for n in args.cyclic_range or ():
        specs.append(groups.make_cyclic(n, [1]))
    if not specs:
        raise UsageError("no groups given (use --group or --cyclic-range)")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "gens", "hamiltonian_difference", "ts_closed", "argmax"])
    for model in specs:
        h, closed, argmax, _ = hamiltonian.hamiltonian_difference_detail(model)
        gens = "+".join(model.payload_str(s) for s in model.gens)
        writer.writerow([model.table.name, gens, h, closed, model.payload_str(argmax)])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_verdict(args) -> int:
    H = _finite_from_file(args.H, "verdict")
    K = _finite_from_file(args.K, "verdict")
    rep = wreath.theorem_b_verdict(H, K)
    case = None
    if H.table.is_abelian() and K.table.is_abelian():
        case, bounded = wreath.classify_abelian_free_product(H, K)
        if args.verify and bounded != rep.uniformly_bounded:
            raise VerificationError("classification disagrees with Theorem-B verdict")
    record = {
        "H": H.table.name,
        "K": K.table.name,
        "h_H": rep.h_first,
        "h_K": rep.h_second,
        "sum": rep.total,
        "verdict": "uniformly_bounded" if rep.uniformly_bounded else "unbounded",
        "case": case,
    }
    _emit(json.dumps(record, indent=1, sort_keys=True) + "\n", args.out)
    return 0


def cmd_depth_profile(args) -> int:
    model = _lamplighter_from_file(args.group)
    _backend(model, args.backend, exact=True)
    profile = wreath.depth_profile(model, args.radius, args.kmax, cap=args.cap)
    dead_ends = profile.rows.dead_ends()
    retreat: Dict[str, str] = {}
    for row, g in dead_ends:
        try:
            k, exact = wreath.retreat_depth(model, g, row.depth)
            retreat[row.element_id] = str(k) if exact else f">{k - 1}"
        except ResourceCapError as exc:
            # the row keeps "cap"; the cap, its value and the k reached go to stderr
            retreat[row.element_id] = "cap"
            print(f"resource cap: {exc} (retreat search of {row.element_id})", file=sys.stderr)
        if args.verify and not wreath.is_dead_end(model, g):
            raise VerificationError(f"row {row.element_id} is not a dead end")
    # the rows hold no reference to the model: its intern tables go before
    # the rows are written
    del model
    with _output(args.out) as fh:
        write = _write_json_profile if args.format == "json" else _write_csv_profile
        write(fh, profile, retreat)
    if profile.cut:
        print(f"resource cap: {profile.cut}", file=sys.stderr)
        return 3
    return 0


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """text as csv.writer (QUOTE_MINIMAL, lineterminator "\\n") writes it as
    one field of a row.  Only a delimiter, a quote or a line break can make
    csv.writer quote a field; a text holding one goes through csv.writer."""
    if not _CSV_SPECIAL.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-len(",\n")]


def _write_csv_profile(fh: TextIO, profile: wreath.DepthProfile, retreat: Dict[str, str]) -> None:
    """The profile as csv.writer would write its rows, in blocks of rows."""
    suffix = "" if profile.complete else ",partial_enumeration"
    flags = {True: _csv_field("exact" + suffix), False: _csv_field("depth_lower_bound" + suffix)}

    def full(element_id: str, rep: wreath.DepthReport) -> str:
        return (f"{_csv_field(element_id)},{rep.word_length},{rep.depth},"
                f"{retreat.get(element_id, '')},{flags[rep.depth_exact]}\n")

    fh.write("element_id,word_length,depth,retreat_depth,flags\n")
    for block in profile.rows.text_blocks(_csv_field, "", lambda L: f",{L},0,,{flags[True]}\n", full):
        fh.write("".join(block))
    for shell, depth in profile.max_depth_per_shell().items():
        fh.write(f"# shell {shell} max_depth {depth}\n")


# one profile row as json.dumps(..., indent=1, sort_keys=True) prints it in
# the rows list, two levels down
_JSON_ROW = (
    '\n  {{\n   "depth": {},\n   "depth_exact": {},\n   "element": {},\n'
    '   "retreat_depth": {},\n   "word_length": {}\n  }}'
)


def _write_json_profile(fh: TextIO, profile: wreath.DepthProfile, retreat: Dict[str, str]) -> None:
    """The profile as one JSON object (indent 1, sorted keys), its rows
    streamed in blocks: json.dump would make one write per token, which is
    slow on an unbuffered stdout (PYTHONUNBUFFERED)."""
    head = json.dumps(
        {"radius": profile.radius, "k_max": profile.k_max, "complete": profile.complete,
         "max_depth_per_shell": profile.max_depth_per_shell(), "rows": []},
        indent=1, sort_keys=True,
    )
    # "rows" sorts last, so head ends with its empty list
    fh.write(head[:-len("[]\n}")] + "[")
    dumps = json.dumps
    exact = {True: "true", False: "false"}

    def full(element_id: str, rep: wreath.DepthReport) -> str:
        k = retreat.get(element_id)
        return _JSON_ROW.format(rep.depth, exact[rep.depth_exact], dumps(element_id),
                                "null" if k is None else dumps(k), rep.word_length)

    # a depth-0 row is row_head, the element id, then row_tail with the
    # word length in place of its {}
    row_head, row_tail = _JSON_ROW.format(0, "true", "{}", "null", "{}").split("{}", 1)
    sep = ""
    for block in profile.rows.text_blocks(dumps, row_head, lambda L: row_tail.replace("{}", str(L)), full):
        fh.write(sep + ",".join(block))
        sep = ","
    fh.write("\n ]\n}\n")


def cmd_qh(args) -> int:
    model = _group_from_file(args.group)
    try:
        result = hamiltonian.qh_certificate(model, args.nmax, M=args.M, strategy=args.strategy)
    except ValueError as exc:  # a strategy that does not fit the group, or M too small
        raise UsageError(str(exc))
    text = result.to_json() + "\n"
    if args.verify and isinstance(result, hamiltonian.QhCertificate):
        hamiltonian.verify_qh_certificate(model, result)
    _emit(text, args.out)
    return 0


def cmd_export_graph(args) -> int:
    if args.cube:
        graph = graphs.cube_graph(args.cube)
        graph = graphs.FiniteGraph(
            graph.n, graph.adj, tuple(",".join(map(str, l)) for l in graph.labels)
        )
    else:
        model = _group_from_file(args.group)
        if args.radius is not None:
            graph = graphs.cayley_ball(model, args.radius).graph
        elif isinstance(model, groups.FiniteModel):
            graph = graphs.finite_cayley_graph(model)
        else:
            raise UsageError(f"only cyclic group specs export without --radius, not {model.variant}")
    if args.format == "adj":
        _emit(graph.to_adjacency_text(), args.out)
    else:
        _emit(graph.to_dot(), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _cyclic_range(text: str) -> range:
    """--cyclic-range A:B as the orders A..B, with 2 <= A <= B."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    if not 2 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"need 2 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def _at_least(least: int):
    """An argparse type: an int of at least `least`."""

    def size(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return size


def _cube_dims(text: str) -> List[int]:
    """--cube m1,m2,... as a list of positive ints."""
    try:
        dims = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    if min(dims) < 1:
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lamplighter", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--verify", action="store_true", help="re-check emitted claims")

    sp = sub.add_parser("wordlen", help="word length of a lamplighter element")
    sp.add_argument("--group", required=True, help="lamplighter spec JSON")
    sp.add_argument("--element", required=True, help="element JSON (lamps, position)")
    sp.add_argument("--backend", default="auto",
                    choices=["auto", "finite", "tree", "petal", "box", "generic"])
    common(sp)

    sp = sub.add_parser("hamdiff", help="Hamiltonian difference table")
    sp.add_argument("--group", action="append", help="finite group spec JSON (repeatable)")
    sp.add_argument("--cyclic-range", type=_cyclic_range,
                    help="A:B adds cyclic groups Z/nZ, n in [A,B], 2 <= A <= B")
    sp.add_argument("--format", default="csv", choices=["csv"])
    common(sp)

    sp = sub.add_parser("verdict", help="free-product depth dichotomy verdict")
    sp.add_argument("--H", required=True)
    sp.add_argument("--K", required=True)
    sp.add_argument("--format", default="json", choices=["json"])
    common(sp)

    sp = sub.add_parser("depth-profile", help="depth of every element in a ball")
    sp.add_argument("--group", required=True, help="lamplighter spec JSON")
    sp.add_argument("--radius", type=_at_least(0), required=True)
    sp.add_argument("--kmax", type=_at_least(0), default=8)
    sp.add_argument("--backend", default="auto",
                    choices=["auto", "finite", "tree", "petal", "box", "generic"])
    sp.add_argument("--cap", type=_at_least(0),
                    help=f"state cap (default: LAMPLIGHTER_CAP, else {CAPS['WREATH_BALL_CAP']:,})")
    sp.add_argument("--format", default="csv", choices=["csv", "json"])
    common(sp)

    sp = sub.add_parser("qh", help="quasi-Hamiltonian certificate or refutation")
    sp.add_argument("--group", required=True)
    sp.add_argument("--nmax", type=_at_least(1), required=True)
    sp.add_argument("--M", type=_at_least(0), default=2)
    sp.add_argument("--strategy", default="auto",
                    choices=["auto", "abelian-box", "ball-exact", "cube", "refute"])
    common(sp)

    sp = sub.add_parser("export-graph", help="DOT/adjacency export of a graph")
    sp.add_argument("--group")
    sp.add_argument("--radius", type=_at_least(0))
    sp.add_argument("--cube", type=_cube_dims, help="comma-separated positive dims, e.g. 4,3")
    sp.add_argument("--format", default="dot", choices=["dot", "adj"])
    common(sp)
    p.commands = sub.choices  # command name -> its parser, for main's dispatch
    return p


# glibc raises its mmap threshold to the largest block freed so far (up to
# 32 MiB).  Once a depth profile has freed its output text of a few MB, blocks
# of that size go to the brk heap, whose free holes stay resident, so the same
# command run again in one process peaks a few MB higher or lower depending on
# where earlier blocks landed.  Fixed thresholds give every block over
# _MMAP_THRESHOLD its own mapping, returned to the OS when freed, and trim the
# heap top past glibc's default of 128 KiB.  The threshold lies just above the
# largest int of the subset DPs (2**24 bits at DP_CAP of limits.CAPS, 2.2 MB),
# which stay on the heap, where a freed block is reused without page faults.
_MMAP_THRESHOLD = 3 << 20
_TRIM_THRESHOLD = 128 << 10
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of <malloc.h>


@functools.lru_cache(maxsize=None)
def _fix_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds, once per process.  False where
    the C library has no mallopt or refuses a value (not Linux, musl)."""
    if not sys.platform.startswith("linux"):
        return False
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process."""
    return build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser would parse it.  A named command's
    arguments go straight to that command's parser, which is where the
    top-level parser would hand them; what it leaves over is the top-level
    parser's error.  No arguments, -h and unknown names take the full parse."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    _fix_malloc_thresholds()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up by name on every call, so a replaced cmd_* takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_out_dir(args.out)
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`| head`); point stdout at the null
        # device so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
