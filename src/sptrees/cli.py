"""Command-line surface.

Subcommands: parse, count, enumerate, verify, random, code.  Input
files hold one SP expression per line ('#' comments), or an edge list
starting with a 'terminals s t' line.  Exit codes: 0 success, 1 usage
error, 2 invalid input (any ValueError or OSError, and an instance above
the oracle's limit), 3 verification failure, 4 internal error: any other
exception, such as a broken internal invariant (`ImageNotFound` too,
though a ValueError), an input too deep for the recursion limit, or
running out of memory, reported in one line with no traceback.  A reader
that closes the output early, as `| head` does, ends the run quietly
with exit 0.  The commands pass each parsed tree to the library as it
is; each library function reads it as the kind of graph it names.
Input, counts, codes, orbit indexing, unranking and the reversal actions
accept any depth or width; only enumeration lists still recurse.
`enumerate` writes each instance's first line from one `unrank`, before
any list is built, so the first line of an instance too deep for the
lists is written before the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain, compress, count, cycle, islice, repeat, starmap

from .canonical import canonical_code, mirror_pairing, reversal_code
from .core import Node, underlying_graph
from .expr import RandomSpParams, random_sp, read_instances, serialize_sp
from .generate import ImageNotFound, _plans, _streams, _unrank, count_oriented, count_total
from .oracle import (
    DEFAULT_LIMIT,
    FixSet,
    LimitExceeded,
    _check_limit,
    _forests,
    _least_images,
    _lesser,
    automorphisms,
    kirchhoff_count,
)
from .semi import _selectors, count_semioriented

# Most lines `enumerate` joins into one write.
_CHUNK = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _ByteTable(dict):
    """The text each value of one byte of a mask selects.

    `tokens` holds the byte's eight tokens, each with its leading
    separator, the first for the most significant bit; entry b joins the
    tokens of b's set bits in that order.  An entry is built on its first
    lookup, so a table holds only the bytes that occur."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: list[str]):
        super().__init__()
        self.tokens = tokens

    def __missing__(self, byte: int) -> str:
        entry = self[byte] = "".join([t for i, t in enumerate(self.tokens) if byte << i & 128])
        return entry


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="sptrees", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="echo normalized expressions")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("count", help="count nonequivalent trees")
    p.add_argument("file")
    p.add_argument("--mode", choices=("oriented", "semioriented", "total"), required=True)
    p.add_argument("--near", action="store_true")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="list nonequivalent trees")
    p.add_argument("file")
    p.add_argument("--mode", choices=("oriented", "semioriented"), required=True)
    p.add_argument("--near", action="store_true")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="compare fast paths against the oracle")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("random", help="emit a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--children", type=int, default=3)
    p.add_argument("--leaf-bias", type=float, default=0.4)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("code", help="print canonical and reversal codes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_code)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "near", False) and args.mode == "semioriented":
            raise _UsageError("--near is not supported with --mode semioriented")
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"refusing oracle run: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # an OSError, but no input error: `main` ends the run quietly
    except ImageNotFound as exc:  # a ValueError, but a broken invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 4
    except Exception as exc:  # RecursionError and every other broken invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)


def _load(path: str) -> list[Node]:
    with open(path, encoding="utf-8") as handle:
        trees = read_instances(handle.read())
    if not trees:
        raise ValueError(f"{path}: no instances found")
    return trees


def _cmd_parse(args) -> int:
    for tree in _load(args.file):
        print(serialize_sp(tree))
    return 0


def _decimal(n: int) -> str:
    """`str(n)` in full, however many digits: Python 3.11 and later refuse
    more than `sys.get_int_max_str_digits()` unless the limit is lifted,
    here only for this one conversion."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_count(args) -> int:
    for tree in _load(args.file):
        if args.mode == "semioriented":
            print(_decimal(count_semioriented(tree)))
        else:
            counter = count_oriented if args.mode == "oriented" else count_total
            pair = counter(tree)
            print(_decimal(pair.near if args.near else pair.spanning))
    return 0


def _cmd_enumerate(args) -> int:
    """One line per tree; a record equals `json.dumps(record, sort_keys=True)`.

    The masks number the edges by descending token, so that `_lines` meets
    the printed tokens already sorted as it reads each mask byte by byte
    through per-position byte tables, each built as its bytes occur and
    never above 256 entries.  Line 0 is one `generate._unrank` over the
    plan program, so it is written before any enumeration list exists;
    the other lines follow through the same `_lines` pipeline, from the
    lists `_rest` builds on its first pull.  Lines go out in chunks of 1,
    2, 4, ... up to `_CHUNK` lines, so the first line is not held back."""
    write = sys.stdout.write
    for tree in _load(args.file):
        tokens = [f"{u}-{v}" for u, v in underlying_graph(tree).edges]
        if args.format == "records":
            tokens = list(map(json.dumps, tokens))
        by_bit = sorted(range(len(tokens)), key=tokens.__getitem__, reverse=True)
        numbering = sorted(range(len(tokens)), key=by_bit.__getitem__)
        tokens.sort()
        # The first index the reversal filter keeps, its selectors read up
        # to it; the lists are built when line 1 is pulled (`_rest`).
        keep = _selectors(tree) if args.mode == "semioriented" else None
        first = 0 if keep is None else next(compress(count(), keep))
        line0 = _unrank(_plans(tree), first, args.near, numbering)
        rest = starmap(_rest, [(tree, args.near, numbering, first, keep)])
        masks = chain.from_iterable(chain([(line0,)], rest))
        if args.format == "text":
            lines = _lines(tokens, masks, ",")
        else:
            kind = "near" if args.near else "spanning"
            tail = f', "kind": "{kind}", "mode": "{args.mode}"}}'
            parts = zip(repeat('{"edges": ['), _lines(tokens, masks, ", "),
                        repeat('], "index": '), map(str, count()), repeat(tail))
            lines = map("".join, parts)
        size = 1
        while chunk := list(islice(lines, size)):
            chunk.append("")  # the last line's newline, with no copy of the chunk
            write("\n".join(chunk))
            size = min(2 * size, _CHUNK)
    return 0


def _rest(tree: Node, near: bool, numbering, first: int, keep):
    """The masks after index `first` of the tree's near (or spanning)
    stream, through the filter's selectors `keep` (already read past
    `first`), if any.  The stream itself is read past `first` here, so
    that no iterator is layered over it."""
    stream = _streams(tree, near, numbering=numbering)[0]
    next(islice(stream, first, None))
    return stream if keep is None else compress(stream, keep)


def _lines(tokens: list[str], masks, sep: str):
    """Per mask, `sep` joining the tokens its bits select, bit m-1-j
    selecting tokens[j], first to last.

    A mask's k = ceil(m/8) bytes, most significant first, are looked up
    each in its position's `_ByteTable`, and a line is its k entries joined
    with the one leading separator dropped: k lookups and the line's own
    bytes, all by C-level maps with no Python step per tree.  A table
    builds only the entries of bytes that occur, so at most 256 each."""
    k = -(-len(tokens) // 8)
    padded = [""] * (8 * k - len(tokens)) + [sep + t for t in tokens]
    tables = [_ByteTable(padded[i : i + 8]) for i in range(0, 8 * k, 8)]
    # The masks' bytes in one stream, looked up in the tables in turn and
    # joined k entries at a time (k references to one iterator).
    stream = chain.from_iterable(map(int.to_bytes, masks, repeat(k), repeat("big")))
    entries = map(dict.__getitem__, cycle(tables), stream)
    return map(str.removeprefix, map("".join, zip(*[entries] * k)), repeat(sep))


def _cmd_random(args) -> int:
    params = RandomSpParams(
        seed=args.seed,
        max_depth=args.depth,
        max_children=args.children,
        leaf_bias=args.leaf_bias,
    )
    print(serialize_sp(random_sp(params)))
    return 0


def _cmd_code(args) -> int:
    for tree in _load(args.file):
        print(f"{canonical_code(tree)} {reversal_code(tree)}")
    return 0


def verify_instance(tree: Node, limit: int = DEFAULT_LIMIT) -> tuple[bool, str]:
    """Run every fast-versus-oracle agreement check on one instance.

    Returns (ok, summary); raises LimitExceeded instead of degrading
    when the instance is too large for the oracle.  Every list is a list
    of int masks, each built once: the oracle's spanning and near trees
    straight from its forest walk (`oracle._forests`), the fast ones from
    `_fast_masks`.  Aut_semi is split once, into Aut_or, its members that
    fix s, and the rest, and the image fold (`oracle._least_images`) runs
    over each part: over Aut_or it keys the spanning and the near trees,
    over the rest the spanning trees alone, and the two spanning keys meet
    in the keys under Aut_semi.  So each element but the identity builds
    its tables once and maps the spanning trees, and the near trees too if
    it is in Aut_or.
    """
    graph = underlying_graph(tree)
    s, t = tree.source, tree.target
    failures = []

    tau = count_total(tree).spanning
    _check_limit(graph, limit)
    masks = list(_forests(graph))
    kirchhoff = kirchhoff_count(graph)
    if not tau == kirchhoff == len(masks):
        failures.append(
            f"total mismatch: recurrence={tau} kirchhoff={kirchhoff} "
            f"brute={len(masks)}"
        )

    # A symmetry that keeps {s, t} and fixes s also fixes t; the rest swap them.
    aut_semi = automorphisms(graph, FixSet(s, t), limit=limit)
    aut_or = [sigma for sigma in aut_semi if sigma[s] == s]
    swaps = [sigma for sigma in aut_semi if sigma[s] != s]

    # The near trees are the spanning trees of G with s and t merged.
    near_masks = list(_forests(graph, (s, t)))
    keys_or, fixed_or, near_keys = _least_images(graph, aut_or, masks, near_masks)
    keys_swap, fixed_swap = _least_images(graph, swaps, masks)
    keys_semi, fixed = _lesser(keys_or, keys_swap), fixed_or + fixed_swap

    counts = count_oriented(tree)
    fast_sp, fast_nt, fast_semi = _fast_masks(tree)
    failures.extend(
        _orbit_agreement("oriented spanning", fast_sp, masks, keys_or, counts.spanning)
    )
    failures.extend(
        _orbit_agreement("oriented near", fast_nt, near_masks, near_keys, counts.near)
    )

    semi_count = count_semioriented(tree)
    failures.extend(
        _orbit_agreement("semioriented spanning", fast_semi, masks, keys_semi, semi_count)
    )
    # Burnside: the fixed points number |Aut_semi| per orbit.  A total the
    # group order does not divide means `automorphisms` gave no group.
    if fixed != len(aut_semi) * len(set(keys_semi)):
        failures.append("Burnside count disagrees with the orbit partition")

    exchange_exists = len(aut_semi) == 2 * len(aut_or)
    pairing = mirror_pairing(tree)
    if exchange_exists != (pairing is not None):
        failures.append(
            f"mirror pairing {'found' if pairing else 'missing'} but "
            f"|Aut_semi|={len(aut_semi)}, |Aut_or|={len(aut_or)}"
        )

    summary = (
        f"total={tau} oriented={len(fast_sp)} near={len(fast_nt)} "
        f"semi={len(fast_semi)} aut_or={len(aut_or)} aut_semi={len(aut_semi)}"
    )
    if failures:
        return False, f"{summary}; " + "; ".join(failures)
    return True, summary


def _fast_masks(tree: Node) -> tuple[list[int], list[int], list[int]]:
    """The fast oriented spanning, oriented near and semioriented spanning
    masks, each list built once: the first two from one pass over the root's
    part lists, the third the first through the reversal filter's selectors
    (`semi._selectors`), so that no oriented list is built twice."""
    keep = _selectors(tree)
    spanning, near = map(list, _streams(tree, False, True))
    return spanning, near, spanning if keep is None else list(compress(spanning, keep))


def _orbit_agreement(
    label: str, fast: list[int], masks: list[int], keys: list[int], expected_count: int
) -> list[str]:
    """Failures unless the masks `fast` hold exactly one tree of each orbit,
    where the oracle trees `masks` share an orbit when their `keys` agree."""
    orbit_count = len(set(keys))
    if not len(fast) == orbit_count == expected_count:
        return [f"{label}: fast={len(fast)} orbits={orbit_count} count={expected_count}"]
    key_of = dict(zip(masks, keys))
    hit = set()
    for mask in fast:
        key = key_of.get(mask)
        if key is None:
            return [f"{label}: emitted set is not a valid oracle tree"]
        if key in hit:
            return [f"{label}: two emitted trees share an orbit"]
        hit.add(key)
    return []


def _cmd_verify(args) -> int:
    any_fail = False
    for tree in _load(args.file):
        ok, summary = verify_instance(tree, limit=args.limit)
        print(f"{'PASS' if ok else 'FAIL'} ({summary})")
        if not ok:
            any_fail = True
    return 3 if any_fail else 0


if __name__ == "__main__":
    main()
