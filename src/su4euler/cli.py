"""Command-line front end.

Subcommands: basis, volume, check, scan, rho.  Every command is
deterministic given its flags; the seed defaults to 0, never to the clock.
Angles accept pi-literal arithmetic such as pi/4 or acos(1/sqrt(3)) so the
tabulated interval endpoints can be entered exactly.

Exit statuses: 0 success, 1 unreadable input or output file, 2 usage
error, 3 input-validation failure, 130 interrupted (SIGINT), with nothing
on stderr.
"""

import argparse
import ast
import contextlib
import functools
import json
import math
import operator
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, haar
from .algebra import gell_mann, structure_constants
from .density import bloch_coefficients, conjugate, rho_full, spectrum_diagonal
from .errors import ValidationError, _shown
from .euler import compose_su4
from .haar import analytic_volume, group_volume
from .separability import corner_scan, is_entangled, scan

_ALLOWED_NAMES = {"pi": math.pi, "e": math.e, "tau": math.tau}
_ALLOWED_FUNCS = {
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
# math.pow, unlike **, raises on a complex result such as (-1)**0.5.
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.Pow: math.pow}


def _eval_expr(node, text):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):  # not bool
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _ALLOWED_NAMES:
        return _ALLOWED_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_expr(node.operand, text))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _math_call(_BINARY_OPS[type(node.op)], _eval_expr(node.left, text),
                          _eval_expr(node.right, text))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_FUNCS and not node.keywords
            and len(node.args) == 1):
        return _math_call(_ALLOWED_FUNCS[node.func.id],
                          _eval_expr(node.args[0], text))
    raise ValueError(f"unsupported angle expression: {_shown(text)}")


def _math_call(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # math domain error: acos(2), (-1)**0.5
        raise ArithmeticError(exc) from exc


def parse_angle(text: str) -> float:
    """Evaluate a pi-literal arithmetic expression to a float."""
    try:
        return _eval_expr(ast.parse(text.strip(), mode="eval").body, text)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse angle expression {_shown(text)}") from exc
    except ArithmeticError as exc:  # 1/0, 9**9**9, acos(2), an int too large
        raise ValueError(
            f"cannot evaluate angle expression {_shown(text)}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:  # thousands of nested operators
        raise ValueError(f"angle expression nested too deeply: {_shown(text)}") from exc


def parse_angle_list(text: str, allowed_counts) -> list:
    """The comma-separated angles of text; an empty entry, such as that of
    ",," or a trailing comma, is an error naming its position."""
    parts = text.split(",")
    for position, part in enumerate(parts, 1):
        if not part.strip():
            raise ValueError(f"angle {position} of {len(parts)} is empty")
    values = [parse_angle(part) for part in parts]
    if len(values) not in allowed_counts:
        raise ValueError(
            f"expected {' or '.join(map(str, allowed_counts))} angles, got {len(values)}"
        )
    return values


def load_matrix_file(path: str) -> np.ndarray:
    """Read a 4x4 complex matrix: 4 rows of 8 reals, re/im interleaved.

    Content that is not such a table is a ValidationError naming the file;
    a file that cannot be opened stays an OSError.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file with no data; make it an error.
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(path, ndmin=2)
        found = None if data.shape == (4, 8) else "{} rows of {}".format(*data.shape)
    except UserWarning:
        found = "no data"
    except ValueError:
        found = "rows of unequal length or a non-numeric entry"
    if found:
        raise ValidationError(
            f"matrix file {path!r} needs 4 rows of 8 reals, got {found}")
    # Interleaved re/im is complex128's layout: a view, with no arithmetic
    # on an inf entry before validate_density_matrix names it.
    return data.view(complex)


def _dump(body: dict) -> str:
    def default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, complex):
            return [value.real, value.imag]
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    return json.dumps(body, sort_keys=True, indent=2, default=default)


def _emit_envelope(command, config, payload, timing_started=None):
    envelope = {
        "command": command,
        "config": config,
        "payload": payload,
        "version": __version__,
    }
    if timing_started is not None:
        envelope["elapsed_seconds"] = time.perf_counter() - timing_started
    print(_dump(envelope))


def _rho_from_args(args) -> tuple:
    """Build (rho, theta) from --alpha/--theta flags."""
    alphas = parse_angle_list(args.alpha, (12, 15))
    thetas = parse_angle_list(args.theta, (3,))
    if len(alphas) == 15:
        rho = conjugate(compose_su4(alphas), thetas)
    else:
        rho = rho_full(alphas, thetas)
    return rho, thetas


def cmd_basis(args) -> int:
    if args.structure:
        if args.index is not None:
            print("basis: --structure prints the whole table; it takes no --index",
                  file=sys.stderr)
            return 2
        f = structure_constants()
        for i in range(1, 16):
            for j in range(1, 16):
                for k in range(1, 16):
                    val = f[i - 1, j - 1, k - 1]
                    if abs(val) > 1e-13:
                        print(f"f({i},{j},{k}) = {val:.17g}")
        return 0
    indices = [args.index] if args.index is not None else list(range(1, 16))
    for idx in indices:
        lam = gell_mann(idx)
        print(f"lambda_{idx}:")
        for row in lam:
            print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return 0


def cmd_volume(args) -> int:
    unread = ("samples", "seed") if args.method == "quad" else ("nodes",)
    given = [f"--{flag}" for flag in unread if getattr(args, flag) is not None]
    if given:
        print(f"volume: --method {args.method} takes no {' or '.join(given)}",
              file=sys.stderr)
        return 2
    started = time.perf_counter() if args.timing else None
    config = {"group": args.group, "method": args.method}
    if args.method == "quad":
        config["resolution"] = 64 if args.nodes is None else args.nodes
        result = group_volume(args.group, "quadrature", config["resolution"])
    else:
        text = "100000" if args.samples is None else args.samples
        try:
            samples = float(text)
        except ValueError:
            raise ValueError("Monte Carlo sample count must be a number such as 1e6, "
                             f"got {_shown(text)}") from None
        if not math.isfinite(samples):
            raise ValueError(f"Monte Carlo sample count must be finite, got {_shown(text)}")
        # group_volume rejects a count with a fractional part, such as 2500.5.
        config["resolution"] = int(samples) if samples.is_integer() else samples
        config["seed"] = 0 if args.seed is None else args.seed
        result = group_volume(args.group, "monte_carlo", config["resolution"],
                              seed=config["seed"])
    target = analytic_volume(args.group)
    payload = {
        "estimate": result.estimate,
        "analytic": target,
        "relative_error": abs(result.estimate - target) / target,
        "standard_error": result.standard_error,
        "normalization": result.normalization,
        "samples_or_nodes": result.samples_or_nodes,
        "method": result.method,
    }
    _emit_envelope("volume", config, payload, started)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter() if args.timing else None
    if args.matrix is not None and args.alpha is None and args.theta is None:
        rho = load_matrix_file(args.matrix)
        config = {"matrix": args.matrix}
    elif args.matrix is None and args.alpha and args.theta:
        rho, _ = _rho_from_args(args)
        config = {"alpha": args.alpha, "theta": args.theta}
    else:
        print("check: provide --matrix FILE or both --alpha and --theta, not both",
              file=sys.stderr)
        return 2
    verdict = is_entangled(rho)
    payload = {
        "d": verdict.d_value,
        "min_eigenvalue": verdict.min_eigenvalue,
        "negative_count": verdict.negative_count,
        "verdict": "entangled" if verdict.entangled else "separable",
        "boundary": verdict.boundary,
    }
    _emit_envelope("check", config, payload, started)
    return 0


_SCAN_HEADER = (
    ["sample_index"]
    + [f"alpha{i}" for i in range(1, 13)]
    + ["theta1", "theta2", "theta3", "d", "min_eig", "neg_count", "verdict",
       "boundary"]
)


# A row as the formatter builds it: its twelve alpha texts are one block,
# which sorts as "alphas".
_ALPHA_KEYS = _SCAN_HEADER[1:13]
_ROW = [_SCAN_HEADER[0], "alphas", *_SCAN_HEADER[13:]]

# A record as json.dumps(..., sort_keys=True, indent=2) prints it inside
# "records": keys sorted, every value a string.  The twelve alpha keys sort
# first (alpha1, alpha10, alpha11, alpha12, alpha2, ..., alpha9), so the
# alpha block is one run of fields here too.  A chunk is a list of pieces,
# each record's literals and fields in turn, joined once.
_JSON_KEY = '",\n      "{}": "'  # ends one value and opens the next key's
_JSON_ALPHAS = sorted(range(12), key=_ALPHA_KEYS.__getitem__)
_JSON_BLOCK = "%s" + "".join(_JSON_KEY.format(_ALPHA_KEYS[i]) + "%s"
                             for i in _JSON_ALPHAS[1:])
_JSON_ORDER = sorted(range(len(_ROW)), key=_ROW.__getitem__)  # the block first
_JSON_OPEN = '    {\n      "alpha1": "'
_JSON_CLOSE = '"\n    }'
# One record's pieces after the first record, None where a field goes.
_JSON_PIECES = [_JSON_CLOSE + ",\n" + _JSON_OPEN, None] + [
    piece for i in _JSON_ORDER[1:] for piece in (_JSON_KEY.format(_ROW[i]), None)]


def _float_texts(column: np.ndarray) -> list:
    """repr() of each float of a 1-D float64 column, in order.

    Each distinct value is formatted once and its text indexed back: a
    corner scan's angle columns hold two values each, and repr costs ~1 µs
    a float.  Distinct means distinct bits, so the column is viewed as
    int64: -0.0 == 0.0, and deduping on the values would print one sign for
    both zeros.  A column with no repeat, as a random scan's are, skips the
    dedupe: one sort of the bits tells, and it costs less than the unique,
    its inverse and the index-back would.
    """
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    if not (ordered[1:] == ordered[:-1]).any():
        return list(map(repr, column.tolist()))
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _chunk_formatter(fmt: str):
    """A function from one classified chunk to (text, (total, entangled,
    boundary)): its records joined by the format's separator, and its three
    tallies.  Numbers print as repr() of Python floats.

    Each row's twelve alpha texts form one block, formatted once and kept
    while the chunks pass the same alphas array, as the corner chunks do;
    it holds one chunk's rows.
    """
    if fmt == "csv":
        alpha_order, block_of = range(12), ",".join
    else:
        alpha_order, block_of = _JSON_ALPHAS, _JSON_BLOCK.__mod__
    kept, block = None, None

    def chunk_text(chunk):
        nonlocal kept, block
        start, alphas, thetas, c = chunk
        if alphas is not kept:
            kept = block = None  # the old block goes before the new one is built
            columns = [_float_texts(alphas[:, i]) for i in alpha_order]
            kept, block = alphas, list(map(block_of, zip(*columns)))
        floats = np.column_stack((thetas, c.d, c.min_eig)).T
        columns = ([map(str, range(start, start + len(alphas))), block]
                   + [_float_texts(col) for col in floats]
                   + [map(str, c.neg_count.tolist()),
                      np.where(c.entangled, "entangled", "separable").tolist(),
                      np.where(c.boundary, "1", "0").tolist()])
        if fmt == "csv":
            text = "\n".join(map(",".join, zip(*columns)))
        else:
            width = len(_JSON_PIECES)
            pieces = _JSON_PIECES * len(alphas)
            for j, i in enumerate(_JSON_ORDER):
                pieces[2 * j + 1::width] = columns[i]
            pieces[0] = _JSON_OPEN
            pieces.append(_JSON_CLOSE)
            text = "".join(pieces)
        return text, (len(alphas), np.count_nonzero(c.entangled),
                      np.count_nonzero(c.boundary))

    return chunk_text


def _scan_pieces(fmt: str, config: dict, texts):
    """Scan output text: the head, then each chunk's text from a
    _chunk_formatter in sample order, then the tail with the summary of
    their tallies.

    The JSON bytes equal json.dumps(sort_keys=True, indent=2) of the whole
    document.
    """
    if fmt == "csv":
        head, sep = ",".join(_SCAN_HEADER) + "\n", "\n"
    else:
        # The head and the tail are dumped as documents of their own, less
        # the closing "\n}" and the opening "{\n" that join them.
        head = _dump({"command": "scan", "config": config})[:-2]
        head, sep = head + ',\n  "records": [\n', ",\n"
    tally = np.zeros(3, dtype=int)  # total, entangled, boundary
    for text, counts in texts:
        yield head
        yield text
        head = sep
        tally += counts
    total, entangled, boundary = tally.tolist()
    summary = {"total": total, "entangled": entangled, "boundary": boundary,
               "separable": total - entangled - boundary}
    if fmt == "csv":
        yield ("\n# summary separable={separable} entangled={entangled} "
               "boundary={boundary} total={total}\n".format(**summary))
    else:
        yield "\n  ],\n" + _dump({"summary": summary, "version": __version__})[2:] + "\n"


@contextlib.contextmanager
def _with_worker(own, theirs, count):
    """Yield the count chunk texts of a scan in sample order: own's for the
    even chunks, and for the odd ones what theirs() yields on a forked
    worker process.

    The parent formats its chunk before it reads the worker's, and the
    pipe's backpressure keeps the worker at most one chunk ahead.  An
    exception in the worker is pickled through the pipe and raised here.
    On leaving the block, by any path, the worker is killed if it still
    runs and is reaped; a worker whose parent has gone ends on its next
    write.
    """
    import pickle
    import signal

    # A bare fork, not multiprocessing: a spawned worker would import numpy
    # and this package again, which takes longer than formatting a chunk.
    # The caller forks before the first chunk is classified.
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The worker never returns into the caller's stack: it ends through
        # os._exit whatever happens, flushing none of the parent's buffers.
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                try:
                    for item in theirs():
                        pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                except Exception as exc:
                    pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            def received():
                try:
                    item = pickle.load(pipe)
                except EOFError:
                    raise ChildProcessError("scan worker process ended early") from None
                if isinstance(item, BaseException):
                    raise item
                return item

            yield (next(own) if index % 2 == 0 else received()
                   for index in range(count))
    finally:
        os.kill(pid, signal.SIGKILL)  # a worker that sent its last chunk has no more to do
        os.waitpid(pid, 0)


def cmd_scan(args) -> int:
    if args.corners:
        if args.samples is not None or args.seed is not None:
            print("scan: --corners scans the fixed 2^15 corners; it takes "
                  "no --samples or --seed", file=sys.stderr)
            return 2
        run, count = corner_scan, 8  # one chunk per spectrum corner
        config = {"mode": "corners"}
    else:
        samples = 1000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        run = functools.partial(scan, samples, seed=seed)
        count = -(-samples // haar.CHUNK)  # no len(): a count past 2**63 overflows it
        config = {"mode": "random", "samples": samples, "seed": seed}

    def texts(part):
        # run is called here, not on the first chunk: it checks the arguments.
        return map(_chunk_formatter(args.format), run(part=part))

    # Two processes take alternate chunks when there are two chunks and two
    # CPUs; the bytes are the same either way.
    split = count > 1 and hasattr(os, "fork") and haar._available_cpus() > 1
    own = texts((0, 2) if split else (0, 1))
    with contextlib.ExitStack() as stack:
        out = (stack.enter_context(open(args.output, "w", encoding="utf-8", newline="\n"))
               if args.output else sys.stdout)
        if split:
            own = stack.enter_context(_with_worker(own, lambda: texts((1, 2)), count))
        out.writelines(_scan_pieces(args.format, config, own))
    return 0


def cmd_rho(args) -> int:
    started = time.perf_counter() if args.timing else None
    rho, thetas = _rho_from_args(args)
    coeffs = bloch_coefficients(thetas)
    payload = {
        "rho": rho,
        "eigenvalues": np.linalg.eigvalsh(rho),
        "spectrum": spectrum_diagonal(thetas),
        "bloch": {"w0": coeffs.w0, "w3": coeffs.w3, "w8": coeffs.w8,
                  "w15": coeffs.w15},
    }
    config = {"alpha": args.alpha, "theta": args.theta}
    _emit_envelope("rho", config, payload, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su4euler",
        description="SU(4) Euler angles: basis inspection, group volumes, "
                    "density matrices, and partial-transpose checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="print generators or structure constants")
    p_basis.add_argument("--index", type=int, default=None,
                         help="generator index 1..15 (default: all)")
    p_basis.add_argument("--structure", action="store_true",
                         help="print the nonzero structure constants instead")
    p_basis.set_defaults(func=cmd_basis)

    p_vol = sub.add_parser("volume", help="group volume by quadrature or Monte Carlo")
    p_vol.add_argument("--group", choices=["su2", "su3", "su4"], required=True)
    p_vol.add_argument("--method", choices=["quad", "mc"], default="quad")
    # None marks a flag not given: a method rejects the flags it does not read.
    p_vol.add_argument("--nodes", type=int, default=None,
                       help="quadrature nodes per nontrivial axis (default: 64)")
    p_vol.add_argument("--samples", default=None,
                       help="Monte Carlo sample count such as 1e6 (default: 100000)")
    p_vol.add_argument("--seed", type=int, default=None,
                       help="Monte Carlo seed (default: 0)")
    p_vol.add_argument("--timing", action="store_true",
                       help="include elapsed time (breaks byte-identical output)")
    p_vol.set_defaults(func=cmd_volume)

    p_check = sub.add_parser("check", help="separability verdict for one state")
    p_check.add_argument("--alpha", help="12 or 15 comma-separated angles")
    p_check.add_argument("--theta", help="3 comma-separated spectrum angles")
    p_check.add_argument("--matrix", help="path to a 4x8 re/im matrix file")
    p_check.add_argument("--timing", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="bulk classification scan")
    # None marks a flag not given: --corners rejects both, a random scan
    # reads 1000 and 0.
    p_scan.add_argument("--samples", type=int, default=None,
                        help="random states to scan (default: 1000)")
    p_scan.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: 0)")
    p_scan.add_argument("--corners", action="store_true",
                        help="exhaustive 2^15 min/max corner scan")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--output", default=None,
                        help="output path (default: stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_rho = sub.add_parser("rho", help="print a density matrix and its spectrum")
    p_rho.add_argument("--alpha", required=True)
    p_rho.add_argument("--theta", required=True)
    p_rho.add_argument("--timing", action="store_true")
    p_rho.set_defaults(func=cmd_rho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except KeyboardInterrupt:
        # Ctrl-C: the worker of a split scan is already reaped; end with
        # the shell's status for SIGINT and no traceback.
        return 130
    except BrokenPipeError:
        # The reader closed stdout (`su4euler scan | head`): end quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 2
