"""Command-line front end.

Subcommands: basis, volume, check, scan, rho.  Every command is
deterministic given its flags; the seed defaults to 0, never to the clock.
Angles accept pi-literal arithmetic such as pi/4 or acos(1/sqrt(3)) so the
tabulated interval endpoints can be entered exactly.

Exit statuses: 0 success, 1 unreadable input or output file, 2 usage
error, 3 input-validation failure, 4 internal consistency error.
"""

import argparse
import ast
import json
import math
import operator
import sys
import time
import warnings

import numpy as np

from . import __version__
from .algebra import gell_mann, structure_constants
from .density import bloch_coefficients, conjugate, rho_full, spectrum_diagonal
from .errors import ConsistencyError, ValidationError
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
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
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


def _shown(text: str) -> str:
    """repr of an input for an error message, cut to 60 characters."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}… ({len(text)} chars)"


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
    values = [parse_angle(part) for part in text.split(",") if part.strip()]
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
    return data[:, 0::2] + 1j * data[:, 1::2]


def _dump(body: dict) -> str:
    def default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, complex):
            return [value.real, value.imag]
        if isinstance(value, (np.bool_, np.integer)):
            return value.item()
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
    """Build (rho, theta, alphas) from --alpha/--theta flags."""
    alphas = parse_angle_list(args.alpha, (12, 15))
    thetas = parse_angle_list(args.theta, (3,))
    if len(alphas) == 15:
        rho = conjugate(compose_su4(alphas), thetas)
    else:
        rho = rho_full(alphas, thetas)
    return rho, thetas, alphas


def cmd_basis(args) -> int:
    if args.structure:
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
    started = time.perf_counter() if args.timing else None
    method = {"quad": "quadrature", "mc": "monte_carlo"}[args.method]
    if method == "quadrature":
        resolution = args.nodes
    else:
        samples = float(args.samples)
        if not math.isfinite(samples):
            raise ValueError(
                f"Monte Carlo sample count must be finite, got {args.samples!r}")
        # group_volume rejects a count with a fractional part, such as 2500.5.
        resolution = int(samples) if samples.is_integer() else samples
    result = group_volume(args.group, method, resolution, seed=args.seed)
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
    config = {"group": args.group, "method": args.method,
              "resolution": resolution, "seed": args.seed}
    _emit_envelope("volume", config, payload, started)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter() if args.timing else None
    if args.matrix is not None and args.alpha is None and args.theta is None:
        rho = load_matrix_file(args.matrix)
        config = {"matrix": args.matrix, "tolerance": args.tolerance,
                  "subsystem": args.subsystem}
    elif args.matrix is None and args.alpha and args.theta:
        rho, _, _ = _rho_from_args(args)
        config = {"alpha": args.alpha, "theta": args.theta,
                  "tolerance": args.tolerance, "subsystem": args.subsystem}
    else:
        print("check: provide --matrix FILE or both --alpha and --theta, not both",
              file=sys.stderr)
        return 2
    verdict = is_entangled(rho, args.tolerance, args.subsystem)
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


# A record as json.dumps(..., sort_keys=True, indent=2) prints it inside
# "records": keys sorted, every value a string.
_JSON_ORDER = sorted(range(len(_SCAN_HEADER)), key=_SCAN_HEADER.__getitem__)
_JSON_RECORD = ("    {\n"
                + ",\n".join(f'      "{_SCAN_HEADER[i]}": "%s"' for i in _JSON_ORDER)
                + "\n    }")


def _scan_pieces(fmt: str, config: dict, chunks):
    """Scan output text: one piece per classified chunk, then the tail.

    Numbers print as repr() of Python floats.  The JSON bytes equal
    json.dumps(sort_keys=True, indent=2) of the whole document.
    """
    if fmt == "csv":
        head, sep = ",".join(_SCAN_HEADER) + "\n", "\n"
        order, row = range(len(_SCAN_HEADER)), ",".join
    else:
        # The head and the tail are dumped as documents of their own, less
        # the closing "\n}" and the opening "{\n" that join them.
        head = _dump({"command": "scan", "config": config})[:-2]
        head, sep = head + ',\n  "records": [\n', ",\n"
        order, row = _JSON_ORDER, _JSON_RECORD.__mod__
    tally = np.zeros(3, dtype=int)  # total, entangled, boundary
    for start, alphas, thetas, c in chunks:
        floats = np.column_stack((alphas, thetas, c.d, c.min_eig)).T.tolist()
        columns = ([map(str, range(start, start + len(alphas)))]
                   + [map(repr, col) for col in floats]
                   + [map(str, c.neg_count.tolist()),
                      np.where(c.entangled, "entangled", "separable").tolist(),
                      np.where(c.boundary, "1", "0").tolist()])
        yield head + sep.join(map(row, zip(*(columns[i] for i in order))))
        head = sep
        tally += len(alphas), np.count_nonzero(c.entangled), np.count_nonzero(c.boundary)
    total, entangled, boundary = tally.tolist()
    summary = {"total": total, "entangled": entangled, "boundary": boundary,
               "separable": total - entangled - boundary}
    if fmt == "csv":
        yield ("\n# summary separable={separable} entangled={entangled} "
               "boundary={boundary} total={total}\n".format(**summary))
    else:
        yield "\n  ],\n" + _dump({"summary": summary, "version": __version__})[2:] + "\n"


def cmd_scan(args) -> int:
    if args.corners:
        chunks = corner_scan(args.tolerance)
        config = {"mode": "corners", "tolerance": args.tolerance}
    else:
        chunks = scan(args.samples, seed=args.seed, tolerance=args.tolerance)
        config = {"mode": "random", "samples": args.samples, "seed": args.seed,
                  "tolerance": args.tolerance}
    pieces = _scan_pieces(args.format, config, chunks)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def cmd_rho(args) -> int:
    started = time.perf_counter() if args.timing else None
    rho, thetas, alphas = _rho_from_args(args)
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
    p_vol.add_argument("--nodes", type=int, default=64,
                       help="quadrature nodes per nontrivial axis")
    p_vol.add_argument("--samples", default="100000",
                       help="Monte Carlo sample count (accepts 1e6 style)")
    p_vol.add_argument("--seed", type=int, default=0)
    p_vol.add_argument("--timing", action="store_true",
                       help="include elapsed time (breaks byte-identical output)")
    p_vol.set_defaults(func=cmd_volume)

    p_check = sub.add_parser("check", help="separability verdict for one state")
    p_check.add_argument("--alpha", help="12 or 15 comma-separated angles")
    p_check.add_argument("--theta", help="3 comma-separated spectrum angles")
    p_check.add_argument("--matrix", help="path to a 4x8 re/im matrix file")
    p_check.add_argument("--tolerance", type=float, default=1e-10)
    p_check.add_argument("--subsystem", choices=["A", "B"], default="B")
    p_check.add_argument("--timing", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="bulk classification scan")
    p_scan.add_argument("--samples", type=int, default=1000)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--tolerance", type=float, default=1e-10)
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
        return args.func(args)
    except ValidationError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"su4euler: internal consistency error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"su4euler: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
