"""One benchmark operation in a fresh interpreter, optionally traced.

    python child.py [--spans FILE] cli SU4EULER_ARGS...
    python child.py [--spans FILE] audit INPUTS.npz OUTPUTS.npz

``cli`` runs ``su4euler.cli.main`` on the arguments.  ``audit`` runs the
per-state library chain over the inputs made by ``checks.audit_inputs`` and
saves each state's results and latency for the parent to check.

With ``--spans`` every function in LAYERS is wrapped under each module
attribute that refers to it (``su4euler.separability.rho_full``,
``su4euler.cli.scan``, ...), so callers that imported the name reach the
wrapper.  Spans (name, start, end, parent) stay in memory and are saved
when the operation ends.  src/ is not edited.
"""

import sys
import time

import numpy as np

LAYERS = (
    ("algebra", "exp_generator"),
    ("euler", "compose"),
    ("haar", "sample_haar_angles"),
    ("haar", "group_volume"),
    ("haar", "one_form_matrix"),
    ("haar", "haar_density"),
    ("density", "rho_full"),
    ("density", "rho_diagonal"),
    ("density", "bloch_coefficients"),
    ("separability", "scan"),
    ("separability", "corner_scan"),
    ("separability", "is_entangled"),
    ("separability", "validate_density_matrix"),
    ("separability", "partial_transpose"),
    ("separability", "char_poly_coeffs"),
    ("separability", "depressed_quartic"),
    ("separability", "resolvent_roots"),
    ("separability", "eigenvalues_via_resolvent"),
    ("cli", "cmd_scan"),
    ("cli", "cmd_volume"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)
_MODULES = ("algebra", "euler", "haar", "density", "separability", "cli")


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.returned_none = []
        self._stack = [-1]

    def _wrap(self, name_id, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        returned_none, stack, clock = self.returned_none, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            returned_none.append(False)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            returned_none[span] = result is None
            return result

        return wrapper

    def install(self):
        import importlib
        modules = {m: importlib.import_module(f"su4euler.{m}") for m in _MODULES}
        namespaces = [importlib.import_module("su4euler"), *modules.values()]
        for name_id, (module, fname) in enumerate(LAYERS):
            original = getattr(modules[module], fname)
            wrapper = self._wrap(name_id, original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def save(self, path):
        np.savez(path, name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 returned_none=np.array(self.returned_none, dtype=bool))


def layer_totals(path) -> dict:
    """Per layer: calls, self seconds (span minus the time its child spans
    cover) and calls that returned something other than None."""
    with np.load(path) as spans:
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        returned = ~spans["returned_none"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    n = len(LAYERS)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=dur - covered, minlength=n)
    non_none = np.bincount(name, weights=returned, minlength=n)
    return {layer: (int(calls[i]), float(self_s[i]), int(non_none[i]))
            for i, layer in enumerate(LAYER_NAMES)}


def run_audit(in_path, out_path):
    """Closed loop over the states, timing each state's library calls."""
    import su4euler.density as density
    import su4euler.haar as haar
    import su4euler.separability as sep

    with np.load(in_path) as data:
        alphas, thetas, points = data["alphas"], data["thetas"], data["points"]
    n = len(alphas)
    latency = np.empty(n)
    entangled = np.empty(n, dtype=bool)
    boundary = np.empty(n, dtype=bool)
    d = np.empty(n)
    min_eig = np.empty(n)
    resolvent = np.full((n, 4), np.nan)
    bloch = np.empty((n, 4))
    one_form = np.empty((n, 15, 15))
    haar_density = np.empty(n)
    clock = time.perf_counter
    for i in range(n):
        t0 = clock()
        rho = density.rho_full(alphas[i], thetas[i])
        verdict = sep.is_entangled(rho)
        pt = sep.partial_transpose(rho)
        eigs = sep.eigenvalues_via_resolvent(
            sep.depressed_quartic(sep.char_poly_coeffs(pt)))
        coeffs = density.bloch_coefficients(thetas[i])
        form = haar.one_form_matrix(points[i])
        dens = haar.haar_density(points[i])
        latency[i] = clock() - t0
        entangled[i], boundary[i] = verdict.entangled, verdict.boundary
        d[i], min_eig[i] = verdict.d_value, verdict.min_eigenvalue
        if eigs is not None:
            resolvent[i] = eigs
        bloch[i] = (coeffs.w0, coeffs.w3, coeffs.w8, coeffs.w15)
        one_form[i] = form
        haar_density[i] = dens
    np.savez(out_path, latency=latency, entangled=entangled, boundary=boundary,
             d=d, min_eig=min_eig, resolvent=resolvent, bloch=bloch,
             one_form=one_form, haar_density=haar_density)
    return 0


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    if argv[0] == "cli":
        from su4euler.cli import main as cli_main
        status = cli_main(argv[1:])
    elif argv[0] == "audit":
        status = run_audit(argv[1], argv[2])
    else:
        print(f"child.py: unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    if spans_path is not None:
        tracer.save(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
