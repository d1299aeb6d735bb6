"""In-memory span tracing of the package's public functions.

``Tracer.install`` rebinds each traced function, in every ``atomlat``
module namespace that holds it, to a wrapper that records a span: name,
start, end, the index of the enclosing span, and a few counters taken from
the arguments and result. Nothing under ``src/`` changes; ``uninstall``
restores the originals. Spans stay in a list until the run ends.
"""

from __future__ import annotations

import sys
import time

# Layer (package module) -> traced public functions.
TRACED = {
    "crossing": ("full_crossing",),
    "model": ("reduce", "new_model", "holds", "enumerate_theory",
              "enumerate_elements", "segment_signatures"),
    "oracle": ("closure_oracle", "axiom_check"),
    "algebra": ("join", "quotient", "subalgebra", "product", "rename", "restrict",
                "subdirect_decomposition", "embed_in_free"),
    "script": ("parse_script", "run_script"),
    "serialize": ("model_to_json", "model_from_json", "model_to_dot"),
    "cli": ("main",),
}

NAME, START, END, PARENT, NESTED, EXTRA = range(6)


def _crossing_extra(args, kwargs, result):
    model, r = args
    left, right = r.left.mask, r.right.mask
    disc = below = 0
    for atom in model.atoms:
        if atom.mask & right:
            below += 1
        elif atom.mask & left:
            disc += 1
    return {"noop": result is model, "grid": disc * below, "atoms_out": len(result.atoms)}


EXTRAS = {
    "crossing.full_crossing": _crossing_extra,
    "model.reduce": lambda a, k, r: {"atoms_in": len(a[0].atoms), "atoms_out": len(r.atoms)},
    "oracle.closure_oracle": lambda a, k, r: {"pairs_out": len(r)},
    "serialize.model_to_json": lambda a, k, r: {"bytes_out": len(r.encode())},
    "serialize.model_to_dot": lambda a, k, r: {"bytes_out": len(r.encode())},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_ends = []
        self._stack = []
        self._active = {}
        self._bindings = []

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        extra_of = EXTRAS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active.get(name, 0) > 0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            active[name] = active.get(name, 0) + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                active[name] -= 1
                stack.pop()
            if extra_of is not None:
                span[EXTRA] = extra_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function in all loaded ``atomlat`` modules.

        The rebindings are found on the first call and reused after, so
        installing around every single job stays cheap.
        """
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)

    def _find_bindings(self):
        modules = [m for n, m in sys.modules.items() if n == "atomlat" or n.startswith("atomlat.")]
        bindings = []
        for layer, names in TRACED.items():
            home = sys.modules[f"atomlat.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            bindings.append((module, attr, original, wrapper))
        return bindings

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span of the given name."""
        return self._wrap(name, fn)(*args)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Spans are recorded from one thread, so children of one parent never
    overlap and their covered time is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
