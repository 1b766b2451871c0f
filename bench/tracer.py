"""Spans and counters recorded from outside the library.

The tracer wraps public names of the ``dimerlab`` modules while it is
installed and restores the originals when it is removed, so nothing in
``src/`` changes.  A span records (query id, name, start, end, parent);
spans are aggregated on the fly, so self time (duration minus the part
covered by child spans) and inclusive time are exact even when the
stored span list is capped.  A target that no longer exists after a
refactor is reported in ``absent`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "dimerlab"
MAX_STORED_SPANS = 100_000


# -- hooks: counts taken at the same boundary as the span --------------------


def _faces_hook(tr, args, result, dur):
    faces = getattr(args[0], "_faces", None)
    tr.counts["graph.faces"] += len(faces) if faces is not None else 0


def _minor_hook(tr, args, result, dur):
    tr.counts["linalg.minor.zero"] += result == 0


def _product_hook(tr, args, result, dur):
    k = len(args[1]) if len(args) > 1 and hasattr(args[1], "__len__") else 0
    tr.counts["statistics.cycle_lookups"] += cycle_lookups(k)


def _cycle_hook(tr, args, result, dur):
    if tr.stack and tr.stack[-1][0] == "statistics.product_expectation":
        tr.counts["statistics.cycle_traces"] += 1


def _covers_hook(tr, args, result, dur):
    tr.counts["oracle.covers"] += len(result)


def _cover_weight_hook(tr, args, result, dur):
    tr.counts["oracle.covers_weighed"] += 1
    tr.counts["oracle.covers_nonzero"] += result != 0
    tr.maxima["oracle.cover_weight"] = max(tr.maxima.get("oracle.cover_weight", 0.0), dur)


def _certificate_hook(tr, args, result, dur):
    tr.counts["moves.certificates"] += 1


# (span name, "module:attribute path", hook).  Several targets may share a
# span name; nested spans of one name count once in inclusive time.
SPANS = [
    ("graph.load", "graph:load_graph", None),
    ("graph.load", "graph:build_graph", None),
    ("graph.trace_faces", "graph:EmbeddedGraph._trace", _faces_hook),
    ("kasteleyn.solve_signs", "kasteleyn:solve_signs", None),
    ("kasteleyn.assemble", "kasteleyn:assemble", None),
    ("kasteleyn.det", "kasteleyn:KasteleynSystem.det", None),
    ("kasteleyn.inverse", "kasteleyn:KasteleynSystem.inverse", None),
    ("linalg.det", "linalg:det", None),
    ("linalg.inverse", "linalg:inverse", None),
    ("linalg.char_coeffs", "linalg:char_coeffs", None),
    ("linalg.minor", "linalg:minor", _minor_hook),
    ("statistics.probability_matrix", "statistics:probability_matrix", None),
    ("statistics.pmf", "statistics:multiplicity_distribution", None),
    ("statistics.covariance", "statistics:covariance", None),
    ("statistics.product_expectation", "statistics:product_expectation", _product_hook),
    ("statistics.cycle_probability_matrix", "statistics:cycle_probability_matrix", _cycle_hook),
    ("statistics.joint_distribution", "statistics:joint_distribution", None),
    ("oracle.enumerate_covers", "oracle:enumerate_covers", _covers_hook),
    ("oracle.cover_weight", "oracle:cover_weight", _cover_weight_hook),
    ("oracle.marginals", "oracle:oracle_distribution", None),
    ("oracle.marginals", "oracle:oracle_product_expectation", None),
    ("moves.move", "moves:square_move", _certificate_hook),
    ("moves.move", "moves:contract", _certificate_hook),
    ("moves.move", "moves:parallel_reduce", _certificate_hook),
    ("moves.move", "moves:leaf_trim", _certificate_hook),
    ("moves.move", "moves:gauge_certificate", _certificate_hook),
    ("moves.snake_reduce", "zoo:snake_reduce", None),
    ("zoo.generate", "zoo:grid_graph", None),
    ("zoo.generate", "zoo:six_vertex", None),
    ("zoo.generate", "zoo:snake_graph", None),
    ("zoo.generate", "zoo:mixed_example", None),
    ("cli.emit", "cli:emit", None),
]

# (counter name, target): calls counted without a span, for hot methods
COUNTERS = [
    ("linalg.matmul.calls", "linalg:Matrix.__matmul__"),
    ("linalg.block.calls", "linalg:BlockMatrix.block"),
    ("scalars.mpoly_mul.calls", "scalars:MPoly.__mul__"),
    ("scalars.mpoly_mul.calls", "scalars:MPoly.__rmul__"),
]


def cycle_lookups(k: int) -> int:
    """Cycles visited over all k! permutations: sum of cycle counts = k! H_k."""
    if k <= 0:
        return 0
    # |s(k+1, 2)| via the recurrence c(j) = j c(j-1) + (j-1)!
    total, fact = 0, 1
    for j in range(1, k + 1):
        total = j * total + fact
        fact *= j
    return total


def _resolve(target: str):
    """(owner, attribute, original) for 'module:Attr.path', or None if absent."""
    mod_name, path = target.split(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans and counts while installed into a loaded package."""

    def __init__(self):
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []  # (query id, name, start, end, parent span index or -1)
        self.dropped = 0
        self.stack = []  # [name, start, child seconds, stored index]
        self.inclusive = Counter()  # outermost occurrence of each name
        self.self_time = Counter()
        self.counts = Counter()
        self.maxima = {}
        self._depth = Counter()
        self.query = None

    # -- spans ------------------------------------------------------------

    def enter(self, name: str):
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if len(self.spans) < MAX_STORED_SPANS:
            index = len(self.spans)
            self.spans.append([self.query, name, 0.0, 0.0, parent])
        else:
            self.dropped += 1
        self._depth[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0, index])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        dur = end - start
        if index >= 0:
            self.spans[index][2] = start
            self.spans[index][3] = end
        self.self_time[name] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.inclusive[name] += dur
        self.counts[name + ".calls"] += 1
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
            if hook is not None:
                hook(tracer, args, result, dur)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in the loaded package; record missing ones."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        wrappers = {}
        for name, target, hook in SPANS:
            self._patch(target, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h), wrappers)
        for name, target in COUNTERS:
            self._patch(target, lambda fn, n=name: self._count_wrapper(n, fn), wrappers)

    def _patch(self, target, make, wrappers):
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, original = found
        if id(original) not in wrappers:
            wrappers[id(original)] = make(original)
        wrapper = wrappers[id(original)]
        if isinstance(owner, type):
            self._set(owner, attr, original, wrapper)
            return
        # module functions are also bound by "from .x import f" elsewhere
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
