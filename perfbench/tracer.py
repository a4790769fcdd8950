"""Outside-in span tracer for the flyspin layers.

The tracer wraps, at run time, every public function of each layer module
and the hand-written ``__init__`` of every non-dataclass class defined
there (``DensityMatrix.__init__`` becomes the span ``qcore.density_matrix``).
Every binding of a wrapped function in any flyspin namespace is patched,
so names re-imported into ``protocol``, ``scattering``, ``cli`` and the
package root are traced too. ``numpy.linalg.eigvalsh`` is replaced by a
counter keyed by the layer of the innermost open span. No flyspin source
changes; ``uninstall`` puts every original object back.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans add up to the duration
of the outermost spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import re
import time

import numpy.linalg

LAYERS = ("qcore", "scattering", "channels", "protocol", "metrics", "rng", "cli")

_MARK = "__perfbench_span__"


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


class Tracer:
    """Span statistics for one traced stretch of work.

    ``stats`` maps a span name to ``[count, self_seconds]``; ``eigvalsh``
    maps the innermost open layer (``None`` outside any span) to a call
    count; ``max_qubits`` maps a layer to the largest ``n`` of any object
    its traced constructors built.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.eigvalsh: dict[str | None, int] = {}
        self.max_qubits: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn, observe_n: bool = False):
        """Return ``fn`` wrapped in a span called ``name`` of ``layer``."""
        stack, clock = self._stack, self.clock
        stat = self.stats.setdefault(name, [0, 0.0])
        max_qubits = self.max_qubits

        def traced(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if observe_n:
                    n = getattr(args[0], "n", None)
                    if isinstance(n, int) and n > max_qubits.get(layer, 0):
                        max_qubits[layer] = n

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, layer_modules: dict, namespaces) -> None:
        """Wrap the public callables of each layer and patch every binding.

        ``layer_modules`` maps a layer name to its module; ``namespaces``
        lists every module whose globals may hold re-imported names.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, module in layer_modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
                elif (
                    inspect.isclass(obj)
                    and "__init__" in vars(obj)
                    and not dataclasses.is_dataclass(obj)
                ):
                    init = self.wrap(layer, f"{layer}.{_snake(attr)}", vars(obj)["__init__"], True)
                    self._set(obj, "__init__", init)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        self._set(numpy.linalg, "eigvalsh", self._count_eigvalsh(numpy.linalg.eigvalsh))

    def _count_eigvalsh(self, fn):
        stack, counts = self._stack, self.eigvalsh

        def counted(*args, **kwargs):
            layer = stack[-1][1] if stack else None
            counts[layer] = counts.get(layer, 0) + 1
            return fn(*args, **kwargs)

        functools.update_wrapper(counted, fn)
        setattr(counted, _MARK, "eigvalsh")
        return counted

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_self(self, layer: str) -> float:
        return sum(s for name, (_, s) in self.stats.items() if name.startswith(layer + "."))

    def layer_count(self, layer: str) -> int:
        return sum(c for name, (c, _) in self.stats.items() if name.startswith(layer + "."))

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]


def bindings(namespaces) -> dict:
    """Every global of the given modules, class ``__init__`` slots and eigvalsh."""
    snap = {("numpy.linalg", "eigvalsh"): numpy.linalg.eigvalsh}
    for module in namespaces:
        for attr, obj in vars(module).items():
            snap[(module.__name__, attr)] = obj
            if inspect.isclass(obj) and "__init__" in vars(obj):
                snap[(module.__name__, attr + ".__init__")] = vars(obj)["__init__"]
    return snap


def restore_errors(before: dict, namespaces) -> list[str]:
    """Bindings that differ from a snapshot taken before ``install``."""
    after = bindings(namespaces)
    errors = [f"{key} not restored" for key in before if after.get(key) is not before[key]]
    errors += [f"{key} appeared while tracing" for key in after.keys() - before.keys()]
    errors += [f"{key} is a traced wrapper" for key, obj in after.items() if hasattr(obj, _MARK)]
    return errors


def self_test(layer_modules: dict, namespaces) -> list[str]:
    """Check the span arithmetic, the eigvalsh attribution and the restore."""
    errors = []

    # self time on a synthetic nested call, with a clock the test advances
    now = [0.0]
    fake = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 5.0

    traced_leaf = fake.wrap("b", "b.leaf", leaf)

    def outer():
        now[0] += 3.0
        traced_leaf()
        now[0] += 2.0
        traced_leaf()

    fake.wrap("a", "a.outer", outer)()
    if fake.stats != {"b.leaf": [2, 10.0], "a.outer": [1, 5.0]}:
        errors.append(f"self-time arithmetic: {fake.stats}")

    # eigvalsh counts toward qcore only while a qcore span is innermost
    before = bindings(namespaces)
    tracer = Tracer()
    tracer.install(layer_modules, namespaces)
    try:
        qcore, metrics = layer_modules["qcore"], layer_modules["metrics"]
        rho = qcore.DensityMatrix(numpy.eye(4) / 4.0)  # one eigvalsh inside qcore
        metrics.concurrence(rho)  # one eigvalsh inside metrics
        numpy.linalg.eigvalsh(numpy.eye(2))  # one outside any span
        if tracer.eigvalsh != {"qcore": 1, "metrics": 1, None: 1}:
            errors.append(f"eigvalsh attribution: {tracer.eigvalsh}")
        if tracer.max_qubits.get("qcore") != 2:
            errors.append(f"max_qubits: {tracer.max_qubits}")
        unwrapped = [
            f"{module.__name__}.{attr}"
            for module in namespaces
            for attr, obj in vars(module).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("flyspin.")
            and not attr.startswith("_")
            and not hasattr(obj, _MARK)
        ]
        if unwrapped:
            errors.append(f"public functions left untraced: {unwrapped}")
    finally:
        tracer.uninstall()
    return errors + restore_errors(before, namespaces)
