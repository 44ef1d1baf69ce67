"""Span tracing around opnkit's public functions, installed from outside the package.

The tracer wraps every public function of each opnkit layer module and
rebinds the wrapper at every module attribute that holds the original:
``opnkit.arith.is_prime``, ``opnkit.sieve.is_prime`` and ``opnkit.is_prime``
all lead through the same span.  Calls inside a module resolve globals at
call time, so a layer calling its own public functions is traced too.

Spans nest on a stack.  Each closed span adds its duration minus the time
of its child spans to its own self time, and counts one call on the edge
from its parent.  Work counters are read from each traced call's
arguments and result at the same boundary.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from functools import wraps
from math import isqrt
from time import perf_counter

LAYERS = ("arith", "congruences", "identities", "sieve", "cli")
_CLASSIFY = "arith.classify_prime"
_SIEVE = "sieve.sieve_special_primes"


def roots_tried(bound: int) -> int:
    """Odd roots a >= 3 with 2a^2 - 1 < bound, the candidates the root sieve enumerates."""
    top = isqrt(bound // 2)
    return max(0, (top - 1) // 2)


def _count_lemma(counts, args, kwargs, result):
    counts["congruences.lemma_oracle.pairs"] += result.checks


def _count_sieve(counts, args, kwargs, result):
    counts["sieve.sieve_special_primes.roots"] += roots_tried(args[0])
    counts["sieve.sieve_special_primes.hits"] += len(result)


def _count_primes_below(counts, args, kwargs, result):
    counts["arith.primes_below.numbers"] += args[0]


def _count_sigma_range(counts, args, kwargs, result):
    counts["arith.sigma_range.n"] += args[0]


_COUNTERS = {
    "congruences.lemma_oracle": _count_lemma,
    "sieve.sieve_special_primes": _count_sieve,
    "arith.primes_below": _count_primes_below,
    "arith.sigma_range": _count_sigma_range,
}


class Tracer:
    """Per-span call counts and self time, plus work counters, for one pass.

    install() rebinds the wrappers, uninstall() restores the originals;
    reset() clears what was recorded.
    """

    def __init__(self):
        import opnkit

        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        modules = {layer: importlib.import_module(f"opnkit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._bindings = [
            (ns, attr, fn, wrappers[fn])
            for ns in (opnkit, *modules.values())
            for attr, fn in list(vars(ns).items())
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.edges, self.counts):
            table.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        counter = _COUNTERS.get(name)

        @wraps(fn)
        def span(*args, **kwargs):
            label = name
            if name == _CLASSIFY:
                n = args[0] if args else kwargs["n"]
                label = name + (".ge64" if n >= 1 << 64 else ".lt64")
                if any(frame[0] == _SIEVE for frame in stack):
                    self.counts["sieve.classify_prime_calls"] += 1
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                self.calls[label] += 1
                self.self_s[label] += elapsed - frame[1]
                self.edges[(parent[0] if parent else "job", label)] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return span
