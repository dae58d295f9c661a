"""Per-layer counts and self times, taken by wrapping seqroots' public functions.

The wrappers live here, not in the program: ``install`` replaces each
function in every loaded ``seqroots`` module that binds it (``driver``
imports ``eval_rational`` and ``decimal_string`` by name, for example), and
each ``SequenceFamily`` method on the class; ``remove`` puts every original
back.  A span's self time is its duration minus the time spent in wrapped
calls inside it, including those wrappers' own bookkeeping, so the self
times of all layers add up to the traced wall time less the cost of
entering and leaving the wrappers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable, Optional

#: Layer key -> the (module, name) pairs it wraps.  A name with a dot is a
#: method of the class before the dot.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "driver": (
        ("seqroots.driver", "dominant_root"),
        ("seqroots.driver", "root_via_shift"),
        ("seqroots.driver", "enumerate_real_roots"),
    ),
    "family": (("seqroots.sequences", "SequenceFamily.__init__"),),
    "step": (("seqroots.sequences", "SequenceFamily.step"),),
    "ratio": (
        ("seqroots.sequences", "SequenceFamily.cross_ratio"),
        ("seqroots.sequences", "SequenceFamily.successive_ratio"),
    ),
    "matvec": (("seqroots.companion", "mat_vec"),),
    "render": (
        ("seqroots.render", "decimal_string"),
        ("seqroots.render", "agreement_digits"),
    ),
    "eval": (("seqroots.poly", "eval_rational"),),
    "transform": (
        ("seqroots.poly", "shift_scale"),
        ("seqroots.poly", "reversed_monic"),
    ),
}


class Counters:
    """Calls and self seconds per layer, plus the integer growth of families."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.peak_bits = 0
        self.bit_steps = 0

    def snapshot(self) -> tuple:
        return (dict(self.calls), dict(self.self_s), self.peak_bits, self.bit_steps)


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.counters = Counters()
        self._stack: list[float] = [0.0]
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------------

    def _family_built(self, family: Any) -> None:
        if family.peak_bits > self.counters.peak_bits:
            self.counters.peak_bits = family.peak_bits

    def _family_stepped(self, family: Any) -> None:
        self.counters.bit_steps += max(c.bit_length() for c in family.current)
        if family.peak_bits > self.counters.peak_bits:
            self.counters.peak_bits = family.peak_bits

    def _wrap(
        self, layer: str, fn: Callable, after: Optional[Callable[[Any], None]] = None
    ) -> Callable:
        counters = self.counters
        stack = self._stack

        def close(start: float) -> None:
            inner = stack.pop()
            counters.calls[layer] += 1
            counters.self_s[layer] += perf_counter() - start - inner

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(start)
                stack[-1] += perf_counter() - start
                raise
            close(start)
            if after is not None:
                after(args[0])
            # the parent's self time excludes this call and its bookkeeping
            stack[-1] += perf_counter() - start
            return result

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise

    def _install(self) -> None:
        modules = [m for _, m in _seqroots_modules()]
        after = {"family": self._family_built, "step": self._family_stepped}
        for layer, targets in LAYERS.items():
            for module_name, name in targets:
                home = sys.modules[module_name]
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, original, self._wrap(layer, original, after.get(layer)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(layer, original, after.get(layer))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


def _seqroots_modules() -> list[tuple[str, Any]]:
    return [
        (name, m) for name, m in list(sys.modules.items())
        if m is not None and (name == "seqroots" or name.startswith("seqroots."))
    ]


def bindings() -> dict[tuple[str, str], Any]:
    """Every attribute of every loaded seqroots module and of SequenceFamily,
    by identity, to show that a tracer left nothing behind."""
    out: dict[tuple[str, str], Any] = {}
    for name, module in _seqroots_modules():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
    family = sys.modules["seqroots.sequences"].SequenceFamily
    for attr, value in vars(family).items():
        out[("SequenceFamily", attr)] = value
    return out
