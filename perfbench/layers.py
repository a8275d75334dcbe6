"""Per-layer attribution from outside the program.

:class:`LayerTimer` replaces a public function of the program with a thin
timing wrapper at every module attribute that holds it -- the attribute its
callers look up -- so calls made from inside the program are seen too.
Only the outermost call of a nested or recursive chain is timed.  The
wrappers are removed with :meth:`LayerTimer.restore`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class LayerTimer:
    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._depth = threading.local()

    def _wrapper(self, metric: str, func):
        durations = self.durations.setdefault(metric, [])
        depth = self._depth

        @functools.wraps(func)
        def timed(*args, **kwargs):
            level = getattr(depth, metric, 0)
            if level:
                return func(*args, **kwargs)
            setattr(depth, metric, 1)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - started)
                setattr(depth, metric, 0)

        return timed

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, metric: str) -> None:
        """Wrap ``module.attr`` and every loaded ``repro`` module attribute
        bound to the same function object."""
        __import__(module)
        original = getattr(sys.modules[module], attr)
        timed = self._wrapper(metric, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, timed)

    def wrap_method(self, module: str, cls: str, attr: str, metric: str) -> None:
        """Wrap a method on its class, so every instance and every
        subclass that inherits it is timed."""
        __import__(module)
        owner = getattr(sys.modules[module], cls)
        self._patch(owner, attr, self._wrapper(metric, vars(owner)[attr]))

    def calls(self, metric: str) -> int:
        return len(self.durations.get(metric, ()))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
