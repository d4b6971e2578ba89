"""Spans around the calls into densecode's modules and the kernels they use.

``Tracer.install()`` replaces each traced function by a wrapper in every
densecode module that holds it by name (``from .qcore import
partial_trace_matrix`` binds it in ``capacity``, ``ggm`` and ``channels``
as well), in ``numpy.linalg`` for the two numpy kernels, and at
``densecode.capacity.minimize`` for the scipy refinement. ``uninstall()``
puts the originals back. Spans stay in memory, as parallel arrays of
name, start, end and parent, until the run writes them out.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

# (module, attribute) of the program's public functions that get a span
PROGRAM_FUNCTIONS = (
    ("states", "haar_random_pure"),
    ("qcore", "partial_trace_matrix"),
    ("qcore", "von_neumann_entropy"),
    ("ggm", "ggm"),
    ("ggm", "theorem2_conditions"),
    ("capacity", "locc_bound_noiseless"),
    ("capacity", "noisy_locc_bound"),
    ("capacity", "min_output_entropy"),
    ("capacity", "covariant_chi"),
    ("channels", "kraus_for"),
    ("channels", "marginal_kraus"),
    ("channels", "check_covariance"),
    ("cli", "run_haar"),
)


def _batch_size(args, kwargs, result) -> int:
    a = np.asarray(args[0] if args else kwargs["a"])
    return int(np.prod(a.shape[:-2], dtype=np.int64))


def _nfev(args, kwargs, result) -> int:
    return int(result.nfev)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._restore: list = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        if counter is not None:
            self.counts.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
            if counter is not None:
                self.counts[name] += counter(args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "densecode" and not mod_name.startswith("densecode."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def install(self):
        from densecode import capacity, cli

        for mod_name, attr in PROGRAM_FUNCTIONS:
            original = getattr(sys.modules[f"densecode.{mod_name}"], attr)
            self._replace_everywhere(original,
                                     self.wrap(f"{mod_name}.{attr}", original))
        for attr, counter in (("svd", None), ("eigvalsh", _batch_size)):
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self.wrap(f"numpy.linalg.{attr}", original, counter))
            self._restore.append((np.linalg, attr, original))
        original = capacity.minimize
        capacity.minimize = self.wrap("scipy.optimize.minimize", original, _nfev)
        self._restore.append((capacity, "minimize", original))

        build = vars(cli.GghzLine)["build"]
        traced_build = self.wrap("cli.GghzLine.build", build.__func__)
        cli.GghzLine.build = classmethod(traced_build)
        self._restore.append((cli.GghzLine, "build", build))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): span time minus its child spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = np.bincount(names, weights=dur - child_time,
                                minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_time[i]))
                for i, n in enumerate(self.names)}

    def write(self, path: str):
        """One tab-separated line per span: name, start, end, parent index."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for nid, s, e, p in zip(self.span_name, self.span_start,
                                    self.span_end, self.span_parent):
                fh.write(f"{self.names[nid]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")
