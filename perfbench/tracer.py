"""Per-layer tracing of thetapairs from outside the package.

`Tracer.install` replaces each listed function by a timing wrapper, in its
defining module and in every `thetapairs` module that bound it with
`from ... import`; methods are replaced on their class.  The package's
source is not touched.  Each wrapped name accumulates its call count, its
inclusive time (outermost activations only, so recursion is not counted
twice) and its self time: the call's duration minus the time spent in
nested traced calls.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name inside the module) of every traced entry point.
TARGETS = (
    ("matrix", "ExactMatrix.rref"),
    ("matrix", "ExactMatrix.kernel_basis"),
    ("matrix", "ExactMatrix.solve"),
    ("matrix", "ExactMatrix.char_poly"),
    ("matrix", "ExactMatrix.__matmul__"),
    ("matrix", "ExactMatrix.exp_nilpotent"),
    ("matrix", "ExactMatrix.inverse"),
    ("matrix", "ExactMatrix.det"),
    ("gaussian", "gaussian_roots"),
    ("liealg", "LinearAlgebraFrame.ad"),
    ("liealg", "LinearAlgebraFrame.bracket"),
    ("liealg", "LinearAlgebraFrame.centralizer"),
    ("liealg", "weight_decomposition"),
    ("jordan", "jordan_semisimple_part"),
    ("jordan", "eigenvalues"),
    ("lattice", "smith_normal_form"),
    ("rootsystem", "enumerate_weyl"),
    ("pairs", "realize"),
    ("involutions", "compute_subgroups"),
    ("involutions", "detect_regular_borels"),
    ("involutions", "enumerate_split_borels"),
    ("involutions", "canonical_involution"),
    ("involutions", "weyl_group_of_g0"),
    ("involutions", "split_simple_lift"),
    ("slices", "build_kw_section"),
    ("slices", "kw_audit"),
    ("slices", "kw_solve"),
    ("slices", "chi1"),
    ("slices", "is_regular"),
    ("slices", "conjugate_ss_into_a"),
    ("slices", "ElementOfG1.jordan_parts"),
    ("fibers", "fiber_over_regular"),
    ("fibers", "component_census"),
    ("fibers", "fiber_component_dimensions"),
    ("fibers", "g0_weyl_lifts"),
    ("fibers", "SplitWeylLifts.__init__"),
    ("diagonal", "diagonal_isomorphism_check"),
    ("stabilizers", "stabilizer_fiber"),
    ("stabilizers", "tangent_space_solver"),
    ("stabilizers", "admissible_elements"),
    ("report", "build_report"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Call counts, inclusive and self times of wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        # one accumulator per open traced call: time spent in its traced children
        self._child_time = []
        self._restore = []

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        clock = self.clock
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.active += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_time += elapsed - child_time.pop()
                stat.active -= 1
                if not stat.active:
                    stat.total += elapsed
                if child_time:
                    child_time[-1] += elapsed

        return traced

    def install(self, package="thetapairs", targets=TARGETS):
        """Wrap every target in its defining module, in each loaded module of
        the package that imported it by name, and on its class for methods."""
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, qualname in targets:
            module = sys.modules[f"{package}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self.wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(name, original)
            for mod in loaded:
                if mod.__dict__.get(qualname) is original:
                    self._replace(mod, qualname, original, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def total_calls(self):
        return sum(s.calls for s in self.stats.values())

    def module_self_time(self):
        out = {}
        for name, stat in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + stat.self_time
        return out


def per_call_overhead(samples=200_000):
    """Seconds a wrapper adds to one call, from timing a wrapped no-op
    against the bare one (best of three passes each)."""

    def noop(x):
        return x

    wrapped = Tracer().wrap("noop", noop)

    def best(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for i in range(samples):
                fn(i)
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (best(wrapped) - best(noop)) / samples)
