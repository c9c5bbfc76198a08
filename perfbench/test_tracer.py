"""Self-time arithmetic and installation of the tracer, on toy code.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
import types

import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_nested_traced_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    leaf = tracer.wrap("toy.leaf", leaf)

    def untraced_helper():
        clock.advance(4)   # not wrapped: stays in the caller's self time
        leaf()

    def root():
        clock.advance(1)
        leaf()
        clock.advance(2)
        untraced_helper()
        clock.advance(3)

    tracer.wrap("toy.root", root)()

    root_stat, leaf_stat = tracer.stats["toy.root"], tracer.stats["toy.leaf"]
    assert (root_stat.calls, root_stat.total, root_stat.self_time) == (1, 20, 10)
    assert (leaf_stat.calls, leaf_stat.total, leaf_stat.self_time) == (2, 10, 10)
    assert tracer.module_self_time() == {"toy": 20}
    assert tracer.total_calls() == 3


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(n):
        clock.advance(1)
        if n:
            traced(n - 1)

    traced = tracer.wrap("toy.countdown", countdown)
    traced(2)

    stat = tracer.stats["toy.countdown"]
    assert (stat.calls, stat.total, stat.self_time) == (3, 3, 3)


def test_a_raising_call_is_still_accounted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(2)
        raise ValueError("boom")

    failing = tracer.wrap("toy.failing", failing)

    def root():
        clock.advance(1)
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("toy.root", root)()
    assert tracer.stats["toy.failing"].self_time == 2
    assert tracer.stats["toy.root"].self_time == 1
    assert tracer.stats["toy.root"].total == 3


def test_install_rebinds_imported_names_and_methods_then_restores():
    base = types.ModuleType("toypkg.base")
    user = types.ModuleType("toypkg.user")

    def helper():
        return "helper"

    class Thing:
        def method(self):
            return "method"

    base.helper, base.Thing = helper, Thing
    method = Thing.__dict__["method"]
    user.helper = helper           # as bound by `from .base import helper`
    package = types.ModuleType("toypkg")
    saved = {name: sys.modules.get(name) for name in ("toypkg", "toypkg.base", "toypkg.user")}
    sys.modules.update({"toypkg": package, "toypkg.base": base, "toypkg.user": user})
    try:
        tracer = Tracer()
        tracer.install(package="toypkg",
                       targets=(("base", "helper"), ("base", "Thing.method")))
        assert base.helper is not helper and user.helper is base.helper
        assert user.helper() == "helper" and Thing().method() == "method"
        assert tracer.stats["base.helper"].calls == 1
        assert tracer.stats["base.Thing.method"].calls == 1
        tracer.uninstall()
        assert base.helper is helper and user.helper is helper
        assert Thing.__dict__["method"] is method
        Thing().method()
        assert tracer.stats["base.Thing.method"].calls == 1
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
