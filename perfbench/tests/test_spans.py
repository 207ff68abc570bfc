import threading

import numpy as np

import spans


def _tracer(ticks):
    clock = iter(ticks)
    return spans.Tracer(clock=lambda: next(clock))


def test_self_time_on_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    t = _tracer([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    a = t.begin("A", "outer")
    b = t.begin("B", "outer")
    c = t.begin("C", "inner")
    t.finish(c)
    t.finish(b)
    d = t.begin("D", "inner")
    t.finish(d)
    t.finish(a)
    arr = t.arrays()
    assert list(arr["parent"]) == [-1, a, b, a]
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4])
    summary = spans.summarize(t)
    # B is nested in A's layer, so the layer's busy time counts A alone
    assert summary["A"] == (1, 10.0, 3.0)
    assert summary["B"] == (1, 0.0, 2.0)
    assert summary["C"][1] == 1.0 and summary["D"][1] == 4.0


def test_spans_in_another_thread_have_no_parent():
    t = spans.Tracer()
    outer = t.begin("outer", "x")
    worker = threading.Thread(target=lambda: t.finish(t.begin("inner", "x")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    t.finish(outer)
    arr = t.arrays()
    assert list(arr["parent"]) == [-1, -1]
    assert list(arr["nested"]) == [0, 0]


def test_install_counts_heat_points_and_restores():
    from loglap import hyperbolic, quadrature

    original = hyperbolic.heat_kernel
    t = spans.Tracer()
    with spans.install(t):
        hyperbolic.heat_kernel(3, 1.0, np.array([0.5, 1.0, 2.0]))
        hyperbolic.log_kernels(3, 1.0)
    assert hyperbolic.heat_kernel is original
    assert hyperbolic.integrate_semiinfinite is quadrature.integrate_semiinfinite
    assert t.counters["hyperbolic.heat_kernel.points.n3"] > 3
    assert t.counters["quadrature.calls"] == 2
    assert t.counters["quadrature.max_depth"] == 1
    summary = spans.summarize(t)
    quad = summary["quadrature.integrate_semiinfinite"]
    assert 0.0 < quad[2] < quad[1]  # self time is the part outside the integrand
