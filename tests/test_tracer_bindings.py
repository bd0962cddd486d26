"""The benchmark tracer's bindings exist and come back unchanged.

``bench/tracing.py`` wraps package functions where the package binds
them, so renaming or moving one of them breaks every traced benchmark
run.  Installing the tracer here fails on such a name, and uninstalling
must put every original object back.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()  # a missing binding raises here; finally undoes the rest
        originals = {}
        for owner, attr, original in tracer._patched:
            originals.setdefault((owner, attr), original)  # the first patch saw the original
        assert originals, "the tracer patched nothing"
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
