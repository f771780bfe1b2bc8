"""Experiment harness: regenerates every table and figure in the paper.

Each experiment id from DESIGN.md §4 maps to a function here; run them via

    from repro.harness import runner
    result = runner.run("fig7")
    print(result.render())

or from the command line::

    repro-experiment fig7 --scale bench

The ``bench`` scale compresses test duration and creation stagger so a full
figure regenerates in seconds-to-minutes of wall time; ``full`` uses the
paper's 30-minute runs and 0.5 s creation stagger (set ``REPRO_FULL=1`` or
``--scale full``).  Connection counts are never scaled: the x axes and the
out-of-memory walls are the phenomena under study.
"""

from repro.harness.scale import Scale

__all__ = ["EXPERIMENT_IDS", "Scale", "run"]


def __getattr__(name: str):
    # PEP 562: ``runner`` is imported on first use, not with the package, so
    # ``python -m repro.harness.runner`` does not find it already imported.
    if name in ("run", "EXPERIMENT_IDS"):
        from repro.harness import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
