"""Shared benchmark configuration.

Benchmarks default to the shrunk CI calibration (seconds per panel); set
``REPRO_FULL=1`` to run at the paper's scales (minutes per panel).  Every
figure and table point resolves through the sweep engine's cache
(:func:`repro.bench.runner.bench_sweep_cache_dir`), so pytest-benchmark's
repeated invocations read points back instead of re-simulating them, while
the single genuine run drives the shape assertions.  The cache lives in a
temporary directory per session; ``REPRO_SWEEP_CACHE=<dir>`` keeps it
across sessions.
"""
