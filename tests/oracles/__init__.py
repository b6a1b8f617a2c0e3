"""Scalar reference implementations the vectorized engines are tested against.

Each module holds the one-at-a-time version of a computation whose only
implementation in ``src/`` is vectorized:

* :mod:`tests.oracles.slam` — bucketed feature selection, the unpackbits
  Hamming matrix, the per-row matchers, per-observation Gauss-Newton
  tracking and per-landmark bundle adjustment;
* :mod:`tests.oracles.platforms` — ``InOrderCore.run_segments`` through the
  core's per-access executor only;
* :mod:`tests.oracles.sweep` — ``sweep_wheelbase`` as one
  ``DroneDesign.evaluate`` per grid point.

The equivalence suites and ``benchmarks/perf/run_perf.py`` import them;
nothing in ``src/`` does.
"""
