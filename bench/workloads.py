"""The benchmark's workloads.

Every workload is one qeclab study session: a Monte Carlo ``simulate`` run
per strategy at ``--workers 1`` and ``--workers 2``, the ``catalogue``
re-derivation, one ``verify`` and one ``bounds`` query. The workload picks
the inputs, and so which layer carries the time:

* ``mc-phase3`` -- 8-amplitude blocks, ~86% clean trials, ~1.1 measurements
  a trial: fixed per-trial cost (rng, encode, Schmidt, engine glue).
* ``mc-shor9`` -- up to 512x4-amplitude joint states, ~18% clean trials,
  ~13.5 measurements a trial: the decoder's projections dominate, and
  ``--workers 2`` shows BLAS oversubscription. p=0.2 (not 0.05) makes
  entangled decodes the bulk of the trials, the opposite clean share of
  ``mc-phase3``.
* ``design`` -- the design-time checks at full size: a 704x704 Gram matrix
  for ``verify shor9 --t 2`` (expected to fail) and the exact bounds at
  l=50, t=100, dominated by ``min_n_gv``'s linear scan. Its Monte Carlo run
  is the third code of the roadmap's matrix, ``perfect5``, whose complete
  table lets ``hierarchical`` skip its last measurement.

BENCHMARK.json lists ``mc-shor9`` and ``design`` only. Machine noise needs
55-second runs, and the repeated runs of three such workloads would take
over an hour. ``mc-phase3`` stays runnable by hand.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``simulate`` arguments shared by every Monte Carlo call
    simulate: tuple
    #: trials per timed ``simulate`` call: enough that a ``--workers 2``
    #: call takes about 0.25 s, so forking its pool is a small share of it
    trials: int
    verify: tuple
    verify_exit: int
    #: (l, t) of the ``bounds`` query and its (min_n_hamming, min_n_gv)
    bounds: tuple
    bounds_expect: tuple
    #: timed repeats of ``verify`` and ``bounds`` per round; sub-millisecond
    #: queries need many to give a steady median
    small_reps: int
    #: "simulate" times a one-trial simulate, "load-codes" loads the four
    #: built-in codes
    setup: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-phase3",
        simulate=("--code", "phase3", "--channel", "decoherence:0",
                  "--filter", "phase-only", "--p", "0.05"),
        trials=1000,
        verify=("--code", "phase3", "--condition", "phase", "--t", "1"),
        verify_exit=0,
        bounds=(1, 1), bounds_expect=(5, 9),
        small_reps=5,
        setup="simulate"),
    Workload(
        name="mc-shor9",
        simulate=("--code", "shor9", "--channel", "random:2",
                  "--max-active", "2", "--p", "0.2"),
        trials=150,
        verify=("--code", "shor9", "--condition", "general", "--t", "1"),
        verify_exit=0,
        bounds=(1, 1), bounds_expect=(5, 9),
        small_reps=5,
        setup="simulate"),
    Workload(
        name="design",
        simulate=("--code", "perfect5", "--channel", "random:2",
                  "--p", "0.05"),
        trials=1200,
        verify=("--code", "shor9", "--condition", "general", "--t", "2"),
        verify_exit=1,
        bounds=(50, 100), bounds_expect=(592, 1121),
        small_reps=1,
        setup="load-codes"),
)}

STRATEGIES = ("exhaustive", "hierarchical")
