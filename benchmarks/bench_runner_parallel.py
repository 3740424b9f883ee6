"""The parallel multi-study runner vs a sequential run of the matrix.

Regenerates the cold-cache study matrix twice — ``--jobs 1`` and
``--jobs 4`` — and asserts the two stores hold **byte-identical**
payloads (the runner's core promise: process layout never leaks into
results).  On machines with ≥ 4 cores the parallel run must also be
≥ 2.5× faster wall-clock; on smaller machines the speedup is reported
but not enforced (there is nothing to parallelize onto).
"""

import os

from repro.figures.cache import StudyStore
from repro.runner import StudyRunner, study_matrix

MIN_PARALLEL_SPEEDUP = 2.5
PARALLEL_JOBS = 4


def _matrix(fig_config):
    # Enough independent studies to keep 4 workers busy; full-scale
    # studies are minutes each, so the matrix shrinks with scale.
    n_seeds = 8 if fig_config.scale == "quick" else 2
    return study_matrix(
        scales=(fig_config.scale,),
        seeds=tuple(fig_config.seed + i for i in range(n_seeds)),
    )


def test_parallel_runner_matches_sequential_and_scales(
    run_once, fig_config, tmp_path
):
    keys = _matrix(fig_config)

    sequential = StudyRunner(cache_dir=tmp_path / "seq", jobs=1)
    seq_report = sequential.run(keys)
    assert seq_report.ok
    assert seq_report.count("computed") == len(keys)

    parallel = StudyRunner(cache_dir=tmp_path / "par", jobs=PARALLEL_JOBS)
    par_report = run_once(lambda: parallel.run(keys))
    assert par_report.ok
    assert par_report.count("computed") == len(keys)

    speedup = seq_report.wall_seconds / par_report.wall_seconds
    print()
    print(f"sequential: {seq_report.summary()}")
    print(f"parallel:   {par_report.summary()}")
    print(
        f"speedup {speedup:.2f}x over {len(keys)} studies "
        f"({os.cpu_count()} cpus)"
    )

    # Byte-identical payloads, whatever the partitioning.
    seq_store = StudyStore(tmp_path / "seq")
    par_store = StudyStore(tmp_path / "par")
    for key in keys:
        assert (
            seq_store.path_for(key).read_bytes()
            == par_store.path_for(key).read_bytes()
        )

    cpus = os.cpu_count() or 1
    if cpus >= PARALLEL_JOBS:
        assert speedup >= MIN_PARALLEL_SPEEDUP
