"""Tomcatv (SPEC92 052.tomcatv, vectorized mesh generation) workload.

Tomcatv's 3.67 MB data set is the largest in the paper's SPEC92 set; its
traffic ratio is flat around 0.71-0.75 through the middle cache sizes, then
drops to 0.33 at 1 MB and 0.24 at 2 MB as the residual arrays begin to fit.
Its traffic inefficiency is tiny (1.6-6.4) — a streaming scientific code
with "little temporal locality" leaves a minimal gap for the MTC to exploit.

The model is a nine-point stencil over two coordinate meshes plus sweeps
over the residual arrays, with one smaller, repeatedly reused error array
providing the working set that fits at the 1 MB mark.
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.synth import (
    StreamPair,
    column_sweep,
    concat_streams,
    interleave_streams,
    stencil_sweeps,
    sweep,
)
from repro.workloads.base import PaperFacts, SyntheticWorkload


class Tomcatv(SyntheticWorkload):
    name = "Tomcatv"
    suite = "SPEC92"
    paper = PaperFacts(
        refs_millions=104.2,
        dataset_mb=3.67,
        input_description="256x256, 10 iter",
    )
    behaviour = "streaming 9-point stencil over large meshes"

    _REFS_PER_SCALE = 3_800_000

    def _build(self, rng: np.random.Generator) -> StreamPair:
        total_refs = max(4_000, int(self._REFS_PER_SCALE * self.scale))
        mesh_words = self._scaled_words(1.4 * 1024 * 1024)
        side = max(16, int(math.sqrt(mesh_words)))
        residual_words = self._scaled_words(0.7 * 1024 * 1024)
        error_words = self._scaled_words(0.17 * 1024 * 1024, minimum=64)

        mesh_x_base = 0
        mesh_y_base = (mesh_words + 512) * 4
        residual_base = mesh_y_base + (mesh_words + 512) * 4
        error_base = residual_base + (residual_words + 512) * 4

        # Tomcatv's TRIDIB phase runs *along columns* of the row-major
        # meshes: no spatial locality for small caches (one 32-byte block
        # fetched per 4-byte reference), collapsing once a cache holds one
        # block per row. The meshes are treated as stacked planes of a
        # fixed 128-row geometry so that the column-reuse onset (one block
        # per row = rows x 32 B) lands at the same scaled cache size as the
        # paper's (Table 7 flattens out between 8 KB and 16 KB).
        plane_rows = 128
        # Fortran codes pad leading dimensions to avoid set aliasing; an
        # unpadded power-of-two stride would alias every column into a few
        # sets of a direct-mapped cache and never flatten out.
        row_words = plane_rows + 1
        plane_words = plane_rows * row_words
        planes = max(1, mesh_words // plane_words)
        column_passes = max(1, int(total_refs * 0.30) // (planes * plane_words))
        tridiagonal_planes = [
            column_sweep(
                mesh_x_base + p * plane_words * 4,
                plane_rows,
                row_words,
                passes=column_passes,
                write_every=3,
            )
            for p in range(planes)
        ]
        tridiagonal = concat_streams(tridiagonal_planes)
        stencil_refs_per_iter = (side - 2) ** 2 * 9
        iterations = max(1, int(total_refs * 0.46) // stencil_refs_per_iter)
        relaxation = stencil_sweeps(
            mesh_y_base, side, iterations=iterations, points=9
        )
        residual_passes = max(1, int(total_refs * 0.16) // residual_words)
        residuals = sweep(
            residual_base, residual_words, passes=residual_passes, write_every=4
        )
        error_passes = max(2, int(total_refs * 0.08) // error_words)
        errors = sweep(
            error_base, error_words, passes=error_passes, write_every=2
        )
        return interleave_streams(
            [tridiagonal, relaxation, residuals, errors], chunk=128
        )
