"""Per-point correctness of a sweep CSV, recomputed with the public API."""

import math

from trapbose import SpectrumModel, enumerate_basis, excited_count

SELF_CONSISTENCY_TOL = 1e-8    # |N - n0 - N_ex(levels(n0), T)| <= tol * N
REFERENCE_TOL = 1e-9           # |n0/N - reference n0/N| on the unshifted grid


def read_fractions(text):
    """(T, n0/N, converged) rows of a sweep CSV, header skipped."""
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        rows.append((float(fields[0]), float(fields[1]), fields[4] == "1"))
    return rows


class PointChecker:
    """Counts the points of a sweep CSV that fail the correctness check.

    A point fails if it did not converge, is not on the requested grid, is
    not self-consistent (normal-phase points must have n0 = 0), or, when a
    reference is given, its n0/N differs from the reference.
    """

    def __init__(self, config, grid, reference_text=None):
        trap = config.trap
        self.n_total = float(trap.n_particles)
        self.grid = grid
        basis = enumerate_basis(trap, config.e_cut)
        self.basis_size = basis.size
        self.model = SpectrumModel(trap, basis, kind=config.solver)
        self.ideal_levels = self.model.levels(0.0)
        self.reference = None
        if reference_text is not None:
            self.reference = [frac for _, frac, _ in read_fractions(reference_text)]

    def point_ok(self, index, row):
        temperature, fraction, converged = row
        expected_t = self.grid[index]
        if not converged or not math.isclose(temperature, expected_t, rel_tol=1e-9):
            return False
        if (self.reference is not None
                and not abs(fraction - self.reference[index]) <= REFERENCE_TOL):
            return False
        n0 = fraction * self.n_total
        if excited_count(self.ideal_levels, expected_t) >= self.n_total:
            return n0 == 0.0
        residual = self.n_total - n0 - excited_count(self.model.levels(n0), expected_t)
        return abs(residual) <= SELF_CONSISTENCY_TOL * self.n_total

    def failed_points(self, text):
        try:
            rows = read_fractions(text)
        except (ValueError, IndexError):
            return len(self.grid)
        if len(rows) != len(self.grid):
            return len(self.grid)
        if self.reference is not None and len(self.reference) != len(rows):
            return len(self.grid)
        return sum(not self.point_ok(i, row) for i, row in enumerate(rows))
