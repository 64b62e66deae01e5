"""Mutation check: every listed mutant of the package must fail its test.

Run from anywhere, with the standard library and pytest:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file, a text that occurs in it exactly
once, the text that replaces it, and the test node that must fail once it
does.  For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the replacement there
and runs the named test with pytest.  Before any mutant, the named tests
must pass on an unchanged copy, so that a failure is the mutant's doing.

The exit code is 0 when every mutant failed its test, and 1 when a mutant
survived, its old text did not occur exactly once, or its test did not run
to a verdict (pytest exit codes other than 0 and 1).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    test: str
    what: str


MUTANTS = (
    Mutant("src/homlim/composite.py",
           "if not (np.abs(x) <= 1.0).all():",
           "if not inverse and x.size and np.max(np.abs(x)) > 1.0:",
           "tests/test_composite.py::TestCompositions::"
           "test_every_method_rejects_rows_outside_the_cube",
           "the composite domain check lets NaN rows pass and skips the inverse"),
    Mutant("src/homlim/degree.py",
           "        if (not isinstance(level, numbers.Integral) or isinstance(level, bool)\n"
           "                or not 0 <= level <= MAX_REFINE):\n",
           "        if False:\n",
           "tests/test_degree.py::TestMesh::"
           "test_refinement_outside_the_mesh_levels_is_rejected",
           "SphereProbe takes any refinement"),
    Mutant("src/homlim/analysis.py",
           "return float(np.cumsum(terms)[-1]) if len(terms) else 0.0",
           "return float(np.sum(terms)) if len(terms) else 0.0",
           "tests/test_analysis.py::TestCauchyTable::test_matches_the_pointwise_reference",
           "a Cauchy part summed pairwise by np.sum, not in node order"),
    Mutant("src/homlim/analysis.py",
           "held = (jac[m:].copy() if m else jac) if ahead else None",
           "held = (held if m else jac) if ahead else None",
           "tests/test_analysis.py::TestCauchyTable::test_matches_the_pointwise_reference",
           "a Cauchy row paired with the Jacobians held from an earlier stage"),
    Mutant("src/homlim/tentacles.py",
           "    e[pos] = np.minimum(np.fromiter(map(math.log, u.tolist()), float, len(u))\n"
           "                        - math.log(lv.u_d), lv.e_range)\n",
           "    e[pos] = np.fromiter(map(math.log, u.tolist()), float, len(u)) - math.log(lv.u_d)\n",
           "tests/test_tentacles.py::TestModulation::"
           "test_matches_the_oracle_where_the_clamp_acts",
           "the array modulation without its clamp to E"),
    Mutant("src/homlim/tentacles.py",
           "mid = ~(flat | (u >= lv.u_b))",
           "mid = ~(u >= lv.u_b)",
           "tests/test_tentacles.py::TestModulation::test_matches_the_oracle_on_seeded_radii",
           "the interior modulation written over the rows with u <= u_d"),
    Mutant("src/homlim/tower.py",
           "        positions[index[v]] = target[v]\n",
           "",
           "tests/test_tower.py::TestRelocationLayout::"
           "test_every_corridor_misses_the_other_cubes",
           "the move table's corridors tested against the children's grid centers only"),
    Mutant("src/homlim/analysis.py",
           "base = 2.0 ** (n - 2) * rho",
           "base = 2.0 * rho",
           "tests/test_analysis.py::TestTubeQuadrature::"
           "test_unit_weight_integrates_to_the_tube_volume",
           "the strip measure with the factor 2 for 2^(n-2)"),
    Mutant("src/homlim/_kernels.py",
           "inside = above.all(axis=0) | below.all(axis=0)",
           "inside = above.any(axis=0) | below.any(axis=0)",
           "tests/test_kernels.py::TestCrossingCount::test_equals_the_rounded_solid_angle",
           "`any` for `all` in the crossing count's inside test"),
    Mutant("src/homlim/tower.py",
           "arg = off[blend].argmax(axis=1)",
           "arg = off.shape[1] - 1 - off[blend][:, ::-1].argmax(axis=1)",
           "tests/test_tower.py::TestBlendTies::test_diagonal_rows_match_the_reference",
           "the blend entry given to the last tying coordinate"),
    Mutant("src/homlim/tower.py",
           "held = self._spanned(w.take(rows, axis=0), inverse) & later",
           "held = (held.take(live, axis=1) & masks.take(pos, axis=1)).take(go, axis=1)",
           "tests/test_descent.py::TestTowerDescent::test_stage_steps_match_root_walks",
           "the boxes of a pass's rows masked but not gathered again after their move"),
    Mutant("src/homlim/tower.py",
           "first, last = np.searchsorted(e, lo[d]) + 1,",
           "first, last = np.searchsorted(e, lo[d]),",
           "tests/test_tower.py::TestMoveLayers::test_span_tables_match_the_boxes",
           "the span tables filled from one interval below each box"),
    Mutant("src/homlim/tower.py",
           "np.searchsorted(e, hi[d]) + 1",
           "np.searchsorted(e, hi[d])",
           "tests/test_tower.py::TestMoveLayers::test_rows_a_move_keeps_are_owned_by_it",
           "the span tables filled short of each box's last interval"),
    Mutant("src/homlim/tower.py",
           "np.bitwise_count(~word & (word - _ONE))",
           "(np.bitwise_count(word) - 1)",
           "tests/test_tower.py::TestTowerMapping::test_five_dimensions_match_the_reference",
           "a row's move numbered by the count of its word's bits"),
    Mutant("src/homlim/degree.py",
           "pad = tail + GAP_ROUNDING * np.maximum(row_max(np.abs(ys)), extent)",
           "pad = tail",
           "tests/test_degree.py::TestGapCertificate",
           "the gap certificate cleared without its rounding pad"),
    Mutant("src/homlim/degree.py",
           "ends = images[:, edges[:, 0]], images[:, edges[:, 1]]",
           "ends = images[:, edges[:, 0]], images[:, edges[:, 0]]",
           "tests/test_degree.py::TestImageCache::"
           "test_degree_matches_the_from_scratch_oracle",
           "the midpoint gap taken against a wrong edge end"),
    Mutant("src/homlim/degree.py",
           "return float(np.max(_norms(added - 0.5 * (ends[0] + ends[1]))))",
           "return float(np.mean(_norms(added - 0.5 * (ends[0] + ends[1]))))",
           "tests/test_degree.py::TestGapCertificate::"
           "test_consecutive_surfaces_lie_within_the_gap",
           "the midpoint gap as the mean deviation, not the largest"),
    Mutant("src/homlim/degree.py",
           "th = 2 * np.pi * np.arange(1, count, 2) / count",
           "th = np.arctan2(*(verts[segments[:, 0]] + verts[segments[:, 1]]).T[::-1])",
           "tests/test_degree.py::TestMesh::test_circle_points_lie_at_their_angles",
           "added circle points at the angles of the chord midpoints"),
    Mutant("src/homlim/tentacles.py",
           "x[rows, -1] += self.sched.centerline(heights[:, rows], x[rows, 0])",
           "x[rows, -1] += self.sched.centerline(heights[:, rows], w[rows, 0])",
           "tests/test_batch.py::TestFactorsBatchedEqualPointwise::test_tentacle_stages",
           "a stage image placed on the centerline at the pre-walk axial coordinate"),
    Mutant("src/homlim/composite.py",
           "return np.full(len(w), k), heights, w",
           "return np.full(len(w), k - 1), heights, w",
           "tests/test_composite.py::TestWitness::"
           "test_chart_inverse_is_the_stage_inverse_where_the_tube_resolves",
           "the witness chain walked as level-(k-1) chart rows"),
    Mutant("src/homlim/_kernels.py",
           "idx, mx = np.arange(len(rows)), np.argmax(np.abs(xi), axis=1)",
           "idx, mx = np.arange(len(rows)), n - 1 - np.argmax(np.abs(xi)[:, ::-1], axis=1)",
           "tests/test_batch.py::TestDerivativeMany::test_cantor_maps_at_frame_radii_and_ties",
           "the Cantor Jacobian's radial column at the last tying coordinate"),
    Mutant("src/homlim/_kernels.py",
           "coef = ((lam_slope - lam / t) / t)[:, None]",
           "coef = ((lam_slope + lam / t) / t)[:, None]",
           "tests/test_batch.py::TestDerivativeMany::test_cantor_maps_at_frame_radii_and_ties",
           "the Cantor Jacobian's radial term with lambda' + lambda / t"),
    Mutant("src/homlim/tentacles.py",
           "        _raise_first_outside(outside)\n",
           "        if not jacobian:\n            _raise_first_outside(outside)\n",
           "tests/test_batch.py::TestBatchErrors::test_tentacle_stage",
           "a tentacle walk that takes Jacobians without its knot-range check"),
    Mutant("src/homlim/tentacles.py",
           "a = c - base.r(k + 2)",
           "a = c - base.r(k + 1)",
           "tests/test_tentacles.py::TestSolveParameters::test_levels_take_the_tower_radii",
           "a tentacle's tube end a_k set back by a radius read one level off"),
    Mutant("src/homlim/geometry.py",
           "tile = np.floor((offsets + half_width) / (half_width * (2.0 / 2**n)))",
           "tile = np.floor((offsets + half_width) / (half_width * (2.0 / 2**n)) + 0.5)",
           "tests/test_batch.py::TestCompositesBatchedEqualPointwise::test_tube_interfaces",
           "the slot tile rule of the tower and the tentacles shifted by half a tile"),
    Mutant("src/homlim/geometry.py",
           "for j in range(1, a.shape[1]):",
           "for j in range(1, a.shape[1] - 1):",
           "tests/test_geometry.py::TestRowMax::test_every_column_counts",
           "the row maximum folded over all but the last column"),
    Mutant("src/homlim/tower.py",
           "masks = t.masks[inverse]",
           "masks = t.masks[False]",
           "tests/test_tower.py::TestTowerMapping::test_goodmap",
           "the inverse walk masked by the forward numbering's masks"),
    Mutant("src/homlim/tower.py",
           "pos = np.bitwise_count(~word & (word - _ONE))",
           "pos = (np.frexp(word)[1] - 1)",
           "tests/test_batch.py::TestFactorsBatchedEqualPointwise::test_tower",
           "a row's next move taken from the highest set bit of its word, not the lowest"),
    Mutant("src/homlim/tower.py",
           "_pack_bits(layer_at > ranks)",
           "_pack_bits(layer_at >= ranks)",
           "tests/test_batch.py::TestFactorsBatchedEqualPointwise::test_tower",
           "a forward mask that keeps the bits of the move's own layer"),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _pytest(where: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    return done.returncode


def _verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="homlim-mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        path = where / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"ERROR: old text occurs {count} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(where, [mutant.test])
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exit code {code}")


def main() -> int:
    tests = sorted({m.test for m in MUTANTS})
    with tempfile.TemporaryDirectory(prefix="homlim-mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass unmutated (pytest exit code {code})")
        return 1
    failed = 0
    for i, mutant in enumerate(MUTANTS, start=1):
        verdict = _verdict(mutant)
        failed += verdict != "killed"
        print(f"{i:2d} {verdict:9s} {mutant.file}: {mutant.what}  [{mutant.test}]", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
