"""Guard against silent rendering drift in the paper's figure artifacts.

The twelve figure benchmarks save ASCII screenshots under
``bench_artifacts/fig*.txt``; byte-identical copies live next to the
test suite as baselines (``tests/goldens/fig*.txt``).  The incremental display
pipeline (layout caching, damage-tracked repaints) must never change a
rendered byte, so this check compares every regenerated artifact
against its baseline and reports any drift.  It runs both as a CLI::

    python -m repro.tools.figcheck [baseline_dir artifact_dir]

and from the test suite (``tests/tools/test_figcheck.py``), so a
refactor that perturbs rendering fails CI instead of silently
rewriting the figures.
"""

from __future__ import annotations

import pathlib
import sys

from repro.tools.scenarios import GOLDENS, first_divergent_line, report

DEFAULT_PATTERN = "fig*.txt"


def compare(baseline_dir: str | pathlib.Path,
            artifact_dir: str | pathlib.Path,
            pattern: str = DEFAULT_PATTERN) -> list[str]:
    """Drift messages for every artifact that disagrees with its baseline.

    An artifact that has not been regenerated (benchmarks not run) is
    not drift; an artifact with no baseline at all is — it means a new
    figure appeared without a pinned reference.
    """
    baseline_dir = pathlib.Path(baseline_dir)
    artifact_dir = pathlib.Path(artifact_dir)
    problems: list[str] = []
    for artifact in sorted(artifact_dir.glob(pattern)):
        baseline = baseline_dir / artifact.name
        if not baseline.exists():
            problems.append(f"{artifact.name}: no baseline in {baseline_dir}")
            continue
        got = artifact.read_text()
        want = baseline.read_text()
        if got != want:
            line = first_divergent_line(want, got)
            problems.append(
                f"{artifact.name}: differs from baseline (first at line {line})")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2:
        baseline_dir, artifact_dir = args
    elif not args:
        baseline_dir = GOLDENS
        artifact_dir = GOLDENS.parents[1] / "bench_artifacts"
    else:
        print("usage: figcheck [baseline_dir artifact_dir]", file=sys.stderr)
        return 2
    return report("figcheck", compare(baseline_dir, artifact_dir),
                  "all figure artifacts match their baselines")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
