"""Claim C7: the system is small — "4300 lines of C".

The reproduction's *core* (the help program proper: editor, windows,
placement, execution, file server) should be of the same order.  The
substrates (shell, browser, debugger, mail, mk) are counted
separately: on Plan 9 they already existed.  So is the serving stack
(the session journal and the multi-session host, shards and replicas),
which the paper's one-user program never needed; the last row counts
every Python line under ``src/repro``, so deletions anywhere show.
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

CORE_PACKAGES = ("core", "helpfs")
SUBSTRATE_PACKAGES = ("fs", "shell", "proc", "cbrowse", "mail", "mk",
                      "tools", "metrics")
SERVING_PACKAGES = ("journal", "serve")


def count_lines(packages):
    total = 0
    per_package = {}
    for package in packages:
        lines = sum(len(path.read_text().splitlines())
                    for path in (SRC / package).glob("*.py"))
        per_package[package] = lines
        total += lines
    return total, per_package


def test_claim_loc(benchmark, save_artifact):
    (core_total, core_detail) = benchmark(lambda: count_lines(CORE_PACKAGES))
    substrate_total, substrate_detail = count_lines(SUBSTRATE_PACKAGES)
    rows = ["paper's help: 4300 lines of C"]
    rows.append(f"our core (help itself): {core_total} lines of Python")
    for package, lines in sorted(core_detail.items()):
        rows.append(f"  {package:10s} {lines:6d}")
    rows.append(f"substrates (Plan 9 gave the paper these for free): "
                f"{substrate_total}")
    for package, lines in sorted(substrate_detail.items()):
        rows.append(f"  {package:10s} {lines:6d}")
    serving_total, serving_detail = count_lines(SERVING_PACKAGES)
    rows.append(f"serving stack (beyond the paper): {serving_total}")
    for package, lines in sorted(serving_detail.items()):
        rows.append(f"  {package:10s} {lines:6d}")
    whole = sum(len(path.read_text().splitlines())
                for path in SRC.rglob("*.py"))
    rows.append(f"whole tree (src/repro): {whole}")
    save_artifact("claim_loc", "\n".join(rows) + "\n")
    print("\n[C7] " + rows[1])
    # same order of magnitude as the original's 4300
    assert 1500 < core_total < 10000
