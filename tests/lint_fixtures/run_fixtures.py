#!/usr/bin/env python3
"""Golden fixtures for pgasm-lint W001 and W007-W015, pgasm-model's source
conformance (P5), and pgasm-determcheck W016-W019.

Each wNNN_bad/ mini-tree seeds known violations (lines marked BAD) plus
waived/clean lines; the analyzer must flag exactly the seeded count, with
the right check and slug, and exit 1. The clean/ tree must produce zero
findings and exit 0 under both tools. The protocol_bad/ tree (stub
sources missing every handler identifier and state marker) must make
pgasm-model exit 1.

Also asserts the --format=json contract: finding IDs are present, carry
the right tool prefix (PL- for lint, PD- for determcheck), are stable
across runs, and unique within a run.

Usage: run_fixtures.py <path-to-pgasm_lint.py> [<path-to-pgasm-model>]
                       [<path-to-pgasm_determcheck.py>]
Exit 0 on success, 1 on any expectation failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    if cond:
        print(f"  ok: {what}")
    else:
        print(f"  FAIL: {what}")
        FAILURES.append(what)


def run_lint(lint: str, fixture: str, only: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, lint, "--root", str(HERE / fixture),
         "--only", only, "--format", "json"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode == 2:
        print(proc.stderr, file=sys.stderr)
        return 2, {}
    return proc.returncode, json.loads(proc.stdout)


def expect_findings(lint: str, fixture: str, only: str, count: int,
                    prefix: str = "PL-") -> dict:
    print(f"{fixture} --only {only}:")
    rc, out = run_lint(lint, fixture, only)
    check(rc == 1, f"exit code 1 (got {rc})")
    got = out.get("count", -1)
    check(got == count, f"{count} findings (got {got})")
    check(all(f["check"] == only for f in out.get("findings", [])),
          f"every finding is {only}")
    ids = [f["id"] for f in out.get("findings", [])]
    check(len(ids) == len(set(ids)), "finding IDs unique within the run")
    check(all(i.startswith(prefix) and len(i) == 15 for i in ids),
          f"finding IDs match {prefix}<12 hex>")
    return out


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    lint = sys.argv[1]
    model = sys.argv[2] if len(sys.argv) > 2 else None
    determcheck = sys.argv[3] if len(sys.argv) > 3 else None

    # Seeded-violation counts: keep in sync with the BAD markers in each
    # fixture source.
    w1 = expect_findings(lint, "w001_bad", "W001", 2)
    check(any("decode_lost" in f["message"] for f in w1["findings"]),
          "W001 names the undeclared decoder decode_lost")
    check(any("kTagQuiet" in f["message"] and "round-trip" in f["message"]
              for f in w1["findings"]),
          "W001 flags kTagQuiet's missing round-trip test")
    check(not any("kTagGood" in f["message"] for f in w1["findings"]),
          "W001 accepts try_decode_good for encode_good/decode_good")
    expect_findings(lint, "w007_bad", "W007", 5)
    expect_findings(lint, "w008_bad", "W008", 2)
    w9 = expect_findings(lint, "w009_bad", "W009", 2)
    check(any("kPing" in f["message"] for f in w9["findings"]),
          "W009 names the missing enumerator kPing")
    check(any("default" in f["message"] for f in w9["findings"]),
          "W009 flags the silent default")
    expect_findings(lint, "w010_bad", "W010", 2)
    expect_findings(lint, "w011_bad", "W011", 2)
    w12 = expect_findings(lint, "w012_bad", "W012", 3)
    check(any("cluter" in f["message"] for f in w12["findings"]),
          "W012 names the typo'd prefix cluter")
    w13 = expect_findings(lint, "w013_bad", "W013", 3)
    check(all(f["path"].startswith("src/core/") for f in w13["findings"]),
          "W013 never flags the src/vmpi/ mini-tree")
    w14 = expect_findings(lint, "w014_bad", "W014", 4)
    slugs = {f["slug"] for f in w14["findings"]}
    check(slugs == {"memory-order", "raw-atomic"},
          f"W014 exercises both slugs (got {sorted(slugs)})")
    check(not any(f["path"].startswith("src/vmpi/")
                  for f in w14["findings"]),
          "W014 never flags the approved src/vmpi/transport.hpp")
    w15 = expect_findings(lint, "w015_bad", "W015", 4)
    check(any("kTagOrphan" in f["message"] for f in w15["findings"]),
          "W015 finds the orphan tag minted far from any table")
    check(any("x2" in f["message"] for f in w15["findings"]),
          "W015 reports the duplicate-row count")

    print("clean --only W007..W010,W014,W015:")
    proc = subprocess.run(
        [sys.executable, lint, "--root", str(HERE / "clean"),
         "--only", "W007", "--only", "W008", "--only", "W009",
         "--only", "W010", "--only", "W014", "--only", "W015",
         "--format", "json"],
        capture_output=True, text=True, timeout=120)
    check(proc.returncode == 0, f"exit code 0 (got {proc.returncode})")
    clean = json.loads(proc.stdout or "{}")
    check(clean.get("count") == 0,
          f"zero findings on the clean tree (got {clean.get('count')})")

    print("ID stability:")
    _, again = run_lint(lint, "w010_bad", "W010")
    _, first = run_lint(lint, "w010_bad", "W010")
    check([f["id"] for f in first["findings"]]
          == [f["id"] for f in again["findings"]],
          "re-running produces identical finding IDs")

    if determcheck:
        # Seeded determinism violations: keep in sync with the BAD markers.
        w16 = expect_findings(determcheck, "w016_bad", "W016", 5, "PD-")
        check({f["slug"] for f in w16["findings"]} == {"unordered-iter"},
              "W016 findings all carry the unordered-iter slug")
        check(any(f["path"].endswith("lookup_filter.hpp")
                  for f in w16["findings"]),
              "W016 catches the pre-fix lookup_filter iteration")
        w17 = expect_findings(determcheck, "w017_bad", "W017", 6, "PD-")
        check({f["slug"] for f in w17["findings"]} == {"ptr-identity"},
              "W017 findings all carry the ptr-identity slug")
        w18 = expect_findings(determcheck, "w018_bad", "W018", 4, "PD-")
        check({f["slug"] for f in w18["findings"]} == {"fp-fold"},
              "W018 findings all carry the fp-fold slug")
        w19 = expect_findings(determcheck, "w019_bad", "W019", 5, "PD-")
        check({f["slug"] for f in w19["findings"]} == {"entropy"},
              "W019 findings all carry the entropy slug")
        check(not any(f["path"].startswith("src/vmpi/")
                      for f in w19["findings"]),
              "W019 never flags the approved src/vmpi/ mini-tree")

        print("clean under determcheck (all of W016-W019):")
        proc = subprocess.run(
            [sys.executable, determcheck, "--root", str(HERE / "clean"),
             "--format", "json"],
            capture_output=True, text=True, timeout=120)
        check(proc.returncode == 0,
              f"exit code 0 (got {proc.returncode})")
        dclean = json.loads(proc.stdout or "{}")
        check(dclean.get("count") == 0,
              f"zero determ findings on the clean tree "
              f"(got {dclean.get('count')})")

        print("determcheck ID stability:")
        _, dfirst = run_lint(determcheck, "w016_bad", "W016")
        _, dagain = run_lint(determcheck, "w016_bad", "W016")
        check([f["id"] for f in dfirst["findings"]]
              == [f["id"] for f in dagain["findings"]],
              "re-running determcheck produces identical finding IDs")
    else:
        print("pgasm_determcheck.py not supplied; skipping W016-W019")

    if model:
        print("protocol_bad via pgasm-model:")
        proc = subprocess.run(
            [model, "--workers=1", "--drops=0", "--crashes=0",
             f"--root={HERE / 'protocol_bad'}"],
            capture_output=True, text=True, timeout=120)
        check(proc.returncode == 1,
              f"exit code 1 on stub sources (got {proc.returncode})")
        check("marker" in proc.stdout,
              "pgasm-model names the missing state markers")
        check("no such identifier" in proc.stdout,
              "pgasm-model names the missing handler identifiers")
    else:
        print("pgasm-model binary not supplied; skipping protocol_bad")

    if FAILURES:
        print(f"\n{len(FAILURES)} fixture expectation(s) failed")
        return 1
    print("\nall fixture expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
