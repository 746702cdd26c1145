#!/usr/bin/env python3
"""Project lint for the pimba tree (see docs/static-analysis.md).

Four rules, each born from a regression this repo actually shipped or
measured:

  node-container   std::map / std::set / std::unordered_map /
                   std::unordered_set in the hot-path directories
                   (src/sim, src/serving, src/pim, src/cluster). The
                   self-benchmark showed the per-step unordered_map memo
                   dominating engine iteration; FlatTable (core/) is the
                   sanctioned replacement. Cold bookkeeping paths carry
                   an explicit suppression.

  bare-unit        `double <name>;` members whose name says the unit
                   (seconds / joules / bytes / watts) in a public header
                   outside core/units.h. Cost-carrying quantities must
                   use the strong types from core/units.h so dimensional
                   errors stay compile errors.

  docs-coverage    every bench/*.cpp binary must appear in
                   docs/figures.md, and every scenarios/*.json preset
                   must appear somewhere under docs/ or README.md.
                   Conversely, every `bench_*` binary and every
                   scenarios/*.json path that docs/figures.md names
                   must exist, so a deleted study cannot leave a stale
                   row behind. The figure map is the contract between
                   the runnable commands and the paper.

  memo-scope       a FlatTable or StepCostStore declared `static` or
                   `thread_local` under src/. A step-cost store belongs
                   to one fleet or one search: a process-wide memo
                   would leak warm entries into benchmark probes that
                   expect cold ones, and the simulator it holds is not
                   thread-safe, so sweep workers must not share it.

Suppression: append
    // pimba-lint: allow(<rule>) <justification>
on the offending line or the line directly above it. An allow without a
justification is itself an error — the point is a reviewed reason, not
a mute button.

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

HOT_DIRS = ("src/sim", "src/serving", "src/pim", "src/cluster")

NODE_CONTAINER_RE = re.compile(
    r"std::(?:unordered_)?(?:map|set)\s*<|#include\s*<(?:unordered_)?(?:map|set)>"
)

# A bare-double member whose identifier names a unit. Declarations only:
# lines with a '(' are signatures, which rule (b) does not police.
BARE_UNIT_RE = re.compile(
    r"^\s*double\s+\w*(?:seconds|joules|bytes|watts)\w*\s*(?:=[^;()]*)?;",
    re.IGNORECASE,
)

# A memo table or step-cost store with static or thread-local storage:
# the type comes before any '(' (a static function merely taking a
# store as a parameter stores nothing).
MEMO_SCOPE_RE = re.compile(
    r"\b(?:static|thread_local)\b[^(;]*\b(?:FlatTable|StepCostStores?)\b")

# Names docs/figures.md may cite that must resolve to a file.
BINARY_NAME_RE = re.compile(r"\bbench_\w+")
PRESET_PATH_RE = re.compile(r"\bscenarios/[\w.-]+\.json")

ALLOW_RE = re.compile(r"pimba-lint:\s*allow\((?P<rule>[\w-]+)\)\s*(?P<why>.*)")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(rule: str, lines: list[str], idx: int,
            findings: list[Finding], path: str) -> bool:
    """True when line idx (0-based) carries or inherits an allow(rule)."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if m and m.group("rule") == rule:
            if not m.group("why").strip():
                findings.append(Finding(
                    rule, path, probe + 1,
                    "allow() without a justification — say why"))
            return True
    return False


def iter_source(root: str, subdirs, exts):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def check_node_containers(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_source(root, HOT_DIRS, (".h", ".cpp")):
        rel = os.path.relpath(path, root)
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines):
            if not NODE_CONTAINER_RE.search(line):
                continue
            if allowed("node-container", lines, i, findings, rel):
                continue
            findings.append(Finding(
                "node-container", rel, i + 1,
                "node-based container on a hot path — use FlatTable "
                "(core/flat_table.h) or add a justified "
                "pimba-lint: allow(node-container)"))
    return findings


def check_bare_units(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_source(root, ("src",), (".h",)):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") == "src/core/units.h":
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines):
            if "(" in line or not BARE_UNIT_RE.match(line):
                continue
            if allowed("bare-unit", lines, i, findings, rel):
                continue
            findings.append(Finding(
                "bare-unit", rel, i + 1,
                "bare double carries a unit in its name — use the "
                "strong type from core/units.h (Seconds/Joules/Bytes/"
                "Watts) or add a justified pimba-lint: allow(bare-unit)"))
    return findings


def check_memo_scope(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_source(root, ("src",), (".h", ".cpp")):
        rel = os.path.relpath(path, root)
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines):
            if not MEMO_SCOPE_RE.search(line.split("//")[0]):
                continue
            if allowed("memo-scope", lines, i, findings, rel):
                continue
            findings.append(Finding(
                "memo-scope", rel, i + 1,
                "static or thread_local memo — a step-cost store "
                "belongs to one fleet or one search (StepCostStores), "
                "never to the process"))
    return findings


def check_docs_coverage(root: str) -> list[Finding]:
    findings: list[Finding] = []
    figures = os.path.join(root, "docs", "figures.md")
    figures_text = (
        open(figures, encoding="utf-8").read()
        if os.path.exists(figures) else "")
    bench_dir = os.path.join(root, "bench")
    if os.path.isdir(bench_dir):
        for name in sorted(os.listdir(bench_dir)):
            if not name.endswith(".cpp"):
                continue
            binary = name[:-len(".cpp")]
            if binary not in figures_text:
                findings.append(Finding(
                    "docs-coverage", "docs/figures.md", 1,
                    f"bench binary `{binary}` is not mapped to a paper "
                    "figure"))

    for i, line in enumerate(figures_text.splitlines()):
        for binary in BINARY_NAME_RE.findall(line):
            if not os.path.exists(os.path.join(bench_dir, binary + ".cpp")):
                findings.append(Finding(
                    "docs-coverage", "docs/figures.md", i + 1,
                    f"names bench binary `{binary}`, but "
                    f"bench/{binary}.cpp does not exist"))
        for preset in PRESET_PATH_RE.findall(line):
            if not os.path.exists(os.path.join(root, preset)):
                findings.append(Finding(
                    "docs-coverage", "docs/figures.md", i + 1,
                    f"names `{preset}`, which does not exist"))

    docs_text = figures_text
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for dirpath, _dirnames, filenames in os.walk(docs_dir):
            for name in sorted(filenames):
                if name.endswith(".md"):
                    docs_text += open(os.path.join(dirpath, name),
                                      encoding="utf-8").read()
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        docs_text += open(readme, encoding="utf-8").read()

    scenario_dir = os.path.join(root, "scenarios")
    if os.path.isdir(scenario_dir):
        for name in sorted(os.listdir(scenario_dir)):
            if name.endswith(".json") and name not in docs_text:
                findings.append(Finding(
                    "docs-coverage", f"scenarios/{name}", 1,
                    "scenario preset is not mentioned in docs/ or "
                    "README.md"))
    return findings


def run_all(root: str) -> list[Finding]:
    return (check_node_containers(root) + check_bare_units(root)
            + check_memo_scope(root) + check_docs_coverage(root))


# ----------------------------------------------------------- self-test

def self_test() -> int:
    """Seed one violation per rule in a scratch tree and insist the
    linter fires on each — and stays quiet on the clean variants."""
    failures = []

    def expect(name, findings, rule, count):
        got = [f for f in findings if f.rule == rule]
        if len(got) != count:
            failures.append(
                f"{name}: wanted {count} x {rule}, got "
                f"{[str(f) for f in findings]}")

    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src", "serving"))
        os.makedirs(os.path.join(root, "src", "core"))
        os.makedirs(os.path.join(root, "bench"))
        os.makedirs(os.path.join(root, "docs"))
        os.makedirs(os.path.join(root, "scenarios"))

        def write(rel, text):
            with open(os.path.join(root, rel), "w",
                      encoding="utf-8") as f:
                f.write(text)

        # Seeded violations.
        write("src/serving/hot.h",
              "#include <unordered_map>\n"
              "struct S { std::unordered_map<int, int> memo; };\n"
              "struct T {\n"
              "    double transferSeconds = 0.0;\n"
              "};\n")
        write("src/serving/memo.cpp",
              "static FlatTable<double> globalMemo;\n"
              "thread_local std::shared_ptr<StepCostStore> perThread;\n"
              "auto n = static_cast<int>(FlatTable<int>{}.size());\n"
              "static void fill(StepCostStore &store);\n"
              "// a static FlatTable would leak across fleets\n")
        write("bench/bench_unmapped.cpp", "int main() {}\n")
        write("docs/figures.md",
              "| `bench_mapped` | Fig. 0 |\n"
              "| `bench_deleted` | Fig. 9 | "
              "`pimba run scenarios/deleted.json` |\n")
        write("bench/bench_mapped.cpp", "int main() {}\n")
        write("scenarios/orphan.json", "{}\n")
        write("README.md", "nothing here\n")
        findings = run_all(root)
        expect("seeded", findings, "node-container", 2)
        expect("seeded", findings, "bare-unit", 1)
        # Both storage classes; static_cast, a store parameter and
        # comments do not count.
        expect("seeded", findings, "memo-scope", 2)
        # Unmapped bench, unmentioned preset, and the two stale names.
        expect("seeded", findings, "docs-coverage", 4)

        # Suppressions silence them; a bare allow() is itself flagged.
        write("src/serving/hot.h",
              "#include <unordered_map> "
              "// pimba-lint: allow(node-container) cold path\n"
              "// pimba-lint: allow(node-container) cold bookkeeping\n"
              "struct S { std::unordered_map<int, int> memo; };\n"
              "struct T {\n"
              "    Seconds transferSeconds;\n"
              "};\n")
        write("src/serving/memo.cpp",
              "// pimba-lint: allow(memo-scope) immutable lookup table\n"
              "static const FlatTable<double> table;\n"
              "StepCostStores stores(model);\n")
        write("docs/figures.md",
              "| `bench_mapped` | Fig. 0 |\n"
              "| `bench_unmapped` | simulator micro-bench |\n"
              "uses scenarios/orphan.json\n")
        findings = run_all(root)
        if findings:
            failures.append(
                f"clean tree still flagged: {[str(f) for f in findings]}")

        write("src/serving/hot.h",
              "// pimba-lint: allow(node-container)\n"
              "struct S { std::unordered_map<int, int> memo; };\n")
        findings = run_all(root)
        expect("bare allow", findings, "node-container", 1)

        # units.h itself may name units in doubles (conversion factors).
        write("src/core/units.h", "struct Q {\n    double seconds;\n};\n")
        findings = [f for f in run_all(root) if f.rule == "bare-unit"]
        if findings:
            failures.append("core/units.h must be exempt from bare-unit")

    if failures:
        for f in failures:
            print("self-test FAIL:", f, file=sys.stderr)
        return 2
    print("lint self-test: ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter against seeded violations")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = run_all(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
