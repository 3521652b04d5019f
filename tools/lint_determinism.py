#!/usr/bin/env python3
"""Determinism lint for the hp2p simulation sources.

Simulation runs must be pure functions of (config, seed).  This lint rejects
the constructs that historically break that:

  unordered-iter   Iteration over a std::unordered_map/unordered_set
                   variable (range-for or explicit .begin()).  Iteration
                   order depends on hashing/allocation, so any loop that
                   feeds RNG draws, event scheduling, or exported metrics
                   from one leaks the allocator's layout into the run.
                   Use std::map/std::set or sort a snapshot.
  std-rand         std::rand / srand / random_shuffle: global hidden state,
                   unseeded by the run config.  Use hp2p::Rng.
  wallclock        Wall-clock reads (std::chrono system/steady/high-res
                   clocks, time(), gettimeofday): host time must never steer
                   sim behaviour.  Use sim::Simulator::now().
  addr-ordered     std::map/std::set/std::multimap/std::multiset keyed by a
                   raw pointer, or a std::priority_queue of pointers:
                   ordering follows allocation addresses, which differ run
                   to run.  Key by a stable dense index (arena slot, peer
                   id) instead -- the classic bug an index-arena refactor
                   can reintroduce by mixing pointers back in.
  addr-keyed       Pointer-keyed unordered container: hash order follows
                   allocation, so any iteration (now or added later) is
                   nondeterministic, and the unordered-iter rule cannot see
                   through aliases.  Key by stable index; suppress only for
                   provably lookup-only tables.

Escape hatch: a finding is suppressed when the same line or the line above
carries  // lint:allow(<rule>)  (e.g. measurement-only wall-clock reads).

Escapes are themselves audited:

  stale-escape     Every rule cited by a lint:allow must actually fire on
                   that line or the line below.  An escape that suppresses
                   nothing is a stale artifact of refactored code (or a
                   typo'd rule name rendering the escape inert) and would
                   silently swallow a future real finding at that site.
  stale-allowlist  Every WALLCLOCK_ALLOWED_FILES entry that is part of the
                   scanned set must still carry a wallclock escape;
                   otherwise the allowlist grants latitude nobody uses.

The wallclock escape is additionally gated by an audited allowlist: only the
files in WALLCLOCK_ALLOWED_FILES may carry // lint:allow(wallclock) at all
(the profiler's tick calibration and the experiment driver's phase timing).
A wallclock escape anywhere else is itself a finding -- extending the
allowlist is a reviewed change to this file, not a drive-by comment.

Usage: lint_determinism.py <dir-or-file>...   (exit 1 when findings remain)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)

# rule name -> (regex, message)
PATTERN_RULES = {
    "std-rand": (
        re.compile(r"std::rand\b|\bsrand\s*\(|std::random_shuffle\b"),
        "global C RNG / random_shuffle; use hp2p::Rng",
    ),
    "wallclock": (
        re.compile(
            r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
            r"|\bgettimeofday\s*\("
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        ),
        "wall-clock read in sim code; use sim::Simulator::now()",
    ),
    "addr-ordered": (
        re.compile(
            r"std::(?:map|set|multimap|multiset)\s*<\s*"
            r"(?:const\s+)?\w[\w:]*(?:\s+const)?\s*\*"
            r"|std::priority_queue\s*<\s*(?:const\s+)?\w[\w:]*(?:\s+const)?\s*\*"
        ),
        "pointer-keyed ordered container; ordering follows allocation",
    ),
    "addr-keyed": (
        re.compile(
            r"std::unordered_(?:map|set|multimap|multiset)\s*<\s*"
            r"(?:const\s+)?\w[\w:]*(?:\s+const)?\s*\*"
        ),
        "pointer-keyed unordered container; hash order follows allocation "
        "-- key by a stable index",
    ),
}

ALLOW = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Any lint:allow-shaped token in a comment, including ones ALLOW does not
# honor (mid-comment position, typo'd rule).  Used by the stale-escape
# audit: every such token must cite rules that actually fire here.
ESCAPE_TOKEN = re.compile(r"lint:allow\(([^)]*)\)")

ESCAPABLE_RULES = set(PATTERN_RULES) | {"unordered-iter"}

# The only files where // lint:allow(wallclock) is honored.  Both uses are
# measurement-only (values exported after the run, never fed back into
# event scheduling); anything new must be audited into this list.
WALLCLOCK_ALLOWED_FILES = (
    "src/stats/profiler.cpp",
    "src/exp/driver.hpp",
)


def wallclock_escape_allowed(path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(allowed) for allowed in WALLCLOCK_ALLOWED_FILES)


def strip_strings(line: str) -> str:
    """Blank out string/char literals so their contents can't match rules."""
    out = []
    quote = None
    prev = ""
    for ch in line:
        if quote:
            out.append("_")
            if ch == quote and prev != "\\":
                quote = None
            prev = "" if prev == "\\" else ch
        elif ch in "\"'":
            quote = ch
            out.append(ch)
            prev = ch
        else:
            out.append(ch)
            prev = ch
    return "".join(out)


def allowed_rules(lines: list[str], idx: int) -> set[str]:
    rules: set[str] = set()
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = ALLOW.search(lines[i])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def collect_unordered_names(text: str) -> set[str]:
    return set(UNORDERED_DECL.findall(text))


def lint_file(path: Path) -> tuple[list[tuple[Path, int, str, str]], bool]:
    """Lints one file.  Returns (findings, carries_wallclock_escape)."""
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    names = collect_unordered_names(text)
    iter_res = []
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        # range-for over the container (with optional member/deref prefix)
        iter_res.append(
            re.compile(
                r"for\s*\([^;()]*?:\s*[\w.\->*]*\b(?:%s)\b\s*\)" % alt
            )
        )
        # explicit iterator walk
        iter_res.append(re.compile(r"\b(?:%s)\b\s*\.\s*begin\s*\(" % alt))

    # Pass 1: which rules fire on each line (pre-suppression), and where
    # escape tokens sit.  Fire sets feed both the findings below and the
    # stale-escape audit (a cited rule must fire on the escape's own line
    # or the line below -- the two positions an escape is honored for).
    fires: list[set[str]] = []
    escapes: list[tuple[int, list[str]]] = []
    in_block_comment = False
    for idx, raw in enumerate(lines):
        line = raw
        # Cheap comment stripping: enough for lint purposes.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                fires.append(set())
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        stripped = strip_strings(line)
        code = stripped.split("//")[0]
        comment = stripped[len(code):]
        fired: set[str] = set()
        if code.strip():
            for rule, (rx, _msg) in PATTERN_RULES.items():
                if rx.search(code):
                    fired.add(rule)
            for rx in iter_res:
                if rx.search(code):
                    fired.add("unordered-iter")
                    break
        fires.append(fired)
        m = ESCAPE_TOKEN.search(comment)
        if m:
            escapes.append(
                (idx, [r.strip() for r in m.group(1).split(",") if r.strip()])
            )

    # Pass 2: findings = fires minus suppressions, plus the escape audits.
    findings = []
    for idx, fired in enumerate(fires):
        allowed = allowed_rules(lines, idx)
        if ("wallclock" in allowed_rules([lines[idx]], 0)
                and not wallclock_escape_allowed(path)):
            findings.append((
                path,
                idx + 1,
                "wallclock-escape",
                "lint:allow(wallclock) outside the audited allowlist "
                "(see WALLCLOCK_ALLOWED_FILES in lint_determinism.py)",
            ))
        for rule in sorted(fired - allowed):
            if rule == "unordered-iter":
                msg = "iteration over unordered container " \
                      "(nondeterministic order)"
            else:
                msg = PATTERN_RULES[rule][1]
            findings.append((path, idx + 1, rule, msg))

    saw_wallclock_escape = False
    for idx, cited in escapes:
        below = fires[idx + 1] if idx + 1 < len(fires) else set()
        for rule in cited:
            if rule == "wallclock":
                saw_wallclock_escape = True
            if rule not in ESCAPABLE_RULES:
                findings.append((
                    path,
                    idx + 1,
                    "stale-escape",
                    f"lint:allow cites unknown rule '{rule}'",
                ))
            elif rule not in fires[idx] and rule not in below:
                findings.append((
                    path,
                    idx + 1,
                    "stale-escape",
                    f"lint:allow({rule}) suppresses nothing here -- the "
                    "rule fires neither on this line nor the one below",
                ))
    return findings, saw_wallclock_escape


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    files: list[Path] = []
    for arg in argv[1:]:
        p = Path(arg)
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*")) if f.suffix in SOURCE_SUFFIXES
            )
        elif p.exists():
            files.append(p)
        else:
            print(f"lint_determinism: no such path: {p}", file=sys.stderr)
            return 2
    all_findings = []
    wallclock_escapes: dict[str, bool] = {}
    for f in files:
        findings, saw_wallclock = lint_file(f)
        all_findings.extend(findings)
        posix = f.as_posix()
        wallclock_escapes[posix] = wallclock_escapes.get(posix, False) \
            or saw_wallclock
    # stale-allowlist: an allowlisted file that is part of this scan but
    # carries no wallclock escape grants latitude nobody uses -- prune it.
    for allowed in WALLCLOCK_ALLOWED_FILES:
        scanned = [p for p in wallclock_escapes if p.endswith(allowed)]
        for p in scanned:
            if not wallclock_escapes[p]:
                all_findings.append((
                    Path(p),
                    1,
                    "stale-allowlist",
                    f"'{allowed}' is in WALLCLOCK_ALLOWED_FILES but carries "
                    "no lint:allow(wallclock) escape",
                ))
    for path, lineno, rule, msg in all_findings:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if all_findings:
        print(
            f"lint_determinism: {len(all_findings)} finding(s) in "
            f"{len(files)} file(s); suppress intentional uses with "
            "// lint:allow(<rule>)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_determinism: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
