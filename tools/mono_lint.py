#!/usr/bin/env python3
"""mono_lint: repo-specific determinism and event-discipline static analysis.

The cluster simulator's contract is "same seed => same schedule => same
figures" (DESIGN.md, "Determinism contract & static enforcement"). This linter
enforces the source-level rules that contract rests on, over the simulation
directories (src/simcore, src/cluster, src/monotask, src/multitask, src/model,
src/framework, src/storage, src/workloads):

  wall-clock      No std::chrono::{system,steady,high_resolution}_clock,
                  time(), gettimeofday(), or clock_gettime() in simulation
                  code. Virtual time comes from Simulation::now() only. The
                  real-time engine (src/engine, src/api) legitimately measures
                  wall time and is out of scope.

  entropy         No std::random_device, rand()/srand(), std::mt19937 or other
                  <random> engines/distributions (their outputs differ across
                  standard libraries), or std::random_shuffle. monoutil::Rng
                  (SplitMix64-seeded xoshiro256**) is the only entropy source.

  ptr-keyed-container
                  No unordered_map/unordered_set keyed by a pointer in
                  simulation code: iteration order follows the heap layout, so
                  any schedule decision derived from it silently depends on
                  allocator behaviour. Flagged at the container declaration.
                  If every access is a point lookup (find/emplace/erase, never
                  iteration), tag the declaration `// mono_lint: iteration-free`
                  -- but prefer keying by a stable id.

  address-ordered No std::map/std::set keyed by a pointer and no
                  std::less<T*>/std::greater<T*> comparators: address order is
                  allocation order, which is not reproducible.

  std-function-hot-path
                  (src/simcore, src/cluster, src/multitask and src/framework
                  only) No std::function in the event kernel, on the device
                  APIs (CPU pool, disks, buffer cache, fabric), in the Spark
                  executor's chunk pipeline, whose callbacks ride every chunk
                  event, or in the shared multitask lifecycle:
                  capturing beyond its small-buffer bound heap-allocates on
                  the schedule/fire path, which the pooled kernel exists to
                  avoid. Take a template callable and wrap it in
                  InlineCallback. Config-time uses (capacity models, setup
                  plumbing) tag `// mono_lint: allow(std-function-hot-path)`
                  with a comment saying why they are off the hot path.

  raw-unit-double (token-aware; simulation headers only) No new `double` or
                  `int64_t` parameter, member, or accessor whose name reads
                  like a time/rate/byte quantity (`latency`, `delay`,
                  `timeout`, `duration`, `*_time`, `*_bytes`, `bandwidth`,
                  `rate`, ...) in a simulation-dir API. Those quantities are
                  strong types now (monoutil::SimTime / Bytes /
                  BytesPerSecond, src/common/units.h); a raw double can be
                  swapped with any other double silently. Names that spell
                  their unit (`*_seconds`) and dimensionless shapes
                  (`*_fraction`, `*_ratio`, `*_scale`, `*_factor`) stay raw
                  by convention. Deliberately unit-agnostic APIs (FluidServer
                  work rates, RateTrace) tag
                  `// mono_lint: allow(raw-unit-double)` with the reason.

  include-layering
                  (token-aware; all of src/) #include edges must follow the
                  declared layer DAG (LAYER_DEPS below). In particular the
                  simulation stack must never include src/engine or src/api:
                  the simulator is deterministic virtual time, the engine is
                  wall clock, and an include edge from sim to engine would
                  let wall-clock types leak into schedule decisions.

Cross-TU rules. These run over a project-wide index: every class in src/ is
recorded with its file, its `MONO_SIM_OWNED` lifetime marker
(src/simcore/simulation.h), its component-typed members, its pass-through
accessors (methods returning a component by reference/pointer) and the
methods its body declares; a derived class inherits its bases' marker,
members and accessors. Member-access chains such as
`cluster_->machine(m).disk(d).Read(...)` are resolved through that index.

  escaping-capture
                  A lambda passed to a deferring API (Simulation::ScheduleAt /
                  ScheduleAfter / AtEpochEnd, FluidServer::Submit,
                  DiskSim::Read/Write, BufferCacheSim::Write/WriteSync,
                  NetworkFabricSim::StartFlow/SendControl, the monotask
                  resource schedulers' Enqueue*/Acquire, and the engine's
                  SubmitDag/SubmitDetached/Submit) outlives the current
                  frame. It must not capture by reference (`[&]`, `[&x]`) or
                  capture the address of a local in an init-capture. `this`
                  may be captured only in classes marked MONO_SIM_OWNED in
                  their header, or derived from one (the object outlives the
                  simulation run);
                  anything else needs an audited
                  `// mono_lint: allow(escaping-capture) -- <why safe>` tag.

  lock-across-schedule
                  (src/engine only) No call to a deferring or blocking API
                  (scheduler Submit, SubmitDag, SubmitDetached, the `submit_`
                  routing callback, fabric Transfer, block-device Read/Write)
                  on a path that token analysis shows inside a `MutexLock`
                  scope: the callee may block on a device or take another
                  scheduler's mutex, inverting lock order.

Tree-only checks (always on when linting with --root and no explicit files):

  unmapped-dir    Every directory under src/ must appear in DIR_RULES. A new
                  directory must be placed in the layer DAG and rule map
                  explicitly, not silently skipped.

  stale-deferring-api
                  Every (class, method) in DEFERRING_METHODS must name an
                  indexed class whose body declares that method. Renaming a
                  component or one of its deferring APIs would otherwise
                  switch escaping-capture off for it silently.

  suppression-hygiene
                  Every `// mono_lint: allow(rule)` tag must carry a trailing
                  reason on the same line and name a known rule; a tag that
                  suppresses nothing is stale and reported as unused.

Benchmark sources (bench/) are additionally checked against the entropy rule
only: benches measure wall time legitimately, but must seed exclusively through
monoutil::Rng so the run digest recorded in BENCH_*.json is same-schedule.

Suppressions, on the flagged line or the line directly above it:
  // mono_lint: iteration-free            (ptr-keyed-container only)
  // mono_lint: allow(<rule>) -- <why>    (any rule; the reason is required)

Exit status: 0 when clean, 1 when violations were found (or the --budget
was exceeded), 2 on usage errors.

Usage:
  mono_lint.py --root <repo-root>                # lint the tree
  mono_lint.py --root <repo-root> file.cc ...    # lint specific files with
                                                 # the full rule set (fixtures)
  mono_lint.py --root . --stats-json out.json --budget-seconds 5
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
import time
from typing import Iterable, NamedTuple

# Rule name -> list of (compiled regex, human message).
RULES: dict[str, list[tuple[re.Pattern[str], str]]] = {
    "wall-clock": [
        (
            re.compile(
                r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            ),
            "wall-clock source in simulation code; use Simulation::now()",
        ),
        (
            re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
            "wall-clock syscall in simulation code; use Simulation::now()",
        ),
        (
            re.compile(r"(?<![\w:.>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
            "time() in simulation code; use Simulation::now()",
        ),
    ],
    "entropy": [
        (
            re.compile(r"std::random_device|\brandom_device\b"),
            "std::random_device is non-reproducible; seed a monoutil::Rng",
        ),
        (
            re.compile(r"(?<![\w:.>])s?rand\s*\("),
            "rand()/srand() is a hidden global entropy source; use monoutil::Rng",
        ),
        (
            re.compile(
                r"\b(mt19937(_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux\w+|knuth_b)\b"
            ),
            "<random> engines vary across platforms; use monoutil::Rng",
        ),
        (
            re.compile(
                r"\b(uniform_int_distribution|uniform_real_distribution|"
                r"normal_distribution|exponential_distribution|"
                r"bernoulli_distribution|poisson_distribution)\b"
            ),
            "<random> distributions vary across standard libraries; "
            "use monoutil::Rng's distribution helpers",
        ),
        (
            re.compile(r"\brandom_shuffle\s*\("),
            "std::random_shuffle uses unspecified entropy; "
            "shuffle with monoutil::Rng::NextBelow",
        ),
    ],
    "ptr-keyed-container": [
        (
            re.compile(r"\bunordered_(map|set)\s*<\s*(const\s+)?[\w:]+\s*\*"),
            "pointer-keyed unordered container: iteration order is heap order; "
            "key by a stable id, or tag `// mono_lint: iteration-free` if it is "
            "never iterated",
        ),
    ],
    "address-ordered": [
        (
            re.compile(r"\bstd::(map|set)\s*<\s*(const\s+)?[\w:]+\s*\*"),
            "std::map/std::set keyed by a pointer orders by address, which is "
            "allocation order; key by a stable id",
        ),
        (
            re.compile(r"\bstd::(less|greater)\s*<\s*(const\s+)?[\w:]+\s*\*"),
            "address-ordered comparator; compare stable ids instead",
        ),
    ],
    "std-function-hot-path": [
        (
            re.compile(r"\bstd::function\s*<"),
            "std::function in the event kernel heap-allocates per oversize "
            "capture on the schedule/fire path; take a template callable and "
            "wrap it in InlineCallback, or tag a config-time use "
            "`// mono_lint: allow(std-function-hot-path)`",
        ),
    ],
}

# Token-aware rules (implemented as passes over the token stream rather than
# line regexes) and their messages.
TOKEN_RULES = {
    "raw-unit-double": (
        "raw double/int64_t carries a unit-bearing name in a simulation API; "
        "use monoutil::SimTime / Bytes / BytesPerSecond (src/common/units.h), "
        "spell the unit in the name (*_seconds), or tag "
        "`// mono_lint: allow(raw-unit-double)` with the reason"
    ),
    "include-layering": (
        "include edge violates the layer DAG"
    ),
    "escaping-capture": (
        "lambda passed to a deferring API escapes the current frame; capture "
        "by value, or tag `// mono_lint: allow(escaping-capture)` with the "
        "lifetime argument"
    ),
    "lock-across-schedule": (
        "deferring/blocking call while a MutexLock is held; collect work "
        "under the lock and submit after releasing it"
    ),
}

# Checks that only make sense over the whole tree (enabled automatically in
# tree mode; not selectable through --rules).
TREE_RULES = ("unmapped-dir", "stale-deferring-api", "suppression-hygiene")

ALL_RULES = tuple(RULES) + tuple(TOKEN_RULES)

# ---------------------------------------------------------------------------
# raw-unit-double: name classification.
# ---------------------------------------------------------------------------

# A declaration name that implies a unit-bearing quantity. Matched against the
# lower-cased identifier.
UNIT_NAME = re.compile(
    r"(^|_)bytes($|_)|bytes_per_second|"
    r"(^|_)bandwidth$|(^|_)rate$|_bps$|"
    r"latency|(^|_)delay$|deadline|timeout|duration|(^|_)interval$|(^|_)time$"
)

# Names that are allowed to stay raw: the unit is spelled out (`*_seconds` is
# the sanctioned raw boundary for work amounts and telemetry aggregates), or
# the quantity is dimensionless.
UNIT_NAME_EXEMPT = re.compile(
    r"seconds|_scale$|(^|_)fraction(s)?$|(^|_)ratio(s)?$|(^|_)factor(s)?$|_cv$")

# Tokens that may follow `double <name>` in a parameter, member, or accessor
# declaration. Anything else (e.g. `>` in a template argument) is not a
# declaration of a named quantity.
DECLARATION_FOLLOWERS = frozenset({",", ";", "=", ")", "{", "("})

TOKEN_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|::|[0-9][\w.+-]*|\S")

# ---------------------------------------------------------------------------
# include-layering: the declared layer DAG.
# ---------------------------------------------------------------------------

# Layer -> layers it may #include (besides itself and non-src system headers).
# src/engine and src/api are the wall-clock world; nothing in the simulation
# stack may depend on them.
LAYER_DEPS: dict[str, tuple[str, ...]] = {
    "src/common": (),
    "src/simcore": ("src/common",),
    "src/storage": ("src/common",),
    "src/cluster": ("src/common", "src/simcore"),
    "src/framework": ("src/common", "src/simcore", "src/storage", "src/cluster"),
    "src/model": ("src/common", "src/simcore", "src/cluster", "src/framework"),
    "src/monotask": (
        "src/common", "src/simcore", "src/storage", "src/cluster", "src/framework"),
    "src/multitask": (
        "src/common", "src/simcore", "src/storage", "src/cluster", "src/framework"),
    "src/workloads": (
        "src/common", "src/simcore", "src/storage", "src/cluster", "src/framework"),
    "src/engine": ("src/common",),
    "src/api": ("src/common", "src/engine", "src/model", "src/cluster",
                "src/framework", "src/simcore", "src/storage"),
}

INCLUDE_DIRECTIVE = re.compile(r'^\s*#\s*include\s*"(src/[\w./-]+)"')

# ---------------------------------------------------------------------------
# Per-directory rule map. Every directory under src/ MUST appear here (the
# unmapped-dir tree check enforces it): a new directory gets a deliberate
# placement in the layer DAG and rule set, never a silent skip.
# ---------------------------------------------------------------------------

CROSS_TU_RULES = ("escaping-capture",)

# The deterministic simulation stack: everything except the
# std-function-hot-path rule, plus the cross-TU discipline rules. The kernel,
# the device layer, the Spark executor and the framework (the multitask
# lifecycle both executors share) take every rule: their callbacks ride each
# event.
_SIM_RULE_SET = tuple(r for r in RULES if r != "std-function-hot-path") + (
    "raw-unit-double", "include-layering") + CROSS_TU_RULES
_HOT_PATH_RULE_SET = tuple(RULES) + ("raw-unit-double",
                                     "include-layering") + CROSS_TU_RULES

DIR_RULES: dict[str, tuple[str, ...]] = {
    "src/simcore": _HOT_PATH_RULE_SET,
    "src/cluster": _HOT_PATH_RULE_SET,
    "src/monotask": _SIM_RULE_SET,
    "src/multitask": _HOT_PATH_RULE_SET,
    "src/model": _SIM_RULE_SET,
    "src/framework": _HOT_PATH_RULE_SET,
    "src/storage": _SIM_RULE_SET,
    "src/workloads": _SIM_RULE_SET,
    # The layer boundary and lambda discipline still hold in the wall-clock
    # world; wall clock, std::function, and raw doubles are legitimate there.
    "src/common": ("include-layering",),
    "src/engine": ("include-layering", "escaping-capture",
                   "lock-across-schedule"),
    "src/api": ("include-layering", "escaping-capture"),
}

# Directories linted with a reduced rule set (wall time is legitimate there,
# entropy is not).
BENCH_DIRS = ("bench",)
BENCH_RULES = ("entropy",)

SOURCE_SUFFIXES = (".h", ".cc", ".cpp", ".hpp")

SUPPRESS_ALLOW = re.compile(r"//\s*mono_lint:\s*allow\(([\w,\- ]+)\)")
SUPPRESS_ITERFREE = re.compile(r"//\s*mono_lint:\s*iteration-free\b")

# ---------------------------------------------------------------------------
# Cross-TU rule tables. The stale-deferring-api tree check keeps
# DEFERRING_METHODS in step with the classes it names.
# ---------------------------------------------------------------------------

# Deferring APIs reached through a bare name: these exist only on Simulation,
# so no receiver resolution is needed.
BARE_DEFERRING = ("ScheduleAt", "ScheduleAfter", "AtEpochEnd")

# Deferring APIs reached through a resolved receiver: (class, method). The
# callback argument outlives the call.
DEFERRING_METHODS = frozenset({
    # Qualified kernel scheduling (`sim_->ScheduleAfter(...)`) resolves here
    # rather than through BARE_DEFERRING.
    ("Simulation", "ScheduleAt"), ("Simulation", "ScheduleAfter"),
    ("Simulation", "AtEpochEnd"),
    ("FluidServer", "Submit"),
    ("DiskSim", "Read"), ("DiskSim", "Write"),
    ("BufferCacheSim", "Write"), ("BufferCacheSim", "WriteSync"),
    ("NetworkFabricSim", "StartFlow"), ("NetworkFabricSim", "SendControl"),
    ("SlotSchedulerSim", "Enqueue"),
    ("SlotSchedulerSim", "EnqueueRead"), ("SlotSchedulerSim", "EnqueueWrite"),
    ("NetworkSchedulerSim", "Acquire"),
    ("SparkExecutorSim", "ServeRead"),
    ("LocalDagScheduler", "SubmitDag"),
    ("Worker", "SubmitDetached"),
    ("ResourceScheduler", "Submit"),
})

# Engine calls that defer or block (lock-across-schedule). `submit_` is the
# LocalDagScheduler's routing callback into Worker::Route -> scheduler Submit.
ENGINE_BLOCKING_FUNCTORS = ("submit_",)

# STL container operations. A member declared `std::vector<MachineSim> ms_`
# indexes as type MachineSim, so `ms_.size()` would otherwise be read as a
# component method call. Pure container ops terminate analysis; element
# accessors (back/front/at) pass the chain through to the element type.
CONTAINER_METHODS = frozenset({
    "size", "empty", "begin", "end", "rbegin", "rend", "cbegin", "cend",
    "clear", "erase", "insert", "emplace", "push_back", "pop_back",
    "emplace_back", "resize", "reserve", "find", "count", "contains", "swap",
})
CONTAINER_PASSTHROUGH = frozenset({"back", "front", "at"})

CPP_KEYWORDS = frozenset({
    "if", "for", "while", "return", "switch", "case", "new", "delete",
    "sizeof", "const", "constexpr", "static", "class", "struct", "enum",
    "namespace", "using", "template", "typename", "public", "private",
    "protected", "virtual", "override", "final", "auto", "void", "int",
    "bool", "double", "float", "char", "else", "do", "break", "continue",
    "this", "operator", "true", "false", "nullptr", "friend", "explicit",
    "inline", "mutable", "noexcept", "default",
})

IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")

SIM_OWNED_DECL = re.compile(r"\bMONO_SIM_OWNED\b")


class Violation(NamedTuple):
    path: pathlib.Path
    line_number: int  # 1-based
    rule: str
    message: str
    line: str


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Returns `line` with comments and string/char literal contents blanked.

    Keeps column positions stable (replaced with spaces). `in_block_comment`
    carries /* ... */ state across lines.
    """
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            out.append(" " * (n - i))
            i = n
        elif ch == "/" and nxt == "*":
            in_block_comment = True
            out.append("  ")
            i += 2
        elif ch in "\"'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                elif line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                else:
                    out.append(" ")
                    i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out), in_block_comment


def strip_lines(raw_lines: list[str]) -> list[str]:
    code_lines: list[str] = []
    in_block = False
    for raw in raw_lines:
        code, in_block = strip_code_line(raw, in_block)
        code_lines.append(code)
    return code_lines


def tokenize(code_lines: list[str]) -> list[tuple[str, int]]:
    """Flattens comment/string-stripped lines into (token, 1-based line)."""
    tokens: list[tuple[str, int]] = []
    for line_number, code in enumerate(code_lines, start=1):
        for match in TOKEN_PATTERN.finditer(code):
            tokens.append((match.group(0), line_number))
    return tokens


def is_ident(token: str) -> bool:
    return bool(IDENT_RE.match(token)) and token not in CPP_KEYWORDS


def skip_balanced(tokens: list[tuple[str, int]], i: int, open_t: str,
                  close_t: str) -> int:
    """tokens[i] == open_t; returns the index of the matching close token."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


# ---------------------------------------------------------------------------
# Suppressions, with a trailing-reason requirement and use tracking.
# ---------------------------------------------------------------------------


class Directive(NamedTuple):
    line: int               # 1-based line the directive sits on
    rules: tuple[str, ...]  # rules it suppresses
    has_reason: bool        # trailing reason text after the tag
    is_allow: bool          # allow(...) form (vs iteration-free)
    text: str


class SuppressionMap:
    """Parses `// mono_lint:` directives and tracks which ones fired.

    A directive suppresses matches on its own line and the line directly
    below it.
    """

    def __init__(self, raw_lines: list[str]) -> None:
        self.directives: list[Directive] = []
        self._cover: dict[tuple[int, str], int] = {}
        self.used: set[int] = set()
        for line_number, raw in enumerate(raw_lines, start=1):
            match = SUPPRESS_ALLOW.search(raw)
            if match:
                rules = tuple(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip())
                rest = raw[match.end():]
                self._add(Directive(line_number, rules,
                                    bool(re.search(r"\w", rest)), True,
                                    raw.strip()))
            if SUPPRESS_ITERFREE.search(raw):
                self._add(Directive(line_number, ("ptr-keyed-container",),
                                    True, False, raw.strip()))

    def _add(self, directive: Directive) -> None:
        idx = len(self.directives)
        self.directives.append(directive)
        for rule in directive.rules:
            for covered in (directive.line, directive.line + 1):
                self._cover.setdefault((covered, rule), idx)

    def suppressed(self, line: int, rule: str) -> bool:
        idx = self._cover.get((line, rule))
        if idx is None:
            return False
        self.used.add(idx)
        return True

    def hygiene_violations(self, path: pathlib.Path) -> list[Violation]:
        """Reason-required and unknown-rule checks (every mode)."""
        violations = []
        for directive in self.directives:
            if not directive.is_allow:
                continue
            for rule in directive.rules:
                if rule not in ALL_RULES:
                    violations.append(Violation(
                        path, directive.line, "suppression-hygiene",
                        f"allow({rule}) names an unknown rule; known: "
                        f"{', '.join(ALL_RULES)}", directive.text))
            if not directive.has_reason:
                violations.append(Violation(
                    path, directive.line, "suppression-hygiene",
                    "allow(...) tag without a trailing reason; write "
                    "`// mono_lint: allow(rule) -- <why this is safe>`",
                    directive.text))
        return violations

    def unused_violations(self, path: pathlib.Path) -> list[Violation]:
        """Stale-directive check (tree mode only)."""
        violations = []
        for idx, directive in enumerate(self.directives):
            if idx in self.used:
                continue
            # A directive that also failed hygiene is already reported.
            if directive.is_allow and any(
                    rule not in ALL_RULES for rule in directive.rules):
                continue
            violations.append(Violation(
                path, directive.line, "suppression-hygiene",
                "unused suppression: nothing on this or the next line "
                "triggers "
                f"{', '.join(directive.rules)}; delete the stale tag",
                directive.text))
        return violations


# ---------------------------------------------------------------------------
# Project index: classes, members, accessors (cross-TU rules).
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ClassInfo:
    name: str
    path: pathlib.Path
    line: int
    sim_owned: bool = False
    # member name -> component class name (includes container-of-component
    # members: `vector<unique_ptr<SlotSchedulerSim>> disks` maps disks ->
    # SlotSchedulerSim; chain resolution skips the subscript).
    members: dict[str, str] = dataclasses.field(default_factory=dict)
    # method name -> component class it returns by reference/pointer
    # (pass-through accessors; chain resolution continues through them).
    accessors: dict[str, str] = dataclasses.field(default_factory=dict)
    # Names declared `name(` directly in the class body (methods, plus the
    # odd macro or initializer: the stale-deferring-api check only asks
    # whether a name is there).
    methods: frozenset[str] = frozenset()


@dataclasses.dataclass
class ProjectIndex:
    classes: dict[str, ClassInfo] = dataclasses.field(default_factory=dict)


class _ClassRegion(NamedTuple):
    name: str
    start_line: int
    end_line: int
    methods: frozenset[str]


# Head tokens that are not base-class names: `class D final : public B {`.
_BASE_HEAD_WORDS = frozenset({"final", "public", "protected", "private",
                              "virtual"})


def _class_heads(
        tokens: list[tuple[str, int]]) -> dict[int, tuple[str, list[str]]]:
    """Token index of each class/struct body's `{` -> (class name, the
    identifiers after `:` in its head: its base classes)."""
    n = len(tokens)
    heads: dict[int, tuple[str, list[str]]] = {}
    i = 0
    while i < n:
        tok = tokens[i][0]
        if (tok in ("class", "struct") and i + 1 < n
                and is_ident(tokens[i + 1][0])
                and (i == 0 or tokens[i - 1][0] != "enum")):
            j = i + 2
            while j < n and tokens[j][0] not in (";", "{", "(", ")"):
                j += 1
            if j < n and tokens[j][0] == "{":
                head = [t for t, _ in tokens[i + 2:j]]
                bases = head[head.index(":") + 1:] if ":" in head else []
                heads[j] = (tokens[i + 1][0],
                            [t for t in bases if is_ident(t)
                             and t not in _BASE_HEAD_WORDS])
                i += 2
                continue
        i += 1
    return heads


def _class_opens(tokens: list[tuple[str, int]]) -> dict[int, str]:
    """Token index of each class/struct body's `{` -> the class name."""
    return {brace: name for brace, (name, _) in _class_heads(tokens).items()}


def _class_regions(tokens: list[tuple[str, int]]) -> list[_ClassRegion]:
    """Class/struct definition regions (name, line range, declared names)."""
    n = len(tokens)
    opens = _class_opens(tokens)
    regions: list[_ClassRegion] = []
    # (name, open line, brace depth of the body, names declared in it)
    stack: list[tuple[str, int, int, set[str]]] = []
    depth = 0
    for idx in range(n):
        tok, line = tokens[idx]
        if tok == "{":
            depth += 1
            if idx in opens:
                stack.append((opens[idx], line, depth, set()))
        elif tok == "}":
            if stack and stack[-1][2] == depth:
                name, start, _, methods = stack.pop()
                regions.append(
                    _ClassRegion(name, start, line, frozenset(methods)))
            depth -= 1
        elif (stack and stack[-1][2] == depth and idx + 1 < n
              and tokens[idx + 1][0] == "(" and is_ident(tok)
              and tokens[idx - 1][0] not in (".", "->")):
            stack[-1][3].add(tok)
    return regions


def build_index(paths: Iterable[pathlib.Path]) -> ProjectIndex:
    """Two-pass symbol index over `paths` (headers and sources)."""
    filedata = []
    names: set[str] = set()
    bases: dict[str, list[str]] = {}
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        code_lines = strip_lines(text.splitlines())
        tokens = tokenize(code_lines)
        regions = _class_regions(tokens)
        names.update(region.name for region in regions)
        for name, parents in _class_heads(tokens).values():
            bases.setdefault(name, parents)
        filedata.append((path, code_lines, regions))

    index = ProjectIndex()
    for path, _, regions in filedata:
        for region in regions:
            if region.name not in index.classes:
                index.classes[region.name] = ClassInfo(
                    region.name, path, region.start_line,
                    methods=region.methods)

    if not names:
        return index
    name_alt = "|".join(sorted(names, key=len, reverse=True))
    member_re = re.compile(
        rf"\b({name_alt})\b[^();]*?\b([A-Za-z_]\w*)\s*(?:;|=|\{{)")
    accessor_re = re.compile(rf"\b({name_alt})\s*[&*]\s*([A-Za-z_]\w*)\s*\(")

    for _, code_lines, regions in filedata:
        # Innermost-region attribution: larger regions first so nested
        # structs overwrite their enclosing class on shared lines.
        line_class: dict[int, str] = {}
        for region in sorted(regions,
                             key=lambda r: r.end_line - r.start_line,
                             reverse=True):
            for line in range(region.start_line, region.end_line + 1):
                line_class[line] = region.name
        for line_number, code in enumerate(code_lines, start=1):
            cls = line_class.get(line_number)
            if cls is None:
                continue
            info = index.classes[cls]
            if SIM_OWNED_DECL.search(code):
                info.sim_owned = True
            for m in accessor_re.finditer(code):
                info.accessors[m.group(2)] = m.group(1)
            for m in member_re.finditer(code):
                if m.group(2) not in info.accessors:
                    info.members[m.group(2)] = m.group(1)

    # A derived class inherits its bases' members, accessors and
    # MONO_SIM_OWNED marker: a derived executor's code (and a task reaching
    # through it) names the base's components, and lives as long as the base.
    def inherit(info: ClassInfo, seen: set[str]) -> None:
        for parent in bases.get(info.name, []):
            base = index.classes.get(parent)
            if base is None or parent in seen:
                continue
            seen.add(parent)
            inherit(base, seen)
            for name, ctype in base.members.items():
                info.members.setdefault(name, ctype)
            for name, ctype in base.accessors.items():
                info.accessors.setdefault(name, ctype)
            info.sim_owned = info.sim_owned or base.sim_owned

    for info in index.classes.values():
        inherit(info, {info.name})
    return index


# ---------------------------------------------------------------------------
# Scope tracking: which class encloses each token.
# ---------------------------------------------------------------------------

# Tokens that, immediately before `X` in `X::y(`, mean the mention is a call
# or a type usage rather than an out-of-line method definition.
_DEF_PREV_EXCLUDE = frozenset({
    "return", "(", ",", "=", "::", ".", "->", "!", "<", "+", "-", "/", "?",
    ":", "case", "|", "^",
})


def compute_scopes(tokens: list[tuple[str, int]],
                   index: ProjectIndex) -> list[str | None]:
    """Per token: the enclosing class (its body or an out-of-line method
    definition), or None."""
    n = len(tokens)
    opens = _class_opens(tokens)

    # Out-of-line definitions: Class :: [~] Method ( ... ) [quals] {
    i = 1
    while i < n - 3:
        if (tokens[i + 1][0] == "::" and is_ident(tokens[i][0])
                and tokens[i][0] in index.classes
                and tokens[i - 1][0] not in _DEF_PREV_EXCLUDE):
            k = i + 2
            if k < n and tokens[k][0] == "~":
                k += 1
            if k + 1 < n and is_ident(tokens[k][0]) and tokens[k + 1][0] == "(":
                close = skip_balanced(tokens, k + 1, "(", ")")
                j = close + 1
                body = None
                guard = 0
                while j < n and guard < 400:
                    tj = tokens[j][0]
                    if tj == "{":
                        body = j
                        break
                    if tj in (";", "}"):
                        break
                    if tj == "(":
                        j = skip_balanced(tokens, j, "(", ")")
                    j += 1
                    guard += 1
                if body is not None and body not in opens:
                    opens[body] = tokens[i][0]
                i = close
                continue
        i += 1

    encl: list[str | None] = [None] * n
    stack: list[str | None] = []
    cur: str | None = None
    for idx in range(n):
        tok = tokens[idx][0]
        if tok == "{":
            stack.append(cur)
            cur = opens.get(idx, cur)
        encl[idx] = cur
        if tok == "}" and stack:
            cur = stack.pop()
    return encl


# ---------------------------------------------------------------------------
# Chain resolution.
# ---------------------------------------------------------------------------


class _Terminal(NamedTuple):
    receiver: str        # component class of the final receiver
    member: str          # method name
    line: int
    args_open: int       # token index of the call's '('
    args_close: int


def _skip_subscripts(tokens: list[tuple[str, int]], j: int) -> int:
    while j < len(tokens) and tokens[j][0] == "[":
        j = skip_balanced(tokens, j, "[", "]") + 1
    return j


def resolve_chain(tokens: list[tuple[str, int]], i: int, ctype: str,
                  index: ProjectIndex) -> _Terminal | None:
    """Resolves `x->a(...).b(...)` starting at identifier token i of type ctype.

    Pass-through accessors (methods returning a component by ref/ptr) and
    component-typed fields continue the chain; the first other method call is
    the terminal. Any other field access ends the chain with None.
    """
    n = len(tokens)
    j = _skip_subscripts(tokens, i + 1)
    for _ in range(24):
        if j >= n or tokens[j][0] not in (".", "->"):
            return None
        if j + 1 >= n or not is_ident(tokens[j + 1][0]):
            return None
        name = tokens[j + 1][0]
        line = tokens[j + 1][1]
        info = index.classes[ctype]
        if j + 2 < n and tokens[j + 2][0] == "(":
            close = skip_balanced(tokens, j + 2, "(", ")")
            after = tokens[close + 1][0] if close + 1 < n else ";"
            if name in info.accessors and after in (".", "->", "["):
                ctype = info.accessors[name]
                if ctype not in index.classes:
                    return None
                j = _skip_subscripts(tokens, close + 1)
                continue
            if name in CONTAINER_PASSTHROUGH and after in (".", "->", "["):
                # back()/front()/at() on a container member yield the element
                # type, which is what the member already indexed as.
                j = _skip_subscripts(tokens, close + 1)
                continue
            if name in CONTAINER_METHODS:
                return None  # Container op, not a component method.
            return _Terminal(ctype, name, line, j + 2, close)
        after_tok = tokens[j + 2][0] if j + 2 < n else ";"
        if name not in info.members or after_tok not in (".", "->", "["):
            return None  # A plain field access ends the chain.
        ctype = info.members[name]
        if ctype not in index.classes:
            return None
        j = _skip_subscripts(tokens, j + 2)
    return None


# ---------------------------------------------------------------------------
# Cross-TU pass: escaping-capture, lock-across-schedule.
# ---------------------------------------------------------------------------

_LAMBDA_PREV = frozenset({"(", ",", "{", ";", "=", "return"})


def _split_captures(group_tokens: list[str]) -> list[list[str]]:
    groups: list[list[str]] = []
    cur: list[str] = []
    depth = 0
    for tok in group_tokens:
        if tok in ("(", "{", "["):
            depth += 1
        elif tok in (")", "}", "]"):
            depth -= 1
        if tok == "," and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(tok)
    if cur:
        groups.append(cur)
    return groups


def _lambda_capture_violations(
    path: pathlib.Path,
    raw_lines: list[str],
    tokens: list[tuple[str, int]],
    start: int,
    end: int,
    sim_owned: bool,
    encl_cls: str | None,
    smap: SuppressionMap,
) -> list[Violation]:
    """Flags escaping captures in every lambda between token start..end."""
    violations: list[Violation] = []
    k = start
    n = len(tokens)
    while k <= end and k < n:
        tok, line = tokens[k]
        if tok == "[" and k > 0 and tokens[k - 1][0] in _LAMBDA_PREV:
            close = skip_balanced(tokens, k, "[", "]")
            after = tokens[close + 1][0] if close + 1 < n else ""
            if after not in ("(", "{", "mutable", "noexcept", "->"):
                k += 1
                continue
            problems: list[str] = []
            for group in _split_captures(
                    [t for t, _ in tokens[k + 1:close]]):
                if not group:
                    continue
                if group == ["&"]:
                    problems.append(
                        "[&] default capture is by reference")
                elif group[0] == "&":
                    problems.append(
                        f"`&{group[1] if len(group) > 1 else ''}` captures "
                        "by reference")
                elif group == ["this"]:
                    if not sim_owned:
                        owner = encl_cls or "this context"
                        problems.append(
                            f"`this` captured but {owner} is not marked "
                            "MONO_SIM_OWNED (object may die before the "
                            "event fires)")
                elif "=" in group:
                    eq = group.index("=")
                    if "&" in group[eq + 1:]:
                        problems.append(
                            f"init-capture `{group[0]}` takes an address")
            if problems and not smap.suppressed(line, "escaping-capture"):
                for problem in problems:
                    violations.append(Violation(
                        path, line, "escaping-capture",
                        f"{problem}; " + TOKEN_RULES["escaping-capture"],
                        raw_lines[line - 1].strip()))
            k = close + 1
            continue
        k += 1
    return violations


def _collect_local_types(tokens: list[tuple[str, int]],
                         index: ProjectIndex) -> dict[str, str]:
    """File-wide `KnownClass [&*] name = ...` local declarations."""
    local_types: dict[str, str] = {}
    n = len(tokens)
    for i in range(n - 3):
        t0 = tokens[i][0]
        if t0 not in index.classes:
            continue
        if i > 0 and tokens[i - 1][0] in (".", "->", "::", "class", "struct",
                                          "enum", "friend", "<"):
            continue
        t1, t2, t3 = tokens[i + 1][0], tokens[i + 2][0], tokens[i + 3][0]
        if t1 in ("&", "*") and is_ident(t2) and t3 == "=":
            local_types[t2] = t0
        elif is_ident(t1) and t2 == "=":
            local_types[t1] = t0
    return local_types


def analyze_cross_tu(
    path: pathlib.Path,
    raw_lines: list[str],
    tokens: list[tuple[str, int]],
    rules: Iterable[str],
    index: ProjectIndex,
    smap: SuppressionMap,
) -> list[Violation]:
    rules = set(rules)
    check_escape = "escaping-capture" in rules
    check_lock = "lock-across-schedule" in rules
    if not (check_escape or check_lock):
        return []

    violations: list[Violation] = []
    encl = compute_scopes(tokens, index)
    local_types = _collect_local_types(tokens, index)
    n = len(tokens)
    depth = 0
    lock_depths: list[int] = []
    i = 0

    def flag_lock(line: int) -> None:
        if not smap.suppressed(line, "lock-across-schedule"):
            violations.append(Violation(
                path, line, "lock-across-schedule",
                TOKEN_RULES["lock-across-schedule"],
                raw_lines[line - 1].strip()))

    while i < n:
        tok, line = tokens[i]
        if tok == "{":
            depth += 1
            i += 1
            continue
        if tok == "}":
            depth -= 1
            while lock_depths and lock_depths[-1] > depth:
                lock_depths.pop()
            i += 1
            continue
        if (check_lock and tok == "MutexLock" and i + 2 < n
                and is_ident(tokens[i + 1][0]) and tokens[i + 2][0] == "("):
            lock_depths.append(depth)
            i += 3
            continue
        if (check_lock and lock_depths
                and tok in ENGINE_BLOCKING_FUNCTORS and i + 1 < n
                and tokens[i + 1][0] == "("):
            flag_lock(line)
            i += 1
            continue
        if tok in BARE_DEFERRING and i + 1 < n and tokens[i + 1][0] == "(":
            close = skip_balanced(tokens, i + 1, "(", ")")
            cls = encl[i]
            info = index.classes.get(cls) if cls else None
            if check_escape:
                violations.extend(_lambda_capture_violations(
                    path, raw_lines, tokens, i + 2, close,
                    bool(info and info.sim_owned), cls, smap))
            if check_lock and lock_depths:
                flag_lock(line)
            i += 1  # Keep scanning inside the argument list.
            continue
        if is_ident(tok) and (i == 0
                              or tokens[i - 1][0] not in (".", "->", "::")):
            ctype = local_types.get(tok)
            if ctype is None:
                cls = encl[i]
                cinfo = index.classes.get(cls) if cls else None
                if cinfo:
                    ctype = cinfo.members.get(tok)
            if ctype and ctype in index.classes:
                terminal = resolve_chain(tokens, i, ctype, index)
                if terminal:
                    if (terminal.receiver, terminal.member) in DEFERRING_METHODS:
                        cls = encl[i]
                        info = index.classes.get(cls) if cls else None
                        if check_escape:
                            violations.extend(_lambda_capture_violations(
                                path, raw_lines, tokens, terminal.args_open + 1,
                                terminal.args_close,
                                bool(info and info.sim_owned), cls, smap))
                        if check_lock and lock_depths:
                            flag_lock(terminal.line)
                    # Advance past the member token; argument lists are still
                    # scanned (nested chains and lambdas live there).
                    i = terminal.args_open - 1
        i += 1
    # Nested deferring calls scan overlapping argument spans (the outer span
    # contains the inner call's lambdas); keep the first report of each.
    return list(dict.fromkeys(violations))


# ---------------------------------------------------------------------------
# Single-file checks (regex rules, raw-unit-double, include-layering).
# ---------------------------------------------------------------------------


def layer_of(path: pathlib.Path) -> str | None:
    """The `src/<dir>` layer `path` belongs to, or None outside src/."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1):
        if parts[i] == "src":
            layer = f"src/{parts[i + 1]}"
            if layer in LAYER_DEPS:
                return layer
    return None


def check_raw_unit_double(
    path: pathlib.Path,
    tokens: list[tuple[str, int]],
    raw_lines: list[str],
    smap: SuppressionMap,
) -> list[Violation]:
    """Token pass: `double`/`int64_t` declarations with unit-bearing names."""
    violations: list[Violation] = []
    for i, (token, _) in enumerate(tokens):
        if token not in ("double", "int64_t") or i + 2 > len(tokens) - 1:
            continue
        name, name_line = tokens[i + 1]
        follower = tokens[i + 2][0]
        if not re.match(r"[A-Za-z_]", name) or follower not in DECLARATION_FOLLOWERS:
            continue
        ident = name.lower()
        if not UNIT_NAME.search(ident) or UNIT_NAME_EXEMPT.search(ident):
            continue
        if smap.suppressed(name_line, "raw-unit-double"):
            continue
        violations.append(
            Violation(path, name_line, "raw-unit-double",
                      f"`{token} {name}`: " + TOKEN_RULES["raw-unit-double"],
                      raw_lines[name_line - 1].strip()))
    return violations


def check_include_layering(
    path: pathlib.Path,
    raw_lines: list[str],
    layer: str,
    smap: SuppressionMap,
) -> list[Violation]:
    """#include edges must stay inside the declared layer DAG."""
    violations: list[Violation] = []
    allowed = {layer, *LAYER_DEPS[layer]}
    for line_number, raw in enumerate(raw_lines, start=1):
        match = INCLUDE_DIRECTIVE.match(raw)
        if not match:
            continue
        include_layer = "/".join(match.group(1).split("/")[:2])
        if include_layer in allowed or include_layer not in LAYER_DEPS:
            continue
        if smap.suppressed(line_number, "include-layering"):
            continue
        violations.append(
            Violation(path, line_number, "include-layering",
                      f"{layer} may not include {include_layer} "
                      f"(allowed: {', '.join(sorted(allowed))})",
                      raw.strip()))
    return violations


class LintResult(NamedTuple):
    violations: list[Violation]
    smap: SuppressionMap


def _lint_file_ex(
    path: pathlib.Path,
    rules: Iterable[str],
    layer: str | None = None,
    index: ProjectIndex | None = None,
    stats: dict | None = None,
) -> LintResult:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        raise SystemExit(f"mono_lint: cannot read {path}: {err}")
    rules = tuple(rules)
    raw_lines = text.splitlines()
    code_lines = strip_lines(raw_lines)
    smap = SuppressionMap(raw_lines)
    tokens = tokenize(code_lines)

    def tick(phase: str, started: float) -> None:
        if stats is not None:
            phases = stats.setdefault("phases", {})
            phases[phase] = phases.get(phase, 0.0) + (
                time.perf_counter() - started)

    violations: list[Violation] = list(smap.hygiene_violations(path))

    for rule in rules:
        if rule not in RULES:
            continue
        started = time.perf_counter()
        for line_number, (code, raw) in enumerate(
                zip(code_lines, raw_lines), start=1):
            if smap._cover.get((line_number, rule)) is not None:
                if any(pattern.search(code) for pattern, _ in RULES[rule]):
                    smap.suppressed(line_number, rule)
                continue
            for pattern, message in RULES[rule]:
                if pattern.search(code):
                    violations.append(
                        Violation(path, line_number, rule, message,
                                  raw.strip()))
                    break  # One report per rule per line.
        tick(rule, started)

    if "raw-unit-double" in rules and path.suffix in (".h", ".hpp"):
        started = time.perf_counter()
        violations.extend(check_raw_unit_double(path, tokens, raw_lines, smap))
        tick("raw-unit-double", started)
    if "include-layering" in rules:
        file_layer = layer if layer is not None else layer_of(path)
        if file_layer is not None:
            started = time.perf_counter()
            violations.extend(
                check_include_layering(path, raw_lines, file_layer, smap))
            tick("include-layering", started)

    if any(rule in rules for rule in
           CROSS_TU_RULES + ("lock-across-schedule",)):
        if index is None:
            index = build_index([path])
        started = time.perf_counter()
        violations.extend(
            analyze_cross_tu(path, raw_lines, tokens, rules, index, smap))
        tick("cross-tu", started)

    return LintResult(violations, smap)


def lint_file(
    path: pathlib.Path,
    rules: Iterable[str],
    layer: str | None = None,
    index: ProjectIndex | None = None,
) -> list[Violation]:
    return _lint_file_ex(path, rules, layer=layer, index=index).violations


def iter_sources(root: pathlib.Path, directory: str) -> Iterable[pathlib.Path]:
    base = root / directory
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


def check_deferring_table(index: ProjectIndex,
                          where: pathlib.Path) -> list[Violation]:
    """stale-deferring-api: each DEFERRING_METHODS entry names a method that
    its indexed class declares. `where` locates a class that was not found."""
    violations: list[Violation] = []
    for cls, method in sorted(DEFERRING_METHODS):
        info = index.classes.get(cls)
        if info is None:
            problem = f"no class {cls} was indexed"
        elif method not in info.methods:
            problem = f"{cls} declares no {method}"
        else:
            continue
        violations.append(Violation(
            info.path if info else where, info.line if info else 0,
            "stale-deferring-api",
            f"DEFERRING_METHODS names {cls}::{method}, but {problem}; update "
            "the table, or escaping-capture stops checking that API", ""))
    return violations


def lint_tree(root: pathlib.Path, stats: dict | None = None) -> list[Violation]:
    violations: list[Violation] = []

    started = time.perf_counter()
    src_files = [p for d in sorted(DIR_RULES) for p in iter_sources(root, d)]
    index = build_index(src_files)
    if stats is not None:
        stats.setdefault("phases", {})["index"] = (
            time.perf_counter() - started)
        stats["files"] = len(src_files)

    # unmapped-dir: every directory under src/ must have an explicit rule set.
    src_dir = root / "src"
    if src_dir.is_dir():
        for child in sorted(src_dir.iterdir()):
            if child.is_dir() and f"src/{child.name}" not in DIR_RULES:
                violations.append(Violation(
                    child, 0, "unmapped-dir",
                    f"src/{child.name} is not in mono_lint's DIR_RULES / "
                    "layer DAG; add it with an explicit rule set",
                    ""))

    violations.extend(check_deferring_table(index, src_dir))

    for directory in sorted(DIR_RULES):
        for path in iter_sources(root, directory):
            result = _lint_file_ex(path, DIR_RULES[directory], index=index,
                                   stats=stats)
            violations.extend(result.violations)
            violations.extend(result.smap.unused_violations(path))
    for directory in BENCH_DIRS:
        for path in iter_sources(root, directory):
            result = _lint_file_ex(path, BENCH_RULES, index=index,
                                   stats=stats)
            violations.extend(result.violations)
            violations.extend(result.smap.unused_violations(path))
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=pathlib.Path,
                        help="repository root")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated rule subset (explicit files only)")
    parser.add_argument("--layer", default=None,
                        help="treat explicit files as members of this layer "
                             "(include-layering; e.g. src/simcore)")
    parser.add_argument("--stats-json", default=None, type=pathlib.Path,
                        help="write per-rule timing and finding counts here")
    parser.add_argument("--budget-seconds", default=None, type=float,
                        help="fail if the full run exceeds this wall-clock "
                             "budget")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="lint these files (full rule set) instead of the tree")
    args = parser.parse_args(argv)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for rule in rules:
        if rule not in ALL_RULES:
            parser.error(f"unknown rule {rule!r}; known: {', '.join(ALL_RULES)}")
    if args.layer is not None and args.layer not in LAYER_DEPS:
        parser.error(f"unknown layer {args.layer!r}; "
                     f"known: {', '.join(LAYER_DEPS)}")

    stats: dict = {"phases": {}}
    run_started = time.perf_counter()
    if args.files:
        index = build_index(args.files)
        violations = []
        for path in args.files:
            violations.extend(
                lint_file(path, rules, layer=args.layer, index=index))
    else:
        violations = lint_tree(args.root, stats=stats)
    elapsed = time.perf_counter() - run_started

    violations.sort(key=lambda v: (str(v.path), v.line_number, v.rule))
    for v in violations:
        try:
            shown = v.path.resolve().relative_to(args.root.resolve())
        except ValueError:
            shown = v.path
        print(f"{shown}:{v.line_number}: [{v.rule}] {v.message}")
        if v.line:
            print(f"    {v.line}")

    if args.stats_json is not None:
        findings: dict[str, int] = {
            rule: 0 for rule in ALL_RULES + TREE_RULES}
        for v in violations:
            findings[v.rule] = findings.get(v.rule, 0) + 1
        payload = {
            "total_seconds": round(elapsed, 4),
            "files": stats.get("files", len(args.files)),
            "budget_seconds": args.budget_seconds,
            # Phase seconds: one entry per regex rule plus "index",
            # "raw-unit-double", "include-layering", and "cross-tu" (the
            # shared pass behind escaping-capture and
            # lock-across-schedule).
            "phase_seconds": {
                k: round(s, 4) for k, s in sorted(stats["phases"].items())},
            "findings": findings,
        }
        args.stats_json.write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")

    status = 0
    if violations:
        print(f"mono_lint: {len(violations)} violation(s)", file=sys.stderr)
        status = 1
    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        print(f"mono_lint: run took {elapsed:.2f}s, over the "
              f"{args.budget_seconds:.2f}s budget", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
