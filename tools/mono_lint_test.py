#!/usr/bin/env python3
"""Unit tests for mono_lint: each rule class must fire on its fixture and stay
quiet on clean/suppressed code. Run by CTest as `mono_lint_unit`."""

from __future__ import annotations

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import mono_lint  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"


def rules_found(name: str, rules=mono_lint.ALL_RULES) -> list[str]:
    return [v.rule for v in mono_lint.lint_file(FIXTURES / name, rules)]


def cross_tu_found(name: str, rules) -> list[mono_lint.Violation]:
    """Lints one fixture with an index built from that fixture alone."""
    path = FIXTURES / name
    index = mono_lint.build_index([path])
    return mono_lint.lint_file(path, rules, index=index)


class WallClockRuleTest(unittest.TestCase):
    def test_flags_every_wall_clock_source(self) -> None:
        found = rules_found("bad_wall_clock.cc")
        self.assertEqual(set(found), {"wall-clock"})
        # steady_clock, system_clock, time(), high_resolution_clock.
        self.assertEqual(len(found), 4)


class EntropyRuleTest(unittest.TestCase):
    def test_flags_every_entropy_source(self) -> None:
        found = rules_found("bad_entropy.cc")
        self.assertEqual(set(found), {"entropy"})
        # random_device, mt19937_64, distribution, srand, rand.
        self.assertEqual(len(found), 5)

    def test_rand_only_flagged_as_a_call(self) -> None:
        violations = mono_lint.lint_file(FIXTURES / "bad_entropy.cc", ["entropy"])
        self.assertTrue(any("rand" in v.line for v in violations))


class PtrKeyedContainerRuleTest(unittest.TestCase):
    def test_flags_pointer_keyed_unordered_containers(self) -> None:
        found = rules_found("bad_ptr_map.cc")
        self.assertEqual(set(found), {"ptr-keyed-container"})
        self.assertEqual(len(found), 2)  # One map, one set.


class AddressOrderedRuleTest(unittest.TestCase):
    def test_flags_address_ordered_containers_and_comparators(self) -> None:
        found = rules_found("bad_address_ordered.cc")
        self.assertEqual(set(found), {"address-ordered"})
        self.assertEqual(len(found), 3)  # set, map, std::less comparator.


class StdFunctionHotPathRuleTest(unittest.TestCase):
    def test_flags_std_function_in_kernel_code(self) -> None:
        found = rules_found("bad_std_function.cc")
        self.assertEqual(set(found), {"std-function-hot-path"})
        # Member declaration + schedule-path signature; the allow-tagged
        # config-time alias and the comment/string mentions stay quiet.
        self.assertEqual(len(found), 2)

    def test_rule_is_scoped_to_the_kernel_devices_and_executors(self) -> None:
        # Only src/simcore, src/cluster, src/multitask and src/framework are
        # linted with the rule: the Spark executor's per-chunk plumbing and
        # the shared multitask lifecycle ride every event, the other layers
        # hand their callbacks to the device APIs, which wrap them once, and
        # config-time std::function there is legitimate.
        hot = [d for d, rules in mono_lint.DIR_RULES.items()
               if "std-function-hot-path" in rules]
        self.assertEqual(hot, ["src/simcore", "src/cluster", "src/multitask",
                               "src/framework"])
        self.assertIn("std-function-hot-path", mono_lint.ALL_RULES)

    def test_device_api_std_function_fails_the_tree(self) -> None:
        # A std::function parameter on a device API in src/cluster, in the
        # Spark executor (src/multitask) or in the shared executor base
        # (src/framework) fails the tree; the same declaration in the
        # monotask executor's directory does not.
        import tempfile
        device_api = (
            "#include <functional>\n"
            "namespace monosim {\n"
            "class MachineLike {\n"
            " public:\n"
            "  void RunCompute(double cpu_seconds, std::function<void()> done);\n"
            "};\n"
            "}  // namespace monosim\n")
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for directory in ("cluster", "framework", "monotask", "multitask"):
                (root / "src" / directory).mkdir(parents=True)
                (root / "src" / directory / "machine_like.h").write_text(device_api)
            flagged = [v for v in mono_lint.lint_tree(root)
                       if v.rule == "std-function-hot-path"]
            self.assertEqual(sorted(v.path.parent.name for v in flagged),
                             ["cluster", "framework", "multitask"])
            self.assertEqual({v.line_number for v in flagged}, {5})


class RawUnitDoubleRuleTest(unittest.TestCase):
    def test_flags_unit_named_raw_declarations(self) -> None:
        violations = mono_lint.lint_file(
            FIXTURES / "bad_raw_unit_double.h", ["raw-unit-double"])
        self.assertEqual({v.rule for v in violations}, {"raw-unit-double"})
        # latency member, total_bytes member, bandwidth parameter, duration
        # parameter (on a continuation line — token-aware, not line-regex),
        # and the bandwidth() accessor.
        self.assertEqual(len(violations), 5)
        flagged = {v.line.split(";")[0].strip() for v in violations}
        self.assertIn("double latency", flagged)
        self.assertIn("int64_t total_bytes = 0", flagged)

    def test_exempt_names_and_tags_stay_quiet(self) -> None:
        violations = mono_lint.lint_file(
            FIXTURES / "bad_raw_unit_double.h", ["raw-unit-double"])
        quiet = ("cpu_seconds", "load_fraction", "time_scale", "rate = 0.0",
                 "seconds()", "count_")
        for v in violations:
            for name in quiet:
                self.assertNotIn(name, v.line)

    def test_rule_is_scoped_to_headers(self) -> None:
        # The API boundary is headers; .cc locals routinely unwrap via
        # .bps()/.seconds()/.count() and are not flagged.
        fixture = FIXTURES / "bad_raw_unit_double.h"
        renamed = fixture.read_text()
        cc_twin = FIXTURES / "bad_raw_unit_double_twin.cc"
        try:
            cc_twin.write_text(renamed)
            self.assertEqual(
                mono_lint.lint_file(cc_twin, ["raw-unit-double"]), [])
        finally:
            cc_twin.unlink()


class IncludeLayeringRuleTest(unittest.TestCase):
    def test_flags_edges_outside_the_layer_dag(self) -> None:
        violations = mono_lint.lint_file(
            FIXTURES / "bad_include_layering.cc", ["include-layering"],
            layer="src/simcore")
        self.assertEqual({v.rule for v in violations}, {"include-layering"})
        # engine, api, and cluster are all unreachable from simcore.
        self.assertEqual(len(violations), 3)
        flagged = "".join(v.line for v in violations)
        self.assertIn("src/engine/worker.h", flagged)
        self.assertIn("src/api/context.h", flagged)
        self.assertIn("src/cluster/network.h", flagged)

    def test_no_sim_layer_may_reach_engine_or_api(self) -> None:
        for layer, deps in mono_lint.LAYER_DEPS.items():
            if layer in ("src/engine", "src/api"):
                continue
            self.assertNotIn("src/engine", deps, layer)
            self.assertNotIn("src/api", deps, layer)

    def test_declared_dag_is_acyclic(self) -> None:
        seen: dict[str, int] = {}  # 0 = visiting, 1 = done.

        def visit(layer: str) -> None:
            state = seen.get(layer)
            self.assertNotEqual(state, 0, f"cycle through {layer}")
            if state == 1:
                return
            seen[layer] = 0
            for dep in mono_lint.LAYER_DEPS[layer]:
                visit(dep)
            seen[layer] = 1

        for layer in mono_lint.LAYER_DEPS:
            visit(layer)

    def test_files_outside_src_have_no_layer(self) -> None:
        self.assertIsNone(mono_lint.layer_of(FIXTURES / "good_clean.cc"))
        self.assertEqual(
            mono_lint.layer_of(pathlib.Path("src/simcore/simulation.h")),
            "src/simcore")


class CleanCodeTest(unittest.TestCase):
    def test_clean_fixture_has_no_violations(self) -> None:
        self.assertEqual(rules_found("good_clean.cc"), [])

    def test_suppression_is_rule_specific(self) -> None:
        # `iteration-free` must not silence other rules on the same line.
        path = FIXTURES / "bad_ptr_map.cc"
        violations = mono_lint.lint_file(path, ["wall-clock"])
        self.assertEqual(violations, [])


class RuleSubsetTest(unittest.TestCase):
    def test_bench_rule_subset_ignores_wall_clock(self) -> None:
        # bench/ sources are linted with the entropy rule only; a bench-style
        # wall-clock fixture must pass under that subset.
        found = rules_found("bad_wall_clock.cc", mono_lint.BENCH_RULES)
        self.assertEqual(found, [])

    def test_every_layer_has_an_explicit_rule_set(self) -> None:
        # DIR_RULES and the layer DAG must cover exactly the same directories:
        # the unmapped-dir tree check relies on this being exhaustive.
        self.assertEqual(sorted(mono_lint.DIR_RULES), sorted(mono_lint.LAYER_DEPS))

    def test_determinism_rules_stay_out_of_the_wall_clock_world(self) -> None:
        # src/engine and src/api run on real threads and the real clock; only
        # the layer boundary and the lambda/lock discipline apply there.
        for directory in ("src/common", "src/engine", "src/api"):
            rules = set(mono_lint.DIR_RULES[directory])
            self.assertNotIn("wall-clock", rules, directory)
            self.assertNotIn("entropy", rules, directory)
            self.assertIn("include-layering", rules, directory)
        self.assertIn("lock-across-schedule", mono_lint.DIR_RULES["src/engine"])
        self.assertIn("escaping-capture", mono_lint.DIR_RULES["src/engine"])
        self.assertIn("escaping-capture", mono_lint.DIR_RULES["src/api"])

    def test_cross_tu_rules_are_active_in_sim_dirs(self) -> None:
        for directory in ("src/simcore", "src/cluster", "src/monotask",
                          "src/multitask", "src/framework", "src/storage"):
            rules = set(mono_lint.DIR_RULES[directory])
            self.assertIn("escaping-capture", rules, directory)
            self.assertIn("raw-unit-double", rules, directory)
            self.assertIn("include-layering", rules, directory)


class EscapingCaptureRuleTest(unittest.TestCase):
    def test_firing_fixture_flags_every_escape_form(self) -> None:
        violations = cross_tu_found("bad_escaping_capture.cc",
                                    ["escaping-capture"])
        self.assertEqual({v.rule for v in violations}, {"escaping-capture"})
        # &local, [&] default, `this` in a non-sim-owned class, init-capture
        # taking an address, and &local through an accessor chain.
        self.assertEqual(len(violations), 5)
        joined = " ".join(v.message for v in violations)
        self.assertIn("`&local_total`", joined)
        self.assertIn("[&] default capture", joined)
        self.assertIn("`this` captured", joined)
        self.assertIn("init-capture `total`", joined)
        self.assertTrue(any("machine_->disk(0).Read" in v.line
                            for v in violations))

    def test_clean_twin_is_quiet(self) -> None:
        self.assertEqual(
            cross_tu_found("good_escaping_capture.cc", ["escaping-capture"]),
            [])


class LockAcrossScheduleRuleTest(unittest.TestCase):
    def test_firing_fixture_flags_calls_under_the_lock(self) -> None:
        violations = cross_tu_found("bad_lock_across_schedule.cc",
                                    ["lock-across-schedule"])
        self.assertEqual({v.rule for v in violations},
                         {"lock-across-schedule"})
        # Scheduler Submit, the submit_ routing functor, and bare
        # ScheduleAfter, all inside the MutexLock scope.
        self.assertEqual(len(violations), 3)

    def test_clean_twin_submits_after_release(self) -> None:
        self.assertEqual(
            cross_tu_found("good_lock_across_schedule.cc",
                           ["lock-across-schedule"]),
            [])


class ProjectIndexTest(unittest.TestCase):
    def test_members_accessors_and_declared_methods(self) -> None:
        index = mono_lint.build_index([FIXTURES / "bad_escaping_capture.cc"])
        task = index.classes["TaskSim"]
        machine = index.classes["MachineSim"]
        self.assertFalse(task.sim_owned)
        self.assertEqual(task.members.get("machine_"), "MachineSim")
        self.assertEqual(task.members.get("disk_"), "SlotSchedulerSim")
        self.assertEqual(machine.members.get("disks_"), "DiskSim")
        self.assertEqual(machine.accessors.get("disk"), "DiskSim")
        self.assertNotIn("disk", machine.members)
        self.assertIn("Read", index.classes["DiskSim"].methods)
        self.assertEqual(task.methods, {"Run", "Done"})

    def test_sim_owned_flag_is_indexed(self) -> None:
        index = mono_lint.build_index([FIXTURES / "good_escaping_capture.cc"])
        self.assertTrue(index.classes["OwnedTaskSim"].sim_owned)
        self.assertFalse(index.classes["SlotSchedulerSim"].sim_owned)

    def test_members_and_sim_ownership_are_inherited(self) -> None:
        # A derived executor reaches its base's components and is owned like
        # its base; a task reaching a component through the derived executor
        # is still resolved, so its `this` capture is checked.
        import tempfile
        source = (
            "class DiskSim {\n"
            " public:\n"
            "  void Read(long bytes, Callback done);\n"
            "};\n"
            "class BaseExecutor {\n"
            " public:\n"
            "  MONO_SIM_OWNED;\n"
            " protected:\n"
            "  DiskSim* disk_;\n"
            "};\n"
            "class Executor final : public BaseExecutor {\n"
            "  void Serve();\n"
            "};\n"
            "class TaskSim {\n"
            "  void Run();\n"
            "  Executor* executor_;\n"
            "};\n"
            "void Executor::Serve() { disk_->Read(1, [this] {}); }\n"
            "void TaskSim::Run() { executor_->disk_->Read(1, [this] {}); }\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "inherited.cc"
            path.write_text(source)
            index = mono_lint.build_index([path])
            executor = index.classes["Executor"]
            self.assertTrue(executor.sim_owned)
            self.assertEqual(executor.members.get("disk_"), "DiskSim")
            violations = mono_lint.lint_file(path, ["escaping-capture"],
                                             index=index)
        self.assertEqual([v.line_number for v in violations], [19])
        self.assertIn("TaskSim is not marked MONO_SIM_OWNED",
                      violations[0].message)


class StaleDeferringApiTest(unittest.TestCase):
    def test_missing_table_entry_is_reported(self) -> None:
        # The fixture declares DiskSim::Read but no DiskSim::Write, and no
        # FluidServer at all; both DEFERRING_METHODS entries must be named.
        fixture = FIXTURES / "bad_escaping_capture.cc"
        index = mono_lint.build_index([fixture])
        violations = mono_lint.check_deferring_table(index, FIXTURES)
        self.assertEqual({v.rule for v in violations}, {"stale-deferring-api"})
        messages = [v.message for v in violations]
        self.assertTrue(any("DiskSim::Write, but DiskSim declares no Write"
                            in m for m in messages))
        self.assertTrue(any("FluidServer::Submit, but no class FluidServer"
                            in m for m in messages))
        self.assertFalse(any("DiskSim::Read," in m for m in messages))
        self.assertFalse(any("SlotSchedulerSim::EnqueueRead," in m
                             for m in messages))


class SuppressionHygieneTest(unittest.TestCase):
    def test_tag_without_a_reason_is_flagged(self) -> None:
        scratch = FIXTURES / "scratch_bare_tag.cc"
        try:
            scratch.write_text("// mono_lint: allow(entropy)\nint x = 0;\n")
            found = [v.rule for v in mono_lint.lint_file(scratch, ["entropy"])]
            self.assertEqual(found, ["suppression-hygiene"])
        finally:
            scratch.unlink()

    def test_unknown_rule_in_tag_is_flagged(self) -> None:
        scratch = FIXTURES / "scratch_unknown_tag.cc"
        try:
            scratch.write_text(
                "// mono_lint: allow(no-such-rule) -- reasoned.\nint x = 0;\n")
            found = [v.rule for v in mono_lint.lint_file(scratch, ["entropy"])]
            self.assertEqual(found, ["suppression-hygiene"])
        finally:
            scratch.unlink()

    def test_unused_tag_is_reported_as_stale(self) -> None:
        scratch = FIXTURES / "scratch_stale_tag.cc"
        try:
            scratch.write_text(
                "// mono_lint: allow(entropy) -- nothing below uses entropy.\n"
                "int x = 0;\n")
            result = mono_lint._lint_file_ex(scratch, ["entropy"])
            self.assertEqual(result.violations, [])
            stale = result.smap.unused_violations(scratch)
            self.assertEqual([v.rule for v in stale], ["suppression-hygiene"])
            self.assertIn("unused suppression", stale[0].message)
        finally:
            scratch.unlink()

    def test_used_tag_with_reason_is_quiet(self) -> None:
        scratch = FIXTURES / "scratch_used_tag.cc"
        try:
            scratch.write_text(
                "// mono_lint: allow(entropy) -- fixture exercises the tag.\n"
                "int x = rand();\n")
            result = mono_lint._lint_file_ex(scratch, ["entropy"])
            self.assertEqual(result.violations, [])
            self.assertEqual(result.smap.unused_violations(scratch), [])
        finally:
            scratch.unlink()


class UnmappedDirTest(unittest.TestCase):
    def test_new_src_directory_fails_the_tree(self) -> None:
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src" / "newdir").mkdir(parents=True)
            (root / "src" / "newdir" / "thing.h").write_text("int x = 0;\n")
            violations = mono_lint.lint_tree(root)
            unmapped = [v for v in violations if v.rule == "unmapped-dir"]
            self.assertEqual(len(unmapped), 1)
            self.assertIn("src/newdir", unmapped[0].message)
            shutil.rmtree(root / "src")


class CommentAndStringStrippingTest(unittest.TestCase):
    def test_matches_in_comments_and_strings_are_ignored(self) -> None:
        code, in_block = mono_lint.strip_code_line(
            'Log("rand() seeded");  // via std::random_device', False
        )
        self.assertFalse(in_block)
        self.assertNotIn("rand", code)
        self.assertNotIn("random_device", code)

    def test_block_comment_state_carries_across_lines(self) -> None:
        _, in_block = mono_lint.strip_code_line("/* begin rand(", False)
        self.assertTrue(in_block)
        code, in_block = mono_lint.strip_code_line("still rand() */ x = 1;", True)
        self.assertFalse(in_block)
        self.assertNotIn("rand", code)
        self.assertIn("x = 1;", code)


class TreeIsCleanTest(unittest.TestCase):
    def test_repository_tree_passes(self) -> None:
        root = pathlib.Path(__file__).resolve().parent.parent
        violations = mono_lint.lint_tree(root)
        self.assertEqual(
            [f"{v.path}:{v.line_number} [{v.rule}]" for v in violations], []
        )


if __name__ == "__main__":
    unittest.main()
