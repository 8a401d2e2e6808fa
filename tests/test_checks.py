"""Self-tests for the repro.checks static-analysis framework.

Every rule gets a must-flag and a must-pass fixture (run through
``check_source`` with a path inside the rule's scope), plus suppression
behaviour and the JSON reporter's golden output.
"""

import json
import textwrap

import pytest

from repro.checks import (
    CheckConfig,
    all_rules,
    check_source,
    render_json,
    render_text,
)
from repro.checks.registry import select_rules
from repro.checks.runner import CheckReport

CORE = "src/repro/core/example.py"
SERVICE = "src/repro/service/example.py"
SYNTH = "src/repro/synth/example.py"


def findings(source, path=CORE, select=None):
    report = check_source(textwrap.dedent(source), path=path, select=select)
    return [f.rule_id for f in report.findings]


# ---------------------------------------------------------------------------
# mask64
# ---------------------------------------------------------------------------
class TestMask64:
    def test_flags_unmasked_shift_on_word(self):
        assert "unmasked-op" in findings(
            """
            def f(word: int) -> int:
                return word << 4
            """
        )

    def test_passes_masked_shift(self):
        assert findings(
            """
            MASK64 = (1 << 64) - 1

            def f(word: int) -> int:
                return (word << 4) & MASK64
            """
        ) == []

    def test_passes_mask64_call(self):
        assert findings(
            """
            def f(word: int) -> int:
                return mask64(word << 4)
            """
        ) == []

    def test_flags_unmasked_invert(self):
        assert "unmasked-op" in findings(
            """
            def f(key: int) -> int:
                return ~key
            """
        )

    def test_constant_mask_clears_taint(self):
        # `word & 0xF` cannot exceed 4 bits; shifting it is safe.
        assert findings(
            """
            def f(word: int) -> int:
                return (word & 0xF0F0) >> 4 | (word & 0x0F0F) << 4 & 0xFFFF
            """
        ) == []

    def test_np_suffix_exempt(self):
        assert findings(
            """
            def f_np(words):
                return words << 4
            """
        ) == []

    def test_out_of_scope_path_ignored(self):
        assert findings(
            """
            def f(word: int) -> int:
                return word << 4
            """,
            path=SYNTH,
        ) == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_flags_mixed_mutation(self):
        assert "mixed-lock-mutation" in findings(
            """
            class C:
                def locked(self):
                    with self._lock:
                        self.count = 1

                def unlocked(self):
                    self.count = 2
            """,
            path=SERVICE,
        )

    def test_passes_consistent_locking(self):
        assert findings(
            """
            class C:
                def a(self):
                    with self._lock:
                        self.count = 1

                def b(self):
                    with self._lock:
                        self.count = 2
            """,
            path=SERVICE,
        ) == []

    def test_init_mutations_exempt(self):
        assert findings(
            """
            class C:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
            path=SERVICE,
        ) == []

    def test_flags_blocking_wait_under_lock(self):
        assert "blocking-call-under-lock" in findings(
            """
            class C:
                def stop(self):
                    with self._lock:
                        self._event.wait()
            """,
            path=SERVICE,
        )

    def test_condition_wait_on_held_lock_allowed(self):
        assert findings(
            """
            class C:
                def next_item(self):
                    with self._cond:
                        while not self._items:
                            self._cond.wait(timeout=0.5)
            """,
            path=SERVICE,
        ) == []

    def test_dict_get_under_lock_allowed(self):
        assert findings(
            """
            class C:
                def lookup(self, key):
                    with self._lock:
                        return self._entries.get(key)
            """,
            path=SERVICE,
        ) == []

    def test_queue_get_under_lock_flagged(self):
        assert "blocking-call-under-lock" in findings(
            """
            class C:
                def take(self):
                    with self._lock:
                        return self.queue.get()
            """,
            path=SERVICE,
        )


# ---------------------------------------------------------------------------
# unbounded-wait
# ---------------------------------------------------------------------------
class TestUnboundedWait:
    def test_flags_bare_wait(self):
        assert "unbounded-wait" in findings(
            """
            def stop(event):
                event.wait()
            """,
            path=SERVICE,
        )

    def test_flags_bare_join(self):
        assert "unbounded-wait" in findings(
            """
            def stop(thread):
                thread.join()
            """,
            path=SERVICE,
        )

    def test_passes_timeout_keyword(self):
        assert findings(
            """
            def stop(event):
                while not event.wait(timeout=1.0):
                    pass
            """,
            path=SERVICE,
        ) == []

    def test_passes_positional_timeout(self):
        assert findings(
            """
            def stop(thread):
                thread.join(5)
            """,
            path=SERVICE,
        ) == []

    def test_suppression_comment(self):
        assert findings(
            """
            def stop(pool):
                # repro: allow[unbounded-wait] Pool.join has no timeout parameter
                pool.join()
            """,
            path=SERVICE,
        ) == []

    def test_out_of_scope_path_ignored(self):
        assert findings(
            """
            def stop(thread):
                thread.join()
            """,
            path=SYNTH,
        ) == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_flags_global_random(self):
        assert "nondeterminism" in findings(
            """
            import random

            def pick():
                return random.random()
            """,
            path=SYNTH,
        )

    def test_flags_wall_clock(self):
        assert "nondeterminism" in findings(
            """
            import time

            def stamp():
                return time.time()
            """,
            path=SYNTH,
        )

    def test_monotonic_allowed(self):
        assert findings(
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
            path=SYNTH,
        ) == []

    def test_seeded_rng_allowed(self):
        assert findings(
            """
            import random

            def pick(seed):
                return random.Random(seed).random()
            """,
            path=SYNTH,
        ) == []

    def test_unseeded_default_rng_flagged(self):
        assert "nondeterminism" in findings(
            """
            import numpy as np

            def draw():
                return np.random.default_rng()
            """,
            path=SYNTH,
        )

    def test_seeded_default_rng_allowed(self):
        assert findings(
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed)
            """,
            path=SYNTH,
        ) == []

    def test_metrics_file_exempt(self):
        assert findings(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/service/metrics.py",
        ) == []


# ---------------------------------------------------------------------------
# api-misuse
# ---------------------------------------------------------------------------
class TestApiMisuse:
    def test_flags_bare_except(self):
        assert "bare-except" in findings(
            """
            def f():
                try:
                    work()
                except:
                    pass
            """,
            path=SYNTH,
        )

    def test_passes_typed_except(self):
        assert findings(
            """
            def f():
                try:
                    work()
                except ValueError:
                    pass
            """,
            path=SYNTH,
        ) == []

    def test_flags_mutable_default(self):
        assert "mutable-default" in findings(
            """
            def f(items=[]):
                return items
            """,
            path=SYNTH,
        )

    def test_passes_none_default(self):
        assert findings(
            """
            def f(items=None):
                return items or []
            """,
            path=SYNTH,
        ) == []

    def test_flags_uncanonicalized_lookup(self):
        assert "unrouted-lookup" in findings(
            """
            def size_of(table, value):
                return table.get(value)
            """,
            path=SYNTH,
        )

    def test_passes_canonical_arg_name(self):
        assert findings(
            """
            def size_of(table, canon):
                return table.get(canon)
            """,
            path=SYNTH,
        ) == []

    def test_passes_canonical_call(self):
        assert findings(
            """
            def size_of(table, value):
                return table.get(canonical_representative(value))
            """,
            path=SYNTH,
        ) == []

    def test_passes_name_assigned_from_canonical(self):
        assert findings(
            """
            def size_of(table, value):
                c = canonical(value)
                return table.get(c)
            """,
            path=SYNTH,
        ) == []


# ---------------------------------------------------------------------------
# todo-tracking
# ---------------------------------------------------------------------------
class TestTodoTracking:
    def test_flags_untracked_todo(self):
        assert "untracked-todo" in findings(
            "x = 1  # TODO: make this faster\n", path=SYNTH
        )

    def test_passes_tracked_todo(self):
        assert findings(
            "x = 1  # TODO(roadmap-depth): make this faster\n", path=SYNTH
        ) == []

    def test_fixme_in_string_not_flagged(self):
        assert findings('x = "TODO: not a comment"\n', path=SYNTH) == []


# ---------------------------------------------------------------------------
# engine-layering
# ---------------------------------------------------------------------------
class TestEngineLayering:
    IMPORT = "from repro.synth.synthesizer import OptimalSynthesizer\n"

    def test_flags_concrete_import_in_service(self):
        assert "engine-layering" in findings(self.IMPORT, path=SERVICE)

    def test_flags_function_entry_points(self):
        assert "engine-layering" in findings(
            "from repro.synth.heuristic import mmd_synthesize\n",
            path="src/repro/apps/example.py",
        )

    def test_passes_inside_engines_package(self):
        assert findings(
            self.IMPORT, path="src/repro/engines/example.py"
        ) == []

    def test_passes_inside_defining_package(self):
        assert findings(self.IMPORT, path=SYNTH) == []

    def test_passes_top_level_reexport(self):
        assert findings(self.IMPORT, path="src/repro/__init__.py") == []

    def test_tests_are_globally_excluded(self):
        assert findings(self.IMPORT, path="repo/tests/example.py") == []

    def test_engine_layer_imports_allowed_elsewhere(self):
        assert findings(
            "from repro.engines import create_engine\n", path=SERVICE
        ) == []


# ---------------------------------------------------------------------------
# store-layering
# ---------------------------------------------------------------------------
class TestStoreLayering:
    LOAD = "import numpy as np\ndata = np.load('db.npz')\n"

    def test_flags_np_load_in_service(self):
        assert "store-layering" in findings(self.LOAD, path=SERVICE)

    def test_flags_np_savez_and_memmap(self):
        source = (
            "import numpy as np\n"
            "np.savez('db.npz', a=1)\n"
            "m = np.memmap('db.rdb', mode='r')\n"
        )
        assert findings(source, path=SERVICE).count("store-layering") == 2

    def test_flags_full_numpy_alias(self):
        assert "store-layering" in findings(
            "import numpy\nnumpy.savez_compressed('db.npz')\n", path=SERVICE
        )

    def test_passes_inside_store_package(self):
        assert findings(self.LOAD, path="src/repro/store/example.py") == []

    def test_flags_database_module(self):
        assert "store-layering" in findings(
            self.LOAD, path="src/repro/synth/database.py"
        )

    def test_non_persistence_numpy_calls_allowed(self):
        assert findings(
            "import numpy as np\nx = np.zeros(4)\n", path=SERVICE
        ) == []

    def test_memmap_isinstance_not_flagged(self):
        assert findings(
            "import numpy as np\nok = isinstance(x, np.memmap)\n",
            path=SERVICE,
        ) == []

    def test_non_numpy_load_not_flagged(self):
        assert findings(
            "data = pickle.load(fh)\n", path=SERVICE
        ) == []

    def test_infrastructure_names_not_flagged(self):
        # SynthesisHandle / peel_minimal_circuit are serving
        # infrastructure, not engine entry points.
        assert findings(
            "from repro.synth.synthesizer import SynthesisHandle\n",
            path=SERVICE,
        ) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_suppression_with_reason(self):
        report = check_source(
            "def f(word):\n"
            "    return word << 4  # repro: allow[unmasked-op] shift is bounded by construction\n",
            path=CORE,
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["unmasked-op"]

    def test_standalone_suppression_covers_next_line(self):
        report = check_source(
            "def f(word):\n"
            "    # repro: allow[unmasked-op] bounded by construction\n"
            "    return word << 4\n",
            path=CORE,
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_family_name_suppresses(self):
        report = check_source(
            "def f(word):\n"
            "    return word << 4  # repro: allow[mask64] bounded\n",
            path=CORE,
        )
        assert report.findings == []

    def test_reasonless_suppression_is_a_finding(self):
        report = check_source(
            "def f(word):\n"
            "    return word << 4  # repro: allow[unmasked-op]\n",
            path=CORE,
        )
        ids = [f.rule_id for f in report.findings]
        assert "bad-suppression" in ids

    def test_suppression_for_other_rule_does_not_hide(self):
        report = check_source(
            "def f(word):\n"
            "    return word << 4  # repro: allow[bare-except] wrong rule\n",
            path=CORE,
        )
        assert [f.rule_id for f in report.findings] == ["unmasked-op"]

    def test_standalone_covers_parenthesized_continuation(self):
        # The finding lands on a continuation line of the statement, not
        # the line right after the comment; the suppression must still
        # cover it because it anchors to the whole statement.
        report = check_source(
            "def f(word):\n"
            "    # repro: allow[unmasked-op] wraparound handled by caller\n"
            "    result = (\n"
            "        word\n"
            "        << 4\n"
            "    )\n"
            "    return result\n",
            path=CORE,
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["unmasked-op"]

    def test_standalone_covers_through_decorators(self):
        report = check_source(
            "import functools\n"
            "\n"
            "# repro: allow[mutable-default] shared default is intentional\n"
            "@functools.lru_cache\n"
            "def f(items=[]):\n"
            "    return items\n",
            path=CORE,
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["mutable-default"]

    def test_consecutive_standalone_comments_share_a_target(self):
        report = check_source(
            "import random\n"
            "\n"
            "def f(word):\n"
            "    # repro: allow[unmasked-op] wraparound handled downstream\n"
            "    # repro: allow[nondeterminism] jitter is intentional\n"
            "    return word << random.getrandbits(2)\n",
            path=CORE,
        )
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_standalone_does_not_cover_compound_body(self):
        # Anchoring stops at the header of a compound statement: the
        # body keeps its own discipline.
        report = check_source(
            "# repro: allow[unmasked-op] header only\n"
            "def f(word):\n"
            "    return word << 4\n",
            path=CORE,
        )
        assert [f.rule_id for f in report.findings] == ["unmasked-op"]

    def test_trailing_comment_stays_line_scoped(self):
        report = check_source(
            "def f(word):\n"
            "    x = 1  # repro: allow[unmasked-op] wrong line\n"
            "    return word << 4\n",
            path=CORE,
        )
        assert [f.rule_id for f in report.findings] == ["unmasked-op"]


# ---------------------------------------------------------------------------
# Registry / selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_all_rule_families_present(self):
        families = {rule.family for rule in all_rules()}
        assert {
            "mask64",
            "lock-discipline",
            "determinism",
            "api-misuse",
            "todo-tracking",
        } <= families

    def test_select_by_family(self):
        rules = select_rules(["lock-discipline"])
        assert {r.id for r in rules} == {
            "mixed-lock-mutation",
            "blocking-call-under-lock",
            "unbounded-wait",
            "lock-order-cycle",
        }

    def test_select_unknown_raises(self):
        with pytest.raises(ValueError):
            select_rules(["no-such-rule"])

    def test_select_restricts_check(self):
        source = """
        def f(word, items=[]):
            return word << 4
        """
        assert findings(source, select=["mutable-default"]) == [
            "mutable-default"
        ]


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------
class TestReporters:
    def test_json_golden(self):
        report = check_source(
            "def f(word):\n    return word << 4\n", path=CORE
        )
        golden = {
            "version": 1,
            "ok": False,
            "files_checked": 1,
            "findings": [
                {
                    "path": CORE,
                    "line": 2,
                    "col": 11,
                    "rule": "unmasked-op",
                    "family": "mask64",
                    "severity": "error",
                    "message": (
                        "unmasked << on a packed-word value can exceed 64 "
                        "bits; route the result through mask64() or & MASK64"
                    ),
                }
            ],
            "suppressed": [],
        }
        assert json.loads(render_json(report)) == golden

    def test_text_summary_counts(self):
        report = check_source(
            "def f(word):\n    return word << 4\n", path=CORE
        )
        text = render_text(report)
        assert f"{CORE}:2:12: error [unmasked-op]" in text
        assert "1 finding (0 suppressed) in 1 file" in text

    def test_text_ok_summary(self):
        text = render_text(CheckReport(files_checked=3))
        assert text == "ok: 0 findings (0 suppressed) in 3 files"

    def test_parse_error_reported(self):
        report = check_source("def f(:\n", path=CORE)
        assert [f.rule_id for f in report.findings] == ["parse-error"]


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------
class TestConfig:
    def test_excluded_paths_skip_all_rules(self):
        report = check_source(
            "def f(word):\n    return word << 4\n",
            path="src/repro/core/tests/x.py",
            config=CheckConfig(exclude=("/tests/",)),
        )
        assert report.findings == []
