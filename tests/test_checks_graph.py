"""Self-tests for the whole-program analysis layer (repro.checks.graph).

Fixtures are in-memory source sets fed to ``build_project``; end-to-end
paths (``check_paths(graph=True)``, SARIF output) use tmp_path trees.
The final class pins the acceptance criteria on the real repository:
zero unsuppressed findings from any working directory, a layer for
every module, and a graph pass under 2x the per-file baseline.
"""

import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.checks import CheckConfig, check_paths, render_sarif
from repro.checks.graph import emit
from repro.checks.graph.archspec import ArchSpec
from repro.checks.graph.index import build_file_index, module_name_for
from repro.checks.graph.project import build_project
from repro.checks.registry import get_rule

REPO_ROOT = Path(__file__).resolve().parent.parent


def project_of(files, config=None):
    config = config or CheckConfig()
    sources = [(path, textwrap.dedent(src)) for path, src in files]
    return build_project(sources, config)


def rule_findings(rule_id, files, config=None):
    rule = get_rule(rule_id)
    project = project_of(files, config)
    return list(rule.check_project(project))


# ---------------------------------------------------------------------------
# Index fundamentals
# ---------------------------------------------------------------------------
class TestIndex:
    def test_module_name_for(self):
        assert module_name_for("src/repro/core/spec.py") == "repro.core.spec"
        assert module_name_for("src/repro/store/__init__.py") == "repro.store"
        assert module_name_for("scripts/run.py") == "scripts.run"

    def test_relative_imports_resolve(self):
        import ast

        tree = ast.parse("from . import sibling\nfrom ..errors import Boom\n")
        idx = build_file_index(
            "src/repro/core/spec.py", tree, ("lock",)
        )
        assert {(i.module, i.name) for i in idx.imports} == {
            ("repro.core", "sibling"),
            ("repro.errors", "Boom"),
        }

    def test_package_init_relative_import(self):
        import ast

        tree = ast.parse("from .writer import write_rdb\n")
        idx = build_file_index(
            "src/repro/store/__init__.py", tree, ("lock",)
        )
        assert idx.imports[0].module == "repro.store.writer"


# ---------------------------------------------------------------------------
# lock-order-cycle
# ---------------------------------------------------------------------------
ABBA = """
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()

    def a_then_b(self):
        with self._lock:
            with self._stats_lock:
                pass

    def b_then_a(self):
        with self._stats_lock:
            with self._lock:
                pass
"""

INTERPROCEDURAL = """
import threading

class Worker:
    def __init__(self):
        self.alpha_lock = threading.Lock()
        self.beta_lock = threading.Lock()

    def grab_beta(self):
        with self.beta_lock:
            pass

    def forward(self):
        with self.alpha_lock:
            self.grab_beta()

    def backward(self):
        with self.beta_lock:
            with self.alpha_lock:
                pass
"""


class TestLockOrderCycle:
    def test_abba_two_lock_deadlock_flagged(self):
        found = rule_findings(
            "lock-order-cycle", [("src/repro/service/pool.py", ABBA)]
        )
        assert len(found) == 1
        assert "lock-order cycle" in found[0].message
        assert "Pool._lock" in found[0].message
        assert "Pool._stats_lock" in found[0].message

    def test_interprocedural_cycle_flagged(self):
        # alpha is held in forward(); beta is acquired one call down in
        # grab_beta(); backward() takes them the other way round.
        found = rule_findings(
            "lock-order-cycle",
            [("src/repro/service/worker.py", INTERPROCEDURAL)],
        )
        assert len(found) == 1
        assert "via caller" in found[0].message

    def test_cross_file_cycle_via_attr_type(self):
        # Daemon.forward holds Daemon._lock and calls into the registry,
        # which acquires Registry._lock; Registry.locked_poke holds
        # Registry._lock and calls back into the daemon, which acquires
        # Daemon._lock.  Both call edges resolve through recorded
        # ``self.attr = ClassName(...)`` constructor assignments.
        registry = """
        import threading

        from repro.service.daemon2 import Daemon

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self.owner = Daemon()

            def locked_touch(self):
                with self._lock:
                    pass

            def locked_poke(self):
                with self._lock:
                    self.owner.take_main()
        """
        daemon = """
        import threading

        from repro.service.registry import Registry

        class Daemon:
            def __init__(self):
                self._lock = threading.Lock()
                self._registry = Registry()

            def take_main(self):
                with self._lock:
                    pass

            def forward(self):
                with self._lock:
                    self._registry.locked_touch()
        """
        found = rule_findings(
            "lock-order-cycle",
            [
                ("src/repro/service/registry.py", registry),
                ("src/repro/service/daemon2.py", daemon),
            ],
        )
        assert len(found) == 1
        assert "Registry._lock" in found[0].message
        assert "Daemon._lock" in found[0].message

    def test_consistent_order_not_flagged(self):
        consistent = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._stats_lock = threading.Lock()

            def one(self):
                with self._lock:
                    with self._stats_lock:
                        pass

            def two(self):
                with self._lock:
                    with self._stats_lock:
                        pass
        """
        assert rule_findings(
            "lock-order-cycle", [("src/repro/service/pool.py", consistent)]
        ) == []

    def test_distinct_classes_do_not_alias(self):
        # Same attribute name on unrelated classes must not merge into
        # one lock node and fabricate a cycle.
        two_classes = """
        import threading

        class A:
            def __init__(self):
                self._lock = threading.Lock()
                self.other = B()

            def f(self):
                with self._lock:
                    self.other.g()

        class B:
            def __init__(self):
                self._lock = threading.Lock()

            def g(self):
                with self._lock:
                    pass
        """
        found = rule_findings(
            "lock-order-cycle",
            [("src/repro/service/two.py", two_classes)],
        )
        assert found == []  # A._lock -> B._lock only: no cycle

    def test_out_of_scope_cycle_ignored(self):
        found = rule_findings(
            "lock-order-cycle", [("src/repro/synth/pool.py", ABBA)]
        )
        assert found == []


# ---------------------------------------------------------------------------
# cross-unmasked-op
# ---------------------------------------------------------------------------
CROSS_MASK = """
MASK64 = (1 << 64) - 1

def mask64(value):
    return value & MASK64

def passthrough(word):
    return word

def rotate(word):
    spun = passthrough(word)
    return spun << 4

def safe(word):
    return mask64(passthrough(word) << 4)

def clean(word):
    return mask64(word)

def uses_clean(word):
    return clean(word) << 4
"""


class TestCrossUnmaskedOp:
    def test_taint_survives_passthrough_call(self):
        found = rule_findings(
            "cross-unmasked-op", [("src/repro/core/spin.py", CROSS_MASK)]
        )
        lines = sorted(f.line for f in found)
        # rotate(): `spun << 4` where spun = passthrough(word).
        assert len(lines) == 1
        assert "call boundary" in found[0].message

    def test_masked_returns_are_clean(self):
        # uses_clean() shifts clean(word), and clean() masks its return:
        # the summary must mark it returns-masked, no finding there.
        found = rule_findings(
            "cross-unmasked-op", [("src/repro/core/spin.py", CROSS_MASK)]
        )
        assert all("uses_clean" not in f.message for f in found)
        assert {f.line for f in found} == {12}

    def test_cross_file_summary(self):
        provider = """
        def pack(word):
            return word
        """
        consumer = """
        from repro.core.provider import pack

        def grow(word):
            return pack(word) << 8
        """
        found = rule_findings(
            "cross-unmasked-op",
            [
                ("src/repro/core/provider.py", provider),
                ("src/repro/hashing/consumer.py", consumer),
            ],
        )
        assert len(found) == 1
        assert found[0].path == "src/repro/hashing/consumer.py"

    def test_no_duplicate_of_intraprocedural_finding(self):
        direct = """
        def f(word):
            return word << 4
        """
        found = rule_findings(
            "cross-unmasked-op", [("src/repro/core/direct.py", direct)]
        )
        assert found == []  # unmasked-op already owns this site


# ---------------------------------------------------------------------------
# layer-violation
# ---------------------------------------------------------------------------
class TestLayerViolation:
    def test_upward_top_level_import_flagged(self):
        found = rule_findings(
            "layer-violation",
            [
                ("src/repro/service/daemon.py", "VALUE = 1\n"),
                (
                    "src/repro/core/bad.py",
                    "from repro.service.daemon import VALUE\n",
                ),
            ],
        )
        assert len(found) == 1
        assert "core" in found[0].message
        assert "service" in found[0].message

    def test_lazy_import_exempt(self):
        found = rule_findings(
            "layer-violation",
            [
                ("src/repro/service/daemon.py", "VALUE = 1\n"),
                (
                    "src/repro/core/lazy.py",
                    "def f():\n"
                    "    from repro.service import daemon\n"
                    "    return daemon\n",
                ),
            ],
        )
        assert found == []

    def test_allowed_edge_passes(self):
        found = rule_findings(
            "layer-violation",
            [
                ("src/repro/core/alpha.py", "VALUE = 1\n"),
                (
                    "src/repro/service/uses.py",
                    "from repro.core.alpha import VALUE\n",
                ),
            ],
        )
        assert found == []

    def test_import_cycle_flagged(self):
        found = rule_findings(
            "layer-violation",
            [
                ("src/repro/core/a.py", "from repro.core.b import X\nY = 1\n"),
                ("src/repro/core/b.py", "from repro.core.a import Y\nX = 1\n"),
            ],
        )
        assert any("import cycle" in f.message for f in found)

    def test_package_reexport_is_not_a_cycle(self):
        found = rule_findings(
            "layer-violation",
            [
                (
                    "src/repro/core/__init__.py",
                    "from repro.core.spec import Spec\n",
                ),
                (
                    "src/repro/core/spec.py",
                    "from repro.core import packed\nclass Spec: pass\n",
                ),
                ("src/repro/core/packed.py", "X = 1\n"),
            ],
        )
        assert found == []

    def test_malformed_spec_reported_not_crashed(self):
        config = CheckConfig(
            arch_layers=("nonsense entry no colon",),
            arch_allow=("ghost -> nowhere",),
        )
        found = rule_findings(
            "layer-violation",
            [("src/repro/core/ok.py", "X = 1\n")],
            config=config,
        )
        messages = [f.message for f in found]
        assert any("malformed arch-layers" in m for m in messages)
        assert any("unknown" in m for m in messages)


# ---------------------------------------------------------------------------
# Runner integration (graph mode, suppressions, SARIF)
# ---------------------------------------------------------------------------
class TestGraphRunner:
    def _write_tree(self, tmp_path, files):
        for rel, source in files:
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        return tmp_path

    def test_check_paths_graph_finds_deadlock(self, tmp_path):
        root = self._write_tree(
            tmp_path, [("src/repro/service/pool.py", ABBA)]
        )
        report = check_paths(
            [root / "src"], config=CheckConfig(), graph=True
        )
        assert [f.rule_id for f in report.findings] == ["lock-order-cycle"]

    def test_graph_finding_suppressible_inline(self, tmp_path):
        # The finding anchors at the cycle's first in-scope edge: the
        # inner acquire inside a_then_b.
        suppressed = ABBA.replace(
            "with self._lock:\n            with self._stats_lock:",
            "with self._lock:\n"
            "            # repro: allow[lock-order-cycle] documented in"
            " DESIGN.md\n"
            "            with self._stats_lock:",
        )
        root = self._write_tree(
            tmp_path, [("src/repro/service/pool.py", suppressed)]
        )
        report = check_paths(
            [root / "src"], config=CheckConfig(), graph=True
        )
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["lock-order-cycle"]

    def test_sarif_output_shape(self, tmp_path):
        root = self._write_tree(
            tmp_path, [("src/repro/service/pool.py", ABBA)]
        )
        report = check_paths(
            [root / "src"], config=CheckConfig(), graph=True
        )
        document = json.loads(render_sarif(report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        result = run["results"][0]
        assert result["ruleId"] == "lock-order-cycle"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("pool.py")
        assert location["region"]["startLine"] > 0
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "lock-order-cycle" in rule_ids

    def test_sarif_empty_report(self):
        document = json.loads(render_sarif(check_paths([])))
        assert document["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Pathological inputs
# ---------------------------------------------------------------------------
class TestPathologicalInputs:
    def test_syntax_error_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = check_paths([tmp_path / "src"], config=CheckConfig(),
                             graph=True)
        assert [f.rule_id for f in report.findings] == ["parse-error"]

    def test_empty_file_is_clean(self, tmp_path):
        empty = tmp_path / "src" / "repro" / "core" / "empty.py"
        empty.parent.mkdir(parents=True)
        empty.write_text("", encoding="utf-8")
        report = check_paths([tmp_path / "src"], config=CheckConfig(),
                             graph=True)
        assert report.findings == []
        assert report.files_checked == 1

    def test_non_utf8_file_is_a_finding(self, tmp_path):
        binary = tmp_path / "src" / "repro" / "core" / "binary.py"
        binary.parent.mkdir(parents=True)
        binary.write_bytes(b"x = '\xff\xfe\x00'\n")
        report = check_paths([tmp_path / "src"], config=CheckConfig())
        assert [f.rule_id for f in report.findings] == ["read-error"]

    def test_symlink_loop_terminates(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "ok.py").write_text("x = 1\n", encoding="utf-8")
        try:
            (tree / "loop").symlink_to(tree)
        except OSError:  # pragma: no cover - symlinks unavailable
            pytest.skip("platform does not support symlinks")
        report = check_paths([tree], config=CheckConfig())
        assert report.files_checked == 1
        assert report.findings == []


# ---------------------------------------------------------------------------
# repro arch emitters
# ---------------------------------------------------------------------------
class TestEmit:
    def _project(self):
        return project_of(
            [
                ("src/repro/core/alpha.py", "VALUE = 1\n"),
                (
                    "src/repro/service/uses.py",
                    "from repro.core.alpha import VALUE\n",
                ),
                ("src/repro/service/pool.py", ABBA),
            ]
        )

    def test_import_graph_json(self):
        data = json.loads(emit.import_graph_json(self._project().index))
        assert data["graph"] == "imports"
        assert data["modules"]["repro.core.alpha"]["layer"] == "core"
        edges = {(e["src"], e["dst"]) for e in data["edges"]}
        assert ("repro.service.uses", "repro.core.alpha") in edges

    def test_import_graph_dot(self):
        dot = emit.import_graph_dot(self._project().index)
        assert dot.startswith("digraph imports {")
        assert '"repro.service.uses" -> "repro.core.alpha"' in dot

    def test_lock_graph_json_reports_cycle(self):
        data = json.loads(emit.lock_graph_json(self._project().index))
        assert data["graph"] == "locks"
        assert len(data["cycles"]) == 1

    def test_lock_graph_dot_marks_cycle_red(self):
        dot = emit.lock_graph_dot(self._project().index)
        assert "color=red" in dot


# ---------------------------------------------------------------------------
# Acceptance criteria on the real repository
# ---------------------------------------------------------------------------
class TestRealTree:
    @pytest.fixture()
    def src_dir(self):
        src = REPO_ROOT / "src"
        if not src.is_dir():  # pragma: no cover
            pytest.skip("repo src tree not available")
        return src

    def test_real_tree_graph_pass_is_clean(self, src_dir, monkeypatch):
        # The verdict is CheckConfig's alone, so it does not depend on
        # the directory the checker runs from.
        monkeypatch.chdir(src_dir)
        report = check_paths([src_dir], graph=True)
        assert [f.format() for f in report.findings] == []

    def test_every_module_has_a_layer(self, src_dir):
        spec = ArchSpec.from_config(CheckConfig())
        assert spec.problems == ()
        unlayered = [
            path.relative_to(src_dir).as_posix()
            for path in sorted((src_dir / "repro").rglob("*.py"))
            if spec.layer_of(path.as_posix()) is None
        ]
        assert unlayered == []

    def test_graph_pass_under_2x_baseline(self, src_dir):
        def measure(**kwargs):
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                check_paths([src_dir], **kwargs)
                best = min(best, time.perf_counter() - start)
            return best

        base = measure()
        graph = measure(graph=True)
        # Acceptance: whole-program pass < 2x per-file baseline (small
        # slack absorbs CI timer jitter).
        assert graph < 2.0 * base + 0.25, (
            f"graph pass {graph:.3f}s vs baseline {base:.3f}s"
        )
