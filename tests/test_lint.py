"""Lint gate for the tier-1 flow.

Two checks over every Python file in ``src/`` (and the test/benchmark
trees for the byte-compile pass):

* **byte-compilation** — ``compileall`` catches syntax errors anywhere,
  including files no test imports;
* **undefined names** — a conservative pyflakes-style pass (the real
  pyflakes is not vendored): collect every name a module could possibly
  bind — imports, assignments, function/class defs, comprehension and
  exception targets, globals of the whole file — and flag any ``Name``
  load that matches none of them and is not a builtin.  Scope-blind by
  design, so it only reports names that cannot resolve *anywhere* in
  the file: real typos, never false positives.
"""

import ast
import builtins
import compileall
import dataclasses
import os
import re
import sys
import tokenize

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

_BUILTINS = set(dir(builtins)) | {"__file__", "__name__", "__doc__",
                                  "__package__", "__spec__", "__loader__",
                                  "__builtins__", "__debug__"}


def _python_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in ("__pycache__", ".git", "out")]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _bound_names(tree):
    """Every name the module could bind, in any scope."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                bound.add(name.split(".")[0])
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Lambda):
            pass  # its args are ast.arg nodes, already collected
    return bound


def _undefined_loads(path):
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    bound = _bound_names(tree)
    problems = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in bound and node.id not in _BUILTINS):
            problems.append("%s:%d: undefined name %r"
                            % (os.path.relpath(path, REPO_ROOT),
                               node.lineno, node.id))
    return problems


def test_src_byte_compiles():
    ok = compileall.compile_dir(SRC_ROOT, maxlevels=20, quiet=2,
                                force=False)
    assert ok, "compileall found syntax errors under src/ (rerun with " \
               "`python -m compileall src` for details)"


@pytest.mark.parametrize("tree_name", ["tests", "benchmarks", "examples"])
def test_support_trees_byte_compile(tree_name):
    root = os.path.join(REPO_ROOT, tree_name)
    if not os.path.isdir(root):
        pytest.skip("no %s/ tree" % tree_name)
    ok = compileall.compile_dir(root, maxlevels=20, quiet=2, force=False)
    assert ok, "compileall found syntax errors under %s/" % tree_name


def test_src_has_no_undefined_names():
    problems = []
    for path in _python_files(SRC_ROOT):
        problems.extend(_undefined_loads(path))
    assert problems == [], "\n".join(problems)


def test_lint_gate_catches_a_typo(tmp_path):
    """The undefined-name pass must actually detect a misspelling."""
    bad = tmp_path / "bad.py"
    bad.write_text("def f(value):\n    return vlaue + 1\n")
    problems = _undefined_loads(str(bad))
    assert len(problems) == 1
    assert "vlaue" in problems[0]


def test_python_version_supported():
    # the engine relies on dict ordering and OrderedDict.move_to_end
    assert sys.version_info >= (3, 7)


def _fire_site_literals():
    """Every literal site name passed to a ``fire(...)`` call in src/."""
    sites = []
    for path in _python_files(SRC_ROOT):
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name != "fire" or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                    first.value, str):
                sites.append(first.value)
            elif (isinstance(first, ast.BinOp)
                  and isinstance(first.left, ast.Constant)):
                sites.append(first.left.value + "<dynamic>")
    return sites


#: on-disk names of the durability files — only wal.py may know them
_WAL_FILE_LITERALS = ("wal.log", "checkpoint.json")
#: path helpers whose results must never feed a raw ``open()``
_WAL_PATH_HELPERS = ("log_path", "checkpoint_path", "qm_store_path")


def _wal_access_violations(path):
    """WAL encapsulation check for one file: no literal WAL/checkpoint
    file names, and no ``open()`` over the wal module's path helpers.
    Everything durable must go through :mod:`repro.sqldb.wal`'s API, so
    framing, CRC and fsync discipline cannot be bypassed piecemeal."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in _WAL_FILE_LITERALS):
            problems.append(
                "%s:%d: literal %r — only repro/sqldb/wal.py may name "
                "WAL/checkpoint files" % (rel, node.lineno, node.value)
            )
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(
            node.func, "id", None)
        if name != "open":
            continue
        for arg in node.args:
            for inner in ast.walk(arg):
                if not isinstance(inner, ast.Call):
                    continue
                helper = getattr(inner.func, "attr", None) or getattr(
                    inner.func, "id", None)
                if helper in _WAL_PATH_HELPERS:
                    problems.append(
                        "%s:%d: open(%s(...)) — WAL/checkpoint files may "
                        "only be opened inside repro/sqldb/wal.py"
                        % (rel, node.lineno, helper)
                    )
    return problems


def test_wal_files_only_touched_by_wal_module():
    wal_py = os.path.abspath(
        os.path.join(SRC_ROOT, "repro", "sqldb", "wal.py"))
    problems = []
    for path in _python_files(SRC_ROOT):
        if os.path.abspath(path) == wal_py:
            continue
        problems.extend(_wal_access_violations(path))
    assert problems == [], "\n".join(problems)


def test_wal_access_gate_catches_violations(tmp_path):
    """The encapsulation check must actually detect both bypass shapes."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.sqldb import wal\n"
        "def peek(data_dir):\n"
        "    with open(wal.log_path(data_dir), 'rb') as handle:\n"
        "        return handle.read()\n"
        "NAME = 'wal.log'\n"
    )
    problems = _wal_access_violations(str(bad))
    assert len(problems) == 2
    assert any("open(log_path(...))" in p for p in problems)
    assert any("literal 'wal.log'" in p for p in problems)


#: zlib calls that pack or unpack a checkpoint image
_IMAGE_CODEC_CALLS = frozenset(["compress", "decompress", "compressobj",
                                "decompressobj"])
#: the name wal.py gives the image magic
_IMAGE_MAGIC_NAME = "_IMAGE_MAGIC"


def _image_codec_violations(path):
    """Checkpoint-image encapsulation check for one file: no zlib
    (de)compression and no image magic, by name or as bytes.  A second
    packer or unpacker would be a second image format beside wal.py's,
    one whose bytes the CRC rule there does not cover."""
    from repro.sqldb import wal

    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "zlib"
                and node.attr in _IMAGE_CODEC_CALLS):
            problems.append("%s:%d: zlib.%s — only repro/sqldb/wal.py may "
                            "pack or unpack checkpoint images"
                            % (rel, node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "zlib":
            for alias in node.names:
                if alias.name in _IMAGE_CODEC_CALLS:
                    problems.append("%s:%d: from zlib import %s — only "
                                    "repro/sqldb/wal.py may (de)compress"
                                    % (rel, node.lineno, alias.name))
        elif ((isinstance(node, ast.Name) and node.id == _IMAGE_MAGIC_NAME)
              or (isinstance(node, ast.Attribute)
                  and node.attr == _IMAGE_MAGIC_NAME)
              or (isinstance(node, ast.Constant)
                  and isinstance(node.value, bytes)
                  and wal._IMAGE_MAGIC in node.value)):
            problems.append("%s:%d: the checkpoint image magic — only "
                            "repro/sqldb/wal.py may name it"
                            % (rel, node.lineno))
    return problems


def test_checkpoint_image_is_packed_only_by_the_wal_module():
    wal_py = os.path.abspath(
        os.path.join(SRC_ROOT, "repro", "sqldb", "wal.py"))
    assert _image_codec_violations(wal_py) != []     # the gate sees it
    problems = []
    for path in _python_files(SRC_ROOT):
        if os.path.abspath(path) != wal_py:
            problems.extend(_image_codec_violations(path))
    assert problems == [], "\n".join(problems)


def test_image_codec_gate_catches_a_second_unpacker(tmp_path):
    """A ``zlib.decompress(...)`` planted in another module of the
    package turns the gate red, and so does naming the magic there."""
    engine_py = os.path.join(SRC_ROOT, "repro", "sqldb", "engine.py")
    assert _image_codec_violations(engine_py) == []
    with open(engine_py) as handle:
        source = handle.read()
    planted = tmp_path / "engine.py"
    planted.write_text(
        source
        + "\n\nimport zlib\n\n\n"
        + "def _peek_image(data):\n"
        + "    return zlib.decompress(data[len(wal_mod._IMAGE_MAGIC) + 8:])\n"
    )
    problems = _image_codec_violations(str(planted))
    assert len(problems) == 2, problems
    assert "zlib.decompress" in problems[0]
    assert "image magic" in problems[1]


#: on-disk names of the paged-storage files — only pager.py may know
#: them; everything else goes through the Pager/PageStore API so page
#: framing, CRC and the doublewrite protocol cannot be bypassed
_PAGE_FILE_LITERALS = ("pages.db", "doublewrite.db", "spill.db")
#: pager path helpers whose results must never feed a raw ``open()``
_PAGE_PATH_HELPERS = ("pages_path", "doublewrite_path", "spill_path")


def _page_access_violations(path):
    """Paged-storage encapsulation check, same shape as the WAL gate:
    no literal page-file names and no ``open()`` over pager.py's path
    helpers anywhere outside pager.py."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in _PAGE_FILE_LITERALS):
            problems.append(
                "%s:%d: literal %r — only repro/sqldb/pager.py may name "
                "page-storage files" % (rel, node.lineno, node.value)
            )
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(
            node.func, "id", None)
        if name != "open":
            continue
        for arg in node.args:
            for inner in ast.walk(arg):
                if not isinstance(inner, ast.Call):
                    continue
                helper = getattr(inner.func, "attr", None) or getattr(
                    inner.func, "id", None)
                if helper in _PAGE_PATH_HELPERS:
                    problems.append(
                        "%s:%d: open(%s(...)) — page-storage files may "
                        "only be opened inside repro/sqldb/pager.py"
                        % (rel, node.lineno, helper)
                    )
    return problems


def test_page_files_only_touched_by_pager_module():
    pager_py = os.path.abspath(
        os.path.join(SRC_ROOT, "repro", "sqldb", "pager.py"))
    problems = []
    for path in _python_files(SRC_ROOT):
        if os.path.abspath(path) == pager_py:
            continue
        problems.extend(_page_access_violations(path))
    assert problems == [], "\n".join(problems)


def test_page_access_gate_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.sqldb import pager\n"
        "def peek(data_dir):\n"
        "    with open(pager.pages_path(data_dir), 'rb') as handle:\n"
        "        return handle.read()\n"
        "NAME = 'doublewrite.db'\n"
    )
    problems = _page_access_violations(str(bad))
    assert len(problems) == 2
    assert any("open(pages_path(...))" in p for p in problems)
    assert any("literal 'doublewrite.db'" in p for p in problems)


def test_fault_sites_are_lint_covered():
    """The faults package rides the same gates as everything else, and
    the wired injection sites agree with the declared KNOWN_SITES."""
    faults_root = os.path.join(SRC_ROOT, "repro", "faults")
    files = list(_python_files(faults_root))
    assert files, "faults package missing from src/repro/faults"
    for path in files:
        assert _undefined_loads(path) == []

    from repro.faults import KNOWN_SITES

    wired = set(_fire_site_literals())
    declared = set(KNOWN_SITES)
    # every declared site is wired somewhere in src/ (the plugin site is
    # composed dynamically: "plugin." + plugin.name)
    missing = declared - wired
    assert missing == set(), "declared but unwired sites: %s" % missing
    # and nothing fires an undeclared site behind the plan's back
    undeclared = {
        site for site in wired
        if site not in declared and not site.startswith("plugin.")
    }
    assert undeclared == set(), "undeclared fire() sites: %s" % undeclared


#: the only modules allowed to construct raw threading locks — everyone
#: else must go through repro.core.resilience's make_lock()/make_rlock()
#: factories (or the RWLock), so lock creation stays auditable
_LOCK_ALLOWLIST = (
    os.path.join("src", "repro", "sqldb", "engine.py"),
    os.path.join("src", "repro", "core", "resilience.py"),
    os.path.join("src", "repro", "core", "store.py"),
)


def _lock_construction_violations(path):
    """Raw ``threading.Lock()`` / ``threading.RLock()`` constructions."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("Lock", "RLock")
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"):
            problems.append(
                "%s:%d: threading.%s() constructed directly — use "
                "repro.core.resilience.make_lock()/make_rlock() (or "
                "RWLock) instead" % (rel, node.lineno, func.attr)
            )
    return problems


def test_lock_construction_is_centralized():
    allow = {os.path.abspath(os.path.join(REPO_ROOT, rel))
             for rel in _LOCK_ALLOWLIST}
    problems = []
    for path in _python_files(SRC_ROOT):
        if os.path.abspath(path) in allow:
            continue
        problems.extend(_lock_construction_violations(path))
    assert problems == [], "\n".join(problems)


def test_lock_gate_catches_a_raw_lock(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import threading\n"
        "A = threading.Lock()\n"
        "B = threading.RLock()\n"
    )
    problems = _lock_construction_violations(str(bad))
    assert len(problems) == 2
    assert any("threading.Lock()" in p for p in problems)
    assert any("threading.RLock()" in p for p in problems)


def _class_def(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _topk_sort_violations(plan_path, planner_path):
    """ORDER BY + LIMIT must go through the heap top-k, not a full sort.

    Checks three facts about the plan layer: the ``TopK`` operator
    exists in plan.py, it never sorts its input — no ``sorted()``, no
    ``.sort()``, no call to the ``_sort_items`` helper :class:`Sort`
    uses (the bounded heap is the point) — and the planner's ORDER BY +
    LIMIT branch actually constructs it.
    """
    with open(plan_path) as handle:
        plan_tree = ast.parse(handle.read(), filename=plan_path)
    rel_plan = os.path.relpath(plan_path, REPO_ROOT)
    problems = []
    topk = _class_def(plan_tree, "TopK")
    if topk is None:
        return ["%s: no TopK operator — ORDER BY + LIMIT has no "
                "top-k path" % rel_plan]
    for node in ast.walk(topk):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or "." + getattr(
            node.func, "attr", "")
        if name in ("sorted", ".sort", "_sort_items"):
            problems.append(
                "%s:%d: %s() inside TopK — the top-k path "
                "must use a bounded heap, not a full sort"
                % (rel_plan, node.lineno, name)
            )
    with open(planner_path) as handle:
        planner_tree = ast.parse(handle.read(), filename=planner_path)
    rel_planner = os.path.relpath(planner_path, REPO_ROOT)
    constructs_topk = any(
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "TopK"
             or getattr(node.func, "id", None) == "TopK")
        for node in ast.walk(planner_tree)
    )
    if not constructs_topk:
        problems.append(
            "%s: the planner never constructs TopK — LIMIT "
            "queries fall back to the full sort" % rel_planner
        )
    return problems


def test_order_limit_uses_topk_heap():
    plan_py = os.path.join(SRC_ROOT, "repro", "sqldb", "plan.py")
    planner_py = os.path.join(SRC_ROOT, "repro", "sqldb", "planner.py")
    problems = _topk_sort_violations(plan_py, planner_py)
    assert problems == [], "\n".join(problems)


def test_topk_gate_catches_a_full_sort(tmp_path):
    bad_plan = tmp_path / "plan.py"
    bad_plan.write_text(
        "class TopK:\n"
        "    def _generate(self, state):\n"
        "        return sorted(self.pairs)[:self.k]\n"
    )
    good_planner = tmp_path / "planner.py"
    good_planner.write_text(
        "def plan(node):\n"
        "    return TopK(node)\n"
    )
    problems = _topk_sort_violations(str(bad_plan), str(good_planner))
    assert len(problems) == 1
    assert "sorted() inside TopK" in problems[0]
    bad_plan.write_text(
        "class TopK:\n"
        "    def _generate(self, state):\n"
        "        _sort_items(self.items, self.descending)\n"
    )
    problems = _topk_sort_violations(str(bad_plan), str(good_planner))
    assert len(problems) == 1
    assert "_sort_items() inside TopK" in problems[0]


#: the plan.py code that may order rows: the two ordering operators and
#: the stable multi-key sort that Sort and the DML target sinks share
_ORDERING_OWNERS = frozenset(["Sort", "TopK", "_sort_items"])


def _ordering_violations(path, owners=_ORDERING_OWNERS):
    """One owner for ordering: inside plan.py only ``Sort``, ``TopK`` and
    ``_sort_items`` may call ``.sort()`` / ``sorted()`` or touch
    ``heapq``.  A private sort elsewhere (a UNION merge, a gather, a DML
    sink) is a second ORDER BY semantics waiting to drift from the
    first."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        if owner in owners:
            continue
        for node in ast.walk(top):
            what = None
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    what = "sorted()"
                elif isinstance(func, ast.Attribute) \
                        and func.attr == "sort":
                    what = ".sort()"
            elif isinstance(node, ast.Name) and node.id == "heapq":
                what = "heapq"
            if what is not None:
                problems.append(
                    "%s:%d: %s in %s — only %s may order rows"
                    % (rel, node.lineno, what, owner or "<module>",
                       ", ".join(sorted(owners))))
    return problems


def test_only_sort_and_topk_order_rows():
    plan_py = os.path.join(SRC_ROOT, "repro", "sqldb", "plan.py")
    problems = _ordering_violations(plan_py)
    assert problems == [], "\n".join(problems)


def test_ordering_gate_catches_a_private_sort(tmp_path):
    """The twin: plan.py with a ``rows.sort(...)`` planted in its own
    Concat turns the gate red, naming Concat."""
    plan_py = os.path.join(SRC_ROOT, "repro", "sqldb", "plan.py")
    with open(plan_py) as handle:
        source = handle.read()
    concat = ast.get_source_segment(
        source, _class_def(ast.parse(source), "Concat"))
    loop = "        for child in self.children:\n"
    assert loop in concat
    planted = concat.replace(
        loop, "        rows = []\n        rows.sort(key=len)\n" + loop, 1)
    bad = tmp_path / "plan.py"
    bad.write_text(source.replace(concat, planted))
    problems = _ordering_violations(str(bad))
    assert len(problems) == 1, problems
    assert ".sort() in Concat" in problems[0]


#: plan.py operators allowed to buffer their input — blocking by
#: algorithm (a join's inner side, grouping, sorting, top-k) or by
#: mutation discipline (the DML sinks fix their targets before the
#: first write).  Everything else must stream.
_BLOCKING_OPERATORS = frozenset([
    "NestedLoopJoin", "HashJoin", "Aggregate", "Sort", "TopK",
    "InsertSink", "UpdateSink", "DeleteSink",
    # the partial-aggregate merge buffers its groups (Concat and
    # ShardScan are deliberately NOT here — they must stream)
    "GatherAggregate",
])


def _streaming_violations(path, allowlist=_BLOCKING_OPERATORS):
    """The streaming gate: inside plan.py, only the blocking operator
    classes may call ``list()`` / ``sorted()`` (i.e. materialize an
    upstream iterator).  A ``list()`` creeping into SeqScan or Limit is
    how the O(limit) memory property rots silently."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(base, "id", None) for base in node.bases}
        if "PlanNode" not in bases or node.name in allowlist:
            continue
        # only the runtime row paths matter — plan-time __init__ may
        # copy its spec lists freely
        row_paths = [item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name in ("_generate", "run")]
        for inner in [n for fn in row_paths for n in ast.walk(fn)]:
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id in ("list", "sorted")):
                problems.append(
                    "%s:%d: %s() inside streaming operator %s — only "
                    "blocking operators (%s) may materialize their input"
                    % (rel, inner.lineno, inner.func.id, node.name,
                       ", ".join(sorted(allowlist)))
                )
    return problems


def test_streaming_operators_never_materialize():
    plan_py = os.path.join(SRC_ROOT, "repro", "sqldb", "plan.py")
    problems = _streaming_violations(plan_py)
    assert problems == [], "\n".join(problems)


#: local names that hold *stored* row dicts in the execution layer —
#: writing through them would bypass the MVCC version chain
_STORED_ROW_NAMES = frozenset(["row", "stored", "target"])


def _row_mutation_violations(path):
    """MVCC mutation-discipline gate for the execution layer.

    Stored rows are immutable once installed: every change must go
    through :class:`repro.sqldb.storage.Table`'s version-chain API
    (``update_row`` / ``delete_rows`` / ``insert``), which stamps
    visibility metadata and runs the first-writer-wins check.  A direct
    ``somedict.update(...)`` call or an in-place write through a
    stored-row local (``row[...] = v``, ``del stored[...]``,
    ``target[...] += v``) in plan.py/executor.py is exactly the bug
    class this PR removed — mutating the live dict tears every open
    snapshot that shares it.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"):
            problems.append(
                "%s:%d: .update(...) call — stored rows are immutable; "
                "go through Table.update_row() so the version chain and "
                "conflict check apply" % (rel, node.lineno)
            )
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in _STORED_ROW_NAMES):
            problems.append(
                "%s:%d: in-place write through %r — stored rows are "
                "immutable; install a new version via Table.update_row()"
                % (rel, node.lineno, node.value.id)
            )
    return problems


def test_execution_layer_never_mutates_stored_rows():
    for module in ("plan.py", "executor.py"):
        path = os.path.join(SRC_ROOT, "repro", "sqldb", module)
        problems = _row_mutation_violations(path)
        assert problems == [], "\n".join(problems)


def test_row_mutation_gate_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def apply(row, updates):\n"
        "    row.update(updates)\n"
        "def patch(stored, col, value):\n"
        "    stored[col] = value\n"
        "def scrub(target, col):\n"
        "    del target[col]\n"
        "def fine(env, col, value):\n"
        "    env[col] = value\n"
    )
    problems = _row_mutation_violations(str(bad))
    assert len(problems) == 3
    assert any(".update(...)" in p for p in problems)
    assert any("'stored'" in p for p in problems)
    assert any("'target'" in p for p in problems)


def test_streaming_gate_catches_a_buffered_operator(tmp_path):
    bad = tmp_path / "plan.py"
    bad.write_text(
        "class PlanNode:\n"
        "    pass\n"
        "class Sort(PlanNode):\n"
        "    def _generate(self, state):\n"
        "        return sorted(self.rows)\n"      # allowlisted: fine
        "class Limit(PlanNode):\n"
        "    def _generate(self, state):\n"
        "        return list(self.rows)[:3]\n"    # streaming: flagged
    )
    problems = _streaming_violations(str(bad))
    assert len(problems) == 1
    assert "list() inside streaming operator Limit" in problems[0]

REPLICA_ROOT = os.path.join(SRC_ROOT, "repro", "replica")

#: the engine's public execution entry points — a replica applier that
#: calls any of these is mutating outside the redo path
_EXEC_ENTRY_POINTS = frozenset([
    "run", "run_partial", "run_statement", "run_script", "seed",
    "query", "query_or_raise", "multi_query",
    "execute", "execute_prepared", "executemany",
])


def _replica_apply_violations(path):
    """Calls in replica apply-side code that mutate the database through
    anything but the redo path (``redo_apply`` / ``note_applied_lsn``)."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _EXEC_ENTRY_POINTS:
            problems.append(
                "%s:%d: replica apply code calls %s() — state must only "
                "change through the redo path"
                % (os.path.relpath(path, REPO_ROOT), node.lineno, name))
    return problems


def test_replica_apply_is_redo_only():
    """Everything under ``src/repro/replica/`` except the client-facing
    router applies state exclusively through ``Database.redo_apply`` —
    never the public DML/executor path (which would re-run SEPTIC,
    re-draw the RNG, and diverge from the primary)."""
    problems = []
    for path in _python_files(REPLICA_ROOT):
        if os.path.basename(path) == "router.py":
            continue  # the router IS a client; it queries by design
        problems.extend(_replica_apply_violations(path))
    assert problems == [], "\n".join(problems)


def test_replica_redo_gate_catches_a_query(tmp_path):
    bad = tmp_path / "bad_apply.py"
    bad.write_text(
        "def apply(db, rec):\n"
        "    db.run(rec.sql)\n"
    )
    problems = _replica_apply_violations(str(bad))
    assert len(problems) == 1
    assert "run()" in problems[0]


_WALL_CLOCK_MODULES = frozenset(["time", "datetime"])
_WALL_CLOCK_CALLS = frozenset(["sleep", "perf_counter", "monotonic",
                               "time_ns", "now", "utcnow"])


def _wall_clock_violations(path):
    """Wall-clock reads or sleeps: replication runs on the coordinator's
    virtual tick clock, so failovers replay deterministically."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems = []
    rel = os.path.relpath(path, REPO_ROOT)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _WALL_CLOCK_MODULES:
                    problems.append("%s:%d: imports %s"
                                    % (rel, node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in \
                    _WALL_CLOCK_MODULES:
                problems.append("%s:%d: imports from %s"
                                % (rel, node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in _WALL_CLOCK_CALLS:
                problems.append("%s:%d: calls %s()"
                                % (rel, node.lineno, name))
    return problems


def test_replica_subsystem_never_reads_the_wall_clock():
    problems = []
    for path in _python_files(REPLICA_ROOT):
        problems.extend(_wall_clock_violations(path))
    assert problems == [], "\n".join(problems)


def test_pager_and_btree_never_read_the_wall_clock():
    """The scrubber runs on explicit virtual ticks and the pager's
    retry backoff on the resilience hook clock — wall-clock reads in
    either would make crash/corruption sweeps non-deterministic."""
    problems = []
    for module in ("pager.py", "btree.py"):
        path = os.path.join(SRC_ROOT, "repro", "sqldb", module)
        problems.extend(_wall_clock_violations(path))
    assert problems == [], "\n".join(problems)


def _steal_violations(path):
    """The write-ahead rule for a steal: every function in pager.py that
    calls ``spill_write`` calls ``wal_barrier`` before it, so no page
    image reaches the spill file ahead of its log records.  Returns
    ``(problems, spill call sites)``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems, sites = [], []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = sorted(
            (node.lineno, node.col_offset, node.func.attr)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("spill_write", "wal_barrier"))
        barrier = False
        for line, _col, name in calls:
            if name == "wal_barrier":
                barrier = True
                continue
            sites.append(func.name)
            if not barrier:
                problems.append(
                    "%s:%d: %s() calls spill_write with no wal_barrier() "
                    "before it" % (os.path.basename(path), line, func.name))
    return problems, sites


def test_every_steal_runs_the_wal_barrier_first():
    pager_py = os.path.join(SRC_ROOT, "repro", "sqldb", "pager.py")
    problems, sites = _steal_violations(pager_py)
    assert problems == [], "\n".join(problems)
    assert sites == ["_evict_frame"]


@pytest.mark.parametrize("plant", ["dropped", "after"])
def test_steal_gate_catches_a_barrier_less_spill(tmp_path, plant):
    """The twin: a copy of pager.py whose steal spills with the barrier
    deleted, or moved after the spill write, turns the gate red."""
    pager_py = os.path.join(SRC_ROOT, "repro", "sqldb", "pager.py")
    with open(pager_py) as handle:
        source = handle.read()
    barrier = ("            if self.wal_barrier is not None:\n"
               "                self.wal_barrier()\n")
    spill = ("            self.pager.spill_write(frame.page_no, payload, "
             "frame.lsn)\n")
    assert source.count(barrier) == 1 and source.count(spill) == 1
    planted = source.replace(barrier, "", 1)
    if plant == "after":
        planted = planted.replace(spill, spill + barrier, 1)
    bad = tmp_path / "pager.py"
    bad.write_text(planted)
    problems, _sites = _steal_violations(str(bad))
    assert len(problems) == 1, problems
    assert "_evict_frame() calls spill_write" in problems[0]


def test_wall_clock_gate_catches_a_sleep(tmp_path):
    bad = tmp_path / "bad_clock.py"
    bad.write_text(
        "import time\n"
        "def wait():\n"
        "    time.sleep(0.1)\n"
    )
    problems = _wall_clock_violations(str(bad))
    assert len(problems) == 2
    assert "imports time" in problems[0]
    assert "sleep()" in problems[1]


NET_ROOT = os.path.join(SRC_ROOT, "repro", "net")

_NET_MODULES = frozenset(["socket", "asyncio", "selectors"])


def _net_import_violations(path):
    """Raw networking imports: sockets and the event loop live only in
    ``repro.net`` — everything else goes through NetClient/NetServer,
    so the wire protocol (and its fault sites) cannot be bypassed."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems = []
    rel = os.path.relpath(path, REPO_ROOT)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _NET_MODULES:
                    problems.append("%s:%d: imports %s"
                                    % (rel, node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _NET_MODULES:
                problems.append("%s:%d: imports from %s"
                                % (rel, node.lineno, node.module))
    return problems


def test_raw_networking_is_confined_to_net_package():
    problems = []
    for path in _python_files(SRC_ROOT):
        if path.startswith(NET_ROOT + os.sep):
            continue
        problems.extend(_net_import_violations(path))
    assert problems == [], "\n".join(problems)


def test_net_import_gate_catches_a_stray_socket(tmp_path):
    bad = tmp_path / "bad_net.py"
    bad.write_text(
        "import socket\n"
        "from asyncio import get_event_loop\n"
    )
    problems = _net_import_violations(str(bad))
    assert len(problems) == 2
    assert "imports socket" in problems[0]
    assert "imports from asyncio" in problems[1]


_BLOCKING_IN_COROUTINE = frozenset(["time.sleep", "os.fsync", "open"])


def _async_blocking_violations(path):
    """Blocking calls inside coroutine bodies: the event loop serves
    every connection, so one blocking call stalls them all.  Blocking
    work (engine execution, fsync) must hop to the executor instead."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems = []
    rel = os.path.relpath(path, REPO_ROOT)
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name):
                name = "%s.%s" % (target.value.id, target.attr)
            elif isinstance(target, ast.Name):
                name = target.id
            else:
                continue
            if name in _BLOCKING_IN_COROUTINE:
                problems.append("%s:%d: %s() inside coroutine %s"
                                % (rel, node.lineno, name, func.name))
    return problems


def test_net_coroutines_never_block():
    problems = []
    for path in _python_files(NET_ROOT):
        problems.extend(_async_blocking_violations(path))
    assert problems == [], "\n".join(problems)


def test_async_blocking_gate_catches_a_sleep(tmp_path):
    bad = tmp_path / "bad_async.py"
    bad.write_text(
        "import asyncio\n"
        "import time\n"
        "async def handler():\n"
        "    time.sleep(0.1)\n"
        "    data = open('x').read()\n"
        "    await asyncio.sleep(0)\n"
        "def sync_path():\n"
        "    time.sleep(0.1)\n"
    )
    problems = _async_blocking_violations(str(bad))
    assert len(problems) == 2
    assert "time.sleep() inside coroutine handler" in problems[0]
    assert "open() inside coroutine handler" in problems[1]


#: the locks every connection thread of the front end shares: the
#: counters' mutex and the group-commit condition
_NET_SHARED_LOCKS = frozenset(["_stats_lock", "_gate"])

#: calls that can block for as long as a peer or the disk likes: socket
#: I/O, the engine (``Connection`` and its methods, a batch) and fsync
_BLOCKING_UNDER_SHARED_LOCK = frozenset([
    "recv", "recv_into", "send", "sendall", "accept", "connect",
    "sync_to", "wal_sync_to", "_run_batch", "_dispatch", "_ship",
    "Connection", "begin", "close", "close_statement", "commit",
    "execute_prepared", "execute_statement", "multi_query", "prepare",
    "prepare_statement", "query", "query_or_raise", "rollback",
])


def _shared_lock_blocking_violations(path):
    """Blocking calls under a lock every connection thread shares: one
    such call stalls every connection behind it.  The front end may
    only count, copy and wait on the condition while it holds one."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    problems = []
    rel = os.path.relpath(path, REPO_ROOT)
    for block in ast.walk(tree):
        if not isinstance(block, ast.With):
            continue
        held = [item.context_expr.attr for item in block.items
                if isinstance(item.context_expr, ast.Attribute)
                and item.context_expr.attr in _NET_SHARED_LOCKS]
        if not held:
            continue
        for stmt in block.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        _call_name(node) in _BLOCKING_UNDER_SHARED_LOCK:
                    problems.append("%s:%d: %s() under %s"
                                    % (rel, node.lineno, _call_name(node),
                                       held[0]))
    return problems


def test_net_shared_locks_never_cover_a_blocking_call():
    problems = []
    for path in _python_files(NET_ROOT):
        problems.extend(_shared_lock_blocking_violations(path))
    assert problems == [], "\n".join(problems)
    # and the gate is looking at the locks the server really shares
    with open(os.path.join(NET_ROOT, "server.py")) as handle:
        source = handle.read()
    for lock in _NET_SHARED_LOCKS:
        assert "with self.%s:" % lock in source, lock


def test_shared_lock_gate_catches_a_sendall(tmp_path):
    bad = tmp_path / "bad_server.py"
    bad.write_text(
        "class Server(object):\n"
        "    def reply(self, sock, blob):\n"
        "        with self._stats_lock:\n"
        "            self._stats['commands'] += 1\n"
        "            sock.sendall(blob)\n"
        "        sock.sendall(blob)\n"
        "    def sync(self, lsn):\n"
        "        with self._gate:\n"
        "            self._gate.wait()\n"
        "            self._database.wal_sync_to(lsn)\n"
    )
    problems = _shared_lock_blocking_violations(str(bad))
    assert len(problems) == 2
    assert ":5: sendall() under _stats_lock" in problems[0]
    assert ":10: wal_sync_to() under _gate" in problems[1]


SHARD_ROOT = os.path.join(SRC_ROOT, "repro", "shard")

#: modules/calls that implement (or smell like) hash partitioning —
#: confined to ``repro.shard.catalog`` by the gate below
_HASH_MODULES = frozenset(["zlib", "hashlib", "binascii"])
_SHARD_CALLS = frozenset(["crc32", "shard_of", "shard_for"])


def _shard_hash_violations(path):
    """Shard-selection arithmetic outside ``shard/``: the planner
    classifies statements and extracts key *values*, the router asks the
    catalog for the ordinal — neither may hash a key or do modulo math
    over anything shard-named.  One swappable, auditable partitioning
    function, in one module."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []

    def names_in(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _HASH_MODULES:
                    problems.append(
                        "%s:%d: imports %s — partition hashing lives in "
                        "repro.shard.catalog only"
                        % (rel, node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _HASH_MODULES:
                problems.append(
                    "%s:%d: imports from %s — partition hashing lives "
                    "in repro.shard.catalog only"
                    % (rel, node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            # asking the catalog (x.catalog.shard_for(...)) is the
            # sanctioned path; computing it any other way is not
            through_catalog = (
                isinstance(func, ast.Attribute)
                and "catalog" in set(names_in(func.value))
            )
            if name in _SHARD_CALLS and not through_catalog:
                problems.append(
                    "%s:%d: calls %s() — ask the ShardCatalog, don't "
                    "partition locally" % (rel, node.lineno, name))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if (isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, str)):
                continue  # %-style string formatting, not arithmetic
            involved = set(names_in(node.left)) | set(names_in(node.right))
            if any("shard" in name.lower() for name in involved):
                problems.append(
                    "%s:%d: modulo arithmetic over %s — shard placement "
                    "is the catalog's call"
                    % (rel, node.lineno,
                       sorted(n for n in involved
                              if "shard" in n.lower())))
    return problems


def test_shard_selection_is_confined_to_the_catalog():
    """The planner/executor/plan layers never compute a shard: they
    carry key values and ordinals the catalog handed out."""
    problems = []
    for module in ("planner.py", "executor.py", "plan.py"):
        path = os.path.join(SRC_ROOT, "repro", "sqldb", module)
        problems.extend(_shard_hash_violations(path))
    # the router orchestrates but still must not hash
    problems.extend(_shard_hash_violations(
        os.path.join(SHARD_ROOT, "router.py")))
    assert problems == [], "\n".join(problems)


def test_shard_hash_gate_catches_local_partitioning(tmp_path):
    bad = tmp_path / "bad_route.py"
    bad.write_text(
        "import zlib\n"
        "def place(key, shard_count):\n"
        "    ordinal = zlib.crc32(key) % shard_count\n"
        "    return ordinal\n"
    )
    problems = _shard_hash_violations(str(bad))
    assert len(problems) == 3
    joined = "\n".join(problems)
    assert "imports zlib" in joined
    assert "crc32()" in joined
    assert "modulo arithmetic" in joined


def test_shard_subsystem_never_reads_the_wall_clock():
    """The sharded fleet runs on the replica sets' virtual tick clocks —
    the sharded crash sweep's determinism depends on it."""
    problems = []
    for path in _python_files(SHARD_ROOT):
        problems.extend(_wall_clock_violations(path))
    assert problems == [], "\n".join(problems)


#: the one predicate under which SEPTIC's hook may return before its
#: full run (the verdict memo's validity check)
_HOOK_SHORTCUT_PREDICATE = "_verdict_holds"


def _hook_shortcut_violations(path):
    """Early exits of ``Septic.process_query``.

    The hook may skip its full run in exactly one place: a ``return``
    directly under a top-level ``if`` whose test calls
    ``self._verdict_holds(...)``, the single statement of what must
    still be true.  Any other ``return`` in the method — a second
    shortcut, or the same one behind a different or weakened test — is
    a path on which a query goes unexamined without that argument
    having been made.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    hooks = [
        node for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Septic"
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "process_query"
    ]
    if len(hooks) != 1:
        return ["%s: expected one Septic.process_query, found %d"
                % (rel, len(hooks))]
    hook = hooks[0]

    def is_predicate_call(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == _HOOK_SHORTCUT_PREDICATE
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self")

    def guarded(test):
        # the predicate itself, or a conjunction it is a term of
        terms = (test.values if isinstance(test, ast.BoolOp)
                 and isinstance(test.op, ast.And) else [test])
        return any(is_predicate_call(term) for term in terms)

    sanctioned = set()
    for stmt in hook.body:
        if isinstance(stmt, ast.If) and guarded(stmt.test):
            sanctioned.update(id(node) for node in stmt.body
                              if isinstance(node, ast.Return))
    problems = []
    returns = [node for node in ast.walk(hook)
               if isinstance(node, ast.Return)]
    for node in returns:
        if id(node) not in sanctioned:
            problems.append(
                "%s:%d: return in process_query outside `if ... "
                "self.%s(...):`" % (rel, node.lineno,
                                    _HOOK_SHORTCUT_PREDICATE))
    if len(sanctioned) > 1:
        problems.append("%s: %d shortcuts in process_query, one allowed"
                        % (rel, len(sanctioned)))
    return problems


def test_hook_returns_early_only_under_the_validity_predicate():
    path = os.path.join(SRC_ROOT, "repro", "core", "septic.py")
    assert _hook_shortcut_violations(path) == []
    # and the gate is looking at a hook that does have the shortcut
    with open(path) as handle:
        assert "self.%s(" % _HOOK_SHORTCUT_PREDICATE in handle.read()


def test_hook_shortcut_gate_catches_a_second_exit(tmp_path):
    bad = tmp_path / "bad_septic.py"
    bad.write_text(
        "class Septic(object):\n"
        "    def process_query(self, context):\n"
        "        verdict = context.memo.verdict\n"
        "        if verdict is not None and self._verdict_holds(verdict):\n"
        "            return\n"
        "        if context.sql in self._seen:\n"
        "            return\n"
        "        if verdict is not None or self._verdict_holds(verdict):\n"
        "            return\n"
        "        self._process(context, None)\n"
    )
    problems = _hook_shortcut_violations(str(bad))
    assert len(problems) == 2
    assert ":7:" in problems[0] and ":9:" in problems[1]


#: what may keep a mapping between two queries under ``repro/core``: the
#: learned-model store (that is its job) and the event register
_SEPTIC_STATE_OWNERS = frozenset(["QMStore", "SepticLogger"])
_MAPPING_MAKERS = frozenset([
    "dict", "OrderedDict", "defaultdict", "Counter", "ChainMap", "set",
    "WeakValueDictionary", "WeakKeyDictionary"])
_MEMOIZERS = frozenset(["lru_cache", "cache", "cached_property"])


def _makes_a_mapping(value):
    return isinstance(value, (ast.Dict, ast.DictComp, ast.Set, ast.SetComp)) \
        or (isinstance(value, ast.Call)
            and _call_name(value) in _MAPPING_MAKERS)


def _septic_state_violations(paths):
    """The only SEPTIC product that survives a query lives on the
    pipeline-cache entry's ``SepticMemo``.  So under ``repro/core`` no
    module-level name, class attribute or instance attribute is bound
    to a mapping (or a set) — something a later query could look itself
    up in — and nothing is wrapped in a memoizing decorator, except in
    the model store and the event register.  Locals are a query's own."""
    problems = []

    def walk(node, owner, in_function, rel):
        if isinstance(node, ast.ClassDef):
            owner, in_function = node.name, False
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) \
                    else decorator
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in _MEMOIZERS and owner not in _SEPTIC_STATE_OWNERS:
                    problems.append(
                        "%s:%d: @%s keeps results between queries"
                        % (rel, node.lineno, name))
            in_function = True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and node.value is not None \
                and owner not in _SEPTIC_STATE_OWNERS \
                and _makes_a_mapping(node.value):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                on_self = (isinstance(target, ast.Attribute)
                           and getattr(target.value, "id", None)
                           in ("self", "cls"))
                if on_self or not in_function:
                    problems.append(
                        "%s:%d: %s holds a mapping that outlives a query — "
                        "what SEPTIC remembers of a statement lives on its "
                        "cache entry's SepticMemo"
                        % (rel, node.lineno, ast.unparse(target)))
        for child in ast.iter_child_nodes(node):
            walk(child, owner, in_function, rel)

    for path in paths:
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        walk(tree, None, False, os.path.relpath(path, REPO_ROOT))
    return problems


def test_septic_keeps_nothing_between_queries_but_the_memo():
    core = os.path.join(SRC_ROOT, "repro", "core")
    problems = _septic_state_violations(list(_python_files(core)))
    assert problems == [], "\n".join(problems)
    # the exempt owners exist, and the memo is where the gate says
    for module, owner in (("store.py", "QMStore"),
                          ("logger.py", "SepticLogger")):
        with open(os.path.join(core, module)) as handle:
            assert "\nclass %s(" % owner in handle.read()
    with open(os.path.join(SQLDB_ROOT, "cache.py")) as handle:
        assert "\nclass SepticMemo(" in handle.read()
    # ... and the hook still has its one early return, no more
    path = os.path.join(core, "septic.py")
    assert _hook_shortcut_violations(path) == []
    with open(path) as handle:
        hook = [node for node in ast.walk(ast.parse(handle.read()))
                if isinstance(node, ast.FunctionDef)
                and node.name == "process_query"]
    assert len(hook) == 1
    assert sum(isinstance(node, ast.Return)
               for node in ast.walk(hook[0])) == 1


def test_septic_state_gate_catches_a_second_memo(tmp_path):
    bad = tmp_path / "septic.py"
    bad.write_text(
        "from functools import lru_cache\n"
        "_EXTERNALS = {}\n"                                     # flagged
        "class Septic(object):\n"
        "    shapes = OrderedDict()\n"                          # flagged
        "    def __init__(self):\n"
        "        self._seen = {}\n"                             # flagged
        "        self.stats = SepticStats()\n"
        "    def process_query(self, context):\n"
        "        key = tuple((item.kind, item.value)\n"
        "                    for item in context.stack)\n"
        "        if self._seen.get(key) is context.memo:\n"
        "            return\n"
        "        counts = {}\n"                                 # a local
        "        self._seen[key] = context.memo\n"
        "    @lru_cache(maxsize=4096)\n"                        # flagged
        "    def _internal_id(self, canonical):\n"
        "        return md5(canonical)\n"
        "class QMStore(object):\n"
        "    def __init__(self):\n"
        "        self._models = {}\n"                           # its job
    )
    problems = _septic_state_violations([str(bad)])
    assert len(problems) == 4, problems
    assert ":2:" in problems[0] and "_EXTERNALS" in problems[0]
    assert ":4:" in problems[1] and "shapes" in problems[1]
    assert ":6:" in problems[2] and "self._seen" in problems[2]
    assert ":16:" in problems[3] and "lru_cache" in problems[3]
    # the planted memo is also a second way out of the hook
    assert len(_hook_shortcut_violations(str(bad))) == 1


#: where planner.py / plan.py may read ``.value`` off an AST node: the
#: places the parser guarantees a ``Literal`` (it never turns these into
#: slots — see ``repro.sqldb.parser.Parser``), and the distributed
#: planner: its routes are cached by the router, not in a shared plan —
#: a slot's value is read from the values vector (``_constant``) and a
#: scatter is planned from the slot-free tree ``prepared.bind_values`` builds
_LITERAL_VALUE_READERS = frozenset([
    "_field_label",         # a select-list field that is a bare literal
    "order_keys",           # ORDER BY <position>
    "DistributedPlanner",
])


def _slot_value_read_violations(path, allowed=_LITERAL_VALUE_READERS):
    """Late binding gate for the plan layer.

    A physical plan belongs to a statement *shape*: the same operator
    tree runs for every values vector, so nothing in planner.py or
    plan.py may look at a constant's value while planning — a ``Param``
    slot has none.  Constants are read in one way, ``evaluate(node,
    ctx)`` when an operator opens, which resolves slots in the
    execution's values.  A ``.value`` read outside the few functions
    that handle parser-pinned literals is a constant baked into a
    shared plan (or an ``AttributeError`` on the first slot).
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []

    def walk(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scopes = scopes + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "value"
                and isinstance(node.ctx, ast.Load)
                and not allowed.intersection(scopes)):
            problems.append(
                "%s:%d: .value read in %s — plan-layer code must not "
                "look at a constant's value (it may be a slot); "
                "evaluate() it when the operator opens"
                % (rel, node.lineno, ".".join(scopes) or "<module>"))
        for child in ast.iter_child_nodes(node):
            walk(child, scopes)

    walk(tree, ())
    return problems


def test_plan_layer_reads_constants_late():
    for module in ("planner.py", "plan.py"):
        path = os.path.join(SRC_ROOT, "repro", "sqldb", module)
        problems = _slot_value_read_violations(path)
        assert problems == [], "\n".join(problems)


def test_late_binding_gate_catches_a_baked_constant(tmp_path):
    bad = tmp_path / "planner.py"
    bad.write_text(
        "def _equality_pair(expr):\n"
        "    return expr.left.name, expr.right.value\n"     # flagged
        "class IndexEqScan:\n"
        "    def label(self):\n"
        "        return repr(self.key.value)\n"             # flagged
        "    def _generate(self, state):\n"
        "        return evaluate(self.key, state.ctx)\n"    # the way
        "def _field_label(expr):\n"
        "    return str(expr.value)\n"                      # pinned: fine
        "class DistributedPlanner:\n"
        "    def _limit_ints(self, limit):\n"
        "        return int(limit.count.value)\n"           # router: fine
        "def store(node, v):\n"
        "    node.value = v\n"                              # a write
    )
    problems = _slot_value_read_violations(str(bad))
    assert len(problems) == 2
    assert ":2:" in problems[0] and ":5:" in problems[1]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _per_row_interpretation_violations(path):
    """Expressions are compiled with the plan, not interpreted per row.

    An operator compiles the expressions it holds when the planner
    builds it (``repro.sqldb.expression.compile_expr``) and calls the
    closures ``fn(row, ctx)`` in its loops.  A call to ``evaluate(``
    inside a loop walks the AST again for every row, and ``.child(``
    there builds a context per row — the two costs the plan layer shed.
    One-shot uses outside any loop (a constant read when an operator
    opens) would be legitimate; per-row ones are not.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []

    def walk(node, in_loop):
        if in_loop and isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "evaluate" or (name == "child"
                                      and isinstance(func, ast.Attribute)):
                problems.append(
                    "%s:%d: %s() inside a loop — per-row work goes "
                    "through a closure compiled with the plan"
                    % (rel, node.lineno, name))
        in_loop = in_loop or isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            walk(child, in_loop)

    walk(tree, False)
    return problems


def test_operators_never_interpret_per_row():
    path = os.path.join(SRC_ROOT, "repro", "sqldb", "plan.py")
    assert _per_row_interpretation_violations(path) == []
    # and the gate is looking at operators that do call closures
    with open(path) as handle:
        assert "compile_expr(" in handle.read()


def test_per_row_gate_catches_an_interpreting_loop(tmp_path):
    bad = tmp_path / "plan.py"
    bad.write_text(
        "class Filter:\n"
        "    def _generate(self, state):\n"
        "        limit = evaluate(self.count, state.ctx)\n"      # at open
        "        for row in self.children[0].rows(state):\n"
        "            if evaluate(self.expr, state.ctx.child(row)):\n"  # x2
        "                yield row\n"
        "        return [expression.evaluate(e, ctx) for e in self.keys]\n"
    )
    problems = _per_row_interpretation_violations(str(bad))
    assert len(problems) == 3
    assert all(":5:" in problem for problem in problems[:2])
    assert ":7:" in problems[2]


_MAP_FACTORIES = ("dict", "OrderedDict", "defaultdict", "WeakKeyDictionary",
                  "WeakValueDictionary")
_MAP_MUTATORS = ("setdefault", "update", "pop", "popitem", "clear",
                 "__setitem__")


def _identity_map_violations(path):
    """Compiled closures belong to whoever compiled them.

    A module-level table from node to closure in ``expression.py`` —
    keyed by ``id(node)`` or by the node — outlives every plan: it kept
    the INSERT statements of a bulk load alive long after their cache
    entries were gone.  The module's maps are constants (operator
    tables, the makers by node *class*); nothing there may call
    ``id()``, and no module-level map may be stored into.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    maps = set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        factory = value.func if isinstance(value, ast.Call) else None
        factory = getattr(factory, "id", getattr(factory, "attr", None))
        if isinstance(value, (ast.Dict, ast.DictComp)) \
                or factory in _MAP_FACTORIES:
            maps.update(target.id for target in stmt.targets
                        if isinstance(target, ast.Name))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "id":
            problems.append("%s:%d: id() — nothing may be keyed by a "
                            "node's identity" % (rel, node.lineno))
        target = None
        if isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MAP_MUTATORS:
            target = node.func.value
        if isinstance(target, ast.Name) and target.id in maps:
            problems.append("%s:%d: module-level map %s is written to"
                            % (rel, node.lineno, target.id))
    return problems


def test_expression_module_keeps_no_table_of_closures():
    path = os.path.join(SRC_ROOT, "repro", "sqldb", "expression.py")
    assert _identity_map_violations(path) == []
    # and it does hold module-level maps for the gate to look at
    with open(path) as handle:
        assert "\n_MAKERS = {" in handle.read()


def test_identity_map_gate_catches_a_side_table(tmp_path):
    bad = tmp_path / "expression.py"
    bad.write_text(
        "import weakref\n"
        "_OPS = {'+': 1}\n"                          # a constant: fine
        "_COMPILED = {}\n"
        "_BY_NODE = weakref.WeakKeyDictionary()\n"
        "def compile_expr(node):\n"
        "    fn = _COMPILED.get(id(node))\n"          # id()
        "    if fn is None:\n"
        "        fn = _COMPILED[id(node)] = make(node)\n"    # id(), store
        "        _BY_NODE.setdefault(node, fn)\n"     # store
        "    local = {}\n"
        "    local['x'] = _OPS['+']\n"                # a local: fine
        "    return fn\n"
    )
    problems = _identity_map_violations(str(bad))
    assert len(problems) == 4
    assert sum("id()" in problem for problem in problems) == 2
    assert any("_COMPILED is written" in problem for problem in problems)
    assert any("_BY_NODE is written" in problem for problem in problems)


_VERSION_RECORDS = frozenset(["_RowMeta", "_RowVersion", "_Tombstone"])
_VERSION_LOGIC = frozenset(["check_write", "_visible_row", "_tomb_visible",
                            "_seal_entry", "vacuum"])


def _row_store_split_violations(path):
    """``storage.py`` is split along one line: *what a row version
    means* lives in the one ``Table`` class, *where a row image lives*
    in the row stores (the ``...Rows`` classes).

    A second ``...Table`` class is a second owner of MVCC, indexes and
    uniqueness; a version record built outside ``Table``, or a row
    store that defines visibility / conflict / seal / vacuum logic, is
    the parallel path growing back.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    tables = [node.name for node in classes if node.name.endswith("Table")]
    if tables != ["Table"]:
        problems.append("%s: classes named ...Table: %r — exactly one, "
                        "Table, owns row versions" % (rel, tables))
    inside_table = set()
    for cls in classes:
        if cls.name == "Table":
            inside_table.update(id(node) for node in ast.walk(cls))
        if cls.name.endswith("Rows"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and node.name in _VERSION_LOGIC:
                    problems.append(
                        "%s:%d: row store %s defines %s() — a store only "
                        "knows where images live"
                        % (rel, node.lineno, cls.name, node.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _VERSION_RECORDS \
                and id(node) not in inside_table:
            problems.append("%s:%d: %s built outside class Table"
                            % (rel, node.lineno, node.func.id))
    return problems


def test_one_table_owns_row_versions():
    path = os.path.join(SRC_ROOT, "repro", "sqldb", "storage.py")
    assert _row_store_split_violations(path) == []
    # and there are row stores for the gate to look at
    with open(path) as handle:
        source = handle.read()
    assert "\nclass MemoryRows(" in source and "\nclass PagedRows(" in source
    # nothing else in src/ builds a version record either
    for other in _python_files(SRC_ROOT):
        if other == path:
            continue
        with open(other) as handle:
            tree = ast.parse(handle.read(), filename=other)
        names = {node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)}
        assert not names & _VERSION_RECORDS, other


def test_row_store_split_gate_catches_a_second_owner(tmp_path):
    bad = tmp_path / "storage.py"
    bad.write_text(
        "class Table:\n"
        "    def update_row(self, row, txn):\n"
        "        self._meta[row.rowid] = _RowMeta(None, txn, None)\n"  # fine
        "class PagedTable(Table):\n"                      # a second owner
        "    def insert(self, row, txn):\n"
        "        self._meta[row.rowid] = _RowMeta(None, txn, None)\n"
        "class PagedRows:\n"
        "    def get(self, rowid):\n"                     # fine
        "        return None\n"
        "    def vacuum(self, horizon):\n"                # version logic
        "        return 0\n"
        "def bury(row):\n"
        "    return _Tombstone(row, 0, None, None, None, 0)\n"
    )
    problems = _row_store_split_violations(str(bad))
    assert len(problems) == 4
    assert any("['Table', 'PagedTable']" in problem for problem in problems)
    assert any("PagedRows defines vacuum()" in problem
               for problem in problems)
    assert sum("built outside class Table" in problem
               for problem in problems) == 2


BENCHLAB_ROOT = os.path.join(SRC_ROOT, "repro", "benchlab")

_SWEEP_KERNEL = "run_sweep"
_SWEEP_DRIVERS = frozenset([_SWEEP_KERNEL, "drive_ops"])
#: calls that kill or recover a victim — what a sweep does once per site
_CRASH_CALLS = frozenset(["recover", "reopen", "kill_primary", "plant_crash",
                          "flip_page_bit", "write_log_bytes"])


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _dotted_call(node):
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return "%s.%s" % (func.value.id, func.attr)
    return None


def _collects_problems(node):
    """A yield, or an append/extend onto something named like a problem
    list — how a driver reports a violated invariant."""
    if isinstance(node, (ast.Yield, ast.YieldFrom)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("append", "extend"):
        names = {sub.id for sub in ast.walk(node.func.value)
                 if isinstance(sub, ast.Name)}
        names.update(sub.attr for sub in ast.walk(node.func.value)
                     if isinstance(sub, ast.Attribute))
        return any(word in name.lower() for name in names
                   for word in ("problem", "mismatch", "failure", "wrong"))
    return False


def _sweep_kernel_violations(path):
    """``crashsweep.py`` has one sweep kernel.  A configuration supplies
    a golden run, a site enumerator, a recover fn and expectations; the
    loop over kill sites, the victim-directory lifecycle and the report
    are the kernel's alone:

    * exactly one class named ``...Result`` / ``...Report``;
    * ``SweepReport(...)`` is built, and ``shutil.rmtree`` /
      ``os.makedirs`` are called, only inside ``run_sweep``;
    * no other module-level function (bar the one op driver) holds a
      loop that both crashes/recovers a victim — or iterates something
      named ``...site...`` — and collects problems: that is a sixth
      hand-rolled driver coming back.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    reports = [node.name for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name.endswith(("Result", "Report"))]
    if len(reports) != 1:
        problems.append("%s: result/report classes %r — the kernel returns "
                        "exactly one" % (rel, reports))
    inside_kernel = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == _SWEEP_KERNEL:
            inside_kernel.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside_kernel:
            continue
        if _dotted_call(node) in ("shutil.rmtree", "os.makedirs"):
            problems.append("%s:%d: %s outside %s — the kernel owns the "
                            "directory lifecycle"
                            % (rel, node.lineno, _dotted_call(node),
                               _SWEEP_KERNEL))
        elif reports and _call_name(node) == reports[0]:
            problems.append("%s:%d: %s built outside %s"
                            % (rel, node.lineno, reports[0], _SWEEP_KERNEL))
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef) \
                or function.name in _SWEEP_DRIVERS:
            continue
        for loop in ast.walk(function):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            over_sites = isinstance(loop, ast.For) and any(
                "site" in name.lower() for name in
                [sub.id for sub in ast.walk(loop.iter)
                 if isinstance(sub, ast.Name)]
                + [sub.attr for sub in ast.walk(loop.iter)
                   if isinstance(sub, ast.Attribute)])
            body = [sub for stmt in loop.body for sub in ast.walk(stmt)]
            crashes = any(isinstance(sub, ast.Call)
                          and _call_name(sub) in _CRASH_CALLS
                          for sub in body)
            if (over_sites or crashes) \
                    and any(_collects_problems(sub) for sub in body):
                problems.append(
                    "%s:%d: %s() loops over kill sites and collects "
                    "problems — that is %s's job"
                    % (rel, loop.lineno, function.name, _SWEEP_KERNEL))
    return problems


def test_crashsweep_has_one_kernel():
    path = os.path.join(BENCHLAB_ROOT, "crashsweep.py")
    assert _sweep_kernel_violations(path) == []
    # and the gate is looking at a kernel that exists
    with open(path) as handle:
        source = handle.read()
    assert "\ndef run_sweep(" in source and "\ndef drive_ops(" in source
    assert "\nclass SweepReport(" in source


def test_sweep_kernel_gate_catches_a_sixth_driver(tmp_path):
    bad = tmp_path / "crashsweep.py"
    bad.write_text(
        "import os, shutil\n"
        "class SweepReport: pass\n"
        "class TornSweepResult: pass\n"                  # a second result
        "def run_sweep(config, workdir, seed):\n"
        "    shutil.rmtree(workdir)\n"                    # fine: the kernel
        "    os.makedirs(workdir)\n"
        "    problems = []\n"
        "    for site in config.sites(None):\n"
        "        problems.extend(config.recover(site))\n"
        "    return SweepReport()\n"
        "def _recover(own, victim_dir, golden, site, counters):\n"
        "    for node in golden.nodes:\n"                 # fine: not sites
        "        yield 'fencing', node\n"
        "def run_torn_sweep(workdir, seed):\n"            # the sixth driver
        "    mismatches = []\n"
        "    for offset in range(9):\n"
        "        shutil.rmtree(workdir)\n"
        "        db = Database.recover(workdir)\n"
        "        if digest(db) != offset:\n"
        "            mismatches.append(offset)\n"
        "    return SweepReport()\n"
        "def run_site_sweep(config):\n"
        "    for site in config.sites(None):\n"
        "        yield site, 'digest'\n"
    )
    problems = _sweep_kernel_violations(str(bad))
    assert len(problems) == 5, problems
    assert any("['SweepReport', 'TornSweepResult']" in p for p in problems)
    assert sum("shutil.rmtree outside run_sweep" in p for p in problems) == 1
    assert sum("SweepReport built outside run_sweep" in p
               for p in problems) == 1
    assert any("run_torn_sweep() loops over kill sites" in p
               for p in problems)
    assert any("run_site_sweep() loops over kill sites" in p
               for p in problems)


_FIFO_RESOURCE = ("simulation.py", "FifoResource")


def _fifo_arithmetic_violations(path):
    """Serial-server arithmetic — ``start = max(arrival, free_at)``
    followed by storing ``start + service`` into a ``busy...`` /
    ``free_at`` slot — lives only in :class:`FifoResource`.  Private
    copies of it (the failover DES's dict, the scale-out DES's list)
    were one concept."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    exempt = set()
    if os.path.basename(path) == _FIFO_RESOURCE[0]:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) \
                    and node.name == _FIFO_RESOURCE[1]:
                exempt.update(id(sub) for sub in ast.walk(node))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or id(node) in exempt \
                or not (isinstance(node.value, ast.BinOp)
                        and isinstance(node.value.op, ast.Add)):
            continue
        for target in node.targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            name = getattr(target, "attr", None) or getattr(target, "id", "")
            if name.startswith("busy") or name == "free_at":
                problems.append(
                    "%s:%d: FIFO arithmetic into %r — serve it through "
                    "%s" % (rel, node.lineno, name, _FIFO_RESOURCE[1]))
    return problems


def test_fifo_arithmetic_lives_in_the_shared_resource():
    problems = []
    for path in _python_files(BENCHLAB_ROOT):
        problems.extend(_fifo_arithmetic_violations(path))
    assert problems == [], "\n".join(problems)
    # the exempt class exists and is what the experiments use
    with open(os.path.join(BENCHLAB_ROOT, _FIFO_RESOURCE[0])) as handle:
        assert "\nclass %s(" % _FIFO_RESOURCE[1] in handle.read()
    with open(os.path.join(BENCHLAB_ROOT, "harness.py")) as handle:
        assert "FifoResource()" in handle.read()


def test_fifo_gate_catches_a_private_server(tmp_path):
    bad = tmp_path / "harness.py"
    bad.write_text(
        "class _SharedServer:\n"
        "    def serve(self, arrival, count):\n"
        "        start = max(arrival, self.free_at)\n"
        "        self.free_at = start + self.service_ticks * count\n"
        "        return self.free_at\n"
        "def occupy(busy_until, shard, now, service):\n"
        "    start = max(busy_until[shard], now)\n"
        "    busy_until[shard] = start + service\n"
        "    total = start + service\n"                   # fine: no slot
        "    return total\n"
    )
    problems = _fifo_arithmetic_violations(str(bad))
    assert len(problems) == 2
    assert any("'free_at'" in problem for problem in problems)
    assert any("'busy_until'" in problem for problem in problems)
    # the very same class body is fine where it belongs
    home = tmp_path / "simulation.py"
    home.write_text(
        "class FifoResource:\n"
        "    def serve(self, arrival, service):\n"
        "        start = max(arrival, self.free_at)\n"
        "        self.free_at = start + service\n"
        "        return self.free_at\n"
    )
    assert _fifo_arithmetic_violations(str(home)) == []


SQLDB_ROOT = os.path.join(SRC_ROOT, "repro", "sqldb")

#: what BEGIN would have to call to copy a table
_TABLE_COPY_CALLS = frozenset(["acquire_write", "clone", "rows",
                               "snapshot_state"])
_SNAPSHOT_UNDO = frozenset(["snapshot_state", "restore_state"])
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _table_snapshot_violations(path):
    """A transaction is the row versions it owns (``Session.write_txn``);
    ROLLBACK undoes them by rowid.  The mechanism this replaced — BEGIN
    copies every table, ROLLBACK writes the copy back over whatever
    other sessions committed meanwhile — must not grow back: ``begin``
    loops over nothing and calls nothing that copies or locks a table,
    and no ``snapshot_state`` / ``restore_state`` exists to call."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in _SNAPSHOT_UNDO:
            problems.append("%s:%d: %s() — undo is by rowid, from the "
                            "transaction's own entries"
                            % (rel, node.lineno, node.name))
    session = _class_def(tree, "Session")
    begins = [] if session is None else [
        node for node in session.body
        if isinstance(node, ast.FunctionDef) and node.name == "begin"]
    for begin in begins:
        for node in ast.walk(begin):
            if isinstance(node, _LOOPS):
                problems.append("%s:%d: Session.begin loops — BEGIN costs "
                                "the same whatever the tables hold"
                                % (rel, node.lineno))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TABLE_COPY_CALLS):
                problems.append("%s:%d: Session.begin calls %s()"
                                % (rel, node.lineno, node.func.attr))
    return problems


def test_begin_copies_no_table():
    for name in ("engine.py", "storage.py"):
        assert _table_snapshot_violations(
            os.path.join(SQLDB_ROOT, name)) == [], name
    # and the gate looked at the real thing
    with open(os.path.join(SQLDB_ROOT, "engine.py")) as handle:
        session = _class_def(ast.parse(handle.read()), "Session")
    assert "begin" in {node.name for node in session.body
                       if isinstance(node, ast.FunctionDef)}


def test_table_snapshot_gate_catches_a_begin_time_copy(tmp_path):
    bad = tmp_path / "engine.py"
    bad.write_text(
        "class Session:\n"
        "    def begin(self):\n"
        "        db = self.database\n"
        "        db.lock_manager.catalog.acquire_write()\n"
        "        self._tx_snapshot = {name: table.snapshot_state()\n"
        "                             for name, table in db.tables.items()}\n"
        "    def rollback(self):\n"
        "        for table in self.database.tables.values():\n"   # not begin
        "            table.undo(self.write_txn)\n"
        "class Table:\n"
        "    def snapshot_state(self):\n"
        "        return [row.clone() for row in self.store.rows()]\n"
        "    def restore_state(self, state):\n"
        "        self.store.clear()\n"
    )
    problems = _table_snapshot_violations(str(bad))
    assert len(problems) == 5
    assert sum("undo is by rowid" in problem for problem in problems) == 2
    assert sum("Session.begin loops" in problem for problem in problems) == 1
    for call in ("acquire_write", "snapshot_state"):
        assert any("Session.begin calls %s()" % call in problem
                   for problem in problems)


def _commit_grouping_violations(path):
    """"BEGIN opens, a transaction's STMT buffers, COMMIT releases,
    ROLLBACK discards" is one state machine,
    :class:`repro.sqldb.wal.CommitGrouper`.  It used to be written four
    times; a function outside ``wal.py`` that compares a record's
    ``op`` (or a local named for it) against both the BEGIN and the
    COMMIT marker is a fifth."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        compared = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + list(node.comparators)
            if any(getattr(side, "attr", getattr(side, "id", None)) == "op"
                   for side in sides):
                compared.update(side.attr for side in sides
                                if isinstance(side, ast.Attribute))
        if {"BEGIN", "COMMIT"} <= compared:
            problems.append("%s:%d: %s() groups records into committed "
                            "units itself — feed a CommitGrouper"
                            % (rel, func.lineno, func.name))
    return problems


def test_committed_units_are_grouped_in_one_place():
    problems = []
    for path in _python_files(SRC_ROOT):
        if path != os.path.join(SQLDB_ROOT, "wal.py"):
            problems.extend(_commit_grouping_violations(path))
    assert problems == [], "\n".join(problems)
    # the one grouper is there, and it is what the gate would flag
    assert any("feed()" in problem for problem in
               _commit_grouping_violations(os.path.join(SQLDB_ROOT,
                                                        "wal.py")))


def test_commit_grouping_gate_catches_a_fifth_grouper(tmp_path):
    bad = tmp_path / "apply.py"
    bad.write_text(
        "def offer(self, record):\n"
        "    durable = record.op == WalRecord.COMMIT or (\n"     # fine
        "        record.op == WalRecord.STMT and record.tx == 0)\n"
        "    return durable\n"
        "def regroup(self, records):\n"
        "    for rec in records:\n"
        "        if rec.op == wal_mod.WalRecord.BEGIN:\n"
        "            self._open_tx[rec.tx] = []\n"
        "        elif rec.op == wal_mod.WalRecord.COMMIT:\n"
        "            self._apply(self._open_tx.pop(rec.tx, []))\n"
    )
    problems = _commit_grouping_violations(str(bad))
    assert len(problems) == 1 and "regroup()" in problems[0]


#: what a WAL record carries (``repro.sqldb.wal.WalRecord``'s fields)
_WAL_RECORD_FIELDS = frozenset(["lsn", "op", "tx", "sql", "clock", "rand",
                                "failed", "payload"])


def _names_a_record_field(node):
    return ((isinstance(node, ast.Attribute)
             and node.attr in _WAL_RECORD_FIELDS)
            or (isinstance(node, ast.Constant)
                and node.value in _WAL_RECORD_FIELDS))


def _checksums_its_argument(function):
    """Every ``zlib.crc32`` in *function* runs over its first parameter
    as given — stored bytes, not an encoding made on the spot."""
    param = function.args.args[0].arg if function.args.args else None
    calls = [node for node in ast.walk(function)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "crc32"]
    return bool(calls) and all(
        len(call.args) == 1 and isinstance(call.args[0], ast.Name)
        and call.args[0].id == param for call in calls)


def _record_codec_violations(path):
    """WAL record payloads have one encoder and one decoder, both in
    ``wal.py`` (``WalRecord.payload`` / ``WalRecord.from_payload``).
    Elsewhere: no ``json.dumps`` / ``json.loads`` over a record's
    fields, no ``to_payload`` (the re-encoder records had before they
    kept their bytes), and ``shipped_crc`` checksums the payload bytes
    it is handed, not a re-encoding of a record."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "to_payload":
            problems.append("%s:%d: .to_payload — WAL records are encoded "
                            "only in repro/sqldb/wal.py (WalRecord.payload)"
                            % (rel, node.lineno))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "json"
              and node.func.attr in ("dumps", "loads")
              and any(_names_a_record_field(inner)
                      for arg in node.args for inner in ast.walk(arg))):
            problems.append("%s:%d: json.%s of a WAL record — only "
                            "repro/sqldb/wal.py encodes or decodes one"
                            % (rel, node.lineno, node.func.attr))
        elif (isinstance(node, ast.FunctionDef)
              and node.name == "shipped_crc"
              and not _checksums_its_argument(node)):
            problems.append("%s:%d: shipped_crc() does not checksum the "
                            "payload bytes it is handed"
                            % (rel, node.lineno))
    return problems


def test_wal_record_payloads_have_one_codec():
    wal_py = os.path.join(SQLDB_ROOT, "wal.py")
    with open(wal_py) as handle:
        codec = handle.read()
    # the one encoder and the one decoder the rest of src/ calls
    assert "def _encode(record):" in codec and "def from_payload(" in codec
    problems = []
    for path in _python_files(SRC_ROOT):
        if path != wal_py:
            problems.extend(_record_codec_violations(path))
    assert problems == [], "\n".join(problems)
    with open(os.path.join(SRC_ROOT, "repro", "replica", "node.py")) as handle:
        assert "def shipped_crc(" in handle.read()   # the one it inspects


def test_record_codec_gate_catches_a_reencoded_ship_crc(tmp_path):
    """A ship CRC over a fresh encoding of the record — what every
    shipped record paid for before records kept their bytes — turns
    the gate red twice: a second encoder, and a CRC that does not run
    over the stored bytes."""
    node_py = os.path.join(SRC_ROOT, "repro", "replica", "node.py")
    assert _record_codec_violations(node_py) == []
    with open(node_py) as handle:
        source = handle.read()
    stored = "zlib.crc32(payload)"
    assert stored in source
    planted = tmp_path / "node.py"
    planted.write_text("import json\n" + source.replace(
        stored,
        'zlib.crc32(json.dumps({"lsn": record.lsn, "op": record.op, '
        '"sql": record.sql}, sort_keys=True).encode("utf-8"))'))
    problems = _record_codec_violations(str(planted))
    assert len(problems) == 2, problems
    assert any("json.dumps of a WAL record" in p for p in problems)
    assert any("shipped_crc() does not checksum" in p for p in problems)


REPLICA_ROOT = os.path.join(SRC_ROOT, "repro", "replica")


def _is_resolve_call(node):
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "resolve")


def _route_parse_violations(paths):
    """The fleet routes by statement shape: in the packages in front of
    the engines (``shard/``, ``replica/``) a text is parsed only when
    the route cache has neither the text nor its shape — a decision
    :meth:`repro.sqldb.cache.PipelineCache.resolve` owns.  So, over one
    package's files: ``parse_sql`` is called from one function at most;
    that function is the builder handed to a ``.resolve(...)`` call and
    is referred to nowhere else (nobody calls it past the cache); and
    no module keeps an ``OrderedDict`` LRU of its own beside the shared
    cache."""
    problems = []
    trees = []
    for path in paths:
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        rel = os.path.relpath(path, REPO_ROOT)
        trees.append((rel, tree))
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) \
                    == "OrderedDict" or (
                        isinstance(node, ast.alias)
                        and node.name == "OrderedDict"):
                problems.append("%s:%d: an OrderedDict of its own — routes "
                                "are cached in the shared PipelineCache"
                                % (rel, getattr(node, "lineno", 0)))
    handed = set()      # ids of the nodes handed to a resolve call
    builders = set()    # ... and their names
    for _rel, tree in trees:
        for node in ast.walk(tree):
            if _is_resolve_call(node):
                for arg in node.args + [kw.value for kw in node.keywords]:
                    name = getattr(arg, "id", getattr(arg, "attr", None))
                    if name is not None:
                        handed.add(id(arg))
                        builders.add(name)
    callers = []
    for rel, tree in trees:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [node for node in ast.walk(func)
                     if isinstance(node, ast.Call)
                     and _call_name(node) == "parse_sql"]
            if not calls:
                continue
            callers.append((rel, func.name))
            if func.name not in builders:
                problems.append(
                    "%s:%d: %s() parses without a cache miss — parse_sql "
                    "belongs in the builder handed to PipelineCache."
                    "resolve" % (rel, calls[0].lineno, func.name))
    parsing = {name for _rel, name in callers} & builders
    for rel, tree in trees:
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) in parsing \
                    and id(node) not in handed:
                problems.append(
                    "%s:%d: %s() is used past the route cache — only "
                    "resolve() may call the builder"
                    % (rel, node.lineno,
                       getattr(node, "id", getattr(node, "attr", None))))
    if len(callers) > 1:
        problems.append("parse_sql is called from %d functions (%s) — one "
                        "per package" % (len(callers), ", ".join(
                            "%s:%s()" % caller for caller in callers)))
    return problems


def test_fleet_parses_only_on_a_route_cache_miss():
    for root in (SHARD_ROOT, REPLICA_ROOT):
        problems = _route_parse_violations(list(_python_files(root)))
        assert problems == [], "\n".join(problems)
        # and the gate is looking at a package that does route by shape
        assert any(".resolve(" in open(path).read()
                   for path in _python_files(root)), root


def test_route_parse_gate_catches_an_unconditional_parse(tmp_path):
    bad = tmp_path / "router.py"
    bad.write_text(
        "from collections import OrderedDict\n"                 # flagged
        "class RoutingConnection(object):\n"
        "    def _is_read(self, sql):\n"
        "        statements, _comments = parse_sql(sql)\n"      # flagged
        "        return all(isinstance(s, READS) for s in statements)\n"
        "class ShardRouter(object):\n"
        "    def _route(self, sql):\n"
        "        return self._routes.resolve(None, sql, self.epoch,\n"
        "                                    self._plan)\n"      # the way
        "    def _plan(self, sql, lexed, slots):\n"
        "        return self.plan(parse_sql(sql, lexed, slots=slots))\n"
        "    def _check(self, sql, route):\n"
        "        return self._plan(sql, tokenize(sql), False)\n"  # flagged
    )
    problems = _route_parse_violations([str(bad)])
    assert len(problems) == 4
    assert ":1:" in problems[0] and "OrderedDict" in problems[0]
    assert ":4:" in problems[1] and "_is_read()" in problems[1]
    assert ":13:" in problems[2] and "_plan()" in problems[2]
    assert "2 functions" in problems[3]


#: ``attacks.corpus.AttackOutcome`` grades an attack run, not a
#: statement — another concept than the client outcome, exempt by name
_OUTCOME_EXEMPT = frozenset(["AttackOutcome"])
#: page-I/O retry is the pager's own fail-closed loop, not a client's
_BACKOFF_EXEMPT = frozenset([os.path.join("sqldb", "pager.py")])


def _is_backoff_formula(node):
    """``2 ** (<name> - 1)`` — the doubling of a retry schedule."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and getattr(node.left, "value", None) == 2
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Sub)
            and getattr(node.right.right, "value", None) == 1)


def _session_contract_violations(root):
    """The client session contract has one owner per piece, under
    ``Connection``, ``RoutingConnection``, ``ShardRouter`` and
    ``NetClient`` alike: one outcome class (``QueryOutcome``), one
    ``query_or_raise``, one capture of a raw exception as the "lost
    connection to engine" error, one backoff formula.  Each was written
    two to four times; a second copy of any of them is a façade growing
    its own contract again."""
    found = {"outcome": [], "query_or_raise": [], "capture": [],
             "backoff": []}
    for path in _python_files(root):
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        rel = os.path.relpath(path, root)
        # docstrings may talk about the capture; only code performs it
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            where = "%s:%d" % (rel, getattr(node, "lineno", 0))
            if isinstance(node, ast.ClassDef) \
                    and node.name.endswith("Outcome") \
                    and node.name not in _OUTCOME_EXEMPT:
                found["outcome"].append("%s %s" % (where, node.name))
            elif isinstance(node, ast.FunctionDef) \
                    and node.name == "query_or_raise":
                found["query_or_raise"].append(where)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and "lost connection to engine" in node.value \
                    and id(node) not in docstrings:
                found["capture"].append(where)
            elif _is_backoff_formula(node) and not any(
                    rel.endswith(exempt) for exempt in _BACKOFF_EXEMPT):
                found["backoff"].append(where)
    problems = []
    for what, places in sorted(found.items()):
        if len(places) != 1:
            problems.append("%d × %s (%s) — the session contract keeps "
                            "exactly one" % (len(places), what,
                                             ", ".join(places) or "none"))
    return problems, found


def test_session_contract_has_one_owner_per_piece():
    problems, found = _session_contract_violations(
        os.path.join(SRC_ROOT, "repro"))
    assert problems == [], "\n".join(problems)
    assert found["outcome"][0].endswith(" QueryOutcome")
    for what, module in (("outcome", "sqldb/connection.py"),
                         ("query_or_raise", "sqldb/connection.py"),
                         ("capture", "sqldb/connection.py"),
                         ("backoff", "core/resilience.py")):
        assert found[what][0].startswith(module + ":"), found[what]


def test_session_contract_gate_catches_a_second_copy(tmp_path):
    package = tmp_path / "repro"
    (package / "sqldb").mkdir(parents=True)
    (package / "net").mkdir()
    (package / "sqldb" / "connection.py").write_text(
        "class QueryOutcome(object):\n"
        "    pass\n"
        "class AttackOutcome(object):\n"                        # exempt
        "    pass\n"
        "def captured(call):\n"
        "    '''lost connection to engine, says the docstring'''\n"  # fine
        "    raise Lost('lost connection to engine during query')\n"
        "def query_or_raise(self, sql):\n"
        "    return base * (2 ** (attempt - 1))\n"
    )
    (package / "sqldb" / "pager.py").write_text(
        "backoff = IO_BACKOFF * (2 ** (attempt - 1))\n"         # exempt
    )
    problems, _found = _session_contract_violations(str(package))
    assert problems == []
    (package / "net" / "client.py").write_text(
        "class NetOutcome(object):\n"                           # flagged
        "    def query_or_raise(self, sql):\n"                  # flagged
        "        raise Lost('lost connection to engine (%s)' % sql)\n"
        "    def _ticks(self, attempt):\n"
        "        return min(16, 2 ** (attempt - 1))\n"          # flagged
    )
    problems, _found = _session_contract_violations(str(package))
    assert len(problems) == 4
    joined = "\n".join(problems)
    assert "2 × outcome" in joined and "NetOutcome" in joined
    assert "2 × query_or_raise" in joined
    assert "2 × capture" in joined and "2 × backoff" in joined


def _load_spans():
    """``benchmarks/e2e/spans.py``, imported read-only (it defines the
    shim table; nothing is installed until a ``Tracer`` is asked to)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_e2e_spans", os.path.join(REPO_ROOT, "benchmarks", "e2e",
                                   "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved_shims(shims):
    """Rows of the benchmark's shim table — ``(module, class or None,
    attribute, layer)`` — that no longer name a callable.  The
    benchmark patches these names from outside ``src/``; a refactor
    that moves one must turn red here, not at benchmark time."""
    import importlib

    problems = []
    for module_name, class_name, attribute, _layer in shims:
        dotted = ".".join(part for part in (module_name, class_name,
                                            attribute) if part)
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            target = getattr(owner, attribute)
        except (ImportError, AttributeError) as exc:
            problems.append("%s does not resolve (%s)" % (dotted, exc))
            continue
        if not callable(target):
            problems.append("%s is not callable" % dotted)
    return problems


def test_every_benchmark_shim_resolves():
    spans = _load_spans()
    assert len(spans.SHIMS) >= 40
    problems = _unresolved_shims(spans.SHIMS)
    assert problems == [], "\n".join(problems)


def test_shim_gate_catches_a_moved_name():
    problems = _unresolved_shims((
        ("repro.sqldb.connection", "Connection", "query", "x"),   # fine
        ("repro.net.client", "NetClient", "_next_seq", "x"),      # gone
        ("repro.net.client", "NetOutcome", "scalar", "x"),        # gone
        ("repro.replica.no_such_module", None, "parse_sql", "x"),
        ("repro.sqldb.connection", "Connection", "MAX_STATEMENTS", "x"),
    ))
    assert len(problems) == 4
    assert "NetClient._next_seq does not resolve" in problems[0]
    assert "NetOutcome" in problems[1]
    assert "no_such_module" in problems[2]
    assert "MAX_STATEMENTS is not callable" in problems[3]


def _reads_an_image(node, images):
    """Is *node* a ``….to_dict()`` call, or a name bound to one?"""
    if isinstance(node, ast.Name):
        return node.id in images
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_dict")


def _table_image_read_violations(path):
    """The layout of a table image is the storage module's to write and
    read: anywhere else, a ``to_dict()`` result — directly, or through
    a name bound to one (scope-blind, like the undefined-names pass) —
    is passed on whole, never subscripted or ``.get``-ed.  Code after a
    table's rows asks the table (``Table.value_rows``) or decodes an
    image with ``storage.image_rows``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, REPO_ROOT)
    images = {target.id
              for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and _reads_an_image(node.value, ())
              for target in node.targets if isinstance(target, ast.Name)}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            image = node.value
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"):
            image = node.func.value
        else:
            continue
        if _reads_an_image(image, images):
            problems.append("%s:%d: reads inside a to_dict() image — only "
                            "repro/sqldb/storage.py knows its layout"
                            % (rel, node.lineno))
    return problems


def test_table_images_are_read_only_by_the_storage_module():
    storage_py = os.path.abspath(os.path.join(SQLDB_ROOT, "storage.py"))
    problems = []
    for path in _python_files(SRC_ROOT):
        if os.path.abspath(path) != storage_py:
            problems.extend(_table_image_read_violations(path))
    assert problems == [], "\n".join(problems)


def test_table_image_gate_catches_a_layout_reader(tmp_path):
    """The replica page-repair source indexing the image it builds, or
    a name bound to one, turns the gate red."""
    coordinator_py = os.path.join(REPLICA_ROOT, "coordinator.py")
    assert _table_image_read_violations(coordinator_py) == []
    with open(coordinator_py) as handle:
        source = handle.read()
    live = "        return table.value_rows()\n"
    assert source.count(live) == 1
    planted = tmp_path / "coordinator.py"
    planted.write_text(source.replace(
        live, '        return table.to_dict()["rows"]\n'))
    problems = _table_image_read_violations(str(planted))
    assert len(problems) == 1 and "coordinator.py:" in problems[0], problems
    planted.write_text(source.replace(
        live, "        image = table.to_dict()\n"
              "        return image.get('cols')\n"))
    assert len(_table_image_read_violations(str(planted))) == 1


# -- one tree, one walker -----------------------------------------------------

#: statements whose parse holds every node class of ``ast_nodes`` with
#: every node-valued field filled at least once
_TREE_CORPUS = [
    "SELECT DISTINCT a, b AS bee, t.*, -a, ~b, COUNT(*), COUNT(DISTINCT a),"
    " CAST(SUM(a) AS CHAR), CASE a WHEN 1 THEN 'x' ELSE 'y' END,"
    " (SELECT MAX(a) FROM u) FROM t JOIN u ON t.x = u.x"
    " LEFT JOIN (SELECT 1 AS x) AS d ON d.x = t.x"
    " WHERE NOT a IN (1, ?) AND b NOT IN (SELECT b FROM u)"
    " AND a BETWEEN 1 AND 5 AND a IS NOT NULL AND a LIKE 'x%'"
    " AND EXISTS (SELECT 1 FROM u) OR a XOR b"
    " GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5 OFFSET 2"
    " UNION ALL SELECT 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)"
    " ON DUPLICATE KEY UPDATE b = b + 1",
    "UPDATE t SET a = 1 WHERE id = 3 ORDER BY id LIMIT 2",
    "DELETE FROM t WHERE a = 1 ORDER BY a LIMIT 1",
    "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8) DEFAULT 'x')",
    "ALTER TABLE t ADD COLUMN c INT DEFAULT 0",
    "ALTER TABLE t DROP COLUMN c", "CREATE INDEX i ON t (a)",
    "DROP INDEX i ON t", "TRUNCATE TABLE t", "DROP TABLE t",
    "BEGIN", "COMMIT", "ROLLBACK", "EXPLAIN SELECT 1", "SHOW TABLES",
    "DESCRIBE t",
]


def _tree_classes(module):
    return [cls for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)]


def _node_fields(cls, module):
    """The fields of *cls* whose annotation names a node class."""
    node_names = {name for name, value in vars(module).items()
                  if isinstance(value, type)
                  and issubclass(value, module.Node)}
    return [f.name for f in dataclasses.fields(cls)
            if node_names & set(re.findall(r"\w+", str(f.type)))]


def _plant(value, make, planted):
    """*value* with every node in it (through lists and tuples)
    replaced by a fresh ``make()``, each noted in *planted*."""
    from repro.sqldb import ast_nodes as tree

    if isinstance(value, (list, tuple)):
        return type(value)(_plant(item, make, planted) for item in value)
    if isinstance(value, tree.Node):
        planted.append(make())
        return planted[-1]
    return value


def _planted(node, name, make):
    """*node* with field *name* planted, and the planted nodes."""
    planted = []
    value = _plant(getattr(node, name), make, planted)
    return dataclasses.replace(node, **{name: value}), planted


def _reaches(nodes, planted):
    return all(any(p is n for n in nodes) for p in planted)


def _tree_walker_violations(classes, examples):
    """For every node class: ``walk`` reaches a sentinel planted in each
    node-valued field (lists, lists of lists and tuples included), and
    the planner's aggregate collector an aggregate planted in each such
    field of an expression; ``to_sql`` renders an example; ``validate``
    accepts every statement and (in a select list) every expression;
    ``compile_expr`` has an evaluator for every expression."""
    from repro.sqldb import ast_nodes as tree
    from repro.sqldb import expression, planner
    from repro.sqldb.errors import SQLError
    from repro.sqldb.unparse import to_sql
    from repro.sqldb.validator import validate

    def aggregate():
        return tree.FuncCall("SUM", [tree.ColumnRef("a")])

    problems = []
    for cls in classes:
        found = examples.get(cls, [])
        if not found:
            problems.append("%s: no example in the corpus" % cls.__name__)
            continue
        for name in _node_fields(cls, tree):
            holders = [node for node in found
                       if _planted(node, name, tree.Star)[1]]
            if not holders:
                problems.append("%s.%s: never holds a node in the corpus"
                                % (cls.__name__, name))
                continue
            planted, stars = _planted(holders[0], name, tree.Star)
            if not _reaches(list(tree.walk(planted)), stars):
                problems.append("walk misses %s.%s" % (cls.__name__, name))
            # in an expression, outside an aggregate call and a nested
            # query (whose aggregates are their own)
            holders = [node for node in holders
                       if isinstance(node, tree.Expr)
                       and not planner._is_aggregate(node)]
            if not holders or "Select" in str(
                    cls.__dataclass_fields__[name].type):
                continue
            planted, sums = _planted(holders[0], name, aggregate)
            if not _reaches(planner._aggregates(planted), sums):
                problems.append("aggregates under %s.%s are missed"
                                % (cls.__name__, name))
        example = found[0]
        try:
            to_sql(example)
        except Exception as exc:
            problems.append("to_sql(%s): %r" % (cls.__name__, exc))
        try:
            if issubclass(cls, tree.Expr):
                validate(tree.Select([tree.SelectField(example)]))
            elif issubclass(cls, tree.Statement):
                validate(example)
        except Exception as exc:
            problems.append("validate(%s): %r" % (cls.__name__, exc))
        if issubclass(cls, tree.Expr):
            try:
                expression.compile_expr(example)({}, None)
            except SQLError as exc:
                if "cannot evaluate" in str(exc):
                    problems.append("compile_expr(%s): %s"
                                    % (cls.__name__, exc))
            except Exception:
                pass    # run without a row or a context: beside the point
    return problems


def _tree_examples():
    from repro.sqldb import ast_nodes as tree
    from repro.sqldb.parser import parse_sql

    examples = {}
    for sql in _TREE_CORPUS:
        for node in tree.walk(parse_sql(sql)[0]):
            examples.setdefault(type(node), []).append(node)
    return examples


def test_every_node_class_has_one_walk_and_every_walker_covers_it():
    from repro.sqldb import ast_nodes as tree

    classes = _tree_classes(tree)
    bases = {tree.Node, tree.Expr, tree.Statement}
    assert set(classes) == {cls for cls in vars(tree).values()
                            if isinstance(cls, type)
                            and issubclass(cls, tree.Node)} - bases
    problems = _tree_walker_violations(classes, _tree_examples())
    assert problems == [], "\n".join(problems)


def test_tree_gate_catches_an_expression_without_a_renderer():
    """The twin: a new expression class that nothing but the generic
    walk knows turns the gate red."""
    from repro.sqldb import ast_nodes as tree

    @dataclasses.dataclass(slots=True)
    class Twice(tree.Expr):
        operand: tree.Expr

    examples = _tree_examples()
    examples[Twice] = [Twice(tree.ColumnRef("a"))]
    problems = _tree_walker_violations([Twice], examples)
    assert [p.split("(")[0].split(":")[0] for p in problems] == [
        "to_sql", "validate", "compile_expr"], problems


def _orphan_artefacts(bench_dir, out_dir):
    """Artefacts in *out_dir* that no bench in *bench_dir* writes.  The
    ``report`` fixture names ``BENCH_<name>.json`` and ``<name>.txt``
    after the ``def test_<name>`` that produced them, so an artefact
    without that function in some ``bench_*.py`` is left over from code
    that is gone."""
    benches = set()
    for filename in os.listdir(bench_dir):
        if filename.startswith("bench_") and filename.endswith(".py"):
            with open(os.path.join(bench_dir, filename)) as handle:
                tree = ast.parse(handle.read(), filename=filename)
            benches.update(node.name for node in ast.walk(tree)
                           if isinstance(node, ast.FunctionDef))
    orphans = []
    for filename in sorted(os.listdir(out_dir)):
        match = re.match(r"BENCH_(.+)\.json$|(.+)\.txt$", filename)
        if match is None:
            continue
        if "test_" + (match.group(1) or match.group(2)) not in benches:
            orphans.append(filename)
    return orphans


def test_every_bench_artefact_has_its_bench():
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    orphans = _orphan_artefacts(bench_dir, os.path.join(bench_dir, "out"))
    assert orphans == [], "no bench writes: %s" % ", ".join(orphans)


def test_artefact_gate_catches_an_orphan(tmp_path):
    """The twin: an artefact whose bench function is gone is reported."""
    (tmp_path / "bench_kept.py").write_text(
        "def test_kept(report):\n    pass\n")
    out = tmp_path / "out"
    out.mkdir()
    for filename in ("BENCH_kept.json", "kept.txt",
                     "BENCH_gone.json", "gone.txt"):
        (out / filename).write_text("")
    assert _orphan_artefacts(str(tmp_path), str(out)) == [
        "BENCH_gone.json", "gone.txt"]


#: definitions in ``src/repro/`` that no program code names outside
#: their own ``def`` / ``class``: reached only from ``tests/``, or
#: called by a framework (``HTMLParser``'s ``handle_*`` callbacks).
#: Frozen: entries may only be removed — wire a name into the program
#: or delete it, never add it here.
_TEST_ONLY = frozenset([
    "EmailHeaderInjectionPlugin", "QueryDigest", "clear_log", "contains",
    "drops", "export_json", "handle_data", "handle_endtag",
    "handle_starttag", "htmlentities", "index_lookup", "index_range",
    "index_stats", "is_data", "matches_any", "mvcc_stats",
    "open_statements", "paper_workloads", "query_string", "quote_smart",
    "read_pages_bytes", "rebuild_from_journal", "render_timings",
    "render_tree", "restart", "rows_as_dicts", "strip_tags",
    "transient_retries", "turn_off", "turn_on", "verify_integrity",
])


def _unreferenced_definitions(src_root, use_roots):
    """Every non-dunder ``def`` / ``class`` name under *src_root* that
    no NAME token in *use_roots* spells, other than the definitions'
    own (a name defined twice needs a third token)."""
    defined = {}
    for path in _python_files(src_root):
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not (
                    node.name.startswith("__")
                    and node.name.endswith("__")):
                defined[node.name] = defined.get(node.name, 0) + 1
    spelled = dict.fromkeys(defined, 0)
    for root in use_roots:
        for path in _python_files(root):
            with open(path, "rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    if (token.type == tokenize.NAME
                            and token.string in spelled):
                        spelled[token.string] += 1
    return {name for name, count in defined.items()
            if spelled[name] <= count}


def test_every_definition_is_reached_from_the_program():
    unreferenced = _unreferenced_definitions(
        os.path.join(SRC_ROOT, "repro"),
        [SRC_ROOT] + [os.path.join(REPO_ROOT, tree)
                      for tree in ("benchmarks", "examples")])
    assert unreferenced <= _TEST_ONLY, (
        "only tests reach: %s" % ", ".join(sorted(unreferenced - _TEST_ONLY)))


def test_reach_gate_catches_a_test_only_function(tmp_path):
    """The twin: a new function only a test calls is reported; one the
    program calls, and a dunder, are not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Kept(object):\n"
        "    def __init__(self):\n"
        "        self.value = helper()\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return Kept\n"
        "\n"
        "\n"
        "def only_tests_call_me():\n"
        "    return 1\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import only_tests_call_me\n"
        "assert only_tests_call_me() == 1\n")
    assert _unreferenced_definitions(
        str(package), [str(tmp_path / "src")]) == {"only_tests_call_me"}
