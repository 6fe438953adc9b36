"""Layering: the simulator and protocol layers never import upward.

``docs/architecture.md`` orders the packages ``sim`` -> ``eth`` -> ``netgen``
-> ``core`` -> ``service``; the lower three must be usable (and auditable)
without the measurement logic or the job service on the import path.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

LOWER = ("sim", "eth", "netgen")
UPPER = ("repro.core", "repro.service")


def _imported_modules(tree: ast.AST):
    """Every absolute module named by an import anywhere in ``tree`` —
    module level, function level and ``TYPE_CHECKING`` blocks alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # Joined form, so ``from repro import core`` is caught too.
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_lower_layers_do_not_import_core_or_service():
    root = Path(repro.__file__).parent
    offenders = []
    for package in LOWER:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for lineno, module in _imported_modules(tree):
                if any(module == up or module.startswith(up + ".") for up in UPPER):
                    offenders.append(f"{path.relative_to(root)}:{lineno} {module}")
    assert not offenders, "upward imports:\n" + "\n".join(offenders)


def test_campaign_stages_are_the_only_seam_into_toposhot():
    """Other modules drive a campaign through ``TopoShot``'s public stages
    (open / run / close): no ``shot._name`` / ``x.shot._name`` attribute
    access anywhere under ``src/`` outside ``core/campaign.py``."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "campaign.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            owner_name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if owner_name == "shot" and node.attr.startswith("_"):
                offenders.append(
                    f"{path.relative_to(root)}:{node.lineno} shot.{node.attr}"
                )
    assert not offenders, "private TopoShot reach-ins:\n" + "\n".join(offenders)


def _functions(tree: ast.AST):
    """Every function in ``tree`` with its qualified name (nested
    functions count as their outermost enclosing function)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for name, func in _functions(node):
                yield f"{node.name}.{name}", func


def test_probe_layer_has_one_injection_and_one_repeat_budget():
    """Under ``core/``, a failed supernode send is caught in exactly one
    function (``primitive.inject``) and the repeat/retry budget is spent in
    exactly one (``primitive.probe_with_repeats``): every probe — serial,
    ``measurePar`` round, cross-validation, calibration, pre-processing —
    goes through those two and the one ``cleanup``. Handing the budget on
    unchanged (``repeats=spec.repeats``) spends nothing."""
    root = Path(repro.__file__).parent / "core"
    catchers, spenders, cleaners = [], [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        handed_on = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "repeats"
            and _named(node.value) == "repeats"
        }
        for name, func in _functions(tree):
            where = f"{path.stem}.{name}"
            for node in ast.walk(func):
                if id(node) in handed_on:
                    continue
                elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = {
                        n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)
                    }
                    if "SendTimeoutError" in caught:
                        catchers.append(where)
                elif isinstance(node, ast.Name) and node.id == "retries_left":
                    spenders.append(where)
                elif isinstance(node, ast.Attribute) and node.attr == "repeats":
                    if path.stem != "config":  # defines and validates the field
                        spenders.append(where)
                elif isinstance(node, ast.Attribute) and node.attr == "clear_observations":
                    cleaners.append(where)
    assert catchers == ["primitive.inject"]
    assert set(spenders) == {"primitive.probe_with_repeats"}
    assert cleaners == ["primitive.cleanup"]


def test_metrics_are_declared_once():
    """A metric's name, type and help exist in one place, the catalog in
    ``obs/wiring.py``: every string constant under ``src/`` that starts
    with ``toposhot_`` lives there, each once, and outside ``repro/obs/`` no
    instrument look-up passes a help string (a second positional argument
    or ``help=``) — the registry reads it from the declaration."""
    root = Path(repro.__file__).parent
    names, offenders = [], []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("toposhot_")
            ):
                names.append(node.value)
                if where != Path("obs/wiring.py"):
                    offenders.append(f"{where}:{node.lineno} {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and where.parts[0] != "obs"
                and (len(node.args) > 1 or any(k.arg == "help" for k in node.keywords))
            ):
                offenders.append(f"{where}:{node.lineno} .{node.func.attr}(.., help)")
    assert not offenders, "metric facts outside the catalog:\n" + "\n".join(offenders)
    assert names and len(names) == len(set(names))


def test_slot_budget_is_enforced_by_the_schedule_alone():
    """The slot budget bounds a round where the round is built
    (``schedule.build_schedule``): nothing under ``src/`` searches for a K
    that fits (``fit_group_size``) or refuses a network over the budget
    (the ``even K=2 needs ...`` message), and under ``core/`` a pair count
    is compared with ``mempool_slots_budget`` in exactly one function, the
    safety check in ``parallel.measure_par``."""
    root = Path(repro.__file__).parent
    offenders, comparers = [], []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            named = (
                getattr(node, "name", None),
                getattr(node, "attr", None),
                getattr(node, "id", None),
            )
            if "fit_group_size" in named:
                offenders.append(f"{where}:{node.lineno} fit_group_size")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("even K=2" in node.value or "fit_group_size" in node.value)
            ):
                offenders.append(f"{where}:{node.lineno} {node.value[:40]!r}")
        if where.parts[0] != "core":
            continue
        for name, func in _functions(tree):
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(
                    isinstance(part, ast.Attribute)
                    and part.attr == "mempool_slots_budget"
                    for part in ast.walk(node)
                ):
                    comparers.append(f"{path.stem}.{name}")
    assert not offenders, "a second slot-budget rule:\n" + "\n".join(offenders)
    assert comparers == ["parallel.measure_par"]


def _named(node: ast.AST):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def test_a_message_has_one_transport_and_one_receive():
    """Each step of a message's way has one implementation. In
    ``eth/network.py`` latency is sampled and the loss hook consulted in
    exactly one function (``send`` and ``send_batch`` both enter it); in
    ``eth/node.py`` the duplicate short-cut builds its ``REJECTED_KNOWN``
    result in exactly one function, and the known-table is written
    per transaction by ``_mark_known`` alone — ``_handle_announcement``
    (per packet), ``broadcast_transaction`` (all peers at once) and
    ``remove_peer`` (the slot sweep) are its three batch forms."""
    root = Path(repro.__file__).parent / "eth"
    samplers, droppers, rejecters, writers = set(), set(), set(), set()
    tree = ast.parse((root / "network.py").read_text(encoding="utf-8"))
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            called = _named(node.func)
            if called in ("sample", "latency_random", "_latency_random"):
                samplers.add(name)
            elif called == "should_drop":
                droppers.add(name)
    tree = ast.parse((root / "node.py").read_text(encoding="utf-8"))
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr == "REJECTED_KNOWN":
                rejecters.add(name)
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and _named(node.value) in ("known", "_known")
            ):
                writers.add(name)
    assert samplers == droppers == {"Network._transmit"}
    assert rejecters == {"Node._receive"}
    assert writers == {
        "Node._mark_known",
        "Node._handle_announcement",
        "Node.broadcast_transaction",
        "Node.remove_peer",
    }



def test_one_fork_pool():
    """Every process pool is a ``parallel_exec.WorkerPool``: a
    ``ProcessPoolExecutor`` is constructed once under ``src/`` (the pool's
    fork) and never under ``benchmarks/``."""
    src = Path(repro.__file__).parent
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    constructors = []
    for path in sorted(src.rglob("*.py")) + sorted(benchmarks.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func) == "ProcessPoolExecutor":
                constructors.append(path)
    assert constructors == [src / "core" / "parallel_exec.py"]


def test_only_the_event_loop_touches_the_collector():
    """``Simulator.run`` is the one place under ``src/`` that pauses the
    cyclic garbage collector (tests/sim/test_no_cyclic_garbage.py is why
    that is safe); nothing else imports ``gc``."""
    src = Path(repro.__file__).parent
    importers = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if any(
            module == "gc" or module.startswith("gc.")
            for _, module in _imported_modules(
                ast.parse(path.read_text(encoding="utf-8"), str(path))
            )
        )
    ]
    assert importers == ["sim/engine.py"]


def _import_time_imports(tree: ast.AST):
    """The imports that run when the module is imported: everything outside
    function bodies and ``if TYPE_CHECKING:`` blocks."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _named(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported_modules(node)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_graph_library_only_where_graphs_are_drawn():
    """Outside ``analysis/``, ``networkx`` is imported only inside the
    functions that draw a graph (or for type checking), and nothing imports
    ``repro.analysis`` at module level: measuring, serving and benchmarking
    never load a graph library."""
    root = Path(repro.__file__).parent
    graph_side = ("networkx", "repro.analysis")
    offenders = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        if where.parts[0] == "analysis":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, module in _import_time_imports(tree):
            if any(module == m or module.startswith(m + ".") for m in graph_side):
                offenders.append(f"{where}:{lineno} {module}")
    assert not offenders, "module-level graph imports:\n" + "\n".join(offenders)


_MEASUREMENT_PATH = """
import sys, tempfile
from pathlib import Path

import repro, repro.cli, repro.service, repro.core.parallel_exec
from repro.core.campaign import TopoShot
from repro.core.monitor import TopologyMonitor, rewire_random_links
from repro.core.parallel_exec import CampaignSpec, run_campaign
from repro.io import measurement_to_dict, save_measurement
from repro.netgen.ethereum import NetworkSpec, quick_network
from repro.netgen.workloads import prefill_mempools

for wiring in ("legacy", "fast"):
    for workers in (1, 2):
        spec = CampaignSpec(network=NetworkSpec(n_nodes=8, seed=3, wiring=wiring))
        run_campaign(spec, workers=workers)
network = quick_network(n_nodes=14, seed=57)
prefill_mempools(network)
shot = TopoShot.attach(network)
measurement = shot.measure_network()
monitor = TopologyMonitor(shot)
monitor.take_snapshot()
rewire_random_links(network, fraction=0.2)
monitor.delta_round()
assert monitor.probe_savings["probed_pairs"] > 0
measurement_to_dict(measurement)
with tempfile.TemporaryDirectory() as tmp:
    save_measurement(measurement, Path(tmp) / "m.json")
assert "networkx" not in sys.modules, "networkx loaded on the measurement path"
assert measurement.graph.number_of_edges() == len(measurement.edges)
assert "networkx" in sys.modules
"""


def test_measurement_path_never_loads_networkx():
    """Imports, campaigns (legacy and fast wiring, one and two workers), a
    monitor round and serialization run without ``networkx``; only asking
    for ``measurement.graph`` loads it. A fresh interpreter, so no other
    test's imports can mask a stray one."""
    src = Path(repro.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _MEASUREMENT_PATH],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


# Public names (``Class.method`` for methods and properties) that only tests
# call, kept on purpose.
_UNCALLED_BY_DESIGN = {
    "verify_schedule_coverage": "the oracle the schedule tests hold schedules to",
    "fully_connect": "a fixture: the eth, sim and core tests wire cliques with it",
    "TopoShot.calibrate_target": "the calibration stage (ROADMAP item 3) will call it",
    "IdMap.check_bijection": "the oracle the idmap property tests check the table against",
    "Mempool.sender_transaction": (
        "the reference-pool and property tests look up a (sender, nonce) slot"
    ),
    "Histogram.reservoir_size": "test_reservoir_is_bounded reads the memory bound",
    "NetworkMeasurement.failed_nodes": "the executed snippet in docs/faults.md calls it",
}


def _skipped_lines(tree: ast.Module, is_init: bool):
    """Lines that only list names: ``__all__`` in any module, and the
    re-export imports of a package ``__init__``."""
    for node in tree.body:
        if (is_init and isinstance(node, (ast.Import, ast.ImportFrom))) or (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ):
            yield from range(node.lineno, node.end_lineno + 1)


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _uncalled_public_names(repo: Path):
    """Public top-level functions and classes under ``src/repro``, and the
    public methods and properties of those classes (as ``Class.method``),
    whose name appears nowhere in ``src/`` (besides a ``def``/``class`` line
    of that name and the lines ``_skipped_lines`` drops), ``benchmarks/`` or
    ``examples/``."""
    src = repo / "src" / "repro"
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions, keys = {}, {}
    for path in sorted(src.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in _public(module.body, (*functions, ast.ClassDef)):
            members = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (m, f"{node.name}.{m.name}") for m in _public(node.body, functions)
                ]
            for member, key in members:
                definitions.setdefault(member.name, set()).add((path, member.lineno))
                keys.setdefault(member.name, set()).add(key)
    named = set()
    for root in (src, repo / "benchmarks", repo / "examples"):
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skip = set(_skipped_lines(ast.parse(text), path.name == "__init__.py"))
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno in skip:
                    continue
                for word in re.findall(r"\w+", line):
                    if word in definitions and (path, lineno) not in definitions[word]:
                        named.add(word)
    return sorted(key for word in set(keys) - named for key in keys[word])


def test_every_public_name_has_a_caller():
    """A public function, class, method or property that only tests reach is
    surface nothing runs: delete it with its tests, or allow-list it with a
    reason. The scan reads words, not a call graph (a mention in another
    docstring counts), so it is a tripwire for names nothing reaches, not
    proof of use."""
    uncalled = _uncalled_public_names(Path(repro.__file__).parents[2])
    stale = sorted(set(_UNCALLED_BY_DESIGN) - set(uncalled))
    assert not stale, f"allow-listed names that now have callers: {stale}"
    flagged = [name for name in uncalled if name not in _UNCALLED_BY_DESIGN]
    assert not flagged, f"public names with no caller outside tests: {flagged}"


# State (``Class.field`` for a field or a ``self`` attribute, ``owner.attr``
# for an attribute stored on another object) that nothing under ``src/``,
# ``benchmarks/`` or ``examples/`` reads, kept on purpose.
_UNREAD_BY_DESIGN = {
    "prctl.argtypes": "ctypes reads it to convert prctl's arguments",
    "prctl.restype": "ctypes reads it to convert prctl's return value",
}

# A snapshot's capture and restore copy state; they do not use it.
_COPIERS = {"capture_state", "restore_state", "_copy_containers"}


def _exception_classes(classes) -> set:
    """Names of the classes under ``src/repro`` that derive from an
    exception, here or in the standard library."""
    found, grew = set(), True
    while grew:
        grew = False
        for cls in classes:
            bases = {_named(base) or "" for base in cls.bases}
            if cls.name not in found and any(
                b in found or b.endswith(("Error", "Exception")) for b in bases
            ):
                found.add(cls.name)
                grew = True
    return found


def _attribute_stores(tree: ast.AST):
    """``(class, attr, line)`` for every ``self.attr = ...`` in a method
    (``class`` is the method's class) and ``(None, "owner.attr", line)``
    for every other attribute store."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, me = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls, me = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and me is None:
            args = node.args.posonlyargs + node.args.args
            me = args[0].arg if cls is not None and args else ""
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == me:
                yield cls, node.attr, node.lineno
            else:
                yield None, f"{ast.unparse(node.value)}.{node.attr}", node.lineno
        stack.extend((child, cls, me) for child in ast.iter_child_nodes(node))


# Methods that put into or take out of a container: a call of one reads
# nothing the program uses.
_FILLERS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "setdefault", "update",
}


def _writes_through(tree: ast.AST):
    """The ``obj.attr`` loads that only write into the container they
    name: ``obj.attr[k] = v`` (or ``+=``, ``del``) and ``obj.attr.append(v)``
    and the like."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            yield node.value
        elif isinstance(node, ast.Call) and _named(node.func) in _FILLERS:
            yield getattr(node.func, "value", None)


def _reads(tree: ast.AST):
    """Every attribute name loaded, and every string constant, outside the
    copiers, the name lists (``__slots__``, ``__all__``) and the loads
    that only write into a container."""
    writes = {id(node) for node in _writes_through(tree)}
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name in _COPIERS
        ):
            continue
        if isinstance(node, ast.Assign) and any(
            _named(target) in ("__slots__", "__all__") for target in node.targets
        ):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in writes:
                yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


def _declarations(cls: ast.ClassDef):
    """Names ``cls`` declares in its body: annotated and assigned class
    attributes (dataclass fields among them), ``__slots__`` entries,
    methods and properties."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign):
            yield _named(item.target)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                yield _named(target)
                if _named(target) == "__slots__":
                    for c in ast.walk(item.value):
                        if isinstance(c, ast.Constant):
                            yield c.value
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name


def _dataclass_fields(cls: ast.ClassDef):
    if any(
        _named(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
        for dec in cls.decorator_list
    ):
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and "ClassVar" not in ast.unparse(
                item.annotation
            ):
                yield _named(item.target), item.lineno


def _unread_state(repo: Path):
    """State under ``src/repro`` nothing reads, as ``{key: "path:line"}``:
    dataclass fields and ``self`` attributes (``Class.name``; exception
    classes aside) whose name nothing loads, and attributes stored on
    another object (``owner.name``) that no class declares, or that
    nothing loads."""
    src = repo / "src" / "repro"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for root in (src, repo / "benchmarks", repo / "examples")
        for path in sorted(root.rglob("*.py"))
    }
    read = {name for tree in trees.values() for name in _reads(tree)}
    ours = {path: trees[path] for path in trees if src in path.parents}
    classes = [
        (path, node)
        for path, tree in ours.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    exceptions = _exception_classes([cls for _, cls in classes])
    declared = {name for _, cls in classes for name in _declarations(cls)}
    state, foreign = {}, {}
    for path, cls in classes:
        for name, lineno in _dataclass_fields(cls):
            state.setdefault((cls.name, name), (path, lineno))
    for path, tree in ours.items():
        for cls, attr, lineno in _attribute_stores(tree):
            if cls is None:
                foreign.setdefault(attr, (path, lineno))
            else:
                declared.add(attr)
                state.setdefault((cls, attr), (path, lineno))
    unread = {
        f"{cls}.{attr}": where
        for (cls, attr), where in state.items()
        if cls not in exceptions and attr not in read
    }
    for key, where in foreign.items():
        attr = key.rsplit(".", 1)[1]
        if attr not in declared or attr not in read:
            unread[key] = where
    return {
        key: f"{path.relative_to(repo).as_posix()}:{lineno}"
        for key, (path, lineno) in sorted(unread.items())
    }


def test_every_field_has_a_reader():
    """State nothing reads is work every write pays for and every snapshot
    copies: delete it, or allow-list it with a reason. A read is an
    attribute load of the name, or a string constant equal to it (so
    ``getattr(obj, name)`` over a list of names counts), anywhere in
    ``src/``, ``benchmarks/`` or ``examples/`` outside the snapshot
    copiers. A dict built by ``asdict`` reads nothing; a ``to_dict`` reads
    what it names, and every ``to_dict`` under ``src/`` leaves the process
    (a result file, a job response, the journal or a checkpoint). Like the
    caller law it matches names, not types: a tripwire, not a proof."""
    unread = _unread_state(Path(repro.__file__).parents[2])
    stale = sorted(set(_UNREAD_BY_DESIGN) - set(unread))
    assert not stale, f"allow-listed state that is now read: {stale}"
    flagged = [
        f"{key} ({where})" for key, where in unread.items() if key not in _UNREAD_BY_DESIGN
    ]
    assert not flagged, "state nothing reads:\n" + "\n".join(flagged)


def _module_imports(tree: ast.Module):
    """``(name bound, line)`` for every import outside function and class
    bodies (``if TYPE_CHECKING:`` and ``try`` blocks included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _names_used(tree: ast.Module):
    """Every name the module loads, in code or in a quoted annotation."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def test_every_import_is_used():
    """A module-level import outside a package ``__init__`` (which
    re-exports) is used in its module: a dead import is a dependency and
    an import-time cost nobody asked for."""
    src = Path(repro.__file__).parent
    unused = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set(_names_used(tree))
        unused += [
            f"{path.relative_to(src)}:{lineno} {name}"
            for name, lineno in _module_imports(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(sorted(unused))


# Options (``command --flag`` for a CLI flag, ``Class.field`` for a field a
# payload or ``serve --config`` file can set) that no test runs or sets,
# kept on purpose.
_UNRUN_BY_DESIGN = {}

# The dataclasses a job payload or a ``serve --config`` file sets, by module.
_SETTABLE_SPECS = {
    "core/parallel_exec.py": "CampaignSpec",
    "netgen/ethereum.py": "NetworkSpec",
    "service/server.py": "ServiceConfig",
    "service/limiter.py": "TenantQuota",
}


def _long_flags(call: ast.Call):
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    ]


def _parser_pairs(source: str):
    """``command --flag`` for every long flag the parser in ``source`` adds:
    on a subparser (``x = sub.add_parser("command")``), on one of its
    argument groups, or in a helper a subparser or group is passed to."""
    tree = ast.parse(source)
    helpers = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            params = {a.arg for a in fn.args.args}
            helpers[fn.name] = [
                flag
                for call in ast.walk(fn)
                if isinstance(call, ast.Call)
                and _named(call.func) == "add_argument"
                and _named(call.func.value) in params
                for flag in _long_flags(call)
            ]
    owner = {}
    assigns = sorted(
        (n for n in ast.walk(tree) if isinstance(n, ast.Assign)),
        key=lambda n: n.lineno,
    )
    for node in assigns:
        call, target = node.value, _named(node.targets[0])
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            continue
        if call.func.attr == "add_parser" and isinstance(call.args[0], ast.Constant):
            owner[target] = call.args[0].value
        elif call.func.attr == "add_argument_group" and _named(call.func.value) in owner:
            owner[target] = owner[_named(call.func.value)]
    pairs = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if _named(call.func) == "add_argument" and isinstance(
            call.func, ast.Attribute
        ) and _named(call.func.value) in owner:
            command = owner[_named(call.func.value)]
            pairs.update(f"{command} {flag}" for flag in _long_flags(call))
        elif isinstance(call.func, ast.Name) and call.func.id in helpers:
            for arg in call.args:
                if _named(arg) in owner:
                    pairs.update(
                        f"{owner[_named(arg)]} {flag}" for flag in helpers[call.func.id]
                    )
    return pairs


def _spec_fields(sources):
    """``Class.field`` for every field of the dataclasses ``sources`` maps
    (class name -> module source) to."""
    for name, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and cls.name == name:
                yield from (f"{name}.{f}" for f, _ in _dataclass_fields(cls))


def _definitions(body):
    """Name -> node for the functions, classes and assigned names of a
    module or class body."""
    found = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                found[_named(target)] = node
    return found


def _test_runs(source: str):
    """For each test function in ``source``: whether it runs the CLI
    (uses ``main`` imported from ``repro.cli``, or names ``repro.cli`` for
    ``python -m``) and the string constants it names. A test names what
    its body and decorators hold, and what the module-level and class-level
    helpers and constants it refers to hold, transitively."""
    tree = ast.parse(source)
    mains = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "repro.cli"
        for alias in node.names
        if alias.name == "main"
    }
    module = _definitions(tree.body)
    tests = [(fn, {}) for fn in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            tests += [(fn, _definitions(cls.body)) for fn in cls.body]
    for fn, members in tests:
        if not (
            isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name.startswith("test")
        ):
            continue
        strings, runs, seen, stack = set(), False, {id(fn)}, [fn]
        while stack:
            for node in ast.walk(stack.pop()):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
                elif isinstance(node, ast.Name) and node.id in mains:
                    runs = True
                refers = (
                    members.get(node.attr) if isinstance(node, ast.Attribute)
                    else module.get(node.id) if isinstance(node, ast.Name)
                    else None
                )
                if refers is not None and id(refers) not in seen:
                    seen.add(id(refers))
                    stack.append(refers)
        yield runs or "repro.cli" in strings, strings


def _settings(tree: ast.AST):
    """``(node, name, value)`` for every keyword argument in ``tree``
    (``node`` is its call or class statement) and every string dict key
    (``node`` is the dict)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Call, ast.ClassDef)):
            yield from ((node, k.arg, k.value) for k in node.keywords if k.arg)
        elif isinstance(node, ast.Dict):
            yield from (
                (node, k.value, value)
                for k, value in zip(node.keys, node.values)
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )


def _set_names(source: str):
    """Every keyword argument name and every string dict key in ``source``."""
    return (name for _, name, _ in _settings(ast.parse(source)))


def _settable_options(parser_source: str, spec_sources):
    """Every option a user types or a payload sets: ``command --flag`` and
    ``Class.field``."""
    return sorted(_parser_pairs(parser_source)) + sorted(_spec_fields(spec_sources))


def _option_law(parser_source, spec_sources, test_sources, allowed):
    """``(unrun, stale)``: the options no test runs or sets that ``allowed``
    does not list, and the ``allowed`` entries that some test does run or
    set, or that are no option at all. A flag is run by a test function
    that runs the CLI and names both its command and the flag; a field is
    set by a keyword argument or a dict key of its name in any test."""
    pairs = _parser_pairs(parser_source)
    runs = [
        strings for source in test_sources for ran, strings in _test_runs(source) if ran
    ]
    unrun = {
        pair for pair in pairs if not any(set(pair.split(" ")) <= s for s in runs)
    }
    set_anywhere = {name for source in test_sources for name in _set_names(source)}
    unrun.update(
        key for key in _spec_fields(spec_sources)
        if key.split(".", 1)[1] not in set_anywhere
    )
    return sorted(unrun - set(allowed)), sorted(set(allowed) - unrun)


def _repo_options(repo: Path):
    """The option law's inputs for this repository: the CLI's source, the
    sources of the settable dataclasses, and every test module's source."""
    src = repo / "src" / "repro"
    return (
        (src / "cli.py").read_text(encoding="utf-8"),
        {
            name: (src / module).read_text(encoding="utf-8")
            for module, name in _SETTABLE_SPECS.items()
        },
        [p.read_text(encoding="utf-8") for p in sorted((repo / "tests").rglob("*.py"))],
    )


def test_every_option_has_a_run():
    """An option no test runs is an option nobody knows composes: every
    (command, flag) pair ``cli.py`` adds is named by a test that runs that
    command, and every field of the settable dataclasses is set by some
    test. Delete an option whose only value in use is its default, or
    allow-list it with a reason. Like the caller law it matches names (a test naming the
    command and the flag), not parsed argv: a tripwire, not a proof."""
    repo = Path(repro.__file__).parents[2]
    unrun, stale = _option_law(*_repo_options(repo), _UNRUN_BY_DESIGN)
    assert not stale, f"allow-listed options that now have a run: {stale}"
    assert not unrun, f"options no test runs or sets: {unrun}"


_TINY_CLI = '''
def _add_seed(group):
    group.add_argument("--seed", type=int, default=0)


def _build_parser():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run")
    _add_seed(run)
    extra = run.add_argument_group("extra")
    extra.add_argument("--never", action="store_true")
    sub.add_parser("other")
'''

_TINY_SPEC = '''
@dataclass
class Spec:
    size: int = 1
    unset: int = 0
'''

_TINY_TESTS = '''
from repro.cli import main

ARGV = ["run", "--seed", "1"]


def test_run_seeds():
    assert main(ARGV) == 0
    assert Spec(size=2).size == 2


def test_other_names_never_but_runs_no_run():
    assert main(["other", "--never"]) == 2
'''


def test_the_option_law_reports_what_no_test_runs_and_stale_entries():
    """A flag named only by a test that runs another command is unrun (the
    match is per test function), so is a field no test sets; an
    allow-listed option that a test does run is stale."""
    unrun, stale = _option_law(
        _TINY_CLI, {"Spec": _TINY_SPEC}, [_TINY_TESTS], {"run --seed": "a reason"}
    )
    assert unrun == ["Spec.unset", "run --never"]
    assert stale == ["run --seed"]
    assert _settable_options(_TINY_CLI, {"Spec": _TINY_SPEC}) == [
        "run --never", "run --seed", "Spec.size", "Spec.unset",
    ]


# Knobs (``Class.field``) of the program's own config objects that nothing
# outside tests sets, kept because the test each reason names needs a
# second value to reach a behaviour at all.
_ONE_VALUE_BY_DESIGN = {
    "NodeConfig.known_tx_limit": (
        "tests/eth/test_hot_path_regressions.py::TestKnownTxCacheBound::"
        "test_node_bounds_per_peer_cache prunes the FIFO table below 32 768"
    ),
    "FeeMarketConfig.min_floor": (
        "tests/eth/test_mempool_batch.py::"
        "test_a_batch_past_the_fill_point_is_one_add_per_offer needs a floor "
        "below the 45 wei base fee"
    ),
    "FeeMarketConfig.floor_percentile": (
        "tests/eth/test_mempool_batch.py::"
        "test_a_batch_past_the_fill_point_is_one_add_per_offer tracks the "
        "median of a pool of a few dozen"
    ),
}

# The config objects the program builds for itself, by module.
_KNOB_CLASSES = {
    "core/config.py": "MeasurementConfig",
    "eth/rpc.py": "RpcClientPolicy",
    "eth/node.py": "NodeConfig",
    "eth/policies.py": "MempoolPolicy",
    "eth/fee_market.py": "FeeMarketConfig",
    "core/arena.py": "ArenaSpec",
    "netgen/services.py": "MainnetSpec",
}


def _setters(cls: ast.ClassDef, fields):
    """``{method: (positional params, {field: what sets it})}`` for the
    methods of ``cls``. A ``replace``/``cls``/class call keyword or a dict
    key of a field's name sets the field from the parameters its value
    names; a value that names nothing (a constant) sets it on every call
    (``None`` stands for that)."""
    found = {}
    for fn in cls.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if not any(_named(d) == "staticmethod" for d in fn.decorator_list):
            positional = positional[1:]
        params = set(positional) | {a.arg for a in fn.args.kwonlyargs}
        sets = {}
        for node, name, value in _settings(fn):
            if name in fields and (
                isinstance(node, ast.Dict)
                or isinstance(node, ast.Call)
                and _named(node.func) in ("replace", "cls", cls.name)
            ):
                names = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
                sets.setdefault(name, set()).update(names & params or {None} - names)
        found[fn.name] = (positional, sets)
    return found


def _calls(tree: ast.AST):
    """``(call, classes, notes)`` for every call in ``tree``: the names of
    the classes whose bodies hold it, and the annotations (as source) of
    the parameters of the functions that hold it."""
    stack = [(tree, frozenset(), {})]
    while stack:
        node, classes, notes = stack.pop()
        if isinstance(node, ast.ClassDef):
            classes = classes | {node.name}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = {
                **notes,
                **{a.arg: ast.unparse(a.annotation) for a in args if a.annotation},
            }
        elif isinstance(node, ast.Call):
            yield node, classes, notes
        stack.extend((child, classes, notes) for child in ast.iter_child_nodes(node))


def _copies(keyword: ast.keyword, name: str, notes) -> bool:
    """Whether ``keyword`` copies its field from another ``name`` object:
    its value reads the same field off an object that no annotation types
    as something else (``seed=args.seed`` with ``args: Namespace`` is a
    setting, ``push_to_all=config.push_to_all`` a copy)."""
    value = keyword.value
    if not (isinstance(value, ast.Attribute) and value.attr == keyword.arg):
        return False
    note = notes.get(value.value.id) if isinstance(value.value, ast.Name) else None
    return note is None or name in note


def _knobs_set(call: ast.Call, notes, name: str, fields, methods, classmethods):
    """The fields of class ``name`` that ``call`` sets: its keywords (and,
    for the class itself, its positional arguments) when it calls the
    class, one of its classmethods or ``replace``, less copies; and the
    fields a method of the class it calls sets, from a parameter it
    passes or on every call."""
    callee = _named(call.func)
    owner = _named(call.func.value) if isinstance(call.func, ast.Attribute) else None
    knobs = set()
    if callee in (name, "replace") or (owner == name and callee in classmethods):
        knobs.update(
            k.arg for k in call.keywords
            if k.arg in fields and not _copies(k, name, notes)
        )
    if callee == name:
        given = next(
            (i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
            len(call.args),
        )
        knobs.update(fields[:given])
    if isinstance(call.func, ast.Attribute) and callee in methods:
        positional, sets = methods[callee]
        passed = {None, *positional[: len(call.args)], *(k.arg for k in call.keywords)}
        knobs.update(field for field, by in sets.items() if by & passed)
    return knobs


def _knob_law(class_sources, program_sources, allowed):
    """``(unset, stale)``: the fields of the config classes (class name ->
    module source) that no program source sets from outside the class's
    own body, less ``allowed``; and the ``allowed`` entries that are set,
    or that are no field at all."""
    classes = {}
    for name, source in class_sources.items():
        fields = [key.split(".", 1)[1] for key in _spec_fields({name: source})]
        cls = next(
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name == name
        )
        classmethods = {
            fn.name for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and any(_named(d) == "classmethod" for d in fn.decorator_list)
        }
        classes[name] = (fields, _setters(cls, fields), classmethods)
    knobs = set()
    for source in program_sources:
        for call, inside, notes in _calls(ast.parse(source)):
            for name, knob_class in classes.items():
                if name not in inside:
                    knobs.update(
                        f"{name}.{field}"
                        for field in _knobs_set(call, notes, name, *knob_class)
                    )
    unset = set(_spec_fields(class_sources)) - knobs
    return sorted(unset - set(allowed)), sorted(set(allowed) - unset)


def _repo_knobs(repo: Path):
    """The knob law's inputs for this repository: the config classes'
    sources, and every module under ``src/`` and ``benchmarks/``."""
    src = repo / "src" / "repro"
    return (
        {
            name: (src / module).read_text(encoding="utf-8")
            for module, name in _KNOB_CLASSES.items()
        },
        [
            path.read_text(encoding="utf-8")
            for root in (src, repo / "benchmarks")
            for path in sorted(root.rglob("*.py"))
        ],
    )


def test_every_knob_has_a_second_value():
    """A config field only ever at its default is a constant with a
    validation branch, a docstring and a test-only path: every field of the
    program's own config objects is set by code under ``src/`` or
    ``benchmarks/`` outside the class's own body (tests and examples do
    not count). Set = a keyword or positional argument to the class or a
    keyword to one of its classmethods or to ``replace``, or a call of one
    of its methods that passes the parameter the method sets the field
    from; a copy ``field=other.field`` sets nothing. Like the option law it
    matches names, not types: a tripwire, not a proof."""
    repo = Path(repro.__file__).parents[2]
    unset, stale = _knob_law(*_repo_knobs(repo), _ONE_VALUE_BY_DESIGN)
    assert not stale, f"allow-listed knobs that now have a second value: {stale}"
    assert not unset, f"knobs only ever at one value: {unset}"
    for knob, reason in _ONE_VALUE_BY_DESIGN.items():
        path, *names = reason.split(" ", 1)[0].split("::")
        test = repo / path
        assert names and test.is_file() and f"def {names[-1]}(" in test.read_text(
            encoding="utf-8"
        ), f"{knob}: the reason names no test: {reason!r}"


_TINY_KNOBS = '''
@dataclass(frozen=True)
class Knobs:
    size: int = 1
    scale: float = 1.0
    loud: bool = False
    seed: int = 0
    tested: int = 0
    wrapped: int = 0
    deadline: float = 2.0
    copied: bool = False

    def with_scale(self, scale):
        return replace(self, scale=scale)

    def with_wrapped(self, wrapped):
        return replace(self, wrapped=wrapped)

    def louder(self):
        return replace(self, loud=True)

    def grown(self):
        return Knobs(size=self.size + 1, tested=self.tested)
'''

_TINY_PROGRAM = '''
DEFAULT = Knobs(size=2)


def run(config, client, args: Namespace):
    client.submit(deadline=3.0)
    louder = config.with_scale(0.5).louder()
    return Knobs(copied=config.copied, seed=args.seed), louder
'''

_TINY_KNOB_TESTS = '''
def test_knobs():
    assert Knobs(tested=3).with_wrapped(4).wrapped == 4
'''


def test_the_knob_law_reports_one_value_knobs_and_stale_entries():
    """Set only by a test, only through a method that only tests call, only
    as another callee's keyword of the same name, or only by copying
    itself: each is a one-value knob. An allow-listed knob that the
    program does set is stale. The class's own body sets nothing."""
    unset, stale = _knob_law(
        {"Knobs": _TINY_KNOBS}, [_TINY_KNOBS, _TINY_PROGRAM], {"Knobs.size": "a reason"}
    )
    assert unset == ["Knobs.copied", "Knobs.deadline", "Knobs.tested", "Knobs.wrapped"]
    assert stale == ["Knobs.size"]
    unset, _ = _knob_law(
        {"Knobs": _TINY_KNOBS}, [_TINY_KNOBS, _TINY_PROGRAM, _TINY_KNOB_TESTS], {}
    )
    assert unset == ["Knobs.copied", "Knobs.deadline"]
