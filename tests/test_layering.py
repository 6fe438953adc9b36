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
    goes through those two and the one ``cleanup``."""
    root = Path(repro.__file__).parent / "core"
    catchers, spenders, cleaners = [], [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, func in _functions(tree):
            where = f"{path.stem}.{name}"
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
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


# Public names that only tests call, kept on purpose.
_UNCALLED_BY_DESIGN = {
    "verify_schedule_coverage": "the oracle the schedule tests hold schedules to",
    "fully_connect": "a fixture: the eth, sim and core tests wire cliques with it",
}


def _reexport_lines(tree: ast.Module):
    """Lines of a package ``__init__`` that only re-export: imports and
    ``__all__``."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ):
            yield from range(node.lineno, node.end_lineno + 1)


def _uncalled_public_names(repo: Path):
    """Public top-level functions and classes under ``src/repro`` whose name
    appears nowhere in ``src/`` (besides its own ``def``/``class`` line and
    ``__init__`` re-exports), ``benchmarks/`` or ``examples/``."""
    src = repo / "src" / "repro"
    definitions = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                definitions.setdefault(node.name, set()).add((path, node.lineno))
    named = set()
    for root in (src, repo / "benchmarks", repo / "examples"):
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skip = set()
            if path.name == "__init__.py":
                skip = set(_reexport_lines(ast.parse(text)))
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno in skip:
                    continue
                for word in re.findall(r"\w+", line):
                    if word in definitions and (path, lineno) not in definitions[word]:
                        named.add(word)
    return sorted(set(definitions) - named)


def test_every_public_name_has_a_caller():
    """A public function or class that only tests reach is surface nothing
    runs: delete it with its tests, or allow-list it with a reason. The scan
    reads words, not a call graph (a mention in another docstring counts),
    so it is a tripwire for names nothing reaches, not proof of use."""
    uncalled = _uncalled_public_names(Path(repro.__file__).parents[2])
    stale = sorted(set(_UNCALLED_BY_DESIGN) - set(uncalled))
    assert not stale, f"allow-listed names that now have callers: {stale}"
    flagged = [name for name in uncalled if name not in _UNCALLED_BY_DESIGN]
    assert not flagged, f"public names with no caller outside tests: {flagged}"
