"""Source-level rules for the package itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ramspect"


def test_no_assert_guards_in_package():
    # python -O strips assert statements, so an invariant that guards a
    # result must raise a RamspectError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert SRC.joinpath("__init__.py").exists()
    assert not found, found


PARAM_CLASSES = ("ConstructionParams", "ExposureParams", "AuditParams")


def test_every_param_field_is_read():
    # a parameter field that only __post_init__ validates changes nothing
    # but header bytes, so every field must be read somewhere else
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    declared = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in PARAM_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        declared[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    assert {key.split(".")[0] for key in declared} == set(PARAM_CLASSES)
    skip = {id(node) for tree in trees for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skip}
    unread = sorted(key for key, name in declared.items() if name not in read)
    assert not unread, unread


BENCH = SRC.parents[1] / "bench"


def _public_names(tree) -> dict:
    """Public top-level functions, classes and UPPER_CASE constants, and the
    public methods of public classes, each mapped to the node that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out[node.name] = node
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) \
                            and not stmt.name.startswith("_"):
                        out[f"{node.name}.{stmt.name}"] = stmt
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    out[t.id] = node
    return out


def test_every_public_name_is_used_outside_tests():
    # a library name that only tests call is test code; it belongs in tests/
    src = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    users = list(src.values()) + [
        ast.parse(p.read_text(), filename=str(p)) for p in sorted(BENCH.glob("*.py"))
        if not p.name.startswith("test_")]
    # every loaded bare name and attribute name, with the ids of its loads,
    # gathered in one walk of each tree
    loads = {ast.Name: {}, ast.Attribute: {}}
    for tree in users:
        for node in ast.walk(tree):
            if type(node) in loads and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loads[type(node)].setdefault(name, set()).add(id(node))
    unused = []
    for path, tree in src.items():
        for key, defn in _public_names(tree).items():
            name = key.rpartition(".")[2]
            # a method is used only as an attribute; a load inside its own
            # definition does not count
            ids = loads[ast.Attribute].get(name, set())
            if "." not in key:
                ids = ids | loads[ast.Name].get(name, set())
            if not ids - {id(node) for node in ast.walk(defn)}:
                unused.append(f"{path.name}:{key}")
    assert not unused, unused


def test_only_main_returns_exit_code_three():
    # every exit-3 path raises ConstructionFailure, and main alone turns it
    # into the diagnostics file, the stderr line and the code
    tree = ast.parse((SRC / "cli.py").read_text())
    found = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Return)
             and node.value is not None
             and any(isinstance(c, ast.Constant) and c.value == 3
                     for c in ast.walk(node.value))]
    assert found == ["main"]


PRODUCT_MODULES = ("graph_core", "structure_audit", "ramsey_construct", "double_exposure")


def _inside(tree, name: str) -> set:
    """ids of the nodes inside the top-level function of the given name."""
    return {id(node) for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == name for node in ast.walk(fn)}


def test_every_matrix_product_is_graph_core_product():
    # one function converts 0/1 matrices and multiplies them, so a change of
    # kernel (a popcount loop below some size, say) lands in one place, and
    # GRAM_EXACT_CAP, the bound of its exactness, is tested in one place
    found = []
    for mod in PRODUCT_MODULES:
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        product, require = _inside(tree, "_product"), _inside(tree, "_require_exact")
        for node in ast.walk(tree):
            where = f"{mod}.py:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                    or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"):
                if mod != "graph_core" or id(node) not in product:
                    found.append(f"{where}: matrix product outside graph_core._product")
            if isinstance(node, ast.Name) and node.id == "GRAM_EXACT_CAP" \
                    and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute) \
                    and node.attr == "GRAM_EXACT_CAP":
                if mod != "graph_core" or id(node) not in require:
                    found.append(f"{where}: GRAM_EXACT_CAP read outside _require_exact")
    assert not found, found
    assert _inside(ast.parse((SRC / "graph_core.py").read_text()), "_product")


def test_only_ramsey_construct_reads_c_density():
    # the m-window [c*n^2, 2c*n^2] and its overflow refusal live in
    # ramsey_construct.m_window; a module that reads c_density restates them
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "ramsey_construct.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "c_density"]
    assert not found, found


def test_cli_registers_its_flags_in_one_place():
    # each flag's spec is one cli._FLAGS entry and each command lists the
    # flags it takes; a second add_argument call would state a spec beside it
    path = SRC / "cli.py"
    calls = [f"cli.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"]
    assert len(calls) == 1, calls


GRAPH_SOURCE_ATTRS = ("gen", "n", "graph_seed")


def test_graph_flags_are_read_in_one_place():
    # cli._build_graph turns --gen, --n and --graph-seed into a graph and its
    # header config, and cli._refuse_unread refuses the ones a source does
    # not read; a command that reads them itself is a second route to its graph
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _inside(tree, "_build_graph") | _inside(tree, "_refuse_unread")
    found = [f"cli.py:{node.lineno}: ns.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and isinstance(node.value, ast.Name) and node.value.id == "ns"
             and node.attr in GRAPH_SOURCE_ATTRS and id(node) not in allowed]
    assert not found, found
    assert _inside(tree, "_build_graph") and _inside(tree, "_refuse_unread")


RULE_TEXTS = ("must be positive, got", "must be >= 1")


def test_the_parameter_rules_live_in_errors_require():
    # the positive, count and number rules are stated once, in
    # errors._require: a NaN test, a sys.maxsize bound or a rule's message
    # anywhere else states one of them a second time
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = _inside(tree, "_require") if path.name == "errors.py" else set()
        for node in ast.walk(tree):
            if id(node) in helper:
                continue
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in ("isnan", "maxsize"):
                found.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and any(text in node.value for text in RULE_TEXTS):
                found.append(f"{path.name}:{node.lineno}: {node.value.strip()!r}")
    assert not found, found
    assert _inside(ast.parse((SRC / "errors.py").read_text()), "_require")


def test_every_capacity_refusal_is_errors_require_cap():
    # the cap test value > cap and its message are stated once, in
    # errors._require_cap: a CapacityError raised or a cap message worded
    # anywhere else states them a second time
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = _inside(tree, "_require_cap") if path.name == "errors.py" else set()
        for node in ast.walk(tree):
            if id(node) in helper:
                continue
            if isinstance(node, ast.Call) and "CapacityError" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno}: CapacityError(")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "above the cap" in node.value:
                found.append(f"{path.name}:{node.lineno}: {node.value.strip()!r}")
    assert not found, found
    assert _inside(ast.parse((SRC / "errors.py").read_text()), "_require_cap")


def test_every_mutant_edits_text_that_occurs_once():
    # tests/mutants.py applies each edit by text, so code that moves must
    # take the table along
    import mutants

    root = SRC.parents[1]
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (root / m.path).read_text().count(m.old) == 1, m.name
        # an entry is a test file or a node id in one, file::test
        assert m.tests and all((root / "tests" / t.partition("::")[0]).is_file()
                               for t in m.tests), m.name


STREAM_TEXTS = ("import random", "from random import", "random.Random(", "getrandbits",
                "default_rng", "SeedSequence", "np.random")


def test_every_random_stream_is_built_in_seeding():
    # seeding.py alone turns a seed into a stream, so the seed domain is
    # checked in one place, and the Mersenne-Twister facts its bulk
    # decoders rest on are stated next to the one code that reads them
    found = [f"{path.name}:{i}: {text}" for path in sorted(SRC.glob("*.py"))
             if path.name != "seeding.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             for text in STREAM_TEXTS if text in line]
    assert not found, found
    seeding = (SRC / "seeding.py").read_text()
    assert all(text in seeding for text in ("random.Random(", "getrandbits", "default_rng"))


WORD_READERS = ("getrandbits", "MT19937", "random_raw")


def test_the_mersenne_twister_words_are_read_in_seeding_alone():
    # seeding.mt_words reads the stream's words and states the facts that
    # make its two readers agree, so no other module calls one of them; no
    # module draws randrange one value at a time, since seeding.randbelow
    # decodes its values from those words
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.name if isinstance(node, ast.alias) else None
            if name == "randrange" or name in WORD_READERS and path.name != "seeding.py":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert not found, found
    tree = ast.parse((SRC / "seeding.py").read_text())
    assert {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)} >= {"getrandbits", "random_raw"}


def test_int_rows_are_read_from_bytes_in_one_place():
    # graph_core._int_rows turns packed bytes into int rows, the inverse of
    # pack_rows; a second int.from_bytes outside seeding.py, whose seed
    # digests are not rows, would state that conversion again
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "seeding.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = _inside(tree, "_int_rows") if path.name == "graph_core.py" else set()
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "from_bytes"
                  and id(node) not in helper]
    assert not found, found
    assert _inside(ast.parse((SRC / "graph_core.py").read_text()), "_int_rows")


THREAD_TEXTS = ("threading", "Thread(", "concurrent.futures", "multiprocessing")


def test_threads_are_started_in_one_place():
    # anticoncentration._split_trials alone runs work on threads, so how the
    # trials are cut, joined and re-raised is stated once, like _product's
    # one matrix product
    path = SRC / "anticoncentration.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = next(fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_split_trials")
    inside = range(helper.lineno, helper.end_lineno + 1)
    found = [f"{p.name}:{i}: {text}" for p in sorted(SRC.glob("*.py"))
             for i, line in enumerate(p.read_text().splitlines(), 1)
             for text in THREAD_TEXTS if text in line
             and not (p == path and (i in inside or line == "import threading"))]
    assert not found, found
