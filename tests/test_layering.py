"""Module boundaries: no vanishlab module reaches into another's private
names.  A `_`-prefixed submodule such as `_linalg_modp` may be imported
whole; its own `_`-prefixed names, like every other module's, stay inside
it."""

import ast
from pathlib import Path

import vanishlab
from vanishlab import group_engine

PACKAGE = Path(vanishlab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """'line: what' for each import or read of a `_`-prefixed name of
    another vanishlab module in one module's source."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("vanishlab")
        ):
            whole = node.module in (None, "vanishlab")  # submodules, package names
            for alias in node.names:
                if whole and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vanishlab.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    reaches = {
        path.name: private_reaches(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in reaches.items() if found} == {}


def test_the_check_sees_private_imports_and_reads_but_not_submodules():
    source = (
        "from . import _linalg_modp as lin\n"
        "from . import __version__\n"
        "from .cyclotomic import Cyclo, _reduce_mod_cyclotomic\n"
        "import vanishlab.character_lab as cl\n"
        "lin.matmul(a, b, p)\n"
        "lin._residues(a, p)\n"
        "cl._distinct(v)\n"
        "table._private_field\n"
    )
    assert private_reaches(source) == [
        "3: import _reduce_mod_cyclotomic",
        "6: lin._residues",
        "7: cl._distinct",
    ]


def unread_definitions(sources) -> set[str]:
    """Each top-level function and class, and each non-dunder method as
    "Class.name", of the given module sources whose name no source reads.

    A read is a name, an attribute or a string constant equal to the name,
    so `getattr(G, "A_handle")` reads `A_handle`.  The check goes by name
    alone: a dead method that shares its name with a live function, method
    or attribute anywhere in the sources is not seen."""
    trees = [ast.parse(source) for source in sources]
    reads = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    found = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (*defs, ast.ClassDef)) and node.name not in reads:
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found |= {
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, defs) and item.name not in reads
                and not (item.name.startswith("__") and item.name.endswith("__"))
            }
    return found


_TRACED = "perfbench's tracer wraps it by name, and its test requires every wrapped name"

# Every definition that no library code reads, and why it stays.
UNREAD = {
    "AbSubgroup.from_elements": _TRACED,
    "AbSubgroup.is_invariant_under": _TRACED,
    "Cyclo.is_one": _TRACED,
    "Cyclo.to_complex": _TRACED,
    "FiniteGroup.centralizer": _TRACED,
    "FiniteGroup.closure": _TRACED,
    "FiniteGroup.conjugacy_data": _TRACED,
    "FiniteGroup.element_order": _TRACED,
    "FiniteGroup.nilpotency_class": _TRACED,
    "FiniteGroup.normal_subgroups": _TRACED,
    "SubgroupHandle.abelian_invariants": _TRACED,
    "catalog_entries": _TRACED,
    "commutator_map": _TRACED,
    "direct_product": _TRACED,
    "euler_phi": _TRACED,
    "minimal_polynomial": _TRACED,
    "nullspace": _TRACED,
    "omega": _TRACED,
    "six_sum_classifier": _TRACED,
    "solve": _TRACED,
    "classify_a_group": _TRACED + "; a campaign section of built cases is to call it",
    "verifying_b_cases": _TRACED + "; a campaign section of built cases is to call it",
    "vanish_on_abelian_normal": "the table-free route to V(G) ∩ A; elementwise verdicts "
                                "are to call it",
    "DualCharacter.acted_by": "the tests' exact reference, with no production counterpart",
    "all_characters": "the tests' exact reference, with no production counterpart",
    "induced_linear_value": "the tests' exact reference, with no production counterpart",
    "perm_mul": "the tests' reference law for permutation groups",
    "VanishReport.nonvanishing": "the README's example, and perfbench's table pass reads it",
}


def test_every_unread_definition_is_listed_with_its_reason():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_definitions(sources) == set(UNREAD)


def test_the_scan_reads_names_attributes_and_strings_by_name_alone():
    source = (
        "def called(): pass\n"
        "def dead(): pass\n"
        "def _looked_up(): pass\n"
        "class Live:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def called(self): pass\n"
        "class Dead: pass\n"
        "called()\n"
        "Live().used()\n"
        "getattr(Live, '_looked_up')\n"
    )
    # Live.called shares its name with the live function, so it is not seen
    assert unread_definitions([source]) == {"dead", "Live.unused", "Dead"}


def _reads_labels(node) -> bool:
    """Whether an ast node reads `.elements`, or subscripts or calls `.get`
    on `.index`."""
    if isinstance(node, ast.Attribute) and node.attr == "elements":
        return isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Subscript):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get":
        target = node.func.value
    else:
        return False
    return isinstance(target, ast.Attribute) and target.attr == "index"


def label_readers(sources) -> set[str]:
    """Each top-level function, as "name", and each method, as
    "Class.name", of the given module sources that reads element labels:
    an attribute `.elements`, or a subscript or `.get` of an attribute
    `.index`, anywhere in its body (nested functions included); a read in
    a class body outside its methods counts as the class's, and one outside
    every class and function as "<module>".

    Like `unread_definitions`, the check goes by name alone: every
    `.elements` and `.index` counts, whatever object it is read on (the
    CLI's `args.elements` flag too), and a label read under another name
    is not seen."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    found = set()
    for tree in (ast.parse(source) for source in sources):
        for top in tree.body:
            if isinstance(top, defs):
                scopes = [(top.name, top)]
            elif isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{item.name}", item) for item in top.body
                          if isinstance(item, defs)]
                scopes += [(top.name, item) for item in top.body if not isinstance(item, defs)]
            else:
                scopes = [("<module>", top)]
            found |= {name for name, scope in scopes
                      if any(map(_reads_labels, ast.walk(scope)))}
    return found


_BUILD = "construction: the labels of a group are made here"
_IO = "I/O: labels are read and written only at the edges"

# Every function that reads element labels, and why: every other API takes
# and returns element indices.
LABEL_READERS = {
    "FiniteGroup.__init__": _BUILD,
    "FiniteGroup.quotient": _BUILD + " (cosets as frozensets)",
    "SubgroupHandle.as_group": _BUILD,
    "build_semidirect": _BUILD,
    "direct_product": _BUILD,
    "AbelianModel.__repr__": "repr: the basis as labels",
    "VanishReport.vanishing": _IO + " (the report's element sets)",
    "VanishReport.nonvanishing": _IO + " (the report's element sets)",
    "cmd_ptable": _IO + " (the CLI prints class representatives)",
    "cmd_oracle": _IO + " (the CLI prints nonvanishing elements)",
    "emit_group": _IO + " (group files)",
}


def test_only_construction_io_and_reprs_read_element_labels():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert label_readers(sources) == set(LABEL_READERS)


def test_the_label_scan_sees_elements_and_index_lookups_by_name_alone():
    source = (
        "def reads():\n"
        "    return G.elements[0]\n"
        "def looks_up(g):\n"
        "    return G.index[g]\n"
        "def gets(g):\n"
        "    return view.index.get(g)\n"
        "def nested():\n"
        "    def inner():\n"
        "        return H.elements\n"
        "    return inner\n"
        "class K:\n"
        "    first = G.index[e]\n"
        "    def __init__(self, elements):\n"
        "        self.elements = list(elements)\n"
        "    def __repr__(self):\n"
        "        return repr(self.elements)\n"
        "def calls_list_index(line, tok):\n"
        "    return line.text.index(tok)\n"
        "def reads_indices(G):\n"
        "    return G.compiled.gens\n"
        "labels = G.elements\n"
    )
    # a store and a list's `.index(...)` method are not reads
    assert label_readers([source]) == {
        "reads", "looks_up", "gets", "nested", "K", "K.__repr__", "<module>"}


def law_passers(sources, group_classes) -> set[str]:
    """Each function, as "name", of the given module sources that calls
    one of `group_classes` with a law: a `mul` argument, the second
    positional one or the keyword, that is not the constant None.  A call
    in a nested function counts for every function around it."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    found = set()
    for tree in (ast.parse(source) for source in sources):
        for fn in (node for node in ast.walk(tree) if isinstance(node, defs)):
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id in group_classes):
                    continue
                law = [kw.value for kw in call.keywords if kw.arg == "mul"] + call.args[1:2]
                if any(not (isinstance(v, ast.Constant) and v.value is None) for v in law):
                    found.add(fn.name)
    return found


# Every function that hands a group a law to tabulate, and why: every other
# group is built from index rows and passes None.
LAW_PASSERS = {
    "cyclic_group": "perfbench's table_m5 mul_calls pin counts the calls of its law, "
                    "until ROADMAP item 1 re-aims perfbench",
}


def _group_classes() -> set[str]:
    return {name for name, obj in vars(group_engine).items()
            if isinstance(obj, type) and issubclass(obj, group_engine.FiniteGroup)}


def test_only_the_listed_builders_hand_a_group_a_law():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert _group_classes() >= {"FiniteGroup", "SemidirectGroup"}
    assert law_passers(sources, _group_classes()) == set(LAW_PASSERS)


def test_the_law_scan_sees_positional_and_keyword_laws():
    source = (
        "def rows():\n"
        "    return FiniteGroup(e, None, None, 0, right=r)\n"
        "def positional():\n"
        "    return FiniteGroup(e, mul, inv, 0)\n"
        "def keyword():\n"
        "    return SemidirectGroup(e, mul=lambda a, b: a, inv=None, identity=0)\n"
        "def other():\n"
        "    return Other(e, mul, inv, 0)\n"
    )
    assert law_passers([source], {"FiniteGroup", "SemidirectGroup"}) == {"positional", "keyword"}
