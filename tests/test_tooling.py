"""The traced benchmark pass (``benchmarks/bench.py --trace 1``) wraps
kernelaj functions by name and fails on a name that is gone; a change that
deletes or renames one must fail here first."""

import ast
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [name for name, (owner, attribute, _) in layers.TARGETS.items()
               if not callable(getattr(owner, attribute, None))]
    assert missing == []


SRC = Path(__file__).resolve().parents[1] / "src" / "kernelaj"


def _package_imports(module):
    """The kernelaj modules that ``module`` imports, directly or through
    other kernelaj modules."""
    seen, todo = set(), [module]
    while todo:
        tree = ast.parse((SRC / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                name = node.module
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kernelaj."):
                name = node.module.split(".")[1]
            else:
                continue
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_model_layers_do_not_import_training():
    # the fitted model, its file format and the estimators stand without the
    # training code
    for module in ("core", "model", "serialize"):
        assert "training" not in _package_imports(module), module


def test_estimators_stand_below_the_model():
    # core holds the estimators and imports only the errors; clustering and
    # metrics build on it and never reach up to the fitted model or the CLI
    assert _package_imports("core") == {"errors"}
    upper = {"model", "training", "finetune", "serialize", "cli"}
    for module in ("clustering", "metrics"):
        assert not _package_imports(module) & upper, module


def test_prediction_has_one_product():
    # model and clustering take every matrix product through
    # embedding.blocked_matmul, whose row bits do not depend on the batch; a
    # second product path here would let prediction drift from it
    for module in ("model", "clustering"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, (ast.BinOp, ast.AugAssign))
                     and isinstance(node.op, ast.MatMult))
                 or (isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"))]
        assert found == [], (module, found)


def _calls(module):
    """(enclosing module-level name, called name) of every call in
    ``module``; the first is None for a call at module level."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                yield (getattr(top, "name", None),
                       func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))


def test_one_objective():
    # every loss value, the step's, fine-tuning's and both criteria's, comes
    # from training.objective_and_dpsi: it alone calls the ranking loss and
    # holds training's only log (the NLL's), so no forward-only copy of the
    # loss can drift from the gradient path
    owners = {path.stem: list(_calls(path.stem)) for path in sorted(SRC.glob("*.py"))}
    ranking = [(module, owner) for module, calls in owners.items()
               for owner, name in calls if name == "ranking_value_and_dpsi"]
    logs = [owner for owner, name in owners["training"] if name == "log"]
    assert ranking == [("training", "objective_and_dpsi")]
    assert logs == ["objective_and_dpsi"]


def _raising_errstates(module):
    """The enclosing module-level name of every ``np.errstate(...)`` call in
    ``module`` that sets some floating-point error to "raise"."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
                    and any(getattr(k.value, "value", None) == "raise" for k in node.keywords)):
                yield getattr(top, "name", None)


def test_one_descent_loop():
    # embedding training and summary fine-tuning run their epochs through
    # training.descend: it alone applies the stopping rule and turns
    # floating-point errors into Diverged, so the divergence guard, the
    # patience check and the best checkpoint cannot drift between the stages
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    stalled = [(module, owner) for module in modules
               for owner, name in _calls(module) if name == "stalled"]
    raising = [(module, owner) for module in modules for owner in _raising_errstates(module)]
    assert stalled == [("training", "descend")]
    assert raising == [("training", "descend")]


def test_one_update():
    # embedding training and summary fine-tuning step their parameters
    # through training.descend's one update: outside TrainConfig only descend
    # reads a learning rate, so a change of optimizer reaches both stages
    readers = {(path.stem, getattr(top, "name", None)) for path in sorted(SRC.glob("*.py"))
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "learning_rate"}
    assert sorted(readers - {("training", "TrainConfig")}) == [("training", "descend")]


def test_only_training_clusters():
    # the ε-net runs only inside the training criterion, and fit ships the
    # clusters of the criterion's best epoch, so no second clustering of the
    # training rows can drift from the model that was scored
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    callers = {name: [(module, owner) for module in modules
                      for owner, called in _calls(module) if called == name]
               for name in ("build_cluster_model", "epsilon_net_cluster")}
    assert callers == {"build_cluster_model": [("training", "_evaluate_criterion")],
                       "epsilon_net_cluster": [("clustering", "build_cluster_model")]}


def test_one_hazard_ratio():
    # every hazard is d * safe_reciprocal(n) in one of two places: the
    # classical tables' core.table_hazards and model.weighted_hazards, which
    # the training step, the criterion, prediction and fine-tuning share, so
    # no second kernel-weighted hazard path can drift from prediction's
    callers = [(module, owner) for module in sorted(p.stem for p in SRC.glob("*.py"))
               for owner, name in _calls(module) if name == "safe_reciprocal"]
    assert callers == [("core", "table_hazards"), ("model", "weighted_hazards")]


def test_hazard_path_takes_no_buffers():
    # each function that creates a hazard plane owns it: no caller lends a
    # psi, 1/N or gradient plane, so no caller can alias one it still reads
    defaulted = {}
    for module, name in (("model", "weighted_hazards"), ("training", "objective_and_dpsi"),
                         ("training", "_ratio_backward")):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        args = next(node.args for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        defaulted[name] = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert defaulted == {"weighted_hazards": 0, "objective_and_dpsi": 0, "_ratio_backward": 0}


def test_one_recursion():
    # the Aalen-Johansen recursion runs in core.cif_from_hazards, which the
    # step, the ranking, the criterion, prediction and fine-tuning share, and
    # the censoring distribution's product-limit in metrics.censoring_survival;
    # no other cumulative product, so no hand-rolled in-place recursion (the
    # ranking's, say) can drift from the one the model predicts with
    callers = [(module, owner) for module in sorted(p.stem for p in SRC.glob("*.py"))
               for owner, name in _calls(module) if name == "cumprod"]
    assert callers == [("core", "cif_from_hazards"), ("metrics", "censoring_survival")]


def test_one_fallback_rule():
    # a row with no exemplar within tau weighs every cluster equally in one
    # place, model.fallback_weights, which prediction, explanation, the
    # one-row weighted tables, every criterion and fine-tuning read their
    # weights through, so no module can drop such rows or overwrite their
    # curves by a second rule
    callers = [(module, owner) for module in sorted(p.stem for p in SRC.glob("*.py"))
               for owner, name in _calls(module) if name == "fallback_weights"]
    assert callers == [("finetune", "sft_loss_and_grad"), ("model", "_curves_from_weights"),
                       ("model", "weighted_summaries"), ("training", "sft_objective_from_tables")]


def test_one_criterion_builder():
    # training.table_criterion is the one criterion builder: it builds the
    # validation scorer and probes it, so each stage and fit's check before
    # training build the criterion alike, and no scorer is built in one place
    # and handed to a stage that scores another criterion
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    defined = [node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)]
    assert "criterion_scorer" not in defined
    callers = [(module, owner) for module in modules
               for owner, called in _calls(module) if called == "table_criterion"]
    assert callers == [("cli", "fit_pipeline"), ("finetune", "fine_tune_summaries"),
                       ("training", "train_embedding")]


def test_one_label_rule():
    # a (bin, event) label is checked by one rule, core.check_labels, next to
    # the code format it guards. The counter of every table, the step's code
    # groups, the one objective and the public ranking apply it, so no reader
    # can score a label outside the tables; the step and fine-tuning call it,
    # too, to name rows in the caller's order and match the labels to their rows
    defined = [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "check_labels"]
    assert defined == [("core", "check_labels")]
    callers = [(module, owner) for module in sorted(p.stem for p in SRC.glob("*.py"))
               for owner, name in _calls(module) if name == "check_labels"]
    assert callers == [("core", "count_tables"), ("finetune", "sft_loss_and_grad"),
                       ("training", "code_groups"), ("training", "objective_and_dpsi"),
                       ("training", "ranking_value_and_dpsi"),
                       ("training", "total_loss_and_grad")]


def test_one_batch_buffer():
    # the fit's one B x B buffer belongs to the training step: only
    # training.total_loss_and_grad views it through _block, so no second
    # buffered kernel path can drift from the step's
    callers = [(module, owner) for module in sorted(p.stem for p in SRC.glob("*.py"))
               for owner, name in _calls(module) if name == "_block"]
    assert callers == [("training", "total_loss_and_grad")]


def test_no_unused_private_names():
    # every module-level private function, class or constant is used
    # somewhere in the package, so a deleted path cannot leave its helpers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    assert unused == []


def _uses(path, strings=False):
    """Names that ``path`` loads or reads as attributes (and, with
    ``strings``, its string constants), outside the definition of each name."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                yield name


def test_every_export_has_a_caller():
    # every name the package exports is used by the package itself, the
    # acceptance suite or the benchmark (which names its traced functions in
    # strings); a name only unit tests or demos call does not belong in src/,
    # and an independent version of one belongs in tests/dense_oracle.py
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exports - _called_names()) == []


def _called_names():
    """Names that the package (outside its __init__) or the acceptance suite
    uses, and names that the benchmark uses or spells in a string."""
    package = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    used = {name for path in package + [Path(__file__).with_name("test_acceptance.py")]
            for name in _uses(path)}
    return used | {name for path in sorted(LAYERS.parent.glob("*.py"))
                   for name in _uses(path, strings=True)}


def test_every_public_function_has_a_caller():
    # test_every_export_has_a_caller's rule for every module-level public
    # function and class, exported or not: one whose last caller in the
    # package, the acceptance suite and the benchmark went is dead code
    public = {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    used = _called_names()
    assert sorted(name for name in public if name.rsplit(".", 1)[1] not in used) == []


TESTS = Path(__file__).resolve().parent


def _is_fixture(decorator):
    """Whether ``decorator`` is ``pytest.fixture`` or a call of it."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Attribute) and target.attr == "fixture"


def test_every_fixture_is_used():
    # every fixture that conftest.py shares is a parameter of some test or
    # fixture, so a fixture whose last user went does not stay behind
    conftest = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    fixtures = {node.name for node in conftest.body if isinstance(node, ast.FunctionDef)
                and any(map(_is_fixture, node.decorator_list))}
    params = {arg.arg for path in sorted(TESTS.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) for arg in node.args.args}
    assert sorted(fixtures - params) == []


def _defaulted_params(function):
    """(position or None, name) of every parameter of ``function`` that has a
    default; keyword-only parameters have no position."""
    positional = function.args.posonlyargs + function.args.args
    first = len(positional) - len(function.args.defaults)
    yield from ((i, arg.arg) for i, arg in enumerate(positional) if i >= first)
    yield from ((None, arg.arg) for arg, default in
                zip(function.args.kwonlyargs, function.args.kw_defaults) if default is not None)


def _defaults_passed(paths):
    """(function.parameter, whether each call passes it) of every defaulted
    parameter of a module-level function in the package, over the calls of
    that name in ``paths``; a function one of whose calls spreads *args or
    **kwargs is left out."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                keywords = {k.arg for k in node.keywords}
                spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(None if spread else (len(node.args), keywords))
    for path in sorted(SRC.glob("*.py")):
        for function in ast.parse(path.read_text(encoding="utf-8")).body:
            sites = calls.get(getattr(function, "name", None), [])
            if isinstance(function, ast.FunctionDef) and None not in sites:
                for i, name in _defaulted_params(function):
                    yield f"{function.name}.{name}", [name in keywords or i is not None and i < n
                                                      for n, keywords in sites]


def test_every_parameter_has_a_caller():
    # every defaulted parameter of a module-level function is passed by some
    # call of that name in the package, the acceptance suite or the
    # benchmark; an option only unit tests set is a code path nothing uses
    callers = [*sorted(SRC.glob("*.py")), TESTS / "test_acceptance.py",
               *sorted(LAYERS.parent.glob("*.py"))]
    assert sorted(name for name, passes in _defaults_passed(callers) if not any(passes)) == []


def test_every_default_is_left_out():
    # the reverse: every default is left out by some call of that name in the
    # package, its tests, the demos or the benchmark; a default that every
    # call overrides is a second copy of the value its callers pass
    callers = [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py")),
               *sorted((SRC.parents[1] / "demos").glob("*.py")),
               *sorted(LAYERS.parent.glob("*.py"))]
    assert sorted(name for name, passes in _defaults_passed(callers) if all(passes)) == []


def test_every_config_key_has_a_setter():
    # every key a fit config takes is set, as a string or a keyword argument,
    # by the acceptance suite or the benchmark; a key nothing sets is a
    # setting, and a code path, that nothing uses
    from kernelaj import cli

    sections = {"": cli._TOP_KEYS, "data": cli._DATA_KEYS, "embedding": cli._EMBED_KEYS,
                "training": cli._TRAIN_KEYS, "clustering": cli._CLUSTER_KEYS,
                "sft": cli._SFT_KEYS}
    setters = set()
    for path in [TESTS / "test_acceptance.py", *sorted(LAYERS.parent.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                setters.add(node.value)
            elif isinstance(node, ast.keyword):
                setters.add(node.arg)
    unset = [f"{section}.{key}".lstrip(".") for section, keys in sections.items()
             for key in sorted(keys) if key not in setters]
    assert unset == []


def test_no_process_cache():
    # nothing in the package memoizes across calls: functools' caches would
    # keep their results for the life of the process, after a fit returns
    caching = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.stem, a.name) for a in node.names if a.name in caching]
            elif (isinstance(node, ast.Attribute) and node.attr in caching
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append((path.stem, node.attr))
    assert found == []


def test_every_error_has_a_raiser():
    # every error type the package defines, but the base class, is raised in
    # src/; test_every_export_has_a_caller counts an import as a use, so an
    # error whose last raiser went would pass it
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    errors = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(errors - raised - {"KernelAJError"}) == []


def test_errors_carry_their_message_only():
    # every error type is a bare subclass: its context is in the message,
    # and a method or a stored attribute would be a second copy nothing reads
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    found = [(node.name, type(item).__name__) for node in tree.body
             if isinstance(node, ast.ClassDef) for item in ast.walk(node)
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Assign,
                                  ast.AnnAssign, ast.AugAssign))]
    assert found == []
