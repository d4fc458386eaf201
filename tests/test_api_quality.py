"""API quality gates: docstrings and export hygiene across the package."""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.clock",
    "repro.core",
    "repro.mac",
    "repro.net",
    "repro.propagation",
    "repro.radio",
    "repro.routing",
    "repro.sim",
    "repro.experiments",
    "repro.faults",
    "repro.obs",
    "repro.parallel",
]


def walk_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package_name}.{info.name}")


def public_members(module):
    for name in getattr(module, "__all__", []):
        yield name, getattr(module, name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__ for module in walk_modules() if not module.__doc__
        ]
        assert undocumented == []

    def test_every_public_callable_is_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, member in public_members(module):
                if inspect.isfunction(member) or inspect.isclass(member):
                    if not inspect.getdoc(member):
                        undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_every_public_class_method_is_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, member in public_members(module):
                if not inspect.isclass(member):
                    continue
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method) and not inspect.getdoc(method):
                        undocumented.append(
                            f"{module.__name__}.{name}.{method_name}"
                        )
        assert undocumented == []


class TestExports:
    def test_all_lists_resolve(self):
        for module in walk_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name} dangles"

    def test_subpackage_inits_have_all(self):
        for package_name in PACKAGES:
            module = importlib.import_module(package_name)
            assert getattr(module, "__all__", None), (
                f"{package_name} lacks __all__"
            )


#: Analytic experiments with no stochastic component and hence no seed.
SEEDLESS_EXPERIMENTS = {"A5", "F2", "T8"}


class TestExperimentEntryPoints:
    """Every experiment exposes the normalized uniform entry point."""

    def experiments(self):
        from repro.experiments import all_experiments

        return sorted(all_experiments().items())

    def test_every_run_accepts_params_bundle(self):
        for experiment_id, run in self.experiments():
            assert run.experiment_id == experiment_id

    def test_every_parameter_has_a_default(self):
        for experiment_id, run in self.experiments():
            signature = inspect.signature(run.__wrapped__)
            missing = [
                name
                for name, parameter in signature.parameters.items()
                if parameter.default is inspect.Parameter.empty
            ]
            assert missing == [], (
                f"{experiment_id}.run has defaultless params {missing}"
            )

    def test_stochastic_experiments_take_a_seed_not_an_rng(self):
        for experiment_id, run in self.experiments():
            parameters = inspect.signature(run.__wrapped__).parameters
            assert "rng" not in parameters, (
                f"{experiment_id}.run takes an rng; pass a seed instead"
            )
            if experiment_id not in SEEDLESS_EXPERIMENTS:
                assert "seed" in parameters, (
                    f"{experiment_id}.run lacks a seed parameter"
                )

