"""API-surface tests: every public export is importable and the documented
entry points behave as the README promises."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.components",
    "repro.physics",
    "repro.control",
    "repro.sensors",
    "repro.sim",
    "repro.slam",
    "repro.platforms",
    "repro.autopilot",
    "repro.faults",
    "repro.resilience",
    "repro.reference",
    "repro.report",
)


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize(
        "package",
        [p for p in PACKAGES if p not in ("repro", "repro.report")],
    )
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_paper_metadata(self):
        import repro

        assert "Design-Space" in repro.PAPER_TITLE
        assert repro.PAPER_VENUE == "ASPLOS 2021"
        assert repro.PAPER_DOI.startswith("10.1145/")

    @pytest.mark.parametrize("package", PACKAGES)
    def test_packages_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"


def _parameter_names(obj):
    """(qualified name, parameter names) of a public callable or class.

    A class contributes its dataclass fields and the signature of
    ``__init__`` and of every public method.
    """
    if inspect.isclass(obj):
        if dataclasses.is_dataclass(obj):
            yield obj.__qualname__, [f.name for f in dataclasses.fields(obj)]
        for name, member in vars(obj).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                yield (f"{obj.__qualname__}.{name}",
                       list(inspect.signature(member).parameters))
    elif inspect.isfunction(obj):
        yield obj.__qualname__, list(inspect.signature(obj).parameters)


class TestOneEnginePerComputation:
    """Each computation in these packages has one implementation, so no
    public entry point selects between engines."""

    @pytest.mark.parametrize(
        "package", ["repro.slam", "repro.platforms", "repro.core"]
    )
    def test_no_engine_parameter(self, package):
        root = importlib.import_module(package)
        modules = [root] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(root.__path__, package + ".")
        ]
        offenders = []
        for module in modules:
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exported; checked where it is defined
                for qualname, parameters in _parameter_names(obj):
                    if "engine" in parameters:
                        offenders.append(f"{module.__name__}.{qualname}")
        assert offenders == []


class TestReadmeQuickstart:
    def test_readme_design_snippet(self):
        """The exact snippet shown in the README must keep working."""
        from repro.core.design import DroneDesign

        design = DroneDesign(
            wheelbase_mm=450, battery_cells=3, battery_capacity_mah=3000,
            compute_power_w=5.0,
        )
        result = design.evaluate()
        text = result.summary()
        assert "hover" in text
        assert result.flight_time_min > 10.0

    def test_readme_flight_snippet(self):
        from repro.autopilot.dronekit import connect

        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(5.0)
        assert vehicle.location.altitude > 3.0
        assert 0.9 < vehicle.battery.level <= 1.0


class TestDronekitDetails:
    def test_groundspeed_during_translation(self):
        from repro.autopilot.dronekit import connect

        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(5.0, wait_s=6.0)
        vehicle.simple_goto(8.0, 0.0, 5.0)
        vehicle.wait(1.5)
        assert vehicle.groundspeed > 0.3

    def test_location_altitude_is_negative_down(self):
        from repro.autopilot.dronekit import LocationLocal

        location = LocationLocal(north=1.0, east=2.0, down=-7.0)
        assert location.altitude == 7.0
