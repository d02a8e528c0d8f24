"""stratkit: finite topological spaces, preorders, and decomposition
classification, verified by exhaustive brute force on small instances.

Exports resolve lazily (PEP 562): ``import stratkit`` loads no submodule,
and the first access to a name imports its defining module and caches the
value here. A command that never touches the oracle, the generator, the
fixture catalog or the DOT writer never compiles them.
"""

import sys
import types

__version__ = "0.1.0"

# exported name -> defining submodule; __all__ keeps this order
_EXPORTS = {
    "AgreementReport": "decomposition",
    "ClassificationReport": "decomposition",
    "Decomposition": "decomposition",
    "Document": "documents",
    "FaceModel": "fixtures",
    "FiniteSpace": "topology",
    "Fixture": "fixtures",
    "InternalInvariantError": "errors",
    "MonotoneMap": "order",
    "OrderCheck": "decomposition",
    "ParseError": "errors",
    "Poset": "order",
    "PosetStratification": "decomposition",
    "PreconditionError": "errors",
    "Proset": "order",
    "SemicontinuityReport": "decomposition",
    "SpaceMap": "topology",
    "SplitMix64": "generate",
    "StratificationVerdict": "decomposition",
    "SweepReport": "oracle",
    "SymbolicFamily": "order",
    "ValidationError": "errors",
    "Verdict": "topology",
    "adjunction_roundtrips": "order",
    "alexandrov_space": "order",
    "as_poset_stratified": "decomposition",
    "classify": "decomposition",
    "compatible_orders": "oracle",
    "enumerate_partitions": "oracle",
    "enumerate_posets": "oracle",
    "enumerate_prosets": "oracle",
    "exhaustive_verify": "oracle",
    "export_dot": "dot",
    "face_poset_model": "fixtures",
    "final_topology": "topology",
    "fixture": "fixtures",
    "fixture_names": "fixtures",
    "generate": "generate",
    "load": "documents",
    "save": "documents",
    "singleton_local_closure_check": "order",
    "specialization_preorder": "order",
    "strict_refinements_never_open": "oracle",
    "stratification_from_open_map": "decomposition",
    "symbolic_local_finiteness": "order",
}
# submodules reachable as attributes without importing them first, as when
# the exports were imported eagerly (``stratkit.topology.MAX_POINTS``)
_SUBMODULES = ("decomposition", "documents", "dot", "errors", "fixtures", "oracle", "order",
               "topology")

__all__ = list(_EXPORTS)


def _submodule(name: str) -> types.ModuleType:
    # __import__ rather than importlib.import_module, which -X importtime does not report
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))


class _Package(types.ModuleType):
    """Importing the submodule ``stratkit.generate`` would bind it over the
    exported function of the same name; the function keeps the name."""

    def __setattr__(self, name: str, value) -> None:
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
