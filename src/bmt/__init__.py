"""Binary matroid toolkit: membership, decomposition, and census for
triangle free point sets of PG(n-1, 2) with no induced independent 4-set.

Points are nonzero ints under XOR; point sets are bitmasks with bit p set
iff p is an element.  See the README for the file formats and the CLI.
Each module loads on the first use of one of its names.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "TheoremViolation",
    "Flat",
    "LinearMap",
    "closure",
    "functional_kernel",
    "rank",
    "rref",
    "Matroid",
    "apply_map",
    "canonical_form",
    "complement",
    "from_points",
    "induced_restriction",
    "is_affine",
    "parse_bmat",
    "restrict_to_closure",
    "serialize_bmat",
    "stabilizer_flat",
    "sumset",
    "xor_translate",
    "Certificate",
    "ag",
    "alpha0",
    "alpha1",
    "beta0",
    "beta1",
    "certificate_from_json",
    "circuit",
    "double",
    "expand0",
    "expand1",
    "pg",
    "sag",
    "units",
    "Witness",
    "affine_witness",
    "critical_number",
    "find_ai4_violation",
    "find_doubling_element",
    "find_induced_is",
    "find_induced_odd_circuit",
    "find_triangle",
    "i4tf_witness",
    "recognize_sag",
    "AffineChain",
    "DecompositionResult",
    "DoubledSag",
    "NotMember",
    "decompose_affine_step",
    "decompose_ai4",
    "decompose_i4tf",
    "find_special_hyperplane",
    "strip_doublings",
    "CensusReport",
    "CrosscheckReport",
    "enumerate_generated",
    "exhaustive_crosscheck",
    "normal_form_certificate",
    "random_members",
    "CheckResult",
    "SelftestReport",
    "run_selftest",
]

# The modules that define the public names, each after those it imports.
_MODULES = (
    "errors", "gf2", "matroid", "construct", "detect", "decompose", "census", "selftest"
)


def __getattr__(name: str):
    # PEP 562: `import bmt` loads no module.  A submodule's name loads it;
    # a public name loads the first module in _MODULES that has it, with
    # the ones before it: its own imports, plus errors for gf2's names and
    # construct for detect's.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for mod in _MODULES:
            module = importlib.import_module(f"{__name__}.{mod}")
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
