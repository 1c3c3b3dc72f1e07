import importlib

import pdfactor
from pdfactor import cli

# The package's export list. Each library module's __all__ is the one place
# its names are stated; this copy pins the union so a name cannot drop out.
EXPORTS = {
    "__version__",
    "ballantine", "cli", "errors", "flowsim", "matfun", "planar", "spectral",
    "transport",
    "PdfactorError", "InputError", "NumericError", "InvalidInput",
    "InvalidParams", "InvalidStep", "DimensionMismatch", "NotPositiveDefinite",
    "SingularInput", "NotOrthogonal", "NotARotation", "NegativeDeterminant",
    "NonPositiveDeterminant", "TargetUnreachable", "NumericalFailure",
    "EigenPair", "sym_eig", "spd_sqrt", "spd_log", "sym_exp", "expm", "polar",
    "cond",
    "ot_map", "ot_residual",
    "ChainParams", "FactorChain", "SweepTable", "rotation2",
    "chain_covariances", "chain_product", "build_chain", "net_rotation",
    "phi_sweep", "solve_theta", "plan_scheme", "gradient_generator",
    "OrthogonalDecomposition", "RotationBlock", "UnitBlock",
    "block_diagonalize", "assemble",
    "FactorOptions", "FactorStats", "VerificationReport", "factor_rotation2",
    "factor_orthogonal", "factor_matrix", "verify",
    "FlowSegment", "ParticleCloud", "Trajectory", "segments_from_chain",
    "simulate", "transition_matrix", "write_trajectory_csv",
}
LIBRARY = ("errors", "matfun", "transport", "planar", "spectral", "ballantine",
           "flowsim")


def test_exports_are_pinned_and_unique():
    assert len(EXPORTS) == 65
    assert len(pdfactor.__all__) == len(set(pdfactor.__all__))
    assert set(pdfactor.__all__) == EXPORTS


def test_each_export_is_its_defining_modules_object():
    for short in LIBRARY:
        module = importlib.import_module(f"pdfactor.{short}")
        for name in module.__all__:
            assert name in pdfactor.__all__, (short, name)
            assert getattr(pdfactor, name) is getattr(module, name), (short, name)


def test_cli_names_stay_in_cli():
    for name in cli.__all__:
        assert name not in pdfactor.__all__
        assert not hasattr(pdfactor, name)
