"""steklov_lab: Steklov eigenvalues on circle domains, normalized-eigenvalue
maximization over boundary measures and conformal classes, and free boundary
minimal surface verification in the unit ball."""

__version__ = "0.1.0"

from .closedform import (
    ClosedFormSpectrum,
    RotSymSurface,
    SpectralEntry,
    annulus_spectrum,
    critical_parameter,
    critical_sigma1L,
    moebius_spectrum,
)
from .domain import (
    BoundaryDensity,
    BoundaryMeasureSamples,
    CircleDomain,
    Hole,
    as_samples,
    heat_smooth,
    normalize,
    validate,
)
from .basis import HarmonicBasis, EigenSystemMatrices, build_basis, dirichlet_matrix, boundary_matrices
from .dtn import SteklovSpectrum, steklov_spectrum, coarse_bound, multiplicity_check
from .maximizer import (
    AscentState,
    Certificate,
    EigensolveBudget,
    extremality_certificate,
    optimize_configuration,
    optimize_density,
    sweep_k,
)
from .surfaces import (
    ParametricSurface,
    area_length_report,
    critical_catenoid,
    critical_moebius,
    energy_form_Q,
    export_obj,
    flat_disk,
    index_form_S,
    index_form_boundary,
    normal_part,
    surface_by_name,
    verify_minimal_free_boundary,
)
from .dbar import (
    ConformalFieldSpace,
    DbarProblem,
    DbarSolution,
    build_conformal_variation,
    conformal_field_space,
    cylinder_problem,
    dbar_residual,
    solve_dbar,
    verify_area_energy,
)

from . import _blas

_blas.pin_blas_threads()

__all__ = [name for name in dir() if not name.startswith("_")]
