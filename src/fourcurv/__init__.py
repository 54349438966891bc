"""Pointwise curvature algebra on oriented Riemannian four-manifolds.

Layers, bottom up: forms (the wedge basis, the Hodge star matrix,
self-dual and anti-self-dual splitting, planes), tensor (algebraic
curvature tensors, symmetry validation, the block decomposition), scan
(sectional and biorthogonal curvature extremes over the plane
Grassmannian), weitzenbock (the two-form Weitzenbock operator and its
lower bound), ville (bounds conditional on pinching), invariants
(characteristic-class integrands), verdict (the pinching constant and the
two main decision procedures), models (exact homogeneous examples and
pinched sample generation), cli (command-line front end).  Each question
is answered by one route; the second routes and the proofs' own
transcriptions (frames, Lemma 1's adapted-frame identity, the Theorem 2
quadratic and its discriminant) are test oracles in tests/proof_routes.py.
"""
from .errors import (CurvatureError, InconsistentInputs, InvalidSymmetry,
                     NonPositiveInput, NonPositiveParam,
                     NonPositiveScalarCurvature, NonUnitInput,
                     PinchingNotVerified, UnknownModel, WrongDuality)
from .forms import (ASD_BASIS, BLOCK_BASIS, SD_BASIS, STAR_MATRIX, Form2,
                    Plane2, plane_from_sd_asd, random_frames, sd_asd_split)
from .invariants import (IntegrandValues, homogeneous_invariants,
                         integrand_values)
from .models import ModelSpace, model, model_names, pinched_sample
from .reporting import CheckReport
from .scan import (SCAN_ACCURACY, PinchingReport, batch_sectional,
                   k1perp_closed_form, k3perp_closed_form, scan_extremes,
                   seaman_check, sectional)
from .tensor import (CurvatureDecomposition, CurvatureOperator, RiemannTensor,
                     SymmetryReport, assemble_operator, decompose,
                     load_tensor, operator_from_tensor,
                     random_algebraic_tensor, ricci, rotate_tensor,
                     save_tensor, tensor_from_dict, tensor_to_dict,
                     validate_symmetries)
from .verdict import (CRITICAL_DELTA, CornerValues, TheoremVerdict,
                      corner_values, critical_delta, dense_grid_min_over_E,
                      f_eval, min_over_E, theorem1_verdict, theorem2_threshold,
                      theorem2_verdict)
from .ville import (VilleData, deg_lower_bound, operator_bound_check,
                    ville_data, znorm_bound_check)
from .weitzenbock import (WeitzenbockOperator, k3_bound_check,
                          lemma1_bound_check, lemma1_suite,
                          weitzenbock_from_blocks, weitzenbock_operator)

__version__ = "0.1.0"
