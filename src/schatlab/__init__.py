"""schatlab: a finite-dimensional laboratory for Schatten quasinorms,
homogeneous matrix centralizers and twisted sums, with a seeded
measurement layer for their defining inequality constants."""

__version__ = "0.1.0"

from .matcore import (  # noqa: F401
    DEFAULT_TOL,
    InputError,
    NumericError,
    PolarForm,
    SchmidtForm,
    Tolerances,
    concavity_modulus,
    holder_factor,
    joint_root,
    mat_from_json,
    mat_to_json,
    modulus_power,
    polar,
    rank_one,
    schatten_norm,
    schmidt,
    singular_values,
    trace,
)
from .seqcore import (  # noqa: F401
    PHI_TABLE,
    LipschitzFn,
    get_phi,
    kp_phi,
    lp_norm,
    rank_sequence,
    register_phi,
)
from .centralizers import (  # noqa: F401
    KPBicentralizer,
    KPOnH,
    LiftedQuasilinear,
    LinearMap,
    Localized,
    Lowered,
    RightMultiplication,
    Scaled,
    ScaledMap,
    SumMap,
    SumSpec,
    apply_qmap,
    evaluate,
    frame_ambiguous,
    spatial_part,
    spec_from_doc,
    spec_hash,
    spec_to_doc,
    trace_functional,
    zero_spec,
)
from .metrology import (  # noqa: F401
    EstimateReport,
    Sampler,
    TwistedTable,
    distance_estimate,
    estimate_constant,
    estimate_constants,
    fit_morphism,
    gamma_summing_mc,
    reevaluate_witness,
)
from .twisted import (  # noqa: F401
    TwistedVec,
    quasinorm_modulus_probe,
    twisted_quasinorm,
    twisted_target,
)
