"""steercert: certify steering of bipartite assemblages.

Builds assemblages from quantum states and measurements (or from
device-independent box data), then decides whether a local hidden state
model exists via linear feasibility, with correlator and continuous
variable witnesses alongside.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    InputError,
    InternalCheckError,
    NonMonotoneFamilyError,
    SteercertError,
)
from .lp import (  # noqa: E402
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
)
from .scenario import (  # noqa: E402
    Assemblage,
    Povm,
    assemblage_from_povms,
    load_scenario,
    pauli_observable,
    pauli_povm,
    noisy_pauli_povm,
    povm_from_kraus,
    scan_predictability,
    singlet,
    werner_state,
)
from .boxworld import (  # noqa: E402
    GptAssemblage,
    GptState,
    chsh_value,
    load_box,
    mix_assemblages,
    prbox_assemblage,
    uniform_assemblage,
)
from .engine import (  # noqa: E402
    SteeringVerdict,
    deterministic_bloch_set,
    joint_measurability,
    lhs_feasibility_boxworld,
    lhs_feasibility_qubit,
    pv_feasibility,
    threshold_scan,
)
from .witnesses import (  # noqa: E402
    CorrelatorSet,
    cjwr,
    correlators_from_assemblage,
    s_m,
)
from .gaussian import (  # noqa: E402
    CovarianceMatrix,
    apply_symmetric_loss,
    inferred_variances,
    reid_check,
    reid_sweep,
    tmsv_covariance,
)
from .report import RunReport  # noqa: E402
