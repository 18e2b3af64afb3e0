"""Exact arithmetic for Burnside classes of symmetric groups: graded
products, restriction diagonals, wreath composition, Adams operations,
symmetric functions with plethysm, and big Witt vectors.
"""

from .adams import AdamsTable, check_gcd, check_prop_adams, psi_partition, psi_upper, solve_psi_K
from .bring import (
    BElement,
    beta_regular,
    beta_upper,
    diagonal,
    eval_burnside,
    eval_z,
    product,
    star,
    star_basis,
    star_effective,
)
from .burnside import (
    BurnsideElement,
    GSet,
    beta2_on_gsets,
    beta_on_gset,
    beta_virtual,
    group_catalog,
    induce,
    orbit_decompose,
)
from .catalog import (
    Ambient,
    Catalog,
    SubgroupClass,
    enumerate_classes,
    get_catalog,
    identify,
    mark,
    table_of_marks,
)
from .config import Config, get_config, set_config
from .errors import (
    BetaringError,
    CapExceeded,
    DegreeCap,
    IntegralityViolation,
    NotASubgroup,
    NotEffective,
    PrecisionMismatch,
    SizeCap,
)
from .perms import (
    Partition,
    PermGroup,
    Permutation,
    all_subgroups,
    direct_embed,
    double_cosets,
    mixed_wreath,
    normalizer_order,
    orbit_partition,
    partitions,
    wreath,
)
from .symfunc import (
    SymFunc,
    coproduct,
    cycle_index,
    e_,
    generator_check,
    h_,
    lin,
    lin2,
    p_,
    plethysm,
)
from .witt import WittVector, delta_m

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
