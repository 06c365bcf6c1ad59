"""qeclab: a workbench for error correction on entangled qubit blocks.

The package models a block of n qubits whose members may each entangle with
a private environment factor, decomposes the resulting joint state over a
basis of amplitude/phase error patterns, verifies the correctability
criteria a code must satisfy, performs projective syndrome decoding with
recovery and disentanglement verification, and evaluates the exact packing
and covering bounds on code parameters.
"""

from .bitstrings import BitString, union_weight
from .statespace import (DIM_CAP, TOL_NORM, TOL_ZERO, FactorLayout,
                         PureState, fidelity_against, inner, is_disentangled,
                         schmidt_diagnostics, tensor)
from .errors import ErrorPattern, apply_amplitude, apply_pattern, apply_phase
from .codes import (BUILTIN_CODES, CATALOGUE_EXPECTATIONS, ConditionError,
                    ConditionReport, QuantumCode, catalogue, code_from_dict,
                    code_to_dict, condition_patterns, encode, load_code,
                    run_checker, save_code)
from .channels import (QubitChannel, apply_channel, channel_from_dict,
                       channel_to_dict, load_channel, make_decoherence,
                       random_channel, residue_oracle, save_channel, validate)
from .decoder import (DecodeReport, SyndromeTable, build_syndrome_table,
                      correct, measure_exhaustive, measure_hierarchical,
                      recover, syndrome_distribution)
from .bounds import (asymptotic_gv_rate, asymptotic_hamming_rate,
                     bound_rows, entropy, finite_hamming_rate,
                     gv_guaranteed_codewords, gv_inequality_holds,
                     hamming_holds, hamming_rate_root, min_n_gv,
                     min_n_hamming, sphere_volume)
from .rng import trial_generator

__version__ = "0.1.0"
