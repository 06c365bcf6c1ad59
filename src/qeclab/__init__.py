"""qeclab: a workbench for error correction on entangled qubit blocks.

The package models a block of n qubits whose members may each entangle with
a private environment factor, decomposes the resulting joint state over a
basis of amplitude/phase error patterns, verifies the correctability
criteria a code must satisfy, performs projective syndrome decoding with
recovery and disentanglement verification, and evaluates the exact packing
and covering bounds on code parameters.
"""

from .bitstrings import (BitString, add_mod2, dot_mod2, support,
                         union_weight, weight)
from .statespace import (DIM_CAP, TOL_NORM, TOL_ZERO, FactorLayout,
                         PureState, fidelity_against, inner, is_disentangled,
                         load_state, save_state, schmidt_diagnostics,
                         state_from_dict, state_to_dict, tensor)
from .errors import (ErrorPattern, apply_amplitude, apply_pattern,
                     apply_phase, enumerate_bitstrings_by_weight,
                     enumerate_patterns)
from .codes import (BUILTIN_CODES, CATALOGUE_EXPECTATIONS, ConditionError,
                    ConditionReport, QuantumCode, catalogue,
                    check_amplitude_condition, check_general_condition,
                    check_phase_condition, code_from_dict, code_to_dict,
                    encode, load_code, run_checker, save_code,
                    synthesize_encoder)
from .channels import (QubitChannel, apply_channel, channel_from_dict,
                       channel_to_dict, identity_channel, is_valid,
                       load_channel, make_decoherence, random_channel,
                       residue_oracle, save_channel, validate)
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
