"""Thermodynamic coprocessor simulator: stochastic-matrix products via stationary
energy flows of bosonic modes coupled to thermal reservoirs, with an equivalent
electrical crossbar cross-check."""

from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
    FlowReport,
    bose_occupancy,
    inverse_temperature,
    stationary_flows,
)
from thermoflow.compiler import (
    CompiledProgram,
    DecodedResult,
    EncodeSettings,
    decode_matvec,
    decode_scalar_product,
    encode_matvec,
    encode_parallel_matvec,
    encode_scalar_product,
    parallel_group_products,
    signed_matvec,
)
from thermoflow.dynamics import TransientTrace, evolve, qfactor_estimate, settling_time
from thermoflow.circuit import (
    CrossbarCircuit,
    StarCircuit,
    build_crossbar,
    crossbar_currents,
    export_netlist,
    oqs_to_star,
    star_currents,
    star_node_potential,
)

__all__ = [
    "T_FLOOR",
    "DeviceConfig",
    "FlowReport",
    "bose_occupancy",
    "inverse_temperature",
    "stationary_flows",
    "EncodeSettings",
    "CompiledProgram",
    "DecodedResult",
    "encode_scalar_product",
    "decode_scalar_product",
    "encode_matvec",
    "decode_matvec",
    "encode_parallel_matvec",
    "parallel_group_products",
    "signed_matvec",
    "TransientTrace",
    "evolve",
    "settling_time",
    "qfactor_estimate",
    "StarCircuit",
    "CrossbarCircuit",
    "star_node_potential",
    "star_currents",
    "oqs_to_star",
    "build_crossbar",
    "crossbar_currents",
    "export_netlist",
]

__version__ = "0.1.0"
