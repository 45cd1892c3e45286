"""Opportunistic-network service composition toolkit.

Subpackages/modules:
    service_model   -- service catalogs, chaining rules, node assignment
    mobility        -- synthetic trace generators (Levy walk, SLAW, HCMM) and GPS ingestion
    contact_engine  -- contact extraction and temporal-distance ground truth
    knowledge       -- per-node timers, load estimates, edge prices per awareness level
    forwarding      -- relay decision schemes (direct, TT, EBR, MT)
    sim_core        -- discrete-event simulation engine and composition path selection
    experiments     -- experiment specs, presets, metrics aggregation
    cli             -- command-line entry point
"""

__version__ = "0.1.0"
