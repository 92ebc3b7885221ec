"""``repro.scenarios`` — declarative scenario files for every driver.

New scenarios are data, not code: a YAML/JSON file names the model and
its parameters, the :class:`~repro.runtime.config.ExecutionConfig`,
and the outputs.  A flag-spelled run subcommand is the same spec
spelled as flags, so ``repro.cli scenario run FILE`` and the
equivalent flag invocation print the same bytes by construction.  See
:mod:`repro.scenarios.spec` for the schema and the repository's
``scenarios/`` directory for the gallery (the paper's Figs. 14/15,
the Section V validation, a 100-node grid network).
"""

from .runner import render_scenario, run_scenario
from .spec import (
    SPEC_VERSION,
    SUPPORTED_VERSIONS,
    ScenarioError,
    ScenarioSpec,
    apply_overrides,
    load_scenario,
    parse_override,
    spec_from_mapping,
)

__all__ = [
    "SPEC_VERSION",
    "SUPPORTED_VERSIONS",
    "ScenarioError",
    "ScenarioSpec",
    "apply_overrides",
    "load_scenario",
    "parse_override",
    "render_scenario",
    "run_scenario",
    "spec_from_mapping",
]
